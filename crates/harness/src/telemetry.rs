//! Observability plumbing for the scenario CLI driver ([`crate::cli`]).
//!
//! [`crate::cli::Cli::parse`] fills a [`TelemetryArgs`] from the
//! telemetry flags (`--chrome-trace`, `--metrics-out`,
//! `--metrics-interval`, `--svg`, `--request-log`, `--engine-stats`,
//! `--monitor`, `--incidents-out`, `--monitor-interval`). This module
//! turns them into a [`tpu_telemetry::TelemetryConfig`] and health
//! monitors, derives per-run artifact paths for multi-run scenarios,
//! writes the artifacts (validating that every JSON document
//! round-trips through `serde_json` before it hits disk), and renders
//! the compact span summary and `--engine-stats` profile lines.
//! Everything is driven off sim-time state recorded by the engines, so
//! two same-seed runs write bit-identical files.

use tpu_cluster::FleetTopology;
use tpu_monitor::{FleetMonitor, IncidentReport, MonitorConfig};
use tpu_telemetry::{MetricsConfig, MetricsRecorder, RunTelemetry, TelemetryConfig, Tracer};

/// The telemetry flags of `run` (and, in part, `tpu_cluster monitor`).
#[derive(Debug, Default, Clone)]
pub struct TelemetryArgs {
    /// `--chrome-trace FILE`: write the Chrome trace-event JSON here.
    pub chrome_trace: Option<String>,
    /// `--metrics-out FILE`: write probe series here (`.csv` → long CSV,
    /// anything else → JSON).
    pub metrics_out: Option<String>,
    /// `--metrics-interval MS`: probe cadence (default 1 sim-ms).
    pub metrics_interval_ms: Option<f64>,
    /// `--svg FILE`: render the per-host/die utilization series here.
    pub svg: Option<String>,
    /// `--request-log FILE`: write the per-request record stream here.
    pub request_log: Option<String>,
    /// `--engine-stats`: collect the engine self-profile.
    pub engine_stats: bool,
    /// `--monitor`: attach the streaming health monitor (summary on
    /// stderr; stdout reports stay byte-identical).
    pub monitor: bool,
    /// `--incidents-out FILE`: write the `tpu-incidents` report here
    /// (implies `--monitor`).
    pub incidents_out: Option<String>,
    /// `--monitor-interval MS`: monitor fold cadence. Defaults to the
    /// metrics cadence when metrics ride along (so the fold stream is
    /// reconstructible from the artifact), else 0.05 sim-ms.
    pub monitor_interval_ms: Option<f64>,
}

impl TelemetryArgs {
    /// True when any flag asks for an output file (these are rejected
    /// with `--all` — one scenario per artifact set).
    pub fn artifacts_requested(&self) -> bool {
        self.chrome_trace.is_some()
            || self.metrics_out.is_some()
            || self.svg.is_some()
            || self.request_log.is_some()
            || self.incidents_out.is_some()
    }

    /// True when the streaming health monitor should attach
    /// (`--monitor`, or any flag that needs its output).
    pub fn monitor_on(&self) -> bool {
        self.monitor || self.incidents_out.is_some()
    }

    /// The [`TelemetryConfig`] these flags ask for. Metrics turn on for
    /// either `--metrics-out` or `--svg`; the trace for
    /// `--chrome-trace`; the record stream for `--request-log`; the
    /// profile for `--engine-stats`.
    pub fn config(&self) -> TelemetryConfig {
        TelemetryConfig {
            trace: self.chrome_trace.is_some(),
            metrics: (self.metrics_out.is_some() || self.svg.is_some()).then(|| MetricsConfig {
                interval_ms: self.metrics_interval_ms.unwrap_or(1.0),
                ..MetricsConfig::default()
            }),
            requests: self.request_log.is_some(),
            profile: self.engine_stats,
        }
    }

    /// Check that every requested artifact path is writable before the
    /// simulation spends any time, by opening each spliced per-run path
    /// for append (creating missing files, truncating nothing).
    ///
    /// # Errors
    ///
    /// A message naming the first unwritable path.
    pub fn validate_artifact_paths(&self, labels: &[&str]) -> Result<(), String> {
        let multi = labels.len() > 1;
        let bases = [
            self.chrome_trace.as_deref(),
            self.metrics_out.as_deref(),
            self.svg.as_deref(),
            self.request_log.as_deref(),
            self.incidents_out.as_deref(),
        ];
        for base in bases.into_iter().flatten() {
            for label in labels {
                let path = artifact_path(base, label, multi);
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| format!("{path}: not writable: {e}"))?;
            }
        }
        Ok(())
    }

    /// One [`RunTelemetry`] per scenario run, per [`Self::config`].
    pub fn for_runs(&self, runs: usize) -> Vec<RunTelemetry> {
        let cfg = self.config();
        (0..runs).map(|_| RunTelemetry::from_config(&cfg)).collect()
    }

    /// The [`MonitorConfig`] these flags ask for: `--monitor-interval`
    /// when given, else the metrics cadence when a metrics recorder
    /// rides along (keeping both instruments on one fold stream so the
    /// online incident set replays offline from the artifact), else the
    /// 0.05 sim-ms default.
    pub fn monitor_config(&self, topology: Option<FleetTopology>) -> MonitorConfig {
        let interval = self
            .monitor_interval_ms
            .unwrap_or(match self.config().metrics {
                Some(m) => m.interval_ms,
                None => MonitorConfig::default().interval_ms,
            });
        let mut cfg = MonitorConfig::with_interval(interval);
        if let Some(t) = topology {
            cfg = cfg.with_topology(t);
        }
        cfg
    }

    /// Attach one [`FleetMonitor`] per run when the flags ask for it.
    pub fn attach_monitors(&self, tels: &mut [RunTelemetry], topology: Option<FleetTopology>) {
        if !self.monitor_on() {
            return;
        }
        let cfg = self.monitor_config(topology);
        for t in tels {
            t.monitor = Some(Box::new(FleetMonitor::new(cfg.clone())));
        }
    }
}

/// Recover the concrete [`FleetMonitor`] a run's telemetry carried
/// (the engines only see the `MonitorSink` trait).
pub fn take_monitor(tel: &mut RunTelemetry) -> Option<FleetMonitor> {
    tel.monitor
        .take()
        .and_then(|m| m.into_any().downcast::<FleetMonitor>().ok())
        .map(|b| *b)
}

/// Write one run's `tpu-incidents` artifact, re-parsing the document
/// before it hits disk (the same round-trip guard every other JSON
/// artifact gets).
///
/// # Errors
///
/// A human-readable message naming the path on I/O failure or JSON
/// that does not round-trip.
pub fn write_incidents(
    base: &str,
    label: &str,
    multi: bool,
    report: &IncidentReport,
) -> Result<String, String> {
    let path = artifact_path(base, label, multi);
    let text = report.render();
    let round_trip = IncidentReport::parse(&text)
        .map_err(|e| format!("{path}: incidents JSON does not round-trip: {e}"))?;
    if &round_trip != report {
        return Err(format!("{path}: incidents JSON does not round-trip"));
    }
    std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Parse the value of an interval flag (`--metrics-interval`,
/// `--monitor-interval`) by the CLI driver's one rule for real-valued
/// flags, finite and positive (a recorder would otherwise loop forever
/// advancing by zero), with a message naming `flag` that the CLIs print
/// verbatim.
///
/// # Errors
///
/// A human-readable message quoting the rejected value.
pub fn parse_interval(flag: &str, raw: &str) -> Result<f64, String> {
    crate::cli::positive(raw)
        .ok_or_else(|| format!("{flag} must be a positive number of sim-ms, got {raw:?}"))
}

/// The artifact path for one run: the base path as-is for single-run
/// scenarios, otherwise the run label (slugified) spliced in before the
/// extension — `trace.json` + `swap-aware` → `trace.swap-aware.json`.
pub fn artifact_path(base: &str, label: &str, multi: bool) -> String {
    if !multi {
        return base.to_string();
    }
    let slug: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let name_start = base.rfind('/').map_or(0, |s| s + 1);
    match base.rfind('.').filter(|&i| i > name_start) {
        Some(i) => format!("{}.{}{}", &base[..i], slug, &base[i..]),
        None => format!("{base}.{slug}"),
    }
}

/// Write every requested artifact for every run and return the paths
/// written, in run order. JSON artifacts are re-parsed before writing,
/// so a malformed export fails loudly instead of landing on disk.
///
/// # Errors
///
/// A human-readable message naming the path on I/O failure, JSON that
/// does not round-trip, or an unrenderable chart.
pub fn write_artifacts(
    args: &TelemetryArgs,
    labels: &[&str],
    tels: &[RunTelemetry],
) -> Result<Vec<String>, String> {
    let multi = labels.len() > 1;
    let mut written = Vec::new();
    for (label, tel) in labels.iter().zip(tels) {
        if let (Some(base), Some(tr)) = (args.chrome_trace.as_deref(), tel.tracer.as_ref()) {
            let path = artifact_path(base, label, multi);
            let text = tr.render();
            serde_json::from_str(&text)
                .map_err(|e| format!("{path}: trace JSON does not parse: {e}"))?;
            std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
            written.push(path);
        }
        if let (Some(base), Some(m)) = (args.metrics_out.as_deref(), tel.metrics.as_ref()) {
            let path = artifact_path(base, label, multi);
            let text = if path.ends_with(".csv") {
                m.to_csv()
            } else {
                let text = serde_json::to_string_pretty(&m.to_json());
                serde_json::from_str(&text)
                    .map_err(|e| format!("{path}: metrics JSON does not parse: {e}"))?;
                text + "\n"
            };
            std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
            written.push(path);
        }
        if let (Some(base), Some(m)) = (args.svg.as_deref(), tel.metrics.as_ref()) {
            let path = artifact_path(base, label, multi);
            let svg = tpu_plot::timeseries(
                &format!("utilization — {label}"),
                "utilization",
                &util_series(m),
            )
            .map_err(|e| format!("{path}: {e}"))?;
            std::fs::write(&path, svg).map_err(|e| format!("{path}: {e}"))?;
            written.push(path);
        }
        if let (Some(base), Some(log)) = (args.request_log.as_deref(), tel.requests.as_ref()) {
            let path = artifact_path(base, label, multi);
            let text = log.render();
            tpu_telemetry::RequestLog::parse(&text)
                .map_err(|e| format!("{path}: request log does not round-trip: {e}"))?;
            std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
            written.push(path);
        }
    }
    Ok(written)
}

/// The `util/*` probe series as plottable `(name, points)` pairs.
fn util_series(m: &MetricsRecorder) -> Vec<(String, Vec<(f64, f64)>)> {
    m.series_names()
        .iter()
        .filter(|n| n.starts_with("util/"))
        .map(|n| {
            let pts = m.points(n).iter().map(|p| (p.t_ms, p.value)).collect();
            (n.to_string(), pts)
        })
        .collect()
}

/// The compact span summary printed under a run's report when tracing
/// is on: one line per `(category, name)` with span count and total
/// simulated milliseconds.
pub fn span_summary_lines(tracer: &Tracer) -> Vec<String> {
    let rows = tracer.summary();
    if rows.is_empty() {
        return Vec::new();
    }
    let mut out = vec!["   spans (count, total sim-ms):".to_string()];
    for r in rows {
        out.push(format!(
            "   {:<24} n={:<7} total={:.3}",
            format!("{}/{}", r.cat, r.name),
            r.count,
            r.total_ms
        ));
    }
    out
}

/// Print each run's engine profile to stderr, after the scenario's
/// one-line `engine-stats:` summary (which stays exactly as it was).
/// When a metrics recorder rode along, any series that hit its ring
/// capacity is named with its dropped-point count — a silent truncation
/// would otherwise read as a complete artifact.
pub fn print_engine_profiles<'a>(
    scenario: &str,
    runs: impl Iterator<Item = (&'a str, &'a RunTelemetry)>,
) {
    for (label, tel) in runs {
        if let Some(p) = &tel.profile {
            eprintln!("engine-stats: {scenario}: run {label}:");
            for line in p.lines() {
                eprintln!("{line}");
            }
        }
        if let Some(m) = &tel.metrics {
            for (name, dropped) in m.dropped_series() {
                eprintln!(
                    "engine-stats: {scenario}: run {label}: metrics series {name} \
                     dropped {dropped} oldest points (ring capacity)"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_run_keeps_the_base_path() {
        assert_eq!(
            artifact_path("out/trace.json", "only", false),
            "out/trace.json"
        );
    }

    #[test]
    fn multi_run_splices_the_slug_before_the_extension() {
        assert_eq!(
            artifact_path("out/trace.json", "swap aware", true),
            "out/trace.swap-aware.json"
        );
        assert_eq!(artifact_path("metrics", "b=8", true), "metrics.b-8");
        assert_eq!(artifact_path("a.dir/metrics", "x", true), "a.dir/metrics.x");
    }

    #[test]
    fn splicing_edge_cases_pin_exact_filenames() {
        // Extensionless path in a directory: slug appended.
        assert_eq!(
            artifact_path("out/metrics", "run a", true),
            "out/metrics.run-a"
        );
        // A dot in the directory is not an extension; the file's own
        // extension still gets the splice.
        assert_eq!(
            artifact_path("a.b/trace.json", "x", true),
            "a.b/trace.x.json"
        );
        // A leading-dot (hidden) file has no extension to splice before.
        assert_eq!(artifact_path(".hidden", "x", true), ".hidden.x");
        assert_eq!(artifact_path("out/.hidden", "x", true), "out/.hidden.x");
        // Multiple extensions: only the last one is spliced before.
        assert_eq!(
            artifact_path("trace.tar.json", "x", true),
            "trace.tar.x.json"
        );
        // Duplicate labels collide onto the same path — the last run
        // wins, which write_artifacts surfaces by listing it twice.
        assert_eq!(
            artifact_path("t.json", "dup", true),
            artifact_path("t.json", "dup", true)
        );
    }

    #[test]
    fn config_maps_flags_to_instruments() {
        let args = TelemetryArgs {
            svg: Some("u.svg".into()),
            engine_stats: true,
            ..TelemetryArgs::default()
        };
        let cfg = args.config();
        assert!(!cfg.trace && cfg.profile && !cfg.requests);
        assert_eq!(cfg.metrics.expect("svg implies metrics").interval_ms, 1.0);
        assert!(!args.artifacts_requested() || args.svg.is_some());
        let tels = args.for_runs(3);
        assert_eq!(tels.len(), 3);
        assert!(tels
            .iter()
            .all(|t| t.metrics.is_some() && t.profile.is_some()));
    }

    #[test]
    fn request_log_flag_turns_the_record_stream_on() {
        let args = TelemetryArgs {
            request_log: Some("req.json".into()),
            ..TelemetryArgs::default()
        };
        assert!(args.artifacts_requested());
        let cfg = args.config();
        assert!(cfg.requests && !cfg.trace && cfg.metrics.is_none());
        assert!(args.for_runs(2).iter().all(|t| t.requests.is_some()));
    }

    #[test]
    fn metrics_interval_parsing_rejects_degenerate_cadences() {
        for flag in ["--metrics-interval", "--monitor-interval"] {
            assert_eq!(parse_interval(flag, "2.5"), Ok(2.5));
            for bad in ["0", "-1", "nan", "inf", "-inf", "1e999", "fast", ""] {
                let err = parse_interval(flag, bad).unwrap_err();
                assert!(
                    err.contains(&format!("{bad:?}")),
                    "{err} should quote {bad:?}"
                );
                assert!(err.starts_with(flag), "{err} should name {flag}");
            }
        }
    }

    #[test]
    fn path_validation_fails_early_on_unwritable_targets() {
        let args = TelemetryArgs {
            request_log: Some("/nonexistent-dir/req.json".into()),
            ..TelemetryArgs::default()
        };
        let err = args.validate_artifact_paths(&["only"]).unwrap_err();
        assert!(err.contains("/nonexistent-dir/req.json"), "{err}");
        assert!(err.contains("not writable"), "{err}");

        // A writable target passes, and multi-run validation checks the
        // spliced per-run paths, not the base.
        let dir = std::env::temp_dir().join("tpu_harness_validate_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let base = dir.join("req.json");
        let args = TelemetryArgs {
            request_log: Some(base.to_string_lossy().into_owned()),
            ..TelemetryArgs::default()
        };
        args.validate_artifact_paths(&["a b", "c"])
            .expect("writable");
        assert!(dir.join("req.a-b.json").exists());
        assert!(dir.join("req.c.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
