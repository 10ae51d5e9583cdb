//! The one command-line driver behind the `tpu_serve` and `tpu_cluster`
//! binaries.
//!
//! Both binaries run named scenarios through the same subcommands:
//! `list`, `run`, `analyze`, `trace record` and `trace import`. [`Cli`]
//! implements them once, for any scenario type that implements
//! [`CliScenario`] (`tpu_serve::Scenario` and
//! `tpu_cluster::FleetScenario`), and [`Cli::parse`] is the one parser
//! of the flags they share. A binary supplies its name, its usage text
//! and only what is its own: `tpu_cluster` adds `run --hosts N` through
//! [`HostsFlag`], and the `monitor` and `place` subcommands, which use
//! the same parser. So the two CLIs cannot drift apart on common
//! surface.
//!
//! Exit codes: 0 success, 1 unknown scenario or bad input file, 2 usage.

use crate::telemetry::{self, TelemetryArgs};
use std::process::ExitCode;
use tpu_cluster::{FleetRun, FleetScenario, FleetTopology};
use tpu_core::TpuConfig;
use tpu_serve::workload::Trace;
use tpu_serve::{Scenario, ServeReport};
use tpu_telemetry::RunTelemetry;

/// What the driver reads from a scenario. Both implementations forward
/// to the inherent methods of the same names.
pub trait CliScenario: Sized {
    /// The outcome of one run.
    type Run;
    /// Every named scenario, in `list` order.
    fn all() -> Vec<Self>;
    /// The named scenario called `name`.
    fn by_name(name: &str) -> Option<Self>;
    /// CLI name, e.g. `mixed-tenants`.
    fn name(&self) -> &'static str;
    /// One-line description for `list`.
    fn description(&self) -> &'static str;
    /// The run labels, in execution order.
    fn run_labels(&self) -> Vec<&str>;
    /// The tenant names of each run, in run order.
    fn tenant_names(&self) -> Vec<Vec<&str>>;
    /// Re-seed every run (`--seed`).
    fn with_seed(self, seed: u64) -> Self;
    /// Scale every tenant's request count (`--requests-scale`).
    fn scale_requests(self, factor: f64) -> Self;
    /// Replay recorded arrival streams (`--trace`).
    fn with_trace(self, trace: &Trace) -> Self;
    /// Record one run's arrival streams (`trace record`).
    fn record_trace(&self, run_label: Option<&str>) -> Trace;
    /// The failure-domain topology the health monitor folds alerts into.
    fn topology(&self) -> Option<FleetTopology>;
    /// Execute every run, uninstrumented.
    fn execute(&self, cfg: &TpuConfig) -> Vec<(String, Self::Run)>;
    /// Execute every run with one [`RunTelemetry`] each.
    fn execute_telemetry(
        &self,
        cfg: &TpuConfig,
        tel: &mut [RunTelemetry],
    ) -> Vec<(String, Self::Run)>;
    /// One run's report as `run` prints it.
    fn report_text(run: &Self::Run) -> String;
    /// One run's report as `run --json` prints it.
    fn report_json(run: &Self::Run) -> serde_json::Value;
    /// The events one run processed (`--engine-stats`).
    fn events(run: &Self::Run) -> u64;
}

impl CliScenario for Scenario {
    type Run = ServeReport;
    fn all() -> Vec<Self> {
        tpu_serve::all_scenarios()
    }
    fn by_name(name: &str) -> Option<Self> {
        tpu_serve::scenario_by_name(name)
    }
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn run_labels(&self) -> Vec<&str> {
        self.runs.iter().map(|r| r.label.as_str()).collect()
    }
    fn tenant_names(&self) -> Vec<Vec<&str>> {
        let runs = self.runs.iter();
        runs.map(|r| r.tenants.iter().map(|t| t.name.as_str()).collect())
            .collect()
    }
    fn with_seed(self, seed: u64) -> Self {
        Scenario::with_seed(self, seed)
    }
    fn scale_requests(self, factor: f64) -> Self {
        Scenario::scale_requests(self, factor)
    }
    fn with_trace(self, trace: &Trace) -> Self {
        Scenario::with_trace(self, trace)
    }
    fn record_trace(&self, run_label: Option<&str>) -> Trace {
        Scenario::record_trace(self, run_label)
    }
    fn topology(&self) -> Option<FleetTopology> {
        // A single host has no failure-domain topology.
        None
    }
    fn execute(&self, cfg: &TpuConfig) -> Vec<(String, ServeReport)> {
        Scenario::execute(self, cfg)
    }
    fn execute_telemetry(
        &self,
        cfg: &TpuConfig,
        tel: &mut [RunTelemetry],
    ) -> Vec<(String, ServeReport)> {
        Scenario::execute_telemetry(self, cfg, tel)
    }
    fn report_text(run: &ServeReport) -> String {
        run.to_string()
    }
    fn report_json(run: &ServeReport) -> serde_json::Value {
        run.to_json()
    }
    fn events(run: &ServeReport) -> u64 {
        run.events_processed
    }
}

impl CliScenario for FleetScenario {
    type Run = FleetRun;
    fn all() -> Vec<Self> {
        tpu_cluster::all_scenarios()
    }
    fn by_name(name: &str) -> Option<Self> {
        tpu_cluster::scenario_by_name(name)
    }
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn run_labels(&self) -> Vec<&str> {
        self.runs.iter().map(|r| r.label.as_str()).collect()
    }
    fn tenant_names(&self) -> Vec<Vec<&str>> {
        let runs = self.runs.iter();
        runs.map(|r| r.tenants.iter().map(|t| t.tenant.name.as_str()).collect())
            .collect()
    }
    fn with_seed(self, seed: u64) -> Self {
        FleetScenario::with_seed(self, seed)
    }
    fn scale_requests(self, factor: f64) -> Self {
        FleetScenario::scale_requests(self, factor)
    }
    fn with_trace(self, trace: &Trace) -> Self {
        FleetScenario::with_trace(self, trace)
    }
    fn record_trace(&self, run_label: Option<&str>) -> Trace {
        FleetScenario::record_trace(self, run_label)
    }
    fn topology(&self) -> Option<FleetTopology> {
        self.topology
    }
    fn execute(&self, cfg: &TpuConfig) -> Vec<(String, FleetRun)> {
        FleetScenario::execute(self, cfg)
    }
    fn execute_telemetry(
        &self,
        cfg: &TpuConfig,
        tel: &mut [RunTelemetry],
    ) -> Vec<(String, FleetRun)> {
        FleetScenario::execute_telemetry(self, cfg, tel)
    }
    fn report_text(run: &FleetRun) -> String {
        run.report.to_string()
    }
    fn report_json(run: &FleetRun) -> serde_json::Value {
        run.report.to_json()
    }
    fn events(run: &FleetRun) -> u64 {
        run.report.events_processed
    }
}

/// One binary's front end. Every subcommand returns `Err(code)` once
/// it has reported a failure, and [`Cli::main`] exits with that code.
pub struct Cli<S> {
    /// The binary's name, which prefixes every error message.
    pub bin: &'static str,
    /// Prints the binary's usage text and returns exit code 2.
    pub usage: fn() -> ExitCode,
    /// `run --hosts N`, for a binary whose scenarios scale by fleet size.
    pub hosts: Option<HostsFlag<S>>,
}

/// `run --hosts N`: rebuild the chosen scenarios at N hosts.
pub struct HostsFlag<S> {
    /// The smallest N the flag takes; a smaller one is a usage error.
    pub min: usize,
    /// The scenarios rebuilt at N hosts, or the exit code once misuse
    /// has been reported.
    pub apply: fn(Vec<S>, usize) -> Result<Vec<S>, ExitCode>,
}

/// The flags the subcommands share, filled in by [`Cli::parse`].
#[derive(Debug, Default)]
pub struct CommonArgs {
    /// The positional scenario name.
    pub name: Option<String>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--requests-scale F`.
    pub scale: Option<f64>,
    /// `--json`.
    pub json: bool,
    /// `--trace FILE`.
    pub trace: Option<String>,
    /// `--run LABEL`.
    pub run: Option<String>,
    /// The telemetry flags.
    pub tel: TelemetryArgs,
}

/// The shared flags `run` takes.
const RUN_FLAGS: &[&str] = &[
    "--seed",
    "--requests-scale",
    "--json",
    "--trace",
    "--engine-stats",
    "--chrome-trace",
    "--metrics-out",
    "--metrics-interval",
    "--svg",
    "--request-log",
    "--monitor",
    "--incidents-out",
    "--monitor-interval",
];

/// The shared flags of `analyze` and `place`, which print one named
/// scenario's runs.
pub const SCENARIO_FLAGS: &[&str] = &["--seed", "--requests-scale", "--json", "--run"];

/// Parse a finite, positive number: the one rule for every real-valued
/// flag (`--requests-scale`, `--metrics-interval`, `--monitor-interval`,
/// `analyze --window`). Zero or a negative value would ask for no work
/// or loop forever, and a non-finite one for unbounded work.
pub(crate) fn positive(raw: &str) -> Option<f64> {
    raw.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v > 0.0)
}

/// Store `value` in `slot`; false (a usage error) when it is missing.
pub fn set<T>(slot: &mut Option<T>, value: Option<T>) -> bool {
    let ok = value.is_some();
    if ok {
        *slot = value;
    }
    ok
}

/// Turn a switch on; always accepted.
pub(crate) fn switch(flag: &mut bool) -> bool {
    *flag = true;
    true
}

/// `s` with `--seed` and then `--requests-scale` applied.
pub(crate) fn configure<S: CliScenario>(mut s: S, seed: Option<u64>, scale: Option<f64>) -> S {
    if let Some(seed) = seed {
        s = s.with_seed(seed);
    }
    if let Some(f) = scale {
        s = s.scale_requests(f);
    }
    s
}

impl<S: CliScenario> Cli<S> {
    /// Run the shared subcommand `args` names; anything else prints
    /// usage.
    pub fn main(&self, args: &[String]) -> ExitCode {
        let done = match args.first().map(String::as_str) {
            Some("list") => {
                for s in S::all() {
                    println!("{:<20} {}", s.name(), s.description());
                }
                Ok(())
            }
            Some("run") => self.run(&args[1..]),
            Some("analyze") => crate::analyze::analyze_command(self, &args[1..]),
            Some("trace") if args.get(1).map(String::as_str) == Some("record") => {
                self.record(&args[2..])
            }
            Some("trace") if args.get(1).map(String::as_str) == Some("import") => {
                self.trace_import(&args[2..])
            }
            _ => Err((self.usage)()),
        };
        done.err().unwrap_or(ExitCode::SUCCESS)
    }

    /// Parse `args` in order: the positional scenario name, the shared
    /// flags named in `accepts`, and through `own` every other flag. A
    /// flag `own` returns false for, or a missing or malformed value,
    /// prints usage; a bad `--metrics-interval` or `--monitor-interval`
    /// prints its own message. Either way the error is the exit code.
    pub fn parse(
        &self,
        args: &[String],
        accepts: &[&str],
        mut own: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> bool,
    ) -> Result<CommonArgs, ExitCode> {
        let mut c = CommonArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let tel = &mut c.tel;
            let ok = if !accepts.contains(&flag) {
                if !flag.starts_with('-') && c.name.is_none() {
                    set(&mut c.name, Some(arg.clone()))
                } else {
                    own(flag, &mut it)
                }
            } else {
                match flag {
                    "--seed" => set(&mut c.seed, it.next().and_then(|v| v.parse().ok())),
                    "--requests-scale" => set(&mut c.scale, it.next().and_then(|v| positive(v))),
                    "--json" => switch(&mut c.json),
                    "--trace" => set(&mut c.trace, it.next().cloned()),
                    "--run" => set(&mut c.run, it.next().cloned()),
                    "--engine-stats" => switch(&mut tel.engine_stats),
                    "--chrome-trace" => set(&mut tel.chrome_trace, it.next().cloned()),
                    "--metrics-out" => set(&mut tel.metrics_out, it.next().cloned()),
                    "--metrics-interval" => {
                        self.interval(flag, it.next(), &mut tel.metrics_interval_ms)?
                    }
                    "--svg" => set(&mut tel.svg, it.next().cloned()),
                    "--request-log" => set(&mut tel.request_log, it.next().cloned()),
                    "--monitor" => switch(&mut tel.monitor),
                    "--incidents-out" => set(&mut tel.incidents_out, it.next().cloned()),
                    "--monitor-interval" => {
                        self.interval(flag, it.next(), &mut tel.monitor_interval_ms)?
                    }
                    _ => false,
                }
            };
            if !ok {
                return Err((self.usage)());
            }
        }
        Ok(c)
    }

    /// Parse an interval flag's value into `slot`: false when it is
    /// missing, and the exit code once its message is printed when it
    /// is malformed.
    fn interval(
        &self,
        flag: &str,
        raw: Option<&String>,
        slot: &mut Option<f64>,
    ) -> Result<bool, ExitCode> {
        let Some(raw) = raw else {
            return Ok(false);
        };
        match telemetry::parse_interval(flag, raw) {
            Ok(v) => {
                *slot = Some(v);
                Ok(true)
            }
            Err(e) => {
                eprintln!("{}: {e}", self.bin);
                Err(ExitCode::from(2))
            }
        }
    }

    /// Print `{bin}: {msg}` to stderr and return exit code 1.
    pub fn fail(&self, msg: &str) -> ExitCode {
        eprintln!("{}: {msg}", self.bin);
        ExitCode::FAILURE
    }

    /// The scenario called `name`, or the unknown-scenario message.
    pub(crate) fn lookup(&self, name: &str) -> Result<S, String> {
        S::by_name(name)
            .ok_or_else(|| format!("unknown scenario {name:?}; try `{} list`", self.bin))
    }

    /// The one scenario `c` names, checked against `--run`, with
    /// `--seed` and `--requests-scale` applied: usage without a name,
    /// exit 1 for an unknown scenario or run label.
    pub fn scenario(&self, c: &CommonArgs) -> Result<S, ExitCode> {
        let Some(n) = c.name.as_deref() else {
            return Err((self.usage)());
        };
        let s = self.lookup(n).map_err(|e| self.fail(&e))?;
        if let Some(l) = c.run.as_deref() {
            let labels = s.run_labels();
            if !labels.contains(&l) {
                let msg = format!("scenario {n} has no run {l:?}; it has {labels:?}");
                return Err(self.fail(&msg));
            }
        }
        Ok(configure(s, c.seed, c.scale))
    }

    /// `run`: execute one scenario (or `--all`) and print each run's
    /// report, with the telemetry artifacts and monitor summary the
    /// flags ask for.
    fn run(&self, args: &[String]) -> Result<(), ExitCode> {
        let (mut all, mut hosts) = (false, None);
        let c = self.parse(args, RUN_FLAGS, |flag, it| match (flag, &self.hosts) {
            ("--all", _) => switch(&mut all),
            ("--hosts", Some(h)) => set(
                &mut hosts,
                it.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= h.min),
            ),
            _ => false,
        })?;
        if all && c.tel.artifacts_requested() {
            eprintln!(
                "{}: telemetry artifact flags need a single scenario, not --all",
                self.bin
            );
            return Err((self.usage)());
        }
        let mut scenarios = if all {
            S::all()
        } else {
            let n = c.name.as_deref().ok_or_else(self.usage)?;
            vec![self.lookup(n).map_err(|e| self.fail(&e))?]
        };
        if let (Some(n), Some(h)) = (hosts, &self.hosts) {
            scenarios = (h.apply)(scenarios, n)?;
        }
        let trace = match c.trace.as_deref().map(Trace::load) {
            None => None,
            Some(t) => Some(t.map_err(|e| self.fail(&e))?),
        };
        if let Some(t) = &trace {
            for s in &scenarios {
                for names in s.tenant_names() {
                    t.covers(names)
                        .map_err(|e| self.fail(&format!("scenario {}: {e}", s.name())))?;
                }
            }
        }

        let cfg = TpuConfig::paper();
        for s in scenarios {
            let mut s = configure(s, c.seed, c.scale);
            // The trace applies last: it caps each tenant's request
            // count at its recorded stream length, so a scaled-down run
            // replays a prefix of the recording.
            if let Some(t) = &trace {
                s = s.with_trace(t);
            }
            self.run_one(&s, &c, &cfg)?;
        }
        Ok(())
    }

    fn run_one(&self, s: &S, c: &CommonArgs, cfg: &TpuConfig) -> Result<(), ExitCode> {
        let tel = &c.tel;
        let labels = s.run_labels();
        // Fail on unwritable artifact paths before spending sim time.
        tel.validate_artifact_paths(&labels)
            .map_err(|e| self.fail(&e))?;
        println!("== {} — {}", s.name(), s.description());
        let mut tels = tel.for_runs(labels.len());
        tel.attach_monitors(&mut tels, s.topology());
        let instrumented = tels.iter().any(|t| t.enabled());
        let started = std::time::Instant::now();
        let results = if instrumented {
            s.execute_telemetry(cfg, &mut tels)
        } else {
            s.execute(cfg)
        };
        let wall = started.elapsed();
        for ((label, run), t) in results.iter().zip(&tels) {
            println!("\n-- {label}");
            if c.json {
                println!("{}", serde_json::to_string_pretty(&S::report_json(run)));
            } else {
                print!("{}", S::report_text(run));
            }
            for line in t.tracer.iter().flat_map(telemetry::span_summary_lines) {
                println!("{line}");
            }
        }
        println!();
        if tel.engine_stats {
            // Off by default, and on stderr, so golden stdout (text or
            // JSON) is untouched either way.
            let events: u64 = results.iter().map(|(_, r)| S::events(r)).sum();
            eprintln!(
                "engine-stats: {}: events={events} wall_ms={:.3} events_per_sec={:.0}",
                s.name(),
                wall.as_secs_f64() * 1e3,
                events as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE)
            );
            telemetry::print_engine_profiles(s.name(), labels.iter().copied().zip(&tels));
        }
        for p in telemetry::write_artifacts(tel, &labels, &tels).map_err(|e| self.fail(&e))? {
            eprintln!("telemetry: wrote {p}");
        }
        // The monitor's summary goes to stderr (golden stdout stays
        // untouched); `--incidents-out` additionally writes the report.
        let multi = labels.len() > 1;
        for (label, t) in labels.iter().zip(&mut tels) {
            let Some(mon) = telemetry::take_monitor(t) else {
                continue;
            };
            let report = mon.report();
            for line in report.render_text().lines() {
                eprintln!("monitor: {}: {label}: {line}", s.name());
            }
            if let Some(base) = tel.incidents_out.as_deref() {
                let p = telemetry::write_incidents(base, label, multi, &report)
                    .map_err(|e| self.fail(&e))?;
                eprintln!("telemetry: wrote {p}");
            }
        }
        Ok(())
    }

    /// `trace record`: write one run's arrival streams to `--out`
    /// without simulating.
    fn record(&self, args: &[String]) -> Result<(), ExitCode> {
        let mut out = None;
        let c = self.parse(
            args,
            &["--seed", "--requests-scale", "--run"],
            |flag, it| flag == "--out" && set(&mut out, it.next().cloned()),
        )?;
        let out = out.ok_or_else(self.usage)?;
        let trace = self.scenario(&c)?.record_trace(c.run.as_deref());
        trace.save(&out).map_err(|e| self.fail(&e))?;
        println!(
            "recorded {} arrivals across {} tenants ({}) to {out}",
            trace.total_arrivals(),
            trace.tenants.len(),
            trace.source
        );
        Ok(())
    }

    /// `trace import`: map an external `timestamp,tenant` CSV into a
    /// `tpu-trace` v1 file. Flags: `--csv FILE` and `--out FILE`
    /// (both required), `--source LABEL` (defaults to `csv:<FILE>`).
    fn trace_import(&self, args: &[String]) -> Result<(), ExitCode> {
        let (mut csv, mut out, mut source) = (None, None, None);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let slot = match a.as_str() {
                "--csv" => &mut csv,
                "--out" => &mut out,
                "--source" => &mut source,
                _ => return Err((self.usage)()),
            };
            if !set(slot, it.next().cloned()) {
                return Err((self.usage)());
            }
        }
        let (Some(csv), Some(out)) = (csv, out) else {
            return Err((self.usage)());
        };
        let text = std::fs::read_to_string(&csv)
            .map_err(|e| self.fail(&format!("cannot read csv {csv:?}: {e}")))?;
        let source = source.unwrap_or_else(|| format!("csv:{csv}"));
        let trace = Trace::from_csv(&text, &source).map_err(|e| self.fail(&e))?;
        trace.save(&out).map_err(|e| self.fail(&e))?;
        println!(
            "imported {} arrivals across {} tenants ({}) to {out}",
            trace.total_arrivals(),
            trace.tenants.len(),
            trace.source
        );
        Ok(())
    }
}
