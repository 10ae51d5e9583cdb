//! The observability contract, end to end:
//!
//! * **Off is free and invisible** — the golden-snapshot suite
//!   (`tests/golden_scheduler.rs`) already pins every scenario report
//!   byte-for-byte with telemetry off; here we pin the other half of
//!   the contract:
//! * **On is inert** — instrumented runs report bit-identically to
//!   uninstrumented ones (the instruments observe, never perturb);
//! * **On is deterministic** — two same-seed runs emit bit-identical
//!   Chrome-trace and metrics artifacts (proptest over seeds);
//! * **Spans agree with counters** — in `colocate-interference`, the
//!   per-tenant WeightSwap span totals recorded by the host probes
//!   match the report's swap-stall columns to float round-off.

use proptest::prelude::*;
use tpu_repro::tpu_cluster;
use tpu_repro::tpu_core::TpuConfig;
use tpu_repro::tpu_serve;
use tpu_repro::tpu_telemetry::{MetricsConfig, RunTelemetry, TelemetryConfig};

/// The golden scale: small enough to be fast, large enough to batch,
/// swap, and retry.
const SCALE: f64 = 0.05;

fn full_config() -> TelemetryConfig {
    TelemetryConfig {
        trace: true,
        metrics: Some(MetricsConfig::default()),
        requests: true,
        profile: true,
    }
}

fn telemetry_for(runs: usize) -> Vec<RunTelemetry> {
    (0..runs)
        .map(|_| RunTelemetry::from_config(&full_config()))
        .collect()
}

#[test]
fn serve_reports_are_identical_with_instruments_on() {
    let cfg = TpuConfig::paper();
    for name in ["mixed-tenants", "mlp0-burst"] {
        let s = tpu_serve::scenario_by_name(name)
            .expect("scenario exists")
            .scale_requests(SCALE);
        let bare = s.execute(&cfg);
        let mut tels = telemetry_for(s.runs.len());
        let instrumented = s.execute_telemetry(&cfg, &mut tels);
        assert_eq!(bare, instrumented, "{name}: instruments perturbed the run");
        for (i, t) in tels.iter().enumerate() {
            let tracer = t.tracer.as_ref().expect("trace on");
            let requests: u64 = instrumented[i]
                .1
                .tenants
                .iter()
                .map(|r| r.requests as u64)
                .sum();
            let spans = tracer
                .summary()
                .iter()
                .filter(|r| r.cat == "request")
                .map(|r| r.count)
                .sum::<u64>();
            assert_eq!(spans, requests, "{name}: one request span per request");
            let profile = t.profile.as_ref().expect("profile on");
            assert_eq!(
                profile.total_events(),
                instrumented[i].1.events_processed,
                "{name}: profile event counts must sum to events_processed"
            );
        }
    }
}

#[test]
fn fleet_reports_are_identical_with_instruments_on() {
    let cfg = TpuConfig::paper();
    for name in ["fleet-steady", "host-failover", "colocate-interference"] {
        let s = tpu_cluster::scenario_by_name(name)
            .expect("scenario exists")
            .scale_requests(SCALE);
        let bare = s.execute(&cfg);
        let mut tels = telemetry_for(s.runs.len());
        let instrumented = s.execute_telemetry(&cfg, &mut tels);
        assert_eq!(
            bare.len(),
            instrumented.len(),
            "{name}: run count must match"
        );
        for ((label, b), (_, i)) in bare.iter().zip(&instrumented) {
            assert_eq!(b, i, "{name}/{label}: instruments perturbed the run");
        }
        for (t, (label, run)) in tels.iter().zip(&instrumented) {
            let profile = t.profile.as_ref().expect("profile on");
            assert_eq!(
                profile.total_events(),
                run.report.events_processed,
                "{name}/{label}: profile event counts must sum to events_processed"
            );
            assert!(
                profile.wheel.as_ref().is_some_and(|w| w.advances > 0),
                "{name}/{label}: the wheel profile must show activity"
            );
        }
    }
}

#[test]
fn colocate_swap_spans_match_report_counters() {
    let cfg = TpuConfig::paper();
    let s = tpu_cluster::scenario_by_name("colocate-interference")
        .expect("scenario exists")
        .scale_requests(SCALE);
    let mut tels = telemetry_for(s.runs.len());
    let results = s.execute_telemetry(&cfg, &mut tels);
    for ((label, run), tel) in results.iter().zip(&tels) {
        let summary = tel.tracer.as_ref().expect("trace on").summary();
        let mut saw_swaps = false;
        for tr in &run.report.tenants {
            let row = summary
                .iter()
                .find(|r| r.cat == "swap" && r.name == tr.name);
            let (span_count, span_ms) = row
                .map(|r| (r.count as usize, r.total_ms))
                .unwrap_or((0, 0.0));
            assert_eq!(
                span_count, tr.swaps,
                "{label}/{}: swap span count vs report swaps",
                tr.name
            );
            assert!(
                (span_ms - tr.swap_ms).abs() < 1e-6,
                "{label}/{}: swap span total {span_ms} != report swap_ms {}",
                tr.name,
                tr.swap_ms
            );
            saw_swaps |= tr.swaps > 0;
        }
        assert!(saw_swaps, "{label}: the co-located scenario must swap");
    }
}

/// Render every artifact an instrumented scenario run produces, as the
/// CLIs would write them.
fn artifacts(seed: u64) -> Vec<String> {
    let cfg = TpuConfig::paper();
    let s = tpu_serve::scenario_by_name("mlp0-burst")
        .expect("scenario exists")
        .with_seed(seed)
        .scale_requests(0.02);
    let mut tels = telemetry_for(s.runs.len());
    s.execute_telemetry(&cfg, &mut tels);
    let mut out = Vec::new();
    for t in &tels {
        let tracer = t.tracer.as_ref().expect("trace on");
        let trace_text = tracer.render();
        serde_json::from_str(&trace_text).expect("chrome trace parses");
        out.push(trace_text);
        let m = t.metrics.as_ref().expect("metrics on");
        out.push(m.to_csv());
        let metrics_text = serde_json::to_string_pretty(&m.to_json());
        serde_json::from_str(&metrics_text).expect("metrics JSON parses");
        out.push(metrics_text);
        let log = t.requests.as_ref().expect("request log on");
        let log_text = log.render();
        tpu_repro::tpu_telemetry::RequestLog::parse(&log_text).expect("request log parses");
        out.push(log_text);
        out.push(t.profile.as_ref().expect("profile on").lines().join("\n"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_seed_runs_emit_bit_identical_artifacts(seed in 0u64..1_000_000) {
        prop_assert_eq!(artifacts(seed), artifacts(seed));
    }
}

/// 64-bit FNV-1a: a stable digest for pinning artifact bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every artifact of one traced, metered, logged and monitored
/// `rack-outage` run, rendered as the CLIs write them. The digests pin
/// the bytes of the hand-written JSON writers: any change to number
/// formatting, key order, escaping or indentation moves one of them.
#[test]
fn rack_outage_artifacts_are_byte_pinned() {
    use tpu_repro::tpu_harness::telemetry::{take_monitor, TelemetryArgs};
    let cfg = TpuConfig::paper();
    let s = tpu_cluster::scenario_by_name("rack-outage")
        .expect("scenario exists")
        .with_seed(42)
        .scale_requests(0.05);
    let args = TelemetryArgs {
        chrome_trace: Some("trace.json".into()),
        metrics_out: Some("metrics.json".into()),
        request_log: Some("requests.json".into()),
        incidents_out: Some("incidents.json".into()),
        ..TelemetryArgs::default()
    };
    let mut tels = args.for_runs(s.runs.len());
    args.attach_monitors(&mut tels, s.topology);
    s.execute_telemetry(&cfg, &mut tels);
    assert_eq!(tels.len(), 1, "rack-outage is a single-run scenario");
    let tel = &mut tels[0];
    let incidents = take_monitor(tel).expect("monitor on").report();
    let m = tel.metrics.as_ref().expect("metrics on");
    let digests: Vec<(&str, u64)> = vec![
        (
            "chrome-trace",
            fnv1a(&tel.tracer.as_ref().expect("trace on").render()),
        ),
        ("metrics.csv", fnv1a(&m.to_csv())),
        (
            "metrics.json",
            fnv1a(&serde_json::to_string_pretty(&m.to_json())),
        ),
        (
            "request-log",
            fnv1a(&tel.requests.as_ref().expect("log on").render()),
        ),
        ("incidents.json", fnv1a(&incidents.render())),
        ("incidents.txt", fnv1a(&incidents.render_text())),
    ];
    let expected: Vec<(&str, u64)> = vec![
        ("chrome-trace", 0x433b5079630e05e4),
        ("metrics.csv", 0x32840f6ec65c421c),
        ("metrics.json", 0x879f1b9825e4559e),
        ("request-log", 0x5276ec2388e94c4a),
        ("incidents.json", 0x6a204a42c98de798),
        ("incidents.txt", 0x64fa12a97f5c9de9),
    ];
    assert_eq!(digests, expected);
}
