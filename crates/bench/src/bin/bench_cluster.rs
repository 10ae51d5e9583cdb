//! `bench_cluster` — the quick-mode fleet-throughput runner behind
//! `BENCH_cluster.json` and the CI regression gate.
//!
//! For each fleet size (1, 10, 100 hosts) it runs the canonical MLP0
//! fleet workload (`tpu_bench::fleet_tenants`) twice in the same
//! process on the same machine:
//!
//! * **baseline** — `tpu_cluster::reference::Engine::Baseline`, the
//!   pre-optimization hot path: the reference `BinaryHeap` event queue
//!   and the per-arrival scan-and-allocate router;
//! * **current** — `run_fleet`: the timer-wheel event core and the
//!   indexed least-outstanding router.
//!
//! Both engines are bit-identical in their reports (asserted here on
//! every run — the baseline only changes speed), so the speedup
//! column is a like-for-like measurement taken in one run. `--check
//! FILE` compares the measured 100-host *speedup* against the
//! committed `BENCH_cluster.json` and fails (exit 1) on a regression
//! beyond `--tolerance` (default 0.20). Comparing same-run ratios
//! removes absolute-throughput skew between machines; the relative
//! benefit of O(1) structures still varies some with cache hierarchy
//! and load, which is what the tolerance (and a generous `--budget-ms`
//! on CI) absorbs — if the gate flakes on shared runners, raise the
//! budget or tolerance rather than trusting a single short sample.
//!
//! Beyond the heap-vs-wheel rows it measures the observability
//! surface: the full-instrument, request-log-only, and streaming
//! health-monitor on-cost ratios (all bit-identical in their reports,
//! all gated), and the `tpu_analyze` attribution throughput over a
//! 100k-record request log (gated on log depth and a finite positive
//! rate).
//!
//! The `render` block times the artifact writers at 10 hosts: the
//! Chrome trace, the metrics CSV and JSON, and the request log of one
//! fully instrumented run, each rendered once per iteration right after
//! one bare simulation run of the same workload. It records bytes and
//! MB/s per artifact and `render_cost`, the total render time over the
//! bare simulation time of those paired iterations — a ratio gated by
//! `--check` like the `on_cost` rows.
//!
//! The `sharded` rows measure the multi-core fleet engine
//! (`Engine::Sharded` over every available core) against the
//! single-threaded engine (`Engine::Single`) on the cell-structured
//! sweep workload, asserting bit-identical reports
//! on every run; `--check` enforces a ≥2x absolute floor at 1000 hosts
//! on machines with ≥4 cores (skipped, loudly, below that).
//!
//! ```text
//! bench_cluster [--out FILE] [--check FILE] [--tolerance F]
//!               [--budget-ms N] [--hosts A,B,C]
//!               [--no-colocate] [--no-telemetry] [--no-analyze] [--no-sharded]
//! ```

use std::process::ExitCode;
use std::time::Instant;
use tpu_analyze::Attribution;
use tpu_bench::{colocate_fleet, fleet_tenants, resilient_fleet, sweep_fleet};
use tpu_cluster::reference::{self, Engine};
use tpu_cluster::{
    run_fleet, run_fleet_telemetry, FleetRun, FleetSpec, FleetTenantSpec, HopModel, RouterPolicy,
};
use tpu_core::TpuConfig;
use tpu_monitor::{FleetMonitor, MonitorConfig};
use tpu_telemetry::{MetricsConfig, RequestLog, RunTelemetry, TelemetryConfig};

/// Requests per host at each fleet size.
const REQUESTS_PER_HOST: usize = 2_000;

/// Fleet size of the co-located (weight-swap) measurement.
const COLOCATE_HOSTS: usize = 100;

/// Fleet size of the telemetry-overhead measurement.
const TELEMETRY_HOSTS: usize = 10;

/// Fleet size of the analyzer-throughput measurement: 50 hosts ×
/// 2 000 requests/host = a 100 000-record log, the scale the analyze
/// gate pins.
const ANALYZE_HOSTS: usize = 50;

/// The analyzer row's contract: its log must be at least this deep so
/// the measured records/sec reflects a real artifact, not a toy.
const ANALYZE_MIN_RECORDS: usize = 100_000;

/// Fleet sizes of the sharded-engine (single vs multi-core) rows.
const SHARDED_HOSTS: [usize; 2] = [100, 1_000];

/// Fleet size of the failure-heavy resilience measurement: three
/// 8-host cells under staggered rack outages with retries, budgets,
/// and brownout shedding all live.
const RESILIENT_HOSTS: usize = 24;

/// The sharded gate's fleet size and speedup floor, enforced only on
/// machines with at least [`SHARDED_GATE_MIN_CORES`] cores — below
/// that the parallel win is mostly locality and the floor would gate
/// the hardware, not the code.
const SHARDED_GATE_HOSTS: usize = 1_000;
const SHARDED_GATE_MIN_SPEEDUP: f64 = 2.0;
const SHARDED_GATE_MIN_CORES: usize = 4;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_cluster [--out FILE] [--check FILE] [--tolerance F] \
         [--budget-ms N] [--hosts A,B,C] [--no-colocate] [--no-telemetry] [--no-analyze] \
         [--no-sharded] [--no-resilience]"
    );
    ExitCode::from(2)
}

fn spec_for(hosts: usize) -> (FleetSpec, Vec<FleetTenantSpec>) {
    let spec = FleetSpec::new(hosts, 2, 42)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 });
    (spec, fleet_tenants(hosts, REQUESTS_PER_HOST * hosts))
}

/// Repeat `run` until `budget_ms` of wall clock is spent (at least
/// twice), returning events/sec and the last run for identity checks.
fn measure(budget_ms: u64, run: impl Fn() -> FleetRun) -> (f64, u64, FleetRun) {
    // One untimed warmup (page-in, allocator growth).
    let mut last = run();
    let events = last.report.events_processed;
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < 2 || start.elapsed().as_millis() < budget_ms as u128 {
        last = run();
        iters += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    ((events * iters) as f64 / elapsed, events, last)
}

/// As [`measure`], but every iteration carries the full instrument set
/// (trace + metrics + profile). The reports must stay bit-identical to
/// the uninstrumented runs — asserted by the caller.
fn measure_telemetry(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    budget_ms: u64,
) -> (f64, FleetRun) {
    let tcfg = TelemetryConfig {
        trace: true,
        metrics: Some(MetricsConfig::default()),
        requests: false,
        profile: true,
    };
    let mut last = run_fleet_telemetry(spec, tenants, cfg, &mut RunTelemetry::from_config(&tcfg));
    let events = last.report.events_processed;
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < 2 || start.elapsed().as_millis() < budget_ms as u128 {
        let mut tel = RunTelemetry::from_config(&tcfg);
        last = run_fleet_telemetry(spec, tenants, cfg, &mut tel);
        assert!(
            tel.tracer.as_ref().is_some_and(|t| !t.is_empty()),
            "instrumented iterations must record spans"
        );
        iters += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    ((events * iters) as f64 / elapsed, last)
}

/// As [`measure`], but with only the `--request-log` record stream on —
/// the cost of recording one fixed-width record per served request.
fn measure_request_log(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    budget_ms: u64,
) -> (f64, FleetRun, RequestLog) {
    let tcfg = TelemetryConfig {
        trace: false,
        metrics: None,
        requests: true,
        profile: false,
    };
    let mut tel = RunTelemetry::from_config(&tcfg);
    let mut last = run_fleet_telemetry(spec, tenants, cfg, &mut tel);
    let mut log = tel.requests.expect("request log on");
    let events = last.report.events_processed;
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < 2 || start.elapsed().as_millis() < budget_ms as u128 {
        let mut tel = RunTelemetry::from_config(&tcfg);
        last = run_fleet_telemetry(spec, tenants, cfg, &mut tel);
        log = tel.requests.expect("request log on");
        iters += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    ((events * iters) as f64 / elapsed, last, log)
}

/// As [`measure`], but with the streaming health monitor attached as
/// the *only* instrument — the marginal price of folding the gauge
/// stream, burn windows, and anomaly detectors at every cadence
/// boundary during the run. The report must stay bit-identical to the
/// uninstrumented run (asserted by the caller), and the monitor must
/// genuinely fold samples (the returned fold count is asserted).
fn measure_monitor(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    budget_ms: u64,
) -> (f64, FleetRun, u64) {
    let attach = || {
        let mut tel = RunTelemetry::off();
        tel.monitor = Some(Box::new(FleetMonitor::new(MonitorConfig::default())));
        tel
    };
    let folds_of = |tel: RunTelemetry| -> u64 {
        tel.monitor
            .expect("monitor attached")
            .into_any()
            .downcast::<FleetMonitor>()
            .expect("fleet monitor")
            .folds()
    };
    let mut tel = attach();
    let mut last = run_fleet_telemetry(spec, tenants, cfg, &mut tel);
    let events = last.report.events_processed;
    let mut folds = folds_of(tel);
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < 2 || start.elapsed().as_millis() < budget_ms as u128 {
        let mut tel = attach();
        last = run_fleet_telemetry(spec, tenants, cfg, &mut tel);
        folds = folds_of(tel);
        iters += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    ((events * iters) as f64 / elapsed, last, folds)
}

/// Time artifact rendering against bare simulation in pairs. After one
/// fully instrumented run (trace, metrics, request log), each iteration
/// runs the workload once with instruments off and then renders every
/// artifact once, until `budget_ms` is spent (at least twice), so both
/// sides of the ratio see the same host load. Returns bare simulation
/// seconds per run and `(name, bytes, seconds per render)` per artifact.
fn measure_render(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    budget_ms: u64,
) -> (f64, Vec<(&'static str, usize, f64)>) {
    let tcfg = TelemetryConfig {
        trace: true,
        metrics: Some(MetricsConfig::default()),
        requests: true,
        profile: false,
    };
    let mut tel = RunTelemetry::from_config(&tcfg);
    run_fleet_telemetry(spec, tenants, cfg, &mut tel);
    let tracer = tel.tracer.expect("trace on");
    let metrics = tel.metrics.expect("metrics on");
    let log = tel.requests.expect("request log on");
    let renders: [(&'static str, &dyn Fn() -> String); 4] = [
        ("chrome-trace", &|| tracer.render()),
        ("metrics.csv", &|| metrics.to_csv()),
        ("metrics.json", &|| {
            serde_json::to_string_pretty(&metrics.to_json())
        }),
        ("request-log", &|| log.render()),
    ];
    // The first render of each artifact doubles as its warmup.
    let bytes: Vec<usize> = renders.iter().map(|(_, render)| render().len()).collect();
    let mut render_s = [0.0; 4];
    let mut sim_s = 0.0;
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < 2 || start.elapsed().as_millis() < budget_ms as u128 {
        let t = Instant::now();
        run_fleet(spec, tenants, cfg);
        sim_s += t.elapsed().as_secs_f64();
        for (i, (name, render)) in renders.iter().enumerate() {
            let t = Instant::now();
            let len = render().len();
            render_s[i] += t.elapsed().as_secs_f64();
            assert_eq!(len, bytes[i], "{name}: renders must be identical");
        }
        iters += 1;
    }
    let n = iters as f64;
    let artifacts = renders
        .iter()
        .zip(bytes)
        .zip(render_s)
        .map(|(((name, _), bytes), secs)| (*name, bytes, secs / n))
        .collect();
    (sim_s / n, artifacts)
}

struct Row {
    hosts: usize,
    events: u64,
    baseline_eps: f64,
    current_eps: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.current_eps / self.baseline_eps
    }
}

/// The sharded-engine measurement: the same cell-structured workload
/// (`tpu_bench::sweep_fleet`, one component per 10-host cell) on the
/// single-threaded engine and the sharded multi-core engine, in one
/// process. The two are bit-identical in their reports
/// — asserted on every run; that is the engine's determinism contract
/// — so the same-run ratio is a like-for-like measurement of the
/// parallel (plus per-shard locality) win.
struct ShardedRow {
    hosts: usize,
    events: u64,
    single_eps: f64,
    sharded_eps: f64,
}

impl ShardedRow {
    fn speedup(&self) -> f64 {
        self.sharded_eps / self.single_eps
    }
}

/// The telemetry overhead measurement: the same workload with
/// instruments off (the default hot path every golden runs) and fully
/// on, in one process. `on_cost` is the machine-independent same-run
/// ratio gated by `--check`.
struct TelemetryRow {
    hosts: usize,
    events: u64,
    off_eps: f64,
    on_eps: f64,
}

impl TelemetryRow {
    fn on_cost(&self) -> f64 {
        self.off_eps / self.on_eps
    }
}

/// The request-log overhead measurement: the same off/on shape as
/// [`TelemetryRow`], but with only the `--request-log` record stream on
/// — the marginal price of one fixed-width record per served request.
struct RequestLogRow {
    hosts: usize,
    events: u64,
    records: usize,
    off_eps: f64,
    on_eps: f64,
}

impl RequestLogRow {
    fn on_cost(&self) -> f64 {
        self.off_eps / self.on_eps
    }
}

/// The health-monitor overhead measurement: the same off/on shape as
/// [`TelemetryRow`], but with only the streaming `--monitor` sink on —
/// the marginal price of the online burn/anomaly/incident fold per
/// cadence boundary.
struct MonitorRow {
    hosts: usize,
    events: u64,
    folds: u64,
    off_eps: f64,
    on_eps: f64,
}

impl MonitorRow {
    fn on_cost(&self) -> f64 {
        self.off_eps / self.on_eps
    }
}

/// The artifact-render measurement: per-artifact bytes and render
/// time, against the bare simulation time of the same workload timed
/// in alternation with the renders.
struct RenderRow {
    hosts: usize,
    /// Bare (instruments off) simulation seconds per run.
    sim_s: f64,
    /// `(artifact, bytes, seconds per render)`.
    artifacts: Vec<(&'static str, usize, f64)>,
}

impl RenderRow {
    /// Seconds to render every artifact once, per bare simulation
    /// second.
    fn render_cost(&self) -> f64 {
        self.artifacts.iter().map(|a| a.2).sum::<f64>() / self.sim_s
    }
}

/// The analyzer throughput measurement: full latency attribution
/// (phases, tails, occupancy, burn windows) over a committed-scale
/// request log, in records/sec.
struct AnalyzeRow {
    hosts: usize,
    records: usize,
    records_per_sec: f64,
}

/// The failure-heavy resilience measurement: the overcommitted
/// rack-outage workload with the full resilience layer on. The sim is
/// deterministic, so the behavioral columns (retries, dropped, shed)
/// are exact per-iteration counts; events/sec is the hot-path price of
/// displacement + backoff + budget + brownout bookkeeping.
struct ResilienceRow {
    hosts: usize,
    events: u64,
    events_per_sec: f64,
    retries: usize,
    dropped: usize,
    shed: usize,
}

#[allow(clippy::too_many_arguments)]
fn rows_to_json(
    rows: &[Row],
    colocate: Option<&Row>,
    sharded: &[ShardedRow],
    telemetry: Option<&TelemetryRow>,
    request_log: Option<&RequestLogRow>,
    monitor: Option<&MonitorRow>,
    render: Option<&RenderRow>,
    analyze: Option<&AnalyzeRow>,
    resilience: Option<&ResilienceRow>,
) -> serde_json::Value {
    use serde_json::Value;
    let mut fields = vec![
        (
            "bench".to_string(),
            Value::String("cluster_event_loop".to_string()),
        ),
        (
            "workload".to_string(),
            Value::String(format!(
                "MLP0 x {REQUESTS_PER_HOST} requests/host, 2 dies/host"
            )),
        ),
        (
            "hosts".to_string(),
            Value::Array(
                rows.iter()
                    .map(|r| {
                        Value::object([
                            ("hosts".to_string(), Value::Number(r.hosts as f64)),
                            (
                                "events_per_iteration".to_string(),
                                Value::Number(r.events as f64),
                            ),
                            (
                                "baseline_heap_scan_events_per_sec".to_string(),
                                Value::Number(r.baseline_eps.round()),
                            ),
                            (
                                "events_per_sec".to_string(),
                                Value::Number(r.current_eps.round()),
                            ),
                            (
                                "speedup".to_string(),
                                Value::Number((r.speedup() * 100.0).round() / 100.0),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(c) = colocate {
        fields.push((
            "colocate".to_string(),
            Value::object([
                ("hosts".to_string(), Value::Number(c.hosts as f64)),
                (
                    "workload".to_string(),
                    Value::String(
                        "MLP0+LSTM0+CNN0 bin-packed, swap-aware routing, 2 dies/host".to_string(),
                    ),
                ),
                (
                    "events_per_iteration".to_string(),
                    Value::Number(c.events as f64),
                ),
                (
                    "baseline_heap_scan_events_per_sec".to_string(),
                    Value::Number(c.baseline_eps.round()),
                ),
                (
                    "events_per_sec".to_string(),
                    Value::Number(c.current_eps.round()),
                ),
                (
                    "speedup".to_string(),
                    Value::Number((c.speedup() * 100.0).round() / 100.0),
                ),
            ]),
        ));
    }
    if !sharded.is_empty() {
        fields.push((
            "sharded".to_string(),
            Value::object([
                (
                    "workload".to_string(),
                    Value::String(
                        "MLP0 per 10-host cell, one shard per cell, 2 dies/host".to_string(),
                    ),
                ),
                (
                    "workers".to_string(),
                    Value::Number(available_cores() as f64),
                ),
                (
                    "rows".to_string(),
                    Value::Array(
                        sharded
                            .iter()
                            .map(|r| {
                                Value::object([
                                    ("hosts".to_string(), Value::Number(r.hosts as f64)),
                                    (
                                        "events_per_iteration".to_string(),
                                        Value::Number(r.events as f64),
                                    ),
                                    (
                                        "single_events_per_sec".to_string(),
                                        Value::Number(r.single_eps.round()),
                                    ),
                                    (
                                        "events_per_sec".to_string(),
                                        Value::Number(r.sharded_eps.round()),
                                    ),
                                    (
                                        "speedup".to_string(),
                                        Value::Number((r.speedup() * 100.0).round() / 100.0),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if let Some(t) = telemetry {
        fields.push((
            "telemetry".to_string(),
            Value::object([
                ("hosts".to_string(), Value::Number(t.hosts as f64)),
                (
                    "events_per_iteration".to_string(),
                    Value::Number(t.events as f64),
                ),
                (
                    "off_events_per_sec".to_string(),
                    Value::Number(t.off_eps.round()),
                ),
                (
                    "on_events_per_sec".to_string(),
                    Value::Number(t.on_eps.round()),
                ),
                (
                    "on_cost".to_string(),
                    Value::Number((t.on_cost() * 100.0).round() / 100.0),
                ),
            ]),
        ));
    }
    if let Some(r) = request_log {
        fields.push((
            "request_log".to_string(),
            Value::object([
                ("hosts".to_string(), Value::Number(r.hosts as f64)),
                (
                    "events_per_iteration".to_string(),
                    Value::Number(r.events as f64),
                ),
                (
                    "records_per_iteration".to_string(),
                    Value::Number(r.records as f64),
                ),
                (
                    "off_events_per_sec".to_string(),
                    Value::Number(r.off_eps.round()),
                ),
                (
                    "on_events_per_sec".to_string(),
                    Value::Number(r.on_eps.round()),
                ),
                (
                    "on_cost".to_string(),
                    Value::Number((r.on_cost() * 100.0).round() / 100.0),
                ),
            ]),
        ));
    }
    if let Some(m) = monitor {
        fields.push((
            "monitor".to_string(),
            Value::object([
                ("hosts".to_string(), Value::Number(m.hosts as f64)),
                (
                    "events_per_iteration".to_string(),
                    Value::Number(m.events as f64),
                ),
                (
                    "folds_per_iteration".to_string(),
                    Value::Number(m.folds as f64),
                ),
                (
                    "off_events_per_sec".to_string(),
                    Value::Number(m.off_eps.round()),
                ),
                (
                    "on_events_per_sec".to_string(),
                    Value::Number(m.on_eps.round()),
                ),
                (
                    "on_cost".to_string(),
                    Value::Number((m.on_cost() * 100.0).round() / 100.0),
                ),
            ]),
        ));
    }
    if let Some(r) = render {
        let artifacts = r
            .artifacts
            .iter()
            .map(|&(name, bytes, secs)| {
                Value::object([
                    ("artifact".to_string(), Value::String(name.to_string())),
                    ("bytes".to_string(), Value::Number(bytes as f64)),
                    (
                        "mb_per_sec".to_string(),
                        Value::Number((bytes as f64 / secs / 1e6).round()),
                    ),
                ])
            })
            .collect();
        fields.push((
            "render".to_string(),
            Value::object([
                ("hosts".to_string(), Value::Number(r.hosts as f64)),
                ("artifacts".to_string(), Value::Array(artifacts)),
                (
                    "sim_ms".to_string(),
                    Value::Number((r.sim_s * 1e5).round() / 100.0),
                ),
                (
                    "render_cost".to_string(),
                    Value::Number((r.render_cost() * 100.0).round() / 100.0),
                ),
            ]),
        ));
    }
    if let Some(a) = analyze {
        fields.push((
            "analyze".to_string(),
            Value::object([
                ("hosts".to_string(), Value::Number(a.hosts as f64)),
                ("records".to_string(), Value::Number(a.records as f64)),
                (
                    "records_per_sec".to_string(),
                    Value::Number(a.records_per_sec.round()),
                ),
            ]),
        ));
    }
    if let Some(r) = resilience {
        fields.push((
            "resilience".to_string(),
            Value::object([
                ("hosts".to_string(), Value::Number(r.hosts as f64)),
                (
                    "workload".to_string(),
                    Value::String(
                        "overcommitted 8-host cells, staggered rack outages, \
                         retry budget + brownout"
                            .to_string(),
                    ),
                ),
                (
                    "events_per_iteration".to_string(),
                    Value::Number(r.events as f64),
                ),
                (
                    "events_per_sec".to_string(),
                    Value::Number(r.events_per_sec.round()),
                ),
                ("retries".to_string(), Value::Number(r.retries as f64)),
                ("dropped".to_string(), Value::Number(r.dropped as f64)),
                ("shed".to_string(), Value::Number(r.shed as f64)),
            ]),
        ));
    }
    Value::object(fields)
}

/// Pull the number `<section>.<key>` (an `on_cost` or `render_cost`)
/// out of a committed report (absent in reports that predate the
/// section).
fn committed_number(doc: &serde_json::Value, section: &str, key: &str) -> Option<f64> {
    let serde_json::Value::Object(top) = doc else {
        return None;
    };
    let serde_json::Value::Object(t) = top.get(section)? else {
        return None;
    };
    match t.get(key) {
        Some(serde_json::Value::Number(c)) => Some(*c),
        _ => None,
    }
}

/// The worker pool the sharded engine will actually use.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pull `hosts[i].speedup` for a fleet size out of a committed report.
fn committed_speedup(doc: &serde_json::Value, hosts: usize) -> Option<f64> {
    let serde_json::Value::Object(top) = doc else {
        return None;
    };
    let serde_json::Value::Array(rows) = top.get("hosts")? else {
        return None;
    };
    rows.iter().find_map(|row| {
        let serde_json::Value::Object(r) = row else {
            return None;
        };
        match (r.get("hosts"), r.get("speedup")) {
            (Some(serde_json::Value::Number(h)), Some(serde_json::Value::Number(s)))
                if *h == hosts as f64 =>
            {
                Some(*s)
            }
            _ => None,
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut tolerance = 0.20f64;
    let mut budget_ms = 1_500u64;
    let mut hosts_list = vec![1usize, 10, 100];
    let mut run_colocate = true;
    let mut run_sharded = true;
    let mut run_telemetry_row = true;
    let mut run_analyze = true;
    let mut run_resilience = true;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => return usage(),
            },
            "--check" => match it.next() {
                Some(v) => check = Some(v.clone()),
                None => return usage(),
            },
            "--tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if (0.0..1.0).contains(&v) => tolerance = v,
                _ => return usage(),
            },
            "--budget-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => budget_ms = v,
                _ => return usage(),
            },
            "--hosts" => match it.next() {
                Some(v) => {
                    let parsed: Option<Vec<usize>> = v
                        .split(',')
                        .map(|h| h.parse().ok().filter(|&h| h > 0))
                        .collect();
                    match parsed {
                        Some(h) if !h.is_empty() => hosts_list = h,
                        _ => return usage(),
                    }
                }
                None => return usage(),
            },
            "--no-colocate" => run_colocate = false,
            "--no-sharded" => run_sharded = false,
            "--no-telemetry" => run_telemetry_row = false,
            "--no-analyze" => run_analyze = false,
            "--no-resilience" => run_resilience = false,
            _ => return usage(),
        }
    }

    let cfg = TpuConfig::paper();
    let mut rows = Vec::new();
    for &hosts in &hosts_list {
        let (spec, tenants) = spec_for(hosts);

        let (baseline_eps, events, baseline_run) = measure(budget_ms, || {
            reference::run(Engine::Baseline, &spec, &tenants, &cfg)
        });
        let (current_eps, _, current_run) = measure(budget_ms, || run_fleet(&spec, &tenants, &cfg));

        assert_eq!(
            baseline_run, current_run,
            "baseline and current modes must be bit-identical (hosts={hosts})"
        );

        let row = Row {
            hosts,
            events,
            baseline_eps,
            current_eps,
        };
        println!(
            "hosts={:<4} events/iter={:<7} baseline={:>12.0} ev/s  current={:>12.0} ev/s  speedup={:.2}x",
            row.hosts,
            row.events,
            row.baseline_eps,
            row.current_eps,
            row.speedup()
        );
        rows.push(row);
    }

    // The co-located case: same machinery, weight-swap hot path on
    // (bin-packed placement, swap events, warm-die dispatch, swap-aware
    // routing). Both engines must still be bit-identical — the
    // baseline never touches the weight subsystem.
    let colocate_row = if run_colocate {
        let (spec, tenants) = colocate_fleet(COLOCATE_HOSTS, REQUESTS_PER_HOST * COLOCATE_HOSTS);

        let (baseline_eps, events, baseline_run) = measure(budget_ms, || {
            reference::run(Engine::Baseline, &spec, &tenants, &cfg)
        });
        let (current_eps, _, current_run) = measure(budget_ms, || run_fleet(&spec, &tenants, &cfg));

        assert_eq!(
            baseline_run, current_run,
            "baseline and current modes must be bit-identical (colocate)"
        );
        let swaps: usize = current_run.report.tenants.iter().map(|t| t.swaps).sum();
        assert!(swaps > 0, "the co-located case must exercise the swap path");

        let row = Row {
            hosts: COLOCATE_HOSTS,
            events,
            baseline_eps,
            current_eps,
        };
        println!(
            "colocate hosts={:<4} events/iter={:<7} baseline={:>12.0} ev/s  current={:>12.0} ev/s  speedup={:.2}x  swaps/iter={}",
            row.hosts, row.events, row.baseline_eps, row.current_eps, row.speedup(), swaps
        );
        Some(row)
    } else {
        None
    };

    // The sharded-engine pair: the cell-structured sweep workload on
    // the single-threaded engine, then on the sharded engine (workers =
    // available cores). Bit-identity is the contract; it is asserted on
    // every size.
    let sharded_rows: Vec<ShardedRow> = if run_sharded {
        let mut out = Vec::new();
        for hosts in SHARDED_HOSTS {
            let (spec, tenants) = sweep_fleet(hosts, REQUESTS_PER_HOST * hosts);

            let on = |engine| measure(budget_ms, || reference::run(engine, &spec, &tenants, &cfg));
            let (single_eps, events, single_run) = on(Engine::Single);
            let (sharded_eps, _, sharded_run) = on(Engine::Sharded {
                workers: available_cores(),
            });

            assert_eq!(
                single_run, sharded_run,
                "sharded and single-threaded engines must be bit-identical (hosts={hosts})"
            );

            let row = ShardedRow {
                hosts,
                events,
                single_eps,
                sharded_eps,
            };
            println!(
                "sharded hosts={:<4} events/iter={:<8} single={:>12.0} ev/s  sharded={:>12.0} ev/s  speedup={:.2}x  workers={}",
                row.hosts, row.events, row.single_eps, row.sharded_eps, row.speedup(), available_cores()
            );
            out.push(row);
        }
        out
    } else {
        Vec::new()
    };

    // The telemetry overhead pair: the default path (instruments off —
    // what every golden and the rows above run) against the fully
    // instrumented engine, same workload, same process. The off mode is
    // the regression being guarded: telemetry must stay pay-for-what-
    // you-use, and even on-mode must not distort the engine (the report
    // equality is asserted).
    let (telemetry_row, request_log_row, monitor_row, render_row) = if run_telemetry_row {
        let (spec, tenants) = spec_for(TELEMETRY_HOSTS);
        let (off_eps, events, off_run) = measure(budget_ms, || run_fleet(&spec, &tenants, &cfg));
        let (on_eps, on_run) = measure_telemetry(&spec, &tenants, &cfg, budget_ms);
        assert_eq!(
            off_run, on_run,
            "telemetry-on runs must report bit-identically to telemetry-off"
        );
        let row = TelemetryRow {
            hosts: TELEMETRY_HOSTS,
            events,
            off_eps,
            on_eps,
        };
        println!(
            "telemetry hosts={:<4} events/iter={:<7} off={:>12.0} ev/s  on={:>12.0} ev/s  on-cost={:.2}x",
            row.hosts, row.events, row.off_eps, row.on_eps, row.on_cost()
        );
        // The request-log pair shares the off measurement: same spec,
        // same workload, and off-mode is identical either way.
        let (req_eps, req_run, req_log) = measure_request_log(&spec, &tenants, &cfg, budget_ms);
        assert_eq!(
            off_run, req_run,
            "request-log-on runs must report bit-identically to telemetry-off"
        );
        let served: usize = req_run.report.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(
            req_log.len(),
            served,
            "the record stream must hold one record per served request"
        );
        let req_row = RequestLogRow {
            hosts: TELEMETRY_HOSTS,
            events,
            records: req_log.len(),
            off_eps,
            on_eps: req_eps,
        };
        println!(
            "request-log hosts={:<4} records/iter={:<7} off={:>12.0} ev/s  on={:>12.0} ev/s  on-cost={:.2}x",
            req_row.hosts, req_row.records, req_row.off_eps, req_row.on_eps, req_row.on_cost()
        );
        // The health-monitor pair shares the same off measurement: the
        // monitor is the only instrument attached, so the ratio is the
        // marginal price of the streaming burn/anomaly/incident fold.
        let (mon_eps, mon_run, mon_folds) = measure_monitor(&spec, &tenants, &cfg, budget_ms);
        assert_eq!(
            off_run, mon_run,
            "monitor-on runs must report bit-identically to telemetry-off"
        );
        assert!(mon_folds > 0, "the monitor must fold cadence samples");
        let mon_row = MonitorRow {
            hosts: TELEMETRY_HOSTS,
            events,
            folds: mon_folds,
            off_eps,
            on_eps: mon_eps,
        };
        println!(
            "monitor hosts={:<4} folds/iter={:<7} off={:>12.0} ev/s  on={:>12.0} ev/s  on-cost={:.2}x",
            mon_row.hosts, mon_row.folds, mon_row.off_eps, mon_row.on_eps, mon_row.on_cost()
        );
        // The render block: how long writing the artifacts takes next
        // to the run itself, both timed in alternation.
        let (sim_s, artifacts) = measure_render(&spec, &tenants, &cfg, budget_ms / 2);
        let render_row = RenderRow {
            hosts: TELEMETRY_HOSTS,
            sim_s,
            artifacts,
        };
        for &(name, bytes, secs) in &render_row.artifacts {
            println!(
                "render hosts={:<4} {name:<13} bytes={bytes:<9} {:>8.1} MB/s",
                render_row.hosts,
                bytes as f64 / secs / 1e6
            );
        }
        println!(
            "render hosts={:<4} sim={:.2} ms  render-cost={:.2}x",
            render_row.hosts,
            render_row.sim_s * 1e3,
            render_row.render_cost()
        );
        (Some(row), Some(req_row), Some(mon_row), Some(render_row))
    } else {
        (None, None, None, None)
    };

    // The analyzer throughput row: build one committed-scale request
    // log (100k records) and time full attribution passes over it.
    let analyze_row = if run_analyze {
        let (spec, tenants) = spec_for(ANALYZE_HOSTS);
        let tcfg = TelemetryConfig {
            trace: false,
            metrics: None,
            requests: true,
            profile: false,
        };
        let mut tel = RunTelemetry::from_config(&tcfg);
        let run = run_fleet_telemetry(&spec, &tenants, &cfg, &mut tel);
        let log = tel.requests.expect("request log on");
        let served: usize = run.report.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(log.len(), served, "one record per served request");
        assert!(
            log.len() >= ANALYZE_MIN_RECORDS,
            "analyze row needs >= {ANALYZE_MIN_RECORDS} records, got {}",
            log.len()
        );
        // One untimed warmup, doubling as a correctness check.
        let a = Attribution::from_log(&log, None);
        assert_eq!(a.total_requests, log.len(), "attribution covers the log");
        let start = Instant::now();
        let mut iters = 0u64;
        while iters < 2 || start.elapsed().as_millis() < budget_ms as u128 {
            let a = Attribution::from_log(&log, None);
            assert_eq!(a.total_requests, log.len(), "attribution covers the log");
            iters += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let row = AnalyzeRow {
            hosts: ANALYZE_HOSTS,
            records: log.len(),
            records_per_sec: (log.len() as u64 * iters) as f64 / elapsed,
        };
        println!(
            "analyze hosts={:<4} records={:<7} attribution={:>12.0} records/s",
            row.hosts, row.records, row.records_per_sec
        );
        Some(row)
    } else {
        None
    };

    // The failure-heavy row: the overcommitted rack-outage workload
    // with the full resilience layer live. The behavioral counts come
    // from the deterministic report; the gate below requires the row
    // to genuinely exercise retries and brownout shedding.
    let resilience_row = if run_resilience {
        let (spec, tenants) = resilient_fleet(RESILIENT_HOSTS, REQUESTS_PER_HOST * RESILIENT_HOSTS);
        let (events_per_sec, events, run) = measure(budget_ms, || run_fleet(&spec, &tenants, &cfg));
        let sum = |f: fn(&tpu_cluster::FleetTenantReport) -> usize| -> usize {
            run.report.tenants.iter().map(f).sum()
        };
        let row = ResilienceRow {
            hosts: RESILIENT_HOSTS,
            events,
            events_per_sec,
            retries: sum(|t| t.retries),
            dropped: sum(|t| t.dropped),
            shed: sum(|t| t.shed),
        };
        println!(
            "resilience hosts={:<4} events/iter={:<8} current={:>12.0} ev/s  retries/iter={} dropped/iter={} shed/iter={}",
            row.hosts, row.events, row.events_per_sec, row.retries, row.dropped, row.shed
        );
        Some(row)
    } else {
        None
    };

    let doc = rows_to_json(
        &rows,
        colocate_row.as_ref(),
        &sharded_rows,
        telemetry_row.as_ref(),
        request_log_row.as_ref(),
        monitor_row.as_ref(),
        render_row.as_ref(),
        analyze_row.as_ref(),
        resilience_row.as_ref(),
    );
    if let Some(path) = out {
        let body = format!("{}\n", serde_json::to_string_pretty(&doc));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("bench_cluster: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if let Some(path) = check {
        let gate_hosts = *hosts_list.last().expect("hosts list non-empty");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_cluster: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let committed = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_cluster: {path} is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(want) = committed_speedup(&committed, gate_hosts) else {
            eprintln!("bench_cluster: {path} has no speedup entry for {gate_hosts} hosts");
            return ExitCode::FAILURE;
        };
        let got = rows
            .iter()
            .find(|r| r.hosts == gate_hosts)
            .expect("measured the gate size")
            .speedup();
        let floor = want * (1.0 - tolerance);
        if got < floor {
            eprintln!(
                "bench_cluster: REGRESSION at {gate_hosts} hosts: same-run speedup {got:.2}x \
                 fell below {floor:.2}x (committed {want:.2}x - {:.0}% tolerance)",
                tolerance * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!(
            "gate ok at {gate_hosts} hosts: speedup {got:.2}x >= {floor:.2}x \
             (committed {want:.2}x - {:.0}% tolerance)",
            tolerance * 100.0
        );
        // Telemetry gate: the same-run off/on ratio must not grow past
        // the committed cost plus tolerance — a creeping hot-path tax
        // in off mode (or runaway instrument cost in on mode) trips it.
        if let (Some(measured), Some(want)) = (
            &telemetry_row,
            committed_number(&committed, "telemetry", "on_cost"),
        ) {
            let ceiling = want * (1.0 + tolerance);
            let got = measured.on_cost();
            if got > ceiling {
                eprintln!(
                    "bench_cluster: REGRESSION: telemetry on-cost {got:.2}x exceeded \
                     {ceiling:.2}x (committed {want:.2}x + {:.0}% tolerance)",
                    tolerance * 100.0
                );
                return ExitCode::FAILURE;
            }
            println!(
                "gate ok for telemetry: on-cost {got:.2}x <= {ceiling:.2}x \
                 (committed {want:.2}x + {:.0}% tolerance)",
                tolerance * 100.0
            );
        }
        // Same ceiling rule for the record stream on its own: it must
        // stay far cheaper than the full instrument set. Its committed
        // ratio sits near 1.0, where a purely relative band is narrower
        // than run-to-run noise, so the ceiling also gets the tolerance
        // as an absolute allowance.
        if let (Some(measured), Some(want)) = (
            &request_log_row,
            committed_number(&committed, "request_log", "on_cost"),
        ) {
            let ceiling = want * (1.0 + tolerance) + tolerance;
            let got = measured.on_cost();
            if got > ceiling {
                eprintln!(
                    "bench_cluster: REGRESSION: request-log on-cost {got:.2}x exceeded \
                     {ceiling:.2}x (committed {want:.2}x + {:.0}% tolerance)",
                    tolerance * 100.0
                );
                return ExitCode::FAILURE;
            }
            println!(
                "gate ok for request-log: on-cost {got:.2}x <= {ceiling:.2}x \
                 (committed {want:.2}x + {:.0}% tolerance)",
                tolerance * 100.0
            );
        }
        // The monitor's ratio also sits near 1.0 — the same relative
        // band plus absolute allowance as the record stream. A breach
        // means the streaming fold (burn windows, anomaly detectors,
        // incident state) grew a per-event or per-fold hot-path tax.
        if let (Some(measured), Some(want)) = (
            &monitor_row,
            committed_number(&committed, "monitor", "on_cost"),
        ) {
            let ceiling = want * (1.0 + tolerance) + tolerance;
            let got = measured.on_cost();
            if got > ceiling {
                eprintln!(
                    "bench_cluster: REGRESSION: monitor on-cost {got:.2}x exceeded \
                     {ceiling:.2}x (committed {want:.2}x + {:.0}% tolerance)",
                    tolerance * 100.0
                );
                return ExitCode::FAILURE;
            }
            println!(
                "gate ok for monitor: on-cost {got:.2}x <= {ceiling:.2}x \
                 (committed {want:.2}x + {:.0}% tolerance)",
                tolerance * 100.0
            );
        }
        // The render ratio gets the same relative band plus absolute
        // allowance as the rows near 1.0. A breach means an artifact
        // writer grew a per-record cost.
        if let (Some(measured), Some(want)) = (
            &render_row,
            committed_number(&committed, "render", "render_cost"),
        ) {
            let ceiling = want * (1.0 + tolerance) + tolerance;
            let got = measured.render_cost();
            if got > ceiling {
                eprintln!(
                    "bench_cluster: REGRESSION: render cost {got:.2}x exceeded \
                     {ceiling:.2}x (committed {want:.2}x + {:.0}% tolerance)",
                    tolerance * 100.0
                );
                return ExitCode::FAILURE;
            }
            println!(
                "gate ok for render: cost {got:.2}x <= {ceiling:.2}x \
                 (committed {want:.2}x + {:.0}% tolerance)",
                tolerance * 100.0
            );
        }
        // The analyzer gate is absolute, not relative: the log must be
        // committed-scale and the throughput a real, finite rate.
        if let Some(a) = &analyze_row {
            if a.records < ANALYZE_MIN_RECORDS
                || !a.records_per_sec.is_finite()
                || a.records_per_sec <= 0.0
            {
                eprintln!(
                    "bench_cluster: REGRESSION: analyze row degenerate \
                     ({} records, {} records/s)",
                    a.records, a.records_per_sec
                );
                return ExitCode::FAILURE;
            }
            println!(
                "gate ok for analyze: {} records at {:.0} records/s",
                a.records, a.records_per_sec
            );
        }
        // The resilience gate is behavioral, not relative: the sim is
        // deterministic, so the failure-heavy row must always displace
        // work into the retry layer and trip the brownout controller —
        // a zero in either column means the resilience hot path
        // silently stopped being exercised.
        if let Some(r) = &resilience_row {
            if r.retries == 0
                || r.shed == 0
                || !r.events_per_sec.is_finite()
                || r.events_per_sec <= 0.0
            {
                eprintln!(
                    "bench_cluster: REGRESSION: resilience row degenerate \
                     ({} retries, {} shed, {} events/s)",
                    r.retries, r.shed, r.events_per_sec
                );
                return ExitCode::FAILURE;
            }
            println!(
                "gate ok for resilience: {} retries, {} dropped, {} shed at {:.0} events/s",
                r.retries, r.dropped, r.shed, r.events_per_sec
            );
        }
        // The sharded gate is an absolute floor, not committed-relative:
        // on a machine with enough cores, the multi-core engine must
        // beat the single-threaded reference by at least 2x at 1000
        // hosts. Below the core threshold the floor would measure the
        // hardware, not the code, so it is skipped (and says so).
        if let Some(row) = sharded_rows.iter().find(|r| r.hosts == SHARDED_GATE_HOSTS) {
            let cores = available_cores();
            if cores < SHARDED_GATE_MIN_CORES {
                println!(
                    "gate skipped for sharded: {cores} core(s) < {SHARDED_GATE_MIN_CORES} \
                     (measured {:.2}x at {SHARDED_GATE_HOSTS} hosts, informational)",
                    row.speedup()
                );
            } else if row.speedup() < SHARDED_GATE_MIN_SPEEDUP {
                eprintln!(
                    "bench_cluster: REGRESSION: sharded speedup {:.2}x at {SHARDED_GATE_HOSTS} \
                     hosts fell below the {SHARDED_GATE_MIN_SPEEDUP:.1}x floor on {cores} cores",
                    row.speedup()
                );
                return ExitCode::FAILURE;
            } else {
                println!(
                    "gate ok for sharded: {:.2}x >= {SHARDED_GATE_MIN_SPEEDUP:.1}x at \
                     {SHARDED_GATE_HOSTS} hosts on {cores} cores",
                    row.speedup()
                );
            }
        }
    }
    ExitCode::SUCCESS
}
