//! The two fleet workloads.
//!
//! * `fleet-wide` — one MLP0 tenant replicated across 1,000 hosts × 2
//!   dies behind the least-outstanding router with Table 5 hops. One
//!   connected component, so the event queue holds tens of thousands of
//!   pending events: the queue, router, `HostCore` and arrival layers
//!   are under load; telemetry, resilience and the device layers idle.
//! * `cells-observed` — 8-host cells under staggered rack outages, each
//!   carrying a critical MLP0 stream and overcommitted bulk LSTM0 and
//!   CNN0 streams, bin-packed with swap-aware routing, with retries,
//!   a retry budget, hedging and brownout shedding on, and the full
//!   instrument set recording. The job renders every artifact in
//!   memory, renders the report, and attributes latency over the
//!   request log: the telemetry, monitor, render, analyze, resilience
//!   and weight-swap layers do the work.

use crate::bench::{Metrics, SelfTimes, Sim, Unit, Workload};
use crate::probes;
use crate::spans::Spans;
use crate::sys::Fnv;
use std::time::Instant;
use tpu_analyze::{cdf_svg, tail_svg, Attribution};
use tpu_cluster::{
    plan_placement, run_fleet, run_fleet_telemetry, BrownoutConfig, ColocateConfig, FleetRun,
    FleetSpec, FleetTenantSpec, FleetTopology, HedgeConfig, HopModel, PlacementPlan, RetryBudget,
    RetryPolicy, RouterPolicy,
};
use tpu_core::TpuConfig;
use tpu_monitor::{heatmap_svg, timeline_svg, FleetMonitor, MonitorConfig};
use tpu_serve::tenant::ArrivalProcess;
use tpu_serve::workload::PoissonSource;
use tpu_serve::{BatchPolicy, TenantSpec};
use tpu_telemetry::{MetricsConfig, MetricsRecorder, RequestLog, RunTelemetry, TelemetryConfig};

/// Hosts of `fleet-wide`: past the size where the timer wheel's bottom
/// rung outgrows the binary heap.
const WIDE_HOSTS: usize = 1_000;
/// Requests per host of `fleet-wide`.
const WIDE_REQUESTS_PER_HOST: usize = 500;

/// Hosts of `cells-observed`: three 8-host cells.
const CELL_HOSTS: usize = 8;
const CELLS: usize = 3;
/// Requests per cell of `cells-observed`.
const CELL_REQUESTS: usize = 5_000;
/// Cadence of the metrics recorder and the monitor, simulated ms: one
/// fold stream, so the incident set replays from the metrics artifact.
const CADENCE_MS: f64 = 0.05;

/// What both fleet workloads build before the job.
pub struct FleetSetup {
    cfg: TpuConfig,
    spec: FleetSpec,
    tenants: Vec<FleetTenantSpec>,
    plan: PlacementPlan,
    seed: u64,
}

fn plan(
    sp: &mut Spans,
    seed: u64,
    build: impl FnOnce() -> (FleetSpec, Vec<FleetTenantSpec>),
) -> FleetSetup {
    let (cfg, spec, tenants) = sp.run("spec", |_| {
        let (spec, tenants) = build();
        (TpuConfig::paper(), spec, tenants)
    });
    let plan = sp.run("placement", |_| plan_placement(&spec, &tenants, &cfg));
    FleetSetup {
        cfg,
        spec,
        tenants,
        plan,
        seed,
    }
}

/// Per-tenant conservation: every offered request is served, dropped
/// or shed.
fn conservation(unit: &mut Unit, run: &FleetRun, tenants: &[FleetTenantSpec]) {
    for (t, spec) in run.report.tenants.iter().zip(tenants) {
        let offered = spec.tenant.requests;
        unit.require(
            t.requests + t.dropped + t.shed == offered && t.offered == offered,
            || {
                format!(
                    "{}: served {} + dropped {} + shed {} != offered {offered} (report {})",
                    t.name, t.requests, t.dropped, t.shed, t.offered
                )
            },
        );
    }
}

fn report_strings(run: &FleetRun) -> (String, String) {
    (
        serde_json::to_string(&run.report.to_json()),
        run.report.to_string(),
    )
}

/// Layer counts both fleet workloads read off their report.
fn fleet_counts(s: &FleetSetup, run: &FleetRun, m: &mut Metrics) {
    let tenants = &run.report.tenants;
    let sum =
        |f: &dyn Fn(&tpu_cluster::FleetTenantReport) -> f64| -> f64 { tenants.iter().map(f).sum() };
    let served = sum(&|t| t.requests as f64);
    let batches = sum(&|t| t.batches as f64);
    let dispatched = sum(&|t| t.mean_batch * t.batches as f64);
    m.insert("engine.events".into(), run.report.events_processed as f64);
    m.insert("host.mean_batch".into(), dispatched / batches.max(1.0));
    m.insert("host.swaps".into(), sum(&|t| t.swaps as f64));
    m.insert("host.swap_stall_ms".into(), sum(&|t| t.swap_ms));
    let retries = sum(&|t| t.retries as f64);
    let hedges = sum(&|t| t.hedges as f64);
    let shed = sum(&|t| t.shed as f64);
    let offered = sum(&|t| t.offered as f64);
    m.insert("resilience.retries".into(), retries);
    m.insert("resilience.hedges".into(), hedges);
    m.insert("resilience.shed".into(), shed);
    m.insert("resilience.dropped".into(), sum(&|t| t.dropped as f64));
    m.insert(
        "resilience.goodput_frac".into(),
        served / (offered - shed + retries + hedges).max(1.0),
    );
    m.insert(
        "shard.components".into(),
        probes::components(s.spec.hosts.len(), &s.plan.assignments) as f64,
    );
}

/// The engine's per-kind event counts and the wheel's longest rung,
/// from one run with only the engine profile attached.
fn engine_profile(s: &FleetSetup, m: &mut Metrics) {
    let mut tel = RunTelemetry::from_config(&TelemetryConfig {
        profile: true,
        ..TelemetryConfig::off()
    });
    run_fleet_telemetry(&s.spec, &s.tenants, &s.cfg, &mut tel);
    let profile = tel.profile.expect("profile attached");
    for (kind, n) in &profile.event_counts {
        let key = format!("engine.events.{kind}");
        if crate::declared_per_layer(&key) {
            m.insert(key, *n as f64);
        }
    }
    if let Some(w) = &profile.wheel {
        m.insert("queue.max_rung".into(), w.max_rung as f64);
    }
}

fn queue_probe(s: &FleetSetup, logs: &[&RequestLog], m: &mut Metrics) {
    let q = probes::queue_replay(logs, |tenant| {
        s.tenants
            .iter()
            .find(|t| t.tenant.name == tenant)
            .map_or(0.0, |t| s.spec.hop.hop_ms(&t.tenant.workload))
    });
    m.insert("queue.wheel_ns_per_op".into(), q.wheel_ns);
    m.insert("queue.heap_ns_per_op".into(), q.heap_ns);
    m.insert("queue.max_pending".into(), q.max_pending as f64);
}

fn route_probe(s: &FleetSetup, m: &mut Metrics) {
    let replicas = s.tenants.iter().map(|t| t.replicas).max().unwrap_or(1);
    m.insert(
        "route.ns_per_pick".into(),
        probes::route_ns_per_pick(replicas, s.seed),
    );
}

/// `fleet-wide` (see the module docs).
pub struct FleetWide;

/// What one `fleet-wide` job produces.
pub struct WideOutput {
    run: FleetRun,
    report: (String, String),
}

impl Workload for FleetWide {
    type Setup = FleetSetup;
    type Output = WideOutput;

    fn setup(&self, seed: u64, sp: &mut Spans) -> FleetSetup {
        plan(sp, seed, || {
            let spec = FleetSpec::new(WIDE_HOSTS, 2, seed)
                .with_router(RouterPolicy::LeastOutstanding)
                .with_hop(HopModel::Table5 { scale_ms: 1.0 });
            let tenants = tpu_bench::fleet_tenants(WIDE_HOSTS, WIDE_REQUESTS_PER_HOST * WIDE_HOSTS);
            (spec, tenants)
        })
    }

    fn job(&self, s: &FleetSetup, sp: &mut Spans) -> (WideOutput, Sim) {
        let t = Instant::now();
        let run = sp.run("engine", |_| run_fleet(&s.spec, &s.tenants, &s.cfg));
        let sim = Sim {
            events: run.report.events_processed,
            seconds: t.elapsed().as_secs_f64(),
        };
        sp.note_rss("rss.after_run_mb");
        let report = sp.run("report", |_| report_strings(&run));
        sp.note_rss("rss.after_render_mb");
        (WideOutput { run, report }, sim)
    }

    fn check(&self, s: &FleetSetup, out: &WideOutput) -> Vec<Unit> {
        let mut h = Fnv::new();
        h.write(out.report.0.as_bytes());
        h.write(out.report.1.as_bytes());
        let mut unit = Unit::new("fleet-wide run", h.finish());
        conservation(&mut unit, &out.run, &s.tenants);
        unit.require(out.run.placement == s.plan, || {
            "the engine placed replicas differently from plan_placement".to_string()
        });
        vec![unit]
    }

    fn layer_counts(&self, s: &FleetSetup, out: &WideOutput, _: &SelfTimes, m: &mut Metrics) {
        fleet_counts(s, &out.run, m);
    }

    fn layer_probes(&self, s: &FleetSetup, _: &WideOutput, m: &mut Metrics) {
        engine_profile(s, m);
        let mut tel = RunTelemetry::from_config(&TelemetryConfig {
            requests: true,
            ..TelemetryConfig::off()
        });
        run_fleet_telemetry(&s.spec, &s.tenants, &s.cfg, &mut tel);
        let log = tel.requests.expect("request log attached");
        queue_probe(s, &[&log], m);
        drop(log);
        route_probe(s, m);
        let t = &s.tenants[0].tenant;
        let ArrivalProcess::Poisson { rate_rps } = t.arrivals else {
            unreachable!("fleet_tenants draws Poisson arrivals")
        };
        let per_host = rate_rps / s.spec.hosts.len() as f64;
        let mut src = PoissonSource::new(per_host, 200_000, s.seed);
        let arrivals = tpu_serve::workload::record_stream(&mut src);
        let curve = t.effective_curve(&s.cfg);
        let ns = probes::host_ns_per_arrival(t, &curve, 2, s.seed, &arrivals);
        m.insert("host.ns_per_arrival".into(), ns);
        let mut src = PoissonSource::new(rate_rps, 1_000_000, s.seed);
        m.insert(
            "arrivals.poisson_ns_per_draw".into(),
            probes::ns_per_draw(&mut src),
        );
    }
}

/// `cells-observed` (see the module docs).
pub struct CellsObserved;

/// Every artifact one `cells-observed` job renders, in memory.
pub struct CellsOutput {
    run: FleetRun,
    log: RequestLog,
    folds: u64,
    incidents: usize,
    trace_spans: usize,
    /// (name, bytes) of every rendered artifact, report included.
    artifacts: Vec<(&'static str, String)>,
}

fn cells_fleet(seed: u64) -> (FleetSpec, Vec<FleetTenantSpec>) {
    let hosts = CELL_HOSTS * CELLS;
    let topo = FleetTopology::new(4, 2);
    let mut failures = Vec::new();
    for c in 0..CELLS {
        failures.extend(topo.rack_outage(1.0, 2.5, 2 * c, hosts));
        failures.extend(topo.rack_outage(3.0, 4.5, 2 * c + 1, hosts));
    }
    let spec = FleetSpec::new(hosts, 2, seed)
        .with_router(RouterPolicy::SwapAware)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_colocate(ColocateConfig::bin_packed())
        .with_failures(failures)
        .with_retry(RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 0.1,
            backoff_max_ms: 1.0,
            jitter_frac: 0.25,
            budget: Some(RetryBudget {
                tokens: 1024.0,
                refill_per_ms: 64.0,
            }),
            hedge: Some(HedgeConfig {
                min_delay_ms: 0.5,
                quantile: 0.95,
                window: 128,
            }),
        })
        .with_brownout(BrownoutConfig {
            max_priority_shed: 1,
            slo_burn_threshold: 0.4,
            window: 32,
            clear_threshold: 0.15,
            min_trip_ms: 0.5,
        });
    let mk = |workload: &str, rate_rps: f64, max_batch: usize, slo_ms: f64, priority, share| {
        TenantSpec::new(
            workload,
            ArrivalProcess::Poisson { rate_rps },
            BatchPolicy::Timeout {
                max_batch,
                t_max_ms: 0.5,
            },
            slo_ms,
            ((CELL_REQUESTS as f64 * share) as usize).max(1),
        )
        .with_priority(priority)
    };
    let mut tenants = Vec::new();
    for c in 0..CELLS {
        tenants.push(FleetTenantSpec::new(
            mk("MLP0", 600_000.0, 200, 2.5, 3, 0.4).named(&format!("critical{c}")),
            CELL_HOSTS,
        ));
        tenants.push(FleetTenantSpec::new(
            mk("LSTM0", 400_000.0, 64, 50.0, 1, 0.35).named(&format!("bulk-lstm{c}")),
            CELL_HOSTS,
        ));
        tenants.push(FleetTenantSpec::new(
            mk("CNN0", 150_000.0, 8, 30.0, 1, 0.25).named(&format!("bulk-cnn{c}")),
            CELL_HOSTS,
        ));
    }
    (spec, tenants)
}

fn instruments(trace: bool, metrics: bool, requests: bool, monitor: bool) -> RunTelemetry {
    let mut tel = RunTelemetry::from_config(&TelemetryConfig {
        trace,
        metrics: metrics.then(|| MetricsConfig {
            interval_ms: CADENCE_MS,
            ..MetricsConfig::default()
        }),
        requests,
        profile: false,
    });
    if monitor {
        let cfg = MonitorConfig::with_interval(CADENCE_MS).with_topology(FleetTopology::new(4, 2));
        tel.monitor = Some(Box::new(FleetMonitor::new(cfg)));
    }
    tel
}

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

fn svg(r: Result<String, tpu_plot::PlotError>) -> String {
    r.unwrap_or_else(|e| format!("plot error: {e}"))
}

fn svg_opt(r: Result<Option<String>, tpu_plot::PlotError>) -> String {
    match r {
        Ok(s) => s.unwrap_or_default(),
        Err(e) => format!("plot error: {e}"),
    }
}

impl Workload for CellsObserved {
    type Setup = FleetSetup;
    type Output = CellsOutput;

    fn setup(&self, seed: u64, sp: &mut Spans) -> FleetSetup {
        plan(sp, seed, || cells_fleet(seed))
    }

    fn job(&self, s: &FleetSetup, sp: &mut Spans) -> (CellsOutput, Sim) {
        let mut tel = instruments(true, true, true, true);
        let t = Instant::now();
        let run = sp.run("engine", |_| {
            run_fleet_telemetry(&s.spec, &s.tenants, &s.cfg, &mut tel)
        });
        let sim = Sim {
            events: run.report.events_processed,
            seconds: t.elapsed().as_secs_f64(),
        };
        sp.note_rss("rss.after_run_mb");
        let mut artifacts = Vec::new();
        let tracer = tel.tracer.take().expect("trace attached");
        let trace_spans = tracer.len();
        artifacts.push(("chrome-trace", sp.run("trace.render", |_| tracer.render())));
        drop(tracer);
        let metrics = tel.metrics.take().expect("metrics attached");
        sp.run("metrics.render", |_| {
            artifacts.push(("metrics.csv", metrics.to_csv()));
            artifacts.push((
                "metrics.json",
                serde_json::to_string_pretty(&metrics.to_json()),
            ));
            artifacts.push((
                "utilization.svg",
                svg(tpu_plot::timeseries(
                    "utilization",
                    "utilization",
                    &util_series(&metrics),
                )),
            ));
        });
        let log = tel.requests.take().expect("request log attached");
        artifacts.push(("request-log", sp.run("reqlog.render", |_| log.render())));
        let monitor = *tel
            .monitor
            .take()
            .expect("monitor attached")
            .into_any()
            .downcast::<FleetMonitor>()
            .expect("the attached sink is a FleetMonitor");
        let incidents = sp.run("monitor.render", |_| {
            let report = monitor.report();
            artifacts.push(("incidents.json", report.render()));
            artifacts.push(("incidents.txt", report.render_text()));
            artifacts.push(("timeline.svg", svg_opt(timeline_svg(&report))));
            artifacts.push(("heatmap.svg", svg_opt(heatmap_svg(monitor.history()))));
            report.incidents.len()
        });
        let (json, text) = sp.run("report", |_| report_strings(&run));
        artifacts.push(("report.json", json));
        artifacts.push(("report.txt", text));
        sp.run("analyze", |_| {
            let a = Attribution::from_log(&log, None);
            artifacts.push(("attribution.json", serde_json::to_string(&a.to_json())));
            artifacts.push(("breakdown.svg", svg(a.breakdown_svg())));
            artifacts.push(("cdf.svg", svg(cdf_svg(&log))));
            artifacts.push(("tail.svg", svg(tail_svg(&log))));
        });
        sp.note_rss("rss.after_render_mb");
        let out = CellsOutput {
            run,
            log,
            folds: monitor.folds(),
            incidents,
            trace_spans,
            artifacts,
        };
        (out, sim)
    }

    fn check(&self, s: &FleetSetup, out: &CellsOutput) -> Vec<Unit> {
        let mut h = Fnv::new();
        for (name, bytes) in &out.artifacts {
            h.write(name.as_bytes());
            h.write(bytes.as_bytes());
        }
        let mut unit = Unit::new("cells-observed run", h.finish());
        conservation(&mut unit, &out.run, &s.tenants);
        let served = out.run.report.total_requests();
        unit.require(out.log.len() == served, || {
            format!(
                "request log holds {} records for {served} served requests",
                out.log.len()
            )
        });
        unit.require(out.folds >= 1, || {
            "the monitor folded no sample".to_string()
        });
        for (name, bytes) in &out.artifacts {
            unit.require(!bytes.starts_with("plot error"), || {
                format!("{name}: {bytes}")
            });
        }
        vec![unit]
    }

    fn layer_counts(&self, s: &FleetSetup, out: &CellsOutput, own: &SelfTimes, m: &mut Metrics) {
        fleet_counts(s, &out.run, m);
        let bytes = |name: &str| {
            out.artifacts
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, b)| b.len() as f64)
        };
        m.insert("trace.spans".into(), out.trace_spans as f64);
        m.insert("trace.bytes".into(), bytes("chrome-trace"));
        m.insert("reqlog.records".into(), out.log.len() as f64);
        m.insert("reqlog.bytes".into(), bytes("request-log"));
        m.insert("monitor.folds".into(), out.folds as f64);
        m.insert("monitor.incidents".into(), out.incidents as f64);
        if let Some(&a) = own.get("analyze") {
            m.insert("analyze.records_per_s".into(), out.log.len() as f64 / a);
        }
    }

    fn layer_probes(&self, s: &FleetSetup, out: &CellsOutput, m: &mut Metrics) {
        engine_profile(s, m);
        queue_probe(s, &[&out.log], m);
        route_probe(s, m);
        // Each instrument's cost: simulation time with it alone (all,
        // for `telemetry`) over the bare simulation, medians of runs
        // interleaved so drift hits every configuration alike.
        let configs: [(&str, [bool; 4]); 6] = [
            ("bare", [false; 4]),
            ("telemetry.on_cost", [true; 4]),
            ("trace.on_cost", [true, false, false, false]),
            ("metrics.on_cost", [false, true, false, false]),
            ("reqlog.on_cost", [false, false, true, false]),
            ("monitor.on_cost", [false, false, false, true]),
        ];
        let mut times = vec![Vec::new(); configs.len()];
        for _ in 0..3 {
            for (i, (_, [tr, me, rl, mo])) in configs.iter().enumerate() {
                let mut tel = instruments(*tr, *me, *rl, *mo);
                let t = Instant::now();
                run_fleet_telemetry(&s.spec, &s.tenants, &s.cfg, &mut tel);
                times[i].push(t.elapsed().as_secs_f64());
            }
        }
        let bare = crate::bench::median(&times[0]);
        for (i, (name, _)) in configs.iter().enumerate().skip(1) {
            m.insert((*name).into(), crate::bench::median(&times[i]) / bare);
        }
        let rate: f64 = s
            .tenants
            .iter()
            .filter_map(|t| t.tenant.arrivals.mean_rate_rps())
            .fold(0.0, f64::max);
        let mut src = PoissonSource::new(rate, 1_000_000, s.seed);
        m.insert(
            "arrivals.poisson_ns_per_draw".into(),
            probes::ns_per_draw(&mut src),
        );
    }
}
