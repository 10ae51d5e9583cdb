//! `serve-mix`: the five `tpu_serve` scenarios at scaled request counts
//! — all six Table 1 apps on 4 dies, MMPP on/off bursts, a CNN batch
//! sweep, fixed vs timeout vs SLO-adaptive batching, and overload. The
//! only workload that runs `tpu_serve::engine` and its batching
//! policies, the second event loop next to the fleet's.

use crate::bench::{Metrics, SelfTimes, Sim, Unit, Workload};
use crate::probes;
use crate::spans::Spans;
use crate::sys::Fnv;
use std::time::Instant;
use tpu_core::TpuConfig;
use tpu_serve::report::ServeReport;
use tpu_serve::scenario::{all_scenarios, Scenario};
use tpu_serve::tenant::ArrivalProcess;
use tpu_telemetry::{RunTelemetry, TelemetryConfig};

/// Request-count multiplier on every scenario.
const SCALE: f64 = 12.0;

/// The seeded, scaled scenarios.
pub struct ServeSetup {
    cfg: TpuConfig,
    scenarios: Vec<Scenario>,
    seed: u64,
}

/// One scenario run's report and its renderings.
pub struct ServeRun {
    label: String,
    report: ServeReport,
    json: String,
    text: String,
}

/// `serve-mix` (see the module docs).
pub struct ServeMix;

impl Workload for ServeMix {
    type Setup = ServeSetup;
    type Output = Vec<ServeRun>;

    fn setup(&self, seed: u64, sp: &mut Spans) -> ServeSetup {
        sp.run("spec", |_| ServeSetup {
            cfg: TpuConfig::paper(),
            scenarios: all_scenarios()
                .into_iter()
                .map(|s| s.with_seed(seed).scale_requests(SCALE))
                .collect(),
            seed,
        })
    }

    fn job(&self, s: &ServeSetup, sp: &mut Spans) -> (Vec<ServeRun>, Sim) {
        let mut sim = Sim::default();
        let mut out = Vec::new();
        for scenario in &s.scenarios {
            let t = Instant::now();
            let reports = sp.run("serve", |_| scenario.execute(&s.cfg));
            sim.seconds += t.elapsed().as_secs_f64();
            sim.events += reports.iter().map(|(_, r)| r.events_processed).sum::<u64>();
            sp.run("report", |_| {
                for (label, report) in reports {
                    out.push(ServeRun {
                        label: format!("{}/{label}", scenario.name),
                        json: serde_json::to_string(&report.to_json()),
                        text: report.to_string(),
                        report,
                    });
                }
            });
        }
        sp.note_rss("rss.after_run_mb");
        sp.note_rss("rss.after_render_mb");
        (out, sim)
    }

    fn check(&self, s: &ServeSetup, out: &Vec<ServeRun>) -> Vec<Unit> {
        let specs = s.scenarios.iter().flat_map(|sc| &sc.runs);
        let mut units = Vec::new();
        for (run, spec) in out.iter().zip(specs) {
            let mut h = Fnv::new();
            h.write(run.json.as_bytes());
            h.write(run.text.as_bytes());
            let mut unit = Unit::new(run.label.clone(), h.finish());
            unit.require(run.report.tenants.len() == spec.tenants.len(), || {
                "tenant count differs from the scenario".to_string()
            });
            for (t, want) in run.report.tenants.iter().zip(&spec.tenants) {
                unit.require(t.requests == want.requests, || {
                    format!(
                        "{}: served {} of {} offered",
                        t.name, t.requests, want.requests
                    )
                });
            }
            units.push(unit);
        }
        let runs: usize = s.scenarios.iter().map(|sc| sc.runs.len()).sum();
        if out.len() != runs {
            for u in &mut units {
                u.problems
                    .push(format!("{} reports for {runs} scenario runs", out.len()));
            }
        }
        units
    }

    fn layer_counts(&self, _: &ServeSetup, out: &Vec<ServeRun>, _: &SelfTimes, m: &mut Metrics) {
        let tenants = out.iter().flat_map(|r| &r.report.tenants);
        let (served, batches) = tenants.fold((0.0, 0.0), |(s, b), t| {
            (s + t.mean_batch * t.batches as f64, b + t.batches as f64)
        });
        m.insert("host.mean_batch".into(), served / batches.max(1.0));
        m.insert(
            "serve.events".into(),
            out.iter().map(|r| r.report.events_processed as f64).sum(),
        );
    }

    fn layer_probes(&self, s: &ServeSetup, _: &Vec<ServeRun>, m: &mut Metrics) {
        let cfg = TelemetryConfig {
            requests: true,
            profile: true,
            ..TelemetryConfig::off()
        };
        let mut logs = Vec::new();
        let mut max_rung = 0usize;
        for scenario in &s.scenarios {
            let mut tels: Vec<RunTelemetry> = scenario
                .runs
                .iter()
                .map(|_| RunTelemetry::from_config(&cfg))
                .collect();
            scenario.execute_telemetry(&s.cfg, &mut tels);
            for tel in tels {
                if let Some(w) = tel.profile.as_ref().and_then(|p| p.wheel.as_ref()) {
                    max_rung = max_rung.max(w.max_rung);
                }
                logs.extend(tel.requests);
            }
        }
        let q = probes::queue_replay(&logs.iter().collect::<Vec<_>>(), |_| 0.0);
        drop(logs);
        m.insert("queue.wheel_ns_per_op".into(), q.wheel_ns);
        m.insert("queue.heap_ns_per_op".into(), q.heap_ns);
        m.insert("queue.max_pending".into(), q.max_pending as f64);
        m.insert("queue.max_rung".into(), max_rung as f64);

        let burst = s
            .scenarios
            .iter()
            .find(|sc| sc.name == "mlp0-burst")
            .expect("mlp0-burst is a serve scenario");
        for run in &burst.runs {
            let t = &run.tenants[0];
            let mut src = t.arrivals.source(&t.name, t.requests, s.seed);
            let ns = probes::ns_per_draw(src.as_mut());
            match t.arrivals {
                ArrivalProcess::Poisson { .. } => {
                    let arrivals = tpu_serve::workload::record_stream(src.as_mut());
                    let curve = t.effective_curve(&s.cfg);
                    let host_ns =
                        probes::host_ns_per_arrival(t, &curve, run.cluster.dies, s.seed, &arrivals);
                    m.insert("host.ns_per_arrival".into(), host_ns);
                    m.insert("arrivals.poisson_ns_per_draw".into(), ns);
                }
                ArrivalProcess::Bursty { .. } => {
                    m.insert("arrivals.mmpp_ns_per_draw".into(), ns);
                }
                _ => {}
            }
        }
    }
}
