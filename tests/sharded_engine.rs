//! Differential tests for the sharded parallel fleet engine: for every
//! eligible spec, the multi-core engine must reproduce the
//! single-threaded engine **byte for byte** — struct equality, text
//! report, and JSON — at every worker count. Each test names its
//! engines through `tpu_cluster::reference`, so tests running
//! concurrently never share a switch.

use tpu_repro::tpu_cluster::reference::{self, Engine};
use tpu_repro::tpu_cluster::{
    fleet_sweep, rack_outage, scenario_by_name, FailureEvent, FleetRun, FleetScenarioRun,
    FleetSpec, FleetTenantSpec, HopModel, RouterPolicy,
};
use tpu_repro::tpu_core::TpuConfig;
use tpu_repro::tpu_serve::tenant::ArrivalProcess;
use tpu_repro::tpu_serve::{BatchPolicy, TenantSpec};

/// Run one scenario run on `engine`.
fn run_on(engine: Engine, r: &FleetScenarioRun, cfg: &TpuConfig) -> FleetRun {
    reference::run(engine, &r.spec, &r.tenants, cfg)
}

fn assert_bit_identical(reference: &FleetRun, candidate: &FleetRun, what: &str) {
    assert_eq!(
        format!("{}", reference.report),
        format!("{}", candidate.report),
        "{what}: text report differs from the single-threaded engine"
    );
    assert_eq!(
        reference.report.to_json().to_string(),
        candidate.report.to_json().to_string(),
        "{what}: JSON report differs from the single-threaded engine"
    );
    assert_eq!(
        reference, candidate,
        "{what}: run structs differ from the single-threaded engine"
    );
}

/// The flagship shape: the `fleet-sweep` scenario's disjoint 10-host
/// cells, with its crash/recover schedule, at 1, 2, and 7 workers.
#[test]
fn fleet_sweep_sharded_replays_the_single_reference_bit_for_bit() {
    let cfg = TpuConfig::paper();
    let s = fleet_sweep(40).scale_requests(0.1);
    let reference = run_on(Engine::Single, &s.runs[0], &cfg);
    for workers in [1usize, 2, 7] {
        let sharded = run_on(Engine::Sharded { workers }, &s.runs[0], &cfg);
        assert_bit_identical(&reference, &sharded, &format!("{workers} workers"));
    }
}

/// A hand-built fleet where spread placement *merges* cells: tenants
/// 0/1/2 claim three disjoint 3-host cells, then tenant 3's six
/// replicas bridge the first two — leaving two components of uneven
/// weight, mixed arrival shapes, and failures in both.
#[test]
fn bridged_cells_with_failures_and_mixed_tenants_match_the_reference() {
    let cfg = TpuConfig::paper();
    let spec = FleetSpec::new(9, 2, 7)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(vec![
            FailureEvent::crash(0.8, 1),
            FailureEvent::crash(1.0, 7),
            FailureEvent::recover(2.5, 1),
            FailureEvent::recover(3.0, 7),
        ]);
    let tenants = vec![
        FleetTenantSpec::new(
            TenantSpec::new(
                "MLP0",
                ArrivalProcess::Poisson {
                    rate_rps: 400_000.0,
                },
                BatchPolicy::Timeout {
                    max_batch: 200,
                    t_max_ms: 2.0,
                },
                7.0,
                3_000,
            ),
            3,
        ),
        FleetTenantSpec::new(
            TenantSpec::new(
                "LSTM0",
                ArrivalProcess::Bursty {
                    rate_rps: 20_000.0,
                    burst_factor: 3.0,
                    period_ms: 5.0,
                    duty: 0.25,
                },
                BatchPolicy::SloAdaptive {
                    max_batch: 64,
                    slo_ms: 50.0,
                    margin_ms: 5.0,
                },
                50.0,
                400,
            )
            .named("LSTM0-cellB"),
            3,
        ),
        FleetTenantSpec::new(
            TenantSpec::new(
                "CNN0",
                ArrivalProcess::Poisson { rate_rps: 4_000.0 },
                BatchPolicy::Fixed { batch: 8 },
                30.0,
                200,
            ),
            3,
        ),
        FleetTenantSpec::new(
            TenantSpec::new(
                "MLP1",
                ArrivalProcess::Poisson {
                    rate_rps: 300_000.0,
                },
                BatchPolicy::Timeout {
                    max_batch: 200,
                    t_max_ms: 2.0,
                },
                7.0,
                2_000,
            )
            .named("MLP1-bridge"),
            6,
        ),
    ];
    let reference = reference::run(Engine::Single, &spec, &tenants, &cfg);
    for workers in [2usize, 5] {
        let sharded = reference::run(Engine::Sharded { workers }, &spec, &tenants, &cfg);
        assert_bit_identical(&reference, &sharded, &format!("{workers} workers"));
    }
}

/// Edge specs under `Engine::Sharded`: an autoscaled spec falls back
/// to the single-threaded engine, and a single-component spec runs as
/// one shard — same bytes, no panic.
#[test]
fn ineligible_specs_fall_back_to_the_reference() {
    let cfg = TpuConfig::paper();
    let s = scenario_by_name("diurnal-autoscale")
        .expect("scenario exists")
        .scale_requests(0.05);
    let r = &s.runs[0];
    let reference = run_on(Engine::Single, r, &cfg);
    let forced = run_on(Engine::Sharded { workers: 4 }, r, &cfg);
    assert_bit_identical(&reference, &forced, "autoscaled spec");

    let one = scenario_by_name("fleet-steady")
        .expect("scenario exists")
        .scale_requests(0.05);
    let r = &one.runs[0];
    let reference = run_on(Engine::Single, r, &cfg);
    let forced = run_on(Engine::Sharded { workers: 4 }, r, &cfg);
    assert_bit_identical(&reference, &forced, "single-component spec");
}

/// The swap-affinity warm-set index must route identically to the
/// O(replicas) scan it replaced: both colocate scenarios, which
/// exercise `RouterPolicy::SwapAware` end to end, replay bit for bit on
/// the baseline engine's scan router.
#[test]
fn swap_affinity_warm_index_matches_the_scan_router_bit_for_bit() {
    let cfg = TpuConfig::paper();
    for name in ["colocate-interference", "colocate-vs-dedicated"] {
        let s = scenario_by_name(name)
            .expect("scenario exists")
            .scale_requests(0.2);
        for (r, (label, indexed)) in s.runs.iter().zip(s.execute(&cfg)) {
            assert_eq!(r.label, label);
            let scanned = run_on(Engine::Baseline, r, &cfg);
            assert_bit_identical(
                &scanned,
                &indexed,
                &format!("{name}/{label} scan vs warm index"),
            );
        }
    }
}

/// The 1000-host `fleet-sweep` (100 independent cells, crash/recover
/// schedule) at full scale, single-threaded against sharded over
/// every available core. Too slow for a debug build; run with
/// `cargo test --release --test sharded_engine -- --ignored`.
#[test]
#[ignore]
fn fleet_sweep_1000_hosts_sharded_matches_single() {
    let cfg = TpuConfig::paper();
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    for r in &fleet_sweep(1000).runs {
        let single = run_on(Engine::Single, r, &cfg);
        let sharded = run_on(Engine::Sharded { workers }, r, &cfg);
        let what = format!("fleet-sweep 1000 hosts/{}, {workers} workers", r.label);
        assert_bit_identical(&single, &sharded, &what);
    }
}

/// The 1000-host `rack-outage` fleet (125 cells replaying the seeded
/// correlated rack/domain outage schedule with retries, budgets, and
/// hedging live) at 0.02× requests, single-threaded against 3 and 8
/// workers. Too slow for a debug build; run with
/// `cargo test --release --test sharded_engine -- --ignored`.
#[test]
#[ignore]
fn rack_outage_1000_hosts_sharded_matches_single() {
    let cfg = TpuConfig::paper();
    let s = rack_outage(1000).scale_requests(0.02);
    for r in &s.runs {
        let single = run_on(Engine::Single, r, &cfg);
        for workers in [3usize, 8] {
            let sharded = run_on(Engine::Sharded { workers }, r, &cfg);
            let what = format!("rack-outage 1000 hosts/{}, {workers} workers", r.label);
            assert_bit_identical(&single, &sharded, &what);
        }
    }
}
