//! `tpu_cluster` — run named fleet-level serving scenarios (replication,
//! routing, autoscaling, failure injection) and report per-tenant tails,
//! SLO attainment, per-host utilization, and replica timelines. Any
//! scenario's arrival streams can be recorded to a versioned `tpu-trace`
//! file and replayed — through this CLI or through `tpu_serve` —
//! bit-identically.
//!
//! ```text
//! tpu_cluster list
//! tpu_cluster run <scenario> [--seed N] [--requests-scale F] [--json] [--trace FILE] [--hosts N]
//! tpu_cluster run --all [--json]
//! tpu_cluster monitor <scenario> [--json] [--incidents-out FILE] [--svg-timeline FILE]
//! tpu_cluster analyze <scenario>|--input LOG [--diff] [--runs N] [--json]
//! tpu_cluster place <scenario> [--run LABEL] [--seed N] [--requests-scale F] [--json]
//! tpu_cluster trace record <scenario> --out FILE [--run LABEL] [--seed N] [--requests-scale F]
//! tpu_cluster trace import --csv FILE --out FILE [--source LABEL]
//! ```
//!
//! `list`, `run`, `analyze` and `trace` are the shared scenario driver,
//! `tpu_harness::cli::Cli`, over `tpu_cluster::FleetScenario`; `tpu_serve`
//! runs the same driver over single-host scenarios. This file holds only
//! what is this binary's own: `run --hosts N`, which rebuilds
//! `fleet-sweep` or `rack-outage` at N hosts, and the `monitor` and
//! `place` subcommands, which parse their flags with the driver's
//! parser. `monitor` runs one scenario with the streaming health monitor
//! attached and prints its incident timeline. `place` prints the
//! placement plan a scenario's runs would start from — which host each
//! replica lands on, per-host weight-memory fill and expected load —
//! without simulating. `analyze` decomposes per-request latency into
//! queue / swap-stall / service phases; `trace import` maps an external
//! `timestamp,tenant` CSV into `tpu-trace` v1.
//!
//! Exit codes: 0 success, 1 unknown scenario or bad trace, 2 usage.

use std::process::ExitCode;
use tpu_cluster::{plan_placement, FleetScenario, RACK_OUTAGE_DEFAULT_HOSTS};
use tpu_core::TpuConfig;
use tpu_harness::cli::{set, Cli, HostsFlag, SCENARIO_FLAGS};
use tpu_harness::telemetry;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tpu_cluster list\n       tpu_cluster run <scenario>|--all \
         [--seed N] [--requests-scale F] [--json] [--trace FILE] [--engine-stats]\n           \
         [--hosts N (fleet-sweep, rack-outage)] [--chrome-trace FILE] [--metrics-out FILE]\n           \
         [--metrics-interval MS] [--svg FILE] [--request-log FILE]\n           \
         [--monitor] [--incidents-out FILE] [--monitor-interval MS]\n       \
         tpu_cluster monitor <scenario> [--seed N] [--requests-scale F] [--json]\n           \
         [--monitor-interval MS] [--incidents-out FILE] [--svg-timeline FILE]\n           \
         [--svg-heatmap FILE]\n       \
         tpu_cluster analyze <scenario>|--input LOG [--run LABEL] [--seed N] \
         [--requests-scale F]\n           \
         [--json] [--diff] [--runs N] [--window MS]\n           \
         [--svg-breakdown FILE] [--svg-cdf FILE] [--svg-tail FILE]\n       \
         tpu_cluster place <scenario> [--run LABEL] [--seed N] [--requests-scale F] [--json]\n       \
         tpu_cluster trace record <scenario> --out FILE [--run LABEL] \
         [--seed N] [--requests-scale F]\n       \
         tpu_cluster trace import --csv FILE --out FILE [--source LABEL]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli {
        bin: "tpu_cluster",
        usage,
        hosts: Some(HostsFlag {
            min: RACK_OUTAGE_DEFAULT_HOSTS,
            apply: with_hosts,
        }),
    };
    let done = match args.first().map(String::as_str) {
        Some("monitor") => monitor_command(&cli, &args[1..]),
        Some("place") => place_command(&cli, &args[1..]),
        _ => return cli.main(&args),
    };
    done.err().unwrap_or(ExitCode::SUCCESS)
}

/// `run --hosts N`: rebuild fleet-sweep (N >= 20) or rack-outage
/// (N >= 8) at N hosts; any other use is misuse.
fn with_hosts(scenarios: Vec<FleetScenario>, hosts: usize) -> Result<Vec<FleetScenario>, ExitCode> {
    match scenarios.as_slice() {
        [s] if s.name == "fleet-sweep" && hosts >= 20 => Ok(vec![tpu_cluster::fleet_sweep(hosts)]),
        [s] if s.name == "rack-outage" && hosts >= RACK_OUTAGE_DEFAULT_HOSTS => {
            Ok(vec![tpu_cluster::rack_outage(hosts)])
        }
        _ => {
            eprintln!(
                "tpu_cluster: --hosts re-parameterizes fleet-sweep (N >= 20) or \
                 rack-outage (N >= 8) only"
            );
            Err(usage())
        }
    }
}

/// `monitor`: run one scenario with the streaming health monitor
/// attached and print its incident timeline (text, or `tpu-incidents`
/// JSON with `--json`), optionally writing the report and the
/// timeline / fleet-heatmap SVGs.
fn monitor_command(cli: &Cli<FleetScenario>, args: &[String]) -> Result<(), ExitCode> {
    let (mut svg_timeline, mut svg_heatmap) = (None, None);
    let flags = [
        "--seed",
        "--requests-scale",
        "--json",
        "--incidents-out",
        "--monitor-interval",
    ];
    let mut c = cli.parse(args, &flags, |flag, it| match flag {
        "--svg-timeline" => set(&mut svg_timeline, it.next().cloned()),
        "--svg-heatmap" => set(&mut svg_heatmap, it.next().cloned()),
        _ => false,
    })?;
    c.tel.monitor = true;
    let s = cli.scenario(&c)?;
    let labels: Vec<&str> = s.runs.iter().map(|r| r.label.as_str()).collect();
    c.tel
        .validate_artifact_paths(&labels)
        .map_err(|e| cli.fail(&e))?;

    let cfg = TpuConfig::paper();
    let mut tels = c.tel.for_runs(s.runs.len());
    c.tel.attach_monitors(&mut tels, s.topology);
    s.execute_telemetry(&cfg, &mut tels);
    let multi = labels.len() > 1;
    println!("== {} — {}", s.name, s.description);
    for (label, t) in labels.iter().zip(&mut tels) {
        let Some(mon) = telemetry::take_monitor(t) else {
            continue;
        };
        let report = mon.report();
        println!("\n-- {label}");
        if c.json {
            println!("{}", serde_json::to_string_pretty(&report.to_json()));
        } else {
            print!("{}", report.render_text());
        }
        if let Some(base) = c.tel.incidents_out.as_deref() {
            let p = telemetry::write_incidents(base, label, multi, &report)
                .map_err(|e| cli.fail(&e))?;
            eprintln!("telemetry: wrote {p}");
        }
        if let Some(base) = &svg_timeline {
            let path = telemetry::artifact_path(base, label, multi);
            let svg = tpu_monitor::timeline_svg(&report);
            write_svg(cli, &path, svg, "no incidents")?;
        }
        if let Some(base) = &svg_heatmap {
            let path = telemetry::artifact_path(base, label, multi);
            let svg = tpu_monitor::heatmap_svg(mon.history());
            write_svg(cli, &path, svg, "no history rows")?;
        }
    }
    println!();
    Ok(())
}

/// Write one `monitor` SVG, or say why there was nothing to draw.
fn write_svg(
    cli: &Cli<FleetScenario>,
    path: &str,
    svg: Result<Option<String>, tpu_plot::PlotError>,
    empty: &str,
) -> Result<(), ExitCode> {
    match svg.map_err(|e| cli.fail(&format!("{path}: {e}")))? {
        Some(svg) => {
            std::fs::write(path, svg).map_err(|e| cli.fail(&format!("{path}: {e}")))?;
            eprintln!("telemetry: wrote {path}");
        }
        None => eprintln!("telemetry: {path}: {empty}, nothing to draw"),
    }
    Ok(())
}

/// `place`: print the plan each run of a scenario would start from,
/// without simulating.
fn place_command(cli: &Cli<FleetScenario>, args: &[String]) -> Result<(), ExitCode> {
    let c = cli.parse(args, SCENARIO_FLAGS, |_, _| false)?;
    let s = cli.scenario(&c)?;
    let cfg = TpuConfig::paper();
    println!("== {} — {}", s.name, s.description);
    for r in &s.runs {
        if c.run.as_deref().is_some_and(|l| l != r.label) {
            continue;
        }
        let plan = plan_placement(&r.spec, &r.tenants, &cfg);
        println!("\n-- {}", r.label);
        if c.json {
            println!("{}", serde_json::to_string_pretty(&plan.to_json()));
        } else {
            print!("{plan}");
        }
    }
    println!();
    Ok(())
}
