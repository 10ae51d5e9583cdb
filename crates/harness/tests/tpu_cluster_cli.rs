//! End-to-end tests of the `tpu_cluster` binary: scenario listing,
//! seeded runs, JSON output, trace record/replay (including replay
//! through `tpu_serve`), and exit codes for bad input. The error-path
//! tests run on both binaries, which share one scenario driver.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpu_cluster"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn run_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpu_serve"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs one binary with the given arguments.
type Exec = fn(&[&str]) -> Output;

/// Both binaries, by name, with a multi-run scenario of each and one of
/// its run labels.
const BINS: [(&str, Exec, &str, &str); 2] = [
    ("tpu_serve", run_serve, "mlp0-burst", "steady"),
    ("tpu_cluster", run, "trace-replay", "replay"),
];

/// A per-test temp path that cleans up on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("tpu_cluster_cli_{}_{name}", std::process::id()));
        TempFile(path)
    }
    fn as_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn list_names_every_scenario() {
    let out = run(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "fleet-steady",
        "diurnal-autoscale",
        "trace-replay",
        "host-failover",
        "router-shootout",
        "straggler-tail",
        "colocate-interference",
        "colocate-vs-dedicated",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn place_prints_the_plan_without_simulating() {
    let out = run(&["place", "colocate-vs-dedicated"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "-- dedicated",
        "-- colocated",
        "weight MB",
        "exp. load",
        "MLP0",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    assert!(
        !stdout.contains("p99"),
        "place must not simulate or print a report:\n{stdout}"
    );

    // --run selects one label; --json dumps the machine format.
    let json = run(&[
        "place",
        "colocate-vs-dedicated",
        "--run",
        "colocated",
        "--json",
    ]);
    assert!(json.status.success());
    let js = String::from_utf8_lossy(&json.stdout);
    assert!(js.contains("\"assignments\""), "{js}");
    assert!(js.contains("\"expected_load\""), "{js}");
    assert!(!js.contains("-- dedicated"), "{js}");

    let bad = run(&["place", "nope"]);
    assert_eq!(bad.status.code(), Some(1));
    let bad_run = run(&["place", "fleet-steady", "--run", "nope"]);
    assert_eq!(bad_run.status.code(), Some(1));
}

#[test]
fn colocated_scenario_reports_swaps() {
    let out = run(&["run", "colocate-vs-dedicated", "--requests-scale", "0.05"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["co-loc", "resident MB", "swap/req ms"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn csv_import_produces_a_replayable_tpu_trace() {
    let csv = TempFile::new("ext.csv");
    let trace = TempFile::new("ext.trace.json");
    // Cover every fleet-steady tenant so the import replays through
    // `run --trace` (replay caps each tenant at its recorded length).
    std::fs::write(
        csv.0.as_path(),
        "timestamp,tenant\n0.5,MLP0\n0.6,LSTM0\n0.75,CNN0\n1.5,MLP0\n2.0,LSTM0\n2.5,CNN0\n",
    )
    .expect("csv writes");
    let out = run(&[
        "trace",
        "import",
        "--csv",
        csv.as_str(),
        "--out",
        trace.as_str(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("imported 6 arrivals across 3 tenants"),
        "{stdout}"
    );

    // The emitted file is tpu-trace v1 and drives a replay run.
    let body = std::fs::read_to_string(&trace.0).expect("trace exists");
    assert!(body.contains("\"format\":\"tpu-trace\""), "{body}");
    let replay = run(&[
        "run",
        "fleet-steady",
        "--requests-scale",
        "0.0001",
        "--trace",
        trace.as_str(),
    ]);
    assert!(
        replay.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&replay.stderr)
    );

    // And the serve CLI imports the identical file from the same CSV.
    let trace2 = TempFile::new("ext2.trace.json");
    let out2 = run_serve(&[
        "trace",
        "import",
        "--csv",
        csv.as_str(),
        "--out",
        trace2.as_str(),
        "--source",
        "csv:shared",
    ]);
    assert!(out2.status.success());
    let a = std::fs::read_to_string(&trace.0).unwrap();
    let b = std::fs::read_to_string(&trace2.0).unwrap();
    // Identical apart from the provenance label.
    assert_eq!(a.replace(&format!("csv:{}", csv.as_str()), "csv:shared"), b);

    let bad = run(&[
        "trace",
        "import",
        "--csv",
        "/nonexistent.csv",
        "--out",
        "/tmp/x",
    ]);
    assert_eq!(bad.status.code(), Some(1));
    let usage = run(&["trace", "import", "--csv", csv.as_str()]);
    assert_eq!(
        usage.status.code(),
        Some(2),
        "missing --out is a usage error"
    );
}

#[test]
fn failover_run_reports_the_crash_and_recovery() {
    let out = run(&["run", "host-failover", "--requests-scale", "0.1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("host-failover"), "{stdout}");
    assert!(stdout.contains("replica timeline"), "{stdout}");
    assert!(stdout.contains("MLP0"), "{stdout}");
}

#[test]
fn json_output_is_json_and_seed_is_respected() {
    let args = ["run", "fleet-steady", "--requests-scale", "0.02", "--json"];
    let a = run(&args);
    let b = run(&args);
    assert!(a.status.success());
    let ja = String::from_utf8_lossy(&a.stdout);
    assert!(ja.contains("\"replica_timeline\""), "{ja}");
    assert!(ja.contains("\"slo_attainment\""), "{ja}");
    assert_eq!(
        ja,
        String::from_utf8_lossy(&b.stdout),
        "same seed, same JSON"
    );

    let other = run(&[
        "run",
        "fleet-steady",
        "--requests-scale",
        "0.02",
        "--json",
        "--seed",
        "9",
    ]);
    assert_ne!(
        ja,
        String::from_utf8_lossy(&other.stdout),
        "a different seed must change the report"
    );
}

#[test]
fn recorded_trace_replays_bit_identically() {
    let trace = TempFile::new("fleet_steady.trace.json");
    let rec = run(&[
        "trace",
        "record",
        "fleet-steady",
        "--requests-scale",
        "0.02",
        "--out",
        trace.as_str(),
    ]);
    assert!(
        rec.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&rec.stderr)
    );
    assert!(String::from_utf8_lossy(&rec.stdout).contains("recorded"));

    let synthetic = run(&["run", "fleet-steady", "--requests-scale", "0.02", "--json"]);
    let replay = run(&[
        "run",
        "fleet-steady",
        "--requests-scale",
        "0.02",
        "--json",
        "--trace",
        trace.as_str(),
    ]);
    assert!(synthetic.status.success() && replay.status.success());
    assert_eq!(
        String::from_utf8_lossy(&synthetic.stdout),
        String::from_utf8_lossy(&replay.stdout),
        "replaying the recorded streams must reproduce the synthetic report"
    );
}

#[test]
fn a_cluster_trace_replays_through_tpu_serve() {
    // Record the fleet scenario's streams, then feed MLP0's recording
    // into the single-host simulator: the same trace file drives both.
    let trace = TempFile::new("cross.trace.json");
    let rec = run(&[
        "trace",
        "record",
        "fleet-steady",
        "--requests-scale",
        "0.01",
        "--out",
        trace.as_str(),
    ]);
    assert!(rec.status.success());

    let args = ["run", "mlp0-burst", "--json", "--trace", trace.as_str()];
    let a = run_serve(&args);
    assert!(
        a.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&a.stderr)
    );
    let b = run_serve(&args);
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "trace-driven runs are deterministic"
    );
    // Both runs of the scenario replay the same 600-request recording.
    assert!(
        String::from_utf8_lossy(&a.stdout).contains("\"requests\": 600"),
        "requests pinned to the trace length:\n{}",
        String::from_utf8_lossy(&a.stdout)
    );
}

#[test]
fn missing_trace_file_fails_with_exit_one() {
    let out = run(&[
        "run",
        "fleet-steady",
        "--trace",
        "/nonexistent/nope.trace.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read trace"));
}

#[test]
fn trace_missing_a_scenario_tenant_fails_with_exit_one() {
    // fleet-steady's trace carries MLP0/LSTM0/CNN0; mixed-tenants (via
    // tpu_serve) also needs MLP1, LSTM1, CNN1 — a friendly error, not a
    // panic.
    let trace = TempFile::new("partial.trace.json");
    let rec = run(&[
        "trace",
        "record",
        "fleet-steady",
        "--requests-scale",
        "0.01",
        "--out",
        trace.as_str(),
    ]);
    assert!(rec.status.success());
    let out = run_serve(&["run", "mixed-tenants", "--trace", trace.as_str()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("has no tenant"));
}

#[test]
fn unknown_record_run_label_fails_with_exit_one() {
    for (bin, exec, scenario, _) in BINS {
        let out = exec(&[
            "trace",
            "record",
            scenario,
            "--run",
            "typo",
            "--out",
            "/tmp/should_not_exist.trace.json",
        ]);
        assert_eq!(out.status.code(), Some(1), "{bin}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("has no run"),
            "{bin}"
        );
    }
}

#[test]
fn unknown_scenario_fails_with_exit_one() {
    for (bin, exec, _, _) in BINS {
        let out = exec(&["run", "warehouse-scale"]);
        assert_eq!(out.status.code(), Some(1), "{bin}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown scenario"),
            "{bin}"
        );
    }
}

#[test]
fn missing_arguments_fail_with_usage() {
    for (bin, exec, _, _) in BINS {
        for args in [&[][..], &["run"][..], &["run", "--seed", "x"][..]] {
            let out = exec(args);
            assert_eq!(out.status.code(), Some(2), "{bin} args {args:?}");
        }
    }
}

/// Non-finite numbers are usage errors on every real-valued flag. A
/// `--requests-scale inf` once asked `trace record` for `usize::MAX`
/// arrivals per tenant, and `analyze --window inf` once fell back to
/// the default window without a word.
#[test]
fn non_finite_numbers_are_usage_errors() {
    for (bin, exec, scenario, run_label) in BINS {
        let out_path = TempFile::new(&format!("{bin}_inf.trace.json"));
        for args in [
            &[
                "trace",
                "record",
                scenario,
                "--requests-scale",
                "inf",
                "--out",
                out_path.as_str(),
            ][..],
            &[
                "trace",
                "record",
                scenario,
                "--requests-scale",
                "NaN",
                "--out",
                out_path.as_str(),
            ][..],
            &[
                "analyze",
                scenario,
                "--run",
                run_label,
                "--requests-scale",
                "0.02",
                "--window",
                "inf",
            ][..],
            &[
                "analyze",
                scenario,
                "--requests-scale",
                "0.02",
                "--window",
                "-inf",
            ][..],
        ] {
            let out = exec(args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.starts_with(&format!("usage: {bin} list")),
                "{bin} {args:?}: {err}"
            );
            assert!(out.stdout.is_empty(), "{bin} {args:?}");
        }
        assert!(!out_path.0.exists(), "{bin}: no trace is written");
    }
}

/// `--engine-stats` prints wall-clock / events / events-per-sec on
/// *stderr* and leaves stdout byte-identical, so golden outputs (text
/// or JSON) never see it.
fn assert_engine_stats_on_stderr_only(bin: &str, exec: Exec, args: &[&str]) {
    let plain = exec(args);
    let stats = exec(&[args, &["--engine-stats"][..]].concat());
    assert!(plain.status.success() && stats.status.success(), "{bin}");
    assert_eq!(plain.stdout, stats.stdout, "{bin}: stdout must not change");
    assert!(plain.stderr.is_empty(), "{bin}");
    let err = String::from_utf8_lossy(&stats.stderr);
    let scenario = args[1];
    assert!(
        err.contains(&format!("engine-stats: {scenario}:"))
            && err.contains("events=")
            && err.contains("wall_ms=")
            && err.contains("events_per_sec="),
        "{bin} stderr: {err}"
    );
}

#[test]
fn engine_stats_go_to_stderr_and_leave_stdout_untouched() {
    assert_engine_stats_on_stderr_only(
        "tpu_cluster",
        run,
        &["run", "fleet-steady", "--requests-scale", "0.02"],
    );
}

#[test]
fn serve_engine_stats_go_to_stderr_and_leave_stdout_untouched() {
    assert_engine_stats_on_stderr_only(
        "tpu_serve",
        run_serve,
        &["run", "mlp0-burst", "--requests-scale", "0.05", "--json"],
    );
}
