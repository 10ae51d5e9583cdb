//! Byte pins of the `tpu_serve` and `tpu_cluster` command lines.
//!
//! Each group runs a fixed sequence of commands in a fresh temp dir and
//! records, per command, the exit code and FNV-1a digests of stdout and
//! stderr, then the digest of every file the group left in the dir.
//! The temp dir is written as `{dir}` in arguments and normalised back
//! out of both streams. The only line dropped is the `engine-stats:`
//! summary, which reports wall time. Any change to a report, an error
//! message, an exit code, an artifact name or an artifact byte moves a
//! digest here.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Stream text with the temp dir replaced by `{dir}` and the wall-time
/// `engine-stats:` summary line dropped.
fn normalise(raw: &[u8], dir: &str) -> String {
    String::from_utf8_lossy(raw)
        .replace(dir, "{dir}")
        .split_inclusive('\n')
        .filter(|l| !(l.starts_with("engine-stats: ") && l.contains(" wall_ms=")))
        .collect()
}

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One group: input files to write into the dir first, then commands as
/// `(binary, args)`; `{dir}` in an argument names the group's dir.
struct Group {
    name: &'static str,
    inputs: &'static [(&'static str, &'static str)],
    commands: &'static [(&'static str, &'static str)],
}

fn binary(name: &str) -> &'static str {
    match name {
        "tpu_serve" => env!("CARGO_BIN_EXE_tpu_serve"),
        "tpu_cluster" => env!("CARGO_BIN_EXE_tpu_cluster"),
        other => panic!("unknown binary {other}"),
    }
}

fn digest_group(g: &Group) -> Vec<String> {
    let dir = TempDir(std::env::temp_dir().join(format!(
        "tpu_cli_bytes_{}_{}",
        std::process::id(),
        g.name
    )));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).expect("temp dir");
    let d = dir.0.to_str().expect("utf-8 temp dir").to_string();
    for (name, body) in g.inputs {
        std::fs::write(dir.0.join(name), body).expect("input writes");
    }
    let mut lines = vec![format!("[{}]", g.name)];
    for (bin, args) in g.commands {
        let argv: Vec<String> = args
            .split_whitespace()
            .map(|a| a.replace("{dir}", &d))
            .collect();
        let out = Command::new(binary(bin))
            .args(&argv)
            .output()
            .expect("binary runs");
        lines.push(format!(
            "{bin} {args}: exit={} out={:016x} err={:016x}",
            out.status.code().map_or("signal".into(), |c| c.to_string()),
            fnv1a(normalise(&out.stdout, &d).as_bytes()),
            fnv1a(normalise(&out.stderr, &d).as_bytes()),
        ));
    }
    let mut files: Vec<String> = std::fs::read_dir(&dir.0)
        .expect("dir lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| !g.inputs.iter().any(|(i, _)| i == n))
        .collect();
    files.sort();
    for f in files {
        let bytes = std::fs::read(Path::new(&dir.0).join(&f)).expect("file reads");
        lines.push(format!("  file {f} {:016x}", fnv1a(&bytes)));
    }
    lines
}

fn check(groups: &[Group], expected: &str) {
    let actual: Vec<String> = groups.iter().flat_map(digest_group).collect();
    let actual = actual.join("\n");
    if actual != expected.trim() {
        println!("{actual}");
    }
    assert_eq!(
        actual,
        expected.trim(),
        "CLI bytes moved (actual printed above)"
    );
}

const CSV: &str =
    "timestamp,tenant\n0.5,MLP0\n0.6,LSTM0\n0.75,CNN0\n1.5,MLP0\n2.0,LSTM0\n2.5,CNN0\n";

const SERVE: &[Group] = &[
    Group {
        name: "serve-run",
        inputs: &[],
        commands: &[
            ("tpu_serve", "list"),
            ("tpu_serve", "run mixed-tenants --seed 7 --requests-scale 0.05"),
            ("tpu_serve", "run mlp0-burst --seed 7 --requests-scale 0.05 --json"),
            ("tpu_serve", "run --all --json --requests-scale 0.02"),
        ],
    },
    Group {
        name: "serve-trace",
        inputs: &[("ext.csv", CSV)],
        commands: &[
            (
                "tpu_serve",
                "trace record mixed-tenants --seed 7 --requests-scale 0.05 --out {dir}/mixed.trace.json",
            ),
            (
                "tpu_serve",
                "run mixed-tenants --seed 7 --requests-scale 0.05 --json --trace {dir}/mixed.trace.json",
            ),
            (
                "tpu_serve",
                "trace record fixed-vs-timeout --run timeout-2ms --requests-scale 0.05 --out {dir}/fvt.trace.json",
            ),
            (
                "tpu_serve",
                "trace import --csv {dir}/ext.csv --out {dir}/ext.trace.json --source csv:shared",
            ),
            (
                "tpu_cluster",
                "run fleet-steady --trace {dir}/fvt.trace.json",
            ),
        ],
    },
    Group {
        name: "serve-analyze",
        inputs: &[],
        commands: &[
            ("tpu_serve", "analyze mixed-tenants --seed 7 --requests-scale 0.05"),
            (
                "tpu_serve",
                "analyze fixed-vs-timeout --requests-scale 0.05 --json --run slo-adaptive --window 2",
            ),
            ("tpu_serve", "analyze fixed-vs-timeout --requests-scale 0.05 --diff"),
            ("tpu_serve", "analyze mlp0-burst --requests-scale 0.02 --diff --runs 2 --json"),
            (
                "tpu_serve",
                "run scale-out --requests-scale 0.05 --request-log {dir}/req.json",
            ),
            (
                "tpu_serve",
                "analyze --input {dir}/req.dies-2.json --svg-breakdown {dir}/b.svg --svg-cdf {dir}/c.svg --svg-tail {dir}/t.svg",
            ),
        ],
    },
    Group {
        name: "serve-telemetry",
        inputs: &[],
        commands: &[
            (
                "tpu_serve",
                "run fixed-vs-timeout --seed 7 --requests-scale 0.05 --engine-stats --chrome-trace {dir}/trace.json --metrics-out {dir}/metrics.csv --metrics-interval 0.5 --svg {dir}/util.svg --request-log {dir}/requests.json --incidents-out {dir}/incidents.json --monitor-interval 0.25",
            ),
            (
                "tpu_serve",
                "run mlp0-burst --requests-scale 0.05 --json --monitor --metrics-out {dir}/m.json",
            ),
        ],
    },
    Group {
        name: "serve-errors",
        inputs: &[],
        commands: &[
            ("tpu_serve", ""),
            ("tpu_serve", "bogus"),
            ("tpu_serve", "run"),
            ("tpu_serve", "run --seed x"),
            ("tpu_serve", "run mlp0-burst --requests-scale 0"),
            ("tpu_serve", "run mlp0-burst --requests-scale"),
            ("tpu_serve", "run mlp0-burst extra"),
            ("tpu_serve", "run warehouse-scale"),
            ("tpu_serve", "run mlp0-burst --trace /nonexistent/nope.trace.json"),
            ("tpu_serve", "run --all --chrome-trace {dir}/t.json"),
            ("tpu_serve", "run mlp0-burst --metrics-interval 0"),
            ("tpu_serve", "run mlp0-burst --metrics-interval inf"),
            ("tpu_serve", "run mlp0-burst --monitor-interval -1"),
            ("tpu_serve", "run mlp0-burst --monitor-interval"),
            ("tpu_serve", "run mlp0-burst --hosts 8"),
            ("tpu_serve", "run mlp0-burst --run steady"),
            ("tpu_serve", "run mlp0-burst --request-log /nonexistent/r.json"),
            ("tpu_serve", "trace"),
            ("tpu_serve", "trace record mlp0-burst"),
            ("tpu_serve", "trace record warehouse-scale --out {dir}/x.json"),
            ("tpu_serve", "trace record mlp0-burst --run typo --out {dir}/x.json"),
            ("tpu_serve", "trace record mlp0-burst --json --out {dir}/x.json"),
            ("tpu_serve", "trace import --csv {dir}/missing.csv --out {dir}/x.json"),
            ("tpu_serve", "trace import --csv {dir}/missing.csv"),
            ("tpu_serve", "analyze"),
            ("tpu_serve", "analyze warehouse-scale"),
            ("tpu_serve", "analyze mlp0-burst --input {dir}/r.json"),
            ("tpu_serve", "analyze --input {dir}/r.json --diff"),
            ("tpu_serve", "analyze mlp0-burst --run typo --requests-scale 0.02"),
            ("tpu_serve", "analyze mlp0-burst --window 0"),
            ("tpu_serve", "analyze mlp0-burst --runs 0"),
            ("tpu_serve", "analyze mixed-tenants --diff --requests-scale 0.02"),
            ("tpu_serve", "analyze --input /nonexistent/r.json"),
            ("tpu_serve", "monitor mlp0-burst"),
            ("tpu_serve", "place mlp0-burst"),
        ],
    },
];

const CLUSTER: &[Group] = &[
    Group {
        name: "cluster-run",
        inputs: &[],
        commands: &[
            ("tpu_cluster", "list"),
            ("tpu_cluster", "run fleet-steady --seed 7 --requests-scale 0.05"),
            ("tpu_cluster", "run host-failover --seed 7 --requests-scale 0.05 --json"),
            ("tpu_cluster", "run fleet-sweep --hosts 20 --requests-scale 0.05"),
            ("tpu_cluster", "run rack-outage --hosts 16 --requests-scale 0.05 --json"),
        ],
    },
    Group {
        name: "cluster-trace",
        inputs: &[("ext.csv", CSV)],
        commands: &[
            (
                "tpu_cluster",
                "trace record fleet-steady --seed 7 --requests-scale 0.05 --out {dir}/steady.trace.json",
            ),
            (
                "tpu_cluster",
                "run fleet-steady --seed 7 --requests-scale 0.05 --json --trace {dir}/steady.trace.json",
            ),
            (
                "tpu_serve",
                "run mlp0-burst --json --trace {dir}/steady.trace.json",
            ),
            (
                "tpu_serve",
                "run mixed-tenants --trace {dir}/steady.trace.json",
            ),
            (
                "tpu_cluster",
                "trace record trace-replay --run replay --requests-scale 0.05 --out {dir}/replay.trace.json",
            ),
            (
                "tpu_cluster",
                "trace import --csv {dir}/ext.csv --out {dir}/ext.trace.json --source csv:shared",
            ),
            (
                "tpu_cluster",
                "run fleet-steady --requests-scale 0.0001 --trace {dir}/ext.trace.json",
            ),
        ],
    },
    Group {
        name: "cluster-analyze",
        inputs: &[],
        commands: &[
            ("tpu_cluster", "analyze fleet-steady --seed 7 --requests-scale 0.05"),
            ("tpu_cluster", "analyze colocate-interference --requests-scale 0.05 --diff"),
            (
                "tpu_cluster",
                "analyze colocate-interference --requests-scale 0.05 --diff --runs 2 --json",
            ),
        ],
    },
    Group {
        name: "cluster-place-monitor",
        inputs: &[],
        commands: &[
            ("tpu_cluster", "place colocate-vs-dedicated"),
            (
                "tpu_cluster",
                "place colocate-vs-dedicated --run colocated --json --seed 7 --requests-scale 0.5",
            ),
            (
                "tpu_cluster",
                "monitor rack-outage --requests-scale 0.05 --incidents-out {dir}/outage.json --svg-timeline {dir}/timeline.svg --svg-heatmap {dir}/heatmap.svg",
            ),
            ("tpu_cluster", "monitor rack-outage --requests-scale 0.05 --json --seed 7"),
            (
                "tpu_cluster",
                "monitor fleet-steady --requests-scale 0.05 --monitor-interval 0.5 --svg-timeline {dir}/quiet.svg",
            ),
        ],
    },
    Group {
        name: "cluster-telemetry",
        inputs: &[],
        commands: &[
            (
                "tpu_cluster",
                "run colocate-interference --seed 7 --requests-scale 0.05 --engine-stats --chrome-trace {dir}/trace.json --metrics-out {dir}/metrics.json --svg {dir}/util.svg --request-log {dir}/requests.json --monitor --incidents-out {dir}/incidents.json",
            ),
            (
                "tpu_cluster",
                "run rack-outage --requests-scale 0.05 --monitor --metrics-out {dir}/outage.csv --metrics-interval 0.5",
            ),
        ],
    },
    Group {
        name: "cluster-errors",
        inputs: &[],
        commands: &[
            ("tpu_cluster", ""),
            ("tpu_cluster", "bogus"),
            ("tpu_cluster", "run"),
            ("tpu_cluster", "run --seed x"),
            ("tpu_cluster", "run fleet-steady --requests-scale -1"),
            ("tpu_cluster", "run warehouse-scale"),
            ("tpu_cluster", "run fleet-steady --trace /nonexistent/nope.trace.json"),
            ("tpu_cluster", "run --all --request-log {dir}/r.json"),
            ("tpu_cluster", "run fleet-steady --metrics-interval nan"),
            ("tpu_cluster", "run fleet-steady --monitor-interval 0"),
            ("tpu_cluster", "run fleet-steady --hosts 20"),
            ("tpu_cluster", "run fleet-sweep --hosts 10"),
            ("tpu_cluster", "run fleet-sweep --hosts 5"),
            ("tpu_cluster", "run fleet-sweep --hosts x"),
            ("tpu_cluster", "run --all --hosts 20"),
            ("tpu_cluster", "run warehouse-scale --hosts 20"),
            ("tpu_cluster", "run fleet-sweep --metrics-interval 0 --hosts 5"),
            ("tpu_cluster", "trace"),
            ("tpu_cluster", "trace record fleet-steady"),
            ("tpu_cluster", "trace record warehouse-scale --out {dir}/x.json"),
            ("tpu_cluster", "trace record trace-replay --run typo --out {dir}/x.json"),
            ("tpu_cluster", "trace record fleet-steady --trace {dir}/x.json --out {dir}/y.json"),
            ("tpu_cluster", "analyze"),
            ("tpu_cluster", "analyze warehouse-scale"),
            ("tpu_cluster", "analyze fleet-steady --window nan"),
            ("tpu_cluster", "analyze fleet-steady --diff --requests-scale 0.02"),
            ("tpu_cluster", "analyze fleet-steady --diff --svg-cdf {dir}/c.svg"),
            ("tpu_cluster", "place"),
            ("tpu_cluster", "place warehouse-scale"),
            ("tpu_cluster", "place fleet-steady --run typo"),
            ("tpu_cluster", "place fleet-steady --trace {dir}/x.json"),
            ("tpu_cluster", "monitor"),
            ("tpu_cluster", "monitor warehouse-scale"),
            ("tpu_cluster", "monitor fleet-steady --monitor-interval 0"),
            ("tpu_cluster", "monitor fleet-steady --chrome-trace {dir}/t.json"),
            ("tpu_cluster", "monitor fleet-steady --run steady"),
            ("tpu_cluster", "monitor fleet-steady --incidents-out /nonexistent/i.json"),
        ],
    },
];

#[test]
fn tpu_serve_bytes_are_pinned() {
    check(SERVE, EXPECTED_SERVE);
}

#[test]
fn tpu_cluster_bytes_are_pinned() {
    check(CLUSTER, EXPECTED_CLUSTER);
}

const EXPECTED_SERVE: &str = "
[serve-run]
tpu_serve list: exit=0 out=c840291aeb02e580 err=cbf29ce484222325
tpu_serve run mixed-tenants --seed 7 --requests-scale 0.05: exit=0 out=fb8a424518455825 err=cbf29ce484222325
tpu_serve run mlp0-burst --seed 7 --requests-scale 0.05 --json: exit=0 out=95699a86235e9dae err=cbf29ce484222325
tpu_serve run --all --json --requests-scale 0.02: exit=0 out=2d9af290decf60f6 err=cbf29ce484222325
[serve-trace]
tpu_serve trace record mixed-tenants --seed 7 --requests-scale 0.05 --out {dir}/mixed.trace.json: exit=0 out=5790119ac9ed31ef err=cbf29ce484222325
tpu_serve run mixed-tenants --seed 7 --requests-scale 0.05 --json --trace {dir}/mixed.trace.json: exit=0 out=025fac23ccf5c6e3 err=cbf29ce484222325
tpu_serve trace record fixed-vs-timeout --run timeout-2ms --requests-scale 0.05 --out {dir}/fvt.trace.json: exit=0 out=d77144e302eece86 err=cbf29ce484222325
tpu_serve trace import --csv {dir}/ext.csv --out {dir}/ext.trace.json --source csv:shared: exit=0 out=dcdac0007436b90d err=cbf29ce484222325
tpu_cluster run fleet-steady --trace {dir}/fvt.trace.json: exit=1 out=cbf29ce484222325 err=5ca466911ce680f1
  file ext.trace.json 156c9aadf5f9899a
  file fvt.trace.json e23e81c87f03565a
  file mixed.trace.json 8caa24c5b8a97899
[serve-analyze]
tpu_serve analyze mixed-tenants --seed 7 --requests-scale 0.05: exit=0 out=9bca01fc6e8f7d3e err=cbf29ce484222325
tpu_serve analyze fixed-vs-timeout --requests-scale 0.05 --json --run slo-adaptive --window 2: exit=0 out=3f7fbfd4dd5ef04f err=cbf29ce484222325
tpu_serve analyze fixed-vs-timeout --requests-scale 0.05 --diff: exit=0 out=7c118c91f4f20446 err=cbf29ce484222325
tpu_serve analyze mlp0-burst --requests-scale 0.02 --diff --runs 2 --json: exit=0 out=65cbb2fe76bc4437 err=cbf29ce484222325
tpu_serve run scale-out --requests-scale 0.05 --request-log {dir}/req.json: exit=0 out=8967aadcd07a507e err=9b748c59ccdf137e
tpu_serve analyze --input {dir}/req.dies-2.json --svg-breakdown {dir}/b.svg --svg-cdf {dir}/c.svg --svg-tail {dir}/t.svg: exit=0 out=8bb250b96429dada err=63330b54163b9125
  file b.svg e373e78c24ff3e3e
  file c.svg 3b4770d4696a3c4c
  file req.dies-1.json 105d8858ef9fe927
  file req.dies-2.json 549cf8c64cf7bd27
  file req.dies-4.json 6155da55d443cdcf
  file t.svg f432d85586b1fb48
[serve-telemetry]
tpu_serve run fixed-vs-timeout --seed 7 --requests-scale 0.05 --engine-stats --chrome-trace {dir}/trace.json --metrics-out {dir}/metrics.csv --metrics-interval 0.5 --svg {dir}/util.svg --request-log {dir}/requests.json --incidents-out {dir}/incidents.json --monitor-interval 0.25: exit=0 out=85d7f2d8243add3e err=ae4d70050587d5a1
tpu_serve run mlp0-burst --requests-scale 0.05 --json --monitor --metrics-out {dir}/m.json: exit=0 out=9a427ba153c193a1 err=44ea7b380301011c
  file incidents.fixed-200.json 840ea657db697288
  file incidents.slo-adaptive.json 24d988cb4ad32d3a
  file incidents.timeout-2ms.json 862e607eb44bcbb9
  file m.burst-4x.json 008e96edf6fd7c88
  file m.steady.json 3f9c7daeb3d369de
  file metrics.fixed-200.csv 66b4f81d4a0a6321
  file metrics.slo-adaptive.csv 48a0000ec37646c0
  file metrics.timeout-2ms.csv 1f6dd87b0391dece
  file requests.fixed-200.json f322ec820a6fdde7
  file requests.slo-adaptive.json dc990199b2974e6c
  file requests.timeout-2ms.json 6866faeae671c9bf
  file trace.fixed-200.json e82605b38f9df48c
  file trace.slo-adaptive.json e5bc72fa92111fe4
  file trace.timeout-2ms.json 622e07f54c112eba
  file util.fixed-200.svg 158c080766a6297e
  file util.slo-adaptive.svg 5dfb384d63ee7a7a
  file util.timeout-2ms.svg cdceaf1095986b4e
[serve-errors]
tpu_serve : exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve bogus: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run --seed x: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run mlp0-burst --requests-scale 0: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run mlp0-burst --requests-scale: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run mlp0-burst extra: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run warehouse-scale: exit=1 out=cbf29ce484222325 err=9c3ca9732ecec2e5
tpu_serve run mlp0-burst --trace /nonexistent/nope.trace.json: exit=1 out=cbf29ce484222325 err=605664ef13901c1d
tpu_serve run --all --chrome-trace {dir}/t.json: exit=2 out=cbf29ce484222325 err=ecc00fe1bffc1900
tpu_serve run mlp0-burst --metrics-interval 0: exit=2 out=cbf29ce484222325 err=fb01d5864a57da59
tpu_serve run mlp0-burst --metrics-interval inf: exit=2 out=cbf29ce484222325 err=10c063e71c9dbeb6
tpu_serve run mlp0-burst --monitor-interval -1: exit=2 out=cbf29ce484222325 err=ffe739add0177fa6
tpu_serve run mlp0-burst --monitor-interval: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run mlp0-burst --hosts 8: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run mlp0-burst --run steady: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve run mlp0-burst --request-log /nonexistent/r.json: exit=1 out=cbf29ce484222325 err=0e5ae04c50844063
tpu_serve trace: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve trace record mlp0-burst: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve trace record warehouse-scale --out {dir}/x.json: exit=1 out=cbf29ce484222325 err=9c3ca9732ecec2e5
tpu_serve trace record mlp0-burst --run typo --out {dir}/x.json: exit=1 out=cbf29ce484222325 err=1becd22f8d482a23
tpu_serve trace record mlp0-burst --json --out {dir}/x.json: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve trace import --csv {dir}/missing.csv --out {dir}/x.json: exit=1 out=cbf29ce484222325 err=86cfc2bf703dc92a
tpu_serve trace import --csv {dir}/missing.csv: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve analyze: exit=2 out=cbf29ce484222325 err=fc7464dd805cfaa1
tpu_serve analyze warehouse-scale: exit=1 out=cbf29ce484222325 err=9c3ca9732ecec2e5
tpu_serve analyze mlp0-burst --input {dir}/r.json: exit=2 out=cbf29ce484222325 err=fc7464dd805cfaa1
tpu_serve analyze --input {dir}/r.json --diff: exit=2 out=cbf29ce484222325 err=9e034e0ebde4cc7f
tpu_serve analyze mlp0-burst --run typo --requests-scale 0.02: exit=1 out=cbf29ce484222325 err=2ff98b66138ff050
tpu_serve analyze mlp0-burst --window 0: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve analyze mlp0-burst --runs 0: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve analyze mixed-tenants --diff --requests-scale 0.02: exit=1 out=cbf29ce484222325 err=101e7a3687c95a7b
tpu_serve analyze --input /nonexistent/r.json: exit=1 out=cbf29ce484222325 err=c4baa29963646ebe
tpu_serve monitor mlp0-burst: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
tpu_serve place mlp0-burst: exit=2 out=cbf29ce484222325 err=ce20717b3e61ce7c
";

const EXPECTED_CLUSTER: &str = "
[cluster-run]
tpu_cluster list: exit=0 out=e6bb477a5e96b047 err=cbf29ce484222325
tpu_cluster run fleet-steady --seed 7 --requests-scale 0.05: exit=0 out=fd039a433f38390e err=cbf29ce484222325
tpu_cluster run host-failover --seed 7 --requests-scale 0.05 --json: exit=0 out=edc13eb007b801d6 err=cbf29ce484222325
tpu_cluster run fleet-sweep --hosts 20 --requests-scale 0.05: exit=0 out=67472714b83c4307 err=cbf29ce484222325
tpu_cluster run rack-outage --hosts 16 --requests-scale 0.05 --json: exit=0 out=ad00839cab1e3be1 err=cbf29ce484222325
[cluster-trace]
tpu_cluster trace record fleet-steady --seed 7 --requests-scale 0.05 --out {dir}/steady.trace.json: exit=0 out=1ce368b590cfb23f err=cbf29ce484222325
tpu_cluster run fleet-steady --seed 7 --requests-scale 0.05 --json --trace {dir}/steady.trace.json: exit=0 out=ce62a3c715058fc2 err=cbf29ce484222325
tpu_serve run mlp0-burst --json --trace {dir}/steady.trace.json: exit=0 out=a8ebb4484b2533c5 err=cbf29ce484222325
tpu_serve run mixed-tenants --trace {dir}/steady.trace.json: exit=1 out=cbf29ce484222325 err=343b7643b1b256c2
tpu_cluster trace record trace-replay --run replay --requests-scale 0.05 --out {dir}/replay.trace.json: exit=0 out=7e2b2fffefaa60af err=cbf29ce484222325
tpu_cluster trace import --csv {dir}/ext.csv --out {dir}/ext.trace.json --source csv:shared: exit=0 out=dcdac0007436b90d err=cbf29ce484222325
tpu_cluster run fleet-steady --requests-scale 0.0001 --trace {dir}/ext.trace.json: exit=0 out=aef50e3ee6479251 err=cbf29ce484222325
  file ext.trace.json 156c9aadf5f9899a
  file replay.trace.json b9965314d66964dd
  file steady.trace.json 8793a6d5cd72409c
[cluster-analyze]
tpu_cluster analyze fleet-steady --seed 7 --requests-scale 0.05: exit=0 out=4799b0e1871005fc err=cbf29ce484222325
tpu_cluster analyze colocate-interference --requests-scale 0.05 --diff: exit=0 out=8ac026c6a90a72a8 err=cbf29ce484222325
tpu_cluster analyze colocate-interference --requests-scale 0.05 --diff --runs 2 --json: exit=0 out=2b77879a9648cb39 err=cbf29ce484222325
[cluster-place-monitor]
tpu_cluster place colocate-vs-dedicated: exit=0 out=aca2ecf6496fbc0c err=cbf29ce484222325
tpu_cluster place colocate-vs-dedicated --run colocated --json --seed 7 --requests-scale 0.5: exit=0 out=201f1301d19b8d09 err=cbf29ce484222325
tpu_cluster monitor rack-outage --requests-scale 0.05 --incidents-out {dir}/outage.json --svg-timeline {dir}/timeline.svg --svg-heatmap {dir}/heatmap.svg: exit=0 out=92b7582e1ea8b1f6 err=b58f7745ae058633
tpu_cluster monitor rack-outage --requests-scale 0.05 --json --seed 7: exit=0 out=a9c78cd07f616fba err=cbf29ce484222325
tpu_cluster monitor fleet-steady --requests-scale 0.05 --monitor-interval 0.5 --svg-timeline {dir}/quiet.svg: exit=0 out=722f59c9c6a9634c err=7f5ab878045e53fe
  file heatmap.svg 532c6ea6ebb640db
  file outage.json bab9d96546de5e04
  file timeline.svg d119253a9661d429
[cluster-telemetry]
tpu_cluster run colocate-interference --seed 7 --requests-scale 0.05 --engine-stats --chrome-trace {dir}/trace.json --metrics-out {dir}/metrics.json --svg {dir}/util.svg --request-log {dir}/requests.json --monitor --incidents-out {dir}/incidents.json: exit=0 out=bf6587450a7e8111 err=42f6d8175e3e1f7b
tpu_cluster run rack-outage --requests-scale 0.05 --monitor --metrics-out {dir}/outage.csv --metrics-interval 0.5: exit=0 out=db792c57c92661b9 err=39499e7fc89dbb58
  file incidents.least-outstanding.json 8f2ceff72a6021a4
  file incidents.swap-aware.json 8f2ceff72a6021a4
  file metrics.least-outstanding.json ecf23348f1823d8f
  file metrics.swap-aware.json d60b719dea4572a6
  file outage.csv cc78ee867b5b3d2e
  file requests.least-outstanding.json 4cb2ab6fa438b972
  file requests.swap-aware.json 93bc9d431a5eb4e6
  file trace.least-outstanding.json f262660646c96cf3
  file trace.swap-aware.json 8595c041d54c778d
  file util.least-outstanding.svg 3aac2d099461528e
  file util.swap-aware.svg 10e2226f79febfc4
[cluster-errors]
tpu_cluster : exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster bogus: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster run: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster run --seed x: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster run fleet-steady --requests-scale -1: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster run warehouse-scale: exit=1 out=cbf29ce484222325 err=f1c889a5a65d2da9
tpu_cluster run fleet-steady --trace /nonexistent/nope.trace.json: exit=1 out=cbf29ce484222325 err=6a599f4eaa3b574a
tpu_cluster run --all --request-log {dir}/r.json: exit=2 out=cbf29ce484222325 err=49d59c47b8211a37
tpu_cluster run fleet-steady --metrics-interval nan: exit=2 out=cbf29ce484222325 err=d4b98cca146f5a25
tpu_cluster run fleet-steady --monitor-interval 0: exit=2 out=cbf29ce484222325 err=566f03b62cbcb5d5
tpu_cluster run fleet-steady --hosts 20: exit=2 out=cbf29ce484222325 err=a9e44d452ed175ba
tpu_cluster run fleet-sweep --hosts 10: exit=2 out=cbf29ce484222325 err=a9e44d452ed175ba
tpu_cluster run fleet-sweep --hosts 5: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster run fleet-sweep --hosts x: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster run --all --hosts 20: exit=2 out=cbf29ce484222325 err=a9e44d452ed175ba
tpu_cluster run warehouse-scale --hosts 20: exit=1 out=cbf29ce484222325 err=f1c889a5a65d2da9
tpu_cluster run fleet-sweep --metrics-interval 0 --hosts 5: exit=2 out=cbf29ce484222325 err=70f5538b0f4f5a04
tpu_cluster trace: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster trace record fleet-steady: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster trace record warehouse-scale --out {dir}/x.json: exit=1 out=cbf29ce484222325 err=f1c889a5a65d2da9
tpu_cluster trace record trace-replay --run typo --out {dir}/x.json: exit=1 out=cbf29ce484222325 err=43543cde8d0305ce
tpu_cluster trace record fleet-steady --trace {dir}/x.json --out {dir}/y.json: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster analyze: exit=2 out=cbf29ce484222325 err=d42d4acbc4c36b98
tpu_cluster analyze warehouse-scale: exit=1 out=cbf29ce484222325 err=f1c889a5a65d2da9
tpu_cluster analyze fleet-steady --window nan: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster analyze fleet-steady --diff --requests-scale 0.02: exit=1 out=cbf29ce484222325 err=13db3e127b23988a
tpu_cluster analyze fleet-steady --diff --svg-cdf {dir}/c.svg: exit=1 out=cbf29ce484222325 err=ace07e9746f8388e
tpu_cluster place: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster place warehouse-scale: exit=1 out=cbf29ce484222325 err=f1c889a5a65d2da9
tpu_cluster place fleet-steady --run typo: exit=1 out=cbf29ce484222325 err=79d0a79ac459c174
tpu_cluster place fleet-steady --trace {dir}/x.json: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster monitor: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster monitor warehouse-scale: exit=1 out=cbf29ce484222325 err=f1c889a5a65d2da9
tpu_cluster monitor fleet-steady --monitor-interval 0: exit=2 out=cbf29ce484222325 err=566f03b62cbcb5d5
tpu_cluster monitor fleet-steady --chrome-trace {dir}/t.json: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster monitor fleet-steady --run steady: exit=2 out=cbf29ce484222325 err=84a4db34f5ce5dd6
tpu_cluster monitor fleet-steady --incidents-out /nonexistent/i.json: exit=1 out=cbf29ce484222325 err=2fc2d489f8c9d995
";
