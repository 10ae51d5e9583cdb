//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench record --workload NAME --seeds A-B
//! perfbench kernel
//! ```
//!
//! A run builds the workload from its seed, repeats its job for `S`
//! seconds, checks every output, and prints as its last stdout line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end metrics of
//! `BENCHMARK.json`; with `--trace 1` they are its per-layer metrics,
//! from a separate traced run whose spans are written next to the
//! executable. `record` stores reference output fingerprints for a seed
//! range in `perfbench/reference.json`; `kernel` runs the host-speed
//! kernel of [`calib`] once and prints its seconds. See
//! `perfbench/README.md`.

mod bench;
mod calib;
mod device;
mod fleet;
mod probes;
mod serve;
mod spans;
mod sys;

use bench::{Metrics, Tally, Workload};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The benchmark contract: workload and metric names, with units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Reference fingerprints: workload → seed → combined job fingerprint.
const REFERENCE_JSON: &str = include_str!("../reference.json");

const WORKLOADS: [&str; 4] = ["fleet-wide", "cells-observed", "serve-mix", "device-sweep"];

/// `(name, unit)` of the contract's `end_to_end` or `per_layer` list.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Value::Object(doc) = doc else {
        panic!("BENCHMARK.json is an object")
    };
    let Some(Value::Array(items)) = doc.get(section) else {
        panic!("BENCHMARK.json lists {section}")
    };
    items
        .iter()
        .map(|item| {
            let field = |k: &str| match item {
                Value::Object(o) => match o.get(k) {
                    Some(Value::String(s)) => s.clone(),
                    _ => panic!("{section} entry lacks {k}"),
                },
                _ => panic!("{section} entry is not an object"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Whether `name` is one of the contract's per-layer metrics.
pub fn declared_per_layer(name: &str) -> bool {
    declared("per_layer").iter().any(|(n, _)| n == name)
}

/// The stored reference fingerprint for `workload` at `seed`.
fn reference(workload: &str, seed: u64) -> Option<u64> {
    let doc = serde_json::from_str(REFERENCE_JSON).expect("reference.json parses");
    let Value::Object(doc) = doc else { return None };
    let Some(Value::Object(seeds)) = doc.get(workload) else {
        return None;
    };
    match seeds.get(&seed.to_string()) {
        Some(Value::String(hex)) => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    }
}

struct Args {
    record: bool,
    workload: String,
    seed: u64,
    seeds: (u64, u64),
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let record = argv.peek().map(String::as_str) == Some("record");
    if record {
        argv.next();
    }
    let mut args = Args {
        record,
        workload: String::new(),
        seed: 0,
        seeds: (0, 0),
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: not {what}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--seeds" => {
                let (a, b) = value.split_once('-').ok_or_else(|| bad("A-B"))?;
                args.seeds = (
                    a.parse().map_err(|_| bad("A-B"))?,
                    b.parse().map_err(|_| bad("A-B"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Run one workload and return its tally and metrics.
fn run<W: Workload>(w: &W, args: &Args) -> (Tally, Metrics) {
    let mut tally = Tally::new(reference(&args.workload, args.seed));
    let metrics = if args.trace {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.to_path_buf()))
            .unwrap_or_default();
        let path = dir.join(format!(
            "perfbench-spans-{}-{}.json",
            args.workload, args.seed
        ));
        let m = bench::traced(w, args.seed, args.seconds, &mut tally, &path);
        println!("perfbench: spans written to {}", path.display());
        m
    } else {
        bench::untraced(w, args.seed, args.seconds, &mut tally)
    };
    (tally, metrics)
}

fn dispatch(args: &Args) -> (Tally, Metrics) {
    match args.workload.as_str() {
        "fleet-wide" => run(&fleet::FleetWide, args),
        "cells-observed" => run(&fleet::CellsObserved, args),
        "serve-mix" => run(&serve::ServeMix, args),
        _ => run(&device::DeviceSweep, args),
    }
}

/// The machine record printed with every result.
fn machine_record() -> Value {
    // The sharded engine runs only fleets of two or more placement
    // components with no instruments attached. `fleet-wide` is one
    // component, `cells-observed` attaches instruments, and the other
    // workloads run no fleet, so every workload simulates on one
    // thread.
    Value::object([
        ("nproc".to_string(), Value::Number(sys::nproc() as f64)),
        ("engine_workers".to_string(), Value::Number(1.0)),
        ("cpu".to_string(), Value::String(sys::cpu_model())),
        (
            "commit".to_string(),
            sys::git_commit().map_or(Value::Null, Value::String),
        ),
        ("sources".to_string(), Value::String(sys::source_digest())),
    ])
}

fn record(args: &Args) -> ExitCode {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");
    let current = std::fs::read_to_string(path).unwrap_or_default();
    let mut doc: BTreeMap<String, Value> = match serde_json::from_str(&current) {
        Ok(Value::Object(o)) => o,
        _ => BTreeMap::new(),
    };
    let mut seeds = match doc.remove(&args.workload) {
        Some(Value::Object(o)) => o,
        _ => BTreeMap::new(),
    };
    for seed in args.seeds.0..=args.seeds.1 {
        let mut tally = Tally::new(None);
        let fp = match args.workload.as_str() {
            "fleet-wide" => record_one(&fleet::FleetWide, seed, &mut tally),
            "cells-observed" => record_one(&fleet::CellsObserved, seed, &mut tally),
            "serve-mix" => record_one(&serve::ServeMix, seed, &mut tally),
            _ => record_one(&device::DeviceSweep, seed, &mut tally),
        };
        if tally.failed > 0 {
            eprintln!("perfbench: seed {seed}: {}", tally.messages.join(" | "));
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: {} seed {seed}: {fp:016x}", args.workload);
        seeds.insert(seed.to_string(), Value::String(format!("{fp:016x}")));
    }
    doc.insert(args.workload.clone(), Value::Object(seeds));
    let text = serde_json::to_string_pretty(&Value::Object(doc)) + "\n";
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Run one job of `w` at `seed` and return its combined fingerprint.
fn record_one<W: Workload>(w: &W, seed: u64, tally: &mut Tally) -> u64 {
    let mut off = spans::Spans::off();
    let setup = w.setup(seed, &mut off);
    let (out, _) = w.job(&setup, &mut off);
    tally.add(Some(w.check(&setup, &out)));
    tally.first_fingerprint().expect("one job was checked")
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("kernel") {
        println!("{}", calib::run_kernel());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                 perfbench record --workload NAME --seeds A-B"
            );
            return ExitCode::from(2);
        }
    };
    if args.record {
        return record(&args);
    }
    println!(
        "perfbench: machine {}",
        serde_json::to_string(&machine_record())
    );
    let (tally, mut metrics) = dispatch(&args);
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = declared(section);
    for name in metrics.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "{name} is not a declared {section} metric"
        );
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "perfbench: {} seed {}: {} units checked, {} failed, failed_frac {failed_frac} frac",
        args.workload, args.seed, tally.attempted, tally.failed
    );
    for msg in &tally.messages {
        println!("perfbench: check failed: {msg}");
    }
    let mut out = Vec::new();
    for (name, unit) in &names {
        // A per-layer metric the workload leaves unset belongs to a
        // layer this workload does not exercise; it reads 0.
        let value = match metrics.remove(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                eprintln!("perfbench: {name} is {v}: every job it needs failed");
                return ExitCode::FAILURE;
            }
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: no {name}: every job failed");
                return ExitCode::FAILURE;
            }
        };
        if !args.trace {
            println!("perfbench: {name} {value} {unit}");
        }
        out.push((
            name.clone(),
            Value::object([
                ("value".to_string(), Value::Number(value)),
                ("unit".to_string(), Value::String(unit.clone())),
            ]),
        ));
    }
    let result = Value::object([
        ("correct".to_string(), Value::Bool(tally.failed == 0)),
        (
            "attempted".to_string(),
            Value::Number(tally.attempted as f64),
        ),
        ("failed".to_string(), Value::Number(tally.failed as f64)),
        ("metrics".to_string(), Value::object(out)),
    ]);
    println!("{}", serde_json::to_string(&result));
    ExitCode::SUCCESS
}
