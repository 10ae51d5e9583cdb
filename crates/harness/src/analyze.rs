//! The `analyze` subcommand of the scenario CLI driver
//! ([`crate::cli`]).
//!
//! `analyze <scenario>` executes the scenario with a requests-only
//! telemetry set (no artifact files needed) and prints the
//! [`tpu_analyze::Attribution`] per run; `analyze --input LOG` analyzes
//! an existing `--request-log` artifact instead. `--diff` compares a
//! scenario's first two runs tenant-by-tenant, and `--runs N` repeats
//! the comparison over N seed replicates and prints the delta spread —
//! for single-run scenarios the replicates themselves are the two
//! sides.

use crate::cli::{configure, positive, set, switch, Cli, CliScenario, CommonArgs, SCENARIO_FLAGS};
use crate::telemetry::artifact_path;
use std::process::ExitCode;
use tpu_analyze::{diff_runs, diff_spread, summarize_log, Attribution, RunSummary};
use tpu_core::TpuConfig;
use tpu_telemetry::{RequestLog, RunTelemetry, TelemetryConfig};

/// Executes one scenario at `(name, seed, scale)` and returns its runs'
/// labelled request logs, or a message for stderr.
type CollectFn<'a> =
    &'a dyn Fn(&str, Option<u64>, Option<f64>) -> Result<Vec<(String, RequestLog)>, String>;

/// A requests-only telemetry set for `runs` runs (what the `analyze`
/// subcommand instruments a scenario with).
fn requests_only_tels(runs: usize) -> Vec<RunTelemetry> {
    let cfg = TelemetryConfig {
        trace: false,
        metrics: None,
        requests: true,
        profile: false,
    };
    (0..runs).map(|_| RunTelemetry::from_config(&cfg)).collect()
}

/// The flags only `analyze` takes; the shared ones are in `c`.
#[derive(Default)]
struct AnalyzeArgs {
    c: CommonArgs,
    input: Option<String>,
    diff: bool,
    runs: usize,
    window: Option<f64>,
    svg_breakdown: Option<String>,
    svg_cdf: Option<String>,
    svg_tail: Option<String>,
}

/// Run the `analyze` subcommand for `cli`'s scenario type.
pub fn analyze_command<S: CliScenario>(cli: &Cli<S>, args: &[String]) -> Result<(), ExitCode> {
    let mut a = AnalyzeArgs {
        runs: 1,
        ..AnalyzeArgs::default()
    };
    a.c = cli.parse(args, SCENARIO_FLAGS, |flag, it| match flag {
        "--diff" => switch(&mut a.diff),
        "--input" => set(&mut a.input, it.next().cloned()),
        "--runs" => match it.next().and_then(|v| v.parse().ok()) {
            Some(v) if v >= 1 => {
                a.runs = v;
                true
            }
            _ => false,
        },
        "--window" => set(&mut a.window, it.next().and_then(|v| positive(v))),
        "--svg-breakdown" => set(&mut a.svg_breakdown, it.next().cloned()),
        "--svg-cdf" => set(&mut a.svg_cdf, it.next().cloned()),
        "--svg-tail" => set(&mut a.svg_tail, it.next().cloned()),
        _ => false,
    })?;
    if a.c.name.is_some() == a.input.is_some() {
        eprintln!(
            "{}: analyze needs a scenario name or --input LOG, not both or neither",
            cli.bin
        );
        return Err((cli.usage)());
    }
    if a.diff && a.input.is_some() {
        eprintln!(
            "{}: --diff runs a scenario; to diff two files use `tpu_analyze diff`",
            cli.bin
        );
        return Err((cli.usage)());
    }

    let cfg = TpuConfig::paper();
    let collect = |name: &str, seed, scale| -> Result<Vec<(String, RequestLog)>, String> {
        let s = configure(cli.lookup(name)?, seed, scale);
        let mut tels = requests_only_tels(s.run_labels().len());
        let results = s.execute_telemetry(&cfg, &mut tels);
        Ok(results
            .into_iter()
            .zip(tels)
            .map(|((label, _), tel)| (label, tel.requests.expect("requested")))
            .collect())
    };
    let result = if a.diff {
        diff_flow(&a, &collect)
    } else {
        attribution_flow(&a, &collect)
    };
    result.map_err(|e| cli.fail(&e))
}

fn attribution_flow(a: &AnalyzeArgs, collect: CollectFn<'_>) -> Result<(), String> {
    let logs = match (&a.input, &a.c.name) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            vec![(path.clone(), RequestLog::parse(&text)?)]
        }
        (None, Some(name)) => {
            let mut logs = collect(name, a.c.seed, a.c.scale)?;
            if let Some(label) = &a.c.run {
                logs.retain(|(l, _)| l == label);
                if logs.is_empty() {
                    return Err(format!("scenario {name} has no run {label:?}"));
                }
            }
            logs
        }
        (None, None) => unreachable!("checked by the caller"),
    };

    let multi = logs.len() > 1;
    for (label, log) in &logs {
        let attribution = Attribution::from_log(log, a.window);
        if multi || a.input.is_none() {
            println!("-- {label}");
        }
        if a.c.json {
            println!("{}", serde_json::to_string_pretty(&attribution.to_json()));
        } else {
            print!("{attribution}");
        }
        let svgs = [
            (&a.svg_breakdown, attribution.breakdown_svg()),
            (&a.svg_cdf, tpu_analyze::cdf_svg(log)),
            (&a.svg_tail, tpu_analyze::tail_svg(log)),
        ];
        for (base, svg) in svgs {
            if let Some(base) = base {
                let path = artifact_path(base, label, multi);
                let svg = svg.map_err(|e| format!("{path}: {e}"))?;
                std::fs::write(&path, svg).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("analyze: wrote {path}");
            }
        }
    }
    Ok(())
}

fn diff_flow(a: &AnalyzeArgs, collect: CollectFn<'_>) -> Result<(), String> {
    let name = a.c.name.as_deref().expect("checked by the caller");
    if a.svg_breakdown.is_some() || a.svg_cdf.is_some() || a.svg_tail.is_some() {
        return Err("--diff does not render SVGs; run analyze without --diff".to_string());
    }
    // Replicate seeds are consecutive from the given (or default 1)
    // base seed; a single replicate keeps the scenario's own seed.
    let seed_for = |i: u64| {
        if a.runs == 1 {
            a.c.seed
        } else {
            Some(a.c.seed.unwrap_or(1) + i)
        }
    };
    let summarize = |label: &str, log: &RequestLog| RunSummary {
        label: label.to_string(),
        tenants: summarize_log(log),
    };

    let first = collect(name, seed_for(0), a.c.scale)?;
    if first.len() >= 2 {
        // Diff the scenario's first two runs, replicated over seeds.
        let pair = |logs: &[(String, RequestLog)]| {
            diff_runs(
                &summarize(&logs[0].0, &logs[0].1),
                &summarize(&logs[1].0, &logs[1].1),
            )
        };
        let mut diffs = vec![pair(&first)];
        for i in 1..a.runs as u64 {
            diffs.push(pair(&collect(name, seed_for(i), a.c.scale)?));
        }
        print_diffs(&diffs, a.c.json);
    } else {
        // One run: the seed replicates themselves are the two sides.
        if a.runs < 2 {
            return Err(format!(
                "scenario {name} has a single run; seed-replicate diffing needs --runs N (N >= 2)"
            ));
        }
        let label = |i: u64| format!("{} seed {}", first[0].0, seed_for(i).unwrap());
        let base = summarize(&label(0), &first[0].1);
        let diffs: Result<Vec<_>, String> = (1..a.runs as u64)
            .map(|i| {
                let rep = collect(name, seed_for(i), a.c.scale)?;
                Ok(diff_runs(&base, &summarize(&label(i), &rep[0].1)))
            })
            .collect();
        print_diffs(&diffs?, a.c.json);
    }
    Ok(())
}

fn print_diffs(diffs: &[tpu_analyze::RunDiff], json: bool) {
    if diffs.len() == 1 {
        if json {
            println!("{}", serde_json::to_string_pretty(&diffs[0].to_json()));
        } else {
            print!("{}", diffs[0]);
        }
    } else {
        let spread = diff_spread(diffs);
        if json {
            println!("{}", serde_json::to_string_pretty(&spread.to_json()));
        } else {
            print!("{spread}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_only_tels_enable_exactly_the_record_stream() {
        let tels = requests_only_tels(2);
        assert_eq!(tels.len(), 2);
        for t in &tels {
            assert!(t.requests.is_some() && t.enabled());
            assert!(t.tracer.is_none() && t.metrics.is_none() && t.profile.is_none());
        }
    }
}
