//! `tpu_serve` — run named multi-tenant serving scenarios on the
//! discrete-event runtime and report per-tenant latency percentiles and
//! per-die utilization. Any scenario's arrival streams can be recorded
//! to a versioned `tpu-trace` file and replayed — through this CLI or
//! through `tpu_cluster` — bit-identically.
//!
//! ```text
//! tpu_serve list
//! tpu_serve run <scenario> [--seed N] [--requests-scale F] [--json] [--trace FILE]
//! tpu_serve run --all [--json]
//! tpu_serve analyze <scenario>|--input LOG [--diff] [--runs N] [--json]
//! tpu_serve trace record <scenario> --out FILE [--run LABEL] [--seed N] [--requests-scale F]
//! tpu_serve trace import --csv FILE --out FILE [--source LABEL]
//! ```
//!
//! Every subcommand is the shared scenario driver,
//! `tpu_harness::cli::Cli`, over `tpu_serve::Scenario`; `tpu_cluster`
//! runs the same driver over fleet scenarios, so the two take the same
//! flags and print the same way. This file holds only the usage text.
//! `analyze` decomposes per-request latency into queue / swap / service
//! phases (from an in-memory run, or an existing `--request-log`
//! artifact via `--input`); `--diff` compares runs. `trace import` maps
//! an external `timestamp,tenant` CSV into `tpu-trace` v1.
//!
//! Exit codes: 0 success, 1 unknown scenario or bad trace, 2 usage.

use std::process::ExitCode;
use tpu_harness::cli::Cli;
use tpu_serve::Scenario;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tpu_serve list\n       tpu_serve run <scenario>|--all \
         [--seed N] [--requests-scale F] [--json] [--trace FILE] [--engine-stats]\n           \
         [--chrome-trace FILE] [--metrics-out FILE] [--metrics-interval MS] [--svg FILE]\n           \
         [--request-log FILE] [--monitor] [--incidents-out FILE] [--monitor-interval MS]\n       \
         tpu_serve analyze <scenario>|--input LOG [--run LABEL] [--seed N] \
         [--requests-scale F]\n           \
         [--json] [--diff] [--runs N] [--window MS]\n           \
         [--svg-breakdown FILE] [--svg-cdf FILE] [--svg-tail FILE]\n       \
         tpu_serve trace record <scenario> --out FILE [--run LABEL] \
         [--seed N] [--requests-scale F]\n       \
         tpu_serve trace import --csv FILE --out FILE [--source LABEL]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli: Cli<Scenario> = Cli {
        bin: "tpu_serve",
        usage,
        hosts: None,
    };
    cli.main(&args)
}
