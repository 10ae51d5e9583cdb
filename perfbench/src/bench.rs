//! The run loop shared by every workload: set up several times, repeat
//! the job until the time budget is spent, check every output, and
//! reduce the timings to the end-to-end metrics (untraced) or the
//! per-layer ledger (traced).

use crate::calib;
use crate::spans::Spans;
use crate::sys;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Per-span-name self time of one job, in seconds.
pub type SelfTimes = BTreeMap<&'static str, f64>;

/// One checked unit of output: a fleet run, a serve scenario run, or a
/// device design point.
#[derive(Debug, Clone)]
pub struct Unit {
    /// What the unit is, for messages.
    pub label: String,
    /// Fingerprint of every output byte the unit produced.
    pub fingerprint: u64,
    /// Failed output checks; empty when the unit is correct.
    pub problems: Vec<String>,
}

impl Unit {
    /// A unit with no failed checks yet.
    pub fn new(label: impl Into<String>, fingerprint: u64) -> Self {
        Unit {
            label: label.into(),
            fingerprint,
            problems: Vec::new(),
        }
    }

    /// Record a failed check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The host cost of a job's simulation phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim {
    /// Simulated events processed.
    pub events: u64,
    /// Host seconds spent simulating them.
    pub seconds: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// Everything built before the timed work starts.
    type Setup;
    /// What one job produces for checking.
    type Output;

    /// Build specs, tenants and models, and plan placement.
    fn setup(&self, seed: u64, sp: &mut Spans) -> Self::Setup;

    /// The timed job: simulation, report and artifact rendering, and
    /// analysis.
    fn job(&self, setup: &Self::Setup, sp: &mut Spans) -> (Self::Output, Sim);

    /// Check one job's outputs, one entry per unit.
    fn check(&self, setup: &Self::Setup, out: &Self::Output) -> Vec<Unit>;

    /// Per-layer figures read off one traced job: counts, and ratios
    /// of counts to the job's mean self times `own`.
    fn layer_counts(
        &self,
        setup: &Self::Setup,
        out: &Self::Output,
        own: &SelfTimes,
        m: &mut Metrics,
    );

    /// Per-layer measurements taken outside the job (traced runs only).
    fn layer_probes(&self, setup: &Self::Setup, out: &Self::Output, m: &mut Metrics);
}

/// Tally of checked units across a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Units checked.
    pub attempted: u64,
    /// Units whose checks failed (a job that panicked counts each of
    /// its units as failed).
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
    reference: Option<u64>,
    first: Option<Vec<u64>>,
    last_units: u64,
}

impl Tally {
    /// A tally comparing each job's combined fingerprint against the
    /// stored `reference` when there is one, and otherwise each unit
    /// against the same unit of the run's first job.
    pub fn new(reference: Option<u64>) -> Self {
        Tally {
            reference,
            last_units: 1,
            ..Tally::default()
        }
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Count one job's units.
    pub fn add(&mut self, units: Option<Vec<Unit>>) {
        let Some(mut units) = units else {
            self.attempted += self.last_units;
            self.failed += self.last_units;
            self.note("job panicked".to_string());
            return;
        };
        let prints: Vec<u64> = units.iter().map(|u| u.fingerprint).collect();
        let combined = combine(&prints);
        match (self.reference, &self.first) {
            (Some(want), _) if want != combined => {
                for u in &mut units {
                    u.problems.push(format!(
                        "job fingerprint {combined:016x} differs from the reference {want:016x}"
                    ));
                }
            }
            (None, Some(first)) => {
                if first.len() != prints.len() {
                    for u in &mut units {
                        u.problems
                            .push("unit count changed between jobs".to_string());
                    }
                } else {
                    for (u, want) in units.iter_mut().zip(first) {
                        if u.fingerprint != *want {
                            u.problems.push(format!(
                                "fingerprint {:016x} differs from the first job's {want:016x}",
                                u.fingerprint
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
        if self.first.is_none() {
            self.first = Some(prints);
        }
        self.last_units = units.len().max(1) as u64;
        for u in &units {
            self.attempted += 1;
            if !u.problems.is_empty() {
                self.failed += 1;
                let msg = format!("{}: {}", u.label, u.problems.join("; "));
                self.note(msg);
            }
        }
    }

    /// The combined fingerprint of the run's first job.
    pub fn first_fingerprint(&self) -> Option<u64> {
        self.first.as_deref().map(combine)
    }
}

/// Fold unit fingerprints into one job fingerprint.
pub fn combine(prints: &[u64]) -> u64 {
    let mut h = sys::Fnv::new();
    for p in prints {
        h.write(&p.to_le_bytes());
    }
    h.finish()
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Each job is preceded by timed set-ups repeated for at least this
/// long (at least one), so set-up is sampled across the whole run like
/// the jobs are, and short set-ups get enough samples for a median.
const SETUP_BATCH: Duration = Duration::from_millis(10);
/// Jobs per run, at least.
const MIN_JOBS: usize = 3;

/// Set up repeatedly for [`SETUP_BATCH`], recording each set-up's
/// time, and return the last set-up.
fn timed_setups<W: Workload>(w: &W, seed: u64, times: &mut Vec<f64>) -> W::Setup {
    let mut off = Spans::off();
    let batch = Instant::now();
    loop {
        let t = Instant::now();
        let setup = w.setup(seed, &mut off);
        times.push(t.elapsed().as_secs_f64());
        if batch.elapsed() >= SETUP_BATCH {
            return setup;
        }
    }
}

fn run_job<W: Workload>(
    w: &W,
    setup: &W::Setup,
    sp: &mut Spans,
    tally: &mut Tally,
) -> Option<(W::Output, Sim, f64)> {
    let t = Instant::now();
    let done = catch_unwind(AssertUnwindSafe(|| sp.run("job", |sp| w.job(setup, sp))));
    let wall = t.elapsed().as_secs_f64();
    match done {
        Ok((out, sim)) => {
            let units = catch_unwind(AssertUnwindSafe(|| {
                sp.run("check", |_| w.check(setup, &out))
            }));
            if units.is_err() {
                sp.close_open();
            }
            tally.add(units.ok());
            Some((out, sim, wall))
        }
        Err(_) => {
            sp.close_open();
            tally.add(None);
            None
        }
    }
}

/// An untraced run: the end-to-end metrics, in host seconds at the
/// reference speed of [`calib`]. Each set-up batch is scaled by the
/// speed kernel run just before it, and each job by the mean of the
/// kernels run just before and just after it.
pub fn untraced<W: Workload>(w: &W, seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut off = Spans::off();
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut host_walls = Vec::new();
    let mut kernels = vec![calib::kernel_s()];
    let budget = Duration::from_secs_f64(seconds);
    let mut jobs = 0;
    while jobs < MIN_JOBS || start.elapsed() < budget {
        jobs += 1;
        let before = kernels[kernels.len() - 1];
        let mut batch = Vec::new();
        let setup = timed_setups(w, seed, &mut batch);
        setup_s.extend(batch.iter().map(|s| s * calib::REFERENCE_S / before));
        let done = run_job(w, &setup, &mut off, tally);
        let after = calib::kernel_s();
        kernels.push(after);
        if let Some((_, sim, wall)) = done {
            let scale = calib::REFERENCE_S / (0.5 * (before + after));
            host_walls.push(wall);
            walls.push(wall * scale);
            rates.push(sim.events as f64 / (sim.seconds * scale));
        }
    }
    if !host_walls.is_empty() {
        println!(
            "perfbench: host speed kernel {} s (reference {} s); unscaled wall_s {} s",
            median(&kernels),
            calib::REFERENCE_S,
            median(&host_walls)
        );
    }
    let mut m = Metrics::new();
    m.insert("setup_s".into(), median(&setup_s));
    if !walls.is_empty() {
        m.insert("wall_s".into(), median(&walls));
        m.insert("events_per_s".into(), median(&rates));
    }
    m.insert("peak_rss_mb".into(), sys::peak_rss_mb());
    m
}

/// Span name → per-layer metric its self time is reported as.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("spec", "setup.spec_s"),
    ("placement", "placement_s"),
    ("engine", "engine.run_s"),
    ("serve", "serve.run_s"),
    ("report", "report.render_s"),
    ("trace.render", "trace.render_s"),
    ("metrics.render", "metrics.render_s"),
    ("reqlog.render", "reqlog.render_s"),
    ("monitor.render", "monitor.render_s"),
    ("analyze", "analyze.attribution_s"),
    ("lower", "lower.s"),
    ("timing", "timing.s"),
    ("perfmodel", "perfmodel.s"),
    ("asm", "asm.s"),
    ("pipeline", "pipeline.s"),
    ("func", "func.s"),
];

/// A traced run: the per-layer ledger.
///
/// One traced set-up and one cold traced job (which also marks peak
/// RSS after set-up, simulation and rendering) come first. Then
/// untraced and traced jobs alternate for half the budget; their means
/// give the tracing overhead, and the traced ones the per-layer self
/// times, which sum to the traced job wall time by construction.
/// Finally the workload's own probes measure layers outside the job.
/// Spans are written to `spans_path` at the end.
pub fn traced<W: Workload>(
    w: &W,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    spans_path: &std::path::Path,
) -> Metrics {
    let start = Instant::now();
    let mut m = Metrics::new();
    let mut sp = Spans::on();
    let setup = sp.run("setup", |sp| w.setup(seed, sp));
    m.insert("rss.after_setup_mb".into(), sys::peak_rss_mb());
    let mut last = sp.run("warmup", |sp| run_job(w, &setup, sp, tally));
    for (k, v) in sp.take_rss_marks() {
        m.insert(k.into(), v);
    }

    let mut untraced_walls = Vec::new();
    let mut off = Spans::off();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut pairs = 0;
    while pairs < 2 || start.elapsed() < half {
        pairs += 1;
        // Alternate which side of the pair runs first, so neither
        // always follows the other's freed memory.
        for traced in [pairs % 2 == 0, pairs % 2 == 1] {
            if traced {
                if let Some(done) = run_job(w, &setup, &mut sp, tally) {
                    last = Some(done);
                }
            } else if let Some((_, _, wall)) = run_job(w, &setup, &mut off, tally) {
                untraced_walls.push(wall);
            }
        }
    }
    m.insert("bench.kernel_s".into(), calib::kernel_s());
    let traced_walls = sp.root_seconds("job");
    let jobs = traced_walls.len().max(1) as f64;
    let own: SelfTimes = sp
        .self_seconds("job")
        .into_iter()
        .map(|(k, v)| (k, v / jobs))
        .collect();
    let traced_wall = mean(&traced_walls);
    m.insert("bench.traced_wall_s".into(), traced_wall);
    m.insert("bench.untraced_wall_s".into(), mean(&untraced_walls));
    m.insert(
        "bench.trace_overhead_s".into(),
        traced_wall - mean(&untraced_walls),
    );
    let layers: f64 = own
        .iter()
        .filter(|(k, _)| **k != "job")
        .map(|(_, v)| v)
        .sum();
    m.insert("bench.attributed_frac".into(), layers / traced_wall);
    m.insert(
        "bench.glue_s".into(),
        own.get("job").copied().unwrap_or(0.0),
    );
    let setup_own = sp.self_seconds("setup");
    for (span, metric) in SPAN_METRICS {
        let v = own.get(span).or_else(|| setup_own.get(span)).copied();
        m.insert((*metric).into(), v.unwrap_or(0.0));
    }

    if let Some((out, _, _)) = last.take() {
        w.layer_counts(&setup, &out, &own, &mut m);
        sp.run("probes", |_| w.layer_probes(&setup, &out, &mut m));
    }
    if let Err(e) = std::fs::write(spans_path, sp.to_chrome_json()) {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }
    m
}
