//! `device-sweep`: the six Table 1 apps × batch sizes × the Figure 11
//! design points (memory bandwidth, clock, matrix scale, with and
//! without accumulator growth). Each point is lowered to timed ops
//! (`tpu_compiler::lower_timed`), stepped through the timing engine
//! (`tpu_core::timing::run_timed`) and priced by the analytic model
//! (`tpu_perfmodel::app_time`). Each app's FC layer shapes are also
//! written as TPU assembly, assembled (`tpu_asm::assemble`) and run
//! through the pipeline model, and a small-array MLP is compiled and
//! run on the functional device and its systolic array
//! (`TpuRuntime::evaluate`). The fleet layers idle here.

use crate::bench::{Metrics, SelfTimes, Sim, Unit, Workload};
use crate::spans::Spans;
use crate::sys::{fingerprint, Fnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use std::time::Instant;
use tpu_compiler::TpuRuntime;
use tpu_core::config::Precision;
use tpu_core::pipeline::PipelineModel;
use tpu_core::TpuConfig;
use tpu_nn::layer::{Layer, Nonlinearity};
use tpu_nn::model::{NnKind, NnModel};
use tpu_nn::reference::{forward_f32, ModelWeights};
use tpu_nn::Matrix;
use tpu_perfmodel::sweep::SCALES;
use tpu_perfmodel::{DesignPoint, SweepKnob};

/// Consecutive serving batches lowered per point (as Table 7 does).
const BATCHES: usize = 2;
/// Batch sizes swept per app on top of its own. Fixed, so every seed
/// costs the same work; the seed orders the points and draws the
/// functional MLP's weights and input.
const EXTRA_BATCHES: [usize; 2] = [16, 128];

/// One design point of one app at one batch size.
pub struct Point {
    label: String,
    native_batch: bool,
    model: NnModel,
    design: DesignPoint,
    cfg: TpuConfig,
}

/// One app's FC layers as assembly.
pub struct AsmApp {
    app: String,
    source: String,
}

/// The functional-device case.
pub struct FuncCase {
    cfg: TpuConfig,
    model: NnModel,
    weights: ModelWeights,
    input: Matrix,
}

/// Everything `device-sweep` builds before the job.
pub struct DeviceSetup {
    base: TpuConfig,
    points: Vec<Point>,
    asm: Vec<AsmApp>,
    func: FuncCase,
}

/// One point's outputs.
pub struct PointOut {
    ops: usize,
    counters: tpu_core::counters::PerfCounters,
    model_s: f64,
}

/// What one `device-sweep` job produces.
pub struct DeviceOutput {
    points: Vec<PointOut>,
    /// (instructions, pipeline cycles) per app.
    asm: Vec<(usize, u64)>,
    func: Matrix,
}

/// The timing-engine configuration of a design point: the analytic
/// model's scaling of `base`, applied to the simulated die.
fn design_config(base: &TpuConfig, d: &DesignPoint) -> TpuConfig {
    let mut c = base.clone();
    c.array_dim = ((base.array_dim as f64 * d.matrix_scale).round() as usize).max(1);
    c.clock_hz = (base.clock_hz as f64 * d.clock_scale).round() as u64;
    c.weight_memory_bw = base.weight_memory_bw * d.memory_scale;
    c.accumulator_entries =
        ((base.accumulator_entries as f64 * d.accumulator_scale) as usize).max(2);
    c
}

/// `model`'s FC layers as a TPU program for `cfg`: per output tile,
/// fetch the K tiles through the weight FIFO, multiply-accumulate over
/// them, and activate into the other half of the Unified Buffer.
fn fc_assembly(model: &NnModel, cfg: &TpuConfig) -> String {
    const OTHER_HALF: usize = 0x80_0000;
    let (dim, fifo) = (cfg.array_dim, cfg.weight_fifo_tiles);
    let rows = model.batch();
    let mut s = String::new();
    let (mut src, mut dst, mut dram) = (0usize, OTHER_HALF, 0usize);
    let _ = writeln!(s, "read_host_memory host=0x0, ub=0x0, len={}", rows * dim);
    for layer in model.layers() {
        let Layer::Fc(fc) = layer else { continue };
        let (k_tiles, n_tiles) = (fc.inputs.div_ceil(dim), fc.outputs.div_ceil(dim));
        for n in 0..n_tiles {
            for k in 0..k_tiles {
                // Refill the weight FIFO a full FIFO's worth at a time.
                if k % fifo == 0 {
                    let tiles = fifo.min(k_tiles - k);
                    let _ = writeln!(s, "read_weights dram={dram:#x}, tiles={tiles}");
                    dram += tiles * dim * dim;
                }
                let acc = if k > 0 { ", accumulate" } else { "" };
                let ub = src + k * rows * dim;
                let _ = writeln!(s, "matmul ub={ub:#x}, acc=0, rows={rows}{acc}");
            }
            let ub = dst + n * rows * dim;
            let _ = writeln!(s, "activate acc=0, ub={ub:#x}, rows={rows}, func=relu");
        }
        std::mem::swap(&mut src, &mut dst);
    }
    let _ = writeln!(s, "sync");
    let _ = writeln!(
        s,
        "write_host_memory ub={src:#x}, host=0x1000000, len={}",
        rows * dim
    );
    let _ = writeln!(s, "halt");
    s
}

fn func_case(seed: u64) -> FuncCase {
    let mut cfg = TpuConfig::small();
    cfg.array_dim = 32;
    cfg.path_width = 32;
    cfg.unified_buffer_bytes = 1 << 20;
    cfg.accumulator_entries = 256;
    let d = cfg.array_dim;
    let model = NnModel::new(
        "bench-mlp",
        NnKind::Mlp,
        vec![
            Layer::fc(2 * d, d, Nonlinearity::Relu),
            Layer::fc(d, d, Nonlinearity::Relu),
        ],
        16,
        2 * d,
        Precision::Int8,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = ModelWeights::random(&model, 0.4, &mut rng);
    let input = Matrix::from_fn(16, 2 * d, |_, _| rng.gen_range(-0.45f32..0.45));
    FuncCase {
        cfg,
        model,
        weights,
        input,
    }
}

/// `device-sweep` (see the module docs).
pub struct DeviceSweep;

impl Workload for DeviceSweep {
    type Setup = DeviceSetup;
    type Output = DeviceOutput;

    fn setup(&self, seed: u64, sp: &mut Spans) -> DeviceSetup {
        sp.run("spec", |_| {
            let base = TpuConfig::paper();
            let mut rng = StdRng::seed_from_u64(seed);
            let apps = tpu_nn::workloads::all();
            let mut points = Vec::new();
            for model in &apps {
                let mut batches = vec![model.batch()];
                batches.extend(EXTRA_BATCHES.iter().filter(|&&b| b != model.batch()));
                for (i, &b) in batches.iter().enumerate() {
                    let model_b = model.with_batch(b);
                    for knob in SweepKnob::all() {
                        for &scale in &SCALES {
                            let design = knob.design(scale);
                            points.push(Point {
                                label: format!("{}/b{b}/{}x{scale}", model.name(), knob.label()),
                                native_batch: i == 0,
                                cfg: design_config(&base, &design),
                                model: model_b.clone(),
                                design,
                            });
                        }
                    }
                }
            }
            for i in (1..points.len()).rev() {
                points.swap(i, rng.gen_range(0..=i));
            }
            let asm = apps
                .iter()
                .map(|m| AsmApp {
                    app: m.name().to_string(),
                    source: fc_assembly(m, &base),
                })
                .collect();
            DeviceSetup {
                base,
                points,
                asm,
                func: func_case(seed),
            }
        })
    }

    fn job(&self, s: &DeviceSetup, sp: &mut Spans) -> (DeviceOutput, Sim) {
        let mut sim = Sim::default();
        let mut points = Vec::with_capacity(s.points.len());
        for p in &s.points {
            let ops = sp.run("lower", |_| {
                tpu_compiler::lower_timed(&p.model, &p.cfg, BATCHES)
            });
            let t = Instant::now();
            let report = sp.run("timing", |_| tpu_core::timing::run_timed(&p.cfg, &ops));
            sim.seconds += t.elapsed().as_secs_f64();
            sim.events += ops.len() as u64;
            let model = sp.run("perfmodel", |_| {
                tpu_perfmodel::app_time(&p.model, &s.base, &p.design)
            });
            points.push(PointOut {
                ops: ops.len(),
                counters: report.counters,
                model_s: model.total_s,
            });
        }
        let mut asm = Vec::new();
        for a in &s.asm {
            let program = sp.run("asm", |_| tpu_asm::assemble(&a.source));
            let program = program.expect("generated assembly assembles");
            let t = Instant::now();
            let trace = sp.run("pipeline", |_| {
                PipelineModel::new(s.base.clone()).execute(&program)
            });
            sim.seconds += t.elapsed().as_secs_f64();
            sim.events += program.len() as u64;
            let trace = trace.expect("generated program runs on the pipeline model");
            asm.push((program.len(), trace.total_cycles));
        }
        sp.note_rss("rss.after_run_mb");
        let f = &s.func;
        let func = sp.run("func", |_| {
            let mut rt = TpuRuntime::new(f.cfg.clone(), 1 << 22);
            rt.evaluate(&f.model, &f.weights, &f.input)
        });
        let func = func.expect("the functional device runs the MLP");
        sp.note_rss("rss.after_render_mb");
        (DeviceOutput { points, asm, func }, sim)
    }

    fn check(&self, s: &DeviceSetup, out: &DeviceOutput) -> Vec<Unit> {
        let mut units = Vec::new();
        for (p, o) in s.points.iter().zip(&out.points) {
            let text = format!("{:?} {:016x}", o.counters, o.model_s.to_bits());
            let mut unit = Unit::new(p.label.clone(), fingerprint(text.as_bytes()));
            unit.require(o.counters.total_cycles > 0 && o.ops > 0, || {
                "the timing engine stepped no cycles".to_string()
            });
            unit.require(o.model_s.is_finite() && o.model_s > 0.0, || {
                format!("analytic time {} s", o.model_s)
            });
            units.push(unit);
        }
        for (a, &(insts, cycles)) in s.asm.iter().zip(&out.asm) {
            let mut h = Fnv::new();
            h.write(&(insts as u64).to_le_bytes());
            h.write(&cycles.to_le_bytes());
            let mut unit = Unit::new(format!("{}/asm", a.app), h.finish());
            unit.require(cycles > 0, || {
                "the pipeline model ran no cycles".to_string()
            });
            units.push(unit);
        }
        let f = &s.func;
        let want = forward_f32(&f.model, &f.weights, &f.input);
        let mut h = Fnv::new();
        for v in out.func.data() {
            h.write(&v.to_bits().to_le_bytes());
        }
        let mut unit = Unit::new("functional MLP", h.finish());
        // Quantization error compounds per layer (the bound the
        // repository's own functional-device property test uses).
        let tolerance = 0.12 * f.model.layers().len() as f32 + 0.08;
        let diff = want.max_abs_diff(&out.func);
        unit.require(diff < tolerance, || {
            format!("device differs from forward_f32 by {diff} (tolerance {tolerance})")
        });
        units.push(unit);
        if out.points.len() != s.points.len() || out.asm.len() != s.asm.len() {
            for u in &mut units {
                u.problems.push("the job skipped design points".to_string());
            }
        }
        units
    }

    fn layer_counts(&self, s: &DeviceSetup, out: &DeviceOutput, own: &SelfTimes, m: &mut Metrics) {
        let ops: usize = out.points.iter().map(|p| p.ops).sum();
        let insts: usize = out.asm.iter().map(|a| a.0).sum();
        let per = |span: &str, n: usize| own.get(span).map_or(0.0, |s| s * 1e9 / n.max(1) as f64);
        m.insert("lower.ops".into(), ops as f64);
        m.insert("timing.ns_per_op".into(), per("timing", ops));
        m.insert("asm.ns_per_inst".into(), per("asm", insts));
        m.insert("pipeline.ns_per_inst".into(), per("pipeline", insts));
        let macs: usize = s
            .func
            .model
            .layers()
            .iter()
            .filter_map(|l| l.matrix_shape())
            .map(|(k, n)| k * n * s.func.model.batch())
            .sum();
        if let Some(&f) = own.get("func") {
            m.insert("func.macs_per_s".into(), macs as f64 / f);
        }
        // Table 7's accuracy figure: the largest gap between the timing
        // engine and the analytic model, shipped design, own batch.
        let gap = s
            .points
            .iter()
            .zip(&out.points)
            .filter(|(p, _)| p.native_batch && p.design == DesignPoint::baseline())
            .map(|(p, o)| {
                let sim = o.counters.total_cycles as f64 / BATCHES as f64;
                let model = o.model_s * p.cfg.clock_hz as f64;
                100.0 * (model - sim).abs() / sim
            })
            .fold(0.0, f64::max);
        m.insert("perfmodel.gap_pct_max".into(), gap);
    }

    fn layer_probes(&self, _: &DeviceSetup, _: &DeviceOutput, _: &mut Metrics) {}
}
