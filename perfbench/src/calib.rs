//! A same-run reference for host speed.
//!
//! On a shared host the same binary and seed runs 20–70% slower or
//! faster from one minute to the next, for reasons the benchmark cannot
//! see (load on other virtual machines). Raw timings of two runs minutes
//! apart then differ by more than any useful bound. So each job is
//! bracketed by a fixed kernel written in the benchmark's own code, and
//! timings are scaled by how long that kernel took against
//! [`REFERENCE_S`]: a job reported at 1 s took 1 s of host time at the
//! speed the machine had when the kernel ran in `REFERENCE_S`. The
//! kernel does what the simulator does — dependent reads over freshly
//! allocated memory, ordered-map churn and string rendering — so a slow
//! host slows both alike. (A deep binary-heap churn was tried as a
//! fourth part and dropped: its time followed the workloads' drift
//! worse than any other part.) It never changes with the program under
//! test, so the scale is the same for a parent commit and a change.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's host time on a 2-vCPU Intel Xeon virtual machine on a
/// shared host, roughly in its fast state.
pub const REFERENCE_S: f64 = 0.070;

/// Host seconds one run of the kernel takes now, measured in a child
/// process (`perfbench kernel`) so the kernel's memory never counts
/// toward this process's peak RSS.
///
/// # Panics
///
/// Panics when the child cannot run or prints no time.
pub fn kernel_s() -> f64 {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out = std::process::Command::new(exe)
        .arg("kernel")
        .output()
        .expect("the speed kernel runs");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the speed kernel prints its host seconds")
}

/// Run the kernel in this process and return its host seconds.
pub fn run_kernel() -> f64 {
    let t = Instant::now();
    black_box(random_reads());
    black_box(render());
    black_box(tree_churn());
    t.elapsed().as_secs_f64()
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Dependent reads over a freshly built 64 MiB table.
fn random_reads() -> u64 {
    let table: Vec<u64> = (0..8u64 << 20)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect();
    let mut sum = 0u64;
    let mut j = 1usize;
    for _ in 0..300_000 {
        j = ((table[j] as usize) ^ j).wrapping_mul(31) % table.len();
        sum = sum.wrapping_add(table[j]);
    }
    sum
}

/// Format numbers into a growing string, as report rendering does.
fn render() -> usize {
    let mut s = String::new();
    for i in 0..60_000u32 {
        let _ = write!(s, "{{\"id\":{i},\"t_ms\":{:.6}}},", f64::from(i) * 0.37);
    }
    s.len()
}

/// Insert and remove small vectors in an ordered map.
fn tree_churn() -> usize {
    let mut x = 7u64;
    let mut m: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for i in 0..60_000u64 {
        m.insert(xorshift(&mut x) % 20_000, vec![i as f64; 4]);
        if i % 3 == 0 {
            let k = xorshift(&mut x) % 20_000;
            m.remove(&k);
        }
    }
    m.len()
}
