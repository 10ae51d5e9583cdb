//! Facts about the host and the code under test that every result
//! records: memory high-water mark, core count, CPU model, and which
//! sources were built.

use std::path::Path;
use std::process::Command;

/// Peak resident set size of this process so far, in MB: `VmHWM` from
/// `/proc/self/status`. Each workload runs in its own process, so the
/// mark belongs to that workload alone.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("peak RSS needs /proc");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git commit checked out in the working directory, when it is the
/// root of a git repository and `git` is installed (git is not asked
/// about parent directories, which lie outside the checkout).
pub fn git_commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A digest of the sources the benchmark was built from (every file
/// under `crates/` and `src/` plus the root manifests), so a result
/// names its code even in a checkout that is not a git repository.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for path in ["Cargo.toml", "Cargo.lock"]
        .iter()
        .map(|p| Path::new(p).to_path_buf())
        .chain(files)
    {
        if let Ok(bytes) = std::fs::read(&path) {
            h.write(path.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// 64-bit FNV-1a, the fingerprint of simulated outputs. Every write is
/// length-prefixed so concatenations cannot collide.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb one length-prefixed byte string.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}
