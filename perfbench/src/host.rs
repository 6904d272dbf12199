//! Where a number came from: host, source tree and clock facts recorded
//! with every run, and the host counters the benchmark reads itself.

use std::path::{Path, PathBuf};

use poptrie_bitops::BatchBackend;

use crate::metrics::{json_num, json_str};

/// The repository root of this checkout (the benchmark's parent).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Aggregate CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().next().filter(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user and nice).
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|v| v.parse().ok())
            .collect();
        CpuTimes {
            steal: f.get(7).copied().unwrap_or(0),
            total: f.iter().sum(),
        }
    }

    /// Steal share of all CPU time between `self` and `later`.
    pub fn steal_share(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run in an export that has no `.git` at all.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest of every Rust and manifest file under `crates/` and the
/// benchmark's own sources, in path order: identifies the measured code
/// even in an export with no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.push(root.join("perfbench").join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// CPUs the kernel has online, from `/sys/devices/system/cpu/online`
/// (`0-1,4`); not this thread's affinity, which the generator narrows.
fn online_cpus() -> usize {
    let list = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    let count: usize = list
        .trim()
        .split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum();
    if count > 0 {
        count
    } else {
        std::thread::available_parallelism().map_or(0, |n| n.get())
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance record as a JSON object.
pub fn provenance_json(workload: &str, seed: u64, trace: bool, seconds: u64, steal: f64) -> String {
    let root = repo_root();
    let cpus = online_cpus();
    let fields = [
        ("git_rev", json_str(&git_rev(&root))),
        ("source_digest", json_str(&source_digest(&root))),
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("trace", trace.to_string()),
        ("seconds", seconds.to_string()),
        ("online_cpus", cpus.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        (
            "widest_backend",
            json_str(BatchBackend::widest_available().name()),
        ),
        (
            "perf_counters",
            poptrie_trace::PerfGroup::open().is_some().to_string(),
        ),
        (
            "tsc_cycles_per_ns",
            json_num(poptrie_cycles::tsc::cycles_per_ns()),
        ),
        ("host.steal_share", json_num(steal)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_counters_read_sensibly() {
        let a = CpuTimes::now();
        let b = CpuTimes::now();
        let s = a.steal_share(&b);
        assert!((0.0..=1.0).contains(&s));
        assert!(peak_rss_mib() > 0.0);
        let p = provenance_json("steady", 3, false, 10, 0.0);
        for key in [
            "git_rev",
            "online_cpus",
            "cpu_model",
            "widest_backend",
            "perf_counters",
            "tsc_cycles_per_ns",
            "seed",
        ] {
            assert!(p.contains(&format!("\"{key}\"")), "{key} missing from {p}");
        }
    }
}
