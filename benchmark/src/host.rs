//! The host the numbers were taken on, and the pinning that makes them
//! repeat.

use std::fmt::Write as _;
use std::path::Path;

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs this process may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread; the kernel writes at most that many
    // bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Pin the calling thread — and every thread it spawns afterwards, which
/// inherit the mask — to the highest-numbered of the `allowed` CPUs (CPU 0
/// takes most of a small VM's interrupts). Returns the CPU, or `None` where
/// pinning is unavailable; the report says so and the run goes on.
///
/// One CPU for the whole process is the point: the solver pool, the campaign
/// server's threads and the client then take turns instead of migrating, and
/// a neighbour on the other core cannot steal a second runnable thread's
/// slot. Unpinned, a loopback ping-pong on this class of host flips between
/// a 38 µs and a 111 µs mode for a whole run.
pub fn pin_to_one_cpu(allowed: &[usize]) -> Option<usize> {
    let cpu = *allowed.last()?;
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed and
        // pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            return None;
        }
    }
    Some(cpu)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d 96K, L2 4096K, …` of `cpu`, from sysfs.
fn cache_sizes(cpu: usize) -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu{cpu}/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{} {}", level.trim(), suffix, size.trim()));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// The commit of the tree the harness runs in, read from `.git` without
/// spawning a process; `unknown` in an exported checkout.
fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host-and-hygiene header every output starts with.
pub fn report(allowed: &[usize], pinned: Option<usize>, seed: u64, repo_root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::new();
    let _ = writeln!(
        s,
        "host: {} | cpus allowed before pinning: {:?}",
        cpu_model(),
        allowed
    );
    let _ = writeln!(
        s,
        "pinned cpu: {} | nproc now: {nproc} | caches: {}",
        pinned.map_or("none (pinning unavailable)".to_string(), |c| c.to_string()),
        cache_sizes(pinned.unwrap_or(0)),
    );
    let _ = writeln!(
        s,
        "seed: {seed} | commit: {} | build: release, race-check off",
        git_commit(repo_root)
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }

    #[test]
    fn report_names_seed_and_commit() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = report(&[0, 1], None, 7, &root);
        assert!(text.contains("seed: 7"));
        assert!(text.contains("commit: "));
        assert!(text.contains("pinning unavailable"));
    }
}
