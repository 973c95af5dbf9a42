//! Process measurements from the OS: CPU time, peak resident set, and
//! the bytes of files a phase wrote or read.

use std::path::{Path, PathBuf};
use std::time::Instant;

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds this process has used, exited threads
/// included.
pub fn cpu_seconds() -> f64 {
    let mut usage = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout getrusage(2) fills on 64-bit Linux, and RUSAGE_SELF is a
    // valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let seconds = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    seconds(&usage.utime) + seconds(&usage.stime)
}

/// Hands the allocator's free memory back to the kernel.
pub fn release_free_heap() {
    // SAFETY: malloc_trim(3) only returns unused heap pages to the
    // kernel; any `pad` is valid and no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the kernel's peak-resident-set mark (`VmHWM`) to the current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set (`VmHWM`) in MiB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Measures one timed phase: wall time, process CPU time and the peak
/// resident set reached between [`Phase::start`] and [`Phase::finish`].
pub struct Phase {
    started: Instant,
    cpu_before: f64,
}

/// What a [`Phase`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Starts measuring; resets the peak-resident-set mark.
    pub fn start() -> std::io::Result<Phase> {
        reset_peak_rss()?;
        Ok(Phase {
            cpu_before: cpu_seconds(),
            started: Instant::now(),
        })
    }

    /// Stops measuring.
    pub fn finish(self) -> std::io::Result<Measured> {
        let wall_s = self.started.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - self.cpu_before;
        Ok(Measured {
            wall_s,
            cpu_s,
            peak_rss_mb: peak_rss_mb()?,
        })
    }
}

/// Total bytes of `paths`.
pub fn file_bytes(paths: &[PathBuf]) -> std::io::Result<u64> {
    paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()))
        .sum()
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in `root`, read from `.git` without leaving
/// the directory; `unknown` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over `bytes`: a cheap fingerprint for "these files did not
/// change" checks.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
        (acc ^ u64::from(*b)).wrapping_mul(0x1_0000_0000_01b3)
    })
}

/// Fingerprints every file of `paths`, in order.
pub fn fingerprint_files(paths: &[PathBuf]) -> std::io::Result<Vec<(u64, u64)>> {
    paths
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p)?;
            Ok((bytes.len() as u64, fingerprint(&bytes)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_resets_and_reads() {
        reset_peak_rss().expect("clear_refs is writable on Linux");
        let peak = peak_rss_mb().expect("VmHWM");
        assert!(peak > 0.0);
    }
}
