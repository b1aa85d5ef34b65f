//! What the benchmark reads from `/proc`: CPU time, resident memory,
//! context switches, CPU steal and the filesystem under a path. The
//! parsers take the file's text so tests can feed them fixed inputs.

use std::path::Path;
use std::time::{Duration, Instant};

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100
/// per second for its user-space ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
/// For a process this covers every thread, exited ones included.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses, so
    // count fields from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// A `Name:   value` field of `/proc/<pid>/status` (kB for memory).
pub fn parse_status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        if key != name {
            return None;
        }
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Aggregate CPU time of the machine from the text of `/proc/stat`:
/// `(all ticks, steal ticks)` of the `cpu` line.
pub fn parse_cpu_line(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user and nice.
    let steal = *ticks.get(7)?;
    let total = ticks.iter().take(8).sum();
    Some((total, steal))
}

/// The filesystem type of the mount holding `path`, from the text of
/// `/proc/mounts` (the longest mount point that prefixes the path).
pub fn fs_type_of(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            // Spaces in mount points are written as \040.
            let point = point.replace("\\040", " ");
            path.starts_with(&point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// CPU seconds of process `pid` so far (`None` once it is gone).
pub fn cpu_s(pid: u32) -> Option<f64> {
    parse_stat_cpu_s(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident memory of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_field(&status, "VmHWM")
}

/// The machine's `(all, steal)` CPU ticks so far.
pub fn machine_ticks() -> Option<(u64, u64)> {
    parse_cpu_line(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Steal as a percentage of all CPU ticks between two [`machine_ticks`].
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 * 100.0 / total as f64
}

/// Filesystem type under `path`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|m| fs_type_of(&m, &path))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the kernel accounted to a child process over its whole life,
/// every thread included, as returned when the child is reaped.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChildUsage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident memory, in KiB.
    pub max_rss_kib: u64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;

/// Reap child `pid`, waiting at most `timeout`, and return its usage.
/// `Ok(None)` means it is still running; the caller then kills it and
/// calls again. The standard library's `Child::wait` reaps without the
/// usage, so this is the only reaping call the benchmark makes.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn reap(pid: u32, timeout: Duration) -> std::io::Result<Option<ChildUsage>> {
    let pid = i32::try_from(pid).map_err(std::io::Error::other)?;
    let deadline = Instant::now() + timeout;
    loop {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // 64-bit Linux's `int` and `struct rusage`; wait4 writes nothing
        // else and keeps no pointer past the call.
        let got = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
        if got == pid {
            let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
            // The longs run maxrss, ixrss, idrss, isrss, minflt, majflt,
            // nswap, inblock, oublock, msgsnd, msgrcv, nsignals, nvcsw,
            // nivcsw.
            return Ok(Some(ChildUsage {
                cpu_s: secs(&usage.utime) + secs(&usage.stime),
                ctx_switches: (usage.longs[12] + usage.longs[13]) as u64,
                max_rss_kib: usage.longs[0] as u64,
            }));
        }
        if got < 0 {
            return Err(std::io::Error::last_os_error());
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_utime_and_stime() {
        let stat = "4242 (ceh) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 50 0 0 20 0 9 0 \
                    100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        // A command name holding spaces and parentheses.
        let odd = "7 (a b) c)) R 1 7 7 0 -1 0 0 0 0 0 120 30 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat_cpu_s(odd), Some(1.5));
        assert_eq!(parse_stat_cpu_s("7 (x) R 1"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tceh\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(51_200));
        assert_eq!(parse_status_field(status, "VmRSS"), Some(40_000));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn cpu_line_and_steal() {
        let stat = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\nctxt 99\n";
        assert_eq!(parse_cpu_line(stat), Some((1000, 30)));
        assert_eq!(steal_pct((1000, 30), (2000, 130)), 10.0);
        assert_eq!(steal_pct((1000, 30), (1000, 30)), 0.0);
        assert_eq!(parse_cpu_line("intr 1\n"), None);
    }

    #[test]
    fn filesystem_of_the_longest_mount_point() {
        let mounts = "overlay / overlay rw 0 0\n\
                      tmpfs /dev/shm tmpfs rw 0 0\n\
                      /dev/vdb /data\\040dir ext4 rw 0 0\n";
        assert_eq!(
            fs_type_of(mounts, Path::new("/home/x")).as_deref(),
            Some("overlay")
        );
        assert_eq!(
            fs_type_of(mounts, Path::new("/dev/shm/a")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            fs_type_of(mounts, Path::new("/data dir/w")).as_deref(),
            Some("ext4")
        );
        // Component-wise prefix: /dev/shmx is not under /dev/shm.
        assert_eq!(
            fs_type_of(mounts, Path::new("/dev/shmx")).as_deref(),
            Some("overlay")
        );
    }

    #[test]
    #[allow(clippy::zombie_processes)] // `reap` is the wait.
    fn reaping_a_child_reports_its_usage() {
        let child = std::process::Command::new("sh")
            // Busy, then blocked on a child: CPU time and a switch.
            .args([
                "-c",
                "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; sleep 0.01",
            ])
            .spawn()
            .unwrap();
        let usage = reap(child.id(), Duration::from_secs(30)).unwrap().unwrap();
        assert!(usage.cpu_s > 0.0);
        assert!(usage.ctx_switches > 0);
        assert!(usage.max_rss_kib > 0);
        // Reaped: nothing is left to wait for.
        assert!(reap(child.id(), Duration::ZERO).is_err());
    }
}
