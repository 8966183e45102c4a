//! Process and machine facts read from `/proc` and `/sys`: CPU time and
//! peak resident memory of any process (this one or the served child),
//! cache sizes and core count for the report header.

use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every Linux ABI this workspace targets).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid` (all of
/// its threads), or 0 when `/proc` is unavailable.
pub fn cpu_s(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of stat(5), so utime (14) and stime
    // (15) sit at offsets 11 and 12 here.
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set size of process `pid` in MB (`VmHWM`), or 0.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Size of cache `level` (2 or 3) of cpu0 as reported by sysfs, e.g.
/// `"2048K"`; `"unknown"` when sysfs does not say.
pub fn cache_size(level: u32) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(l), Some(kind)) = (read("level"), read("type")) else {
            continue;
        };
        if l.trim() == level.to_string() && kind.trim() != "Instruction" {
            if let Some(size) = read("size") {
                return size.trim().to_string();
            }
        }
    }
    "unknown".to_string()
}

/// Wall and CPU time of one measured span of this process.
pub struct Span {
    t0: Instant,
    cpu0: f64,
    pid: u32,
}

impl Span {
    /// Starts measuring process `pid` (CPU) and the wall clock.
    pub fn start(pid: u32) -> Self {
        Self { t0: Instant::now(), cpu0: cpu_s(pid), pid }
    }

    /// (wall seconds, CPU seconds) since [`Span::start`].
    pub fn stop(&self) -> (f64, f64) {
        (self.t0.elapsed().as_secs_f64(), cpu_s(self.pid) - self.cpu0)
    }
}
