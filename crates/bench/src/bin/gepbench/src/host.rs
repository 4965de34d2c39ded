//! Host context and process accounting from `/proc`, plus the
//! benchmark-side spans of a traced run.

use gep_obs::Json;
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process, all threads, in seconds.
/// `/proc/self/stat` counts in clock ticks, which Linux fixes at 100/s
/// for user space.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after it do not.
    let fields: Vec<&str> = stat
        .rsplit_once(") ")
        .map_or(Vec::new(), |(_, rest)| rest.split(' ').collect());
    let ticks = |idx: usize| fields.get(idx).and_then(|f| f.parse::<f64>().ok());
    // utime and stime are fields 14 and 15 of the whole line, so 11 and
    // 12 after the command name.
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// The CPUs this process may run on, ascending (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or_default();
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restricts the calling thread to `cpu`; false if that failed or this
/// platform has no implementation here (Linux on x86-64 only).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(cpu: usize) -> bool {
    const SCHED_SETAFFINITY: isize = 203;
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    let ret: isize;
    // SAFETY: sched_setaffinity(2) with pid 0 (the calling thread) only
    // reads `size_of::<u64>()` bytes from `mask`, which outlives the
    // call; the syscall instruction clobbers rcx and r11 besides rax,
    // all declared, and touches no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of::<u64>(),
            in("rdx") &mask as *const u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// without looking above it; `unknown` outside a git checkout.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
                        .unwrap_or_default()
                })
            })
            .unwrap_or_default(),
    };
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash
    }
}

/// Benchmark-side spans around each public call of a traced run, kept
/// in memory and written once as Chrome trace-event JSON at the end.
pub struct Spans {
    t0: Instant,
    events: Vec<Json>,
}

impl Spans {
    pub fn new(t0: Instant) -> Spans {
        Spans {
            t0,
            events: Vec::new(),
        }
    }

    /// Records one completed call on thread lane `tid`.
    pub fn record(&mut self, name: &str, cat: &str, tid: i64, start: Instant, dur: Duration) {
        let us = |d: Duration| Json::Float(d.as_nanos() as f64 / 1e3);
        self.events.push(Json::obj(vec![
            ("name", Json::Str(name.into())),
            ("cat", Json::Str(cat.into())),
            ("ph", Json::Str("X".into())),
            ("ts", us(start.saturating_duration_since(self.t0))),
            ("dur", us(dur)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid)),
        ]));
    }

    /// An empty set on the same clock, for another thread to fill.
    pub fn fork(&self) -> Spans {
        Spans::new(self.t0)
    }

    pub fn append(&mut self, other: Spans) {
        self.events.extend(other.events);
    }

    pub fn into_json(self) -> Json {
        Json::obj(vec![
            ("traceEvents", Json::Arr(self.events)),
            ("displayTimeUnit", Json::Str("ns".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(parallelism() >= 1);
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn spans_write_a_chrome_trace_that_parses() {
        let t0 = Instant::now();
        let mut spans = Spans::new(t0);
        spans.record("apsp", "solve", 0, t0, Duration::from_micros(1500));
        let mut other = spans.fork();
        other.record("dist", "read", 1, t0, Duration::from_nanos(40_500));
        spans.append(other);
        let doc = Json::parse(&spans.into_json().to_string()).expect("trace parses as JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("dist"));
    }
}
