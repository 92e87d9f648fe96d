//! Host-cost counters: CPU time, context switches and peak memory.
//!
//! Whole-process figures come from `getrusage(RUSAGE_SELF)`, which Linux
//! documents as the sum over every thread of the process, exited ones
//! included. That matters here: the simulator's workload threads exit
//! before a batch ends, and `/proc/self/status` would count only the
//! main thread's switches. Per-thread figures come from
//! `/proc/thread-self`, read by the thread itself.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("procstat reads Linux procfs and the 64-bit Linux `struct rusage`");

/// CPU time and context switches, as a snapshot or a difference.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub voluntary: u64,
    pub involuntary: u64,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn switches(&self) -> u64 {
        self.voluntary + self.involuntary
    }

    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }

    pub fn add(&mut self, other: &Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.voluntary += other.voluntary;
        self.involuntary += other.involuntary;
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// The whole process's usage so far, every thread that ever ran included.
pub fn process() -> Usage {
    let mut ru = std::mem::MaybeUninit::<RUsage>::zeroed();
    // SAFETY: `ru` is a writable, properly aligned `struct rusage` of the
    // layout 64-bit Linux defines; `getrusage` only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    // SAFETY: zero-initialised and then filled by a successful call; every
    // field is a plain integer, so any bit pattern is valid.
    let ru = unsafe { ru.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        voluntary: ru.nvcsw as u64,
        involuntary: ru.nivcsw as u64,
    }
}

/// The calling thread's CPU time and switches, from `/proc/thread-self`.
/// CPU is the scheduler's nanosecond run time; the user/system split is
/// not available per thread at that resolution, so it all lands in
/// `user_s`.
pub fn thread() -> Usage {
    let schedstat = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let run_ns: u64 = schedstat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let status = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    Usage {
        user_s: run_ns as f64 * 1e-9,
        sys_s: 0.0,
        voluntary: status_field(&status, "voluntary_ctxt_switches:"),
        involuntary: status_field(&status, "nonvoluntary_ctxt_switches:"),
    }
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
