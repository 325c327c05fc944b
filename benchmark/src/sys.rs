//! What the benchmark reads from the host: wall clock, the process's
//! own CPU time and resident-set high-water mark, and a counting
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wall-clock span.
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Counts every allocation the process makes (all threads), so
/// `allocs_per_job` needs no feature flag in product code.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is
// a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// `(user, system)` CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_secs() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (ticks(), ticks());
    (user / 100.0, sys / 100.0)
}

/// Seconds the hypervisor ran something else while a virtual CPU of
/// this machine was runnable (`steal`, field 8 of the `cpu` line of
/// `/proc/stat`, all CPUs, 10 ms ticks). Other tenants' load shows
/// here and nowhere in the process's own accounts.
pub fn steal_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// This process's resident-set high-water mark (`VmHWM`), in MB.
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
        .map_or(0.0, |kb| kb / 1024.0)
}
