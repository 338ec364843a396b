//! Spreads a run evenly over the CPUs the process may use.
//!
//! On a shared host the CPUs given to a process need not be equally
//! fast: one may share its core with a busy neighbour. The scheduler
//! keeps a single-threaded run on the CPU it started on, so without help
//! a run's timings depend on where it landed (25k against 33k ops/s on
//! `kb_memory` on a 2-vCPU Xeon VM). The benchmark therefore moves its
//! thread to each allowed CPU in turn: the operations of a round are
//! split into one equal run per CPU, one CPU after another, and every
//! set-up and reopen is timed once on each CPU and the times averaged.
//! A move happens outside the timed region.
//!
//! Where the affinity calls are unavailable the run stays where the
//! scheduler puts it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The CPUs the process may run on when the run starts.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(sys::allowed)
}

/// The index into [`allowed`] of the CPU the next move goes to.
static NEXT: AtomicUsize = AtomicUsize::new(0);

/// The number of CPUs the run is spread over (at least 1).
pub(crate) fn count() -> usize {
    allowed().len().max(1)
}

/// Moves the calling thread to the next allowed CPU.
fn rotate() {
    let cpus = allowed();
    if cpus.len() > 1 {
        let next = NEXT.fetch_add(1, Ordering::Relaxed) % cpus.len();
        sys::pin(cpus[next]);
    }
}

/// Moves to the next CPU when operation `i` of `len` starts the next of
/// [`count`] equal runs of a round. Returns the time the move took,
/// which the caller leaves out of the timed region.
///
/// One move per CPU and round, not more: the first operations after a
/// move run on cold caches, and more moves would put them in the tail
/// of the latency quantiles.
pub(crate) fn rotate_at(i: usize, len: usize) -> Duration {
    let n = count();
    if i == 0 || i * n / len == (i - 1) * n / len {
        return Duration::ZERO;
    }
    let t = Instant::now();
    rotate();
    t.elapsed()
}

/// Visits each allowed CPU once: the thread moves to the next CPU before
/// each item.
pub(crate) fn each() -> impl Iterator<Item = ()> {
    (0..count()).map(|_| rotate())
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of glibc and musl: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub(super) fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable `cpu_set_t`-sized buffer; pid 0 is
        // the calling thread.
        let ok = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) } == 0;
        if !ok {
            return Vec::new();
        }
        (0..set.len() * 64)
            .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub(super) fn pin(cpu: usize) {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable `cpu_set_t`; pid 0 is the calling
        // thread. A failure leaves the thread where it is.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &set) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub(super) fn pin(_cpu: usize) {}
}
