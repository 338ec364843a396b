//! The enabled tracer: a thread-local span stack feeding a bounded
//! ring buffer of completed [`SpanRecord`]s.
//!
//! Recording is off by default even in an enabled build — call sites
//! pay one thread-local flag check until [`set_enabled`] (or
//! [`capture`]) turns recording on for the current thread.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use crate::record::{AttrValue, SpanRecord, Trace};

/// Default ring-buffer capacity (completed spans retained per thread).
pub(crate) const DEFAULT_CAPACITY: usize = 4096;

/// Per-thread tracer state.
struct Tracer {
    enabled: bool,
    next_id: u64,
    stack: Vec<Open>,
    ring: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            enabled: false,
            next_id: 1,
            stack: Vec::new(),
            ring: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        }
    }

    fn push_record(&mut self, rec: SpanRecord) {
        // Drop-oldest keeps ancestor closure intact: a span's ancestors
        // always complete after it, so they sit *later* in the ring and
        // survive at least as long as the span itself.
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Nanoseconds from the process trace epoch to `at`.
fn epoch_ns(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// Turns recording on or off for the current thread. Off by default;
/// already-open spans are unaffected (they complete into the ring only
/// if they were begun while recording).
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Whether the current thread is recording spans.
pub fn is_enabled() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Resizes the current thread's ring buffer (existing overflow is
/// evicted oldest-first and counted as dropped).
pub fn set_capacity(capacity: usize) {
    TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        tr.capacity = capacity.max(1);
        while tr.ring.len() > tr.capacity {
            tr.ring.pop_front();
            tr.dropped += 1;
        }
    });
}

/// Drains the current thread's completed spans (and the dropped count),
/// leaving the ring empty. Open spans stay on the stack and will land
/// in the *next* drain when they complete.
pub fn take() -> Trace {
    TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        let spans = tr.ring.drain(..).collect();
        let dropped = std::mem::take(&mut tr.dropped);
        Trace { spans, dropped }
    })
}

/// The ambient tracer state [`capture`] stashes; dropping it puts the
/// state back, so the restore also runs when the captured closure
/// unwinds (a governor abort, a panic caught further up).
struct Stash {
    enabled: bool,
    ring: VecDeque<SpanRecord>,
    dropped: u64,
}

impl Drop for Stash {
    fn drop(&mut self) {
        TRACER.with(|t| {
            let mut tr = t.borrow_mut();
            tr.enabled = self.enabled;
            tr.ring = std::mem::take(&mut self.ring);
            tr.dropped = self.dropped;
        });
    }
}

/// Runs `f` with recording force-enabled on a fresh ring, returning its
/// result together with exactly the spans recorded during the call.
/// The previous ring contents, dropped count, and enabled flag are
/// restored afterwards — even if `f` unwinds — so an ambient
/// `:trace on` session does not lose its accumulated spans to a nested
/// `EXPLAIN`.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let _stash = TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        Stash {
            enabled: std::mem::replace(&mut tr.enabled, true),
            ring: std::mem::take(&mut tr.ring),
            dropped: std::mem::take(&mut tr.dropped),
        }
    });
    let result = f();
    (result, take())
}

/// Opens a span named `name` on the current thread. The returned guard
/// closes the span on drop; if recording is off the guard is inert and
/// the call costs one thread-local flag check.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::open(name, Instant::now)
}

/// An RAII guard for an open span; dropping it ends the span.
#[must_use = "dropping the guard ends the span immediately"]
pub struct SpanGuard {
    /// 0 means inert (recording was off when the span was opened, or the
    /// span is already closed).
    id: u64,
}

impl SpanGuard {
    /// Opens `name`, reading the begin time from `start` only if the
    /// thread is recording.
    pub(crate) fn open(name: &'static str, start: impl FnOnce() -> Instant) -> SpanGuard {
        let id = TRACER.with(|t| {
            let mut tr = t.borrow_mut();
            if !tr.enabled {
                return 0;
            }
            let id = tr.next_id;
            tr.next_id += 1;
            let parent = tr.stack.last().map(|o| o.id);
            tr.stack.push(Open {
                id,
                parent,
                name,
                start_ns: epoch_ns(start()),
                attrs: Vec::new(),
            });
            id
        });
        SpanGuard { id }
    }

    /// Whether this guard refers to a live, recording span. Use to gate
    /// expensive attribute computation:
    /// `if sp.is_recording() { sp.attr("cost", big_product()); }`
    pub fn is_recording(&self) -> bool {
        self.id != 0
    }

    /// Attaches a structured attribute to the span (no-op if inert).
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        if self.id == 0 {
            return;
        }
        let value = value.into();
        TRACER.with(|t| {
            let mut tr = t.borrow_mut();
            if let Some(open) = tr.stack.iter_mut().rev().find(|o| o.id == self.id) {
                open.attrs.push((key, value));
            }
        });
    }

    /// Ends the span at `end` and leaves the guard inert.
    pub(crate) fn close(&mut self, end: Instant) {
        if self.id == 0 {
            return;
        }
        let end_ns = epoch_ns(end);
        TRACER.with(|t| {
            let mut tr = t.borrow_mut();
            // Close any spans above ours that leaked (their guards were
            // forgotten); the stack discipline must stay consistent.
            while let Some(open) = tr.stack.pop() {
                let done = open.id == self.id;
                let rec = SpanRecord {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    start_ns: open.start_ns,
                    dur_ns: end_ns.saturating_sub(open.start_ns),
                    attrs: open.attrs,
                };
                tr.push_record(rec);
                if done {
                    break;
                }
            }
        });
        self.id = 0;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            self.close(Instant::now());
        }
    }
}
