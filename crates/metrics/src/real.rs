//! The live metrics registry and the [`Probe`] guard, compiled when the
//! `enabled` feature is on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::record::AttrValue;
use crate::tracer::SpanGuard;
use crate::{HistogramStat, MetricsSnapshot, TimerStat};

/// A monotone event counter on a relaxed `AtomicU64`.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Accumulated wall time: an event count plus total elapsed nanoseconds.
#[derive(Debug)]
pub(crate) struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Timer {
    fn new() -> Self {
        Timer {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn observe(&self, elapsed: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

const BUCKETS: usize = 65;

/// A log2-bucketed size distribution. Bucket `0` holds zeros; bucket `i`
/// (for `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`.
pub(crate) struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    timers: Mutex<BTreeMap<&'static str, &'static Timer>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        timers: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// The counter registered under `name` (created on first use).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// The timer registered under `name` (created on first use).
pub(crate) fn timer(name: &'static str) -> &'static Timer {
    let mut map = registry().timers.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Timer::new())))
}

/// The histogram registered under `name` (created on first use).
pub(crate) fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = registry().histograms.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// The metric handles of one [`probe!`](crate::probe) call site: its call
/// counter, its wall-time timer and, optionally, its output-size
/// histogram. Built in a `static` by the macro; the registry lookups run
/// once, on the site's first call.
pub struct ProbeSite {
    calls: &'static str,
    wall: &'static str,
    out: Option<&'static str>,
    handles: OnceLock<Handles>,
}

struct Handles {
    calls: &'static Counter,
    wall: &'static Timer,
    out: Option<&'static Histogram>,
}

impl ProbeSite {
    /// A site with these metric names; nothing is registered until its
    /// first [`open`](ProbeSite::open).
    pub const fn new(calls: &'static str, wall: &'static str, out: Option<&'static str>) -> Self {
        ProbeSite {
            calls,
            wall,
            out,
            handles: OnceLock::new(),
        }
    }

    /// Starts one call at this site, inside a span named `span`.
    #[inline]
    pub fn open(&'static self, span: &'static str) -> Probe {
        let handles = self.handles.get_or_init(|| Handles {
            calls: counter(self.calls),
            wall: timer(self.wall),
            out: self.out.map(histogram),
        });
        let start = Instant::now();
        Probe {
            handles,
            start,
            span: SpanGuard::open(span, || start),
        }
    }
}

/// One instrumented call: a span plus its site's metrics, sharing one
/// start and one end instant. Dropping the probe closes it — it counts
/// the call, adds the elapsed time to the wall timer and ends the span —
/// and so does [`Probe::finish`], which also records the output size.
#[must_use = "dropping the probe ends the call immediately"]
pub struct Probe {
    handles: &'static Handles,
    start: Instant,
    span: SpanGuard,
}

impl Probe {
    /// Whether the span is recording (gate costly attributes on this).
    pub fn is_recording(&self) -> bool {
        self.span.is_recording()
    }

    /// Attaches a structured attribute to the span.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        self.span.attr(key, value);
    }

    /// Closes the probe, recording `out` in the site's output-size
    /// histogram (if it has one).
    pub fn finish(self, out: usize) {
        if let Some(h) = self.handles.out {
            h.record(out as u64);
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let end = Instant::now();
        self.handles.calls.inc();
        self.handles.wall.observe(end.duration_since(self.start));
        self.span.close(end);
    }
}

/// A point-in-time copy of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut snap = MetricsSnapshot::default();
    for (name, c) in reg.counters.lock().unwrap().iter() {
        snap.counters.insert((*name).to_owned(), c.get());
    }
    for (name, t) in reg.timers.lock().unwrap().iter() {
        snap.timers.insert(
            (*name).to_owned(),
            TimerStat {
                count: t.count(),
                total_ns: t.total_ns(),
            },
        );
    }
    for (name, h) in reg.histograms.lock().unwrap().iter() {
        let mut buckets = BTreeMap::new();
        for (i, b) in h.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.insert(i as u32, n);
            }
        }
        snap.histograms.insert(
            (*name).to_owned(),
            HistogramStat {
                count: h.count(),
                sum: h.sum(),
                buckets,
            },
        );
    }
    snap
}

/// Zero every registered metric (handles stay valid).
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().values() {
        c.reset();
    }
    for t in reg.timers.lock().unwrap().values() {
        t.reset();
    }
    for h in reg.histograms.lock().unwrap().values() {
        h.reset();
    }
}
