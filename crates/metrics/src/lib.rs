//! `pwdb-metrics`: zero-dependency observability — metrics and span
//! tracing — hand-rolled on `std::sync::atomic`, thread-locals and
//! `std::time::Instant`.
//!
//! The paper's central empirical claims are complexity bounds (Theorems
//! 2.3.4(b), 2.3.6(b), 2.3.9(b)); this crate makes those costs visible at
//! runtime.
//!
//! # Metrics
//!
//! Metrics are named with dotted paths (`"blu.combine.calls"`) and live in
//! a global registry; handles are `&'static` and lock-free on the hot
//! path. There are three kinds: monotone [`Counter`]s (`AtomicU64` event
//! counts), wall-time timers (count + total nanoseconds) and log2-bucketed
//! size histograms (count, sum and one bucket per power of two). The
//! [`counter!`] macro caches the registry lookup in a per-call-site
//! `OnceLock`, so steady-state cost is one relaxed atomic op. [`snapshot`]
//! copies every registered metric into a [`MetricsSnapshot`].
//!
//! # Spans
//!
//! The paper defines HLU purely by translation into BLU (§3.1–3.2) and
//! gives each BLU-C primitive an explicit algorithm with a complexity
//! bound (Algorithms 2.3.3 / 2.3.5 / 2.3.8). That makes every HLU
//! statement's execution a concrete tree — translation nodes over
//! primitive invocations over logic-layer work — recorded as *spans*:
//!
//! * [`span()`] / [`span!`] open a named span on a **thread-local stack**;
//!   the returned [`SpanGuard`] closes it on drop, so lexical scope is
//!   span scope and nesting falls out of the call structure.
//! * Spans carry **structured attributes** ([`SpanGuard::attr`]) with
//!   `&'static str` keys and u64/string values — clause counts, the
//!   theorem's dominant cost term, strategy names.
//! * Completed spans land in a bounded per-thread **ring buffer**
//!   (drop-oldest; eviction preserves ancestor closure because parents
//!   complete after their children). [`take`] drains it as a [`Trace`].
//! * [`capture`] runs a closure with recording force-enabled on a fresh
//!   ring and returns exactly the spans it produced — the engine behind
//!   `EXPLAIN`.
//! * [`Trace::render_tree`] renders an indented tree;
//!   [`Trace::to_chrome_json`] emits Chrome trace-event JSON (built on
//!   [`json::Json`]) loadable in `chrome://tracing`.
//!
//! Recording is **off by default** per thread — call sites pay a single
//! thread-local flag check until [`set_enabled`] turns tracing on or
//! [`capture`] scopes it around one call.
//!
//! # Probes
//!
//! A site whose cost the paper bounds — a BLU primitive, an HLU update or
//! query — opens one [`probe!`]. Its guard takes one start and one end
//! instant and, on close, counts the call, adds the elapsed time to the
//! site's `*.wall` timer, records the output size in the site's histogram
//! (via [`Probe::finish`]) and ends the span with its attributes.
//!
//! # Feature-gated no-op mode
//!
//! With the `enabled` feature off (build the workspace with
//! `--no-default-features`) every type becomes a zero-sized struct with
//! inlined empty methods and [`counter!`] expands to a `'static` promoted
//! unit reference, so instrumented call sites compile to nothing.
//! [`MetricsSnapshot`] and [`Trace`] exist in both modes; in no-op mode
//! [`snapshot`], [`take`] and [`capture`] return empty ones.

pub mod json;
mod record;
mod snapshot;

pub use record::{AttrValue, SpanRecord, Trace};
pub use snapshot::{HistogramStat, MetricsSnapshot, TimerStat};

#[cfg(feature = "enabled")]
mod real;
#[cfg(feature = "enabled")]
mod tracer;
#[cfg(feature = "enabled")]
pub use real::{counter, reset, snapshot, Counter, Probe, ProbeSite};
#[cfg(feature = "enabled")]
pub use tracer::{capture, is_enabled, set_capacity, set_enabled, span, take, SpanGuard};

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
pub use noop::{
    capture, counter, is_enabled, reset, set_capacity, set_enabled, snapshot, span, take, Counter,
    Probe, ProbeSite, SpanGuard,
};

/// Look up (and cache per call site) the counter with the given name.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __PWDB_COUNTER: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__PWDB_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// No-op expansion: a `'static` zero-sized handle; calls inline to nothing.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        &$crate::Counter
    };
}

/// Opens a span for the enclosing scope, optionally attaching initial
/// attributes:
///
/// ```
/// let _sp = pwdb_metrics::span!("blu.clausal.assert");
/// let _sp2 = pwdb_metrics::span!("blu.clausal.combine", "in_left" => 3u64, "in_right" => 4u64);
/// ```
///
/// One definition serves both modes: [`span()`] and [`SpanGuard::attr`]
/// exist (with identical signatures) in the enabled and no-op builds, so
/// the expansion monomorphizes to nothing when instrumentation is
/// compiled out.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:expr => $value:expr),+ $(,)?) => {{
        let __pwdb_span = $crate::span($name);
        $(__pwdb_span.attr($key, $value);)+
        __pwdb_span
    }};
}

/// Opens a [`Probe`]: a span named by the first argument plus the call
/// counter, wall-time timer and (optional) output-size histogram of this
/// call site, followed by any initial span attributes:
///
/// ```
/// let p = pwdb_metrics::probe!(
///     "blu.clausal.complement",
///     calls = "blu.complement.calls",
///     wall = "blu.complement.wall",
///     out = "blu.complement.out_length",
///     "in_clauses" => 3u64,
/// );
/// p.attr("out_clauses", 8u64);
/// p.finish(17); // or drop `p`: the same, minus the histogram entry
/// ```
///
/// The metric names are literals resolved once per site; the span name
/// may be any `&'static str` expression. Like [`span!`], one definition
/// serves both modes.
#[macro_export]
macro_rules! probe {
    (@out) => {
        ::core::option::Option::None
    };
    (@out $out:literal) => {
        ::core::option::Option::Some($out)
    };
    ($span:expr, calls = $calls:literal, wall = $wall:literal $(, out = $out:literal)?
        $(, $key:literal => $value:expr)* $(,)?) => {{
        static __PWDB_PROBE: $crate::ProbeSite =
            $crate::ProbeSite::new($calls, $wall, $crate::probe!(@out $($out)?));
        let __pwdb_probe = __PWDB_PROBE.open($span);
        $(__pwdb_probe.attr($key, $value);)*
        __pwdb_probe
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    #[test]
    fn counters_are_monotone() {
        let c = counter("test.monotone");
        let mut last = c.get();
        for i in 1..=100u64 {
            if i % 3 == 0 {
                c.add(i);
            } else {
                c.inc();
            }
            let now = c.get();
            assert!(now > last, "counter must strictly grow on inc/add");
            last = now;
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn macro_caches_same_handle() {
        let a = counter!("test.macro_cached");
        a.inc();
        let b = counter!("test.macro_cached_other");
        b.add(2);
        assert_eq!(counter("test.macro_cached").get(), 1);
        assert_eq!(counter("test.macro_cached_other").get(), 2);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn timer_accumulates() {
        let t = real::timer("test.timer");
        t.observe(std::time::Duration::from_nanos(5));
        assert_eq!((t.count(), t.total_ns()), (1, 5));
        t.observe(std::time::Duration::from_nanos(7));
        assert_eq!((t.count(), t.total_ns()), (2, 12));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn histogram_buckets_by_log2() {
        let h = real::histogram("test.hist");
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let snap = snapshot();
        let stat = &snap.histograms["test.hist"];
        // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4 -> bucket 3;
        // 1000 -> bucket 10.
        assert_eq!(stat.buckets[&0], 1);
        assert_eq!(stat.buckets[&1], 1);
        assert_eq!(stat.buckets[&2], 2);
        assert_eq!(stat.buckets[&3], 1);
        assert_eq!(stat.buckets[&10], 1);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn snapshot_delta_subtracts() {
        let c = counter("test.delta");
        c.add(5);
        let before = snapshot();
        c.add(7);
        let after = snapshot();
        assert_eq!(after.delta(&before).counter("test.delta"), 7);
    }

    /// One probe call feeds its counter, timer, histogram and span from
    /// one pair of instants: the span's duration is the timer's total.
    #[cfg(feature = "enabled")]
    #[test]
    fn probe_records_counter_timer_histogram_and_span() {
        let ((), trace) = with_recording(|| {
            // The enclosing span fixes the trace epoch before any probe.
            let _outer = span!("test.outer");
            for out in [3, 5] {
                let p = probe!(
                    "test.probe",
                    calls = "test.probe.calls",
                    wall = "test.probe.wall",
                    out = "test.probe.out",
                    "in" => 2u64,
                );
                p.attr("out", out);
                p.finish(out);
            }
            drop(probe!(
                "test.probe.bare",
                calls = "test.probe.bare.calls",
                wall = "test.probe.bare.wall"
            ));
        });
        let snap = snapshot();
        assert_eq!(snap.counter("test.probe.calls"), 2);
        assert_eq!(snap.counter("test.probe.bare.calls"), 1);
        let wall = snap.timers["test.probe.wall"];
        assert_eq!(wall.count, 2);
        let out = &snap.histograms["test.probe.out"];
        assert_eq!((out.count, out.sum), (2, 8));
        assert_eq!(
            trace.names_pre_order(),
            vec!["test.outer", "test.probe", "test.probe", "test.probe.bare"]
        );
        let spans = trace.pre_order();
        assert_eq!(spans[2].attr_u64("in"), Some(2));
        assert_eq!(spans[2].attr_u64("out"), Some(5));
        assert_eq!(spans[1].dur_ns + spans[2].dur_ns, wall.total_ns);
    }

    /// Runs `f` under [`capture`] after discarding anything a prior test
    /// on this thread left in the ring.
    #[cfg(feature = "enabled")]
    fn with_recording<R>(f: impl FnOnce() -> R) -> (R, Trace) {
        let _ = take();
        capture(f)
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_nest_lexically() {
        let (_, trace) = with_recording(|| {
            let _a = span!("outer");
            {
                let _b = span!("inner.first");
            }
            let _c = span!("inner.second");
        });
        assert_eq!(
            trace.names_pre_order(),
            vec!["outer", "inner.first", "inner.second"]
        );
        let pre = trace.pre_order();
        assert_eq!(pre[1].parent, Some(pre[0].id));
        assert_eq!(pre[2].parent, Some(pre[0].id));
        assert!(pre[0].dur_ns >= pre[1].dur_ns);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn attributes_attach_to_the_right_span() {
        let (_, trace) = with_recording(|| {
            let sp = span!("op", "in" => 5u64);
            assert!(sp.is_recording());
            {
                let inner = span!("child");
                inner.attr("mode", "fast");
            }
            sp.attr("out", 7u64);
        });
        let pre = trace.pre_order();
        assert_eq!(pre[0].attr_u64("in"), Some(5));
        assert_eq!(pre[0].attr_u64("out"), Some(7));
        assert_eq!(pre[1].attrs, vec![("mode", AttrValue::Str("fast".into()))]);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn disabled_thread_records_nothing() {
        let _ = take();
        assert!(!is_enabled());
        {
            let sp = span!("ghost");
            assert!(!sp.is_recording());
            sp.attr("x", 1u64);
        }
        assert!(take().is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn ring_buffer_bounds_memory_and_counts_drops() {
        set_capacity(8);
        let (_, trace) = with_recording(|| {
            for _ in 0..20 {
                let _sp = span!("tick");
            }
        });
        set_capacity(tracer::DEFAULT_CAPACITY);
        assert_eq!(trace.spans.len(), 8);
        assert_eq!(trace.dropped, 12);
        let text = trace.render_tree();
        assert!(text.contains("12 span(s) dropped"), "{text}");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn capture_restores_ambient_ring_and_flag() {
        let _ = take();
        set_enabled(true);
        {
            let _sp = span!("ambient.before");
        }
        let ((), inner) = capture(|| {
            let _sp = span!("captured");
        });
        assert_eq!(inner.names_pre_order(), vec!["captured"]);
        assert!(is_enabled(), "capture must restore the enabled flag");
        {
            let _sp = span!("ambient.after");
        }
        set_enabled(false);
        let ambient = take();
        assert_eq!(
            ambient.names_pre_order(),
            vec!["ambient.before", "ambient.after"],
            "EXPLAIN must not steal the ambient session's spans"
        );
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn capture_returns_the_closure_result() {
        let (n, trace) = with_recording(|| {
            let _sp = span!("work");
            41 + 1
        });
        assert_eq!(n, 42);
        assert_eq!(trace.spans.len(), 1);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn timestamps_are_monotone_and_nested() {
        let (_, trace) = with_recording(|| {
            let _a = span!("parent");
            let _b = span!("child");
        });
        let pre = trace.pre_order();
        let (parent, child) = (pre[0], pre[1]);
        assert!(child.start_ns >= parent.start_ns);
        assert!(child.start_ns + child.dur_ns <= parent.start_ns + parent.dur_ns);
    }

    /// In no-op mode the whole API must still typecheck and run — and
    /// observe nothing.
    #[cfg(not(feature = "enabled"))]
    #[test]
    fn noop_mode_observes_nothing() {
        let c = counter!("test.noop");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(snapshot().counters.is_empty());

        set_enabled(true);
        assert!(!is_enabled());
        {
            let sp = span!("ghost", "k" => 1u64);
            assert!(!sp.is_recording());
            sp.attr("x", "y");
        }
        let (n, trace) = capture(|| {
            let p = probe!(
                "test.noop.probe",
                calls = "test.noop.calls",
                wall = "test.noop.wall",
                out = "test.noop.out",
                "in" => 1u64,
            );
            assert!(!p.is_recording());
            p.attr("x", "y");
            p.finish(42);
            7
        });
        assert_eq!(n, 7);
        assert!(trace.is_empty());
        assert!(take().is_empty());
        assert_eq!(snapshot(), MetricsSnapshot::default());

        // Zero-cost claim, structurally: all handles are zero-sized.
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert_eq!(std::mem::size_of::<ProbeSite>(), 0);
        assert_eq!(std::mem::size_of::<Probe>(), 0);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.b".into(), 3);
        snap.counters.insert("a.c".into(), u64::MAX);
        snap.timers.insert(
            "t.x".into(),
            TimerStat {
                count: 2,
                total_ns: 12345,
            },
        );
        let mut buckets = std::collections::BTreeMap::new();
        buckets.insert(0u32, 1u64);
        buckets.insert(7, 4);
        snap.histograms.insert(
            "h.y".into(),
            HistogramStat {
                count: 5,
                sum: 640,
                buckets,
            },
        );
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("parse back");
        assert_eq!(back, snap);
    }
}
