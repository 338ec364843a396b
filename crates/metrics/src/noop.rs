//! The no-op mirror of [`crate::real`] and [`crate::tracer`], compiled
//! when the `enabled` feature is off. Every type is zero-sized and every
//! function is an inlined empty body, so instrumented call sites optimize
//! away entirely.

use crate::record::{AttrValue, Trace};
use crate::MetricsSnapshot;

/// Zero-sized no-op counter.
#[derive(Debug)]
pub struct Counter;

impl Counter {
    #[inline(always)]
    pub fn inc(&self) {}

    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

#[inline(always)]
pub fn counter(_name: &'static str) -> &'static Counter {
    &Counter
}

/// Always empty in no-op mode.
#[inline(always)]
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot::default()
}

#[inline(always)]
pub fn reset() {}

/// Zero-sized no-op probe site.
pub struct ProbeSite;

impl ProbeSite {
    pub const fn new(
        _calls: &'static str,
        _wall: &'static str,
        _out: Option<&'static str>,
    ) -> Self {
        ProbeSite
    }

    #[inline(always)]
    pub fn open(&'static self, _span: &'static str) -> Probe {
        Probe
    }
}

/// Zero-sized stand-in for the enabled build's probe guard.
#[must_use = "dropping the probe ends the call immediately"]
pub struct Probe;

impl Probe {
    /// Always `false`: nothing records in a no-op build.
    #[inline(always)]
    pub fn is_recording(&self) -> bool {
        false
    }

    #[inline(always)]
    pub fn attr(&self, _key: &'static str, _value: impl Into<AttrValue>) {}

    #[inline(always)]
    pub fn finish(self, _out: usize) {}
}

/// No-op: recording cannot be enabled in this build.
#[inline(always)]
pub fn set_enabled(_on: bool) {}

/// Always `false` in a no-op build.
#[inline(always)]
pub fn is_enabled() -> bool {
    false
}

/// No-op: there is no ring buffer in this build.
#[inline(always)]
pub fn set_capacity(_capacity: usize) {}

/// Always returns an empty [`Trace`].
#[inline(always)]
pub fn take() -> Trace {
    Trace::default()
}

/// Runs `f` and returns its result with an empty [`Trace`].
#[inline(always)]
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    (f(), Trace::default())
}

/// Returns an inert zero-sized guard.
#[inline(always)]
pub fn span(_name: &'static str) -> SpanGuard {
    SpanGuard
}

/// Zero-sized stand-in for the enabled build's RAII span guard.
#[must_use = "dropping the guard ends the span immediately"]
pub struct SpanGuard;

impl SpanGuard {
    /// Always `false`: nothing records in a no-op build.
    #[inline(always)]
    pub fn is_recording(&self) -> bool {
        false
    }

    #[inline(always)]
    pub fn attr(&self, _key: &'static str, _value: impl Into<AttrValue>) {}
}
