//! Span-traced run of the E1–E5 workloads.
//!
//! Replays the same workloads as `report_metrics` with the `pwdb-metrics`
//! span tracer recording, and writes the collected spans as
//! `BENCH_trace.json` in Chrome trace-event format (load it in
//! `chrome://tracing` or Perfetto). Each experiment is captured
//! separately so a dropped ring buffer in one cannot evict another's
//! spans; the event streams are concatenated into one document, which is
//! sound because span ids are unique per thread and timestamps share one
//! process-wide epoch.

use pwdb_bench::workloads;
use pwdb_metrics::Trace;

/// Ring capacity per experiment. E1 alone completes tens of thousands of
/// spans; this keeps the dominant cost structure while bounding memory.
const CAPACITY: usize = 1 << 16;

fn main() {
    pwdb_metrics::set_capacity(CAPACITY);

    let mut merged = Trace::default();
    let mut sections: Vec<(&str, usize, u64)> = Vec::new();
    for &(name, f) in workloads::ALL {
        let ((), trace) = pwdb_metrics::capture(f);
        sections.push((name, trace.spans.len(), trace.dropped));
        merged.dropped += trace.dropped;
        merged.spans.extend(trace.spans);
    }

    assert!(!merged.is_empty(), "workloads produced no spans");
    // Sanity: the span families the docs promise must all be present.
    for family in [
        "blu.clausal.assert",
        "blu.clausal.combine",
        "blu.clausal.complement",
        "blu.clausal.mask",
        "blu.clausal.genmask",
        "logic.dpll.solve",
        "hlu.stmt.insert",
        "hlu.query.certain",
    ] {
        assert!(
            merged.spans.iter().any(|s| s.name == family),
            "span family {family} never recorded"
        );
    }

    let doc = merged.to_chrome_json();
    let rendered = doc.render();

    // Round-trip through the hand-written parser before writing.
    let parsed = pwdb_metrics::json::Json::parse(&rendered).expect("rendered JSON must re-parse");
    assert_eq!(parsed.render(), rendered, "JSON round-trip mismatch");

    std::fs::write("BENCH_trace.json", &rendered).expect("write BENCH_trace.json");

    println!("wrote BENCH_trace.json ({} bytes)", rendered.len());
    for (name, spans, dropped) in &sections {
        if *dropped > 0 {
            println!("  {name}: {spans} span(s), {dropped} dropped (ring full)");
        } else {
            println!("  {name}: {spans} span(s)");
        }
    }
    println!(
        "  total: {} span(s), {} dropped",
        merged.spans.len(),
        merged.dropped
    );
}
