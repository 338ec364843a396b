//! End-to-end observability: driving the public BLU/HLU APIs must light up
//! the corresponding metric families, and live snapshots must survive the
//! hand-written JSON round-trip. Gated on the `metrics` feature — under
//! `--no-default-features` the instrumentation is compiled out and this
//! binary is empty.
#![cfg(feature = "metrics")]

use std::collections::BTreeSet;

use pwdb::blu::{BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::hlu::Database;
use pwdb::logic::{AtomId, Rng};
use pwdb_metrics::MetricsSnapshot;
use pwdb_suite::testgen;

/// Snapshot-delta around a workload. Tests in this binary run in
/// parallel against one global registry, so deltas may include other
/// tests' activity — assertions below are therefore all lower bounds.
fn delta_of(f: impl FnOnce()) -> MetricsSnapshot {
    let before = pwdb_metrics::snapshot();
    f();
    pwdb_metrics::snapshot().delta(&before)
}

#[test]
fn blu_primitives_bump_their_counters() {
    let mut rng = Rng::new(0x0B5E_0001);
    let x = testgen::clause_set(&mut rng, 6, 5, 3);
    let y = testgen::clause_set(&mut rng, 6, 4, 3);
    let mask: BTreeSet<AtomId> = [AtomId(0), AtomId(2)].into_iter().collect();

    let alg = BluClausal::paper_exact();
    let d = delta_of(|| {
        std::hint::black_box(alg.op_assert(&x, &y));
        std::hint::black_box(alg.op_combine(&x, &y));
        std::hint::black_box(alg.op_complement(&y));
        std::hint::black_box(alg.op_mask(&x, &mask));
        std::hint::black_box(alg.op_genmask(&x));
    });

    for name in [
        "blu.assert.calls",
        "blu.combine.calls",
        "blu.complement.calls",
        "blu.mask.calls",
        "blu.genmask.calls",
    ] {
        assert!(
            d.counter(name) >= 1,
            "{name} did not fire: {:?}",
            d.counters
        );
    }
    // Input-size accounting fired alongside the calls.
    assert!(d.counter("blu.assert.in_length") > 0);
    // Wall time was attributed to each primitive.
    assert!(d.timers.contains_key("blu.assert.wall"));
    assert!(d.timers.contains_key("blu.genmask.wall"));
    // Output sizes landed in the histograms.
    assert!(d.histograms.contains_key("blu.assert.out_length"));
}

#[test]
fn sat_genmask_drives_the_dpll_counters() {
    let mut rng = Rng::new(0x0B5E_0002);
    let alg = BluClausal::paper_exact().with_genmask(GenmaskStrategy::SatBased);
    let d = delta_of(|| {
        for _ in 0..4 {
            let phi = testgen::clause_set(&mut rng, 7, 8, 3);
            std::hint::black_box(alg.op_genmask(&phi));
        }
    });
    assert!(d.counter("blu.genmask.calls") >= 4);
    assert!(
        d.counter("logic.dpll.solves") > 0,
        "SAT strategy must reach DPLL"
    );
}

#[test]
fn hlu_database_bumps_statement_and_query_counters() {
    let mut rng = Rng::new(0x0B5E_0003);
    let mut db = Database::with_backend(BluClausal::paper_exact());
    let d = delta_of(|| {
        for _ in 0..6 {
            db.insert(testgen::literal_disjunction(&mut rng, 8));
        }
        for _ in 0..4 {
            let q = testgen::wff(&mut rng, 8, 2);
            std::hint::black_box(db.is_certain(&q));
            std::hint::black_box(db.is_possible(&q));
        }
    });
    assert!(d.counter("hlu.stmt.total") >= 6);
    assert!(d.counter("hlu.stmt.insert") >= 6);
    assert!(d.counter("hlu.query.certain.calls") >= 4);
    assert!(d.counter("hlu.query.possible.calls") >= 4);
    assert!(d.timers.contains_key("hlu.update.wall"));
    assert!(d.timers.contains_key("hlu.query.certain.wall"));
}

#[test]
fn counters_are_monotone_across_snapshots() {
    let mut rng = Rng::new(0x0B5E_0004);
    let alg = BluClausal::paper_exact();
    let s1 = pwdb_metrics::snapshot();
    let x = testgen::clause_set(&mut rng, 6, 5, 3);
    let y = testgen::clause_set(&mut rng, 6, 5, 3);
    std::hint::black_box(alg.op_combine(&x, &y));
    let s2 = pwdb_metrics::snapshot();
    for (name, &v1) in &s1.counters {
        assert!(
            s2.counter(name) >= v1,
            "counter {name} went backwards: {v1} -> {}",
            s2.counter(name)
        );
    }
}

#[test]
fn live_snapshot_round_trips_through_json() {
    let mut rng = Rng::new(0x0B5E_0005);
    let alg = BluClausal::paper_exact();
    let x = testgen::clause_set(&mut rng, 6, 6, 3);
    std::hint::black_box(alg.op_complement(&x));
    std::hint::black_box(alg.op_genmask(&x));

    let snap = pwdb_metrics::snapshot();
    let text = snap.to_json();
    let back = MetricsSnapshot::from_json(&text).expect("snapshot JSON must re-parse");
    assert_eq!(back, snap);
}
