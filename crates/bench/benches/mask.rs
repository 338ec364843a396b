//! Timing harness for E4 (Theorem 2.3.6(b)): `mask` cost versus the
//! number of masked letters and the state size.

use std::collections::BTreeSet;

use pwdb::blu::BluClausal;
use pwdb::logic::AtomId;
use pwdb_bench::{fmt_duration, print_table, random_clause_set, rng, time_median};

fn bench_mask_by_letters() {
    let alg = BluClausal::paper_exact();
    let mut r = rng(4000);
    let state = random_clause_set(&mut r, 24, 60, 3);
    let mut rows = Vec::new();
    for p in [1usize, 2, 4, 6] {
        let mask: BTreeSet<AtomId> = (0..p as u32).map(AtomId).collect();
        let (_, d) = time_median(10, || alg.mask_clauses(&state, &mask));
        rows.push(vec![p.to_string(), fmt_duration(d)]);
    }
    print_table("e4_mask_letters", &["|P|", "median"], &rows);
}

fn bench_mask_by_state() {
    let alg = BluClausal::paper_exact();
    let mask: BTreeSet<AtomId> = [AtomId(0), AtomId(1)].into_iter().collect();
    let mut rows = Vec::new();
    for clauses in [32usize, 64, 128, 256] {
        let mut r = rng(4100 + clauses as u64);
        let state = random_clause_set(&mut r, 24, clauses, 3);
        let (_, d) = time_median(10, || alg.mask_clauses(&state, &mask));
        rows.push(vec![state.length().to_string(), fmt_duration(d)]);
    }
    print_table("e4_mask_state", &["L", "median"], &rows);
}

fn bench_mask_optimized() {
    // Ablation: subsumption reduction between elimination steps.
    let mut r = rng(4200);
    let state = random_clause_set(&mut r, 24, 96, 3);
    let mask: BTreeSet<AtomId> = (0..4u32).map(AtomId).collect();
    let mut rows = Vec::new();
    for (label, alg) in [
        ("paper_exact", BluClausal::paper_exact()),
        ("with_subsumption", BluClausal::new()),
    ] {
        let (_, d) = time_median(10, || alg.mask_clauses(&state, &mask));
        rows.push(vec![label.to_string(), fmt_duration(d)]);
    }
    print_table("e4_mask_reduction_ablation", &["variant", "median"], &rows);
}

fn main() {
    bench_mask_by_letters();
    bench_mask_by_state();
    bench_mask_optimized();
}
