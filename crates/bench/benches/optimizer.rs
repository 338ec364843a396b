//! Ablation harness for the BLU term optimizer: evaluation cost of
//! redundant programs before and after rewriting, plus the rewrite cost
//! itself. (The §4 "correctness-preserving optimizations" at the program
//! level.)

use pwdb::blu::{eval_sterm, BluClausal, Env, Optimizer, STerm};
use pwdb_bench::{fmt_duration, print_table, random_clause_set, rng, time_median};

/// A deliberately redundant term a naive program generator might emit:
/// `(combine (assert (assert s0 s0) s1) (assert s0 (combine s0 s1)))`
/// nested a few levels.
fn redundant_term(depth: usize) -> STerm {
    let mut t = STerm::var("s0")
        .assert(STerm::var("s0"))
        .assert(STerm::var("s1"))
        .combine(STerm::var("s0").assert(STerm::var("s0").combine(STerm::var("s1"))));
    for _ in 0..depth {
        t = t.clone().assert(t.clone().combine(t.clone()).assert(t));
    }
    t
}

fn main() {
    let term = redundant_term(1);
    let (optimized, stats) = Optimizer::new().optimize_term(&term);
    assert!(stats.size_after < stats.size_before);

    let mut r = rng(9000);
    let alg = BluClausal::paper_exact();
    let mut env: Env<BluClausal> = Env::new();
    env.bind_state("s0", random_clause_set(&mut r, 16, 24, 3));
    env.bind_state("s1", random_clause_set(&mut r, 16, 12, 3));

    let mut rows = Vec::new();
    let (_, d) = time_median(10, || eval_sterm(&alg, &term, &env).unwrap());
    rows.push(vec!["eval_raw".to_string(), fmt_duration(d)]);
    let (_, d) = time_median(10, || eval_sterm(&alg, &optimized, &env).unwrap());
    rows.push(vec!["eval_optimized".to_string(), fmt_duration(d)]);
    let (_, d) = time_median(10, || Optimizer::new().optimize_term(&term));
    rows.push(vec!["rewrite_cost".to_string(), fmt_duration(d)]);
    print_table("optimizer_ablation", &["variant", "median"], &rows);
}
