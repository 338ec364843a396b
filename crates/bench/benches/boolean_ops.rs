//! Timing harness for E1–E3 (Theorem 2.3.4(b)): `assert` linear,
//! `combine` quadratic, `complement` exponential; plus the reduced
//! algebra's `combine` kernel on shared-base branch pairs.

use pwdb::blu::BluClausal;
use pwdb::logic::{AtomId, Clause, ClauseSet, Literal};
use pwdb_bench::{fmt_duration, print_table, random_clause_set, rng, time_median};

fn bench_assert() {
    let mut rows = Vec::new();
    for exp in [8u32, 10, 12] {
        let clauses = 1usize << exp;
        let mut r = rng(exp as u64);
        let a = random_clause_set(&mut r, 64, clauses, 4);
        let b = random_clause_set(&mut r, 64, clauses, 4);
        let (_, d) = time_median(20, || BluClausal::assert_clauses(&a, &b));
        rows.push(vec![(a.length() + b.length()).to_string(), fmt_duration(d)]);
    }
    print_table("e1_assert", &["L1+L2", "median"], &rows);
}

fn bench_combine() {
    let mut rows = Vec::new();
    for exp in [4u32, 5, 6, 7] {
        let clauses = 1usize << exp;
        let mut r = rng(100 + exp as u64);
        let a = random_clause_set(&mut r, 64, clauses, 3);
        let b = random_clause_set(&mut r, 64, clauses, 3);
        let (_, d) = time_median(20, || BluClausal::combine_clauses(&a, &b));
        rows.push(vec![(a.length() * b.length()).to_string(), fmt_duration(d)]);
    }
    print_table("e2_combine", &["L1*L2", "median"], &rows);
}

/// The reduced algebra's `combine` on the operand shape `where`/`modify`
/// produce: two branches `base ∪ d₁`, `base ∪ d₂` of one state, a quarter
/// of each branch touched by the update. The full product reduced after
/// the fact against the kernel that collapses the shared clauses first.
fn bench_combine_reduced() {
    let mut rows = Vec::new();
    for exp in [4u32, 5, 6, 7] {
        let clauses = 1usize << exp;
        let mut r = rng(200 + exp as u64);
        let base = random_clause_set(&mut r, 64, clauses - clauses / 4, 3);
        let branch = |r: &mut _| {
            BluClausal::assert_clauses(&base, &random_clause_set(r, 64, clauses / 4, 3))
        };
        let (a, b) = (branch(&mut r), branch(&mut r));
        let (full, d_full) = time_median(20, || {
            let mut out = BluClausal::combine_clauses(&a, &b);
            out.reduce_subsumed();
            out
        });
        let (kernel, d_kernel) = time_median(20, || BluClausal::combine_reduced(&a, &b));
        assert_eq!(
            full, kernel,
            "combine_reduced diverged at {clauses} clauses"
        );
        rows.push(vec![
            clauses.to_string(),
            (a.length() * b.length()).to_string(),
            fmt_duration(d_full),
            fmt_duration(d_kernel),
            kernel.len().to_string(),
        ]);
    }
    print_table(
        "e2_combine_reduced",
        &[
            "clauses",
            "L1*L2",
            "reduce(combine)",
            "combine_reduced",
            "out",
        ],
        &rows,
    );
}

fn bench_complement() {
    let mut rows = Vec::new();
    for k in [4usize, 6, 8] {
        // k disjoint width-3 clauses: output 3^k.
        let mut set = ClauseSet::new();
        for i in 0..k {
            let base = (i * 3) as u32;
            set.insert(Clause::new(vec![
                Literal::pos(AtomId(base)),
                Literal::pos(AtomId(base + 1)),
                Literal::pos(AtomId(base + 2)),
            ]));
        }
        let (_, d) = time_median(5, || BluClausal::complement_clauses(&set));
        rows.push(vec![set.length().to_string(), fmt_duration(d)]);
    }
    print_table("e3_complement", &["L", "median"], &rows);
}

fn main() {
    bench_assert();
    bench_combine();
    bench_combine_reduced();
    bench_complement();
}
