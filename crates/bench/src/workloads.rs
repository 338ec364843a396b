//! The E1–E5 experiment workloads plus the HLU script, shared by the
//! `report_metrics` (counter/timer deltas) and `report_trace` (span
//! capture) binaries so both observe the *same* executions.

use std::collections::BTreeSet;

use pwdb::blu::{BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::hlu::Database;
use pwdb::logic::{AtomId, Clause, ClauseSet, Literal};

use crate::{random_clause_set, random_wff, rng};

/// E1 (Theorem 2.3.4(b)): `assert` over growing clause sets.
pub fn e1_assert() {
    let alg = BluClausal::paper_exact();
    for exp in [8u32, 10, 12] {
        let clauses = 1usize << exp;
        let mut r = rng(exp as u64);
        let a = random_clause_set(&mut r, 64, clauses, 4);
        let b = random_clause_set(&mut r, 64, clauses, 4);
        std::hint::black_box(alg.op_assert(&a, &b));
    }
}

/// E2 (Theorem 2.3.4(b)): `combine` — cost tracks the L1×L2 product.
pub fn e2_combine() {
    let alg = BluClausal::paper_exact();
    for exp in [4u32, 5, 6, 7] {
        let clauses = 1usize << exp;
        let mut r = rng(100 + exp as u64);
        let a = random_clause_set(&mut r, 64, clauses, 3);
        let b = random_clause_set(&mut r, 64, clauses, 3);
        std::hint::black_box(alg.op_combine(&a, &b));
    }
}

/// E3 (Theorem 2.3.4(b)): `complement` of k disjoint width-3 clauses
/// yields 3^k output clauses.
pub fn e3_complement() {
    let alg = BluClausal::paper_exact();
    for k in [4usize, 6, 8] {
        let mut set = ClauseSet::new();
        for i in 0..k {
            let base = (i * 3) as u32;
            set.insert(Clause::new(vec![
                Literal::pos(AtomId(base)),
                Literal::pos(AtomId(base + 1)),
                Literal::pos(AtomId(base + 2)),
            ]));
        }
        std::hint::black_box(alg.op_complement(&set));
    }
}

/// E4 (Theorem 2.3.6(b)): `mask` by letter count and by state size.
pub fn e4_mask() {
    let alg = BluClausal::paper_exact();
    let mut r = rng(4000);
    let state = random_clause_set(&mut r, 24, 60, 3);
    for p in [1usize, 2, 4, 6] {
        let mask: BTreeSet<AtomId> = (0..p as u32).map(AtomId).collect();
        std::hint::black_box(alg.op_mask(&state, &mask));
    }
    let mask: BTreeSet<AtomId> = [AtomId(0), AtomId(1)].into_iter().collect();
    for clauses in [32usize, 64, 128] {
        let mut r = rng(4100 + clauses as u64);
        let state = random_clause_set(&mut r, 24, clauses, 3);
        std::hint::black_box(alg.op_mask(&state, &mask));
    }
}

/// E5 (Theorem 2.3.9(b)): both `genmask` strategies; the SAT-based one
/// drives the DPLL solver, so this section also produces `logic.dpll.*`.
pub fn e5_genmask() {
    let paper = BluClausal::paper_exact().with_genmask(GenmaskStrategy::PaperExhaustive);
    let sat = BluClausal::paper_exact().with_genmask(GenmaskStrategy::SatBased);
    for n in [6usize, 8, 10] {
        let mut r = rng(5000 + n as u64);
        let set = random_clause_set(&mut r, n, n * 2, 3);
        std::hint::black_box(paper.op_genmask(&set));
        std::hint::black_box(sat.op_genmask(&set));
    }
}

/// HLU script: inserts plus certain/possible queries, exercising the
/// statement counters, update/constraint timers, and query latency.
pub fn hlu_script() {
    const N_ATOMS: usize = 12;
    let mut r = rng(6000);
    let mut db = Database::with_backend(BluClausal::paper_exact());
    for _ in 0..16 {
        db.insert(random_wff(&mut r, N_ATOMS, 1));
    }
    let mut qr = rng(6100);
    for _ in 0..10 {
        let q = random_wff(&mut qr, N_ATOMS, 2);
        std::hint::black_box(db.is_certain(&q));
        std::hint::black_box(db.is_possible(&q));
    }
}

/// The whole suite, in order, with the section names the report binaries
/// use.
pub const ALL: &[(&str, fn())] = &[
    ("e1_assert", e1_assert),
    ("e2_combine", e2_combine),
    ("e3_complement", e3_complement),
    ("e4_mask", e4_mask),
    ("e5_genmask", e5_genmask),
    ("hlu_script", hlu_script),
];
