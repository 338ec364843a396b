//! Experiment E4: the `mask` complexity claim of Theorem 2.3.6(b) —
//! worst case `O(Length[Φ]^(2^|P|))`, realized when `|P| ≪ |Prop[D]|`.
//!
//! Two workloads:
//!
//! * random 3-CNF — the typical case: sizes often *shrink* because
//!   resolution plus clause deduplication collapses;
//! * a structured "chain" family connecting every masked letter to many
//!   survivors, which forces the quadratic-per-step growth whose
//!   iteration yields the `2^|P|` exponent.

use std::collections::BTreeSet;

use pwdb::blu::BluClausal;
use pwdb::logic::{AtomId, Clause, ClauseSet, Literal};
use pwdb_bench::{fmt_duration, print_table, random_clause_set, rng, time_median};

fn main() {
    random_workload();
    structured_workload();
}

fn random_workload() {
    let alg = BluClausal::paper_exact();
    let mut rows = Vec::new();
    for mask_size in 1..=6usize {
        let mut r = rng(400 + mask_size as u64);
        let set = random_clause_set(&mut r, 24, 60, 3);
        let mask: BTreeSet<AtomId> = (0..mask_size as u32).map(AtomId).collect();
        let (out, d) = time_median(3, || alg.mask_clauses(&set, &mask));
        rows.push(vec![
            format!("{mask_size}"),
            format!("{}", set.length()),
            format!("{}", out.length()),
            fmt_duration(d),
        ]);
    }
    print_table(
        "E4a  mask on random 3-CNF (60 clauses, 24 atoms) — typical case",
        &["|P|", "len before", "len after", "time"],
        &rows,
    );
}

/// `chain(p, k)`: masked atoms `M0..Mp-1`; each masked atom occurs
/// positively with `k` distinct survivor atoms and negatively with `k`
/// others, so eliminating it produces k×k resolvents over survivors.
fn chain_family(p: usize, k: usize) -> (ClauseSet, BTreeSet<AtomId>) {
    let mut set = ClauseSet::new();
    let mut next_survivor = p as u32;
    for m in 0..p as u32 {
        for i in 0..k as u32 {
            set.insert(Clause::new(vec![
                Literal::pos(AtomId(m)),
                Literal::pos(AtomId(next_survivor + i)),
            ]));
            set.insert(Clause::new(vec![
                Literal::neg(AtomId(m)),
                Literal::pos(AtomId(next_survivor + k as u32 + i)),
            ]));
        }
        next_survivor += 2 * k as u32;
    }
    let mask = (0..p as u32).map(AtomId).collect();
    (set, mask)
}

fn structured_workload() {
    let alg = BluClausal::paper_exact();
    let mut rows = Vec::new();
    for p in 1..=5usize {
        let (set, mask) = chain_family(p, 8);
        let before = set.length();
        let (out, d) = time_median(3, || alg.mask_clauses(&set, &mask));
        rows.push(vec![
            format!("{p}"),
            format!("{before}"),
            format!("{}", out.length()),
            format!("{:.2}x", out.length() as f64 / before as f64),
            fmt_duration(d),
        ]);
    }
    print_table(
        "E4b  mask on the adversarial chain family (k=8) — per-letter quadratic growth",
        &["|P|", "len before", "len after", "growth", "time"],
        &rows,
    );
    println!(
        "(each eliminated letter trades 2k binary clauses for k^2 resolvents:\n \
         iterating the squaring step is the engine behind the L^(2^|P|) worst case)"
    );
}
