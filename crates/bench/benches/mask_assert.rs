//! Timing harness for E11 (§4): cost decomposition of an HLU insert —
//! parameter-only operations (`genmask`, `complement`) versus the
//! state-touching `mask`, and insert vs bare mask (the paper's claim that
//! inserting `{A1 ∨ A2}` is at least as complex as masking `{A1, A2}`).

use std::collections::BTreeSet;

use pwdb::blu::{BluClausal, BluSemantics};
use pwdb::logic::{AtomId, AtomTable};
use pwdb_bench::{fmt_duration, print_table, random_clause_set, rng, time_median};

fn main() {
    let alg = BluClausal::paper_exact();
    let mut t = AtomTable::with_indexed_atoms(24);
    let param = pwdb::logic::parse_clause_set("{A1 | A2}", &mut t).unwrap();
    let mask: BTreeSet<AtomId> = [AtomId(0), AtomId(1)].into_iter().collect();

    let mut rows = Vec::new();
    let (_, d) = time_median(50, || alg.op_genmask(&param));
    rows.push(vec!["genmask(param)".to_string(), fmt_duration(d)]);
    let (_, d) = time_median(50, || alg.op_complement(&param));
    rows.push(vec!["complement(param)".to_string(), fmt_duration(d)]);
    print_table("e11_parameter_ops", &["op", "median"], &rows);

    let mut rows = Vec::new();
    for clauses in [64usize, 256] {
        let mut r = rng(7000 + clauses as u64);
        let state = random_clause_set(&mut r, 24, clauses, 3);
        let (_, d) = time_median(10, || alg.op_mask(&state, &mask));
        rows.push(vec![
            format!("mask(state) L={}", state.length()),
            fmt_duration(d),
        ]);
        let (_, d) = time_median(10, || {
            let g = alg.op_genmask(&param);
            let m = alg.op_mask(&state, &g);
            alg.op_assert(&m, &param)
        });
        rows.push(vec![
            format!("full_insert L={}", state.length()),
            fmt_duration(d),
        ]);
    }
    print_table("e11_state_ops", &["op", "median"], &rows);
}
