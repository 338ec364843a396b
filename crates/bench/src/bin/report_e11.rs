//! Experiment E11: the §4 ablation — where the cost lives in a clausal
//! HLU implementation.
//!
//! §4 argues: `complement` and `genmask` are exponential but touch only
//! *user-supplied parameters* (small); `assert`/`combine` are cheap; the
//! bottleneck is `mask`, which takes the *system state* as argument; and
//! inserting `{A1 ∨ A2}` is inherently at least as complex as masking
//! `{A1, A2}`, so masking cannot be engineered away.

use std::collections::BTreeSet;

use pwdb::blu::{BluClausal, BluSemantics};
use pwdb::logic::AtomId;
use pwdb_bench::{fmt_duration, print_table, random_clause_set, rng, time_median};

fn main() {
    let alg = BluClausal::paper_exact();
    let mut rows = Vec::new();
    for exp in 4..=9 {
        let n_clauses = 1usize << exp;
        let mut r = rng(1100 + exp as u64);
        let state = random_clause_set(&mut r, 24, n_clauses, 3);
        let param = pwdb::logic::parse_clause_set(
            "{A1 | A2}",
            &mut pwdb::logic::AtomTable::with_indexed_atoms(24),
        )
        .unwrap();

        // Parameter-only operations.
        let (gm, d_genmask) = time_median(5, || alg.op_genmask(&param));
        let (_, d_complement) = time_median(5, || alg.op_complement(&param));

        // State-touching operations.
        let mask: BTreeSet<AtomId> = gm.clone();
        let (masked, d_mask) = time_median(3, || alg.op_mask(&state, &mask));
        let (_, d_assert) = time_median(5, || alg.op_assert(&masked, &param));

        // Full insert = genmask + mask + assert.
        let (_, d_insert) = time_median(3, || {
            let g = alg.op_genmask(&param);
            let m = alg.op_mask(&state, &g);
            alg.op_assert(&m, &param)
        });

        rows.push(vec![
            format!("{}", state.length()),
            fmt_duration(d_genmask),
            fmt_duration(d_complement),
            fmt_duration(d_mask),
            fmt_duration(d_assert),
            fmt_duration(d_insert),
            format!(
                "{:.0}%",
                100.0 * d_mask.as_nanos() as f64 / d_insert.as_nanos().max(1) as f64
            ),
        ]);
    }
    print_table(
        "E11  cost decomposition of (insert {A1 | A2}) as state grows — §4",
        &[
            "state len",
            "genmask(param)",
            "complement(param)",
            "mask(state)",
            "assert",
            "full insert",
            "mask share",
        ],
        &rows,
    );
    println!(
        "(genmask/complement touch only the 2-atom parameter: flat columns;\n \
         mask takes the system state: it dominates the insert as the state grows —\n \
         §4's claim that masking is the unavoidable bottleneck)"
    );
}
