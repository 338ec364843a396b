//! Experiment E8: correctness of the emulation (Theorems 2.3.4(a),
//! 2.3.6(a), 2.3.9(a)) — `e_CI` squares commute for all five operators.
//!
//! Exhaustive over tiny universes, randomized over larger ones, for both
//! the paper-exact algebra and the optimized (subsumption-reducing,
//! SAT-genmask) variant.

use std::collections::BTreeSet;

use pwdb::blu::{check_exhaustive_small, check_states, BluClausal, GenmaskStrategy};
use pwdb_bench::{print_table, random_mixed_clause_set, rng};

fn main() {
    let mut rows = Vec::new();

    for (label, alg) in [
        ("paper-exact", BluClausal::paper_exact()),
        (
            "optimized",
            BluClausal::new().with_genmask(GenmaskStrategy::SatBased),
        ),
    ] {
        // Exhaustive, n = 2 and 3.
        for n in [2usize, 3] {
            let report = check_exhaustive_small(n, &alg);
            rows.push(vec![
                label.to_owned(),
                format!("exhaustive n={n}"),
                format!("{}", report.checked),
                format!("{}", report.failures.len()),
            ]);
        }
        // Randomized, n = 6.
        let mut r = rng(800);
        let mut checked = 0;
        let mut failed = 0;
        for trial in 0..200 {
            let x = random_mixed_clause_set(&mut r, 6, 4, 3);
            let y = random_mixed_clause_set(&mut r, 6, 3, 3);
            let extra: BTreeSet<pwdb::logic::AtomId> = if trial % 3 == 0 {
                [pwdb::logic::AtomId(0)].into_iter().collect()
            } else {
                BTreeSet::new()
            };
            let report = check_states(&alg, 6, &x, &y, &extra);
            checked += report.checked;
            failed += report.failures.len();
            for f in &report.failures {
                eprintln!("FAILURE: {f}");
            }
        }
        rows.push(vec![
            label.to_owned(),
            "random n=6 ×200".to_owned(),
            format!("{checked}"),
            format!("{failed}"),
        ]);
    }

    print_table(
        "E8  emulation checks — Thms 2.3.4(a)/2.3.6(a)/2.3.9(a): e_CI squares commute",
        &["algebra", "suite", "squares checked", "failures"],
        &rows,
    );
    println!("(all failure counts must be 0)");
}
