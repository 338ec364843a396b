//! Experiments E6 and E7: the Wilkins trade-off of §3.3.1.
//!
//! * E6 — update latency. Wilkins' algorithms are "unquestionably
//!   faster … linear in the sizes of the database and update formulas";
//!   ours pay for `genmask` + `mask` at update time.
//! * E7 — query latency and cleanup. "After a large number of updates,
//!   query processing becomes very expensive, since the query solver must
//!   constantly eliminate auxiliary symbols"; cleaning up means masking
//!   the auxiliary letters, which is inherently hard (2.3.6).
//!
//! Workload: over a 12-atom user vocabulary, a script of k random
//! two-literal disjunctive insertions applied to both engines, then a
//! batch of certainty queries.

use pwdb::blu::BluClausal;
use pwdb::hlu::Database;
use pwdb::logic::Wff;
use pwdb::wilkins::WilkinsDb;
use pwdb_bench::{fmt_duration, print_table, random_wff, rng, time};

const N_ATOMS: usize = 12;

fn update_script(seed: u64, k: usize) -> Vec<Wff> {
    let mut r = rng(seed);
    (0..k).map(|_| random_wff(&mut r, N_ATOMS, 1)).collect()
}

fn query_batch(seed: u64, k: usize) -> Vec<Wff> {
    let mut r = rng(seed);
    (0..k).map(|_| random_wff(&mut r, N_ATOMS, 2)).collect()
}

fn main() {
    let mut e6 = Vec::new();
    let mut e7 = Vec::new();
    for &k in &[1usize, 2, 4, 8, 16, 32, 64] {
        let script = update_script(42, k);
        let queries = query_batch(43, 20);

        // Hegner (mask-based clausal HLU).
        let mut hegner = Database::with_backend(BluClausal::paper_exact());
        let (_, hegner_update) = time(|| {
            for w in &script {
                hegner.insert(w.clone());
            }
        });
        let (_, hegner_query) = time(|| {
            for q in &queries {
                let _ = hegner.is_certain(q);
            }
        });

        // Wilkins (aux-letter deferral).
        let mut wilkins = WilkinsDb::new(N_ATOMS);
        let (_, wilkins_update) = time(|| {
            for w in &script {
                wilkins.insert(w);
            }
        });
        let (_, wilkins_query) = time(|| {
            for q in &queries {
                let _ = wilkins.query_certain(q);
            }
        });
        let aux = wilkins.aux_letters();
        let pre_len = wilkins.length();
        let (_, cleanup) = time(|| wilkins.cleanup());

        e6.push(vec![
            format!("{k}"),
            fmt_duration(hegner_update),
            fmt_duration(wilkins_update),
            format!(
                "{:.1}x",
                hegner_update.as_nanos() as f64 / wilkins_update.as_nanos().max(1) as f64
            ),
        ]);
        e7.push(vec![
            format!("{k}"),
            format!("{aux}"),
            format!("{pre_len}"),
            fmt_duration(hegner_query),
            fmt_duration(wilkins_query),
            fmt_duration(cleanup),
        ]);
    }
    print_table(
        "E6  update latency for k insertions — §3.3.1: Wilkins linear & faster",
        &["k", "Hegner update", "Wilkins update", "Hegner/Wilkins"],
        &e6,
    );
    print_table(
        "E7  after k insertions: 20 certainty queries + Wilkins cleanup — §3.3.1",
        &[
            "k",
            "aux letters",
            "store len",
            "Hegner query",
            "Wilkins query",
            "cleanup (mask aux)",
        ],
        &e7,
    );
    println!(
        "(expected shape: Wilkins update column flat & below Hegner's; Wilkins query and\n \
         cleanup columns grow with k while Hegner's query cost stays bounded)"
    );
}
