//! Timing harness for E6/E7 (§3.3.1): update and query latency of the
//! mask-based clausal HLU engine versus the Wilkins auxiliary-letter
//! engine.

use pwdb::blu::BluClausal;
use pwdb::hlu::Database;
use pwdb::logic::Wff;
use pwdb::wilkins::WilkinsDb;
use pwdb_bench::{fmt_duration, print_table, random_wff, rng, time_median};

const N_ATOMS: usize = 12;

fn script(k: usize) -> Vec<Wff> {
    let mut r = rng(6000);
    (0..k).map(|_| random_wff(&mut r, N_ATOMS, 1)).collect()
}

fn bench_updates() {
    let mut rows = Vec::new();
    for k in [8usize, 16, 32] {
        let s = script(k);
        let (_, d) = time_median(5, || {
            let mut db = Database::with_backend(BluClausal::paper_exact());
            for w in &s {
                db.insert(w.clone());
            }
            db
        });
        rows.push(vec![format!("hegner k={k}"), fmt_duration(d)]);
        let (_, d) = time_median(5, || {
            let mut db = WilkinsDb::new(N_ATOMS);
            for w in &s {
                db.insert(w);
            }
            db
        });
        rows.push(vec![format!("wilkins k={k}"), fmt_duration(d)]);
    }
    print_table("e6_update_script", &["engine", "median"], &rows);
}

fn bench_query_after_updates() {
    let mut qr = rng(6100);
    let queries: Vec<Wff> = (0..10).map(|_| random_wff(&mut qr, N_ATOMS, 2)).collect();
    let mut rows = Vec::new();
    for k in [8usize, 32] {
        let s = script(k);
        let mut hegner = Database::with_backend(BluClausal::paper_exact());
        let mut wilkins = WilkinsDb::new(N_ATOMS);
        for w in &s {
            hegner.insert(w.clone());
            wilkins.insert(w);
        }
        let (_, d) = time_median(5, || {
            queries.iter().filter(|q| hegner.is_certain(q)).count()
        });
        rows.push(vec![format!("hegner k={k}"), fmt_duration(d)]);
        let (_, d) = time_median(5, || {
            queries.iter().filter(|q| wilkins.query_certain(q)).count()
        });
        rows.push(vec![format!("wilkins k={k}"), fmt_duration(d)]);
    }
    print_table("e7_query_after_k_updates", &["engine", "median"], &rows);
}

fn main() {
    bench_updates();
    bench_query_after_updates();
}
