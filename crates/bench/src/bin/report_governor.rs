//! Execution-governor benchmark: abort latency, governed overhead, and
//! degraded-mode behavior.
//!
//! Each section records its wall time plus the metric delta, and the
//! results go to `BENCH_governor.json` as the `governor_bench` document
//! with a flat numeric `summary`. The binary *asserts* the governor
//! semantics it measures:
//!
//! - the adversarial corpus (delete of the exponential prime-implicate
//!   family, the Θ(ε^L) `complement` product of §2.3) trips even a
//!   10⁷-step budget, so ungoverned it costs more than that;
//! - under the 10⁵-step interactive budget every corpus statement
//!   aborts with `BudgetExceeded`, quickly and with the state rolled
//!   back;
//! - governing a benign workload costs only the polled budget checks
//!   (the `governed_overhead_*` summary pair quantifies it);
//! - a store in degraded read-only mode still answers queries.

use std::time::Instant;

use pwdb::hlu::{ClausalDatabase, GovernedError, HluProgram};
use pwdb::logic::stress::seeded_exponential_pi_set;
use pwdb::logic::{clauses_to_wff, Budget, ExecError, Limits, Rng, Wff};
use pwdb::store::{RetryPolicy, TestDir, WriteFaultKind, WriteFaults};
use pwdb_metrics::json::Json;
use pwdb_metrics::MetricsSnapshot;

/// Corpus scale: one delete statement ≈ `2^N_PAIRS · (N_PAIRS + 1)`
/// governor steps of `complement` work ungoverned.
const N_PAIRS: usize = 24;
/// The interactive budget.
const TIGHT: u64 = 100_000;
/// The adversarial threshold the corpus must exceed.
const THRESHOLD: u64 = 10_000_000;
/// Statements per tight-budget section.
const CORPUS: usize = 4;

fn corpus(count: usize) -> Vec<HluProgram> {
    (0..count)
        .map(|i| {
            let set = seeded_exponential_pi_set(N_PAIRS, Some(0x5EED_0000 + i as u64));
            HluProgram::Delete(clauses_to_wff(&set))
        })
        .collect()
}

/// A benign seeded statement stream over a 4-atom vocabulary for
/// overhead measurement. Only mask–assert statements (insert/delete/
/// modify), which can never drive the state inconsistent — the governed
/// path enforces consistency and would (correctly) reject a raw assert
/// that contradicts the state.
fn statement(rng: &mut Rng) -> HluProgram {
    let i = rng.below(4) as u32;
    let a = Wff::atom(i);
    // Distinct atoms: `a & !a` would be unsatisfiable and so rejected.
    let b = Wff::atom((i + 1 + rng.below(3) as u32) % 4);
    match rng.below(4) {
        0 => HluProgram::Insert(a.or(b)),
        1 => HluProgram::Insert(a.and(b.not())),
        2 => HluProgram::Delete(a),
        _ => HluProgram::Modify(a, b),
    }
}

/// Times `f`, returning (wall ns, metrics delta, result).
fn section<T>(f: impl FnOnce() -> T) -> (u64, MetricsSnapshot, T) {
    let before = pwdb_metrics::snapshot();
    let start = Instant::now();
    let out = f();
    let wall_ns = start.elapsed().as_nanos() as u64;
    (wall_ns, pwdb_metrics::snapshot().delta(&before), out)
}

fn steps_at_abort(err: &GovernedError) -> u64 {
    match err {
        GovernedError::Exec(ExecError::BudgetExceeded { spent, .. }) => *spent,
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

fn main() {
    pwdb_metrics::reset();
    let mut sections: Vec<(String, Json)> = Vec::new();
    let mut summary: Vec<(String, Json)> = Vec::new();

    // The corpus exceeds the 10⁷-step threshold (it trips the budget
    // instead of completing), establishing the adversarial baseline.
    let (wall_ns, delta, spent) = section(|| {
        let mut db = ClausalDatabase::new();
        let limits = Limits::budget(Budget::steps(THRESHOLD));
        steps_at_abort(&db.run_governed(&corpus(1)[0], &limits).unwrap_err())
    });
    assert!(spent > THRESHOLD, "corpus must exceed {THRESHOLD} steps");
    assert_eq!(delta.counter("governor.stmt.budget_exceeded"), 1);
    sections.push(section_json("adversarial_threshold_10m", wall_ns, &delta));
    summary.push(("adversarial_steps_at_abort".to_string(), Json::UInt(spent)));

    // Abort latency under the interactive budget.
    let (wall_ns, delta, ()) = section(|| {
        let mut db = ClausalDatabase::new();
        let limits = Limits::budget(Budget::steps(TIGHT));
        for stmt in corpus(CORPUS) {
            let spent = steps_at_abort(&db.run_governed(&stmt, &limits).unwrap_err());
            assert!(spent > TIGHT);
            assert_eq!(db.updates_run(), 0, "failed statements must roll back");
        }
    });
    assert_eq!(
        delta.counter("governor.stmt.budget_exceeded") as usize,
        CORPUS
    );
    sections.push(section_json("tight_budget_indexed", wall_ns, &delta));
    summary.push((
        "abort_wall_ns_per_stmt_tight_budget_indexed".to_string(),
        Json::UInt(wall_ns / CORPUS as u64),
    ));

    // Overhead of governing a benign workload: the same statement
    // stream, ungoverned vs under a generous budget.
    const BENIGN: usize = 2_000;
    let run_benign = |limits: Option<&Limits>| {
        let mut rng = Rng::new(0x0EA_4EAD);
        let mut db = ClausalDatabase::new();
        for _ in 0..BENIGN {
            let p = statement(&mut rng);
            match limits {
                None => db.run(&p),
                Some(l) => db.run_governed(&p, l).expect("benign workload in budget"),
            }
        }
    };
    let (ungoverned_ns, delta, ()) = section(|| run_benign(None));
    sections.push(section_json("benign_ungoverned", ungoverned_ns, &delta));
    let generous = Limits::budget(Budget::steps(u64::MAX / 2));
    let (governed_ns, delta, ()) = section(|| run_benign(Some(&generous)));
    assert_eq!(delta.counter("governor.stmt.committed") as usize, BENIGN);
    sections.push(section_json("benign_governed", governed_ns, &delta));
    summary.push((
        "governed_overhead_ungoverned_ns".to_string(),
        Json::UInt(ungoverned_ns),
    ));
    summary.push((
        "governed_overhead_governed_ns".to_string(),
        Json::UInt(governed_ns),
    ));

    // Degraded mode: a persistent write fault drives the store
    // read-only; queries must keep being answered.
    let dir = TestDir::new("bench-governor-degraded");
    let (wall_ns, delta, reads) = section(|| {
        let mut db = ClausalDatabase::open(dir.path()).expect("open store");
        let mut rng = Rng::new(0xDE6);
        db.run(&statement(&mut rng)).expect("healthy write");
        db.inject_write_faults(WriteFaults::persistent_from(0, WriteFaultKind::Eio));
        db.set_retry_policy(RetryPolicy::none());
        assert!(db.run(&statement(&mut rng)).is_err());
        assert!(db.is_degraded());
        let q = Wff::atom(0);
        let mut reads = 0u64;
        for _ in 0..1_000 {
            let _ = db.is_certain(&q);
            reads += 1;
        }
        reads
    });
    assert_eq!(delta.counter("store.degraded.entered"), 1);
    sections.push(section_json("degraded_read_only", wall_ns, &delta));
    summary.push(("degraded_reads_served".to_string(), Json::UInt(reads)));
    summary.push((
        "budget_exceeded_statements".to_string(),
        Json::UInt(1 + CORPUS as u64),
    ));
    drop(dir);

    let doc = Json::obj([
        (
            "governor_bench".to_string(),
            Json::obj(sections.iter().cloned()),
        ),
        ("summary".to_string(), Json::obj(summary.iter().cloned())),
    ]);
    let rendered = doc.render();
    let parsed = Json::parse(&rendered).expect("rendered JSON must re-parse");
    assert_eq!(parsed.render(), rendered, "JSON round-trip mismatch");
    std::fs::write("BENCH_governor.json", &rendered).expect("write BENCH_governor.json");

    println!("wrote BENCH_governor.json ({} bytes)", rendered.len());
    for (name, v) in &summary {
        if let Json::UInt(v) = v {
            println!("  {name:<44} {v:>12}");
        }
    }
}

fn section_json(name: &str, wall_ns: u64, delta: &MetricsSnapshot) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([
            ("wall_ns".to_string(), Json::UInt(wall_ns)),
            ("metrics".to_string(), delta.to_json_value()),
        ]),
    )
}
