//! The execution governor's end-to-end contract, on adversarial input.
//!
//! The corpus (`testgen::exponential_update_corpus`) is built from the
//! exponential prime-implicate family: each `(delete W)` statement
//! compiles to `(assert (mask s0 (genmask s1)) (complement s1))` and the
//! `complement` of `n` binary clauses plus one long clause is the
//! Θ(ε^L) product of Theorem 2.3.4(b) — ≈ `2^n · (n+1)` literals of work
//! at `n = 24`, far beyond any interactive budget.
//!
//! Three properties are pinned, per the governor's design:
//!
//! 1. **The corpus really is adversarial**: even a 10⁷-step budget — two
//!    orders of magnitude above the interactive budget used below — is
//!    exceeded. (Running ungoverned to completion would cost ≈ 8×10⁸
//!    steps; proving the threshold via a tripped 10⁷ budget keeps the
//!    test bounded.)
//! 2. **Budgets bound every statement**: under a 10⁵-step budget each
//!    corpus statement returns `BudgetExceeded` promptly, with bounded
//!    overshoot.
//! 3. **Failure is transactional**: after every failed statement the
//!    database — state, update count, history — is bit-identical to its
//!    pre-statement snapshot, and a failed statement
//!    never reaches the WAL, so recovery reproduces exactly the committed
//!    prefix.

use pwdb::hlu::{ClausalDatabase, DurableError, GovernedError, HluProgram};
use pwdb::logic::{Budget, ExecError, Limits, Resource};
use pwdb::store::TestDir;
use pwdb_suite::testgen;

/// 2^24 · 25 ≈ 4×10⁸ literal-steps of complement work per statement.
const N_PAIRS: usize = 24;
/// The interactive budget every statement must respect.
const TIGHT: u64 = 100_000;
/// The acceptance threshold the ungoverned corpus must exceed.
const THRESHOLD: u64 = 10_000_000;

fn corpus(count: usize) -> Vec<HluProgram> {
    testgen::exponential_update_corpus(N_PAIRS, count)
}

fn assert_steps_exceeded(err: &GovernedError, limit: u64) {
    match err {
        GovernedError::Exec(ExecError::BudgetExceeded {
            resource: Resource::Steps,
            spent,
            limit: l,
        }) => {
            assert_eq!(*l, limit);
            assert!(*spent > limit, "spent {spent} must exceed limit {limit}");
            // Overshoot is bounded by the largest single charge (one
            // clause-pair product), not by the blow-up.
            assert!(
                *spent < limit + 10_000,
                "overshoot must stay bounded: spent {spent} vs limit {limit}"
            );
        }
        other => panic!("expected BudgetExceeded(Steps), got {other:?}"),
    }
}

#[test]
fn corpus_exceeds_ten_million_steps_ungoverned() {
    let mut db = ClausalDatabase::new();
    let limits = Limits::budget(Budget::steps(THRESHOLD));
    let err = db.run_governed(&corpus(1)[0], &limits).unwrap_err();
    assert_steps_exceeded(&err, THRESHOLD);
}

#[test]
fn tight_budget_bounds_every_statement_and_rolls_back() {
    let mut db = ClausalDatabase::new();
    // Non-trivial pre-state so rollback has something to restore.
    db.run(&parse_stmt("(insert {A1 | A2})"));
    db.run(&parse_stmt("(assert {A3})"));
    let pre_state = db.state().clone();
    let pre_history = db.history().to_vec();
    let pre_updates = db.updates_run();

    let limits = Limits::budget(Budget::steps(TIGHT));
    for stmt in corpus(3) {
        let err = db.run_governed(&stmt, &limits).unwrap_err();
        assert_steps_exceeded(&err, TIGHT);
        assert_eq!(db.state(), &pre_state, "state must roll back");
        assert_eq!(db.history(), &pre_history[..], "history must roll back");
        assert_eq!(db.updates_run(), pre_updates);
    }

    // The same budget is ample for ordinary statements: the governed path
    // still commits real work.
    db.run_governed(&parse_stmt("(delete {A2})"), &limits)
        .expect("benign statement commits under the same budget");
    assert_eq!(db.updates_run(), pre_updates + 1);
}

#[test]
fn live_clause_and_wall_clock_budgets_also_bound_the_corpus() {
    let mut db = ClausalDatabase::new();
    let limits = Limits::budget(Budget::unlimited().with_live_clauses(2_000));
    let err = db.run_governed(&corpus(1)[0], &limits).unwrap_err();
    match err {
        GovernedError::Exec(ExecError::BudgetExceeded {
            resource: Resource::LiveClauses,
            ..
        }) => {}
        other => panic!("expected BudgetExceeded(LiveClauses), got {other:?}"),
    }
    assert_eq!(db.updates_run(), 0);

    let limits = Limits::budget(Budget::unlimited().with_wall(std::time::Duration::from_millis(5)));
    let err = db.run_governed(&corpus(1)[0], &limits).unwrap_err();
    match err {
        GovernedError::Exec(ExecError::BudgetExceeded {
            resource: Resource::WallClockMs,
            ..
        }) => {}
        other => panic!("expected BudgetExceeded(WallClockMs), got {other:?}"),
    }
    assert_eq!(db.updates_run(), 0);
}

#[test]
fn durable_path_never_logs_failed_statements_and_recovery_matches() {
    let dir = TestDir::new("governor-durable-rollback");
    let committed = ["(insert {A1 | A2})", "(assert {A3})", "(delete {A2})"];
    {
        let mut db = ClausalDatabase::open(dir.path()).unwrap();
        db.run(&parse_stmt(committed[0])).unwrap();
        db.run(&parse_stmt(committed[1])).unwrap();

        let pre_state = db.state().clone();
        let pre_records = db.store_stats().wal_records;
        let limits = Limits::budget(Budget::steps(TIGHT));
        for stmt in corpus(2) {
            let err = db.run_governed(&stmt, &limits).unwrap_err();
            assert!(
                matches!(
                    err,
                    DurableError::Exec(ExecError::BudgetExceeded {
                        resource: Resource::Steps,
                        ..
                    })
                ),
                "{err:?}"
            );
            assert_eq!(db.state(), &pre_state, "memory must roll back");
            assert_eq!(
                db.store_stats().wal_records,
                pre_records,
                "a failed statement must never reach the WAL"
            );
        }

        // Governed success is logged like any committed statement.
        db.run_governed(&parse_stmt(committed[2]), &limits).unwrap();
    }

    // Recovery sees exactly the committed prefix.
    let recovered = ClausalDatabase::open(dir.path()).unwrap();
    assert_eq!(recovered.updates_run(), committed.len());

    let mut oracle = ClausalDatabase::new();
    let mut atoms = pwdb::logic::AtomTable::new();
    for text in committed {
        oracle.run(&pwdb::hlu::parse_hlu(text, &mut atoms).unwrap());
    }
    assert_eq!(recovered.state(), oracle.state());
    assert_eq!(recovered.history(), oracle.history());
}

/// Parses a statement over the default `A<i>` table.
fn parse_stmt(text: &str) -> HluProgram {
    let mut atoms = pwdb::logic::AtomTable::with_indexed_atoms(8);
    pwdb::hlu::parse_hlu(text, &mut atoms).unwrap()
}
