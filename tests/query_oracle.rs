//! The clausal database answers queries from one solver per state
//! version and the first model of that state a solve finds
//! (`QueryOracle`).
//! Every write to the state must drop that cache, or a query after it
//! answers for a state the database no longer holds.
//!
//! A seeded 10-atom stream interleaves every way the state changes —
//! bare `run`; `run_governed` that commits, that §1.3.3 rejects, and that
//! a budget aborts (before the state is replaced, and inside the
//! consistency check after it was); savepoints rolled back; `set_state`;
//! `normalize`; `with_constraints`. After every step, `is_certain`,
//! `is_possible` and `is_consistent` on random wffs must equal
//! `pwdb_logic::entails`/`is_satisfiable` on `state()`, and the answers
//! of an `InstanceDatabase` run in step.

use pwdb::hlu::{ClausalDatabase, DurableDatabase, GovernedError, HluProgram, InstanceDatabase};
use pwdb::logic::{entails, govern, governor, is_satisfiable, Budget, ExecError, Limits, Rng, Wff};
use pwdb::worlds::WorldSet;
use pwdb_suite::testgen;

/// Both database types stay shareable across threads with the oracle's
/// interior mutability inside.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ClausalDatabase>();
    assert_send_sync::<DurableDatabase>();
};

const N_ATOMS: usize = 10;
const STEPS: usize = 240;
const QUERIES: usize = 8;

/// Checks the clausal answers against `entails` on the state and against
/// the possible-worlds database. Consistency is asked before the queries
/// (cold oracle) and after them (model kept).
fn check_answers(ctx: &str, db: &ClausalDatabase, instance: &InstanceDatabase, rng: &mut Rng) {
    let consistent = is_satisfiable(db.state());
    assert_eq!(
        db.is_consistent(),
        consistent,
        "{ctx}: is_consistent (cold)"
    );
    assert_eq!(
        instance.is_consistent(),
        consistent,
        "{ctx}: instance consistency"
    );
    for _ in 0..QUERIES {
        let w = testgen::wff(rng, N_ATOMS, 3);
        let certain = entails(db.state(), &w);
        let possible = !entails(db.state(), &w.clone().not());
        assert_eq!(db.is_certain(&w), certain, "{ctx}: is_certain {w}");
        assert_eq!(db.is_possible(&w), possible, "{ctx}: is_possible {w}");
        assert_eq!(
            instance.is_certain(&w),
            certain,
            "{ctx}: instance certain {w}"
        );
        assert_eq!(
            instance.is_possible(&w),
            possible,
            "{ctx}: instance possible {w}"
        );
    }
    assert_eq!(
        db.is_consistent(),
        consistent,
        "{ctx}: is_consistent (warm)"
    );
}

/// Outcomes seen over the stream, to show each path was taken.
#[derive(Debug, Default)]
struct Seen {
    committed: usize,
    rejected: usize,
    aborted_before_update: usize,
    aborted_in_check: usize,
    rollbacks: usize,
}

/// Runs `prog` governed on the clausal side and mirrors the outcome on
/// the possible-worlds side: a commit or a rejection must happen there
/// too; an abort leaves it untouched.
fn governed_both(
    ctx: &str,
    db: &mut ClausalDatabase,
    instance: &mut InstanceDatabase,
    prog: &HluProgram,
    limits: &Limits,
    seen: &mut Seen,
) -> Result<(), GovernedError> {
    let before = (db.state().clone(), db.updates_run(), db.history().len());
    let result = db.run_governed(prog, limits);
    match &result {
        Ok(()) => {
            seen.committed += 1;
            assert_eq!(
                instance.run_governed(prog, &Limits::unlimited()),
                Ok(()),
                "{ctx}"
            );
        }
        Err(GovernedError::Rejected) => {
            seen.rejected += 1;
            assert_eq!(
                instance.run_governed(prog, &Limits::unlimited()),
                Err(GovernedError::Rejected),
                "{ctx}"
            );
        }
        Err(GovernedError::Exec(e)) => {
            assert!(matches!(e, ExecError::BudgetExceeded { .. }), "{ctx}: {e}");
        }
    }
    if result.is_err() {
        let after = (db.state().clone(), db.updates_run(), db.history().len());
        assert_eq!(after, before, "{ctx}: rollback must restore the database");
    }
    result
}

/// The governor steps `prog` spends in a bare `run` from `db`'s state,
/// measured on a clone after a first clone warmed the memo caches.
fn run_steps(db: &ClausalDatabase, prog: &HluProgram) -> u64 {
    for _ in 0..2 {
        let mut probe = db.clone();
        govern(&Limits::unlimited(), || probe.run(prog)).expect("unlimited run completes");
    }
    governor::last_spent()
}

#[test]
fn every_state_write_drops_the_query_oracle() {
    let mut rng = Rng::new(0x0_4AC1E);
    let mut db = ClausalDatabase::new();
    let mut instance = InstanceDatabase::with_atoms(N_ATOMS);
    let mut seen = Seen::default();
    for step in 0..STEPS {
        let ctx = format!("step {step}");
        let kind = if db.is_consistent() {
            rng.index(10)
        } else {
            7 // an inconsistent state stays inconsistent: start over
        };
        match kind {
            0 | 1 => {
                let prog = testgen::hlu_program(&mut rng, N_ATOMS);
                db.run(&prog);
                instance.run(&prog);
            }
            2 => {
                let prog = testgen::hlu_program(&mut rng, N_ATOMS);
                let _ = governed_both(
                    &ctx,
                    &mut db,
                    &mut instance,
                    &prog,
                    &Limits::unlimited(),
                    &mut seen,
                );
            }
            3 => {
                // `w ∧ ¬w` has no model: §1.3.3 rejects it.
                let w = testgen::wff(&mut rng, N_ATOMS, 2);
                let prog = HluProgram::Assert(w.clone().and(w.not()));
                let r = governed_both(
                    &ctx,
                    &mut db,
                    &mut instance,
                    &prog,
                    &Limits::unlimited(),
                    &mut seen,
                );
                assert_eq!(r, Err(GovernedError::Rejected), "{ctx}");
            }
            4 => {
                // One step cannot even lower the parameter.
                let prog = testgen::hlu_program(&mut rng, N_ATOMS);
                let limits = Limits::budget(Budget::steps(1));
                let r = governed_both(&ctx, &mut db, &mut instance, &prog, &limits, &mut seen);
                assert!(matches!(r, Err(GovernedError::Exec(_))), "{ctx}: {r:?}");
                seen.aborted_before_update += 1;
            }
            5 => {
                // Exactly the steps of the update: the state is replaced,
                // then the consistency check runs out of budget.
                let prog = testgen::hlu_program(&mut rng, N_ATOMS);
                let limits = Limits::budget(Budget::steps(run_steps(&db, &prog)));
                let r = governed_both(&ctx, &mut db, &mut instance, &prog, &limits, &mut seen);
                if matches!(r, Err(GovernedError::Exec(_))) {
                    seen.aborted_in_check += 1;
                }
            }
            6 => {
                let saved = db.savepoint();
                let saved_instance = instance.savepoint();
                for i in 0..2 {
                    let prog = testgen::hlu_program(&mut rng, N_ATOMS);
                    db.run(&prog);
                    instance.run(&prog);
                    check_answers(
                        &format!("{ctx} inside savepoint {i}"),
                        &db,
                        &instance,
                        &mut rng,
                    );
                }
                db.rollback_to(saved);
                instance.rollback_to(saved_instance);
                seen.rollbacks += 1;
            }
            7 => {
                let state = testgen::clause_set(&mut rng, N_ATOMS, 6, 3);
                instance.set_state(WorldSet::from_clauses(N_ATOMS, &state));
                db.set_state(state);
            }
            8 => db.normalize(),
            _ => {
                let constraint: Wff = testgen::literal_disjunction(&mut rng, N_ATOMS);
                db = db.with_constraints(constraint.clone());
                instance = instance.with_constraints(constraint);
            }
        }
        check_answers(&ctx, &db, &instance, &mut rng);
    }
    println!("{seen:?}");
    assert!(seen.committed > 0, "{seen:?}");
    assert!(seen.rejected > 0, "{seen:?}");
    assert!(seen.aborted_before_update > 0, "{seen:?}");
    assert!(seen.aborted_in_check > 0, "{seen:?}");
    assert!(seen.rollbacks > 0, "{seen:?}");
}
