//! The default clausal database runs the production (reduced) algebra,
//! and directories written under the paper-exact algebra still open.
//!
//! 1. **No hang on ordinary input.** `ClausalDatabase::new()` runs seeded
//!    `testgen::hlu_program` streams at 10 and 16 atoms with every
//!    statement under a 10⁷-step budget. The paper-exact algebra exceeds
//!    that budget within the first few dozen statements of these streams;
//!    the reduced one must finish all of them. At 10 atoms each state is
//!    also checked against the possible-worlds semantics.
//! 2. **Old directories reopen.** A directory written through
//!    `DurableDatabase::open_with` with `BluClausal::paper_exact()` (the
//!    algebra `ClausalDatabase::open` used before the reduced one became
//!    the default), with a checkpoint in the middle, reopens with
//!    `ClausalDatabase::open` to an equivalent state and the identical
//!    history.
//! 3. **`open_with` refuses a database that has already run updates**
//!    with a typed error rather than a panic.

use pwdb::blu::BluClausal;
use pwdb::hlu::{ClausalDatabase, Database, DurableDatabase, DurableError, InstanceDatabase};
use pwdb::logic::{equivalent, govern, Budget, Limits, Rng};
use pwdb::store::TestDir;
use pwdb::worlds::WorldSet;
use pwdb_suite::testgen;

const STATEMENTS: usize = 200;
const STEP_CAP: u64 = 10_000_000;

/// Runs the seeded stream through `ClausalDatabase::new()`, each
/// statement governed; with `check`, compares every state with
/// `InstanceDatabase`.
fn run_default_stream(n_atoms: usize, seed: u64, check: bool) {
    let mut rng = Rng::new(seed);
    let mut db = ClausalDatabase::new();
    let mut instance = check.then(|| InstanceDatabase::with_atoms(n_atoms));
    let limits = Limits::budget(Budget::steps(STEP_CAP));
    for i in 0..STATEMENTS {
        let prog = testgen::hlu_program(&mut rng, n_atoms);
        govern(&limits, || db.run(&prog)).unwrap_or_else(|e| {
            panic!("{n_atoms} atoms, seed {seed}: statement {i} ({prog}) failed: {e}")
        });
        if let Some(instance) = &mut instance {
            instance.run(&prog);
            assert_eq!(
                &WorldSet::from_clauses(n_atoms, db.state()),
                instance.state(),
                "{n_atoms} atoms, seed {seed}: diverged after statement {i} ({prog})"
            );
        }
    }
    assert_eq!(db.updates_run(), STATEMENTS);
}

#[test]
fn default_database_finishes_ten_atom_streams_and_agrees_with_worlds() {
    for seed in [7, 11] {
        run_default_stream(10, seed, true);
    }
}

#[test]
fn default_database_finishes_sixteen_atom_streams() {
    for seed in [7, 11] {
        run_default_stream(16, seed, false);
    }
}

#[test]
fn directory_written_by_paper_exact_algebra_reopens_equivalent() {
    const N_ATOMS: usize = 6;
    const STREAM: usize = 40;
    let dir = TestDir::new("default-algebra-compat");
    let (state, history) = {
        let mut writer = DurableDatabase::open_with(
            Database::with_backend(BluClausal::paper_exact()),
            dir.path(),
        )
        .unwrap();
        let mut rng = Rng::new(0xC0DE);
        for i in 0..STREAM {
            writer
                .run(&testgen::hlu_program(&mut rng, N_ATOMS))
                .unwrap();
            if i == STREAM / 2 {
                writer.checkpoint().unwrap();
            }
        }
        (writer.state().clone(), writer.history().to_vec())
    };
    let reopened = ClausalDatabase::open(dir.path()).unwrap();
    let report = reopened.recovery_report();
    assert!(
        report.from_snapshot > 0 && report.replayed > 0,
        "{report:?}"
    );
    // The replayed suffix runs the reduced algebra, so the shapes differ
    // from the writer's: this is recovery across algebras.
    assert_ne!(reopened.state(), &state);
    assert!(
        equivalent(reopened.state(), &state),
        "recovered {} is not equivalent to written {}",
        reopened.state(),
        state
    );
    assert_eq!(reopened.history(), &history[..]);
    assert_eq!(reopened.updates_run(), STREAM);
}

#[test]
fn open_with_refuses_a_database_that_has_run_updates() {
    let dir = TestDir::new("default-algebra-not-fresh");
    let mut db = ClausalDatabase::new();
    db.insert(pwdb::logic::Wff::atom(0));
    let err = DurableDatabase::open_with(db, dir.path()).unwrap_err();
    assert!(
        matches!(err, DurableError::NotFresh { updates_run: 1 }),
        "{err}"
    );
}
