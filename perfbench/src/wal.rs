//! Writing a database's statements through `Store`, in the layout
//! `DurableDatabase` uses: an `A` record for every atom before the first
//! statement that could name it, one `S` record per statement in
//! concrete syntax, and snapshots of the state taken after a commit.
//!
//! With a tracer, every `Store` call runs inside a span of its own.

use std::cell::RefCell;
use std::path::Path;

use pwdb_suite::pwdb::hlu::HluProgram;
use pwdb_suite::pwdb::logic::{AtomId, AtomTable, ClauseSet};
use pwdb_suite::pwdb::store::{Record, SnapshotData, Store, StoreError};

use crate::fresh_dir;
use crate::layers::{span, Tracer};

/// An open store being written.
pub(crate) struct Log<'t> {
    store: Store,
    tracer: Option<&'t RefCell<Tracer>>,
    /// Atoms already logged.
    atoms: usize,
}

impl<'t> Log<'t> {
    /// Opens a new store in `dir`, emptying it first.
    pub(crate) fn create(
        dir: &Path,
        tracer: Option<&'t RefCell<Tracer>>,
    ) -> Result<Log<'t>, String> {
        fresh_dir(dir)?;
        let (store, _) = Store::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        Ok(Log {
            store,
            tracer,
            atoms: 0,
        })
    }

    /// Appends `prog`, after the atoms not logged yet.
    pub(crate) fn statement(&mut self, atoms: &AtomTable, prog: &HluProgram) -> Result<(), String> {
        self.new_atoms(atoms)?;
        let record = Record::Stmt(prog.display(atoms).to_string());
        self.call("store.append", |s| s.append(&record))
    }

    /// Makes everything appended durable: one fsync.
    pub(crate) fn commit(&mut self) -> Result<(), String> {
        self.call("store.commit", Store::commit)
    }

    /// Commits, then snapshots `state`, the state after `updates_run`
    /// statements.
    pub(crate) fn checkpoint(
        &mut self,
        atoms: &AtomTable,
        updates_run: usize,
        state: &ClauseSet,
    ) -> Result<(), String> {
        self.new_atoms(atoms)?;
        self.call("store.checkpoint", |s| {
            s.commit()?;
            let data = SnapshotData {
                wal_records: s.records(),
                updates_run: updates_run as u64,
                clauses: state.clone(),
            };
            s.checkpoint(&data).map(drop)
        })
    }

    pub(crate) fn wal_bytes(&self) -> u64 {
        self.store.stats().wal_bytes
    }

    fn new_atoms(&mut self, atoms: &AtomTable) -> Result<(), String> {
        for i in self.atoms..atoms.len() {
            let name = atoms.name(AtomId(i as u32)).expect("dense ids").to_owned();
            self.call("store.append", |s| s.append(&Record::Atom(name)))?;
        }
        self.atoms = atoms.len();
        Ok(())
    }

    fn call<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Store) -> Result<R, StoreError>,
    ) -> Result<R, String> {
        let store = &mut self.store;
        match self.tracer {
            Some(t) => span(t, name, || f(store)),
            None => f(store),
        }
        .map_err(|e| format!("{name}: {e}"))
    }
}

/// Writes `history` to a new store in `dir`, with a snapshot of `state`
/// after its first `snapshot_at` statements (none if 0), and commits.
/// Returns the bytes of the write-ahead log.
pub(crate) fn write_log(
    dir: &Path,
    atoms: &AtomTable,
    history: &[HluProgram],
    (snapshot_at, state): (usize, &ClauseSet),
    tracer: Option<&RefCell<Tracer>>,
) -> Result<u64, String> {
    let mut log = Log::create(dir, tracer)?;
    for (i, prog) in history.iter().enumerate() {
        log.statement(atoms, prog)?;
        if i + 1 == snapshot_at {
            log.checkpoint(atoms, snapshot_at, state)?;
        }
    }
    log.new_atoms(atoms)?;
    log.commit()?;
    Ok(log.wal_bytes())
}
