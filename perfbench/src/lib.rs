//! Seeded end-to-end and per-layer benchmark of the HLU update pipeline.
//!
//! One client drives the public `pwdb` API in a closed loop from a single
//! thread: the next operation is sent when the previous one returns. A
//! run is a sequence of seeded *rounds*: the next chunk of one long
//! stream for the stream workloads, a fresh knowledge base for the
//! others. A stream starts over from a fresh database, outside the
//! timed region, whenever an update leaves it inconsistent or too large. An untraced run plays rounds until its time is up and reports
//! the end-to-end metrics; a traced run plays a fixed number of rounds
//! twice, once through the decomposed pipeline with a span around every
//! layer call and once through the public entry points, and reports the
//! per-layer metrics. Workloads, metrics and the layer-to-metric
//! predictions are described in `README.md`.

mod cpus;
pub mod gen;
mod layers;
pub mod report;
mod rounds;
pub mod stats;
mod wal;

use std::path::{Path, PathBuf};

use pwdb_suite::pwdb::hlu::ClausalDatabase;
use pwdb_suite::pwdb::logic::{Budget, Limits};

pub use report::Report;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-exact `ClausalDatabase::new()`, in memory, 6 atoms.
    DefaultStream,
    /// Reduced `ClausalDatabase::new_reduced()`, in memory, 16 atoms.
    ReducedStream,
    /// A 48-atom knowledge base in memory, governed, 80% reads.
    KbMemory,
    /// The same knowledge base behind `DurableDatabase`.
    KbDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DefaultStream,
        Workload::ReducedStream,
        Workload::KbMemory,
        Workload::KbDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DefaultStream => "default_stream",
            Workload::ReducedStream => "reduced_stream",
            Workload::KbMemory => "kb_memory",
            Workload::KbDurable => "kb_durable",
        }
    }

    /// Whether the workload feeds `testgen` streams to an in-memory
    /// database (otherwise it is a knowledge-base workload).
    pub fn is_stream(self) -> bool {
        matches!(self, Workload::DefaultStream | Workload::ReducedStream)
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The database the workload's set-up constructs.
    pub fn database(self) -> ClausalDatabase {
        match self {
            Workload::DefaultStream => ClausalDatabase::new(),
            _ => ClausalDatabase::new_reduced(),
        }
    }

    /// Round sizes: `full` for measurement, otherwise the smallest
    /// sizes that still exercise every layer (the self-test).
    pub fn sizes(self, full: bool) -> Sizes {
        match (self, full) {
            (Workload::DefaultStream, true) => Sizes {
                atoms: 6,
                updates: 400,
                suffix: 8,
                check_every: 25,
                check_rounds: usize::MAX,
                max_clauses: usize::MAX,
                min_rounds: 3,
                trace_rounds: 1,
                ..Sizes::default()
            },
            (Workload::DefaultStream, false) => Sizes {
                atoms: 6,
                updates: 40,
                suffix: 4,
                check_every: 10,
                check_rounds: usize::MAX,
                max_clauses: usize::MAX,
                min_rounds: 1,
                trace_rounds: 1,
                ..Sizes::default()
            },
            // Checking 16 atoms against possible worlds costs far more
            // than running the stream, so only the first round is checked.
            (Workload::ReducedStream, true) => Sizes {
                atoms: 16,
                updates: 1000,
                suffix: 2,
                check_every: 125,
                check_rounds: 1,
                max_clauses: 128,
                min_rounds: 8,
                trace_rounds: 3,
                ..Sizes::default()
            },
            (Workload::ReducedStream, false) => Sizes {
                atoms: 16,
                updates: 200,
                suffix: 16,
                check_every: 50,
                check_rounds: 1,
                max_clauses: 128,
                min_rounds: 1,
                trace_rounds: 1,
                ..Sizes::default()
            },
            (Workload::KbMemory | Workload::KbDurable, true) => Sizes {
                atoms: 48,
                kb_load: 96,
                kb_ops: 5000,
                checkpoint_every: 96,
                suffix: 48,
                min_rounds: 8,
                trace_rounds: 2,
                ..Sizes::default()
            },
            (Workload::KbMemory | Workload::KbDurable, false) => Sizes {
                atoms: 48,
                kb_load: 96,
                kb_ops: 400,
                checkpoint_every: 24,
                suffix: 12,
                min_rounds: 1,
                trace_rounds: 1,
                ..Sizes::default()
            },
        }
    }
}

/// The size of one round. A stream workload's rounds are consecutive
/// chunks of one stream, on one database until it restarts; each
/// knowledge-base round starts a fresh database.
#[derive(Debug, Clone, Default)]
pub struct Sizes {
    pub atoms: usize,
    /// Streams: updates per round.
    pub updates: usize,
    /// Statements recovery replays after a round's last snapshot.
    pub suffix: usize,
    /// Streams: updates between world-count checks.
    pub check_every: usize,
    /// Streams: rounds checked against the possible-worlds reference.
    pub check_rounds: usize,
    /// Streams: a state with more clauses restarts the database.
    pub max_clauses: usize,
    /// Knowledge base: asserts bulk-loaded in set-up.
    pub kb_load: usize,
    /// Knowledge base: operations after the load.
    pub kb_ops: usize,
    /// Knowledge base: committed updates between checkpoints.
    pub checkpoint_every: usize,
    /// Rounds an untraced run plays at least; they give the state size.
    pub min_rounds: usize,
    /// Rounds a traced run plays.
    pub trace_rounds: usize,
}

/// The knowledge-base workloads keep their state inside this band of
/// clause counts; a state outside it means the stream has collapsed or
/// blown up.
pub const KB_CLAUSE_BAND: (usize, usize) = (15, 250);

/// Reopens per round, each on every CPU, whose times give `recovery_s`.
pub const RECOVERY_REPEATS: usize = 3;

/// The governor limits of the knowledge-base workloads: a step budget no
/// statement of the stream comes near.
pub fn kb_limits() -> Limits {
    Limits::budget(Budget::steps(100_000_000))
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Untraced runs play rounds until this much time has passed.
    pub seconds: f64,
    pub trace: bool,
    /// Full-size rounds (otherwise the self-test's smallest sizes).
    pub full: bool,
    /// Scratch directory for store files; removed afterwards.
    pub work_dir: PathBuf,
}

/// Runs the benchmark. `Err` means the benchmark itself could not run;
/// wrong program output is reported in the [`Report`].
pub fn run(opts: &Options) -> Result<Report, String> {
    let work = WorkDir::create(&opts.work_dir)?;
    let sizes = opts.workload.sizes(opts.full);
    let mut report = Report::default();
    if opts.trace {
        layers::run(opts.workload, &sizes, opts.seed, work.path(), &mut report)?;
    } else {
        rounds::run(opts, &sizes, work.path(), &mut report)?;
    }
    Ok(report)
}

/// A scratch directory removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: &Path) -> Result<WorkDir, String> {
        std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path.to_owned()))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Empties `dir` for a new store.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
