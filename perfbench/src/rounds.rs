//! Untraced rounds: the end-to-end metrics and the output checks.
//!
//! Only the operations themselves are timed. Generating the stream,
//! writing the recovery log, and checking outputs happen outside the
//! timed region.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use pwdb_suite::pwdb::hlu::{
    parse_hlu, ClausalDatabase, DurableDatabase, DurableError, InstanceDatabase,
};
use pwdb_suite::pwdb::logic::{cache, parse_wff, AtomTable, ClauseSet, Limits, Wff};
use pwdb_suite::pwdb::worlds::WorldSet;

use crate::cpus;
use crate::gen::{self, Op, OpKind};
use crate::stats::{mean, median, quantile};
use crate::wal::write_log;
use crate::{fresh_dir, peak_rss_mb, Options, Report, Sizes, Workload};

/// Samples gathered over the rounds of an untraced run.
///
/// Statement costs are heavy-tailed: a few rounds hit states hundreds of
/// times larger than usual. Throughput, latency quantiles and state size
/// are therefore computed per round and reported as the median over
/// rounds, which a rare expensive round does not move.
#[derive(Debug, Default)]
pub(crate) struct E2e {
    setup_s: Vec<f64>,
    rounds: Vec<RoundStats>,
    recovery_s: Vec<f64>,
    wal_bytes: u64,
    user_bytes: u64,
    /// Per round: mean `Length[Φ]` of the state after each update.
    state_literals: Vec<f64>,
    /// Streams: restarts, and how many of them were for inconsistency.
    restarts: (usize, usize),
    /// `VmHWM` once the first `min_rounds` rounds are done.
    peak_rss_mb: Option<f64>,
    /// The current round's samples.
    update_ms: Vec<f64>,
    query_us: Vec<f64>,
}

/// One round's timings.
#[derive(Debug)]
struct RoundStats {
    update_per_s: f64,
    ops_per_s: f64,
    update_p50_ms: f64,
    update_p90_ms: f64,
    query_p50_us: f64,
    query_p99_us: f64,
    updates: usize,
    queries: usize,
}

impl E2e {
    /// Closes the current round, whose operations took `stream_s` of
    /// timed time.
    fn end_round(&mut self, stream_s: f64) {
        let (u, q) = (
            std::mem::take(&mut self.update_ms),
            std::mem::take(&mut self.query_us),
        );
        self.rounds.push(RoundStats {
            update_per_s: u.len() as f64 / stream_s,
            ops_per_s: (u.len() + q.len()) as f64 / stream_s,
            update_p50_ms: quantile(&u, 0.5),
            update_p90_ms: quantile(&u, 0.9),
            query_p50_us: quantile(&q, 0.5),
            query_p99_us: quantile(&q, 0.99),
            updates: u.len(),
            queries: q.len(),
        });
    }

    /// Turns the samples into the end-to-end metrics. The state size
    /// comes from the first `space_rounds` rounds only, so that it does
    /// not depend on how many rounds the time allowed.
    pub(crate) fn finish(&self, space_rounds: usize, report: &mut Report) {
        let n = self.rounds.len();
        let over_rounds =
            |f: fn(&RoundStats) -> f64| median(&self.rounds.iter().map(f).collect::<Vec<_>>());
        let updates: usize = self.rounds.iter().map(|r| r.updates).sum();
        let queries: usize = self.rounds.iter().map(|r| r.queries).sum();
        let per_round =
            |samples: usize| format!("median of {n} rounds, {} per round", samples / n.max(1));
        report.set(
            "setup_s",
            median(&self.setup_s),
            format!("median of {}", self.setup_s.len()),
        );
        report.set(
            "update_per_s",
            over_rounds(|r| r.update_per_s),
            per_round(updates),
        );
        report.set(
            "ops_per_s",
            over_rounds(|r| r.ops_per_s),
            per_round(updates + queries),
        );
        report.set(
            "update_p50_ms",
            over_rounds(|r| r.update_p50_ms),
            per_round(updates),
        );
        report.set(
            "update_p90_ms",
            over_rounds(|r| r.update_p90_ms),
            per_round(updates),
        );
        report.set(
            "query_p50_us",
            over_rounds(|r| r.query_p50_us),
            per_round(queries),
        );
        report.set(
            "query_p99_us",
            over_rounds(|r| r.query_p99_us),
            per_round(queries),
        );
        report.set(
            "recovery_s",
            median(&self.recovery_s),
            format!("median of {}", self.recovery_s.len()),
        );
        report.set(
            "wal_bytes_per_user_byte",
            self.wal_bytes as f64 / self.user_bytes.max(1) as f64,
            format!("{} WAL bytes", self.wal_bytes),
        );
        report.set(
            "peak_rss_mb",
            self.peak_rss_mb.unwrap_or_else(peak_rss_mb),
            format!("VmHWM after the first {space_rounds} rounds"),
        );
        let space: Vec<f64> = self
            .state_literals
            .iter()
            .take(space_rounds)
            .copied()
            .collect();
        report.set(
            "state_literals_mean",
            median(&space),
            format!(
                "median of the first {} rounds; {} restarts in all rounds, {} inconsistent",
                space.len(),
                self.restarts.0,
                self.restarts.1
            ),
        );
    }
}

/// Plays untraced rounds until `opts` says stop, then reports the
/// end-to-end metrics.
pub(crate) fn run(
    opts: &Options,
    sizes: &Sizes,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let mut acc = E2e::default();
    let mut stream = opts
        .workload
        .is_stream()
        .then(|| Stream::new(opts.workload, sizes.atoms));
    let mut round = 0;
    loop {
        let seed = gen::round_seed(opts.seed, round);
        match &mut stream {
            Some(stream) => stream.round(sizes, seed, round, work, &mut acc, report)?,
            None => kb_round(opts.workload, sizes, seed, work, &mut acc, report)?,
        }
        round += 1;
        if round == sizes.min_rounds {
            // How many rounds follow depends on speed.
            acc.peak_rss_mb = Some(peak_rss_mb());
        }
        if round >= sizes.min_rounds && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    acc.finish(sizes.min_rounds, report);
    Ok(())
}

/// Runs one stream operation: parse, then update or query. Returns the
/// query's answer.
pub(crate) fn apply(
    db: &mut ClausalDatabase,
    atoms: &mut AtomTable,
    op: &Op,
) -> Result<Option<bool>, String> {
    match op.kind {
        OpKind::Update => {
            let prog = parse_hlu(&op.text, atoms).map_err(|e| e.to_string())?;
            db.run(&prog);
            Ok(None)
        }
        OpKind::Certain => {
            let w = parse_wff(&op.text, atoms).map_err(|e| e.to_string())?;
            Ok(Some(db.is_certain(&w)))
        }
        OpKind::Possible => {
            let w = parse_wff(&op.text, atoms).map_err(|e| e.to_string())?;
            Ok(Some(db.is_possible(&w)))
        }
    }
}

/// Seconds per `ClausalDatabase` construction, averaged over a batch
/// (one construction is too short to time alone) split over the CPUs.
fn construction_s(workload: Workload) -> f64 {
    const BATCH: usize = 100_000;
    let batch = BATCH / cpus::count();
    let per_cpu: Vec<f64> = cpus::each()
        .map(|()| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(workload.database());
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    mean(&per_cpu)
}

/// An in-memory stream: one database for the whole run, fed a new
/// generated chunk of statements each round.
struct Stream {
    workload: Workload,
    db: ClausalDatabase,
    atoms: AtomTable,
    /// The possible-worlds reference, replayed in step while checking.
    reference: Option<(InstanceDatabase, AtomTable)>,
}

impl Stream {
    fn new(workload: Workload, atoms: usize) -> Stream {
        cache::clear_all();
        Stream {
            workload,
            db: workload.database(),
            atoms: AtomTable::with_indexed_atoms(atoms),
            reference: None,
        }
    }

    fn round(
        &mut self,
        sizes: &Sizes,
        seed: u64,
        round: usize,
        work: &Path,
        acc: &mut E2e,
        report: &mut Report,
    ) -> Result<(), String> {
        let ops = gen::stream_ops(seed, sizes.atoms, sizes.updates);
        acc.setup_s.push(construction_s(self.workload));
        let check = round < sizes.check_rounds;
        // The round's statements, across restarts, are logged at its end.
        let mut logged = Vec::with_capacity(sizes.updates);
        let mut base = self.db.history().len();
        let mut snapshot = None;
        let mut answers = vec![None; ops.len()];
        let mut world_counts = Vec::new();
        let mut restarts = Vec::new();
        let mut updates: usize = 0;
        let mut literals = 0;
        let mut paused = Duration::ZERO;
        let start = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            paused += cpus::rotate_at(i, ops.len());
            let t = Instant::now();
            let (db, atoms) = (&mut self.db, &mut self.atoms);
            let outcome = catch_unwind(AssertUnwindSafe(|| apply(db, atoms, op)));
            let dt = t.elapsed();
            report.attempted += 1;
            match outcome {
                Ok(Ok(answer)) => {
                    match op.kind {
                        OpKind::Update => acc.update_ms.push(ms(dt)),
                        _ => acc.query_us.push(us(dt)),
                    }
                    answers[i] = answer;
                }
                Ok(Err(e)) => fail(report, format!("{}: {e}", op.text)),
                Err(_) => fail(report, format!("{}: panicked", op.text)),
            }
            if op.kind == OpKind::Update {
                let p = Instant::now();
                updates += 1;
                literals += self.db.state().length();
                if check && updates.is_multiple_of(sizes.check_every) {
                    world_counts.push((i, self.db.world_count(sizes.atoms)));
                }
                let db = &self.db;
                if let Some(why) = Restart::after(sizes, db.state(), || db.is_consistent()) {
                    logged.extend_from_slice(&self.db.history()[base..]);
                    self.db = self.workload.database();
                    base = 0;
                    restarts.push((i, why));
                    snapshot = Some((logged.len(), self.db.state().clone()));
                } else if updates == sizes.updates - sizes.suffix {
                    let at = logged.len() + self.db.history().len() - base;
                    snapshot = Some((at, self.db.state().clone()));
                }
                paused += p.elapsed();
            }
        }
        acc.end_round((start.elapsed() - paused).as_secs_f64());
        acc.state_literals
            .push(literals as f64 / sizes.updates as f64);
        acc.restarts.0 += restarts.len();
        acc.restarts.1 += restarts
            .iter()
            .filter(|(_, why)| *why == Restart::Inconsistent)
            .count();
        acc.user_bytes += ops
            .iter()
            .filter(|op| op.kind == OpKind::Update)
            .map(|op| op.text.len() as u64)
            .sum::<u64>();

        // The log gets a snapshot `sizes.suffix` statements before its
        // end, or at the last restart if that is later, so reopening
        // replays only statements of the database's current life.
        logged.extend_from_slice(&self.db.history()[base..]);
        let (snapshot_at, state) = snapshot.ok_or("the stream committed too few updates")?;
        let dir = work.join("stream");
        acc.wal_bytes += write_log(&dir, &self.atoms, &logged, (snapshot_at, &state), None)?;
        let history = (logged.len(), logged.len() - snapshot_at);
        reopen(self.workload, &dir, self.db.state(), history, acc, report);
        if check {
            let (reference, atoms) = self.reference.get_or_insert_with(|| {
                (
                    InstanceDatabase::with_atoms(sizes.atoms),
                    AtomTable::with_indexed_atoms(sizes.atoms),
                )
            });
            let outputs = StreamOutputs {
                answers: &answers,
                world_counts: &world_counts,
                restarts: &restarts,
                state: self.db.state(),
            };
            check_stream(sizes, reference, atoms, &ops, &outputs, report);
        }
        Ok(())
    }
}

/// A reopened store must hold exactly the state it was closed with,
/// having replayed the statements logged since its last snapshot.
pub(crate) fn check_reopened(
    reopened: &DurableDatabase,
    state: &ClauseSet,
    history: usize,
    suffix: usize,
    report: &mut Report,
) {
    if reopened.state() != state {
        report
            .problems
            .push("reopened state differs from the closed state".into());
    }
    if reopened.history().len() != history {
        report.problems.push(format!(
            "reopened history has {} statements, expected {history}",
            reopened.history().len()
        ));
    }
    if reopened.recovery_report().replayed != suffix {
        report.problems.push(format!(
            "recovery replayed {}, expected {suffix}",
            reopened.recovery_report().replayed
        ));
    }
}

/// Why a stream starts over from a fresh database after an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Restart {
    /// No world is left, and every later update would leave none.
    Inconsistent,
    /// The state has more than [`Sizes::max_clauses`] clauses.
    Full,
}

impl Restart {
    /// Whether a stream whose last update left `state` restarts, and
    /// why. `consistent` is asked only of a state within the bound.
    pub(crate) fn after(
        sizes: &Sizes,
        state: &ClauseSet,
        consistent: impl FnOnce() -> bool,
    ) -> Option<Restart> {
        if state.len() > sizes.max_clauses {
            Some(Restart::Full)
        } else if !consistent() {
            Some(Restart::Inconsistent)
        } else {
            None
        }
    }
}

/// What a checked stream round observed, keyed by operation index.
struct StreamOutputs<'a> {
    answers: &'a [Option<bool>],
    world_counts: &'a [(usize, u64)],
    /// Updates after which the database restarted, and why.
    restarts: &'a [(usize, Restart)],
    state: &'a ClauseSet,
}

/// Replays the stream on the possible-worlds reference and compares
/// query answers, world counts, restarts and the final models.
fn check_stream(
    sizes: &Sizes,
    reference: &mut InstanceDatabase,
    atoms: &mut AtomTable,
    ops: &[Op],
    outputs: &StreamOutputs,
    report: &mut Report,
) {
    let mut counts = outputs.world_counts.iter().peekable();
    let mut restarts = outputs.restarts.iter().peekable();
    for (i, (op, answer)) in ops.iter().zip(outputs.answers).enumerate() {
        if op.kind == OpKind::Update {
            let Ok(prog) = parse_hlu(&op.text, atoms) else {
                continue;
            };
            reference.run(&prog);
            if let Some((_, count)) = counts.next_if(|(at, _)| *at == i) {
                let expected = reference.world_count(sizes.atoms);
                if *count != expected {
                    report.problems.push(format!(
                        "after {}: {count} worlds, expected {expected}",
                        op.text
                    ));
                }
            }
            if let Some((_, why)) = restarts.next_if(|(at, _)| *at == i) {
                if *why == Restart::Inconsistent && reference.is_consistent() {
                    report.problems.push(format!(
                        "inconsistent after {}, but the reference has worlds",
                        op.text
                    ));
                }
                *reference = InstanceDatabase::with_atoms(sizes.atoms);
            }
        } else if let (Ok(w), Some(answer)) = (parse_wff(&op.text, atoms), answer) {
            let expected = match op.kind {
                OpKind::Certain => reference.is_certain(&w),
                _ => reference.is_possible(&w),
            };
            if *answer != expected {
                report
                    .problems
                    .push(format!("{:?} {} answered {answer}", op.kind, op.text));
            }
        }
    }
    if WorldSet::from_clauses(sizes.atoms, outputs.state) != *reference.state() {
        report
            .problems
            .push("final state's models differ from the possible-worlds reference".into());
    }
}

/// The knowledge base of a `kb_*` round.
pub(crate) enum Kb {
    Durable(Box<DurableDatabase>),
    /// In memory. A checkpoint only records the state; the round's log
    /// and snapshot are written through `Store` when the round ends.
    Memory {
        db: ClausalDatabase,
        atoms: AtomTable,
        snapshot: (usize, ClauseSet),
    },
}

impl Kb {
    pub(crate) fn open(workload: Workload, dir: &Path) -> Result<Kb, String> {
        let db = workload.database();
        Ok(match workload {
            Workload::KbDurable => {
                let durable =
                    DurableDatabase::open_with(db, dir).map_err(|e| format!("open: {e}"))?;
                Kb::Durable(Box::new(durable))
            }
            _ => Kb::Memory {
                snapshot: (0, db.state().clone()),
                db,
                atoms: AtomTable::new(),
            },
        })
    }

    pub(crate) fn db(&self) -> &ClausalDatabase {
        match self {
            Kb::Durable(d) => d,
            Kb::Memory { db, .. } => db,
        }
    }

    /// Parses and runs one update under `limits`.
    pub(crate) fn update(&mut self, text: &str, limits: &Limits) -> Result<(), DurableError> {
        match self {
            Kb::Durable(d) => d.run_statement_governed(text, limits).1,
            Kb::Memory { db, atoms, .. } => {
                let prog = parse_hlu(text, atoms)?;
                Ok(db.run_governed(&prog, limits)?)
            }
        }
    }

    pub(crate) fn query(&mut self, op: &Op) -> Result<bool, String> {
        let (db, atoms) = match self {
            Kb::Durable(d) => {
                let w = parse_wff(&op.text, d.atoms_mut()).map_err(|e| e.to_string())?;
                return Ok(answer(d, op, &w));
            }
            Kb::Memory { db, atoms, .. } => (db, atoms),
        };
        let w = parse_wff(&op.text, atoms).map_err(|e| e.to_string())?;
        Ok(answer(db, op, &w))
    }

    pub(crate) fn checkpoint(&mut self) -> Result<(), DurableError> {
        match self {
            Kb::Durable(d) => d.checkpoint().map(drop),
            Kb::Memory { db, snapshot, .. } => {
                *snapshot = (db.history().len(), db.state().clone());
                Ok(())
            }
        }
    }

    /// Closes the round: an in-memory knowledge base writes its log now.
    /// Returns the bytes of the write-ahead log.
    fn close(self, dir: &Path) -> Result<u64, String> {
        match self {
            Kb::Durable(d) => Ok(d.store_stats().wal_bytes),
            Kb::Memory {
                db,
                atoms,
                snapshot,
            } => write_log(dir, &atoms, db.history(), (snapshot.0, &snapshot.1), None),
        }
    }
}

fn answer(db: &ClausalDatabase, op: &Op, w: &Wff) -> bool {
    match op.kind {
        OpKind::Certain => db.is_certain(w),
        _ => db.is_possible(w),
    }
}

/// Times reopening `dir` and checks that it recovers `state`, with
/// `history` statements of which the last `suffix` are replayed.
fn reopen(
    workload: Workload,
    dir: &Path,
    state: &ClauseSet,
    (history, suffix): (usize, usize),
    acc: &mut E2e,
    report: &mut Report,
) {
    for _ in 0..crate::RECOVERY_REPEATS {
        let mut per_cpu = Vec::new();
        for () in cpus::each() {
            let t = Instant::now();
            let reopened = DurableDatabase::open_with(workload.database(), dir);
            let dt = t.elapsed();
            match reopened {
                Ok(r) => {
                    per_cpu.push(dt.as_secs_f64());
                    check_reopened(&r, state, history, suffix, report);
                }
                Err(e) => fail(report, format!("reopen: {e}")),
            }
        }
        if !per_cpu.is_empty() {
            acc.recovery_s.push(mean(&per_cpu));
        }
    }
}

fn kb_round(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    work: &Path,
    acc: &mut E2e,
    report: &mut Report,
) -> Result<(), String> {
    let round = gen::kb_round(seed, sizes.atoms, sizes.kb_load, sizes.kb_ops);
    let dir = work.join("kb");
    let limits = crate::kb_limits();

    // Set-up runs on every CPU; the last knowledge base is kept.
    let mut per_cpu = Vec::new();
    let mut loaded = None;
    for () in cpus::each() {
        // The previous store closes before its directory is emptied.
        drop(loaded.take());
        fresh_dir(&dir)?;
        cache::clear_all();
        let t = Instant::now();
        let mut kb = Kb::open(workload, &dir)?;
        let results: Vec<_> = round
            .load
            .iter()
            .map(|text| kb.update(text, &limits))
            .collect();
        per_cpu.push(t.elapsed().as_secs_f64());
        loaded = Some((kb, results));
    }
    acc.setup_s.push(mean(&per_cpu));
    let (mut kb, results) = loaded.ok_or("no CPU to set up on")?;
    // Statements logged since the last snapshot: what reopening replays.
    let mut since_snapshot = 0;
    for (text, result) in round.load.iter().zip(results) {
        report.attempted += 1;
        if result.is_ok() {
            since_snapshot += 1;
            acc.user_bytes += text.len() as u64;
        }
        tally_update(text, result, report);
    }

    let total = updates_in(&round.ops);
    let mut answers = vec![None; round.ops.len()];
    let mut committed = 0;
    let mut literals = 0;
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    for (i, op) in round.ops.iter().enumerate() {
        paused += cpus::rotate_at(i, round.ops.len());
        report.attempted += 1;
        let t = Instant::now();
        if op.kind == OpKind::Update {
            let result = kb.update(&op.text, &limits);
            let dt = t.elapsed();
            if result.is_ok() {
                acc.update_ms.push(ms(dt));
                acc.user_bytes += op.text.len() as u64;
                committed += 1;
                since_snapshot += 1;
                let p = Instant::now();
                literals += kb.db().state().length();
                paused += p.elapsed();
                if checkpoint_due(committed, total, sizes) {
                    let p = Instant::now();
                    if let Err(e) = kb.checkpoint() {
                        fail(report, format!("checkpoint: {e}"));
                    }
                    // An in-memory checkpoint is the benchmark's own
                    // bookkeeping, not an operation of the program.
                    match kb {
                        Kb::Durable(_) => report.attempted += 1,
                        Kb::Memory { .. } => paused += p.elapsed(),
                    }
                    since_snapshot = 0;
                    check_band(kb.db().state().len(), committed, report);
                }
            }
            tally_update(&op.text, result, report);
        } else {
            let outcome = catch_unwind(AssertUnwindSafe(|| kb.query(op)));
            let dt = t.elapsed();
            match outcome {
                Ok(Ok(answer)) => {
                    acc.query_us.push(us(dt));
                    answers[i] = Some(answer);
                }
                Ok(Err(e)) => fail(report, format!("{}: {e}", op.text)),
                Err(_) => fail(report, format!("{}: panicked", op.text)),
            }
        }
    }
    acc.end_round((start.elapsed() - paused).as_secs_f64());

    let state = kb.db().state().clone();
    let history = kb.db().history().len();
    acc.state_literals
        .push(literals as f64 / committed.max(1) as f64);
    check_band(state.len(), committed, report);
    if !kb.db().is_consistent() {
        report
            .problems
            .push("knowledge base inconsistent at the end".into());
    }
    check_hidden_world(&round.ops, &answers, report);
    acc.wal_bytes += kb.close(&dir)?;
    reopen(
        workload,
        &dir,
        &state,
        (history, since_snapshot),
        acc,
        report,
    );
    Ok(())
}

/// The number of updates among `ops`.
pub(crate) fn updates_in(ops: &[Op]) -> usize {
    ops.iter().filter(|op| op.kind == OpKind::Update).count()
}

/// Whether a `kb_*` round checkpoints after the `committed`-th of its
/// `total` stream updates: every `checkpoint_every` updates, placed so
/// that the last checkpoint falls `suffix` updates before the end. Every
/// reopen then replays the same number of statements.
pub(crate) fn checkpoint_due(committed: usize, total: usize, sizes: &Sizes) -> bool {
    committed < total && (total - committed) % sizes.checkpoint_every == sizes.suffix
}

/// Counts a governed update's outcome: rejections apart from failures.
pub(crate) fn tally_update(text: &str, result: Result<(), DurableError>, report: &mut Report) {
    match result {
        Ok(()) => {}
        Err(DurableError::Rejected) => report.rejected += 1,
        Err(e) => fail(report, format!("{text}: {e}")),
    }
}

/// A `kb_*` state must stay inside [`crate::KB_CLAUSE_BAND`].
pub(crate) fn check_band(clauses: usize, committed: usize, report: &mut Report) {
    let (lo, hi) = crate::KB_CLAUSE_BAND;
    if !(lo..=hi).contains(&clauses) {
        report.problems.push(format!(
            "after {committed} updates the state has {clauses} clauses, outside {lo}..={hi}"
        ));
    }
}

/// The hidden world is always possible: what is certain holds in it,
/// and what holds in it is possible.
pub(crate) fn check_hidden_world<'a>(
    ops: impl IntoIterator<Item = &'a Op>,
    answers: &[Option<bool>],
    report: &mut Report,
) {
    for (op, answer) in ops.into_iter().zip(answers) {
        let (Some(answer), Some(truth)) = (answer, op.hidden_truth) else {
            continue;
        };
        let wrong = match op.kind {
            OpKind::Certain => *answer && !truth,
            _ => truth && !*answer,
        };
        if wrong {
            report.problems.push(format!(
                "{:?} {} answered {answer} but the hidden world has it {truth}",
                op.kind, op.text
            ));
        }
    }
}

pub(crate) fn fail(report: &mut Report, problem: String) {
    report.failed += 1;
    report.problems.push(problem);
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub(crate) fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
