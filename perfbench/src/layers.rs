//! Traced rounds: the per-layer metrics.
//!
//! A traced round replays each statement as the public calls that
//! `Database::run` makes — `parse_hlu` → `compile` → `cnf_of` per state
//! argument → `run_program` — over [`TracedAlg`], which delegates every
//! BLU primitive to `BluClausal` inside a span of its own. Queries call
//! `entails` and `is_satisfiable` directly. Knowledge-base updates run
//! inside `govern`. Every workload writes its log through `Store`:
//! `kb_durable` statement by statement on the update path, the others
//! after the pass, as their untraced rounds do. The log is then read
//! back with `Store::open` and must recover through
//! `DurableDatabase::open_with` to the traced state. Spans are recorded
//! by the benchmark around these calls only; the program is not
//! instrumented further. The same round then runs untraced through the
//! public entry points, and every statement's traced state must equal
//! the untraced one bit for bit.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use pwdb_suite::pwdb::blu::{run_program, BluClausal, BluSemantics, Value};
use pwdb_suite::pwdb::hlu::{compile, parse_hlu, ArgValue, DurableDatabase, HluProgram};
use pwdb_suite::pwdb::logic::{
    cache, cnf_of, entails, govern, is_satisfiable, parse_wff, AtomId, AtomTable, ClauseSet, Limits,
};
use pwdb_suite::pwdb::store::Store;

use crate::gen::{self, Op, OpKind};
use crate::report::{COUNTERS, PRIMITIVES};
use crate::rounds::{
    apply, check_band, check_hidden_world, check_reopened, checkpoint_due, fail, tally_update,
    updates_in, Kb, Restart,
};
use crate::stats::quantile;
use crate::wal::{write_log, Log};
use crate::{fresh_dir, Report, Sizes, Workload};

/// A completed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    ns: u64,
    child_ns: u64,
}

/// Spans of one traced round, kept in memory until the run ends.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Runs `f` inside a span called `name`.
pub(crate) fn span<R>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    {
        let mut t = tracer.borrow_mut();
        let parent = t.open.last().copied();
        let index = t.spans.len();
        t.spans.push(Span {
            name,
            parent,
            start: Instant::now(),
            ns: 0,
            child_ns: 0,
        });
        t.open.push(index);
    }
    let out = f();
    let mut t = tracer.borrow_mut();
    let index = t.open.pop().expect("spans close in order");
    let ns = t.spans[index].start.elapsed().as_nanos() as u64;
    t.spans[index].ns = ns;
    if let Some(p) = t.spans[index].parent {
        t.spans[p].child_ns += ns;
    }
    out
}

/// `BluClausal` with a span around every primitive.
struct TracedAlg<'a> {
    inner: BluClausal,
    tracer: &'a RefCell<Tracer>,
}

impl BluSemantics for TracedAlg<'_> {
    type State = ClauseSet;
    type Mask = BTreeSet<AtomId>;

    fn op_assert(&self, x: &ClauseSet, y: &ClauseSet) -> ClauseSet {
        span(self.tracer, "blu.clausal.assert", || {
            self.inner.op_assert(x, y)
        })
    }

    fn op_combine(&self, x: &ClauseSet, y: &ClauseSet) -> ClauseSet {
        span(self.tracer, "blu.clausal.combine", || {
            self.inner.op_combine(x, y)
        })
    }

    fn op_complement(&self, x: &ClauseSet) -> ClauseSet {
        span(self.tracer, "blu.clausal.complement", || {
            self.inner.op_complement(x)
        })
    }

    fn op_mask(&self, x: &ClauseSet, m: &BTreeSet<AtomId>) -> ClauseSet {
        span(self.tracer, "blu.clausal.mask", || self.inner.op_mask(x, m))
    }

    fn op_genmask(&self, x: &ClauseSet) -> BTreeSet<AtomId> {
        span(self.tracer, "blu.clausal.genmask", || {
            self.inner.op_genmask(x)
        })
    }
}

impl TracedAlg<'_> {
    /// `Database::run` without its bookkeeping: compile, lower the
    /// state arguments, evaluate.
    fn run(&self, state: &ClauseSet, prog: &HluProgram) -> Result<ClauseSet, String> {
        let compiled = span(self.tracer, "hlu.compile", || compile(prog));
        let mut args = Vec::with_capacity(compiled.args.len() + 1);
        args.push(Value::State(state.clone()));
        for a in &compiled.args {
            args.push(match a {
                ArgValue::State(w) => Value::State(span(self.tracer, "logic.cnf", || cnf_of(w))),
                ArgValue::Mask(m) => Value::Mask(m.clone()),
            });
        }
        span(self.tracer, "blu.eval", || {
            run_program(self, &compiled.program, args)
        })
        .map_err(|e| e.to_string())
    }

    /// A query, as `Database::is_certain` / `is_possible` answer it.
    fn query(&self, state: &ClauseSet, atoms: &mut AtomTable, op: &Op) -> Result<bool, String> {
        let t = self.tracer;
        let w = span(t, "hlu.parser", || parse_wff(&op.text, atoms)).map_err(|e| e.to_string())?;
        Ok(match op.kind {
            OpKind::Certain => span(t, "logic.dpll", || entails(state, &w)),
            _ => {
                let negated = w.not();
                !span(t, "logic.dpll", || entails(state, &negated))
                    && span(t, "logic.dpll", || is_satisfiable(state))
            }
        })
    }
}

/// Counter and genmask-cache readings, for deltas.
#[derive(Debug, Clone, Default)]
struct Reading {
    counters: Vec<u64>,
    genmask: [u64; 3],
}

impl Reading {
    fn now() -> Reading {
        let snap = pwdb_metrics::snapshot();
        let genmask = cache::all_stats()
            .into_iter()
            .find(|s| s.name == "blu.cache.genmask")
            .map_or([0; 3], |s| [s.hits, s.misses, s.invalidations]);
        Reading {
            counters: COUNTERS.iter().map(|(_, c)| snap.counter(c)).collect(),
            genmask,
        }
    }

    /// Adds `after - before`.
    fn add(&mut self, before: &Reading, after: &Reading) {
        self.counters.resize(COUNTERS.len(), 0);
        for (i, total) in self.counters.iter_mut().enumerate() {
            *total += after.counters[i] - before.counters[i];
        }
        for i in 0..3 {
            self.genmask[i] += after.genmask[i] - before.genmask[i];
        }
    }
}

/// Totals over the traced rounds of a run.
#[derive(Debug, Default)]
struct Totals {
    spans: Vec<Span>,
    /// Time in top-level spans on the statement path.
    layer_ns: u64,
    counts: Reading,
    /// Counts caused by the benchmark's own checks, left out of `counts`.
    harness: Reading,
    traced: Duration,
    untraced: Duration,
    history_len: usize,
    replayed: usize,
}

impl Totals {
    /// Adds the counts since `before` and the spans of a traced pass:
    /// `tracer` on the statement path, `log` around writing and reading
    /// back its store after the pass.
    fn add_pass(&mut self, before: &Reading, tracer: Tracer, log: Tracer) {
        self.counts.add(before, &Reading::now());
        self.layer_ns += tracer
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.ns)
            .sum::<u64>();
        self.spans.extend(tracer.spans);
        self.spans.extend(log.spans);
    }

    /// Runs one of the benchmark's own checks; its counts are left out.
    fn harness<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = Reading::now();
        let out = f();
        self.harness.add(&before, &Reading::now());
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn finish(&self, report: &mut Report) {
        let calls = |name: &str| self.named(name).count() as f64;
        let self_ms = |name: &str| {
            self.named(name)
                .map(|s| s.ns.saturating_sub(s.child_ns))
                .sum::<u64>() as f64
                / 1e6
        };
        let p99_ns = |name: &str| {
            let ns: Vec<f64> = self.named(name).map(|s| s.ns as f64).collect();
            quantile(&ns, 0.99)
        };
        for op in PRIMITIVES {
            let name = format!("blu.clausal.{op}");
            report.set(&format!("{name}.calls"), calls(&name), "");
            report.set(&format!("{name}.self_ms"), self_ms(&name), "");
            report.set(&format!("{name}.p99_us"), p99_ns(&name) / 1e3, "");
        }
        for layer in ["hlu.parser", "hlu.compile", "logic.cnf", "logic.dpll"] {
            report.set(&format!("{layer}.calls"), calls(layer), "");
            report.set(&format!("{layer}.self_ms"), self_ms(layer), "");
        }
        report.set("blu.eval.self_ms", self_ms("blu.eval"), "");
        report.set("store.append.self_ms", self_ms("store.append"), "");
        report.set("store.commit.self_ms", self_ms("store.commit"), "");
        report.set("store.commit.p99_us", p99_ns("store.commit") / 1e3, "");
        report.set("store.checkpoint.calls", calls("store.checkpoint"), "");
        report.set(
            "store.checkpoint.p99_ms",
            p99_ns("store.checkpoint") / 1e6,
            "",
        );
        report.set("store.open.self_ms", self_ms("store.open"), "");
        report.set("store.recover.replayed", self.replayed as f64, "");
        let [hits, misses, invalidations] = self.counts.genmask;
        report.set(
            "logic.cache.genmask.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            format!("{hits} hits, {misses} misses"),
        );
        report.set(
            "logic.cache.genmask.invalidations",
            invalidations as f64,
            "",
        );
        report.set(
            "hlu.database.residual_ms",
            (self.untraced.as_nanos() as f64 - self.layer_ns as f64) / 1e6,
            format!("untraced {:.1} ms", self.untraced.as_secs_f64() * 1e3),
        );
        report.set("hlu.history.len", self.history_len as f64, "");
        report.set(
            "trace.overhead_ratio",
            self.traced.as_secs_f64() / self.untraced.as_secs_f64(),
            format!("traced {:.1} ms", self.traced.as_secs_f64() * 1e3),
        );
        for (i, (name, _)) in COUNTERS.iter().enumerate() {
            let count = self.counts.counters.get(i).copied().unwrap_or(0);
            let harness = self.harness.counters.get(i).copied().unwrap_or(0);
            report.set(
                name,
                count.saturating_sub(harness) as f64,
                format!("{harness} more in the benchmark's checks"),
            );
        }
    }
}

/// Plays the workload's traced rounds and reports the per-layer metrics.
pub(crate) fn run(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut totals = Totals::default();
    let seeds = (0..sizes.trace_rounds).map(|round| gen::round_seed(seed, round));
    if workload.is_stream() {
        let ops: Vec<Op> = seeds
            .flat_map(|seed| gen::stream_ops(seed, sizes.atoms, sizes.updates))
            .collect();
        stream(workload, sizes, &ops, work, &mut totals, report)?;
    } else {
        for seed in seeds {
            kb_round(workload, sizes, seed, work, &mut totals, report)?;
        }
    }
    totals.finish(report);
    Ok(())
}

/// Reads back a store directory written in a traced pass: `Store::open`
/// inside a span, which counts the statements recovery replays.
fn read_back(dir: &Path, log: &RefCell<Tracer>, totals: &mut Totals) -> Result<(), String> {
    let (_, recovery) =
        span(log, "store.open", || Store::open(dir)).map_err(|e| format!("reopen: {e}"))?;
    totals.replayed += recovery.replay().len();
    Ok(())
}

/// That directory must recover through `DurableDatabase::open_with` to
/// the traced pass's `state` and `history`, replaying `suffix`.
fn check_recovers(
    workload: Workload,
    dir: &Path,
    state: &ClauseSet,
    (history, suffix): (usize, usize),
    report: &mut Report,
) {
    match DurableDatabase::open_with(workload.database(), dir) {
        Ok(reopened) => check_reopened(&reopened, state, history, suffix, report),
        Err(e) => fail(report, format!("reopen traced store: {e}")),
    }
}

/// The traced rounds of a stream workload, as one stream. Like the
/// untraced rounds, it restarts from a fresh state when [`Restart`]
/// says so, and its statements are then logged.
fn stream(
    workload: Workload,
    sizes: &Sizes,
    ops: &[Op],
    work: &Path,
    totals: &mut Totals,
    report: &mut Report,
) -> Result<(), String> {
    let tracer = RefCell::new(Tracer::default());
    let log = RefCell::new(Tracer::default());
    let alg = TracedAlg {
        inner: workload.database().backend().clone(),
        tracer: &tracer,
    };
    let fresh = workload.database().state().clone();
    let total = updates_in(ops);

    cache::clear_all();
    let before = Reading::now();
    let mut atoms = AtomTable::with_indexed_atoms(sizes.atoms);
    let mut state = fresh.clone();
    let mut history = Vec::new();
    let mut snapshot = (0, fresh.clone());
    let mut states = Vec::new();
    let mut answers = Vec::new();
    for op in ops {
        let t = Instant::now();
        let outcome = match op.kind {
            OpKind::Update => span(&tracer, "hlu.parser", || parse_hlu(&op.text, &mut atoms))
                .map_err(|e| e.to_string())
                .and_then(|prog| {
                    let next = alg.run(&state, &prog)?;
                    state = next;
                    history.push(prog);
                    Ok(None)
                }),
            _ => alg.query(&state, &mut atoms, op).map(Some),
        };
        totals.traced += t.elapsed();
        report.attempted += 1;
        match outcome {
            Ok(None) => {
                states.push(state.clone());
                let consistent = || totals.harness(|| is_satisfiable(&state));
                if Restart::after(sizes, &state, consistent).is_some() {
                    state = fresh.clone();
                    snapshot = (history.len(), fresh.clone());
                } else if history.len() == total - sizes.suffix {
                    snapshot = (history.len(), state.clone());
                }
            }
            Ok(answer) => answers.push(answer),
            Err(e) => fail(report, format!("traced {}: {e}", op.text)),
        }
    }
    let dir = work.join("stream-traced");
    write_log(
        &dir,
        &atoms,
        &history,
        (snapshot.0, &snapshot.1),
        Some(&log),
    )?;
    read_back(&dir, &log, totals)?;
    totals.add_pass(&before, tracer.into_inner(), log.into_inner());
    check_recovers(
        workload,
        &dir,
        &state,
        (history.len(), history.len() - snapshot.0),
        report,
    );

    cache::clear_all();
    let mut db = workload.database();
    let mut atoms = AtomTable::with_indexed_atoms(sizes.atoms);
    let (mut states, mut answers) = (states.into_iter(), answers.into_iter());
    for op in ops {
        let t = Instant::now();
        let outcome = apply(&mut db, &mut atoms, op);
        totals.untraced += t.elapsed();
        match outcome {
            Ok(None) => {
                if states.next().as_ref() != Some(db.state()) {
                    report.problems.push(format!(
                        "traced state differs from Database::run after {}",
                        op.text
                    ));
                }
                if Restart::after(sizes, db.state(), || db.is_consistent()).is_some() {
                    db = workload.database();
                }
            }
            Ok(answer) => {
                if answers.next() != Some(answer) {
                    report
                        .problems
                        .push(format!("traced answer differs for {}", op.text));
                }
            }
            Err(e) => fail(report, format!("{}: {e}", op.text)),
        }
    }
    totals.history_len = totals.history_len.max(db.history().len());
    Ok(())
}

/// The update path of a knowledge-base workload.
struct TracedKb<'a> {
    alg: TracedAlg<'a>,
    atoms: AtomTable,
    state: ClauseSet,
    history: Vec<HluProgram>,
    /// The last checkpoint: statements before it, and the state.
    snapshot: (usize, ClauseSet),
    /// `kb_durable`: the store on the update path, written and committed
    /// statement by statement as `DurableDatabase` does.
    log: Option<Log<'a>>,
}

impl TracedKb<'_> {
    /// Parse, run governed and check consistency, then log and commit.
    /// Returns whether the update committed (false: rejected).
    fn update(&mut self, text: &str, limits: &Limits) -> Result<bool, String> {
        let t = self.alg.tracer;
        let prog = span(t, "hlu.parser", || parse_hlu(text, &mut self.atoms))
            .map_err(|e| e.to_string())?;
        let depth = t.borrow().open.len();
        let (alg, state) = (&self.alg, &self.state);
        let outcome = govern(limits, || {
            alg.run(state, &prog).map(|next| {
                let consistent = span(t, "logic.dpll", || is_satisfiable(&next));
                (next, consistent)
            })
        });
        let (next, consistent) = match outcome {
            Ok(result) => result?,
            Err(e) => {
                t.borrow_mut().open.truncate(depth);
                return Err(e.to_string());
            }
        };
        if !consistent {
            return Ok(false);
        }
        if let Some(log) = &mut self.log {
            log.statement(&self.atoms, &prog)?;
            log.commit()?;
        }
        self.state = next;
        self.history.push(prog);
        Ok(true)
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        self.snapshot = (self.history.len(), self.state.clone());
        match &mut self.log {
            Some(log) => log.checkpoint(&self.atoms, self.history.len(), &self.state),
            None => Ok(()),
        }
    }
}

fn kb_round(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    work: &Path,
    totals: &mut Totals,
    report: &mut Report,
) -> Result<(), String> {
    let round = gen::kb_round(seed, sizes.atoms, sizes.kb_load, sizes.kb_ops);
    let load: Vec<Op> = round
        .load
        .iter()
        .map(|text| Op {
            kind: OpKind::Update,
            text: text.clone(),
            hidden_truth: None,
        })
        .collect();
    let stream_start = load.len();
    let ops: Vec<&Op> = load.iter().chain(&round.ops).collect();
    let limits = crate::kb_limits();
    let (traced_dir, shadow_dir) = (work.join("kb-traced"), work.join("kb-shadow"));
    fresh_dir(&shadow_dir)?;

    // Traced pass.
    let tracer = RefCell::new(Tracer::default());
    let log = RefCell::new(Tracer::default());
    cache::clear_all();
    let before = Reading::now();
    let durable = workload == Workload::KbDurable;
    let fresh = workload.database().state().clone();
    let mut kb = TracedKb {
        alg: TracedAlg {
            inner: workload.database().backend().clone(),
            tracer: &tracer,
        },
        atoms: AtomTable::new(),
        state: fresh.clone(),
        history: Vec::new(),
        snapshot: (0, fresh),
        log: durable
            .then(|| Log::create(&traced_dir, Some(&tracer)))
            .transpose()?,
    };
    let total = updates_in(&round.ops);
    let mut states = Vec::new();
    let mut answers = vec![None; ops.len()];
    let mut committed = 0;
    for (i, op) in ops.iter().enumerate() {
        report.attempted += 1;
        let t = Instant::now();
        if op.kind == OpKind::Update {
            let outcome = kb.update(&op.text, &limits);
            let ok = outcome == Ok(true);
            committed += usize::from(ok && i >= stream_start);
            let due = ok && i >= stream_start && checkpoint_due(committed, total, sizes);
            let checkpointed = due.then(|| kb.checkpoint());
            totals.traced += t.elapsed();
            match outcome {
                Ok(true) => states.push(kb.state.clone()),
                Ok(false) => report.rejected += 1,
                Err(e) => fail(report, format!("traced {}: {e}", op.text)),
            }
            if let Some(Err(e)) = checkpointed {
                fail(report, format!("traced checkpoint: {e}"));
            }
        } else {
            let answer = kb.alg.query(&kb.state, &mut kb.atoms, op);
            totals.traced += t.elapsed();
            match answer {
                Ok(a) => answers[i] = Some(a),
                Err(e) => fail(report, format!("traced {}: {e}", op.text)),
            }
        }
    }
    let TracedKb {
        atoms,
        state,
        history,
        snapshot,
        log: store,
        ..
    } = kb;
    // `kb_durable` wrote its store on the way; the in-memory knowledge
    // base writes the log and its last checkpoint now, as its untraced
    // rounds do.
    if store.is_none() {
        write_log(
            &traced_dir,
            &atoms,
            &history,
            (snapshot.0, &snapshot.1),
            Some(&log),
        )?;
    }
    drop(store);
    read_back(&traced_dir, &log, totals)?;
    totals.add_pass(&before, tracer.into_inner(), log.into_inner());
    check_hidden_world(ops.iter().copied(), &answers, report);
    check_recovers(
        workload,
        &traced_dir,
        &state,
        (history.len(), history.len() - snapshot.0),
        report,
    );

    // Untraced pass through the public entry points, compared statement
    // by statement.
    cache::clear_all();
    let t = Instant::now();
    let mut kb = Kb::open(workload, &shadow_dir)?;
    totals.untraced += t.elapsed();
    let mut states = states.iter();
    let mut committed = 0;
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        if op.kind == OpKind::Update {
            let result = kb.update(&op.text, &limits);
            let ok = result.is_ok();
            committed += usize::from(ok && i >= stream_start);
            let due = ok && i >= stream_start && checkpoint_due(committed, total, sizes);
            let checkpointed = due.then(|| kb.checkpoint());
            totals.untraced += t.elapsed();
            tally_update(&op.text, result, report);
            if ok && states.next() != Some(kb.db().state()) {
                report.problems.push(format!(
                    "traced state differs from the untraced run after {}",
                    op.text
                ));
            }
            if let Some(Err(e)) = checkpointed {
                fail(report, format!("checkpoint: {e}"));
            }
            if due {
                check_band(kb.db().state().len(), committed, report);
            }
        } else {
            let answer = kb.query(op);
            totals.untraced += t.elapsed();
            if answer.as_ref().ok() != answers[i].as_ref() {
                report
                    .problems
                    .push(format!("traced answer differs for {}", op.text));
            }
        }
    }
    totals.history_len = totals.history_len.max(kb.db().history().len());
    Ok(())
}
