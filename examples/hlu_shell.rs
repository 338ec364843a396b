//! An interactive HLU shell over the clausal database.
//!
//! Run with `cargo run --example hlu_shell` and type commands, or pipe a
//! script: `echo '(insert {a | b})\n?certain a | b' | cargo run --example
//! hlu_shell`. With no piped input and no commands, a short demo session
//! is replayed.
//!
//! Commands:
//!
//! ```text
//! (insert {...}) / (delete {...}) / (assert {...}) / (modify {..} {..})
//! (clear [a b]) / (where {...} (..) (..))      any HLU program
//! EXPLAIN <program>     run the program and print its execution trace
//! ?certain <wff>        is the wff true in every possible world?
//! ?possible <wff>       in some world?
//! ?count                number of possible worlds
//! :explain <program>    same as EXPLAIN (and, like it, honours :budget)
//! :trace on|off         print a span tree after every command
//! :metrics              metric deltas since the previous :metrics
//! :cache                per-cache hit/miss/entry statistics
//! :cache clear          drop every memoized entry
//! :state                print the clause-set state
//! :atoms                print the interned vocabulary
//! :history              print every statement applied so far, in order
//! :open <dir>           switch to a durable database stored in <dir>
//!                       (recovers WAL + snapshots; every statement is
//!                       fsync'd before its reply)
//! :checkpoint           write a snapshot of the durable database
//! :wal                   log / snapshot statistics of the open store
//! :budget <steps> [live <clauses>] [wall <ms>]
//!                       govern every following statement: on budget
//!                       exhaustion it aborts with a typed error and the
//!                       state rolls back to before the statement
//! :budget off           run ungoverned again (:budget alone shows status)
//! :governor             governor status: active budget, cumulative
//!                       governor counters, store degradation
//! :quit
//! ```

use std::io::{BufRead, IsTerminal, Write};

use pwdb::logic::{Budget, Limits};
use pwdb::prelude::*;
use pwdb_metrics::MetricsSnapshot;

fn main() {
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();

    let mut backend = Backend::Memory {
        db: ClausalDatabase::new(),
        atoms: AtomTable::new(),
    };
    let mut shell = Shell::new();

    let demo = [
        "(insert {rain | snow})",
        "?certain rain | snow",
        "?possible rain",
        "(insert {!rain})",
        "?certain snow",
        "?count",
        "(where {snow} (insert {plows}))",
        "?certain snow -> plows",
        "EXPLAIN (modify {snow} {sleet})",
        ":metrics",
        ":state",
    ];

    let mut lines: Box<dyn Iterator<Item = String>> = if interactive {
        println!("pwdb HLU shell — :quit to exit, ?certain/?possible/<hlu program>");
        Box::new(stdin.lock().lines().map_while(Result::ok))
    } else {
        let piped: Vec<String> = stdin.lock().lines().map_while(Result::ok).collect();
        if piped.is_empty() || piped.iter().all(|l| l.trim().is_empty()) {
            println!("(no input; replaying the demo script)");
            Box::new(demo.iter().map(|s| s.to_string()))
        } else {
            Box::new(piped.into_iter())
        }
    };

    loop {
        if interactive {
            print!("pwdb> ");
            std::io::stdout().flush().ok();
        }
        let Some(line) = lines.next() else { break };
        let line = line.trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if !interactive {
            println!("pwdb> {line}");
        }
        match execute(&line, &mut backend, &mut shell) {
            Ok(Reply::Quit) => break,
            Ok(Reply::Text(t)) => println!("{t}"),
            Err(e) => println!("error: {e}"),
        }
        // With `:trace on`, show the spans each command produced.
        if shell.trace_on {
            let trace = pwdb_metrics::take();
            if !trace.is_empty() {
                print!("{}", trace.render_tree());
            }
        }
    }
}

enum Reply {
    Text(String),
    Quit,
}

/// The database the shell is talking to: a plain in-memory one, or a
/// durable one whose every committed statement is in the WAL.
enum Backend {
    Memory {
        db: ClausalDatabase,
        atoms: AtomTable,
    },
    Durable(Box<DurableDatabase>),
}

impl Backend {
    /// Read-only view of the underlying clausal database.
    fn db(&self) -> &ClausalDatabase {
        match self {
            Backend::Memory { db, .. } => db,
            Backend::Durable(d) => d,
        }
    }

    fn atoms(&self) -> &AtomTable {
        match self {
            Backend::Memory { atoms, .. } => atoms,
            Backend::Durable(d) => d.atoms(),
        }
    }

    /// The session vocabulary, for parsing.
    fn atoms_mut(&mut self) -> &mut AtomTable {
        match self {
            Backend::Memory { atoms, .. } => atoms,
            Backend::Durable(d) => d.atoms_mut(),
        }
    }

    /// Applies one statement: the bare `run`, or the transactional
    /// `run_governed` when `limits` are set (`:budget`), which rolls back
    /// on budget exhaustion, cancellation, or rejection.
    fn apply(&mut self, prog: &HluProgram, limits: Option<&Limits>) -> Result<(), String> {
        match (self, limits) {
            (Backend::Memory { db, .. }, None) => {
                db.run(prog);
                Ok(())
            }
            (Backend::Memory { db, .. }, Some(l)) => {
                db.run_governed(prog, l).map_err(|e| e.to_string())
            }
            (Backend::Durable(d), None) => d.run(prog).map_err(|e| e.to_string()),
            (Backend::Durable(d), Some(l)) => d.run_governed(prog, l).map_err(|e| e.to_string()),
        }
    }
}

/// Shell-session state beyond the database itself.
struct Shell {
    /// Snapshot at the previous `:metrics` call (deltas are printed).
    last_metrics: MetricsSnapshot,
    /// Whether to print a span tree after every command.
    trace_on: bool,
    /// Active execution limits (`:budget`), with a rendered description.
    limits: Option<(Limits, String)>,
}

impl Shell {
    fn new() -> Self {
        Shell {
            last_metrics: pwdb_metrics::snapshot(),
            trace_on: false,
            limits: None,
        }
    }
}

/// Parses `:budget` arguments: `<steps> [live <clauses>] [wall <ms>]`.
fn parse_budget(rest: &str) -> Result<(Limits, String), String> {
    const USAGE: &str = "usage: :budget <steps> [live <clauses>] [wall <ms>] | off";
    let mut toks = rest.split_whitespace();
    let steps: u64 = toks
        .next()
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| USAGE.to_owned())?;
    let mut budget = Budget::steps(steps);
    let mut desc = format!("{steps} step(s)");
    while let Some(tok) = toks.next() {
        let value: u64 = toks
            .next()
            .ok_or(USAGE)?
            .parse()
            .map_err(|_| USAGE.to_owned())?;
        match tok {
            "live" => {
                budget = budget.with_live_clauses(value);
                desc.push_str(&format!(", {value} live clause(s)"));
            }
            "wall" => {
                budget = budget.with_wall(std::time::Duration::from_millis(value));
                desc.push_str(&format!(", {value} ms wall clock"));
            }
            other => return Err(format!("unknown budget dimension '{other}'; {USAGE}")),
        }
    }
    Ok((Limits::budget(budget), desc))
}

fn execute(line: &str, backend: &mut Backend, shell: &mut Shell) -> Result<Reply, String> {
    if line == ":quit" || line == ":q" {
        return Ok(Reply::Quit);
    }
    if line == ":state" {
        let state = backend.db().state();
        return Ok(Reply::Text(format!(
            "{} clause(s): {}",
            state.len(),
            state.display(backend.atoms())
        )));
    }
    if line == ":atoms" {
        let names: Vec<&str> = backend.atoms().iter().map(|(_, n)| n).collect();
        return Ok(Reply::Text(format!("{names:?}")));
    }
    if line == ":history" {
        let history = backend.db().history();
        if history.is_empty() {
            return Ok(Reply::Text("(no statements applied yet)".to_owned()));
        }
        let out: Vec<String> = history
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{:>4}  {}", i + 1, p.display(backend.atoms())))
            .collect();
        return Ok(Reply::Text(out.join("\n")));
    }
    if let Some(dir) = line.strip_prefix(":open ") {
        let dir = dir.trim();
        if dir.is_empty() {
            return Err("usage: :open <directory>".to_owned());
        }
        if backend.db().updates_run() > 0 {
            println!("(note: the in-memory session is discarded; :open starts from the store)");
        }
        let db = ClausalDatabase::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
        let r = db.recovery_report().clone();
        *backend = Backend::Durable(Box::new(db));
        return Ok(Reply::Text(format!(
            "opened {dir}: {} statement(s) recovered ({} replayed from the log, \
             {} from the snapshot), {} torn byte(s) truncated, {} snapshot(s) skipped",
            r.replayed + r.from_snapshot,
            r.replayed,
            r.from_snapshot,
            r.truncated_bytes,
            r.snapshots_skipped
        )));
    }
    if line == ":checkpoint" {
        let Backend::Durable(d) = backend else {
            return Err("no store open (use `:open <dir>` first)".to_owned());
        };
        let (path, bytes) = d.checkpoint().map_err(|e| e.to_string())?;
        return Ok(Reply::Text(format!(
            "snapshot written: {} ({bytes} byte(s))",
            path.display()
        )));
    }
    if line == ":wal" {
        let Backend::Durable(d) = backend else {
            return Err("no store open (use `:open <dir>` first)".to_owned());
        };
        let s = d.store_stats();
        let snap = match (s.snapshot_records, s.snapshot_bytes) {
            (Some(r), Some(b)) => format!("newest snapshot covers {r} record(s), {b} byte(s)"),
            _ => "no snapshot yet".to_owned(),
        };
        return Ok(Reply::Text(format!(
            "{} in {}\nlog: {} record(s), {} byte(s); {snap}",
            "durable store",
            d.dir().display(),
            s.wal_records,
            s.wal_bytes
        )));
    }
    if line == ":metrics" {
        let now = pwdb_metrics::snapshot();
        let delta = now.delta(&shell.last_metrics);
        shell.last_metrics = now;
        return Ok(Reply::Text(render_metrics(&delta)));
    }
    if line == ":cache" {
        let stats = backend.db().cache_stats();
        if stats.is_empty() {
            return Ok(Reply::Text(
                "(no caches registered yet — run an update first)".to_owned(),
            ));
        }
        let mut out = String::from(
            "cache                                    entries   hits  misses  flushes\n",
        );
        for s in stats {
            out.push_str(&format!(
                "  {:<38} {:>7} {:>6} {:>7} {:>8}\n",
                s.name, s.entries, s.hits, s.misses, s.invalidations
            ));
        }
        out.pop();
        return Ok(Reply::Text(out));
    }
    if line == ":cache clear" {
        backend.db().clear_caches();
        return Ok(Reply::Text("caches cleared".to_owned()));
    }
    if let Some(arg) = line.strip_prefix(":trace") {
        match arg.trim() {
            "on" => {
                pwdb_metrics::set_enabled(true);
                let on = pwdb_metrics::is_enabled();
                shell.trace_on = on;
                return Ok(Reply::Text(if on {
                    "tracing on".to_owned()
                } else {
                    "tracing unavailable (built without the `metrics` feature)".to_owned()
                }));
            }
            "off" => {
                shell.trace_on = false;
                pwdb_metrics::set_enabled(false);
                let _ = pwdb_metrics::take(); // discard unprinted spans
                return Ok(Reply::Text("tracing off".to_owned()));
            }
            other => return Err(format!("usage: :trace on|off (got '{other}')")),
        }
    }
    if let Some(rest) = line.strip_prefix(":budget") {
        let rest = rest.trim();
        if rest == "off" {
            shell.limits = None;
            return Ok(Reply::Text(
                "budget off — statements run ungoverned".to_owned(),
            ));
        }
        if rest.is_empty() {
            return Ok(Reply::Text(match &shell.limits {
                Some((_, desc)) => format!("budget: {desc}"),
                None => "budget: off (statements run ungoverned)".to_owned(),
            }));
        }
        let (limits, desc) = parse_budget(rest)?;
        let text = format!("budget set: {desc} — over-budget statements roll back");
        shell.limits = Some((limits, desc));
        return Ok(Reply::Text(text));
    }
    if line == ":governor" {
        let mut out = String::new();
        out.push_str(&match &shell.limits {
            Some((_, desc)) => format!("budget:   {desc}"),
            None => "budget:   off (statements run ungoverned)".to_owned(),
        });
        if let Backend::Durable(d) = backend {
            out.push_str(&match d.degraded_reason() {
                Some(reason) => format!("\nstore:    DEGRADED (read-only): {reason}"),
                None => "\nstore:    healthy".to_owned(),
            });
        }
        let snapshot = pwdb_metrics::snapshot();
        let governor: Vec<_> = snapshot
            .counters
            .iter()
            .filter(|(name, &v)| name.starts_with("governor.") && v > 0)
            .collect();
        if governor.is_empty() {
            out.push_str("\n(no governed statements run yet)");
        } else {
            out.push_str("\ncumulative counters");
            for (name, v) in governor {
                out.push_str(&format!("\n  {name:<40} {v}"));
            }
        }
        return Ok(Reply::Text(out));
    }
    if let Some(q) = line.strip_prefix("?certain ") {
        let w = parse_wff(q, backend.atoms_mut()).map_err(|e| e.to_string())?;
        return Ok(Reply::Text(format!("{}", backend.db().is_certain(&w))));
    }
    if let Some(q) = line.strip_prefix("?possible ") {
        let w = parse_wff(q, backend.atoms_mut()).map_err(|e| e.to_string())?;
        return Ok(Reply::Text(format!("{}", backend.db().is_possible(&w))));
    }
    if line == "?count" {
        let n = backend.atoms().len();
        let count = backend.db().try_world_count(n).map_err(|e| e.to_string())?;
        return Ok(Reply::Text(format!(
            "{count} possible world(s) over {n} atom(s)"
        )));
    }
    let is_explain = line.len() >= 7 && line.as_bytes()[..7].eq_ignore_ascii_case(b"explain");
    let stmt = if let Some(rest) = line.strip_prefix(":explain ") {
        parse_hlu(rest, backend.atoms_mut()).map(HluStatement::Explain)
    } else if line.starts_with('(') || is_explain {
        parse_hlu_statement(line, backend.atoms_mut())
    } else {
        return Err(format!("unrecognized command: {line}"));
    };
    let limits = shell.limits.as_ref().map(|(l, _)| l);
    match stmt.map_err(|e| e.to_string())? {
        HluStatement::Run(prog) => {
            backend.apply(&prog, limits)?;
            Ok(Reply::Text(format!(
                "ok ({} update(s) run)",
                backend.db().updates_run()
            )))
        }
        HluStatement::Explain(prog) => {
            let (explanation, result) =
                Explanation::capture(&prog, || backend.apply(&prog, limits));
            let mut text = explanation.render();
            if let Err(e) = result {
                text.push_str(&format!("\nerror: {e}"));
            }
            Ok(Reply::Text(text))
        }
    }
}

/// Renders a metrics delta: non-zero counters, then timers with call
/// counts and total wall time.
fn render_metrics(delta: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let counters: Vec<_> = delta.counters.iter().filter(|(_, &v)| v > 0).collect();
    let timers: Vec<_> = delta.timers.iter().filter(|(_, t)| t.count > 0).collect();
    if counters.is_empty() && timers.is_empty() {
        return "(no metric activity since the last :metrics)".to_owned();
    }
    out.push_str("counters since last :metrics\n");
    for (name, v) in counters {
        out.push_str(&format!("  {name:<40} {v}\n"));
    }
    if !timers.is_empty() {
        out.push_str("timers\n");
        for (name, t) in timers {
            out.push_str(&format!(
                "  {name:<40} {} call(s), {:.3} ms total\n",
                t.count,
                t.total_ns as f64 / 1e6
            ));
        }
    }
    out.pop(); // trailing newline
    out
}

#[cfg(test)]
mod tests {
    //! Shell transcripts over every combination of backend (in memory or
    //! durable), budget (none or `:budget`), and statement form (`( … )`,
    //! `EXPLAIN ( … )`, `:explain ( … )`).

    use super::*;
    use pwdb::store::TestDir;

    const SEED: &str = "(insert {rain | snow})";
    /// Costs well over 25 steps, so it fails under `:budget 25`.
    const HOSTILE: &str = "(modify {rain} {snow & !rain | fog & sleet | hail})";
    /// Contradicts `SEED`: rejected when governed, applied when not.
    const CONTRADICTION: &str = "(assert {!rain & !snow})";

    #[derive(Clone, Copy, Debug)]
    enum Form {
        Plain,
        Explain,
        ColonExplain,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Outcome {
        Committed,
        OverBudget,
        Rejected,
    }

    impl Outcome {
        fn matches(self, text: &str) -> bool {
            match self {
                Outcome::Committed => text == "committed",
                Outcome::OverBudget => {
                    text.starts_with("budget exceeded: ")
                        && text.ends_with(" steps spent, limit 25")
                }
                Outcome::Rejected => {
                    text == "update rejected: no possible world satisfies the constraints"
                }
            }
        }
    }

    struct Session {
        backend: Backend,
        shell: Shell,
    }

    impl Session {
        /// A fresh session: in memory, or `:open`ed on `dir`.
        fn new(dir: Option<&TestDir>) -> Session {
            let mut session = Session {
                backend: Backend::Memory {
                    db: ClausalDatabase::new(),
                    atoms: AtomTable::new(),
                },
                shell: Shell::new(),
            };
            if let Some(dir) = dir {
                session
                    .reply(&format!(":open {}", dir.path().display()))
                    .unwrap();
            }
            session
        }

        fn reply(&mut self, line: &str) -> Result<String, String> {
            match execute(line, &mut self.backend, &mut self.shell)? {
                Reply::Text(text) => Ok(text),
                Reply::Quit => panic!("{line}: unexpected quit"),
            }
        }

        /// Submits `prog` (whose source is `src`) in `form` and checks the
        /// reply against `expect`. Returns the root spans of an EXPLAIN's
        /// trace (none for a plain statement or a no-op tracer).
        fn submit(
            &mut self,
            form: Form,
            src: &str,
            prog: &HluProgram,
            expect: Outcome,
        ) -> Vec<String> {
            let line = match form {
                Form::Plain => src.to_owned(),
                Form::Explain => format!("EXPLAIN {src}"),
                Form::ColonExplain => format!(":explain {src}"),
            };
            let reply = self.reply(&line);
            if let Form::Plain = form {
                match reply {
                    Ok(text) => assert!(
                        expect == Outcome::Committed && text.starts_with("ok ("),
                        "{line}: expected {expect:?}, got {text}"
                    ),
                    Err(e) => assert!(expect.matches(&e), "{line}: expected {expect:?}, got {e}"),
                }
                return Vec::new();
            }
            let text = reply.unwrap_or_else(|e| panic!("{line}: {e}"));
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines[0], format!("statement: {prog}"), "{line}");
            assert_eq!(
                lines[1],
                format!("compiled:  {}", compile(prog).program),
                "{line}"
            );
            // A failure is reported twice: as the outcome and as the error.
            let outcome = lines.iter().find_map(|l| l.strip_prefix("outcome:   "));
            let error = lines.last().and_then(|l| l.strip_prefix("error: "));
            let expected_error = outcome.filter(|_| expect != Outcome::Committed);
            assert!(
                outcome.is_some_and(|o| expect.matches(o)) && error == expected_error,
                "{line}: expected {expect:?}, got\n{text}"
            );
            let trace = text.split_once("\ntrace:\n").expect("trace section").1;
            trace
                .lines()
                .filter_map(|l| l.strip_prefix("└─ ").or_else(|| l.strip_prefix("├─ ")))
                .map(|l| l.split_whitespace().next().unwrap_or_default().to_owned())
                .collect()
        }
    }

    /// What one transcript left behind.
    struct Transcript {
        state: String,
        history: String,
        /// Root spans of the `HOSTILE` and `CONTRADICTION` replies.
        roots: [Vec<String>; 2],
    }

    /// Runs `SEED`, then `HOSTILE` (under `:budget 25`, if `budget`) and
    /// `CONTRADICTION` (under a budget it fits, if `budget`) in `form`,
    /// and checks the committed state and `:history` against an in-memory
    /// replay of the statements that should have committed.
    fn transcript(dir: Option<&TestDir>, budget: bool, form: Form) -> Transcript {
        let mut atoms = AtomTable::new();
        let progs: Vec<HluProgram> = [SEED, HOSTILE, CONTRADICTION]
            .iter()
            .map(|src| parse_hlu(src, &mut atoms).unwrap())
            .collect();
        let (over, contra) = match budget {
            true => (Outcome::OverBudget, Outcome::Rejected),
            false => (Outcome::Committed, Outcome::Committed),
        };

        let mut s = Session::new(dir);
        s.reply(SEED).unwrap();
        if budget {
            s.reply(":budget 25").unwrap();
        }
        let hostile = s.submit(form, HOSTILE, &progs[1], over);
        if budget {
            s.reply(":budget 100000").unwrap();
        }
        let contradiction = s.submit(form, CONTRADICTION, &progs[2], contra);

        let committed = if budget { &progs[..1] } else { &progs[..] };
        let mut oracle = ClausalDatabase::new();
        for p in committed {
            oracle.run(p);
        }
        let state = s.reply(":state").unwrap();
        assert_eq!(
            state,
            format!(
                "{} clause(s): {}",
                oracle.state().len(),
                oracle.state().display(&atoms)
            ),
            "{form:?}, budget {budget}"
        );
        let history = s.reply(":history").unwrap();
        let expected: Vec<String> = committed
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{:>4}  {}", i + 1, p.display(&atoms)))
            .collect();
        assert_eq!(history, expected.join("\n"), "{form:?}, budget {budget}");
        Transcript {
            state,
            history,
            roots: [hostile, contradiction],
        }
    }

    /// Both backends over one (budget, form) combination: the same replies,
    /// state and history; a durable store that recovers exactly that; and
    /// EXPLAIN traces that differ only by the durable commit span.
    fn check(budget: bool, form: Form) {
        let memory = transcript(None, budget, form);
        let dir = TestDir::new("shell-transcript");
        let durable = transcript(Some(&dir), budget, form);
        assert_eq!(durable.state, memory.state);
        assert_eq!(durable.history, memory.history);

        let mut reopened = Session::new(Some(&dir));
        assert_eq!(reopened.reply(":state").unwrap(), memory.state);
        assert_eq!(reopened.reply(":history").unwrap(), memory.history);

        if cfg!(feature = "metrics") && !matches!(form, Form::Plain) {
            let root = if budget {
                "governor.stmt"
            } else {
                "hlu.stmt.modify"
            };
            assert_eq!(memory.roots[0], [root], "{form:?}, budget {budget}");
            for (mem, dur) in memory.roots.iter().zip(&durable.roots) {
                let mut expected = mem.clone();
                if !budget {
                    expected.push("store.durable.commit".to_owned());
                }
                assert_eq!(dur, &expected, "{form:?}, budget {budget}");
            }
        }
    }

    #[test]
    fn plain() {
        check(false, Form::Plain);
    }

    #[test]
    fn plain_under_budget() {
        check(true, Form::Plain);
    }

    #[test]
    fn explain() {
        check(false, Form::Explain);
    }

    #[test]
    fn explain_under_budget() {
        check(true, Form::Explain);
    }

    #[test]
    fn colon_explain() {
        check(false, Form::ColonExplain);
    }

    /// `:explain` runs through the same dispatch as every other statement,
    /// so an over-budget statement fails and rolls back instead of running
    /// unbounded.
    #[test]
    fn colon_explain_under_budget() {
        check(true, Form::ColonExplain);
    }
}
