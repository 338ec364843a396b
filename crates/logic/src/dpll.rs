//! A complete DPLL SAT solver over clause sets, and the per-state query
//! oracle built on it.
//!
//! The paper's algorithms lean on semantic questions that are NP-hard in
//! general — dependence of a clause set on a letter is NP-complete
//! (Theorem 2.3.9(c)) — so a real solver is part of the substrate. This is
//! a classical recursive DPLL with unit propagation and pure-literal
//! elimination; clause sets in this domain are small enough that watched
//! literals and clause learning would be over-engineering, but the solver
//! is exact and handles the worst cases the benchmarks construct. A scan
//! allocates nothing: it counts a clause's open literals and remembers
//! the last one, which is all unit propagation needs, and the pure-literal
//! pass reads the open clauses directly.
//!
//! A [`Solver`] copies its clause set once. Questions about one set then
//! share it: [`Solver::solve_with`] takes per-call assumption literals and
//! [`Solver::solve_with_clauses`] also per-call extra clauses, so
//! `Φ ⊨ ψ` (as `unsat(Φ ∧ ¬ψ)`) never copies `Φ`. [`QueryOracle`] keeps
//! such a solver, built on first use, for one state version, plus the
//! first model of that state a solve finds, which settles many queries
//! with no search.
//! The free functions [`entails`] and [`is_satisfiable`] build a solver
//! per call.

use std::sync::OnceLock;

use pwdb_metrics::{counter, span};

use crate::atom::AtomId;
use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::literal::Literal;
use crate::truth::{Assignment, MAX_ATOMS};
use crate::wff::Wff;

/// A reusable DPLL solver instance.
///
/// Holds the clause database in an indexed form. Assumption literals and
/// extra clauses may be supplied per query, which is how entailment
/// (`Φ ⊨ ψ` as `unsat(Φ ∧ ¬ψ)`) is answered without copying `Φ`.
pub struct Solver {
    /// The literals of every clause, back to back.
    lits: Vec<Literal>,
    /// Where each clause ends in `lits`.
    ends: Vec<usize>,
    n_atoms: usize,
}

/// Result of a satisfiability query: a model if one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness over the atoms `0..min(n, 64)`, where
    /// `n` is the call's atom universe (the solver's, widened by the
    /// call's assumptions and extra clauses). An [`Assignment`] packs at
    /// most [`MAX_ATOMS`] atoms, so past 64 atoms the witness is
    /// *truncated*: it is the restriction of a model to atoms 0–63 and
    /// says nothing about the atoms above. Check [`Assignment::len`]
    /// before reading an atom from it.
    Sat(Assignment),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether this is the satisfiable case.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Per-call search statistics, accumulated through the recursion and
/// flushed to the global counters (and the call's trace span) once per
/// solve.
#[derive(Default)]
struct DpllStats {
    decisions: u64,
    propagations: u64,
    conflicts: u64,
}

/// A clause's status under a partial assignment.
enum ClauseState {
    Satisfied,
    /// Every literal is false.
    Conflict,
    /// Exactly one literal is unassigned and the rest are false.
    Unit(Literal),
    /// Two or more literals are unassigned and the rest are false.
    Open,
}

impl Solver {
    /// Builds a solver over `set`, with the atom universe sized to the
    /// larger of the set's own bound and `min_atoms`.
    pub fn new(set: &ClauseSet, min_atoms: usize) -> Self {
        let mut solver = Solver {
            lits: Vec::with_capacity(set.length()),
            ends: Vec::with_capacity(set.len()),
            n_atoms: set.atom_bound().max(min_atoms),
        };
        for c in set.iter().filter(|c| !c.is_tautology()) {
            solver.lits.extend_from_slice(c.literals());
            solver.ends.push(solver.lits.len());
        }
        solver
    }

    /// Adds one clause to the database.
    pub fn add_clause(&mut self, clause: &Clause) {
        if clause.is_tautology() {
            return;
        }
        self.n_atoms = self.n_atoms.max(clause.atom_bound());
        self.lits.extend_from_slice(clause.literals());
        self.ends.push(self.lits.len());
    }

    /// Number of atoms in the solver's universe.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Solves under the given assumption literals.
    pub fn solve_with(&self, assumptions: &[Literal]) -> SatResult {
        self.solve_with_clauses(assumptions, &[])
    }

    /// Solves under the given assumption literals with `extra` clauses
    /// conjoined for this call only; the solver's own clauses are not
    /// touched. Tautological extras are skipped, as [`Solver::add_clause`]
    /// skips them.
    pub fn solve_with_clauses(&self, assumptions: &[Literal], extra: &[&Clause]) -> SatResult {
        counter!("logic.dpll.solves").inc();
        let mut clauses: Vec<&[Literal]> = Vec::with_capacity(self.ends.len() + extra.len());
        let mut start = 0;
        for &end in &self.ends {
            clauses.push(&self.lits[start..end]);
            start = end;
        }
        let mut n_atoms = self.n_atoms;
        for c in extra.iter().filter(|c| !c.is_tautology()) {
            n_atoms = n_atoms.max(c.atom_bound());
            clauses.push(c.literals());
        }
        let sp = span!(
            "logic.dpll.solve",
            "clauses" => clauses.len(),
            "atoms" => n_atoms,
        );
        let n_atoms = assumptions
            .iter()
            .fold(n_atoms, |n, l| n.max(l.atom().index() + 1));
        let mut values: Vec<Option<bool>> = vec![None; n_atoms];
        for &lit in assumptions {
            let idx = lit.atom().index();
            match values[idx] {
                Some(v) if v != lit.is_positive() => {
                    sp.attr("sat", false);
                    return SatResult::Unsat;
                }
                _ => values[idx] = Some(lit.is_positive()),
            }
        }
        let mut stats = DpllStats::default();
        let sat = dpll(&clauses, &mut values, &mut stats);
        counter!("logic.dpll.decisions").add(stats.decisions);
        counter!("logic.dpll.propagations").add(stats.propagations);
        counter!("logic.dpll.conflicts").add(stats.conflicts);
        if sp.is_recording() {
            sp.attr("decisions", stats.decisions);
            sp.attr("propagations", stats.propagations);
            sp.attr("conflicts", stats.conflicts);
            sp.attr("sat", sat);
        }
        if sat {
            let n = values.len().min(MAX_ATOMS);
            let mut bits = 0u64;
            for (i, v) in values.iter().take(n).enumerate() {
                if v.unwrap_or(false) {
                    bits |= 1 << i;
                }
            }
            SatResult::Sat(Assignment::from_bits(bits, n))
        } else {
            SatResult::Unsat
        }
    }

    /// Solves with no assumptions.
    pub fn solve(&self) -> SatResult {
        self.solve_with(&[])
    }
}

/// A clause's status under a partial assignment that covers its atoms.
fn clause_state(clause: &[Literal], values: &[Option<bool>]) -> ClauseState {
    let mut open = 0usize;
    let mut last = None;
    for &lit in clause {
        match values[lit.atom().index()] {
            Some(v) if v == lit.is_positive() => return ClauseState::Satisfied,
            Some(_) => {} // falsified literal
            None => {
                open += 1;
                last = Some(lit);
            }
        }
    }
    match last {
        None => ClauseState::Conflict,
        Some(lit) if open == 1 => ClauseState::Unit(lit),
        Some(_) => ClauseState::Open,
    }
}

/// The search: `values` covers every atom of `clauses`.
fn dpll(clauses: &[&[Literal]], values: &mut Vec<Option<bool>>, stats: &mut DpllStats) -> bool {
    // Unit propagation to fixpoint. Each round (and each search node)
    // charges one step per clause scanned.
    loop {
        crate::governor::step_n(clauses.len() as u64 + 1);
        let mut changed = false;
        for clause in clauses {
            match clause_state(clause, values) {
                ClauseState::Conflict => {
                    stats.conflicts += 1;
                    return false;
                }
                ClauseState::Unit(lit) => {
                    values[lit.atom().index()] = Some(lit.is_positive());
                    stats.propagations += 1;
                    changed = true;
                }
                ClauseState::Satisfied | ClauseState::Open => {}
            }
        }
        if !changed {
            break;
        }
    }

    // Pure-literal elimination and branch selection in one pass: track
    // the polarities of the unassigned literals of unresolved clauses
    // (bit 1 positive, bit 2 negative).
    let mut seen = vec![0u8; values.len()];
    let mut branch: Option<AtomId> = None;
    let mut any_open = false;
    for clause in clauses {
        match clause_state(clause, values) {
            ClauseState::Satisfied => continue,
            ClauseState::Conflict => {
                stats.conflicts += 1;
                return false;
            }
            ClauseState::Unit(_) | ClauseState::Open => {}
        }
        any_open = true;
        for &lit in *clause {
            let idx = lit.atom().index();
            if values[idx].is_some() {
                continue;
            }
            seen[idx] |= if lit.is_positive() { 1 } else { 2 };
            if branch.is_none() {
                branch = Some(lit.atom());
            }
        }
    }
    if !any_open {
        return true; // all clauses satisfied
    }

    // Assign pure literals (cannot flip any satisfied clause).
    let mut assigned_pure = false;
    for (value, &polarity) in values.iter_mut().zip(&seen) {
        if value.is_none() && (polarity == 1 || polarity == 2) {
            *value = Some(polarity == 1);
            assigned_pure = true;
        }
    }
    if assigned_pure {
        return dpll(clauses, values, stats);
    }

    let atom = branch.expect("open clause implies an unassigned literal");
    stats.decisions += 1;
    let idx = atom.index();
    let snapshot = values.clone();
    values[idx] = Some(true);
    if dpll(clauses, values, stats) {
        return true;
    }
    *values = snapshot;
    values[idx] = Some(false);
    dpll(clauses, values, stats)
}

/// Entailment and satisfiability answers about one clause set, from one
/// [`Solver`] built on first use and the first model of the set that a
/// solve finds.
///
/// The oracle does not hold the set: every call must pass the set the
/// oracle was first used with (debug builds check its size), and its
/// owner replaces the oracle when the set changes (`pwdb_hlu::Database`
/// does so on every write to its state). Each answer equals the free
/// function's ([`entails`], [`is_satisfiable`]) on that set:
///
/// * `entails(Φ, w)` converts `N = cnf_of(¬w)`. If `N` holds `□`, the
///   answer is yes. If the kept model covers every atom of `N` and
///   satisfies `N`, the answer is no, with no search. Otherwise one solve
///   on the cached solver decides it: `N`'s unit clauses become
///   assumptions and its other clauses per-call extras.
/// * `is_satisfiable(Φ)` is yes as soon as a model is kept.
///
/// The kept model comes from a solve on `Φ`, so it is a model of `Φ`; a
/// model truncated to 64 atoms (see [`SatResult::Sat`]) only decides
/// queries whose atoms it covers. On the benchmark workloads that one
/// model answers about half of all entailment queries; keeping the last
/// eight models instead answered under one point more. The oracle is
/// `Send + Sync`; a clone starts empty.
#[derive(Default)]
pub struct QueryOracle {
    /// Boxed so that an unused oracle is one pointer and a once-flag:
    /// every database carries one, and many states are replaced before
    /// anything asks about them.
    cache: OnceLock<Box<OracleCache>>,
}

/// What a [`QueryOracle`] builds on first use.
struct OracleCache {
    solver: Solver,
    /// The size of the set the solver was built from, as
    /// [`set_size`] gives it.
    built_from: (usize, usize),
    /// The first model of the set that a solve found.
    model: OnceLock<Assignment>,
}

/// A clause set's member and literal counts: what a debug build checks
/// to catch an oracle asked about another set.
fn set_size(set: &ClauseSet) -> (usize, usize) {
    (set.len(), set.length())
}

impl QueryOracle {
    /// An oracle that has not solved anything yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `set ⊨ wff`: the answer of [`entails`].
    pub fn entails(&self, set: &ClauseSet, wff: &Wff) -> bool {
        let negated = crate::cnf::cnf_of(&wff.clone().not());
        if negated.has_empty_clause() {
            return true;
        }
        let bound = negated.atom_bound();
        if self
            .model(set)
            .is_some_and(|m| bound <= m.len() && negated.eval(m))
        {
            return false;
        }
        let mut assumptions = Vec::new();
        let mut extra = Vec::new();
        for c in negated.iter() {
            match c.literals() {
                [lit] => assumptions.push(*lit),
                _ => extra.push(c),
            }
        }
        !self.solve(set, &assumptions, &extra)
    }

    /// Whether `set` has a model: the answer of [`is_satisfiable`].
    pub fn is_satisfiable(&self, set: &ClauseSet) -> bool {
        self.model(set).is_some() || self.solve(set, &[], &[])
    }

    /// The kept model of `set`, if a solve has found one.
    fn model(&self, set: &ClauseSet) -> Option<&Assignment> {
        let cache = self.cache.get()?;
        debug_assert_eq!(
            cache.built_from,
            set_size(set),
            "oracle asked about another set"
        );
        cache.model.get()
    }

    /// One solve on the cached solver; keeps the first model found.
    fn solve(&self, set: &ClauseSet, assumptions: &[Literal], extra: &[&Clause]) -> bool {
        let cache = self.cache.get_or_init(|| {
            Box::new(OracleCache {
                solver: Solver::new(set, 0),
                built_from: set_size(set),
                model: OnceLock::new(),
            })
        });
        debug_assert_eq!(
            cache.built_from,
            set_size(set),
            "oracle asked about another set"
        );
        match cache.solver.solve_with_clauses(assumptions, extra) {
            SatResult::Sat(model) => {
                let _ = cache.model.set(model);
                true
            }
            SatResult::Unsat => false,
        }
    }
}

impl Clone for QueryOracle {
    /// An empty oracle: the cached solver and model derive from the set
    /// and are rebuilt on demand.
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for QueryOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cache = self.cache.get();
        f.debug_struct("QueryOracle")
            .field("solver_built", &cache.is_some())
            .field(
                "model_kept",
                &cache.is_some_and(|c| c.model.get().is_some()),
            )
            .finish()
    }
}

/// Whether `Φ` has a model.
pub fn is_satisfiable(set: &ClauseSet) -> bool {
    Solver::new(set, 0).solve().is_sat()
}

/// Whether `Φ ⊨ ψ`, i.e. every model of the clause set satisfies the wff.
///
/// Implemented by refutation: `Φ ∧ ¬ψ` must be unsatisfiable.
pub fn entails(set: &ClauseSet, wff: &Wff) -> bool {
    let negated = crate::cnf::cnf_of(&wff.clone().not());
    let mut solver = Solver::new(set, negated.atom_bound());
    for c in negated.iter() {
        solver.add_clause(c);
    }
    !solver.solve().is_sat()
}

/// Whether `a ⊨ φ` for every clause `φ ∈ b` — clause-set entailment
/// without any formula conversion: each clause is refuted by assuming its
/// literals false, one (cheap) SAT call per clause.
pub fn entails_clauses(a: &ClauseSet, b: &ClauseSet) -> bool {
    let solver = Solver::new(a, b.atom_bound());
    b.iter().all(|c| {
        if c.is_tautology() {
            return true;
        }
        let assumptions: Vec<Literal> = c.literals().iter().map(|&l| l.negated()).collect();
        !solver.solve_with(&assumptions).is_sat()
    })
}

/// Whether two clause sets have exactly the same models over any common
/// atom universe (mutual entailment).
pub fn equivalent(a: &ClauseSet, b: &ClauseSet) -> bool {
    entails_clauses(a, b) && entails_clauses(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;
    use crate::parser::{parse_clause_set, parse_wff};
    use crate::truth::Assignment;

    fn set(s: &str, t: &mut AtomTable) -> ClauseSet {
        parse_clause_set(s, t).unwrap()
    }

    #[test]
    fn empty_set_is_satisfiable() {
        assert!(is_satisfiable(&ClauseSet::new()));
    }

    #[test]
    fn empty_clause_is_unsat() {
        assert!(!is_satisfiable(&ClauseSet::contradiction()));
    }

    #[test]
    fn simple_sat_and_unsat() {
        let mut t = AtomTable::with_indexed_atoms(3);
        assert!(is_satisfiable(&set("{A1 | A2, !A1 | A3}", &mut t)));
        assert!(!is_satisfiable(&set(
            "{A1 | A2, !A1 | A2, A1 | !A2, !A1 | !A2}",
            &mut t
        )));
    }

    #[test]
    fn model_actually_satisfies() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let s = set("{A1 | A2, !A2 | A3, !A1, A4 | A2}", &mut t);
        match Solver::new(&s, 0).solve() {
            SatResult::Sat(m) => assert!(s.eval(&m)),
            SatResult::Unsat => panic!("should be satisfiable"),
        }
    }

    #[test]
    fn assumptions_constrain() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let s = set("{A1 | A2}", &mut t);
        let solver = Solver::new(&s, 2);
        use crate::atom::AtomId;
        let n1 = Literal::neg(AtomId(0));
        let n2 = Literal::neg(AtomId(1));
        assert!(solver.solve_with(&[n1]).is_sat());
        assert_eq!(solver.solve_with(&[n1, n2]), SatResult::Unsat);
        // Contradictory assumptions.
        assert_eq!(solver.solve_with(&[n1, n1.negated()]), SatResult::Unsat);
    }

    #[test]
    fn entailment_basic() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let s = set("{A1, !A1 | A2}", &mut t);
        let q1 = parse_wff("A2", &mut t).unwrap();
        let q2 = parse_wff("A3", &mut t).unwrap();
        let q3 = parse_wff("A1 & A2", &mut t).unwrap();
        assert!(entails(&s, &q1));
        assert!(!entails(&s, &q2));
        assert!(entails(&s, &q3));
    }

    #[test]
    fn inconsistent_set_entails_everything() {
        let mut t = AtomTable::with_indexed_atoms(1);
        let s = ClauseSet::contradiction();
        let q = parse_wff("A1 & !A1", &mut t).unwrap();
        assert!(entails(&s, &q));
    }

    #[test]
    fn equivalence_detects_syntactic_variants() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let a = set("{A1 | A2, !A1 | A2}", &mut t);
        let b = set("{A2}", &mut t);
        assert!(equivalent(&a, &b));
        let c = set("{A1}", &mut t);
        assert!(!equivalent(&a, &c));
    }

    #[test]
    fn agrees_with_truth_table_on_random_sets() {
        let mut rng = crate::rng::Rng::new(0xBEEF);
        for _ in 0..200 {
            let n = rng.range_usize(1, 6);
            let k = rng.range_usize(0, 7);
            let mut s = ClauseSet::new();
            for _ in 0..k {
                let w = rng.range_usize(1, 4);
                let lits: Vec<Literal> = (0..w)
                    .map(|_| {
                        Literal::new(crate::atom::AtomId(rng.below(n as u64) as u32), rng.coin())
                    })
                    .collect();
                s.insert(crate::clause::Clause::new(lits));
            }
            let brute = Assignment::enumerate(n).any(|a| s.eval(&a));
            assert_eq!(
                Solver::new(&s, n).solve().is_sat(),
                brute,
                "mismatch on {s}"
            );
        }
    }
}
