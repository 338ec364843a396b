//! A complete DPLL SAT solver over clause sets.
//!
//! The paper's algorithms lean on semantic questions that are NP-hard in
//! general — dependence of a clause set on a letter is NP-complete
//! (Theorem 2.3.9(c)) — so a real solver is part of the substrate. This is
//! a classical recursive DPLL with unit propagation and pure-literal
//! elimination; clause sets in this domain are small enough that watched
//! literals and clause learning would be over-engineering, but the solver
//! is exact and handles the worst cases the benchmarks construct.

use pwdb_metrics::{counter, span};

use crate::atom::AtomId;
use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::literal::Literal;
use crate::truth::Assignment;
use crate::wff::Wff;

/// A reusable DPLL solver instance.
///
/// Holds the clause database in an indexed form. Assumption literals may
/// be supplied per query, which is how entailment (`Φ ⊨ ψ` as
/// `unsat(Φ ∧ ¬ψ)`) is implemented without copying `Φ`.
pub struct Solver {
    clauses: Vec<Vec<Literal>>,
    n_atoms: usize,
}

/// Result of a satisfiability query: a model if one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness over atoms `0..n_atoms`.
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
/// [`Solver::solve_with`].
#[derive(Default)]
struct DpllStats {
    decisions: u64,
    propagations: u64,
    conflicts: u64,
}

impl Solver {
    /// Builds a solver over `set`, with the atom universe sized to the
    /// larger of the set's own bound and `min_atoms`.
    pub fn new(set: &ClauseSet, min_atoms: usize) -> Self {
        let n_atoms = set.atom_bound().max(min_atoms);
        let clauses = set
            .iter()
            .filter(|c| !c.is_tautology())
            .map(|c| c.literals().to_vec())
            .collect();
        Solver { clauses, n_atoms }
    }

    /// Adds one clause to the database.
    pub fn add_clause(&mut self, clause: &Clause) {
        if clause.is_tautology() {
            return;
        }
        self.n_atoms = self.n_atoms.max(clause.atom_bound());
        self.clauses.push(clause.literals().to_vec());
    }

    /// Number of atoms in the solver's universe.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Solves under the given assumption literals.
    pub fn solve_with(&self, assumptions: &[Literal]) -> SatResult {
        counter!("logic.dpll.solves").inc();
        let sp = span!(
            "logic.dpll.solve",
            "clauses" => self.clauses.len(),
            "atoms" => self.n_atoms,
        );
        let mut values: Vec<Option<bool>> = vec![None; self.n_atoms];
        for &lit in assumptions {
            let idx = lit.atom().index();
            if idx >= values.len() {
                values.resize(idx + 1, None);
            }
            match values[idx] {
                Some(v) if v != lit.is_positive() => {
                    sp.attr("sat", false);
                    return SatResult::Unsat;
                }
                _ => values[idx] = Some(lit.is_positive()),
            }
        }
        let mut stats = DpllStats::default();
        let sat = self.dpll(&mut values, &mut stats);
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
            let n = values.len().min(64);
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

    /// Clause status under a partial assignment: `None` if satisfied,
    /// otherwise the unassigned literals.
    fn clause_state(clause: &[Literal], values: &[Option<bool>]) -> Option<Vec<Literal>> {
        let mut open = Vec::new();
        for &lit in clause {
            match values.get(lit.atom().index()).copied().flatten() {
                Some(v) if v == lit.is_positive() => return None, // satisfied
                Some(_) => {}                                     // falsified literal
                None => open.push(lit),
            }
        }
        Some(open)
    }

    fn dpll(&self, values: &mut Vec<Option<bool>>, stats: &mut DpllStats) -> bool {
        // Unit propagation to fixpoint. Each round (and each search
        // node) charges one step per clause scanned.
        loop {
            crate::governor::step_n(self.clauses.len() as u64 + 1);
            let mut changed = false;
            for clause in &self.clauses {
                match Self::clause_state(clause, values) {
                    None => {}
                    Some(open) if open.is_empty() => {
                        stats.conflicts += 1;
                        return false;
                    }
                    Some(open) if open.len() == 1 => {
                        let lit = open[0];
                        values[lit.atom().index()] = Some(lit.is_positive());
                        stats.propagations += 1;
                        changed = true;
                    }
                    Some(_) => {}
                }
            }
            if !changed {
                break;
            }
        }

        // Pure-literal elimination and branch selection in one pass:
        // track polarity occurrences among unresolved clauses.
        let mut seen_pos = vec![false; values.len()];
        let mut seen_neg = vec![false; values.len()];
        let mut branch: Option<AtomId> = None;
        let mut any_open = false;
        for clause in &self.clauses {
            if let Some(open) = Self::clause_state(clause, values) {
                if open.is_empty() {
                    stats.conflicts += 1;
                    return false;
                }
                any_open = true;
                for lit in open {
                    let idx = lit.atom().index();
                    if lit.is_positive() {
                        seen_pos[idx] = true;
                    } else {
                        seen_neg[idx] = true;
                    }
                    if branch.is_none() {
                        branch = Some(lit.atom());
                    }
                }
            }
        }
        if !any_open {
            return true; // all clauses satisfied
        }

        // Assign pure literals (cannot flip any satisfied clause).
        let mut assigned_pure = false;
        for i in 0..values.len() {
            if values[i].is_none() && (seen_pos[i] ^ seen_neg[i]) {
                values[i] = Some(seen_pos[i]);
                assigned_pure = true;
            }
        }
        if assigned_pure {
            return self.dpll(values, stats);
        }

        let atom = branch.expect("open clause implies an unassigned literal");
        stats.decisions += 1;
        let idx = atom.index();
        let snapshot = values.clone();
        values[idx] = Some(true);
        if self.dpll(values, stats) {
            return true;
        }
        *values = snapshot;
        values[idx] = Some(false);
        self.dpll(values, stats)
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
