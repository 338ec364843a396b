//! The canonical emulation `e_CI` of **BLU-I** by **BLU-C**
//! (Definitions 2.3.1, 2.3.2(b)) and machinery for *checking* it.
//!
//! An emulation is a surjective morphism of the defining algebras: a pair
//! of maps `e[S] : Φ ↦ Mod[Φ]` and `e[M] : P ↦ s-mask[P]` that respect all
//! five operators, e.g.
//!
//! ```text
//! e[S]( BLU-C[mask](Φ, P) )  =  BLU-I[mask]( e[S](Φ), e[M](P) )
//! ```
//!
//! Theorems 2.3.4(a), 2.3.6(a) and 2.3.9(a) assert exactly these squares
//! commute. [`check_states`] verifies all of them on concrete inputs;
//! `pwdb-bench`'s experiment E8 drives it exhaustively for tiny universes
//! and randomly for larger ones, and property tests in this crate and the
//! integration suite call it with generated inputs.

use std::collections::BTreeSet;

use pwdb_logic::{AtomId, ClauseSet};
use pwdb_worlds::WorldSet;

use crate::clausal::BluClausal;
use crate::eval::BluSemantics;
use crate::instance::BluInstance;

/// `e[S]`: the state component of the canonical emulation, `Φ ↦ Mod[Φ]`
/// over a universe of `n` atoms.
pub fn clause_state_to_worlds(n_atoms: usize, phi: &ClauseSet) -> WorldSet {
    WorldSet::from_clauses(n_atoms, phi)
}

/// Outcome of an emulation check over a batch of inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmulationReport {
    /// Operator applications checked.
    pub checked: usize,
    /// Human-readable descriptions of any commuting-square violations.
    pub failures: Vec<String>,
}

impl EmulationReport {
    /// Whether every checked square commuted.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: EmulationReport) {
        self.checked += other.checked;
        self.failures.extend(other.failures);
    }
}

/// Checks the five commuting squares on one state pair (and one derived
/// mask) in a universe of `n` atoms. `x` and `y` are BLU-C states; the
/// mask used for the `mask` square is `genmask(y)` plus any extra atoms
/// supplied.
pub fn check_states(
    clausal: &BluClausal,
    n_atoms: usize,
    x: &ClauseSet,
    y: &ClauseSet,
    extra_mask: &BTreeSet<AtomId>,
) -> EmulationReport {
    let instance = BluInstance::new(n_atoms);
    let ex = clause_state_to_worlds(n_atoms, x);
    let ey = clause_state_to_worlds(n_atoms, y);
    let mut report = EmulationReport::default();

    fn check(
        report: &mut EmulationReport,
        n_atoms: usize,
        x: &ClauseSet,
        y: &ClauseSet,
        label: &str,
        c_out: &ClauseSet,
        i_out: &WorldSet,
    ) {
        report.checked += 1;
        let mapped = clause_state_to_worlds(n_atoms, c_out);
        if &mapped != i_out {
            report.failures.push(format!(
                "{label}: e[S](C-result) != I-result for x={x}, y={y} \
                 (C gave {c_out}, |e|={}, |I|={})",
                mapped.len(),
                i_out.len()
            ));
        }
    }

    check(
        &mut report,
        n_atoms,
        x,
        y,
        "assert",
        &clausal.op_assert(x, y),
        &instance.op_assert(&ex, &ey),
    );
    check(
        &mut report,
        n_atoms,
        x,
        y,
        "combine",
        &clausal.op_combine(x, y),
        &instance.op_combine(&ex, &ey),
    );
    check(
        &mut report,
        n_atoms,
        x,
        y,
        "complement",
        &clausal.op_complement(x),
        &instance.op_complement(&ex),
    );

    // genmask: e[M] is the identity on atom sets (both sides are simple
    // masks presented as subsets of Prop).
    report.checked += 1;
    let gm_c = clausal.op_genmask(y);
    let gm_i = instance.op_genmask(&ey);
    if gm_c != gm_i {
        report.failures.push(format!(
            "genmask: C gave {gm_c:?}, I gave {gm_i:?} for y={y}"
        ));
    }

    // mask with genmask(y) ∪ extra.
    let mut mask = gm_i;
    mask.extend(extra_mask.iter().copied());
    check(
        &mut report,
        n_atoms,
        x,
        y,
        "mask",
        &clausal.op_mask(x, &mask),
        &instance.op_mask(&ex, &mask),
    );

    report
}

/// Enumerates every clause over `n` atoms with length ≤ `max_width`
/// (excluding tautologies), the building block of the exhaustive check.
pub fn all_clauses(n_atoms: usize, max_width: usize) -> Vec<pwdb_logic::Clause> {
    use pwdb_logic::{Clause, Literal};
    let mut out = vec![Clause::empty()];
    // Each atom contributes: absent / positive / negative.
    let mut stack: Vec<(usize, Vec<Literal>)> = vec![(0, Vec::new())];
    while let Some((i, lits)) = stack.pop() {
        if i == n_atoms {
            if !lits.is_empty() && lits.len() <= max_width {
                out.push(Clause::new(lits));
            }
            continue;
        }
        if lits.len() < max_width {
            let mut with_pos = lits.clone();
            with_pos.push(Literal::pos(AtomId(i as u32)));
            stack.push((i + 1, with_pos));
            let mut with_neg = lits.clone();
            with_neg.push(Literal::neg(AtomId(i as u32)));
            stack.push((i + 1, with_neg));
        }
        stack.push((i + 1, lits));
    }
    out
}

/// Exhaustively checks all operator squares over every pair of states
/// drawn from single- and two-clause sets in a tiny universe. Feasible
/// for `n_atoms ≤ 3`.
pub fn check_exhaustive_small(n_atoms: usize, clausal: &BluClausal) -> EmulationReport {
    assert!(
        n_atoms <= 3,
        "exhaustive check is quartic in the clause count"
    );
    let clauses = all_clauses(n_atoms, n_atoms);
    let mut states: Vec<ClauseSet> = vec![ClauseSet::new()];
    for c in &clauses {
        states.push(ClauseSet::from_clauses([c.clone()]));
    }
    // A selection of two-clause states (full cross product is too big to
    // be worthwhile; take consecutive pairs for variety).
    for w in clauses.windows(2) {
        states.push(ClauseSet::from_clauses([w[0].clone(), w[1].clone()]));
    }
    let mut report = EmulationReport::default();
    let empty = BTreeSet::new();
    for x in &states {
        for y in &states {
            report.merge(check_states(clausal, n_atoms, x, y, &empty));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::{parse_clause_set, AtomTable};

    #[test]
    fn paper_example_states_emulate() {
        let mut t = AtomTable::with_indexed_atoms(5);
        let phi =
            parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut t).unwrap();
        let param = parse_clause_set("{A1 | A2}", &mut t).unwrap();
        let report = check_states(
            &BluClausal::paper_exact(),
            5,
            &phi,
            &param,
            &BTreeSet::new(),
        );
        assert!(report.all_ok(), "{:?}", report.failures);
        assert_eq!(report.checked, 5);
    }

    #[test]
    fn exhaustive_two_atoms_all_ok() {
        let report = check_exhaustive_small(2, &BluClausal::paper_exact());
        assert!(report.all_ok(), "{:?}", report.failures);
        assert!(report.checked > 500);
    }

    #[test]
    fn exhaustive_two_atoms_reduced() {
        let report = check_exhaustive_small(2, &BluClausal::new());
        assert!(report.all_ok(), "{:?}", report.failures);
    }

    #[test]
    fn exhaustive_three_atoms_sat_genmask() {
        let clausal =
            BluClausal::paper_exact().with_genmask(crate::clausal::GenmaskStrategy::SatBased);
        let report = check_exhaustive_small(3, &clausal);
        assert!(report.all_ok(), "{:?}", report.failures);
    }

    #[test]
    fn extra_mask_atoms_are_exercised() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let x = parse_clause_set("{A1 | A2, !A2 | A3}", &mut t).unwrap();
        let y = parse_clause_set("{A3}", &mut t).unwrap();
        let extra = BTreeSet::from([AtomId(0), AtomId(1)]);
        let report = check_states(&BluClausal::paper_exact(), 3, &x, &y, &extra);
        assert!(report.all_ok(), "{:?}", report.failures);
    }

    #[test]
    fn all_clauses_counts() {
        // Over 2 atoms, width ≤ 2: empty clause + 4 units + 4 binary
        // non-tautological = 9.
        let cs = all_clauses(2, 2);
        assert_eq!(cs.len(), 9);
        assert!(cs.iter().all(|c| !c.is_tautology()));
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = EmulationReport {
            checked: 2,
            failures: vec!["x".into()],
        };
        let b = EmulationReport {
            checked: 3,
            failures: vec![],
        };
        a.merge(b);
        assert_eq!(a.checked, 5);
        assert!(!a.all_ok());
    }
}
