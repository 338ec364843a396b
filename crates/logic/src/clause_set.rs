//! Sets of clauses — the concrete state domain of **BLU-C** (§2.3).
//!
//! `BLU--C[S] = 2^{CF[D]}`: a database state at the clause level is just a
//! set of clauses, read conjunctively. [`ClauseSet`] keeps clauses in a
//! `BTreeSet`, giving a canonical iteration order (important for
//! reproducible algorithms and for hashing states during emulation checks).

use std::collections::BTreeSet;
use std::fmt;

use crate::atom::{AtomId, AtomTable};
use crate::clause::Clause;
use crate::literal::Literal;
use crate::truth::Assignment;

/// A set of clauses, interpreted as their conjunction.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseSet {
    clauses: BTreeSet<Clause>,
}

impl ClauseSet {
    /// The empty set of clauses (equivalent to `1`; every structure is a
    /// model).
    pub fn new() -> Self {
        Self::default()
    }

    /// The inconsistent set `{□}` (no models).
    pub fn contradiction() -> Self {
        let mut s = Self::new();
        s.insert_raw(Clause::empty());
        s
    }

    /// Builds from an iterator of clauses, dropping tautologies.
    pub fn from_clauses(clauses: impl IntoIterator<Item = Clause>) -> Self {
        let mut s = Self::new();
        for c in clauses {
            s.insert(c);
        }
        s
    }

    /// Inserts a clause unless it is tautologous (a model-preserving
    /// normalization the paper explicitly allows; cf. §4 "correctness-
    /// preserving optimizations"). Returns whether the set changed.
    pub fn insert(&mut self, clause: Clause) -> bool {
        if clause.is_tautology() {
            return false;
        }
        self.clauses.insert(clause)
    }

    /// Inserts a clause without the tautology filter. Paper-exact
    /// algorithm variants use this to reproduce the unnormalized outputs.
    pub fn insert_raw(&mut self, clause: Clause) -> bool {
        self.clauses.insert(clause)
    }

    /// Removes a clause; returns whether it was present.
    pub fn remove(&mut self, clause: &Clause) -> bool {
        self.clauses.remove(clause)
    }

    /// Whether the given clause is a member.
    pub fn contains(&self, clause: &Clause) -> bool {
        self.clauses.contains(clause)
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the set has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The paper's `Length[Φ]`: the sum of the lengths of the member
    /// clauses (§1.1).
    pub fn length(&self) -> usize {
        self.clauses.iter().map(Clause::len).sum()
    }

    /// Iterates in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Clause> {
        self.clauses.iter()
    }

    /// The atoms occurring in some clause — `Prop[Φ]`.
    pub fn props(&self) -> BTreeSet<AtomId> {
        self.clauses.iter().flat_map(Clause::atoms).collect()
    }

    /// The literals occurring in some clause — `Lit[Φ]`.
    pub fn literals(&self) -> BTreeSet<Literal> {
        self.clauses
            .iter()
            .flat_map(|c| c.literals().iter().copied())
            .collect()
    }

    /// Largest atom index occurring anywhere, plus one.
    pub fn atom_bound(&self) -> usize {
        self.clauses
            .iter()
            .map(Clause::atom_bound)
            .max()
            .unwrap_or(0)
    }

    /// Whether `□ ∈ Φ` (trivially inconsistent).
    pub fn has_empty_clause(&self) -> bool {
        self.clauses.contains(&Clause::empty())
    }

    /// Evaluates the conjunction under a structure.
    pub fn eval(&self, s: &Assignment) -> bool {
        self.clauses.iter().all(|c| c.eval(s))
    }

    /// Clauses mentioning `atom`, split by the polarity of its occurrence
    /// (the `Γ₊`/`Γ₋` split of Algorithm 2.3.5's `rclosure`). A clause
    /// containing both polarities appears in both.
    pub fn split_on(&self, atom: AtomId) -> (Vec<&Clause>, Vec<&Clause>) {
        let pos = Literal::pos(atom);
        let neg = Literal::neg(atom);
        let mut p = Vec::new();
        let mut n = Vec::new();
        for c in &self.clauses {
            if c.contains(pos) {
                p.push(c);
            }
            if c.contains(neg) {
                n.push(c);
            }
        }
        (p, n)
    }

    /// Removes clauses subsumed by another member, returning the number
    /// dropped. A model-preserving reduction used by the optimized BLU-C
    /// operations.
    ///
    /// The result is canonical — the unique subsumption-minimal members
    /// (distinct equal-length clauses never subsume each other, so
    /// "subsumed by another member" is a strict order on lengths) — and
    /// equals the all-pairs scan of [`crate::reference::reduce_subsumed`].
    ///
    /// One forward-only sweep in place: the members are visited ascending
    /// by length, and each one that no kept member subsumes is kept,
    /// bucketed by first literal in a borrowed
    /// [`SubsumerIndex`](crate::index::SubsumerIndex). A longer member can
    /// never subsume a shorter one, so no backward check is needed. Only
    /// the subsumed members are then removed from the set; when none is,
    /// the set is left untouched. A set holding `□` reduces to `{□}`
    /// without a sweep.
    pub fn reduce_subsumed(&mut self) -> usize {
        let sp = pwdb_metrics::span!("logic.subsumption.sweep", "clauses_in" => self.clauses.len());
        let before = self.clauses.len();
        if self.has_empty_clause() {
            crate::governor::step();
            if before > 1 {
                *self = Self::contradiction();
            }
        } else {
            let mut order: Vec<(usize, &Clause)> = self.clauses.iter().enumerate().collect();
            order.sort_by_key(|(_, c)| c.len());
            let mut kept = crate::index::SubsumerIndex::new();
            let mut doomed = vec![false; before];
            for (i, c) in order {
                let sig = crate::index::signature(c);
                if kept.is_forward_subsumed(c, sig) {
                    doomed[i] = true;
                } else {
                    kept.push(c, sig);
                }
            }
            if kept.len() < before {
                let mut i = 0;
                self.clauses.retain(|_| {
                    i += 1;
                    !doomed[i - 1]
                });
            }
        }
        let dropped = before - self.clauses.len();
        pwdb_metrics::counter!("logic.subsumption.forward_hits").add(dropped as u64);
        sp.attr("dropped", dropped);
        dropped
    }

    /// Renders with a name table.
    pub fn display<'a>(&'a self, atoms: &'a AtomTable) -> ClauseSetDisplay<'a> {
        ClauseSetDisplay {
            set: self,
            atoms: Some(atoms),
        }
    }
}

impl FromIterator<Clause> for ClauseSet {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> Self {
        Self::from_clauses(iter)
    }
}

impl Extend<Clause> for ClauseSet {
    fn extend<T: IntoIterator<Item = Clause>>(&mut self, iter: T) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl IntoIterator for ClauseSet {
    type Item = Clause;
    type IntoIter = std::collections::btree_set::IntoIter<Clause>;
    fn into_iter(self) -> Self::IntoIter {
        self.clauses.into_iter()
    }
}

impl<'a> IntoIterator for &'a ClauseSet {
    type Item = &'a Clause;
    type IntoIter = std::collections::btree_set::Iter<'a, Clause>;
    fn into_iter(self) -> Self::IntoIter {
        self.clauses.iter()
    }
}

impl fmt::Debug for ClauseSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ClauseSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ClauseSetDisplay {
            set: self,
            atoms: None,
        }
        .fmt(f)
    }
}

/// Helper returned by [`ClauseSet::display`].
pub struct ClauseSetDisplay<'a> {
    set: &'a ClauseSet,
    atoms: Option<&'a AtomTable>,
}

impl fmt::Display for ClauseSetDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.set.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match self.atoms {
                Some(t) => write!(f, "{}", c.display(t))?,
                None => write!(f, "{c}")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(i: u32) -> Literal {
        Literal::pos(AtomId(i))
    }
    fn ln(i: u32) -> Literal {
        Literal::neg(AtomId(i))
    }

    #[test]
    fn insert_drops_tautologies() {
        let mut s = ClauseSet::new();
        assert!(!s.insert(Clause::new(vec![lp(0), ln(0)])));
        assert!(s.is_empty());
        assert!(s.insert(Clause::new(vec![lp(0)])));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_raw_keeps_tautologies() {
        let mut s = ClauseSet::new();
        assert!(s.insert_raw(Clause::new(vec![lp(0), ln(0)])));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn length_sums_clause_lengths() {
        let s =
            ClauseSet::from_clauses([Clause::new(vec![lp(0), lp(1)]), Clause::new(vec![ln(2)])]);
        assert_eq!(s.length(), 3);
    }

    #[test]
    fn props_and_literals() {
        let s =
            ClauseSet::from_clauses([Clause::new(vec![lp(0), ln(2)]), Clause::new(vec![lp(2)])]);
        let props: Vec<u32> = s.props().into_iter().map(|a| a.0).collect();
        assert_eq!(props, vec![0, 2]);
        assert_eq!(s.literals().len(), 3);
        assert_eq!(s.atom_bound(), 3);
    }

    #[test]
    fn eval_is_conjunction() {
        let s = ClauseSet::from_clauses([Clause::unit(lp(0)), Clause::unit(ln(1))]);
        assert!(s.eval(&Assignment::from_bits(0b01, 2)));
        assert!(!s.eval(&Assignment::from_bits(0b11, 2)));
        assert!(ClauseSet::new().eval(&Assignment::from_bits(0, 2)));
    }

    #[test]
    fn contradiction_has_no_models() {
        let s = ClauseSet::contradiction();
        assert!(s.has_empty_clause());
        assert!(!s.eval(&Assignment::from_bits(0, 1)));
    }

    #[test]
    fn split_on_polarity() {
        let both = Clause::new(vec![lp(0), ln(0), lp(1)]);
        let mut s = ClauseSet::new();
        s.insert_raw(both.clone());
        s.insert(Clause::new(vec![lp(0), lp(2)]));
        s.insert(Clause::new(vec![ln(0)]));
        let (p, n) = s.split_on(AtomId(0));
        assert_eq!(p.len(), 2);
        assert_eq!(n.len(), 2);
        assert!(p.contains(&&both) && n.contains(&&both));
    }

    #[test]
    fn reduce_subsumed_removes_weaker() {
        let mut s = ClauseSet::from_clauses([
            Clause::unit(lp(0)),
            Clause::new(vec![lp(0), ln(1)]),
            Clause::new(vec![lp(2), lp(3)]),
        ]);
        let dropped = s.reduce_subsumed();
        assert_eq!(dropped, 1);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&Clause::unit(lp(0))));
    }

    #[test]
    fn reduce_subsumed_keeps_one_of_duplicand() {
        // Identical clauses are already merged by the set; nothing to drop.
        let mut s = ClauseSet::from_clauses([Clause::unit(lp(0)), Clause::unit(lp(0))]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.reduce_subsumed(), 0);
    }

    #[test]
    fn empty_clause_subsumes_everything() {
        let mut s = ClauseSet::from_clauses([
            Clause::empty(),
            Clause::unit(lp(0)),
            Clause::new(vec![lp(1), ln(2)]),
        ]);
        s.reduce_subsumed();
        assert_eq!(s.len(), 1);
        assert!(s.has_empty_clause());
    }

    #[test]
    fn display_canonical_order() {
        let s =
            ClauseSet::from_clauses([Clause::new(vec![lp(1)]), Clause::new(vec![lp(0), ln(1)])]);
        assert_eq!(s.to_string(), "{A1 | !A2, A2}");
    }
}
