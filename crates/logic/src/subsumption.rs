//! Subsumption utilities beyond the member functions on
//! [`Clause`]/[`ClauseSet`].
//!
//! Subsumption is the workhorse normalization of the optimized BLU-C
//! operators: it is model-preserving, cheap relative to the operations it
//! shrinks, and keeps the clause-level states close to canonical so that
//! emulation checks against the instance level stay tractable.

use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::index::IndexedClauseSet;

/// Returns `true` iff some member of `set` subsumes `clause`.
pub fn is_subsumed_by(set: &ClauseSet, clause: &Clause) -> bool {
    set.iter().any(|c| c.subsumes(clause))
}

/// Inserts `clause` into `set` applying forward and backward subsumption:
/// the clause is skipped if subsumed by a member, and members it subsumes
/// are removed. Tautologies are skipped, and a clause equal to an existing
/// member reports "not added" *before* any subsumption work (it used to be
/// folded into the forward sweep, which skewed the forward-hit counters
/// and made insert/merge return counts asymmetric between engines).
/// Returns whether `set` changed.
///
/// A single insert cannot amortize an index build, so this one is a
/// scan over the set; the bulk operations ([`merge_with_subsumption`],
/// [`ClauseSet::reduce_subsumed`], the resolution closures) run on
/// [`IndexedClauseSet`], whose
/// [`insert_with_subsumption`](IndexedClauseSet::insert_with_subsumption)
/// keeps the same contract.
pub fn insert_with_subsumption(set: &mut ClauseSet, clause: Clause) -> bool {
    crate::reference::insert_with_subsumption(set, clause)
}

/// Merges `other` into `set` with subsumption, returning the number of
/// clauses actually added. The target set is indexed once and every
/// member of `other` is inserted through the occurrence lists.
pub fn merge_with_subsumption(set: &mut ClauseSet, other: &ClauseSet) -> usize {
    let mut idx = IndexedClauseSet::from_set(set);
    let mut added = 0;
    for c in other.iter() {
        if idx.insert_with_subsumption(c.clone()) {
            added += 1;
        }
    }
    *set = idx.into_set();
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;
    use crate::parser::{parse_clause, parse_clause_set};

    #[test]
    fn skips_subsumed_insert() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let mut s = parse_clause_set("{A1}", &mut t).unwrap();
        let weaker = parse_clause("A1 | A2", &mut t).unwrap();
        assert!(!insert_with_subsumption(&mut s, weaker));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn removes_subsumed_members() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let mut s = parse_clause_set("{A1 | A2, A1 | A3}", &mut t).unwrap();
        let stronger = parse_clause("A1", &mut t).unwrap();
        assert!(insert_with_subsumption(&mut s, stronger.clone()));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&stronger));
    }

    #[test]
    fn skips_tautologies() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let mut s = ClauseSet::new();
        let taut = parse_clause("A1 | !A1", &mut t).unwrap();
        assert!(!insert_with_subsumption(&mut s, taut));
        assert!(s.is_empty());
    }

    #[test]
    fn merge_counts_added() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let mut s = parse_clause_set("{A1}", &mut t).unwrap();
        let other = parse_clause_set("{A1 | A2, A3, A4 | !A3}", &mut t).unwrap();
        let added = merge_with_subsumption(&mut s, &other);
        assert_eq!(added, 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn is_subsumed_by_checks_all_members() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let s = parse_clause_set("{A1 | A2, A3}", &mut t).unwrap();
        let c = parse_clause("A1 | A2 | A4", &mut t).unwrap();
        assert!(is_subsumed_by(&s, &c));
        let d = parse_clause("A1 | A4", &mut t).unwrap();
        assert!(!is_subsumed_by(&s, &d));
    }
}
