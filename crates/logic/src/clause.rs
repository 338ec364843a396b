//! Clauses (`CF[L]`, §1.1): disjunctions of literals.
//!
//! A clause is stored as a sorted, duplicate-free slice of literals. The
//! paper's *length* of a clause is the number of distinct literals in it
//! ([`Clause::len`]); `□`/`0` is the empty clause and a clause containing a
//! complementary pair is tautologous (the paper's `1`).

use std::fmt;

use pwdb_metrics::counter;

use crate::atom::{AtomId, AtomTable};
use crate::literal::Literal;
use crate::truth::Assignment;

/// A clause: a finite disjunction of distinct literals.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    lits: Box<[Literal]>,
}

impl Clause {
    /// Builds a clause from literals, sorting and deduplicating.
    ///
    /// Complementary pairs are *kept*: `A ∨ ¬A` is a legitimate
    /// (tautological) clause in the paper's presentation; callers that want
    /// them removed filter with [`Clause::is_tautology`] (as
    /// [`crate::ClauseSet::insert`] does).
    pub fn new(mut lits: Vec<Literal>) -> Self {
        lits.sort_unstable();
        lits.dedup();
        Clause {
            lits: lits.into_boxed_slice(),
        }
    }

    /// The empty clause `□` (the paper's `0`), satisfied by no structure.
    pub fn empty() -> Self {
        Clause { lits: Box::new([]) }
    }

    /// A unit clause.
    pub fn unit(lit: Literal) -> Self {
        Clause {
            lits: Box::new([lit]),
        }
    }

    /// The literals, sorted.
    #[inline]
    pub fn literals(&self) -> &[Literal] {
        &self.lits
    }

    /// The paper's clause length: number of distinct literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the empty clause `□`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Whether the clause contains `lit`.
    #[inline]
    pub fn contains(&self, lit: Literal) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Whether the clause mentions `atom` (in either polarity).
    pub fn mentions(&self, atom: AtomId) -> bool {
        self.contains(Literal::pos(atom)) || self.contains(Literal::neg(atom))
    }

    /// Whether the clause contains a complementary pair and is therefore
    /// true in every structure (the paper's tautological clause `1`).
    pub fn is_tautology(&self) -> bool {
        // Literals are sorted with the two polarities of an atom adjacent.
        self.lits.windows(2).any(|w| w[0].negated() == w[1])
    }

    /// The atoms occurring in the clause — `Prop[{φ}]`.
    pub fn atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        let mut last: Option<AtomId> = None;
        self.lits.iter().filter_map(move |l| {
            let a = l.atom();
            if last == Some(a) {
                None
            } else {
                last = Some(a);
                Some(a)
            }
        })
    }

    /// Largest atom index occurring, plus one.
    pub fn atom_bound(&self) -> usize {
        self.lits.last().map_or(0, |l| l.atom().index() + 1)
    }

    /// Evaluates under a structure.
    pub fn eval(&self, s: &Assignment) -> bool {
        self.lits.iter().any(|&l| s.satisfies(l))
    }

    /// `self ∨ other`, deduplicated — the elementwise operation of the
    /// paper's `combine` algorithm (2.3.3).
    pub fn disjoin(&self, other: &Clause) -> Clause {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            match self.lits[i].cmp(&other.lits[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.lits[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.lits[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.lits[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.lits[i..]);
        out.extend_from_slice(&other.lits[j..]);
        Clause {
            lits: out.into_boxed_slice(),
        }
    }

    /// Returns the clause with every occurrence of `lit` removed (used by
    /// unit resolution, Algorithm 2.3.8).
    pub fn without(&self, lit: Literal) -> Clause {
        Clause {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|&l| l != lit)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Whether every literal of `self` occurs in `other` (subsumption).
    ///
    /// Every call is counted in `logic.subsumption.comparisons` — the
    /// op-cost measure the reference-vs-indexed comparison
    /// (`report_index`, `BENCH_index.json`) is keyed on.
    pub fn subsumes(&self, other: &Clause) -> bool {
        counter!("logic.subsumption.comparisons").inc();
        if self.len() > other.len() {
            return false;
        }
        self.lits.iter().all(|&l| other.contains(l))
    }

    /// Renders with a name table.
    pub fn display<'a>(&'a self, atoms: &'a AtomTable) -> ClauseDisplay<'a> {
        ClauseDisplay {
            clause: self,
            atoms: Some(atoms),
        }
    }
}

impl FromIterator<Literal> for Clause {
    fn from_iter<T: IntoIterator<Item = Literal>>(iter: T) -> Self {
        Clause::new(iter.into_iter().collect())
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ClauseDisplay {
            clause: self,
            atoms: None,
        }
        .fmt(f)
    }
}

/// Helper returned by [`Clause::display`].
pub struct ClauseDisplay<'a> {
    clause: &'a Clause,
    atoms: Option<&'a AtomTable>,
}

impl fmt::Display for ClauseDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clause.is_empty() {
            return write!(f, "[]");
        }
        for (i, l) in self.clause.literals().iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            match self.atoms {
                Some(t) => write!(f, "{}", l.display(t))?,
                None => write!(f, "{l}")?,
            }
        }
        Ok(())
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
    fn new_sorts_and_dedups() {
        let c = Clause::new(vec![lp(2), lp(0), lp(2), ln(1)]);
        assert_eq!(c.literals(), &[lp(0), ln(1), lp(2)]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn empty_clause_is_unsatisfiable() {
        let c = Clause::empty();
        assert!(c.is_empty());
        assert!(!c.eval(&Assignment::from_bits(0b11, 2)));
    }

    #[test]
    fn tautology_detection() {
        assert!(Clause::new(vec![lp(0), ln(0)]).is_tautology());
        assert!(!Clause::new(vec![lp(0), ln(1)]).is_tautology());
        assert!(!Clause::empty().is_tautology());
        assert!(Clause::new(vec![lp(3), ln(2), lp(2)]).is_tautology());
    }

    #[test]
    fn eval_is_disjunction() {
        let c = Clause::new(vec![lp(0), ln(1)]);
        assert!(c.eval(&Assignment::from_bits(0b01, 2))); // A1
        assert!(c.eval(&Assignment::from_bits(0b00, 2))); // ¬A2
        assert!(!c.eval(&Assignment::from_bits(0b10, 2)));
    }

    #[test]
    fn disjoin_merges() {
        let c1 = Clause::new(vec![lp(0), lp(2)]);
        let c2 = Clause::new(vec![lp(1), lp(2), ln(3)]);
        let d = c1.disjoin(&c2);
        assert_eq!(d.literals(), &[lp(0), lp(1), lp(2), ln(3)]);
    }

    #[test]
    fn disjoin_with_empty_is_identity() {
        let c = Clause::new(vec![lp(0), ln(1)]);
        assert_eq!(c.disjoin(&Clause::empty()), c);
        assert_eq!(Clause::empty().disjoin(&c), c);
    }

    #[test]
    fn mentions_and_atoms() {
        let c = Clause::new(vec![lp(0), ln(0), lp(2)]);
        assert!(c.mentions(AtomId(0)));
        assert!(!c.mentions(AtomId(1)));
        let atoms: Vec<_> = c.atoms().collect();
        assert_eq!(atoms, vec![AtomId(0), AtomId(2)]);
        assert_eq!(c.atom_bound(), 3);
    }

    #[test]
    fn without_strips_literal() {
        let c = Clause::new(vec![lp(0), ln(1)]);
        assert_eq!(c.without(ln(1)).literals(), &[lp(0)]);
        assert_eq!(c.without(lp(5)), c);
    }

    #[test]
    fn subsumption() {
        let small = Clause::new(vec![lp(0)]);
        let big = Clause::new(vec![lp(0), ln(1)]);
        assert!(small.subsumes(&big));
        assert!(!big.subsumes(&small));
        assert!(Clause::empty().subsumes(&small));
        assert!(big.subsumes(&big));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Clause::empty().to_string(), "[]");
        let c = Clause::new(vec![lp(0), ln(1)]);
        assert_eq!(c.to_string(), "A1 | !A2");
    }

    #[test]
    fn from_iterator() {
        let c: Clause = [lp(1), lp(0)].into_iter().collect();
        assert_eq!(c.literals(), &[lp(0), lp(1)]);
    }
}
