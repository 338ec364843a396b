//! The clause indexes behind the clausal engine's subsumption and
//! resolution sweeps.
//!
//! Every BLU-C primitive bottoms out in two sweeps over a clause set:
//! *subsumption* (is some member ⊆ this clause? which members ⊇ it?) and
//! *resolution partner lookup* (which members contain `¬λ`?). The naive
//! forms ([`crate::reference`]) scan the whole set per probe — O(n²)
//! over a sweep. Two indexes replace the scans, and neither builds a
//! per-literal map or clones a member it does not own:
//!
//! * [`SubsumerIndex`] — borrowed and insert-only; it answers "does some
//!   member subsume `φ`?". A subsumer draws all its literals from `φ`,
//!   so it sits in the bucket of its *first* literal, which is one of
//!   `φ`'s literals: the candidates are the buckets of `φ`'s own
//!   literals, each member tested at most once. The buckets are linked
//!   lists threaded through flat arrays and walked in insertion order,
//!   so a sweep that pushes members shortest first tries the likeliest
//!   subsumers first. [`ClauseSet::reduce_subsumed`]
//!   and the collapse pass of the reduced `combine` run on it.
//! * [`IndexedClauseSet`] — an owning set with removal, for the closures
//!   that insert as they go (`merge_with_subsumption`, `saturate`,
//!   `prime_implicates`, the reduced `combine`'s output). Its
//!   **occurrence lists** are one `Vec` per literal, indexed by
//!   [`Literal::code`] (atom ids are dense); backward candidates must
//!   contain *every* literal of `φ`, so the shortest list suffices.
//!   Exact membership maps a 64-bit clause hash to the slot, checked
//!   against the slot's clause, so no member is stored twice.
//!
//! Both keep a 64-bit Bloom **signature** per clause (one hashed bit per
//! literal). `φ ⊆ ψ` requires `sig(φ) & !sig(ψ) == 0`, a one-word
//! rejection that skips most [`Clause::subsumes`] comparisons; the skips
//! are counted in `logic.index.sig_prunes`.
//!
//! [`IndexedClauseSet`] removal marks a slot dead and leaves the
//! occurrence lists lazily stale; they are compacted once dead entries
//! outnumber the live literal occurrences, which a running count tracks.

use std::collections::hash_map::{Entry as MapEntry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use pwdb_metrics::counter;

use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::governor;
use crate::literal::Literal;

/// The 64-bit Bloom signature of a clause: one hashed bit per literal.
/// `a.subsumes(b)` implies `signature(a) & !signature(b) == 0`.
#[inline]
pub fn signature(clause: &Clause) -> u64 {
    clause
        .literals()
        .iter()
        .fold(0u64, |sig, &l| sig | 1u64 << literal_bit(l))
}

#[inline]
fn literal_bit(l: Literal) -> u32 {
    // Fibonacci hash of the packed code; the top 6 bits select the bit.
    ((l.code() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as u32
}

/// A clause-slot handle inside one [`IndexedClauseSet`].
pub type Slot = u32;

/// The end of a [`SubsumerIndex`] bucket.
const NIL: u32 = u32::MAX;

/// A borrowed, insert-only index of clauses that answers whether some
/// member subsumes a given clause (forward subsumption). Members are
/// bucketed by their first literal; `□` is a flag, since it has none.
#[derive(Debug, Default)]
pub struct SubsumerIndex<'a> {
    /// `Literal::code()` → the oldest member whose first literal it is.
    head: Vec<u32>,
    /// `Literal::code()` → the newest member whose first literal it is.
    tail: Vec<u32>,
    /// Per member: the next-newer member of the same bucket.
    next: Vec<u32>,
    /// The members with their signatures.
    members: Vec<(&'a Clause, u64)>,
    has_empty: bool,
}

impl<'a> SubsumerIndex<'a> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes every clause of `set` (duplicates and tautologies
    /// included, as they are).
    pub fn from_set(set: &'a ClauseSet) -> Self {
        let mut out = Self::new();
        for c in set {
            out.push(c, signature(c));
        }
        out
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether there is no member.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds `clause`, whose signature is `sig`. Charges the governor as
    /// an [`IndexedClauseSet`] insert does.
    pub fn push(&mut self, clause: &'a Clause, sig: u64) {
        governor::step_n(clause.len() as u64 + 1);
        governor::on_live_clauses(self.members.len() + 1);
        let id = u32::try_from(self.members.len()).expect("member overflow");
        match clause.literals().first() {
            None => self.has_empty = true,
            Some(first) => {
                let code = first.code() as usize;
                if code >= self.head.len() {
                    self.head.resize(code + 1, NIL);
                    self.tail.resize(code + 1, NIL);
                }
                match self.tail[code] {
                    NIL => self.head[code] = id,
                    last => self.next[last as usize] = id,
                }
                self.tail[code] = id;
            }
        }
        self.next.push(NIL);
        self.members.push((clause, sig));
    }

    /// Whether some member subsumes `clause`, whose signature is `sig`.
    /// An equal member subsumes trivially; `□` subsumes everything.
    /// Charges one step per candidate examined, plus the candidate's
    /// length when it is compared.
    pub fn is_forward_subsumed(&self, clause: &Clause, sig: u64) -> bool {
        if self.has_empty {
            return true;
        }
        for &l in clause.literals() {
            let mut id = self.head.get(l.code() as usize).copied().unwrap_or(NIL);
            while id != NIL {
                let (cand, cand_sig) = self.members[id as usize];
                id = self.next[id as usize];
                governor::step();
                if cand.len() > clause.len() {
                    continue;
                }
                if cand_sig & !sig != 0 {
                    counter!("logic.index.sig_prunes").inc();
                    continue;
                }
                governor::step_n(cand.len() as u64);
                if cand.subsumes(clause) {
                    return true;
                }
            }
        }
        false
    }
}

/// A live member of an [`IndexedClauseSet`].
#[derive(Debug)]
struct Entry {
    clause: Clause,
    sig: u64,
    /// The clause's hash under the set's hasher, its membership key.
    hash: u64,
}

/// Hashes a `u64` key that already is a keyed hash by passing it
/// through, so the membership map does not hash it a second time. The
/// key comes from the set's `RandomState`, so crafted clauses still
/// cannot aim at one bucket.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("membership keys are u64 hashes")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// A clause set maintained under a literal-occurrence index and per-clause
/// signatures. Semantically identical to [`ClauseSet`] (the differential
/// harness proves it); structurally tuned for subsumption and resolution
/// sweeps.
#[derive(Debug, Default)]
pub struct IndexedClauseSet {
    /// Slot arena; `None` marks a removed clause.
    slots: Vec<Option<Entry>>,
    /// `Literal::code()` → slots of live clauses containing that literal
    /// (may hold stale slots of removed clauses; skipped and compacted
    /// lazily).
    occ: Vec<Vec<Slot>>,
    /// Exact membership: clause hash → the slot holding the clause.
    members: HashMap<u64, Slot, BuildHasherDefault<PassThrough>>,
    /// Slots of live clauses whose hash `members` already maps to another
    /// clause (a 64-bit collision; almost always empty).
    collided: Vec<Slot>,
    /// The clause hasher: std's keyed default, since clauses derive from
    /// user statements.
    hasher: RandomState,
    /// Slot of the empty clause `□`, if present (it has no literals, so
    /// no occurrence list ever finds it).
    empty_slot: Option<Slot>,
    /// Live-clause count.
    len: usize,
    /// Literal occurrences of the live clauses.
    live_lits: usize,
    /// Dead entries currently left in occurrence lists.
    stale: usize,
}

impl IndexedClauseSet {
    /// An empty indexed set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes an existing set (no subsumption applied — the members are
    /// taken as they are, tautologies included).
    pub fn from_set(set: &ClauseSet) -> Self {
        let mut out = Self::new();
        for c in set.iter() {
            out.insert_raw(c.clone());
        }
        out
    }

    /// Converts back to a plain [`ClauseSet`], preserving every live
    /// member (tautologies included, mirroring `insert_raw`).
    pub fn to_set(&self) -> ClauseSet {
        let mut out = ClauseSet::new();
        for c in self.iter() {
            out.insert_raw(c.clone());
        }
        out
    }

    /// Consuming [`Self::to_set`]: moves the live members out instead of
    /// cloning them.
    pub fn into_set(self) -> ClauseSet {
        let mut out = ClauseSet::new();
        for e in self.slots.into_iter().flatten() {
            out.insert_raw(e.clause);
        }
        out
    }

    /// Number of live clauses.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no clause is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the exact clause is a live member.
    pub fn contains(&self, clause: &Clause) -> bool {
        self.slot_of(clause).is_some()
    }

    /// Whether `□` is a live member.
    pub fn has_empty_clause(&self) -> bool {
        self.empty_slot.is_some()
    }

    /// Iterates over the live clauses in slot (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = &Clause> {
        self.slots.iter().flatten().map(|e| &e.clause)
    }

    /// The live entry in `slot`, if any.
    #[inline]
    fn live(&self, slot: Slot) -> Option<&Entry> {
        self.slots[slot as usize].as_ref()
    }

    /// The occurrence list of `lit` (empty for a literal never indexed).
    #[inline]
    fn occurrences(&self, lit: Literal) -> &[Slot] {
        self.occ.get(lit.code() as usize).map_or(&[], Vec::as_slice)
    }

    /// The slot holding exactly `clause`, whose hash is `hash`.
    fn find(&self, clause: &Clause, hash: u64) -> Option<Slot> {
        let holds = |slot: Slot| self.live(slot).is_some_and(|e| e.clause == *clause);
        let slot = *self.members.get(&hash)?;
        if holds(slot) {
            return Some(slot);
        }
        self.collided.iter().copied().find(|&s| holds(s))
    }

    /// Inserts without any subsumption processing; duplicates are
    /// rejected, tautologies are kept. Returns the new slot if added.
    pub fn insert_raw(&mut self, clause: Clause) -> Option<Slot> {
        let hash = self.hasher.hash_one(&clause);
        if self.find(&clause, hash).is_some() {
            return None;
        }
        let sig = signature(&clause);
        Some(self.push_entry(clause, sig, hash))
    }

    /// Adds a clause known not to be a member.
    fn push_entry(&mut self, clause: Clause, sig: u64, hash: u64) -> Slot {
        let slot = u32::try_from(self.slots.len()).expect("slot overflow");
        governor::step_n(clause.len() as u64 + 1);
        governor::on_live_clauses(self.len + 1);
        for &l in clause.literals() {
            let code = l.code() as usize;
            if code >= self.occ.len() {
                self.occ.resize_with(code + 1, Vec::new);
            }
            self.occ[code].push(slot);
        }
        if clause.is_empty() {
            self.empty_slot = Some(slot);
        }
        self.live_lits += clause.len();
        self.len += 1;
        match self.members.entry(hash) {
            MapEntry::Vacant(v) => {
                v.insert(slot);
            }
            MapEntry::Occupied(_) => self.collided.push(slot),
        }
        self.slots.push(Some(Entry { clause, sig, hash }));
        slot
    }

    /// Removes the clause in `slot` (occurrence lists stay lazily stale).
    fn remove_slot(&mut self, slot: Slot) {
        let Some(e) = self.slots[slot as usize].take() else {
            return;
        };
        if self.members.get(&e.hash) == Some(&slot) {
            // Promote a collided clause of the same hash, if any.
            let slots = &self.slots;
            match self
                .collided
                .iter()
                .position(|&s| slots[s as usize].as_ref().is_some_and(|c| c.hash == e.hash))
            {
                Some(i) => {
                    self.members.insert(e.hash, self.collided.swap_remove(i));
                }
                None => {
                    self.members.remove(&e.hash);
                }
            }
        } else {
            self.collided.retain(|&s| s != slot);
        }
        self.stale += e.clause.len();
        self.live_lits -= e.clause.len();
        if e.clause.is_empty() {
            self.empty_slot = None;
        }
        self.len -= 1;
        self.maybe_compact();
    }

    /// Drops dead entries from the occurrence lists once they outnumber
    /// the live literal occurrences.
    fn maybe_compact(&mut self) {
        if self.stale <= self.live_lits.max(64) {
            return;
        }
        let slots = &self.slots;
        for list in &mut self.occ {
            list.retain(|&s| slots[s as usize].is_some());
        }
        self.stale = 0;
    }

    /// Whether some live member subsumes `clause` (forward subsumption).
    ///
    /// Any subsumer draws all its literals from `clause`, so it appears in
    /// the occurrence list of its *first* literal, which must be one of
    /// `clause`'s literals — each candidate is therefore tested exactly
    /// once. An equal member subsumes trivially; `□` subsumes everything.
    fn is_forward_subsumed(&self, clause: &Clause, sig: u64) -> bool {
        if self.empty_slot.is_some() {
            return true;
        }
        for &l in clause.literals() {
            for &slot in self.occurrences(l) {
                let Some(cand) = self.live(slot) else {
                    continue;
                };
                governor::step();
                if cand.clause.literals().first() != Some(&l) || cand.clause.len() > clause.len() {
                    continue;
                }
                if cand.sig & !sig != 0 {
                    counter!("logic.index.sig_prunes").inc();
                    continue;
                }
                governor::step_n(cand.clause.len() as u64);
                if cand.clause.subsumes(clause) {
                    return true;
                }
            }
        }
        false
    }

    /// The slots of live members subsumed by `clause` (backward
    /// subsumption). A subsumed member contains every literal of
    /// `clause`, so the shortest of `clause`'s occurrence lists already
    /// holds all candidates; for `□` every member qualifies.
    fn subsumed_slots(&self, clause: &Clause, sig: u64) -> Vec<Slot> {
        if clause.is_empty() {
            return self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.as_ref().is_some_and(|e| !e.clause.is_empty()))
                .map(|(i, _)| i as Slot)
                .collect();
        }
        let shortest = clause
            .literals()
            .iter()
            .map(|&l| self.occurrences(l))
            .min_by_key(|list| list.len())
            .unwrap_or(&[]);
        let mut out = Vec::new();
        for &slot in shortest {
            let Some(cand) = self.live(slot) else {
                continue;
            };
            governor::step_n(clause.len() as u64 + 1);
            if cand.clause.len() <= clause.len() {
                // Equal-length distinct clauses never subsume; the equal
                // clause itself is never live here (duplicates are
                // rejected before the backward sweep).
                continue;
            }
            if sig & !cand.sig != 0 {
                counter!("logic.index.sig_prunes").inc();
                continue;
            }
            if clause.subsumes(&cand.clause) {
                out.push(slot);
            }
        }
        out
    }

    /// Inserts with forward and backward subsumption, keeping
    /// tautologies out (the [`ClauseSet::insert`] normalization).
    /// Returns whether the set changed.
    pub fn insert_with_subsumption(&mut self, clause: Clause) -> bool {
        if clause.is_tautology() {
            return false;
        }
        self.insert_with_subsumption_raw(clause)
    }

    /// Subsumption-processed insert that admits tautological clauses
    /// (a closure seeded from raw input treats an existing tautology
    /// like any other member).
    pub fn insert_with_subsumption_raw(&mut self, clause: Clause) -> bool {
        let hash = self.hasher.hash_one(&clause);
        if self.find(&clause, hash).is_some() {
            return false;
        }
        let sig = signature(&clause);
        if self.is_forward_subsumed(&clause, sig) {
            counter!("logic.subsumption.forward_hits").inc();
            return false;
        }
        let doomed = self.subsumed_slots(&clause, sig);
        counter!("logic.subsumption.backward_hits").add(doomed.len() as u64);
        for slot in doomed {
            self.remove_slot(slot);
        }
        self.push_entry(clause, sig, hash);
        true
    }

    /// The live clauses containing `lit` — the resolution partners of a
    /// clause containing `¬lit` — with their slots.
    pub fn partners(&self, lit: Literal) -> Vec<Slot> {
        self.occurrences(lit)
            .iter()
            .copied()
            .filter(|&s| self.slots[s as usize].is_some())
            .collect()
    }

    /// The clause in `slot`; `None` once removed.
    pub fn clause(&self, slot: Slot) -> Option<&Clause> {
        self.live(slot).map(|e| &e.clause)
    }

    /// The slot currently holding exactly `clause`, if it is a live
    /// member (used by the closure worklists to enqueue fresh inserts).
    pub fn slot_of(&self, clause: &Clause) -> Option<Slot> {
        self.find(clause, self.hasher.hash_one(clause))
    }

    /// The slots of every live clause, in insertion order — ascending
    /// clause length when the inserts were length-sorted, which seeds the
    /// closure worklists units-first.
    pub fn live_slots(&self) -> Vec<Slot> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i as Slot)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomId;

    fn lp(i: u32) -> Literal {
        Literal::pos(AtomId(i))
    }
    fn ln(i: u32) -> Literal {
        Literal::neg(AtomId(i))
    }

    #[test]
    fn signature_respects_subsumption() {
        let small = Clause::new(vec![lp(0), ln(3)]);
        let big = Clause::new(vec![lp(0), ln(3), lp(7)]);
        assert_eq!(signature(&small) & !signature(&big), 0);
        assert_eq!(signature(&Clause::empty()), 0);
    }

    #[test]
    fn insert_with_subsumption_filters_both_directions() {
        let mut idx = IndexedClauseSet::new();
        assert!(idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(1)])));
        assert!(idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(2)])));
        // Forward: weaker than an existing member.
        assert!(!idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(1), lp(3)])));
        // Duplicate: unchanged.
        assert!(!idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(1)])));
        // Backward: subsumes both members.
        assert!(idx.insert_with_subsumption(Clause::unit(lp(0))));
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(&Clause::unit(lp(0))));
    }

    #[test]
    fn empty_clause_subsumes_all() {
        let mut idx = IndexedClauseSet::new();
        idx.insert_with_subsumption(Clause::unit(lp(0)));
        idx.insert_with_subsumption(Clause::new(vec![lp(1), ln(2)]));
        assert!(idx.insert_with_subsumption(Clause::empty()));
        assert_eq!(idx.len(), 1);
        assert!(idx.has_empty_clause());
        // And everything after it is forward-subsumed.
        assert!(!idx.insert_with_subsumption(Clause::unit(lp(5))));
    }

    #[test]
    fn partners_track_removals() {
        let mut idx = IndexedClauseSet::new();
        idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(1)]));
        idx.insert_with_subsumption(Clause::new(vec![lp(0), ln(2)]));
        assert_eq!(idx.partners(lp(0)).len(), 2);
        // A unit subsuming both replaces them; stale occurrences must not
        // resurface.
        idx.insert_with_subsumption(Clause::unit(lp(0)));
        assert_eq!(idx.partners(lp(0)).len(), 1);
        assert_eq!(idx.partners(lp(1)).len(), 0);
    }

    #[test]
    fn membership_survives_hash_collisions() {
        // Three distinct clauses forced onto one hash.
        let mut idx = IndexedClauseSet::new();
        let clauses = [
            Clause::unit(lp(0)),
            Clause::new(vec![lp(1), ln(2)]),
            Clause::unit(lp(3)),
        ];
        let slots: Vec<Slot> = clauses
            .iter()
            .map(|c| idx.push_entry(c.clone(), signature(c), 7))
            .collect();
        for (c, &slot) in clauses.iter().zip(&slots) {
            assert_eq!(idx.find(c, 7), Some(slot));
        }
        assert_eq!(idx.find(&Clause::unit(lp(4)), 7), None);
        // Removing the mapped slot promotes a collided one.
        idx.remove_slot(slots[0]);
        assert_eq!(idx.find(&clauses[0], 7), None);
        assert_eq!(idx.find(&clauses[1], 7), Some(slots[1]));
        assert_eq!(idx.find(&clauses[2], 7), Some(slots[2]));
        idx.remove_slot(slots[2]);
        assert_eq!(idx.find(&clauses[1], 7), Some(slots[1]));
        assert_eq!(idx.find(&clauses[2], 7), None);
        idx.remove_slot(slots[1]);
        assert!(idx.members.is_empty() && idx.collided.is_empty());
    }

    #[test]
    fn roundtrip_preserves_members() {
        let set = ClauseSet::from_clauses([
            Clause::unit(lp(0)),
            Clause::new(vec![ln(1), lp(2)]),
            Clause::empty(),
        ]);
        let idx = IndexedClauseSet::from_set(&set);
        assert_eq!(idx.to_set(), set);
        assert_eq!(idx.len(), set.len());
        assert!(idx.has_empty_clause());
    }
}
