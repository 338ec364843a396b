//! Metamorphic tests for the memoization layer and the subsumption-insert
//! contract.
//!
//! The memo caches (`blu.cache.genmask`, `worlds.cache.inset`,
//! `logic.cache.prime_implicates`) are keyed on their *full* inputs, so
//! a stale answer is only possible if keying or invalidation is wrong.
//! These tests interleave state-mutating primitives (`assert`,
//! `combine`) with repeated `genmask`/`Inset` calls and demand that every
//! cached answer equals a fresh computation — a cache-cleared run and,
//! for `genmask`, the semantic `Dep` of the state.
//!
//! The file also pins the `insert_with_subsumption` /
//! `merge_with_subsumption` return-count contract on duplicate and
//! mutually-subsuming inputs (the latent asymmetry where a clause equal
//! to an existing member was reported "added"), for the indexed engine
//! and the `reference` oracle alike.

use std::sync::Mutex;

use pwdb::blu::{BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::logic::subsumption::merge_with_subsumption;
use pwdb::logic::{cache, reference, AtomId, Clause, ClauseSet, IndexedClauseSet, Literal, Rng};
use pwdb::worlds::{inset, WorldSet};
use pwdb_suite::testgen;

const N_ATOMS: usize = 5;

fn lit(a: u32, pos: bool) -> Literal {
    Literal::new(AtomId(a), pos)
}

fn clause(lits: &[(u32, bool)]) -> Clause {
    Clause::new(lits.iter().map(|&(a, p)| lit(a, p)).collect())
}

fn set(clauses: &[&[(u32, bool)]]) -> ClauseSet {
    clauses.iter().map(|c| clause(c)).collect()
}

/// Serializes the tests that clear the caches or read their statistics:
/// tests run in parallel, and a clear between a miss and its repeat would
/// turn the expected hit into a second miss.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn lock_caches() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

type Insert = fn(&mut ClauseSet, Clause) -> bool;
type Merge = fn(&mut ClauseSet, &ClauseSet) -> usize;
type Reduce = fn(&mut ClauseSet) -> usize;

/// The two single-insert implementations: the `reference` scan and the
/// literal-occurrence index that merge and reduce are built on.
const INSERTS: [(&str, Insert); 2] = [
    ("reference", reference::insert_with_subsumption),
    ("indexed", |set, clause| {
        let mut idx = IndexedClauseSet::from_set(set);
        let added = idx.insert_with_subsumption(clause);
        *set = idx.to_set();
        added
    }),
];

/// The two merge implementations.
const MERGES: [(&str, Merge); 2] = [
    ("reference", reference::merge_with_subsumption),
    ("indexed", merge_with_subsumption),
];

/// The two subsumption-reduction implementations.
const REDUCES: [(&str, Reduce); 2] = [
    ("reference", reference::reduce_subsumed),
    ("indexed", ClauseSet::reduce_subsumed),
];

/// Interleaves state-mutating primitives with repeated `genmask` calls:
/// every repeat must equal the first (memoized) answer, a cache-cleared
/// recomputation, and the semantic `Dep` of the state.
#[test]
fn genmask_cache_survives_interleaved_mutations() {
    let _guard = lock_caches();
    let mut rng = Rng::new(0xCAC1);
    let alg = BluClausal::new().with_genmask(GenmaskStrategy::PaperExhaustive);
    let mut state = testgen::clause_set(&mut rng, N_ATOMS, 4, 3);
    for step in 0..24 {
        let operand = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        // Mutating primitive: alternates assert/combine, each of which
        // reports a state change to the cache registry.
        state = if step % 2 == 0 {
            alg.op_assert(&state, &operand)
        } else {
            alg.op_combine(&state, &operand)
        };
        let first = alg.op_genmask(&state);
        let repeated = alg.op_genmask(&state);
        assert_eq!(first, repeated, "step {step}: memoized repeat diverged");
        cache::clear_all();
        let cold = alg.op_genmask(&state);
        assert_eq!(
            first, cold,
            "step {step}: cached answer != cache-cleared answer"
        );
        let dep = WorldSet::from_clauses(N_ATOMS, &state).dep();
        assert_eq!(
            first.into_iter().collect::<Vec<_>>(),
            dep,
            "step {step}: cached answer != semantic Dep"
        );
    }
}

/// Same metamorphic shape for `Inset[Φ]`: repeated calls and
/// cache-cleared calls must agree, across a stream of distinct formulas
/// that churns the bounded cache.
#[test]
fn inset_cache_answers_stay_fresh() {
    let _guard = lock_caches();
    let mut rng = Rng::new(0xCAC2);
    for case in 0..48 {
        let w = testgen::wff(&mut rng, N_ATOMS, 2);
        let first = inset(&w, N_ATOMS);
        let repeated = inset(&w, N_ATOMS);
        assert_eq!(first, repeated, "case {case}: memoized repeat diverged");
        cache::clear_all();
        let cold = inset(&w, N_ATOMS);
        assert_eq!(first, cold, "case {case}: cached != cache-cleared");
    }
}

/// The genmask memo actually memoizes: a repeated call on the same state
/// registers as a hit, and a mutating primitive run between the calls
/// does not disturb it.
#[test]
fn cache_stats_reflect_hits_and_state_changes() {
    let _guard = lock_caches();
    cache::clear_all();
    let alg = BluClausal::new();
    let mut rng = Rng::new(0xCAC3);
    let x = testgen::clause_set(&mut rng, N_ATOMS, 4, 3);
    let y = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
    let _ = alg.op_assert(&x, &y); // state mutation
    let _ = alg.op_genmask(&x); // miss
    let _ = alg.op_genmask(&x); // hit
    let stats = cache::all_stats();
    let genmask = stats
        .iter()
        .find(|s| s.name == "blu.cache.genmask")
        .expect("genmask cache registered");
    assert!(genmask.entries >= 1, "memo holds the computed entry");
    assert!(genmask.hits >= 1, "repeat call must hit the memo");
}

/// `reduce_subsumed` is idempotent in both implementations: a second
/// sweep over an already-reduced set drops nothing and changes nothing,
/// even when the first sweep ran through indexed insertion.
#[test]
fn reduce_subsumed_is_idempotent() {
    let mut rng = Rng::new(0xCAC4);
    for case in 0..48 {
        let original = testgen::clause_set(&mut rng, N_ATOMS, 8, 4);
        for (imp, reduce) in REDUCES {
            let mut s = original.clone();
            reduce(&mut s);
            let reduced = s.clone();
            let dropped_again = reduce(&mut s);
            assert_eq!(dropped_again, 0, "case {case} {imp}: second sweep dropped");
            assert_eq!(
                s, reduced,
                "case {case} {imp}: second sweep changed the set"
            );
        }
    }
}

/// Pins the insert contract on duplicates: a clause equal to an existing
/// member is *not* added (the pre-fix scan reported it "added" because a
/// clause subsumes itself, short-circuiting the forward check without
/// membership ever being consulted).
#[test]
fn insert_duplicate_reports_not_added() {
    let base = set(&[&[(0, true), (1, true)], &[(2, false)]]);
    for (imp, insert) in INSERTS {
        let mut s = base.clone();
        let added = insert(&mut s, clause(&[(0, true), (1, true)]));
        assert!(!added, "{imp}: duplicate insert must report not-added");
        assert_eq!(s, base, "{imp}: duplicate insert must not change the set");
    }
}

/// Pins the insert contract on proper subsumption in both directions.
#[test]
fn insert_subsumption_counts_are_pinned() {
    let base = set(&[&[(0, true), (1, true)], &[(2, false)]]);
    for (imp, insert) in INSERTS {
        // A strictly weaker clause is absorbed: not added, set intact.
        let mut s = base.clone();
        let added = insert(&mut s, clause(&[(0, true), (1, true), (3, true)]));
        assert!(!added, "{imp}: subsumed insert must report not-added");
        assert_eq!(s, base);

        // A strictly stronger clause replaces its victims.
        let mut s = base.clone();
        let added = insert(&mut s, clause(&[(0, true)]));
        assert!(added, "{imp}: subsuming insert must report added");
        assert_eq!(s, set(&[&[(0, true)], &[(2, false)]]));
    }
}

/// Pins the merge counts on duplicate and mutually-subsuming inputs.
#[test]
fn merge_counts_are_pinned() {
    let base = set(&[&[(0, true), (1, true)], &[(2, false)]]);
    for (imp, merge) in MERGES {
        // Merging a set into itself adds nothing.
        let mut s = base.clone();
        let added = merge(&mut s, &base.clone());
        assert_eq!(added, 0, "{imp}: self-merge must add 0");
        assert_eq!(s, base);

        // Mutually-subsuming inputs: one incoming clause strengthens a
        // member, the other is absorbed by one.
        let mut s = base.clone();
        let other = set(&[&[(0, true)], &[(2, false), (3, false)]]);
        let added = merge(&mut s, &other);
        assert_eq!(added, 1, "{imp}: exactly the strengthening clause is added");
        assert_eq!(s, set(&[&[(0, true)], &[(2, false)]]));
    }
}
