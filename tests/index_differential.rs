//! Differential oracle: the indexed clausal engine must be observably
//! identical to the paper-direct algorithms kept in
//! `pwdb::logic::reference`.
//!
//! Every comparison calls a `reference::` algorithm (full-set scans,
//! round-based closures, no memo) and its production twin (literal-
//! occurrence lists, signature filters, semi-naive worklists, memoized
//! closures) on the same input and asserts bit-identical results. The
//! whole-stack cases — all BLU-C primitives under the reduced algebra,
//! full HLU scripts, the emulation squares of Theorems 2.3.4/2.3.6/2.3.9
//! — run once against their semantic oracles (the possible-worlds
//! backend, `check_states`) and feed every clause set they produce
//! through the same engine-vs-reference comparison.

use std::collections::BTreeSet;
use std::fmt::Debug;

use pwdb::blu::{check_states, BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::hlu::{ClausalDatabase, HluProgram, InstanceDatabase};
use pwdb::logic::resolution::{drop_atoms, rclosure_on_atom, saturate};
use pwdb::logic::subsumption::merge_with_subsumption;
use pwdb::logic::{
    cache, govern, governor, prime_implicates, reference, AtomId, Budget, Clause, ClauseSet,
    ExecError, IndexedClauseSet, Limits, Literal, Resource, Rng,
};
use pwdb::worlds::{inset, WorldSet};
use pwdb_suite::testgen;

const N_ATOMS: usize = 5;

/// Asserts that the reference result and the engine result agree.
fn run_both<T: PartialEq + Debug>(ctx: &str, reference: T, indexed: T) {
    assert_eq!(
        reference, indexed,
        "engine diverged from reference on {ctx}"
    );
}

/// Runs a mutating operation on a copy of `set`, returning the resulting
/// set and the operation's count or flag.
fn on_copy<T>(set: &ClauseSet, op: impl FnOnce(&mut ClauseSet) -> T) -> (ClauseSet, T) {
    let mut s = set.clone();
    let out = op(&mut s);
    (s, out)
}

/// A single insert through the literal-occurrence index — the insert
/// that `merge_with_subsumption` and `reduce_subsumed` are built on.
fn indexed_insert(set: &mut ClauseSet, clause: Clause) -> bool {
    let mut idx = IndexedClauseSet::from_set(set);
    let added = idx.insert_with_subsumption(clause);
    *set = idx.to_set();
    added
}

/// The four engine entry points agree bit-for-bit with their reference
/// twins on `set`: subsumption reduction (result and drop count), merging
/// `other` in (result and added count), saturation, and prime implicates.
fn engine_agrees(ctx: &str, set: &ClauseSet, other: &ClauseSet) {
    run_both(
        &format!("reduce_subsumed {ctx}"),
        on_copy(set, reference::reduce_subsumed),
        on_copy(set, ClauseSet::reduce_subsumed),
    );
    run_both(
        &format!("merge_with_subsumption {ctx}"),
        on_copy(set, |s| reference::merge_with_subsumption(s, other)),
        on_copy(set, |s| merge_with_subsumption(s, other)),
    );
    run_both(
        &format!("saturate {ctx}"),
        reference::saturate(set),
        saturate(set),
    );
    run_both(
        &format!("prime_implicates {ctx}"),
        reference::prime_implicates(set),
        prime_implicates(set),
    );
}

/// Raw engine operations: the four entry points plus a single insert
/// (result and return flag) through the index.
#[test]
fn raw_operations_agree() {
    let mut rng = Rng::new(0xD1F1);
    for case in 0..64 {
        let a = testgen::clause_set(&mut rng, N_ATOMS, 8, 4);
        let b = testgen::clause_set(&mut rng, N_ATOMS, 5, 3);
        let c = testgen::clause(&mut rng, N_ATOMS, 4);

        engine_agrees(&format!("#{case}"), &a, &b);
        run_both(
            &format!("insert_with_subsumption #{case}"),
            on_copy(&a, |s| reference::insert_with_subsumption(s, c.clone())),
            on_copy(&a, |s| indexed_insert(s, c.clone())),
        );
    }
}

/// All five BLU-C primitives under the optimized (reduced) algebra: the
/// operands, the reduced outputs and the paper-exact outputs (the sets
/// the reduced algebra sweeps) all go through the engine comparison, and
/// both genmask strategies must compute the semantic `Dep` of the state.
#[test]
fn blu_primitives_agree() {
    let mut rng = Rng::new(0xD1F2);
    for case in 0..48 {
        let x = testgen::clause_set(&mut rng, N_ATOMS, 5, 4);
        let y = testgen::clause_set(&mut rng, N_ATOMS, 4, 3);
        let m = testgen::mask(&mut rng, N_ATOMS, 2);
        engine_agrees(&format!("primitives #{case} operand x"), &x, &y);
        engine_agrees(&format!("primitives #{case} operand y"), &y, &x);
        for (name, alg) in [
            ("reduced", BluClausal::new()),
            ("exact", BluClausal::paper_exact()),
        ] {
            let outputs = [
                ("assert", alg.op_assert(&x, &y)),
                ("combine", alg.op_combine(&x, &y)),
                ("complement", alg.op_complement(&x)),
                ("mask", alg.op_mask(&x, &m)),
            ];
            for (op, out) in &outputs {
                engine_agrees(&format!("primitives #{case} {name} {op}"), out, &x);
            }
        }
        let dep: BTreeSet<AtomId> = WorldSet::from_clauses(N_ATOMS, &y)
            .dep()
            .into_iter()
            .collect();
        for strategy in [GenmaskStrategy::PaperExhaustive, GenmaskStrategy::SatBased] {
            let alg = BluClausal::new().with_genmask(strategy);
            assert_eq!(
                alg.op_genmask(&y),
                dep,
                "primitives #{case} {strategy:?}: genmask != Dep"
            );
        }
    }
}

/// `combine_reduced(x, y)` equals the full product reduced by both the
/// engine and the reference sweep.
fn reduced_combine_agrees_on(ctx: &str, x: &ClauseSet, y: &ClauseSet) {
    let product = BluClausal::combine_clauses(x, y);
    let kernel = BluClausal::combine_reduced(x, y);
    run_both(
        &format!("combine_reduced {ctx} vs engine"),
        on_copy(&product, ClauseSet::reduce_subsumed).0,
        kernel.clone(),
    );
    run_both(
        &format!("combine_reduced {ctx} vs reference"),
        on_copy(&product, reference::reduce_subsumed).0,
        kernel,
    );
}

/// The reduced algebra's `combine` kernel on operands that share clauses
/// or subsume each other's clauses — the collapse path, which
/// independently drawn operands almost never reach: branch pairs
/// `base ∪ d₁` / `base ∪ d₂`, a strict subset of one side's clause put on
/// the other side, raw tautological members, and `x = y`, `∅`, `{□}`.
/// A governed call on two large operands with nothing to collapse still
/// trips a tight step budget.
#[test]
fn reduced_combine_agrees() {
    let mut rng = Rng::new(0xD1F6);
    let empty = ClauseSet::new();
    let contradiction = ClauseSet::contradiction();
    let mut shared_cases = 0;
    for case in 0..64 {
        let base = testgen::clause_set(&mut rng, N_ATOMS, 6, 4);
        let d1 = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        let d2 = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        let mut x = BluClausal::assert_clauses(&base, &d1);
        let mut y = BluClausal::assert_clauses(&base, &d2);
        if case % 2 == 0 {
            // A strict subset on one side of a clause on the other side.
            if let Some(c) = x.iter().find(|c| c.len() >= 2).cloned() {
                y.insert(c.without(c.literals()[0]));
            }
        }
        if case % 4 == 1 {
            let a = AtomId(rng.below(N_ATOMS as u64) as u32);
            let b = AtomId(rng.below(N_ATOMS as u64) as u32);
            let tautology = Clause::new(vec![Literal::pos(a), Literal::neg(a), Literal::pos(b)]);
            if case % 8 == 1 {
                x.insert_raw(tautology);
            } else {
                y.insert_raw(tautology);
            }
        }
        if x.iter().any(|c| y.contains(c)) {
            shared_cases += 1;
        }
        let ctx = format!("#{case}");
        reduced_combine_agrees_on(&ctx, &x, &y);
        reduced_combine_agrees_on(&format!("{ctx} swapped"), &y, &x);
        reduced_combine_agrees_on(&format!("{ctx} x = x"), &x, &x);
        for (name, other) in [("empty", &empty), ("contradiction", &contradiction)] {
            reduced_combine_agrees_on(&format!("{ctx} x, {name}"), &x, other);
            reduced_combine_agrees_on(&format!("{ctx} {name}, x"), other, &x);
        }
    }
    assert!(
        shared_cases >= 32,
        "only {shared_cases} cases shared a clause"
    );

    // Operands over disjoint atoms: no clause of one side subsumes one of
    // the other, so every pair is formed and charged (7 steps for two
    // width-3 clauses), and a budget of one step per pair trips.
    let side = |first: u32| -> ClauseSet {
        (0..40u32)
            .map(|i| {
                Clause::new(
                    [0, 1, 3]
                        .iter()
                        .enumerate()
                        .map(|(k, d)| {
                            Literal::new(AtomId(first + (i + d) % 8), (i / 8) >> k & 1 == 0)
                        })
                        .collect(),
                )
            })
            .collect()
    };
    let (x, y) = (side(0), side(8));
    let pairs = (x.len() * y.len()) as u64;
    assert_eq!(pairs, 1600);
    govern(&Limits::unlimited(), || BluClausal::combine_reduced(&x, &y)).expect("unlimited");
    assert!(
        governor::last_spent() >= 7 * pairs,
        "{} steps charged for {pairs} pairs",
        governor::last_spent()
    );
    let limits = Limits::budget(Budget::steps(pairs));
    match govern(&limits, || BluClausal::combine_reduced(&x, &y)) {
        Err(ExecError::BudgetExceeded {
            resource: Resource::Steps,
            ..
        }) => {}
        other => panic!("expected BudgetExceeded(Steps), got {other:?}"),
    }
}

/// The fused `mask_step` equals the paper's Algorithm 2.3.5 step,
/// `drop({A}, rclosure_on_atom(Φ, A))`, bit for bit — on sets with raw
/// tautological members too, which `drop` discards.
#[test]
fn fused_mask_step_agrees() {
    let mut rng = Rng::new(0xD1F7);
    for case in 0..64 {
        let mut phi = testgen::clause_set(&mut rng, N_ATOMS, 8, 4);
        for _ in 0..rng.range_usize(0, 3) {
            let a = AtomId(rng.below(N_ATOMS as u64) as u32);
            let b = AtomId(rng.below(N_ATOMS as u64) as u32);
            phi.insert_raw(Clause::new(vec![
                Literal::pos(a),
                Literal::neg(a),
                Literal::neg(b),
            ]));
        }
        for atom in (0..N_ATOMS as u32).map(AtomId) {
            run_both(
                &format!("mask_step #{case} on {atom:?}"),
                drop_atoms(&rclosure_on_atom(&phi, atom), &BTreeSet::from([atom])),
                BluClausal::mask_step(&phi, atom),
            );
        }
    }
}

/// Full HLU scripts on the reduced clausal backend: the clause state and
/// the query answers after every statement must match the instance-level
/// backend (the Theorem 3.1.4 soundness oracle), and every state goes
/// through the engine comparison.
#[test]
fn hlu_scripts_agree() {
    let mut rng = Rng::new(0xD1F3);
    for case in 0..48 {
        let script: Vec<HluProgram> = (0..rng.range_usize(1, 5))
            .map(|_| testgen::hlu_program(&mut rng, N_ATOMS))
            .collect();
        let queries: Vec<_> = (0..3).map(|_| testgen::wff(&mut rng, N_ATOMS, 2)).collect();

        let mut db = ClausalDatabase::new();
        let mut instance = InstanceDatabase::with_atoms(N_ATOMS);
        for (i, prog) in script.iter().enumerate() {
            let before = db.state().clone();
            db.run(prog);
            if i % 2 == 1 {
                db.normalize();
            }
            instance.run(prog);
            assert_eq!(
                &WorldSet::from_clauses(N_ATOMS, db.state()),
                instance.state(),
                "case {case}: clausal state diverged from world semantics after {prog}"
            );
            for q in &queries {
                assert_eq!(
                    (db.is_certain(q), db.is_possible(q)),
                    (instance.is_certain(q), instance.is_possible(q)),
                    "case {case}: answers to {q} diverged after {prog}"
                );
            }
            engine_agrees(&format!("hlu script #{case} step {i}"), db.state(), &before);
        }
    }
}

/// `Inset[Φ]` (Definition 1.4.4): the memoized path — a first call and a
/// repeat the memo answers — enumerates the same complete literal sets as
/// a call on cleared caches.
#[test]
fn inset_agrees() {
    let mut rng = Rng::new(0xD1F4);
    for case in 0..64 {
        let w = testgen::wff(&mut rng, N_ATOMS, 2);
        let memoized = (inset(&w, N_ATOMS), inset(&w, N_ATOMS));
        cache::clear_all();
        let cold = inset(&w, N_ATOMS);
        run_both(&format!("inset #{case}"), (cold.clone(), cold), memoized);
    }
}

/// The emulation squares of Theorems 2.3.4, 2.3.6, and 2.3.9 hold: every
/// BLU-C operator of the reduced algebra commutes with `e_CI` into BLU-I.
#[test]
fn emulation_theorems_hold_under_both_engines() {
    let mut rng = Rng::new(0xD1F5);
    for case in 0..32 {
        let x = testgen::clause_set(&mut rng, N_ATOMS, 4, 4);
        let y = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        let extra: BTreeSet<_> = testgen::mask(&mut rng, N_ATOMS, 2);
        let alg = BluClausal::new();
        let report = check_states(&alg, N_ATOMS, &x, &y, &extra);
        assert!(report.all_ok(), "case {case}: {:?}", report.failures);
    }
}

/// Empty and degenerate inputs take the indexed fast paths; make sure
/// they agree with the reference on them too.
#[test]
fn degenerate_inputs_agree() {
    let empty = ClauseSet::new();
    let contradiction: ClauseSet = [Clause::empty()].into_iter().collect();
    for (name, set) in [("empty", &empty), ("contradiction", &contradiction)] {
        engine_agrees(name, set, set);
    }
}

/// Atom ids for the flat-index cases: dense low ids, the 64-atom word
/// boundary and far sparse ids, so occurrence vectors indexed by literal
/// code must grow on demand.
const SPARSE_ATOMS: [u32; 8] = [0, 1, 2, 5, 63, 64, 200, 1000];

/// A clause over `SPARSE_ATOMS` with `len` literals drawn at random
/// (duplicates merge, complementary pairs stay: tautologies included).
fn sparse_clause(rng: &mut Rng, len: usize) -> Clause {
    let lits = (0..len)
        .map(|_| {
            Literal::new(
                AtomId(SPARSE_ATOMS[rng.index(SPARSE_ATOMS.len())]),
                rng.coin(),
            )
        })
        .collect();
    Clause::new(lits)
}

/// `ClauseSet::reduce_subsumed`'s sweep over first-literal buckets equals
/// the all-pairs reference bit for bit — result and drop count — on
/// random sets with raw tautologies, `□`, runs of equal-length clauses
/// and sparse atom ids.
#[test]
fn reduce_sweep_agrees_on_sparse_sets() {
    let mut rng = Rng::new(0x5EED_F1A7);
    let mut dropped_somewhere = 0;
    for case in 0..256 {
        let mut set = ClauseSet::new();
        let n = rng.range_usize(0, 40);
        // A quarter of the cases use one clause length throughout.
        let fixed_len = (case % 4 == 0).then(|| rng.range_usize(1, 5));
        for _ in 0..n {
            let len = fixed_len.unwrap_or_else(|| rng.range_usize(1, 6));
            set.insert_raw(sparse_clause(&mut rng, len));
        }
        if case % 16 == 5 {
            set.insert_raw(Clause::empty());
        }
        let (reference_set, reference_dropped) = on_copy(&set, reference::reduce_subsumed);
        let engine = on_copy(&set, ClauseSet::reduce_subsumed);
        run_both(
            &format!("reduce_subsumed sparse #{case}"),
            (reference_set, reference_dropped),
            engine,
        );
        dropped_somewhere += usize::from(reference_dropped > 0);
    }
    assert!(dropped_somewhere >= 64, "too few cases drop anything");
}

/// A naive model of `IndexedClauseSet`: slots in insertion order, `None`
/// once a member is removed, every question answered by a scan.
#[derive(Default)]
struct NaiveIndex {
    slots: Vec<Option<Clause>>,
}

impl NaiveIndex {
    fn live(&self) -> impl Iterator<Item = (u32, &Clause)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i as u32, c)))
    }

    fn slot_of(&self, clause: &Clause) -> Option<u32> {
        self.live().find(|(_, c)| *c == clause).map(|(i, _)| i)
    }

    fn insert_raw(&mut self, clause: Clause) -> Option<u32> {
        if self.slot_of(&clause).is_some() {
            return None;
        }
        self.slots.push(Some(clause));
        Some(self.slots.len() as u32 - 1)
    }

    fn insert_with_subsumption(&mut self, clause: Clause) -> bool {
        if clause.is_tautology()
            || self.slot_of(&clause).is_some()
            || self.live().any(|(_, c)| c.subsumes(&clause))
        {
            return false;
        }
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|c| clause.subsumes(c)) {
                *slot = None;
            }
        }
        self.slots.push(Some(clause));
        true
    }

    fn partners(&self, lit: Literal) -> Vec<u32> {
        self.live()
            .filter(|(_, c)| c.contains(lit))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Compares every observable of the index with the model.
fn index_matches_model(ctx: &str, idx: &IndexedClauseSet, model: &NaiveIndex, probes: &[Clause]) {
    let live: Vec<(u32, Clause)> = model.live().map(|(i, c)| (i, c.clone())).collect();
    assert_eq!(idx.len(), live.len(), "{ctx}: len");
    assert_eq!(
        idx.live_slots(),
        live.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        "{ctx}: live slots"
    );
    assert!(
        idx.iter().eq(live.iter().map(|(_, c)| c)),
        "{ctx}: members in slot order"
    );
    assert_eq!(
        idx.has_empty_clause(),
        live.iter().any(|(_, c)| c.is_empty()),
        "{ctx}: □"
    );
    for c in probes.iter().chain(live.iter().map(|(_, c)| c)) {
        assert_eq!(
            idx.contains(c),
            model.slot_of(c).is_some(),
            "{ctx}: contains {c}"
        );
        assert_eq!(idx.slot_of(c), model.slot_of(c), "{ctx}: slot_of {c}");
    }
    for &a in &SPARSE_ATOMS {
        for lit in [Literal::pos(AtomId(a)), Literal::neg(AtomId(a))] {
            assert_eq!(
                idx.partners(lit),
                model.partners(lit),
                "{ctx}: partners {lit}"
            );
        }
    }
}

/// Random `IndexedClauseSet` operation sequences match the naive model
/// after every operation: `insert_raw`, `insert_with_subsumption`,
/// `contains`, `slot_of`, `partners`. Each case opens with 100 clauses
/// that one unit then subsumes, so the dead occurrences outnumber the
/// live ones and the occurrence lists are compacted; removals continue
/// through the random tail.
#[test]
fn indexed_set_operations_match_naive_model() {
    let mut rng = Rng::new(0x1DE5_0CC5);
    for case in 0..24 {
        let mut idx = IndexedClauseSet::new();
        let mut model = NaiveIndex::default();
        let pivot = Literal::new(
            AtomId(SPARSE_ATOMS[rng.index(SPARSE_ATOMS.len())]),
            rng.coin(),
        );
        let mut added = 0;
        while added < 100 {
            let c = Clause::new(
                std::iter::once(pivot)
                    .chain(sparse_clause(&mut rng, 3).literals().iter().copied())
                    .collect(),
            );
            let slot = model.insert_raw(c.clone());
            assert_eq!(idx.insert_raw(c), slot, "case {case}: prefix insert_raw");
            added += usize::from(slot.is_some());
        }
        let unit = Clause::unit(pivot);
        assert_eq!(
            idx.insert_with_subsumption(unit.clone()),
            model.insert_with_subsumption(unit),
            "case {case}: pivot unit"
        );
        index_matches_model(&format!("case {case} after pivot"), &idx, &model, &[]);

        for step in 0..300 {
            let ctx = format!("case {case} step {step}");
            let c = match rng.index(10) {
                0 => Clause::empty(),
                k => sparse_clause(&mut rng, 1 + k % 5),
            };
            if rng.index(4) == 0 && !c.is_empty() {
                assert_eq!(
                    idx.insert_raw(c.clone()),
                    model.insert_raw(c.clone()),
                    "{ctx}: raw"
                );
            } else if !c.is_empty() || rng.index(8) == 0 {
                assert_eq!(
                    idx.insert_with_subsumption(c.clone()),
                    model.insert_with_subsumption(c.clone()),
                    "{ctx}: insert_with_subsumption {c}"
                );
            }
            if step % 10 == 9 {
                let probes: Vec<Clause> = (0..8)
                    .map(|i| sparse_clause(&mut rng, 1 + i % 4))
                    .chain([c, Clause::empty()])
                    .collect();
                index_matches_model(&ctx, &idx, &model, &probes);
            }
        }
        assert_eq!(idx.to_set(), {
            let mut s = ClauseSet::new();
            for (_, c) in model.live() {
                s.insert_raw(c.clone());
            }
            s
        });
    }
}
