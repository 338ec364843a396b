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
            ("reduced", BluClausal::new().with_reduction(true)),
            ("exact", BluClausal::new()),
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
            let alg = BluClausal::new()
                .with_reduction(true)
                .with_genmask(strategy);
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

        let mut db = ClausalDatabase::new_reduced();
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
        let alg = BluClausal::new().with_reduction(true);
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
