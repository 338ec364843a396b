//! Property-based verification of the emulation theorems (2.3.4(a),
//! 2.3.6(a), 2.3.9(a)): for randomly generated clause-set states, every
//! BLU-C operator commutes with `e_CI` into BLU-I — for the paper-exact
//! algebra and for the optimized variants.
//!
//! Seeded deterministic loops stand in for the old proptest strategies.

use std::collections::BTreeSet;

use pwdb::blu::{
    check_states, clause_state_to_worlds, BluClausal, BluInstance, BluSemantics, GenmaskStrategy,
};
use pwdb::logic::{AtomId, ClauseSet, Rng};
use pwdb::worlds::WorldSet;
use pwdb_suite::testgen;

const N_ATOMS: usize = 5;
const CASES: usize = 128;

fn arb_clause_set(rng: &mut Rng, max_clauses: usize) -> ClauseSet {
    testgen::clause_set(rng, N_ATOMS, max_clauses, 4)
}

fn arb_mask(rng: &mut Rng) -> BTreeSet<AtomId> {
    testgen::mask(rng, N_ATOMS, 2)
}

#[test]
fn paper_exact_algebra_emulates() {
    let mut rng = Rng::new(0xE301);
    for _ in 0..CASES {
        let x = arb_clause_set(&mut rng, 4);
        let y = arb_clause_set(&mut rng, 3);
        let extra = arb_mask(&mut rng);
        let report = check_states(&BluClausal::paper_exact(), N_ATOMS, &x, &y, &extra);
        assert!(report.all_ok(), "failures: {:?}", report.failures);
    }
}

#[test]
fn optimized_algebra_emulates() {
    let mut rng = Rng::new(0xE302);
    for _ in 0..CASES {
        let x = arb_clause_set(&mut rng, 4);
        let y = arb_clause_set(&mut rng, 3);
        let extra = arb_mask(&mut rng);
        let alg = BluClausal::new().with_genmask(GenmaskStrategy::SatBased);
        let report = check_states(&alg, N_ATOMS, &x, &y, &extra);
        assert!(report.all_ok(), "failures: {:?}", report.failures);
    }
}

#[test]
fn genmask_strategies_agree() {
    let mut rng = Rng::new(0xE303);
    for _ in 0..CASES {
        let phi = arb_clause_set(&mut rng, 5);
        assert_eq!(
            BluClausal::genmask_paper(&phi),
            BluClausal::genmask_sat(&phi),
            "strategies diverged on {phi}"
        );
    }
}

#[test]
fn genmask_equals_semantic_dep() {
    let mut rng = Rng::new(0xE304);
    for _ in 0..CASES {
        let phi = arb_clause_set(&mut rng, 5);
        let semantic: BTreeSet<AtomId> = WorldSet::from_clauses(N_ATOMS, &phi)
            .dep()
            .into_iter()
            .collect();
        assert_eq!(BluClausal::genmask_paper(&phi), semantic);
    }
}

#[test]
fn mask_is_resolution_forgetting() {
    let mut rng = Rng::new(0xE305);
    for _ in 0..CASES {
        let phi = arb_clause_set(&mut rng, 5);
        let m = arb_mask(&mut rng);
        let alg = BluClausal::paper_exact();
        let clausal = clause_state_to_worlds(N_ATOMS, &alg.op_mask(&phi, &m));
        let atoms: Vec<AtomId> = m.iter().copied().collect();
        let semantic = WorldSet::from_clauses(N_ATOMS, &phi).saturate_all(&atoms);
        assert_eq!(clausal, semantic);
    }
}

#[test]
fn complement_is_involutive_semantically() {
    let mut rng = Rng::new(0xE306);
    for _ in 0..CASES {
        let phi = arb_clause_set(&mut rng, 4);
        let alg = BluClausal::paper_exact();
        let twice = alg.op_complement(&alg.op_complement(&phi));
        assert_eq!(
            clause_state_to_worlds(N_ATOMS, &twice),
            clause_state_to_worlds(N_ATOMS, &phi)
        );
    }
}

#[test]
fn boolean_algebra_laws_at_instance_level() {
    let mut rng = Rng::new(0xE307);
    for _ in 0..CASES {
        let x = arb_clause_set(&mut rng, 3);
        let y = arb_clause_set(&mut rng, 3);
        let z = arb_clause_set(&mut rng, 3);
        let inst = BluInstance::new(N_ATOMS);
        let ex = clause_state_to_worlds(N_ATOMS, &x);
        let ey = clause_state_to_worlds(N_ATOMS, &y);
        let ez = clause_state_to_worlds(N_ATOMS, &z);
        // Distributivity: x ∩ (y ∪ z) = (x ∩ y) ∪ (x ∩ z).
        assert_eq!(
            inst.op_assert(&ex, &inst.op_combine(&ey, &ez)),
            inst.op_combine(&inst.op_assert(&ex, &ey), &inst.op_assert(&ex, &ez))
        );
        // De Morgan: ¬(x ∪ y) = ¬x ∩ ¬y.
        assert_eq!(
            inst.op_complement(&inst.op_combine(&ex, &ey)),
            inst.op_assert(&inst.op_complement(&ex), &inst.op_complement(&ey))
        );
        // Double complement.
        assert_eq!(inst.op_complement(&inst.op_complement(&ex)), ex);
    }
}

#[test]
fn mask_is_idempotent_and_monotone() {
    let mut rng = Rng::new(0xE308);
    for _ in 0..CASES {
        let phi = arb_clause_set(&mut rng, 4);
        let m = arb_mask(&mut rng);
        let inst = BluInstance::new(N_ATOMS);
        let ex = clause_state_to_worlds(N_ATOMS, &phi);
        let once = inst.op_mask(&ex, &m);
        // Idempotent.
        assert_eq!(inst.op_mask(&once, &m), once.clone());
        // Extensive: masking only adds worlds.
        assert!(ex.is_subset(&once));
        // The result no longer depends on the masked atoms.
        for a in &m {
            assert!(once.independent_of(*a));
        }
    }
}

/// Surjectivity of `e_CI[S]` (Definition 2.3.1 requires the emulation
/// maps to be surjective): every world set is `Mod` of its
/// axiomatization.
#[test]
fn e_ci_state_map_is_surjective() {
    let mut rng = Rng::new(0xE309);
    for _ in 0..CASES {
        let bits = testgen::world_bits(&mut rng, N_ATOMS, 12);
        let mut target = WorldSet::empty(N_ATOMS);
        for b in bits {
            target.insert(pwdb::worlds::World::from_bits(b, N_ATOMS));
        }
        let phi = pwdb::worlds::axiomatize(&target);
        assert_eq!(clause_state_to_worlds(N_ATOMS, &phi), target);
    }
}

#[test]
fn genmask_of_masked_state_is_disjoint_from_mask() {
    let mut rng = Rng::new(0xE30A);
    for _ in 0..CASES {
        let phi = arb_clause_set(&mut rng, 4);
        let m = arb_mask(&mut rng);
        let inst = BluInstance::new(N_ATOMS);
        let masked = inst.op_mask(&clause_state_to_worlds(N_ATOMS, &phi), &m);
        let dep = inst.op_genmask(&masked);
        assert!(dep.is_disjoint(&m));
    }
}
