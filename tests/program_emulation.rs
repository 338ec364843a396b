//! Program-level emulation: whole random BLU *programs* — not just
//! single operators — run in BLU-C and BLU-I produce states related by
//! `e_CI`. This is the homomorphism property of Definition 2.3.1 at full
//! strength: because `e_CI` respects every operator, it respects every
//! term built from them, which these tests confirm directly on deep
//! random terms with shared subexpressions.
//!
//! Seeded deterministic loops stand in for the old proptest strategies.

use pwdb::blu::{
    clause_state_to_worlds, eval_sterm, BluClausal, BluInstance, Env, GenmaskStrategy, Optimizer,
    STerm,
};
use pwdb::logic::{cnf_of, AtomId, ClauseSet, Rng, Wff};
use pwdb::worlds::WorldSet;
use pwdb_suite::testgen;

const N: usize = 4;
const CASES: usize = 128;

fn arb_wff(rng: &mut Rng, depth: usize) -> Wff {
    testgen::wff(rng, N, depth)
}

fn arb_sterm(rng: &mut Rng) -> STerm {
    testgen::sterm(rng, 5, &["m0"])
}

fn arb_mask_atoms(rng: &mut Rng) -> Vec<u32> {
    (0..rng.range_usize(0, 3))
        .map(|_| rng.below(N as u64) as u32)
        .collect()
}

fn run_both(term: &STerm, wffs: &[Wff; 3], mask_atoms: &[u32]) -> (ClauseSet, WorldSet) {
    let names = ["s0", "s1", "s2"];
    let mask: std::collections::BTreeSet<AtomId> = mask_atoms.iter().map(|&a| AtomId(a)).collect();

    let clausal = BluClausal::paper_exact();
    let mut cenv: Env<BluClausal> = Env::new();
    for (name, w) in names.iter().zip(wffs) {
        cenv.bind_state(name, cnf_of(w));
    }
    cenv.bind_mask("m0", mask.clone());
    let c_out = eval_sterm(&clausal, term, &cenv).expect("bound");

    let instance = BluInstance::new(N);
    let mut ienv: Env<BluInstance> = Env::new();
    for (name, w) in names.iter().zip(wffs) {
        ienv.bind_state(name, WorldSet::from_wff(N, w));
    }
    ienv.bind_mask("m0", mask);
    let i_out = eval_sterm(&instance, term, &ienv).expect("bound");

    (c_out, i_out)
}

/// The full homomorphism: e_CI(run_C(program)) = run_I(program) for
/// deep random programs.
#[test]
fn whole_programs_emulate() {
    let mut rng = Rng::new(0x9E01);
    for _ in 0..CASES {
        let term = arb_sterm(&mut rng);
        let wffs = [
            arb_wff(&mut rng, 2),
            arb_wff(&mut rng, 2),
            arb_wff(&mut rng, 1),
        ];
        let mask_atoms = arb_mask_atoms(&mut rng);
        let (c_out, i_out) = run_both(&term, &wffs, &mask_atoms);
        assert_eq!(
            clause_state_to_worlds(N, &c_out),
            i_out,
            "program {term} diverged"
        );
    }
}

/// Optimized programs agree with unoptimized ones across BOTH algebras —
/// the optimizer's soundness composed with the emulation.
#[test]
fn optimized_programs_emulate_too() {
    let mut rng = Rng::new(0x9E02);
    for _ in 0..CASES {
        let term = arb_sterm(&mut rng);
        let wffs = [
            arb_wff(&mut rng, 2),
            arb_wff(&mut rng, 1),
            arb_wff(&mut rng, 1),
        ];
        let mask_atoms = arb_mask_atoms(&mut rng);
        let (optimized, _) = Optimizer::new().optimize_term(&term);
        let (_, i_raw) = run_both(&term, &wffs, &mask_atoms);
        let (c_opt, i_opt) = run_both(&optimized, &wffs, &mask_atoms);
        assert_eq!(&i_raw, &i_opt, "optimizer changed meaning of {term}");
        assert_eq!(clause_state_to_worlds(N, &c_opt), i_raw);
    }
}

/// The reduced (subsumption) and SAT-genmask clausal algebra agrees
/// with the paper-exact one on whole programs, world-for-world.
#[test]
fn algebra_variants_agree_on_programs() {
    let mut rng = Rng::new(0x9E03);
    for _ in 0..CASES {
        let term = arb_sterm(&mut rng);
        let wffs = [
            arb_wff(&mut rng, 2),
            arb_wff(&mut rng, 1),
            arb_wff(&mut rng, 1),
        ];
        let names = ["s0", "s1", "s2"];

        let exact = BluClausal::paper_exact();
        let tuned = BluClausal::new().with_genmask(GenmaskStrategy::SatBased);
        let mut env_a: Env<BluClausal> = Env::new();
        let mut env_b: Env<BluClausal> = Env::new();
        for (name, w) in names.iter().zip(&wffs) {
            env_a.bind_state(name, cnf_of(w));
            env_b.bind_state(name, cnf_of(w));
        }
        env_a.bind_mask("m0", [AtomId(0)].into_iter().collect());
        env_b.bind_mask("m0", [AtomId(0)].into_iter().collect());
        let a = eval_sterm(&exact, &term, &env_a).expect("bound");
        let b = eval_sterm(&tuned, &term, &env_b).expect("bound");
        assert_eq!(
            clause_state_to_worlds(N, &a),
            clause_state_to_worlds(N, &b),
            "variants diverged on {term}"
        );
    }
}
