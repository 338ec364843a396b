//! The 64-atom edge of the packed-assignment universe.
//!
//! Assignments pack one atom per bit of a `u64`, so 64 atoms is the
//! largest supported universe — and exactly the size where the naive
//! `1u64 << n_atoms` world count would overflow (wrapping to 0 in
//! release builds). These tests pin the public surface at 63, 64, and
//! 65 atoms: counts stay exact through 64 (as `u128`), and 65 fails
//! with a consistent typed `TooManyAtoms` everywhere rather than a
//! panic or a silent wrap. Queries about a knowledge base wider than 64
//! atoms stay exact although the solver's models are truncated to 64.

use pwdb::hlu::ClausalDatabase;
use pwdb::logic::{
    entails, parse_wff, try_count_models, Assignment, AtomId, AtomTable, ClauseSet, Literal,
    LogicError, Rng, Wff, MAX_ATOMS,
};

#[test]
fn world_counts_are_exact_at_63_and_64_atoms() {
    let empty = ClauseSet::new();
    assert_eq!(try_count_models(&empty, 63), Ok(1u128 << 63));
    assert_eq!(try_count_models(&empty, 64), Ok(1u128 << 64));

    let db = ClausalDatabase::new();
    assert_eq!(db.try_world_count(63), Ok(1u128 << 63));
    assert_eq!(db.try_world_count(64), Ok(1u128 << 64));

    // A constraint at the boundary still halves the space exactly.
    let mut atoms = AtomTable::with_indexed_atoms(64);
    let mut db = ClausalDatabase::new();
    db.insert(parse_wff("A64", &mut atoms).unwrap());
    assert_eq!(db.try_world_count(64), Ok(1u128 << 63));
}

#[test]
fn sixty_five_atoms_is_too_many_atoms_everywhere() {
    let expected = LogicError::TooManyAtoms {
        requested: 65,
        max: MAX_ATOMS,
    };
    assert_eq!(
        try_count_models(&ClauseSet::new(), 65),
        Err(expected.clone())
    );
    assert_eq!(
        ClausalDatabase::new().try_world_count(65),
        Err(expected.clone())
    );
    assert_eq!(Assignment::try_from_bits(0, 65).unwrap_err(), expected);
}

#[test]
fn packed_assignments_cover_the_full_64_atom_word() {
    // At n = 64 the validity mask must be all-ones, not `(1 << 64) - 1`
    // (which would overflow): the top bit has to survive the round trip.
    let a = Assignment::try_from_bits(u64::MAX, 64).unwrap();
    assert_eq!(a.bits(), u64::MAX);
    assert_eq!(a.len(), 64);
    let b = Assignment::try_from_bits(1u64 << 63, 63).unwrap();
    assert_eq!(b.bits(), 0, "bits beyond a 63-atom universe are cleared");
}

#[test]
#[should_panic(expected = "use try_count_models")]
fn lossy_u64_count_panics_instead_of_wrapping_at_64_atoms() {
    // 2^64 worlds does not fit the legacy u64 return type; the message
    // points at the checked API instead of wrapping to 0.
    let _ = pwdb::logic::count_models(&ClauseSet::new(), 64);
}

/// A random disjunction or conjunction of 1–3 literals, each atom drawn
/// from `atoms`.
fn literal_formula(rng: &mut Rng, atoms: std::ops::Range<u32>) -> Wff {
    let lits: Vec<Wff> = (0..rng.range_usize(1, 4))
        .map(|_| {
            let a = AtomId(atoms.start + rng.below(u64::from(atoms.end - atoms.start)) as u32);
            Wff::literal(Literal::new(a, rng.coin()))
        })
        .collect();
    if rng.coin() {
        Wff::disj(lits)
    } else {
        Wff::conj(lits)
    }
}

/// A 70-atom knowledge base: the query oracle keeps a model truncated to
/// atoms 0–63, so that model must never decide a query about atoms
/// 64–69. The facts pair atoms 64–66 with atoms 0–2 of the opposite
/// value, so a model read past its 64 bits (where a wrapping shift lands
/// on bit 0) answers them wrongly. The consistency check keeps a model
/// first; every answer about the high atoms must still equal `entails`
/// on the state.
#[test]
fn queries_about_atoms_past_64_agree_with_entails() {
    let mut atoms = AtomTable::with_indexed_atoms(70);
    let mut rng = Rng::new(0x70A7);
    let mut db = ClausalDatabase::new();
    for _ in 0..40 {
        db.insert(literal_formula(&mut rng, 3..70).or(literal_formula(&mut rng, 3..70)));
    }
    let facts = [
        "A65",
        "A66",
        "!A67",
        "!A1",
        "!A2",
        "A3",
        "A68 | A69",
        "A70 -> A4",
    ];
    let mut fixed = Vec::new();
    for text in facts {
        let w = parse_wff(text, &mut atoms).unwrap();
        db.insert(w.clone());
        fixed.push(w.clone());
        fixed.push(w.not());
    }
    assert!(db.is_consistent());
    assert_eq!(db.state().atom_bound(), 70);
    let mut decided_by_high_atoms = 0;
    for round in 0..200 {
        let low = literal_formula(&mut rng, 0..64);
        assert_eq!(
            db.is_possible(&low),
            !entails(db.state(), &low.clone().not())
        );
        let high = match round % 3 {
            0 => fixed[rng.index(fixed.len())].clone(),
            1 => literal_formula(&mut rng, 64..70),
            _ => literal_formula(&mut rng, 64..70).or(literal_formula(&mut rng, 0..70)),
        };
        let certain = entails(db.state(), &high);
        let possible = !entails(db.state(), &high.clone().not());
        assert_eq!(db.is_certain(&high), certain, "certain {high}");
        assert_eq!(db.is_possible(&high), possible, "possible {high}");
        decided_by_high_atoms += usize::from(certain || !possible);
    }
    assert!(
        decided_by_high_atoms > 0,
        "no query was certain or impossible"
    );
}
