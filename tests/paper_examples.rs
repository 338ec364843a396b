//! Integration tests pinning the paper's worked examples and named
//! results, exercised through the public crate APIs end to end.

use std::collections::BTreeSet;

use pwdb::blu::{BluClausal, BluSemantics};
use pwdb::hlu::{parse_hlu, Database, InstanceDatabase};
use pwdb::logic::{parse_clause_set, parse_wff, AtomId, AtomTable};
use pwdb::worlds::{inset, relevant_atoms, WorldSet};

fn atoms5() -> AtomTable {
    AtomTable::with_indexed_atoms(5)
}

#[test]
fn example_3_1_5_clause_level_insert() {
    let mut t = atoms5();
    let phi = parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut t).unwrap();
    let param = parse_clause_set("{A1 | A2}", &mut t).unwrap();
    let alg = BluClausal::paper_exact();

    // (genmask '{A1 ∨ A2}) = {A1, A2}
    let gm = alg.op_genmask(&param);
    assert_eq!(gm, BTreeSet::from([AtomId(0), AtomId(1)]));

    // (mask Φ '{A1, A2}) = {A4 ∨ A5, A3 ∨ A4}
    let masked = alg.op_mask(&phi, &gm);
    let expected_mask = parse_clause_set("{A4 | A5, A3 | A4}", &mut t).unwrap();
    assert_eq!(masked, expected_mask);

    // Final assert = {A1 ∨ A2, A4 ∨ A5, A3 ∨ A4}
    let result = alg.op_assert(&masked, &param);
    let expected = parse_clause_set("{A1 | A2, A4 | A5, A3 | A4}", &mut t).unwrap();
    assert_eq!(result, expected);
}

#[test]
fn example_3_2_5_where_insert() {
    let mut t = atoms5();
    let phi = parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut t).unwrap();

    // Run the full program through the clausal database.
    let mut db = Database::with_backend(BluClausal::paper_exact());
    db.set_state(phi.clone());
    let prog = parse_hlu("(where {A5} (insert {A1 | A2}))", &mut t).unwrap();
    db.run(&prog);

    // Check against the instance semantics of the same program.
    let mut reference = InstanceDatabase::with_atoms(5);
    reference.set_state(WorldSet::from_clauses(5, &phi));
    reference.run(&prog);
    assert_eq!(&WorldSet::from_clauses(5, db.state()), reference.state());

    // The then-branch state of the worked example.
    let alg = BluClausal::paper_exact();
    let a5 = parse_clause_set("{A5}", &mut t).unwrap();
    let param = parse_clause_set("{A1 | A2}", &mut t).unwrap();
    let gm = alg.op_genmask(&param);
    let then_branch = alg.op_assert(&alg.op_mask(&alg.op_assert(&phi, &a5), &gm), &param);
    let expected_then = parse_clause_set("{A4 | A5, A3 | A4, A5, A1 | A2}", &mut t).unwrap();
    assert_eq!(then_branch, expected_then);
}

#[test]
fn discussion_1_4_6_inset_of_disjunction() {
    let mut t = atoms5();
    let phi = parse_wff("A1 | A2", &mut t).unwrap();
    let got: BTreeSet<Vec<(u32, bool)>> = inset(&phi, 5)
        .into_iter()
        .map(|lits| {
            lits.into_iter()
                .map(|l| (l.atom().0, l.is_positive()))
                .collect()
        })
        .collect();
    let expected: BTreeSet<Vec<(u32, bool)>> = [
        vec![(0, true), (1, true)],
        vec![(0, true), (1, false)],
        vec![(0, false), (1, true)],
    ]
    .into_iter()
    .collect();
    assert_eq!(got, expected);
}

#[test]
fn remark_1_4_7_tautology_insert_is_identity() {
    let mut t = atoms5();
    let taut = parse_wff("A1 | !A1", &mut t).unwrap();
    assert_eq!(inset(&taut, 5), vec![Vec::new()]);

    let mut db = InstanceDatabase::with_atoms(2);
    db.insert(parse_wff("A1 & A2", &mut t).unwrap());
    let before = db.state().clone();
    db.insert(taut);
    assert_eq!(db.state(), &before);
}

#[test]
fn theorem_1_5_4_insert_congruence_is_simple_mask() {
    use pwdb::worlds::mask::theorem_1_5_4_witness;
    let mut t = atoms5();
    for text in ["A1 | A2", "A1 & !A3", "A1 <-> A2", "(A1 & A2) | (A1 & !A2)"] {
        let w = parse_wff(text, &mut t).unwrap();
        let (lhs, rhs) = theorem_1_5_4_witness(&w, 4).unwrap();
        assert_eq!(lhs, rhs, "Theorem 1.5.4 fails on {text}");
    }
}

#[test]
fn definition_1_3_3_closed_world_modify() {
    // modify[A1, A2] on complete states, via the HLU pipeline embedded in
    // singleton world sets (§1.2's inclusion of complete databases).
    use pwdb::worlds::updates::modify_atoms;
    use pwdb::worlds::World;
    let m = modify_atoms(2, AtomId(0), AtomId(1));
    // t present → moved; t absent → no-op.
    assert_eq!(
        m.apply(&World::from_bits(0b01, 2)),
        World::from_bits(0b10, 2)
    );
    assert_eq!(
        m.apply(&World::from_bits(0b00, 2)),
        World::from_bits(0b00, 2)
    );
}

#[test]
fn relevant_atoms_ignore_syntax() {
    let mut t = atoms5();
    let w = parse_wff("(A1 & A2) | (A1 & !A2)", &mut t).unwrap();
    assert_eq!(relevant_atoms(&w, 5), vec![AtomId(0)]);
}

#[test]
fn section_4_insert_subsumes_masking() {
    // §4: "masking is itself a form of insertion" — (insert {A1 ∨ A2})
    // and (mask {A1,A2}) agree on which worlds they make possible for the
    // masked letters; insert then restricts.
    let mut t = atoms5();
    let mut db = InstanceDatabase::with_atoms(3);
    db.insert(parse_wff("A1 & A2 & A3", &mut t).unwrap());

    let mut masked = db.clone_state_db();
    masked.clear([AtomId(0), AtomId(1)]);

    let mut inserted = db.clone_state_db();
    inserted.insert(parse_wff("A1 | A2", &mut t).unwrap());

    // insert = mask ∩ Mod[A1∨A2]: inserted ⊆ masked.
    assert!(inserted.state().is_subset(masked.state()));
    let disj = WorldSet::from_wff(3, &parse_wff("A1 | A2", &mut t).unwrap());
    assert_eq!(inserted.state(), &masked.state().intersect(&disj));
}

/// Helper: clone an instance database (state + backend).
trait CloneStateDb {
    fn clone_state_db(&self) -> Self;
}

impl CloneStateDb for InstanceDatabase {
    fn clone_state_db(&self) -> Self {
        self.clone()
    }
}
