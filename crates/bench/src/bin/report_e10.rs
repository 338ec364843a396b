//! Experiment E10: the paper's worked examples, reproduced exactly.
//!
//! * Example 3.1.5 — `(insert {A1 ∨ A2})` on
//!   `Φ = {¬A1∨A3, A1∨A4, A4∨A5, ¬A1∨¬A2∨¬A5}`:
//!   `genmask = {A1,A2}`, `mask Φ = {A4∨A5, A3∨A4}`, final state
//!   `{A1∨A2, A4∨A5, A3∨A4}`.
//! * Example 3.2.5 — `(where {A5} (insert {A1 ∨ A2}))` on the same `Φ`:
//!   then-branch `{A4∨A5, A3∨A4, A5, A1∨A2}`, else-branch `Φ ∪ {¬A5}`,
//!   final result their `combine` ("the 16 clauses yielded by Algorithm
//!   2.3.3", before normalization).

use pwdb::blu::{BluClausal, BluSemantics};
use pwdb::hlu::{compile, parse_hlu, ArgValue};
use pwdb::logic::{cnf_of, parse_clause_set, AtomTable, ClauseSet};

fn main() {
    let mut atoms = AtomTable::with_indexed_atoms(5);
    let phi =
        parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut atoms).unwrap();
    let alg = BluClausal::paper_exact();

    println!("== E10  worked examples (3.1.5, 3.2.5) ==");
    println!("system state Φ = {phi}");

    // ---- Example 3.1.5 -------------------------------------------------
    let param = parse_clause_set("{A1 | A2}", &mut atoms).unwrap();
    let gm = alg.op_genmask(&param);
    let masked = alg.op_mask(&phi, &gm);
    let result = alg.op_assert(&masked, &param);
    println!("\nExample 3.1.5: (insert {{A1 | A2}})");
    println!("  genmask({param})      = {gm:?}");
    println!("  mask(Φ, {gm:?})       = {masked}");
    println!("  assert(mask, param)  = {result}");
    let expected = parse_clause_set("{A1 | A2, A4 | A5, A3 | A4}", &mut atoms).unwrap();
    assert_eq!(result, expected, "Example 3.1.5 must match the paper");
    println!("  MATCHES the paper:     {{A1 ∨ A2, A4 ∨ A5, A3 ∨ A4}}");

    // ---- Example 3.2.5 -------------------------------------------------
    println!("\nExample 3.2.5: (where {{A5}} (insert {{A1 | A2}}))");
    let prog = parse_hlu("(where {A5} (insert {A1 | A2}))", &mut atoms).unwrap();
    let compiled = compile(&prog);
    println!("  expanded BLU program: {}", compiled.program);

    // Run it with the clausal algebra, tracing the branch states.
    let a5 = parse_clause_set("{A5}", &mut atoms).unwrap();
    let then_state = alg.op_assert(&phi, &a5);
    let then_masked = alg.op_mask(&then_state, &gm);
    let then_final = alg.op_assert(&then_masked, &param);
    println!("  then-branch (assert Φ A5, mask, assert): {then_final}");
    let expected_then = parse_clause_set("{A4 | A5, A3 | A4, A5, A1 | A2}", &mut atoms).unwrap();
    assert_eq!(then_final, expected_then, "then-branch must match 3.2.5");

    let not_a5 = alg.op_complement(&a5);
    let else_final = alg.op_assert(&phi, &not_a5);
    println!("  else-branch (assert Φ (complement A5)):  {else_final}");

    let combined = alg.op_combine(&then_final, &else_final);
    println!(
        "  combine — {} clauses (paper: \"16 clauses\", before",
        combined.len()
    );
    println!("  tautology elimination; ours drops tautologous products): {combined}");

    // Full pipeline through the HLU machinery must agree.
    let mut args = vec![pwdb::blu::Value::State(phi.clone())];
    for a in &compiled.args {
        args.push(match a {
            ArgValue::State(w) => pwdb::blu::Value::State(cnf_of(w)),
            ArgValue::Mask(m) => pwdb::blu::Value::Mask(m.clone()),
        });
    }
    let via_hlu: ClauseSet =
        pwdb::blu::run_program(&alg, &compiled.program, args).expect("compiled program runs");
    assert_eq!(via_hlu, combined, "HLU pipeline must reproduce the trace");
    println!("\n  HLU compile+run reproduces the hand trace: OK");
    println!("\n(all assertions passed — outputs match Examples 3.1.5 and 3.2.5)");
}
