//! Seeded generators for the benchmark's statement and query streams.
//!
//! Everything the program under test receives is text: HLU programs for
//! updates and wffs for queries, printed with the atom names `A1 … An`.
//! The same seed always yields the same text.

use pwdb_suite::pwdb::hlu::HluProgram;
use pwdb_suite::pwdb::logic::{Assignment, AtomId, AtomTable, Literal, Rng, Wff};
use pwdb_suite::testgen;

/// What an operation asks of the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An HLU update program.
    Update,
    /// `?certain W`: does `W` hold in every possible world?
    Certain,
    /// `?possible W`: does `W` hold in some possible world?
    Possible,
}

/// One operation of a stream.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    /// The HLU program of an update, or the wff of a query.
    pub text: String,
    /// For knowledge-base queries: the wff's value in the generator's
    /// hidden world, which is always one of the possible worlds.
    pub hidden_truth: Option<bool>,
}

impl Op {
    fn update(prog: &HluProgram, names: &AtomTable) -> Op {
        Op {
            kind: OpKind::Update,
            text: prog.display(names).to_string(),
            hidden_truth: None,
        }
    }

    fn query(rng: &mut Rng, wff: &Wff, names: &AtomTable, hidden_truth: Option<bool>) -> Op {
        Op {
            kind: if rng.coin() {
                OpKind::Certain
            } else {
                OpKind::Possible
            },
            text: wff.display(names).to_string(),
            hidden_truth,
        }
    }
}

/// Updates per query in the two in-memory streams.
pub const UPDATES_PER_QUERY: usize = 4;

/// The seed of round `round` of a run seeded with `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    Rng::new(seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// An in-memory stream: `updates` programs from `testgen::hlu_program`
/// over `n_atoms` atoms, with one `?certain`/`?possible` query after
/// every [`UPDATES_PER_QUERY`] updates.
pub fn stream_ops(seed: u64, n_atoms: usize, updates: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let names = AtomTable::with_indexed_atoms(n_atoms);
    let mut ops = Vec::with_capacity(updates + updates / UPDATES_PER_QUERY);
    for i in 0..updates {
        ops.push(Op::update(&testgen::hlu_program(&mut rng, n_atoms), &names));
        if (i + 1) % UPDATES_PER_QUERY == 0 {
            let wff = testgen::wff(&mut rng, n_atoms, 2);
            ops.push(Op::query(&mut rng, &wff, &names, None));
        }
    }
    ops
}

/// One knowledge-base round: the bulk-loaded knowledge base and the
/// mixed stream that follows it.
#[derive(Debug, Clone)]
pub struct KbRound {
    /// `(assert …)` statements of 1–3-literal disjunctions.
    pub load: Vec<String>,
    /// 80% queries, 20% updates.
    pub ops: Vec<Op>,
}

/// Generates a knowledge-base round over `n_atoms` atoms.
///
/// The generator keeps a hidden world and moves it in step with every
/// update, the way the update moves possible worlds (`compile.rs`):
/// `insert W` makes `W` true, `delete W` makes it false, `modify W V`
/// does both when `W` holds, and `where C P Q` applies the branch the
/// hidden world takes. Each change touches only the atoms of the
/// update's formula, and every formula depends on all of its atoms, so
/// the hidden world stays possible: the knowledge base never turns
/// inconsistent and no update is rejected.
pub fn kb_round(seed: u64, n_atoms: usize, load: usize, ops: usize) -> KbRound {
    let mut rng = Rng::new(seed);
    let names = AtomTable::with_indexed_atoms(n_atoms);
    let mut hidden = Assignment::from_bits(rng.next_u64(), n_atoms);
    let load = (0..load)
        .map(|_| {
            let w = true_disjunction(&mut rng, n_atoms, hidden);
            HluProgram::Assert(w).display(&names).to_string()
        })
        .collect();
    let ops = (0..ops)
        .map(|_| {
            if rng.below(5) == 0 {
                Op::update(&kb_update(&mut rng, n_atoms, &mut hidden), &names)
            } else {
                let wff = literal_formula(&mut rng, n_atoms);
                let truth = wff.eval(&hidden);
                Op::query(&mut rng, &wff, &names, Some(truth))
            }
        })
        .collect();
    KbRound { load, ops }
}

/// A random knowledge-base update, applied to `hidden`.
fn kb_update(rng: &mut Rng, n_atoms: usize, hidden: &mut Assignment) -> HluProgram {
    // `modify` and `where` combine two branch states, and every atom a
    // branch masks multiplies the clauses combined. With 1–3-literal
    // formulas there the state spiked to thousands of clauses, past the
    // step budget, so their formulas are single literals, and each is 5%
    // of the updates.
    match rng.below(20) {
        0..=5 => HluProgram::Assert(true_disjunction(rng, n_atoms, *hidden)),
        6..=17 => {
            let w = literal_formula(rng, n_atoms);
            branch_update(rng, w, hidden, true)
        }
        18 => {
            let (w, v) = (literal(rng, n_atoms), literal(rng, n_atoms));
            if w.eval(hidden) {
                *hidden = make(&w, false, *hidden);
                *hidden = make(&v, true, *hidden);
            }
            HluProgram::Modify(w, v)
        }
        _ => {
            let cond = literal(rng, n_atoms);
            let holds = cond.eval(hidden);
            let then = literal(rng, n_atoms);
            let then = branch_update(rng, then, hidden, holds);
            let otherwise = literal(rng, n_atoms);
            let otherwise = branch_update(rng, otherwise, hidden, !holds);
            HluProgram::where2(cond, then, otherwise)
        }
    }
}

/// `insert w` or `delete w`; applied to `hidden` only when `taken` (the
/// hidden world runs this branch).
fn branch_update(rng: &mut Rng, w: Wff, hidden: &mut Assignment, taken: bool) -> HluProgram {
    let insert = rng.coin();
    if taken {
        *hidden = make(&w, insert, *hidden);
    }
    if insert {
        HluProgram::Insert(w)
    } else {
        HluProgram::Delete(w)
    }
}

/// A random literal.
fn literal(rng: &mut Rng, n_atoms: usize) -> Wff {
    let atom = AtomId(rng.below(n_atoms as u64) as u32);
    Wff::literal(Literal::new(atom, rng.coin()))
}

/// A disjunction or conjunction of 1–3 literals over distinct atoms, so
/// the formula depends on every atom it mentions.
fn literal_formula(rng: &mut Rng, n_atoms: usize) -> Wff {
    let w = testgen::literal_disjunction(rng, n_atoms);
    if rng.coin() {
        w
    } else {
        Wff::conj(disjuncts(w))
    }
}

/// A 1–3-literal disjunction over distinct atoms that holds in `hidden`.
fn true_disjunction(rng: &mut Rng, n_atoms: usize, hidden: Assignment) -> Wff {
    let w = testgen::literal_disjunction(rng, n_atoms);
    if w.eval(&hidden) {
        return w;
    }
    // Every literal is false in `hidden`: negating the first makes it true.
    let mut lits = disjuncts(w);
    lits[0] = match std::mem::replace(&mut lits[0], Wff::True) {
        Wff::Not(atom) => *atom,
        atom => atom.not(),
    };
    Wff::disj(lits)
}

/// The literals of a disjunction built by `testgen::literal_disjunction`.
fn disjuncts(w: Wff) -> Vec<Wff> {
    match w {
        Wff::Or(l, r) => {
            let mut out = disjuncts(*l);
            out.extend(disjuncts(*r));
            out
        }
        lit => vec![lit],
    }
}

/// The world nearest to `world` (fewest atoms of `w` changed) in which
/// `w` has `value`.
fn make(w: &Wff, value: bool, world: Assignment) -> Assignment {
    let atoms: Vec<AtomId> = w.props().into_iter().collect();
    let mut choices: Vec<u32> = (0..1u32 << atoms.len()).collect();
    choices.sort_by_key(|c| c.count_ones());
    choices
        .into_iter()
        .map(|flips| {
            atoms
                .iter()
                .enumerate()
                .filter(|(i, _)| flips >> i & 1 == 1)
                .fold(world, |acc, (_, &a)| acc.flip(a))
        })
        .find(|candidate| w.eval(candidate) == value)
        .expect("a formula over distinct literals takes both values")
}
