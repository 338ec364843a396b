//! Compilation of HLU into BLU (Definitions 3.1.2, 3.2.3, 3.2.4).
//!
//! `simple-HLU` compiles by direct `define`: each of the five operators
//! becomes a fixed BLU lambda body over `s0` and the parameter variables.
//! The `where` forms are *macros* (the paper borrows TI Scheme `syntax`):
//! expanding `(where2 s0 s1 p0 p1)` splices the bodies of the compiled
//! subprograms, substituting `(assert s0 s1)` — respectively
//! `(assert s0 (complement s1))` — for their `s0`, and suffixing their
//! remaining parameters with `.0`/`.1` to avoid name collisions
//! (Definition 3.2.2's `atomappend`).
//!
//! > Faithfulness note: the paper's printed `where2` body asserts `s1` in
//! > *both* branches; the surrounding prose ("splits S into S ∩ pw(W) and
//! > S \ pw(W)") and the worked Example 3.2.5 require the second branch to
//! > assert `(complement s1)`, which is what we implement.
//!
//! The output of compilation is a closed [`Compiled`] pair: a BLU
//! [`Program`] plus the positional argument values (wffs and masks) to
//! bind. Backends lower the wff arguments to their own state domain
//! (clause sets for BLU-C, world sets for BLU-I).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use pwdb_blu::{MTerm, Program, STerm};
use pwdb_logic::{AtomId, Wff};

use crate::ast::HluProgram;

/// An argument value for a compiled program, still representation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// A `⟨possible-worlds⟩` parameter, as the wff the user wrote.
    State(Wff),
    /// A `⟨masks⟩` parameter.
    Mask(BTreeSet<AtomId>),
}

/// A compiled HLU program: a BLU program together with the values for its
/// parameters `s1, s2, …` (position `i` of `args` binds parameter `i+1`;
/// parameter 0 is always the system state `s0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compiled {
    /// The BLU program.
    pub program: Program,
    /// Values for every parameter after `s0`, in order.
    pub args: Vec<ArgValue>,
}

/// Intermediate form: a body plus named holes, before final
/// `Program::new` assembly.
struct Fragment {
    body: STerm,
    /// Parameter names (after `s0`) paired with their values.
    params: Vec<(String, ArgValue)>,
}

fn s0() -> STerm {
    STerm::var("s0")
}

impl Fragment {
    /// `simple-HLU` translations (Definition 3.1.2), with the system state
    /// plugged as `state` rather than the literal variable `s0` so that
    /// `where` expansion can splice `(assert s0 W)` in its place.
    fn simple(prog: &HluProgram, state: STerm, fresh: &mut u32) -> Fragment {
        let next = |value: ArgValue, fresh: &mut u32| {
            let name = format!("s{}", *fresh);
            *fresh += 1;
            (name, value)
        };
        match prog {
            HluProgram::Identity => Fragment {
                body: state,
                params: Vec::new(),
            },
            HluProgram::Assert(w) => {
                let (name, value) = next(ArgValue::State(w.clone()), fresh);
                Fragment {
                    body: state.assert(STerm::var(&name)),
                    params: vec![(name, value)],
                }
            }
            HluProgram::Clear(mask) => {
                let (name, value) = next(ArgValue::Mask(mask.clone()), fresh);
                Fragment {
                    body: state.mask(MTerm::var(&name)),
                    params: vec![(name, value)],
                }
            }
            HluProgram::Insert(w) => {
                let (name, value) = next(ArgValue::State(w.clone()), fresh);
                let v = || STerm::var(&name);
                Fragment {
                    // (assert (mask s0 (genmask s1)) s1)
                    body: state.mask(v().genmask()).assert(v()),
                    params: vec![(name, value)],
                }
            }
            HluProgram::Delete(w) => {
                let (name, value) = next(ArgValue::State(w.clone()), fresh);
                let v = || STerm::var(&name);
                Fragment {
                    // (assert (mask s0 (genmask s1)) (complement s1))
                    body: state.mask(v().genmask()).assert(v().complement()),
                    params: vec![(name, value)],
                }
            }
            HluProgram::Modify(w, v) => {
                let (n1, a1) = next(ArgValue::State(w.clone()), fresh);
                let (n2, a2) = next(ArgValue::State(v.clone()), fresh);
                let p1 = || STerm::var(&n1);
                let p2 = || STerm::var(&n2);
                // Branch where s1 holds: delete s1, then insert s2
                // (Definition 3.1.2's HLU-modify, read per its prose).
                let deleted = state
                    .clone()
                    .assert(p1())
                    .mask(p1().genmask())
                    .assert(p1().complement());
                let inserted = deleted.mask(p2().genmask()).assert(p2());
                // Branch where s1 fails: untouched.
                let untouched = state.assert(p1().complement());
                Fragment {
                    body: inserted.combine(untouched),
                    params: vec![(n1, a1), (n2, a2)],
                }
            }
            HluProgram::Where(..) => unreachable!("where handled by expand"),
        }
    }

    /// Full compilation with `where` expansion.
    ///
    /// Each recursion step opens one `hlu.compile.*` span, so the trace of
    /// a compilation is the §3.1–3.2 translation tree itself: `where`
    /// nodes contain the spans of their branch subprograms.
    fn expand(prog: &HluProgram, state: STerm, fresh: &mut u32) -> Fragment {
        let _sp = pwdb_metrics::span!(compile_span_name(prog));
        match prog {
            HluProgram::Where(cond, p_then, p_else) => {
                let name = format!("s{}", *fresh);
                *fresh += 1;
                let cond_var = || STerm::var(&name);
                // Then-branch sees S ∩ pw(W); else-branch S \ pw(W).
                let then_frag = Self::expand(p_then, state.clone().assert(cond_var()), fresh);
                let else_frag = Self::expand(p_else, state.assert(cond_var().complement()), fresh);
                let mut params = vec![(name, ArgValue::State(cond.clone()))];
                params.extend(then_frag.params);
                params.extend(else_frag.params);
                Fragment {
                    body: then_frag.body.combine(else_frag.body),
                    params,
                }
            }
            simple => Self::simple(simple, state, fresh),
        }
    }
}

/// The `hlu.compile.*` span family: one name per translation rule of
/// Definitions 3.1.2 (simple-HLU) and 3.2.3/3.2.4 (`where` macros).
fn compile_span_name(prog: &HluProgram) -> &'static str {
    match prog {
        HluProgram::Identity => "hlu.compile.identity",
        HluProgram::Assert(_) => "hlu.compile.assert",
        HluProgram::Clear(_) => "hlu.compile.clear",
        HluProgram::Insert(_) => "hlu.compile.insert",
        HluProgram::Delete(_) => "hlu.compile.delete",
        HluProgram::Modify(..) => "hlu.compile.modify",
        HluProgram::Where(..) => "hlu.compile.where",
    }
}

/// Compiles an HLU program to a closed BLU program plus argument values.
///
/// The result's parameter list is `s0, s1, s2, …` with values for
/// `s1 …` returned in [`Compiled::args`]. Fresh names are generated
/// globally, which realizes the collision-free renaming the paper obtains
/// with `atomappend` suffixes: each occurrence of a subprogram gets its
/// own parameter instances.
pub fn compile(prog: &HluProgram) -> Compiled {
    let sp = pwdb_metrics::span!("hlu.compile");
    let mut fresh = 1;
    let fragment = Fragment::expand(prog, s0(), &mut fresh);
    let mut varlist = vec!["s0".to_owned()];
    let mut args = Vec::new();
    for (name, value) in fragment.params {
        varlist.push(name);
        args.push(value);
    }
    let program = Program::new(varlist, fragment.body)
        .expect("compiler emits well-formed programs by construction");
    sp.attr("params", args.len());
    sp.attr("body_size", program.body().size());
    Compiled { program, args }
}

/// Applies the paper's `atomappend` renaming (Definition 3.2.2(a)) to a
/// compiled program: suffixes every parameter except `s0`. Exposed for
/// tests that reproduce the paper's expansion verbatim; [`compile`]
/// achieves freshness by global numbering instead.
pub fn atomappend(compiled: &Compiled, suffix: &str) -> Compiled {
    let rename = |v: &str| {
        if v == "s0" {
            v.to_owned()
        } else {
            format!("{v}{suffix}")
        }
    };
    let body = compiled.program.body().rename(&rename);
    let varlist: Vec<String> = compiled
        .program
        .params()
        .iter()
        .map(|p| rename(&p.name))
        .collect();
    Compiled {
        program: Program::new(varlist, body).expect("renaming preserves well-formedness"),
        args: compiled.args.clone(),
    }
}

/// Substitutes one state term for `s0` in a compiled program body —
/// the lambda-variable substitution step of Example 3.2.5. Test helper.
pub fn splice_state(compiled: &Compiled, replacement: &STerm) -> STerm {
    let mut map = BTreeMap::new();
    map.insert("s0".to_owned(), replacement.clone());
    compiled.program.body().substitute(&map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::Wff;

    fn a(i: u32) -> Wff {
        Wff::atom(i)
    }

    #[test]
    fn compile_assert_matches_3_1_2() {
        let c = compile(&HluProgram::Assert(a(0)));
        assert_eq!(c.program.to_string(), "(lambda (s0 s1) (assert s0 s1))");
        assert_eq!(c.args, vec![ArgValue::State(a(0))]);
    }

    #[test]
    fn compile_clear_matches_3_1_2() {
        let mask: BTreeSet<AtomId> = [AtomId(0)].into_iter().collect();
        let c = compile(&HluProgram::Clear(mask.clone()));
        assert_eq!(c.program.to_string(), "(lambda (s0 s1) (mask s0 s1))");
        assert_eq!(c.args, vec![ArgValue::Mask(mask)]);
    }

    #[test]
    fn compile_insert_matches_3_1_2() {
        let c = compile(&HluProgram::Insert(a(0).or(a(1))));
        assert_eq!(
            c.program.to_string(),
            "(lambda (s0 s1) (assert (mask s0 (genmask s1)) s1))"
        );
    }

    #[test]
    fn compile_delete_matches_3_1_2() {
        let c = compile(&HluProgram::Delete(a(0)));
        assert_eq!(
            c.program.to_string(),
            "(lambda (s0 s1) (assert (mask s0 (genmask s1)) (complement s1)))"
        );
    }

    #[test]
    fn compile_modify_shape() {
        let c = compile(&HluProgram::Modify(a(0), a(1)));
        assert_eq!(c.args.len(), 2);
        // Mask-assert paradigm: both a delete of s1 and an insert of s2
        // appear, combined with the untouched complement branch.
        let text = c.program.to_string();
        assert!(text.contains("(genmask s1)"), "{text}");
        assert!(text.contains("(genmask s2)"), "{text}");
        assert!(text.contains("(assert s0 (complement s1))"), "{text}");
        assert!(text.starts_with("(lambda (s0 s1 s2) (combine "), "{text}");
    }

    #[test]
    fn compile_identity() {
        let c = compile(&HluProgram::Identity);
        assert_eq!(c.program.to_string(), "(lambda (s0) s0)");
        assert!(c.args.is_empty());
    }

    #[test]
    fn where1_expansion_matches_example_3_2_5() {
        // (where {A5} (insert {A1 ∨ A2})) must reduce to
        // (combine (assert (mask (assert s0 s1) (genmask s1.0)) s1.0)
        //          (assert s0 (complement s1)))
        // — our fresh naming uses s1 for the condition and s2 for the
        // insert parameter instead of the paper's s1/s1.0.
        let p = HluProgram::where1(a(4), HluProgram::Insert(a(0).or(a(1))));
        let c = compile(&p);
        assert_eq!(
            c.program.to_string(),
            "(lambda (s0 s1 s2) (combine (assert (mask (assert s0 s1) (genmask s2)) s2) \
             (assert s0 (complement s1))))"
        );
        assert_eq!(
            c.args,
            vec![ArgValue::State(a(4)), ArgValue::State(a(0).or(a(1)))]
        );
    }

    #[test]
    fn where2_both_branches_expand() {
        let p = HluProgram::where2(a(2), HluProgram::Insert(a(0)), HluProgram::Delete(a(1)));
        let c = compile(&p);
        let text = c.program.to_string();
        // Then-branch operates on (assert s0 s1), else-branch on
        // (assert s0 (complement s1)).
        assert!(text.contains("(assert s0 s1)"), "{text}");
        assert!(text.contains("(assert s0 (complement s1))"), "{text}");
        assert_eq!(c.args.len(), 3);
    }

    #[test]
    fn nested_where_generates_distinct_names() {
        let inner = HluProgram::where1(a(0), HluProgram::Insert(a(1)));
        let p = HluProgram::where2(a(2), inner.clone(), inner);
        let c = compile(&p);
        // Parameters: outer cond + 2×(inner cond + insert param) = 5.
        assert_eq!(c.args.len(), 5);
        // All parameter names are distinct (collision freedom).
        let mut names: Vec<&str> = c.program.params().iter().map(|p| p.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn atomappend_suffixes_all_but_s0() {
        let c = compile(&HluProgram::Insert(a(0)));
        let renamed = atomappend(&c, ".0");
        assert_eq!(
            renamed.program.to_string(),
            "(lambda (s0 s1.0) (assert (mask s0 (genmask s1.0)) s1.0))"
        );
    }

    #[test]
    fn splice_state_substitutes_s0() {
        let c = compile(&HluProgram::Insert(a(0)));
        let spliced = splice_state(&c, &STerm::var("s0").assert(STerm::var("w")));
        assert_eq!(
            spliced.to_string(),
            "(assert (mask (assert s0 w) (genmask s1)) s1)"
        );
    }
}
