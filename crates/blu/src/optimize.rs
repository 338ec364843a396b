//! Algebraic optimization of BLU terms.
//!
//! §4 of the paper mentions that its Lisp implementation employs "a
//! number of correctness-preserving optimizations". At the clause level
//! those are normalizations (tautology elimination, subsumption — the
//! reduced algebra of [`crate::clausal::BluClausal::new`]); this module
//! adds the *program-level* counterpart: rewriting BLU terms under the
//! equations that hold in the instance algebra **BLU-I** for every state
//! valuation.
//!
//! The rewrite system (applied bottom-up to a fixpoint):
//!
//! | rule | law |
//! |------|-----|
//! | `(assert x x) → x` | idempotence of ∩ |
//! | `(combine x x) → x` | idempotence of ∪ |
//! | `(complement (complement x)) → x` | involution (states live inside `ILDB`) |
//! | `(assert x (combine x y)) → x` | absorption |
//! | `(combine x (assert x y)) → x` | absorption |
//! | `(assert x (mask x m)) → x` | masks are extensive |
//! | `(combine x (mask x m)) → (mask x m)` | masks are extensive |
//! | `(mask (mask x m) m) → (mask x m)` | mask idempotence (same mask term) |
//! | commutative matching | ∩, ∪ are commutative |
//!
//! Every rule is sound for **BLU-I** over any universe, hence — by the
//! emulation theorems — sound for the *meaning* of BLU-C states as well
//! (the clause-level representation may differ; the denoted world set
//! does not). Property tests in `tests/optimizer_soundness.rs` verify
//! both facts on random programs.
//!
//! The involution rule deserves a note: `complement` is relative to
//! `ILDB[D]` (Definition 2.2.2(b)(iii)), so `¬¬X = X ∩ ILDB[D]`, which
//! equals `X` only when `X ⊆ ILDB[D]`. Over an *unconstrained* schema
//! (`ILDB = DB`, the setting of the paper's update development, §1.3.3)
//! that always holds. Under integrity constraints it can fail — and not
//! just for exotic inputs: **`mask` can carry a legal state outside the
//! legal universe** (saturation adds worlds indiscriminately), a fact our
//! property tests surfaced (`tests/optimizer_soundness.rs`). Use
//! `Optimizer::assuming_full_universe(false)` whenever the target algebra
//! complements relative to a proper subset of `DB[D]`.

use pwdb_metrics::counter;

use crate::ast::{MTerm, Program, STerm};

/// Statistics from one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Number of rule applications performed.
    pub rewrites: usize,
    /// Term size before.
    pub size_before: usize,
    /// Term size after.
    pub size_after: usize,
}

/// A configurable BLU term optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    assume_full_universe: bool,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            assume_full_universe: true,
        }
    }
}

impl Optimizer {
    /// Optimizer with default settings (complementation assumed relative
    /// to all of `DB[D]`, i.e. an unconstrained schema).
    pub fn new() -> Self {
        Self::default()
    }

    /// Controls the rules that require `ILDB[D] = DB[D]` (currently the
    /// double-complement involution). Disable when the target algebra
    /// complements within a constrained legal universe: `mask` can carry
    /// states outside it, breaking `¬¬X = X`.
    pub fn assuming_full_universe(mut self, yes: bool) -> Self {
        self.assume_full_universe = yes;
        self
    }

    /// Rewrites a term to a fixpoint; returns the new term and stats.
    pub fn optimize_term(&self, term: &STerm) -> (STerm, OptimizeStats) {
        let sp = pwdb_metrics::span!("blu.optimize", "size_before" => term.size());
        let mut stats = OptimizeStats {
            size_before: term.size(),
            ..Default::default()
        };
        let mut current = term.clone();
        loop {
            let (next, changed) = self.pass(&current, &mut stats);
            current = next;
            if !changed {
                break;
            }
        }
        stats.size_after = current.size();
        sp.attr("rewrites", stats.rewrites);
        sp.attr("size_after", stats.size_after);
        (current, stats)
    }

    /// Optimizes a program body. The parameter list is preserved — BLU
    /// programs must list exactly the variables occurring in the body
    /// (Definition 2.1.2), so if a rewrite eliminates a variable's last
    /// occurrence the original program is returned unchanged with the
    /// stats of the attempt (callers may re-bind instead).
    pub fn optimize_program(&self, program: &Program) -> (Program, OptimizeStats) {
        let (body, stats) = self.optimize_term(program.body());
        let varlist: Vec<String> = program.params().iter().map(|p| p.name.clone()).collect();
        match Program::new(varlist, body) {
            Ok(p) => (p, stats),
            Err(_) => (
                program.clone(),
                OptimizeStats {
                    rewrites: 0,
                    size_before: stats.size_before,
                    size_after: stats.size_before,
                },
            ),
        }
    }

    /// One bottom-up pass.
    fn pass(&self, term: &STerm, stats: &mut OptimizeStats) -> (STerm, bool) {
        // First rewrite children.
        let (node, mut changed) = match term {
            STerm::Var(_) => (term.clone(), false),
            STerm::Assert(a, b) => {
                let (a2, ca) = self.pass(a, stats);
                let (b2, cb) = self.pass(b, stats);
                (a2.assert(b2), ca || cb)
            }
            STerm::Combine(a, b) => {
                let (a2, ca) = self.pass(a, stats);
                let (b2, cb) = self.pass(b, stats);
                (a2.combine(b2), ca || cb)
            }
            STerm::Complement(a) => {
                let (a2, ca) = self.pass(a, stats);
                (a2.complement(), ca)
            }
            STerm::Mask(a, m) => {
                let (a2, ca) = self.pass(a, stats);
                let (m2, cm) = self.pass_mask(m, stats);
                (a2.mask(m2), ca || cm)
            }
        };
        // Then try root rules.
        if let Some(rewritten) = self.rewrite_root(&node) {
            stats.rewrites += 1;
            changed = true;
            return (rewritten, changed);
        }
        (node, changed)
    }

    fn pass_mask(&self, term: &MTerm, stats: &mut OptimizeStats) -> (MTerm, bool) {
        match term {
            MTerm::Var(_) => (term.clone(), false),
            MTerm::Genmask(s) => {
                let (s2, c) = self.pass(s, stats);
                (MTerm::Genmask(Box::new(s2)), c)
            }
        }
    }

    fn rewrite_root(&self, term: &STerm) -> Option<STerm> {
        match term {
            // Idempotence.
            STerm::Assert(a, b) | STerm::Combine(a, b) if a == b => {
                counter!("blu.optimize.rule.idempotence").inc();
                Some((**a).clone())
            }

            // Absorption and mask extensivity (commutative matching).
            STerm::Assert(a, b) => Self::absorb_assert(a, b)
                .or_else(|| Self::absorb_assert(b, a))
                .inspect(|_| counter!("blu.optimize.rule.absorb_assert").inc()),
            STerm::Combine(a, b) => Self::absorb_combine(a, b)
                .or_else(|| Self::absorb_combine(b, a))
                .inspect(|_| counter!("blu.optimize.rule.absorb_combine").inc()),

            // Involution (legal-universe assumption).
            STerm::Complement(inner) if self.assume_full_universe => match &**inner {
                STerm::Complement(x) => {
                    counter!("blu.optimize.rule.involution").inc();
                    Some((**x).clone())
                }
                _ => None,
            },

            // Mask idempotence with an identical mask term.
            STerm::Mask(inner, m) => match &**inner {
                STerm::Mask(x, m2) if m == m2 => {
                    counter!("blu.optimize.rule.mask_idempotence").inc();
                    Some((**x).clone().mask((**m).clone()))
                }
                _ => None,
            },

            _ => None,
        }
    }

    /// `(assert x (combine x y)) → x`; `(assert x (mask x m)) → x`.
    fn absorb_assert(x: &STerm, other: &STerm) -> Option<STerm> {
        match other {
            STerm::Combine(l, r) if &**l == x || &**r == x => Some(x.clone()),
            STerm::Mask(l, _) if &**l == x => Some(x.clone()),
            _ => None,
        }
    }

    /// `(combine x (assert x y)) → x`; `(combine x (mask x m)) → (mask x m)`.
    fn absorb_combine(x: &STerm, other: &STerm) -> Option<STerm> {
        match other {
            STerm::Assert(l, r) if &**l == x || &**r == x => Some(x.clone()),
            STerm::Mask(l, _) if &**l == x => Some(other.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sterm;

    fn opt(input: &str) -> String {
        let term = parse_sterm(input).unwrap();
        let (out, _) = Optimizer::new().optimize_term(&term);
        out.to_string()
    }

    #[test]
    fn idempotence() {
        assert_eq!(opt("(assert s0 s0)"), "s0");
        assert_eq!(opt("(combine s0 s0)"), "s0");
    }

    #[test]
    fn double_complement() {
        assert_eq!(opt("(complement (complement s0))"), "s0");
        // Disabled without the full-universe assumption.
        let term = parse_sterm("(complement (complement s0))").unwrap();
        let (out, stats) = Optimizer::new()
            .assuming_full_universe(false)
            .optimize_term(&term);
        assert_eq!(out, term);
        assert_eq!(stats.rewrites, 0);
    }

    #[test]
    fn absorption_assert_combine() {
        assert_eq!(opt("(assert s0 (combine s0 s1))"), "s0");
        assert_eq!(opt("(assert (combine s1 s0) s0)"), "s0");
        assert_eq!(opt("(assert s0 (combine s1 s0))"), "s0");
    }

    #[test]
    fn absorption_combine_assert() {
        assert_eq!(opt("(combine s0 (assert s0 s1))"), "s0");
        assert_eq!(opt("(combine (assert s1 s0) s0)"), "s0");
    }

    #[test]
    fn mask_extensivity() {
        assert_eq!(opt("(assert s0 (mask s0 m0))"), "s0");
        assert_eq!(opt("(combine s0 (mask s0 m0))"), "(mask s0 m0)");
    }

    #[test]
    fn mask_idempotence_same_term() {
        assert_eq!(opt("(mask (mask s0 m0) m0)"), "(mask s0 m0)");
        // Different mask terms are untouched.
        assert_eq!(opt("(mask (mask s0 m0) m1)"), "(mask (mask s0 m0) m1)");
    }

    #[test]
    fn rewrites_cascade_to_fixpoint() {
        // (assert (combine s0 s0) (combine (combine s0 s0) s1)) → s0.
        assert_eq!(
            opt("(assert (combine s0 s0) (combine (combine s0 s0) s1))"),
            "s0"
        );
    }

    #[test]
    fn nested_rewrites_inside_genmask() {
        assert_eq!(
            opt("(mask s1 (genmask (assert s0 s0)))"),
            "(mask s1 (genmask s0))"
        );
    }

    #[test]
    fn untouched_terms_are_stable() {
        let src = "(assert (mask s0 (genmask s1)) s1)";
        assert_eq!(opt(src), src);
    }

    #[test]
    fn stats_reflect_work() {
        let term = parse_sterm("(combine (assert s0 s0) (assert s0 s0))").unwrap();
        let (out, stats) = Optimizer::new().optimize_term(&term);
        assert_eq!(out.to_string(), "s0");
        assert!(stats.rewrites >= 2);
        assert_eq!(stats.size_before, 7);
        assert_eq!(stats.size_after, 1);
    }

    #[test]
    fn program_optimization_preserves_varlist_invariant() {
        // Optimizing would drop s1 from the body; the program is returned
        // unchanged to respect Definition 2.1.2.
        let p =
            crate::parser::parse_program("(lambda (s0 s1) (assert s0 (combine s0 s1)))").unwrap();
        let (out, stats) = Optimizer::new().optimize_program(&p);
        assert_eq!(out, p);
        assert_eq!(stats.rewrites, 0);

        // When all variables survive, the optimization goes through.
        let q =
            crate::parser::parse_program("(lambda (s0 s1) (assert (assert s0 s0) s1))").unwrap();
        let (out, stats) = Optimizer::new().optimize_program(&q);
        assert_eq!(out.body().to_string(), "(assert s0 s1)");
        assert!(stats.rewrites >= 1);
    }
}
