//! End-to-end tracing: `EXPLAIN`ing an HLU statement must produce a span
//! tree whose shape matches the paper's translation semantics (§3.2,
//! Definitions 3.2.3/3.2.4), and the same statements must compile and run
//! with the tracer compiled out (`--no-default-features`).
//!
//! Unlike `metrics_observability.rs`, these tests need no delta
//! gymnastics: the span ring is thread-local, so parallel tests cannot
//! see each other's spans.

use pwdb::prelude::*;

fn explained(src: &str, setup: &[&str]) -> Explanation {
    let mut atoms = AtomTable::new();
    let mut db = ClausalDatabase::new();
    for s in setup {
        let p = parse_hlu(s, &mut atoms).expect("setup parses");
        db.run(&p);
    }
    let stmt = parse_hlu_statement(src, &mut atoms).expect("statement parses");
    let HluStatement::Explain(prog) = stmt else {
        panic!("expected an EXPLAIN statement");
    };
    Explanation::capture(&prog, || {
        db.run(&prog);
        Ok::<(), std::convert::Infallible>(())
    })
    .0
}

#[cfg(feature = "metrics")]
mod with_tracer {
    use super::*;

    /// The `blu.clausal.*` leaf spans in pre-order — the primitive
    /// execution sequence, in the order the BLU program ran them.
    fn clausal_ops(e: &Explanation) -> Vec<&'static str> {
        e.trace
            .names_pre_order()
            .into_iter()
            .filter(|n| n.starts_with("blu.clausal.") && *n != "blu.clausal.mask.step")
            .collect()
    }

    #[test]
    fn explained_insert_follows_the_mask_assert_paradigm() {
        let e = explained("EXPLAIN (insert {a | b})", &["(insert {c})"]);
        assert!(!e.trace.is_empty());

        // The statement span is the root; the translation (compile) and
        // the BLU evaluation both run beneath it.
        let names = e.trace.names_pre_order();
        assert_eq!(names[0], "hlu.stmt.insert");
        assert!(names.contains(&"hlu.compile"));
        assert!(names.contains(&"hlu.compile.insert"));
        assert!(names.contains(&"blu.eval.assert"));

        // Definition 3.2.3: insert = mask–assert — first derive the mask
        // (genmask), apply it (mask), then assert the new information.
        assert_eq!(
            clausal_ops(&e),
            vec![
                "blu.clausal.genmask",
                "blu.clausal.mask",
                "blu.clausal.assert"
            ],
        );
    }

    #[test]
    fn explained_modify_splits_with_combine() {
        let e = explained("EXPLAIN (modify {a} {b})", &["(insert {a})"]);
        let names = e.trace.names_pre_order();
        assert_eq!(names[0], "hlu.stmt.modify");
        assert!(names.contains(&"hlu.compile.modify"));

        // Definition 3.2.4: modify is a where-style split whose branches
        // recombine — `combine` must appear, and both branches mask.
        let ops = clausal_ops(&e);
        let count = |op: &str| ops.iter().filter(|n| **n == op).count();
        assert!(count("blu.clausal.combine") >= 1, "ops: {ops:?}");
        assert!(count("blu.clausal.genmask") >= 1, "ops: {ops:?}");
        assert!(count("blu.clausal.mask") >= 1, "ops: {ops:?}");
    }

    #[test]
    fn spans_carry_cost_attributes() {
        let e = explained("EXPLAIN (insert {a | b})", &["(insert {c})"]);
        // Every clausal primitive span records the theorem's dominant
        // cost term (Theorems 2.3.4(b)/2.3.6(b)/2.3.9(b)) as `cost`.
        let costed: Vec<_> = e
            .trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("blu.clausal.") && s.name != "blu.clausal.mask.step")
            .collect();
        assert!(!costed.is_empty());
        for s in &costed {
            assert!(s.attr_u64("cost").is_some(), "span {} has no cost", s.name);
        }
    }

    #[test]
    fn explain_leaves_ambient_tracing_untouched() {
        pwdb_metrics::set_enabled(false);
        let _ = pwdb_metrics::take();
        let e = explained("EXPLAIN (insert {a})", &[]);
        assert!(!e.trace.is_empty(), "EXPLAIN must trace even when off");
        // …but the ambient (disabled) ring must stay empty.
        assert!(pwdb_metrics::take().is_empty());
        assert!(!pwdb_metrics::is_enabled());
    }

    /// A governor abort unwinds out of `capture`. The ambient enabled
    /// flag and the ambient ring must come back all the same.
    #[test]
    fn capture_restores_ambient_tracing_when_the_closure_unwinds() {
        use pwdb::logic::governor::step_n;
        use pwdb::logic::{govern, Budget, Limits};
        let aborted_capture = || {
            govern(&Limits::budget(Budget::steps(1)), || {
                pwdb_metrics::capture(|| step_n(10))
            })
        };

        pwdb_metrics::set_enabled(false);
        let _ = pwdb_metrics::take();
        assert!(aborted_capture().is_err());
        assert!(
            !pwdb_metrics::is_enabled(),
            "recording enabled after unwinding"
        );

        pwdb_metrics::set_enabled(true);
        {
            let _sp = pwdb_metrics::span!("ambient");
        }
        assert!(aborted_capture().is_err());
        pwdb_metrics::set_enabled(false);
        assert_eq!(pwdb_metrics::take().names_pre_order(), vec!["ambient"]);
    }

    /// Reopening a durable database records `Store::open`'s recovery
    /// span once, beneath the database's own open span.
    #[test]
    fn durable_open_records_one_recover_span() {
        let dir = pwdb::store::TestDir::new("trace-durable-open");
        {
            let mut db = ClausalDatabase::open(dir.path()).unwrap();
            let prog = parse_hlu("(insert {a | b})", db.atoms_mut()).unwrap();
            db.run(&prog).unwrap();
        }
        let (db, trace) = pwdb_metrics::capture(|| ClausalDatabase::open(dir.path()));
        assert_eq!(db.unwrap().recovery_report().replayed, 1);

        let spans = trace.pre_order();
        let recover: Vec<_> = spans.iter().filter(|s| s.name == "store.recover").collect();
        assert_eq!(recover.len(), 1, "{}", trace.render_tree());
        let parent = spans.iter().find(|s| Some(s.id) == recover[0].parent);
        assert_eq!(parent.map(|s| s.name), Some("store.durable.open"));
    }

    #[test]
    fn rendered_explanation_shows_statement_and_tree() {
        let e = explained("EXPLAIN (insert {a | b})", &[]);
        let text = e.render();
        assert!(text.contains("statement: (insert {A1 | A2})"), "{text}");
        assert!(text.contains("compiled:"), "{text}");
        assert!(text.contains("hlu.stmt.insert"), "{text}");
        assert!(text.contains("blu.clausal.assert"), "{text}");
    }
}

/// With `--no-default-features` the tracer is compiled out: the same
/// EXPLAIN statement must still parse, run, and render — just without
/// spans.
#[cfg(not(feature = "metrics"))]
mod without_tracer {
    use super::*;

    #[test]
    fn explain_still_runs_with_tracer_compiled_out() {
        let e = explained("EXPLAIN (insert {a | b})", &[]);
        assert!(e.trace.is_empty());
        let text = e.render();
        assert!(text.contains("statement: (insert {A1 | A2})"), "{text}");
        assert!(text.contains("(empty trace)"), "{text}");
    }
}
