//! Reference-oracle-vs-indexed clausal engine comparison.
//!
//! Builds the inputs of the reduced E1–E5 workloads — plus a
//! resolution-saturation section and the states a normalizing HLU script
//! hands to Tison's closure — once, then runs each section's public
//! operation (`reduce_subsumed`, `saturate`, `prime_implicates`,
//! memoized `genmask`) and its paper-direct twin from
//! `pwdb::logic::reference` (or, for `genmask`, the same call on cleared
//! caches) over the same inputs. The per-section metric deltas of both
//! sides go to `BENCH_index.json` as the `index_comparison` document —
//! the oracle under `naive`, the engine under `indexed` — with a
//! `summary` of the headline op-cost counters.
//!
//! The binary *asserts* the tentpole claims: indexed must try strictly
//! fewer subsumption comparisons and resolvent pairs than the oracle,
//! the genmask memo must absorb the repeated E5 calls, and the signature
//! filter must actually prune. Result equality between the two is the
//! differential harness's job (`tests/index_differential.rs`); this
//! report measures the cost of getting those identical results.

use std::hint::black_box;

use pwdb::blu::{BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::hlu::ClausalDatabase;
use pwdb::logic::{cache, reference, resolution, AtomId, ClauseSet};
use pwdb_bench::{random_clause_set, random_wff, rng};
use pwdb_metrics::json::Json;
use pwdb_metrics::MetricsSnapshot;

/// One comparison section: its inputs, built once, and the two sides run
/// over them.
struct Section {
    name: &'static str,
    inputs: Vec<ClauseSet>,
    reference: fn(&ClauseSet),
    indexed: fn(&ClauseSet),
}

fn reduce_reference(s: &ClauseSet) {
    black_box(reference::reduce_subsumed(&mut s.clone()));
}

fn reduce_indexed(s: &ClauseSet) {
    black_box(s.clone().reduce_subsumed());
}

/// A subsumption-sweep section: both sides reduce every input.
fn reduce_section(name: &'static str, inputs: Vec<ClauseSet>) -> Section {
    Section {
        name,
        inputs,
        reference: reduce_reference,
        indexed: reduce_indexed,
    }
}

/// Both `genmask` strategies, three times each; `cold` clears every memo
/// before each call so each one recomputes.
fn genmask_repeats(s: &ClauseSet, cold: bool) {
    for _ in 0..3 {
        for strategy in [GenmaskStrategy::PaperExhaustive, GenmaskStrategy::SatBased] {
            if cold {
                cache::clear_all();
            }
            black_box(BluClausal::new().with_genmask(strategy).op_genmask(s));
        }
    }
}

fn sections() -> Vec<Section> {
    // E1 reduced: the asserted union carries many subsumed members (the
    // second operand uses shorter clauses).
    let e1 = [6u32, 7, 8]
        .map(|exp| {
            let mut r = rng(7000 + exp as u64);
            let a = random_clause_set(&mut r, 32, 1 << exp, 4);
            let b = random_clause_set(&mut r, 32, 1 << exp, 2);
            BluClausal::assert_clauses(&a, &b)
        })
        .to_vec();
    // E2 reduced: `combine` products.
    let e2 = [3u32, 4, 5]
        .map(|exp| {
            let mut r = rng(7100 + exp as u64);
            let a = random_clause_set(&mut r, 32, 1 << exp, 3);
            let b = random_clause_set(&mut r, 32, 1 << exp, 3);
            BluClausal::combine_clauses(&a, &b)
        })
        .to_vec();
    // E3 reduced: `complement` outputs.
    let e3 = [4usize, 6, 8]
        .map(|k| {
            let mut r = rng(7200 + k as u64);
            BluClausal::complement_clauses(&random_clause_set(&mut r, (k * 3).max(8), k, 3))
        })
        .to_vec();
    // E4 reduced: the output of every `mask` elimination step, each of
    // which the reduced algebra sweeps before the next step.
    let mut e4 = Vec::new();
    let state = random_clause_set(&mut rng(7300), 20, 48, 3);
    for p in [1u32, 2, 4] {
        let mut out = state.clone();
        for a in (0..p).map(AtomId) {
            out = BluClausal::mask_step(&out, a);
            e4.push(out.clone());
            out.reduce_subsumed();
        }
    }
    // E5 memoized: repeated `genmask` calls on the same states.
    let e5 = [6usize, 8, 10]
        .map(|n| random_clause_set(&mut rng(5000 + n as u64), n, n * 2, 3))
        .to_vec();
    // Resolution saturation up to subsumption, where the oracle re-tries
    // every pair per round and the semi-naive worklist does not.
    let saturation = (0..4u64)
        .map(|seed| random_clause_set(&mut rng(7400 + seed), 10, 24, 3))
        .collect();
    // The states a reduced-backend HLU script normalizes (Tison closures).
    let mut hlu = Vec::new();
    let mut r = rng(7500);
    let mut db = ClausalDatabase::new();
    for i in 0..12 {
        db.insert(random_wff(&mut r, 10, 1));
        if i % 3 == 2 {
            hlu.push(db.state().clone());
            db.normalize();
        }
    }

    vec![
        reduce_section("e1_assert_reduced", e1),
        reduce_section("e2_combine_reduced", e2),
        reduce_section("e3_complement_reduced", e3),
        reduce_section("e4_mask_reduced", e4),
        Section {
            name: "e5_genmask_memo",
            inputs: e5,
            reference: |s| genmask_repeats(s, true),
            indexed: |s| genmask_repeats(s, false),
        },
        Section {
            name: "saturation",
            inputs: saturation,
            reference: |s| {
                black_box(reference::saturate(s));
            },
            indexed: |s| {
                black_box(resolution::saturate(s));
            },
        },
        Section {
            name: "hlu_normalized",
            inputs: hlu,
            reference: |s| {
                black_box(reference::prime_implicates(s));
            },
            indexed: |s| {
                black_box(pwdb::logic::prime_implicates(s));
            },
        },
    ]
}

/// The metric delta of running `side` over `inputs`. Caches are cleared
/// first so sections are independent and the indexed side always pays
/// its first computation.
fn measure(inputs: &[ClauseSet], side: fn(&ClauseSet)) -> MetricsSnapshot {
    cache::clear_all();
    let before = pwdb_metrics::snapshot();
    for s in inputs {
        side(s);
    }
    pwdb_metrics::snapshot().delta(&before)
}

fn total(side: &[MetricsSnapshot], counter: &str) -> u64 {
    side.iter().map(|s| s.counter(counter)).sum()
}

fn main() {
    let sections = sections();
    pwdb_metrics::reset();
    let oracle: Vec<MetricsSnapshot> = sections
        .iter()
        .map(|s| measure(&s.inputs, s.reference))
        .collect();
    let indexed: Vec<MetricsSnapshot> = sections
        .iter()
        .map(|s| measure(&s.inputs, s.indexed))
        .collect();

    // Headline counters: (name, must strictly drop under the index).
    let headline = [
        ("logic.subsumption.comparisons", true),
        ("logic.resolution.pairs_tried", true),
        ("blu.genmask.assignments", true),
        ("logic.dpll.solves", true),
        ("logic.index.sig_prunes", false),
    ];

    let mut summary_pairs = Vec::new();
    for (counter, must_drop) in headline {
        let n = total(&oracle, counter);
        let i = total(&indexed, counter);
        if must_drop {
            assert!(
                i < n,
                "counter {counter} did not drop: reference {n}, indexed {i}"
            );
        }
        summary_pairs.push((
            counter.to_string(),
            Json::obj([
                ("naive".to_string(), Json::UInt(n)),
                ("indexed".to_string(), Json::UInt(i)),
            ]),
        ));
    }
    assert!(
        total(&indexed, "logic.index.sig_prunes") > 0,
        "signature filter never pruned a comparison"
    );
    assert!(
        total(&oracle, "logic.index.sig_prunes") == 0,
        "reference side must not touch the index"
    );

    let doc_sections = Json::obj(sections.iter().zip(oracle.iter().zip(&indexed)).map(
        |(section, (n_snap, i_snap))| {
            (
                section.name.to_string(),
                Json::obj([
                    ("naive".to_string(), n_snap.to_json_value()),
                    ("indexed".to_string(), i_snap.to_json_value()),
                ]),
            )
        },
    ));
    let doc = Json::obj([
        ("index_comparison".to_string(), doc_sections),
        ("summary".to_string(), Json::obj(summary_pairs)),
    ]);
    let rendered = doc.render();
    let parsed = Json::parse(&rendered).expect("rendered JSON must re-parse");
    assert_eq!(parsed.render(), rendered, "JSON round-trip mismatch");
    std::fs::write("BENCH_index.json", &rendered).expect("write BENCH_index.json");

    println!("wrote BENCH_index.json ({} bytes)", rendered.len());
    for (counter, _) in headline {
        let n = total(&oracle, counter);
        let i = total(&indexed, counter);
        let pct = if n > 0 {
            format!("{:>5.1}%", 100.0 * i as f64 / n as f64)
        } else {
            "    —".to_owned()
        };
        println!("  {counter:<34} reference {n:>10}  indexed {i:>10}  ({pct} of reference)");
    }
}
