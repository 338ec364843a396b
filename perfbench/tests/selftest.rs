//! The benchmark's self-test: every workload at its smallest size.
//!
//! For each workload, an untraced and a traced run must print every
//! registered metric with its unit and pass the output checks. Two runs
//! with the same seed must agree exactly on the counts that do not
//! depend on timing.

use std::path::PathBuf;
use std::sync::Mutex;

use pwdb_perfbench::report::{per_layer, END_TO_END};
use pwdb_perfbench::{run, Options, Report, Workload};

/// The library's caches and counters are process-wide, so runs in this
/// test binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn small_run(workload: Workload, seed: u64, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        full: false,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{}-{seed}-{trace}", workload.name())),
    };
    let report = run(&opts).expect("the benchmark runs");
    assert!(
        report.correct(),
        "{} output checks:\n{}",
        workload.name(),
        report.human()
    );
    report
}

fn assert_catalogue(report: &Report, expected: &[(String, &str)]) {
    for (name, unit) in expected {
        let m = report
            .get(name)
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(m.unit, *unit, "{name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }
    assert_eq!(
        report.metrics.len(),
        expected.len(),
        "only catalogued metrics"
    );
    let json = report.json_line();
    for (name, unit) in expected {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in JSON"
        );
        assert!(
            json.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} in JSON"
        );
    }
}

fn check_workload(workload: Workload) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let end_to_end: Vec<(String, &str)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();

    let untraced = [small_run(workload, 7, false), small_run(workload, 7, false)];
    let traced = [small_run(workload, 7, true), small_run(workload, 7, true)];
    assert_catalogue(&untraced[0], &end_to_end);
    assert_catalogue(&traced[0], &per_layer());

    let value = |r: &Report, name: &str| r.get(name).expect("catalogued").value;
    for name in ["state_literals_mean", "wal_bytes_per_user_byte"] {
        assert_eq!(
            value(&untraced[0], name),
            value(&untraced[1], name),
            "{name}"
        );
    }
    for name in [
        "store.wal.fsyncs",
        "store.wal.bytes",
        "blu.mask.steps",
        "blu.clausal.mask.calls",
        "hlu.parser.calls",
    ] {
        assert_eq!(value(&traced[0], name), value(&traced[1], name), "{name}");
    }
    assert!(value(&traced[0], "hlu.parser.calls") > 0.0);
    if workload.is_stream() {
        assert!(value(&traced[0], "blu.mask.steps") > 0.0);
    } else {
        assert!(value(&traced[0], "logic.governor.steps") > 0.0);
        assert!(value(&traced[0], "logic.dpll.calls") > 0.0);
        assert!(value(&traced[0], "store.recover.replayed") > 0.0);
    }
    // Every workload's traced run writes its log through `Store` and
    // reads it back.
    for name in [
        "store.wal.fsyncs",
        "store.wal.bytes",
        "store.append.self_ms",
        "store.commit.self_ms",
        "store.open.self_ms",
    ] {
        assert!(value(&traced[0], name) > 0.0, "{name}");
    }
}

#[test]
fn default_stream() {
    check_workload(Workload::DefaultStream);
}

#[test]
fn reduced_stream() {
    check_workload(Workload::ReducedStream);
}

#[test]
fn kb_memory() {
    check_workload(Workload::KbMemory);
}

#[test]
fn kb_durable() {
    check_workload(Workload::KbDurable);
}

/// `BENCHMARK.json` registers exactly the catalogue's metrics and units.
#[test]
fn benchmark_json_matches_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let end = text[start..].find(']').expect("section closes") + start;
        text[start..end].to_owned()
    };
    let entries = |section: &str| -> Vec<(String, String)> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| {
                let name = rest.split('"').next().expect("name").to_owned();
                let unit = rest
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit")
                    .to_owned();
                (name, unit)
            })
            .collect()
    };
    let as_owned = |v: &[(String, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.clone(), (*u).to_owned()))
            .collect()
    };
    let end_to_end: Vec<(String, &str)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    assert_eq!(entries(&section("end_to_end")), as_owned(&end_to_end));
    assert_eq!(entries(&section("per_layer")), as_owned(&per_layer()));
    let registered: Vec<String> = section("workloads")
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("name").to_owned())
        .collect();
    assert!(registered.len() >= 2);
    for name in &registered {
        assert!(Workload::parse(name).is_some(), "{name} is not a workload");
    }
}
