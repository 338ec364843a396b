//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric with its unit, the output checks, and as
//! its last line a JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 without a result if the benchmark
//! itself cannot run, and 2 on bad arguments.

use std::process::ExitCode;

use pwdb_perfbench::{run, Options, Workload};

/// Store files of running benchmarks, relative to the working directory.
const WORK_ROOT: &str = ".perfbench_work";

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        full: true,
        work_dir: format!("{WORK_ROOT}/{}", std::process::id()).into(),
    };
    let result = run(&opts);
    // Removed only once no other run is using it.
    let _ = std::fs::remove_dir(WORK_ROOT);
    match result {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
