//! `bench_suite` — the repo's one benchmark: four named workloads, seven
//! end-to-end metrics and an outside-in per-layer trace. See README.md
//! beside this file for the tables, the time budget and how to read the
//! numbers; `BENCHMARK.json` at the repo root is the driver's contract.
//!
//! ```text
//! bench_suite --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//!             [--ledger <file>] [--spans <dir>]
//! bench_suite --smoke
//! bench_suite --compare A.jsonl B.jsonl
//! ```
//!
//! One workload runs per process (so `peak_rss_mb` is the workload's
//! own). `--trace 0` runs the untraced end-to-end section, `--trace 1`
//! the traced per-layer section, neither flag both. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is non-zero when any correctness gate fails.

mod endtoend;
mod report;
mod setup;
mod spans;
mod spec;
mod stats;
mod trace;
mod wire;

use report::Report;
use setup::Scratch;
use spec::{WorkloadDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: bench_suite --workload <name> --seed <u64> [--seconds <n>] \
[--trace 0|1] [--ledger <file>] [--spans <dir>]\n       bench_suite --smoke\n       \
bench_suite --compare <A.jsonl> <B.jsonl>";

/// Which sections a run includes.
#[derive(Clone, Copy, PartialEq)]
enum Sections {
    EndToEnd,
    Traced,
    Both,
}

struct RunOptions {
    seed: u64,
    seconds: f64,
    sections: Sections,
    smoke: bool,
    spans_dir: Option<String>,
}

/// Run one workload and return its report.
fn run_workload(def: WorkloadDef, options: &RunOptions, scratch: &Scratch) -> Report {
    let mut report = Report::default();
    let repeated = options.sections != Sections::Traced && !options.smoke;
    let (prepared, setups_s) =
        endtoend::prepare_repeated(def, options.seed, options.smoke, scratch, repeated);
    report.fact("workload", def.name);
    report.fact("seed", options.seed);
    report.fact("seconds", options.seconds);
    report.fact(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.fact("threads", setup::threads());
    report.fact("kernel", prepared.engine.kernel_name());
    report.fact(
        "llc bytes",
        setup::llc_bytes().map_or("unreadable".to_owned(), |b| b.to_string()),
    );
    report.fact("references", prepared.workload.library.len());
    report.fact("queries", prepared.workload.queries.len());
    report.fact("window", def.window.name());
    report.fact("backend", prepared.engine.backend_name());
    report.fact("image bytes", prepared.build.index_bytes);
    report.fact(
        "set-up stages s",
        format!(
            "generate {:.3} build {:.3} open+engine {:.3} reference {:.3}",
            prepared.times.generate_s,
            prepared.times.build_s,
            prepared.times.open_s,
            prepared.times.reference_s
        ),
    );

    if options.sections != Sections::Traced {
        report.put(
            "setup_s",
            stats::median(&setups_s),
            setups_s.len(),
            "measured, median of set-ups",
        );
        endtoend::run(&prepared, options.seed, options.seconds, &mut report);
        // After VmHWM was read: the copy needs two large arrays.
        let (membw, bytes) = setup::copy_bandwidth_gb_per_s(options.smoke);
        report.fact("membw GB/s", format!("{membw:.2} over {bytes} bytes"));
    }
    if options.sections != Sections::EndToEnd {
        let tracer = trace::run(&prepared, options.seed, options.seconds, &mut report);
        if let Some(dir) = &options.spans_dir {
            let path = std::path::Path::new(dir).join(format!("trace_{}.json", def.name));
            std::fs::write(&path, tracer.to_json(def.name))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            report.fact("spans written to", path.display());
        } else {
            report.fact("spans recorded", tracer.spans().len());
        }
    }
    report
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or_exit<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {raw:?} for {flag}\n{USAGE}");
        std::process::exit(2);
    })
}

fn compare(args: &[String]) -> ExitCode {
    let at = args
        .iter()
        .position(|a| a == "--compare")
        .expect("checked by the caller");
    let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("reading {path}: {e}");
            std::process::exit(2);
        })
    };
    let outcome = report::read_bounds(&read("BENCHMARK.json"))
        .and_then(|bounds| report::compare(&read(a), &read(b), &bounds));
    match outcome {
        Ok((table, any_worse)) => {
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Every workload at toy size, both sections: exercises every path of
/// the harness, including the TCP server and all the gates.
fn smoke(scratch: &Scratch) -> ExitCode {
    let options = RunOptions {
        seed: 11,
        seconds: 0.4,
        sections: Sections::Both,
        smoke: true,
        spans_dir: None,
    };
    let mut all_correct = true;
    for def in WORKLOADS {
        let report = run_workload(def, &options, scratch);
        print!("{}", report.render(&format!("smoke: {}", def.name)));
        let complete = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .all(|m| report.get(m.name).is_some());
        if !complete {
            println!("  GATE FAILED: a catalogued metric was not reported");
        }
        all_correct &= report.correct() && complete;
    }
    println!("smoke: {}", if all_correct { "ok" } else { "FAILED" });
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--compare") {
        return compare(&args);
    }
    let scratch = Scratch::create();
    if args.iter().any(|a| a == "--smoke") {
        return smoke(&scratch);
    }
    let Some(def) = value_of(&args, "--workload").and_then(WorkloadDef::find) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("--workload must be one of {}\n{USAGE}", names.join(", "));
        return ExitCode::from(2);
    };
    let options = RunOptions {
        seed: value_of(&args, "--seed").map_or(1, |v| parse_or_exit(v, "--seed")),
        seconds: value_of(&args, "--seconds")
            .map_or(DEFAULT_SECONDS, |v| parse_or_exit(v, "--seconds")),
        sections: match value_of(&args, "--trace") {
            None => Sections::Both,
            Some("0") => Sections::EndToEnd,
            Some("1") => Sections::Traced,
            Some(other) => {
                eprintln!("invalid value {other:?} for --trace\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        smoke: false,
        spans_dir: value_of(&args, "--spans").map(str::to_owned),
    };
    let report = run_workload(def, &options, &scratch);
    print!("{}", report.render(def.name));
    if let Some(path) = value_of(&args, "--ledger") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("opening ledger {path}: {e}"));
        writeln!(file, "{}", report.ledger_line(def.name, options.seed))
            .unwrap_or_else(|e| panic!("appending to ledger {path}: {e}"));
    }
    println!("{}", report.driver_line());
    // `process::exit` skips destructors: remove the scratch images first.
    drop(scratch);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
