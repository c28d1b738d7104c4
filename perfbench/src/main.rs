//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Runs one workload (or all three in turn, each in a process of its own),
//! checks every result, prints a table of every metric with its unit and
//! sample count, and ends with one JSON result line per workload. `--trace 1` reports the per-layer
//! metrics and writes the spans and the per-layer table under
//! `perfbench/out/`. Exits non-zero on a wrong result, a broken invariant,
//! a leaked device byte, unbalanced exchange bytes, or a watchdog expiry.

use std::process::{Command, ExitCode};
use std::sync::mpsc;
use std::time::Duration;

use hcj_perfbench::{run, Opts, Report, Size, WORKLOADS};

const USAGE: &str = "usage: perfbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]";

/// Wall-clock allowance per workload beyond `--seconds`.
const WATCHDOG_SLACK: Duration = Duration::from_secs(160);

fn parse_args(args: &[String]) -> Result<(Vec<String>, Opts), String> {
    let mut opts =
        Opts { workload: "all".into(), seed: 1, seconds: 10.0, trace: false, size: Size::Full };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&s| s <= 3600)
                    .ok_or("--seconds needs a whole number of at most 3600")?
                    as f64;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let names = if opts.workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else if WORKLOADS.contains(&opts.workload.as_str()) {
        vec![opts.workload.clone()]
    } else {
        return Err(format!(
            "unknown workload `{}` (known: {}, all)",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    };
    Ok((names, opts))
}

/// Run `f`; if it has not returned within `limit`, report `workload` and
/// exit with status 3.
fn with_watchdog<R>(workload: &str, limit: Duration, f: impl FnOnce() -> R) -> R {
    let (done, wait) = mpsc::channel::<()>();
    let name = workload.to_string();
    let dog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(limit) {
            eprintln!("perfbench: watchdog: workload {name} did not finish within {limit:?}");
            std::process::exit(3);
        }
    });
    let out = f();
    drop(done);
    dog.join().expect("the watchdog thread does not panic");
    out
}

/// Write the traced run's spans and per-layer table under `out/`.
fn write_trace(report: &Report) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", report.workload, report.seed);
    if let Some(spans) = &report.spans_json {
        std::fs::write(dir.join(format!("{stem}.spans.json")), spans)?;
    }
    std::fs::write(dir.join(format!("{stem}.layers.txt")), report.table())?;
    eprintln!("perfbench: spans and per-layer table written to {}", dir.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (names, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match names.as_slice() {
        [name] => run_one(Opts { workload: name.clone(), ..opts }),
        _ => run_each(&names, &opts),
    }
}

/// Run one workload in this process and print its table and result line.
fn run_one(opts: Opts) -> ExitCode {
    let limit = Duration::from_secs_f64(opts.seconds) + WATCHDOG_SLACK;
    let report = match with_watchdog(&opts.workload, limit, || run(&opts)) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.table());
    if opts.trace {
        if let Err(e) = write_trace(&report) {
            eprintln!("perfbench: cannot write the trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run each workload in a fresh process of this executable, so that peak
/// memory, allocator and thread state do not carry over between them.
/// Output passes through; the first failing status is the result.
fn run_each(names: &[String], opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = None;
    for name in names {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: workload {name} failed ({status})");
                failed = failed.or(Some(status.code().map_or(1, |c| c as u8)));
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    failed.map_or(ExitCode::SUCCESS, ExitCode::from)
}
