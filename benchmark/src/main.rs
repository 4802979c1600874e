//! `strober-ledger` — the end-to-end estimate ledger.
//!
//! One run (`--workload W --seed N --seconds S --trace 0|1`) sets a
//! workload up, repeats it, checks every result against the committed
//! goldens, prints every metric by name with its unit, and ends with one
//! JSON line. Without `--workload` it runs the whole suite, each run in
//! a process of its own. See `benchmark/README.md`.

mod bless;
mod compare;
mod golden;
mod host;
mod names;
mod oneshot;
mod report;
mod run;
mod serve;
mod stats;
mod timed_model;

use run::Options;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       run.sh [--runs N] [--seed N] [--seconds S] [--smoke] [--out FILE]    (whole suite)
       run.sh compare [--strict] A.json B.json [--benchmark BENCHMARK.json]
       run.sh --bless
       run.sh manifest                                       (print BENCHMARK.json)";

/// Seconds one run measures when the caller does not say; also
/// `run_seconds` of the generated `BENCHMARK.json`.
const RUN_SECONDS: u64 = 12;
/// Seconds each run of the suite measures when the caller does not say:
/// short enough that all five workloads, traced and untraced, finish in
/// under three minutes.
const SUITE_SECONDS: f64 = 6.0;

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    bless: bool,
    strict: bool,
    runs: Option<usize>,
    out: Option<PathBuf>,
    benchmark: Option<PathBuf>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        let bad = |v: &str| format!("{arg}: bad value `{v}`\n{USAGE}");
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a seed")?;
                args.seed = Some(parse_u64(&v).ok_or_else(|| bad(&v))?);
            }
            "--seconds" => {
                let v = value("a duration")?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                let v = value("0 or 1")?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--runs" => {
                let v = value("a count")?;
                args.runs = Some(v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(&v))?);
            }
            "--out" => args.out = Some(value("a file")?.into()),
            "--benchmark" => args.benchmark = Some(value("a file")?.into()),
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--strict" => args.strict = true,
            "-h" | "--help" => return Err(USAGE.to_owned()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

/// A private directory under the scratch root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn root() -> PathBuf {
        std::env::var_os("LEDGER_SCRATCH").map_or_else(
            || PathBuf::from(".bench_build/ledger-scratch"),
            PathBuf::from,
        )
    }

    fn new() -> Scratch {
        Scratch(Self::root().join(format!("run-{}", std::process::id())))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut text = serde_json::to_string_pretty(doc).expect("a value tree always serializes");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One run in this process. Exit code 0 when every operation was
/// correct, 1 when the result line says otherwise.
fn run_one(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let scratch = Scratch::new();
    let opts = Options {
        workload: workload.to_owned(),
        seed: args.seed.unwrap_or(golden::REFERENCE_SEED),
        seconds: args.seconds.unwrap_or(RUN_SECONDS as f64),
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch.0.clone(),
    };
    let outcome = run::run(&opts)?;
    if let Some(path) = &args.out {
        write_json(
            path,
            &report::result_file(vec![report::run_entry(&opts, &outcome)]),
        )?;
    }
    print!("{}", report::table(&opts, &outcome));
    println!("{}", report::result_line(&opts, &outcome));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The whole suite: per workload `--runs` untraced runs on consecutive
/// seeds and one traced run, each in a process of its own; prints every
/// run's table and writes one result file.
fn run_suite(args: &Args) -> Result<ExitCode, String> {
    let scratch = Scratch::new();
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let seed = args.seed.unwrap_or(golden::REFERENCE_SEED);
    let runs = args.runs.unwrap_or(1);
    let mut entries = Vec::new();
    let mut all_correct = true;
    for (workload, _) in names::WORKLOADS {
        for (i, trace) in (0..runs).map(|i| (i, false)).chain([(0, true)]) {
            let child_out = scratch.0.join("child.json");
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &seed.wrapping_add(i as u64).to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&child_out);
            cmd.args([
                "--seconds",
                &args.seconds.unwrap_or(SUITE_SECONDS).to_string(),
            ]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            // Everything but the machine-readable last line.
            let table = stdout.trim_end().rsplit_once('\n').map_or("", |(t, _)| t);
            println!("{table}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_correct &= output.status.success();
            match read_json(&child_out) {
                Ok(doc) => entries.extend(
                    doc.object_get("runs")
                        .and_then(Value::as_array)
                        .unwrap_or_default()
                        .iter()
                        .cloned(),
                ),
                Err(e) => {
                    return Err(format!(
                        "{workload}: the run left no result ({e}); exit status {}",
                        output.status
                    ))
                }
            }
            let _ = std::fs::remove_file(&child_out);
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(".bench_build/ledger-results.json"));
    write_json(&out, &report::result_file(entries))?;
    println!(
        "{} — results in {}",
        if all_correct {
            "every run correct"
        } else {
            "SOME RUNS FAILED"
        },
        out.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(format!("compare needs two result files\n{USAGE}"));
    };
    let benchmark = args
        .benchmark
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let (rows, worst) = compare::compare(
        &read_json(&benchmark)?,
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
    )?;
    print!("{rows}");
    Ok(match worst {
        compare::Verdict::Worse => ExitCode::FAILURE,
        compare::Verdict::Unresolved if args.strict => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1))?;
    // Library progress lines go to stderr at `info`; a benchmark wants
    // warnings only.
    strober_probe::set_log_level(strober_probe::Level::Warn);
    match args.positional.first().map(String::as_str) {
        Some("compare") => run_compare(&args),
        Some("manifest") => {
            print!("{}", report::benchmark_json(RUN_SECONDS));
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
        None if args.bless => {
            let scratch = Scratch::new();
            bless::bless(&scratch.0).map(|()| ExitCode::SUCCESS)
        }
        None => match &args.workload {
            Some(workload) => run_one(&args, workload),
            None => run_suite(&args),
        },
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_driver_invocation_parses() {
        let a = parse(&[
            "--workload",
            "rok-gcc-long",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("rok-gcc-long"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(17), Some(10.0), true));
        assert_eq!(
            parse(&["--seed", "0x570BE5"]).unwrap().seed,
            Some(0x57_0BE5)
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "-1"],
            &["--seed", "twelve"],
            &["--runs", "0"],
            &["--workload"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` is generated from the same tables every run emits
    /// its metrics from, so the names the binary prints are the names the
    /// file lists.
    #[test]
    fn the_generated_manifest_is_the_committed_one() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(report::benchmark_json(RUN_SECONDS), committed);
    }
}
