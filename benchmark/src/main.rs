//! The repo benchmark (see `BENCHMARK.json` and `benchmark/README.md`).
//!
//! ```text
//! overlay-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! overlay-benchmark all   [--seed N] [--seconds S] [--traced]       every workload, one process each
//! overlay-benchmark check --manifest BENCHMARK.json                 smoke sizes + manifest consistency
//! overlay-benchmark compare --manifest BENCHMARK.json A.json B.json two `all` documents within bounds?
//! ```
//!
//! A single run prints a detail document and then, as the last line of its
//! standard output, the result object the driver reads.

mod harness;
mod layers;
mod single;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Size;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Seed used when none is given; it only ever reaches input generators.
const DEFAULT_SEED: u64 = 11;

/// Command-line options shared by every mode.
#[derive(Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub traced: bool,
    pub size: Size,
    pub out_dir: PathBuf,
    pub manifest: PathBuf,
    pub positional: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: overlay-benchmark [all|check|compare] [--workload W] [--seed N] [--seconds S]\n\
         \x20      [--trace 0|1 | --traced] [--smoke] [--out DIR] [--manifest BENCHMARK.json] [FILES]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        size: Size::Full,
        out_dir: PathBuf::from("benchmark/out"),
        manifest: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                o.seed = value("--seed")?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--traced" => o.traced = true,
            "--smoke" => o.size = Size::Smoke,
            "--out" => o.out_dir = PathBuf::from(value("--out")?),
            "--manifest" => o.manifest = PathBuf::from(value("--manifest")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("overlay-benchmark: {e}");
            return usage();
        }
    };
    let mode = if opts.positional.is_empty() { None } else { Some(opts.positional.remove(0)) };
    let outcome = match mode.as_deref() {
        None => single_run(&opts),
        Some("all") => suite::all(&opts),
        Some("check") => suite::check(&opts),
        Some("compare") => suite::compare(&opts),
        Some(other) => Err(format!("unknown mode {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("overlay-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The driver's unit: one workload, one process. A failed correctness
/// check is reported through `correct: false` in the result line, and the
/// exit code stays 0 so the driver can read it.
fn single_run(opts: &Options) -> Result<bool, String> {
    let name = opts.workload.as_deref().ok_or("--workload is required (or use `all`)")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let out = single::run(&single::RunArgs {
        workload,
        seed: opts.seed,
        seconds: opts.seconds.unwrap_or(suite::DEFAULT_SECONDS),
        traced: opts.traced,
        size: opts.size,
        out_dir: &opts.out_dir,
    });
    let line = |v: &serde_json::Value| serde_json::to_string(v).expect("document serializes");
    println!("{}", line(&serde_json::json!({ "detail": out.detail })));
    println!("{}", line(&out.result));
    Ok(true)
}
