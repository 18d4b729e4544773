//! The one experiment driver: `exp <ID> [--smoke] [--cores LIST] [--seed N]`.
//!
//! An experiment (an entry of [`crate::exp::ALL`]) only computes its rows.
//! Everything around that lives here and nowhere else: the flag grammar,
//! the engine-knob check, the telemetry recorder, table printing, the
//! files written (`results/<id>.json` and `<id>_telemetry.json` under
//! `OUT_DIR_RESULTS`, `BENCH_<name>.json` at the working directory, with
//! the host facts) and the typed exit, which is 1 when a claimed check of
//! a swept experiment's verdict fails. `--smoke` runs check and write no
//! file at all.

use crate::runner::{cpu_model, host_cpus, write_json, ExperimentResult};
use crate::sweep::{Sweep, Verdict};
use crate::table::{f, Table};
use crate::telemetry_out::write_telemetry;
use reconfig_core::backend::Backend;
use serde_json::{json, Map, Value};
use std::fmt::Display;
use telemetry::Telemetry;

/// One registry entry: what the experiment claims, which flags it takes,
/// and the function that computes its rows.
pub struct Experiment {
    /// The id EXPERIMENTS.md uses (`E1`, `A7`, `P2`, ...).
    pub id: &'static str,
    /// Human title; also the title of its `BENCH_*.json` record.
    pub title: &'static str,
    /// The paper claim (or design question) it checks.
    pub claim: &'static str,
    /// Computes the rows into the [`Run`].
    pub run: Body,
    /// Takes `--smoke`.
    pub smoke: bool,
    /// Takes `--cores`: the run repeats once per rayon pool size.
    pub cores: Option<Pools>,
    /// Takes `--seed`, with this default.
    pub seed: Option<u64>,
    /// Writes its telemetry capture next to its results.
    pub telemetry: bool,
}

/// What an entry runs: its own function, or sweeps the driver runs and
/// judges (every E and A entry).
#[derive(Clone, Copy)]
pub enum Body {
    /// Computes its rows, tables and records itself.
    Fn(fn(&mut Run) -> Result<(), RunError>),
    /// Sweeps, whose aggregates give the rows and the verdict.
    Sweep(&'static [Sweep], Verdict),
}

/// The `--cores` a run takes.
#[derive(Clone, Copy, Debug)]
pub struct Pools {
    /// Pool size without the flag (0 = `RAYON_NUM_THREADS` or the host).
    pub default: usize,
    /// A comma-separated list is allowed, not just one size.
    pub list: bool,
}

impl Experiment {
    /// An entry that takes no flags and writes no telemetry.
    pub const fn new(
        id: &'static str,
        title: &'static str,
        claim: &'static str,
        run: fn(&mut Run) -> Result<(), RunError>,
    ) -> Self {
        let run = Body::Fn(run);
        Self { id, title, claim, run, smoke: false, cores: None, seed: None, telemetry: false }
    }

    /// An entry that runs `sweeps`, judges them by `verdict` and takes no
    /// flags.
    pub const fn swept(
        id: &'static str,
        title: &'static str,
        claim: &'static str,
        sweeps: &'static [Sweep],
        verdict: Verdict,
    ) -> Self {
        let run = Body::Sweep(sweeps, verdict);
        Self { id, title, claim, run, smoke: false, cores: None, seed: None, telemetry: false }
    }

    fn body(&self, run: &mut Run) -> Result<(), RunError> {
        match self.run {
            Body::Fn(f) => f(run),
            Body::Sweep(sweeps, verdict) => {
                run.verdict = crate::sweep::run(run, self.id, sweeps, verdict)?;
                Ok(())
            }
        }
    }

    /// The same entry, writing its telemetry capture.
    pub const fn with_telemetry(self) -> Self {
        Self { telemetry: true, ..self }
    }

    /// The flags this entry takes, as the usage line spells them.
    fn flags(&self) -> String {
        let cores = self.cores.map(|p| if p.list { "--cores LIST" } else { "--cores N" });
        let flags = [self.smoke.then_some("--smoke"), cores, self.seed.map(|_| "--seed N")];
        let flags: Vec<&str> = flags.into_iter().flatten().collect();
        if flags.is_empty() {
            "no flags".into()
        } else {
            flags.join(", ")
        }
    }
}

/// A run that cannot finish: what it was doing and why it failed. The
/// driver prints it and exits with status 1, instead of a panic backtrace.
#[derive(Debug)]
pub struct RunError {
    /// What the run was doing (e.g. `write results/a7.json`).
    pub what: String,
    /// The underlying error text.
    pub reason: String,
}

impl Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot {}: {}", self.what, self.reason)
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Build an error for a failed action.
    pub fn new(what: impl Into<String>, reason: impl Display) -> Self {
        Self { what: what.into(), reason: reason.to_string() }
    }
}

/// The parsed command line of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `--smoke` was given.
    pub smoke: bool,
    /// Rayon pool sizes (`[]` for an entry without `--cores`).
    pub cores: Vec<usize>,
    /// `--seed`, or the entry's default (0 for an entry without it).
    pub seed: u64,
}

/// The grammar, printed with every usage error.
pub fn usage() -> String {
    let ids: Vec<&str> = crate::exp::ALL.iter().map(|e| e.id).collect();
    format!("usage: exp <ID> [--smoke] [--cores LIST] [--seed N]\nids: {}", ids.join(" "))
}

/// Parse `<ID> [flags]` against the registry. Every mistake is an error
/// naming it: an unknown id or flag, a flag the entry does not take, a
/// missing or malformed value.
pub fn parse(args: &[String]) -> Result<(&'static Experiment, Args), String> {
    let (id, flags) = args.split_first().ok_or("missing experiment id")?;
    let exp = crate::exp::ALL
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| format!("unknown experiment `{id}`"))?;
    let mut out = Args {
        smoke: false,
        cores: exp.cores.map(|p| vec![p.default]).unwrap_or_default(),
        seed: exp.seed.unwrap_or(0),
    };
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let taken = match flag.as_str() {
            "--smoke" => exp.smoke,
            "--cores" => exp.cores.is_some(),
            "--seed" => exp.seed.is_some(),
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        if !taken {
            return Err(format!("{} does not take `{flag}` (it takes {})", exp.id, exp.flags()));
        }
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = flags.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if flag == "--seed" {
            out.seed = value
                .parse()
                .map_err(|_| format!("`--seed` takes an unsigned integer, got `{value}`"))?;
            continue;
        }
        let list: Option<Vec<usize>> =
            value.split(',').map(|k| k.parse().ok().filter(|&k: &usize| k > 0)).collect();
        out.cores = match list {
            Some(l) if l.len() == 1 || exp.cores.is_some_and(|p| p.list) => l,
            Some(_) => return Err(format!("{} takes one `--cores` size, got `{value}`", exp.id)),
            None => {
                return Err(format!(
                    "`--cores` takes positive integers separated by commas, got `{value}`"
                ))
            }
        };
    }
    Ok((exp, out))
}

/// One table row, given once: each cell feeds the console table, the JSON
/// record, or both.
#[derive(Default)]
pub struct Row {
    cells: Vec<(String, String)>,
    json: Map,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// A column shown as `v` prints and recorded under `key`.
    pub fn cell(
        self,
        header: &'static str,
        key: &'static str,
        v: impl Display + Into<Value>,
    ) -> Self {
        let shown = v.to_string();
        self.cell_as(header, key, v, shown)
    }

    /// A float column, shown compactly (see [`f`]).
    pub fn float(self, header: &'static str, key: &'static str, v: f64) -> Self {
        self.cell_as(header, key, v, f(v))
    }

    /// A column shown as `shown` and recorded as `v` under `key`.
    pub fn cell_as(
        self,
        header: &'static str,
        key: &'static str,
        v: impl Into<Value>,
        shown: impl Into<String>,
    ) -> Self {
        self.show(header, shown).key(key, v)
    }

    /// A column only the table shows.
    pub fn show(mut self, header: impl Into<String>, shown: impl Into<String>) -> Self {
        self.cells.push((header.into(), shown.into()));
        self
    }

    /// A field only the JSON record carries.
    pub fn key(mut self, key: &'static str, v: impl Into<Value>) -> Self {
        self.json.insert(key.to_string(), v.into());
        self
    }
}

/// One statement of an experiment's verdict and whether its rows bear it
/// out. A claimed check is what the experiment's claim asserts: when one
/// fails, `exp` writes the record and exits 1. A control check records a
/// reading the claim does not rest on (e.g. that the 0-late attack wins).
#[derive(Clone, Debug)]
pub struct Check {
    /// The statement, in the experiment's terms.
    pub says: &'static str,
    /// The claim rests on it.
    pub claimed: bool,
    /// The rows bear it out.
    pub holds: bool,
}

impl Check {
    /// A statement the claim rests on.
    pub fn claim(says: &'static str, holds: bool) -> Self {
        Self { says, claimed: true, holds }
    }

    /// A control reading, recorded either way.
    pub fn control(says: &'static str, holds: bool) -> Self {
        Self { says, claimed: false, holds }
    }

    fn json(&self) -> Value {
        json!({ "says": self.says, "claimed": self.claimed, "holds": self.holds })
    }
}

/// `Some(v)` as `v`, `None` as JSON `null`.
pub fn or_null<T: Into<Value>>(v: Option<T>) -> Value {
    v.map_or(Value::Null, Into::into)
}

/// What an experiment sees while it runs, and what it hands back.
pub struct Run {
    /// `--smoke` was given.
    pub smoke: bool,
    /// The `--cores` pool sizes (the run repeats inside each pool).
    pub cores: Vec<usize>,
    /// `--seed`.
    pub seed: u64,
    /// Logical CPUs of the host, for rows that record it.
    pub host_cpus: usize,
    /// The recorder (`TELEMETRY*` knobs); captured after the run if the
    /// entry writes telemetry.
    pub tel: Telemetry,
    title: String,
    table: Option<Table>,
    rows: Vec<Value>,
    verdict: Vec<Check>,
    bench: Option<(&'static str, Value)>,
}

impl Run {
    fn new(args: Args, tel: Telemetry) -> Self {
        let Args { smoke, cores, seed } = args;
        let (title, table, rows, bench) = (String::new(), None, Vec::new(), None);
        let (host_cpus, verdict) = (host_cpus(), Vec::new());
        Self { smoke, cores, seed, host_cpus, tel, title, table, rows, verdict, bench }
    }

    /// Start a new console table (printing the one before it).
    pub fn table(&mut self, title: impl Into<String>) {
        self.flush();
        self.title = title.into();
    }

    /// Add a row to the current table and, if it has JSON fields, to the
    /// result's rows.
    pub fn row(&mut self, row: Row) {
        let headers: Vec<&str> = row.cells.iter().map(|(h, _)| h.as_str()).collect();
        let table = self.table.get_or_insert_with(|| Table::new(&self.title, &headers));
        assert!(table.headers().iter().eq(&headers), "row headers differ from the table's");
        table.row(row.cells.into_iter().map(|(_, c)| c).collect());
        if !row.json.is_empty() {
            self.rows.push(Value::Object(row.json));
        }
    }

    /// Print the current table, then `line`.
    pub fn note(&mut self, line: impl Display) {
        self.flush();
        println!("{line}");
    }

    /// The JSON rows so far.
    pub fn rows(&self) -> &[Value] {
        &self.rows
    }

    /// Take the JSON rows so far, for a record other than the result.
    pub fn take_rows(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.rows)
    }

    /// Set the `BENCH_<name>.json` record a full run writes; the driver
    /// adds `bench`, `title` and the host facts to `body`'s fields. The
    /// last call wins.
    pub fn bench(&mut self, name: &'static str, body: Value) {
        self.bench = Some((name, body));
    }

    fn flush(&mut self) {
        if let Some(t) = self.table.take() {
            t.print();
            println!();
        }
    }
}

/// The `exp` binary.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (exp, args) = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        std::process::exit(2)
    });
    if let Err(e) = drive(exp, args) {
        eprintln!("error: {e}");
        std::process::exit(1)
    }
}

fn drive(exp: &Experiment, args: Args) -> Result<(), RunError> {
    Backend::from_env().map_err(|e| RunError::new("read the engine knob", e))?;
    let tel = Telemetry::from_env().map_err(|e| RunError::new("read the telemetry knobs", e))?;
    let mut run = Run::new(args, tel);
    if run.cores.is_empty() {
        exp.body(&mut run)?;
    }
    for k in run.cores.clone() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(k)
            .build()
            .map_err(|e| RunError::new("build the rayon thread pool", e))?;
        pool.install(|| exp.body(&mut run))?;
    }
    run.flush();
    for c in &run.verdict {
        let kind = if c.claimed { "claim" } else { "control" };
        println!("verdict {kind}: {} — {}", c.says, if c.holds { "holds" } else { "FAILS" });
    }
    if run.smoke {
        return Ok(());
    }
    let hint = "check OUT_DIR_RESULTS, free space and permissions";
    if !run.rows.is_empty() {
        let result = ExperimentResult {
            id: exp.id.into(),
            title: exp.title.into(),
            claim: exp.claim.into(),
            rows: run.take_rows(),
            verdict: run.verdict.iter().map(Check::json).collect(),
        };
        let path = write_json(&result).map_err(|e| {
            RunError::new(format!("write results/{}.json", exp.id.to_lowercase()), hint_on(e, hint))
        })?;
        println!("json: {}", path.display());
    }
    if let Some((name, body)) = run.bench.take() {
        let mut record = json!({
            "bench": name,
            "title": exp.title,
            "host_cpus": run.host_cpus,
            "cpu": cpu_model(),
            "target_arch": std::env::consts::ARCH,
        });
        if let (Value::Object(r), Value::Object(b)) = (&mut record, body) {
            r.extend(b);
        }
        let path = format!("BENCH_{name}.json");
        let pretty = serde_json::to_string_pretty(&record)
            .map_err(|e| RunError::new(format!("serialize {path}"), e))?;
        std::fs::write(&path, pretty + "\n")
            .map_err(|e| RunError::new(format!("write {path}"), hint_on(e, "check permissions")))?;
        println!("bench: {path}");
    }
    if exp.telemetry {
        let written = write_telemetry(exp.id, &run.tel, &[("claim", exp.claim)])
            .map_err(|e| RunError::new("write telemetry", hint_on(e, hint)))?;
        if let Some(path) = written {
            println!("telemetry: {}", path.display());
        }
    }
    match run.verdict.iter().find(|c| c.claimed && !c.holds) {
        Some(c) => Err(RunError::new(format!("confirm {}'s claim", exp.id), c.says)),
        None => Ok(()),
    }
}

fn hint_on(e: impl Display, hint: &str) -> String {
    format!("{e} — {hint}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<(&'static str, Args), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args).map(|(e, a)| (e.id, a))
    }

    #[test]
    fn defaults_and_accepted_flags() {
        let args = |smoke, cores: &[usize], seed| Args { smoke, cores: cores.to_vec(), seed };
        for (line, id, want) in [
            ("E1", "E1", args(false, &[], 0)),
            ("A7", "A7", args(false, &[], 0)),
            ("S1", "S1", args(false, &[0], 0)),
            ("S1 --smoke --cores 1,2", "S1", args(true, &[1, 2], 0)),
            ("P1", "P1", args(false, &[1], 0)),
            ("P1 --cores 2", "P1", args(false, &[2], 0)),
            ("P2", "P2", args(false, &[], 11)),
            ("P3 --seed 23 --smoke", "P3", args(true, &[], 23)),
        ] {
            assert_eq!(parsed(line), Ok((id, want)), "{line}");
        }
    }

    /// Every mistake is an error naming it, before any work.
    #[test]
    fn mistakes_are_errors() {
        for (line, want) in [
            // A missing or unknown id.
            ("", "missing experiment id"),
            ("E99", "unknown experiment `E99`"),
            ("e1", "unknown experiment `e1`"),
            ("exp_a6_adaptive_adversary", "unknown experiment"),
            // An unknown flag.
            ("A6 --smok", "unknown flag `--smok`"),
            ("E1 extra", "unknown flag `extra`"),
            ("S1 --cores=2", "unknown flag `--cores=2`"),
            // A flag the entry does not take.
            ("E11 --smoke", "E11 does not take `--smoke` (it takes no flags)"),
            ("A6 --smoke", "A6 does not take `--smoke`"),
            ("P2 --cores 2", "(it takes --smoke, --seed N)"),
            ("S1 --seed 3", "(it takes --smoke, --cores LIST)"),
            // A missing value.
            ("P2 --seed", "`--seed` needs a value"),
            ("S1 --cores", "`--cores` needs a value"),
            // A malformed value.
            ("P2 --seed x", "unsigned integer, got `x`"),
            ("P3 --seed -1", "unsigned integer, got `-1`"),
            ("S1 --cores 0", "positive integers separated by commas, got `0`"),
            ("S1 --cores 1,,2", "got `1,,2`"),
            ("S1 --cores two", "got `two`"),
            ("P1 --cores 1,2", "P1 takes one `--cores` size, got `1,2`"),
        ] {
            let err = parsed(line).expect_err(line);
            assert!(err.contains(want), "`{line}`: {err}");
        }
    }

    #[test]
    fn a_row_feeds_the_table_and_the_record() {
        let mut run =
            Run::new(Args { smoke: false, cores: vec![], seed: 0 }, Telemetry::disabled());
        run.row(Row::new().cell("n", "n", 4u64).float("tv", "tv", 0.5).show("ok", "yes"));
        run.row(Row::new().cell("n", "n", 8u64).float("tv", "tv", 0.25).show("ok", "no"));
        run.row(
            Row::new()
                .cell("n", "n", 9u64)
                .show("tv", "-")
                .show("ok", "-")
                .key("x", or_null(None::<u64>)),
        );
        let shown = run.table.as_ref().unwrap().render();
        assert!(shown.contains("0.2500") && shown.contains("yes"), "{shown}");
        assert_eq!(run.rows()[0], json!({"n": 4u64, "tv": 0.5}));
        assert_eq!(run.rows()[2], json!({"n": 9u64, "x": Value::Null}));
        assert_eq!(run.take_rows().len(), 3);
        assert!(run.rows().is_empty());
    }
}
