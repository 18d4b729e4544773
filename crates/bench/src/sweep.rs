//! One sweep for the claim experiments (E1-E16, A1-A8).
//!
//! A [`Sweep`] is a grid of named [`Axis`] values, one cell function and
//! `k` seeds per cell. Seed `k` of a cell is [`splitmix64`] folded over
//! the experiment id, the cell's key and `k` ([`seed`]), so no experiment
//! types a seed. The driver runs every cell `k` times, merges each
//! metric over the seeds into an [`Agg`] (mean/min/max for values,
//! successes out of `k` with a 95 % Wilson interval for rates, pooled
//! counts for tallies) and renders one table row and one record row per
//! cell from the axes and the aggregates. The experiment's [`Verdict`] is
//! a function of the aggregates of all its sweeps.

use crate::driver::{Check, Row, Run, RunError};
use crate::table::f;
use overlay_stats::{tv_distance_uniform, uniform_fit, wilson};
use serde_json::{json, Value};
use simnet::rng::splitmix64;
use std::fmt::Display;
use telemetry::Telemetry;

/// An experiment's verdict over the aggregates of its sweeps (`t[i]` holds
/// the cells of sweep `i`, in grid order).
pub type Verdict = fn(t: &[Vec<Agg>]) -> Vec<Check>;

/// One grid of cells, each run with `k` seeds.
pub struct Sweep {
    /// The console table's title.
    pub title: &'static str,
    /// Seeds per cell.
    pub k: u64,
    /// The named axes; the grid is their product, first axis outermost.
    pub axes: fn() -> Vec<Axis>,
    /// Runs one cell at one seed.
    pub cell: fn(&Cell, u64) -> Result<Metrics, RunError>,
}

/// A named axis: its values as the record stores them and as the table
/// shows them.
pub struct Axis {
    name: &'static str,
    levels: Vec<(Value, String)>,
}

impl Axis {
    /// Values shown as they print.
    pub fn new<T: Display + Into<Value>>(
        name: &'static str,
        vs: impl IntoIterator<Item = T>,
    ) -> Self {
        Self::shown(name, vs.into_iter().map(|v| (v.to_string(), v)))
    }

    /// Values with their own table text.
    pub fn shown<T: Into<Value>>(
        name: &'static str,
        vs: impl IntoIterator<Item = (impl Into<String>, T)>,
    ) -> Self {
        Self { name, levels: vs.into_iter().map(|(s, v)| (v.into(), s.into())).collect() }
    }
}

/// One cell of a sweep: a level of every axis.
pub struct Cell<'a> {
    /// The run's recorder.
    pub tel: &'a Telemetry,
    axes: &'a [Axis],
    at: Vec<usize>,
}

impl Cell<'_> {
    fn level(&self, axis: &str) -> (usize, &Value) {
        let i = self.axes.iter().position(|a| a.name == axis);
        let i = i.unwrap_or_else(|| panic!("no axis `{axis}`"));
        (self.at[i], &self.axes[i].levels[self.at[i]].0)
    }

    /// The position of this cell's level on `axis`.
    pub fn at(&self, axis: &str) -> usize {
        self.level(axis).0
    }

    /// This cell's level on `axis`, as an integer.
    pub fn u64(&self, axis: &str) -> u64 {
        self.level(axis).1.as_u64().unwrap_or_else(|| panic!("axis `{axis}` is not an integer"))
    }

    /// This cell's level on `axis`, as a float.
    pub fn f64(&self, axis: &str) -> f64 {
        self.level(axis).1.as_f64().unwrap_or_else(|| panic!("axis `{axis}` is not a number"))
    }

    /// The key its seeds derive from: `<sweep>#<axis>=<value>,...`.
    fn key(&self, sweep: usize) -> String {
        let level = |(a, &i): (&Axis, &usize)| {
            format!("{}={}", a.name, serde_json::to_string(&a.levels[i].0).unwrap_or_default())
        };
        format!(
            "{sweep}#{}",
            self.axes.iter().zip(&self.at).map(level).collect::<Vec<_>>().join(",")
        )
    }
}

/// Seed `k` of the cell keyed `key` in experiment `id`.
pub fn seed(id: &str, key: &str, k: u64) -> u64 {
    let bytes = id.bytes().chain([0xFF]).chain(key.bytes());
    splitmix64(bytes.fold(0, |h, b| splitmix64(h ^ u64::from(b))) ^ splitmix64(k))
}

/// `N` independent seeds from one, for a cell that seeds several things.
pub fn split<const N: usize>(seed: u64) -> [u64; N] {
    let mut s = seed;
    [(); N].map(|_| {
        s = splitmix64(s);
        s
    })
}

/// One metric over one or more runs; a run's reading is a summary of one.
#[derive(Clone, Debug)]
enum Summary {
    Value { sum: f64, min: f64, max: f64, runs: u64 },
    Rate { hits: u64, k: u64 },
    Tally(Vec<u64>),
}

impl Summary {
    fn merge(&mut self, other: Summary) {
        match (self, other) {
            (
                Summary::Value { sum, min, max, runs },
                Summary::Value { sum: s, min: lo, max: hi, runs: r },
            ) => {
                (*sum, *min, *max, *runs) = (*sum + s, min.min(lo), max.max(hi), *runs + r);
            }
            (Summary::Rate { hits, k }, Summary::Rate { hits: h, k: n }) => {
                (*hits, *k) = (*hits + h, *k + n)
            }
            (Summary::Tally(a), Summary::Tally(b)) => {
                a.iter_mut().zip(b).for_each(|(a, b)| *a += b)
            }
            (s, o) => panic!("a metric changed kind between runs: {s:?} then {o:?}"),
        }
    }

    /// The record's field and the table's text.
    fn render(&self) -> (Value, String) {
        match *self {
            Summary::Value { runs: 0, .. } => (Value::Null, "-".into()),
            Summary::Value { sum, min, max, runs } => {
                let mean = sum / runs as f64;
                let shown = if min == max {
                    num(min)
                } else {
                    format!("{} [{}, {}]", num(mean), num(min), num(max))
                };
                (json!({ "mean": mean, "min": min, "max": max, "runs": runs }), shown)
            }
            Summary::Rate { hits, k } => {
                let (lo, hi) = wilson(hits, k, 1.96);
                (
                    json!({ "hits": hits, "k": k, "lo": lo, "hi": hi }),
                    format!("{hits}/{k} [{lo:.2}, {hi:.2}]"),
                )
            }
            Summary::Tally(ref counts) => {
                let ((chi2, p), tv) =
                    (uniform_fit(counts), tv_distance_uniform(counts, counts.len()));
                let support = counts.iter().filter(|&&c| c > 0).count();
                (
                    json!({ "chi2": chi2, "p": p, "tv": tv, "support": support }),
                    format!("p {}, tv {}", f(p), f(tv)),
                )
            }
        }
    }
}

/// A count as an integer, anything else compactly (see [`f`]).
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        f(v)
    }
}

/// What one cell reports at one seed, metric by metric (every seed of a
/// sweep reports the same metrics in the same order).
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, Summary)>);

impl Metrics {
    /// No metrics yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold another run's readings (the same metrics, in order) into these.
    fn merge(&mut self, other: Metrics) {
        self.0.iter_mut().zip(other.0).for_each(|((_, s), (_, r))| s.merge(r));
    }

    fn push(mut self, name: &'static str, s: Summary) -> Self {
        self.0.push((name, s));
        self
    }

    /// A count; aggregated to mean, min and max.
    pub fn count(self, name: &'static str, v: impl TryInto<u64>) -> Self {
        self.value(name, v.try_into().map_or(f64::NAN, |v: u64| v as f64))
    }

    /// A real-valued reading; aggregated to mean, min and max.
    pub fn value(self, name: &'static str, v: f64) -> Self {
        self.maybe(name, Some(v))
    }

    /// A reading some runs do not have (e.g. a threshold never reached);
    /// aggregated over the runs that have it.
    pub fn maybe(self, name: &'static str, v: Option<f64>) -> Self {
        let (min, max) = v.map_or((f64::INFINITY, f64::NEG_INFINITY), |v| (v, v));
        self.push(
            name,
            Summary::Value { sum: v.unwrap_or(0.0), min, max, runs: v.is_some().into() },
        )
    }

    /// A success or failure; aggregated to successes out of `k` with a
    /// Wilson interval.
    pub fn rate(self, name: &'static str, ok: bool) -> Self {
        self.push(name, Summary::Rate { hits: ok.into(), k: 1 })
    }

    /// Counts per category; summed over the runs and tested against the
    /// uniform distribution.
    pub fn tally(self, name: &'static str, counts: Vec<u64>) -> Self {
        self.push(name, Summary::Tally(counts))
    }

    /// One category out of `categories`, as a tally.
    pub fn pick(self, name: &'static str, category: usize, categories: usize) -> Self {
        let mut counts = vec![0; categories];
        counts[category] += 1;
        self.tally(name, counts)
    }
}

/// One cell's aggregates: its axis levels and every metric over its `k`
/// runs.
pub struct Agg {
    levels: Vec<(&'static str, Value)>,
    metrics: Metrics,
}

impl Agg {
    fn summary(&self, name: &str) -> &Summary {
        let found = self.metrics.0.iter().find(|(m, _)| *m == name);
        &found.unwrap_or_else(|| panic!("no metric `{name}`")).1
    }

    /// `(mean, min, max)` of a value over the runs that have it.
    fn value(&self, name: &str) -> (f64, f64, f64) {
        match *self.summary(name) {
            Summary::Value { sum, min, max, runs } => (sum / runs as f64, min, max),
            _ => panic!("metric `{name}` is not a value"),
        }
    }

    /// The level of `axis`, as the record stores it.
    pub fn level(&self, axis: &str) -> &Value {
        let found = self.levels.iter().find(|(a, _)| *a == axis);
        &found.unwrap_or_else(|| panic!("no axis `{axis}`")).1
    }

    /// The level of `axis` is the string `v`.
    pub fn is(&self, axis: &str, v: &str) -> bool {
        self.level(axis).as_str() == Some(v)
    }

    /// The level of `axis`, as a float.
    pub fn at(&self, axis: &str) -> f64 {
        self.level(axis).as_f64().unwrap_or(f64::NAN)
    }

    /// Mean of a value over the runs that have it (NaN if none do).
    pub fn mean(&self, name: &str) -> f64 {
        self.value(name).0
    }

    /// Smallest value over the runs.
    pub fn min(&self, name: &str) -> f64 {
        self.value(name).1
    }

    /// Largest value over the runs.
    pub fn max(&self, name: &str) -> f64 {
        self.value(name).2
    }

    /// Successes and runs of a rate.
    fn hits(&self, name: &str) -> (u64, u64) {
        match *self.summary(name) {
            Summary::Rate { hits, k } => (hits, k),
            _ => panic!("metric `{name}` is not a rate"),
        }
    }

    /// The rate held on every seed.
    pub fn always(&self, name: &str) -> bool {
        let (hits, k) = self.hits(name);
        hits == k
    }

    /// The rate held on no seed.
    pub fn never(&self, name: &str) -> bool {
        self.hits(name).0 == 0
    }

    /// The 95 % Wilson interval of a rate.
    pub fn wilson(&self, name: &str) -> (f64, f64) {
        let (hits, k) = self.hits(name);
        wilson(hits, k, 1.96)
    }

    /// The pooled counts of a tally.
    pub fn tally(&self, name: &str) -> &[u64] {
        match self.summary(name) {
            Summary::Tally(counts) => counts,
            _ => panic!("metric `{name}` is not a tally"),
        }
    }

    /// The total-variation distance of a tally from uniform.
    pub fn tv_uniform(&self, name: &str) -> f64 {
        tv_distance_uniform(self.tally(name), self.tally(name).len())
    }

    /// The chi-square p-value of a tally against uniform.
    pub fn p_uniform(&self, name: &str) -> f64 {
        uniform_fit(self.tally(name)).1
    }
}

/// Every combination of levels, first axis outermost.
fn grid(axes: &[Axis]) -> Vec<Vec<usize>> {
    axes.iter().fold(vec![Vec::new()], |cells, axis| {
        let grow = |c: Vec<usize>| (0..axis.levels.len()).map(move |i| [&c[..], &[i]].concat());
        cells.into_iter().flat_map(grow).collect()
    })
}

/// Run every sweep of experiment `id`, add its rows to `run` and return
/// its verdict.
pub fn run(
    run: &mut Run,
    id: &str,
    sweeps: &[Sweep],
    verdict: Verdict,
) -> Result<Vec<Check>, RunError> {
    let mut tables = Vec::new();
    for (si, sweep) in sweeps.iter().enumerate() {
        run.table(sweep.title);
        let axes = (sweep.axes)();
        let mut aggs = Vec::new();
        for at in grid(&axes) {
            let cell = Cell { tel: &run.tel, axes: &axes, at };
            let key = cell.key(si);
            let mut merged: Option<Metrics> = None;
            for k in 0..sweep.k {
                let m = (sweep.cell)(&cell, seed(id, &key, k))?;
                match merged.as_mut() {
                    None => merged = Some(m),
                    Some(all) => all.merge(m),
                }
            }
            let mut row = Row::new();
            let mut levels = Vec::new();
            for (a, &i) in axes.iter().zip(&cell.at) {
                let (v, shown) = &a.levels[i];
                row = row.show(a.name.replace('_', " "), shown.clone()).key(a.name, v.clone());
                levels.push((a.name, v.clone()));
            }
            let metrics = merged.unwrap_or_default();
            for (name, s) in &metrics.0 {
                let (v, shown) = s.render();
                row = row.show(name.replace('_', " "), shown).key(name, v);
            }
            run.row(row.key("k", sweep.k));
            aggs.push(Agg { levels, metrics });
        }
        tables.push(aggs);
    }
    Ok(verdict(&tables))
}

/// Every seed a sweep of `id` runs, with its cell key and `k`, in run
/// order (nothing is run).
pub fn seeds(id: &str, sweeps: &[Sweep]) -> Vec<(String, u64, u64)> {
    let tel = Telemetry::disabled();
    let mut out = Vec::new();
    for (si, sweep) in sweeps.iter().enumerate() {
        let axes = (sweep.axes)();
        for at in grid(&axes) {
            let key = Cell { tel: &tel, axes: &axes, at }.key(si);
            out.extend((0..sweep.k).map(|k| (key.clone(), k, seed(id, &key, k))));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_merge_into_mean_min_max_hits_and_pooled_counts() {
        let run = |v: f64, ok: bool, c: usize| {
            let m = Metrics::new().value("v", v).rate("ok", ok).pick("c", c, 2);
            m.maybe("t", ok.then_some(v))
        };
        let mut m = run(1.0, true, 0);
        m.merge(run(3.0, false, 1));
        m.merge(run(2.0, true, 1));
        let a = Agg { levels: vec![("n", 4u64.into())], metrics: m };
        assert_eq!((a.mean("v"), a.min("v"), a.max("v")), (2.0, 1.0, 3.0));
        assert_eq!((a.hits("ok"), a.always("ok"), a.never("ok")), ((2, 3), false, false));
        assert_eq!(a.tally("c"), &[1, 2]);
        assert_eq!((a.mean("t"), a.max("t")), (1.5, 2.0));
        assert_eq!(a.at("n"), 4.0);
        let (shown, hits) = (a.summary("ok").render().1, a.summary("v").render().1);
        assert_eq!((shown.as_str(), hits.as_str()), ("2/3 [0.21, 0.94]", "2 [1, 3]"));
    }

    #[test]
    fn the_grid_is_the_product_of_the_axes_first_axis_outermost() {
        let axes = [Axis::new("a", [1u64, 2]), Axis::new("b", ["x", "y", "z"])];
        let cells = grid(&axes);
        assert_eq!(cells.len(), 6);
        assert_eq!(
            (cells[0].clone(), cells[1].clone(), cells[3].clone()),
            (vec![0, 0], vec![0, 1], vec![1, 0])
        );
        let tel = Telemetry::disabled();
        let cell = Cell { tel: &tel, axes: &axes, at: cells[4].clone() };
        assert_eq!((cell.u64("a"), cell.at("b"), cell.key(2)), (2, 1, "2#a=2,b=\"y\"".to_string()));
    }
}
