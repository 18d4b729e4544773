//! Checkpointed adversarial soak runs.
//!
//! Drives an overlay family against an adaptive adversary for as many
//! epochs as asked, writing crash-consistent checkpoints every `k` rounds
//! through [`simnet::checkpoint::Checkpointer`]. Kill the process at any
//! point and rerun with `--resume`: the overlay restarts from
//! `latest.json` with its RNG mid-stream and continues to the target —
//! the checkpoint/resume digest differential in
//! `tests/checkpoint_resume.rs` is what certifies the trajectory is the
//! one the uninterrupted run would have taken. (The adversary itself
//! restarts cold and re-observes; overlay state, not attacker state, is
//! what a soak protects.)
//!
//! Every round is monitored for disconnection and family-specific
//! structural violations. When a fresh (non-resumed) run catches a
//! violation, the recorded adversary trace is delta-debugged down to a
//! minimal reproducing prefix and written next to the checkpoints as a
//! replayable repro file.
//!
//! ```text
//! soak --family dos --epochs 200 --every 64 --dir soak-out
//! soak --family dos --epochs 200 --every 64 --dir soak-out --resume
//! ```

use overlay_adversary::adaptive::{AdaptiveHarness, AdaptiveStrategy};
use overlay_adversary::shrink::{shrink_trace, AdversaryTrace, ReplayAdversary, Repro};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};
use reconfig_core::monitor::{Invariant, InvariantMonitor};
use simnet::checkpoint::Checkpointer;
use simnet::Checkpoint;
use std::path::Path;
use std::process::ExitCode;

struct Opts {
    family: String,
    epochs: u64,
    every: Option<u64>,
    dir: String,
    resume: bool,
    seed: u64,
    bound: f64,
    strategy: String,
    lateness_epochs: u64,
    n: usize,
    /// The DoS overlay's group constant; `None` keeps its default.
    group_c: Option<f64>,
}

impl Opts {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut o = Self {
            family: "dos".into(),
            epochs: 50,
            every: None,
            dir: "soak-out".into(),
            resume: false,
            seed: 0x50AC,
            bound: 0.1,
            strategy: "adaptive:min-cut".into(),
            lateness_epochs: 0,
            n: 512,
            group_c: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--family" => o.family = val("--family")?,
                "--epochs" => o.epochs = parse(&val("--epochs")?, "--epochs")?,
                "--every" => o.every = Some(parse(&val("--every")?, "--every")?),
                "--dir" => o.dir = val("--dir")?,
                "--resume" => o.resume = true,
                "--seed" => o.seed = parse(&val("--seed")?, "--seed")?,
                "--bound" => o.bound = parse(&val("--bound")?, "--bound")?,
                "--strategy" => o.strategy = val("--strategy")?,
                "--lateness-epochs" => {
                    o.lateness_epochs = parse(&val("--lateness-epochs")?, "--lateness-epochs")?
                }
                "--n" => o.n = parse(&val("--n")?, "--n")?,
                "--group-c" => o.group_c = Some(parse(&val("--group-c")?, "--group-c")?),
                "--help" | "-h" => {
                    println!(
                        "usage: soak [--family dos|churndos] [--epochs E] [--every ROUNDS] \
                         [--dir PATH] [--resume] [--seed S] [--bound R] [--strategy NAME] \
                         [--lateness-epochs L] [--n N] [--group-c C (dos only, C >= 1)]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !(0.0..1.0).contains(&o.bound) {
            return Err(format!("--bound must be in [0, 1), got {}", o.bound));
        }
        // The smallest population each family can group: four nodes for
        // the hypercube of groups, one supernode's band for churndos.
        let min_n =
            if o.family == "churndos" { 4 * ChurnDosParams::default().band_c + 1 } else { 4 };
        if o.n < min_n {
            return Err(format!(
                "--n must be at least {min_n} for --family {}, got {}",
                o.family, o.n
            ));
        }
        if let Some(c) = o.group_c {
            if o.family != "dos" {
                return Err(format!(
                    "--group-c sets the DoS overlay's group constant; --family {} does not read it",
                    o.family
                ));
            }
            // Below 1 the hypercube gets so many supernodes that some stay
            // empty, which the connectivity check reports as a violation.
            if !(c.is_finite() && c >= 1.0) {
                return Err(format!(
                    "--group-c must be finite and at least 1 (Lemma 16: groups of at least \
                     log2 n expected members), got {c:?}"
                ));
            }
        }
        Ok(o)
    }
}

fn parse<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{name}: cannot parse {s:?}"))
}

/// `epochs` epochs of `epoch_len` rounds, or a usage error naming `flag`
/// when the product does not fit the round counter.
fn epochs_to_rounds(flag: &str, epochs: u64, epoch_len: u64) -> Result<u64, String> {
    epochs.checked_mul(epoch_len).ok_or_else(|| {
        format!("{flag} {epochs} is too large: {epochs} epochs of {epoch_len} rounds overflow u64")
    })
}

fn adversary(o: &Opts, lateness: u64) -> Result<AdaptiveHarness<AdaptiveStrategy>, String> {
    let strategy = AdaptiveStrategy::by_name(&o.strategy)
        .ok_or_else(|| format!("unknown strategy {:?} (see AdaptiveStrategy::all)", o.strategy))?;
    Ok(AdaptiveHarness::new(strategy, o.bound, lateness).recording())
}

/// The invariants a soak watches: connectivity of the non-blocked
/// overlay and the family's structural band.
const WATCHED: [Invariant; 2] = [Invariant::Connectivity, Invariant::GroupSizeBand];

/// Has the monitor recorded a violation of a watched invariant?
fn violated(monitor: &InvariantMonitor) -> bool {
    WATCHED.iter().any(|&inv| monitor.count(inv) > 0)
}

/// The soak loop, generic over the overlay family: a paper-model
/// [`FaultyRunner`] stepped one attacked round at a time.
fn soak<O, F>(ov: O, mk_fresh: F, digest: fn(&O) -> u64, o: &Opts) -> Result<ExitCode, String>
where
    O: HealableOverlay + Checkpoint,
    F: Fn() -> O,
{
    let epoch_len = ov.epoch_len();
    let total_rounds = epochs_to_rounds("--epochs", o.epochs, epoch_len)?;
    let lateness = epochs_to_rounds("--lateness-epochs", o.lateness_epochs, epoch_len)?;
    let every = o.every.unwrap_or(epoch_len).max(1);
    let resumed_at = ov.round();
    let mut ckpt = Checkpointer::checkpoint_every(every, &o.dir).map_err(|e| format!("{e:?}"))?;
    let mut adv = adversary(o, lateness)?;
    println!(
        "soak: family={} n={} strategy={} bound={} lateness={}t rounds {}..{} \
         checkpoint every {every} rounds into {}",
        o.family,
        ov.len(),
        adv.strategy_name(),
        o.bound,
        o.lateness_epochs,
        resumed_at,
        total_rounds,
        o.dir,
    );

    let mut runner = FaultyRunner::paper_model(ov);
    let mut first_violation: Option<(u64, String)> = None;
    while runner.overlay.round() < total_rounds {
        runner.run(&mut adv, 1);
        let (ov, monitor) = (&runner.overlay, &runner.monitor);
        if first_violation.is_none() && violated(monitor) {
            let v = monitor.violations().iter().find(|v| WATCHED.contains(&v.invariant));
            let why =
                v.map_or_else(String::new, |v| format!("{}: {}", v.invariant.name(), v.detail));
            first_violation = Some((ov.round(), why));
        }
        if ov.round() % every == 0 {
            ckpt.save(ov.round(), &ov.save()).map_err(|e| format!("{e:?}"))?;
        }
        if ov.round() % (10 * epoch_len) == 0 {
            println!(
                "  round {}/{total_rounds}: epochs {} (failed {}), disconnected rounds {}, \
                 checkpoints {}",
                ov.round(),
                ov.epochs(),
                ov.failed_epochs(),
                monitor.count(Invariant::Connectivity),
                ckpt.written(),
            );
        }
    }
    let ov = &runner.overlay;
    println!(
        "done: {} rounds, {} epochs ({} failed), {} disconnected rounds, {} checkpoints, \
         final digest {:#018x}",
        ov.round(),
        ov.epochs(),
        ov.failed_epochs(),
        runner.monitor.count(Invariant::Connectivity),
        ckpt.written(),
        digest(ov),
    );

    let Some((round, why)) = first_violation else {
        return Ok(ExitCode::SUCCESS);
    };
    println!("VIOLATION at round {round}: {why}");
    if resumed_at != 0 {
        println!("(resumed run: trace starts mid-flight, skipping the shrinker)");
        return Ok(ExitCode::FAILURE);
    }
    // Shrink the recorded trace to a minimal reproducing prefix. The
    // oracle replays candidate traces against a fresh overlay.
    let original = AdversaryTrace::from_emissions(adv.trace());
    let violates = |t: &AdversaryTrace| {
        let mut runner = FaultyRunner::paper_model(mk_fresh());
        runner.run(&mut ReplayAdversary::new(t.clone()), t.len() as u64);
        violated(&runner.monitor)
    };
    let (shrunk, report) = shrink_trace(&original, violates, 500);
    let repro = Repro {
        family: o.family.clone(),
        strategy: adv.strategy_name().to_string(),
        seed: o.seed,
        n: o.n,
        bound: o.bound,
        lateness,
        trace: shrunk,
    };
    let path = Path::new(&o.dir).join("violation.repro.json");
    repro.write(&path).map_err(|e| format!("{e:?}"))?;
    println!(
        "shrunk {:?} -> {:?} in {} oracle runs; repro: {}",
        report.original,
        report.shrunk,
        report.tests_run,
        path.display(),
    );
    Ok(ExitCode::FAILURE)
}

fn run() -> Result<ExitCode, String> {
    let o = Opts::parse(std::env::args().skip(1))?;
    let dir = Path::new(&o.dir);
    match o.family.as_str() {
        "dos" => {
            let defaults = DosParams::default();
            let params = DosParams { group_c: o.group_c.unwrap_or(defaults.group_c), ..defaults };
            let ov = if o.resume {
                let (path, ov) =
                    Checkpointer::latest::<DosOverlay>(dir).map_err(|e| format!("resume: {e}"))?;
                eprintln!("soak: resuming from {}", path.display());
                ov
            } else {
                DosOverlay::new(o.n, params, o.seed)
            };
            soak(ov, || DosOverlay::new(o.n, params, o.seed), DosOverlay::state_digest, &o)
        }
        "churndos" => {
            let params = ChurnDosParams::default();
            let ov = if o.resume {
                let (path, ov) = Checkpointer::latest::<ChurnDosOverlay>(dir)
                    .map_err(|e| format!("resume: {e}"))?;
                eprintln!("soak: resuming from {}", path.display());
                ov
            } else {
                ChurnDosOverlay::new(o.n, params, o.seed)
            };
            soak(
                ov,
                || ChurnDosOverlay::new(o.n, params, o.seed),
                ChurnDosOverlay::state_digest,
                &o,
            )
        }
        other => Err(format!("unknown family {other:?} (dos | churndos)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("soak: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_group_constant_below_one_is_a_usage_error() {
        for c in ["4.9e-324", "0.5", "0.999", "NaN", "inf"] {
            let err = opts(&["--group-c", c]).err().unwrap_or_else(|| panic!("accepted {c}"));
            assert!(err.contains("--group-c") && err.contains("Lemma 16"), "{err}");
        }
        assert_eq!(opts(&["--group-c", "1"]).unwrap().group_c, Some(1.0));
        assert_eq!(opts(&[]).unwrap().group_c, None);
    }

    #[test]
    fn a_group_constant_for_churndos_is_a_usage_error() {
        let err = opts(&["--family", "churndos", "--group-c", "4"]).err().expect("accepted");
        assert!(err.contains("--group-c") && err.contains("churndos"), "{err}");
        assert!(opts(&["--family", "churndos"]).is_ok());
    }

    #[test]
    fn round_counts_that_overflow_name_their_flag() {
        assert_eq!(epochs_to_rounds("--epochs", 3, 48), Ok(144));
        let err = epochs_to_rounds("--lateness-epochs", u64::MAX / 2, 3).unwrap_err();
        assert!(err.starts_with("--lateness-epochs "), "{err}");
        let huge = u64::MAX.to_string();
        let o = opts(&["--epochs", &huge]).expect("the product is checked once the epoch is known");
        assert!(epochs_to_rounds("--epochs", o.epochs, 2).unwrap_err().contains("--epochs"));
    }
}
