//! The backend knob against the golden files: the Section 5/6 overlays
//! never instantiate a simnet engine, so every backend must reproduce
//! their committed digest streams byte for byte, and the healed expander
//! run (which does) must reproduce the value recorded under the engine
//! PR 17 deleted. `reconfig_core::backend::with_backend` picks the backend
//! without touching any call site.

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::fuzz::{FaultPlan, FuzzLimits};
use reconfig_core::backend::{with_backend, Backend};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{ExpanderFaultRun, HealableOverlay, HealingParams};
use reconfig_core::reconfig::ExpanderOverlay;
use std::path::PathBuf;

/// Body lines (digest records) of a committed golden file.
fn golden_lines(name: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    text.lines().filter(|l| !l.starts_with('#')).map(String::from).collect()
}

// ---------------------------------------------------------------------------
// Golden families through the backend knob
// ---------------------------------------------------------------------------

#[test]
fn golden_dos_overlay_is_backend_independent() {
    // The Section 5/6 overlays digest supernode structures that never
    // instantiate a simnet engine — the backend knob must not leak into
    // them. Reproducing the committed stream under `xl:fast:2` proves it
    // doesn't.
    let golden = golden_lines("dos_overlay.digests");
    let lines = with_backend(Backend::fast(2), || {
        let mut ov = DosOverlay::new(256, DosParams::default(), 9);
        let lateness = 2 * ov.epoch_len();
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 11);
        let mut lines = Vec::new();
        for _ in 0..2 * ov.epoch_len() {
            adv.observe(ov.grouped().snapshot(ov.round()));
            let blocked = adv.block(ov.round(), ov.grouped().len());
            ov.step(&blocked);
            lines.push(format!("{} {:016x}", ov.round(), ov.state_digest()));
        }
        lines
    });
    assert_eq!(lines, golden);
}

#[test]
fn golden_churndos_overlay_is_backend_independent() {
    let golden = golden_lines("churndos_overlay.digests");
    let lines = with_backend(Backend::fast(2), || {
        let mut ov = ChurnDosOverlay::new(400, ChurnDosParams::default(), 13);
        let lateness = 2 * ov.epoch_len();
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 17);
        let mut churn = ChurnSchedule::new(ChurnStrategy::Random, 1.3, 0.5, 100_000);
        let mut churn_rng = simnet::rng::stream(13, 1, 1);
        let mut lines = Vec::new();
        for _ in 0..2u64 {
            let ev = churn.next(&ov.members(), &mut churn_rng);
            ov.apply_churn(&ev);
            for _ in 0..ov.epoch_len() {
                adv.observe(ov.snapshot(ov.round()));
                let blocked = adv.block(ov.round(), ov.len());
                ov.step(&blocked);
                lines.push(format!("{} {:016x}", ov.round(), ov.state_digest()));
            }
        }
        lines
    });
    assert_eq!(lines, golden);
}

// ---------------------------------------------------------------------------
// Healed fault runs through the backend knob
// ---------------------------------------------------------------------------

#[test]
fn healed_expander_fault_run_matches_legacy_on_xl() {
    // The self-healing stack (FaultSchedule + monitors + reconfiguration
    // epochs) reaches the engine through `run_epoch`; the state digest and
    // the monitor's violation count are the ones recorded under the
    // `legacy` backend at 867e6f0, the last commit that had one.
    let plan = FaultPlan::generate(5, &FuzzLimits::default());
    let ov = ExpanderOverlay::new(48, 8, SamplingParams::default(), plan.seed ^ 0xE8);
    let mut run = ExpanderFaultRun::new(ov, plan.fault_schedule(), HealingParams::default(), true);
    for _ in 0..3 {
        run.run_epoch();
    }
    const LEGACY: (u64, u64) = (0x050d_2aee_50c0_6a94, 0);
    assert_eq!((run.overlay.state_digest(), run.monitor.total()), LEGACY);
}
