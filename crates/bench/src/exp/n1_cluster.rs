//! N1 — live cluster vs simulator oracle.
//!
//! Runs real TCP clusters (thread-mode nodes: the same daemon loop the
//! `reconfig-node` binary runs, in-process so CI stays cheap) under
//! escalating fault campaigns, then replays every recorded trace inside
//! `simnet` and checks that the simulator reproduces the live per-node
//! state digests bit-for-bit. This is the networked analogue of the E/A
//! experiments' determinism claims: the round model the paper analyses,
//! and the simulator implements, is *implementable over an asynchronous
//! transport* — the round-mark barrier plus coordinator-owned fault
//! directives recover exactly the synchronous executions the simulator
//! enumerates.
//!
//! Rows report, per cell: live frames delivered, observed hold delays
//! re-imposed as scheduled deliveries, kills replayed as crash-stops,
//! joins replayed as `add_node`, digests compared, and whether the
//! oracle agreed. Any disagreement is a hard failure (nonzero exit),
//! not a row. The full run takes well under a second, so there is no
//! smaller variant.

use crate::driver::{Experiment, Row, Run, RunError};
use std::time::Instant;

use overlay_adversary::remote::{CampaignSpec, DosSpec};
use overlay_adversary::DosStrategy;
use reconfig_node::cluster::{run_cluster, ClusterConfig};

pub const EXP: Experiment = Experiment::new(
    "N1",
    "Live cluster replayed in the simulator",
    "The synchronous round model is implementable over asynchronous TCP: \
            live cluster runs under churn, DoS blocking, and delay campaigns \
            replay in simnet with bit-identical per-node state digests.",
    run,
);

struct Cell {
    label: &'static str,
    n0: u64,
    seed: u64,
    spec: CampaignSpec,
}

fn cells() -> Vec<Cell> {
    let rounds = 24;
    vec![
        Cell { label: "quiet", n0: 4, seed: 7, spec: CampaignSpec::quiet(rounds) },
        Cell {
            label: "dos-random",
            n0: 8,
            seed: 101,
            spec: CampaignSpec {
                rounds,
                seed: 101,
                dos: Some(DosSpec { strategy: DosStrategy::Random, bound: 0.3, lateness: 1 }),
                kills: Vec::new(),
                joins: Vec::new(),
                lags: Vec::new(),
            },
        },
        Cell { label: "churn+dos", n0: 8, seed: 202, spec: CampaignSpec::smoke(8, rounds, 202) },
        Cell {
            label: "lag-heavy",
            n0: 6,
            seed: 303,
            spec: CampaignSpec {
                rounds,
                seed: 303,
                dos: Some(DosSpec { strategy: DosStrategy::IsolateNode, bound: 0.2, lateness: 2 }),
                kills: Vec::new(),
                joins: Vec::new(),
                lags: (0..6).flat_map(|node| [(4, node, 2), (9, node, 1)]).collect(),
            },
        },
    ]
}

fn run(run: &mut Run) -> Result<(), RunError> {
    run.table("N1: live cluster replayed in the simulator");
    for cell in cells() {
        let started = Instant::now();
        let config = ClusterConfig::threads(cell.n0, cell.seed, cell.spec.clone());
        let report = run_cluster(&config)
            .map_err(|e| RunError::new(format!("cluster cell `{}`", cell.label), e))?;
        let s = &report.replay;
        run.row(
            Row::new()
                .cell("cell", "cell", cell.label)
                .cell("n0", "n0", cell.n0)
                .key("seed", cell.seed)
                .cell("rounds", "rounds", s.rounds)
                .cell("digests", "digests_checked", s.digests_checked)
                .cell("delays", "delays_applied", s.delays_applied)
                .cell("kills", "kills", s.kills)
                .cell("joins", "joins", s.joins)
                .cell("ms", "wall_ms", started.elapsed().as_millis() as u64)
                .cell_as("oracle", "oracle_agrees", true, "agrees"),
        );
    }
    Ok(())
}
