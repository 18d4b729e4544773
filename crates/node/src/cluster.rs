//! The cluster harness: launch N nodes, drive a fault campaign, record
//! the trace, and verify it against the simulator.
//!
//! The coordinator owns all nondeterminism the model cares about: it
//! plans the campaign up front ([`CampaignSpec::plan`]), broadcasts each
//! round's directives over per-node control connections, barriers on
//! every live node's report before advancing, and assembles the
//! [`ClusterTrace`] that [`reconfig_core::nodert::replay`] checks. Nodes
//! are launched either as separate processes (the real deployment shape,
//! used by the CI smoke job) or as threads in this process (same daemon
//! code, same real TCP sockets, cheaper — used by tests and the bench
//! experiment).

use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use overlay_adversary::remote::{CampaignError, CampaignSpec, CampaignStep};
use reconfig_core::nodert::{
    replay, ClusterTrace, DelayObs, ReplayError, ReplaySummary, RoundRecord,
};
use simnet::NodeId;

use crate::daemon::{run_node, DaemonConfig, NodeError};
use crate::knobs::NodeKnobs;
use crate::wire::{Frame, WireError};

/// How long the coordinator waits for any single handshake or report
/// frame before declaring the cluster wedged.
pub const COORD_TIMEOUT: Duration = Duration::from_secs(30);

/// How nodes are launched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Spawn the `reconfig-node` binary per node.
    Process,
    /// Run `daemon::run_node` on a thread per node (same code, same TCP).
    Thread,
}

/// A full cluster run request.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Initial cluster size (node ids `0..n0`).
    pub n0: u64,
    /// Master seed shared by all node RNG streams.
    pub seed: u64,
    /// The fault campaign to drive.
    pub spec: CampaignSpec,
    /// Process or thread nodes.
    pub mode: Mode,
    /// Daemon knobs (epoch pacing, frame cap, listen address).
    pub knobs: NodeKnobs,
    /// Where to persist the trace and manifest (`results/cluster/<run-id>/`),
    /// `None` to skip persistence.
    pub run_dir: Option<PathBuf>,
    /// Path of the `reconfig-node` binary for [`Mode::Process`]; `None`
    /// resolves a sibling of the current executable.
    pub node_binary: Option<PathBuf>,
}

impl ClusterConfig {
    /// A thread-mode config with default knobs and no persistence.
    pub fn threads(n0: u64, seed: u64, spec: CampaignSpec) -> Self {
        Self {
            n0,
            seed,
            spec,
            mode: Mode::Thread,
            knobs: NodeKnobs { epoch_ms: 1, ..NodeKnobs::default() },
            run_dir: None,
            node_binary: None,
        }
    }
}

/// What a successful run produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// The recorded trace.
    pub trace: ClusterTrace,
    /// What the replay oracle verified.
    pub replay: ReplaySummary,
    /// Wall-clock latency of each round as the coordinator saw it: from
    /// writing the round's first tick to reading its last report. Kept out
    /// of the trace, whose bytes and digests are timing-free.
    pub round_latencies: Vec<Duration>,
}

/// Why a cluster run failed.
#[derive(Debug)]
pub enum ClusterError {
    /// The campaign spec was invalid.
    Campaign(CampaignError),
    /// Socket-level failure on the control plane.
    Io(std::io::Error),
    /// Frame-level failure on the control plane.
    Wire(WireError),
    /// A node broke the control protocol.
    Protocol(&'static str),
    /// A node process/thread could not be launched.
    Launch(String),
    /// The recorded trace failed the simulator replay.
    Replay(ReplayError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Campaign(e) => write!(f, "campaign: {e}"),
            ClusterError::Io(e) => write!(f, "io: {e}"),
            ClusterError::Wire(e) => write!(f, "wire: {e}"),
            ClusterError::Protocol(what) => write!(f, "control protocol violated: {what}"),
            ClusterError::Launch(what) => write!(f, "node launch failed: {what}"),
            ClusterError::Replay(e) => write!(f, "replay oracle rejected the trace: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<CampaignError> for ClusterError {
    fn from(e: CampaignError) -> Self {
        ClusterError::Campaign(e)
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> Self {
        ClusterError::Wire(e)
    }
}

/// A launched node: its liveness handle plus its control connection.
///
/// Dropping a process handle kills the child — the harness cannot leak
/// orphans even when a run errors mid-campaign. Thread daemons exit on
/// their own when their control socket drops (EOF ends the run with
/// `NodeError::Wire(Truncated)`).
enum Handle {
    Process(Child),
    Thread(Option<std::thread::JoinHandle<Result<u64, NodeError>>>),
}

impl Drop for Handle {
    fn drop(&mut self) {
        if let Handle::Process(child) = self {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

struct NodeConn {
    control: BufReader<TcpStream>,
    port: u16,
    handle: Handle,
}

/// Run a cluster campaign to completion and verify it against the
/// simulator. The returned report contains the recorded trace and the
/// replay summary; any digest disagreement is a [`ClusterError::Replay`].
pub fn run_cluster(config: &ClusterConfig) -> Result<ClusterReport, ClusterError> {
    let steps = config.spec.plan(config.n0)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let coord_addr = listener.local_addr()?;

    // Spawn everyone first, then accept the handshakes in whatever order
    // the connections arrive — the Hello frame identifies the node.
    let mut pending: BTreeMap<u64, Handle> = BTreeMap::new();
    for id in 0..config.n0 {
        pending.insert(id, spawn_node(config, id, coord_addr)?);
    }
    let mut nodes: BTreeMap<u64, NodeConn> = BTreeMap::new();
    accept_pending(&listener, config.knobs.max_frame, &mut pending, &mut nodes)?;
    // Everyone is connected; distribute the peer table and collect readies.
    let peers: Vec<(u64, u16)> = nodes.iter().map(|(&id, conn)| (id, conn.port)).collect();
    for conn in nodes.values_mut() {
        Frame::Welcome { round: 0, n0: config.n0, seed: config.seed, peers: peers.clone() }
            .write_to(conn.control.get_mut())?;
    }
    let ids: Vec<u64> = nodes.keys().copied().collect();
    for id in ids {
        expect_ready(&mut nodes, id, config.knobs.max_frame)?;
    }

    let mut rounds: Vec<RoundRecord> = Vec::with_capacity(steps.len());
    let mut round_latencies = Vec::with_capacity(steps.len());
    // Members that executed the previous round — the mark barrier set.
    let mut prev_members: Vec<u64> = Vec::new();

    for step in &steps {
        let round_start = Instant::now();
        apply_churn(config, step, coord_addr, &listener, &mut nodes, &peers)?;

        // Every initial member without a lag gets the same tick, encoded
        // once; lagged members and joiners get their own.
        let tick = |hold_extra, marks| Frame::Tick {
            round: step.round,
            hold_extra,
            blocked: step.blocked.clone(),
            marks,
        };
        let member_tick = tick(0, prev_members.clone()).encode();
        let ticked = Instant::now();
        for (&id, conn) in nodes.iter_mut() {
            let hold_extra = step
                .lags
                .iter()
                .find(|&&(node, _)| node == id)
                .map(|&(_, extra)| extra)
                .unwrap_or(0);
            let control = conn.control.get_mut();
            if id < config.n0 && hold_extra == 0 {
                control.write_all(&member_tick).map_err(WireError::from)?;
            } else {
                // Joiners never receive frames, so they skip the mark barrier.
                let marks = if id < config.n0 { prev_members.clone() } else { Vec::new() };
                tick(hold_extra, marks).write_to(control)?;
            }
        }

        let mut record = RoundRecord {
            round: step.round,
            blocked: step.blocked.clone(),
            kills: step.kills.clone(),
            joins: step.joins.clone(),
            ..RoundRecord::default()
        };
        let ids: Vec<u64> = nodes.keys().copied().collect();
        for id in &ids {
            let report = read_frame(&mut nodes, *id, config.knobs.max_frame)?;
            let Frame::Report { node, round, digest, delays, .. } = report else {
                return Err(ClusterError::Protocol("expected report"));
            };
            if node != *id || round != step.round {
                return Err(ClusterError::Protocol("report for wrong node or round"));
            }
            record.digests.push((node, digest));
            record.delays.extend(delays.into_iter().map(|(from, to, sent_round, extra)| {
                DelayObs { from: NodeId(from), to: NodeId(to), sent_round, extra }
            }));
        }
        round_latencies.push(ticked.elapsed());
        record.digests.sort_unstable();
        record.delays.sort_unstable_by_key(|d| (d.from.raw(), d.to.raw(), d.sent_round));
        rounds.push(record);
        prev_members = ids;

        let elapsed = round_start.elapsed();
        let floor = Duration::from_millis(config.knobs.epoch_ms);
        if elapsed < floor {
            std::thread::sleep(floor - elapsed);
        }
    }

    // Clean shutdown: every surviving node exits on its own.
    for conn in nodes.values_mut() {
        let _ = Frame::Shutdown.write_to(conn.control.get_mut());
    }
    for (_, mut conn) in std::mem::take(&mut nodes) {
        match &mut conn.handle {
            Handle::Process(child) => {
                let _ = child.wait();
            }
            Handle::Thread(join) => {
                if let Some(join) = join.take() {
                    let _ = join.join();
                }
            }
        }
    }

    let trace = ClusterTrace { seed: config.seed, n0: config.n0, rounds };
    if let Some(dir) = &config.run_dir {
        persist(dir, config, &trace)?;
    }
    let summary = replay(&trace).map_err(ClusterError::Replay)?;
    Ok(ClusterReport { trace, replay: summary, round_latencies })
}

/// Start one node (process or thread) without waiting for its handshake.
fn spawn_node(
    config: &ClusterConfig,
    id: u64,
    coord_addr: SocketAddr,
) -> Result<Handle, ClusterError> {
    let handle = match config.mode {
        Mode::Process => {
            let binary = match &config.node_binary {
                Some(path) => path.clone(),
                None => default_node_binary()
                    .ok_or_else(|| ClusterError::Launch("cannot locate reconfig-node".into()))?,
            };
            let child = Command::new(&binary)
                .arg("--id")
                .arg(id.to_string())
                .arg("--coordinator")
                .arg(coord_addr.to_string())
                .env(crate::knobs::NODE_MAX_FRAME, config.knobs.max_frame.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| ClusterError::Launch(format!("{}: {e}", binary.display())))?;
            Handle::Process(child)
        }
        Mode::Thread => {
            let daemon = DaemonConfig { id, coordinator: coord_addr, knobs: config.knobs.clone() };
            Handle::Thread(Some(std::thread::spawn(move || run_node(&daemon))))
        }
    };
    Ok(handle)
}

/// Accept one control connection per spawned node, matching each Hello to
/// its pending handle by node id.
fn accept_pending(
    listener: &TcpListener,
    max_frame: usize,
    pending: &mut BTreeMap<u64, Handle>,
    nodes: &mut BTreeMap<u64, NodeConn>,
) -> Result<(), ClusterError> {
    while !pending.is_empty() {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(COORD_TIMEOUT))?;
        let mut control = BufReader::new(stream);
        let hello = Frame::read_from(&mut control, max_frame)?;
        let Frame::Hello { node, port } = hello else {
            return Err(ClusterError::Protocol("expected hello"));
        };
        let handle =
            pending.remove(&node).ok_or(ClusterError::Protocol("hello from unexpected node id"))?;
        nodes.insert(node, NodeConn { control, port, handle });
    }
    Ok(())
}

/// Kills and joins at a round boundary, before any tick goes out.
fn apply_churn(
    config: &ClusterConfig,
    step: &CampaignStep,
    coord_addr: SocketAddr,
    listener: &TcpListener,
    nodes: &mut BTreeMap<u64, NodeConn>,
    initial_peers: &[(u64, u16)],
) -> Result<(), ClusterError> {
    for &victim in &step.kills {
        if let Some(mut conn) = nodes.remove(&victim) {
            // A crash-stop at the boundary: the victim gets a shutdown
            // instead of this round's tick. Its previous-round sends are
            // already on the wire (its report barriered last round), so
            // survivors still deliver them — matching the simulator, where
            // a `CrashStop { at }` node's round `at - 1` messages deliver.
            let _ = Frame::Shutdown.write_to(conn.control.get_mut());
            match &mut conn.handle {
                Handle::Process(child) => {
                    let _ = child.wait();
                }
                Handle::Thread(join) => {
                    if let Some(join) = join.take() {
                        let _ = join.join();
                    }
                }
            }
        }
    }
    if !step.joins.is_empty() {
        let mut pending: BTreeMap<u64, Handle> = BTreeMap::new();
        for &joiner in &step.joins {
            pending.insert(joiner, spawn_node(config, joiner, coord_addr)?);
        }
        accept_pending(listener, config.knobs.max_frame, &mut pending, nodes)?;
        // Joiners must not dial dead peers (the sockets are gone), so they
        // get only the live slice of the initial peer table.
        let live: Vec<(u64, u16)> =
            initial_peers.iter().copied().filter(|(id, _)| nodes.contains_key(id)).collect();
        for &joiner in &step.joins {
            let conn = nodes.get_mut(&joiner).expect("just accepted");
            Frame::Welcome {
                round: step.round,
                n0: config.n0,
                seed: config.seed,
                peers: live.clone(),
            }
            .write_to(conn.control.get_mut())?;
        }
        for &joiner in &step.joins {
            expect_ready(nodes, joiner, config.knobs.max_frame)?;
        }
    }
    Ok(())
}

fn read_frame(
    nodes: &mut BTreeMap<u64, NodeConn>,
    id: u64,
    max_frame: usize,
) -> Result<Frame, ClusterError> {
    let conn = nodes.get_mut(&id).ok_or(ClusterError::Protocol("unknown node"))?;
    Ok(Frame::read_from(&mut conn.control, max_frame)?)
}

fn expect_ready(
    nodes: &mut BTreeMap<u64, NodeConn>,
    id: u64,
    max_frame: usize,
) -> Result<(), ClusterError> {
    match read_frame(nodes, id, max_frame)? {
        Frame::Ready { node } if node == id => Ok(()),
        _ => Err(ClusterError::Protocol("expected ready")),
    }
}

/// `target/debug/cluster` → `target/debug/reconfig-node`, also handling
/// test executables living one level down in `deps/`.
fn default_node_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("reconfig-node{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent()?;
    loop {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        if dir.file_name().map(|f| f == "deps").unwrap_or(false) {
            dir = dir.parent()?;
            continue;
        }
        return None;
    }
}

/// Write `trace.json` and `manifest.json` under `dir`.
fn persist(
    dir: &PathBuf,
    config: &ClusterConfig,
    trace: &ClusterTrace,
) -> Result<(), ClusterError> {
    std::fs::create_dir_all(dir)?;
    let mut trace_file = std::fs::File::create(dir.join("trace.json"))?;
    trace_file.write_all(trace.to_json().as_bytes())?;
    let manifest = serde_json::json!({
        "n0": config.n0,
        "seed": config.seed,
        "rounds": trace.rounds.len() as u64,
        "mode": match config.mode { Mode::Process => "process", Mode::Thread => "thread" },
        "epoch_ms": config.knobs.epoch_ms,
        "max_frame": config.knobs.max_frame as u64,
        "campaign": config.spec.to_value(),
        "total_delays": trace.total_delays() as u64,
        "total_digests": trace.total_digests() as u64,
    });
    let mut manifest_file = std::fs::File::create(dir.join("manifest.json"))?;
    manifest_file
        .write_all(serde_json::to_string_pretty(&manifest).expect("valid json").as_bytes())?;
    Ok(())
}
