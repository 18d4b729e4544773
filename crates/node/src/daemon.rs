//! The `reconfig-node` daemon: one overlay node as a real process.
//!
//! Transport is plain `std::net` TCP — the repo is hermetic (no async
//! runtime available) and the synchronous round model doesn't benefit
//! from one: the daemon blocks on exactly one thing at a time (the
//! coordinator's next directive, or one peer's round mark).
//!
//! ## Threads and sockets
//!
//! A daemon runs two threads. The **main thread** owns everything the
//! round touches: the control connection, one buffered reader per inbound
//! peer connection and one writer per outbound one. The **accept thread**
//! only identifies inbound connections: a dialler's first frame on a peer
//! connection is a [`Frame::Hello`] naming it, which the accept thread
//! reads under a one-second timeout and then hands the `(peer, reader)` pair
//! to the main thread. A connection that opens with anything else — or
//! with nothing — is closed; no connection ever gets a thread of its own.
//!
//! ## Determinism
//!
//! The round state machine itself lives in
//! [`reconfig_core::nodert::driver`]; the daemon's job is to feed it
//! deterministically despite TCP's timing freedom. Two mechanisms:
//!
//! 1. **Round marks.** After a node finishes round `r` it writes a
//!    [`Frame::RoundMark`] for `r` on every peer connection, *after* its
//!    round-`r` messages: one buffer per peer, one `write_all`. Before
//!    executing round `r + 1`, a receiver reads each expected sender's
//!    connection in turn, ingesting frames up to that sender's round-`r`
//!    mark; per-connection FIFO makes those exactly the sender's round-`r`
//!    frames. Natural network lateness is thereby eliminated — observed
//!    delays come only from the campaign's explicit lag directives, which
//!    is what makes the trace exactly replayable.
//! 2. **Coordinator barrier.** The coordinator only issues tick `r + 1`
//!    after every live node reported round `r`, and a node writes its marks
//!    before its report. So a mark can never be a round ahead of its
//!    receiver, and when the barrier starts reading, the bytes up to every
//!    awaited mark have already been written: the reads do not wait on
//!    another node's progress, so no cycle of waiting nodes can form. The
//!    one wait that is not a socket read is a joiner's first mark, when its
//!    connection may still be with the accept thread.
//!
//! An awaited peer whose connection ends or carries a bad frame fails the
//! run at once with [`NodeError::Peer`]; [`MARK_TIMEOUT`] bounds every
//! other wait of the barrier.

use std::collections::BTreeMap;
use std::io::{self, BufReader, ErrorKind, Write as _};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reconfig_core::nodert::{RoundDriver, TickDirective};
use simnet::{BlockSet, NodeId};

use crate::knobs::NodeKnobs;
use crate::wire::{Frame, WireError};

/// How long a node waits at the round-mark barrier before declaring the
/// cluster wedged.
pub const MARK_TIMEOUT: Duration = Duration::from_secs(20);

/// How long the accept thread waits for an inbound connection's `Hello`
/// before closing it.
const HELLO_TIMEOUT: Duration = Duration::from_secs(1);

/// Payload cap for the first frame of an inbound connection: a `Hello`
/// is 10 bytes, so a stray connection cannot make the accept thread
/// allocate for or wait on a large frame.
const HELLO_MAX_FRAME: usize = 16;

/// Static configuration for one daemon.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// This node's id.
    pub id: u64,
    /// The coordinator's control address.
    pub coordinator: SocketAddr,
    /// Resolved environment knobs.
    pub knobs: NodeKnobs,
}

/// Why a daemon run ended abnormally.
#[derive(Debug)]
pub enum NodeError {
    /// Frame-level failure on the control connection.
    Wire(WireError),
    /// Socket-level failure.
    Io(io::Error),
    /// The coordinator's first frame was not a `Welcome`.
    BadHandshake,
    /// A round-mark barrier timed out.
    MarkTimeout {
        /// The round being awaited.
        round: u64,
        /// Peers whose marks were still missing.
        missing: Vec<u64>,
    },
    /// An awaited peer's connection ended (`Truncated`) or carried a frame
    /// that failed to decode, before its mark.
    Peer {
        /// The peer whose connection failed.
        peer: u64,
        /// The round whose barrier was reading it.
        round: u64,
        /// What the read returned.
        error: WireError,
    },
    /// The coordinator sent something other than `Tick`/`Shutdown` mid-run.
    UnexpectedFrame,
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Wire(e) => write!(f, "wire error: {e}"),
            NodeError::Io(e) => write!(f, "io error: {e}"),
            NodeError::BadHandshake => write!(f, "coordinator handshake violated"),
            NodeError::MarkTimeout { round, missing } => {
                write!(f, "round {round}: mark barrier timed out waiting on {missing:?}")
            }
            NodeError::Peer { peer, round, error } => {
                write!(f, "round {round}: connection from peer {peer} failed: {error}")
            }
            NodeError::UnexpectedFrame => write!(f, "unexpected frame from coordinator"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<WireError> for NodeError {
    fn from(e: WireError) -> Self {
        NodeError::Wire(e)
    }
}

impl From<io::Error> for NodeError {
    fn from(e: io::Error) -> Self {
        NodeError::Io(e)
    }
}

/// An identified inbound peer connection.
type Inbound = (u64, BufReader<TcpStream>);

/// One outbound peer connection and the bytes queued for it this round.
struct Outbound {
    peer: u64,
    stream: TcpStream,
    queued: Vec<u8>,
}

/// The accept thread. Dropping it stops the thread and joins it, on the
/// error paths as on the clean one.
struct Acceptor {
    handoff: Receiver<Inbound>,
    stop: Arc<AtomicBool>,
    /// Where to connect to wake a blocked `accept`.
    wake: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl Acceptor {
    fn spawn(listener: TcpListener) -> io::Result<Self> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
        }
        let (tx, handoff) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stopped.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { break };
                if let Some(inbound) = identify(stream) {
                    if tx.send(inbound).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(Self { handoff, stop, wake, handle: Some(handle) })
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.wake);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Read an inbound connection's `Hello` under [`HELLO_TIMEOUT`]; `None`
/// (the stream is dropped, which closes it) for anything else. A handed-off
/// reader waits at most [`MARK_TIMEOUT`] per read.
fn identify(stream: TcpStream) -> Option<Inbound> {
    stream.set_read_timeout(Some(HELLO_TIMEOUT)).ok()?;
    let mut reader = BufReader::new(stream);
    let Ok(Frame::Hello { node, .. }) = Frame::read_from(&mut reader, HELLO_MAX_FRAME) else {
        return None;
    };
    reader.get_ref().set_read_timeout(Some(MARK_TIMEOUT)).ok()?;
    Some((node, reader))
}

/// Run one node to completion: handshake, tick loop, shutdown.
///
/// Returns `Ok(rounds_executed)` after a clean `Shutdown` from the
/// coordinator (which is also how the campaign crash-stops a victim).
pub fn run_node(config: &DaemonConfig) -> Result<u64, NodeError> {
    let me = config.id;
    let max_frame = config.knobs.max_frame;
    let listener = TcpListener::bind(config.knobs.listen_addr)?;
    let hello = Frame::Hello { node: me, port: listener.local_addr()?.port() };
    let acceptor = Acceptor::spawn(listener)?;

    let stream = TcpStream::connect(config.coordinator)?;
    stream.set_nodelay(true).ok();
    let mut control = BufReader::new(stream);
    hello.write_to(control.get_mut())?;
    let (n0, seed, peers) = match Frame::read_from(&mut control, max_frame)? {
        Frame::Welcome { n0, seed, peers, .. } => (n0, seed, peers),
        _ => return Err(NodeError::BadHandshake),
    };

    // Dial every live initial peer (skipping self) and name ourselves;
    // joiners appear only on the accept side.
    let mut outbound: Vec<Outbound> = Vec::with_capacity(peers.len());
    for &(peer, port) in &peers {
        if peer == me {
            continue;
        }
        let mut stream = TcpStream::connect(SocketAddr::from(([127, 0, 0, 1], port)))?;
        stream.set_nodelay(true).ok();
        hello.write_to(&mut stream)?;
        outbound.push(Outbound { peer, stream, queued: Vec::new() });
    }
    outbound.sort_unstable_by_key(|out| out.peer);
    Frame::Ready { node: me }.write_to(control.get_mut())?;

    let mut driver = RoundDriver::new(seed, NodeId(me), n0);
    let mut inbound: BTreeMap<u64, BufReader<TcpStream>> = BTreeMap::new();
    let mut rounds_executed = 0u64;

    loop {
        match Frame::read_from(&mut control, max_frame)? {
            Frame::Tick { round, hold_extra, blocked, marks } => {
                await_marks(me, round, &marks, &mut inbound, &acceptor, &mut driver, max_frame)?;

                let directive = TickDirective {
                    round,
                    blocked: BlockSet::from_iter(blocked.iter().copied().map(NodeId)),
                    hold_extra,
                };
                let outcome = driver.on_tick(&directive);
                rounds_executed += 1;

                for env in &outcome.sends {
                    let to = env.to.raw();
                    if to == me {
                        driver.ingest(env.from, env.sent_round, env.msg);
                    } else if let Ok(i) = outbound.binary_search_by_key(&to, |out| out.peer) {
                        let frame = Frame::Msg {
                            from: env.from.raw(),
                            to,
                            sent_round: env.sent_round,
                            payload: env.msg,
                        };
                        frame.encode_into(&mut outbound[i].queued);
                    }
                }
                // Marks go out even when blocked: they are runtime
                // scaffolding ("my round r sends are complete — there were
                // none"), not protocol traffic subject to the DoS rule. A
                // dead peer's socket fails the write and is dropped; the
                // model says frames to it just vanish.
                let mark = Frame::RoundMark { from: me, round };
                outbound.retain_mut(|out| {
                    mark.encode_into(&mut out.queued);
                    let sent = out.stream.write_all(&out.queued).is_ok();
                    out.queued.clear();
                    sent
                });

                Frame::Report {
                    node: me,
                    round,
                    digest: outcome.digest,
                    delivered: outcome.delivered,
                    dropped: outcome.dropped,
                    delays: outcome
                        .delays
                        .iter()
                        .map(|d| (d.from.raw(), d.to.raw(), d.sent_round, d.extra))
                        .collect(),
                }
                .write_to(control.get_mut())?;
            }
            Frame::Shutdown => break,
            _ => return Err(NodeError::UnexpectedFrame),
        }
    }
    Ok(rounds_executed)
}

/// The round-mark barrier of tick `round`: for each awaited peer in turn,
/// ingest its frames up to its mark for `round - 1`.
fn await_marks(
    me: u64,
    round: u64,
    marks: &[u64],
    inbound: &mut BTreeMap<u64, BufReader<TcpStream>>,
    acceptor: &Acceptor,
    driver: &mut RoundDriver,
    max_frame: usize,
) -> Result<(), NodeError> {
    let deadline = Instant::now() + MARK_TIMEOUT;
    let prev = round.saturating_sub(1);
    let timed_out = |from: usize| NodeError::MarkTimeout {
        round,
        missing: marks[from..].iter().copied().filter(|&m| m != me).collect(),
    };
    for (i, &peer) in marks.iter().enumerate() {
        if peer == me {
            continue;
        }
        // Only a joiner's first mark can find its connection still with
        // the accept thread. A second `Hello` naming a known peer is closed.
        while !inbound.contains_key(&peer) {
            let left = deadline.saturating_duration_since(Instant::now());
            let (id, reader) = acceptor.handoff.recv_timeout(left).map_err(|_| timed_out(i))?;
            inbound.entry(id).or_insert(reader);
        }
        let reader = inbound.get_mut(&peer).expect("handed off above");
        loop {
            if Instant::now() >= deadline {
                return Err(timed_out(i));
            }
            match Frame::read_from(reader, max_frame) {
                Ok(Frame::Msg { from, to: _, sent_round, payload }) => {
                    driver.ingest(NodeId(from), sent_round, payload);
                }
                Ok(Frame::RoundMark { round: marked, .. }) if marked == prev => break,
                Ok(Frame::RoundMark { .. }) => {
                    let error = WireError::Malformed("round mark out of sequence");
                    return Err(NodeError::Peer { peer, round, error });
                }
                Ok(_) => {} // tolerated: unexpected-but-valid frames are ignored
                Err(WireError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut)) => {
                    return Err(timed_out(i));
                }
                Err(error) => return Err(NodeError::Peer { peer, round, error }),
            }
        }
    }
    Ok(())
}
