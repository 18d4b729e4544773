//! The daemon's peer plane under failure, driven through raw sockets.
//!
//! `run_node` runs for real; its coordinator and (in most tests) its one
//! peer are fakes built from `TcpStream` and `Frame`, so each test controls
//! exactly which bytes arrive when. An awaited peer that closes or sends a
//! corrupt frame must fail the run at once with a typed `NodeError::Peer`,
//! a vanished coordinator must end it with `Wire(Truncated)`, a frame split
//! across TCP writes must still be read whole, and inbound connections that
//! never say `Hello` must not disturb a run — which then still replays.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reconfig_core::nodert::{
    replay, ClusterTrace, DelayObs, RoundDriver, RoundRecord, TickDirective,
};
use reconfig_node::daemon::{run_node, DaemonConfig, NodeError};
use reconfig_node::knobs::NodeKnobs;
use reconfig_node::wire::{Frame, WireError, DEFAULT_MAX_FRAME};
use simnet::{BlockSet, NodeId};

/// How long a fake waits for any frame from the daemon.
const FAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// What "fails at once" means.
const PROMPT: Duration = Duration::from_secs(1);

type Daemon = JoinHandle<Result<u64, NodeError>>;

fn spawn_daemon(id: u64, coordinator: SocketAddr) -> Daemon {
    let config = DaemonConfig { id, coordinator, knobs: NodeKnobs::default() };
    std::thread::spawn(move || run_node(&config))
}

fn read(control: &mut BufReader<TcpStream>) -> Frame {
    Frame::read_from(control, DEFAULT_MAX_FRAME).expect("daemon frame")
}

fn send(stream: &mut TcpStream, frame: Frame) {
    frame.write_to(stream).expect("fake write");
}

fn tick(round: u64, marks: Vec<u64>) -> Frame {
    Frame::Tick { round, hold_extra: 0, blocked: Vec::new(), marks }
}

/// Accept one daemon's control connection and read its `Hello`.
fn accept_control(coord: &TcpListener) -> (u64, u16, BufReader<TcpStream>) {
    let (stream, _) = coord.accept().expect("control connection");
    stream.set_read_timeout(Some(FAKE_TIMEOUT)).unwrap();
    let mut control = BufReader::new(stream);
    let Frame::Hello { node, port } = read(&mut control) else { panic!("expected hello") };
    (node, port, control)
}

/// One real daemon (node 0 of two) with a fake coordinator and a fake
/// node 1: the daemon dials `peer_listener`, and the fake dials the
/// daemon with [`Rig::dial_as_peer`].
struct Rig {
    control: BufReader<TcpStream>,
    node_port: u16,
    /// Fake node 1's listener; kept open so the daemon's dial succeeds.
    peer_listener: TcpListener,
    daemon: Daemon,
}

impl Rig {
    fn start(seed: u64) -> Self {
        let coord = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let daemon = spawn_daemon(0, coord.local_addr().unwrap());
        let (node, node_port, mut control) = accept_control(&coord);
        assert_eq!(node, 0);
        let peers = vec![(0, node_port), (1, peer_listener.local_addr().unwrap().port())];
        send(control.get_mut(), Frame::Welcome { round: 0, n0: 2, seed, peers });
        assert_eq!(read(&mut control), Frame::Ready { node: 0 });
        Rig { control, node_port, peer_listener, daemon }
    }

    /// Connect to the daemon as node 1, naming ourselves first.
    fn dial_as_peer(&self) -> TcpStream {
        let mut stream = TcpStream::connect(("127.0.0.1", self.node_port)).unwrap();
        let port = self.peer_listener.local_addr().unwrap().port();
        send(&mut stream, Frame::Hello { node: 1, port });
        stream
    }

    fn tick(&mut self, round: u64, marks: Vec<u64>) {
        send(self.control.get_mut(), tick(round, marks));
    }

    /// Run round 0 (no barrier) and check the daemon reported it.
    fn round_zero(&mut self) {
        self.tick(0, Vec::new());
        assert!(matches!(read(&mut self.control), Frame::Report { node: 0, round: 0, .. }));
    }

    /// Tick round 1, which awaits node 1's round-0 mark, and return how
    /// the daemon ended and how long that took.
    fn fail_at_round_one(mut self) -> (NodeError, Duration) {
        let start = Instant::now();
        self.tick(1, vec![0, 1]);
        let err = self.daemon.join().unwrap().expect_err("the barrier must fail");
        (err, start.elapsed())
    }
}

#[test]
fn peer_that_closes_mid_barrier_is_a_prompt_typed_error() {
    let mut rig = Rig::start(3);
    let peer = rig.dial_as_peer();
    rig.round_zero();
    drop(peer); // closes before writing its round-0 mark
    let (err, took) = rig.fail_at_round_one();
    assert!(
        matches!(err, NodeError::Peer { peer: 1, round: 1, error: WireError::Truncated }),
        "{err:?}"
    );
    assert!(took < PROMPT, "took {took:?}");
}

#[test]
fn corrupt_msg_frame_is_a_typed_error() {
    let mut rig = Rig::start(4);
    let mut peer = rig.dial_as_peer();
    rig.round_zero();
    let mut bytes = Frame::Msg { from: 1, to: 0, sent_round: 0, payload: 7 }.encode();
    *bytes.last_mut().unwrap() ^= 0x10;
    peer.write_all(&bytes).unwrap();
    send(&mut peer, Frame::RoundMark { from: 1, round: 0 });
    let (err, took) = rig.fail_at_round_one();
    assert!(
        matches!(
            err,
            NodeError::Peer { peer: 1, round: 1, error: WireError::ChecksumMismatch { .. } }
        ),
        "{err:?}"
    );
    assert!(took < PROMPT, "took {took:?}");
}

#[test]
fn vanished_coordinator_is_wire_truncated() {
    let rig = Rig::start(5);
    let _peer = rig.dial_as_peer();
    let Rig { control, daemon, .. } = rig;
    let start = Instant::now();
    drop(control);
    let err = daemon.join().unwrap().expect_err("no coordinator, no run");
    assert!(matches!(err, NodeError::Wire(WireError::Truncated)), "{err:?}");
    assert!(start.elapsed() < PROMPT, "took {:?}", start.elapsed());
}

#[test]
fn msg_frame_split_across_two_writes_is_read_whole() {
    let seed = 6;
    let payload = 0x0123_4567_89ab_cdef;
    let mut rig = Rig::start(seed);
    let mut peer = rig.dial_as_peer();
    rig.round_zero();

    // The pause makes the likely interleaving the one under test — the
    // daemon in the barrier holding the first half when the second half
    // arrives — but the frame must be read whole in any interleaving.
    rig.tick(1, vec![0, 1]);
    let bytes = Frame::Msg { from: 1, to: 0, sent_round: 0, payload }.encode();
    let (head, tail) = bytes.split_at(bytes.len() / 2);
    peer.write_all(head).unwrap();
    peer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    peer.write_all(tail).unwrap();
    send(&mut peer, Frame::RoundMark { from: 1, round: 0 });
    let Frame::Report { round: 1, digest, delivered, .. } = read(&mut rig.control) else {
        panic!("expected the round-1 report")
    };

    // What node 0 computes when the frame arrives intact.
    let mut reference = RoundDriver::new(seed, NodeId(0), 2);
    let quiet = |round| TickDirective { round, blocked: BlockSet::none(), hold_extra: 0 };
    for env in reference.on_tick(&quiet(0)).sends {
        if env.to == NodeId(0) {
            reference.ingest(env.from, env.sent_round, env.msg);
        }
    }
    reference.ingest(NodeId(1), 0, payload);
    let want = reference.on_tick(&quiet(1));
    assert_eq!((digest, delivered), (want.digest, want.delivered));
    assert!(delivered >= 1);

    send(rig.control.get_mut(), Frame::Shutdown);
    assert_eq!(rig.daemon.join().unwrap().expect("clean shutdown"), 2);
}

/// Connections that never say `Hello`: garbage bytes, a valid frame of the
/// wrong kind (a round mark, which would corrupt the barrier if believed),
/// and silence held open past the accept thread's `Hello` timeout.
fn hostile_connections(port: u16) -> Vec<TcpStream> {
    let mut garbage = TcpStream::connect(("127.0.0.1", port)).unwrap();
    garbage.write_all(b"GET / HTTP/1.1\r\nHost: node\r\n\r\n").unwrap();
    let mut wrong_kind = TcpStream::connect(("127.0.0.1", port)).unwrap();
    send(&mut wrong_kind, Frame::RoundMark { from: 1, round: 0 });
    let silent = TcpStream::connect(("127.0.0.1", port)).unwrap();
    vec![garbage, wrong_kind, silent]
}

/// Three real daemons under a fake coordinator, with hostile connections
/// opened at every daemon before the peers dial (so the accept threads
/// meet them first) and again mid-run. The run completes and the trace it
/// records replays in the simulator.
#[test]
fn connections_without_hello_are_closed_and_the_run_still_replays() {
    let (n0, seed, rounds) = (3u64, 8u64, 8u64);
    let coord = TcpListener::bind("127.0.0.1:0").unwrap();
    let daemons: Vec<Daemon> =
        (0..n0).map(|id| spawn_daemon(id, coord.local_addr().unwrap())).collect();
    let mut nodes: Vec<(u64, u16, BufReader<TcpStream>)> =
        (0..n0).map(|_| accept_control(&coord)).collect();
    nodes.sort_unstable_by_key(|&(id, _, _)| id);

    let mut hostile: Vec<TcpStream> =
        nodes.iter().flat_map(|&(_, port, _)| hostile_connections(port)).collect();
    let peers: Vec<(u64, u16)> = nodes.iter().map(|&(id, port, _)| (id, port)).collect();
    for (_, _, control) in &mut nodes {
        send(control.get_mut(), Frame::Welcome { round: 0, n0, seed, peers: peers.clone() });
    }
    for (id, _, control) in &mut nodes {
        assert_eq!(read(control), Frame::Ready { node: *id });
    }

    let mut records = Vec::new();
    for round in 0..rounds {
        if round == rounds / 2 {
            hostile.extend(nodes.iter().flat_map(|&(_, port, _)| hostile_connections(port)));
        }
        let marks = if round == 0 { Vec::new() } else { (0..n0).collect() };
        for (_, _, control) in &mut nodes {
            send(control.get_mut(), tick(round, marks.clone()));
        }
        let mut record = RoundRecord { round, ..RoundRecord::default() };
        for (id, _, control) in &mut nodes {
            let Frame::Report { node, round: r, digest, delays, .. } = read(control) else {
                panic!("expected a report")
            };
            assert_eq!((node, r), (*id, round));
            record.digests.push((node, digest));
            record.delays.extend(delays.into_iter().map(|(from, to, sent_round, extra)| {
                DelayObs { from: NodeId(from), to: NodeId(to), sent_round, extra }
            }));
        }
        records.push(record);
    }
    for (_, _, control) in &mut nodes {
        send(control.get_mut(), Frame::Shutdown);
    }
    for daemon in daemons {
        assert_eq!(daemon.join().unwrap().expect("daemon survives the strays"), rounds);
    }
    drop(hostile);

    let summary = replay(&ClusterTrace { seed, n0, rounds: records }).expect("trace replays");
    assert_eq!((summary.rounds, summary.digests_checked), (rounds, rounds * n0));
}
