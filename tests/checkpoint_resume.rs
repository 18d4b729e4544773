//! Golden differential: a run that checkpoints to disk mid-flight and
//! resumes from the file must produce a digest stream bit-identical to the
//! uninterrupted run — for all four protocol families. This is what makes
//! multi-hour soak runs crash-consistent: kill -9 at any round, resume from
//! the latest checkpoint, and the trajectory is indistinguishable.

use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::config::{SamplingParams, Schedule};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::HealableOverlay;
use reconfig_core::reconfig::ExpanderOverlay;
use reconfig_core::sampling::Alg1Node;
use simnet::checkpoint::{read_value, write_value_atomic};
use simnet::{BlockSet, Checkpoint, CkptError, NodeId};
use simnet_xl::XlNetwork;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

/// A deterministic, seed-free block pattern: round r blocks every member
/// whose id is congruent to r modulo 7. Keeps the differential honest
/// without dragging adversary state into the checkpoint.
fn pattern_block(members: &[NodeId], round: u64) -> BlockSet {
    members.iter().copied().filter(|v| v.raw() % 7 == round % 7).collect()
}

// ---------------------------------------------------------------------------
// Family 1: the message-level engine (XlNetwork<Alg1Node>)
// ---------------------------------------------------------------------------

fn alg1_network(seed: u64) -> (XlNetwork<Alg1Node>, u64) {
    let nodes: Vec<NodeId> = (0..64).map(NodeId).collect();
    let mut rng = simnet::rng::stream(seed, 77, 0x41);
    let graph = overlay_graphs::HGraph::random(&nodes, 8, &mut rng);
    let schedule = Arc::new(Schedule::algorithm1(64, 8, &SamplingParams::default()));
    let mut net: XlNetwork<Alg1Node> = XlNetwork::new(seed);
    net.enable_digests();
    for &v in graph.nodes() {
        net.add_node(v, Alg1Node::new(Arc::clone(&schedule), graph.neighbors(v)));
    }
    (net, schedule.rounds() as u64)
}

#[test]
fn network_resume_is_digest_identical() {
    let (mut reference, rounds) = alg1_network(11);
    let mut want = Vec::new();
    for _ in 0..rounds {
        reference.step();
        want.push(reference.round_digest());
    }

    let (mut net, _) = alg1_network(11);
    let mut got = Vec::new();
    let cut = rounds / 2;
    for _ in 0..cut {
        net.step();
        got.push(net.round_digest());
    }
    let path = tmp("alg1.ckpt.json");
    net.checkpoint_to(&path).expect("checkpoint");
    drop(net); // the "crash"
    let mut net = XlNetwork::<Alg1Node>::resume_from(&path).expect("resume");
    for _ in cut..rounds {
        net.step();
        got.push(net.round_digest());
    }
    assert_eq!(want, got, "resumed digest stream diverged");
}

// ---------------------------------------------------------------------------
// Families 2 + 3: the round-stepped group overlays
// ---------------------------------------------------------------------------

#[test]
fn dos_overlay_resume_is_digest_identical() {
    let rounds = 3 * DosOverlay::new(512, DosParams::default(), 3).epoch_len();
    let mut reference = DosOverlay::new(512, DosParams::default(), 3);
    let mut want = Vec::new();
    for _ in 0..rounds {
        let members = reference.grouped().nodes();
        reference.step(&pattern_block(&members, reference.round()));
        want.push(reference.state_digest());
    }

    let mut ov = DosOverlay::new(512, DosParams::default(), 3);
    let mut got = Vec::new();
    let cut = rounds / 2;
    for _ in 0..cut {
        let members = ov.grouped().nodes();
        ov.step(&pattern_block(&members, ov.round()));
        got.push(ov.state_digest());
    }
    let path = tmp("dos.ckpt.json");
    write_value_atomic(&path, &ov.save()).expect("write checkpoint");
    drop(ov);
    let mut ov = DosOverlay::load(&read_value(&path).expect("read")).expect("load");
    for _ in cut..rounds {
        let members = ov.grouped().nodes();
        ov.step(&pattern_block(&members, ov.round()));
        got.push(ov.state_digest());
    }
    assert_eq!(want, got, "resumed dos overlay diverged");
}

#[test]
fn churndos_overlay_resume_is_digest_identical() {
    let mk = || ChurnDosOverlay::new(900, ChurnDosParams::default(), 5);
    let rounds = 3 * mk().epoch_len();
    let mut reference = mk();
    let mut want = Vec::new();
    for _ in 0..rounds {
        let members = reference.members();
        reference.step(&pattern_block(&members, reference.round()));
        want.push(reference.state_digest());
    }

    let mut ov = mk();
    let mut got = Vec::new();
    let cut = rounds / 2;
    for _ in 0..cut {
        let members = ov.members();
        ov.step(&pattern_block(&members, ov.round()));
        got.push(ov.state_digest());
    }
    let path = tmp("churndos.ckpt.json");
    write_value_atomic(&path, &ov.save()).expect("write checkpoint");
    drop(ov);
    let mut ov = ChurnDosOverlay::load(&read_value(&path).expect("read")).expect("load");
    for _ in cut..rounds {
        let members = ov.members();
        ov.step(&pattern_block(&members, ov.round()));
        got.push(ov.state_digest());
    }
    assert_eq!(want, got, "resumed churndos overlay diverged");
}

// ---------------------------------------------------------------------------
// Family 4: the epoch-level expander overlay (with churn in flight)
// ---------------------------------------------------------------------------

#[test]
fn expander_overlay_resume_is_digest_identical() {
    let epochs = 6u64;
    let drive = |ov: &mut ExpanderOverlay| {
        // Deterministic churn: each epoch evicts the largest member id and
        // rejoins a fresh one, so pending queues are non-empty at the cut.
        let &top = ov.members().iter().max().expect("members");
        ov.evict(top);
        ov.rejoin(NodeId(1000 + ov.epoch()));
        ov.reconfigure();
        ov.state_digest()
    };

    let mut reference = ExpanderOverlay::new(32, 8, SamplingParams::default(), 7);
    let want: Vec<u64> = (0..epochs).map(|_| drive(&mut reference)).collect();

    let mut ov = ExpanderOverlay::new(32, 8, SamplingParams::default(), 7);
    let mut got = Vec::new();
    for _ in 0..epochs / 2 {
        got.push(drive(&mut ov));
    }
    // Checkpoint with churn pending (recorded but not yet reconfigured).
    let &top = ov.members().iter().max().expect("members");
    ov.evict(top);
    let path = tmp("expander.ckpt.json");
    write_value_atomic(&path, &ov.save()).expect("write checkpoint");
    drop(ov);
    let mut ov = ExpanderOverlay::load(&read_value(&path).expect("read")).expect("load");
    // Note: `drive` evicts the same (still-pending) top member again — a
    // no-op by idempotence — so the streams stay aligned.
    for _ in epochs / 2..epochs {
        got.push(drive(&mut ov));
    }
    assert_eq!(want, got, "resumed expander overlay diverged");
}

// ---------------------------------------------------------------------------
// Corruption is rejected, not silently resumed
// ---------------------------------------------------------------------------

#[test]
fn tampered_checkpoint_is_rejected() {
    let mut ov = DosOverlay::new(256, DosParams::default(), 9);
    for _ in 0..5 {
        let members = ov.grouped().nodes();
        ov.step(&pattern_block(&members, ov.round()));
    }
    let mut state = ov.save();
    // Flip the round counter without updating the stamp.
    if let serde_json::Value::Object(map) = &mut state {
        map.insert("round".to_string(), serde_json::Value::from(999u64));
    }
    match DosOverlay::load(&state) {
        Err(CkptError::DigestMismatch { .. }) => {}
        Err(e) => panic!("tampered checkpoint must fail the digest check, got {e:?}"),
        Ok(_) => panic!("tampered checkpoint must fail the digest check, got Ok"),
    }
}

#[test]
fn every_loader_names_a_wrong_or_missing_format_tag() {
    use overlay_adversary::catastrophe::CatastropheRepro;
    use overlay_adversary::shrink::Repro;
    use serde_json::json;
    type Load = fn(&serde_json::Value) -> Result<(), CkptError>;
    let loaders: [(&str, Load); 6] = [
        ("dos-overlay-checkpoint", |v| DosOverlay::load(v).map(drop)),
        ("churndos-overlay-checkpoint", |v| ChurnDosOverlay::load(v).map(drop)),
        ("expander-overlay-checkpoint", |v| ExpanderOverlay::load(v).map(drop)),
        ("simnet-network-checkpoint", |v| XlNetwork::<Alg1Node>::from_state(v).map(drop)),
        ("adversary-repro", |v| Repro::load(v).map(drop)),
        ("catastrophe-repro", |v| CatastropheRepro::load(v).map(drop)),
    ];
    for (tag, load) in loaders {
        let cases = [
            (json!({ "format": "bogus" }), format!("format `bogus`, expected `{tag}`")),
            (json!({}), "field `format`".to_string()),
            (json!({ "format": 7 }), "field `format`".to_string()),
        ];
        for (v, want) in cases {
            match load(&v) {
                Err(CkptError::Corrupt(msg)) => {
                    assert!(msg.contains(&want), "{tag} on {v:?}: {msg}")
                }
                other => panic!("{tag} on {v:?}: expected a corrupt-format error, got {other:?}"),
            }
        }
    }
}
