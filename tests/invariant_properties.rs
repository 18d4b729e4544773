//! Property-based tests (proptest) over the core data structures and the
//! paper's invariants.

use overlay_graphs::hamilton::HamiltonCycle;
use overlay_graphs::prefix::{Label, PrefixCover};
use overlay_graphs::{HGraph, Hypercube, KaryHypercube, UnionFind};
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::churndos::{LabeledGroups, SizeBand};
use reconfig_core::config::{SamplingParams, Schedule};
use simnet::{BlockSet, Ctx, NodeId, Protocol};
use simnet_xl::XlNetwork;

/// One deterministic message per round to a pseudo-random target; used by
/// the trace-accounting properties below.
struct Ping {
    n: u64,
    active_rounds: u64,
}

impl Protocol for Ping {
    type Msg = u64;

    fn digest(&self, digest: &mut simnet::Digest) {
        digest.write_u64(self.n);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.take_inbox();
        if ctx.round() < self.active_rounds {
            let n = self.n;
            let to = NodeId(rand::RngExt::random_range(ctx.rng(), 0..n));
            ctx.send(to, ctx.round());
        }
    }
}

/// Drive a Ping network for `active + 2` rounds under a per-round block
/// schedule derived from `seed`; returns the network for inspection plus
/// the analytically-expected number of sends.
fn run_ping(
    n: u64,
    seed: u64,
    active: u64,
    block_every: u64,
    trace_cap: Option<usize>,
    remove_at: Option<u64>,
) -> (XlNetwork<Ping>, u64) {
    let mut net: XlNetwork<Ping> = XlNetwork::new(seed);
    if let Some(cap) = trace_cap {
        net.enable_trace(cap);
    }
    for i in 0..n {
        net.add_node(NodeId(i), Ping { n, active_rounds: active });
    }
    let mut sent = 0;
    let mut present = n;
    for r in 0..active + 2 {
        // A deterministic, seed-dependent block set each round.
        let mut blocked = BlockSet::none();
        if block_every > 0 {
            for i in 0..n {
                if (i + r + seed) % block_every == 0 {
                    blocked.insert(NodeId(i));
                }
            }
        }
        if Some(r) == remove_at {
            net.remove_node(NodeId(0));
            present -= 1;
        }
        if r < active {
            let blocked_present = (0..n).filter(|&i| blocked.contains(NodeId(i))).count() as u64
                - u64::from(present < n && blocked.contains(NodeId(0)));
            sent += present - blocked_present;
        }
        net.step_blocked(&blocked);
    }
    (net, sent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hamilton_cycle_successor_is_a_bijection(n in 3usize..60, seed in 0u64..1000) {
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let c = HamiltonCycle::random(&nodes, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for &v in &nodes {
            prop_assert!(seen.insert(c.successor(v)), "successor not injective");
            prop_assert_eq!(c.predecessor(c.successor(v)), v);
        }
        // Following successors visits every node exactly once.
        let mut cur = nodes[0];
        for _ in 0..n {
            cur = c.successor(cur);
        }
        prop_assert_eq!(cur, nodes[0]);
    }

    #[test]
    fn hgraph_is_always_connected_and_regular(n in 4usize..48, half_d in 1usize..4, seed in 0u64..500) {
        let d = 2 * half_d;
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = HGraph::random(&nodes, d, &mut rng);
        for &v in g.nodes() {
            prop_assert_eq!(g.neighbors(v).len(), d);
        }
        prop_assert!(overlay_graphs::connectivity::is_connected(&g.adjacency()));
    }

    #[test]
    fn hypercube_routes_have_hamming_length(dim in 2u32..10, a in 0u64..1024, b in 0u64..1024) {
        let h = Hypercube::new(dim);
        let (a, b) = (a % h.len(), b % h.len());
        prop_assert_eq!(h.distance(a, b), (a ^ b).count_ones());
        prop_assert!(h.distance(a, b) <= h.diameter());
    }

    #[test]
    fn kary_route_fixes_digits_left_to_right(k in 2u64..6, dim in 1u32..5, a in 0u64..4096, b in 0u64..4096) {
        let g = KaryHypercube::new(k, dim);
        let (a, b) = (a % g.len(), b % g.len());
        let path = g.route(a, b);
        prop_assert_eq!(*path.last().unwrap(), b);
        prop_assert_eq!(path.len() as u32 - 1, g.distance(a, b));
        for w in path.windows(2) {
            prop_assert_eq!(g.distance(w[0], w[1]), 1);
        }
    }

    #[test]
    fn union_find_components_match_edge_structure(n in 2usize..64, edges in prop::collection::vec((0usize..64, 0usize..64), 0..80)) {
        let mut uf = UnionFind::new(n);
        let mut merges = 0;
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            if a != b && uf.union(a, b) {
                merges += 1;
            }
        }
        prop_assert_eq!(uf.components(), n - merges);
    }

    #[test]
    fn prefix_cover_split_merge_roundtrip(dim in 1u8..5, path in prop::collection::vec(0u8..2, 0..4), seed in 0u64..100) {
        let mut cover = PrefixCover::uniform(dim);
        // Split along a random path, then merge everything back.
        let mut l = Label::new(0, dim);
        for b in path {
            let (c0, c1) = cover.split(l);
            prop_assert!(cover.is_exact_cover());
            l = if b == 0 { c0 } else { c1 };
        }
        let _ = seed;
        while cover.len() > (1usize << dim) {
            // Merge the deepest label (its sibling is present at max depth).
            let deepest = *cover.iter().max_by_key(|x| x.dim()).unwrap();
            cover.merge(deepest);
            prop_assert!(cover.is_exact_cover());
        }
        prop_assert_eq!(cover.len(), 1usize << dim);
    }

    #[test]
    fn labeled_groups_rebalance_always_lands_in_band(n in 60usize..400, c in 2usize..6, seed in 0u64..200) {
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut lg = LabeledGroups::random(&nodes, 2, &mut rng);
        let band = SizeBand { c };
        if lg.rebalance(band, &mut rng).is_ok() {
            for (l, g) in lg.iter() {
                prop_assert!(band.ok(l.dim(), g.len()), "label {:?} size {}", l, g.len());
            }
            prop_assert_eq!(lg.len(), n);
        }
    }

    #[test]
    fn schedule_m_is_geometric_and_sufficient(exp in 4u32..20, eps_pct in 10u32..100, c_tenths in 10u32..60) {
        let p = SamplingParams {
            alpha: 1.0,
            beta: 1.0,
            epsilon: eps_pct as f64 / 100.0,
            c: c_tenths as f64 / 10.0,
        };
        let s = Schedule::algorithm1(1usize << exp, 8, &p);
        for i in 1..=s.iterations {
            prop_assert!(s.m_at(i - 1) >= s.m_at(i));
        }
        prop_assert!(s.final_size() >= (p.c * exp as f64).floor() as usize);
    }

    #[test]
    fn trace_counters_classify_every_send(
        n in 4u64..40,
        seed in 0u64..500,
        active in 1u64..8,
        block_every in 0u64..6,
    ) {
        // After the network drains, every send is classified exactly once:
        // delivered + dropped_blocked + dropped_missing == sent.
        let (net, sent) = run_ping(n, seed, active, block_every, Some(1 << 14), None);
        let t = net.trace();
        prop_assert_eq!(t.overflow, 0);
        prop_assert_eq!(t.dropped_missing, 0, "no churn, nothing can go missing");
        prop_assert_eq!(t.delivered + t.dropped_blocked, sent);
        // The event log agrees with the counters.
        let mut d = 0u64;
        let mut b = 0u64;
        for ev in t.events() {
            match ev {
                simnet::TraceEvent::Delivered { .. } => d += 1,
                simnet::TraceEvent::DroppedBlocked { .. } => b += 1,
                _ => {}
            }
        }
        prop_assert_eq!((d, b), (t.delivered, t.dropped_blocked));
    }

    #[test]
    fn trace_counters_classify_every_send_under_churn(
        n in 4u64..40,
        seed in 0u64..500,
        active in 2u64..8,
    ) {
        // Removing a node mid-run routes its pending messages to
        // dropped_missing; the classification identity still holds.
        let (net, sent) = run_ping(n, seed, active, 0, Some(1 << 14), Some(1));
        let t = net.trace();
        prop_assert_eq!(t.overflow, 0);
        prop_assert_eq!(t.delivered + t.dropped_blocked + t.dropped_missing, sent);
    }

    #[test]
    fn counters_only_and_full_trace_agree(
        n in 4u64..40,
        seed in 0u64..500,
        active in 1u64..8,
        block_every in 0u64..6,
    ) {
        // The cheap counters-only mode must report exactly the same
        // counters (and leave the same stats) as a full event trace.
        let (lite, _) = run_ping(n, seed, active, block_every, None, None);
        let (full, _) = run_ping(n, seed, active, block_every, Some(1 << 14), None);
        let (lt, ft) = (lite.trace(), full.trace());
        prop_assert_eq!(lt.delivered, ft.delivered);
        prop_assert_eq!(lt.dropped_blocked, ft.dropped_blocked);
        prop_assert_eq!(lt.dropped_missing, ft.dropped_missing);
        prop_assert!(lt.events().is_empty(), "counters-only mode stores no events");
        prop_assert_eq!(lite.stats().total_msgs(), full.stats().total_msgs());
        prop_assert_eq!(lite.round_digest(), full.round_digest());
    }

    #[test]
    fn blockset_delivery_rule_is_monotone(senders in prop::collection::vec(0u64..20, 1..10)) {
        // Blocking more nodes never delivers more messages.
        let small: BlockSet = senders.iter().take(2).map(|&i| NodeId(i)).collect();
        let big: BlockSet = senders.iter().map(|&i| NodeId(i)).collect();
        for &s in &senders {
            for t in 0..20u64 {
                let d_small = simnet::fault::delivered(NodeId(s), NodeId(t), &small, &small);
                let d_big = simnet::fault::delivered(NodeId(s), NodeId(t), &big, &big);
                prop_assert!(d_big <= d_small, "blocking more delivered more");
            }
        }
    }
}
