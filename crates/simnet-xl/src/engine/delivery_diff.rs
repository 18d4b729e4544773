//! The delivery-rule differential: the id-keyed classification the engine
//! used before it probed [`SeqBits`] — kept here, verbatim, as the oracle —
//! against the bitset path, over seeded random schedules.

use super::*;
use simnet::fault::delivered;

impl<P: Protocol> XlNetwork<P> {
    /// The reference rule: every block probe by id against the `BTreeSet`s,
    /// the sender probed on every fresh message, the receiver looked up
    /// last. `fresh` is "not matured".
    pub(super) fn deliver_one_id_keyed(
        &mut self,
        env: Envelope<P::Msg>,
        round: u64,
        blocked: &BlockSet,
        downs: &BlockSet,
        fresh: bool,
    ) {
        let dos_ok = if fresh {
            delivered(env.from, env.to, &self.prev_blocked, blocked)
        } else {
            !blocked.contains(env.to)
        };
        if !dos_ok {
            self.trace.record(TraceEvent::DroppedBlocked { round, from: env.from, to: env.to });
            return;
        }
        let mut duplicate = false;
        if !self.faults.is_null() {
            if downs.contains(env.to)
                || self.faults.down(env.from, env.sent_round)
                || self.faults.cut(env.from, env.to, round)
            {
                self.trace.record(TraceEvent::DroppedFault { round, from: env.from, to: env.to });
                return;
            }
            if fresh {
                if let Some(extra) = self.faults.scheduled_extra(env.from, env.to, env.sent_round) {
                    self.trace.record(TraceEvent::Delayed {
                        round,
                        from: env.from,
                        to: env.to,
                        until: round + extra,
                    });
                    self.delayed.push((round + extra, env));
                    return;
                }
                match self.faults.link_fate() {
                    LinkFate::Deliver => {}
                    LinkFate::Drop => {
                        self.trace.record(TraceEvent::DroppedLink {
                            round,
                            from: env.from,
                            to: env.to,
                        });
                        return;
                    }
                    LinkFate::Duplicate => duplicate = true,
                    LinkFate::Delay(extra) => {
                        self.trace.record(TraceEvent::Delayed {
                            round,
                            from: env.from,
                            to: env.to,
                            until: round + extra,
                        });
                        self.delayed.push((round + extra, env));
                        return;
                    }
                }
            }
        }
        match self.idmap.get(&env.to) {
            Some(&seq) => {
                let (sh, local) = (seq as usize % self.n_shards, self.seq_local[seq as usize]);
                let shard = &mut self.shards[sh];
                let local = local as usize;
                shard.charge(local, env.msg.size_bits());
                self.trace.record(TraceEvent::Delivered { round, from: env.from, to: env.to });
                let extra_copy = duplicate.then(|| env.clone());
                shard.inboxes[local].push(env);
                shard.mark_dirty(seq, local);
                if let Some(copy) = extra_copy {
                    shard.charge(local, copy.msg.size_bits());
                    self.trace.record(TraceEvent::Duplicated {
                        round,
                        from: copy.from,
                        to: copy.to,
                    });
                    shard.inboxes[local].push(copy);
                }
            }
            None => {
                self.trace.record(TraceEvent::DroppedMissing { round, from: env.from, to: env.to });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Schedules: data, so one schedule drives every engine of a case.
// ---------------------------------------------------------------------------

use rand::RngExt;
use simnet::fault::{LinkFaults, NodeFault};
use simnet::rng::stream;

/// Order-sensitive gossip that remembers when it last ran: one message per
/// round to a fixed neighbour (so scheduled delays can name it), one to an
/// RNG-chosen id of the universe — member, departed or not yet joined.
struct Probe {
    next: NodeId,
    universe: u64,
    heat: u64,
    rounds_left: u64,
    /// Round of the latest `on_round` that did anything; `NEVER` before it.
    last_ran: u64,
}

const NEVER: u64 = u64::MAX;

impl Probe {
    fn new(id: u64, initial: u64, universe: u64, rounds_left: u64) -> Self {
        Self { next: NodeId((id + 1) % initial), universe, heat: id, rounds_left, last_ran: NEVER }
    }
}

impl Protocol for Probe {
    type Msg = u64;

    fn digest(&self, d: &mut Digest) {
        d.write_u64(self.heat).write_u64(self.rounds_left).write_u64(self.last_ran);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        self.last_ran = ctx.round();
        for env in ctx.take_inbox() {
            self.heat = self.heat.wrapping_mul(31).wrapping_add(env.msg ^ env.from.raw());
        }
        let next = self.next;
        ctx.send(next, self.heat);
        let to = NodeId(ctx.rng().random_range(0..self.universe));
        let msg = self.heat ^ ctx.rng().random::<u64>();
        ctx.send(to, msg);
    }

    fn on_crash_recover(&mut self) {
        self.heat = 0;
        self.rounds_left = 6;
    }

    fn quiescent(&self) -> bool {
        self.rounds_left == 0
    }
}

impl Checkpoint for Probe {
    fn save(&self) -> Value {
        serde_json::json!({
            "next": self.next.raw(),
            "universe": self.universe,
            "heat": self.heat,
            "rounds_left": self.rounds_left,
            "last_ran": self.last_ran,
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        Ok(Self {
            next: NodeId(get_u64(v, "next")?),
            universe: get_u64(v, "universe")?,
            heat: get_u64(v, "heat")?,
            rounds_left: get_u64(v, "rounds_left")?,
            last_ran: get_u64(v, "last_ran")?,
        })
    }
}

/// What happens between two rounds, then the round's block set.
struct RoundPlan {
    leave: Vec<NodeId>,
    /// `(id, round budget)` of each joiner.
    join: Vec<(NodeId, u64)>,
    /// `(nominal sender, receiver, payload)`.
    inject: Vec<(NodeId, NodeId, u64)>,
    blocked: BlockSet,
}

struct Case {
    seed: u64,
    initial: u64,
    universe: u64,
    budgets: Vec<u64>,
    faults: FaultModel,
    rounds: Vec<RoundPlan>,
    /// Checkpoint and restore before this round (in-flight mail and all).
    resume_before: Option<usize>,
}

fn random_case(case: u64) -> Case {
    let mut rng = stream(0xD1FF_D311, case, 0x18);
    let initial = rng.random_range(6..36u64);
    // Ids past `initial` are joiners; every id of the universe can be
    // written to, blocked and named as an injection's sender whether or
    // not it is a member at the time.
    let universe = initial + 12;
    let n_rounds = rng.random_range(10..28usize);
    // Some nodes run out of budget mid-run and go quiescent.
    let budgets = (0..initial).map(|_| rng.random_range(3..40u64)).collect();
    let block_rate = [0.0, 0.05, 0.15, 0.35][rng.random_range(0..4usize)];

    let mut members: Vec<u64> = (0..initial).collect();
    let mut departed: Vec<u64> = Vec::new();
    let mut next_fresh = initial;
    let mut rounds = Vec::with_capacity(n_rounds);
    for _ in 0..n_rounds {
        let mut plan = RoundPlan {
            leave: Vec::new(),
            join: Vec::new(),
            inject: Vec::new(),
            blocked: BlockSet::none(),
        };
        if rng.random_bool(0.4) {
            for _ in 0..rng.random_range(1..4usize) {
                if members.len() > 3 {
                    let id = members.swap_remove(rng.random_range(0..members.len()));
                    departed.push(id);
                    plan.leave.push(NodeId(id));
                }
            }
            // Joiners take the seqs just freed, most recently freed first;
            // now and then a departed id comes back under a new seq.
            for _ in 0..rng.random_range(0..4usize) {
                let id = if !departed.is_empty() && rng.random_bool(0.2) {
                    departed.swap_remove(rng.random_range(0..departed.len()))
                } else if next_fresh < universe {
                    next_fresh += 1;
                    next_fresh - 1
                } else {
                    continue;
                };
                members.push(id);
                plan.join.push((NodeId(id), rng.random_range(3..40u64)));
            }
        }
        if rng.random_bool(0.35) {
            for _ in 0..rng.random_range(1..4usize) {
                let from = NodeId(rng.random_range(0..universe));
                let to = NodeId(rng.random_range(0..universe));
                plan.inject.push((from, to, rng.random::<u64>()));
            }
        }
        plan.blocked = (0..universe).filter(|_| rng.random_bool(block_rate)).map(NodeId).collect();
        rounds.push(plan);
    }

    let mut faults = FaultModel::null();
    if rng.random_bool(0.6) {
        // The `stress_faults()` mix of the layout tests, on ids of this case.
        faults = FaultModel::new(rng.random::<u64>())
            .with_link(LinkFaults {
                drop_prob: 0.12,
                dup_prob: 0.07,
                delay_prob: 0.15,
                max_delay: 3,
            })
            .with_node_fault(NodeId(4), NodeFault::CrashRecover { at: 5, down_for: 4 })
            .with_node_fault(NodeId(1), NodeFault::CrashStop { at: 12 })
            .with_node_fault(NodeId(initial - 1), NodeFault::CrashRecover { at: 2, down_for: 2 });
    }
    if rng.random_bool(0.5) {
        // Scheduled delays on the fixed-neighbour sends, some stacked.
        for _ in 0..rng.random_range(1..8usize) {
            let from = rng.random_range(0..initial);
            let sent_round = rng.random_range(0..n_rounds as u64);
            for _ in 0..rng.random_range(1..3usize) {
                faults = faults.with_scheduled_delay(
                    NodeId(from),
                    NodeId((from + 1) % initial),
                    sent_round,
                    rng.random_range(1..4u64),
                );
            }
        }
    }
    let resume_before = rng.random_bool(0.3).then(|| rng.random_range(1..n_rounds));
    Case { seed: rng.random::<u64>(), initial, universe, budgets, faults, rounds, resume_before }
}

// ---------------------------------------------------------------------------
// Driving one engine through a case.
// ---------------------------------------------------------------------------

/// Everything observable about one round.
#[derive(Debug, PartialEq)]
struct RoundRecord {
    digest: u64,
    /// delivered, dropped_blocked, dropped_missing, dropped_fault,
    /// dropped_link, duplicated, delayed — this round's share.
    counters: [u64; 7],
    work: RoundWork,
    events: Vec<TraceEvent>,
}

pub(super) fn counters(t: &Trace) -> [u64; 7] {
    [
        t.delivered,
        t.dropped_blocked,
        t.dropped_missing,
        t.dropped_fault,
        t.dropped_link,
        t.duplicated,
        t.delayed,
    ]
}

/// Paths a run went through, summed over cases to show the schedules reach
/// what the differential is about.
#[derive(Default)]
struct Coverage {
    counters: [u64; 7],
    /// `dropped_blocked` verdicts on a receiver that was not a member.
    blocked_non_member: u64,
    /// Joins that took a freed seq.
    reused_seqs: u64,
    /// Rounds resumed from a checkpoint that carried mail in flight.
    resumed_with_mail: u64,
}

fn drive(case: &Case, reference: bool, cov: &mut Coverage) -> Vec<RoundRecord> {
    let mut net = XlNetwork::<Probe>::new(case.seed);
    net.id_keyed_reference = reference;
    net.set_fault_model(case.faults.clone());
    net.enable_trace(usize::MAX);
    for (id, &budget) in case.budgets.iter().enumerate() {
        let id = id as u64;
        net.add_node(NodeId(id), Probe::new(id, case.initial, case.universe, budget));
    }
    let mut out = Vec::with_capacity(case.rounds.len());
    for (r, plan) in case.rounds.iter().enumerate() {
        if case.resume_before == Some(r) {
            cov.resumed_with_mail += u64::from(net.pending().next().is_some());
            net = XlNetwork::from_state(&net.save_state()).expect("resume");
            net.id_keyed_reference = reference;
            net.enable_trace(usize::MAX);
        }
        for &id in &plan.leave {
            net.remove_node(id).expect("the plan removes members only");
        }
        for &(id, budget) in &plan.join {
            cov.reused_seqs += u64::from(!net.free.is_empty());
            net.add_node(id, Probe::new(id.raw(), case.initial, case.universe, budget));
        }
        for &(from, to, msg) in &plan.inject {
            net.inject(from, to, msg);
        }

        let round = net.round();
        let was_active: Vec<(NodeId, bool)> =
            net.nodes().map(|(id, p)| (id, !p.quiescent())).collect();
        let (before, seen) = (counters(net.trace()), net.trace().events().len());
        net.step_blocked(&plan.blocked);

        // The compute walk against the id-keyed sets, engine-independent:
        // a blocked or down node did not run, an active free one did.
        for (id, active) in was_active {
            let held = plan.blocked.contains(id) || net.fault_model().down(id, round);
            let ran = net.node(id).expect("member").last_ran == round;
            assert!(!(held && ran), "round {round}: blocked or down {id} ran");
            assert!(held || !active || ran, "round {round}: free active {id} did not run");
        }

        let after = counters(net.trace());
        let events = net.trace().events()[seen..].to_vec();
        cov.blocked_non_member += events
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::DroppedBlocked { to, .. } if !net.contains(*to)))
            .count() as u64;
        out.push(RoundRecord {
            digest: net.round_digest(),
            counters: std::array::from_fn(|i| after[i] - before[i]),
            work: *net.stats().rounds().last().expect("one entry per round"),
            events,
        });
    }
    for (i, count) in out.iter().flat_map(|rec| rec.counters.iter().enumerate()) {
        cov.counters[i] += count;
    }
    out
}

/// `just delivery-diff`.
#[test]
fn bitset_delivery_matches_the_id_keyed_reference_on_random_schedules() {
    let mut cov = Coverage::default();
    let mut unused = Coverage::default();
    for case_no in 0..400 {
        let case = random_case(case_no);
        let want = drive(&case, true, &mut cov);
        let got = drive(&case, false, &mut unused);
        for (r, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "case {case_no}, round {r}");
        }
        assert_eq!(got.len(), want.len());
    }
    // The schedules must reach the paths the rule is about.
    let [delivered, blocked, missing, fault, link, duplicated, delayed] = cov.counters;
    assert!(delivered > 50_000 && blocked > 10_000 && missing > 10_000, "{:?}", cov.counters);
    assert!(fault > 1_000 && link > 1_000 && duplicated > 1_000 && delayed > 1_000);
    assert!(cov.blocked_non_member > 1_000, "departed-and-blocked: {}", cov.blocked_non_member);
    assert!(cov.reused_seqs > 300, "joins on a freed seq: {}", cov.reused_seqs);
    assert!(cov.resumed_with_mail > 50, "resumes with mail: {}", cov.resumed_with_mail);
}
