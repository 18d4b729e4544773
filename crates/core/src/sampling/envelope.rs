//! What a sampling run records, written once for every entry point.
//!
//! Two layers. [`Envelope::open`] and [`Open::close`] are the observe
//! layer: a private collector, the `Sampling` phase, the `SamplingStarted`
//! and `SamplingFinished` events, the [`SamplingMetrics`] derived from the
//! collector's snapshot and the fold of the collector into the caller's
//! recorder. [`Envelope::simulate`] is the engine layer the three
//! message-level samplers share: build the engine, add the nodes, run the
//! schedule and harvest every node.

use super::hgraph::DigestedRun;
use crate::backend::AnyNet;
use crate::metrics::SamplingMetrics;
use simnet::{NodeId, Protocol};
use telemetry::{EventKind, Phase, PhaseGuard, Telemetry};

/// One sampling run as its metrics report it, and the recorder it folds
/// into.
pub(super) struct Envelope<'a> {
    pub tel: &'a Telemetry,
    pub n: usize,
    pub rounds: u64,
    pub iterations: usize,
}

/// A run between its start and finish events. Its work is recorded into
/// `collector` under `net.*`: by the engine, or by the direct sampler's
/// analytic accounting.
pub(super) struct Open<'a> {
    envelope: Envelope<'a>,
    pub collector: Telemetry,
    sampling: PhaseGuard,
}

impl<'a> Envelope<'a> {
    /// Open the run on a private collector: enter the `Sampling` phase and
    /// emit the start event with detail `started`.
    pub fn open(self, started: String) -> Open<'a> {
        let collector =
            Telemetry::new(telemetry::Config { timing: self.tel.timing(), ..Default::default() });
        let sampling = collector.phase(Phase::Sampling);
        collector.emit(0, EventKind::SamplingStarted, None, self.n as u64, || started);
        Open { envelope: self, collector, sampling }
    }

    /// Observe a message-level sampler: add `nodes` in the order given to
    /// an engine from [`crate::backend::select`], record its round digests
    /// under `manifest` if one is given, run `self.rounds` rounds, and
    /// `harvest` each node's samples and failures in the same order.
    /// `finished` renders the finish event's detail from the failure count.
    /// Attaching the collector never perturbs the engine's digest stream
    /// (the observability guarantee of `XlNetwork::set_telemetry`).
    pub fn simulate<P: Protocol>(
        self,
        seed: u64,
        manifest: Option<String>,
        nodes: impl IntoIterator<Item = (NodeId, P)>,
        harvest: impl Fn(&P) -> (Vec<NodeId>, u64),
        started: String,
        finished: impl FnOnce(u64) -> String,
    ) -> DigestedRun {
        let (n, rounds) = (self.n, self.rounds);
        let run = self.open(started);
        let mut net: AnyNet<P> = crate::backend::select().build(seed);
        net.set_telemetry(run.collector.clone());
        if let Some(manifest) = manifest {
            net.enable_digests();
            net.set_manifest(manifest);
        }
        let mut out = Vec::with_capacity(n);
        for (v, node) in nodes {
            net.add_node(v, node);
            out.push((v, Vec::new()));
        }
        net.run(rounds);
        let mut failures = 0;
        for (v, samples) in &mut out {
            let (taken, failed) = harvest(net.node(*v).expect("sampler node still present"));
            *samples = taken;
            failures += failed;
        }
        let per_node = out.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
        let metrics = run.close(per_node, failures, finished(failures));
        (out, metrics, net.trace().digests().to_vec())
    }
}

impl Open<'_> {
    /// Emit the finish event with detail `finished`, derive the metrics
    /// from the collector's snapshot (the work fields come from nowhere
    /// else), leave the phase and fold the collector into the caller's
    /// recorder. `per_node` is the fewest samples any node holds and
    /// `failures` the pops from an empty multiset.
    pub fn close(self, per_node: usize, failures: u64, finished: String) -> SamplingMetrics {
        let Open { envelope: Envelope { tel, n, rounds, iterations }, collector, sampling } = self;
        collector.emit(rounds, EventKind::SamplingFinished, None, failures, || finished);
        let snap = collector.snapshot();
        let metrics =
            SamplingMetrics::from_snapshot(&snap, n, rounds, iterations, per_node, failures);
        drop(sampling);
        tel.absorb(&collector);
        metrics
    }
}
