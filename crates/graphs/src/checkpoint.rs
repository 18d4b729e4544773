//! [`Checkpoint`] implementations for the topology types.
//!
//! Every impl serializes through the type's public constructor so the
//! derived indices (cycle position maps, adjacency) are rebuilt rather
//! than stored; a loaded value is structurally identical to the original.

use crate::{HGraph, HamiltonCycle, Hypercube, Label, PrefixCover};
use serde_json::Value;
use simnet::checkpoint::{get, missing, Checkpoint, CkptError, CkptResult};
use simnet::NodeId;

impl Checkpoint for HamiltonCycle {
    fn save(&self) -> Value {
        simnet::checkpoint::save_slice(self.order())
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let order: Vec<NodeId> = simnet::checkpoint::load_vec(v)?;
        if order.len() < 3 {
            return Err(CkptError::Corrupt("hamilton cycle shorter than 3".into()));
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(CkptError::Corrupt(format!("hamilton cycle visits {} twice", w[0])));
        }
        Ok(HamiltonCycle::from_order(order))
    }
}

impl Checkpoint for HGraph {
    fn save(&self) -> Value {
        serde_json::json!({
            "nodes": simnet::checkpoint::save_slice(self.nodes()),
            "cycles": simnet::checkpoint::save_slice(self.cycles()),
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let nodes: Vec<NodeId> = get(v, "nodes")?;
        let cycles: Vec<HamiltonCycle> = get(v, "cycles")?;
        let covers =
            |c: &HamiltonCycle| c.len() == nodes.len() && nodes.iter().all(|&u| c.contains(u));
        if cycles.is_empty() || !cycles.iter().all(covers) {
            return Err(CkptError::Corrupt("h-graph cycles do not cover the node set".into()));
        }
        Ok(HGraph::from_cycles(nodes, cycles))
    }
}

impl Checkpoint for Hypercube {
    fn save(&self) -> Value {
        serde_json::json!({ "dim": self.dim() })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let dim: u64 = get(v, "dim")?;
        if !(1..=63).contains(&dim) {
            return Err(CkptError::Corrupt(format!("`dim`: hypercube dimension {dim}")));
        }
        Ok(Hypercube::new(dim as u32))
    }
}

impl Checkpoint for Label {
    fn save(&self) -> Value {
        serde_json::json!({ "bits": self.prefix_bits(self.dim()), "len": self.dim() })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let len: u64 = get(v, "len")?;
        if len > Label::MAX_LEN as u64 {
            return Err(CkptError::Corrupt(format!("label length {len}")));
        }
        Ok(Label::new(get(v, "bits")?, len as u8))
    }
}

impl Checkpoint for PrefixCover {
    fn save(&self) -> Value {
        Value::Array(self.iter().map(Checkpoint::save).collect())
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let labels = v
            .as_array()
            .ok_or_else(|| missing("prefix cover"))?
            .iter()
            .map(Label::load)
            .collect::<CkptResult<Vec<Label>>>()?;
        let cover = PrefixCover::from_labels(labels);
        if !cover.is_exact_cover() {
            return Err(CkptError::Corrupt("label set is not an exact prefix cover".into()));
        }
        Ok(cover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn hgraph_round_trips() {
        let nodes: Vec<NodeId> = (0..12).map(NodeId).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let g = HGraph::random(&nodes, 4, &mut rng);
        let back = HGraph::load(&g.save()).unwrap();
        assert_eq!(back.nodes(), g.nodes());
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn prefix_cover_round_trips_and_validates() {
        let mut cover = PrefixCover::uniform(3);
        let first = *cover.iter().next().unwrap();
        cover.merge(first);
        let back = PrefixCover::load(&cover.save()).unwrap();
        assert_eq!(back.len(), cover.len());
        // A non-cover must be rejected.
        let broken = Value::Array(vec![Label::new(0, 2).save()]);
        assert!(PrefixCover::load(&broken).is_err());
    }

    #[test]
    fn hamilton_cycle_visiting_a_node_twice_is_corrupt() {
        let order = Value::Array([1u64, 2, 3, 2].map(Value::from).to_vec());
        let err = HamiltonCycle::load(&order).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt(ref m) if m.contains("n2 twice")), "{err}");
    }

    #[test]
    fn hgraph_cycle_missing_a_node_is_corrupt() {
        let ids = |ids: &[u64]| Value::Array(ids.iter().map(|&i| Value::from(i)).collect());
        let v = serde_json::json!({
            "nodes": ids(&[0, 1, 2, 3]),
            "cycles": Value::Array(vec![ids(&[0, 1, 2, 3]), ids(&[0, 1, 2, 9])]),
        });
        let err = HGraph::load(&v).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt(ref m) if m.contains("cover")), "{err}");
    }

    #[test]
    fn hypercube_and_label_round_trip() {
        let c = Hypercube::new(7);
        assert_eq!(Hypercube::load(&c.save()).unwrap(), c);
        let l = Label::new(0b101, 3);
        assert_eq!(Label::load(&l.save()).unwrap(), l);
    }
}
