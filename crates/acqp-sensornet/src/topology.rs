//! Multihop collection trees.
//!
//! Real deployments route through a collection tree rooted at the
//! basestation (Fig. 4 shows multihop links). Plan dissemination floods
//! down the tree — every node receives the plan once and every interior
//! node forwards it — and results climb hop by hop back to the root, so
//! a deep mote's result costs every ancestor a relay. This makes plan
//! size ζ(P) and result *rate* first-class energy terms, sharpening the
//! §2.4 trade-off.

use crate::energy::{EnergyLedger, EnergyModel};

/// A collection tree over motes `0..n`; the basestation is a virtual
/// root above every depth-1 node.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Parent mote of each mote; `None` = direct link to the
    /// basestation (depth 1).
    parent: Vec<Option<usize>>,
    depth: Vec<u32>,
}

impl Topology {
    /// Builds from explicit parents, validating acyclicity.
    pub fn new(parent: Vec<Option<usize>>) -> Result<Self, &'static str> {
        let n = parent.len();
        let mut depth = vec![0u32; n];
        for (start, d) in depth.iter_mut().enumerate() {
            // Walk to the root, counting hops; bail on cycles.
            let mut hops = 1u32;
            let mut cur = start;
            while let Some(p) = parent[cur] {
                if p >= n {
                    return Err("parent out of range");
                }
                hops += 1;
                if hops as usize > n + 1 {
                    return Err("cycle in topology");
                }
                cur = p;
            }
            *d = hops;
        }
        Ok(Topology { parent, depth })
    }

    /// Every mote one hop from the basestation. Under
    /// [`crate::sim::run_simulation`] its mote ledgers match the run
    /// with no topology; only the basestation's plan broadcast differs
    /// (one transmission instead of one per mote).
    pub fn star(n: usize) -> Self {
        Topology { parent: vec![None; n], depth: vec![1; n] }
    }

    /// A chain: mote 0 at depth 1, mote `i` routed through mote `i−1`.
    pub fn line(n: usize) -> Self {
        let parent = (0..n).map(|i| if i == 0 { None } else { Some(i - 1) }).collect();
        Topology { parent, depth: (1..=n as u32).collect() }
    }

    /// A balanced tree with the given fanout (mote 0.. filled level by
    /// level; the first `fanout` motes hang off the basestation).
    pub fn balanced(n: usize, fanout: usize) -> Self {
        let fanout = fanout.max(1);
        let parent: Vec<Option<usize>> =
            (0..n).map(|i| if i < fanout { None } else { Some(i / fanout - 1) }).collect();
        Self::new(parent).expect("balanced construction is acyclic")
    }

    /// Number of motes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for an empty network.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Hop count from mote `v` to the basestation.
    pub fn depth(&self, v: usize) -> u32 {
        self.depth[v]
    }

    /// Parent of `v` (None = basestation link).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Whether `v` forwards traffic for at least one child.
    pub fn is_interior(&self, v: usize) -> bool {
        self.parent.contains(&Some(v))
    }

    /// Charges the flood-dissemination of a `bytes`-long plan: every
    /// mote receives once; every interior mote retransmits once.
    /// Returns the basestation's own transmit energy.
    pub fn charge_dissemination(
        &self,
        bytes: usize,
        model: &EnergyModel,
        ledgers: &mut [EnergyLedger],
    ) -> f64 {
        debug_assert_eq!(ledgers.len(), self.len());
        for (v, l) in ledgers.iter_mut().enumerate() {
            l.radio_rx_uj += bytes as f64 * model.radio_rx_uj_per_byte;
            if self.is_interior(v) {
                l.radio_tx_uj += bytes as f64 * model.radio_tx_uj_per_byte;
            }
        }
        bytes as f64 * model.radio_tx_uj_per_byte
    }

    /// Charges one `bytes`-long result climbing from `origin` to the
    /// basestation: the origin transmits; each ancestor receives and
    /// retransmits.
    pub fn charge_result(
        &self,
        origin: usize,
        bytes: usize,
        model: &EnergyModel,
        ledgers: &mut [EnergyLedger],
    ) {
        let tx = bytes as f64 * model.radio_tx_uj_per_byte;
        let rx = bytes as f64 * model.radio_rx_uj_per_byte;
        ledgers[origin].radio_tx_uj += tx;
        let mut cur = origin;
        while let Some(p) = self.parent[cur] {
            ledgers[p].radio_rx_uj += rx;
            ledgers[p].radio_tx_uj += tx;
            cur = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_depths() {
        let star = Topology::star(4);
        assert!((0..4).all(|v| star.depth(v) == 1));
        assert!(!star.is_interior(0));

        let line = Topology::line(4);
        assert_eq!(line.depth(0), 1);
        assert_eq!(line.depth(3), 4);
        assert!(line.is_interior(0) && !line.is_interior(3));

        let tree = Topology::balanced(7, 2);
        assert_eq!(tree.depth(0), 1);
        assert_eq!(tree.depth(1), 1);
        assert_eq!(tree.depth(2), 2); // child of mote 0
        assert_eq!(tree.parent(2), Some(0));
        assert_eq!(tree.depth(6), 3);
    }

    #[test]
    fn rejects_cycles_and_bad_parents() {
        assert!(Topology::new(vec![Some(1), Some(0)]).is_err());
        assert!(Topology::new(vec![Some(5)]).is_err());
        assert!(Topology::new(vec![Some(0)]).is_err(), "self-loop");
    }

    #[test]
    fn dissemination_charges_interior_nodes_extra() {
        let t = Topology::line(3);
        let m = EnergyModel::mica_like();
        let mut l = vec![EnergyLedger::default(); 3];
        let bs_tx = t.charge_dissemination(100, &m, &mut l);
        assert_eq!(bs_tx, 100.0);
        // Every node rx; nodes 0 and 1 forward.
        for ledger in &l {
            assert_eq!(ledger.radio_rx_uj, 75.0);
        }
        assert_eq!(l[0].radio_tx_uj, 100.0);
        assert_eq!(l[1].radio_tx_uj, 100.0);
        assert_eq!(l[2].radio_tx_uj, 0.0);
    }

    #[test]
    fn result_relay_charges_every_ancestor() {
        let t = Topology::line(3);
        let m = EnergyModel::mica_like();
        let mut l = vec![EnergyLedger::default(); 3];
        t.charge_result(2, 8, &m, &mut l);
        assert_eq!(l[2].radio_tx_uj, 8.0);
        assert_eq!(l[1].radio_rx_uj, 6.0);
        assert_eq!(l[1].radio_tx_uj, 8.0);
        assert_eq!(l[0].radio_rx_uj, 6.0);
        assert_eq!(l[0].radio_tx_uj, 8.0);
        // Depth-1 origin touches nobody else.
        let mut l2 = vec![EnergyLedger::default(); 3];
        t.charge_result(0, 8, &m, &mut l2);
        assert_eq!(l2[0].radio_tx_uj, 8.0);
        assert_eq!(l2[1].radio_tx_uj, 0.0);
    }
}
