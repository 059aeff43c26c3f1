//! Per-message routing state carried in the message header.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use torus_topology::{AnyTopology, Direction, NodeId, Topology};

/// The two flavours of Software-Based routing evaluated in the paper.
///
/// In a fault-free network the deterministic flavour is identical to
/// dimension-order (e-cube) routing and the adaptive flavour is identical to
/// Duato's Protocol fully adaptive routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingFlavor {
    /// Deterministic (e-cube based) Software-Based routing.
    Deterministic,
    /// Fully adaptive (Duato's Protocol based) Software-Based routing.
    Adaptive,
}

impl RoutingFlavor {
    /// Short label used in result tables ("deterministic" / "adaptive").
    pub fn label(&self) -> &'static str {
        match self {
            RoutingFlavor::Deterministic => "deterministic",
            RoutingFlavor::Adaptive => "adaptive",
        }
    }
}

/// Routing state carried in a message header.
///
/// Besides the destination this records everything the Software-Based scheme
/// rewrites when the message-passing software re-routes an absorbed message:
/// the chain of intermediate destinations, per-dimension direction overrides
/// (rule 1: "re-route in the same dimension in the opposite direction"), the
/// `faulted` flag that pins the message to deterministic routing after its
/// first fault encounter, and the remaining misroute budget that bounds
/// livelock.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouteHeader {
    /// Node that generated the message.
    pub source: NodeId,
    /// Final destination (the node whose PE must receive the message).
    pub final_dest: NodeId,
    /// Chain of routing targets; the front is the node routing currently aims
    /// for, the back is always [`RouteHeader::final_dest`].
    via: VecDeque<NodeId>,
    /// Flavour the message was injected with.
    pub flavor: RoutingFlavor,
    /// Set once the message has encountered a fault; from then on it is
    /// routed deterministically (Section 4 of the paper).
    pub faulted: bool,
    /// Per-dimension forced direction overrides installed by the software
    /// layer (rule 1). A forced dimension is routed non-minimally in the
    /// stored direction until its offset towards the current target reaches
    /// zero.
    pub forced_dir: Vec<Option<Direction>>,
    /// Per-dimension "crossed the dateline" flags for the current network
    /// traversal, used to select the dateline virtual-channel class.
    pub crossed_dateline: Vec<bool>,
    /// Number of times this message has been absorbed due to faults.
    pub absorptions: u32,
    /// Remaining misroute budget before the software layer computes an
    /// explicit fault-free path (guaranteeing livelock freedom).
    pub misroute_budget: u32,
    /// Total network hops taken so far (across all injections).
    pub hops: u32,
    /// True once the software layer has installed an explicit fault-free path
    /// (rule 3); such a message needs no further re-routing.
    pub escorted: bool,
}

impl RouteHeader {
    /// Creates the header of a freshly generated message.
    pub fn new<T: Topology + ?Sized>(
        net: &T,
        source: NodeId,
        dest: NodeId,
        flavor: RoutingFlavor,
    ) -> Self {
        let n = net.dims();
        let mut via = VecDeque::with_capacity(2);
        via.push_back(dest);
        RouteHeader {
            source,
            final_dest: dest,
            via,
            flavor,
            faulted: false,
            forced_dir: vec![None; n],
            crossed_dateline: vec![false; n],
            absorptions: 0,
            misroute_budget: default_misroute_budget(net),
            hops: 0,
            escorted: false,
        }
    }

    /// The node routing is currently aiming for (an intermediate destination
    /// or the final destination).
    pub fn target(&self) -> NodeId {
        *self
            .via
            .front()
            .expect("via chain always contains at least the final destination")
    }

    /// Number of intermediate destinations still ahead (excluding the final
    /// destination).
    pub fn pending_via(&self) -> usize {
        self.via.len() - 1
    }

    /// Called when the header reaches its current target: advances to the next
    /// via node. Returns `true` if the message has arrived at its final
    /// destination and must be delivered.
    pub fn advance_target(&mut self, at: NodeId) -> bool {
        debug_assert_eq!(at, self.target());
        if self.via.len() > 1 {
            self.via.pop_front();
            false
        } else {
            true
        }
    }

    /// Replaces the whole via chain (software re-route, rule 3). The final
    /// destination is appended automatically if missing.
    pub fn set_via_chain<I: IntoIterator<Item = NodeId>>(&mut self, chain: I) {
        self.via = chain.into_iter().collect();
        if self.via.back() != Some(&self.final_dest) {
            self.via.push_back(self.final_dest);
        }
    }

    /// Prepends one intermediate destination before the current target
    /// (software re-route, rule 2: orthogonal detour).
    pub fn push_intermediate(&mut self, node: NodeId) {
        if self.target() != node {
            self.via.push_front(node);
        }
    }

    /// Resets the per-traversal state when the message is (re-)injected into
    /// the network: a re-injected message starts a fresh traversal, so its
    /// dateline-crossing flags are cleared.
    pub fn reset_for_injection(&mut self) {
        for c in &mut self.crossed_dateline {
            *c = false;
        }
    }

    /// Whether the message must currently be routed deterministically: either
    /// it was injected deterministic, or it has already encountered a fault.
    pub fn is_deterministic(&self) -> bool {
        self.faulted || self.flavor == RoutingFlavor::Deterministic
    }

    /// Records that the header moved one hop along `dim` in direction `dir`
    /// from ring position `from_pos`, updating dateline and forced-direction
    /// bookkeeping. Datelines and forced-direction release are grid concepts;
    /// on indirect topologies only the hop counter advances.
    pub fn note_hop(&mut self, net: &AnyTopology, from: NodeId, dim: usize, dir: Direction) {
        self.hops += 1;
        if let Some(grid) = net.grid() {
            self.note_grid_bookkeeping(grid, from, dim, dir);
        }
    }

    /// The grid-specific part of [`RouteHeader::note_hop`], usable directly by
    /// analyses that walk a [`Network`](torus_topology::Network) (the CDG
    /// builders). Does **not** advance the hop counter.
    pub fn note_grid_bookkeeping(
        &mut self,
        grid: &torus_topology::Network,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        let from_pos = grid.position(from, dim);
        if grid.crosses_dateline(dim, from_pos, dir) {
            self.crossed_dateline[dim] = true;
        }
        // A forced (non-minimal) dimension is released as soon as the offset
        // towards the current target is nullified.
        let next = grid
            .neighbor(from, dim, dir)
            .expect("a recorded hop always crosses an existing channel");
        if self.forced_dir[dim].is_some() && grid.offset(next, self.target(), dim) == 0 {
            self.forced_dir[dim] = None;
        }
    }
}

/// Default misroute budget: allows a message to be re-routed by the simple
/// table rules a couple of times per dimension before the software layer
/// computes an explicit fault-free path. `4 + 2n` absorptions is far more than
/// the fault patterns of the paper ever require, yet small enough to bound
/// worst-case livelock tightly. (On a fat-tree `n` is the switch arity, so
/// the budget scales with the number of alternate parents.)
pub fn default_misroute_budget<T: Topology + ?Sized>(net: &T) -> u32 {
    4 + 2 * net.dims() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus() -> AnyTopology {
        AnyTopology::torus(8, 2).unwrap()
    }

    fn node(t: &AnyTopology, digits: &[u16]) -> NodeId {
        t.grid().unwrap().node_from_digits(digits).unwrap()
    }

    #[test]
    fn new_header_targets_final_destination() {
        let t = torus();
        let h = RouteHeader::new(&t, NodeId(0), NodeId(9), RoutingFlavor::Adaptive);
        assert_eq!(h.target(), NodeId(9));
        assert_eq!(h.pending_via(), 0);
        assert!(!h.faulted);
        assert!(!h.is_deterministic());
        assert_eq!(h.absorptions, 0);
    }

    #[test]
    fn deterministic_flavor_is_always_deterministic() {
        let t = torus();
        let h = RouteHeader::new(&t, NodeId(0), NodeId(9), RoutingFlavor::Deterministic);
        assert!(h.is_deterministic());
        let mut h = RouteHeader::new(&t, NodeId(0), NodeId(9), RoutingFlavor::Adaptive);
        h.faulted = true;
        assert!(h.is_deterministic());
    }

    #[test]
    fn advance_target_walks_the_via_chain() {
        let t = torus();
        let mut h = RouteHeader::new(&t, NodeId(0), NodeId(9), RoutingFlavor::Deterministic);
        h.push_intermediate(NodeId(3));
        assert_eq!(h.target(), NodeId(3));
        assert_eq!(h.pending_via(), 1);
        assert!(!h.advance_target(NodeId(3)));
        assert_eq!(h.target(), NodeId(9));
        assert!(h.advance_target(NodeId(9)));
    }

    #[test]
    fn push_intermediate_ignores_duplicate_target() {
        let t = torus();
        let mut h = RouteHeader::new(&t, NodeId(0), NodeId(9), RoutingFlavor::Deterministic);
        h.push_intermediate(NodeId(9));
        assert_eq!(h.pending_via(), 0);
    }

    #[test]
    fn set_via_chain_appends_final_destination() {
        let t = torus();
        let mut h = RouteHeader::new(&t, NodeId(0), NodeId(9), RoutingFlavor::Deterministic);
        h.set_via_chain([NodeId(1), NodeId(2)]);
        assert_eq!(h.target(), NodeId(1));
        assert_eq!(h.pending_via(), 2);
        h.set_via_chain([NodeId(5), NodeId(9)]);
        assert_eq!(h.pending_via(), 1);
        h.set_via_chain(std::iter::empty());
        assert_eq!(h.target(), NodeId(9));
    }

    #[test]
    fn note_hop_tracks_datelines_and_hops() {
        let t = torus();
        let src = node(&t, &[7, 0]);
        let mut h = RouteHeader::new(&t, src, node(&t, &[1, 0]), RoutingFlavor::Deterministic);
        assert!(!h.crossed_dateline[0]);
        h.note_hop(&t, src, 0, Direction::Plus); // 7 -> 0 crosses the dateline
        assert!(h.crossed_dateline[0]);
        assert!(!h.crossed_dateline[1]);
        assert_eq!(h.hops, 1);
    }

    #[test]
    fn forced_direction_released_when_offset_nullified() {
        let t = torus();
        let src = node(&t, &[3, 0]);
        let dest = node(&t, &[4, 0]);
        let mut h = RouteHeader::new(&t, src, dest, RoutingFlavor::Deterministic);
        // Force the "wrong way round" in dimension 0.
        h.forced_dir[0] = Some(Direction::Minus);
        // Walk 3 -> 2 -> 1 -> 0 -> 7 -> 6 -> 5 -> 4 the long way (7 hops); the
        // override must persist until the hop that lands on the target column.
        let mut cur = src;
        for _ in 0..7 {
            assert!(h.forced_dir[0].is_some());
            h.note_hop(&t, cur, 0, Direction::Minus);
            cur = t.neighbor(cur, 0, Direction::Minus).unwrap();
        }
        assert_eq!(cur, dest);
        assert!(h.forced_dir[0].is_none());
    }

    #[test]
    fn reset_for_injection_clears_dateline_flags() {
        let t = torus();
        let mut h = RouteHeader::new(&t, NodeId(0), NodeId(20), RoutingFlavor::Adaptive);
        h.crossed_dateline[1] = true;
        h.hops = 5;
        h.reset_for_injection();
        assert!(!h.crossed_dateline[1]);
        assert_eq!(h.hops, 5, "hop count persists across re-injection");
    }

    #[test]
    fn misroute_budget_scales_with_dimensionality() {
        assert_eq!(
            default_misroute_budget(&AnyTopology::torus(8, 2).unwrap()),
            8
        );
        assert_eq!(
            default_misroute_budget(&AnyTopology::torus(8, 3).unwrap()),
            10
        );
        // Fat-tree: dims == arity, so budget scales with parent fan-out.
        assert_eq!(
            default_misroute_budget(&AnyTopology::fat_tree_new(4, 2).unwrap()),
            12
        );
    }
}
