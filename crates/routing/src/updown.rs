//! Up*/down* routing for k-ary l-level fat-trees.
//!
//! A fat-tree message first climbs ([`Direction::Plus`] hops) to the lowest
//! switch that is a common ancestor of source and destination, then descends
//! ([`Direction::Minus`] hops) along the unique down-path into the
//! destination's subtree. Because every legal route is of the form
//! `up* down*`, ordering all up-channels before all down-channels makes the
//! channel dependency graph acyclic — the classical up/down deadlock-freedom
//! argument, which the verifier re-establishes machine-checked through the
//! same exact-CDG pipeline used for the grid schemes.
//!
//! Two flavours mirror the SW-Based scheme's structure:
//!
//! * **deterministic flavour** ([`UpDownRouting::deterministic`]) — the
//!   ascent is pinned to the destination-aligned parent (the parent whose
//!   switch-index digit at the current level matches the destination's),
//!   yielding one canonical minimal path per pair. One virtual channel
//!   suffices: the up/down CDG is acyclic with a single VC class.
//! * **adaptive flavour** ([`UpDownRouting::adaptive`]) — *any* live parent
//!   is a valid ascent (every parent leads to some common ancestor at the
//!   same meeting level, so all up-choices are minimal); the descent is
//!   unique either way. Adaptive hops ride VCs `1..v` with the deterministic
//!   up/down output as the escape channel on VC 0, so two virtual channels
//!   suffice.
//!
//! **Fault handling** is the shared [`SoftwareLayer`], with a local detour
//! native to the tree. When the chosen output leads to a dead link or switch
//! the message is absorbed and the software layer rewrites the header:
//!
//! 1. *dead up-link or parent switch* — re-ascend through an alternate live
//!    parent (installed as an intermediate destination). This preserves the
//!    `up* down*` discipline: the message was still in its up-phase, and any
//!    parent is a valid ascent. Only these up-phase faults spend misroute
//!    budget, including at an endpoint, which has no alternate parent.
//! 2. *dead down-link or child switch* — re-ascending after a down-hop would
//!    break the up/down order, so the software layer immediately computes an
//!    explicit fault-free path (rule 3 of the paper's scheme); the escorted
//!    message is absorbed and re-injected at every via host, which releases
//!    all held channels and keeps the dependency chains acyclic.
//! 3. With the misroute budget exhausted, rule 3 applies directly; when the
//!    destination is unreachable (the fault set disconnects the tree —
//!    possible on fat-trees, where a leaf switch is a single point of
//!    failure), `reroute_on_fault` reports `false` and the message is
//!    dropped.
//!
//! Rule 1 of the grid schemes (same dimension, opposite direction) needs a
//! ring, which a tree does not have. Like the grid schemes rejecting
//! fat-trees, [`UpDownRouting`] rejects direct grids at construction time
//! with a typed [`RoutingTopologyError::UnsupportedTopology`].

use crate::header::{RouteHeader, RoutingFlavor};
use crate::layer::{BaseRouting, RoutingTopologyError, SoftwareLayer};
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, FatTree, FatTreeNode, NodeId};

/// Downcast used by the up/down scheme after `supported_on` has validated
/// the topology at construction time.
fn expect_fat_tree(net: &AnyTopology) -> &FatTree {
    net.fat_tree().expect(
        "up/down routing invoked on a direct grid (supported_on rejects this at construction)",
    )
}

/// Destination-aligned digit: the base-k digit at `pos` of `node`'s switch
/// index (for endpoints, of the leaf switch's index). Drives the canonical
/// deterministic ascent.
fn aligned_digit(ft: &FatTree, node: NodeId, pos: u32) -> u32 {
    let k = u32::from(ft.arity());
    let index = match ft.classify(node) {
        FatTreeNode::Endpoint(p) => p / k,
        FatTreeNode::Switch { index, .. } => index,
    };
    (index / k.pow(pos)) % k
}

/// The unique down-port of `current` whose subtree contains `target`, when
/// `current` is an ancestor of `target` (in the [`FatTree::descends_to`]
/// sense) and not `target` itself.
fn down_port_towards(ft: &FatTree, current: NodeId, target: NodeId) -> Option<usize> {
    (0..ft.dims()).find(|&t| {
        ft.neighbor(current, t, Direction::Minus)
            .is_some_and(|child| ft.descends_to(child, target))
    })
}

/// The canonical deterministic up/down output for a header at `current`:
/// the unique down-port while `current` is an ancestor of the target, the
/// destination-aligned up-port otherwise. Returns `None` when the message is
/// already at its current routing target.
pub fn updown_output(
    ft: &FatTree,
    header: &RouteHeader,
    current: NodeId,
) -> Option<(usize, Direction)> {
    let target = header.target();
    if current == target {
        return None;
    }
    if ft.descends_to(current, target) {
        let t = down_port_towards(ft, current, target)
            .expect("an ancestor always has a down-port towards its descendant");
        return Some((t, Direction::Minus));
    }
    match ft.classify(current) {
        FatTreeNode::Endpoint(p) => {
            // The single up-port of an endpoint carries index p mod k.
            Some(((p % u32::from(ft.arity())) as usize, Direction::Plus))
        }
        FatTreeNode::Switch { level, index } => {
            // Ascend towards the parent whose digit at this level matches the
            // target's. Top switches descend to everything, so an up-port
            // always exists here.
            let k = u32::from(ft.arity());
            let w_lev = (index / k.pow(level)) % k;
            let t = ((w_lev + aligned_digit(ft, target, level)) % k) as usize;
            debug_assert!(ft.has_channel(current, t, Direction::Plus));
            Some((t, Direction::Plus))
        }
    }
}

/// Up*/down* routing on k-ary l-level fat-trees, in deterministic and
/// adaptive flavours.
pub type UpDownRouting = SoftwareLayer<UpDownBase>;

impl UpDownRouting {
    /// Deterministic up/down routing (destination-aligned ascent).
    pub const fn deterministic() -> Self {
        SoftwareLayer::new(UpDownBase, RoutingFlavor::Deterministic)
    }

    /// Adaptive up/down routing (any live parent on the ascent) with a
    /// deterministic up/down escape channel.
    pub const fn adaptive() -> Self {
        SoftwareLayer::new(UpDownBase, RoutingFlavor::Adaptive)
    }
}

/// The up*/down* order as a base routing: the destination-aligned ascent as
/// the deterministic (and escape) output, any parent on the adaptive ascent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpDownBase;

impl BaseRouting for UpDownBase {
    type Net = FatTree;

    fn name(&self) -> &'static str {
        "Up/Down"
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        if net.fat_tree().is_none() {
            return Err(RoutingTopologyError::UnsupportedTopology {
                algorithm: "up/down",
                topology: net.to_string(),
                requires: "an indirect fat-tree topology (ft:k,l); \
                           grids route with the SW-Based or turn-model schemes",
            });
        }
        Ok(())
    }

    fn view(net: &AnyTopology) -> &FatTree {
        expect_fat_tree(net)
    }

    fn deterministic_output(
        &self,
        ft: &FatTree,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        updown_output(ft, header, current)
    }

    /// On the descent the next hop is unique; on the ascent every parent is
    /// minimal (all parents reach a common ancestor at the same meeting
    /// level). Up-ports that do not exist are dropped by the layer along
    /// with the faulty ones.
    fn adaptive_outputs(
        &self,
        ft: &FatTree,
        header: &RouteHeader,
        current: NodeId,
        mut emit: impl FnMut(usize, Direction),
    ) {
        let target = header.target();
        if ft.descends_to(current, target) {
            if let Some(t) = down_port_towards(ft, current, target) {
                emit(t, Direction::Minus);
            }
        } else {
            for t in 0..ft.dims() {
                emit(t, Direction::Plus);
            }
        }
    }

    fn spends_budget(&self, (_, dir): (usize, Direction)) -> bool {
        dir == Direction::Plus
    }

    /// A dead up-link or parent switch is survived by re-ascending through
    /// any alternate live parent — the message is still in its up-phase, so
    /// the up*/down* discipline is preserved. A down-phase fault has no local
    /// detour: re-ascending would break the up/down order.
    fn detour(
        &self,
        ft: &FatTree,
        faults: &FaultSet,
        at: NodeId,
        (blocked_port, dir): (usize, Direction),
    ) -> Option<NodeId> {
        if dir != Direction::Plus {
            return None;
        }
        ft.parents(at)
            .into_iter()
            .find(|&(t, _)| t != blocked_port && faults.output_usable(ft, at, t, Direction::Plus))
            .map(|(_, parent)| parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::driver::drive;
    use crate::RoutingAlgorithm;

    fn ft42() -> AnyTopology {
        AnyTopology::fat_tree_new(4, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
    }

    /// Asserts a hop sequence never takes an up (Plus) hop after a down
    /// (Minus) hop — the up*/down* discipline.
    fn assert_up_then_down(net: &AnyTopology, visited: &[NodeId]) {
        let ft = net.fat_tree().unwrap();
        let level = |n: NodeId| match ft.classify(n) {
            FatTreeNode::Endpoint(_) => -1i64,
            FatTreeNode::Switch { level, .. } => i64::from(level),
        };
        let mut descending = false;
        for pair in visited.windows(2) {
            let up = level(pair[1]) > level(pair[0]);
            if up {
                assert!(!descending, "up hop after a down hop in {visited:?}");
            } else {
                descending = true;
            }
        }
    }

    #[test]
    fn fault_free_walks_are_minimal_up_down_paths() {
        let mut rows = Vec::new();
        for net in [ft42(), AnyTopology::fat_tree_new(2, 3).unwrap()] {
            let e = net.num_endpoints() as u32;
            for (s, d) in [(0u32, 1u32), (0, e - 1), (3, e / 2), (e - 1, 0)] {
                rows.push((net.clone(), UpDownRouting::deterministic(), 1, s, d));
            }
        }
        // First candidate each step — still minimal and up-then-down.
        rows.push((ft42(), UpDownRouting::adaptive(), 2, 0, 13));
        for (net, algo, v, s, d) in rows {
            let (src, dest) = (NodeId(s), NodeId(d));
            let trace = drive(
                &algo,
                &net,
                &no_faults(),
                algo.make_header(&net, src, dest),
                v,
            );
            assert_eq!(trace.absorptions, 0, "{}", algo.name());
            assert_eq!(trace.hops(), net.distance(src, dest), "{}", algo.name());
            assert_up_then_down(&net, &trace.visited);
        }
    }

    #[test]
    fn adaptive_ascent_offers_every_parent_plus_escape() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::adaptive();
        // At a leaf switch ascending: all 4 parents are candidates, plus the
        // destination-aligned escape on VC 0.
        let src = NodeId(0);
        let dest = NodeId(13); // different leaf: must ascend to the top
        let mut h = algo.make_header(&net, src, dest);
        let leaf = ft.leaf_of(src);
        let d = algo.route(&net, &no_faults(), &mut h, leaf, 3);
        let cands = d.candidates();
        let adaptive: Vec<_> = cands.iter().filter(|c| !c.is_escape).collect();
        assert_eq!(adaptive.len(), 4);
        for c in &adaptive {
            assert_eq!(c.dir, Direction::Plus);
            assert_eq!(c.vcs, vec![1, 2]);
        }
        let escape = cands.iter().find(|c| c.is_escape).unwrap();
        assert_eq!(escape.vcs, vec![0]);
        assert_eq!(escape.dir, Direction::Plus);
        // On the descent the choice collapses to the unique down-port.
        let top = ft
            .neighbor(leaf, escape.dim, Direction::Plus)
            .expect("escape ascends to a top switch");
        let d = algo.route(&net, &no_faults(), &mut h, top, 3);
        let cands = d.candidates();
        assert!(cands.iter().all(|c| c.dir == Direction::Minus));
        let dims: Vec<_> = cands.iter().map(|c| c.dim).collect();
        assert_eq!(dims.len(), 2); // one adaptive + one escape, same port
        assert_eq!(dims[0], dims[1]);
    }

    #[test]
    fn dead_up_link_reroutes_through_an_alternate_parent() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::deterministic();
        let src = NodeId(0);
        let dest = NodeId(13);
        let leaf = ft.leaf_of(src);
        let mut h = algo.make_header(&net, src, dest);
        // The canonical ascent from the leaf.
        let (t, dir) = updown_output(ft, &h, leaf).unwrap();
        assert_eq!(dir, Direction::Plus);
        let canonical_parent = ft.neighbor(leaf, t, Direction::Plus).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(canonical_parent);
        // Routing at the leaf now absorbs; the software layer re-ascends
        // through an alternate parent.
        assert!(algo.route(&net, &faults, &mut h, leaf, 1).is_absorb());
        assert!(algo.reroute_on_fault(&net, &faults, &mut h, leaf, (t, dir)));
        assert!(h.faulted);
        assert_eq!(h.pending_via(), 1);
        let via = h.target();
        assert_ne!(via, canonical_parent);
        assert!(ft.parents(leaf).iter().any(|&(_, p)| p == via));
        assert!(!faults.is_node_faulty(via));
    }

    #[test]
    fn misroute_budget_is_spent_only_on_up_phase_faults() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::deterministic();
        let budget = algo
            .make_header(&net, NodeId(0), NodeId(13))
            .misroute_budget;
        // An endpoint has a single parent: no alternate ascent, so the
        // explicit path is installed, yet the up-phase fault still costs
        // budget.
        let mut h = algo.make_header(&net, NodeId(0), NodeId(13));
        assert!(algo.reroute_on_fault(&net, &no_faults(), &mut h, NodeId(0), (0, Direction::Plus)));
        assert_eq!((h.misroute_budget, h.escorted), (budget - 1, true));
        // A down-phase fault goes straight to the explicit path for free.
        let top = ft.switch_id(1, 0);
        let mut h = algo.make_header(&net, NodeId(0), NodeId(13));
        let blocked = algo.deterministic_output(&net, &h, top).unwrap();
        assert_eq!(blocked.1, Direction::Minus);
        assert!(algo.reroute_on_fault(&net, &no_faults(), &mut h, top, blocked));
        assert_eq!((h.misroute_budget, h.escorted), (budget, true));
    }

    #[test]
    fn supported_on_fat_trees_but_not_grids() {
        let algo = UpDownRouting::adaptive();
        assert_eq!(algo.supported_on(&ft42()), Ok(()));
        let torus = AnyTopology::torus(8, 2).unwrap();
        match algo.supported_on(&torus) {
            Err(RoutingTopologyError::UnsupportedTopology {
                algorithm,
                topology,
                ..
            }) => {
                assert_eq!(algorithm, "up/down");
                assert_eq!(topology, "8x8");
            }
            other => panic!("expected UnsupportedTopology, got {other:?}"),
        }
        let msg = format!("{}", algo.supported_on(&torus).unwrap_err());
        assert!(msg.contains("up/down"));
        assert!(msg.contains("'8x8'"));
        assert!(msg.contains("ft:k,l"));
    }

    #[test]
    fn min_virtual_channels_and_names() {
        let net = ft42();
        assert_eq!(UpDownRouting::deterministic().min_virtual_channels(&net), 1);
        assert_eq!(UpDownRouting::adaptive().min_virtual_channels(&net), 2);
        assert_eq!(
            UpDownRouting::deterministic().name(),
            "Up/Down (deterministic)"
        );
        assert_eq!(UpDownRouting::adaptive().name(), "Up/Down (adaptive)");
        assert_eq!(UpDownRouting::adaptive().flavor(), RoutingFlavor::Adaptive);
    }

    #[test]
    fn deterministic_output_is_destination_aligned() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::deterministic();
        // e0 -> e13: ascend e0 -> s0.0 -> top, descend into leaf s0.3.
        let h = algo.make_header(&net, NodeId(0), NodeId(13));
        // Endpoint up-port is p mod k = 0.
        assert_eq!(updown_output(ft, &h, NodeId(0)), Some((0, Direction::Plus)));
        // From the leaf, the aligned top switch has digit 3 at position 0
        // (the destination's leaf index): port (0 + 3) mod 4 = 3.
        let leaf = ft.leaf_of(NodeId(0));
        assert_eq!(updown_output(ft, &h, leaf), Some((3, Direction::Plus)));
        let top = ft.neighbor(leaf, 3, Direction::Plus).unwrap();
        // The top switch descends: its down-port to leaf s0.3, then the
        // leaf's down-port to e13 (13 mod 4 = 1).
        let (t, dir) = updown_output(ft, &h, top).unwrap();
        assert_eq!(dir, Direction::Minus);
        assert_eq!(
            ft.neighbor(top, t, Direction::Minus),
            Some(ft.switch_id(0, 3))
        );
        let (t, dir) = updown_output(ft, &h, ft.switch_id(0, 3)).unwrap();
        assert_eq!(dir, Direction::Minus);
        assert_eq!(t, 1);
        // At the destination there is nothing left to do.
        assert_eq!(updown_output(ft, &h, NodeId(13)), None);
    }

    #[test]
    fn same_leaf_pairs_never_leave_the_leaf() {
        let net = ft42();
        let algo = UpDownRouting::deterministic();
        let trace = drive(
            &algo,
            &net,
            &no_faults(),
            algo.make_header(&net, NodeId(0), NodeId(3)),
            1,
        );
        assert_eq!(trace.visited.len(), 3); // e0 -> s0.0 -> e3
        assert_eq!(net.distance(NodeId(0), NodeId(3)), 2);
    }
}
