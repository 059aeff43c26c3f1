//! The e-cube / Duato base: the Software-Based algorithm of the paper
//! (SW-Based-nD).
//!
//! This module is the direct counterpart of Fig. 2 of the paper: the
//! [`SoftwareLayer`] over dimension-order e-cube routing for the
//! deterministic flavour and Duato's Protocol for the adaptive flavour (in a
//! fault-free network the two flavours are *identical* to those baselines).
//! E-cube is also the only base with dateline virtual-channel classes: a hop
//! in a wrapped dimension rides the class the header has earned, while an
//! open (mesh) dimension may use the whole pool. The software layer's rule 1
//! (same dimension, opposite direction) therefore only ever fires under this
//! base, and its rule 2 is the orthogonal detour below, which the turn-model
//! base shares.
//!
//! The scheme's offsets, datelines and orthogonal detours are grid concepts,
//! so [`RoutingAlgorithm::supported_on`](crate::RoutingAlgorithm::supported_on)
//! rejects indirect topologies with a typed error; fat-trees route with
//! [`UpDownRouting`](crate::updown::UpDownRouting) instead.

use crate::adaptive::productive_outputs;
use crate::ecube::{deterministic_vcs, ecube_output, ecube_vc_class};
use crate::header::{RouteHeader, RoutingFlavor};
use crate::layer::{BaseRouting, RoutingTopologyError, SoftwareLayer};
use std::ops::Range;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, DatelinePolicy, Direction, Network, NodeId};

/// The Software-Based fault-tolerant routing algorithm for n-dimensional
/// networks (tori, meshes, hypercubes and mixed-radix shapes).
pub type SwBasedRouting = SoftwareLayer<EcubeBase>;

impl SwBasedRouting {
    /// Deterministic (e-cube based) Software-Based routing.
    pub const fn deterministic() -> Self {
        SoftwareLayer::new(EcubeBase, RoutingFlavor::Deterministic)
    }

    /// Fully adaptive (Duato's-Protocol based) Software-Based routing.
    pub const fn adaptive() -> Self {
        SoftwareLayer::new(EcubeBase, RoutingFlavor::Adaptive)
    }
}

/// Dimension-order e-cube with dateline VC classes, and Duato's Protocol over
/// it as the adaptive flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EcubeBase;

/// Downcast used by the grid-only bases after `supported_on` has validated
/// the topology at construction time.
pub(crate) fn expect_grid(net: &AnyTopology) -> &Network {
    net.grid()
        .expect("grid-only routing algorithm invoked on an indirect topology (supported_on rejects this at construction)")
}

/// Dimensions to try for the orthogonal detour (rule 2), preferring the
/// partner dimension of the blocked dimension's pair as in the SW-Based-nD
/// formulation of Fig. 2.
pub(crate) fn orthogonal_order(dims: usize, blocked_dim: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(dims.saturating_sub(1));
    if blocked_dim + 1 < dims {
        order.push(blocked_dim + 1);
    } else if blocked_dim > 0 {
        order.push(blocked_dim - 1);
    }
    for d in 0..dims {
        if d != blocked_dim && !order.contains(&d) {
            order.push(d);
        }
    }
    order
}

/// Rule 2 on a grid: an intermediate destination one hop into an orthogonal
/// dimension, to slide along the fault region. `output_usable` is false for
/// channels that do not exist or lead to a faulty node, so mesh edges and
/// dead neighbours are skipped naturally.
pub(crate) fn orthogonal_detour(
    net: &Network,
    faults: &FaultSet,
    at: NodeId,
    blocked_dim: usize,
) -> Option<NodeId> {
    orthogonal_order(net.dims(), blocked_dim)
        .into_iter()
        .flat_map(|o| Direction::BOTH.map(|dir| (o, dir)))
        .find(|&(o, dir)| faults.output_usable(net, at, o, dir))
        .map(|(o, dir)| {
            net.neighbor(at, o, dir)
                .expect("usable output leads to an existing neighbour")
        })
}

impl BaseRouting for EcubeBase {
    type Net = Network;

    fn name(&self) -> &'static str {
        "SW-Based-nD"
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        if net.grid().is_none() {
            return Err(RoutingTopologyError::UnsupportedTopology {
                algorithm: "SW-Based-nD",
                topology: net.to_string(),
                requires: "a direct grid topology (torus/mesh/hypercube); \
                           fat-trees route with the up/down scheme",
            });
        }
        Ok(())
    }

    fn view(net: &AnyTopology) -> &Network {
        expect_grid(net)
    }

    fn min_virtual_channels(&self, net: &AnyTopology, flavor: RoutingFlavor) -> usize {
        let policy = DatelinePolicy::new(expect_grid(net));
        match flavor {
            RoutingFlavor::Deterministic => policy.min_deterministic_vcs(),
            RoutingFlavor::Adaptive => policy.min_adaptive_vcs(),
        }
    }

    fn deterministic_output(
        &self,
        net: &Network,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        ecube_output(net, header, current)
    }

    fn deterministic_vcs(
        &self,
        net: &Network,
        header: &RouteHeader,
        dim: usize,
        v: usize,
    ) -> Range<usize> {
        deterministic_vcs(net, header, dim, v)
    }

    fn escape_vc(&self, net: &Network, header: &RouteHeader, dim: usize) -> usize {
        DatelinePolicy::new(net).escape_vc(dim, ecube_vc_class(header, dim))
    }

    fn adaptive_vcs(&self, net: &Network, v: usize) -> Range<usize> {
        DatelinePolicy::new(net).adaptive_range(v)
    }

    fn adaptive_outputs(
        &self,
        net: &Network,
        header: &RouteHeader,
        current: NodeId,
        mut emit: impl FnMut(usize, Direction),
    ) {
        for (dim, dir) in productive_outputs(net, header, current) {
            emit(dim, dir);
        }
    }

    fn detour(
        &self,
        net: &Network,
        faults: &FaultSet,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> Option<NodeId> {
        orthogonal_detour(net, faults, at, blocked.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::RouteDecision;
    use crate::layer::driver::drive;
    use crate::RoutingAlgorithm;

    fn torus() -> AnyTopology {
        AnyTopology::torus(8, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
    }

    /// Node id from grid digits (tests only run on grid topologies).
    fn node(t: &AnyTopology, digits: &[u16]) -> NodeId {
        t.grid().unwrap().node_from_digits(digits).unwrap()
    }

    #[test]
    fn fault_free_deterministic_is_ecube() {
        let t = torus();
        let (mesh, hc) = (
            AnyTopology::mesh(8, 2).unwrap(),
            AnyTopology::hypercube(5).unwrap(),
        );
        for (net, src, dest) in [
            (&t, node(&t, &[1, 1]), node(&t, &[5, 3])),
            (&mesh, NodeId(1), NodeId(mesh.num_nodes() as u32 - 2)),
            (&hc, NodeId(1), NodeId(hc.num_nodes() as u32 - 2)),
        ] {
            let algo = SwBasedRouting::deterministic();
            let expected: Vec<NodeId> =
                torus_topology::dimension_order_path(net.grid().unwrap(), src, dest).nodes(net);
            let trace = drive(
                &algo,
                net,
                &no_faults(),
                algo.make_header(net, src, dest),
                4,
            );
            assert_eq!((trace.visited, trace.absorptions), (expected, 0));
        }
    }

    #[test]
    fn fault_free_adaptive_reaches_destination_minimally() {
        let t = torus();
        let src = node(&t, &[0, 0]);
        let dest = node(&t, &[3, 6]);
        let algo = SwBasedRouting::adaptive();
        let trace = drive(&algo, &t, &no_faults(), algo.make_header(&t, src, dest), 4);
        assert_eq!(
            (trace.hops(), trace.absorptions),
            (t.distance(src, dest), 0)
        );
    }

    #[test]
    fn deterministic_absorbs_at_fault() {
        let t = torus();
        let mut faults = FaultSet::new();
        // Fault directly on the e-cube path.
        faults.fail_node(node(&t, &[2, 0]));
        let algo = SwBasedRouting::deterministic();
        let mut header = algo.make_header(&t, node(&t, &[0, 0]), node(&t, &[4, 0]));
        // At the node adjacent to the fault.
        let d = algo.route(&t, &faults, &mut header, node(&t, &[1, 0]), 4);
        assert!(d.is_absorb());
    }

    #[test]
    fn adaptive_candidates_are_duato_over_ecube() {
        let t = AnyTopology::torus(8, 3).unwrap();
        let algo = SwBasedRouting::adaptive();
        let src = node(&t, &[0, 0, 0]);
        let mut h = algo.make_header(&t, src, node(&t, &[3, 2, 0]));
        let d = algo.route(&t, &no_faults(), &mut h, src, 6);
        let cands = d.candidates();
        // Two productive dims -> two adaptive candidates, then one escape.
        assert_eq!(cands.len(), 3);
        assert!(cands[2].is_escape && cands[..2].iter().all(|c| !c.is_escape));
        // The escape follows e-cube (lowest unresolved dimension) on the
        // escape VC of its dateline class; the two dateline classes'
        // escape channels are reserved out of the adaptive pool.
        assert_eq!((cands[2].dim, &cands[2].vcs), (0, &vec![0]));
        for c in &cands[..2] {
            assert_eq!(c.vcs, vec![2, 3, 4, 5]);
        }
        // After the dateline the escape switches class.
        let mut h = algo.make_header(&t, src, node(&t, &[3, 0, 0]));
        h.crossed_dateline[0] = true;
        let d = algo.route(&t, &no_faults(), &mut h, src, 4);
        assert_eq!(d.candidates().last().unwrap().vcs, vec![1]);
    }

    #[test]
    fn mesh_reserves_a_single_escape_channel() {
        // A pure mesh needs only one escape class, so with the same v the
        // adaptive pool is one channel larger than on a torus.
        let m = AnyTopology::mesh(8, 2).unwrap();
        let algo = SwBasedRouting::adaptive();
        let src = node(&m, &[0, 0]);
        let mut h = algo.make_header(&m, src, node(&m, &[3, 2]));
        let d = algo.route(&m, &no_faults(), &mut h, src, 6);
        assert!(d.candidates().last().unwrap().is_escape);
        for c in d.candidates() {
            let expected = if c.is_escape {
                vec![0]
            } else {
                vec![1, 2, 3, 4, 5]
            };
            assert_eq!(c.vcs, expected);
        }
        // Two VCs suffice for Duato's protocol on a mesh.
        assert!(!algo
            .route(&m, &no_faults(), &mut h, src, 2)
            .candidates()
            .is_empty());
    }

    #[test]
    fn adaptive_does_not_absorb_while_alternatives_exist() {
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[2, 1]));
        let algo = SwBasedRouting::adaptive();
        let src = node(&t, &[1, 1]);
        let mut header = algo.make_header(&t, src, node(&t, &[3, 3]));
        let d = algo.route(&t, &faults, &mut header, src, 6);
        // dim 0 plus is faulty but dim 1 plus is healthy: still forwarding,
        // and the escape (e-cube, dim 0) is filtered out with its channel.
        match d {
            RouteDecision::Forward(cands) => {
                assert_eq!(cands.len(), 1);
                assert_eq!((cands[0].dim, cands[0].is_escape), (1, false));
            }
            other => panic!("expected Forward, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_absorbs_only_when_all_productive_paths_faulty() {
        let t = torus();
        let mut faults = FaultSet::new();
        // Message needs +1 in dim 0 and +1 in dim 1; block both neighbours.
        faults.fail_node(node(&t, &[2, 1]));
        faults.fail_node(node(&t, &[1, 2]));
        let algo = SwBasedRouting::adaptive();
        let src = node(&t, &[1, 1]);
        let mut header = algo.make_header(&t, src, node(&t, &[2, 2]));
        assert!(algo.route(&t, &faults, &mut header, src, 6).is_absorb());
    }

    #[test]
    fn reroute_rule1_forces_opposite_direction() {
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[2, 0]));
        let algo = SwBasedRouting::deterministic();
        let src = node(&t, &[1, 0]);
        let mut header = algo.make_header(&t, src, node(&t, &[4, 0]));
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, src, (0, Direction::Plus)));
        assert!(header.faulted);
        assert_eq!(header.absorptions, 1);
        assert_eq!(header.forced_dir[0], Some(Direction::Minus));
    }

    #[test]
    fn reroute_rule1_skipped_on_open_dimensions() {
        // On a mesh the opposite direction cannot wrap around to the target,
        // so the software layer must go straight to the orthogonal rule.
        let m = AnyTopology::mesh(8, 2).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let algo = SwBasedRouting::deterministic();
        let at = node(&m, &[1, 0]);
        let mut header = algo.make_header(&m, at, node(&m, &[4, 0]));
        assert!(algo.reroute_on_fault(&m, &faults, &mut header, at, (0, Direction::Plus)));
        assert!(header.forced_dir.iter().all(Option::is_none));
        assert_eq!(header.pending_via(), 1);
        // The orthogonal via node sits one hop away in dimension 1 (the only
        // open direction from row 0 is Plus).
        assert_eq!(header.target(), node(&m, &[1, 1]));
    }

    #[test]
    fn reroute_rule2_detours_orthogonally_when_both_directions_blocked() {
        let t = torus();
        let mut faults = FaultSet::new();
        // Block both dimension-0 neighbours of the absorbing node.
        faults.fail_node(node(&t, &[2, 0]));
        faults.fail_node(node(&t, &[0, 0]));
        let algo = SwBasedRouting::deterministic();
        let at = node(&t, &[1, 0]);
        let mut header = algo.make_header(&t, at, node(&t, &[4, 0]));
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, at, (0, Direction::Plus)));
        // An orthogonal intermediate destination (one hop in dimension 1) was
        // installed.
        assert_eq!(header.pending_via(), 1);
        let via = header.target();
        let grid = t.grid().unwrap();
        assert_eq!(grid.coord(via).get(0), 1);
        assert_ne!(grid.coord(via).get(1), 0);
    }

    #[test]
    fn reroute_rule1_skipped_when_dimension_already_resolved() {
        // If the blocked dimension has zero offset to the target, forcing the
        // opposite direction cannot help; the software layer must fall through
        // to the orthogonal rule.
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[1, 1]));
        let algo = SwBasedRouting::deterministic();
        let at = node(&t, &[1, 0]);
        let mut header = algo.make_header(&t, at, node(&t, &[1, 4]));
        // Dimension 0 offset to the target is zero.
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, at, (0, Direction::Plus)));
        assert!(header.forced_dir.iter().all(Option::is_none));
        assert_eq!(header.pending_via(), 1);
        // The orthogonal detour avoids the faulty node [1,1].
        assert_ne!(header.target(), node(&t, &[1, 1]));
    }

    #[test]
    fn min_virtual_channels_and_names() {
        let t = torus();
        let m = AnyTopology::mesh(8, 2).unwrap();
        let mixed = AnyTopology::Grid(Network::new(vec![8, 4], vec![true, false]).unwrap());
        assert_eq!(SwBasedRouting::deterministic().min_virtual_channels(&t), 2);
        assert_eq!(SwBasedRouting::adaptive().min_virtual_channels(&t), 3);
        // Meshes need no dateline VC: one deterministic VC, two for Duato.
        assert_eq!(SwBasedRouting::deterministic().min_virtual_channels(&m), 1);
        assert_eq!(SwBasedRouting::adaptive().min_virtual_channels(&m), 2);
        // One wrapped dimension is enough to require the full split.
        assert_eq!(
            SwBasedRouting::deterministic().min_virtual_channels(&mixed),
            2
        );
        assert_eq!(
            SwBasedRouting::deterministic().name(),
            "SW-Based-nD (deterministic)"
        );
        assert_eq!(SwBasedRouting::adaptive().flavor(), RoutingFlavor::Adaptive);
    }

    #[test]
    fn supported_on_grids_but_not_fat_trees() {
        let algo = SwBasedRouting::deterministic();
        assert_eq!(algo.supported_on(&torus()), Ok(()));
        assert_eq!(algo.supported_on(&AnyTopology::mesh(4, 3).unwrap()), Ok(()));
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        match algo.supported_on(&ft) {
            Err(RoutingTopologyError::UnsupportedTopology {
                algorithm,
                topology,
                ..
            }) => {
                assert_eq!(algorithm, "SW-Based-nD");
                assert_eq!(topology, "ft:4,2");
            }
            other => panic!("expected UnsupportedTopology, got {other:?}"),
        }
        let msg = format!("{}", algo.supported_on(&ft).unwrap_err());
        assert!(msg.contains("SW-Based-nD"));
        assert!(msg.contains("'ft:4,2'"));
        assert!(msg.contains("up/down"));
    }

    #[test]
    fn orthogonal_order_prefers_pair_partner() {
        assert_eq!(orthogonal_order(3, 0), vec![1, 2]);
        assert_eq!(orthogonal_order(3, 1), vec![2, 0]);
        assert_eq!(orthogonal_order(3, 2), vec![1, 0]);
        assert_eq!(orthogonal_order(2, 1), vec![0]);
        assert_eq!(orthogonal_order(1, 0), Vec::<usize>::new());
    }
}
