//! Runtime dispatch over the routing subsystems.
//!
//! The simulator engines are generic over [`RoutingAlgorithm`], which is
//! ideal for tests and benchmarks that know their algorithm statically. The
//! experiment harness, however, selects the algorithm from configuration at
//! runtime; [`AnyRouting`] is the closed enum it dispatches through — a
//! zero-allocation alternative to trait objects that keeps the engines
//! monomorphised.

use crate::decision::RouteDecision;
use crate::header::{RouteHeader, RoutingFlavor};
use crate::layer::{RoutingAlgorithm, RoutingTopologyError};
use crate::swbased::SwBasedRouting;
use crate::turnmodel::TurnModelRouting;
use crate::updown::UpDownRouting;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, NodeId};

/// Any routing subsystem behind one dispatchable value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnyRouting {
    /// The Software-Based scheme over e-cube / Duato's protocol (all direct
    /// grid topologies).
    SwBased(SwBasedRouting),
    /// The turn models (open grid topologies only).
    TurnModel(TurnModelRouting),
    /// Up*/down* routing (fat-trees only).
    UpDown(UpDownRouting),
}

impl From<SwBasedRouting> for AnyRouting {
    fn from(algo: SwBasedRouting) -> Self {
        AnyRouting::SwBased(algo)
    }
}

impl From<TurnModelRouting> for AnyRouting {
    fn from(algo: TurnModelRouting) -> Self {
        AnyRouting::TurnModel(algo)
    }
}

impl From<UpDownRouting> for AnyRouting {
    fn from(algo: UpDownRouting) -> Self {
        AnyRouting::UpDown(algo)
    }
}

macro_rules! delegate {
    ($self:ident, $algo:ident => $body:expr) => {
        match $self {
            AnyRouting::SwBased($algo) => $body,
            AnyRouting::TurnModel($algo) => $body,
            AnyRouting::UpDown($algo) => $body,
        }
    };
}

impl RoutingAlgorithm for AnyRouting {
    fn flavor(&self) -> RoutingFlavor {
        delegate!(self, a => a.flavor())
    }

    fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
        delegate!(self, a => a.min_virtual_channels(net))
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        delegate!(self, a => a.supported_on(net))
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        delegate!(self, a => a.deterministic_output(net, header, current))
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        delegate!(self, a => a.make_header(net, src, dest))
    }

    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        delegate!(self, a => a.route(net, faults, header, current, v))
    }

    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        delegate!(self, a => a.note_hop(net, header, from, dim, dir));
    }

    fn reroute_on_fault(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool {
        delegate!(self, a => a.reroute_on_fault(net, faults, header, at, blocked))
    }

    fn name(&self) -> String {
        delegate!(self, a => a.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::driver::drive;

    #[test]
    fn delegates_to_the_wrapped_algorithm() {
        let mesh = AnyTopology::mesh(8, 2).unwrap();
        let torus = AnyTopology::torus(8, 2).unwrap();
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let sw: AnyRouting = SwBasedRouting::adaptive().into();
        let tm: AnyRouting = TurnModelRouting::adaptive().into();
        let ud: AnyRouting = UpDownRouting::adaptive().into();
        assert_eq!(sw.flavor(), RoutingFlavor::Adaptive);
        assert_eq!(sw.min_virtual_channels(&torus), 3);
        assert_eq!(tm.min_virtual_channels(&mesh), 2);
        assert_eq!(ud.min_virtual_channels(&ft), 2);
        assert_eq!(sw.supported_on(&torus), Ok(()));
        assert!(tm.supported_on(&torus).is_err());
        assert_eq!(ud.supported_on(&ft), Ok(()));
        assert!(ud.supported_on(&torus).is_err());
        assert!(sw.supported_on(&ft).is_err());
        assert_eq!(sw.name(), "SW-Based-nD (adaptive)");
        assert_eq!(tm.name(), "Negative-First (adaptive)");
        assert_eq!(ud.name(), "Up/Down (adaptive)");
    }

    #[test]
    fn deterministic_output_matches_the_subsystem() {
        let mesh = AnyTopology::mesh(8, 2).unwrap();
        let grid = mesh.grid().unwrap();
        let src = grid.node_from_digits(&[3, 5]).unwrap();
        let dest = grid.node_from_digits(&[5, 2]).unwrap();
        let sw: AnyRouting = SwBasedRouting::deterministic().into();
        let tm: AnyRouting = TurnModelRouting::deterministic().into();
        let h = sw.make_header(&mesh, src, dest);
        // e-cube goes lowest-dimension first (+2 in dim 0); negative-first
        // clears the negative dim-1 offset first.
        assert_eq!(
            sw.deterministic_output(&mesh, &h, src),
            Some((0, Direction::Plus))
        );
        assert_eq!(
            tm.deterministic_output(&mesh, &h, src),
            Some((1, Direction::Minus))
        );
        // Up/down on a fat-tree: an endpoint ascends through its only up-port.
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let ud: AnyRouting = UpDownRouting::deterministic().into();
        let h = ud.make_header(&ft, NodeId(1), NodeId(13));
        assert_eq!(
            ud.deterministic_output(&ft, &h, NodeId(1)),
            Some((1, Direction::Plus))
        );
    }

    #[test]
    fn routes_end_to_end_through_the_dispatcher() {
        let faults = FaultSet::new();
        let mesh = AnyTopology::mesh(4, 2).unwrap();
        let grid = mesh.grid().unwrap();
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let mesh_src = grid.node_from_digits(&[0, 3]).unwrap();
        let mesh_dest = grid.node_from_digits(&[3, 0]).unwrap();
        for (net, algo, src, dest) in [
            (
                &mesh,
                AnyRouting::SwBased(SwBasedRouting::deterministic()),
                mesh_src,
                mesh_dest,
            ),
            (
                &mesh,
                AnyRouting::TurnModel(TurnModelRouting::deterministic()),
                mesh_src,
                mesh_dest,
            ),
            (
                &ft,
                AnyRouting::UpDown(UpDownRouting::deterministic()),
                NodeId(0),
                NodeId(13),
            ),
        ] {
            let trace = drive(&algo, net, &faults, algo.make_header(net, src, dest), 2);
            assert_eq!(trace.absorptions, 0, "{}", algo.name());
            assert_eq!(trace.hops(), net.distance(src, dest));
            assert!(trace.hops() <= 6);
        }
    }
}
