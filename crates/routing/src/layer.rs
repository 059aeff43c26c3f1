//! The Software-Based software layer, written once over any base routing.
//!
//! The paper's contribution is a software layer that does not depend on the
//! routing underneath it. In a fault-free network the base routing runs
//! unchanged; when a message's output leads to a faulty node or link the
//! message is absorbed ([`RouteDecision::Absorb`]) at the local node, the
//! message-passing software rewrites its header and re-injects it with
//! priority ([`RoutingAlgorithm::reroute_on_fault`]):
//!
//! 1. first re-route in the *same dimension, opposite direction* (a
//!    non-minimal traversal of the ring installed as a forced direction) —
//!    this rule only applies to wrapped dimensions: on an open dimension the
//!    opposite direction leads away from the target and off the edge, and an
//!    indirect topology has no rings at all, so the layer falls through to
//!    rule 2 directly,
//! 2. if another fault is encountered, take the base's local *detour* (an
//!    orthogonal step on a grid, an alternate parent on a fat-tree),
//!    installed as an intermediate destination,
//! 3. if the misroute budget is exhausted, or the base has no detour left,
//!    compute an explicit fault-free intermediate-node path (the capability
//!    granted by assumption (i)(ii) of the paper), which bounds livelock.
//!
//! Once faulted, a message is routed deterministically for the rest of its
//! journey (Section 4: "from this point, faulted messages are always routed
//! using detRouting2D").
//!
//! [`SoftwareLayer`] implements [`RoutingAlgorithm`] exactly once, for every
//! [`BaseRouting`]. A base supplies only what differs between schemes:
//! topology support and minimum VCs, the deterministic (= escape) output, the
//! deterministic and escape VC sets, the adaptive output set with its VC
//! range, the local detour, and its name. Everything the paper's software
//! layer does lives here: via-host absorption, the deterministic/adaptive
//! branch, "no usable candidate ⇒ absorb", and all of the fault handling
//! above except the base's detour move.

use crate::decision::{OutputCandidate, RouteDecision};
use crate::header::{RouteHeader, RoutingFlavor};
use std::fmt;
use std::ops::Range;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, HealthyGraph, NodeId, Topology};

/// Interface between the router pipeline / software layer and a routing
/// algorithm.
///
/// Every method takes the topology as an [`AnyTopology`]; algorithms that
/// only operate on one backend (the grid-offset based schemes, the fat-tree
/// up/down scheme) reject the other at construction time through
/// [`RoutingAlgorithm::supported_on`] and may downcast unconditionally
/// afterwards.
pub trait RoutingAlgorithm {
    /// The flavour this algorithm routes with in the absence of faults.
    fn flavor(&self) -> RoutingFlavor;

    /// Minimum number of virtual channels per physical channel this algorithm
    /// needs for deadlock freedom on the given network.
    fn min_virtual_channels(&self, net: &AnyTopology) -> usize;

    /// Checks that the algorithm can operate on `net` at all. Both simulator
    /// engines call this at construction time and surface the error as a
    /// typed configuration failure. Defaults to "supported everywhere"; the
    /// turn model overrides it to reject wrapped dimensions, the grid-offset
    /// schemes reject indirect topologies and the fat-tree up/down scheme
    /// rejects grids.
    fn supported_on(&self, _net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        Ok(())
    }

    /// The deterministic-layer output this algorithm steers `header` towards
    /// at `current` — the output the simulator reports as `blocked` to
    /// [`RoutingAlgorithm::reroute_on_fault`] when a message is absorbed.
    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)>;

    /// Builds the header of a newly generated message.
    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader;

    /// Routing decision for a header flit of `header` currently at `current`,
    /// with `v` virtual channels per physical channel.
    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision;

    /// Header bookkeeping when the message advances one hop.
    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    );

    /// Software-layer header rewrite after the message was absorbed at `at`
    /// because output `blocked` led to a fault. Returns `false` only when the
    /// destination is unreachable (disconnected network), in which case the
    /// message must be dropped.
    fn reroute_on_fault(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool;

    /// Human-readable name used in reports.
    fn name(&self) -> String;
}

/// Typed error for routing algorithms that cannot operate on a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutingTopologyError {
    /// The algorithm requires every dimension to be open (non-wrap), but the
    /// network wraps in the named dimension.
    WrappedDimension {
        /// Human-readable algorithm name.
        algorithm: &'static str,
        /// Shape string of the offending topology (`Network` display form,
        /// e.g. `8x8` for a wrapped 8x8 torus), parseable as a topology spec.
        shape: String,
        /// First wrapped dimension encountered.
        dim: usize,
        /// Radix of that dimension.
        radix: u16,
    },
    /// The algorithm does not operate on this topology class at all (a
    /// grid-offset scheme handed an indirect fat-tree, or the up/down scheme
    /// handed a direct grid).
    UnsupportedTopology {
        /// Human-readable algorithm name.
        algorithm: &'static str,
        /// Display form of the offending topology, parseable as a topology
        /// spec (e.g. `8x8` or `ft:4,2`).
        topology: String,
        /// What the algorithm needs instead (human-readable).
        requires: &'static str,
    },
}

impl fmt::Display for RoutingTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingTopologyError::WrappedDimension {
                algorithm,
                shape,
                dim,
                radix,
            } => write!(
                f,
                "{algorithm} routing requires open dimensions, but topology \
                 '{shape}' wraps around in dimension {dim} (radix {radix}); \
                 use a mesh/hypercube topology or Duato-over-e-cube routing"
            ),
            RoutingTopologyError::UnsupportedTopology {
                algorithm,
                topology,
                requires,
            } => write!(
                f,
                "{algorithm} routing cannot operate on topology '{topology}': \
                 it requires {requires}"
            ),
        }
    }
}

impl std::error::Error for RoutingTopologyError {}

/// A deadlock-free base routing the software layer runs over.
///
/// The base describes fault-free routing only. Its deterministic output
/// doubles as the escape channel of its adaptive flavour, so the base's
/// deadlock-freedom argument (dateline classes, prohibited turns, the
/// up*/down* order) covers both flavours. The VC defaults describe a base
/// that needs no class split: the deterministic flavour may use the whole
/// pool, the escape channel is VC 0 and the adaptive channels are the rest,
/// so one VC suffices deterministic and two adaptive.
pub trait BaseRouting {
    /// The topology backend the base routes on.
    type Net: Topology;

    /// Family name used in reports, e.g. `"SW-Based-nD"`.
    fn name(&self) -> &'static str;

    /// Rejects topologies the base cannot route on, with a typed error.
    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError>;

    /// Downcast of a topology [`BaseRouting::supported_on`] accepted.
    fn view(net: &AnyTopology) -> &Self::Net;

    /// Minimum virtual channels per physical channel for deadlock freedom
    /// in `flavor`.
    fn min_virtual_channels(&self, _net: &AnyTopology, flavor: RoutingFlavor) -> usize {
        match flavor {
            RoutingFlavor::Deterministic => 1,
            RoutingFlavor::Adaptive => 2,
        }
    }

    /// The deterministic output towards the header's current target, which
    /// is also the escape output of the adaptive flavour. `None` at the
    /// target.
    fn deterministic_output(
        &self,
        net: &Self::Net,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)>;

    /// Permitted VCs for a deterministic-flavour hop in `dim`.
    fn deterministic_vcs(
        &self,
        _net: &Self::Net,
        _header: &RouteHeader,
        _dim: usize,
        v: usize,
    ) -> Range<usize> {
        0..v
    }

    /// The escape VC for a hop in `dim` (adaptive flavour).
    fn escape_vc(&self, _net: &Self::Net, _header: &RouteHeader, _dim: usize) -> usize {
        0
    }

    /// The adaptive VC pool.
    fn adaptive_vcs(&self, _net: &Self::Net, v: usize) -> Range<usize> {
        1..v
    }

    /// Calls `emit` with every adaptive output at `current`, in preference
    /// order. The layer drops outputs that lead to faults or do not exist.
    fn adaptive_outputs(
        &self,
        net: &Self::Net,
        header: &RouteHeader,
        current: NodeId,
        emit: impl FnMut(usize, Direction),
    );

    /// Whether a fault on `blocked` spends misroute budget.
    fn spends_budget(&self, _blocked: (usize, Direction)) -> bool {
        true
    }

    /// Rule 2: a live neighbour of `at` to re-route through after the fault
    /// on `blocked`, or `None` to fall back to an explicit path.
    fn detour(
        &self,
        net: &Self::Net,
        faults: &FaultSet,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> Option<NodeId>;
}

/// The Software-Based fault-tolerant routing algorithm over base routing `B`,
/// in one flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoftwareLayer<B> {
    base: B,
    flavor: RoutingFlavor,
}

impl<B: BaseRouting> SoftwareLayer<B> {
    /// The software layer over `base`, injecting messages in `flavor`.
    pub(crate) const fn new(base: B, flavor: RoutingFlavor) -> Self {
        SoftwareLayer { base, flavor }
    }
}

/// Installs an explicit fault-free path from `at` to the header's final
/// destination (rule 3 / assumption (i)(ii) of the paper). Returns `false`
/// only when the destination is unreachable.
fn install_explicit_path<T: Topology + ?Sized>(
    net: &T,
    faults: &FaultSet,
    header: &mut RouteHeader,
    at: NodeId,
) -> bool {
    let graph = HealthyGraph::new(net, faults);
    let Some(path) = graph.shortest_path(at, header.final_dest) else {
        return false;
    };
    let nodes = path.nodes(net);
    header.set_via_chain(nodes.into_iter().skip(1));
    header.escorted = true;
    for forced in &mut header.forced_dir {
        *forced = None;
    }
    true
}

impl<B: BaseRouting> RoutingAlgorithm for SoftwareLayer<B> {
    fn flavor(&self) -> RoutingFlavor {
        self.flavor
    }

    fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
        self.base.min_virtual_channels(net, self.flavor)
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        self.base.supported_on(net)
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        self.base
            .deterministic_output(B::view(net), header, current)
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        RouteHeader::new(net, src, dest, self.flavor)
    }

    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        let net = B::view(net);
        // Advance through intermediate destinations that have been reached.
        while current == header.target() {
            if header.pending_via() > 0 {
                // Reached an intermediate via host: the message is delivered
                // to the local software layer and re-injected towards the
                // next target (software forwarding, Section 3). Releasing
                // every held channel here is what keeps the escape-layer
                // dependency chains acyclic — an in-flight retarget could
                // chain a forbidden turn (or, on a fat-tree, a descent into
                // an ascent) through the via node.
                return RouteDecision::Absorb;
            }
            if header.advance_target(current) {
                return RouteDecision::Deliver;
            }
        }
        if header.is_deterministic() {
            let Some((dim, dir)) = self.base.deterministic_output(net, header, current) else {
                // No output towards the current target, and reached targets
                // were advanced above: this is the final destination.
                return RouteDecision::Deliver;
            };
            if !faults.output_usable(net, current, dim, dir) {
                return RouteDecision::Absorb;
            }
            // Faulted messages of the adaptive flavour travel on the escape
            // layer, which preserves Duato's deadlock-freedom argument.
            let is_escape = header.flavor == RoutingFlavor::Adaptive;
            let vcs = if is_escape {
                vec![self.base.escape_vc(net, header, dim)]
            } else {
                self.base.deterministic_vcs(net, header, dim, v).collect()
            };
            return RouteDecision::Forward(vec![OutputCandidate {
                dim,
                dir,
                vcs,
                is_escape,
            }]);
        }
        // Adaptive flavour, not yet faulted: the base's adaptive outputs on
        // the adaptive VC pool, then its escape output. The message is
        // absorbed only when *all* of them lead to faults (Section 5: "a
        // message is delivered to current node when all available paths are
        // faulty").
        let adaptive_vcs = self.base.adaptive_vcs(net, v);
        let mut candidates = Vec::new();
        self.base
            .adaptive_outputs(net, header, current, |dim, dir| {
                if faults.output_usable(net, current, dim, dir) {
                    candidates.push(OutputCandidate::new(
                        dim,
                        dir,
                        adaptive_vcs.clone().collect(),
                    ));
                }
            });
        if let Some((dim, dir)) = self.base.deterministic_output(net, header, current) {
            if faults.output_usable(net, current, dim, dir) {
                let vc = self.base.escape_vc(net, header, dim);
                candidates.push(OutputCandidate::escape(dim, dir, vc));
            }
        }
        if candidates.is_empty() {
            return RouteDecision::Absorb;
        }
        RouteDecision::Forward(candidates)
    }

    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        header.note_hop(net, from, dim, dir);
    }

    fn reroute_on_fault(
        &self,
        any: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool {
        let net = B::view(any);
        // Software forwarding: the message was absorbed because it reached an
        // intermediate via host, not because of a new fault. Pop the reached
        // target(s) and re-inject unchanged.
        if at == header.target() && header.pending_via() > 0 {
            header.absorptions += 1;
            while at == header.target() && header.pending_via() > 0 {
                header.advance_target(at);
            }
            return true;
        }

        header.absorptions += 1;
        header.faulted = true;

        // Rule 3 (fallback): out of budget, or already escorted yet absorbed
        // again (which can only happen if the fault set changed) — compute an
        // explicit fault-free path.
        if header.escorted || header.misroute_budget == 0 {
            return install_explicit_path(net, faults, header, at);
        }
        if self.base.spends_budget(blocked) {
            header.misroute_budget -= 1;
        }

        let (dim, dir) = blocked;

        // Rule 1: re-route in the same dimension, opposite direction. Only a
        // wrapped dimension can reach the target the "wrong way round"; on an
        // open dimension the opposite direction walks away from the target
        // and dead-ends at the edge, so the rule is skipped there.
        if let Some(grid) = any.grid() {
            if grid.wraps(dim) && header.forced_dir[dim].is_none() {
                let opposite = dir.opposite();
                if faults.output_usable(grid, at, dim, opposite)
                    && grid.offset(at, header.target(), dim) != 0
                {
                    header.forced_dir[dim] = Some(opposite);
                    return true;
                }
            }
        }

        // Rule 2: the base's local detour around the fault region, then
        // resume towards the destination.
        if let Some(via) = self.base.detour(net, faults, at, blocked) {
            header.forced_dir[dim] = None;
            header.push_intermediate(via);
            return true;
        }

        // No detour left (the node is walled in except for the channel the
        // message arrived on, or a fat-tree descent that cannot re-ascend) —
        // fall back to the explicit path, which exists as long as the network
        // is connected.
        install_explicit_path(net, faults, header, at)
    }

    fn name(&self) -> String {
        format!("{} ({})", self.base.name(), self.flavor.label())
    }
}

/// The test driver every routing module's scenarios run through.
#[cfg(test)]
pub(crate) mod driver {
    use super::*;

    /// What happened to one driven message.
    pub(crate) struct Trace {
        /// Nodes visited, source first, destination last.
        pub visited: Vec<NodeId>,
        /// Absorptions on the way (each was counted once in the header).
        pub absorptions: u32,
        /// Whether the message was ever escorted along an explicit path.
        pub escorted: bool,
    }

    impl Trace {
        /// Network hops taken.
        pub fn hops(&self) -> u32 {
            self.visited.len() as u32 - 1
        }
    }

    /// Drives `header` from its source to delivery the way both engines do:
    /// forward over the first candidate; on absorption report the
    /// deterministic output as blocked, re-route and re-inject. Asserts that
    /// no hop enters a faulty node, every re-route succeeds, the header
    /// counts each absorption once and the message arrives within 1000
    /// steps.
    pub(crate) fn drive<A: RoutingAlgorithm>(
        algo: &A,
        net: &AnyTopology,
        faults: &FaultSet,
        mut header: RouteHeader,
        v: usize,
    ) -> Trace {
        let name = algo.name();
        let counted = header.absorptions;
        let mut current = header.source;
        let mut trace = Trace {
            visited: vec![current],
            absorptions: 0,
            escorted: header.escorted,
        };
        for _ in 0..1000 {
            match algo.route(net, faults, &mut header, current, v) {
                RouteDecision::Deliver => {
                    assert_eq!(current, header.final_dest, "{name}");
                    assert_eq!(header.absorptions - counted, trace.absorptions, "{name}");
                    return trace;
                }
                RouteDecision::Forward(cands) => {
                    let c = &cands[0];
                    algo.note_hop(net, &mut header, current, c.dim, c.dir);
                    current = net.neighbor(current, c.dim, c.dir).expect("existing hop");
                    assert!(!faults.is_node_faulty(current), "{name} entered a fault");
                    trace.visited.push(current);
                }
                RouteDecision::Absorb => {
                    trace.absorptions += 1;
                    // A via host at its reached target has no output.
                    let blocked = algo
                        .deterministic_output(net, &header, current)
                        .unwrap_or((0, Direction::Plus));
                    assert!(
                        algo.reroute_on_fault(net, faults, &mut header, current, blocked),
                        "{name} failed to re-route at {current:?}"
                    );
                    trace.escorted |= header.escorted;
                    header.reset_for_injection();
                }
            }
        }
        panic!("livelock: {name} never delivered");
    }
}

#[cfg(test)]
mod tests {
    use super::driver::drive;
    use super::*;
    use crate::dispatch::AnyRouting;
    use crate::{SwBasedRouting, TurnModelRouting, UpDownRouting};

    fn grid_node(t: &AnyTopology, digits: &[u16]) -> NodeId {
        t.grid().unwrap().node_from_digits(digits).unwrap()
    }

    /// All ten constructors, each on a topology it supports, with a
    /// source/destination pair and an unrelated node to use as a via host.
    fn every_constructor() -> Vec<(AnyRouting, AnyTopology, NodeId, NodeId, NodeId)> {
        let torus = AnyTopology::torus(8, 2).unwrap();
        let mesh = AnyTopology::mesh(8, 2).unwrap();
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let sw = [SwBasedRouting::deterministic(), SwBasedRouting::adaptive()];
        let tm = [
            TurnModelRouting::deterministic(),
            TurnModelRouting::adaptive(),
            TurnModelRouting::west_first_deterministic(),
            TurnModelRouting::west_first_adaptive(),
            TurnModelRouting::north_last_deterministic(),
            TurnModelRouting::north_last_adaptive(),
        ];
        let ud = [UpDownRouting::deterministic(), UpDownRouting::adaptive()];
        let sw = sw.map(|a| (AnyRouting::from(a), &torus));
        let tm = tm.map(|a| (AnyRouting::from(a), &mesh));
        let ud = ud.map(|a| (AnyRouting::from(a), &ft));
        sw.into_iter()
            .chain(tm)
            .chain(ud)
            .map(|(algo, net)| {
                let (src, dest, via) = match net.grid() {
                    Some(_) => (
                        grid_node(net, &[0, 0]),
                        grid_node(net, &[4, 0]),
                        grid_node(net, &[2, 3]),
                    ),
                    None => (NodeId(0), NodeId(13), NodeId(6)),
                };
                (algo, net.clone(), src, dest, via)
            })
            .collect()
    }

    #[test]
    fn software_layer_contract_holds_for_every_base() {
        let none = FaultSet::new();
        for (algo, net, src, dest, via) in every_constructor() {
            let name = algo.name();
            let v = algo.min_virtual_channels(&net) + 1;
            assert_eq!(algo.supported_on(&net), Ok(()), "{name}");

            // A reached via host is absorbed for software forwarding, and
            // the forwarding pop is one absorption, not a fault.
            let mut h = algo.make_header(&net, src, dest);
            h.push_intermediate(via);
            assert!(
                algo.route(&net, &none, &mut h, via, v).is_absorb(),
                "{name}"
            );
            assert!(algo.reroute_on_fault(&net, &none, &mut h, via, (0, Direction::Plus)));
            assert_eq!((h.absorptions, h.faulted), (1, false), "{name}");
            assert_eq!((h.target(), h.pending_via()), (dest, 0), "{name}");

            // Out of budget, the software layer escorts the message.
            let mut h = algo.make_header(&net, src, dest);
            h.misroute_budget = 0;
            let blocked = algo.deterministic_output(&net, &h, src).unwrap();
            assert!(algo.reroute_on_fault(&net, &none, &mut h, src, blocked));
            assert!(h.escorted && h.faulted, "{name}");
            assert_eq!(h.absorptions, 1, "{name}");

            // Once faulted, a message rides the single deterministic output:
            // the escape channel for adaptive-flavour headers.
            let adaptive = algo.flavor() == RoutingFlavor::Adaptive;
            let mut h = algo.make_header(&net, src, dest);
            h.faulted = true;
            let cands = algo
                .route(&net, &none, &mut h, src, v)
                .candidates()
                .to_vec();
            assert_eq!(cands.len(), 1, "{name}");
            assert_eq!(cands[0].is_escape, adaptive, "{name}");
            if adaptive {
                assert_eq!(cands[0].vcs, vec![0], "{name}");
            }

            // A destination cut off from the network cannot be escorted.
            let mut cut = FaultSet::new();
            for dim in 0..net.dims() {
                for dir in Direction::BOTH {
                    cut.fail_link(&net, dest, dim, dir);
                }
            }
            let mut h = algo.make_header(&net, src, dest);
            h.misroute_budget = 0;
            assert!(
                !algo.reroute_on_fault(&net, &cut, &mut h, src, blocked),
                "{name}"
            );
        }
    }

    /// One faulted delivery scenario for the driver.
    struct Scenario {
        algo: AnyRouting,
        net: AnyTopology,
        faults: FaultSet,
        src: NodeId,
        dest: NodeId,
        v: usize,
        /// Misroute budget override for the injected header.
        budget: Option<u32>,
        /// The fault lies on the deterministic path: at least this many
        /// absorptions.
        min_absorptions: u32,
        /// Every fault here must take the explicit-path rule.
        escorts: bool,
    }

    fn grid_scenarios() -> Vec<Scenario> {
        let mut rows = Vec::new();
        let mesh = AnyTopology::mesh(8, 2).unwrap();
        let torus = AnyTopology::torus(8, 2).unwrap();
        let hc = AnyTopology::hypercube(4).unwrap();
        let row = |algo: AnyRouting, net: &AnyTopology, s: &[u16], d: &[u16], fault: &[u16]| {
            let mut faults = FaultSet::new();
            faults.fail_node(grid_node(net, fault));
            Scenario {
                algo,
                net: net.clone(),
                faults,
                src: grid_node(net, s),
                dest: grid_node(net, d),
                v: 2,
                budget: None,
                min_absorptions: 0,
                escorts: false,
            }
        };
        // SW-Based: the fault sits on the e-cube path, on a torus and on the
        // matching mesh.
        for net in [&torus, &mesh] {
            rows.push(Scenario {
                v: 4,
                min_absorptions: 1,
                ..row(
                    SwBasedRouting::deterministic().into(),
                    net,
                    &[1, 0],
                    &[4, 0],
                    &[3, 0],
                )
            });
        }
        // Out of budget from the start: the first fault escorts the message
        // along an explicit path.
        rows.push(Scenario {
            v: 4,
            budget: Some(0),
            min_absorptions: 1,
            escorts: true,
            ..row(
                SwBasedRouting::deterministic().into(),
                &torus,
                &[3, 2],
                &[3, 5],
                &[3, 3],
            )
        });
        // Turn models: the fault sits on the canonical turn-rule path.
        for algo in [
            TurnModelRouting::deterministic(),
            TurnModelRouting::adaptive(),
        ] {
            rows.push(row(algo.into(), &mesh, &[1, 0], &[4, 0], &[3, 0]));
            rows.push(row(
                algo.into(),
                &hc,
                &[0, 0, 0, 0],
                &[1, 1, 0, 0],
                &[1, 0, 0, 0],
            ));
        }
        for algo in [
            TurnModelRouting::west_first_deterministic(),
            TurnModelRouting::west_first_adaptive(),
        ] {
            rows.push(row(algo.into(), &mesh, &[4, 0], &[1, 0], &[3, 0]));
        }
        for algo in [
            TurnModelRouting::north_last_deterministic(),
            TurnModelRouting::north_last_adaptive(),
        ] {
            rows.push(row(algo.into(), &mesh, &[1, 0], &[4, 0], &[3, 0]));
        }
        rows
    }

    fn fat_tree_scenarios() -> Vec<Scenario> {
        let mut rows = Vec::new();
        // Kill the top switch the canonical e0 -> e13 path ascends through.
        let net = AnyTopology::fat_tree_new(4, 2).unwrap();
        let ft = net.fat_tree().unwrap();
        let leaf = ft.leaf_of(NodeId(0));
        let h = UpDownRouting::deterministic().make_header(&net, NodeId(0), NodeId(13));
        let (t, _) = UpDownRouting::deterministic()
            .deterministic_output(&net, &h, leaf)
            .unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(ft.neighbor(leaf, t, Direction::Plus).unwrap());
        for (algo, min_absorptions) in [
            (UpDownRouting::deterministic(), 1),
            (UpDownRouting::adaptive(), 0),
        ] {
            rows.push(Scenario {
                algo: algo.into(),
                net: net.clone(),
                faults: faults.clone(),
                src: NodeId(0),
                dest: NodeId(13),
                v: 2,
                budget: None,
                min_absorptions,
                escorts: false,
            });
        }
        // ft:2,3 gives a two-hop descent, so a fault can sit strictly inside
        // the down-phase: kill the *link* between s1.3 and leaf s0.3 on the
        // canonical descent to e7 (the leaf itself is a single point of
        // failure for e7). Re-ascending after a down-hop would break the
        // up/down order, so the detour must be an explicit path.
        let net = AnyTopology::fat_tree_new(2, 3).unwrap();
        let ft = net.fat_tree().unwrap();
        let (mid, leaf) = (ft.switch_id(1, 3), ft.switch_id(0, 3));
        let t = ft
            .neighbors(mid)
            .iter()
            .find_map(|&(ch, n)| (n == leaf).then_some(ch.dim))
            .unwrap();
        let mut faults = FaultSet::new();
        faults.fail_link(ft, mid, t, Direction::Minus);
        rows.push(Scenario {
            algo: UpDownRouting::deterministic().into(),
            net,
            faults,
            src: NodeId(0),
            dest: NodeId(7),
            v: 1,
            budget: None,
            min_absorptions: 0,
            escorts: true,
        });
        rows
    }

    #[test]
    fn faulted_messages_are_delivered_around_the_fault() {
        for s in grid_scenarios().into_iter().chain(fat_tree_scenarios()) {
            let name = s.algo.name();
            let mut header = s.algo.make_header(&s.net, s.src, s.dest);
            if let Some(budget) = s.budget {
                header.misroute_budget = budget;
            }
            let trace = drive(&s.algo, &s.net, &s.faults, header, s.v);
            assert_eq!(trace.visited.last(), Some(&s.dest), "{name}");
            assert!(trace.absorptions >= s.min_absorptions, "{name}");
            if s.escorts && trace.absorptions > 0 {
                assert!(
                    trace.escorted,
                    "{name}: the fault must take the explicit-path rule"
                );
            }
            assert!(
                trace.visited.len() + (trace.absorptions as usize) < 100,
                "{name}"
            );
        }
    }
}
