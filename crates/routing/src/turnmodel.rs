//! Turn-model routing (negative-first, west-first and north-last) for open
//! (non-wrap) topologies.
//!
//! The turn model (Glass & Ni) achieves deadlock freedom on meshes without
//! virtual-channel classes by *prohibiting turns* instead of splitting
//! channels: negative-first routing forbids every turn from a positive
//! (Plus) channel onto a negative (Minus) channel, which breaks all channel
//! dependency cycles on open dimensions (see [`crate::cdg::build_turn_cdg`]
//! for the explicit acyclicity proof the test-suite runs). A message first
//! takes all its negative hops — in any order — and then all its positive
//! hops; once it has moved in a positive direction it never moves negatively
//! again within the same network traversal.
//!
//! The implementation is parameterised over a [`TurnRule`], i.e. a
//! per-dimension *first direction*: negative-first routes Minus first in
//! every dimension, west-first routes Minus first in dimension 0 and Plus
//! first everywhere else, north-last the exact mirror (Plus first in
//! dimension 0, Minus first above). Any such assignment is a reflection
//! (relabelling of Plus/Minus) of negative-first, so the same acyclicity
//! argument applies; the phase discipline below ("first-phase hops before
//! second-phase hops") is rule-agnostic.
//!
//! This gives the SW-Based scheme a second deterministic/escape substrate on
//! meshes, hypercubes and mixed-radix open shapes:
//!
//! * **deterministic flavour** — the canonical negative-first order (negative
//!   hops in increasing dimension order, then positive hops in increasing
//!   dimension order). One virtual channel suffices: the negative-first CDG
//!   is acyclic with a single VC class.
//! * **adaptive flavour** — minimal adaptive routing restricted to the
//!   current negative-first phase (any productive Minus hop while negative
//!   offsets remain, any productive Plus hop afterwards) on the adaptive VC
//!   pool, with the canonical negative-first output as the escape channel on
//!   VC 0. Two virtual channels suffice (1 escape + >= 1 adaptive), versus
//!   three for Duato-over-e-cube on a torus.
//!
//! Because the turn restriction replaces the dateline argument, the model is
//! only sound where no dimension wraps: a ring's same-direction dependency
//! chain closes a cycle no turn prohibition can break. Both simulator engines
//! therefore reject the algorithm on wrapped dimensions at construction time
//! with a typed [`RoutingTopologyError`]. The same check rejects indirect
//! topologies outright — turn directions are grid offsets, which a fat-tree
//! does not have.
//!
//! **Fault handling** is the shared [`SoftwareLayer`] minus rule 1:
//! re-routing in the same dimension, opposite direction only pays off on a
//! wrapped ring, which this model never runs on, so an absorbed message goes
//! straight to the orthogonal detour (rule 2, shared with the e-cube base)
//! and falls back to an explicit fault-free path (rule 3) when the misroute
//! budget is exhausted. As with the SW-Based scheme, the detour legs of a
//! faulted message may violate the turn restriction across absorption
//! boundaries; the deadlock-freedom argument for the fault-free layer (the
//! CDG analysis) matches the scope of the paper's Section 4 argument for
//! e-cube.

use crate::adaptive::productive_outputs;
use crate::cdg::TurnRule;
use crate::header::{RouteHeader, RoutingFlavor};
use crate::layer::{BaseRouting, RoutingTopologyError, SoftwareLayer};
use crate::swbased::{expect_grid, orthogonal_detour};
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, Network, NodeId};

/// The canonical turn-rule output for a header at `current`: the lowest
/// dimension with a productive hop in its first-phase direction, else the
/// lowest dimension with a productive second-phase hop.
///
/// Returns `None` when the message is already at its current routing target,
/// and must not be called with [`TurnRule::Unrestricted`] (which orders no
/// dimension). Forced-direction overrides are never consulted: they are only
/// installed by software rule 1, which requires a wrapped dimension, and this
/// model runs exclusively on open topologies.
pub fn turn_rule_output(
    net: &Network,
    rule: TurnRule,
    header: &RouteHeader,
    current: NodeId,
) -> Option<(usize, Direction)> {
    let target = header.target();
    let mut second_phase = None;
    for dim in 0..net.dims() {
        let off = net.offset(current, target, dim);
        let Some(dir) = Direction::from_offset(off) else {
            continue;
        };
        let first = rule
            .first_direction(dim)
            .expect("turn_rule_output requires a rule that orders every dimension");
        if dir == first {
            return Some((dim, dir));
        }
        if second_phase.is_none() {
            second_phase = Some((dim, dir));
        }
    }
    second_phase
}

/// Turn-model routing for open multidimensional networks, parameterised over
/// the turn rule (negative-first, west-first or north-last) and the routing
/// flavour.
pub type TurnModelRouting = SoftwareLayer<TurnRuleBase>;

impl TurnModelRouting {
    /// Deterministic (canonical negative-first order) routing.
    pub const fn deterministic() -> Self {
        turn_model(TurnRule::NegativeFirst, RoutingFlavor::Deterministic)
    }

    /// Phase-adaptive negative-first routing with a negative-first escape
    /// channel.
    pub const fn adaptive() -> Self {
        turn_model(TurnRule::NegativeFirst, RoutingFlavor::Adaptive)
    }

    /// Deterministic west-first routing (dimension 0 routes Minus first,
    /// every higher dimension Plus first).
    pub const fn west_first_deterministic() -> Self {
        turn_model(TurnRule::WestFirst, RoutingFlavor::Deterministic)
    }

    /// Phase-adaptive west-first routing with a west-first escape channel.
    pub const fn west_first_adaptive() -> Self {
        turn_model(TurnRule::WestFirst, RoutingFlavor::Adaptive)
    }

    /// Deterministic north-last routing (dimension 0 routes Plus first,
    /// every higher dimension Minus first — the mirror of west-first, so the
    /// northward hops of the higher dimensions come last).
    pub const fn north_last_deterministic() -> Self {
        turn_model(TurnRule::NorthLast, RoutingFlavor::Deterministic)
    }

    /// Phase-adaptive north-last routing with a north-last escape channel.
    pub const fn north_last_adaptive() -> Self {
        turn_model(TurnRule::NorthLast, RoutingFlavor::Adaptive)
    }
}

const fn turn_model(rule: TurnRule, flavor: RoutingFlavor) -> TurnModelRouting {
    SoftwareLayer::new(TurnRuleBase(rule), flavor)
}

/// A turn rule as a base routing: the canonical turn-rule order as the
/// deterministic (and escape) output, phase-restricted minimal adaptivity
/// above it. Only the three rules that order every dimension are
/// constructible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TurnRuleBase(TurnRule);

impl TurnRuleBase {
    fn algorithm_label(self) -> &'static str {
        match self.0 {
            TurnRule::WestFirst => "west-first turn-model",
            TurnRule::NorthLast => "north-last turn-model",
            _ => "negative-first turn-model",
        }
    }
}

impl BaseRouting for TurnRuleBase {
    type Net = Network;

    fn name(&self) -> &'static str {
        match self.0 {
            TurnRule::WestFirst => "West-First",
            TurnRule::NorthLast => "North-Last",
            _ => "Negative-First",
        }
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        let Some(grid) = net.grid() else {
            return Err(RoutingTopologyError::UnsupportedTopology {
                algorithm: self.algorithm_label(),
                topology: net.to_string(),
                requires: "a direct open grid topology (mesh/hypercube); \
                           fat-trees route with the up/down scheme",
            });
        };
        match (0..grid.dims()).find(|&dim| grid.wraps(dim)) {
            Some(dim) => Err(RoutingTopologyError::WrappedDimension {
                algorithm: self.algorithm_label(),
                shape: grid.to_string(),
                dim,
                radix: grid.radix(dim),
            }),
            None => Ok(()),
        }
    }

    fn view(net: &AnyTopology) -> &Network {
        expect_grid(net)
    }

    fn deterministic_output(
        &self,
        net: &Network,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        turn_rule_output(net, self.0, header, current)
    }

    /// Any productive output of the current turn-rule phase. While any
    /// productive first-phase hop remains only first-phase hops are legal;
    /// afterwards the remaining productive hops are all second-phase, so a
    /// first-phase hop can never follow a second-phase hop towards the same
    /// target (offsets shrink monotonically under minimal routing).
    fn adaptive_outputs(
        &self,
        net: &Network,
        header: &RouteHeader,
        current: NodeId,
        mut emit: impl FnMut(usize, Direction),
    ) {
        let rule = self.0;
        let in_first_phase = |&(dim, dir): &(usize, Direction)| {
            rule.first_direction(dim)
                .expect("turn-model rules order every dimension")
                == dir
        };
        let prods = productive_outputs(net, header, current);
        let first_phase = prods.iter().any(in_first_phase);
        for (dim, dir) in prods {
            if !first_phase || in_first_phase(&(dim, dir)) {
                emit(dim, dir);
            }
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
    use crate::layer::driver::drive;
    use crate::RoutingAlgorithm;

    fn mesh() -> AnyTopology {
        AnyTopology::mesh(8, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
    }

    /// Node id from grid digits (tests only run the model on grids).
    fn node(t: &AnyTopology, digits: &[u16]) -> NodeId {
        t.grid().unwrap().node_from_digits(digits).unwrap()
    }

    /// Asserts a hop sequence never takes a first-phase hop (under `rule`)
    /// after a second-phase hop.
    fn assert_obeys_rule(net: &Network, rule: TurnRule, visited: &[NodeId]) {
        let mut seen_second_phase = false;
        for pair in visited.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let dim = (0..net.dims())
                .find(|&d| net.position(from, d) != net.position(to, d))
                .expect("consecutive nodes differ in exactly one dimension");
            let dir = if net.position(to, dim) > net.position(from, dim) {
                Direction::Plus
            } else {
                Direction::Minus
            };
            if Some(dir) == rule.first_direction(dim) {
                assert!(
                    !seen_second_phase,
                    "first-phase hop after a second-phase hop in {visited:?}"
                );
            } else {
                seen_second_phase = true;
            }
        }
    }

    #[test]
    fn canonical_output_routes_negative_phase_first() {
        let m = mesh();
        let g = m.grid().unwrap();
        let src = node(&m, &[3, 5]);
        let dest = node(&m, &[5, 2]);
        let h = RouteHeader::new(&m, src, dest, RoutingFlavor::Deterministic);
        let nf = TurnRule::NegativeFirst;
        // Offset is (+2, -3): the negative dimension-1 offset goes first.
        assert_eq!(
            turn_rule_output(g, nf, &h, src),
            Some((1, Direction::Minus))
        );
        let mid = node(&m, &[3, 2]);
        assert_eq!(turn_rule_output(g, nf, &h, mid), Some((0, Direction::Plus)));
        assert_eq!(turn_rule_output(g, nf, &h, dest), None);
    }

    #[test]
    fn fault_free_walks_are_minimal_and_obey_the_rule() {
        let m = mesh();
        type Pairs<'a> = &'a [([u16; 2], [u16; 2])];
        let nf: Pairs = &[([1, 6], [6, 1]), ([7, 0], [0, 7]), ([2, 2], [5, 5])];
        let other: Pairs = &[([1, 6], [6, 1]), ([7, 0], [0, 7]), ([5, 5], [2, 2])];
        let rows: [(TurnModelRouting, TurnRule, usize, Pairs); 6] = [
            (
                TurnModelRouting::deterministic(),
                TurnRule::NegativeFirst,
                1,
                nf,
            ),
            (
                TurnModelRouting::adaptive(),
                TurnRule::NegativeFirst,
                2,
                &[([6, 5], [1, 0])],
            ),
            (
                TurnModelRouting::west_first_deterministic(),
                TurnRule::WestFirst,
                1,
                other,
            ),
            (
                TurnModelRouting::west_first_adaptive(),
                TurnRule::WestFirst,
                2,
                other,
            ),
            (
                TurnModelRouting::north_last_deterministic(),
                TurnRule::NorthLast,
                1,
                other,
            ),
            (
                TurnModelRouting::north_last_adaptive(),
                TurnRule::NorthLast,
                2,
                other,
            ),
        ];
        for (algo, rule, v, pairs) in rows {
            for (s, d) in pairs {
                let (src, dest) = (node(&m, s), node(&m, d));
                let trace = drive(&algo, &m, &no_faults(), algo.make_header(&m, src, dest), v);
                assert_eq!(trace.absorptions, 0, "{}", algo.name());
                assert_eq!(trace.hops(), m.distance(src, dest), "{}", algo.name());
                assert_obeys_rule(m.grid().unwrap(), rule, &trace.visited);
            }
        }
    }

    #[test]
    fn adaptive_candidates_restricted_to_the_negative_phase() {
        let m = mesh();
        let algo = TurnModelRouting::adaptive();
        let src = node(&m, &[3, 5]);
        let dest = node(&m, &[5, 2]);
        let mut h = algo.make_header(&m, src, dest);
        let d = algo.route(&m, &no_faults(), &mut h, src, 3);
        let cands = d.candidates();
        // Offset (+2, -3): while the negative offset remains, the productive
        // Plus hop in dimension 0 is forbidden.
        assert!(cands
            .iter()
            .all(|c| c.dim == 1 && c.dir == Direction::Minus));
        let escape = cands.iter().find(|c| c.is_escape).unwrap();
        assert_eq!(escape.vcs, vec![0]);
        for c in cands.iter().filter(|c| !c.is_escape) {
            assert_eq!(c.vcs, vec![1, 2]);
        }
        // Once the negative phase is done, Plus hops open up.
        let mid = node(&m, &[3, 2]);
        let d = algo.route(&m, &no_faults(), &mut h, mid, 3);
        assert!(d
            .candidates()
            .iter()
            .all(|c| c.dim == 0 && c.dir == Direction::Plus));
    }

    #[test]
    fn deterministic_flavor_uses_the_whole_pool() {
        let m = mesh();
        let algo = TurnModelRouting::deterministic();
        let src = node(&m, &[0, 0]);
        let dest = node(&m, &[3, 0]);
        let mut h = algo.make_header(&m, src, dest);
        let d = algo.route(&m, &no_faults(), &mut h, src, 4);
        let cands = d.candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].vcs, vec![0, 1, 2, 3]);
        assert!(!cands[0].is_escape);
    }

    #[test]
    fn absorbs_at_fault_and_absorbs_only_when_all_phase_outputs_faulty() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let det = TurnModelRouting::deterministic();
        let src = node(&m, &[1, 0]);
        let dest = node(&m, &[4, 0]);
        let mut h = det.make_header(&m, src, dest);
        assert!(det.route(&m, &faults, &mut h, src, 2).is_absorb());

        // The adaptive flavour still forwards while another phase-legal
        // productive output is healthy.
        let ada = TurnModelRouting::adaptive();
        let dest2 = node(&m, &[4, 2]);
        let mut h = ada.make_header(&m, src, dest2);
        let d = ada.route(&m, &faults, &mut h, src, 2);
        assert!(!d.candidates().is_empty());
        assert!(d
            .candidates()
            .iter()
            .all(|c| !(c.dim == 0 && c.dir == Direction::Plus && !c.is_escape)));
    }

    #[test]
    fn reroute_goes_straight_to_the_orthogonal_detour() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let algo = TurnModelRouting::deterministic();
        let at = node(&m, &[1, 0]);
        let dest = node(&m, &[4, 0]);
        let mut header = algo.make_header(&m, at, dest);
        assert!(algo.reroute_on_fault(&m, &faults, &mut header, at, (0, Direction::Plus)));
        assert!(header.faulted);
        assert_eq!(header.absorptions, 1);
        // No rule-1 forced direction is ever installed on open dimensions.
        assert!(header.forced_dir.iter().all(Option::is_none));
        assert_eq!(header.pending_via(), 1);
        // From row 0 the only open orthogonal direction is Plus in dim 1.
        assert_eq!(header.target(), node(&m, &[1, 1]));
    }

    #[test]
    fn supported_on_rejects_wrapped_dimensions() {
        let algo = TurnModelRouting::adaptive();
        assert_eq!(algo.supported_on(&AnyTopology::mesh(8, 2).unwrap()), Ok(()));
        assert_eq!(
            algo.supported_on(&AnyTopology::hypercube(6).unwrap()),
            Ok(())
        );
        let torus = AnyTopology::torus(8, 2).unwrap();
        assert_eq!(
            algo.supported_on(&torus),
            Err(RoutingTopologyError::WrappedDimension {
                algorithm: "negative-first turn-model",
                shape: "8x8".into(),
                dim: 0,
                radix: 8,
            })
        );
        // A single wrapped dimension anywhere is enough, and the error names
        // it precisely.
        let mixed =
            AnyTopology::Grid(Network::new(vec![4, 6, 3], vec![false, true, false]).unwrap());
        match algo.supported_on(&mixed) {
            Err(RoutingTopologyError::WrappedDimension {
                shape, dim, radix, ..
            }) => {
                assert_eq!((dim, radix), (1, 6));
                assert_eq!(shape, "4ox6x3o");
            }
            other => panic!("expected WrappedDimension, got {other:?}"),
        }
        // The message is self-describing: it names the topology shape and
        // the rejecting algorithm.
        let err = algo.supported_on(&torus).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("wraps around"));
        assert!(msg.contains("'8x8'"));
        assert!(msg.contains("negative-first turn-model"));
        let wf_err = TurnModelRouting::west_first_adaptive()
            .supported_on(&torus)
            .unwrap_err();
        assert!(format!("{wf_err}").contains("west-first turn-model"));
    }

    #[test]
    fn supported_on_rejects_fat_trees() {
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let err = TurnModelRouting::adaptive().supported_on(&ft).unwrap_err();
        match &err {
            RoutingTopologyError::UnsupportedTopology {
                algorithm,
                topology,
                ..
            } => {
                assert_eq!(*algorithm, "negative-first turn-model");
                assert_eq!(topology, "ft:4,2");
            }
            other => panic!("expected UnsupportedTopology, got {other:?}"),
        }
        let msg = format!("{err}");
        assert!(msg.contains("cannot operate on topology 'ft:4,2'"));
    }

    #[test]
    fn west_first_routes_west_before_everything_else() {
        let m = mesh();
        let algo = TurnModelRouting::west_first_deterministic();
        // Offset (-2, -3): west (dim 0 Minus) is first phase, south (dim 1
        // Minus) is second phase — dim 0 must be exhausted first.
        let src = node(&m, &[4, 5]);
        let dest = node(&m, &[2, 2]);
        let h = algo.make_header(&m, src, dest);
        assert_eq!(
            algo.deterministic_output(&m, &h, src),
            Some((0, Direction::Minus))
        );
        // Offset (+2, +3): both hops are eastward/northward; north (dim 1
        // Plus) is first phase under west-first, east (dim 0 Plus) second.
        let src2 = node(&m, &[2, 2]);
        let dest2 = node(&m, &[4, 5]);
        let h2 = algo.make_header(&m, src2, dest2);
        assert_eq!(
            algo.deterministic_output(&m, &h2, src2),
            Some((1, Direction::Plus))
        );
    }

    #[test]
    fn north_last_routes_north_after_everything_else() {
        let m = mesh();
        let algo = TurnModelRouting::north_last_deterministic();
        // Offset (+2, +3): east (dim 0 Plus) is first phase under north-last,
        // north (dim 1 Plus) is second phase — dim 0 must be exhausted first.
        let src = node(&m, &[2, 2]);
        let dest = node(&m, &[4, 5]);
        let h = algo.make_header(&m, src, dest);
        assert_eq!(
            algo.deterministic_output(&m, &h, src),
            Some((0, Direction::Plus))
        );
        // Offset (-2, +3): west and north are both second phase; with no
        // first-phase hop available the lowest second-phase dimension (west)
        // goes first.
        let src2 = node(&m, &[4, 2]);
        let dest2 = node(&m, &[2, 5]);
        let h2 = algo.make_header(&m, src2, dest2);
        assert_eq!(
            algo.deterministic_output(&m, &h2, src2),
            Some((0, Direction::Minus))
        );
        // Offset (+2, -3): both east and south are first phase; lowest
        // dimension wins.
        let src3 = node(&m, &[2, 5]);
        let dest3 = node(&m, &[4, 2]);
        let h3 = algo.make_header(&m, src3, dest3);
        assert_eq!(
            algo.deterministic_output(&m, &h3, src3),
            Some((0, Direction::Plus))
        );
    }

    #[test]
    fn min_virtual_channels_and_names() {
        let m = mesh();
        assert_eq!(
            TurnModelRouting::deterministic().min_virtual_channels(&m),
            1
        );
        assert_eq!(TurnModelRouting::adaptive().min_virtual_channels(&m), 2);
        assert_eq!(
            TurnModelRouting::deterministic().name(),
            "Negative-First (deterministic)"
        );
        assert_eq!(
            TurnModelRouting::adaptive().name(),
            "Negative-First (adaptive)"
        );
        assert_eq!(
            TurnModelRouting::west_first_deterministic().name(),
            "West-First (deterministic)"
        );
        assert_eq!(
            TurnModelRouting::west_first_adaptive().name(),
            "West-First (adaptive)"
        );
        assert_eq!(
            TurnModelRouting::west_first_adaptive().min_virtual_channels(&m),
            2
        );
        assert_eq!(
            TurnModelRouting::north_last_deterministic().name(),
            "North-Last (deterministic)"
        );
        assert_eq!(
            TurnModelRouting::north_last_adaptive().name(),
            "North-Last (adaptive)"
        );
        assert_eq!(
            TurnModelRouting::north_last_deterministic().min_virtual_channels(&m),
            1
        );
        assert_eq!(
            TurnModelRouting::adaptive().flavor(),
            RoutingFlavor::Adaptive
        );
    }

    #[test]
    fn deterministic_output_hook_is_negative_first() {
        let m = mesh();
        let algo = TurnModelRouting::deterministic();
        let src = node(&m, &[3, 5]);
        let dest = node(&m, &[5, 2]);
        let h = algo.make_header(&m, src, dest);
        assert_eq!(
            algo.deterministic_output(&m, &h, src),
            Some((1, Direction::Minus))
        );
        // The e-cube output for the same header would be (0, Plus): the hook
        // matters for the blocked-output reported at absorption time.
        assert_eq!(
            crate::ecube::ecube_output(m.grid().unwrap(), &h, src),
            Some((0, Direction::Plus))
        );
    }
}
