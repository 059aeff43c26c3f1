//! # torus-routing
//!
//! Routing algorithms for wormhole-switched multidimensional networks —
//! tori, meshes, hypercubes, mixed-radix shapes and k-ary l-level fat-trees —
//! implementing the algorithms evaluated by Safaei et al. (IPDPS 2006).
//!
//! The paper's contribution is a software layer that does not depend on the
//! routing underneath it, and the crate is organised the same way: one
//! [`SoftwareLayer`](layer::SoftwareLayer) over three base routings
//! ([`BaseRouting`](layer::BaseRouting)).
//! In a fault-free network the base runs unchanged. When a message's output
//! leads to a faulty component the message is *absorbed* at the local node,
//! its header is rewritten by the message-passing software (same dimension
//! opposite direction first, then the base's local detour, finally an
//! explicit fault-free intermediate-node path), and it is re-injected with
//! priority. Once faulted, a message stays deterministic.
//!
//! The three bases, each in a deterministic and an adaptive flavour:
//!
//! * **E-cube / Duato** ([`swbased`], [`SwBasedRouting`]) — the paper's
//!   SW-Based-nD, extended from 2-D (Suh et al., IEEE TPDS 2000) to n
//!   dimensions. Dimension-order e-cube routing ([`ecube`]), made
//!   deadlock-free on wrapped dimensions with two dateline virtual-channel
//!   classes, and Duato's Protocol fully adaptive routing over it
//!   ([`adaptive`]). Open (mesh) dimensions need no split and may use the
//!   whole VC pool. Grids only.
//! * **Turn models** ([`turnmodel`], [`TurnModelRouting`]) — the classic
//!   low-VC alternative on open topologies: deadlock freedom via prohibited
//!   turns instead of dateline channel classes, parameterised over the turn
//!   rule (negative-first, west-first or north-last). One VC suffices
//!   deterministic, two adaptive; wrapped dimensions are rejected.
//! * **Up*/down*** ([`updown`], [`UpDownRouting`]) — the standard scheme for
//!   fat-trees: climb to a common ancestor, then descend. The deterministic
//!   flavour ascends to the destination-aligned parent, the adaptive one to
//!   any live parent with the deterministic output as escape. Its detour
//!   re-ascends through an alternate parent; a dead down-link falls back to
//!   an explicit path. Fat-trees only.
//!
//! A new base implements [`BaseRouting`](layer::BaseRouting), which asks
//! for:
//!
//! * its name, the topologies it supports (a typed
//!   [`RoutingTopologyError`] otherwise) and the downcast to that backend;
//! * the minimum VCs per flavour;
//! * the deterministic output, which is also the adaptive flavour's escape;
//! * the deterministic and escape VC sets and the adaptive VC range, when
//!   it needs more than "whole pool / VC 0 / the rest" (dateline classes);
//! * the adaptive output set;
//! * the local detour after a fault, and whether a fault spends misroute
//!   budget.
//!
//! It then inherits all of the fault handling, [`AnyRouting`] dispatch and
//! the verifier's exact-CDG proofs.
//!
//! **Channel-dependency-graph analysis** ([`cdg`]) builds the extended CDG of
//! the deterministic / escape layer and verifies acyclicity, the
//! deadlock-freedom argument of Section 4 of the paper (and, on meshes, that
//! a single VC class suffices: the dateline VC is only needed where a
//! dimension wraps). The turn-rule CDG does the same for the turn models,
//! and [`cdg::DependencyGraph::find_cycle`] extracts a concrete cycle witness
//! when acyclicity fails.
//!
//! The simulators drive an algorithm through the [`RoutingAlgorithm`]
//! interface: `route` for head-flit routing decisions, `note_hop` for header
//! bookkeeping as flits advance, and `reroute_on_fault` for the software
//! layer's header rewrite at absorption time.

pub mod adaptive;
pub mod cdg;
pub mod decision;
pub mod dispatch;
pub mod ecube;
pub mod header;
pub mod layer;
pub mod swbased;
pub mod turnmodel;
pub mod updown;

pub use cdg::{DependencyGraph, TurnRule};
pub use decision::{OutputCandidate, RouteDecision};
pub use dispatch::AnyRouting;
pub use header::{RouteHeader, RoutingFlavor};
pub use layer::{RoutingAlgorithm, RoutingTopologyError};
pub use swbased::SwBasedRouting;
pub use turnmodel::TurnModelRouting;
pub use updown::UpDownRouting;

/// Convenience prelude re-exporting the most frequently used items.
pub mod prelude {
    pub use crate::cdg::{DependencyGraph, TurnRule};
    pub use crate::decision::{OutputCandidate, RouteDecision};
    pub use crate::dispatch::AnyRouting;
    pub use crate::header::{RouteHeader, RoutingFlavor};
    pub use crate::layer::{RoutingAlgorithm, RoutingTopologyError};
    pub use crate::swbased::SwBasedRouting;
    pub use crate::turnmodel::TurnModelRouting;
    pub use crate::updown::UpDownRouting;
}
