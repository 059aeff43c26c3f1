//! # torus-sim
//!
//! A flit-level simulator of wormhole-switched multidimensional networks
//! (tori, meshes, hypercubes and mixed-radix shapes, selected by
//! [`torus_topology::TopologySpec`]) with virtual channels, faithful to the
//! simulation model of Safaei et al. (IPDPS 2006), Section 5:
//!
//! * each node couples a processing element (PE) to a router with up to `2n`
//!   network input/output channel pairs plus injection and ejection channels
//!   (edge nodes of open/mesh dimensions lack the outward ports);
//! * every physical channel carries `V` virtual channels, each with its own
//!   flit buffer, sharing the physical link bandwidth (one flit per physical
//!   channel per cycle);
//! * messages are split into flits; the header flit carries the routing state
//!   and data flits follow it in a pipelined fashion (wormhole switching);
//! * routing decisions, virtual-channel selection and deadlock avoidance are
//!   delegated to a [`torus_routing::RoutingAlgorithm`] — in this repository
//!   the Software-Based fault-tolerant algorithm (deterministic and adaptive
//!   flavours) and the negative-first turn model for open topologies; an
//!   algorithm that cannot operate on the configured topology is rejected at
//!   construction time with a typed error
//!   ([`SimConfigError::UnsupportedRouting`]), and the blocked output
//!   reported to the software layer at absorption time comes from the
//!   algorithm's own deterministic layer
//!   ([`torus_routing::RoutingAlgorithm::deterministic_output`]);
//! * when the routing algorithm decides to **absorb** a message (its useful
//!   outputs lead to faulty components), the whole worm is drained into the
//!   local node, handed to the message-passing software, re-routed and
//!   re-injected with priority over locally generated messages — the
//!   Software-Based fault-tolerance mechanism;
//! * per-node traffic sources (Poisson arrivals, uniform destinations, fixed
//!   message length) come from `torus-workloads`, statistics from
//!   `torus-metrics`.
//!
//! The main entry point is [`Simulation`]: build it from a [`SimConfig`],
//! call [`Simulation::run`] and read the resulting
//! [`torus_metrics::SimulationReport`].
//!
//! [`Simulation`] schedules its pipeline stages over active-set worklists and
//! reclaims retired message-table entries (see [`network`]); the full-scan
//! [`reference::ReferenceSimulation`] implements identical semantics in the
//! simplest possible way and is used by the equivalence tests and benchmarks
//! as the executable specification.
//!
//! Both engines accept an invariant-checking observer
//! ([`sanitizer::Sanitizer`]), attached at runtime with `attach_sanitizer`,
//! that audits conservation invariants every cycle and checks the runtime
//! wait-for graph against a statically extracted exact channel-dependency
//! graph. An engine with nothing attached skips the hooks; attaching one
//! never changes a run's results.

pub mod active;
pub mod config;
pub mod flit;
pub mod message;
pub mod network;
pub mod reference;
pub mod router;
pub mod sanitizer;

pub use config::{SimConfig, SimConfigError, StopCondition};
pub use flit::{Flit, FlitKind, MessageId};
pub use message::{MessageSlab, MessageState};
pub use network::{RunOutcome, Simulation};
pub use reference::ReferenceSimulation;
pub use sanitizer::{InvariantViolation, Sanitizer};

/// Convenience prelude re-exporting the most frequently used items.
pub mod prelude {
    pub use crate::config::{SimConfig, StopCondition};
    pub use crate::flit::{Flit, FlitKind, MessageId};
    pub use crate::network::{RunOutcome, Simulation};
}
