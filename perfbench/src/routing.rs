//! A delegating [`RoutingAlgorithm`] that counts and times every trait call
//! of the algorithm it wraps, for the traced run. Decisions pass through
//! unchanged, so a wrapped engine or verifier must produce exactly the
//! results of an unwrapped one (the traced run checks that it does).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;
use torus_faults::FaultSet;
use torus_routing::{
    RouteDecision, RouteHeader, RoutingAlgorithm, RoutingFlavor, RoutingTopologyError,
};
use torus_topology::{AnyTopology, Direction, NodeId};

/// The trait methods, as indices into [`RouteStats`] counters.
#[derive(Clone, Copy)]
enum Call {
    Flavor,
    MinVcs,
    SupportedOn,
    DeterministicOutput,
    MakeHeader,
    Route,
    NoteHop,
    Reroute,
    Name,
}

const CALLS: usize = 9;

/// Counters shared between a [`Timed`] wrapper and the benchmark that reads
/// them (the engine owns its algorithm, so the counters live behind an `Rc`).
#[derive(Default)]
pub struct RouteStats {
    calls: [Cell<u64>; CALLS],
    ns: [Cell<u64>; CALLS],
    forward: Cell<u64>,
    candidates: Cell<u64>,
    deliver: Cell<u64>,
    absorb: Cell<u64>,
    reroute_failed: Cell<u64>,
}

impl RouteStats {
    fn calls(&self, call: Call) -> u64 {
        self.calls[call as usize].get()
    }

    fn ns(&self, call: Call) -> u64 {
        self.ns[call as usize].get()
    }

    /// Calls into the wrapped algorithm, all methods.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().map(Cell::get).sum()
    }

    /// Nanoseconds spent inside the wrapped algorithm, all methods.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(Cell::get).sum()
    }

    /// The `routing.*` per-layer metrics, as (name, value).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mean_ns = |call| crate::stats::ratio(self.ns(call) as f64, self.calls(call) as f64);
        vec![
            ("routing.route.calls", self.calls(Call::Route) as f64),
            ("routing.route.ns_mean", mean_ns(Call::Route)),
            ("routing.route.forward", self.forward.get() as f64),
            ("routing.route.deliver", self.deliver.get() as f64),
            ("routing.route.absorb", self.absorb.get() as f64),
            (
                "routing.route.candidates_mean",
                crate::stats::ratio(self.candidates.get() as f64, self.forward.get() as f64),
            ),
            (
                "routing.route_per_hop",
                crate::stats::ratio(
                    self.calls(Call::Route) as f64,
                    self.calls(Call::NoteHop) as f64,
                ),
            ),
            ("routing.note_hop.calls", self.calls(Call::NoteHop) as f64),
            (
                "routing.make_header.calls",
                self.calls(Call::MakeHeader) as f64,
            ),
            ("routing.reroute.calls", self.calls(Call::Reroute) as f64),
            ("routing.reroute.ns_mean", mean_ns(Call::Reroute)),
            ("routing.reroute.failed", self.reroute_failed.get() as f64),
        ]
    }
}

/// Wraps a routing algorithm, counting and timing each trait call into a
/// shared [`RouteStats`].
pub struct Timed<A> {
    inner: A,
    stats: Rc<RouteStats>,
}

impl<A> Timed<A> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: A, stats: Rc<RouteStats>) -> Self {
        Timed { inner, stats }
    }

    fn time<R>(&self, call: Call, f: impl FnOnce(&A) -> R) -> R {
        let start = Instant::now();
        let out = f(&self.inner);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let i = call as usize;
        self.stats.calls[i].set(self.stats.calls[i].get() + 1);
        self.stats.ns[i].set(self.stats.ns[i].get() + ns);
        out
    }
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl<A: RoutingAlgorithm> RoutingAlgorithm for Timed<A> {
    fn flavor(&self) -> RoutingFlavor {
        self.time(Call::Flavor, A::flavor)
    }

    fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
        self.time(Call::MinVcs, |a| a.min_virtual_channels(net))
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        self.time(Call::SupportedOn, |a| a.supported_on(net))
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        self.time(Call::DeterministicOutput, |a| {
            a.deterministic_output(net, header, current)
        })
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        self.time(Call::MakeHeader, |a| a.make_header(net, src, dest))
    }

    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        let decision = self.time(Call::Route, |a| a.route(net, faults, header, current, v));
        match &decision {
            RouteDecision::Forward(candidates) => {
                bump(&self.stats.forward, 1);
                bump(&self.stats.candidates, candidates.len() as u64);
            }
            RouteDecision::Deliver => bump(&self.stats.deliver, 1),
            RouteDecision::Absorb => bump(&self.stats.absorb, 1),
        }
        decision
    }

    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        self.time(Call::NoteHop, |a| a.note_hop(net, header, from, dim, dir));
    }

    fn reroute_on_fault(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool {
        let ok = self.time(Call::Reroute, |a| {
            a.reroute_on_fault(net, faults, header, at, blocked)
        });
        if !ok {
            bump(&self.stats.reroute_failed, 1);
        }
        ok
    }

    fn name(&self) -> String {
        self.time(Call::Name, A::name)
    }
}
