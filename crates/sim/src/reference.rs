//! A straightforward full-scan reference implementation of the simulator.
//!
//! [`ReferenceSimulation`] implements exactly the same cycle semantics as the
//! production engine ([`crate::Simulation`]) with the simplest possible
//! scheduling: every stage scans the full `routers × ports × VCs` grid every
//! cycle, every healthy source is polled every cycle, the stall watchdog
//! checks every stalled head flit against its deadline every cycle, and the
//! message table is an append-only `Vec` that never reclaims entries.
//!
//! It exists as an executable specification: the equivalence test suite runs
//! both engines across seeds, loads and fault scenarios and asserts they
//! produce **bit-identical** [`SimulationReport`]s, and the `bench_cycles`
//! runner in `torus-bench` times both to record the speedup of active-set
//! scheduling. It calls an attached [`Sanitizer`] at the same points as the
//! production engine, so the equivalence suite audits both. Keep this module
//! boring — any cleverness belongs in the production engine.

use crate::config::{SimConfig, SimConfigError, StopCondition};
use crate::flit::{Flit, MessageId};
use crate::message::{MessagePhase, MessageState};
use crate::network::RunOutcome;
use crate::router::{InputVc, OutputVc, ReinjectionEntry, RouteTarget, RouterState, VcRoute};
use crate::sanitizer::Sanitizer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use torus_faults::FaultSet;
use torus_metrics::{MetricsCollector, SimulationReport, WarmupPolicy};
use torus_routing::{RouteDecision, RoutingAlgorithm};
use torus_topology::{AnyTopology, Direction};
use torus_workloads::TrafficSource;

/// Full-scan, append-only-table reference implementation of the simulator.
pub struct ReferenceSimulation<A: RoutingAlgorithm> {
    net: AnyTopology,
    faults: FaultSet,
    algo: A,
    config: SimConfig,
    routers: Vec<RouterState>,
    messages: Vec<MessageState>,
    sources: Vec<TrafficSource>,
    collector: MetricsCollector,
    rng: StdRng,
    cycle: u64,
    in_flight: u64,
    dropped: u64,
    forced_absorptions: u64,
    arrivals: Vec<(usize, usize, usize, Flit)>,
    credit_returns: Vec<(usize, usize, usize)>,
    /// Optional invariant-checking observer, attached at runtime.
    sanitizer: Option<Box<Sanitizer>>,
}

impl<A: RoutingAlgorithm> ReferenceSimulation<A> {
    /// Builds a reference simulation from a configuration, a fault set and a
    /// routing algorithm.
    pub fn new(config: SimConfig, faults: FaultSet, algo: A) -> Result<Self, SimConfigError> {
        let net = config.topology.build().map_err(SimConfigError::Topology)?;
        algo.supported_on(&net)
            .map_err(|error| SimConfigError::UnsupportedRouting {
                topology: config.topology.to_spec_string(),
                routing: algo.name(),
                error,
            })?;
        config.validate(algo.min_virtual_channels(&net))?;
        let n = net.dims();
        let v = config.virtual_channels;
        let routers = net
            .nodes()
            .map(|node| {
                let port_present = (0..2 * n)
                    .map(|port| {
                        let (dim, dir) = RouterState::port_dim_dir(port);
                        net.has_channel(node, dim, dir)
                    })
                    .collect();
                RouterState::new(
                    node,
                    n,
                    v,
                    config.buffer_depth,
                    faults.is_node_faulty(node),
                    port_present,
                )
            })
            .collect();
        // Traffic originates at endpoints only (the same criterion as the
        // production engine — endpoint ids are the dense prefix of the id
        // space, so `sources[idx]` aligns with `routers[idx]`).
        let sources = net
            .endpoints()
            .map(|node| config.traffic.source_for(node))
            .collect();
        let collector = MetricsCollector::new(
            net.num_nodes(),
            WarmupPolicy::Messages(config.warmup_messages),
        );
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(ReferenceSimulation {
            net,
            faults,
            algo,
            config,
            routers,
            messages: Vec::new(),
            sources,
            collector,
            rng,
            cycle: 0,
            in_flight: 0,
            dropped: 0,
            forced_absorptions: 0,
            arrivals: Vec::new(),
            credit_returns: Vec::new(),
            sanitizer: None,
        })
    }

    /// Attaches an invariant sanitizer to this engine. Pass the statically
    /// extracted exact CDG (per-VC granularity, matching this configuration's
    /// topology, routing, VC count and fault set) to additionally enforce
    /// runtime wait-for conformance, or `None` for conservation checks only.
    pub fn attach_sanitizer(&mut self, cdg: Option<torus_routing::cdg::DependencyGraph>) {
        let sanitizer = Sanitizer::for_run(&self.config, self.algo.flavor(), cdg);
        self.sanitizer = Some(Box::new(sanitizer));
    }

    /// The attached sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_deref()
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Messages currently queued or travelling.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Total entries in the append-only message table (equal to the total
    /// number of messages ever generated — nothing is reclaimed).
    pub fn message_table_len(&self) -> usize {
        self.messages.len()
    }

    /// The current metrics report.
    pub fn report(&self) -> SimulationReport {
        self.collector.report(self.cycle, self.in_flight)
    }

    /// Runs the simulation until its stop condition (or `max_cycles`) and
    /// returns the outcome.
    pub fn run(&mut self) -> RunOutcome {
        let mut hit_max_cycles = false;
        loop {
            if self.stop_condition_met() {
                break;
            }
            if self.cycle >= self.config.max_cycles {
                hit_max_cycles = true;
                break;
            }
            self.step();
        }
        RunOutcome {
            report: self.report(),
            hit_max_cycles,
            forced_absorptions: self.forced_absorptions,
            dropped_messages: self.dropped,
            message_table_peak: self.messages.len() as u64,
        }
    }

    fn stop_condition_met(&self) -> bool {
        match self.config.stop {
            StopCondition::MeasuredMessages(n) => self.collector.delivered_measured() >= n,
            StopCondition::Cycles(c) => self.cycle >= c,
        }
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.generate_traffic(now);
        self.assign_injection_vcs(now);
        self.route_and_allocate(now);
        self.switch_and_traverse(now);
        self.apply_arrivals(now);
        self.apply_credit_returns();
        if self.config.stall_absorb_threshold > 0 {
            self.stall_watchdog(now);
        }
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.check_cycle(
                now,
                &self.net,
                &self.faults,
                &self.routers,
                &self.messages,
                self.in_flight,
            );
        }
        self.cycle = now + 1;
    }

    // ---------------------------------------------------------------- stages

    fn generate_traffic(&mut self, now: u64) {
        let ReferenceSimulation {
            net,
            faults,
            algo,
            routers,
            messages,
            sources,
            collector,
            rng,
            in_flight,
            ..
        } = self;
        for (idx, source) in sources.iter_mut().enumerate() {
            if routers[idx].is_faulty {
                continue;
            }
            for gen in source.generate(net, faults, now, rng) {
                let id = MessageId(messages.len() as u64);
                let header = algo.make_header(net, gen.src, gen.dest);
                let measured = collector.on_generated(now);
                messages.push(MessageState::new(id, header, gen.length, now, measured));
                routers[idx].source_queue.push_back(id);
                *in_flight += 1;
            }
        }
    }

    fn assign_injection_vcs(&mut self, now: u64) {
        let ReferenceSimulation {
            routers,
            messages,
            config,
            ..
        } = self;
        for router in routers.iter_mut() {
            if router.is_faulty {
                continue;
            }
            let port = router.injection_port();
            for vc in 0..config.virtual_channels {
                if !router.inputs[port][vc].is_idle() {
                    continue;
                }
                // Re-injected (absorbed) messages have priority over new ones.
                let msg_id = if router
                    .reinjection_queue
                    .front()
                    .is_some_and(|e| e.ready_at <= now)
                {
                    router.reinjection_queue.pop_front().map(|e| e.msg)
                } else {
                    router.source_queue.pop_front()
                };
                let Some(msg_id) = msg_id else {
                    break;
                };
                let msg = &mut messages[msg_id.slot()];
                msg.header.reset_for_injection();
                msg.note_injected(now);
                let ivc = &mut router.inputs[port][vc];
                ivc.buffer.extend(Flit::all_of(msg_id, msg.length));
                ivc.route = None;
                ivc.last_progress = now;
            }
        }
    }

    fn route_and_allocate(&mut self, now: u64) {
        let ReferenceSimulation {
            net,
            faults,
            algo,
            routers,
            messages,
            config,
            rng,
            sanitizer,
            ..
        } = self;
        let v = config.virtual_channels;
        for router in routers.iter_mut() {
            if router.is_faulty {
                continue;
            }
            let node = router.node;
            let num_ports = router.injection_port() + 1;
            for port in 0..num_ports {
                for vc in 0..v {
                    if router.inputs[port][vc].route.is_some() {
                        continue;
                    }
                    let Some(front) = router.inputs[port][vc].buffer.front() else {
                        continue;
                    };
                    if !front.kind.is_head() {
                        continue;
                    }
                    let msg_id = front.msg;
                    let header = &mut messages[msg_id.slot()].header;
                    let decision = algo.route(net, faults, header, node, v);
                    let ready_at = now + config.router_delay as u64;
                    match decision {
                        RouteDecision::Deliver => {
                            router.inputs[port][vc].route = Some(VcRoute {
                                msg: msg_id,
                                target: RouteTarget::Deliver,
                                ready_at,
                            });
                        }
                        RouteDecision::Absorb => {
                            router.inputs[port][vc].route = Some(VcRoute {
                                msg: msg_id,
                                target: RouteTarget::Absorb,
                                ready_at,
                            });
                        }
                        RouteDecision::Forward(mut candidates) => {
                            candidates[..].shuffle(rng);
                            candidates.sort_by_key(|c| c.is_escape);
                            let mut chosen: Option<(usize, usize, bool)> = None;
                            for cand in &candidates {
                                let out_port = RouterState::out_port(cand.dim, cand.dir);
                                debug_assert!(
                                    router.port_present[out_port],
                                    "routing candidate targets an absent mesh-edge port"
                                );
                                let free: Vec<usize> = cand
                                    .vcs
                                    .iter()
                                    .copied()
                                    .filter(|&ovc| {
                                        router.outputs[out_port][ovc].available(config.buffer_depth)
                                    })
                                    .collect();
                                if let Some(&ovc) = free.choose(rng) {
                                    chosen = Some((out_port, ovc, cand.is_escape));
                                    break;
                                }
                            }
                            if let Some((out_port, out_vc, is_escape)) = chosen {
                                router.outputs[out_port][out_vc].owner = Some(msg_id);
                                router.outputs[out_port][out_vc].draining = false;
                                router.inputs[port][vc].route = Some(VcRoute {
                                    msg: msg_id,
                                    target: RouteTarget::Network { out_port, out_vc },
                                    ready_at,
                                });
                                if let Some(s) = sanitizer.as_deref_mut() {
                                    let (dim, dir) = RouterState::port_dim_dir(out_port);
                                    s.on_allocate(
                                        now, net, msg_id, node, dim, dir, out_vc, is_escape,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn switch_and_traverse(&mut self, now: u64) {
        let ReferenceSimulation {
            net,
            faults,
            algo,
            routers,
            messages,
            collector,
            config,
            in_flight,
            dropped,
            arrivals,
            credit_returns,
            sanitizer,
            ..
        } = self;
        let v = config.virtual_channels;
        arrivals.clear();
        credit_returns.clear();

        for router in routers.iter_mut() {
            if router.is_faulty {
                continue;
            }
            let node = router.node;
            let injection_port = router.injection_port();
            let num_inputs = injection_port + 1;

            // ---- local sinks: delivery and absorption (unbounded bandwidth)
            for port in 0..num_inputs {
                for vc in 0..v {
                    let Some(route) = router.inputs[port][vc].route else {
                        continue;
                    };
                    let local = matches!(route.target, RouteTarget::Deliver | RouteTarget::Absorb);
                    if !local || route.ready_at > now {
                        continue;
                    }
                    let Some(flit) = router.inputs[port][vc].buffer.pop_front() else {
                        continue;
                    };
                    router.inputs[port][vc].last_progress = now;
                    if port != injection_port {
                        let (dim, dir) = RouterState::port_dim_dir(port);
                        let upstream = net
                            .neighbor(node, dim, dir.opposite())
                            .expect("flits only arrive over existing channels");
                        credit_returns.push((upstream.index(), port, vc));
                    }
                    let entry = router.local_assembly.entry(flit.msg).or_insert(0);
                    *entry += 1;
                    if !flit.kind.is_tail() {
                        continue;
                    }
                    // Whole message has arrived locally.
                    router.local_assembly.remove(&flit.msg);
                    router.inputs[port][vc].route = None;
                    // Delivery, absorption and drop all release every channel
                    // the worm held, clearing its wait-for state.
                    if let Some(s) = sanitizer.as_deref_mut() {
                        s.on_release(flit.msg);
                    }
                    let msg = &mut messages[flit.msg.slot()];
                    match route.target {
                        RouteTarget::Deliver => {
                            msg.note_delivered(now);
                            collector.on_delivered(
                                msg.generated_at,
                                msg.first_injected_at.unwrap_or(msg.generated_at),
                                now,
                                msg.length,
                                msg.header.hops,
                                msg.measured,
                            );
                            *in_flight -= 1;
                        }
                        RouteTarget::Absorb => {
                            collector.on_absorbed(msg.measured);
                            let blocked = algo
                                .deterministic_output(net, &msg.header, node)
                                .unwrap_or((0, Direction::Plus));
                            let rerouted =
                                algo.reroute_on_fault(net, faults, &mut msg.header, node, blocked);
                            if rerouted {
                                msg.phase = MessagePhase::Queued;
                                router.reinjection_queue.push_back(ReinjectionEntry {
                                    msg: flit.msg,
                                    ready_at: now + config.reinjection_delay as u64,
                                });
                                collector
                                    .on_reinjection_queue_depth(router.reinjection_queue.len());
                            } else {
                                msg.note_dropped();
                                *dropped += 1;
                                *in_flight -= 1;
                            }
                        }
                        RouteTarget::Network { .. } => unreachable!("local sink"),
                    }
                }
            }

            // ---- network output ports: one flit per physical channel per cycle
            let total_slots = num_inputs * v;
            for out_port in 0..router.num_net_ports() {
                let start = router.sa_pointer[out_port];
                let mut winner: Option<usize> = None;
                for offset in 0..total_slots {
                    let flat = (start + offset) % total_slots;
                    let (in_port, in_vc) = (flat / v, flat % v);
                    let Some(route) = router.inputs[in_port][in_vc].route else {
                        continue;
                    };
                    if route.ready_at > now {
                        continue;
                    }
                    let RouteTarget::Network {
                        out_port: op,
                        out_vc,
                    } = route.target
                    else {
                        continue;
                    };
                    if op != out_port || router.inputs[in_port][in_vc].buffer.is_empty() {
                        continue;
                    }
                    if router.outputs[out_port][out_vc].credits == 0 {
                        continue;
                    }
                    winner = Some(flat);
                    break;
                }
                let Some(flat) = winner else {
                    continue;
                };
                let (in_port, in_vc) = (flat / v, flat % v);
                let route = router.inputs[in_port][in_vc]
                    .route
                    .expect("winner has a route");
                let RouteTarget::Network { out_vc, .. } = route.target else {
                    unreachable!()
                };
                let flit = router.inputs[in_port][in_vc]
                    .buffer
                    .pop_front()
                    .expect("winner has a flit");
                router.inputs[in_port][in_vc].last_progress = now;
                router.outputs[out_port][out_vc].credits -= 1;
                if in_port != injection_port {
                    let (dim, dir) = RouterState::port_dim_dir(in_port);
                    let upstream = net
                        .neighbor(node, dim, dir.opposite())
                        .expect("flits only arrive over existing channels");
                    credit_returns.push((upstream.index(), in_port, in_vc));
                }
                let (dim, dir) = RouterState::port_dim_dir(out_port);
                if flit.kind.is_head() {
                    let header = &mut messages[flit.msg.slot()].header;
                    algo.note_hop(net, header, node, dim, dir);
                }
                let dest = net
                    .neighbor(node, dim, dir)
                    .expect("routing only targets existing channels");
                arrivals.push((dest.index(), out_port, out_vc, flit));
                if flit.kind.is_tail() {
                    router.inputs[in_port][in_vc].route = None;
                    router.outputs[out_port][out_vc].draining = true;
                }
                router.sa_pointer[out_port] = (flat + 1) % total_slots;
            }
        }
    }

    fn apply_arrivals(&mut self, now: u64) {
        let ReferenceSimulation {
            routers,
            arrivals,
            config,
            ..
        } = self;
        for (node_idx, in_port, vc, flit) in arrivals.drain(..) {
            let ivc = &mut routers[node_idx].inputs[in_port][vc];
            debug_assert!(
                ivc.buffer.len() < config.buffer_depth,
                "flit arrived at a full buffer (credit accounting violated)"
            );
            if ivc.buffer.is_empty() {
                ivc.last_progress = now;
            }
            ivc.buffer.push_back(flit);
        }
    }

    fn apply_credit_returns(&mut self) {
        let ReferenceSimulation {
            routers,
            credit_returns,
            config,
            ..
        } = self;
        for (node_idx, out_port, vc) in credit_returns.drain(..) {
            let ovc: &mut OutputVc = &mut routers[node_idx].outputs[out_port][vc];
            ovc.credits += 1;
            debug_assert!(
                ovc.credits <= config.buffer_depth,
                "credit counter exceeded the buffer depth"
            );
        }
    }

    /// The straightforward watchdog: every cycle, absorb any stalled head
    /// flit whose deadline (`last_progress + threshold`) has expired. The
    /// production engine reproduces exactly this schedule with deadline-driven
    /// scans.
    fn stall_watchdog(&mut self, now: u64) {
        let threshold = self.config.stall_absorb_threshold;
        let v = self.config.virtual_channels;
        let ReferenceSimulation {
            routers,
            forced_absorptions,
            ..
        } = self;
        for router in routers.iter_mut() {
            if router.is_faulty {
                continue;
            }
            let num_inputs = router.injection_port() + 1;
            for port in 0..num_inputs {
                for vc in 0..v {
                    let ivc: &mut InputVc = &mut router.inputs[port][vc];
                    if ivc.route.is_some() || ivc.buffer.is_empty() {
                        continue;
                    }
                    let Some(front) = ivc.buffer.front() else {
                        continue;
                    };
                    if !front.kind.is_head() {
                        continue;
                    }
                    if ivc.last_progress + threshold > now {
                        continue;
                    }
                    ivc.route = Some(VcRoute {
                        msg: front.msg,
                        target: RouteTarget::Absorb,
                        ready_at: now,
                    });
                    *forced_absorptions += 1;
                }
            }
        }
    }
}
