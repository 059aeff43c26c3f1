//! The engine workloads `sim_faultfree` and `sim_faulted`.
//!
//! A run simulates [`SUB_RUNS`] traffic streams drawn from the workload
//! seed, each for a fixed number of cycles on the active engine, single
//! thread. Host time is the median over the timed units; the simulated
//! metrics pool the first pass over the streams and repeat exactly for a
//! fixed seed. A run has at least one unit past the first pass, and every
//! such unit re-simulates a stream that must reproduce its report.

use crate::routing::{RouteStats, Timed};
use crate::stats::{mean, median, quantile, ratio};
use crate::{measure_setup, record_peak_rss, timed_units, Args, Outcome, DEFAULT_SEED};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;
use torus_faults::{random_node_faults, FaultSet};
use torus_metrics::SimulationReport;
use torus_routing::{RoutingAlgorithm, SwBasedRouting};
use torus_sim::{ReferenceSimulation, SimConfig, Simulation, StopCondition};
use torus_topology::TopologySpec;

/// One engine workload.
pub struct SimWorkload {
    spec: &'static str,
    adaptive: bool,
    virtual_channels: usize,
    message_length: u32,
    rate: f64,
    faults: usize,
    /// Simulated cycles per unit.
    cycles: u64,
    /// Cycles of the active-vs-reference equality check.
    prefix_cycles: u64,
}

/// The switch/VC stage under load: half the top of the Fig. 4 adaptive V=4
/// grid, no faults, so routing is a small share of step time and nothing is
/// absorbed.
pub const FAULT_FREE: SimWorkload = SimWorkload {
    spec: "torus:8x3",
    adaptive: true,
    virtual_channels: 4,
    message_length: 32,
    rate: 0.008,
    faults: 0,
    cycles: 1_500,
    prefix_cycles: 300,
};

/// The software layer: absorption, `reroute_on_fault`, re-injection and
/// the rule-2 ping-pong, on the `2d_mesh_faulted_low_load` placement.
pub const FAULTED: SimWorkload = SimWorkload {
    spec: "mesh:16x2",
    adaptive: false,
    virtual_channels: 4,
    message_length: 16,
    rate: 0.003,
    faults: 5,
    cycles: 20_000,
    prefix_cycles: 3_000,
};

/// Traffic streams per run. Percentile latencies of one stream spread
/// widely from seed to seed under faults; the mean over six is steadier.
const SUB_RUNS: usize = 6;

/// Traffic streams of a traced run: the first three of [`SUB_RUNS`], so
/// that a traced run, which simulates each stream twice, takes about as
/// long as an untraced one.
const TRACED_STREAMS: usize = 3;

/// Fault-placement seed of the `bench_cycles` suite. The placement is the
/// same for every workload seed (on `mesh:16x2` it fails nodes 55, 129,
/// 134, 137 and 222): the seed draws only traffic, because the recovery
/// cost differs several-fold between random placements.
const FAULT_SEED: u64 = 17;

/// The placement [`FAULT_SEED`] must produce on `mesh:16x2`.
const FAULTED_NODES: [u32; 5] = [55, 129, 134, 137, 222];

impl SimWorkload {
    fn topology(&self) -> TopologySpec {
        TopologySpec::parse(self.spec).expect("workload topology specs are valid")
    }

    fn algorithm(&self) -> SwBasedRouting {
        if self.adaptive {
            SwBasedRouting::adaptive()
        } else {
            SwBasedRouting::deterministic()
        }
    }

    /// The configuration of traffic stream `stream` for workload seed
    /// `seed`, run for `cycles` cycles. Stream 0 of the default seed keeps
    /// the engine's reference seed.
    fn config(&self, seed: u64, stream: usize, cycles: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_topology(
            self.topology(),
            self.virtual_channels,
            self.message_length,
            self.rate,
        );
        let offset =
            (seed ^ DEFAULT_SEED).wrapping_add((stream as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        cfg.seed ^= offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cfg.stop = StopCondition::Cycles(cycles);
        cfg.max_cycles = cycles;
        cfg
    }

    fn place_faults(&self, spec: &TopologySpec) -> FaultSet {
        let net = spec.build().expect("workload topologies build");
        random_node_faults(&net, self.faults, &mut StdRng::seed_from_u64(FAULT_SEED))
            .expect("the workload placement is realisable")
    }

    fn engine<A: RoutingAlgorithm>(
        &self,
        cfg: SimConfig,
        faults: FaultSet,
        algo: A,
    ) -> Simulation<A> {
        Simulation::new(cfg, faults, algo).expect("workload configurations are valid")
    }
}

fn conserved(sim_report: &SimulationReport, dropped: u64) -> bool {
    sim_report.generated_messages
        == sim_report.delivered_messages + sim_report.in_flight_messages + dropped
}

/// Runs one engine workload.
pub fn run(w: &SimWorkload, args: &Args) -> Outcome {
    let mut out = Outcome {
        jobs: 1,
        ..Outcome::default()
    };

    let spec = w.topology();
    // Set-up: topology build, fault placement, `Simulation::new`.
    let (mut build, mut place, mut new) = (Vec::new(), Vec::new(), Vec::new());
    measure_setup(&mut out, || {
        let t = Instant::now();
        drop(spec.build().expect("workload topologies build"));
        build.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let faults = w.place_faults(&spec);
        place.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        drop(w.engine(w.config(args.seed, 0, w.cycles), faults, w.algorithm()));
        new.push(t.elapsed().as_secs_f64());
    });
    out.metric("topology.build_ms", median(&build) * 1e3);
    out.metric("faults.place_ms", median(&place) * 1e3);
    out.metric("sim.new_ms", median(&new) * 1e3);

    let faults = w.place_faults(&spec);
    if w.faults > 0 {
        let placed: Vec<u32> = faults.faulty_nodes_sorted().iter().map(|n| n.0).collect();
        out.check(
            "fault placement is the bench_cycles placement",
            placed == FAULTED_NODES,
            format!("{placed:?}"),
        );
    }

    // Untimed: on a prefix of stream 0 the active engine matches the
    // full-scan reference engine and repeats itself exactly.
    let prefix = w.config(args.seed, 0, w.prefix_cycles);
    let active = w
        .engine(prefix.clone(), faults.clone(), w.algorithm())
        .run();
    let again = w
        .engine(prefix.clone(), faults.clone(), w.algorithm())
        .run();
    let reference = ReferenceSimulation::new(prefix, faults.clone(), w.algorithm())
        .expect("workload configurations are valid")
        .run();
    out.check(
        "active engine equals reference engine on the prefix",
        active.report == reference.report
            && active.dropped_messages == reference.dropped_messages
            && active.forced_absorptions == reference.forced_absorptions,
        format!(
            "{} cycles, {} messages",
            w.prefix_cycles, active.report.generated_messages
        ),
    );
    out.check(
        "a fixed seed repeats the simulated metrics exactly",
        active.report == again.report,
        format!("{} cycles", w.prefix_cycles),
    );

    if args.trace {
        trace(w, args, &faults, &mut out);
    } else {
        timed(w, args, &faults, &mut out);
    }

    out
}

/// The untraced run: timed units, stream `i % SUB_RUNS`; at least one
/// stream runs twice.
fn timed(w: &SimWorkload, args: &Args, faults: &FaultSet, out: &mut Outcome) {
    let mut reports: Vec<SimulationReport> = Vec::new();
    let mut dropped = 0;
    let mut repeat_ok = true;
    let mut conservation_ok = true;
    let walls = timed_units(args.seconds, SUB_RUNS + 1, |i| {
        let mut sim = w.engine(
            w.config(args.seed, i % SUB_RUNS, w.cycles),
            faults.clone(),
            w.algorithm(),
        );
        let outcome = sim.run();
        conservation_ok &= conserved(&outcome.report, outcome.dropped_messages);
        if i < SUB_RUNS {
            dropped += outcome.dropped_messages;
            reports.push(outcome.report);
        } else {
            repeat_ok &= outcome.report == reports[i % SUB_RUNS];
        }
    });
    record_peak_rss(out);
    out.check(
        "generated = delivered + in flight + dropped",
        conservation_ok,
        format!("{} units", walls.len()),
    );
    out.check(
        "re-simulated streams reproduce their reports",
        repeat_ok && walls.len() > SUB_RUNS,
        format!("{} repeated units", walls.len() - SUB_RUNS),
    );

    let generated: u64 = reports.iter().map(|r| r.generated_messages).sum();
    let delivered: u64 = reports.iter().map(|r| r.delivered_messages).sum();
    let queued: u64 = reports.iter().map(|r| r.messages_queued).sum();
    let p50: Vec<f64> = reports.iter().map(|r| r.p50_latency).collect();
    let p99: Vec<f64> = reports.iter().map(|r| r.p99_latency).collect();
    out.attempted = generated;
    out.failed = dropped;
    out.metric("wall_s", median(&walls));
    out.metric("latency_p50_cycles", mean(&p50));
    out.metric("latency_p99_cycles", mean(&p99));
    out.metric(
        "delivered_fraction",
        ratio(delivered as f64, generated as f64),
    );
    out.metric(
        "injections_per_msg",
        ratio((generated + queued) as f64, generated as f64),
    );
    println!(
        "{}: {} streams x {} cycles, {:.0} cycles/s (median of {walls:.3?} s), \
         {generated} messages, {queued} absorptions",
        args.workload,
        SUB_RUNS,
        w.cycles,
        w.cycles as f64 / median(&walls),
    );
}

/// The traced run: each of the first [`TRACED_STREAMS`] streams once
/// untraced and once stepped by hand with the routing wrapped in [`Timed`].
fn trace(w: &SimWorkload, args: &Args, faults: &FaultSet, out: &mut Outcome) {
    let stats = Rc::new(RouteStats::default());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut routing_calls = 0;
    let mut step_us = Vec::new();
    let (mut step_ns, mut routing_ns) = (0u64, 0u64);
    let mut in_flight = Vec::new();
    let (mut table_peak, mut queue_peak, mut forced, mut dropped, mut generated) = (0, 0, 0, 0, 0);
    let mut same = true;
    for stream in 0..TRACED_STREAMS {
        let cfg = w.config(args.seed, stream, w.cycles);
        let mut plain = w.engine(cfg.clone(), faults.clone(), w.algorithm());
        let start = Instant::now();
        let expected = plain.run();
        untraced_s += start.elapsed().as_secs_f64();

        let mut sim = w.engine(
            cfg,
            faults.clone(),
            Timed::new(w.algorithm(), Rc::clone(&stats)),
        );
        let start = Instant::now();
        for _ in 0..w.cycles {
            let (calls, before) = (stats.total_calls(), stats.total_ns());
            let t = Instant::now();
            sim.step();
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            step_ns += ns;
            routing_ns += stats.total_ns() - before;
            routing_calls += stats.total_calls() - calls;
            step_us.push(ns as f64 / 1e3);
            in_flight.push(sim.in_flight() as f64);
        }
        traced_s += start.elapsed().as_secs_f64();
        let report = sim.report();
        same &= report == expected.report
            && sim.dropped_messages() == expected.dropped_messages
            && sim.forced_absorptions() == expected.forced_absorptions;
        table_peak = table_peak.max(sim.message_table_peak());
        queue_peak = queue_peak.max(report.reinjection_queue_peak);
        forced += sim.forced_absorptions();
        dropped += sim.dropped_messages();
        generated += report.generated_messages;
    }
    out.check(
        "wrapped and unwrapped routing give identical reports",
        same,
        format!("{TRACED_STREAMS} streams"),
    );
    out.attempted = generated;
    out.failed = dropped;
    out.span(
        "timed_run",
        "workload",
        TRACED_STREAMS as u64,
        traced_s * 1e3,
        1,
    );
    out.span(
        "step",
        "timed_run",
        step_us.len() as u64,
        step_ns as f64 / 1e6,
        1,
    );
    out.span("routing", "step", routing_calls, routing_ns as f64 / 1e6, 1);
    out.metric("trace.overhead_ratio", ratio(traced_s, untraced_s));
    out.metric("workloads.generated", generated as f64);
    out.metric("sim.steps", step_us.len() as f64);
    out.metric("sim.step_us_p50", quantile(&step_us, 0.5));
    out.metric("sim.step_us_p99", quantile(&step_us, 0.99));
    out.metric(
        "sim.self_ms",
        step_ns.saturating_sub(routing_ns) as f64 / 1e6,
    );
    out.metric(
        "sim.routing_share",
        ratio(routing_ns as f64, step_ns as f64),
    );
    out.metric("sim.in_flight_mean", mean(&in_flight));
    out.metric(
        "sim.in_flight_max",
        in_flight.iter().copied().fold(0.0, f64::max),
    );
    out.metric("sim.message_table_peak", table_peak as f64);
    out.metric("sim.reinjection_queue_peak", queue_peak as f64);
    out.metric("sim.forced_absorptions", forced as f64);
    out.metric("sim.dropped", dropped as f64);
    for (name, value) in stats.metrics() {
        out.metric(name, value);
    }
}
