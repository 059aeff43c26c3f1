//! The `verify_matrix` workload: `swbft-verify` at one job over a fixed
//! topology slice (a torus, a hypercube, a mesh and a fat-tree), every
//! routing of `matrix_routings()` at its minimum and minimum + 1 virtual
//! channels. Fault cases: the full matrix's own for these topologies, a
//! seeded connectivity-preserving node set and link set, and one seeded
//! fault schedule beside the matrix's `sched@mix`. A unit is one pass
//! over every case through `verify_case` or `verify_schedule`; `wall_s` is
//! the sum over cases of each case's median time over the passes.
//!
//! Its modelled-network metrics are the verifier's static counterparts of
//! the engine's, over every walked (case, pair) of the static cases:
//! latency is the worst-case header path of the routing relation in cycles
//! at zero load (one cycle per hop, as with `router_delay = 0`), absorptions
//! are the worst-case software absorptions on that path, and the delivered
//! fraction is pairs proved to deliver over pairs checked.

use crate::routing::{RouteStats, Timed};
use crate::stats::{mean, median, quantile, ratio};
use crate::{measure_setup, record_peak_rss, timed_units, Args, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use swbft_verify::epochs::verify_schedule;
use swbft_verify::exact::{accumulate_cdg, resource_count, Granularity};
use swbft_verify::matrix::{
    matrix_fault_cases, matrix_routings, matrix_schedule_cases, verify_case, MatrixKind, Verdict,
    STATE_BUDGET,
};
use swbft_verify::reach::{record_pair, ReachReport};
use swbft_verify::relation::{walk_pair, RelationWalk, Step, Terminal};
use torus_faults::{random_node_faults, FaultEvent, FaultSchedule, FaultSet};
use torus_routing::cdg::DependencyGraph;
use torus_routing::{AnyRouting, RoutingAlgorithm};
use torus_topology::{AnyTopology, Direction, NodeId, TopologySpec};

/// The topology slice: together they admit every routing of
/// `matrix_routings()`, and each is a shape of the full matrix.
const SLICE: [&str; 4] = ["torus:4x2", "hypercube:4", "mesh:4x2", "ft:4,2"];

/// Passes per untraced run, at least. On a shared host the time of one
/// pass of identical work varies by up to a third from pass to pass, so
/// `wall_s` sums each case's median time over the passes: a slow spell
/// during one pass does not move it.
const MIN_PASSES: usize = 3;

/// Fault cases or schedules with their labels.
type Labelled<T> = Vec<(String, T)>;

/// The committed full-matrix verdicts, read from the checkout root.
const VERIFY_JSON: &str = "VERIFY.json";

enum Kind {
    Rejected,
    Static(FaultSet),
    Schedule(FaultSchedule),
}

struct Case {
    net: usize,
    topology: String,
    routing: String,
    algo: AnyRouting,
    v: usize,
    label: String,
    kind: Kind,
}

/// What a case produced, compared across passes, wrappers and the replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CaseResult {
    verdict: Verdict,
    edges: usize,
    states: usize,
    pairs: usize,
    rewalked: usize,
    reused: usize,
}

impl CaseResult {
    fn failed() -> Self {
        CaseResult {
            verdict: Verdict::Failed,
            edges: 0,
            states: 0,
            pairs: 0,
            rewalked: 0,
            reused: 0,
        }
    }
}

struct Slice {
    nets: Vec<AnyTopology>,
    cases: Vec<Case>,
}

fn grid_or_label(net: &AnyTopology, node: NodeId) -> String {
    if net.fat_tree().is_some() {
        net.node_label(node)
    } else {
        node.0.to_string()
    }
}

fn sign(dir: Direction) -> char {
    match dir {
        Direction::Plus => '+',
        Direction::Minus => '-',
    }
}

/// `count` distinct random links whose failure keeps the network connected.
fn random_links(net: &AnyTopology, count: usize, rng: &mut StdRng) -> Option<(String, FaultSet)> {
    let n = net.num_nodes() as u32;
    for _ in 0..200 {
        let mut faults = FaultSet::new();
        let mut keys = Vec::new();
        let mut parts = Vec::new();
        while parts.len() < count {
            let from = NodeId(rng.gen_range(0..n));
            let links = net.neighbors(from);
            let (ch, to) = links[rng.gen_range(0..links.len())];
            let key = (from.0.min(to.0), from.0.max(to.0), ch.dim);
            if keys.contains(&key) {
                continue;
            }
            keys.push(key);
            faults.fail_link(net, from, ch.dim, ch.dir);
            parts.push(format!(
                "{}:d{}{}",
                grid_or_label(net, from),
                ch.dim,
                sign(ch.dir)
            ));
        }
        if faults.preserves_connectivity(net) {
            return Some((format!("links@{}", parts.join("+")), faults));
        }
    }
    None
}

/// The fault cases of one topology: the full matrix's own (fault-free,
/// node, link and region sets, labelled as in `VERIFY.json`) plus a seeded
/// two-node set and a seeded two-link set; and the matrix's `sched@mix`
/// plus a seeded schedule (a node fault, then a link fault that avoids it).
fn fault_cases(
    net: &AnyTopology,
    rng: &mut StdRng,
) -> (Labelled<FaultSet>, Labelled<FaultSchedule>) {
    let mut cases = matrix_fault_cases(net, MatrixKind::Full);
    let faults = random_node_faults(net, 2, rng).expect("slice topologies admit two node faults");
    let labels: Vec<String> = faults
        .faulty_nodes_sorted()
        .iter()
        .map(|&n| grid_or_label(net, n))
        .collect();
    let seeded = [
        (format!("nodes@{}", labels.join("+")), faults),
        random_links(net, 2, rng).expect("slice topologies admit two link faults"),
    ];
    for (label, faults) in seeded {
        if !cases.iter().any(|(l, _)| *l == label) {
            cases.push((label, faults));
        }
    }
    let mut schedules = matrix_schedule_cases(net, MatrixKind::Smoke);
    let node = random_node_faults(net, 1, rng)
        .expect("slice topologies admit a node fault")
        .faulty_nodes_sorted()[0];
    let schedule = loop {
        let (_, faults) = random_links(net, 1, rng).expect("slice topologies admit a link fault");
        let link = net
            .nodes()
            .flat_map(|from| {
                net.neighbors(from)
                    .into_iter()
                    .map(move |(ch, to)| (from, ch, to))
            })
            .find(|(from, ch, to)| {
                *from != node && *to != node && faults.is_channel_faulty(net, *ch)
            });
        if let Some((from, ch, _)) = link {
            let events = vec![
                (100, FaultEvent::Node { node: node.0 }),
                (
                    200,
                    FaultEvent::Link {
                        node: from.0,
                        dim: ch.dim,
                        dir: ch.dir,
                    },
                ),
            ];
            break FaultSchedule::from_events(events).expect("seeded schedules are valid");
        }
    };
    schedules.push((format!("sched@{}", schedule.spec_string()), schedule));
    (cases, schedules)
}

/// Builds the slice's networks and enumerates its cases; returns the slice
/// with the seconds spent building topologies and placing faults.
fn enumerate(seed: u64) -> (Slice, f64, f64) {
    let (mut build_s, mut place_s) = (0.0, 0.0);
    let mut nets = Vec::new();
    let mut cases = Vec::new();
    for (i, spec) in SLICE.iter().enumerate() {
        let t = Instant::now();
        let net = TopologySpec::parse(spec)
            .and_then(|s| s.build().map_err(|e| e.to_string()))
            .expect("slice topologies build");
        build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1));
        let (fault_cases, schedules) = fault_cases(&net, &mut rng);
        place_s += t.elapsed().as_secs_f64();
        for (routing, algo) in matrix_routings() {
            let case = |v, label: &str, kind| Case {
                net: i,
                topology: spec.to_string(),
                routing: routing.clone(),
                algo,
                v,
                label: label.to_string(),
                kind,
            };
            if algo.supported_on(&net).is_err() {
                cases.push(case(0, "-", Kind::Rejected));
                continue;
            }
            let min_v = algo.min_virtual_channels(&net);
            for v in [min_v, min_v + 1] {
                for (label, faults) in &fault_cases {
                    cases.push(case(v, label, Kind::Static(faults.clone())));
                }
                for (label, schedule) in &schedules {
                    cases.push(case(v, label, Kind::Schedule(schedule.clone())));
                }
            }
        }
        nets.push(net);
    }
    (Slice { nets, cases }, build_s, place_s)
}

/// Runs one case through `verify_case` / `verify_schedule` with `algo`
/// (the case's own algorithm, possibly wrapped).
fn run_case<A: RoutingAlgorithm>(net: &AnyTopology, case: &Case, algo: &A) -> CaseResult {
    match &case.kind {
        Kind::Rejected => CaseResult {
            verdict: Verdict::Rejected,
            ..CaseResult::failed()
        },
        Kind::Static(faults) => match verify_case(net, algo, faults, case.v) {
            Ok((cdg, reach)) => CaseResult {
                verdict: if cdg.graph.find_cycle().is_none() && reach.first_failure.is_none() {
                    Verdict::Proved
                } else {
                    Verdict::Failed
                },
                edges: cdg.graph.num_edges(),
                states: cdg.states_explored,
                pairs: cdg.pairs,
                rewalked: 0,
                reused: 0,
            },
            Err(_) => CaseResult::failed(),
        },
        Kind::Schedule(schedule) => {
            match verify_schedule(net, algo, schedule, case.v, STATE_BUDGET, true) {
                Ok(outcome) => {
                    let last = outcome.epochs.last().expect("schedules have epoch 0");
                    let (rewalked, reused) = outcome.rewalk_totals();
                    CaseResult {
                        verdict: if outcome.failed() {
                            Verdict::Failed
                        } else {
                            Verdict::Proved
                        },
                        edges: last.cdg_edges,
                        states: outcome.total_states(),
                        pairs: last.pairs,
                        rewalked,
                        reused,
                    }
                }
                Err(_) => CaseResult::failed(),
            }
        }
    }
}

fn pass(slice: &Slice) -> Vec<CaseResult> {
    slice
        .cases
        .iter()
        .map(|case| run_case(&slice.nets[case.net], case, &case.algo))
        .collect()
}

/// Phase totals of the replica, in seconds.
#[derive(Default)]
struct Phases {
    walk: f64,
    cdg: f64,
    reach: f64,
}

/// Worst-case (hops, absorptions) over the paths of `walk` that deliver;
/// `None` when some path dead-ends or loops.
fn worst_path(walk: &RelationWalk) -> Option<(u32, u32)> {
    let step = |s: &Step| match s {
        Step::Hop { next, .. } => (*next, 1, 0),
        Step::Reinject { next } => (*next, 0, 1),
    };
    let mut best: Vec<Option<(u32, u32)>> = vec![None; walk.len()];
    // 0 = unvisited, 1 = on the DFS stack, 2 = done.
    let mut mark = vec![0u8; walk.len()];
    let mut stack = vec![(walk.start(), 0usize)];
    mark[walk.start()] = 1;
    while let Some(&(s, i)) = stack.last() {
        let state = walk.state(s);
        if let Some(next_step) = state.steps.get(i) {
            stack.last_mut().expect("non-empty").1 += 1;
            let (next, _, _) = step(next_step);
            match mark[next] {
                0 => {
                    mark[next] = 1;
                    stack.push((next, 0));
                }
                1 => return None,
                _ => {}
            }
            continue;
        }
        let mut worst = match state.terminal {
            Some(Terminal::Delivered) => Some((0, 0)),
            Some(Terminal::Dead) => return None,
            None if state.steps.is_empty() => return None,
            None => None,
        };
        for s in &state.steps {
            let (next, hops, absorbs) = step(s);
            let (h, a) = best[next]?;
            let (wh, wa) = worst.unwrap_or((0, 0));
            worst = Some((wh.max(h + hops), wa.max(a + absorbs)));
        }
        best[s] = worst;
        mark[s] = 2;
        stack.pop();
    }
    best[walk.start()]
}

/// Path-quality totals over walked pairs.
#[derive(Default)]
struct Paths {
    hops: Vec<f64>,
    absorptions: Vec<f64>,
    states: usize,
    pairs: usize,
    delivered: usize,
}

/// `verify_case` spelled out phase by phase (`walk_pair` → `accumulate_cdg`
/// → `record_pair`), timing each phase and recording path quality.
fn replica(
    net: &AnyTopology,
    algo: &AnyRouting,
    faults: &FaultSet,
    v: usize,
    phases: &mut Phases,
    paths: &mut Paths,
) -> CaseResult {
    let granularity = Granularity::PerVc;
    let mut graph = DependencyGraph::new(resource_count(net, v, granularity));
    let mut reach = ReachReport::default();
    let mut states = 0;
    for src in net.endpoints().filter(|&n| !faults.is_node_faulty(n)) {
        for dest in net
            .endpoints()
            .filter(|&n| n != src && !faults.is_node_faulty(n))
        {
            let t = Instant::now();
            let Ok(walk) = walk_pair(net, algo, faults, v, src, dest, STATE_BUDGET) else {
                return CaseResult::failed();
            };
            phases.walk += t.elapsed().as_secs_f64();
            states += walk.len();
            let t = Instant::now();
            accumulate_cdg(net, &walk, v, granularity, &mut graph);
            phases.cdg += t.elapsed().as_secs_f64();
            let t = Instant::now();
            record_pair(&mut reach, &walk, src, dest);
            phases.reach += t.elapsed().as_secs_f64();
            if let Some((hops, absorptions)) = worst_path(&walk) {
                paths.hops.push(f64::from(hops));
                paths.absorptions.push(f64::from(absorptions));
            }
        }
    }
    let t = Instant::now();
    let acyclic = graph.find_cycle().is_none();
    phases.cdg += t.elapsed().as_secs_f64();
    paths.states += states;
    paths.pairs += reach.pairs;
    paths.delivered += reach.delivered;
    CaseResult {
        verdict: if acyclic && reach.first_failure.is_none() {
            Verdict::Proved
        } else {
            Verdict::Failed
        },
        edges: graph.num_edges(),
        states,
        pairs: reach.pairs,
        rewalked: 0,
        reused: 0,
    }
}

/// Runs the replica over every static case and checks it against `expected`.
fn replica_pass(slice: &Slice, expected: &[CaseResult], out: &mut Outcome) -> (Phases, Paths) {
    let mut phases = Phases::default();
    let mut paths = Paths::default();
    let mut mismatches = 0;
    for (case, want) in slice.cases.iter().zip(expected) {
        if let Kind::Static(faults) = &case.kind {
            let got = replica(
                &slice.nets[case.net],
                &case.algo,
                faults,
                case.v,
                &mut phases,
                &mut paths,
            );
            mismatches += usize::from(got != *want);
        }
    }
    out.check(
        "phase replica reproduces verify_case on every static case",
        mismatches == 0,
        format!("{mismatches} mismatches"),
    );
    (phases, paths)
}

/// Reads `(topology, routing, vcs, faults) → verdict` from `VERIFY.json`
/// (one field per line, as the verify binary writes it).
fn committed_verdicts() -> Option<HashMap<(String, String, usize, String), String>> {
    let text = std::fs::read_to_string(VERIFY_JSON).ok()?;
    let field = |line: &str, key: &str| {
        line.trim()
            .strip_prefix(&format!("\"{key}\": "))
            .map(|v| v.trim_end_matches(',').trim_matches('"').to_string())
    };
    let mut map = HashMap::new();
    let (mut topology, mut routing, mut vcs, mut faults) = (None, None, None, None);
    for line in text.lines() {
        if let Some(v) = field(line, "topology") {
            topology = Some(v);
        } else if let Some(v) = field(line, "routing") {
            routing = Some(v);
        } else if let Some(v) = field(line, "virtual_channels") {
            vcs = v.parse().ok();
        } else if let Some(v) = field(line, "faults") {
            faults = Some(v);
        } else if let Some(verdict) = field(line, "verdict") {
            if let (Some(t), Some(r), Some(v), Some(f)) =
                (topology.take(), routing.take(), vcs.take(), faults.take())
            {
                map.insert((t, r, v, f), verdict);
            }
        }
    }
    Some(map)
}

fn check_results(slice: &Slice, results: &[CaseResult], out: &mut Outcome) {
    let failed: Vec<String> = slice
        .cases
        .iter()
        .zip(results)
        .filter(|(_, r)| r.verdict == Verdict::Failed)
        .map(|(c, _)| format!("{} {} v={} {}", c.topology, c.routing, c.v, c.label))
        .collect();
    out.check(
        "no case fails verification",
        failed.is_empty(),
        failed.join("; "),
    );
    match committed_verdicts() {
        Some(committed) => {
            let mut shared = 0;
            let mut differ = Vec::new();
            for (case, result) in slice.cases.iter().zip(results) {
                let key = (
                    case.topology.clone(),
                    case.routing.clone(),
                    case.v,
                    case.label.clone(),
                );
                if let Some(verdict) = committed.get(&key) {
                    shared += 1;
                    if verdict != result.verdict.name() {
                        differ.push(format!("{key:?}"));
                    }
                }
            }
            out.check(
                "verdicts match the committed VERIFY.json",
                differ.is_empty() && shared > 0,
                format!(
                    "{shared} shared cases, {} differ {}",
                    differ.len(),
                    differ.join("; ")
                ),
            );
        }
        None => out.check(
            "verdicts match the committed VERIFY.json",
            false,
            "VERIFY.json unreadable",
        ),
    }
}

/// Runs the verifier workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        jobs: 1,
        ..Outcome::default()
    };
    // Set-up: topology builds and case enumeration.
    let (mut build, mut place) = (Vec::new(), Vec::new());
    measure_setup(&mut out, || {
        let (_, b, p) = enumerate(args.seed);
        build.push(b);
        place.push(p);
    });
    out.metric("topology.build_ms", median(&build) * 1e3);
    out.metric("faults.place_ms", median(&place) * 1e3);

    let (slice, _, _) = enumerate(args.seed);
    if args.trace {
        trace(&slice, &mut out);
    } else {
        timed(&slice, args, &mut out);
    }

    out
}

/// The untraced run: timed passes over every case, each case timed too.
fn timed(slice: &Slice, args: &Args, out: &mut Outcome) {
    let mut passes: Vec<Vec<CaseResult>> = Vec::new();
    let mut case_s: Vec<Vec<f64>> = vec![Vec::new(); slice.cases.len()];
    let walls = timed_units(args.seconds, MIN_PASSES, |_| {
        let results = slice
            .cases
            .iter()
            .zip(&mut case_s)
            .map(|(case, times)| {
                let t = Instant::now();
                let result = run_case(&slice.nets[case.net], case, &case.algo);
                times.push(t.elapsed().as_secs_f64());
                result
            })
            .collect();
        passes.push(results);
    });
    record_peak_rss(out);
    let wall_s: f64 = case_s.iter().map(|times| median(times)).sum();
    let first = &passes[0];
    out.check(
        "a fixed seed repeats every case exactly",
        passes.iter().all(|p| p == first),
        format!("{} passes", passes.len()),
    );
    check_results(slice, first, out);
    let (_, paths) = replica_pass(slice, first, out);

    out.attempted = first.len() as u64;
    out.failed = first
        .iter()
        .filter(|r| r.verdict == Verdict::Failed)
        .count() as u64;
    out.metric("wall_s", wall_s);
    out.metric("latency_p50_cycles", quantile(&paths.hops, 0.5));
    out.metric("latency_p99_cycles", quantile(&paths.hops, 0.99));
    out.metric(
        "delivered_fraction",
        ratio(paths.delivered as f64, paths.pairs as f64),
    );
    out.metric("injections_per_msg", 1.0 + mean(&paths.absorptions));
    println!(
        "verify_matrix: {} cases, {} states per pass, {wall_s:.3} s per pass \
         (sum of per-case medians; passes took {walls:.3?} s)",
        first.len(),
        first.iter().map(|r| r.states).sum::<usize>(),
    );
}

/// The traced run: one untraced pass, one pass with the routing wrapped
/// and each case timed, and the phase replica.
fn trace(slice: &Slice, out: &mut Outcome) {
    let t = Instant::now();
    let plain = pass(slice);
    let untraced = t.elapsed().as_secs_f64();

    let stats = Rc::new(RouteStats::default());
    let mut case_ms = Vec::new();
    let mut traced = Vec::new();
    let t = Instant::now();
    for case in &slice.cases {
        let algo = Timed::new(case.algo, Rc::clone(&stats));
        let start = Instant::now();
        traced.push(run_case(&slice.nets[case.net], case, &algo));
        if !matches!(case.kind, Kind::Rejected) {
            case_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let traced_s = t.elapsed().as_secs_f64();
    out.check(
        "wrapped and unwrapped routing give identical verdicts and CDG edge counts",
        traced == plain,
        format!("{} cases", plain.len()),
    );
    check_results(slice, &plain, out);
    let (phases, paths) = replica_pass(slice, &plain, out);

    let states: usize = plain.iter().map(|r| r.states).sum();
    let rewalked: usize = plain.iter().map(|r| r.rewalked).sum();
    let reused: usize = plain.iter().map(|r| r.reused).sum();
    out.attempted = plain.len() as u64;
    out.failed = plain
        .iter()
        .filter(|r| r.verdict == Verdict::Failed)
        .count() as u64;
    out.span("timed_run", "workload", 1, traced_s * 1e3, 1);
    out.span(
        "case",
        "timed_run",
        case_ms.len() as u64,
        case_ms.iter().sum(),
        1,
    );
    out.span(
        "routing",
        "case",
        stats.total_calls(),
        stats.total_ns() as f64 / 1e6,
        1,
    );
    out.metric("trace.overhead_ratio", ratio(traced_s, untraced));
    out.metric("verify.cases", case_ms.len() as f64);
    out.metric("verify.case_ms_p50", quantile(&case_ms, 0.5));
    out.metric("verify.case_ms_p99", quantile(&case_ms, 0.99));
    out.metric("verify.walk_ms", phases.walk * 1e3);
    out.metric("verify.cdg_ms", phases.cdg * 1e3);
    out.metric("verify.reach_ms", phases.reach * 1e3);
    out.metric("verify.states", states as f64);
    out.metric(
        "verify.states_per_pair",
        ratio(paths.states as f64, paths.pairs as f64),
    );
    out.metric("verify.epoch_reused", reused as f64);
    out.metric("verify.epoch_rewalked", rewalked as f64);
    out.metric(
        "verify.reuse_ratio",
        ratio(reused as f64, (reused + rewalked) as f64),
    );
    out.metric(
        "verify.routing_share",
        ratio(stats.total_ns() as f64 / 1e6, case_ms.iter().sum()),
    );
    for (name, value) in stats.metrics() {
        out.metric(name, value);
    }
}
