//! The `figure_sweep` workload: the Fig. 3 grid at smoke scale (108 points
//! of `Figure::point_configs`) through `run_pool` at `min(2, nproc)` jobs.
//! A unit is one whole sweep.

use crate::stats::{fnv1a, mean, median, quantile, ratio};
use crate::{measure_setup, record_peak_rss, timed_units, Args, Outcome, DEFAULT_SEED};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use swbft_core::{
    run_pool, ExperimentConfig, ExperimentOutcome, Figure, FigureOptions, Jobs, Scale,
};
use torus_sim::Simulation;

/// Sweeps per untraced run, at least; the median of three is steadier than
/// one sweep against host noise, and a repeat checks determinism.
const MIN_SWEEPS: usize = 3;

/// FNV-1a of the per-point reports of `Figure::Fig3.run_with` at smoke
/// scale (the debug rendering of each point's `SimulationReport`, in grid
/// order). At the default seed the sweep must reproduce it.
const FIG3_SMOKE_DIGEST: u64 = 0x7a6a_71f0_7944_7b17;

fn plan(seed: u64) -> Vec<ExperimentConfig> {
    let mut configs = Figure::Fig3
        .point_configs(&FigureOptions::new(Scale::Smoke))
        .expect("the paper's Fig. 3 grid plans");
    if seed != DEFAULT_SEED {
        let offset = (seed ^ DEFAULT_SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for cfg in &mut configs {
            cfg.seed ^= offset;
            cfg.fault_seed = cfg.fault_seed.map(|s| s ^ offset);
        }
    }
    configs
}

/// The salt `ExperimentConfig::run` mixes into a point's seed to draw its
/// fault placement.
const FAULT_STREAM: u64 = 0xFA17_5EED;

/// Host seconds of each set-up repetition, per step.
#[derive(Default)]
struct SetupTimes {
    plan: Vec<f64>,
    build: Vec<f64>,
    place: Vec<f64>,
    new: Vec<f64>,
}

/// The sweep's set-up: planning the grid, then every point's topology
/// build, fault placement and `Simulation::new`, as `ExperimentConfig::run`
/// performs them before it simulates.
fn setup(seed: u64, times: &mut SetupTimes) {
    let t = Instant::now();
    let configs = plan(seed);
    times.plan.push(t.elapsed().as_secs_f64());
    let (mut build, mut place, mut new) = (0.0, 0.0, 0.0);
    for cfg in &configs {
        let t = Instant::now();
        let Ok(net) = cfg.topology.build() else {
            continue;
        };
        build += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.fault_seed.unwrap_or(cfg.seed) ^ FAULT_STREAM);
        let Ok(faults) = cfg.faults.realize(&net, &mut rng) else {
            continue;
        };
        place += t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(Simulation::new(
            cfg.sim_config(),
            faults,
            cfg.routing.algorithm(),
        ));
        new += t.elapsed().as_secs_f64();
    }
    times.build.push(build);
    times.place.push(place);
    times.new.push(new);
}

/// One point's outcome and host seconds.
type PointRun = (Result<ExperimentOutcome, String>, f64);

fn sweep(configs: &[ExperimentConfig], jobs: usize) -> Vec<PointRun> {
    run_pool(configs.to_vec(), Jobs::count(jobs), |cfg| {
        let t = Instant::now();
        let outcome = cfg.run().map_err(|e| e.to_string());
        (outcome, t.elapsed().as_secs_f64())
    })
}

/// Digest of a sweep's per-point reports in grid order: FNV-1a over each
/// report's debug rendering, one per line.
fn sweep_digest(results: &[PointRun]) -> u64 {
    let text: String = results
        .iter()
        .filter_map(|(r, _)| r.as_ref().ok())
        .map(|o| format!("{:?}\n", o.report))
        .collect();
    fnv1a(text.as_bytes())
}

/// Runs the figure sweep.
pub fn run(args: &Args) -> Outcome {
    let jobs = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let mut out = Outcome {
        jobs,
        ..Outcome::default()
    };
    let mut times = SetupTimes::default();
    measure_setup(&mut out, || setup(args.seed, &mut times));
    out.metric("core.plan_ms", median(&times.plan) * 1e3);
    out.metric("topology.build_ms", median(&times.build) * 1e3);
    out.metric("faults.place_ms", median(&times.place) * 1e3);
    out.metric("sim.new_ms", median(&times.new) * 1e3);

    let configs = plan(args.seed);

    let mut sweeps: Vec<Vec<PointRun>> = Vec::new();
    let walls = if args.trace {
        // One untraced sweep (for the overhead) and one timed per point.
        let t = Instant::now();
        let plain = run_pool(configs.clone(), Jobs::count(jobs), |cfg| {
            cfg.run().map_err(|e| e.to_string())
        });
        let untraced = t.elapsed().as_secs_f64();
        let t = Instant::now();
        sweeps.push(sweep(&configs, jobs));
        let traced = t.elapsed().as_secs_f64();
        out.metric("trace.overhead_ratio", ratio(traced, untraced));
        let same = plain
            .iter()
            .zip(&sweeps[0])
            .all(|(a, (b, _))| match (a, b) {
                (Ok(a), Ok(b)) => a.report == b.report,
                (Err(a), Err(b)) => a == b,
                _ => false,
            });
        out.check("timed and untimed sweeps agree point by point", same, "");
        vec![traced]
    } else {
        let walls = timed_units(args.seconds, MIN_SWEEPS, |_| {
            sweeps.push(sweep(&configs, jobs))
        });
        record_peak_rss(&mut out);
        walls
    };

    let first = &sweeps[0];
    let digests: Vec<u64> = sweeps.iter().map(|s| sweep_digest(s)).collect();
    out.check(
        "a fixed seed repeats every point exactly",
        digests.iter().all(|&d| d == digests[0]),
        format!("{} sweeps, digest {:#018x}", sweeps.len(), digests[0]),
    );
    if args.seed == DEFAULT_SEED {
        out.check(
            "default-seed sweep equals Figure::Fig3.run_with at smoke scale",
            digests[0] == FIG3_SMOKE_DIGEST,
            format!("{:#018x} vs recorded {FIG3_SMOKE_DIGEST:#018x}", digests[0]),
        );
    }

    let ok: Vec<&ExperimentOutcome> = first.iter().filter_map(|(r, _)| r.as_ref().ok()).collect();
    out.attempted = first.len() as u64;
    out.failed = (first.len() - ok.len()) as u64;
    for (r, _) in first {
        if let Err(e) = r {
            println!("point failure: {e}");
        }
    }
    let generated: u64 = ok.iter().map(|o| o.report.generated_messages).sum();
    let delivered: u64 = ok.iter().map(|o| o.report.delivered_messages).sum();
    let queued: u64 = ok.iter().map(|o| o.report.messages_queued).sum();
    let p50: Vec<f64> = ok.iter().map(|o| o.report.p50_latency).collect();
    let p99: Vec<f64> = ok.iter().map(|o| o.report.p99_latency).collect();

    if args.trace {
        let point_s: Vec<f64> = first.iter().map(|(_, s)| *s).collect();
        out.span("timed_run", "workload", 1, walls[0] * 1e3, 1);
        out.span(
            "point",
            "timed_run",
            point_s.len() as u64,
            point_s.iter().sum::<f64>() * 1e3,
            jobs,
        );
        out.metric("core.points", point_s.len() as f64);
        out.metric("core.point_s_p50", quantile(&point_s, 0.5));
        out.metric("core.point_s_p99", quantile(&point_s, 0.99));
        out.metric(
            "core.tail_point_s",
            point_s.iter().copied().fold(0.0, f64::max),
        );
        out.metric(
            "core.points_hit_max_cycles",
            ok.iter().filter(|o| o.hit_max_cycles).count() as f64,
        );
        out.metric(
            "core.pool_busy_ratio",
            ratio(point_s.iter().sum(), jobs as f64 * walls[0]),
        );
        out.metric("workloads.generated", generated as f64);
    } else {
        out.metric("wall_s", median(&walls));
        // The mean over points: the median of 108 per-point percentiles
        // jumps between neighbouring points from seed to seed.
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
            "figure_sweep: {} points at {jobs} jobs, {:.2} s per sweep (median of {walls:.3?})",
            first.len(),
            median(&walls)
        );
    }

    out
}
