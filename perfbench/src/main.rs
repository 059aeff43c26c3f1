//! The repository benchmark: one command runs one workload from a seed,
//! checks the program's outputs, and prints every metric by name with its
//! unit. See `README.md` in this directory for the workloads, the metrics
//! and the layer-to-metric map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_faultfree|sim_faulted|verify_matrix|figure_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics, measured untraced; with `--trace 1`
//! they are the per-layer metrics of a separate traced run, timed from the
//! benchmark's own code around calls into each layer's public functions.
//! The exit status is 1 when an output check fails, 2 on a usage error.

mod figure;
mod routing;
mod sim;
mod stats;
mod verify;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The default workload seed. It reproduces the repository's reference
/// configurations: the `bench_cycles` traffic seed and the figure's own
/// point seeds.
pub const DEFAULT_SEED: u64 = 17;

/// End-to-end metrics, printed by every untraced run (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_cycles", "cycles"),
    ("latency_p99_cycles", "cycles"),
    ("delivered_fraction", "ratio"),
    ("injections_per_msg", "1/msg"),
];

/// Per-layer metrics, printed by every traced run (name, unit). A workload
/// that does not exercise a layer reports 0 for its metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_ratio", "ratio"),
    ("topology.build_ms", "ms"),
    ("faults.place_ms", "ms"),
    ("workloads.generated", "count"),
    ("sim.new_ms", "ms"),
    ("sim.steps", "count"),
    ("sim.step_us_p50", "us"),
    ("sim.step_us_p99", "us"),
    ("sim.self_ms", "ms"),
    ("sim.routing_share", "ratio"),
    ("sim.in_flight_mean", "count"),
    ("sim.in_flight_max", "count"),
    ("sim.message_table_peak", "count"),
    ("sim.reinjection_queue_peak", "count"),
    ("sim.forced_absorptions", "count"),
    ("sim.dropped", "count"),
    ("routing.route.calls", "count"),
    ("routing.route.ns_mean", "ns"),
    ("routing.route.forward", "count"),
    ("routing.route.deliver", "count"),
    ("routing.route.absorb", "count"),
    ("routing.route.candidates_mean", "count"),
    ("routing.route_per_hop", "ratio"),
    ("routing.note_hop.calls", "count"),
    ("routing.make_header.calls", "count"),
    ("routing.reroute.calls", "count"),
    ("routing.reroute.ns_mean", "ns"),
    ("routing.reroute.failed", "count"),
    ("verify.cases", "count"),
    ("verify.case_ms_p50", "ms"),
    ("verify.case_ms_p99", "ms"),
    ("verify.walk_ms", "ms"),
    ("verify.cdg_ms", "ms"),
    ("verify.reach_ms", "ms"),
    ("verify.states", "count"),
    ("verify.states_per_pair", "count"),
    ("verify.epoch_reused", "count"),
    ("verify.epoch_rewalked", "count"),
    ("verify.reuse_ratio", "ratio"),
    ("verify.routing_share", "ratio"),
    ("core.plan_ms", "ms"),
    ("core.points", "count"),
    ("core.point_s_p50", "s"),
    ("core.point_s_p99", "s"),
    ("core.tail_point_s", "s"),
    ("core.points_hit_max_cycles", "count"),
    ("core.pool_busy_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed part of a run measures: units run while another
    /// one fits, past the workload's minimum count.
    pub seconds: Duration,
    /// Run the traced variant (per-layer metrics).
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sim_faultfree|sim_faulted|verify_matrix|figure_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (messages, cases or points).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Worker threads the timed part ran on.
    pub jobs: usize,
    metrics: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool, String)>,
    spans: Vec<Span>,
}

/// One aggregated span of the traced run: `count` calls of a layer boundary
/// that took `ms` in total on `threads` threads, under `parent`.
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    count: u64,
    ms: f64,
    threads: usize,
}

impl Outcome {
    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    /// Records an aggregated span (traced runs only).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: &'static str,
        count: u64,
        ms: f64,
        threads: usize,
    ) {
        self.spans.push(Span {
            name,
            parent: Some(parent),
            count,
            ms,
            threads,
        });
    }

    /// The spans as one JSON object; a span's self time is its time minus
    /// the per-thread time of its children.
    fn spans_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(s.name))
                    .map(|c| c.ms / c.threads as f64)
                    .sum();
                format!(
                    "{{\"name\": \"{}\", \"parent\": {}, \"count\": {}, \"threads\": {}, \"ms\": {}, \"self_ms\": {}}}",
                    s.name,
                    s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                    s.count,
                    s.threads,
                    json_number(s.ms),
                    json_number(s.ms - children),
                )
            })
            .collect();
        format!("{{\"spans\": [{}]}}", spans.join(", "))
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// Runs `unit` repeatedly, returning each unit's host time in seconds. It
/// runs at least `min_units` units, and more while another unit of median
/// length still ends within `seconds`, so a run measures for about
/// `seconds` without overrunning it.
pub fn timed_units(seconds: Duration, min_units: usize, mut unit: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_units.max(1)
        || start.elapsed().as_secs_f64() + stats::median(&walls) <= seconds.as_secs_f64()
    {
        let t = Instant::now();
        unit(walls.len());
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// Times the workload's set-up `f`: repeated at least five times, and more
/// until a quarter second has passed, so that sub-millisecond set-up times
/// are medians of hundreds of samples. Records the median as `setup_s` and
/// the repetitions as the `setup` span.
pub fn measure_setup(out: &mut Outcome, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5
        || (start.elapsed() < Duration::from_millis(250) && samples.len() < 5_000)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&samples);
    out.metric("setup_s", median);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    out.span("setup", "workload", samples.len() as u64, ms, 1);
    median
}

/// Records the peak resident memory of this process so far (`VmHWM`, in
/// MiB) as `peak_rss_mb`. Workloads call it when their timed part ends, so
/// the output checks that follow (such as reading `VERIFY.json`) do not
/// count.
pub fn record_peak_rss(out: &mut Outcome) {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match kb {
        Some(kb) => out.metric("peak_rss_mb", kb / 1024.0),
        None => out.check("peak_rss_readable", false, "no VmHWM in /proc/self/status"),
    }
}

/// The commit of the checkout, read from `.git` without running git; the
/// benchmark's checkout is usually not a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// FNV-1a over the sources the benchmark builds (workspace manifests and
/// every file under `crates/`), identifying the code measured when the
/// checkout carries no commit.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    format!("{:#018x}", stats::fnv1a(&bytes))
}

/// The provenance object printed with every result. The crates under test
/// are pinned with their default features off in `Cargo.toml`, so no
/// feature is enabled; a build with debug assertions is labelled
/// `"comparable": false`.
fn provenance(args: &Args, jobs: usize) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"source_digest\": \"{}\", \"features\": [], \"debug_assertions\": {}, \
         \"available_parallelism\": {parallelism}, \"jobs\": {jobs}, \"rustc\": \"{}\", \
         \"comparable\": {}}}}}",
        args.workload,
        args.seed,
        args.trace,
        commit(),
        source_digest(),
        cfg!(debug_assertions),
        env!("PERFBENCH_RUSTC_VERSION"),
        !cfg!(debug_assertions),
    )
}

/// Formats a metric value with all its digits (JSON has no NaN/inf).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut out = match args.workload.as_str() {
        "sim_faultfree" => sim::run(&sim::FAULT_FREE, &args),
        "sim_faulted" => sim::run(&sim::FAULTED, &args),
        "verify_matrix" => verify::run(&args),
        "figure_sweep" => figure::run(&args),
        other => {
            eprintln!("unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        out.spans.push(Span {
            name: "workload",
            parent: None,
            count: 1,
            ms: start.elapsed().as_secs_f64() * 1e3,
            threads: 1,
        });
    }
    if out.attempted == 0 {
        out.check("at least one operation attempted", false, "none");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in wanted {
        if !args.trace && !out.metrics.contains_key(name) {
            out.check(format!("metric {name} measured"), false, "missing");
        }
    }
    println!("{}", provenance(&args, out.jobs));
    if args.trace {
        println!("{}", out.spans_json());
    }
    for (name, ok, detail) in &out.checks {
        println!(
            "check {} {name}: {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    let metrics: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
