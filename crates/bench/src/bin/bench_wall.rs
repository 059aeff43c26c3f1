//! Runs the suite wall-clock benchmark and writes `BENCH_wall.json`.
//!
//! Each figure is run end-to-end twice — once at `--jobs 1` and once at the
//! parallel jobs count — timing both and asserting the two results are
//! identical (the experiment pool's determinism guarantee). The JSON records
//! the per-figure and whole-suite wall clocks, speedups and CSV digests:
//! the wall-clock performance trajectory of the paper reproduction.
//!
//! No figure attaches the runtime sanitizer, so a plain release build
//! measures the uninstrumented engines.
//!
//! ```text
//! usage: bench_wall [--smoke] [--jobs N|auto] [--figures fig3,fig5]
//!                   [--out <path>]
//!   --smoke        smoke-scale grids for CI (default: quick scale)
//!   --jobs N       parallel worker count to compare against jobs=1
//!                  (default: all cores)
//!   --figures F,..  comma-separated subset (default: fig3..fig7)
//!   --out PATH     output path (default: BENCH_wall.json)
//! ```
//!
//! Exit status: 0 on success, 1 on a usage or I/O error, 2 when any
//! figure's parallel result diverges from its serial result.

use std::path::PathBuf;
use std::process::ExitCode;
use swbft_core::{Figure, Jobs, Scale};
use torus_bench::wall::{all_identical, render_table, run_wall_suite, to_json};

const USAGE: &str =
    "usage: bench_wall [--smoke] [--jobs N|auto] [--figures fig3,fig5,...] [--out <path>]";

fn main() -> ExitCode {
    let mut smoke = false;
    let mut jobs = Jobs::Auto;
    let mut figures: Vec<Figure> = Figure::ALL.to_vec();
    let mut out_path = PathBuf::from("BENCH_wall.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--jobs" => {
                let value = args.next().unwrap_or_default();
                jobs = match Jobs::parse(&value) {
                    Ok(j) => j,
                    Err(e) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--figures" => {
                let value = args.next().unwrap_or_default();
                let mut selected = Vec::new();
                for id in value.split(',').filter(|s| !s.is_empty()) {
                    match Figure::from_id(id) {
                        Some(f) => selected.push(f),
                        None => {
                            eprintln!("unknown figure '{id}' (use fig3..fig7)\n{USAGE}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if selected.is_empty() {
                    eprintln!("--figures needs a comma-separated list\n{USAGE}");
                    return ExitCode::FAILURE;
                }
                figures = selected;
            }
            "--out" => {
                let Some(path) = args.next() else {
                    eprintln!("--out needs a file path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                out_path = PathBuf::from(path);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let scale = if smoke { Scale::Smoke } else { Scale::Quick };
    eprintln!(
        "wall-clock suite at {} scale: jobs=1 vs jobs={} ({} effective) on {} core(s)",
        scale.id(),
        jobs,
        jobs.effective(),
        Jobs::Auto.effective()
    );
    let results = match run_wall_suite(&figures, scale, jobs, |p| {
        eprintln!(
            "  {}: {} points, {:.0} ms serial, {:.0} ms at jobs={}, x{:.2}, identical={}",
            p.figure.id(),
            p.points,
            p.serial_wall_ms,
            p.parallel_wall_ms,
            p.parallel_jobs,
            p.speedup(),
            p.identical
        );
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_wall: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", render_table(&results));
    if let Err(e) = std::fs::write(&out_path, to_json(&results, scale)) {
        eprintln!("failed to write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out_path.display());
    if all_identical(&results) {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_wall: parallel results diverged from serial results");
        ExitCode::from(2)
    }
}
