//! # `fig_mega` — million-member scale sweep
//!
//! Not a paper figure: a scale study. Runs the full churn engine (ROST)
//! at 100k, 300k and 1M steady-state members under the paper's §5
//! dynamics, with [`ChurnConfig::mega`]'s fixed event budget as the
//! designed stopping rule — every cell is a complete measurement of the
//! same number of dispatches, so events/second is comparable across
//! sizes. Cells run serially in ascending size order so each cell's
//! process-peak-RSS reading is dominated by its own footprint.
//!
//! ```text
//! fig_mega [--seed N] [--sizes a,b,c] [--profile PATH]
//! ```
//!
//! Stdout carries only deterministic quantities (events, exact queue
//! peaks, population); wall-clock throughput, the calibration spin and
//! peak RSS go to `BENCH_mega.json` in the working directory, following
//! the `BENCH_headline.json` convention. `--profile PATH` records a
//! span profile of the **largest** cell (the one whose hotspots matter
//! at scale) — profiling never perturbs stdout.

use rom_bench::{calibration_spin_ns, instrumented_cell, Sidecars};
use rom_engine::{AlgorithmKind, ChurnConfig, ChurnSim};
use std::time::Instant;

/// The default member-count sweep: the tree wall's 100k point, a middle
/// point, and the headline 1M cell.
const SIZES: [usize; 3] = [100_000, 300_000, 1_000_000];

struct Args {
    seed: u64,
    sizes: Vec<usize>,
    profile: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: fig_mega [--seed N] [--sizes a,b,c] [--profile PATH]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        seed: 42,
        sizes: SIZES.to_vec(),
        profile: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                parsed.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--sizes" => {
                let list = args.next().unwrap_or_else(|| usage());
                parsed.sizes = list
                    .split(',')
                    .map(|v| v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| usage()))
                    .collect();
                if parsed.sizes.is_empty() {
                    usage()
                }
            }
            "--profile" => parsed.profile = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    parsed
}

/// The wall-clock record of one cell (everything here is quarantined to
/// `BENCH_mega.json`; stdout never sees it).
struct Cell {
    members: usize,
    wall_secs: f64,
    events: u64,
    peak_queue: u64,
    peak_queue_bytes: u64,
    peak_rss_bytes: Option<u64>,
}

fn main() {
    let args = parse_args();
    println!(
        "# fig_mega — ROST churn at mega scale (seed {}, fixed event budget)",
        args.seed
    );
    println!("members,outcome,events,peak_queue,peak_queue_bytes,population_mean,disruptions");

    let spin_ns = calibration_spin_ns();
    let mut cells = Vec::new();
    let mut sizes = args.sizes.clone();
    sizes.sort_unstable();
    let largest = *sizes.last().expect("at least one size");
    for members in sizes {
        let cfg = ChurnConfig::mega(AlgorithmKind::Rost, members).with_seed(args.seed);
        let profile_path = args.profile.as_deref().filter(|_| members == largest);
        let started = Instant::now();
        let report = if let Some(path) = profile_path {
            let sidecars = Sidecars {
                trace: None,
                // Leaked to 'static like Scale does for its paths: one
                // leak per process invocation.
                profile: Some(Box::leak(path.to_string().into_boxed_str())),
            };
            let (report, _, profile) = instrumented_cell("fig_mega", cfg, args.seed, sidecars);
            if let Some(json) = profile {
                if let Err(err) = std::fs::write(path, json) {
                    eprintln!("error: cannot write {path}: {err}");
                    std::process::exit(2)
                }
            }
            report
        } else {
            ChurnSim::new(cfg).run()
        };
        let wall_secs = started.elapsed().as_secs_f64();
        println!(
            "{members},{:?},{},{},{},{:.1},{:.4}",
            report.outcome,
            report.events_processed,
            report.queue_high_water,
            report.queue_bytes_high_water,
            report.population.mean(),
            report.disruptions_per_mean_lifetime(),
        );
        cells.push(Cell {
            members,
            wall_secs,
            events: report.events_processed,
            peak_queue: report.queue_high_water,
            peak_queue_bytes: report.queue_bytes_high_water,
            peak_rss_bytes: rom_obs::peak_rss_bytes(),
        });
    }

    write_baseline(&cells, args.seed, spin_ns);
    println!("# perf baseline written to BENCH_mega.json");
}

/// Writes the machine-readable scale baseline. Peak RSS is a process-
/// lifetime high-water mark, so with cells run in ascending size order
/// each reading is effectively the largest-so-far cell's footprint.
fn write_baseline(cells: &[Cell], seed: u64, spin_ns: f64) {
    let per_sec = |events: u64, wall: f64| {
        if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        }
    };
    let mut json = String::with_capacity(1024);
    json.push_str("{\"name\":\"fig_mega\"");
    json.push_str(&format!(
        ",\"seed\":{seed},\"calibration_spin_ns\":{spin_ns},\"cells\":["
    ));
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"members\":{},\"wall_secs\":{},\"events\":{},\"events_per_sec\":{},\
             \"peak_queue_high_water\":{},\"peak_queue_bytes\":{},\"peak_rss_bytes\":{}}}",
            c.members,
            c.wall_secs,
            c.events,
            per_sec(c.events, c.wall_secs),
            c.peak_queue,
            c.peak_queue_bytes,
            c.peak_rss_bytes
                .map_or("null".to_string(), |b| b.to_string()),
        ));
    }
    json.push_str("]}\n");
    if let Err(err) = std::fs::write("BENCH_mega.json", json) {
        eprintln!("error: cannot write BENCH_mega.json: {err}");
        std::process::exit(2)
    }
}
