//! The paper's abstract in one table: runs all five algorithms at one
//! size and prints the quantitative claims §1 makes for ROST —
//!
//! 1. "reduces the average number of streaming disruptions per member by
//!    36–57% compared to a centralized depth-optimal approach";
//! 2. "achieves the smallest end-to-end service delay (or tree depth)
//!    among three representative distributed algorithms, and only incurs
//!    a small increase in service delay of 10–15% compared to the
//!    centralized depth-optimal approach";
//! 3. "introduces a very low protocol overhead".
//!
//! Each algorithm's replicate sweep is one timed *phase*; the machine-
//! readable perf baseline — wall time per phase, events/second, and the
//! exact peak event-queue depth (`ChurnReport::queue_high_water`) — is
//! written to `BENCH_headline.json` in the working directory. Timing
//! never touches stdout, so the printed table stays byte-identical
//! across runs and `--jobs` values.

use rom_bench::{
    banner, calibration_spin_ns, churn_config, fmt, instrumented_cell, mean_over, row,
    truncation_warning, write_sidecars, CellOut, Scale,
};
use rom_engine::{AlgorithmKind, ChurnReport};
use std::time::Instant;

/// The perf-baseline record of one algorithm's replicate sweep.
struct Phase {
    name: &'static str,
    wall_secs: f64,
    events: u64,
    peak_queue: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "Headline claims",
        "the §1 quantitative claims, measured",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members\n");

    // One timed phase per algorithm. The exact queue peak rides on every
    // report; --trace/--profile capture the seed-1 ROST run (the
    // algorithm the claims are about).
    let run = |alg: AlgorithmKind| -> (Vec<ChurnReport>, Phase) {
        let sidecars = scale.sidecars().when(alg == AlgorithmKind::Rost);
        let started = Instant::now();
        let out = scale.sweep().run(1, scale.seeds, |cell| {
            let cfg = churn_config(alg, size, cell.seed);
            let (report, trace, profile) = instrumented_cell(
                "headline_claims_rost",
                cfg,
                cell.seed,
                sidecars.when(cell.seed == 1),
            );
            CellOut {
                warnings: truncation_warning("headline_claims", cell.seed, report.outcome)
                    .into_iter()
                    .collect(),
                report,
                trace,
                profile,
            }
        });
        let wall_secs = started.elapsed().as_secs_f64();
        write_sidecars(&out, "headline_claims_rost", sidecars);
        let reports: Vec<ChurnReport> = out.into_single_point();
        let events = reports.iter().map(|r| r.events_processed).sum();
        let peak_queue = reports
            .iter()
            .map(|r| r.queue_high_water as f64)
            .fold(0.0, f64::max);
        let phase = Phase {
            name: alg.name(),
            wall_secs,
            events,
            peak_queue,
        };
        (reports, phase)
    };
    let metrics = |reports: &[ChurnReport]| {
        (
            mean_over(reports, |r| r.disruptions_per_mean_lifetime()),
            mean_over(reports, |r| r.service_delay_ms.mean()),
            mean_over(reports, |r| r.depth.mean()),
            mean_over(reports, |r| r.reconnections_per_lifetime.mean()),
        )
    };

    println!(
        "{}",
        row([
            "algorithm".into(),
            "disruptions".into(),
            "delay_ms".into(),
            "depth".into(),
            "overhead".into(),
        ])
    );
    let mut by_alg = Vec::new();
    let mut phases = Vec::new();
    for alg in AlgorithmKind::ALL {
        let (reports, phase) = run(alg);
        let m = metrics(&reports);
        println!(
            "{}",
            row([
                alg.name().to_string(),
                fmt(m.0),
                fmt(m.1),
                fmt(m.2),
                fmt(m.3),
            ])
        );
        by_alg.push((alg, m));
        phases.push(phase);
    }

    let get = |alg: AlgorithmKind| by_alg.iter().find(|(a, _)| *a == alg).unwrap().1;
    let rost = get(AlgorithmKind::Rost);
    let bo = get(AlgorithmKind::RelaxedBandwidthOrdered);
    let to = get(AlgorithmKind::RelaxedTimeOrdered);
    let md = get(AlgorithmKind::MinimumDepth);
    let lf = get(AlgorithmKind::LongestFirst);

    println!("\n# claim 1 — disruption reduction (paper: 36-57% vs relaxed BO):");
    println!("claim1,rost_vs_bo_%,{}", fmt((1.0 - rost.0 / bo.0) * 100.0));
    println!("claim1,rost_vs_to_%,{}", fmt((1.0 - rost.0 / to.0) * 100.0));

    println!("# claim 2 — delay (paper: best distributed; +10-15% vs relaxed BO):");
    println!(
        "claim2,rost_best_distributed,{}",
        rost.1 < md.1 && rost.1 < lf.1
    );
    println!(
        "claim2,rost_delay_increase_vs_bo_%,{}",
        fmt((rost.1 / bo.1 - 1.0) * 100.0)
    );

    println!("# claim 3 — overhead (paper: far below one reconnection/lifetime):");
    println!("claim3,rost_overhead,{}", fmt(rost.3));
    println!("claim3,far_below_one,{}", rost.3 < 0.5);

    write_baseline(&phases, scale, calibration_spin_ns());
    println!("\n# perf baseline written to BENCH_headline.json");
}

/// Writes the machine-readable perf baseline. Wall-clock timing is
/// inherently run-dependent, so it lives only in this file — never on
/// stdout.
fn write_baseline(phases: &[Phase], scale: Scale, spin_ns: f64) {
    let per_sec = |events: u64, wall: f64| {
        if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        }
    };
    let mut json = String::with_capacity(1024);
    json.push_str("{\"name\":\"headline_claims\"");
    json.push_str(&format!(
        ",\"paper\":{},\"seeds\":{},\"jobs\":{},\"calibration_spin_ns\":{},\"phases\":[",
        scale.paper, scale.seeds, scale.jobs, spin_ns
    ));
    let mut total_wall = 0.0;
    let mut total_events = 0u64;
    for (i, p) in phases.iter().enumerate() {
        total_wall += p.wall_secs;
        total_events += p.events;
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"phase\":{:?},\"wall_secs\":{},\"events\":{},\"events_per_sec\":{},\"peak_queue_high_water\":{}}}",
            p.name,
            p.wall_secs,
            p.events,
            per_sec(p.events, p.wall_secs),
            p.peak_queue,
        ));
    }
    json.push_str(&format!(
        "],\"total\":{{\"wall_secs\":{},\"events\":{},\"events_per_sec\":{}}}}}\n",
        total_wall,
        total_events,
        per_sec(total_events, total_wall),
    ));
    if let Err(err) = std::fs::write("BENCH_headline.json", json) {
        eprintln!("error: cannot write BENCH_headline.json: {err}");
        std::process::exit(2)
    }
}
