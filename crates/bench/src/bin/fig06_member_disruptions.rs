//! Figure 6: accumulative number of disruptions of a typical member
//! (moderate bandwidth, long lifetime) over time, per algorithm.
//!
//! Expected shape: under ROST the curve flattens as the member ages and
//! climbs the tree; under the time-blind algorithms it keeps a roughly
//! constant slope.

use rom_bench::{
    banner, churn_config, fmt, instrumented_cell, row, write_sidecars, CellOut, Scale,
};
use rom_engine::{AlgorithmKind, ObserverSpec};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 6",
        "accumulative disruptions of a typical member over time (minutes)",
        scale,
    );
    let size = scale.focus_size();
    let horizon_min = scale.observer_minutes();
    println!("# focus size: {size} members, horizon: {horizon_min} minutes");
    println!(
        "{}",
        row(["algorithm".into(), "minute:cumulative...".into()])
    );
    // The observer trace is one fixed-seed run per algorithm, so the
    // sweep parallelizes over the algorithm axis: five points, one seed.
    // --trace/--profile capture the ROST point.
    let out = scale.sweep().run(AlgorithmKind::ALL.len(), 1, |cell| {
        let alg = AlgorithmKind::ALL[cell.point];
        let mut cfg = churn_config(alg, size, 1);
        cfg.measure_secs = horizon_min * 60.0;
        cfg.observer = Some(ObserverSpec {
            bandwidth: 2.0,
            lifetime_secs: horizon_min * 60.0 + 600.0,
        });
        let (report, trace, profile) = instrumented_cell(
            "fig06_rost_observer",
            cfg,
            cell.seed,
            scale.sidecars().when(alg == AlgorithmKind::Rost),
        );
        CellOut {
            report,
            warnings: Vec::new(),
            trace,
            profile,
        }
    });
    write_sidecars(&out, "fig06_rost_observer", scale.sidecars());
    for (alg, reports) in AlgorithmKind::ALL.into_iter().zip(out.reports) {
        let report = reports.into_iter().next().expect("one seed per point");
        let trace = report.observer.expect("observer configured");
        let mut cells = vec![alg.name().to_string()];
        for (i, minute) in trace.disruption_minutes.iter().enumerate() {
            cells.push(format!("{}:{}", fmt(*minute), i + 1));
        }
        if trace.disruption_minutes.is_empty() {
            cells.push("none".to_string());
        }
        println!("{}", row(cells));
    }
    println!("# each entry is minute:cumulative-count at a disruption instant");
}
