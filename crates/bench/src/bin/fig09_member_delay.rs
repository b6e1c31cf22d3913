//! Figure 9: service delay of the typical member over time.
//!
//! Expected shape: under ROST and relaxed-TO the member's delay falls as
//! it ages (rising tree position); under the other algorithms it
//! fluctuates without converging.

use rom_bench::{
    banner, churn_config, fmt, instrumented_cell, row, write_sidecars, CellOut, Scale,
};
use rom_engine::{AlgorithmKind, ObserverSpec};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 9",
        "service delay (ms) of a typical member over time (minutes)",
        scale,
    );
    let size = scale.focus_size();
    let horizon_min = scale.observer_minutes();
    println!("# focus size: {size} members, horizon: {horizon_min} minutes");
    println!("{}", row(["algorithm".into(), "minute:delay_ms...".into()]));
    // One fixed-seed run per algorithm: five sweep points, one seed each.
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
            "fig09_rost_observer",
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
    write_sidecars(&out, "fig09_rost_observer", scale.sidecars());
    for (alg, reports) in AlgorithmKind::ALL.into_iter().zip(out.reports) {
        let report = reports.into_iter().next().expect("one seed per point");
        let trace = report.observer.expect("observer configured");
        let mut cells = vec![alg.name().to_string()];
        for &(minute, delay) in &trace.delay_samples {
            cells.push(format!("{}:{}", fmt(minute), fmt(delay)));
        }
        println!("{}", row(cells));
    }
}
