//! Ablation: how much of the disruption problem is *abruptness*?
//!
//! The paper evaluates "the extreme case in which every node departs
//! abruptly without notification" (§6). This ablation sweeps the graceful
//! fraction to show how cooperative departures shrink the problem ROST
//! solves — and that ROST still wins on whatever abrupt remainder exists.

use rom_bench::{banner, churn_config, fmt, mean_over, replicate, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Ablation A3",
        "disruptions per mean lifetime vs graceful-departure fraction",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members");
    println!(
        "{}",
        row(["graceful_%".into(), "min-depth".into(), "rost".into()])
    );
    for graceful in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        // --trace/--profile capture the all-abrupt ROST point (the
        // paper's extreme case).
        let run = |alg: AlgorithmKind| {
            replicate(
                "ablation_a3_abrupt_rost",
                |seed| {
                    let mut cfg = churn_config(alg, size, seed);
                    cfg.graceful_fraction = graceful;
                    cfg
                },
                scale,
                scale
                    .sidecars()
                    .when(graceful.to_bits() == (0.0f64).to_bits() && alg == AlgorithmKind::Rost),
            )
        };
        println!(
            "{}",
            row([
                fmt(graceful * 100.0),
                fmt(mean_over(&run(AlgorithmKind::MinimumDepth), |r| {
                    r.disruptions_per_mean_lifetime()
                })),
                fmt(mean_over(&run(AlgorithmKind::Rost), |r| {
                    r.disruptions_per_mean_lifetime()
                })),
            ])
        );
    }
}
