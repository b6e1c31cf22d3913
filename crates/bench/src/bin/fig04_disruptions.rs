//! Figure 4: average number of streaming disruptions per node vs network
//! size, for all five construction algorithms.
//!
//! Expected shape (paper §6): minimum-depth and longest-first worst and
//! most size-sensitive; relaxed BO better; relaxed TO better still; ROST
//! lowest, 36–57% below relaxed BO, and much less size-sensitive.

use rom_bench::{banner, churn_config, fmt, mean_over, replicate, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 4",
        "avg. streaming disruptions per node (per mean lifetime) vs steady-state size",
        scale,
    );
    let mut header = vec!["size".to_string(), "avg_population".to_string()];
    header.extend(AlgorithmKind::ALL.iter().map(|a| a.name().to_string()));
    println!("{}", row(header));
    let smallest = scale.sizes()[0];
    for size in scale.sizes() {
        let mut cells = vec![size.to_string()];
        let mut population = 0.0;
        let mut values = Vec::new();
        for alg in AlgorithmKind::ALL {
            // --trace/--profile capture the smallest ROST point
            // (smallest artifacts).
            let reports = replicate(
                "fig04_rost_smallest",
                |seed| churn_config(alg, size, seed),
                scale,
                scale
                    .sidecars()
                    .when(alg == AlgorithmKind::Rost && size == smallest),
            );
            population = mean_over(&reports, |r| r.population.mean());
            values.push(fmt(mean_over(&reports, |r| {
                r.disruptions_per_mean_lifetime()
            })));
        }
        cells.push(fmt(population));
        cells.extend(values);
        println!("{}", row(cells));
    }
}
