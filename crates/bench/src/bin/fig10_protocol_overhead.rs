//! Figure 10: protocol overhead — optimization-induced reconnections per
//! node lifetime vs network size.
//!
//! Expected shape: minimum-depth and longest-first exactly zero; relaxed
//! BO/TO substantial (evictions); ROST far below one reconnection per
//! lifetime.

use rom_bench::{banner, churn_config, fmt, mean_over, replicate, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 10",
        "avg. optimization reconnections per node lifetime vs size",
        scale,
    );
    let mut header = vec!["size".to_string()];
    header.extend(AlgorithmKind::ALL.iter().map(|a| a.name().to_string()));
    println!("{}", row(header));
    let smallest = scale.sizes()[0];
    for size in scale.sizes() {
        let mut cells = vec![size.to_string()];
        for alg in AlgorithmKind::ALL {
            // --trace/--profile capture the smallest ROST point.
            let reports = replicate(
                "fig10_rost_smallest",
                |seed| churn_config(alg, size, seed),
                scale,
                scale
                    .sidecars()
                    .when(alg == AlgorithmKind::Rost && size == smallest),
            );
            cells.push(fmt(mean_over(&reports, |r| {
                r.reconnections_per_lifetime.mean()
            })));
        }
        println!("{}", row(cells));
    }
}
