//! Figure 7: average end-to-end service delay vs network size.
//!
//! Expected shape: longest-first worst by far (tall tree); ROST the best
//! of the three distributed algorithms; centralized relaxed-BO the global
//! best with ROST within tens of percent.

use rom_bench::{banner, churn_config, fmt, mean_over, replicate, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 7",
        "avg. service delay (ms) vs steady-state size",
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
                "fig07_rost_smallest",
                |seed| churn_config(alg, size, seed),
                scale,
                scale
                    .sidecars()
                    .when(alg == AlgorithmKind::Rost && size == smallest),
            );
            cells.push(fmt(mean_over(&reports, |r| r.service_delay_ms.mean())));
        }
        println!("{}", row(cells));
    }
}
