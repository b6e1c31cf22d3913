//! Figure 8: average network stretch (overlay delay / unicast delay) vs
//! network size. Same expected ordering as Figure 7.

use rom_bench::{banner, churn_config, fmt, mean_over, replicate, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 8",
        "avg. network stretch vs steady-state size",
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
                "fig08_rost_smallest",
                |seed| churn_config(alg, size, seed),
                scale,
                scale
                    .sidecars()
                    .when(alg == AlgorithmKind::Rost && size == smallest),
            );
            cells.push(fmt(mean_over(&reports, |r| r.stretch.mean())));
        }
        println!("{}", row(cells));
    }
}
