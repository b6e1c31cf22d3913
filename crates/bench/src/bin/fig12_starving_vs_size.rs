//! Figure 12: average starving-time ratio vs network size for recovery
//! group sizes 1–4 (minimum-depth tree, cooperative recovery).
//!
//! Expected shape: a small increase in group size cuts the starving ratio
//! dramatically — group size 3 roughly an order of magnitude below size 1.

use rom_bench::{banner, fmt, mean_over, replicate, row, Scale};
use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 12",
        "avg. starving time ratio (%) vs steady-state size, group sizes 1-4",
        scale,
    );
    println!(
        "{}",
        row([
            "size".into(),
            "K=1".into(),
            "K=2".into(),
            "K=3".into(),
            "K=4".into(),
        ])
    );
    let smallest = scale.sizes()[0];
    for size in scale.sizes() {
        let mut cells = vec![size.to_string()];
        for k in 1..=4usize {
            // --trace/--profile capture the smallest K=1 point (smallest
            // artifacts).
            let reports = replicate(
                "fig12_k1_smallest",
                |seed| {
                    StreamingConfig::paper(
                        ChurnConfig::paper(AlgorithmKind::MinimumDepth, size).with_seed(seed),
                        k,
                    )
                },
                scale,
                scale.sidecars().when(k == 1 && size == smallest),
            );
            cells.push(fmt(mean_over(&reports, |r| {
                r.starving_ratio_percent.mean()
            })));
        }
        println!("{}", row(cells));
    }
}
