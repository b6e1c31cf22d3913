//! Figure 5: CDF of per-node disruption counts at the focus size (8000
//! members at paper scale).
//!
//! Expected shape: ROST's CDF dominates (shifted left — most members see
//! few disruptions); min-depth/longest-first have long right tails.

use rom_bench::{banner, churn_config, fmt, replicate, row, Scale};
use rom_engine::AlgorithmKind;
use rom_stats::Ecdf;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 5",
        "CDF of per-node disruption counts (power-of-two grid)",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members");

    // One pooled ECDF per algorithm across all seeds; --trace/--profile
    // capture the ROST run at the focus size.
    let cdfs: Vec<(AlgorithmKind, Ecdf)> = AlgorithmKind::ALL
        .into_iter()
        .map(|alg| {
            let reports = replicate(
                "fig05_rost_focus",
                |seed| churn_config(alg, size, seed),
                scale,
                scale.sidecars().when(alg == AlgorithmKind::Rost),
            );
            let samples = reports
                .iter()
                .flat_map(|r| r.disruption_counts.iter().copied());
            (alg, Ecdf::from_samples(samples))
        })
        .collect();

    let mut header = vec!["disruptions".to_string()];
    header.extend(cdfs.iter().map(|(a, _)| a.name().to_string()));
    println!("{}", row(header));
    for x in Ecdf::power_of_two_grid(128.0) {
        let mut cells = vec![fmt(x)];
        for (_, cdf) in &cdfs {
            cells.push(fmt(cdf.fraction_at_or_below(x) * 100.0));
        }
        println!("{}", row(cells));
    }
    println!("# values are cumulative percentages of nodes");
}
