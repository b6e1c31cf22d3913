//! Ablation: how much of CER's benefit comes from *minimum-loss-
//! correlation* group selection (Algorithm 1) versus simply having
//! multiple recovery sources?
//!
//! The paper motivates MLC with the failure-correlation argument (§4.1)
//! but does not isolate it experimentally; this ablation swaps Algorithm 1
//! for uniform random selection at equal group sizes, keeping everything
//! else fixed.

use rom_bench::{banner, fmt, mean_over, replicate, row, Scale};
use rom_engine::{AlgorithmKind, ChurnConfig, GroupSelection, StreamingConfig};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Ablation A1",
        "MLC (Algorithm 1) vs random recovery-group selection: starving ratio (%)",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members, cooperative recovery");
    println!(
        "{}",
        row([
            "group_size".into(),
            "mlc_mean".into(),
            "random_mean".into(),
            "mlc_advantage_%".into(),
        ])
    );
    for k in 1..=4usize {
        // --trace/--profile capture the MLC K=1 cell.
        let run = |selection: GroupSelection| {
            replicate(
                "ablation_a1_mlc_k1",
                |seed| {
                    let mut cfg = StreamingConfig::paper(
                        ChurnConfig::paper(AlgorithmKind::MinimumDepth, size).with_seed(seed),
                        k,
                    );
                    cfg.selection = selection;
                    cfg
                },
                scale,
                scale
                    .sidecars()
                    .when(k == 1 && selection == GroupSelection::MinimumLossCorrelation),
            )
        };
        let mlc = mean_over(&run(GroupSelection::MinimumLossCorrelation), |r| {
            r.starving_ratio_percent.mean()
        });
        let random = mean_over(&run(GroupSelection::Random), |r| {
            r.starving_ratio_percent.mean()
        });
        let advantage = if random > 0.0 {
            (1.0 - mlc / random) * 100.0
        } else {
            0.0
        };
        println!(
            "{}",
            row([k.to_string(), fmt(mlc), fmt(random), fmt(advantage)])
        );
    }
}
