//! Ablation: ROST with and without the §3.3 bandwidth guard ("its
//! bandwidth is no less than the parent's bandwidth").
//!
//! The guard "avoids unnecessary switching since if the child has a
//! smaller bandwidth, the BTP will eventually be exceeded by the parent".
//! Removing it lets high-BTP free-riders climb over stronger parents:
//! switching overhead rises and the tree loses bandwidth ordering (taller,
//! slower), for no reliability gain.

use rom_bench::{banner, churn_config, fmt, mean_over, replicate, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Ablation A2",
        "ROST with vs without the bandwidth guard",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members");
    println!(
        "{}",
        row([
            "variant".into(),
            "disruptions".into(),
            "delay_ms".into(),
            "stretch".into(),
            "depth".into(),
            "reconnections".into(),
            "switches".into(),
        ])
    );
    for (name, guard) in [("guarded (paper)", true), ("unguarded", false)] {
        // --trace/--profile capture the paper (guarded) variant.
        let reports = replicate(
            "ablation_a2_guarded",
            |seed| {
                let mut cfg = churn_config(AlgorithmKind::Rost, size, seed);
                if !guard {
                    cfg.rost = cfg.rost.clone().without_bandwidth_guard();
                }
                cfg
            },
            scale,
            scale.sidecars().when(guard),
        );
        println!(
            "{}",
            row([
                name.to_string(),
                fmt(mean_over(&reports, |r| r.disruptions_per_mean_lifetime())),
                fmt(mean_over(&reports, |r| r.service_delay_ms.mean())),
                fmt(mean_over(&reports, |r| r.stretch.mean())),
                fmt(mean_over(&reports, |r| r.depth.mean())),
                fmt(mean_over(&reports, |r| r.reconnections_per_lifetime.mean())),
                fmt(mean_over(&reports, |r| r.switches as f64)),
            ])
        );
    }
}
