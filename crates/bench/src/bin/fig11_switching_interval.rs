//! Figure 11: effect of the ROST switching interval (four sub-plots:
//! disruptions, service delay, stretch, protocol overhead) at the focus
//! size.
//!
//! Expected shape: smaller intervals improve reliability, delay and
//! stretch at a modest overhead cost (≤ ~0.15 reconnections per lifetime
//! even at the smallest interval).

use rom_bench::{banner, churn_config, fmt, mean_over, replicate, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 11",
        "effect of the ROST switching interval (four sub-plots)",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members");
    println!(
        "{}",
        row([
            "interval_s".into(),
            "disruptions".into(),
            "service_delay_ms".into(),
            "stretch".into(),
            "reconnections".into(),
        ])
    );
    for interval in [480.0f64, 960.0, 1200.0, 1800.0] {
        // --trace/--profile capture the shortest-interval point (the
        // most switching activity).
        let reports = replicate(
            "fig11_interval_480",
            |seed| {
                let mut cfg = churn_config(AlgorithmKind::Rost, size, seed);
                cfg.rost = cfg.rost.with_switching_interval(interval);
                cfg
            },
            scale,
            scale.sidecars().when(interval.to_bits() == (480.0f64).to_bits()),
        );
        println!(
            "{}",
            row([
                fmt(interval),
                fmt(mean_over(&reports, |r| r.disruptions_per_mean_lifetime())),
                fmt(mean_over(&reports, |r| r.service_delay_ms.mean())),
                fmt(mean_over(&reports, |r| r.stretch.mean())),
                fmt(mean_over(&reports, |r| r.reconnections_per_lifetime.mean())),
            ])
        );
    }
}
