//! Figure 13: average starving-time ratio vs playback buffer size
//! (5–30 s) for recovery group sizes 1–3 at the focus size.
//!
//! Expected shape: larger buffers help, but adding one recovery node is
//! worth tens of seconds of buffer (K=2 at 5 s ≈ K=1 at ~27 s).

use rom_bench::{banner, fmt, mean_over, replicate, row, Scale};
use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 13",
        "avg. starving time ratio (%) vs buffer size (s), group sizes 1-3",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members");
    println!(
        "{}",
        row(["buffer_s".into(), "K=1".into(), "K=2".into(), "K=3".into()])
    );
    for buffer in [5.0f64, 10.0, 15.0, 20.0, 25.0, 30.0] {
        let mut cells = vec![fmt(buffer)];
        for k in 1..=3usize {
            // --trace/--profile capture the hardest cell: the smallest
            // buffer with a single recovery source.
            let reports = replicate(
                "fig13_buffer5_k1",
                |seed| {
                    let mut cfg = StreamingConfig::paper(
                        ChurnConfig::paper(AlgorithmKind::MinimumDepth, size).with_seed(seed),
                        k,
                    );
                    cfg.buffer_secs = buffer;
                    cfg
                },
                scale,
                scale.sidecars().when(buffer.to_bits() == (5.0f64).to_bits() && k == 1),
            );
            cells.push(fmt(mean_over(&reports, |r| {
                r.starving_ratio_percent.mean()
            })));
        }
        println!("{}", row(cells));
    }
}
