//! Integration tests for the streaming experiments' headline shapes
//! (Figs. 12–14) at reduced scale.

use rom::chaos::{ChaosAction, Injection, Scenario};
use rom::engine::{AlgorithmKind, ChurnConfig, RecoveryStrategy, StreamingConfig, StreamingSim};
use rom::obs::{FieldValue, Obs, RingSink, Tracer};

fn config(
    algorithm: AlgorithmKind,
    k: usize,
    strategy: RecoveryStrategy,
    seed: u64,
) -> StreamingConfig {
    let mut churn = ChurnConfig::quick(algorithm, 400);
    churn.seed = seed;
    churn.warmup_secs = 200.0;
    churn.measure_secs = 700.0;
    let mut cfg = StreamingConfig::paper(churn, k);
    cfg.strategy = strategy;
    cfg
}

fn mean_ratio(
    algorithm: AlgorithmKind,
    k: usize,
    strategy: RecoveryStrategy,
    seeds: std::ops::RangeInclusive<u64>,
) -> f64 {
    let mut total = 0.0;
    let mut n = 0u32;
    for seed in seeds {
        let report = StreamingSim::new(config(algorithm, k, strategy, seed)).run();
        total += report.starving_ratio_percent.mean();
        n += 1;
    }
    total / f64::from(n)
}

/// Fig. 12: growing the recovery group size sharply reduces starvation.
#[test]
fn bigger_recovery_groups_starve_less() {
    let k1 = mean_ratio(
        AlgorithmKind::MinimumDepth,
        1,
        RecoveryStrategy::Cooperative,
        1..=3,
    );
    let k3 = mean_ratio(
        AlgorithmKind::MinimumDepth,
        3,
        RecoveryStrategy::Cooperative,
        1..=3,
    );
    assert!(
        k3 < k1 * 0.7,
        "K=3 ({k3:.3}%) should be well below K=1 ({k1:.3}%)"
    );
}

/// Fig. 14: cooperative striping beats single-source recovery at the same
/// group size.
#[test]
fn cooperative_recovery_beats_single_source() {
    let coop = mean_ratio(
        AlgorithmKind::MinimumDepth,
        3,
        RecoveryStrategy::Cooperative,
        1..=3,
    );
    let single = mean_ratio(
        AlgorithmKind::MinimumDepth,
        3,
        RecoveryStrategy::SingleSource,
        1..=3,
    );
    assert!(
        coop < single,
        "cooperative ({coop:.3}%) should beat single-source ({single:.3}%)"
    );
}

/// Fig. 14's combined claim: ROST+CER beats MinDepth+single-source by a
/// wide margin at equal group size.
#[test]
fn rost_cer_beats_baseline_scheme() {
    let baseline = mean_ratio(
        AlgorithmKind::MinimumDepth,
        2,
        RecoveryStrategy::SingleSource,
        1..=3,
    );
    let rost_cer = mean_ratio(AlgorithmKind::Rost, 2, RecoveryStrategy::Cooperative, 1..=3);
    assert!(
        rost_cer < baseline * 0.7,
        "ROST+CER ({rost_cer:.3}%) should be well below the baseline ({baseline:.3}%)"
    );
}

/// Fig. 13's direction: a larger playback buffer absorbs more repair
/// lateness.
#[test]
fn larger_buffers_starve_less() {
    let mut tight_total = 0.0;
    let mut roomy_total = 0.0;
    for seed in 1..=3 {
        let mut tight = config(
            AlgorithmKind::MinimumDepth,
            1,
            RecoveryStrategy::Cooperative,
            seed,
        );
        tight.buffer_secs = 5.0;
        let mut roomy = tight.clone();
        roomy.buffer_secs = 25.0;
        tight_total += StreamingSim::new(tight).run().starving_ratio_percent.mean();
        roomy_total += StreamingSim::new(roomy).run().starving_ratio_percent.mean();
    }
    assert!(
        roomy_total < tight_total,
        "25 s buffers ({roomy_total:.3}) should beat 5 s buffers ({tight_total:.3})"
    );
}

/// Streaming runs expose consistent bookkeeping: outages were observed,
/// repaired packets plus starved packets are plausible, ratios bounded.
#[test]
fn streaming_accounting_is_consistent() {
    let report = StreamingSim::new(config(
        AlgorithmKind::MinimumDepth,
        2,
        RecoveryStrategy::Cooperative,
        9,
    ))
    .run();
    assert!(report.outages > 0);
    assert!(report.packets_repaired_on_time + report.packets_starved > 0);
    assert!(report.starving_ratio_percent.count() > 100);
    assert!(report.starving_ratio_percent.mean() >= 0.0);
    assert!(report.starving_ratio_percent.max() <= 100.0);
    // The churn substrate beneath is intact.
    assert!(report.churn.population.mean() > 100.0);
}

/// Link losses are repaired as each one is detected: a helper's queue
/// drains between losses, and it checks its repair cache when the request
/// reaches it. So the on-time share of link-episode repairs holds up when
/// the episode outlasts the 120 s repair cache.
#[test]
fn link_repairs_stay_on_time_when_episodes_outlast_the_cache() {
    let on_time_share = |duration_secs: f64| {
        let mut churn = ChurnConfig::quick(AlgorithmKind::Rost, 250);
        churn.seed = 1;
        churn.warmup_secs = 150.0;
        churn.measure_secs = 600.0;
        churn.chaos = Some(Scenario {
            name: "uniform-link-loss",
            injections: vec![Injection {
                at_secs: 200.0,
                action: ChaosAction::BurstyLoss {
                    fraction: 0.3,
                    avg_loss: 0.1,
                    burst_factor: 1.0,
                    duration_secs,
                },
            }],
        });
        let (sink, handle) = RingSink::new(1 << 20);
        let _ = StreamingSim::new(StreamingConfig::paper(churn, 2))
            .run_with_obs(Obs::new(Tracer::to_sink(Box::new(sink))));
        let (mut repaired, mut starved) = (0u64, 0u64);
        for event in handle.events() {
            if event.kind != "link_episode_end" {
                continue;
            }
            if let (Some(&FieldValue::U64(r)), Some(&FieldValue::U64(s))) =
                (event.fields.get("repaired"), event.fields.get("starved"))
            {
                repaired += r;
                starved += s;
            }
        }
        assert!(repaired + starved > 0, "the episode must lose packets");
        repaired as f64 / (repaired + starved) as f64
    };
    let short = on_time_share(60.0);
    let long = on_time_share(360.0);
    assert!(
        long > 0.8 * short,
        "on-time share fell from {short:.3} (60 s episode) to {long:.3} (360 s)"
    );
}
