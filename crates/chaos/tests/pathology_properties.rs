//! Property-test wall for the link-pathology models.
//!
//! Every test here is pinned to explicit seeds — no wall-clock entropy,
//! no flaky tolerances. The statistical assertions use draw counts large
//! enough that the pinned streams land comfortably inside the bounds;
//! changing a model or the RNG fork discipline is *supposed* to trip
//! them.

use rom_chaos::{CapacitySegment, CapacityTrace, DelaySpikes, GilbertElliott, MobileProfile};
use rom_sim::SimRng;

/// Drives `chain` with `frames` uniforms from the `"chaos-link"` fork of
/// `seed` — the same fork label the streaming engine uses for episode
/// loss draws.
fn drive(chain: &mut GilbertElliott, seed: u64, frames: u64) {
    let mut rng = SimRng::seed_from(seed).fork("chaos-link");
    for _ in 0..frames {
        chain.classify(rng.uniform());
    }
}

#[test]
fn empirical_loss_rate_converges_to_the_stationary_rate() {
    // For every (rate, burst factor) pair and every pinned seed, the
    // empirical loss rate over 400k frames sits within 1% (absolute) of
    // the closed-form stationary rate — which `matched` makes exactly
    // the requested average.
    for &(avg_loss, burst_factor) in &[(0.05, 4.0), (0.1, 2.0), (0.2, 8.0)] {
        for &seed in &[3u64, 17, 101] {
            let mut chain = GilbertElliott::matched(avg_loss, burst_factor);
            assert!(
                (chain.stationary_loss_rate() - avg_loss).abs() < 1e-12,
                "matched() must pin the stationary rate to {avg_loss}"
            );
            drive(&mut chain, seed, 400_000);
            let err = (chain.empirical_loss_rate() - avg_loss).abs();
            assert!(
                err < 0.01,
                "rate {avg_loss} β {burst_factor} seed {seed}: empirical \
                 {:.5} drifted {err:.5} from stationary",
                chain.empirical_loss_rate()
            );
        }
    }
}

#[test]
fn burst_lengths_are_geometric() {
    // Burst lengths under the chain are geometric with mean
    // 1 / (1 - p_bad): check the sample mean against the closed form and
    // that the length histogram decays monotonically (modal length 1),
    // both hallmarks of the geometric law.
    let avg_loss = 0.1;
    let burst_factor = 6.0;
    let mut chain = GilbertElliott::matched(avg_loss, burst_factor);
    let expected_mean = chain.mean_burst_len();
    let mut rng = SimRng::seed_from(23).fork("chaos-link");
    let mut bursts: Vec<u64> = Vec::new();
    let mut current = 0u64;
    for _ in 0..600_000 {
        if chain.classify(rng.uniform()) {
            current += 1;
        } else if current > 0 {
            bursts.push(current);
            current = 0;
        }
    }
    assert!(bursts.len() > 5_000, "need many bursts for a stable mean");
    #[allow(clippy::cast_precision_loss)]
    let sample_mean = bursts.iter().sum::<u64>() as f64 / bursts.len() as f64;
    assert!(
        (sample_mean - expected_mean).abs() < 0.15,
        "sample mean burst {sample_mean:.3} vs closed-form {expected_mean:.3}"
    );
    let mut histogram = [0u64; 8];
    for &len in &bursts {
        let bucket = (len as usize - 1).min(histogram.len() - 1);
        histogram[bucket] += 1;
    }
    // The last bucket is a catch-all tail (length ≥ 8), so the decay
    // check runs over the exact-length buckets only.
    for pair in histogram[..histogram.len() - 1].windows(2) {
        assert!(
            pair[0] >= pair[1],
            "geometric burst-length counts must decay: {histogram:?}"
        );
    }
}

#[test]
fn chain_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut chain = GilbertElliott::matched(0.12, 5.0);
        let mut rng = SimRng::seed_from(seed).fork("chaos-link");
        (0..10_000)
            .map(|_| chain.classify(rng.uniform()))
            .collect::<Vec<bool>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds must diverge");
}

#[test]
fn capacity_traces_stay_positive_and_hit_exact_endpoints() {
    let traces = [
        CapacityTrace::new(vec![
            CapacitySegment::Ramp {
                secs: 10.0,
                from: 1.0,
                to: 0.25,
            },
            CapacitySegment::Step {
                secs: 20.0,
                factor: 0.25,
            },
            CapacitySegment::Ramp {
                secs: 5.0,
                from: 0.25,
                to: 1.0,
            },
        ]),
        CapacityTrace::handover(20.0, 5.0, 10.0, 0.2, 3),
    ];
    for trace in &traces {
        // Endpoints are *bitwise* exact — no float tolerance.
        assert_eq!(trace.factor_at(0.0), trace.start_factor());
        assert_eq!(trace.factor_at(trace.duration()), trace.end_factor());
        // Clamping outside the trace window.
        assert_eq!(trace.factor_at(-5.0), trace.start_factor());
        assert_eq!(trace.factor_at(trace.duration() + 100.0), trace.end_factor());
        // Dense sweep: a capacity factor can hit zero (outage) but never
        // go negative, and ramps stay within their endpoints.
        let steps = 4_000;
        for i in 0..=steps {
            let t = trace.duration() * f64::from(i) / f64::from(steps);
            let f = trace.factor_at(t);
            assert!(f >= 0.0, "factor {f} negative at offset {t}");
            assert!(f <= 1.0, "factor {f} above nominal at offset {t}");
        }
    }
}

#[test]
#[should_panic(expected = "factor")]
fn negative_capacity_factors_are_rejected() {
    let _ = CapacityTrace::new(vec![CapacitySegment::Step {
        secs: 1.0,
        factor: -0.1,
    }]);
}

#[test]
fn delay_spikes_have_exact_window_boundaries() {
    let spikes = DelaySpikes::new(30.0, 10.0, 2.0);
    // [0, 10) of every 30 s period is inside the spike.
    for period_start in [0.0, 30.0, 60.0, 900.0] {
        assert!(spikes.active_at(period_start));
        assert!(spikes.active_at(period_start + 9.999));
        assert!(!spikes.active_at(period_start + 10.0), "span end is open");
        assert!(!spikes.active_at(period_start + 29.999));
    }
    assert!(!spikes.active_at(-0.5), "nothing before the schedule starts");
    assert_eq!(spikes.extra_at(5.0), 2.0);
    assert_eq!(spikes.extra_at(15.0), 0.0);
}

#[test]
fn mobile_profile_composes_all_three_pathologies() {
    let profile = MobileProfile::handover(20.0, 5.0, 10.0, 0.2, 2, 0.15, 8.0, 1.5);
    let trace = &profile.capacity;
    // Two full handover cycles (dwell + ramp-down + outage + ramp-up)
    // plus the trailing clean dwell.
    assert_eq!(trace.duration(), 2.0 * (20.0 + 5.0 + 10.0 + 5.0) + 20.0);
    // Mid-dwell is clean, mid-handover sits at the degraded floor, and
    // the loss chain and bufferbloat spikes carry the requested knobs.
    assert_eq!(trace.factor_at(1.0), 1.0);
    assert_eq!(trace.factor_at(20.0 + 5.0 + 2.0), 0.2);
    assert!((profile.avg_loss - 0.15).abs() < 1e-12);
    assert!((profile.burst_factor - 8.0).abs() < 1e-12);
    assert_eq!(profile.spikes.extra, 1.5);
    // The spike schedule is phase-aligned with the first handover.
    assert_eq!(profile.spike_offset_secs(), 20.0);
}
