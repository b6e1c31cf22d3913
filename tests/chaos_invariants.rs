//! Tier-1 chaos suite: every fault-injection scenario in the rom-chaos
//! catalogue runs through the full streaming engine with every runtime
//! invariant armed, across several seeds, and (a) no invariant ever
//! trips, (b) the observability trace of a (scenario, seed) pair is
//! byte-identical across repeated runs, and (c) the chaos RNG stream is
//! isolated — arming a do-nothing scenario does not perturb the run.

use rom::chaos::{ChaosAction, Injection, InvariantRegistry, Scenario};
use rom::engine::{AlgorithmKind, ChurnConfig, StreamingConfig, StreamingSim};
use rom::obs::{JsonlSink, Obs, SharedBuffer, Tracer};

const SEEDS: [u64; 3] = [11, 23, 47];

fn config(scenario: Option<&str>, seed: u64) -> StreamingConfig {
    let mut churn = ChurnConfig::quick(AlgorithmKind::Rost, 150);
    churn.seed = seed;
    churn.warmup_secs = 150.0;
    churn.measure_secs = 400.0;
    // Injections start after warmup equilibrium and finish inside the
    // measurement window.
    churn.chaos = scenario.map(|name| {
        Scenario::by_name(name, 180.0, 300.0).expect("catalogue scenario must resolve")
    });
    StreamingConfig::paper(churn, 2)
}

/// One fully-armed run of a catalogue scenario.
fn checked_run(scenario: &str, seed: u64) -> (Vec<u8>, InvariantRegistry) {
    checked(config(Some(scenario), seed))
}

/// One fully-armed run: the JSONL trace bytes and the registry with
/// whatever violations it accumulated.
fn checked(cfg: StreamingConfig) -> (Vec<u8>, InvariantRegistry) {
    let buffer = SharedBuffer::new();
    let obs = Obs::new(Tracer::to_sink(Box::new(JsonlSink::new(buffer.clone()))));
    let (_report, registry, _obs) =
        StreamingSim::new(cfg).run_checked(InvariantRegistry::with_all(), obs);
    (buffer.contents(), registry)
}

#[test]
fn every_scenario_upholds_every_invariant_across_seeds() {
    for scenario in Scenario::NAMES {
        for seed in SEEDS {
            let (trace, registry) = checked_run(scenario, seed);
            assert_eq!(registry.len(), 6, "the full invariant set must be armed");
            assert!(
                registry.is_clean(),
                "scenario `{scenario}` seed {seed} tripped: {:#?}",
                registry.violations()
            );
            assert!(!trace.is_empty(), "a checked run must leave a trace");
        }
    }
}

#[test]
fn checked_chaos_runs_are_byte_identical_per_seed() {
    for scenario in Scenario::NAMES {
        let (first, _) = checked_run(scenario, 11);
        let (second, _) = checked_run(scenario, 11);
        assert!(
            first == second,
            "scenario `{scenario}` seed 11: traces diverged between repeat runs"
        );
    }
}

#[test]
fn different_seeds_diverge_under_chaos() {
    let (a, _) = checked_run("combined", 11);
    let (b, _) = checked_run("combined", 23);
    assert_ne!(a, b, "distinct seeds must explore distinct executions");
}

#[test]
fn armed_baseline_matches_unarmed_run() {
    // The chaos RNG is a dedicated fork and the invariant registry only
    // reads engine state, so a scenario with zero injections must
    // reproduce the plain run event-for-event.
    let plain = StreamingSim::new(config(None, 11)).run();
    let (report, registry, _obs) = StreamingSim::new(config(Some("baseline"), 11))
        .run_checked(InvariantRegistry::with_all(), Obs::disabled());
    assert!(registry.is_clean());
    assert_eq!(plain.events_processed(), report.events_processed());
    assert_eq!(plain.outages, report.outages);
    assert_eq!(plain.packets_starved, report.packets_starved);
    assert_eq!(
        plain.starving_ratio_percent.mean().to_bits(),
        report.starving_ratio_percent.mean().to_bits()
    );
}

#[test]
fn injected_scenarios_actually_perturb_the_run() {
    let (baseline, _) = checked_run("baseline", 11);
    for scenario in [
        "correlated-failures",
        "flash-crowd",
        "flapping",
        "bandwidth-decay",
        "bursty-loss",
        "capacity-ramp",
        "bufferbloat",
        "mobile-member",
    ] {
        let (perturbed, _) = checked_run(scenario, 11);
        assert_ne!(
            baseline, perturbed,
            "scenario `{scenario}` left no mark on the trace"
        );
    }
}

/// A lossy link episode that ends while its member is cut off: every
/// member carries a bursty-loss episode ending at t=300, and clustered
/// failures just before it leave whole subtrees in an open outage (they
/// rejoin 15 s later). No recovery group may be chosen for a detached
/// member; the episode's losses are repaired once the member reattaches.
#[test]
fn link_episode_ending_inside_an_outage_is_repaired_on_reattach() {
    let episode_end = 300.0;
    let mut injections = vec![Injection {
        at_secs: 200.0,
        action: ChaosAction::BurstyLoss {
            fraction: 1.0,
            avg_loss: 0.1,
            burst_factor: 2.0,
            duration_secs: episode_end - 200.0,
        },
    }];
    for at_secs in [294.0, 296.0, 298.0] {
        injections.push(Injection {
            at_secs,
            action: ChaosAction::CorrelatedFailure { radius: 1 },
        });
    }
    let mut cfg = config(None, 11);
    cfg.churn.chaos = Some(Scenario {
        name: "episode-end-in-outage",
        injections,
    });
    let (trace, registry) = checked(cfg);
    assert!(
        registry.is_clean(),
        "an episode end inside an outage tripped: {:#?}",
        registry.violations()
    );
    let trace = String::from_utf8(trace).expect("JSONL trace is UTF-8");
    let reattach_repairs = trace
        .lines()
        .filter(|line| line.contains("\"kind\":\"link_episode_end\""))
        .filter(|line| !line.starts_with(&format!("{{\"t\":{episode_end},")))
        .count();
    assert!(
        reattach_repairs > 0,
        "no episode ended inside an outage, so the case went untested"
    );
}
