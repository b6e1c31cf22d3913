//! # rom — Resilient Overlay Multicast
//!
//! A from-scratch Rust reproduction of **"Improving the Fault Resilience
//! of Overlay Multicast for Media Streaming"** (Tan, Jarvis & Spooner,
//! DSN 2006): the **ROST** switching-tree algorithm, the **CER**
//! cooperative error-recovery protocol, the four baseline algorithms the
//! paper compares against, and the full simulation stack (event kernel,
//! GT-ITM-style transit-stub underlay, workload model, experiment
//! engines) needed to regenerate every evaluation figure.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a module of the same name.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `rom-sim` | event queue, virtual clock, deterministic RNG |
//! | [`obs`] | `rom-obs` | structured traces, metrics, run manifests |
//! | [`net`] | `rom-net` | transit-stub topologies, Dijkstra, delay oracle |
//! | [`stats`] | `rom-stats` | Bounded Pareto, lognormal, summaries, CDFs |
//! | [`overlay`] | `rom-overlay` | members, multicast tree, baseline algorithms |
//! | [`rost`] | `rom-rost` | BTP switching, locks, referees |
//! | [`cer`] | `rom-cer` | MLC groups, ELN, striped repair, buffers |
//! | [`engine`] | `rom-engine` | churn & streaming simulators, experiment configs |
//! | [`chaos`] | `rom-chaos` | fault-injection scenarios, runtime invariant registry |
//!
//! # Quickstart
//!
//! Compare ROST against minimum-depth on a small overlay:
//!
//! ```
//! use rom::engine::{AlgorithmKind, ChurnConfig, ChurnSim};
//!
//! let mut cfg = ChurnConfig::quick(AlgorithmKind::Rost, 200);
//! cfg.warmup_secs = 120.0;
//! cfg.measure_secs = 300.0;
//! let report = ChurnSim::new(cfg).run();
//! println!(
//!     "ROST: {:.2} disruptions per mean lifetime",
//!     report.disruptions_per_mean_lifetime()
//! );
//! # assert!(report.population.mean() > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! figure-regeneration harness.

pub use rom_cer as cer;
pub use rom_chaos as chaos;
pub use rom_engine as engine;
pub use rom_net as net;
pub use rom_obs as obs;
pub use rom_overlay as overlay;
pub use rom_rost as rost;
pub use rom_sim as sim;
pub use rom_stats as stats;
