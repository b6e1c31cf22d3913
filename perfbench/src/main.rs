//! One benchmark cell per process.
//!
//! `perfbench-cell <mode> <workload> <seed> [profile-path]` builds the
//! workload's configuration from the seed, runs one cell on this thread
//! and prints one JSON object on stdout. Every layer is timed from
//! outside, around calls into the simulator's public API; nothing here
//! adds instrumentation inside the program.
//!
//! Modes:
//! - `full`: construct and run the cell; wall time, peak RSS, statistics.
//! - `setup`: the same configuration capped at one event, so the run is
//!   construction plus equilibrium seeding plus a single dispatch.
//! - `traced`: the underlay and delay-oracle calls, a one-event cell and
//!   a full cell under the span profiler; prints per-layer metrics and
//!   writes the span profile to `profile-path`.
//! - `checked`: a reduced-size cell of the workload's family under the
//!   full invariant registry.
//! - `spin`: the machine calibration figure only.

use std::fmt::Write as _;
use std::time::Instant;

use rom_chaos::InvariantRegistry;
use rom_engine::{
    AlgorithmKind, ChurnConfig, ChurnReport, ChurnSim, StreamingConfig, StreamingReport,
    StreamingSim,
};
use rom_net::{DelayOracle, TransitStubNetwork};
use rom_obs::{Obs, Prof, ProfReport, SpanStat};
use rom_sim::{RunOutcome, SimRng};

/// The benchmark's workloads; see `perfbench/README.md` for why each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RostChurn8k,
    BoChurn8k,
    CerStream1k,
}

/// Workload names as the benchmark's `--workload` flag spells them.
const WORKLOADS: [(&str, Workload); 3] = [
    ("rost-churn-8k", Workload::RostChurn8k),
    ("bo-churn-8k", Workload::BoChurn8k),
    ("cer-stream-1k", Workload::CerStream1k),
];

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|&&(_, w)| w == self)
            .map_or("?", |&(n, _)| n)
    }

    fn config(self, seed: u64) -> Config {
        match self {
            Workload::RostChurn8k => {
                Config::Churn(ChurnConfig::paper(AlgorithmKind::Rost, 8_000).with_seed(seed))
            }
            Workload::BoChurn8k => Config::Churn(
                ChurnConfig::paper(AlgorithmKind::RelaxedBandwidthOrdered, 8_000).with_seed(seed),
            ),
            Workload::CerStream1k => Config::Stream(StreamingConfig::paper(
                ChurnConfig::quick(AlgorithmKind::Rost, 1_000).with_seed(seed),
                4,
            )),
        }
    }

    /// The workload's algorithm and layers at 2k members with short
    /// windows, small enough to check every invariant after every event.
    fn reduced_config(self, seed: u64) -> Config {
        match self {
            Workload::RostChurn8k => {
                Config::Churn(ChurnConfig::mega(AlgorithmKind::Rost, 2_000).with_seed(seed))
            }
            Workload::BoChurn8k => Config::Churn(
                ChurnConfig::mega(AlgorithmKind::RelaxedBandwidthOrdered, 2_000).with_seed(seed),
            ),
            Workload::CerStream1k => Config::Stream(StreamingConfig::paper(
                ChurnConfig::quick(AlgorithmKind::Rost, 2_000).with_seed(seed),
                4,
            )),
        }
    }
}

#[derive(Debug, Clone)]
enum Config {
    Churn(ChurnConfig),
    Stream(StreamingConfig),
}

impl Config {
    fn churn(&self) -> &ChurnConfig {
        match self {
            Config::Churn(c) => c,
            Config::Stream(s) => &s.churn,
        }
    }

    fn one_event(mut self) -> Self {
        match &mut self {
            Config::Churn(c) => c.max_events = Some(1),
            Config::Stream(s) => s.churn.max_events = Some(1),
        }
        self
    }

    fn construct(self) -> Sim {
        match self {
            Config::Churn(c) => Sim::Churn(ChurnSim::new(c)),
            Config::Stream(s) => Sim::Stream(StreamingSim::new(s)),
        }
    }
}

enum Sim {
    Churn(ChurnSim),
    Stream(StreamingSim),
}

impl Sim {
    fn run(self) -> Stats {
        match self {
            Sim::Churn(s) => Stats::churn(&s.run()),
            Sim::Stream(s) => Stats::stream(&s.run()),
        }
    }

    fn run_with_obs(self, obs: Obs) -> Stats {
        match self {
            Sim::Churn(s) => Stats::churn(&s.run_with_obs(obs).0),
            Sim::Stream(s) => Stats::stream(&s.run_with_obs(obs).0),
        }
    }

    fn run_checked(self) -> (Stats, InvariantRegistry) {
        let registry = InvariantRegistry::with_all();
        match self {
            Sim::Churn(s) => {
                let (r, reg, _) = s.run_checked(registry, Obs::disabled());
                (Stats::churn(&r), reg)
            }
            Sim::Stream(s) => {
                let (r, reg, _) = s.run_checked(registry, Obs::disabled());
                (Stats::stream(&r), reg)
            }
        }
    }
}

/// The deterministic report fields the benchmark pins and prints.
#[derive(Debug)]
struct Stats {
    outcome: RunOutcome,
    events: u64,
    switches: u64,
    evictions: u64,
    rejections: u64,
    population_mean: f64,
    disruption_events: u64,
    disruptions_per_lifetime: f64,
    service_delay_ms: f64,
    queue_high_water: u64,
    stream: Option<StreamStats>,
}

#[derive(Debug)]
struct StreamStats {
    outages: u64,
    repaired: u64,
    starved: u64,
    starving_ratio_pct: f64,
}

impl Stats {
    fn churn(r: &ChurnReport) -> Self {
        Stats {
            outcome: r.outcome,
            events: r.events_processed,
            switches: r.switches,
            evictions: r.evictions,
            rejections: r.rejections,
            population_mean: r.population.mean(),
            disruption_events: r.disruption_events,
            disruptions_per_lifetime: r.disruptions_per_mean_lifetime(),
            service_delay_ms: r.service_delay_ms.mean(),
            queue_high_water: r.queue_high_water,
            stream: None,
        }
    }

    fn stream(r: &StreamingReport) -> Self {
        Stats {
            stream: Some(StreamStats {
                outages: r.outages,
                repaired: r.packets_repaired_on_time,
                starved: r.packets_starved,
                starving_ratio_pct: r.starving_ratio_percent.mean(),
            }),
            ..Stats::churn(&r.churn)
        }
    }

    /// `"name":value` pairs; floats print with every digit (`{:?}` is the
    /// shortest representation that reads back to the same bits).
    fn fields(&self) -> String {
        let outcome = match self.outcome {
            RunOutcome::Drained => "drained",
            RunOutcome::HorizonReached => "horizon",
            RunOutcome::BudgetExhausted => "budget",
        };
        let mut s = format!(
            "\"outcome\":\"{outcome}\",\"events\":{},\"switches\":{},\"evictions\":{},\
             \"rejections\":{},\"population_mean\":{:?},\"disruption_events\":{},\
             \"disruptions_per_lifetime\":{:?},\"service_delay_ms\":{:?},\"queue_high_water\":{}",
            self.events,
            self.switches,
            self.evictions,
            self.rejections,
            self.population_mean,
            self.disruption_events,
            self.disruptions_per_lifetime,
            self.service_delay_ms,
            self.queue_high_water,
        );
        if let Some(st) = &self.stream {
            let _ = write!(
                s,
                ",\"outages\":{},\"repaired\":{},\"starved\":{},\"starving_ratio_pct\":{:?}",
                st.outages, st.repaired, st.starved, st.starving_ratio_pct
            );
        }
        s
    }

    /// `"stats":{...},"digest":"<fnv1a of the stats text>"`.
    fn json(&self) -> String {
        let fields = self.fields();
        let digest = rom_obs::fnv1a(fields.as_bytes());
        format!("\"stats\":{{{fields}}},\"digest\":\"{digest:016x}\"")
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn peak_rss_bytes() -> u64 {
    rom_obs::peak_rss_bytes().unwrap_or(0)
}

/// Construct and run one untraced cell, timing from before construction
/// until the report is back.
fn timed_cell(cfg: Config) -> String {
    let start = Instant::now();
    let sim = cfg.construct();
    let construct_s = secs(start);
    let stats = sim.run();
    let wall_s = secs(start);
    format!(
        "{{\"construct_s\":{construct_s:?},\"wall_s\":{wall_s:?},\"peak_rss_bytes\":{},{}}}",
        peak_rss_bytes(),
        stats.json()
    )
}

/// Span totals aggregated over every path that ends in one span name.
#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    hist: [u64; rom_obs::PROF_HIST_BUCKETS],
}

impl Agg {
    fn of(report: &ProfReport, name: &str) -> Self {
        let mut agg = Agg::default();
        for s in report.spans.iter().filter(|s| s.name == name) {
            agg.add(s);
        }
        agg
    }

    fn at(report: &ProfReport, path: &str) -> Self {
        let mut agg = Agg::default();
        for s in report.spans.iter().filter(|s| s.path == path) {
            agg.add(s);
        }
        agg
    }

    fn add(&mut self, s: &SpanStat) {
        self.count += s.count;
        self.total_ns += s.total_ns;
        self.self_ns += s.self_ns;
        for &(b, c) in &s.hist {
            self.hist[b as usize] += c;
        }
    }

    fn ns_per_op(&self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }

    fn self_ns_per_op(&self) -> f64 {
        ratio(self.self_ns as f64, self.count as f64)
    }

    fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Upper edge of the log₂ bucket holding the 99th-percentile call.
    fn p99_ns(&self) -> f64 {
        let target = self.count - self.count / 100;
        let mut seen = 0;
        for (b, &c) in self.hist.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= target {
                return (2.0_f64).powi(b as i32 + 1);
            }
        }
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The profiled run: the benchmark opens its own `bench.*` spans around
/// each public call, and the simulator's spans nest under `bench.run`.
fn traced(workload: Workload, seed: u64, profile_path: &str) -> String {
    let cfg = workload.config(seed);
    let prof = Prof::enabled();
    // The same two calls, with the same RNG fork, that construction makes.
    let net = {
        let _g = prof.span("bench.net_generate");
        let mut topo_rng = SimRng::seed_from(seed).fork("topology");
        TransitStubNetwork::generate(&cfg.churn().topology, &mut topo_rng)
    };
    {
        let _g = prof.span("bench.oracle_build");
        std::hint::black_box(DelayOracle::build(&net));
    }
    {
        let _cell = prof.span("bench.setup_cell");
        let sim = {
            let _g = prof.span("bench.construct");
            cfg.clone().one_event().construct()
        };
        let _g = prof.span("bench.run");
        std::hint::black_box(sim.run());
    }
    let start = Instant::now();
    let sim = {
        let _g = prof.span("bench.construct");
        cfg.construct()
    };
    let stats = {
        let _g = prof.span("bench.run");
        sim.run_with_obs(Obs::disabled().with_prof(prof.clone()))
    };
    let wall_s = secs(start);
    let report = prof.report().expect("profiler enabled");
    let wall_ns = u64::try_from((wall_s * 1e9) as u128).unwrap_or(u64::MAX);
    let name = format!("perfbench-{}", workload.name());
    if let Err(e) = std::fs::write(
        profile_path,
        report.to_json(&name, seed, stats.events, wall_ns),
    ) {
        eprintln!("perfbench-cell: cannot write {profile_path}: {e}");
        std::process::exit(2);
    }

    // Wall of the profiled cell that no simulator root span covers.
    let construct = Agg::at(&report, "bench.construct");
    let run = Agg::at(&report, "bench.run");
    let unattributed = ratio(
        (construct.total_ns + run.self_ns) as f64,
        (construct.total_ns + run.total_ns) as f64,
    );
    let attempts = Agg::of(&report, "rost.attempt").count;
    let (repaired, starved) = stats
        .stream
        .as_ref()
        .map_or((0, 0), |st| (st.repaired, st.starved));
    let mut layer: Vec<(String, f64)> = vec![
        (
            "net.generate_s".into(),
            Agg::at(&report, "bench.net_generate").total_s(),
        ),
        (
            "net.oracle_build_s".into(),
            Agg::at(&report, "bench.oracle_build").total_s(),
        ),
        ("engine.construct_s".into(), construct.total_s()),
        (
            "engine.seed_s".into(),
            Agg::at(&report, "bench.setup_cell/bench.run").total_s(),
        ),
        (
            "engine.arrival.self_ns_per_op".into(),
            Agg::of(&report, "engine.arrival").self_ns_per_op(),
        ),
        (
            "engine.rejoin.self_ns_per_op".into(),
            Agg::of(&report, "engine.rejoin").self_ns_per_op(),
        ),
        ("engine.unattributed_frac".into(), unattributed),
    ];
    for span in [
        "overlay.switch_restamp",
        "overlay.remove",
        "overlay.reattach",
        "overlay.attach",
        "overlay.usurp",
        "overlay.replace",
        "overlay.find_eviction",
        "rost.lock_assembly",
        "cer.group_select",
        "cer.repair",
        "cer.eln_scope",
        "sim.queue",
    ] {
        layer.push((
            format!("{span}.ns_per_op"),
            Agg::of(&report, span).ns_per_op(),
        ));
    }
    layer.extend([
        (
            "overlay.switch_restamp.p99_ns".into(),
            Agg::of(&report, "overlay.switch_restamp").p99_ns(),
        ),
        ("overlay.evictions".into(), stats.evictions as f64),
        ("rost.attempt.count".into(), attempts as f64),
        (
            "rost.switch_ratio".into(),
            ratio(stats.switches as f64, attempts as f64),
        ),
        (
            "cer.on_time_ratio".into(),
            ratio(repaired as f64, (repaired + starved) as f64),
        ),
        ("sim.queue_high_water".into(), stats.queue_high_water as f64),
    ]);
    // Span counts are pure functions of the simulated run: the self-test
    // uses them to prove each workload still drives its layer.
    for span in [
        "cer.group_select",
        "overlay.switch",
        "overlay.find_eviction",
    ] {
        layer.push((format!("{span}.count"), Agg::of(&report, span).count as f64));
    }
    let mut out = format!("{{\"wall_s\":{wall_s:?},\"per_layer\":{{");
    for (i, (k, v)) in layer.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{k}\":{v:?}");
    }
    let _ = write!(out, "}},{}}}", stats.json());
    out
}

fn checked(workload: Workload, seed: u64) -> String {
    let (stats, registry) = workload.reduced_config(seed).construct().run_checked();
    let mut names: Vec<&str> = registry.violations().iter().map(|v| v.invariant).collect();
    names.sort_unstable();
    names.dedup();
    format!(
        "{{\"violations\":{},\"invariants\":{:?},{}}}",
        registry.violations().len(),
        names,
        stats.json()
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-cell full|setup|traced|checked <workload> <seed> [profile-path]\n       \
         perfbench-cell spin"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else { usage() };
    if mode == "spin" {
        println!(
            "{{\"calibration_spin_ns\":{:?}}}",
            rom_bench::calibration_spin_ns()
        );
        return;
    }
    let (Some(workload), Some(seed)) = (
        args.get(1).and_then(|w| Workload::parse(w)),
        args.get(2).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        usage()
    };
    let line = match mode.as_str() {
        "full" => timed_cell(workload.config(seed)),
        "setup" => timed_cell(workload.config(seed).one_event()),
        "traced" => traced(
            workload,
            seed,
            args.get(3).map_or_else(|| usage(), String::as_str),
        ),
        "checked" => checked(workload, seed),
        _ => usage(),
    };
    println!("{line}");
}
