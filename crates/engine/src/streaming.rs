//! The packet-level streaming simulation behind Figures 12–14.
//!
//! §6: "The data is propagated from the tree root at a constant rate of 10
//! packets per second... each node has a playback buffer size of 5
//! seconds... It is assumed that a member needs 5 seconds to detect a
//! failure of its parent, and another 10 seconds to rejoin the tree...
//! We only consider packet losses incurred by node failures. A node's
//! residual bandwidth is uniformly distributed in 0–9 packets/second, and
//! it only uses the residual bandwidth to help others in error recovery."
//!
//! The streaming layer rides on top of [`ChurnSim`](crate::ChurnSim):
//! departures open per-member *outages*; when a member's subtree
//! reattaches the outage closes and the missing sequence range is repaired
//! from the member's recovery group — a single source at its residual
//! rate (the baseline) or CER's stripes across the group (§4.2). Every
//! packet that misses its playback deadline contributes `1/rate` seconds
//! to the member's *starving time*; the **starving time ratio** is
//! starving time over view time.
//!
//! Between failures, delivery is deterministic (constant rate, fixed
//! path delay far below the buffer), so per-packet events are unnecessary:
//! accounting per outage is exact.

use std::collections::BTreeMap;

use rom_cer::{
    find_mlc_group, random_group, AncestorRecord, MlcOptions, PartialTree, RecoveryGroup,
    SeqRangeSet, StreamClock, StripePlan,
};
use rom_chaos::{CapacityTrace, DelaySpikes, GilbertElliott, InvariantRegistry, Signal};
use rom_net::{DelayOracle, UnderlayId};
use rom_obs::{Level, Obs, Subsystem, TraceEvent};
use rom_overlay::{MulticastTree, NodeId};
use rom_sim::{RunOutcome, SimRng, SimTime};
use rom_stats::Summary;

use crate::churn::{ChurnReport, ChurnSim};
use crate::config::{GroupSelection, RecoveryStrategy, StreamingConfig};

/// Latency added per recovery-chain hop (request forwarding + NACKs).
const CHAIN_HOP_SECS: f64 = 0.2;

/// Aggregate results of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Per-member starving-time ratio in percent — the Figs. 12–14 metric.
    /// One observation per member whose view overlapped the measurement
    /// window.
    pub starving_ratio_percent: Summary,
    /// Outages processed during the measurement window.
    pub outages: u64,
    /// Packets whose repair arrived by the playback deadline.
    pub packets_repaired_on_time: u64,
    /// Packets that missed their playback deadline (starved packets).
    pub packets_starved: u64,
    /// The underlying tree-level report.
    pub churn: ChurnReport,
}

impl StreamingReport {
    /// How the underlying event loop ended (see [`ChurnReport::outcome`]).
    #[must_use]
    pub fn outcome(&self) -> RunOutcome {
        self.churn.outcome
    }

    /// Total events the underlying simulation loop processed.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.churn.events_processed
    }

    /// Exact peak pending-event count of the underlying scheduler queue
    /// (see [`ChurnReport::queue_high_water`]).
    #[must_use]
    pub fn queue_high_water(&self) -> u64 {
        self.churn.queue_high_water
    }
}

/// An armed link-pathology episode on one member's access link (see
/// `rom_chaos::pathology`): bursty loss for the member's data stream,
/// capacity scaling and bloat spikes for the CER repair traffic that
/// crosses the same link. Pure sim-time state machines; the only
/// randomness is the uniforms the streaming layer feeds the loss chain
/// from its dedicated `"chaos-link"` RNG fork.
#[derive(Debug, Clone)]
pub(crate) struct LinkEpisode {
    /// The injecting action's name, for traces.
    pub(crate) kind: &'static str,
    /// Episode window on the sim clock.
    pub(crate) start: SimTime,
    /// Exclusive episode end.
    pub(crate) end: SimTime,
    /// Bursty loss on the member's access link, if any.
    pub(crate) loss: Option<GilbertElliott>,
    /// Capacity multiplier over the link's nominal rate, if any.
    pub(crate) capacity: Option<CapacityTrace>,
    /// Bufferbloat schedule (seconds), if any.
    pub(crate) spikes: Option<DelaySpikes>,
    /// Offset into the episode at which the spike schedule opens (the
    /// mobile profile aligns spikes with handovers, after the first
    /// dwell).
    pub(crate) spike_offset: f64,
}

impl LinkEpisode {
    /// The capacity multiplier and extra spike latency on the link at
    /// instant `t`: exactly `(1.0, 0.0)` outside the episode window, so
    /// pathology-free arithmetic is bit-identical to the baseline
    /// (`pps * 1.0 == pps`, `x + 0.0 == x`).
    fn quality_at(&self, t: SimTime) -> (f64, f64) {
        if t < self.start || t >= self.end {
            return (1.0, 0.0);
        }
        let offset = t - self.start;
        let factor = self.capacity.as_ref().map_or(1.0, |c| c.factor_at(offset));
        let extra = self
            .spikes
            .as_ref()
            .map_or(0.0, |s| s.extra_at(offset - self.spike_offset));
        (factor, extra)
    }

    /// Classifies one repair frame crossing the link at instant `t`
    /// through the loss chain. Draws exactly one `"chaos-link"` uniform
    /// when (and only when) the episode is lossy and active at `t`.
    fn frame_lost(&mut self, t: SimTime, link_rng: &mut SimRng) -> bool {
        if t < self.start || t >= self.end {
            return false;
        }
        self.loss
            .as_mut()
            .is_some_and(|chain| chain.classify(link_rng.uniform()))
    }
}

/// When repaired packets become requestable in `serve_repairs`.
enum RepairTiming {
    /// The whole gap becomes repairable at once (an outage closing).
    Batch(SimTime),
    /// Each packet's loss is detected `loss_detection_secs` after its
    /// generation (link-level losses under an armed pathology episode).
    PerPacket,
}

/// Per-member streaming bookkeeping.
#[derive(Debug, Default)]
struct MemberStream {
    /// When the member's view started (never negative; seeded members
    /// watch from the epoch).
    view_start: f64,
    /// Residual helper bandwidth in packets/second.
    residual_pps: f64,
    /// Open outage start, if the member is currently cut off.
    outage_since: Option<SimTime>,
    /// Packets the member never obtained (can't serve them to others).
    holes: SeqRangeSet,
    /// Packets that missed this member's playback deadline.
    starved_packets: u64,
    /// The pathology episode armed on the member's access link, if any;
    /// it departs with the member.
    episode: Option<Box<LinkEpisode>>,
    /// Losses of an episode that ended while the member was detached,
    /// waiting for it to reattach; they depart with the member, as an
    /// open outage does.
    held: Option<Box<HeldLosses>>,
}

/// A link episode's classified losses, on their way to repair.
#[derive(Debug)]
struct HeldLosses {
    /// The ended episode, whose pathology the repair traffic crosses.
    episode: Box<LinkEpisode>,
    /// Data frames the episode classified.
    frames: u64,
    /// Sequence numbers of the lost frames, ascending.
    lost: Vec<u64>,
}

/// The streaming layer state, driven by hooks from the churn simulator.
#[derive(Debug)]
pub(crate) struct StreamingState {
    clock: StreamClock,
    group_size: usize,
    strategy: RecoveryStrategy,
    selection: GroupSelection,
    loss_detection_secs: f64,
    repair_cache_secs: f64,
    residual_pps: (f64, f64),
    view_size: usize,
    window_start: SimTime,
    window_end: SimTime,
    rng: SimRng,
    /// Dedicated fork (`"chaos-link"`) feeding uniforms to the armed
    /// pathology loss chains — never touched while no episode is armed,
    /// so pathology-free runs stay bit-identical to the baseline.
    link_rng: SimRng,
    members: BTreeMap<NodeId, MemberStream>,
    /// Ratios of members that already departed.
    finished_ratios: Vec<f64>,
    outages: u64,
    repaired_on_time: u64,
    starved: u64,
}

impl StreamingState {
    pub(crate) fn new(cfg: &StreamingConfig, rng: SimRng, link_rng: SimRng) -> Self {
        let window_start = SimTime::from_secs(cfg.churn.warmup_secs);
        StreamingState {
            clock: cfg.clock(),
            group_size: cfg.recovery_group_size,
            strategy: cfg.strategy,
            selection: cfg.selection,
            loss_detection_secs: cfg.loss_detection_secs,
            repair_cache_secs: cfg.repair_cache_secs,
            residual_pps: cfg.residual_pps,
            view_size: cfg.churn.view_size,
            window_start,
            window_end: window_start + cfg.churn.measure_secs,
            rng,
            link_rng,
            members: BTreeMap::new(),
            finished_ratios: Vec::new(),
            outages: 0,
            repaired_on_time: 0,
            starved: 0,
        }
    }

    /// A member entered the overlay (fresh arrival or equilibrium seed).
    pub(crate) fn on_member_joined(&mut self, id: NodeId, join: SimTime) {
        let residual = self.rng.range_f64(
            self.residual_pps.0,
            self.residual_pps.1.max(self.residual_pps.0 + 1e-9),
        );
        self.members.insert(
            id,
            MemberStream {
                view_start: join.as_secs().max(0.0),
                residual_pps: residual,
                ..MemberStream::default()
            },
        );
    }

    /// A member departed; fold its starving ratio into the results when
    /// its view overlapped the measurement window.
    pub(crate) fn on_member_departed(&mut self, id: NodeId, now: SimTime) {
        if let Some(stream) = self.members.remove(&id) {
            if let Some(ratio) = self.ratio_of(&stream, now) {
                self.finished_ratios.push(ratio);
            }
        }
    }

    /// An abrupt departure cut `affected` members off the stream.
    pub(crate) fn on_failure(&mut self, affected: &[NodeId], now: SimTime, obs: &mut Obs) {
        let mut opened = 0u64;
        for &m in affected {
            if let Some(stream) = self.members.get_mut(&m) {
                if stream.outage_since.is_none() {
                    opened += 1;
                }
                stream.outage_since.get_or_insert(now);
            }
        }
        if opened > 0 {
            obs.count("streaming.outages_opened", opened);
            if obs.enabled(Subsystem::Streaming, Level::Info) {
                obs.emit(
                    TraceEvent::new(now.as_secs(), Subsystem::Streaming, "outage")
                        .u64("members", opened),
                );
            }
        }
    }

    /// The subtree rooted at `orphan` is attached again: repair the held
    /// link losses of every member in it, then close its outage and run
    /// recovery for the missed range.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_restore(
        &mut self,
        tree: &MulticastTree,
        oracle: &DelayOracle,
        live: &[NodeId],
        orphan: NodeId,
        now: SimTime,
        obs: &mut Obs,
        mut invariants: Option<&mut InvariantRegistry>,
    ) {
        let mut subtree = vec![orphan];
        tree.descendants_into(orphan, &mut subtree);
        for member in subtree {
            let Some(stream) = self.members.get_mut(&member) else {
                continue;
            };
            let outage = stream.outage_since.take();
            if let Some(held) = stream.held.take() {
                self.repair_link_losses(
                    tree,
                    oracle,
                    live,
                    member,
                    *held,
                    now,
                    obs,
                    invariants.as_deref_mut(),
                );
            }
            if let Some(t0) = outage {
                self.repair_outage(
                    tree,
                    oracle,
                    live,
                    member,
                    t0,
                    now,
                    obs,
                    invariants.as_deref_mut(),
                );
            }
        }
    }

    /// Arms a pathology episode on `member`'s access link. A newer
    /// episode simply replaces an older one (the stale end event is
    /// ignored by [`Self::on_link_episode_end`]'s guard).
    pub(crate) fn on_link_episode_start(
        &mut self,
        member: NodeId,
        episode: LinkEpisode,
        now: SimTime,
        obs: &mut Obs,
    ) {
        let Some(stream) = self.members.get_mut(&member) else {
            return;
        };
        if obs.is_active() {
            obs.count("chaos.link_episodes", 1);
            if obs.enabled(Subsystem::Chaos, Level::Info) {
                obs.emit(
                    TraceEvent::new(now.as_secs(), Subsystem::Chaos, "link_episode")
                        .u64("member", member.0)
                        .str("kind", episode.kind)
                        .f64("duration_secs", episode.end - episode.start),
                );
            }
        }
        stream.episode = Some(Box::new(episode));
    }

    /// An armed episode ran its course: disarm it, classify every data
    /// packet that crossed the member's access link through the episode's
    /// loss chain, and repair the lost ones from the member's recovery
    /// group (the repair traffic still experiences the episode's
    /// capacity/spike pathology). A detached member has no recovery group
    /// to ask, so its losses are held until [`Self::on_restore`]
    /// reattaches it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_link_episode_end(
        &mut self,
        tree: &MulticastTree,
        oracle: &DelayOracle,
        live: &[NodeId],
        member: NodeId,
        now: SimTime,
        obs: &mut Obs,
        invariants: Option<&mut InvariantRegistry>,
    ) {
        let Some(stream) = self.members.get_mut(&member) else {
            return; // the member departed, and its episode with it
        };
        // No episode: a newer one already ended. One ending later: this
        // is a stale end event, and the newer episode replaced this one.
        let Some(mut episode) = stream.episode.take_if(|ep| ep.end <= now) else {
            return;
        };
        let ep = &mut *episode;
        // Only packets the member actually streamed cross its link: clamp
        // the episode to the member's view, and stop at an open outage
        // (the outage repair accounts for everything after it).
        let mut start = ep.start;
        if stream.view_start > start.as_secs() {
            start = SimTime::from_secs(stream.view_start);
        }
        let mut end = if ep.end < now { ep.end } else { now };
        if let Some(t0) = stream.outage_since {
            if t0 < end {
                end = t0;
            }
        }
        let s0 = self.clock.seq_at(start);
        let s1 = self.clock.seq_at(end);
        let mut lost: Vec<u64> = Vec::new();
        if let Some(chain) = ep.loss.as_mut() {
            for seq in s0..s1 {
                if chain.classify(self.link_rng.uniform()) {
                    lost.push(seq);
                }
            }
        }
        if s1 > s0 && obs.is_active() {
            obs.count("chaos.link_frames", s1 - s0);
            obs.count("chaos.link_lost", lost.len() as u64);
        }
        if lost.is_empty() {
            return;
        }
        let held = HeldLosses {
            episode,
            frames: s1 - s0,
            lost,
        };
        if tree.is_attached(member) {
            self.repair_link_losses(tree, oracle, live, member, held, now, obs, invariants);
        } else {
            // Episodes arm only on attached members and reattaching
            // repairs what is held, so nothing is held yet.
            debug_assert!(stream.held.is_none(), "{member} already holds losses");
            stream.held = Some(Box::new(held));
        }
    }

    /// Repairs one ended episode's lost frames through the one repair
    /// body, each requested when its loss is detected.
    #[allow(clippy::too_many_arguments)]
    fn repair_link_losses(
        &mut self,
        tree: &MulticastTree,
        oracle: &DelayOracle,
        live: &[NodeId],
        member: NodeId,
        mut held: HeldLosses,
        now: SimTime,
        obs: &mut Obs,
        invariants: Option<&mut InvariantRegistry>,
    ) {
        let _span = tree.prof().span("cer.link_repair");
        let gap = held.lost.len() as u64;
        let (repaired, starved, _) = self.repair(
            tree,
            oracle,
            live,
            member,
            held.lost.into_iter(),
            gap,
            RepairTiming::PerPacket,
            Some(&mut *held.episode),
            now,
            obs,
            invariants,
        );
        if obs.is_active() {
            obs.count("cer.link_repairs", 1);
            obs.count("cer.packets_repaired", repaired);
            obs.count("cer.packets_starved", starved);
            if obs.enabled(Subsystem::Chaos, Level::Info) {
                obs.emit(
                    TraceEvent::new(now.as_secs(), Subsystem::Chaos, "link_episode_end")
                        .u64("member", member.0)
                        .u64("frames", held.frames)
                        .u64("lost", gap)
                        .u64("repaired", repaired)
                        .u64("starved", starved),
                );
            }
        }
    }

    /// Finalizes ratios of members still alive at the end of the run.
    pub(crate) fn into_report(mut self, churn: ChurnReport) -> StreamingReport {
        let end = self.window_end;
        let mut ratios = std::mem::take(&mut self.finished_ratios);
        // BTreeMap iteration is id-ordered, so the floating-point sum (and
        // hence the report) is identical across runs of the same seed.
        for stream in self.members.values() {
            if let Some(ratio) = self.ratio_of(stream, end) {
                ratios.push(ratio);
            }
        }
        StreamingReport {
            starving_ratio_percent: ratios.into_iter().collect(),
            outages: self.outages,
            packets_repaired_on_time: self.repaired_on_time,
            packets_starved: self.starved,
            churn,
        }
    }

    /// The member's starving-time ratio (in %) over the part of its view
    /// that overlapped the measurement window; `None` when the overlap is
    /// too short to be meaningful.
    fn ratio_of(&self, stream: &MemberStream, now: SimTime) -> Option<f64> {
        let start = stream.view_start.max(self.window_start.as_secs());
        let end = now.as_secs().min(self.window_end.as_secs());
        let view = end - start;
        if view < 30.0 {
            return None;
        }
        let starving_secs = stream.starved_packets as f64 / self.clock.rate_pps();
        Some((starving_secs / view * 100.0).min(100.0))
    }

    /// Selects the member's recovery group at repair time: gather a view,
    /// rebuild the partial tree from ancestor records, run Algorithm 1 (or
    /// the random baseline) and order the result by network distance.
    fn select_group(
        &mut self,
        tree: &MulticastTree,
        oracle: &DelayOracle,
        live: &[NodeId],
        member: NodeId,
    ) -> RecoveryGroup {
        let _span = tree.prof().span("cer.group_select");
        let view = self.rng.sample(live, self.view_size);
        let records: Vec<AncestorRecord> = view
            .iter()
            .filter(|&&v| v != member)
            .filter_map(|&v| AncestorRecord::from_tree(tree, v))
            .collect();
        let partial = PartialTree::from_records(&records);
        let mut exclude = tree.ancestors(member);
        exclude.push(member);
        let options = MlcOptions { exclude };
        let chosen = match self.selection {
            GroupSelection::MinimumLossCorrelation => {
                find_mlc_group(&partial, self.group_size, &options, &mut self.rng)
            }
            GroupSelection::Random => {
                random_group(&partial, self.group_size, &options, &mut self.rng)
            }
        };
        let member_loc = tree
            .profile(member)
            .map(|p| p.location)
            .expect("repairing member exists");
        let with_distance: Vec<(NodeId, f64)> = chosen
            .into_iter()
            .filter_map(|g| {
                let loc = tree.profile(g)?.location;
                Some((
                    g,
                    oracle.delay_ms(UnderlayId(member_loc.0), UnderlayId(loc.0)),
                ))
            })
            .collect();
        RecoveryGroup::ordered_by_distance(with_distance)
    }

    /// The group members able to serve repairs right now, with their
    /// residual rates, in group (distance) order.
    fn available_helpers(
        &self,
        tree: &MulticastTree,
        group: &RecoveryGroup,
    ) -> Vec<(NodeId, f64, usize)> {
        group
            .members()
            .iter()
            .enumerate()
            .filter_map(|(hop, &g)| {
                let stream = self.members.get(&g)?;
                if !tree.is_attached(g) || stream.residual_pps <= 0.0 {
                    return None;
                }
                Some((g, stream.residual_pps, hop))
            })
            .collect()
    }

    /// The one repair body behind outage and link-episode repairs: select
    /// `member`'s recovery group, signal it to the invariants, serve the
    /// missing `seqs` from the group's available helpers across the
    /// `episode` on the member's link, book the outcome when `now` lies
    /// in the measurement window, and fold the starved packets and new
    /// holes into the member's stream. Returns `(repaired, starved,
    /// helpers)`, where `helpers` counts the group members able to serve.
    #[allow(clippy::too_many_arguments)]
    fn repair(
        &mut self,
        tree: &MulticastTree,
        oracle: &DelayOracle,
        live: &[NodeId],
        member: NodeId,
        seqs: impl Iterator<Item = u64>,
        gap: u64,
        timing: RepairTiming,
        episode: Option<&mut LinkEpisode>,
        now: SimTime,
        obs: &mut Obs,
        invariants: Option<&mut InvariantRegistry>,
    ) -> (u64, u64, usize) {
        let group = self.select_group(tree, oracle, live, member);
        if let Some(registry) = invariants {
            registry.signal(
                tree,
                now,
                &Signal::RecoveryGroupChosen {
                    member,
                    group: group.members(),
                },
                obs,
            );
        }
        let available = self.available_helpers(tree, &group);
        let (on_time, starved, new_holes) = self.serve_repairs(
            tree, member, &available, seqs, gap, timing, episode, now, obs,
        );
        if now >= self.window_start && now <= self.window_end {
            self.starved += starved;
            self.repaired_on_time += on_time;
        }
        let stream = self
            .members
            .get_mut(&member)
            .expect("repairing member exists");
        stream.starved_packets += starved;
        for seq in new_holes {
            stream.holes.insert(seq);
        }
        (on_time, starved, available.len())
    }

    /// Serves the given missing packets from `available` under the
    /// configured strategy, returning `(repaired, starved, new_holes)`.
    ///
    /// CER stripes the gap across every available helper (§4.2); the
    /// single-source baseline is the same service over the nearest
    /// available helper alone, whose full-coverage plan assigns it every
    /// slot. Every repair frame crosses `member`'s access link, so the
    /// member's armed pathology `episode` applies to it exactly as to
    /// data: the capacity factor scales the server's rate, active bloat
    /// spikes add latency, and the loss chain may drop the frame outright.
    /// Outside an episode the pathology terms are the exact identities
    /// (`× 1.0`, `+ 0.0`, no draw), keeping baseline runs bit-identical.
    #[allow(clippy::too_many_arguments)]
    fn serve_repairs(
        &mut self,
        tree: &MulticastTree,
        member: NodeId,
        available: &[(NodeId, f64, usize)],
        seqs: impl Iterator<Item = u64>,
        gap: u64,
        timing: RepairTiming,
        mut episode: Option<&mut LinkEpisode>,
        now: SimTime,
        obs: &mut Obs,
    ) -> (u64, u64, Vec<u64>) {
        let helpers = match self.strategy {
            RecoveryStrategy::Cooperative => available,
            RecoveryStrategy::SingleSource => &available[..available.len().min(1)],
        };
        // The full-coverage plan assigns every slot even when the helpers'
        // residuals sum to less than a stream — each helper then serves
        // its (wider) stripe at its own rate, falling behind by exactly
        // the bandwidth shortfall, and the playback buffer decides how
        // much of that lateness turns into starvation.
        let fractions: Vec<f64> = helpers
            .iter()
            .map(|&(_, pps, _)| pps / self.clock.rate_pps())
            .collect();
        let plan = StripePlan::plan_full_coverage(&fractions);
        if self.strategy == RecoveryStrategy::Cooperative && obs.is_active() {
            // Stripe width = how many helpers the gap is striped across
            // (Fig. 12's group-size effect, observed).
            obs.count("cer.stripe_plans", 1);
            obs.observe("cer.stripe_width", plan.segments().len() as f64);
            if obs.enabled(Subsystem::Cer, Level::Info) {
                obs.emit(
                    TraceEvent::new(now.as_secs(), Subsystem::Cer, "stripe_plan")
                        .u64("member", member.0)
                        .u64("gap", gap)
                        .u64("width", plan.segments().len() as u64)
                        .f64("coverage", plan.coverage()),
                );
            }
        }
        let mut repaired_now = 0u64;
        let mut starved_now = 0u64;
        let mut new_holes: Vec<u64> = Vec::new();
        // Each helper's current busy period: when it began, the packets
        // served in it, and when the last of them is sent.
        let mut busy: Vec<(SimTime, u64, SimTime)> =
            vec![(SimTime::ZERO, 0, SimTime::ZERO); helpers.len()];
        for seq in seqs {
            let Some(idx) = plan.assigned_member(seq) else {
                // Residuals did not cover this stripe slot.
                starved_now += 1;
                new_holes.push(seq);
                continue;
            };
            let (server, pps, hop) = helpers[idx];
            // The instant the request reaches the helper, and the instant
            // it checks its repair cache: an outage's helpers check when
            // the outage closes, a link loss's when its request arrives.
            let (serve_start, cache_at) = match timing {
                RepairTiming::Batch(t) => (t + hop as f64 * CHAIN_HOP_SECS, now),
                RepairTiming::PerPacket => {
                    let t = self.clock.generation_time(seq)
                        + self.loss_detection_secs
                        + hop as f64 * CHAIN_HOP_SECS;
                    (t, t)
                }
            };
            if !self.has_packet(tree, server, seq, cache_at) {
                starved_now += 1;
                new_holes.push(seq);
                continue;
            }
            // A helper idle when the request arrives starts a new busy
            // period; a batch's requests reach a helper at one instant,
            // so a batch is always one busy period.
            let (since, served, until) = &mut busy[idx];
            if serve_start >= *until {
                *since = serve_start;
                *served = 0;
            }
            *served += 1;
            let (factor, extra) = episode
                .as_deref()
                .map_or((1.0, 0.0), |ep| ep.quality_at(serve_start));
            *until = *since + *served as f64 / (pps * factor);
            let arrival = *until + extra;
            if episode
                .as_deref_mut()
                .is_some_and(|ep| ep.frame_lost(serve_start, &mut self.link_rng))
            {
                obs.count("cer.repair_dropped", 1);
                starved_now += 1;
                new_holes.push(seq);
            } else if arrival <= self.clock.playback_deadline(seq) {
                repaired_now += 1;
            } else {
                starved_now += 1;
            }
        }
        (repaired_now, starved_now, new_holes)
    }

    /// True if `server` can supply packet `seq` from its repair cache at
    /// time `at`.
    fn has_packet(&self, tree: &MulticastTree, server: NodeId, seq: u64, at: SimTime) -> bool {
        if !tree.is_attached(server) {
            return false;
        }
        let Some(stream) = self.members.get(&server) else {
            return false;
        };
        let gen = self.clock.generation_time(seq);
        if gen.as_secs() < stream.view_start {
            return false; // joined after this packet went by
        }
        if at - gen > self.repair_cache_secs {
            return false; // evicted from the repair cache
        }
        !stream.holes.contains(seq)
    }

    /// Closes one outage `[t0, now)` for `member` and accounts the repair.
    #[allow(clippy::too_many_arguments)]
    fn repair_outage(
        &mut self,
        tree: &MulticastTree,
        oracle: &DelayOracle,
        live: &[NodeId],
        member: NodeId,
        t0: SimTime,
        now: SimTime,
        obs: &mut Obs,
        invariants: Option<&mut InvariantRegistry>,
    ) {
        let _span = tree.prof().span("cer.repair");
        let s0 = self.clock.seq_at(t0);
        let s1 = self.clock.seq_at(now);
        if s1 <= s0 {
            return;
        }
        if now >= self.window_start && now <= self.window_end {
            self.outages += 1;
        }
        let mut episode = self.members.get_mut(&member).and_then(|s| s.episode.take());
        let (repaired, starved, helpers) = self.repair(
            tree,
            oracle,
            live,
            member,
            s0..s1,
            s1 - s0,
            RepairTiming::Batch(t0 + self.loss_detection_secs),
            episode.as_deref_mut(),
            now,
            obs,
            invariants,
        );
        if let Some(stream) = self.members.get_mut(&member) {
            stream.episode = episode;
        }
        if obs.is_active() {
            obs.count("cer.repairs", 1);
            obs.count("cer.packets_repaired", repaired);
            obs.count("cer.packets_starved", starved);
            obs.observe("cer.repair_latency_secs", now - t0);
            if obs.enabled(Subsystem::Cer, Level::Info) {
                obs.emit(
                    TraceEvent::new(now.as_secs(), Subsystem::Cer, "repair")
                        .u64("member", member.0)
                        .u64("gap", s1 - s0)
                        .u64("helpers", helpers as u64)
                        .u64("repaired", repaired)
                        .u64("starved", starved)
                        .f64("starved_secs", starved as f64 / self.clock.rate_pps())
                        .f64("latency_secs", now - t0)
                        .str(
                            "strategy",
                            match self.strategy {
                                RecoveryStrategy::Cooperative => "cooperative",
                                RecoveryStrategy::SingleSource => "single_source",
                            },
                        ),
                );
            }
        }
    }
}

/// The packet-level streaming simulator (Figs. 12–14).
///
/// # Examples
///
/// ```
/// use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig, StreamingSim};
///
/// let mut churn = ChurnConfig::quick(AlgorithmKind::MinimumDepth, 120);
/// churn.warmup_secs = 120.0;
/// churn.measure_secs = 300.0;
/// let report = StreamingSim::new(StreamingConfig::paper(churn, 2)).run();
/// assert!(report.starving_ratio_percent.count() > 50);
/// ```
#[derive(Debug)]
pub struct StreamingSim {
    inner: ChurnSim,
}

impl StreamingSim {
    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`StreamingConfig::validate`]).
    #[must_use]
    pub fn new(cfg: StreamingConfig) -> Self {
        cfg.validate();
        StreamingSim {
            inner: ChurnSim::new_with_streaming(cfg),
        }
    }

    /// Runs to completion.
    #[must_use]
    pub fn run(self) -> StreamingReport {
        self.run_inner(Obs::disabled(), None).0
    }

    /// Runs with the given observability pipeline installed and returns it
    /// (finished) alongside the report — see
    /// [`ChurnSim::run_with_obs`](crate::ChurnSim::run_with_obs).
    #[must_use]
    pub fn run_with_obs(self, obs: Obs) -> (StreamingReport, Obs) {
        let (report, _invariants, obs) = self.run_inner(obs, None);
        (report, obs)
    }

    /// Runs with the given invariant registry armed — see
    /// [`ChurnSim::run_checked`](crate::ChurnSim::run_checked). On top of
    /// the tree-level signals, the streaming layer reports every recovery
    /// group it selects.
    #[must_use]
    pub fn run_checked(
        self,
        registry: InvariantRegistry,
        obs: Obs,
    ) -> (StreamingReport, InvariantRegistry, Obs) {
        self.run_inner(obs, Some(registry))
    }

    /// Runs the churn simulator's event loop and folds its streaming
    /// layer into the report.
    fn run_inner(
        self,
        obs: Obs,
        invariants: Option<InvariantRegistry>,
    ) -> (StreamingReport, InvariantRegistry, Obs) {
        let (churn, streaming, obs, invariants) = self.inner.run_inner(obs, invariants);
        let report = streaming
            .expect("built with new_with_streaming")
            .into_report(churn);
        (report, invariants, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlgorithmKind, ChurnConfig};

    fn quick_streaming(
        group: usize,
        strategy: RecoveryStrategy,
        seed: u64,
        size: usize,
    ) -> StreamingConfig {
        let mut churn = ChurnConfig::quick(AlgorithmKind::MinimumDepth, size);
        churn.seed = seed;
        churn.warmup_secs = 150.0;
        churn.measure_secs = 500.0;
        let mut cfg = StreamingConfig::paper(churn, group);
        cfg.strategy = strategy;
        cfg
    }

    #[test]
    fn produces_ratios_and_outages() {
        // Size well above the root's out-degree (100), so that real
        // multi-level subtrees exist and departures actually disrupt.
        let report =
            StreamingSim::new(quick_streaming(2, RecoveryStrategy::Cooperative, 1, 400)).run();
        assert!(report.starving_ratio_percent.count() > 50);
        assert!(report.outages > 0, "some members must lose their parents");
        let mean = report.starving_ratio_percent.mean();
        assert!((0.0..=100.0).contains(&mean));
    }

    #[test]
    fn larger_groups_starve_less() {
        // Fig. 12's headline: group size 3 dramatically beats size 1.
        let mut small = 0.0;
        let mut large = 0.0;
        for seed in 1..=3 {
            small +=
                StreamingSim::new(quick_streaming(1, RecoveryStrategy::Cooperative, seed, 200))
                    .run()
                    .starving_ratio_percent
                    .mean();
            large +=
                StreamingSim::new(quick_streaming(3, RecoveryStrategy::Cooperative, seed, 200))
                    .run()
                    .starving_ratio_percent
                    .mean();
        }
        assert!(
            large < small,
            "group size 3 ({large:.4}) should starve less than size 1 ({small:.4})"
        );
    }

    #[test]
    fn cooperative_beats_single_source() {
        // Fig. 14's headline, at equal group size.
        let mut single = 0.0;
        let mut coop = 0.0;
        for seed in 1..=3 {
            single += StreamingSim::new(quick_streaming(
                3,
                RecoveryStrategy::SingleSource,
                seed,
                200,
            ))
            .run()
            .starving_ratio_percent
            .mean();
            coop += StreamingSim::new(quick_streaming(3, RecoveryStrategy::Cooperative, seed, 200))
                .run()
                .starving_ratio_percent
                .mean();
        }
        assert!(
            coop < single,
            "cooperative ({coop:.4}) should beat single-source ({single:.4})"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = StreamingSim::new(quick_streaming(2, RecoveryStrategy::Cooperative, 7, 120)).run();
        let b = StreamingSim::new(quick_streaming(2, RecoveryStrategy::Cooperative, 7, 120)).run();
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.packets_starved, b.packets_starved);
        assert_eq!(
            a.starving_ratio_percent.mean(),
            b.starving_ratio_percent.mean()
        );
    }

    #[test]
    fn bigger_buffers_starve_less() {
        // Fig. 13's trend.
        let base = quick_streaming(1, RecoveryStrategy::Cooperative, 5, 200);
        let mut tight = base.clone();
        tight.buffer_secs = 5.0;
        let mut roomy = base;
        roomy.buffer_secs = 30.0;
        let tight_ratio = StreamingSim::new(tight).run().starving_ratio_percent.mean();
        let roomy_ratio = StreamingSim::new(roomy).run().starving_ratio_percent.mean();
        assert!(
            roomy_ratio <= tight_ratio,
            "30 s buffer ({roomy_ratio:.4}) should not starve more than 5 s ({tight_ratio:.4})"
        );
    }
}

#[cfg(test)]
mod behavior_tests {
    use super::*;
    use crate::config::{AlgorithmKind, ChurnConfig, GroupSelection};

    fn base(seed: u64) -> StreamingConfig {
        let mut churn = ChurnConfig::quick(AlgorithmKind::MinimumDepth, 300);
        churn.seed = seed;
        churn.warmup_secs = 150.0;
        churn.measure_secs = 500.0;
        StreamingConfig::paper(churn, 2)
    }

    /// A tiny repair cache starves more: old packets age out of the
    /// helpers' buffers before the request arrives.
    #[test]
    fn short_repair_cache_hurts() {
        let mut starved_small = 0.0;
        let mut starved_large = 0.0;
        for seed in 1..=3 {
            let mut small = base(seed);
            small.repair_cache_secs = 6.0; // barely beyond the outage start
            let mut large = base(seed);
            large.repair_cache_secs = 300.0;
            starved_small += StreamingSim::new(small).run().starving_ratio_percent.mean();
            starved_large += StreamingSim::new(large).run().starving_ratio_percent.mean();
        }
        assert!(
            starved_large <= starved_small,
            "large cache ({starved_large:.4}) must not starve more than small ({starved_small:.4})"
        );
    }

    /// Zero residual bandwidth everywhere: nobody can repair anything, so
    /// the starving time equals the raw outage exposure, substantially
    /// above the repaired case.
    #[test]
    fn no_residual_bandwidth_means_no_repairs() {
        let mut crippled = base(4);
        crippled.residual_pps = (0.0, 1e-6);
        let crippled_report = StreamingSim::new(crippled).run();
        assert_eq!(
            crippled_report.packets_repaired_on_time, 0,
            "repairs need residual bandwidth"
        );
        let healthy_report = StreamingSim::new(base(4)).run();
        assert!(
            healthy_report.starving_ratio_percent.mean()
                < crippled_report.starving_ratio_percent.mean()
        );
    }

    /// MLC and random group selection are in the same performance range
    /// at small scale — the loss-correlation benefit only separates them
    /// when deep subtrees make correlated recovery-node failures likely
    /// (see the `ablation_group_selection` binary for the quantitative
    /// comparison at realistic sizes).
    #[test]
    fn mlc_selection_comparable_to_random_at_small_scale() {
        let run = |selection: GroupSelection| {
            let mut total = 0.0;
            for seed in 1..=4 {
                let mut cfg = base(seed);
                cfg.selection = selection;
                total += StreamingSim::new(cfg).run().starving_ratio_percent.mean();
            }
            total / 4.0
        };
        let mlc = run(GroupSelection::MinimumLossCorrelation);
        let random = run(GroupSelection::Random);
        assert!(mlc > 0.0 && random > 0.0);
        assert!(
            mlc <= random * 2.0 && random <= mlc * 2.0,
            "MLC ({mlc:.4}) and random ({random:.4}) should be within 2× at this scale"
        );
    }
}
