//! Link-level pathology models: bursty loss, time-varying capacity,
//! delay spikes and the composite "mobile member" access-link profile.
//!
//! The paper evaluates CER under uniform, independent packet loss, but
//! real access links fail in bursts: wireless fades, handovers and
//! bufferbloat produce *correlated* loss runs, capacity that collapses
//! and recovers over seconds, and latency spikes that outlive the
//! playback buffer. The models here are the deterministic building
//! blocks the scenario layer composes into such links:
//!
//! - [`GilbertElliott`] — the classic two-state bursty-loss chain, with
//!   a *matched-average* parameterization so burstiness can be swept at
//!   a fixed average loss rate;
//! - [`CapacityTrace`] — a piecewise step/ramp multiplier over a link's
//!   nominal capacity, advanced on sim time;
//! - [`DelaySpikes`] — a periodic bufferbloat schedule adding a fixed
//!   extra latency while a spike is active;
//! - [`MobileProfile`] — the composite of all three on a handover
//!   schedule (degrade → outage → recover, repeated).
//!
//! None of the models owns randomness: [`GilbertElliott::classify`]
//! consumes a caller-supplied uniform draw and everything else is a pure
//! function of sim time. The caller (the engine's streaming layer)
//! draws from its dedicated `chaos-link` RNG fork, so pathology stays
//! seed-deterministic and jobs-invariant.

/// A two-state Gilbert–Elliott bursty-loss chain.
///
/// The state is the previous frame's fate: after a delivered frame the
/// link is *good* and loses the next frame with probability
/// `p_loss_good`; after a lost frame it is *bad* and loses the next with
/// `p_loss_bad`. With `p_loss_bad > p_loss_good` losses cluster into
/// geometric bursts of mean length `1 / (1 − p_loss_bad)`; with the two
/// probabilities equal the chain degenerates to independent uniform loss.
///
/// The stationary loss rate is
/// `p_loss_good / (1 − p_loss_bad + p_loss_good)`.
///
/// # Examples
///
/// ```
/// use rom_chaos::GilbertElliott;
///
/// // 10% average loss in bursts of mean length 4 / (1 - 0.1).
/// let ge = GilbertElliott::matched(0.1, 4.0);
/// assert!((ge.stationary_loss_rate() - 0.1).abs() < 1e-12);
///
/// // Burst factor 1 is *exactly* independent uniform loss.
/// let uniform = GilbertElliott::matched(0.1, 1.0);
/// assert_eq!(uniform.loss_threshold(), 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    p_loss_good: f64,
    p_loss_bad: f64,
    /// Current state: true after a loss (bursting).
    bad: bool,
    frames: u64,
    losses: u64,
}

impl GilbertElliott {
    /// A chain with explicit per-state loss probabilities, starting in
    /// the good state.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`, if
    /// `p_loss_bad = 1` (bursts must terminate), or if both are zero-
    /// denominator degenerate (`p_loss_good = 0` is fine: the chain just
    /// never loses).
    #[must_use]
    pub fn new(p_loss_good: f64, p_loss_bad: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_loss_good),
            "p_loss_good must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&p_loss_bad),
            "p_loss_bad must be in [0, 1]"
        );
        assert!(
            p_loss_bad < 1.0,
            "p_loss_bad must be < 1 so every burst terminates"
        );
        GilbertElliott {
            p_loss_good,
            p_loss_bad,
            bad: false,
            frames: 0,
            losses: 0,
        }
    }

    /// The matched-average parameterization: a chain whose stationary
    /// loss rate is exactly `avg_loss` for *every* burst factor, so
    /// burstiness can be swept with the average held fixed.
    ///
    /// `burst_factor` ≥ 1 scales the mean burst length: the chain uses
    /// `p_loss_good = avg_loss / burst_factor` and
    /// `p_loss_bad = (burst_factor − 1 + avg_loss) / burst_factor`,
    /// giving mean burst length `burst_factor / (1 − avg_loss)`.
    ///
    /// At `burst_factor = 1` both probabilities equal `avg_loss`
    /// **exactly** (bit-for-bit, by construction of the formula), so the
    /// degenerate chain reproduces independent uniform loss draw for
    /// draw — the guarantee the streaming layer's β=1 episodes depend
    /// on.
    ///
    /// # Panics
    ///
    /// Panics if `avg_loss` is outside `[0, 1)` or `burst_factor < 1`.
    #[must_use]
    pub fn matched(avg_loss: f64, burst_factor: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&avg_loss),
            "avg_loss must be in [0, 1)"
        );
        assert!(burst_factor >= 1.0, "burst_factor must be >= 1");
        // (β − 1 + r) / β == 1 − (1 − r)/β algebraically, but this form
        // evaluates to exactly `r` at β = 1 in floating point.
        let p_loss_bad = (burst_factor - 1.0 + avg_loss) / burst_factor;
        GilbertElliott::new(avg_loss / burst_factor, p_loss_bad)
    }

    /// Loss probability of the good (delivering) state.
    #[must_use]
    pub fn p_loss_good(&self) -> f64 {
        self.p_loss_good
    }

    /// Loss probability of the bad (bursting) state.
    #[must_use]
    pub fn p_loss_bad(&self) -> f64 {
        self.p_loss_bad
    }

    /// Loss probability of the *current* state — the threshold the next
    /// uniform draw is compared against.
    #[must_use]
    pub fn loss_threshold(&self) -> f64 {
        if self.bad {
            self.p_loss_bad
        } else {
            self.p_loss_good
        }
    }

    /// Advances the chain by one frame using the caller's uniform draw
    /// `u ∈ [0, 1)`; returns true if the frame is lost. Exactly one draw
    /// per frame, so callers can interleave the chain with other draws
    /// on the same RNG stream deterministically.
    pub fn classify(&mut self, u: f64) -> bool {
        let lost = u < self.loss_threshold();
        self.bad = lost;
        self.frames += 1;
        self.losses += u64::from(lost);
        lost
    }

    /// True while the chain is inside a loss burst.
    #[must_use]
    pub fn bursting(&self) -> bool {
        self.bad
    }

    /// Frames classified so far.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Frames lost so far.
    #[must_use]
    pub fn losses(&self) -> u64 {
        self.losses
    }

    /// Empirical loss rate over the frames classified so far (0 when no
    /// frame was classified yet).
    #[must_use]
    pub fn empirical_loss_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.losses as f64 / self.frames as f64
        }
    }

    /// The chain's stationary loss rate
    /// `p_good / (1 − p_bad + p_good)`.
    #[must_use]
    pub fn stationary_loss_rate(&self) -> f64 {
        let denom = 1.0 - self.p_loss_bad + self.p_loss_good;
        self.p_loss_good / denom
    }

    /// Mean loss-burst length, `1 / (1 − p_loss_bad)` (bursts are
    /// geometric).
    #[must_use]
    pub fn mean_burst_len(&self) -> f64 {
        1.0 / (1.0 - self.p_loss_bad)
    }
}

/// One piece of a [`CapacityTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacitySegment {
    /// Hold the capacity factor constant for `secs`.
    Step {
        /// Segment length in seconds (> 0).
        secs: f64,
        /// Capacity multiplier over the nominal link rate (≥ 0).
        factor: f64,
    },
    /// Ramp linearly from `from` to `to` over `secs`.
    Ramp {
        /// Segment length in seconds (> 0).
        secs: f64,
        /// Starting multiplier (≥ 0).
        from: f64,
        /// Ending multiplier (≥ 0), attained exactly at the segment end.
        to: f64,
    },
}

impl CapacitySegment {
    fn secs(&self) -> f64 {
        match *self {
            CapacitySegment::Step { secs, .. } | CapacitySegment::Ramp { secs, .. } => secs,
        }
    }

    fn start_factor(&self) -> f64 {
        match *self {
            CapacitySegment::Step { factor, .. } => factor,
            CapacitySegment::Ramp { from, .. } => from,
        }
    }

    fn end_factor(&self) -> f64 {
        match *self {
            CapacitySegment::Step { factor, .. } => factor,
            CapacitySegment::Ramp { to, .. } => to,
        }
    }

    fn validate(&self) {
        let (secs, values): (f64, [f64; 2]) = match *self {
            CapacitySegment::Step { secs, factor } => (secs, [factor, factor]),
            CapacitySegment::Ramp { secs, from, to } => (secs, [from, to]),
        };
        assert!(
            secs > 0.0 && secs.is_finite(),
            "segment length must be positive and finite"
        );
        for v in values {
            assert!(
                v >= 0.0 && v.is_finite(),
                "capacity factors must be non-negative and finite"
            );
        }
    }
}

/// A time-varying per-link capacity multiplier: an ordered list of step
/// and ramp segments, evaluated against the offset since the trace was
/// armed (sim time, never wall clock). Values are multipliers over the
/// link's nominal capacity — `1.0` is unimpaired, `0.0` a dead link —
/// and are guaranteed non-negative by construction.
///
/// Endpoint contract: `factor_at(0)` is exactly the first segment's
/// starting value, `factor_at(duration())` (and anything later) exactly
/// the last segment's ending value, and at every interior boundary the
/// following segment's starting value — a ramp attains its `to` at its
/// boundary whenever the trace is continuous there.
///
/// # Examples
///
/// ```
/// use rom_chaos::{CapacitySegment, CapacityTrace};
///
/// let trace = CapacityTrace::new(vec![
///     CapacitySegment::Ramp { secs: 10.0, from: 1.0, to: 0.25 },
///     CapacitySegment::Step { secs: 5.0, factor: 0.25 },
/// ]);
/// assert_eq!(trace.factor_at(0.0), 1.0);
/// assert_eq!(trace.factor_at(5.0), 0.625);
/// assert_eq!(trace.factor_at(15.0), 0.25);
/// assert_eq!(trace.duration(), 15.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityTrace {
    segments: Vec<CapacitySegment>,
    duration: f64,
}

impl CapacityTrace {
    /// Builds a trace from ordered segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, any segment length is not
    /// positive, or any capacity factor is negative or non-finite.
    #[must_use]
    pub fn new(segments: Vec<CapacitySegment>) -> Self {
        assert!(!segments.is_empty(), "a capacity trace needs segments");
        let mut duration = 0.0;
        for seg in &segments {
            seg.validate();
            duration += seg.secs();
        }
        CapacityTrace { segments, duration }
    }

    /// Total trace length in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// The capacity multiplier at `offset_secs` since the trace was
    /// armed. Offsets before the start clamp to the first value,
    /// offsets at or past the end clamp to the last.
    #[must_use]
    pub fn factor_at(&self, offset_secs: f64) -> f64 {
        if offset_secs <= 0.0 {
            return self.segments[0].start_factor();
        }
        let mut start = 0.0;
        for seg in &self.segments {
            let end = start + seg.secs();
            if offset_secs < end {
                return match *seg {
                    CapacitySegment::Step { factor, .. } => factor,
                    CapacitySegment::Ramp { secs, from, to } => {
                        from + (to - from) * ((offset_secs - start) / secs)
                    }
                };
            }
            start = end;
        }
        self.segments[self.segments.len() - 1].end_factor()
    }

    /// The multiplier at offset 0.
    #[must_use]
    pub fn start_factor(&self) -> f64 {
        self.segments[0].start_factor()
    }

    /// The multiplier at and after `duration()`.
    #[must_use]
    pub fn end_factor(&self) -> f64 {
        self.segments[self.segments.len() - 1].end_factor()
    }

    /// The segments, in order.
    #[must_use]
    pub fn segments(&self) -> &[CapacitySegment] {
        &self.segments
    }

    /// A handover schedule: `cycles` repetitions of dwell at full
    /// capacity, ramp down to `degraded`, hold through the outage, ramp
    /// back up — ending with a final full-capacity dwell, so the trace
    /// both starts and ends at factor 1.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero or any duration/factor is invalid (see
    /// [`CapacityTrace::new`]).
    #[must_use]
    pub fn handover(
        dwell_secs: f64,
        ramp_secs: f64,
        outage_secs: f64,
        degraded: f64,
        cycles: usize,
    ) -> Self {
        assert!(cycles >= 1, "a handover trace needs at least one cycle");
        let mut segments = Vec::with_capacity(cycles * 4 + 1);
        for _ in 0..cycles {
            segments.push(CapacitySegment::Step {
                secs: dwell_secs,
                factor: 1.0,
            });
            segments.push(CapacitySegment::Ramp {
                secs: ramp_secs,
                from: 1.0,
                to: degraded,
            });
            segments.push(CapacitySegment::Step {
                secs: outage_secs,
                factor: degraded,
            });
            segments.push(CapacitySegment::Ramp {
                secs: ramp_secs,
                from: degraded,
                to: 1.0,
            });
        }
        segments.push(CapacitySegment::Step {
            secs: dwell_secs,
            factor: 1.0,
        });
        CapacityTrace::new(segments)
    }
}

/// A periodic bufferbloat schedule: every `period` time units the link's
/// queue bloats for `span` units, adding `extra` units of latency to
/// everything crossing it. Pure function of the offset since armed; the
/// unit is whatever clock the caller advances on (seconds in the
/// engine).
///
/// # Examples
///
/// ```
/// use rom_chaos::DelaySpikes;
///
/// let spikes = DelaySpikes::new(30.0, 10.0, 2.0);
/// assert_eq!(spikes.extra_at(0.0), 2.0);   // spike opens each period
/// assert_eq!(spikes.extra_at(10.0), 0.0);  // spike over
/// assert_eq!(spikes.extra_at(30.0), 2.0);  // next period
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySpikes {
    /// Spike period (> `span`).
    pub period: f64,
    /// Spike length (> 0), measured from each period start.
    pub span: f64,
    /// Extra latency added while a spike is active (> 0).
    pub extra: f64,
}

impl DelaySpikes {
    /// Builds a schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < span < period` and `extra > 0`, all finite.
    #[must_use]
    pub fn new(period: f64, span: f64, extra: f64) -> Self {
        assert!(
            period.is_finite() && span.is_finite() && extra.is_finite(),
            "spike parameters must be finite"
        );
        assert!(span > 0.0, "spike span must be positive");
        assert!(period > span, "spike period must exceed the span");
        assert!(extra > 0.0, "spike extra latency must be positive");
        DelaySpikes {
            period,
            span,
            extra,
        }
    }

    /// True while a spike is active at `offset` since the schedule was
    /// armed (negative offsets are never active).
    #[must_use]
    pub fn active_at(&self, offset: f64) -> bool {
        offset >= 0.0 && offset % self.period < self.span
    }

    /// The extra latency at `offset`: `extra` during a spike, 0 outside.
    #[must_use]
    pub fn extra_at(&self, offset: f64) -> f64 {
        if self.active_at(offset) {
            self.extra
        } else {
            0.0
        }
    }
}

/// The composite "mobile member" access link: a handover capacity
/// schedule, matched-average bursty loss and periodic bufferbloat, all
/// advanced on sim time from the episode start. The engine arms all
/// three on the victim's access link for the duration of the capacity
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MobileProfile {
    /// The handover capacity schedule; its duration is the episode
    /// length.
    pub capacity: CapacityTrace,
    /// Average packet-loss rate of the access link, in `[0, 1)`.
    pub avg_loss: f64,
    /// Gilbert–Elliott burst factor (≥ 1; 1 = uniform loss).
    pub burst_factor: f64,
    /// Bufferbloat schedule (seconds).
    pub spikes: DelaySpikes,
}

impl MobileProfile {
    /// A handover profile: capacity follows
    /// [`CapacityTrace::handover`], loss is
    /// [`GilbertElliott::matched`]`(avg_loss, burst_factor)`, and the
    /// bloat spikes are aligned with the handovers — one spike of
    /// `ramp + outage + ramp` seconds per cycle, opening when the
    /// ramp-down starts, adding `bloat_secs` of latency.
    ///
    /// # Panics
    ///
    /// Panics if any component parameter is invalid (see
    /// [`CapacityTrace::handover`], [`GilbertElliott::matched`],
    /// [`DelaySpikes::new`]).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn handover(
        dwell_secs: f64,
        ramp_secs: f64,
        outage_secs: f64,
        degraded: f64,
        cycles: usize,
        avg_loss: f64,
        burst_factor: f64,
        bloat_secs: f64,
    ) -> Self {
        // Validate the loss parameters eagerly (the chain itself is
        // built by the engine when the episode is armed).
        let _ = GilbertElliott::matched(avg_loss, burst_factor);
        let cycle = dwell_secs + ramp_secs + outage_secs + ramp_secs;
        let spikes = DelaySpikes::new(cycle, ramp_secs + outage_secs + ramp_secs, bloat_secs);
        // Shift is impossible with a pure modulo schedule, so open the
        // period at the ramp-down instead: the spike schedule starts at
        // the *first ramp*, i.e. the episode clock of the spikes is
        // offset by the initial dwell. The engine applies that offset
        // when it evaluates the schedule.
        MobileProfile {
            capacity: CapacityTrace::handover(dwell_secs, ramp_secs, outage_secs, degraded, cycles),
            avg_loss,
            burst_factor,
            spikes,
        }
    }

    /// The offset (seconds into the episode) at which the spike
    /// schedule starts: the first ramp-down, after the initial dwell.
    #[must_use]
    pub fn spike_offset_secs(&self) -> f64 {
        match self.capacity.segments().first() {
            Some(CapacitySegment::Step { secs, .. }) => *secs,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_is_stationary_at_the_requested_rate() {
        for &r in &[0.01, 0.05, 0.1, 0.3] {
            for &beta in &[1.0, 2.0, 4.0, 8.0, 32.0] {
                let ge = GilbertElliott::matched(r, beta);
                assert!(
                    (ge.stationary_loss_rate() - r).abs() < 1e-12,
                    "r={r} beta={beta}: stationary {}",
                    ge.stationary_loss_rate()
                );
                let expected_burst = beta / (1.0 - r);
                assert!(
                    (ge.mean_burst_len() - expected_burst).abs() < 1e-9,
                    "r={r} beta={beta}: mean burst {}",
                    ge.mean_burst_len()
                );
            }
        }
    }

    #[test]
    fn burst_factor_one_is_exactly_uniform() {
        for &r in &[0.02, 0.1, 0.37] {
            let mut ge = GilbertElliott::matched(r, 1.0);
            assert_eq!(ge.loss_threshold(), r);
            ge.classify(0.0); // force a loss
            assert_eq!(ge.loss_threshold(), r, "bad state must not change p");
        }
    }

    #[test]
    fn classify_updates_state_and_counters() {
        let mut ge = GilbertElliott::new(0.0, 0.9);
        assert!(!ge.classify(0.5)); // good state, p=0 -> delivered
        let mut bursty = GilbertElliott::new(1.0 - 1e-9, 0.9);
        assert!(bursty.classify(0.5)); // almost-sure loss
        assert!(bursty.bursting());
        assert!(bursty.classify(0.5)); // bad state, p=0.9
        assert!(!bursty.classify(0.95)); // burst ends
        assert!(!bursty.bursting());
        assert_eq!(bursty.frames(), 3);
        assert_eq!(bursty.losses(), 2);
    }

    #[test]
    #[should_panic(expected = "burst_factor must be >= 1")]
    fn sub_one_burst_factor_rejected() {
        let _ = GilbertElliott::matched(0.1, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        let _ = CapacityTrace::new(vec![CapacitySegment::Step {
            secs: 1.0,
            factor: -0.1,
        }]);
    }

    #[test]
    fn trace_interpolates_and_clamps() {
        let trace = CapacityTrace::new(vec![
            CapacitySegment::Step {
                secs: 4.0,
                factor: 1.0,
            },
            CapacitySegment::Ramp {
                secs: 10.0,
                from: 1.0,
                to: 0.5,
            },
        ]);
        assert_eq!(trace.factor_at(-1.0), 1.0);
        assert_eq!(trace.factor_at(2.0), 1.0);
        assert_eq!(trace.factor_at(9.0), 0.75);
        assert_eq!(trace.factor_at(14.0), 0.5);
        assert_eq!(trace.factor_at(100.0), 0.5);
        assert_eq!(trace.duration(), 14.0);
    }

    #[test]
    fn handover_trace_returns_to_nominal() {
        let trace = CapacityTrace::handover(20.0, 5.0, 10.0, 0.2, 3);
        assert_eq!(trace.start_factor(), 1.0);
        assert_eq!(trace.end_factor(), 1.0);
        assert_eq!(trace.duration(), 3.0 * (20.0 + 5.0 + 10.0 + 5.0) + 20.0);
        // Mid-outage of the first cycle: exactly degraded.
        assert_eq!(trace.factor_at(30.0), 0.2);
    }

    #[test]
    fn spikes_fire_on_schedule() {
        let spikes = DelaySpikes::new(30.0, 10.0, 2.0);
        assert!(spikes.active_at(0.0));
        assert!(spikes.active_at(9.999));
        assert!(!spikes.active_at(10.0));
        assert!(!spikes.active_at(29.999));
        assert!(spikes.active_at(30.0));
        assert!(!spikes.active_at(-1.0));
        assert_eq!(spikes.extra_at(65.0), 2.0);
        assert_eq!(spikes.extra_at(75.0), 0.0);
    }

    #[test]
    fn mobile_profile_composes() {
        let profile = MobileProfile::handover(20.0, 5.0, 10.0, 0.2, 2, 0.1, 6.0, 1.5);
        assert_eq!(profile.spike_offset_secs(), 20.0);
        assert_eq!(profile.spikes.period, 40.0);
        assert_eq!(profile.spikes.span, 20.0);
        assert_eq!(profile.capacity.duration(), 2.0 * 40.0 + 20.0);
    }
}
