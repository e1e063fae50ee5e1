//! Temporal telemetry: fixed-interval epoch snapshots of the run.
//!
//! Every other section of a run document ([`RunDoc`](crate::RunDoc))
//! is an end-of-run roll-up, but the paper's
//! central claim — memoization makes simulation *converge* from slow
//! recording to fast replay — is a temporal phenomenon. The timeline
//! subsystem makes it visible: the driver closes an **epoch** every
//! [`TimelineConfig::epoch_steps`] simulator steps and records the
//! counter *deltas* accumulated since the previous close (steps split
//! by engine, instructions split by engine, misses, memoized bytes,
//! evictions, wall time). Epochs are sampled
//! off the hot path — at fast-burst exits and slow-step closes, never
//! per step — so a burst that overshoots a boundary simply closes one
//! larger epoch; the deltas stay exact either way.
//!
//! Exactness is the design invariant, and it holds by telescoping: each
//! epoch is `counters_now − counters_at_last_close`, and the driver
//! flushes the final partial epoch at snapshot time, so
//!
//! ```text
//! Σ epoch deltas  ==  final counters        (checked by sim_obs --check)
//! ```
//!
//! bit for bit, with no float in the stored records (per-epoch
//! `fast_fraction` is derived at render time). The retained-epoch ring
//! is capped ([`TimelineConfig::cap`]); overflowed epochs lose their
//! identity into [`TimelineMetrics::dropped_sum`] but never their
//! counts, so the recount invariant survives arbitrarily long runs.
//!
//! The **steady-state detector** answers ROADMAP item 2's question —
//! how long until the cache is warm? An epoch stream is *steady from
//! epoch e* when every epoch from `e` to the end has `fast_fraction`
//! within ε of the tail mean (the mean over the last K epochs) and at
//! least K epochs are in that span. The earliest such `e` is
//! `steady_state_epoch`; everything before it is warm-up
//! ([`Warmup::warmup_steps`], [`Warmup::warmup_wall_ns`]).
//!
//! Merging follows the crate's deterministic-partition discipline:
//! lane timelines concatenate in submission order through the same
//! capped push path a live stream takes, so a batch's merged document
//! is bit-for-bit the fold of its lanes (`sim_obs --check` refolds
//! batch files).

use crate::run::{counters, write_list, At, CacheStatsSnapshot, DocError, SimStatsSnapshot};
use std::fmt::Write as _;

/// Default epoch interval in simulator steps.
pub const DEFAULT_EPOCH_STEPS: u64 = 100_000;

/// Default retained-epoch ring capacity. Overflowed epochs fold into
/// [`TimelineMetrics::dropped_sum`] (counts kept, identity lost).
pub const DEFAULT_EPOCH_CAP: usize = 4096;

/// Default steady-state tolerance: an epoch is steady when its
/// fast-forwarded fraction is within this of the tail mean.
pub const DEFAULT_STEADY_EPS: f64 = 0.01;

/// Default steady-state window: the tail mean averages this many final
/// epochs, and at least this many consecutive steady epochs are
/// required before a steady state is declared.
pub const DEFAULT_STEADY_K: usize = 5;

/// Timeline construction options (part of
/// [`ObsConfig`](crate::ObsConfig)).
#[derive(Clone, Copy, Debug)]
pub struct TimelineConfig {
    /// Record epochs at all. Off by default: existing observers pay
    /// nothing new.
    pub enabled: bool,
    /// Epoch interval in simulator steps (fast + slow). 0 is treated
    /// as 1.
    pub epoch_steps: u64,
    /// Retained-epoch ring capacity.
    pub cap: usize,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            enabled: false,
            epoch_steps: DEFAULT_EPOCH_STEPS,
            cap: DEFAULT_EPOCH_CAP,
        }
    }
}

counters! {
    /// One closed epoch: pure counter deltas since the previous close.
    /// All integers — per-epoch rates and fractions are derived at
    /// render time so documents stay exactly mergeable.
    pub struct EpochRecord {
        /// Fast (replayed) steps completed this epoch.
        fast_steps,
        /// Slow (recorded) steps completed this epoch.
        slow_steps,
        /// Instructions retired by the fast engine this epoch.
        fast_insns,
        /// Instructions retired by the slow engine this epoch.
        slow_insns,
        /// Action-cache misses this epoch.
        misses,
        /// Bytes newly memoized this epoch (delta of `bytes_total`).
        cache_bytes,
        /// Storage generations evicted this epoch.
        cache_evictions,
        /// Wall-clock spent in this epoch, nanoseconds.
        wall_ns,
    }
}

impl EpochRecord {
    /// Simulator steps completed this epoch (both engines).
    pub fn steps(&self) -> u64 {
        self.fast_steps.saturating_add(self.slow_steps)
    }

    /// Instructions retired this epoch (both engines).
    pub fn insns(&self) -> u64 {
        self.fast_insns.saturating_add(self.slow_insns)
    }

    /// Fraction of this epoch's instructions retired by fast replay
    /// (0.0 for an empty epoch). The per-epoch analogue of
    /// [`SimStatsSnapshot::fast_forwarded_fraction`].
    pub fn fast_fraction(&self) -> f64 {
        let total = self.insns();
        if total == 0 {
            0.0
        } else {
            self.fast_insns as f64 / total as f64
        }
    }

    /// Simulated steps per second over this epoch's wall time.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Whether every counter (including wall time) is zero.
    pub fn is_zero(&self) -> bool {
        *self == EpochRecord::default()
    }

    /// One live-stream JSONL line for this epoch (`--timeline-stream`):
    /// the stored deltas plus the derived `steps` and `fast_fraction`,
    /// tagged with the epoch's absolute index.
    pub fn stream_json(&self, index: u64) -> String {
        let mut fields = String::with_capacity(256);
        self.write_json(&mut fields);
        format!(
            "{{\"epoch\":{index},\"steps\":{},{},\"fast_fraction\":{:.6}}}",
            self.steps(),
            &fields[1..fields.len() - 1],
            self.fast_fraction()
        )
    }
}

/// The detector's verdict: when the run reached steady state and what
/// the warm-up before it cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Warmup {
    /// Absolute index (counting dropped epochs) of the first epoch of
    /// the steady tail.
    pub steady_state_epoch: u64,
    /// Simulator steps completed before the steady tail began.
    pub warmup_steps: u64,
    /// Wall-clock spent before the steady tail began, nanoseconds.
    pub warmup_wall_ns: u64,
    /// Mean fast-forwarded fraction of the last `k` epochs.
    pub tail_mean: f64,
    /// Tolerance the detection used.
    pub eps: f64,
    /// Tail-window size the detection used.
    pub k: u64,
}

/// The epoch aggregate a timeline recorder maintains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineMetrics {
    /// Configured epoch interval in simulator steps.
    pub epoch_steps: u64,
    /// Retained-epoch ring capacity.
    pub cap: usize,
    /// Retained epochs, oldest first, at most `cap`.
    pub epochs: Vec<EpochRecord>,
    /// Epochs dropped from the front of the ring (identity lost).
    pub dropped: u64,
    /// Field-wise sum of every dropped epoch (counts kept).
    pub dropped_sum: EpochRecord,
    /// Field-wise sum of every epoch ever observed. The recount
    /// reference: equals the final counters when sampling started at
    /// step zero and the final partial epoch was flushed.
    pub totals: EpochRecord,
}

impl TimelineMetrics {
    /// An empty timeline with the given interval and ring capacity.
    pub fn new(epoch_steps: u64, cap: usize) -> TimelineMetrics {
        TimelineMetrics {
            epoch_steps: epoch_steps.max(1),
            cap: cap.max(1),
            epochs: Vec::new(),
            dropped: 0,
            dropped_sum: EpochRecord::default(),
            totals: EpochRecord::default(),
        }
    }

    /// Epochs ever observed (retained + dropped).
    pub fn epochs_total(&self) -> u64 {
        self.dropped.saturating_add(self.epochs.len() as u64)
    }

    /// Folds one closed epoch into the aggregate, evicting the oldest
    /// retained epoch into `dropped_sum` when the ring is full.
    pub fn observe_epoch(&mut self, rec: &EpochRecord) {
        self.totals.merge(rec);
        if self.epochs.len() >= self.cap {
            let evicted = self.epochs.remove(0);
            self.dropped = self.dropped.saturating_add(1);
            self.dropped_sum.merge(&evicted);
        }
        self.epochs.push(*rec);
    }

    /// Field-wise sum of the retained epochs.
    pub fn retained_sum(&self) -> EpochRecord {
        let mut sum = EpochRecord::default();
        for e in &self.epochs {
            sum.merge(e);
        }
        sum
    }

    /// Folds another timeline's epochs after this one's, exactly as if
    /// one recorder had observed the two epoch streams back to back
    /// (`self`'s first): `other`'s retained epochs push through the
    /// same capped ring path a live stream takes, and its overflow
    /// accounting carries over. A batch fold in submission order is
    /// therefore bit-for-bit a single-registry run over the
    /// concatenated stream. Lanes are expected to share one interval;
    /// if they differ the merged document keeps the larger.
    pub fn merge(&mut self, other: &TimelineMetrics) {
        self.epoch_steps = self.epoch_steps.max(other.epoch_steps);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.dropped_sum.merge(&other.dropped_sum);
        self.totals.merge(&other.totals);
        for rec in &other.epochs {
            if self.epochs.len() >= self.cap {
                let evicted = self.epochs.remove(0);
                self.dropped = self.dropped.saturating_add(1);
                self.dropped_sum.merge(&evicted);
            }
            self.epochs.push(*rec);
        }
    }

    /// The exactness gate: every counter in `totals` recounts the
    /// corresponding final counter bit for bit, and the retained epochs
    /// plus the overflow accounting recount `totals`. Returns every
    /// violation.
    pub fn check(&self, sim: &SimStatsSnapshot, cache: &CacheStatsSnapshot) -> Vec<String> {
        let t = &self.totals;
        let mut errs: Vec<String> = [
            ("fast_steps", t.fast_steps, sim.fast_steps),
            ("slow_steps", t.slow_steps, sim.slow_steps),
            ("fast_insns", t.fast_insns, sim.fast_insns),
            ("slow_insns", t.slow_insns, sim.slow_insns),
            ("misses", t.misses, sim.misses),
            ("cache_bytes", t.cache_bytes, cache.bytes_total),
            ("cache_evictions", t.cache_evictions, cache.evictions),
        ]
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what}: epochs sum to {got}, counters say {want}"))
        .collect();
        let mut ring = self.dropped_sum;
        ring.merge(&self.retained_sum());
        if ring != *t {
            errs.push(format!(
                "ring accounting: retained + dropped epochs sum to {} steps, totals say {}",
                ring.steps(),
                t.steps()
            ));
        }
        errs
    }

    /// Writes the timeline as one JSON object, with the steady-state
    /// detector's verdict (default tolerance and window) as a derived
    /// `warmup` member. Everything stored is an integer except the
    /// verdict's `tail_mean`/`eps`, written with fixed precision so
    /// identical folds serialize identically.
    pub(crate) fn write_json(&self, s: &mut String) {
        let _ = write!(
            s,
            "{{\"epoch_steps\":{},\"cap\":{},\"dropped\":{},\"dropped_sum\":",
            self.epoch_steps, self.cap, self.dropped
        );
        self.dropped_sum.write_json(s);
        s.push_str(",\"totals\":");
        self.totals.write_json(s);
        s.push_str(",\"epochs\":");
        write_list(s, &self.epochs, |s, e| e.write_json(s));
        if let Some(w) = self.detect(DEFAULT_STEADY_EPS, DEFAULT_STEADY_K) {
            let _ = write!(
                s,
                ",\"warmup\":{{\"steady_state_epoch\":{},\"warmup_steps\":{},\
                 \"warmup_wall_ns\":{},\"tail_mean\":{:.6},\"eps\":{:.6},\"k\":{}}}",
                w.steady_state_epoch, w.warmup_steps, w.warmup_wall_ns, w.tail_mean, w.eps, w.k
            );
        }
        s.push('}');
    }

    /// Reads a timeline back; the derived `warmup` member is ignored
    /// (readers rerun [`detect`](Self::detect)).
    pub(crate) fn read(at: &At<'_>) -> Result<TimelineMetrics, DocError> {
        let mut t = TimelineMetrics::new(at.u64_at("epoch_steps")?, at.u64_at("cap")? as usize);
        t.dropped = at.u64_at("dropped")?;
        t.dropped_sum = EpochRecord::read(&at.get("dropped_sum")?)?;
        t.totals = EpochRecord::read(&at.get("totals")?)?;
        t.epochs = at.get("epochs")?.list(EpochRecord::read)?;
        Ok(t)
    }

    /// Runs the steady-state detector over the retained epochs.
    ///
    /// The tail mean is the mean `fast_fraction` of the last `k`
    /// retained epochs. Scanning backwards from the end, the steady
    /// tail is the longest suffix whose every epoch is within `eps` of
    /// that mean; if the suffix holds at least `k` epochs, its first
    /// epoch (as an absolute index, counting dropped epochs) is the
    /// steady-state epoch and everything before it is warm-up. Returns
    /// `None` when fewer than `k` epochs were retained or the tail
    /// never settled.
    pub fn detect(&self, eps: f64, k: usize) -> Option<Warmup> {
        let n = self.epochs.len();
        if k == 0 || n < k {
            return None;
        }
        let tail_mean = self.epochs[n - k..]
            .iter()
            .map(EpochRecord::fast_fraction)
            .sum::<f64>()
            / k as f64;
        let mut first_steady = n;
        for (i, e) in self.epochs.iter().enumerate().rev() {
            if (e.fast_fraction() - tail_mean).abs() > eps {
                break;
            }
            first_steady = i;
        }
        if n - first_steady < k {
            return None;
        }
        let mut warm = self.dropped_sum;
        for e in &self.epochs[..first_steady] {
            warm.merge(e);
        }
        Some(Warmup {
            steady_state_epoch: self.dropped.saturating_add(first_steady as u64),
            warmup_steps: warm.steps(),
            warmup_wall_ns: warm.wall_ns,
            tail_mean,
            eps,
            k: k as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An epoch whose fast fraction is `num`/(`num`+`den`) with easy
    /// round numbers everywhere else.
    fn epoch(fast_insns: u64, slow_insns: u64) -> EpochRecord {
        EpochRecord {
            fast_steps: fast_insns / 10,
            slow_steps: slow_insns / 10,
            fast_insns,
            slow_insns,
            misses: slow_insns / 100,
            cache_bytes: slow_insns,
            cache_evictions: 0,
            wall_ns: 1_000,
        }
    }

    /// A convergence-shaped stream: mostly-slow start, fast steady tail.
    fn warming_stream() -> Vec<EpochRecord> {
        let mut v = vec![
            epoch(100, 900),
            epoch(500, 500),
            epoch(900, 100),
            epoch(985, 15),
        ];
        for _ in 0..8 {
            v.push(epoch(990, 10));
        }
        v
    }

    #[test]
    fn totals_recount_the_stream() {
        let mut t = TimelineMetrics::new(64, DEFAULT_EPOCH_CAP);
        let stream = warming_stream();
        for e in &stream {
            t.observe_epoch(e);
        }
        assert_eq!(t.epochs_total(), stream.len() as u64);
        assert_eq!(t.dropped, 0);
        let mut want = EpochRecord::default();
        for e in &stream {
            want.merge(e);
        }
        assert_eq!(t.totals, want);
        assert_eq!(t.retained_sum(), want);
    }

    #[test]
    fn ring_overflow_keeps_counts_and_drops_identity() {
        let mut t = TimelineMetrics::new(64, 4);
        let stream = warming_stream();
        for e in &stream {
            t.observe_epoch(e);
        }
        assert_eq!(t.epochs.len(), 4);
        assert_eq!(t.dropped, stream.len() as u64 - 4);
        let mut ring = t.dropped_sum;
        ring.merge(&t.retained_sum());
        assert_eq!(ring, t.totals, "nothing lost to the cap");
        // The retained epochs are the newest ones.
        assert_eq!(t.epochs[3], *stream.last().unwrap());
    }

    #[test]
    fn merge_of_split_streams_is_bit_for_bit_the_combined_stream() {
        let stream = warming_stream();
        let mut combined = TimelineMetrics::new(64, 6);
        for e in &stream {
            combined.observe_epoch(e);
        }
        let (first, second) = stream.split_at(5);
        let mut a = TimelineMetrics::new(64, 6);
        let mut b = TimelineMetrics::new(64, 6);
        for e in first {
            a.observe_epoch(e);
        }
        for e in second {
            b.observe_epoch(e);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn detector_finds_the_steady_tail() {
        let mut t = TimelineMetrics::new(64, DEFAULT_EPOCH_CAP);
        for e in warming_stream() {
            t.observe_epoch(&e);
        }
        let w = t.detect(DEFAULT_STEADY_EPS, DEFAULT_STEADY_K).unwrap();
        // Epochs 0..3 ramp up; the 0.985 epoch joins the 0.99 tail
        // within eps = 0.01.
        assert_eq!(w.steady_state_epoch, 3);
        let warm: u64 = warming_stream()[..3].iter().map(EpochRecord::steps).sum();
        assert_eq!(w.warmup_steps, warm);
        assert_eq!(w.warmup_wall_ns, 3_000);
        assert!((w.tail_mean - 0.99).abs() < 1e-9);
    }

    #[test]
    fn detector_rejects_unsettled_streams() {
        let mut t = TimelineMetrics::new(64, DEFAULT_EPOCH_CAP);
        for i in 0..12u64 {
            // Alternates between 0.2 and 0.8: never within eps of the
            // tail mean for 5 consecutive epochs.
            let e = if i % 2 == 0 {
                epoch(200, 800)
            } else {
                epoch(800, 200)
            };
            t.observe_epoch(&e);
        }
        assert!(t.detect(DEFAULT_STEADY_EPS, DEFAULT_STEADY_K).is_none());
        // And too-short streams never detect.
        let mut short = TimelineMetrics::new(64, DEFAULT_EPOCH_CAP);
        short.observe_epoch(&epoch(990, 10));
        assert!(short.detect(DEFAULT_STEADY_EPS, DEFAULT_STEADY_K).is_none());
    }

    /// A warming timeline and header counters it recounts exactly.
    fn sample() -> (TimelineMetrics, SimStatsSnapshot, CacheStatsSnapshot) {
        let mut timeline = TimelineMetrics::new(64, DEFAULT_EPOCH_CAP);
        for e in warming_stream() {
            timeline.observe_epoch(&e);
        }
        let t = timeline.totals;
        let sim = SimStatsSnapshot {
            insns: t.insns(),
            fast_insns: t.fast_insns,
            slow_insns: t.slow_insns,
            fast_steps: t.fast_steps,
            slow_steps: t.slow_steps,
            misses: t.misses,
            recoveries: t.misses,
            ..SimStatsSnapshot::default()
        };
        let cache = CacheStatsSnapshot {
            bytes_total: t.cache_bytes,
            evictions: t.cache_evictions,
            ..CacheStatsSnapshot::default()
        };
        (timeline, sim, cache)
    }

    fn json(t: &TimelineMetrics) -> String {
        let mut s = String::new();
        t.write_json(&mut s);
        s
    }

    #[test]
    fn section_round_trips_with_the_derived_verdict() {
        let (t, ..) = sample();
        let text = json(&t);
        let v = crate::json::parse(&text).unwrap();
        let back = TimelineMetrics::read(&At::root(&v)).unwrap();
        assert_eq!(back, t);
        assert_eq!(json(&back), text);
        let w = v.get("warmup").expect("the stream settles");
        assert_eq!(w.get("steady_state_epoch").and_then(crate::json::Value::as_u64), Some(3));
    }

    #[test]
    fn check_accepts_exact_timelines_and_reports_every_violation() {
        let (t, mut sim, cache) = sample();
        assert!(t.check(&sim, &cache).is_empty());
        sim.fast_insns += 1;
        sim.misses += 1;
        let errs = t.check(&sim, &cache);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].starts_with("fast_insns: epochs sum to"));
        assert!(errs[1].starts_with("misses: epochs sum to"));
        let (mut bad, sim, ..) = sample();
        bad.epochs.pop();
        let errs = bad.check(&sim, &cache);
        assert!(errs.iter().any(|e| e.starts_with("ring accounting")), "{errs:?}");
    }

    #[test]
    fn merged_sections_serialize_like_a_single_registry_fold() {
        let stream = warming_stream();
        let mut single = TimelineMetrics::new(64, DEFAULT_EPOCH_CAP);
        for e in &stream {
            single.observe_epoch(e);
        }
        let mut lane_a = TimelineMetrics::new(64, DEFAULT_EPOCH_CAP);
        let mut lane_b = TimelineMetrics::new(64, DEFAULT_EPOCH_CAP);
        let (first, second) = stream.split_at(4);
        for e in first {
            lane_a.observe_epoch(e);
        }
        for e in second {
            lane_b.observe_epoch(e);
        }
        lane_a.merge(&lane_b);
        assert_eq!(json(&lane_a), json(&single));
    }

    #[test]
    fn stream_json_carries_the_derived_fields() {
        let e = epoch(900, 100);
        let line = e.stream_json(7);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("steps").unwrap().as_u64(), Some(e.steps()));
        assert_eq!(v.get("fast_insns").unwrap().as_u64(), Some(900));
        let ff = v.get("fast_fraction").unwrap().as_f64().unwrap();
        assert!((ff - 0.9).abs() < 1e-6);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let t = TimelineMetrics::new(0, 0);
        assert_eq!(t.epoch_steps, 1);
        assert_eq!(t.cap, 1);
    }
}
