//! The metrics registry.
//!
//! Extends the flat end-of-run counters (`SimStats`/`CacheStats`, which
//! stay authoritative in `facile-runtime`) with the distributions the
//! paper's evaluation needs to be *explained* rather than just totalled:
//! per-action replay counts, per-step latency histograms, recovery-depth
//! distribution and cache occupancy/clear tracking. All counters are
//! integers; updates are derived from [`TraceEvent`]s plus one dedicated
//! per-action hook kept separate because it is the hottest call site.

use crate::event::TraceEvent;
use crate::hist::LogHistogram;
use crate::run::{write_list, At, DocError};
use std::fmt::Write as _;

/// Most distinct divergent values kept per action in
/// [`Metrics::miss_values`]; further values collapse into the overflow
/// count so miss attribution stays bounded on adversarial workloads.
pub const MISS_VALUE_CAP: usize = 8;

/// Derived metrics, updated by observing the event stream.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Replays per action number (index = action id).
    pub action_replays: Vec<u64>,
    /// Instructions retired by fast replays of each action (exact: every
    /// retirement is a `CountInsns` op inside some action's op list).
    pub action_fast_insns: Vec<u64>,
    /// Times the slow engine recorded/visited each action's group.
    pub action_slow_visits: Vec<u64>,
    /// Instructions retired while the slow engine executed each action's
    /// group (recording runs only — recovery retires nothing).
    pub action_slow_insns: Vec<u64>,
    /// Ops of the lowered step program the slow engine executed, every
    /// slow step counted (miss recovery's shadow execution is not).
    pub slow_ops: u64,
    /// Action-cache nodes the fast engine walked: one lookup, residency
    /// check and successor choice each (divide by fast steps for walks
    /// per replayed step).
    pub replay_walks: u64,
    /// Replay ops the fast engine executed.
    pub replay_ops: u64,
    /// Action-cache misses charged to each action (the failing dynamic
    /// result test or missing plain successor).
    pub action_misses: Vec<u64>,
    /// Observed divergent values per action: `(value, times_seen)`, at
    /// most [`MISS_VALUE_CAP`] distinct values; overflow counted in
    /// [`miss_value_overflow`](Self::miss_value_overflow).
    pub miss_values: Vec<Vec<(i64, u64)>>,
    /// Misses whose divergent value did not fit in the per-action cap.
    pub miss_value_overflow: u64,
    /// Host-nanosecond latency of slow/complete steps.
    pub slow_step_ns: LogHistogram,
    /// Host-nanosecond latency of fast replay bursts.
    pub fast_burst_ns: LogHistogram,
    /// Steps covered per fast burst.
    pub fast_burst_steps: LogHistogram,
    /// Recovery-stack depth at each action-cache miss.
    pub recovery_depth: LogHistogram,
    /// Engine switches observed.
    pub engine_switches: u64,
    /// Misses observed.
    pub misses: u64,
    /// Recoveries completed.
    pub recoveries: u64,
    /// Clean (no-recovery) fast→slow boundary hand-offs.
    pub need_slow: u64,
    /// Cache clears observed.
    pub cache_clears: u64,
    /// Bytes held by the cache at its last observed clear.
    pub bytes_at_last_clear: u64,
    /// Cache generation evictions observed (generational policy).
    pub cache_evictions: u64,
    /// Bytes released by observed generation evictions (cumulative).
    pub bytes_evicted: u64,
    /// External calls observed in the trace.
    pub ext_calls: u64,
    /// Events evicted from the event ring without reaching a sink
    /// (snapshot taken when the registry is read out of the handle).
    pub dropped_events: u64,
    /// Capacity of the event ring, in events (same snapshot).
    pub ring_capacity: u64,
}

fn at_mut(v: &mut Vec<u64>, i: usize) -> &mut u64 {
    if i >= v.len() {
        v.resize(i + 1, 0);
    }
    &mut v[i]
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one replayed action and the instructions it retired (the
    /// hot hook).
    #[inline]
    pub fn action_replayed(&mut self, action: u32, insns: u64) {
        let i = action as usize;
        let c = at_mut(&mut self.action_replays, i);
        *c = c.saturating_add(1);
        let c = at_mut(&mut self.action_fast_insns, i);
        *c = c.saturating_add(insns);
    }

    /// Records one slow-engine execution of an action's group and the
    /// instructions it retired.
    #[inline]
    pub fn action_slow(&mut self, action: u32, insns: u64) {
        let i = action as usize;
        let c = at_mut(&mut self.action_slow_visits, i);
        *c = c.saturating_add(1);
        let c = at_mut(&mut self.action_slow_insns, i);
        *c = c.saturating_add(insns);
    }

    /// Records the ops one slow step executed.
    #[inline]
    pub fn slow_ops(&mut self, ops: u64) {
        self.slow_ops = self.slow_ops.saturating_add(ops);
    }

    /// Records the node walks and replay ops of one fast burst.
    #[inline]
    pub fn replay_counts(&mut self, walks: u64, ops: u64) {
        self.replay_walks = self.replay_walks.saturating_add(walks);
        self.replay_ops = self.replay_ops.saturating_add(ops);
    }

    /// Folds one trace event into the registry.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::EngineSwitch { .. } => {
                self.engine_switches = self.engine_switches.saturating_add(1);
            }
            TraceEvent::SlowStep { ns, .. } => {
                self.slow_step_ns.record(ns);
            }
            TraceEvent::FastBurst { steps, ns, .. } => {
                self.fast_burst_ns.record(ns);
                self.fast_burst_steps.record(steps);
            }
            TraceEvent::Miss {
                action,
                depth,
                value,
                ..
            } => {
                self.misses = self.misses.saturating_add(1);
                self.recovery_depth.record(depth);
                let i = action as usize;
                let c = at_mut(&mut self.action_misses, i);
                *c = c.saturating_add(1);
                if let Some(v) = value {
                    if i >= self.miss_values.len() {
                        self.miss_values.resize(i + 1, Vec::new());
                    }
                    let seen = &mut self.miss_values[i];
                    if let Some(slot) = seen.iter_mut().find(|(sv, _)| *sv == v) {
                        slot.1 = slot.1.saturating_add(1);
                    } else if seen.len() < MISS_VALUE_CAP {
                        seen.push((v, 1));
                    } else {
                        self.miss_value_overflow = self.miss_value_overflow.saturating_add(1);
                    }
                }
            }
            TraceEvent::RecoveryEnd { .. } => {
                self.recoveries = self.recoveries.saturating_add(1);
            }
            TraceEvent::NeedSlow { .. } => {
                self.need_slow = self.need_slow.saturating_add(1);
            }
            TraceEvent::CacheClear { bytes, .. } => {
                self.cache_clears = self.cache_clears.saturating_add(1);
                self.bytes_at_last_clear = bytes;
            }
            TraceEvent::CacheEvict { bytes, .. } => {
                self.cache_evictions = self.cache_evictions.saturating_add(1);
                self.bytes_evicted = self.bytes_evicted.saturating_add(bytes);
            }
            TraceEvent::ExtCall { .. } => {
                self.ext_calls = self.ext_calls.saturating_add(1);
            }
            // Snapshot traffic is accounted in `CacheStatsSnapshot`
            // (`bytes_frozen` / `frozen_gens`), not re-counted here.
            TraceEvent::RecoveryBegin { .. }
            | TraceEvent::Halt { .. }
            | TraceEvent::SnapshotLoad { .. }
            | TraceEvent::SnapshotSave { .. } => {}
        }
    }

    /// Merges another registry into this one, as if this registry had
    /// observed `other`'s event stream *after* its own.
    ///
    /// Per-action vectors add element-wise (growing to the longer
    /// length), scalar counters saturating-add, and histograms add
    /// bucket-wise. Per-action miss values keep this registry's
    /// first-seen order and append `other`'s new values in `other`'s
    /// order, so merging K registries that observed a partition of one
    /// event stream (in stream order) reproduces the combined registry
    /// bit-for-bit — including [`MISS_VALUE_CAP`] overflow accounting.
    ///
    /// `ring_capacity` takes the maximum (each worker owns a ring);
    /// `bytes_at_last_clear` takes `other`'s value when `other` observed
    /// any clear, matching the "after" ordering.
    pub fn merge(&mut self, other: &Metrics) {
        fn add_vec(dst: &mut Vec<u64>, src: &[u64]) {
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d = d.saturating_add(*s);
            }
        }
        add_vec(&mut self.action_replays, &other.action_replays);
        add_vec(&mut self.action_fast_insns, &other.action_fast_insns);
        add_vec(&mut self.action_slow_visits, &other.action_slow_visits);
        add_vec(&mut self.action_slow_insns, &other.action_slow_insns);
        add_vec(&mut self.action_misses, &other.action_misses);
        self.slow_ops = self.slow_ops.saturating_add(other.slow_ops);
        self.replay_walks = self.replay_walks.saturating_add(other.replay_walks);
        self.replay_ops = self.replay_ops.saturating_add(other.replay_ops);
        if self.miss_values.len() < other.miss_values.len() {
            self.miss_values.resize(other.miss_values.len(), Vec::new());
        }
        for (mine, theirs) in self.miss_values.iter_mut().zip(other.miss_values.iter()) {
            for &(v, c) in theirs {
                if let Some(slot) = mine.iter_mut().find(|(sv, _)| *sv == v) {
                    slot.1 = slot.1.saturating_add(c);
                } else if mine.len() < MISS_VALUE_CAP {
                    mine.push((v, c));
                } else {
                    self.miss_value_overflow = self.miss_value_overflow.saturating_add(c);
                }
            }
        }
        self.miss_value_overflow = self
            .miss_value_overflow
            .saturating_add(other.miss_value_overflow);
        self.slow_step_ns.merge(&other.slow_step_ns);
        self.fast_burst_ns.merge(&other.fast_burst_ns);
        self.fast_burst_steps.merge(&other.fast_burst_steps);
        self.recovery_depth.merge(&other.recovery_depth);
        self.engine_switches = self.engine_switches.saturating_add(other.engine_switches);
        self.misses = self.misses.saturating_add(other.misses);
        self.recoveries = self.recoveries.saturating_add(other.recoveries);
        self.need_slow = self.need_slow.saturating_add(other.need_slow);
        self.cache_clears = self.cache_clears.saturating_add(other.cache_clears);
        if other.cache_clears > 0 {
            self.bytes_at_last_clear = other.bytes_at_last_clear;
        }
        self.cache_evictions = self.cache_evictions.saturating_add(other.cache_evictions);
        self.bytes_evicted = self.bytes_evicted.saturating_add(other.bytes_evicted);
        self.ext_calls = self.ext_calls.saturating_add(other.ext_calls);
        self.dropped_events = self.dropped_events.saturating_add(other.dropped_events);
        self.ring_capacity = self.ring_capacity.max(other.ring_capacity);
    }

    /// Total replays summed over every action.
    pub fn total_action_replays(&self) -> u64 {
        self.action_replays
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Total instructions attributed to actions, both engines. For a run
    /// observed end-to-end on a memoizing simulator this equals the
    /// runtime's `SimStats::insns`: instruction retirement is always a
    /// dynamic op inside some action, and recovery (which re-executes
    /// only the run-time-static slice) retires nothing.
    pub fn total_attributed_insns(&self) -> u64 {
        self.action_fast_insns
            .iter()
            .chain(self.action_slow_insns.iter())
            .fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Total misses attributed to actions (equals `misses` when every
    /// miss event carried an action, which the engines guarantee).
    pub fn total_attributed_misses(&self) -> u64 {
        self.action_misses
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }

    pub(crate) fn write_json(&self, s: &mut String) {
        let scalars = [
            ("engine_switches", self.engine_switches),
            ("misses", self.misses),
            ("recoveries", self.recoveries),
            ("need_slow", self.need_slow),
            ("cache_clears", self.cache_clears),
            ("bytes_at_last_clear", self.bytes_at_last_clear),
            ("cache_evictions", self.cache_evictions),
            ("bytes_evicted", self.bytes_evicted),
            ("ext_calls", self.ext_calls),
            ("dropped_events", self.dropped_events),
            ("ring_capacity", self.ring_capacity),
            ("miss_value_overflow", self.miss_value_overflow),
            ("slow_ops", self.slow_ops),
            ("replay_walks", self.replay_walks),
            ("replay_ops", self.replay_ops),
        ];
        s.push('{');
        for (i, (k, v)) in scalars.iter().enumerate() {
            let _ = write!(s, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
        }
        for (k, counts) in [
            ("action_replays", &self.action_replays),
            ("action_fast_insns", &self.action_fast_insns),
            ("action_slow_visits", &self.action_slow_visits),
            ("action_slow_insns", &self.action_slow_insns),
            ("action_misses", &self.action_misses),
        ] {
            let _ = write!(s, ",\"{k}\":");
            write_list(s, counts, |s, c| {
                let _ = write!(s, "{c}");
            });
        }
        s.push_str(",\"miss_values\":");
        write_list(s, &self.miss_values, |s, vals| {
            write_list(s, vals, |s, (v, c)| {
                let _ = write!(s, "[{v},{c}]");
            });
        });
        for (k, h) in [
            ("slow_step_ns", &self.slow_step_ns),
            ("fast_burst_ns", &self.fast_burst_ns),
            ("fast_burst_steps", &self.fast_burst_steps),
            ("recovery_depth", &self.recovery_depth),
        ] {
            let _ = write!(s, ",\"{k}\":{}", h.to_json());
        }
        s.push('}');
    }

    pub(crate) fn read(at: &At<'_>) -> Result<Metrics, DocError> {
        let u = |k: &str| at.u64_at(k);
        let v = |k: &str| at.get(k)?.list(At::u64);
        let h = |k: &str| LogHistogram::read(&at.get(k)?);
        Ok(Metrics {
            action_replays: v("action_replays")?,
            action_fast_insns: v("action_fast_insns")?,
            action_slow_visits: v("action_slow_visits")?,
            action_slow_insns: v("action_slow_insns")?,
            action_misses: v("action_misses")?,
            miss_values: at
                .get("miss_values")?
                .list(|vals| vals.list(|p| p.pair(At::i64, At::u64)))?,
            miss_value_overflow: u("miss_value_overflow")?,
            slow_ops: u("slow_ops")?,
            replay_walks: u("replay_walks")?,
            replay_ops: u("replay_ops")?,
            slow_step_ns: h("slow_step_ns")?,
            fast_burst_ns: h("fast_burst_ns")?,
            fast_burst_steps: h("fast_burst_steps")?,
            recovery_depth: h("recovery_depth")?,
            engine_switches: u("engine_switches")?,
            misses: u("misses")?,
            recoveries: u("recoveries")?,
            need_slow: u("need_slow")?,
            cache_clears: u("cache_clears")?,
            bytes_at_last_clear: u("bytes_at_last_clear")?,
            cache_evictions: u("cache_evictions")?,
            bytes_evicted: u("bytes_evicted")?,
            ext_calls: u("ext_calls")?,
            dropped_events: u("dropped_events")?,
            ring_capacity: u("ring_capacity")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EngineTag;

    #[test]
    fn per_action_counts_grow_on_demand() {
        let mut m = Metrics::new();
        m.action_replayed(5, 2);
        m.action_replayed(5, 3);
        m.action_replayed(1, 1);
        assert_eq!(m.action_replays, vec![0, 1, 0, 0, 0, 2]);
        assert_eq!(m.action_fast_insns, vec![0, 1, 0, 0, 0, 5]);
        assert_eq!(m.total_action_replays(), 3);
        m.action_slow(2, 7);
        assert_eq!(m.action_slow_visits, vec![0, 0, 1]);
        assert_eq!(m.action_slow_insns, vec![0, 0, 7]);
        assert_eq!(m.total_attributed_insns(), 13);
    }

    #[test]
    fn miss_values_accumulate_with_cap() {
        let mut m = Metrics::new();
        for v in [4, 4, -1, 4] {
            m.observe(&TraceEvent::Miss { step: 1, action: 3, depth: 1, value: Some(v) });
        }
        m.observe(&TraceEvent::Miss { step: 1, action: 3, depth: 1, value: None });
        assert_eq!(m.action_misses, vec![0, 0, 0, 5]);
        assert_eq!(m.total_attributed_misses(), 5);
        assert_eq!(m.miss_values[3], vec![(4, 3), (-1, 1)]);
        // The cap collapses further distinct values into the overflow
        // count without losing the per-action miss total.
        for v in 0..(2 * MISS_VALUE_CAP as i64) {
            m.observe(&TraceEvent::Miss { step: 2, action: 3, depth: 1, value: Some(100 + v) });
        }
        assert_eq!(m.miss_values[3].len(), MISS_VALUE_CAP);
        // 2 distinct values were already tracked, so CAP-2 of the 2*CAP
        // new ones fit and CAP+2 overflow.
        assert_eq!(m.miss_value_overflow, MISS_VALUE_CAP as u64 + 2);
        assert_eq!(m.action_misses[3], 5 + 2 * MISS_VALUE_CAP as u64);
    }

    /// The canonical event stream used by the merge tests: misses with
    /// repeated and overflowing values, recoveries, clears, engine
    /// switches, latencies and per-action cost hooks.
    fn busy_stream() -> Vec<TraceEvent> {
        let mut evs = Vec::new();
        for i in 0..40u64 {
            evs.push(TraceEvent::Miss {
                step: i,
                action: (i % 5) as u32,
                depth: i % 7,
                value: Some((i % (MISS_VALUE_CAP as u64 + 4)) as i64),
            });
            evs.push(TraceEvent::RecoveryEnd { step: i, action: (i % 5) as u32, committed: i });
            evs.push(TraceEvent::SlowStep { step: i, insns: i, ns: i * 37 });
            evs.push(TraceEvent::FastBurst { step: i, steps: i, actions: 2 * i, insns: i, ns: i * 11 });
            if i % 7 == 0 {
                evs.push(TraceEvent::CacheEvict {
                    gen: i / 7,
                    bytes: 50 + i,
                    nodes: i,
                    evictions: i / 7,
                });
            }
            if i % 9 == 0 {
                evs.push(TraceEvent::CacheClear { bytes: 100 + i, nodes: i, clears: i / 9 });
                evs.push(TraceEvent::EngineSwitch {
                    step: i,
                    from: EngineTag::Fast,
                    to: EngineTag::Slow,
                });
            }
            evs.push(TraceEvent::NeedSlow { step: i });
            evs.push(TraceEvent::ExtCall { step: i, ext: (i % 3) as u32 });
        }
        evs
    }

    fn feed(m: &mut Metrics, evs: &[TraceEvent]) {
        for (i, ev) in evs.iter().enumerate() {
            m.observe(ev);
            m.action_replayed((i % 6) as u32, i as u64);
            if i % 4 == 0 {
                m.action_slow((i % 6) as u32, i as u64);
                m.replay_counts(i as u64, 3 * i as u64);
            }
        }
    }

    fn assert_metrics_eq(a: &Metrics, b: &Metrics) {
        assert_eq!(a.action_replays, b.action_replays);
        assert_eq!(a.action_fast_insns, b.action_fast_insns);
        assert_eq!(a.action_slow_visits, b.action_slow_visits);
        assert_eq!(a.action_slow_insns, b.action_slow_insns);
        assert_eq!(a.action_misses, b.action_misses);
        assert_eq!(a.slow_ops, b.slow_ops);
        assert_eq!(a.replay_walks, b.replay_walks);
        assert_eq!(a.replay_ops, b.replay_ops);
        assert_eq!(a.miss_values, b.miss_values);
        assert_eq!(a.miss_value_overflow, b.miss_value_overflow);
        assert_eq!(a.slow_step_ns, b.slow_step_ns);
        assert_eq!(a.fast_burst_ns, b.fast_burst_ns);
        assert_eq!(a.fast_burst_steps, b.fast_burst_steps);
        assert_eq!(a.recovery_depth, b.recovery_depth);
        assert_eq!(a.engine_switches, b.engine_switches);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.need_slow, b.need_slow);
        assert_eq!(a.cache_clears, b.cache_clears);
        assert_eq!(a.bytes_at_last_clear, b.bytes_at_last_clear);
        assert_eq!(a.cache_evictions, b.cache_evictions);
        assert_eq!(a.bytes_evicted, b.bytes_evicted);
        assert_eq!(a.ext_calls, b.ext_calls);
        assert_eq!(a.dropped_events, b.dropped_events);
        assert_eq!(a.ring_capacity, b.ring_capacity);
    }

    #[test]
    fn merge_of_split_registries_is_bit_for_bit_the_combined_registry() {
        let evs = busy_stream();
        let mut combined = Metrics::new();
        feed(&mut combined, &evs);
        // Split the stream into K contiguous chunks — one per worker —
        // and fold the per-chunk registries back together in order.
        for k in [2usize, 3, 5] {
            let chunk = evs.len().div_ceil(k);
            let mut merged = Metrics::new();
            let mut offset = 0;
            for part in evs.chunks(chunk) {
                let mut m = Metrics::new();
                for (i, ev) in part.iter().enumerate() {
                    let gi = offset + i;
                    m.observe(ev);
                    m.action_replayed((gi % 6) as u32, gi as u64);
                    if gi % 4 == 0 {
                        m.action_slow((gi % 6) as u32, gi as u64);
                        m.replay_counts(gi as u64, 3 * gi as u64);
                    }
                }
                offset += part.len();
                merged.merge(&m);
            }
            assert_metrics_eq(&merged, &combined);
        }
    }

    #[test]
    fn merge_respects_the_miss_value_cap() {
        // One full registry plus one with disjoint values: the new
        // values cannot fit and must land in the overflow count.
        let mut full = Metrics::new();
        for v in 0..MISS_VALUE_CAP as i64 {
            full.observe(&TraceEvent::Miss { step: 0, action: 0, depth: 0, value: Some(v) });
        }
        let mut fresh = Metrics::new();
        for v in 0..4i64 {
            fresh.observe(&TraceEvent::Miss { step: 0, action: 0, depth: 0, value: Some(100 + v) });
            fresh.observe(&TraceEvent::Miss { step: 0, action: 0, depth: 0, value: Some(100 + v) });
        }
        full.merge(&fresh);
        assert_eq!(full.miss_values[0].len(), MISS_VALUE_CAP);
        assert_eq!(full.miss_value_overflow, 8, "2 occurrences of 4 lost values");
        assert_eq!(full.action_misses[0], MISS_VALUE_CAP as u64 + 8);
        assert_eq!(full.misses, MISS_VALUE_CAP as u64 + 8);
    }

    #[test]
    fn events_update_the_right_counters() {
        let mut m = Metrics::new();
        m.observe(&TraceEvent::Miss { step: 1, action: 0, depth: 4, value: None });
        m.observe(&TraceEvent::RecoveryEnd { step: 1, action: 0, committed: 2 });
        m.observe(&TraceEvent::CacheClear { bytes: 100, nodes: 3, clears: 1 });
        m.observe(&TraceEvent::CacheEvict { gen: 2, bytes: 64, nodes: 5, evictions: 1 });
        m.observe(&TraceEvent::CacheEvict { gen: 3, bytes: 36, nodes: 4, evictions: 2 });
        m.observe(&TraceEvent::EngineSwitch {
            step: 2,
            from: EngineTag::Fast,
            to: EngineTag::Slow,
        });
        m.observe(&TraceEvent::SlowStep { step: 3, insns: 1, ns: 1500 });
        m.observe(&TraceEvent::FastBurst { step: 9, steps: 6, actions: 60, insns: 6, ns: 900 });
        assert_eq!(m.misses, 1);
        assert_eq!(m.recoveries, 1);
        assert_eq!(m.cache_clears, 1);
        assert_eq!(m.bytes_at_last_clear, 100);
        assert_eq!(m.cache_evictions, 2);
        assert_eq!(m.bytes_evicted, 100);
        assert_eq!(m.engine_switches, 1);
        assert_eq!(m.slow_step_ns.count(), 1);
        assert_eq!(m.fast_burst_steps.sum(), 6);
        assert_eq!(m.recovery_depth.max(), 4);
    }
}
