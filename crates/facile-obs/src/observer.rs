//! Profiling hooks: the [`ObsHandle`] the engines carry.
//!
//! The engines call `ObsHandle` methods at instrumentation points. A
//! disabled handle (the default) is a `None` — every hook is one
//! null-check and a return, so the hot loop pays nothing measurable when
//! observation is off. An enabled handle owns the event ring, the
//! metrics registry and the timeline recorder behind one shared mutex;
//! clones share the same core, which is how the driver, the machine
//! state and the action cache all feed a single stream.
//!
//! The handle is `Send`: a batch driver gives every worker thread its
//! own handle (one simulation, one core, no contention — the mutex is
//! only ever uncontended) and folds the per-worker registries together
//! with [`Metrics::merge`] after the lanes join. Nothing prevents
//! cloning one enabled handle across threads either; emits then
//! serialize on the core's mutex.

use crate::event::TraceEvent;
use crate::metrics::Metrics;
use crate::ring::{EventRing, DEFAULT_CAPACITY};
use crate::timeline::{EpochRecord, TimelineConfig, TimelineMetrics};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

/// Construction options for an enabled handle.
#[derive(Debug)]
pub struct ObsConfig {
    /// Buffer events in the ring (drainable as JSONL).
    pub trace: bool,
    /// Ring capacity in events.
    pub ring_capacity: usize,
    /// Maintain the derived [`Metrics`] registry.
    pub metrics: bool,
    /// Timeline recorder: fixed-interval epoch snapshots (see
    /// [`crate::timeline`]). Off by default.
    pub timeline: TimelineConfig,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace: true,
            ring_capacity: DEFAULT_CAPACITY,
            metrics: true,
            timeline: TimelineConfig::default(),
        }
    }
}

struct ObsCore {
    ring: EventRing,
    writer: Option<Box<dyn Write + Send>>,
    metrics: Option<Metrics>,
    timeline: Option<TimelineMetrics>,
    /// Live JSONL sink for closed epochs (`--timeline-stream`).
    timeline_writer: Option<Box<dyn Write + Send>>,
    trace: bool,
    io_errors: u64,
}

impl ObsCore {
    fn dispatch(&mut self, ev: &TraceEvent) {
        if let Some(m) = &mut self.metrics {
            m.observe(ev);
        }
        if self.trace {
            if self.ring.is_full() && self.writer.is_some() {
                self.flush();
            }
            self.ring.push(*ev);
        }
    }

    fn flush(&mut self) {
        if let Some(w) = &mut self.writer {
            let text = self.ring.drain_jsonl();
            if !text.is_empty() && w.write_all(text.as_bytes()).is_err() {
                self.io_errors = self.io_errors.saturating_add(1);
            }
            if w.flush().is_err() {
                self.io_errors = self.io_errors.saturating_add(1);
            }
        }
    }
}

/// The handle the engines carry. Cloning shares the underlying core;
/// the default handle is disabled and free. The handle is `Send`, so a
/// fully-built simulation can move to a worker thread.
#[derive(Clone, Default)]
pub struct ObsHandle {
    core: Option<Arc<Mutex<ObsCore>>>,
    /// Cached at construction: the core maintains a metrics registry.
    /// Lets the per-action hooks skip the lock entirely when no
    /// registry is attached (configuration is fixed at construction, so
    /// the cache can never go stale).
    counts_actions: bool,
    /// Cached at construction: the timeline's epoch interval in
    /// simulator steps, 0 when the timeline recorder is off. Lets the
    /// driver keep its epoch bookkeeping lock-free (one integer compare
    /// per burst/slow-step) and take the core lock once per epoch.
    epoch_every: u64,
}

/// Locks the core. A panic while observing poisons the mutex; the data
/// is integer counters that are never left half-updated, so later reads
/// (e.g. draining metrics from a lane that died) keep working.
fn locked(core: &Mutex<ObsCore>) -> MutexGuard<'_, ObsCore> {
    core.lock().unwrap_or_else(|e| e.into_inner())
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.core {
            None => f.write_str("ObsHandle(off)"),
            Some(core) => {
                let c = locked(core);
                write!(
                    f,
                    "ObsHandle(trace={}, metrics={})",
                    c.trace,
                    c.metrics.is_some()
                )
            }
        }
    }
}

impl ObsHandle {
    /// The disabled handle: every hook is a no-op.
    pub fn off() -> ObsHandle {
        ObsHandle::default()
    }

    /// An enabled handle.
    pub fn new(config: ObsConfig) -> ObsHandle {
        ObsHandle {
            counts_actions: config.metrics,
            epoch_every: if config.timeline.enabled {
                config.timeline.epoch_steps.max(1)
            } else {
                0
            },
            core: Some(Arc::new(Mutex::new(ObsCore {
                ring: EventRing::new(config.ring_capacity),
                writer: None,
                metrics: config.metrics.then(Metrics::new),
                timeline: config
                    .timeline
                    .enabled
                    .then(|| TimelineMetrics::new(config.timeline.epoch_steps, config.timeline.cap)),
                timeline_writer: None,
                trace: config.trace,
                io_errors: 0,
            }))),
        }
    }

    /// Whether any instrumentation is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Attaches a JSONL sink: the ring streams to it when full and on
    /// [`flush`](Self::flush). No-op on a disabled handle.
    pub fn set_writer(&self, w: Box<dyn Write + Send>) {
        if let Some(core) = &self.core {
            locked(core).writer = Some(w);
        }
    }

    /// Emits one event: metrics fold, ring append.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(core) = &self.core {
            locked(core).dispatch(&ev);
        }
    }

    /// Records one replayed action and its retired-instruction delta
    /// into the metrics registry (the hot per-action hook; deliberately
    /// not a full event).
    #[inline]
    pub fn action_replayed(&self, action: u32, insns: u64) {
        if !self.counts_actions {
            return;
        }
        if let Some(core) = &self.core {
            if let Some(m) = &mut locked(core).metrics {
                m.action_replayed(action, insns);
            }
        }
    }

    /// Records one slow-engine (recording) execution of an action's
    /// group and its retired-instruction delta.
    #[inline]
    pub fn action_slow(&self, action: u32, insns: u64) {
        if !self.counts_actions {
            return;
        }
        if let Some(core) = &self.core {
            if let Some(m) = &mut locked(core).metrics {
                m.action_slow(action, insns);
            }
        }
    }

    /// Whether the metrics registry counts per-action costs (and the slow
    /// engine's ops): fixed at construction, so a driver can pick an
    /// instrumented code path once and pay nothing when it is off.
    #[inline]
    pub fn counts_actions(&self) -> bool {
        self.counts_actions
    }

    /// Records the ops one slow step executed.
    #[inline]
    pub fn slow_ops(&self, ops: u64) {
        if !self.counts_actions {
            return;
        }
        if let Some(core) = &self.core {
            if let Some(m) = &mut locked(core).metrics {
                m.slow_ops(ops);
            }
        }
    }

    /// Records the node walks and replay ops of one fast burst.
    #[inline]
    pub fn replay_counts(&self, walks: u64, ops: u64) {
        if !self.counts_actions {
            return;
        }
        if let Some(core) = &self.core {
            if let Some(m) = &mut locked(core).metrics {
                m.replay_counts(walks, ops);
            }
        }
    }

    /// The timeline recorder's epoch interval in simulator steps, 0
    /// when the recorder is off. Cached at construction — no lock.
    #[inline]
    pub fn timeline_every(&self) -> u64 {
        self.epoch_every
    }

    /// Folds one closed epoch into the timeline recorder and streams it
    /// to the epoch sink, if one is attached. The driver accumulates
    /// epoch deltas lock-free and calls this once per epoch — the
    /// timeline's entire locking cost. No-op when the recorder is off.
    pub fn timeline_epoch(&self, rec: &EpochRecord) {
        let Some(core) = &self.core else {
            return;
        };
        let mut c = locked(core);
        let Some(t) = &mut c.timeline else {
            return;
        };
        let index = t.epochs_total();
        t.observe_epoch(rec);
        if c.timeline_writer.is_some() {
            let mut line = rec.stream_json(index);
            line.push('\n');
            if let Some(w) = &mut c.timeline_writer {
                // Flush per epoch: the stream's purpose is liveness.
                if w.write_all(line.as_bytes()).is_err() || w.flush().is_err() {
                    c.io_errors = c.io_errors.saturating_add(1);
                }
            }
        }
    }

    /// Attaches a JSONL sink that receives every closed epoch as one
    /// line, flushed immediately (`--timeline-stream`). No-op on a
    /// disabled handle.
    pub fn set_timeline_writer(&self, w: Box<dyn Write + Send>) {
        if let Some(core) = &self.core {
            locked(core).timeline_writer = Some(w);
        }
    }

    /// A snapshot of the timeline recorder's aggregate, if it is on.
    pub fn timeline(&self) -> Option<TimelineMetrics> {
        self.core.as_ref().and_then(|c| locked(c).timeline.clone())
    }

    /// Writes buffered events to the attached sink, if any.
    pub fn flush(&self) {
        if let Some(core) = &self.core {
            locked(core).flush();
        }
    }

    /// Removes and returns the buffered events (for in-memory tools and
    /// tests; use [`set_writer`](Self::set_writer) for streaming).
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        match &self.core {
            Some(core) => locked(core).ring.drain(),
            None => Vec::new(),
        }
    }

    /// A snapshot of the metrics registry, if metrics are on. The
    /// snapshot carries the ring's drop count and capacity so a metrics
    /// document records whether its trace stream was lossy.
    pub fn metrics(&self) -> Option<Metrics> {
        self.core.as_ref().and_then(|c| {
            let core = locked(c);
            let mut m = core.metrics.clone()?;
            m.dropped_events = core.ring.dropped();
            m.ring_capacity = core.ring.capacity() as u64;
            Some(m)
        })
    }

    /// Events evicted from the ring without reaching a sink.
    pub fn dropped_events(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| locked(c).ring.dropped())
    }

    /// Events emitted through this handle so far.
    pub fn total_events(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| locked(c).ring.total())
    }

    /// Failed writes to the attached sink.
    pub fn io_errors(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| locked(c).io_errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = ObsHandle::off();
        assert!(!h.enabled());
        h.emit(TraceEvent::NeedSlow { step: 1 });
        h.action_replayed(3, 1);
        h.action_slow(3, 1);
        assert!(h.drain_events().is_empty());
        assert!(h.metrics().is_none());
        h.timeline_epoch(&EpochRecord::default());
        assert!(h.timeline().is_none());
        assert_eq!(h.timeline_every(), 0);
        assert_eq!(h.total_events(), 0);
    }

    #[test]
    fn timeline_epochs_fold_and_stream() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let h = ObsHandle::new(ObsConfig {
            timeline: TimelineConfig {
                enabled: true,
                epoch_steps: 500,
                ..TimelineConfig::default()
            },
            ..ObsConfig::default()
        });
        assert_eq!(h.timeline_every(), 500);
        let sink = Arc::new(Mutex::new(Vec::new()));
        h.set_timeline_writer(Box::new(Shared(sink.clone())));
        for i in 0..3u64 {
            h.timeline_epoch(&EpochRecord {
                fast_steps: 400 + i,
                slow_steps: 100,
                fast_insns: 4_000,
                slow_insns: 1_000,
                wall_ns: 10,
                ..EpochRecord::default()
            });
        }
        let t = h.timeline().expect("timeline on");
        assert_eq!(t.epochs.len(), 3);
        assert_eq!(t.totals.fast_steps, 3 * 400 + 3);
        let text = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 3, "one line per epoch:\n{text}");
        for (i, line) in text.lines().enumerate() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("epoch").unwrap().as_u64(), Some(i as u64));
        }
    }

    #[test]
    fn timeline_off_means_no_interval_even_when_enabled() {
        let h = ObsHandle::new(ObsConfig::default());
        assert!(h.enabled());
        assert_eq!(h.timeline_every(), 0);
        assert!(h.timeline().is_none());
    }

    #[test]
    fn clones_share_one_core() {
        let h = ObsHandle::new(ObsConfig::default());
        let h2 = h.clone();
        h.emit(TraceEvent::NeedSlow { step: 1 });
        h2.emit(TraceEvent::NeedSlow { step: 2 });
        assert_eq!(h.drain_events().len(), 2);
        assert_eq!(h2.metrics().unwrap().need_slow, 2);
    }

    #[test]
    fn ring_streams_to_writer_when_full() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Arc::new(Mutex::new(Vec::new()));
        let h = ObsHandle::new(ObsConfig {
            trace: true,
            ring_capacity: 4,
            metrics: false,
            ..ObsConfig::default()
        });
        h.set_writer(Box::new(Shared(sink.clone())));
        for i in 0..10 {
            h.emit(TraceEvent::NeedSlow { step: i });
        }
        h.flush();
        let text = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 10, "nothing dropped:\n{text}");
        assert_eq!(h.dropped_events(), 0);
        for line in text.lines() {
            assert!(crate::json::parse(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn handle_is_send_and_usable_across_threads() {
        fn assert_send<T: Send>(_: &T) {}
        let h = ObsHandle::new(ObsConfig::default());
        assert_send(&h);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        h.emit(TraceEvent::NeedSlow { step: t * 1000 + i });
                        h.action_replayed((t % 3) as u32, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let m = h.metrics().unwrap();
        assert_eq!(m.need_slow, 400);
        assert_eq!(m.total_action_replays(), 400);
        assert_eq!(h.total_events(), 400);
    }

    #[test]
    fn metrics_snapshot_carries_ring_stats() {
        let h = ObsHandle::new(ObsConfig {
            trace: true,
            ring_capacity: 4,
            metrics: true,
            ..ObsConfig::default()
        });
        for i in 0..10 {
            h.emit(TraceEvent::NeedSlow { step: i });
        }
        let m = h.metrics().unwrap();
        assert_eq!(m.dropped_events, 6);
        assert_eq!(m.ring_capacity, 4);
    }

    #[test]
    fn without_writer_ring_keeps_the_tail() {
        let h = ObsHandle::new(ObsConfig {
            trace: true,
            ring_capacity: 4,
            metrics: false,
            ..ObsConfig::default()
        });
        for i in 0..10 {
            h.emit(TraceEvent::NeedSlow { step: i });
        }
        assert_eq!(h.dropped_events(), 6);
        assert_eq!(h.drain_events().len(), 4);
    }
}
