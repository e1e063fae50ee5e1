#![warn(missing_docs)]

//! Observability for the two-engine simulator: structured tracing, a
//! metrics registry and profiling hooks.
//!
//! The Facile execution model (slow/complete engine recording dynamic
//! actions, fast/residual engine replaying them, recovery on action-cache
//! miss) is easy to measure in aggregate — `SimStats` totals — but hard
//! to *explain*: why did fast-forwarding stall, how deep do recoveries
//! run, when did the cache clear. This crate closes that gap without
//! taxing the replay loop:
//!
//! * [`event::TraceEvent`] — a structured stream of engine transitions,
//!   step boundaries, miss → recovery → resume sequences, cache clears
//!   and external calls; buffered in an [`ring::EventRing`] and drained
//!   as JSONL.
//! * [`metrics::Metrics`] — integer-only derived counters: per-action
//!   replay counts, log-bucketed latency histograms
//!   ([`hist::LogHistogram`]), recovery-depth distribution and cache
//!   clear tracking.
//! * [`observer::ObsHandle`] — the hook surface the engines call. A
//!   disabled handle (the default) costs one null-check per hook site.
//! * [`run::RunDoc`] — the one `facile-run/v4` document every front end
//!   writes (`--obs-out`, serve result frames, the bench binaries) and
//!   `sim_obs` renders: a header of runtime counter snapshots plus the
//!   optional `metrics`, `profile` and `timeline` sections, with
//!   one parser, one [`merge`](run::RunDoc::merge) and one
//!   [`check`](run::RunDoc::check) that runs every section's exactness
//!   gate, via the offline reader/writer in [`json`].
//! * [`profile::Profile`] — the `profile` section: exact per-action cost
//!   and miss attribution keyed by Facile source location.
//! * [`timeline::TimelineMetrics`] — temporal telemetry (the `timeline`
//!   section): fixed-interval epoch snapshots of counter deltas with a
//!   steady-state detector.
//!
//! This crate is dependency-free and sits *below* `facile-runtime`, so
//! the action cache itself can announce clears; snapshot conversion from
//! the runtime's counter types lives up in `facile` core.
//!
//! # Merging and threads
//!
//! [`observer::ObsHandle`] is `Send` (an `Arc<Mutex<_>>` around the
//! core; a disabled handle stays a null-check), so observed simulations
//! can run on worker threads. Per-worker results fold together:
//! [`run::RunDoc::merge`] adds counters, histograms and per-action
//! vectors so that K registries over a partitioned event stream
//! reproduce the combined registry bit-for-bit — every section's
//! exactness invariant (Σ row insns == sim.insns, Σ epoch deltas ==
//! final counters, …) survives the fold, and `sim_obs --check` accepts
//! a merged document exactly like a single-lane one.

pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod profile;
pub mod ring;
pub mod run;
pub mod serve;
pub mod timeline;

pub use event::{EngineTag, TraceEvent};
pub use hist::LogHistogram;
pub use metrics::Metrics;
pub use observer::{ObsConfig, ObsHandle};
pub use profile::{ActionRow, LineCost, Profile};
pub use ring::EventRing;
pub use run::{CacheStatsSnapshot, DocError, RunDoc, SimStatsSnapshot, SCHEMA};
pub use serve::{ServeCounters, SERVE_SCHEMA};
pub use timeline::{
    EpochRecord, TimelineConfig, TimelineMetrics, Warmup, DEFAULT_EPOCH_CAP, DEFAULT_EPOCH_STEPS,
    DEFAULT_STEADY_EPS, DEFAULT_STEADY_K,
};
