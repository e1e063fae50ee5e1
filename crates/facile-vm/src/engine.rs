//! The simulation driver: mode switching between the two engines,
//! capacity policy, and the public run API.
//!
//! This is Figure 1 of the paper as a state machine:
//!
//! ```text
//!           ┌────────────── action-cache hit (INDEX link) ───────────┐
//!           ▼                                                        │
//!   slow/complete ── records actions ──► specialized action cache ──►│
//!           ▲                                                 fast/residual
//!           └──── miss (recovery) / unknown next key ◄───────────────┘
//! ```

use crate::exec::seed_params;
use crate::fast::{fast_run, FastOutcome, ReplayScratch};
use crate::recovery::{recover, RecoveryError};
use crate::slow::{slow_step, Recording, SlowScratch, StepOutcome};
use crate::state::{ExtHost, ExtTable, MachineState};
use crate::supertrace::{SuperTraceSet, TraceStats};
use facile_codegen::CompiledStep;
use facile_obs::{BurstExit, BurstRecord, EngineTag, EpochRecord, ObsHandle, TraceEvent};
use facile_runtime::cache::{ActionCache, CachePolicy, Cursor, NodeId};
use facile_runtime::key::{Key, KeyWriter};
use facile_runtime::{CacheStats, Engine, HaltReason, SimStats, Target};
use facile_sema::Type;
use std::any::Any;

/// An initial value for one `main` parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgValue {
    /// An `int`/`stream` key component.
    Scalar(i64),
    /// A `queue` key component.
    Queue(Vec<i64>),
}

/// Simulator construction options.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Enable fast-forwarding (memoization). Off reproduces the paper's
    /// "without memoization" builds: only the slow simulator runs, with no
    /// recording overhead.
    pub memoize: bool,
    /// Action-cache capacity in bytes, enforced at step boundaries
    /// (§6.2 used 256 MB). `None` = unbounded.
    pub cache_capacity: Option<u64>,
    /// What happens when the capacity is exceeded: the paper's wholesale
    /// clear, or generational partial eviction.
    pub cache_policy: CachePolicy,
    /// Superaction compilation: linearize hot replay chains into
    /// direct-threaded trace buffers (see [`crate::supertrace`]). On by
    /// default; architectural results are bit-for-bit identical either
    /// way, only replay speed changes.
    pub supertrace: bool,
    /// Replayed-step heat a burst-entry node must accumulate before its
    /// chain is compiled into a trace.
    pub supertrace_threshold: u64,
}

/// Default supertrace hotness threshold (replayed steps through one
/// burst-entry node): low enough that steady loops compile within a few
/// bursts, high enough that one-off chains never do.
pub const SUPERTRACE_THRESHOLD: u64 = 256;

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            memoize: true,
            cache_capacity: None,
            cache_policy: CachePolicy::Clear,
            supertrace: true,
            supertrace_threshold: SUPERTRACE_THRESHOLD,
        }
    }
}

/// Errors surfaced by the driver API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// `bind_external` named a function the program never declared.
    UnknownExternal(String),
    /// The initial arguments do not match `main`'s parameters.
    BadArguments(String),
    /// A job (or one of its callbacks) panicked inside a driver that
    /// isolates panics per job — the batch worker pool and the serve
    /// daemon catch the unwind and surface it as this structured error
    /// instead of tearing down every in-flight lane.
    Panic(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownExternal(n) => write!(f, "unknown external function `{n}`"),
            SimError::BadArguments(m) => write!(f, "bad initial arguments: {m}"),
            SimError::Panic(m) => write!(f, "panicked: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The observability mirror of the runtime's `Engine`.
fn obs_tag(e: Engine) -> EngineTag {
    match e {
        Engine::Slow => EngineTag::Slow,
        Engine::Fast => EngineTag::Fast,
    }
}

enum Mode {
    /// Run a slow step for the key in `Simulation::slow_key`.
    Slow,
    /// Replay from this node (its entry key lives in `Simulation::fast_key`).
    Fast(NodeId),
    /// Resume slow execution mid-step, at this op of the step's program,
    /// after a recovery.
    SlowResume(u32),
    /// Simulation over.
    Done,
}

/// Timeline bookkeeping: the counter baselines of the currently open
/// epoch. Lives on the driver (not behind the observability mutex) so
/// the boundary check is one integer compare; the core lock is taken
/// once per closed epoch, in [`ObsHandle::timeline_epoch`]. Present
/// only when the attached handle carries a timeline recorder.
struct EpochState {
    /// Epoch interval in simulator steps (fast + slow).
    every: u64,
    /// Total-step count at which the open epoch closes.
    next: u64,
    /// Simulation counters at the last close.
    base: SimStats,
    /// `CacheStats::bytes_total` at the last close.
    cache_bytes: u64,
    /// `CacheStats::evictions` at the last close.
    cache_evictions: u64,
    /// `TraceStats::enters` at the last close.
    trace_enters: u64,
    /// `TraceStats::bails` at the last close.
    trace_bails: u64,
    /// Wall-clock instant of the last close.
    last: std::time::Instant,
}

/// A running fast-forwarding simulation.
///
/// The compiled step function is held behind an [`Arc`](std::sync::Arc): it is
/// immutable after compilation, so N concurrent simulations of the same
/// simulator share one action table and one debug-info table instead of
/// carrying N copies. Everything mutable — machine state, action cache,
/// replay scratch — is per-simulation. `Simulation` is `Send` (asserted
/// by a compile-time test), which is what lets a batch driver build
/// jobs on one thread and run them on workers.
pub struct Simulation {
    step: std::sync::Arc<CompiledStep>,
    st: MachineState,
    cache: ActionCache,
    cursor: Cursor,
    mode: Mode,
    memoize: bool,
    /// Key of the entry `Mode::Fast` replays; updated in place by the
    /// fast engine so steady-state replay never allocates key storage.
    fast_key: Key,
    /// Key of the step `Mode::Slow` runs; a reused buffer, like
    /// `fast_key`.
    slow_key: Key,
    /// Reusable replay buffers (see [`ReplayScratch`]).
    scratch: ReplayScratch,
    /// Reusable slow-step buffers (see [`SlowScratch`]).
    slow_scratch: SlowScratch,
    /// Compiled supertraces + hotness bookkeeping (see
    /// [`crate::supertrace`]).
    traces: SuperTraceSet,
    /// The diagnosed failure that halted the run, if any (see
    /// [`fault`](Self::fault)).
    fault: Option<RecoveryError>,
    /// Open-epoch baselines when the attached handle records a
    /// timeline; `None` costs one check per burst/slow step.
    epoch: Option<EpochState>,
    /// Digest of the initial target (code identity + initial memory),
    /// computed at construction — memory mutates once the run starts,
    /// so this is the only moment the snapshot validity key can be
    /// taken. See [`crate::snapshot`].
    warm_digest: u64,
}

impl Simulation {
    /// Creates a simulation of `step` over `target`, with `main`'s first
    /// arguments given by `args`.
    ///
    /// `step` is taken as anything convertible to an
    /// `Arc<CompiledStep>`: pass an owned [`CompiledStep`] for a single
    /// simulation, or clone one `Arc` per job to share the compiled
    /// program (action table, debug info, IR) across a batch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadArguments`] when `args` do not match
    /// `main`'s parameter list.
    pub fn new(
        step: impl Into<std::sync::Arc<CompiledStep>>,
        target: Target,
        args: &[ArgValue],
        options: SimOptions,
    ) -> Result<Simulation, SimError> {
        let step = step.into();
        if args.len() != step.param_types.len() {
            return Err(SimError::BadArguments(format!(
                "main takes {} parameter(s), got {}",
                step.param_types.len(),
                args.len()
            )));
        }
        let mut w = KeyWriter::new();
        for (a, t) in args.iter().zip(&step.param_types) {
            match (a, t) {
                (ArgValue::Scalar(v), Type::Int | Type::Stream) => w.scalar(*v),
                (ArgValue::Queue(vals), Type::Queue) => w.queue(vals),
                (a, t) => {
                    return Err(SimError::BadArguments(format!(
                        "argument {a:?} does not match parameter type {t}"
                    )))
                }
            }
        }
        let key = w.finish();
        let cache = ActionCache::with_policy(options.cache_capacity, options.cache_policy);
        let warm_digest = target.code_digest() ^ target.mem.digest().rotate_left(32);
        let st = MachineState::new(&step.ir, target);
        Ok(Simulation {
            cursor: Cursor::AtEntry(key.clone()),
            mode: Mode::Slow,
            memoize: options.memoize,
            step,
            st,
            cache,
            fast_key: Key::default(),
            slow_key: key,
            scratch: ReplayScratch::new(),
            slow_scratch: SlowScratch::new(),
            traces: SuperTraceSet::new(
                options.supertrace && options.memoize,
                options.supertrace_threshold,
            ),
            fault: None,
            epoch: None,
            warm_digest,
        })
    }

    /// Binds a Rust closure to a declared `ext fun`, in the simulation's
    /// closure table, the default host: one boxed closure per external,
    /// unbound ones returning 0. After [`set_host`](Self::set_host)
    /// installed another host, the first binding replaces it with a
    /// fresh table.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownExternal`] if `name` was not declared.
    pub fn bind_external(
        &mut self,
        name: &str,
        f: impl FnMut(&[i64]) -> i64 + Send + 'static,
    ) -> Result<(), SimError> {
        let names = &self.step.ir.ext_names;
        let idx = names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SimError::UnknownExternal(name.to_owned()))?;
        let host: &mut dyn Any = self.st.host.as_mut();
        match host.downcast_mut::<ExtTable>() {
            Some(table) => table.bind(idx, Box::new(f)),
            None => {
                let mut table = ExtTable::unbound(names.len());
                table.bind(idx, Box::new(f));
                self.st.host = Box::new(table);
            }
        }
        Ok(())
    }

    /// Installs `host` as the target of every external call, replacing
    /// the closure table and any bindings in it.
    pub fn set_host(&mut self, host: impl ExtHost) {
        self.st.host = Box::new(host);
    }

    /// Attaches an observability handle. Trace events and metrics flow
    /// through it from this point on, from both engines and the action
    /// cache. Pass [`ObsHandle::off()`] to detach. When the handle
    /// carries a timeline recorder, epoch sampling starts here: the
    /// current counters become the first epoch's baseline.
    pub fn attach_obs(&mut self, obs: ObsHandle) {
        self.cache.set_obs(obs.clone());
        let every = obs.timeline_every();
        self.st.obs = obs;
        self.epoch = (every > 0).then(|| {
            let c = self.cache.stats();
            let t = self.traces.stats();
            let total = self
                .st
                .stats
                .fast_steps
                .saturating_add(self.st.stats.slow_steps);
            EpochState {
                every,
                next: (total / every).saturating_add(1).saturating_mul(every),
                base: self.st.stats,
                cache_bytes: c.bytes_total,
                cache_evictions: c.evictions,
                trace_enters: t.enters,
                trace_bails: t.bails,
                last: std::time::Instant::now(),
            }
        });
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &ObsHandle {
        &self.st.obs
    }

    /// Emits an `EngineSwitch` event when control is about to move to an
    /// engine other than the one currently attributed.
    fn note_engine(&mut self, to: Engine) {
        if self.st.obs.enabled() && self.st.engine != to {
            self.st.obs.emit(TraceEvent::EngineSwitch {
                step: self.st.obs_step(),
                from: obs_tag(self.st.engine),
                to: obs_tag(to),
            });
        }
    }

    /// Runs until the target halts or `max_steps` simulator steps have
    /// completed. Returns the halt reason if the simulation ended.
    pub fn run_steps(&mut self, max_steps: u64) -> Option<HaltReason> {
        let mut steps: u64 = 0;
        while steps < max_steps {
            match std::mem::replace(&mut self.mode, Mode::Done) {
                Mode::Done => {
                    self.mode = Mode::Done;
                    return self.st.halted;
                }
                Mode::Slow => {
                    // Hand off to the fast engine when this key was
                    // already recorded.
                    if self.memoize {
                        if let Some(entry) = self.cache.entry(&self.slow_key) {
                            if let Cursor::AfterIndex(n, key, sig) = &self.cursor {
                                self.cache.link_existing(*n, key.len(), sig, entry);
                            }
                            std::mem::swap(&mut self.fast_key, &mut self.slow_key);
                            self.mode = Mode::Fast(entry);
                            continue;
                        }
                        if !self.cache.reclaim(&self.cursor) {
                            // Clear-on-full invalidated the cursor:
                            // recording restarts at the entry. (The
                            // generational policy keeps it valid.)
                            self.cursor = Cursor::AtEntry(self.slow_key.clone());
                        }
                    }
                    let Simulation {
                        step, st, slow_key, ..
                    } = self;
                    seed_params(&step.program, &mut st.regs, &mut st.aggs, slow_key);
                    steps += 1;
                    self.run_slow_from(self.step.program.entry);
                }
                Mode::SlowResume(pc) => {
                    steps += 1;
                    self.run_slow_from(pc);
                }
                Mode::Fast(node) => {
                    if !self.cache.is_resident(node) {
                        // The node was evicted between bursts (capacity
                        // reclaim at a step boundary, or a wholesale
                        // clear). Its entry key is materialized in
                        // `fast_key` at every point that can return
                        // `Mode::Fast`, so restart the step through the
                        // ordinary slow path. The flight recorder sees a
                        // zero-length pseudo-burst with an eviction
                        // exit, so stalls caused by capacity pressure
                        // are distinguishable from cache misses.
                        if self.st.obs.hot_burst_sampled() {
                            self.st.obs.record_burst(
                                BurstRecord::evicted(node.generation(), node.index() as u32),
                                &[],
                            );
                        }
                        self.cursor = Cursor::AtEntry(self.fast_key.clone());
                        self.slow_key.set_from_bytes(self.fast_key.as_bytes());
                        self.mode = Mode::Slow;
                        continue;
                    }
                    self.note_engine(Engine::Fast);
                    // Timing and counter deltas only when someone listens.
                    let before = self
                        .st
                        .obs
                        .enabled()
                        .then(|| (std::time::Instant::now(), self.st.stats));
                    // Burst telemetry: the entry node's identity is read
                    // up front (it may be gone by the time the burst
                    // ends) and the chain accumulator in the scratch is
                    // armed only for sampled-in bursts.
                    let hot_entry = self
                        .st
                        .obs
                        .hot_burst_sampled()
                        .then(|| (self.cache.node(node).action, node));
                    self.scratch.begin_burst(hot_entry.is_some());
                    let steps_before = self.st.stats.fast_steps;
                    let out = fast_run(
                        &self.step,
                        &mut self.st,
                        &mut self.cache,
                        node,
                        &mut self.fast_key,
                        &mut self.scratch,
                        &mut self.traces,
                        &mut steps,
                        max_steps,
                    );
                    // Supertrace compilation happens lazily here, off
                    // the burst-exit path: fold the burst's heat into
                    // the entry node and build once it crosses the
                    // threshold (the entry stayed resident — nothing
                    // evicts mid-burst).
                    if self.traces.enabled() {
                        let delta = self.st.stats.fast_steps.wrapping_sub(steps_before);
                        self.traces
                            .note_burst(node, delta, &self.step, &self.cache);
                        // Drain build events queued since the last burst
                        // (including chain-exit builds from inside the
                        // fast loop, where the observer is unreachable).
                        while let Some((head_action, nodes, cmps)) = self.traces.pop_build() {
                            if self.st.obs.enabled() {
                                self.st.obs.emit(TraceEvent::TraceBuild {
                                    step: self.st.obs_step(),
                                    head_action,
                                    nodes,
                                    cmps,
                                });
                            }
                        }
                    }
                    if let Some((t0, b)) = before {
                        let s = self.st.stats;
                        self.st.obs.emit(TraceEvent::FastBurst {
                            step: self.st.obs_step(),
                            steps: s.fast_steps.saturating_sub(b.fast_steps),
                            actions: s.actions_replayed.saturating_sub(b.actions_replayed),
                            insns: s.fast_insns.saturating_sub(b.fast_insns),
                            ns: t0.elapsed().as_nanos() as u64,
                        });
                        if let Some((entry_action, entry_node)) = hot_entry {
                            let exit = match &out {
                                FastOutcome::Halted => BurstExit::Halt,
                                FastOutcome::Budget { .. } => BurstExit::Budget,
                                FastOutcome::NeedSlow { .. } => BurstExit::Boundary,
                                FastOutcome::Miss {
                                    cursor: Cursor::AfterTest(..),
                                } => BurstExit::MissTest,
                                FastOutcome::Miss { .. } => BurstExit::MissPlain,
                            };
                            self.st.obs.record_burst(
                                BurstRecord {
                                    entry_action,
                                    entry_gen: entry_node.generation(),
                                    entry_idx: entry_node.index() as u32,
                                    steps: s.fast_steps.saturating_sub(b.fast_steps),
                                    insns: s.fast_insns.saturating_sub(b.fast_insns),
                                    exit,
                                    sig: self.scratch.chain_sig,
                                    path: self.scratch.chain_path,
                                    path_len: self.scratch.chain_len,
                                },
                                &self.scratch.dispatches,
                            );
                        }
                    }
                    self.epoch_tick();
                    match out {
                        FastOutcome::Halted => {
                            self.mode = Mode::Done;
                            return self.st.halted;
                        }
                        FastOutcome::Budget { node } => {
                            self.mode = Mode::Fast(node);
                            return None;
                        }
                        FastOutcome::NeedSlow { cursor } => {
                            if self.st.obs.enabled() {
                                self.st.obs.emit(TraceEvent::NeedSlow {
                                    step: self.st.obs_step(),
                                });
                            }
                            let Cursor::AfterIndex(_, key, _) = &cursor else {
                                unreachable!("a step boundary follows an INDEX node")
                            };
                            self.slow_key.set_from_bytes(key.as_bytes());
                            self.cursor = cursor;
                            self.mode = Mode::Slow;
                        }
                        FastOutcome::Miss { cursor } => {
                            match recover(
                                &self.step,
                                &mut self.st,
                                &self.fast_key,
                                &self.scratch.replayed,
                            ) {
                                Ok(resume) => {
                                    self.st.stats.recoveries =
                                        self.st.stats.recoveries.saturating_add(1);
                                    self.cursor = cursor;
                                    self.mode = Mode::SlowResume(resume);
                                }
                                Err(e) => {
                                    // A corrupted recovery stack is a
                                    // diagnosed engine failure, not a
                                    // process abort.
                                    self.fault = Some(e);
                                    self.st.halted = Some(HaltReason::Fault);
                                    self.mode = Mode::Done;
                                    return self.st.halted;
                                }
                            }
                        }
                    }
                }
            }
            if self.st.halted.is_some() {
                self.mode = Mode::Done;
                return self.st.halted;
            }
        }
        self.st.halted
    }

    /// Closes an epoch if the total step count crossed the boundary.
    /// Called at burst exits and slow-step closes — never per step — so
    /// a burst that overshoots the interval closes one larger epoch
    /// with exact deltas. One `Option` check when no timeline recorder
    /// is attached.
    #[inline]
    fn epoch_tick(&mut self) {
        let Some(ep) = &self.epoch else {
            return;
        };
        let total = self
            .st
            .stats
            .fast_steps
            .saturating_add(self.st.stats.slow_steps);
        if total < ep.next {
            return;
        }
        self.epoch_close(total);
    }

    /// Closes the open epoch: computes counter deltas against the
    /// stored baselines, rebases them, and folds the record into the
    /// timeline recorder under one lock. All-zero epochs (a repeated
    /// flush) are dropped silently.
    fn epoch_close(&mut self, total: u64) {
        let cache = self.cache.stats();
        let tr = self.traces.stats();
        let now = std::time::Instant::now();
        let Some(ep) = &mut self.epoch else {
            return;
        };
        let s = self.st.stats;
        let rec = EpochRecord {
            fast_steps: s.fast_steps.saturating_sub(ep.base.fast_steps),
            slow_steps: s.slow_steps.saturating_sub(ep.base.slow_steps),
            fast_insns: s.fast_insns.saturating_sub(ep.base.fast_insns),
            slow_insns: s.slow_insns.saturating_sub(ep.base.slow_insns),
            misses: s.misses.saturating_sub(ep.base.misses),
            cache_bytes: cache.bytes_total.saturating_sub(ep.cache_bytes),
            cache_evictions: cache.evictions.saturating_sub(ep.cache_evictions),
            trace_enters: tr.enters.saturating_sub(ep.trace_enters),
            trace_bails: tr.bails.saturating_sub(ep.trace_bails),
            wall_ns: now.duration_since(ep.last).as_nanos() as u64,
        };
        ep.base = s;
        ep.cache_bytes = cache.bytes_total;
        ep.cache_evictions = cache.evictions;
        ep.trace_enters = tr.enters;
        ep.trace_bails = tr.bails;
        ep.last = now;
        ep.next = (total / ep.every).saturating_add(1).saturating_mul(ep.every);
        // Deltas telescope: every counted unit lands in exactly one
        // epoch, so Σ epochs == final counters. A flush that raced a
        // boundary produces a zero record; skip it (wall time between
        // two immediate closes is noise, not simulation time).
        if rec.fast_steps
            | rec.slow_steps
            | rec.fast_insns
            | rec.slow_insns
            | rec.misses
            | rec.cache_bytes
            | rec.cache_evictions
            | rec.trace_enters
            | rec.trace_bails
            != 0
        {
            self.st.obs.timeline_epoch(&rec);
        }
    }

    /// Closes the final partial epoch, if a timeline recorder is
    /// attached and any counter moved since the last close. Drivers
    /// call this before snapshotting a timeline document so the epoch
    /// sum recounts the final counters exactly; safe to call at any
    /// point (and repeatedly) — a no-op when nothing changed.
    pub fn timeline_flush(&mut self) {
        if self.epoch.is_none() {
            return;
        }
        let total = self
            .st
            .stats
            .fast_steps
            .saturating_add(self.st.stats.slow_steps);
        self.epoch_close(total);
    }

    /// Runs one slow step from op `pc` (recording if memoization is on)
    /// and updates the mode from its outcome.
    fn run_slow_from(&mut self, pc: u32) {
        self.note_engine(Engine::Slow);
        self.st.engine = Engine::Slow;
        let before = self
            .st
            .obs
            .enabled()
            .then(|| (std::time::Instant::now(), self.st.stats.insns));
        let rec = if self.memoize {
            Some(Recording {
                cache: &mut self.cache,
                cursor: &mut self.cursor,
            })
        } else {
            None
        };
        match slow_step(&self.step, &mut self.st, rec, &mut self.slow_scratch, pc) {
            StepOutcome::Halted => {
                self.mode = Mode::Done;
            }
            StepOutcome::Next => {
                self.st.stats.slow_steps = self.st.stats.slow_steps.saturating_add(1);
                self.slow_key.set_from_bytes(self.slow_scratch.next_key());
                self.mode = Mode::Slow;
            }
        }
        if let Some((t0, insns0)) = before {
            self.st.obs.emit(TraceEvent::SlowStep {
                step: self.st.obs_step(),
                insns: self.st.stats.insns.saturating_sub(insns0),
                ns: t0.elapsed().as_nanos() as u64,
            });
        }
        self.epoch_tick();
    }

    /// Releases memoized state down to roughly `target_bytes` right
    /// now, without running any steps. Drivers that pause a simulation
    /// with budget-bounded [`run_steps`](Self::run_steps) calls can
    /// respond to memory pressure while paused instead of waiting for
    /// the next recording miss to reclaim.
    ///
    /// Under [`CachePolicy::Generational`] the coldest generations go
    /// first; the recording generation and the cursor's generation are
    /// pinned, so the target is best-effort and recording continues
    /// seamlessly. Under [`CachePolicy::Clear`] the whole cache is one
    /// generation, so a cache over the target is cleared and recording
    /// restarts at the paused step's entry, as on a clear-on-full — unless
    /// the simulation is paused inside a step resumed after a recovery,
    /// whose recording is under way: then nothing is released. A paused
    /// replay position is *not* pinned under either policy: the trim may
    /// drop the node it replays next, in which case the next `run_steps`
    /// restarts the step through the slow path and the flight recorder
    /// classifies the stall as an eviction, not a miss.
    pub fn trim_cache(&mut self, target_bytes: u64) {
        if !self.memoize {
            return;
        }
        match self.cache.policy() {
            CachePolicy::Generational => self.cache.shrink_to(target_bytes, &self.cursor),
            CachePolicy::Clear => {
                if self.cache.stats().bytes_current <= target_bytes
                    || matches!(self.mode, Mode::SlowResume(_))
                {
                    return;
                }
                self.cache.clear();
                if matches!(self.mode, Mode::Slow) {
                    self.cursor = Cursor::AtEntry(self.slow_key.clone());
                }
            }
        }
    }

    /// Simulation counters so far.
    pub fn stats(&self) -> &SimStats {
        &self.st.stats
    }

    /// Action-cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Supertrace compiler counters so far (all zero when supertrace
    /// compilation is disabled).
    pub fn trace_stats(&self) -> TraceStats {
        self.traces.stats()
    }

    /// Values the target emitted via `trace(v)`.
    pub fn trace(&self) -> &[i64] {
        &self.st.trace
    }

    /// Why the simulation halted, if it has.
    pub fn halted(&self) -> Option<HaltReason> {
        self.st.halted
    }

    /// The diagnosed failure behind a [`HaltReason::Fault`] halt, with
    /// the failing action number and step context.
    pub fn fault(&self) -> Option<&RecoveryError> {
        self.fault.as_ref()
    }

    /// Reads a scalar global by source name (post-halt inspection).
    ///
    /// After a halt from the *fast* engine, run-time-static globals may be
    /// stale (their values live in the action cache, not in storage);
    /// dynamic state — simulated memory, counters, traces — is always
    /// exact.
    pub fn global_scalar(&self, name: &str) -> Option<i64> {
        let idx = self.step.ir.globals.iter().position(|g| g.name == name)?;
        Some(self.st.gscalars[idx])
    }

    /// Read access to simulated data memory.
    pub fn memory(&self) -> &facile_runtime::Memory {
        &self.st.target.mem
    }

    /// The compiled step function driving this simulation.
    pub fn compiled(&self) -> &CompiledStep {
        &self.step
    }

    /// The shared handle to the compiled step function (clone it to
    /// construct further simulations of the same program without
    /// copying the action table).
    pub fn compiled_arc(&self) -> std::sync::Arc<CompiledStep> {
        self.step.clone()
    }

    /// The snapshot validity digest of this simulation's initial target
    /// (code identity + initial memory). A persisted action-cache
    /// snapshot only warm-starts a simulation with the *same* digest —
    /// see [`crate::snapshot`] and `docs/PERSISTENCE.md`.
    pub fn warm_digest(&self) -> u64 {
        self.warm_digest
    }

    /// Read access to the action cache (snapshot export, diagnostics).
    pub fn action_cache(&self) -> &facile_runtime::ActionCache {
        &self.cache
    }

    /// Installs an action-cache image's generations as shared, pinned
    /// generations of this simulation's cache (the warm start). New
    /// recordings layer on top copy-on-write; the shared image is never
    /// written.
    ///
    /// Validity (digest / policy / fingerprint) is the caller's problem
    /// — use [`crate::snapshot::LoadedSnapshot::validate`]. This method
    /// only enforces the structural preconditions.
    ///
    /// # Errors
    ///
    /// The simulation must be memoizing, must not have run yet, and
    /// must not already carry a snapshot.
    pub fn warm_start(
        &mut self,
        snap: std::sync::Arc<facile_runtime::FrozenGens>,
    ) -> Result<(), &'static str> {
        if !self.memoize {
            return Err("memoization is disabled");
        }
        if self.st.stats.fast_steps != 0 || self.st.stats.slow_steps != 0 {
            return Err("simulation has already run");
        }
        self.cache.install_frozen(snap)
    }
}

// The thread-safety contract the batch driver relies on, enforced at
// compile time: a fully wired simulation (machine state with bound
// externals, action cache, observability handle, replay scratch) can
// move to a worker thread, and one compiled program can be shared
// read-only between workers.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Simulation>();
    assert_send::<MachineState>();
    assert_send::<facile_runtime::cache::ActionCache>();
    assert_send::<crate::fast::ReplayScratch>();
    assert_send_sync::<CompiledStep>();
    // `Target` is Send but deliberately not Sync: `Memory` keeps a
    // single-threaded translation cache in a `Cell`. Each worker owns
    // its target image; only the compiled program is shared.
    assert_send::<Target>();
};

#[cfg(test)]
mod tests {
    //! INDEX key tails: the key rebuilt from a recorded node's packed
    //! run-time-static bytes plus a signature is the slow engine's key.

    use super::*;
    use crate::fast::{materialize_entry_key, rebuild_key};
    use facile_codegen::program::KeySrc;
    use facile_codegen::{compile, ActionKind, CodegenConfig};
    use facile_ir::lower::lower;
    use facile_lang::diag::Diagnostics;
    use facile_lang::parser::parse;
    use facile_runtime::key::{varint_len, zigzag, KeyReader};
    use facile_runtime::Image;

    fn build(src: &str) -> CompiledStep {
        let mut diags = Diagnostics::new();
        let prog = parse(src, &mut diags);
        let syms = facile_sema::analyze(&prog, &mut diags);
        assert!(!diags.has_errors(), "{}", diags.render_all(src));
        let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
        compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
    }

    fn shipped(sim: &str) -> String {
        let main = match sim {
            "functional" => include_str!("../../core/sims/functional.fac"),
            "inorder" => include_str!("../../core/sims/inorder.fac"),
            _ => include_str!("../../core/sims/ooo.fac"),
        };
        format!("{}\n{main}", include_str!("../../core/sims/trisc.fac"))
    }

    /// Stateless stand-ins for the shipped simulators' externals.
    fn bind_hosts(sim: &mut Simulation) {
        fn mix(v: i64) -> i64 {
            (v >> 2).wrapping_mul(0x9e37_79b9).rem_euclid(97)
        }
        let bound = |r: Result<(), SimError>| match r {
            Ok(()) | Err(SimError::UnknownExternal(_)) => {}
            Err(e) => panic!("binding a host: {e}"),
        };
        bound(sim.bind_external("icache", |a| 1 + 3 * (mix(a[0]) < 6) as i64));
        bound(sim.bind_external("dcache", |a| 1 + 5 * (mix(a[0] + a[1]) < 12) as i64));
        bound(sim.bind_external("bp_predict", |a| (mix(a[0]) < 70) as i64));
        bound(sim.bind_external("bp_update", |_| 0));
        bound(sim.bind_external("btb_lookup", |a| (mix(a[0] ^ a[1]) >= 20) as i64));
    }

    /// Runs `sim` cold one step at a time, at most `max_steps` steps.
    /// After every slow step it checks the INDEX node just recorded:
    /// the key rebuilt from the node's tail with the recorded signature
    /// and with the live state both equal the slow engine's key. Returns
    /// the sites checked and the longest run-time-static queue seen.
    fn check_tails(sim: &mut Simulation, max_steps: u64) -> (Vec<u32>, usize) {
        let mut sites = Vec::new();
        let mut longest = 0;
        let mut kw = KeyWriter::new();
        let mut rebuilt = Key::default();
        for _ in 0..max_steps {
            let slow0 = sim.st.stats.slow_steps;
            if sim.run_steps(1).is_some() {
                break;
            }
            if sim.st.stats.slow_steps == slow0 {
                continue;
            }
            let Cursor::AfterIndex(node, key, sig) = &sim.cursor else {
                panic!("a recorded slow step ends after an INDEX node");
            };
            assert_eq!(key.as_bytes(), sim.slow_scratch.next_key());
            let step = &*sim.step;
            let action = sim.cache.node(*node).action;
            let ActionKind::Index { site } = step.actions[action as usize].kind else {
                panic!("action {action} is not an INDEX action");
            };
            let data = sim.cache.node_data(*node);
            let ph = crate::fast::placeholder_len(step, &step.actions[action as usize], data);

            materialize_entry_key(
                step,
                &sim.cache,
                &mut rebuilt,
                Some((*node, ph)),
                &mut kw,
                sig,
            );
            assert_eq!(rebuilt, *key, "site {site}: key from tail + signature");
            kw.reset();
            let next = &step.program.nexts[site as usize];
            rebuild_key(&mut kw, step, next, &sim.st, data, ph);
            assert_eq!(
                kw.bytes(),
                key.as_bytes(),
                "site {site}: key from tail + state"
            );

            if !sites.contains(&site) {
                sites.push(site);
            }
            let mut r = KeyReader::new(key);
            for c in &next.comps {
                match c.src {
                    KeySrc::Scalar(_) => drop(r.scalar()),
                    KeySrc::Queue(_) => {
                        let n = r.queue().unwrap().len();
                        if c.rt {
                            longest = longest.max(n);
                        }
                    }
                }
            }
        }
        (sites, longest)
    }

    fn options() -> SimOptions {
        SimOptions {
            supertrace: false,
            ..SimOptions::default()
        }
    }

    #[test]
    fn shipped_simulators_rebuild_their_keys_from_packed_tails() {
        let w = facile_workloads::by_name("126.gcc").expect("workload exists");
        let image = facile_workloads::build_image(&w, 0.002);
        for sim_name in ["functional", "inorder", "ooo"] {
            let step = build(&shipped(sim_name));
            let mut args = match sim_name {
                "functional" => vec![],
                "inorder" => vec![ArgValue::Queue(vec![0; 32])],
                _ => {
                    let mut a = vec![ArgValue::Queue(vec![0; 32])];
                    a.extend((0..5).map(|_| ArgValue::Queue(vec![])));
                    a.push(ArgValue::Scalar(0));
                    a
                }
            };
            args.push(ArgValue::Scalar(image.entry as i64));
            let mut sim = Simulation::new(step, Target::load(&image), &args, options()).unwrap();
            bind_hosts(&mut sim);
            let (sites, _) = check_tails(&mut sim, 2_000);
            assert!(sim.stats().fast_steps > 0, "{sim_name}: replay ran");
            let mut sites = sites;
            sites.sort_unstable();
            let all: Vec<u32> = (0..sim.step.program.nexts.len() as u32).collect();
            assert_eq!(sites, all, "{sim_name}: every INDEX site checked");
        }
    }

    /// A negative scalar and a 70-element queue among the run-time-static
    /// components, a dynamic scalar between them. At 70 elements the
    /// key's plain varint length takes one byte and the charged zig-zag
    /// varint two.
    #[test]
    fn long_queues_and_negative_scalars_round_trip_and_charge_as_before() {
        const SRC: &str = "ext fun f(a : int) : int;
            fun main(q : queue, d : int, s : int) {
                count_insns(1);
                val t = f(d + s);
                q?push_back(s * 1000);
                q?pop_front();
                if (s < -40) { sim_halt(); }
                next(q, t, s - 3);
            }";
        let queue: Vec<i64> = (0..70).map(|i| (i - 35) * (1 << (i % 40))).collect();
        let args = [
            ArgValue::Queue(queue),
            ArgValue::Scalar(2),
            ArgValue::Scalar(-1),
        ];
        let mut sim = Simulation::new(
            build(SRC),
            Target::load(&Image::default()),
            &args,
            options(),
        )
        .unwrap();
        sim.bind_external("f", |a| a[0].wrapping_mul(7) % 3)
            .unwrap();
        let (sites, longest) = check_tails(&mut sim, 100);
        assert_eq!(sites, [0]);
        assert_eq!(longest, 70);
        assert_ne!(varint_len(70), varint_len(zigzag(70)));
        assert!(sim.halted().is_some());
        // The run's total, as every earlier recording charged it.
        assert_eq!(sim.cache_stats().bytes_total, TOTAL_BYTES);
    }

    /// `bytes_total` of this run, as measured before INDEX tails were packed.
    const TOTAL_BYTES: u64 = 11_625;
}
