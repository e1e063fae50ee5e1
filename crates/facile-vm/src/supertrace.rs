//! Superaction compilation: linearized, direct-threaded trace buffers
//! for hot replay chains (ROADMAP item 1; the flow-graph-compilation
//! move of compiled-simulator systems, done dependency-free inside the
//! VM).
//!
//! The generic replay loop ([`crate::fast::fast_run`]) pays a loop-top
//! dispatch, a generation resolve and a successor lookup on every
//! action, even when the flight recorder shows a handful of chains
//! covering >90% of fast-path instructions. When a burst-entry node
//! accumulates enough replayed steps (replay count × chain length), its
//! action records are *linearized* out of the cache's slab into one
//! contiguous [`SuperTrace`] buffer:
//!
//! * successor lookups disappear — the next action is structurally the
//!   next trace op; dynamic result tests become straight-line **guards**
//!   comparing against the value speculated at build time;
//! * placeholder reads are resolved to direct offsets into the trace's
//!   own contiguous data buffer (one copy, made at build time);
//! * consecutive trivial TEST nodes (no dynamic ops) collapse into a
//!   single compare chain with their tested placeholders folded to
//!   immediates;
//! * monomorphic INDEX sites become a guarded direct jump — one slice
//!   compare of the dynamic signature against the speculated one — with
//!   fallback to the generic table dispatch.
//!
//! # Guard/bail protocol
//!
//! Trace execution maintains *exactly* the interpreter's architectural
//! bookkeeping: the recovery stack (`scratch.replayed`), the lazy
//! entry-key reconstruction state (`cur_index`/`cur_sig`), step/insn
//! counters, chain-signature folding and dispatch telemetry. A failed
//! guard therefore simply re-resolves through the ordinary cache lookup
//! — a different test value follows `next_test_hot`, a different INDEX
//! signature falls back to [`crate::fast::index_advance`] — and hands
//! the resulting node back to the generic loop. Misses, budget
//! exhaustion and halts produce the same [`FastOutcome`]s the generic
//! loop would.
//!
//! # Invalidation
//!
//! A trace bakes in `NodeId`s and speculated links, which eviction can
//! retire. Traces record the generation set they span; at burst entry
//! the set is swept whenever the cache's invalidation epoch moved
//! (clears + evictions), dropping any trace with a non-resident
//! generation. Eviction can only happen *between* bursts — recording,
//! `reclaim` and `trim_cache` all run while the fast engine is not on
//! the stack and the cache is otherwise mutably borrowed for the whole
//! burst — so a swept trace set stays valid for the burst's duration
//! and stale-node execution is impossible by construction.

use crate::fast::{
    dynamic_signature, eval_foperand, exec_fop, index_advance, materialize_entry_key, note_miss,
    FastOutcome, IndexStep, Replayed, ReplayScratch,
};
use crate::state::{MachineState, Store};
use facile_codegen::{ActionKind, CompiledStep, FOperand};
use facile_obs::{fold_sig, CHAIN_DEPTH};
use facile_runtime::cache::{ActionCache, Cursor, NodeId};
use facile_runtime::key::Key;

/// Most traces the set will hold. Lookups go through a small
/// open-addressed hash table, so the cap bounds memory and chain
/// length, not lookup cost.
const MAX_TRACES: usize = 96;
/// Longest chain a single trace may linearize.
const MAX_TRACE_NODES: usize = 96;
/// Chains shorter than this are not worth a trace (the guard setup
/// would cost as much as the lookups it removes).
const MIN_TRACE_NODES: usize = 3;
/// Burst-entry nodes tracked for hotness between builds.
const HEAT_CAP: usize = 32;
/// Heads that failed to build (or chronically bailed) and must not be
/// retried.
const BLACKLIST_CAP: usize = 64;
/// Trace entries before the bail-rate check may drop a trace.
const BAIL_CHECK_MIN: u64 = 64;

/// Lifecycle and coverage counters for the supertrace compiler,
/// surfaced through `Simulation::trace_stats`, the run document's `trace`
/// header and `sim_obs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces compiled.
    pub built: u64,
    /// Build attempts that produced no usable trace (chain too short,
    /// no INDEX crossing, or speculation targets already gone).
    pub build_failed: u64,
    /// Times execution entered a trace buffer.
    pub enters: u64,
    /// Entries that left through a failed guard (the bail path) rather
    /// than the trace's exit edge.
    pub bails: u64,
    /// Traces dropped because eviction or a clear retired one of their
    /// generations.
    pub invalidated: u64,
    /// Simulated steps (INDEX crossings) executed inside traces.
    pub steps: u64,
    /// Target instructions retired inside traces.
    pub insns: u64,
}

/// A `(offset, len)` range into a trace's private data buffer.
type Range32 = (u32, u32);

/// One fused compare of a trivial TEST node (no dynamic ops): evaluate
/// `src` (placeholders already folded to immediates at build time) and
/// compare against the speculated value.
#[derive(Clone, Copy, Debug)]
struct Cmp {
    action: u32,
    /// The original cache node, for the bail path.
    node: NodeId,
    src: FOperand,
    expect: i64,
}

/// One direct-threaded trace operation.
#[derive(Clone, Debug)]
enum TOp {
    /// Unconditional action: run the ops, fall through.
    Plain { action: u32, data: Range32 },
    /// Guarded dynamic result test with dynamic ops.
    Test {
        action: u32,
        node: NodeId,
        data: Range32,
        src: FOperand,
        expect: i64,
    },
    /// A compare chain of `len` fused trivial tests starting at
    /// `start` in the trace's `cmps` table.
    Cmps { start: u32, len: u32 },
    /// Guarded INDEX crossing: compare the dynamic signature against
    /// the speculated one and jump directly to the next trace op (or
    /// the exit/loop edge).
    Index {
        action: u32,
        node: NodeId,
        data: Range32,
        sig: Range32,
        target: NodeId,
        target_action: u32,
    },
}

/// Where control goes after the last trace op.
#[derive(Clone, Copy, Debug)]
enum TraceExit {
    /// The chain closed on its own head: stay inside the buffer.
    Loop,
    /// Leave the trace and resume generic replay at this node.
    Out(NodeId),
}

/// How a trace attempt ended, from the generic loop's point of view.
pub(crate) enum TraceRun {
    /// Resume generic replay at this node (trace exit or guard bail;
    /// also returned untouched when no trace matched).
    Continue(NodeId),
    /// The burst ended inside the trace.
    Out(FastOutcome),
}

/// Per-trace usefulness counters (kept outside [`SuperTrace`] so the
/// trace itself stays immutable during execution).
#[derive(Clone, Copy, Debug, Default)]
struct TraceMeta {
    enters: u64,
    actions: u64,
}

/// One compiled trace: a linearized hot chain with private data.
#[derive(Clone, Debug)]
struct SuperTrace {
    ops: Vec<TOp>,
    cmps: Vec<Cmp>,
    /// Contiguous copy of every member node's placeholder data and
    /// every speculated INDEX signature.
    data: Vec<i64>,
    /// Generation sequence numbers this trace depends on (members,
    /// INDEX targets, exit node). Any of them going non-resident
    /// invalidates the trace.
    gens: Vec<u32>,
    /// Member count (reporting only).
    nodes: u32,
    exit: TraceExit,
}

#[inline]
fn fold_chain(scratch: &mut ReplayScratch, action: u32) {
    if scratch.hot && (scratch.chain_len as usize) < CHAIN_DEPTH {
        scratch.chain_path[scratch.chain_len as usize] = action;
        scratch.chain_len += 1;
        scratch.chain_sig = fold_sig(scratch.chain_sig, action);
    }
}

fn copy_range(buf: &mut Vec<i64>, vals: &[i64]) -> Range32 {
    let off = buf.len() as u32;
    buf.extend_from_slice(vals);
    (off, vals.len() as u32)
}

fn push_gen(gens: &mut Vec<u32>, seq: u32) {
    if !gens.contains(&seq) {
        gens.push(seq);
    }
}

impl SuperTrace {
    #[inline]
    fn range(&self, r: Range32) -> &[i64] {
        &self.data[r.0 as usize..(r.0 + r.1) as usize]
    }

    /// Linearizes the hot chain starting at `head` by following each
    /// node's hot-hint successor. Returns `None` when the chain is too
    /// short or never crosses an INDEX (a trace without a step boundary
    /// would bypass the budget check).
    fn build(head: NodeId, step: &CompiledStep, cache: &ActionCache) -> Option<SuperTrace> {
        let mut ops: Vec<TOp> = Vec::new();
        let mut cmps: Vec<Cmp> = Vec::new();
        let mut data: Vec<i64> = Vec::new();
        let mut gens: Vec<u32> = Vec::new();
        let mut members: Vec<NodeId> = Vec::new();
        let mut has_index = false;
        let mut node = head;
        let exit;
        loop {
            if !members.is_empty() && node == head {
                exit = TraceExit::Loop;
                break;
            }
            if members.contains(&node) || members.len() >= MAX_TRACE_NODES {
                // An inner cycle not through the head, or the cap: stop
                // and hand the rest to the generic loop.
                exit = TraceExit::Out(node);
                break;
            }
            let n = cache.node(node);
            let action = n.action;
            let code = &step.actions[action as usize];
            match &code.kind {
                ActionKind::Plain => {
                    // A plain successor link never changes while its
                    // target is resident, so no guard is needed: the
                    // next trace op *is* the successor.
                    let Some(next) = cache.next_plain(node) else {
                        exit = TraceExit::Out(node);
                        break;
                    };
                    let d = copy_range(&mut data, cache.node_data(node));
                    ops.push(TOp::Plain { action, data: d });
                    push_gen(&mut gens, node.generation());
                    members.push(node);
                    node = next;
                }
                ActionKind::Test { src } => {
                    let Some((expect, next)) = cache.predicted_test(node) else {
                        exit = TraceExit::Out(node);
                        break;
                    };
                    let nd = cache.node_data(node);
                    if code.ops.is_empty() {
                        // Trivial test: fold its placeholder into an
                        // immediate and fuse it into a compare chain.
                        let src = match *src {
                            FOperand::Ph => FOperand::Imm(*nd.first()?),
                            s => s,
                        };
                        let c = Cmp {
                            action,
                            node,
                            src,
                            expect,
                        };
                        match ops.last_mut() {
                            Some(TOp::Cmps { len, .. }) => {
                                cmps.push(c);
                                *len += 1;
                            }
                            _ => {
                                ops.push(TOp::Cmps {
                                    start: cmps.len() as u32,
                                    len: 1,
                                });
                                cmps.push(c);
                            }
                        }
                    } else {
                        let d = copy_range(&mut data, nd);
                        ops.push(TOp::Test {
                            action,
                            node,
                            data: d,
                            src: *src,
                            expect,
                        });
                    }
                    push_gen(&mut gens, node.generation());
                    members.push(node);
                    node = next;
                }
                ActionKind::Index { .. } => {
                    let Some((sig, next)) = cache.predicted_index(node) else {
                        exit = TraceExit::Out(node);
                        break;
                    };
                    let target_action = cache.node(next).action;
                    let sig_r = copy_range(&mut data, sig);
                    let d = copy_range(&mut data, cache.node_data(node));
                    ops.push(TOp::Index {
                        action,
                        node,
                        data: d,
                        sig: sig_r,
                        target: next,
                        target_action,
                    });
                    has_index = true;
                    push_gen(&mut gens, node.generation());
                    push_gen(&mut gens, next.generation());
                    members.push(node);
                    node = next;
                }
            }
        }
        if !has_index || members.len() < MIN_TRACE_NODES {
            return None;
        }
        if let TraceExit::Out(n) = exit {
            push_gen(&mut gens, n.generation());
        }
        Some(SuperTrace {
            ops,
            cmps,
            data,
            gens,
            nodes: members.len() as u32,
            exit,
        })
    }

    /// Executes the trace once (looping internally for `Loop` traces).
    /// Returns the run outcome and whether it left through a failed
    /// guard. Keeps every piece of interpreter bookkeeping — recovery
    /// stack, entry-key state, counters, telemetry — bit-for-bit
    /// identical to the generic loop.
    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        step: &CompiledStep,
        st: &mut MachineState,
        cache: &mut ActionCache,
        entry_key: &mut Key,
        scratch: &mut ReplayScratch,
        steps: &mut u64,
        max_steps: u64,
        cur_index: &mut Option<(NodeId, usize)>,
    ) -> (TraceRun, bool) {
        loop {
            for op in &self.ops {
                match op {
                    TOp::Plain { action, data } => {
                        fold_chain(scratch, *action);
                        let insns0 = st.stats.insns;
                        let code = &step.actions[*action as usize];
                        let d = self.range(*data);
                        let mut ph = 0usize;
                        for fop in &code.ops {
                            if exec_fop(fop, st, d, &mut ph, &mut scratch.ext_args) {
                                return (TraceRun::Out(FastOutcome::Halted), false);
                            }
                        }
                        st.stats.actions_replayed = st.stats.actions_replayed.saturating_add(1);
                        if st.obs.enabled() {
                            st.obs
                                .action_replayed(*action, st.stats.insns.wrapping_sub(insns0));
                        }
                        scratch.replayed.push(Replayed {
                            action: *action,
                            value: None,
                        });
                    }
                    TOp::Test {
                        action,
                        node,
                        data,
                        src,
                        expect,
                    } => {
                        fold_chain(scratch, *action);
                        let insns0 = st.stats.insns;
                        let code = &step.actions[*action as usize];
                        let d = self.range(*data);
                        let mut ph = 0usize;
                        for fop in &code.ops {
                            if exec_fop(fop, st, d, &mut ph, &mut scratch.ext_args) {
                                return (TraceRun::Out(FastOutcome::Halted), false);
                            }
                        }
                        st.stats.actions_replayed = st.stats.actions_replayed.saturating_add(1);
                        if st.obs.enabled() {
                            st.obs
                                .action_replayed(*action, st.stats.insns.wrapping_sub(insns0));
                        }
                        let v = eval_foperand(*src, st, d, &mut ph);
                        scratch.replayed.push(Replayed {
                            action: *action,
                            value: Some(v),
                        });
                        if v != *expect {
                            return (self.bail_test(st, cache, *node, *action, v, step, entry_key, scratch, cur_index), true);
                        }
                    }
                    TOp::Cmps { start, len } => {
                        let range = *start as usize..(*start + *len) as usize;
                        for c in &self.cmps[range] {
                            fold_chain(scratch, c.action);
                            st.stats.actions_replayed =
                                st.stats.actions_replayed.saturating_add(1);
                            if st.obs.enabled() {
                                st.obs.action_replayed(c.action, 0);
                            }
                            let v = match c.src {
                                FOperand::Reg(r) => st.reg(r),
                                FOperand::Imm(i) => i,
                                FOperand::Ph => unreachable!(
                                    "fused compares resolve placeholders at build time"
                                ),
                            };
                            scratch.replayed.push(Replayed {
                                action: c.action,
                                value: Some(v),
                            });
                            if v != c.expect {
                                return (
                                    self.bail_test(
                                        st, cache, c.node, c.action, v, step, entry_key, scratch,
                                        cur_index,
                                    ),
                                    true,
                                );
                            }
                        }
                    }
                    TOp::Index {
                        action,
                        node,
                        data,
                        sig,
                        target,
                        target_action,
                    } => {
                        fold_chain(scratch, *action);
                        let insns0 = st.stats.insns;
                        let code = &step.actions[*action as usize];
                        let d = self.range(*data);
                        let mut ph = 0usize;
                        for fop in &code.ops {
                            if exec_fop(fop, st, d, &mut ph, &mut scratch.ext_args) {
                                return (TraceRun::Out(FastOutcome::Halted), false);
                            }
                        }
                        st.stats.actions_replayed = st.stats.actions_replayed.saturating_add(1);
                        if st.obs.enabled() {
                            st.obs
                                .action_replayed(*action, st.stats.insns.wrapping_sub(insns0));
                        }
                        let ActionKind::Index { plan } = &code.kind else {
                            unreachable!("trace op built from a non-index node")
                        };
                        st.stats.fast_steps = st.stats.fast_steps.saturating_add(1);
                        *steps += 1;
                        dynamic_signature(plan, st, &mut scratch.sig);
                        let exp = self.range(*sig);
                        let sig_ok = scratch.sig.len() == exp.len()
                            && scratch.sig.iter().zip(exp).all(|(a, b)| a == b);
                        if sig_ok {
                            // Guarded direct jump: the speculated link
                            // holds, no table or node-local lookup.
                            if scratch.hot {
                                scratch.note_dispatch(*action, *target_action);
                            }
                            std::mem::swap(&mut scratch.sig, &mut scratch.cur_sig);
                            *cur_index = Some((*node, ph));
                            scratch.replayed.clear();
                            if *steps >= max_steps {
                                materialize_entry_key(
                                    step,
                                    cache,
                                    entry_key,
                                    *cur_index,
                                    &mut scratch.kw,
                                    &scratch.cur_sig,
                                );
                                return (
                                    TraceRun::Out(FastOutcome::Budget { node: *target }),
                                    false,
                                );
                            }
                        } else {
                            // Polymorphic crossing: fall back to the
                            // generic dispatch (node-local table, then
                            // the entry table).
                            let out = match index_advance(
                                step, st, cache, *node, *action, plan, entry_key, scratch,
                                steps, max_steps, d, ph, cur_index,
                            ) {
                                IndexStep::Taken { next } => TraceRun::Continue(next),
                                IndexStep::Out(o) => TraceRun::Out(o),
                            };
                            return (out, true);
                        }
                    }
                }
            }
            match self.exit {
                TraceExit::Loop => continue,
                TraceExit::Out(n) => return (TraceRun::Continue(n), false),
            }
        }
    }

    /// The bail path of a failed test guard: resolve the observed value
    /// through the ordinary successor lookup, or surface the miss with
    /// the interpreter's exact bookkeeping.
    #[allow(clippy::too_many_arguments)]
    fn bail_test(
        &self,
        st: &mut MachineState,
        cache: &mut ActionCache,
        node: NodeId,
        action: u32,
        v: i64,
        step: &CompiledStep,
        entry_key: &mut Key,
        scratch: &mut ReplayScratch,
        cur_index: &mut Option<(NodeId, usize)>,
    ) -> TraceRun {
        match cache.next_test_hot(node, v) {
            Some(next) => TraceRun::Continue(next),
            None => {
                note_miss(st, action, scratch.replayed.len(), Some(v));
                materialize_entry_key(
                    step,
                    cache,
                    entry_key,
                    *cur_index,
                    &mut scratch.kw,
                    &scratch.cur_sig,
                );
                TraceRun::Out(FastOutcome::Miss {
                    cursor: Cursor::AfterTest(node, v),
                })
            }
        }
    }
}

/// The per-simulation set of compiled traces plus the hotness/blacklist
/// bookkeeping that decides what to compile next. Owned by the driver
/// and threaded through [`crate::fast::fast_run`].
#[derive(Debug)]
pub struct SuperTraceSet {
    enabled: bool,
    threshold: u64,
    /// Cache invalidation epoch the trace set was last swept against.
    epoch: u64,
    /// Trace heads, parallel to `traces` (scanned linearly at burst
    /// entry and INDEX crossings — kept at most [`MAX_TRACES`] long).
    heads: Vec<NodeId>,
    traces: Vec<SuperTrace>,
    meta: Vec<TraceMeta>,
    /// Replayed-step heat per burst-entry node, accumulated at burst
    /// exit until it crosses `threshold`.
    heat: Vec<(NodeId, u64)>,
    /// Heads that must not be (re)compiled.
    blacklist: Vec<NodeId>,
    /// Open-addressed head index: slot holds `trace index + 1` (0 =
    /// empty), probed linearly from the node's hash. Sized so the load
    /// factor stays under 20% at [`MAX_TRACES`]; the per-crossing miss
    /// path is one hash + one load.
    table: [u16; TRACE_TABLE_SLOTS],
    /// Build events `(head_action, nodes, fused_cmps)` not yet handed
    /// to the observer — chain-exit builds happen where no observer is
    /// reachable, so the engine drains these at burst exit.
    pending: Vec<(u32, u64, u64)>,
    stats: TraceStats,
}

/// Slots in the head index (power of two).
const TRACE_TABLE_SLOTS: usize = 256;

/// Hash slot for a node in the head index.
#[inline]
fn head_slot(n: NodeId) -> usize {
    let h = (n.index() as u64)
        .wrapping_add((n.generation() as u64) << 32)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 56) as usize & (TRACE_TABLE_SLOTS - 1)
}

impl Default for SuperTraceSet {
    fn default() -> Self {
        SuperTraceSet {
            enabled: false,
            threshold: 1,
            epoch: 0,
            heads: Vec::new(),
            traces: Vec::new(),
            meta: Vec::new(),
            heat: Vec::new(),
            blacklist: Vec::new(),
            table: [0; TRACE_TABLE_SLOTS],
            pending: Vec::new(),
            stats: TraceStats::default(),
        }
    }
}

impl SuperTraceSet {
    /// A trace set; `enabled: false` makes every hook a cheap no-op.
    pub fn new(enabled: bool, threshold: u64) -> Self {
        SuperTraceSet {
            enabled,
            threshold: threshold.max(1),
            ..Default::default()
        }
    }

    /// Whether compilation is enabled at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Counters so far.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Whether any compiled trace exists (the hot-loop entry gate: one
    /// load + compare when there is nothing to run).
    #[inline]
    pub(crate) fn any(&self) -> bool {
        !self.heads.is_empty()
    }

    #[inline]
    fn lookup(&self, node: NodeId) -> Option<usize> {
        let mut slot = head_slot(node);
        loop {
            let v = self.table[slot];
            if v == 0 {
                return None;
            }
            let ti = (v - 1) as usize;
            if self.heads[ti] == node {
                return Some(ti);
            }
            slot = (slot + 1) & (TRACE_TABLE_SLOTS - 1);
        }
    }

    /// Re-derives the head index from `heads` (removals use swap_remove,
    /// so patching in place is not worth the fragility — the table is
    /// tiny and removals are rare).
    fn rebuild_table(&mut self) {
        self.table = [0; TRACE_TABLE_SLOTS];
        for (ti, &h) in self.heads.iter().enumerate() {
            let mut slot = head_slot(h);
            while self.table[slot] != 0 {
                slot = (slot + 1) & (TRACE_TABLE_SLOTS - 1);
            }
            self.table[slot] = (ti + 1) as u16;
        }
    }

    /// Drops traces whose generation set lost residency since the last
    /// sweep. Called at burst entry; cheap when the invalidation epoch
    /// did not move. Returns how many traces were dropped.
    pub(crate) fn sweep(&mut self, cache: &ActionCache) -> u64 {
        let epoch = cache.invalidation_epoch();
        if epoch == self.epoch {
            return 0;
        }
        self.epoch = epoch;
        let mut dropped = 0u64;
        let mut i = 0;
        while i < self.traces.len() {
            if self.traces[i].gens.iter().all(|&s| cache.seq_resident(s)) {
                i += 1;
            } else {
                self.traces.swap_remove(i);
                self.heads.swap_remove(i);
                self.meta.swap_remove(i);
                dropped += 1;
            }
        }
        self.stats.invalidated += dropped;
        if dropped > 0 {
            self.rebuild_table();
        }
        self.heat.retain(|(n, _)| cache.is_resident(*n));
        self.blacklist.retain(|n| cache.is_resident(*n));
        dropped
    }

    /// Accumulates a finished burst's heat and lazily compiles a trace
    /// once the burst's entry node crosses the threshold — always off
    /// the hot loop (the burst is already over). Returns
    /// `(head_action, nodes, fused_cmps)` when a trace was built, for
    /// the observer's build event.
    pub(crate) fn note_burst(
        &mut self,
        head: NodeId,
        steps_delta: u64,
        step: &CompiledStep,
        cache: &ActionCache,
    ) {
        if !self.enabled || steps_delta == 0 || self.traces.len() >= MAX_TRACES {
            return;
        }
        // Chain-heat seeding: when the burst head is already traced, the
        // burst's heat belongs to the chain's growing tip — follow the
        // compiled links through their exit nodes and credit the first
        // untraced successor. Each hot burst thereby extends the chain by
        // one link until it closes into a cycle or leaves the hot region.
        let mut head = head;
        let mut hops = 0;
        while let Some(ti) = self.lookup(head) {
            match self.traces[ti].exit {
                TraceExit::Out(n) => head = n,
                // A self-looping trace has no successor to extend.
                TraceExit::Loop => return,
            }
            hops += 1;
            if hops > MAX_TRACES {
                // Chain of traces already cycles; nothing to extend.
                return;
            }
        }
        self.heat_and_build(head, steps_delta, step, cache);
    }

    /// Accumulates heat for a chain successor at a cold trace exit and
    /// compiles it once hot. Burst exits alone cannot grow chains on a
    /// fully warmed workload — with no misses left, a burst ends only at
    /// the halt or budget boundary — so extension is also driven from
    /// the trace-exit edge. The cost is transient: once the successor
    /// compiles (or the chain closes into a cycle), exits stop landing
    /// on untraced nodes and this is never reached again.
    pub(crate) fn note_chain_exit(
        &mut self,
        node: NodeId,
        steps_delta: u64,
        step: &CompiledStep,
        cache: &ActionCache,
    ) {
        if steps_delta == 0 || self.traces.len() >= MAX_TRACES {
            return;
        }
        // An exit from a compiled trace is already strong evidence: the
        // predecessor proved hot and execution just flowed through it
        // into `node`. Weight the credit so the successor compiles after
        // a handful of exits instead of re-earning the full threshold
        // (the usefulness check reclaims any mistake).
        self.heat_and_build(node, steps_delta.saturating_mul(16), step, cache);
    }

    /// Find-or-push `delta` heat for `head`; past the threshold, compile
    /// and register its trace and queue the observer build event.
    fn heat_and_build(&mut self, head: NodeId, delta: u64, step: &CompiledStep, cache: &ActionCache) {
        if self.blacklist.contains(&head) {
            return;
        }
        let heat = match self.heat.iter_mut().find(|(n, _)| *n == head) {
            Some(row) => {
                row.1 = row.1.saturating_add(delta);
                row.1
            }
            None => {
                if self.heat.len() < HEAT_CAP {
                    self.heat.push((head, delta));
                } else if let Some(min) = self.heat.iter_mut().min_by_key(|(_, h)| *h) {
                    // Full table: a hotter newcomer displaces the
                    // coldest row (plain clock-less aging).
                    if min.1 < delta {
                        *min = (head, delta);
                    }
                }
                delta
            }
        };
        if heat < self.threshold {
            return;
        }
        self.heat.retain(|(n, _)| *n != head);
        match SuperTrace::build(head, step, cache) {
            Some(tr) => {
                self.pending.push((
                    cache.node(head).action,
                    tr.nodes as u64,
                    tr.cmps.len() as u64,
                ));
                self.stats.built += 1;
                self.heads.push(head);
                self.meta.push(TraceMeta::default());
                self.traces.push(tr);
                self.rebuild_table();
            }
            None => {
                self.stats.build_failed += 1;
                if self.blacklist.len() < BLACKLIST_CAP {
                    self.blacklist.push(head);
                }
            }
        }
    }

    /// Dequeues one pending build event `(head_action, nodes, cmps)`.
    pub(crate) fn pop_build(&mut self) -> Option<(u32, u64, u64)> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.pending.remove(0))
        }
    }

    fn drop_trace(&mut self, ti: usize) {
        let head = self.heads.swap_remove(ti);
        self.traces.swap_remove(ti);
        self.meta.swap_remove(ti);
        self.rebuild_table();
        if self.blacklist.len() < BLACKLIST_CAP {
            self.blacklist.push(head);
        }
    }
}

/// Runs any compiled trace whose head is `node`, repeatedly — a trace
/// exit can land on another trace's head (or, after a bailed guard
/// resolves to a different entry, back on the same one). Returns where
/// generic replay resumes, or the burst outcome. Progress is guaranteed
/// per iteration: every re-entry replays at least one action or crosses
/// a budget-checked step boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_traces(
    set: &mut SuperTraceSet,
    step: &CompiledStep,
    st: &mut MachineState,
    cache: &mut ActionCache,
    mut node: NodeId,
    entry_key: &mut Key,
    scratch: &mut ReplayScratch,
    steps: &mut u64,
    max_steps: u64,
    cur_index: &mut Option<(NodeId, usize)>,
) -> TraceRun {
    loop {
        let Some(ti) = set.lookup(node) else {
            return TraceRun::Continue(node);
        };
        let SuperTraceSet {
            traces,
            meta,
            stats,
            ..
        } = &mut *set;
        let tr = &traces[ti];
        let m = &mut meta[ti];
        stats.enters += 1;
        m.enters += 1;
        // Trace execution bypasses the per-step lookups that feed the
        // eviction touch clock; stamp the trace's generations once per
        // entry instead so generational coldness stays honest.
        cache.touch_gens(&tr.gens);
        let steps0 = st.stats.fast_steps;
        let insns0 = st.stats.fast_insns;
        let actions0 = st.stats.actions_replayed;
        let (run, bailed) = tr.exec(
            step, st, cache, entry_key, scratch, steps, max_steps, cur_index,
        );
        stats.steps += st.stats.fast_steps.wrapping_sub(steps0);
        stats.insns += st.stats.fast_insns.wrapping_sub(insns0);
        m.actions += st.stats.actions_replayed.wrapping_sub(actions0);
        if bailed {
            stats.bails += 1;
        }
        let useless = m.enters >= BAIL_CHECK_MIN && m.actions < m.enters * 3;
        if useless {
            // Chronic early bails: the speculated chain no longer
            // matches reality; drop and blacklist the head.
            set.drop_trace(ti);
        }
        match run {
            TraceRun::Continue(n) => {
                if !bailed && set.lookup(n).is_none() {
                    // Cold exit into untraced territory: credit the
                    // successor with the steps this pass just ran, so
                    // the chain extends one link once it proves hot.
                    let ran = st.stats.fast_steps.wrapping_sub(steps0);
                    set.note_chain_exit(n, ran, step, cache);
                }
                node = n;
            }
            out => return out,
        }
    }
}
