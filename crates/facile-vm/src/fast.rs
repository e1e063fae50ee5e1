//! The fast/residual simulator (paper Figure 9).
//!
//! Replays recorded actions: reads action numbers by following cache
//! links, runs each action's replay ops — the slow program's own ops,
//! with every placeholder capture turned into a load of the recorded
//! value (`replay_action`) — verifies dynamic result tests, and chains
//! across step boundaries through INDEX actions. A missing successor is
//! an *action-cache miss* and hands control back to the slow simulator.
//!
//! The replay loop is the simulator's hot path (>99% of instructions on
//! the paper's workloads) and is written to be allocation-free in steady
//! state: all growable buffers live in a caller-owned [`ReplayScratch`],
//! the current entry key is only materialized lazily at miss/budget
//! boundaries (into a reused buffer), and placeholder data is read
//! straight out of the cache's contiguous slab. See docs/PERFORMANCE.md.

use crate::exec::match_effect_op;
use crate::state::MachineState;
use crate::supertrace::{self, SuperTraceSet, TraceRun};
use facile_codegen::program::{KeySrc, NextSite};
use facile_codegen::{ActionCode, ActionKind, CompiledStep, Op};
use facile_obs::{fold_sig, EngineTag, TraceEvent, CHAIN_DEPTH, SIG_SEED};
use facile_runtime::cache::{ActionCache, Cursor, NodeId};
use facile_runtime::key::{Key, KeyWriter, PackedReader};
use facile_runtime::Engine;

/// One replayed action, pushed onto the recovery stack (paper §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Replayed {
    /// The action number.
    pub action: u32,
    /// For dynamic result tests: the value the fast engine computed.
    pub value: Option<i64>,
}

/// Reusable buffers for the replay loop. Owned by the driver and threaded
/// through every [`fast_run`] call so steady-state replay performs zero
/// heap allocations once the buffers have warmed up.
#[derive(Default)]
pub struct ReplayScratch {
    /// Actions replayed since the current entry (the recovery stack).
    pub replayed: Vec<Replayed>,
    /// Dynamic INDEX signature being computed for the current crossing.
    pub(crate) sig: Vec<i64>,
    /// The signature observed at the *last taken* INDEX crossing, kept so
    /// the current entry's key can be rebuilt on demand.
    pub(crate) cur_sig: Vec<i64>,
    /// Key serialization buffer (entry rebuilds and table fallbacks).
    pub(crate) kw: KeyWriter,
    /// Argument staging for external calls.
    pub(crate) ext_args: Vec<i64>,
    /// Flight recorder armed for the current burst (set by the driver
    /// when the burst was sampled in; one predictable branch per action
    /// when off).
    pub(crate) hot: bool,
    /// Rolling chain signature over the first [`CHAIN_DEPTH`] replayed
    /// actions of the current burst.
    pub(crate) chain_sig: u64,
    /// The action numbers folded into `chain_sig`, in replay order.
    pub(crate) chain_path: [u32; CHAIN_DEPTH],
    /// How many of `chain_path` are meaningful.
    pub(crate) chain_len: u8,
    /// Per-burst INDEX dispatch accumulator: `(site, target, count)`
    /// rows collected locally so a sampled burst takes the observer
    /// lock once at the end instead of once per step. Rows stay in
    /// first-seen order (the flight recorder folds them in order, so
    /// merged documents are deterministic).
    pub(crate) dispatches: Vec<(u32, u32, u64)>,
    /// Last-hit index into `dispatches` — INDEX sites are heavily
    /// monomorphic, so consecutive steps usually bump the same row.
    dispatch_hot: usize,
    /// Row indices sorted by `(site, target)`, maintained only once
    /// `dispatches` outgrows [`DISPATCH_LINEAR_MAX`]: lookups switch
    /// from an O(rows) scan to a binary search, so bursts touching
    /// many INDEX sites no longer pay O(sites) per crossing.
    dispatch_order: Vec<u32>,
}

/// Dispatch rows at or below this are scanned linearly (after the hot-row
/// probe); past it, [`ReplayScratch::dispatch_order`] keeps a sorted
/// index for binary search.
const DISPATCH_LINEAR_MAX: usize = 8;

impl ReplayScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or disarms) the flight recorder for the next [`fast_run`]
    /// call and resets the chain accumulator.
    pub(crate) fn begin_burst(&mut self, hot: bool) {
        self.hot = hot;
        self.chain_sig = SIG_SEED;
        self.chain_len = 0;
        self.dispatches.clear();
        self.dispatch_hot = 0;
        self.dispatch_order.clear();
    }

    /// Records one INDEX crossing (`site` dispatched to `target`) in the
    /// local accumulator. Only called on sampled bursts.
    pub(crate) fn note_dispatch(&mut self, site: u32, target: u32) {
        if let Some(row) = self.dispatches.get_mut(self.dispatch_hot) {
            if row.0 == site && row.1 == target {
                row.2 = row.2.saturating_add(1);
                return;
            }
        }
        if self.dispatches.len() <= DISPATCH_LINEAR_MAX {
            for (i, row) in self.dispatches.iter_mut().enumerate() {
                if row.0 == site && row.1 == target {
                    row.2 = row.2.saturating_add(1);
                    self.dispatch_hot = i;
                    return;
                }
            }
            self.dispatch_hot = self.dispatches.len();
            self.dispatches.push((site, target, 1));
            if self.dispatches.len() == DISPATCH_LINEAR_MAX + 1 {
                // Just outgrew the linear regime: index every row.
                self.dispatch_order.clear();
                self.dispatch_order
                    .extend(0..self.dispatches.len() as u32);
                let rows = &self.dispatches;
                self.dispatch_order
                    .sort_unstable_by_key(|&i| (rows[i as usize].0, rows[i as usize].1));
            }
            return;
        }
        let rows = &mut self.dispatches;
        match self
            .dispatch_order
            .binary_search_by_key(&(site, target), |&i| {
                (rows[i as usize].0, rows[i as usize].1)
            }) {
            Ok(pos) => {
                let i = self.dispatch_order[pos] as usize;
                rows[i].2 = rows[i].2.saturating_add(1);
                self.dispatch_hot = i;
            }
            Err(pos) => {
                let i = rows.len();
                rows.push((site, target, 1));
                self.dispatch_order.insert(pos, i as u32);
                self.dispatch_hot = i;
            }
        }
    }
}

/// Why the fast engine returned.
#[derive(Debug)]
pub enum FastOutcome {
    /// Mid-entry action-cache miss: recovery is required. The entry key
    /// was materialized into the caller's key buffer and the replayed
    /// actions (including the missing one) are in the scratch.
    Miss {
        /// Where the slow engine should attach new recordings.
        cursor: Cursor,
    },
    /// INDEX reached a key with no cached entry: a clean step boundary;
    /// the slow simulator takes over with no recovery.
    NeedSlow {
        /// Cursor for the new entry's recording: after the INDEX node,
        /// holding the next step's key.
        cursor: Cursor,
    },
    /// The simulation halted during replay.
    Halted,
    /// The step budget ran out; resume from this node later (its entry
    /// key was materialized into the caller's key buffer).
    Budget {
        /// Node to resume at.
        node: NodeId,
    },
}

/// Replays from `node` (the entry node for `entry_key`) until a miss,
/// halt or budget exhaustion. `steps` is incremented at each INDEX
/// crossing and replay stops when it reaches `max_steps`.
///
/// `entry_key` must hold the key of the entry `node` belongs to on the
/// way in; on [`FastOutcome::Miss`] and [`FastOutcome::Budget`] it holds
/// the key of the entry being replayed at exit (updated in place).
#[allow(clippy::too_many_arguments)] // the replay hot loop threads all reusable state explicitly
pub fn fast_run(
    step: &CompiledStep,
    st: &mut MachineState,
    cache: &mut ActionCache,
    mut node: NodeId,
    entry_key: &mut Key,
    scratch: &mut ReplayScratch,
    traces: &mut SuperTraceSet,
    steps: &mut u64,
    max_steps: u64,
) -> FastOutcome {
    st.engine = Engine::Fast;
    scratch.replayed.clear();
    // How to reconstruct the current entry's key on demand: the INDEX
    // node last crossed and the offset of its key tail in its data (its
    // dynamic signature sits in `scratch.cur_sig`). `None` means
    // `entry_key` already holds the current entry's key.
    let mut cur_index: Option<(NodeId, usize)> = None;

    // Supertrace housekeeping happens at burst entry, never per action:
    // drop traces invalidated by evictions/clears since the last burst
    // (no eviction can occur *during* a burst — the cache is borrowed
    // mutably for its whole duration), then enter a trace if the burst
    // starts on a compiled head.
    if traces.any() {
        let dropped = traces.sweep(cache);
        if dropped > 0 && st.obs.enabled() {
            st.obs.emit(TraceEvent::TraceInvalidate {
                step: st.obs_step(),
                traces: dropped,
            });
        }
        match supertrace::try_traces(
            traces, step, st, cache, node, entry_key, scratch, steps, max_steps,
            &mut cur_index,
        ) {
            TraceRun::Continue(n) => node = n,
            TraceRun::Out(out) => return out,
        }
    }

    loop {
        let (action, data) = cache.action_and_data(node);
        if scratch.hot && (scratch.chain_len as usize) < CHAIN_DEPTH {
            scratch.chain_path[scratch.chain_len as usize] = action;
            scratch.chain_len += 1;
            scratch.chain_sig = fold_sig(scratch.chain_sig, action);
        }
        // Run the action's ops against the slab-resident data.
        let code = &step.actions[action as usize];
        let Some(ph) = replay_action(step, code, action, st, data, &mut scratch.ext_args) else {
            return FastOutcome::Halted;
        };

        match code.kind {
            ActionKind::Plain => {
                scratch.replayed.push(Replayed {
                    action,
                    value: None,
                });
                match cache.next_plain(node) {
                    Some(next) => node = next,
                    None => {
                        note_miss(st, action, scratch.replayed.len(), None);
                        materialize_entry_key(
                            step,
                            cache,
                            entry_key,
                            cur_index,
                            &mut scratch.kw,
                            &scratch.cur_sig,
                        );
                        return FastOutcome::Miss {
                            cursor: Cursor::AfterPlain(node),
                        };
                    }
                }
            }
            ActionKind::Test { src } => {
                let v = src.get(&st.regs, &step.program.consts);
                scratch.replayed.push(Replayed {
                    action,
                    value: Some(v),
                });
                match cache.next_test_hot(node, v) {
                    Some(next) => node = next,
                    None => {
                        note_miss(st, action, scratch.replayed.len(), Some(v));
                        materialize_entry_key(
                            step,
                            cache,
                            entry_key,
                            cur_index,
                            &mut scratch.kw,
                            &scratch.cur_sig,
                        );
                        return FastOutcome::Miss {
                            cursor: Cursor::AfterTest(node, v),
                        };
                    }
                }
            }
            ActionKind::Index { site } => {
                let site = &step.program.nexts[site as usize];
                st.stats.fast_steps = st.stats.fast_steps.saturating_add(1);
                *steps += 1;
                dynamic_signature(step, site, st, &mut scratch.sig);
                match index_advance(
                    step, st, cache, node, action, site, entry_key, scratch, steps, max_steps, ph,
                    &mut cur_index,
                ) {
                    IndexStep::Taken { next } => node = next,
                    IndexStep::Out(out) => return out,
                }
                // Step boundary: the only place control can land on a
                // supertrace head mid-burst.
                if traces.any() {
                    match supertrace::try_traces(
                        traces, step, st, cache, node, entry_key, scratch, steps, max_steps,
                        &mut cur_index,
                    ) {
                        TraceRun::Continue(n) => node = n,
                        TraceRun::Out(out) => return out,
                    }
                }
            }
        }
    }
}

/// Counts an action-cache miss and announces it to the observer.
/// `value` is the divergent test value for dynamic-result-test misses.
pub(crate) fn note_miss(st: &mut MachineState, action: u32, depth: usize, value: Option<i64>) {
    st.stats.misses = st.stats.misses.saturating_add(1);
    if st.obs.enabled() {
        st.obs.emit(TraceEvent::Miss {
            step: st.obs_step(),
            action,
            depth: depth as u64,
            value,
        });
    }
}

/// Replays one action (`code`, action number `action`): runs its replay
/// ops ([`ActionCode::replay`]) against its node's placeholder data
/// `data`, counts it and attributes its instructions. The ops are the
/// slow program's own — placeholder loads write the recorded values
/// where recording captured them, and the dynamic ops run exactly as the
/// slow engine runs them. Returns the offset in `data` after the ops'
/// placeholders (an INDEX action's packed key tail follows), or `None`
/// when the action halted the simulation. Generic replay and every
/// supertrace op run actions through this one function.
#[inline(always)]
pub(crate) fn replay_action(
    step: &CompiledStep,
    code: &ActionCode,
    action: u32,
    st: &mut MachineState,
    data: &[i64],
    ext_args: &mut Vec<i64>,
) -> Option<usize> {
    let prog = &step.program;
    let range = &code.replay;
    // Instruction count before the ops: retirement only happens inside
    // action ops, so the delta is this action's exact cost.
    let insns0 = st.stats.insns;
    let mut ph = 0usize;
    for &op in &prog.replay[range.start as usize..range.end as usize] {
        // Register loads are about a third of all replay ops: a direct
        // test keeps them off the indirect dispatch below.
        if let Op::LdR { r } = op {
            st.regs[r as usize] = data[ph];
            ph += 1;
            continue;
        }
        match_effect_op!(op, [], prog, st, ext_args, EngineTag::Fast, |_action| {
            return None;
        }, {
            Op::LdG { g } => {
                st.gscalars[g as usize] = data[ph];
                ph += 1;
            }
            Op::LdAgg { agg } => {
                let len = data[ph] as usize;
                st.aggs[agg as usize].load_values(&data[ph + 1..ph + 1 + len]);
                ph += 1 + len;
            }
            _ => unreachable!("replay ranges hold no control, record or next op"),
        })
    }
    st.stats.actions_replayed = st.stats.actions_replayed.saturating_add(1);
    if st.obs.enabled() {
        st.obs
            .action_replayed(action, st.stats.insns.wrapping_sub(insns0));
    }
    Some(ph)
}

/// How many values at the front of `data` — a node of action `code` —
/// are placeholders its replay reads: the rest of an INDEX node's data
/// is its packed key tail, which only key rebuilds read. Stops where
/// replay would, at a `Halt` op or the end of `data`.
pub fn placeholder_len(step: &CompiledStep, code: &ActionCode, data: &[i64]) -> usize {
    let mut ph = 0usize;
    for op in &step.program.replay[code.replay.start as usize..code.replay.end as usize] {
        match op {
            Op::LdR { .. } | Op::LdG { .. } => ph += 1,
            Op::LdAgg { .. } => ph += 1 + data.get(ph).map_or(0, |&len| len.max(0) as usize),
            Op::Halt { .. } => break,
            _ => {}
        }
    }
    ph.min(data.len())
}

/// Materializes the current entry key into `entry_key` (in place, reusing
/// its buffer): either it already holds the right key, or it is rebuilt
/// from the last INDEX crossing's node data + dynamic signature.
pub(crate) fn materialize_entry_key(
    step: &CompiledStep,
    cache: &ActionCache,
    entry_key: &mut Key,
    cur_index: Option<(NodeId, usize)>,
    kw: &mut KeyWriter,
    cur_sig: &[i64],
) {
    let Some((node, ph)) = cur_index else {
        return;
    };
    let n = cache.node(node);
    let ActionKind::Index { site } = step.actions[n.action as usize].kind else {
        unreachable!("index crossing recorded a non-index node");
    };
    kw.reset();
    let mut si = 0usize;
    write_key(
        kw,
        &step.program.nexts[site as usize],
        &cache.node_data(node)[ph..],
        |kw, src| match src {
            KeySrc::Scalar(_) => {
                kw.scalar(cur_sig[si]);
                si += 1;
            }
            KeySrc::Queue(_) => {
                let len = cur_sig[si] as usize;
                kw.queue(&cur_sig[si + 1..si + 1 + len]);
                si += 1 + len;
            }
        },
    );
    entry_key.set_from_bytes(kw.bytes());
}

/// Writes the key of `site` into `w`. Its run-time-static components are
/// the packed key bytes of `tail` — an INDEX node's data after its
/// placeholders — copied as they are; `dynamic` writes each dynamic
/// component in between. Allocates nothing once `w` has grown.
fn write_key(
    w: &mut KeyWriter,
    site: &NextSite,
    tail: &[i64],
    mut dynamic: impl FnMut(&mut KeyWriter, KeySrc),
) {
    let mut r = PackedReader::new(tail);
    // Start of the run of static bytes not yet copied.
    let mut run = 0;
    for c in &site.comps {
        if c.rt {
            r.skip(matches!(c.src, KeySrc::Queue(_)))
                .expect("recorded and loaded tails hold every static component");
        } else {
            w.packed(tail, run..r.pos());
            run = r.pos();
            dynamic(w, c.src);
        }
    }
    w.packed(tail, run..r.pos());
}

/// Collects the dynamic key components of `site` (the node-local link
/// signature) into `sig`, as the slow engine's `Next` does.
#[inline(always)]
pub(crate) fn dynamic_signature(
    step: &CompiledStep,
    site: &NextSite,
    st: &MachineState,
    sig: &mut Vec<i64>,
) {
    sig.clear();
    for c in site.comps.iter().filter(|c| !c.rt) {
        match c.src {
            KeySrc::Scalar(o) => sig.push(o.get(&st.regs, &step.program.consts)),
            KeySrc::Queue(q) => {
                let agg = &st.aggs[q as usize];
                sig.push(agg.len() as i64);
                sig.extend(agg.iter());
            }
        }
    }
}

/// Rebuilds the next step's key for `site` into `w` (already reset by
/// the caller): run-time-static components from the node's `data`
/// starting at offset `ph`, dynamic ones from live state.
pub(crate) fn rebuild_key(
    w: &mut KeyWriter,
    step: &CompiledStep,
    site: &NextSite,
    st: &MachineState,
    data: &[i64],
    ph: usize,
) {
    write_key(w, site, &data[ph..], |w, src| match src {
        KeySrc::Scalar(o) => w.scalar(o.get(&st.regs, &step.program.consts)),
        KeySrc::Queue(q) => w.queue_vals(st.aggs[q as usize].iter()),
    });
}

/// Outcome of one generic INDEX step advance (see [`index_advance`]).
pub(crate) enum IndexStep {
    /// The step boundary was crossed; generic replay continues at `next`.
    Taken {
        /// The next entry's node.
        next: NodeId,
    },
    /// The burst ended (budget, clean boundary with no cached entry).
    Out(FastOutcome),
}

/// The INDEX step advance after `node` (an INDEX node of `action`, for
/// `site`), shared by [`fast_run`]'s generic loop and the supertrace
/// bail path. `scratch.sig` already holds the crossing's dynamic
/// signature and `ph` is where the node's packed key tail starts in its
/// data.
///
/// Fast path: follow the node-local link keyed by the signature — no
/// key serialization; the node's hot-index inline cache makes the
/// common same-successor case one slab compare. Otherwise rebuild the
/// full key for an entry-table lookup and link the signature locally
/// for future replays (at most once per node and signature, so this
/// path is cold), or end the burst at a clean step boundary.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn index_advance(
    step: &CompiledStep,
    st: &mut MachineState,
    cache: &mut ActionCache,
    node: NodeId,
    action: u32,
    site: &NextSite,
    entry_key: &mut Key,
    scratch: &mut ReplayScratch,
    steps: &mut u64,
    max_steps: u64,
    ph: usize,
    cur_index: &mut Option<(NodeId, usize)>,
) -> IndexStep {
    match cache.next_index_local_hot(node, &scratch.sig) {
        Some(next) => {
            if scratch.hot {
                let target = cache.node(next).action;
                scratch.note_dispatch(action, target);
            }
            std::mem::swap(&mut scratch.sig, &mut scratch.cur_sig);
            *cur_index = Some((node, ph));
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
                return IndexStep::Out(FastOutcome::Budget { node: next });
            }
            IndexStep::Taken { next }
        }
        None => {
            scratch.kw.reset();
            rebuild_key(&mut scratch.kw, step, site, st, cache.node_data(node), ph);
            match cache.entry_bytes(scratch.kw.bytes()) {
                Some(next) => {
                    if scratch.hot {
                        let target = cache.node(next).action;
                        scratch.note_dispatch(action, target);
                    }
                    cache.link_existing(node, scratch.kw.bytes().len(), &scratch.sig, next);
                    entry_key.set_from_bytes(scratch.kw.bytes());
                    *cur_index = None;
                    scratch.replayed.clear();
                    if *steps >= max_steps {
                        return IndexStep::Out(FastOutcome::Budget { node: next });
                    }
                    IndexStep::Taken { next }
                }
                None => {
                    let key = Key::from_bytes(scratch.kw.bytes());
                    IndexStep::Out(FastOutcome::NeedSlow {
                        cursor: cache.index_cursor(node, key, &scratch.sig),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The dispatch accumulator must stay exact and first-seen-ordered
    /// across the linear→indexed transition (satellite of PR 7: bursts
    /// touching many INDEX sites used to pay O(sites) per crossing).
    #[test]
    fn note_dispatch_exact_across_many_sites() {
        let mut s = ReplayScratch::new();
        s.begin_burst(true);
        let mut reference: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut first_seen: Vec<(u32, u32)> = Vec::new();
        // A deterministic stream hitting 60 distinct (site, target)
        // pairs with skewed repetition, interleaved so the hot-row probe
        // both hits and misses.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let site = ((x >> 33) % 12) as u32;
            let target = ((x >> 17) % 5) as u32;
            s.note_dispatch(site, target);
            let e = reference.entry((site, target)).or_insert(0);
            if *e == 0 {
                first_seen.push((site, target));
            }
            *e += 1;
        }
        assert_eq!(s.dispatches.len(), reference.len());
        for (i, &(site, target, count)) in s.dispatches.iter().enumerate() {
            assert_eq!(first_seen[i], (site, target), "row order must be first-seen");
            assert_eq!(reference[&(site, target)], count, "count for {site}->{target}");
        }
    }

    /// Re-arming a burst must fully reset the accumulator, including the
    /// sorted index built past the linear threshold.
    #[test]
    fn note_dispatch_resets_between_bursts() {
        let mut s = ReplayScratch::new();
        s.begin_burst(true);
        for i in 0..(DISPATCH_LINEAR_MAX as u32 + 8) {
            s.note_dispatch(i, 0);
        }
        assert_eq!(s.dispatches.len(), DISPATCH_LINEAR_MAX + 8);
        s.begin_burst(true);
        assert!(s.dispatches.is_empty());
        s.note_dispatch(3, 4);
        s.note_dispatch(3, 4);
        assert_eq!(s.dispatches, vec![(3, 4, 2)]);
    }
}
