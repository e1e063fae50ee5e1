//! The fast/residual simulator (paper Figure 9).
//!
//! Replays recorded actions: walks cache nodes, each a run of actions,
//! runs each action's replay ops back to back — the slow program's own
//! ops, with every placeholder capture turned into a load of the
//! recorded value (`replay_action`) — verifies the dynamic result test
//! that ends a run, and chains across step boundaries through INDEX
//! actions. A missing successor is an *action-cache miss* and hands
//! control back to the slow simulator.
//!
//! The replay loop is the simulator's hot path (>99% of instructions on
//! the paper's workloads) and is written to be allocation-free in steady
//! state: all growable buffers live in a caller-owned [`ReplayScratch`],
//! the current entry key is only materialized lazily at miss/budget
//! boundaries (into a reused buffer), and placeholder data is read
//! straight out of the cache's contiguous slab. See docs/PERFORMANCE.md.

use crate::exec::match_effect_op;
use crate::state::MachineState;
use facile_codegen::program::{KeySrc, NextSite};
use facile_codegen::{ActionCode, ActionKind, CompiledStep, Op};
use facile_obs::{EngineTag, TraceEvent};
use facile_runtime::cache::{same_sig, ActionCache, Cursor, Hint, NodeId};
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
}

impl ReplayScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
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
///
/// When the observer counts per-action costs, the burst's node walks and
/// replay ops are counted too ([`facile_obs::ObsHandle::replay_counts`]);
/// otherwise the loop is instantiated without the counters.
#[allow(clippy::too_many_arguments)] // the replay hot loop threads all reusable state explicitly
pub fn fast_run(
    step: &CompiledStep,
    st: &mut MachineState,
    cache: &mut ActionCache,
    node: NodeId,
    entry_key: &mut Key,
    scratch: &mut ReplayScratch,
    steps: &mut u64,
    max_steps: u64,
) -> FastOutcome {
    let mut n = Counts::default();
    if !st.obs.counts_actions() {
        return run::<false>(step, st, cache, node, entry_key, scratch, steps, max_steps, &mut n);
    }
    let out = run::<true>(step, st, cache, node, entry_key, scratch, steps, max_steps, &mut n);
    st.obs.replay_counts(n.walks, n.ops);
    out
}

/// Node walks and replay ops of one burst (counting runs only).
#[derive(Default)]
struct Counts {
    /// Action-cache nodes walked.
    walks: u64,
    /// Replay ops executed.
    ops: u64,
}

/// The replay loop, instantiated with counting (`COUNT`) and without.
#[allow(clippy::too_many_arguments)]
fn run<const COUNT: bool>(
    step: &CompiledStep,
    st: &mut MachineState,
    cache: &mut ActionCache,
    mut node: NodeId,
    entry_key: &mut Key,
    scratch: &mut ReplayScratch,
    steps: &mut u64,
    max_steps: u64,
    n: &mut Counts,
) -> FastOutcome {
    st.engine = Engine::Fast;
    scratch.replayed.clear();
    // How to reconstruct the current entry's key on demand: the INDEX
    // crossed last (its dynamic signature sits in `scratch.cur_sig`).
    // `None` means `entry_key` already holds the current entry's key.
    let mut cur_index: Option<IndexAt> = None;

    loop {
        if COUNT {
            n.walks += 1;
        }
        let walk = cache.walk(node);
        let data = walk.data;
        // Replay the node's run back to back against the slab-resident
        // data: each action reads its placeholders where recording wrote
        // them, and every action but the last is plain and followed by
        // the next one's number.
        let mut action = walk.action;
        let mut off = 0usize;
        let code = loop {
            let code = &step.actions[action as usize];
            let Some(ph) = replay_action::<COUNT>(
                step,
                code,
                action,
                st,
                &data[off..],
                &mut scratch.ext_args,
                &mut n.ops,
            ) else {
                return FastOutcome::Halted;
            };
            off += ph;
            if !matches!(code.kind, ActionKind::Plain) || off == data.len() {
                break code;
            }
            scratch.replayed.push(Replayed {
                action,
                value: None,
            });
            action = data[off] as u32;
            off += 1;
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
                let next = match walk.hint {
                    Hint::Test(predicted, next) if predicted == v => Some(next),
                    _ => cache.next_test_hot(node, v),
                };
                match next {
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
            ActionKind::Index { site: site_no } => {
                let site = &step.program.nexts[site_no as usize];
                st.stats.fast_steps = st.stats.fast_steps.saturating_add(1);
                *steps += 1;
                dynamic_signature(step, site, st, &mut scratch.sig);
                let predicted = match walk.hint {
                    Hint::Index(sig, next, owned) if same_sig(sig, &scratch.sig) => {
                        if owned {
                            cache.touch(next);
                        }
                        Some(next)
                    }
                    _ => None,
                };
                // Without a holding prediction, follow the node-local link
                // keyed by the signature — no key serialization. Failing
                // that, rebuild the full key for an entry-table lookup and
                // link the signature locally for future replays (at most
                // once per node and signature, so this path is cold), or
                // end the burst at a clean step boundary.
                let next = match predicted.or_else(|| cache.next_index_local_hot(node, &scratch.sig))
                {
                    Some(next) => {
                        std::mem::swap(&mut scratch.sig, &mut scratch.cur_sig);
                        cur_index = Some(IndexAt {
                            node,
                            site: site_no,
                            tail: off,
                        });
                        next
                    }
                    None => {
                        scratch.kw.reset();
                        rebuild_key(&mut scratch.kw, step, site, st, cache.node_data(node), off);
                        let Some(next) = cache.entry_bytes(scratch.kw.bytes()) else {
                            let key = Key::from_bytes(scratch.kw.bytes());
                            return FastOutcome::NeedSlow {
                                cursor: cache.index_cursor(node, key, &scratch.sig),
                            };
                        };
                        cache.link_existing(node, scratch.kw.bytes().len(), &scratch.sig, next);
                        entry_key.set_from_bytes(scratch.kw.bytes());
                        cur_index = None;
                        next
                    }
                };
                scratch.replayed.clear();
                if *steps >= max_steps {
                    materialize_entry_key(
                        step,
                        cache,
                        entry_key,
                        cur_index,
                        &mut scratch.kw,
                        &scratch.cur_sig,
                    );
                    return FastOutcome::Budget { node: next };
                }
                node = next;
            }
        }
    }
}

/// Counts an action-cache miss and announces it to the observer.
/// `value` is the divergent test value for dynamic-result-test misses.
fn note_miss(st: &mut MachineState, action: u32, depth: usize, value: Option<i64>) {
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
/// when the action halted the simulation. With `COUNT` — chosen when the
/// observer counts per-action costs — every op executed is added to
/// `ops` and the action's instructions are attributed to it.
#[inline(always)]
fn replay_action<const COUNT: bool>(
    step: &CompiledStep,
    code: &ActionCode,
    action: u32,
    st: &mut MachineState,
    data: &[i64],
    ext_args: &mut Vec<i64>,
    ops: &mut u64,
) -> Option<usize> {
    let prog = &step.program;
    let range = &code.replay;
    // Instruction count before the ops: retirement only happens inside
    // action ops, so the delta is this action's exact cost.
    let insns0 = if COUNT { st.stats.insns } else { 0 };
    let mut ph = 0usize;
    for &op in &prog.replay[range.start as usize..range.end as usize] {
        if COUNT {
            *ops += 1;
        }
        // Register loads take a direct test ahead of the indirect
        // dispatch below.
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
            Op::LdElemGet { dst, agg, r } => {
                let i = data[ph];
                ph += 1;
                st.regs[r as usize] = i;
                st.regs[dst as usize] = st.aggs[agg as usize].get(i);
            }
            Op::LdElemSet { agg, r, src } => {
                let i = data[ph];
                ph += 1;
                st.regs[r as usize] = i;
                let v = src.get(&st.regs, &prog.consts);
                st.aggs[agg as usize].set(i, v);
            }
            _ => unreachable!("replay ranges hold no control, record or next op"),
        })
    }
    st.stats.actions_replayed = st.stats.actions_replayed.saturating_add(1);
    if COUNT {
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
            Op::LdR { .. } | Op::LdG { .. } | Op::LdElemGet { .. } | Op::LdElemSet { .. } => {
                ph += 1
            }
            Op::LdAgg { .. } => ph += 1 + data.get(ph).map_or(0, |&len| len.max(0) as usize),
            Op::Halt { .. } => break,
            _ => {}
        }
    }
    ph.min(data.len())
}

/// The last action of a node's run, whose run starts with `first` and
/// holds `data` (see [`facile_runtime::cache::Node`]), and where its
/// placeholders end in `data`: an INDEX action's key tail starts there.
/// Walks the run as replay does; `data` must hold a recorded or
/// validated run.
pub fn run_end(step: &CompiledStep, first: u32, data: &[i64]) -> (u32, usize) {
    let (mut action, mut off) = (first, 0usize);
    loop {
        let code = &step.actions[action as usize];
        off += placeholder_len(step, code, &data[off..]);
        if !matches!(code.kind, ActionKind::Plain) || off >= data.len() {
            return (action, off);
        }
        action = data[off] as u32;
        off += 1;
    }
}

/// An INDEX crossing: the node whose run ends in the INDEX action, the
/// action's site and where its key tail starts in the node's data.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IndexAt {
    pub(crate) node: NodeId,
    pub(crate) site: u32,
    pub(crate) tail: usize,
}

/// Materializes the current entry key into `entry_key` (in place, reusing
/// its buffer): either it already holds the right key, or it is rebuilt
/// from the last INDEX crossing's node data + dynamic signature.
pub(crate) fn materialize_entry_key(
    step: &CompiledStep,
    cache: &ActionCache,
    entry_key: &mut Key,
    cur_index: Option<IndexAt>,
    kw: &mut KeyWriter,
    cur_sig: &[i64],
) {
    let Some(at) = cur_index else {
        return;
    };
    kw.reset();
    let mut si = 0usize;
    write_key(
        kw,
        &step.program.nexts[at.site as usize],
        &cache.node_data(at.node)[at.tail..],
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
fn dynamic_signature(
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
