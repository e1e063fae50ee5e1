//! The slow/complete simulator (paper Figure 10).
//!
//! Runs the lowered step program ([`facile_codegen::Program`]) on the
//! authoritative machine state. With recording enabled it plays the
//! paper's instrumented slow engine: the program's record ops are the
//! compiler-added `memoize_action_number` (at every action start),
//! `memoize_static_data` (for run-time-static operands),
//! `memoize_dynamic_result` (at dynamic result tests) and the INDEX record
//! at `next(...)`. Without recording the interpreter is instantiated with
//! those ops compiled to nothing.

use crate::exec::match_effect_op;
use crate::state::MachineState;
use facile_codegen::program::KeySrc;
use facile_codegen::CompiledStep;
use facile_obs::EngineTag;
use facile_runtime::cache::{payload_bytes, ActionCache, Cursor};
use facile_runtime::key::{pack_bytes, varint_len, zigzag, Key, KeyWriter};

/// Result of one slow step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step ended with `next(...)`; the next key is in the scratch
    /// ([`SlowScratch::next_key`]).
    Next,
    /// The simulation stopped (reason recorded in the machine state).
    Halted,
}

/// Recording hooks (absent in the paper's "without memoization" builds).
pub struct Recording<'a> {
    /// The specialized action cache.
    pub cache: &'a mut ActionCache,
    /// Where the next node links.
    pub cursor: &'a mut Cursor,
}

/// Reusable buffers for slow steps, owned per simulation (the slow
/// engine's counterpart of [`crate::fast::ReplayScratch`]) so recording
/// allocates nothing of its own once they have grown.
#[derive(Default)]
pub struct SlowScratch {
    /// Placeholder data of the open action group (the cache copies it
    /// into its slab on record).
    group: Vec<i64>,
    /// Dynamic signature of the INDEX action being recorded.
    sig: Vec<i64>,
    /// Key bytes of the INDEX action's run-time-static components, in
    /// order (packed into the group's words on record).
    tail: Vec<u8>,
    /// External-call argument staging.
    ext_args: Vec<i64>,
    /// The next key, serialized.
    kw: KeyWriter,
}

impl SlowScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The key the last step that ended in [`StepOutcome::Next`] built.
    pub fn next_key(&self) -> &[u8] {
        self.kw.bytes()
    }
}

/// Runs one step of the slow simulator from op `start` of the step's
/// program.
///
/// With `rec` present, dynamic behaviour is recorded into the action
/// cache at the cursor. `start` is normally the program's entry; after a
/// miss recovery it is the recovery's resume op. When the observer counts
/// per-action costs, the ops the step executes are counted too
/// ([`facile_obs::ObsHandle::slow_ops`]).
pub fn slow_step(
    step: &CompiledStep,
    st: &mut MachineState,
    rec: Option<Recording<'_>>,
    scratch: &mut SlowScratch,
    start: u32,
) -> StepOutcome {
    match (rec, st.obs.counts_actions()) {
        (Some(rec), false) => run::<true, false>(step, st, Some(rec), scratch, start),
        (None, false) => run::<false, false>(step, st, None, scratch, start),
        (Some(rec), true) => run::<true, true>(step, st, Some(rec), scratch, start),
        (None, true) => run::<false, true>(step, st, None, scratch, start),
    }
}

/// The interpreter, instantiated with recording (`REC`) and without,
/// where every record op is a no-op, and with op counting (`COUNT`) and
/// without.
fn run<const REC: bool, const COUNT: bool>(
    step: &CompiledStep,
    st: &mut MachineState,
    mut rec: Option<Recording<'_>>,
    scratch: &mut SlowScratch,
    start: u32,
) -> StepOutcome {
    let prog = &step.program;
    let (ops, consts) = (&prog.ops[..], &prog.consts[..]);
    let SlowScratch {
        group,
        sig,
        tail,
        ext_args,
        kw,
    } = scratch;
    // Instruction count at the open of the current group: retirement is
    // always a dynamic op, so the delta at close is the group's exact
    // instruction cost (profiling attribution; recording runs only).
    let mut group_insns0: u64 = 0;
    // Ops executed so far (counting runs only).
    let mut n_ops: u64 = 0;
    let mut pc = start as usize;
    loop {
        let op = ops[pc];
        pc += 1;
        if COUNT {
            n_ops += 1;
        }
        match_effect_op!(op, [pc], prog, st, ext_args, EngineTag::Slow, |action| {
            if REC {
                if let Some(rec) = &mut rec {
                    rec.cache.record_plain(rec.cursor, action, group);
                    action_slow(st, action, group_insns0);
                }
            }
            if COUNT {
                st.obs.slow_ops(n_ops);
            }
            return StepOutcome::Halted;
        }, {
            Op::Start { .. } | Op::PhR { .. } | Op::PhG { .. } | Op::PhAgg { .. } if !REC => {}
            Op::Start { .. } => {
                group.clear();
                group_insns0 = st.stats.insns;
            }
            Op::PhR { r } => group.push(st.regs[r as usize]),
            Op::PhG { g } => group.push(st.gscalars[g as usize]),
            Op::PhAgg { agg } => {
                let a = &st.aggs[agg as usize];
                group.push(a.len() as i64);
                group.extend(a.iter());
            }
            Op::ClosePlain { action } => {
                if REC {
                    if let Some(rec) = &mut rec {
                        rec.cache.record_plain(rec.cursor, action, group);
                        action_slow(st, action, group_insns0);
                    }
                }
            }
            Op::CloseVerify { action, dst } => {
                if REC {
                    if let Some(rec) = &mut rec {
                        let v = st.regs[dst as usize];
                        rec.cache.record_test(rec.cursor, action, group, v);
                        action_slow(st, action, group_insns0);
                    }
                }
            }
            Op::TestClose { action, src, open } => {
                if REC {
                    if let Some(rec) = &mut rec {
                        let v = st.regs[src as usize];
                        let data: &[i64] = if open { group } else { &[] };
                        rec.cache.record_test(rec.cursor, action, data, v);
                        if st.obs.enabled() {
                            let insns = if open {
                                st.stats.insns.wrapping_sub(group_insns0)
                            } else {
                                0
                            };
                            st.obs.action_slow(action, insns);
                        }
                    }
                }
            }
            Op::Next { site } => {
                let site = &prog.nexts[site as usize];
                kw.reset();
                sig.clear();
                tail.clear();
                // Modeled size of the run-time-static components beyond
                // their key bytes: the cache charges a queue's length as
                // a zig-zag varint, the key writes it as a plain one.
                let mut surcharge = 0u64;
                // The key serializes every component. While recording,
                // the run-time-static ones are also memoized as the key
                // bytes just written (so the fast engine can rebuild the
                // key) and the dynamic ones form the signature for
                // node-local INDEX links.
                for c in &site.comps {
                    let at = kw.bytes().len();
                    match c.src {
                        KeySrc::Scalar(o) => {
                            let v = o.get(&st.regs, consts);
                            kw.scalar(v);
                            if REC && !c.rt {
                                sig.push(v);
                            }
                        }
                        KeySrc::Queue(q) => {
                            let a = &st.aggs[q as usize];
                            kw.queue_vals(a.iter());
                            if REC && c.rt {
                                let n = a.len() as u64;
                                surcharge += (varint_len(zigzag(n as i64)) - varint_len(n)) as u64;
                            } else if REC {
                                sig.push(a.len() as i64);
                                sig.extend(a.iter());
                            }
                        }
                    }
                    if REC && c.rt {
                        tail.extend_from_slice(&kw.bytes()[at..]);
                    }
                }
                if REC {
                    if let Some(rec) = &mut rec {
                        let payload = payload_bytes(group) + tail.len() as u64 + surcharge;
                        pack_bytes(tail, group);
                        let key = Key::from_bytes(kw.bytes());
                        rec.cache
                            .record_index(rec.cursor, site.action, group, payload, key, sig);
                        action_slow(st, site.action, group_insns0);
                    }
                }
                if COUNT {
                    st.obs.slow_ops(n_ops);
                }
                return StepOutcome::Next;
            }
            Op::Ret => {
                // A step that falls off the end never called `next`
                // (halt code 1, `HaltReason::NoNext`).
                crate::exec::halt(st, 1, EngineTag::Slow);
                if COUNT {
                    st.obs.slow_ops(n_ops);
                }
                return StepOutcome::Halted;
            }
            Op::LdR { .. }
            | Op::LdG { .. }
            | Op::LdAgg { .. }
            | Op::LdElemGet { .. }
            | Op::LdElemSet { .. } => unreachable!("load ops are replay-only"),
        })
    }
}

/// Attributes a closed group's instructions to its action (profiling).
#[inline]
fn action_slow(st: &MachineState, action: u32, insns0: u64) {
    if st.obs.enabled() {
        st.obs
            .action_slow(action, st.stats.insns.wrapping_sub(insns0));
    }
}
