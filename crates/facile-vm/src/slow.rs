//! The slow/complete simulator (paper Figure 10).
//!
//! Interprets the annotated IR on the authoritative machine state. With
//! recording enabled it plays the paper's instrumented slow engine:
//! `memoize_action_number` at every action start, `memoize_static_data`
//! for run-time-static operands, `memoize_dynamic_result` at dynamic
//! result tests, and the INDEX record at `next(...)`.

use crate::exec::{ev, exec_fetch, exec_value_inst};
use crate::state::{MachineState, Store};
use facile_codegen::{ActionKind, Closes, CompiledStep, KeyPlanArg, LiftWhat};
use facile_ir::ir::{BlockId, Inst, KeyArg, Operand, Terminator};
use facile_obs::{EngineTag, TraceEvent};
use facile_runtime::cache::{ActionCache, Cursor};
use facile_runtime::key::{Key, KeyWriter};
use facile_runtime::HaltReason;

/// A program position: block plus instruction index (`inst` may equal the
/// instruction count, meaning "at the terminator").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Position {
    /// The block.
    pub block: BlockId,
    /// Instruction index within the block.
    pub inst: usize,
}

impl Position {
    /// The entry position of a step function.
    pub fn entry(step: &CompiledStep) -> Position {
        Position {
            block: step.ir.main.entry,
            inst: 0,
        }
    }
}

/// Result of one slow step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step ended with `next(...)`: here is the next key.
    Next(Key),
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

/// Runs one step of the slow simulator from `start`.
///
/// With `rec` present, dynamic behaviour is recorded into the action
/// cache at the cursor. `start` is normally the entry; after a miss
/// recovery it is the recovery's resume position.
pub fn slow_step(
    step: &CompiledStep,
    st: &mut MachineState,
    mut rec: Option<Recording<'_>>,
    start: Position,
) -> StepOutcome {
    let mut block = start.block;
    let mut ii = start.inst;
    // The open action group. Placeholder data accumulates in one reused
    // buffer (`group`) — the cache copies it into its slab on record, so
    // recording a group does not allocate a fresh vector.
    let mut pending: Option<u32> = None;
    let mut group: Vec<i64> = Vec::new();
    // Instruction count at the open of the current group: retirement is
    // always a dynamic op, so the delta at close is the group's exact
    // instruction cost (profiling attribution; recording runs only).
    let mut group_insns0: u64 = 0;
    // Reused staging for external-call arguments.
    let mut ext_args: Vec<i64> = Vec::new();
    // Reused staging for a recorded instruction's operands.
    let mut ops: Vec<Operand> = Vec::new();

    loop {
        let b = &step.ir.main.blocks[block.index()];
        let annots = &step.blocks[block.index()];
        // Paired iteration over instructions and their annotations keeps
        // the dispatch loop free of per-instruction bounds checks.
        for (inst, annot) in b.insts[ii..].iter().zip(annots.insts[ii..].iter()) {

            if rec.is_some() {
                if let Some(a) = annot.action_start {
                    debug_assert!(pending.is_none(), "previous group not closed");
                    pending = Some(a);
                    group.clear();
                    group_insns0 = st.stats.insns;
                }
                if annot.dynamic && annot.closes != Some(Closes::Index) {
                    debug_assert!(
                        pending.is_some(),
                        "dynamic instruction inside an open group"
                    );
                    let data = &mut group;
                    if let Some(lift) = &annot.lift {
                        match lift {
                            LiftWhat::Var(v) => data.push(st.reg(*v)),
                            LiftWhat::Global(g) => data.push(st.gscalar(*g)),
                            LiftWhat::Agg(loc) => {
                                let agg = st.agg(*loc);
                                data.push(agg.len() as i64);
                                data.extend(agg.iter());
                            }
                        }
                    } else {
                        ops.clear();
                        ops.extend(inst.operands());
                        for &k in &annot.placeholders {
                            data.push(ev(ops[k as usize], st));
                        }
                    }
                }
            }

            // Execute concretely.
            if !exec_value_inst(inst, st) {
                match inst {
                    Inst::FetchToken { dst, stream, token } => {
                        exec_fetch(*dst, *stream, step.ir.token_widths[token.index()], st);
                    }
                    Inst::CallExt { ext, args, dst } => {
                        ext_args.clear();
                        for &a in args.iter() {
                            ext_args.push(ev(a, st));
                        }
                        let r = st.call_ext(ext.index(), &ext_args);
                        if let Some(d) = dst {
                            st.set_reg(*d, r);
                        }
                    }
                    Inst::MemLoad { width, dst, addr } => {
                        let a = ev(*addr, st) as u64;
                        let v = st.target.mem.load(a, width.bytes() as u32) as i64;
                        st.set_reg(*dst, v);
                    }
                    Inst::MemStore { width, addr, src } => {
                        let a = ev(*addr, st) as u64;
                        let v = ev(*src, st) as u64;
                        st.target.mem.store(a, width.bytes() as u32, v);
                    }
                    Inst::CountCycles { n } => {
                        let v = ev(*n, st).max(0) as u64;
                        st.stats.count_cycles(v);
                    }
                    Inst::CountInsns { n } => {
                        let v = ev(*n, st).max(0) as u64;
                        let engine = st.engine;
                        st.stats.count_insns(engine, v);
                    }
                    Inst::Halt { code } => {
                        let c = ev(*code, st);
                        st.halted = Some(HaltReason::from_code(c));
                        if st.obs.enabled() {
                            st.obs.emit(TraceEvent::Halt {
                                step: st.obs_step(),
                                engine: EngineTag::Slow,
                                code: c,
                            });
                        }
                        if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                            rec.cache.record_plain(rec.cursor, a, &group);
                            if st.obs.enabled() {
                                st.obs
                                    .action_slow(a, st.stats.insns.wrapping_sub(group_insns0));
                            }
                        }
                        return StepOutcome::Halted;
                    }
                    Inst::Trace { v } => {
                        let val = ev(*v, st);
                        st.push_trace(val);
                    }
                    Inst::Verify { dst, src } => {
                        let v = ev(*src, st);
                        st.set_reg(*dst, v);
                        if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                            rec.cache.record_test(rec.cursor, a, &group, v);
                            if st.obs.enabled() {
                                st.obs
                                    .action_slow(a, st.stats.insns.wrapping_sub(group_insns0));
                            }
                        }
                    }
                    Inst::SetNext { args } => {
                        let key = build_key(args, st);
                        if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                            let data = &mut group;
                            // Memoize the run-time-static key components so
                            // the fast engine can rebuild the key, and
                            // collect the dynamic signature used for
                            // node-local INDEX links.
                            let ActionKind::Index { plan } = &step.actions[a as usize].kind
                            else {
                                unreachable!("SetNext closes an Index action");
                            };
                            let mut sig: Vec<i64> = Vec::new();
                            for (plan_arg, arg) in plan.iter().zip(args.iter()) {
                                match (plan_arg, arg) {
                                    (KeyPlanArg::ScalarRt, KeyArg::Scalar(o)) => {
                                        data.push(ev(*o, st));
                                    }
                                    (KeyPlanArg::QueueRt, KeyArg::Queue(loc)) => {
                                        let agg = st.agg(*loc);
                                        data.push(agg.len() as i64);
                                        data.extend(agg.iter());
                                    }
                                    (KeyPlanArg::ScalarDyn(_), KeyArg::Scalar(o)) => {
                                        sig.push(ev(*o, st));
                                    }
                                    (KeyPlanArg::QueueDyn(_), KeyArg::Queue(loc)) => {
                                        let agg = st.agg(*loc);
                                        sig.push(agg.len() as i64);
                                        sig.extend(agg.iter());
                                    }
                                    _ => {}
                                }
                            }
                            rec.cache.record_index(rec.cursor, a, data, key.clone(), sig);
                            if st.obs.enabled() {
                                st.obs
                                    .action_slow(a, st.stats.insns.wrapping_sub(group_insns0));
                            }
                        }
                        return StepOutcome::Next(key);
                    }
                    // Lifts have no slow-engine effect: the real state
                    // already holds the concrete values.
                    Inst::LiftVar { .. } | Inst::LiftGlobal { .. } | Inst::LiftAgg { .. } => {}
                    other => unreachable!("value instruction not executed: {other}"),
                }
            }
        }

        // Close a plain group at the block end.
        if annots.term_action.is_none() {
            if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                rec.cache.record_plain(rec.cursor, a, &group);
                if st.obs.enabled() {
                    st.obs
                        .action_slow(a, st.stats.insns.wrapping_sub(group_insns0));
                }
            }
        }

        // The terminator.
        match &b.term {
            Terminator::Jump(t) => {
                block = *t;
                ii = 0;
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let v = ev(*cond, st);
                if let Some(a) = annots.term_action {
                    if let Some(rec) = &mut rec {
                        let open = pending.take().is_some();
                        let data: &[i64] = if open { &group } else { &[] };
                        rec.cache.record_test(rec.cursor, a, data, v);
                        if st.obs.enabled() {
                            let insns = if open {
                                st.stats.insns.wrapping_sub(group_insns0)
                            } else {
                                0
                            };
                            st.obs.action_slow(a, insns);
                        }
                    } else {
                        pending = None;
                    }
                }
                block = if v != 0 { *then_bb } else { *else_bb };
                ii = 0;
            }
            Terminator::Switch {
                val,
                cases,
                default,
            } => {
                let v = ev(*val, st);
                if let Some(a) = annots.term_action {
                    if let Some(rec) = &mut rec {
                        let open = pending.take().is_some();
                        let data: &[i64] = if open { &group } else { &[] };
                        rec.cache.record_test(rec.cursor, a, data, v);
                        if st.obs.enabled() {
                            let insns = if open {
                                st.stats.insns.wrapping_sub(group_insns0)
                            } else {
                                0
                            };
                            st.obs.action_slow(a, insns);
                        }
                    } else {
                        pending = None;
                    }
                }
                block = cases
                    .iter()
                    .find(|(c, _)| *c == v)
                    .map(|&(_, t)| t)
                    .unwrap_or(*default);
                ii = 0;
            }
            Terminator::Return => {
                // A step that falls off the end never called `next`.
                st.halted = Some(HaltReason::NoNext);
                if st.obs.enabled() {
                    st.obs.emit(TraceEvent::Halt {
                        step: st.obs_step(),
                        engine: EngineTag::Slow,
                        code: 1,
                    });
                }
                if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                    rec.cache.record_plain(rec.cursor, a, &group);
                    if st.obs.enabled() {
                        st.obs
                            .action_slow(a, st.stats.insns.wrapping_sub(group_insns0));
                    }
                }
                return StepOutcome::Halted;
            }
        }
    }
}

/// Serializes the concrete values of `next(...)` arguments into a key.
pub fn build_key(args: &[KeyArg], st: &MachineState) -> Key {
    let mut w = KeyWriter::new();
    for arg in args {
        match arg {
            KeyArg::Scalar(o) => w.scalar(ev(*o, st)),
            KeyArg::Queue(loc) => {
                w.queue_vals(st.agg(*loc).iter());
            }
        }
    }
    w.finish()
}
