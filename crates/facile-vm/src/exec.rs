//! Shared execution of lowered ops.
//!
//! Every engine runs ops of the lowered [`facile_codegen::Program`]: the
//! slow engine (on the real state), miss recovery (on the shadow) and
//! replay (each action's replay range, on the real state). `match_op!` is
//! the single implementation of the ops they run alike: the value ops —
//! pure transformations of registers, globals and aggregates plus token
//! fetches — and the rt-static control flow (jumps, branches, switches,
//! and the fused compare-and-branch ops of `program::optimize`).
//! `match_effect_op!` adds the ops with effects beyond those pools —
//! external calls, memory, the cycle and instruction counters, the trace
//! stream and halts — which only the real state sees, so the slow engine
//! and replay share them. Each expands to one `match` holding its arms
//! followed by the caller's own, so every op dispatches once. Arithmetic
//! delegates to `facile_ir::lower::{eval_binop, eval_unop}` so compiler
//! constant folding and every engine agree bit-for-bit.

use crate::state::{AggStorage, MachineState};
use facile_codegen::program::{ParamSlot, Program};
use facile_obs::{EngineTag, TraceEvent};
use facile_runtime::key::{Key, KeyReader};
use facile_runtime::HaltReason;

/// `match $op { <shared arms> $rest }` for an op of `$prog`, over the
/// pools `$regs`, `$gs` (scalar globals) and `$aggs`, with token fetches
/// from `$target`. With `[$pc]`, control ops are shared arms too and set
/// `$pc`, the index of the next op; with `[]` (straight-line replay
/// ranges) they are left to `$rest`.
macro_rules! match_op {
    ($op:expr, [$pc:ident], $prog:expr, $regs:expr, $gs:expr, $aggs:expr, $target:expr, { $($rest:tt)* }) => {
        $crate::exec::match_op!($op, [], $prog, $regs, $gs, $aggs, $target, {
            Op::Jump { to } => $pc = to as usize,
            Op::Br { cond, then_, else_ } => {
                $pc = if $regs[cond as usize] != 0 { then_ } else { else_ } as usize;
            }
            Op::BrAndRR { a, b, then_, else_ } => {
                let t = $regs[a as usize] & $regs[b as usize] != 0;
                $pc = if t { then_ } else { else_ } as usize;
            }
            Op::BrLtRR { a, b, then_, else_ } => {
                let t = $regs[a as usize] < $regs[b as usize];
                $pc = if t { then_ } else { else_ } as usize;
            }
            Op::BrLtRI { a, imm, then_, else_ } => {
                $pc = if $regs[a as usize] < imm { then_ } else { else_ } as usize;
            }
            Op::BrEqRI { a, imm, then_, else_ } => {
                $pc = if $regs[a as usize] == imm { then_ } else { else_ } as usize;
            }
            Op::Switch { val, table } => {
                $pc = $prog.switches[table as usize].target($regs[val as usize]) as usize;
            }
            $($rest)*
        })
    };
    ($op:expr, [], $prog:expr, $regs:expr, $gs:expr, $aggs:expr, $target:expr, { $($rest:tt)* }) => {{
        let consts = &$prog.consts[..];
        use facile_codegen::program::{Op, NO_REG};
        use facile_ir::lower::{eval_binop, eval_unop};
        match $op {
            Op::AddRR { dst, a, b } => {
                $regs[dst as usize] = $regs[a as usize].wrapping_add($regs[b as usize]);
            }
            Op::AddRI { dst, a, imm } => {
                $regs[dst as usize] = $regs[a as usize].wrapping_add(imm);
            }
            Op::SubRR { dst, a, b } => {
                $regs[dst as usize] = $regs[a as usize].wrapping_sub($regs[b as usize]);
            }
            Op::AndRI { dst, a, imm } => $regs[dst as usize] = $regs[a as usize] & imm,
            Op::ShrRI { dst, a, sh } => $regs[dst as usize] = $regs[a as usize] >> sh,
            Op::EqRR { dst, a, b } => {
                $regs[dst as usize] = ($regs[a as usize] == $regs[b as usize]) as i64;
            }
            Op::EqRI { dst, a, imm } => $regs[dst as usize] = ($regs[a as usize] == imm) as i64,
            Op::NeRR { dst, a, b } => {
                $regs[dst as usize] = ($regs[a as usize] != $regs[b as usize]) as i64;
            }
            Op::NeRI { dst, a, imm } => $regs[dst as usize] = ($regs[a as usize] != imm) as i64,
            Op::LtRR { dst, a, b } => {
                $regs[dst as usize] = ($regs[a as usize] < $regs[b as usize]) as i64;
            }
            Op::LtRI { dst, a, imm } => $regs[dst as usize] = ($regs[a as usize] < imm) as i64,
            Op::GtRI { dst, a, imm } => $regs[dst as usize] = ($regs[a as usize] > imm) as i64,
            Op::BinRR { op, dst, a, b } => {
                $regs[dst as usize] = eval_binop(op, $regs[a as usize], $regs[b as usize]);
            }
            Op::BinRI { op, dst, a, imm } => {
                $regs[dst as usize] = eval_binop(op, $regs[a as usize], imm);
            }
            Op::BinIR { op, dst, imm, b } => {
                $regs[dst as usize] = eval_binop(op, imm, $regs[b as usize]);
            }
            Op::Un { op, dst, a } => $regs[dst as usize] = eval_unop(op, $regs[a as usize]),
            Op::CopyR { dst, src } => $regs[dst as usize] = $regs[src as usize],
            Op::CopyI { dst, imm } => $regs[dst as usize] = imm,
            Op::LoadGlobal { dst, g } => $regs[dst as usize] = $gs[g as usize],
            Op::StoreGlobalR { g, src } => $gs[g as usize] = $regs[src as usize],
            Op::StoreGlobalI { g, imm } => $gs[g as usize] = imm,
            Op::ElemGet { dst, agg, idx } => {
                let i = idx.get(&$regs, consts);
                $regs[dst as usize] = $aggs[agg as usize].get(i);
            }
            Op::ElemSet { agg, idx, src } => {
                let i = idx.get(&$regs, consts);
                let v = src.get(&$regs, consts);
                $aggs[agg as usize].set(i, v);
            }
            Op::AggCopy { dst, src } => {
                $crate::state::agg_copy(&mut $aggs, dst as usize, src as usize);
            }
            Op::ArrFill { arr, fill } => {
                let v = fill.get(&$regs, consts);
                $aggs[arr as usize].fill(v);
            }
            Op::QueueGet { dst, q, idx } => {
                let i = idx.get(&$regs, consts);
                $regs[dst as usize] = $aggs[q as usize].queue_get(i);
            }
            Op::QueueLen { dst, q } => $regs[dst as usize] = $aggs[q as usize].queue_len(),
            Op::Queue { op, q, a0, a1, dst } => {
                let a0 = a0.get(&$regs, consts);
                let a1 = a1.get(&$regs, consts);
                let r = $aggs[q as usize].queue_op(op, a0, a1);
                if dst != NO_REG {
                    $regs[dst as usize] = r;
                }
            }
            Op::FetchToken { dst, addr, bits } => {
                let a = addr.get(&$regs, consts);
                $regs[dst as usize] = $target.fetch_token(a as u64, bits) as i64;
            }
            $($rest)*
        }
    }};
}
pub(crate) use match_op;

/// `match_op!` over the real machine state `$st` (a `&mut
/// MachineState`), plus the ops with effects beyond its pools. External
/// calls stage their arguments in `$ext_args`; a halt is announced as
/// engine `$engine`, then `$on_halt` runs with the halting op's action
/// number bound to `$action`.
macro_rules! match_effect_op {
    ($op:expr, [$($pc:ident)?], $prog:expr, $st:ident, $ext_args:expr, $engine:expr,
     |$action:ident| $on_halt:block, { $($rest:tt)* }) => {{
        let k = &$prog.consts[..];
        $crate::exec::match_op!($op, [$($pc)?], $prog, $st.regs, $st.gscalars, $st.aggs, $st.target, {
            Op::CallExt {
                dst,
                ext,
                args,
                len,
            } => {
                $ext_args.clear();
                for a in &$prog.args[args as usize..(args + len) as usize] {
                    $ext_args.push(a.get(&$st.regs, k));
                }
                let r = $st.call_ext(ext as usize, $ext_args);
                if dst != NO_REG {
                    $st.regs[dst as usize] = r;
                }
            }
            Op::MemLoad { bytes, dst, addr } => {
                let a = addr.get(&$st.regs, k) as u64;
                $st.regs[dst as usize] = $st.target.mem.load(a, bytes) as i64;
            }
            Op::MemStore { bytes, addr, src } => {
                let a = addr.get(&$st.regs, k) as u64;
                let v = src.get(&$st.regs, k) as u64;
                $st.target.mem.store(a, bytes, v);
            }
            Op::CountCycles { n } => {
                let v = n.get(&$st.regs, k).max(0) as u64;
                $st.stats.count_cycles(v);
            }
            Op::CountInsns { n } => {
                let v = n.get(&$st.regs, k).max(0) as u64;
                let engine = $st.engine;
                $st.stats.count_insns(engine, v);
            }
            Op::Trace { v } => {
                let v = v.get(&$st.regs, k);
                $st.push_trace(v);
            }
            Op::Halt { code, action: $action } => {
                let c = code.get(&$st.regs, k);
                $crate::exec::halt($st, c, $engine);
                $on_halt
            }
            $($rest)*
        })
    }};
}
pub(crate) use match_effect_op;

/// Stops the simulation with halt code `code` and announces it.
#[cold]
pub(crate) fn halt(st: &mut MachineState, code: i64, engine: EngineTag) {
    st.halted = Some(HaltReason::from_code(code));
    if st.obs.enabled() {
        st.obs.emit(TraceEvent::Halt {
            step: st.obs_step(),
            engine,
            code,
        });
    }
}

/// Writes `main`'s parameters from `key` into a register file and
/// aggregate pool, decoding queue components straight into storage.
///
/// # Panics
///
/// Panics if `key` does not decode per the parameter types — keys are
/// built by the engines, never taken from outside.
pub(crate) fn seed_params(prog: &Program, regs: &mut [i64], aggs: &mut [AggStorage], key: &Key) {
    let mut r = KeyReader::new(key);
    for p in &prog.params {
        match *p {
            ParamSlot::Reg(i) => {
                regs[i as usize] = r.scalar().expect("key decodes per the parameter types");
            }
            ParamSlot::Queue(s) => aggs[s as usize]
                .load_key_queue(&mut r)
                .expect("key decodes per the parameter types"),
        }
    }
}
