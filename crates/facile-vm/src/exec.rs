//! Shared execution of lowered ops.
//!
//! The slow engine (on the real state) and miss recovery (on the shadow)
//! both run the lowered [`facile_codegen::Program`]; `match_op!` is the
//! single implementation of the ops they run alike: the value ops — pure
//! transformations of registers, globals and aggregates plus token
//! fetches — and the rt-static control flow (jumps, branches, switches).
//! It expands to one `match` holding those arms followed by the caller's
//! own arms, so every op dispatches once. Arithmetic delegates to
//! `facile_ir::lower::{eval_binop, eval_unop}` so compiler constant
//! folding, the slow engine and the fast engine agree bit-for-bit.

use crate::state::AggStorage;
use facile_codegen::program::{ParamSlot, Program};
use facile_runtime::key::{Key, KeyReader};

/// `match $op { <shared arms> $rest }` for an op of `$prog`, over the
/// pools `$regs`, `$gs` (scalar globals) and `$aggs`, with token fetches
/// from `$target`; control ops set `$pc`, the index of the next op.
macro_rules! match_op {
    ($op:expr, $pc:ident, $prog:expr, $regs:expr, $gs:expr, $aggs:expr, $target:expr, { $($rest:tt)* }) => {{
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
            Op::Jump { to } => $pc = to as usize,
            Op::Br { cond, then_, else_ } => {
                $pc = if $regs[cond as usize] != 0 { then_ } else { else_ } as usize;
            }
            Op::Switch { val, table } => {
                $pc = $prog.switches[table as usize].target($regs[val as usize]) as usize;
            }
            $($rest)*
        }
    }};
}
pub(crate) use match_op;

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
