//! Compile-time constant folding, copy propagation and dead-code
//! elimination.
//!
//! The paper notes (§6.3, item 5) that its binding-time analysis already
//! distinguishes compile-time static data but performs no compile-time
//! partial evaluation; "constant folding and similar optimizations may
//! benefit both the slow and fast simulators". This pass implements that
//! proposal:
//!
//! * per-block constant/copy propagation and algebraic folding,
//! * branch/switch simplification when the scrutinee is constant,
//! * removal of pure instructions whose results are never used.
//!
//! The pass is deliberately local (no global value numbering): decode
//! chains produced by `lower` — shifts and masks of a fetched token —
//! are its main target, together with the `x + 0`/`x * 1` debris of
//! mechanical lowering.

use crate::ir::*;
use crate::liveness::{for_each_touched_agg, terminator_use};
use crate::lower::{eval_binop, eval_unop};
use std::collections::HashMap;

/// Statistics of one folding run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Instructions rewritten to simpler forms (or to constants).
    pub folded: usize,
    /// Branch/switch terminators replaced by unconditional jumps.
    pub terminators_simplified: usize,
    /// Pure instructions removed because their result was unused.
    pub removed: usize,
}

/// Folds constants and removes dead pure instructions in place.
///
/// Runs to a fixed point (folding exposes dead code, which exposes more
/// folding opportunities). Semantics are preserved exactly: arithmetic uses
/// the same wrapping evaluators as the VM.
pub fn fold_constants(f: &mut IrFunction) -> FoldStats {
    let mut total = FoldStats::default();
    loop {
        let mut stats = FoldStats::default();
        propagate_and_fold(f, &mut stats);
        remove_dead(f, &mut stats);
        total.folded += stats.folded;
        total.terminators_simplified += stats.terminators_simplified;
        total.removed += stats.removed;
        if stats == FoldStats::default() {
            return total;
        }
    }
}

fn propagate_and_fold(f: &mut IrFunction, stats: &mut FoldStats) {
    // Count assignments per var across the whole function: a var assigned
    // exactly once can be propagated across blocks; multiply-assigned vars
    // only within the current block up to reassignment.
    let mut assign_count: HashMap<VarId, u32> = HashMap::new();
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = i.dst() {
                *assign_count.entry(d).or_default() += 1;
            }
        }
    }
    for p in &f.params {
        *assign_count.entry(*p).or_default() += 1;
    }

    // Single-assignment constants, valid function-wide only when the
    // defining block dominates the use; to stay simple and sound we only
    // promote single-assignment vars defined in the entry block or used in
    // the defining block. Per-block map resets at block boundaries and is
    // seeded with entry-block facts.
    let mut global_consts: HashMap<VarId, i64> = HashMap::new();
    {
        let entry = &f.blocks[f.entry.index()];
        for i in &entry.insts {
            if let Inst::Copy {
                dst,
                src: Operand::Const(c),
            } = i
            {
                if assign_count.get(dst) == Some(&1) {
                    global_consts.insert(*dst, *c);
                }
            }
        }
    }

    for bi in 0..f.blocks.len() {
        let mut consts: HashMap<VarId, i64> = global_consts.clone();
        // Copy chains: dst -> src var (single-assignment temps only).
        let mut copies: HashMap<VarId, VarId> = HashMap::new();

        let block = &mut f.blocks[bi];
        for inst in &mut block.insts {
            // Rewrite operands through known constants/copies.
            let resolve = |op: Operand, consts: &HashMap<VarId, i64>, copies: &HashMap<VarId, VarId>| -> Operand {
                match op {
                    Operand::Var(v) => {
                        if let Some(&c) = consts.get(&v) {
                            Operand::Const(c)
                        } else if let Some(&src) = copies.get(&v) {
                            Operand::Var(src)
                        } else {
                            op
                        }
                    }
                    c => c,
                }
            };
            let before = inst.clone();
            match inst {
                Inst::Bin { op, dst, a, b } => {
                    *a = resolve(*a, &consts, &copies);
                    *b = resolve(*b, &consts, &copies);
                    let dst = *dst;
                    if let (Operand::Const(ca), Operand::Const(cb)) = (*a, *b) {
                        let v = eval_binop(*op, ca, cb);
                        *inst = Inst::Copy {
                            dst,
                            src: Operand::Const(v),
                        };
                    } else if let Some(simpler) = algebraic(*op, *a, *b) {
                        *inst = Inst::Copy { dst, src: simpler };
                    }
                }
                Inst::Un { op, dst, a } => {
                    *a = resolve(*a, &consts, &copies);
                    if let Operand::Const(c) = *a {
                        let v = eval_unop(*op, c);
                        *inst = Inst::Copy {
                            dst: *dst,
                            src: Operand::Const(v),
                        };
                    }
                }
                Inst::Copy { src, .. } => {
                    *src = resolve(*src, &consts, &copies);
                }
                Inst::StoreGlobal { src, .. } => {
                    *src = resolve(*src, &consts, &copies);
                }
                Inst::ElemGet { idx, .. } => {
                    *idx = resolve(*idx, &consts, &copies);
                }
                Inst::ElemSet { idx, src, .. } => {
                    *idx = resolve(*idx, &consts, &copies);
                    *src = resolve(*src, &consts, &copies);
                }
                Inst::ArrFill { fill, .. } => {
                    *fill = resolve(*fill, &consts, &copies);
                }
                Inst::Queue { args, .. } => {
                    for a in args.iter_mut().flatten() {
                        *a = resolve(*a, &consts, &copies);
                    }
                }
                Inst::FetchToken { stream, .. } => {
                    *stream = resolve(*stream, &consts, &copies);
                }
                Inst::CallExt { args, .. } => {
                    for a in args {
                        *a = resolve(*a, &consts, &copies);
                    }
                }
                Inst::MemLoad { addr, .. } => {
                    *addr = resolve(*addr, &consts, &copies);
                }
                Inst::MemStore { addr, src, .. } => {
                    *addr = resolve(*addr, &consts, &copies);
                    *src = resolve(*src, &consts, &copies);
                }
                Inst::CountCycles { n } | Inst::CountInsns { n } => {
                    *n = resolve(*n, &consts, &copies);
                }
                Inst::Halt { code } => {
                    *code = resolve(*code, &consts, &copies);
                }
                Inst::Trace { v } => {
                    *v = resolve(*v, &consts, &copies);
                }
                Inst::Verify { src, .. } => {
                    *src = resolve(*src, &consts, &copies);
                }
                Inst::SetNext { args } => {
                    for a in args {
                        if let KeyArg::Scalar(op) = a {
                            *op = resolve(*op, &consts, &copies);
                        }
                    }
                }
                Inst::LoadGlobal { .. }
                | Inst::AggCopy { .. }
                | Inst::LiftVar { .. }
                | Inst::LiftGlobal { .. }
                | Inst::LiftAgg { .. } => {}
            }
            if *inst != before {
                stats.folded += 1;
            }
            // Update the fact tables after the (possibly rewritten) inst.
            if let Some(d) = inst.dst() {
                consts.remove(&d);
                copies.remove(&d);
                // Invalidate copies *of* d.
                copies.retain(|_, &mut s| s != d);
                if let Inst::Copy { dst, src } = inst {
                    match src {
                        Operand::Const(c) => {
                            consts.insert(*dst, *c);
                        }
                        Operand::Var(s)
                            if assign_count.get(s) == Some(&1)
                                && assign_count.get(dst) == Some(&1) =>
                        {
                            copies.insert(*dst, *s);
                        }
                        _ => {}
                    }
                }
            }
        }

        // Simplify the terminator.
        let term = &mut block.term;
        let resolved = |op: Operand| -> Operand {
            match op {
                Operand::Var(v) => consts
                    .get(&v)
                    .map(|&c| Operand::Const(c))
                    .unwrap_or(op),
                c => c,
            }
        };
        match term {
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                *cond = resolved(*cond);
                if let Operand::Const(c) = cond {
                    let target = if *c != 0 { *then_bb } else { *else_bb };
                    *term = Terminator::Jump(target);
                    stats.terminators_simplified += 1;
                } else if then_bb == else_bb {
                    *term = Terminator::Jump(*then_bb);
                    stats.terminators_simplified += 1;
                }
            }
            Terminator::Switch {
                val,
                cases,
                default,
            } => {
                *val = resolved(*val);
                if let Operand::Const(c) = val {
                    let target = cases
                        .iter()
                        .find(|(v, _)| v == c)
                        .map(|&(_, b)| b)
                        .unwrap_or(*default);
                    *term = Terminator::Jump(target);
                    stats.terminators_simplified += 1;
                }
            }
            _ => {}
        }
    }
}

/// Algebraic identities: `x+0`, `x-0`, `x*1`, `x&-1`, `x|0`, `x^0`,
/// `x<<0`, `x>>0` simplify to `x`; `x*0`, `x&0` simplify to `0`.
fn algebraic(op: BinOp, a: Operand, b: Operand) -> Option<Operand> {
    match (op, a, b) {
        (BinOp::Add, x, Operand::Const(0)) | (BinOp::Add, Operand::Const(0), x) => Some(x),
        (BinOp::Sub, x, Operand::Const(0)) => Some(x),
        (BinOp::Mul, x, Operand::Const(1)) | (BinOp::Mul, Operand::Const(1), x) => Some(x),
        (BinOp::Mul, _, Operand::Const(0)) | (BinOp::Mul, Operand::Const(0), _) => {
            Some(Operand::Const(0))
        }
        (BinOp::And, x, Operand::Const(-1)) | (BinOp::And, Operand::Const(-1), x) => Some(x),
        (BinOp::And, _, Operand::Const(0)) | (BinOp::And, Operand::Const(0), _) => {
            Some(Operand::Const(0))
        }
        (BinOp::Or, x, Operand::Const(0)) | (BinOp::Or, Operand::Const(0), x) => Some(x),
        (BinOp::Xor, x, Operand::Const(0)) | (BinOp::Xor, Operand::Const(0), x) => Some(x),
        (BinOp::Shl, x, Operand::Const(0)) | (BinOp::Shr, x, Operand::Const(0)) => Some(x),
        _ => None,
    }
}

/// Removes pure instructions whose destinations are never read.
fn remove_dead(f: &mut IrFunction, stats: &mut FoldStats) {
    let reachable: Vec<BlockId> = f.reverse_postorder();
    let mut used = vec![false; f.vars.len()];
    for &bid in &reachable {
        let b = &f.blocks[bid.index()];
        for i in &b.insts {
            for op in i.operands() {
                if let Operand::Var(v) = op {
                    used[v.index()] = true;
                }
            }
            // Aggregate locations referenced by instructions keep their
            // variables alive, and so does a lift of a variable.
            for_each_touched_agg(i, |v| used[v.index()] = true);
            if let Inst::LiftVar { v } = i {
                used[v.index()] = true;
            }
        }
        if let Some(v) = terminator_use(&b.term) {
            used[v.index()] = true;
        }
    }
    for b in &mut f.blocks {
        let before = b.insts.len();
        // Filter instructions and their spans in lockstep.
        let mut keep = 0usize;
        for i in 0..b.insts.len() {
            let inst = &b.insts[i];
            let dead = inst.is_pure() && inst.dst().map(|d| !used[d.index()]).unwrap_or(false);
            if !dead {
                b.insts.swap(keep, i);
                b.spans.swap(keep, i);
                keep += 1;
            }
        }
        b.insts.truncate(keep);
        b.spans.truncate(keep);
        stats.removed += before - keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use facile_lang::diag::Diagnostics;
    use facile_lang::parser::parse;
    use facile_sema::analyze;

    fn build(src: &str) -> IrProgram {
        let mut diags = Diagnostics::new();
        let prog = parse(src, &mut diags);
        let syms = analyze(&prog, &mut diags);
        assert!(!diags.has_errors(), "{}", diags.render_all(src));
        lower(&prog, &syms, &mut diags).expect("lowering succeeds")
    }

    fn insts(f: &IrFunction) -> Vec<&Inst> {
        f.reverse_postorder()
            .into_iter()
            .flat_map(|b| f.block(b).insts.iter())
            .collect()
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut ir = build("fun main(x : int) { val y = 2 + 3 * 4; trace(y); next(x); }");
        fold_constants(&mut ir.main);
        assert!(
            insts(&ir.main)
                .iter()
                .any(|i| matches!(i, Inst::Trace { v: Operand::Const(14) })),
            "{}",
            ir.main
        );
    }

    #[test]
    fn removes_dead_pure_code() {
        let mut ir = build("fun main(x : int) { val dead = x * 17 + 3; next(x); }");
        let stats = fold_constants(&mut ir.main);
        assert!(stats.removed >= 2, "stats: {stats:?}\n{}", ir.main);
        assert!(!insts(&ir.main)
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. })));
    }

    #[test]
    fn keeps_effectful_code() {
        let mut ir = build("fun main(x : int) { mem_st(x, 0); count_cycles(1); next(x); }");
        fold_constants(&mut ir.main);
        let all = insts(&ir.main);
        assert!(all.iter().any(|i| matches!(i, Inst::MemStore { .. })));
        assert!(all.iter().any(|i| matches!(i, Inst::CountCycles { .. })));
    }

    #[test]
    fn simplifies_constant_branch() {
        let mut ir = build("fun main(x : int) { if (1 < 2) { trace(1); } else { trace(2); } next(x); }");
        let stats = fold_constants(&mut ir.main);
        assert!(stats.terminators_simplified >= 1);
        // Only the taken branch remains reachable.
        let traces: Vec<i64> = insts(&ir.main)
            .iter()
            .filter_map(|i| match i {
                Inst::Trace { v: Operand::Const(c) } => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(traces, vec![1]);
    }

    #[test]
    fn simplifies_constant_switch() {
        let mut ir = build(
            "fun main(x : int) { switch (2 + 1) { case 1: trace(1); case 3: trace(3); default: trace(0); } next(x); }",
        );
        fold_constants(&mut ir.main);
        let traces: Vec<i64> = insts(&ir.main)
            .iter()
            .filter_map(|i| match i {
                Inst::Trace { v: Operand::Const(c) } => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(traces, vec![3]);
    }

    #[test]
    fn algebraic_identities() {
        assert_eq!(
            algebraic(BinOp::Add, Operand::Var(VarId(1)), Operand::Const(0)),
            Some(Operand::Var(VarId(1)))
        );
        assert_eq!(
            algebraic(BinOp::Mul, Operand::Var(VarId(1)), Operand::Const(0)),
            Some(Operand::Const(0))
        );
        assert_eq!(
            algebraic(BinOp::And, Operand::Var(VarId(1)), Operand::Const(-1)),
            Some(Operand::Var(VarId(1)))
        );
        assert_eq!(algebraic(BinOp::Add, Operand::Var(VarId(1)), Operand::Const(2)), None);
    }

    #[test]
    fn sext_of_constant_folds() {
        let mut ir = build("fun main(x : int) { val y = 0xFFFF?sext(16); trace(y); next(x); }");
        fold_constants(&mut ir.main);
        assert!(insts(&ir.main)
            .iter()
            .any(|i| matches!(i, Inst::Trace { v: Operand::Const(-1) })));
    }

    #[test]
    fn fold_reaches_fixed_point() {
        let mut ir = build(
            "fun main(x : int) { val a = 1 + 1; val b = a + a; val c = b * b; trace(c); next(x); }",
        );
        fold_constants(&mut ir.main);
        assert!(insts(&ir.main)
            .iter()
            .any(|i| matches!(i, Inst::Trace { v: Operand::Const(16) })));
        // A second run changes nothing.
        let again = fold_constants(&mut ir.main);
        assert_eq!(again, FoldStats::default());
    }

    #[test]
    fn verify_and_next_operands_are_propagated_not_removed() {
        let mut ir = build(
            "ext fun probe(x : int) : int;\nfun main(x : int) { val v = probe(3 * 2)?verify; next(x + v); }",
        );
        fold_constants(&mut ir.main);
        let all = insts(&ir.main);
        assert!(all
            .iter()
            .any(|i| matches!(i, Inst::CallExt { args, .. } if args == &vec![Operand::Const(6)])));
        assert!(all.iter().any(|i| matches!(i, Inst::Verify { .. })));
        assert!(all.iter().any(|i| matches!(i, Inst::SetNext { .. })));
    }
}
