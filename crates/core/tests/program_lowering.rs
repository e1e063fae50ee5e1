//! The lowered step program of every shipped simulator is well formed:
//! every jump target, register, global, aggregate slot, constant and
//! table index an op carries is in range, every action's resume entry is
//! the op where the position its `Resume` names starts executing, and
//! every action's replay range is the slow program's own group — its
//! placeholder captures as loads, its dynamic ops as they are, a load
//! and the element op it indexes fused into one op. The
//! engines index with these values unchecked by any other layer.
//!
//! The program is the optimized one (`program::optimize`): every test
//! close is still directly followed by its branch, and the optimization
//! leaves what the plain lowering (`program::lower`) emits for replay,
//! the action table, and the dynamic and record ops as they were.

use facile::sims::{functional_source, inorder_source, ooo_source};
use facile::{compile_source, CompiledStep, CompilerOptions};
use facile_codegen::program::{lower, KeySrc, Op, ParamSlot, Rk, NO_REG};
use facile_codegen::{ActionKind, Resume};
use facile_ir::ir::{BlockId, Terminator};

fn compiled(src: &str) -> CompiledStep {
    compile_source(src, &CompilerOptions::default()).expect("shipped simulator compiles")
}

/// Asserts every index an op carries is in range.
fn check_ranges(name: &str, step: &CompiledStep) {
    let p = &step.program;
    let n = p.ops.len() as u32;
    let n_regs = step.ir.main.vars.len() as u32;
    let n_globals = step.ir.globals.len() as u32;
    let reg = |r: u32| assert!(r < n_regs, "{name}: register {r} out of range");
    let dst = |r: u32| {
        assert!(
            r == NO_REG || r < n_regs,
            "{name}: register {r} out of range"
        )
    };
    let glob = |g: u32| assert!(g < n_globals, "{name}: global {g} out of range");
    let agg = |s: u32| assert!(s < p.slots.len, "{name}: aggregate slot {s} out of range");
    let jump = |t: u32| assert!(t < n, "{name}: jump target {t} out of range");
    let action = |a: u32| {
        assert!(
            (a as usize) < step.actions.len(),
            "{name}: action {a} out of range"
        )
    };
    let rk = |o: Rk| match (o.as_reg(), o.as_const()) {
        (Some(r), None) => reg(r),
        (None, Some(k)) => assert!((k as usize) < p.consts.len(), "{name}: constant {k}"),
        _ => unreachable!("an operand is a register or a constant"),
    };
    assert_eq!(p.dynamic.len(), p.ops.len(), "{name}");
    assert_eq!(p.pos.len(), p.ops.len(), "{name}");
    jump(p.entry);
    for op in p.ops.iter().chain(&p.replay) {
        match *op {
            Op::AddRR { dst, a, b }
            | Op::SubRR { dst, a, b }
            | Op::EqRR { dst, a, b }
            | Op::NeRR { dst, a, b }
            | Op::LtRR { dst, a, b }
            | Op::BinRR { dst, a, b, .. } => [dst, a, b].into_iter().for_each(reg),
            Op::AddRI { dst, a, .. }
            | Op::AndRI { dst, a, .. }
            | Op::ShrRI { dst, a, .. }
            | Op::EqRI { dst, a, .. }
            | Op::NeRI { dst, a, .. }
            | Op::LtRI { dst, a, .. }
            | Op::GtRI { dst, a, .. }
            | Op::BinRI { dst, a, .. }
            | Op::BinIR { dst, b: a, .. }
            | Op::Un { dst, a, .. }
            | Op::CopyR { dst, src: a } => [dst, a].into_iter().for_each(reg),
            Op::CopyI { dst, .. } => reg(dst),
            Op::LoadGlobal { dst, g } => {
                reg(dst);
                glob(g);
            }
            Op::StoreGlobalR { g, src } => {
                glob(g);
                reg(src);
            }
            Op::StoreGlobalI { g, .. } | Op::PhG { g } | Op::LdG { g } => glob(g),
            Op::ElemGet { dst, agg: a, idx } | Op::QueueGet { dst, q: a, idx } => {
                reg(dst);
                agg(a);
                rk(idx);
            }
            Op::ElemSet { agg: a, idx, src } => {
                agg(a);
                rk(idx);
                rk(src);
            }
            Op::LdElemGet { dst, agg: a, r } => {
                [dst, r].into_iter().for_each(reg);
                agg(a);
            }
            Op::LdElemSet { agg: a, r, src } => {
                agg(a);
                reg(r);
                rk(src);
            }
            Op::AggCopy { dst, src } => {
                agg(dst);
                agg(src);
            }
            Op::ArrFill { arr, fill } => {
                agg(arr);
                rk(fill);
            }
            Op::QueueLen { dst, q } => {
                reg(dst);
                agg(q);
            }
            Op::Queue {
                q, a0, a1, dst: d, ..
            } => {
                agg(q);
                rk(a0);
                rk(a1);
                dst(d);
            }
            Op::FetchToken { dst, addr, .. } | Op::MemLoad { dst, addr, .. } => {
                reg(dst);
                rk(addr);
            }
            Op::CallExt {
                dst: d,
                ext,
                args,
                len,
            } => {
                dst(d);
                assert!(
                    (ext as usize) < step.ir.ext_names.len(),
                    "{name}: ext {ext}"
                );
                assert!(
                    (args + len) as usize <= p.args.len(),
                    "{name}: call arguments"
                );
                p.args[args as usize..(args + len) as usize]
                    .iter()
                    .copied()
                    .for_each(rk);
            }
            Op::MemStore { addr, src, .. } => {
                rk(addr);
                rk(src);
            }
            Op::CountCycles { n } | Op::CountInsns { n } | Op::Trace { v: n } => rk(n),
            Op::Halt { code, action: a } => {
                rk(code);
                action(a);
            }
            Op::Start { action: a } | Op::ClosePlain { action: a } => action(a),
            Op::PhR { r } | Op::LdR { r } => reg(r),
            Op::PhAgg { agg: a } | Op::LdAgg { agg: a } => agg(a),
            Op::CloseVerify { action: a, dst } => {
                action(a);
                reg(dst);
            }
            Op::TestClose { action: a, src, .. } => {
                action(a);
                reg(src);
            }
            Op::Next { site } => {
                let site = &p.nexts[site as usize];
                action(site.action);
                for c in &site.comps {
                    match c.src {
                        KeySrc::Scalar(o) => rk(o),
                        KeySrc::Queue(q) => agg(q),
                    }
                }
            }
            Op::Jump { to } => jump(to),
            Op::Br { cond, then_, else_ } => {
                reg(cond);
                jump(then_);
                jump(else_);
            }
            Op::BrAndRR { a, b, then_, else_ } | Op::BrLtRR { a, b, then_, else_ } => {
                [a, b].into_iter().for_each(reg);
                jump(then_);
                jump(else_);
            }
            Op::BrLtRI {
                a, then_, else_, ..
            }
            | Op::BrEqRI {
                a, then_, else_, ..
            } => {
                reg(a);
                jump(then_);
                jump(else_);
            }
            Op::Switch { val, table } => {
                reg(val);
                let t = &p.switches[table as usize];
                jump(t.default);
                t.cases.iter().for_each(|&(_, to)| jump(to));
            }
            Op::Ret => {}
        }
    }
    for param in &p.params {
        match *param {
            ParamSlot::Reg(r) => reg(r),
            ParamSlot::Queue(q) => agg(q),
        }
    }
    assert_eq!(p.resume.len(), step.actions.len(), "{name}");
    p.resume.iter().copied().for_each(jump);
    for (a, code) in step.actions.iter().enumerate() {
        let r = &code.replay;
        assert!(
            r.start <= r.end && r.end as usize <= p.replay.len(),
            "{name}: action {a}'s replay range {r:?} is out of bounds"
        );
        match code.kind {
            ActionKind::Plain => {}
            ActionKind::Test { src } => rk(src),
            ActionKind::Index { site } => {
                assert_eq!(
                    p.nexts[site as usize].action, a as u32,
                    "{name}: action {a}"
                )
            }
        }
    }
}

/// The replay ops the slow program's group of each action implies: every
/// placeholder capture as its load, every dynamic op as is, in program
/// order from the action's `Start` to the op that closes it.
fn groups(step: &CompiledStep) -> Vec<Vec<Op>> {
    let p = &step.program;
    let mut want = vec![Vec::new(); step.actions.len()];
    let mut open: Option<usize> = None;
    for (i, &op) in p.ops.iter().enumerate() {
        let closes = match op {
            Op::Start { action } => {
                open = Some(action as usize);
                continue;
            }
            Op::ClosePlain { action }
            | Op::CloseVerify { action, .. }
            | Op::TestClose { action, .. } => Some(action),
            Op::Next { site } => Some(p.nexts[site as usize].action),
            _ => None,
        };
        if let Some(action) = closes {
            if open == Some(action as usize) {
                open = None;
            }
            continue;
        }
        let Some(a) = open else {
            assert!(!p.dynamic[i], "dynamic op {i} ({op:?}) outside any group");
            continue;
        };
        let replayed = match op {
            Op::PhR { r } => Op::LdR { r },
            Op::PhG { g } => Op::LdG { g },
            Op::PhAgg { agg } => Op::LdAgg { agg },
            op if p.dynamic[i] => op,
            _ => continue,
        };
        want[a].push(replayed);
    }
    want
}

/// `ops` with each fused placeholder load expanded back into its
/// [`Op::LdR`] and the element op it feeds.
fn unfused(ops: &[Op]) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops.len());
    for &op in ops {
        match op {
            Op::LdElemGet { dst, agg, r } => {
                out.push(Op::LdR { r });
                out.push(Op::ElemGet {
                    dst,
                    agg,
                    idx: Rk::reg(r),
                });
            }
            Op::LdElemSet { agg, r, src } => {
                out.push(Op::LdR { r });
                out.push(Op::ElemSet {
                    agg,
                    idx: Rk::reg(r),
                    src,
                });
            }
            op => out.push(op),
        }
    }
    out
}

/// Asserts every replay range holds only replay ops — no record op,
/// group open or close, `Next` or control op — and mirrors its action's
/// group in the slow program once its fused ops are expanded. Every
/// load that directly feeds the element op it indexes must be fused.
/// Returns how many fused ops the program holds.
fn check_replay(name: &str, step: &CompiledStep) -> usize {
    let p = &step.program;
    let mut fused = 0;
    for (a, (code, want)) in step.actions.iter().zip(groups(step)).enumerate() {
        let got = &p.replay[code.replay.start as usize..code.replay.end as usize];
        for op in got {
            assert!(
                !matches!(
                    op,
                    Op::Start { .. }
                        | Op::PhR { .. }
                        | Op::PhG { .. }
                        | Op::PhAgg { .. }
                        | Op::ClosePlain { .. }
                        | Op::CloseVerify { .. }
                        | Op::TestClose { .. }
                        | Op::Next { .. }
                ) && !is_control(op),
                "{name}: action {a} replays {op:?}"
            );
        }
        let expanded = unfused(got);
        assert_eq!(
            expanded, want,
            "{name}: action {a}'s replay ops mirror its group"
        );
        for pair in got.windows(2) {
            if let [Op::LdR { r }, Op::ElemGet { idx, .. } | Op::ElemSet { idx, .. }] = *pair {
                assert_ne!(
                    idx.as_reg(),
                    Some(r),
                    "{name}: action {a} leaves a load of its element index unfused: {got:?}"
                );
            }
        }
        fused += got
            .iter()
            .filter(|o| matches!(o, Op::LdElemGet { .. } | Op::LdElemSet { .. }))
            .count();
    }
    fused
}

/// Whether `op` transfers control within the step: a jump, a branch
/// (fused or not), a switch, or the step's return.
fn is_control(op: &Op) -> bool {
    matches!(
        op,
        Op::Jump { .. }
            | Op::Br { .. }
            | Op::BrAndRR { .. }
            | Op::BrLtRR { .. }
            | Op::BrLtRI { .. }
            | Op::BrEqRI { .. }
            | Op::Switch { .. }
            | Op::Ret
    )
}

/// Asserts every [`Op::TestClose`] is directly followed by the
/// `Br`/`Switch` it closes on (recovery reads that op at `ops[pc]`), on
/// the register it records.
fn check_test_closes(name: &str, step: &CompiledStep) {
    let ops = &step.program.ops;
    for (i, op) in ops.iter().enumerate() {
        if let Op::TestClose { src, .. } = *op {
            match ops.get(i + 1) {
                Some(&Op::Br { cond: r, .. } | &Op::Switch { val: r, .. }) => assert_eq!(
                    r, src,
                    "{name}: test close {i} and its branch read different registers"
                ),
                other => panic!("{name}: test close {i} is followed by {other:?}"),
            }
        }
    }
}

/// Skips jump ops (they execute nothing).
fn through_jumps(step: &CompiledStep, mut at: u32) -> u32 {
    while let Op::Jump { to } = step.program.ops[at as usize] {
        at = to;
    }
    at
}

/// The op that starts executing position `inst` of `block`, derived
/// from the IR and the program's per-op positions: the first op lowered
/// from that instruction; at the block end, its terminator op — or, for
/// a jump lowered as a fall-through, where the jump goes.
fn op_at(step: &CompiledStep, block: BlockId, inst: u32) -> u32 {
    let p = &step.program;
    let b = &step.ir.main.blocks[block.index()];
    let here = |i: u32| p.pos.iter().position(|&at| at == (block.0, i));
    if (inst as usize) < b.insts.len() {
        return here(inst).expect("every instruction lowers to an op") as u32;
    }
    let term = p
        .pos
        .iter()
        .zip(&p.ops)
        .position(|(&at, op)| at == (block.0, inst) && is_control(op));
    match (term, &b.term) {
        (Some(t), _) => t as u32,
        (None, Terminator::Jump(t)) => op_at(step, *t, 0),
        (None, other) => panic!("terminator {other:?} of {block} lowered to no op"),
    }
}

/// Asserts every action's resume entry is the op its `Resume` names.
fn check_resume(name: &str, step: &CompiledStep) {
    let p = &step.program;
    for (a, code) in step.actions.iter().enumerate() {
        let want = match code.resume {
            Resume::AtInst { block, inst } => op_at(step, block, inst),
            Resume::AtTerm { block } => {
                let n = step.ir.main.blocks[block.index()].insts.len() as u32;
                let at = op_at(step, block, n);
                assert!(
                    matches!(p.ops[at as usize], Op::Br { .. } | Op::Switch { .. }),
                    "{name}: action {a} resumes at a dynamic terminator's branch"
                );
                at
            }
        };
        assert_eq!(
            through_jumps(step, p.resume[a]),
            through_jumps(step, want),
            "{name}: action {a} resumes at the op of {:?}",
            code.resume
        );
    }
}

#[test]
fn shipped_programs_are_in_range_and_resume_and_replay_where_their_actions_say() {
    for (name, src) in [
        ("functional", functional_source()),
        ("inorder", inorder_source()),
        ("ooo", ooo_source()),
    ] {
        let step = compiled(&src);
        check_ranges(name, &step);
        check_test_closes(name, &step);
        check_resume(name, &step);
        let fused = check_replay(name, &step);
        assert!(fused > 0, "{name}: no placeholder load was fused");
    }
}

#[test]
fn optimization_leaves_replay_and_actions_as_the_plain_lowering_has_them() {
    for (name, src) in [
        ("functional", functional_source()),
        ("inorder", inorder_source()),
        ("ooo", ooo_source()),
    ] {
        let step = compiled(&src);
        let mut actions = step.actions.clone();
        let plain = lower(&step.ir, &mut actions, &step.blocks);
        assert_eq!(
            format!("{actions:?}"),
            format!("{:?}", step.actions),
            "{name}: action table"
        );
        assert_eq!(plain.replay, step.program.replay, "{name}: replay ops");
        assert_eq!(plain.nexts, step.program.nexts, "{name}: key sites");
        assert_eq!(plain.args, step.program.args, "{name}: call arguments");
        // Dynamic and record ops keep their form and order.
        let kept = |ops: &[Op], dynamic: &[bool]| -> Vec<Op> {
            ops.iter()
                .zip(dynamic)
                .filter(|&(op, &dy)| dy || is_record(op))
                .map(|(&op, _)| op)
                .collect()
        };
        assert_eq!(
            kept(&plain.ops, &plain.dynamic),
            kept(&step.program.ops, &step.program.dynamic),
            "{name}: dynamic and record ops"
        );
        assert!(
            step.program.ops.len() <= plain.ops.len(),
            "{name}: optimization added ops"
        );
    }
}

/// Whether `op` records (or closes) an action.
fn is_record(op: &Op) -> bool {
    matches!(
        op,
        Op::Start { .. }
            | Op::PhR { .. }
            | Op::PhG { .. }
            | Op::PhAgg { .. }
            | Op::ClosePlain { .. }
            | Op::CloseVerify { .. }
            | Op::TestClose { .. }
            | Op::Next { .. }
            | Op::Halt { .. }
    )
}

#[test]
fn the_ooo_program_holds_every_fused_branch() {
    let step = compiled(&ooo_source());
    let ops = &step.program.ops;
    let has = |f: fn(&Op) -> bool| ops.iter().any(f);
    assert!(has(|o| matches!(o, Op::BrAndRR { .. })), "BrAndRR");
    assert!(has(|o| matches!(o, Op::BrLtRR { .. })), "BrLtRR");
    assert!(has(|o| matches!(o, Op::BrLtRI { .. })), "BrLtRI");
    assert!(has(|o| matches!(o, Op::BrEqRI { .. })), "BrEqRI");
}
