//! The optimization step on the lowered program ([`optimize`]).
//!
//! [`super::lower`] emits one op per IR instruction and terminator, so the
//! slow engine pays for every temporary the front end introduced: a
//! compare whose 0/1 result is compared with 0 again, a loop increment
//! computed into a temporary and copied back, a compare feeding the
//! branch right after it, a jump back to a loop head that only branches.
//! The source paper (§6.3, item 5) expects such "constant folding and
//! similar optimizations" to benefit the slow simulator; this step does
//! them on the program, after lowering, in three passes:
//!
//! 1. **Def retargeting.** `X t, …; CopyR d, t`, where `X` is `t`'s only
//!    def and the copy its only use, becomes `X d, …`. So does
//!    `cmp t, …; NeRI d, t, 0` (boolean re-normalization: `t` is already
//!    0 or 1). The two need not be adjacent, but must be one straight
//!    line that nothing enters and that reads and writes nothing of `d`.
//!    When `t` has other readers and the copy is `d`'s only def, `t` and
//!    `d` always hold one value, so the same rewrite also renames those
//!    readers to `d` (copy coalescing).
//! 2. **Compare-and-branch fusion.** `cmp t, …; Br t`, where the branch
//!    is `t`'s only use, becomes one fused branch ([`Op::BrAndRR`],
//!    [`Op::BrLtRR`], [`Op::BrLtRI`], [`Op::BrEqRI`]); `NeRI t, a, 0;
//!    Br t` becomes `Br a`. Only pairs the slow engine's op count shows
//!    at one or more per slow step on the shipped ooo simulator have a
//!    fused op.
//! 3. **Jump threading.** A [`Op::Jump`] to a conditional branch becomes
//!    a copy of that branch.
//!
//! Deleted ops are compacted away and every op index remapped.
//!
//! **Safety.** The step rewrites only run-time-static value ops and
//! rt-static control flow, so replay ranges, action numbering, the
//! data a node records, snapshot bytes and fingerprints cannot change:
//!
//! * A **pinned** register keeps every def and use. A register is pinned
//!   when it appears in a dynamic op, a record op, a key site or an
//!   external-call argument list, an action's test source, `main`'s
//!   parameters or any action's `known_vars_after` (which recovery's
//!   commit copies from the shadow).
//! * No op is deleted at, or fused across, a **protected** index: a
//!   jump, branch or switch target, a resume entry, the entry, or the
//!   op after a [`Op::TestClose`] — recovery reads its branch at
//!   `ops[pc]`, so a test close stays directly followed by it, and no
//!   jump is threaded onto such a branch (it would skip the close).
//! * Dynamic ops and record ops keep their form and order.

use super::{for_each_target, KeySrc, Op, ParamSlot, Program, Rk, NO_REG};
use crate::actions::{ActionCode, ActionKind};
use facile_ir::ir::BinOp;

/// How far back def retargeting looks for the def a copy reads.
const WINDOW: usize = 32;

/// Optimizes `prog` in place (see the module docs). `actions` is the
/// action table `prog` was lowered with.
pub fn optimize(prog: &mut Program, actions: &[ActionCode]) {
    let mut o = Opt::new(prog, actions);
    o.retarget();
    o.fuse();
    o.compact();
    thread_jumps(prog);
}

/// Calls `f(r, is_def)` for every register `op` writes or reads.
/// External-call argument lists and key sites are not visited: every
/// register in them is pinned.
fn each_reg(op: &Op, mut f: impl FnMut(u32, bool)) {
    let mut op = *op;
    each_reg_mut(&mut op, |r, def| f(*r, def));
}

/// [`each_reg`], letting `f` rewrite each register.
fn each_reg_mut(op: &mut Op, mut f: impl FnMut(&mut u32, bool)) {
    fn rk(o: &mut Rk, f: &mut dyn FnMut(&mut u32, bool)) {
        if let Some(mut r) = o.as_reg() {
            f(&mut r, false);
            *o = Rk::reg(r);
        }
    }
    match op {
        Op::AddRR { dst, a, b }
        | Op::SubRR { dst, a, b }
        | Op::EqRR { dst, a, b }
        | Op::NeRR { dst, a, b }
        | Op::LtRR { dst, a, b }
        | Op::BinRR { dst, a, b, .. } => {
            f(a, false);
            f(b, false);
            f(dst, true);
        }
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
        | Op::CopyR { dst, src: a } => {
            f(a, false);
            f(dst, true);
        }
        Op::LdElemGet { dst, r, .. } => {
            f(r, true);
            f(dst, true);
        }
        Op::CopyI { dst, .. } | Op::LoadGlobal { dst, .. } | Op::QueueLen { dst, .. } => {
            f(dst, true)
        }
        Op::StoreGlobalR { src, .. } => f(src, false),
        Op::ElemGet { dst, idx, .. } | Op::QueueGet { dst, idx, .. } => {
            rk(idx, &mut f);
            f(dst, true);
        }
        Op::FetchToken { dst, addr, .. } | Op::MemLoad { dst, addr, .. } => {
            rk(addr, &mut f);
            f(dst, true);
        }
        Op::ElemSet { idx, src, .. } | Op::MemStore { addr: idx, src, .. } => {
            rk(idx, &mut f);
            rk(src, &mut f);
        }
        Op::ArrFill { fill: n, .. }
        | Op::CountCycles { n }
        | Op::CountInsns { n }
        | Op::Trace { v: n }
        | Op::Halt { code: n, .. } => rk(n, &mut f),
        Op::Queue { a0, a1, dst, .. } => {
            rk(a0, &mut f);
            rk(a1, &mut f);
            if *dst != NO_REG {
                f(dst, true);
            }
        }
        Op::CallExt { dst, .. } => {
            if *dst != NO_REG {
                f(dst, true);
            }
        }
        Op::LdElemSet { r, src, .. } => {
            rk(src, &mut f);
            f(r, true);
        }
        Op::PhR { r } => f(r, false),
        Op::LdR { r } => f(r, true),
        Op::CloseVerify { dst: r, .. }
        | Op::TestClose { src: r, .. }
        | Op::Br { cond: r, .. }
        | Op::Switch { val: r, .. }
        | Op::BrLtRI { a: r, .. }
        | Op::BrEqRI { a: r, .. } => f(r, false),
        Op::BrAndRR { a, b, .. } | Op::BrLtRR { a, b, .. } => {
            f(a, false);
            f(b, false);
        }
        Op::StoreGlobalI { .. }
        | Op::AggCopy { .. }
        | Op::Start { .. }
        | Op::PhG { .. }
        | Op::PhAgg { .. }
        | Op::LdG { .. }
        | Op::LdAgg { .. }
        | Op::ClosePlain { .. }
        | Op::Next { .. }
        | Op::Jump { .. }
        | Op::Ret => {}
    }
}

/// `op` writing `d` instead of its destination, when `op` is a value op
/// whose only effect on the register file is that write.
fn with_dst(op: Op, d: u32) -> Option<Op> {
    let mut op = op;
    match &mut op {
        Op::AddRR { dst, .. }
        | Op::AddRI { dst, .. }
        | Op::SubRR { dst, .. }
        | Op::AndRI { dst, .. }
        | Op::ShrRI { dst, .. }
        | Op::EqRR { dst, .. }
        | Op::EqRI { dst, .. }
        | Op::NeRR { dst, .. }
        | Op::NeRI { dst, .. }
        | Op::LtRR { dst, .. }
        | Op::LtRI { dst, .. }
        | Op::GtRI { dst, .. }
        | Op::BinRR { dst, .. }
        | Op::BinRI { dst, .. }
        | Op::BinIR { dst, .. }
        | Op::Un { dst, .. }
        | Op::CopyR { dst, .. }
        | Op::CopyI { dst, .. }
        | Op::LoadGlobal { dst, .. }
        | Op::ElemGet { dst, .. }
        | Op::QueueGet { dst, .. }
        | Op::QueueLen { dst, .. }
        | Op::FetchToken { dst, .. } => *dst = d,
        _ => return None,
    }
    Some(op)
}

/// Whether `op` always writes 0 or 1.
fn is_bool(op: &Op) -> bool {
    use BinOp::*;
    match op {
        Op::EqRR { .. }
        | Op::EqRI { .. }
        | Op::NeRR { .. }
        | Op::NeRI { .. }
        | Op::LtRR { .. }
        | Op::LtRI { .. }
        | Op::GtRI { .. } => true,
        Op::BinRR { op, .. } | Op::BinRI { op, .. } | Op::BinIR { op, .. } => {
            matches!(op, Eq | Ne | Lt | Le | Gt | Ge | FLt)
        }
        _ => false,
    }
}

/// Whether `op` transfers control or ends the step.
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
            | Op::Next { .. }
            | Op::Halt { .. }
            | Op::Ret
    )
}

/// Whether `op` is a conditional branch on registers alone: a jump to it
/// may run a copy of it instead.
fn is_cond_branch(op: &Op) -> bool {
    matches!(
        op,
        Op::Br { .. }
            | Op::BrAndRR { .. }
            | Op::BrLtRR { .. }
            | Op::BrLtRI { .. }
            | Op::BrEqRI { .. }
    )
}

/// Whether `op` is an rt-static value op or a register branch, which
/// pins none of its registers (every other op pins all of its own).
fn is_plain(op: &Op) -> bool {
    with_dst(*op, 0).is_some()
        || matches!(
            op,
            Op::Queue { .. } | Op::StoreGlobalR { .. } | Op::ElemSet { .. }
        )
        || matches!(op, Op::ArrFill { .. } | Op::Switch { .. })
        || is_cond_branch(op)
}

/// The analysis facts and the ops being rewritten.
struct Opt<'p> {
    prog: &'p mut Program,
    /// Per register: it keeps every def and use.
    pinned: Vec<bool>,
    /// Per register: how many ops write it, and the ops that read it
    /// (an op once per read).
    defs: Vec<u32>,
    uses: Vec<Vec<u32>>,
    /// Per register: the op that writes it, when exactly one does.
    def_at: Vec<u32>,
    /// Per op: no op may be deleted at, or fused across, it.
    protected: Vec<bool>,
    /// Per op: deleted (compacted away at the end).
    dead: Vec<bool>,
}

impl<'p> Opt<'p> {
    fn new(prog: &'p mut Program, actions: &[ActionCode]) -> Opt<'p> {
        let mut n_regs = 0u32;
        let mut note = |r: u32| n_regs = n_regs.max(r + 1);
        for op in &prog.ops {
            each_reg(op, |r, _| note(r));
        }
        let mut pin = Vec::new();
        for &o in prog.args.iter() {
            pin.extend(o.as_reg());
        }
        for site in &prog.nexts {
            for c in &site.comps {
                if let KeySrc::Scalar(o) = c.src {
                    pin.extend(o.as_reg());
                }
            }
        }
        for p in &prog.params {
            if let ParamSlot::Reg(r) = *p {
                pin.push(r);
            }
        }
        for a in actions {
            if let ActionKind::Test { src } = a.kind {
                pin.extend(src.as_reg());
            }
            pin.extend(a.known_vars_after.iter().map(|v| v.0));
        }
        for (op, &dy) in prog.ops.iter().zip(&prog.dynamic) {
            if dy || !is_plain(op) {
                each_reg(op, |r, _| pin.push(r));
            }
        }
        for &r in &pin {
            note(r);
        }
        let n = n_regs as usize;
        let mut pinned = vec![false; n];
        for r in pin {
            pinned[r as usize] = true;
        }
        let (mut defs, mut uses, mut def_at) =
            (vec![0u32; n], vec![Vec::new(); n], vec![u32::MAX; n]);
        for (i, op) in prog.ops.iter().enumerate() {
            each_reg(op, |r, def| {
                if def {
                    defs[r as usize] += 1;
                    def_at[r as usize] = i as u32;
                } else {
                    uses[r as usize].push(i as u32);
                }
            });
        }
        let mut protected = vec![false; prog.ops.len()];
        let mut protect = |i: u32| protected[i as usize] = true;
        protect(prog.entry);
        prog.resume.iter().copied().for_each(&mut protect);
        for t in &prog.switches {
            protect(t.default);
            t.cases.iter().for_each(|&(_, to)| protect(to));
        }
        for (i, op) in prog.ops.iter().enumerate() {
            let mut op = *op;
            for_each_target(&mut op, |t| protect(*t));
            if matches!(op, Op::TestClose { .. }) {
                protect(i as u32 + 1);
            }
        }
        let dead = vec![false; prog.ops.len()];
        Opt {
            prog,
            pinned,
            defs,
            uses,
            def_at,
            protected,
            dead,
        }
    }

    /// Whether register `r` may change where it is written or read.
    fn free(&self, r: u32) -> bool {
        !self.pinned[r as usize]
    }

    /// Pass 1: def retargeting and boolean re-normalization.
    fn retarget(&mut self) {
        for j in 0..self.prog.ops.len() {
            if self.dead[j] || self.prog.dynamic[j] {
                continue;
            }
            let (d, t, renorm) = match self.prog.ops[j] {
                Op::CopyR { dst, src } => (dst, src, false),
                Op::NeRI { dst, a, imm: 0 } => (dst, a, true),
                _ => continue,
            };
            let (ti, di) = (t as usize, d as usize);
            if d == t
                || !self.free(t)
                || !self.free(d)
                || self.defs[ti] != 1
                || self.def_at[ti] as usize >= j
            {
                continue;
            }
            // `t` read elsewhere too: coalesce `t` into `d`, which the
            // copy alone writes, so the two always hold one value.
            let coalesce = self.uses[ti].len() != 1;
            if coalesce && self.defs[di] != 1 {
                continue;
            }
            let i = self.def_at[ti] as usize;
            let x = self.prog.ops[i];
            if j - i > WINDOW || self.prog.dynamic[i] || (renorm && !is_bool(&x)) {
                continue;
            }
            let Some(x) = with_dst(x, d) else { continue };
            // One straight line from the def to the copy that nothing
            // enters and that leaves `d` alone.
            let clear = (i + 1..=j).all(|k| !self.protected[k])
                && (i + 1..j).all(|k| {
                    let op = &self.prog.ops[k];
                    let mut touches = false;
                    each_reg(op, |r, _| touches |= r == d);
                    self.dead[k] || !(is_control(op) || touches)
                });
            if !clear {
                continue;
            }
            self.prog.ops[i] = x;
            self.dead[j] = true;
            let readers = std::mem::take(&mut self.uses[ti]);
            if coalesce {
                for &k in readers.iter().filter(|&&k| k as usize != j) {
                    each_reg_mut(&mut self.prog.ops[k as usize], |r, def| {
                        if !def && *r == t {
                            *r = d;
                        }
                    });
                    self.uses[di].push(k);
                }
            }
            self.defs[ti] = 0;
            if self.def_at[di] == j as u32 {
                self.def_at[di] = i as u32;
            }
        }
    }

    /// Pass 2: compare-and-branch fusion.
    fn fuse(&mut self) {
        let n = self.prog.ops.len();
        for i in 0..n {
            if self.dead[i] || self.prog.dynamic[i] {
                continue;
            }
            let Some(j) = (i + 1..n).find(|&k| !self.dead[k]) else {
                continue;
            };
            let Op::Br { cond, then_, else_ } = self.prog.ops[j] else {
                continue;
            };
            if (i + 1..=j).any(|k| self.protected[k])
                || !self.free(cond)
                || self.uses[cond as usize].len() != 1
            {
                continue;
            }
            let fused = match self.prog.ops[i] {
                Op::BinRR {
                    op: BinOp::And,
                    dst,
                    a,
                    b,
                } if dst == cond => Op::BrAndRR { a, b, then_, else_ },
                Op::LtRR { dst, a, b } if dst == cond => Op::BrLtRR { a, b, then_, else_ },
                Op::LtRI { dst, a, imm } if dst == cond => Op::BrLtRI {
                    a,
                    imm,
                    then_,
                    else_,
                },
                Op::EqRI { dst, a, imm } if dst == cond => Op::BrEqRI {
                    a,
                    imm,
                    then_,
                    else_,
                },
                Op::NeRI { dst, a, imm: 0 } if dst == cond => Op::Br {
                    cond: a,
                    then_,
                    else_,
                },
                _ => continue,
            };
            self.prog.ops[i] = fused;
            self.dead[j] = true;
            self.uses[cond as usize].clear();
        }
    }

    /// Drops the deleted ops and remaps every op index.
    fn compact(self) {
        let Opt { prog, dead, .. } = self;
        // `at[i]`: the new index of old op `i`, or of the first op kept
        // after it.
        let mut at = Vec::with_capacity(dead.len() + 1);
        let mut kept = 0u32;
        for &d in &dead {
            at.push(kept);
            kept += u32::from(!d);
        }
        at.push(kept);
        fn keep<T>(v: &mut Vec<T>, dead: &[bool]) {
            let mut i = 0;
            v.retain(|_| {
                i += 1;
                !dead[i - 1]
            });
        }
        keep(&mut prog.ops, &dead);
        keep(&mut prog.dynamic, &dead);
        keep(&mut prog.pos, &dead);
        let map = |t: &mut u32| *t = at[*t as usize];
        for op in &mut prog.ops {
            for_each_target(op, map);
        }
        for t in &mut prog.switches {
            map(&mut t.default);
            t.cases.iter_mut().for_each(|(_, to)| map(to));
        }
        map(&mut prog.entry);
        prog.resume.iter_mut().for_each(map);
    }
}

/// Pass 3: every jump to a conditional branch not preceded by a
/// [`Op::TestClose`] runs a copy of that branch.
fn thread_jumps(prog: &mut Program) {
    for i in 0..prog.ops.len() {
        let Op::Jump { to } = prog.ops[i] else {
            continue;
        };
        let to = to as usize;
        let target = prog.ops[to];
        let after_close = to > 0 && matches!(prog.ops[to - 1], Op::TestClose { .. });
        if is_cond_branch(&target) && !after_close {
            prog.ops[i] = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AggSlots, Rk, SwitchTable};

    /// A program of `ops` alone, all rt-static, entered at op 0.
    fn program(ops: Vec<Op>) -> Program {
        let n = ops.len();
        Program {
            ops,
            dynamic: vec![false; n],
            pos: vec![(0, 0); n],
            entry: 0,
            replay: Vec::new(),
            resume: Vec::new(),
            consts: vec![0],
            args: Vec::new(),
            switches: Vec::new(),
            nexts: Vec::new(),
            params: Vec::new(),
            slots: AggSlots {
                var: Vec::new(),
                global: Vec::new(),
                len: 0,
            },
        }
    }

    fn optimized(ops: Vec<Op>) -> Vec<Op> {
        let mut p = program(ops);
        optimize(&mut p, &[]);
        p.ops
    }

    #[test]
    fn a_loop_increment_writes_its_variable_and_the_back_jump_branches() {
        let ops = optimized(vec![
            Op::CopyI { dst: 1, imm: 0 },
            Op::LtRI {
                dst: 2,
                a: 1,
                imm: 4,
            },
            Op::Br {
                cond: 2,
                then_: 3,
                else_: 6,
            },
            Op::AddRI {
                dst: 3,
                a: 1,
                imm: 1,
            },
            Op::CopyR { dst: 1, src: 3 },
            Op::Jump { to: 1 },
            Op::Ret,
        ]);
        let head = Op::BrLtRI {
            a: 1,
            imm: 4,
            then_: 2,
            else_: 4,
        };
        let want = vec![
            Op::CopyI { dst: 1, imm: 0 },
            head,
            Op::AddRI {
                dst: 1,
                a: 1,
                imm: 1,
            },
            head,
            Op::Ret,
        ];
        assert_eq!(ops, want);
    }

    #[test]
    fn a_copy_of_a_value_read_again_is_coalesced() {
        let load = |dst| Op::QueueGet {
            dst,
            q: 0,
            idx: Rk::reg(0),
        };
        let store = |src| Op::StoreGlobalR { g: 0, src };
        let ops = optimized(vec![
            load(1),
            Op::CopyR { dst: 2, src: 1 },
            store(1),
            store(2),
            Op::Ret,
        ]);
        assert_eq!(ops, [load(2), store(2), store(2), Op::Ret]);
        // Not when the copy's destination has a second def: the two
        // could then hold different values.
        let ops = optimized(vec![
            load(1),
            Op::CopyR { dst: 2, src: 1 },
            store(1),
            Op::CopyI { dst: 2, imm: 7 },
            store(2),
            Op::Ret,
        ]);
        assert!(ops.contains(&Op::CopyR { dst: 2, src: 1 }), "{ops:?}");
    }

    #[test]
    fn a_compare_with_a_second_reader_is_not_fused() {
        let ops = optimized(vec![
            Op::LtRI {
                dst: 1,
                a: 0,
                imm: 3,
            },
            Op::Br {
                cond: 1,
                then_: 2,
                else_: 2,
            },
            Op::StoreGlobalR { g: 0, src: 1 },
            Op::Ret,
        ]);
        assert!(matches!(ops[0], Op::LtRI { dst: 1, .. }), "{ops:?}");
    }

    #[test]
    fn a_def_is_not_retargeted_across_a_branch_target() {
        // The copy at op 1 is also entered by the jump at op 3.
        let ops = optimized(vec![
            Op::AddRI {
                dst: 1,
                a: 0,
                imm: 1,
            },
            Op::CopyR { dst: 2, src: 1 },
            Op::Br {
                cond: 0,
                then_: 3,
                else_: 4,
            },
            Op::Jump { to: 1 },
            Op::Ret,
        ]);
        assert!(ops.contains(&Op::CopyR { dst: 2, src: 1 }), "{ops:?}");
    }

    #[test]
    fn a_compare_result_is_renormalized_only_once() {
        let ops = optimized(vec![
            Op::NeRI {
                dst: 1,
                a: 0,
                imm: 0,
            },
            Op::LtRI {
                dst: 2,
                a: 0,
                imm: 9,
            },
            Op::NeRI {
                dst: 3,
                a: 1,
                imm: 0,
            },
            Op::NeRI {
                dst: 4,
                a: 2,
                imm: 0,
            },
            Op::BinRR {
                op: BinOp::And,
                dst: 5,
                a: 3,
                b: 4,
            },
            Op::StoreGlobalR { g: 0, src: 5 },
            Op::Ret,
        ]);
        let want = vec![
            Op::NeRI {
                dst: 3,
                a: 0,
                imm: 0,
            },
            Op::LtRI {
                dst: 4,
                a: 0,
                imm: 9,
            },
            Op::BinRR {
                op: BinOp::And,
                dst: 5,
                a: 3,
                b: 4,
            },
            Op::StoreGlobalR { g: 0, src: 5 },
            Op::Ret,
        ];
        assert_eq!(ops, want);
    }

    #[test]
    fn no_jump_skips_a_test_close() {
        // Op 0 jumps to a dynamic test's close; op 1 (never taken) jumps
        // straight to its branch.
        let ops = optimized(vec![
            Op::Jump { to: 2 },
            Op::Jump { to: 3 },
            Op::TestClose {
                action: 0,
                src: 1,
                open: false,
            },
            Op::Br {
                cond: 1,
                then_: 4,
                else_: 4,
            },
            Op::Ret,
        ]);
        assert_eq!(ops[..2], [Op::Jump { to: 2 }, Op::Jump { to: 3 }]);
    }

    #[test]
    fn indices_are_remapped_past_deleted_ops() {
        let mut p = program(vec![
            Op::AddRI {
                dst: 1,
                a: 0,
                imm: 1,
            },
            Op::CopyR { dst: 2, src: 1 },
            Op::EqRI {
                dst: 3,
                a: 2,
                imm: 7,
            },
            Op::Br {
                cond: 3,
                then_: 4,
                else_: 5,
            },
            Op::StoreGlobalI { g: 0, imm: 1 },
            Op::StoreGlobalR { g: 1, src: 2 },
            Op::Ret,
        ]);
        p.resume = vec![4, 5];
        p.switches = vec![SwitchTable {
            cases: vec![(1, 5)],
            default: 6,
        }];
        optimize(&mut p, &[]);
        assert_eq!(p.ops.len(), 5, "{:?}", p.ops);
        assert_eq!(
            p.ops[1],
            Op::BrEqRI {
                a: 2,
                imm: 7,
                then_: 2,
                else_: 3,
            }
        );
        assert_eq!(p.resume, [2, 3]);
        assert_eq!((p.switches[0].cases[0].1, p.switches[0].default), (3, 4));
        assert_eq!((p.dynamic.len(), p.pos.len()), (5, 5));
    }
}
