//! Liveness analyses.
//!
//! Two analyses live here:
//!
//! * **Variable liveness** — classic backward dataflow over the CFG. Lift
//!   insertion skips merge-edge lifts of dead variables with it, and action
//!   extraction records only the live run-time-static values.
//! * **Global read-before-write analysis** — which globals may be read
//!   before being (re)written once the *next* simulator step begins. The
//!   paper's proposed optimization 3 (§6.3): a global that is run-time
//!   static at the end of a step normally has to be "made dynamic" (its
//!   value written through a memoized action) for the next step; if the
//!   next step cannot read it before overwriting it, that flush — and its
//!   action-cache traffic — can be skipped. Lift insertion (`facile-bta`)
//!   consumes this set when `prune_dead_flushes` is enabled.
//!
//! Both are solved over dense [`BitSet`]s, one word per 64 variables or
//! globals, so a block's transfer is a handful of word operations.

use crate::bitset::BitSet;
use crate::ir::*;
use std::collections::HashMap;

/// Per-block liveness result for variables, as sets of variable indices.
#[derive(Clone, Debug, Default)]
pub struct VarLiveness {
    /// Variables live at entry of each block (indexed by block).
    pub live_in: Vec<BitSet>,
    /// Variables live at exit of each block.
    pub live_out: Vec<BitSet>,
}

/// Calls `f` with every aggregate variable `inst` touches. Aggregate
/// variables are conservatively live on every touch: element writes are
/// partial, so nothing kills them.
pub fn for_each_touched_agg(inst: &Inst, mut f: impl FnMut(VarId)) {
    let mut touch = |l: &Loc| {
        if let Loc::Var(v) = l {
            f(*v);
        }
    };
    match inst {
        Inst::ElemGet { agg, .. }
        | Inst::ElemSet { agg, .. }
        | Inst::ArrFill { arr: agg, .. }
        | Inst::Queue { q: agg, .. }
        | Inst::LiftAgg { loc: agg } => touch(agg),
        Inst::AggCopy { dst, src } => {
            touch(dst);
            touch(src);
        }
        Inst::SetNext { args } => {
            for a in args {
                if let KeyArg::Queue(l) = a {
                    touch(l);
                }
            }
        }
        _ => {}
    }
}

/// The variable a terminator reads, if any.
pub fn terminator_use(term: &Terminator) -> Option<VarId> {
    match term {
        Terminator::Branch {
            cond: Operand::Var(v),
            ..
        }
        | Terminator::Switch {
            val: Operand::Var(v),
            ..
        } => Some(*v),
        _ => None,
    }
}

/// Solves `live_in(B) = gen(B) ∪ (⋃ live_in(succ B) ∖ kill(B))` over the
/// blocks reachable from the entry; returns `(live_in, live_out)`.
/// Unreachable blocks keep empty sets.
fn backward_fixed_point(
    f: &IrFunction,
    gen: &[BitSet],
    kill: &[BitSet],
    capacity: usize,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = f.blocks.len();
    let mut live_in = vec![BitSet::new(capacity); n];
    let mut live_out = vec![BitSet::new(capacity); n];
    let order = f.reverse_postorder();
    let mut out = BitSet::new(capacity);
    let mut inn = BitSet::new(capacity);
    let mut changed = true;
    while changed {
        changed = false;
        for &bid in order.iter().rev() {
            let bi = bid.index();
            out.clear();
            for s in f.blocks[bi].term.successors() {
                out.union_with(&live_in[s.index()]);
            }
            inn.clone_from(&out);
            inn.difference_with(&kill[bi]);
            inn.union_with(&gen[bi]);
            if inn != live_in[bi] || out != live_out[bi] {
                live_in[bi].clone_from(&inn);
                live_out[bi].clone_from(&out);
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

/// Computes variable liveness with a standard backward fixed point.
pub fn var_liveness(f: &IrFunction) -> VarLiveness {
    let n = f.blocks.len();
    let nv = f.vars.len();
    // use/def per block.
    let mut use_ = vec![BitSet::new(nv); n];
    let mut def = vec![BitSet::new(nv); n];
    // A read counts as a use unless the block defined the variable first.
    let read = |u: &mut BitSet, d: &BitSet, v: VarId| {
        if !d.contains(v.index()) {
            u.insert(v.index());
        }
    };
    for (bi, b) in f.blocks.iter().enumerate() {
        let (u, d) = (&mut use_[bi], &mut def[bi]);
        for i in &b.insts {
            for op in i.operands() {
                if let Operand::Var(v) = op {
                    read(u, d, v);
                }
            }
            for_each_touched_agg(i, |v| read(u, d, v));
            if let Some(v) = i.dst() {
                d.insert(v.index());
            }
        }
        if let Some(v) = terminator_use(&b.term) {
            read(u, d, v);
        }
    }
    let (live_in, live_out) = backward_fixed_point(f, &use_, &def, nv);
    VarLiveness { live_in, live_out }
}

/// Computes the set of globals that may be read before written when
/// execution (re)starts at the entry block — i.e. the globals whose values
/// must survive into the next step — as a set of global indices below
/// `nglobals`.
///
/// Aggregate globals (arrays, queues) are handled conservatively: any
/// element read counts as a read of the whole global, and partial writes
/// never kill.
pub fn entry_live_globals(f: &IrFunction, nglobals: usize) -> BitSet {
    let n = f.blocks.len();
    // Per block: globals read before any write (gen) and globals
    // definitely (re)written (kill).
    let mut gen = vec![BitSet::new(nglobals); n];
    let mut kill = vec![BitSet::new(nglobals); n];
    for (bi, b) in f.blocks.iter().enumerate() {
        let (gen, kill) = (&mut gen[bi], &mut kill[bi]);
        let mut read = |g: facile_sema::GlobalId, kill: &BitSet| {
            if !kill.contains(g.index()) {
                gen.insert(g.index());
            }
        };
        for i in &b.insts {
            match i {
                Inst::LoadGlobal { g, .. } => read(*g, kill),
                Inst::StoreGlobal { g, .. } => kill.insert(g.index()),
                // Aggregate reads (including partial writes: an ElemSet of
                // one element leaves the others readable).
                Inst::ElemGet {
                    agg: Loc::Global(g),
                    ..
                }
                | Inst::ElemSet {
                    agg: Loc::Global(g),
                    ..
                } => read(*g, kill),
                Inst::Queue {
                    q: Loc::Global(g),
                    op,
                    ..
                } => {
                    if *op == QueueOp::Clear {
                        kill.insert(g.index());
                    } else {
                        read(*g, kill);
                    }
                }
                Inst::ArrFill {
                    arr: Loc::Global(g),
                    ..
                } => kill.insert(g.index()),
                Inst::AggCopy { dst, src } => {
                    if let Loc::Global(g) = src {
                        read(*g, kill);
                    }
                    if let Loc::Global(g) = dst {
                        kill.insert(g.index());
                    }
                }
                Inst::SetNext { args } => {
                    for a in args {
                        if let KeyArg::Queue(Loc::Global(g)) = a {
                            read(*g, kill);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let (mut live_in, _) = backward_fixed_point(f, &gen, &kill, nglobals);
    live_in.swap_remove(f.entry.index())
}

/// Per-variable use counts across the reachable CFG; exposed for tests and
/// the `facilec --dump-ir` statistics.
pub fn use_counts(f: &IrFunction) -> HashMap<VarId, usize> {
    let mut counts: HashMap<VarId, usize> = HashMap::new();
    for bid in f.reverse_postorder() {
        let b = f.block(bid);
        for i in &b.insts {
            for op in i.operands() {
                if let Operand::Var(v) = op {
                    *counts.entry(v).or_default() += 1;
                }
            }
        }
        if let Some(v) = terminator_use(&b.term) {
            *counts.entry(v).or_default() += 1;
        }
    }
    counts
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

    fn gid(ir: &IrProgram, name: &str) -> usize {
        ir.globals
            .iter()
            .position(|g| g.name == name)
            .unwrap_or_else(|| panic!("global {name}"))
    }

    #[test]
    fn global_read_before_write_is_live() {
        let ir = build("val g = 0;\nfun main(x : int) { val y = g + x; trace(y); next(x); }");
        let live = entry_live_globals(&ir.main, ir.globals.len());
        assert!(live.contains(gid(&ir, "g")));
    }

    #[test]
    fn global_written_before_read_is_dead() {
        let ir = build("val g = 0;\nfun main(x : int) { g = x; trace(g); next(x); }");
        let live = entry_live_globals(&ir.main, ir.globals.len());
        assert!(!live.contains(gid(&ir, "g")));
    }

    #[test]
    fn global_read_on_one_path_is_live() {
        let ir = build(
            "val g = 0;\nfun main(x : int) { if (x) { trace(g); } g = 1; next(x); }",
        );
        let live = entry_live_globals(&ir.main, ir.globals.len());
        assert!(live.contains(gid(&ir, "g")));
    }

    #[test]
    fn never_touched_global_is_dead() {
        let ir = build("val g = 0;\nval h = 0;\nfun main(x : int) { trace(h); next(x); }");
        let live = entry_live_globals(&ir.main, ir.globals.len());
        assert!(!live.contains(gid(&ir, "g")));
        assert!(live.contains(gid(&ir, "h")));
    }

    #[test]
    fn array_global_partial_write_does_not_kill() {
        let ir = build(
            "val R = array(4){0};\nfun main(x : int) { R[0] = x; trace(R[1]); next(x); }",
        );
        let live = entry_live_globals(&ir.main, ir.globals.len());
        assert!(live.contains(gid(&ir, "R")));
    }

    #[test]
    fn queue_clear_kills() {
        let ir = build(
            "val q : queue;\nfun main(x : int) { q?clear(); q?push_back(x); next(x); }",
        );
        let live = entry_live_globals(&ir.main, ir.globals.len());
        assert!(!live.contains(gid(&ir, "q")));
    }

    #[test]
    fn queue_push_without_clear_is_live() {
        let ir = build("val q : queue;\nfun main(x : int) { q?push_back(x); next(x); }");
        let live = entry_live_globals(&ir.main, ir.globals.len());
        assert!(live.contains(gid(&ir, "q")));
    }

    #[test]
    fn var_liveness_param_live_until_last_use() {
        let ir = build("fun main(x : int) { trace(x); next(x + 1); }");
        let lv = var_liveness(&ir.main);
        let p = ir.main.params[0];
        assert!(lv.live_in[ir.main.entry.index()].contains(p.index()));
    }

    #[test]
    fn var_liveness_loop_carried() {
        let ir = build(
            "fun main(n : int) { val i = 0; while (i < n) { i = i + 1; } next(i); }",
        );
        let lv = var_liveness(&ir.main);
        // `n` is live around the loop: some block has it live-out.
        let p = ir.main.params[0];
        assert!(lv.live_out.iter().any(|s| s.contains(p.index())));
    }

    #[test]
    fn use_counts_counts_terminators() {
        let ir = build("fun main(x : int) { if (x) { } next(x); }");
        let counts = use_counts(&ir.main);
        let p = ir.main.params[0];
        assert!(counts[&p] >= 2);
    }
}
