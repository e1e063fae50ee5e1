//! Binding-time analysis (paper §4.1).
//!
//! An abstract interpretation over the three-point lattice
//!
//! ```text
//! static  <  rt-static  <  dynamic
//! ```
//!
//! where *static* is a compile-time constant, *rt-static* is a function of
//! the memoization key (plus previously verified dynamic results along the
//! recorded path), and *dynamic* is everything else. Code whose result is
//! run-time static can be skipped by fast-forwarding; dynamic code becomes
//! the replayed actions.
//!
//! The analysis is flow-sensitive: each block entry has its own
//! environment, merged monotonically from predecessors, exactly as the
//! paper describes its termination argument — "binding times of variables
//! ... are merged on entry to the block, a block is re-evaluated only if
//! its merged binding time data changes, and merged binding times can only
//! change a finite number of times."
//!
//! Initial division (paper §4.1): `main`'s parameters are rt-static (they
//! are the specialized-action-cache key); literals are static; **all
//! globals are dynamic at entry**; target text is rt-static, so
//! `FetchToken` of an rt-static stream is rt-static.

use facile_ir::bitset::{ones, BitSet};
use facile_ir::ir::*;
use facile_sema::GlobalId;

/// A binding time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bt {
    /// Known at compile time.
    Static,
    /// A function of the memoization key and verified results: the slow
    /// engine's value can be recorded and the computation skipped on
    /// replay.
    RtStatic,
    /// Must be computed on every execution, by both engines.
    Dynamic,
}

impl Bt {
    /// Least upper bound.
    pub fn join(self, other: Bt) -> Bt {
        self.max(other)
    }

    /// Whether the slow engine knows this value concretely in a form the
    /// cache can record (everything except dynamic).
    pub fn is_known(self) -> bool {
        self != Bt::Dynamic
    }
}

/// Binding times of every variable and global at one program point.
///
/// Stored as two bit planes over one dense slot space — variable `v` is
/// slot `v`, global `g` is slot `nvars + g`:
///
/// * `rt` holds the slots that are at least run-time static,
/// * `dy` holds the slots that are dynamic (always a subset of `rt`).
///
/// The three-point lattice maps onto the planes monotonically (static is
/// neither bit, dynamic is both), so a join is a word-wise OR of each
/// plane.
#[derive(Debug)]
pub struct Env {
    rt: BitSet,
    dy: BitSet,
    nvars: usize,
}

impl Clone for Env {
    fn clone(&self) -> Self {
        Env {
            rt: self.rt.clone(),
            dy: self.dy.clone(),
            nvars: self.nvars,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rt.clone_from(&source.rt);
        self.dy.clone_from(&source.dy);
        self.nvars = source.nvars;
    }
}

impl Env {
    /// The bottom environment (everything static) for `nvars`/`nglobals`.
    pub fn bottom(nvars: usize, nglobals: usize) -> Env {
        Env {
            rt: BitSet::new(nvars + nglobals),
            dy: BitSet::new(nvars + nglobals),
            nvars,
        }
    }

    /// Pointwise join; returns whether `self` changed.
    pub fn join_with(&mut self, other: &Env) -> bool {
        // Non-short-circuiting: both planes must absorb `other`.
        self.rt.union_with(&other.rt) | self.dy.union_with(&other.dy)
    }

    fn get(&self, slot: usize) -> Bt {
        if self.dy.contains(slot) {
            Bt::Dynamic
        } else if self.rt.contains(slot) {
            Bt::RtStatic
        } else {
            Bt::Static
        }
    }

    fn set(&mut self, slot: usize, bt: Bt) {
        self.rt.set(slot, bt != Bt::Static);
        self.dy.set(slot, bt == Bt::Dynamic);
    }

    fn slot(&self, l: Loc) -> usize {
        match l {
            Loc::Var(v) => v.index(),
            Loc::Global(g) => self.nvars + g.index(),
        }
    }

    /// Binding time of variable `v`.
    pub fn var(&self, v: VarId) -> Bt {
        self.get(v.index())
    }

    /// Binding time of global `g`.
    pub fn global(&self, g: GlobalId) -> Bt {
        self.get(self.nvars + g.index())
    }

    /// Binding time of an operand.
    pub fn operand(&self, op: Operand) -> Bt {
        match op {
            Operand::Const(_) => Bt::Static,
            Operand::Var(v) => self.var(v),
        }
    }

    /// Binding time of an aggregate location.
    pub fn loc(&self, l: Loc) -> Bt {
        self.get(self.slot(l))
    }

    fn set_var(&mut self, v: VarId, bt: Bt) {
        self.set(v.index(), bt);
    }

    fn set_loc(&mut self, l: Loc, bt: Bt) {
        self.set(self.slot(l), bt);
    }

    /// The variables and globals known (static or rt-static) in `self`
    /// but dynamic in `to`, variables first, each in index order: one
    /// word-wise `!self.dy & to.dy` mask.
    pub(crate) fn newly_dynamic<'a>(&'a self, to: &'a Env) -> impl Iterator<Item = Loc> + 'a {
        let mask = self
            .dy
            .words()
            .iter()
            .zip(to.dy.words())
            .map(|(a, b)| !a & b);
        ones(mask).map(move |slot| {
            if slot < self.nvars {
                Loc::Var(VarId(slot as u32))
            } else {
                Loc::Global(GlobalId((slot - self.nvars) as u32))
            }
        })
    }
}

/// The analysis result.
#[derive(Clone, Debug)]
pub struct Bta {
    /// Environment at entry of each block (bottom for unreachable blocks).
    pub entry: Vec<Env>,
    /// Environment after the last instruction of each block.
    pub exit: Vec<Env>,
    /// Per block, per instruction: does the instruction execute in the
    /// fast engine (dynamic), or is it skipped (run-time static)?
    pub inst_dynamic: Vec<Vec<bool>>,
    /// Per block: is the terminator a dynamic result test?
    pub term_dynamic: Vec<bool>,
    /// Blocks reachable from entry, in reverse postorder.
    pub order: Vec<BlockId>,
}

impl Bta {
    /// Fraction of reachable instructions labeled run-time static —
    /// a quick measure of how much work fast-forwarding can skip.
    pub fn rt_static_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut rt = 0usize;
        for &b in &self.order {
            for &d in &self.inst_dynamic[b.index()] {
                total += 1;
                if !d {
                    rt += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            rt as f64 / total as f64
        }
    }
}

/// Transfers one instruction through `env`, returning whether the
/// instruction is dynamic. This function is the single source of truth:
/// the fixed point below, the lift-insertion pass and action extraction
/// all replay it.
pub fn transfer(inst: &Inst, env: &mut Env) -> bool {
    match inst {
        Inst::Bin { dst, a, b, .. } => {
            let bt = env.operand(*a).join(env.operand(*b)).max(Bt::Static);
            env.set_var(*dst, bt);
            bt == Bt::Dynamic
        }
        Inst::Un { dst, a, .. } => {
            let bt = env.operand(*a);
            env.set_var(*dst, bt);
            bt == Bt::Dynamic
        }
        Inst::Copy { dst, src } => {
            let bt = env.operand(*src);
            env.set_var(*dst, bt);
            bt == Bt::Dynamic
        }
        Inst::LoadGlobal { dst, g } => {
            let bt = env.global(*g);
            env.set_var(*dst, bt);
            bt == Bt::Dynamic
        }
        Inst::StoreGlobal { g, src } => {
            let bt = env.operand(*src);
            env.set_loc(Loc::Global(*g), bt);
            bt == Bt::Dynamic
        }
        Inst::ElemGet { dst, agg, idx } => {
            let bt = env.loc(*agg).join(env.operand(*idx));
            env.set_var(*dst, bt);
            bt == Bt::Dynamic
        }
        Inst::ElemSet { agg, idx, src } => {
            let bt = env
                .loc(*agg)
                .join(env.operand(*idx))
                .join(env.operand(*src));
            env.set_loc(*agg, bt);
            bt == Bt::Dynamic
        }
        Inst::AggCopy { dst, src } => {
            let bt = env.loc(*src);
            env.set_loc(*dst, bt);
            bt == Bt::Dynamic
        }
        Inst::ArrFill { arr, fill } => {
            // A fill overwrites the whole array: its binding time resets to
            // the fill's.
            let bt = env.operand(*fill).max(Bt::RtStatic);
            env.set_loc(*arr, bt);
            bt == Bt::Dynamic
        }
        Inst::Queue { op, q, args, .. } => match op {
            QueueOp::Clear => {
                // Clearing resets the queue to a known (empty) state.
                env.set_loc(*q, Bt::RtStatic);
                false
            }
            QueueOp::PushBack | QueueOp::PushFront | QueueOp::Set => {
                let mut bt = env.loc(*q);
                for a in args.iter().flatten() {
                    bt = bt.join(env.operand(*a));
                }
                env.set_loc(*q, bt);
                bt == Bt::Dynamic
            }
            QueueOp::PopBack | QueueOp::PopFront | QueueOp::Len | QueueOp::Get
            | QueueOp::Front | QueueOp::Back => {
                let mut bt = env.loc(*q);
                for a in args.iter().flatten() {
                    bt = bt.join(env.operand(*a));
                }
                if let Some(d) = inst.dst() {
                    env.set_var(d, bt);
                }
                bt == Bt::Dynamic
            }
        },
        Inst::FetchToken { dst, stream, .. } => {
            // Target text is immutable: the fetched word is as static as
            // the address.
            let bt = env.operand(*stream).max(Bt::RtStatic);
            env.set_var(*dst, bt);
            bt == Bt::Dynamic
        }
        Inst::CallExt { dst, .. } => {
            if let Some(d) = dst {
                env.set_var(*d, Bt::Dynamic);
            }
            true
        }
        Inst::MemLoad { dst, .. } => {
            env.set_var(*dst, Bt::Dynamic);
            true
        }
        Inst::MemStore { .. }
        | Inst::CountCycles { .. }
        | Inst::CountInsns { .. }
        | Inst::Halt { .. }
        | Inst::Trace { .. }
        | Inst::SetNext { .. } => true,
        Inst::LiftVar { v } => {
            env.set_var(*v, Bt::Dynamic);
            true
        }
        Inst::LiftGlobal { g } => {
            env.set_loc(Loc::Global(*g), Bt::Dynamic);
            true
        }
        Inst::LiftAgg { loc } => {
            env.set_loc(*loc, Bt::Dynamic);
            true
        }
        Inst::Verify { dst, .. } => {
            // The lift: a verified dynamic value becomes run-time static —
            // the recorded path is only replayed when the value matches.
            env.set_var(*dst, Bt::RtStatic);
            true
        }
    }
}

/// Whether a terminator is a dynamic result test under `env`.
pub fn terminator_dynamic(term: &Terminator, env: &Env) -> bool {
    match term {
        Terminator::Branch { cond, .. } => env.operand(*cond) == Bt::Dynamic,
        Terminator::Switch { val, .. } => env.operand(*val) == Bt::Dynamic,
        Terminator::Jump(_) | Terminator::Return => false,
    }
}

/// Runs the analysis to a fixed point.
///
/// Blocks are visited in reverse postorder, but a block is re-evaluated
/// only when its merged entry environment changed since its last visit;
/// every reachable block is evaluated at least once. The result is the
/// least fixed point, independent of visiting order.
pub fn analyze(ir: &IrProgram) -> Bta {
    let f = &ir.main;
    let nb = f.blocks.len();
    let nv = f.vars.len();
    let ng = ir.globals.len();
    let order = f.reverse_postorder();

    let mut entry: Vec<Env> = vec![Env::bottom(nv, ng); nb];
    // Initial division at the entry block: parameters rt-static, globals
    // dynamic, everything else bottom.
    {
        let e = &mut entry[f.entry.index()];
        for p in &f.params {
            e.set_var(*p, Bt::RtStatic);
        }
        for g in 0..ng {
            e.set(nv + g, Bt::Dynamic);
        }
    }

    let mut exit: Vec<Env> = vec![Env::bottom(nv, ng); nb];
    let mut dirty = vec![false; nb];
    for &bid in &order {
        dirty[bid.index()] = true;
    }
    let mut env = Env::bottom(nv, ng);
    let mut changed = true;
    while changed {
        changed = false;
        for &bid in &order {
            let bi = bid.index();
            if !std::mem::take(&mut dirty[bi]) {
                continue;
            }
            changed = true;
            env.clone_from(&entry[bi]);
            for inst in &f.blocks[bi].insts {
                transfer(inst, &mut env);
            }
            for s in f.blocks[bi].term.successors() {
                if entry[s.index()].join_with(&env) {
                    dirty[s.index()] = true;
                }
            }
            exit[bi].clone_from(&env);
        }
    }

    // Final labeling pass.
    let mut inst_dynamic: Vec<Vec<bool>> = vec![Vec::new(); nb];
    let mut term_dynamic: Vec<bool> = vec![false; nb];
    for &bid in &order {
        let bi = bid.index();
        env.clone_from(&entry[bi]);
        let labels = f.blocks[bi]
            .insts
            .iter()
            .map(|inst| transfer(inst, &mut env))
            .collect();
        term_dynamic[bi] = terminator_dynamic(&f.blocks[bi].term, &env);
        inst_dynamic[bi] = labels;
    }

    Bta {
        entry,
        exit,
        inst_dynamic,
        term_dynamic,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::build;

    /// All (inst, dynamic-label) pairs for instructions matching `pred`.
    fn labels_of(ir: &IrProgram, bta: &Bta, pred: impl Fn(&Inst) -> bool) -> Vec<bool> {
        let mut out = Vec::new();
        for &b in &bta.order {
            for (i, inst) in ir.main.block(b).insts.iter().enumerate() {
                if pred(inst) {
                    out.push(bta.inst_dynamic[b.index()][i]);
                }
            }
        }
        out
    }

    #[test]
    fn lattice_join() {
        assert_eq!(Bt::Static.join(Bt::RtStatic), Bt::RtStatic);
        assert_eq!(Bt::RtStatic.join(Bt::Dynamic), Bt::Dynamic);
        assert_eq!(Bt::Static.join(Bt::Static), Bt::Static);
        assert!(Bt::Static < Bt::RtStatic && Bt::RtStatic < Bt::Dynamic);
    }

    #[test]
    fn params_are_rt_static() {
        let ir = build("fun main(pc : stream) { val npc = pc + 4; next(npc); }");
        let bta = analyze(&ir);
        // npc = pc + 4 is rt-static: skippable.
        let adds = labels_of(&ir, &bta, |i| matches!(i, Inst::Bin { op: BinOp::Add, .. }));
        assert_eq!(adds, vec![false]);
    }

    #[test]
    fn globals_are_dynamic_at_entry() {
        let ir = build("val g = 0;\nfun main(x : int) { val y = g + 1; trace(y); next(x); }");
        let bta = analyze(&ir);
        let adds = labels_of(&ir, &bta, |i| matches!(i, Inst::Bin { op: BinOp::Add, .. }));
        assert_eq!(adds, vec![true]);
    }

    #[test]
    fn global_becomes_rt_static_after_rt_static_store() {
        // Paper §4.1: "a global variable is assigned a rt-static value and
        // used within the body of main ... the analysis labels the global
        // variable as rt-static from the point at which it is assigned."
        let ir = build(
            "val g = 0;\nfun main(x : int) { g = x; val y = g + 1; trace(y); next(y); }",
        );
        let bta = analyze(&ir);
        let adds = labels_of(&ir, &bta, |i| matches!(i, Inst::Bin { op: BinOp::Add, .. }));
        assert_eq!(adds, vec![false]);
    }

    #[test]
    fn register_file_stays_dynamic() {
        // Paper Figure 7: register adds are dynamic, register *indices* are
        // rt-static.
        let ir = build(
            "token instr[32] fields op 26:31, rd 21:25, rs1 16:20, imm16 0:15;\n\
             pat addi = op==0;\nval R = array(32){0};\n\
             sem addi { R[rd] = R[rs1] + imm16?sext(16); }\n\
             fun main(pc : stream) { pc?exec(); next(pc + 4); }",
        );
        let bta = analyze(&ir);
        // The register read and write are dynamic.
        let gets = labels_of(&ir, &bta, |i| matches!(i, Inst::ElemGet { .. }));
        assert_eq!(gets, vec![true]);
        let sets = labels_of(&ir, &bta, |i| matches!(i, Inst::ElemSet { .. }));
        assert_eq!(sets, vec![true]);
        // The decode (fetch + field masking) is rt-static.
        let fetches = labels_of(&ir, &bta, |i| matches!(i, Inst::FetchToken { .. }));
        assert_eq!(fetches, vec![false]);
        // The sign extension of the immediate is rt-static.
        let sexts = labels_of(&ir, &bta, |i| matches!(i, Inst::Un { op: UnOp::Sext(_), .. }));
        assert_eq!(sexts, vec![false]);
    }

    #[test]
    fn ext_call_result_is_dynamic_until_verified() {
        let ir = build(
            "ext fun cache(a : int) : int;\n\
             fun main(x : int) {\n\
               val raw = cache(x);\n\
               val lat = raw?verify;\n\
               val t = lat + 1;\n\
               trace(raw);\n\
               next(x + t);\n\
             }",
        );
        let bta = analyze(&ir);
        // lat + 1 is rt-static thanks to the verify lift.
        let adds = labels_of(&ir, &bta, |i| matches!(i, Inst::Bin { op: BinOp::Add, .. }));
        assert_eq!(adds, vec![false, false]); // lat+1 and x+t
        // trace(raw) is dynamic.
        let traces = labels_of(&ir, &bta, |i| matches!(i, Inst::Trace { .. }));
        assert_eq!(traces, vec![true]);
    }

    #[test]
    fn dynamic_branch_is_a_dynamic_result_test() {
        let ir = build(
            "val R = array(32){0};\n\
             fun main(x : int) { if (R[0] == 0) { trace(1); } next(x); }",
        );
        let bta = analyze(&ir);
        assert!(bta
            .order
            .iter()
            .any(|b| bta.term_dynamic[b.index()]));
    }

    #[test]
    fn rt_static_branch_is_not_recorded() {
        let ir = build("fun main(x : int) { if (x == 0) { trace(1); } next(x); }");
        let bta = analyze(&ir);
        // The branch on a key value is rt-static (slow engine only).
        assert!(bta.order.iter().all(|b| !bta.term_dynamic[b.index()]));
    }

    #[test]
    fn merge_goes_to_dynamic() {
        // v is rt-static on one path, dynamic on the other => dynamic after
        // the merge (paper §4.1 merge rule).
        let ir = build(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               val v = 0;\n\
               if (x) { v = 1; } else { v = R[0]; }\n\
               val w = v + 1;\n\
               trace(w);\n\
               next(x);\n\
             }",
        );
        let bta = analyze(&ir);
        let adds = labels_of(&ir, &bta, |i| matches!(i, Inst::Bin { op: BinOp::Add, .. }));
        assert_eq!(adds, vec![true]);
    }

    #[test]
    fn loop_reaches_fixed_point_with_loop_carried_dynamism() {
        // i starts rt-static but is joined with a dynamic increment inside
        // the loop; the analysis must converge with i dynamic at the head.
        let ir = build(
            "val R = array(4){0};\n\
             fun main(n : int) {\n\
               val i = 0;\n\
               while (i < n) { i = i + R[0]; }\n\
               next(i);\n\
             }",
        );
        let bta = analyze(&ir);
        // The loop-head comparison is dynamic (i became dynamic).
        assert!(bta.order.iter().any(|b| bta.term_dynamic[b.index()]));
    }

    #[test]
    fn queue_of_rt_static_values_stays_rt_static() {
        let ir = build(
            "fun main(iq : queue, pc : stream) {\n\
               iq?push_back(pc?addr);\n\
               val n = iq?len;\n\
               if (n > 4) { iq?pop_front(); }\n\
               next(iq, pc + 4);\n\
             }",
        );
        let bta = analyze(&ir);
        let qops = labels_of(&ir, &bta, |i| matches!(i, Inst::Queue { .. }));
        assert!(qops.iter().all(|d| !d), "queue ops should be rt-static");
        // And the rt-static fraction is high.
        assert!(bta.rt_static_fraction() > 0.5);
    }

    #[test]
    fn queue_polluted_by_dynamic_push() {
        let ir = build(
            "val R = array(4){0};\n\
             fun main(iq : queue) { iq?push_back(R[0]); next(iq); }",
        );
        let bta = analyze(&ir);
        let pushes = labels_of(&ir, &bta, |i| {
            matches!(
                i,
                Inst::Queue {
                    op: QueueOp::PushBack,
                    ..
                }
            )
        });
        assert_eq!(pushes, vec![true]);
    }

    #[test]
    fn clear_resets_queue_to_rt_static() {
        let ir = build(
            "val R = array(4){0};\nval q : queue;\n\
             fun main(x : int) {\n\
               q?clear();\n\
               q?push_back(x);\n\
               val n = q?len;\n\
               next(x + n);\n\
             }",
        );
        let bta = analyze(&ir);
        let lens = labels_of(&ir, &bta, |i| {
            matches!(
                i,
                Inst::Queue {
                    op: QueueOp::Len,
                    ..
                }
            )
        });
        assert_eq!(lens, vec![false]);
    }

    #[test]
    fn mem_ops_are_dynamic() {
        let ir = build("fun main(a : int) { mem_st(a, 1); val v = mem_ld(a); trace(v); next(a); }");
        let bta = analyze(&ir);
        assert_eq!(
            labels_of(&ir, &bta, |i| matches!(i, Inst::MemStore { .. })),
            vec![true]
        );
        assert_eq!(
            labels_of(&ir, &bta, |i| matches!(i, Inst::MemLoad { .. })),
            vec![true]
        );
    }

    #[test]
    fn rt_static_fraction_of_pure_pipeline_bookkeeping_is_high() {
        // A caricature of the OOO instruction queue: all bookkeeping on key
        // data, one dynamic action per step.
        let ir = build(
            "fun main(iq : queue, pc : stream) {\n\
               val n = iq?len;\n\
               val i = 0;\n\
               while (i < n) {\n\
                 val e = iq?get(i);\n\
                 if (e > 0) { iq?set(i, e - 1); }\n\
                 i = i + 1;\n\
               }\n\
               count_cycles(1);\n\
               next(iq, pc + 4);\n\
             }",
        );
        let bta = analyze(&ir);
        assert!(
            bta.rt_static_fraction() > 0.8,
            "fraction = {}",
            bta.rt_static_fraction()
        );
    }
}
