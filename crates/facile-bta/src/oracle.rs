//! The dense reference implementations the bit-set analyses replaced,
//! kept as a test oracle: one `Bt` per variable and global per block,
//! every block re-run on every sweep, `HashSet` liveness. The
//! differential tests assert the production passes compute exactly what
//! these do.

use crate::bta::Bt;
use crate::lifts::{LiftConfig, LiftStats};
use facile_ir::ir::*;
use facile_sema::GlobalId;
use std::collections::HashSet;

/// The dense analysis result.
#[derive(Clone, Debug)]
pub struct Bta {
    pub entry: Vec<Env>,
    pub exit: Vec<Env>,
    pub inst_dynamic: Vec<Vec<bool>>,
    pub term_dynamic: Vec<bool>,
    pub order: Vec<BlockId>,
}

/// Binding times of every variable and global at one program point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    /// Per-variable binding times.
    pub vars: Vec<Bt>,
    /// Per-global binding times.
    pub globals: Vec<Bt>,
}

impl Env {
    /// The bottom environment (everything static) for `nvars`/`nglobals`.
    pub fn bottom(nvars: usize, nglobals: usize) -> Env {
        Env {
            vars: vec![Bt::Static; nvars],
            globals: vec![Bt::Static; nglobals],
        }
    }

    /// Pointwise join; returns whether `self` changed.
    pub fn join_with(&mut self, other: &Env) -> bool {
        let mut changed = false;
        for (a, b) in self.vars.iter_mut().zip(&other.vars) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        for (a, b) in self.globals.iter_mut().zip(&other.globals) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }

    /// Binding time of an operand.
    pub fn operand(&self, op: Operand) -> Bt {
        match op {
            Operand::Const(_) => Bt::Static,
            Operand::Var(v) => self.vars[v.index()],
        }
    }

    /// Binding time of an aggregate location.
    pub fn loc(&self, l: Loc) -> Bt {
        match l {
            Loc::Var(v) => self.vars[v.index()],
            Loc::Global(g) => self.globals[g.index()],
        }
    }

    fn set_loc(&mut self, l: Loc, bt: Bt) {
        match l {
            Loc::Var(v) => self.vars[v.index()] = bt,
            Loc::Global(g) => self.globals[g.index()] = bt,
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
            env.vars[dst.index()] = bt;
            bt == Bt::Dynamic
        }
        Inst::Un { dst, a, .. } => {
            let bt = env.operand(*a);
            env.vars[dst.index()] = bt;
            bt == Bt::Dynamic
        }
        Inst::Copy { dst, src } => {
            let bt = env.operand(*src);
            env.vars[dst.index()] = bt;
            bt == Bt::Dynamic
        }
        Inst::LoadGlobal { dst, g } => {
            let bt = env.globals[g.index()];
            env.vars[dst.index()] = bt;
            bt == Bt::Dynamic
        }
        Inst::StoreGlobal { g, src } => {
            let bt = env.operand(*src);
            env.globals[g.index()] = bt;
            bt == Bt::Dynamic
        }
        Inst::ElemGet { dst, agg, idx } => {
            let bt = env.loc(*agg).join(env.operand(*idx));
            env.vars[dst.index()] = bt;
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
            QueueOp::PopBack
            | QueueOp::PopFront
            | QueueOp::Len
            | QueueOp::Get
            | QueueOp::Front
            | QueueOp::Back => {
                let mut bt = env.loc(*q);
                for a in args.iter().flatten() {
                    bt = bt.join(env.operand(*a));
                }
                if let Some(d) = inst.dst() {
                    env.vars[d.index()] = bt;
                }
                bt == Bt::Dynamic
            }
        },
        Inst::FetchToken { dst, stream, .. } => {
            // Target text is immutable: the fetched word is as static as
            // the address.
            let bt = env.operand(*stream).max(Bt::RtStatic);
            env.vars[dst.index()] = bt;
            bt == Bt::Dynamic
        }
        Inst::CallExt { dst, .. } => {
            if let Some(d) = dst {
                env.vars[d.index()] = Bt::Dynamic;
            }
            true
        }
        Inst::MemLoad { dst, .. } => {
            env.vars[dst.index()] = Bt::Dynamic;
            true
        }
        Inst::MemStore { .. }
        | Inst::CountCycles { .. }
        | Inst::CountInsns { .. }
        | Inst::Halt { .. }
        | Inst::Trace { .. }
        | Inst::SetNext { .. } => true,
        Inst::LiftVar { v } => {
            env.vars[v.index()] = Bt::Dynamic;
            true
        }
        Inst::LiftGlobal { g } => {
            env.globals[g.index()] = Bt::Dynamic;
            true
        }
        Inst::LiftAgg { loc } => {
            env.set_loc(*loc, Bt::Dynamic);
            true
        }
        Inst::Verify { dst, .. } => {
            // The lift: a verified dynamic value becomes run-time static —
            // the recorded path is only replayed when the value matches.
            env.vars[dst.index()] = Bt::RtStatic;
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
            e.vars[p.index()] = Bt::RtStatic;
        }
        for g in e.globals.iter_mut() {
            *g = Bt::Dynamic;
        }
    }

    let mut exit: Vec<Env> = vec![Env::bottom(nv, ng); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for &bid in &order {
            let bi = bid.index();
            let mut env = entry[bi].clone();
            for inst in &f.blocks[bi].insts {
                transfer(inst, &mut env);
            }
            if exit[bi] != env {
                exit[bi] = env.clone();
            }
            for s in f.blocks[bi].term.successors() {
                if entry[s.index()].join_with(&env) {
                    changed = true;
                }
            }
        }
    }

    // Final labeling pass.
    let mut inst_dynamic: Vec<Vec<bool>> = vec![Vec::new(); nb];
    let mut term_dynamic: Vec<bool> = vec![false; nb];
    for &bid in &order {
        let bi = bid.index();
        let mut env = entry[bi].clone();
        let mut labels = Vec::with_capacity(f.blocks[bi].insts.len());
        for inst in &f.blocks[bi].insts {
            labels.push(transfer(inst, &mut env));
        }
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

/// Inserts all required lifts and returns the final (consistent) analysis.
///
/// After this pass, every value a dynamic instruction reads is available
/// to the fast engine: either it is rt-static at that point (a recorded
/// placeholder) or a dynamic definition/lift reaches it on every path.
pub fn insert_lifts(ir: &mut IrProgram, config: LiftConfig) -> (Bta, LiftStats) {
    let mut stats = LiftStats::default();
    // Iterate: inserting lifts changes the CFG; re-analyze until stable.
    // Each iteration only adds lifts, and lift targets are never
    // re-liftable, so this terminates quickly (2–3 rounds in practice).
    for _round in 0..32 {
        let bta = analyze(ir);
        let mut work = find_midblock_agg_lifts(ir, &bta);
        let edge_work = find_edge_lifts(ir, &bta, config);
        let flush_work = find_flushes(ir, &bta, config, &mut stats);
        if work.is_empty() && edge_work.is_empty() && flush_work.is_empty() {
            return (bta, stats);
        }
        // Apply mid-block agg lifts (in reverse order to keep indices valid).
        work.sort_by_key(|w| std::cmp::Reverse((w.0, w.1)));
        for (block, idx, loc) in work {
            let b = &mut ir.main.blocks[block];
            // The lift inherits the span of the access it guards.
            let span = b.span_at(idx);
            b.insts.insert(idx, Inst::LiftAgg { loc });
            b.spans.insert(idx.min(b.spans.len()), span);
            stats.agg_lifts += 1;
        }
        for (from, to, lifts) in edge_work {
            let n = lifts.len();
            split_edge_with(ir, from, to, lifts);
            stats.edge_lifts += n;
        }
        // Insert flushes back-to-front so indices stay valid.
        let mut flush_work = flush_work;
        flush_work.sort_by_key(|w| std::cmp::Reverse((w.0.index(), w.1)));
        for (block, idx, lifts) in flush_work {
            let b = &mut ir.main.blocks[block.index()];
            stats.flushes += lifts.len();
            // End-of-step flushes inherit the span of the `next(...)`
            // (or terminator) they precede.
            let span = b.span_at(idx);
            for (k, l) in lifts.into_iter().enumerate() {
                b.insts.insert(idx + k, l);
                b.spans.insert((idx + k).min(b.spans.len()), span);
            }
        }
    }
    // Convergence failure would be a compiler bug; surface loudly.
    panic!("lift insertion did not converge");
}

/// `(block index, inst index, loc)` for every dynamic partial write into a
/// currently-known aggregate.
fn find_midblock_agg_lifts(ir: &IrProgram, bta: &Bta) -> Vec<(usize, usize, Loc)> {
    let mut out = Vec::new();
    for &bid in &bta.order {
        let bi = bid.index();
        let mut env = bta.entry[bi].clone();
        for (ii, inst) in ir.main.blocks[bi].insts.iter().enumerate() {
            // Any dynamic instruction that touches aggregate *storage* —
            // partial writes, but also reads with a dynamic index — needs
            // the aggregate materialized first, because the fast engine
            // does not maintain run-time-static aggregates.
            let loc = match inst {
                Inst::ElemSet { agg, .. } | Inst::ElemGet { agg, .. } => Some(*agg),
                Inst::Queue { op, q, .. } if *op != QueueOp::Clear => Some(*q),
                _ => None,
            };
            let before = loc.map(|l| env.loc(l));
            let dynamic = transfer(inst, &mut env);
            if let (Some(l), Some(b)) = (loc, before) {
                if dynamic && b.is_known() {
                    out.push((bi, ii, l));
                }
            }
        }
    }
    out
}

/// One planned edge split: `(from, to, lift instructions)`.
type EdgeWork = (BlockId, BlockId, Vec<Inst>);

fn find_edge_lifts(ir: &IrProgram, bta: &Bta, config: LiftConfig) -> Vec<EdgeWork> {
    let liveness = if config.prune_dead_var_lifts {
        Some(var_liveness(&ir.main))
    } else {
        None
    };
    let mut out: Vec<EdgeWork> = Vec::new();
    for &bid in &bta.order {
        let bi = bid.index();
        let from_env = &bta.exit[bi];
        for succ in ir.main.blocks[bi].term.successors() {
            let to_env = &bta.entry[succ.index()];
            let mut lifts = Vec::new();
            for (vi, (&a, &b)) in from_env.vars.iter().zip(&to_env.vars).enumerate() {
                if a.is_known() && b == Bt::Dynamic {
                    let v = VarId(vi as u32);
                    if let Some(lv) = &liveness {
                        if !lv.live_in[succ.index()].contains(&v) {
                            continue;
                        }
                    }
                    match ir.main.var(v).kind {
                        VarKind::Scalar => lifts.push(Inst::LiftVar { v }),
                        _ => lifts.push(Inst::LiftAgg { loc: Loc::Var(v) }),
                    }
                }
            }
            for (gi, (&a, &b)) in from_env.globals.iter().zip(&to_env.globals).enumerate() {
                if a.is_known() && b == Bt::Dynamic {
                    let g = GlobalId(gi as u32);
                    match ir.globals[gi].kind() {
                        VarKind::Scalar => lifts.push(Inst::LiftGlobal { g }),
                        _ => lifts.push(Inst::LiftAgg {
                            loc: Loc::Global(g),
                        }),
                    }
                }
            }
            if !lifts.is_empty() {
                out.push((bid, succ, lifts));
            }
        }
    }
    out
}

/// End-of-step flushes inserted immediately before every `next(...)`:
/// the INDEX action must stay the last action of a step, so flushes
/// cannot go after it. A `Return` without `next` ends the whole
/// simulation, where flushes are moot.
fn find_flushes(
    ir: &IrProgram,
    bta: &Bta,
    config: LiftConfig,
    stats: &mut LiftStats,
) -> Vec<(BlockId, usize, Vec<Inst>)> {
    let live = if config.prune_dead_flushes {
        Some(entry_live_globals(&ir.main))
    } else {
        None
    };
    let mut out = Vec::new();
    for &bid in &bta.order {
        let bi = bid.index();
        let mut env = bta.entry[bi].clone();
        for (ii, inst) in ir.main.blocks[bi].insts.iter().enumerate() {
            if matches!(inst, Inst::SetNext { .. }) {
                // Flush globals known at this point, unless a flush for
                // this `next` was already inserted (idempotence): look
                // backwards past existing lift instructions.
                let mut already: HashSet<GlobalId> = HashSet::new();
                for prev in ir.main.blocks[bi].insts[..ii].iter().rev() {
                    match prev {
                        Inst::LiftGlobal { g } => {
                            already.insert(*g);
                        }
                        Inst::LiftAgg {
                            loc: Loc::Global(g),
                        } => {
                            already.insert(*g);
                        }
                        _ => break,
                    }
                }
                let mut lifts = Vec::new();
                for (gi, &bt) in env.globals.iter().enumerate() {
                    if !bt.is_known() {
                        continue;
                    }
                    let g = GlobalId(gi as u32);
                    if already.contains(&g) {
                        continue;
                    }
                    if let Some(live) = &live {
                        if !live.contains(&g) {
                            stats.flushes_pruned += 1;
                            continue;
                        }
                    }
                    match ir.globals[gi].kind() {
                        VarKind::Scalar => lifts.push(Inst::LiftGlobal { g }),
                        _ => lifts.push(Inst::LiftAgg {
                            loc: Loc::Global(g),
                        }),
                    }
                }
                if !lifts.is_empty() {
                    out.push((bid, ii, lifts));
                }
            }
            transfer(inst, &mut env);
        }
    }
    out
}

/// Splits the edge `from → to`, placing `insts` in the new block. All
/// occurrences of `to` in `from`'s terminator are redirected.
fn split_edge_with(ir: &mut IrProgram, from: BlockId, to: BlockId, insts: Vec<Inst>) {
    let new_id = BlockId(ir.main.blocks.len() as u32);
    // Edge lifts inherit the span of the branch that created the edge.
    let span = ir.main.blocks[from.index()].term_span;
    let mut nb = Block::with_insts(insts, Terminator::Jump(to));
    nb.spans.fill(span);
    nb.term_span = span;
    ir.main.blocks.push(nb);
    let term = &mut ir.main.blocks[from.index()].term;
    match term {
        Terminator::Jump(t) => {
            if *t == to {
                *t = new_id;
            }
        }
        Terminator::Branch {
            then_bb, else_bb, ..
        } => {
            if *then_bb == to {
                *then_bb = new_id;
            }
            if *else_bb == to {
                *else_bb = new_id;
            }
        }
        Terminator::Switch { cases, default, .. } => {
            for (_, t) in cases.iter_mut() {
                if *t == to {
                    *t = new_id;
                }
            }
            if *default == to {
                *default = new_id;
            }
        }
        Terminator::Return => {}
    }
}

/// Per-block liveness result for scalar variables.
#[derive(Clone, Debug, Default)]
pub struct VarLiveness {
    /// Variables live at entry of each block (indexed by block).
    pub live_in: Vec<HashSet<VarId>>,
    /// Variables live at exit of each block.
    pub live_out: Vec<HashSet<VarId>>,
}

/// Computes scalar-variable liveness with a standard backward fixed point.
pub fn var_liveness(f: &IrFunction) -> VarLiveness {
    let n = f.blocks.len();
    // use/def per block.
    let mut use_: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    let mut def: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    for (bi, b) in f.blocks.iter().enumerate() {
        for i in &b.insts {
            for op in i.operands() {
                if let Operand::Var(v) = op {
                    if !def[bi].contains(&v) {
                        use_[bi].insert(v);
                    }
                }
            }
            // Aggregate variables are conservatively live on every touch:
            // element writes are partial, so nothing kills them.
            let mut touch = |l: &Loc| {
                if let Loc::Var(v) = l {
                    if !def[bi].contains(v) {
                        use_[bi].insert(*v);
                    }
                }
            };
            match i {
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
            if let Some(d) = i.dst() {
                def[bi].insert(d);
            }
        }
        match &b.term {
            Terminator::Branch {
                cond: Operand::Var(v),
                ..
            }
            | Terminator::Switch {
                val: Operand::Var(v),
                ..
            } if !def[bi].contains(v) => {
                use_[bi].insert(*v);
            }
            _ => {}
        }
    }

    let mut live_in: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    let order: Vec<BlockId> = f.reverse_postorder();
    let mut changed = true;
    while changed {
        changed = false;
        for &bid in order.iter().rev() {
            let bi = bid.index();
            let mut out = HashSet::new();
            for s in f.blocks[bi].term.successors() {
                out.extend(live_in[s.index()].iter().copied());
            }
            let mut inn: HashSet<VarId> = use_[bi].clone();
            inn.extend(out.difference(&def[bi]).copied());
            if inn != live_in[bi] || out != live_out[bi] {
                live_in[bi] = inn;
                live_out[bi] = out;
                changed = true;
            }
        }
    }
    VarLiveness { live_in, live_out }
}

/// Access summary of one block with respect to scalar globals.
#[derive(Clone, Debug, Default)]
struct GlobalBlockFacts {
    /// Globals read before any write in this block.
    gen: HashSet<GlobalId>,
    /// Globals definitely (re)written in this block.
    kill: HashSet<GlobalId>,
}

/// Computes the set of globals that may be read before written when
/// execution (re)starts at the entry block — i.e. the globals whose values
/// must survive into the next step.
///
/// Aggregate globals (arrays, queues) are handled conservatively: any
/// element read counts as a read of the whole global, and partial writes
/// never kill.
pub fn entry_live_globals(f: &IrFunction) -> HashSet<GlobalId> {
    let n = f.blocks.len();
    let mut facts: Vec<GlobalBlockFacts> = Vec::with_capacity(n);
    for b in &f.blocks {
        let mut fb = GlobalBlockFacts::default();
        for i in &b.insts {
            match i {
                Inst::LoadGlobal { g, .. } if !fb.kill.contains(g) => {
                    fb.gen.insert(*g);
                }
                Inst::StoreGlobal { g, .. } => {
                    fb.kill.insert(*g);
                }
                // Aggregate reads (including partial writes: an ElemSet of
                // one element leaves the others readable).
                Inst::ElemGet {
                    agg: Loc::Global(g),
                    ..
                }
                | Inst::ElemSet {
                    agg: Loc::Global(g),
                    ..
                } if !fb.kill.contains(g) => {
                    fb.gen.insert(*g);
                }
                Inst::Queue {
                    q: Loc::Global(g),
                    op,
                    ..
                } => {
                    if *op == QueueOp::Clear {
                        fb.kill.insert(*g);
                    } else if !fb.kill.contains(g) {
                        fb.gen.insert(*g);
                    }
                }
                Inst::ArrFill {
                    arr: Loc::Global(g),
                    ..
                } => {
                    fb.kill.insert(*g);
                }
                Inst::AggCopy { dst, src } => {
                    if let Loc::Global(g) = src {
                        if !fb.kill.contains(g) {
                            fb.gen.insert(*g);
                        }
                    }
                    if let Loc::Global(g) = dst {
                        fb.kill.insert(*g);
                    }
                }
                Inst::SetNext { args } => {
                    for a in args {
                        if let KeyArg::Queue(Loc::Global(g)) = a {
                            if !fb.kill.contains(g) {
                                fb.gen.insert(*g);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        facts.push(fb);
    }

    // Backward fixed point: live-in(B) = gen(B) ∪ (live-out(B) \ kill(B)).
    let order: Vec<BlockId> = f.reverse_postorder();
    let mut live_in: Vec<HashSet<GlobalId>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for &bid in order.iter().rev() {
            let bi = bid.index();
            let mut out: HashSet<GlobalId> = HashSet::new();
            for s in f.blocks[bi].term.successors() {
                out.extend(live_in[s.index()].iter().copied());
            }
            let mut inn: HashSet<GlobalId> = facts[bi].gen.clone();
            inn.extend(out.difference(&facts[bi].kill).copied());
            if inn != live_in[bi] {
                live_in[bi] = inn;
                changed = true;
            }
        }
    }
    live_in[f.entry.index()].clone()
}
