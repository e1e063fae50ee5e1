//! Lift insertion: materializing run-time-static values at the points
//! where they become dynamic.
//!
//! Binding-time analysis labels a value rt-static when the slow engine can
//! record it and the fast engine can skip its computation. The fast engine
//! then never holds that value in its registers or storage — so whenever a
//! value *transitions* from rt-static to dynamic, its concrete contents
//! must be written out through a memoized placeholder ("extra statements
//! ... to make their run-time static values dynamic", paper §6.3). Three
//! transition shapes exist:
//!
//! 1. **Merge edges** — a variable rt-static along one CFG edge joins
//!    dynamic at the target block. A [`Inst::LiftVar`]/[`Inst::LiftGlobal`]/
//!    [`Inst::LiftAgg`] goes on a split edge block.
//! 2. **Partial aggregate writes** — a dynamic `ElemSet`/queue push into a
//!    previously rt-static aggregate. A [`Inst::LiftAgg`] goes right before
//!    the write.
//! 3. **End-of-step flushes** — globals that are rt-static when `main`
//!    returns start the next step dynamic (initial division), so their
//!    values must be flushed. With [`LiftConfig::prune_dead_flushes`]
//!    (the paper's proposed optimization 3), globals the next step cannot
//!    read before writing are skipped.

use crate::bta::{analyze, transfer, Bta, Env};
use facile_ir::ir::*;
use facile_ir::liveness::{entry_live_globals, var_liveness};
use facile_sema::GlobalId;
use std::collections::HashSet;

/// Configuration of the lift pass.
#[derive(Clone, Copy, Debug)]
pub struct LiftConfig {
    /// Skip end-of-step flushes of globals the next step overwrites before
    /// reading (paper §6.3 optimization 3). Off reproduces the paper's
    /// baseline compiler.
    pub prune_dead_flushes: bool,
    /// Skip merge-edge lifts of variables that are dead at the merge
    /// target.
    pub prune_dead_var_lifts: bool,
}

impl Default for LiftConfig {
    fn default() -> Self {
        LiftConfig {
            prune_dead_flushes: true,
            prune_dead_var_lifts: true,
        }
    }
}

/// Statistics of the lift pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiftStats {
    /// Lifts inserted on split merge edges.
    pub edge_lifts: usize,
    /// Aggregate materializations before dynamic partial writes.
    pub agg_lifts: usize,
    /// End-of-step global flushes inserted.
    pub flushes: usize,
    /// Flushes skipped thanks to global liveness.
    pub flushes_pruned: usize,
}

/// Lift insertion still found transitions after its round limit — a
/// compiler bug, reported as an error because the source that triggers
/// it may come from anyone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiftError {
    /// The rounds run before giving up.
    pub rounds: usize,
}

impl std::fmt::Display for LiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lift insertion did not converge within {} rounds",
            self.rounds
        )
    }
}

impl std::error::Error for LiftError {}

/// Rounds of analysis and insertion before [`insert_lifts`] gives up.
const MAX_ROUNDS: usize = 32;

/// Inserts all required lifts and returns the final (consistent) analysis.
///
/// After this pass, every value a dynamic instruction reads is available
/// to the fast engine: either it is rt-static at that point (a recorded
/// placeholder) or a dynamic definition/lift reaches it on every path.
///
/// # Errors
///
/// Returns a [`LiftError`] if the insertion does not reach a fixed point.
pub fn insert_lifts(ir: &mut IrProgram, config: LiftConfig) -> Result<(Bta, LiftStats), LiftError> {
    insert_lifts_within(ir, config, MAX_ROUNDS)
}

/// [`insert_lifts`] with an explicit round limit; tests shrink it to
/// reach the non-convergence error.
fn insert_lifts_within(
    ir: &mut IrProgram,
    config: LiftConfig,
    max_rounds: usize,
) -> Result<(Bta, LiftStats), LiftError> {
    let mut stats = LiftStats::default();
    // Iterate: inserting lifts changes the CFG; re-analyze until stable.
    // Each iteration only adds lifts, and lift targets are never
    // re-liftable, so this terminates quickly (2–3 rounds in practice).
    for _round in 0..max_rounds {
        let bta = analyze(ir);
        let mut work = find_midblock_agg_lifts(ir, &bta);
        let edge_work = find_edge_lifts(ir, &bta, config);
        let flush_work = find_flushes(ir, &bta, config, &mut stats);
        if work.is_empty() && edge_work.is_empty() && flush_work.is_empty() {
            return Ok((bta, stats));
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
    Err(LiftError { rounds: max_rounds })
}

/// The instruction that materializes `loc`, by storage shape.
fn lift_of(ir: &IrProgram, loc: Loc) -> Inst {
    let kind = match loc {
        Loc::Var(v) => ir.main.var(v).kind,
        Loc::Global(g) => ir.globals[g.index()].kind(),
    };
    match (kind, loc) {
        (VarKind::Scalar, Loc::Var(v)) => Inst::LiftVar { v },
        (VarKind::Scalar, Loc::Global(g)) => Inst::LiftGlobal { g },
        _ => Inst::LiftAgg { loc },
    }
}

/// `(block index, inst index, loc)` for every dynamic partial write into a
/// currently-known aggregate.
fn find_midblock_agg_lifts(ir: &IrProgram, bta: &Bta) -> Vec<(usize, usize, Loc)> {
    let mut out = Vec::new();
    let mut env = Env::bottom(0, 0);
    for &bid in &bta.order {
        let bi = bid.index();
        env.clone_from(&bta.entry[bi]);
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
        let from_env = &bta.exit[bid.index()];
        for succ in ir.main.blocks[bid.index()].term.successors() {
            let lifts: Vec<Inst> = from_env
                .newly_dynamic(&bta.entry[succ.index()])
                .filter(|&loc| match (loc, &liveness) {
                    (Loc::Var(v), Some(lv)) => lv.live_in[succ.index()].contains(v.index()),
                    _ => true,
                })
                .map(|loc| lift_of(ir, loc))
                .collect();
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
    let ng = ir.globals.len();
    let live = if config.prune_dead_flushes {
        Some(entry_live_globals(&ir.main, ng))
    } else {
        None
    };
    let mut out = Vec::new();
    let mut env = Env::bottom(0, 0);
    for &bid in &bta.order {
        let bi = bid.index();
        let insts = &ir.main.blocks[bi].insts;
        if !insts.iter().any(|i| matches!(i, Inst::SetNext { .. })) {
            continue;
        }
        env.clone_from(&bta.entry[bi]);
        for (ii, inst) in insts.iter().enumerate() {
            if matches!(inst, Inst::SetNext { .. }) {
                // Flush globals known at this point, unless a flush for
                // this `next` was already inserted (idempotence): look
                // backwards past existing lift instructions.
                let mut already: Vec<GlobalId> = Vec::new();
                for prev in insts[..ii].iter().rev() {
                    match prev {
                        Inst::LiftGlobal { g }
                        | Inst::LiftAgg {
                            loc: Loc::Global(g),
                        } => already.push(*g),
                        _ => break,
                    }
                }
                let mut lifts = Vec::new();
                for g in (0..ng).map(|gi| GlobalId(gi as u32)) {
                    if !env.global(g).is_known() || already.contains(&g) {
                        continue;
                    }
                    if let Some(live) = &live {
                        if !live.contains(g.index()) {
                            stats.flushes_pruned += 1;
                            continue;
                        }
                    }
                    lifts.push(lift_of(ir, Loc::Global(g)));
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

/// Validates that after lifting, no dynamic instruction reads a variable
/// that is dynamic in the environment but was never dynamically defined on
/// some path — the property the lift pass establishes. Used by tests.
pub fn check_no_transitions(ir: &IrProgram, bta: &Bta) -> Result<(), String> {
    // Mid-block.
    if let Some((b, i, l)) = find_midblock_agg_lifts(ir, bta).first() {
        return Err(format!("unlifted aggregate write at bb{b}[{i}] of {l}"));
    }
    // Edges.
    let live = var_liveness(&ir.main);
    for &bid in &bta.order {
        let from_env = &bta.exit[bid.index()];
        for succ in ir.main.blocks[bid.index()].term.successors() {
            for loc in from_env.newly_dynamic(&bta.entry[succ.index()]) {
                if let Loc::Var(v) = loc {
                    if live.live_in[succ.index()].contains(v.index()) {
                        return Err(format!(
                            "unlifted live variable {v} on edge {bid} -> {succ}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Which globals must be flushed at the end of a step under `config` —
/// exposed for the ablation benchmarks.
pub fn flush_set(ir: &IrProgram, config: LiftConfig) -> HashSet<GlobalId> {
    let bta = analyze(ir);
    let mut stats = LiftStats::default();
    find_flushes(ir, &bta, config, &mut stats)
        .into_iter()
        .flat_map(|(_, _, insts)| insts)
        .filter_map(|i| match i {
            Inst::LiftGlobal { g } => Some(g),
            Inst::LiftAgg {
                loc: Loc::Global(g),
            } => Some(g),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::build;
    use facile_ir::verify::verify;

    fn lifted(src: &str, config: LiftConfig) -> (IrProgram, Bta, LiftStats) {
        let mut ir = build(src);
        let (bta, stats) = insert_lifts(&mut ir, config).expect("lift insertion converges");
        verify(&ir).unwrap_or_else(|e| panic!("{}", e.join("\n")));
        check_no_transitions(&ir, &bta).unwrap();
        (ir, bta, stats)
    }

    fn count(ir: &IrProgram, pred: impl Fn(&Inst) -> bool) -> usize {
        ir.main
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn merge_lift_on_mixed_paths() {
        // v rt-static on the then-path, dynamic on the else-path; the
        // then-edge needs a LiftVar so trace(v) reads a defined register.
        let (ir, _, stats) = lifted(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               val v = 0;\n\
               if (x) { v = 1; } else { v = R[0]; }\n\
               trace(v);\n\
               next(x);\n\
             }",
            LiftConfig::default(),
        );
        assert!(stats.edge_lifts >= 1, "{stats:?}");
        assert!(count(&ir, |i| matches!(i, Inst::LiftVar { .. })) >= 1);
    }

    #[test]
    fn no_lift_when_both_paths_dynamic() {
        let (_, _, stats) = lifted(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               val v = R[1];\n\
               if (x) { v = R[0]; }\n\
               trace(v);\n\
               next(x);\n\
             }",
            LiftConfig::default(),
        );
        assert_eq!(stats.edge_lifts, 0, "{stats:?}");
    }

    #[test]
    fn dead_variable_not_lifted() {
        // v transitions but is never read after the merge.
        let (_, _, stats) = lifted(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               val v = 0;\n\
               if (x) { v = 1; } else { v = R[0]; }\n\
               next(x);\n\
             }",
            LiftConfig::default(),
        );
        assert_eq!(stats.edge_lifts, 0, "{stats:?}");
    }

    #[test]
    fn aggregate_materialized_before_dynamic_write() {
        // A local array starts rt-static (fill) and receives a dynamic
        // element: the whole array must be materialized first.
        let (ir, _, stats) = lifted(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               val a : array(8);\n\
               a[0] = R[0];\n\
               trace(a[1]);\n\
               next(x);\n\
             }",
            LiftConfig::default(),
        );
        assert!(stats.agg_lifts >= 1, "{stats:?}");
        // The LiftAgg precedes the ElemSet in the same block.
        let found = ir.main.blocks.iter().any(|b| {
            b.insts.windows(2).any(|w| {
                matches!(w[0], Inst::LiftAgg { .. }) && matches!(w[1], Inst::ElemSet { .. })
            })
        });
        assert!(found, "{}", ir.main);
    }

    #[test]
    fn rt_static_global_flushed_at_exit() {
        // g holds a key-derived value that the next step reads.
        let (ir, _, stats) = lifted(
            "val g = 0;\n\
             fun main(x : int) {\n\
               val y = g + x;\n\
               trace(y);\n\
               g = x * 2;\n\
               next(x + 1);\n\
             }",
            LiftConfig::default(),
        );
        assert_eq!(stats.flushes, 1, "{stats:?}");
        assert_eq!(count(&ir, |i| matches!(i, Inst::LiftGlobal { .. })), 1);
    }

    #[test]
    fn dead_global_flush_pruned() {
        // g is written before being read at the next step entry: flush
        // is unnecessary (paper optimization 3).
        let (ir, _, stats) = lifted(
            "val g = 0;\n\
             fun main(x : int) {\n\
               g = x * 2;\n\
               val y = g + 1;\n\
               trace(y);\n\
               next(x + 1);\n\
             }",
            LiftConfig::default(),
        );
        assert_eq!(stats.flushes, 0, "{stats:?}");
        assert!(stats.flushes_pruned >= 1);
        assert_eq!(count(&ir, |i| matches!(i, Inst::LiftGlobal { .. })), 0);
    }

    #[test]
    fn unpruned_config_keeps_dead_flushes() {
        let config = LiftConfig {
            prune_dead_flushes: false,
            prune_dead_var_lifts: false,
        };
        let (ir, _, stats) = lifted(
            "val g = 0;\n\
             fun main(x : int) {\n\
               g = x * 2;\n\
               val y = g + 1;\n\
               trace(y);\n\
               next(x + 1);\n\
             }",
            config,
        );
        assert_eq!(stats.flushes, 1, "{stats:?}");
        assert_eq!(count(&ir, |i| matches!(i, Inst::LiftGlobal { .. })), 1);
    }

    #[test]
    fn flush_set_respects_config() {
        let ir = build(
            "val live = 0;\nval dead = 0;\n\
             fun main(x : int) {\n\
               val y = live + x;\n\
               trace(y);\n\
               live = x; dead = x;\n\
               next(x);\n\
             }",
        );
        let pruned = flush_set(&ir.clone(), LiftConfig::default());
        let full = flush_set(
            &ir,
            LiftConfig {
                prune_dead_flushes: false,
                prune_dead_var_lifts: false,
            },
        );
        assert!(pruned.len() < full.len());
        assert_eq!(full.len(), 2);
        assert_eq!(pruned.len(), 1);
    }

    #[test]
    fn dynamic_global_not_flushed() {
        let (_, _, stats) = lifted(
            "val R = array(4){0};\nval g = 0;\n\
             fun main(x : int) {\n\
               g = R[0];\n\
               trace(g);\n\
               next(x);\n\
             }",
            LiftConfig::default(),
        );
        // g is dynamic at exit: the fast engine executed its store.
        assert_eq!(stats.flushes, 0, "{stats:?}");
    }

    #[test]
    fn lift_pass_is_idempotent() {
        let src = "val R = array(4){0};\nval g = 0;\n\
             fun main(x : int) {\n\
               val v = 0;\n\
               if (x) { v = 1; } else { v = R[0]; }\n\
               val w = g + v;\n\
               trace(w);\n\
               g = x;\n\
               next(x);\n\
             }";
        let (mut ir, _, stats1) = lifted(src, LiftConfig::default());
        let (_, stats2) = insert_lifts(&mut ir, LiftConfig::default()).unwrap();
        assert!(stats1.edge_lifts + stats1.flushes > 0);
        assert_eq!(stats2, LiftStats::default(), "second run must be a no-op");
    }

    #[test]
    fn queue_key_with_verified_latency_needs_no_lifts() {
        // The idiomatic fast-forwarding shape: everything flowing into the
        // key is rt-static (via ?verify), so no lifts are needed at all.
        let (_, bta, stats) = lifted(
            "ext fun cache(a : int) : int;\n\
             fun main(iq : queue, pc : stream) {\n\
               val lat = cache(pc?addr)?verify;\n\
               iq?push_back(lat);\n\
               if (iq?len > 8) { iq?pop_front(); }\n\
               count_cycles(lat);\n\
               next(iq, pc + 4);\n\
             }",
            LiftConfig::default(),
        );
        assert_eq!(stats.edge_lifts, 0);
        assert_eq!(stats.agg_lifts, 0);
        assert!(bta.rt_static_fraction() > 0.5);
    }

    #[test]
    fn non_convergence_is_an_error_not_a_panic() {
        // The merge needs an edge lift, so one round inserts it and has
        // no round left to confirm the fixed point.
        let mut ir = build(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               val v = 0;\n\
               if (x) { v = 1; } else { v = R[0]; }\n\
               trace(v);\n\
               next(x);\n\
             }",
        );
        let err = insert_lifts_within(&mut ir, LiftConfig::default(), 1).unwrap_err();
        assert_eq!(err, LiftError { rounds: 1 });
        assert_eq!(
            err.to_string(),
            "lift insertion did not converge within 1 rounds"
        );
    }
}
