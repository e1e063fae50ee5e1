//! Action extraction (paper §4.2–§4.3).
//!
//! After binding-time analysis and lift insertion, the dynamic
//! instructions of the step function are grouped into **actions** — the
//! units stored in the specialized action cache and replayed by the fast
//! engine. A group runs from the first dynamic instruction to the nearest
//! *closer*:
//!
//! * a `Verify` (dynamic result test on an explicit value),
//! * a `SetNext` (the INDEX action ending a step),
//! * a dynamic block terminator (dynamic result test on a branch), or
//! * the end of the block (a plain action).
//!
//! Run-time-static instructions *between* dynamic ones do not split a
//! group — on replay they simply don't exist, their results having been
//! recorded as placeholder data.
//!
//! For each action this module produces [`ActionCode`]: the resume point
//! used by miss recovery and the known-value sets committed after a
//! recovery. For the slow engine it produces per-instruction
//! [`InstAnnot`] instrumentation: where actions start, which operand
//! values to memoize, and what closes the action — the compiler-added
//! `memoize_*` calls of the paper's Figure 10. [`crate::program::lower`]
//! turns these into record ops, and from the same ops gives each action
//! its kind and the ops the fast engine replays.

use crate::program::{Program, Rk};
use facile_bta::{terminator_dynamic, transfer, Bt, Bta, Env};
use facile_ir::bitset::BitSet;
use facile_ir::ir::*;
use facile_ir::liveness::{for_each_touched_agg, terminator_use, var_liveness, VarLiveness};
use facile_lang::span::Span;
use facile_runtime::key::hash_bytes;
use facile_sema::{GlobalId, Type};
use std::ops::Range;
use std::sync::OnceLock;

/// What kind of cache node an action produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActionKind {
    /// Straight-line: follow the single successor.
    Plain,
    /// Dynamic result test: read `src` after the replay ops and follow
    /// the successor recorded for that value.
    Test {
        /// The tested value.
        src: Rk,
    },
    /// INDEX action: build the next key from
    /// [`Program::nexts`]`[site]` and follow the entry link.
    Index {
        /// The `next(...)` site.
        site: u32,
    },
}

/// Where normal slow execution resumes after a recovery that ends at this
/// action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resume {
    /// Continue interpreting `block` at instruction `inst` (`inst` may be
    /// one past the last instruction, meaning: evaluate the terminator).
    AtInst {
        /// The block.
        block: BlockId,
        /// Instruction index to resume at.
        inst: u32,
    },
    /// The action was the block's dynamic terminator: branch from `block`
    /// using the recorded test value.
    AtTerm {
        /// The block.
        block: BlockId,
    },
}

/// One action. Its `kind` and `replay` range are set by lowering
/// ([`crate::program::lower`]), at the op that closes the action.
#[derive(Clone, Debug)]
pub struct ActionCode {
    /// The ops the fast engine replays: [`Program::replay`]`[replay]`.
    pub replay: Range<u32>,
    /// Plain, test or index.
    pub kind: ActionKind,
    /// Recovery resume point.
    pub resume: Resume,
    /// Scalar variables known (run-time static) and live right after this
    /// action — the values a recovery commits from its shadow state.
    pub known_vars_after: Box<[VarId]>,
    /// Aggregate variables known right after this action.
    pub known_aggs_after: Box<[VarId]>,
    /// Globals known right after this action (scalars and aggregates).
    pub known_globals_after: Box<[GlobalId]>,
}

/// Source-level construct kind of an action's guard site — what closed
/// the group, phrased in the terms a profile report uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DebugKind {
    /// Straight-line group closed at a block end or `halt`.
    Plain,
    /// `?verify` dynamic result test on an explicit value.
    Verify,
    /// Dynamic two-way branch (an `if` on a dynamic condition).
    Branch,
    /// Dynamic multi-way switch.
    Switch,
    /// The step's INDEX action (`next(...)`).
    Index,
}

impl DebugKind {
    /// Stable lower-case name used in profile documents.
    pub fn name(self) -> &'static str {
        match self {
            DebugKind::Plain => "plain",
            DebugKind::Verify => "verify",
            DebugKind::Branch => "branch",
            DebugKind::Switch => "switch",
            DebugKind::Index => "index",
        }
    }
}

/// Per-action debug info: the source-attribution record shipped alongside
/// [`ActionCode`] (parallel vector, same indices). Everything a profiler
/// needs to map an action number back to the Facile source: the covered
/// span, the guarding construct, and the binding-time signature of the
/// replayed operands.
#[derive(Clone, Debug)]
pub struct ActionDebug {
    /// Union of the source spans of the group's dynamic instructions.
    pub span: Span,
    /// Span of the construct that closed the group (the dynamic result
    /// test, branch, or `next(...)`); equals `span` for plain groups.
    pub guard_span: Span,
    /// What closed the group.
    pub kind: DebugKind,
    /// Operands replayed from memoized placeholders (rt-static class).
    pub ph_operands: u32,
    /// Operands read from live registers on replay (dynamic class).
    pub reg_operands: u32,
    /// Block the action starts in.
    pub block: BlockId,
    /// Instruction index of the first dynamic instruction, or `u32::MAX`
    /// when the action consists only of a dynamic terminator.
    pub inst: u32,
}

/// Folds `s` into `acc`, ignoring unknown ([`Span::DUMMY`]) spans.
fn merge_span(acc: &mut Span, s: Span) {
    if s == Span::DUMMY {
        return;
    }
    *acc = if *acc == Span::DUMMY { s } else { acc.to(s) };
}

/// What, if anything, an instruction's value must be recorded as.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiftWhat {
    /// Record the current value of a variable.
    Var(VarId),
    /// Record the current value of a scalar global.
    Global(GlobalId),
    /// Record length + contents of an aggregate.
    Agg(Loc),
}

/// What closes the action at this instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Closes {
    /// A `Verify`: record/check the tested value.
    Verify,
    /// A `SetNext`: the INDEX action.
    Index,
}

/// Slow-engine instrumentation for one instruction (the `memoize_*`
/// calls of the paper's Figure 10).
#[derive(Clone, Debug)]
pub struct InstAnnot {
    /// Whether the instruction is dynamic.
    pub dynamic: bool,
    /// If this instruction begins an action, its number.
    pub action_start: Option<u32>,
    /// Operand positions (into `Inst::operands()`) whose concrete values
    /// are memoized as placeholders, in order. For a `SetNext`: the key
    /// components (positions into its `args`) that are run-time static.
    pub placeholders: Vec<u8>,
    /// Lift data to memoize (for `Lift*` instructions and INDEX
    /// components handled separately).
    pub lift: Option<LiftWhat>,
    /// Whether this instruction closes the current action.
    pub closes: Option<Closes>,
}

impl InstAnnot {
    fn rt() -> Self {
        InstAnnot {
            dynamic: false,
            action_start: None,
            placeholders: Vec::new(),
            lift: None,
            closes: None,
        }
    }
}

/// Slow-engine instrumentation for one block.
#[derive(Clone, Debug, Default)]
pub struct BlockAnnot {
    /// Per-instruction annotations.
    pub insts: Vec<InstAnnot>,
    /// The dynamic terminator's action number, if the terminator is a
    /// dynamic result test.
    pub term_action: Option<u32>,
}

/// A fully compiled step function: shared IR, action table, slow
/// instrumentation and the lowered program built from them.
#[derive(Clone, Debug)]
pub struct CompiledStep {
    /// The folded, lifted IR.
    pub ir: IrProgram,
    /// Binding-time analysis matching `ir`.
    pub bta: Bta,
    /// The action table.
    pub actions: Vec<ActionCode>,
    /// Per-action source-attribution records (parallel to `actions`).
    pub debug: Vec<ActionDebug>,
    /// Per-block slow-engine instrumentation (the input of the lowering).
    pub blocks: Vec<BlockAnnot>,
    /// `main`'s parameter types (the key layout).
    pub param_types: Vec<Type>,
    /// The lowered program every engine runs.
    pub program: Program,
    /// [`fingerprint`](Self::fingerprint), computed on first use.
    fingerprint: OnceLock<u64>,
}

impl CompiledStep {
    /// Number of extracted actions.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// Fraction of reachable instructions labeled run-time static.
    pub fn rt_static_fraction(&self) -> f64 {
        self.bta.rt_static_fraction()
    }

    /// Identity of the step function: a hash of the folded, lifted IR
    /// and `main`'s parameter types, which fix the action numbering,
    /// every action's placeholder shape and the key layout. It does not
    /// depend on the form the engines run. Hashed from the IR's debug
    /// rendering on first use (so a run that never asks pays nothing),
    /// then remembered.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let text = format!("{:?}|{:?}", self.ir, self.param_types);
            hash_bytes(text.as_bytes())
        })
    }
}

/// Extracts the action table and slow-engine instrumentation, then
/// lowers the step into its [`Program`].
pub fn extract_actions(ir: IrProgram, bta: Bta) -> CompiledStep {
    let param_types = ir.main.param_types.clone();
    let liveness = var_liveness(&ir.main);
    let mut actions: Vec<ActionCode> = Vec::new();
    let mut debug: Vec<ActionDebug> = Vec::new();
    let mut blocks: Vec<BlockAnnot> = ir
        .main
        .blocks
        .iter()
        .map(|b| BlockAnnot {
            insts: b.insts.iter().map(|_| InstAnnot::rt()).collect(),
            term_action: None,
        })
        .collect();

    let mut env = Env::bottom(0, 0);
    // Operand binding times before the current instruction (reused).
    let mut op_bts: Vec<Bt> = Vec::new();
    for &bid in &bta.order {
        let bi = bid.index();
        env.clone_from(&bta.entry[bi]);
        // The open group: (action id, first inst annot index).
        let mut open: Option<u32> = None;

        // Live variables after each instruction position, computed
        // backwards from the block's live-out.
        let live_after = live_after_positions(&ir.main, bi, &liveness);

        let n_insts = ir.main.blocks[bi].insts.len();
        #[allow(clippy::needless_range_loop)] // annotations and IR are indexed in lockstep
        for ii in 0..n_insts {
            let inst = &ir.main.blocks[bi].insts[ii];
            // Operand binding times *before* this instruction.
            op_bts.clear();
            op_bts.extend(inst.operands().map(|o| env.operand(o)));
            let dynamic = transfer(inst, &mut env);
            if !dynamic {
                continue; // annotation stays rt()
            }
            let action_id = match open {
                Some(id) => id,
                None => {
                    let id = actions.len() as u32;
                    actions.push(ActionCode {
                        replay: 0..0,
                        kind: ActionKind::Plain,
                        resume: Resume::AtInst {
                            block: bid,
                            inst: ii as u32,
                        },
                        known_vars_after: Box::new([]),
                        known_aggs_after: Box::new([]),
                        known_globals_after: Box::new([]),
                    });
                    debug.push(ActionDebug {
                        span: Span::DUMMY,
                        guard_span: Span::DUMMY,
                        kind: DebugKind::Plain,
                        ph_operands: 0,
                        reg_operands: 0,
                        block: bid,
                        inst: ii as u32,
                    });
                    open = Some(id);
                    blocks[bi].insts[ii].action_start = Some(id);
                    id
                }
            };
            let annot = &mut blocks[bi].insts[ii];
            annot.dynamic = true;

            // Which operand positions are run-time static => placeholders.
            let inst_span = ir.main.blocks[bi].span_at(ii);
            let dbg = &mut debug[action_id as usize];
            merge_span(&mut dbg.span, inst_span);
            for (k, (&bt, o)) in op_bts.iter().zip(inst.operands()).enumerate() {
                if let Operand::Var(_) = o {
                    if bt.is_known() {
                        annot.placeholders.push(k as u8);
                        dbg.ph_operands += 1;
                    } else {
                        dbg.reg_operands += 1;
                    }
                }
            }

            match inst {
                Inst::LiftVar { v } => annot.lift = Some(LiftWhat::Var(*v)),
                Inst::LiftGlobal { g } => annot.lift = Some(LiftWhat::Global(*g)),
                Inst::LiftAgg { loc } => annot.lift = Some(LiftWhat::Agg(*loc)),
                Inst::Verify { .. } => {
                    annot.closes = Some(Closes::Verify);
                    dbg.kind = DebugKind::Verify;
                }
                Inst::SetNext { args } => {
                    // A key component is recorded as placeholder data
                    // when it is a run-time-static variable or queue;
                    // the rest (constants included) form the INDEX
                    // node's dynamic signature.
                    annot.placeholders.clear();
                    let mut scalar_bts = op_bts.iter();
                    for (j, a) in args.iter().enumerate() {
                        let rt = match a {
                            KeyArg::Scalar(o) => {
                                let bt = scalar_bts.next().expect("one binding time per scalar");
                                matches!(o, Operand::Var(_)) && bt.is_known()
                            }
                            KeyArg::Queue(loc) => env.loc(*loc).is_known(),
                        };
                        if rt {
                            annot.placeholders.push(j as u8);
                        }
                    }
                    annot.closes = Some(Closes::Index);
                    dbg.kind = DebugKind::Index;
                }
                _ => {}
            }
            if annot.closes.is_some() {
                // The group closes here; slow execution resumes after it.
                dbg.guard_span = inst_span;
                let ac = &mut actions[action_id as usize];
                ac.resume = Resume::AtInst {
                    block: bid,
                    inst: (ii + 1) as u32,
                };
                finalize_known(ac, &env, &ir, &live_after[ii]);
                open = None;
            }
        }

        // The terminator.
        if terminator_dynamic(&ir.main.blocks[bi].term, &env) {
            let src = match &ir.main.blocks[bi].term {
                Terminator::Branch { cond, .. } => *cond,
                Terminator::Switch { val, .. } => *val,
                _ => unreachable!("only branches and switches can be dynamic"),
            };
            let action_id = match open {
                Some(id) => id,
                None => {
                    let id = actions.len() as u32;
                    actions.push(ActionCode {
                        replay: 0..0,
                        kind: ActionKind::Plain,
                        resume: Resume::AtTerm { block: bid },
                        known_vars_after: Box::new([]),
                        known_aggs_after: Box::new([]),
                        known_globals_after: Box::new([]),
                    });
                    debug.push(ActionDebug {
                        span: Span::DUMMY,
                        guard_span: Span::DUMMY,
                        kind: DebugKind::Plain,
                        ph_operands: 0,
                        reg_operands: 0,
                        block: bid,
                        inst: u32::MAX,
                    });
                    id
                }
            };
            {
                let term_span = ir.main.blocks[bi].term_span;
                let dbg = &mut debug[action_id as usize];
                merge_span(&mut dbg.span, term_span);
                dbg.guard_span = term_span;
                dbg.kind = match &ir.main.blocks[bi].term {
                    Terminator::Switch { .. } => DebugKind::Switch,
                    _ => DebugKind::Branch,
                };
                if let Operand::Var(_) = src {
                    dbg.reg_operands += 1;
                }
            }
            let ac = &mut actions[action_id as usize];
            ac.resume = Resume::AtTerm { block: bid };
            let live = live_after
                .last()
                .expect("one set per position, at least one");
            finalize_known(&mut actions[action_id as usize], &env, &ir, live);
            blocks[bi].term_action = Some(action_id);
        } else if let Some(id) = open {
            // Plain group closed at the end of the block.
            actions[id as usize].resume = Resume::AtInst {
                block: bid,
                inst: n_insts as u32,
            };
            let live = live_after
                .last()
                .expect("one set per position, at least one");
            finalize_known(&mut actions[id as usize], &env, &ir, live);
        }
    }

    // Every action gets a resolvable span: fall back to the guard span
    // (and vice versa), and for plain groups the guard *is* the group.
    for d in &mut debug {
        if d.span == Span::DUMMY {
            d.span = d.guard_span;
        }
        if d.guard_span == Span::DUMMY {
            d.guard_span = d.span;
        }
    }
    debug_assert_eq!(actions.len(), debug.len());

    let mut program = crate::program::lower(&ir, &mut actions, &blocks);
    crate::program::optimize(&mut program, &actions);
    CompiledStep {
        ir,
        bta,
        actions,
        debug,
        blocks,
        param_types,
        program,
        fingerprint: OnceLock::new(),
    }
}

/// Live variable sets after each instruction position of block `bi`
/// (index `i` = after instruction `i`); the last entry is the set at the
/// terminator. A block without instructions gets that one set.
fn live_after_positions(f: &IrFunction, bi: usize, liveness: &VarLiveness) -> Vec<BitSet> {
    let block = &f.blocks[bi];
    let mut live = liveness.live_out[bi].clone();
    if let Some(v) = terminator_use(&block.term) {
        live.insert(v.index());
    }
    let mut out: Vec<BitSet> = vec![BitSet::default(); block.insts.len().max(1)];
    if block.insts.is_empty() {
        out[0] = live;
        return out;
    }
    for i in (0..block.insts.len()).rev() {
        // Position "after inst i" sees the current set.
        out[i].clone_from(&live);
        let inst = &block.insts[i];
        if let Some(d) = inst.dst() {
            live.remove(d.index());
        }
        for o in inst.operands() {
            if let Operand::Var(v) = o {
                live.insert(v.index());
            }
        }
        // Aggregate touches keep their variables live, and a lift reads
        // the variable it records.
        for_each_touched_agg(inst, |v| live.insert(v.index()));
        if let Inst::LiftVar { v } = inst {
            live.insert(v.index());
        }
    }
    out
}

/// Records in `ac` which live variables, aggregates and globals are known
/// (run-time static) after the action, each list in index order.
fn finalize_known(ac: &mut ActionCode, env: &Env, ir: &IrProgram, live: &BitSet) {
    let mut vars = Vec::new();
    let mut aggs = Vec::new();
    for v in live.iter().map(|i| VarId(i as u32)) {
        if env.var(v).is_known() {
            match ir.main.var(v).kind {
                VarKind::Scalar => vars.push(v),
                _ => aggs.push(v),
            }
        }
    }
    let globals: Vec<GlobalId> = (0..ir.globals.len() as u32)
        .map(GlobalId)
        .filter(|&g| env.global(g).is_known())
        .collect();
    ac.known_vars_after = vars.into_boxed_slice();
    ac.known_aggs_after = aggs.into_boxed_slice();
    ac.known_globals_after = globals.into_boxed_slice();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{KeyComp, KeySrc, Op};
    use facile_bta::{insert_lifts, LiftConfig};
    use facile_ir::lower::lower;
    use facile_lang::diag::Diagnostics;
    use facile_lang::parser::parse;
    use facile_sema::analyze as sema_analyze;

    fn compile(src: &str) -> CompiledStep {
        let mut diags = Diagnostics::new();
        let prog = parse(src, &mut diags);
        let syms = sema_analyze(&prog, &mut diags);
        assert!(!diags.has_errors(), "{}", diags.render_all(src));
        let mut ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
        let (bta, _) = insert_lifts(&mut ir, LiftConfig::default()).unwrap();
        extract_actions(ir, bta)
    }

    /// The replay ops of `a`.
    fn replay<'a>(c: &'a CompiledStep, a: &ActionCode) -> &'a [Op] {
        &c.program.replay[a.replay.start as usize..a.replay.end as usize]
    }

    /// Every action's replay ops, in action order.
    fn all_replay(c: &CompiledStep) -> impl Iterator<Item = &Op> {
        c.actions.iter().flat_map(move |a| replay(c, a))
    }

    /// Whether operand `o` is a register its action's replay ops load
    /// from placeholder data before op `at` (an rt-static operand).
    fn loaded(ops: &[Op], at: usize, o: Rk) -> bool {
        o.as_reg()
            .is_some_and(|r| ops[..at].contains(&Op::LdR { r }))
    }

    /// The key components of `c`'s INDEX action.
    fn key(c: &CompiledStep) -> &[KeyComp] {
        let site = c
            .actions
            .iter()
            .find_map(|a| match a.kind {
                ActionKind::Index { site } => Some(site),
                _ => None,
            })
            .expect("index action exists");
        &c.program.nexts[site as usize].comps
    }

    #[test]
    fn minimal_step_has_one_index_action() {
        let c = compile("fun main(pc : stream) { next(pc + 4); }");
        assert_eq!(c.action_count(), 1);
        assert!(matches!(c.actions[0].kind, ActionKind::Index { .. }));
        // The key component is rt-static: one placeholder.
        let comps = key(&c);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].rt && matches!(comps[0].src, KeySrc::Scalar(_)));
    }

    #[test]
    fn dynamic_key_component_uses_register() {
        let c = compile(
            "val R = array(4){0};\n\
             fun main(x : int) { next(x + R[0]); }",
        );
        let comps = key(&c);
        assert!(!comps[0].rt, "dynamic: part of the signature");
        assert!(matches!(comps[0].src, KeySrc::Scalar(o) if o.as_reg().is_some()));
    }

    #[test]
    fn figure7_actions() {
        // The paper's Figure 7/8: an add instruction whose register adds
        // are dynamic basic blocks, plus the INDEX for `init = npc`.
        let c = compile(
            "token instr[32] fields op 26:31, rd 21:25, rs1 16:20, i 13:13, imm16 0:15;\n\
             pat add = op==0;\n\
             pat bz = op==1;\n\
             val R = array(32){0};\n\
             sem add {\n\
               if (i) { R[rd] = R[rs1] + imm16?sext(16); }\n\
               else { R[rd] = R[rs1] + R[rd]; }\n\
             }\n\
             sem bz { }\n\
             fun main(pc : stream) { pc?exec(); next(pc + 4); }",
        );
        // Expect: two plain register-add actions (one per arm of the if)
        // and one index action; the rt-static `if (i)` is not an action.
        let plains = c
            .actions
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::Plain))
            .count();
        let indexes = c
            .actions
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::Index { .. }))
            .count();
        let tests = c
            .actions
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::Test { .. }))
            .count();
        assert_eq!(indexes, 1);
        assert_eq!(tests, 0, "no dynamic control flow in this simulator");
        // Two register-add actions plus the decode-failure halt action.
        assert_eq!(plains, 3, "{:#?}", c.actions);
        // Register indices are placeholders in the add ops: loaded from
        // the node's data before the store, by the store itself when the
        // load directly precedes it.
        let mut sets = 0;
        for a in &c.actions {
            let ops = replay(&c, a);
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::ElemSet { idx, .. } => {
                        assert!(loaded(ops, i, idx), "register index is rt-static: {ops:?}");
                        sets += 1;
                    }
                    Op::LdElemSet { .. } => sets += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(sets, 2);
    }

    #[test]
    fn dynamic_branch_becomes_test_action() {
        // Figure 7's bz: the register comparison closes a Test action.
        let c = compile(
            "val R = array(32){0};\n\
             fun main(pc : stream) {\n\
               if (R[0] == 0) { count_cycles(2); } else { count_cycles(1); }\n\
               next(pc + 4);\n\
             }",
        );
        let tests: Vec<_> = c
            .actions
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::Test { .. }))
            .collect();
        assert_eq!(tests.len(), 1);
        assert!(matches!(tests[0].resume, Resume::AtTerm { .. }));
        // The test's ops computed the comparison.
        assert!(replay(&c, tests[0])
            .iter()
            .any(|o| matches!(o, Op::EqRI { imm: 0, .. } | Op::EqRR { .. })));
    }

    #[test]
    fn verify_closes_action_with_resume_after() {
        let c = compile(
            "ext fun cache(a : int) : int;\n\
             fun main(x : int) {\n\
               val lat = cache(x)?verify;\n\
               count_cycles(lat);\n\
               next(x + lat);\n\
             }",
        );
        let test = c
            .actions
            .iter()
            .find(|a| matches!(a.kind, ActionKind::Test { .. }))
            .expect("verify test exists");
        assert!(matches!(
            test.resume,
            Resume::AtInst { .. }
        ));
        // The ext call is inside the test action's ops.
        assert!(replay(&c, test)
            .iter()
            .any(|o| matches!(o, Op::CallExt { .. })));
        // count_cycles(lat) has an rt-static operand => a separate plain
        // action with a placeholder.
        let (ops, at, n) = c
            .actions
            .iter()
            .find_map(|a| {
                let ops = replay(&c, a);
                ops.iter().enumerate().find_map(|(i, o)| match *o {
                    Op::CountCycles { n } => Some((ops, i, n)),
                    _ => None,
                })
            })
            .expect("count_cycles op");
        assert!(loaded(ops, at, n), "{ops:?}");
    }

    #[test]
    fn rt_static_insts_do_not_split_groups() {
        let c = compile(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               R[0] = R[0] + 1;\n\
               val a = x * 3;\n\
               R[1] = R[1] + 2;\n\
               next(x + a);\n\
             }",
        );
        // Both register updates land in ONE plain action despite the
        // rt-static multiply between them.
        let plain_with_two_sets = c.actions.iter().any(|a| {
            replay(&c, a)
                .iter()
                .filter(|o| matches!(o, Op::ElemSet { .. }))
                .count()
                == 2
        });
        assert!(plain_with_two_sets, "{:#?}", c.actions);
    }

    #[test]
    fn known_sets_cover_live_rt_values() {
        let c = compile(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               val keep = x * 7;\n\
               if (R[0]) { trace(keep); }\n\
               next(x + keep);\n\
             }",
        );
        let test = c
            .actions
            .iter()
            .find(|a| matches!(a.kind, ActionKind::Test { .. }))
            .expect("dynamic branch");
        // `keep` (rt-static, live after the branch) must be in the commit
        // set so a recovery restores it.
        assert!(
            !test.known_vars_after.is_empty(),
            "{:#?}",
            test.known_vars_after
        );
    }

    #[test]
    fn lift_ops_generated() {
        let c = compile(
            "val R = array(4){0};\nval g = 0;\n\
             fun main(x : int) {\n\
               val y = g + x;\n\
               trace(y);\n\
               g = x;\n\
               next(x);\n\
             }",
        );
        // g is rt-static at exit and live at entry => a lift, replayed
        // as a load of g.
        assert!(all_replay(&c).any(|o| matches!(o, Op::LdG { .. })));
    }

    #[test]
    fn queue_key_plan_rt() {
        let c = compile(
            "fun main(iq : queue, pc : stream) {\n\
               iq?push_back(pc?addr);\n\
               if (iq?len > 3) { iq?pop_front(); }\n\
               next(iq, pc + 4);\n\
             }",
        );
        let comps = key(&c);
        assert!(comps[0].rt && matches!(comps[0].src, KeySrc::Queue(_)));
        assert!(comps[1].rt && matches!(comps[1].src, KeySrc::Scalar(_)));
    }

    #[test]
    fn halt_is_an_op_not_a_kind() {
        let c = compile("fun main(x : int) { if (x == 0) { sim_halt(); } next(x - 1); }");
        assert!(all_replay(&c).any(|o| matches!(o, Op::Halt { .. })));
    }

    #[test]
    fn debug_table_parallels_actions_with_resolvable_spans() {
        let src = "val R = array(32){0};\n\
             fun main(pc : stream) {\n\
               if (R[0] == 0) { count_cycles(2); } else { count_cycles(1); }\n\
               next(pc + 4);\n\
             }";
        let c = compile(src);
        assert_eq!(c.debug.len(), c.actions.len());
        for (a, d) in c.actions.iter().zip(&c.debug) {
            // Kind agrees with the action table.
            match (&a.kind, d.kind) {
                (ActionKind::Plain, DebugKind::Plain)
                | (ActionKind::Index { .. }, DebugKind::Index)
                | (
                    ActionKind::Test { .. },
                    DebugKind::Verify | DebugKind::Branch | DebugKind::Switch,
                ) => {}
                (k, dk) => panic!("kind mismatch: {k:?} vs {dk:?}"),
            }
            // Every span resolves into the source text.
            assert_ne!(d.span, Span::DUMMY, "{d:?}");
            assert_ne!(d.guard_span, Span::DUMMY, "{d:?}");
            assert!((d.span.hi as usize) <= src.len(), "{d:?}");
        }
        // The dynamic branch is attributed as a Branch at the `if`.
        let branch = c
            .debug
            .iter()
            .find(|d| d.kind == DebugKind::Branch)
            .expect("branch debug record");
        let guard = &src[branch.guard_span.lo as usize..branch.guard_span.hi as usize];
        assert!(guard.contains("R[0] == 0"), "guard text: {guard:?}");
        let index = c
            .debug
            .iter()
            .find(|d| d.kind == DebugKind::Index)
            .expect("index debug record");
        let guard = &src[index.guard_span.lo as usize..index.guard_span.hi as usize];
        assert!(guard.contains("next"), "guard text: {guard:?}");
    }

    #[test]
    fn verify_debug_guard_is_the_verify_site() {
        let src = "ext fun cache(a : int) : int;\n\
             fun main(x : int) {\n\
               val lat = cache(x)?verify;\n\
               count_cycles(lat);\n\
               next(x + lat);\n\
             }";
        let c = compile(src);
        let v = c
            .debug
            .iter()
            .find(|d| d.kind == DebugKind::Verify)
            .expect("verify debug record");
        let guard = &src[v.guard_span.lo as usize..v.guard_span.hi as usize];
        assert!(guard.contains("verify"), "guard text: {guard:?}");
        assert!(v.inst != u32::MAX, "verify closes mid-block");
    }

    #[test]
    fn action_starts_marked_in_annotations() {
        let c = compile(
            "val R = array(4){0};\n\
             fun main(x : int) { R[0] = R[0] + 1; next(x); }",
        );
        let starts: usize = c
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|a| a.action_start.is_some())
            .count();
        assert_eq!(starts, c.action_count());
    }

    #[test]
    fn placeholder_positions_match_ops() {
        let c = compile(
            "val R = array(8){0};\n\
             fun main(x : int) { R[x % 8] = x * 2; next(x + 1); }",
        );
        // ElemSet: agg R (global), idx = x%8 (rt-static -> Ph),
        // src = x*2 (rt-static -> Ph).
        let (set_annot, set_inst) = c
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| {
                b.insts.iter().enumerate().map(move |(ii, a)| (bi, ii, a))
            })
            .find_map(|(bi, ii, a)| {
                let inst = &c.ir.main.blocks[bi].insts[ii];
                if matches!(inst, Inst::ElemSet { .. }) {
                    Some((a.clone(), inst.clone()))
                } else {
                    None
                }
            })
            .expect("elem set exists");
        assert!(set_annot.dynamic);
        assert_eq!(set_annot.placeholders, vec![0, 1]);
        assert_eq!(set_inst.operands().count(), 2);
    }
}
