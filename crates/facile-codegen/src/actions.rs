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
//! For each action this module produces [`ActionCode`]: the fast engine's
//! executable ops with operands rewritten to registers/immediates/
//! placeholders, the action kind, the resume point used by miss recovery
//! and the known-value sets committed after a recovery. For the slow
//! engine it produces per-instruction [`InstAnnot`] instrumentation:
//! where actions start, which operand values to memoize, and what closes
//! the action — the compiler-added `memoize_*` calls of the paper's
//! Figure 10, which [`crate::program::lower`] turns into record ops.

use crate::program::Program;
use facile_bta::{terminator_dynamic, transfer, Bt, Bta, Env};
use facile_ir::bitset::BitSet;
use facile_ir::ir::*;
use facile_ir::liveness::{for_each_touched_agg, terminator_use, var_liveness, VarLiveness};
use facile_lang::span::Span;
use facile_sema::{GlobalId, Type};

/// An operand of a fast-engine op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FOperand {
    /// Read the variable's register (a dynamic value).
    Reg(VarId),
    /// An immediate constant.
    Imm(i64),
    /// Consume the next placeholder from the action node's recorded data
    /// (a run-time-static value).
    Ph,
}

/// A fast-engine operation: the dynamic residue of one IR instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FOp {
    /// Binary operation.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: VarId,
        /// Left operand.
        a: FOperand,
        /// Right operand.
        b: FOperand,
    },
    /// Unary operation.
    Un {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: VarId,
        /// Operand.
        a: FOperand,
    },
    /// Register copy.
    Copy {
        /// Destination register.
        dst: VarId,
        /// Source.
        src: FOperand,
    },
    /// Dynamic global read.
    LoadGlobal {
        /// Destination register.
        dst: VarId,
        /// Source global.
        g: GlobalId,
    },
    /// Dynamic global write.
    StoreGlobal {
        /// Destination global.
        g: GlobalId,
        /// Source.
        src: FOperand,
    },
    /// Dynamic element read.
    ElemGet {
        /// Destination register.
        dst: VarId,
        /// The aggregate.
        agg: Loc,
        /// Element index.
        idx: FOperand,
    },
    /// Dynamic element write.
    ElemSet {
        /// The aggregate.
        agg: Loc,
        /// Element index.
        idx: FOperand,
        /// Stored value.
        src: FOperand,
    },
    /// Dynamic whole-aggregate copy.
    AggCopy {
        /// Destination aggregate.
        dst: Loc,
        /// Source aggregate.
        src: Loc,
    },
    /// Dynamic array fill.
    ArrFill {
        /// The array.
        arr: Loc,
        /// Fill value.
        fill: FOperand,
    },
    /// Dynamic queue operation.
    Queue {
        /// Which operation.
        op: QueueOp,
        /// The queue.
        q: Loc,
        /// Operands.
        args: [Option<FOperand>; 2],
        /// Result register.
        dst: Option<VarId>,
    },
    /// Token fetch at a dynamic stream position.
    FetchToken {
        /// Destination register.
        dst: VarId,
        /// Stream position.
        stream: FOperand,
        /// Token width in bits.
        bits: u32,
    },
    /// External function call.
    CallExt {
        /// Callee.
        ext: facile_sema::ExtId,
        /// Arguments.
        args: Vec<FOperand>,
        /// Result register.
        dst: Option<VarId>,
    },
    /// Simulated-memory load.
    MemLoad {
        /// Access width.
        width: MemWidth,
        /// Destination register.
        dst: VarId,
        /// Byte address.
        addr: FOperand,
    },
    /// Simulated-memory store.
    MemStore {
        /// Access width.
        width: MemWidth,
        /// Byte address.
        addr: FOperand,
        /// Stored value.
        src: FOperand,
    },
    /// Cycle counter increment.
    CountCycles {
        /// Increment.
        n: FOperand,
    },
    /// Instruction counter increment.
    CountInsns {
        /// Increment.
        n: FOperand,
    },
    /// Stop the simulation.
    Halt {
        /// Reason code.
        code: FOperand,
    },
    /// Host trace output.
    Trace {
        /// Traced value.
        v: FOperand,
    },
    /// Materialize one placeholder into a register.
    LiftVar {
        /// Destination register.
        dst: VarId,
    },
    /// Materialize one placeholder into a scalar global.
    LiftGlobal {
        /// Destination global.
        g: GlobalId,
    },
    /// Materialize a length-prefixed placeholder run into an aggregate.
    LiftAgg {
        /// Destination aggregate.
        loc: Loc,
    },
}

/// How one key component of the INDEX action is obtained on replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyPlanArg {
    /// Run-time static scalar: one placeholder.
    ScalarRt,
    /// Dynamic scalar: evaluate.
    ScalarDyn(FOperand),
    /// Run-time static queue: length-prefixed placeholders.
    QueueRt,
    /// Dynamic queue: serialize current storage.
    QueueDyn(Loc),
}

/// What kind of cache node an action produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActionKind {
    /// Straight-line: follow the single successor.
    Plain,
    /// Dynamic result test: evaluate `src` after the ops and follow the
    /// successor recorded for that value.
    Test {
        /// The tested value.
        src: FOperand,
    },
    /// INDEX action: build the next key and follow the entry link.
    Index {
        /// Key components in `main`-parameter order.
        plan: Vec<KeyPlanArg>,
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

/// The fast engine's code for one action.
#[derive(Clone, Debug)]
pub struct ActionCode {
    /// Dynamic ops in execution order.
    pub ops: Vec<FOp>,
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
    /// are memoized as placeholders, in order.
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

/// A fully compiled step function: shared IR, fast action table, slow
/// instrumentation and the lowered program built from them.
#[derive(Clone, Debug)]
pub struct CompiledStep {
    /// The folded, lifted IR.
    pub ir: IrProgram,
    /// Binding-time analysis matching `ir`.
    pub bta: Bta,
    /// The fast engine's action table.
    pub actions: Vec<ActionCode>,
    /// Per-action source-attribution records (parallel to `actions`).
    pub debug: Vec<ActionDebug>,
    /// Per-block slow-engine instrumentation (the input of the lowering).
    pub blocks: Vec<BlockAnnot>,
    /// `main`'s parameter types (the key layout).
    pub param_types: Vec<Type>,
    /// The lowered program the slow engine and miss recovery run.
    pub program: Program,
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
}

/// Extracts the action table and slow-engine instrumentation.
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
                        ops: Vec::new(),
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
            let mut fops: Vec<FOperand> = Vec::with_capacity(op_bts.len());
            for (k, (&bt, o)) in op_bts.iter().zip(inst.operands()).enumerate() {
                match o {
                    Operand::Const(c) => fops.push(FOperand::Imm(c)),
                    Operand::Var(v) => {
                        if bt.is_known() {
                            annot.placeholders.push(k as u8);
                            fops.push(FOperand::Ph);
                        } else {
                            fops.push(FOperand::Reg(v));
                        }
                    }
                }
            }

            let inst_span = ir.main.blocks[bi].span_at(ii);
            {
                let dbg = &mut debug[action_id as usize];
                merge_span(&mut dbg.span, inst_span);
                for f in &fops {
                    match f {
                        FOperand::Ph => dbg.ph_operands += 1,
                        FOperand::Reg(_) => dbg.reg_operands += 1,
                        FOperand::Imm(_) => {}
                    }
                }
            }

            let ac = &mut actions[action_id as usize];
            let mut closed = false;
            match inst {
                Inst::Bin { op, dst, .. } => ac.ops.push(FOp::Bin {
                    op: *op,
                    dst: *dst,
                    a: fops[0],
                    b: fops[1],
                }),
                Inst::Un { op, dst, .. } => ac.ops.push(FOp::Un {
                    op: *op,
                    dst: *dst,
                    a: fops[0],
                }),
                Inst::Copy { dst, .. } => ac.ops.push(FOp::Copy {
                    dst: *dst,
                    src: fops[0],
                }),
                Inst::LoadGlobal { dst, g } => ac.ops.push(FOp::LoadGlobal { dst: *dst, g: *g }),
                Inst::StoreGlobal { g, .. } => ac.ops.push(FOp::StoreGlobal {
                    g: *g,
                    src: fops[0],
                }),
                Inst::ElemGet { dst, agg, .. } => ac.ops.push(FOp::ElemGet {
                    dst: *dst,
                    agg: *agg,
                    idx: fops[0],
                }),
                Inst::ElemSet { agg, .. } => ac.ops.push(FOp::ElemSet {
                    agg: *agg,
                    idx: fops[0],
                    src: fops[1],
                }),
                Inst::AggCopy { dst, src } => ac.ops.push(FOp::AggCopy {
                    dst: *dst,
                    src: *src,
                }),
                Inst::ArrFill { arr, .. } => ac.ops.push(FOp::ArrFill {
                    arr: *arr,
                    fill: fops[0],
                }),
                Inst::Queue { op, q, args, dst } => {
                    let mut fargs = [None, None];
                    let mut k = 0;
                    for (slot, a) in fargs.iter_mut().zip(args.iter()) {
                        if a.is_some() {
                            *slot = Some(fops[k]);
                            k += 1;
                        }
                    }
                    ac.ops.push(FOp::Queue {
                        op: *op,
                        q: *q,
                        args: fargs,
                        dst: *dst,
                    });
                }
                Inst::FetchToken { dst, token, .. } => ac.ops.push(FOp::FetchToken {
                    dst: *dst,
                    stream: fops[0],
                    bits: ir.token_widths[token.index()],
                }),
                Inst::CallExt { ext, dst, .. } => ac.ops.push(FOp::CallExt {
                    ext: *ext,
                    args: fops.clone(),
                    dst: *dst,
                }),
                Inst::MemLoad { width, dst, .. } => ac.ops.push(FOp::MemLoad {
                    width: *width,
                    dst: *dst,
                    addr: fops[0],
                }),
                Inst::MemStore { width, .. } => ac.ops.push(FOp::MemStore {
                    width: *width,
                    addr: fops[0],
                    src: fops[1],
                }),
                Inst::CountCycles { .. } => ac.ops.push(FOp::CountCycles { n: fops[0] }),
                Inst::CountInsns { .. } => ac.ops.push(FOp::CountInsns { n: fops[0] }),
                Inst::Halt { .. } => ac.ops.push(FOp::Halt { code: fops[0] }),
                Inst::Trace { .. } => ac.ops.push(FOp::Trace { v: fops[0] }),
                Inst::LiftVar { v } => {
                    annot.lift = Some(LiftWhat::Var(*v));
                    ac.ops.push(FOp::LiftVar { dst: *v });
                }
                Inst::LiftGlobal { g } => {
                    annot.lift = Some(LiftWhat::Global(*g));
                    ac.ops.push(FOp::LiftGlobal { g: *g });
                }
                Inst::LiftAgg { loc } => {
                    annot.lift = Some(LiftWhat::Agg(*loc));
                    ac.ops.push(FOp::LiftAgg { loc: *loc });
                }
                Inst::Verify { .. } => {
                    // The tested value is the last placeholder/register.
                    ac.kind = ActionKind::Test { src: fops[0] };
                    ac.resume = Resume::AtInst {
                        block: bid,
                        inst: (ii + 1) as u32,
                    };
                    annot.closes = Some(Closes::Verify);
                    debug[action_id as usize].kind = DebugKind::Verify;
                    debug[action_id as usize].guard_span = inst_span;
                    closed = true;
                }
                Inst::SetNext { args } => {
                    // Placeholder positions were computed over scalar
                    // operands only; rebuild a per-component plan.
                    let mut plan = Vec::with_capacity(args.len());
                    let mut scalar_idx = 0usize;
                    // Re-derive binding times from the pre-transfer env:
                    // SetNext doesn't change the env, so `env` still works
                    // for locs; scalar bts were saved in op_bts.
                    annot.placeholders.clear();
                    let mut k = 0usize;
                    for a in args {
                        match a {
                            KeyArg::Scalar(o) => {
                                let bt = op_bts[scalar_idx];
                                match o {
                                    Operand::Const(c) => {
                                        plan.push(KeyPlanArg::ScalarDyn(FOperand::Imm(*c)))
                                    }
                                    Operand::Var(v) => {
                                        if bt.is_known() {
                                            annot.placeholders.push(k as u8);
                                            plan.push(KeyPlanArg::ScalarRt);
                                        } else {
                                            plan.push(KeyPlanArg::ScalarDyn(FOperand::Reg(*v)));
                                        }
                                    }
                                }
                                scalar_idx += 1;
                                k += 1;
                            }
                            KeyArg::Queue(loc) => {
                                if env.loc(*loc).is_known() {
                                    plan.push(KeyPlanArg::QueueRt);
                                } else {
                                    plan.push(KeyPlanArg::QueueDyn(*loc));
                                }
                            }
                        }
                    }
                    ac.kind = ActionKind::Index { plan };
                    ac.resume = Resume::AtInst {
                        block: bid,
                        inst: (ii + 1) as u32,
                    };
                    annot.closes = Some(Closes::Index);
                    debug[action_id as usize].kind = DebugKind::Index;
                    debug[action_id as usize].guard_span = inst_span;
                    closed = true;
                }
            }

            if closed {
                finalize_known(&mut actions[action_id as usize], &env, &ir, &live_after[ii]);
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
            let fsrc = match src {
                Operand::Const(c) => FOperand::Imm(c),
                Operand::Var(v) => FOperand::Reg(v),
            };
            let action_id = match open {
                Some(id) => id,
                None => {
                    let id = actions.len() as u32;
                    actions.push(ActionCode {
                        ops: Vec::new(),
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
                match fsrc {
                    FOperand::Reg(_) => dbg.reg_operands += 1,
                    FOperand::Ph => dbg.ph_operands += 1,
                    FOperand::Imm(_) => {}
                }
            }
            let ac = &mut actions[action_id as usize];
            ac.kind = ActionKind::Test { src: fsrc };
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

    let program = crate::program::lower(&ir, &actions, &blocks);
    CompiledStep {
        ir,
        bta,
        actions,
        debug,
        blocks,
        param_types,
        program,
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

    #[test]
    fn minimal_step_has_one_index_action() {
        let c = compile("fun main(pc : stream) { next(pc + 4); }");
        assert_eq!(c.action_count(), 1);
        assert!(matches!(c.actions[0].kind, ActionKind::Index { .. }));
        // The key component is rt-static: one placeholder.
        let ActionKind::Index { plan } = &c.actions[0].kind else {
            unreachable!()
        };
        assert_eq!(plan, &vec![KeyPlanArg::ScalarRt]);
    }

    #[test]
    fn dynamic_key_component_uses_register() {
        let c = compile(
            "val R = array(4){0};\n\
             fun main(x : int) { next(x + R[0]); }",
        );
        let idx = c
            .actions
            .iter()
            .find_map(|a| match &a.kind {
                ActionKind::Index { plan } => Some(plan.clone()),
                _ => None,
            })
            .expect("index action exists");
        assert!(matches!(idx[0], KeyPlanArg::ScalarDyn(FOperand::Reg(_))));
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
        // Register indices are placeholders in the add ops.
        let add_ops: Vec<_> = c
            .actions
            .iter()
            .flat_map(|a| a.ops.iter())
            .filter(|o| matches!(o, FOp::ElemSet { .. }))
            .collect();
        assert_eq!(add_ops.len(), 2);
        for op in add_ops {
            let FOp::ElemSet { idx, .. } = op else {
                unreachable!()
            };
            assert_eq!(*idx, FOperand::Ph, "register index is rt-static");
        }
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
        assert!(tests[0]
            .ops
            .iter()
            .any(|o| matches!(o, FOp::Bin { op: BinOp::Eq, .. })));
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
        assert!(test.ops.iter().any(|o| matches!(o, FOp::CallExt { .. })));
        // count_cycles(lat) has an rt-static operand => a separate plain
        // action with a placeholder.
        let cc = c
            .actions
            .iter()
            .flat_map(|a| a.ops.iter())
            .find(|o| matches!(o, FOp::CountCycles { .. }))
            .expect("count_cycles op");
        assert_eq!(*cc, FOp::CountCycles { n: FOperand::Ph });
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
            a.ops
                .iter()
                .filter(|o| matches!(o, FOp::ElemSet { .. }))
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
        // g is rt-static at exit and live at entry => a LiftGlobal op.
        assert!(c
            .actions
            .iter()
            .flat_map(|a| a.ops.iter())
            .any(|o| matches!(o, FOp::LiftGlobal { .. })));
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
        let ActionKind::Index { plan } = &c
            .actions
            .iter()
            .find(|a| matches!(a.kind, ActionKind::Index { .. }))
            .unwrap()
            .kind
        else {
            unreachable!()
        };
        assert_eq!(plan[0], KeyPlanArg::QueueRt);
        assert_eq!(plan[1], KeyPlanArg::ScalarRt);
    }

    #[test]
    fn halt_is_an_op_not_a_kind() {
        let c = compile("fun main(x : int) { if (x == 0) { sim_halt(); } next(x - 1); }");
        assert!(c
            .actions
            .iter()
            .flat_map(|a| a.ops.iter())
            .any(|o| matches!(o, FOp::Halt { .. })));
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
