//! The lowered step program: the one executable form every engine runs.
//!
//! [`lower`] turns the folded IR plus its slow-engine annotations
//! ([`BlockAnnot`]) into one flat array of [`Op`]s, once per compile —
//! the "decode once, reuse the decoded form" of Reshadi & Dutt, and the
//! register bytecode the source paper's compiler emits:
//!
//! * **Operands are resolved.** Every register operand is its index in
//!   the register file, every scalar global its index in the global
//!   file, every aggregate its slot in the one aggregate pool
//!   ([`AggSlots`]). The hot arithmetic ops are specialised by operand
//!   kind (`BinRR`/`BinRI`/`BinIR`, `CopyR`/`CopyI`, …) and the hottest
//!   binops have ops of their own (`AddRR`, `EqRI`, …). Rarer ops take
//!   [`Rk`] operands: a register index, or an index into the constant
//!   table [`Program::consts`].
//! * **Control flow is op indices.** Blocks become op ranges laid out so
//!   that a jump to the next block falls through; terminators become
//!   [`Op::Jump`], [`Op::Br`], [`Op::Switch`] and [`Op::Ret`] with op
//!   index targets, jump chains resolved.
//! * **Recording is ops of its own.** Action start ([`Op::Start`]),
//!   placeholder and lift capture ([`Op::PhR`], [`Op::PhG`],
//!   [`Op::PhAgg`]) and the plain/test/INDEX closes ([`Op::ClosePlain`],
//!   [`Op::CloseVerify`], [`Op::TestClose`], [`Op::Next`], [`Op::Halt`])
//!   carry their action number statically, so execution without
//!   recording runs no per-instruction check: it passes over them.
//! * **Miss recovery runs the same array.** [`Program::dynamic`] marks
//!   the ops of dynamic instructions, which recovery's shadow execution
//!   skips; it consumes the recovery stack at the record ops. Where slow
//!   execution resumes after a recovery that ends at action `a` is
//!   [`Program::resume`]`[a]`, an op index.
//! * **Replay runs the same ops.** Each action's replay range
//!   ([`ActionCode::replay`], into [`Program::replay`]) is what the slow
//!   program emits for that action: every placeholder capture
//!   ([`Op::PhR`], [`Op::PhG`], [`Op::PhAgg`]) becomes its load dual
//!   ([`Op::LdR`], [`Op::LdG`], [`Op::LdAgg`]), which writes the
//!   recorded value back where the capture read it, and every dynamic
//!   op is copied as is. Replay therefore reads a node's data exactly
//!   as recording wrote it. A register load directly followed by the
//!   element access it indexes ([`Op::ElemGet`], [`Op::ElemSet`]) is
//!   one replay op ([`Op::LdElemGet`], [`Op::LdElemSet`]), which still
//!   writes the register. The action's kind ([`ActionKind`]) is set at
//!   the op that closes it.
//! * **The program is then optimized.** [`optimize`] rewrites its
//!   run-time-static ops — def retargeting and copy coalescing,
//!   compare-and-branch fusion ([`Op::BrAndRR`], [`Op::BrLtRR`],
//!   [`Op::BrLtRI`], [`Op::BrEqRI`]), jump threading — leaving replay
//!   ranges, record ops and dynamic ops as [`lower`] emitted them.

use crate::actions::{ActionCode, ActionKind, BlockAnnot, Closes, LiftWhat, Resume};
use facile_ir::ir::*;
use std::collections::HashMap;

mod optimize;
pub use optimize::optimize;

/// "No destination register" in an op whose result may be discarded.
pub const NO_REG: u32 = u32::MAX;

/// A register-or-constant operand: a register index, or (with the top
/// bit set) an index into [`Program::consts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rk(u32);

impl Rk {
    const CONST: u32 = 1 << 31;

    /// A register operand.
    pub fn reg(r: u32) -> Rk {
        debug_assert!(r & Self::CONST == 0, "register index out of range");
        Rk(r)
    }

    /// A constant operand (index into [`Program::consts`]).
    pub fn konst(k: u32) -> Rk {
        Rk(k | Self::CONST)
    }

    /// The register index, if a register operand.
    pub fn as_reg(self) -> Option<u32> {
        (self.0 & Self::CONST == 0).then_some(self.0)
    }

    /// The constant-table index, if a constant operand.
    pub fn as_const(self) -> Option<u32> {
        (self.0 & Self::CONST != 0).then_some(self.0 & !Self::CONST)
    }

    /// The operand's value.
    #[inline(always)]
    pub fn get(self, regs: &[i64], consts: &[i64]) -> i64 {
        if self.0 & Self::CONST == 0 {
            regs[self.0 as usize]
        } else {
            consts[(self.0 & !Self::CONST) as usize]
        }
    }
}

/// One op of the lowered program. Register fields (`dst`, `a`, `b`,
/// `src`, `cond`, `val`) index the register file, `g` the scalar-global
/// file, aggregate fields (`agg`, `q`, `arr`) the aggregate pool, and
/// jump fields (`to`, `then_`, `else_`) the op array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `dst = a + b` (wrapping).
    AddRR {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a + imm` (wrapping; also subtraction of a constant).
    AddRI {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = a - b` (wrapping).
    SubRR {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a & imm`.
    AndRI {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = a >> sh` (arithmetic; `sh` already masked to 0..=63).
    ShrRI {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Shift amount.
        sh: u32,
    },
    /// `dst = (a == b)`.
    EqRR {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = (a == imm)`.
    EqRI {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = (a != b)`.
    NeRR {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = (a != imm)`.
    NeRI {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = (a < b)`.
    LtRR {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = (a < imm)`.
    LtRI {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = (a > imm)`.
    GtRI {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// Any other binop on two registers.
    BinRR {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// Any other binop, register and constant.
    BinRI {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// Any other binop, constant and register.
    BinIR {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Immediate operand.
        imm: i64,
        /// Right operand register.
        b: u32,
    },
    /// Unary op on a register.
    Un {
        /// The operation.
        op: UnOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
    },
    /// `dst = src`.
    CopyR {
        /// Destination register.
        dst: u32,
        /// Source.
        src: u32,
    },
    /// `dst = imm`.
    CopyI {
        /// Destination register.
        dst: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = global g`.
    LoadGlobal {
        /// Destination register.
        dst: u32,
        /// Scalar global.
        g: u32,
    },
    /// `global g = src`.
    StoreGlobalR {
        /// Scalar global.
        g: u32,
        /// Source.
        src: u32,
    },
    /// `global g = imm`.
    StoreGlobalI {
        /// Scalar global.
        g: u32,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = agg[idx]` (array or queue; 0 out of range).
    ElemGet {
        /// Destination register.
        dst: u32,
        /// Aggregate slot.
        agg: u32,
        /// Element index.
        idx: Rk,
    },
    /// `agg[idx] = src` (ignored out of range).
    ElemSet {
        /// Aggregate slot.
        agg: u32,
        /// Element index.
        idx: Rk,
        /// Source.
        src: Rk,
    },
    /// Whole-aggregate copy.
    AggCopy {
        /// Destination register.
        dst: u32,
        /// Source.
        src: u32,
    },
    /// Array fill.
    ArrFill {
        /// Array slot.
        arr: u32,
        /// Fill value.
        fill: Rk,
    },
    /// `dst = q?get(idx)`.
    QueueGet {
        /// Destination register.
        dst: u32,
        /// Queue slot.
        q: u32,
        /// Element index.
        idx: Rk,
    },
    /// `dst = q?len`.
    QueueLen {
        /// Destination register.
        dst: u32,
        /// Queue slot.
        q: u32,
    },
    /// Any other queue op; `dst` may be [`NO_REG`].
    Queue {
        /// The operation.
        op: QueueOp,
        /// Queue slot.
        q: u32,
        /// First operand.
        a0: Rk,
        /// Second operand.
        a1: Rk,
        /// Destination register.
        dst: u32,
    },
    /// `dst = token of `bits` bits at stream position `addr``.
    FetchToken {
        /// Destination register.
        dst: u32,
        /// Address.
        addr: Rk,
        /// Token width in bits.
        bits: u32,
    },
    /// External call with arguments [`Program::args`]`[args..args+len]`;
    /// `dst` may be [`NO_REG`].
    CallExt {
        /// Destination register.
        dst: u32,
        /// Callee.
        ext: u32,
        /// First argument in `Program::args`.
        args: u32,
        /// Number of arguments.
        len: u32,
    },
    /// Simulated-memory load of `bytes` bytes.
    MemLoad {
        /// Access width in bytes.
        bytes: u32,
        /// Destination register.
        dst: u32,
        /// Address.
        addr: Rk,
    },
    /// Simulated-memory store of `bytes` bytes.
    MemStore {
        /// Access width in bytes.
        bytes: u32,
        /// Address.
        addr: Rk,
        /// Source.
        src: Rk,
    },
    /// Cycle counter increment.
    CountCycles {
        /// Increment.
        n: Rk,
    },
    /// Instruction counter increment.
    CountInsns {
        /// Increment.
        n: Rk,
    },
    /// Host trace output.
    Trace {
        /// Traced value.
        v: Rk,
    },
    /// Stop the simulation; while recording, close `action` as plain.
    Halt {
        /// Reason code.
        code: Rk,
        /// Action number.
        action: u32,
    },
    /// Record: open the group of `action`.
    Start {
        /// Action number.
        action: u32,
    },
    /// Record: capture register `r` as a placeholder (also a lifted
    /// variable).
    PhR {
        /// Register.
        r: u32,
    },
    /// Record: capture scalar global `g` (a lifted global).
    PhG {
        /// Scalar global.
        g: u32,
    },
    /// Record: capture aggregate `agg` as length + elements (a lifted
    /// aggregate).
    PhAgg {
        /// Aggregate slot.
        agg: u32,
    },
    /// Replay: load the next placeholder into register `r` (the dual of
    /// [`Op::PhR`]).
    LdR {
        /// Register.
        r: u32,
    },
    /// Replay: load the next placeholder into scalar global `g` (the
    /// dual of [`Op::PhG`]).
    LdG {
        /// Scalar global.
        g: u32,
    },
    /// Replay: load the next length-prefixed placeholder run into
    /// aggregate `agg` (the dual of [`Op::PhAgg`]).
    LdAgg {
        /// Aggregate slot.
        agg: u32,
    },
    /// Replay: [`Op::LdR`] into `r` fused with the [`Op::ElemGet`] it
    /// feeds: load the next placeholder into register `r`, then
    /// `dst = agg[r]`.
    LdElemGet {
        /// Destination register.
        dst: u32,
        /// Aggregate slot.
        agg: u32,
        /// The loaded register, which is the element index.
        r: u32,
    },
    /// Replay: [`Op::LdR`] into `r` fused with the [`Op::ElemSet`] it
    /// feeds: load the next placeholder into register `r`, then
    /// `agg[r] = src`.
    LdElemSet {
        /// Aggregate slot.
        agg: u32,
        /// The loaded register, which is the element index.
        r: u32,
        /// Source.
        src: Rk,
    },
    /// Record: close `action` as a plain node (a group open at the end
    /// of its block).
    ClosePlain {
        /// Action number.
        action: u32,
    },
    /// Record: close `action` as a test node on the value in `dst` (the
    /// result of the `?verify` just executed).
    CloseVerify {
        /// Action number.
        action: u32,
        /// Destination register.
        dst: u32,
    },
    /// Record: close `action` as a test node on `src`, the value the
    /// following [`Op::Br`]/[`Op::Switch`] branches on. `open` says
    /// whether the action's group holds ops (else the node is empty).
    TestClose {
        /// Action number.
        action: u32,
        /// Source.
        src: u32,
        /// Whether the group holds ops.
        open: bool,
    },
    /// End the step: build the next key from [`Program::nexts`]`[site]`;
    /// while recording, close its INDEX action.
    Next {
        /// Index into `Program::nexts`.
        site: u32,
    },
    /// Jump to op `to`.
    Jump {
        /// Target op.
        to: u32,
    },
    /// Branch on register `cond` (non-zero: `then_`).
    Br {
        /// Condition register.
        cond: u32,
        /// Target op when non-zero.
        then_: u32,
        /// Target op when zero.
        else_: u32,
    },
    /// [`Op::Br`] on `a & b` (a `BinRR And` fused with the branch that
    /// is its result's only reader, by [`optimize`]).
    BrAndRR {
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
        /// Target op when non-zero.
        then_: u32,
        /// Target op when zero.
        else_: u32,
    },
    /// [`Op::Br`] on `a < b` (a fused [`Op::LtRR`]).
    BrLtRR {
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
        /// Target op when true.
        then_: u32,
        /// Target op when false.
        else_: u32,
    },
    /// [`Op::Br`] on `a < imm` (a fused [`Op::LtRI`]).
    BrLtRI {
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
        /// Target op when true.
        then_: u32,
        /// Target op when false.
        else_: u32,
    },
    /// [`Op::Br`] on `a == imm` (a fused [`Op::EqRI`]).
    BrEqRI {
        /// Left operand register.
        a: u32,
        /// Immediate operand.
        imm: i64,
        /// Target op when true.
        then_: u32,
        /// Target op when false.
        else_: u32,
    },
    /// Multi-way branch on register `val` through
    /// [`Program::switches`]`[table]`.
    Switch {
        /// Switched-on register.
        val: u32,
        /// Index into `Program::switches`.
        table: u32,
    },
    /// The step returned without calling `next`.
    Ret,
}

/// A lowered `switch` terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchTable {
    /// `(value, op index)` in source order; the first match wins.
    pub cases: Vec<(i64, u32)>,
    /// Target when no case matches.
    pub default: u32,
}

impl SwitchTable {
    /// The op index `v` branches to.
    #[inline]
    pub fn target(&self, v: i64) -> u32 {
        self.cases
            .iter()
            .find(|&&(c, _)| c == v)
            .map_or(self.default, |&(_, t)| t)
    }
}

/// Where one component of the next key comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeySrc {
    /// A scalar operand.
    Scalar(Rk),
    /// A queue (aggregate slot), serialized as length + elements.
    Queue(u32),
}

/// One component of the next key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyComp {
    /// Where its value comes from.
    pub src: KeySrc,
    /// Run-time static: recorded as placeholder data. Otherwise it is
    /// part of the INDEX node's dynamic signature.
    pub rt: bool,
}

/// A lowered `next(...)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NextSite {
    /// The INDEX action it closes.
    pub action: u32,
    /// Key components in `main`-parameter order.
    pub comps: Vec<KeyComp>,
}

/// Where `main`'s parameter `i` lives: a register, or (for a queue) an
/// aggregate slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamSlot {
    /// Scalar parameter register.
    Reg(u32),
    /// Queue parameter aggregate slot.
    Queue(u32),
}

/// Aggregate slot assignment: every aggregate variable, then every
/// aggregate global, numbered into one pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggSlots {
    /// Per variable: its slot (`u32::MAX` for scalars).
    pub var: Vec<u32>,
    /// Per global: its slot (`u32::MAX` for scalars).
    pub global: Vec<u32>,
    /// Number of slots.
    pub len: u32,
}

impl AggSlots {
    /// Numbers `ir`'s aggregates: variables in index order, then
    /// globals in index order.
    pub fn new(ir: &IrProgram) -> AggSlots {
        let mut len = 0u32;
        let mut next = |agg: bool| {
            if agg {
                len += 1;
                len - 1
            } else {
                u32::MAX
            }
        };
        let var = ir
            .main
            .vars
            .iter()
            .map(|v| next(v.kind != VarKind::Scalar))
            .collect();
        let global = ir
            .globals
            .iter()
            .map(|g| next(g.kind() != VarKind::Scalar))
            .collect();
        AggSlots { var, global, len }
    }

    /// The slot of an aggregate location.
    #[inline]
    pub fn of(&self, loc: Loc) -> u32 {
        match loc {
            Loc::Var(v) => self.var[v.index()],
            Loc::Global(g) => self.global[g.index()],
        }
    }
}

/// The lowered step program (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// The ops; execution of a step starts at [`entry`](Self::entry).
    pub ops: Vec<Op>,
    /// Per op: it belongs to a dynamic instruction (recovery skips it).
    pub dynamic: Vec<bool>,
    /// Per op: the IR position it was lowered from, `(block, inst)`;
    /// `inst` is the block's instruction count for its terminator ops
    /// (a plain close at the block end belongs to its last instruction).
    pub pos: Vec<(u32, u32)>,
    /// Op index where a step starts.
    pub entry: u32,
    /// The replay ops of every action, each action's a contiguous range
    /// ([`ActionCode::replay`]). They hold no control, record or `Next`
    /// op.
    pub replay: Vec<Op>,
    /// Per action: the op index slow execution resumes at after a
    /// recovery ending at that action. For an action closed by a dynamic
    /// terminator it is the terminator's branch op, which recovery takes
    /// with the recorded value.
    pub resume: Vec<u32>,
    /// Constant operands ([`Rk`]).
    pub consts: Vec<i64>,
    /// External-call argument lists ([`Op::CallExt`]).
    pub args: Vec<Rk>,
    /// Switch tables ([`Op::Switch`]).
    pub switches: Vec<SwitchTable>,
    /// `next(...)` sites ([`Op::Next`]).
    pub nexts: Vec<NextSite>,
    /// `main`'s parameters, in order.
    pub params: Vec<ParamSlot>,
    /// Aggregate slot assignment.
    pub slots: AggSlots,
}

struct Lowerer {
    slots: AggSlots,
    ops: Vec<Op>,
    dynamic: Vec<bool>,
    pos: Vec<(u32, u32)>,
    /// The IR position being lowered.
    at: (u32, u32),
    consts: Vec<i64>,
    const_ix: HashMap<i64, u32>,
    args: Vec<Rk>,
    /// Switch cases and default as blocks, made tables at the end.
    switch_blocks: Vec<(Vec<(i64, BlockId)>, BlockId)>,
    nexts: Vec<NextSite>,
    replay: Vec<Op>,
    /// Where the open group's replay ops start.
    group: u32,
}

impl Lowerer {
    fn konst(&mut self, c: i64) -> Rk {
        let next = self.consts.len() as u32;
        let k = *self.const_ix.entry(c).or_insert(next);
        if k == next {
            self.consts.push(c);
        }
        Rk::konst(k)
    }

    fn rk(&mut self, o: Operand) -> Rk {
        match o {
            Operand::Var(v) => Rk::reg(v.0),
            Operand::Const(c) => self.konst(c),
        }
    }

    /// Emits `op`; a dynamic op (always inside a group) is also one of
    /// the group's replay ops, fused with the group's last replay op
    /// when that loads its element index ([`fuse`]).
    fn emit(&mut self, op: Op, dynamic: bool) {
        self.ops.push(op);
        self.dynamic.push(dynamic);
        self.pos.push(self.at);
        if dynamic {
            let last = self.replay.len().checked_sub(1);
            match last
                .filter(|&at| at >= self.group as usize)
                .and_then(|at| Some((at, fuse(self.replay[at], op)?)))
            {
                Some((at, fused)) => self.replay[at] = fused,
                None => self.replay.push(op),
            }
        }
    }

    /// Emits a placeholder capture, and its load dual for replay.
    fn capture(&mut self, ph: Op, load: Op) {
        self.emit(ph, false);
        self.replay.push(load);
    }

    /// Opens a group: its replay ops start here.
    fn open(&mut self) {
        self.group = self.replay.len() as u32;
    }

    /// Closes `action`'s group as a node of `kind`.
    fn close(&self, actions: &mut [ActionCode], action: u32, kind: ActionKind) {
        let a = &mut actions[action as usize];
        a.kind = kind;
        a.replay = self.group..self.replay.len() as u32;
    }

    fn slot(&self, loc: Loc) -> u32 {
        self.slots.of(loc)
    }

    /// Emits the op executing `inst`.
    fn exec(&mut self, inst: &Inst, token_widths: &[u32], dy: bool) {
        let op = match *inst {
            Inst::Bin { op, dst, a, b } => bin(op, dst.0, a, b),
            Inst::Un { op, dst, a } => match a {
                Operand::Var(v) => Op::Un {
                    op,
                    dst: dst.0,
                    a: v.0,
                },
                Operand::Const(c) => Op::CopyI {
                    dst: dst.0,
                    imm: facile_ir::lower::eval_unop(op, c),
                },
            },
            Inst::Copy { dst, src } | Inst::Verify { dst, src } => copy(dst.0, src),
            Inst::LoadGlobal { dst, g } => Op::LoadGlobal { dst: dst.0, g: g.0 },
            Inst::StoreGlobal { g, src } => match src {
                Operand::Var(v) => Op::StoreGlobalR { g: g.0, src: v.0 },
                Operand::Const(c) => Op::StoreGlobalI { g: g.0, imm: c },
            },
            Inst::ElemGet { dst, agg, idx } => Op::ElemGet {
                dst: dst.0,
                agg: self.slot(agg),
                idx: self.rk(idx),
            },
            Inst::ElemSet { agg, idx, src } => Op::ElemSet {
                agg: self.slot(agg),
                idx: self.rk(idx),
                src: self.rk(src),
            },
            Inst::AggCopy { dst, src } => Op::AggCopy {
                dst: self.slot(dst),
                src: self.slot(src),
            },
            Inst::ArrFill { arr, fill } => Op::ArrFill {
                arr: self.slot(arr),
                fill: self.rk(fill),
            },
            Inst::Queue { op, q, args, dst } => {
                let q = self.slot(q);
                let a0 = self.rk(args[0].unwrap_or(Operand::Const(0)));
                let a1 = self.rk(args[1].unwrap_or(Operand::Const(0)));
                match (op, dst) {
                    (QueueOp::Get, Some(d)) => Op::QueueGet {
                        dst: d.0,
                        q,
                        idx: a0,
                    },
                    (QueueOp::Len, Some(d)) => Op::QueueLen { dst: d.0, q },
                    _ => Op::Queue {
                        op,
                        q,
                        a0,
                        a1,
                        dst: dst.map_or(NO_REG, |d| d.0),
                    },
                }
            }
            Inst::FetchToken { dst, stream, token } => Op::FetchToken {
                dst: dst.0,
                addr: self.rk(stream),
                bits: token_widths[token.index()],
            },
            Inst::CallExt { ext, ref args, dst } => {
                let off = self.args.len() as u32;
                for &a in args {
                    let a = self.rk(a);
                    self.args.push(a);
                }
                Op::CallExt {
                    dst: dst.map_or(NO_REG, |d| d.0),
                    ext: ext.0,
                    args: off,
                    len: args.len() as u32,
                }
            }
            Inst::MemLoad { width, dst, addr } => Op::MemLoad {
                bytes: width.bytes() as u32,
                dst: dst.0,
                addr: self.rk(addr),
            },
            Inst::MemStore { width, addr, src } => Op::MemStore {
                bytes: width.bytes() as u32,
                addr: self.rk(addr),
                src: self.rk(src),
            },
            Inst::CountCycles { n } => Op::CountCycles { n: self.rk(n) },
            Inst::CountInsns { n } => Op::CountInsns { n: self.rk(n) },
            Inst::Trace { v } => Op::Trace { v: self.rk(v) },
            // Emitted by the caller: they carry an action number.
            Inst::Halt { .. } | Inst::SetNext { .. } => unreachable!("lowered with its action"),
            // Lifts only record; the real state already holds the values.
            Inst::LiftVar { .. } | Inst::LiftGlobal { .. } | Inst::LiftAgg { .. } => return,
        };
        self.emit(op, dy);
    }
}

/// The one replay op doing `ld` then `op`, when `ld` is the
/// placeholder load of the register `op` indexes an element with. The
/// fused op still writes the register, so no later reader of it changes.
fn fuse(ld: Op, op: Op) -> Option<Op> {
    let Op::LdR { r } = ld else {
        return None;
    };
    match op {
        Op::ElemGet { dst, agg, idx } if idx.as_reg() == Some(r) => {
            Some(Op::LdElemGet { dst, agg, r })
        }
        Op::ElemSet { agg, idx, src } if idx.as_reg() == Some(r) => {
            Some(Op::LdElemSet { agg, r, src })
        }
        _ => None,
    }
}

/// A binop, specialised by operator and operand kind.
fn bin(op: BinOp, dst: u32, a: Operand, b: Operand) -> Op {
    use facile_ir::lower::eval_binop;
    match (a, b) {
        (Operand::Var(a), Operand::Var(b)) => {
            let (a, b) = (a.0, b.0);
            match op {
                BinOp::Add => Op::AddRR { dst, a, b },
                BinOp::Sub => Op::SubRR { dst, a, b },
                BinOp::Eq => Op::EqRR { dst, a, b },
                BinOp::Ne => Op::NeRR { dst, a, b },
                BinOp::Lt => Op::LtRR { dst, a, b },
                _ => Op::BinRR { op, dst, a, b },
            }
        }
        (Operand::Var(a), Operand::Const(imm)) => {
            let a = a.0;
            match op {
                BinOp::Add => Op::AddRI { dst, a, imm },
                // a - c == a + (-c) under wrapping arithmetic, MIN included.
                BinOp::Sub => Op::AddRI {
                    dst,
                    a,
                    imm: imm.wrapping_neg(),
                },
                BinOp::And => Op::AndRI { dst, a, imm },
                BinOp::Shr => Op::ShrRI {
                    dst,
                    a,
                    sh: imm as u32 & 63,
                },
                BinOp::Eq => Op::EqRI { dst, a, imm },
                BinOp::Ne => Op::NeRI { dst, a, imm },
                BinOp::Lt => Op::LtRI { dst, a, imm },
                BinOp::Gt => Op::GtRI { dst, a, imm },
                _ => Op::BinRI { op, dst, a, imm },
            }
        }
        (Operand::Const(imm), Operand::Var(b)) => Op::BinIR {
            op,
            dst,
            imm,
            b: b.0,
        },
        (Operand::Const(a), Operand::Const(b)) => Op::CopyI {
            dst,
            imm: eval_binop(op, a, b),
        },
    }
}

/// Applies `f` to each jump-target field of `op`.
fn for_each_target(op: &mut Op, mut f: impl FnMut(&mut u32)) {
    match op {
        Op::Jump { to } => f(to),
        Op::Br { then_, else_, .. }
        | Op::BrAndRR { then_, else_, .. }
        | Op::BrLtRR { then_, else_, .. }
        | Op::BrLtRI { then_, else_, .. }
        | Op::BrEqRI { then_, else_, .. } => {
            f(then_);
            f(else_);
        }
        _ => {}
    }
}

fn copy(dst: u32, src: Operand) -> Op {
    match src {
        Operand::Var(v) => Op::CopyR { dst, src: v.0 },
        Operand::Const(imm) => Op::CopyI { dst, imm },
    }
}

/// Block layout: depth-first from the entry, placing a block's jump
/// target right after it when it is still unplaced, so the jump becomes
/// a fall-through. Only reachable blocks are laid out.
fn layout(f: &IrFunction) -> Vec<BlockId> {
    let mut placed = vec![false; f.blocks.len()];
    let mut order = Vec::new();
    let mut stack = vec![f.entry];
    while let Some(mut b) = stack.pop() {
        // Follow the fall-through chain from `b`.
        while !placed[b.index()] {
            placed[b.index()] = true;
            order.push(b);
            let term = &f.blocks[b.index()].term;
            // Push the other successors, the first on top (visited first).
            let n = stack.len();
            stack.extend(term.successors().filter(|s| !placed[s.index()]));
            stack[n..].reverse();
            match term {
                Terminator::Jump(t) => b = *t,
                _ => break,
            }
        }
    }
    order
}

/// Lowers a step (its IR, action table and slow-engine annotations) into
/// its [`Program`], and sets every action's kind and replay range.
pub fn lower(ir: &IrProgram, actions: &mut [ActionCode], blocks: &[BlockAnnot]) -> Program {
    let f = &ir.main;
    let order = layout(f);
    let mut lw = Lowerer {
        slots: AggSlots::new(ir),
        ops: Vec::new(),
        dynamic: Vec::new(),
        pos: Vec::new(),
        at: (0, 0),
        consts: Vec::new(),
        const_ix: HashMap::new(),
        args: Vec::new(),
        switch_blocks: Vec::new(),
        nexts: Vec::new(),
        replay: Vec::new(),
        group: 0,
    };
    // Op index of each block's first op, of each instruction position
    // (`insts.len()` = the terminator, after any plain close) and of each
    // block's branch op.
    let mut block_op = vec![u32::MAX; f.blocks.len()];
    let mut inst_base = Vec::with_capacity(f.blocks.len());
    let mut n_pos = 0;
    for b in &f.blocks {
        inst_base.push(n_pos);
        n_pos += b.insts.len() + 1;
    }
    let mut inst_op = vec![u32::MAX; n_pos];
    let mut branch_op = vec![u32::MAX; f.blocks.len()];

    for (pos, &bid) in order.iter().enumerate() {
        let bi = bid.index();
        let block = &f.blocks[bi];
        let annots = &blocks[bi];
        block_op[bi] = lw.ops.len() as u32;
        let at = &mut inst_op[inst_base[bi]..inst_base[bi] + block.insts.len() + 1];
        // The group open at this point (statically known: groups never
        // span blocks).
        let mut open: Option<u32> = None;
        for (ii, (inst, annot)) in block.insts.iter().zip(&annots.insts).enumerate() {
            at[ii] = lw.ops.len() as u32;
            lw.at = (bid.0, ii as u32);
            let dy = annot.dynamic;
            if dy {
                if let Some(a) = annot.action_start {
                    lw.emit(Op::Start { action: a }, false);
                    lw.open();
                    open = Some(a);
                }
                if annot.closes != Some(Closes::Index) {
                    match &annot.lift {
                        Some(LiftWhat::Var(v)) => {
                            lw.capture(Op::PhR { r: v.0 }, Op::LdR { r: v.0 })
                        }
                        Some(LiftWhat::Global(g)) => {
                            lw.capture(Op::PhG { g: g.0 }, Op::LdG { g: g.0 })
                        }
                        Some(LiftWhat::Agg(loc)) => {
                            let agg = lw.slot(*loc);
                            lw.capture(Op::PhAgg { agg }, Op::LdAgg { agg });
                        }
                        None => {
                            for &k in &annot.placeholders {
                                let Some(Operand::Var(v)) = inst.operands().nth(k as usize) else {
                                    unreachable!("placeholders are variable operands");
                                };
                                lw.capture(Op::PhR { r: v.0 }, Op::LdR { r: v.0 });
                            }
                        }
                    }
                }
            }
            match inst {
                Inst::Halt { code } => {
                    let code = lw.rk(*code);
                    let action = open.expect("a dynamic instruction is inside a group");
                    lw.emit(Op::Halt { code, action }, true);
                }
                Inst::SetNext { args } => {
                    let action = open.expect("a dynamic instruction is inside a group");
                    let comps = args
                        .iter()
                        .enumerate()
                        .map(|(j, a)| KeyComp {
                            src: match a {
                                KeyArg::Scalar(o) => KeySrc::Scalar(lw.rk(*o)),
                                KeyArg::Queue(loc) => KeySrc::Queue(lw.slot(*loc)),
                            },
                            rt: annot.placeholders.contains(&(j as u8)),
                        })
                        .collect();
                    let site = lw.nexts.len() as u32;
                    lw.nexts.push(NextSite { action, comps });
                    lw.emit(Op::Next { site }, false);
                    lw.close(actions, action, ActionKind::Index { site });
                    open = None;
                }
                Inst::Verify { dst, .. } if annot.closes == Some(Closes::Verify) => {
                    let action = open.expect("a dynamic instruction is inside a group");
                    lw.exec(inst, &ir.token_widths, dy);
                    lw.emit(Op::CloseVerify { action, dst: dst.0 }, false);
                    // The verified value is the copy's destination.
                    let src = Rk::reg(dst.0);
                    lw.close(actions, action, ActionKind::Test { src });
                    open = None;
                }
                _ => lw.exec(inst, &ir.token_widths, dy),
            }
        }
        if annots.term_action.is_none() {
            if let Some(action) = open {
                lw.emit(Op::ClosePlain { action }, false);
                lw.close(actions, action, ActionKind::Plain);
            }
        }
        at[block.insts.len()] = lw.ops.len() as u32;
        lw.at = (bid.0, block.insts.len() as u32);

        // The terminator.
        let next_block = order.get(pos + 1).copied();
        if let Some(action) = annots.term_action {
            let (Terminator::Branch {
                cond: Operand::Var(src),
                ..
            }
            | Terminator::Switch {
                val: Operand::Var(src),
                ..
            }) = block.term
            else {
                unreachable!("a dynamic terminator tests a variable");
            };
            lw.emit(
                Op::TestClose {
                    action,
                    src: src.0,
                    open: open.is_some(),
                },
                false,
            );
            if open.is_none() {
                // A test of its own: no replay ops.
                lw.open();
            }
            let src = Rk::reg(src.0);
            lw.close(actions, action, ActionKind::Test { src });
        }
        branch_op[bi] = lw.ops.len() as u32;
        // Jump targets are block ids until every block has its op index.
        let jump = |lw: &mut Lowerer, t: BlockId| {
            if Some(t) != next_block {
                lw.emit(Op::Jump { to: t.0 }, false);
            }
        };
        match &block.term {
            Terminator::Jump(t) => jump(&mut lw, *t),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => match cond {
                Operand::Const(c) => jump(&mut lw, if *c != 0 { *then_bb } else { *else_bb }),
                Operand::Var(v) => lw.emit(
                    Op::Br {
                        cond: v.0,
                        then_: then_bb.0,
                        else_: else_bb.0,
                    },
                    false,
                ),
            },
            Terminator::Switch {
                val,
                cases,
                default,
            } => match val {
                Operand::Const(c) => {
                    let t = cases
                        .iter()
                        .find(|(k, _)| k == c)
                        .map_or(*default, |&(_, t)| t);
                    jump(&mut lw, t);
                }
                Operand::Var(v) => {
                    let table = lw.switch_blocks.len() as u32;
                    lw.switch_blocks.push((cases.clone(), *default));
                    lw.emit(Op::Switch { val: v.0, table }, false);
                }
            },
            Terminator::Return => lw.emit(Op::Ret, false),
        }
    }

    // Jump targets: block ids to op indices, then jump chains followed
    // to their end (bounded, in case of a jump cycle).
    for op in &mut lw.ops {
        for_each_target(op, |t| *t = block_op[*t as usize]);
    }
    let chase = |ops: &[Op], mut t: u32| {
        for _ in 0..ops.len() {
            match ops[t as usize] {
                Op::Jump { to } if to != t => t = to,
                _ => break,
            }
        }
        t
    };
    for i in 0..lw.ops.len() {
        let mut op = lw.ops[i];
        for_each_target(&mut op, |t| *t = chase(&lw.ops, *t));
        lw.ops[i] = op;
    }
    let target = |b: BlockId| chase(&lw.ops, block_op[b.index()]);
    let switches = lw
        .switch_blocks
        .iter()
        .map(|(cases, default)| {
            let cases: Vec<(i64, u32)> = cases.iter().map(|&(c, b)| (c, target(b))).collect();
            SwitchTable {
                cases,
                default: target(*default),
            }
        })
        .collect();

    let resume = actions
        .iter()
        .map(|a| match a.resume {
            Resume::AtInst { block, inst } => inst_op[inst_base[block.index()] + inst as usize],
            Resume::AtTerm { block } => branch_op[block.index()],
        })
        .collect();
    let params = f
        .params
        .iter()
        .map(|&p| match f.var(p).kind {
            VarKind::Scalar => ParamSlot::Reg(p.0),
            _ => ParamSlot::Queue(lw.slots.var[p.index()]),
        })
        .collect();
    Program {
        entry: block_op[f.entry.index()],
        ops: lw.ops,
        dynamic: lw.dynamic,
        pos: lw.pos,
        resume,
        consts: lw.consts,
        args: lw.args,
        switches,
        nexts: lw.nexts,
        replay: lw.replay,
        params,
        slots: lw.slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CodegenConfig, CompiledStep};
    use facile_lang::diag::Diagnostics;
    use facile_lang::parser::parse;

    fn compiled(src: &str) -> CompiledStep {
        let mut diags = Diagnostics::new();
        let prog = parse(src, &mut diags);
        let syms = facile_sema::analyze(&prog, &mut diags);
        assert!(!diags.has_errors(), "{}", diags.render_all(src));
        let ir = facile_ir::lower::lower(&prog, &syms, &mut diags).expect("lowering succeeds");
        compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
    }

    /// `c`'s plain lowering, before [`optimize`].
    fn plain(c: &CompiledStep) -> Program {
        lower(&c.ir, &mut c.actions.clone(), &c.blocks)
    }

    #[test]
    fn switch_tables_take_the_first_matching_case() {
        let t = SwitchTable {
            cases: vec![(1, 10), (1, 20), (3, 30)],
            default: 99,
        };
        assert_eq!(t.target(1), 10);
        assert_eq!(t.target(2), 99);
        assert_eq!(t.target(3), 30);
        assert_eq!(t.target(i64::MIN), 99);
    }

    #[test]
    fn operands_are_specialised_and_constants_folded() {
        let c = compiled(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               R[0] = R[0] - 3;\n\
               R[1] = R[x % 4] & 255;\n\
               next(x + 1);\n\
             }",
        );
        let ops = &c.program.ops;
        // Subtracting a constant is adding its negation.
        assert!(
            ops.iter().any(|o| matches!(o, Op::AddRI { imm: -3, .. })),
            "{ops:?}"
        );
        assert!(
            ops.iter().any(|o| matches!(o, Op::AndRI { imm: 255, .. })),
            "{ops:?}"
        );
        assert!(!ops
            .iter()
            .any(|o| matches!(o, Op::BinRI { op: BinOp::Sub, .. })));
    }

    #[test]
    fn control_flow_is_resolved_to_op_indices() {
        let c = compiled(
            "val R = array(4){0};\n\
             fun main(x : int) {\n\
               if (x == 5) { R[0] = 1; } else { R[1] = 2; }\n\
               if (R[2] == 0) { count_cycles(1); }\n\
               next(x + 1);\n\
             }",
        );
        let p = &plain(&c);
        assert_eq!(p.entry, 0, "the entry block is laid out first");
        // The rt-static test is a compare and a branch; no jump lands on
        // a jump.
        assert!(
            p.ops.iter().any(|o| matches!(o, Op::EqRI { imm: 5, .. })),
            "{p:?}"
        );
        for op in &p.ops {
            if let Op::Jump { to } = op {
                assert!(!matches!(p.ops[*to as usize], Op::Jump { .. }), "{p:?}");
            }
        }
        // The dynamic branch is a test node: its close precedes the `Br`,
        // which is where its action resumes.
        let (i, action) = p
            .ops
            .iter()
            .enumerate()
            .find_map(|(i, o)| match o {
                Op::TestClose { action, .. } => Some((i, *action)),
                _ => None,
            })
            .expect("the dynamic branch closes a test action");
        assert!(matches!(p.ops[i + 1], Op::Br { .. }));
        assert_eq!(p.resume[action as usize] as usize, i + 1);
        assert!(p.dynamic.iter().any(|&d| d), "dynamic ops are marked");
    }

    #[test]
    fn optimization_fuses_retargets_and_threads() {
        // The ooo simulator's writer-distance aging loop, on a queue the
        // key carries (so all of it is run-time static).
        let c = compiled(
            "fun main(wd : queue, x : int) {\n\
               val i = 1;\n\
               while (i < 32) {\n\
                 val d = wd?get(i);\n\
                 if (d != 0 && d < 33) { wd?set(i, d + 1); }\n\
                 i = i + 1;\n\
               }\n\
               if (x == 5) { count_cycles(1); }\n\
               next(wd, x + 1);\n\
             }",
        );
        let (p, before) = (&c.program, plain(&c));
        let count = |ops: &[Op], f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
        let jumps = |ops: &[Op]| count(ops, |o| matches!(o, Op::Jump { .. }));
        // The loop head (and its copy at the loop's end) and the `&&` are
        // fused branches; no compare result is compared with 0 again.
        assert_eq!(
            count(&p.ops, |o| matches!(o, Op::BrLtRI { imm: 32, .. })),
            2,
            "{p:?}"
        );
        assert_eq!(
            count(&p.ops, |o| matches!(o, Op::BrAndRR { .. })),
            1,
            "{p:?}"
        );
        assert_eq!(count(&p.ops, |o| matches!(o, Op::NeRI { .. })), 1, "{p:?}");
        // The increment writes the loop variable directly.
        assert!(
            !p.ops.windows(2).any(
                |w| matches!(w, [Op::AddRI { dst: t, .. }, Op::CopyR { src, .. }] if t == src)
            ),
            "{p:?}"
        );
        assert!(jumps(&p.ops) < jumps(&before.ops), "{p:?}");
        assert!(p.ops.len() + 6 <= before.ops.len(), "{before:?}\n{p:?}");
        // Every index still lands in the program.
        let n = p.ops.len() as u32;
        assert!(p.entry < n && p.resume.iter().all(|&r| r < n));
        assert_eq!((p.dynamic.len(), p.pos.len()), (p.ops.len(), p.ops.len()));
    }
}
