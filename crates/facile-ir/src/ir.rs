//! The Facile mid-level intermediate representation.
//!
//! After semantic analysis, the whole program is lowered into a **single IR
//! function** for `main` (user functions and `sem` bodies are inlined —
//! legal because the language forbids recursion, and equivalent to the
//! paper's polyvariant per-call-site divisions). The IR is a conventional
//! control-flow graph of three-address instructions over mutable virtual
//! variables.
//!
//! Everything downstream — binding-time analysis, action extraction, and
//! both execution engines — operates on this representation.

use facile_lang::span::Span;
use facile_sema::{ExtId, GlobalId, TokenId, Type};
use std::fmt;

/// A virtual variable (local slot or temporary) within the IR function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic block id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Storage shape of a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// One 64-bit value (int, bool, stream).
    Scalar,
    /// Fixed-size array of 64-bit values.
    Array(u32),
    /// Double-ended queue of 64-bit values.
    Queue,
}

/// Metadata of an IR variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Debug name (source name, or `%n` for temporaries).
    pub name: String,
    /// Storage shape.
    pub kind: VarKind,
    /// Whether this is a compiler temporary (single-assignment by
    /// construction) rather than a source variable.
    pub is_temp: bool,
}

/// An instruction operand: a scalar variable or an immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Read of a scalar variable.
    Var(VarId),
    /// Immediate constant.
    Const(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An aggregate location: a queue or array lives in a variable or a global,
/// never in a flowing value (the language has no pointers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Loc {
    /// A function-local aggregate.
    Var(VarId),
    /// A global aggregate.
    Global(GlobalId),
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Var(v) => write!(f, "{v}"),
            Loc::Global(g) => write!(f, "g{}", g.0),
        }
    }
}

/// Binary operations. Floating-point variants operate on f64 bit patterns
/// stored in i64 values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Truncating division; division by zero yields 0.
    Div,
    /// Remainder; by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 0..=63).
    Shl,
    /// Arithmetic right shift (amount masked).
    Shr,
    /// Logical right shift (amount masked).
    Shru,
    /// Equality; yields 0 or 1.
    Eq,
    /// Inequality.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// f64 addition on bit patterns.
    FAdd,
    /// f64 subtraction.
    FSub,
    /// f64 multiplication.
    FMul,
    /// f64 division.
    FDiv,
    /// f64 less-than; yields 0 or 1.
    FLt,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

/// Unary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Wrapping negation.
    Neg,
    /// Logical not (0 ↦ 1, non-zero ↦ 0).
    Not,
    /// Bitwise complement.
    BitNot,
    /// Sign-extend from the low `w` bits.
    Sext(u32),
    /// Zero all but the low `w` bits.
    Zext(u32),
    /// Integer → f64 bit pattern.
    I2F,
    /// f64 bit pattern → truncated integer.
    F2I,
}

/// Queue operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueOp {
    /// Append to the back; arg = value.
    PushBack,
    /// Prepend to the front; arg = value.
    PushFront,
    /// Remove from the back; dst = value (0 if empty).
    PopBack,
    /// Remove from the front; dst = value (0 if empty).
    PopFront,
    /// dst = current length.
    Len,
    /// dst = element at index arg (0 if out of range).
    Get,
    /// Set element at index arg0 to arg1 (ignored if out of range).
    Set,
    /// Remove all elements.
    Clear,
    /// dst = first element (0 if empty).
    Front,
    /// dst = last element (0 if empty).
    Back,
}

/// Simulated-memory access widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte.
    W1,
    /// Four bytes.
    W4,
    /// Eight bytes.
    W8,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::W1 => 1,
            MemWidth::W4 => 4,
            MemWidth::W8 => 8,
        }
    }
}

/// An argument of `next(...)`: a piece of the next step's memoization key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyArg {
    /// A scalar key component.
    Scalar(Operand),
    /// A queue key component (snapshotted by value).
    Queue(Loc),
}

impl fmt::Display for KeyArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyArg::Scalar(o) => write!(f, "{o}"),
            KeyArg::Queue(l) => write!(f, "queue {l}"),
        }
    }
}

/// A non-terminator IR instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// `dst = a <op> b`
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: VarId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = <op> a`
    Un {
        /// Operation.
        op: UnOp,
        /// Destination.
        dst: VarId,
        /// Operand.
        a: Operand,
    },
    /// `dst = src`
    Copy {
        /// Destination.
        dst: VarId,
        /// Source.
        src: Operand,
    },
    /// `dst = global`
    LoadGlobal {
        /// Destination.
        dst: VarId,
        /// Source global (scalar).
        g: GlobalId,
    },
    /// `global = src`
    StoreGlobal {
        /// Destination global (scalar).
        g: GlobalId,
        /// Source.
        src: Operand,
    },
    /// `dst = agg[idx]` — array or queue element read.
    ElemGet {
        /// Destination.
        dst: VarId,
        /// The aggregate.
        agg: Loc,
        /// Element index.
        idx: Operand,
    },
    /// `agg[idx] = src`
    ElemSet {
        /// The aggregate.
        agg: Loc,
        /// Element index.
        idx: Operand,
        /// Stored value.
        src: Operand,
    },
    /// Whole-aggregate copy (same kind and, for arrays, same size).
    AggCopy {
        /// Destination aggregate.
        dst: Loc,
        /// Source aggregate.
        src: Loc,
    },
    /// Set every element of an array to `fill` (used by `val a : array(n)`
    /// declarations and `array(n){fill}` initializers).
    ArrFill {
        /// The array.
        arr: Loc,
        /// Value stored in every element.
        fill: Operand,
    },
    /// A queue operation.
    Queue {
        /// Which operation.
        op: QueueOp,
        /// The queue.
        q: Loc,
        /// Operand(s); meaning depends on `op`.
        args: [Option<Operand>; 2],
        /// Result, for value-producing operations.
        dst: Option<VarId>,
    },
    /// `dst = text[stream]` — fetch the raw token word at a stream position.
    /// Run-time static: target text never changes (paper §4.1).
    FetchToken {
        /// Destination (the raw token bits, zero-extended).
        dst: VarId,
        /// Stream position (an address).
        stream: Operand,
        /// Token type fetched (determines width).
        token: TokenId,
    },
    /// Call an external (Rust) function. Always dynamic, never memoized.
    CallExt {
        /// Callee.
        ext: ExtId,
        /// Scalar arguments.
        args: Vec<Operand>,
        /// Result, if the external returns one.
        dst: Option<VarId>,
    },
    /// `dst = mem[addr]` — simulated data-memory load (dynamic).
    MemLoad {
        /// Access width.
        width: MemWidth,
        /// Destination.
        dst: VarId,
        /// Byte address.
        addr: Operand,
    },
    /// `mem[addr] = src` — simulated data-memory store (dynamic).
    MemStore {
        /// Access width.
        width: MemWidth,
        /// Byte address.
        addr: Operand,
        /// Stored value.
        src: Operand,
    },
    /// Advance the simulated cycle counter (dynamic).
    CountCycles {
        /// Increment.
        n: Operand,
    },
    /// Advance the retired-instruction counter (dynamic).
    CountInsns {
        /// Increment.
        n: Operand,
    },
    /// Stop the simulation at the end of this step (dynamic).
    Halt {
        /// Reason code surfaced to the host.
        code: Operand,
    },
    /// Host debug output (dynamic).
    Trace {
        /// Traced value.
        v: Operand,
    },
    /// `dst = verify(src)` — a *dynamic result test*: the slow engine
    /// records `src`'s value in the action cache; the fast engine checks it
    /// and misses on mismatch. The result is run-time static (paper §4.2).
    Verify {
        /// Destination (run-time static).
        dst: VarId,
        /// The dynamic value being tested.
        src: Operand,
    },
    /// `next(args...)` — supply the next step's memoization key.
    SetNext {
        /// Key components, matching `main`'s parameters.
        args: Vec<KeyArg>,
    },
    /// Materialize a run-time-static scalar variable into dynamic storage:
    /// the slow engine records the variable's concrete value as placeholder
    /// data; the fast engine writes it into the variable's register.
    /// Inserted by `facile-bta`'s lift pass at rt-static → dynamic merge
    /// edges.
    LiftVar {
        /// The lifted variable.
        v: VarId,
    },
    /// Materialize a run-time-static scalar global into the runtime's
    /// global storage. Inserted at merge edges and as the end-of-step
    /// flush the paper describes in §6.3 (optimization 3).
    LiftGlobal {
        /// The lifted global.
        g: GlobalId,
    },
    /// Materialize a run-time-static aggregate (whole contents) into
    /// dynamic storage before a dynamic partial write.
    LiftAgg {
        /// The lifted aggregate.
        loc: Loc,
    },
}

/// A block terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a scalar (non-zero = then).
    Branch {
        /// Condition.
        cond: Operand,
        /// Non-zero target.
        then_bb: BlockId,
        /// Zero target.
        else_bb: BlockId,
    },
    /// Multi-way switch on a scalar.
    Switch {
        /// Scrutinee.
        val: Operand,
        /// `(value, target)` pairs; values are distinct.
        cases: Vec<(i64, BlockId)>,
        /// Target when no case matches.
        default: BlockId,
    },
    /// End of the step function.
    Return,
}

impl Terminator {
    /// Iterates over successor blocks, in branch order (a switch's cases,
    /// then its default). Does not allocate.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (cases, first, second): (&[(i64, BlockId)], _, _) = match self {
            Terminator::Jump(b) => (&[], Some(*b), None),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (&[], Some(*then_bb), Some(*else_bb)),
            Terminator::Switch { cases, default, .. } => (cases, Some(*default), None),
            Terminator::Return => (&[], None, None),
        };
        cases.iter().map(|&(_, b)| b).chain(first).chain(second)
    }
}

/// A basic block: straight-line instructions plus a terminator.
///
/// Every instruction carries the source span it was lowered from
/// (parallel `spans` vector, same length as `insts`); the terminator's
/// origin is `term_span`. Spans are debug info only — they never affect
/// execution — and passes that insert or remove instructions must keep
/// the two vectors in lockstep. [`Span::DUMMY`] marks compiler-created
/// instructions with no single source site.
#[derive(Clone, Debug)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// Source span of each instruction (parallel to `insts`).
    pub spans: Vec<Span>,
    /// The terminator.
    pub term: Terminator,
    /// Source span of the terminator.
    pub term_span: Span,
}

impl Block {
    /// An empty block ending in `Return` (placeholder during construction).
    pub fn new() -> Self {
        Block {
            insts: Vec::new(),
            spans: Vec::new(),
            term: Terminator::Return,
            term_span: Span::DUMMY,
        }
    }

    /// A block with the given instructions and terminator, every span
    /// unknown. For synthetic blocks and tests.
    pub fn with_insts(insts: Vec<Inst>, term: Terminator) -> Self {
        let spans = vec![Span::DUMMY; insts.len()];
        Block {
            insts,
            spans,
            term,
            term_span: Span::DUMMY,
        }
    }

    /// Source span of instruction `i`; [`Span::DUMMY`] when none was
    /// recorded (tolerates spans that were never threaded).
    pub fn span_at(&self, i: usize) -> Span {
        self.spans.get(i).copied().unwrap_or(Span::DUMMY)
    }

    /// Appends an instruction with its source span.
    pub fn push_inst(&mut self, inst: Inst, span: Span) {
        self.insts.push(inst);
        self.spans.push(span);
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// How a global starts out before simulation begins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalInit {
    /// Scalar with a constant initial value.
    Scalar(i64),
    /// Array of `size` elements all set to `fill`.
    Array {
        /// Element count.
        size: u32,
        /// Initial value of every element.
        fill: i64,
    },
    /// Queue, initially empty.
    Queue,
}

/// A lowered global definition.
#[derive(Clone, Debug)]
pub struct GlobalDef {
    /// Source name.
    pub name: String,
    /// Initial state.
    pub init: GlobalInit,
}

impl GlobalDef {
    /// Storage shape of the global.
    pub fn kind(&self) -> VarKind {
        match self.init {
            GlobalInit::Scalar(_) => VarKind::Scalar,
            GlobalInit::Array { size, .. } => VarKind::Array(size),
            GlobalInit::Queue => VarKind::Queue,
        }
    }
}

/// The lowered step function.
#[derive(Clone, Debug)]
pub struct IrFunction {
    /// Parameter variables, in order. These are the memoization key.
    pub params: Vec<VarId>,
    /// Semantic types of the parameters (for key serialization).
    pub param_types: Vec<Type>,
    /// All variables.
    pub vars: Vec<VarInfo>,
    /// All basic blocks.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
}

impl IrFunction {
    /// The block with id `b`.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Metadata of variable `v`.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Blocks in reverse postorder from the entry (unreachable blocks are
    /// omitted).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(s) = self.blocks[b.index()].term.successors().nth(*next) {
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

/// A whole lowered program: globals plus the inlined step function.
#[derive(Clone, Debug)]
pub struct IrProgram {
    /// Global definitions, indexed by [`GlobalId`].
    pub globals: Vec<GlobalDef>,
    /// The step function (`main` with everything inlined).
    pub main: IrFunction,
    /// Bit width of each declared token, indexed by [`TokenId`].
    pub token_widths: Vec<u32>,
    /// Names of external functions, indexed by [`ExtId`] — the hosting
    /// runtime binds Rust closures to these.
    pub ext_names: Vec<String>,
}

impl Inst {
    /// The destination variable written by this instruction, if any.
    pub fn dst(&self) -> Option<VarId> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::LoadGlobal { dst, .. }
            | Inst::ElemGet { dst, .. }
            | Inst::FetchToken { dst, .. }
            | Inst::MemLoad { dst, .. }
            | Inst::Verify { dst, .. } => Some(*dst),
            Inst::Queue { dst, .. } | Inst::CallExt { dst, .. } => *dst,
            _ => None,
        }
    }

    /// All scalar operands read by this instruction, in order. Does not
    /// allocate: the engines call it while recording.
    pub fn operands(&self) -> Operands<'_> {
        let inline = |ops: &[Operand]| {
            let mut buf = [Operand::Const(0); 2];
            buf[..ops.len()].copy_from_slice(ops);
            Operands::Inline {
                ops: buf,
                next: 0,
                len: ops.len() as u8,
            }
        };
        match self {
            Inst::Bin { a, b, .. } => inline(&[*a, *b]),
            Inst::Un { a: x, .. }
            | Inst::Copy { src: x, .. }
            | Inst::StoreGlobal { src: x, .. }
            | Inst::ElemGet { idx: x, .. }
            | Inst::ArrFill { fill: x, .. }
            | Inst::FetchToken { stream: x, .. }
            | Inst::MemLoad { addr: x, .. }
            | Inst::CountCycles { n: x }
            | Inst::CountInsns { n: x }
            | Inst::Halt { code: x }
            | Inst::Trace { v: x }
            | Inst::Verify { src: x, .. } => inline(&[*x]),
            Inst::ElemSet { idx, src, .. } => inline(&[*idx, *src]),
            Inst::MemStore { addr, src, .. } => inline(&[*addr, *src]),
            Inst::Queue { args, .. } => match args {
                [Some(a), Some(b)] => inline(&[*a, *b]),
                [Some(x), None] | [None, Some(x)] => inline(&[*x]),
                [None, None] => inline(&[]),
            },
            Inst::CallExt { args, .. } => Operands::Slice(args.iter()),
            Inst::SetNext { args } => Operands::Key(args.iter()),
            Inst::LoadGlobal { .. }
            | Inst::AggCopy { .. }
            | Inst::LiftVar { .. }
            | Inst::LiftGlobal { .. }
            | Inst::LiftAgg { .. } => inline(&[]),
        }
    }

    /// Whether the instruction has no effect other than writing `dst`
    /// (reads of globals/aggregates/text count as pure; they may be
    /// removed when the result is unused).
    pub fn is_pure(&self) -> bool {
        match self {
            Inst::Bin { .. }
            | Inst::Un { .. }
            | Inst::Copy { .. }
            | Inst::LoadGlobal { .. }
            | Inst::ElemGet { .. }
            | Inst::FetchToken { .. } => true,
            Inst::Queue { op, .. } => {
                matches!(op, QueueOp::Len | QueueOp::Get | QueueOp::Front | QueueOp::Back)
            }
            _ => false,
        }
    }
}

/// Iterator over an instruction's scalar operands ([`Inst::operands`]).
#[derive(Clone, Debug)]
pub enum Operands<'a> {
    /// Up to two operands held inline.
    Inline {
        /// The operands; only the first `len` are meaningful.
        ops: [Operand; 2],
        /// Position of the next operand to yield.
        next: u8,
        /// Number of operands.
        len: u8,
    },
    /// An external call's argument list.
    Slice(std::slice::Iter<'a, Operand>),
    /// The scalar components of a `next(...)` key.
    Key(std::slice::Iter<'a, KeyArg>),
}

impl Iterator for Operands<'_> {
    type Item = Operand;

    fn next(&mut self) -> Option<Operand> {
        match self {
            Operands::Inline { ops, next, len } => {
                let op = ops[..*len as usize].get(*next as usize).copied();
                *next += op.is_some() as u8;
                op
            }
            Operands::Slice(it) => it.next().copied(),
            Operands::Key(it) => it.find_map(|a| match a {
                KeyArg::Scalar(o) => Some(*o),
                KeyArg::Queue(_) => None,
            }),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Bin { op, dst, a, b } => write!(f, "{dst} = {op:?} {a}, {b}"),
            Inst::Un { op, dst, a } => write!(f, "{dst} = {op:?} {a}"),
            Inst::Copy { dst, src } => write!(f, "{dst} = {src}"),
            Inst::LoadGlobal { dst, g } => write!(f, "{dst} = g{}", g.0),
            Inst::StoreGlobal { g, src } => write!(f, "g{} = {src}", g.0),
            Inst::ElemGet { dst, agg, idx } => write!(f, "{dst} = {agg}[{idx}]"),
            Inst::ElemSet { agg, idx, src } => write!(f, "{agg}[{idx}] = {src}"),
            Inst::AggCopy { dst, src } => write!(f, "aggcopy {dst} = {src}"),
            Inst::ArrFill { arr, fill } => write!(f, "arrfill {arr}, {fill}"),
            Inst::Queue { op, q, args, dst } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "queue.{op:?} {q}")?;
                for a in args.iter().flatten() {
                    write!(f, ", {a}")?;
                }
                Ok(())
            }
            Inst::FetchToken { dst, stream, token } => {
                write!(f, "{dst} = fetch_token t{} [{stream}]", token.0)
            }
            Inst::CallExt { ext, args, dst } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "call_ext e{}(", ext.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::MemLoad { width, dst, addr } => {
                write!(f, "{dst} = mem{}[{addr}]", width.bytes())
            }
            Inst::MemStore { width, addr, src } => {
                write!(f, "mem{}[{addr}] = {src}", width.bytes())
            }
            Inst::CountCycles { n } => write!(f, "count_cycles {n}"),
            Inst::CountInsns { n } => write!(f, "count_insns {n}"),
            Inst::Halt { code } => write!(f, "halt {code}"),
            Inst::Trace { v } => write!(f, "trace {v}"),
            Inst::Verify { dst, src } => write!(f, "{dst} = verify {src}"),
            Inst::SetNext { args } => {
                write!(f, "next(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::LiftVar { v } => write!(f, "lift {v}"),
            Inst::LiftGlobal { g } => write!(f, "lift g{}", g.0),
            Inst::LiftAgg { loc } => write!(f, "lift_agg {loc}"),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jump {b}"),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => write!(f, "branch {cond} ? {then_bb} : {else_bb}"),
            Terminator::Switch {
                val,
                cases,
                default,
            } => {
                write!(f, "switch {val} [")?;
                for (i, (v, b)) in cases.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v} -> {b}")?;
                }
                write!(f, "] default {default}")
            }
            Terminator::Return => write!(f, "return"),
        }
    }
}

impl fmt::Display for IrFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fun main(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}: {:?}", self.var(*p).kind)?;
        }
        writeln!(f, ") {{")?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{i}:")?;
            for inst in &b.insts {
                writeln!(f, "    {inst}")?;
            }
            writeln!(f, "    {}", b.term)?;
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors().collect::<Vec<_>>(), vec![BlockId(3)]);
        assert_eq!(
            Terminator::Branch {
                cond: Operand::Const(1),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            }
            .successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
        assert_eq!(Terminator::Return.successors().collect::<Vec<_>>(), vec![]);
        let sw = Terminator::Switch {
            val: Operand::Const(0),
            cases: vec![(1, BlockId(5)), (2, BlockId(6))],
            default: BlockId(7),
        };
        assert_eq!(
            sw.successors().collect::<Vec<_>>(),
            vec![BlockId(5), BlockId(6), BlockId(7)]
        );
    }

    #[test]
    fn inst_dst_and_operands() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: VarId(3),
            a: Operand::Var(VarId(1)),
            b: Operand::Const(4),
        };
        assert_eq!(i.dst(), Some(VarId(3)));
        assert_eq!(i.operands().count(), 2);
        assert!(i.is_pure());

        let s = Inst::MemStore {
            width: MemWidth::W8,
            addr: Operand::Var(VarId(0)),
            src: Operand::Const(9),
        };
        assert_eq!(s.dst(), None);
        assert!(!s.is_pure());
    }

    #[test]
    fn queue_purity_by_op() {
        let len = Inst::Queue {
            op: QueueOp::Len,
            q: Loc::Var(VarId(0)),
            args: [None, None],
            dst: Some(VarId(1)),
        };
        assert!(len.is_pure());
        let push = Inst::Queue {
            op: QueueOp::PushBack,
            q: Loc::Var(VarId(0)),
            args: [Some(Operand::Const(1)), None],
            dst: None,
        };
        assert!(!push.is_pure());
    }

    #[test]
    fn reverse_postorder_visits_reachable_only() {
        // bb0 -> bb1 -> bb2(return); bb3 unreachable.
        let f = IrFunction {
            params: vec![],
            param_types: vec![],
            vars: vec![],
            blocks: vec![
                Block::with_insts(vec![], Terminator::Jump(BlockId(1))),
                Block::with_insts(vec![], Terminator::Jump(BlockId(2))),
                Block::with_insts(vec![], Terminator::Return),
                Block::with_insts(vec![], Terminator::Return),
            ],
            entry: BlockId(0),
        };
        let rpo = f.reverse_postorder();
        assert_eq!(rpo, vec![BlockId(0), BlockId(1), BlockId(2)]);
    }

    #[test]
    fn reverse_postorder_on_diamond() {
        // bb0 branches to bb1/bb2, both jump to bb3.
        let f = IrFunction {
            params: vec![],
            param_types: vec![],
            vars: vec![],
            blocks: vec![
                Block::with_insts(
                    vec![],
                    Terminator::Branch {
                        cond: Operand::Const(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                ),
                Block::with_insts(vec![], Terminator::Jump(BlockId(3))),
                Block::with_insts(vec![], Terminator::Jump(BlockId(3))),
                Block::with_insts(vec![], Terminator::Return),
            ],
            entry: BlockId(0),
        };
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn display_is_nonempty() {
        let i = Inst::Verify {
            dst: VarId(1),
            src: Operand::Var(VarId(0)),
        };
        assert_eq!(i.to_string(), "v1 = verify v0");
    }
}
