#![warn(missing_docs)]

//! Mid-level IR for the Facile compiler: lowering, folding, liveness.
//!
//! This crate turns a checked Facile program into a single control-flow
//! graph ([`ir::IrFunction`]) on which binding-time analysis
//! (`facile-bta`) and action extraction (`facile-codegen`) operate:
//!
//! * [`lower::lower`] — AST → IR with total inlining and decode-dispatch
//!   compilation,
//! * [`fold::fold_constants`] — compile-time constant folding and dead-code
//!   elimination (the paper's proposed optimization 5, §6.3),
//! * [`liveness`] — variable liveness and global read-before-write
//!   analysis, used to prune dead end-of-step memoization (optimization 3),
//!   over the dense [`bitset::BitSet`]s the middle end's analyses share.
//!
//! # Examples
//!
//! ```
//! use facile_lang::{parser::parse, diag::Diagnostics};
//! use facile_sema::analyze;
//! use facile_ir::lower::lower;
//!
//! let src = r#"
//!     token instr[32] fields op 26:31, rd 21:25, rs1 16:20, imm16 0:15;
//!     pat addi = op==0x10;
//!     val R = array(32){0};
//!     sem addi { R[rd] = R[rs1] + imm16?sext(16); }
//!     fun main(pc : stream) { pc?exec(); next(pc + 4); }
//! "#;
//! let mut diags = Diagnostics::new();
//! let program = parse(src, &mut diags);
//! let syms = analyze(&program, &mut diags);
//! let ir = lower(&program, &syms, &mut diags).expect("lowering succeeds");
//! assert!(!diags.has_errors(), "{}", diags.render_all(src));
//! assert_eq!(ir.main.params.len(), 1);
//! ```

pub mod bitset;
pub mod fold;
pub mod ir;
pub mod liveness;
pub mod lower;
pub mod verify;

pub use ir::{
    BinOp, Block, BlockId, GlobalDef, GlobalInit, Inst, IrFunction, IrProgram, KeyArg, Loc,
    MemWidth, Operand, QueueOp, Terminator, UnOp, VarId, VarInfo, VarKind,
};
