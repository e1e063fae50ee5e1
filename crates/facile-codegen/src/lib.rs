#![warn(missing_docs)]

//! Action extraction and engine generation for fast-forwarding simulators.
//!
//! [`compile`] is the back half of the Facile compiler pipeline: it takes
//! lowered IR, runs compile-time constant folding (`facile-ir::fold`),
//! binding-time analysis and lift insertion (`facile-bta`), and extracts
//! the dynamic-action table ([`actions::extract_actions`]), then lowers
//! the step once into one [`Program`] ([`program::lower`], then
//! [`program::optimize`]) that every engine in `facile-vm` runs:
//!
//! * the **slow/complete** engine runs it and records actions into the
//!   specialized action cache; miss recovery runs the same ops, and
//! * the **fast/residual** engine replays each action's range of the
//!   program's replay ops ([`ActionCode::replay`]).
//!
//! # Examples
//!
//! ```
//! use facile_lang::{parser::parse, diag::Diagnostics};
//! use facile_sema::analyze as sema;
//! use facile_ir::lower::lower;
//! use facile_codegen::{compile, CodegenConfig};
//!
//! let src = r#"
//!     val R = array(32){0};
//!     fun main(pc : stream) {
//!         R[0] = R[0] + 1;
//!         next(pc + 4);
//!     }
//! "#;
//! let mut diags = Diagnostics::new();
//! let program = parse(src, &mut diags);
//! let syms = sema(&program, &mut diags);
//! let ir = lower(&program, &syms, &mut diags).unwrap();
//! let step = compile(ir, &CodegenConfig::default()).unwrap();
//! // The register update and the step's INDEX share one action: nothing
//! // dynamic separates them, so they replay as a single unit.
//! assert_eq!(step.action_count(), 1);
//! ```

pub mod actions;
pub mod program;

pub use actions::{
    ActionCode, ActionDebug, ActionKind, BlockAnnot, Closes, CompiledStep, DebugKind, InstAnnot,
    LiftWhat, Resume,
};
pub use program::{AggSlots, Op, Program, Rk};

use facile_bta::{insert_lifts, LiftConfig};
use facile_ir::fold::fold_constants;
use facile_ir::ir::IrProgram;

/// A step the back end cannot compile (lift insertion did not converge),
/// reported at compile time instead of as a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodegenError {
    /// Human-readable description of the rejected construct.
    pub rendered: String,
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rendered)
    }
}

impl std::error::Error for CodegenError {}

/// Configuration of the back-end pipeline.
#[derive(Clone, Copy, Debug)]
pub struct CodegenConfig {
    /// Run compile-time constant folding (paper §6.3 optimization 5).
    pub fold: bool,
    /// Lift/flush configuration (paper §6.3 optimization 3).
    pub lifts: LiftConfig,
}

impl Default for CodegenConfig {
    fn default() -> Self {
        CodegenConfig {
            fold: true,
            lifts: LiftConfig::default(),
        }
    }
}

/// Runs folding, binding-time analysis, lift insertion, action
/// extraction and lowering.
///
/// # Errors
///
/// Returns a [`CodegenError`] when lift insertion does not converge.
pub fn compile(mut ir: IrProgram, config: &CodegenConfig) -> Result<CompiledStep, CodegenError> {
    if config.fold {
        fold_constants(&mut ir.main);
    }
    let (bta, _stats) = insert_lifts(&mut ir, config.lifts).map_err(|e| CodegenError {
        rendered: e.to_string(),
    })?;
    Ok(actions::extract_actions(ir, bta))
}
