#![warn(missing_docs)]

//! Action extraction and engine generation for fast-forwarding simulators.
//!
//! [`compile`] is the back half of the Facile compiler pipeline: it takes
//! lowered IR, runs compile-time constant folding (`facile-ir::fold`),
//! binding-time analysis and lift insertion (`facile-bta`), and extracts
//! the dynamic-action table ([`actions::extract_actions`]) that drives the
//! two engines in `facile-vm`:
//!
//! * the **slow/complete** engine runs the lowered [`Program`] (built
//!   once per compile by [`program::lower`]) and records actions into the
//!   specialized action cache; miss recovery runs the same program, and
//! * the **fast/residual** engine replays [`ActionCode`] entries.
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
    ActionCode, ActionDebug, ActionKind, BlockAnnot, Closes, CompiledStep, DebugKind, FOp,
    FOperand, InstAnnot, KeyPlanArg, LiftWhat, Resume,
};
pub use program::{AggSlots, Op, Program};

use facile_bta::{insert_lifts, LiftConfig};
use facile_ir::fold::fold_constants;
use facile_ir::ir::IrProgram;

/// An internal consistency failure detected while generating the action
/// table — the compiled step would be unsafe to run (the VM would hit an
/// unreachable state at simulation time), so it is rejected here.
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

/// Rejects INDEX key plans that place a run-time-static placeholder
/// ([`FOperand::Ph`]) in a *dynamic* slot. Placeholder data is only
/// available while replaying a recorded node, not while collecting a
/// dynamic signature, so such a plan would send the fast engine into an
/// unreachable state at simulation time. Extraction never builds one
/// (dynamic scalar slots are always `Reg`/`Imm`); this guards the
/// invariant at the compiler boundary so the VM can rely on it.
fn validate_key_plans(step: &CompiledStep) -> Result<(), CodegenError> {
    for (i, code) in step.actions.iter().enumerate() {
        if let ActionKind::Index { plan } = &code.kind {
            for (j, arg) in plan.iter().enumerate() {
                if matches!(arg, KeyPlanArg::ScalarDyn(FOperand::Ph)) {
                    return Err(CodegenError {
                        rendered: format!(
                            "action {i}: INDEX key plan component {j} resolves a \
                             dynamic scalar to a run-time-static placeholder \
                             (placeholder data is not available during dynamic \
                             signature collection)"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

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

/// Runs folding, binding-time analysis, lift insertion and action
/// extraction, then validates the generated action table.
///
/// # Errors
///
/// Returns a [`CodegenError`] when lift insertion does not converge or
/// the generated table violates an engine invariant (see
/// [`validate_key_plans`]) — a compiler bug surfaced at compile time
/// instead of a panic or a VM failure at simulation time.
pub fn compile(mut ir: IrProgram, config: &CodegenConfig) -> Result<CompiledStep, CodegenError> {
    if config.fold {
        fold_constants(&mut ir.main);
    }
    let (bta, _stats) = insert_lifts(&mut ir, config.lifts).map_err(|e| CodegenError {
        rendered: e.to_string(),
    })?;
    let step = actions::extract_actions(ir, bta);
    validate_key_plans(&step)?;
    Ok(step)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a step through the normal pipeline, then corrupts one INDEX
    /// key plan the way the satellite bug describes: a dynamic scalar
    /// slot holding a placeholder operand.
    #[test]
    fn placeholder_in_dynamic_key_slot_is_rejected() {
        let src = r#"
            fun main(pc : stream) {
                count_insns(1);
                next(pc + 4);
            }
        "#;
        let mut diags = facile_lang::diag::Diagnostics::new();
        let program = facile_lang::parser::parse(src, &mut diags);
        let syms = facile_sema::analyze(&program, &mut diags);
        let ir = facile_ir::lower::lower(&program, &syms, &mut diags).unwrap();
        let mut step = compile(ir, &CodegenConfig::default()).expect("valid program compiles");
        let mut corrupted = false;
        for code in &mut step.actions {
            if let ActionKind::Index { plan } = &mut code.kind {
                for arg in plan.iter_mut() {
                    *arg = KeyPlanArg::ScalarDyn(FOperand::Ph);
                    corrupted = true;
                    break;
                }
            }
        }
        assert!(corrupted, "the step has an INDEX action with a key plan");
        let err = validate_key_plans(&step).unwrap_err();
        assert!(
            err.rendered.contains("run-time-static placeholder"),
            "{err}"
        );
    }
}
