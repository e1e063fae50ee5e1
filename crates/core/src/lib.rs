#![warn(missing_docs)]

//! Facile: a language and compiler for high-performance processor
//! simulators.
//!
//! This crate is the public face of a full reproduction of Schnarr, Hill &
//! Larus, *"Facile: A Language and Compiler for High-Performance Processor
//! Simulators"* (PLDI 2001). A simulator written in the Facile DSL is
//! compiled — through binding-time analysis and action extraction — into a
//! pair of engines that implement **fast-forwarding**: run-time
//! memoization of the simulator step function through a specialized action
//! cache.
//!
//! # Pipeline
//!
//! ```text
//! source ──parse──► AST ──analyze──► symbols ──lower──► IR
//!        ──fold/BTA/lifts──► labeled IR ──extract──► CompiledStep
//!        ──Simulation::new──► slow + fast engines over one machine state
//! ```
//!
//! # Quick start
//!
//! ```
//! use facile::{compile_source, CompilerOptions, Simulation, SimOptions, ArgValue};
//! use facile::{Image, Target};
//!
//! let src = r#"
//!     fun main(x : int) {
//!         count_insns(1);
//!         if (x == 0) { sim_halt(); }
//!         next(x - 1);
//!     }
//! "#;
//! let step = compile_source(src, &CompilerOptions::default()).unwrap();
//! let mut sim = Simulation::new(
//!     step,
//!     Target::load(&Image::default()),
//!     &[ArgValue::Scalar(3)],
//!     SimOptions::default(),
//! ).unwrap();
//! sim.run_steps(100);
//! assert_eq!(sim.stats().insns, 4);
//! ```
//!
//! # Shipped simulators
//!
//! [`sims`] carries the three Facile simulators the paper's evaluation
//! describes — functional, in-order with reservation tables, and
//! out-of-order with branch prediction, non-blocking caches and a
//! 32-entry window — written against the TRISC target ISA
//! (`facile-isa`).
//!
//! # Jobs and batches
//!
//! [`job`] is the one path a simulation job takes, whichever front end
//! submits it: prepare (construct, bind, attach the recorders the
//! wanted sections need, warm-start) and drive (run, slicing into
//! timeline epochs only when asked, collect the run document). `facilec
//! run` is a batch of one through it.
//!
//! [`batch`] runs many independent jobs over one compiled simulator
//! across a worker pool: the `CompiledStep` is `Arc`-shared read-only,
//! each lane owns its machine state and action cache, and per-job run
//! documents merge into one batch document that satisfies the same
//! exactness invariants as a single run. `facilec batch` and
//! the `sim_batch` bench binary are the command-line fronts.
//!
//! # Simulation as a service
//!
//! [`serve`] wraps the batch substrate in a long-running job daemon:
//! `facilec serve` binds a TCP socket, speaks a dependency-free
//! length-prefixed JSON frame protocol, and feeds client-submitted
//! jobs through a bounded queue into the same worker pool — one
//! compiled step and one warm snapshot amortized across every client
//! (see `docs/SERVING.md`).

pub mod batch;
pub mod hosts;
pub mod job;
pub mod obs;
pub mod serve;
pub mod sims;

pub use facile_bta::LiftConfig;
pub use facile_codegen::{CodegenConfig, CompiledStep};
pub use facile_lang::{Diagnostic, Diagnostics, Severity};
pub use facile_obs::{
    ActionRow, EpochRecord, ObsConfig, ObsHandle, Profile, RunDoc, TimelineConfig,
    TimelineMetrics, TraceEvent,
};
pub use facile_runtime::{CachePolicy, CacheStats, HaltReason, Image, Memory, SimStats, Target};
pub use facile_vm::snapshot;
pub use facile_vm::{
    ArgValue, RecoveryError, RecoveryErrorKind, SimError, SimOptions, Simulation, TraceStats,
};

/// Options of the whole compiler pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompilerOptions {
    /// Back-end options (constant folding, flush pruning).
    pub codegen: CodegenConfig,
}

/// A compilation failure: rendered diagnostics.
#[derive(Clone, Debug)]
pub struct CompileError {
    /// The diagnostics, already rendered against the source.
    pub rendered: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rendered)
    }
}

impl std::error::Error for CompileError {}

/// Compiles Facile source into an executable step function.
///
/// # Errors
///
/// Returns every diagnostic the front end and middle end produced.
pub fn compile_source(
    src: &str,
    options: &CompilerOptions,
) -> Result<CompiledStep, CompileError> {
    let mut diags = Diagnostics::new();
    let program = facile_lang::parse(src, &mut diags);
    if diags.has_errors() {
        return Err(CompileError {
            rendered: diags.render_all(src),
        });
    }
    let syms = facile_sema::analyze(&program, &mut diags);
    if diags.has_errors() {
        return Err(CompileError {
            rendered: diags.render_all(src),
        });
    }
    let ir = facile_ir::lower::lower(&program, &syms, &mut diags);
    let Some(ir) = ir else {
        return Err(CompileError {
            rendered: diags.render_all(src),
        });
    };
    if diags.has_errors() {
        return Err(CompileError {
            rendered: diags.render_all(src),
        });
    }
    if let Err(errs) = facile_ir::verify::verify(&ir) {
        return Err(CompileError {
            rendered: format!("internal IR verification failed:\n{}", errs.join("\n")),
        });
    }
    facile_codegen::compile(ir, &options.codegen).map_err(|e| CompileError {
        rendered: format!("internal codegen validation failed: {e}"),
    })
}
