#![warn(missing_docs)]

//! The Facile execution engines.
//!
//! A compiled step function ([`facile_codegen::CompiledStep`]) runs here
//! under the fast-forwarding regime of the paper:
//!
//! * [`slow`] — the slow/complete simulator: runs the step's lowered
//!   program ([`facile_codegen::Program`]), recording dynamic actions
//!   into the specialized action cache.
//! * [`fast`] — the fast/residual simulator: replays recorded actions
//!   by running each one's range of the same program's ops, verifying
//!   dynamic result tests.
//! * [`recovery`] — action-cache miss recovery via shadow re-execution of
//!   the run-time-static slice of the same program (the paper's §6.3
//!   optimization 2: a dedicated recovery engine that skips the dynamic
//!   ops).
//! * [`supertrace`] — superaction compilation: hot replay chains
//!   linearized into direct-threaded trace buffers with guarded
//!   speculation and a bail path back to the generic replay loop.
//! * [`engine::Simulation`] — the driver tying them together, enforcing
//!   the cache capacity at step boundaries under either the clear-on-full
//!   policy of §6.2 or generational partial eviction
//!   ([`facile_runtime::cache::CachePolicy`]).
//!
//! Both engines share one [`state::MachineState`]; the fast engine's
//! dynamic register writes are directly visible to the slow engine after
//! a miss, which is how dynamic data crosses the engine boundary.
//!
//! # Threading
//!
//! A [`engine::Simulation`] is `Send` — it can be built on one thread
//! and run on another, which is what `facile::batch` does with its
//! worker pool. The compiled step is held as an `Arc<CompiledStep>` and
//! shared read-only between simulations; everything mutable (machine
//! state, action cache, replay scratch) is owned per-simulation.
//! External functions must therefore be `Send`
//! ([`state::ExtFn`]), and the observability handle is backed by an
//! uncontended mutex. Nothing here is `Sync`: one simulation, one
//! thread at a time.
//!
//! # Examples
//!
//! ```
//! use facile_lang::{parser::parse, diag::Diagnostics};
//! use facile_sema::analyze as sema;
//! use facile_ir::lower::lower;
//! use facile_codegen::{compile, CodegenConfig};
//! use facile_vm::engine::{ArgValue, SimOptions, Simulation};
//! use facile_runtime::{Image, Target};
//!
//! let src = r#"
//!     fun main(x : int) {
//!         count_insns(1);
//!         if (x == 0) { sim_halt(); }
//!         next(x - 1);
//!     }
//! "#;
//! let mut diags = Diagnostics::new();
//! let program = parse(src, &mut diags);
//! let syms = sema(&program, &mut diags);
//! let ir = lower(&program, &syms, &mut diags).unwrap();
//! let step = compile(ir, &CodegenConfig::default()).unwrap();
//! let target = Target::load(&Image::default());
//! let mut sim = Simulation::new(step, target, &[ArgValue::Scalar(10)],
//!                               SimOptions::default()).unwrap();
//! sim.run_steps(1_000);
//! assert_eq!(sim.stats().insns, 11);
//! ```

pub mod engine;
pub mod exec;
pub mod fast;
pub mod recovery;
pub mod slow;
pub mod snapshot;
pub mod state;
pub mod supertrace;

pub use engine::{ArgValue, SimError, SimOptions, Simulation};
pub use recovery::{RecoveryError, RecoveryErrorKind};
pub use state::{AggIter, AggStorage, ExtFn, MachineState};
pub use supertrace::{SuperTraceSet, TraceStats};
