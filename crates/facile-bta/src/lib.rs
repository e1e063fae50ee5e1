#![warn(missing_docs)]

//! Binding-time analysis for the Facile compiler (paper §4.1).
//!
//! [`bta::analyze`] labels every IR instruction *run-time static* (a
//! function of the memoization key, skippable by fast-forwarding) or
//! *dynamic* (replayed by the fast engine). [`lifts::insert_lifts`] then
//! materializes values wherever they cross from rt-static to dynamic, so
//! action extraction (`facile-codegen`) can treat the labels as exact.
//!
//! # Examples
//!
//! ```
//! use facile_lang::{parser::parse, diag::Diagnostics};
//! use facile_sema::analyze as sema;
//! use facile_ir::lower::lower;
//! use facile_bta::{analyze, insert_lifts, LiftConfig};
//!
//! let src = r#"
//!     val R = array(32){0};
//!     fun main(pc : stream) {
//!         val npc = pc + 4;      // rt-static: function of the key
//!         R[0] = R[0] + 1;       // dynamic: register state
//!         next(npc);
//!     }
//! "#;
//! let mut diags = Diagnostics::new();
//! let program = parse(src, &mut diags);
//! let syms = sema(&program, &mut diags);
//! let mut ir = lower(&program, &syms, &mut diags).unwrap();
//! let (bta, _stats) = insert_lifts(&mut ir, LiftConfig::default()).unwrap();
//! assert!(bta.rt_static_fraction() > 0.0);
//! # let _ = analyze(&ir);
//! ```

pub mod bta;
pub mod lifts;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;

pub use bta::{analyze, terminator_dynamic, transfer, Bt, Bta, Env};
pub use lifts::{check_no_transitions, flush_set, insert_lifts, LiftConfig, LiftError, LiftStats};
