//! Host-side wiring for the shipped simulators.
//!
//! The in-order and out-of-order Facile simulators declare external
//! functions for the branch predictor and the cache hierarchy (the
//! paper's un-memoized components). [`ArchHost`] owns those components —
//! implemented in `facile-arch` — and binds them to a
//! [`crate::Simulation`].

use crate::{SimError, Simulation};
use facile_arch::bpred::{BranchPredictor, Btb, Gshare};
use facile_arch::cache::Hierarchy;
use std::sync::{Arc, Mutex};

/// The micro-architecture components shared between the externals of one
/// simulation: a two-level cache hierarchy, a gshare branch predictor and
/// a BTB for indirect jumps.
///
/// Components sit behind `Arc<Mutex<_>>` so the bound closures are
/// `Send` and a wired simulation can move to a batch worker thread. The
/// mutexes are uncontended in every workspace configuration — one host
/// per simulation — so the cost is one atomic pair per external call,
/// dwarfed by the cache/predictor lookup it guards.
#[derive(Clone)]
pub struct ArchHost {
    /// Cache hierarchy (instruction + data).
    pub hierarchy: Arc<Mutex<Hierarchy>>,
    /// Direction predictor.
    pub predictor: Arc<Mutex<Gshare>>,
    /// Branch target buffer.
    pub btb: Arc<Mutex<Btb>>,
}

impl ArchHost {
    /// Components with the workspace-standard configuration (32 KiB L1s,
    /// 512 KiB L2, 4 K-entry gshare, 512-entry BTB).
    pub fn new() -> ArchHost {
        ArchHost {
            hierarchy: Arc::new(Mutex::new(Hierarchy::new())),
            predictor: Arc::new(Mutex::new(Gshare::new(4096, 10))),
            btb: Arc::new(Mutex::new(Btb::new(512))),
        }
    }

    /// Binds every external the simulator declares; externals a simulator
    /// does not declare (e.g. the in-order model has no branch predictor)
    /// are skipped.
    ///
    /// # Errors
    ///
    /// Propagates binding failures other than unknown names.
    pub fn bind(&self, sim: &mut Simulation) -> Result<(), SimError> {
        let tolerate = |r: Result<(), SimError>| match r {
            Err(SimError::UnknownExternal(_)) => Ok(()),
            other => other,
        };
        let h = self.hierarchy.clone();
        tolerate(sim.bind_external("icache", move |args| {
            h.lock().unwrap().inst_access(args[0] as u64) as i64
        }))?;
        let h = self.hierarchy.clone();
        tolerate(sim.bind_external("dcache", move |args| {
            h.lock().unwrap().data_access(args[0] as u64, args[1] != 0) as i64
        }))?;
        let p = self.predictor.clone();
        tolerate(sim.bind_external("bp_predict", move |args| {
            p.lock().unwrap().predict(args[0] as u64) as i64
        }))?;
        let p = self.predictor.clone();
        tolerate(sim.bind_external("bp_update", move |args| {
            p.lock().unwrap().update(args[0] as u64, args[1] != 0);
            0
        }))?;
        let b = self.btb.clone();
        tolerate(sim.bind_external("btb_lookup", move |args| {
            let (pc, actual) = (args[0] as u64, args[1] as u64);
            let mut btb = b.lock().unwrap();
            let hit = btb.predict(pc) == Some(actual);
            btb.update(pc, actual);
            hit as i64
        }))?;
        Ok(())
    }
}

impl Default for ArchHost {
    fn default() -> Self {
        Self::new()
    }
}

/// Initial `main` arguments for each shipped simulator, given the target
/// entry point.
pub mod initial_args {
    use crate::ArgValue;

    /// The arguments of the shipped simulator named `arch` —
    /// `functional`, `inorder` or `ooo` — falling back to the functional
    /// model's `(pc)` for any other (user-written) simulator.
    pub fn for_arch(arch: &str, entry: u64) -> Vec<ArgValue> {
        match arch {
            "inorder" => inorder(entry),
            "ooo" => ooo(entry),
            _ => functional(entry),
        }
    }

    /// `functional.fac`: `(pc)`.
    pub fn functional(entry: u64) -> Vec<ArgValue> {
        vec![ArgValue::Scalar(entry as i64)]
    }

    /// `inorder.fac`: `(reservation table, pc)`.
    pub fn inorder(entry: u64) -> Vec<ArgValue> {
        vec![ArgValue::Queue(vec![0; 32]), ArgValue::Scalar(entry as i64)]
    }

    /// `ooo.fac`: `(wd, woff1, woff2, wlat, wst, wcls, slot, pc)`.
    pub fn ooo(entry: u64) -> Vec<ArgValue> {
        vec![
            ArgValue::Queue(vec![0; 32]),
            ArgValue::Queue(vec![]),
            ArgValue::Queue(vec![]),
            ArgValue::Queue(vec![]),
            ArgValue::Queue(vec![]),
            ArgValue::Queue(vec![]),
            ArgValue::Scalar(0),
            ArgValue::Scalar(entry as i64),
        ]
    }
}
