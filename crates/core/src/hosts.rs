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
use facile_vm::ExtHost;

/// The micro-architecture components of one simulation: a two-level
/// cache hierarchy, a gshare branch predictor and a BTB for indirect
/// jumps.
///
/// The host owns its components by value and, once bound, is the
/// simulation's one external host ([`ExtHost`]): an external call is one
/// indirect call into [`ExtHost::call`], a `match` on the component the
/// external names, and the component's method. The lock is not cheap
/// next to the lookups it would guard: in a microbenchmark on a 2-vCPU
/// x86-64 host, a boxed closure per external behind an uncontended
/// `Arc<Mutex<_>>` cost 16.6–17.0 ns a call, one `dyn` call into an
/// owned host and its `match` 2.5–3.0 ns. The FP workloads make about
/// 1.41 external calls per replayed step.
pub struct ArchHost {
    /// Cache hierarchy (instruction + data).
    pub hierarchy: Hierarchy,
    /// Direction predictor.
    pub predictor: Gshare,
    /// Branch target buffer.
    pub btb: Btb,
    /// Per external of the bound simulator (by `ExtId`): what it calls.
    exts: Vec<Ext>,
}

/// The component call an external names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ext {
    /// `icache(pc)`: instruction-fetch latency.
    ICache,
    /// `dcache(addr, write)`: data-access latency.
    DCache,
    /// `bp_predict(pc)`: predicted direction.
    BpPredict,
    /// `bp_update(pc, taken)`: trains the predictor, returns 0.
    BpUpdate,
    /// `btb_lookup(pc, actual)`: whether the BTB predicted `actual`,
    /// then trains it.
    BtbLookup,
    /// A name this host does not provide: returns 0, as an unbound
    /// external does.
    Unbound,
}

impl Ext {
    fn named(name: &str) -> Ext {
        match name {
            "icache" => Ext::ICache,
            "dcache" => Ext::DCache,
            "bp_predict" => Ext::BpPredict,
            "bp_update" => Ext::BpUpdate,
            "btb_lookup" => Ext::BtbLookup,
            _ => Ext::Unbound,
        }
    }
}

impl ArchHost {
    /// Components with the workspace-standard configuration (32 KiB L1s,
    /// 512 KiB L2, 4 K-entry gshare, 512-entry BTB).
    pub fn new() -> ArchHost {
        ArchHost {
            hierarchy: Hierarchy::new(),
            predictor: Gshare::new(4096, 10),
            btb: Btb::new(512),
            exts: Vec::new(),
        }
    }

    /// Moves the host into `sim` as its external host, mapping each
    /// external the simulator declares to its component once, here.
    /// Externals the host does not provide return 0; components the
    /// simulator does not call (the in-order model has no branch
    /// predictor) sit idle.
    ///
    /// # Errors
    ///
    /// None: the `Result` matches [`Simulation::bind_external`], so
    /// callers bind either way with `?`.
    pub fn bind(mut self, sim: &mut Simulation) -> Result<(), SimError> {
        self.exts = (sim.compiled().ir.ext_names.iter())
            .map(|n| Ext::named(n))
            .collect();
        sim.set_host(self);
        Ok(())
    }
}

impl ExtHost for ArchHost {
    #[inline]
    fn call(&mut self, ext: usize, args: &[i64]) -> i64 {
        match self.exts[ext] {
            Ext::ICache => self.hierarchy.inst_access(args[0] as u64) as i64,
            Ext::DCache => self.hierarchy.data_access(args[0] as u64, args[1] != 0) as i64,
            Ext::BpPredict => self.predictor.predict(args[0] as u64) as i64,
            Ext::BpUpdate => {
                self.predictor.update(args[0] as u64, args[1] != 0);
                0
            }
            Ext::BtbLookup => {
                let (pc, actual) = (args[0] as u64, args[1] as u64);
                let hit = self.btb.predict(pc) == Some(actual);
                self.btb.update(pc, actual);
                hit as i64
            }
            Ext::Unbound => 0,
        }
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
