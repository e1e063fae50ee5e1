//! Machine state shared by both engines.
//!
//! There is exactly one authoritative simulation state. The slow engine
//! computes everything on it; the fast engine applies the dynamic
//! effects, loading each recorded placeholder where recording captured
//! it (the rest of the run-time-static state stays implicit in the
//! recorded data); miss recovery recomputes the run-time-static slice on
//! a separate shadow (reused across recoveries) and commits it back.
//! Registers, scalar globals and aggregates live in three pools indexed
//! the way the lowered program ([`facile_codegen::Program`]) addresses
//! them: by variable, by global, and by aggregate slot
//! ([`facile_codegen::AggSlots`]). Because both engines use
//! the *same* variable numbering, dynamic values written by the fast
//! engine are directly visible when the slow engine takes over — the
//! paper's "dynamic data to be passed from the fast simulator to the slow
//! simulator" (§3.2).

use facile_ir::ir::{GlobalInit, IrProgram, QueueOp, VarKind};
use facile_obs::{ObsHandle, TraceEvent};
use facile_runtime::key::KeyReader;
use facile_runtime::{Engine, HaltReason, SimStats, Target};
use std::collections::VecDeque;

/// Storage of one aggregate (array or queue).
#[derive(Clone, Debug)]
pub enum AggStorage {
    /// Fixed-size array.
    Array(Vec<i64>),
    /// Double-ended queue.
    Queue(VecDeque<i64>),
}

impl AggStorage {
    /// Element at `idx` (0 when out of range — the language's total
    /// semantics).
    pub fn get(&self, idx: i64) -> i64 {
        let i = idx as usize;
        match self {
            AggStorage::Array(v) => v.get(i).copied().unwrap_or(0),
            AggStorage::Queue(q) => {
                if idx < 0 {
                    0
                } else {
                    q.get(i).copied().unwrap_or(0)
                }
            }
        }
    }

    /// Sets element `idx` (ignored when out of range).
    pub fn set(&mut self, idx: i64, val: i64) {
        if idx < 0 {
            return;
        }
        let i = idx as usize;
        match self {
            AggStorage::Array(v) => {
                if let Some(slot) = v.get_mut(i) {
                    *slot = val;
                }
            }
            AggStorage::Queue(q) => {
                if let Some(slot) = q.get_mut(i) {
                    *slot = val;
                }
            }
        }
    }

    /// Executes a queue operation; `None` result for effect-only ops.
    ///
    /// # Panics
    ///
    /// Panics (debug) if applied to an array.
    pub fn queue_op(&mut self, op: QueueOp, a0: i64, a1: i64) -> i64 {
        let AggStorage::Queue(q) = self else {
            debug_assert!(false, "queue op on array");
            return 0;
        };
        match op {
            QueueOp::PushBack => {
                q.push_back(a0);
                0
            }
            QueueOp::PushFront => {
                q.push_front(a0);
                0
            }
            QueueOp::PopBack => q.pop_back().unwrap_or(0),
            QueueOp::PopFront => q.pop_front().unwrap_or(0),
            QueueOp::Len => q.len() as i64,
            QueueOp::Get => {
                if a0 < 0 {
                    0
                } else {
                    q.get(a0 as usize).copied().unwrap_or(0)
                }
            }
            QueueOp::Set => {
                if a0 >= 0 {
                    if let Some(slot) = q.get_mut(a0 as usize) {
                        *slot = a1;
                    }
                }
                0
            }
            QueueOp::Clear => {
                q.clear();
                0
            }
            QueueOp::Front => q.front().copied().unwrap_or(0),
            QueueOp::Back => q.back().copied().unwrap_or(0),
        }
    }

    /// `queue_op(QueueOp::Get, idx, _)` without the op dispatch.
    #[inline]
    pub fn queue_get(&self, idx: i64) -> i64 {
        match self {
            AggStorage::Queue(q) if idx >= 0 => q.get(idx as usize).copied().unwrap_or(0),
            AggStorage::Queue(_) => 0,
            AggStorage::Array(_) => {
                debug_assert!(false, "queue op on array");
                0
            }
        }
    }

    /// `queue_op(QueueOp::Len, ..)` without the op dispatch.
    #[inline]
    pub fn queue_len(&self) -> i64 {
        match self {
            AggStorage::Queue(q) => q.len() as i64,
            AggStorage::Array(_) => {
                debug_assert!(false, "queue op on array");
                0
            }
        }
    }

    /// Copies contents from `src` (same kind).
    pub fn copy_from(&mut self, src: &AggStorage) {
        match (self, src) {
            (AggStorage::Array(d), AggStorage::Array(s)) => {
                d.clear();
                d.extend_from_slice(s);
            }
            (AggStorage::Queue(d), AggStorage::Queue(s)) => {
                d.clear();
                d.extend(s.iter().copied());
            }
            _ => debug_assert!(false, "aggregate kind mismatch in copy"),
        }
    }

    /// Fills an array with `v` (queues: replaces contents is not defined;
    /// debug-panics).
    pub fn fill(&mut self, v: i64) {
        match self {
            AggStorage::Array(a) => a.iter_mut().for_each(|x| *x = v),
            AggStorage::Queue(_) => debug_assert!(false, "fill on queue"),
        }
    }

    /// Iterates the elements in order. The concrete [`AggIter`] keeps
    /// this off the heap — key building and INDEX signatures iterate
    /// queues on the replay hot path.
    pub fn iter(&self) -> AggIter<'_> {
        match self {
            AggStorage::Array(a) => AggIter::Array(a.iter()),
            AggStorage::Queue(q) => AggIter::Queue(q.iter()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            AggStorage::Array(a) => a.len(),
            AggStorage::Queue(q) => q.len(),
        }
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces contents with the next queue component of `r` (an array
    /// takes it as a prefix, zero-filled), decoding straight into the
    /// storage. `None` when the key is malformed.
    pub fn load_key_queue(&mut self, r: &mut KeyReader<'_>) -> Option<()> {
        match self {
            AggStorage::Array(a) => {
                let mut n = 0;
                r.queue_with(|v| {
                    if let Some(slot) = a.get_mut(n) {
                        *slot = v;
                    }
                    n += 1;
                })?;
                a.iter_mut().skip(n).for_each(|x| *x = 0);
            }
            AggStorage::Queue(q) => {
                q.clear();
                r.queue_with(|v| q.push_back(v))?;
            }
        }
        Some(())
    }

    /// Replaces contents with `vals` (queue) or writes prefix (array).
    pub fn load_values(&mut self, vals: &[i64]) {
        match self {
            AggStorage::Array(a) => {
                for (slot, v) in a.iter_mut().zip(vals.iter().chain(std::iter::repeat(&0))) {
                    *slot = *v;
                }
            }
            AggStorage::Queue(q) => {
                q.clear();
                q.extend(vals.iter().copied());
            }
        }
    }
}

/// Concrete iterator over [`AggStorage`] elements (no boxing).
pub enum AggIter<'a> {
    /// Array elements, front to back.
    Array(std::slice::Iter<'a, i64>),
    /// Queue elements, front to back.
    Queue(std::collections::vec_deque::Iter<'a, i64>),
}

impl Iterator for AggIter<'_> {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        match self {
            AggIter::Array(it) => it.next().copied(),
            AggIter::Queue(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            AggIter::Array(it) => it.size_hint(),
            AggIter::Queue(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for AggIter<'_> {}

/// An external (Rust) function callable from Facile. `Send` so a fully
/// wired simulation can move to a batch worker thread; hosts share
/// their component state through `Arc<Mutex<_>>` (uncontended — each
/// simulation owns its components).
pub type ExtFn = Box<dyn FnMut(&[i64]) -> i64 + Send>;

/// The initial aggregate pool of `ir`, in [`AggSlots`] order: arrays
/// zero-filled (globals: their fill value), queues empty.
fn agg_pool(ir: &IrProgram) -> Vec<AggStorage> {
    let vars = ir.main.vars.iter().filter_map(|v| match v.kind {
        VarKind::Scalar => None,
        VarKind::Array(n) => Some(AggStorage::Array(vec![0; n as usize])),
        VarKind::Queue => Some(AggStorage::Queue(VecDeque::new())),
    });
    let globals = ir.globals.iter().filter_map(|g| match g.init {
        GlobalInit::Scalar(_) => None,
        GlobalInit::Array { size, fill } => Some(AggStorage::Array(vec![fill; size as usize])),
        GlobalInit::Queue => Some(AggStorage::Queue(VecDeque::new())),
    });
    vars.chain(globals).collect()
}

/// Copies `aggs[src]` onto `aggs[dst]` in place.
pub(crate) fn agg_copy(aggs: &mut [AggStorage], dst: usize, src: usize) {
    if dst == src {
        return;
    }
    let (d, s) = if dst < src {
        let (lo, hi) = aggs.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = aggs.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    };
    d.copy_from(s);
}

/// Miss recovery's shadow pools: the same shapes as the machine's,
/// reset to their initial contents before each recovery so one set of
/// buffers serves every recovery of a simulation.
#[derive(Debug)]
pub struct Shadow {
    /// Shadow registers.
    pub regs: Vec<i64>,
    /// Shadow scalar globals.
    pub gscalars: Vec<i64>,
    /// Shadow aggregate pool.
    pub aggs: Vec<AggStorage>,
    /// The initial aggregate pool `reset` restores.
    init: Vec<AggStorage>,
}

impl Shadow {
    /// A shadow shaped like `ir`'s machine state.
    pub fn new(ir: &IrProgram) -> Shadow {
        let init = agg_pool(ir);
        Shadow {
            regs: vec![0; ir.main.vars.len()],
            gscalars: vec![0; ir.globals.len()],
            aggs: init.clone(),
            init,
        }
    }

    /// Restores the state a fresh shadow starts in: registers and scalar
    /// globals zero, aggregates initial. Allocation-free once the
    /// buffers have grown to the largest contents seen.
    pub fn reset(&mut self) {
        self.regs.fill(0);
        self.gscalars.fill(0);
        for (a, init) in self.aggs.iter_mut().zip(&self.init) {
            a.copy_from(init);
        }
    }
}

/// The authoritative simulation state.
pub struct MachineState {
    /// Scalar registers, one per IR variable.
    pub regs: Vec<i64>,
    /// Scalar global values.
    pub gscalars: Vec<i64>,
    /// Aggregate storage: aggregate variables, then aggregate globals.
    pub aggs: Vec<AggStorage>,
    /// The loaded target (text + data memory).
    pub target: Target,
    /// Simulation counters.
    pub stats: SimStats,
    /// Which engine is currently executing (for attribution).
    pub engine: Engine,
    /// Set when the simulation has stopped.
    pub halted: Option<HaltReason>,
    /// Values emitted by `trace(v)` (capped; see `trace_dropped`).
    pub trace: Vec<i64>,
    /// Number of trace values dropped after the cap.
    pub trace_dropped: u64,
    /// Bound external functions, indexed by `ExtId`.
    pub externals: Vec<ExtFn>,
    /// Observability hook; disabled (`ObsHandle::off()`) by default, so
    /// every emit site reduces to one null check.
    pub obs: ObsHandle,
    /// Miss recovery's shadow, built by the first recovery and reused
    /// by every later one.
    pub shadow: Option<Shadow>,
}

/// Maximum retained trace values.
const TRACE_CAP: usize = 1 << 20;

impl MachineState {
    /// Creates the state for a compiled program over a loaded target.
    /// External functions start unbound (calls return 0 and count).
    pub fn new(ir: &IrProgram, target: Target) -> Self {
        let gscalars = ir
            .globals
            .iter()
            .map(|g| match g.init {
                GlobalInit::Scalar(v) => v,
                _ => 0,
            })
            .collect();
        let externals = ir
            .ext_names
            .iter()
            .map(|_| Box::new(|_: &[i64]| 0i64) as ExtFn)
            .collect();
        MachineState {
            regs: vec![0; ir.main.vars.len()],
            gscalars,
            aggs: agg_pool(ir),
            target,
            stats: SimStats::default(),
            engine: Engine::Slow,
            halted: None,
            trace: Vec::new(),
            trace_dropped: 0,
            externals,
            obs: ObsHandle::off(),
            shadow: None,
        }
    }

    /// Logical timestamp for trace events: steps completed so far.
    pub fn obs_step(&self) -> u64 {
        self.stats.fast_steps.saturating_add(self.stats.slow_steps)
    }

    /// Emits a trace value.
    pub fn push_trace(&mut self, v: i64) {
        if self.trace.len() < TRACE_CAP {
            self.trace.push(v);
        } else {
            self.trace_dropped += 1;
        }
    }

    /// Calls external `ext` with `args`.
    pub fn call_ext(&mut self, ext: usize, args: &[i64]) -> i64 {
        self.stats.ext_calls = self.stats.ext_calls.saturating_add(1);
        if self.obs.enabled() {
            self.obs.emit(TraceEvent::ExtCall {
                step: self.obs_step(),
                ext: ext as u32,
            });
        }
        (self.externals[ext])(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_array_get_set_bounds() {
        let mut a = AggStorage::Array(vec![0; 4]);
        a.set(2, 7);
        assert_eq!(a.get(2), 7);
        assert_eq!(a.get(9), 0);
        a.set(9, 1); // ignored
        assert_eq!(a.len(), 4);
        a.set(-1, 5); // ignored
        assert_eq!(a.get(-1), 0);
    }

    #[test]
    fn agg_queue_ops() {
        let mut q = AggStorage::Queue(VecDeque::new());
        assert_eq!(q.queue_op(QueueOp::PopFront, 0, 0), 0);
        q.queue_op(QueueOp::PushBack, 1, 0);
        q.queue_op(QueueOp::PushBack, 2, 0);
        q.queue_op(QueueOp::PushFront, 0, 0);
        assert_eq!(q.queue_op(QueueOp::Len, 0, 0), 3);
        assert_eq!(q.queue_op(QueueOp::Front, 0, 0), 0);
        assert_eq!(q.queue_op(QueueOp::Back, 0, 0), 2);
        assert_eq!(q.queue_op(QueueOp::Get, 1, 0), 1);
        q.queue_op(QueueOp::Set, 1, 9);
        assert_eq!(q.queue_op(QueueOp::Get, 1, 0), 9);
        assert_eq!(q.queue_op(QueueOp::PopBack, 0, 0), 2);
        assert_eq!(q.queue_op(QueueOp::PopFront, 0, 0), 0);
        q.queue_op(QueueOp::Clear, 0, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn agg_copy_and_load() {
        let mut a = AggStorage::Array(vec![1, 2, 3]);
        let b = AggStorage::Array(vec![9, 9, 9]);
        a.copy_from(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![9, 9, 9]);
        a.load_values(&[5]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![5, 0, 0]);

        let mut q = AggStorage::Queue(VecDeque::new());
        q.load_values(&[1, 2]);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}
