//! Miss recovery (paper §2.1, §4.3).
//!
//! When the fast simulator hits an action-cache miss mid-entry, dynamic
//! state has already advanced past the start of the step, so the slow
//! simulator cannot simply restart. The paper's recovery re-runs the slow
//! simulator in a mode where dynamic statements are guarded off and
//! dynamic result tests read the values the fast simulator pushed onto a
//! *recovery stack*; §6.3 (optimization 2) proposes compiling this mode as
//! a separate function.
//!
//! This module implements that separate recovery engine: it runs the
//! step's lowered program ([`facile_codegen::Program`]) over the
//! simulation's [`Shadow`] — reset for each recovery, reading nothing
//! from the real state — skipping the ops of dynamic instructions, so
//! only the run-time-static slice executes, and steering through dynamic
//! result tests with the recorded values, which it consumes at the
//! program's record ops. When the recovery stack is exhausted (the miss
//! point), every shadow slot that is run-time static *at that point* is
//! committed to the real state, and normal slow execution resumes at the
//! action's resume op. Dynamic slots keep the values the fast engine
//! wrote, which is exactly the paper's hand-off of dynamic data through
//! shared storage.

use crate::exec::{match_op, seed_params};
use crate::fast::Replayed;
use crate::state::{AggStorage, MachineState, Shadow};
use facile_codegen::CompiledStep;
use facile_ir::ir::VarKind;
use facile_obs::TraceEvent;
use facile_runtime::key::Key;

/// How a recovery attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryErrorKind {
    /// The recovery stack ran out before the recorded actions did.
    Underflow,
    /// A stack item's action number disagrees with the recorded one.
    Mismatch {
        /// Action number the recorded program reached.
        expected: u32,
        /// Action number found on the recovery stack.
        found: u32,
    },
    /// The step returned before the stack was consumed (extra trailing
    /// items — the dual of [`Underflow`](Self::Underflow)).
    Overrun,
}

/// A diagnosed recovery failure: the recovery stack disagrees with the
/// recorded action numbers — the consistency check the paper calls
/// "useful to ensure that the fast and slow simulators communicate
/// correctly". Surfaced by the driver as a [`facile_runtime::HaltReason::Fault`]
/// instead of aborting the process, so embedding hosts (batch lanes,
/// servers) survive a corrupted replay stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryError {
    /// What went wrong.
    pub kind: RecoveryErrorKind,
    /// Action number the recovery engine was consuming when it failed.
    pub action: u32,
    /// Logical step count at the failed recovery.
    pub step: u64,
    /// Recovery-stack depth handed to the attempt.
    pub depth: usize,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            RecoveryErrorKind::Underflow => write!(
                f,
                "recovery stack underflow at action {} (step {}, depth {})",
                self.action, self.step, self.depth
            ),
            RecoveryErrorKind::Mismatch { expected, found } => write!(
                f,
                "recovery stack action mismatch at step {}: recorded {expected}, stack has {found} (depth {})",
                self.step, self.depth
            ),
            RecoveryErrorKind::Overrun => write!(
                f,
                "recovery stack overrun: step returned with items left (step {}, depth {})",
                self.step, self.depth
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Re-executes the run-time-static slice and commits it; returns the op
/// of the step's program at which normal slow execution resumes.
///
/// # Errors
///
/// Returns a [`RecoveryError`] if the recovery stack disagrees with the
/// recorded action numbers (underflow, action mismatch or overrun). The
/// real state is untouched in that case — commits only happen at the
/// final consistent item — so the driver can surface a diagnosed fault.
pub fn recover(
    step: &CompiledStep,
    st: &mut MachineState,
    entry_key: &Key,
    replayed: &[Replayed],
) -> Result<u32, RecoveryError> {
    assert!(!replayed.is_empty(), "recovery needs at least the miss action");
    let step_no = st.obs_step();
    if st.obs.enabled() {
        st.obs.emit(TraceEvent::RecoveryBegin {
            step: step_no,
            depth: replayed.len() as u64,
        });
    }
    let prog = &step.program;
    let ops = &prog.ops[..];
    let MachineState {
        ref mut shadow,
        ref target,
        ..
    } = *st;
    let shadow = shadow.get_or_insert_with(|| Shadow::new(&step.ir));
    shadow.reset();
    seed_params(prog, &mut shadow.regs, &mut shadow.aggs, entry_key);

    let overrun = || RecoveryError {
        kind: RecoveryErrorKind::Overrun,
        action: replayed[replayed.len() - 1].action,
        step: step_no,
        depth: replayed.len(),
    };
    let mut item = 0usize; // next recovery-stack index
    // The action of the most recently consumed item, while its group is
    // still open.
    let mut current: Option<Replayed> = None;
    // The action whose item ends the stack, once reached: the miss point.
    let miss: u32;
    let resume: u32;
    let mut pc = prog.entry as usize;
    loop {
        // Dynamic effects were already applied by the fast engine.
        if prog.dynamic[pc] {
            pc += 1;
            continue;
        }
        let op = ops[pc];
        pc += 1;
        match_op!(op, [pc], prog, shadow.regs, shadow.gscalars, shadow.aggs, target, {
            Op::Start { action } => {
                let r = replayed.get(item).ok_or(RecoveryError {
                    kind: RecoveryErrorKind::Underflow,
                    action,
                    step: step_no,
                    depth: replayed.len(),
                })?;
                if r.action != action {
                    return Err(RecoveryError {
                        kind: RecoveryErrorKind::Mismatch {
                            expected: action,
                            found: r.action,
                        },
                        action,
                        step: step_no,
                        depth: replayed.len(),
                    });
                }
                current = Some(*r);
                item += 1;
            }
            Op::PhR { .. } | Op::PhG { .. } | Op::PhAgg { .. } => {}
            Op::CloseVerify { action, dst } => {
                let r = current.take().expect("verify closes an open group");
                shadow.regs[dst as usize] = r.value.expect("verify actions record their value");
                if item == replayed.len() {
                    // The miss action: commit and resume after it.
                    (miss, resume) = (action, prog.resume[action as usize]);
                    break;
                }
            }
            Op::ClosePlain { action } => {
                // A plain group closing at its block end may be the miss
                // point.
                if current.take().is_some() && item == replayed.len() {
                    (miss, resume) = (action, prog.resume[action as usize]);
                    break;
                }
            }
            Op::TestClose { action, .. } => {
                let r = take_term_item(replayed, &mut item, &mut current, action, step_no)?;
                let v = r.value.expect("test actions record their value");
                // Take the block's branch with the recorded value.
                let to = match ops[pc] {
                    Op::Br { then_, else_, .. } => {
                        if v != 0 {
                            then_
                        } else {
                            else_
                        }
                    }
                    Op::Switch { table, .. } => prog.switches[table as usize].target(v),
                    other => unreachable!("a test close precedes its branch, not {other:?}"),
                };
                if item == replayed.len() {
                    (miss, resume) = (action, to);
                    break;
                }
                pc = to as usize;
            }
            // With a consistent stack the miss action always commits
            // before the step ends; reaching its end means the stack
            // carried extra trailing items. (INDEX misses are clean step
            // boundaries, never recoveries.)
            Op::Next { .. } | Op::Ret => return Err(overrun()),
            other => unreachable!("op labeled rt-static is not a value op: {other:?}"),
        })
    }
    commit(step, st, miss);
    Ok(resume)
}

/// Consumes the recovery item for a dynamic terminator. The item is the
/// open group's (if the terminator closed an open action) or a fresh one.
fn take_term_item(
    replayed: &[Replayed],
    item: &mut usize,
    current: &mut Option<Replayed>,
    action: u32,
    step_no: u64,
) -> Result<Replayed, RecoveryError> {
    let mismatch = |found: u32| RecoveryError {
        kind: RecoveryErrorKind::Mismatch {
            expected: action,
            found,
        },
        action,
        step: step_no,
        depth: replayed.len(),
    };
    if let Some(r) = current.take() {
        if r.action != action {
            return Err(mismatch(r.action));
        }
        return Ok(r);
    }
    let r = replayed.get(*item).ok_or(RecoveryError {
        kind: RecoveryErrorKind::Underflow,
        action,
        step: step_no,
        depth: replayed.len(),
    })?;
    if r.action != action {
        return Err(mismatch(r.action));
    }
    *item += 1;
    Ok(*r)
}

/// Copies every slot that is run-time static (and live) after `action`
/// from the shadow to the real state, then announces the end of the
/// recovery (with the number of slots committed) to the observer.
fn commit(step: &CompiledStep, st: &mut MachineState, action: u32) {
    let code = &step.actions[action as usize];
    let slots = &step.program.slots;
    let MachineState {
        ref mut regs,
        ref mut gscalars,
        ref mut aggs,
        ref shadow,
        ref obs,
        ..
    } = *st;
    let shadow = shadow.as_ref().expect("the recovery built the shadow");
    let copy_agg = |aggs: &mut [AggStorage], shadow: &Shadow, slot: u32| {
        aggs[slot as usize].copy_from(&shadow.aggs[slot as usize]);
    };
    for &v in code.known_vars_after.iter() {
        regs[v.index()] = shadow.regs[v.index()];
    }
    for &v in code.known_aggs_after.iter() {
        copy_agg(aggs, shadow, slots.var[v.index()]);
    }
    for &g in code.known_globals_after.iter() {
        match step.ir.globals[g.index()].kind() {
            VarKind::Scalar => gscalars[g.index()] = shadow.gscalars[g.index()],
            _ => copy_agg(aggs, shadow, slots.global[g.index()]),
        }
    }
    if obs.enabled() {
        let committed = code.known_vars_after.len()
            + code.known_aggs_after.len()
            + code.known_globals_after.len();
        obs.emit(TraceEvent::RecoveryEnd {
            step: st.obs_step(),
            action,
            committed: committed as u64,
        });
    }
}
