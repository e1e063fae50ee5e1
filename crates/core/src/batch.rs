//! Multi-threaded batch simulation driver.
//!
//! Runs N independent (workload, arguments, options) jobs over **one**
//! compiled simulator across a fixed worker pool. The compiled program —
//! IR, action table, binding-time labels, debug info — is immutable
//! after compilation, so every worker shares a single
//! [`Arc<CompiledStep>`]; everything mutable (machine state, slab action
//! cache, replay scratch, observability registry) is per-job, built and
//! torn down inside the worker. This is the shape the ROADMAP
//! north-star asks for: many concurrent simulation lanes over shared
//! read-only artifacts.
//!
//! # Determinism
//!
//! Workers pull jobs from an atomic dispenser, so *completion* order is
//! scheduling-dependent — but every outcome is stored at its submission
//! index and the merged document is folded in submission order. Two
//! runs of the same batch produce a byte-identical merged [`RunDoc`]
//! (modulo wall-clock fields), regardless of thread count.
//!
//! # Exactness
//!
//! Each job's recorders observe that job's full event stream, so
//! per-job documents satisfy every section's exactness invariant
//! (Σ row insns == sim.insns, Σ epoch deltas == final counters, …).
//! Merging adds both sides of each invariant, so the batch document
//! satisfies them too — `sim_obs --check` accepts a merged document as
//! readily as a single-lane one.

use crate::job::{execute, shielded};
pub use crate::job::{BatchJob, JobOutcome, ProfileSource, Sections};
use crate::{CompiledStep, RunDoc, SimError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Called by a worker the moment one job completes (out of submission
/// order). Invoked concurrently, so it must synchronize any shared sink
/// itself.
pub type ProgressFn = Box<dyn Fn(&JobOutcome) + Send + Sync>;

/// Pool-level configuration.
pub struct BatchConfig {
    /// Worker threads; `0` means one per available CPU, capped at the
    /// job count.
    pub threads: usize,
    /// The sections every lane collects (see [`Sections`]); the batch
    /// folds the lanes' documents into one merged document. The default
    /// wants the metrics section.
    pub sections: Sections,
    /// Per-job completion heartbeat (e.g. `facilec batch --progress`).
    pub progress: Option<ProgressFn>,
    /// A parsed action-cache snapshot every lane warm-starts from. The
    /// decoded image is shared read-only behind its `Arc`; each lane
    /// layers private copy-on-write recording on top, so lanes never
    /// observe each other's links. Validity is checked per lane — a
    /// lane whose target digest does not match runs cold, exactly as if
    /// no snapshot had been offered (see `docs/PERSISTENCE.md`).
    pub warm: Option<Arc<facile_vm::snapshot::LoadedSnapshot>>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            threads: 0,
            sections: Sections {
                metrics: true,
                ..Sections::default()
            },
            progress: None,
            warm: None,
        }
    }
}

/// The whole batch: per-job outcomes in submission order plus folds.
pub struct BatchResult {
    /// Outcomes, indexed exactly like the submitted job list.
    pub jobs: Vec<JobOutcome>,
    /// Every job's document folded in submission order and labelled
    /// `batch(N jobs)`. Each section is bit-for-bit what one recorder
    /// observing the lanes back to back would hold (timelines
    /// concatenate and the steady-state detector reruns over the
    /// concatenation).
    pub merged: RunDoc,
    /// Batch wall-clock (pool start to last worker join), nanoseconds.
    pub wall_ns: u64,
    /// Worker threads actually used.
    pub threads: usize,
}

impl BatchResult {
    /// Aggregate simulated steps per second: total steps over the batch
    /// wall-clock. This is the number that should beat serial execution.
    pub fn aggregate_steps_per_sec(&self) -> f64 {
        let steps: u64 = self.jobs.iter().map(|j| j.steps).sum();
        steps as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Batch failures: either a lane failed to construct, or the fold hit
/// documents that do not describe the same compiled program.
#[derive(Clone, Debug)]
pub enum BatchError {
    /// The submitted job list was empty. Folding an empty batch has no
    /// meaningful merged document, so this is a structured error rather
    /// than an empty result (it used to be a `done[0]` index panic).
    NoJobs,
    /// Job `index` failed during construction, binding, or by
    /// panicking inside the worker (see [`SimError::Panic`]).
    Job {
        /// Submission index of the failing job.
        index: usize,
        /// The underlying simulation error.
        error: SimError,
    },
    /// Profile sections disagreed on the action-table shape.
    Merge(String),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::NoJobs => write!(f, "no jobs were submitted"),
            BatchError::Job { index, error } => write!(f, "job {index}: {error}"),
            BatchError::Merge(m) => write!(f, "merge: {m}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Runs every job across a worker pool and folds the results.
///
/// Jobs are dispensed through an atomic index; each worker runs its job
/// through [`crate::job::execute`] (sharing `step` by reference count)
/// and drops the lane before pulling the next one. Outcomes land at
/// their submission index.
///
/// # Errors
///
/// Rejects an empty job list ([`BatchError::NoJobs`]); fails on the
/// first lane whose construction or binding fails or that panicked in
/// flight (lowest submission index wins, surfaced as a structured
/// [`SimError`] — the panic is caught per job, never unwinding the
/// pool); or if profile folding detects mismatched action tables —
/// impossible when all jobs share `step`, but checked.
pub fn run_batch(
    step: Arc<CompiledStep>,
    jobs: Vec<BatchJob>,
    config: &BatchConfig,
) -> Result<BatchResult, BatchError> {
    let n = jobs.len();
    if n == 0 {
        return Err(BatchError::NoJobs);
    }
    let threads = effective_threads(config.threads, n);
    let slots: Vec<Mutex<Option<BatchJob>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let outcomes: Vec<Mutex<Option<Result<JobOutcome, SimError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each job index is dispensed once");
                let label = job.label.clone();
                // A panicking job or progress callback must not unwind
                // `thread::scope` (which would abort every in-flight
                // lane and leave `None` outcome slots behind).
                let out = shielded(&label, || {
                    let out = execute(&step, job, &config.sections, config.warm.as_deref(), None);
                    if let (Some(cb), Ok(o)) = (&config.progress, &out) {
                        cb(o);
                    }
                    out
                });
                *outcomes[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let mut done = Vec::with_capacity(n);
    for (i, slot) in outcomes.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(Ok(outcome)) => done.push(outcome),
            Some(Err(error)) => return Err(BatchError::Job { index: i, error }),
            None => unreachable!("the dispenser covers every index"),
        }
    }

    let mut merged = done[0].doc.clone();
    merged.label = format!("batch({n} jobs)");
    for j in &done[1..] {
        merged.merge(&j.doc).map_err(BatchError::Merge)?;
    }
    Ok(BatchResult {
        jobs: done,
        merged,
        wall_ns,
        threads,
    })
}

/// Resolves the thread-count knob: `0` = available parallelism, and
/// never more workers than jobs.
fn effective_threads(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    };
    t.clamp(1, jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::{initial_args, ArchHost};
    use crate::{compile_source, CompilerOptions, SimOptions, Simulation};
    use facile_isa::assemble_image;
    use facile_runtime::Target;

    /// A counted loop with a data-dependent inner branch: long replays
    /// plus several misses, same shape as the stats-invariant tests.
    const LOOP_ASM: &str = "addi r1, r0, 200\n\
         addi r2, r0, 0\n\
         loop: add r2, r2, r1\n\
         andi r4, r1, 3\n\
         bne r4, r0, skip\n\
         addi r3, r3, 1\n\
         skip: addi r1, r1, -1\n\
         bne r1, r0, loop\n\
         out r2\n\
         halt\n";

    fn shared_step() -> Arc<CompiledStep> {
        let src = crate::sims::functional_source();
        Arc::new(compile_source(&src, &CompilerOptions::default()).unwrap())
    }

    fn jobs(k: usize) -> Vec<BatchJob> {
        let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
        (0..k)
            .map(|i| BatchJob {
                label: format!("job{i}"),
                image: image.clone(),
                args: initial_args::functional(image.entry),
                options: SimOptions::default(),
                max_steps: u64::MAX >> 1,
            })
            .collect()
    }

    /// A 4-thread batch's merged document equals the sum of per-job
    /// documents on every counter, and the jobs come back in
    /// submission order no matter which worker finished first.
    #[test]
    fn merged_doc_is_the_sum_of_the_lanes() {
        let step = shared_step();
        let config = BatchConfig {
            threads: 4,
            ..BatchConfig::default()
        };
        let result = run_batch(step, jobs(8), &config).expect("batch runs");
        assert_eq!(result.threads, 4);
        assert_eq!(result.jobs.len(), 8);
        for (i, j) in result.jobs.iter().enumerate() {
            assert_eq!(j.doc.label, format!("job{i}"), "submission order held");
            assert!(j.halt.is_some(), "every lane halts");
            assert!(j.doc.sim.misses > 0, "every lane misses at least once");
        }
        let sum = |f: fn(&JobOutcome) -> u64| result.jobs.iter().map(f).sum::<u64>();
        let m = &result.merged;
        assert_eq!(m.label, "batch(8 jobs)");
        assert_eq!(m.sim.insns, sum(|j| j.doc.sim.insns));
        assert_eq!(m.sim.misses, sum(|j| j.doc.sim.misses));
        assert_eq!(m.sim.fast_insns, sum(|j| j.doc.sim.fast_insns));
        assert_eq!(m.cache.bytes_total, sum(|j| j.doc.cache.bytes_total));
        let reg = m.metrics.as_ref().expect("observed batch carries a registry");
        let per_job: u64 = result
            .jobs
            .iter()
            .map(|j| j.doc.metrics.as_ref().unwrap().action_replays.iter().sum::<u64>())
            .sum();
        assert_eq!(reg.action_replays.iter().sum::<u64>(), per_job);
    }

    /// The merged profile keeps the exactness invariants the
    /// `sim_obs --check` gate enforces: attributed insns/misses equal
    /// the (summed) simulation counters.
    #[test]
    fn merged_profile_passes_the_exactness_gate() {
        let src = crate::sims::functional_source();
        let step = shared_step();
        let config = BatchConfig {
            threads: 4,
            sections: Sections {
                profile: Some(Arc::new(ProfileSource {
                    file: "<builtin:functional>".to_owned(),
                    src,
                })),
                ..Sections::default()
            },
            ..BatchConfig::default()
        };
        let result = run_batch(step, jobs(4), &config).expect("batch runs");
        let m = &result.merged;
        let p = m.profile.as_ref().expect("profiled batch");
        assert_eq!(p.attributed_insns(), m.sim.insns);
        assert_eq!(p.attributed_misses(), m.sim.misses);
        assert!(m.sim.insns > 0);
        assert_eq!(m.check(), Vec::<String>::new());
    }

    /// The merged timeline is exactly the submission-order fold of the
    /// per-lane documents (byte-identical JSON), and both levels pass
    /// the epoch-delta exactness gate: Σ epoch deltas, retained plus
    /// dropped, equals the final counters.
    #[test]
    fn merged_timeline_is_the_submission_order_fold() {
        let step = shared_step();
        let config = BatchConfig {
            threads: 4,
            sections: Sections {
                timeline: Some(32),
                ..Sections::default()
            },
            ..BatchConfig::default()
        };
        let result = run_batch(step, jobs(6), &config).expect("batch runs");
        let merged = &result.merged;
        assert!(merged.timeline.is_some(), "timeline batch");
        assert_eq!(merged.check(), Vec::<String>::new(), "merged doc recounts");
        for j in &result.jobs {
            let t = j.doc.timeline.as_ref().expect("every lane carries a timeline");
            assert_eq!(j.doc.check(), Vec::<String>::new(), "lane doc recounts");
            assert!(t.epochs_total() > 1, "budget-sliced lanes close several epochs");
        }
        let mut expected = result.jobs[0].doc.clone();
        expected.label = "batch(6 jobs)".to_owned();
        for j in &result.jobs[1..] {
            expected.merge(&j.doc).expect("same program");
        }
        assert_eq!(merged.to_json(), expected.to_json(), "fold is bit-for-bit");
    }

    /// Lanes warm-started from one shared snapshot replay from step 0,
    /// produce bit-identical merged counters to a cold batch, and stay
    /// isolated: private copy-on-write recording per lane, while a lane
    /// whose target digest does not match silently runs cold.
    #[test]
    fn lanes_share_one_warm_snapshot_copy_on_write() {
        let step = shared_step();
        let cold = run_batch(
            step.clone(),
            jobs(4),
            &BatchConfig {
                threads: 4,
                ..BatchConfig::default()
            },
        )
        .expect("cold batch");

        // Record the snapshot from one donor lane, the way
        // `facilec --run --cache-save` does.
        let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
        let mut donor = Simulation::new(
            step.clone(),
            Target::load(&image),
            &initial_args::functional(image.entry),
            SimOptions::default(),
        )
        .expect("donor constructs");
        ArchHost::new().bind(&mut donor).expect("binds");
        donor.run_steps(u64::MAX >> 1);
        assert!(donor.halted().is_some());
        let bytes = crate::snapshot::save(&donor);
        let snap = crate::snapshot::parse(&bytes).expect("round-trips");
        let payload = bytes.len() as u64 - u64::from(facile_vm::snapshot::HEADER_LEN);

        // Four matching lanes plus one with a different program: the
        // mismatched lane must run cold (and correctly), not wrongly.
        let mut batch_jobs = jobs(4);
        let other_asm = LOOP_ASM.replace("addi r1, r0, 200", "addi r1, r0, 120");
        let other = assemble_image(&other_asm, 0x1_0000, vec![]).expect("assembles");
        batch_jobs.push(BatchJob {
            label: "job-other".to_owned(),
            image: other.clone(),
            args: initial_args::functional(other.entry),
            options: SimOptions::default(),
            max_steps: u64::MAX >> 1,
        });
        let config = BatchConfig {
            threads: 4,
            warm: Some(Arc::new(snap)),
            ..BatchConfig::default()
        };
        let warm = run_batch(step, batch_jobs, &config).expect("warm batch");

        for (c, w) in cold.jobs.iter().zip(&warm.jobs) {
            let (c, w) = (&c.doc, &w.doc);
            assert_eq!(
                (c.sim.insns, c.sim.cycles),
                (w.sim.insns, w.sim.cycles),
                "warm lane {} must match its cold twin architecturally",
                w.label
            );
            // The whole point of sharing: no lane re-records the graph.
            assert_eq!(w.sim.slow_steps, 0, "{} replays from step 0", w.label);
            assert_eq!(w.cache.nodes_created, 0);
            assert_eq!(w.cache.bytes_frozen, payload);
            assert!(w.cache.frozen_gens > 0);
        }
        // The digest-mismatched lane declined the snapshot and ran cold.
        let other_lane = &warm.jobs[4];
        assert_eq!(other_lane.doc.cache.bytes_frozen, 0);
        assert!(other_lane.doc.sim.slow_steps > 0, "cold lane records");
        assert!(other_lane.halt.is_some());
        // Merged warm counters are the per-lane sum (4 pinned images).
        assert_eq!(warm.merged.cache.bytes_frozen, 4 * payload);
        assert_eq!(
            warm.merged.cache.frozen_gens,
            warm.jobs.iter().map(|j| j.doc.cache.frozen_gens).sum::<u64>()
        );
    }

    /// The progress callback fires exactly once per job, with a usable
    /// outcome, no matter which worker finishes first.
    #[test]
    fn progress_heartbeat_fires_once_per_job() {
        use std::sync::atomic::AtomicU64;
        let calls = Arc::new(AtomicU64::new(0));
        let seen_steps = Arc::new(AtomicU64::new(0));
        let (c, s) = (calls.clone(), seen_steps.clone());
        let config = BatchConfig {
            threads: 3,
            progress: Some(Box::new(move |o: &JobOutcome| {
                assert!(o.halt.is_some(), "heartbeat carries the halt");
                assert!(o.doc.label.starts_with("job"));
                c.fetch_add(1, Ordering::SeqCst);
                s.fetch_add(o.steps, Ordering::SeqCst);
            })),
            ..BatchConfig::default()
        };
        let result = run_batch(shared_step(), jobs(5), &config).expect("batch runs");
        assert_eq!(calls.load(Ordering::SeqCst), 5);
        let total: u64 = result.jobs.iter().map(|j| j.steps).sum();
        assert_eq!(seen_steps.load(Ordering::SeqCst), total);
    }

    /// An empty job list is a structured error, not the `done[0]` index
    /// panic it used to be: a daemon submitting whatever a client sent
    /// must get an `Err` it can turn into an error frame.
    #[test]
    fn empty_job_list_is_a_structured_error_not_a_panic() {
        let result = run_batch(shared_step(), vec![], &BatchConfig::default());
        assert!(
            matches!(result, Err(BatchError::NoJobs)),
            "empty batch must fail structurally"
        );
        let msg = result.err().map(|e| e.to_string()).unwrap_or_default();
        assert!(msg.contains("no jobs"), "message names the problem: {msg}");
    }

    /// A panicking progress callback used to unwind `thread::scope`,
    /// aborting every in-flight lane and leaving `None` outcome slots
    /// behind the `unreachable!` arm. Now the unwind is caught per job
    /// and surfaced as a structured [`SimError::Panic`] — the other
    /// lanes keep running and the batch fails cleanly.
    #[test]
    fn panicking_progress_callback_is_a_structured_error() {
        let config = BatchConfig {
            threads: 2,
            progress: Some(Box::new(|o: &JobOutcome| {
                if o.doc.label == "job1" {
                    panic!("deliberate test panic in job1's heartbeat");
                }
            })),
            ..BatchConfig::default()
        };
        let result = run_batch(shared_step(), jobs(4), &config);
        match result {
            Err(BatchError::Job { index, error: SimError::Panic(m) }) => {
                assert_eq!(index, 1, "the panicking job's submission index");
                assert!(m.contains("deliberate test panic"), "payload preserved: {m}");
                assert!(m.contains("job1"), "label named: {m}");
            }
            Err(e) => panic!("wrong error shape: {e}"),
            Ok(_) => panic!("a panicking callback must fail the batch"),
        }
    }

    /// The outcome's digest and `out` trace are the bit-identity
    /// witnesses the serve path compares against a direct run: same
    /// job, same digest, regardless of driver.
    #[test]
    fn outcome_digest_matches_a_direct_run() {
        let step = shared_step();
        let result = run_batch(
            step.clone(),
            jobs(2),
            &BatchConfig { threads: 2, ..BatchConfig::default() },
        )
        .expect("batch runs");

        let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
        let mut sim = Simulation::new(
            step,
            Target::load(&image),
            &initial_args::functional(image.entry),
            SimOptions::default(),
        )
        .expect("constructs");
        ArchHost::new().bind(&mut sim).expect("binds");
        sim.run_steps(u64::MAX >> 1);
        for j in &result.jobs {
            assert_eq!(j.digest, sim.memory().digest(), "{} digest", j.doc.label);
            assert_eq!(j.out, sim.trace().to_vec(), "{} out trace", j.doc.label);
        }
    }

    /// Thread count never exceeds the job count, and a serial (1-thread)
    /// batch produces the same merged counters as a wide one.
    #[test]
    fn thread_count_does_not_change_the_merged_counters() {
        let step = shared_step();
        let wide = run_batch(
            step.clone(),
            jobs(3),
            &BatchConfig { threads: 8, ..BatchConfig::default() },
        )
        .expect("wide batch");
        assert_eq!(wide.threads, 3, "capped at the job count");
        let serial = run_batch(
            step,
            jobs(3),
            &BatchConfig { threads: 1, ..BatchConfig::default() },
        )
        .expect("serial batch");
        assert_eq!(wide.merged.sim, serial.merged.sim);
        assert_eq!(
            wide.merged.metrics.as_ref().map(|m| &m.action_replays),
            serial.merged.metrics.as_ref().map(|m| &m.action_replays),
        );
    }
}
