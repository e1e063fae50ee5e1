//! One simulation job, start to finish — the single path every front
//! end drives.
//!
//! `facilec run` (a batch of one), every `facilec batch` lane, every
//! `facilec serve` job and the bench harness runners all go through
//! [`prepare`] and [`Lane::drive`]; [`execute`] composes the two.
//!
//! * **Prepare** constructs the simulation over the shared compiled
//!   step, binds the standard micro-architecture components
//!   ([`ArchHost`]), attaches exactly the recorders the wanted
//!   [`Sections`] need — no observer at all when no section is wanted —
//!   and warm-starts from a snapshot when one is offered and fits,
//!   reporting what became of it ([`WarmStart`]).
//! * **Drive** runs the job to its step budget, slicing the budget into
//!   epoch-sized pieces only when a timeline is wanted (replay bursts
//!   run to their whole budget, so an unsliced run of a tight loop would
//!   close one giant epoch), reports every closed epoch to an optional
//!   callback, and collects the [`JobOutcome`] with its run document.
//!
//! Callers that need the live [`Simulation`] between the steps or
//! afterwards — `facilec run --cache-save`, the warm-start benchmark —
//! hold the [`Lane`] and borrow it with [`Lane::sim`].

use crate::hosts::ArchHost;
use crate::obs::run_doc;
use crate::{
    CompiledStep, ObsConfig, ObsHandle, RunDoc, SimError, SimOptions, Simulation, TimelineConfig,
};
use facile_obs::EpochRecord;
use facile_runtime::{HaltReason, Image, Target};
use facile_vm::snapshot::LoadedSnapshot;
use facile_vm::ArgValue;
use std::io::Write;
use std::sync::Arc;

/// One simulation job: a target image plus the per-lane knobs.
pub struct BatchJob {
    /// Display label; becomes the per-job document label.
    pub label: String,
    /// The assembled target program.
    pub image: Image,
    /// Initial `main` arguments (e.g. [`crate::hosts::initial_args`]).
    pub args: Vec<ArgValue>,
    /// Engine options (memoization, cache capacity) for this lane.
    pub options: SimOptions,
    /// Step budget; `u64::MAX >> 1` effectively means "until halt".
    pub max_steps: u64,
}

/// Source text needed to resolve profile spans.
pub struct ProfileSource {
    /// Display name written into the documents (`file:line:col`).
    pub file: String,
    /// The Facile source the shared step was compiled from.
    pub src: String,
}

/// Which sections of the run document a job collects. The header's
/// plain counters are always collected (they cost nothing); every
/// section is recorded only when wanted, and each wanted section
/// attaches the one recorder it needs.
#[derive(Clone, Default)]
pub struct Sections {
    /// Attach the metrics registry (per-action counts, latency
    /// histograms, event-ring accounting) as the `metrics` section.
    pub metrics: bool,
    /// Build the source profile against this source (needs the
    /// registry, so it attaches one too).
    pub profile: Option<Arc<ProfileSource>>,
    /// Attach an epoch timeline with this interval in steps; the drive
    /// is then sliced into epoch-sized budgets.
    pub timeline: Option<u64>,
}

/// The section names, as `--obs` lists and serve `want` arrays spell
/// them.
pub const SECTION_NAMES: [&str; 3] = ["metrics", "profile", "timeline"];

impl Sections {
    /// Parses section names (`metrics`, `profile`, `timeline`): a
    /// profile resolves its spans against `source` and the timeline
    /// closes an epoch every `epoch_steps` steps.
    ///
    /// # Errors
    ///
    /// An unknown name, or `profile` without a source.
    pub fn from_names<'a>(
        names: impl IntoIterator<Item = &'a str>,
        source: Option<&Arc<ProfileSource>>,
        epoch_steps: u64,
    ) -> Result<Sections, String> {
        let mut s = Sections::default();
        for name in names {
            match name {
                "metrics" => s.metrics = true,
                "profile" => {
                    let src = source.ok_or("the profile section needs the simulator source")?;
                    s.profile = Some(src.clone());
                }
                "timeline" => s.timeline = Some(epoch_steps),
                other => {
                    return Err(format!(
                        "unknown section `{other}`; sections are {}",
                        SECTION_NAMES.join("|")
                    ))
                }
            }
        }
        Ok(s)
    }

    /// Whether no section is wanted.
    pub fn is_empty(&self) -> bool {
        !self.metrics && self.profile.is_none() && self.timeline.is_none()
    }

    /// The observer these sections need, or `None` when the job can run
    /// unobserved. `trace` asks for the event ring on behalf of a live
    /// trace stream.
    pub(crate) fn obs_config(&self, trace: bool) -> Option<ObsConfig> {
        let registry = self.metrics || self.profile.is_some();
        if !(registry || trace || self.timeline.is_some()) {
            return None;
        }
        Some(ObsConfig {
            // The ring feeds the trace stream, and its drop count is
            // part of what the registry reports.
            trace: registry || trace,
            metrics: registry,
            timeline: self
                .timeline
                .map_or_else(TimelineConfig::default, |epoch_steps| TimelineConfig {
                    enabled: true,
                    epoch_steps,
                    ..TimelineConfig::default()
                }),
            ..ObsConfig::default()
        })
    }
}

/// Live JSONL sinks for one job (`facilec run --trace-out` and
/// `--timeline-stream`); batch lanes and serve jobs have none.
#[derive(Default)]
pub struct Streams {
    /// Receives the structured event trace.
    pub trace: Option<Box<dyn Write + Send>>,
    /// Receives one line per closed timeline epoch, as it closes.
    pub timeline: Option<Box<dyn Write + Send>>,
}

/// What became of the warm snapshot a job was offered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WarmStart {
    /// No snapshot was offered.
    Cold,
    /// The snapshot was installed; replay starts at the first step.
    Used,
    /// The snapshot does not fit this job (different target, compiled
    /// step, cache capacity or policy, or memoization is off). The job
    /// runs cold — same results, only slower.
    Declined(String),
}

/// A per-closed-epoch observer: the epoch's index and record.
pub type EpochCallback<'a> = Option<&'a dyn Fn(u64, &EpochRecord)>;

/// What one finished job produced.
pub struct JobOutcome {
    /// Why (whether) the simulation halted within its step budget.
    pub halt: Option<HaltReason>,
    /// Steps executed (slow + fast).
    pub steps: u64,
    /// Digest of the lane's final target memory — the bit-identity
    /// witness drivers compare across execution paths (batch vs serve
    /// vs a direct run of the same job).
    pub digest: u64,
    /// The program's `out` values, in emission order.
    pub out: Vec<i64>,
    /// The job's run document: its label, wall-clock and counters, plus
    /// the wanted sections.
    pub doc: RunDoc,
}

/// A prepared job: the wired simulation plus what driving needs.
pub struct Lane {
    sim: Simulation,
    label: String,
    max_steps: u64,
    sections: Sections,
    warm: WarmStart,
}

/// Builds one job's simulation: construct over the shared `step`, bind
/// the micro-architecture components, attach the observer `sections`
/// (and `streams`) need, and warm-start from `warm` when it fits. The
/// observer goes on first so the `snapshot_load` event and the
/// warm-start counters land in the job's documents.
///
/// # Errors
///
/// Construction (arguments that do not match `main`) or binding
/// failures.
pub fn prepare(
    step: &Arc<CompiledStep>,
    job: BatchJob,
    sections: &Sections,
    warm: Option<&LoadedSnapshot>,
    streams: Streams,
) -> Result<Lane, SimError> {
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(&job.image),
        &job.args,
        job.options,
    )?;
    ArchHost::new().bind(&mut sim)?;
    if let Some(config) = sections.obs_config(streams.trace.is_some()) {
        let obs = ObsHandle::new(config);
        if let Some(w) = streams.trace {
            obs.set_writer(w);
        }
        if let Some(w) = streams.timeline {
            obs.set_timeline_writer(w);
        }
        sim.attach_obs(obs);
    }
    let warm = match warm {
        None => WarmStart::Cold,
        Some(snap) => match snap
            .validate(&sim)
            .map_err(|e| e.to_string())
            .and_then(|()| sim.warm_start(snap.image()).map_err(str::to_owned))
        {
            Ok(()) => WarmStart::Used,
            Err(reason) => WarmStart::Declined(reason),
        },
    };
    Ok(Lane {
        sim,
        label: job.label,
        max_steps: job.max_steps,
        sections: sections.clone(),
        warm,
    })
}

/// Prepares and drives one job with no live streams — what a batch lane
/// and a serve job are.
///
/// # Errors
///
/// As [`prepare`].
pub fn execute(
    step: &Arc<CompiledStep>,
    job: BatchJob,
    sections: &Sections,
    warm: Option<&LoadedSnapshot>,
    epoch_cb: EpochCallback<'_>,
) -> Result<JobOutcome, SimError> {
    Ok(prepare(step, job, sections, warm, Streams::default())?.drive(epoch_cb))
}

impl Lane {
    /// What became of the offered warm snapshot.
    pub fn warm(&self) -> &WarmStart {
        &self.warm
    }

    /// The live simulation (e.g. to snapshot its action cache).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Runs the job to its step budget and collects the outcome.
    /// `epoch_cb` (serve heartbeats) fires once per closed timeline
    /// epoch, in order; it only fires when a timeline was wanted.
    pub fn drive(&mut self, epoch_cb: EpochCallback<'_>) -> JobOutcome {
        let sim = &mut self.sim;
        let t0 = std::time::Instant::now();
        let halt = match self.sections.timeline {
            Some(epoch) => {
                let slice = epoch.max(1);
                let mut left = self.max_steps;
                let mut seen_epochs = 0u64;
                loop {
                    let halt = sim.run_steps(slice.min(left));
                    left = left.saturating_sub(slice);
                    if let Some(cb) = epoch_cb {
                        // Epochs evicted into `dropped_sum` before this
                        // poll are gone; reports resume at the oldest
                        // retained one.
                        if let Some(t) = sim.obs().timeline() {
                            let total = t.epochs_total();
                            let dropped = total.saturating_sub(t.epochs.len() as u64);
                            seen_epochs = seen_epochs.max(dropped);
                            while seen_epochs < total {
                                cb(seen_epochs, &t.epochs[(seen_epochs - dropped) as usize]);
                                seen_epochs += 1;
                            }
                        }
                    }
                    if halt.is_some() || left == 0 {
                        break halt;
                    }
                }
            }
            None => sim.run_steps(self.max_steps),
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let doc = run_doc(&self.label, sim, wall_ns, &self.sections);
        JobOutcome {
            halt,
            steps: sim.stats().fast_steps + sim.stats().slow_steps,
            digest: sim.memory().digest(),
            out: sim.trace().to_vec(),
            doc,
        }
    }
}

/// Runs one job under a panic shield: a panic inside `f` (the engine,
/// an external, a progress callback) comes back as a
/// [`SimError::Panic`] naming the job instead of unwinding the worker.
pub(crate) fn shielded(
    label: &str,
    f: impl FnOnce() -> Result<JobOutcome, SimError>,
) -> Result<JobOutcome, SimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        // `panic!` carries `&str` or `String`.
        let msg = match (
            payload.downcast_ref::<&str>(),
            payload.downcast_ref::<String>(),
        ) {
            (Some(s), _) => (*s).to_owned(),
            (_, Some(s)) => s.clone(),
            _ => "non-string panic payload".to_owned(),
        };
        Err(SimError::Panic(format!("job `{label}`: {msg}")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::initial_args;
    use crate::{compile_source, CompilerOptions};
    use facile_isa::assemble_image;

    const LOOP_ASM: &str = "addi r1, r0, 120\n\
         addi r2, r0, 0\n\
         loop: add r2, r2, r1\n\
         addi r1, r1, -1\n\
         bne r1, r0, loop\n\
         out r2\n\
         halt\n";

    fn step() -> Arc<CompiledStep> {
        let src = crate::sims::functional_source();
        Arc::new(compile_source(&src, &CompilerOptions::default()).unwrap())
    }

    fn job(asm: &str) -> BatchJob {
        let image = assemble_image(asm, 0x1_0000, vec![]).expect("assembles");
        BatchJob {
            label: "loop".to_owned(),
            args: initial_args::functional(image.entry),
            image,
            options: SimOptions::default(),
            max_steps: u64::MAX >> 1,
        }
    }

    /// Each section attaches only what it needs: nothing wanted runs
    /// unobserved, the timeline alone carries no metrics registry,
    /// and the results are the same either way.
    #[test]
    fn sections_attach_only_what_they_need() {
        let step = step();
        let bare = prepare(
            &step,
            job(LOOP_ASM),
            &Sections::default(),
            None,
            Streams::default(),
        )
        .expect("prepares");
        assert!(!bare.sim().obs().enabled(), "no document, no observer");
        let mut bare = bare;
        let plain = bare.drive(None);
        let d = &plain.doc;
        assert!(d.metrics.is_none() && d.profile.is_none());
        assert!(d.timeline.is_none());

        let timeline = Sections {
            timeline: Some(16),
            ..Sections::default()
        };
        let o = execute(&step, job(LOOP_ASM), &timeline, None, None).expect("runs");
        assert!(o.doc.metrics.is_none(), "the timeline needs no registry");
        assert!(o.doc.timeline.is_some());
        assert_eq!((o.digest, o.doc.sim), (plain.digest, plain.doc.sim));
    }

    /// The epoch callback sees every closed epoch once, in order, and
    /// only when a timeline is wanted.
    #[test]
    fn epoch_callback_fires_per_closed_epoch() {
        let step = step();
        let seen = std::sync::Mutex::new(Vec::new());
        let cb = |i: u64, _: &EpochRecord| seen.lock().unwrap().push(i);
        let sections = Sections {
            timeline: Some(16),
            ..Sections::default()
        };
        let o = execute(&step, job(LOOP_ASM), &sections, None, Some(&cb)).expect("runs");
        let total = o.doc.timeline.expect("timeline wanted").epochs_total();
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        assert!(seen.len() > 1, "a 16-step epoch closes several times");
        assert!(
            seen.iter().enumerate().all(|(k, &i)| k as u64 == i),
            "{seen:?}"
        );
        // The final partial epoch closes when the document is built,
        // after the drive.
        assert!(seen.len() as u64 >= total - 1);

        let silent = std::sync::atomic::AtomicU64::new(0);
        let cb = |_: u64, _: &EpochRecord| {
            silent.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        };
        execute(&step, job(LOOP_ASM), &Sections::default(), None, Some(&cb)).expect("runs");
        assert_eq!(silent.into_inner(), 0, "no timeline, no epochs");
    }

    #[test]
    fn section_names_parse_strictly() {
        let src = Arc::new(ProfileSource {
            file: "f.fac".to_owned(),
            src: String::new(),
        });
        let s = Sections::from_names(SECTION_NAMES, Some(&src), 32).expect("all three");
        assert!(s.metrics && s.profile.is_some());
        assert_eq!(s.timeline, Some(32));
        for retired in ["hto", "hot"] {
            let err = Sections::from_names(["metrics", retired], Some(&src), 1).err();
            let err = err.expect("an unknown name is an error");
            assert!(
                err.contains(&format!("unknown section `{retired}`")),
                "{err}"
            );
        }
        assert!(Sections::from_names(["profile"], None, 1).is_err());
    }

    /// Prepare reports what became of the offered snapshot: used when
    /// it fits, declined (and a cold run) when it does not.
    #[test]
    fn prepare_reports_the_warm_start() {
        let step = step();
        let mut donor = prepare(
            &step,
            job(LOOP_ASM),
            &Sections::default(),
            None,
            Streams::default(),
        )
        .expect("prepares");
        assert_eq!(donor.warm(), &WarmStart::Cold);
        let cold = donor.drive(None);
        let snap = crate::snapshot::parse(&crate::snapshot::save(donor.sim())).expect("parses");

        let mut warm = prepare(
            &step,
            job(LOOP_ASM),
            &Sections::default(),
            Some(&snap),
            Streams::default(),
        )
        .expect("prepares");
        assert_eq!(warm.warm(), &WarmStart::Used);
        let o = warm.drive(None);
        assert_eq!(o.doc.sim.slow_steps, 0, "replays from the first step");
        assert_eq!(
            (o.digest, o.doc.sim.cycles),
            (cold.digest, cold.doc.sim.cycles)
        );

        let other = LOOP_ASM.replace("120", "90");
        let declined = prepare(
            &step,
            job(&other),
            &Sections::default(),
            Some(&snap),
            Streams::default(),
        )
        .expect("prepares");
        assert!(
            matches!(declined.warm(), WarmStart::Declined(_)),
            "{:?}",
            declined.warm()
        );
    }
}
