//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each table/figure has a binary under `src/bin/` (see DESIGN.md §4 for
//! the experiment index). This library holds the runners they share;
//! every Facile run goes through the same job pipeline as `facilec`
//! (`facile::job`).

use facile::hosts::initial_args;
use facile::job::{execute, BatchJob, JobOutcome, ProfileSource, Sections};
use facile::{compile_source, CompiledStep, CompilerOptions, SimOptions};

pub use facile::CachePolicy;
use facile::{HotDoc, TimelineDoc};
use facile_obs::{CacheStatsSnapshot, MetricsDoc, SimStatsSnapshot};
use facile_runtime::Image;
use facile_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one measured simulator run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Retired target instructions.
    pub insns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Host wall-clock time.
    pub wall: Duration,
    /// Fraction of instructions fast-forwarded (0 for non-memoizing).
    pub fast_fraction: f64,
    /// Instructions executed on the slow/complete path.
    pub slow_insns: u64,
    /// Action-cache misses (replay divergences).
    pub misses: u64,
    /// Bytes ever memoized.
    pub memo_bytes: u64,
    /// Cache/memo clear events.
    pub clears: u64,
    /// Generations evicted by the generational policy (0 under clear).
    pub evictions: u64,
}

impl RunResult {
    /// Simulated target instructions per host second.
    pub fn sim_ips(&self) -> f64 {
        self.insns as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The counters of a finished Facile job.
    pub fn of_job(o: &JobOutcome) -> RunResult {
        let (sim, cache) = (&o.metrics.sim, &o.metrics.cache);
        RunResult {
            insns: sim.insns,
            cycles: sim.cycles,
            wall: Duration::from_nanos(o.wall_ns),
            fast_fraction: sim.fast_forwarded_fraction(),
            slow_insns: sim.slow_insns,
            misses: sim.misses,
            memo_bytes: cache.bytes_total,
            clears: cache.clears,
            evictions: cache.evictions,
        }
    }
}

/// Upper bound on simulated instructions per run (safety net; workloads
/// halt on their own).
pub const MAX_INSNS: u64 = 2_000_000_000;

/// Collects one JSON document per run; [`finish`](DocSink::finish)
/// writes them as JSONL to the path its flag named. Without the flag
/// the sink is inert and the runners skip the observation it would
/// need.
pub struct DocSink {
    path: Option<String>,
    kind: &'static str,
    lines: Vec<String>,
}

impl DocSink {
    /// Binds to the `--metrics-out <path>` command-line argument.
    pub fn metrics() -> DocSink {
        DocSink::from_arg("--metrics-out", "metrics")
    }

    /// Binds to the `--profile-out <path>` command-line argument.
    pub fn profile() -> DocSink {
        DocSink::from_arg("--profile-out", "profile")
    }

    fn from_arg(flag: &str, kind: &'static str) -> DocSink {
        DocSink {
            path: arg_str(flag),
            kind,
            lines: Vec::new(),
        }
    }

    /// A sink that collects nothing.
    pub fn disabled() -> DocSink {
        DocSink {
            path: None,
            kind: "",
            lines: Vec::new(),
        }
    }

    /// Whether documents are being collected.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Adds one rendered document (no-op when inactive).
    pub fn push(&mut self, json: String) {
        if self.active() {
            self.lines.push(json);
        }
    }

    /// Writes the collected documents as JSONL and reports the path.
    pub fn finish(&self) {
        let Some(path) = &self.path else { return };
        let mut body = self.lines.join("\n");
        body.push('\n');
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("wrote {} {} document(s) to {path}", self.lines.len(), self.kind),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

/// Runs the SimpleScalar-role conventional simulator.
pub fn run_simplescalar(image: &Image) -> RunResult {
    run_simplescalar_sink(image, "simplescalar", &mut DocSink::disabled())
}

/// [`run_simplescalar`], recording a metrics document into the sink.
/// SimpleScalar has no fast path, so every instruction counts as slow
/// and the cache snapshot is empty.
pub fn run_simplescalar_sink(image: &Image, label: &str, sink: &mut DocSink) -> RunResult {
    let mut sim = simplescalar::SimpleScalar::new(image, simplescalar::Config::default());
    let t0 = Instant::now();
    sim.run(MAX_INSNS);
    let wall = t0.elapsed();
    assert!(sim.halted(), "workload did not halt under simplescalar");
    sink.push(
        MetricsDoc {
            label: label.to_owned(),
            sim: SimStatsSnapshot {
                cycles: sim.stats.cycles,
                insns: sim.stats.insns,
                slow_insns: sim.stats.insns,
                ..SimStatsSnapshot::default()
            },
            cache: CacheStatsSnapshot::default(),
            wall_ns: wall.as_nanos() as u64,
            metrics: None,
        }
        .to_json(),
    );
    RunResult {
        insns: sim.stats.insns,
        cycles: sim.stats.cycles,
        wall,
        fast_fraction: 0.0,
        slow_insns: sim.stats.insns,
        misses: 0,
        memo_bytes: 0,
        clears: 0,
        evictions: 0,
    }
}

/// Runs the hand-coded memoizing simulator (FastSim role).
pub fn run_fastsim(image: &Image, memoize: bool, capacity: Option<u64>) -> RunResult {
    run_fastsim_sink(image, memoize, capacity, "fastsim", &mut DocSink::disabled())
}

/// [`run_fastsim`], recording a metrics document into the sink. FastSim
/// tracks its own counters (no obs pipeline), so the document carries
/// the snapshot fields it has and no derived registry.
pub fn run_fastsim_sink(
    image: &Image,
    memoize: bool,
    capacity: Option<u64>,
    label: &str,
    sink: &mut DocSink,
) -> RunResult {
    let mut sim = fastsim::FastSim::new(image, memoize, capacity);
    let t0 = Instant::now();
    sim.run(MAX_INSNS);
    let wall = t0.elapsed();
    assert!(sim.halted(), "workload did not halt under fastsim");
    let m = sim.memo_stats();
    sink.push(
        MetricsDoc {
            label: label.to_owned(),
            sim: SimStatsSnapshot {
                cycles: sim.stats.cycles,
                insns: sim.stats.insns,
                fast_insns: sim.stats.fast_insns,
                slow_insns: sim.stats.slow_insns,
                misses: sim.stats.misses,
                ..SimStatsSnapshot::default()
            },
            cache: CacheStatsSnapshot {
                entries_created: m.entries_created,
                nodes_created: m.cases_created,
                clears: m.clears,
                bytes_current: m.bytes_current,
                bytes_total: m.bytes_total,
                // FastSim does not track a high-water mark; the held
                // bytes at halt are the best lower bound available.
                bytes_peak: m.bytes_current,
                bytes_cleared: m.bytes_total.saturating_sub(m.bytes_current),
                evictions: 0,
                bytes_evicted: 0,
                bytes_frozen: 0,
                frozen_gens: 0,
            },
            wall_ns: wall.as_nanos() as u64,
            metrics: None,
        }
        .to_json(),
    );
    RunResult {
        insns: sim.stats.insns,
        cycles: sim.stats.cycles,
        wall,
        fast_fraction: sim.stats.fast_forwarded_fraction(),
        slow_insns: sim.stats.slow_insns,
        misses: sim.stats.misses,
        memo_bytes: m.bytes_total,
        clears: m.clears,
        evictions: 0,
    }
}

/// Which shipped Facile simulator to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FacileSim {
    /// `functional.fac`
    Functional,
    /// `inorder.fac`
    Inorder,
    /// `ooo.fac`
    Ooo,
}

impl FacileSim {
    /// The simulator a `--sim functional|inorder|ooo` argument names
    /// (default `ooo`).
    pub fn from_arg() -> FacileSim {
        match arg_str("--sim").as_deref() {
            Some("functional") => FacileSim::Functional,
            Some("inorder") => FacileSim::Inorder,
            _ => FacileSim::Ooo,
        }
    }

    /// The shipped simulator's name (`facilec --builtin` spelling).
    pub fn name(self) -> &'static str {
        match self {
            FacileSim::Functional => "functional",
            FacileSim::Inorder => "inorder",
            FacileSim::Ooo => "ooo",
        }
    }

    /// One job of this simulator over `image`, run to halt.
    pub fn job(self, label: &str, image: Image, options: SimOptions) -> BatchJob {
        BatchJob {
            label: label.to_owned(),
            args: initial_args::for_arch(self.name(), image.entry),
            image,
            options,
            max_steps: MAX_INSNS,
        }
    }
}

/// The Facile source of a shipped simulator and its display file name
/// (what profile rows resolve their lines against).
pub fn facile_source(which: FacileSim) -> (String, &'static str) {
    match which {
        FacileSim::Functional => (facile::sims::functional_source(), "functional.fac"),
        FacileSim::Inorder => (facile::sims::inorder_source(), "inorder.fac"),
        FacileSim::Ooo => (facile::sims::ooo_source(), "ooo.fac"),
    }
}

/// Compiles a shipped Facile simulator once (shared across runs).
pub fn compile_facile(which: FacileSim) -> Arc<CompiledStep> {
    let (src, _) = facile_source(which);
    Arc::new(compile_source(&src, &CompilerOptions::default()).expect("shipped simulator compiles"))
}

/// Runs one Facile job to halt through the job pipeline, collecting the
/// wanted documents.
pub fn run_facile_job(
    step: &Arc<CompiledStep>,
    which: FacileSim,
    image: &Image,
    options: SimOptions,
    label: &str,
    sections: &Sections,
) -> JobOutcome {
    let job = which.job(label, image.clone(), options);
    let o = execute(step, job, sections, None, None).expect("simulation constructs");
    assert!(o.halt.is_some(), "workload did not halt under the facile simulator");
    o
}

/// Engine options of a measured run.
pub fn sim_options(memoize: bool, capacity: Option<u64>, policy: CachePolicy) -> SimOptions {
    SimOptions {
        memoize,
        cache_capacity: capacity,
        cache_policy: policy,
        ..SimOptions::default()
    }
}

/// Runs a compiled Facile simulator over an image, unobserved.
pub fn run_facile(
    step: &Arc<CompiledStep>,
    which: FacileSim,
    image: &Image,
    memoize: bool,
    capacity: Option<u64>,
    policy: CachePolicy,
) -> RunResult {
    let options = sim_options(memoize, capacity, policy);
    RunResult::of_job(&run_facile_job(step, which, image, options, "facile", &Sections::default()))
}

/// [`run_facile`], recording a metrics document into `sink` and a
/// source-level profile into `prof` when they are active. An active
/// sink attaches the metrics registry, so the document carries the
/// per-action replay counts, latency histograms and recovery depths;
/// with both sinks inert the run is unobserved.
#[allow(clippy::too_many_arguments)]
pub fn run_facile_obs(
    step: &Arc<CompiledStep>,
    which: FacileSim,
    image: &Image,
    memoize: bool,
    capacity: Option<u64>,
    policy: CachePolicy,
    label: &str,
    sink: &mut DocSink,
    prof: &mut DocSink,
) -> RunResult {
    let sections = Sections {
        metrics: sink.active(),
        profile: prof.active().then(|| {
            let (src, file) = facile_source(which);
            Arc::new(ProfileSource {
                file: file.to_owned(),
                src,
            })
        }),
        ..Sections::default()
    };
    let options = sim_options(memoize, capacity, policy);
    let o = run_facile_job(step, which, image, options, label, &sections);
    sink.push(o.metrics.to_json());
    if let Some(p) = &o.profile {
        prof.push(p.to_json());
    }
    RunResult::of_job(&o)
}

/// Observability level of a measured Facile run (the obs-overhead
/// self-benchmark sweeps these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsMode {
    /// No recorder: every hook is one null check. This is the
    /// always-on-capable baseline the overhead gate holds to the
    /// unobserved run.
    Disabled,
    /// The replay flight recorder sampling 1-in-N bursts (trace ring
    /// and metrics registry off).
    Sampled(u64),
    /// The flight recorder on every burst (trace ring and metrics
    /// registry off). Recounts are exact in this mode.
    Full,
    /// Epoch timeline with this interval in steps (trace ring, metrics
    /// registry and flight recorder off). The run is driven in
    /// epoch-sized budget slices, exactly as `facilec --timeline-out`
    /// drives it, so the measured cost includes both the per-epoch
    /// sampling and the slicing itself.
    Timeline(u64),
}

impl ObsMode {
    /// Display name (`disabled`, `sampled`, `full`, `timeline`).
    pub fn label(self) -> &'static str {
        match self {
            ObsMode::Disabled => "disabled",
            ObsMode::Sampled(_) => "sampled",
            ObsMode::Full => "full",
            ObsMode::Timeline(_) => "timeline",
        }
    }

    /// The job sections this mode wants. The metrics registry stays
    /// off: this benchmark isolates the recorders' own cost, and the
    /// registry's per-action accounting is a separate, additive pathway
    /// with its own (much larger) per-action price.
    fn sections(self) -> Sections {
        match self {
            ObsMode::Disabled => Sections::default(),
            ObsMode::Sampled(n) => Sections {
                hot: Some(n.max(1)),
                ..Sections::default()
            },
            ObsMode::Full => Sections {
                hot: Some(1),
                ..Sections::default()
            },
            ObsMode::Timeline(epoch) => Sections {
                timeline: Some(epoch.max(1)),
                ..Sections::default()
            },
        }
    }
}

/// One measured run with an observability mode attached.
pub struct HotRun {
    /// The usual run result (wall, insns, fast fraction, ...).
    pub run: RunResult,
    /// Simulator main-loop iterations (fast + slow steps) — the unit of
    /// replay throughput `BENCH_fastsim.json` reports.
    pub steps: u64,
    /// The flight-recorder document (`None` in [`ObsMode::Disabled`]
    /// and [`ObsMode::Timeline`]).
    pub hot: Option<HotDoc>,
    /// The epoch time-series document (`None` outside
    /// [`ObsMode::Timeline`]).
    pub timeline: Option<TimelineDoc>,
}

impl HotRun {
    /// Steps per host second.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.run.wall.as_secs_f64().max(1e-9)
    }
}

/// Runs a compiled Facile simulator with the given observability mode
/// attached.
#[allow(clippy::too_many_arguments)]
pub fn run_facile_hot(
    step: &Arc<CompiledStep>,
    which: FacileSim,
    image: &Image,
    memoize: bool,
    capacity: Option<u64>,
    policy: CachePolicy,
    label: &str,
    mode: ObsMode,
) -> HotRun {
    let options = sim_options(memoize, capacity, policy);
    let o = run_facile_job(step, which, image, options, label, &mode.sections());
    HotRun {
        run: RunResult::of_job(&o),
        steps: o.steps,
        hot: o.hot,
        timeline: o.timeline,
    }
}

/// Builds the image of a workload at the given scale.
pub fn workload_image(w: &Workload, scale: f64) -> Image {
    facile_workloads::build_image(w, scale)
}

/// Formats a rate as "N.NN M/s".
pub fn fmt_rate(ips: f64) -> String {
    if ips >= 1e6 {
        format!("{:7.2}M", ips / 1e6)
    } else {
        format!("{:7.1}k", ips / 1e3)
    }
}

/// Harmonic mean of positive values.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if values.is_empty() {
        return 0.0;
    }
    n / values.iter().map(|v| 1.0 / v.max(1e-12)).sum::<f64>()
}

/// Reads a `--name <value>` string argument.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Reads a `--scale <f64>` style argument with a default.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Times `f` over `samples` runs and prints one line per configuration:
/// label, best and median wall time, and the checksum of the last run
/// (so the measured work cannot be optimized away). Replaces the
/// external criterion harness; the workspace builds offline.
pub fn time_bench(label: &str, samples: usize, f: &mut dyn FnMut() -> u64) {
    let mut times: Vec<Duration> = Vec::with_capacity(samples.max(1));
    let mut check = 0u64;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        check = f();
        times.push(t0.elapsed());
    }
    times.sort();
    let best = times[0];
    let median = times[times.len() / 2];
    println!(
        "{label:<40} best {best:>10.3?}  median {median:>10.3?}  (check {check})"
    );
}
