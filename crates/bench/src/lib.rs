//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each table/figure has a binary under `src/bin/` (see DESIGN.md §4 for
//! the experiment index). This library holds the runners they share;
//! every Facile run goes through the same job pipeline as `facilec`
//! (`facile::job`).

use facile::hosts::initial_args;
use facile::job::{execute, BatchJob, JobOutcome, ProfileSource, Sections};
use facile::{compile_source, CompiledStep, CompilerOptions, RunDoc, SimOptions};

pub use facile::CachePolicy;
use facile_obs::{CacheStatsSnapshot, SimStatsSnapshot, DEFAULT_EPOCH_STEPS};
use facile_runtime::Image;
use facile_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on simulated instructions per run (safety net; workloads
/// halt on their own).
pub const MAX_INSNS: u64 = 2_000_000_000;

/// A bench binary's command line: the flags it accepts and its usage
/// text. [`Cli::parse`] is the one argument parser every binary uses:
/// `--help` prints the usage and exits 0; an unknown flag, a missing
/// value or (through [`Args::get`]) an unparsable one prints the usage
/// to stderr and exits 2.
pub struct Cli {
    /// Usage text.
    pub usage: &'static str,
    /// Flags that take a value (`--scale 0.1`).
    pub values: &'static [&'static str],
    /// Flags that take none (`--compare`).
    pub switches: &'static [&'static str],
    /// Whether bare arguments (input files) are accepted.
    pub files: bool,
}

/// Why a command line did not parse.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--help`/`-h` was given.
    Help,
    /// The arguments are wrong; the message says how.
    Bad(String),
}

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    /// The bare arguments, in order (when the [`Cli`] accepts files).
    pub files: Vec<String>,
}

impl Cli {
    /// Parses the process arguments, exiting on `--help` or an error.
    pub fn parse(&self) -> Args {
        match self.try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(ArgError::Help) => {
                println!("{}", self.usage);
                std::process::exit(0)
            }
            Err(ArgError::Bad(msg)) => usage_error(self.usage, &msg),
        }
    }

    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// [`ArgError::Help`] for `--help`, [`ArgError::Bad`] for an unknown
    /// flag, a value flag at the end, or an unexpected bare argument.
    pub fn try_parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut args = Args {
            usage: self.usage,
            values: Vec::new(),
            switches: Vec::new(),
            files: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(ArgError::Help);
            }
            if let Some(&flag) = self.values.iter().find(|f| **f == arg) {
                let v = it.next().ok_or_else(|| ArgError::Bad(format!("{flag} requires a value")))?;
                args.values.push((flag, v));
            } else if let Some(&flag) = self.switches.iter().find(|f| **f == arg) {
                args.switches.push(flag);
            } else if self.files && !arg.starts_with('-') {
                args.files.push(arg);
            } else {
                return Err(ArgError::Bad(format!("unexpected argument `{arg}`")));
            }
        }
        Ok(args)
    }
}

/// Prints `msg` and the usage to stderr and exits 2.
fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{usage}");
    std::process::exit(2)
}

impl Args {
    /// The value of `flag` (the last one when repeated).
    pub fn str(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the switch `flag` was given.
    pub fn on(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of `flag` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// A present value that does not parse.
    pub fn try_get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.str(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: cannot parse `{v}`")),
        }
    }

    /// [`try_get`](Self::try_get), exiting with the usage on an
    /// unparsable value.
    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.try_get(flag, default).unwrap_or_else(|e| self.fail(&e))
    }

    /// The value of `flag` mapped through `options` by name, or
    /// `default` when absent; any other value exits with the usage.
    pub fn choice<T: Copy>(&self, flag: &str, options: &[(&str, T)], default: T) -> T {
        let Some(v) = self.str(flag) else {
            return default;
        };
        match options.iter().find(|(name, _)| *name == v) {
            Some((_, t)) => *t,
            None => {
                let names: Vec<&str> = options.iter().map(|(n, _)| *n).collect();
                self.fail(&format!("{flag} takes {}, not `{v}`", names.join("|")))
            }
        }
    }

    /// Prints `msg` and the usage to stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_error(self.usage, msg)
    }
}

/// Collects one run document per run; [`finish`](DocSink::finish)
/// writes them as JSONL to the `--obs-out` path, each carrying the
/// sections `--obs` names. Without `--obs-out` the sink is inert and the
/// runners skip the observation it would need; `DocSink::default()` is
/// such an inert sink.
#[derive(Default)]
pub struct DocSink {
    path: Option<String>,
    names: Vec<String>,
    lines: Vec<String>,
}

impl DocSink {
    /// Binds to `--obs-out <path>` and `--obs <sections>` (default
    /// `default`), exiting with the usage on an unknown section name.
    pub fn new(args: &Args, default: &str) -> DocSink {
        let names: Vec<String> = args
            .str("--obs")
            .unwrap_or(default)
            .split(',')
            .filter(|n| !n.is_empty())
            .map(str::to_owned)
            .collect();
        let sink = DocSink {
            path: args.str("--obs-out").map(str::to_owned),
            names,
            lines: Vec::new(),
        };
        if let Err(e) = sink.try_sections(FacileSim::Ooo) {
            args.fail(&format!("--obs: {e}"));
        }
        sink
    }

    /// Whether documents are being collected.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Whether an active sink wants the section `name`.
    pub fn wants(&self, name: &str) -> bool {
        self.active() && self.names.iter().any(|n| n == name)
    }

    fn try_sections(&self, which: FacileSim) -> Result<Sections, String> {
        let (src, file) = facile_source(which);
        let source = Arc::new(ProfileSource {
            file: file.to_owned(),
            src,
        });
        Sections::from_names(
            self.names.iter().map(String::as_str),
            Some(&source),
            DEFAULT_EPOCH_STEPS,
        )
    }

    /// The sections a run of `which` records for this sink: none when
    /// inactive, otherwise the `--obs` list (default epoch interval,
    /// profiles against `which`'s source).
    pub fn sections(&self, which: FacileSim) -> Sections {
        if !self.active() {
            return Sections::default();
        }
        self.try_sections(which).expect("section names checked at construction")
    }

    /// Adds one document (no-op when inactive).
    pub fn push(&mut self, doc: &RunDoc) {
        if self.active() {
            self.lines.push(doc.to_json());
        }
    }

    /// [`push`](Self::push)es `doc` and hands it back.
    fn record(&mut self, doc: RunDoc) -> RunDoc {
        self.push(&doc);
        doc
    }

    /// Writes the collected documents as JSONL and reports the path.
    pub fn finish(&self) {
        let Some(path) = &self.path else { return };
        let mut body = self.lines.join("\n");
        body.push('\n');
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("wrote {} run document(s) to {path}", self.lines.len()),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

/// A run document with the header only — what the reference simulators
/// (no observer pipeline) report.
fn header_doc(label: &str, wall: Duration, sim: SimStatsSnapshot, cache: CacheStatsSnapshot) -> RunDoc {
    RunDoc {
        label: label.to_owned(),
        wall_ns: wall.as_nanos() as u64,
        sim,
        cache,
        ..RunDoc::default()
    }
}

/// Runs the SimpleScalar-role conventional simulator and returns its
/// header-only run document, also recorded into the sink. SimpleScalar
/// has no fast path, so every instruction counts as slow and the cache
/// snapshot is empty.
pub fn run_simplescalar(image: &Image, label: &str, sink: &mut DocSink) -> RunDoc {
    let mut sim = simplescalar::SimpleScalar::new(image, simplescalar::Config::default());
    let t0 = Instant::now();
    sim.run(MAX_INSNS);
    let wall = t0.elapsed();
    assert!(sim.halted(), "workload did not halt under simplescalar");
    let sim = SimStatsSnapshot {
        cycles: sim.stats.cycles,
        insns: sim.stats.insns,
        slow_insns: sim.stats.insns,
        ..SimStatsSnapshot::default()
    };
    sink.record(header_doc(label, wall, sim, CacheStatsSnapshot::default()))
}

/// Runs the hand-coded memoizing simulator (FastSim role) and returns
/// its header-only run document, also recorded into the sink. FastSim
/// tracks its own counters (no obs pipeline), so the document carries
/// the snapshot fields it has and no sections.
pub fn run_fastsim(
    image: &Image,
    memoize: bool,
    capacity: Option<u64>,
    label: &str,
    sink: &mut DocSink,
) -> RunDoc {
    let mut sim = fastsim::FastSim::new(image, memoize, capacity);
    let t0 = Instant::now();
    sim.run(MAX_INSNS);
    let wall = t0.elapsed();
    assert!(sim.halted(), "workload did not halt under fastsim");
    let m = sim.memo_stats();
    sink.record(header_doc(
        label,
        wall,
        SimStatsSnapshot {
            cycles: sim.stats.cycles,
            insns: sim.stats.insns,
            fast_insns: sim.stats.fast_insns,
            slow_insns: sim.stats.slow_insns,
            misses: sim.stats.misses,
            ..SimStatsSnapshot::default()
        },
        CacheStatsSnapshot {
            entries_created: m.entries_created,
            nodes_created: m.cases_created,
            clears: m.clears,
            bytes_current: m.bytes_current,
            bytes_total: m.bytes_total,
            // FastSim does not track a high-water mark; the held bytes
            // at halt are the best lower bound available.
            bytes_peak: m.bytes_current,
            bytes_cleared: m.bytes_total.saturating_sub(m.bytes_current),
            ..CacheStatsSnapshot::default()
        },
    ))
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
    pub fn from_args(args: &Args) -> FacileSim {
        let sims = [FacileSim::Functional, FacileSim::Inorder, FacileSim::Ooo];
        let options: Vec<(&str, FacileSim)> = sims.iter().map(|s| (s.name(), *s)).collect();
        args.choice("--sim", &options, FacileSim::Ooo)
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
    }
}

/// Runs a compiled Facile simulator over an image to halt, recording a
/// run document with the sections `sink` wants; with the sink inert
/// (`DocSink::default()`) the run is unobserved.
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
) -> RunDoc {
    let mut sections = sink.sections(which);
    if !memoize {
        // Costs are attributed to action groups, which a non-memoizing
        // run never opens: it has no profile to record.
        sections.profile = None;
    }
    let options = sim_options(memoize, capacity, policy);
    sink.record(run_facile_job(step, which, image, options, label, &sections).doc)
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

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        usage: "usage: t [--scale F] [--compare] [files...]",
        values: &["--scale", "--sim", "--cache-policy", "--obs-out", "--obs"],
        switches: &["--compare"],
        files: true,
    };

    fn parse(argv: &[&str]) -> Result<Args, ArgError> {
        CLI.try_parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_switches_and_files_parse() {
        let a = parse(&["--scale", "0.5", "a.json", "--compare", "b.jsonl"]).unwrap();
        assert_eq!(a.try_get("--scale", 1.0), Ok(0.5));
        assert_eq!(a.try_get("--missing", 7u32), Ok(7));
        assert!(a.on("--compare"));
        assert_eq!(a.files, ["a.json", "b.jsonl"]);
        let last = parse(&["--scale", "1", "--scale", "2"]).unwrap();
        assert_eq!(last.try_get("--scale", 0.0), Ok(2.0), "the last value wins");
    }

    #[test]
    fn help_unknown_and_missing_values_are_errors() {
        assert_eq!(parse(&["--scale", "1", "--help"]).unwrap_err(), ArgError::Help);
        assert_eq!(parse(&["-h"]).unwrap_err(), ArgError::Help);
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            ArgError::Bad("unexpected argument `--bogus`".to_owned())
        );
        assert_eq!(
            parse(&["--scale"]).unwrap_err(),
            ArgError::Bad("--scale requires a value".to_owned())
        );
        let no_files = Cli { files: false, ..CLI };
        assert!(no_files.try_parse(["stray".to_owned()]).is_err());
    }

    #[test]
    fn unparsable_values_are_errors_not_defaults() {
        let a = parse(&["--scale", "abc"]).unwrap();
        assert_eq!(a.try_get("--scale", 1.0), Err::<f64, _>("--scale: cannot parse `abc`".to_owned()));
        let a = parse(&["--sim", "inorder", "--cache-policy", "generational"]).unwrap();
        assert_eq!(FacileSim::from_args(&a), FacileSim::Inorder);
        let policies = [("clear", CachePolicy::Clear), ("generational", CachePolicy::Generational)];
        assert_eq!(a.choice("--cache-policy", &policies, CachePolicy::Clear), CachePolicy::Generational);
    }

    #[test]
    fn doc_sink_binds_the_obs_flags() {
        let a = parse(&["--obs-out", "x.jsonl", "--obs", "profile,timeline"]).unwrap();
        let sink = DocSink::new(&a, "metrics");
        assert!(sink.active() && sink.wants("timeline") && !sink.wants("metrics"));
        let s = sink.sections(FacileSim::Functional);
        assert!(!s.metrics && s.profile.is_some() && s.timeline == Some(DEFAULT_EPOCH_STEPS));
        let inert = DocSink::new(&parse(&[]).unwrap(), "metrics");
        assert!(!inert.active() && inert.sections(FacileSim::Ooo).is_empty());
    }
}
