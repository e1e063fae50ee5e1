//! `facilec` — the Facile compiler driver.
//!
//! Compiles a Facile simulator description and reports or dumps the
//! results of each phase:
//!
//! ```text
//! facilec sim.fac                  # check + summary statistics
//! facilec sim.fac --emit ast       # canonical pretty-printed source
//! facilec sim.fac --emit ir        # lowered IR (after folding + lifts)
//! facilec sim.fac --emit bta       # per-block binding-time labels
//! facilec sim.fac --emit actions   # the fast engine's action table
//! facilec --builtin ooo --emit stats
//! ```
//!
//! `--builtin functional|inorder|ooo` compiles a shipped simulator
//! instead of a file. `--run <prog.asm> [--steps N]` additionally
//! assembles a TRISC program, binds the standard micro-architecture
//! components and simulates it, reporting the statistics.
//!
//! Observability (with `--run`):
//!
//! ```text
//! --obs-out <path>       # write the facile-run/v4 run document
//! --obs <sections>       # its sections: metrics,profile,timeline
//!                        #   (comma-separated; default metrics)
//! --timeline-epoch <N>   # epoch interval in steps (default 100000)
//! --trace-out <path>     # stream the structured trace as JSONL, live
//! --timeline-stream <p>  # stream one JSONL line per closed epoch, live
//! ```
//!
//! Each section attaches only the recorder it needs. With a timeline
//! attached the run is driven in epoch-sized budget slices, so replay
//! bursts exit near epoch boundaries and the time-series stays uniform.
//! `sim_obs` (in the bench crate) renders every view — paper-style
//! tables, profiles, warm-up curves — from the documents
//! alone and checks every section's exactness gate.
//!
//! Batch mode runs many independent jobs over one compiled simulator
//! across a worker pool, sharing the compiled step read-only:
//!
//! ```text
//! facilec --builtin ooo batch --jobs jobs.txt --threads 4 \
//!         [--obs-out runs.jsonl] [--obs metrics,profile]
//! ```
//!
//! The jobs file lists one job per line — `<prog.asm> [max-steps]`
//! (blank lines and `#` comments skipped). `--obs-out` writes JSONL: one
//! document per job in submission order, then the merged batch
//! document, which `sim_obs --check` refolds from the lanes.
//! `--progress` prints one JSONL heartbeat line to stderr as each job
//! completes.
//!
//! `--run` is a batch of one: both go through `facile::job`, so a run's
//! documents equal the per-job documents of a one-line batch (modulo
//! wall-clock fields).
//!
//! Serve mode turns the same job pipeline into a long-running daemon
//! (`docs/SERVING.md`):
//!
//! ```text
//! facilec --builtin ooo serve --addr 127.0.0.1:7634 --threads 4
//! ```
//!
//! Clients speak length-prefixed JSON frames over TCP; every job
//! shares the one compiled step (and `--cache-load` warm snapshot).
//! The daemon prints `serving on <addr>` when ready, streams per-job
//! results (documents and epoch heartbeats on request), rejects
//! overflow with `queue_full` backpressure, and drains gracefully on
//! SIGTERM/SIGINT or a client `shutdown` frame, printing its
//! `facile-serve/v1` lifetime counters on exit.
//!
//! A flag the chosen mode would ignore is an error, never silently
//! dropped (see `MODE_FLAGS`).

use facile::batch::{run_batch, BatchConfig, JobOutcome, ProgressFn};
use facile::hosts::initial_args;
use facile::job::{self, BatchJob, ProfileSource, Sections, Streams, WarmStart};
use facile::snapshot::LoadedSnapshot;
use facile::{compile_source, CachePolicy, CompiledStep, CompilerOptions, RunDoc, SimOptions};
use std::process::ExitCode;
use std::sync::Arc;

/// The front end an invocation selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Compile and report (`--emit`).
    Compile,
    /// `--run prog.asm`: one job.
    Run,
    /// `batch --jobs file`: many jobs over a worker pool.
    Batch,
    /// `serve`: the job daemon.
    Serve,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Compile => "compile-only mode",
            Mode::Run => "--run",
            Mode::Batch => "batch",
            Mode::Serve => "serve",
        }
    }
}

/// The flags only some modes use, with those modes. Any other mode
/// rejects the flag with a message instead of silently dropping it.
const MODE_FLAGS: &[(&str, &[Mode])] = {
    use Mode::{Batch, Compile, Run, Serve};
    &[
        ("--emit", &[Compile]),
        ("--steps", &[Run, Batch]),
        ("--trace-out", &[Run]),
        ("--timeline-stream", &[Run]),
        ("--cache-save", &[Run]),
        ("--obs-out", &[Run, Batch]),
        ("--obs", &[Run, Batch]),
        ("--timeline-epoch", &[Run, Batch, Serve]),
        ("--cache-load", &[Run, Batch, Serve]),
        ("--cache-capacity", &[Run, Batch, Serve]),
        ("--cache-policy", &[Run, Batch, Serve]),
        ("--jobs", &[Batch]),
        ("--progress", &[Batch]),
        ("--threads", &[Batch, Serve]),
        ("--addr", &[Serve]),
        ("--queue-cap", &[Serve]),
    ]
};

const USAGE: &str = "\
usage: facilec <file.fac> [--emit ast|ir|bta|actions|stats]
       facilec --builtin functional|inorder|ooo [--emit ...]
       facilec --builtin ooo --run prog.asm [--steps N]
               [--cache-capacity BYTES] [--cache-policy clear|generational]
               [--cache-save snap.facsnap] [--cache-load snap.facsnap]
               [--obs-out run.json] [--obs metrics,profile,timeline]
               [--timeline-epoch N]
               [--trace-out t.jsonl] [--timeline-stream tl.jsonl]
       facilec --builtin ooo batch --jobs jobs.txt [--threads K]
               [--steps N] [--obs-out runs.jsonl] [--obs SECTIONS]
               [--timeline-epoch N] [--progress]
               [--cache-load snap.facsnap]
         --obs-out writes one facile-run/v4 document; --obs lists its
         sections (default metrics)
         jobs file: one `prog.asm [max-steps]` per line;
         batch --obs-out is JSONL, per-job docs then the merged doc;
         --progress prints a JSONL heartbeat per job to stderr
         --cache-save writes a facile-snap/v3 action-cache snapshot
         after the run; --cache-load warm-starts from one (a stale or
         corrupt snapshot falls back to a cold start, never an error;
         batch lanes share one loaded snapshot copy-on-write)
       facilec --builtin ooo serve [--addr host:port] [--threads K]
               [--queue-cap N] [--timeline-epoch N] [--cache-load snap]
         long-running job daemon over a length-prefixed JSON frame
         protocol (docs/SERVING.md); prints `serving on <addr>` when
         ready, drains and exits on SIGTERM/SIGINT or a shutdown frame";

/// Everything the command line sets.
struct Cli {
    mode: Mode,
    file: Option<String>,
    builtin: Option<String>,
    emit: String,
    run: Option<String>,
    steps: u64,
    options: SimOptions,
    trace_out: Option<String>,
    obs_out: Option<String>,
    obs: Option<String>,
    timeline_stream: Option<String>,
    timeline_epoch: u64,
    cache_save: Option<String>,
    cache_load: Option<String>,
    jobs_file: Option<String>,
    threads: usize,
    progress: bool,
    addr: String,
    queue_cap: usize,
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("facilec: {e}");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(&cli) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("facilec: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The next argument: the value of `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} requires {what}"))
}

/// The next argument parsed as a number of at least `min`.
fn number<T: std::str::FromStr + PartialOrd>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    min: T,
) -> Result<T, String> {
    value(it, flag, what)?
        .parse()
        .ok()
        .filter(|n| *n >= min)
        .ok_or_else(|| format!("{flag} requires {what}"))
}

/// Parses the command line; `Ok(None)` for `--help`. Rejects a second
/// mode and any flag the chosen mode would ignore.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        mode: Mode::Compile,
        file: None,
        builtin: None,
        emit: "stats".to_owned(),
        run: None,
        steps: u64::MAX >> 1,
        options: SimOptions::default(),
        trace_out: None,
        obs_out: None,
        obs: None,
        timeline_stream: None,
        timeline_epoch: facile::TimelineConfig::default().epoch_steps,
        cache_save: None,
        cache_load: None,
        jobs_file: None,
        threads: 0,
        progress: false,
        addr: "127.0.0.1:0".to_owned(),
        queue_cap: 64,
    };
    let mut modes = Vec::new();
    let mut flags = Vec::new();
    while let Some(arg) = it.next() {
        let it = &mut it;
        let flag = arg.as_str();
        match flag {
            "batch" => modes.push(Mode::Batch),
            "serve" => modes.push(Mode::Serve),
            "--run" => {
                cli.run = Some(value(it, flag, "a path")?);
                modes.push(Mode::Run);
            }
            "--help" | "-h" => return Ok(None),
            "--emit" => cli.emit = value(it, flag, "a kind")?,
            "--builtin" => cli.builtin = Some(value(it, flag, "a name")?),
            "--steps" => cli.steps = number(it, flag, "a step count", 0)?,
            "--addr" => cli.addr = value(it, flag, "host:port")?,
            "--queue-cap" => cli.queue_cap = number(it, flag, "a depth >= 1", 1)?,
            "--threads" => cli.threads = number(it, flag, "a number", 0)?,
            "--jobs" => cli.jobs_file = Some(value(it, flag, "a path")?),
            "--progress" => cli.progress = true,
            "--cache-capacity" => {
                cli.options.cache_capacity = Some(number(it, flag, "a byte count", 0)?)
            }
            "--cache-policy" => {
                let what = "`clear` or `generational`";
                cli.options.cache_policy = match value(it, flag, what)?.as_str() {
                    "clear" => CachePolicy::Clear,
                    "generational" => CachePolicy::Generational,
                    _ => return Err(format!("--cache-policy requires {what}")),
                }
            }
            "--cache-save" => cli.cache_save = Some(value(it, flag, "a path")?),
            "--cache-load" => cli.cache_load = Some(value(it, flag, "a path")?),
            "--trace-out" => cli.trace_out = Some(value(it, flag, "a path")?),
            "--obs-out" => cli.obs_out = Some(value(it, flag, "a path")?),
            "--obs" => cli.obs = Some(value(it, flag, "a section list")?),
            "--timeline-stream" => cli.timeline_stream = Some(value(it, flag, "a path")?),
            "--timeline-epoch" => cli.timeline_epoch = number(it, flag, "a step count >= 1", 1)?,
            f if !f.starts_with('-') => cli.file = Some(f.to_owned()),
            other => return Err(format!("unknown flag `{other}`")),
        }
        flags.push(arg);
    }
    cli.mode = modes.first().copied().unwrap_or(Mode::Compile);
    if modes.iter().any(|m| *m != cli.mode) {
        return Err("choose one of --run, batch and serve".to_owned());
    }
    for flag in &flags {
        if let Some((_, modes)) = MODE_FLAGS.iter().find(|(f, _)| f == flag) {
            if !modes.contains(&cli.mode) {
                let allowed: Vec<_> = modes.iter().map(|m| m.name()).collect();
                return Err(format!(
                    "{flag} is ignored in {}; options like it require {}",
                    cli.mode.name(),
                    allowed.join(" or ")
                ));
            }
        }
    }
    if cli.obs.is_some() && cli.obs_out.is_none() {
        return Err("--obs requires --obs-out".to_owned());
    }
    Ok(Some(cli))
}

/// Compiles the simulator and runs the chosen mode.
fn dispatch(cli: &Cli) -> Result<ExitCode, String> {
    let src = match (&cli.file, &cli.builtin) {
        (Some(f), None) => {
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?
        }
        (None, Some(b)) => match b.as_str() {
            "functional" => facile::sims::functional_source(),
            "inorder" => facile::sims::inorder_source(),
            "ooo" => facile::sims::ooo_source(),
            other => return Err(format!("unknown builtin `{other}`")),
        },
        _ => return Err("usage: facilec <file.fac> | --builtin <name> [--emit ...]".to_owned()),
    };

    if cli.emit == "ast" {
        let mut diags = facile::Diagnostics::new();
        let program = facile_lang::parse(&src, &mut diags);
        if diags.has_errors() {
            eprintln!("{}", diags.render_all(&src));
            return Ok(ExitCode::FAILURE);
        }
        print!("{}", facile_lang::pretty::print_program(&program));
        return Ok(ExitCode::SUCCESS);
    }

    let step = match compile_source(&src, &CompilerOptions::default()) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    match cli.mode {
        Mode::Compile => emit(&cli.emit, &step),
        Mode::Run => run_cmd(cli, &step, &src),
        Mode::Batch => batch_cmd(cli, step, &src),
        Mode::Serve => serve_cmd(cli, step, &src),
    }
}

impl Cli {
    /// The shipped simulator's name, or `custom` for a source file.
    fn arch(&self) -> &str {
        self.builtin.as_deref().unwrap_or("custom")
    }

    /// The source's display name in profile documents.
    fn profile_source(&self, src: &str) -> ProfileSource {
        ProfileSource {
            file: match (&self.file, &self.builtin) {
                (Some(f), _) => f.clone(),
                (None, Some(b)) => format!("<builtin:{b}>"),
                (None, None) => "<source>".to_owned(),
            },
            src: src.to_owned(),
        }
    }

    /// The sections every job records: the `--obs` list when a
    /// document is written, plus the timeline a `--timeline-stream`
    /// needs.
    fn sections(&self, src: &str) -> Result<Sections, String> {
        let names = match (&self.obs_out, &self.obs) {
            (None, _) => "",
            (Some(_), None) => "metrics",
            (Some(_), Some(list)) => list,
        };
        let source = Arc::new(self.profile_source(src));
        let names = names.split(',').filter(|n| !n.is_empty());
        let mut sections = Sections::from_names(names, Some(&source), self.timeline_epoch)
            .map_err(|e| format!("--obs: {e}"))?;
        if self.timeline_stream.is_some() {
            sections.timeline = Some(self.timeline_epoch);
        }
        Ok(sections)
    }

    /// Assembles one job: `prog` under this simulator's initial
    /// arguments, labelled `<arch> <prog>`.
    fn job(&self, prog: &str, max_steps: u64) -> Result<BatchJob, String> {
        let asm = std::fs::read_to_string(prog).map_err(|e| format!("cannot read {prog}: {e}"))?;
        let image = facile_isa::assemble_image(&asm, 0x1_0000, vec![])
            .map_err(|e| format!("{prog}: {e}"))?;
        Ok(BatchJob {
            label: format!("{} {prog}", self.arch()),
            args: initial_args::for_arch(self.arch(), image.entry),
            image,
            options: self.options,
            max_steps,
        })
    }

    /// Reads and parses the `--cache-load` snapshot. Every failure is a
    /// warning and a cold start, never a hard error: a stale snapshot
    /// may cost warm-up time but must not change results or exit codes.
    /// Fit (digest, policy, fingerprint) is checked per job.
    fn warm(&self) -> Option<Arc<LoadedSnapshot>> {
        let path = self.cache_load.as_ref()?;
        let snap = std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| facile::snapshot::parse(&bytes).map_err(|e| e.to_string()));
        match snap {
            Ok(s) => Some(Arc::new(s)),
            Err(e) => {
                warn_cold(path, &e);
                None
            }
        }
    }
}

fn warn_cold(path: &str, why: &str) {
    eprintln!("facilec: warning: --cache-load {path}: {why}; starting cold");
}

/// Writes one document per job, then the batch's merged document when
/// there is one, as JSONL to `--obs-out`.
fn write_docs(cli: &Cli, jobs: &[JobOutcome], merged: Option<&RunDoc>) -> Result<(), String> {
    let Some(path) = &cli.obs_out else { return Ok(()) };
    let text: String = jobs
        .iter()
        .map(|j| &j.doc)
        .chain(merged)
        .map(|d| d.to_json() + "\n")
        .collect();
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Opens a live JSONL sink, when the flag was given.
fn create(path: &Option<String>) -> Result<Option<Box<dyn std::io::Write + Send>>, String> {
    let Some(path) = path else { return Ok(None) };
    let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    Ok(Some(Box::new(std::io::BufWriter::new(f))))
}

/// `--run`: one job through the job pipeline, holding the live
/// simulation for `--cache-save` and the trace flush.
fn run_cmd(cli: &Cli, step: &Arc<CompiledStep>, src: &str) -> Result<ExitCode, String> {
    let prog = cli.run.as_deref().expect("run mode has a program");
    let job = cli.job(prog, cli.steps)?;
    let streams = Streams {
        trace: create(&cli.trace_out)?,
        timeline: create(&cli.timeline_stream)?,
    };
    let warm = cli.warm();
    let mut lane = job::prepare(step, job, &cli.sections(src)?, warm.as_deref(), streams)
        .map_err(|e| e.to_string())?;
    if let (WarmStart::Declined(why), Some(path)) = (lane.warm(), &cli.cache_load) {
        warn_cold(path, why);
    }
    let o = lane.drive(None);
    if let Some(path) = &cli.cache_save {
        // Before the trace flush, so the snapshot_save event is written.
        std::fs::write(path, facile::snapshot::save(lane.sim()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let obs = lane.sim().obs();
    obs.flush();
    if obs.io_errors() > 0 {
        eprintln!("facilec: warning: {} trace write error(s)", obs.io_errors());
    }
    write_docs(cli, std::slice::from_ref(&o), None)?;

    let (sim, cache) = (&o.doc.sim, &o.doc.cache);
    println!("halted:      {:?}", o.halt);
    println!("insns:       {}", sim.insns);
    println!("cycles:      {}", sim.cycles);
    println!("ipc:         {:.3}", sim.insns as f64 / sim.cycles.max(1) as f64);
    println!("fast-fwd:    {:.3}%", 100.0 * sim.fast_forwarded_fraction());
    println!(
        "memoized:    {} KiB in {} nodes",
        cache.bytes_total >> 10,
        cache.nodes_created
    );
    println!(
        "sim speed:   {:.0} insn/s",
        sim.insns as f64 / (o.doc.wall_ns as f64 / 1e9)
    );
    if !o.out.is_empty() {
        println!("out:         {:?}", o.out);
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--progress` heartbeat: one JSONL line per completed job, with
/// the lane's latest closed epoch when a timeline is attached.
fn heartbeat(o: &JobOutcome) {
    let d = &o.doc;
    let epoch = d
        .timeline
        .as_ref()
        .and_then(|t| {
            let last = t.epochs.last()?;
            Some((t.epochs_total().saturating_sub(1), last))
        })
        .map(|(i, e)| {
            format!(
                ",\"epoch\":{i},\"epoch_steps\":{},\"epoch_fast_fraction\":{:.6}",
                e.steps(),
                e.fast_fraction(),
            )
        })
        .unwrap_or_default();
    eprintln!(
        "{{\"job\":\"{}\",\"wall_ns\":{},\"steps\":{},\"steps_per_sec\":{:.0},\"fast_fraction\":{:.6}{epoch}}}",
        d.label.replace('\\', "\\\\").replace('"', "\\\""),
        d.wall_ns,
        o.steps,
        o.steps as f64 / (d.wall_ns.max(1) as f64 / 1e9),
        d.sim.fast_forwarded_fraction(),
    );
}

/// `batch`: parses the jobs file, runs the pool, and writes per-job +
/// merged documents as JSONL.
fn batch_cmd(cli: &Cli, step: Arc<CompiledStep>, src: &str) -> Result<ExitCode, String> {
    let jobs_path = cli.jobs_file.as_deref().ok_or("batch requires --jobs <file>")?;
    let spec = std::fs::read_to_string(jobs_path)
        .map_err(|e| format!("cannot read {jobs_path}: {e}"))?;
    let mut jobs = Vec::new();
    for (lineno, line) in spec.lines().enumerate() {
        let mut parts = line.split_whitespace();
        let Some(prog) = parts.next().filter(|p| !p.starts_with('#')) else {
            continue;
        };
        let max_steps = match parts.next() {
            Some(n) => n
                .parse()
                .map_err(|_| format!("{jobs_path}:{}: bad step count `{n}`", lineno + 1))?,
            None => cli.steps,
        };
        jobs.push(cli.job(prog, max_steps)?);
    }
    if jobs.is_empty() {
        // `run_batch` would reject this too (`BatchError::NoJobs`);
        // name the cause at the source instead.
        return Err(format!(
            "{jobs_path}: no jobs — every line is blank or a comment; \
             list one `<prog.asm> [max-steps]` per line"
        ));
    }
    let config = BatchConfig {
        threads: cli.threads,
        sections: cli.sections(src)?,
        progress: cli.progress.then(|| Box::new(heartbeat) as ProgressFn),
        warm: cli.warm(),
    };
    let n = jobs.len();
    let result = run_batch(step, jobs, &config).map_err(|e| format!("batch failed: {e}"))?;
    write_docs(cli, &result.jobs, Some(&result.merged))?;

    println!("batch:       {n} jobs on {} threads", result.threads);
    for j in &result.jobs {
        println!(
            "  {:<28} {:>12} insns  {:>10} steps  {:.0} steps/s  {}",
            j.doc.label,
            j.doc.sim.insns,
            j.steps,
            j.steps as f64 / (j.doc.wall_ns.max(1) as f64 / 1e9),
            match j.halt {
                Some(h) => format!("{h:?}"),
                None => "step-budget".to_owned(),
            }
        );
    }
    println!(
        "  merged:    {} insns, {} misses, {} cache KiB",
        result.merged.sim.insns,
        result.merged.sim.misses,
        result.merged.cache.bytes_total >> 10
    );
    println!(
        "  aggregate: {:.0} steps/s over {:.3} s wall",
        result.aggregate_steps_per_sec(),
        result.wall_ns as f64 / 1e9
    );
    Ok(ExitCode::SUCCESS)
}

/// SIGTERM/SIGINT handling for the serve daemon, dependency-free: std
/// already links libc, so the C `signal` entry point is declarable
/// directly. The handler only stores an atomic flag (async-signal-safe);
/// a watcher thread turns the flag into a graceful drain.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            let handler = on_signal as *const () as usize;
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(not(unix))]
mod term_signal {
    use std::sync::atomic::AtomicBool;
    pub static REQUESTED: AtomicBool = AtomicBool::new(false);
    pub fn install() {}
}

/// `serve`: starts the job daemon and blocks until a drain finishes —
/// requested by a client `shutdown` frame or by SIGTERM/SIGINT.
fn serve_cmd(cli: &Cli, step: Arc<CompiledStep>, src: &str) -> Result<ExitCode, String> {
    use facile::serve::{ServeConfig, Server};
    use std::io::Write as _;

    let config = ServeConfig {
        addr: cli.addr.clone(),
        threads: cli.threads,
        queue_cap: cli.queue_cap,
        epoch_steps: cli.timeline_epoch,
        arch: cli.builtin.clone().unwrap_or_else(|| "functional".to_owned()),
        options: cli.options,
        source: Some(cli.profile_source(src)),
        warm: cli.warm(),
    };
    let server =
        Server::start(step, config).map_err(|e| format!("cannot serve on {}: {e}", cli.addr))?;
    // The readiness line scripts wait for — flushed immediately so a
    // pipe reader sees it before the first client connects.
    println!("serving on {}", server.addr());
    let _ = std::io::stdout().flush();

    term_signal::install();
    let trigger = server.shutdown_trigger();
    std::thread::spawn(move || loop {
        if term_signal::REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
            trigger.trigger();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });

    let counters = server.join();
    println!("{}", counters.to_json());
    Ok(ExitCode::SUCCESS)
}

/// `--emit`: dumps one compiler phase.
fn emit(kind: &str, step: &CompiledStep) -> Result<ExitCode, String> {
    match kind {
        "ir" => print!("{}", step.ir.main),
        "bta" => {
            for &b in &step.bta.order {
                println!("bb{}:", b.0);
                for (i, inst) in step.ir.main.blocks[b.index()].insts.iter().enumerate() {
                    let label = if step.bta.inst_dynamic[b.index()][i] {
                        "dyn"
                    } else {
                        "rt "
                    };
                    println!("    [{label}] {inst}");
                }
                let t = if step.bta.term_dynamic[b.index()] {
                    "dyn"
                } else {
                    "rt "
                };
                println!("    [{t}] {}", step.ir.main.blocks[b.index()].term);
            }
        }
        "actions" => {
            for (i, a) in step.actions.iter().enumerate() {
                let ops = &step.program.replay[a.replay.start as usize..a.replay.end as usize];
                println!("action {i}: {:?} ({} ops)", kind_name(&a.kind), ops.len());
                for op in ops {
                    println!("    {op:?}");
                }
            }
        }
        "stats" => {
            let dynamic: usize = step
                .bta
                .order
                .iter()
                .map(|b| {
                    step.bta.inst_dynamic[b.index()]
                        .iter()
                        .filter(|d| **d)
                        .count()
                })
                .sum();
            println!("blocks (reachable): {}", step.bta.order.len());
            println!("actions:            {}", step.action_count());
            println!("dynamic insts:      {dynamic}");
            println!(
                "rt-static fraction: {:.3}",
                step.rt_static_fraction()
            );
        }
        other => return Err(format!("unknown emit kind `{other}`")),
    }
    Ok(ExitCode::SUCCESS)
}

fn kind_name(kind: &facile_codegen::ActionKind) -> &'static str {
    match kind {
        facile_codegen::ActionKind::Plain => "plain",
        facile_codegen::ActionKind::Test { .. } => "test",
        facile_codegen::ActionKind::Index { .. } => "index",
    }
}
