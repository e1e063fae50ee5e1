//! facbench: the repository benchmark of the Facile reproduction.
//!
//! ```text
//! facbench --workload cold-int|fp-replay|serve-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the public APIs (`facile::compile_source` and its passes,
//! `facile_workloads`, `facile::Simulation`, `facile::snapshot`,
//! `facile::serve`) with SimpleScalar, `fastsim` and the golden
//! interpreter as references, checks every simulated result, and prints
//! the run record and then the result object as the last stdout line.
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics of a separate traced run. See
//! `NOTES.md` beside this package for what each workload loads.

mod alloc;
mod inproc;
mod layers;
mod programs;
mod report;
mod serve;
mod sim;
mod stats;
mod tracer;

use programs::{Program, Tally};
use report::{Metric, Obj};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up repetitions per measured pass (serve: per segment);
/// `setup_s` is the median of all of a run's repetitions.
pub const SETUP_PER_PASS: usize = 3;

/// One run's arguments.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload reports.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Seed, deterministic counts, sample counts and the SimpleScalar
    /// canary, so a disagreement between run sets can be traced to the
    /// host rather than the code.
    pub record: Obj,
}

/// Where spans and the serve child's snapshot file go.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans; losing them does not fail the run.
pub fn write_spans(t: &tracer::Tracer, workload: &str, seed: u64) {
    let dir = out_dir();
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| t.write_jsonl(&path)) {
        Ok(()) => eprintln!("facbench: spans written to {}", path.display()),
        Err(e) => eprintln!("facbench: could not write {}: {e}", path.display()),
    }
}

/// The programs as a JSON array of names and image digests: the same
/// seed gives the same digests.
pub fn programs_json(programs: &[Program]) -> String {
    let items: Vec<String> = programs
        .iter()
        .map(|p| {
            let mut o = Obj::default();
            o.str("name", &p.name)
                .str(
                    "image",
                    &format!("{:016x}", programs::image_digest(&p.image)),
                )
                .int("insns", p.expect.insns)
                .int("cycles", p.expect.cycles);
            o.finish()
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn num_arg(args: &[String], name: &str) -> Result<u64, String> {
    let v = arg(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse()
        .map_err(|_| format!("{name} takes a whole number, got `{v}`"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    sim::pin_to_current_cpu()?;
    let workload = arg(&args, "--workload").ok_or("missing --workload")?;
    let seed = num_arg(&args, "--seed")?;
    let spec = match workload {
        "cold-int" => Some(&inproc::COLD_INT),
        "fp-replay" => Some(&inproc::FP_REPLAY),
        "serve-warm" => None,
        other => {
            return Err(format!(
                "unknown workload `{other}` (cold-int|fp-replay|serve-warm)"
            ))
        }
    };
    if args.iter().any(|a| a == "--rss-child") {
        match spec {
            Some(spec) => inproc::rss_child(spec, seed)?,
            None => serve::rss_child(seed, arg(&args, "--snapshot").ok_or("missing --snapshot")?)?,
        }
        println!("peak_rss_mb {}", sim::peak_rss_mb()?);
        return Ok(());
    }
    let ctx = Ctx {
        seed,
        seconds: num_arg(&args, "--seconds")?,
        trace: match num_arg(&args, "--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace takes 0 or 1, got {t}")),
        },
    };
    let outcome = match spec {
        Some(spec) => inproc::run(spec, &ctx)?,
        None => serve::run(&ctx)?,
    };
    let mode = if ctx.trace { "per-layer" } else { "end-to-end" };
    report::table(
        &format!("{workload} seed {seed} ({mode})"),
        &outcome.metrics,
    );
    let Tally { attempted, failed } = outcome.tally;
    eprintln!("  {failed} of {attempted} checked operations failed");
    println!("{}", outcome.record.finish());
    println!(
        "{}",
        report::result_line(attempted, failed, &outcome.metrics)?
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("facbench: {e}");
        std::process::exit(2);
    }
}
