//! Fast-replay throughput benchmark: the compiled (Facile) out-of-order
//! simulator with memoization over the Figure 11 workload suite.
//!
//! This is the harness behind `scripts/bench.sh` and the repo's
//! `BENCH_fastsim.json` trajectory. For every workload it reports
//! steps/sec (simulator main-loop iterations per host second — the
//! paper's unit of replay throughput), the fast-forwarded instruction
//! fraction, and heap allocations per step measured by a counting global
//! allocator. A previously written JSON can be passed as `--baseline` to
//! embed per-workload speedups.
//!
//! Usage:
//!   fastreplay [--scale F] [--reps N] [--filter NAME] [--json-out PATH] [--baseline PATH]
//!
//! Defaults: scale 0.1, 3 reps (best-of), all 18 workloads,
//! human-readable table only. Each rep rebuilds the simulation from
//! scratch; the fastest rep is reported, which suppresses host timer and
//! scheduler noise on the sub-second workloads.

use bench::*;

const CLI: Cli = Cli {
    usage: "usage: fastreplay [--scale F] [--reps N] [--filter NAME] [--json-out PATH] [--baseline PATH]",
    values: &["--scale", "--reps", "--filter", "--json-out", "--baseline"],
    switches: &[],
    files: false,
};
use facile::hosts::{initial_args, ArchHost};
use facile::{SimOptions, Simulation, Target};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation so the benchmark can report
/// allocations/step without external tooling.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Row {
    name: &'static str,
    insns: u64,
    steps: u64,
    wall_ns: u64,
    fast_fraction: f64,
    allocs: u64,
    memo_bytes: u64,
}

impl Row {
    fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.wall_ns as f64 / 1e9).max(1e-9)
    }
    fn insns_per_sec(&self) -> f64 {
        self.insns as f64 / (self.wall_ns as f64 / 1e9).max(1e-9)
    }
    fn allocs_per_step(&self) -> f64 {
        self.allocs as f64 / self.steps.max(1) as f64
    }
}

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 0.1);
    let reps = args.get("--reps", 3u32).max(1);
    let filter = args.str("--filter").map(str::to_owned);
    let json_out = args.str("--json-out").map(str::to_owned);
    let baseline = args.str("--baseline").and_then(|p| std::fs::read_to_string(p).ok());

    let step = compile_facile(FacileSim::Ooo);
    let mut rows: Vec<Row> = Vec::new();
    println!("fast-replay benchmark: facile ooo +memo, workload scale {scale}, best of {reps}");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>9} {:>12} {:>9}",
        "benchmark", "insns", "steps/s", "insns/s", "ff%", "allocs/step", "speedup"
    );
    for w in facile_workloads::suite() {
        if let Some(f) = &filter {
            if !w.name.contains(f.as_str()) {
                continue;
            }
        }
        let image = workload_image(&w, scale);
        let mut row: Option<Row> = None;
        for _ in 0..reps {
            let mut sim = Simulation::new(
                step.clone(),
                Target::load(&image),
                &initial_args::ooo(image.entry),
                SimOptions::default(),
            )
            .expect("simulation constructs");
            ArchHost::new().bind(&mut sim).expect("externals bind");
            let a0 = ALLOCS.load(Ordering::Relaxed);
            let t0 = Instant::now();
            sim.run_steps(MAX_INSNS);
            let wall = t0.elapsed();
            let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
            assert!(sim.halted().is_some(), "workload did not halt");
            let s = sim.stats();
            let rep = Row {
                name: w.name,
                insns: s.insns,
                steps: s.fast_steps + s.slow_steps,
                wall_ns: wall.as_nanos() as u64,
                fast_fraction: s.fast_forwarded_fraction(),
                allocs,
                memo_bytes: sim.cache_stats().bytes_total,
            };
            if row.as_ref().is_none_or(|best| rep.wall_ns < best.wall_ns) {
                row = Some(rep);
            }
        }
        let row = row.expect("at least one rep ran");
        let speedup = baseline
            .as_deref()
            .and_then(|b| baseline_steps_per_sec(b, row.name))
            .map(|base| row.steps_per_sec() / base);
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>9.3} {:>12.2} {:>9}",
            row.name,
            row.insns,
            fmt_rate(row.steps_per_sec()),
            fmt_rate(row.insns_per_sec()),
            100.0 * row.fast_fraction,
            row.allocs_per_step(),
            speedup.map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
        );
        rows.push(row);
    }

    let rates: Vec<f64> = rows.iter().map(|r| r.steps_per_sec()).collect();
    println!("\nharmonic mean steps/s: {}", fmt_rate(harmonic_mean(&rates)));
    if let Some(b) = baseline.as_deref() {
        let speedups: Vec<f64> = rows
            .iter()
            .filter_map(|r| baseline_steps_per_sec(b, r.name).map(|x| r.steps_per_sec() / x))
            .collect();
        if !speedups.is_empty() {
            println!("harmonic mean speedup vs baseline: {:.2}x", harmonic_mean(&speedups));
        }
    }

    if let Some(path) = json_out {
        let body = render_json(scale, &rows, baseline.as_deref());
        match std::fs::write(&path, &body) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Extracts `steps_per_sec` for one workload from a previously written
/// benchmark JSON (hand-rolled: the workspace builds without serde).
/// Tolerates both the compact documents this binary writes and
/// pretty-printed ones like `results/BENCH_baseline.json` (whitespace
/// after the `:`).
fn baseline_steps_per_sec(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"{name}\""))?;
    let rest = &json[at..];
    let k = rest.find("\"steps_per_sec\"")?;
    let num = rest[k..]
        .split_once(':')
        .map(|(_, v)| v.trim_start())?;
    let end = num
        .find(|c: char| c != '.' && c != '-' && c != 'e' && c != '+' && !c.is_ascii_digit())
        .unwrap_or(num.len());
    num[..end].parse().ok()
}

fn render_json(scale: f64, rows: &[Row], baseline: Option<&str>) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"facile-bench/v1\",\"bench\":\"fastreplay\",\"sim\":\"ooo+memo\",\"scale\":{scale}"
    );
    let _ = write!(s, ",\"workloads\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"insns\":{},\"steps\":{},\"wall_ns\":{},\"steps_per_sec\":{:.1},\"insns_per_sec\":{:.1},\"fast_fraction\":{:.6},\"allocs\":{},\"allocs_per_step\":{:.3},\"memo_bytes\":{}}}",
            r.name,
            r.insns,
            r.steps,
            r.wall_ns,
            r.steps_per_sec(),
            r.insns_per_sec(),
            r.fast_fraction,
            r.allocs,
            r.allocs_per_step(),
            r.memo_bytes,
        );
    }
    let _ = write!(s, "]");
    let rates: Vec<f64> = rows.iter().map(|r| r.steps_per_sec()).collect();
    let _ = write!(s, ",\"hmean_steps_per_sec\":{:.1}", harmonic_mean(&rates));
    if let Some(b) = baseline {
        let speedups: Vec<f64> = rows
            .iter()
            .filter_map(|r| baseline_steps_per_sec(b, r.name).map(|x| r.steps_per_sec() / x))
            .collect();
        if !speedups.is_empty() {
            let _ = write!(s, ",\"hmean_speedup_vs_baseline\":{:.3}", harmonic_mean(&speedups));
        }
    }
    s.push_str("}\n");
    s
}
