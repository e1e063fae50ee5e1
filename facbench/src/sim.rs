//! Calls into the simulator's layers that every workload shares:
//! compiling the out-of-order simulator, constructing a wired
//! simulation, reading its results, and host memory readings.

use crate::programs::{Observed, Program, Tally, MAX_INSNS};
use crate::tracer::Tracer;
use facile::hosts::{initial_args, ArchHost};
use facile::{CompiledStep, CompilerOptions, Image, SimOptions, Simulation, Target};
use std::sync::Arc;
use std::time::Instant;

/// Compiles the shipped out-of-order simulator through the public
/// `compile_source` entry point.
pub fn compile() -> Result<Arc<CompiledStep>, String> {
    facile::compile_source(&facile::sims::ooo_source(), &CompilerOptions::default())
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Compiles the same simulator pass by pass, in `compile_source`'s
/// order, with one span per pass.
pub fn compile_staged(t: &mut Tracer) -> Result<Arc<CompiledStep>, String> {
    let src = facile::sims::ooo_source();
    let mut diags = facile::Diagnostics::new();
    let fail = |d: &facile::Diagnostics| Err(d.render_all(&src));
    let program = t.span("facile-lang.parse", || facile_lang::parse(&src, &mut diags));
    if diags.has_errors() {
        return fail(&diags);
    }
    let syms = t.span("facile-sema.analyze", || {
        facile_sema::analyze(&program, &mut diags)
    });
    if diags.has_errors() {
        return fail(&diags);
    }
    let ir = t.span("facile-ir.lower", || {
        facile_ir::lower::lower(&program, &syms, &mut diags)
    });
    let Some(ir) = ir.filter(|_| !diags.has_errors()) else {
        return fail(&diags);
    };
    t.span("facile-ir.verify", || facile_ir::verify::verify(&ir))
        .map_err(|e| e.join("\n"))?;
    let config = CompilerOptions::default().codegen;
    t.span("facile-codegen.compile", || {
        facile_codegen::compile(ir, &config)
    })
    .map(Arc::new)
    .map_err(|e| e.to_string())
}

/// Constructs a simulation of `image` and binds the branch predictor
/// and cache externals.
pub fn construct(
    step: &Arc<CompiledStep>,
    image: &Image,
    options: SimOptions,
) -> Result<Simulation, String> {
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(image),
        &initial_args::ooo(image.entry),
        options,
    )
    .map_err(|e| e.to_string())?;
    ArchHost::new().bind(&mut sim).map_err(|e| e.to_string())?;
    Ok(sim)
}

/// What a finished simulation reports for the exact-match gate.
pub fn observed(sim: &Simulation) -> Observed<'_> {
    Observed {
        halt: sim.halted(),
        insns: sim.stats().insns,
        cycles: sim.stats().cycles,
        digest: sim.memory().digest(),
        out: sim.trace(),
    }
}

/// Runs SimpleScalar over `p` back to back until `min_ns` have passed,
/// so a timing is never a few milliseconds long, and returns its host
/// time per run in ns. Every run's retired stream must match the golden
/// interpreter's.
pub fn simplescalar_ns(p: &Program, min_ns: f64, tally: &mut Tally) -> f64 {
    let (mut total, mut runs) = (0.0, 0u32);
    while runs == 0 || total < min_ns {
        let mut ss = simplescalar::SimpleScalar::new(&p.image, simplescalar::Config::default());
        let t0 = Instant::now();
        ss.run(MAX_INSNS);
        total += t0.elapsed().as_nanos() as f64;
        runs += 1;
        let verdict = if !ss.halted() {
            Err("did not halt".to_owned())
        } else if ss.stats.insns != p.expect.insns || ss.out != p.expect.out {
            Err("retired stream differs from golden".to_owned())
        } else {
            Ok(())
        };
        tally.record(&format!("simplescalar {}", p.name), verdict);
    }
    total / f64::from(runs)
}

/// This process's peak resident set (VmHWM) in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Binds this thread, and so every thread and child process it starts
/// later, to the CPU it is running on, so the SimpleScalar canary and
/// the serve worker see the same CPU's host phases.
pub fn pin_to_current_cpu() -> Result<(), String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_owned())?;
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU number out of range")? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Runs this binary again with `args` in a fresh process that runs the
/// workload once, and returns the peak RSS it reports. Passes repeated
/// in one process drift the high-water mark, so it is never read from
/// the measuring process.
pub fn peak_rss_of_child(args: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg("--rss-child")
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the RSS child: {e}"))?;
    if !out.status.success() {
        return Err(format!("RSS child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("peak_rss_mb "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "RSS child printed no peak_rss_mb line".to_owned())
}
