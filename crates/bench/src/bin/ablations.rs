//! Ablations of the compiler's optimizations (the paper's §6.3 list,
//! implemented here): compile-time constant folding (item 5) and
//! liveness-pruned end-of-step flushes (item 3).
//!
//! Usage: ablations [--scale F] [--bench NAME]

use bench::*;

const CLI: Cli = Cli {
    usage: "usage: ablations [--scale F] [--bench NAME]",
    values: &["--scale", "--bench"],
    switches: &[],
    files: false,
};
use facile::hosts::{initial_args, ArchHost};
use facile::{compile_source, CompilerOptions, SimOptions, Simulation, Target};
use std::time::Instant;

fn compile_with(fold: bool, prune: bool) -> facile::CompiledStep {
    let mut opts = CompilerOptions::default();
    opts.codegen.fold = fold;
    opts.codegen.lifts.prune_dead_flushes = prune;
    opts.codegen.lifts.prune_dead_var_lifts = prune;
    compile_source(&facile::sims::ooo_source(), &opts).expect("ooo compiles")
}

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 0.5);
    let name = args.str("--bench").unwrap_or("129.compress");
    let w = facile_workloads::by_name(name)
        .unwrap_or_else(|| args.fail(&format!("no workload named `{name}`")));
    let image = workload_image(&w, scale);

    println!("Compiler ablations on the Facile OOO simulator, workload {}\n", w.name);
    println!(
        "{:<26} {:>8} {:>8} {:>10} {:>12} {:>10}",
        "configuration", "actions", "rt-frac", "i/s", "memo KiB", "cycles"
    );
    let mut baseline_cycles = None;
    for (label, fold, prune) in [
        ("fold + flush-pruning", true, true),
        ("no folding", false, true),
        ("no flush pruning", true, false),
        ("neither", false, false),
    ] {
        let step = compile_with(fold, prune);
        let actions = step.action_count();
        let rt = step.rt_static_fraction();
        let mut sim = Simulation::new(
            step,
            Target::load(&image),
            &initial_args::ooo(image.entry),
            SimOptions::default(),
        )
        .expect("constructs");
        ArchHost::new().bind(&mut sim).expect("binds");
        let t0 = Instant::now();
        sim.run_steps(MAX_INSNS);
        let wall = t0.elapsed();
        let cycles = sim.stats().cycles;
        match baseline_cycles {
            None => baseline_cycles = Some(cycles),
            Some(c) => assert_eq!(c, cycles, "optimizations must not change results"),
        }
        println!(
            "{:<26} {:>8} {:>8.3} {:>10} {:>12.1} {:>10}",
            label,
            actions,
            rt,
            fmt_rate(sim.stats().insns as f64 / wall.as_secs_f64()),
            sim.cache_stats().bytes_total as f64 / 1024.0,
            cycles
        );
    }
}
