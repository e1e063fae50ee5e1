//! In-process probe of the warm-start path: what does loading a
//! snapshot cost, step by step?
//!
//! Records one workload cold under the compiled out-of-order simulator
//! and saves its action cache, then times, per rep:
//!
//! * `parse` — `snapshot::parse` of the saved bytes;
//! * `validate` — the first `LoadedSnapshot::validate` of that parse
//!   (the node walk; later validates reuse its verdict);
//! * `warm_start` — `Simulation::warm_start` on a fresh simulation, the
//!   per-job install a serve daemon pays.
//!
//! The default workload is serve-warm's warm program: the suite's
//! 099.go generated under the name `099.go@serve` at scale 0.02.
//!
//! Usage:
//!   snap_probe [--workload NAME] [--tag TAG] [--scale F] [--reps N]
//!
//! Prints the snapshot's shape and the median and minimum of each
//! timing in milliseconds.

use bench::*;
use facile::hosts::{initial_args, ArchHost};
use facile::{snapshot, SimOptions, Simulation, Target};
use std::time::Instant;

const CLI: Cli = Cli {
    usage: "usage: snap_probe [--workload NAME] [--tag TAG] [--scale F] [--reps N]",
    values: &["--workload", "--tag", "--scale", "--reps"],
    switches: &[],
    files: false,
};

fn main() {
    let args = CLI.parse();
    let base = args.str("--workload").unwrap_or("099.go").to_owned();
    let tag = args.str("--tag").unwrap_or("serve").to_owned();
    let scale = args.get("--scale", 0.02);
    let reps = args.get("--reps", 15usize).max(1);

    let mut w = facile_workloads::by_name(&base)
        .unwrap_or_else(|| args.fail(&format!("no workload named `{base}`")));
    // The name seeds the generator's choices, as the benchmark's
    // seeded variants do.
    w.name = Box::leak(format!("{}@{tag}", w.name).into_boxed_str());
    let image = workload_image(&w, scale);
    let step = compile_facile(FacileSim::Ooo);
    let sim = || {
        let mut s = Simulation::new(
            step.clone(),
            Target::load(&image),
            &initial_args::ooo(image.entry),
            SimOptions::default(),
        )
        .expect("simulation constructs");
        ArchHost::new().bind(&mut s).expect("externals bind");
        s
    };
    let mut cold = sim();
    cold.run_steps(MAX_INSNS);
    assert!(cold.halted().is_some(), "{}: cold run did not halt", w.name);
    let bytes = snapshot::save(&cold);
    let shape = snapshot::parse(&bytes).expect("own snapshot parses").image();
    println!(
        "{}: snapshot {:.2} MB, {} generations, {} nodes, {} entries",
        w.name,
        bytes.len() as f64 / 1e6,
        shape.generation_count(),
        shape.node_count(),
        shape.entry_count(),
    );

    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (mut parse, mut validate, mut install) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        let loaded = snapshot::parse(&bytes).expect("own snapshot parses");
        parse.push(ms(t));
        let mut s = sim();
        let t = Instant::now();
        loaded.validate(&s).expect("own snapshot validates");
        validate.push(ms(t));
        let t = Instant::now();
        s.warm_start(loaded.image()).expect("fresh simulation warm-starts");
        install.push(ms(t));
    }
    println!("{:<12} {:>10} {:>10}", "phase", "median ms", "min ms");
    for (name, v) in [("parse", parse), ("validate", validate), ("warm_start", install)] {
        let mut v = v;
        v.sort_by(f64::total_cmp);
        println!("{name:<12} {:>10.3} {:>10.3}", v[v.len() / 2], v[0]);
    }
}
