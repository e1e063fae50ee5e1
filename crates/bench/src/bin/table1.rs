//! Table 1: percentage of instructions simulated by the fast engine.
//!
//! Paper: 99.689% (gcc, worst) to 99.999% per benchmark; the fraction is
//! a function of run length vs. instruction-working-set size, so smaller
//! synthetic runs sit lower — the per-benchmark ORDER is the
//! reproduction target (gcc/go worst, tight FP loops best).
//!
//! Usage: table1 [--scale F] [--obs-out table1.jsonl] [--obs SECTIONS]

use bench::*;

const CLI: Cli = Cli {
    usage: "usage: table1 [--scale F] [--obs-out runs.jsonl] [--obs SECTIONS]",
    values: &["--scale", "--obs-out", "--obs"],
    switches: &[],
    files: false,
};

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 1.0);
    let mut sink = DocSink::new(&args, "metrics");
    println!("Table 1: percentage of instructions fast-forwarded (Facile OOO)\n");
    println!("{:<14} {:>12} {:>10} {:>10}", "benchmark", "insns", "ff%", "paper%");
    let paper: &[(&str, f64)] = &[
        ("099.go", 99.901), ("124.m88ksim", 99.987), ("126.gcc", 99.689),
        ("129.compress", 99.923), ("130.li", 99.997), ("132.ijpeg", 99.797),
        ("134.perl", 99.978), ("147.vortex", 99.992), ("101.tomcatv", 99.997),
        ("102.swim", 99.977), ("103.su2cor", 99.974), ("104.hydro2d", 99.972),
        ("107.mgrid", 99.999), ("110.applu", 99.999), ("125.turb3d", 99.999),
        ("141.apsi", 99.998), ("145.fpppp", 99.987), ("146.wave5", 99.995),
    ];
    let step = compile_facile(FacileSim::Ooo);
    for w in facile_workloads::suite() {
        let image = workload_image(&w, scale);
        let r = run_facile_obs(
            &step,
            FacileSim::Ooo,
            &image,
            true,
            None,
            CachePolicy::Clear,
            w.name,
            &mut sink,
        );
        let p = paper.iter().find(|(n, _)| *n == w.name).map(|(_, v)| *v).unwrap_or(0.0);
        println!(
            "{:<14} {:>12} {:>10.3} {:>10.3}",
            w.name,
            r.sim.insns,
            100.0 * r.sim.fast_forwarded_fraction(),
            p
        );
    }
    sink.finish();
}
