//! Table 2: quantity of memoized data (MBytes) per benchmark.
//!
//! Paper: go 889.4 MB (largest), gcc 296.0, ijpeg 199.5, perl 142.9,
//! vortex 108.6 vs compress 2.8, li 3.2, m88ksim 4.6; FP suite 5.6–38.3.
//! Absolute sizes scale with run length; the reproduction target is the
//! per-benchmark ordering and the integer-suite spread.
//!
//! Usage: table2 [--scale F] [--obs-out table2.jsonl] [--obs SECTIONS]

use bench::*;

const CLI: Cli = Cli {
    usage: "usage: table2 [--scale F] [--obs-out runs.jsonl] [--obs SECTIONS]",
    values: &["--scale", "--obs-out", "--obs"],
    switches: &[],
    files: false,
};

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 1.0);
    let mut sink = DocSink::new(&args, "metrics");
    println!("Table 2: memoized data (Facile OOO, unbounded action cache)\n");
    println!("{:<14} {:>12} {:>12} {:>12}", "benchmark", "insns", "MiB", "paper MB");
    let paper: &[(&str, f64)] = &[
        ("099.go", 889.4), ("124.m88ksim", 4.6), ("126.gcc", 296.0),
        ("129.compress", 2.8), ("130.li", 3.2), ("132.ijpeg", 199.5),
        ("134.perl", 142.9), ("147.vortex", 108.6), ("101.tomcatv", 5.6),
        ("102.swim", 16.8), ("103.su2cor", 32.8), ("104.hydro2d", 35.5),
        ("107.mgrid", 9.5), ("110.applu", 19.5), ("125.turb3d", 10.4),
        ("141.apsi", 20.3), ("145.fpppp", 25.4), ("146.wave5", 38.3),
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
            "{:<14} {:>12} {:>12.1} {:>12.1}",
            w.name,
            r.sim.insns,
            r.cache.bytes_total as f64 / (1 << 20) as f64,
            p
        );
    }
    sink.finish();
}
