//! Figure 12: the Facile-compiled out-of-order simulator with and without
//! fast-forwarding vs. SimpleScalar.
//!
//! Paper expectations (shape): fast-forwarding speeds the Facile
//! simulator up 2.8–23.8x (harmonic mean 8.3), worst on gcc-like
//! irregular code; the action cache is capped at 256 MB and cleared when
//! full, which is what hurt the paper's gcc.
//!
//! Usage: fig12 [--scale F] [--cap BYTES] [--cache-policy clear|generational]
//!              [--obs-out fig12.jsonl] [--obs SECTIONS]

use bench::*;

const CLI: Cli = Cli {
    usage: "usage: fig12 [--scale F] [--cap BYTES] [--cache-policy clear|generational] [--obs-out runs.jsonl] [--obs SECTIONS]",
    values: &["--scale", "--cap", "--cache-policy", "--obs-out", "--obs"],
    switches: &[],
    files: false,
};

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 1.0);
    let cap: u64 = args.get("--cap", 256 << 20);
    let policy = args.choice(
        "--cache-policy",
        &[("clear", CachePolicy::Clear), ("generational", CachePolicy::Generational)],
        CachePolicy::Clear,
    );
    let mut sink = DocSink::new(&args, "metrics");
    println!("Figure 12: Facile-compiled out-of-order simulator");
    println!(
        "workload scale: {scale}, action cache cap: {} MiB, policy: {policy:?}\n",
        cap >> 20
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "benchmark", "insns", "ss i/s", "fac- i/s", "fac+ i/s", "fac+/fac-", "fac+/ss", "ff%"
    );
    let step = compile_facile(FacileSim::Ooo);
    let mut speedups = Vec::new();
    let mut vs_ss = Vec::new();
    for w in facile_workloads::suite() {
        let image = workload_image(&w, scale);
        let ss = run_simplescalar(&image, &format!("{}/simplescalar", w.name), &mut sink);
        let no = run_facile_obs(
            &step,
            FacileSim::Ooo,
            &image,
            false,
            None,
            policy,
            &format!("{}/facile-nomemo", w.name),
            &mut sink,
        );
        let yes = run_facile_obs(
            &step,
            FacileSim::Ooo,
            &image,
            true,
            Some(cap),
            policy,
            &format!("{}/facile", w.name),
            &mut sink,
        );
        assert_eq!(no.sim.cycles, yes.sim.cycles, "fast-forwarding must be exact");
        let sp = yes.insns_per_sec() / no.insns_per_sec();
        let rs = yes.insns_per_sec() / ss.insns_per_sec();
        speedups.push(sp);
        vs_ss.push(rs);
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>9.2} {:>9.2} {:>8.3}",
            w.name,
            no.sim.insns,
            fmt_rate(ss.insns_per_sec()),
            fmt_rate(no.insns_per_sec()),
            fmt_rate(yes.insns_per_sec()),
            sp,
            rs,
            100.0 * yes.sim.fast_forwarded_fraction(),
        );
    }
    println!(
        "\nharmonic means: facile+memo/facile-no-memo = {:.2} (paper: 8.3, range 2.8-23.8)",
        harmonic_mean(&speedups)
    );
    println!(
        "                facile+memo/simplescalar    = {:.2} (paper: 1.5; interpreted engines, see EXPERIMENTS.md)",
        harmonic_mean(&vs_ss)
    );
    sink.finish();
}
