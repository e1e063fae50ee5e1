//! Figure 12: the Facile-compiled out-of-order simulator with and without
//! fast-forwarding vs. SimpleScalar.
//!
//! Paper expectations (shape): fast-forwarding speeds the Facile
//! simulator up 2.8–23.8x (harmonic mean 8.3), worst on gcc-like
//! irregular code; the action cache is capped at 256 MB and cleared when
//! full, which is what hurt the paper's gcc.
//!
//! Usage: fig12 [--scale F] [--cap BYTES] [--cache-policy clear|generational]
//!              [--metrics-out fig12.jsonl] [--profile-out fig12-prof.jsonl]

use bench::*;

fn main() {
    let scale = arg_f64("--scale", 1.0);
    let cap = arg_f64("--cap", 256.0 * 1024.0 * 1024.0) as u64;
    let policy = match arg_str("--cache-policy").as_deref() {
        None | Some("clear") => CachePolicy::Clear,
        Some("generational") => CachePolicy::Generational,
        Some(other) => panic!("unknown --cache-policy `{other}` (clear|generational)"),
    };
    let mut sink = DocSink::metrics();
    let mut prof = DocSink::profile();
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
        let ss = run_simplescalar_sink(&image, &format!("{}/simplescalar", w.name), &mut sink);
        let no = run_facile_obs(
            &step,
            FacileSim::Ooo,
            &image,
            false,
            None,
            policy,
            &format!("{}/facile-nomemo", w.name),
            &mut sink,
            &mut DocSink::disabled(),
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
            &mut prof,
        );
        assert_eq!(no.cycles, yes.cycles, "fast-forwarding must be exact");
        let sp = yes.sim_ips() / no.sim_ips();
        let rs = yes.sim_ips() / ss.sim_ips();
        speedups.push(sp);
        vs_ss.push(rs);
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>9.2} {:>9.2} {:>8.3}",
            w.name,
            no.insns,
            fmt_rate(ss.sim_ips()),
            fmt_rate(no.sim_ips()),
            fmt_rate(yes.sim_ips()),
            sp,
            rs,
            100.0 * yes.fast_fraction,
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
    prof.finish();
}
