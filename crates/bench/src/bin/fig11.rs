//! Figure 11: FastSim (hand-coded memoization) with and without
//! memoization vs. SimpleScalar — simulated instructions per second for
//! every synthetic SPEC95 workload.
//!
//! Paper expectations (shape, not absolute MIPS): FastSim without
//! memoization runs 1.1–2.1x faster than SimpleScalar; with memoization
//! it is fastest, by a margin that grows with the workload's locality
//! (the paper reports 8.5–14.7x vs SimpleScalar on 1990s hosts; see
//! EXPERIMENTS.md for why the magnitude is host-dependent).
//!
//! Usage: fig11 [--scale F] [--filter SUBSTR] [--metrics-out fig11.jsonl]
//!              [--profile-out fig11-prof.jsonl]        (default scale 1.0)
//!
//! `--filter` keeps only workloads whose name contains the substring.
//! `--profile-out` additionally runs the Facile *functional* simulator
//! (the apples-to-apples peer of the hand-coded memoizers measured
//! here) over each workload and writes its source-level profile.

use bench::*;

fn main() {
    let scale = arg_f64("--scale", 1.0);
    let filter = arg_str("--filter");
    let mut sink = DocSink::metrics();
    let mut prof = DocSink::profile();
    let prof_step = prof.active().then(|| compile_facile(FacileSim::Functional));
    println!("Figure 11: hand-coded fast-forwarding (FastSim role) vs SimpleScalar");
    println!("workload scale: {scale}\n");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "benchmark", "insns", "ss i/s", "fs- i/s", "fs+ i/s", "fs-/ss", "fs+/fs-", "ff%"
    );
    let mut ratios_no = Vec::new();
    let mut ratios_memo = Vec::new();
    for w in facile_workloads::suite() {
        if let Some(f) = &filter {
            if !w.name.contains(f.as_str()) {
                continue;
            }
        }
        let image = workload_image(&w, scale);
        let ss = run_simplescalar_sink(&image, &format!("{}/simplescalar", w.name), &mut sink);
        let fs_no = run_fastsim_sink(
            &image,
            false,
            None,
            &format!("{}/fastsim-nomemo", w.name),
            &mut sink,
        );
        let fs_yes =
            run_fastsim_sink(&image, true, None, &format!("{}/fastsim", w.name), &mut sink);
        assert_eq!(ss.insns, fs_no.insns);
        assert_eq!(fs_no.cycles, fs_yes.cycles, "memoization must be exact");
        if let Some(step) = &prof_step {
            run_facile_obs(
                step,
                FacileSim::Functional,
                &image,
                true,
                None,
                CachePolicy::Clear,
                &format!("{}/facile-functional", w.name),
                &mut DocSink::disabled(),
                &mut prof,
            );
        }
        let r_no = fs_no.sim_ips() / ss.sim_ips();
        let r_memo = fs_yes.sim_ips() / fs_no.sim_ips();
        ratios_no.push(r_no);
        ratios_memo.push(r_memo);
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8.2} {:>8.2} {:>8.3}",
            w.name,
            ss.insns,
            fmt_rate(ss.sim_ips()),
            fmt_rate(fs_no.sim_ips()),
            fmt_rate(fs_yes.sim_ips()),
            r_no,
            r_memo,
            100.0 * fs_yes.fast_fraction,
        );
    }
    println!(
        "\nharmonic means: fastsim-no-memo/simplescalar = {:.2} (paper: 1.1-2.1)",
        harmonic_mean(&ratios_no)
    );
    println!(
        "                fastsim+memo/fastsim-no-memo = {:.2} (paper: 4.9-11.9)",
        harmonic_mean(&ratios_memo)
    );
    sink.finish();
    prof.finish();
}
