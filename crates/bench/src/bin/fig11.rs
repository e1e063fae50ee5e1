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
//! Usage: fig11 [--scale F] [--filter SUBSTR] [--obs-out fig11.jsonl]
//!              [--obs SECTIONS]                        (default scale 1.0)
//!
//! `--filter` keeps only workloads whose name contains the substring.
//! `--obs-out` writes a header-only run document per reference run;
//! with `profile` among the `--obs` sections it additionally runs the
//! Facile *functional* simulator (the apples-to-apples peer of the
//! hand-coded memoizers measured here) over each workload and writes
//! its document too.

use bench::*;

const CLI: Cli = Cli {
    usage: "usage: fig11 [--scale F] [--filter SUBSTR] [--obs-out runs.jsonl] [--obs SECTIONS]",
    values: &["--scale", "--filter", "--obs-out", "--obs"],
    switches: &[],
    files: false,
};

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 1.0);
    let filter = args.str("--filter");
    let mut sink = DocSink::new(&args, "metrics");
    let prof_step = sink.wants("profile").then(|| compile_facile(FacileSim::Functional));
    println!("Figure 11: hand-coded fast-forwarding (FastSim role) vs SimpleScalar");
    println!("workload scale: {scale}\n");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "benchmark", "insns", "ss i/s", "fs- i/s", "fs+ i/s", "fs-/ss", "fs+/fs-", "ff%"
    );
    let mut ratios_no = Vec::new();
    let mut ratios_memo = Vec::new();
    for w in facile_workloads::suite() {
        if let Some(f) = filter {
            if !w.name.contains(f) {
                continue;
            }
        }
        let image = workload_image(&w, scale);
        let ss = run_simplescalar(&image, &format!("{}/simplescalar", w.name), &mut sink);
        let fs_no = run_fastsim(
            &image,
            false,
            None,
            &format!("{}/fastsim-nomemo", w.name),
            &mut sink,
        );
        let fs_yes =
            run_fastsim(&image, true, None, &format!("{}/fastsim", w.name), &mut sink);
        assert_eq!(ss.sim.insns, fs_no.sim.insns);
        assert_eq!(fs_no.sim.cycles, fs_yes.sim.cycles, "memoization must be exact");
        if let Some(step) = &prof_step {
            run_facile_obs(
                step,
                FacileSim::Functional,
                &image,
                true,
                None,
                CachePolicy::Clear,
                &format!("{}/facile-functional", w.name),
                &mut sink,
            );
        }
        let r_no = fs_no.insns_per_sec() / ss.insns_per_sec();
        let r_memo = fs_yes.insns_per_sec() / fs_no.insns_per_sec();
        ratios_no.push(r_no);
        ratios_memo.push(r_memo);
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8.2} {:>8.2} {:>8.3}",
            w.name,
            ss.sim.insns,
            fmt_rate(ss.insns_per_sec()),
            fmt_rate(fs_no.insns_per_sec()),
            fmt_rate(fs_yes.insns_per_sec()),
            r_no,
            r_memo,
            100.0 * fs_yes.sim.fast_forwarded_fraction(),
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
}
