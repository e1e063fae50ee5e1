//! §6.2's cache-capacity claim: "cache size can be reduced by a factor
//! of ten, with little impact on memoized simulator performance" —
//! measured under both capacity policies:
//!
//! * `clear` — the paper's wholesale clear-on-full, and
//! * `generational` — partial eviction of the coldest generations,
//!   which keeps the hot working set resident across the cap.
//!
//! For each capacity the two policies run over the same image; cycle
//! counts must match the unbounded run (capacity is transparent), and
//! the interesting deltas are slow-path instructions, misses, and
//! clears vs. evictions.
//!
//! Usage: cache_sweep [--scale F] [--bench NAME] [--json-out PATH]

use bench::*;

const CLI: Cli = Cli {
    usage: "usage: cache_sweep [--scale F] [--bench NAME] [--json-out PATH]",
    values: &["--scale", "--bench", "--json-out"],
    switches: &[],
    files: false,
};

/// One policy's measurements at one capacity, as a JSONL record.
fn json_row(workload: &str, cap: u64, policy: &str, r: &facile::RunDoc) -> String {
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"cap\":{},\"policy\":\"{}\",",
            "\"insns\":{},\"slow_insns\":{},\"misses\":{},",
            "\"clears\":{},\"evictions\":{},\"ips\":{:.0}}}"
        ),
        workload,
        cap,
        policy,
        r.sim.insns,
        r.sim.slow_insns,
        r.sim.misses,
        r.cache.clears,
        r.cache.evictions,
        r.insns_per_sec(),
    )
}

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 1.0);
    let name = args.str("--bench").unwrap_or("134.perl");
    let json_out = args.str("--json-out");
    let w = facile_workloads::by_name(name)
        .unwrap_or_else(|| args.fail(&format!("no workload named `{name}`")));
    let step = compile_facile(FacileSim::Ooo);
    let image = workload_image(&w, scale);

    // Establish the unbounded footprint first.
    let run = |capacity, policy| {
        let sink = &mut DocSink::default();
        run_facile_obs(&step, FacileSim::Ooo, &image, true, capacity, policy, "facile", sink)
    };
    let unbounded = run(None, CachePolicy::Clear);
    println!(
        "{}: {} insns, unbounded cache {:.1} MiB, {} i/s\n",
        w.name,
        unbounded.sim.insns,
        unbounded.cache.bytes_total as f64 / (1 << 20) as f64,
        fmt_rate(unbounded.insns_per_sec())
    );
    println!(
        "{:>12} {:>14} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "cap", "policy", "clears", "evicts", "slow", "misses", "i/s", "rel"
    );
    let mut json = Vec::new();
    for div in [1u64, 2, 4, 10, 20, 50] {
        let cap = (unbounded.cache.bytes_total / div).max(64 * 1024);
        for (policy, tag) in [
            (CachePolicy::Clear, "clear"),
            (CachePolicy::Generational, "generational"),
        ] {
            let r = run(Some(cap), policy);
            assert_eq!(
                r.sim.cycles, unbounded.sim.cycles,
                "capacity must not change results ({tag})"
            );
            println!(
                "{:>9}KiB {:>14} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10.2}",
                cap >> 10,
                tag,
                r.cache.clears,
                r.cache.evictions,
                r.sim.slow_insns,
                r.sim.misses,
                fmt_rate(r.insns_per_sec()),
                r.insns_per_sec() / unbounded.insns_per_sec(),
            );
            json.push(json_row(w.name, cap, tag, &r));
        }
    }
    if let Some(path) = json_out {
        let text = json.join("\n") + "\n";
        std::fs::write(path, text).expect("write --json-out");
        println!("\nwrote {path}");
    }
}
