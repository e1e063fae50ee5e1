//! Warm-start A/B benchmark: what does an action-cache snapshot buy?
//!
//! For each Figure 11 workload, runs the compiled (Facile) out-of-order
//! simulator with memoization twice under the epoch timeline recorder:
//!
//! * **cold** — an empty action cache; the run pays the full warm-up
//!   (slow-engine recording) before replay dominates. After the run the
//!   cache is serialized with `facile::snapshot::save` into the
//!   `facile-snap/v2` format documented in `docs/PERSISTENCE.md`.
//! * **warm** — a fresh simulation over the same image that installs
//!   the cold run's snapshot (parse → validate → `warm_start`) before
//!   its first step, exactly as `facilec run --cache-load` does.
//!
//! Both runs are driven in epoch-sized budget slices so the recorded
//! timelines are comparable, and both documents run the steady-state
//! detector (PERFORMANCE.md "time to steady state"). The headline
//! numbers — epoch-0 fast fraction and the detected steady-state epoch
//! — show the warm run starting inside the memoized regime instead of
//! climbing into it.
//!
//! Usage:
//!   sim_warm [--scale F] [--filter NAME] [--epoch N] [--json-out PATH]
//!
//! Defaults: scale 0.1, all workloads, epoch 10000 steps. `--json-out`
//! writes `facile-bench-warm/v1` (one object, per-workload rows); the
//! EXPERIMENTS.md warm-start table is generated from it.

use bench::*;
use facile::job::{prepare, Lane, Sections, Streams, WarmStart};
use facile::snapshot::LoadedSnapshot;
use facile::{CompiledStep, RunDoc, SimOptions, TimelineMetrics};
use facile_obs::{Warmup, DEFAULT_STEADY_EPS, DEFAULT_STEADY_K};

const CLI: Cli = Cli {
    usage: "usage: sim_warm [--scale F] [--filter NAME] [--epoch N] [--json-out PATH]",
    values: &["--scale", "--filter", "--epoch", "--json-out"],
    switches: &[],
    files: false,
};
use facile_runtime::Image;
use std::fmt::Write as _;
use std::sync::Arc;

/// One measured run (cold or warm) under the timeline recorder: its
/// document's header and timeline section.
struct Run {
    doc: RunDoc,
    timeline: TimelineMetrics,
}

impl Run {
    /// Fast fraction of the first retained epoch (epoch 0 unless the
    /// ring dropped — at bench scales it never does).
    fn epoch0_fast_fraction(&self) -> f64 {
        self.timeline
            .epochs
            .first()
            .map_or(0.0, |e| e.fast_fraction())
    }

    fn warmup(&self) -> Option<Warmup> {
        self.timeline.detect(DEFAULT_STEADY_EPS, DEFAULT_STEADY_K)
    }

    fn steady_state_epoch(&self) -> Option<u64> {
        self.warmup().map(|w| w.steady_state_epoch)
    }

    fn warmup_wall_ns(&self) -> Option<u64> {
        self.warmup().map(|w| w.warmup_wall_ns)
    }

    fn fast_fraction(&self) -> f64 {
        self.doc.sim.fast_forwarded_fraction()
    }
}

/// Builds, optionally warm-starts, and drives one simulation to halt
/// in epoch-sized slices through the job pipeline. Returns the measured
/// run and the finished lane (the cold caller snapshots its cache).
fn run_one(
    step: &Arc<CompiledStep>,
    image: &Image,
    label: &str,
    epoch: u64,
    warm: Option<&LoadedSnapshot>,
) -> (Run, Lane) {
    let sections = Sections {
        timeline: Some(epoch.max(1)),
        ..Sections::default()
    };
    let job = FacileSim::Ooo.job(label, image.clone(), SimOptions::default());
    let mut lane =
        prepare(step, job, &sections, warm, Streams::default()).expect("simulation constructs");
    if warm.is_some() {
        assert_eq!(lane.warm(), &WarmStart::Used, "snapshot warm-starts its own workload");
    }
    let o = lane.drive(None);
    assert!(o.halt.is_some(), "workload did not halt");
    let mut doc = o.doc;
    let timeline = doc.timeline.take().expect("timeline recorder was attached");
    (Run { doc, timeline }, lane)
}

struct Row {
    name: &'static str,
    snap_bytes: usize,
    bytes_frozen: u64,
    frozen_gens: u64,
    cold: Run,
    warm: Run,
}

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 0.1);
    let epoch = args.get("--epoch", 10_000u64).max(1);
    let filter = args.str("--filter");
    let json_out = args.str("--json-out");

    let step = compile_facile(FacileSim::Ooo);
    let mut rows: Vec<Row> = Vec::new();

    for w in facile_workloads::suite() {
        if let Some(f) = filter {
            if !w.name.contains(f) {
                continue;
            }
        }
        let image = workload_image(&w, scale);

        let (cold, cold_lane) = run_one(&step, &image, w.name, epoch, None);
        let bytes = facile::snapshot::save(cold_lane.sim());
        let snap = facile::snapshot::parse(&bytes).expect("own snapshot parses");

        let (warm, warm_lane) = run_one(&step, &image, w.name, epoch, Some(&snap));
        assert_eq!(
            (warm.doc.sim.insns, warm.doc.sim.cycles),
            (cold.doc.sim.insns, cold.doc.sim.cycles),
            "{}: warm run must replay the cold run's architected results",
            w.name
        );
        let cs = warm_lane.sim().cache_stats();

        eprintln!(
            "{:>10}: snapshot {} B, cold ff {:.4} -> warm ff {:.4}, \
             epoch0 {:.4} -> {:.4}, warm slow steps {}",
            w.name,
            bytes.len(),
            cold.fast_fraction(),
            warm.fast_fraction(),
            cold.epoch0_fast_fraction(),
            warm.epoch0_fast_fraction(),
            warm.doc.sim.slow_steps,
        );

        rows.push(Row {
            name: w.name,
            snap_bytes: bytes.len(),
            bytes_frozen: cs.bytes_frozen,
            frozen_gens: cs.frozen_gens,
            cold,
            warm,
        });
    }

    if rows.is_empty() {
        eprintln!("no workload matched the filter");
        std::process::exit(1);
    }

    println!(
        "{:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>11} {:>11}",
        "workload",
        "snap B",
        "cold ff",
        "warm ff",
        "cold e0",
        "warm e0",
        "cold ss",
        "warm ss",
        "cold wall",
        "warm wall",
    );
    for r in &rows {
        let ss = |v: Option<u64>| v.map_or("-".to_owned(), |e| e.to_string());
        println!(
            "{:>10} {:>10} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>7} {:>7} {:>11} {:>11}",
            r.name,
            r.snap_bytes,
            r.cold.fast_fraction(),
            r.warm.fast_fraction(),
            r.cold.epoch0_fast_fraction(),
            r.warm.epoch0_fast_fraction(),
            ss(r.cold.steady_state_epoch()),
            ss(r.warm.steady_state_epoch()),
            format!("{:.1}ms", r.cold.doc.wall_ns as f64 / 1e6),
            format!("{:.1}ms", r.warm.doc.wall_ns as f64 / 1e6),
        );
    }
    let mean_cold_e0 = rows.iter().map(|r| r.cold.epoch0_fast_fraction()).sum::<f64>()
        / rows.len() as f64;
    let mean_warm_e0 = rows.iter().map(|r| r.warm.epoch0_fast_fraction()).sum::<f64>()
        / rows.len() as f64;
    println!(
        "mean epoch-0 fast fraction: cold {mean_cold_e0:.4}, warm {mean_warm_e0:.4}"
    );

    if let Some(path) = json_out {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"facile-bench-warm/v1\",\"bench\":\"sim_warm\",\"sim\":\"ooo+memo\",\
             \"scale\":{scale},\"epoch_steps\":{epoch},\"workloads\":["
        );
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let side = |run: &Run| {
                format!(
                    "{{\"fast_fraction\":{:.6},\"epoch0_fast_fraction\":{:.6},\
                     \"steady_state_epoch\":{},\"warmup_steps\":{},\"warmup_wall_ns\":{},\
                     \"slow_steps\":{},\"insns\":{},\"wall_ns\":{}}}",
                    run.fast_fraction(),
                    run.epoch0_fast_fraction(),
                    run.steady_state_epoch()
                        .map_or("null".to_owned(), |v| v.to_string()),
                    run.warmup()
                        .map_or("null".to_owned(), |w| w.warmup_steps.to_string()),
                    run.warmup_wall_ns()
                        .map_or("null".to_owned(), |v| v.to_string()),
                    run.doc.sim.slow_steps,
                    run.doc.sim.insns,
                    run.doc.wall_ns,
                )
            };
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"snapshot_bytes\":{},\"bytes_frozen\":{},\
                 \"frozen_gens\":{},\"cold\":{},\"warm\":{}}}",
                r.name,
                r.snap_bytes,
                r.bytes_frozen,
                r.frozen_gens,
                side(&r.cold),
                side(&r.warm),
            );
        }
        let _ = write!(s, "]}}");
        match std::fs::write(path, &s) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
