//! Observability-overhead self-benchmark: what does watching the
//! simulator cost the simulator?
//!
//! Runs the compiled (Facile) out-of-order simulator with memoization
//! over the Figure 11 workload suite in two modes per workload:
//!
//! * **disabled** — a disabled `ObsHandle` is attached, so every hook
//!   is one null check. This is the always-on-capable baseline;
//!   `scripts/verify.sh` gates its harmonic-mean throughput against the
//!   unobserved `BENCH_fastsim.json` run.
//! * **timeline** — epoch time-series sampling only (`--epoch`, default
//!   10000 steps), with the run driven in epoch-sized budget slices
//!   exactly as `facilec --obs timeline` drives it, so the recorded
//!   cost covers both the per-epoch fold and the slicing. Its documents
//!   carry the `timeline` section.
//!
//! The trace ring and metrics registry stay off in every mode: this
//! benchmark isolates the timeline recorder's own cost, and the registry's
//! per-action accounting is a separate pathway with its own price.
//!
//! Usage:
//!   obs_overhead [--scale F] [--reps N] [--filter NAME] [--epoch N]
//!                [--json-out PATH] [--fastsim PATH]
//!                [--obs-out PATH] [--obs timeline]
//!
//! Defaults: scale 0.1, 3 reps (best-of, same methodology as
//! `fastreplay`; each rep runs the two modes back to back), all
//! workloads, epoch 10000. `--fastsim` embeds the harmonic-mean
//! comparison against a previously written `BENCH_fastsim.json`;
//! `--obs-out` writes the timeline-mode document of every workload.

use bench::*;
use facile::job::{JobOutcome, Sections};
use std::fmt::Write as _;

const CLI: Cli = Cli {
    usage: "usage: obs_overhead [--scale F] [--reps N] [--filter NAME] [--epoch N] [--json-out PATH] [--fastsim PATH] [--obs-out PATH] [--obs timeline]",
    values: &[
        "--scale", "--reps", "--filter", "--epoch", "--json-out", "--fastsim", "--obs-out",
        "--obs",
    ],
    switches: &[],
    files: false,
};

/// One mode's best-of-reps measurement.
#[derive(Clone, Copy)]
struct Meas {
    wall_ns: u64,
    steps: u64,
    insns: u64,
}

impl Meas {
    fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.wall_ns as f64 / 1e9).max(1e-9)
    }
}

struct Row {
    name: &'static str,
    disabled: Meas,
    timeline: Meas,
    fast_fraction: f64,
    /// Epochs the timeline mode closed.
    epochs: u64,
    timeline_doc: facile::RunDoc,
}

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 0.1);
    let reps = args.get("--reps", 3u32).max(1);
    let epoch = args.get("--epoch", 10_000u64).max(1);
    let filter = args.str("--filter");
    let json_out = args.str("--json-out");
    let fastsim = args.str("--fastsim").and_then(|p| std::fs::read_to_string(p).ok());
    let mut sink = DocSink::new(&args, "timeline");
    if sink.wants("metrics") || sink.wants("profile") {
        args.fail("obs_overhead records only the timeline section");
    }

    let step = compile_facile(FacileSim::Ooo);
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "obs-overhead benchmark: facile ooo +memo, workload scale {scale}, best of {reps}, {epoch}-step epochs"
    );
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>8}",
        "benchmark", "disabled", "timeline", "ovh%", "ff%"
    );
    for w in facile_workloads::suite() {
        if let Some(f) = filter {
            if !w.name.contains(f) {
                continue;
            }
        }
        let image = workload_image(&w, scale);
        let options = sim_options(true, None, CachePolicy::Clear);
        let modes = [
            Sections::default(),
            Sections {
                timeline: Some(epoch),
                ..Sections::default()
            },
        ];
        // Every rep runs each mode once, back to back, so a drift in host
        // speed lands on all modes alike; each mode keeps its best rep.
        let mut best: [Option<JobOutcome>; 2] = [None, None];
        for _ in 0..reps {
            for (slot, sections) in best.iter_mut().zip(&modes) {
                let r = run_facile_job(&step, FacileSim::Ooo, &image, options, w.name, sections);
                if slot.as_ref().is_none_or(|b| r.doc.wall_ns < b.doc.wall_ns) {
                    *slot = Some(r);
                }
            }
        }
        let [disabled, timeline] = best.map(|b| b.expect("at least one rep ran"));
        let meas = |r: &JobOutcome| Meas {
            wall_ns: r.doc.wall_ns,
            steps: r.steps,
            insns: r.doc.sim.insns,
        };
        let tl = timeline
            .doc
            .timeline
            .as_ref()
            .expect("timeline mode carries a timeline");
        let row = Row {
            name: w.name,
            disabled: meas(&disabled),
            timeline: meas(&timeline),
            fast_fraction: disabled.doc.sim.fast_forwarded_fraction(),
            epochs: tl.epochs_total(),
            timeline_doc: timeline.doc.clone(),
        };
        println!(
            "{:<14} {:>10} {:>10} {:>8.2} {:>8.3}",
            row.name,
            fmt_rate(row.disabled.steps_per_sec()),
            fmt_rate(row.timeline.steps_per_sec()),
            100.0 * (row.disabled.steps_per_sec() / row.timeline.steps_per_sec() - 1.0),
            100.0 * row.fast_fraction,
        );
        rows.push(row);
    }
    if rows.is_empty() {
        eprintln!("obs_overhead: no workloads matched the filter");
        std::process::exit(1);
    }

    let hmean_of = |f: &dyn Fn(&Row) -> f64| {
        let rates: Vec<f64> = rows.iter().map(f).collect();
        harmonic_mean(&rates)
    };
    let hm_disabled = hmean_of(&|r| r.disabled.steps_per_sec());
    let hm_timeline = hmean_of(&|r| r.timeline.steps_per_sec());
    println!(
        "\nharmonic mean steps/s: disabled {}, timeline {}",
        fmt_rate(hm_disabled),
        fmt_rate(hm_timeline)
    );
    println!(
        "relative throughput:   timeline/disabled {:.4}",
        hm_timeline / hm_disabled.max(1e-9)
    );
    let fastsim_hmean = fastsim.as_deref().and_then(extract_hmean);
    if let Some(base) = fastsim_hmean {
        println!(
            "vs BENCH_fastsim.json: disabled/unobserved {:.4} (hmean {} vs {})",
            hm_disabled / base.max(1e-9),
            fmt_rate(hm_disabled),
            fmt_rate(base)
        );
    }

    for r in &rows {
        if sink.wants("timeline") {
            sink.push(&r.timeline_doc);
        }
    }
    sink.finish();

    if let Some(path) = json_out {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"facile-bench-obs/v2\",\"bench\":\"obs_overhead\",\"sim\":\"ooo+memo\",\
             \"scale\":{scale},\"epoch_steps\":{epoch},\"workloads\":["
        );
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let m = |m: &Meas| {
                format!(
                    "{{\"wall_ns\":{},\"steps\":{},\"insns\":{},\"steps_per_sec\":{:.1}}}",
                    m.wall_ns,
                    m.steps,
                    m.insns,
                    m.steps_per_sec()
                )
            };
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"disabled\":{},\"timeline\":{},\
                 \"fast_fraction\":{:.6},\"timeline_epochs\":{}}}",
                r.name,
                m(&r.disabled),
                m(&r.timeline),
                r.fast_fraction,
                r.epochs,
            );
        }
        let _ = write!(
            s,
            "],\"hmean_disabled_steps_per_sec\":{hm_disabled:.1},\
             \"hmean_timeline_steps_per_sec\":{hm_timeline:.1},\
             \"timeline_over_disabled\":{:.4}",
            hm_timeline / hm_disabled.max(1e-9)
        );
        if let Some(base) = fastsim_hmean {
            let _ = write!(
                s,
                ",\"fastsim_hmean_steps_per_sec\":{base:.1},\"disabled_over_fastsim\":{:.4}",
                hm_disabled / base.max(1e-9)
            );
        }
        s.push_str("}\n");
        match std::fs::write(path, &s) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Extracts `hmean_steps_per_sec` from a `BENCH_fastsim.json` body
/// (hand-rolled: the workspace builds without serde).
fn extract_hmean(json: &str) -> Option<f64> {
    let key = "\"hmean_steps_per_sec\":";
    let k = json.find(key)?;
    let num = &json[k + key.len()..];
    let end = num
        .find(|c: char| c != '.' && c != '-' && c != 'e' && c != '+' && !c.is_ascii_digit())
        .unwrap_or(num.len());
    num[..end].parse().ok()
}
