//! Observability-overhead self-benchmark: what does watching the
//! simulator cost the simulator?
//!
//! Runs the compiled (Facile) out-of-order simulator with memoization
//! over the Figure 11 workload suite three times per workload:
//!
//! * **disabled** — a disabled `ObsHandle` is attached, so every hook
//!   is one null check. This is the always-on-capable baseline;
//!   `scripts/verify.sh` gates its harmonic-mean throughput against the
//!   unobserved `BENCH_fastsim.json` run.
//! * **sampled** — the replay flight recorder sampling 1-in-N bursts
//!   (`--sample`, default 64).
//! * **full** — the flight recorder on every burst; recounts are exact
//!   and its documents carry the `hot` section.
//! * **timeline** — epoch time-series sampling only (`--epoch`, default
//!   10000 steps), with the run driven in epoch-sized budget slices
//!   exactly as `facilec --obs timeline` drives it, so the recorded
//!   cost covers both the per-epoch fold and the slicing. Its documents
//!   carry the `timeline` section.
//!
//! The trace ring and metrics registry stay off in every mode: this
//! benchmark isolates the recorders' own cost, and the registry's
//! per-action accounting is a separate pathway with its own price.
//!
//! Usage:
//!   obs_overhead [--scale F] [--reps N] [--filter NAME] [--sample N]
//!                [--epoch N] [--json-out PATH] [--fastsim PATH]
//!                [--obs-out PATH] [--obs hot,timeline]
//!
//! Defaults: scale 0.1, 3 reps (best-of, same methodology as
//! `fastreplay`), all workloads, sample 64, epoch 10000. `--fastsim`
//! embeds the harmonic-mean comparison against a previously written
//! `BENCH_fastsim.json`; `--obs-out` writes, per workload, the
//! full-mode document when `hot` is among the `--obs` sections and the
//! timeline-mode document when `timeline` is (default both).

use bench::*;
use facile::job::{JobOutcome, Sections};
use std::fmt::Write as _;

const CLI: Cli = Cli {
    usage: "usage: obs_overhead [--scale F] [--reps N] [--filter NAME] [--sample N] [--epoch N] [--json-out PATH] [--fastsim PATH] [--obs-out PATH] [--obs hot,timeline]",
    values: &[
        "--scale", "--reps", "--filter", "--sample", "--epoch", "--json-out", "--fastsim",
        "--obs-out", "--obs",
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
    sampled: Meas,
    full: Meas,
    timeline: Meas,
    fast_fraction: f64,
    /// Fraction of fast-path insns the top-10 chains cover (full mode).
    top10_coverage: f64,
    chains: usize,
    bursts: u64,
    /// Epochs the timeline mode closed.
    epochs: u64,
    hot_doc: facile::RunDoc,
    timeline_doc: facile::RunDoc,
}

fn main() {
    let args = CLI.parse();
    let scale = args.get("--scale", 0.1);
    let reps = args.get("--reps", 3u32).max(1);
    let sample = args.get("--sample", 64u64).max(1);
    let epoch = args.get("--epoch", 10_000u64).max(1);
    let filter = args.str("--filter");
    let json_out = args.str("--json-out");
    let fastsim = args.str("--fastsim").and_then(|p| std::fs::read_to_string(p).ok());
    let mut sink = DocSink::new(&args, "hot,timeline");
    if sink.wants("metrics") || sink.wants("profile") {
        args.fail("obs_overhead records only the hot and timeline sections");
    }

    let step = compile_facile(FacileSim::Ooo);
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "obs-overhead benchmark: facile ooo +memo, workload scale {scale}, best of {reps}, 1-in-{sample} sampling, {epoch}-step epochs"
    );
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>10} {:>8} {:>10} {:>8} {:>8} {:>8}",
        "benchmark", "disabled", "sampled", "ovh%", "full", "ovh%", "timeline", "ovh%", "ff%", "top10%"
    );
    for w in facile_workloads::suite() {
        if let Some(f) = filter {
            if !w.name.contains(f) {
                continue;
            }
        }
        let image = workload_image(&w, scale);
        let options = sim_options(true, None, CachePolicy::Clear);
        let best = |sections: Sections| -> JobOutcome {
            let mut best: Option<JobOutcome> = None;
            for _ in 0..reps {
                let r = run_facile_job(&step, FacileSim::Ooo, &image, options, w.name, &sections);
                if best.as_ref().is_none_or(|b| r.doc.wall_ns < b.doc.wall_ns) {
                    best = Some(r);
                }
            }
            best.expect("at least one rep ran")
        };
        let hot = |n| Sections {
            hot: Some(n),
            ..Sections::default()
        };
        let disabled = best(Sections::default());
        let sampled = best(hot(sample));
        let full = best(hot(1));
        let timeline = best(Sections {
            timeline: Some(epoch),
            ..Sections::default()
        });
        let meas = |r: &JobOutcome| Meas {
            wall_ns: r.doc.wall_ns,
            steps: r.steps,
            insns: r.doc.sim.insns,
        };
        let hot = full.doc.hot.as_ref().expect("full mode carries a recorder");
        let tl = timeline
            .doc
            .timeline
            .as_ref()
            .expect("timeline mode carries a timeline");
        let top10: u64 = hot.ranked_chains().iter().take(10).map(|c| c.insns).sum();
        let row = Row {
            name: w.name,
            disabled: meas(&disabled),
            sampled: meas(&sampled),
            full: meas(&full),
            timeline: meas(&timeline),
            fast_fraction: disabled.doc.sim.fast_forwarded_fraction(),
            top10_coverage: top10 as f64 / full.doc.sim.fast_insns.max(1) as f64,
            chains: hot.chains.len(),
            bursts: hot.bursts,
            epochs: tl.epochs_total(),
            hot_doc: full.doc.clone(),
            timeline_doc: timeline.doc.clone(),
        };
        let ovh = |m: &Meas| 100.0 * (row.disabled.steps_per_sec() / m.steps_per_sec() - 1.0);
        println!(
            "{:<14} {:>10} {:>10} {:>8.2} {:>10} {:>8.2} {:>10} {:>8.2} {:>8.3} {:>8.1}",
            row.name,
            fmt_rate(row.disabled.steps_per_sec()),
            fmt_rate(row.sampled.steps_per_sec()),
            ovh(&row.sampled),
            fmt_rate(row.full.steps_per_sec()),
            ovh(&row.full),
            fmt_rate(row.timeline.steps_per_sec()),
            ovh(&row.timeline),
            100.0 * row.fast_fraction,
            100.0 * row.top10_coverage,
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
    let hm_sampled = hmean_of(&|r| r.sampled.steps_per_sec());
    let hm_full = hmean_of(&|r| r.full.steps_per_sec());
    let hm_timeline = hmean_of(&|r| r.timeline.steps_per_sec());
    println!("\nharmonic mean steps/s: disabled {}, sampled {}, full {}, timeline {}",
        fmt_rate(hm_disabled), fmt_rate(hm_sampled), fmt_rate(hm_full), fmt_rate(hm_timeline));
    println!(
        "relative throughput:   sampled/disabled {:.4}, full/disabled {:.4}, timeline/disabled {:.4}",
        hm_sampled / hm_disabled.max(1e-9),
        hm_full / hm_disabled.max(1e-9),
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
        if sink.wants("hot") {
            sink.push(&r.hot_doc);
        }
        if sink.wants("timeline") {
            sink.push(&r.timeline_doc);
        }
    }
    sink.finish();

    if let Some(path) = json_out {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"facile-bench-obs/v1\",\"bench\":\"obs_overhead\",\"sim\":\"ooo+memo\",\
             \"scale\":{scale},\"sample_every\":{sample},\"epoch_steps\":{epoch},\"workloads\":["
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
                "{{\"name\":\"{}\",\"disabled\":{},\"sampled\":{},\"full\":{},\"timeline\":{},\
                 \"fast_fraction\":{:.6},\"hot_top10_coverage\":{:.6},\"hot_chains\":{},\"hot_bursts\":{},\
                 \"timeline_epochs\":{}}}",
                r.name,
                m(&r.disabled),
                m(&r.sampled),
                m(&r.full),
                m(&r.timeline),
                r.fast_fraction,
                r.top10_coverage,
                r.chains,
                r.bursts,
                r.epochs,
            );
        }
        let _ = write!(
            s,
            "],\"hmean_disabled_steps_per_sec\":{hm_disabled:.1},\
             \"hmean_sampled_steps_per_sec\":{hm_sampled:.1},\
             \"hmean_full_steps_per_sec\":{hm_full:.1},\
             \"hmean_timeline_steps_per_sec\":{hm_timeline:.1},\
             \"sampled_over_disabled\":{:.4},\"full_over_disabled\":{:.4},\
             \"timeline_over_disabled\":{:.4}",
            hm_sampled / hm_disabled.max(1e-9),
            hm_full / hm_disabled.max(1e-9),
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
