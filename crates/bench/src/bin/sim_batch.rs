//! Batch-throughput benchmark: the Figure 11 workload suite as N
//! independent jobs over one shared compiled simulator, dispatched
//! across a worker pool (`facile::batch`).
//!
//! Where `fastreplay` measures one replay lane, this measures the
//! production shape: many concurrent simulations sharing the compiled
//! step read-only, each with a private machine state, action cache and
//! replay scratch. Reports per-job and aggregate steps/sec; with
//! `--compare` it reruns the same jobs on one thread and prints the
//! batch speedup (the acceptance number: aggregate batch throughput
//! must beat serial execution of the same jobs).
//!
//! Usage:
//!   sim_batch [--threads K] [--scale F] [--filter NAME] [--sim ooo|inorder|functional]
//!             [--compare] [--json-out PATH] [--metrics-out PATH] [--profile-out PATH]
//!
//! Defaults: auto thread count, scale 0.1, all 18 workloads, ooo.
//! `--metrics-out`/`--profile-out` write JSONL — per-job documents in
//! submission order, then the merged batch document; the merged profile
//! passes `sim_prof --check` exactly like a single-lane one.

use bench::*;
use facile::batch::{run_batch, BatchConfig, BatchJob, BatchResult, ProfileSource, Sections};
use facile::SimOptions;
use std::fmt::Write as _;
use std::sync::Arc;

fn main() {
    let threads = arg_f64("--threads", 0.0).max(0.0) as usize;
    let scale = arg_f64("--scale", 0.1);
    let filter = arg_str("--filter");
    let compare = std::env::args().any(|a| a == "--compare");
    let json_out = arg_str("--json-out");
    let metrics_out = arg_str("--metrics-out");
    let profile_out = arg_str("--profile-out");
    let which = FacileSim::from_arg();

    let (src, file) = facile_source(which);
    let step = compile_facile(which);
    let config = BatchConfig {
        threads,
        sections: Sections {
            metrics: metrics_out.is_some(),
            profile: profile_out.as_ref().map(|_| {
                Arc::new(ProfileSource {
                    file: file.to_owned(),
                    src,
                })
            }),
            ..Sections::default()
        },
        progress: None,
        warm: None,
    };

    let jobs = build_jobs(which, scale, filter.as_deref());
    if jobs.is_empty() {
        eprintln!("sim_batch: no workload matches the filter");
        std::process::exit(1);
    }
    let n = jobs.len();
    println!(
        "batch benchmark: facile {which:?} +memo, {n} jobs, workload scale {scale}"
    );
    let result = run_batch(step.clone(), jobs, &config).expect("batch runs");

    println!(
        "{:<14} {:>12} {:>10} {:>10} {:>9}",
        "benchmark", "insns", "steps", "steps/s", "ff%"
    );
    for j in &result.jobs {
        println!(
            "{:<14} {:>12} {:>10} {:>10} {:>9.3}",
            j.label,
            j.metrics.sim.insns,
            j.steps,
            fmt_rate(j.steps as f64 / (j.wall_ns.max(1) as f64 / 1e9)),
            100.0 * fast_fraction(&j.metrics.sim),
        );
    }
    let aggregate = result.aggregate_steps_per_sec();
    println!(
        "\naggregate: {} steps/s, {n} jobs on {} threads, {:.3} s wall",
        fmt_rate(aggregate),
        result.threads,
        result.wall_ns as f64 / 1e9
    );

    let serial = compare.then(|| {
        let jobs = build_jobs(which, scale, filter.as_deref());
        let serial_config = BatchConfig {
            threads: 1,
            sections: Sections {
                metrics: config.sections.metrics,
                ..Sections::default()
            },
            progress: None,
            warm: None,
        };
        let r = run_batch(step.clone(), jobs, &serial_config).expect("serial batch runs");
        let rate = r.aggregate_steps_per_sec();
        println!(
            "serial:    {} steps/s on 1 thread, {:.3} s wall  (batch speedup {:.2}x)",
            fmt_rate(rate),
            r.wall_ns as f64 / 1e9,
            aggregate / rate.max(1e-9)
        );
        r
    });

    if let Some(path) = &metrics_out {
        let mut text = String::new();
        for j in &result.jobs {
            text.push_str(&j.metrics.to_json());
            text.push('\n');
        }
        text.push_str(&result.merged_metrics.to_json());
        text.push('\n');
        write_or_die(path, &text);
    }
    if let Some(path) = &profile_out {
        let mut text = String::new();
        for j in &result.jobs {
            if let Some(p) = &j.profile {
                text.push_str(&p.to_json());
                text.push('\n');
            }
        }
        if let Some(p) = &result.merged_profile {
            text.push_str(&p.to_json());
            text.push('\n');
        }
        write_or_die(path, &text);
    }
    if let Some(path) = &json_out {
        let sim_name = format!("{}+memo", which.name());
        write_or_die(path, &render_json(&sim_name, scale, &result, serial.as_ref()));
    }
}

/// One job per (filtered) Figure 11 workload.
fn build_jobs(which: FacileSim, scale: f64, filter: Option<&str>) -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    for w in facile_workloads::suite() {
        if let Some(f) = filter {
            if !w.name.contains(f) {
                continue;
            }
        }
        jobs.push(which.job(w.name, workload_image(&w, scale), SimOptions::default()));
    }
    jobs
}

/// Fast-forwarded instruction fraction from a snapshot.
fn fast_fraction(s: &facile_obs::SimStatsSnapshot) -> f64 {
    s.fast_insns as f64 / (s.insns.max(1)) as f64
}

fn write_or_die(path: &str, body: &str) {
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn render_json(
    sim_name: &str,
    scale: f64,
    result: &BatchResult,
    serial: Option<&BatchResult>,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"facile-bench/v1\",\"bench\":\"sim_batch\",\"sim\":\"{sim_name}\",\"scale\":{scale},\"threads\":{}",
        result.threads
    );
    let _ = write!(s, ",\"jobs\":[");
    for (i, j) in result.jobs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"insns\":{},\"steps\":{},\"wall_ns\":{},\"steps_per_sec\":{:.1}}}",
            j.label,
            j.metrics.sim.insns,
            j.steps,
            j.wall_ns,
            j.steps as f64 / (j.wall_ns.max(1) as f64 / 1e9),
        );
    }
    let _ = write!(s, "]");
    let _ = write!(
        s,
        ",\"batch_wall_ns\":{},\"aggregate_steps_per_sec\":{:.1}",
        result.wall_ns,
        result.aggregate_steps_per_sec()
    );
    if let Some(ser) = serial {
        let _ = write!(
            s,
            ",\"serial_wall_ns\":{},\"serial_steps_per_sec\":{:.1},\"batch_speedup\":{:.3}",
            ser.wall_ns,
            ser.aggregate_steps_per_sec(),
            result.aggregate_steps_per_sec() / ser.aggregate_steps_per_sec().max(1e-9)
        );
    }
    s.push_str("}\n");
    s
}
