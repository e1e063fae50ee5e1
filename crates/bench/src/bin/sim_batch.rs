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
//!             [--compare] [--json-out PATH] [--obs-out PATH] [--obs SECTIONS]
//!
//! Defaults: auto thread count, scale 0.1, all 18 workloads, ooo.
//! `--obs-out` writes JSONL — per-job documents in submission order,
//! then the merged batch document, which `sim_obs --check` refolds from
//! the lanes and gates exactly like a single-lane one.

use bench::*;
use facile::batch::{run_batch, BatchConfig, BatchJob, BatchResult, Sections};
use facile::SimOptions;
use std::fmt::Write as _;

const CLI: Cli = Cli {
    usage: "usage: sim_batch [--threads K] [--scale F] [--filter NAME] [--sim ooo|inorder|functional] [--compare] [--json-out PATH] [--obs-out PATH] [--obs SECTIONS]",
    values: &["--threads", "--scale", "--filter", "--sim", "--json-out", "--obs-out", "--obs"],
    switches: &["--compare"],
    files: false,
};

fn main() {
    let args = CLI.parse();
    let threads = args.get("--threads", 0usize);
    let scale = args.get("--scale", 0.1);
    let filter = args.str("--filter");
    let compare = args.on("--compare");
    let json_out = args.str("--json-out");
    let which = FacileSim::from_args(&args);
    let mut sink = DocSink::new(&args, "metrics");

    let step = compile_facile(which);
    let config = BatchConfig {
        threads,
        sections: sink.sections(which),
        progress: None,
        warm: None,
    };

    let jobs = build_jobs(which, scale, filter);
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
            j.doc.label,
            j.doc.sim.insns,
            j.steps,
            fmt_rate(j.steps as f64 / (j.doc.wall_ns.max(1) as f64 / 1e9)),
            100.0 * j.doc.sim.fast_forwarded_fraction(),
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
        let jobs = build_jobs(which, scale, filter);
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

    for j in &result.jobs {
        sink.push(&j.doc);
    }
    sink.push(&result.merged);
    sink.finish();
    if let Some(path) = json_out {
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
            j.doc.label,
            j.doc.sim.insns,
            j.steps,
            j.doc.wall_ns,
            j.steps as f64 / (j.doc.wall_ns.max(1) as f64 / 1e9),
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
