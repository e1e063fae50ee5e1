//! Serve-throughput benchmark: the job daemon (`facile::serve`) under
//! concurrent clients.
//!
//! Each sweep row starts a fresh in-process daemon with `--threads`
//! workers, splits `--jobs` synthetic-suite jobs round-robin across `C`
//! client connections, and measures wall-clock service throughput
//! (jobs/s and simulated steps/s) as `C` sweeps over `--clients`. The
//! interesting curve: throughput should scale with workers until the
//! worker pool saturates, and adding clients past that point must not
//! collapse it (backpressure, not meltdown).
//!
//! With `--addr HOST:PORT` the rows run against an external daemon
//! (e.g. `facilec serve`) instead — worker count is then whatever the
//! daemon was started with. `--check-local` additionally runs every
//! job in-process through the batch driver and verifies the daemon's
//! memory digests and `out` traces match bit-for-bit; `--shutdown`
//! asks the external daemon to drain and exit afterwards.
//!
//! Usage:
//!   sim_serve [--clients 1,2,4,8] [--jobs N] [--threads K] [--scale F]
//!             [--sim ooo|inorder|functional] [--json-out PATH]
//!             [--addr HOST:PORT] [--check-local] [--shutdown]
//!
//! Defaults: clients 1,2,4,8, 24 jobs, auto workers, scale 0.02, ooo.

use bench::*;
use facile::batch::{run_batch, BatchConfig, BatchJob, Sections};
use facile::serve::{sim_request, ServeClient, ServeConfig, Server};
use facile::SimOptions;
use facile_obs::json::Value;
use std::fmt::Write as _;

const CLI: Cli = Cli {
    usage: "usage: sim_serve [--clients 1,2,4,8] [--jobs N] [--threads K] [--scale F] [--sim ooo|inorder|functional] [--json-out PATH] [--addr HOST:PORT] [--check-local] [--shutdown]",
    values: &["--clients", "--jobs", "--threads", "--scale", "--sim", "--json-out", "--addr"],
    switches: &["--check-local", "--shutdown"],
    files: false,
};

/// One job: the assembly text the daemon will assemble, plus the name
/// of the workload it came from.
struct ServeJob {
    name: &'static str,
    asm: String,
}

/// What one sweep row measured.
struct Row {
    clients: usize,
    wall_ns: u64,
    jobs: u64,
    steps: u64,
    insns: u64,
    rejected: u64,
    queue_peak: u64,
}

fn main() {
    let args = CLI.parse();
    let clients = parse_clients(args.str("--clients").unwrap_or("1,2,4,8"))
        .unwrap_or_else(|e| args.fail(&e));
    let jobs_total = args.get("--jobs", 24usize).max(1);
    let threads = args.get("--threads", 0usize);
    let scale = args.get("--scale", 0.02);
    let json_out = args.str("--json-out");
    let external = args.str("--addr");
    let check_local = args.on("--check-local");
    let shutdown = args.on("--shutdown");
    let which = FacileSim::from_args(&args);
    let arch = which.name();

    // Round-robin the synthetic suite until `jobs_total` jobs exist;
    // every row serves this same list, so rows are comparable.
    let suite = facile_workloads::suite();
    let jobs: Vec<ServeJob> = (0..jobs_total)
        .map(|i| {
            let w = &suite[i % suite.len()];
            ServeJob {
                name: w.name,
                asm: facile_workloads::generate(w, scale),
            }
        })
        .collect();

    // The local reference digests, when asked to cross-check.
    let local = check_local.then(|| run_local(which, &jobs, scale));

    println!(
        "serve benchmark: facile {arch} daemon, {jobs_total} jobs, workload scale {scale}{}",
        match &external {
            Some(a) => format!(", external daemon at {a}"),
            None => format!(", in-process ({} workers)", if threads == 0 { "auto".to_owned() } else { threads.to_string() }),
        }
    );
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>9} {:>9}",
        "clients", "wall", "jobs/s", "steps/s", "rejected", "queue^"
    );

    let mut rows = Vec::new();
    for &c in &clients {
        let row = match &external {
            Some(addr) => run_row(addr, c, &jobs, local.as_deref()),
            None => {
                let server = Server::start(
                    compile_facile(which),
                    ServeConfig {
                        threads,
                        queue_cap: jobs.len().max(8),
                        arch: arch.to_owned(),
                        ..ServeConfig::default()
                    },
                )
                .expect("daemon binds");
                let addr = server.addr().to_string();
                let mut row = run_row(&addr, c, &jobs, local.as_deref());
                server.shutdown_trigger().trigger();
                let counters = server.join();
                row.rejected = counters.rejected;
                row.queue_peak = counters.queue_peak;
                row
            }
        };
        println!(
            "{:>8} {:>9.3}s {:>10.1} {:>12} {:>9} {:>9}",
            row.clients,
            row.wall_ns as f64 / 1e9,
            row.jobs as f64 / (row.wall_ns.max(1) as f64 / 1e9),
            fmt_rate(row.steps as f64 / (row.wall_ns.max(1) as f64 / 1e9)),
            row.rejected,
            row.queue_peak,
        );
        rows.push(row);
    }
    if check_local {
        println!("check-local: every daemon digest and out trace matched the in-process run");
    }

    if let (Some(addr), true) = (&external, shutdown) {
        let mut c = ServeClient::connect(*addr).expect("connects for shutdown");
        let bye = c.request("{\"op\":\"shutdown\"}").expect("shutdown ack");
        assert_eq!(bye.get("op").and_then(Value::as_str), Some("shutdown"));
        println!("asked {addr} to drain and exit");
    }

    if let Some(path) = &json_out {
        write_or_die(path, &render_json(arch, scale, threads, jobs_total, &rows));
    }
}

/// Serves the whole job list once with `clients` concurrent
/// connections, round-robin, each connection submitting its share
/// sequentially (submit-wait, the latency-bound client shape).
fn run_row(addr: &str, clients: usize, jobs: &[ServeJob], local: Option<&[LocalRef]>) -> Row {
    let start = std::time::Instant::now();
    let totals: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("client connects");
                    let (mut steps, mut insns) = (0u64, 0u64);
                    for (id, job) in jobs.iter().enumerate().skip(ci).step_by(clients) {
                        let r = client
                            .submit_and_wait(&sim_request(
                                id as u64, job.name, &job.asm, &[], false,
                            ))
                            .expect("result frame");
                        assert_eq!(
                            r.get("op").and_then(Value::as_str),
                            Some("result"),
                            "job {id} ({}) failed: {r:?}",
                            job.name
                        );
                        steps += r.get("steps").and_then(Value::as_u64).unwrap_or(0);
                        insns += r.get("insns").and_then(Value::as_u64).unwrap_or(0);
                        if let Some(refs) = local {
                            check_against_local(id, job, &r, &refs[id]);
                        }
                    }
                    (steps, insns)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    Row {
        clients,
        wall_ns: start.elapsed().as_nanos() as u64,
        jobs: jobs.len() as u64,
        steps: totals.iter().map(|t| t.0).sum(),
        insns: totals.iter().map(|t| t.1).sum(),
        rejected: 0,
        queue_peak: 0,
    }
}

/// The in-process reference for `--check-local`.
struct LocalRef {
    digest: String,
    out: Vec<i64>,
}

fn run_local(which: FacileSim, jobs: &[ServeJob], scale: f64) -> Vec<LocalRef> {
    eprintln!("check-local: running the {} jobs in-process (scale {scale})", jobs.len());
    let batch_jobs: Vec<BatchJob> = jobs
        .iter()
        .map(|j| {
            let image =
                facile_isa::assemble_image(&j.asm, 0x1_0000, vec![]).expect("workload assembles");
            which.job(j.name, image, SimOptions::default())
        })
        .collect();
    // Only digests and `out` traces are compared: no documents wanted.
    let config = BatchConfig {
        sections: Sections::default(),
        ..BatchConfig::default()
    };
    let result = run_batch(compile_facile(which), batch_jobs, &config).expect("local batch runs");
    result
        .jobs
        .iter()
        .map(|j| LocalRef {
            digest: format!("{:016x}", j.digest),
            out: j.out.clone(),
        })
        .collect()
}

fn check_against_local(id: usize, job: &ServeJob, r: &Value, local: &LocalRef) {
    assert_eq!(
        r.get("digest").and_then(Value::as_str),
        Some(local.digest.as_str()),
        "job {id} ({}): daemon and in-process memory digests differ",
        job.name
    );
    let out: Vec<i64> = r
        .get("out")
        .and_then(Value::as_arr)
        .expect("out array")
        .iter()
        .map(|v| v.as_str().expect("out string").parse().expect("out value"))
        .collect();
    assert_eq!(out, local.out, "job {id} ({}): out traces differ", job.name);
}

fn parse_clients(spec: &str) -> Result<Vec<usize>, String> {
    let clients = spec
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().ok().filter(|&c: &usize| c > 0))
        .collect::<Option<Vec<usize>>>()
        .ok_or("--clients takes a comma list of counts >= 1")?;
    if clients.is_empty() {
        return Err("--clients lists at least one count".to_owned());
    }
    Ok(clients)
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

fn render_json(arch: &str, scale: f64, threads: usize, jobs: usize, rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"facile-bench/v1\",\"bench\":\"sim_serve\",\"sim\":\"{arch}+memo\",\
         \"scale\":{scale},\"threads\":{threads},\"jobs_per_row\":{jobs},\"rows\":["
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let secs = r.wall_ns.max(1) as f64 / 1e9;
        let _ = write!(
            s,
            "{{\"clients\":{},\"wall_ns\":{},\"jobs\":{},\"steps\":{},\"insns\":{},\
             \"jobs_per_sec\":{:.3},\"steps_per_sec\":{:.1},\"rejected\":{},\"queue_peak\":{}}}",
            r.clients,
            r.wall_ns,
            r.jobs,
            r.steps,
            r.insns,
            r.jobs as f64 / secs,
            r.steps as f64 / secs,
            r.rejected,
            r.queue_peak,
        );
    }
    s.push_str("]}\n");
    s
}
