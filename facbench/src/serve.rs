//! The `serve-warm` workload, and the closed-loop client loop it
//! shares with the serve probe of the in-process workloads.
//!
//! An in-process `Server` with one worker is warm-started from one
//! integer program's snapshot. Two `ServeClient` connections run closed
//! loop (each waits for its reply before sending the next job, as a
//! design-space-exploration caller does) over a seeded mix: mostly warm
//! jobs of the snapshot's program, a minority of cold jobs of small
//! programs that share the worker.
//!
//! The seed draws the cold programs and the order of the job stream,
//! not the warm program: one warm program's replay speed moves by ±15%
//! from seed to seed, which would swamp the serving layers this
//! workload measures. The seeded programs of `cold-int` and `fp-replay`
//! cover program-to-program variation.

use crate::alloc;
use crate::layers::{slow_ns_per_step, snapshot_probe, Counts, Layers};
use crate::programs::{self, check, Observed, Program, Tally, MAX_INSNS};
use crate::report::{Metric, Obj};
use crate::sim;
use crate::stats::{geomean, median, percentile};
use crate::tracer::Tracer;
use crate::{Ctx, Outcome, SETUP_PER_PASS};
use facile::serve::{sim_request, ServeClient, ServeConfig, Server};
use facile::{CompiledStep, HaltReason, SimOptions};
use facile_obs::json::Value;
use facile_obs::ServeCounters;
use std::sync::Arc;
use std::time::Instant;

/// The warm program, the same for every seed: its snapshot is what
/// the daemon starts from.
const WARM: (&str, &str, f64) = ("099.go", "serve", 0.02);
/// The cold programs mixed in.
const COLD: [&str; 2] = ["130.li", "129.compress"];
const COLD_SCALE: f64 = 0.01;
/// Segments of the serving window. Each restarts the daemon from the
/// snapshot and is bracketed by SimpleScalar runs.
const SEGMENTS: usize = 4;
/// One pass of a segment's mix: this many warm jobs and each of the
/// segment's seeded variants of each cold program once, in a seeded
/// order. Each client walks the list from its own offset. A small
/// program's cold cost swings with its seed (2× between seeds for
/// compress), so the cold tail averages over the variants of all
/// segments.
const MIX_WARM: usize = 12;
const COLD_VARIANTS: usize = 2;
/// Host time of each SimpleScalar timing of the warm program and of a
/// cold one. The warm program carries most of the jobs, and so most of
/// the weight of `ss_ratio` and of the recorded canary.
const SS_MIN_NS: (f64, f64) = (200e6, 30e6);
/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// One answered job.
pub struct JobResult {
    /// Index of the program in the workload's program list.
    pub prog: usize,
    /// Client-observed latency.
    pub latency_ns: u64,
    /// The result or error frame.
    pub frame: Value,
}

/// Drives one closed-loop client per list, each from its cursor on.
/// With a `deadline`, clients cycle through their lists until it
/// passes; without one, each finishes its list once.
pub fn drive(
    clients: &mut [ServeClient],
    lists: &[Vec<usize>],
    cursors: &mut [usize],
    programs: &[Program],
    deadline: Option<Instant>,
) -> Result<Vec<JobResult>, String> {
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .zip(cursors.iter_mut())
            .map(|((client, list), cursor)| {
                s.spawn(move || -> Result<Vec<JobResult>, String> {
                    let mut done = Vec::new();
                    loop {
                        let finished = match deadline {
                            Some(d) => Instant::now() >= d,
                            None => *cursor >= list.len(),
                        };
                        if finished {
                            break;
                        }
                        let prog = list[*cursor % list.len()];
                        let body = sim_request(
                            *cursor as u64,
                            &programs[prog].name,
                            &programs[prog].asm,
                            &[],
                            false,
                        );
                        *cursor += 1;
                        let t = Instant::now();
                        let frame = client.submit_and_wait(&body).map_err(|e| e.to_string())?;
                        done.push(JobResult {
                            prog,
                            latency_ns: t.elapsed().as_nanos() as u64,
                            frame,
                        });
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(per_client.into_iter().flatten().collect())
}

/// Checks one answered job against its program's references.
pub fn check_frame(r: &JobResult, programs: &[Program], tally: &mut Tally) {
    let p = &programs[r.prog];
    let f = &r.frame;
    let verdict = (|| -> Result<(), String> {
        if f.get("op").and_then(Value::as_str) != Some("result") {
            return Err(format!(
                "no result: {:?}",
                f.get("error").and_then(Value::as_str)
            ));
        }
        let num = |k: &str| f.get(k).and_then(Value::as_u64).ok_or(format!("no `{k}`"));
        let digest = f
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("no digest")?;
        let out = f
            .get("out")
            .and_then(Value::as_arr)
            .ok_or("no out")?
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad out value")
            })
            .collect::<Result<Vec<i64>, _>>()?;
        let halt = (f.get("halt").and_then(Value::as_str) == Some("Explicit"))
            .then_some(HaltReason::Explicit);
        let o = Observed {
            halt,
            insns: num("insns")?,
            cycles: num("cycles")?,
            digest,
            out: &out,
        };
        check(&o, &p.expect)
    })();
    tally.record(&format!("serve job {}", p.name), verdict);
}

/// Server-side simulation wall of a result frame, ns.
pub fn wall_ns(r: &JobResult) -> f64 {
    r.frame
        .get("wall_ns")
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Action-cache misses of each program's first answered job: 0 for a
/// job that ran entirely warm. They repeat exactly for a given seed.
fn job_misses(results: &[JobResult], programs: usize) -> Vec<u64> {
    (0..programs)
        .map(|k| {
            results
                .iter()
                .find(|r| r.prog == k)
                .and_then(|r| r.frame.get("misses").and_then(Value::as_u64))
                .unwrap_or(0)
        })
        .collect()
}

/// Starts a one-worker daemon for `step` and connects the clients.
pub fn start(
    step: &Arc<CompiledStep>,
    warm: Option<Arc<facile::snapshot::LoadedSnapshot>>,
    clients: usize,
) -> Result<(Server, Vec<ServeClient>), String> {
    let config = ServeConfig {
        threads: 1,
        arch: "ooo".to_owned(),
        warm,
        ..ServeConfig::default()
    };
    let server = Server::start(step.clone(), config).map_err(|e| e.to_string())?;
    let conns = (0..clients)
        .map(|_| ServeClient::connect(server.addr()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok((server, conns))
}

/// Drains the daemon and returns its lifetime counters.
pub fn stop(server: Server) -> ServeCounters {
    server.shutdown_trigger().trigger();
    server.join()
}

/// One segment of the serving window: its programs and its mix.
struct Segment {
    /// The warm program and the segment's cold variants.
    programs: Vec<usize>,
    /// Each client's job list (program indices).
    lists: Vec<Vec<usize>>,
}

/// The workload's programs (the warm one first), its segments and the
/// warm snapshot.
struct Inputs {
    programs: Vec<Program>,
    segments: Vec<Segment>,
    snapshot: Vec<u8>,
}

/// Generates the programs and the seeded mixes; with `record`, also
/// runs the warm program cold once and saves its action cache.
fn inputs(seed: u64, record: bool) -> Result<Inputs, String> {
    let (base, tag, scale) = WARM;
    let mut programs = vec![programs::program(base, tag, scale)?];
    let mut rng = facile_runtime::Rng::new(seed ^ 0x5e7e_5e7e);
    let mut segments = Vec::new();
    for seg in 0..SEGMENTS {
        let mut mix = vec![0; MIX_WARM];
        let first_cold = programs.len();
        for base in COLD {
            for v in 0..COLD_VARIANTS {
                let tag = format!("{seed}.{}", seg * COLD_VARIANTS + v);
                mix.push(programs.len());
                programs.push(programs::program(base, &tag, COLD_SCALE)?);
            }
        }
        let segment_programs = std::iter::once(0)
            .chain(first_cold..programs.len())
            .collect();
        for i in (1..mix.len()).rev() {
            mix.swap(i, rng.index(i + 1));
        }
        let lists = (0..CLIENTS)
            .map(|c| {
                let off = c * mix.len() / CLIENTS;
                mix[off..].iter().chain(&mix[..off]).copied().collect()
            })
            .collect();
        segments.push(Segment {
            programs: segment_programs,
            lists,
        });
    }
    let mut snapshot = Vec::new();
    if record {
        let step = sim::compile()?;
        let mut cold = sim::construct(&step, &programs[0].image, SimOptions::default())?;
        cold.run_steps(MAX_INSNS);
        snapshot = facile::snapshot::save(&cold);
    }
    Ok(Inputs {
        programs,
        segments,
        snapshot,
    })
}

/// Everything before the first simulated step, timed: compile,
/// snapshot parse, validate and install against the warm program's
/// image, and server start with connected clients. Appends its host
/// time in seconds to `times`. A snapshot that does not validate is an
/// error, so a silent cold fallback is never measured as warm.
fn setup(
    inp: &Inputs,
    t: &mut Tracer,
    times: &mut Vec<f64>,
) -> Result<(Arc<CompiledStep>, Server, Vec<ServeClient>), String> {
    let t0 = Instant::now();
    let step = if t.enabled() {
        sim::compile_staged(t)?
    } else {
        sim::compile()?
    };
    let loaded = facile::snapshot::parse(&inp.snapshot)
        .map_err(|e| format!("warm snapshot does not parse: {e:?}"))?;
    let image = t.span("facile-isa.assemble", || {
        programs::assemble(&inp.programs[0].asm)
    })?;
    let mut probe = t.span("facile-vm.new", || {
        sim::construct(&step, &image, SimOptions::default())
    })?;
    loaded
        .validate(&probe)
        .map_err(|e| format!("warm snapshot does not validate against its image: {e:?}"))?;
    probe.warm_start(loaded.image()).map_err(str::to_owned)?;
    let (server, clients) = start(&step, Some(Arc::new(loaded)), CLIENTS)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok((step, server, clients))
}

/// The first segment's mix once: client `c`'s list starts at the c-th
/// share of the mix, so the first shares of all lists cover it exactly
/// once. These are the jobs of the peak-RSS child and of the traced
/// replicas.
fn mix_start(inp: &Inputs) -> Vec<Vec<usize>> {
    inp.segments[0]
        .lists
        .iter()
        .map(|l| l[..l.len() / CLIENTS].to_vec())
        .collect()
}

/// Runs the workload once for the peak-RSS child: setup from the
/// parent's snapshot file, then the first segment's mix once.
pub fn rss_child(seed: u64, snapshot: &str) -> Result<(), String> {
    let mut inp = inputs(seed, false)?;
    inp.snapshot = std::fs::read(snapshot).map_err(|e| format!("{snapshot}: {e}"))?;
    let (_, server, mut clients) = setup(&inp, &mut Tracer::new(false), &mut Vec::new())?;
    drive(
        &mut clients,
        &mix_start(&inp),
        &mut [0; CLIENTS],
        &inp.programs,
        None,
    )?;
    drop(clients);
    stop(server);
    Ok(())
}

/// Peak RSS of a fresh process serving the mix once.
fn child_rss(seed: u64, snapshot: &[u8]) -> Result<f64, String> {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("serve-warm-{seed}-{}.snap", std::process::id()));
    std::fs::write(&path, snapshot).map_err(|e| format!("{}: {e}", path.display()))?;
    let rss = sim::peak_rss_of_child(&[
        "--workload".to_owned(),
        "serve-warm".to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "--snapshot".to_owned(),
        path.display().to_string(),
    ]);
    let _ = std::fs::remove_file(&path);
    rss
}

/// One in-process pass over the start of the mix, exactly as the
/// worker runs it: every job assembles its program, constructs it,
/// validates the snapshot against it and starts warm only when it
/// matches. Returns the counts, the Σ job wall in seconds and the
/// heap allocations of the runs, when counting is on.
fn replica_pass(
    step: &Arc<CompiledStep>,
    inp: &Inputs,
    loaded: &facile::snapshot::LoadedSnapshot,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Counts, f64, u64), String> {
    let mut counts = Counts::default();
    let (mut wall, mut allocs) = (0.0, 0);
    for &k in mix_start(inp).iter().flatten() {
        let p = &inp.programs[k];
        let t0 = Instant::now();
        let image = t.span("facile-isa.assemble", || programs::assemble(&p.asm))?;
        let mut s = t.span("facile-vm.new", || {
            sim::construct(step, &image, SimOptions::default())
        })?;
        t.span("facile-vm.warm_start", || -> Result<(), String> {
            if loaded.validate(&s).is_ok() {
                s.warm_start(loaded.image()).map_err(str::to_owned)?;
            }
            Ok(())
        })?;
        let a0 = alloc::allocs();
        t.span("facile-vm.run", || s.run_steps(MAX_INSNS));
        allocs += alloc::allocs() - a0;
        wall += t0.elapsed().as_secs_f64();
        tally.record(&p.name, check(&sim::observed(&s), &p.expect));
        counts.add(&s);
    }
    Ok((counts, wall, allocs))
}

/// SimpleScalar time of each of `programs`, by program index.
fn ss_round(inp: &Inputs, programs: &[usize], tally: &mut Tally) -> Vec<(usize, f64)> {
    programs
        .iter()
        .map(|&k| {
            let min_ns = if k == 0 { SS_MIN_NS.0 } else { SS_MIN_NS.1 };
            (k, sim::simplescalar_ns(&inp.programs[k], min_ns, tally))
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let inp = inputs(ctx.seed, true)?;
    let n = inp.programs.len();
    let mut tally = Tally::default();
    let rss = child_rss(ctx.seed, &inp.snapshot)?;

    let mut t = Tracer::new(ctx.trace);
    let mut setup_s = Vec::new();
    let mut step = None;
    let mut counters = Vec::new();
    let mut results: Vec<JobResult> = Vec::new();
    // SimpleScalar times of each program, and each job's paired ratio.
    let mut ss_ns = vec![Vec::new(); n];
    let mut paired = vec![Vec::new(); n];
    let mut window_s = 0.0;
    let segment = std::time::Duration::from_secs_f64(ctx.seconds as f64 / SEGMENTS as f64);
    for seg in &inp.segments {
        // Set-up repeats before every segment (each repetition's server
        // is stopped at once), so its median spans the window's host
        // phases.
        for _ in 0..SETUP_PER_PASS {
            let (_, server, clients) = setup(&inp, &mut t, &mut setup_s)?;
            drop(clients);
            stop(server);
        }
        // SimpleScalar runs on the segment's programs just before and
        // just after it, so every job pairs with SimpleScalar times of
        // the same host phase.
        let before = ss_round(&inp, &seg.programs, &mut tally);
        let (s, server, mut clients) = setup(&inp, &mut t, &mut setup_s)?;
        let t0 = Instant::now();
        let jobs = drive(
            &mut clients,
            &seg.lists,
            &mut [0; CLIENTS],
            &inp.programs,
            Some(t0 + segment),
        )?;
        window_s += t0.elapsed().as_secs_f64();
        drop(clients);
        counters.push(stop(server));
        let after = ss_round(&inp, &seg.programs, &mut tally);
        for (&(k, b), &(_, a)) in before.iter().zip(&after) {
            ss_ns[k].extend([b, a]);
            for r in jobs.iter().filter(|r| r.prog == k) {
                paired[k].push((a + b) / 2.0 / wall_ns(r));
            }
        }
        results.extend(jobs);
        step = Some(s);
    }
    let step = step.ok_or("no segments")?;
    for r in &results {
        check_frame(r, &inp.programs, &mut tally);
    }

    let lat_ms: Vec<f64> = results.iter().map(|r| r.latency_ns as f64 / 1e6).collect();
    let p50 = percentile(&lat_ms, 50.0).ok_or("no jobs answered")?;
    let p90 = percentile(&lat_ms, 90.0).ok_or("no jobs answered")?;
    // Programs that answered jobs, weighted by how many: a cold
    // variant the window did not reach has no timing.
    let answered: Vec<usize> = (0..n).filter(|&k| !paired[k].is_empty()).collect();
    let weights: Vec<f64> = answered.iter().map(|&k| paired[k].len() as f64).collect();
    let med_wall: Vec<f64> = answered
        .iter()
        .map(|&k| {
            let w: Vec<f64> = results
                .iter()
                .filter(|r| r.prog == k)
                .map(wall_ns)
                .collect();
            median(&w).unwrap_or(f64::NAN)
        })
        .collect();
    let insns: Vec<f64> = answered
        .iter()
        .map(|&k| inp.programs[k].expect.insns as f64)
        .collect();
    let weighted = |per: &[f64]| per.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>();
    let sim_ips = weighted(&insns) / weighted(&med_wall) * 1e9;
    let ratios: Vec<f64> = answered
        .iter()
        .map(|&k| median(&paired[k]).unwrap_or(f64::NAN))
        .collect();
    let ss_med: Vec<f64> = answered
        .iter()
        .map(|&k| median(&ss_ns[k]).unwrap_or(f64::NAN))
        .collect();
    let ss_ips = weighted(&insns) / weighted(&ss_med) * 1e9;
    let queue_peak = counters.iter().map(|c| c.queue_peak).max().unwrap_or(0);
    let rejected = counters.iter().map(|c| c.rejected).sum();
    let json_list = |items: Vec<String>| format!("[{}]", items.join(","));

    let mut record = Obj::default();
    record
        .str("workload", "serve-warm")
        .int("seed", ctx.seed)
        .raw("programs", &crate::programs_json(&inp.programs))
        .num("window_s", window_s)
        .raw("job_p50_ms", &p50.to_json())
        .raw("job_p90_ms", &p90.to_json())
        .num("warm_wall_ms", med_wall[0] / 1e6)
        .int(
            "cold_jobs",
            results.iter().filter(|r| r.prog != 0).count() as u64,
        )
        .raw("job_misses", &format!("{:?}", job_misses(&results, n)))
        .int("snapshot_bytes", inp.snapshot.len() as u64)
        .raw(
            "serve",
            &json_list(counters.iter().map(ServeCounters::to_json).collect()),
        )
        .num("simplescalar.ips", ss_ips);

    let metrics = if ctx.trace {
        let overhead: Vec<f64> = results
            .iter()
            .map(|r| (r.latency_ns as f64 - wall_ns(r)) / 1e6)
            .collect();
        let loaded = facile::snapshot::parse(&inp.snapshot).map_err(|e| format!("{e:?}"))?;
        let mut walls = [Vec::new(), Vec::new()];
        let mut counts = Counts::default();
        let mut allocs = 0;
        for pass in 0..4 {
            // Traced passes record spans and count allocations, as the
            // in-process workloads' traced jobs do.
            let traced = pass % 2 == 1;
            t.set_enabled(traced);
            alloc::set_counting(traced);
            let (c, wall, a) = replica_pass(&step, &inp, &loaded, &mut t, &mut tally)?;
            alloc::set_counting(false);
            t.set_enabled(true);
            if traced {
                allocs = a;
                counts = c;
            }
            walls[usize::from(traced)].push(wall);
        }
        let untraced = median(&walls[0]).unwrap_or(f64::NAN);
        let layers = Layers {
            slow_ns_per_step: slow_ns_per_step(&step, &inp.programs[0])?,
            snapshot: snapshot_probe(&step, &inp.programs[..1], Some(&inp.snapshot), &mut t)?,
            pass_wall_s: untraced,
            allocs_per_step: allocs as f64 / counts.steps().max(1) as f64,
            peak_rss_mb: rss,
            serve_overhead_ms: median(&overhead).unwrap_or(f64::NAN),
            queue_peak,
            rejected,
            ss_ips,
            trace_overhead: median(&walls[1]).unwrap_or(f64::NAN) / untraced,
            counts,
            tracer: t,
        };
        record.raw("counts", &layers.counts.to_json());
        crate::write_spans(&layers.tracer, "serve-warm", ctx.seed);
        layers.metrics()
    } else {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("sim_ips", sim_ips, "insn/s"),
            m(
                "ss_ratio",
                geomean(&ratios, &weights).unwrap_or(f64::NAN),
                "ratio",
            ),
            m("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s"),
            m("peak_rss_mb", rss, "MB"),
            m("jobs_per_s", results.len() as f64 / window_s, "1/s"),
            m("job_p50_ms", p50.value, "ms"),
            m("job_p90_ms", p90.value, "ms"),
        ]
    };
    Ok(Outcome {
        tally,
        metrics,
        record,
    })
}
