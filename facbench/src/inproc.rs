//! The in-process workloads, `cold-int` and `fp-replay`: every program
//! runs cold, one simulation at a time, interleaved program by program
//! with SimpleScalar on the same image.

use crate::alloc;
use crate::layers::{slow_ns_per_step, snapshot_probe, Counts, Layers};
use crate::programs::{self, check, Program, Tally, MAX_INSNS};
use crate::report::{Metric, Obj};
use crate::serve;
use crate::sim;
use crate::stats::{geomean, median, percentile};
use crate::tracer::Tracer;
use crate::{Ctx, Outcome, SETUP_PER_PASS};
use facile::{CompiledStep, SimOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An in-process workload: suite programs and the scale they run at.
pub struct Spec {
    pub name: &'static str,
    pub programs: &'static [&'static str],
    pub scale: f64,
}

/// Recording-heavy: at this scale about 40% of steps run on the slow,
/// recording path, at about 10 allocations per step. A pass, with its
/// SimpleScalar runs, takes about 5 s, so a 25 s run times each
/// program five times or more.
pub const COLD_INT: Spec = Spec {
    name: "cold-int",
    programs: &["099.go", "126.gcc", "132.ijpeg", "134.perl", "147.vortex"],
    scale: 0.05,
};

/// Replay-heavy: at this scale warm-up (slow steps) is 0.5% of steps,
/// so replay, supertraces and external calls do the work. At half the
/// scale the programs' memory and Facile-to-SimpleScalar ratio swing
/// far more from seed to seed.
pub const FP_REPLAY: Spec = Spec {
    name: "fp-replay",
    programs: &[
        "101.tomcatv",
        "102.swim",
        "103.su2cor",
        "104.hydro2d",
        "107.mgrid",
        "110.applu",
        "125.turb3d",
        "141.apsi",
        "145.fpppp",
        "146.wave5",
    ],
    scale: 0.5,
};

/// Host time of each SimpleScalar timing, at least.
const SS_MIN_NS: f64 = 60e6;

/// Passes run even when they outlast the measuring window, so every
/// median rests on at least this many samples (and a traced run has
/// both traced and untraced passes).
const MIN_PASSES: usize = 3;

fn programs(spec: &Spec, seed: u64) -> Result<Vec<Program>, String> {
    spec.programs
        .iter()
        .map(|b| programs::program(b, &seed.to_string(), spec.scale))
        .collect()
}

/// Set-up of a pass, timed: compile, then assemble and construct every
/// simulation. Appends its host time in seconds to `times`.
fn setup(
    programs: &[Program],
    t: &mut Tracer,
    times: &mut Vec<f64>,
) -> Result<Arc<CompiledStep>, String> {
    let t0 = Instant::now();
    let step = if t.enabled() {
        sim::compile_staged(t)?
    } else {
        sim::compile()?
    };
    for p in programs {
        let image = t.span("facile-isa.assemble", || programs::assemble(&p.asm))?;
        t.span("facile-vm.new", || {
            sim::construct(&step, &image, SimOptions::default())
        })?;
    }
    times.push(t0.elapsed().as_secs_f64());
    Ok(step)
}

/// Host times of one Facile job, ns.
struct Job {
    /// Assemble, construct and run.
    job: f64,
    /// The run alone.
    run: f64,
    /// Heap allocations the run made, when counting is on.
    allocs: u64,
}

/// One Facile job: assemble, construct and run `p` cold, then check
/// its result (outside the timed section) and add its counters.
fn facile_job(
    step: &Arc<CompiledStep>,
    p: &Program,
    t: &mut Tracer,
    counts: &mut Counts,
    tally: &mut Tally,
) -> Result<Job, String> {
    let t0 = Instant::now();
    let image = t.span("facile-isa.assemble", || programs::assemble(&p.asm))?;
    let mut s = t.span("facile-vm.new", || {
        sim::construct(step, &image, SimOptions::default())
    })?;
    let a0 = alloc::allocs();
    let t1 = Instant::now();
    t.span("facile-vm.run", || s.run_steps(MAX_INSNS));
    let t2 = Instant::now();
    let allocs = alloc::allocs() - a0;
    tally.record(&p.name, check(&sim::observed(&s), &p.expect));
    counts.add(&s);
    Ok(Job {
        job: (t2 - t0).as_nanos() as f64,
        run: (t2 - t1).as_nanos() as f64,
        allocs,
    })
}

/// [`facile_job`] with spans and allocation counting on.
fn traced_job(
    step: &Arc<CompiledStep>,
    p: &Program,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<Job, String> {
    t.set_enabled(true);
    alloc::set_counting(true);
    let j = facile_job(step, p, t, &mut Counts::default(), tally);
    alloc::set_counting(false);
    t.set_enabled(false);
    j
}

/// Runs the workload once for the peak-RSS child.
pub fn rss_child(spec: &Spec, seed: u64) -> Result<(), String> {
    let programs = programs(spec, seed)?;
    let step = sim::compile()?;
    let mut tally = Tally::default();
    for p in &programs {
        facile_job(
            &step,
            p,
            &mut Tracer::new(false),
            &mut Counts::default(),
            &mut tally,
        )?;
    }
    Ok(())
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let programs = programs(spec, ctx.seed)?;
    let n = programs.len();
    let mut tally = Tally::default();
    let rss = sim::peak_rss_of_child(&[
        "--workload".to_owned(),
        spec.name.to_owned(),
        "--seed".to_owned(),
        ctx.seed.to_string(),
    ])?;

    let mut t = Tracer::new(ctx.trace);
    let mut setup_s = Vec::new();
    let step = setup(&programs, &mut t, &mut setup_s)?;

    let (mut run_ns, mut ss_ns) = (vec![vec![]; n], vec![vec![]; n]);
    // Σ untraced Facile run wall of each pass, and every untraced job's
    // time in ms.
    let (mut pass_wall, mut job_ms) = (Vec::new(), Vec::new());
    // Traced over untraced run wall of each program, paired.
    let mut overhead = Vec::new();
    let mut first: Option<Counts> = None;
    let mut allocs = 0;
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    let mut pass = 0;
    t.set_enabled(false);
    while pass < MIN_PASSES || Instant::now() < deadline {
        // Set-up repeats at the start of every pass, so its median
        // spans the window's host phases.
        t.set_enabled(ctx.trace);
        for _ in 0..SETUP_PER_PASS {
            setup(&programs, &mut t, &mut setup_s)?;
        }
        t.set_enabled(false);
        let mut counts = Counts::default();
        let mut wall = 0.0;
        // Alternate which simulator goes first so neither always runs
        // in the other's wake.
        let flip = pass % 2 == 1;
        for (i, p) in programs.iter().enumerate() {
            if flip {
                ss_ns[i].push(sim::simplescalar_ns(p, SS_MIN_NS, &mut tally));
            }
            // A traced run also runs each program traced, paired with
            // the untraced run; their ratio is the tracing overhead.
            let mut traced = None;
            if ctx.trace && flip {
                traced = Some(traced_job(&step, p, &mut t, &mut tally)?);
            }
            let j = facile_job(&step, p, &mut t, &mut counts, &mut tally)?;
            if ctx.trace && !flip {
                traced = Some(traced_job(&step, p, &mut t, &mut tally)?);
            }
            if let Some(tj) = traced {
                overhead.push(tj.run / j.run);
                allocs += tj.allocs;
            }
            if !flip {
                ss_ns[i].push(sim::simplescalar_ns(p, SS_MIN_NS, &mut tally));
            }
            run_ns[i].push(j.run);
            wall += j.run;
            job_ms.push(j.job / 1e6);
        }
        pass_wall.push(wall);
        match &first {
            None => first = Some(counts),
            Some(c) => tally.record(
                "deterministic counts",
                (*c == counts)
                    .then_some(())
                    .ok_or_else(|| "counts differ between passes".to_owned()),
            ),
        }
        pass += 1;
    }
    t.set_enabled(ctx.trace);
    let counts = first.ok_or("no passes")?;

    let med =
        |v: &[Vec<f64>]| -> Vec<f64> { v.iter().map(|x| median(x).unwrap_or(f64::NAN)).collect() };
    let insns: f64 = programs.iter().map(|p| p.expect.insns as f64).sum();
    let ss_ips = insns / med(&ss_ns).iter().sum::<f64>() * 1e9;
    // A job, for the job metrics, is one program assembled, constructed
    // and run, as a serve job is.
    let p50 = percentile(&job_ms, 50.0).ok_or("no passes")?;
    let p90 = percentile(&job_ms, 90.0).ok_or("no passes")?;

    let mut record = Obj::default();
    record
        .str("workload", spec.name)
        .int("seed", ctx.seed)
        .raw("programs", &crate::programs_json(&programs))
        .int("passes", pass as u64)
        .raw("job_p50_ms", &p50.to_json())
        .raw("job_p90_ms", &p90.to_json())
        .raw("counts", &counts.to_json())
        .num("simplescalar.ips", ss_ips);

    let metrics = if ctx.trace {
        // The serve layer on this workload's programs: one client, one
        // job per program, cold.
        let (server, mut clients) = serve::start(&step, None, 1)?;
        let results = serve::drive(&mut clients, &[(0..n).collect()], &mut [0], &programs, None)?;
        drop(clients);
        let counters = serve::stop(server);
        for r in &results {
            serve::check_frame(r, &programs, &mut tally);
        }
        let serve_overhead: Vec<f64> = results
            .iter()
            .map(|r| (r.latency_ns as f64 - serve::wall_ns(r)) / 1e6)
            .collect();
        let layers = Layers {
            slow_ns_per_step: slow_ns_per_step(&step, &programs[0])?,
            snapshot: snapshot_probe(&step, &programs, None, &mut t)?,
            pass_wall_s: median(&pass_wall).unwrap_or(f64::NAN) / 1e9,
            allocs_per_step: allocs as f64 / (pass as u64 * counts.steps()).max(1) as f64,
            peak_rss_mb: rss,
            serve_overhead_ms: median(&serve_overhead).unwrap_or(f64::NAN),
            queue_peak: counters.queue_peak,
            rejected: counters.rejected,
            ss_ips,
            trace_overhead: median(&overhead).unwrap_or(f64::NAN),
            counts,
            tracer: t,
        };
        crate::write_spans(&layers.tracer, spec.name, ctx.seed);
        layers.metrics()
    } else {
        let run = med(&run_ns);
        let ratios: Vec<f64> = (0..n)
            .map(|i| {
                let r: Vec<f64> = ss_ns[i]
                    .iter()
                    .zip(&run_ns[i])
                    .map(|(s, f)| s / f)
                    .collect();
                median(&r).unwrap_or(f64::NAN)
            })
            .collect();
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("sim_ips", insns / run.iter().sum::<f64>() * 1e9, "insn/s"),
            m(
                "ss_ratio",
                geomean(&ratios, &vec![1.0; n]).unwrap_or(f64::NAN),
                "ratio",
            ),
            m("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s"),
            m("peak_rss_mb", rss, "MB"),
            m(
                "jobs_per_s",
                job_ms.len() as f64 / job_ms.iter().sum::<f64>() * 1e3,
                "1/s",
            ),
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
