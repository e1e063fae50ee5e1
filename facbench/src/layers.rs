//! Per-layer metrics of a traced run: the deterministic counts the
//! simulator keeps, and host cost per layer measured from outside.

use crate::programs::{Program, MAX_INSNS};
use crate::report::{Metric, Obj};
use crate::sim;
use crate::stats::median;
use crate::tracer::Tracer;
use facile::{CompiledStep, SimOptions, Simulation};
use std::sync::Arc;
use std::time::Instant;

/// Counters summed over the simulations of one pass. For a given seed
/// they repeat exactly from pass to pass and from run to run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub insns: u64,
    pub cycles: u64,
    pub fast_steps: u64,
    pub slow_steps: u64,
    pub fast_insns: u64,
    pub misses: u64,
    pub recoveries: u64,
    pub actions_replayed: u64,
    pub ext_calls: u64,
    pub trace_enters: u64,
    pub trace_bails: u64,
    pub trace_steps: u64,
    pub nodes_created: u64,
    pub entries_created: u64,
    pub clears: u64,
    pub evictions: u64,
    /// Largest modeled action-cache size of any one simulation: its
    /// live peak plus any frozen warm-start image.
    pub cache_peak_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, s: &Simulation) {
        let st = s.stats();
        let c = s.cache_stats();
        let t = s.trace_stats();
        self.insns += st.insns;
        self.cycles += st.cycles;
        self.fast_steps += st.fast_steps;
        self.slow_steps += st.slow_steps;
        self.fast_insns += st.fast_insns;
        self.misses += st.misses;
        self.recoveries += st.recoveries;
        self.actions_replayed += st.actions_replayed;
        self.ext_calls += st.ext_calls;
        self.trace_enters += t.enters;
        self.trace_bails += t.bails;
        self.trace_steps += t.steps;
        self.nodes_created += c.nodes_created;
        self.entries_created += c.entries_created;
        self.clears += c.clears;
        self.evictions += c.evictions;
        self.cache_peak_bytes = self.cache_peak_bytes.max(c.bytes_peak + c.bytes_frozen);
    }

    pub fn steps(&self) -> u64 {
        self.fast_steps + self.slow_steps
    }

    pub fn to_json(&self) -> String {
        let mut o = Obj::default();
        o.int("insns", self.insns)
            .int("cycles", self.cycles)
            .int("fast_steps", self.fast_steps)
            .int("slow_steps", self.slow_steps)
            .int("fast_insns", self.fast_insns)
            .int("misses", self.misses)
            .int("recoveries", self.recoveries)
            .int("actions_replayed", self.actions_replayed)
            .int("ext_calls", self.ext_calls)
            .int("trace_enters", self.trace_enters)
            .int("trace_bails", self.trace_bails)
            .int("trace_steps", self.trace_steps)
            .int("nodes_created", self.nodes_created)
            .int("entries_created", self.entries_created)
            .int("clears", self.clears)
            .int("evictions", self.evictions)
            .int("cache_peak_bytes", self.cache_peak_bytes);
        o.finish()
    }
}

/// Steps of the `memoize: false` probe: enough to average over a
/// program's loop body many times, short enough to cost well under a
/// second.
const SLOW_PROBE_STEPS: u64 = 30_000;

/// Repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 3;

/// Host nanoseconds per step of the slow engine alone (no recording),
/// from a `memoize: false` run of `p`.
pub fn slow_ns_per_step(step: &Arc<CompiledStep>, p: &Program) -> Result<f64, String> {
    let mut per_step = Vec::new();
    for _ in 0..PROBE_REPS {
        let options = SimOptions {
            memoize: false,
            ..SimOptions::default()
        };
        let mut s = sim::construct(step, &p.image, options)?;
        let t0 = Instant::now();
        s.run_steps(SLOW_PROBE_STEPS);
        let ns = t0.elapsed().as_nanos() as f64;
        per_step.push(ns / s.stats().slow_steps.max(1) as f64);
    }
    Ok(median(&per_step).unwrap_or(0.0))
}

/// Snapshot parse/install costs and warm replay speed of a workload's
/// programs.
pub struct SnapshotProbe {
    /// The largest snapshot.
    pub mb: f64,
    pub parse_ms: f64,
    pub install_ms: f64,
    /// Σ warm replay wall over Σ fast steps of every program.
    pub replay_ns_per_step: f64,
}

/// Records each program cold and saves its action cache, except that
/// `bytes` reuses a snapshot the caller already holds for the first;
/// then parses, installs and replays each warm. A single program is
/// probed [`PROBE_REPS`] times; several once each.
pub fn snapshot_probe(
    step: &Arc<CompiledStep>,
    programs: &[Program],
    bytes: Option<&[u8]>,
    t: &mut Tracer,
) -> Result<SnapshotProbe, String> {
    let reps = if programs.len() == 1 { PROBE_REPS } else { 1 };
    let (mut parse, mut install) = (Vec::new(), Vec::new());
    let (mut mb, mut replay_ns, mut fast_steps) = (0.0f64, 0.0, 0);
    for (i, p) in programs.iter().enumerate() {
        let owned;
        let bytes = match bytes.filter(|_| i == 0) {
            Some(b) => b,
            None => {
                let mut cold = sim::construct(step, &p.image, SimOptions::default())?;
                cold.run_steps(MAX_INSNS);
                owned = t.span("facile-vm.snapshot_save", || facile::snapshot::save(&cold));
                &owned
            }
        };
        mb = mb.max(bytes.len() as f64 / 1e6);
        for _ in 0..reps {
            let t0 = Instant::now();
            let loaded = t
                .span("facile-vm.snapshot_parse", || {
                    facile::snapshot::parse(bytes)
                })
                .map_err(|e| format!("{}: snapshot does not parse: {e:?}", p.name))?;
            parse.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut s = sim::construct(step, &p.image, SimOptions::default())?;
            let t0 = Instant::now();
            t.span("facile-vm.snapshot_install", || -> Result<(), String> {
                loaded
                    .validate(&s)
                    .map_err(|e| format!("{}: snapshot does not validate: {e:?}", p.name))?;
                s.warm_start(loaded.image()).map_err(str::to_owned)
            })?;
            install.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            t.span("facile-vm.replay", || s.run_steps(MAX_INSNS));
            replay_ns += t0.elapsed().as_nanos() as f64;
            fast_steps += s.stats().fast_steps;
        }
    }
    Ok(SnapshotProbe {
        mb,
        parse_ms: median(&parse).unwrap_or(0.0),
        install_ms: median(&install).unwrap_or(0.0),
        replay_ns_per_step: replay_ns / fast_steps.max(1) as f64,
    })
}

/// Everything a traced run reports, whatever the workload.
pub struct Layers {
    /// Spans of the compiler passes, assembly and construction.
    pub tracer: Tracer,
    pub counts: Counts,
    pub slow_ns_per_step: f64,
    pub snapshot: SnapshotProbe,
    /// Untraced Facile wall of one pass, seconds.
    pub pass_wall_s: f64,
    pub allocs_per_step: f64,
    pub peak_rss_mb: f64,
    pub serve_overhead_ms: f64,
    pub queue_peak: u64,
    pub rejected: u64,
    pub ss_ips: f64,
    /// Traced over untraced wall of the same work.
    pub trace_overhead: f64,
}

impl Layers {
    fn span_median(&self, name: &str) -> f64 {
        median(&self.tracer.self_ms(name)).unwrap_or(0.0)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let m = |name, value, unit| Metric { name, value, unit };
        let record_overhead_s = self.pass_wall_s
            - (c.slow_steps as f64 * self.slow_ns_per_step
                + c.fast_steps as f64 * self.snapshot.replay_ns_per_step)
                / 1e9;
        vec![
            m(
                "facile-lang.parse_ms",
                self.span_median("facile-lang.parse"),
                "ms",
            ),
            m(
                "facile-sema.analyze_ms",
                self.span_median("facile-sema.analyze"),
                "ms",
            ),
            m(
                "facile-ir.lower_ms",
                self.span_median("facile-ir.lower"),
                "ms",
            ),
            m(
                "facile-ir.verify_ms",
                self.span_median("facile-ir.verify"),
                "ms",
            ),
            m(
                "facile-codegen.compile_ms",
                self.span_median("facile-codegen.compile"),
                "ms",
            ),
            m(
                "facile-isa.assemble_ms",
                self.span_median("facile-isa.assemble"),
                "ms",
            ),
            m("facile-vm.new_ms", self.span_median("facile-vm.new"), "ms"),
            m("facile-vm.slow_steps", c.slow_steps as f64, "count"),
            m("facile-vm.misses", c.misses as f64, "count"),
            m("facile-vm.recoveries", c.recoveries as f64, "count"),
            m("facile-vm.fast_steps", c.fast_steps as f64, "count"),
            m(
                "facile-vm.fast_fraction",
                c.fast_insns as f64 / c.insns.max(1) as f64,
                "ratio",
            ),
            m(
                "facile-vm.actions_replayed",
                c.actions_replayed as f64,
                "count",
            ),
            m("facile-vm.ext_calls", c.ext_calls as f64, "count"),
            m("facile-vm.trace_enters", c.trace_enters as f64, "count"),
            m("facile-vm.trace_bails", c.trace_bails as f64, "count"),
            m(
                "facile-vm.trace_coverage",
                c.trace_steps as f64 / c.fast_steps.max(1) as f64,
                "ratio",
            ),
            m("facile-vm.slow_ns_per_step", self.slow_ns_per_step, "ns"),
            m(
                "facile-vm.replay_ns_per_step",
                self.snapshot.replay_ns_per_step,
                "ns",
            ),
            m("facile-vm.record_overhead_s", record_overhead_s, "s"),
            m("facile-vm.snapshot_parse_ms", self.snapshot.parse_ms, "ms"),
            m(
                "facile-vm.snapshot_install_ms",
                self.snapshot.install_ms,
                "ms",
            ),
            m("facile-vm.snapshot_mb", self.snapshot.mb, "MB"),
            m(
                "facile-runtime.cache_peak_mb",
                c.cache_peak_bytes as f64 / 1e6,
                "MB",
            ),
            m(
                "facile-runtime.nodes_created",
                c.nodes_created as f64,
                "count",
            ),
            m(
                "facile-runtime.entries_created",
                c.entries_created as f64,
                "count",
            ),
            m("facile-runtime.clears", c.clears as f64, "count"),
            m("facile-runtime.evictions", c.evictions as f64, "count"),
            m(
                "facile-runtime.allocs_per_step",
                self.allocs_per_step,
                "1/step",
            ),
            m(
                "facile-runtime.rss_per_modeled",
                self.peak_rss_mb / (c.cache_peak_bytes.max(1) as f64 / 1e6),
                "ratio",
            ),
            m("core.serve.overhead_ms", self.serve_overhead_ms, "ms"),
            m("core.serve.queue_peak", self.queue_peak as f64, "count"),
            m("core.serve.rejected", self.rejected as f64, "count"),
            m("simplescalar.ips", self.ss_ips, "insn/s"),
            m("facbench.trace_overhead", self.trace_overhead, "ratio"),
        ]
    }
}
