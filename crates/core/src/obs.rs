//! Bridges the runtime's counters to `facile-obs` metrics documents.
//!
//! `facile-obs` sits below `facile-runtime` in the dependency order, so
//! it cannot reference `SimStats`/`CacheStats` directly; the conversion
//! into plain-integer snapshots happens here, at the top of the stack.
//! Every job (`facile::job`) — `facilec run`, batch lanes, serve jobs,
//! the bench runners — funnels through [`metrics_doc`], which makes every
//! emitted document identical in shape — `sim_report` can render any of
//! them.

use facile_lang::span::LineMap;
use facile_obs::{
    ActionRow, CacheStatsSnapshot, HotConfig, HotDoc, MetricsDoc, ObsConfig, ObsHandle,
    ProfileDoc, SimStatsSnapshot, TimelineConfig, TimelineDoc, TraceCounters,
    DEFAULT_STEADY_EPS, DEFAULT_STEADY_K,
};
use facile_runtime::{CacheStats, SimStats};
use facile_vm::{Simulation, TraceStats};

/// Snapshots the simulation counters into the JSON-facing form.
pub fn snapshot_sim(s: &SimStats) -> SimStatsSnapshot {
    SimStatsSnapshot {
        cycles: s.cycles,
        insns: s.insns,
        fast_insns: s.fast_insns,
        slow_insns: s.slow_insns,
        fast_steps: s.fast_steps,
        slow_steps: s.slow_steps,
        misses: s.misses,
        recoveries: s.recoveries,
        actions_replayed: s.actions_replayed,
        ext_calls: s.ext_calls,
    }
}

/// Snapshots the action-cache counters into the JSON-facing form.
pub fn snapshot_cache(c: &CacheStats) -> CacheStatsSnapshot {
    CacheStatsSnapshot {
        nodes_created: c.nodes_created,
        entries_created: c.entries_created,
        clears: c.clears,
        bytes_current: c.bytes_current,
        bytes_total: c.bytes_total,
        bytes_peak: c.bytes_peak,
        bytes_cleared: c.bytes_cleared,
        evictions: c.evictions,
        bytes_evicted: c.bytes_evicted,
        bytes_frozen: c.bytes_frozen,
        frozen_gens: c.frozen_gens,
    }
}

/// Builds one metrics document from a (finished) simulation. Includes the
/// derived registry when an observability handle with metrics was
/// attached; `wall_ns` is the caller-measured wall-clock duration.
pub fn metrics_doc(label: &str, sim: &Simulation, wall_ns: u64) -> MetricsDoc {
    MetricsDoc {
        label: label.to_owned(),
        sim: snapshot_sim(sim.stats()),
        cache: snapshot_cache(&sim.cache_stats()),
        wall_ns,
        metrics: sim.obs().metrics(),
    }
}

/// Builds the source-level profile document for an observed run by
/// joining the compiler's per-action debug-info table (shipped in the
/// [`crate::CompiledStep`]) with the per-action cost and miss counters
/// in the run's metrics registry.
///
/// `src` must be the same source text the step was compiled from — the
/// debug table stores byte spans and this resolves them to 1-based
/// line/column with a [`LineMap`]. `file` is the display name written
/// into the document (rows render as `file:line:col`).
///
/// Attribution is exact only when the run was observed end to end on a
/// memoizing simulator; with no metrics registry attached the rows carry
/// zero costs (the spans still resolve).
pub fn profile_doc(
    label: &str,
    file: &str,
    src: &str,
    sim: &Simulation,
    wall_ns: u64,
) -> ProfileDoc {
    let map = LineMap::new(src);
    let metrics = sim.obs().metrics().unwrap_or_default();
    let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    let mut rows = Vec::with_capacity(sim.compiled().debug.len());
    for (i, d) in sim.compiled().debug.iter().enumerate() {
        let (line, col) = map.line_col(d.span.lo);
        // `hi` is exclusive; step back one byte so the end lands on the
        // last line of the span rather than just past it.
        let (end_line, _) = map.line_col(d.span.hi.saturating_sub(1).max(d.span.lo));
        let (guard_line, guard_col) = map.line_col(d.guard_span.lo);
        rows.push(ActionRow {
            action: i as u32,
            kind: d.kind.name().to_string(),
            line,
            col,
            end_line,
            guard_line,
            guard_col,
            ph_operands: d.ph_operands,
            reg_operands: d.reg_operands,
            replays: at(&metrics.action_replays, i),
            fast_insns: at(&metrics.action_fast_insns, i),
            slow_visits: at(&metrics.action_slow_visits, i),
            slow_insns: at(&metrics.action_slow_insns, i),
            misses: at(&metrics.action_misses, i),
            miss_values: metrics.miss_values.get(i).cloned().unwrap_or_default(),
        });
    }
    ProfileDoc {
        label: label.to_owned(),
        file: file.to_owned(),
        sim: snapshot_sim(sim.stats()),
        wall_ns,
        rows,
        miss_value_overflow: metrics.miss_value_overflow,
    }
}

/// Attaches a metrics-only observability handle (no event ring churn
/// beyond the default capacity, no writer) and returns it — for code
/// that drives a [`Simulation`] directly; jobs attach theirs through
/// [`crate::job::Sections`].
pub fn observe_metrics(sim: &mut Simulation) -> ObsHandle {
    let obs = ObsHandle::new(ObsConfig::default());
    sim.attach_obs(obs.clone());
    obs
}

/// Attaches an observability handle with the replay flight recorder on
/// (plus the default metrics registry) and returns it; `sample_every`
/// is the 1-in-N burst sampling period (1 records every burst, the mode
/// whose recounts are exact).
pub fn observe_hot(sim: &mut Simulation, sample_every: u64) -> ObsHandle {
    let obs = ObsHandle::new(ObsConfig {
        hot: HotConfig {
            enabled: true,
            sample_every,
        },
        ..ObsConfig::default()
    });
    sim.attach_obs(obs.clone());
    obs
}

/// Attaches an observability handle with the timeline recorder on
/// (plus the default metrics registry) and returns it; `epoch_steps` is
/// the epoch interval in simulator steps (0 is treated as 1). Epoch sampling starts at the
/// attach point, so attach before running for an exact recount.
pub fn observe_timeline(sim: &mut Simulation, epoch_steps: u64) -> ObsHandle {
    let obs = ObsHandle::new(ObsConfig {
        timeline: TimelineConfig {
            enabled: true,
            epoch_steps,
            ..TimelineConfig::default()
        },
        ..ObsConfig::default()
    });
    sim.attach_obs(obs.clone());
    obs
}

/// Builds the timeline document (`facile-timeline/v1`) for a run whose
/// handle carried the timeline recorder; `None` when no recorder was
/// attached. Flushes the final partial epoch first, so the returned
/// document satisfies the `sim_timeline --check` recount (Σ epoch
/// deltas == final counters) whenever the recorder was attached before
/// the first step. The steady-state detector runs with the default
/// tolerance and window; `wall_ns` is the caller-measured wall-clock
/// duration of the whole run.
pub fn timeline_doc(label: &str, sim: &mut Simulation, wall_ns: u64) -> Option<TimelineDoc> {
    sim.timeline_flush();
    let timeline = sim.obs().timeline()?;
    let warmup = timeline.detect(DEFAULT_STEADY_EPS, DEFAULT_STEADY_K);
    Some(TimelineDoc {
        label: label.to_owned(),
        sim: snapshot_sim(sim.stats()),
        cache: snapshot_cache(&sim.cache_stats()),
        trace: snapshot_trace(&sim.trace_stats()),
        wall_ns,
        timeline,
        warmup,
    })
}

/// Snapshots the VM's superaction-compilation counters into the
/// JSON-facing form (`facile-obs` cannot see `TraceStats` directly).
pub fn snapshot_trace(t: &TraceStats) -> TraceCounters {
    TraceCounters {
        built: t.built,
        build_failed: t.build_failed,
        enters: t.enters,
        bails: t.bails,
        invalidated: t.invalidated,
        steps: t.steps,
        insns: t.insns,
    }
}

/// Builds the hot-chain document (`facile-hot/v1`) for a run whose
/// handle carried the flight recorder; `None` when no recorder was
/// attached. `wall_ns` is the caller-measured wall-clock duration.
/// Supertrace counters come straight from the simulation (they are
/// runtime totals, not sampled events), so they stay exact even under
/// 1-in-N burst sampling.
pub fn hot_doc(label: &str, sim: &Simulation, wall_ns: u64) -> Option<HotDoc> {
    let mut hot = sim.obs().hot()?;
    hot.trace = snapshot_trace(&sim.trace_stats());
    Some(HotDoc {
        label: label.to_owned(),
        sim: snapshot_sim(sim.stats()),
        wall_ns,
        hot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, ArgValue, CompilerOptions, SimOptions};
    use facile_runtime::{Image, Target};

    const COUNTING_SRC: &str = r#"
            fun main(x : int) {
                count_insns(1);
                if (x == 0) { sim_halt(); }
                next(x - 1);
            }
        "#;

    fn counting_sim() -> Simulation {
        let step = compile_source(COUNTING_SRC, &CompilerOptions::default()).unwrap();
        Simulation::new(
            step,
            Target::load(&Image::default()),
            &[ArgValue::Scalar(40)],
            SimOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn doc_mirrors_live_counters() {
        let mut sim = counting_sim();
        sim.run_steps(1_000);
        let doc = metrics_doc("count-down", &sim, 12_345);
        assert_eq!(doc.sim.insns, sim.stats().insns);
        assert_eq!(doc.sim.misses, sim.stats().misses);
        assert_eq!(doc.cache.bytes_total, sim.cache_stats().bytes_total);
        assert_eq!(doc.wall_ns, 12_345);
        assert!(doc.metrics.is_none(), "no observer was attached");
    }

    #[test]
    fn observed_run_carries_the_registry() {
        let mut sim = counting_sim();
        let obs = observe_metrics(&mut sim);
        sim.run_steps(1_000);
        let doc = metrics_doc("count-down", &sim, 0);
        let m = doc.metrics.clone().expect("metrics registry present");
        let replay_total: u64 = m.action_replays.iter().sum();
        assert_eq!(replay_total, sim.stats().actions_replayed);
        assert_eq!(m.misses, sim.stats().misses);
        assert!(obs.total_events() > 0, "the run emitted trace events");
        // And the document survives its own serialization.
        let back = MetricsDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back.sim, doc.sim);
    }

    #[test]
    fn profile_attribution_is_exact() {
        let mut sim = counting_sim();
        let _obs = observe_metrics(&mut sim);
        sim.run_steps(1_000);
        let doc = profile_doc("count-down", "count.fac", COUNTING_SRC, &sim, 77);
        // The exactness contract: every retired instruction and every
        // miss lands in some row.
        assert_eq!(doc.attributed_insns(), sim.stats().insns);
        assert_eq!(doc.attributed_misses(), sim.stats().misses);
        assert_eq!(doc.rows.len(), sim.compiled().actions.len());
        assert_eq!(doc.wall_ns, 77);
        // Every row resolves to a real source position and a known kind.
        for r in &doc.rows {
            assert!(r.line >= 1 && r.col >= 1, "unresolved span on {r:?}");
            assert!(r.end_line >= r.line);
            assert!(r.guard_line >= 1 && r.guard_col >= 1);
            assert!(
                ["plain", "verify", "branch", "switch", "index"].contains(&r.kind.as_str()),
                "unknown kind {}",
                r.kind
            );
        }
        // The countdown's cost sits on the `count_insns(1)` line.
        let flat = doc.flat_lines();
        assert_eq!(flat[0].line, 3, "hottest line is count_insns");
        assert_eq!(flat[0].insns, sim.stats().insns);
        // And the document survives serialization.
        let back = facile_obs::ProfileDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back.rows, doc.rows);
    }

    /// Keys cycle 0..7 while a memory counter decides when to halt, so
    /// after the first lap everything replays through the fast engine.
    const LOOPING_SRC: &str = r#"
            fun main(x : int) {
                val c = mem_ld(0);
                mem_st(0, c + 1);
                count_insns(1);
                if (c >= 200) { sim_halt(); }
                next((x + 1) % 7);
            }
        "#;

    fn looping_sim() -> Simulation {
        let step = compile_source(LOOPING_SRC, &CompilerOptions::default()).unwrap();
        Simulation::new(
            step,
            Target::load(&Image::default()),
            &[ArgValue::Scalar(0)],
            SimOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn hot_doc_recounts_the_fast_path_exactly() {
        let mut sim = looping_sim();
        observe_hot(&mut sim, 1);
        sim.run_steps(10_000);
        assert!(sim.stats().fast_steps > 0, "the loop fast-forwards");
        let doc = hot_doc("loop", &sim, 9).expect("recorder attached");
        let h = &doc.hot;
        // Full sampling: every fast step and fast instruction is inside
        // exactly one recorded burst, and every burst has one exit.
        assert!(h.bursts > 0, "the loop fast-forwards");
        assert_eq!(h.bursts_skipped, 0);
        assert_eq!(h.exits.iter().sum::<u64>(), h.bursts);
        assert_eq!(h.burst_steps.count(), h.bursts);
        assert_eq!(h.burst_insns.count(), h.bursts);
        assert_eq!(h.burst_steps.sum(), sim.stats().fast_steps);
        assert_eq!(h.burst_insns.sum(), sim.stats().fast_insns);
        // Every non-evicted burst lands in the chain table (or the
        // overflow counter once the table caps out).
        assert_eq!(
            h.tabled_replays() + h.chain_overflow,
            h.bursts - h.exits[facile_obs::BurstExit::Evicted as usize]
        );
        // And the document survives its own serialization.
        let back = HotDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn without_recorder_hot_doc_is_none() {
        let mut sim = counting_sim();
        observe_metrics(&mut sim);
        sim.run_steps(1_000);
        assert!(hot_doc("bare", &sim, 0).is_none());
    }

    #[test]
    fn timeline_doc_recounts_the_run_exactly() {
        let mut sim = looping_sim();
        observe_timeline(&mut sim, 16);
        // Budget-sliced driving: epochs close at burst exits, and a
        // replay burst runs to its budget, so unsliced runs of this
        // tight loop would close one giant epoch. Real drivers slice
        // the same way (facilec runs in budget slices).
        while sim.halted().is_none() {
            sim.run_steps(16);
        }
        let doc = timeline_doc("loop", &mut sim, 42).expect("recorder attached");
        // The tentpole invariant: Σ epoch deltas == final counters,
        // bit for bit, including the flushed partial epoch.
        doc.recount().expect("epoch recount");
        assert!(
            doc.timeline.epochs.len() > 1,
            "the 200-lap loop crosses several 16-step epochs"
        );
        assert_eq!(doc.sim.insns, sim.stats().insns);
        // Convergence is visible: some later epoch fast-forwards more
        // than the recording-dominated first one (the *final* epoch can
        // dip again — the data-dependent halt exits through the slow
        // path — which is exactly what a timeline is for).
        let first = doc.timeline.epochs.first().unwrap();
        let peak = doc
            .timeline
            .epochs
            .iter()
            .map(|e| e.fast_fraction())
            .fold(0.0f64, f64::max);
        assert!(first.fast_fraction() < peak);
        // And the document survives its own serialization.
        let back = TimelineDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn timeline_flush_is_idempotent() {
        let mut sim = looping_sim();
        observe_timeline(&mut sim, 16);
        sim.run_steps(10_000);
        sim.timeline_flush();
        let once = sim.obs().timeline().unwrap();
        sim.timeline_flush();
        let twice = sim.obs().timeline().unwrap();
        assert_eq!(once.epochs.len(), twice.epochs.len(), "no zero epochs");
        assert_eq!(once.totals, twice.totals);
    }

    #[test]
    fn without_recorder_timeline_doc_is_none() {
        let mut sim = counting_sim();
        observe_metrics(&mut sim);
        sim.run_steps(1_000);
        assert!(timeline_doc("bare", &mut sim, 0).is_none());
    }

    #[test]
    fn unobserved_profile_still_resolves_spans() {
        let mut sim = counting_sim();
        sim.run_steps(1_000);
        let doc = profile_doc("bare", "count.fac", COUNTING_SRC, &sim, 0);
        assert_eq!(doc.attributed_insns(), 0, "no registry, no attribution");
        assert_eq!(doc.rows.len(), sim.compiled().actions.len());
        assert_eq!(doc.sim.insns, sim.stats().insns);
    }
}
