//! Bridges the runtime's counters to the `facile-obs` run document.
//!
//! `facile-obs` sits below `facile-runtime` in the dependency order, so
//! it cannot reference `SimStats`/`CacheStats`/`TraceStats` directly;
//! the conversion into plain-integer snapshots happens here, at the top
//! of the stack. Every job (`facile::job`) — `facilec run`, batch lanes,
//! serve jobs, the bench runners — funnels through [`run_doc`], so every
//! emitted document has the same shape and `sim_obs` can render any of
//! them.

use crate::job::{ProfileSource, Sections};
use crate::CompiledStep;
use facile_lang::span::LineMap;
use facile_obs::{
    ActionRow, CacheStatsSnapshot, Metrics, ObsConfig, ObsHandle, Profile, RunDoc,
    SimStatsSnapshot, TraceCounters,
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

/// Snapshots the VM's superaction-compilation counters into the
/// JSON-facing form.
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

/// Builds one run document from a (finished) simulation: the header
/// from the live counters plus the `sections` whose recorders were
/// attached (see [`Sections`]); `wall_ns` is the caller-measured
/// wall-clock duration. A wanted timeline flushes its final partial
/// epoch first, so the document satisfies the epoch recount whenever
/// the recorder was attached before the first step.
pub fn run_doc(label: &str, sim: &mut Simulation, wall_ns: u64, sections: &Sections) -> RunDoc {
    if sections.timeline.is_some() {
        sim.timeline_flush();
    }
    let registry = sim.obs().metrics();
    RunDoc {
        label: label.to_owned(),
        wall_ns,
        sim: snapshot_sim(sim.stats()),
        cache: snapshot_cache(&sim.cache_stats()),
        trace: snapshot_trace(&sim.trace_stats()),
        metrics: registry.clone().filter(|_| sections.metrics),
        profile: sections
            .profile
            .as_ref()
            .map(|p| profile(p, sim.compiled(), &registry.unwrap_or_default())),
        hot: sections.hot.and_then(|_| sim.obs().hot()),
        timeline: sections.timeline.and_then(|_| sim.obs().timeline()),
    }
}

/// Builds the profile section by joining the compiler's per-action
/// debug-info table (shipped in the [`CompiledStep`]) with the
/// per-action cost and miss counters of the run's metrics registry.
///
/// `source` must hold the text the step was compiled from — the debug
/// table stores byte spans and this resolves them to 1-based
/// line/column with a [`LineMap`]. Attribution is exact only when the
/// run was observed end to end on a memoizing simulator; with an empty
/// registry the rows carry zero costs (the spans still resolve).
pub fn profile(source: &ProfileSource, step: &CompiledStep, metrics: &Metrics) -> Profile {
    let map = LineMap::new(&source.src);
    let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    let rows = step
        .debug
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let (line, col) = map.line_col(d.span.lo);
            // `hi` is exclusive; step back one byte so the end lands on
            // the last line of the span rather than just past it.
            let (end_line, _) = map.line_col(d.span.hi.saturating_sub(1).max(d.span.lo));
            let (guard_line, guard_col) = map.line_col(d.guard_span.lo);
            ActionRow {
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
            }
        })
        .collect();
    Profile {
        file: source.file.clone(),
        rows,
        miss_value_overflow: metrics.miss_value_overflow,
        slow_ops: metrics.slow_ops,
    }
}

/// Attaches the observer `sections` need to a [`Simulation`] driven
/// directly (jobs attach theirs in [`crate::job::prepare`]) and returns
/// it; attach before running for exact recounts.
///
/// # Panics
///
/// When `sections` want nothing (there is no observer to attach).
pub fn observe(sim: &mut Simulation, sections: &Sections) -> ObsHandle {
    let config: ObsConfig = sections.obs_config(false).expect("sections want a recorder");
    let obs = ObsHandle::new(config);
    sim.attach_obs(obs.clone());
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, ArgValue, CompilerOptions, SimOptions};
    use facile_runtime::{Image, Target};
    use std::sync::Arc;

    fn wants(metrics: bool, hot: Option<u64>, timeline: Option<u64>) -> Sections {
        Sections {
            metrics,
            hot,
            timeline,
            ..Sections::default()
        }
    }

    fn profiled(src: &str) -> Sections {
        Sections {
            profile: Some(Arc::new(ProfileSource {
                file: "count.fac".to_owned(),
                src: src.to_owned(),
            })),
            ..Sections::default()
        }
    }

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
        let doc = run_doc("count-down", &mut sim, 12_345, &Sections::default());
        assert_eq!(doc.sim.insns, sim.stats().insns);
        assert_eq!(doc.sim.misses, sim.stats().misses);
        assert_eq!(doc.cache.bytes_total, sim.cache_stats().bytes_total);
        assert_eq!(doc.wall_ns, 12_345);
        assert!(doc.metrics.is_none(), "no observer was attached");
        assert!(doc.hot.is_none() && doc.timeline.is_none() && doc.profile.is_none());
    }

    #[test]
    fn observed_run_carries_the_registry() {
        let mut sim = counting_sim();
        let sections = wants(true, None, None);
        let obs = observe(&mut sim, &sections);
        sim.run_steps(1_000);
        let doc = run_doc("count-down", &mut sim, 0, &sections);
        let m = doc.metrics.clone().expect("metrics registry present");
        let replay_total: u64 = m.action_replays.iter().sum();
        assert_eq!(replay_total, sim.stats().actions_replayed);
        assert_eq!(m.misses, sim.stats().misses);
        assert!(obs.total_events() > 0, "the run emitted trace events");
        // And the document survives its own serialization.
        let back = RunDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back.sim, doc.sim);
        assert_eq!(back.to_json(), doc.to_json());
    }

    #[test]
    fn profile_attribution_is_exact() {
        let mut sim = counting_sim();
        let sections = profiled(COUNTING_SRC);
        let _obs = observe(&mut sim, &sections);
        sim.run_steps(1_000);
        let run = run_doc("count-down", &mut sim, 77, &sections);
        assert!(run.metrics.is_none(), "the profile needs no metrics section");
        assert_eq!(run.check(), Vec::<String>::new());
        let doc = run.profile.clone().expect("profile wanted");
        // The exactness contract: every retired instruction and every
        // miss lands in some row.
        assert_eq!(doc.attributed_insns(), sim.stats().insns);
        assert_eq!(doc.attributed_misses(), sim.stats().misses);
        assert_eq!(doc.rows.len(), sim.compiled().actions.len());
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
        let back = RunDoc::from_json(&run.to_json()).unwrap();
        assert_eq!(back.profile, Some(doc));
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
        let sections = wants(false, Some(1), None);
        observe(&mut sim, &sections);
        sim.run_steps(10_000);
        assert!(sim.stats().fast_steps > 0, "the loop fast-forwards");
        let doc = run_doc("loop", &mut sim, 9, &sections);
        assert!(doc.metrics.is_none(), "the hot section needs no registry");
        let h = doc.hot.as_ref().expect("recorder attached");
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
        assert_eq!(doc.check(), Vec::<String>::new());
        // And the document survives its own serialization.
        let back = RunDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back.hot, doc.hot);
    }

    #[test]
    fn timeline_doc_recounts_the_run_exactly() {
        let mut sim = looping_sim();
        let sections = wants(false, None, Some(16));
        observe(&mut sim, &sections);
        // Budget-sliced driving: epochs close at burst exits, and a
        // replay burst runs to its budget, so unsliced runs of this
        // tight loop would close one giant epoch. Real drivers slice
        // the same way (facilec runs in budget slices).
        while sim.halted().is_none() {
            sim.run_steps(16);
        }
        let run = run_doc("loop", &mut sim, 42, &sections);
        // The tentpole invariant: Σ epoch deltas == final counters,
        // bit for bit, including the flushed partial epoch.
        assert_eq!(run.check(), Vec::<String>::new());
        let doc = run.timeline.as_ref().expect("recorder attached");
        assert!(
            doc.epochs.len() > 1,
            "the 200-lap loop crosses several 16-step epochs"
        );
        assert_eq!(run.sim.insns, sim.stats().insns);
        // Convergence is visible: some later epoch fast-forwards more
        // than the recording-dominated first one (the *final* epoch can
        // dip again — the data-dependent halt exits through the slow
        // path — which is exactly what a timeline is for).
        let first = doc.epochs.first().unwrap();
        let peak = doc
            .epochs
            .iter()
            .map(|e| e.fast_fraction())
            .fold(0.0f64, f64::max);
        assert!(first.fast_fraction() < peak);
        // And the document survives its own serialization.
        let back = RunDoc::from_json(&run.to_json()).unwrap();
        assert_eq!(back.timeline, run.timeline);
    }

    #[test]
    fn timeline_flush_is_idempotent() {
        let mut sim = looping_sim();
        observe(&mut sim, &wants(false, None, Some(16)));
        sim.run_steps(10_000);
        sim.timeline_flush();
        let once = sim.obs().timeline().unwrap();
        sim.timeline_flush();
        let twice = sim.obs().timeline().unwrap();
        assert_eq!(once.epochs.len(), twice.epochs.len(), "no zero epochs");
        assert_eq!(once.totals, twice.totals);
    }

    #[test]
    fn sections_without_their_recorder_stay_absent() {
        let mut sim = counting_sim();
        observe(&mut sim, &wants(true, None, None));
        sim.run_steps(1_000);
        let doc = run_doc("bare", &mut sim, 0, &wants(true, Some(1), Some(16)));
        assert!(doc.hot.is_none() && doc.timeline.is_none());
        assert!(doc.metrics.is_some());
    }

    #[test]
    fn unobserved_profile_still_resolves_spans() {
        let mut sim = counting_sim();
        sim.run_steps(1_000);
        let run = run_doc("bare", &mut sim, 0, &profiled(COUNTING_SRC));
        let doc = run.profile.expect("profile wanted");
        assert_eq!(doc.attributed_insns(), 0, "no registry, no attribution");
        assert_eq!(doc.rows.len(), sim.compiled().actions.len());
        assert_eq!(run.sim.insns, sim.stats().insns);
    }
}
