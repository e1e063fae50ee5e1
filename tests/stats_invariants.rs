//! Observability invariants: the structured trace stream and the metrics
//! registry must agree *exactly* with the runtime counters. Any drift
//! between what the engines count and what they announce is a bug in the
//! instrumentation, so these tests recount everything from the drained
//! events and compare field by field.

use facile::hosts::{initial_args, ArchHost};
use facile::job::{ProfileSource, Sections};
use facile::{
    compile_source, CachePolicy, CompilerOptions, ObsConfig, ObsHandle, SimOptions, Simulation,
    Target, TraceEvent,
};
use facile_isa::asm::assemble_image;

/// A counted loop with an inner data-dependent branch: enough repetition
/// for long replays, enough irregularity for several misses.
const LOOP_ASM: &str = "addi r1, r0, 300\n\
     addi r2, r0, 0\n\
     addi r3, r0, 0\n\
     loop: add r2, r2, r1\n\
     andi r4, r1, 3\n\
     bne r4, r0, skip\n\
     addi r3, r3, 1\n\
     skip: addi r1, r1, -1\n\
     bne r1, r0, loop\n\
     out r2\n\
     out r3\n\
     halt\n";

fn observed_run(which: &str) -> (Simulation, ObsHandle) {
    observed_run_with(which, None)
}

fn observed_run_with(
    which: &str,
    writer: Option<Box<dyn std::io::Write + Send>>,
) -> (Simulation, ObsHandle) {
    let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
    let src = match which {
        "inorder" => facile::sims::inorder_source(),
        _ => facile::sims::functional_source(),
    };
    let step = compile_source(&src, &CompilerOptions::default()).expect("compiles");
    let args = match which {
        "inorder" => initial_args::inorder(image.entry),
        _ => initial_args::functional(image.entry),
    };
    let mut sim = Simulation::new(
        step,
        Target::load(&image),
        &args,
        SimOptions::default(),
    )
    .expect("simulation constructs");
    ArchHost::new().bind(&mut sim).expect("externals bind");
    let obs = ObsHandle::new(ObsConfig::default());
    if let Some(w) = writer {
        obs.set_writer(w);
    }
    sim.attach_obs(obs.clone());
    sim.run_steps(u64::MAX >> 1);
    (sim, obs)
}

/// Replays the drained trace and checks every recount against SimStats.
fn check_trace_agrees(which: &str) {
    let (sim, obs) = observed_run(which);
    let s = *sim.stats();
    assert!(sim.halted().is_some(), "{which}: workload halts");
    assert!(s.misses > 0, "{which}: the loop should miss at least once");

    // Counter-level invariants.
    assert_eq!(s.misses, s.recoveries, "{which}: every miss is recovered");
    assert_eq!(
        s.fast_insns + s.slow_insns,
        s.insns,
        "{which}: engines partition the instruction count"
    );

    // Event-level recount. The ring must have kept everything.
    assert_eq!(obs.dropped_events(), 0, "{which}: ring big enough");
    let events = obs.drain_events();
    let (mut actions, mut misses, mut rec_begin, mut rec_end) = (0u64, 0u64, 0u64, 0u64);
    let (mut fast_insns, mut slow_insns, mut fast_steps) = (0u64, 0u64, 0u64);
    let mut halts = 0u64;
    for ev in &events {
        match *ev {
            TraceEvent::FastBurst {
                steps,
                actions: a,
                insns,
                ..
            } => {
                actions += a;
                fast_insns += insns;
                fast_steps += steps;
            }
            TraceEvent::SlowStep { insns, .. } => slow_insns += insns,
            TraceEvent::Miss { .. } => misses += 1,
            TraceEvent::RecoveryBegin { .. } => rec_begin += 1,
            TraceEvent::RecoveryEnd { .. } => rec_end += 1,
            TraceEvent::Halt { .. } => halts += 1,
            _ => {}
        }
    }
    assert_eq!(actions, s.actions_replayed, "{which}: replayed-action recount");
    assert_eq!(misses, s.misses, "{which}: miss recount");
    assert_eq!(rec_begin, s.recoveries, "{which}: recovery-begin recount");
    assert_eq!(rec_end, s.recoveries, "{which}: recovery-end recount");
    assert_eq!(fast_insns, s.fast_insns, "{which}: fast-insn recount");
    assert_eq!(slow_insns, s.slow_insns, "{which}: slow-insn recount");
    assert_eq!(fast_steps, s.fast_steps, "{which}: fast-step recount");
    assert_eq!(halts, 1, "{which}: exactly one halt event");

    // The Table 1 quantity from the trace alone matches the live one.
    let recount = fast_insns as f64 / (fast_insns + slow_insns) as f64;
    assert!(
        (recount - s.fast_forwarded_fraction()).abs() < 1e-12,
        "{which}: fraction from trace = {recount}, live = {}",
        s.fast_forwarded_fraction()
    );

    // The metrics registry saw the same stream.
    let m = obs.metrics().expect("metrics registry is on by default");
    assert_eq!(
        m.action_replays.iter().sum::<u64>(),
        s.actions_replayed,
        "{which}: registry replay total"
    );
    assert_eq!(m.misses, s.misses, "{which}: registry misses");
    assert_eq!(m.recoveries, s.recoveries, "{which}: registry recoveries");
    assert_eq!(
        m.recovery_depth.count(),
        s.recoveries,
        "{which}: one depth sample per recovery"
    );
}

#[test]
fn functional_trace_recount_matches_stats() {
    check_trace_agrees("functional");
}

#[test]
fn inorder_trace_recount_matches_stats() {
    check_trace_agrees("inorder");
}

/// The same run, unobserved: counters must not depend on observation.
#[test]
fn observation_does_not_perturb_the_simulation() {
    let (observed, _obs) = observed_run("functional");

    let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
    let step = compile_source(
        &facile::sims::functional_source(),
        &CompilerOptions::default(),
    )
    .expect("compiles");
    let mut plain = Simulation::new(
        step,
        Target::load(&image),
        &initial_args::functional(image.entry),
        SimOptions::default(),
    )
    .expect("simulation constructs");
    ArchHost::new().bind(&mut plain).expect("externals bind");
    plain.run_steps(u64::MAX >> 1);

    assert_eq!(plain.stats(), observed.stats());
    assert_eq!(plain.trace(), observed.trace());
    assert_eq!(
        plain.cache_stats().bytes_total,
        observed.cache_stats().bytes_total
    );
}

/// A writer over shared storage so the test can read back what the
/// event ring streamed out.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The streamed JSONL is the trace of record: every line parses, and
/// recounting the parsed lines reproduces the live runtime counters.
#[test]
fn trace_writer_jsonl_resums_to_live_counters() {
    let buf = SharedBuf::default();
    let (sim, obs) = observed_run_with("functional", Some(Box::new(buf.clone())));
    obs.flush();
    assert_eq!(obs.io_errors(), 0, "writer accepted every flush");

    let s = *sim.stats();
    assert!(s.misses > 0 && s.fast_steps > 0, "mixed slow/fast workload");

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf-8 jsonl");
    let (mut actions, mut fast_insns, mut slow_insns) = (0u64, 0u64, 0u64);
    let (mut fast_steps, mut misses, mut lines) = (0u64, 0u64, 0usize);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        lines += 1;
        let v = facile_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("line {lines} is not JSON ({e:?}): {line}"));
        let ev = v.get("ev").and_then(|e| e.as_str()).expect("ev tag");
        let num = |k: &str| v.get(k).and_then(|n| n.as_u64()).unwrap_or(0);
        match ev {
            "fast_burst" => {
                actions += num("actions");
                fast_insns += num("insns");
                fast_steps += num("steps");
            }
            "slow_step" => slow_insns += num("insns"),
            "miss" => misses += 1,
            _ => {}
        }
    }
    assert!(lines > 0, "the writer received the stream");
    assert_eq!(actions, s.actions_replayed, "jsonl replayed-action recount");
    assert_eq!(fast_insns, s.fast_insns, "jsonl fast-insn recount");
    assert_eq!(slow_insns, s.slow_insns, "jsonl slow-insn recount");
    assert_eq!(fast_steps, s.fast_steps, "jsonl fast-step recount");
    assert_eq!(misses, s.misses, "jsonl miss recount");
}

/// Runs the loop under the inorder simulator with the given cache
/// configuration (no observation).
fn capped_run(memoize: bool, cap: Option<u64>, policy: CachePolicy) -> Simulation {
    let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
    let step = compile_source(
        &facile::sims::inorder_source(),
        &CompilerOptions::default(),
    )
    .expect("compiles");
    let mut sim = Simulation::new(
        step,
        Target::load(&image),
        &initial_args::inorder(image.entry),
        SimOptions {
            memoize,
            cache_capacity: cap,
            cache_policy: policy,
            ..SimOptions::default()
        },
    )
    .expect("simulation constructs");
    ArchHost::new().bind(&mut sim).expect("externals bind");
    sim.run_steps(u64::MAX >> 1);
    assert!(sim.halted().is_some(), "workload halts");
    sim
}

/// Eviction torture: a capacity far below the working set forces many
/// reclaims under both policies. Fast-forwarding must stay transparent —
/// architectural state, program output, and cycle counts bit-identical
/// to running with memoization off — and the extended bytes invariant
/// must hold at halt.
#[test]
fn capacity_pressure_is_transparent_under_both_policies() {
    let reference = capped_run(false, None, CachePolicy::Clear);

    let mut evictions_seen = 0u64;
    for policy in [CachePolicy::Clear, CachePolicy::Generational] {
        let sim = capped_run(true, Some(512), policy);
        assert_eq!(
            sim.stats().cycles,
            reference.stats().cycles,
            "{policy:?}: cycle counts must be exact"
        );
        assert_eq!(
            sim.stats().insns,
            reference.stats().insns,
            "{policy:?}: instruction counts must be exact"
        );
        assert_eq!(
            sim.trace(),
            reference.trace(),
            "{policy:?}: program output must be exact"
        );
        assert_eq!(
            sim.memory().digest(),
            reference.memory().digest(),
            "{policy:?}: final target memory must be exact"
        );
        let cs = sim.cache_stats();
        assert_eq!(
            cs.bytes_total,
            cs.bytes_current + cs.bytes_cleared + cs.bytes_evicted,
            "{policy:?}: every byte is current, cleared, or evicted"
        );
        match policy {
            CachePolicy::Clear => {
                assert!(cs.clears > 0, "the tiny cap must force clears");
                assert_eq!(cs.evictions, 0, "clear-on-full never evicts");
                assert_eq!(cs.bytes_evicted, 0);
            }
            CachePolicy::Generational => {
                assert!(cs.evictions > 0, "the tiny cap must force evictions");
                assert!(cs.bytes_evicted > 0);
                evictions_seen = cs.evictions;
            }
        }
    }
    assert!(evictions_seen > 0);
}

/// The differential digest gate for fast-forwarding: a budget-sliced
/// memo-on run, which mixes recording, replay and recovery across every
/// slice boundary, must retire the same instruction and cycle counts as
/// the slow-only (no memoization) run, emit the same program output, and
/// leave identical target memory.
#[test]
fn memo_on_and_slow_only_agree_bit_for_bit() {
    let run = |memoize: bool| {
        let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
        let step = compile_source(
            &facile::sims::inorder_source(),
            &CompilerOptions::default(),
        )
        .expect("compiles");
        let mut sim = Simulation::new(
            step,
            Target::load(&image),
            &initial_args::inorder(image.entry),
            SimOptions {
                memoize,
                ..SimOptions::default()
            },
        )
        .expect("simulation constructs");
        ArchHost::new().bind(&mut sim).expect("externals bind");
        // Budget-sliced driving: every slice boundary is a burst exit
        // and a resume, the points where replay hands its position over.
        while sim.halted().is_none() {
            sim.run_steps(40);
        }
        sim
    };
    let slow = run(false);
    let memo = run(true);
    assert!(memo.stats().fast_steps > 0, "the memo-on run never replayed");
    assert_eq!(memo.stats().insns, slow.stats().insns, "insns");
    assert_eq!(memo.stats().cycles, slow.stats().cycles, "cycles");
    assert_eq!(memo.trace(), slow.trace(), "program output");
    assert_eq!(memo.memory().digest(), slow.memory().digest(), "target memory");
}

/// The observer's `cache_evict` stream recounts exactly to the runtime's
/// eviction counters, like every other event kind in this file.
#[test]
fn cache_evict_events_recount_to_cache_stats() {
    let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
    let step = compile_source(
        &facile::sims::inorder_source(),
        &CompilerOptions::default(),
    )
    .expect("compiles");
    let mut sim = Simulation::new(
        step,
        Target::load(&image),
        &initial_args::inorder(image.entry),
        SimOptions {
            memoize: true,
            cache_capacity: Some(512),
            cache_policy: CachePolicy::Generational,
            ..SimOptions::default()
        },
    )
    .expect("simulation constructs");
    ArchHost::new().bind(&mut sim).expect("externals bind");
    let obs = ObsHandle::new(ObsConfig::default());
    sim.attach_obs(obs.clone());
    sim.run_steps(u64::MAX >> 1);
    assert!(sim.halted().is_some(), "workload halts");

    let cs = sim.cache_stats();
    assert!(cs.evictions > 0, "the tiny cap must force evictions");
    assert_eq!(obs.dropped_events(), 0, "ring big enough");
    // One event per evicted generation; the event's `evictions` field is
    // the running total, so the last one must equal the final counter.
    let (mut evictions, mut bytes, mut last_total) = (0u64, 0u64, 0u64);
    for ev in obs.drain_events() {
        if let TraceEvent::CacheEvict {
            bytes: b,
            evictions: e,
            ..
        } = ev
        {
            evictions += 1;
            bytes += b;
            last_total = e;
        }
    }
    assert_eq!(last_total, cs.evictions, "running total on the last event");
    assert_eq!(evictions, cs.evictions, "eviction recount");
    assert_eq!(bytes, cs.bytes_evicted, "evicted-bytes recount");

    let m = obs.metrics().expect("metrics registry is on by default");
    assert_eq!(m.cache_evictions, cs.evictions, "registry evictions");
    assert_eq!(m.bytes_evicted, cs.bytes_evicted, "registry evicted bytes");
}

/// The epoch-delta exactness invariant: across very different engine
/// configurations — slow-only, mixed replay and mid-run `trim_cache` —
/// the timeline's epoch deltas (retained plus dropped) must telescope
/// exactly to the final simulation and cache counters. `RunDoc::check` is the
/// single checker; any drift is an instrumentation bug.
#[test]
fn timeline_epoch_deltas_recount_exactly() {
    let run = |label: &str, options: SimOptions, trim_at: Option<u64>| {
        let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
        let step = compile_source(
            &facile::sims::inorder_source(),
            &CompilerOptions::default(),
        )
        .expect("compiles");
        let mut sim = Simulation::new(
            step,
            Target::load(&image),
            &initial_args::inorder(image.entry),
            options,
        )
        .expect("simulation constructs");
        ArchHost::new().bind(&mut sim).expect("externals bind");
        let sections = Sections {
            timeline: Some(24),
            ..Sections::default()
        };
        facile::obs::observe(&mut sim, &sections);
        // Budget-sliced driving, as every timeline front end drives it.
        let mut slices = 0u64;
        while sim.halted().is_none() {
            sim.run_steps(24);
            slices += 1;
            if Some(slices) == trim_at {
                sim.trim_cache(0);
            }
        }
        let doc = facile::obs::run_doc(label, &mut sim, 1, &sections);
        assert_eq!(doc.check(), Vec::<String>::new(), "{label}: epoch recount failed");
        assert!(
            doc.timeline.as_ref().expect("timeline attached").epochs_total() > 2,
            "{label}: several epochs closed"
        );
        doc
    };
    let slow_only = run(
        "slow-only",
        SimOptions {
            memoize: false,
            ..SimOptions::default()
        },
        None,
    );
    assert_eq!(slow_only.sim.fast_steps, 0, "slow-only run never replays");
    let mixed = run("mixed", SimOptions::default(), None);
    assert!(mixed.sim.fast_steps > 0 && mixed.sim.misses > 0);
    let trimmed = run("post-trim", SimOptions::default(), Some(3));
    assert!(trimmed.sim.fast_steps > 0);
}

/// A timeline is a pure read-out: the same workload run with epoch
/// sampling on (budget-sliced, as the front ends drive it) and fully
/// off must retire identical stats, program output and target memory.
#[test]
fn timeline_on_off_architectural_digests_agree() {
    let build = || {
        let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
        let step = compile_source(
            &facile::sims::functional_source(),
            &CompilerOptions::default(),
        )
        .expect("compiles");
        let mut sim = Simulation::new(
            step,
            Target::load(&image),
            &initial_args::functional(image.entry),
            SimOptions::default(),
        )
        .expect("simulation constructs");
        ArchHost::new().bind(&mut sim).expect("externals bind");
        sim
    };
    let mut with = build();
    let sections = Sections {
        timeline: Some(16),
        ..Sections::default()
    };
    facile::obs::observe(&mut with, &sections);
    while with.halted().is_none() {
        with.run_steps(16);
    }
    let doc = facile::obs::run_doc("on", &mut with, 1, &sections);
    assert!(doc.timeline.is_some(), "timeline attached");
    assert_eq!(doc.check(), Vec::<String>::new(), "sampled run recounts");

    let mut without = build();
    without.run_steps(u64::MAX >> 1);
    assert!(without.halted().is_some(), "workload halts");

    assert_eq!(with.stats(), without.stats(), "stats identical");
    assert_eq!(with.trace(), without.trace(), "program output identical");
    assert_eq!(
        with.memory().digest(),
        without.memory().digest(),
        "final target memory identical"
    );
}

/// The profile section must be a pure read-out: stats, program output and
/// final target memory are bit-for-bit identical with and without it,
/// and the profile it yields satisfies the exactness contract.
#[test]
fn profiling_does_not_perturb_the_simulation() {
    let (observed, _obs) = observed_run("functional");
    let source = ProfileSource {
        file: "functional.fac".to_owned(),
        src: facile::sims::functional_source(),
    };
    let registry = observed.obs().metrics().expect("registry attached");
    let prof = facile::obs::profile(&source, observed.compiled(), &registry);

    let image = assemble_image(LOOP_ASM, 0x1_0000, vec![]).expect("assembles");
    let step = compile_source(
        &facile::sims::functional_source(),
        &CompilerOptions::default(),
    )
    .expect("compiles");
    let mut plain = Simulation::new(
        step,
        Target::load(&image),
        &initial_args::functional(image.entry),
        SimOptions::default(),
    )
    .expect("simulation constructs");
    ArchHost::new().bind(&mut plain).expect("externals bind");
    plain.run_steps(u64::MAX >> 1);

    assert_eq!(plain.stats(), observed.stats(), "stats identical");
    assert_eq!(plain.trace(), observed.trace(), "program output identical");
    assert_eq!(
        plain.memory().digest(),
        observed.memory().digest(),
        "final target memory identical"
    );

    // And the document the profiled run produced is exact.
    assert_eq!(prof.attributed_insns(), observed.stats().insns);
    assert_eq!(prof.attributed_misses(), observed.stats().misses);
    assert!(prof.rows.iter().all(|r| r.line >= 1 && r.guard_line >= 1));
}
