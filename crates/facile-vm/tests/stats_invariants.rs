//! Engine invariants under eviction and observation, checked against
//! the live runtime counters rather than a serialized document.
//!
//! Eviction of the paused replay position between bursts must be
//! counted once and restart the step through the slow engine, and
//! attaching observers must not perturb the simulation: obs-on and
//! obs-off runs produce bit-for-bit identical statistics and memory.

use facile_codegen::{compile, CodegenConfig};
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_obs::{EngineTag, ObsConfig, ObsHandle, TimelineConfig, TraceEvent};
use facile_runtime::{CachePolicy, HaltReason, Image, Target};
use facile_sema::analyze as sema;
use facile_vm::engine::{ArgValue, SimOptions, Simulation};

fn build(src: &str) -> facile_codegen::CompiledStep {
    let mut diags = Diagnostics::new();
    let prog = parse(src, &mut diags);
    let syms = sema(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(src));
    let ir = facile_ir::lower::lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
}

fn sim(src: &str, opts: SimOptions) -> Simulation {
    let step = build(src);
    Simulation::new(
        step,
        Target::load(&Image::default()),
        &[ArgValue::Scalar(0)],
        opts,
    )
    .unwrap()
}

/// Keys cycle through a small space while a memory counter decides when
/// to halt, so after the first lap every step replays.
const LOOPING_SRC: &str = "fun main(x : int) {
    val c = mem_ld(0);
    mem_st(0, c + 1);
    count_insns(1);
    if (c >= 400) { sim_halt(); }
    next((x + 1) % 11);
}";

/// Attaches a handle with the metrics registry, the trace ring and the
/// timeline recorder (an epoch every `epoch_steps` steps) and returns it.
fn observe(s: &mut Simulation, epoch_steps: u64) -> ObsHandle {
    let obs = ObsHandle::new(ObsConfig {
        timeline: TimelineConfig {
            enabled: true,
            epoch_steps,
            ..TimelineConfig::default()
        },
        ..ObsConfig::default()
    });
    s.attach_obs(obs.clone());
    obs
}

/// The evicted-between-bursts path (`engine.rs`, `Mode::Fast` with a
/// non-resident node): generational reclaim while a replay is paused
/// must count each eviction exactly once in the cache statistics, and
/// the engine must restart the stalled step through the slow engine.
///
/// The scenario needs `trim_cache`: within `run_steps` the engine only
/// reclaims in slow mode, when no replay position is held, so the
/// non-resident resume node can only materialize when a driver releases
/// memory *between* budget-bounded calls — pause mid-replay, trim,
/// resume.
#[test]
fn eviction_between_bursts_is_counted_once_and_restarts_the_step() {
    let mut s = sim(
        LOOPING_SRC,
        SimOptions {
            memoize: true,
            // Roomy enough that the ring replays (no reclaim treadmill)
            // but small enough that generations hold only a node or two,
            // so a trim's pins do not cover the whole ring.
            cache_capacity: Some(800),
            cache_policy: CachePolicy::Generational,
        },
    );
    let obs = observe(&mut s, 64);
    // Pause mid-replay every 25 steps and trim to zero: everything
    // unpinned goes, including the generation holding the paused
    // replay position (only the recording and cursor generations are
    // pinned), so the resume node is evicted out from under the
    // replay.
    while s.halted().is_none() {
        s.run_steps(25);
        s.trim_cache(0);
    }
    assert_eq!(s.halted(), Some(HaltReason::Explicit));
    let cs = s.cache_stats();
    assert!(cs.evictions > 0, "capacity never forced an eviction");
    assert!(cs.bytes_evicted > 0);
    // Counted exactly once: the byte ledger balances, so no eviction
    // was double-charged (or charged as a clear as well).
    assert_eq!(
        cs.bytes_total,
        cs.bytes_current + cs.bytes_cleared + cs.bytes_evicted
    );
    assert_eq!(cs.bytes_cleared, 0, "generational policy never clears wholesale");

    // The restart is reached: every fast→slow hand-off is a miss, a
    // clean boundary or a restart of an evicted resume node, so more
    // hand-offs than misses and boundaries means some step restarted.
    assert_eq!(obs.dropped_events(), 0, "the ring kept every event");
    let handoffs = obs
        .drain_events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::EngineSwitch { from: EngineTag::Fast, .. }))
        .count() as u64;
    let m = obs.metrics().expect("metrics attached");
    assert!(
        handoffs > m.misses + m.need_slow,
        "no evicted resume node restarted: {handoffs} hand-offs, {} misses, {} boundaries",
        m.misses,
        m.need_slow
    );

    // And the whole run is still transparent: an unbounded-cache run
    // retires the same instructions.
    let mut free = sim(LOOPING_SRC, SimOptions::default());
    free.run_steps(100_000);
    assert_eq!(s.stats().insns, free.stats().insns);
    assert_eq!(s.trace(), free.trace());
}

/// Observability transparency: a run with metrics, the trace ring and
/// the timeline attached is bit-for-bit the unobserved run — same
/// counters, same output trace, same memory digest.
#[test]
fn recorder_does_not_perturb_the_simulation() {
    let mut bare = sim(LOOPING_SRC, SimOptions::default());
    bare.run_steps(100_000);

    let mut observed = sim(LOOPING_SRC, SimOptions::default());
    observe(&mut observed, 64);
    observed.run_steps(100_000);

    assert_eq!(bare.halted(), observed.halted());
    assert_eq!(bare.stats().insns, observed.stats().insns);
    assert_eq!(bare.stats().cycles, observed.stats().cycles);
    assert_eq!(bare.stats().fast_steps, observed.stats().fast_steps);
    assert_eq!(bare.stats().slow_steps, observed.stats().slow_steps);
    assert_eq!(bare.stats().misses, observed.stats().misses);
    assert_eq!(bare.trace(), observed.trace());
    assert_eq!(
        bare.memory().digest(),
        observed.memory().digest(),
        "observing the run changed simulated memory"
    );

    // A one-step epoch interval is equally transparent.
    let mut fine = sim(LOOPING_SRC, SimOptions::default());
    observe(&mut fine, 1);
    fine.run_steps(100_000);
    assert_eq!(bare.stats().insns, fine.stats().insns);
    assert_eq!(bare.memory().digest(), fine.memory().digest());
}

/// Splitmix64: a tiny deterministic generator so the torture schedule
/// below is reproducible without pulling in a dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A longer run of the looping program so recorded generations are
/// evicted and re-recorded many times under the random schedule.
const TORTURE_SRC: &str = "fun main(x : int) {
    val c = mem_ld(0);
    mem_st(0, c + 1);
    count_insns(1);
    if (c >= 6000) { sim_halt(); }
    next((x + 1) % 11);
}";

/// Randomized eviction torture for replay: random budget slices
/// interleaved with random `trim_cache` calls (full and partial) on a
/// generational cache sized far below the working set, so replay
/// positions, recorded links and cursors are evicted out from under the
/// engines many times per run. Whatever the schedule, the run must stay
/// bit-for-bit identical to the slow-only simulator.
#[test]
fn replay_survives_randomized_eviction_torture() {
    let mut slow_only = sim(
        TORTURE_SRC,
        SimOptions {
            memoize: false,
            ..SimOptions::default()
        },
    );
    assert_eq!(slow_only.run_steps(1_000_000), Some(HaltReason::Explicit));

    let (mut evictions, mut fast_steps) = (0u64, 0u64);
    for seed in 1u64..=8 {
        let mut rng = SplitMix(seed);
        let mut s = sim(
            TORTURE_SRC,
            SimOptions {
                memoize: true,
                cache_capacity: Some(900),
                cache_policy: CachePolicy::Generational,
            },
        );
        while s.halted().is_none() {
            s.run_steps(1 + rng.next() % 97);
            match rng.next() % 4 {
                // Full trim: every unpinned generation goes, the paused
                // replay position included.
                0 => s.trim_cache(0),
                // Partial trim: only the coldest generations go.
                1 => s.trim_cache(rng.next() % 600),
                // Let the run breathe so replay resumes.
                _ => {}
            }
        }
        assert_eq!(s.halted(), Some(HaltReason::Explicit), "seed {seed}");
        assert_eq!(s.stats().insns, slow_only.stats().insns, "seed {seed}");
        assert_eq!(s.stats().cycles, slow_only.stats().cycles, "seed {seed}");
        assert_eq!(s.trace(), slow_only.trace(), "seed {seed}");
        assert_eq!(
            s.memory().digest(),
            slow_only.memory().digest(),
            "seed {seed}: replay under eviction torture diverged from slow-only"
        );
        evictions += s.cache_stats().evictions;
        fast_steps += s.stats().fast_steps;
    }
    // The schedule must actually exercise the machinery: across the
    // seeds, generations were evicted and replay ran.
    assert!(evictions > 0, "no generation was ever evicted under torture");
    assert!(fast_steps > 0, "no step was ever replayed under torture");
}
