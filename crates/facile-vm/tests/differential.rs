//! Seeded randomized differential testing of the two-engine regime.
//!
//! For a dynamic-rich step function (external latencies, data memory,
//! queue bookkeeping, a verified result test, traces), a memoized run —
//! which mixes slow recording, fast replay and miss recovery — must be
//! observationally identical to a slow-only run: same halt reason, same
//! cycle and instruction totals, same trace, same final memory. The
//! external latency source is the in-tree splitmix64 PRNG, seeded per
//! case, so every failure reproduces exactly.
//!
//! The second case widens the sweep from one program to hundreds:
//! seeded step functions from `facile-testgen`, each run under every
//! engine configuration — trims and warm starts included — and compared
//! against its memo-off run. Every configuration runs the one optimized
//! slow program (`program::optimize`), so each memo-off run is also
//! compared with a memo-off run of the plain lowering
//! (`program::lower`).

use facile_codegen::{compile, CodegenConfig, CompiledStep};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::cache::CachePolicy;
use facile_runtime::{HaltReason, Image, Rng, Target};
use facile_testgen::Gen;
use facile_vm::engine::{ArgValue, SimOptions, Simulation};
use facile_vm::snapshot;

const SRC: &str = "ext fun lat(a : int) : int;
    fun main(iq : queue, pc : int) {
        iq?push_back(pc % 7);
        if (iq?len > 3) { iq?pop_front(); }
        val c = mem_ld(0);
        mem_st(0, c + 1);
        val l = lat(pc)?verify;
        count_cycles(l + iq?len);
        count_insns(1);
        trace(c * 1000 + l);
        mem_st1(64 + (c % 32), l);
        if (c >= 150) { sim_halt(); }
        next(iq, (pc + l) % 13);
    }";

fn build() -> facile_codegen::CompiledStep {
    let mut diags = Diagnostics::new();
    let prog = parse(SRC, &mut diags);
    let syms = facile_sema::analyze(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(SRC));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
}

fn run(step: &facile_codegen::CompiledStep, seed: u64, memoize: bool) -> Simulation {
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(&Image::default()),
        &[ArgValue::Queue(vec![]), ArgValue::Scalar(0)],
        SimOptions {
            memoize,
            cache_capacity: None,
            ..SimOptions::default()
        },
    )
    .unwrap();
    let mut rng = Rng::new(seed);
    sim.bind_external("lat", move |_args| 1 + rng.index(4) as i64)
        .unwrap();
    sim.run_steps(100_000);
    sim
}

/// Every seed drives the same program through both regimes; all
/// observable state must agree, and the stats must agree modulo the
/// fast/slow attribution split.
#[test]
fn mixed_engine_run_matches_slow_only_run() {
    let step = build();
    let mut saw_fast_forwarding = false;
    let mut saw_recovery = false;
    for case in 0..12u64 {
        let seed = 0xd1ff_0000 + case;
        let mixed = run(&step, seed, true);
        let slow = run(&step, seed, false);

        assert_eq!(mixed.halted(), slow.halted(), "seed {seed}: halt reasons");
        let (ms, ss) = (mixed.stats(), slow.stats());
        assert_eq!(ms.cycles, ss.cycles, "seed {seed}: cycles");
        assert_eq!(ms.insns, ss.insns, "seed {seed}: insns");
        assert_eq!(ms.ext_calls, ss.ext_calls, "seed {seed}: ext calls");
        assert_eq!(mixed.trace(), slow.trace(), "seed {seed}: traces");

        // The split itself: every instruction is attributed to exactly
        // one engine, and the slow-only run attributes everything slow.
        assert_eq!(
            ms.fast_insns + ms.slow_insns,
            ms.insns,
            "seed {seed}: engine split covers all instructions"
        );
        assert_eq!(ss.fast_steps, 0, "seed {seed}: slow-only ran fast steps");
        assert_eq!(ss.slow_insns, ss.insns, "seed {seed}: slow-only split");

        // Final simulated memory: the step counter and the latency
        // scratch region the program writes.
        for addr in 0..128u64 {
            assert_eq!(
                mixed.memory().load(addr, 1),
                slow.memory().load(addr, 1),
                "seed {seed}: memory differs at {addr}"
            );
        }

        saw_fast_forwarding |= ms.fast_steps > 0;
        saw_recovery |= ms.recoveries > 0;
    }
    // The comparison is only meaningful if the mixed runs actually
    // exercised replay and miss recovery somewhere in the sweep.
    assert!(saw_fast_forwarding, "no seed fast-forwarded");
    assert!(saw_recovery, "no seed hit miss recovery");
}

/// What a run must reproduce under every engine configuration.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    halt: Option<HaltReason>,
    steps: u64,
    insns: u64,
    cycles: u64,
    trace: Vec<i64>,
    memory: u64,
}

/// Steps each generated program runs (unless it halts first).
const GEN_STEPS: u64 = 1000;

/// How a configuration drives its run of [`GEN_STEPS`] steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Drive {
    /// Straight through.
    Plain,
    /// `trim_cache(0)` half-way through.
    TrimHalfway,
    /// Warm-started from the snapshot of a run stopped half-way.
    WarmHalf,
    /// Warm-started from the snapshot a [`Drive::WarmHalf`] run saves at
    /// its end (its refreeze).
    WarmRefreeze,
}

/// A simulation of `step` from key `(x, [])`, with `probe` answering
/// from a seeded stream of small values.
fn new_generated(
    step: &std::sync::Arc<facile_codegen::CompiledStep>,
    x: i64,
    seed: u64,
    options: SimOptions,
) -> Simulation {
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(&Image::default()),
        &[ArgValue::Scalar(x), ArgValue::Queue(vec![])],
        options,
    )
    .unwrap();
    let mut rng = Rng::new(seed);
    sim.bind_external("probe", move |_args| rng.below(4) as i64)
        .unwrap();
    sim
}

/// Warm-starts a fresh simulation from `donor`'s snapshot.
fn warm_from(
    donor: &Simulation,
    step: &std::sync::Arc<facile_codegen::CompiledStep>,
    x: i64,
    seed: u64,
    options: SimOptions,
) -> Simulation {
    let snap = snapshot::parse(&snapshot::save(donor)).expect("own snapshot parses");
    let mut sim = new_generated(step, x, seed, options);
    snap.validate(&sim).expect("own snapshot validates");
    sim.warm_start(snap.image()).expect("a fresh simulation warm-starts");
    sim
}

/// Runs `step` from key `(x, [])` for [`GEN_STEPS`] steps, driven as
/// `drive` says. Also says whether the drive took effect: the trim
/// released bytes, the warm start installed a snapshot.
fn run_generated(
    step: &std::sync::Arc<facile_codegen::CompiledStep>,
    x: i64,
    seed: u64,
    options: SimOptions,
    drive: Drive,
) -> (Simulation, bool) {
    let half = GEN_STEPS / 2;
    let mut sim = match drive {
        Drive::Plain | Drive::TrimHalfway => new_generated(step, x, seed, options),
        Drive::WarmHalf => {
            let mut donor = new_generated(step, x, seed, options);
            donor.run_steps(half);
            warm_from(&donor, step, x, seed, options)
        }
        Drive::WarmRefreeze => {
            let (donor, _) = run_generated(step, x, seed, options, Drive::WarmHalf);
            warm_from(&donor, step, x, seed, options)
        }
    };
    let effect = if drive == Drive::TrimHalfway {
        sim.run_steps(half);
        let bytes = sim.cache_stats().bytes_current;
        sim.trim_cache(0);
        let released = sim.cache_stats().bytes_current < bytes;
        sim.run_steps(GEN_STEPS - half);
        released
    } else {
        let installed = sim.cache_stats().frozen_gens > 0;
        sim.run_steps(GEN_STEPS);
        installed || drive == Drive::Plain
    };
    assert!(sim.fault().is_none(), "{:?}", sim.fault());
    (sim, effect)
}

/// Every global's final value: exact for memo-off runs (the fast engine
/// may leave run-time-static globals stale).
fn globals(sim: &Simulation) -> Vec<Option<i64>> {
    let ir = &sim.compiled().ir;
    ir.globals.iter().map(|g| sim.global_scalar(&g.name)).collect()
}

/// `step` with the plain lowering (`program::lower`) as its program in
/// place of the optimized one: the oracle for `program::optimize`.
fn unoptimized(step: &CompiledStep) -> CompiledStep {
    let mut plain = step.clone();
    let mut actions = plain.actions.clone();
    plain.program = facile_codegen::program::lower(&plain.ir, &mut actions, &plain.blocks);
    plain
}

fn observed(sim: &Simulation) -> Observed {
    let s = sim.stats();
    Observed {
        halt: sim.halted(),
        steps: s.fast_steps + s.slow_steps,
        insns: s.insns,
        cycles: s.cycles,
        trace: sim.trace().to_vec(),
        memory: sim.memory().digest(),
    }
}

/// Compiler-wide transparency: for 200 generated step functions, every
/// engine configuration — memoization with supertraces off, supertraces
/// compiled at the first hot burst, generational eviction at a capacity
/// of a few nodes, `trim_cache(0)` half-way through a generational run
/// (256-byte cache: small generations, so the trim has unpinned ones to
/// evict) and through a clear-on-full run, a warm start from a half-run
/// snapshot and one from that warm run's refreeze — observes exactly
/// what the memo-off run observes, and so does a memo-off run of the
/// plain lowering, globals included. Across the sweep, replay, misses,
/// recoveries, supertrace entries and evictions must all happen, and in
/// most runs the trims must release bytes and the warm starts must
/// install their snapshots (186, 200, 200 and 200 of 200 do), or
/// agreement says little. The sweep takes about 2 s in a debug build on
/// a 2-vCPU host.
#[test]
fn generated_step_functions_agree_under_every_engine_configuration() {
    let memo = SimOptions {
        memoize: true,
        cache_capacity: None,
        ..SimOptions::default()
    };
    let configs = [
        (
            "supertrace off",
            SimOptions {
                supertrace: false,
                ..memo
            },
            Drive::Plain,
        ),
        (
            "supertrace threshold 1",
            SimOptions {
                supertrace_threshold: 1,
                ..memo
            },
            Drive::Plain,
        ),
        (
            "generational, tiny capacity",
            SimOptions {
                cache_capacity: Some(32),
                cache_policy: CachePolicy::Generational,
                ..memo
            },
            Drive::Plain,
        ),
        (
            "generational, trim_cache(0) half-way",
            SimOptions {
                cache_capacity: Some(256),
                cache_policy: CachePolicy::Generational,
                ..memo
            },
            Drive::TrimHalfway,
        ),
        (
            "clear, trim_cache(0) half-way",
            SimOptions {
                cache_policy: CachePolicy::Clear,
                ..memo
            },
            Drive::TrimHalfway,
        ),
        ("warm from a half-run snapshot", memo, Drive::WarmHalf),
        ("warm from the warm run's refreeze", memo, Drive::WarmRefreeze),
    ];
    let (mut fast_steps, mut misses, mut recoveries) = (0u64, 0u64, 0u64);
    let (mut enters, mut evictions) = (0u64, 0u64);
    let (mut warm, mut refrozen) = (0u32, 0u32);
    // Trims that released bytes, generational and clear-on-full.
    let mut trims = [0u32; 2];
    for seed in 0..200u64 {
        let src = Gen::sim_program(seed);
        let mut diags = Diagnostics::new();
        let prog = parse(&src, &mut diags);
        let syms = facile_sema::analyze(&prog, &mut diags);
        assert!(
            !diags.has_errors(),
            "seed {seed}: {}",
            diags.render_all(&src)
        );
        let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
        let step = std::sync::Arc::new(
            compile(ir, &CodegenConfig::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}")),
        );
        let x = (seed % 4) as i64;
        let probes = 0x9e4_0000 + seed;
        let (slow, _) = run_generated(
            &step,
            x,
            probes,
            SimOptions {
                memoize: false,
                ..memo
            },
            Drive::Plain,
        );
        let want = observed(&slow);
        let plain = std::sync::Arc::new(unoptimized(&step));
        let (reference, _) = run_generated(
            &plain,
            x,
            probes,
            SimOptions {
                memoize: false,
                ..memo
            },
            Drive::Plain,
        );
        assert_eq!(observed(&reference), want, "seed {seed}, plain lowering:\n{src}");
        assert_eq!(
            globals(&reference),
            globals(&slow),
            "seed {seed}, plain lowering globals:\n{src}"
        );
        for (name, options, drive) in configs {
            let (sim, effect) = run_generated(&step, x, probes, options, drive);
            assert_eq!(observed(&sim), want, "seed {seed}, {name}:\n{src}");
            let s = sim.stats();
            fast_steps += s.fast_steps;
            misses += s.misses;
            recoveries += s.recoveries;
            enters += sim.trace_stats().enters;
            evictions += sim.cache_stats().evictions;
            match drive {
                Drive::Plain => {}
                Drive::TrimHalfway => {
                    trims[(options.cache_policy == CachePolicy::Clear) as usize] += effect as u32
                }
                Drive::WarmHalf => warm += effect as u32,
                Drive::WarmRefreeze => refrozen += effect as u32,
            }
        }
    }
    assert!(
        fast_steps > 0 && misses > 0 && recoveries > 0 && enters > 0 && evictions > 0,
        "replayed steps {fast_steps}, misses {misses}, recoveries {recoveries}, \
         supertrace enters {enters}, evictions {evictions}"
    );
    eprintln!(
        "generated sweep: trims released bytes in {trims:?} (generational, clear), \
         half-run snapshots installed in {warm}, refreezes in {refrozen} of 200"
    );
    assert!(
        trims.iter().all(|&t| t >= 150) && warm >= 150 && refrozen >= 150,
        "of 200 seeds, trims released bytes in {trims:?} (generational, clear), half-run \
         snapshots installed in {warm}, refreezes installed in {refrozen}"
    );
}

/// Step functions shaped at the edges of `program::optimize`: a compare
/// result branched on and read again, loop variables incremented at a
/// join, and a loop whose head is a dynamic test (a jump back to a test
/// close).
const OPTIMIZER_EDGES: &[&str] = &[
    "ext fun probe(a : int) : int;
     fun main(x : int, iq : queue) {
       val c = x < 3;
       if (c) { iq?push_back(1); }
       iq?push_back(c);
       if (iq?len > 4) { iq?pop_front(); }
       count_cycles(iq?get(0) + 1);
       count_insns(1);
       trace(iq?get(0));
       next((x + probe(x)?verify) % 7, iq);
     }",
    "ext fun probe(a : int) : int;
     fun main(x : int, iq : queue) {
       val i = 0;
       val n = 0;
       while (i < 5) {
         if (x == i) { i = i + 2; n = n + 1; }
         i = i + 1;
       }
       count_cycles(n + 1);
       count_insns(1);
       trace(i * 10 + n);
       next((x + 1 + probe(n)?verify) % 5, iq);
     }",
    "ext fun probe(a : int) : int;
     fun main(x : int, iq : queue) {
       val c = probe(x);
       val n = 0;
       while (c) {
         n = n + 1;
         c = probe(n);
         if (n > 3) { c = 0; }
       }
       val j = 0;
       while (j < 2) { j = j + 1; }
       if (iq?len < 2) { iq?push_back(j); }
       count_cycles(n + 1);
       count_insns(1);
       trace(n);
       next((x + n) % 6, iq);
     }",
];

/// Each edge program, memo off and memo on, observes what a memo-off run
/// of its plain lowering observes.
#[test]
fn optimizer_edge_cases_agree_with_the_plain_lowering() {
    for (k, src) in OPTIMIZER_EDGES.iter().enumerate() {
        let mut diags = Diagnostics::new();
        let prog = parse(src, &mut diags);
        let syms = facile_sema::analyze(&prog, &mut diags);
        assert!(!diags.has_errors(), "program {k}: {}", diags.render_all(src));
        let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
        let step = std::sync::Arc::new(compile(ir, &CodegenConfig::default()).expect("compiles"));
        let plain = std::sync::Arc::new(unoptimized(&step));
        assert_ne!(step.program.ops, plain.program.ops, "program {k}: nothing optimized");
        for x in 0..4 {
            let probes = 0xed9e_0000 + k as u64 * 8 + x as u64;
            let memo = |memoize| SimOptions {
                memoize,
                cache_capacity: None,
                ..SimOptions::default()
            };
            let (reference, _) = run_generated(&plain, x, probes, memo(false), Drive::Plain);
            let want = observed(&reference);
            for (name, step, memoize) in [("memo off", &step, false), ("memo on", &step, true)] {
                let (sim, _) = run_generated(step, x, probes, memo(memoize), Drive::Plain);
                assert_eq!(observed(&sim), want, "program {k}, x {x}, {name}");
                if !memoize {
                    assert_eq!(globals(&sim), globals(&reference), "program {k}, x {x}");
                }
            }
        }
    }
}
