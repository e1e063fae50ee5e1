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
//! engine configuration and compared against its memo-off run.

use facile_codegen::{compile, CodegenConfig};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::cache::CachePolicy;
use facile_runtime::{HaltReason, Image, Rng, Target};
use facile_testgen::Gen;
use facile_vm::engine::{ArgValue, SimOptions, Simulation};

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

/// Runs `step` from key `(x, [])` for [`GEN_STEPS`] steps with `probe`
/// answering from a seeded stream of small values.
fn run_generated(
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
    sim.run_steps(GEN_STEPS);
    assert!(sim.fault().is_none(), "{:?}", sim.fault());
    sim
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
/// compiled at the first hot burst, and generational eviction at a
/// capacity of a few nodes — observes exactly what the memo-off run
/// observes. Across the sweep, replay, misses, recoveries, supertrace
/// entries and evictions must all happen, or agreement says little.
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
        ),
        (
            "supertrace threshold 1",
            SimOptions {
                supertrace_threshold: 1,
                ..memo
            },
        ),
        (
            "generational, tiny capacity",
            SimOptions {
                cache_capacity: Some(32),
                cache_policy: CachePolicy::Generational,
                ..memo
            },
        ),
    ];
    let (mut fast_steps, mut misses, mut recoveries) = (0u64, 0u64, 0u64);
    let (mut enters, mut evictions) = (0u64, 0u64);
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
        let want = observed(&run_generated(
            &step,
            x,
            probes,
            SimOptions {
                memoize: false,
                ..memo
            },
        ));
        for (name, options) in configs {
            let sim = run_generated(&step, x, probes, options);
            assert_eq!(observed(&sim), want, "seed {seed}, {name}:\n{src}");
            let s = sim.stats();
            fast_steps += s.fast_steps;
            misses += s.misses;
            recoveries += s.recoveries;
            enters += sim.trace_stats().enters;
            evictions += sim.cache_stats().evictions;
        }
    }
    assert!(
        fast_steps > 0 && misses > 0 && recoveries > 0 && enters > 0 && evictions > 0,
        "replayed steps {fast_steps}, misses {misses}, recoveries {recoveries}, \
         supertrace enters {enters}, evictions {evictions}"
    );
}
