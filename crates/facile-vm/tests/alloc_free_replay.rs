//! Proves the steady-state fast-replay loop is allocation-free, and a
//! warm start's install allocates independent of the snapshot's size.
//!
//! A counting global allocator (this integration test is its own binary,
//! so the allocator is private to it) watches a window of pure replay:
//! after the action cache has recorded every key variant of a cyclic
//! program, continuing to fast-forward must perform zero heap
//! allocations — node data is read from the cache slab, dynamic INDEX
//! signatures and entry keys live in reused scratch buffers, external
//! calls stage their arguments in a reused buffer, and the
//! replayed-action log retains its capacity across steps.

use facile_codegen::program::Op;
use facile_codegen::{compile, CodegenConfig};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::{Image, Target};
use facile_vm::engine::{ArgValue, SimOptions, Simulation};
use facile_vm::snapshot;
use facile_vm::ExtHost;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocator counts every thread's allocations, so the tests of
/// this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Keys cycle 0..7 with a dynamic memory counter, a dynamic result test
/// and a dynamic INDEX signature component — the full replay feature set
/// — plus an external call on dynamic data and an array indexed by the
/// key (a placeholder load fused into its element ops).
const SRC: &str = "ext fun lat(a : int) : int;
    val R = array(8){0};
    fun main(x : int) {
        val c = mem_ld(0);
        mem_st(0, c + 1);
        R[x] = R[x] + lat(c);
        count_insns(1);
        count_cycles(2);
        if (c >= 100000) { sim_halt(); }
        next((x + 1) % 7);
    }";

/// The external host: a latency from the argument's low bits.
struct Lat;

impl ExtHost for Lat {
    fn call(&mut self, _ext: usize, args: &[i64]) -> i64 {
        1 + (args[0] & 3)
    }
}

fn sim(src: &str) -> Simulation {
    let mut diags = Diagnostics::new();
    let prog = parse(src, &mut diags);
    let syms = facile_sema::analyze(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(src));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    let step = compile(ir, &CodegenConfig::default()).expect("codegen succeeds");
    let mut sim = Simulation::new(
        step,
        Target::load(&Image::default()),
        &[ArgValue::Scalar(0)],
        SimOptions::default(),
    )
    .unwrap();
    sim.set_host(Lat);
    sim
}

#[test]
fn steady_state_replay_allocates_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = sim(SRC);
    assert!(
        (sim.compiled().program.replay.iter())
            .any(|op| matches!(op, Op::LdElemGet { .. } | Op::LdElemSet { .. })),
        "no replay op loads its element index"
    );

    // Warm up: record all 7 key variants and let replay buffers reach
    // their steady-state capacities.
    sim.run_steps(200);
    // Budget-bounded bursts resume at a key that advances by
    // 1000 mod 7 per call, so at most 7 distinct burst heads recur;
    // eight more bursts reach every one of them.
    for _ in 0..8 {
        sim.run_steps(1_000);
    }
    let warm = *sim.stats();
    assert!(warm.fast_steps > 0, "warm-up never fast-forwarded");

    // Measured window: 1000 steps of pure replay.
    let a0 = ALLOCS.load(Ordering::Relaxed);
    sim.run_steps(1_000);
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let s = sim.stats();

    assert_eq!(
        s.fast_steps - warm.fast_steps,
        1_000,
        "window was not pure fast replay (slow steps: {})",
        s.slow_steps - warm.slow_steps
    );
    assert_eq!(s.slow_steps, warm.slow_steps, "window hit the slow engine");
    assert_eq!(
        s.ext_calls - warm.ext_calls,
        1_000,
        "every replayed step calls the host once"
    );
    assert_eq!(
        allocs, 0,
        "steady-state replay performed {allocs} heap allocations in 1000 steps"
    );
}

/// Records `SRC` with its keys cycling over `keys` values, then warm
/// starts three fresh simulations from one parse of its snapshot.
/// Returns the snapshot's entry count and the most heap allocations one
/// install made.
fn install_allocations(keys: u32) -> (usize, u64) {
    let src = SRC.replace("% 7", &format!("% {keys}"));
    let mut cold = sim(&src);
    cold.run_steps(4 * keys as u64);
    let loaded = snapshot::parse(&snapshot::save(&cold)).expect("own snapshot parses");
    let mut most = 0;
    for _ in 0..3 {
        let mut warm = sim(&src);
        loaded.validate(&warm).expect("own snapshot validates");
        let a0 = ALLOCS.load(Ordering::Relaxed);
        warm.warm_start(loaded.image()).expect("fresh simulation warm-starts");
        most = most.max(ALLOCS.load(Ordering::Relaxed) - a0);
        warm.run_steps(keys as u64);
        assert_eq!(warm.stats().slow_steps, 0, "the install is used");
    }
    (loaded.image().entry_count(), most)
}

#[test]
fn installing_a_snapshot_allocates_independent_of_its_entries() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (few, small) = install_allocations(7);
    let (many, large) = install_allocations(700);
    assert!(many >= 50 * few, "{few} vs {many} entries");
    assert_eq!(
        small, large,
        "an install allocated {small} times for {few} entries, {large} for {many}"
    );
}
