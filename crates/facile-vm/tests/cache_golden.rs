//! Golden action-cache behaviour: cold, warm and partially warm runs
//! under every capacity policy.
//!
//! The action cache may change how it stores the memoized graph, but not
//! what it memoizes, when it clears or evicts, or what a snapshot of it
//! holds: those decide slow-path work, byte accounting and whether
//! existing `facile-snap/v1` files still load. Each case runs one
//! program under one policy four ways:
//!
//! * **cold** — from an empty cache to the halt;
//! * **warm** — installed from the cold run's snapshot;
//! * **half** — installed from a snapshot taken after half the cold
//!   run's steps, so the second half records on top of installed
//!   storage (the copy-on-write overlay);
//! * **refreeze** — the snapshot of the half run, installed again.
//!
//! Every run pins its cache counters, slow instructions, misses, cycles,
//! the memory digest and a hash of its `snapshot::save` bytes.

use facile_codegen::{compile, CodegenConfig, CompiledStep};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::key::hash_bytes;
use facile_runtime::{CachePolicy, Image, Target};
use facile_sema::analyze as sema;
use facile_vm::engine::{ArgValue, SimOptions, Simulation};
use facile_vm::snapshot;
use std::fmt::Write;
use std::sync::Arc;

/// The branchy looping simulator of `snapshot_persistence.rs`: INDEX
/// chains, a verified external forking TEST successors, memory state.
const BRANCHY: &str = "ext fun flip(salt : int) : int;
    fun main(x : int) {
      count_insns(1);
      val t = flip(x)?verify;
      trace(t);
      count_cycles(t + 1);
      val c = mem_ld(0);
      mem_st(0, c + 1);
      if (c >= 150) { sim_halt(); }
      next((x + t + 1) % 7);
    }";

/// The shipped functional TRISC simulator.
fn functional_source() -> String {
    format!(
        "{}\n{}",
        include_str!("../../core/sims/trisc.fac"),
        include_str!("../../core/sims/functional.fac")
    )
}

fn build(src: &str) -> CompiledStep {
    let mut diags = Diagnostics::new();
    let prog = parse(src, &mut diags);
    let syms = sema(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(src));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
}

/// One program: a compiled step, its target image and entry arguments.
struct Program {
    step: Arc<CompiledStep>,
    image: Image,
    args: Vec<ArgValue>,
    branchy: bool,
}

impl Program {
    fn branchy() -> Program {
        Program {
            step: Arc::new(build(BRANCHY)),
            image: Image::default(),
            args: vec![ArgValue::Scalar(0)],
            branchy: true,
        }
    }

    fn workload(name: &str, scale: f64) -> Program {
        let w = facile_workloads::by_name(name).expect("workload exists");
        let image = facile_workloads::build_image(&w, scale);
        let args = vec![ArgValue::Scalar(image.entry as i64)];
        Program {
            step: Arc::new(build(&functional_source())),
            image,
            args,
            branchy: false,
        }
    }

    fn sim(&self, opts: SimOptions) -> Simulation {
        let mut s = Simulation::new(
            Arc::clone(&self.step),
            Target::load(&self.image),
            &self.args,
            opts,
        )
        .expect("simulation constructs");
        if self.branchy {
            s.bind_external("flip", |args| {
                args[0].wrapping_mul(31).wrapping_add(7).rem_euclid(3)
            })
            .unwrap();
        }
        s
    }
}

/// Runs `sim` (warm-started from `snap` when given) for at most `steps`
/// steps and appends its pinned line to `out`. Returns the simulation.
fn run(
    out: &mut String,
    label: &str,
    p: &Program,
    opts: SimOptions,
    snap: Option<&[u8]>,
    steps: u64,
) -> Simulation {
    let mut s = p.sim(opts);
    if let Some(bytes) = snap {
        let loaded = snapshot::parse(bytes).expect("own snapshot parses");
        loaded.validate(&s).expect("own snapshot validates");
        s.warm_start(loaded.image())
            .expect("fresh simulation warm-starts");
    }
    s.run_steps(steps);
    let c = s.cache_stats();
    let st = s.stats();
    writeln!(
        out,
        "{label}: nodes={} entries={} clears={} evictions={} bytes_total={} bytes_peak={} \
         slow_insns={} misses={} cycles={} mem={:016x} snap={:016x}",
        c.nodes_created,
        c.entries_created,
        c.clears,
        c.evictions,
        c.bytes_total,
        c.bytes_peak,
        st.slow_insns,
        st.misses,
        st.cycles,
        s.memory().digest(),
        hash_bytes(&snapshot::save(&s)),
    )
    .unwrap();
    s
}

/// The four runs of one case, one line each.
fn case(p: &Program, capacity: Option<u64>, policy: CachePolicy) -> String {
    let opts = || SimOptions {
        cache_capacity: capacity,
        cache_policy: policy,
        ..SimOptions::default()
    };
    const ALL: u64 = u64::MAX;
    let mut out = String::new();
    let cold = run(&mut out, "cold", p, opts(), None, ALL);
    assert!(cold.halted().is_some(), "cold run must finish");
    let total = cold.stats().fast_steps + cold.stats().slow_steps;
    let full = snapshot::save(&cold);
    run(&mut out, "warm", p, opts(), Some(&full), ALL);

    let mut first = p.sim(opts());
    first.run_steps(total / 2);
    let partial = snapshot::save(&first);
    let half = run(&mut out, "half", p, opts(), Some(&partial), ALL);
    let refrozen = snapshot::save(&half);
    run(&mut out, "refreeze", p, opts(), Some(&refrozen), ALL);
    out
}

/// Every case of one program: unbounded, then `Clear` and
/// `Generational` at a capacity far below the program's working set.
fn cases(p: &Program, tiny: u64) -> String {
    let mut out = String::new();
    for (name, capacity, policy) in [
        ("unbounded", None, CachePolicy::Clear),
        ("clear", Some(tiny), CachePolicy::Clear),
        ("generational", Some(tiny), CachePolicy::Generational),
    ] {
        writeln!(out, "[{name}]").unwrap();
        out.push_str(&case(p, capacity, policy));
    }
    out
}

fn check(name: &str, got: String, want: &str) {
    assert_eq!(
        got.trim(),
        want.trim(),
        "{name}: action-cache behaviour changed; got:\n{got}"
    );
}

#[test]
fn branchy_cache_golden() {
    check("branchy", cases(&Program::branchy(), 120), BRANCHY_GOLDEN);
}

#[test]
fn workload_cache_golden() {
    check(
        "126.gcc",
        cases(&Program::workload("126.gcc", 0.01), 16 << 10),
        GCC_GOLDEN,
    );
}

const BRANCHY_GOLDEN: &str = "\
[unbounded]
cold: nodes=22 entries=7 clears=0 evictions=0 bytes_total=433 bytes_peak=433 slow_insns=7 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=360cc79bd85c307c
warm: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=360cc79bd85c307c
half: nodes=1 entries=0 clears=0 evictions=0 bytes_total=13 bytes_peak=13 slow_insns=0 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=ac555ced51d38066
refreeze: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=ac555ced51d38066
[clear]
cold: nodes=453 entries=151 clears=50 evictions=0 bytes_total=8804 bytes_peak=175 slow_insns=151 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=54d85ba1254fe80f
warm: nodes=408 entries=129 clears=42 evictions=0 bytes_total=7929 bytes_peak=194 slow_insns=129 misses=21 cycles=300 mem=f9b98ea3818eb952 snap=3258439cdf77fb11
half: nodes=259 entries=86 clears=28 evictions=0 bytes_total=5138 bytes_peak=180 slow_insns=86 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=15173b2e4af746bb
refreeze: nodes=6 entries=2 clears=0 evictions=0 bytes_total=125 bytes_peak=125 slow_insns=2 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=e612aee43fd95ff1
[generational]
cold: nodes=453 entries=151 clears=0 evictions=296 bytes_total=9054 bytes_peak=175 slow_insns=151 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=091610626a04dbc7
warm: nodes=276 entries=85 clears=0 evictions=164 bytes_total=5399 bytes_peak=194 slow_insns=85 misses=21 cycles=300 mem=f9b98ea3818eb952 snap=fc7ccf538517ff85
half: nodes=259 entries=86 clears=0 evictions=166 bytes_total=5178 bytes_peak=198 slow_insns=86 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=20d2535e6f94016e
refreeze: nodes=3 entries=1 clears=0 evictions=0 bytes_total=65 bytes_peak=65 slow_insns=1 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=f069758889e2acc0
";

const GCC_GOLDEN: &str = "\
[unbounded]
cold: nodes=5992 entries=1181 clears=0 evictions=0 bytes_total=89872 bytes_peak=89872 slow_insns=1181 misses=200 cycles=24372 mem=bb0ea5928241d393 snap=973e8d11815b41ee
warm: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=24372 mem=bb0ea5928241d393 snap=8b9e7bb7d7e335b3
half: nodes=1263 entries=245 clears=0 evictions=0 bytes_total=18917 bytes_peak=18917 slow_insns=245 misses=51 cycles=24372 mem=bb0ea5928241d393 snap=2be8f71b1653c948
refreeze: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=24372 mem=bb0ea5928241d393 snap=0606f2e5ad8263b3
[clear]
cold: nodes=24638 entries=5114 clears=22 evictions=0 bytes_total=373898 bytes_peak=16478 slow_insns=5114 misses=428 cycles=24372 mem=bb0ea5928241d393 snap=3f1de8e94021d9ca
warm: nodes=11248 entries=2204 clears=10 evictions=0 bytes_total=168099 bytes_peak=16460 slow_insns=2204 misses=379 cycles=24372 mem=bb0ea5928241d393 snap=998a7188cee301de
half: nodes=13884 entries=2787 clears=12 evictions=0 bytes_total=209169 bytes_peak=16476 slow_insns=2787 misses=392 cycles=24372 mem=bb0ea5928241d393 snap=a231ff210167ee29
refreeze: nodes=9498 entries=1859 clears=8 evictions=0 bytes_total=141912 bytes_peak=16446 slow_insns=1859 misses=323 cycles=24372 mem=bb0ea5928241d393 snap=ddd158d1f761c711
[generational]
cold: nodes=15949 entries=3202 clears=0 evictions=109 bytes_total=240320 bytes_peak=16519 slow_insns=3202 misses=454 cycles=24372 mem=bb0ea5928241d393 snap=4d754f773ee1b54f
warm: nodes=9198 entries=1788 clears=0 evictions=59 bytes_total=137346 bytes_peak=16483 slow_insns=1788 misses=341 cycles=24372 mem=bb0ea5928241d393 snap=b4bb2e5729a29064
half: nodes=10674 entries=2092 clears=0 evictions=70 bytes_total=159640 bytes_peak=16547 slow_insns=2092 misses=370 cycles=24372 mem=bb0ea5928241d393 snap=4419d89f74a92d74
refreeze: nodes=7251 entries=1407 clears=0 evictions=45 bytes_total=108217 bytes_peak=16564 slow_insns=1407 misses=270 cycles=24372 mem=bb0ea5928241d393 snap=7857022d64303dc6
";
