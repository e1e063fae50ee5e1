//! Golden action-cache behaviour: cold, warm and partially warm runs
//! under every capacity policy.
//!
//! The action cache may change how it stores the memoized graph, but not
//! what it memoizes, when it clears or evicts, or what a snapshot of it
//! holds: those decide slow-path work, byte accounting and whether
//! existing `facile-snap/v2` files still load. Each case runs one
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

/// The shipped out-of-order TRISC simulator: its INDEX nodes carry six
/// run-time-static queues and a scalar of key data each.
fn ooo_source() -> String {
    format!(
        "{}\n{}",
        include_str!("../../core/sims/trisc.fac"),
        include_str!("../../core/sims/ooo.fac")
    )
}

/// Which externals a [`Program`] binds.
#[derive(Clone, Copy)]
enum Host {
    None,
    /// `flip` for [`BRANCHY`].
    Branchy,
    /// Stateless stand-ins for the ooo simulator's caches and
    /// predictors: deterministic functions of their arguments that still
    /// fork its dynamic result tests.
    Ooo,
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
    host: Host,
}

impl Program {
    fn branchy() -> Program {
        Program {
            step: Arc::new(build(BRANCHY)),
            image: Image::default(),
            args: vec![ArgValue::Scalar(0)],
            host: Host::Branchy,
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
            host: Host::None,
        }
    }

    /// `name` at `scale` under the ooo simulator, with its shipped
    /// entry arguments (an empty window, no writer in flight).
    fn ooo_workload(name: &str, scale: f64) -> Program {
        let w = facile_workloads::by_name(name).expect("workload exists");
        let image = facile_workloads::build_image(&w, scale);
        let mut args = vec![ArgValue::Queue(vec![0; 32])];
        args.extend((0..5).map(|_| ArgValue::Queue(vec![])));
        args.extend([ArgValue::Scalar(0), ArgValue::Scalar(image.entry as i64)]);
        Program {
            step: Arc::new(build(&ooo_source())),
            image,
            args,
            host: Host::Ooo,
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
        match self.host {
            Host::None => {}
            Host::Branchy => s
                .bind_external("flip", |args| {
                    args[0].wrapping_mul(31).wrapping_add(7).rem_euclid(3)
                })
                .unwrap(),
            Host::Ooo => {
                let mix = |v: i64| (v >> 2).wrapping_mul(0x9e37_79b9).rem_euclid(97);
                s.bind_external("icache", move |a| if mix(a[0]) < 6 { 4 } else { 1 })
                    .unwrap();
                s.bind_external("dcache", move |a| if mix(a[0] + a[1]) < 12 { 6 } else { 1 })
                    .unwrap();
                s.bind_external("bp_predict", move |a| (mix(a[0]) < 70) as i64)
                    .unwrap();
                s.bind_external("bp_update", |_| 0).unwrap();
                s.bind_external("btb_lookup", move |a| (mix(a[0] ^ a[1]) >= 20) as i64)
                    .unwrap();
            }
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

#[test]
fn ooo_cache_golden() {
    check(
        "126.gcc (ooo)",
        cases(&Program::ooo_workload("126.gcc", 0.005), 16 << 10),
        OOO_GOLDEN,
    );
}

const OOO_GOLDEN: &str = "\
[unbounded]
cold: nodes=12290 entries=4404 clears=0 evictions=0 bytes_total=1307769 bytes_peak=1307769 slow_insns=4404 misses=167 cycles=19036 mem=1e8287dbe1d096ae snap=ab2b72817a905fed
warm: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=19036 mem=1e8287dbe1d096ae snap=ab2b72817a905fed
half: nodes=4654 entries=1683 clears=0 evictions=0 bytes_total=482653 bytes_peak=482653 slow_insns=1683 misses=83 cycles=19036 mem=1e8287dbe1d096ae snap=c47b0b33dc0a834b
refreeze: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=19036 mem=1e8287dbe1d096ae snap=c47b0b33dc0a834b
[clear]
cold: nodes=29772 entries=9998 clears=163 evictions=0 bytes_total=2706180 bytes_peak=16776 slow_insns=9998 misses=101 cycles=19036 mem=1e8287dbe1d096ae snap=14ea3ac199c50121
warm: nodes=29440 entries=9879 clears=161 evictions=0 bytes_total=2677492 bytes_peak=16776 slow_insns=9879 misses=103 cycles=19036 mem=1e8287dbe1d096ae snap=d6bcfd6ac4bfd508
half: nodes=28246 entries=9510 clears=156 evictions=0 bytes_total=2590227 bytes_peak=17025 slow_insns=9510 misses=118 cycles=19036 mem=1e8287dbe1d096ae snap=a9efaa53bc7acbe2
refreeze: nodes=28093 entries=9450 clears=155 evictions=0 bytes_total=2578363 bytes_peak=17025 slow_insns=9450 misses=121 cycles=19036 mem=1e8287dbe1d096ae snap=58438ba59a96d656
[generational]
cold: nodes=29330 entries=9552 clears=0 evictions=1220 bytes_total=2600152 bytes_peak=16992 slow_insns=9552 misses=113 cycles=19036 mem=1e8287dbe1d096ae snap=871f3148c0aa0db3
warm: nodes=28717 entries=9346 clears=0 evictions=1196 bytes_total=2552726 bytes_peak=16991 slow_insns=9346 misses=129 cycles=19036 mem=1e8287dbe1d096ae snap=ba646cf7ca462e6e
half: nodes=27139 entries=8912 clears=0 evictions=1148 bytes_total=2449229 bytes_peak=17015 slow_insns=8912 misses=145 cycles=19036 mem=1e8287dbe1d096ae snap=3a892f0a78cbd6b4
refreeze: nodes=26482 entries=8705 clears=0 evictions=1123 bytes_total=2400880 bytes_peak=17001 slow_insns=8705 misses=159 cycles=19036 mem=1e8287dbe1d096ae snap=8cc9829b88de4f83
";

const BRANCHY_GOLDEN: &str = "\
[unbounded]
cold: nodes=22 entries=7 clears=0 evictions=0 bytes_total=433 bytes_peak=433 slow_insns=7 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=8c7259fd37e941a5
warm: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=8c7259fd37e941a5
half: nodes=1 entries=0 clears=0 evictions=0 bytes_total=13 bytes_peak=13 slow_insns=0 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=462f5ff206e55ed1
refreeze: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=462f5ff206e55ed1
[clear]
cold: nodes=453 entries=151 clears=50 evictions=0 bytes_total=8804 bytes_peak=175 slow_insns=151 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=a36495959c048fdb
warm: nodes=408 entries=129 clears=42 evictions=0 bytes_total=7929 bytes_peak=194 slow_insns=129 misses=21 cycles=300 mem=f9b98ea3818eb952 snap=1e48c9ef37a03b4a
half: nodes=259 entries=86 clears=28 evictions=0 bytes_total=5138 bytes_peak=180 slow_insns=86 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=dbf9ecbdfcbeca4e
refreeze: nodes=6 entries=2 clears=0 evictions=0 bytes_total=125 bytes_peak=125 slow_insns=2 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=317696d50bb4a017
[generational]
cold: nodes=453 entries=151 clears=0 evictions=296 bytes_total=9054 bytes_peak=175 slow_insns=151 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=6ada0b3540a7a6c5
warm: nodes=276 entries=85 clears=0 evictions=164 bytes_total=5399 bytes_peak=194 slow_insns=85 misses=21 cycles=300 mem=f9b98ea3818eb952 snap=f733d0136a3c5b90
half: nodes=259 entries=86 clears=0 evictions=166 bytes_total=5178 bytes_peak=198 slow_insns=86 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=9e7256cc6ed66009
refreeze: nodes=3 entries=1 clears=0 evictions=0 bytes_total=65 bytes_peak=65 slow_insns=1 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=a7d7b0bfb5a78a58
";

const GCC_GOLDEN: &str = "\
[unbounded]
cold: nodes=1602 entries=1181 clears=0 evictions=0 bytes_total=89872 bytes_peak=89872 slow_insns=1181 misses=200 cycles=24372 mem=bb0ea5928241d393 snap=4058eda9baa4dd85
warm: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=24372 mem=bb0ea5928241d393 snap=4058eda9baa4dd85
half: nodes=336 entries=245 clears=0 evictions=0 bytes_total=18917 bytes_peak=18917 slow_insns=245 misses=51 cycles=24372 mem=bb0ea5928241d393 snap=2fde9da8a0579efe
refreeze: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=24372 mem=bb0ea5928241d393 snap=2fde9da8a0579efe
[clear]
cold: nodes=7095 entries=5114 clears=22 evictions=0 bytes_total=373898 bytes_peak=16478 slow_insns=5114 misses=428 cycles=24372 mem=bb0ea5928241d393 snap=957f88a5d4e9715c
warm: nodes=2938 entries=2204 clears=10 evictions=0 bytes_total=168099 bytes_peak=16460 slow_insns=2204 misses=379 cycles=24372 mem=bb0ea5928241d393 snap=78a9f228ef77570d
half: nodes=3820 entries=2787 clears=12 evictions=0 bytes_total=209169 bytes_peak=16476 slow_insns=2787 misses=392 cycles=24372 mem=bb0ea5928241d393 snap=8bfa89cc5e27e89c
refreeze: nodes=2477 entries=1859 clears=8 evictions=0 bytes_total=141912 bytes_peak=16446 slow_insns=1859 misses=323 cycles=24372 mem=bb0ea5928241d393 snap=a2d7d38ce75458ad
[generational]
cold: nodes=4743 entries=3334 clears=0 evictions=113 bytes_total=249384 bytes_peak=16537 slow_insns=3334 misses=447 cycles=24372 mem=bb0ea5928241d393 snap=8484fb3dd9fe43b6
warm: nodes=2511 entries=1810 clears=0 evictions=60 bytes_total=139066 bytes_peak=16463 slow_insns=1810 misses=351 cycles=24372 mem=bb0ea5928241d393 snap=502ede44b647c4ba
half: nodes=2571 entries=1851 clears=0 evictions=61 bytes_total=141691 bytes_peak=16472 slow_insns=1851 misses=342 cycles=24372 mem=bb0ea5928241d393 snap=8a9ba15af0abd491
refreeze: nodes=1828 entries=1320 clears=0 evictions=42 bytes_total=101662 bytes_peak=16515 slow_insns=1320 misses=260 cycles=24372 mem=bb0ea5928241d393 snap=4e1ded89a37f4c5c
";
