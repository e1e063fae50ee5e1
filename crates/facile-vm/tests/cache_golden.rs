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
cold: nodes=29128 entries=4404 clears=0 evictions=0 bytes_total=1307769 bytes_peak=1307769 slow_insns=4404 misses=167 cycles=19036 mem=1e8287dbe1d096ae snap=c5ce8125bd9f2ba2
warm: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=19036 mem=1e8287dbe1d096ae snap=c5ce8125bd9f2ba2
half: nodes=11148 entries=1683 clears=0 evictions=0 bytes_total=482653 bytes_peak=482653 slow_insns=1683 misses=83 cycles=19036 mem=1e8287dbe1d096ae snap=7cc53ae25a428bd4
refreeze: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=19036 mem=1e8287dbe1d096ae snap=7cc53ae25a428bd4
[clear]
cold: nodes=66648 entries=9998 clears=163 evictions=0 bytes_total=2706180 bytes_peak=16776 slow_insns=9998 misses=101 cycles=19036 mem=1e8287dbe1d096ae snap=999837280bd4b0c5
warm: nodes=65887 entries=9879 clears=161 evictions=0 bytes_total=2677492 bytes_peak=16776 slow_insns=9879 misses=103 cycles=19036 mem=1e8287dbe1d096ae snap=a1ecf389d3f625eb
half: nodes=63409 entries=9510 clears=156 evictions=0 bytes_total=2590227 bytes_peak=17025 slow_insns=9510 misses=118 cycles=19036 mem=1e8287dbe1d096ae snap=ef05db49e0ea26fe
refreeze: nodes=63044 entries=9450 clears=155 evictions=0 bytes_total=2578363 bytes_peak=17025 slow_insns=9450 misses=121 cycles=19036 mem=1e8287dbe1d096ae snap=8e7d5b78f4f92cb0
[generational]
cold: nodes=63802 entries=9552 clears=0 evictions=1220 bytes_total=2600152 bytes_peak=16992 slow_insns=9552 misses=113 cycles=19036 mem=1e8287dbe1d096ae snap=c78d9cdfbde1d74c
warm: nodes=62500 entries=9346 clears=0 evictions=1196 bytes_total=2552726 bytes_peak=16991 slow_insns=9346 misses=129 cycles=19036 mem=1e8287dbe1d096ae snap=812cea0b0b275a88
half: nodes=59466 entries=8912 clears=0 evictions=1148 bytes_total=2449229 bytes_peak=17015 slow_insns=8912 misses=145 cycles=19036 mem=1e8287dbe1d096ae snap=72e02e7a2d035972
refreeze: nodes=58150 entries=8705 clears=0 evictions=1123 bytes_total=2400880 bytes_peak=17001 slow_insns=8705 misses=159 cycles=19036 mem=1e8287dbe1d096ae snap=7fa7a298606b2172
";

const BRANCHY_GOLDEN: &str = "\
[unbounded]
cold: nodes=22 entries=7 clears=0 evictions=0 bytes_total=433 bytes_peak=433 slow_insns=7 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=87671821c4a4ede6
warm: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=87671821c4a4ede6
half: nodes=1 entries=0 clears=0 evictions=0 bytes_total=13 bytes_peak=13 slow_insns=0 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=eb58693b0f0bba79
refreeze: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=eb58693b0f0bba79
[clear]
cold: nodes=453 entries=151 clears=50 evictions=0 bytes_total=8804 bytes_peak=175 slow_insns=151 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=6c4ec579e1f35efc
warm: nodes=408 entries=129 clears=42 evictions=0 bytes_total=7929 bytes_peak=194 slow_insns=129 misses=21 cycles=300 mem=f9b98ea3818eb952 snap=f819d1f32d8b131b
half: nodes=259 entries=86 clears=28 evictions=0 bytes_total=5138 bytes_peak=180 slow_insns=86 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=ddbcba9fafe91e84
refreeze: nodes=6 entries=2 clears=0 evictions=0 bytes_total=125 bytes_peak=125 slow_insns=2 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=e9ff5c3cd8d28bd9
[generational]
cold: nodes=453 entries=151 clears=0 evictions=296 bytes_total=9054 bytes_peak=175 slow_insns=151 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=d98c9dd693e3c7db
warm: nodes=276 entries=85 clears=0 evictions=164 bytes_total=5399 bytes_peak=194 slow_insns=85 misses=21 cycles=300 mem=f9b98ea3818eb952 snap=a7e5fd237ab1ca36
half: nodes=259 entries=86 clears=0 evictions=166 bytes_total=5178 bytes_peak=198 slow_insns=86 misses=1 cycles=300 mem=f9b98ea3818eb952 snap=ed1a92ae4ac2e3c2
refreeze: nodes=3 entries=1 clears=0 evictions=0 bytes_total=65 bytes_peak=65 slow_insns=1 misses=0 cycles=300 mem=f9b98ea3818eb952 snap=177b91d01d3b5ed7
";

const GCC_GOLDEN: &str = "\
[unbounded]
cold: nodes=5992 entries=1181 clears=0 evictions=0 bytes_total=89872 bytes_peak=89872 slow_insns=1181 misses=200 cycles=24372 mem=bb0ea5928241d393 snap=c0d7a92a82640bf3
warm: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=24372 mem=bb0ea5928241d393 snap=c0d7a92a82640bf3
half: nodes=1263 entries=245 clears=0 evictions=0 bytes_total=18917 bytes_peak=18917 slow_insns=245 misses=51 cycles=24372 mem=bb0ea5928241d393 snap=c9906b5e1e4a143d
refreeze: nodes=0 entries=0 clears=0 evictions=0 bytes_total=0 bytes_peak=0 slow_insns=0 misses=0 cycles=24372 mem=bb0ea5928241d393 snap=c9906b5e1e4a143d
[clear]
cold: nodes=24638 entries=5114 clears=22 evictions=0 bytes_total=373898 bytes_peak=16478 slow_insns=5114 misses=428 cycles=24372 mem=bb0ea5928241d393 snap=7d2a71ae6c9583e5
warm: nodes=11248 entries=2204 clears=10 evictions=0 bytes_total=168099 bytes_peak=16460 slow_insns=2204 misses=379 cycles=24372 mem=bb0ea5928241d393 snap=1bb801d6d6d4090c
half: nodes=13884 entries=2787 clears=12 evictions=0 bytes_total=209169 bytes_peak=16476 slow_insns=2787 misses=392 cycles=24372 mem=bb0ea5928241d393 snap=c78cb1e93e2faf23
refreeze: nodes=9498 entries=1859 clears=8 evictions=0 bytes_total=141912 bytes_peak=16446 slow_insns=1859 misses=323 cycles=24372 mem=bb0ea5928241d393 snap=091ff13d3925fbac
[generational]
cold: nodes=15949 entries=3202 clears=0 evictions=109 bytes_total=240320 bytes_peak=16519 slow_insns=3202 misses=454 cycles=24372 mem=bb0ea5928241d393 snap=6a695914caaa9a27
warm: nodes=9198 entries=1788 clears=0 evictions=59 bytes_total=137346 bytes_peak=16483 slow_insns=1788 misses=341 cycles=24372 mem=bb0ea5928241d393 snap=90c98ba5e99987aa
half: nodes=10674 entries=2092 clears=0 evictions=70 bytes_total=159640 bytes_peak=16547 slow_insns=2092 misses=370 cycles=24372 mem=bb0ea5928241d393 snap=b15b03496a4d2efc
refreeze: nodes=7251 entries=1407 clears=0 evictions=45 bytes_total=108217 bytes_peak=16564 slow_insns=1407 misses=270 cycles=24372 mem=bb0ea5928241d393 snap=413f957b5a3e3d3a
";
