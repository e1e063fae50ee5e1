//! Ops per slow step, pinned exactly.
//!
//! The slow engine interprets the lowered step program one op at a time,
//! so the number of ops it executes per slow step is an exact, noise-free
//! yardstick for the lowering: a change to the program that every engine
//! runs shows here as a count, not as a timing. The count comes from the
//! run's metrics registry (`Metrics::slow_ops`, reported as the profile
//! section's `slow_ops`), which the slow interpreter feeds only when the
//! observer counts per-action costs.
//!
//! The pinned workload is the ooo simulator on 126.gcc at the scale of
//! `cache_golden`'s ooo case, memo on (recording) and memo off.

use facile::hosts::{initial_args, ArchHost};
use facile::{compile_source, CompilerOptions, ObsConfig, ObsHandle, SimOptions, Simulation};
use facile_runtime::Target;

/// Runs `name` at `scale` under the ooo simulator to its halt, observed;
/// returns `(slow_ops, slow_steps)`.
fn slow_ops(step: &facile::CompiledStep, name: &str, scale: f64, memoize: bool) -> (u64, u64) {
    let w = facile_workloads::by_name(name).expect("suite workload");
    let image = facile_workloads::build_image(&w, scale);
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(&image),
        &initial_args::ooo(image.entry),
        SimOptions {
            memoize,
            ..SimOptions::default()
        },
    )
    .expect("simulation constructs");
    ArchHost::new().bind(&mut sim).expect("externals bind");
    let obs = ObsHandle::new(ObsConfig {
        trace: false,
        ..ObsConfig::default()
    });
    sim.attach_obs(obs.clone());
    sim.run_steps(u64::MAX >> 1);
    assert!(sim.halted().is_some(), "{name} halts");
    let ops = obs.metrics().expect("registry attached").slow_ops;
    (ops, sim.stats().slow_steps)
}

fn ooo() -> facile::CompiledStep {
    compile_source(&facile::sims::ooo_source(), &CompilerOptions::default()).expect("ooo compiles")
}

#[test]
fn ooo_ops_per_slow_step_on_gcc_are_pinned() {
    let step = ooo();
    let got = [
        slow_ops(&step, "126.gcc", 0.005, true),
        slow_ops(&step, "126.gcc", 0.005, false),
    ];
    for (ops, steps) in got {
        eprintln!(
            "slow ops: {ops} over {steps} slow steps ({:.1} per step)",
            ops as f64 / steps as f64
        );
    }
    assert_eq!(
        got,
        [(4_381_671, 8_373), (6_269_470, 12_231)],
        "ops per slow step changed"
    );
}

#[test]
fn unobserved_runs_count_no_ops() {
    // The counting instantiation is chosen only when the observer counts
    // per-action costs: a trace-only observer gets the plain one.
    let step = ooo();
    let w = facile_workloads::by_name("126.gcc").expect("suite workload");
    let image = facile_workloads::build_image(&w, 0.002);
    let mut sim = Simulation::new(
        step,
        Target::load(&image),
        &initial_args::ooo(image.entry),
        SimOptions::default(),
    )
    .expect("simulation constructs");
    ArchHost::new().bind(&mut sim).expect("externals bind");
    let obs = ObsHandle::new(ObsConfig {
        metrics: false,
        ..ObsConfig::default()
    });
    sim.attach_obs(obs.clone());
    sim.run_steps(u64::MAX >> 1);
    assert!(sim.stats().slow_steps > 0);
    assert!(obs.metrics().is_none());
}

/// The cold-int measurement: ops per slow step over facbench cold-int's
/// five programs (unseeded) at its scale, memo on. Slow; run with
/// `cargo test --release --test slow_ops_golden -- --ignored --nocapture`.
#[test]
#[ignore]
fn cold_int_ops_per_slow_step() {
    let step = ooo();
    let (mut ops, mut steps) = (0, 0);
    for name in ["099.go", "126.gcc", "132.ijpeg", "134.perl", "147.vortex"] {
        let (o, s) = slow_ops(&step, name, 0.05, true);
        eprintln!(
            "{name}: {o} ops / {s} slow steps = {:.1}",
            o as f64 / s as f64
        );
        ops += o;
        steps += s;
    }
    eprintln!(
        "cold-int: {ops} ops / {steps} slow steps = {:.1} ops per slow step",
        ops as f64 / steps as f64
    );
}
