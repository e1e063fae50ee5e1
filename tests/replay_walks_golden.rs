//! Node walks and replay ops per fast step, pinned exactly.
//!
//! The fast engine replays a step by walking action-cache nodes: each
//! walk is one node lookup, one residency check and one successor
//! choice, and runs the replay ops of the node's actions. Both counts are
//! exact, noise-free yardsticks for the replay loop's layout: a change to
//! how recorded actions are grouped into nodes shows here as a count,
//! not as a timing. They come from the run's metrics registry
//! (`Metrics::replay_walks` and `replay_ops`, reported in the profile
//! section), which the fast engine feeds only when the observer counts
//! per-action costs.
//!
//! The pinned workloads are the ooo simulator, memo on, on 126.gcc at
//! the scale of `slow_ops_golden` and on 145.fpppp.

use facile::hosts::{initial_args, ArchHost};
use facile::{compile_source, CompilerOptions, ObsConfig, ObsHandle, SimOptions, Simulation};
use facile_runtime::Target;

/// Runs `name` at `scale` under the ooo simulator to its halt, observed;
/// returns `(replay_walks, replay_ops, fast_steps)`.
fn replay_counts(step: &facile::CompiledStep, name: &str, scale: f64) -> (u64, u64, u64) {
    let w = facile_workloads::by_name(name).expect("suite workload");
    let image = facile_workloads::build_image(&w, scale);
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(&image),
        &initial_args::ooo(image.entry),
        SimOptions::default(),
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
    let m = obs.metrics().expect("registry attached");
    (m.replay_walks, m.replay_ops, sim.stats().fast_steps)
}

fn ooo() -> facile::CompiledStep {
    compile_source(&facile::sims::ooo_source(), &CompilerOptions::default()).expect("ooo compiles")
}

#[test]
fn ooo_walks_and_ops_per_fast_step_are_pinned() {
    let step = ooo();
    let got = [
        replay_counts(&step, "126.gcc", 0.005),
        replay_counts(&step, "145.fpppp", 0.02),
    ];
    for (walks, ops, steps) in got {
        eprintln!(
            "replay: {walks} walks, {ops} ops over {steps} fast steps \
             ({:.2} walks, {:.1} ops per step)",
            walks as f64 / steps as f64,
            ops as f64 / steps as f64
        );
    }
    assert_eq!(
        got,
        [(11_895, 62_597, 3_858), (252_131, 1_469_924, 100_225)],
        "walks or ops per fast step changed"
    );
}

#[test]
fn unobserved_runs_count_no_walks() {
    // The counting instantiation is chosen only when the observer counts
    // per-action costs: a trace-only observer gets the plain one.
    let step = ooo();
    let w = facile_workloads::by_name("145.fpppp").expect("suite workload");
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
    assert!(sim.stats().fast_steps > 0);
    assert!(obs.metrics().is_none());
}
