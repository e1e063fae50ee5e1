//! The shipped external host against a reference binding.
//!
//! `ArchHost` owns its cache hierarchy, branch predictor and BTB and
//! dispatches each external with a `match`. The reference here binds
//! the same components the plainest way: one closure per external
//! through `Simulation::bind_external`, sharing the components through
//! `Arc<Mutex<_>>`. Both in-order and out-of-order simulators, on three
//! workloads and a program of indirect returns (the BTB's only user),
//! memo on and off, must see the same halt reason, instruction and cycle
//! counts, final memory and external-call count under either binding,
//! and memo on must see what memo off sees. The in-order model's cycles
//! are checked by nothing else (`cross_validation` compares the
//! out-of-order model's against `fastsim`).

use facile::hosts::{initial_args, ArchHost};
use facile::{compile_source, CompilerOptions, SimOptions, Simulation, Target};
use facile_arch::bpred::{BranchPredictor, Btb, Gshare};
use facile_arch::cache::Hierarchy;
use facile_runtime::{HaltReason, Image};
use std::sync::{Arc, Mutex};

/// Binds the workspace-standard components as one locked closure per
/// external. Externals the simulator does not declare are skipped.
fn bind_reference(sim: &mut Simulation) {
    let hierarchy = Arc::new(Mutex::new(Hierarchy::new()));
    let predictor = Arc::new(Mutex::new(Gshare::new(4096, 10)));
    let btb = Arc::new(Mutex::new(Btb::new(512)));
    let bound = |r: Result<(), facile::SimError>| match r {
        Ok(()) | Err(facile::SimError::UnknownExternal(_)) => {}
        Err(e) => panic!("binding the reference: {e}"),
    };
    let h = hierarchy.clone();
    bound(sim.bind_external("icache", move |args| {
        h.lock().unwrap().inst_access(args[0] as u64) as i64
    }));
    let h = hierarchy;
    bound(sim.bind_external("dcache", move |args| {
        h.lock().unwrap().data_access(args[0] as u64, args[1] != 0) as i64
    }));
    let p = predictor.clone();
    bound(sim.bind_external("bp_predict", move |args| {
        p.lock().unwrap().predict(args[0] as u64) as i64
    }));
    let p = predictor;
    bound(sim.bind_external("bp_update", move |args| {
        p.lock().unwrap().update(args[0] as u64, args[1] != 0);
        0
    }));
    bound(sim.bind_external("btb_lookup", move |args| {
        let (pc, actual) = (args[0] as u64, args[1] as u64);
        let mut btb = btb.lock().unwrap();
        let hit = btb.predict(pc) == Some(actual);
        btb.update(pc, actual);
        hit as i64
    }));
}

/// What either binding must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    halt: Option<HaltReason>,
    insns: u64,
    cycles: u64,
    memory: u64,
    ext_calls: u64,
}

fn run(
    step: &facile::CompiledStep,
    arch: &str,
    image: &Image,
    memoize: bool,
    reference: bool,
) -> Observed {
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(image),
        &initial_args::for_arch(arch, image.entry),
        SimOptions {
            memoize,
            ..SimOptions::default()
        },
    )
    .expect("constructs");
    if reference {
        bind_reference(&mut sim);
    } else {
        ArchHost::new().bind(&mut sim).expect("binds");
    }
    sim.run_steps(u64::MAX >> 1);
    let s = sim.stats();
    Observed {
        halt: sim.halted(),
        insns: s.insns,
        cycles: s.cycles,
        memory: sim.memory().digest(),
        ext_calls: s.ext_calls,
    }
}

/// Calls through `jalr` returns, which the suite's workloads never make:
/// each return always goes back to the same call site, so a BTB that
/// learns hits and one that does not misses.
const CALLS: &str = "addi r1, r0, 200
    loop: jal f
    jal g
    addi r1, r1, -1
    bne r1, r0, loop
    out r2
    halt
    f: addi r2, r2, 1
    jalr r0, r31
    g: addi r2, r2, 3
    jalr r0, r31";

#[test]
fn arch_host_matches_the_locked_closure_reference() {
    let mut images: Vec<(&str, Image)> = ["099.go", "126.gcc", "102.swim"]
        .into_iter()
        .map(|n| {
            let w = facile_workloads::by_name(n).expect("suite workload");
            (n, facile_workloads::build_image(&w, 0.002))
        })
        .collect();
    images.push((
        "calls",
        facile_isa::assemble_image(CALLS, 0x1_0000, vec![]).expect("assembles"),
    ));
    for (arch, src) in [
        ("inorder", facile::sims::inorder_source()),
        ("ooo", facile::sims::ooo_source()),
    ] {
        let step = compile_source(&src, &CompilerOptions::default()).expect("compiles");
        for (name, image) in &images {
            let [memo, plain] = [true, false].map(|memoize| {
                let host = run(&step, arch, image, memoize, false);
                let reference = run(&step, arch, image, memoize, true);
                assert_eq!(host, reference, "{arch} {name}, memo {memoize}");
                host
            });
            assert!(memo.halt.is_some(), "{arch} {name}: never halted");
            assert!(memo.ext_calls > 0, "{arch} {name}: no external calls");
            assert_eq!(memo, plain, "{arch} {name}: memo on and off disagree");
        }
    }
}
