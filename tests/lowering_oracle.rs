//! The optimized slow program against the plain lowering.
//!
//! Memo-off and memo-on runs share the slow program the compiler
//! optimizes (`program::optimize`), so comparing them cannot see a bug in
//! it. The reference here is the same compiled step with its program
//! rebuilt by the plain lowering (`program::lower`): a memo-off run of
//! each must halt alike and agree on steps, instructions, cycles, the
//! trace stream, the memory digest and every global.

use facile::hosts::{initial_args, ArchHost};
use facile::{compile_source, CompiledStep, CompilerOptions, SimOptions, Simulation, Target};

/// `step` with the plain lowering as its program.
fn unoptimized(step: &CompiledStep) -> CompiledStep {
    let mut plain = step.clone();
    let mut actions = plain.actions.clone();
    plain.program = facile_codegen::program::lower(&plain.ir, &mut actions, &plain.blocks);
    plain
}

/// What a memo-off run must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    halt: Option<facile::HaltReason>,
    steps: u64,
    insns: u64,
    cycles: u64,
    trace: Vec<i64>,
    memory: u64,
    globals: Vec<Option<i64>>,
}

fn run(step: &CompiledStep, arch: &str, image: &facile::Image) -> Observed {
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(image),
        &initial_args::for_arch(arch, image.entry),
        SimOptions {
            memoize: false,
            ..SimOptions::default()
        },
    )
    .expect("simulation constructs");
    ArchHost::new().bind(&mut sim).expect("externals bind");
    sim.run_steps(u64::MAX >> 1);
    let s = sim.stats();
    Observed {
        halt: sim.halted(),
        steps: s.fast_steps + s.slow_steps,
        insns: s.insns,
        cycles: s.cycles,
        trace: sim.trace().to_vec(),
        memory: sim.memory().digest(),
        globals: (step.ir.globals.iter())
            .map(|g| sim.global_scalar(&g.name))
            .collect(),
    }
}

#[test]
fn optimized_and_plain_programs_agree_on_workloads() {
    for (arch, src) in [
        ("inorder", facile::sims::inorder_source()),
        ("ooo", facile::sims::ooo_source()),
    ] {
        let step = compile_source(&src, &CompilerOptions::default()).expect("compiles");
        let plain = unoptimized(&step);
        assert_ne!(
            step.program.ops, plain.program.ops,
            "{arch}: nothing optimized"
        );
        for name in ["099.go", "126.gcc", "102.swim"] {
            let w = facile_workloads::by_name(name).expect("suite workload");
            let image = facile_workloads::build_image(&w, 0.005);
            let got = run(&step, arch, &image);
            assert!(got.halt.is_some(), "{arch} {name}: halts");
            assert_eq!(got, run(&plain, arch, &image), "{arch} {name}");
        }
    }
}
