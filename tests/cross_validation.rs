//! Cross-simulator validation: every simulator in the workspace must
//! retire the golden instruction stream, and the hand-coded memoizing
//! simulator (fastsim) must agree cycle-for-cycle with the
//! Facile-compiled out-of-order simulator — they implement the same
//! timing model, one by hand (the paper's §6.1) and one through the
//! compiler (§6.2).

use facile::hosts::{initial_args, ArchHost};
use facile::{compile_source, CompilerOptions, SimOptions, Simulation, Target};
use facile_isa::interp::Cpu;
use facile_runtime::Image;

fn golden(image: &Image) -> Cpu {
    let mut t = Target::load(image);
    let mut cpu = Cpu::new(&t);
    cpu.run(&mut t, 100_000_000);
    assert!(cpu.halted);
    cpu
}

fn ooo_step() -> &'static facile::CompiledStep {
    use std::sync::OnceLock;
    static STEP: OnceLock<facile::CompiledStep> = OnceLock::new();
    STEP.get_or_init(|| {
        compile_source(&facile::sims::ooo_source(), &CompilerOptions::default())
            .expect("ooo compiles")
    })
}

fn facile_ooo(image: &Image, memoize: bool) -> Simulation {
    let step = ooo_step().clone();
    let mut sim = Simulation::new(
        step,
        Target::load(image),
        &initial_args::ooo(image.entry),
        SimOptions {
            memoize,
            cache_capacity: None,
            ..SimOptions::default()
        },
    )
    .expect("constructs");
    ArchHost::new().bind(&mut sim).expect("binds");
    sim.run_steps(u64::MAX >> 1);
    assert!(sim.halted().is_some());
    sim
}

#[test]
fn fastsim_and_facile_agree_cycle_for_cycle() {
    // The whole suite at a small scale: the hand-coded and the
    // compiler-generated simulator implement one timing model.
    for w in facile_workloads::suite() {
        let name = w.name;
        let image = facile_workloads::build_image(&w, 0.002);
        let g = golden(&image);

        let mut fs = fastsim::FastSim::new(&image, true, None);
        fs.run(100_000_000);
        let fac = facile_ooo(&image, true);

        assert_eq!(fs.stats.insns, g.insns, "{name}: fastsim vs golden");
        assert_eq!(fac.stats().insns, g.insns, "{name}: facile vs golden");
        assert_eq!(fs.out, g.out, "{name}: fastsim outputs");
        assert_eq!(fac.trace(), g.out.as_slice(), "{name}: facile outputs");
        assert_eq!(
            fs.stats.cycles,
            fac.stats().cycles,
            "{name}: hand-coded and compiler-generated timing diverged"
        );
    }
}

/// Calls whose `jalr` always returns to one site: each return's BTB
/// entry trains once and then hits.
const ONE_RETURN_SITE: &str = "addi r1, r0, 200
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

/// One function called from two sites: its `jalr` alternates between
/// two return targets, so the BTB mispredicts it.
const TWO_RETURN_SITES: &str = "addi r1, r0, 200
    loop: jal f
    addi r3, r3, 1
    jal f
    addi r1, r1, -1
    bne r1, r0, loop
    out r2
    out r3
    halt
    f: addi r2, r2, 1
    jalr r0, r31";

#[test]
fn fastsim_and_facile_agree_on_indirect_jumps() {
    // No suite workload makes an indirect jump, so the BTB paths of the
    // two timing models are compared here, hit and miss.
    let mut cycles = Vec::new();
    for (name, asm) in [
        ("one return site", ONE_RETURN_SITE),
        ("two return sites", TWO_RETURN_SITES),
    ] {
        let image = facile_isa::assemble_image(asm, 0x1_0000, vec![]).expect("assembles");
        let g = golden(&image);
        let mut fs = fastsim::FastSim::new(&image, true, None);
        fs.run(100_000_000);
        assert_eq!(fs.stats.insns, g.insns, "{name}: fastsim vs golden");
        assert_eq!(fs.out, g.out, "{name}: fastsim outputs");
        for memoize in [true, false] {
            let fac = facile_ooo(&image, memoize);
            assert_eq!(fac.stats().insns, g.insns, "{name}, memo {memoize}: facile vs golden");
            assert_eq!(fac.trace(), g.out.as_slice(), "{name}, memo {memoize}: outputs");
            assert_eq!(
                fac.stats().cycles,
                fs.stats.cycles,
                "{name}, memo {memoize}: hand-coded and compiler-generated timing diverged"
            );
        }
        eprintln!("{name}: {} insns, {} cycles", g.insns, fs.stats.cycles);
        cycles.push((fs.stats.cycles, g.insns));
    }
    // The alternating returns cost mispredictions the single-site ones
    // do not: more cycles per instruction.
    let [(hit_cycles, hit_insns), (miss_cycles, miss_insns)] = cycles[..] else {
        unreachable!("two programs")
    };
    assert!(
        miss_cycles * hit_insns > hit_cycles * miss_insns,
        "alternating returns ran no slower: {cycles:?}"
    );
}

#[test]
fn simplescalar_retires_the_golden_stream_on_workloads() {
    for name in ["126.gcc", "102.swim"] {
        let w = facile_workloads::by_name(name).unwrap();
        let image = facile_workloads::build_image(&w, 0.005);
        let g = golden(&image);
        let mut ss = simplescalar::SimpleScalar::new(&image, simplescalar::Config::default());
        ss.run(100_000_000);
        assert_eq!(ss.stats.insns, g.insns, "{name}");
        assert_eq!(ss.out, g.out, "{name}");
    }
}

#[test]
fn all_four_engines_agree_on_architecture() {
    let w = facile_workloads::by_name("124.m88ksim").unwrap();
    let image = facile_workloads::build_image(&w, 0.005);
    let g = golden(&image);

    let fac_fast = facile_ooo(&image, true);
    let fac_slow = facile_ooo(&image, false);
    let mut fs = fastsim::FastSim::new(&image, true, None);
    fs.run(100_000_000);
    let mut ss = simplescalar::SimpleScalar::new(&image, simplescalar::Config::default());
    ss.run(100_000_000);

    for (label, insns, out) in [
        ("facile+memo", fac_fast.stats().insns, fac_fast.trace().to_vec()),
        ("facile-slow", fac_slow.stats().insns, fac_slow.trace().to_vec()),
        ("fastsim", fs.stats.insns, fs.out.clone()),
        ("simplescalar", ss.stats.insns, ss.out.clone()),
    ] {
        assert_eq!(insns, g.insns, "{label} instruction count");
        assert_eq!(out, g.out, "{label} outputs");
    }
    // And the two fast-forwarding simulators agree on timing.
    assert_eq!(fac_fast.stats().cycles, fac_slow.stats().cycles);
    assert_eq!(fac_fast.stats().cycles, fs.stats.cycles);
}
