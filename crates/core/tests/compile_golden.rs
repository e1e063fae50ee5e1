//! Golden compile output of the shipped simulators.
//!
//! The middle end (binding-time analysis, lift insertion, action
//! extraction, lowering) may change how it computes its results, but not
//! what it emits: the compiled step decides simulated results, cycle
//! counts and whether existing `facile-snap/v2` snapshots still load.
//! Each simulator pins three hashes:
//!
//! * the compiled output — IR, action table, debug records, slow-engine
//!   annotations, key layout and the binding-time labels the tools read;
//! * [`step_fingerprint`], the value stored in every snapshot header;
//! * the lowered program every engine runs, replay ranges included.
//!
//! The fingerprint hashes the folded IR, not the engines' form, so it
//! tells every shipped simulator apart from the others and from an edit
//! of its own source.

use facile::hosts::initial_args;
use facile::sims::{functional_source, inorder_source, ooo_source};
use facile::{compile_source, CompiledStep, CompilerOptions};
use facile_runtime::key::hash_bytes;
use facile_runtime::{Image, Target};
use facile_vm::engine::{SimOptions, Simulation};
use facile_vm::snapshot::{self, step_fingerprint, SnapshotError};

/// Hash of everything the compiler hands to the engines and tools.
fn output_hash(step: &CompiledStep) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        step.ir,
        step.actions,
        step.debug,
        step.blocks,
        step.param_types,
        step.bta.order,
        step.bta.inst_dynamic,
        step.bta.term_dynamic,
    );
    hash_bytes(text.as_bytes())
}

/// Hash of the lowered program.
fn program_hash(step: &CompiledStep) -> u64 {
    hash_bytes(format!("{:?}", step.program).as_bytes())
}

fn check(name: &str, src: &str, output: u64, fingerprint: u64, program: u64) {
    let step = compile_source(src, &CompilerOptions::default())
        .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
    let got = (
        output_hash(&step),
        step_fingerprint(&step),
        program_hash(&step),
    );
    assert_eq!(
        got,
        (output, fingerprint, program),
        "{name}: compiled output changed (got output {:#018x}, fingerprint {:#018x}, \
         program {:#018x})",
        got.0,
        got.1,
        got.2
    );
}

#[test]
fn functional_compiles_to_the_golden_step() {
    check(
        "functional",
        &functional_source(),
        0x5933_96f0_5bf4_8779,
        0x94a9_2586_3022_5a16,
        0x6f59_a4d6_bdda_42dc,
    );
}

#[test]
fn inorder_compiles_to_the_golden_step() {
    check(
        "inorder",
        &inorder_source(),
        0xbe4d_53da_7008_4c53,
        0xca69_ed72_2b24_0599,
        0x229e_62b7_7429_e25a,
    );
}

#[test]
fn ooo_compiles_to_the_golden_step() {
    check(
        "ooo",
        &ooo_source(),
        0xfcfb_6f65_40b3_1566,
        0x4572_7c5b_6f7f_47a3,
        0xa6b7_90bb_8918_8fe9,
    );
}

/// A fresh simulation of `step`, started the way `arch` starts.
fn fresh(arch: &str, step: &CompiledStep) -> Simulation {
    Simulation::new(
        step.clone(),
        Target::load(&Image::default()),
        &initial_args::for_arch(arch, 0),
        SimOptions::default(),
    )
    .expect("simulation constructs")
}

#[test]
fn snapshots_are_refused_by_every_other_step() {
    let compiled =
        |src: &str| compile_source(src, &CompilerOptions::default()).expect("simulator compiles");
    let sims = [
        ("functional", compiled(&functional_source())),
        ("inorder", compiled(&inorder_source())),
        ("ooo", compiled(&ooo_source())),
    ];
    for (arch, step) in &sims {
        let snap = snapshot::parse(&snapshot::save(&fresh(arch, step))).expect("snapshot parses");
        assert_eq!(
            snap.validate(&fresh(arch, step)),
            Ok(()),
            "{arch}: own step"
        );
        for (other, other_step) in &sims {
            if other != arch {
                assert_eq!(
                    snap.validate(&fresh(other, other_step)),
                    Err(SnapshotError::FingerprintMismatch),
                    "{arch} snapshot offered to {other}"
                );
            }
        }
    }
    // One constant of the functional simulator's own source.
    let src = functional_source();
    let edited = src.replacen("count_cycles(1);", "count_cycles(2);", 1);
    assert_ne!(edited, src, "the edit applies");
    let (arch, step) = &sims[0];
    let snap = snapshot::parse(&snapshot::save(&fresh(arch, step))).expect("snapshot parses");
    assert_eq!(
        snap.validate(&fresh(arch, &compiled(&edited))),
        Err(SnapshotError::FingerprintMismatch),
        "a one-constant edit of {arch}"
    );
}
