//! Golden compile output of the shipped simulators.
//!
//! The middle end (binding-time analysis, lift insertion, action
//! extraction) may change how it computes its results, but not what it
//! emits: the compiled step decides simulated results, cycle counts and
//! whether existing `facile-snap/v1` snapshots still load. Each simulator
//! pins three hashes:
//!
//! * the compiled output — IR, action table, debug records, slow-engine
//!   annotations, key layout and the binding-time labels the tools read;
//! * [`step_fingerprint`], the value stored in every snapshot header;
//! * the lowered program the slow engine and miss recovery run.

use facile::sims::{functional_source, inorder_source, ooo_source};
use facile::{compile_source, CompiledStep, CompilerOptions};
use facile_runtime::key::hash_bytes;
use facile_vm::snapshot::step_fingerprint;

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
        0x2003_204e_baed_27d1,
        0x1bc3_1dad_4e28_f6fb,
        0x0a19_0b0d_8b46_a11b,
    );
}

#[test]
fn inorder_compiles_to_the_golden_step() {
    check(
        "inorder",
        &inorder_source(),
        0x7a37_ec1e_4e38_dc2b,
        0x8d00_e41e_7b28_e346,
        0xfd52_9947_dac5_a6ac,
    );
}

#[test]
fn ooo_compiles_to_the_golden_step() {
    check(
        "ooo",
        &ooo_source(),
        0x7dcb_3702_d816_3a91,
        0x913c_2d25_c8ed_4405,
        0x11ad_5a8e_c0b9_85f7,
    );
}
