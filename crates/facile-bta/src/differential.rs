//! Differential tests: the bit-set analyses against the dense oracle.
//!
//! Every program the unit tests build goes through [`build`], which
//! checks it here; the shipped simulators and a seeded generator of
//! random control-flow shapes add larger and stranger CFGs. For each
//! program, the binding-time labels and environments, variable and
//! global liveness, and the lifted IR (under both lift configurations)
//! must equal the oracle's exactly.

use crate::bta::{analyze, Bt, Env};
use crate::lifts::{insert_lifts, LiftConfig, LiftStats};
use crate::oracle;
use facile_ir::fold::fold_constants;
use facile_ir::ir::*;
use facile_ir::liveness::{entry_live_globals, var_liveness};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_sema::{analyze as sema_analyze, GlobalId};
use facile_testgen::Gen;

/// Parses, checks and lowers `src`, then asserts the production passes
/// agree with the oracle on it.
pub(crate) fn build(src: &str) -> IrProgram {
    let mut diags = Diagnostics::new();
    let prog = parse(src, &mut diags);
    let syms = sema_analyze(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}\n{src}", diags.render_all(src));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    assert_agrees(&ir);
    ir
}

/// The dense view of a bit-plane environment.
fn dense(env: &Env, ir: &IrProgram) -> (Vec<Bt>, Vec<Bt>) {
    let vars = (0..ir.main.vars.len())
        .map(|v| env.var(VarId(v as u32)))
        .collect();
    let globals = (0..ir.globals.len())
        .map(|g| env.global(GlobalId(g as u32)))
        .collect();
    (vars, globals)
}

fn assert_analysis_agrees(ir: &IrProgram, what: &str) {
    let bta = analyze(ir);
    let want = oracle::analyze(ir);
    assert_eq!(bta.order, want.order, "{what}: order");
    assert_eq!(bta.inst_dynamic, want.inst_dynamic, "{what}: inst labels");
    assert_eq!(bta.term_dynamic, want.term_dynamic, "{what}: term labels");
    for &b in &bta.order {
        let (e, x) = (&want.entry[b.index()], &want.exit[b.index()]);
        assert_eq!(
            dense(&bta.entry[b.index()], ir),
            (e.vars.clone(), e.globals.clone()),
            "{what}: entry env of {b}"
        );
        assert_eq!(
            dense(&bta.exit[b.index()], ir),
            (x.vars.clone(), x.globals.clone()),
            "{what}: exit env of {b}"
        );
    }

    let live = var_liveness(&ir.main);
    let want = oracle::var_liveness(&ir.main);
    let sorted = |s: &std::collections::HashSet<VarId>| {
        let mut v: Vec<usize> = s.iter().map(|v| v.index()).collect();
        v.sort_unstable();
        v
    };
    for b in 0..ir.main.blocks.len() {
        let got_in: Vec<usize> = live.live_in[b].iter().collect();
        let got_out: Vec<usize> = live.live_out[b].iter().collect();
        assert_eq!(got_in, sorted(&want.live_in[b]), "{what}: live-in of bb{b}");
        assert_eq!(
            got_out,
            sorted(&want.live_out[b]),
            "{what}: live-out of bb{b}"
        );
    }

    let globals: Vec<usize> = entry_live_globals(&ir.main, ir.globals.len())
        .iter()
        .collect();
    let mut want: Vec<usize> = oracle::entry_live_globals(&ir.main)
        .iter()
        .map(|g| g.index())
        .collect();
    want.sort_unstable();
    assert_eq!(globals, want, "{what}: entry-live globals");
}

/// Asserts that analysis, liveness and lift insertion agree with the
/// oracle on `ir`, and again on the lifted results; returns the lift
/// statistics under the default configuration.
pub(crate) fn assert_agrees(ir: &IrProgram) -> LiftStats {
    assert_analysis_agrees(ir, "lowered");
    let unpruned = LiftConfig {
        prune_dead_flushes: false,
        prune_dead_var_lifts: false,
    };
    let mut default_stats = LiftStats::default();
    for config in [unpruned, LiftConfig::default()] {
        let mut got = ir.clone();
        let (bta, stats) = insert_lifts(&mut got, config).expect("lift insertion converges");
        let mut want = ir.clone();
        let (want_bta, want_stats) = oracle::insert_lifts(&mut want, config);
        let what = format!("lifted under {config:?}");
        assert_eq!(stats, want_stats, "{what}: stats");
        assert_eq!(
            format!("{:?}", got.main),
            format!("{:?}", want.main),
            "{what}: IR"
        );
        assert_eq!(bta.inst_dynamic, want_bta.inst_dynamic, "{what}: labels");
        assert_eq!(bta.term_dynamic, want_bta.term_dynamic, "{what}: labels");
        assert_analysis_agrees(&got, &what);
        default_stats = stats;
    }
    default_stats
}

/// `src` lowered and checked, then folded the way the compiler pipeline
/// does and checked again.
fn check_with_folding(src: &str) -> LiftStats {
    let mut ir = build(src);
    fold_constants(&mut ir.main);
    assert_agrees(&ir)
}

#[test]
fn shipped_simulators_agree_with_the_oracle() {
    let trisc = include_str!("../../core/sims/trisc.fac");
    for main in [
        include_str!("../../core/sims/functional.fac"),
        include_str!("../../core/sims/inorder.fac"),
        include_str!("../../core/sims/ooo.fac"),
    ] {
        check_with_folding(&format!("{trisc}\n{main}"));
    }
}

#[test]
fn random_programs_agree_with_the_oracle() {
    let mut total = LiftStats::default();
    for seed in 0..200 {
        let stats = check_with_folding(&Gen::program(seed));
        total.edge_lifts += stats.edge_lifts;
        total.agg_lifts += stats.agg_lifts;
        total.flushes += stats.flushes;
        total.flushes_pruned += stats.flushes_pruned;
    }
    // The generator must reach every kind of transition, or agreement
    // says little.
    assert!(
        total.edge_lifts > 0
            && total.agg_lifts > 0
            && total.flushes > 0
            && total.flushes_pruned > 0,
        "{total:?}"
    );
}
