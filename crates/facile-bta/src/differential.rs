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
use facile_runtime::rng::Rng;
use facile_sema::{analyze as sema_analyze, GlobalId};

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

/// A random Facile program: nested `if`/`while` over scalar locals,
/// scalar and aggregate globals, a local array, a queue parameter,
/// verified external calls and memory.
struct Gen {
    rng: Rng,
    out: String,
}

const LOCALS: [&str; 4] = ["l0", "l1", "l2", "l3"];
const SCALAR_GLOBALS: [&str; 3] = ["g0", "g1", "g2"];
const QUEUES: [&str; 2] = ["Q", "iq"];

impl Gen {
    fn atom(&mut self) -> String {
        match self.rng.below(9) {
            0 => self.rng.range_i64(0, 9).to_string(),
            1 => "x".to_string(),
            2 | 3 => self.rng.pick(&LOCALS).to_string(),
            4 => self.rng.pick(&SCALAR_GLOBALS).to_string(),
            5 => format!("R[{}]", self.rng.pick(&LOCALS)),
            6 => format!("a[{}]", self.rng.range_i64(0, 3)),
            7 => format!("{}?len", self.rng.pick(&QUEUES)),
            _ => format!("iq?get({})", self.rng.range_i64(0, 2)),
        }
    }

    fn expr(&mut self) -> String {
        if self.rng.chance(1, 2) {
            return self.atom();
        }
        let op = *self.rng.pick(&["+", "-", "*", "==", "<"]);
        format!("({} {op} {})", self.atom(), self.atom())
    }

    fn line(&mut self, depth: usize, text: &str) {
        for _ in 0..depth + 1 {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn block(&mut self, depth: usize) {
        let n = 1 + self.rng.below(4);
        for _ in 0..n {
            self.stmt(depth);
        }
    }

    fn stmt(&mut self, depth: usize) {
        let nested = depth < 3;
        match self.rng.below(if nested { 14 } else { 11 }) {
            0 | 1 => {
                let s = format!("{} = {};", self.rng.pick(&LOCALS), self.expr());
                self.line(depth, &s);
            }
            2 => {
                let s = format!("{} = {};", self.rng.pick(&SCALAR_GLOBALS), self.expr());
                self.line(depth, &s);
            }
            3 => {
                let s = format!("R[{}] = {};", self.atom(), self.expr());
                self.line(depth, &s);
            }
            4 => {
                let s = format!("a[{}] = {};", self.rng.range_i64(0, 3), self.expr());
                self.line(depth, &s);
            }
            5 => {
                let q = self.rng.pick(&QUEUES);
                let s = match self.rng.below(4) {
                    0 => format!("{q}?push_back({});", self.expr()),
                    1 => format!("if ({q}?len > 1) {{ {q}?pop_front(); }}"),
                    2 => format!("{q}?clear();"),
                    _ => format!("if ({q}?len > 0) {{ {q}?set(0, {}); }}", self.atom()),
                };
                self.line(depth, &s);
            }
            6 => {
                let s = format!(
                    "{} = probe({})?verify;",
                    self.rng.pick(&LOCALS),
                    self.atom()
                );
                self.line(depth, &s);
            }
            7 => {
                let s = format!("mem_st({}, {});", self.atom(), self.atom());
                self.line(depth, &s);
            }
            8 => {
                let s = format!("{} = mem_ld({});", self.rng.pick(&LOCALS), self.atom());
                self.line(depth, &s);
            }
            9 => {
                let s = format!("trace({});", self.expr());
                self.line(depth, &s);
            }
            10 => {
                let s = format!("count_cycles({});", self.atom());
                self.line(depth, &s);
            }
            11 | 12 => {
                let s = format!("if ({}) {{", self.expr());
                self.line(depth, &s);
                self.block(depth + 1);
                if self.rng.chance(1, 2) {
                    self.line(depth, "} else {");
                    self.block(depth + 1);
                }
                self.line(depth, "}");
            }
            _ => {
                let s = format!("while ({}) {{", self.expr());
                self.line(depth, &s);
                self.block(depth + 1);
                self.line(depth, "}");
            }
        }
    }

    fn program(seed: u64) -> String {
        let mut g = Gen {
            rng: Rng::new(seed),
            out: String::new(),
        };
        g.out.push_str(
            "ext fun probe(a : int) : int;\n\
             val g0 = 0;\nval g1 = 0;\nval g2 = 0;\n\
             val R = array(8){0};\nval Q : queue;\n\
             fun main(x : int, iq : queue) {\n",
        );
        for l in LOCALS {
            let init = *g.rng.pick(&["0", "1", "x", "g0", "R[0]"]);
            g.line(0, &format!("val {l} = {init};"));
        }
        g.line(0, "val a : array(4);");
        g.block(0);
        let key = g.expr();
        g.line(0, &format!("next({key}, iq);"));
        g.out.push_str("}\n");
        g.out
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
