#![warn(missing_docs)]

//! Seeded random Facile step functions for differential tests.
//!
//! [`Gen`] writes whole programs: nested `if`/`while` over scalar
//! locals, scalar and aggregate globals, a local array, a queue
//! parameter, `?verify`-ed external calls, memory and traces. A seed
//! maps to the same source text on every platform (the generator draws
//! from the in-tree splitmix64 [`Rng`]), so a failing seed reproduces
//! exactly.
//!
//! Two shapes are offered:
//!
//! * [`Gen::program`] — for the static analyses: loop conditions are
//!   arbitrary, so the program need not terminate, and keys are
//!   unbounded.
//! * [`Gen::sim_program`] — for running: every `while` is bounded by a
//!   counter, the key, queue lengths and memory addresses are kept
//!   small so that steps repeat (and the action cache replays them),
//!   every step retires one instruction, and a dynamic step counter
//!   halts the run at a seeded step.
//!
//! Both declare `ext fun probe(a : int) : int`, which a runner binds.
//!
//! This crate is test support only: other crates take it as a
//! dev-dependency.
//!
//! ```
//! let src = facile_testgen::Gen::sim_program(7);
//! assert!(src.contains("fun main(x : int, iq : queue)"));
//! assert_eq!(src, facile_testgen::Gen::sim_program(7));
//! ```

use facile_runtime::rng::Rng;

/// A random Facile program generator (see the crate docs).
pub struct Gen {
    rng: Rng,
    out: String,
    /// Generate the runnable shape ([`Gen::sim_program`]).
    sim: bool,
    /// Loop counters declared so far (runnable shape).
    loops: usize,
}

const LOCALS: [&str; 4] = ["l0", "l1", "l2", "l3"];
const SCALAR_GLOBALS: [&str; 3] = ["g0", "g1", "g2"];
const QUEUES: [&str; 2] = ["Q", "iq"];
/// Iterations a `while` of the runnable shape may take.
const LOOP_BOUND: u32 = 3;

impl Gen {
    /// A program for the static analyses (see the crate docs).
    pub fn program(seed: u64) -> String {
        Gen::generate(seed, false)
    }

    /// A program that runs, with steps that repeat (see the crate docs).
    pub fn sim_program(seed: u64) -> String {
        Gen::generate(seed, true)
    }

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

    /// A memory address: any atom, or a small one in the runnable shape.
    fn addr(&mut self) -> String {
        let a = self.atom();
        if self.sim {
            format!("(({a}) & 255)")
        } else {
            a
        }
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
                    0 if self.sim => format!(
                        "{q}?push_back(({}) & 1); if ({q}?len > 2) {{ {q}?pop_front(); }}",
                        self.expr()
                    ),
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
                let s = format!("mem_st({}, {});", self.addr(), self.atom());
                self.line(depth, &s);
            }
            8 => {
                let s = format!("{} = mem_ld({});", self.rng.pick(&LOCALS), self.addr());
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
            _ if self.sim => {
                let w = format!("w{}", self.loops);
                self.loops += 1;
                let s = format!("{w} = 0;");
                self.line(depth, &s);
                let s = format!("while ({w} < {LOOP_BOUND} && {}) {{", self.expr());
                self.line(depth, &s);
                self.line(depth + 1, &format!("{w} = {w} + 1;"));
                self.block(depth + 1);
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

    fn generate(seed: u64, sim: bool) -> String {
        let mut g = Gen {
            rng: Rng::new(seed),
            out: String::new(),
            sim,
            loops: 0,
        };
        g.out.push_str(
            "ext fun probe(a : int) : int;\n\
             val g0 = 0;\nval g1 = 0;\nval g2 = 0;\n\
             val R = array(8){0};\nval Q : queue;\n",
        );
        if sim {
            g.out.push_str("val steps = 0;\n");
        }
        g.out.push_str("fun main(x : int, iq : queue) {\n");
        for l in LOCALS {
            let init = *g.rng.pick(&["0", "1", "x", "g0", "R[0]"]);
            g.line(0, &format!("val {l} = {init};"));
        }
        g.line(0, "val a : array(4);");
        let counters_at = g.out.len();
        if sim {
            let limit = g.rng.range_i64(100, 1000);
            g.line(0, "count_insns(1);");
            g.line(0, "steps = steps + 1;");
            g.line(0, &format!("if (steps == {limit}) {{ sim_halt(); }}"));
        }
        g.block(0);
        let key = g.expr();
        if sim {
            g.line(0, &format!("next(({key}) & 3, iq);"));
            let decls: String = (0..g.loops).map(|w| format!("  val w{w} = 0;\n")).collect();
            g.out.insert_str(counters_at, &decls);
        } else {
            g.line(0, &format!("next({key}, iq);"));
        }
        g.out.push_str("}\n");
        g.out
    }
}
