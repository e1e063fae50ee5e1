//! The source-level profile section: exact cost and miss attribution
//! keyed by Facile source location.
//!
//! A [`Profile`] is produced at the end of an observed, memoizing run
//! by joining three things the pipeline keeps separate:
//!
//! * the per-action **debug-info table** the compiler ships alongside the
//!   action table (source span, guard span, construct kind, binding-time
//!   operand signature — resolved to line/column by the caller, since
//!   this crate sits below the compiler and never sees source text),
//! * the per-action **cost counters** from [`Metrics`](crate::Metrics)
//!   (`action_fast_insns` / `action_slow_insns` / replays / visits), and
//! * the per-action **miss attribution** (`action_misses`,
//!   `miss_values`).
//!
//! The attribution is *exact*, not sampled: instruction retirement is
//! always a dynamic op, so it happens inside some action's group in both
//! engines, and miss recovery re-executes only the run-time-static slice
//! (which retires nothing). Summing `fast_insns + slow_insns` over the
//! rows therefore reproduces `sim.insns` bit-for-bit; summing `misses`
//! reproduces `sim.misses` ([`Profile::check`]).
//!
//! Rendering helpers fold the rows into the three report shapes
//! `sim_obs` prints: a flat per-line profile, folded stacks
//! (flamegraph-compatible `a;b;c count` lines), and a top-k
//! miss-attribution table.

use crate::json::escape_into;
use crate::run::{write_list, At, DocError, SimStatsSnapshot};
use std::fmt::Write as _;

/// One action's resolved source site and attributed costs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActionRow {
    /// Action number (index into the compiled action table).
    pub action: u32,
    /// Guarding construct: `plain`, `verify`, `branch`, `switch`, `index`.
    pub kind: String,
    /// 1-based line of the start of the group's source span.
    pub line: u32,
    /// 1-based column of the start of the group's source span.
    pub col: u32,
    /// 1-based line of the end of the group's source span (inclusive).
    pub end_line: u32,
    /// 1-based line of the guard construct (the dynamic result test,
    /// branch or `next(...)` that closes the group).
    pub guard_line: u32,
    /// 1-based column of the guard construct.
    pub guard_col: u32,
    /// Operands replayed from memoized placeholders (rt-static class).
    pub ph_operands: u32,
    /// Operands read from live registers on replay (dynamic class).
    pub reg_operands: u32,
    /// Fast-engine replays of this action.
    pub replays: u64,
    /// Instructions retired by those replays.
    pub fast_insns: u64,
    /// Slow-engine (recording) executions of this action's group.
    pub slow_visits: u64,
    /// Instructions retired by those recordings.
    pub slow_insns: u64,
    /// Action-cache misses charged to this action.
    pub misses: u64,
    /// Observed divergent values at those misses: `(value, count)`.
    pub miss_values: Vec<(i64, u64)>,
}

impl ActionRow {
    /// Instructions attributed to this action across both engines.
    pub fn insns(&self) -> u64 {
        self.fast_insns.saturating_add(self.slow_insns)
    }

    /// Whether `other` describes the same compiled site.
    fn same_site(&self, other: &ActionRow) -> bool {
        (self.action, &self.kind, self.line, self.col, self.end_line)
            == (other.action, &other.kind, other.line, other.col, other.end_line)
            && (self.guard_line, self.guard_col, self.ph_operands, self.reg_operands)
                == (other.guard_line, other.guard_col, other.ph_operands, other.reg_operands)
    }
}

/// The `profile` section of a run document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Source file name the rows' lines refer to.
    pub file: String,
    /// One row per action, in action-number order.
    pub rows: Vec<ActionRow>,
    /// Misses whose divergent value exceeded the per-action tracking cap
    /// (the values are lost; the miss counts are not).
    pub miss_value_overflow: u64,
    /// Ops of the lowered step program the slow engine executed over the
    /// run (divide by `sim.slow_steps` for ops per slow step).
    pub slow_ops: u64,
}

/// Flat per-line aggregation of a profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineCost {
    /// 1-based source line (of the actions' span starts).
    pub line: u32,
    /// Instructions attributed, both engines.
    pub insns: u64,
    /// Fast-engine replays.
    pub replays: u64,
    /// Misses charged to actions on this line.
    pub misses: u64,
    /// Actions contributing to this line.
    pub actions: u32,
}

impl Profile {
    /// Total instructions attributed across all rows — equals
    /// `sim.insns` for a run observed end to end.
    pub fn attributed_insns(&self) -> u64 {
        self.rows.iter().fold(0u64, |a, r| a.saturating_add(r.insns()))
    }

    /// Total misses attributed across all rows — equals `sim.misses`.
    pub fn attributed_misses(&self) -> u64 {
        self.rows.iter().fold(0u64, |a, r| a.saturating_add(r.misses))
    }

    /// Aggregates rows by source line, descending by attributed
    /// instructions (ties broken by line number).
    pub fn flat_lines(&self) -> Vec<LineCost> {
        let mut by_line: std::collections::BTreeMap<u32, LineCost> = std::collections::BTreeMap::new();
        for r in &self.rows {
            let e = by_line.entry(r.line).or_insert_with(|| LineCost {
                line: r.line,
                ..LineCost::default()
            });
            e.insns = e.insns.saturating_add(r.insns());
            e.replays = e.replays.saturating_add(r.replays);
            e.misses = e.misses.saturating_add(r.misses);
            e.actions += 1;
        }
        let mut out: Vec<LineCost> = by_line.into_values().collect();
        out.sort_by(|a, b| b.insns.cmp(&a.insns).then(a.line.cmp(&b.line)));
        out
    }

    /// Folded-stack (flamegraph-collapsed) form: one
    /// `label;kind;file:line count` line per action with a nonzero
    /// instruction attribution, using the guard line as the leaf frame.
    pub fn folded_stacks(&self, label: &str) -> String {
        let mut s = String::new();
        for r in &self.rows {
            if r.insns() == 0 {
                continue;
            }
            let _ = writeln!(
                s,
                "{};{};{}:{} {}",
                label,
                r.kind,
                self.file,
                r.guard_line,
                r.insns()
            );
        }
        s
    }

    /// The `k` rows with the most misses, descending (rows with zero
    /// misses excluded).
    pub fn top_misses(&self, k: usize) -> Vec<&ActionRow> {
        let mut rows: Vec<&ActionRow> = self.rows.iter().filter(|r| r.misses > 0).collect();
        rows.sort_by(|a, b| b.misses.cmp(&a.misses).then(a.action.cmp(&b.action)));
        rows.truncate(k);
        rows
    }

    /// Whether `other` profiles the **same compiled program**: the same
    /// number of rows with identical action numbers, kinds, spans and
    /// operand signatures.
    ///
    /// # Errors
    ///
    /// Describes the first shape mismatch.
    pub fn compatible(&self, other: &Profile) -> Result<(), String> {
        if self.rows.len() != other.rows.len() {
            return Err(format!(
                "action tables differ: {} rows vs {}",
                self.rows.len(),
                other.rows.len()
            ));
        }
        match self.rows.iter().zip(&other.rows).find(|(a, b)| !a.same_site(b)) {
            Some((mine, _)) => Err(format!(
                "action {} resolves to different sites (different compiled programs?)",
                mine.action
            )),
            None => Ok(()),
        }
    }

    /// Folds a [`compatible`](Self::compatible) profile into this one:
    /// per-row costs (replays, insns, visits, misses, miss values) add
    /// element-wise, so Σ row insns still equals the summed `sim.insns`
    /// and Σ row misses the summed `sim.misses`.
    pub fn merge(&mut self, other: &Profile) {
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows.iter()) {
            mine.replays = mine.replays.saturating_add(theirs.replays);
            mine.fast_insns = mine.fast_insns.saturating_add(theirs.fast_insns);
            mine.slow_visits = mine.slow_visits.saturating_add(theirs.slow_visits);
            mine.slow_insns = mine.slow_insns.saturating_add(theirs.slow_insns);
            mine.misses = mine.misses.saturating_add(theirs.misses);
            for &(v, c) in &theirs.miss_values {
                if let Some(slot) = mine.miss_values.iter_mut().find(|(sv, _)| *sv == v) {
                    slot.1 = slot.1.saturating_add(c);
                } else {
                    mine.miss_values.push((v, c));
                }
            }
        }
        self.miss_value_overflow = self
            .miss_value_overflow
            .saturating_add(other.miss_value_overflow);
        self.slow_ops = self.slow_ops.saturating_add(other.slow_ops);
    }

    /// The exactness gate: attributed instructions sum to `sim.insns`,
    /// attributed misses to `sim.misses`, and every row resolves to a
    /// real source position. Returns every violation.
    pub fn check(&self, sim: &SimStatsSnapshot) -> Vec<String> {
        let mut errs = Vec::new();
        if self.attributed_insns() != sim.insns {
            errs.push(format!(
                "attributed insns {} != sim.insns {}",
                self.attributed_insns(),
                sim.insns
            ));
        }
        if self.attributed_misses() != sim.misses {
            errs.push(format!(
                "attributed misses {} != sim.misses {}",
                self.attributed_misses(),
                sim.misses
            ));
        }
        for r in &self.rows {
            if r.line < 1 || r.col < 1 || r.guard_line < 1 || r.guard_col < 1 {
                errs.push(format!("action {} has an unresolvable span", r.action));
            }
        }
        errs
    }

    pub(crate) fn write_json(&self, s: &mut String) {
        s.push_str("{\"file\":");
        escape_into(s, &self.file);
        let _ = write!(
            s,
            ",\"miss_value_overflow\":{},\"slow_ops\":{},\"actions\":",
            self.miss_value_overflow, self.slow_ops
        );
        write_list(s, &self.rows, |s, r| {
            let _ = write!(s, "{{\"action\":{},\"kind\":", r.action);
            escape_into(s, &r.kind);
            let _ = write!(
                s,
                ",\"line\":{},\"col\":{},\"end_line\":{},\"guard_line\":{},\"guard_col\":{},\
                 \"ph\":{},\"reg\":{},\"replays\":{},\"fast_insns\":{},\"slow_visits\":{},\
                 \"slow_insns\":{},\"misses\":{},\"miss_values\":",
                r.line,
                r.col,
                r.end_line,
                r.guard_line,
                r.guard_col,
                r.ph_operands,
                r.reg_operands,
                r.replays,
                r.fast_insns,
                r.slow_visits,
                r.slow_insns,
                r.misses
            );
            write_list(s, &r.miss_values, |s, (v, c)| {
                let _ = write!(s, "[{v},{c}]");
            });
            s.push('}');
        });
        s.push('}');
    }

    pub(crate) fn read(at: &At<'_>) -> Result<Profile, DocError> {
        Ok(Profile {
            file: at.get("file")?.str()?.to_owned(),
            miss_value_overflow: at.u64_at("miss_value_overflow")?,
            slow_ops: at.u64_at("slow_ops")?,
            rows: at.get("actions")?.list(|r| {
                let u32_at = |k: &str| r.get(k)?.u32();
                Ok(ActionRow {
                    action: u32_at("action")?,
                    kind: r.get("kind")?.str()?.to_owned(),
                    line: u32_at("line")?,
                    col: u32_at("col")?,
                    end_line: u32_at("end_line")?,
                    guard_line: u32_at("guard_line")?,
                    guard_col: u32_at("guard_col")?,
                    ph_operands: u32_at("ph")?,
                    reg_operands: u32_at("reg")?,
                    replays: r.u64_at("replays")?,
                    fast_insns: r.u64_at("fast_insns")?,
                    slow_visits: r.u64_at("slow_visits")?,
                    slow_insns: r.u64_at("slow_insns")?,
                    misses: r.u64_at("misses")?,
                    miss_values: r.get("miss_values")?.list(|p| p.pair(At::i64, At::u64))?,
                })
            })?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_sim() -> SimStatsSnapshot {
        SimStatsSnapshot {
                cycles: 10,
                insns: 30,
                fast_insns: 25,
                slow_insns: 5,
                fast_steps: 9,
                slow_steps: 1,
                misses: 3,
                recoveries: 3,
                actions_replayed: 18,
                ext_calls: 0,
        }
    }

    pub(crate) fn sample() -> Profile {
        Profile {
            file: "functional.fac".into(),
            rows: vec![
                ActionRow {
                    action: 0,
                    kind: "plain".into(),
                    line: 4,
                    col: 3,
                    end_line: 4,
                    guard_line: 4,
                    guard_col: 3,
                    ph_operands: 2,
                    reg_operands: 0,
                    replays: 9,
                    fast_insns: 18,
                    slow_visits: 1,
                    slow_insns: 2,
                    misses: 0,
                    miss_values: Vec::new(),
                },
                ActionRow {
                    action: 1,
                    kind: "branch".into(),
                    line: 5,
                    col: 3,
                    end_line: 5,
                    guard_line: 5,
                    guard_col: 7,
                    ph_operands: 1,
                    reg_operands: 1,
                    replays: 9,
                    fast_insns: 7,
                    slow_visits: 1,
                    slow_insns: 3,
                    misses: 3,
                    miss_values: vec![(1, 2), (-4, 1)],
                },
            ],
            miss_value_overflow: 0,
            slow_ops: 410,
        }
    }

    #[test]
    fn totals_match_sim_counters() {
        let (p, sim) = (sample(), sample_sim());
        assert_eq!(p.attributed_insns(), sim.insns);
        assert_eq!(p.attributed_misses(), sim.misses);
        assert!(p.check(&sim).is_empty());
    }

    #[test]
    fn check_reports_every_violation() {
        let mut p = sample();
        p.rows[0].fast_insns += 1;
        p.rows[1].misses += 1;
        p.rows[1].guard_col = 0;
        let errs = p.check(&sample_sim());
        assert_eq!(errs.len(), 3, "{errs:?}");
        assert!(errs[0].contains("attributed insns 31 != sim.insns 30"));
        assert!(errs[1].contains("attributed misses"));
        assert!(errs[2].contains("action 1 has an unresolvable span"));
    }

    #[test]
    fn flat_lines_sorted_by_cost() {
        let flat = sample().flat_lines();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[0].line, 4);
        assert_eq!(flat[0].insns, 20);
        assert_eq!(flat[1].line, 5);
        assert_eq!(flat[1].misses, 3);
    }

    #[test]
    fn folded_stacks_are_flamegraph_shaped() {
        let folded = sample().folded_stacks("functional loop");
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "functional loop;plain;functional.fac:4 20");
        assert_eq!(lines[1], "functional loop;branch;functional.fac:5 10");
        for l in &lines {
            // frame;frame;frame <space> count
            let (stack, count) = l.rsplit_once(' ').unwrap();
            assert!(stack.split(';').count() >= 3, "{l}");
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn top_misses_ranks_and_filters() {
        let p = sample();
        let top = p.top_misses(5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].action, 1);
        assert_eq!(top[0].miss_values, vec![(1, 2), (-4, 1)]);
    }

    #[test]
    fn merge_preserves_the_exactness_invariants() {
        let (mut a, mut a_sim) = (sample(), sample_sim());
        let (mut b, mut b_sim) = (sample(), sample_sim());
        // Give the second lane different costs on the same sites.
        b_sim.insns = 60;
        b_sim.fast_insns = 40;
        b_sim.slow_insns = 20;
        b_sim.misses = 1;
        b.rows[0].fast_insns = 30;
        b.rows[0].slow_insns = 10;
        b.rows[1].fast_insns = 10;
        b.rows[1].slow_insns = 10;
        b.rows[1].misses = 1;
        b.rows[1].miss_values = vec![(1, 1)];
        assert_eq!(b.attributed_insns(), b_sim.insns);
        a.compatible(&b).unwrap();
        a.merge(&b);
        a_sim.merge(&b_sim);
        assert_eq!(a_sim.insns, 90);
        assert!(a.check(&a_sim).is_empty(), "Σinsns/Σmisses == sim survive");
        assert_eq!(a.rows[1].miss_values, vec![(1, 3), (-4, 1)]);
    }

    #[test]
    fn mismatched_action_tables_are_incompatible() {
        let a = sample();
        let mut b = sample();
        b.rows.pop();
        assert!(a.compatible(&b).unwrap_err().contains("rows"));
        let mut c = sample();
        c.rows[1].guard_line = 99;
        assert!(a.compatible(&c).unwrap_err().contains("different sites"));
    }
}
