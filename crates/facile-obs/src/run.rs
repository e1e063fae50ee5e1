//! The run document: the one JSON contract between a simulator run and
//! offline reporting.
//!
//! Every front end — `facilec run` and `batch`, serve result frames,
//! the bench binaries — writes one [`RunDoc`] per run, and `sim_obs`
//! renders every report from these documents alone, with no
//! re-simulation. A document is a header plus up to three optional
//! sections:
//!
//! * the **header** (`label`, `wall_ns`, `sim`, `cache`): plain integer
//!   snapshots of the runtime counters, always present.
//!   `SimStats`/`CacheStats` live above this crate, so the conversion
//!   happens in `facile` core;
//! * `metrics` — the derived [`Metrics`] registry;
//! * `profile` — the source-level [`Profile`];
//! * `timeline` — the epoch [`TimelineMetrics`].
//!
//! Section names match `facile::job::Sections`, the `--obs` list and
//! the serve protocol's `want` entries. Each section keeps an exactness
//! invariant against the header, and [`RunDoc::check`] runs them all.

use crate::json::{escape_into, parse, ParseError, Value};
use crate::metrics::Metrics;
use crate::profile::Profile;
use crate::timeline::TimelineMetrics;
use std::fmt::Write as _;

/// Schema tag written into every document.
pub const SCHEMA: &str = "facile-run/v4";

/// Declares a struct of `u64` counters with a field-wise saturating
/// `merge`, a JSON object writer and a reader, all in field order.
macro_rules! counters {
    ($(#[$doc:meta])* pub struct $name:ident { $($(#[$fdoc:meta])* $field:ident,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: u64,)*
        }

        impl $name {
            /// Adds another snapshot field-wise (saturating).
            pub fn merge(&mut self, other: &$name) {
                $(self.$field = self.$field.saturating_add(other.$field);)*
            }

            /// Writes the counters as one JSON object.
            pub(crate) fn write_json(&self, s: &mut String) {
                s.push('{');
                $(
                    if !s.ends_with('{') {
                        s.push(',');
                    }
                    let _ = ::std::fmt::Write::write_fmt(
                        s,
                        format_args!("\"{}\":{}", stringify!($field), self.$field),
                    );
                )*
                s.push('}');
            }

            /// Reads the counters back from a JSON object.
            pub(crate) fn read(at: &$crate::run::At<'_>) -> Result<$name, $crate::run::DocError> {
                Ok($name {
                    $($field: at.u64_at(stringify!($field))?,)*
                })
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// Integer snapshot of the runtime's `SimStats`.
    pub struct SimStatsSnapshot {
        /// Simulated cycles.
        cycles,
        /// Simulated instructions, both engines.
        insns,
        /// Instructions retired by the fast engine.
        fast_insns,
        /// Instructions retired by the slow engine.
        slow_insns,
        /// Steps completed by the fast engine.
        fast_steps,
        /// Steps completed by the slow engine.
        slow_steps,
        /// Action-cache misses.
        misses,
        /// Miss recoveries completed.
        recoveries,
        /// Actions replayed by the fast engine.
        actions_replayed,
        /// External function calls.
        ext_calls,
    }
}

impl SimStatsSnapshot {
    /// Fraction of instructions executed by the fast engine.
    pub fn fast_forwarded_fraction(&self) -> f64 {
        if self.insns == 0 {
            0.0
        } else {
            self.fast_insns as f64 / self.insns as f64
        }
    }
}

counters! {
    /// Integer snapshot of the runtime's `CacheStats`. Each lane of a
    /// batch owns a private action cache, so merged counters and byte
    /// totals sum exactly; the summed `bytes_peak` is the batch's
    /// worst-case resident footprint (lanes peak at different times).
    pub struct CacheStatsSnapshot {
        /// Decision/action nodes ever created.
        nodes_created,
        /// Step entries ever created.
        entries_created,
        /// Times the cache was cleared.
        clears,
        /// Bytes held now.
        bytes_current,
        /// Bytes ever recorded (cumulative).
        bytes_total,
        /// High-water mark of held bytes.
        bytes_peak,
        /// Bytes released by clears (cumulative).
        bytes_cleared,
        /// Generations evicted by the generational policy (cumulative).
        evictions,
        /// Bytes released by generational evictions (cumulative).
        bytes_evicted,
        /// Snapshot payload bytes installed by a warm start (0 when the
        /// run started cold; see docs/PERSISTENCE.md).
        bytes_frozen,
        /// Frozen generations pinned by a warm start (0 when cold).
        frozen_gens,
    }
}

impl CacheStatsSnapshot {
    /// Peak memoization footprint in MiB (Table 2's unit).
    pub fn peak_mib(&self) -> f64 {
        self.bytes_peak as f64 / (1024.0 * 1024.0)
    }
}

/// Why a document could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DocError {
    /// The text is not JSON.
    Json(ParseError),
    /// A field is missing or has the wrong type.
    Field {
        /// Dotted path of the field, e.g. `profile.actions[3].misses`.
        path: String,
        /// What is wrong with it.
        problem: &'static str,
    },
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocError::Json(e) => e.fmt(f),
            DocError::Field { path, problem } => write!(f, "`{path}`: {problem}"),
        }
    }
}

impl std::error::Error for DocError {}

impl From<ParseError> for DocError {
    fn from(e: ParseError) -> DocError {
        DocError::Json(e)
    }
}

/// A JSON value being decoded, with its path for error messages.
pub(crate) struct At<'a> {
    v: &'a Value,
    path: String,
}

impl<'a> At<'a> {
    pub(crate) fn root(v: &'a Value) -> At<'a> {
        At {
            v,
            path: String::new(),
        }
    }

    pub(crate) fn err(&self, problem: &'static str) -> DocError {
        DocError::Field {
            path: if self.path.is_empty() {
                "(document)".to_owned()
            } else {
                self.path.clone()
            },
            problem,
        }
    }

    /// The member `key` of this object.
    pub(crate) fn get(&self, key: &str) -> Result<At<'a>, DocError> {
        let path = if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        };
        let Value::Obj(m) = self.v else {
            return Err(self.err("expected an object"));
        };
        match m.get(key) {
            Some(v) => Ok(At { v, path }),
            None => Err(DocError::Field {
                path,
                problem: "missing",
            }),
        }
    }

    /// The member `key`, or `None` when this object lacks it.
    pub(crate) fn opt(&self, key: &str) -> Option<At<'a>> {
        self.v.get(key)?;
        self.get(key).ok()
    }

    pub(crate) fn u64(&self) -> Result<u64, DocError> {
        self.v
            .as_u64()
            .ok_or_else(|| self.err("expected an unsigned integer"))
    }

    pub(crate) fn u32(&self) -> Result<u32, DocError> {
        u32::try_from(self.u64()?).map_err(|_| self.err("exceeds 32 bits"))
    }

    pub(crate) fn i64(&self) -> Result<i64, DocError> {
        self.v
            .as_i64()
            .ok_or_else(|| self.err("expected an integer"))
    }

    pub(crate) fn str(&self) -> Result<&'a str, DocError> {
        self.v.as_str().ok_or_else(|| self.err("expected a string"))
    }

    /// `get(key)` read as an unsigned integer.
    pub(crate) fn u64_at(&self, key: &str) -> Result<u64, DocError> {
        self.get(key)?.u64()
    }

    /// Element `i` of `items`, which is this array's element list.
    fn index(&self, items: &'a [Value], i: usize) -> At<'a> {
        At {
            v: &items[i],
            path: format!("{}[{i}]", self.path),
        }
    }

    /// Decodes every element of this array with `f`.
    pub(crate) fn list<T>(
        &self,
        mut f: impl FnMut(&At<'a>) -> Result<T, DocError>,
    ) -> Result<Vec<T>, DocError> {
        let items = self
            .v
            .as_arr()
            .ok_or_else(|| self.err("expected an array"))?;
        (0..items.len()).map(|i| f(&self.index(items, i))).collect()
    }

    /// Decodes a two-element `[a, b]` array.
    pub(crate) fn pair<A, B>(
        &self,
        a: impl FnOnce(&At<'a>) -> Result<A, DocError>,
        b: impl FnOnce(&At<'a>) -> Result<B, DocError>,
    ) -> Result<(A, B), DocError> {
        match self.v.as_arr() {
            Some(items @ [_, _]) => Ok((a(&self.index(items, 0))?, b(&self.index(items, 1))?)),
            _ => Err(self.err("expected a two-element array")),
        }
    }
}

/// Writes `[a,b,c]`, each element rendered by `f`.
pub(crate) fn write_list<T>(s: &mut String, items: &[T], mut f: impl FnMut(&mut String, &T)) {
    s.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        f(s, x);
    }
    s.push(']');
}

/// One run's document: the shared header plus the sections that were
/// recorded.
#[derive(Clone, Debug, Default)]
pub struct RunDoc {
    /// Human label for the run (workload/config name).
    pub label: String,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_ns: u64,
    /// Snapshot of the runtime counters.
    pub sim: SimStatsSnapshot,
    /// Snapshot of the action-cache counters.
    pub cache: CacheStatsSnapshot,
    /// The derived metrics registry.
    pub metrics: Option<Metrics>,
    /// The source-level profile.
    pub profile: Option<Profile>,
    /// The epoch timeline.
    pub timeline: Option<TimelineMetrics>,
}

impl RunDoc {
    /// Simulated instructions per wall second (0 if no wall time).
    pub fn insns_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.sim.insns as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Folds another lane's document into this one. Header counters add
    /// field-wise and `wall_ns` takes the maximum (batch lanes run
    /// concurrently, so wall times overlap); the label is kept (batch
    /// drivers name the merged document). Each section folds exactly
    /// as if one recorder had observed the lanes back to back, and is
    /// kept only when *both* documents carry it — a partial section
    /// would break its exactness invariant.
    ///
    /// # Errors
    ///
    /// Profiles of different compiled programs; `self` is unchanged.
    pub fn merge(&mut self, other: &RunDoc) -> Result<(), String> {
        if let (Some(mine), Some(theirs)) = (&self.profile, &other.profile) {
            mine.compatible(theirs)?;
        }
        self.sim.merge(&other.sim);
        self.cache.merge(&other.cache);
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        fn fold<T>(mine: &mut Option<T>, theirs: &Option<T>, f: impl FnOnce(&mut T, &T)) {
            match (mine.as_mut(), theirs) {
                (Some(m), Some(t)) => f(m, t),
                _ => *mine = None,
            }
        }
        fold(&mut self.metrics, &other.metrics, Metrics::merge);
        fold(&mut self.profile, &other.profile, Profile::merge);
        fold(&mut self.timeline, &other.timeline, TimelineMetrics::merge);
        Ok(())
    }

    /// Runs every exactness gate against the shared header and returns
    /// *all* failures, each prefixed with the section it belongs to
    /// (empty when the document is exact):
    ///
    /// * header — the warm-start counters agree on coldness;
    /// * `profile` — Σ row insns == `sim.insns`, Σ row misses ==
    ///   `sim.misses`, every row resolves to a source position;
    /// * `timeline` — Σ epoch deltas == final counters
    ///   ([`TimelineMetrics::check`]).
    pub fn check(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let s = &self.sim;
        // Warm-start counters are set once at snapshot install; the two
        // must agree on coldness.
        let c = &self.cache;
        if (c.bytes_frozen == 0) != (c.frozen_gens == 0) {
            errs.push(format!(
                "header: warm-start counters inconsistent: bytes_frozen {} with frozen_gens {}",
                c.bytes_frozen, c.frozen_gens
            ));
        }
        let mut section = |name: &str, found: Vec<String>| {
            errs.extend(found.into_iter().map(|e| format!("{name}: {e}")));
        };
        if let Some(p) = &self.profile {
            section("profile", p.check(s));
        }
        if let Some(tl) = &self.timeline {
            section("timeline", tl.check(s, c));
        }
        errs
    }

    /// Serializes the document as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"schema\":");
        escape_into(&mut s, SCHEMA);
        s.push_str(",\"label\":");
        escape_into(&mut s, &self.label);
        let _ = write!(s, ",\"wall_ns\":{},\"sim\":", self.wall_ns);
        self.sim.write_json(&mut s);
        s.push_str(",\"cache\":");
        self.cache.write_json(&mut s);
        if let Some(m) = &self.metrics {
            s.push_str(",\"metrics\":");
            m.write_json(&mut s);
        }
        if let Some(p) = &self.profile {
            s.push_str(",\"profile\":");
            p.write_json(&mut s);
        }
        if let Some(t) = &self.timeline {
            s.push_str(",\"timeline\":");
            t.write_json(&mut s);
        }
        s.push('}');
        s
    }

    /// Rebuilds a document from its parsed JSON value.
    ///
    /// # Errors
    ///
    /// The path of the first missing or ill-typed field, or a schema
    /// other than [`SCHEMA`].
    pub fn from_value(v: &Value) -> Result<RunDoc, DocError> {
        let at = At::root(v);
        let schema = at.get("schema")?;
        if schema.str()? != SCHEMA {
            return Err(schema.err("not facile-run/v4"));
        }
        Ok(RunDoc {
            label: at.get("label")?.str()?.to_owned(),
            wall_ns: at.u64_at("wall_ns")?,
            sim: SimStatsSnapshot::read(&at.get("sim")?)?,
            cache: CacheStatsSnapshot::read(&at.get("cache")?)?,
            metrics: at.opt("metrics").map(|m| Metrics::read(&m)).transpose()?,
            profile: at.opt("profile").map(|p| Profile::read(&p)).transpose()?,
            timeline: at
                .opt("timeline")
                .map(|t| TimelineMetrics::read(&t))
                .transpose()?,
        })
    }

    /// Parses a document from JSON text.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or as [`RunDoc::from_value`].
    pub fn from_json(text: &str) -> Result<RunDoc, DocError> {
        RunDoc::from_value(&parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::timeline::EpochRecord;

    /// A document with all three sections whose gates all hold: one
    /// burst of 3 steps / 30 insns, one slow step of 10 insns, one miss.
    fn sample() -> RunDoc {
        let mut metrics = Metrics::new();
        metrics.action_replayed(0, 30);
        metrics.action_slow(1, 10);
        metrics.observe(&TraceEvent::Miss {
            step: 2,
            action: 1,
            depth: 1,
            value: Some(-7),
        });
        let mut profile = crate::profile::tests::sample();
        profile.rows[0].fast_insns = 30;
        profile.rows[0].slow_insns = 0;
        profile.rows[1].fast_insns = 0;
        profile.rows[1].slow_insns = 10;
        profile.rows[1].misses = 1;
        let mut timeline = TimelineMetrics::new(2, 8);
        for e in [
            EpochRecord {
                slow_steps: 1,
                slow_insns: 10,
                misses: 1,
                cache_bytes: 64,
                wall_ns: 9,
                ..EpochRecord::default()
            },
            EpochRecord {
                fast_steps: 3,
                fast_insns: 30,
                wall_ns: 4,
                ..EpochRecord::default()
            },
        ] {
            timeline.observe_epoch(&e);
        }
        RunDoc {
            label: "loop \"quoted\"".into(),
            wall_ns: 13,
            sim: SimStatsSnapshot {
                cycles: 50,
                insns: 40,
                fast_insns: 30,
                slow_insns: 10,
                fast_steps: 3,
                slow_steps: 1,
                misses: 1,
                recoveries: 1,
                actions_replayed: 3,
                ext_calls: 0,
            },
            cache: CacheStatsSnapshot {
                bytes_total: 64,
                bytes_peak: 64,
                ..CacheStatsSnapshot::default()
            },
            metrics: Some(metrics),
            profile: Some(profile),
            timeline: Some(timeline),
        }
    }

    #[test]
    fn document_round_trips_byte_for_byte() {
        let d = sample();
        assert_eq!(d.check(), Vec::<String>::new());
        let text = d.to_json();
        assert!(text.starts_with("{\"schema\":\"facile-run/v4\",\"label\":"));
        let back = RunDoc::from_json(&text).unwrap();
        assert_eq!(back.to_json(), text);
        assert_eq!((back.sim, back.cache), (d.sim, d.cache));
        assert_eq!(back.profile, d.profile);
        assert_eq!(back.timeline, d.timeline);
        assert_eq!(
            back.metrics.unwrap().miss_values,
            vec![vec![], vec![(-7, 1)]]
        );
    }

    #[test]
    fn absent_sections_stay_absent() {
        let d = RunDoc {
            label: "bare".into(),
            ..sample()
        };
        let bare = RunDoc {
            metrics: None,
            profile: None,
            timeline: None,
            ..d
        };
        let back = RunDoc::from_json(&bare.to_json()).unwrap();
        assert!(back.metrics.is_none() && back.profile.is_none());
        assert!(back.timeline.is_none());
        assert!(!bare.to_json().contains("\"metrics\""));
    }

    #[test]
    fn reader_names_the_missing_or_ill_typed_field() {
        let text = sample().to_json();
        let missing = text.replacen("\"ring_capacity\"", "\"ring_cap\"", 1);
        assert_eq!(
            RunDoc::from_json(&missing).unwrap_err().to_string(),
            "`metrics.ring_capacity`: missing"
        );
        let negative = text.replacen("\"guard_col\":3", "\"guard_col\":-3", 1);
        assert_eq!(
            RunDoc::from_json(&negative).unwrap_err().to_string(),
            "`profile.actions[0].guard_col`: expected an unsigned integer"
        );
        let pair = text.replacen("[-7,1]", "[-7]", 1);
        assert_eq!(
            RunDoc::from_json(&pair).unwrap_err().to_string(),
            "`metrics.miss_values[1][0]`: expected a two-element array"
        );
        let schema = text.replacen("facile-run/v4", "facile-run/v3", 1);
        assert_eq!(
            RunDoc::from_json(&schema).unwrap_err().to_string(),
            "`schema`: not facile-run/v4"
        );
        assert!(matches!(RunDoc::from_json("{"), Err(DocError::Json(_))));
        assert!(RunDoc::from_json("[]")
            .unwrap_err()
            .to_string()
            .contains("(document)"));
    }

    #[test]
    fn check_reports_every_failing_section() {
        let mut d = sample();
        d.profile.as_mut().unwrap().rows[0].fast_insns += 1;
        d.timeline.as_mut().unwrap().totals.misses += 1;
        d.cache.frozen_gens = 1;
        let errs = d.check();
        for section in ["header:", "profile:", "timeline:"] {
            assert!(
                errs.iter().any(|e| e.starts_with(section)),
                "{section} in {errs:?}"
            );
        }
    }

    #[test]
    fn merge_folds_every_section_and_keeps_the_gates() {
        let mut a = sample();
        a.merge(&sample()).unwrap();
        assert_eq!(a.check(), Vec::<String>::new());
        assert_eq!(a.sim.insns, 80);
        assert_eq!(a.wall_ns, 13, "concurrent lanes overlap");
        assert_eq!(a.timeline.as_ref().unwrap().epochs.len(), 4);
        // A lane without a section drops it from the fold.
        let mut bare = sample();
        bare.timeline = None;
        a.merge(&bare).unwrap();
        assert!(a.timeline.is_none());
        assert_eq!(a.check(), Vec::<String>::new());
        // Profiles of different programs refuse to fold, leaving the
        // document unchanged.
        let mut other = sample();
        other.profile.as_mut().unwrap().rows.pop();
        let before = a.to_json();
        assert!(a.merge(&other).unwrap_err().contains("rows"));
        assert_eq!(a.to_json(), before);
    }

    #[test]
    fn derived_ratios() {
        let d = sample();
        assert!((d.sim.fast_forwarded_fraction() - 0.75).abs() < 1e-12);
        assert!((d.insns_per_sec() - 40.0 * 1e9 / 13.0).abs() < 1e-3);
        assert!(d.cache.peak_mib() > 0.0);
    }
}
