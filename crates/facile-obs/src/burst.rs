//! The replay flight recorder: per-burst telemetry for the fast engine.
//!
//! The fast engine's throughput comes from long replay *bursts* — runs of
//! recorded actions crossing step boundaries through INDEX links without
//! returning to the slow simulator. ROADMAP item 1 (trace linearization +
//! superinstruction dispatch) needs to know *which* recorded chains are
//! hot, how long bursts run before exiting, and where INDEX dispatch is
//! polymorphic. This module aggregates exactly that, per burst:
//!
//! * the entry node (generation/index) and its action number,
//! * the burst length in steps and retired instructions
//!   (log-histogrammed),
//! * the exit cause ([`BurstExit`]: miss kind, step boundary, halt,
//!   budget, eviction),
//! * a bounded-depth **chain signature**: a rolling hash over the first
//!   [`CHAIN_DEPTH`] replayed action numbers, with the hashed action path
//!   kept alongside so reports can print the chain. Action numbers are
//!   compile-time properties of the shared [`CompiledStep`], so
//!   signatures are identical across batch lanes replaying the same
//!   program (node ids are *not*: they depend on recording order).
//! * per-INDEX-site dispatch targets, capped per site, so a report can
//!   classify each crossing as monomorphic or polymorphic.
//!
//! Aggregation follows the same deterministic-partition discipline as
//! [`Metrics`](crate::Metrics): capped tables keep first-seen order, a
//! cap overflow loses identities but never counts, and
//! [`HotMetrics::merge`] folds a partition exactly as if one recorder had
//! observed the concatenated stream — which is what makes merged batch
//! documents bit-for-bit equal to a single-registry run.
//!
//! The whole recorder costs one sampling decision and one record per
//! burst plus one table update per INDEX crossing, all behind the
//! `ObsHandle` null-check, and supports 1-in-N burst sampling
//! ([`HotConfig::sample_every`]) for always-on production use.
//!
//! [`CompiledStep`]: ../facile_codegen/struct.CompiledStep.html

use crate::hist::LogHistogram;
use crate::run::{write_list, At, DocError, SimStatsSnapshot};
use std::fmt::Write as _;

/// Maximum replayed actions folded into a chain signature. Bursts
/// sharing their first `CHAIN_DEPTH` actions share a signature; the
/// bound keeps the per-action fold branch-free and the stored paths
/// small.
pub const CHAIN_DEPTH: usize = 16;

/// Maximum distinct chains tracked per recorder. Later chains lose their
/// identity to [`HotMetrics::chain_overflow`] but keep their counts.
pub const HOT_CHAIN_CAP: usize = 64;

/// Maximum distinct dispatch targets tracked per INDEX site. A site that
/// overflows is by definition polymorphic, which is all a linearizer
/// needs to know.
pub const SITE_TARGET_CAP: usize = 4;

/// Bound on the INDEX-site action numbers a document may name: far
/// above any compiled action table, low enough that a corrupt site
/// number cannot make the reader allocate gigabytes.
const MAX_SITE: u32 = 1 << 16;

/// Seed for the rolling chain signature (the FNV-1a offset basis).
pub const SIG_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one replayed action number into a rolling chain signature
/// (FNV-1a over `action + 1`, so action 0 perturbs the hash too).
#[inline]
#[must_use]
pub fn fold_sig(sig: u64, action: u32) -> u64 {
    (sig ^ (action as u64 + 1)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Sentinel entry action for bursts whose entry node could not be read
/// (the node was evicted before the burst started).
pub const ENTRY_UNKNOWN: u32 = u32::MAX;

/// Why a fast-replay burst ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BurstExit {
    /// A plain action had no recorded successor (generic cache miss).
    MissPlain = 0,
    /// A dynamic result test diverged from every recorded successor.
    MissTest = 1,
    /// INDEX reached a key with no cached entry: a clean step boundary
    /// handed to the slow engine with no recovery.
    Boundary = 2,
    /// The simulation halted during replay.
    Halt = 3,
    /// The driver's step budget ran out mid-burst.
    Budget = 4,
    /// The entry node was evicted before replay could start (a
    /// zero-length burst; the step restarts through the slow path).
    Evicted = 5,
}

/// Number of [`BurstExit`] causes.
pub const EXIT_KINDS: usize = 6;

impl BurstExit {
    /// Every exit cause, in counter-index order.
    pub const ALL: [BurstExit; EXIT_KINDS] = [
        BurstExit::MissPlain,
        BurstExit::MissTest,
        BurstExit::Boundary,
        BurstExit::Halt,
        BurstExit::Budget,
        BurstExit::Evicted,
    ];

    /// Stable snake_case label (JSON key in the `exits` object).
    pub fn label(self) -> &'static str {
        match self {
            BurstExit::MissPlain => "miss_plain",
            BurstExit::MissTest => "miss_test",
            BurstExit::Boundary => "boundary",
            BurstExit::Halt => "halt",
            BurstExit::Budget => "budget",
            BurstExit::Evicted => "evicted",
        }
    }
}

/// One finished burst, as reported by the driver.
#[derive(Clone, Copy, Debug)]
pub struct BurstRecord {
    /// Action number of the entry node ([`ENTRY_UNKNOWN`] if evicted).
    pub entry_action: u32,
    /// Storage generation of the entry node.
    pub entry_gen: u32,
    /// Index of the entry node within its generation.
    pub entry_idx: u32,
    /// INDEX crossings completed during the burst.
    pub steps: u64,
    /// Instructions retired during the burst.
    pub insns: u64,
    /// Why the burst ended.
    pub exit: BurstExit,
    /// Rolling hash of the first [`CHAIN_DEPTH`] replayed actions.
    pub sig: u64,
    /// The hashed action path (`path[..path_len]` is meaningful).
    pub path: [u32; CHAIN_DEPTH],
    /// Actions folded into `sig` (0 for evicted pseudo-bursts).
    pub path_len: u8,
}

impl BurstRecord {
    /// The zero-length pseudo-burst recorded when the resume node was
    /// evicted between bursts: nothing replayed, nothing retired, and no
    /// chain (the entry's action is unreadable once evicted).
    pub fn evicted(entry_gen: u32, entry_idx: u32) -> BurstRecord {
        BurstRecord {
            entry_action: ENTRY_UNKNOWN,
            entry_gen,
            entry_idx,
            steps: 0,
            insns: 0,
            exit: BurstExit::Evicted,
            sig: SIG_SEED,
            path: [0; CHAIN_DEPTH],
            path_len: 0,
        }
    }
}

/// Flight-recorder construction options (part of
/// [`ObsConfig`](crate::ObsConfig)).
#[derive(Clone, Copy, Debug)]
pub struct HotConfig {
    /// Record bursts at all. Off by default: existing observers pay
    /// nothing new.
    pub enabled: bool,
    /// Record every Nth burst (1 = every burst, the exactness mode the
    /// recount invariants require; values &gt; 1 trade completeness for
    /// overhead). 0 is treated as 1.
    pub sample_every: u64,
}

impl Default for HotConfig {
    fn default() -> Self {
        HotConfig {
            enabled: false,
            sample_every: 1,
        }
    }
}

/// One tracked chain: a distinct bounded action path, with the costs of
/// every recorded burst that followed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainRow {
    /// The chain signature (key; collisions are theoretically possible
    /// but the stored path makes them visible).
    pub sig: u64,
    /// The first [`CHAIN_DEPTH`] (or fewer) action numbers replayed.
    pub path: Vec<u32>,
    /// Entry action of the first burst seen on this chain.
    pub entry_action: u32,
    /// Entry node generation of that first burst (representative only —
    /// node ids are lane-local).
    pub entry_gen: u32,
    /// Entry node index of that first burst.
    pub entry_idx: u32,
    /// Bursts recorded on this chain.
    pub replays: u64,
    /// INDEX crossings those bursts completed.
    pub steps: u64,
    /// Instructions those bursts retired.
    pub insns: u64,
}

/// One INDEX site's dispatch profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteRow {
    /// Crossings taken at this site (in recorded bursts).
    pub dispatches: u64,
    /// Distinct successor entry actions, first-seen order: `(action,
    /// count)`, capped at [`SITE_TARGET_CAP`].
    pub targets: Vec<(u32, u64)>,
    /// Crossings to targets beyond the cap (identity lost, count kept).
    pub target_overflow: u64,
}

impl SiteRow {
    /// Whether every recorded crossing went to one successor.
    pub fn is_mono(&self) -> bool {
        self.targets.len() == 1 && self.target_overflow == 0
    }
}

/// Grows `v` with defaults so `v[i]` exists, and returns `&mut v[i]`.
fn at_mut<T: Default + Clone>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// The burst/chain aggregate a flight recorder maintains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotMetrics {
    /// Configured sampling period (1 = every burst).
    pub sample_every: u64,
    /// Bursts recorded (sampled in).
    pub bursts: u64,
    /// Bursts skipped by sampling (sampled out).
    pub bursts_skipped: u64,
    /// Per-exit-cause burst counts, indexed like [`BurstExit::ALL`].
    pub exits: [u64; EXIT_KINDS],
    /// Burst lengths in INDEX crossings (log2 buckets).
    pub burst_steps: LogHistogram,
    /// Burst lengths in retired instructions (log2 buckets).
    pub burst_insns: LogHistogram,
    /// Distinct chains, first-seen order, at most [`HOT_CHAIN_CAP`].
    pub chains: Vec<ChainRow>,
    /// Bursts whose chain did not fit the table.
    pub chain_overflow: u64,
    /// Instructions retired by those untracked bursts.
    pub chain_overflow_insns: u64,
    /// Per-INDEX-site dispatch profiles, indexed by site action number
    /// (sparse sites stay `Default`).
    pub sites: Vec<SiteRow>,
}

impl HotMetrics {
    /// An empty recorder with the given sampling period.
    pub fn new(sample_every: u64) -> HotMetrics {
        HotMetrics {
            sample_every: sample_every.max(1),
            bursts: 0,
            bursts_skipped: 0,
            exits: [0; EXIT_KINDS],
            burst_steps: LogHistogram::new(),
            burst_insns: LogHistogram::new(),
            chains: Vec::new(),
            chain_overflow: 0,
            chain_overflow_insns: 0,
            sites: Vec::new(),
        }
    }

    /// Folds one finished burst into the aggregate.
    pub fn observe_burst(&mut self, rec: &BurstRecord) {
        self.bursts = self.bursts.saturating_add(1);
        self.exits[rec.exit as usize] = self.exits[rec.exit as usize].saturating_add(1);
        self.burst_steps.record(rec.steps);
        self.burst_insns.record(rec.insns);
        if rec.path_len == 0 {
            // Evicted pseudo-bursts replay nothing: no chain to track.
            return;
        }
        if let Some(row) = self.chains.iter_mut().find(|c| c.sig == rec.sig) {
            row.replays = row.replays.saturating_add(1);
            row.steps = row.steps.saturating_add(rec.steps);
            row.insns = row.insns.saturating_add(rec.insns);
        } else if self.chains.len() < HOT_CHAIN_CAP {
            self.chains.push(ChainRow {
                sig: rec.sig,
                path: rec.path[..rec.path_len as usize].to_vec(),
                entry_action: rec.entry_action,
                entry_gen: rec.entry_gen,
                entry_idx: rec.entry_idx,
                replays: 1,
                steps: rec.steps,
                insns: rec.insns,
            });
        } else {
            self.chain_overflow = self.chain_overflow.saturating_add(1);
            self.chain_overflow_insns = self.chain_overflow_insns.saturating_add(rec.insns);
        }
    }

    /// Folds one taken INDEX crossing: `site` dispatched to a successor
    /// entry whose action is `target`.
    pub fn index_dispatch(&mut self, site: u32, target: u32) {
        self.index_dispatch_n(site, target, 1);
    }

    /// [`index_dispatch`](Self::index_dispatch), `n` crossings at once —
    /// how the engine flushes a whole burst's locally-accumulated
    /// dispatch counts under one registry lock instead of one per step.
    pub fn index_dispatch_n(&mut self, site: u32, target: u32, n: u64) {
        let row = at_mut(&mut self.sites, site as usize);
        row.dispatches = row.dispatches.saturating_add(n);
        if let Some(t) = row.targets.iter_mut().find(|(a, _)| *a == target) {
            t.1 = t.1.saturating_add(n);
        } else if row.targets.len() < SITE_TARGET_CAP {
            row.targets.push((target, n));
        } else {
            row.target_overflow = row.target_overflow.saturating_add(n);
        }
    }

    /// Total crossings recorded across all sites.
    pub fn total_dispatches(&self) -> u64 {
        self.sites
            .iter()
            .fold(0u64, |a, s| a.saturating_add(s.dispatches))
    }

    /// Bursts accounted to some chain row (recorded bursts minus evicted
    /// pseudo-bursts minus table overflow).
    pub fn tabled_replays(&self) -> u64 {
        self.chains
            .iter()
            .fold(0u64, |a, c| a.saturating_add(c.replays))
    }

    /// Chains ranked by cumulative retired instructions, descending
    /// (ties broken by first-seen order).
    pub fn ranked_chains(&self) -> Vec<&ChainRow> {
        let mut rows: Vec<(usize, &ChainRow)> = self.chains.iter().enumerate().collect();
        rows.sort_by(|(ai, a), (bi, b)| b.insns.cmp(&a.insns).then(ai.cmp(bi)));
        rows.into_iter().map(|(_, c)| c).collect()
    }

    /// Folds another recorder's aggregate into this one, exactly as if
    /// one recorder had observed the two burst streams concatenated
    /// (`self`'s first): histograms add bucket-wise, `other`'s chains
    /// and site targets fold through the same
    /// find-or-push-or-overflow path a live stream takes, so a batch
    /// fold in submission order reproduces a single-registry run
    /// bit-for-bit. Lanes are expected to share one [`HotConfig`]; if
    /// the periods differ the merged document keeps the larger.
    pub fn merge(&mut self, other: &HotMetrics) {
        self.sample_every = self.sample_every.max(other.sample_every);
        self.bursts = self.bursts.saturating_add(other.bursts);
        self.bursts_skipped = self.bursts_skipped.saturating_add(other.bursts_skipped);
        for (mine, theirs) in self.exits.iter_mut().zip(other.exits.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.burst_steps.merge(&other.burst_steps);
        self.burst_insns.merge(&other.burst_insns);
        for row in &other.chains {
            if let Some(mine) = self.chains.iter_mut().find(|c| c.sig == row.sig) {
                mine.replays = mine.replays.saturating_add(row.replays);
                mine.steps = mine.steps.saturating_add(row.steps);
                mine.insns = mine.insns.saturating_add(row.insns);
            } else if self.chains.len() < HOT_CHAIN_CAP {
                self.chains.push(row.clone());
            } else {
                self.chain_overflow = self.chain_overflow.saturating_add(row.replays);
                self.chain_overflow_insns =
                    self.chain_overflow_insns.saturating_add(row.insns);
            }
        }
        self.chain_overflow = self.chain_overflow.saturating_add(other.chain_overflow);
        self.chain_overflow_insns = self
            .chain_overflow_insns
            .saturating_add(other.chain_overflow_insns);
        for (site, theirs) in other.sites.iter().enumerate() {
            if theirs.dispatches == 0 && theirs.target_overflow == 0 {
                continue;
            }
            let mine = at_mut(&mut self.sites, site);
            mine.dispatches = mine.dispatches.saturating_add(theirs.dispatches);
            for &(target, count) in &theirs.targets {
                if let Some(t) = mine.targets.iter_mut().find(|(a, _)| *a == target) {
                    t.1 = t.1.saturating_add(count);
                } else if mine.targets.len() < SITE_TARGET_CAP {
                    mine.targets.push((target, count));
                } else {
                    mine.target_overflow = mine.target_overflow.saturating_add(count);
                }
            }
            mine.target_overflow = mine.target_overflow.saturating_add(theirs.target_overflow);
        }
    }

    /// The recount gate: every invariant the recorder promises,
    /// verified against the run's counters. Exit counters sum to the
    /// burst count, the histograms hold one entry per burst, every
    /// non-evicted burst is tabled or counted as overflow, dispatches
    /// recount the steps histogram, and in exact mode (`sample_every`
    /// 1, nothing skipped) the burst histograms recount the runtime's
    /// fast-path counters bit for bit. Returns every violation.
    pub fn check(&self, sim: &SimStatsSnapshot) -> Vec<String> {
        let evicted = self.exits[BurstExit::Evicted as usize];
        let tabled_insns = self.chains.iter().fold(0u64, |a, c| a.saturating_add(c.insns));
        let mut pairs = vec![
            ("sum(exits) vs bursts", self.exits.iter().sum::<u64>(), self.bursts),
            ("burst_steps count vs bursts", self.burst_steps.count(), self.bursts),
            ("burst_insns count vs bursts", self.burst_insns.count(), self.bursts),
            (
                "tabled replays + overflow vs non-evicted bursts",
                self.tabled_replays().saturating_add(self.chain_overflow),
                self.bursts.saturating_sub(evicted),
            ),
            (
                "tabled insns + overflow insns vs recorded insns",
                tabled_insns.saturating_add(self.chain_overflow_insns),
                self.burst_insns.sum(),
            ),
            // Every completed INDEX crossing in a sampled burst records
            // exactly one dispatch.
            (
                "total dispatches vs recorded steps",
                self.total_dispatches(),
                self.burst_steps.sum(),
            ),
        ];
        if self.sample_every == 1 && self.bursts_skipped == 0 {
            pairs.push(("sum(burst steps) vs sim.fast_steps", self.burst_steps.sum(), sim.fast_steps));
            pairs.push(("sum(burst insns) vs sim.fast_insns", self.burst_insns.sum(), sim.fast_insns));
        }
        pairs
            .into_iter()
            .filter(|(_, got, want)| got != want)
            .map(|(what, got, want)| format!("{what}: {got} != {want}"))
            .collect()
    }

    /// Writes the aggregate as one JSON object. Chain signatures are
    /// hex strings: JSON numbers are doubles and cannot carry a full
    /// `u64` exactly.
    pub(crate) fn write_json(&self, s: &mut String) {
        let _ = write!(
            s,
            "{{\"sample_every\":{},\"bursts\":{},\"bursts_skipped\":{},\"exits\":{{",
            self.sample_every, self.bursts, self.bursts_skipped,
        );
        for (i, exit) in BurstExit::ALL.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{}\":{}", exit.label(), self.exits[*exit as usize]);
        }
        let _ = write!(
            s,
            "}},\"burst_steps\":{},\"burst_insns\":{},\"chain_depth\":{},\"chain_cap\":{},\
             \"chain_overflow\":{},\"chain_overflow_insns\":{},\"chains\":",
            self.burst_steps.to_json(),
            self.burst_insns.to_json(),
            CHAIN_DEPTH,
            HOT_CHAIN_CAP,
            self.chain_overflow,
            self.chain_overflow_insns
        );
        write_list(s, &self.chains, |s, c| {
            let _ = write!(
                s,
                "{{\"sig\":\"{:016x}\",\"entry_action\":{},\"entry_gen\":{},\"entry_idx\":{},\
                 \"replays\":{},\"steps\":{},\"insns\":{},\"path\":",
                c.sig, c.entry_action, c.entry_gen, c.entry_idx, c.replays, c.steps, c.insns
            );
            write_list(s, &c.path, |s, a| {
                let _ = write!(s, "{a}");
            });
            s.push('}');
        });
        let live: Vec<(usize, &SiteRow)> = self
            .sites
            .iter()
            .enumerate()
            .filter(|(_, site)| site.dispatches > 0 || site.target_overflow > 0)
            .collect();
        s.push_str(",\"sites\":");
        write_list(s, &live, |s, (action, site)| {
            let _ = write!(
                s,
                "{{\"action\":{action},\"dispatches\":{},\"target_overflow\":{},\"targets\":",
                site.dispatches, site.target_overflow
            );
            write_list(s, &site.targets, |s, (t, n)| {
                let _ = write!(s, "[{t},{n}]");
            });
            s.push('}');
        });
        s.push('}');
    }

    pub(crate) fn read(at: &At<'_>) -> Result<HotMetrics, DocError> {
        let mut hot = HotMetrics::new(at.u64_at("sample_every")?);
        hot.bursts = at.u64_at("bursts")?;
        hot.bursts_skipped = at.u64_at("bursts_skipped")?;
        let exits = at.get("exits")?;
        for exit in BurstExit::ALL {
            hot.exits[exit as usize] = exits.u64_at(exit.label())?;
        }
        hot.burst_steps = LogHistogram::read(&at.get("burst_steps")?)?;
        hot.burst_insns = LogHistogram::read(&at.get("burst_insns")?)?;
        hot.chain_overflow = at.u64_at("chain_overflow")?;
        hot.chain_overflow_insns = at.u64_at("chain_overflow_insns")?;
        hot.chains = at.get("chains")?.list(|c| {
            let sig = c.get("sig")?;
            Ok(ChainRow {
                sig: u64::from_str_radix(sig.str()?, 16).map_err(|_| sig.err("expected a hex signature"))?,
                path: c.get("path")?.list(At::u32)?,
                entry_action: c.get("entry_action")?.u32()?,
                entry_gen: c.get("entry_gen")?.u32()?,
                entry_idx: c.get("entry_idx")?.u32()?,
                replays: c.u64_at("replays")?,
                steps: c.u64_at("steps")?,
                insns: c.u64_at("insns")?,
            })
        })?;
        for (action, row) in at.get("sites")?.list(|site| {
            // Sites index a dense table; an action number past any real
            // action table is corrupt input, not an allocation request.
            let at_action = site.get("action")?;
            let action = at_action.u32()?;
            if action >= MAX_SITE {
                return Err(at_action.err("site action out of range"));
            }
            Ok((
                action,
                SiteRow {
                    dispatches: site.u64_at("dispatches")?,
                    target_overflow: site.u64_at("target_overflow")?,
                    targets: site.get("targets")?.list(|p| p.pair(At::u32, At::u64))?,
                },
            ))
        })? {
            *at_mut(&mut hot.sites, action as usize) = row;
        }
        Ok(hot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(actions: &[u32], steps: u64, insns: u64, exit: BurstExit) -> BurstRecord {
        let mut sig = SIG_SEED;
        let mut path = [0u32; CHAIN_DEPTH];
        let len = actions.len().min(CHAIN_DEPTH);
        for (i, &a) in actions.iter().take(len).enumerate() {
            path[i] = a;
            sig = fold_sig(sig, a);
        }
        BurstRecord {
            entry_action: actions.first().copied().unwrap_or(ENTRY_UNKNOWN),
            entry_gen: 0,
            entry_idx: 7,
            steps,
            insns,
            exit,
            sig,
            path,
            path_len: len as u8,
        }
    }

    fn busy_stream() -> Vec<BurstRecord> {
        let mut v = Vec::new();
        for i in 0..40u64 {
            v.push(rec(&[0, 1, 2], 3, 30 + i, BurstExit::Boundary));
            v.push(rec(&[0, 3], 1, 10, BurstExit::MissTest));
            if i % 5 == 0 {
                v.push(rec(&[4, 5, 6, 7], 8, 200, BurstExit::MissPlain));
            }
        }
        v.push(BurstRecord::evicted(2, 9));
        v.push(rec(&[0, 1, 2], 2, 20, BurstExit::Halt));
        v
    }

    #[test]
    fn exit_counters_and_histograms_recount_the_stream() {
        let stream = busy_stream();
        let mut h = HotMetrics::new(1);
        for r in &stream {
            h.observe_burst(r);
        }
        assert_eq!(h.bursts, stream.len() as u64);
        assert_eq!(h.exits.iter().sum::<u64>(), h.bursts);
        assert_eq!(h.burst_steps.count(), h.bursts);
        assert_eq!(h.burst_insns.count(), h.bursts);
        let steps: u64 = stream.iter().map(|r| r.steps).sum();
        let insns: u64 = stream.iter().map(|r| r.insns).sum();
        assert_eq!(h.burst_steps.sum(), steps);
        assert_eq!(h.burst_insns.sum(), insns);
        // Every non-evicted burst lands in some chain row (no overflow
        // with 3 distinct chains).
        assert_eq!(h.exits[BurstExit::Evicted as usize], 1);
        assert_eq!(h.tabled_replays() + h.chain_overflow, h.bursts - 1);
        assert_eq!(h.chains.len(), 3);
        assert_eq!(h.chains[0].path, vec![0, 1, 2]);
    }

    #[test]
    fn chain_table_caps_and_overflows_deterministically() {
        let mut h = HotMetrics::new(1);
        for a in 0..(HOT_CHAIN_CAP as u32 + 10) {
            h.observe_burst(&rec(&[a], 1, 5, BurstExit::Boundary));
        }
        assert_eq!(h.chains.len(), HOT_CHAIN_CAP);
        assert_eq!(h.chain_overflow, 10);
        assert_eq!(h.chain_overflow_insns, 50);
        // Counts survive even when identity is lost.
        assert_eq!(h.tabled_replays() + h.chain_overflow, h.bursts);
    }

    #[test]
    fn site_targets_cap_and_classify_polymorphism() {
        let mut h = HotMetrics::new(1);
        for _ in 0..5 {
            h.index_dispatch(3, 0);
        }
        assert!(h.sites[3].is_mono());
        for t in 1..(SITE_TARGET_CAP as u32 + 2) {
            h.index_dispatch(3, t);
        }
        assert!(!h.sites[3].is_mono());
        assert_eq!(h.sites[3].targets.len(), SITE_TARGET_CAP);
        assert_eq!(h.sites[3].target_overflow, 2);
        assert_eq!(h.sites[3].dispatches, 5 + SITE_TARGET_CAP as u64 + 1);
        assert_eq!(h.total_dispatches(), h.sites[3].dispatches);
    }

    #[test]
    fn merge_of_split_streams_is_bit_for_bit_the_combined_stream() {
        let stream = busy_stream();
        let mut combined = HotMetrics::new(1);
        for r in &stream {
            combined.observe_burst(r);
        }
        for i in 0..20u32 {
            combined.index_dispatch(i % 3, i % 5);
        }
        let (first, second) = stream.split_at(stream.len() / 2);
        let mut a = HotMetrics::new(1);
        let mut b = HotMetrics::new(1);
        for r in first {
            a.observe_burst(r);
        }
        for r in second {
            b.observe_burst(r);
        }
        for i in 0..20u32 {
            // The crossing stream splits at the same point: dispatches
            // are per-burst events, order within a lane is preserved.
            if i < 10 {
                a.index_dispatch(i % 3, i % 5);
            } else {
                b.index_dispatch(i % 3, i % 5);
            }
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn merge_respects_the_chain_cap() {
        let mut a = HotMetrics::new(1);
        let mut b = HotMetrics::new(1);
        for i in 0..HOT_CHAIN_CAP as u32 {
            a.observe_burst(&rec(&[i], 1, 1, BurstExit::Boundary));
        }
        for _ in 0..3 {
            b.observe_burst(&rec(&[999], 1, 7, BurstExit::Boundary));
        }
        a.merge(&b);
        assert_eq!(a.chains.len(), HOT_CHAIN_CAP);
        assert_eq!(a.chain_overflow, 3);
        assert_eq!(a.chain_overflow_insns, 21);
        assert_eq!(a.tabled_replays() + a.chain_overflow, a.bursts);
    }

    fn sample() -> HotMetrics {
        let mut hot = HotMetrics::new(1);
        for r in busy_stream() {
            hot.observe_burst(&r);
        }
        hot.index_dispatch(2, 0);
        hot.index_dispatch(2, 3);
        hot
    }

    fn json(h: &HotMetrics) -> String {
        let mut s = String::new();
        h.write_json(&mut s);
        s
    }

    #[test]
    fn section_round_trips() {
        let h = sample();
        let v = crate::json::parse(&json(&h)).unwrap();
        assert_eq!(HotMetrics::read(&At::root(&v)).unwrap(), h);
    }

    #[test]
    fn check_recounts_the_stream_and_reports_every_violation() {
        let stream = busy_stream();
        let mut h = HotMetrics::new(1);
        for r in &stream {
            h.observe_burst(r);
            // One dispatch per completed crossing, as the engine records.
            for _ in 0..r.steps {
                h.index_dispatch(1, 2);
            }
        }
        let sim = SimStatsSnapshot {
            fast_steps: h.burst_steps.sum(),
            fast_insns: h.burst_insns.sum(),
            ..SimStatsSnapshot::default()
        };
        assert_eq!(h.check(&sim), Vec::<String>::new());
        h.bursts += 1;
        h.chain_overflow_insns += 1;
        let errs = h.check(&sim);
        assert_eq!(errs.len(), 5, "{errs:?}");
        assert!(errs[0].starts_with("sum(exits) vs bursts"));
        assert!(errs[4].starts_with("tabled insns + overflow insns"));
    }

    #[test]
    fn merged_sections_serialize_like_a_single_registry_run() {
        let stream = busy_stream();
        let mut single = HotMetrics::new(1);
        for r in &stream {
            single.observe_burst(r);
        }
        let mut lane_a = HotMetrics::new(1);
        let mut lane_b = HotMetrics::new(1);
        let (first, second) = stream.split_at(3);
        for r in first {
            lane_a.observe_burst(r);
        }
        for r in second {
            lane_b.observe_burst(r);
        }
        lane_a.merge(&lane_b);
        assert_eq!(json(&lane_a), json(&single));
    }

    #[test]
    fn ranked_chains_order_by_cost() {
        let h = sample();
        let ranked = h.ranked_chains();
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(w[0].insns >= w[1].insns);
        }
    }

    #[test]
    fn evicted_pseudo_burst_is_zero_length() {
        let r = BurstRecord::evicted(4, 2);
        assert_eq!(r.steps, 0);
        assert_eq!(r.insns, 0);
        assert_eq!(r.path_len, 0);
        assert_eq!(r.entry_action, ENTRY_UNKNOWN);
        let mut h = HotMetrics::new(1);
        h.observe_burst(&r);
        assert_eq!(h.burst_steps.sum(), 0);
        assert!(h.chains.is_empty());
    }
}
