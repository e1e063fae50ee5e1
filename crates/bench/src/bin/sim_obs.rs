//! `sim_obs` — renders and checks `facile-run/v2` run documents alone,
//! with no re-simulation.
//!
//! Input is any mix of files produced by `facilec run --obs-out` (one
//! document), `facilec batch --obs-out` (JSONL: per-job documents, then
//! the merged batch document), serve result frames' `obs` member, or the
//! bench binaries' `--obs-out` (JSONL).
//!
//! ```text
//! sim_obs runs.jsonl [more.json ...] [--detail]   # every view
//! sim_obs prof.json --folded                      # folded stacks (flamegraph)
//! sim_obs runs.jsonl --check                      # every exactness gate (CI)
//! ```
//!
//! The default output is the paper's Table 1 view (percentage of
//! instructions fast-forwarded) and Table 2 view (memoized data) over
//! every document, then each document's sections: the flat per-line
//! profile with the top miss sites, the hot-chain report, and the
//! epoch sparklines with the warm-up verdict. `--detail` adds the
//! header and `metrics` registry dump. `--check` runs
//! [`RunDoc::check`] on every document and, for a batch file, refolds
//! the lanes and demands byte-equality with the merged document; it
//! reports every failure, not the first.

use bench::{fmt_rate, Args, Cli};
use facile_obs::json::{self, Value};
use facile_obs::{
    BurstExit, ChainRow, EpochRecord, HotMetrics, LogHistogram, Profile, RunDoc, SiteRow,
    TimelineMetrics, DEFAULT_STEADY_EPS, DEFAULT_STEADY_K,
};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

const CLI: Cli = Cli {
    usage: "\
usage: sim_obs <run.json|runs.jsonl>... [--detail] [--top N] [--misses K]
               [--width N] [--eps F] [--k N] [--folded] [--check]

Renders facile-run/v2 documents: Table 1/2 views over all of them, then
each document's profile, hot and timeline sections. --detail adds the
header and metrics registry, --folded prints flamegraph stacks only,
--check runs every exactness gate (and refolds a batch file's lanes),
reporting every failure; exit 1 if any fails. Defaults: --top 15,
--misses 5, --width 64, --eps 0.01, --k 5. See docs/OBSERVABILITY.md.",
    values: &["--top", "--misses", "--width", "--eps", "--k"],
    switches: &["--detail", "--folded", "--check"],
    files: true,
};

fn main() -> ExitCode {
    let args = CLI.parse();
    if args.files.is_empty() {
        args.fail("no input files");
    }
    let mut files = Vec::new();
    for path in &args.files {
        match load(path) {
            Ok(docs) => files.push((path.as_str(), docs)),
            Err(e) => {
                eprintln!("sim_obs: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.on("--check") {
        return check(&files);
    }
    let docs: Vec<&RunDoc> = files.iter().flat_map(|(_, d)| d).collect();
    let out = if args.on("--folded") {
        docs.iter()
            .filter_map(|d| Some(d.profile.as_ref()?.folded_stacks(&d.label)))
            .collect()
    } else {
        render(&docs, &args)
    };
    // One buffered write; a closed pipe (`sim_obs ... | head`) is the
    // reader's choice, not an error.
    let _ = std::io::stdout().write_all(out.as_bytes());
    ExitCode::SUCCESS
}

/// Reads one file: a single JSON document or JSONL (one per line).
fn load(path: &str) -> Result<Vec<RunDoc>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    if let Ok(v) = json::parse(&text) {
        return RunDoc::from_value(&v)
            .map(|d| vec![d])
            .map_err(|e| e.to_string());
    }
    let docs = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| RunDoc::from_json(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    if docs.is_empty() {
        return Err("no facile-run/v2 documents".to_owned());
    }
    Ok(docs)
}

/// `--check`: every gate of every document, plus the batch refold.
fn check(files: &[(&str, Vec<RunDoc>)]) -> ExitCode {
    let mut failures = 0usize;
    let mut fail = |what: &str, msg: &str| {
        failures += 1;
        eprintln!("FAIL {what}: {msg}");
    };
    for (path, docs) in files {
        for d in docs {
            let errs = d.check();
            for e in &errs {
                fail(&d.label, e);
            }
            if errs.is_empty() {
                println!("ok   {}: {} insns", d.label, d.sim.insns);
            }
        }
        if let Some(diffs) = refold(docs) {
            for key in &diffs {
                fail(
                    path,
                    &format!("refolded lanes differ from the merged document in `{key}`"),
                );
            }
            if diffs.is_empty() {
                println!(
                    "ok   {path}: {} lanes refold into `{}`",
                    docs.len() - 1,
                    docs[docs.len() - 1].label
                );
            }
        }
    }
    if failures > 0 {
        eprintln!("sim_obs --check: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// For a batch file — lanes, then the merged `batch(N jobs)` document —
/// refolds the lanes in order and returns the top-level members where
/// the fold and the merged document differ; `None` for other files.
fn refold(docs: &[RunDoc]) -> Option<Vec<String>> {
    let (merged, lanes) = docs.split_last()?;
    if lanes.is_empty() || merged.label != format!("batch({} jobs)", lanes.len()) {
        return None;
    }
    let mut fold = lanes[0].clone();
    fold.label.clone_from(&merged.label);
    for lane in &lanes[1..] {
        if let Err(e) = fold.merge(lane) {
            return Some(vec![format!("profile ({e})")]);
        }
    }
    let (Ok(Value::Obj(a)), Ok(Value::Obj(b))) =
        (json::parse(&fold.to_json()), json::parse(&merged.to_json()))
    else {
        unreachable!("documents serialize to JSON objects");
    };
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    Some(
        keys.into_iter()
            .filter(|k| a.get(*k) != b.get(*k))
            .cloned()
            .collect(),
    )
}

/// The default view: both tables, then every document's sections.
fn render(docs: &[&RunDoc], args: &Args) -> String {
    let top = args.get("--top", 15usize);
    let misses = args.get("--misses", 5usize);
    let width = args.get("--width", 64usize).max(8);
    let eps = args.get("--eps", DEFAULT_STEADY_EPS);
    let k = args.get("--k", DEFAULT_STEADY_K).max(1);
    let mut out = String::with_capacity(4096);
    let _ = writeln!(
        out,
        "Table 1-style: percentage of instructions fast-forwarded\n"
    );
    let _ = writeln!(
        out,
        "{:<26} {:>14} {:>10} {:>12}",
        "label", "insns", "ff%", "insn/s"
    );
    for d in docs {
        let _ = writeln!(
            out,
            "{:<26} {:>14} {:>10.3} {:>12}",
            d.label,
            d.sim.insns,
            100.0 * d.sim.fast_forwarded_fraction(),
            fmt_rate(d.insns_per_sec()),
        );
    }
    let _ = writeln!(out, "\nTable 2-style: quantity of memoized data\n");
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>12} {:>8} {:>10}",
        "label", "MiB total", "MiB peak", "clears", "misses"
    );
    for d in docs {
        let _ = writeln!(
            out,
            "{:<26} {:>12.2} {:>12.2} {:>8} {:>10}",
            d.label,
            mib(d.cache.bytes_total),
            d.cache.peak_mib(),
            d.cache.clears,
            d.sim.misses,
        );
    }
    for d in docs {
        if args.on("--detail") {
            detail(&mut out, d);
        }
        if let Some(p) = &d.profile {
            profile(&mut out, d, p, top, misses);
        }
        if let Some(h) = &d.hot {
            hot(&mut out, d, h, top);
        }
        if let Some(t) = &d.timeline {
            timeline(&mut out, d, t, width, eps, k);
        }
    }
    out
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `--detail`: the header counters and the metrics registry.
fn detail(out: &mut String, d: &RunDoc) {
    let (s, c) = (&d.sim, &d.cache);
    let _ = writeln!(out, "\n--- {} ---", d.label);
    let _ = writeln!(
        out,
        "engines: {} fast insn, {} slow insn over {} fast / {} slow steps",
        s.fast_insns, s.slow_insns, s.fast_steps, s.slow_steps
    );
    let _ = writeln!(
        out,
        "replay:  {} actions, {} misses, {} recoveries, {} ext calls",
        s.actions_replayed, s.misses, s.recoveries, s.ext_calls
    );
    // Generational-cache accounting: how much the eviction policy threw
    // away and how much of the peak footprint was still resident at the
    // end of the run (1.0 = nothing was ever evicted or cleared).
    let _ = writeln!(
        out,
        "cache:   {} evictions ({:.2} MiB evicted), {} clears, residency {:.1}% of {:.2} MiB peak",
        c.evictions,
        mib(c.bytes_evicted),
        c.clears,
        100.0 * c.bytes_current as f64 / c.bytes_peak.max(1) as f64,
        c.peak_mib(),
    );
    // Warm-started runs (facilec --cache-load) pin a frozen snapshot
    // image next to the live cache; its bytes sit outside the
    // bytes_current/peak accounting above.
    if c.frozen_gens > 0 {
        let _ = writeln!(
            out,
            "warm:    {:.2} MiB snapshot loaded across {} pinned generation(s)",
            mib(c.bytes_frozen),
            c.frozen_gens,
        );
    }
    let Some(m) = &d.metrics else {
        let _ = writeln!(out, "metrics: (no metrics section)");
        return;
    };
    let _ = writeln!(
        out,
        "metrics: {} engine switches, {} clean slow hand-offs, {} cache clears",
        m.engine_switches, m.need_slow, m.cache_clears
    );
    let mut hot: Vec<(usize, u64)> = m
        .action_replays
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    if !hot.is_empty() {
        let list: Vec<String> = hot
            .iter()
            .take(5)
            .map(|(a, c)| format!("#{a}\u{d7}{c}"))
            .collect();
        let _ = writeln!(out, "hottest replayed actions: {}", list.join(", "));
    }
    hist(out, "recovery depth", &m.recovery_depth, "");
    hist(out, "slow-step time", &m.slow_step_ns, "ns");
    hist(out, "fast-burst time", &m.fast_burst_ns, "ns");
    hist(out, "fast-burst steps", &m.fast_burst_steps, "");
}

/// One histogram line. `quantile_lo` returns the *lower bound* of the
/// log2 bucket holding the quantile (it can undershoot by up to 2x), so
/// the labels say `p50_lo`/`p99_lo`, never `p50`/`p99`.
fn hist(out: &mut String, name: &str, h: &LogHistogram, unit: &str) {
    if h.count() == 0 {
        return;
    }
    let _ = writeln!(
        out,
        "{name}: n={} sum={} mean={:.1}{unit} p50_lo={}{unit} p99_lo={}{unit} max={}{unit}",
        h.count(),
        h.sum(),
        h.mean(),
        h.quantile_lo(50),
        h.quantile_lo(99),
        h.max(),
    );
}

/// The flat per-line profile and the top miss sites.
fn profile(out: &mut String, d: &RunDoc, p: &Profile, top: usize, k: usize) {
    let total = p.attributed_insns();
    let _ = writeln!(out, "\n=== {} ({}) profile ===", d.label, p.file);
    let _ = writeln!(
        out,
        "attributed: {} insns over {} actions ({} fast, {} slow of sim total {}), {} misses",
        total,
        p.rows.len(),
        d.sim.fast_insns,
        d.sim.slow_insns,
        d.sim.insns,
        p.attributed_misses(),
    );
    if d.sim.slow_steps > 0 {
        let _ = writeln!(
            out,
            "slow engine: {} ops over {} slow steps ({:.1} ops/step)",
            p.slow_ops,
            d.sim.slow_steps,
            p.slow_ops as f64 / d.sim.slow_steps as f64,
        );
    }
    let _ = writeln!(
        out,
        "\n{:>6} {:>14} {:>7} {:>12} {:>10} {:>8}",
        "line", "insns", "insn%", "replays", "misses", "actions"
    );
    for l in p.flat_lines().into_iter().take(top) {
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>7.2} {:>12} {:>10} {:>8}",
            l.line,
            l.insns,
            100.0 * l.insns as f64 / total.max(1) as f64,
            l.replays,
            l.misses,
            l.actions,
        );
    }
    let rows = p.top_misses(k);
    if rows.is_empty() {
        let _ = writeln!(out, "\n(no misses attributed)");
        return;
    }
    let _ = writeln!(
        out,
        "\ntop miss sites (dynamic result tests that broke fast-forwarding):"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>20} {:>10}  divergent values (value\u{d7}count)",
        "action", "kind", "guard", "misses"
    );
    for r in rows {
        let vals: Vec<String> = r
            .miss_values
            .iter()
            .map(|(v, c)| format!("{v}\u{d7}{c}"))
            .collect();
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>20} {:>10}  {}",
            r.action,
            r.kind,
            format!("{}:{}:{}", p.file, r.guard_line, r.guard_col),
            r.misses,
            if vals.is_empty() {
                "-".to_owned()
            } else {
                vals.join(" ")
            },
        );
    }
    if p.miss_value_overflow > 0 {
        let _ = writeln!(
            out,
            "({} miss value(s) beyond the per-action tracking cap)",
            p.miss_value_overflow
        );
    }
}

/// The flight-recorder report: bursts, exits, dispatch stability,
/// supertraces, hot chains and superinstruction candidates.
fn hot(out: &mut String, d: &RunDoc, h: &HotMetrics, top: usize) {
    let _ = writeln!(out, "\n=== {} hot ===", d.label);
    let _ = writeln!(
        out,
        "run:     {} insns ({:.1}% fast-forwarded), {} fast / {} slow steps, {:.3} s wall",
        d.sim.insns,
        100.0 * d.sim.fast_forwarded_fraction(),
        d.sim.fast_steps,
        d.sim.slow_steps,
        d.wall_ns as f64 / 1e9,
    );
    let _ = writeln!(
        out,
        "bursts:  {} recorded, {} skipped (1-in-{} sampling)",
        h.bursts, h.bursts_skipped, h.sample_every
    );
    let exits: Vec<String> = BurstExit::ALL
        .iter()
        .filter(|e| h.exits[**e as usize] > 0)
        .map(|e| format!("{} {}", e.label(), h.exits[*e as usize]))
        .collect();
    let _ = writeln!(out, "exits:   {}", exits.join(", "));
    hist(out, "burst steps", &h.burst_steps, "");
    hist(out, "burst insns", &h.burst_insns, "");

    // Dispatch stability: how predictable each INDEX crossing is. A
    // linearizer can fuse across monomorphic sites without a guard.
    let live: Vec<(usize, &SiteRow)> = h
        .sites
        .iter()
        .enumerate()
        .filter(|(_, s)| s.dispatches > 0)
        .collect();
    let mono = live.iter().filter(|(_, s)| s.is_mono()).count();
    let _ = writeln!(
        out,
        "sites:   {} INDEX sites dispatched, {} monomorphic, {} polymorphic",
        live.len(),
        mono,
        live.len() - mono
    );
    let mut poly: Vec<&(usize, &SiteRow)> = live.iter().filter(|(_, s)| !s.is_mono()).collect();
    poly.sort_by(|a, b| b.1.dispatches.cmp(&a.1.dispatches).then(a.0.cmp(&b.0)));
    for (action, s) in poly.iter().take(5) {
        let targets: Vec<String> = s
            .targets
            .iter()
            .map(|(t, n)| format!("#{t}\u{d7}{n}"))
            .collect();
        let beyond = if s.target_overflow > 0 {
            format!(" (+{} beyond cap)", s.target_overflow)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "         poly #{action}: {} dispatches -> {}{beyond}",
            s.dispatches,
            targets.join(", "),
        );
    }

    // Superaction compilation: what the VM linearized and how much
    // replay ran direct-threaded (zeros mean supertrace was off or
    // nothing crossed the hotness threshold).
    let t = &d.trace;
    if t.built + t.build_failed + t.enters > 0 {
        let _ = writeln!(
            out,
            "straces: {} built, {} build-failed, {} invalidated; {} enters ({} bailed, {:.1}%)",
            t.built,
            t.build_failed,
            t.invalidated,
            t.enters,
            t.bails,
            100.0 * t.bails as f64 / t.enters.max(1) as f64,
        );
        let _ = writeln!(
            out,
            "         {} steps / {} insns inside traces ({:.1}% of fast-path insns)",
            t.steps,
            t.insns,
            100.0 * t.insns as f64 / d.sim.fast_insns.max(1) as f64,
        );
    }

    let ranked = h.ranked_chains();
    let recorded = h.burst_insns.sum().max(1);
    let _ = writeln!(
        out,
        "\nhot chains (top {} of {}, {} overflowed):",
        top.min(ranked.len()),
        ranked.len(),
        h.chain_overflow
    );
    let _ = writeln!(
        out,
        "{:>4} {:>10} {:>10} {:>12} {:>7} {:>5}  chain",
        "rank", "replays", "steps", "insns", "insn%", "len"
    );
    for (i, c) in ranked.iter().take(top).enumerate() {
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>10} {:>12} {:>7.2} {:>5}  {}",
            i + 1,
            c.replays,
            c.steps,
            c.insns,
            100.0 * c.insns as f64 / recorded as f64,
            c.path.len(),
            fmt_path(c),
        );
    }
    let top10: u64 = ranked.iter().take(10).map(|c| c.insns).sum();
    let _ = writeln!(
        out,
        "top-10 chains cover {:.1}% of recorded fast-path insns",
        100.0 * top10 as f64 / recorded as f64
    );

    // Superinstruction candidates: chains whose every INDEX crossing is
    // monomorphic replay the same action sequence every time, so a
    // linearizer could fuse them into one dispatch. The saving estimate
    // counts the dispatches the fusion removes.
    let stable = |c: &ChainRow| {
        c.path.iter().all(|&a| {
            h.sites
                .get(a as usize)
                .is_none_or(|s| s.dispatches == 0 || s.is_mono())
        })
    };
    let mut cands: Vec<(&ChainRow, u64)> = ranked
        .iter()
        .filter(|c| c.path.len() >= 2 && stable(c))
        .map(|c| (*c, c.replays.saturating_mul(c.path.len() as u64 - 1)))
        .collect();
    cands.sort_by_key(|(_, saved)| std::cmp::Reverse(*saved));
    if cands.is_empty() {
        let _ = writeln!(
            out,
            "superinstruction candidates: none (no stable multi-action chains)"
        );
    } else {
        let _ = writeln!(
            out,
            "superinstruction candidates (stable chains, by saved dispatches):"
        );
        for (c, saved) in cands.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:<40} replays {:>8}  est. saved dispatches {:>10}",
                fmt_path(c),
                c.replays,
                saved
            );
        }
    }
}

fn fmt_path(c: &ChainRow) -> String {
    let path: Vec<String> = c.path.iter().map(|a| format!("#{a}")).collect();
    path.join(">")
}

/// The epoch sparklines and the steady-state detector's verdict.
fn timeline(out: &mut String, d: &RunDoc, t: &TimelineMetrics, width: usize, eps: f64, k: usize) {
    let _ = writeln!(out, "\n=== {} timeline ===", d.label);
    let _ = writeln!(
        out,
        "run:     {} insns ({:.1}% fast-forwarded), {} steps, {:.3} s wall",
        d.sim.insns,
        100.0 * d.sim.fast_forwarded_fraction(),
        t.totals.steps(),
        d.wall_ns as f64 / 1e9,
    );
    let _ = writeln!(
        out,
        "epochs:  {} of {} steps each ({} retained, {} dropped from the ring)",
        t.epochs_total(),
        t.epoch_steps,
        t.epochs.len(),
        t.dropped,
    );
    // Warm-started runs carry a pinned snapshot image; epoch 0 then
    // starts inside the memoized regime.
    if d.cache.frozen_gens > 0 {
        let _ = writeln!(
            out,
            "warm:    {:.2} MiB snapshot across {} pinned generation(s), epoch-0 fast-fraction {:.4}",
            mib(d.cache.bytes_frozen),
            d.cache.frozen_gens,
            t.epochs.first().map_or(0.0, EpochRecord::fast_fraction),
        );
    }
    if t.epochs.is_empty() {
        return;
    }
    let ff: Vec<f64> = t.epochs.iter().map(EpochRecord::fast_fraction).collect();
    let sps: Vec<f64> = t.epochs.iter().map(EpochRecord::steps_per_sec).collect();
    let peak = sps.iter().cloned().fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "fast-fraction per epoch (0..1):\n  [{}]",
        sparkline(&ff, width, 1.0)
    );
    let _ = writeln!(
        out,
        "steps/sec per epoch (peak {peak:.0}):\n  [{}]",
        sparkline(&sps, width, peak)
    );
    match t.detect(eps, k) {
        Some(w) => {
            let _ = writeln!(
                out,
                "warm-up (|fast_fraction - tail mean| <= {} for {} epochs):",
                w.eps, w.k
            );
            let _ = writeln!(
                out,
                "  steady from epoch {:>6}   tail mean fast-fraction {:.4}",
                w.steady_state_epoch, w.tail_mean
            );
            let _ = writeln!(
                out,
                "  warm-up spent {:>12} steps   {:.3} ms wall",
                w.warmup_steps,
                w.warmup_wall_ns as f64 / 1e6
            );
        }
        None => {
            let _ = writeln!(
                out,
                "warm-up: never settled (or too few epochs for the detector)"
            );
        }
    }
}

/// Bucket-averages `vals` down to at most `width` columns and maps each
/// column onto a 10-level density ramp against `scale` (values at or
/// above `scale` print as the densest glyph).
fn sparkline(vals: &[f64], width: usize, scale: f64) -> String {
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let cols = vals.len().min(width);
    (0..cols)
        .map(|c| {
            // Column c averages the half-open value range [lo, hi).
            let lo = c * vals.len() / cols;
            let hi = ((c + 1) * vals.len() / cols).max(lo + 1);
            let mean = vals[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            let norm = if scale > 0.0 {
                (mean / scale).clamp(0.0, 1.0)
            } else {
                0.0
            };
            RAMP[((norm * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)]
        })
        .collect()
}
