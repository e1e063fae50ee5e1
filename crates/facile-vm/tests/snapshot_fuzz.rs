//! Hostile-input fuzz of `facile-snap/v3` loading: seeded mutations of
//! real snapshot payloads, with the payload checksum re-stamped so that
//! every mutation gets past the checksum and reaches the decoder, the
//! image builder, `LoadedSnapshot::validate` and a step-bounded warm
//! run. Every case runs under `catch_unwind`; a malformed snapshot must
//! come back as a `SnapshotError` (or run to the step bound) — never a
//! panic.

use facile_codegen::{compile, CodegenConfig, CompiledStep};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::key::hash_bytes;
use facile_runtime::{CachePolicy, Image, Target};
use facile_sema::analyze as sema;
use facile_vm::engine::{ArgValue, SimOptions, Simulation};
use facile_vm::snapshot::{self, HEADER_LEN};
use std::sync::Arc;

/// The branchy looping simulator of `snapshot_persistence.rs`.
const BRANCHY: &str = "ext fun flip(salt : int) : int;
    fun main(x : int) {
      count_insns(1);
      val t = flip(x)?verify;
      trace(t);
      count_cycles(t + 1);
      val c = mem_ld(0);
      mem_st(0, c + 1);
      if (c >= 150) { sim_halt(); }
      next((x + t + 1) % 7);
    }";

/// A looping simulator whose INDEX nodes end in a packed key tail of a
/// queue and a scalar, so mutations reach multi-byte tails.
const QUEUED: &str = "ext fun lat(a : int) : int;
    fun main(iq : queue, pc : int) {
      iq?push_back(pc % 7);
      if (iq?len > 3) { iq?pop_front(); }
      val l = lat(pc)?verify;
      count_insns(1);
      val c = mem_ld(0);
      mem_st(0, c + 1);
      if (c >= 150) { sim_halt(); }
      next(iq, (pc + l) % 13);
    }";

/// A looping simulator whose run-time-static branch splits its plain
/// work into several actions, so its nodes hold runs of several actions
/// and mutations reach the action numbers inside them.
const RUNS: &str = "ext fun lat(a : int) : int;
    fun main(pc : int) {
      val c = mem_ld(0);
      mem_st(0, c + 1);
      if (pc > 3) { count_insns(2); } else { count_insns(1); }
      count_cycles(lat(pc));
      if (c >= 150) { sim_halt(); }
      next((pc + 1) % 7);
    }";

/// The simulator a fuzz run mutates snapshots of.
#[derive(Clone, Copy)]
enum Subject {
    Branchy,
    Queued,
    Runs,
}

/// Step bound of a warm run: a corrupted graph may replay nonsense,
/// but it must stop.
const STEPS: u64 = 2_000;

/// SplitMix64, inlined so the fuzz needs no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn build(src: &str) -> CompiledStep {
    let mut diags = Diagnostics::new();
    let prog = parse(src, &mut diags);
    let syms = sema(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(src));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
}

fn sim(subject: Subject, step: &Arc<CompiledStep>, opts: SimOptions) -> Simulation {
    let args = match subject {
        Subject::Branchy | Subject::Runs => vec![ArgValue::Scalar(0)],
        Subject::Queued => vec![ArgValue::Queue(vec![]), ArgValue::Scalar(0)],
    };
    let mut s = Simulation::new(
        Arc::clone(step),
        Target::load(&Image::default()),
        &args,
        opts,
    )
    .unwrap();
    // Mutated placeholders reach these with arbitrary arguments, so the
    // arithmetic must not overflow.
    match subject {
        Subject::Branchy => s.bind_external("flip", |args| {
            args[0].wrapping_mul(31).wrapping_add(7).rem_euclid(3)
        }),
        Subject::Queued | Subject::Runs => {
            s.bind_external("lat", |args| 1 + args[0].rem_euclid(3))
        }
    }
    .unwrap();
    s
}

/// Real snapshots and the options they were recorded under: a full cold
/// run, a half run, and a generational run at a tiny capacity (many
/// generations, evicted links pruned).
fn seeds(subject: Subject, step: &Arc<CompiledStep>) -> Vec<(Vec<u8>, SimOptions)> {
    let tiny = SimOptions {
        cache_capacity: Some(120),
        cache_policy: CachePolicy::Generational,
        ..SimOptions::default()
    };
    [
        (SimOptions::default(), u64::MAX),
        (SimOptions::default(), 60),
        (tiny, u64::MAX),
    ]
    .into_iter()
    .map(|(opts, steps)| {
        let mut s = sim(subject, step, opts);
        s.run_steps(steps);
        (snapshot::save(&s), opts)
    })
    .collect()
}

/// Applies one or two mutations to the payload of `input`, splicing
/// from `corpus`, then re-stamps the payload checksum.
fn mutate(rng: &mut SplitMix, input: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    const WORDS: [u32; 8] = [0, 1, 2, 7, 0x7fff_ffff, 0x8000_0000, u32::MAX - 1, u32::MAX];
    const VALUES: [i64; 6] = [0, 1, -1, 100, i64::MIN, i64::MAX];
    let head = HEADER_LEN as usize;
    let mut b = input.to_vec();
    for _ in 0..1 + rng.below(2) {
        let len = b.len() - head;
        let at = head + rng.below(len);
        // In-place rewrites keep the layout aligned, so most of them
        // reach the builder and `validate`; truncations and splices
        // exercise the decoder's bounds.
        match rng.below(10) {
            0 | 1 if len > 0 => b[at] ^= 1 << rng.below(8),
            2 if len > 0 => b[at] = rng.next() as u8,
            3..=5 if len >= 4 => {
                let at = head + rng.below(len - 3);
                let w = WORDS[rng.below(WORDS.len())];
                b[at..at + 4].copy_from_slice(&w.to_le_bytes());
            }
            6 | 7 if len >= 8 => {
                let at = head + rng.below(len - 7);
                let v = VALUES[rng.below(VALUES.len())];
                b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            8 => b.truncate(at),
            _ => {
                let donor = &corpus[rng.below(corpus.len())][head..];
                let lo = rng.below(donor.len());
                let hi = (lo + rng.below(64)).min(donor.len());
                b.splice(at..at, donor[lo..hi].iter().copied());
            }
        }
    }
    let sum = hash_bytes(&b[head..]);
    b[56..64].copy_from_slice(&sum.to_le_bytes());
    b
}

#[test]
fn mutated_snapshots_are_errors_not_panics() {
    fuzz(Subject::Branchy, BRANCHY);
}

#[test]
fn mutated_key_tails_are_errors_not_panics() {
    fuzz(Subject::Queued, QUEUED);
}

#[test]
fn mutated_runs_are_errors_not_panics() {
    fuzz(Subject::Runs, RUNS);
}

/// Runs 2,000 seeded mutations of `subject`'s real snapshots through
/// parse, validate and a bounded warm run, demanding no panic.
fn fuzz(subject: Subject, src: &str) {
    let step = Arc::new(build(src));
    let seeds = seeds(subject, &step);
    let corpus: Vec<Vec<u8>> = seeds.iter().map(|(b, _)| b.clone()).collect();
    for (bytes, opts) in &seeds {
        let loaded = snapshot::parse(bytes).expect("seed parses");
        loaded
            .validate(&sim(subject, &step, *opts))
            .expect("seed validates");
    }

    let (mut panics, mut parsed, mut validated, mut ran) = (0, 0, 0, 0);
    const CASES: usize = 2_000;
    for case in 0..CASES {
        let (seed, opts) = &seeds[case % seeds.len()];
        let mut rng = SplitMix(case as u64 ^ 0x5eed_f00d);
        let bytes = mutate(&mut rng, seed, &corpus);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let Ok(loaded) = snapshot::parse(&bytes) else {
                return (0, 0, 0);
            };
            let mut s = sim(subject, &step, *opts);
            if loaded.validate(&s).is_err() {
                return (1, 0, 0);
            }
            if s.warm_start(loaded.image()).is_err() {
                return (1, 1, 0);
            }
            s.run_steps(STEPS);
            (1, 1, 1)
        }));
        match outcome {
            Ok((p, v, r)) => {
                parsed += p;
                validated += v;
                ran += r;
            }
            Err(_) => panics += 1,
        }
    }
    println!(
        "snapshot fuzz: {CASES} cases, {parsed} parsed, {validated} validated, \
         {ran} warm runs, {panics} panics"
    );
    assert_eq!(panics, 0, "hostile snapshots must never panic");
    assert!(parsed > CASES / 10, "only {parsed} mutations parsed");
    assert!(
        validated > CASES / 20,
        "only {validated} mutations validated"
    );
    assert!(ran > CASES / 20, "only {ran} mutations ran warm");
}
