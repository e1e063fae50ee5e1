//! Action-cache persistence: `facile-snap/v2` round-trips, validity
//! rejection, and copy-on-write sharing (see `docs/PERSISTENCE.md`).
//!
//! The contract under test is fail-safe warm-starting: a valid snapshot
//! makes a run start fast (replay from step 0, no recording warm-up)
//! with bit-identical architectural results; an invalid snapshot of
//! *any* kind is rejected cleanly and the run proceeds cold — also with
//! bit-identical results.

use facile_codegen::{compile, CodegenConfig};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::cache::{ActionCache, Cursor, FrozenGens, FrozenGensBuilder, Node, SlabRange};
use facile_runtime::Key;
use facile_runtime::{Image, Target};
use facile_sema::analyze as sema;
use facile_vm::engine::{ArgValue, SimOptions, Simulation};
use facile_vm::snapshot::{self, SnapshotError, HEADER_LEN};
use std::sync::Arc;

/// A branchy looping simulator: INDEX actions chain the steps, the
/// verified external forks TEST successors, memory and the trace carry
/// dynamic state. Everything persistence must preserve.
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

fn build(src: &str) -> facile_codegen::CompiledStep {
    let mut diags = Diagnostics::new();
    let prog = parse(src, &mut diags);
    let syms = sema(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(src));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
}

fn branchy_sim(opts: SimOptions) -> Simulation {
    let step = build(BRANCHY);
    let mut s = Simulation::new(
        step,
        Target::load(&Image::default()),
        &[ArgValue::Scalar(0)],
        opts,
    )
    .unwrap();
    // Deterministic outcome sequence keyed on the argument only, so
    // replay and re-execution agree.
    s.bind_external("flip", move |args| (args[0] * 31 + 7) % 3)
        .unwrap();
    s
}

/// The observable end state that must be bit-identical across cold,
/// warm, and rejected-snapshot runs.
fn fingerprint(s: &Simulation) -> (Option<facile_runtime::HaltReason>, u64, u64, Vec<i64>, u64) {
    (
        s.halted(),
        s.stats().cycles,
        s.stats().insns,
        s.trace().to_vec(),
        s.memory().digest(),
    )
}

/// Rebuilds `image` through the decoder's builder with each node's data
/// range replaced by `data(slab, node)`; the closure may append to its
/// generation's slab. Links and entries are kept.
fn rebuild(
    image: &FrozenGens,
    mut data: impl FnMut(&mut Vec<i64>, &Node) -> SlabRange,
) -> FrozenGens {
    let mut b = FrozenGensBuilder::new();
    for g in image.gens() {
        let mut slab = g.slab().to_vec();
        let nodes = (g.nodes().iter())
            .map(|n| Node {
                action: n.action,
                data: data(&mut slab, n),
            })
            .collect();
        let succs = (0..g.nodes().len()).map(|i| g.succ(i).clone()).collect();
        b.push_gen(g.seq(), slab, nodes, succs).unwrap();
    }
    for (key, n) in image.entries().iter() {
        b.push_entry(key, n).unwrap();
    }
    b.finish(u32::MAX).unwrap()
}

fn recorded_snapshot() -> Vec<u8> {
    let mut cold = branchy_sim(SimOptions::default());
    cold.run_steps(100_000);
    assert!(cold.halted().is_some(), "cold run must finish");
    snapshot::save(&cold)
}

#[test]
fn warm_run_matches_cold_run_exactly_and_skips_recording() {
    let mut cold = branchy_sim(SimOptions::default());
    cold.run_steps(100_000);
    let bytes = snapshot::save(&cold);

    let mut warm = branchy_sim(SimOptions::default());
    let snap = snapshot::parse(&bytes).expect("well-formed snapshot");
    snap.validate(&warm).expect("same program, same target");
    warm.warm_start(snap.image()).unwrap();
    warm.run_steps(100_000);

    assert_eq!(fingerprint(&warm), fingerprint(&cold));
    // The whole point: the recorded graph replays from step 0.
    assert_eq!(warm.stats().slow_steps, 0, "warm run should never record");
    assert_eq!(warm.cache_stats().nodes_created, 0);
    assert!(warm.cache_stats().bytes_frozen > 0);
    assert_eq!(
        warm.cache_stats().bytes_frozen,
        bytes.len() as u64 - HEADER_LEN as u64,
        "bytes_frozen reports the serialized payload size"
    );
}

#[test]
fn refrozen_snapshot_is_stable() {
    // freeze → encode → parse → freeze is a fixed point: saving a
    // warm-started run that recorded nothing new writes the same bytes,
    // because the image's entries are exported first, in image order.
    let bytes = recorded_snapshot();
    let snap = snapshot::parse(&bytes).unwrap();

    let mut warm = branchy_sim(SimOptions::default());
    warm.warm_start(snap.image()).unwrap();
    warm.run_steps(100_000);
    let bytes2 = snapshot::save(&warm);
    let snap2 = snapshot::parse(&bytes2).unwrap();
    assert_eq!(
        snap2.image().node_count(),
        snap.image().node_count(),
        "pure replay must not grow the graph"
    );
    assert_eq!(snap2.image().entry_count(), snap.image().entry_count());
    assert!(bytes2 == bytes, "a pure-replay refreeze rewrites the same bytes");
}

/// `bytes` with its payload checksum re-stamped after an edit.
fn restamp(mut bytes: Vec<u8>) -> Vec<u8> {
    let sum = facile_runtime::key::hash_bytes(&bytes[HEADER_LEN as usize..]);
    bytes[56..64].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn a_duplicated_entry_key_is_corrupt() {
    // The last entry record (key length, key, target) ends the payload;
    // append a second copy of it and count it in the header.
    let bytes = recorded_snapshot();
    let image = snapshot::parse(&bytes).unwrap().image();
    let (key, _) = image.entries().iter().last().expect("entries");
    let record = 4 + key.len() + 8;
    let mut twice = bytes.clone();
    twice.extend_from_slice(&bytes[bytes.len() - record..]);
    let entries = image.entry_count() as u32 + 1;
    twice[52..56].copy_from_slice(&entries.to_le_bytes());
    assert_eq!(
        snapshot::parse(&restamp(twice)).err(),
        Some(SnapshotError::Corrupt("duplicate entry key".into()))
    );
}

/// A cache warm-started from the recorded snapshot, and its image.
fn warm_cache() -> (ActionCache, Arc<FrozenGens>) {
    let image = snapshot::parse(&recorded_snapshot()).unwrap().image();
    let mut cache = ActionCache::new();
    cache.install_frozen(Arc::clone(&image)).unwrap();
    (cache, image)
}

#[test]
fn recording_a_key_the_image_holds_keeps_the_image_entry() {
    let (mut cache, image) = warm_cache();
    for (key, entry) in image.entries().iter() {
        let mut cursor = Cursor::AtEntry(Key::from_bytes(key));
        let private = cache.record_plain(&mut cursor, 0, &[]);
        assert_ne!(private, entry);
        assert_eq!(cache.entry_bytes(key), Some(entry), "the image entry wins");
    }
    assert_eq!(cache.stats().entries_created, 0, "no key was registered");
    assert_eq!(cache.entry_count(), 0);
}

#[test]
fn image_entries_survive_a_clear() {
    let (mut cache, image) = warm_cache();
    let fresh = Key::from_bytes(b"not in the image");
    cache.record_plain(&mut Cursor::AtEntry(fresh.clone()), 0, &[]);
    let created = cache.stats().entries_created;
    assert_eq!(created, 1);
    cache.clear();
    assert_eq!(cache.entry(&fresh), None, "the cache's own entry is gone");
    for (key, entry) in image.entries().iter() {
        assert_eq!(cache.entry_bytes(key), Some(entry));
    }
    assert_eq!(cache.stats().entries_created, created);
}

#[test]
fn every_header_field_gates_the_load() {
    let bytes = recorded_snapshot();
    let sim = branchy_sim(SimOptions::default());

    // Parse-time rejections: magic, version, header length, policy
    // byte, reserved bytes, checksum, truncation.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(snapshot::parse(&bad), Err(SnapshotError::BadMagic)));

    let mut bad = bytes.clone();
    bad[8] = 9; // version
    assert!(matches!(
        snapshot::parse(&bad),
        Err(SnapshotError::UnsupportedVersion(9))
    ));

    let mut bad = bytes.clone();
    bad[12] = 63; // header_len
    assert!(matches!(
        snapshot::parse(&bad),
        Err(SnapshotError::BadHeader(_))
    ));

    let mut bad = bytes.clone();
    bad[40] = 7; // policy byte
    assert!(matches!(
        snapshot::parse(&bad),
        Err(SnapshotError::BadHeader(_))
    ));

    let mut bad = bytes.clone();
    bad[41] = 1; // reserved must be zero
    assert!(matches!(
        snapshot::parse(&bad),
        Err(SnapshotError::BadHeader(_))
    ));

    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01; // payload bit flip → checksum
    assert!(matches!(snapshot::parse(&bad), Err(SnapshotError::Corrupt(_))));

    let mut bad = bytes.clone();
    bad[56] ^= 0x01; // stored checksum itself
    assert!(matches!(snapshot::parse(&bad), Err(SnapshotError::Corrupt(_))));

    let bad = &bytes[..bytes.len() - 9]; // truncated slab/payload
    assert!(matches!(snapshot::parse(bad), Err(SnapshotError::Corrupt(_))));

    let bad = &bytes[..HEADER_LEN as usize / 2]; // truncated header
    assert!(snapshot::parse(bad).is_err());

    // Validate-time rejections: digest, fingerprint, capacity, policy.
    let mut bad = bytes.clone();
    bad[16] ^= 0xFF; // target digest — rewrite checksum? No: digest is
                     // in the header, outside the payload checksum.
    assert!(matches!(
        snapshot::parse(&bad).unwrap().validate(&sim),
        Err(SnapshotError::DigestMismatch { .. })
    ));

    let mut bad = bytes.clone();
    bad[24] ^= 0xFF; // step fingerprint
    assert!(matches!(
        snapshot::parse(&bad).unwrap().validate(&sim),
        Err(SnapshotError::FingerprintMismatch)
    ));

    let mut bad = bytes.clone();
    bad[32] ^= 0xFF; // capacity
    assert!(matches!(
        snapshot::parse(&bad).unwrap().validate(&sim),
        Err(SnapshotError::CapacityMismatch)
    ));

    // Policy mismatch: a valid Generational header against a Clear sim.
    let gen_sim = branchy_sim(SimOptions {
        cache_policy: facile_runtime::CachePolicy::Generational,
        ..SimOptions::default()
    });
    let snap = snapshot::parse(&bytes).unwrap();
    assert!(matches!(
        snap.validate(&gen_sim),
        Err(SnapshotError::PolicyMismatch)
    ));

    // And the good bytes still pass: the rejections above were the
    // mutations' doing, not parser pickiness.
    snapshot::parse(&bytes).unwrap().validate(&sim).unwrap();
}

#[test]
fn rejected_snapshot_leaves_a_bit_identical_cold_run() {
    // The CLI's fallback contract, checked at the library level: after
    // any rejection the simulation is untouched and a cold run over it
    // matches a never-offered-a-snapshot run exactly.
    let mut control = branchy_sim(SimOptions::default());
    control.run_steps(100_000);

    let mut bytes = recorded_snapshot();
    bytes[16] ^= 0xFF; // digest mismatch
    let mut s = branchy_sim(SimOptions::default());
    let snap = snapshot::parse(&bytes).unwrap();
    assert!(snap.validate(&s).is_err());
    // Caller declines to warm-start; run proceeds cold.
    s.run_steps(100_000);
    assert_eq!(fingerprint(&s), fingerprint(&control));
    assert_eq!(s.cache_stats().bytes_frozen, 0);
}

#[test]
fn warm_start_guards_are_enforced() {
    let bytes = recorded_snapshot();
    let snap = snapshot::parse(&bytes).unwrap();

    // Already ran.
    let mut s = branchy_sim(SimOptions::default());
    s.run_steps(5);
    assert!(s.warm_start(snap.image()).is_err());

    // Memoization disabled.
    let mut s = branchy_sim(SimOptions {
        memoize: false,
        ..SimOptions::default()
    });
    assert!(s.warm_start(snap.image()).is_err());

    // Double install.
    let mut s = branchy_sim(SimOptions::default());
    s.warm_start(snap.image()).unwrap();
    assert!(s.warm_start(snap.image()).is_err());
}

#[test]
fn lanes_share_one_image_copy_on_write_across_threads() {
    // Batch sharing: one parsed snapshot, N threads, each lane
    // warm-starts from the same `Arc` and records privately on top.
    // Lanes run *different* argument streams, so each one records new
    // successor links the others must never observe. (The outcome
    // stream is mod-3, so only lanes 0..3 are pairwise distinct.)
    let bytes = recorded_snapshot();
    let snap = snapshot::parse(&bytes).unwrap();
    let base_nodes = snap.image().node_count();

    let mut handles = Vec::new();
    for lane in 0..3i64 {
        let image = snap.image();
        handles.push(std::thread::spawn(move || {
            let step = build(BRANCHY);
            let mut s = Simulation::new(
                step,
                Target::load(&Image::default()),
                &[ArgValue::Scalar(0)],
                SimOptions::default(),
            )
            .unwrap();
            // Per-lane outcome stream: lane 0 matches the recording,
            // others diverge and must recover + record COW links.
            s.bind_external("flip", move |args| (args[0] * 31 + 7 + lane) % 3)
                .unwrap();
            s.warm_start(image).unwrap();
            s.run_steps(100_000);
            // Each lane, cold, for the ground truth.
            let step = build(BRANCHY);
            let mut cold = Simulation::new(
                step,
                Target::load(&Image::default()),
                &[ArgValue::Scalar(0)],
                SimOptions::default(),
            )
            .unwrap();
            cold.bind_external("flip", move |args| (args[0] * 31 + 7 + lane) % 3)
                .unwrap();
            cold.run_steps(100_000);
            assert_eq!(
                fingerprint(&s),
                fingerprint(&cold),
                "lane {lane}: warm-shared run must match its own cold run"
            );
            (lane, s.stats().slow_steps)
        }));
    }
    let mut results: Vec<(i64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_unstable();
    // Lane 0 replays the recording verbatim; diverging lanes record.
    assert_eq!(results[0].1, 0, "matching lane is pure replay");
    assert!(
        results[1..].iter().all(|&(_, slow)| slow > 0),
        "diverging lanes must fall back to recording"
    );
    // The shared image itself never grew.
    assert_eq!(snap.image().node_count(), base_nodes);
}

#[test]
fn a_snapshot_cannot_exhaust_the_sequence_space() {
    // One generation at the top of the sequence space, encoded under the
    // simulation's own header: everything matches, but a warm start
    // would have no sequence numbers left for its own generations.
    let mut sim = branchy_sim(SimOptions::default());
    let mut b = FrozenGensBuilder::new();
    b.push_gen(u32::MAX - 1, vec![], vec![], vec![]).unwrap();
    let image = b.finish(u32::MAX).unwrap();
    let bytes = snapshot::encode(
        &image,
        sim.warm_digest(),
        snapshot::step_fingerprint(sim.compiled()),
        None,
        facile_runtime::CachePolicy::Clear,
    );
    assert!(
        matches!(snapshot::parse(&bytes), Err(SnapshotError::Corrupt(_))),
        "the decoder bounds snapshot sequence numbers"
    );
    // The cache guards installs that never went through the decoder.
    assert!(sim.warm_start(Arc::new(image)).is_err());
    sim.run_steps(100_000);
    let mut control = branchy_sim(SimOptions::default());
    control.run_steps(100_000);
    assert_eq!(fingerprint(&sim), fingerprint(&control));
}

#[test]
fn short_node_data_is_rejected_before_replay() {
    // Re-encode a recorded image with every node's data range emptied.
    // The image is structurally sound (every range is in bounds), but
    // replay would read placeholders that are not there.
    let snap = snapshot::parse(&recorded_snapshot()).unwrap();
    let emptied = rebuild(&snap.image(), |_, _| SlabRange::new(0, 0));
    let bytes = snapshot::encode(
        &emptied,
        snap.target_digest,
        snap.step_fingerprint,
        snap.capacity,
        snap.policy,
    );
    let short = snapshot::parse(&bytes).expect("structurally sound");
    let sim = branchy_sim(SimOptions::default());
    assert!(
        matches!(short.validate(&sim), Err(SnapshotError::Corrupt(_))),
        "validate proves each node's data feeds its action's placeholder reads"
    );
}

/// A looping simulator whose INDEX key tail holds a run-time-static
/// queue and scalar, packed as key bytes.
const QUEUED: &str = "ext fun lat(a : int) : int;
    fun main(iq : queue, pc : int) {
      iq?push_back(pc % 7);
      if (iq?len > 3) { iq?pop_front(); }
      val l = lat(pc)?verify;
      count_insns(1);
      val c = mem_ld(0);
      mem_st(0, c + 1);
      if (c >= 60) { sim_halt(); }
      next(iq, (pc + l) % 13);
    }";

fn queued_sim() -> Simulation {
    let mut s = Simulation::new(
        build(QUEUED),
        Target::load(&Image::default()),
        &[ArgValue::Queue(vec![]), ArgValue::Scalar(0)],
        SimOptions::default(),
    )
    .unwrap();
    s.bind_external("lat", |args| 1 + args[0].rem_euclid(3))
        .unwrap();
    s
}

/// Packs key bytes eight to a word, as the cache stores INDEX tails.
fn packed(bytes: &[u8]) -> Vec<i64> {
    let mut words = Vec::new();
    facile_runtime::key::pack_bytes(bytes, &mut words);
    words
}

/// Re-encodes `snap` with the key tail of every node whose run ends in
/// an INDEX action replaced by `craft(tail)`; placeholders and links are
/// kept.
fn with_tails(
    snap: &snapshot::LoadedSnapshot,
    sim: &Simulation,
    craft: impl Fn(&[i64]) -> Vec<i64>,
) -> Vec<u8> {
    let step = sim.compiled();
    let image = rebuild(&snap.image(), |slab, n| {
        let data = slab[n.data.off()..n.data.off() + n.data.len()].to_vec();
        let (last, ph) = facile_vm::fast::run_end(step, n.action, &data);
        let facile_codegen::ActionKind::Index { .. } = step.actions[last as usize].kind else {
            return n.data;
        };
        let off = slab.len();
        slab.extend_from_slice(&data[..ph]);
        slab.extend_from_slice(&craft(&data[ph..]));
        SlabRange::new(off as u32, (slab.len() - off) as u32)
    });
    snapshot::encode(
        &image,
        snap.target_digest,
        snap.step_fingerprint,
        snap.capacity,
        snap.policy,
    )
}

/// Turns a genuine INDEX key tail into a crafted one.
type Craft = fn(&[i64]) -> Vec<i64>;

/// The byte length of a genuine `QUEUED` tail: a queue, then a scalar.
fn genuine_tail_len(tail: &[i64]) -> usize {
    let mut r = facile_runtime::key::PackedReader::new(tail);
    r.skip(true).unwrap();
    r.skip(false).unwrap();
    r.pos()
}

#[test]
fn crafted_index_tails_are_rejected_before_replay() {
    let mut cold = queued_sim();
    cold.run_steps(100_000);
    assert!(cold.halted().is_some());
    let snap = snapshot::parse(&snapshot::save(&cold)).unwrap();
    let sim = queued_sim();
    // Re-encoding the genuine tails is accepted: the rejections below
    // are the crafts' doing.
    let same = snapshot::parse(&with_tails(&snap, &sim, <[i64]>::to_vec)).unwrap();
    same.validate(&sim).unwrap();

    let cases: [(&str, Craft); 6] = [
        // Queue length 1, then an element whose varint never ends.
        ("truncated varint", |_| {
            packed(&[1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80])
        }),
        ("a trailing byte", |t| {
            let mut bytes: Vec<u8> = t.iter().flat_map(|w| w.to_le_bytes()).collect();
            bytes.truncate(genuine_tail_len(t));
            bytes.push(1);
            packed(&bytes)
        }),
        ("a trailing word", |t| [t, &[0]].concat()),
        // 127 elements declared, seven zero bytes to read them from.
        ("queue length past the words", |_| packed(&[0x7f])),
        // A queue filling the word exactly; the scalar is missing.
        ("missing scalar", |_| packed(&[7, 2, 2, 2, 2, 2, 2, 2])),
        ("missing every component", |_| Vec::new()),
    ];
    for (name, craft) in cases {
        let bytes = with_tails(&snap, &sim, craft);
        let loaded = snapshot::parse(&bytes).expect("structurally sound");
        assert!(
            matches!(loaded.validate(&sim), Err(SnapshotError::Corrupt(_))),
            "{name}: validate must refuse the tail"
        );
    }
}

/// Re-encodes `snap` with the second action number of every run that
/// holds more than one action replaced by `craft(number)`; returns the
/// bytes and how many runs changed.
fn with_second_action(
    snap: &snapshot::LoadedSnapshot,
    sim: &Simulation,
    craft: impl Fn(i64) -> i64,
) -> (Vec<u8>, usize) {
    let step = sim.compiled();
    let mut runs = 0;
    let image = rebuild(&snap.image(), |slab, n| {
        let code = &step.actions[n.action as usize];
        let mut data = slab[n.data.off()..n.data.off() + n.data.len()].to_vec();
        let ph = facile_vm::fast::placeholder_len(step, code, &data);
        if code.kind != facile_codegen::ActionKind::Plain || ph == data.len() {
            return n.data;
        }
        runs += 1;
        data[ph] = craft(data[ph]);
        let off = slab.len();
        slab.extend_from_slice(&data);
        SlabRange::new(off as u32, data.len() as u32)
    });
    let bytes = snapshot::encode(
        &image,
        snap.target_digest,
        snap.step_fingerprint,
        snap.capacity,
        snap.policy,
    );
    (bytes, runs)
}

/// A looping simulator whose run-time-static branch splits its plain
/// work into several actions, recorded as one run with the test that
/// ends it.
const RUNS: &str = "ext fun lat(a : int) : int;
    fun main(pc : int) {
      val c = mem_ld(0);
      mem_st(0, c + 1);
      if (pc > 3) { count_insns(2); } else { count_insns(1); }
      count_cycles(lat(pc));
      if (c >= 60) { sim_halt(); }
      next((pc + 1) % 7);
    }";

fn runs_sim() -> Simulation {
    let mut s = Simulation::new(
        build(RUNS),
        Target::load(&Image::default()),
        &[ArgValue::Scalar(0)],
        SimOptions::default(),
    )
    .unwrap();
    s.bind_external("lat", |args| 1 + args[0].rem_euclid(3))
        .unwrap();
    s
}

#[test]
fn crafted_action_numbers_inside_a_run_are_rejected_before_replay() {
    let mut cold = runs_sim();
    cold.run_steps(100_000);
    assert!(cold.halted().is_some());
    let snap = snapshot::parse(&snapshot::save(&cold)).unwrap();
    let sim = runs_sim();
    let step = sim.compiled();
    let (same, runs) = with_second_action(&snap, &sim, |a| a);
    assert!(runs > 0, "the recording holds runs of several actions");
    snapshot::parse(&same).unwrap().validate(&sim).unwrap();

    let test = (step.actions.iter())
        .position(|a| matches!(a.kind, facile_codegen::ActionKind::Test { .. }))
        .expect("the program has a test action") as i64;
    let count = step.actions.len() as i64;
    for (name, craft) in [
        ("past the action table", Box::new(move |_| count) as Box<dyn Fn(i64) -> i64>),
        ("negative", Box::new(|_| -1)),
        ("past 32 bits", Box::new(|a| a + (1 << 32))),
        ("a test inside the run", Box::new(move |_| test)),
    ] {
        let (bytes, _) = with_second_action(&snap, &sim, craft);
        let loaded = snapshot::parse(&bytes).expect("structurally sound");
        assert!(
            matches!(loaded.validate(&sim), Err(SnapshotError::Corrupt(_))),
            "{name}: validate must refuse the run"
        );
    }
}

#[test]
fn a_version_2_snapshot_is_refused() {
    let mut bytes = recorded_snapshot();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        snapshot::parse(&bytes).err(),
        Some(SnapshotError::UnsupportedVersion(2))
    );
}

#[test]
fn a_version_1_snapshot_is_refused() {
    let mut bytes = recorded_snapshot();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        snapshot::parse(&bytes).err(),
        Some(SnapshotError::UnsupportedVersion(1))
    );
}
