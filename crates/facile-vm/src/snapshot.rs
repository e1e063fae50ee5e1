//! Action-cache persistence: the `facile-snap/v2` on-disk format.
//!
//! A snapshot is a serialized [`FrozenGens`] image — the memoized
//! action graph of a finished (or interrupted) run — plus a validity
//! header that keys it to the exact program and target it was recorded
//! against. Loading a snapshot into a fresh [`Simulation`] warm-starts
//! it: replay begins at step 0 instead of after a recording warm-up,
//! and batch lanes can share one read-only image behind an `Arc` with
//! private copy-on-write recording layered on top.
//!
//! The byte-level layout, validity rules and versioning policy are
//! specified in `docs/PERSISTENCE.md`. The load path is strictly
//! fail-safe: any mismatched or corrupted snapshot is reported as a
//! [`SnapshotError`] and the caller falls back to an ordinary cold
//! start — a stale snapshot can cost warm-up time, never correctness.
//!
//! # Examples
//!
//! ```
//! use facile_lang::{parser::parse, diag::Diagnostics};
//! use facile_sema::analyze as sema;
//! use facile_ir::lower::lower;
//! use facile_codegen::{compile, CodegenConfig};
//! use facile_vm::engine::{ArgValue, SimOptions, Simulation};
//! use facile_vm::snapshot;
//! use facile_runtime::{Image, Target};
//!
//! let src = r#"
//!     fun main(x : int) {
//!         count_insns(1);
//!         if (x == 0) { sim_halt(); }
//!         next(x - 1);
//!     }
//! "#;
//! let mut diags = Diagnostics::new();
//! let program = parse(src, &mut diags);
//! let syms = sema(&program, &mut diags);
//! let ir = lower(&program, &syms, &mut diags).unwrap();
//! let step = compile(ir, &CodegenConfig::default()).unwrap();
//!
//! // Cold run records the action graph...
//! let target = Target::load(&Image::default());
//! let mut cold = Simulation::new(step.clone(), target, &[ArgValue::Scalar(10)],
//!                                SimOptions::default()).unwrap();
//! cold.run_steps(1_000);
//! let bytes = snapshot::save(&cold);
//!
//! // ...and a second run over the same target starts warm.
//! let target = Target::load(&Image::default());
//! let mut warm = Simulation::new(step, target, &[ArgValue::Scalar(10)],
//!                                SimOptions::default()).unwrap();
//! let snap = snapshot::parse(&bytes).unwrap();
//! snap.validate(&warm).unwrap();
//! warm.warm_start(snap.image()).unwrap();
//! warm.run_steps(1_000);
//! assert_eq!(warm.stats().insns, 11);
//! assert_eq!(warm.stats().slow_steps, 0); // pure replay
//! ```

use crate::engine::Simulation;
use facile_codegen::program::KeySrc;
use facile_codegen::{ActionCode, ActionKind, CompiledStep, Op};
use facile_obs::TraceEvent;
use facile_runtime::cache::{
    CachePolicy, FrozenGens, FrozenGensBuilder, IndexList, Node, SlabRange, Succ, TestList,
    MAX_IMAGE_SEQ,
};
use facile_runtime::key::{hash_bytes, packed_fits};
use facile_runtime::NodeId;
use std::sync::{Arc, OnceLock};

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"FACSNAP1";
/// Format version this module reads and writes. Version 2 stores an
/// INDEX node's run-time-static key components as packed key bytes;
/// files of any other version are refused, never converted.
pub const VERSION: u32 = 2;
/// Fixed header size in bytes (the payload starts here).
pub const HEADER_LEN: u32 = 64;
/// `capacity` header sentinel for an unbounded cache.
const CAPACITY_UNBOUNDED: u64 = u64::MAX;

/// Why a snapshot was rejected. Every variant is a clean cold-start
/// for the caller, never a wrong answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not begin with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    UnsupportedVersion(u32),
    /// The header is self-inconsistent (wrong length field, non-zero
    /// reserved bytes, counts that disagree with the payload).
    BadHeader(String),
    /// The payload is truncated, fails its checksum, or decodes to a
    /// structurally invalid image.
    Corrupt(String),
    /// Recorded against a different target (code or initial memory).
    DigestMismatch {
        /// Digest in the snapshot header.
        snapshot: u64,
        /// Digest of the simulation being warm-started.
        simulation: u64,
    },
    /// Recorded under a different cache capacity.
    CapacityMismatch,
    /// Recorded under a different eviction policy.
    PolicyMismatch,
    /// Recorded against a different compiled step function.
    FingerprintMismatch,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a facile-snap file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::BadHeader(m) => write!(f, "malformed snapshot header: {m}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot payload: {m}"),
            SnapshotError::DigestMismatch {
                snapshot,
                simulation,
            } => write!(
                f,
                "snapshot was recorded against a different target \
                 (snapshot digest {snapshot:#018x}, simulation {simulation:#018x})"
            ),
            SnapshotError::CapacityMismatch => {
                write!(f, "snapshot was recorded under a different cache capacity")
            }
            SnapshotError::PolicyMismatch => {
                write!(f, "snapshot was recorded under a different cache policy")
            }
            SnapshotError::FingerprintMismatch => {
                write!(f, "snapshot was recorded against a different compiled step")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Fingerprint of a compiled step function: [`CompiledStep::fingerprint`],
/// a hash of the folded IR and `main`'s parameter types. Not portable
/// across toolchain versions (the IR's debug rendering may change) — by
/// design the cheap answer is a cold start, so a conservative,
/// easily-invalidated fingerprint is the right trade.
pub fn step_fingerprint(step: &CompiledStep) -> u64 {
    step.fingerprint()
}

/// A parsed, checksum-verified snapshot: the header's validity fields
/// plus the decoded image behind an `Arc`, ready to share across batch
/// lanes. Produced by [`parse`]; gate installation with
/// [`validate`](Self::validate).
#[derive(Clone, Debug)]
pub struct LoadedSnapshot {
    /// Target validity digest ([`Simulation::warm_digest`]).
    pub target_digest: u64,
    /// Compiled-step fingerprint ([`step_fingerprint`]).
    pub step_fingerprint: u64,
    /// Cache capacity the image was recorded under.
    pub capacity: Option<u64>,
    /// Eviction policy the image was recorded under.
    pub policy: CachePolicy,
    image: Arc<FrozenGens>,
    /// The node walk's verdict against the action table this snapshot
    /// was recorded for (the one its `step_fingerprint` names): made by
    /// the first `validate` that gets that far and reused by every later
    /// one, so a daemon that validates once per job walks the image
    /// once.
    nodes_checked: OnceLock<Result<(), SnapshotError>>,
}

impl LoadedSnapshot {
    /// The decoded image (clone the `Arc` per warm-started lane).
    pub fn image(&self) -> Arc<FrozenGens> {
        Arc::clone(&self.image)
    }

    /// Checks that this snapshot may warm-start `sim`: target digest,
    /// compiled-step fingerprint, cache capacity and policy must all
    /// match, every recorded action number must exist in the step's
    /// action table, and every node's data must feed each placeholder
    /// its action reads on replay.
    ///
    /// # Errors
    ///
    /// The first failed validity rule; the caller should log it and
    /// cold-start.
    pub fn validate(&self, sim: &Simulation) -> Result<(), SnapshotError> {
        if self.target_digest != sim.warm_digest() {
            return Err(SnapshotError::DigestMismatch {
                snapshot: self.target_digest,
                simulation: sim.warm_digest(),
            });
        }
        if self.step_fingerprint != step_fingerprint(sim.compiled()) {
            return Err(SnapshotError::FingerprintMismatch);
        }
        if self.capacity != sim.action_cache().capacity() {
            return Err(SnapshotError::CapacityMismatch);
        }
        if self.policy != sim.action_cache().policy() {
            return Err(SnapshotError::PolicyMismatch);
        }
        self.nodes_checked
            .get_or_init(|| check_nodes(&self.image, sim.compiled()))
            .clone()
    }
}

/// Walks every node of `image` once against `step`'s action table: its
/// action number must exist (belt and braces under a matching
/// fingerprint), its data must feed every placeholder the action reads,
/// and an INDEX action's data must end in a packed key tail that decodes
/// to exactly its site's run-time-static components. Each action's
/// placeholder reads fold to one word for the common case — the data
/// length they need — or `RUNS` when its nodes must be walked run by
/// run, so most placeholder checks cost one lookup and one compare.
fn check_nodes(image: &FrozenGens, step: &CompiledStep) -> Result<(), SnapshotError> {
    const RUNS: u32 = u32::MAX;
    let shapes: Vec<(Vec<u32>, Option<Vec<bool>>)> =
        step.actions.iter().map(|a| ph_shape(step, a)).collect();
    let needs: Vec<u32> = (shapes.iter())
        .map(|(shape, _)| if let [need] = shape[..] { need } else { RUNS })
        .collect();
    for g in image.gens() {
        for (i, n) in g.nodes().iter().enumerate() {
            let data = &g.slab()[n.data.off()..n.data.off() + n.data.len()];
            let Some(&need) = needs.get(n.action as usize) else {
                return Err(SnapshotError::Corrupt(format!(
                    "action number {} out of range (step has {} actions)",
                    n.action,
                    needs.len()
                )));
            };
            let (shape, tail) = &shapes[n.action as usize];
            let ph = match need {
                RUNS => feeds(shape, data),
                need => (need as usize <= data.len()).then_some(need as usize),
            };
            let fed = match (ph, tail) {
                (None, _) => false,
                (Some(_), None) => true,
                (Some(ph), Some(queues)) => packed_fits(&data[ph..], queues.iter().copied()),
            };
            if !fed {
                return Err(SnapshotError::Corrupt(format!(
                    "node {}:{i} data ({} values) does not feed action {}",
                    g.seq(),
                    n.data.len(),
                    n.action
                )));
            }
        }
    }
    Ok(())
}

/// How replaying `code` reads its node's data, in order. The shape lists
/// the placeholder loads of the action's replay range: `shape[0]` single
/// placeholders, then for each further entry one length-prefixed run (an
/// [`Op::LdAgg`]) followed by that many singles. An INDEX action's
/// site's run-time-static key components follow the placeholders as
/// packed key bytes ([`packed_fits`]); their kinds come second, `true`
/// for a queue. Replay stops at a `Halt` op, so reads past one never
/// happen (and are not recorded).
fn ph_shape(step: &CompiledStep, code: &ActionCode) -> (Vec<u32>, Option<Vec<bool>>) {
    // The last entry counts the singles since the last run.
    let mut shape = vec![0u32];
    let bump = |shape: &mut Vec<u32>| *shape.last_mut().expect("never empty") += 1;
    let prog = &step.program;
    for op in &prog.replay[code.replay.start as usize..code.replay.end as usize] {
        match op {
            Op::LdR { .. } | Op::LdG { .. } => bump(&mut shape),
            Op::LdAgg { .. } => shape.push(0),
            Op::Halt { .. } => return (shape, None),
            _ => {}
        }
    }
    let queues = match code.kind {
        ActionKind::Index { site } => Some(
            (prog.nexts[site as usize].comps.iter())
                .filter(|c| c.rt)
                .map(|c| matches!(c.src, KeySrc::Queue(_)))
                .collect(),
        ),
        _ => None,
    };
    (shape, queues)
}

/// Where the placeholders of an action with placeholder `shape` (see
/// [`ph_shape`]) end in `data`, if `data` feeds every one of them: each
/// run's length prefix is non-negative and the run lies inside `data`.
fn feeds(shape: &[u32], data: &[i64]) -> Option<usize> {
    let (last, runs) = shape.split_last().expect("never empty");
    let mut ph = 0usize;
    for &singles in runs {
        ph += singles as usize;
        match data.get(ph) {
            Some(&len) if len >= 0 && len as u64 <= (data.len() - ph - 1) as u64 => {
                ph += 1 + len as usize;
            }
            _ => return None,
        }
    }
    let end = ph + *last as usize;
    (end <= data.len()).then_some(end)
}

// ---- encoding -----------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn node_id(&mut self, n: NodeId) {
        self.u32(n.generation());
        self.u32(n.index() as u32);
    }
}

/// Serializes `image` under the given validity header fields. Most
/// callers want [`save`], which freezes a simulation's cache and fills
/// the header in; this entry point exists for tests and tools that
/// construct images directly.
pub fn encode(
    image: &FrozenGens,
    target_digest: u64,
    fingerprint: u64,
    capacity: Option<u64>,
    policy: CachePolicy,
) -> Vec<u8> {
    let mut p = Writer { buf: Vec::new() };
    for g in image.gens() {
        p.u32(g.seq());
        p.u32(g.nodes().len() as u32);
        p.u32(g.slab().len() as u32);
        for &v in g.slab() {
            p.i64(v);
        }
        for n in g.nodes() {
            p.u32(n.action);
            p.u32(n.data.off() as u32);
            p.u32(n.data.len() as u32);
        }
        for i in 0..g.nodes().len() {
            match g.succ(i) {
                Succ::None => p.u8(0),
                Succ::One(n) => {
                    p.u8(1);
                    p.node_id(*n);
                }
                Succ::Tests(list) => {
                    p.u8(2);
                    p.u32(list.items().len() as u32);
                    for &(v, n) in list.items() {
                        p.i64(v);
                        p.node_id(n);
                    }
                }
                Succ::Index(list) => {
                    p.u8(3);
                    p.u32(list.items().len() as u32);
                    for &(r, n) in list.items() {
                        p.u32(r.off() as u32);
                        p.u32(r.len() as u32);
                        p.node_id(n);
                    }
                }
            }
        }
    }
    for (key, n) in image.entries().iter() {
        p.u32(key.len() as u32);
        p.buf.extend_from_slice(key);
        p.node_id(n);
    }
    let payload = p.buf;

    let mut h = Writer {
        buf: Vec::with_capacity(HEADER_LEN as usize + payload.len()),
    };
    h.buf.extend_from_slice(MAGIC);
    h.u32(VERSION);
    h.u32(HEADER_LEN);
    h.u64(target_digest);
    h.u64(fingerprint);
    h.u64(capacity.unwrap_or(CAPACITY_UNBOUNDED));
    h.u8(match policy {
        CachePolicy::Clear => 0,
        CachePolicy::Generational => 1,
    });
    for _ in 0..7 {
        h.u8(0); // reserved
    }
    h.u32(image.generation_count() as u32);
    h.u32(image.entry_count() as u32);
    h.u64(hash_bytes(&payload));
    debug_assert_eq!(h.buf.len(), HEADER_LEN as usize);
    h.buf.extend_from_slice(&payload);
    h.buf
}

/// Freezes `sim`'s action cache (installed generations with their
/// copy-on-write overlay, then recorded ones, folded into one canonical
/// image) and serializes it
/// with the simulation's own validity header. Emits a
/// [`TraceEvent::SnapshotSave`] when observability is attached.
pub fn save(sim: &Simulation) -> Vec<u8> {
    let image = sim.action_cache().freeze();
    let bytes = encode(
        &image,
        sim.warm_digest(),
        step_fingerprint(sim.compiled()),
        sim.action_cache().capacity(),
        sim.action_cache().policy(),
    );
    if sim.obs().enabled() {
        sim.obs().emit(TraceEvent::SnapshotSave {
            bytes: bytes.len() as u64,
            gens: image.generation_count() as u64,
            nodes: image.node_count() as u64,
            entries: image.entry_count() as u64,
        });
    }
    bytes
}

// ---- decoding -----------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                SnapshotError::Corrupt(format!(
                    "truncated at byte {} (wanted {n} more of {})",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// A successor list's items: a `u32` count, then that many 16-byte
    /// records, taken in one bounds check.
    fn list(&mut self) -> Result<std::slice::ChunksExact<'a, u8>, SnapshotError> {
        let count = self.u32()?;
        check_count(count, 16, self.buf.len() - self.pos)?;
        Ok(self.take(count as usize * 16)?.chunks_exact(16))
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn node_id(&mut self) -> Result<NodeId, SnapshotError> {
        let gen = self.u32()?;
        let idx = self.u32()?;
        Ok(NodeId::from_parts(gen, idx))
    }
}

/// The little-endian `u32` at byte `at` of a record.
fn u32_at(rec: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(rec[at..at + 4].try_into().expect("4 bytes"))
}

/// The node id (generation, then index) at byte `at` of a record.
fn node_at(rec: &[u8], at: usize) -> NodeId {
    NodeId::from_parts(u32_at(rec, at), u32_at(rec, at + 4))
}

/// Sanity ceiling on declared element counts: a corrupted count field
/// must not drive a pre-allocation larger than the file itself.
fn check_count(count: u32, at_least_bytes: usize, remaining: usize) -> Result<(), SnapshotError> {
    if (count as u64).saturating_mul(at_least_bytes as u64) > remaining as u64 {
        return Err(SnapshotError::Corrupt(format!(
            "declared count {count} exceeds remaining payload"
        )));
    }
    Ok(())
}

/// Parses and checksum-verifies a `facile-snap/v2` byte stream into a
/// [`LoadedSnapshot`]. Structural validity (every link target resolves,
/// slab ranges in bounds, successor lists well-formed) is enforced
/// here via [`FrozenGensBuilder`]; run validity (digest, fingerprint,
/// capacity, policy) is the separate [`LoadedSnapshot::validate`] step
/// so one parsed snapshot can be checked against many simulations.
///
/// # Errors
///
/// The first structural defect found; see [`SnapshotError`].
pub fn parse(bytes: &[u8]) -> Result<LoadedSnapshot, SnapshotError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(8).map_err(|_| SnapshotError::BadMagic)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32().map_err(|_| SnapshotError::UnsupportedVersion(0))?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let header_len = r
        .u32()
        .map_err(|_| SnapshotError::BadHeader("truncated".into()))?;
    if header_len != HEADER_LEN {
        return Err(SnapshotError::BadHeader(format!(
            "header length {header_len} (expected {HEADER_LEN})"
        )));
    }
    if bytes.len() < HEADER_LEN as usize {
        return Err(SnapshotError::BadHeader("truncated".into()));
    }
    let target_digest = r.u64().unwrap();
    let fingerprint = r.u64().unwrap();
    let capacity = match r.u64().unwrap() {
        CAPACITY_UNBOUNDED => None,
        c => Some(c),
    };
    let policy = match r.u8().unwrap() {
        0 => CachePolicy::Clear,
        1 => CachePolicy::Generational,
        p => {
            return Err(SnapshotError::BadHeader(format!(
                "unknown cache policy {p}"
            )))
        }
    };
    if r.take(7).unwrap().iter().any(|&b| b != 0) {
        return Err(SnapshotError::BadHeader(
            "reserved bytes are not zero".into(),
        ));
    }
    let gen_count = r.u32().unwrap();
    let entry_count = r.u32().unwrap();
    let crc = r.u64().unwrap();
    debug_assert_eq!(r.pos, HEADER_LEN as usize);

    let payload = &bytes[HEADER_LEN as usize..];
    if hash_bytes(payload) != crc {
        return Err(SnapshotError::Corrupt("payload checksum mismatch".into()));
    }
    let mut image = decode(payload, gen_count, entry_count)?;
    image.set_bytes(payload.len() as u64);
    Ok(LoadedSnapshot {
        target_digest,
        step_fingerprint: fingerprint,
        capacity,
        policy,
        image: Arc::new(image),
        nodes_checked: OnceLock::new(),
    })
}

/// Decodes a payload (generations, then entries) into a structurally
/// valid image.
fn decode(payload: &[u8], gen_count: u32, entry_count: u32) -> Result<FrozenGens, SnapshotError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let mut b = FrozenGensBuilder::new();
    for _ in 0..gen_count {
        let seq = r.u32()?;
        if seq > MAX_IMAGE_SEQ {
            return Err(SnapshotError::Corrupt(format!(
                "generation sequence number {seq} exceeds the bound {MAX_IMAGE_SEQ}"
            )));
        }
        let node_count = r.u32()?;
        let slab_len = r.u32()?;
        check_count(slab_len, 8, payload.len() - r.pos)?;
        let slab = (r.take(slab_len as usize * 8)?.chunks_exact(8))
            .map(|w| i64::from_le_bytes(w.try_into().expect("chunks of 8 bytes")))
            .collect();
        check_count(node_count, 12, payload.len() - r.pos)?;
        let nodes = (r.take(node_count as usize * 12)?.chunks_exact(12))
            .map(|h| Node {
                action: u32_at(h, 0),
                data: SlabRange::new(u32_at(h, 4), u32_at(h, 8)),
            })
            .collect();
        let mut succs = Vec::with_capacity(node_count as usize);
        for _ in 0..node_count {
            let succ = match r.u8()? {
                0 => Succ::None,
                1 => Succ::One(r.node_id()?),
                2 => Succ::Tests(TestList::from_items(
                    (r.list()?)
                        .map(|t| {
                            (
                                i64::from_le_bytes(t[..8].try_into().expect("8 bytes")),
                                node_at(t, 8),
                            )
                        })
                        .collect(),
                )),
                3 => Succ::Index(IndexList::from_items(
                    (r.list()?)
                        .map(|t| (SlabRange::new(u32_at(t, 0), u32_at(t, 4)), node_at(t, 8)))
                        .collect(),
                )),
                t => return Err(SnapshotError::Corrupt(format!("unknown successor tag {t}"))),
            };
            succs.push(succ);
        }
        b.push_gen(seq, slab, nodes, succs)
            .map_err(SnapshotError::Corrupt)?;
    }
    // Every registration takes at least 12 bytes.
    check_count(entry_count, 12, payload.len() - r.pos)?;
    for _ in 0..entry_count {
        let klen = r.u32()?;
        let key = r.take(klen as usize)?;
        b.push_entry(key, r.node_id()?)
            .map_err(SnapshotError::Corrupt)?;
    }
    if r.pos != payload.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after payload",
            payload.len() - r.pos
        )));
    }
    // Action numbers are range-checked against the live step in
    // `validate` — the builder only enforces structure here.
    b.finish(u32::MAX).map_err(SnapshotError::Corrupt)
}
