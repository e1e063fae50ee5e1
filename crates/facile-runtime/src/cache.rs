//! The specialized action cache (paper §2, Figure 2).
//!
//! The cache stores, per memoization key, the *dynamic actions* a slow
//! simulator recorded while executing one step: action numbers plus
//! run-time-static placeholder data, "linked together in the order in
//! which they execute". Actions that test dynamic values have multiple
//! successors keyed by the observed value; INDEX actions chain to the next
//! step's entry so the fast simulator can follow links instead of doing a
//! full lookup.
//!
//! Recording happens through a [`Cursor`]: the position of the pending
//! link. The fast simulator walks nodes; when a needed successor is
//! missing it converts its position back into a cursor and hands control
//! to the slow simulator (an *action-cache miss*, paper §2.1).
//!
//! Memory accounting (paper Table 2) charges each node its varint-encoded
//! payload size — matching the paper's compressed representation — plus a
//! small fixed overhead. A capacity limit is enforced at step boundaries
//! under one of two [`CachePolicy`]s:
//!
//! * [`CachePolicy::Clear`] — the paper's §6.2 clear-on-full: drop
//!   every unpinned generation and re-memoize from scratch.
//! * [`CachePolicy::Generational`] — partial eviction: storage is
//!   segmented into *generations* (see below) and only the coldest
//!   generations are retired when the budget is exceeded.
//!
//! # Generations
//!
//! All node storage lives in per-generation arenas. A [`NodeId`] carries
//! the *sequence number* of the generation that owns it plus the index
//! within that generation; sequence numbers are never reused, so a link
//! into an evicted generation can be detected lazily — resolution simply
//! fails — and is treated as an ordinary missing link, feeding the
//! existing miss/recovery path. The generation currently receiving new
//! recordings, and the generation holding the recording cursor's
//! attachment node, are *pinned*: an in-flight step is never evicted
//! from under itself. Eviction only happens at slow-mode step boundaries
//! (via [`ActionCache::reclaim`]); generation *rotation* — sealing the
//! current arena and opening a fresh one — can happen mid-recording and
//! invalidates nothing, because links are generation-tagged and cross
//! generations freely.
//!
//! Every generation has one type, [`GenStorage`] (nodes, successor
//! links, slab), held either *owned* — the generations this cache
//! records into — or *shared* behind an `Arc` — the generations of a
//! warm-start image installed by [`ActionCache::install_frozen`]. Both
//! sit in one vector and resolve through one hot-hinted lookup. Shared
//! generations are pinned for the run: never written, never evicted,
//! never cleared, so their own links skip the residency check. Links
//! recorded *from* a shared node go to a private copy-on-write overlay,
//! which each lookup on a shared node also tries when the node's own
//! links miss.
//!
//! # Hot-path layout (docs/PERFORMANCE.md)
//!
//! Replay throughput dominates end-to-end speed once fast-forwarding
//! covers >99% of instructions, so the structures the replay loop walks
//! are laid out for it:
//!
//! * Placeholder data and INDEX link signatures live in a contiguous
//!   `Vec<i64>` **slab** per generation; nodes hold `(offset, len)`
//!   ranges. Replay in recording order walks linear memory instead of
//!   chasing one boxed allocation per node.
//! * The entry table is an insert-only **open-addressing** map (linear
//!   probing, power-of-two capacity) keyed by a precomputed 64-bit
//!   mix of the key bytes — no SipHash, no per-lookup hasher state.
//! * Test and INDEX successor lists carry a **hot index**: the position
//!   taken by the previous replay, checked first. Lists that outgrow
//!   `LINEAR_MAX` are kept sorted and binary-searched.
//! * An installed image's entry table is built once with the image and
//!   probed in place before the cache's own; installing or clearing
//!   copies no key.
//! * Generation resolution keeps a **hot slot** hint: replay chains stay
//!   within one generation for long stretches, so resolving a `NodeId`
//!   is one sequence-number compare in the common case.

use crate::key::{hash_bytes, varint_len, zigzag, Key};
use facile_obs::{ObsHandle, TraceEvent};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a node in the action cache.
///
/// Carries the owning generation's sequence number alongside the index
/// within that generation's arena. Sequence numbers are globally
/// monotonic and never reused, so an id whose generation was evicted (or
/// cleared) can never alias a live node: resolution fails instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// Sequence number of the owning generation.
    gen: u32,
    /// Index within the generation's arena.
    idx: u32,
}

impl NodeId {
    /// Reassembles an id from its generation sequence number and index —
    /// the snapshot decoder's constructor. An id that does not resolve
    /// within the decoded image is rejected by
    /// [`FrozenGensBuilder::finish`], never dereferenced.
    pub fn from_parts(gen: u32, idx: u32) -> NodeId {
        NodeId { gen, idx }
    }

    /// The id as a usable index within its generation.
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The owning generation's sequence number.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// A `(offset, len)` range into a generation's data slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabRange {
    off: u32,
    len: u32,
}

impl SlabRange {
    const EMPTY: SlabRange = SlabRange { off: 0, len: 0 };

    /// The range of `len` values starting at offset `off`.
    pub fn new(off: u32, len: u32) -> SlabRange {
        SlabRange { off, len }
    }

    /// Start offset of the range within its generation's slab.
    pub fn off(self) -> usize {
        self.off as usize
    }

    /// Number of values in the range.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Successor lists longer than this are kept sorted and binary-searched;
/// at or below it they are scanned linearly (after the hot-index probe).
const LINEAR_MAX: usize = 8;

/// Successors of a dynamic result test: one per observed value, with a
/// hot-index inline cache remembering the last successor taken.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TestList {
    /// `(observed value, successor)`; sorted by value once the list
    /// outgrows [`LINEAR_MAX`].
    items: Vec<(i64, NodeId)>,
    /// Index of the most recently taken successor (hint only).
    hot: u32,
}

impl TestList {
    /// A list holding `items`, its inline cache cold — the snapshot
    /// decoder's constructor. [`FrozenGensBuilder::push_gen`] re-sorts a
    /// large list and rejects duplicate values.
    pub fn from_items(items: Vec<(i64, NodeId)>) -> TestList {
        TestList { items, hot: 0 }
    }

    /// The recorded `(value, successor)` pairs (order unspecified).
    pub fn items(&self) -> &[(i64, NodeId)] {
        &self.items
    }

    /// Number of recorded successors.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no successor was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Immutable lookup (no inline-cache update).
    pub fn get(&self, value: i64) -> Option<NodeId> {
        self.position(value).map(|i| self.items[i].1)
    }

    /// Lookup that refreshes the hot index on success.
    fn get_hot(&mut self, value: i64) -> Option<NodeId> {
        let i = self.position(value)?;
        self.hot = i as u32;
        Some(self.items[i].1)
    }

    /// Position of `value`: the hot index first, then a linear scan for
    /// small lists or a binary search for large ones.
    fn position(&self, value: i64) -> Option<usize> {
        if self.items.get(self.hot as usize).is_some_and(|&(v, _)| v == value) {
            return Some(self.hot as usize);
        }
        if self.items.len() <= LINEAR_MAX {
            self.items.iter().position(|&(v, _)| v == value)
        } else {
            self.items.binary_search_by_key(&value, |&(v, _)| v).ok()
        }
    }

    /// Inserts (or, after an eviction left the pair's target stale,
    /// replaces) the `(value, successor)` pair, keeping the sorted
    /// invariant for large lists and pointing the hot index at it.
    /// Returns whether a *new* pair was added (byte accounting).
    fn insert(&mut self, value: i64, node: NodeId) -> bool {
        if let Some(i) = self.position(value) {
            // Re-recording over a link whose target was evicted: the
            // pair already exists, only the target changes.
            self.items[i].1 = node;
            self.hot = i as u32;
            return false;
        }
        if self.items.len() < LINEAR_MAX {
            self.hot = self.items.len() as u32;
            self.items.push((value, node));
            return true;
        }
        if self.items.len() == LINEAR_MAX {
            self.items.sort_unstable_by_key(|&(v, _)| v);
        }
        let at = self
            .items
            .binary_search_by_key(&value, |&(v, _)| v)
            .unwrap_err();
        self.items.insert(at, (value, node));
        self.hot = at as u32;
        true
    }
}

/// Successors of an INDEX action, keyed by the *dynamic* key components
/// only — the run-time-static components are identical on every execution
/// of the same node, so the dynamic signature discriminates fully and
/// replay never has to serialize the whole key (the paper's "faster to
/// follow the link"). Signatures live in the owning generation's slab.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct IndexList {
    /// `(signature range, successor entry)`; sorted by signature content
    /// once the list outgrows [`LINEAR_MAX`].
    items: Vec<(SlabRange, NodeId)>,
    /// Index of the most recently taken successor (hint only).
    hot: u32,
}

impl IndexList {
    /// A list holding `items`, its inline cache cold — the snapshot
    /// decoder's constructor. [`FrozenGensBuilder`] checks every range
    /// against the generation's slab, re-sorts a large list and rejects
    /// duplicate signatures.
    pub fn from_items(items: Vec<(SlabRange, NodeId)>) -> IndexList {
        IndexList { items, hot: 0 }
    }

    /// The recorded `(signature range, successor)` pairs (ranges resolve
    /// against the owning generation's slab; order unspecified).
    pub fn items(&self) -> &[(SlabRange, NodeId)] {
        &self.items
    }

    /// Number of recorded successors.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no successor was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Inserts (or, after an eviction left the link's target stale,
    /// replaces) the `sig -> target` link, copying `sig` into `slab` (the
    /// slab this list's ranges resolve against), keeping the sorted
    /// invariant for large lists and pointing the hot index at it.
    /// Returns whether a *new* link was added (byte accounting); skips
    /// the link — safely, the entry-table fallback still resolves the
    /// crossing — when `slab` cannot absorb `sig` within `limit` offsets.
    fn insert(&mut self, slab: &mut Vec<i64>, sig: &[i64], target: NodeId, limit: usize) -> bool {
        if let Some(i) = index_position(slab, self, sig) {
            self.items[i].1 = target;
            self.hot = i as u32;
            return false;
        }
        if slab.len() + sig.len() > limit {
            return false;
        }
        let range = SlabRange {
            off: slab.len() as u32,
            len: sig.len() as u32,
        };
        slab.extend_from_slice(sig);
        if self.items.len() == LINEAR_MAX {
            self.items
                .sort_unstable_by(|&(a, _), &(b, _)| range_of(slab, a).cmp(range_of(slab, b)));
        }
        let at = if self.items.len() < LINEAR_MAX {
            self.items.len()
        } else {
            self.items
                .binary_search_by(|&(r, _)| range_of(slab, r).cmp(sig))
                .unwrap_err()
        };
        self.items.insert(at, (range, target));
        self.hot = at as u32;
        true
    }
}

/// Successor links of a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Succ {
    /// Not recorded yet.
    None,
    /// Straight-line link (plain actions).
    One(NodeId),
    /// Dynamic result test: one successor per observed value.
    Tests(TestList),
    /// INDEX action: successors are step entries, keyed by dynamic
    /// signature.
    Index(IndexList),
}

/// One recorded action.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// The action number (an index into the fast engine's action table).
    pub action: u32,
    /// Run-time-static placeholder data — for an INDEX node followed by
    /// its key tail, whose layout the recorder owns — as a range into
    /// the owning generation's slab (resolve with
    /// [`ActionCache::node_data`]).
    pub data: SlabRange,
}

/// Where the next recorded node will be linked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cursor {
    /// Start of simulation (or right after a clear): the next node becomes
    /// the entry for this key.
    AtEntry(Key),
    /// After a plain action.
    AfterPlain(NodeId),
    /// After a dynamic result test that observed `1`-th value.
    AfterTest(NodeId, i64),
    /// After an INDEX action that computed this next key (with the
    /// dynamic signature used for the node-local link).
    AfterIndex(NodeId, Key, Vec<i64>),
}

/// What happens when the cache exceeds its byte capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Wholesale clear-on-full (the paper's §6.2 policy).
    #[default]
    Clear,
    /// Generational partial eviction: retire only the coldest
    /// generations; hot memoized state stays resident.
    Generational,
}

/// Counters describing cache behaviour, for Tables 1 and 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Nodes ever created (across clears and evictions).
    pub nodes_created: u64,
    /// Entries ever registered.
    pub entries_created: u64,
    /// Times the cache was cleared because it hit capacity.
    pub clears: u64,
    /// Bytes currently held.
    pub bytes_current: u64,
    /// Bytes ever memoized (monotonic; what Table 2 reports).
    pub bytes_total: u64,
    /// High-water mark of `bytes_current`.
    pub bytes_peak: u64,
    /// Bytes released by clears (cumulative).
    pub bytes_cleared: u64,
    /// Generations evicted by the generational policy (cumulative).
    pub evictions: u64,
    /// Bytes released by generational evictions (cumulative). Invariant:
    /// `bytes_total == bytes_current + bytes_cleared + bytes_evicted`.
    pub bytes_evicted: u64,
    /// Snapshot payload bytes installed by [`ActionCache::install_frozen`]
    /// (warm start). Installed storage is shared and pinned, so it is
    /// accounted here, *outside* `bytes_current` and the capacity
    /// budget — the byte invariant above is untouched by warm starts.
    pub bytes_frozen: u64,
    /// Shared generations pinned by a warm start (0 when cold).
    pub frozen_gens: u64,
}

/// One slot of the open-addressing entry table.
#[derive(Clone, Debug)]
struct EntrySlot {
    /// Precomputed [`hash_bytes`] of the key (valid only when occupied).
    hash: u64,
    /// Entry node index, or [`EntryTable::VACANT`] when the slot is free.
    node: u32,
    /// Generation sequence number of the entry node.
    gen: u32,
    /// The key bytes (empty when the slot is free).
    key: Key,
}

/// Insert-only open-addressing hash table from [`Key`] to entry node.
/// Linear probing over a power-of-two slot array; no tombstones. Slots
/// whose target generation was evicted stay occupied (probe chains must
/// not break); they are overwritten in place on re-registration of the
/// same key, and dropped when the table grows.
#[derive(Clone, Debug)]
struct EntryTable {
    slots: Vec<EntrySlot>,
    len: usize,
}

impl EntryTable {
    const VACANT: u32 = u32::MAX;
    const INITIAL_SLOTS: usize = 64;

    fn new() -> EntryTable {
        EntryTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn clear(&mut self) {
        for s in &mut self.slots {
            s.node = Self::VACANT;
            s.key = Key::default();
        }
        self.len = 0;
    }

    /// The registration of `bytes`, whose [`hash_bytes`] is `hash`.
    fn get(&self, hash: u64, bytes: &[u8]) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = &self.slots[i];
            if slot.node == Self::VACANT {
                return None;
            }
            if slot.hash == hash && slot.key.as_bytes() == bytes {
                return Some(NodeId {
                    gen: slot.gen,
                    idx: slot.node,
                });
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `key -> node` (`hash` is the key's [`hash_bytes`]) if the
    /// key is absent *or* its current target's generation is no longer
    /// resident (per `resident`); returns whether it (re)inserted. A
    /// live registration wins over a later one for the same key.
    fn insert(
        &mut self,
        hash: u64,
        key: Key,
        node: NodeId,
        resident: impl Fn(u32) -> bool + Copy,
    ) -> bool {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow(resident);
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.node == Self::VACANT {
                *slot = EntrySlot {
                    hash,
                    node: node.idx,
                    gen: node.gen,
                    key,
                };
                self.len += 1;
                return true;
            }
            if slot.hash == hash && slot.key == key {
                if resident(slot.gen) {
                    return false; // first live registration wins
                }
                // Stale registration: point the slot at the new entry.
                slot.node = node.idx;
                slot.gen = node.gen;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Rehashes into a bigger table, dropping slots whose target
    /// generation is gone so eviction churn cannot grow the table
    /// unboundedly.
    fn grow(&mut self, resident: impl Fn(u32) -> bool) {
        let new_cap = (self.slots.len() * 2).max(Self::INITIAL_SLOTS);
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                EntrySlot {
                    hash: 0,
                    node: Self::VACANT,
                    gen: 0,
                    key: Key::default(),
                };
                new_cap
            ],
        );
        self.len = 0;
        let mask = new_cap - 1;
        for slot in old {
            if slot.node == Self::VACANT || !resident(slot.gen) {
                continue;
            }
            let mut i = slot.hash as usize & mask;
            while self.slots[i].node != Self::VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
            self.len += 1;
        }
    }
}

/// The entry registrations of an image: an immutable open-addressing
/// table over one key arena. It is built once, with the image
/// ([`FrozenGensBuilder`] at load, [`ActionCache::freeze`] at export),
/// and every cache that installs the image probes it in place, so
/// installing or clearing a warm cache copies no key.
#[derive(Clone, Debug, Default)]
pub struct ImageEntries {
    /// One record per registration, in image order.
    items: Vec<ImageEntry>,
    /// Linear-probing index into `items`: a power-of-two array at most
    /// half full, [`EntryTable::VACANT`] marking a free slot.
    slots: Vec<u32>,
    /// The keys' bytes, back to back in image order.
    keys: Vec<u8>,
}

/// One image registration: the key's [`hash_bytes`], its entry node and
/// where its bytes lie in the key arena.
#[derive(Clone, Copy, Debug)]
struct ImageEntry {
    hash: u64,
    node: NodeId,
    off: u32,
    len: u32,
}

impl ImageEntries {
    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the image registers no entry.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The registrations `(key bytes, entry node)`, in image order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], NodeId)> + '_ {
        self.items.iter().map(|e| (self.key(e), e.node))
    }

    fn key(&self, e: &ImageEntry) -> &[u8] {
        &self.keys[e.off as usize..(e.off + e.len) as usize]
    }

    /// The entry node registered for `key`, whose [`hash_bytes`] is
    /// `hash`, if any.
    #[inline]
    fn get(&self, hash: u64, key: &[u8]) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let at = self.slots[i];
            if at == EntryTable::VACANT {
                return None;
            }
            let e = &self.items[at as usize];
            if e.hash == hash && self.key(e) == key {
                return Some(e.node);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slot array, re-placing every item, when one more
    /// registration would fill it past half.
    fn grow(&mut self) {
        if (self.items.len() + 1) * 2 > self.slots.len() {
            let want = (self.slots.len() * 2).max(EntryTable::INITIAL_SLOTS);
            self.slots = vec![EntryTable::VACANT; want];
            for at in 0..self.items.len() {
                self.place(self.items[at].hash, at as u32);
            }
        }
    }

    /// Appends the registration `key -> node`.
    ///
    /// # Errors
    ///
    /// A description when the table already registers `key` or the key
    /// arena would outgrow its `u32` offsets.
    fn insert(&mut self, key: &[u8], node: NodeId) -> Result<(), String> {
        let hash = hash_bytes(key);
        if self.get(hash, key).is_some() {
            return Err("duplicate entry key".to_owned());
        }
        let off = u32::try_from(self.keys.len()).ok();
        let (Some(off), Ok(len)) = (off, u32::try_from(key.len())) else {
            return Err("entry keys exceed the arena's offset width".to_owned());
        };
        if off.checked_add(len).is_none() {
            return Err("entry keys exceed the arena's offset width".to_owned());
        }
        self.grow();
        self.keys.extend_from_slice(key);
        self.place(hash, self.items.len() as u32);
        self.items.push(ImageEntry {
            hash,
            node,
            off,
            len,
        });
        Ok(())
    }

    /// Puts item `at`, whose key hashes to `hash`, into the first free
    /// slot of its probe chain.
    fn place(&mut self, hash: u64, at: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != EntryTable::VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = at;
    }
}

/// Largest generation sequence number a snapshot image may carry. A warm
/// start numbers its own generations above the image's, so the bound
/// leaves every warm run at least 2^31 fresh sequence numbers; an image
/// past it is rejected at load (docs/PERSISTENCE.md).
pub const MAX_IMAGE_SEQ: u32 = u32::MAX / 2;

/// The storage of one generation: its nodes, their successor links and
/// the slab their data ranges and INDEX signatures resolve against.
///
/// A cache owns the storage of the generations it records into; the
/// generations of an installed image share theirs behind an `Arc` and
/// are never written. Storage is plain data (`Send + Sync`).
#[derive(Clone, Debug, Default)]
pub struct GenStorage {
    /// Globally monotonic sequence number (never reused).
    seq: u32,
    nodes: Vec<Node>,
    /// Successor links, parallel to `nodes` (kept out of [`Node`] so the
    /// node header stays `Copy` and the replay walk reads a dense array).
    succs: Vec<Succ>,
    /// Contiguous backing store for placeholder data and INDEX link
    /// signatures.
    slab: Vec<i64>,
}

impl GenStorage {
    /// The generation's (never reused) sequence number.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// The recorded action nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The successor links of node `idx` (ranges in `Index` links
    /// resolve against this generation's [`slab`](Self::slab)).
    pub fn succ(&self, idx: usize) -> &Succ {
        &self.succs[idx]
    }

    /// The contiguous placeholder-data / signature store.
    pub fn slab(&self) -> &[i64] {
        &self.slab
    }
}

/// A generation's storage: owned when this cache records into it, shared
/// when it was installed from an image.
#[derive(Clone, Debug)]
enum Storage {
    Owned(GenStorage),
    Shared(Arc<GenStorage>),
}

impl std::ops::Deref for Storage {
    type Target = GenStorage;

    #[inline]
    fn deref(&self) -> &GenStorage {
        match self {
            Storage::Owned(s) => s,
            Storage::Shared(s) => s,
        }
    }
}

/// One generation of the cache: a sealed or recording arena of nodes,
/// links and slab data, or a pinned generation of an installed image.
#[derive(Clone, Debug)]
struct Generation {
    /// `store.seq`, kept inline so resolution never leaves the vector.
    seq: u32,
    store: Storage,
    /// Bytes charged to this generation (nodes, links, entries).
    bytes: u64,
    /// Touch-clock stamp of the last replay hit that landed here.
    last_touch: Cell<u64>,
}

impl Generation {
    fn owned(seq: u32, stamp: u64) -> Generation {
        Generation {
            seq,
            store: Storage::Owned(GenStorage {
                seq,
                ..GenStorage::default()
            }),
            bytes: 0,
            last_touch: Cell::new(stamp),
        }
    }
}

/// An immutable image of an action cache: shared generation storages
/// sorted by sequence number plus the entry table that points into them.
///
/// This is what [`ActionCache::freeze`] exports, what the snapshot codec
/// serializes (docs/PERSISTENCE.md), and what
/// [`ActionCache::install_frozen`] installs as pinned generations for a
/// warm start. It is plain data — `Send + Sync` — so `facilec batch`
/// lanes share one image behind an `Arc` while each lane layers private
/// copy-on-write recording on top.
#[derive(Clone, Debug, Default)]
pub struct FrozenGens {
    /// Generation storages, sorted by `seq` ascending.
    gens: Vec<Arc<GenStorage>>,
    /// Entry registrations `key -> entry node`, in export order.
    entries: ImageEntries,
    /// Serialized payload size (set by the snapshot codec; 0 for images
    /// that never touched disk). Reported as `CacheStats::bytes_frozen`.
    bytes: u64,
}

impl FrozenGens {
    /// The generation storages, sorted by sequence number.
    pub fn gens(&self) -> &[Arc<GenStorage>] {
        &self.gens
    }

    /// The entry registrations (iterated in export order).
    pub fn entries(&self) -> &ImageEntries {
        &self.entries
    }

    /// Serialized payload size in bytes (0 when never serialized).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Stamps the serialized payload size (the snapshot codec knows it,
    /// the image does not).
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Number of generations.
    pub fn generation_count(&self) -> usize {
        self.gens.len()
    }

    /// Total nodes across all generations.
    pub fn node_count(&self) -> usize {
        self.gens.iter().map(|g| g.nodes.len()).sum()
    }

    /// Number of entry registrations.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Largest sequence number (`None` for an empty image).
    pub fn max_seq(&self) -> Option<u32> {
        self.gens.last().map(|g| g.seq)
    }
}

/// Builds a validated [`FrozenGens`] from untrusted decoded parts.
///
/// The snapshot decoder hands over each generation in its final form
/// (slab, node headers and successor lists, inline caches cold) and each
/// entry registration as borrowed key bytes, which go straight into the
/// image's entry table. Each generation is checked in one pass as it
/// arrives; [`finish`](Self::finish) checks what only the whole image
/// can answer. Together they prove every cross-reference resolves
/// within the image, every slab range is in bounds and every action
/// number is within the compiled step's table — so a corrupted payload
/// becomes a load error, never a wrong answer or a panic at replay time.
#[derive(Debug, Default)]
pub struct FrozenGensBuilder {
    gens: Vec<GenStorage>,
    entries: ImageEntries,
    /// Links into generations not pushed yet: `(what, target)`,
    /// resolved by [`finish`](Self::finish).
    later: Vec<(&'static str, NodeId)>,
}

impl FrozenGensBuilder {
    /// An empty builder.
    pub fn new() -> FrozenGensBuilder {
        FrozenGensBuilder::default()
    }

    /// Appends the next generation: `succs[i]` holds the links of
    /// `nodes[i]`.
    ///
    /// Sequence numbers must be strictly increasing (the on-disk order).
    /// Every node data range and INDEX signature range must lie inside
    /// `slab`. Every link into this or an earlier generation must
    /// resolve, and a plain or test link must point forward: it only
    /// ever targets a node recorded after its source, so replay between
    /// two INDEX crossings always ends. Links into later generations are
    /// resolved by [`finish`](Self::finish). Large successor lists are
    /// re-sorted for lookup and refused if a discriminator repeats — a
    /// decoder must be able to trust lookups, not the writer's ordering.
    ///
    /// # Errors
    ///
    /// A description of the first failed check.
    pub fn push_gen(
        &mut self,
        seq: u32,
        slab: Vec<i64>,
        nodes: Vec<Node>,
        mut succs: Vec<Succ>,
    ) -> Result<(), String> {
        if let Some(last) = self.gens.last() {
            if seq <= last.seq {
                return Err(format!(
                    "generation sequence numbers must increase: {seq} after {}",
                    last.seq
                ));
            }
        }
        if nodes.len() != succs.len() {
            return Err(format!(
                "generation {seq} has {} nodes but {} successor lists",
                nodes.len(),
                succs.len()
            ));
        }
        if let Some(n) = nodes.iter().find(|n| !fits(&slab, n.data)) {
            return Err(format!(
                "node data range {}+{} exceeds slab of {} values",
                n.data.off,
                n.data.len,
                slab.len()
            ));
        }
        let gens = &self.gens;
        let later = &mut self.later;
        let mut link = |what: &'static str, n: NodeId, i: usize, forward: bool| {
            let len = match n.gen.cmp(&seq) {
                std::cmp::Ordering::Equal => nodes.len(),
                std::cmp::Ordering::Greater => {
                    later.push((what, n));
                    return Ok(());
                }
                std::cmp::Ordering::Less => match gens.binary_search_by_key(&n.gen, |g| g.seq) {
                    Ok(g) => gens[g].nodes.len(),
                    Err(_) => return Err(outside(what, n)),
                },
            };
            if n.index() >= len {
                return Err(out_of_bounds(what, n, len));
            }
            if forward && (n.gen, n.index()) <= (seq, i) {
                return Err(format!(
                    "{what} target {}:{} does not follow its source {seq}:{i}",
                    n.gen, n.idx
                ));
            }
            Ok(())
        };
        for (i, s) in succs.iter_mut().enumerate() {
            match s {
                Succ::None => {}
                Succ::One(n) => link("plain link", *n, i, true)?,
                Succ::Tests(list) => {
                    for &(_, n) in &list.items {
                        link("test link", n, i, true)?;
                    }
                    if list.items.len() > LINEAR_MAX {
                        list.items.sort_unstable_by_key(|&(v, _)| v);
                        if list.items.windows(2).any(|w| w[0].0 == w[1].0) {
                            return Err("duplicate test value in successor list".to_owned());
                        }
                    }
                }
                Succ::Index(list) => {
                    for &(r, n) in &list.items {
                        if !fits(&slab, r) {
                            return Err(format!(
                                "INDEX signature range {}+{} exceeds slab of {} values",
                                r.off,
                                r.len,
                                slab.len()
                            ));
                        }
                        link("INDEX link", n, i, false)?;
                    }
                    if list.items.len() > LINEAR_MAX {
                        list.items.sort_unstable_by(|&(a, _), &(b, _)| {
                            range_of(&slab, a).cmp(range_of(&slab, b))
                        });
                        if (list.items.windows(2))
                            .any(|w| range_of(&slab, w[0].0) == range_of(&slab, w[1].0))
                        {
                            return Err("duplicate INDEX signature in successor list".to_owned());
                        }
                    }
                }
            }
        }
        self.gens.push(GenStorage {
            seq,
            nodes,
            succs,
            slab,
        });
        Ok(())
    }

    /// Registers `key -> node` in the image's entry table. The target is
    /// checked in [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// A description when `key` is already registered (a save never
    /// writes a key twice) or the keys outgrow the table's arena.
    pub fn push_entry(&mut self, key: &[u8], node: NodeId) -> Result<(), String> {
        self.entries.insert(key, node)
    }

    /// Seals the image once every link into a later generation and
    /// every entry target resolves (installed links never dangle:
    /// installed generations are pinned for the life of the run) and
    /// every action number is below `action_limit`.
    ///
    /// # Errors
    ///
    /// A description of the first failed check.
    pub fn finish(self, action_limit: u32) -> Result<FrozenGens, String> {
        let gens = &self.gens;
        let resolve = |what: &str, n: NodeId| match gens.binary_search_by_key(&n.gen, |g| g.seq) {
            Ok(i) if n.index() < gens[i].nodes.len() => Ok(()),
            Ok(i) => Err(out_of_bounds(what, n, gens[i].nodes.len())),
            Err(_) => Err(outside(what, n)),
        };
        for g in gens {
            if let Some(node) = g.nodes.iter().find(|n| n.action >= action_limit) {
                return Err(format!(
                    "action number {} out of range (step has {action_limit} actions)",
                    node.action
                ));
            }
        }
        for &(what, n) in &self.later {
            resolve(what, n)?;
        }
        for e in &self.entries.items {
            resolve("entry", e.node)?;
        }
        Ok(FrozenGens {
            gens: self.gens.into_iter().map(Arc::new).collect(),
            entries: self.entries,
            bytes: 0,
        })
    }
}

/// The error for a link or entry whose target index is past its
/// generation's `len` nodes.
fn out_of_bounds(what: &str, n: NodeId, len: usize) -> String {
    format!(
        "{what} target {}:{} out of bounds (generation has {len} nodes)",
        n.gen, n.idx
    )
}

/// The error for a link or entry whose target generation is not in the
/// image.
fn outside(what: &str, n: NodeId) -> String {
    format!(
        "{what} target {}:{} names a generation outside the snapshot",
        n.gen, n.idx
    )
}

/// The specialized action cache.
#[derive(Clone, Debug)]
pub struct ActionCache {
    /// Every resident generation: the shared ones of an installed image
    /// first (sorted by sequence number, all below every owned one), then
    /// the owned ones; `gens[cur]` receives new recordings.
    gens: Vec<Generation>,
    /// How many leading `gens` are shared. Shared generations are
    /// pinned: never written, evicted or cleared, so their own links
    /// never dangle and skip the residency check.
    pinned: usize,
    cur: usize,
    /// Hint: the slot the last resolved [`NodeId`] lived in.
    hot_gen: Cell<u32>,
    /// Next generation sequence number to hand out.
    next_seq: u32,
    /// Monotonic touch clock for eviction coldness.
    touch: Cell<u64>,
    entries: EntryTable,
    capacity: Option<u64>,
    policy: CachePolicy,
    /// Byte budget of one generation before rotation (generational
    /// policy; `u64::MAX` otherwise).
    gen_budget: u64,
    /// Maximum slab length / node count per generation. `u32::MAX`
    /// normally; shrunk by tests to exercise rotation-before-overflow.
    offset_limit: u32,
    stats: CacheStats,
    /// Observability hook; disabled (free) by default.
    obs: ObsHandle,
    /// The installed image, kept for its entry table: every entry
    /// lookup probes it before the private `entries`, which hold only
    /// this cache's own registrations.
    image: Option<Arc<FrozenGens>>,
    /// Private copy-on-write successor records of shared nodes: links
    /// recorded *from* a shared node land here instead of mutating the
    /// shared storage. A lookup on a shared node tries the node's own
    /// links first (the common warm hit costs nothing extra) and this map
    /// only on a miss. Holds only additions — never copies.
    overlay: HashMap<NodeId, Succ>,
    /// Backing store for overlay INDEX signatures.
    overlay_slab: Vec<i64>,
    /// The signature buffer of the last INDEX cursor linked, reused by
    /// the next one ([`index_cursor`](Self::index_cursor)), so recording
    /// an INDEX allocates no signature.
    spare_sig: Vec<i64>,
}

/// Fixed per-node overhead charged to the byte budget (action number +
/// link), matching the paper's description of compact entries.
const NODE_OVERHEAD: u64 = 8;
/// Fixed per-entry overhead (hash-table slot + link).
const ENTRY_OVERHEAD: u64 = 16;
/// How many generations the generational policy aims to keep resident:
/// the per-generation budget is `capacity / GEN_TARGET`.
const GEN_TARGET: u64 = 8;

impl ActionCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        Self::with_policy(None, CachePolicy::Clear)
    }

    /// A cache that clears itself when `bytes` are exceeded (checked at
    /// step boundaries by the engines).
    pub fn with_capacity(bytes: u64) -> Self {
        Self::with_policy(Some(bytes), CachePolicy::Clear)
    }

    /// A cache with an optional byte capacity and an explicit
    /// over-capacity policy.
    pub fn with_policy(capacity: Option<u64>, policy: CachePolicy) -> Self {
        let gen_budget = match (capacity, policy) {
            (Some(cap), CachePolicy::Generational) => (cap / GEN_TARGET).max(1),
            _ => u64::MAX,
        };
        ActionCache {
            gens: vec![Generation::owned(0, 0)],
            pinned: 0,
            cur: 0,
            hot_gen: Cell::new(0),
            next_seq: 1,
            touch: Cell::new(0),
            entries: EntryTable::new(),
            capacity,
            policy,
            gen_budget,
            offset_limit: u32::MAX,
            stats: CacheStats::default(),
            obs: ObsHandle::off(),
            image: None,
            overlay: HashMap::new(),
            overlay_slab: Vec::new(),
            spare_sig: Vec::new(),
        }
    }

    /// Attaches an observability handle; the cache announces clears and
    /// evictions through it. Pass a clone of the simulation's handle so
    /// all components feed one stream.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The configured over-capacity policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Monotonic invalidation epoch: advances whenever *any* resident
    /// node may have become stale — a wholesale clear or a generational
    /// eviction. Consumers that hold [`NodeId`]s outside the cache
    /// (e.g. the VM's supertrace buffers) compare this against their
    /// last-seen value and re-validate only when it moved, instead of
    /// checking residency on every use.
    #[inline]
    pub fn invalidation_epoch(&self) -> u64 {
        self.stats.clears + self.stats.evictions
    }

    /// Whether the generation with sequence number `seq` is still
    /// resident (the generation-level form of
    /// [`is_resident`](Self::is_resident)).
    #[inline]
    pub fn seq_resident(&self, seq: u32) -> bool {
        self.gen_slot(seq).is_some()
    }

    /// Stamps each generation in `seqs` as recently used. Supertrace
    /// execution bypasses the per-step lookups that normally feed the
    /// eviction touch clock, so it reports the generations it reads
    /// through this instead (once per trace entry, not per step).
    pub fn touch_gens(&self, seqs: &[u32]) {
        for &s in seqs {
            self.touch_seq(s);
        }
    }

    /// Number of nodes in owned (recorded, unpinned) generations.
    pub fn node_count(&self) -> usize {
        self.gens[self.pinned..]
            .iter()
            .map(|g| g.store.nodes.len())
            .sum()
    }

    /// Number of owned (recorded, unpinned) generations.
    pub fn generation_count(&self) -> usize {
        self.gens.len() - self.pinned
    }

    /// Number of live entries this cache registered (an installed
    /// image's are not counted), including registrations whose target
    /// was evicted but whose slot has not been reclaimed yet.
    pub fn entry_count(&self) -> usize {
        self.entries.len
    }

    /// Whether the byte budget is exhausted.
    pub fn over_capacity(&self) -> bool {
        match self.capacity {
            Some(cap) => self.stats.bytes_current > cap,
            None => false,
        }
    }

    /// Whether `id` resolves to a resident (non-evicted) node.
    #[inline]
    pub fn is_resident(&self, id: NodeId) -> bool {
        self.gen_slot(id.gen).is_some()
    }

    /// Slot of the generation with sequence number `seq`, hot-hint first.
    #[inline]
    fn gen_slot(&self, seq: u32) -> Option<usize> {
        let hot = self.hot_gen.get() as usize;
        match self.gens.get(hot) {
            Some(g) if g.seq == seq => Some(hot),
            _ => self.gen_slot_cold(seq),
        }
    }

    #[cold]
    fn gen_slot_cold(&self, seq: u32) -> Option<usize> {
        let i = self.gens.iter().position(|g| g.seq == seq)?;
        self.hot_gen.set(i as u32);
        Some(i)
    }

    /// Slot of the generation owning `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (its generation was evicted or cleared);
    /// replay checks residency through the lookup APIs first.
    #[inline]
    fn slot_of(&self, id: NodeId) -> usize {
        self.gen_slot(id.gen)
            .expect("stale NodeId: its generation was evicted or cleared")
    }

    /// Whether a link stored in generation `slot` to `n` may be followed:
    /// a shared generation's own links never dangle, so only owned ones
    /// pay the residency check.
    #[inline]
    fn follows(&self, slot: usize, n: NodeId) -> bool {
        slot < self.pinned || self.is_resident(n)
    }

    /// The overlay record of `id` if it lives in the shared generation
    /// `slot` (owned nodes never have one).
    #[inline]
    fn overlay_of(&self, slot: usize, id: NodeId) -> Option<&Succ> {
        if slot < self.pinned {
            self.overlay.get(&id)
        } else {
            None
        }
    }

    /// The successor record of `id` whose hot index replay refreshes,
    /// with the slab its INDEX ranges resolve against: the node's own in
    /// an owned generation, its overlay record (if any) in a shared one.
    #[inline]
    fn hot_record(&mut self, slot: usize, id: NodeId) -> Option<(&[i64], &mut Succ)> {
        match &mut self.gens[slot].store {
            Storage::Owned(g) => Some((&g.slab[..], &mut g.succs[id.index()])),
            Storage::Shared(_) => self
                .overlay
                .get_mut(&id)
                .map(|s| (&self.overlay_slab[..], s)),
        }
    }

    /// Stamps the generation owning `seq` with a fresh touch-clock tick
    /// (eviction coldness; cheap enough for once-per-step call sites).
    #[inline]
    fn touch_seq(&self, seq: u32) {
        if let Some(slot) = self.gen_slot(seq) {
            let t = self.touch.get().wrapping_add(1);
            self.touch.set(t);
            self.gens[slot].last_touch.set(t);
        }
    }

    /// Drops every unpinned generation (the clear-on-full policy, §6.2).
    /// Outstanding [`NodeId`]s and [`Cursor`]s into them become invalid;
    /// they are detected lazily because cleared sequence numbers never
    /// recur. Installed generations stay, and so does the image's entry
    /// table: it was never copied, so nothing is re-registered.
    pub fn clear(&mut self) {
        let freed = self.stats.bytes_current;
        let nodes = self.node_count() as u64;
        let seq = self.fresh_seq();
        self.gens.truncate(self.pinned);
        self.gens.push(Generation::owned(seq, self.touch.get()));
        self.cur = self.pinned;
        self.hot_gen.set(self.cur as u32);
        self.entries.clear();
        // Every overlay target was owned, so the overlay dies too.
        self.overlay.clear();
        self.overlay_slab.clear();
        self.stats.bytes_cleared = self.stats.bytes_cleared.saturating_add(freed);
        self.stats.bytes_current = 0;
        self.stats.clears += 1;
        if self.obs.enabled() {
            self.obs.emit(TraceEvent::CacheClear {
                bytes: freed,
                nodes,
                clears: self.stats.clears,
            });
        }
    }

    /// Brings the cache back under its byte capacity at a step boundary,
    /// per the configured policy. Returns whether `cursor` is still
    /// valid: `false` means recording must restart at the entry (the
    /// clear-on-full behaviour), `true` means the cursor's generation was
    /// pinned and recording can continue seamlessly.
    pub fn reclaim(&mut self, cursor: &Cursor) -> bool {
        match self.capacity {
            Some(cap) if self.stats.bytes_current > cap => {
                if self.policy == CachePolicy::Clear {
                    self.clear();
                    return false;
                }
                self.shrink_to(cap, cursor);
                true
            }
            _ => true,
        }
    }

    /// Evicts the coldest generations until at most `target` bytes stay
    /// resident — generational reclaim, and the memory-pressure release
    /// valve behind `Simulation::trim_cache` under that policy. (Under
    /// [`CachePolicy::Clear`] the cache is one recording generation,
    /// which this pins, so it frees nothing; `trim_cache` clears instead.)
    /// Installed generations, the recording generation and `cursor`'s
    /// generation are pinned (recording continues seamlessly), so the
    /// target is best-effort: pinned bytes stay put. A paused replay
    /// position is not pinned; evicting it is detected by the engine's
    /// residency check and healed through the slow path.
    pub fn shrink_to(&mut self, target: u64, cursor: &Cursor) {
        let pin_cur = self.gens[self.cur].seq;
        let pin_cursor = match cursor {
            Cursor::AtEntry(_) => None,
            Cursor::AfterPlain(n) | Cursor::AfterTest(n, _) | Cursor::AfterIndex(n, _, _) => {
                Some(n.gen)
            }
        };
        while self.stats.bytes_current > target {
            let victim = (self.pinned..self.gens.len())
                .filter(|&i| self.gens[i].seq != pin_cur && Some(self.gens[i].seq) != pin_cursor)
                .min_by_key(|&i| self.gens[i].last_touch.get());
            match victim {
                Some(i) => self.evict_gen(i),
                // Everything left is pinned; the budget is softly
                // exceeded until the next boundary.
                None => break,
            }
        }
    }

    /// Retires one owned generation: releases its bytes and announces the
    /// eviction. Links into it become stale and read as ordinary misses.
    fn evict_gen(&mut self, slot: usize) {
        let g = self.gens.swap_remove(slot);
        if self.cur == self.gens.len() {
            // The recording generation was the vector's last element and
            // was swapped into the vacated slot.
            self.cur = slot;
        }
        self.hot_gen.set(self.cur as u32);
        self.stats.bytes_current = self.stats.bytes_current.saturating_sub(g.bytes);
        self.stats.bytes_evicted = self.stats.bytes_evicted.saturating_add(g.bytes);
        self.stats.evictions = self.stats.evictions.saturating_add(1);
        if self.obs.enabled() {
            self.obs.emit(TraceEvent::CacheEvict {
                gen: g.seq as u64,
                bytes: g.bytes,
                nodes: g.store.nodes.len() as u64,
                evictions: self.stats.evictions,
            });
        }
    }

    fn fresh_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("generation sequence numbers exhausted");
        seq
    }

    /// Seals the current generation and opens a fresh one. Never
    /// invalidates anything: links are generation-tagged.
    fn rotate(&mut self) {
        let seq = self.fresh_seq();
        let t = self.touch.get().wrapping_add(1);
        self.touch.set(t);
        self.gens.push(Generation::owned(seq, t));
        self.cur = self.gens.len() - 1;
        self.hot_gen.set(self.cur as u32);
    }

    /// The entry node for `key`, if one was recorded and is still
    /// resident.
    pub fn entry(&self, key: &Key) -> Option<NodeId> {
        self.entry_bytes(key.as_bytes())
    }

    /// [`entry`](Self::entry) from raw serialized key bytes — lets the
    /// replay loop look up a key it built in a reusable buffer without
    /// materializing a [`Key`]. Hashes once, then probes the installed
    /// image's table (its targets are pinned, so always resident) and
    /// then this cache's own.
    pub fn entry_bytes(&self, bytes: &[u8]) -> Option<NodeId> {
        let hash = hash_bytes(bytes);
        let n = match self.image_entry(hash, bytes) {
            Some(n) => n,
            None => (self.entries.get(hash, bytes)).filter(|&n| self.is_resident(n))?,
        };
        self.touch_seq(n.gen);
        Some(n)
    }

    /// The installed image's registration of `bytes` (hashing to
    /// `hash`), if any.
    #[inline]
    fn image_entry(&self, hash: u64, bytes: &[u8]) -> Option<NodeId> {
        self.image.as_ref()?.entries.get(hash, bytes)
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (its generation was evicted or cleared).
    #[inline]
    pub fn node(&self, id: NodeId) -> Node {
        self.gens[self.slot_of(id)].store.nodes[id.index()]
    }

    /// The placeholder data of a node, resolved from its generation's
    /// slab.
    #[inline]
    pub fn node_data(&self, id: NodeId) -> &[i64] {
        self.action_and_data(id).1
    }

    /// A node's action number and placeholder data, resolved with one
    /// generation lookup (the replay loop's per-action read).
    #[inline]
    pub fn action_and_data(&self, id: NodeId) -> (u32, &[i64]) {
        let g = &self.gens[self.slot_of(id)].store;
        let n = g.nodes[id.index()];
        (n.action, range_of(&g.slab, n.data))
    }

    /// The successor links of a node. For a shared node this is its own
    /// link set; copy-on-write additions live in the private overlay and
    /// are only reachable through the lookup methods.
    pub fn succ(&self, id: NodeId) -> &Succ {
        &self.gens[self.slot_of(id)].store.succs[id.index()]
    }

    /// Successor of a plain action. A link whose target was evicted
    /// reads as missing.
    pub fn next_plain(&self, id: NodeId) -> Option<NodeId> {
        let slot = self.slot_of(id);
        match self.gens[slot].store.succs[id.index()] {
            Succ::One(n) => self.follows(slot, n).then_some(n),
            // Shared, so also try the overlay.
            Succ::None => match self.overlay_of(slot, id)? {
                &Succ::One(n) => self.is_resident(n).then_some(n),
                _ => None,
            },
            _ => None,
        }
    }

    /// Successor of a dynamic result test for `value` (immutable; no
    /// inline-cache update — replay uses [`next_test_hot`](Self::next_test_hot)).
    pub fn next_test(&self, id: NodeId, value: i64) -> Option<NodeId> {
        let slot = self.slot_of(id);
        let Succ::Tests(list) = &self.gens[slot].store.succs[id.index()] else {
            return None;
        };
        if let Some(n) = list.get(value) {
            return self.follows(slot, n).then_some(n);
        }
        match self.overlay_of(slot, id)? {
            Succ::Tests(ov) => ov.get(value).filter(|&n| self.is_resident(n)),
            _ => None,
        }
    }

    /// Successor of a dynamic result test for `value`, refreshing the
    /// node's hot-index inline cache on a hit. A shared node's own list
    /// is never written, so only its overlay hits refresh a hot index
    /// (an image's inline caches stay cold, as documented).
    pub fn next_test_hot(&mut self, id: NodeId, value: i64) -> Option<NodeId> {
        let slot = self.slot_of(id);
        if slot < self.pinned {
            match &self.gens[slot].store.succs[id.index()] {
                Succ::Tests(list) => {
                    if let Some(n) = list.get(value) {
                        return Some(n);
                    }
                }
                _ => return None,
            }
        }
        let n = match self.hot_record(slot, id)? {
            (_, Succ::Tests(list)) => list.get_hot(value)?,
            _ => return None,
        };
        self.is_resident(n).then_some(n)
    }

    /// Node-local successor of an INDEX action for a dynamic signature —
    /// the fast path, no key serialization needed (immutable variant).
    pub fn next_index_local(&self, id: NodeId, sig: &[i64]) -> Option<NodeId> {
        let slot = self.slot_of(id);
        let g = &self.gens[slot].store;
        let Succ::Index(list) = &g.succs[id.index()] else {
            return None;
        };
        if let Some(i) = index_position(&g.slab, list, sig) {
            let n = list.items[i].1;
            return self.follows(slot, n).then_some(n);
        }
        match self.overlay_of(slot, id)? {
            Succ::Index(ov) => index_position(&self.overlay_slab, ov, sig)
                .map(|i| ov.items[i].1)
                .filter(|&n| self.is_resident(n)),
            _ => None,
        }
    }

    /// [`next_index_local`](Self::next_index_local), refreshing the
    /// node's hot-index inline cache on a hit and stamping the target's
    /// generation as recently used (once-per-step eviction coldness).
    /// A shared node's own list stays cold; only its overlay hits
    /// refresh a hot index.
    pub fn next_index_local_hot(&mut self, id: NodeId, sig: &[i64]) -> Option<NodeId> {
        let slot = self.slot_of(id);
        if slot < self.pinned {
            let g = &self.gens[slot].store;
            match &g.succs[id.index()] {
                Succ::Index(list) => {
                    if let Some(i) = index_position(&g.slab, list, sig) {
                        return Some(list.items[i].1);
                    }
                }
                _ => return None,
            }
        }
        let (i, n) = match self.hot_record(slot, id)? {
            (slab, Succ::Index(list)) => {
                let i = index_position(slab, list, sig)?;
                (i, list.items[i].1)
            }
            _ => return None,
        };
        if !self.is_resident(n) {
            return None;
        }
        if let Some((_, Succ::Index(list))) = self.hot_record(slot, id) {
            list.hot = i as u32;
        }
        self.touch_seq(n.gen);
        Some(n)
    }

    /// The hot-hint successor of a dynamic result test: the
    /// `(observed value, target)` pair the node's inline cache points
    /// at, if the target is still resident. This is the edge a trace
    /// builder should speculate on — it is the last edge replay took.
    pub fn predicted_test(&self, id: NodeId) -> Option<(i64, NodeId)> {
        let slot = self.slot_of(id);
        // A shared node's own hot index never moves, so its overlay's
        // carries the recency signal when present.
        if let Some(Succ::Tests(ov)) = self.overlay_of(slot, id) {
            match ov.items.get(ov.hot as usize) {
                Some(&(v, n)) if self.is_resident(n) => return Some((v, n)),
                _ => {}
            }
        }
        let Succ::Tests(list) = &self.gens[slot].store.succs[id.index()] else {
            return None;
        };
        let &(v, n) = list.items.get(list.hot as usize)?;
        self.follows(slot, n).then_some((v, n))
    }

    /// The hot-hint successor of an INDEX action: the dynamic signature
    /// contents and target entry of the inline-cached link, if the
    /// target is still resident.
    pub fn predicted_index(&self, id: NodeId) -> Option<(&[i64], NodeId)> {
        let slot = self.slot_of(id);
        if let Some(Succ::Index(ov)) = self.overlay_of(slot, id) {
            match ov.items.get(ov.hot as usize) {
                Some(&(r, n)) if self.is_resident(n) => {
                    return Some((range_of(&self.overlay_slab, r), n))
                }
                _ => {}
            }
        }
        let g = &self.gens[slot].store;
        let Succ::Index(list) = &g.succs[id.index()] else {
            return None;
        };
        let &(r, n) = list.items.get(list.hot as usize)?;
        self.follows(slot, n).then_some((range_of(&g.slab, r), n))
    }

    // ----- recording -----

    /// Makes sure the current generation can absorb `extra` slab values
    /// and one more node, rotating to a fresh generation when its byte
    /// budget is spent or its `u32` offset space would overflow (the
    /// checked alternative to silently truncating `as u32` casts).
    fn ensure_room(&mut self, extra: usize) {
        let limit = self.offset_limit as usize;
        assert!(
            extra <= limit,
            "action payload ({extra} values) exceeds the slab offset width"
        );
        let g = &self.gens[self.cur];
        let over_budget = g.bytes >= self.gen_budget;
        let over_offset = g.store.slab.len() + extra > limit || g.store.nodes.len() >= limit;
        // Offset exhaustion always forces a rotation; a spent byte budget
        // only does once the generation holds at least one node (an empty
        // generation over budget would rotate forever).
        if over_offset || (over_budget && !g.store.nodes.is_empty()) {
            self.rotate();
        }
    }

    /// Raises the high-water mark to the current level. Must be called
    /// everywhere `bytes_current` grows.
    fn note_peak(&mut self) {
        self.stats.bytes_peak = self.stats.bytes_peak.max(self.stats.bytes_current);
    }

    /// Charges `bytes` to the generation owning `seq` (if still
    /// resident) and to the global counters.
    fn charge(&mut self, seq: u32, bytes: u64) {
        self.stats.bytes_current = self.stats.bytes_current.saturating_add(bytes);
        self.stats.bytes_total = self.stats.bytes_total.saturating_add(bytes);
        self.note_peak();
        if let Some(slot) = self.gen_slot(seq) {
            self.gens[slot].bytes = self.gens[slot].bytes.saturating_add(bytes);
        }
    }

    /// Appends a node holding `data`, charged `payload` modeled bytes
    /// plus the fixed node overhead.
    fn new_node(&mut self, action: u32, data: &[i64], payload: u64, succ: Succ) -> NodeId {
        self.ensure_room(data.len());
        let bytes = NODE_OVERHEAD + payload;
        let Storage::Owned(g) = &mut self.gens[self.cur].store else {
            unreachable!("the recording generation is owned");
        };
        let seq = g.seq;
        let idx = g.nodes.len() as u32;
        let range = if data.is_empty() {
            SlabRange::EMPTY
        } else {
            let off = g.slab.len() as u32;
            g.slab.extend_from_slice(data);
            SlabRange {
                off,
                len: data.len() as u32,
            }
        };
        g.nodes.push(Node {
            action,
            data: range,
        });
        g.succs.push(succ);
        self.charge(seq, bytes);
        self.stats.nodes_created = self.stats.nodes_created.saturating_add(1);
        NodeId { gen: seq, idx }
    }

    /// The writable successor record of `n` and the slab its INDEX
    /// ranges live in: the node's own in an owned generation; for a
    /// shared node, its copy-on-write overlay record (created from
    /// `empty` on first use) and the overlay slab.
    ///
    /// # Panics
    ///
    /// Panics if `n` is stale (a cursor whose generation was evicted).
    fn succ_mut(&mut self, n: NodeId, empty: fn() -> Succ) -> (&mut Vec<i64>, &mut Succ) {
        let slot = self.slot_of(n);
        match &mut self.gens[slot].store {
            Storage::Owned(g) => (&mut g.slab, &mut g.succs[n.index()]),
            Storage::Shared(_) => (
                &mut self.overlay_slab,
                self.overlay.entry(n).or_insert_with(empty),
            ),
        }
    }

    /// Inserts the `sig -> target` link into INDEX node `n`'s successor
    /// list; see [`IndexList::insert`].
    fn index_insert(&mut self, n: NodeId, sig: &[i64], target: NodeId) -> bool {
        let limit = self.offset_limit as usize;
        let (slab, succ) = self.succ_mut(n, || Succ::Index(IndexList::default()));
        let Succ::Index(list) = succ else {
            unreachable!("index link on non-index node");
        };
        list.insert(slab, sig, target, limit)
    }

    /// Links `new` after `cursor`, consuming it: an entry key moves into
    /// the entry table instead of being copied.
    fn link(&mut self, cursor: Cursor, new: NodeId) {
        match cursor {
            Cursor::AtEntry(key) => {
                self.register_entry(key, new);
            }
            // A plain link is only ever (re)written when it is missing or
            // its target was evicted; a shared node's own link never is,
            // so its new link is a copy-on-write addition.
            Cursor::AfterPlain(n) => *self.succ_mut(n, || Succ::None).1 = Succ::One(new),
            Cursor::AfterTest(n, v) => {
                let succ = self.succ_mut(n, || Succ::Tests(TestList::default())).1;
                let Succ::Tests(list) = succ else {
                    unreachable!("test cursor on non-test node");
                };
                if list.insert(v, new) {
                    let bytes = varint_len(zigzag(v)) as u64 + 4;
                    self.charge(n.gen, bytes);
                }
            }
            Cursor::AfterIndex(n, key, sig) => {
                if self.index_insert(n, &sig, new) {
                    let bytes = key.len() as u64 + 4;
                    self.charge(n.gen, bytes);
                }
                self.register_entry(key, new);
                self.spare_sig = sig;
            }
        }
    }

    /// Registers `key -> node` in this cache's own table. A key the
    /// installed image registers is refused: the image's registration
    /// is pinned, so it is the first live one and wins.
    fn register_entry(&mut self, key: Key, node: NodeId) {
        let hash = hash_bytes(key.as_bytes());
        if self.image_entry(hash, key.as_bytes()).is_some() {
            return;
        }
        let bytes = key.len() as u64 + ENTRY_OVERHEAD;
        let gens = &self.gens;
        if self
            .entries
            .insert(hash, key, node, |seq| gens.iter().any(|g| g.seq == seq))
        {
            // Entry bytes are charged to the *target's* generation so an
            // eviction reclaims them along with the nodes they point at.
            self.charge(node.gen, bytes);
            self.stats.entries_created = self.stats.entries_created.saturating_add(1);
        }
    }

    /// Records a plain action at the cursor; advances the cursor.
    pub fn record_plain(&mut self, cursor: &mut Cursor, action: u32, data: &[i64]) -> NodeId {
        let id = self.new_node(action, data, payload_bytes(data), Succ::None);
        let prev = std::mem::replace(cursor, Cursor::AfterPlain(id));
        self.link(prev, id);
        id
    }

    /// Records a dynamic result test that observed `value`; advances the
    /// cursor to the pending `value` branch.
    pub fn record_test(
        &mut self,
        cursor: &mut Cursor,
        action: u32,
        data: &[i64],
        value: i64,
    ) -> NodeId {
        let id = self.new_node(
            action,
            data,
            payload_bytes(data),
            Succ::Tests(TestList::default()),
        );
        let prev = std::mem::replace(cursor, Cursor::AfterTest(id, value));
        self.link(prev, id);
        id
    }

    /// Records an INDEX action computing `next_key` (with dynamic
    /// signature `sig`); advances the cursor to the pending entry link.
    ///
    /// The node is charged `payload` modeled bytes: `data` holds the
    /// action's placeholders followed by its run-time-static key
    /// components as packed key bytes, whose modeled size only the
    /// recorder knows ([`payload_bytes`] of the values they encode).
    pub fn record_index(
        &mut self,
        cursor: &mut Cursor,
        action: u32,
        data: &[i64],
        payload: u64,
        next_key: Key,
        sig: &[i64],
    ) -> NodeId {
        let id = self.new_node(action, data, payload, Succ::Index(IndexList::default()));
        let next = self.index_cursor(id, next_key, sig);
        let prev = std::mem::replace(cursor, next);
        self.link(prev, id);
        id
    }

    /// The cursor after INDEX node `node`, which computed `next_key` with
    /// dynamic signature `sig`. The signature is copied into the buffer
    /// of the last INDEX cursor linked, so steady recording allocates
    /// none.
    pub fn index_cursor(&mut self, node: NodeId, next_key: Key, sig: &[i64]) -> Cursor {
        let mut buf = std::mem::take(&mut self.spare_sig);
        buf.clear();
        buf.extend_from_slice(sig);
        Cursor::AfterIndex(node, next_key, buf)
    }

    /// Links an existing entry as the successor of INDEX node `node`
    /// under dynamic signature `sig`, charging the link like a recorded
    /// one (`key_len` key bytes plus the target) — the hand-off from slow
    /// recording to fast replay, and replay's entry-table fallback, when
    /// the next key is already cached. A no-op if `node` was evicted.
    pub fn link_existing(&mut self, node: NodeId, key_len: usize, sig: &[i64], entry: NodeId) {
        if !self.is_resident(node) {
            return;
        }
        if self.index_insert(node, sig, entry) {
            self.charge(node.gen, key_len as u64 + 4);
        }
    }

    /// Shrinks the per-generation slab offset width (tests only): forces
    /// the rotation-before-overflow path without recording gigabytes.
    #[cfg(test)]
    fn set_offset_limit(&mut self, limit: u32) {
        self.offset_limit = limit;
    }

    // ----- persistence (docs/PERSISTENCE.md) -----

    /// The configured byte capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Exports the cache's recorded behaviour as an immutable image:
    /// the checkpoint half of persistence.
    ///
    /// The export is deterministic for a given cache history: every
    /// resident generation in sequence order (installed ones with their
    /// overlay additions merged in and overlay signatures re-copied into
    /// the exported slab; empty owned ones skipped). Links whose target
    /// is no longer resident are pruned, inline caches are reset to
    /// cold, and entry registrations keep only resident targets — so
    /// every reference in the image resolves within the image. The
    /// entry table lists the installed image's registrations first, in
    /// their order, then this cache's own in slot order, so a cold
    /// cache's export does not depend on how it will be loaded.
    pub fn freeze(&self) -> FrozenGens {
        // `evict_gen` swap-removes, so the vector's order is a history
        // artifact — sort by seq for a canonical image.
        let mut order: Vec<&Generation> = self
            .gens
            .iter()
            .enumerate()
            .filter(|&(i, g)| i < self.pinned || !g.store.nodes.is_empty())
            .map(|(_, g)| g)
            .collect();
        order.sort_unstable_by_key(|g| g.seq);
        let gens = order
            .into_iter()
            .map(|g| {
                let mut slab = g.store.slab.clone();
                let succs: Vec<Succ> = (g.store.succs.iter().enumerate())
                    .map(|(idx, base)| {
                        let id = NodeId {
                            gen: g.seq,
                            idx: idx as u32,
                        };
                        self.export_succ(base, self.overlay.get(&id), &mut slab)
                    })
                    .collect();
                Arc::new(GenStorage {
                    seq: g.seq,
                    nodes: g.store.nodes.clone(),
                    succs,
                    slab,
                })
            })
            .collect();
        let mut entries =
            (self.image.as_ref()).map_or_else(ImageEntries::default, |image| image.entries.clone());
        for slot in &self.entries.slots {
            if slot.node == EntryTable::VACANT {
                continue;
            }
            let id = NodeId {
                gen: slot.gen,
                idx: slot.node,
            };
            if self.is_resident(id) {
                entries
                    .insert(slot.key.as_bytes(), id)
                    .expect("the image's keys and the cache's own are distinct");
            }
        }
        let mut image = FrozenGens {
            gens,
            entries,
            bytes: 0,
        };
        // A nominal in-memory size so warm-start accounting is non-zero
        // even for images shared without touching disk; the snapshot
        // codec overwrites this with the serialized payload size.
        image.bytes = image_bytes(&image);
        image
    }

    /// One successor record for [`freeze`](Self::freeze): `base` with
    /// stale targets pruned (order is kept, so sorted lists stay sorted),
    /// merged with the overlay additions `ov`, whose INDEX signatures are
    /// re-copied into `slab` (the exported generation's slab, of which the
    /// base slab is a prefix, so base ranges stay valid). Inline caches
    /// reset to cold.
    fn export_succ(&self, base: &Succ, ov: Option<&Succ>, slab: &mut Vec<i64>) -> Succ {
        let live = |n: NodeId| self.is_resident(n);
        match (base, ov) {
            // The overlay only ever fills a `None` base.
            (&Succ::One(n), _) | (Succ::None, Some(&Succ::One(n))) if live(n) => Succ::One(n),
            (Succ::Tests(list), ov) => {
                let mut items: Vec<(i64, NodeId)> = list
                    .items
                    .iter()
                    .copied()
                    .filter(|&(_, n)| live(n))
                    .collect();
                if let Some(Succ::Tests(ov)) = ov {
                    for &(v, n) in &ov.items {
                        if live(n) && !items.iter().any(|&(bv, _)| bv == v) {
                            items.push((v, n));
                        }
                    }
                }
                if items.len() > LINEAR_MAX {
                    items.sort_unstable_by_key(|&(v, _)| v);
                }
                Succ::Tests(TestList { items, hot: 0 })
            }
            (Succ::Index(list), ov) => {
                let mut items: Vec<(SlabRange, NodeId)> = list
                    .items
                    .iter()
                    .copied()
                    .filter(|&(_, n)| live(n))
                    .collect();
                if let Some(Succ::Index(ov)) = ov {
                    for &(r, n) in &ov.items {
                        let sig = range_of(&self.overlay_slab, r);
                        if live(n) && !items.iter().any(|&(br, _)| range_of(slab, br) == sig) {
                            items.push((
                                SlabRange {
                                    off: slab.len() as u32,
                                    len: r.len,
                                },
                                n,
                            ));
                            slab.extend_from_slice(sig);
                        }
                    }
                }
                if items.len() > LINEAR_MAX {
                    items.sort_unstable_by(|&(a, _), &(b, _)| {
                        range_of(slab, a).cmp(range_of(slab, b))
                    });
                }
                Succ::Index(IndexList { items, hot: 0 })
            }
            _ => Succ::None,
        }
    }

    /// Installs an image's generations as shared, pinned generations of
    /// this cache: the warm-start half of persistence. Only legal on a
    /// cache that has never recorded — the recording generation is
    /// renumbered above the image so sequence numbers stay globally
    /// unique. The cost is one shared generation per image generation:
    /// the image's entry table is probed in place, not copied.
    ///
    /// # Errors
    ///
    /// A static description when a snapshot is already installed, the
    /// cache has recorded state, or the image's sequence numbers exceed
    /// [`MAX_IMAGE_SEQ`].
    pub fn install_frozen(&mut self, snap: Arc<FrozenGens>) -> Result<(), &'static str> {
        if self.image.is_some() {
            return Err("a snapshot is already installed");
        }
        if self.stats.nodes_created != 0 || self.entries.len != 0 {
            return Err("cache is not empty");
        }
        if let Some(max_seq) = snap.max_seq() {
            if max_seq > MAX_IMAGE_SEQ {
                return Err("snapshot sequence space exhausted");
            }
            self.next_seq = max_seq + 1;
            let seq = self.fresh_seq();
            self.gens = (snap.gens.iter())
                .map(|s| Generation {
                    seq: s.seq,
                    store: Storage::Shared(Arc::clone(s)),
                    bytes: 0,
                    last_touch: Cell::new(0),
                })
                .collect();
            self.pinned = self.gens.len();
            self.gens.push(Generation::owned(seq, self.touch.get()));
            self.cur = self.pinned;
            self.hot_gen.set(0);
        }
        let (bytes, gens, nodes, entries) = (
            snap.bytes(),
            snap.generation_count() as u64,
            snap.node_count() as u64,
            snap.entry_count() as u64,
        );
        self.stats.bytes_frozen = bytes;
        self.stats.frozen_gens = gens;
        self.image = Some(snap);
        if self.obs.enabled() {
            self.obs.emit(TraceEvent::SnapshotLoad {
                bytes,
                gens,
                nodes,
                entries,
            });
        }
        Ok(())
    }
}

/// Modeled size of recorded values (paper Table 2): each costs its
/// zig-zag varint encoding, as a compressed key would store it.
pub fn payload_bytes(vals: &[i64]) -> u64 {
    vals.iter().map(|&v| varint_len(zigzag(v)) as u64).sum()
}

/// Nominal in-memory size of an image (node headers, links, slabs and
/// entry keys), used until the snapshot codec stamps the exact
/// serialized payload size.
fn image_bytes(image: &FrozenGens) -> u64 {
    let mut bytes = 0u64;
    for g in &image.gens {
        bytes += 12 + 8 * g.slab.len() as u64 + 12 * g.nodes.len() as u64;
        for s in &g.succs {
            bytes += match s {
                Succ::None => 1,
                Succ::One(_) => 9,
                Succ::Tests(list) => 5 + 16 * list.items.len() as u64,
                Succ::Index(list) => 5 + 16 * list.items.len() as u64,
            };
        }
    }
    bytes + image.entries.keys.len() as u64 + 12 * image.entries.len() as u64
}

/// Whether range `r` lies inside `slab`.
fn fits(slab: &[i64], r: SlabRange) -> bool {
    r.off as u64 + r.len as u64 <= slab.len() as u64
}

/// Free-function range resolution, usable while a successor list is
/// borrowed from a generation.
fn range_of(slab: &[i64], r: SlabRange) -> &[i64] {
    &slab[r.off as usize..(r.off + r.len) as usize]
}

/// Position of `sig` in an INDEX successor list whose ranges resolve
/// against `slab`: the hot index first, then a linear scan for small
/// lists or a binary search by signature content for large ones.
fn index_position(slab: &[i64], list: &IndexList, sig: &[i64]) -> Option<usize> {
    let hot = list.hot as usize;
    if list.items.get(hot).is_some_and(|&(r, _)| range_of(slab, r) == sig) {
        return Some(hot);
    }
    if list.items.len() <= LINEAR_MAX {
        list.items
            .iter()
            .position(|&(r, _)| range_of(slab, r) == sig)
    } else {
        list.items
            .binary_search_by(|&(r, _)| range_of(slab, r).cmp(sig))
            .ok()
    }
}

impl Default for ActionCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyWriter;

    fn key(v: i64) -> Key {
        let mut w = KeyWriter::new();
        w.scalar(v);
        w.finish()
    }

    /// `link_existing` from an INDEX cursor, as the engine calls it.
    fn link_after(c: &mut ActionCache, cursor: &Cursor, entry: NodeId) {
        let Cursor::AfterIndex(n, key, sig) = cursor else {
            panic!("cursor should be after index");
        };
        c.link_existing(*n, key.len(), sig, entry);
    }

    fn assert_bytes_invariant(c: &ActionCache) {
        let s = c.stats();
        assert_eq!(
            s.bytes_total,
            s.bytes_current + s.bytes_cleared + s.bytes_evicted,
            "bytes_total == bytes_current + bytes_cleared + bytes_evicted"
        );
    }

    #[test]
    fn record_and_replay_straight_line() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let a = c.record_plain(&mut cur, 10, &[5]);
        let b = c.record_plain(&mut cur, 11, &[6, 7]);

        let e = c.entry(&key(1)).expect("entry exists");
        assert_eq!(e, a);
        assert_eq!(c.node(e).action, 10);
        assert_eq!(c.node_data(e), &[5]);
        assert_eq!(c.node_data(b), &[6, 7]);
        assert_eq!(c.next_plain(e), Some(b));
        assert_eq!(c.next_plain(b), None);
    }

    #[test]
    fn test_node_multiple_successors() {
        // Record a hit path, then miss path, as in paper §2.2's load.
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let t = c.record_test(&mut cur, 3, &[], 0);
        let hit = c.record_plain(&mut cur, 4, &[]);
        // Second recording of the same test with value 1.
        let mut cur2 = Cursor::AfterTest(t, 1);
        let miss = c.record_plain(&mut cur2, 5, &[]);

        assert_eq!(c.next_test(t, 0), Some(hit));
        assert_eq!(c.next_test(t, 1), Some(miss));
        assert_eq!(c.next_test(t, 18), None);
        assert_eq!(c.next_test_hot(t, 0), Some(hit));
        assert_eq!(c.next_test_hot(t, 18), None);
    }

    #[test]
    fn test_dispatch_beyond_linear_threshold_sorts_and_searches() {
        // More successors than LINEAR_MAX: the list switches to sorted +
        // binary search and must still resolve every value.
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let t = c.record_test(&mut cur, 3, &[], 0);
        let mut nodes = vec![c.record_plain(&mut cur, 100, &[])];
        // Insert values in a scrambled order to exercise sorted insertion.
        for v in [7, -3, 12, 5, 42, -99, 2, 30, 17, 9, -5, 64] {
            let mut cur2 = Cursor::AfterTest(t, v);
            nodes.push(c.record_plain(&mut cur2, 100 + v.unsigned_abs() as u32, &[]));
        }
        assert_eq!(c.next_test(t, 0), Some(nodes[0]));
        for (i, v) in [7, -3, 12, 5, 42, -99, 2, 30, 17, 9, -5, 64].iter().enumerate() {
            assert_eq!(c.next_test_hot(t, *v), Some(nodes[i + 1]), "value {v}");
            // Hot hit on repeat.
            assert_eq!(c.next_test_hot(t, *v), Some(nodes[i + 1]), "value {v} (hot)");
        }
        assert_eq!(c.next_test(t, 1000), None);
    }

    #[test]
    fn index_chains_entries() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur, 99, &[], 0, key(2), &[2]);
        // Next step's first action registers entry for key(2) and links
        // the dynamic signature locally.
        let e2 = c.record_plain(&mut cur, 7, &[]);
        assert_eq!(c.entry(&key(2)), Some(e2));
        assert_eq!(c.next_index_local(idx, &[2]), Some(e2));
        assert_eq!(c.next_index_local_hot(idx, &[2]), Some(e2));
        // Unknown signature has no local link.
        assert_eq!(c.next_index_local(idx, &[3]), None);
    }

    #[test]
    fn index_dispatch_beyond_linear_threshold() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur, 99, &[], 0, key(1000), &[1000]);
        let first = c.record_plain(&mut cur, 1, &[]);
        assert_eq!(c.next_index_local(idx, &[1000]), Some(first));
        let mut targets = Vec::new();
        for v in [9i64, 3, 27, 81, 1, 55, 13, 7, 99, 41, 2, 68] {
            let mut cur2 = Cursor::AfterIndex(idx, key(v), vec![v, v + 1]);
            targets.push((v, c.record_plain(&mut cur2, 50 + v as u32, &[])));
        }
        for (v, n) in &targets {
            assert_eq!(c.next_index_local_hot(idx, &[*v, *v + 1]), Some(*n), "sig {v}");
            assert_eq!(c.next_index_local_hot(idx, &[*v, *v + 1]), Some(*n), "sig {v} hot");
        }
        assert_eq!(c.next_index_local(idx, &[1000]), Some(first));
        assert_eq!(c.next_index_local(idx, &[10_000]), None);
    }

    #[test]
    fn index_fallback_to_entry_table() {
        let mut c = ActionCache::new();
        // Entry for key 2 recorded via a different path.
        let mut cur_a = Cursor::AtEntry(key(2));
        let e2 = c.record_plain(&mut cur_a, 1, &[]);
        // An index node that never locally linked key 2: the engine
        // falls back to the entry table by (re)building the key.
        let mut cur_b = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur_b, 99, &[], 0, key(9), &[9]);
        assert_eq!(c.next_index_local(idx, &[2]), None);
        assert_eq!(c.entry(&key(2)), Some(e2));
        assert_eq!(c.entry_bytes(key(2).as_bytes()), Some(e2));
    }

    #[test]
    fn link_existing_creates_local_shortcut() {
        let mut c = ActionCache::new();
        let mut cur_a = Cursor::AtEntry(key(2));
        let e2 = c.record_plain(&mut cur_a, 1, &[]);
        let mut cur_b = Cursor::AtEntry(key(1));
        c.record_index(&mut cur_b, 99, &[], 0, key(2), &[2]);
        link_after(&mut c, &cur_b, e2);
        let Cursor::AfterIndex(idx, _, _) = cur_b else {
            panic!("cursor should be after index");
        };
        assert_eq!(c.next_index_local(idx, &[2]), Some(e2));
        if let Succ::Index(list) = c.succ(idx) {
            assert_eq!(list.len(), 1);
        } else {
            panic!("index successors expected");
        }
        // Idempotent: a second link of the same signature is a no-op.
        let stats_before = c.stats();
        link_after(&mut c, &cur_b, e2);
        if let Succ::Index(list) = c.succ(idx) {
            assert_eq!(list.len(), 1);
        } else {
            panic!("index successors expected");
        }
        assert_eq!(c.stats(), stats_before);
    }

    #[test]
    fn byte_accounting_and_capacity() {
        let mut c = ActionCache::with_capacity(100);
        let mut cur = Cursor::AtEntry(key(1));
        assert!(!c.over_capacity());
        for i in 0..20 {
            c.record_plain(&mut cur, i, &[i as i64, -(i as i64)]);
        }
        assert!(c.over_capacity());
        let before = c.stats();
        assert!(before.bytes_total >= before.bytes_current);
        c.clear();
        let after = c.stats();
        assert_eq!(after.bytes_current, 0);
        assert_eq!(after.clears, 1);
        assert_eq!(after.bytes_total, before.bytes_total, "total is monotonic");
        assert_eq!(c.entry(&key(1)), None);
        assert_ne!(c.stats().clears, 0);
        assert_bytes_invariant(&c);
    }

    #[test]
    fn small_values_cost_one_byte() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        c.record_plain(&mut cur, 0, &[1, 2, 3]);
        // 8 overhead + 3 single-byte varints + entry (1-byte key + 16).
        assert_eq!(c.stats().bytes_current, 8 + 3 + 1 + 16);
    }

    #[test]
    fn duplicate_entry_registration_is_idempotent() {
        let mut c = ActionCache::new();
        let mut cur1 = Cursor::AtEntry(key(1));
        let a = c.record_plain(&mut cur1, 0, &[]);
        let mut cur2 = Cursor::AtEntry(key(1));
        let _b = c.record_plain(&mut cur2, 0, &[]);
        // First registration wins; stats count one entry.
        assert_eq!(c.entry(&key(1)), Some(a));
        assert_eq!(c.stats().entries_created, 1);
    }

    #[test]
    fn entry_table_survives_growth() {
        let mut c = ActionCache::new();
        let mut expected = Vec::new();
        for i in 0..1000 {
            let mut cur = Cursor::AtEntry(key(i));
            expected.push((i, c.record_plain(&mut cur, 0, &[])));
        }
        assert_eq!(c.entry_count(), 1000);
        for (i, n) in expected {
            assert_eq!(c.entry(&key(i)), Some(n), "key {i}");
        }
        assert_eq!(c.entry(&key(1_000_000)), None);
    }

    #[test]
    fn clear_accounts_released_bytes() {
        let mut c = ActionCache::with_capacity(50);
        let mut cur = Cursor::AtEntry(key(1));
        for i in 0..10 {
            c.record_plain(&mut cur, i, &[1]);
        }
        let before = c.stats();
        c.clear();
        let mut cur2 = Cursor::AtEntry(key(2));
        c.record_plain(&mut cur2, 0, &[2]);
        let after = c.stats();
        assert_eq!(after.bytes_cleared, before.bytes_current);
        assert_bytes_invariant(&c);
    }

    #[test]
    fn clear_resets_entry_lookups() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(7));
        let idx = c.record_index(&mut cur, 9, &[], 0, key(8), &[8]);
        c.record_plain(&mut cur, 1, &[4]);
        c.clear();
        assert_eq!(c.entry(&key(7)), None);
        assert_eq!(c.entry(&key(8)), None);
        assert_eq!(c.node_count(), 0);
        // Recording works again from scratch.
        let mut cur2 = Cursor::AtEntry(key(7));
        let a = c.record_plain(&mut cur2, 2, &[1]);
        assert_eq!(c.entry(&key(7)), Some(a));
        // Pre-clear ids never resolve again: sequence numbers don't recur.
        assert!(!c.is_resident(idx));
    }

    #[test]
    fn clear_announces_itself_to_the_observer() {
        use facile_obs::{ObsConfig, ObsHandle, TraceEvent};
        let mut c = ActionCache::new();
        let obs = ObsHandle::new(ObsConfig::default());
        c.set_obs(obs.clone());
        let mut cur = Cursor::AtEntry(key(1));
        c.record_plain(&mut cur, 0, &[1, 2]);
        c.clear();
        let events = obs.drain_events();
        assert_eq!(events.len(), 1);
        match events[0] {
            TraceEvent::CacheClear { bytes, nodes, clears } => {
                assert!(bytes > 0);
                assert_eq!(nodes, 1);
                assert_eq!(clears, 1);
            }
            other => panic!("expected CacheClear, got {other:?}"),
        }
        assert_eq!(obs.metrics().unwrap().cache_clears, 1);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut c = ActionCache::with_capacity(50);
        let mut cur = Cursor::AtEntry(key(1));
        for i in 0..10 {
            c.record_plain(&mut cur, i, &[1]);
        }
        let peak = c.stats().bytes_peak;
        c.clear();
        assert_eq!(c.stats().bytes_peak, peak);
    }

    #[test]
    fn peak_tracks_test_and_index_link_growth() {
        // Regression: `bytes_current` grown on the AfterTest/AfterIndex
        // and link_existing paths must raise `bytes_peak` too.
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let t = c.record_test(&mut cur, 0, &[], 0);
        c.record_plain(&mut cur, 1, &[]);
        let mut cur2 = Cursor::AfterTest(t, 1);
        c.record_plain(&mut cur2, 2, &[]);
        assert_eq!(
            c.stats().bytes_peak,
            c.stats().bytes_current,
            "peak lags current after AfterTest link"
        );

        let mut cur3 = Cursor::AtEntry(key(5));
        c.record_index(&mut cur3, 3, &[], 0, key(6), &[6]);
        c.record_plain(&mut cur3, 4, &[]);
        assert_eq!(
            c.stats().bytes_peak,
            c.stats().bytes_current,
            "peak lags current after AfterIndex link"
        );

        // link_existing growth path.
        let mut cur4 = Cursor::AtEntry(key(9));
        let e9 = c.record_plain(&mut cur4, 5, &[]);
        let mut cur5 = Cursor::AtEntry(key(10));
        c.record_index(&mut cur5, 6, &[], 0, key(9), &[9]);
        link_after(&mut c, &cur5, e9);
        assert_eq!(
            c.stats().bytes_peak,
            c.stats().bytes_current,
            "peak lags current after link_existing"
        );
    }

    #[test]
    fn slab_ranges_are_stable_across_growth() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let mut ids = Vec::new();
        for i in 0..200i64 {
            ids.push(c.record_plain(&mut cur, i as u32, &[i, i * 2, i * 3]));
        }
        for (i, id) in ids.iter().enumerate() {
            let i = i as i64;
            assert_eq!(c.node_data(*id), &[i, i * 2, i * 3]);
        }
    }

    // ----- generational policy -----

    /// Records `steps` straight-line entries keyed 0..steps, returning
    /// the ids.
    fn record_entries(c: &mut ActionCache, steps: i64) -> Vec<NodeId> {
        (0..steps)
            .map(|i| {
                let mut cur = Cursor::AtEntry(key(i));
                c.record_plain(&mut cur, i as u32, &[i, i + 1])
            })
            .collect()
    }

    #[test]
    fn generational_reclaim_keeps_hot_entries() {
        let mut c = ActionCache::with_policy(Some(600), CachePolicy::Generational);
        let ids = record_entries(&mut c, 100);
        assert!(c.over_capacity());
        assert!(c.generation_count() > 1, "budget forces rotation");
        // Touch the most recent entries so the oldest generations are
        // the cold ones.
        for i in 95..100 {
            assert!(c.entry(&key(i)).is_some());
        }
        let survived = c.reclaim(&Cursor::AtEntry(key(1000)));
        assert!(survived, "generational reclaim never invalidates cursors");
        assert!(!c.over_capacity());
        let s = c.stats();
        assert!(s.evictions > 0, "something was evicted");
        assert!(s.bytes_evicted > 0);
        assert_eq!(s.clears, 0, "no wholesale clear");
        assert_bytes_invariant(&c);
        // The touched (hot) tail survived; the cold head is gone.
        for i in 95..100 {
            assert!(c.entry(&key(i)).is_some(), "hot entry {i} survived");
        }
        assert!(
            ids.iter().any(|&id| !c.is_resident(id)),
            "cold nodes were evicted"
        );
        assert!(
            ids.iter().any(|&id| c.is_resident(id)),
            "eviction is partial, not wholesale"
        );
    }

    #[test]
    fn reclaim_pins_the_cursor_generation() {
        let mut c = ActionCache::with_policy(Some(200), CachePolicy::Generational);
        // Record until well over capacity; keep the last node as the
        // recording cursor's attachment point.
        let mut cur = Cursor::AtEntry(key(0));
        let mut last = c.record_plain(&mut cur, 0, &[0]);
        for i in 1..200 {
            if i % 10 == 0 {
                // Separate entries so generations are severable.
                cur = Cursor::AtEntry(key(i));
                last = c.record_plain(&mut cur, i as u32, &[i]);
            } else {
                last = c.record_plain(&mut cur, i as u32, &[i]);
            }
        }
        assert!(c.over_capacity());
        let survived = c.reclaim(&cur);
        assert!(survived);
        assert!(
            c.is_resident(last),
            "the cursor's generation must be pinned"
        );
        // Recording can continue seamlessly through the old cursor.
        let next = c.record_plain(&mut cur, 999, &[1]);
        assert_eq!(c.next_plain(last), Some(next));
        assert_bytes_invariant(&c);
    }

    #[test]
    fn stale_links_read_as_misses_and_can_be_rerecorded() {
        let mut c = ActionCache::with_policy(Some(10_000), CachePolicy::Generational);
        // Entry A (gen 0) --INDEX--> entry B. Then force B's generation
        // out and check the INDEX link reads as a miss, the entry lookup
        // misses, and re-recording B heals both.
        let mut cur = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur, 5, &[], 0, key(2), &[2]);
        // Rotate so B lands in its own generation.
        c.rotate();
        let b = c.record_plain(&mut cur, 6, &[42]);
        assert_eq!(c.next_index_local(idx, &[2]), Some(b));
        assert_eq!(c.entry(&key(2)), Some(b));
        // Evict B's generation (A's generation is current? No: cur is
        // B's. Rotate again so B's gen is evictable, then evict it.)
        c.rotate();
        let b_slot = c.gen_slot(b.gen).unwrap();
        c.evict_gen(b_slot);
        assert!(!c.is_resident(b));
        assert!(c.is_resident(idx));
        // Stale INDEX link and entry read as ordinary misses.
        assert_eq!(c.next_index_local(idx, &[2]), None);
        assert_eq!(c.next_index_local_hot(idx, &[2]), None);
        assert_eq!(c.entry(&key(2)), None);
        assert_bytes_invariant(&c);
        // Re-record B through the same cursor shape the engine would use.
        let mut cur2 = Cursor::AfterIndex(idx, key(2), vec![2]);
        let b2 = c.record_plain(&mut cur2, 6, &[42]);
        assert_eq!(c.next_index_local(idx, &[2]), Some(b2));
        assert_eq!(c.entry(&key(2)), Some(b2));
        assert_bytes_invariant(&c);
    }

    #[test]
    fn stale_plain_and_test_links_are_rerecordable() {
        let mut c = ActionCache::with_policy(Some(10_000), CachePolicy::Generational);
        let mut cur = Cursor::AtEntry(key(1));
        let a = c.record_plain(&mut cur, 1, &[]);
        let t = c.record_test(&mut cur, 2, &[], 7);
        c.rotate();
        let tail = c.record_plain(&mut cur, 3, &[]);
        assert_eq!(c.next_test(t, 7), Some(tail));
        // Evict the tail's generation.
        c.rotate();
        let slot = c.gen_slot(tail.gen).unwrap();
        c.evict_gen(slot);
        assert_eq!(c.next_test(t, 7), None, "stale test link is a miss");
        assert_eq!(c.next_test_hot(t, 7), None);
        // Re-record over the stale pair: no duplicate, target replaced.
        let mut cur2 = Cursor::AfterTest(t, 7);
        let tail2 = c.record_plain(&mut cur2, 3, &[]);
        assert_eq!(c.next_test(t, 7), Some(tail2));
        if let Succ::Tests(list) = c.succ(t) {
            assert_eq!(list.len(), 1, "replaced in place, not duplicated");
        } else {
            panic!("test successors expected");
        }
        // Same story for a plain link: a fresh pair recorded across a
        // generation boundary, then the successor's generation evicted.
        let _ = a;
        c.rotate();
        let mut cur3 = Cursor::AtEntry(key(2));
        let p = c.record_plain(&mut cur3, 4, &[]);
        c.rotate();
        let q = c.record_plain(&mut cur3, 5, &[]);
        assert_eq!(c.next_plain(p), Some(q));
        c.rotate();
        let q_slot = c.gen_slot(q.gen).unwrap();
        c.evict_gen(q_slot);
        assert_eq!(c.next_plain(p), None, "stale plain link is a miss");
        let mut cur4 = Cursor::AfterPlain(p);
        let q2 = c.record_plain(&mut cur4, 5, &[]);
        assert_eq!(c.next_plain(p), Some(q2));
        assert_bytes_invariant(&c);
    }

    #[test]
    fn eviction_announces_itself_to_the_observer() {
        use facile_obs::{ObsConfig, ObsHandle, TraceEvent};
        let mut c = ActionCache::with_policy(Some(300), CachePolicy::Generational);
        let obs = ObsHandle::new(ObsConfig::default());
        c.set_obs(obs.clone());
        record_entries(&mut c, 60);
        assert!(c.over_capacity());
        assert!(c.reclaim(&Cursor::AtEntry(key(1_000))));
        let events = obs.drain_events();
        let evicts: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CacheEvict { .. }))
            .collect();
        assert!(!evicts.is_empty(), "evictions emit CacheEvict events");
        match evicts[0] {
            TraceEvent::CacheEvict { bytes, nodes, .. } => {
                assert!(*bytes > 0);
                assert!(*nodes > 0);
            }
            _ => unreachable!(),
        }
        let m = obs.metrics().unwrap();
        assert_eq!(m.cache_evictions, c.stats().evictions);
        assert_eq!(m.bytes_evicted, c.stats().bytes_evicted);
        assert_eq!(m.cache_clears, 0);
    }

    #[test]
    fn clear_policy_reclaim_clears_wholesale() {
        let mut c = ActionCache::with_capacity(100);
        record_entries(&mut c, 20);
        assert!(c.over_capacity());
        let survived = c.reclaim(&Cursor::AtEntry(key(999)));
        assert!(!survived, "clear-on-full invalidates the cursor");
        assert_eq!(c.stats().clears, 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.node_count(), 0);
        assert_bytes_invariant(&c);
    }

    #[test]
    fn tiny_offset_width_rotates_instead_of_truncating() {
        // Regression for the unchecked `slab.len() as u32` casts: with an
        // artificially small offset width, recording must rotate to fresh
        // generations and keep every node's data intact instead of
        // silently wrapping offsets.
        let mut c = ActionCache::new();
        c.set_offset_limit(16);
        let mut cur = Cursor::AtEntry(key(1));
        let mut ids = Vec::new();
        for i in 0..100i64 {
            ids.push(c.record_plain(&mut cur, i as u32, &[i, i * 3, i * 5]));
        }
        assert!(
            c.generation_count() > 10,
            "tiny offset width forces rotations (got {})",
            c.generation_count()
        );
        for (i, id) in ids.iter().enumerate() {
            let i = i as i64;
            assert!(c.is_resident(*id), "rotation never evicts");
            assert_eq!(c.node_data(*id), &[i, i * 3, i * 5], "node {i} data intact");
        }
        // The whole chain replays across generation boundaries.
        let mut walk = c.entry(&key(1)).unwrap();
        let mut count = 1;
        while let Some(n) = c.next_plain(walk) {
            walk = n;
            count += 1;
        }
        assert_eq!(count, 100);
        assert_bytes_invariant(&c);
    }

    #[test]
    fn tiny_offset_width_skips_unindexable_sigs_without_losing_entries() {
        // INDEX signatures that no longer fit the owning generation's
        // offset width are not linked locally — but the entry-table
        // fallback still resolves the crossing.
        let mut c = ActionCache::new();
        c.set_offset_limit(8);
        let mut cur = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur, 9, &[1, 2, 3, 4, 5, 6], 6, key(2), &[2]);
        let e2 = c.record_plain(&mut cur, 1, &[]);
        // The sig may or may not have fit locally; the entry always
        // resolves.
        assert_eq!(c.entry(&key(2)), Some(e2));
        let _ = idx;
        assert_bytes_invariant(&c);
    }

    #[test]
    fn entry_table_growth_drops_evicted_registrations() {
        let mut c = ActionCache::with_policy(Some(400), CachePolicy::Generational);
        record_entries(&mut c, 50);
        c.reclaim(&Cursor::AtEntry(key(10_000)));
        let live_before = (0..50).filter(|&i| c.entry(&key(i)).is_some()).count();
        assert!(live_before < 50, "some entries went stale");
        // Force table growth: register many fresh entries.
        record_entries(&mut c, 50); // re-records 0..50 (stale ones re-register)
        for i in 1000..1600 {
            let mut cur = Cursor::AtEntry(key(i));
            c.record_plain(&mut cur, 0, &[]);
        }
        // Every resident registration still resolves.
        for i in 1000..1600 {
            if c.entry(&key(i)).is_none() {
                // May have been evicted again by rotation? No reclaim was
                // called, so everything since the last reclaim is live.
                panic!("fresh entry {i} lost by table growth");
            }
        }
        assert_bytes_invariant(&c);
    }

    #[test]
    fn send_holds_with_touch_cells() {
        const fn assert_send<T: Send>() {}
        assert_send::<ActionCache>();
    }

    // ---- persistence: freeze / install / overlay COW -------------------

    /// A small graph exercising every node flavor: entry → plain →
    /// test (2 branches) and a second entry chained through an INDEX.
    fn record_sample_graph(c: &mut ActionCache) -> (NodeId, NodeId, NodeId) {
        let mut cur = Cursor::AtEntry(key(1));
        let p = c.record_plain(&mut cur, 1, &[10, 20]);
        let t = c.record_test(&mut cur, 2, &[], 0);
        c.record_plain(&mut cur, 3, &[]);
        let mut cur2 = Cursor::AfterTest(t, 5);
        c.record_plain(&mut cur2, 4, &[]);
        let mut cur3 = Cursor::AtEntry(key(2));
        let idx = c.record_index(&mut cur3, 5, &[], 0, key(1), &[7, 8]);
        link_after(c, &cur3, p);
        (p, t, idx)
    }

    #[test]
    fn freeze_and_install_resolve_in_a_fresh_cache() {
        let mut donor = ActionCache::new();
        let (p, t, idx) = record_sample_graph(&mut donor);
        let hit = donor.next_test(t, 0).unwrap();
        let miss = donor.next_test(t, 5).unwrap();

        let image = donor.freeze();
        assert!(image.bytes() > 0, "freeze stamps a nominal size");
        let snap = Arc::new(image);

        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::clone(&snap)).unwrap();
        // The same NodeIds resolve: freeze preserves seq numbers.
        assert_eq!(warm.entry(&key(1)), Some(p));
        assert_eq!(warm.node(p).action, 1);
        assert_eq!(warm.node_data(p), &[10, 20]);
        assert_eq!(warm.next_plain(p), Some(t));
        assert_eq!(warm.next_test(t, 0), Some(hit));
        assert_eq!(warm.next_test_hot(t, 5), Some(miss));
        assert_eq!(warm.next_test(t, 99), None);
        assert_eq!(warm.next_index_local(idx, &[7, 8]), Some(p));
        assert_eq!(warm.next_index_local_hot(idx, &[7, 8]), Some(p));

        // Frozen storage is accounted outside the live byte budget.
        let s = warm.stats();
        assert_eq!(s.bytes_current, 0);
        assert_eq!(s.bytes_frozen, snap.bytes());
        assert_eq!(s.frozen_gens, snap.generation_count() as u64);
        assert_bytes_invariant(&warm);
    }

    #[test]
    fn install_rejects_nonempty_or_double() {
        let mut donor = ActionCache::new();
        record_sample_graph(&mut donor);
        let snap = Arc::new(donor.freeze());

        let mut dirty = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(9));
        dirty.record_plain(&mut cur, 1, &[]);
        assert!(dirty.install_frozen(Arc::clone(&snap)).is_err());

        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::clone(&snap)).unwrap();
        assert!(warm.install_frozen(snap).is_err());
    }

    #[test]
    fn overlay_links_are_private_to_each_installation() {
        let mut donor = ActionCache::new();
        let (p, t, idx) = record_sample_graph(&mut donor);
        // Frozen tail: the branch node after test-value 5 has no successor.
        let tail = donor.next_test(t, 5).unwrap();
        let snap = Arc::new(donor.freeze());

        let mut a = ActionCache::new();
        a.install_frozen(Arc::clone(&snap)).unwrap();
        let mut b = ActionCache::new();
        b.install_frozen(Arc::clone(&snap)).unwrap();

        // Lane A extends the shared image copy-on-write: a plain link
        // off a frozen tail, a new test branch, a new INDEX signature.
        let mut cur = Cursor::AfterPlain(tail);
        let ext = a.record_plain(&mut cur, 6, &[1]);
        assert_eq!(a.next_plain(tail), Some(ext));
        let mut cur2 = Cursor::AfterTest(t, 42);
        let branch = a.record_plain(&mut cur2, 7, &[]);
        assert_eq!(a.next_test(t, 42), Some(branch));
        assert_eq!(a.next_test_hot(t, 42), Some(branch));
        let mut cur3 = Cursor::AfterIndex(idx, key(3), vec![100]);
        let e3 = a.record_plain(&mut cur3, 8, &[]);
        assert_eq!(a.next_index_local(idx, &[100]), Some(e3));
        assert_eq!(a.next_index_local_hot(idx, &[100]), Some(e3));
        // Base links still resolve through the overlay path.
        assert_eq!(a.next_test(t, 0), Some(donor.next_test(t, 0).unwrap()));
        assert_eq!(a.next_index_local(idx, &[7, 8]), Some(p));
        assert_bytes_invariant(&a);

        // Lane B shares the same Arc and sees none of lane A's links.
        assert_eq!(b.next_plain(tail), None);
        assert_eq!(b.next_test(t, 42), None);
        assert_eq!(b.next_index_local(idx, &[100]), None);
        // And the frozen image itself is untouched.
        assert_eq!(snap.node_count(), donor.freeze().node_count());
    }

    #[test]
    fn refreeze_merges_overlay_and_live_recordings() {
        let mut donor = ActionCache::new();
        let (_, t, idx) = record_sample_graph(&mut donor);
        let tail = donor.next_test(t, 5).unwrap();
        let snap = Arc::new(donor.freeze());

        let mut warm = ActionCache::new();
        warm.install_frozen(snap).unwrap();
        let mut cur = Cursor::AfterPlain(tail);
        let ext = warm.record_plain(&mut cur, 6, &[9]);
        let mut cur3 = Cursor::AfterIndex(idx, key(3), vec![100, 101]);
        let e3 = warm.record_plain(&mut cur3, 8, &[]);

        // Re-freezing folds the overlay into the exported base.
        let merged = Arc::new(warm.freeze());
        let mut next = ActionCache::new();
        next.install_frozen(merged).unwrap();
        assert_eq!(next.next_plain(tail), Some(ext));
        assert_eq!(next.next_test(t, 0), Some(donor.next_test(t, 0).unwrap()));
        assert_eq!(next.next_index_local(idx, &[7, 8]), donor.next_index_local(idx, &[7, 8]));
        assert_eq!(next.next_index_local(idx, &[100, 101]), Some(e3));
        assert_eq!(next.entry(&key(3)), Some(e3));
        assert_bytes_invariant(&next);
    }

    #[test]
    fn clear_keeps_the_frozen_image_but_drops_the_overlay() {
        let mut donor = ActionCache::new();
        let (p, t, _) = record_sample_graph(&mut donor);
        let tail = donor.next_test(t, 5).unwrap();
        let snap = Arc::new(donor.freeze());

        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::clone(&snap)).unwrap();
        let mut cur = Cursor::AfterPlain(tail);
        warm.record_plain(&mut cur, 6, &[]);
        assert!(warm.next_plain(tail).is_some());

        warm.clear();
        // The image's entry table is untouched; its graph still resolves.
        assert_eq!(warm.entry(&key(1)), Some(p));
        assert_eq!(warm.next_plain(p), Some(t));
        // The overlay link's target went stale with the clear.
        assert_eq!(warm.next_plain(tail), None);
        let s = warm.stats();
        assert_eq!(s.bytes_frozen, snap.bytes());
        assert_eq!(s.bytes_current, 0);
        assert_bytes_invariant(&warm);
    }

    #[test]
    fn image_entries_win_and_export_first() {
        let mut donor = ActionCache::new();
        let (p, _, _) = record_sample_graph(&mut donor);
        let snap = Arc::new(donor.freeze());
        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::clone(&snap)).unwrap();
        // Recording a key the image registers is refused.
        warm.record_plain(&mut Cursor::AtEntry(key(1)), 9, &[]);
        assert_eq!(warm.entry(&key(1)), Some(p));
        assert_eq!(warm.stats().entries_created, 0);
        assert_eq!(warm.entry_count(), 0);
        // A fresh key is the cache's own, exported after the image's.
        let e3 = warm.record_plain(&mut Cursor::AtEntry(key(3)), 9, &[]);
        let refrozen = warm.freeze();
        let image: Vec<_> = snap.entries().iter().collect();
        let exported: Vec<_> = refrozen.entries().iter().collect();
        assert_eq!(exported[..image.len()], image[..]);
        assert_eq!(exported[image.len()..], [(key(3).as_bytes(), e3)]);
    }

    /// A node header with no data.
    fn bare(action: u32) -> Node {
        Node {
            action,
            data: SlabRange::EMPTY,
        }
    }

    /// A one-generation image of `succs.len()` bare nodes, through the
    /// builder.
    fn one_gen(slab: Vec<i64>, succs: Vec<Succ>) -> Result<FrozenGens, String> {
        let mut b = FrozenGensBuilder::new();
        let nodes = succs.iter().map(|_| bare(0)).collect();
        b.push_gen(0, slab, nodes, succs)?;
        b.finish(16)
    }

    #[test]
    fn builder_validates_structure() {
        let tests = |items| Succ::Tests(TestList::from_items(items));
        let index = |items| Succ::Index(IndexList::from_items(items));

        // Non-increasing generation sequence.
        let mut b = FrozenGensBuilder::new();
        b.push_gen(3, vec![], vec![], vec![]).unwrap();
        assert!(b.push_gen(3, vec![], vec![], vec![]).is_err());

        // A successor list missing, or one too many.
        let mut b = FrozenGensBuilder::new();
        assert!(b.push_gen(0, vec![], vec![bare(0)], vec![]).is_err());
        assert!(b.push_gen(0, vec![], vec![], vec![Succ::None]).is_err());

        // Node data range past the slab.
        let mut b = FrozenGensBuilder::new();
        let long = Node {
            action: 0,
            data: SlabRange::new(1, 2),
        };
        assert!(b
            .push_gen(0, vec![1, 2], vec![long], vec![Succ::None])
            .is_err());

        // INDEX signature range past the slab.
        let far = NodeId::from_parts(0, 0);
        assert!(one_gen(vec![1], vec![index(vec![(SlabRange::new(0, 2), far)])]).is_err());

        // Link target out of bounds within the snapshot.
        assert!(one_gen(vec![], vec![Succ::One(NodeId::from_parts(0, 7))]).is_err());

        // Link target in a generation outside the snapshot, earlier or
        // later than its source.
        let mut b = FrozenGensBuilder::new();
        b.push_gen(1, vec![], vec![bare(0)], vec![Succ::None])
            .unwrap();
        let back = Succ::One(NodeId::from_parts(0, 0));
        assert!(b.push_gen(2, vec![], vec![bare(0)], vec![back]).is_err());
        let mut b = FrozenGensBuilder::new();
        let ahead = Succ::One(NodeId::from_parts(9, 0));
        b.push_gen(0, vec![], vec![bare(0)], vec![ahead]).unwrap();
        assert!(b.finish(16).is_err());

        // Entry target out of bounds.
        let mut b = FrozenGensBuilder::new();
        b.push_gen(0, vec![], vec![bare(0)], vec![Succ::None])
            .unwrap();
        b.push_entry(key(1).as_bytes(), NodeId::from_parts(0, 1))
            .unwrap();
        assert!(b.finish(16).is_err());

        // The same entry key twice: a save never writes one.
        let mut b = FrozenGensBuilder::new();
        let entry = NodeId::from_parts(0, 0);
        b.push_entry(key(1).as_bytes(), entry).unwrap();
        assert!(b.push_entry(key(1).as_bytes(), entry).is_err());

        // Action number at or past the step's action count.
        let mut b = FrozenGensBuilder::new();
        b.push_gen(0, vec![], vec![bare(16)], vec![Succ::None])
            .unwrap();
        assert!(b.finish(16).is_err());

        // Duplicate test values in a beyond-linear list.
        let next = NodeId::from_parts(0, 1);
        let dups: Vec<(i64, NodeId)> = (0..=LINEAR_MAX as i64).map(|_| (7, next)).collect();
        assert!(one_gen(vec![], vec![tests(dups), Succ::None]).is_err());

        // Plain and test links must point forward: a link back to an
        // earlier node (or to itself) could loop replay inside a step.
        for succ in [
            Succ::One(NodeId::from_parts(0, 0)),
            Succ::One(NodeId::from_parts(0, 1)),
            tests(vec![(1, NodeId::from_parts(0, 0))]),
        ] {
            assert!(one_gen(vec![], vec![Succ::None, succ]).is_err());
        }
        // A link into a later generation is forward, and resolves once
        // that generation arrives.
        let mut b = FrozenGensBuilder::new();
        let ahead = Succ::One(NodeId::from_parts(1, 0));
        b.push_gen(0, vec![], vec![bare(0)], vec![ahead]).unwrap();
        b.push_gen(1, vec![], vec![bare(0)], vec![Succ::None])
            .unwrap();
        assert!(b.finish(16).is_ok());
        // INDEX links cross steps, so they may point anywhere.
        let sig = index(vec![(SlabRange::new(0, 1), NodeId::from_parts(0, 0))]);
        assert!(one_gen(vec![5], vec![sig]).is_ok());
    }

    #[test]
    fn install_bounds_the_image_sequence_space() {
        for (seq, fits) in [(MAX_IMAGE_SEQ, true), (MAX_IMAGE_SEQ + 1, false)] {
            let mut b = FrozenGensBuilder::new();
            b.push_gen(seq, vec![], vec![], vec![]).unwrap();
            let image = Arc::new(b.finish(16).unwrap());
            let mut c = ActionCache::new();
            assert_eq!(c.install_frozen(image).is_ok(), fits, "seq {seq}");
            // Either way the cache keeps recording with fresh numbers.
            let n = c.record_plain(&mut Cursor::AtEntry(key(1)), 0, &[]);
            assert!(c.is_resident(n));
        }
    }

    #[test]
    fn builder_roundtrips_a_frozen_image() {
        // Decode-style reconstruction: walk a frozen image through the
        // builder (as the snapshot codec does) and get an equal image.
        let mut donor = ActionCache::new();
        record_sample_graph(&mut donor);
        let image = donor.freeze();

        let mut b = FrozenGensBuilder::new();
        for g in image.gens() {
            let succs = (0..g.nodes().len()).map(|i| g.succ(i).clone()).collect();
            b.push_gen(g.seq(), g.slab().to_vec(), g.nodes().to_vec(), succs)
                .unwrap();
        }
        for (key, n) in image.entries().iter() {
            b.push_entry(key, n).unwrap();
        }
        let rebuilt = b.finish(16).unwrap();
        assert_eq!(rebuilt.generation_count(), image.generation_count());
        assert_eq!(rebuilt.node_count(), image.node_count());
        assert_eq!(rebuilt.entry_count(), image.entry_count());

        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::new(rebuilt)).unwrap();
        assert_eq!(warm.entry(&key(1)), donor.entry(&key(1)));
        assert_eq!(warm.entry(&key(2)), donor.entry(&key(2)));
    }
}
