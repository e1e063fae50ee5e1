#![warn(missing_docs)]

//! Run-time support for fast-forwarding simulators.
//!
//! This crate is compiler-agnostic: it holds the data structures every
//! memoizing simulator in this workspace shares, whether generated by the
//! Facile compiler (`facile-vm`) or written by hand (`fastsim`):
//!
//! * [`cache::ActionCache`] — the *specialized action cache* of the paper
//!   (§2, Figure 2): recorded dynamic actions with placeholder data, one
//!   node per run of plain actions and the test or INDEX ending it,
//!   multi-successor dynamic result tests, INDEX chaining between step
//!   entries, byte accounting and a choice of capacity policy
//!   ([`cache::CachePolicy`]): the paper's clear-on-full, or generational
//!   partial eviction that retires only the coldest storage generations.
//! * [`key`] — compressed (varint) memoization keys.
//! * [`mem`] — the simulated target: immutable text segment, sparse data
//!   memory, program images.
//! * [`stats`] — cycle/instruction counters with per-engine attribution
//!   (the basis of the paper's Table 1).
//!
//! # Examples
//!
//! Recording and replaying a two-action step: a plain action and the
//! dynamic result test that ends its run share one node.
//!
//! ```
//! use facile_runtime::cache::{ActionCache, Cursor};
//! use facile_runtime::key::KeyWriter;
//!
//! let mut w = KeyWriter::new();
//! w.scalar(0x10074);
//! let key = w.finish();
//!
//! let mut cache = ActionCache::new();
//! let mut cursor = Cursor::AtEntry(key.clone());
//! cache.record_plain(&mut cursor, 1, &[6]);      // cycles += 6
//! cache.record_test(&mut cursor, 2, &[], 18);    // cache-miss latency 18
//!
//! // Replay:
//! let entry = cache.entry(&key).unwrap();
//! assert_eq!(cache.node(entry).action, 1);
//! assert_eq!(cache.node_data(entry), &[6, 2]);  // action 2 follows 1's data
//! assert_eq!(cache.next_test(entry, 18), None); // successor not yet recorded
//! ```

pub mod cache;
pub mod key;
pub mod mem;
pub mod rng;
pub mod stats;

pub use cache::{
    ActionCache, CachePolicy, CacheStats, Cursor, FrozenGens, FrozenGensBuilder, GenStorage, Hint,
    Node, NodeId, Succ, Walk, MAX_IMAGE_SEQ,
};
pub use key::{Key, KeyReader, KeyWriter};
pub use mem::{Image, Memory, Target};
pub use rng::Rng;
pub use stats::{Engine, HaltReason, SimStats};
