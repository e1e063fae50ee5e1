//! Memoization keys.
//!
//! A key is the serialized run-time-static input of one simulator step —
//! the arguments of `main` (paper §3.2). Scalars and queue snapshots are
//! encoded with zig-zag varints, which is how the paper's instruction
//! queue ("compressed into fewer than 40 bytes") is reproduced here: small
//! stage/latency values cost one byte each.

use std::fmt;

/// A serialized memoization key.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Key(Vec<u8>);

impl Key {
    /// The encoded byte length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the key is empty (a `main` with no parameters).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// A key owning a copy of already-encoded bytes.
    pub fn from_bytes(bytes: &[u8]) -> Key {
        Key(bytes.to_vec())
    }

    /// Replaces the key's content in place, reusing its allocation — the
    /// replay loop's way to update its current entry key without
    /// allocating once the buffer has warmed up.
    pub fn set_from_bytes(&mut self, bytes: &[u8]) {
        self.0.clear();
        self.0.extend_from_slice(bytes);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key[{}B]", self.0.len())
    }
}

/// Incremental key builder.
///
/// # Examples
///
/// ```
/// use facile_runtime::key::{KeyWriter, KeyReader};
///
/// let mut w = KeyWriter::new();
/// w.scalar(0x10074);
/// w.queue(&[3, -1, 250]);
/// let key = w.finish();
///
/// let mut r = KeyReader::new(&key);
/// assert_eq!(r.scalar(), Some(0x10074));
/// assert_eq!(r.queue(), Some(vec![3, -1, 250]));
/// assert!(r.at_end());
/// ```
#[derive(Default)]
pub struct KeyWriter {
    buf: Vec<u8>,
    /// Staging area for queue elements (the varint length prefix needs
    /// the count first); retained across [`reset`](Self::reset) so a
    /// reused writer stops allocating once warm.
    scratch: Vec<i64>,
}

impl KeyWriter {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one scalar component.
    pub fn scalar(&mut self, v: i64) {
        write_varint(&mut self.buf, zigzag(v));
    }

    /// Appends a queue component: length followed by the elements.
    pub fn queue<'a>(&mut self, items: impl IntoIterator<Item = &'a i64>) {
        self.queue_vals(items.into_iter().copied());
    }

    /// [`queue`](Self::queue) for by-value iterators (e.g. live queue
    /// storage on the replay hot path).
    pub fn queue_vals(&mut self, items: impl IntoIterator<Item = i64>) {
        // The varint length prefix needs the element count up front;
        // stage into the retained scratch buffer.
        self.scratch.clear();
        self.scratch.extend(items);
        write_varint(&mut self.buf, self.scratch.len() as u64);
        for i in 0..self.scratch.len() {
            write_varint(&mut self.buf, zigzag(self.scratch[i]));
        }
    }

    /// Appends bytes `range` of key bytes packed by [`pack_bytes`] —
    /// already-encoded components, copied without decoding them.
    pub fn packed(&mut self, words: &[i64], range: std::ops::Range<usize>) {
        let mut i = range.start;
        while i < range.end {
            let word = words[i / 8].to_le_bytes();
            let (from, to) = (i % 8, (range.end - i + i % 8).min(8));
            self.buf.extend_from_slice(&word[from..to]);
            i += to - from;
        }
    }

    /// Clears the built content, keeping the allocation for reuse.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// The bytes built so far (what [`finish`](Self::finish) would wrap).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Finalizes the key.
    pub fn finish(self) -> Key {
        Key(self.buf)
    }
}

/// Decoder for [`Key`] bytes.
pub struct KeyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> KeyReader<'a> {
    /// Starts reading `key` from the beginning.
    pub fn new(key: &'a Key) -> Self {
        KeyReader {
            buf: &key.0,
            pos: 0,
        }
    }

    /// Reads one scalar component.
    pub fn scalar(&mut self) -> Option<i64> {
        read_varint(self.buf, &mut self.pos).map(unzigzag)
    }

    /// Reads one queue component.
    pub fn queue(&mut self) -> Option<Vec<i64>> {
        let len = self.queue_len()?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(unzigzag(read_varint(self.buf, &mut self.pos)?));
        }
        Some(out)
    }

    /// Reads one queue component, handing each element to `f` in order
    /// instead of collecting them (decoding straight into storage).
    /// Returns the element count.
    pub fn queue_with(&mut self, mut f: impl FnMut(i64)) -> Option<usize> {
        let len = self.queue_len()?;
        for _ in 0..len {
            f(unzigzag(read_varint(self.buf, &mut self.pos)?));
        }
        Some(len)
    }

    /// Reads a queue component's length prefix.
    fn queue_len(&mut self) -> Option<usize> {
        let len = read_varint(self.buf, &mut self.pos)? as usize;
        // Guard against corrupt lengths.
        if len > self.buf.len().saturating_sub(self.pos).saturating_add(1) * 10 {
            return None;
        }
        Some(len)
    }

    /// Whether all bytes have been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Appends `bytes` to `out` packed eight to a word: byte `i` is byte
/// `i % 8` of word `i / 8` in little-endian order, and the last word is
/// padded with zero bytes. The action cache keeps an INDEX node's
/// run-time-static key components this way (docs/PERSISTENCE.md).
pub fn pack_bytes(bytes: &[u8], out: &mut Vec<i64>) {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        out.push(i64::from_le_bytes(word));
    }
}

/// Walks key components stored as packed bytes ([`pack_bytes`]) without
/// decoding their values: it finds where each component ends, so the
/// bytes can be copied into a key as they are. Every step fails with
/// `None` instead of reading past the words.
pub struct PackedReader<'a> {
    words: &'a [i64],
    pos: usize,
}

/// The continuation bit of every byte of a word.
const CONTINUATION: u64 = 0x8080_8080_8080_8080;
/// A 1 in every byte of a word.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;
/// Most bytes one varint may span: a tenth byte that still continues
/// would shift past 64 bits ([`read_varint`] refuses it too).
const VARINT_MAX: usize = 10;

impl<'a> PackedReader<'a> {
    /// Starts at the first byte of `words`.
    pub fn new(words: &'a [i64]) -> Self {
        PackedReader { words, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let word = *self.words.get(self.pos / 8)?;
            let byte = (word >> (8 * (self.pos % 8))) as u8;
            self.pos += 1;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift >= 64 {
                return None;
            }
        }
    }

    /// Steps over `n` varints a word at a time: a byte whose
    /// continuation bit is clear ends one, so a word ends as many as it
    /// has clear bits, and the `n`-th end within a word is found from
    /// running counts of them, one per byte. Fails like
    /// [`varint`](Self::varint) would, on the end of the words or on a
    /// varint longer than [`VARINT_MAX`] bytes.
    fn skip_varints(&mut self, mut n: u64) -> Option<()> {
        // Continuation bytes of the varint in progress.
        let mut run = 0usize;
        while n > 0 {
            let at = self.pos % 8;
            let word = (*self.words.get(self.pos / 8)? as u64) >> (8 * at);
            // 1 in the low bit of each byte that ends a varint.
            let ends = (!word & (CONTINUATION >> (8 * at))) >> 7;
            // Only the varint in progress can be too long: one that
            // starts inside this word and ends in it spans at most 7.
            if run + ends.trailing_zeros() as usize / 8 >= VARINT_MAX {
                return None;
            }
            // Byte k holds how many varints end at or before byte k.
            let counts = ends.wrapping_mul(BYTE_ONES);
            let count = counts >> 56;
            if count >= n {
                // The first byte whose count reaches `n` (counts are at
                // most 8, so no byte borrows from the next).
                let reached = ((counts | CONTINUATION) - n * BYTE_ONES) & CONTINUATION;
                self.pos += reached.trailing_zeros() as usize / 8 + 1;
                return Some(());
            }
            n -= count;
            let avail = 8 - at;
            run = match ends {
                0 => run + avail,
                _ => avail - 1 - (63 - ends.leading_zeros() as usize) / 8,
            };
            self.pos += avail;
        }
        Some(())
    }

    /// Steps over one component: a scalar (one varint) or, if `queue`,
    /// a queue (a varint length and that many varints), one byte at a
    /// time: key rebuilds step over a component or two per call, where
    /// the word walk of [`packed_fits`] does not pay.
    pub fn skip(&mut self, queue: bool) -> Option<()> {
        let n = if queue { self.varint()? } else { 1 };
        for _ in 0..n {
            self.varint()?;
        }
        Some(())
    }

    /// Whether the bytes consumed fill the words exactly: no word is
    /// left unread and every byte after the last one read is zero
    /// padding.
    pub fn at_padded_end(&self) -> bool {
        let (word, byte) = (self.pos / 8, self.pos % 8);
        self.pos.div_ceil(8) == self.words.len()
            && (byte == 0 || self.words[word] >> (8 * byte) == 0)
    }
}

/// Whether `words` hold exactly the packed key bytes ([`pack_bytes`]) of
/// components of the given kinds, in order (`true` a queue, `false` a
/// scalar): each decodes inside the words, and nothing but zero padding
/// follows the last. Only queue lengths are decoded; the varints between
/// two of them are skipped in one run, a word at a time.
pub fn packed_fits(words: &[i64], queues: impl IntoIterator<Item = bool>) -> bool {
    let mut r = PackedReader::new(words);
    // Varints to skip before the next queue length.
    let mut skip = 0u64;
    for queue in queues {
        skip = match queue {
            true => match r.skip_varints(skip).and_then(|()| r.varint()) {
                Some(len) => len,
                None => return false,
            },
            false => skip.saturating_add(1),
        };
    }
    r.skip_varints(skip).is_some() && r.at_padded_end()
}

/// [`packed_fits`] one byte at a time ([`PackedReader::skip`]): the
/// reference the word walk is tested against.
#[cfg(test)]
fn packed_fits_bytewise(words: &[i64], queues: impl IntoIterator<Item = bool>) -> bool {
    let mut r = PackedReader::new(words);
    queues.into_iter().all(|q| r.skip(q).is_some()) && r.at_padded_end()
}

/// Zig-zag encoding maps small-magnitude signed values to small unsigned
/// ones.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// LEB128-style varint append.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// LEB128-style varint read.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// A fast 64-bit hash of key bytes: FxHash-style 8-byte folding with a
/// splitmix64 finalizer. Not SipHash — the action cache's entry table is
/// not exposed to untrusted input, and lookup latency is on the replay
/// hot path.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const FOLD: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ v).wrapping_mul(FOLD).rotate_left(26);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(FOLD).rotate_left(26);
    }
    // splitmix64 finalizer for avalanche.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Encoded size in bytes of one value, used for memoized-data accounting.
pub fn varint_len(v: u64) -> usize {
    let mut v = v;
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x10074] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
    }

    #[test]
    fn zigzag_keeps_small_values_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX, 1 << 42] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_varint_is_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn key_round_trip_mixed() {
        let mut w = KeyWriter::new();
        w.scalar(-5);
        w.queue(&[1, 2, 3]);
        w.scalar(1 << 40);
        w.queue(&[]);
        let key = w.finish();
        let mut r = KeyReader::new(&key);
        assert_eq!(r.scalar(), Some(-5));
        assert_eq!(r.queue(), Some(vec![1, 2, 3]));
        assert_eq!(r.scalar(), Some(1 << 40));
        assert_eq!(r.queue(), Some(vec![]));
        assert!(r.at_end());
    }

    #[test]
    fn equal_content_gives_equal_keys() {
        let mut a = KeyWriter::new();
        a.scalar(7);
        a.queue(&[9]);
        let mut b = KeyWriter::new();
        b.scalar(7);
        b.queue(&[9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_grouping_gives_different_keys() {
        // queue [1] then scalar 2 vs scalar 1 then queue [2]: lengths
        // disambiguate.
        let mut a = KeyWriter::new();
        a.queue(&[1]);
        a.scalar(2);
        let mut b = KeyWriter::new();
        b.scalar(1);
        b.queue(&[2]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn set_from_bytes_replaces_content_in_place() {
        let mut w = KeyWriter::new();
        w.scalar(1);
        w.queue(&[2, 3]);
        let built = w.finish();
        let mut k = Key::from_bytes(&[9, 9, 9, 9, 9, 9, 9, 9]);
        k.set_from_bytes(built.as_bytes());
        assert_eq!(k, built);
        k.set_from_bytes(&[]);
        assert!(k.is_empty());
    }

    #[test]
    fn key_writer_reset_reuses_buffer() {
        let mut w = KeyWriter::new();
        w.scalar(5);
        w.queue(&[1, 2, 3]);
        let first = w.bytes().to_vec();
        w.reset();
        assert!(w.bytes().is_empty());
        w.scalar(5);
        w.queue(&[1, 2, 3]);
        assert_eq!(w.bytes(), first.as_slice());
    }

    #[test]
    fn packed_bytes_copy_back_and_walk_by_component() {
        let mut w = KeyWriter::new();
        w.scalar(-3);
        w.queue(&(0..70).collect::<Vec<i64>>());
        w.scalar(1 << 40);
        let bytes = w.bytes().to_vec();
        let mut words = Vec::new();
        pack_bytes(&bytes, &mut words);
        assert_eq!(words.len(), bytes.len().div_ceil(8));
        for (from, to) in [(0, bytes.len()), (1, 9), (3, 3), (7, 17)] {
            let mut out = KeyWriter::new();
            out.packed(&words, from..to);
            assert_eq!(out.bytes(), &bytes[from..to], "bytes {from}..{to}");
        }
        let mut r = PackedReader::new(&words);
        assert!(!r.at_padded_end());
        r.skip(false).unwrap();
        assert_eq!(r.pos(), 1);
        r.skip(true).unwrap();
        r.skip(false).unwrap();
        assert_eq!(r.pos(), bytes.len());
        assert!(r.at_padded_end());
        // A queue cut short by the end of the words fails.
        let mut r = PackedReader::new(&words[..2]);
        r.skip(false).unwrap();
        assert!(r.skip(true).is_none());
    }

    #[test]
    fn packed_end_rejects_stray_bytes_and_words() {
        let mut words = Vec::new();
        pack_bytes(&[5], &mut words);
        let mut r = PackedReader::new(&words);
        r.skip(false).unwrap();
        assert!(r.at_padded_end());
        words[0] |= 1 << 8;
        let mut r = PackedReader::new(&words);
        r.skip(false).unwrap();
        assert!(!r.at_padded_end(), "non-zero padding byte");
        words[0] = 5;
        words.push(0);
        let mut r = PackedReader::new(&words);
        r.skip(false).unwrap();
        assert!(!r.at_padded_end(), "a whole trailing word");
    }

    #[test]
    fn word_walk_accepts_and_rejects_what_the_byte_walk_does() {
        let mut rng = crate::rng::Rng::new(0x7a11_5eed);
        let value = |rng: &mut crate::rng::Rng| match rng.index(4) {
            0 => rng.range_i64(-3, 3),
            1 => rng.range_i64(-5000, 5000),
            2 => rng.next_u64() as i64,
            _ => *rng.pick(&[i64::MIN, i64::MAX, -1 << 40, 1 << 56]),
        };
        let (mut accepted, mut refused) = (0, 0);
        for case in 0..20_000 {
            let shape: Vec<bool> = (0..1 + rng.index(7)).map(|_| rng.chance(1, 3)).collect();
            let mut w = KeyWriter::new();
            for &queue in &shape {
                if queue {
                    let len = *rng.pick(&[0, 1, 3, 8, 17, 70, 130]);
                    w.queue_vals((0..len).map(|_| value(&mut rng)).collect::<Vec<_>>());
                } else {
                    w.scalar(value(&mut rng));
                }
            }
            let mut bytes = w.bytes().to_vec();
            // Well-formed, or damaged the ways a hostile file could be.
            let at = rng.index(bytes.len() + 1);
            match rng.index(7) {
                0 => {}
                1 if at < bytes.len() => bytes[at] ^= 0x80,
                2 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
                3 => bytes.truncate(at),
                4 => {
                    let run = 1 + rng.index(12);
                    bytes.splice(
                        at..at,
                        std::iter::repeat_n(0x80 | rng.index(128) as u8, run),
                    );
                }
                5 => bytes.extend((0..rng.index(12)).map(|_| rng.next_u64() as u8)),
                _ => {
                    bytes = (0..rng.index(40))
                        .map(|_| rng.next_u64() as u8 | 0x80)
                        .collect()
                }
            }
            let mut words = Vec::new();
            pack_bytes(&bytes, &mut words);
            if rng.chance(1, 8) {
                words.push(rng.next_u64() as i64 & 0xff);
            }
            let mut word_walk = PackedReader::new(&words);
            let mut byte_walk = PackedReader::new(&words);
            let mut ok = true;
            for &queue in &shape {
                let n = if queue { word_walk.varint() } else { Some(1) };
                let a = n.and_then(|n| word_walk.skip_varints(n));
                let b = byte_walk.skip(queue);
                assert_eq!(a, b, "case {case}: {shape:?} over {bytes:02x?}");
                if a.is_none() {
                    ok = false;
                    break;
                }
                assert_eq!(word_walk.pos(), byte_walk.pos(), "case {case}");
            }
            if ok {
                assert_eq!(word_walk.at_padded_end(), byte_walk.at_padded_end());
            }
            let fits = packed_fits_bytewise(&words, shape.iter().copied());
            assert_eq!(
                packed_fits(&words, shape.iter().copied()),
                fits,
                "case {case}"
            );
            assert_eq!(fits, ok && word_walk.at_padded_end());
            if fits {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
        assert!(
            accepted > 2_000 && refused > 2_000,
            "{accepted} accepted, {refused} refused"
        );
    }

    #[test]
    fn hash_bytes_discriminates_and_is_stable() {
        // Deterministic across calls.
        assert_eq!(hash_bytes(b"facile"), hash_bytes(b"facile"));
        // Distinct lengths, contents, and tails hash apart.
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"\0"), hash_bytes(b"\0\0"));
        assert_ne!(hash_bytes(b"12345678"), hash_bytes(b"12345679"));
        assert_ne!(hash_bytes(b"123456789"), hash_bytes(b"123456780"));
        // No trivial collisions over a small dense set.
        let mut seen = std::collections::HashSet::new();
        for a in 0u8..=63 {
            for b in 0u8..=63 {
                assert!(seen.insert(hash_bytes(&[a, b])), "collision at {a},{b}");
            }
        }
    }

    #[test]
    fn paper_sized_instruction_queue_is_compact() {
        // 11 instructions with small stage/latency values, as in Figure 3,
        // should compress well below 40 bytes per parallel queue triple.
        let mut w = KeyWriter::new();
        // Addresses delta-encoded by the simulator would be smaller still;
        // even raw, small stages/latencies cost one byte each.
        w.queue(&(0..11).map(|i| i % 4).collect::<Vec<i64>>());
        w.queue(&(0..11).map(|i| i % 19).collect::<Vec<i64>>());
        let key = w.finish();
        assert!(key.len() <= 24, "key is {} bytes", key.len());
    }
}
