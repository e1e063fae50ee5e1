//! Dense bit sets for the middle end's dataflow analyses.
//!
//! Variables and globals are numbered densely from zero, so a set
//! of them is a row of `u64` words: membership is one shift, and union,
//! difference and the edge masks of lift insertion are word-wise
//! operations over a few dozen words even for the largest simulator.

use std::fmt;

/// A set of indices below a fixed capacity, one bit per index.
///
/// Bits at or above the capacity are always zero, so word-wise operations
/// may complement a word as long as they also intersect with a set of the
/// same capacity.
#[derive(Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    /// Reuses `self`'s allocation: the analyses copy a set into a scratch
    /// set once per block visit.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.capacity = source.capacity;
    }
}

impl BitSet {
    /// The empty set over indices `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The backing words; bit `i % 64` of word `i / 64` is index `i`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether index `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity, "index {i} out of {}", self.capacity);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds index `i`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "index {i} out of {}", self.capacity);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes index `i`.
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Adds or removes index `i`.
    pub fn set(&mut self, i: usize, member: bool) {
        if member {
            self.insert(i);
        } else {
            self.remove(i);
        }
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self ∪= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = 0;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            changed |= b & !*a;
            *a |= b;
        }
        changed != 0
    }

    /// `self ∖= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Ones<std::iter::Copied<std::slice::Iter<'_, u64>>> {
        ones(self.words.iter().copied())
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The indices of the set bits of a word sequence, ascending — for masks
/// computed word by word from several sets.
pub fn ones<I: Iterator<Item = u64>>(words: I) -> Ones<I> {
    Ones {
        words,
        next_base: 0,
        base: 0,
        cur: 0,
    }
}

/// Iterator returned by [`ones`] and [`BitSet::iter`].
#[derive(Clone, Debug)]
pub struct Ones<I> {
    words: I,
    /// Index of bit 0 of the next word.
    next_base: usize,
    /// Index of bit 0 of `cur`.
    base: usize,
    /// The unvisited bits of the current word.
    cur: u64,
}

impl<I: Iterator<Item = u64>> Iterator for Ones<I> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.cur = self.words.next()?;
            self.base = self.next_base;
            self.next_base += 64;
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_across_word_boundaries() {
        let mut s = BitSet::new(130);
        for i in [0, 63, 64, 127, 129] {
            s.insert(i);
        }
        assert!(s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        s.remove(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 127, 129]);
    }

    #[test]
    fn union_reports_change_and_difference_removes() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(3);
        b.insert(3);
        assert!(!a.union_with(&b));
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(a.contains(69));
        a.difference_with(&b);
        assert_eq!(a, BitSet::new(70));
    }

    #[test]
    fn ones_skips_empty_words() {
        let got: Vec<usize> = ones([0u64, 0, 1 << 5, 0, 0b11].into_iter()).collect();
        assert_eq!(got, vec![128 + 5, 256, 257]);
        assert_eq!(
            format!("{:?}", {
                let mut s = BitSet::new(8);
                s.insert(2);
                s.insert(7);
                s
            }),
            "{2, 7}"
        );
    }
}
