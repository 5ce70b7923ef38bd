//! A dense, fixed-capacity bit set used by the iterative dataflow solver.

use std::fmt;

/// A fixed-capacity set of small integers backed by `u64` words. The
/// default set has capacity 0.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`, returning whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes `i`, returning whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// `self |= other`; returns true if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self &= other`; returns true if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a &= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self &= !other` (set difference in place).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set with capacity `max + 1` from the items.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over set elements; see [`BitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports false");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_and_intersect_report_change() {
        let mut a = BitSet::new(10);
        a.extend([1, 2, 3]);
        let mut b = BitSet::new(10);
        b.extend([3, 4]);
        assert!(a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert!(!a.union_with(&b), "second union changes nothing");
        assert!(a.intersect_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn subtract_removes() {
        let mut a = BitSet::new(8);
        a.extend([0, 1, 2, 3]);
        let mut b = BitSet::new(8);
        b.extend([1, 3]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn iter_across_word_boundaries() {
        let mut s = BitSet::new(200);
        for i in [0, 63, 64, 65, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 128, 199]
        );
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [5usize, 9].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert!(s.contains(9));
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(5);
        assert!(s.is_empty());
        s.insert(4);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_beyond_capacity_panics() {
        BitSet::new(3).insert(3);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_capacity_mismatch_panics() {
        let mut a = BitSet::new(3);
        a.union_with(&BitSet::new(4));
    }

    #[test]
    fn zero_capacity_set_works() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }
}
