//! A minimal Fx-style hasher for integer-keyed maps on the matching hot
//! path. `std`'s default SipHash is DoS-resistant but costs ~10× more per
//! small integer key; the automaton's keys are interned ids we control,
//! so the cheap multiply-rotate mix is safe and measurably faster. No
//! external dependency (the build environment is offline).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The `FxHasher` multiply constant (from Firefox's hash — the same one
/// rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for small fixed-size keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Mixes whole 8-byte words, then the 4-, 2- and 1-byte tail, each
    /// with one fixed-size load (`str` keys also write a terminator, so
    /// their lengths stay apart).
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let mut tail = words.remainder();
        if let Some((head, rest)) = tail.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*head)));
            tail = rest;
        }
        if let Some((head, rest)) = tail.split_first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*head)));
            tail = rest;
        }
        if let Some(&byte) = tail.first() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into std collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_tuple_keys() {
        let mut m: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(7), i % 13), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i.wrapping_mul(7), i % 13)), Some(&i));
        }
    }

    #[test]
    fn strings_hash_by_content_and_length() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |k: &str| build.hash_one(k);
        let long = "ip_signal_in_and_a_tail";
        let copy = String::from(long);
        assert_eq!(hash(long), hash(&copy), "equal strings in other memory");
        // Each tail length (word, 4-, 2- and 1-byte pieces) and each byte
        // position in it.
        for len in 0..=long.len() {
            let a = &long[..len];
            for i in 0..len {
                let mut b = a.as_bytes().to_vec();
                b[i] ^= 1;
                let b = String::from_utf8(b).unwrap();
                assert_ne!(hash(a), hash(&b), "{a:?} vs {b:?}");
            }
            if len > 0 {
                assert_ne!(hash(a), hash(&long[..len - 1]), "{a:?} vs its prefix");
            }
        }
        assert_ne!(hash("ab"), hash("ab\0"));
    }

    #[test]
    fn hashes_differ_for_nearby_keys() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |k: (u32, u32)| build.hash_one(k);
        assert_ne!(hash((0, 1)), hash((1, 0)));
        assert_ne!(hash((2, 3)), hash((3, 2)));
    }
}
