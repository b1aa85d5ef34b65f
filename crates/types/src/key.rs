//! Keys, values, records, and the pseudokey hash.
//!
//! The paper assumes "a hash function … that generates a very long
//! *pseudokey* when applied to a key" (§1). We use a 64-bit pseudokey
//! produced by a splitmix64-style finalizer, which is a full-avalanche
//! bijection on `u64`: every output bit depends on every input bit, so the
//! low-order bits used to index the directory are well distributed even for
//! sequential keys.

use core::fmt;

/// A key stored in the hash file.
///
/// Keys are 64-bit identifiers, matching the paper's database-index
/// use-case (the "associated information" of a record is typically a record
/// id or tuple address). The newtype prevents accidentally confusing a key
/// with its pseudokey — a bug class the wrong-bucket recovery logic is very
/// sensitive to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

/// The value ("associated information") stored with a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(pub u64);

/// A `(key, value)` pair as stored in a bucket slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// The record's key.
    pub key: Key,
    /// The record's associated information.
    pub value: Value,
}

impl Record {
    /// Create a record from raw key and value integers.
    #[inline]
    pub const fn new(key: u64, value: u64) -> Self {
        Record {
            key: Key(key),
            value: Value(value),
        }
    }
}

/// The hash of a key: the paper's *pseudokey*.
///
/// The directory is indexed by the **least significant** `depth` bits of
/// the pseudokey ("In our work, the least significant bits are used in
/// order to simplify manipulations of the directory", §1).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pseudokey(pub u64);

impl fmt::Debug for Pseudokey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Low bits are what the data structure cares about; print the low
        // 16 in binary for readability, like the paper's "...101" notation.
        write!(f, "Pseudokey(…{:016b})", self.0 & 0xFFFF)
    }
}

impl Pseudokey {
    /// The low `depth` bits of the pseudokey: the directory index when the
    /// directory has that depth (`pseudokey & mask(depth)` in the paper).
    #[inline]
    pub const fn low_bits(self, depth: u32) -> u64 {
        self.0 & crate::bits::mask(depth)
    }

    /// Does this pseudokey belong in a bucket with the given `commonbits`
    /// and `localdepth`? This is the wrong-bucket test of Figures 5, 8, 9:
    /// `(mask(localdepth) & pseudokey) == commonbits`.
    #[inline]
    pub const fn matches(self, commonbits: u64, localdepth: u32) -> bool {
        self.low_bits(localdepth) == commonbits
    }

    /// The paper's "z goes in first/second of pair" test (Figure 7): with
    /// respect to bit position `localdepth` (1-indexed in the paper), a
    /// pseudokey whose bit `localdepth` is 0 belongs to the "0" partner —
    /// the first of the pair in next-link order.
    #[inline]
    pub const fn in_first_of_pair(self, localdepth: u32) -> bool {
        debug_assert!(localdepth >= 1);
        let m = 1u64 << (localdepth - 1);
        (self.0 & m) != m
    }
}

/// Hash a key to its pseudokey.
///
/// splitmix64's finalizer: a measured-good mixing permutation
/// (full avalanche, bijective). Deterministic across runs so tests and
/// figure goldens are stable.
#[inline]
pub fn hash_key(key: Key) -> Pseudokey {
    let mut z = key.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Pseudokey(z ^ (z >> 31))
}

/// An *identity* pseudokey function, used by figure-golden tests so the
/// directory layout matches the paper's hand-drawn examples exactly (where
/// the text treats the key's own low bits as the pseudokey).
#[inline]
pub fn identity_pseudokey(key: Key) -> Pseudokey {
    Pseudokey(key.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_key(Key(42)), hash_key(Key(42)));
        assert_ne!(hash_key(Key(42)), hash_key(Key(43)));
    }

    #[test]
    fn hash_spreads_low_bits_of_sequential_keys() {
        // Sequential keys must not all land in the same bucket: count the
        // distribution of the low 3 bits over 8000 sequential keys.
        let mut counts = [0usize; 8];
        for k in 0..8000u64 {
            counts[(hash_key(Key(k)).0 & 7) as usize] += 1;
        }
        for &c in &counts {
            // Perfectly uniform would be 1000; allow generous slack.
            assert!((800..=1200).contains(&c), "skewed low bits: {counts:?}");
        }
    }

    #[test]
    fn low_bits_extracts_suffix() {
        let pk = Pseudokey(0b1011_0101);
        assert_eq!(pk.low_bits(0), 0);
        assert_eq!(pk.low_bits(1), 0b1);
        assert_eq!(pk.low_bits(3), 0b101);
        assert_eq!(pk.low_bits(8), 0b1011_0101);
    }

    #[test]
    fn matches_is_the_wrong_bucket_test() {
        // A bucket with localdepth 3 and commonbits 0b101 holds exactly the
        // pseudokeys ending in 101 (the paper's "...101" example).
        let pk = Pseudokey(0b1111_0101);
        assert!(pk.matches(0b101, 3));
        assert!(!pk.matches(0b001, 3));
        // After the bucket splits (localdepth 4), the same pseudokey only
        // matches the half whose commonbits extend it by its bit 4.
        assert!(pk.matches(0b0101, 4));
        assert!(!pk.matches(0b1101, 4));
    }

    #[test]
    fn in_first_of_pair_checks_bit_localdepth() {
        // localdepth 3 → partner bit is bit 3 (mask 0b100).
        assert!(Pseudokey(0b0011).in_first_of_pair(3));
        assert!(!Pseudokey(0b0111).in_first_of_pair(3));
        // localdepth 1 → partner bit is the lowest bit.
        assert!(Pseudokey(0b10).in_first_of_pair(1));
        assert!(!Pseudokey(0b11).in_first_of_pair(1));
    }

    #[test]
    fn identity_pseudokey_is_identity() {
        assert_eq!(identity_pseudokey(Key(0b101)).0, 0b101);
    }
}
