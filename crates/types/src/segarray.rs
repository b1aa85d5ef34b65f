//! A grow-only segmented array whose elements never move.
//!
//! Segment 0 holds indices `[0, 64)`; segment `k ≥ 1` holds
//! `[64·2^(k−1), 64·2^k)`, as many elements as every segment before it.
//! Growing from `n ≥ 64` elements to `2n` (a directory doubling)
//! therefore allocates exactly one segment, the size of what is already
//! there, and copies nothing that exists. This is the segment table of
//! Malakhov's per-bucket concurrent rehashing (PAPERS.md).
//!
//! A segment is published once ([`OnceLock`], `Release`) and freed only
//! with the array, so an element's address is stable while the array
//! lives. A reader needs no lock and no reference count against growth:
//! [`SegArray::get`] is one `leading_zeros`, one acquire load of the
//! segment pointer and the element.

use std::sync::OnceLock;

/// log2 of segment 0's length.
const FIRST_BITS: u32 = 6;

/// Number of segments: indices below 2^(`FIRST_BITS` + `SEGS` − 1) = 2^38.
const SEGS: usize = 33;

/// A grow-only array of `T` in power-of-two segments (see the module
/// docs). Growth may race growth; each segment is built by one grower.
pub struct SegArray<T> {
    segs: [OnceLock<Box<[T]>>; SEGS],
}

impl<T> Default for SegArray<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SegArray<T> {
    /// One past the largest index the array can hold.
    pub const CAPACITY: u64 = 1 << (FIRST_BITS as u64 + SEGS as u64 - 1);

    /// An empty array: no segment allocated.
    pub fn new() -> Self {
        SegArray {
            segs: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Segment `k`'s first index and length.
    fn span(k: usize) -> (usize, usize) {
        match k {
            0 => (0, 1 << FIRST_BITS),
            _ => {
                let len = 1 << (FIRST_BITS + k as u32 - 1);
                (len, len)
            }
        }
    }

    /// The segment and the offset in it of index `i`; the segment is
    /// `SEGS` or more when the array cannot hold `i`. Branch-free: `i`'s
    /// top bit names the segment, and the bits below it (all six of
    /// them in segment 0) are the offset.
    #[inline]
    fn locate(i: usize) -> (usize, usize) {
        let i = i as u64;
        let low = (1 << FIRST_BITS) - 1;
        let top = u64::BITS - 1 - (i | low).leading_zeros();
        let k = (top + 1 - FIRST_BITS) as usize;
        (k, (i & (((1 << top) - 1) | low)) as usize)
    }

    /// The element at `i`, if its segment is allocated.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        let (k, off) = Self::locate(i);
        self.segs.get(k)?.get()?.get(off)
    }

    /// Allocate every segment holding an index below `n` that is not
    /// allocated yet, filling element `i` with `init(i)`. `false`, with
    /// nothing allocated, when `n` exceeds [`SegArray::CAPACITY`].
    pub fn grow_to(&self, n: usize, mut init: impl FnMut(usize) -> T) -> bool {
        if n as u64 > Self::CAPACITY {
            return false;
        }
        for (k, seg) in self.segs.iter().enumerate() {
            let (start, len) = Self::span(k);
            if start >= n {
                break;
            }
            seg.get_or_init(|| (start..start + len).map(&mut init).collect());
        }
        true
    }

    /// How many elements the allocated segments hold.
    pub fn allocated(&self) -> usize {
        self.segs
            .iter()
            .filter_map(OnceLock::get)
            .map(|s| s.len())
            .sum()
    }

    /// The elements of the allocated segments, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segs
            .iter()
            .map_while(OnceLock::get)
            .flat_map(|s| s.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type A = SegArray<usize>;

    /// Every segment boundary maps to the right segment and offset, up to
    /// the last segment; past it, nothing.
    #[test]
    fn locate_splits_at_every_segment_boundary() {
        let mut end = 0;
        for k in 0..SEGS {
            let (start, len) = A::span(k);
            assert_eq!(start, end, "segment {k} starts where {} ends", k.max(1) - 1);
            assert_eq!(A::locate(start), (k, 0));
            assert_eq!(A::locate(start + len - 1), (k, len - 1));
            end = start + len;
        }
        assert_eq!(end as u64, A::CAPACITY);
        assert_eq!(A::locate(end).0, SEGS);
        assert!(A::locate(usize::MAX).0 >= SEGS);
        assert_eq!(
            (A::span(1).0, A::span(2).0, A::span(3).0),
            (64, 128, 256),
            "one doubling past 64 entries adds one segment"
        );
    }

    #[test]
    fn grows_by_whole_segments_and_keeps_what_it_has() {
        let a = A::new();
        assert_eq!(a.allocated(), 0);
        assert!(a.get(0).is_none());
        assert!(a.grow_to(1, |i| i));
        assert_eq!(a.allocated(), 64);
        let first = a.get(0).unwrap() as *const usize;
        assert!(a.grow_to(129, |i| i * 10));
        assert_eq!(a.allocated(), 256, "segments 0, 1 and 2");
        assert_eq!(a.get(0).unwrap() as *const usize, first, "never moves");
        assert_eq!(a.get(63), Some(&63), "segment 0 kept its init");
        assert_eq!((a.get(64), a.get(255)), (Some(&640), Some(&2550)));
        assert!(a.get(256).is_none());
        assert!(a
            .iter()
            .copied()
            .eq((0..64).chain((64..256).map(|i| i * 10))));
        assert!(!a.grow_to(A::CAPACITY as usize + 1, |i| i));
        assert_eq!(a.allocated(), 256, "a refused growth allocates nothing");
    }
}
