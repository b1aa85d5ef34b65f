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
//! segment and the element.
//!
//! How a segment lays out its elements is the [`Segment`]'s business: a
//! `Box<[T]>` holds `T`s side by side (the directory's entries), and a
//! [`WordSegment`] holds runs of words at a runtime stride (the page
//! store's slots, each a header word and a page inline).

use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// log2 of segment 0's length.
const FIRST_BITS: u32 = 6;

/// Number of segments: indices below 2^(`FIRST_BITS` + `SEGS` − 1) = 2^38.
const SEGS: usize = 33;

/// One segment's storage: the elements at offsets `0..len` of a segment
/// of `len` elements, built whole by [`SegArray::grow_with`].
pub trait Segment {
    /// What one index names.
    type Elem: ?Sized;

    /// The element at `off`, below the length the segment was built for.
    fn at(&self, off: usize) -> &Self::Elem;
}

impl<T> Segment for Box<[T]> {
    type Elem = T;

    #[inline]
    fn at(&self, off: usize) -> &T {
        &self[off]
    }
}

/// A segment of words that holds its elements at a runtime stride, in
/// one zeroed allocation: element `off` is the `used` words at word
/// `start + off·stride`.
pub struct WordSegment {
    words: Box<[AtomicU64]>,
    start: usize,
    stride: usize,
    used: usize,
}

impl WordSegment {
    /// `len` elements of `used` zero words, `stride` words apart, the
    /// first at an address that is a multiple of `align` bytes (a power
    /// of two). The allocator zeroes the allocation (fresh pages from the
    /// kernel, for a large one) and nothing here writes it, so an element
    /// costs memory only once touched. The alignment is an offset into
    /// the allocation: an over-aligned allocation is zeroed by a write of
    /// every byte.
    pub fn zeroed(len: usize, stride: usize, used: usize, align: usize) -> Self {
        assert!(used <= stride && align.is_power_of_two());
        let zeroed = Box::<[AtomicU64]>::new_zeroed_slice(len * stride + align / 8);
        // SAFETY: `new_zeroed_slice` zeroed every word, and all-zero bytes
        // are a valid `AtomicU64` (it has the layout of a `u64`).
        // ceh-lint: allow(unsafe-block) — every word is zeroed, a valid AtomicU64; see SAFETY
        let words = unsafe { zeroed.assume_init() };
        let start = (align - words.as_ptr() as usize % align) % align / 8;
        WordSegment {
            words,
            start,
            stride,
            used,
        }
    }

    /// The words from the first element's to the allocation's end.
    pub fn elements(&self) -> &[AtomicU64] {
        &self.words[self.start..]
    }
}

impl Segment for WordSegment {
    type Elem = [AtomicU64];

    #[inline]
    fn at(&self, off: usize) -> &[AtomicU64] {
        &self.words[self.start + off * self.stride..][..self.used]
    }
}

/// A grow-only array in power-of-two segments of type `S` (see the
/// module docs). Growth may race growth; each segment is built by one
/// grower.
pub struct SegArray<S> {
    segs: [OnceLock<S>; SEGS],
}

impl<S> Default for SegArray<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> SegArray<S> {
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

    /// Allocate every segment holding an index below `n` that is not
    /// allocated yet, building segment `k` as `build(start, len)` from its
    /// first index and length. `false`, with nothing allocated, when `n`
    /// exceeds [`SegArray::CAPACITY`].
    pub fn grow_with(&self, n: usize, mut build: impl FnMut(usize, usize) -> S) -> bool {
        if n as u64 > Self::CAPACITY {
            return false;
        }
        for (k, seg) in self.segs.iter().enumerate() {
            let (start, len) = Self::span(k);
            if start >= n {
                break;
            }
            seg.get_or_init(|| build(start, len));
        }
        true
    }

    /// How many elements the allocated segments hold.
    pub fn allocated(&self) -> usize {
        self.segments().map(|(len, _)| len).sum()
    }

    /// The allocated segments in index order, each with its length.
    fn segments(&self) -> impl Iterator<Item = (usize, &S)> {
        (0..)
            .zip(&self.segs)
            .map_while(|(k, s)| Some((Self::span(k).1, s.get()?)))
    }
}

impl<S: Segment> SegArray<S> {
    /// The element at `i`, if its segment is allocated.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&S::Elem> {
        let (k, off) = Self::locate(i);
        Some(self.segs.get(k)?.get()?.at(off))
    }

    /// The elements of the allocated segments, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &S::Elem> {
        self.segments()
            .flat_map(|(len, s)| (0..len).map(move |off| s.at(off)))
    }
}

impl<T> SegArray<Box<[T]>> {
    /// [`SegArray::grow_with`] for side-by-side elements, filling element
    /// `i` with `init(i)`.
    pub fn grow_to(&self, n: usize, mut init: impl FnMut(usize) -> T) -> bool {
        self.grow_with(n, |start, len| {
            (start..start + len).map(&mut init).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type A = SegArray<Box<[usize]>>;

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

    /// Word segments hold zeroed runs of `used` words, `stride` apart,
    /// the first aligned as asked, in an array that grows like any other.
    #[test]
    fn word_segments_hold_aligned_strided_runs() {
        use std::sync::atomic::Ordering;
        let a = SegArray::<WordSegment>::new();
        assert!(a.grow_with(65, |_, len| WordSegment::zeroed(len, 5, 3, 4096)));
        assert_eq!(a.allocated(), 128);
        let addr = |i| a.get(i).unwrap().as_ptr() as usize;
        for i in [0, 63, 64, 127] {
            let run = a.get(i).unwrap();
            assert_eq!(run.len(), 3);
            assert!(run.iter().all(|w| w.load(Ordering::Acquire) == 0));
        }
        assert_eq!((addr(0) % 4096, addr(64) % 4096), (0, 0));
        assert_eq!(addr(1) - addr(0), 40);
        assert_eq!(addr(127) - addr(64), 63 * 40);
        a.get(5).unwrap()[2].store(9, Ordering::Release);
        assert_eq!(
            a.iter()
                .filter(|r| r[2].load(Ordering::Acquire) == 9)
                .count(),
            1
        );
        assert!(a.get(128).is_none());
    }
}
