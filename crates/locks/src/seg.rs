//! A grow-only table indexed by a dense `u64`, allocated in segments.
//!
//! Segment `k` holds `64 << k` entries, so index `i` lives in segment
//! `log2(i + 64) - 6`. A segment is allocated the first time one of its
//! indexes is asked for and is never moved or freed before the table
//! is, so a lookup is one acquire load of the segment pointer and an
//! offset — no lock, no reference count, and the table grows with the
//! largest index used rather than being sized up front.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

const FIRST_BITS: u32 = 6;

/// Segments per table: indexes below `64 * (2^14 - 1)` = 1 048 512. The
/// largest segment holds 2^19 entries, so no index, however large, makes
/// the table allocate more than twice that.
const SEGS: usize = 14;

fn seg_len(k: usize) -> usize {
    1 << (k as u32 + FIRST_BITS)
}

pub(crate) struct SegTable<T> {
    segs: [AtomicPtr<T>; SEGS],
    /// The table owns its segments' `T`s (auto traits follow `T`).
    _owns: PhantomData<Box<[T]>>,
}

impl<T: Default> SegTable<T> {
    pub(crate) fn new() -> Self {
        SegTable {
            segs: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            _owns: PhantomData,
        }
    }

    /// Entry `i`, allocating its segment on first use; `None` past the
    /// table's last segment.
    #[inline]
    pub(crate) fn get(&self, i: u64) -> Option<&T> {
        let j = i.checked_add(1 << FIRST_BITS)?;
        let k = (63 - j.leading_zeros() - FIRST_BITS) as usize;
        let seg = self.segs.get(k)?;
        let mut p = seg.load(Ordering::Acquire);
        if p.is_null() {
            p = self.grow(k);
        }
        let off = (j - (1u64 << (k as u32 + FIRST_BITS))) as usize;
        // ceh-lint: allow(unsafe-block) — `p` is a live segment of `seg_len(k)` entries (published by `grow`, freed only in Drop) and `off < seg_len(k)` by the segment arithmetic
        Some(unsafe { &*p.add(off) })
    }

    #[cold]
    fn grow(&self, k: usize) -> *mut T {
        let seg: Box<[T]> = (0..seg_len(k)).map(|_| T::default()).collect();
        let fresh = Box::into_raw(seg).cast::<T>();
        match self.segs[k].compare_exchange(
            ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(winner) => {
                let len = seg_len(k);
                // ceh-lint: allow(unsafe-block) — `fresh` came from Box::into_raw of a `seg_len(k)` slice just above and lost the race, so nothing else saw it
                drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, len)) });
                winner
            }
        }
    }
}

impl<T> Drop for SegTable<T> {
    fn drop(&mut self) {
        for (k, seg) in self.segs.iter_mut().enumerate() {
            let p = *seg.get_mut();
            if !p.is_null() {
                let len = seg_len(k);
                // ceh-lint: allow(unsafe-block) — `&mut self`: no reference into the table is left, and each non-null segment came from Box::into_raw of a `seg_len(k)` slice in `grow`
                drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(p, len)) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn indexes_map_to_distinct_entries_across_segments() {
        let t = SegTable::<AtomicU64>::new();
        let last = 64 * ((1 << SEGS) - 1) - 1;
        for i in [0u64, 1, 63, 64, 65, 191, 192, 10_000, last] {
            t.get(i).unwrap().store(i + 1, Ordering::Release);
        }
        for i in [0u64, 1, 63, 64, 65, 191, 192, 10_000, last] {
            assert_eq!(
                t.get(i).unwrap().load(Ordering::Acquire),
                i + 1,
                "entry {i}"
            );
        }
        assert_eq!(t.get(2).unwrap().load(Ordering::Acquire), 0);
        assert!(t.get(u64::MAX).is_none());
        assert!(t.get(last + 1).is_none());
    }

    #[test]
    fn segments_are_allocated_on_first_use_only() {
        let t = SegTable::<AtomicU64>::new();
        t.get(5).unwrap();
        let live = t
            .segs
            .iter()
            .filter(|s| !s.load(Ordering::Acquire).is_null())
            .count();
        assert_eq!(live, 1, "an index in segment 0 allocates segment 0 only");
    }
}
