//! Identifiers for pages and distributed managers.

use core::fmt;

/// The address of a bucket's disk page within a page store.
///
/// The paper's listings pass around `int` disk page addresses
/// (`oldpage`, `newpage`, `merged`, `garbage`); this is their typed
/// equivalent. [`PageId::NULL`] plays the role of a nil `next` pointer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// The nil page address (end of a `next` chain, unset `prev`).
    pub const NULL: PageId = PageId(u64::MAX);

    /// Is this the nil address?
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == u64::MAX
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "PageId(NULL)")
        } else {
            write!(f, "PageId({})", self.0)
        }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "∅")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

/// Identifies a manager process in the distributed solution (§3).
///
/// "Each link represents a pair consisting of a long-lived identifier for a
/// manager port and a bucket address that is meaningful to that manager."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ManagerId(pub u32);

impl ManagerId {
    /// Sentinel for "no manager" (unset `nextmgr`/`prevmgr`).
    pub const NONE: ManagerId = ManagerId(u32::MAX);

    /// Is this the sentinel?
    #[inline]
    pub const fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Display for ManagerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mgr{}", self.0)
    }
}

/// A (manager, page) pair: the distributed structure's full bucket link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketLink {
    /// Which bucket manager owns the page.
    pub manager: ManagerId,
    /// The page address within that manager's store.
    pub page: PageId,
}

impl BucketLink {
    /// The nil link.
    pub const NULL: BucketLink = BucketLink {
        manager: ManagerId::NONE,
        page: PageId::NULL,
    };

    /// Is this the nil link?
    #[inline]
    pub const fn is_null(self) -> bool {
        self.page.is_null()
    }

    /// Construct a link.
    #[inline]
    pub const fn new(manager: ManagerId, page: PageId) -> Self {
        BucketLink { manager, page }
    }
}

impl fmt::Display for BucketLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.manager.is_none() {
            write!(f, "{}", self.page)
        } else {
            write!(f, "{}/{}", self.manager, self.page)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_page_id_roundtrips() {
        assert!(PageId::NULL.is_null());
        assert!(!PageId(0).is_null());
        assert_eq!(format!("{}", PageId(3)), "p3");
        assert_eq!(format!("{}", PageId::NULL), "∅");
    }

    #[test]
    fn null_bucket_link() {
        assert!(BucketLink::NULL.is_null());
        assert!(!BucketLink::new(ManagerId(0), PageId(1)).is_null());
    }
}
