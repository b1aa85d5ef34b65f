//! # ceh-types
//!
//! Shared vocabulary types for the `ellis-eh` workspace — a reproduction of
//! Carla Schlatter Ellis, *Extendible Hashing for Concurrent Operations and
//! Distributed Data* (PODS 1983).
//!
//! This crate holds the types every other crate agrees on:
//!
//! * [`Key`] / [`Value`] / [`Record`] — what the hash file stores.
//! * [`Pseudokey`] and [`hash_key`] — the paper's "very long pseudokey"
//!   produced by hashing a key. The **least significant** bits of the
//!   pseudokey index the directory (the paper's choice, which makes
//!   directory doubling a copy of the bottom half into the top half).
//! * [`PageId`] — the address of a bucket's disk page.
//! * [`mask`] and the bit helpers of [`bits`] — the `mask(depth)` /
//!   `pseudokey & mask(depth)` algebra used throughout Figures 5–9.
//! * [`HashFileConfig`] — bucket capacity, maximum directory depth, and
//!   related tuning shared by the sequential, concurrent, and distributed
//!   implementations.
//! * [`Error`] — the workspace error type.
//! * [`crc32`] — the checksum of the WAL, the page frames and the wire.
//! * [`SegArray`] — the grow-only segmented array under the directory
//!   and the page store's slot table, whose [`Segment`]s lay out its
//!   elements (a `Box<[T]>`, or a runtime-strided [`segarray::WordSegment`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bits;
pub mod bucket;
pub mod config;
pub mod crc;
pub mod error;
pub mod ids;
pub mod key;
pub mod ops;
pub mod segarray;

pub use bits::{mask, partner_bit, Mask};
pub use bucket::{
    Bucket, BucketView, PageWords, PageWordsMut, SharedPage, SharedPageMut, BUCKET_HEADER_BYTES,
    DELETED, RECORD_BYTES,
};
pub use config::{check_max_depth, HashFileConfig, RetryPolicy, MAX_SUPPORTED_DEPTH};
pub use crc::crc32;
pub use error::{Error, Result};
pub use ids::{BucketLink, ManagerId, PageId};
pub use key::{hash_key, identity_pseudokey, Key, Pseudokey, Record, Value};
pub use ops::{DeleteOutcome, InsertOutcome};
pub use segarray::{SegArray, Segment};
