//! Configuration shared by all hash-file implementations.

use crate::bucket::MAX_SLOTS;

/// The deepest directory any file builds: 2^26 entries, 512 MiB of page
/// ids once a directory has grown that far. Every file's configuration
/// is checked against it ([`check_max_depth`]).
pub const MAX_SUPPORTED_DEPTH: u32 = 26;

/// Is `max_depth` in `1..=`[`MAX_SUPPORTED_DEPTH`]? The one check, and
/// the one message, for every file's directory.
pub fn check_max_depth(max_depth: u32) -> crate::Result<()> {
    if max_depth == 0 || max_depth > MAX_SUPPORTED_DEPTH {
        return Err(crate::Error::Config(format!(
            "max_depth must be in 1..={MAX_SUPPORTED_DEPTH}, got {max_depth}"
        )));
    }
    Ok(())
}

/// Tuning parameters for an extendible hash file.
///
/// The paper fixes two structural constants: `numentries` (bucket capacity,
/// "maximum number of keys per bucket") and `maxdepth` (the directory is
/// declared `int directory[1<<maxdepth]`). Everything else here controls the
/// simulation substrate, not the algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashFileConfig {
    /// Maximum number of records per bucket (the paper's `numentries`),
    /// in `1..=`[`MAX_SLOTS`]: a page has one occupancy bit per record
    /// slot, and its bitmap has 256.
    ///
    /// Small values force frequent splits/merges and are what the
    /// concurrency torture tests use; realistic values are derived from the
    /// page size (a 4 KiB page holds ~250 records).
    pub bucket_capacity: usize,
    /// Maximum directory depth: the paper's `maxdepth`, the cap on
    /// doubling, in `1..=`[`MAX_SUPPORTED_DEPTH`]. The paper declares
    /// `int directory[1<<maxdepth]`; the directory allocates only the
    /// `2^depth` entries it has reached (at least 64), one segment per
    /// doubling.
    pub max_depth: u32,
    /// Merge policy: a delete attempts a merge when, after removing the
    /// key, the bucket would hold at most this many records. The paper's
    /// "simplest interpretation" of *too empty* is that the only record in
    /// the bucket is the one being deleted — i.e. `merge_threshold == 0`
    /// records remaining. Larger thresholds are an extension (see
    /// DESIGN.md) exercised by the ablation benches.
    pub merge_threshold: usize,
    /// Simulated per-page-I/O latency in nanoseconds (0 = none). Applied by
    /// the page store on each `getbucket`/`putbucket` to approximate the
    /// paper's disk-resident buckets.
    pub io_latency_ns: u64,
}

impl Default for HashFileConfig {
    fn default() -> Self {
        HashFileConfig {
            bucket_capacity: 64,
            max_depth: 20,
            merge_threshold: 0,
            io_latency_ns: 0,
        }
    }
}

impl HashFileConfig {
    /// A configuration with tiny buckets and a shallow directory, used by
    /// tests that need to force splits, merges, doubling and halving with
    /// few keys (like the paper's Figure 2 walk-through).
    pub fn tiny() -> Self {
        // max_depth 16, not smaller: with capacity-2 buckets even a few
        // hundred hashed keys are likely to contain three sharing 10+ low
        // pseudokey bits (birthday bound), which legitimately needs a deep
        // directory.
        HashFileConfig {
            bucket_capacity: 2,
            max_depth: 16,
            merge_threshold: 0,
            io_latency_ns: 0,
        }
    }

    /// A configuration sized like a real index page (4 KiB pages).
    pub fn realistic() -> Self {
        HashFileConfig {
            bucket_capacity: 250,
            max_depth: 22,
            merge_threshold: 0,
            io_latency_ns: 0,
        }
    }

    /// Set the bucket capacity (builder style).
    pub fn with_bucket_capacity(mut self, cap: usize) -> Self {
        self.bucket_capacity = cap;
        self
    }

    /// Set the maximum directory depth (builder style).
    pub fn with_max_depth(mut self, d: u32) -> Self {
        self.max_depth = d;
        self
    }

    /// Set the merge threshold (builder style).
    pub fn with_merge_threshold(mut self, t: usize) -> Self {
        self.merge_threshold = t;
        self
    }

    /// Set the simulated I/O latency (builder style).
    pub fn with_io_latency_ns(mut self, ns: u64) -> Self {
        self.io_latency_ns = ns;
        self
    }

    /// Validate the configuration, returning a descriptive error for
    /// nonsensical combinations.
    pub fn validate(&self) -> crate::Result<()> {
        if self.bucket_capacity == 0 {
            return Err(crate::Error::Config(
                "bucket_capacity must be at least 1".into(),
            ));
        }
        if self.bucket_capacity > MAX_SLOTS {
            return Err(crate::Error::Config(format!(
                "bucket_capacity must be at most {MAX_SLOTS} (one page's record slots), got {}",
                self.bucket_capacity
            )));
        }
        check_max_depth(self.max_depth)?;
        if self.merge_threshold >= self.bucket_capacity {
            return Err(crate::Error::Config(format!(
                "merge_threshold ({}) must be below bucket_capacity ({})",
                self.merge_threshold, self.bucket_capacity
            )));
        }
        Ok(())
    }
}

/// Client-side retry tuning for the distributed hash file.
///
/// A request that gets no reply within `timeout` is retried — against
/// the *next* directory manager (round-robin failover) — with
/// exponential backoff between attempts: the k-th retry waits
/// `min(base_backoff << k, max_backoff)`. Retries reuse the original
/// request id, so a directory manager that already executed the lost
/// reply's operation returns the recorded outcome instead of applying
/// it twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub attempts: u32,
    /// Per-attempt reply timeout in milliseconds.
    pub timeout_ms: u64,
    /// Backoff before the first retry, in milliseconds (doubles each
    /// retry).
    pub base_backoff_ms: u64,
    /// Upper bound on a single backoff, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            timeout_ms: 60_000,
            base_backoff_ms: 1,
            max_backoff_ms: 100,
        }
    }
}

impl RetryPolicy {
    /// A policy suited to lossy-network runs: several attempts, short
    /// per-attempt timeouts, millisecond backoff.
    pub fn aggressive() -> Self {
        RetryPolicy {
            attempts: 10,
            timeout_ms: 500,
            base_backoff_ms: 1,
            max_backoff_ms: 50,
        }
    }

    /// Set the attempt budget (builder style).
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts;
        self
    }

    /// Set the per-attempt timeout (builder style).
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = ms;
        self
    }

    /// Backoff before the k-th retry (k counted from 0), capped.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        self.base_backoff_ms
            .saturating_mul(1u64.checked_shl(retry).unwrap_or(u64::MAX))
            .min(self.max_backoff_ms)
    }

    /// Validate the policy.
    pub fn validate(&self) -> crate::Result<()> {
        if self.attempts == 0 {
            return Err(crate::Error::Config(
                "retry attempts must be at least 1".into(),
            ));
        }
        if self.timeout_ms == 0 {
            return Err(crate::Error::Config(
                "retry timeout_ms must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_validates_and_backs_off() {
        RetryPolicy::default().validate().unwrap();
        RetryPolicy::aggressive().validate().unwrap();
        assert!(RetryPolicy::default().with_attempts(0).validate().is_err());
        assert!(RetryPolicy {
            timeout_ms: 0,
            ..Default::default()
        }
        .validate()
        .is_err());

        let p = RetryPolicy {
            base_backoff_ms: 2,
            max_backoff_ms: 9,
            ..Default::default()
        };
        assert_eq!(p.backoff_ms(0), 2);
        assert_eq!(p.backoff_ms(1), 4);
        assert_eq!(p.backoff_ms(2), 8);
        assert_eq!(p.backoff_ms(3), 9, "capped");
        assert_eq!(p.backoff_ms(80), 9, "shift overflow saturates to the cap");
    }

    #[test]
    fn default_validates() {
        HashFileConfig::default().validate().unwrap();
        HashFileConfig::tiny().validate().unwrap();
        HashFileConfig::realistic().validate().unwrap();
    }

    #[test]
    fn rejects_zero_capacity() {
        let err = HashFileConfig::default()
            .with_bucket_capacity(0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("bucket_capacity"));
    }

    #[test]
    fn rejects_capacity_beyond_the_page_bitmap() {
        HashFileConfig::default()
            .with_bucket_capacity(MAX_SLOTS)
            .validate()
            .unwrap();
        let err = HashFileConfig::default()
            .with_bucket_capacity(MAX_SLOTS + 1)
            .validate()
            .unwrap_err();
        assert!(matches!(err, crate::Error::Config(_)));
        assert!(err.to_string().contains("at most 256"), "{err}");
    }

    #[test]
    fn rejects_silly_depths() {
        assert!(HashFileConfig::default()
            .with_max_depth(0)
            .validate()
            .is_err());
        assert!(HashFileConfig::default()
            .with_max_depth(27)
            .validate()
            .is_err());
        assert!(HashFileConfig::default()
            .with_max_depth(26)
            .validate()
            .is_ok());
    }

    #[test]
    fn rejects_merge_threshold_at_capacity() {
        let cfg = HashFileConfig::default()
            .with_bucket_capacity(4)
            .with_merge_threshold(4);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_chain() {
        let cfg = HashFileConfig::default()
            .with_bucket_capacity(8)
            .with_max_depth(12)
            .with_merge_threshold(2)
            .with_io_latency_ns(100);
        assert_eq!(cfg.bucket_capacity, 8);
        assert_eq!(cfg.max_depth, 12);
        assert_eq!(cfg.merge_threshold, 2);
        assert_eq!(cfg.io_latency_ns, 100);
    }
}
