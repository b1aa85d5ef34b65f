//! The workspace error type.

use core::fmt;

/// Errors surfaced by the hash-file implementations and their substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An invalid configuration was supplied.
    Config(String),
    /// The directory cannot grow past its configured `max_depth` and a
    /// split required doubling it. The paper's fixed-size
    /// `directory[1<<maxdepth]` has the same limit, implicitly.
    DirectoryFull {
        /// The configured maximum depth.
        max_depth: u32,
    },
    /// A bucket could not be split into a state that admits the new record
    /// after exhausting retries (adversarially colliding pseudokeys at
    /// max depth).
    UnsplittableBucket,
    /// The page store has no free pages left.
    OutOfPages,
    /// An access touched a page that is not currently allocated. With
    /// freed-page poisoning enabled this is how locking-protocol
    /// violations surface.
    PageFault {
        /// The offending page address.
        page: u64,
    },
    /// A page's bytes failed to decode as a bucket (corruption, or a read
    /// raced a torn write — which the atomic page store makes impossible,
    /// so in practice: a protocol bug).
    Corrupt(String),
    /// An operating-system I/O failure from a file-backed medium (or a
    /// socket).
    Io(String),
    /// A distributed request failed because the cluster is shutting down
    /// or a manager is unreachable.
    Unavailable(String),
    /// An operation exceeded its retry budget (potential livelock under an
    /// adversarial schedule; see DESIGN.md §3.5).
    RetriesExhausted {
        /// Which operation gave up.
        op: &'static str,
    },
    /// The durable store lost power (a `CrashPlan` fired, or
    /// `power_off` was called). Every subsequent operation on the dead
    /// store fails with this until the disk image is recovered into a
    /// fresh store.
    PowerLoss,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::DirectoryFull { max_depth } => {
                write!(f, "directory cannot grow past max_depth {max_depth}")
            }
            Error::UnsplittableBucket => {
                write!(f, "bucket split failed to make room for the new record")
            }
            Error::OutOfPages => write!(f, "page store exhausted"),
            Error::PageFault { page } => write!(f, "access to unallocated page p{page}"),
            Error::Corrupt(msg) => write!(f, "corrupt page: {msg}"),
            Error::Io(msg) => write!(f, "backing file I/O failed: {msg}"),
            Error::Unavailable(msg) => write!(f, "service unavailable: {msg}"),
            Error::RetriesExhausted { op } => write!(f, "{op}: retry budget exhausted"),
            Error::PowerLoss => write!(f, "durable store lost power"),
        }
    }
}

impl std::error::Error for Error {}

/// Workspace result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(Error::DirectoryFull { max_depth: 8 }
            .to_string()
            .contains("max_depth 8"));
        assert!(Error::PageFault { page: 7 }.to_string().contains("p7"));
        assert!(Error::RetriesExhausted { op: "insert" }
            .to_string()
            .contains("insert"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::OutOfPages);
    }
}
