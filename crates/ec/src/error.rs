//! Error type for the erasure-coding substrate.

use std::error::Error;
use std::fmt;

/// Errors returned by the `agar-ec` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EcError {
    /// The matrix has no inverse.
    SingularMatrix,
    /// Coding parameters are outside the supported range.
    InvalidCodingParams {
        /// Number of data chunks requested.
        data_chunks: usize,
        /// Number of parity chunks requested.
        parity_chunks: usize,
    },
    /// The number of shards handed to encode/reconstruct does not match
    /// the code's `k + m`.
    WrongShardCount {
        /// Shards provided.
        provided: usize,
        /// Shards expected.
        expected: usize,
    },
    /// Shards must all have the same non-zero length.
    ShardSizeMismatch,
    /// Too few shards are present to reconstruct the data.
    NotEnoughShards {
        /// Shards present.
        present: usize,
        /// Shards needed (the code's `k`).
        needed: usize,
    },
}

impl fmt::Display for EcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcError::SingularMatrix => write!(f, "matrix is singular"),
            EcError::InvalidCodingParams {
                data_chunks,
                parity_chunks,
            } => write!(
                f,
                "unsupported coding parameters k={data_chunks}, m={parity_chunks}"
            ),
            EcError::WrongShardCount { provided, expected } => {
                write!(f, "expected {expected} shards, got {provided}")
            }
            EcError::ShardSizeMismatch => {
                write!(f, "shards must all have the same non-zero length")
            }
            EcError::NotEnoughShards { present, needed } => {
                write!(f, "only {present} shards present, need at least {needed}")
            }
        }
    }
}

impl Error for EcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(EcError, &str)> = vec![
            (EcError::SingularMatrix, "singular"),
            (
                EcError::InvalidCodingParams {
                    data_chunks: 0,
                    parity_chunks: 3,
                },
                "k=0",
            ),
            (
                EcError::WrongShardCount {
                    provided: 3,
                    expected: 12,
                },
                "expected 12",
            ),
            (EcError::ShardSizeMismatch, "same non-zero length"),
            (
                EcError::NotEnoughShards {
                    present: 4,
                    needed: 9,
                },
                "need at least 9",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
            assert!(
                !msg.ends_with('.'),
                "{msg:?} should not end with punctuation"
            );
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<EcError>();
    }
}
