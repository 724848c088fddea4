//! Error types for channel operations.

use crate::time::Timestamp;
use std::fmt;

/// Result alias used throughout the crate.
pub type StmResult<T, E> = Result<T, E>;

/// Why a `put` was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PutError {
    /// An item with this timestamp already exists (or existed) in the
    /// channel. STM forbids two items with the same timestamp.
    DuplicateTimestamp(Timestamp),
    /// The timestamp lies below some consumer's frontier: the item could
    /// never be observed, so accepting it would silently drop data.
    BelowFrontier(Timestamp),
    /// The channel was closed for input.
    Closed,
    /// `try_put` on a channel at capacity (blocking `put` waits instead).
    Full,
}

impl fmt::Display for PutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PutError::DuplicateTimestamp(ts) => {
                write!(f, "channel already holds an item at {ts}")
            }
            PutError::BelowFrontier(ts) => {
                write!(f, "timestamp {ts} is below a consumer frontier")
            }
            PutError::Closed => write!(f, "channel is closed for input"),
            PutError::Full => write!(f, "channel is at capacity"),
        }
    }
}

impl std::error::Error for PutError {}

/// Why a matching item was not returned by `try_get`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissReason {
    /// No item currently matches the spec, but one may still be put.
    NotYetAvailable,
    /// The requested timestamp was already consumed over this connection.
    AlreadyConsumed,
    /// The requested timestamp lies below this connection's frontier, so it
    /// can never be satisfied.
    BelowFrontier,
    /// The channel is closed and no matching item will ever arrive.
    ClosedEmpty,
    /// The producer marked this timestamp skipped
    /// ([`OutputConn::mark_skipped`](crate::OutputConn::mark_skipped)): the
    /// item will never be put, so waiting is pointless. This is the
    /// load-independent cascade signal for dropped frames — consumers skip
    /// immediately instead of burning a wall-clock deadline.
    Skipped,
}

/// A failed `try_get`, carrying the *neighbouring* available timestamps as in
/// the Stampede API (paper Fig. 8: "if unavailable, it returns the timestamps
/// of the neighbouring available items").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GetMiss {
    /// Why the spec could not be satisfied.
    pub reason: MissReason,
    /// Largest available timestamp strictly below the request point, if any.
    pub below: Option<Timestamp>,
    /// Smallest available timestamp at/above the request point, if any.
    pub above: Option<Timestamp>,
}

impl fmt::Display for GetMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "get miss ({:?}; neighbours below={:?} above={:?})",
            self.reason, self.below, self.above
        )
    }
}

/// A failed *blocking* `get`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GetError {
    /// The channel closed while waiting and the item cannot arrive.
    Closed,
    /// The requested timestamp can never be satisfied on this connection
    /// (below frontier or already consumed).
    Unsatisfiable(MissReason),
    /// The optional timeout elapsed.
    Timeout,
}

impl GetError {
    /// True when this error means the stream has *ended* for the requested
    /// point: the channel closed, or the timestamp fell below the
    /// connection's own frontier (a sibling instance already settled it).
    /// Consumers should stop, not retry.
    #[must_use]
    pub fn is_end_of_stream(&self) -> bool {
        matches!(
            self,
            GetError::Closed | GetError::Unsatisfiable(MissReason::BelowFrontier)
        )
    }
}

impl fmt::Display for GetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GetError::Closed => write!(f, "channel closed while waiting"),
            GetError::Unsatisfiable(r) => write!(f, "request can never be satisfied: {r:?}"),
            GetError::Timeout => write!(f, "get timed out"),
        }
    }
}

impl std::error::Error for GetError {}

/// Errors from `consume`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConsumeError {
    /// The timestamp is below this connection's frontier (already implicitly
    /// consumed) — double accounting is refused.
    BelowFrontier(Timestamp),
    /// The timestamp was already explicitly consumed on this connection.
    AlreadyConsumed(Timestamp),
}

impl fmt::Display for ConsumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsumeError::BelowFrontier(ts) => write!(f, "{ts} is below the frontier"),
            ConsumeError::AlreadyConsumed(ts) => write!(f, "{ts} was already consumed"),
        }
    }
}

impl std::error::Error for ConsumeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_error_classification() {
        assert!(GetError::Closed.is_end_of_stream());
        assert!(GetError::Unsatisfiable(MissReason::BelowFrontier).is_end_of_stream());
        assert!(!GetError::Unsatisfiable(MissReason::AlreadyConsumed).is_end_of_stream());
        assert!(
            !GetError::Unsatisfiable(MissReason::Skipped).is_end_of_stream(),
            "a skipped frame ends only that frame, not the stream"
        );
        assert!(!GetError::Timeout.is_end_of_stream());
    }

    #[test]
    fn errors_format() {
        let s = PutError::DuplicateTimestamp(Timestamp(3)).to_string();
        assert!(s.contains('3'));
        let m = GetMiss {
            reason: MissReason::NotYetAvailable,
            below: Some(Timestamp(1)),
            above: None,
        };
        assert!(m.to_string().contains("below"));
        assert!(GetError::Timeout.to_string().contains("timed out"));
        assert!(ConsumeError::AlreadyConsumed(Timestamp(9))
            .to_string()
            .contains('9'));
    }
}
