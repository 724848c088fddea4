//! Timestamps: the "time" axis of Space-Time Memory.
//!
//! A [`Timestamp`] is a virtual time index, *not* a wall-clock time. In the
//! Smart Kiosk application a timestamp identifies the video frame a piece of
//! data was derived from, so items in different channels with equal
//! timestamps are temporally correlated (the paper's shaded task instances in
//! Figures 4–5 all share one timestamp).

use std::fmt;

/// A virtual-time index identifying one item within a channel.
///
/// Timestamps are totally ordered and dense in `u64`. A channel holds at most
/// one item per timestamp; distinct channels routinely hold items with the
/// same timestamp (the per-frame data products of one pipeline iteration).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The smallest timestamp.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The timestamp immediately after this one.
    #[must_use]
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }

    /// The timestamp immediately before this one, or `None` at zero.
    #[must_use]
    pub fn prev(self) -> Option<Timestamp> {
        self.0.checked_sub(1).map(Timestamp)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts({})", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_numeric() {
        assert!(Timestamp(1) < Timestamp(2));
        assert!(Timestamp(0) < Timestamp(u64::MAX));
        assert_eq!(Timestamp(7), Timestamp(7));
    }

    #[test]
    fn next_and_prev_are_inverse() {
        let t = Timestamp(41);
        assert_eq!(t.next(), Timestamp(42));
        assert_eq!(t.next().prev(), Some(t));
        assert_eq!(Timestamp::ZERO.prev(), None);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Timestamp(3)), "3");
        assert_eq!(format!("{:?}", Timestamp(3)), "ts(3)");
    }
}
