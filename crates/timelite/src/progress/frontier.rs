//! The frontier of a totally ordered time domain.

/// The least time that may still appear at some point of a dataflow, or none
/// once nothing more will (Definitions 1 and 2 of the Megaphone paper, for
/// totally ordered times).
///
/// A time is *in advance of* the frontier when it is greater than or equal to
/// the frontier's time; no time is in advance of an empty frontier.
///
/// The wrapper deliberately implements no ordering: `Option`'s would sort an
/// empty (complete) frontier before every time, which is the opposite of what
/// it means. [`meet`](Self::meet) is the only way to combine two frontiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frontier<T> {
    time: Option<T>,
}

impl<T: Ord + Clone> Frontier<T> {
    /// The frontier at `time`: `time` and every later time may still appear.
    pub fn at(time: T) -> Self {
        Frontier { time: Some(time) }
    }

    /// The empty frontier: no time will appear any more.
    pub fn empty() -> Self {
        Frontier { time: None }
    }

    /// Returns `true` iff `time` is in advance of the frontier, i.e. records
    /// at `time` may still appear.
    #[inline]
    pub fn less_equal(&self, time: &T) -> bool {
        self.time.as_ref().is_some_and(|frontier| frontier <= time)
    }

    /// Returns `true` iff some time earlier than `time` may still appear.
    #[inline]
    pub fn less_than(&self, time: &T) -> bool {
        self.time.as_ref().is_some_and(|frontier| frontier < time)
    }

    /// Returns `true` iff no time will appear any more.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.time.is_none()
    }

    /// The frontier at `time`, or the empty frontier for `None`.
    pub(crate) fn from_time(time: Option<T>) -> Self {
        Frontier { time }
    }

    /// The least time that may still appear, if any.
    #[inline]
    pub fn time(&self) -> Option<&T> {
        self.time.as_ref()
    }

    /// The frontier of the union of both sides: the earlier of the two times.
    /// An empty frontier holds nothing back, so it is the identity.
    pub fn meet(&self, other: &Self) -> Self {
        Frontier { time: least(self.time(), other.time()).cloned() }
    }
}

/// The earlier of two frontier times, where `None` (empty) holds nothing back.
#[inline]
pub(crate) fn least<'a, T: Ord>(a: Option<&'a T>, b: Option<&'a T>) -> Option<&'a T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meet_takes_the_earlier_time_and_ignores_an_empty_side() {
        let (empty, three, five) = (Frontier::empty(), Frontier::at(3u64), Frontier::at(5u64));
        assert_eq!(empty.meet(&three), three);
        assert_eq!(three.meet(&empty), three);
        assert_eq!(empty.meet(&empty), empty);
        assert_eq!(three.meet(&five), three);
        assert_eq!(five.meet(&three), three);
    }

    #[test]
    fn less_equal_is_inclusive_and_less_than_strict() {
        let frontier = Frontier::at(4u64);
        assert!(frontier.less_equal(&4) && frontier.less_equal(&10));
        assert!(!frontier.less_equal(&3));
        assert!(!frontier.less_than(&4) && frontier.less_than(&5));
        assert_eq!(frontier.time(), Some(&4));
    }

    #[test]
    fn an_empty_frontier_holds_back_no_time() {
        let frontier = Frontier::<u64>::empty();
        assert!(frontier.is_empty());
        assert!(!frontier.less_equal(&0) && !frontier.less_than(&u64::MAX));
        assert_eq!(frontier.time(), None);
    }
}
