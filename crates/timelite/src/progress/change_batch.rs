//! Compactable batches of `(element, signed count)` updates.

/// A batch of updates to counts associated with ordered elements.
///
/// A `ChangeBatch` accumulates `(T, i64)` updates and compacts them on demand by
/// sorting and summing updates to the same element, discarding zeros. It is the
/// currency of progress tracking: operators report produced/consumed message
/// counts and held capability changes as change batches, which workers then
/// exchange and fold into the [`Tracker`](super::Tracker)'s per-port and
/// per-channel counts, themselves change batches.
#[derive(Clone, Debug, Default)]
pub struct ChangeBatch<T> {
    updates: Vec<(T, i64)>,
    /// Number of leading updates known to be compacted (sorted, deduplicated, non-zero).
    clean: usize,
}

impl<T: Ord + Clone> ChangeBatch<T> {
    /// Creates an empty batch.
    pub fn new() -> Self {
        ChangeBatch { updates: Vec::new(), clean: 0 }
    }

    /// Creates a batch containing a single update.
    pub fn new_from(key: T, val: i64) -> Self {
        let mut batch = Self::new();
        batch.update(key, val);
        batch
    }

    /// Creates an empty batch with capacity for `capacity` updates.
    pub fn with_capacity(capacity: usize) -> Self {
        ChangeBatch { updates: Vec::with_capacity(capacity), clean: 0 }
    }

    /// Adds `value` to the count for `item`.
    #[inline]
    pub fn update(&mut self, item: T, value: i64) {
        if value != 0 {
            self.updates.push((item, value));
            self.maintain();
        }
    }

    /// Adds all updates from `iterator`.
    pub fn extend<I: IntoIterator<Item = (T, i64)>>(&mut self, iterator: I) {
        self.updates.extend(iterator.into_iter().filter(|&(_, diff)| diff != 0));
        self.maintain();
    }

    /// Returns `true` iff the batch contains no net updates.
    pub fn is_empty(&mut self) -> bool {
        if self.clean > self.updates.len() / 2 {
            false
        } else {
            self.compact();
            self.updates.is_empty()
        }
    }

    /// Compacts and returns the net updates, leaving the batch empty.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (T, i64)> {
        self.compact();
        self.clean = 0;
        self.updates.drain(..)
    }

    /// Compacts and clones the net updates into a `Vec` without emptying the batch.
    pub fn clone_inner(&mut self) -> Vec<(T, i64)> {
        self.compact();
        self.updates.clone()
    }

    /// Compacts and iterates over the net updates.
    pub fn iter(&mut self) -> std::slice::Iter<'_, (T, i64)> {
        self.compact();
        self.updates.iter()
    }

    /// Drains `self` into `other`.
    pub fn drain_into(&mut self, other: &mut ChangeBatch<T>) {
        if other.updates.is_empty() {
            std::mem::swap(&mut self.updates, &mut other.updates);
            other.clean = self.clean;
            self.clean = 0;
        } else {
            other.extend(self.updates.drain(..));
            self.clean = 0;
        }
    }

    /// Number of compacted updates currently stored (after compaction).
    pub fn len(&mut self) -> usize {
        self.compact();
        self.updates.len()
    }

    /// The least element with a positive net count: the frontier of a count
    /// that may be transiently negative (a consumption reported before its
    /// production). Reads the batch as last compacted.
    pub(crate) fn least_positive(&self) -> Option<&T> {
        debug_assert_eq!(self.clean, self.updates.len(), "read of an uncompacted batch");
        self.updates.iter().find(|&&(_, count)| count > 0).map(|(element, _)| element)
    }

    /// Sorts and consolidates the updates, removing zero-count entries.
    pub(crate) fn compact(&mut self) {
        if self.clean < self.updates.len() && !self.updates.is_empty() {
            self.updates.sort_by(|x, y| x.0.cmp(&y.0));
            let mut cursor = 0;
            for index in 1..self.updates.len() {
                if self.updates[cursor].0 == self.updates[index].0 {
                    self.updates[cursor].1 += self.updates[index].1;
                    self.updates[index].1 = 0;
                } else {
                    if self.updates[cursor].1 != 0 {
                        cursor += 1;
                    }
                    self.updates.swap(cursor, index);
                }
            }
            if !self.updates.is_empty() && self.updates[cursor].1 != 0 {
                cursor += 1;
            }
            self.updates.truncate(cursor);
            self.clean = self.updates.len();
        }
    }

    /// Compacts opportunistically if the batch has accumulated many dirty updates.
    fn maintain(&mut self) {
        if self.updates.len() > 32 && self.updates.len() >= 2 * self.clean {
            self.compact();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_cancel() {
        let mut batch = ChangeBatch::new();
        batch.update(3u64, 1);
        batch.update(3u64, -1);
        assert!(batch.is_empty());
    }

    #[test]
    fn drain_is_consolidated_and_sorted() {
        let mut batch = ChangeBatch::new();
        batch.update(5u64, 2);
        batch.update(1u64, 1);
        batch.update(5u64, -1);
        batch.update(7u64, 0);
        let drained: Vec<_> = batch.drain().collect();
        assert_eq!(drained, vec![(1, 1), (5, 1)]);
        assert!(batch.is_empty());
    }

    #[test]
    fn extend_filters_zeros() {
        let mut batch = ChangeBatch::new();
        batch.extend(vec![(1u64, 0), (2, 3), (2, -3)]);
        assert!(batch.is_empty());
    }

    #[test]
    fn drain_into_merges() {
        let mut a = ChangeBatch::new_from(1u64, 1);
        let mut b = ChangeBatch::new_from(1u64, 2);
        a.drain_into(&mut b);
        assert!(a.is_empty());
        assert_eq!(b.drain().collect::<Vec<_>>(), vec![(1, 3)]);
    }

    #[test]
    fn many_updates_compact() {
        let mut batch = ChangeBatch::new();
        for i in 0..1000u64 {
            batch.update(i % 10, 1);
            batch.update(i % 10, -1);
        }
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
    }
}
