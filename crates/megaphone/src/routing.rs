//! The time-versioned routing table maintained by the `F` operators.
//!
//! The configuration function `configuration : (time, bin) -> worker`
//! (Section 3.2) is represented as a base assignment plus a set of timestamped
//! updates. Lookups ask for the worker owning a bin *at a given time*; updates
//! whose time can no longer be needed (because the data frontier has passed
//! them) are folded into the base assignment.

use std::borrow::Cow;
use std::collections::BTreeMap;

use timelite::order::Timestamp;
use timelite::progress::Frontier;

use crate::bins::BinId;
use crate::control::ControlInst;

/// A bin-to-worker assignment that varies with logical time.
#[derive(Clone, Debug)]
pub struct RoutingTable<T: Ord> {
    /// The assignment in effect before any retained update.
    base: Vec<usize>,
    /// Timestamped updates, in effect from their time onward.
    updates: BTreeMap<T, Vec<(BinId, usize)>>,
}

impl<T: Timestamp> RoutingTable<T> {
    /// Creates a routing table with the given initial assignment.
    pub fn new(initial: Vec<usize>) -> Self {
        assert!(!initial.is_empty(), "routing table requires at least one bin");
        RoutingTable { base: initial, updates: BTreeMap::new() }
    }

    /// The number of bins.
    pub fn bins(&self) -> usize {
        self.base.len()
    }

    /// Records a configuration update taking effect at `time`.
    pub fn insert(&mut self, time: T, instruction: &ControlInst) {
        match instruction {
            ControlInst::Move(bin, worker) => {
                assert!(*bin < self.base.len(), "bin {} out of range", bin);
                self.updates.entry(time).or_default().push((*bin, *worker));
            }
            ControlInst::Map(map) => {
                assert_eq!(map.len(), self.base.len(), "map must cover every bin");
                let entry = self.updates.entry(time).or_default();
                entry.extend(map.iter().copied().enumerate());
            }
            ControlInst::None => {}
        }
    }

    /// The worker responsible for `bin` at `time`.
    ///
    /// Callers must only ask about times whose configuration is final (not in
    /// advance of the control input frontier); the table itself cannot check
    /// this.
    pub fn lookup(&self, time: &T, bin: BinId) -> usize {
        for (_, changes) in self.updates.range(..=time.clone()).rev() {
            if let Some((_, worker)) = changes.iter().rev().find(|(b, _)| *b == bin) {
                return *worker;
            }
        }
        self.base[bin]
    }

    /// The whole assignment in effect at `time`, resolved once so a batch of
    /// records at one time indexes it per record instead of repeating
    /// [`lookup`](Self::lookup)'s scan: the borrowed base assignment when no
    /// retained update applies (every time outside a migration), otherwise a
    /// copy with the applicable updates replayed in time order.
    pub fn resolve(&self, time: &T) -> Cow<'_, [usize]> {
        let mut applicable = self.updates.range(..=time.clone()).peekable();
        if applicable.peek().is_none() {
            return Cow::Borrowed(&self.base);
        }
        let mut assignment = self.base.clone();
        for (_, changes) in applicable {
            for &(bin, worker) in changes {
                assignment[bin] = worker;
            }
        }
        Cow::Owned(assignment)
    }

    /// The worker responsible for `bin` immediately *before* `time`: the source
    /// of a migration taking effect at `time`.
    pub fn lookup_before(&self, time: &T, bin: BinId) -> usize {
        for (update_time, changes) in self.updates.range(..time.clone()).rev() {
            debug_assert!(update_time < time);
            if let Some((_, worker)) = changes.iter().rev().find(|(b, _)| *b == bin) {
                return *worker;
            }
        }
        self.base[bin]
    }

    /// Folds updates that can no longer be observed into the base assignment.
    ///
    /// An update at time `t` can be retired once the data input frontier has
    /// passed `t`: no future record can ask about an earlier time.
    pub fn compact(&mut self, data_frontier: &Frontier<T>) {
        let retired: Vec<T> = self
            .updates
            .keys()
            .filter(|time| !data_frontier.less_equal(time))
            .cloned()
            .collect();
        for time in retired {
            if let Some(changes) = self.updates.remove(&time) {
                for (bin, worker) in changes {
                    self.base[bin] = worker;
                }
            }
        }
    }

    /// The number of retained (not yet compacted) update times.
    pub fn pending_updates(&self) -> usize {
        self.updates.len()
    }

    /// The full assignment in effect at `time` (primarily for diagnostics/tests).
    pub fn assignment_at(&self, time: &T) -> Vec<usize> {
        self.resolve(time).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RoutingTable<u64> {
        RoutingTable::new(vec![0, 1, 0, 1])
    }

    #[test]
    fn lookup_uses_base_before_updates() {
        let table = table();
        assert_eq!(table.lookup(&0, 0), 0);
        assert_eq!(table.lookup(&100, 3), 1);
    }

    #[test]
    fn updates_take_effect_at_their_time() {
        let mut table = table();
        table.insert(10, &ControlInst::Move(0, 3));
        assert_eq!(table.lookup(&9, 0), 0, "before the update the old owner applies");
        assert_eq!(table.lookup(&10, 0), 3, "at the update time the new owner applies");
        assert_eq!(table.lookup(&11, 0), 3);
        assert_eq!(table.lookup(&11, 1), 1, "unaffected bins keep their owner");
    }

    #[test]
    fn later_updates_override_earlier_ones() {
        let mut table = table();
        table.insert(10, &ControlInst::Move(0, 3));
        table.insert(20, &ControlInst::Move(0, 2));
        assert_eq!(table.lookup(&15, 0), 3);
        assert_eq!(table.lookup(&20, 0), 2);
        assert_eq!(table.lookup(&25, 0), 2);
    }

    #[test]
    fn lookup_before_names_migration_source() {
        let mut table = table();
        table.insert(10, &ControlInst::Move(0, 3));
        table.insert(20, &ControlInst::Move(0, 2));
        assert_eq!(table.lookup_before(&10, 0), 0);
        assert_eq!(table.lookup_before(&20, 0), 3);
    }

    #[test]
    fn map_updates_replace_everything() {
        let mut table = table();
        table.insert(5, &ControlInst::Map(vec![2, 2, 2, 2]));
        assert_eq!(table.assignment_at(&5), vec![2, 2, 2, 2]);
        assert_eq!(table.assignment_at(&4), vec![0, 1, 0, 1]);
    }

    #[test]
    fn compact_folds_retired_updates() {
        let mut table = table();
        table.insert(10, &ControlInst::Move(0, 3));
        table.insert(20, &ControlInst::Move(1, 3));
        table.compact(&Frontier::at(15));
        assert_eq!(table.pending_updates(), 1, "only the update at 20 is retained");
        assert_eq!(table.lookup(&16, 0), 3, "compacted update still visible through base");
        assert_eq!(table.lookup(&25, 1), 3);
    }

    #[test]
    fn compact_with_empty_frontier_retires_everything() {
        let mut table = table();
        table.insert(10, &ControlInst::Move(0, 3));
        table.compact(&Frontier::empty());
        assert_eq!(table.pending_updates(), 0);
        assert_eq!(table.lookup(&0, 0), 3);
    }

    #[test]
    fn resolve_borrows_the_base_until_an_update_applies() {
        let mut table = table();
        table.insert(10, &ControlInst::Move(0, 3));
        assert!(matches!(table.resolve(&9), Cow::Borrowed(_)), "no update applies before 10");
        assert!(matches!(table.resolve(&10), Cow::Owned(_)));
        table.compact(&Frontier::at(11));
        assert!(matches!(table.resolve(&10), Cow::Borrowed(_)), "compacted into the base");
    }

    /// The per-time resolved view must agree with the per-bin `lookup` for
    /// every bin, across random interleavings of `Move`/`Map` inserts,
    /// compactions and query times.
    #[test]
    fn resolved_view_equals_lookup_for_every_bin() {
        const BINS: usize = 16;
        const WORKERS: u64 = 5;
        for seed in 1..=64u64 {
            let mut rng = seed;
            let mut below = move |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
            };
            let mut table = RoutingTable::<u64>::new((0..BINS).map(|bin| bin % 3).collect());
            // Updates are only ever inserted at or after the compaction
            // frontier, as F does (control times never trail the data frontier).
            let mut frontier = 0u64;
            for _ in 0..48 {
                match below(8) {
                    0 => {
                        frontier += below(6);
                        table.compact(&Frontier::at(frontier));
                    }
                    1 => {
                        let map = (0..BINS).map(|_| below(WORKERS) as usize).collect();
                        table.insert(frontier + below(12), &ControlInst::Map(map));
                    }
                    2 | 3 => {
                        let instruction =
                            ControlInst::Move(below(BINS as u64) as usize, below(WORKERS) as usize);
                        table.insert(frontier + below(12), &instruction);
                    }
                    _ => {
                        let time = frontier + below(16);
                        let resolved = table.resolve(&time);
                        assert_eq!(resolved.len(), BINS);
                        for bin in 0..BINS {
                            assert_eq!(
                                resolved[bin],
                                table.lookup(&time, bin),
                                "seed {seed}: bin {bin} at time {time}"
                            );
                        }
                        assert_eq!(table.assignment_at(&time), resolved.into_owned());
                    }
                }
            }
        }
    }

    #[test]
    fn none_instructions_change_nothing() {
        let mut table = table();
        table.insert(10, &ControlInst::None);
        assert_eq!(table.pending_updates(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bins_rejected() {
        let mut table = table();
        table.insert(10, &ControlInst::Move(17, 0));
    }
}
