//! Time-ordered pending work, and the notificator surfaced to operator logic.
//!
//! Megaphone extends timely dataflow's `Notificator` idiom: operators can
//! schedule post-dated records for future times, and the library keeps the
//! records (inside the owning bin, so that they migrate with it) together with
//! the capabilities needed to eventually produce output (Section 4.3).
//!
//! The records live in the bin as *time runs* (see [`Bin`](crate::bins::Bin)):
//! one entry per distinct time. The hosting `S` operator keeps a
//! [`WakeupQueue`] beside them with **one wake-up per (bin, time) run** —
//! registered when the run is created, never per record — and one capability
//! per distinct time, so the queue is bounded by the runs of the hosted bins.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use timelite::dataflow::Capability;
use timelite::order::Timestamp;
use timelite::progress::Frontier;

use crate::bins::{pending_records, post_date, BinId, Runs};

/// An entry of a [`PendingQueue`], ordered by time.
struct Pending<T: Timestamp, P> {
    time: T,
    capability: Capability<T>,
    payload: P,
}

impl<T: Timestamp, P> PartialEq for Pending<T, P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
    }
}
impl<T: Timestamp, P> Eq for Pending<T, P> {}
impl<T: Timestamp, P> PartialOrd for Pending<T, P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Timestamp, P> Ord for Pending<T, P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time)
    }
}

/// A priority queue of `(time, capability, payload)` entries that releases
/// entries in timestamp order once the frontier has passed their time.
///
/// Internally a binary heap, as described in Section 4.3 ("the triples are
/// managed in a priority queue"), so very large numbers of pending entries can
/// be maintained efficiently.
pub struct PendingQueue<T: Timestamp, P> {
    heap: BinaryHeap<Reverse<Pending<T, P>>>,
}

impl<T: Timestamp, P> Default for PendingQueue<T, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Timestamp, P> PendingQueue<T, P> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PendingQueue { heap: BinaryHeap::new() }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` iff no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enqueues `payload` at the capability's time.
    pub fn push(&mut self, capability: Capability<T>, payload: P) {
        let time = capability.time().clone();
        self.heap.push(Reverse(Pending { time, capability, payload }));
    }

    /// The earliest pending time, if any.
    pub fn next_time(&self) -> Option<&T> {
        self.heap.peek().map(|Reverse(entry)| &entry.time)
    }

    /// Removes and returns, in timestamp order, all entries whose time is no
    /// longer in advance of `frontier` (i.e. entries whose time can no longer
    /// receive new records).
    pub fn drain_ready(&mut self, frontier: &Frontier<T>) -> Vec<(T, Capability<T>, P)> {
        let mut ready = Vec::new();
        while let Some(Reverse(entry)) = self.heap.peek() {
            if frontier.less_equal(&entry.time) {
                break;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked entry must exist");
            ready.push((entry.time, entry.capability, entry.payload));
        }
        ready
    }

    /// Returns `true` iff the earliest pending entry is already releasable
    /// under `frontier` — i.e. a [`drain_ready`](Self::drain_ready) call now
    /// would return work. Operators use this after processing to decide
    /// whether to re-activate themselves: entries enqueued at the time
    /// currently being retired are ready immediately, and no further frontier
    /// movement (hence no tracker-driven activation) may ever arrive. `S`,
    /// which waits for both its data and its state input, asks with the meet
    /// of the two frontiers.
    pub fn has_ready(&self, frontier: &Frontier<T>) -> bool {
        self.next_time().is_some_and(|time| !frontier.less_equal(time))
    }

    /// Removes and returns the entries of `time`, which must be the earliest
    /// pending time (`S` retires one time per invocation: the earliest that
    /// both of its frontiers have passed).
    pub fn drain_time(&mut self, time: &T) -> Vec<(Capability<T>, P)> {
        let mut entries = Vec::new();
        while self.next_time() == Some(time) {
            let Reverse(entry) = self.heap.pop().expect("peeked entry must exist");
            entries.push((entry.capability, entry.payload));
        }
        entries
    }
}

/// The wake-ups of one `S` operator: for every time at which a hosted bin has
/// a run of post-dated records, the bins to wake and the one capability that
/// lets `S` produce output then.
///
/// One wake-up per (bin, time) run, one capability per distinct time: the
/// queue's size is the number of runs of the hosted bins, however many records
/// the runs hold and however often their bins have migrated —
/// [`remove_bins`](Self::remove_bins) drops a bin's wake-ups when it leaves,
/// [`register_runs`](Self::register_runs) re-creates them where it arrives.
pub struct WakeupQueue<T: Timestamp> {
    times: BTreeMap<T, (Capability<T>, Vec<BinId>)>,
    /// Total wake-ups over all times (maintained, not summed).
    len: usize,
}

impl<T: Timestamp> Default for WakeupQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Timestamp> WakeupQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        WakeupQueue { times: BTreeMap::new(), len: 0 }
    }

    /// Number of registered wake-ups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` iff no wake-ups are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers a wake-up for `bin` at `time`, or — when `time` is already
    /// closed (not in advance of `capability`) — at the capability's own time,
    /// the earliest still-open one: a migrated or recovered run whose time has
    /// passed is delivered as soon as that time closes, exactly once, instead
    /// of panicking. Registering the same bin at the same time twice in a row
    /// (several closed runs of one bin) collapses into one wake-up.
    pub fn register(&mut self, time: T, capability: &Capability<T>, bin: BinId) {
        let open = capability.time();
        let time = if *open <= time { time } else { open.clone() };
        let (_, bins) = self
            .times
            .entry(time)
            .or_insert_with_key(|time| (capability.delayed(time), Vec::new()));
        if bins.last() != Some(&bin) {
            bins.push(bin);
            self.len += 1;
        }
    }

    /// Registers one wake-up per run of `pending`, the run list of the freshly
    /// installed or recovered `bin` (see [`register`](Self::register) for runs
    /// whose time is already closed).
    pub fn register_runs<D>(
        &mut self,
        bin: BinId,
        pending: &[(T, Vec<D>)],
        capability: &Capability<T>,
    ) {
        for (time, _) in pending {
            self.register(time.clone(), capability, bin);
        }
    }

    /// Drops every wake-up of the bins for which `departed` holds — bins that
    /// were extracted for migration, whose runs (and the duty to wake them)
    /// left with them — and the capability of every time left without one.
    pub fn remove_bins(&mut self, departed: impl Fn(BinId) -> bool) {
        let mut len = 0;
        self.times.retain(|_, (_, bins)| {
            bins.retain(|&bin| !departed(bin));
            len += bins.len();
            !bins.is_empty()
        });
        self.len = len;
    }

    /// The earliest time with a wake-up, if any.
    pub fn next_time(&self) -> Option<&T> {
        self.times.keys().next()
    }

    /// Returns `true` iff `frontier` has passed the earliest time with a
    /// wake-up (see [`PendingQueue::has_ready`] for why `S` asks).
    pub fn has_ready(&self, frontier: &Frontier<T>) -> bool {
        self.next_time().is_some_and(|time| !frontier.less_equal(time))
    }

    /// Removes and returns the wake-ups of `time`, if it has any: its
    /// capability and the bins to wake (a bin can appear more than once).
    pub fn take_time(&mut self, time: &T) -> Option<(Capability<T>, Vec<BinId>)> {
        let (capability, bins) = self.times.remove(time)?;
        self.len -= bins.len();
        Some((capability, bins))
    }
}

/// The handle through which operator logic schedules post-dated records for the
/// bin currently being processed.
///
/// Post-dated records join the bin's run for their time — so a migration
/// carries them to the bin's new owner — and the first record of a run
/// registers the run's one wake-up with the hosting `S` operator.
///
/// # Ordering contract
///
/// Records scheduled for one `(bin, time)` are re-presented in the order they
/// were scheduled, in one `fold` call; when runs of several times are due in
/// the same call (after a migration or recovery delivered closed runs late)
/// they come in (due time, scheduling) order, ahead of that time's fresh
/// records.
pub struct Notificator<'a, T: Timestamp, D> {
    time: &'a T,
    bin: BinId,
    bin_pending: &'a mut Runs<T, D>,
    wakeups: &'a mut WakeupQueue<T>,
    capability: &'a Capability<T>,
}

impl<'a, T: Timestamp, D> Notificator<'a, T, D> {
    /// Creates a notificator scoped to one bin at one processing time:
    /// `bin_pending` is the bin's run list, `capability` one for `time`.
    pub fn new(
        time: &'a T,
        bin: BinId,
        bin_pending: &'a mut Runs<T, D>,
        wakeups: &'a mut WakeupQueue<T>,
        capability: &'a Capability<T>,
    ) -> Self {
        Notificator { time, bin, bin_pending, wakeups, capability }
    }

    /// The time currently being processed.
    pub fn time(&self) -> &T {
        self.time
    }

    /// The bin currently being processed.
    pub fn bin(&self) -> BinId {
        self.bin
    }

    /// Schedules `record` to be re-presented to the operator at `time`.
    ///
    /// If `time` is *not* in advance of the time currently being processed —
    /// which out-of-order input makes routine, e.g. an event-time window whose
    /// end has already been passed by the processing clock — the record is
    /// delivered at the current time instead: it is re-presented exactly once,
    /// in the operator's next scheduling round, rather than panicking or being
    /// dropped.
    pub fn notify_at(&mut self, time: T, record: D) {
        let time = if *self.time <= time { time } else { self.time.clone() };
        if post_date(self.bin_pending, time.clone(), record) {
            self.wakeups.register(time, self.capability, self.bin);
        }
    }

    /// Returns `true` iff this bin already has a record scheduled for exactly
    /// `time` — a fold that needs one reminder per (bin, time), however many
    /// of its records ask for it, checks here before scheduling another.
    pub fn is_scheduled(&self, time: &T) -> bool {
        self.bin_pending.binary_search_by(|(run, _)| run.cmp(time)).is_ok()
    }

    /// The number of records currently pending for this bin.
    pub fn pending_len(&self) -> usize {
        pending_records(self.bin_pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use timelite::communication::shared_changes;
    use timelite::dataflow::Capability;

    /// Builds a capability backed by a scratch change batch (sufficient for tests).
    fn test_capability(time: u64) -> Capability<u64> {
        let internals = Rc::new(RefCell::new(vec![shared_changes::<u64>()]));
        Capability::mint(time, internals)
    }

    #[test]
    fn entries_release_in_time_order() {
        let mut queue = PendingQueue::new();
        queue.push(test_capability(5), "five");
        queue.push(test_capability(1), "one");
        queue.push(test_capability(3), "three");
        let ready = queue.drain_ready(&Frontier::at(4));
        let times: Vec<u64> = ready.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(times, vec![1, 3]);
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn frontier_boundary_is_exclusive() {
        let mut queue = PendingQueue::new();
        queue.push(test_capability(4), ());
        assert!(queue.drain_ready(&Frontier::at(4)).is_empty());
        assert_eq!(queue.drain_ready(&Frontier::at(5)).len(), 1);
    }

    #[test]
    fn empty_frontier_releases_everything() {
        let mut queue = PendingQueue::new();
        for time in 0..10u64 {
            queue.push(test_capability(time), time);
        }
        let ready = queue.drain_ready(&Frontier::empty());
        assert_eq!(ready.len(), 10);
        assert!(queue.is_empty());
    }

    #[test]
    fn readiness_requires_both_frontiers_and_a_time_leaves_whole() {
        let mut queue = PendingQueue::new();
        queue.push(test_capability(3), "a");
        queue.push(test_capability(4), "later");
        queue.push(test_capability(3), "b");
        let (ten, two, seven) = (Frontier::at(10), Frontier::at(2), Frontier::at(7));
        assert!(!queue.has_ready(&ten.meet(&two)));
        assert!(queue.has_ready(&ten.meet(&seven)));
        let mut payloads: Vec<_> = queue.drain_time(&3).into_iter().map(|entry| entry.1).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec!["a", "b"]);
        assert_eq!(queue.next_time(), Some(&4), "only the named time leaves");
    }

    #[test]
    fn notificator_opens_a_run_and_one_wakeup_per_time() {
        let mut pending = Vec::new();
        let mut wakeups = WakeupQueue::new();
        let cap = test_capability(5);
        {
            let mut notificator = Notificator::new(&5, 7, &mut pending, &mut wakeups, &cap);
            assert_eq!(notificator.time(), &5);
            assert_eq!(notificator.bin(), 7);
            notificator.notify_at(8, "future".to_string());
            notificator.notify_at(8, "same run".to_string());
            notificator.notify_at(6, "earlier".to_string());
            assert_eq!(notificator.pending_len(), 3);
            assert!(notificator.is_scheduled(&8) && notificator.is_scheduled(&6));
            assert!(!notificator.is_scheduled(&7));
        }
        assert_eq!(
            pending,
            vec![
                (6, vec!["earlier".to_string()]),
                (8, vec!["future".to_string(), "same run".to_string()]),
            ]
        );
        assert_eq!(wakeups.len(), 2, "one wake-up per run, not per record");
        for time in [6, 8] {
            let (held, bins) = wakeups.take_time(&time).expect("a wake-up per run");
            assert_eq!((held.time(), bins), (&time, vec![7]));
        }
        assert!(wakeups.is_empty());
    }

    #[test]
    fn notifying_in_the_past_delivers_at_the_current_time() {
        // A request for an already-closed time is clamped to the current time:
        // the record is queued once, at time 5, and released as soon as the
        // frontier passes 5 — immediate delivery, exactly once.
        let mut pending: Vec<(u64, Vec<()>)> = Vec::new();
        let mut wakeups = WakeupQueue::new();
        let cap = test_capability(5);
        {
            let mut notificator = Notificator::new(&5, 3, &mut pending, &mut wakeups, &cap);
            notificator.notify_at(3, ());
        }
        assert_eq!(pending, vec![(5, vec![()])]);
        assert_eq!(wakeups.next_time(), Some(&5));
        let open = Frontier::empty();
        assert!(!wakeups.has_ready(&Frontier::at(5).meet(&open)), "5 still open");
        assert!(wakeups.has_ready(&Frontier::at(6).meet(&open)));
        assert!(wakeups.take_time(&5).is_some());
        assert!(wakeups.is_empty(), "released exactly once");
    }

    #[test]
    fn wakeups_require_both_frontiers() {
        let mut wakeups = WakeupQueue::new();
        wakeups.register(3, &test_capability(3), 0);
        let (ten, two, seven) = (Frontier::at(10), Frontier::at(2), Frontier::at(7));
        assert!(!wakeups.has_ready(&ten.meet(&two)));
        assert!(wakeups.has_ready(&ten.meet(&seven)));
    }

    #[test]
    fn closed_runs_collapse_into_one_wakeup_at_the_capability_time() {
        // A migrated bin whose runs at 2 and 4 are already closed under the
        // install's capability (time 10): one wake-up at 10 delivers both;
        // the open runs keep their own times.
        let runs: Vec<(u64, Vec<u8>)> =
            vec![(2, vec![0]), (4, vec![0; 3]), (10, vec![0]), (15, vec![0])];
        let mut wakeups = WakeupQueue::new();
        let cap = test_capability(10);
        wakeups.register_runs(6, &runs, &cap);
        assert_eq!(wakeups.len(), 2);
        let (held, bins) = wakeups.take_time(&10).expect("the closed runs wake at 10");
        assert_eq!((held.time(), bins), (&10, vec![6]));
        assert_eq!(wakeups.next_time(), Some(&15));
    }

    #[test]
    fn removing_a_bin_drops_its_wakeups_and_idle_capabilities() {
        let mut wakeups = WakeupQueue::new();
        let cap = test_capability(0);
        for (time, bin) in [(5, 1), (5, 2), (7, 1), (9, 3)] {
            wakeups.register(time, &cap, bin);
        }
        assert_eq!(wakeups.len(), 4);
        wakeups.remove_bins(|bin| bin == 1);
        assert_eq!(wakeups.len(), 2);
        assert!(wakeups.take_time(&7).is_none(), "time 7 went with its only bin");
        assert_eq!(wakeups.take_time(&5).map(|(_, bins)| bins), Some(vec![2]));
        assert_eq!((wakeups.len(), wakeups.next_time()), (1, Some(&9)), "only time 5 left");
    }
}
