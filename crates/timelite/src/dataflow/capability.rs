//! Capabilities: the right to produce output at (or after) a logical time.
//!
//! Every message an operator receives comes bearing a capability for its
//! timestamp; operators may clone, downgrade, delay or drop capabilities. The
//! progress tracker only advances downstream frontiers once all capabilities for
//! earlier times have been dropped, which is what makes frontier-based
//! coordination (and Megaphone's migration planning) sound.

use std::cell::RefCell;
use std::rc::Rc;

use crate::communication::SharedChanges;
use crate::order::Timestamp;

/// The shared registry of capability change batches for an operator: one change
/// batch per output port.
pub type CapabilityInternals<T> = Rc<RefCell<Vec<SharedChanges<T>>>>;

/// The right to produce output messages at times greater than or equal to `time`.
///
/// Dropping the capability releases the time; cloning, delaying and downgrading
/// record the corresponding changes with the operator's progress accounting.
/// A capability covers all output ports of the operator that minted it.
pub struct Capability<T: Timestamp> {
    time: T,
    internals: CapabilityInternals<T>,
}

impl<T: Timestamp> Capability<T> {
    /// Mints a capability at `time`, recording `+1` on every output port.
    ///
    /// This is an advanced API for libraries building their own operators or
    /// tests that need standalone capabilities; within operators, capabilities
    /// are obtained from received messages or by delaying existing ones.
    pub fn mint(time: T, internals: CapabilityInternals<T>) -> Self {
        for changes in internals.borrow().iter() {
            changes.borrow_mut().update(time.clone(), 1);
        }
        Capability { time, internals }
    }

    /// Mints a capability without recording a change.
    ///
    /// Used only for the operator's initial capability at `T::minimum()`, whose
    /// count is seeded directly in every worker's tracker (once per peer) so that
    /// no worker can observe an early frontier before hearing from its peers.
    pub(crate) fn mint_unaccounted(time: T, internals: CapabilityInternals<T>) -> Self {
        Capability { time, internals }
    }

    /// The capability's time.
    pub fn time(&self) -> &T {
        &self.time
    }

    /// Creates a capability for a later time `new_time`.
    ///
    /// # Panics
    ///
    /// Panics if `new_time` is not in advance of the capability's time.
    pub fn delayed(&self, new_time: &T) -> Capability<T> {
        assert!(
            &self.time <= new_time,
            "cannot delay capability at {:?} to earlier time {:?}",
            self.time,
            new_time
        );
        Capability::mint(new_time.clone(), Rc::clone(&self.internals))
    }

    /// Downgrades this capability in place to the later time `new_time`.
    ///
    /// # Panics
    ///
    /// Panics if `new_time` is not in advance of the capability's time.
    pub fn downgrade(&mut self, new_time: &T) {
        assert!(
            &self.time <= new_time,
            "cannot downgrade capability at {:?} to earlier time {:?}",
            self.time,
            new_time
        );
        if &self.time != new_time {
            for changes in self.internals.borrow().iter() {
                let mut changes = changes.borrow_mut();
                changes.update(new_time.clone(), 1);
                changes.update(self.time.clone(), -1);
            }
            self.time = new_time.clone();
        }
    }

    /// The shared capability accounting of the operator that minted this
    /// capability (used by library code that needs to mint related capabilities).
    pub fn internals(&self) -> CapabilityInternals<T> {
        Rc::clone(&self.internals)
    }
}

impl<T: Timestamp> Clone for Capability<T> {
    fn clone(&self) -> Self {
        Capability::mint(self.time.clone(), Rc::clone(&self.internals))
    }
}

impl<T: Timestamp> Drop for Capability<T> {
    fn drop(&mut self) {
        for changes in self.internals.borrow().iter() {
            changes.borrow_mut().update(self.time.clone(), -1);
        }
    }
}

impl<T: Timestamp> std::fmt::Debug for Capability<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Capability").field("time", &self.time).finish()
    }
}

impl<T: Timestamp> PartialEq for Capability<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
    }
}
impl<T: Timestamp> Eq for Capability<T> {}

impl<T: Timestamp> PartialOrd for Capability<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Timestamp> Ord for Capability<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communication::shared_changes;

    fn internals_with_ports(ports: usize) -> CapabilityInternals<u64> {
        Rc::new(RefCell::new((0..ports).map(|_| shared_changes()).collect()))
    }

    fn net(internals: &CapabilityInternals<u64>, port: usize) -> Vec<(u64, i64)> {
        internals.borrow()[port].borrow_mut().clone_inner()
    }

    #[test]
    fn mint_and_drop_cancel() {
        let internals = internals_with_ports(2);
        let cap = Capability::mint(3, Rc::clone(&internals));
        assert_eq!(net(&internals, 0), vec![(3, 1)]);
        assert_eq!(net(&internals, 1), vec![(3, 1)]);
        drop(cap);
        assert!(net(&internals, 0).is_empty());
        assert!(net(&internals, 1).is_empty());
    }

    #[test]
    fn clone_accumulates() {
        let internals = internals_with_ports(1);
        let cap = Capability::mint(5, Rc::clone(&internals));
        let cap2 = cap.clone();
        assert_eq!(net(&internals, 0), vec![(5, 2)]);
        drop(cap);
        drop(cap2);
        assert!(net(&internals, 0).is_empty());
    }

    #[test]
    fn delayed_mints_later_time() {
        let internals = internals_with_ports(1);
        let cap = Capability::mint(5, Rc::clone(&internals));
        let later = cap.delayed(&9);
        assert_eq!(later.time(), &9);
        assert_eq!(net(&internals, 0), vec![(5, 1), (9, 1)]);
    }

    #[test]
    #[should_panic(expected = "cannot delay")]
    fn delayed_to_earlier_time_panics() {
        let internals = internals_with_ports(1);
        let cap = Capability::mint(5, Rc::clone(&internals));
        let _ = cap.delayed(&3);
    }

    #[test]
    fn downgrade_moves_count() {
        let internals = internals_with_ports(1);
        let mut cap = Capability::mint(5, Rc::clone(&internals));
        cap.downgrade(&8);
        assert_eq!(net(&internals, 0), vec![(8, 1)]);
        drop(cap);
        assert!(net(&internals, 0).is_empty());
    }

    #[test]
    fn unaccounted_mint_records_only_on_drop() {
        let internals = internals_with_ports(1);
        let cap = Capability::mint_unaccounted(0, Rc::clone(&internals));
        assert!(net(&internals, 0).is_empty());
        drop(cap);
        assert_eq!(net(&internals, 0), vec![(0, -1)]);
    }

    #[test]
    fn capabilities_order_by_time() {
        let internals = internals_with_ports(0);
        let a = Capability::mint(1u64, Rc::clone(&internals));
        let b = Capability::mint(2u64, Rc::clone(&internals));
        assert!(a < b);
        assert_eq!(a, a.clone());
    }
}
