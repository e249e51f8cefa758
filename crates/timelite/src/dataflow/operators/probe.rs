//! Probes: observing the frontier of an arbitrary dataflow edge from outside.
//!
//! Probes are the mechanism Megaphone's `F` operators use to monitor the output
//! frontier of the downstream `S` operators (Section 4.3 of the paper), and the
//! mechanism the measurement harness uses to detect when an epoch has been fully
//! processed.

use std::cell::RefCell;
use std::rc::Rc;

use crate::communication::Pact;
use crate::dataflow::operator::OperatorBuilder;
use crate::dataflow::stream::Stream;
use crate::order::Timestamp;
use crate::progress::Frontier;
use crate::schedule::Activator;
use crate::Data;

/// A shared handle reporting the frontier observed at a probed stream.
pub struct ProbeHandle<T: Timestamp> {
    frontier: Rc<RefCell<Frontier<T>>>,
    /// Activators to fire whenever the observed frontier actually changes.
    ///
    /// This is how an operator watching a *downstream* frontier (Megaphone's
    /// `F` gating migrations on the `S` output frontier) gets scheduled under
    /// demand-driven scheduling: the downstream movement never touches the
    /// watcher's own input frontiers, so without this wakeup the watcher
    /// would sleep through the very event it is waiting for.
    observers: Rc<RefCell<Vec<Activator>>>,
}

impl<T: Timestamp> Clone for ProbeHandle<T> {
    fn clone(&self) -> Self {
        ProbeHandle {
            frontier: Rc::clone(&self.frontier),
            observers: Rc::clone(&self.observers),
        }
    }
}

impl<T: Timestamp> Default for ProbeHandle<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Timestamp> ProbeHandle<T> {
    /// Creates a probe handle not yet attached to any stream.
    ///
    /// Until attached and scheduled, the handle conservatively reports the
    /// frontier at `T::minimum()`.
    pub fn new() -> Self {
        ProbeHandle {
            frontier: Rc::new(RefCell::new(Frontier::at(T::minimum()))),
            observers: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Registers `activator` to fire whenever the probed frontier changes.
    pub fn wake_on_change(&self, activator: Activator) {
        self.observers.borrow_mut().push(activator);
    }

    /// Returns `true` iff the probed frontier is strictly less than `time`,
    /// i.e. some record with an earlier timestamp may still appear.
    pub fn less_than(&self, time: &T) -> bool {
        self.frontier.borrow().less_than(time)
    }

    /// Returns `true` iff the probed frontier is less than or equal to `time`.
    pub fn less_equal(&self, time: &T) -> bool {
        self.frontier.borrow().less_equal(time)
    }

    /// Returns `true` iff the probed stream is complete (its frontier is empty).
    pub fn done(&self) -> bool {
        self.frontier.borrow().is_empty()
    }

    fn install(&self, frontier: &Frontier<T>) {
        // Observers are only woken on an actual change.
        if *self.frontier.borrow() != *frontier {
            *self.frontier.borrow_mut() = frontier.clone();
            for observer in self.observers.borrow().iter() {
                observer.activate();
            }
        }
    }
}

impl<T: Timestamp, D: Data> Stream<T, D> {
    /// Attaches a new probe to this stream and returns its handle.
    pub fn probe(&self) -> ProbeHandle<T> {
        let mut handle = ProbeHandle::new();
        self.probe_with(&mut handle);
        handle
    }

    /// Attaches `handle` to this stream, so that it reports the stream's frontier.
    ///
    /// Returns a clone of the stream for further chaining.
    pub fn probe_with(&self, handle: &mut ProbeHandle<T>) -> Stream<T, D> {
        let mut builder = OperatorBuilder::new("Probe", self.scope());
        let mut input = builder.new_input(self, Pact::Pipeline);
        let handle = handle.clone();
        builder.build(move |_capability| {
            move |frontiers: &[Frontier<T>]| {
                // Drain (and account for) any records, then publish the frontier.
                input.for_each(|_cap, _data| {});
                handle.install(&frontiers[0]);
            }
        });
        self.clone()
    }
}
