//! Dataflow inputs: the bridge between user code and a running dataflow.

use crate::communication::{shared_changes, shared_tee, SharedChanges, SharedTee};
use crate::dataflow::scope::Scope;
use crate::dataflow::stream::Stream;
use crate::order::Timestamp;
use crate::progress::Port;
use crate::schedule::Activator;
use crate::Data;

/// A handle through which user code introduces records into a dataflow and
/// advances the input's epoch.
///
/// The handle holds a capability for its current epoch; [`advance_to`] releases
/// earlier epochs, allowing downstream frontiers to advance. Dropping (or
/// [`close`]-ing) the handle releases the capability entirely.
///
/// [`advance_to`]: InputHandle::advance_to
/// [`close`]: InputHandle::close
pub struct InputHandle<T: Timestamp, D: Data> {
    time: T,
    buffer: Vec<D>,
    tee: SharedTee<T, D>,
    internal: SharedChanges<T>,
    /// Wakes the input node and raises the progress flag: `advance_to`,
    /// `close` and `flush` run from user code *between* worker steps, so they
    /// are the one progress mutator the step loop cannot observe through
    /// operators running — without this hook a demand-driven worker would
    /// never notice the released capability and stall.
    activator: Activator,
    closed: bool,
}

/// The number of buffered records after which `send` flushes automatically.
const FLUSH_THRESHOLD: usize = 4096;

impl<T: Timestamp, D: Data> InputHandle<T, D> {
    fn new(tee: SharedTee<T, D>, internal: SharedChanges<T>, activator: Activator) -> Self {
        InputHandle { time: T::minimum(), buffer: Vec::new(), tee, internal, activator, closed: false }
    }

    /// The input's current epoch.
    pub fn time(&self) -> &T {
        &self.time
    }

    /// Alias of [`time`](Self::time), matching timely dataflow's naming.
    pub fn epoch(&self) -> &T {
        &self.time
    }

    /// Introduces one record at the current epoch.
    #[inline]
    pub fn send(&mut self, record: D) {
        assert!(!self.closed, "cannot send on a closed input");
        self.buffer.push(record);
        if self.buffer.len() >= FLUSH_THRESHOLD {
            self.flush();
        }
    }

    /// Introduces a batch of records at the current epoch, draining `records`.
    pub fn send_batch(&mut self, records: &mut Vec<D>) {
        assert!(!self.closed, "cannot send on a closed input");
        if self.buffer.is_empty() {
            std::mem::swap(&mut self.buffer, records);
        } else {
            self.buffer.append(records);
        }
        if self.buffer.len() >= FLUSH_THRESHOLD {
            self.flush();
        }
    }

    /// Flushes buffered records into the dataflow.
    pub fn flush(&mut self) {
        if !self.buffer.is_empty() {
            let batch = std::mem::take(&mut self.buffer);
            self.tee.borrow_mut().push(&self.time, batch);
        }
    }

    /// Advances the input to epoch `time`, releasing all earlier epochs.
    ///
    /// Downgrading the input's capability also flushes the channels' staging
    /// buffers, so the completed epoch's records reach remote workers without
    /// waiting for the next scheduling round.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not in advance of the current epoch or the input is closed.
    pub fn advance_to(&mut self, time: T) {
        assert!(!self.closed, "cannot advance a closed input");
        assert!(
            self.time <= time,
            "cannot advance input from {:?} back to {:?}",
            self.time,
            time
        );
        if self.time != time {
            self.flush();
            self.tee.borrow_mut().flush();
            let mut internal = self.internal.borrow_mut();
            internal.update(time.clone(), 1);
            internal.update(self.time.clone(), -1);
            drop(internal);
            self.time = time;
            // The released capability must be harvested even though no
            // operator ran: wake the input node.
            self.activator.activate();
        }
    }

    /// Closes the input, releasing its capability.
    pub fn close(mut self) {
        self.close_inner();
    }

    fn close_inner(&mut self) {
        if !self.closed {
            self.flush();
            self.tee.borrow_mut().flush();
            self.internal.borrow_mut().update(self.time.clone(), -1);
            self.closed = true;
            self.activator.activate();
        }
    }
}

impl<T: Timestamp, D: Data> Drop for InputHandle<T, D> {
    fn drop(&mut self) {
        self.close_inner();
    }
}

impl<T: Timestamp> Scope<T> {
    /// Creates a new dataflow input, returning the handle used to supply records
    /// and the stream of those records.
    pub fn new_input<D: Data>(&mut self) -> (InputHandle<T, D>, Stream<T, D>) {
        let (node, internal, activator) = self.with_builder(|builder| {
            let node = builder.add_node("Input");
            builder.set_ports(node, 0, 1);
            let internal = shared_changes::<T>();
            builder.register_internal(node, 0, internal.clone());
            (node, internal, builder.activator(node))
        });
        let tee = shared_tee::<T, D>();
        let stream = Stream::new(Port::new(node, 0), tee.clone(), self.clone());
        (InputHandle::new(tee, internal, activator), stream)
    }
}
