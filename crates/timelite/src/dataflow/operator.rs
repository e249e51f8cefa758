//! The raw operator builder and the typed input/output handles operators use.
//!
//! [`OperatorBuilder`] is the general mechanism from which all other operators
//! (map, unary, binary, probe, Megaphone's F and S) are assembled: declare
//! inputs with a [`Pact`], declare outputs, then provide a constructor that
//! receives the operator's initial [`Capability`] and returns the per-step
//! scheduling logic.

use std::cell::RefCell;
use std::rc::Rc;

use crate::communication::{shared_changes, shared_tee, Pact, SharedChanges, SharedQueue, SharedTee};
use crate::dataflow::capability::{Capability, CapabilityInternals};
use crate::dataflow::scope::Scope;
use crate::dataflow::stream::Stream;
use crate::order::Timestamp;
use crate::progress::{Frontier, Port};
use crate::Data;

/// The typed receiving end of one operator input.
pub struct InputPort<T: Timestamp, D: Data> {
    queue: SharedQueue<T, D>,
    consumed: SharedChanges<T>,
    internals: CapabilityInternals<T>,
}

impl<T: Timestamp, D: Data> InputPort<T, D> {
    /// Receives the next pending `(capability, data)` bundle, if any.
    ///
    /// Receiving a bundle records the consumption of its records with progress
    /// tracking and mints a capability at the bundle's time, which the operator
    /// may use to produce output, retain, delay, or drop.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Capability<T>, Vec<D>)> {
        let (time, data) = self.queue.borrow_mut().pop_front()?;
        self.consumed.borrow_mut().update(time.clone(), data.len() as i64);
        let capability = Capability::mint(time, Rc::clone(&self.internals));
        Some((capability, data))
    }

    /// Applies `logic` to every pending bundle.
    pub fn for_each(&mut self, mut logic: impl FnMut(Capability<T>, Vec<D>)) {
        while let Some((capability, data)) = self.next() {
            logic(capability, data);
        }
    }

    /// Returns `true` iff no bundles are currently queued.
    pub fn is_empty(&self) -> bool {
        self.queue.borrow().is_empty()
    }
}

/// The typed sending end of one operator output.
pub struct OutputPort<T: Timestamp, D: Data> {
    tee: SharedTee<T, D>,
}

impl<T: Timestamp, D: Data> OutputPort<T, D> {
    /// Starts an output session at the time of `capability`.
    ///
    /// Records given to the session are sent when the session is dropped.
    pub fn session(&mut self, capability: &Capability<T>) -> Session<'_, T, D> {
        Session { time: capability.time().clone(), buffer: Vec::new(), tee: &self.tee }
    }
}

/// An in-progress output batch at a fixed time.
pub struct Session<'a, T: Timestamp, D: Data> {
    time: T,
    buffer: Vec<D>,
    tee: &'a SharedTee<T, D>,
}

impl<'a, T: Timestamp, D: Data> Session<'a, T, D> {
    /// Appends one record to the session.
    #[inline]
    pub fn give(&mut self, record: D) {
        self.buffer.push(record);
    }

    /// Appends all records of `iter` to the session.
    pub fn give_iterator<I: IntoIterator<Item = D>>(&mut self, iter: I) {
        self.buffer.extend(iter);
    }

    /// Appends the contents of `records`, draining it.
    pub fn give_vec(&mut self, records: &mut Vec<D>) {
        if self.buffer.is_empty() {
            std::mem::swap(&mut self.buffer, records);
        } else {
            self.buffer.append(records);
        }
    }
}

impl<'a, T: Timestamp, D: Data> Drop for Session<'a, T, D> {
    fn drop(&mut self) {
        if !self.buffer.is_empty() {
            let buffer = std::mem::take(&mut self.buffer);
            self.tee.borrow_mut().push(&self.time, buffer);
        }
    }
}

/// Builds a dataflow operator with arbitrary numbers of inputs and outputs.
pub struct OperatorBuilder<T: Timestamp> {
    scope: Scope<T>,
    node: usize,
    inputs: usize,
    outputs: usize,
    internals: CapabilityInternals<T>,
}

impl<T: Timestamp> OperatorBuilder<T> {
    /// Reserves a new operator named `name` in `scope`.
    pub fn new(name: &str, scope: Scope<T>) -> Self {
        let node = scope.with_builder(|builder| builder.add_node(name));
        OperatorBuilder { scope, node, inputs: 0, outputs: 0, internals: Rc::new(RefCell::new(Vec::new())) }
    }

    /// The operator's node index within the dataflow.
    pub fn node(&self) -> usize {
        self.node
    }

    /// This worker's index.
    pub fn index(&self) -> usize {
        self.scope.index()
    }

    /// The number of workers.
    pub fn peers(&self) -> usize {
        self.scope.peers()
    }

    /// An [`Activator`](crate::schedule::Activator) for this operator.
    ///
    /// The logic calls it to re-activate itself when it yields with work
    /// remaining (e.g. a pump that ran out of per-step budget, or a stash
    /// whose entries are already ready against the current frontiers); other
    /// holders (probes, deadline queues) use it to wake the operator when an
    /// external event makes it runnable without new input or frontier change.
    pub fn activator(&self) -> crate::schedule::Activator {
        self.scope.with_builder(|builder| builder.activator(self.node))
    }

    /// Adds an input connected to `stream` with the given `pact`.
    pub fn new_input<D: Data>(&mut self, stream: &Stream<T, D>, pact: Pact<D>) -> InputPort<T, D> {
        let port = self.inputs;
        self.inputs += 1;
        let (queue, consumed) = stream.connect_to(Port::new(self.node, port), pact);
        InputPort { queue, consumed, internals: Rc::clone(&self.internals) }
    }

    /// Adds an output, returning the operator-side handle and the downstream stream.
    pub fn new_output<D: Data>(&mut self) -> (OutputPort<T, D>, Stream<T, D>) {
        let port = self.outputs;
        self.outputs += 1;
        let changes = shared_changes::<T>();
        self.internals.borrow_mut().push(Rc::clone(&changes));
        self.scope.with_builder(|builder| builder.register_internal(self.node, port, changes));
        let tee = shared_tee::<T, D>();
        let stream = Stream::new(Port::new(self.node, port), tee.clone(), self.scope.clone());
        (OutputPort { tee }, stream)
    }

    /// Completes the operator.
    ///
    /// `constructor` receives the operator's initial capability (valid for all
    /// outputs at `T::minimum()`) and returns the logic invoked on every
    /// scheduling step with the operator's current input frontiers, in input
    /// port order.
    pub fn build<B, L>(self, constructor: B)
    where
        B: FnOnce(Capability<T>) -> L,
        L: FnMut(&[Frontier<T>]) + 'static,
    {
        let capability = Capability::mint_unaccounted(T::minimum(), Rc::clone(&self.internals));
        let logic = constructor(capability);
        self.scope.with_builder(|builder| {
            builder.set_ports(self.node, self.inputs, self.outputs);
            builder.set_logic(self.node, Box::new(logic));
        });
    }
}
