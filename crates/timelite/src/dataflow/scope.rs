//! Dataflow construction: the per-worker graph builder and the user-facing scope.
//!
//! Every worker builds an identical copy of each dataflow graph by running the
//! same construction closure. The [`Scope`] handle is what user code sees; it
//! wraps a shared [`GraphBuilder`] which records operators (nodes), channels
//! (edges), progress-accounting hooks and the demultiplexing closures used to
//! deliver received messages into typed per-channel queues.

use std::cell::RefCell;
use std::rc::Rc;

use crate::codec::Codec;
use crate::communication::{
    shared_changes, shared_queue, MultiBatch, Pact, Payload, Pusher, SharedChanges, SharedQueue,
    SharedTee, WorkerSender,
};
use crate::order::Timestamp;
use crate::progress::{Frontier, EdgeDesc, NodeDesc, Port};
use crate::schedule::{shared_activations, Activator, SharedActivations};
use crate::Data;

/// The operator logic invoked on every scheduling step with the operator's
/// current input frontiers.
pub type OperatorLogic<T> = Box<dyn FnMut(&[Frontier<T>])>;

/// A closure that accepts a received data payload for one channel — typed
/// (from a worker in this process) or still wire-encoded (from a worker in
/// another process) — and pushes it into the channel's typed local queue.
pub type DemuxClosure = Box<dyn FnMut(Payload)>;

/// A closure that flushes one channel's staged remote batches into envelopes
/// (invoked once per worker scheduling round).
pub type FlushClosure = Box<dyn FnMut()>;

/// Per-worker, per-dataflow construction state.
pub struct GraphBuilder<T: Timestamp> {
    dataflow: usize,
    index: usize,
    peers: usize,
    senders: Vec<WorkerSender>,
    nodes: Vec<NodeDesc>,
    logics: Vec<Option<OperatorLogic<T>>>,
    edges: Vec<EdgeDesc>,
    internals: Vec<(Port, SharedChanges<T>)>,
    produceds: Vec<SharedChanges<T>>,
    consumeds: Vec<SharedChanges<T>>,
    demux: Vec<DemuxClosure>,
    flushers: Vec<FlushClosure>,
    sync_hooks: Vec<FlushClosure>,
    /// Identities (`Rc` data pointers) of the tees already covered by a
    /// flusher, so a tee with many channels is flushed once per round.
    flushed_tees: Vec<*const ()>,
    /// The dataflow's activation set: every activation source built into the
    /// graph (demux, pushers, explicit activators) shares this handle with the
    /// worker's step loop.
    activations: SharedActivations,
}

impl<T: Timestamp> GraphBuilder<T> {
    /// Creates a new builder for dataflow `dataflow` on worker `index` of `peers`.
    pub fn new(dataflow: usize, index: usize, peers: usize, senders: Vec<WorkerSender>) -> Self {
        GraphBuilder {
            dataflow,
            index,
            peers,
            senders,
            nodes: Vec::new(),
            logics: Vec::new(),
            edges: Vec::new(),
            internals: Vec::new(),
            produceds: Vec::new(),
            consumeds: Vec::new(),
            demux: Vec::new(),
            flushers: Vec::new(),
            sync_hooks: Vec::new(),
            flushed_tees: Vec::new(),
            activations: shared_activations(),
        }
    }

    /// The dataflow's shared activation set.
    pub fn activations(&self) -> SharedActivations {
        Rc::clone(&self.activations)
    }

    /// An [`Activator`] handle for `node`, usable from operator logic, input
    /// handles, probes and notificator deadlines to request a wakeup.
    pub fn activator(&self, node: usize) -> Activator {
        Activator::new(node, Rc::clone(&self.activations))
    }

    /// Registers a durability hook, run once per worker scheduling round after
    /// every operator and channel flusher and again at dataflow teardown.
    /// Operators with external durable state (a write-ahead log) use this to
    /// make the round's writes durable *before* the round's progress is
    /// shared, so no peer can observe progress past an unsynced write.
    pub fn add_sync_hook(&mut self, hook: FlushClosure) {
        self.sync_hooks.push(hook);
    }

    /// Reserves a new node, returning its index.
    pub fn add_node(&mut self, name: &str) -> usize {
        let node = self.nodes.len();
        self.nodes.push(NodeDesc {
            name: name.to_string(),
            inputs: 0,
            outputs: 0,
            initial_capability: true,
        });
        self.logics.push(None);
        node
    }

    /// Records the number of input and output ports of `node`.
    pub fn set_ports(&mut self, node: usize, inputs: usize, outputs: usize) {
        self.nodes[node].inputs = inputs;
        self.nodes[node].outputs = outputs;
    }

    /// Installs the scheduling logic of `node`.
    pub fn set_logic(&mut self, node: usize, logic: OperatorLogic<T>) {
        self.logics[node] = Some(logic);
    }

    /// Registers the capability change batch for output `port` of `node`.
    pub fn register_internal(&mut self, node: usize, port: usize, changes: SharedChanges<T>) {
        self.internals.push((Port::new(node, port), changes));
    }

    /// Allocates a channel from `source` to `target` with the given pact.
    ///
    /// Returns the local receive queue (for the consuming operator's input
    /// handle) and the change batch in which the consumer records consumed
    /// message counts. The channel's pusher is registered with `tee`.
    pub fn add_channel<D: Data>(
        &mut self,
        source: Port,
        target: Port,
        pact: Pact<D>,
        tee: &SharedTee<T, D>,
    ) -> (SharedQueue<T, D>, SharedChanges<T>) {
        let channel = self.edges.len();
        self.edges.push(EdgeDesc { source, target });

        let queue: SharedQueue<T, D> = shared_queue();
        let produced = shared_changes::<T>();
        let consumed = shared_changes::<T>();
        self.produceds.push(Rc::clone(&produced));
        self.consumeds.push(Rc::clone(&consumed));

        let demux_queue = Rc::clone(&queue);
        let demux_activations = Rc::clone(&self.activations);
        let consumer = target.node;
        self.demux.push(Box::new(move |payload: Payload| {
            let batches: MultiBatch<T, D> = match payload {
                Payload::Data(message) => *message
                    .downcast::<MultiBatch<T, D>>()
                    .expect("channel received a message of an unexpected type"),
                Payload::DataBytes(bytes) => MultiBatch::<T, D>::decode_from_slice(&bytes),
                other => panic!("progress payload {other:?} delivered to a data channel"),
            };
            demux_queue.borrow_mut().extend(batches);
            // Data delivery is an activation source: the consuming operator
            // has a batch to read.
            demux_activations.borrow_mut().activate(consumer);
        }));

        let mut pusher = Pusher::new(
            pact,
            self.dataflow,
            channel,
            self.index,
            self.peers,
            Rc::clone(&queue),
            self.senders.clone(),
            produced,
        );
        pusher.wire_activations(target.node, Rc::clone(&self.activations));
        tee.borrow_mut().add_pusher(pusher);

        // The worker flushes every channel's staging buffers once per
        // scheduling round, after all operators have run. One flusher covers
        // all of a tee's channels, so register it only for new tees; a tee
        // nothing was pushed into since its last flush is skipped outright.
        let tee_identity = Rc::as_ptr(tee) as *const ();
        if !self.flushed_tees.contains(&tee_identity) {
            self.flushed_tees.push(tee_identity);
            let flush_tee = Rc::clone(tee);
            self.flushers.push(Box::new(move || {
                let mut tee = flush_tee.borrow_mut();
                if tee.is_dirty() {
                    tee.flush();
                }
            }));
        }

        (queue, consumed)
    }

    /// This worker's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The number of workers executing this dataflow.
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// The dataflow's index within the worker.
    pub fn dataflow_index(&self) -> usize {
        self.dataflow
    }

    /// Clones the sender handles to every worker mailbox.
    pub fn senders(&self) -> Vec<WorkerSender> {
        self.senders.clone()
    }
}

/// The pieces of a finished dataflow graph, handed to the worker for execution.
pub struct BuiltDataflow<T: Timestamp> {
    /// The dataflow's index within the worker.
    pub dataflow: usize,
    /// This worker's index.
    pub index: usize,
    /// The number of workers.
    pub peers: usize,
    /// Sender handles to every worker mailbox.
    pub senders: Vec<WorkerSender>,
    /// Static node descriptions.
    pub nodes: Vec<NodeDesc>,
    /// Scheduling logic per node (no-op if the node has none, e.g. inputs).
    pub logics: Vec<OperatorLogic<T>>,
    /// Static channel descriptions.
    pub edges: Vec<EdgeDesc>,
    /// Capability change batches to harvest each step.
    pub internals: Vec<(Port, SharedChanges<T>)>,
    /// Produced message counts per channel.
    pub produceds: Vec<SharedChanges<T>>,
    /// Consumed message counts per channel.
    pub consumeds: Vec<SharedChanges<T>>,
    /// Demultiplexing closures per channel.
    pub demux: Vec<DemuxClosure>,
    /// Staging-buffer flush closures, run once per scheduling round.
    pub flushers: Vec<FlushClosure>,
    /// Durability hooks, run after the flushers each round (before progress is
    /// harvested and shared) and once more at dataflow teardown.
    pub sync_hooks: Vec<FlushClosure>,
    /// The dataflow's activation set, shared with every activation source
    /// wired into the graph; the worker's step loop drains it.
    pub activations: SharedActivations,
}

/// A user-facing handle to a dataflow under construction.
///
/// `Scope` is cheaply cloneable; streams hold a clone so that downstream
/// operators can be attached. All construction must happen inside the closure
/// passed to [`Worker::dataflow`](crate::worker::Worker::dataflow).
pub struct Scope<T: Timestamp> {
    inner: Rc<RefCell<GraphBuilder<T>>>,
}

impl<T: Timestamp> Clone for Scope<T> {
    fn clone(&self) -> Self {
        Scope { inner: Rc::clone(&self.inner) }
    }
}

impl<T: Timestamp> Scope<T> {
    /// Wraps a graph builder in a scope handle.
    pub fn new(builder: GraphBuilder<T>) -> Self {
        Scope { inner: Rc::new(RefCell::new(builder)) }
    }

    /// This worker's index.
    pub fn index(&self) -> usize {
        self.inner.borrow().index()
    }

    /// The number of workers executing this dataflow.
    pub fn peers(&self) -> usize {
        self.inner.borrow().peers()
    }

    /// Grants mutable access to the underlying builder.
    pub fn with_builder<R>(&self, func: impl FnOnce(&mut GraphBuilder<T>) -> R) -> R {
        func(&mut self.inner.borrow_mut())
    }

    /// Extracts the built dataflow, replacing missing logic with no-ops.
    ///
    /// Called by the worker once the construction closure has returned. Any
    /// `Scope`/`Stream` clones that outlive this call must not be used to attach
    /// further operators.
    pub fn finalize(&self) -> BuiltDataflow<T> {
        let mut builder = self.inner.borrow_mut();
        let nodes = std::mem::take(&mut builder.nodes);
        let logics = std::mem::take(&mut builder.logics)
            .into_iter()
            .map(|logic| logic.unwrap_or_else(|| Box::new(|_: &[Frontier<T>]| {}) as OperatorLogic<T>))
            .collect();
        BuiltDataflow {
            dataflow: builder.dataflow,
            index: builder.index,
            peers: builder.peers,
            senders: builder.senders.clone(),
            nodes,
            logics,
            edges: std::mem::take(&mut builder.edges),
            internals: std::mem::take(&mut builder.internals),
            produceds: std::mem::take(&mut builder.produceds),
            consumeds: std::mem::take(&mut builder.consumeds),
            demux: std::mem::take(&mut builder.demux),
            flushers: std::mem::take(&mut builder.flushers),
            sync_hooks: std::mem::take(&mut builder.sync_hooks),
            activations: Rc::clone(&builder.activations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communication::{allocate, shared_tee};

    fn scope() -> Scope<u64> {
        let allocs = allocate(1);
        Scope::new(GraphBuilder::new(0, 0, 1, allocs[0].senders()))
    }

    #[test]
    fn nodes_and_ports_are_recorded() {
        let scope = scope();
        let node = scope.with_builder(|b| {
            let n = b.add_node("test");
            b.set_ports(n, 1, 2);
            n
        });
        let built = scope.finalize();
        assert_eq!(node, 0);
        assert_eq!(built.nodes.len(), 1);
        assert_eq!(built.nodes[0].inputs, 1);
        assert_eq!(built.nodes[0].outputs, 2);
        assert_eq!(built.logics.len(), 1);
    }

    #[test]
    fn channels_register_progress_hooks() {
        let scope = scope();
        let tee = shared_tee::<u64, u64>();
        scope.with_builder(|b| {
            let a = b.add_node("a");
            b.set_ports(a, 0, 1);
            let c = b.add_node("b");
            b.set_ports(c, 1, 0);
            let _ = b.add_channel::<u64>(Port::new(a, 0), Port::new(c, 0), Pact::Pipeline, &tee);
        });
        let built = scope.finalize();
        assert_eq!(built.edges.len(), 1);
        assert_eq!(built.produceds.len(), 1);
        assert_eq!(built.consumeds.len(), 1);
        assert_eq!(built.demux.len(), 1);
        assert_eq!(tee.borrow().len(), 1);
    }

    #[test]
    fn demux_delivers_typed_messages() {
        let scope = scope();
        let tee = shared_tee::<u64, String>();
        let queue = scope.with_builder(|b| {
            let a = b.add_node("a");
            b.set_ports(a, 0, 1);
            let c = b.add_node("b");
            b.set_ports(c, 1, 0);
            b.add_channel::<String>(Port::new(a, 0), Port::new(c, 0), Pact::Pipeline, &tee).0
        });
        let mut built = scope.finalize();
        (built.demux[0])(Payload::Data(Box::new(vec![
            (7u64, vec!["hello".to_string()]),
            (8u64, vec!["world".to_string()]),
        ])));
        let mut queue = queue.borrow_mut();
        assert_eq!(queue.pop_front(), Some((7, vec!["hello".to_string()])));
        assert_eq!(queue.pop_front(), Some((8, vec!["world".to_string()])));
    }
}
