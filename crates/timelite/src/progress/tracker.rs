//! Pointstamp tracking and frontier propagation for a single dataflow.
//!
//! Every operator output port owns *capability* pointstamps (the operator may
//! still produce messages at those times) and every channel owns *message*
//! pointstamps (messages are in flight and not yet consumed). Workers broadcast
//! changes to these counts; each worker folds the changes into its local
//! [`Tracker`], which propagates them along the (acyclic) dataflow graph to
//! obtain, for every operator input port, the frontier of timestamps that may
//! still arrive there.

use crate::order::Timestamp;
use crate::progress::frontier::least;
use crate::progress::{ChangeBatch, Frontier};

/// The location of an operator port within a dataflow graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Port {
    /// The operator (node) index within the dataflow.
    pub node: usize,
    /// The port index within the operator.
    pub port: usize,
}

impl Port {
    /// Creates a new port identifier.
    pub fn new(node: usize, port: usize) -> Self {
        Port { node, port }
    }
}

/// Static description of one node of the dataflow graph.
#[derive(Clone, Debug)]
pub struct NodeDesc {
    /// Human-readable operator name, used in errors and diagnostics.
    pub name: String,
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
    /// Whether the operator holds an initial capability at `T::minimum()` on
    /// every output port (true for sources such as inputs and ordinary
    /// operators; the tracker seeds `peers` copies of this capability).
    pub initial_capability: bool,
}

/// Static description of one channel (edge) of the dataflow graph.
#[derive(Clone, Copy, Debug)]
pub struct EdgeDesc {
    /// The producing operator output port.
    pub source: Port,
    /// The consuming operator input port.
    pub target: Port,
}

/// A batch of progress changes produced by one worker during one step.
///
/// `internals` describes changes to capabilities held at operator output ports;
/// `messages` describes changes to in-flight message counts on channels
/// (positive when produced, negative when consumed).
#[derive(Clone, Debug, Default)]
pub struct ProgressUpdates<T> {
    /// Capability count changes, keyed by operator output port.
    pub internals: Vec<(Port, T, i64)>,
    /// Message count changes, keyed by channel index.
    pub messages: Vec<(usize, T, i64)>,
}

impl<T> ProgressUpdates<T> {
    /// Creates an empty update batch.
    pub fn new() -> Self {
        ProgressUpdates { internals: Vec::new(), messages: Vec::new() }
    }

    /// Returns `true` iff the batch carries no changes.
    pub fn is_empty(&self) -> bool {
        self.internals.is_empty() && self.messages.is_empty()
    }
}

/// Per-dataflow progress state: pointstamp counts and derived frontiers.
pub struct Tracker<T: Timestamp> {
    nodes: Vec<NodeDesc>,
    edges: Vec<EdgeDesc>,
    /// Channels indexed by target port, for frontier propagation.
    incoming: Vec<Vec<Vec<usize>>>,
    /// Capability counts per node output port, aggregated over all workers.
    capabilities: Vec<Vec<ChangeBatch<T>>>,
    /// In-flight message counts per channel, aggregated over all workers.
    messages: Vec<ChangeBatch<T>>,
    /// Derived frontier at each node input port.
    input_frontiers: Vec<Vec<Frontier<T>>>,
    /// Derived frontier at each node output port.
    output_frontiers: Vec<Vec<Frontier<T>>>,
    /// Nodes in topological order (sources before targets).
    topo: Vec<usize>,
    /// `topo_rank[node]` — the node's position within `topo`; the worker sorts
    /// each drained activation batch by this rank so demand-driven scheduling
    /// runs nodes in the same relative order as the old full topological sweep.
    topo_rank: Vec<usize>,
    /// Nodes whose input frontiers changed during `propagate`, deduplicated;
    /// drained by the worker to activate exactly the affected operators.
    changed: Vec<usize>,
    /// `changed_flag[node]` — whether `node` is already in `changed`.
    changed_flag: Vec<bool>,
}

impl<T: Timestamp> Tracker<T> {
    /// Builds a tracker for the given graph, seeding `peers` initial capabilities
    /// at `T::minimum()` on every output port of nodes that declare one.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle or an edge references an invalid port;
    /// `timelite` supports acyclic dataflows only.
    pub fn new(nodes: Vec<NodeDesc>, edges: Vec<EdgeDesc>, peers: usize) -> Self {
        for edge in &edges {
            assert!(
                edge.source.node < nodes.len() && edge.source.port < nodes[edge.source.node].outputs,
                "channel source {:?} out of bounds",
                edge.source
            );
            assert!(
                edge.target.node < nodes.len() && edge.target.port < nodes[edge.target.node].inputs,
                "channel target {:?} out of bounds",
                edge.target
            );
        }

        let mut incoming = nodes
            .iter()
            .map(|node| vec![Vec::new(); node.inputs])
            .collect::<Vec<_>>();
        for (index, edge) in edges.iter().enumerate() {
            incoming[edge.target.node][edge.target.port].push(index);
        }

        let topo = topological_order(&nodes, &edges);
        let mut topo_rank = vec![0usize; nodes.len()];
        for (rank, &node) in topo.iter().enumerate() {
            topo_rank[node] = rank;
        }

        let capabilities = nodes
            .iter()
            .map(|node| {
                let held = if node.initial_capability { peers as i64 } else { 0 };
                vec![ChangeBatch::new_from(T::minimum(), held); node.outputs]
            })
            .collect();
        let messages = vec![ChangeBatch::new(); edges.len()];
        let input_frontiers = nodes.iter().map(|n| vec![Frontier::empty(); n.inputs]).collect();
        let output_frontiers = nodes.iter().map(|n| vec![Frontier::empty(); n.outputs]).collect();

        let changed_flag = vec![false; nodes.len()];
        let mut tracker = Tracker {
            nodes,
            edges,
            incoming,
            capabilities,
            messages,
            input_frontiers,
            output_frontiers,
            topo,
            topo_rank,
            changed: Vec::new(),
            changed_flag,
        };
        tracker.propagate();
        // The initial propagation "changes" every frontier from its empty
        // placeholder; the worker activates every node at startup regardless,
        // so start the change log clean.
        tracker.changed.clear();
        tracker.changed_flag.fill(false);
        tracker
    }

    /// Applies a batch of progress updates and recomputes all frontiers.
    pub fn apply(&mut self, updates: &ProgressUpdates<T>) {
        for (port, time, diff) in &updates.internals {
            self.capabilities[port.node][port.port].update(time.clone(), *diff);
        }
        for (channel, time, diff) in &updates.messages {
            self.messages[*channel].update(time.clone(), *diff);
        }
        self.propagate();
    }

    /// Recomputes the input and output frontiers of every node.
    ///
    /// A count's frontier is its least time with a positive net count: counts
    /// may be transiently negative, because progress batches from different
    /// workers arrive interleaved and a consumption can be applied before its
    /// production. That is safe, because the producer's capability, reported
    /// in the same or an earlier batch as the production, still holds the
    /// frontier.
    ///
    /// For acyclic graphs a single pass in topological order suffices: the
    /// frontier at an input port is the meet, over its incoming channels, of
    /// the channel's in-flight messages and the source output port's frontier;
    /// the frontier at an output port is the meet of the node's capabilities on
    /// that port and all of the node's input frontiers (conservatively assuming
    /// every input may influence every output). A frontier is written, and its
    /// time cloned, only when it moves.
    fn propagate(&mut self) {
        for counts in self.capabilities.iter_mut().flatten().chain(&mut self.messages) {
            counts.compact();
        }
        let Tracker {
            nodes,
            edges,
            incoming,
            capabilities,
            messages,
            input_frontiers,
            output_frontiers,
            topo,
            changed,
            changed_flag,
            ..
        } = self;
        for &node in topo.iter() {
            for (port, channels) in incoming[node].iter().enumerate() {
                let mut time = None;
                for &channel in channels {
                    let source = edges[channel].source;
                    time = least(time, messages[channel].least_positive());
                    time = least(time, output_frontiers[source.node][source.port].time());
                }
                let frontier = &mut input_frontiers[node][port];
                if frontier.time() != time {
                    *frontier = Frontier::from_time(time.cloned());
                    // Record the node for activation.
                    if !changed_flag[node] {
                        changed_flag[node] = true;
                        changed.push(node);
                    }
                }
            }
            for port in 0..nodes[node].outputs {
                let held = capabilities[node][port].least_positive();
                let time = input_frontiers[node].iter().fold(held, |time, input| least(time, input.time()));
                let frontier = &mut output_frontiers[node][port];
                if frontier.time() != time {
                    *frontier = Frontier::from_time(time.cloned());
                }
            }
        }
    }

    /// The frontier at input port `port` of node `node`.
    pub fn input_frontier(&self, node: usize, port: usize) -> &Frontier<T> {
        &self.input_frontiers[node][port]
    }

    /// All input frontiers of `node`.
    pub fn input_frontiers(&self, node: usize) -> &[Frontier<T>] {
        &self.input_frontiers[node]
    }

    /// The frontier at output port `port` of node `node`.
    pub fn output_frontier(&self, node: usize, port: usize) -> &Frontier<T> {
        &self.output_frontiers[node][port]
    }

    /// Returns `true` iff no capabilities or in-flight messages remain anywhere.
    pub fn is_complete(&self) -> bool {
        let mut counts = self.capabilities.iter().flatten().chain(&self.messages);
        counts.all(|counts| counts.least_positive().is_none())
    }

    /// Number of nodes in the tracked graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of channels in the tracked graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node descriptions (for diagnostics).
    pub fn nodes(&self) -> &[NodeDesc] {
        &self.nodes
    }

    /// The topological schedule order of the nodes.
    pub fn schedule_order(&self) -> &[usize] {
        &self.topo
    }

    /// `topo_rank()[node]` is the node's position in [`schedule_order`]
    /// (sources before targets); the worker sorts activation batches by it.
    ///
    /// [`schedule_order`]: Tracker::schedule_order
    pub fn topo_rank(&self) -> &[usize] {
        &self.topo_rank
    }

    /// Drains the nodes whose input frontiers changed since the last drain
    /// (deduplicated) into `into`. The worker feeds these straight into the
    /// dataflow's activation set.
    pub fn drain_changed_nodes(&mut self, into: &mut Vec<usize>) {
        for &node in &self.changed {
            self.changed_flag[node] = false;
        }
        into.append(&mut self.changed);
    }
}

/// Computes a topological order of the nodes; panics on cycles.
fn topological_order(nodes: &[NodeDesc], edges: &[EdgeDesc]) -> Vec<usize> {
    let mut in_degree = vec![0usize; nodes.len()];
    let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    // A self-edge counts like any other: it keeps its node's in-degree above
    // zero, so a self-loop is reported as the cycle it is.
    for edge in edges {
        outgoing[edge.source.node].push(edge.target.node);
        in_degree[edge.target.node] += 1;
    }
    let mut queue: Vec<usize> = (0..nodes.len()).filter(|&n| in_degree[n] == 0).collect();
    let mut order = Vec::with_capacity(nodes.len());
    while let Some(node) = queue.pop() {
        order.push(node);
        for &next in &outgoing[node] {
            in_degree[next] -= 1;
            if in_degree[next] == 0 {
                queue.push(next);
            }
        }
    }
    assert_eq!(
        order.len(),
        nodes.len(),
        "timelite supports acyclic dataflows only; a cycle was detected"
    );
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, inputs: usize, outputs: usize) -> NodeDesc {
        NodeDesc { name: name.to_string(), inputs, outputs, initial_capability: outputs > 0 }
    }

    /// input(0) -> map(1) -> sink(2)
    fn linear_graph() -> (Vec<NodeDesc>, Vec<EdgeDesc>) {
        let nodes = vec![node("input", 0, 1), node("map", 1, 1), node("sink", 1, 0)];
        let edges = vec![
            EdgeDesc { source: Port::new(0, 0), target: Port::new(1, 0) },
            EdgeDesc { source: Port::new(1, 0), target: Port::new(2, 0) },
        ];
        (nodes, edges)
    }

    #[test]
    fn initial_frontier_is_minimum() {
        let (nodes, edges) = linear_graph();
        let tracker = Tracker::<u64>::new(nodes, edges, 2);
        assert_eq!(tracker.input_frontier(2, 0).time(), Some(&0));
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&0));
        assert!(!tracker.is_complete());
    }

    #[test]
    fn dropping_capabilities_advances_frontier() {
        let (nodes, edges) = linear_graph();
        let mut tracker = Tracker::<u64>::new(nodes, edges, 1);
        // Input node swaps its capability from 0 to 5.
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(0, 0), 0, -1));
        updates.internals.push((Port::new(0, 0), 5, 1));
        tracker.apply(&updates);
        // map still holds its initial capability at 0, so its own output is 0,
        // but its input frontier has advanced to 5.
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&5));
        assert_eq!(tracker.input_frontier(2, 0).time(), Some(&0));

        // map drops its initial capability: downstream sees 5.
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(1, 0), 0, -1));
        tracker.apply(&updates);
        assert_eq!(tracker.input_frontier(2, 0).time(), Some(&5));
    }

    #[test]
    fn in_flight_messages_hold_frontier() {
        let (nodes, edges) = linear_graph();
        let mut tracker = Tracker::<u64>::new(nodes, edges, 1);
        let mut updates = ProgressUpdates::new();
        // Input produces a message at time 3 on channel 0 and advances to 10.
        updates.messages.push((0, 3, 4));
        updates.internals.push((Port::new(0, 0), 0, -1));
        updates.internals.push((Port::new(0, 0), 10, 1));
        updates.internals.push((Port::new(1, 0), 0, -1));
        tracker.apply(&updates);
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&3));
        assert_eq!(tracker.input_frontier(2, 0).time(), Some(&3));

        // Consuming the message releases the frontier.
        let mut updates = ProgressUpdates::new();
        updates.messages.push((0, 3, -4));
        tracker.apply(&updates);
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&10));
        assert_eq!(tracker.input_frontier(2, 0).time(), Some(&10));
    }

    #[test]
    fn a_consumption_reported_before_its_production_does_not_hold_the_frontier() {
        let (nodes, edges) = linear_graph();
        let mut tracker = Tracker::<u64>::new(nodes, edges, 1);
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(0, 0), 0, -1));
        updates.internals.push((Port::new(0, 0), 5, 1));
        tracker.apply(&updates);
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&5));

        // The consumer's report of two messages at 3 arrives before the
        // producer's: the channel's count is -2 at 3, below the capability at
        // 5, and must not pull the frontier back to 3.
        let mut updates = ProgressUpdates::new();
        updates.messages.push((0, 3, -2));
        tracker.apply(&updates);
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&5));

        // The production lands: the count nets to zero and nothing moves.
        let mut changed = Vec::new();
        tracker.drain_changed_nodes(&mut changed);
        changed.clear();
        let mut updates = ProgressUpdates::new();
        updates.messages.push((0, 3, 2));
        tracker.apply(&updates);
        tracker.drain_changed_nodes(&mut changed);
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&5));
        assert!(changed.is_empty(), "a count that nets to zero moves no frontier");
    }

    #[test]
    fn multiple_peers_all_hold_initial_capabilities() {
        let (nodes, edges) = linear_graph();
        let mut tracker = Tracker::<u64>::new(nodes, edges, 2);
        // Only one worker's input advances: frontier must stay at 0.
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(0, 0), 0, -1));
        updates.internals.push((Port::new(0, 0), 7, 1));
        tracker.apply(&updates);
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&0));
        // Second worker advances too.
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(0, 0), 0, -1));
        updates.internals.push((Port::new(0, 0), 9, 1));
        tracker.apply(&updates);
        assert_eq!(tracker.input_frontier(1, 0).time(), Some(&7));
    }

    #[test]
    fn completion_requires_all_counts_zero() {
        let (nodes, edges) = linear_graph();
        let mut tracker = Tracker::<u64>::new(nodes, edges, 1);
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(0, 0), 0, -1));
        updates.internals.push((Port::new(1, 0), 0, -1));
        tracker.apply(&updates);
        assert!(tracker.is_complete());
        assert!(tracker.input_frontier(2, 0).is_empty());
    }

    #[test]
    fn diamond_graph_takes_minimum_over_paths() {
        // input(0) -> a(1) -> sink(3); input(0) -> b(2) -> sink(3)
        let nodes = vec![node("input", 0, 1), node("a", 1, 1), node("b", 1, 1), node("sink", 2, 0)];
        let edges = vec![
            EdgeDesc { source: Port::new(0, 0), target: Port::new(1, 0) },
            EdgeDesc { source: Port::new(0, 0), target: Port::new(2, 0) },
            EdgeDesc { source: Port::new(1, 0), target: Port::new(3, 0) },
            EdgeDesc { source: Port::new(2, 0), target: Port::new(3, 1) },
        ];
        let mut tracker = Tracker::<u64>::new(nodes, edges, 1);
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(0, 0), 0, -1));
        updates.internals.push((Port::new(0, 0), 8, 1));
        updates.internals.push((Port::new(1, 0), 0, -1));
        // b keeps its capability at 0.
        tracker.apply(&updates);
        assert_eq!(tracker.input_frontier(3, 0).time(), Some(&8));
        assert_eq!(tracker.input_frontier(3, 1).time(), Some(&0));
    }

    #[test]
    fn frontier_changes_are_recorded_per_node() {
        let (nodes, edges) = linear_graph();
        let mut tracker = Tracker::<u64>::new(nodes, edges, 1);
        let mut changed = Vec::new();
        tracker.drain_changed_nodes(&mut changed);
        assert!(changed.is_empty(), "construction starts with a clean change log");

        // Input advances 0 -> 5: map's input frontier moves, but sink's stays
        // gated at 0 by map's still-held capability.
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(0, 0), 0, -1));
        updates.internals.push((Port::new(0, 0), 5, 1));
        tracker.apply(&updates);
        tracker.drain_changed_nodes(&mut changed);
        assert_eq!(changed, vec![1]);
        changed.clear();

        // A no-op apply records no changes.
        tracker.apply(&ProgressUpdates::new());
        tracker.drain_changed_nodes(&mut changed);
        assert!(changed.is_empty(), "no-op apply must not report changes");

        // map drops its capability: only sink's input frontier moves.
        let mut updates = ProgressUpdates::new();
        updates.internals.push((Port::new(1, 0), 0, -1));
        tracker.apply(&updates);
        tracker.drain_changed_nodes(&mut changed);
        assert_eq!(changed, vec![2]);
    }

    #[test]
    fn topo_rank_inverts_schedule_order() {
        let (nodes, edges) = linear_graph();
        let tracker = Tracker::<u64>::new(nodes, edges, 1);
        let order = tracker.schedule_order();
        let rank = tracker.topo_rank();
        for (position, &node) in order.iter().enumerate() {
            assert_eq!(rank[node], position);
        }
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cycles_are_rejected() {
        let nodes = vec![node("a", 1, 1), node("b", 1, 1)];
        let edges = vec![
            EdgeDesc { source: Port::new(0, 0), target: Port::new(1, 0) },
            EdgeDesc { source: Port::new(1, 0), target: Port::new(0, 0) },
        ];
        let _ = Tracker::<u64>::new(nodes, edges, 1);
    }

    #[test]
    #[should_panic(expected = "timelite supports acyclic dataflows only; a cycle was detected")]
    fn self_loops_are_rejected() {
        let nodes = vec![node("a", 1, 1)];
        let edges = vec![EdgeDesc { source: Port::new(0, 0), target: Port::new(0, 0) }];
        let _ = Tracker::<u64>::new(nodes, edges, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn invalid_edges_are_rejected() {
        let nodes = vec![node("a", 0, 1)];
        let edges = vec![EdgeDesc { source: Port::new(0, 0), target: Port::new(0, 3) }];
        let _ = Tracker::<u64>::new(nodes, edges, 1);
    }
}
