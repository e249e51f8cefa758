//! Workers: the per-thread execution engine that schedules operators, moves data
//! and exchanges progress information with its peers.
//!
//! Scheduling is *demand-driven*: each dataflow keeps an
//! [`ActivationSet`](crate::schedule::ActivationSet) of nodes that currently
//! have a reason to run — data was delivered, an input frontier moved, or an
//! explicit [`Activator`](crate::schedule::Activator) fired — and a scheduling
//! step drains only that set (in topological-rank order, so the execution
//! order matches the old full sweep and observable output is unchanged).
//! Channel flushes, durability hooks and progress harvests are likewise gated
//! on dirty flags, so an idle dataflow costs a handful of flag checks per
//! step and an idle *worker* parks ([`Allocator::wait`]) instead of
//! spin-yielding.
//!
//! Progress leaves with the step that made it: a step that harvested progress
//! changes broadcasts exactly that batch before it returns, after the round's
//! data envelopes have left and its durable writes are synced. Nothing is
//! carried from one step to the next, so a worker that stops stepping never
//! holds anything a peer is waiting for, and a peer never waits out this
//! worker's next step for an acknowledgement the previous one produced. For
//! peers in other processes "left" means written: the step's last act is one
//! write per link of everything it staged, and its first is to read them.
//!
//! A reply is waited for where it lands, not on the caller's timer: a
//! [`Worker::step`] whose round finds nothing to do right after an active one
//! — the moment a peer most often owes it an acknowledgement or a frontier —
//! waits for at most `FIRST_PARK_SLICE`, and runs one more round if an
//! envelope arrives. Both sides of a round trip do this, so a peer's reply
//! ends the wait at once instead of a driver's sleep. The wait is the same
//! whoever the peers are: on the mailbox's doorbell, which a peer's push
//! rings, and on the process's sockets, which the peer process's bytes wake.
//!
//! A single worker has nobody to wait for and never waits. `step_while`
//! keeps its own policy: a spin prelude, then parks of `PARK_TIMEOUT`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crate::codec::Codec;
use crate::communication::{send_to, Allocator, Envelope, Payload};
use crate::dataflow::scope::{BuiltDataflow, GraphBuilder, Scope};
use crate::order::Timestamp;
use crate::progress::{ProgressUpdates, Tracker};
use crate::schedule::SharedActivations;

/// Consecutive idle `step` calls a driving loop spends yielding before it
/// parks (the capped spin prelude: cheap wakeups for
/// sub-microsecond turnarounds, a real park for genuine idleness).
const PARK_SPIN_YIELDS: usize = 32;

/// Upper bound on one park. Envelopes and the bytes of frames end a park at
/// once (see [`Allocator::wait`]); the timeout only bounds how stale a
/// `step_while` condition that depends on something other than envelopes
/// (e.g. wall-clock pacing in the benchmark harness) can get.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// The longest [`Worker::step`] waits for a reply after an active round (see
/// the module docs): long enough to cover a peer's reply, short enough that a
/// caller whose work is not in the mailbox — an input to feed, a deadline —
/// loses at most one slice to it.
pub(crate) const FIRST_PARK_SLICE: Duration = Duration::from_micros(50);

/// A type-erased executable dataflow owned by a worker.
trait DataflowStep {
    /// Accepts a received envelope payload for `channel`.
    fn accept(&mut self, channel: usize, payload: Payload);
    /// Performs one scheduling round; returns `true` if any progress was made.
    fn step(&mut self) -> bool;
    /// Returns `true` iff no capabilities or messages remain anywhere in the dataflow.
    fn complete(&self) -> bool;
    /// A read-only progress summary (see [`DataflowSummary`]); never runs or
    /// activates operators.
    fn summary(&self) -> DataflowSummary;
}

/// A read-only progress summary of one dataflow, exported by
/// [`Worker::progress_summary`] for monitoring endpoints. Producing it reads
/// counters only — it never schedules, activates, or runs operators — so a
/// monitoring loop sampling it on quiet steps cannot perturb the computation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataflowSummary {
    /// The dataflow's index in construction order.
    pub dataflow: usize,
    /// `true` iff no capabilities or in-flight messages remain.
    pub complete: bool,
    /// Progress batches received from peers but not yet folded in.
    pub pending_progress: usize,
    /// Operators currently activated (work queued for the next step).
    pub activated: usize,
}

/// One executable dataflow: the built graph plus its progress tracker and the
/// scratch state of the demand-driven step loop.
struct DataflowCore<T: Timestamp> {
    built: BuiltDataflow<T>,
    tracker: Tracker<T>,
    /// Progress batches received from peers, applied at the next step.
    /// Same-process peers share one batch behind an `Arc`; batches decoded
    /// from the wire or accepted as owned boxes are wrapped on arrival.
    pending_progress: VecDeque<Arc<ProgressUpdates<T>>>,
    /// The dataflow's activation set (shared with every source in the graph).
    activations: SharedActivations,
    /// Scratch: nodes drained from the activation set this round.
    run_queue: Vec<usize>,
    /// Scratch: `ran[node]` — node already ran during the current step.
    ran: Vec<bool>,
    /// Scratch: the nodes with `ran` set, for cheap clearing.
    ran_list: Vec<usize>,
    /// Scratch: re-activations of nodes that already ran this step; they are
    /// re-queued for the *next* step so one step's work stays bounded.
    deferred: Vec<usize>,
    /// Scratch: nodes whose input frontiers the tracker reported changed.
    changed: Vec<usize>,
    /// Harvest buffer, cleared and refilled each harvest. With peers, a
    /// non-empty harvest leaves in the same step behind the `Arc` its
    /// broadcast shares; alone, the buffer's allocations persist.
    harvest: ProgressUpdates<T>,
}

impl<T: Timestamp> DataflowCore<T> {
    fn new(built: BuiltDataflow<T>) -> Self {
        let tracker = Tracker::new(built.nodes.clone(), built.edges.clone(), built.peers);
        let nodes = tracker.node_count();
        let activations = built.activations.clone();
        {
            // Every node starts activated: the first step runs the whole
            // graph once, letting operators observe their seeded capabilities
            // and initial frontiers (recovery wakeups, probe installs).
            let mut activations = activations.borrow_mut();
            activations.ensure(nodes);
            for node in 0..nodes {
                activations.activate(node);
            }
        }
        DataflowCore {
            built,
            tracker,
            pending_progress: VecDeque::new(),
            activations,
            run_queue: Vec::new(),
            ran: vec![false; nodes],
            ran_list: Vec::new(),
            deferred: Vec::new(),
            changed: Vec::new(),
            harvest: ProgressUpdates::new(),
        }
    }

    /// Collects progress changes recorded by operators since the last harvest
    /// into the reusable `harvest` buffer. Change batches are cheap to check
    /// for emptiness, so clean channels cost one flag test each.
    fn harvest_progress(&mut self) {
        self.harvest.internals.clear();
        self.harvest.messages.clear();
        for (port, changes) in &self.built.internals {
            let mut changes = changes.borrow_mut();
            if changes.is_empty() {
                continue;
            }
            for (time, diff) in changes.drain() {
                self.harvest.internals.push((*port, time, diff));
            }
        }
        for (channel, produced) in self.built.produceds.iter().enumerate() {
            let mut produced = produced.borrow_mut();
            if produced.is_empty() {
                continue;
            }
            for (time, diff) in produced.drain() {
                self.harvest.messages.push((channel, time, diff));
            }
        }
        for (channel, consumed) in self.built.consumeds.iter().enumerate() {
            let mut consumed = consumed.borrow_mut();
            if consumed.is_empty() {
                continue;
            }
            for (time, diff) in consumed.drain() {
                self.harvest.messages.push((channel, time, -diff));
            }
        }
    }

    /// Activates every node the tracker reported a changed input frontier for.
    fn activate_frontier_changes(&mut self) {
        self.changed.clear();
        self.tracker.drain_changed_nodes(&mut self.changed);
        if !self.changed.is_empty() {
            let mut activations = self.activations.borrow_mut();
            for &node in &self.changed {
                activations.activate(node);
            }
        }
    }

    /// Broadcasts the batch just harvested to every peer: same-process peers
    /// share it behind an `Arc` (one refcount bump each), remote peers share
    /// one wire encoding behind a slab (PR 7's encode-once path).
    fn broadcast_harvest(&mut self) {
        let updates = Arc::new(std::mem::replace(&mut self.harvest, ProgressUpdates::new()));
        let mut encoded: Option<crate::codec::Slab> = None;
        for target in 0..self.built.peers {
            if target == self.built.index {
                continue;
            }
            let payload = if self.built.senders[target].is_remote() {
                let bytes = encoded
                    .get_or_insert_with(|| crate::codec::Slab::new(updates.encode_to_vec()))
                    .clone();
                Payload::ProgressBytes(bytes)
            } else {
                Payload::ProgressShared(Arc::clone(&updates) as _)
            };
            send_to(
                &self.built.senders,
                target,
                Envelope {
                    dataflow: self.built.dataflow,
                    channel: usize::MAX,
                    from: self.built.index,
                    payload,
                },
            );
        }
    }
}

impl<T: Timestamp> Drop for DataflowCore<T> {
    fn drop(&mut self) {
        // Teardown flush: whatever the last rounds logged becomes durable even
        // if the worker closure returns without a final step.
        for hook in &mut self.built.sync_hooks {
            hook();
        }
    }
}

impl<T: Timestamp> DataflowStep for DataflowCore<T> {
    fn accept(&mut self, channel: usize, payload: Payload) {
        match payload {
            payload @ (Payload::Data(_) | Payload::DataBytes(_)) => {
                (self.built.demux[channel])(payload);
            }
            Payload::ProgressShared(shared) => {
                let updates = shared
                    .downcast::<ProgressUpdates<T>>()
                    .expect("progress payload of unexpected timestamp type");
                self.pending_progress.push_back(updates);
            }
            Payload::ProgressBytes(bytes) => {
                self.pending_progress
                    .push_back(Arc::new(ProgressUpdates::<T>::decode_from_slice(&bytes)));
            }
        }
    }

    fn step(&mut self) -> bool {
        // 0. Idle fast path: nothing received, nothing activated, nothing
        //    staged, nothing harvestable — the step is a few flag checks and
        //    the caller may park.
        {
            let activations = self.activations.borrow();
            if self.pending_progress.is_empty()
                && activations.is_empty()
                && !activations.flush_needed()
                && !activations.progress_dirty()
            {
                return false;
            }
        }

        // 1. Fold in progress information received from peers and activate
        //    the nodes whose input frontiers actually moved.
        while let Some(updates) = self.pending_progress.pop_front() {
            self.tracker.apply(&updates);
        }
        self.activate_frontier_changes();

        // 2. Drain the activation set, running each activated node at most
        //    once, in topological-rank order — the same relative order as the
        //    old full sweep, so observable output is unchanged (a skipped
        //    node, with no new input and no frontier change, was a no-op).
        //    Nodes activated *while* running (by data a predecessor pushed)
        //    join the same step if they have not run yet; re-activations of
        //    nodes that already ran defer to the next step, keeping one
        //    step's work bounded.
        let mut ops_ran = false;
        loop {
            self.run_queue.clear();
            self.activations.borrow_mut().drain_into(&mut self.run_queue);
            if self.run_queue.is_empty() {
                break;
            }
            let mut fresh = false;
            for index in 0..self.run_queue.len() {
                let node = self.run_queue[index];
                if self.ran[node] {
                    self.deferred.push(node);
                } else {
                    fresh = true;
                }
            }
            if !fresh {
                break;
            }
            self.run_queue.retain(|&node| !self.ran[node]);
            let ranks = self.tracker.topo_rank();
            self.run_queue.sort_by_key(|&node| ranks[node]);
            for index in 0..self.run_queue.len() {
                let node = self.run_queue[index];
                self.ran[node] = true;
                self.ran_list.push(node);
                let frontiers = self.tracker.input_frontiers(node);
                (self.built.logics[node])(frontiers);
                ops_ran = true;
            }
        }
        for node in self.ran_list.drain(..) {
            self.ran[node] = false;
        }
        if !self.deferred.is_empty() {
            let mut activations = self.activations.borrow_mut();
            for node in self.deferred.drain(..) {
                activations.activate(node);
            }
        }

        // 3. Flush dirty channels' staging buffers: records pushed by the
        //    operators above (and by user code between steps) leave as
        //    coalesced envelopes before progress for them is shared. Each
        //    flusher skips its tee when nothing was pushed into it.
        let flush_needed = self.activations.borrow_mut().take_flush_needed();
        if flush_needed || ops_ran {
            for flusher in &mut self.built.flushers {
                flusher();
            }
        }

        // 4. Run durability hooks: operators with external durable state (a
        //    write-ahead log) sync it here, before the round's progress is
        //    shared, so no peer observes progress past an unsynced write.
        //    Durable writes only happen inside operator logic, so the hooks
        //    are skipped when no operator ran.
        if ops_ran {
            for hook in &mut self.built.sync_hooks {
                hook();
            }
        }

        // 5. Harvest the progress changes the operators (and user code)
        //    recorded, apply them locally — activating whatever the frontier
        //    movement makes runnable — and broadcast exactly that batch before
        //    returning (see the module docs). This must stay behind steps 3
        //    and 4: the round's data has left and its writes are synced
        //    before a peer can observe its progress, and one mailbox per
        //    worker and one socket per process pair keep that order in flight.
        let progress_dirty = self.activations.borrow_mut().take_progress_dirty();
        if progress_dirty || ops_ran {
            self.harvest_progress();
            if !self.harvest.is_empty() {
                self.tracker.apply(&self.harvest);
                self.activate_frontier_changes();
                if self.built.peers > 1 {
                    self.broadcast_harvest();
                }
            }
        }

        // Reaching here means the idle fast path did not trigger: the step
        // received, ran, flushed or harvested something.
        true
    }

    fn complete(&self) -> bool {
        self.tracker.is_complete()
    }

    fn summary(&self) -> DataflowSummary {
        DataflowSummary {
            dataflow: 0, // Stamped by the worker, which knows the index.
            complete: self.tracker.is_complete(),
            pending_progress: self.pending_progress.len(),
            activated: self.activations.borrow().queued_len(),
        }
    }
}

/// A single worker thread: it owns a partition of every dataflow's operators and
/// repeatedly schedules them, exchanging data and progress with its peers.
pub struct Worker {
    alloc: Allocator,
    dataflows: Vec<Box<dyn DataflowStep>>,
    /// Envelopes received for dataflows this worker has not yet constructed.
    stashed: Vec<Envelope>,
    /// Rounds run since construction.
    steps: u64,
    /// Rounds that found nothing to do (parked-loop candidates).
    quiet_steps: u64,
    /// Whether the last round did anything: an idle `step` parks only then.
    last_round_active: bool,
}

impl Worker {
    /// Creates a worker around its communication endpoint.
    pub fn new(alloc: Allocator) -> Self {
        Worker {
            alloc,
            dataflows: Vec::new(),
            stashed: Vec::new(),
            steps: 0,
            quiet_steps: 0,
            last_round_active: false,
        }
    }

    /// This worker's index.
    pub fn index(&self) -> usize {
        self.alloc.index()
    }

    /// The total number of workers.
    pub fn peers(&self) -> usize {
        self.alloc.peers()
    }

    /// Constructs a new dataflow by running `func` with a fresh scope.
    ///
    /// Every worker must call `dataflow` the same number of times with
    /// structurally identical construction closures; this is what allows
    /// channels and progress information to line up across workers.
    pub fn dataflow<T, R, F>(&mut self, func: F) -> R
    where
        T: Timestamp,
        F: FnOnce(&mut Scope<T>) -> R,
    {
        let dataflow_index = self.dataflows.len();
        let builder = GraphBuilder::new(
            dataflow_index,
            self.alloc.index(),
            self.alloc.peers(),
            self.alloc.senders(),
        );
        let mut scope = Scope::new(builder);
        let result = func(&mut scope);
        let built = scope.finalize();
        self.dataflows.push(Box::new(DataflowCore::new(built)));

        // Deliver any envelopes that arrived before this dataflow existed.
        let stashed = std::mem::take(&mut self.stashed);
        for envelope in stashed {
            self.route(envelope);
        }
        result
    }

    fn route(&mut self, envelope: Envelope) {
        if envelope.dataflow < self.dataflows.len() {
            self.dataflows[envelope.dataflow].accept(envelope.channel, envelope.payload);
        } else {
            self.stashed.push(envelope);
        }
    }

    /// Performs one round of message delivery and operator scheduling.
    ///
    /// Returns `true` if the worker made progress (received messages, ran
    /// activated operators, or changed progress state); callers may yield or
    /// park when the worker reports inactivity.
    ///
    /// When that round finds nothing to do right after one that did, the
    /// step first waits up to `FIRST_PARK_SLICE` (50 µs) for the peer's
    /// reply ([`Allocator::wait`]); if an envelope arrives it runs one more
    /// round and returns that round's activity. A single worker never waits
    /// here.
    pub fn step(&mut self) -> bool {
        let after_active = self.last_round_active;
        let active = self.round();
        if active || !after_active || self.peers() == 1 {
            return active;
        }
        self.alloc.wait(Some(FIRST_PARK_SLICE)) && self.round()
    }

    /// One round of [`step`](Worker::step): receive, run the dataflows, write
    /// what was staged for other processes.
    fn round(&mut self) -> bool {
        // A stranding remote-peer failure (connection broken mid-frame) is
        // surfaced here as an ordinary panic, on whichever worker read it and
        // on its siblings: stepping on would wait forever for envelopes that
        // cannot arrive. One `Option` check when idle — the idle fast path
        // stays a handful of flag checks.
        if let Some(reason) = self.alloc.peer_failure() {
            panic!("{reason}");
        }
        let mut active = false;
        while let Some(envelope) = self.alloc.try_recv() {
            active = true;
            self.route(envelope);
        }
        for dataflow in &mut self.dataflows {
            active |= dataflow.step();
        }
        // What this step staged for other processes — its data, then its
        // progress — leaves in one write per link.
        self.alloc.flush();
        self.steps += 1;
        self.quiet_steps += u64::from(!active);
        self.last_round_active = active;
        active
    }

    /// Parks an idle driving loop: a capped spin prelude of yields (cheap
    /// sub-microsecond turnarounds), then a bounded [`Allocator::wait`]
    /// (~0 CPU while genuinely idle). `idle_streak` counts the consecutive
    /// idle steps seen by the caller.
    fn idle_wait(&self, idle_streak: usize) {
        if idle_streak <= PARK_SPIN_YIELDS {
            std::thread::yield_now();
        } else {
            self.alloc.wait(Some(PARK_TIMEOUT));
        }
    }

    /// Steps the worker while `condition` returns `true`; an idle worker
    /// parks (after a capped spin prelude) instead of
    /// busy-yielding. The rounds run back to back: the prelude, not
    /// [`step`](Worker::step)'s wait for a reply, covers a peer's turnaround.
    pub fn step_while(&mut self, mut condition: impl FnMut() -> bool) {
        let mut idle_streak = 0usize;
        while condition() {
            if self.round() {
                idle_streak = 0;
            } else {
                idle_streak += 1;
                self.idle_wait(idle_streak);
            }
        }
    }

    /// Returns `true` iff every dataflow has completed (no capabilities or
    /// in-flight messages remain anywhere).
    pub fn dataflows_complete(&self) -> bool {
        self.dataflows.iter().all(|dataflow| dataflow.complete())
    }

    /// `(steps, quiet_steps)` taken since construction: how many scheduling
    /// rounds this worker ran (a [`step`](Worker::step) that waited for a
    /// reply and got one runs two), and how many found nothing to do. Monitoring
    /// endpoints export the pair as a scheduler-load summary; the counters are
    /// two plain increments on the step path.
    pub fn step_counts(&self) -> (u64, u64) {
        (self.steps, self.quiet_steps)
    }

    /// A read-only progress summary of every dataflow, in construction order.
    ///
    /// Safe to call from a monitoring hook on a quiet step: it reads tracker
    /// and queue counters only and never activates idle operators, so an idle
    /// worker sampled every step stays idle (the idle step costs the
    /// same when nobody calls this).
    pub fn progress_summary(&self) -> Vec<DataflowSummary> {
        self.dataflows
            .iter()
            .enumerate()
            .map(|(index, dataflow)| DataflowSummary { dataflow: index, ..dataflow.summary() })
            .collect()
    }

    /// Steps the worker until every dataflow completes; idle waits park
    /// (see [`step_while`](Worker::step_while)).
    pub fn step_until_complete(&mut self) {
        let mut idle_streak = 0usize;
        while !self.dataflows_complete() {
            if self.round() {
                idle_streak = 0;
            } else {
                idle_streak += 1;
                self.idle_wait(idle_streak);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communication::allocate;
    use crate::communication::net::tests::process_pair;
    use crate::dataflow::InputHandle;
    use std::time::Instant;

    /// Local-peer progress fanout shares one allocation: every same-process
    /// peer receives the *same* `Arc<ProgressUpdates>` (pointer-equal), not a
    /// clone per peer. Pins the `Payload::ProgressShared` path the way
    /// `broadcast_encodes_each_record_exactly_once` pins the encode-once slab.
    #[test]
    fn local_progress_fanout_shares_one_arc() {
        let mut allocs = allocate(3);
        let peer2 = allocs.pop().expect("three allocators");
        let peer1 = allocs.pop().expect("three allocators");
        let mut worker = Worker::new(allocs.pop().expect("three allocators"));

        let mut input = input_to_probe(&mut worker);
        input.send(7);
        input.advance_to(1);
        // Step until the initial activity settles; every progress envelope
        // this produced sits in the peers' mailboxes.
        while worker.step() {}
        drop(input);
        while worker.step() {}

        let shared_pointers = |alloc: &Allocator| -> Vec<*const ()> {
            let mut pointers = Vec::new();
            while let Some(envelope) = alloc.try_recv() {
                match envelope.payload {
                    Payload::ProgressShared(shared) => {
                        pointers.push(Arc::as_ptr(&shared) as *const ());
                    }
                    other => panic!("expected shared progress, got {:?}", other),
                }
            }
            pointers
        };
        let pointers1 = shared_pointers(&peer1);
        let pointers2 = shared_pointers(&peer2);
        assert!(!pointers1.is_empty(), "worker 0 must have broadcast progress");
        assert_eq!(
            pointers1, pointers2,
            "each broadcast must hand every local peer the same allocation"
        );
    }

    /// The progress batches among `envelopes` (same-process peers receive
    /// them shared).
    fn progress_in(envelopes: &[Envelope]) -> Vec<Arc<ProgressUpdates<u64>>> {
        envelopes
            .iter()
            .filter_map(|envelope| match &envelope.payload {
                Payload::ProgressShared(shared) => {
                    Some(Arc::clone(shared).downcast().expect("u64 progress"))
                }
                _ => None,
            })
            .collect()
    }

    /// Progress leaves with the step that harvested it: what one `step()`
    /// recorded — an input's `send` + `advance_to`, the consumption of a data
    /// envelope it received — is in the peer's mailbox when that step returns,
    /// with no second step and nothing to flush; and a step that harvested
    /// nothing sends nothing, so an idle worker stays silent.
    #[test]
    fn progress_leaves_with_the_step_that_harvested_it() {
        let mut allocs = allocate(2);
        let mut peer = Worker::new(allocs.pop().expect("two allocators"));
        let mut worker = Worker::new(allocs.pop().expect("two allocators"));
        // Input → exchange (every record to worker 1) → probe.
        let build = |worker: &mut Worker| {
            worker.dataflow::<u64, _, _>(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                stream.exchange(|_| 1).probe();
                input
            })
        };
        let mut input = build(&mut worker);
        let peer_input = build(&mut peer);
        // Settle construction: initial capabilities cross, both go idle.
        while worker.step() | peer.step() {}

        // One step after `send` + `advance_to` on worker 0: the record's
        // envelope and the progress recording it (one message produced at 0,
        // the input's capability moved 0 → 1) are both in the peer's mailbox.
        input.send(7);
        input.advance_to(1);
        assert!(worker.step());
        let sent: Vec<Envelope> = peer.alloc.try_iter().collect();
        let progress = progress_in(&sent);
        assert_eq!(progress.len(), 1, "one harvesting step, one progress envelope");
        assert!(progress[0].messages.iter().any(|&(_, time, diff)| time == 0 && diff == 1));
        assert!(progress[0].internals.iter().any(|&(_, time, diff)| time == 1 && diff == 1));
        assert!(
            matches!(sent[0].payload, Payload::Data(_)),
            "the round's data envelope must precede its progress"
        );

        // One step on worker 1 that receives that data envelope: the
        // acknowledgement ("consumed one message at 0") is in worker 0's
        // mailbox when the step returns.
        for envelope in sent {
            peer.route(envelope);
        }
        assert!(peer.step());
        let acknowledged: Vec<Envelope> = worker.alloc.try_iter().collect();
        let progress = progress_in(&acknowledged);
        assert_eq!(progress.len(), 1, "one harvesting step, one progress envelope");
        assert!(progress[0].messages.iter().any(|&(_, time, diff)| time == 0 && diff == -1));
        for envelope in acknowledged {
            worker.route(envelope);
        }

        // A step that harvests nothing sends nothing.
        while worker.step() | peer.step() {}
        for _ in 0..10 {
            assert!(!worker.step() && !peer.step(), "settled workers are idle");
        }
        assert!(worker.alloc.try_recv().is_none() && peer.alloc.try_recv().is_none());

        drop((input, peer_input));
        while !(worker.dataflows_complete() && peer.dataflows_complete()) {
            worker.step();
            peer.step();
        }
    }

    /// Input → probe: every `advance_to` makes the next step active.
    fn input_to_probe(worker: &mut Worker) -> InputHandle<u64, u64> {
        worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            stream.probe();
            input
        })
    }

    /// Steps `worker` until a step finds nothing to do; returns how long that
    /// idle step took.
    fn time_first_idle_step(worker: &mut Worker) -> Duration {
        loop {
            let started = Instant::now();
            if !worker.step() {
                return started.elapsed();
            }
        }
    }

    /// Step pairs per timing test: parking on every one would take
    /// `PAIRS` × `FIRST_PARK_SLICE`, half a second.
    const PAIRS: u32 = 10_000;

    /// Alone there is no reply to wait for: an idle step after an active one
    /// returns at once.
    #[test]
    fn a_single_worker_never_parks_in_step() {
        let mut worker = Worker::new(allocate(1).pop().expect("one allocator"));
        let mut input = input_to_probe(&mut worker);
        while worker.step() {}
        let mut idle = Duration::ZERO;
        for time in 1..=u64::from(PAIRS) {
            input.advance_to(time);
            idle += time_first_idle_step(&mut worker);
        }
        assert!(idle < FIRST_PARK_SLICE * PAIRS / 2, "{PAIRS} idle-after-active steps took {idle:?}");
    }

    /// Only the first idle step after an active one waits: a settled worker
    /// with an in-process peer steps idle without parking.
    #[test]
    fn an_idle_step_after_an_idle_step_never_parks() {
        let mut allocs = allocate(2);
        let mut peer = Worker::new(allocs.pop().expect("two allocators"));
        let mut worker = Worker::new(allocs.pop().expect("two allocators"));
        let _inputs = (input_to_probe(&mut worker), input_to_probe(&mut peer));
        while worker.step() | peer.step() {}
        let started = Instant::now();
        for _ in 0..PAIRS {
            assert!(!worker.step(), "a settled worker is idle");
        }
        let elapsed = started.elapsed();
        assert!(elapsed < FIRST_PARK_SLICE * PAIRS / 4, "{PAIRS} idle steps took {elapsed:?}");
    }

    /// With an in-process peer that never answers (it is never stepped), the
    /// idle step after an active one waits out one `FIRST_PARK_SLICE` on the
    /// mailbox, then reports nothing done.
    #[test]
    fn an_idle_step_after_an_active_one_waits_one_slice_for_a_silent_peer() {
        let mut allocs = allocate(2);
        let mut peer = Worker::new(allocs.pop().expect("two allocators"));
        let mut worker = Worker::new(allocs.pop().expect("two allocators"));
        let mut input = input_to_probe(&mut worker);
        let _peer_input = input_to_probe(&mut peer);
        while worker.step() {}
        input.advance_to(1);
        let waited = time_first_idle_step(&mut worker);
        assert!(
            waited >= FIRST_PARK_SLICE && waited < FIRST_PARK_SLICE + Duration::from_millis(50),
            "the idle step after an active one took {waited:?}"
        );
    }

    /// A worker with peers in another process waits for the reply on its
    /// sockets: with a peer process that never answers (its workers are
    /// never stepped), the idle step after an active one waits out one
    /// `FIRST_PARK_SLICE`, then reports nothing done — whether or not the
    /// worker has a sibling in its own process.
    fn waits_one_slice_for_a_silent_remote_peer(workers_per_process: usize) {
        let [(mut near, _near_guard), _far] = process_pair(workers_per_process);
        let mut worker = Worker::new(near.remove(0));
        let mut input = input_to_probe(&mut worker);
        while worker.step() {}
        input.advance_to(1);
        let waited = time_first_idle_step(&mut worker);
        assert!(
            waited >= FIRST_PARK_SLICE && waited < FIRST_PARK_SLICE + Duration::from_millis(50),
            "the idle step after an active one took {waited:?}"
        );
    }

    #[test]
    fn a_sole_worker_with_links_waits_one_slice_for_a_silent_remote_peer() {
        waits_one_slice_for_a_silent_remote_peer(1);
    }

    #[test]
    fn a_worker_with_siblings_and_links_waits_one_slice_for_a_silent_remote_peer() {
        waits_one_slice_for_a_silent_remote_peer(2);
    }
}
