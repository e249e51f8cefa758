//! Data parallelization contracts ("pacts"), channel pushers and tees.
//!
//! When an operator output is connected to an operator input, the connection is
//! given a [`Pact`] describing how records move between workers: stay on the same
//! worker ([`Pact::Pipeline`]), be routed by a hash of the record
//! ([`Pact::Exchange`]), or be replicated to all workers ([`Pact::Broadcast`]).
//!
//! Remote deliveries are *staged*: a [`Pusher`] accumulates the batches routed
//! to each peer across `push` calls and only materializes envelopes when
//! [`Pusher::flush`] runs (driven once per [`Worker::step`] round, and from the
//! capability-downgrade points of input handles). One flushed envelope carries
//! every `(time, batch)` staged for its `(target worker, channel)` pair since
//! the previous flush, so channel operations and allocations scale with flushes
//! × active targets instead of pushes × peers.
//!
//! [`Worker::step`]: crate::worker::Worker::step

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::codec::{Codec, Slab};
use crate::communication::allocator::{send_to, Envelope, Payload, WorkerSender};
use crate::order::Timestamp;
use crate::progress::ChangeBatch;
use crate::schedule::SharedActivations;
use crate::Data;

/// The queue of received `(time, data)` bundles for one channel at one worker.
pub type SharedQueue<T, D> = Rc<RefCell<VecDeque<(T, Vec<D>)>>>;

/// A shared change batch used to report progress information.
pub type SharedChanges<T> = Rc<RefCell<ChangeBatch<T>>>;

/// The coalesced payload of one data envelope: every `(time, batch)` staged for
/// one `(target worker, channel)` pair between two flushes.
pub type MultiBatch<T, D> = Vec<(T, Vec<D>)>;

/// Creates an empty shared queue.
pub fn shared_queue<T, D>() -> SharedQueue<T, D> {
    Rc::new(RefCell::new(VecDeque::new()))
}

/// Creates an empty shared change batch.
pub fn shared_changes<T: Ord + Clone>() -> SharedChanges<T> {
    Rc::new(RefCell::new(ChangeBatch::new()))
}

/// A routing function mapping each record to a worker (modulo peers).
pub type RouteFn<D> = Rc<dyn Fn(&D) -> u64>;
/// An estimator of a record's real bytes (heap payload included), used by the
/// adaptive flush accounting.
pub type SizeFn<D> = Rc<dyn Fn(&D) -> usize>;

/// A data parallelization contract for one channel.
pub enum Pact<D> {
    /// Records stay on the producing worker.
    Pipeline,
    /// Each record is routed to worker `route(record) % peers`. The second
    /// component optionally estimates a record's bytes for the adaptive flush
    /// accounting; without it, records count as `size_of::<D>()`, which
    /// understates heap-backed payloads.
    Exchange(RouteFn<D>, Option<SizeFn<D>>),
    /// Every record is delivered to every worker.
    Broadcast,
}

impl<D> Pact<D> {
    /// Convenience constructor for an exchange pact from a routing closure.
    pub fn exchange<F: Fn(&D) -> u64 + 'static>(route: F) -> Self {
        Pact::Exchange(Rc::new(route), None)
    }

    /// An exchange pact whose records carry heap payloads: `size` estimates a
    /// record's real bytes so the adaptive flush budget sees them (used by the
    /// migration channel, whose fragments are kilobytes behind a thin header).
    pub fn exchange_sized<F, G>(route: F, size: G) -> Self
    where
        F: Fn(&D) -> u64 + 'static,
        G: Fn(&D) -> usize + 'static,
    {
        Pact::Exchange(Rc::new(route), Some(Rc::new(size)))
    }
}

impl<D> Clone for Pact<D> {
    fn clone(&self) -> Self {
        match self {
            Pact::Pipeline => Pact::Pipeline,
            Pact::Exchange(route, size) => {
                Pact::Exchange(Rc::clone(route), size.as_ref().map(Rc::clone))
            }
            Pact::Broadcast => Pact::Broadcast,
        }
    }
}

impl<D> std::fmt::Debug for Pact<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pact::Pipeline => write!(f, "Pipeline"),
            Pact::Exchange(_, _) => write!(f, "Exchange"),
            Pact::Broadcast => write!(f, "Broadcast"),
        }
    }
}

/// The sending endpoint of one channel at one worker.
///
/// A pusher routes record batches to the appropriate workers according to its
/// pact. Locally destined records go directly into the local shared queue;
/// remote records are staged per target worker and leave as coalesced
/// [`MultiBatch`] envelopes on [`flush`](Pusher::flush). Every pushed record is
/// accounted in the channel's `produced` change batch at push time — before any
/// worker could consume it — so progress tracking holds downstream frontiers
/// while batches sit in the staging buffers.
pub struct Pusher<T: Timestamp, D> {
    pact: Pact<D>,
    dataflow: usize,
    channel: usize,
    index: usize,
    peers: usize,
    local: SharedQueue<T, D>,
    senders: Vec<WorkerSender>,
    produced: SharedChanges<T>,
    /// Scratch per-worker buffers for exchange routing.
    buffers: Vec<Vec<D>>,
    /// Scratch per-worker byte estimates accumulated alongside `buffers`.
    size_scratch: Vec<usize>,
    /// Staged outgoing batches per target worker, coalesced across pushes.
    staged: Vec<MultiBatch<T, D>>,
    /// Estimated staged bytes per target worker.
    staged_bytes: Vec<usize>,
    /// Adaptive flush threshold: once a target's estimated staged bytes exceed
    /// this budget, its envelope leaves mid-step instead of waiting for the
    /// step-boundary flush, bounding staging-buffer memory and the latency of
    /// large transfers (e.g. migration fragments) under heavy fan-in.
    flush_budget: usize,
    /// Demand-driven scheduling hooks, wired by the graph builder (absent for
    /// pushers constructed directly, e.g. in tests and benches): the consuming
    /// node to activate on local delivery, and the dataflow's activation set
    /// whose dirty flags gate the worker's flush and progress work.
    activations: Option<(usize, SharedActivations)>,
}

/// Default adaptive flush budget: 1 MiB of estimated staged bytes per target
/// (and of frames staged on one link of a [`Mesh`](super::net::Mesh)).
pub(crate) const DEFAULT_FLUSH_BUDGET: usize = 1 << 20;

/// Encodes the batches staged for a remote target into the slab its frame will
/// carry. The buffer is sized once, from the bytes the pusher counted while
/// staging (`staged_bytes`) plus the length headers the count leaves out, so a
/// megabyte of fragments is written into one allocation instead of doubling
/// up to it; an estimate that fell short only costs the usual growth.
fn encode_staged<T: Codec, D: Codec>(batches: &MultiBatch<T, D>, staged_bytes: usize) -> Slab {
    let headers = 8 + batches.len() * (std::mem::size_of::<T>() + 8);
    let mut bytes = Vec::with_capacity(staged_bytes + headers);
    batches.encode(&mut bytes);
    Slab::new(bytes)
}

impl<T: Timestamp, D: Data> Pusher<T, D> {
    /// Creates a pusher for a channel.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pact: Pact<D>,
        dataflow: usize,
        channel: usize,
        index: usize,
        peers: usize,
        local: SharedQueue<T, D>,
        senders: Vec<WorkerSender>,
        produced: SharedChanges<T>,
    ) -> Self {
        Pusher {
            pact,
            dataflow,
            channel,
            index,
            peers,
            local,
            senders,
            produced,
            buffers: (0..peers).map(|_| Vec::new()).collect(),
            size_scratch: vec![0; peers],
            staged: (0..peers).map(|_| Vec::new()).collect(),
            staged_bytes: vec![0; peers],
            flush_budget: DEFAULT_FLUSH_BUDGET,
            activations: None,
        }
    }

    /// Wires the pusher into demand-driven scheduling: a batch delivered into
    /// the local queue activates `target_node`, a batch staged for another
    /// worker raises the dataflow's flush flag, and every push raises the
    /// progress flag (`produced` is accounted at push time).
    pub fn wire_activations(&mut self, target_node: usize, set: SharedActivations) {
        self.activations = Some((target_node, set));
    }

    /// The channel this pusher feeds.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Overrides the adaptive flush budget (estimated staged bytes per target
    /// above which the target is flushed mid-step).
    pub fn set_flush_budget(&mut self, bytes: usize) {
        assert!(bytes > 0, "flush budget must be positive");
        self.flush_budget = bytes;
    }

    /// Delivers `batch` (estimated at `bytes` bytes) at `time` to `target`:
    /// the local queue for this worker, the target's staging buffer otherwise
    /// (coalescing with the previous staged batch when the time matches). A
    /// target whose estimated staged bytes exceed the flush budget is flushed
    /// immediately rather than at the next step boundary.
    /// Activates the consuming node: a batch is sitting in its local queue.
    fn note_local_delivery(&self) {
        if let Some((node, set)) = &self.activations {
            set.borrow_mut().activate(*node);
        }
    }

    /// Raises the dataflow's flush flag: a batch was staged for another
    /// worker and must leave at the next flush point even if no local
    /// operator has anything to do.
    fn note_remote_staged(&self) {
        if let Some((_, set)) = &self.activations {
            set.borrow_mut().set_flush_needed();
        }
    }

    /// Raises the dataflow's progress flag: `produced` changed, so the next
    /// step must harvest.
    fn note_progress(&self) {
        if let Some((_, set)) = &self.activations {
            set.borrow_mut().set_progress_dirty();
        }
    }

    fn deliver(&mut self, time: &T, target: usize, mut batch: Vec<D>, bytes: usize) {
        if target == self.index {
            self.local.borrow_mut().push_back((time.clone(), batch));
            self.note_local_delivery();
            return;
        }
        self.note_remote_staged();
        self.staged_bytes[target] += bytes;
        let staged = &mut self.staged[target];
        match staged.last_mut() {
            Some((last_time, last_batch)) if last_time == time => last_batch.append(&mut batch),
            _ => staged.push((time.clone(), batch)),
        }
        if self.staged_bytes[target] >= self.flush_budget {
            self.flush_target(target);
        }
    }

    /// Sends every batch staged for `target` as one coalesced envelope: the
    /// batches themselves to a worker of this process, their encoding to a
    /// worker of another one.
    fn flush_target(&mut self, target: usize) {
        if self.staged[target].is_empty() {
            return;
        }
        let batches = std::mem::take(&mut self.staged[target]);
        let staged_bytes = std::mem::take(&mut self.staged_bytes[target]);
        let payload = if self.senders[target].is_remote() {
            Payload::DataBytes(encode_staged(&batches, staged_bytes))
        } else {
            Payload::Data(Box::new(batches))
        };
        self.send(target, payload);
    }

    /// Sends `payload` to `target` in this channel's envelope.
    fn send(&self, target: usize, payload: Payload) {
        send_to(
            &self.senders,
            target,
            Envelope { dataflow: self.dataflow, channel: self.channel, from: self.index, payload },
        );
    }

    /// Pushes a batch of records at `time`, consuming the batch.
    ///
    /// Remote deliveries are staged until the next [`flush`](Pusher::flush).
    pub fn push(&mut self, time: &T, data: Vec<D>) {
        if data.is_empty() {
            return;
        }
        self.note_progress();
        match &self.pact {
            Pact::Pipeline => {
                self.produced.borrow_mut().update(time.clone(), data.len() as i64);
                self.local.borrow_mut().push_back((time.clone(), data));
                self.note_local_delivery();
            }
            Pact::Broadcast => {
                self.produced
                    .borrow_mut()
                    .update(time.clone(), (data.len() * self.peers) as i64);
                // `size_of::<D>()` understates records owning heap data; the
                // budget bounds *estimated* bytes, which is enough to keep
                // staging memory in check for broadcast (control) traffic.
                let estimate = data.len() * std::mem::size_of::<D>();
                // Clone for all targets but the last, which consumes the batch.
                let last = self.peers - 1;
                for target in 0..last {
                    let copy = data.clone();
                    self.deliver(time, target, copy, estimate);
                }
                self.deliver(time, last, data, estimate);
            }
            Pact::Exchange(route, size) => {
                self.produced.borrow_mut().update(time.clone(), data.len() as i64);
                if self.peers == 1 {
                    self.local.borrow_mut().push_back((time.clone(), data));
                    self.note_local_delivery();
                    return;
                }
                let route = Rc::clone(route);
                let size = size.as_ref().map(Rc::clone);
                // `deliver` takes the scratch buffers, so each push starts
                // them at capacity 0: presize to twice the uniform share
                // (the whole batch at two peers) rather than regrow per push.
                let share = data.len().min(2 * data.len().div_ceil(self.peers));
                for buffer in &mut self.buffers {
                    buffer.reserve(share);
                }
                for record in data {
                    let target = (route(&record) % self.peers as u64) as usize;
                    // With an estimator, account each record's real payload;
                    // otherwise fall back to its in-memory size.
                    self.size_scratch[target] += match &size {
                        Some(size) => size(&record),
                        None => std::mem::size_of::<D>(),
                    };
                    self.buffers[target].push(record);
                }
                for target in 0..self.peers {
                    if self.buffers[target].is_empty() {
                        continue;
                    }
                    let batch = std::mem::take(&mut self.buffers[target]);
                    let estimate = std::mem::take(&mut self.size_scratch[target]);
                    self.deliver(time, target, batch, estimate);
                }
            }
        }
    }

    /// Sends every staged batch as one coalesced envelope per target worker.
    ///
    /// A broadcast pusher's remote (other-process) targets share one payload
    /// encoding: their staged buffers are maintained in lockstep — every push
    /// appends the same batch to each, and budget overflows trip for all of
    /// them within the same push — so the wire bytes are produced once, into a
    /// ref-counted [`Slab`], and every extra target costs
    /// one slab handle instead of a re-encode or a byte-vector clone.
    pub fn flush(&mut self) {
        if matches!(self.pact, Pact::Broadcast) {
            // The desync guard compares batch *shape* (times and record
            // counts), never re-encodes: the encode-once property is pinned by
            // a test counting record encode calls.
            let mut encoded: Option<(Slab, Vec<(T, usize)>)> = None;
            for target in 0..self.peers {
                if self.staged[target].is_empty() || !self.senders[target].is_remote() {
                    self.flush_target(target);
                    continue;
                }
                let batches = std::mem::take(&mut self.staged[target]);
                let staged_bytes = std::mem::take(&mut self.staged_bytes[target]);
                let shape =
                    || batches.iter().map(|(time, batch)| (time.clone(), batch.len())).collect();
                let slab = match &encoded {
                    Some((slab, first_shape)) => {
                        debug_assert_eq!(
                            &shape(),
                            first_shape,
                            "broadcast staging desynced across remote targets"
                        );
                        slab.clone()
                    }
                    None => {
                        let shape: Vec<(T, usize)> = shape();
                        let slab = encode_staged(&batches, staged_bytes);
                        encoded = Some((slab.clone(), shape));
                        slab
                    }
                };
                self.send(target, Payload::DataBytes(slab));
            }
            return;
        }
        for target in 0..self.peers {
            self.flush_target(target);
        }
    }
}

/// The fan-out of one operator output port: a list of channel pushers.
///
/// A stream may be consumed by any number of downstream operators; each
/// consumer's channel registers a pusher here. Pushing a batch delivers it to
/// every registered channel (cloning for all but the last).
pub struct Tee<T: Timestamp, D> {
    pushers: Vec<Pusher<T, D>>,
    /// Set on every push, taken by the worker's per-round flusher: a clean tee
    /// is skipped entirely, so flush work scales with dirty channels instead
    /// of all channels.
    dirty: bool,
}

impl<T: Timestamp, D: Data> Tee<T, D> {
    /// Creates an empty tee.
    pub fn new() -> Self {
        Tee { pushers: Vec::new(), dirty: false }
    }

    /// Registers a new channel pusher.
    pub fn add_pusher(&mut self, pusher: Pusher<T, D>) {
        self.pushers.push(pusher);
    }

    /// Number of attached channels.
    pub fn len(&self) -> usize {
        self.pushers.len()
    }

    /// Returns `true` iff no channel is attached.
    pub fn is_empty(&self) -> bool {
        self.pushers.is_empty()
    }

    /// Pushes a batch at `time` to every attached channel.
    pub fn push(&mut self, time: &T, data: Vec<D>) {
        if data.is_empty() || self.pushers.is_empty() {
            return;
        }
        self.dirty = true;
        let last = self.pushers.len() - 1;
        for pusher in &mut self.pushers[..last] {
            pusher.push(time, data.clone());
        }
        self.pushers[last].push(time, data);
    }

    /// Whether anything was pushed since the last flush.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Flushes the staging buffers of every attached channel.
    pub fn flush(&mut self) {
        self.dirty = false;
        for pusher in &mut self.pushers {
            pusher.flush();
        }
    }
}

impl<T: Timestamp, D: Data> Default for Tee<T, D> {
    fn default() -> Self {
        Self::new()
    }
}

/// A shared handle to a tee, held by output handles and by streams (to attach
/// further channels after the operator was built).
pub type SharedTee<T, D> = Rc<RefCell<Tee<T, D>>>;

/// Creates an empty shared tee.
pub fn shared_tee<T: Timestamp, D: Data>() -> SharedTee<T, D> {
    Rc::new(RefCell::new(Tee::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communication::allocator::allocate;

    type PusherFixture =
        (Pusher<u64, u64>, SharedQueue<u64, u64>, SharedChanges<u64>, Vec<crate::communication::Allocator>);

    fn pusher_with(pact: Pact<u64>, peers: usize) -> PusherFixture {
        let allocs = allocate(peers);
        let local = shared_queue();
        let produced = shared_changes();
        let pusher = Pusher::new(
            pact,
            0,
            0,
            0,
            peers,
            Rc::clone(&local),
            allocs[0].senders(),
            Rc::clone(&produced),
        );
        (pusher, local, produced, allocs)
    }

    #[test]
    fn pipeline_stays_local() {
        let (mut pusher, local, produced, _allocs) = pusher_with(Pact::Pipeline, 2);
        pusher.push(&3, vec![1, 2, 3]);
        assert_eq!(local.borrow().len(), 1);
        assert_eq!(produced.borrow_mut().clone_inner(), vec![(3, 3)]);
    }

    #[test]
    fn exchange_routes_by_hash() {
        let (mut pusher, local, produced, allocs) = pusher_with(Pact::exchange(|x: &u64| *x), 2);
        pusher.push(&5, vec![0, 1, 2, 3]);
        // Evens stay at worker 0 immediately; odds are staged until the flush.
        let local_records: Vec<u64> =
            local.borrow().iter().flat_map(|(_, d)| d.clone()).collect();
        assert_eq!(local_records, vec![0, 2]);
        assert!(allocs[1].try_recv().is_none(), "remote delivery must wait for flush");
        pusher.flush();
        let envelope = allocs[1].try_recv().expect("worker 1 should receive data");
        let batches = *envelope.payload_into::<MultiBatch<u64, u64>>();
        assert_eq!(batches, vec![(5, vec![1, 3])]);
        // Produced counts the total number of records once, at push time.
        assert_eq!(produced.borrow_mut().clone_inner(), vec![(5, 4)]);
    }

    #[test]
    fn flush_coalesces_batches_per_target() {
        let (mut pusher, _local, _produced, allocs) = pusher_with(Pact::exchange(|x: &u64| *x), 2);
        pusher.push(&5, vec![1, 3]);
        pusher.push(&5, vec![5]);
        pusher.push(&6, vec![7]);
        pusher.flush();
        // One envelope carries all three pushes: same-time batches merged,
        // later time appended.
        let envelope = allocs[1].try_recv().expect("worker 1 should receive data");
        let batches = *envelope.payload_into::<MultiBatch<u64, u64>>();
        assert_eq!(batches, vec![(5, vec![1, 3, 5]), (6, vec![7])]);
        assert!(allocs[1].try_recv().is_none(), "all pushes must share one envelope");
        // A flush with nothing staged sends nothing.
        pusher.flush();
        assert!(allocs[1].try_recv().is_none());
    }

    #[test]
    fn broadcast_reaches_all_workers() {
        let (mut pusher, local, produced, allocs) = pusher_with(Pact::Broadcast, 3);
        pusher.push(&1, vec![9, 9]);
        pusher.flush();
        assert_eq!(local.borrow().len(), 1);
        assert!(allocs[1].try_recv().is_some());
        assert!(allocs[2].try_recv().is_some());
        // Produced counts one copy per worker.
        assert_eq!(produced.borrow_mut().clone_inner(), vec![(1, 6)]);
    }

    #[test]
    fn broadcast_to_remote_targets_shares_one_encoding() {
        use crate::communication::allocator::{decode_frame, mailbox};
        use crate::communication::net::tests::{mesh_pair, take_staged};

        // Worker 0 of 3, where workers 1 and 2 live in another "process":
        // a broadcast flush must produce byte-identical frames for both from
        // a single payload encoding.
        let (mesh, _peer) = mesh_pair();
        let remote = |to| WorkerSender::Remote { to, mesh: mesh.clone(), link: 0 };
        let senders = vec![WorkerSender::Local(mailbox().0), remote(1), remote(2)];
        let local: SharedQueue<u64, u64> = shared_queue();
        let produced = shared_changes();
        let mut pusher =
            Pusher::new(Pact::Broadcast, 0, 0, 0, 3, Rc::clone(&local), senders, produced);
        pusher.push(&4, vec![7, 8]);
        pusher.flush();
        let frames = take_staged(&mesh);
        assert_eq!(frames.len(), 2, "one frame per remote target");
        let mut payloads = Vec::new();
        for frame in &frames {
            let bytes = frame.to_bytes();
            let (envelope, _to) = decode_frame(&bytes[8..]).expect("a whole frame");
            match envelope.payload {
                Payload::DataBytes(bytes) => {
                    assert_eq!(MultiBatch::<u64, u64>::decode_from_slice(&bytes), vec![(4, vec![7, 8])]);
                    payloads.push(bytes);
                }
                other => panic!("expected pre-encoded broadcast payload, got {other:?}"),
            }
        }
        assert_eq!(payloads[0], payloads[1], "both targets share the encoding");
        assert!(
            frames[0].payload.same_region(&frames[1].payload),
            "both targets must hold slab handles into one encoded region, not copies"
        );
        // The local copy was delivered untouched.
        assert_eq!(local.borrow_mut().pop_front(), Some((4, vec![7, 8])));
    }

    /// Pins the encode-once property directly: broadcasting one staged batch
    /// to several remote targets must run each record's `Codec::encode`
    /// exactly once — the extra targets get refcounted slab handles, not
    /// re-encodes (and no debug assertion may sneak a re-encode in either).
    #[test]
    fn broadcast_encodes_each_record_exactly_once() {
        use crate::communication::allocator::mailbox;
        use crate::communication::net::tests::{mesh_pair, take_staged};
        use std::sync::atomic::{AtomicUsize, Ordering};

        static ENCODES: AtomicUsize = AtomicUsize::new(0);

        #[derive(Clone, Debug, PartialEq)]
        struct CountingRecord(u64);
        impl Codec for CountingRecord {
            fn encode(&self, bytes: &mut Vec<u8>) {
                ENCODES.fetch_add(1, Ordering::SeqCst);
                self.0.encode(bytes);
            }
            fn decode(bytes: &mut &[u8]) -> Self {
                CountingRecord(u64::decode(bytes))
            }
        }

        // Worker 0 of 4 with three remote targets.
        let (mesh, _peer) = mesh_pair();
        let remote = |to| WorkerSender::Remote { to, mesh: mesh.clone(), link: 0 };
        let senders = vec![WorkerSender::Local(mailbox().0), remote(1), remote(2), remote(3)];
        let local: SharedQueue<u64, CountingRecord> = shared_queue();
        let produced = shared_changes();
        let mut pusher =
            Pusher::new(Pact::Broadcast, 0, 0, 0, 4, Rc::clone(&local), senders, produced);
        ENCODES.store(0, Ordering::SeqCst);
        pusher.push(&1, vec![CountingRecord(10), CountingRecord(11)]);
        pusher.push(&2, vec![CountingRecord(12)]);
        pusher.flush();
        assert_eq!(take_staged(&mesh).len(), 3, "one frame per remote target");
        assert_eq!(
            ENCODES.load(Ordering::SeqCst),
            3,
            "each staged record must be encoded exactly once for the whole broadcast"
        );
    }

    #[test]
    fn broadcast_last_target_consumes_without_clone() {
        // With the pushing worker last (index == peers - 1), the local delivery
        // must reuse the pushed allocation rather than clone it.
        let allocs = allocate(2);
        let local: SharedQueue<u64, u64> = shared_queue();
        let produced = shared_changes();
        let mut pusher = Pusher::new(
            Pact::Broadcast,
            0,
            0,
            1,
            2,
            Rc::clone(&local),
            allocs[1].senders(),
            produced,
        );
        let data = vec![4, 5];
        let original_ptr = data.as_ptr();
        pusher.push(&1, data);
        pusher.flush();
        let delivered = local.borrow_mut().pop_front().expect("local copy expected");
        assert_eq!(delivered.1, vec![4, 5]);
        assert_eq!(delivered.1.as_ptr(), original_ptr, "last target must consume the batch");
        assert!(allocs[0].try_recv().is_some());
    }

    #[test]
    fn adaptive_flush_triggers_mid_step_once_budget_exceeded() {
        let (mut pusher, _local, produced, allocs) = pusher_with(Pact::exchange(|x: &u64| *x), 2);
        // Budget of three u64 records: the fourth staged record must force an
        // envelope out without any explicit flush() call.
        pusher.set_flush_budget(3 * std::mem::size_of::<u64>());
        pusher.push(&1, vec![1]);
        pusher.push(&1, vec![3]);
        assert!(allocs[1].try_recv().is_none(), "two records stay under the budget");
        pusher.push(&1, vec![5, 7]);
        let envelope = allocs[1].try_recv().expect("budget overflow must flush mid-step");
        let batches = *envelope.payload_into::<MultiBatch<u64, u64>>();
        assert_eq!(batches, vec![(1, vec![1, 3, 5, 7])]);
        // The staging buffer restarts empty: a fresh push stays staged again…
        pusher.push(&2, vec![9]);
        assert!(allocs[1].try_recv().is_none());
        // …until the step-boundary flush drains it.
        pusher.flush();
        let envelope = allocs[1].try_recv().expect("boundary flush still works");
        let batches = *envelope.payload_into::<MultiBatch<u64, u64>>();
        assert_eq!(batches, vec![(2, vec![9])]);
        // Progress was accounted at push time, before either envelope left.
        assert_eq!(produced.borrow_mut().clone_inner(), vec![(1, 4), (2, 1)]);
    }

    #[test]
    fn adaptive_flush_is_per_target() {
        let (mut pusher, _local, _produced, allocs) =
            pusher_with(Pact::exchange(|x: &u64| *x), 3);
        pusher.set_flush_budget(3 * std::mem::size_of::<u64>());
        // One record each for workers 1 and 2: both stay under the budget.
        pusher.push(&1, vec![1, 2]);
        assert!(allocs[1].try_recv().is_none());
        assert!(allocs[2].try_recv().is_none());
        // Two more for worker 1 push it over budget; worker 2 stays staged.
        pusher.push(&1, vec![4, 7]);
        assert!(allocs[1].try_recv().is_some(), "worker 1 exceeded its budget");
        assert!(allocs[2].try_recv().is_none(), "worker 2 stayed under its budget");
    }

    #[test]
    fn sized_exchange_accounts_heap_payloads_against_the_budget() {
        // Records are (route key, payload) pairs whose real weight lives on
        // the heap; size_of::<(u64, Vec<u8>)>() would count ~32 bytes and
        // never trip a kilobyte budget.
        let allocs = allocate(2);
        let local: SharedQueue<u64, (u64, Vec<u8>)> = shared_queue();
        let produced = shared_changes();
        let mut pusher = Pusher::new(
            Pact::exchange_sized(
                |record: &(u64, Vec<u8>)| record.0,
                |record: &(u64, Vec<u8>)| std::mem::size_of::<(u64, Vec<u8>)>() + record.1.len(),
            ),
            0,
            0,
            0,
            2,
            Rc::clone(&local),
            allocs[0].senders(),
            produced,
        );
        pusher.set_flush_budget(1024);
        // 300-byte payloads: the fourth record for worker 1 crosses 1024.
        pusher.push(&1, vec![(1, vec![0u8; 300])]);
        pusher.push(&1, vec![(3, vec![0u8; 300])]);
        pusher.push(&1, vec![(5, vec![0u8; 300])]);
        assert!(allocs[1].try_recv().is_none(), "three payloads stay under 1024 estimated bytes");
        pusher.push(&1, vec![(7, vec![0u8; 300])]);
        assert!(
            allocs[1].try_recv().is_some(),
            "heap payload estimate must trigger the mid-step flush"
        );
    }

    #[test]
    fn empty_batches_are_dropped() {
        let (mut pusher, local, produced, _allocs) = pusher_with(Pact::Pipeline, 1);
        pusher.push(&1, vec![]);
        assert!(local.borrow().is_empty());
        assert!(produced.borrow_mut().is_empty());
    }

    #[test]
    fn tee_duplicates_to_all_channels() {
        let allocs = allocate(1);
        let q1 = shared_queue();
        let q2 = shared_queue();
        let p1 = shared_changes();
        let p2 = shared_changes();
        let mut tee = Tee::<u64, u64>::new();
        tee.add_pusher(Pusher::new(Pact::Pipeline, 0, 0, 0, 1, Rc::clone(&q1), allocs[0].senders(), p1));
        tee.add_pusher(Pusher::new(Pact::Pipeline, 0, 1, 0, 1, Rc::clone(&q2), allocs[0].senders(), p2));
        tee.push(&7, vec![1, 2]);
        assert_eq!(q1.borrow().len(), 1);
        assert_eq!(q2.borrow().len(), 1);
    }

    #[test]
    fn tee_flush_drains_every_pusher() {
        let allocs = allocate(2);
        let q1 = shared_queue();
        let q2 = shared_queue();
        let p1 = shared_changes();
        let p2 = shared_changes();
        let mut tee = Tee::<u64, u64>::new();
        tee.add_pusher(Pusher::new(
            Pact::exchange(|x: &u64| *x),
            0,
            0,
            0,
            2,
            Rc::clone(&q1),
            allocs[0].senders(),
            p1,
        ));
        tee.add_pusher(Pusher::new(
            Pact::exchange(|x: &u64| *x),
            0,
            1,
            0,
            2,
            Rc::clone(&q2),
            allocs[0].senders(),
            p2,
        ));
        tee.push(&3, vec![1]);
        assert!(allocs[1].try_recv().is_none());
        tee.flush();
        let channels: Vec<usize> =
            allocs[1].try_iter().map(|envelope| envelope.channel).collect();
        assert_eq!(channels, vec![0, 1]);
    }

    impl Envelope {
        fn payload_into<M: 'static>(self) -> Box<M> {
            match self.payload {
                Payload::Data(boxed) => {
                    boxed.downcast::<M>().expect("wrong message type")
                }
                other => panic!("expected typed data payload, got {other:?}"),
            }
        }
    }
}
