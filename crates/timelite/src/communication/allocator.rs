//! Worker-to-worker communication fabric.
//!
//! Workers follow a shared-nothing design: each worker owns a single mailbox
//! (a multi-producer channel) and a sender handle to every peer's mailbox.
//! All traffic — data messages and progress updates — travels as type-erased
//! [`Envelope`]s tagged with the dataflow and channel they belong to; the
//! receiving worker demultiplexes them into typed per-channel queues.
//!
//! Peers in the same process are reached through an in-memory channel; peers in
//! another process (cluster mode, [`net`](crate::communication::net)) are
//! reached through a [`WorkerSender::Remote`] handle that puts the envelope's
//! encoded payload in a length-prefixed frame and stages it on the [`Mesh`]'s
//! link to the destination process. Senders ask [`WorkerSender::is_remote`]
//! which form of payload to build and otherwise only ever call [`send_to`].
//!
//! No thread but the workers touches a socket: a worker writes what its step
//! staged ([`Allocator::flush`]) and reads before it receives
//! ([`Allocator::try_recv`], [`Allocator::wait`]). With no links — every
//! in-process fabric — both are an empty loop.
//!
//! An idle worker waits in one place whoever its peers are: `ppoll(2)` on its
//! mailbox's doorbell (an `eventfd` a push rings while the worker is parked)
//! and on the process's links ([`Allocator::wait`]).

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};

use super::net::Mesh;
use super::sys::{self, EventFd};
use crate::codec::{Codec, Slab};

/// Shared record of remote-peer health, written by whichever worker of a
/// process observes it while driving a link of the [`Mesh`] and read by all
/// of them through [`Allocator::peer_failure`].
///
/// A *fatal* report means a peer died in a way that strands this process —
/// a connection broken mid-frame, or a frame routed to a worker this process
/// does not host. Only the worker that happened to read the link sees it, and
/// its siblings would wait forever on envelopes that never arrive; recording
/// the failure here lets each of them raise an ordinary, catchable panic from
/// its own step loop. Write errors on the outgoing side are not fatal: a
/// remote that finished its dataflows closes its socket while our last frames
/// may still be in flight, and that benign race must not fail a completed
/// computation.
#[derive(Debug, Default)]
pub struct PeerStatus {
    fatal: AtomicBool,
    reason: Mutex<Option<String>>,
}

impl PeerStatus {
    /// Records a stranding failure. The first reason wins; later reports only
    /// keep the flag set.
    pub(crate) fn report_fatal(&self, reason: String) {
        let mut slot = self.reason.lock().expect("peer status poisoned");
        slot.get_or_insert(reason);
        drop(slot);
        self.fatal.store(true, Ordering::Release);
    }

    /// The first stranding failure reported, if any. The fast path is one
    /// relaxed load.
    pub fn fatal(&self) -> Option<String> {
        if !self.fatal.load(Ordering::Acquire) {
            return None;
        }
        self.reason.lock().expect("peer status poisoned").clone()
    }
}

/// The payload of an envelope: a typed data message or progress update for a
/// worker of this process (downcast to its concrete type on receipt), or its
/// wire encoding for a worker of another one (decoded by the destination
/// channel or dataflow, which knows the concrete types). Senders pick the form
/// from [`WorkerSender::is_remote`]; the typed forms never reach a socket.
pub enum Payload {
    /// A boxed coalesced multi-batch `Vec<(T, Vec<D>)>` (a
    /// [`MultiBatch`](crate::communication::MultiBatch)) for a specific
    /// channel: every `(time, batch)` one pusher staged for the receiving
    /// worker between two flushes.
    Data(Box<dyn Any + Send>),
    /// A `ProgressUpdates<T>` batch shared by every same-process peer behind
    /// one `Arc`: the local-fanout analogue of the encode-once slab remote
    /// peers receive — one batch allocation, N−1 refcount bumps, zero clones.
    ProgressShared(Arc<dyn Any + Send + Sync>),
    /// The wire encoding of a [`Payload::Data`] multi-batch as a ref-counted
    /// slab slice — received from a remote process (a slice of the reader's
    /// read region) or shared by a multi-target broadcast (one encoding, many
    /// slab handles); the channel's demux closure decodes it.
    DataBytes(Slab),
    /// The wire encoding of a `ProgressUpdates<T>` batch as a ref-counted
    /// slab slice; the destination dataflow decodes it.
    ProgressBytes(Slab),
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Data(_) => write!(f, "Payload::Data(..)"),
            Payload::ProgressShared(_) => write!(f, "Payload::ProgressShared(..)"),
            Payload::DataBytes(bytes) => write!(f, "Payload::DataBytes({} bytes)", bytes.len()),
            Payload::ProgressBytes(bytes) => {
                write!(f, "Payload::ProgressBytes({} bytes)", bytes.len())
            }
        }
    }
}

/// A message in flight between two workers.
#[derive(Debug)]
pub struct Envelope {
    /// Index of the dataflow this envelope belongs to.
    pub dataflow: usize,
    /// Channel index within the dataflow (ignored for progress payloads).
    pub channel: usize,
    /// Index of the sending worker.
    pub from: usize,
    /// The payload.
    pub payload: Payload,
}

/// Frame kind byte distinguishing data from progress payloads on the wire.
const KIND_DATA: u8 = 0;
/// See [`KIND_DATA`].
const KIND_PROGRESS: u8 = 1;

/// Bytes of a frame's fixed header on the wire: `[dataflow u64][channel u64]
/// [from u64][to u64][kind u8]`, after the `[len u64]` message prefix.
pub const FRAME_HEADER_BYTES: usize = 4 * 8 + 1;

/// Bytes of a frame's full fixed prefix on the wire: the `[len u64]` message
/// prefix followed by the [`FRAME_HEADER_BYTES`] header.
pub const FRAME_PREFIX_BYTES: usize = 8 + FRAME_HEADER_BYTES;

/// One outgoing wire message in scatter form: the fixed
/// `[len u64][dataflow u64][channel u64][from u64][to u64][kind u8]` prefix as
/// an inline array, and the payload as a ref-counted slab slice. The two parts
/// are never glued into one contiguous buffer — the link emits them with a
/// vectored write — so a payload shared by several targets (broadcast,
/// progress) is encoded once and its slab handle cloned per frame.
#[derive(Clone, Debug)]
pub struct WireFrame {
    /// The stamped fixed prefix (`len` counts header-after-len + payload).
    pub prefix: [u8; FRAME_PREFIX_BYTES],
    /// The payload bytes, sliced not copied.
    pub payload: Slab,
}

impl WireFrame {
    /// Assembles a frame from its routing coordinates and an already-encoded
    /// payload slab. O(1) in the payload size.
    pub fn new(
        dataflow: usize,
        channel: usize,
        from: usize,
        to: usize,
        kind: u8,
        payload: Slab,
    ) -> Self {
        let mut prefix = [0u8; FRAME_PREFIX_BYTES];
        let len = (FRAME_HEADER_BYTES + payload.len()) as u64;
        prefix[..8].copy_from_slice(&len.to_le_bytes());
        prefix[8..16].copy_from_slice(&(dataflow as u64).to_le_bytes());
        prefix[16..24].copy_from_slice(&(channel as u64).to_le_bytes());
        prefix[24..32].copy_from_slice(&(from as u64).to_le_bytes());
        prefix[32..40].copy_from_slice(&(to as u64).to_le_bytes());
        prefix[40] = kind;
        WireFrame { prefix, payload }
    }

    /// Total bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        FRAME_PREFIX_BYTES + self.payload.len()
    }

    /// Glues prefix and payload into one contiguous buffer (tests and
    /// inspection only; the link never materializes this copy).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.wire_len());
        bytes.extend_from_slice(&self.prefix);
        bytes.extend_from_slice(&self.payload);
        bytes
    }
}

/// Frames `envelope` (destined for global worker `to`) as one wire message,
/// following `megaphone::codec`'s byte conventions (little-endian integers,
/// `u64` length prefixes inside the payload). The payload is *sliced*, not
/// copied — forwarding and multi-target fan-out cost one slab handle per
/// extra frame. It must already be encoded: the pusher and the progress
/// broadcast encode for remote peers themselves (exactly sized, once for all
/// targets), so a typed payload here is a sender's bug.
pub fn encode_frame(envelope: &Envelope, to: usize) -> WireFrame {
    let (kind, payload) = match &envelope.payload {
        Payload::DataBytes(slab) => (KIND_DATA, slab.clone()),
        Payload::ProgressBytes(slab) => (KIND_PROGRESS, slab.clone()),
        typed => panic!("{typed:?} pointed at a remote sender: only encoded payloads are framed"),
    };
    WireFrame::new(envelope.dataflow, envelope.channel, envelope.from, to, kind, payload)
}

/// Rebuilds `(envelope, to)` from a frame's fixed header and its payload
/// slab slice (no copy), or `None` if the header's kind byte is neither data
/// nor progress. The payload stays encoded ([`Payload::DataBytes`] /
/// [`Payload::ProgressBytes`]): only the destination channel knows the
/// concrete types to decode it into.
pub fn decode_frame_parts(
    header: &[u8; FRAME_HEADER_BYTES],
    payload: Slab,
) -> Option<(Envelope, usize)> {
    let mut bytes = &header[..];
    let dataflow = u64::decode(&mut bytes) as usize;
    let channel = u64::decode(&mut bytes) as usize;
    let from = u64::decode(&mut bytes) as usize;
    let to = u64::decode(&mut bytes) as usize;
    let payload = match u8::decode(&mut bytes) {
        KIND_DATA => Payload::DataBytes(payload),
        KIND_PROGRESS => Payload::ProgressBytes(payload),
        _ => return None,
    };
    Some((Envelope { dataflow, channel, from, payload }, to))
}

/// Deserializes one frame body (everything after the `[len u64]` prefix) back
/// into `(envelope, to)`, or `None` if it is shorter than its header or its
/// kind byte is neither data nor progress. Convenience for tests and
/// inspection; a link slices payloads out of its read region via
/// [`decode_frame_parts`] instead of copying them out of a contiguous frame.
pub fn decode_frame(frame: &[u8]) -> Option<(Envelope, usize)> {
    let header = frame.get(..FRAME_HEADER_BYTES)?.try_into().ok()?;
    decode_frame_parts(header, Slab::new(frame[FRAME_HEADER_BYTES..].to_vec()))
}

/// What rings a parked worker awake: an `eventfd` (see
/// [`sys`](super::sys)) and whether the worker is about to wait on it.
/// Signalled only while `armed`, so a push to a busy worker costs one load.
pub(crate) struct Doorbell {
    armed: AtomicBool,
    fd: EventFd,
}

impl Doorbell {
    fn new() -> Self {
        let fd = EventFd::new().unwrap_or_else(|error| panic!("no eventfd for a mailbox: {error}"));
        Doorbell { armed: AtomicBool::new(false), fd }
    }

    /// Wakes the owner if it is parked or about to park. Call after the push:
    /// see [`Allocator::wait`] for why that order loses no wake-up.
    fn ring(&self) {
        if self.armed.load(Ordering::SeqCst) {
            self.fd.signal();
        }
    }
}

/// The sending half of a worker's mailbox, which every same-process peer and
/// the process's links hold: a queue push, then a ring of the owner's
/// doorbell (see [`Allocator::wait`]).
#[derive(Clone)]
pub struct Mailbox {
    queue: Sender<Envelope>,
    bell: Arc<Doorbell>,
}

impl Mailbox {
    /// Delivers `envelope`, ignoring a receiver that has shut down (its
    /// dataflows were complete, so the message is irrelevant).
    pub(crate) fn send(&self, envelope: Envelope) {
        if self.queue.send(envelope).is_ok() {
            self.bell.ring();
        }
    }
}

/// A new mailbox: the sending half, and the receiving half an
/// [`Allocator`] is built from.
pub(crate) fn mailbox() -> (Mailbox, (Receiver<Envelope>, Arc<Doorbell>)) {
    let (queue, receiver) = unbounded();
    let bell = Arc::new(Doorbell::new());
    (Mailbox { queue, bell: Arc::clone(&bell) }, (receiver, bell))
}

/// A sender handle to one worker's mailbox: an in-memory channel for a worker
/// in this process, or the framing front-end of a TCP connection for a worker
/// in another process.
#[derive(Clone)]
pub enum WorkerSender {
    /// The peer lives in this process: envelopes are moved, never serialized.
    Local(Mailbox),
    /// The peer lives in another process: envelopes are encoded into
    /// [`WireFrame`]s (prefix + payload slab, no contiguous copy) and staged
    /// on the link to that process until the sending worker's step ends.
    Remote {
        /// The destination worker's global index (baked into each frame so the
        /// receiving process can route to the right local mailbox).
        to: usize,
        /// This process's links, and which of them reaches the destination
        /// worker's process.
        mesh: Arc<Mesh>,
        /// See `mesh`.
        link: usize,
    },
}

impl WorkerSender {
    /// Returns `true` iff this peer lives in another process (its envelopes
    /// travel as serialized frames). Senders can pre-encode shared payloads
    /// once for all such peers instead of once per peer.
    pub fn is_remote(&self) -> bool {
        matches!(self, WorkerSender::Remote { .. })
    }
}

impl std::fmt::Debug for WorkerSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerSender::Local(_) => write!(f, "WorkerSender::Local"),
            WorkerSender::Remote { to, .. } => write!(f, "WorkerSender::Remote(to={to})"),
        }
    }
}

/// A worker's endpoint of the communication fabric.
pub struct Allocator {
    index: usize,
    peers: usize,
    senders: Vec<WorkerSender>,
    receiver: Receiver<Envelope>,
    bell: Arc<Doorbell>,
    /// The links to the other processes (and the remote-peer health record),
    /// shared by this process's workers in cluster mode; `None` for purely
    /// in-process fabrics.
    mesh: Option<Arc<Mesh>>,
}

impl Allocator {
    /// Assembles an allocator from its parts (used by the in-process
    /// [`allocate`] and by the cluster bootstrap in
    /// [`net`](crate::communication::net)).
    pub(crate) fn from_parts(
        index: usize,
        peers: usize,
        senders: Vec<WorkerSender>,
        (receiver, bell): (Receiver<Envelope>, Arc<Doorbell>),
    ) -> Self {
        Allocator { index, peers, senders, receiver, bell, mesh: None }
    }

    /// Attaches the process's links (cluster bootstrap only).
    pub(crate) fn with_mesh(mut self, mesh: Arc<Mesh>) -> Self {
        self.mesh = Some(mesh);
        self
    }

    /// The first stranding remote-peer failure a worker of this process
    /// reported, if any: a connection broken mid-frame or a misrouted frame.
    /// Once this returns `Some`, envelopes from that peer will never arrive; the worker
    /// surfaces it as a panic from its step loop. Costs one `Option` check (and
    /// one relaxed load in cluster mode) — cheap enough for every step.
    pub fn peer_failure(&self) -> Option<String> {
        self.mesh.as_ref()?.status.fatal()
    }

    /// This worker's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total number of workers.
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// Clones the sender handles (one per worker, including this one).
    pub fn senders(&self) -> Vec<WorkerSender> {
        self.senders.clone()
    }

    /// Writes every frame staged on this process's links — by this worker or a
    /// sibling — to their sockets. [`Worker::step`](crate::worker::Worker::step)
    /// ends with this; code that drives a raw allocator calls it after
    /// [`send_to`].
    pub fn flush(&self) {
        if let Some(mesh) = &self.mesh {
            mesh.flush(None);
        }
    }

    /// Receives the next pending envelope, if any. The sockets are read only
    /// when the mailbox is empty: a loop that drains the mailbox reads them
    /// until they have nothing more to give, an idle step reads each once.
    pub fn try_recv(&self) -> Option<Envelope> {
        if let Ok(envelope) = self.receiver.try_recv() {
            return Some(envelope);
        }
        if self.mesh.as_ref()?.poll() {
            self.receiver.try_recv().ok()
        } else {
            None
        }
    }

    /// A non-blocking iterator over the envelopes already in the mailbox (the
    /// sockets are not read: see [`try_recv`](Allocator::try_recv)).
    pub fn try_iter(&self) -> impl Iterator<Item = Envelope> + '_ {
        self.receiver.try_iter()
    }

    /// Blocks the calling worker thread until an envelope is available (or
    /// `timeout` elapses; `None` waits indefinitely). Returns whether the
    /// mailbox had something to receive. This is how an idle worker burns
    /// ~0 CPU instead of spin-yielding, and it is one wait whoever the peers
    /// are: `ppoll(2)` on the mailbox's doorbell and on every link whose peer
    /// has not closed (none in-process), until the mailbox holds something.
    /// Every wake reads the links, so a frame for this worker is routed into
    /// its mailbox, and one for a sibling into that sibling's, which rings it.
    ///
    /// No wake-up is lost (the argument the channel once made for its
    /// eventcount, one layer up). A sender pushes, *then* loads `armed`; the
    /// waiter sets `armed`, *then* re-checks the mailbox; all four are
    /// `SeqCst`, so they have one total order. If the sender read `false`,
    /// its load, and so its push, precede the waiter's store, and the
    /// re-check finds the envelope. If it read `true`, it signals the
    /// eventfd, whose count stays readable until this wait drains it, so
    /// `ppoll` returns at once however late it starts.
    ///
    /// Siblings poll the same sockets, so a frame's bytes wake all of them.
    /// The one that takes the link's lock reads; the others find it held,
    /// pass it over and park again, each turn bounded by the reader's one
    /// pass over the socket — or are rung when it routes a frame to them.
    pub fn wait(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        let mut fds = Vec::new();
        loop {
            if let Some(mesh) = &self.mesh {
                mesh.poll();
            }
            if self.receiver.is_ready() {
                return true;
            }
            let left = deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return false;
            }
            self.bell.armed.store(true, Ordering::SeqCst);
            if self.receiver.is_ready() {
                self.bell.armed.store(false, Ordering::SeqCst);
                return true;
            }
            fds.clear();
            fds.push(self.bell.fd.poll_fd());
            if let Some(mesh) = &self.mesh {
                mesh.open_links(&mut fds);
            }
            sys::await_readable(&mut fds, left);
            self.bell.armed.store(false, Ordering::SeqCst);
            if fds[0].woke() {
                self.bell.fd.drain();
            }
        }
    }
}

/// Builds the all-to-all communication fabric for `peers` workers in one
/// process.
///
/// Returns one [`Allocator`] per worker; each holds its own receiving mailbox and
/// sender handles to every mailbox (including its own).
pub fn allocate(peers: usize) -> Vec<Allocator> {
    assert!(peers > 0, "at least one worker is required");
    let (mailboxes, receivers): (Vec<_>, Vec<_>) = (0..peers).map(|_| mailbox()).unzip();
    let senders: Vec<WorkerSender> = mailboxes.into_iter().map(WorkerSender::Local).collect();
    receivers
        .into_iter()
        .enumerate()
        .map(|(index, receiver)| Allocator::from_parts(index, peers, senders.clone(), receiver))
        .collect()
}

/// Sends an envelope to `target`, ignoring failures caused by the target having
/// already shut down (its dataflows were complete, so the message is irrelevant).
pub fn send_to(senders: &[WorkerSender], target: usize, envelope: Envelope) {
    match &senders[target] {
        WorkerSender::Local(mailbox) => mailbox.send(envelope),
        WorkerSender::Remote { to, mesh, link } => {
            debug_assert_eq!(*to, target, "remote sender routed to the wrong worker");
            mesh.stage(*link, encode_frame(&envelope, *to));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communication::net::tests::{mesh_pair, take_staged};

    #[test]
    fn allocate_builds_full_mesh() {
        let allocs = allocate(3);
        assert_eq!(allocs.len(), 3);
        for (i, alloc) in allocs.iter().enumerate() {
            assert_eq!(alloc.index(), i);
            assert_eq!(alloc.peers(), 3);
            assert_eq!(alloc.senders().len(), 3);
        }
    }

    #[test]
    fn envelopes_are_routed_to_target() {
        let allocs = allocate(2);
        let senders = allocs[0].senders();
        send_to(
            &senders,
            1,
            Envelope { dataflow: 0, channel: 7, from: 0, payload: Payload::Data(Box::new((3u64, vec![1u64, 2, 3]))) },
        );
        let received = allocs[1].try_recv().expect("envelope expected");
        assert_eq!(received.channel, 7);
        assert_eq!(received.from, 0);
        assert!(allocs[0].try_recv().is_none());
    }

    #[test]
    fn per_sender_order_is_preserved() {
        let allocs = allocate(2);
        let senders = allocs[0].senders();
        for i in 0..100usize {
            send_to(
                &senders,
                1,
                Envelope { dataflow: 0, channel: i, from: 0, payload: Payload::ProgressShared(Arc::new(i)) },
            );
        }
        for i in 0..100usize {
            let received = allocs[1].try_recv().expect("envelope expected");
            assert_eq!(received.channel, i);
        }
    }

    #[test]
    fn send_to_dropped_receiver_is_ignored() {
        let allocs = allocate(2);
        let senders = allocs[0].senders();
        drop(allocs.into_iter().nth(1));
        // Should not panic.
        send_to(
            &senders,
            1,
            Envelope { dataflow: 0, channel: 0, from: 0, payload: Payload::ProgressShared(Arc::new(0usize)) },
        );
    }

    /// Per-test iteration scale; the CI `queue-stress` job raises it.
    fn stress_iters(default: u64) -> u64 {
        std::env::var("QUEUE_STRESS_ITERS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
    }

    /// A tiny deterministic RNG (xorshift64*), so the stress schedules are
    /// reproducible from their printed seed.
    fn seeded_rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.max(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// An envelope that carries nothing but `channel`.
    fn marker(channel: usize) -> Envelope {
        Envelope { dataflow: 0, channel, from: 0, payload: Payload::ProgressShared(Arc::new(())) }
    }

    /// `wait` with a timeout must return false on an empty mailbox once the
    /// timeout has passed, and true at once when an envelope is queued.
    #[test]
    fn wait_times_out_empty_and_returns_on_ready() {
        let allocs = allocate(2);
        let start = Instant::now();
        assert!(!allocs[1].wait(Some(Duration::from_millis(20))));
        assert!(start.elapsed() >= Duration::from_millis(20), "returned before the timeout");
        send_to(&allocs[0].senders(), 1, marker(5));
        let start = Instant::now();
        assert!(allocs[1].wait(Some(Duration::from_secs(1))));
        assert!(start.elapsed() < Duration::from_millis(500), "a queued envelope must not wait");
        assert_eq!(allocs[1].try_recv().map(|envelope| envelope.channel), Some(5));
    }

    /// Seeded park/wake stress for the doorbell: worker 1 waits with no
    /// timeout before every receive while a seeded producer on worker 0
    /// races sends into the park transition (sometimes landing exactly
    /// between arming the doorbell and `ppoll`). Each send waits for worker
    /// 1's echo, which worker 0 waits for the same way, so nothing rescues a
    /// lost wake-up on either side and a single one hangs the test — the CI
    /// `queue-stress` job runs this in release at high iteration counts
    /// under a runner timeout.
    #[test]
    fn seeded_park_wake_stress_loses_no_wakeups() {
        for seed in [0x00c0_ffee_u64, 0xfeed_f00d, 0x0badcafe] {
            let rounds = stress_iters(20_000) as usize;
            let mut allocs = allocate(2);
            let consumer = allocs.pop().expect("two allocators");
            let producer = allocs.pop().expect("two allocators");
            let producer = std::thread::spawn(move || {
                let (senders, mut rng) = (producer.senders(), seeded_rng(seed));
                for value in 0..rounds {
                    // A mix of immediate sends (land while the consumer still
                    // spins toward its park) and yield-delayed sends (land
                    // mid-park-transition or against a parked waiter).
                    match rng() % 4 {
                        0 => {}
                        1 => std::thread::yield_now(),
                        _ => {
                            for _ in 0..rng() % 32 {
                                std::hint::spin_loop();
                            }
                        }
                    }
                    send_to(&senders, 1, marker(value));
                    assert!(producer.wait(None), "seed {seed:#x}: wait returned not-ready");
                    let echo = producer.try_recv().map(|envelope| envelope.channel);
                    assert_eq!(echo, Some(value), "seed {seed:#x} lost an echo");
                }
            });
            let senders = consumer.senders();
            for expected in 0..rounds {
                // Park with no timeout: a lost wake-up here hangs forever
                // instead of being papered over by a timeout retry.
                assert!(consumer.wait(None), "seed {seed:#x}: wait returned not-ready");
                let received = consumer.try_recv().map(|envelope| envelope.channel);
                assert_eq!(received, Some(expected), "seed {seed:#x} lost a message");
                send_to(&senders, 0, marker(expected));
            }
            producer.join().expect("producer panicked");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = allocate(0);
    }

    #[test]
    fn remote_sender_frames_envelopes() {
        let (mesh, _peer) = mesh_pair();
        let senders = vec![WorkerSender::Remote { to: 0, mesh: Arc::clone(&mesh), link: 0 }];
        let batches: Vec<(u64, Vec<u64>)> = vec![(5, vec![1, 3])];
        send_to(
            &senders,
            0,
            Envelope {
                dataflow: 2,
                channel: 7,
                from: 4,
                payload: Payload::DataBytes(Slab::new(batches.encode_to_vec())),
            },
        );
        let frame = take_staged(&mesh).pop().expect("frame expected");
        let bytes = frame.to_bytes();
        let (envelope, to) = decode_frame(&bytes[8..]).expect("a whole frame");
        assert_eq!(to, 0);
        assert_eq!(envelope.dataflow, 2);
        assert_eq!(envelope.channel, 7);
        assert_eq!(envelope.from, 4);
        match envelope.payload {
            Payload::DataBytes(bytes) => {
                assert_eq!(Vec::<(u64, Vec<u64>)>::decode_from_slice(&bytes), batches);
            }
            other => panic!("expected data bytes, got {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip_preserves_progress_kind_and_channel_marker() {
        let updates = crate::progress::ProgressUpdates::<u64> {
            internals: vec![(crate::progress::Port::new(1, 0), 3, -1)],
            messages: vec![(0, 3, 2)],
        };
        let envelope = Envelope {
            dataflow: 0,
            channel: usize::MAX,
            from: 1,
            payload: Payload::ProgressBytes(Slab::new(updates.encode_to_vec())),
        };
        let frame = encode_frame(&envelope, 3).to_bytes();
        assert_eq!(
            u64::from_le_bytes(frame[..8].try_into().expect("8 bytes")) as usize,
            frame.len() - 8,
            "the stamped length must cover everything after itself"
        );
        let (decoded, to) = decode_frame(&frame[8..]).expect("a whole frame");
        assert_eq!(to, 3);
        assert_eq!(decoded.channel, usize::MAX);
        match decoded.payload {
            Payload::ProgressBytes(bytes) => {
                let decoded = crate::progress::ProgressUpdates::<u64>::decode_from_slice(&bytes);
                assert_eq!(decoded.internals, updates.internals);
                assert_eq!(decoded.messages, updates.messages);
            }
            other => panic!("expected progress bytes, got {other:?}"),
        }
    }
}
