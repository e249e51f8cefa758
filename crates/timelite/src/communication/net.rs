//! The TCP remote allocator: cluster mode's communication backend.
//!
//! In cluster mode the workers of one computation are spread over several OS
//! processes. Each process runs `workers_per_process` worker threads with
//! *global* worker indices, and each unordered process pair shares exactly one
//! TCP connection over which all of their workers' traffic is multiplexed.
//!
//! The pieces:
//!
//! * **Bootstrap** ([`cluster_allocate`]): process `i` listens on
//!   `addresses[i]` and connects to every process with a smaller index
//!   (retrying while that listener comes up). Each connection starts with a
//!   handshake — a magic number and the dialing process's index — followed by
//!   a barrier byte each way, so no process starts computing before the full
//!   mesh is up (rendezvous).
//! * **Framing**: envelopes are serialized by
//!   [`encode_frame`](crate::communication::encode_frame) (same byte
//!   conventions as `megaphone::codec`: little-endian integers, `u64` length
//!   prefixes) into a [`WireFrame`] — a stamped `[len u64][header]` prefix
//!   plus the payload as a ref-counted [`Slab`] — and
//!   written on the wire as `[len u64][header][payload]`.
//! * **Links** ([`Mesh`]): the connection to a remote process is driven by
//!   this process's workers themselves — *a worker writes what its step
//!   staged and reads before it receives*. [`send_to`](super::send_to) on a
//!   [`WorkerSender::Remote`] stages the [`WireFrame`] on the link;
//!   [`Worker::step`](crate::worker::Worker::step) ends by *scattering*
//!   everything staged into the socket with vectored, non-blocking writes
//!   (prefix and payload as separate I/O slices, the step's data and its
//!   progress batch in one syscall), so a payload slab encoded once is never
//!   recopied, not even for broadcasts that stage the same slab on several
//!   links. [`Allocator::try_recv`] and [`Allocator::wait`] read each socket
//!   without blocking into large slab regions, slice each frame's payload out
//!   of its region zero-copy and rebuild envelopes with still-encoded payloads
//!   ([`Payload::DataBytes`](crate::communication::Payload::DataBytes) /
//!   [`Payload::ProgressBytes`](crate::communication::Payload::ProgressBytes))
//!   which they push into the destination worker's local mailbox — their own,
//!   or a sibling's, which wakes it. A write that would block reads instead,
//!   so the socket buffers are both the bound on what is in flight and the
//!   back-pressure. An idle worker waits on the sockets and on its
//!   mailbox's doorbell at once ([`Allocator::wait`]), so the peer's bytes
//!   end its wait whether or not it has siblings.
//! * **Shutdown** ([`ClusterGuard::close`]): once its workers are done a
//!   process half-closes every link and reads each to end-of-stream, so that
//!   no connection is reset under frames a peer has yet to read.
//!
//! Everything above this module — pushers, pacts, progress tracking, the
//! worker's scheduling — is unchanged: a remote peer is just a
//! [`WorkerSender`] variant.

use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use super::allocator::{
    decode_frame_parts, mailbox, Allocator, Envelope, Mailbox, PeerStatus, WireFrame, WorkerSender,
    FRAME_HEADER_BYTES, FRAME_PREFIX_BYTES,
};
use super::sys::PollFd;
use super::exchange::DEFAULT_FLUSH_BUDGET;
use crate::codec::Slab;

/// Builds an [`io::Error`] with bootstrap context attached.
fn bootstrap_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, message.into())
}

/// Handshake magic: "TIMELITE" interpreted as a little-endian u64.
const HANDSHAKE_MAGIC: u64 = u64::from_le_bytes(*b"TIMELITE");

/// The byte an acceptor sends once it has admitted a dialer into its mesh.
const HANDSHAKE_ACK: u8 = 0xA7;

/// How long the bootstrap keeps retrying/awaiting connections before giving up.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(30);

/// Read timeout while a single handshake is in flight, so a connection to (or
/// from) something that never answers cannot wedge the bootstrap.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Picks `n` distinct loopback addresses with OS-assigned free ports, for
/// tests, benches and single-machine cluster demos.
///
/// All listeners are held until every port has been picked, so one call
/// cannot hand out the same port twice. The unavoidable residual race — a
/// port being grabbed by another process between this release and the
/// cluster's own bind — is caught by the bootstrap handshake (cluster-id
/// mismatch drops stray connections) or a loud bind panic.
pub fn free_addresses(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind failed")).collect();
    listeners
        .iter()
        .map(|listener| listener.local_addr().expect("local addr").to_string())
        .collect()
}

/// The shape of one process's share of a cluster computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// This process's index in `0..addresses.len()`.
    pub process: usize,
    /// Worker threads per process (identical across processes).
    pub workers_per_process: usize,
    /// One listen address per process, identical on every process.
    pub addresses: Vec<String>,
}

impl ClusterSpec {
    /// The number of processes in the cluster.
    pub fn processes(&self) -> usize {
        self.addresses.len()
    }

    /// The total number of workers across the cluster.
    pub fn total_workers(&self) -> usize {
        self.processes() * self.workers_per_process
    }

    /// The global index of this process's first worker.
    pub fn first_worker(&self) -> usize {
        self.process * self.workers_per_process
    }

    /// A fingerprint of this cluster's identity (its full address list),
    /// exchanged in the handshake so that two clusters accidentally sharing a
    /// port — e.g. concurrently running tests whose bind-then-drop port
    /// picking raced — reject each other instead of cross-connecting.
    fn cluster_id(&self) -> u64 {
        // FNV-1a over the joined address list: stable, dependency-free.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.addresses.join(",").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    fn validate(&self) {
        assert!(self.workers_per_process > 0, "at least one worker per process is required");
        assert!(!self.addresses.is_empty(), "at least one process address is required");
        assert!(
            self.process < self.addresses.len(),
            "process index {} out of range for {} addresses",
            self.process,
            self.addresses.len()
        );
    }
}

/// Dials the lower-indexed process `peer`, retrying while its listener comes
/// up, sends the handshake `[MAGIC u64][cluster id u64][my process u64]`, and
/// awaits the acceptor's admission byte. A listener that rejects the
/// handshake (a different cluster that happened to win our port in a
/// bind-then-drop race) closes the connection, and the dial is retried. A peer
/// that stays unreachable past the bootstrap deadline is a clean startup
/// error, not a panic.
fn dial_peer(spec: &ClusterSpec, peer: usize) -> io::Result<TcpStream> {
    let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
    loop {
        if let Ok(mut stream) = TcpStream::connect(&spec.addresses[peer]) {
            let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
            let mut hello = Vec::with_capacity(24);
            hello.extend_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
            hello.extend_from_slice(&spec.cluster_id().to_le_bytes());
            hello.extend_from_slice(&(spec.process as u64).to_le_bytes());
            let mut ack = [0u8; 1];
            if stream.write_all(&hello).is_ok()
                && stream.read_exact(&mut ack).is_ok()
                && ack[0] == HANDSHAKE_ACK
            {
                stream.set_read_timeout(None)?;
                return Ok(stream);
            }
        }
        if Instant::now() >= deadline {
            return Err(bootstrap_error(format!(
                "could not reach process {peer} of this cluster at {}",
                spec.addresses[peer]
            )));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Builds the socket mesh: dials every lower-indexed process, then accepts one
/// connection from every higher-indexed process — in whatever order they
/// arrive, demultiplexed by the handshake's process index. Finishes with a
/// barrier byte exchanged on every socket, so no process starts computing
/// before all of its peers have their full mesh up. Every failure — accept
/// errors, timeouts, broken barriers — surfaces as an [`io::Error`] so the
/// caller can report a clean startup failure instead of panicking mid-thread.
fn connect_mesh(spec: &ClusterSpec, listener: &TcpListener) -> io::Result<Vec<Option<TcpStream>>> {
    let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
    let mut streams: Vec<Option<TcpStream>> = (0..spec.processes()).map(|_| None).collect();
    for (peer, stream) in streams.iter_mut().enumerate().take(spec.process) {
        *stream = Some(dial_peer(spec, peer)?);
    }
    // Accept with a deadline: a peer that died before connecting (or never
    // started) must fail the bootstrap loudly, not hang it forever.
    listener.set_nonblocking(true)?;
    let mut awaited = spec.processes() - spec.process - 1;
    while awaited > 0 {
        let (mut stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(bootstrap_error(format!(
                        "process {} timed out awaiting {awaited} peer connection(s)",
                        spec.process
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(error) => {
                return Err(io::Error::new(
                    error.kind(),
                    format!("listener accept failed: {error}"),
                ));
            }
        };
        stream.set_nonblocking(false)?;
        let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        let mut hello = [0u8; 24];
        if stream.read_exact(&mut hello).is_err() {
            continue; // A probe connection that sent nothing; await the real one.
        }
        let magic = u64::from_le_bytes(hello[..8].try_into().expect("8 bytes"));
        let cluster = u64::from_le_bytes(hello[8..16].try_into().expect("8 bytes"));
        let from = u64::from_le_bytes(hello[16..].try_into().expect("8 bytes")) as usize;
        // A dialer from another cluster (or an odd handshake) is dropped, not
        // fatal: closing the socket makes that dialer retry against its real
        // peer while we keep waiting for ours.
        if magic != HANDSHAKE_MAGIC
            || cluster != spec.cluster_id()
            || from <= spec.process
            || from >= spec.processes()
        {
            continue;
        }
        if stream.write_all(&[HANDSHAKE_ACK]).is_err() {
            continue;
        }
        stream.set_read_timeout(None)?;
        // A redial from an already-admitted peer (its ack read timed out, so
        // it dropped the socket we stored and dialed again) replaces the dead
        // stream; it was already counted, so `awaited` only moves for new
        // peers.
        if streams[from].replace(stream).is_none() {
            awaited -= 1;
        }
    }
    // Rendezvous barrier: write one byte on every socket, then await one from
    // every socket. All writes complete before any read, so the exchange
    // cannot deadlock, and nobody proceeds while a peer is still connecting.
    for (peer, stream) in streams.iter_mut().enumerate() {
        let Some(stream) = stream else { continue };
        stream.set_nodelay(true)?;
        stream.write_all(&[0xB7]).map_err(|error| {
            io::Error::new(error.kind(), format!("barrier write to process {peer} failed: {error}"))
        })?;
    }
    // The barrier read waits for the slowest peer's mesh, but never longer
    // than the bootstrap deadline.
    for (peer, stream) in streams.iter_mut().enumerate() {
        let Some(stream) = stream else { continue };
        let mut ack = [0u8; 1];
        let _ = stream.set_read_timeout(Some(BOOTSTRAP_TIMEOUT));
        stream.read_exact(&mut ack).map_err(|error| {
            io::Error::new(error.kind(), format!("barrier read from process {peer} failed: {error}"))
        })?;
        if ack[0] != 0xB7 {
            return Err(bootstrap_error(format!("process {peer} sent a malformed barrier byte")));
        }
        stream.set_read_timeout(None)?;
    }
    Ok(streams)
}

// ---------------------------------------------------------------------------
// Plain length-prefixed frames, shared with auxiliary endpoints.
// ---------------------------------------------------------------------------

/// Writes one `[len u64][payload]` frame — the same little-endian length
/// prefix the worker mesh uses, without the routing header. Auxiliary
/// endpoints (e.g. `megaphone`'s ctl surface) reuse this framing so every
/// socket in the system speaks one byte convention.
pub fn write_len_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    writer.write_all(&(payload.len() as u64).to_le_bytes())?;
    writer.write_all(payload)
}

/// Reads one `[len u64][payload]` frame written by [`write_len_frame`],
/// rejecting frames longer than `max_len` (a corrupt or hostile length prefix
/// must not trigger an unbounded allocation).
pub fn read_len_frame<R: Read>(reader: &mut R, max_len: usize) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 8];
    reader.read_exact(&mut prefix)?;
    let len = u64::from_le_bytes(prefix) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len} byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Most frames one vectored write gathers. Two I/O slices per frame (prefix,
/// payload) keeps the iovec under typical `IOV_MAX`.
const WRITE_WINDOW_FRAMES: usize = 64;

/// Writes `frames` to `stream` as scatter lists — each frame contributes its
/// stamped prefix and its payload slab as separate [`IoSlice`]s — so payload
/// bytes go from their encode-time slab straight into the kernel with no
/// intermediate contiguous copy. One write takes a window of at most
/// [`WRITE_WINDOW_FRAMES`] frames and a partial write resumes by offset, so
/// the work is linear in the frames however the socket cuts them. When the
/// socket would block, `wait` says whether to try again.
fn write_frames(
    mut stream: &TcpStream,
    frames: &[WireFrame],
    mut wait: impl FnMut() -> bool,
) -> io::Result<()> {
    let slice_at = |index: usize| -> &[u8] {
        let frame = &frames[index / 2];
        if index.is_multiple_of(2) {
            &frame.prefix
        } else {
            frame.payload.as_slice()
        }
    };
    let total = frames.len() * 2;
    let (mut index, mut offset) = (0, 0);
    let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(total.min(2 * WRITE_WINDOW_FRAMES));
    loop {
        // Skip slices that are fully written (and empty payloads).
        while index < total && slice_at(index).len() == offset {
            index += 1;
            offset = 0;
        }
        if index == total {
            return Ok(());
        }
        iov.clear();
        iov.push(IoSlice::new(&slice_at(index)[offset..]));
        let window = total.min(index + 2 * WRITE_WINDOW_FRAMES);
        iov.extend((index + 1..window).map(|index| IoSlice::new(slice_at(index))));
        let mut written = match stream.write_vectored(&iov) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(written) => written,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            Err(error) if error.kind() == io::ErrorKind::WouldBlock && wait() => continue,
            Err(error) => return Err(error),
        };
        while written > 0 {
            let remaining = slice_at(index).len() - offset;
            if written >= remaining {
                written -= remaining;
                index += 1;
                offset = 0;
            } else {
                offset += written;
                written = 0;
            }
        }
    }
}

/// Smallest and largest read-region sizes: a link doubles its region
/// whenever a read saturates it and shrinks back toward the bytes actually
/// read for chatty round-trip traffic, so neither large transfers nor small
/// pings pay for the other (a region is zeroed before the `read`, so an
/// oversized one costs a memset per refill).
const MIN_READ_REGION_BYTES: usize = 4 << 10;
/// See [`MIN_READ_REGION_BYTES`].
const MAX_READ_REGION_BYTES: usize = 256 << 10;

/// Longest frame a link accepts. A length prefix is input from outside the
/// process, and the next region is allocated from it.
const MAX_FRAME_BYTES: usize = u32::MAX as usize;

/// The reading half of a [`Link`]: fills ref-counted slab *regions* from the
/// socket — one `read` can return many frames — and slices each frame's
/// payload out of the region zero-copy. A frame spanning a region boundary
/// carries what arrived of it into the next region (the only copied bytes on
/// the path). Nothing here blocks: the state between two calls is the region
/// being filled, so a frame can arrive over any number of them.
struct LinkReader {
    /// The region being filled: `filled` bytes of it are in, starting with
    /// the frame the last region ended in the middle of. It becomes a slab,
    /// and is sliced, once `needed` bytes are (that frame's known extent).
    buf: Vec<u8>,
    filled: usize,
    needed: usize,
    /// Next region size (see [`MIN_READ_REGION_BYTES`]).
    region_bytes: usize,
    /// The peer closed its end, or the link failed: nothing more will come.
    closed: bool,
}

impl LinkReader {
    fn new() -> Self {
        LinkReader {
            buf: vec![0u8; MIN_READ_REGION_BYTES],
            filled: 0,
            needed: 8,
            region_bytes: MIN_READ_REGION_BYTES,
            closed: false,
        }
    }

    /// Slices every complete frame out of the filled region into `route`,
    /// then carries the partial frame (if any) into a fresh region to fill.
    fn slice_region(
        &mut self,
        mut route: impl FnMut(Envelope, usize) -> bool,
    ) -> Result<(), &'static str> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.truncate(self.filled);
        let region = Slab::new(buf);
        let mut pos = 0;
        self.needed = 8;
        while region.len() - pos >= 8 {
            let len =
                u64::from_le_bytes(region[pos..pos + 8].try_into().expect("8 bytes")) as usize;
            if !(FRAME_HEADER_BYTES..=MAX_FRAME_BYTES).contains(&len) {
                return Err("frame length out of range");
            }
            if region.len() - pos < 8 + len {
                self.needed = 8 + len; // Frame continues in the next region.
                break;
            }
            let header: [u8; FRAME_HEADER_BYTES] =
                region[pos + 8..pos + FRAME_PREFIX_BYTES].try_into().expect("header bytes");
            let payload = region.slice(pos + FRAME_PREFIX_BYTES..pos + 8 + len);
            pos += 8 + len;
            let Some((envelope, to)) = decode_frame_parts(&header, payload) else {
                return Err("unknown frame kind");
            };
            if !route(envelope, to) {
                return Err("frame routed to a worker this process does not host");
            }
        }
        let tail = &region[pos..];
        self.buf = vec![0u8; self.region_bytes.max(self.needed)];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
        Ok(())
    }

    /// Reads what the socket holds right now and routes every frame that
    /// completes (`route` says whether the destination exists). Returns
    /// whether any bytes arrived. A connection that ends *between* frames is a
    /// clean shutdown (the remote process finished and closed its socket); one
    /// that ends or fails *mid-frame* — a peer that died half-way through a
    /// write — strands this process, and is an error. An empty socket is
    /// neither.
    fn read_available(
        &mut self,
        mut stream: &TcpStream,
        mut route: impl FnMut(Envelope, usize) -> bool,
    ) -> Result<bool, &'static str> {
        let mut any = false;
        while !self.closed {
            let free = self.buf.len() - self.filled;
            let read = match stream.read(&mut self.buf[self.filled..]) {
                Ok(read) if read > 0 => read,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                Ok(_) | Err(_) => {
                    self.closed = true;
                    if self.filled > 0 {
                        return Err("peer died mid-frame (truncated frame)");
                    }
                    break;
                }
            };
            any = true;
            self.filled += read;
            if self.filled >= self.needed {
                self.region_bytes = if read == free {
                    (self.buf.len() * 2).min(MAX_READ_REGION_BYTES)
                } else {
                    read.next_power_of_two().clamp(MIN_READ_REGION_BYTES, MAX_READ_REGION_BYTES)
                };
                self.slice_region(&mut route)?;
            }
            if read < free {
                break; // A short read: the socket is drained.
            }
        }
        Ok(any)
    }
}

/// What a [`Link`]'s one lock guards: the frames staged for the socket and the
/// state of the read in progress.
struct LinkState {
    staged: Vec<WireFrame>,
    staged_bytes: usize,
    /// The last write failed: the remote process is gone, frames for it are
    /// dropped.
    write_failed: bool,
    reader: LinkReader,
}

/// The connection to one remote process: a non-blocking socket (`&TcpStream`
/// reads and writes) and everything about it that changes, under one lock —
/// but for a copy of its reader's `closed`, which a wait reads without
/// taking the lock a sibling may hold through a long write.
struct Link {
    stream: TcpStream,
    state: Mutex<LinkState>,
    closed: AtomicBool,
}

impl Link {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let state = LinkState {
            staged: Vec::new(),
            staged_bytes: 0,
            write_failed: false,
            reader: LinkReader::new(),
        };
        Ok(Link { stream, state: Mutex::new(state), closed: AtomicBool::new(false) })
    }

    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().expect("a worker panicked while driving this link")
    }
}

/// A process's links, one per remote process, driven by its workers
/// themselves: [`send_to`](super::send_to) stages frames on a link, a worker's
/// step ends by writing what is staged, and a worker reads the links before
/// it receives from its mailbox. There is no thread behind them and no queue
/// but the sockets' own buffers.
///
/// Everything about one link happens under its one lock. Frames are taken and
/// written under it, so each sender's frames reach the wire in the order it
/// staged them however many workers share the link; and the worker that reads
/// routes every frame to its destination's mailbox, which rings a sibling
/// parked there exactly as a send from a local peer would.
pub struct Mesh {
    /// Global index of this process's first worker, and its workers' mailboxes.
    first_worker: usize,
    mailboxes: Vec<Mailbox>,
    /// The remote-peer health record the workers of this process share.
    pub(crate) status: PeerStatus,
    links: Vec<Link>,
}

impl std::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mesh({} links)", self.links.len())
    }
}

impl Mesh {
    /// Stages `frame` on link `at` for the next [`flush`](Mesh::flush). A link
    /// that already holds [`DEFAULT_FLUSH_BUDGET`] bytes writes right away, so
    /// a step never buffers a whole migration.
    pub(crate) fn stage(&self, at: usize, frame: WireFrame) {
        let mut state = self.links[at].lock();
        if state.write_failed {
            return;
        }
        state.staged_bytes += frame.wire_len();
        state.staged.push(frame);
        if state.staged_bytes >= DEFAULT_FLUSH_BUDGET {
            self.write_staged(at, &mut state, None);
        }
    }

    /// Writes every staged frame of every link to its socket, giving up on a
    /// link that still would block at `deadline`.
    pub(crate) fn flush(&self, deadline: Option<Instant>) {
        for (at, link) in self.links.iter().enumerate() {
            let mut state = link.lock();
            if !state.staged.is_empty() {
                self.write_staged(at, &mut state, deadline);
            }
        }
    }

    /// Routes what the sockets hold into the local mailboxes; returns whether
    /// any bytes arrived. A link another worker holds is passed over:
    /// whatever that worker is doing there, it reads before it waits for
    /// anything, and a frame it leaves behind is read by whoever comes next.
    pub(crate) fn poll(&self) -> bool {
        let mut any = false;
        for link in &self.links {
            match link.state.try_lock() {
                Ok(mut state) => any |= self.read_available(link, &mut state.reader),
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(_)) => {
                    panic!("a worker panicked while driving this link")
                }
            }
        }
        any
    }

    /// Adds to `fds` every link whose peer has not closed, for a wait on
    /// their bytes. A closed link is left out: its socket would report
    /// end-of-stream at once on every call and turn a wait into a spin.
    pub(crate) fn open_links(&self, fds: &mut Vec<PollFd>) {
        let open = self.links.iter().filter(|link| !link.closed.load(Ordering::Acquire));
        fds.extend(open.map(|link| PollFd::socket(&link.stream)));
    }

    /// Reads and routes without blocking; reports a stranding failure on the
    /// shared [`PeerStatus`], where every worker's step finds it. Returns
    /// whether any bytes arrived.
    fn read_available(&self, link: &Link, reader: &mut LinkReader) -> bool {
        let route = |envelope, to: usize| {
            let mailbox = to.checked_sub(self.first_worker).and_then(|at| self.mailboxes.get(at));
            mailbox.map(|mailbox| mailbox.send(envelope)).is_some()
        };
        let any = reader.read_available(&link.stream, route).unwrap_or_else(|message| {
            reader.closed = true;
            self.status.report_fatal(format!("cluster connection failed: {message}"));
            false
        });
        if reader.closed {
            link.closed.store(true, Ordering::Release);
        }
        any
    }

    /// Writes the frames staged on link `at`, all of them, before anything
    /// staged later can reach the socket. A write that would block reads
    /// instead of waiting — this link under the lock it holds, the others as
    /// [`poll`](Mesh::poll) does: the socket buffers are the only bound on
    /// what is in flight, and processes writing more than those hold at each
    /// other, pairwise or round a cycle, must all finish. The price: the
    /// write is part of the worker's step, so until the peer reads (or
    /// `deadline` passes) this worker yields in a loop and runs no operator.
    ///
    /// A write error is not fatal: a remote that finished its dataflows closes
    /// its socket while our final frames may still be staged, and that benign
    /// race must not fail a completed computation. A remote that died
    /// mid-computation shows in the truncated incoming stream instead.
    fn write_staged(&self, at: usize, state: &mut LinkState, deadline: Option<Instant>) {
        let link = &self.links[at];
        let LinkState { staged, staged_bytes, write_failed, reader } = state;
        let wait = || {
            if !(self.read_available(link, reader) | self.poll()) {
                std::thread::yield_now();
            }
            self.status.fatal().is_none() && deadline.is_none_or(|end| Instant::now() < end)
        };
        *write_failed = write_frames(&link.stream, staged, wait).is_err();
        staged.clear();
        *staged_bytes = 0;
    }
}

/// How long a process that is done waits for its peers to be done as well
/// (see [`ClusterGuard::close`]). Dataflows complete everywhere at once, so
/// only a peer that hangs or was killed makes anyone wait this long.
const CLOSE_TIMEOUT: Duration = Duration::from_secs(5);

/// A process's links, kept to end them in order once its workers are done.
#[derive(Debug, Default)]
pub struct ClusterGuard {
    mesh: Option<Arc<Mesh>>,
}

impl ClusterGuard {
    /// Ends every connection without losing a peer's last frames: whatever is
    /// still staged is written and every link half-closed, then each is read
    /// (discarding — nobody is left to receive) until its peer has closed as
    /// well. `CLOSE_TIMEOUT` (5 s) bounds all of it, the write included: a
    /// peer that is alive but never reads must not keep this process from
    /// exiting. Closing a socket with unread
    /// inbound bytes resets the connection under the frames the peer has yet
    /// to read — this process's final progress updates, typically — and
    /// leaves that peer's tracker waiting forever. Call after all local
    /// workers have completed.
    pub fn close(self) {
        let Some(mesh) = self.mesh else { return };
        let deadline = Instant::now() + CLOSE_TIMEOUT;
        mesh.flush(Some(deadline));
        // Every link is half-closed before any is waited on: processes
        // waiting for each other's end-of-stream round a cycle would not end.
        for link in &mesh.links {
            let _ = link.stream.shutdown(Shutdown::Write);
        }
        let mut sink = [0u8; MIN_READ_REGION_BYTES];
        for link in &mesh.links {
            let _ = link.stream.set_nonblocking(false);
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() || link.stream.set_read_timeout(Some(remaining)).is_err() {
                    break;
                }
                match (&link.stream).read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break, // Timed out, or the peer is gone.
                }
            }
        }
    }
}

/// Builds the communication fabric for this process's share of a cluster.
///
/// Blocks until the full process mesh is connected (every pair handshaken and
/// barriered), then returns one [`Allocator`] per local worker, plus the
/// [`ClusterGuard`] to close before the process exits. The allocators carry
/// *global* worker indices: worker `w` of process `p` is global worker
/// `p * workers_per_process + w` of `processes * workers_per_process` peers.
///
/// A failed bootstrap — an address that cannot be bound, a peer that never
/// answers, a broken handshake or barrier — returns an [`io::Error`] naming
/// the step that failed, so callers can surface a clean startup error.
pub fn cluster_allocate(spec: &ClusterSpec) -> io::Result<(Vec<Allocator>, ClusterGuard)> {
    spec.validate();
    if spec.processes() == 1 {
        return Ok((super::allocator::allocate(spec.workers_per_process), ClusterGuard::default()));
    }

    let listener = TcpListener::bind(&spec.addresses[spec.process]).map_err(|error| {
        io::Error::new(
            error.kind(),
            format!(
                "process {} could not bind {}: {error}",
                spec.process, spec.addresses[spec.process]
            ),
        )
    })?;

    // Rendezvous: exactly one socket per unordered process pair (lower index
    // accepts, higher index dials), finished by a barrier on every socket.
    assemble(spec, connect_mesh(spec, &listener)?)
}

/// Builds this process's links and allocators over its connected sockets,
/// one per process (`None` for this one).
fn assemble(
    spec: &ClusterSpec,
    streams: Vec<Option<TcpStream>>,
) -> io::Result<(Vec<Allocator>, ClusterGuard)> {
    // Local mailboxes, one per local worker.
    let (mailbox_txs, mailbox_rxs): (Vec<_>, Vec<_>) =
        (0..spec.workers_per_process).map(|_| mailbox()).unzip();

    // One link per remote process, in process order (this process has none).
    let first = spec.first_worker();
    let links = streams.into_iter().flatten().map(Link::new).collect::<io::Result<_>>()?;
    let mesh = Arc::new(Mesh {
        first_worker: first,
        mailboxes: mailbox_txs.clone(),
        status: PeerStatus::default(),
        links,
    });

    // The global sender table every local worker shares: in-memory channels to
    // local mailboxes, links to everyone else.
    let total = spec.total_workers();
    let senders: Vec<WorkerSender> = (0..total)
        .map(|worker| match worker.checked_sub(first).and_then(|local| mailbox_txs.get(local)) {
            Some(mailbox) => WorkerSender::Local(mailbox.clone()),
            None => {
                let process = worker / spec.workers_per_process;
                let link = process - usize::from(process > spec.process);
                WorkerSender::Remote { to: worker, mesh: Arc::clone(&mesh), link }
            }
        })
        .collect();

    let allocators = mailbox_rxs
        .into_iter()
        .enumerate()
        .map(|(local, receiver)| {
            Allocator::from_parts(first + local, total, senders.clone(), receiver)
                .with_mesh(Arc::clone(&mesh))
        })
        .collect();
    Ok((allocators, ClusterGuard { mesh: Some(mesh) }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::communication::{send_to, Payload};

    /// Two processes of `workers` workers each over one loopback connection,
    /// assembled as [`cluster_allocate`] does but without its bootstrap: what
    /// it returns in process 0 and in process 1.
    pub(crate) fn process_pair(workers: usize) -> [(Vec<Allocator>, ClusterGuard); 2] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind failed");
        let address = listener.local_addr().expect("local addr");
        let dialed = TcpStream::connect(address).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let process = |process, stream: TcpStream| {
            stream.set_nodelay(true).expect("nodelay");
            let mut streams = vec![None, None];
            streams[1 - process] = Some(stream);
            let addresses = vec![String::new(); 2];
            let spec = ClusterSpec { process, workers_per_process: workers, addresses };
            assemble(&spec, streams).expect("non-blocking sockets")
        };
        [process(0, accepted), process(1, dialed)]
    }

    /// Two single-link meshes over one loopback connection, each the mesh of
    /// a process whose one worker is gone: what
    /// [`send_to`](crate::communication::send_to) stages on one stays there
    /// for [`take_staged`] to inspect.
    pub(crate) fn mesh_pair() -> (Arc<Mesh>, Arc<Mesh>) {
        let [(_, near), (_, far)] = process_pair(1);
        (near.mesh.expect("links"), far.mesh.expect("links"))
    }

    /// The message a caught panic carries.
    fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
        match panic.downcast::<String>() {
            Ok(message) => *message,
            Err(panic) => panic.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

    /// Takes the frames staged on `mesh`'s link and not yet written.
    pub(crate) fn take_staged(mesh: &Mesh) -> Vec<WireFrame> {
        let mut state = mesh.links[0].lock();
        state.staged_bytes = 0;
        std::mem::take(&mut state.staged)
    }

    /// Runs `func(process)` on one thread per process, with the shared address
    /// list, and returns the per-process results in index order.
    fn with_cluster<R: Send + 'static>(
        processes: usize,
        workers_per_process: usize,
        func: impl Fn(ClusterSpec) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let addresses = free_addresses(processes);
        let func = std::sync::Arc::new(func);
        let handles: Vec<_> = (0..processes)
            .map(|process| {
                let func = std::sync::Arc::clone(&func);
                let spec = ClusterSpec {
                    process,
                    workers_per_process,
                    addresses: addresses.clone(),
                };
                std::thread::spawn(move || func(spec))
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("process panicked")).collect()
    }

    #[test]
    fn bootstrap_surfaces_bind_conflict_as_error() {
        // Hold the port this process is supposed to listen on: the bootstrap
        // must return a clean error naming the address, not panic.
        let holder = TcpListener::bind("127.0.0.1:0").expect("bind failed");
        let held = holder.local_addr().expect("local addr").to_string();
        let spec = ClusterSpec {
            process: 0,
            workers_per_process: 1,
            addresses: vec![held.clone(), "127.0.0.1:1".to_string()],
        };
        let error = match cluster_allocate(&spec) {
            Err(error) => error,
            Ok(_) => panic!("bind conflict must fail the bootstrap"),
        };
        assert!(error.to_string().contains(&held), "error should name the address: {error}");
    }

    #[test]
    fn mid_frame_peer_death_reports_failure_instead_of_aborting() {
        let addresses = free_addresses(2);
        let spec =
            ClusterSpec { process: 0, workers_per_process: 1, addresses: addresses.clone() };
        let cluster_id = spec.cluster_id();
        let bootstrap = {
            let spec = spec.clone();
            std::thread::spawn(move || cluster_allocate(&spec).expect("bootstrap failed"))
        };
        // Impersonate process 1: complete the handshake and barrier by hand,
        // then die half-way through a frame.
        let mut stream = {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(stream) = TcpStream::connect(&addresses[0]) {
                    break stream;
                }
                assert!(Instant::now() < deadline, "process 0 never listened");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let mut hello = Vec::new();
        hello.extend_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
        hello.extend_from_slice(&cluster_id.to_le_bytes());
        hello.extend_from_slice(&1u64.to_le_bytes());
        stream.write_all(&hello).expect("hello");
        let mut ack = [0u8; 1];
        stream.read_exact(&mut ack).expect("ack");
        assert_eq!(ack[0], HANDSHAKE_ACK);
        stream.write_all(&[0xB7]).expect("barrier out");
        stream.read_exact(&mut ack).expect("barrier in");
        assert_eq!(ack[0], 0xB7);
        let (allocs, _guard) = bootstrap.join().expect("bootstrap thread panicked");
        // Promise a 100-byte frame, deliver 10 bytes, die.
        stream.write_all(&100u64.to_le_bytes()).expect("len prefix");
        stream.write_all(&[0u8; 10]).expect("partial frame");
        drop(stream);
        // Whoever reads the link must record the stranding failure (an empty
        // socket that may yet deliver the rest is not one), and a worker step
        // must surface it as a catchable panic.
        let alloc = allocs.into_iter().next().expect("one allocator");
        let deadline = Instant::now() + Duration::from_secs(10);
        while alloc.peer_failure().is_none() {
            assert!(alloc.try_recv().is_none(), "half a frame is no envelope");
            assert!(Instant::now() < deadline, "peer failure never reported");
            std::thread::sleep(Duration::from_millis(5));
        }
        let reason = alloc.peer_failure().expect("failure recorded");
        assert!(reason.contains("mid-frame"), "unexpected reason: {reason}");
        let panic = std::panic::catch_unwind(move || {
            let mut worker = crate::worker::Worker::new(alloc);
            worker.step();
        })
        .expect_err("stepping after a stranding disconnect must panic");
        let message = panic_message(panic);
        assert!(message.contains("mid-frame"), "unexpected panic message: {message}");
    }

    #[test]
    fn an_unknown_frame_kind_is_reported_to_every_worker() {
        // A whole, well-sized frame whose kind byte is neither data nor
        // progress reaches a process of two workers. The one that reads it
        // must record the failure, not panic holding the link's lock, and
        // both must then panic from their step with the reason.
        let [(near, _near_guard), (_far, far_guard)] = process_pair(2);
        let frame = WireFrame::new(0, 0, 2, 0, 7, Slab::new(vec![1, 2, 3])).to_bytes();
        let far_mesh = far_guard.mesh.as_ref().expect("links");
        (&far_mesh.links[0].stream).write_all(&frame).expect("frame");
        let deadline = Instant::now() + Duration::from_secs(10);
        while near[0].peer_failure().is_none() {
            assert!(near[0].try_recv().is_none(), "a frame of unknown kind is no envelope");
            assert!(Instant::now() < deadline, "peer failure never reported");
            std::thread::sleep(Duration::from_millis(1));
        }
        for alloc in near {
            let panic = std::panic::catch_unwind(move || {
                crate::worker::Worker::new(alloc).step();
            })
            .expect_err("stepping after an unknown frame kind must panic");
            let message = panic_message(panic);
            assert!(message.contains("unknown frame kind"), "unexpected panic message: {message}");
        }
    }

    /// Process 1 writes a frame for worker `to` of process 0 20 ms into that
    /// worker's one-second wait: the bytes, not the timeout, must end it.
    fn wakes_when_remote_bytes_land(workers: usize, to: usize) {
        let [(near, _near_guard), (far, _far_guard)] = process_pair(workers);
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let payload = Payload::ProgressBytes(Slab::new(7usize.encode_to_vec()));
            let from = far[0].index();
            send_to(&far[0].senders(), to, Envelope { dataflow: 0, channel: 0, from, payload });
            far[0].flush();
            far
        });
        let started = Instant::now();
        assert!(near[to].wait(Some(Duration::from_secs(1))), "the frame did not end the wait");
        let waited = started.elapsed();
        assert!(waited < Duration::from_millis(500), "the wait took {waited:?}");
        assert_eq!(near[to].try_recv().map(|envelope| envelope.from), Some(workers));
        drop(writer.join().expect("writer panicked"));
    }

    #[test]
    fn a_sole_worker_wakes_when_remote_bytes_land() {
        wakes_when_remote_bytes_land(1, 0);
    }

    #[test]
    fn a_parked_sibling_wakes_when_remote_bytes_land() {
        wakes_when_remote_bytes_land(2, 1);
    }

    /// CPU time the calling thread has used so far.
    #[cfg(target_os = "linux")]
    fn thread_cpu_time() -> Duration {
        let schedstat =
            std::fs::read_to_string("/proc/thread-self/schedstat").expect("thread schedstat");
        let nanos = schedstat.split_whitespace().next().and_then(|nanos| nanos.parse().ok());
        Duration::from_nanos(nanos.expect("run time in nanoseconds"))
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_closed_link_is_left_out_of_the_wait() {
        // Once the peer's end-of-stream has been read, its socket would
        // report readable on every `ppoll`: the wait must sleep its 20 ms
        // out, not spin through them — alone in its process or not.
        for workers in [1, 2] {
            let [(near, near_guard), far] = process_pair(workers);
            drop(far);
            let mesh = near_guard.mesh.as_ref().expect("links");
            let deadline = Instant::now() + Duration::from_secs(10);
            while !mesh.links[0].closed.load(Ordering::Acquire) {
                assert!(near[0].try_recv().is_none(), "the peer sent nothing");
                assert!(Instant::now() < deadline, "end-of-stream never read");
                std::thread::sleep(Duration::from_millis(1));
            }
            let (cpu, started) = (thread_cpu_time(), Instant::now());
            assert!(!near[0].wait(Some(Duration::from_millis(20))), "nothing can arrive");
            let (busy, waited) = (thread_cpu_time() - cpu, started.elapsed());
            assert!(waited >= Duration::from_millis(20), "the wait returned after {waited:?}");
            assert!(busy < Duration::from_millis(5), "the wait spun: {busy:?} of CPU in {waited:?}");
        }
    }

    #[test]
    fn a_write_nobody_reads_gives_up_at_its_deadline() {
        // 32 MB for a peer that is alive and never reads: what `close` meets
        // when the remote process hangs. The flush must return at the
        // deadline and mark the link, not yield round the write for good.
        let (mesh, _peer) = mesh_pair();
        let frame = WireFrame::new(0, 0, 0, 1, 0, Slab::new(vec![0u8; 32 << 20]));
        mesh.links[0].lock().staged.push(frame);
        let started = Instant::now();
        mesh.flush(Some(started + Duration::from_millis(100)));
        assert!(started.elapsed() < Duration::from_secs(5), "the deadline did not end the write");
        let state = mesh.links[0].lock();
        assert!(state.write_failed && state.staged.is_empty());
    }

    #[test]
    fn len_frames_roundtrip_and_reject_oversize() {
        let mut buffer = Vec::new();
        write_len_frame(&mut buffer, b"hello").expect("write");
        write_len_frame(&mut buffer, b"").expect("write");
        let mut cursor = std::io::Cursor::new(buffer);
        assert_eq!(read_len_frame(&mut cursor, 1024).expect("read"), b"hello");
        assert_eq!(read_len_frame(&mut cursor, 1024).expect("read"), b"");
        let mut buffer = Vec::new();
        write_len_frame(&mut buffer, &[0u8; 64]).expect("write");
        let mut cursor = std::io::Cursor::new(buffer);
        let error = read_len_frame(&mut cursor, 16).expect_err("oversize frame must be rejected");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn cluster_of_one_process_falls_back_to_local() {
        let spec = ClusterSpec {
            process: 0,
            workers_per_process: 2,
            addresses: vec!["unused".to_string()],
        };
        let (allocs, guard) = cluster_allocate(&spec).expect("bootstrap failed");
        assert_eq!(allocs.len(), 2);
        assert_eq!(allocs[0].peers(), 2);
        guard.close();
    }

    #[test]
    fn bootstrap_connects_two_processes_and_indices_are_global() {
        let indices = with_cluster(2, 2, |spec| {
            let (allocs, guard) = cluster_allocate(&spec).expect("bootstrap failed");
            let indices =
                allocs.iter().map(|alloc| (alloc.index(), alloc.peers())).collect::<Vec<_>>();
            drop(allocs);
            guard.close();
            indices
        });
        assert_eq!(indices[0], vec![(0, 4), (1, 4)]);
        assert_eq!(indices[1], vec![(2, 4), (3, 4)]);
    }

    #[test]
    fn envelopes_cross_the_socket_and_decode() {
        let received = with_cluster(2, 1, |spec| {
            let (allocs, guard) = cluster_allocate(&spec).expect("bootstrap failed");
            let alloc = &allocs[0];
            let other = 1 - spec.process;
            // Every process sends one data envelope to the other's worker.
            let batches: Vec<(u64, Vec<u64>)> = vec![(7, vec![spec.process as u64 + 10])];
            send_to(
                &alloc.senders(),
                other,
                Envelope {
                    dataflow: 0,
                    channel: 3,
                    from: alloc.index(),
                    payload: Payload::DataBytes(Slab::new(batches.encode_to_vec())),
                },
            );
            alloc.flush();
            // Await the peer's envelope.
            let deadline = Instant::now() + Duration::from_secs(10);
            let envelope = loop {
                if let Some(envelope) = alloc.try_recv() {
                    break envelope;
                }
                assert!(Instant::now() < deadline, "envelope never arrived");
                std::thread::yield_now();
            };
            guard.close();
            assert_eq!(envelope.channel, 3);
            assert_eq!(envelope.from, other);
            match envelope.payload {
                Payload::DataBytes(bytes) => Vec::<(u64, Vec<u64>)>::decode_from_slice(&bytes),
                other => panic!("expected wire-encoded data, got {other:?}"),
            }
        });
        assert_eq!(received[0], vec![(7, vec![11])]);
        assert_eq!(received[1], vec![(7, vec![10])]);
    }

    #[test]
    fn per_connection_frame_order_is_preserved() {
        let received = with_cluster(2, 1, |spec| {
            let (allocs, guard) = cluster_allocate(&spec).expect("bootstrap failed");
            let alloc = &allocs[0];
            let other = 1 - spec.process;
            for i in 0..100usize {
                send_to(
                    &alloc.senders(),
                    other,
                    Envelope {
                        dataflow: 0,
                        channel: i,
                        from: alloc.index(),
                        payload: Payload::ProgressBytes(Slab::new(i.encode_to_vec())),
                    },
                );
            }
            alloc.flush();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut channels = Vec::new();
            while channels.len() < 100 {
                if let Some(envelope) = alloc.try_recv() {
                    channels.push(envelope.channel);
                } else {
                    assert!(Instant::now() < deadline, "frames never arrived");
                    std::thread::yield_now();
                }
            }
            guard.close();
            channels
        });
        let expected: Vec<usize> = (0..100).collect();
        assert_eq!(received[0], expected);
        assert_eq!(received[1], expected);
    }
}
