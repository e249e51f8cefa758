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
//! * **Writer threads** (one per remote process): drain a channel of
//!   [`WireFrame`]s — fed by every local worker's [`WorkerSender::Remote`]
//!   handles — and *scatter* them into the socket with vectored writes
//!   (prefix and payload as separate I/O slices, many frames per syscall),
//!   so a payload slab encoded once is never recopied, not even for
//!   broadcasts that queue the same slab to several connections. The thread
//!   exits when all sender handles drop (the local workers finished).
//! * **Reader threads** (one per remote process): fill large slab regions
//!   from the socket, slice each frame's payload out of its region zero-copy
//!   and rebuild envelopes with still-encoded payloads
//!   ([`Payload::DataBytes`](crate::communication::Payload::DataBytes) /
//!   [`Payload::ProgressBytes`](crate::communication::Payload::ProgressBytes))
//!   which they push into the destination worker's local mailbox. The thread
//!   exits on EOF (the remote process finished).
//!
//! Everything above this module — pushers, pacts, progress tracking, the
//! worker — is unchanged: a remote peer is just a [`WorkerSender`] variant.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};

use super::allocator::{
    decode_frame_parts, Allocator, Envelope, PeerStatus, WireFrame, WorkerSender,
    FRAME_HEADER_BYTES, FRAME_PREFIX_BYTES,
};
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

/// Most frames a writer gathers into a single vectored write. Two I/O slices
/// per frame (prefix, payload) keeps the iovec under typical `IOV_MAX`.
const WRITER_BATCH_FRAMES: usize = 64;

/// Writes `frames` to `stream` as a scatter list — each frame contributes its
/// stamped prefix and its payload slab as separate [`IoSlice`]s — so payload
/// bytes go from their encode-time slab straight into the kernel with no
/// intermediate contiguous copy. Handles partial vectored writes by resuming
/// mid-slice.
fn write_frames(stream: &mut TcpStream, frames: &[WireFrame]) -> std::io::Result<()> {
    let slice_at = |index: usize| -> &[u8] {
        let frame = &frames[index / 2];
        if index.is_multiple_of(2) {
            &frame.prefix
        } else {
            frame.payload.as_slice()
        }
    };
    let total = frames.len() * 2;
    let mut index = 0;
    let mut offset = 0;
    while index < total {
        let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(total - index);
        for i in index..total {
            let slice = slice_at(i);
            let slice = if i == index { &slice[offset..] } else { slice };
            if !slice.is_empty() {
                iov.push(IoSlice::new(slice));
            }
        }
        if iov.is_empty() {
            return Ok(()); // Only empty slices remained.
        }
        let mut written = stream.write_vectored(&iov)?;
        if written == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        while index < total && written > 0 {
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
        // Skip slices that were already fully consumed (empty payloads).
        while index < total && slice_at(index).len() == offset {
            index += 1;
            offset = 0;
        }
    }
    Ok(())
}

/// The writer loop: drains [`WireFrame`]s — prefix stamped at encode time,
/// payload a ref-counted slab — and scatters them into the socket with
/// vectored writes, gathering every frame already queued (up to
/// [`WRITER_BATCH_FRAMES`]) into one syscall. Exits when every sender handle
/// has been dropped.
/// A write error is *reported* (counted on the shared [`PeerStatus`]) but not
/// fatal: a remote that finished its dataflows closes its socket while our
/// final frames may still be queued, and that benign race must not fail a
/// completed computation. A remote that died mid-computation is detected by
/// the reader thread instead, which sees the truncated incoming stream.
fn writer_loop(mut stream: TcpStream, frames: Receiver<WireFrame>, status: Arc<PeerStatus>) {
    let mut batch: Vec<WireFrame> = Vec::with_capacity(WRITER_BATCH_FRAMES);
    while let Ok(frame) = frames.recv() {
        batch.clear();
        batch.push(frame);
        batch.extend(frames.try_iter().take(WRITER_BATCH_FRAMES - 1));
        if write_frames(&mut stream, &batch).is_err() {
            // The remote process is gone; drain and drop remaining frames.
            status.report_write_error();
            return;
        }
    }
}

/// Smallest and largest read-region sizes: the reader doubles its region
/// whenever a refill saturates it and shrinks back toward the bytes actually
/// read for chatty round-trip traffic, so neither large transfers nor small
/// pings pay for the other (a region is zeroed before the `read`, so an
/// oversized one costs a memset per refill).
const MIN_READ_REGION_BYTES: usize = 4 << 10;
/// See [`MIN_READ_REGION_BYTES`].
const MAX_READ_REGION_BYTES: usize = 256 << 10;

/// The reader loop: fills ref-counted slab *regions* from the socket — one
/// `read` can return many frames — and slices each frame's payload out of the
/// region zero-copy before routing the envelope into the destination worker's
/// local mailbox, until EOF. A frame spanning a region boundary carries its
/// partial prefix into the next region (the only copied bytes on the path).
///
/// A broken connection *between* frames is a clean shutdown (the remote
/// process finished and closed its socket). A failure *mid-frame* — a peer
/// that died half-way through a write — strands this process: this thread is
/// the only one that can observe the peer's death, and exiting silently would
/// leave the worker threads waiting forever on envelopes that never arrive.
/// The failure is recorded on the shared [`PeerStatus`]; each worker's step
/// loop checks it and raises an ordinary, catchable panic (replacing the
/// process-wide `abort()` this thread used to call).
fn reader_loop(
    mut stream: TcpStream,
    first_worker: usize,
    mailboxes: Vec<Sender<Envelope>>,
    status: Arc<PeerStatus>,
) {
    macro_rules! fatal {
        ($message:expr) => {{
            status.report_fatal(format!("cluster connection failed: {}", $message));
            return;
        }};
    }
    let mut region = Slab::empty();
    let mut pos = 0usize;
    // Next region size: doubled when a refill fills the whole region (the
    // socket had more in store), re-shrunk toward the bytes actually read so
    // a mostly-idle connection zeroes kilobytes, not the maximum region.
    let mut region_bytes = MIN_READ_REGION_BYTES;
    loop {
        // Slice every complete frame out of the frozen region.
        while region.len() - pos >= 8 {
            let len =
                u64::from_le_bytes(region[pos..pos + 8].try_into().expect("8 bytes")) as usize;
            if len < FRAME_HEADER_BYTES {
                fatal!("frame shorter than its header");
            }
            if region.len() - pos < 8 + len {
                break; // Frame continues in the next region.
            }
            let header: [u8; FRAME_HEADER_BYTES] = region[pos + 8..pos + FRAME_PREFIX_BYTES]
                .try_into()
                .expect("header bytes");
            let payload = region.slice(pos + FRAME_PREFIX_BYTES..pos + 8 + len);
            pos += 8 + len;
            let (envelope, to) = decode_frame_parts(&header, payload);
            let Some(local) =
                to.checked_sub(first_worker).filter(|local| mailboxes.len() > *local)
            else {
                fatal!("frame routed to a worker this process does not host");
            };
            // A send failure means the local worker already completed its
            // dataflows; the message is irrelevant, exactly as for local sends.
            let _ = mailboxes[local].send(envelope);
        }

        // Refill: carry the partial frame (if any) into a fresh region and
        // block until at least the pending frame's known extent is in.
        let tail = region.len() - pos;
        let needed = if tail >= 8 {
            8 + u64::from_le_bytes(region[pos..pos + 8].try_into().expect("8 bytes")) as usize
        } else {
            8
        };
        let target = region_bytes.max(needed);
        let mut buf = vec![0u8; target];
        buf[..tail].copy_from_slice(&region[pos..]);
        let mut filled = tail;
        while filled < needed {
            match stream.read(&mut buf[filled..]) {
                Ok(0) | Err(_) if filled == 0 => {
                    return; // EOF at a frame boundary: clean remote shutdown.
                }
                Ok(0) | Err(_) => fatal!("peer died mid-frame (truncated frame)"),
                Ok(read) => filled += read,
            }
        }
        region_bytes = if filled == buf.len() {
            (target * 2).min(MAX_READ_REGION_BYTES)
        } else {
            (filled - tail)
                .next_power_of_two()
                .clamp(MIN_READ_REGION_BYTES, MAX_READ_REGION_BYTES)
        };
        buf.truncate(filled);
        region = Slab::new(buf);
        pos = 0;
    }
}

/// Join handles for a cluster's socket writer threads.
///
/// The writers drain their frame channels until every sender handle has been
/// dropped — i.e. until every local worker has finished — and only then exit,
/// having written everything. A process must [`flush`](ClusterGuard::flush)
/// the guard before terminating: exiting while a writer still holds queued
/// frames (a worker's final progress updates, typically) silently drops them,
/// leaving the remote process's progress tracker waiting forever.
#[derive(Debug, Default)]
pub struct ClusterGuard {
    writers: Vec<std::thread::JoinHandle<()>>,
}

impl ClusterGuard {
    /// Blocks until every queued outgoing frame has reached its socket (the
    /// writer threads exit). Call after all local workers have completed.
    pub fn flush(self) {
        for writer in self.writers {
            let _ = writer.join();
        }
    }
}

/// Builds the communication fabric for this process's share of a cluster.
///
/// Blocks until the full process mesh is connected (every pair handshaken and
/// barriered), then returns one [`Allocator`] per local worker, plus the
/// [`ClusterGuard`] to flush before the process exits. The allocators carry
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
    let streams = connect_mesh(spec, &listener)?;

    // Local mailboxes, one per local worker.
    let mut mailbox_txs = Vec::with_capacity(spec.workers_per_process);
    let mut mailbox_rxs = Vec::with_capacity(spec.workers_per_process);
    for _ in 0..spec.workers_per_process {
        let (tx, rx) = unbounded();
        mailbox_txs.push(tx);
        mailbox_rxs.push(rx);
    }

    // One writer and one reader thread per remote process, sharing one
    // peer-health record that the workers' allocators watch. The writer
    // handles are joined by the ClusterGuard so no process exits with frames
    // queued.
    let status = Arc::new(PeerStatus::default());
    let mut writer_txs: Vec<Option<Sender<WireFrame>>> =
        (0..spec.processes()).map(|_| None).collect();
    let mut writers = Vec::new();
    for (peer, stream) in streams.into_iter().enumerate() {
        let Some(stream) = stream else { continue };
        let (frame_tx, frame_rx) = unbounded::<WireFrame>();
        writer_txs[peer] = Some(frame_tx);
        let write_stream = stream.try_clone().map_err(|error| {
            io::Error::new(
                error.kind(),
                format!("could not clone the socket to process {peer}: {error}"),
            )
        })?;
        let writer_status = Arc::clone(&status);
        writers.push(
            std::thread::Builder::new()
                .name(format!("timelite-net-writer-{}-{}", spec.process, peer))
                .spawn(move || writer_loop(write_stream, frame_rx, writer_status))?,
        );
        let mailboxes = mailbox_txs.clone();
        let first_worker = spec.first_worker();
        let reader_status = Arc::clone(&status);
        std::thread::Builder::new()
            .name(format!("timelite-net-reader-{}-{}", spec.process, peer))
            .spawn(move || reader_loop(stream, first_worker, mailboxes, reader_status))?;
    }

    // The global sender table every local worker shares: in-memory channels to
    // local mailboxes, framed writer channels to everyone else.
    let total = spec.total_workers();
    let first = spec.first_worker();
    let senders: Vec<WorkerSender> = (0..total)
        .map(|worker| {
            if (first..first + spec.workers_per_process).contains(&worker) {
                WorkerSender::Local(mailbox_txs[worker - first].clone())
            } else {
                let process = worker / spec.workers_per_process;
                let tx = writer_txs[process]
                    .as_ref()
                    .expect("a remote worker's process must have a connection")
                    .clone();
                WorkerSender::Remote { to: worker, tx }
            }
        })
        .collect();

    let allocators = mailbox_rxs
        .into_iter()
        .enumerate()
        .map(|(local, receiver)| {
            Allocator::from_parts(first + local, total, senders.clone(), receiver)
                .with_peer_status(Arc::clone(&status))
        })
        .collect();
    Ok((allocators, ClusterGuard { writers }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::communication::{send_to, Payload};

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
        // The reader thread must record the stranding failure (not abort the
        // process), and a worker step must surface it as a catchable panic.
        let alloc = allocs.into_iter().next().expect("one allocator");
        let deadline = Instant::now() + Duration::from_secs(10);
        while alloc.peer_failure().is_none() {
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
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default());
        assert!(message.contains("mid-frame"), "unexpected panic message: {message}");
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
        guard.flush();
    }

    #[test]
    fn bootstrap_connects_two_processes_and_indices_are_global() {
        let indices = with_cluster(2, 2, |spec| {
            let (allocs, guard) = cluster_allocate(&spec).expect("bootstrap failed");
            let indices =
                allocs.iter().map(|alloc| (alloc.index(), alloc.peers())).collect::<Vec<_>>();
            drop(allocs);
            guard.flush();
            indices
        });
        assert_eq!(indices[0], vec![(0, 4), (1, 4)]);
        assert_eq!(indices[1], vec![(2, 4), (3, 4)]);
    }

    #[test]
    fn envelopes_cross_the_socket_and_decode() {
        let received = with_cluster(2, 1, |spec| {
            let (allocs, _guard) = cluster_allocate(&spec).expect("bootstrap failed");
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
            // Await the peer's envelope.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Some(envelope) = alloc.try_recv() {
                    assert_eq!(envelope.channel, 3);
                    assert_eq!(envelope.from, other);
                    match envelope.payload {
                        Payload::DataBytes(bytes) => {
                            return Vec::<(u64, Vec<u64>)>::decode_from_slice(&bytes);
                        }
                        other => panic!("expected wire-encoded data, got {other:?}"),
                    }
                }
                assert!(Instant::now() < deadline, "envelope never arrived");
                std::thread::yield_now();
            }
        });
        assert_eq!(received[0], vec![(7, vec![11])]);
        assert_eq!(received[1], vec![(7, vec![10])]);
    }

    #[test]
    fn per_connection_frame_order_is_preserved() {
        let received = with_cluster(2, 1, |spec| {
            let (allocs, _guard) = cluster_allocate(&spec).expect("bootstrap failed");
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
            channels
        });
        let expected: Vec<usize> = (0..100).collect();
        assert_eq!(received[0], expected);
        assert_eq!(received[1], expected);
    }
}
