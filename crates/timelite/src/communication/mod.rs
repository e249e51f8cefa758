//! Worker-to-worker communication: mailboxes, envelopes, pacts and pushers.

pub mod allocator;
pub mod exchange;
pub mod net;
mod sys;

pub use allocator::{
    allocate, decode_frame, decode_frame_parts, encode_frame, send_to, Allocator, Envelope,
    Mailbox, Payload, PeerStatus, WireFrame, WorkerSender, FRAME_HEADER_BYTES, FRAME_PREFIX_BYTES,
};
pub use net::{
    cluster_allocate, free_addresses, read_len_frame, write_len_frame, ClusterGuard, ClusterSpec,
    Mesh,
};
pub use exchange::{
    shared_changes, shared_queue, shared_tee, MultiBatch, Pact, Pusher, SharedChanges, SharedQueue,
    SharedTee, Tee,
};
