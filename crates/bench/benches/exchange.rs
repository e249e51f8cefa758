//! Criterion bench of the exchange fabric hot path: one worker pushing routed
//! record batches to 4 workers through the communication fabric.
//!
//! `unbatched` flushes after every push — one envelope per (push, remote
//! target), which is what the pre-staging fabric did. `batched_64` stages 64
//! pushes per flush, coalescing each target's batches into a single envelope.
//! The ratio between the two is the win of the staging layer.
//!
//! `exchange_throughput_tcp` measures the same staged-push shape over the
//! cluster transport: two "processes" (threads, each with its own allocator
//! mesh) on a loopback TCP socket, so every delivery pays envelope encoding,
//! framing, the socket, and decode on the far side. Compared against
//! `exchange_throughput/batched_64`, the gap is the cost of leaving the
//! process.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mp_harness::free_addresses;
use timelite::codec::{Codec, Slab};
use timelite::communication::{
    allocate, cluster_allocate, send_to, shared_changes, shared_queue, ClusterSpec, Envelope,
    Pact, Payload, Pusher,
};

const WORKERS: usize = 4;
const PUSHES: usize = 64;
const RECORDS_PER_PUSH: usize = 8;

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_throughput");
    for (label, flush_every) in [("unbatched", 1usize), ("batched_64", PUSHES)] {
        group.bench_function(label, |b| {
            let allocs = allocate(WORKERS);
            let local = shared_queue::<u64, u64>();
            let produced = shared_changes::<u64>();
            let mut pusher = Pusher::new(
                Pact::exchange(|x: &u64| *x),
                0,
                0,
                0,
                WORKERS,
                local.clone(),
                allocs[0].senders(),
                produced.clone(),
            );
            let mut next = 0u64;
            b.iter(|| {
                for push in 0..PUSHES {
                    let batch: Vec<u64> =
                        (0..RECORDS_PER_PUSH as u64).map(|i| next + i).collect();
                    next = next.wrapping_add(RECORDS_PER_PUSH as u64);
                    pusher.push(&0u64, batch);
                    if (push + 1) % flush_every == 0 {
                        pusher.flush();
                    }
                }
                // Drain the mailboxes and progress so memory stays flat across
                // iterations; the receive path is part of the fabric cost.
                let mut drained = 0usize;
                for alloc in &allocs {
                    for envelope in alloc.try_iter() {
                        black_box(&envelope);
                        drained += 1;
                    }
                }
                local.borrow_mut().clear();
                for change in produced.borrow_mut().drain() {
                    black_box(change);
                }
                black_box(drained)
            })
        });
    }
    group.finish();
}

/// Control channel ids for the TCP round-trip protocol: a round-end marker
/// from the pusher side and the acknowledgement from the echo side, plus the
/// shutdown marker that ends the echo thread.
const MARKER_CHANNEL: usize = usize::MAX - 1;
const ACK_CHANNEL: usize = usize::MAX - 2;
const STOP_CHANNEL: usize = usize::MAX - 3;

/// A control envelope's dummy payload, encoded as everything bound for a
/// socket is.
fn marker() -> Payload {
    Payload::ProgressBytes(Slab::new(0u64.encode_to_vec()))
}

fn bench_exchange_tcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_throughput_tcp");
    group.bench_function("batched_64", |b| {
        // Two single-worker "processes" over loopback TCP; worker 1 lives on
        // the echo thread and acknowledges each round's end marker. A raw
        // allocator has no step to end, so both sides write what they staged
        // themselves (`Allocator::flush`).
        let addresses = free_addresses(2);
        let remote_addresses = addresses.clone();
        let echo = std::thread::spawn(move || {
            let (allocs, guard) = cluster_allocate(&ClusterSpec {
                process: 1,
                workers_per_process: 1,
                addresses: remote_addresses,
            })
            .expect("bootstrap failed");
            let alloc = &allocs[0];
            let mut drained = 0usize;
            loop {
                match alloc.try_recv() {
                    Some(envelope) if envelope.channel == STOP_CHANNEL => break,
                    Some(envelope) if envelope.channel == MARKER_CHANNEL => {
                        send_to(
                            &alloc.senders(),
                            0,
                            Envelope {
                                dataflow: 0,
                                channel: ACK_CHANNEL,
                                from: 1,
                                payload: marker(),
                            },
                        );
                        alloc.flush();
                    }
                    Some(envelope) => {
                        black_box(&envelope);
                        drained += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            guard.close();
            drained
        });
        let (allocs, guard) = cluster_allocate(&ClusterSpec {
            process: 0,
            workers_per_process: 1,
            addresses,
        })
        .expect("bootstrap failed");
        let alloc = &allocs[0];
        let local = shared_queue::<u64, u64>();
        let produced = shared_changes::<u64>();
        let mut pusher = Pusher::new(
            // Route everything to the remote worker: the point is the socket.
            Pact::exchange(|_x: &u64| 1),
            0,
            0,
            0,
            2,
            local.clone(),
            alloc.senders(),
            produced.clone(),
        );
        let mut next = 0u64;
        b.iter(|| {
            for _push in 0..PUSHES {
                let batch: Vec<u64> = (0..RECORDS_PER_PUSH as u64).map(|i| next + i).collect();
                next = next.wrapping_add(RECORDS_PER_PUSH as u64);
                pusher.push(&0u64, batch);
            }
            pusher.flush();
            send_to(
                &alloc.senders(),
                1,
                Envelope {
                    dataflow: 0,
                    channel: MARKER_CHANNEL,
                    from: 0,
                    payload: marker(),
                },
            );
            alloc.flush();
            // Await the echo side's acknowledgement: the round-trip bounds the
            // full encode → socket → decode pipeline, not just the local send.
            loop {
                match alloc.try_recv() {
                    Some(envelope) if envelope.channel == ACK_CHANNEL => break,
                    Some(envelope) => {
                        black_box(&envelope);
                    }
                    None => std::thread::yield_now(),
                }
            }
            for change in produced.borrow_mut().drain() {
                black_box(change);
            }
        });
        send_to(
            &alloc.senders(),
            1,
            Envelope {
                dataflow: 0,
                channel: STOP_CHANNEL,
                from: 0,
                payload: marker(),
            },
        );
        // Closing writes the staged stop marker, so the echo thread sees it
        // and returns.
        guard.close();
        black_box(echo.join().expect("echo thread panicked"));
    });
    group.finish();
}

criterion_group!(benches, bench_exchange, bench_exchange_tcp);
criterion_main!(benches);
