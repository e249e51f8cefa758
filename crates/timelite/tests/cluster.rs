//! Cluster-mode engine tests: real TCP sockets on loopback, with threads
//! standing in for processes (each thread runs `execute(Config::Cluster...)`
//! with its own process index — nothing in the transport knows the
//! difference). True OS-process isolation is exercised by the repo-level
//! `tests/cluster_equivalence.rs` harness.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use timelite::communication::free_addresses;
use timelite::prelude::*;

/// Runs `func` under `Config::Cluster` on `processes` × `workers_per_process`
/// workers, one thread per process, returning all workers' results in global
/// worker order.
fn cluster_execute<R: Send + 'static>(
    processes: usize,
    workers_per_process: usize,
    func: impl Fn(&mut Worker) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let addresses = free_addresses(processes);
    let func = Arc::new(func);
    let handles: Vec<_> = (0..processes)
        .map(|process| {
            let func = Arc::clone(&func);
            let addresses = addresses.clone();
            std::thread::spawn(move || {
                let config = Config::cluster(process, workers_per_process, addresses);
                timelite::execute(config, move |worker| func(worker))
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|handle| handle.join().expect("process thread panicked"))
        .collect()
}

#[test]
fn cluster_workers_have_global_indices() {
    let mut indices = cluster_execute(2, 2, |worker| (worker.index(), worker.peers()));
    indices.sort();
    assert_eq!(indices, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
}

#[test]
fn exchange_routes_across_process_boundaries() {
    // Every worker sends 0..40 routed by value; worker w must receive exactly
    // the records congruent to w mod 4, from all four workers.
    let received = cluster_execute(2, 2, |worker| {
        let index = worker.index();
        let (mut input, probe, seen) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let seen_inner = seen.clone();
            let probe = stream
                .exchange(|x| *x)
                .inspect(move |_t, x| seen_inner.borrow_mut().push(*x))
                .probe();
            (input, probe, seen)
        });
        for value in 0..40u64 {
            input.send(value);
        }
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&1));
        drop(input);
        worker.step_until_complete();
        let mut seen = seen.borrow().clone();
        seen.sort();
        (index, seen)
    });
    for (index, seen) in received {
        let expected: Vec<u64> =
            (0..40).filter(|value| value % 4 == index as u64).flat_map(|v| vec![v; 4]).collect();
        assert_eq!(seen, expected, "worker {index} received the wrong records");
    }
}

#[test]
fn broadcast_reaches_every_process() {
    let totals = cluster_execute(3, 1, |worker| {
        let index = worker.index();
        let (mut input, probe, seen) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let seen = Rc::new(RefCell::new(0u64));
            let seen_inner = seen.clone();
            let probe = stream
                .broadcast()
                .inspect(move |_t, x| *seen_inner.borrow_mut() += *x)
                .probe();
            (input, probe, seen)
        });
        // Each worker broadcasts its own (index + 1); every worker must sum
        // all three contributions.
        input.send(index as u64 + 1);
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&1));
        drop(input);
        worker.step_until_complete();
        let total = *seen.borrow();
        total
    });
    assert_eq!(totals, vec![6, 6, 6]);
}

#[test]
fn multi_epoch_progress_crosses_the_sockets() {
    // Frontier-driven epochs: each epoch's records must be fully delivered
    // (across processes) before the probe passes it.
    let counts = cluster_execute(2, 1, |worker| {
        let (mut input, probe, seen) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let seen_inner = seen.clone();
            let probe = stream
                .exchange(|x| *x)
                .inspect(move |t, x| seen_inner.borrow_mut().push((*t, *x)))
                .probe();
            (input, probe, seen)
        });
        for round in 0..5u64 {
            input.send(round);
            input.advance_to(round + 1);
            worker.step_while(|| probe.less_than(&(round + 1)));
            // The epoch is closed: both workers' records for it have landed.
            let seen = seen.borrow();
            let in_epoch =
                seen.iter().filter(|(t, _)| *t == round).count();
            assert_eq!(in_epoch % 2, 0, "an epoch closed with a missing remote record");
        }
        drop(input);
        worker.step_until_complete();
        let total = seen.borrow().len();
        total
    });
    // 10 records sent in total, each delivered to exactly one worker.
    assert_eq!(counts.iter().sum::<usize>(), 10);
}

#[test]
fn byte_vector_records_cross_the_socket_byte_identical() {
    // Byte vectors travel through the codec's bulk path: an empty one, a
    // single byte, and one past 64 KiB (more than one socket read) must all
    // arrive at the other process exactly as they were sent.
    fn payloads(sender: usize) -> Vec<Vec<u8>> {
        [0usize, 1, (64 << 10) + 1]
            .iter()
            .map(|&len| (0..len).map(|at| (at * 31 + sender * 7 + len) as u8).collect())
            .collect()
    }
    let received = cluster_execute(2, 1, |worker| {
        let index = worker.index();
        let (mut input, probe, seen) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<(u64, Vec<u8>)>();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let seen_inner = seen.clone();
            let probe = stream
                .exchange(|record| record.0)
                .inspect(move |_t, record| seen_inner.borrow_mut().push(record.1.clone()))
                .probe();
            (input, probe, seen)
        });
        for payload in payloads(index) {
            input.send((1 - index as u64, payload));
        }
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&1));
        drop(input);
        worker.step_until_complete();
        let seen = seen.borrow().clone();
        (index, seen)
    });
    for (index, seen) in received {
        assert_eq!(seen, payloads(1 - index), "worker {index} received different bytes");
    }
}

#[test]
fn workers_sharing_a_link_keep_each_senders_order() {
    // Both workers of process 0 send numbered records to worker 2, one record
    // a step, stepping at the same time: whichever of them writes the link,
    // each one's records must arrive in the order it sent them.
    const RECORDS: u64 = 2_000;
    let start = Arc::new(std::sync::Barrier::new(2));
    let received = cluster_execute(2, 2, move |worker| {
        let index = worker.index() as u64;
        let (mut input, probe, seen) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let seen_inner = seen.clone();
            let probe = stream
                .exchange(|_| 2)
                .inspect(move |_t, record| seen_inner.borrow_mut().push(*record))
                .probe();
            (input, probe, seen)
        });
        if index < 2 {
            start.wait();
            for number in 0..RECORDS {
                input.send((index, number));
                input.flush();
                worker.step();
            }
        }
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&1));
        drop(input);
        worker.step_until_complete();
        let seen = seen.borrow().clone();
        seen
    });
    let expected: Vec<u64> = (0..RECORDS).collect();
    for sender in 0..2u64 {
        let numbers: Vec<u64> = received[2]
            .iter()
            .filter(|(from, _)| *from == sender)
            .map(|(_, number)| *number)
            .collect();
        assert_eq!(numbers, expected, "worker {sender}'s records arrived out of order");
    }
}

/// Every process stages 16 MB for the next one round the ring before any of
/// them reads a byte. No thread reads while a worker writes, so a worker
/// whose write would block has to read instead — or all sit in `write`
/// forever.
fn write_16_mb_round_a_ring_of(processes: usize) {
    const CHUNKS: u64 = 16;
    const CHUNK_BYTES: usize = 1 << 20;
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let received = cluster_execute(processes, 1, |worker| {
            let next = (worker.index() as u64 + 1) % worker.peers() as u64;
            let (mut input, probe, seen) = worker.dataflow::<u64, _, _>(|scope| {
                let (input, stream) = scope.new_input::<(u64, Vec<u8>)>();
                let seen = Rc::new(RefCell::new(0usize));
                let seen_inner = seen.clone();
                let probe = stream
                    .exchange(|record| record.0)
                    .inspect(move |_t, record| *seen_inner.borrow_mut() += record.1.len())
                    .probe();
                (input, probe, seen)
            });
            for chunk in 0..CHUNKS {
                input.send((next, vec![chunk as u8; CHUNK_BYTES]));
            }
            input.advance_to(1);
            worker.step_while(|| probe.less_than(&1));
            drop(input);
            worker.step_until_complete();
            let seen = *seen.borrow();
            seen
        });
        let _ = done.send(received);
    });
    let received = finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("processes writing at each other never finished");
    assert_eq!(received, vec![CHUNKS as usize * CHUNK_BYTES; processes]);
}

#[test]
fn processes_writing_more_than_the_sockets_hold_at_each_other_both_finish() {
    // The bytes a blocked writer must read are on the link it is writing.
    write_16_mb_round_a_ring_of(2);
}

#[test]
fn processes_writing_more_than_the_sockets_hold_round_a_cycle_all_finish() {
    // A → B → C → A: the process that would unblock a writer is itself blocked
    // writing a *different* link, so a blocked writer has to read all of its
    // links, not only the one it holds.
    write_16_mb_round_a_ring_of(3);
}

/// Worker 0 sends one record a round to the first worker of process 1,
/// which waits for it in `step_while`, on 2 × `workers_per_process` workers;
/// returns how long after its write the target saw each record.
#[cfg(target_os = "linux")]
fn frame_latencies(workers_per_process: usize) -> Vec<std::time::Duration> {
    let target = workers_per_process;
    let written = Arc::new(std::sync::Mutex::new(std::time::Instant::now()));
    let looked = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut latencies = cluster_execute(2, workers_per_process, move |worker| {
        let index = worker.index();
        let stamp = Arc::clone(&written);
        let (mut input, probe, seen) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let seen_inner = seen.clone();
            let probe = stream
                .exchange(move |_| target as u64)
                .inspect(move |_t, _record| {
                    seen_inner.borrow_mut().push(stamp.lock().expect("stamp").elapsed())
                })
                .probe();
            (input, probe, seen)
        });
        let looks = || looked.load(std::sync::atomic::Ordering::SeqCst);
        for round in 1..=3u64 {
            if index == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let before = looks();
                while looks() == before {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
                *written.lock().expect("stamp") = std::time::Instant::now();
                input.send(round);
            }
            input.advance_to(round);
            worker.step_while(|| {
                if index == target {
                    looked.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
                probe.less_than(&round)
            });
        }
        drop(input);
        worker.step_until_complete();
        let seen = seen.borrow().clone();
        seen
    });
    latencies.swap_remove(target)
}

#[cfg(target_os = "linux")]
#[test]
fn a_parked_worker_wakes_when_a_frame_lands() {
    // The target waits for an epoch worker 0 closes only after 20 ms, long
    // enough for its parks to reach their full length (`PARK_TIMEOUT`,
    // 1 ms). Worker 0 writes 100 µs after the target last checked its
    // condition, that is, just after a park began: a frame only the park's
    // end delivers is ~0.9 ms late, one whose bytes end the park is not —
    // whether the target is its process's only worker or has a sibling
    // parked on the same socket. Three rounds, and the quickest counts: the
    // bound is on the mechanism, not on what else the machine is running.
    for workers_per_process in [1, 2] {
        let latencies = frame_latencies(workers_per_process);
        assert_eq!(latencies.len(), 3, "one record a round");
        let quickest = latencies.iter().min().expect("three rounds");
        assert!(
            *quickest < std::time::Duration::from_micros(500),
            "2 × {workers_per_process}: a parked worker took {latencies:?} to see a frame"
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn no_thread_but_the_workers_touches_a_socket() {
    let names = cluster_execute(2, 1, |worker| {
        let (mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            (input, stream.exchange(|x| *x).probe())
        });
        input.send(worker.index() as u64);
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&1));
        // Records and progress have crossed the socket both ways: whatever
        // threads the transport runs exist now.
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("thread list")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .collect();
        drop(input);
        worker.step_until_complete();
        names
    });
    for names in names {
        assert!(
            names.iter().any(|name| name.starts_with("timelite-worker")),
            "the thread list must be this process's: {names:?}"
        );
        assert!(
            !names.iter().any(|name| name.starts_with("timelite-net")),
            "a transport thread is running: {names:?}"
        );
    }
}
