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
