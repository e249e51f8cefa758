//! The cluster equivalence evidence: the same NEXMark dataflow — including a
//! mid-run migration of every bin — produces byte-identical ordered outputs
//! whether its workers are one thread, several threads in one process, or
//! spread across two OS processes connected by TCP (serialization on every
//! cross-worker path), deterministically across repeated runs.
//!
//! Cluster runs execute first in each test: the forked child processes
//! (`mp_harness::cluster_run`'s env-var re-entry) re-run this test function
//! from the top, and servicing the fork before the in-process modes keeps the
//! children's replay work minimal.

use std::cell::RefCell;
use std::rc::Rc;

use megaphone::prelude::*;
use nexmark::{build_query, NexmarkConfig, NexmarkGenerator};
use timelite::prelude::*;

/// Total events generated per run (split across workers).
const EVENTS_TOTAL: u64 = 20_000;
/// Event-time milliseconds per input epoch.
const EPOCH_MS: u64 = 100;
/// Events per second of event time.
const RATE: u64 = 10_000;

/// The per-worker body shared by every mode: builds `query` with Megaphone
/// operators, feeds this worker's slice of the generated stream in 100 ms
/// epochs, migrates every bin to the next worker halfway through, and returns
/// the rows this worker's final operator emitted.
fn query_run(query: &'static str) -> impl Fn(&mut Worker) -> Vec<String> + Send + Sync + 'static {
    move |worker| {
        let index = worker.index();
        let peers = worker.peers();
        let mega_config = MegaphoneConfig::new(4);

        let (mut control, mut input, output, collected) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (event_input, events) = scope.new_input::<nexmark::Event>();
            let collected = Rc::new(RefCell::new(Vec::new()));
            let collected_inner = collected.clone();
            let output = build_query(query, mega_config, &control, &events);
            output.stream.inspect(move |_t, row| collected_inner.borrow_mut().push(row.clone()));
            (control_input, event_input, output, collected)
        });

        let generator = NexmarkGenerator::new(NexmarkConfig::with_rate(RATE));
        let events_per_epoch = RATE * EPOCH_MS / 1_000;
        let epochs = EVENTS_TOTAL / events_per_epoch;
        for epoch in 0..epochs {
            let start = epoch * events_per_epoch;
            for position in start..start + events_per_epoch {
                if position % peers as u64 == index as u64 {
                    input.send(generator.event(position));
                }
            }
            if index == 0 && epoch == epochs / 2 {
                // Mid-run migration: every bin moves to the next worker (a
                // no-op re-assignment under a single worker), crossing the
                // process boundary for half the bins in cluster mode.
                let map = (0..mega_config.bins()).map(|bin| (bin + 1) % peers).collect();
                control.send(ControlInst::Map(map));
            }
            let next = (epoch + 1) * EPOCH_MS;
            control.advance_to(next + EPOCH_MS);
            input.advance_to(next);
            worker.step_while(|| output.probe.less_than(&next));
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        let rows = collected.borrow().clone();
        rows
    }
}

/// Flattens per-worker rows into the canonical ordered output.
fn ordered(outputs: Vec<Vec<String>>) -> Vec<String> {
    let mut rows: Vec<String> = outputs.into_iter().flatten().collect();
    rows.sort();
    rows
}

/// Runs `query` under all three modes, three times each, and asserts every
/// run of every mode produces the same ordered rows.
fn assert_equivalence(test_name: &str, query: &'static str) {
    // Cluster first: forked children re-enter this test and exit at their
    // cluster_run call, before the in-process modes below would run.
    let cluster: Vec<Vec<String>> = (0..3)
        .map(|_| ordered(mp_harness::cluster_run(test_name, 2, 2, query_run(query))))
        .collect();
    let thread: Vec<Vec<String>> =
        (0..3).map(|_| ordered(timelite::execute(Config::thread(), query_run(query)))).collect();
    let process: Vec<Vec<String>> =
        (0..3).map(|_| ordered(timelite::execute(Config::process(4), query_run(query)))).collect();

    assert!(!thread[0].is_empty(), "{query} produced no output");
    for (run, rows) in thread.iter().enumerate().skip(1) {
        assert_eq!(rows, &thread[0], "{query} thread run {run} diverged");
    }
    for (run, rows) in process.iter().enumerate() {
        assert_eq!(rows, &thread[0], "{query} process run {run} diverged from thread mode");
    }
    for (run, rows) in cluster.iter().enumerate() {
        assert_eq!(rows, &thread[0], "{query} cluster run {run} diverged from thread mode");
    }
}

#[test]
fn q5_cluster_equivalence() {
    assert_equivalence("q5_cluster_equivalence", "q5");
}

#[test]
fn q8_cluster_equivalence() {
    assert_equivalence("q8_cluster_equivalence", "q8");
}

#[test]
fn q3_cluster_equivalence() {
    assert_equivalence("q3_cluster_equivalence", "q3");
}

#[test]
fn q4_cluster_equivalence() {
    assert_equivalence("q4_cluster_equivalence", "q4");
}

#[test]
fn q6_cluster_equivalence() {
    assert_equivalence("q6_cluster_equivalence", "q6");
}

#[test]
fn q7_cluster_equivalence() {
    assert_equivalence("q7_cluster_equivalence", "q7");
}
