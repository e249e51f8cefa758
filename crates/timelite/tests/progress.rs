//! Progress-sharing tests: when a peer learns what a step did. Two workers are
//! hand-stepped on one thread over an in-process fabric, so every interleaving
//! below is chosen by the test and no assertion depends on a clock.

use std::cell::RefCell;
use std::rc::Rc;

use timelite::communication::allocate;
use timelite::prelude::*;

/// What happened, in order, across both workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// The test called `step()` on this worker.
    Step(usize),
    /// This worker's operator received a batch of the epoch and stashed it.
    Stash(usize),
    /// This worker's operator saw its input frontier pass the epoch and folded.
    Fold(usize),
}

type Log = Rc<RefCell<Vec<Event>>>;

/// Input → exchange-fed operator that stashes on receipt and folds a time once
/// its input frontier has passed it (the shape of Megaphone's `S`) → probe.
fn stash_and_fold(worker: &mut Worker, log: &Log) -> (InputHandle<u64, u64>, ProbeHandle<u64>) {
    let me = worker.index();
    let log = Rc::clone(log);
    worker.dataflow::<u64, _, _>(|scope| {
        let (input, stream) = scope.new_input::<u64>();
        let probe = stream
            .unary_frontier(Pact::exchange(|key: &u64| *key), "StashAndFold", move |_capability| {
                let mut stash: Vec<(Capability<u64>, u64)> = Vec::new();
                move |input, output, frontier| {
                    input.for_each(|cap, data| {
                        log.borrow_mut().push(Event::Stash(me));
                        let sum = data.iter().sum::<u64>();
                        match stash.iter_mut().find(|(held, _)| held.time() == cap.time()) {
                            Some((_, total)) => *total += sum,
                            None => stash.push((cap, sum)),
                        }
                    });
                    stash.retain(|(cap, total)| {
                        let open = frontier.less_equal(cap.time());
                        if !open {
                            log.borrow_mut().push(Event::Fold(me));
                            output.session(cap).give(*total);
                        }
                        open
                    });
                }
            })
            .probe();
        (input, probe)
    })
}

/// The convoy, step by step. Every epoch both workers send one record to
/// themselves and one to the peer (`advance_to` hands the peer's record to the
/// fabric), and the test picks the interleaving: A takes one step, then B
/// steps alone.
///
/// B's fold needs A's acknowledgement that B's record was consumed. A produces
/// it in the step that receives the record into its stash; it must reach B
/// with that step, so B stashes and folds in its next two steps while A has
/// not stepped again — before A's own fold step, not after it (withheld across
/// A's fold, the two folds took turns). The schedule is the same for every
/// epoch, and a worker that stops stepping the moment its probe passes leaves
/// nothing behind that its peer still needs (the deadlock an exit-time flush
/// used to paper over).
#[test]
fn a_peers_fold_is_runnable_after_the_one_step_that_received_its_records() {
    const A: usize = 0;
    const B: usize = 1;
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let mut allocs = allocate(2);
    let mut b = Worker::new(allocs.pop().expect("two allocators"));
    let mut a = Worker::new(allocs.pop().expect("two allocators"));
    let (mut input_a, probe_a) = stash_and_fold(&mut a, &log);
    let (mut input_b, probe_b) = stash_and_fold(&mut b, &log);
    while a.step() | b.step() {}
    log.borrow_mut().clear();

    let step = |worker: &mut Worker| {
        log.borrow_mut().push(Event::Step(worker.index()));
        worker.step();
    };
    let mut schedules: Vec<Vec<Event>> = Vec::new();
    for epoch in 0..8u64 {
        for input in [&mut input_a, &mut input_b] {
            input.send(A as u64);
            input.send(B as u64);
            input.advance_to(epoch + 1);
        }
        step(&mut a);
        step(&mut b);
        step(&mut b);
        let done = epoch + 1;
        while probe_a.less_than(&done) || probe_b.less_than(&done) {
            for (worker, probe) in [(&mut a, &probe_a), (&mut b, &probe_b)] {
                if probe.less_than(&done) {
                    step(worker);
                }
            }
            assert!(log.borrow().len() < 64, "epoch {epoch} never closed: {:?}", log.borrow());
        }
        schedules.push(std::mem::take(&mut *log.borrow_mut()));
    }

    let expected = [
        // A receives its own record and B's into its stash, and acknowledges.
        Event::Step(A),
        Event::Stash(A),
        Event::Stash(A),
        // That is all B was waiting for: it stashes, then folds …
        Event::Step(B),
        Event::Stash(B),
        Event::Stash(B),
        Event::Step(B),
        Event::Fold(B),
        // … before A's fold step.
        Event::Step(A),
        Event::Fold(A),
        // Each sees the other's fold and its probe passes: three steps a
        // worker, every epoch.
        Event::Step(B),
        Event::Step(A),
    ];
    for (epoch, schedule) in schedules.iter().enumerate() {
        assert_eq!(schedule[..], expected[..], "epoch {epoch}");
    }

    drop((input_a, input_b));
    while !(a.dataflows_complete() && b.dataflows_complete()) {
        a.step();
        b.step();
    }
}
