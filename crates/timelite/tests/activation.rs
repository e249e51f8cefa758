//! Scheduling-semantics tests for demand-driven activation: an idle operator is
//! not scheduled, and each activation source — data arrival, frontier movement,
//! an explicit `Activator` — wakes exactly the operator it should.

use std::cell::RefCell;
use std::rc::Rc;

use timelite::communication::Pact;
use timelite::dataflow::OperatorBuilder;
use timelite::prelude::*;

/// A shared counter of operator-logic invocations.
type RunCount = Rc<RefCell<usize>>;

/// Attaches a pass-through operator to `stream` that counts how many times its
/// logic runs (scheduled at all, not merely receiving data).
fn counting_stage(stream: &Stream<u64, u64>, name: &str) -> (Stream<u64, u64>, RunCount) {
    let runs: RunCount = Rc::new(RefCell::new(0));
    let runs_in = runs.clone();
    let counted = stream.unary_frontier(Pact::Pipeline, name, move |_capability| {
        move |input, output, _frontier| {
            *runs_in.borrow_mut() += 1;
            input.for_each(|cap, mut data| {
                output.session(&cap).give_vec(&mut data);
            });
        }
    });
    (counted, runs)
}

/// Steps the worker until it reports inactivity (the activation set is drained
/// and no progress is pending).
fn settle(worker: &mut timelite::worker::Worker) {
    while worker.step() {}
}

/// An operator with no reason to run is not scheduled: once the dataflow goes
/// quiet, additional `step` calls run no operator logic at all and report
/// inactivity.
#[test]
fn idle_operator_is_not_scheduled() {
    timelite::execute_single(|worker| {
        let (mut input, probe, runs) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let (counted, runs) = counting_stage(&stream, "Counted");
            let probe = counted.probe();
            (input, probe, runs)
        });
        input.send(7);
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&1));
        settle(worker);

        let after_work = *runs.borrow();
        assert!(after_work > 0, "the operator must have run while active");
        for _ in 0..100 {
            assert!(!worker.step(), "an idle worker must report inactivity");
        }
        assert_eq!(*runs.borrow(), after_work, "an idle operator was scheduled");
        drop(input);
        worker.step_until_complete();
    });
}

/// Data arrival activates the operator it is delivered to — and only that one:
/// an unrelated chain in the same dataflow stays asleep.
#[test]
fn data_arrival_wakes_exactly_the_right_operator() {
    timelite::execute_single(|worker| {
        let (mut input_a, input_b, probe_a, runs_a, runs_b) =
            worker.dataflow::<u64, _, _>(|scope| {
                let (input_a, stream_a) = scope.new_input::<u64>();
                let (input_b, stream_b) = scope.new_input::<u64>();
                let (counted_a, runs_a) = counting_stage(&stream_a, "ChainA");
                let (counted_b, runs_b) = counting_stage(&stream_b, "ChainB");
                let probe_a = counted_a.probe();
                counted_b.probe();
                (input_a, input_b, probe_a, runs_a, runs_b)
            });
        settle(worker);
        let baseline_a = *runs_a.borrow();
        let baseline_b = *runs_b.borrow();

        input_a.send(1);
        input_a.advance_to(1);
        worker.step_while(|| probe_a.less_than(&1));
        settle(worker);

        assert!(*runs_a.borrow() > baseline_a, "the receiving operator must run");
        assert_eq!(*runs_b.borrow(), baseline_b, "the unrelated operator was scheduled");

        drop(input_a);
        drop(input_b);
        worker.step_until_complete();
    });
}

/// A frontier advance — with no data at all — wakes the downstream operator,
/// which observes the moved frontier.
#[test]
fn frontier_advance_wakes_downstream_operator() {
    timelite::execute_single(|worker| {
        let frontier_seen = Rc::new(RefCell::new(0u64));
        let frontier_in = frontier_seen.clone();
        let (mut input, runs) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let runs: RunCount = Rc::new(RefCell::new(0));
            let runs_in = runs.clone();
            stream
                .unary_frontier(Pact::Pipeline, "Watcher", move |_capability| {
                    move |input, _output: &mut timelite::dataflow::OutputPort<u64, u64>, frontier| {
                        *runs_in.borrow_mut() += 1;
                        input.for_each(|_cap, _data| {});
                        if let Some(time) = frontier.time() {
                            *frontier_in.borrow_mut() = *time;
                        }
                    }
                })
                .probe();
            (input, runs)
        });
        settle(worker);
        let baseline = *runs.borrow();

        input.advance_to(5);
        settle(worker);
        assert!(*runs.borrow() > baseline, "frontier movement must wake the operator");
        assert_eq!(*frontier_seen.borrow(), 5, "the operator must observe the new frontier");

        drop(input);
        worker.step_until_complete();
    });
}

/// An explicit `Activator` wakes its operator — and only its operator — without
/// any data or frontier movement.
#[test]
fn explicit_activator_wakes_exactly_its_operator() {
    timelite::execute_single(|worker| {
        let (input, activator, runs_target, runs_other) =
            worker.dataflow::<u64, _, _>(|scope| {
                let (input, stream) = scope.new_input::<u64>();

                let mut builder = OperatorBuilder::new("Target", scope.clone());
                let mut target_in = builder.new_input(&stream, Pact::Pipeline);
                let (mut target_out, target_stream) = builder.new_output::<u64>();
                let activator = builder.activator();
                let runs_target: RunCount = Rc::new(RefCell::new(0));
                let runs_in = runs_target.clone();
                builder.build(move |_capability| {
                    move |_frontiers| {
                        *runs_in.borrow_mut() += 1;
                        target_in.for_each(|cap, mut data| {
                            target_out.session(&cap).give_vec(&mut data);
                        });
                    }
                });
                target_stream.probe();

                let (counted, runs_other) = counting_stage(&stream, "Other");
                counted.probe();
                (input, activator, runs_target, runs_other)
            });
        settle(worker);
        let baseline_target = *runs_target.borrow();
        let baseline_other = *runs_other.borrow();

        activator.activate();
        assert!(worker.step(), "an activation must make the step active");
        settle(worker);

        assert_eq!(
            *runs_target.borrow(),
            baseline_target + 1,
            "the activated operator must run exactly once"
        );
        assert_eq!(*runs_other.borrow(), baseline_other, "the other operator was scheduled");

        drop(input);
        worker.step_until_complete();
    });
}

/// Activating an operator from inside its own logic (self-reactivation after
/// yielding with work remaining) schedules it again on the next step.
#[test]
fn self_reactivation_reschedules_next_step() {
    timelite::execute_single(|worker| {
        let (input, runs) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let mut builder = OperatorBuilder::new("Pump", scope.clone());
            let mut pump_in = builder.new_input(&stream, Pact::Pipeline);
            let (_pump_out, pump_stream) = builder.new_output::<u64>();
            let activator = builder.activator();
            let runs: RunCount = Rc::new(RefCell::new(0));
            let runs_in = runs.clone();
            // Re-activates itself on each of its first 5 runs, simulating a
            // pump yielding with work remaining.
            builder.build(move |_capability| {
                move |_frontiers| {
                    pump_in.for_each(|_cap, _data| {});
                    let mut runs = runs_in.borrow_mut();
                    *runs += 1;
                    if *runs < 5 {
                        activator.activate();
                    }
                }
            });
            pump_stream.probe();
            (input, runs)
        });
        settle(worker);
        assert_eq!(*runs.borrow(), 5, "self-reactivation must keep the operator scheduled");
        assert!(!worker.step(), "once the pump stops re-activating the worker goes idle");

        drop(input);
        worker.step_until_complete();
    });
}
