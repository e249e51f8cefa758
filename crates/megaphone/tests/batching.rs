//! The batch-at-a-time contract of the F→S record path: `fold` runs once per
//! `(time, bin)` however many batches carried that time's records, due
//! post-dated records come first in that one call, a time's outputs leave S as
//! one batch, and none of it changes what a per-record reference computes.
//! Post-dated records cost one wake-up and one call per `(bin, time)` run, and
//! a fold with nothing due does not touch the runs that are pending. Times
//! that become ready together are retired one worker step each.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use megaphone::prelude::*;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

/// Per worker: every fold call as `(time, bin, records)`, and every batch seen
/// on the output stream as `(time, records)`.
type CallLog = (Vec<(u64, BinId, usize)>, Vec<(u64, usize)>);

#[test]
fn fold_runs_once_per_time_and_bin_and_emits_one_batch_per_time() {
    const TIMES: u64 = 5;
    const BATCHES: u64 = 3;
    const BINS: usize = 4;
    let logs: Vec<CallLog> = timelite::execute(Config::process(2), |worker| {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let batches = Rc::new(RefCell::new(Vec::new()));
        let (mut control, mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<u64>();
            let calls = calls.clone();
            let output = stateful_unary::<_, u64, u64, u64, _, _>(
                MegaphoneConfig::new(2),
                &control,
                &data,
                "OncePerBin",
                // The record's low two bits name its bin.
                |record| record << 62,
                move |time, records, _state, notificator| {
                    calls.borrow_mut().push((*time, notificator.bin(), records.len()));
                    records
                },
            );
            let batches = batches.clone();
            output.stream.inspect_batch(move |time, records| {
                batches.borrow_mut().push((*time, records.len()));
            });
            (control_input, data_input, output.probe)
        });
        for time in 0..TIMES {
            // Several batches per worker at one time, every bin in each.
            for _ in 0..BATCHES {
                for record in 0..8u64 {
                    input.send(record);
                }
                input.flush();
            }
            control.advance_to(time + 1);
            input.advance_to(time + 1);
            worker.step_while(|| probe.less_than(&(time + 1)));
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        let log = (calls.borrow().clone(), batches.borrow().clone());
        log
    });

    let mut folded = BTreeMap::new();
    for (worker, (calls, batches)) in logs.iter().enumerate() {
        for &(time, bin, records) in calls {
            let previous = folded.insert((time, bin), records);
            assert_eq!(previous, None, "fold ran twice for time {time}, bin {bin}");
        }
        let mut emitted = BTreeMap::new();
        for &(time, records) in batches {
            let previous = emitted.insert(time, records);
            assert_eq!(previous, None, "worker {worker} emitted two batches at time {time}");
        }
        for time in 0..TIMES {
            let expected: usize =
                calls.iter().filter(|call| call.0 == time).map(|call| call.2).sum();
            assert_eq!(emitted.get(&time), Some(&expected), "worker {worker}, time {time}");
        }
    }
    // Every (time, bin) was folded, each with both workers' records in one call.
    assert_eq!(folded.len(), TIMES as usize * BINS);
    assert!(folded.values().all(|&records| records as u64 == 2 * BATCHES * 2));
}

#[test]
fn due_records_come_first_in_the_same_call_as_fresh_ones() {
    let calls: Vec<(u64, Vec<u64>)> = timelite::execute_single(|worker| {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let (mut control, mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<u64>();
            let calls = calls.clone();
            let output = stateful_unary::<_, u64, u64, u64, _, _>(
                MegaphoneConfig::new(2),
                &control,
                &data,
                "DueFirst",
                // One key, one bin.
                |_record| hash_code(&7u64),
                move |time, records, _state, notificator| {
                    for &record in &records {
                        // Fresh records end in 0; those before time 5 post-date
                        // a replay to time 5, the first another one to time 9.
                        if record % 10 == 0 && *time < 5 {
                            notificator.notify_at(5, record + 1);
                            if record == 10 {
                                notificator.notify_at(9, record + 2);
                            }
                        }
                    }
                    calls.borrow_mut().push((*time, records));
                    Vec::new()
                },
            );
            (control_input, data_input, output.probe)
        });
        for (time, fresh) in [(1, vec![10]), (2, vec![20]), (5, vec![30, 40])] {
            control.advance_to(time);
            input.advance_to(time);
            // One batch per fresh record.
            for record in fresh {
                input.send(record);
                input.flush();
            }
        }
        control.advance_to(20);
        input.advance_to(20);
        worker.step_while(|| probe.less_than(&20));
        drop(control);
        drop(input);
        worker.step_until_complete();
        let calls = calls.borrow().clone();
        calls
    });

    // Four calls, none of them empty: the two wake-ups registered for time 5
    // and the two fresh batches of time 5 are one unit of work, and a wake-up
    // that finds its records already delivered does not reach `fold`.
    assert_eq!(calls.len(), 4, "calls: {calls:?}");
    assert_eq!(calls[0], (1, vec![10]));
    assert_eq!(calls[1], (2, vec![20]));
    assert_eq!(calls[2].0, 5);
    assert_eq!(calls[2].1[..2], [11, 21], "due records first, in the order they were scheduled");
    let mut fresh = calls[2].1[2..].to_vec();
    fresh.sort_unstable();
    assert_eq!(fresh, vec![30, 40], "fresh records of both batches follow in the same call");
    assert_eq!(calls[3], (9, vec![12]));
}

#[test]
fn times_ready_together_are_retired_one_step_each() {
    const TIMES: u64 = 4;
    let frontiers: Vec<u64> = timelite::execute_single(|worker| {
        let (mut control, mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<u64>();
            let output = stateful_unary::<_, u64, u64, u64, _, _>(
                MegaphoneConfig::new(2),
                &control,
                &data,
                "OneTimeAStep",
                hash_code,
                |_time, records, _state, _notificator| records,
            );
            (control_input, data_input, output.probe)
        });
        // Every time's records are in, and every time is closed, before the
        // worker steps at all: S finds all of them ready in one invocation.
        for time in 0..TIMES {
            control.advance_to(time);
            input.advance_to(time);
            input.send(time);
        }
        control.advance_to(TIMES);
        input.advance_to(TIMES);
        // The earliest time the output may still produce, after each step.
        let mut frontiers = Vec::new();
        while probe.less_than(&TIMES) {
            worker.step();
            let open = (0..=TIMES).find(|time| probe.less_than(&(time + 1))).unwrap_or(TIMES);
            if frontiers.last() != Some(&open) {
                frontiers.push(open);
            }
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        frontiers
    });
    // The output frontier visits every time: each time's completion left with
    // the step that retired it, not with the step that retired the last one.
    assert_eq!(frontiers, (0..=TIMES).collect::<Vec<_>>());
}

#[test]
fn a_thousand_records_for_one_bin_and_time_are_one_wakeup_and_one_fold_call() {
    const RECORDS: u64 = 1_000;
    let (calls, wakeups) = timelite::execute_single(|worker| {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let (mut control, mut input, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<u64>();
            let calls = calls.clone();
            let output = stateful_unary::<_, u64, u64, u64, _, _>(
                MegaphoneConfig::new(2),
                &control,
                &data,
                "OneRun",
                // One key, one bin.
                |_record| hash_code(&7u64),
                move |time, records, _state, notificator| {
                    if *time == 1 {
                        for &record in &records {
                            notificator.notify_at(5, record + RECORDS);
                        }
                        assert_eq!(notificator.pending_len(), records.len());
                    }
                    calls.borrow_mut().push((*time, records));
                    Vec::new()
                },
            );
            (control_input, data_input, output)
        });
        control.advance_to(1);
        input.advance_to(1);
        // Several batches: the fold still sees them as one call, in arrival
        // order, and schedules the whole run from it.
        for chunk in 0..4 {
            for record in chunk * RECORDS / 4..(chunk + 1) * RECORDS / 4 {
                input.send(record);
            }
            input.flush();
        }
        control.advance_to(2);
        input.advance_to(2);
        worker.step_while(|| output.probe.less_than(&2));
        let wakeups = output.stats.pending_wakeups();
        control.advance_to(20);
        input.advance_to(20);
        worker.step_while(|| output.probe.less_than(&20));
        let wakeups = (wakeups, output.stats.pending_wakeups());
        drop(control);
        drop(input);
        worker.step_until_complete();
        let calls = calls.borrow().clone();
        (calls, wakeups)
    });

    assert_eq!(wakeups, (1, 0), "one wake-up for the run while it is pending, none after");
    assert_eq!(calls.len(), 2, "one call at time 1, one at time 5");
    assert_eq!(calls[0].0, 1);
    assert_eq!(calls[1].0, 5);
    let expected: Vec<u64> = calls[0].1.iter().map(|record| record + RECORDS).collect();
    assert_eq!(expected.len() as u64, RECORDS);
    assert_eq!(calls[1].1, expected, "the whole run in one call, in the order it was scheduled");
}

#[test]
fn far_future_reminders_are_not_touched_by_a_fold_that_has_nothing_due() {
    const REMINDERS: u64 = 10_000;
    const FAR: u64 = 1_000_000;
    // Per fold call: its time, its records, and the bin's pending count after
    // the call's own scheduling.
    type Call = (u64, Vec<u64>, usize);
    let (calls, wakeups): (Vec<Call>, usize) = timelite::execute_single(|worker| {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let (mut control, mut input, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<u64>();
            let calls = calls.clone();
            let output = stateful_unary::<_, u64, u64, u64, _, _>(
                MegaphoneConfig::new(2),
                &control,
                &data,
                "FarFuture",
                |_record| hash_code(&7u64),
                move |time, records, _state, notificator| {
                    if *time == 0 {
                        // A hundred far-future runs of a hundred reminders.
                        for &record in &records {
                            notificator.notify_at(FAR + record % 100, FAR + record);
                        }
                    }
                    calls.borrow_mut().push((*time, records, notificator.pending_len()));
                    Vec::new()
                },
            );
            (control_input, data_input, output)
        });
        for record in 0..REMINDERS {
            input.send(record);
        }
        for time in 1..=3u64 {
            control.advance_to(time);
            input.advance_to(time);
            input.send(time);
        }
        control.advance_to(10);
        input.advance_to(10);
        worker.step_while(|| output.probe.less_than(&10));
        let wakeups = output.stats.pending_wakeups();
        drop(control);
        drop(input);
        worker.step_until_complete();
        let calls = calls.borrow().clone();
        (calls, wakeups)
    });

    assert_eq!(wakeups, 100, "one wake-up per far-future run");
    assert_eq!(calls[0].0, 0);
    assert_eq!(calls[0].2, REMINDERS as usize);
    for (index, time) in (1..=3u64).enumerate() {
        let call = &calls[index + 1];
        assert_eq!((call.0, &call.1[..]), (time, &[time][..]), "only the fresh record is folded");
        assert_eq!(call.2, REMINDERS as usize, "the far-future reminders stay where they are");
    }
    // Closing the inputs releases the runs: one call per run, in time order,
    // each carrying its hundred reminders in the order they were scheduled.
    assert_eq!(calls.len(), 4 + 100);
    for (run, call) in calls[4..].iter().enumerate() {
        assert_eq!(call.0, FAR + run as u64);
        let expected: Vec<u64> = (0..100).map(|i| FAR + run as u64 + 100 * i).collect();
        assert_eq!(call.1, expected);
    }
}

/// One step of xorshift64.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The keys worker `index` sends at `round`, cut into batches.
fn batches_of(seed: u64, index: usize, round: u64) -> Vec<Vec<u64>> {
    let mut rng = (seed << 20 | (index as u64) << 10 | round).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..1 + xorshift(&mut rng) % 3)
        .map(|_| (0..xorshift(&mut rng) % 20).map(|_| xorshift(&mut rng) % 64).collect())
        .collect()
}

#[test]
fn hash_count_across_a_migration_matches_a_per_record_reference() {
    const WORKERS: usize = 2;
    const ROUNDS: u64 = 8;
    for seed in 1..=32u64 {
        let outputs = timelite::execute(Config::process(WORKERS), move |worker| {
            let index = worker.index();
            let config = MegaphoneConfig::new(3);
            let received = Rc::new(RefCell::new(Vec::new()));
            let (mut control, mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
                let (control_input, control) = scope.new_input::<ControlInst>();
                let (data_input, data) = scope.new_input::<u64>();
                let output = stateful_unary::<_, u64, FxHashMap<u64, u64>, (u64, u64), _, _>(
                    config,
                    &control,
                    &data,
                    "HashCount",
                    hash_code,
                    |_time, keys, counts, _notificator| {
                        keys.into_iter()
                            .map(|key| {
                                let count = counts.entry(key).or_insert(0);
                                *count += 1;
                                (key, *count)
                            })
                            .collect()
                    },
                );
                let received = received.clone();
                output.stream.inspect(move |time, (key, count)| {
                    received.borrow_mut().push((*time, *key, *count));
                });
                (control_input, data_input, output.probe)
            });
            for round in 0..ROUNDS {
                for mut batch in batches_of(seed, index, round) {
                    input.send_batch(&mut batch);
                    input.flush();
                }
                if index == 0 && round == ROUNDS / 2 {
                    // Every bin moves to the other worker.
                    let moved = config.initial_assignment(WORKERS).iter().map(|w| 1 - w).collect();
                    control.send(ControlInst::Map(moved));
                }
                control.advance_to(round + 1);
                input.advance_to(round + 1);
                worker.step_while(|| probe.less_than(&(round + 1)));
            }
            drop(control);
            drop(input);
            worker.step_until_complete();
            let received = received.borrow().clone();
            received
        });
        let mut outputs: Vec<(u64, u64, u64)> = outputs.into_iter().flatten().collect();
        outputs.sort_unstable();

        let mut counts: HashMap<u64, u64> = HashMap::new();
        let mut expected = Vec::new();
        for round in 0..ROUNDS {
            for index in 0..WORKERS {
                for key in batches_of(seed, index, round).into_iter().flatten() {
                    let count = counts.entry(key).or_insert(0);
                    *count += 1;
                    expected.push((round, key, *count));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(outputs, expected, "seed {seed}");
    }
}
