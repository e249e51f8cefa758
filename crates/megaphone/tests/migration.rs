//! Integration tests for Megaphone's migration mechanism, checking the paper's
//! three properties (Section 3.2): Correctness (outputs equal the timestamp-
//! ordered per-key application), Migration (updates happen at the configured
//! worker), and Completion (output frontiers eventually advance).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use megaphone::prelude::*;
use timelite::prelude::*;

/// Runs a migrateable word-count under the given plan (issued with the
/// controller from worker 0) and returns every output record `(time, word,
/// count)` observed anywhere, plus the final count per word.
fn run_word_count(
    workers: usize,
    bin_shift: u32,
    rounds: u64,
    strategy: Option<MigrationStrategy>,
    migrate_at: u64,
) -> Vec<(u64, String, i64)> {
    let outputs = timelite::execute(Config::process(workers), move |worker| {
        let index = worker.index();
        let peers = worker.peers();
        let config = MegaphoneConfig::new(bin_shift);

        let (mut control, mut words, output, received) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (word_input, words) = scope.new_input::<(String, i64)>();
            let received = Rc::new(RefCell::new(Vec::new()));
            let received_inner = received.clone();
            let output = state_machine::<_, String, i64, i64, (String, i64), _>(
                config,
                &control,
                &words,
                "WordCount",
                |word, diff, count| {
                    *count += diff;
                    (false, vec![(word.clone(), *count)])
                },
            );
            output
                .stream
                .inspect(move |time, (word, count)| {
                    received_inner.borrow_mut().push((*time, word.clone(), *count));
                });
            (control_input, word_input, output, received)
        });

        // Plan the migration: move to the imbalanced assignment.
        let plan = strategy.map(|strategy| {
            plan_migration(
                strategy,
                &balanced_assignment(config.bins(), peers),
                &imbalanced_assignment(config.bins(), peers),
            )
        });
        let mut controller = plan.map(|plan| MigrationController::<u64>::new(plan, false));

        for round in 0..rounds {
            // Every worker contributes a deterministic set of words each round.
            for word_id in 0..10u64 {
                words.send((format!("word-{}", (round + word_id) % 17), 1));
            }
            // Worker 0 drives the migration once the migration epoch is reached.
            if index == 0 && round >= migrate_at {
                if let Some(controller) = controller.as_mut() {
                    let _ = controller.advance(&output.probe, &mut control);
                }
            }
            control.advance_to(round + 1);
            words.advance_to(round + 1);
            worker.step_while(|| output.probe.less_than(&(round + 1)));
        }
        drop(control);
        drop(words);
        worker.step_until_complete();
        let collected = received.borrow().clone();
        collected
    });
    outputs.into_iter().flatten().collect()
}

/// Collapses outputs to the final count per word (the largest count observed).
fn final_counts(outputs: &[(u64, String, i64)]) -> HashMap<String, i64> {
    let mut finals: HashMap<String, i64> = HashMap::new();
    for (_, word, count) in outputs {
        let entry = finals.entry(word.clone()).or_insert(*count);
        if *count > *entry {
            *entry = *count;
        }
    }
    finals
}

/// Property 1 (Correctness): outputs of a migrating run match a non-migrating
/// run record for record (after sorting), for every migration strategy.
#[test]
fn migrating_and_nonmigrating_runs_agree() {
    let baseline = run_word_count(4, 6, 12, None, 4);
    let mut baseline_sorted = baseline.clone();
    baseline_sorted.sort();
    for strategy in [
        MigrationStrategy::AllAtOnce,
        MigrationStrategy::Fluid,
        MigrationStrategy::Batched(8),
        MigrationStrategy::Optimized,
    ] {
        let migrated = run_word_count(4, 6, 12, Some(strategy), 4);
        let mut migrated_sorted = migrated.clone();
        migrated_sorted.sort();
        assert_eq!(
            baseline_sorted, migrated_sorted,
            "{:?} migration changed the computation's outputs",
            strategy
        );
    }
}

/// Property 3 (Completion): with inputs closed, the computation drains and the
/// final counts equal the number of occurrences sent, despite a migration.
#[test]
fn counts_survive_migration() {
    let rounds = 10;
    let workers = 2;
    let outputs = run_word_count(workers, 4, rounds, Some(MigrationStrategy::AllAtOnce), 3);
    let finals = final_counts(&outputs);
    // Each of the 17 possible words is sent by every worker once per round in
    // which (round + word_id) % 17 selects it; total sends must match totals.
    let total_sent: i64 = (rounds * 10 * workers as u64) as i64;
    let total_counted: i64 = finals.values().sum();
    assert_eq!(total_counted, total_sent);
}

/// Property 2 (Migration): after moving every bin to one worker, all state
/// updates happen on that worker.
#[test]
fn state_lands_on_configured_worker() {
    let processed_by = timelite::execute(Config::process(2), |worker| {
        let index = worker.index();
        let config = MegaphoneConfig::new(4);
        let processed = Rc::new(RefCell::new(0usize));
        let processed_inner = processed.clone();

        let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<(u64, u64)>();
            let output = stateful_unary::<_, (u64, u64), u64, u64, _, _>(
                config,
                &control,
                &data,
                "SumPerBin",
                |(key, _value)| timelite::hashing::hash_code(key),
                move |_time, records, state, _notificator| {
                    *processed_inner.borrow_mut() += records.len();
                    *state += records.iter().map(|(_, value)| *value).sum::<u64>();
                    vec![*state]
                },
            );
            (control_input, data_input, output)
        });

        // Epoch 0: both workers process their own keys.
        for key in 0..32u64 {
            data.send((key, 1));
        }
        control.advance_to(1);
        data.advance_to(1);
        worker.step_while(|| output.probe.less_than(&1));
        let before_migration = *processed.borrow();

        // Epoch 1: move every bin to worker 1.
        if index == 0 {
            control.send(ControlInst::Map(vec![1; config.bins()]));
        }
        control.advance_to(2);
        data.advance_to(2);
        worker.step_while(|| output.probe.less_than(&2));

        // Epoch 2: more records — all must be processed by worker 1.
        for key in 0..32u64 {
            data.send((key, 1));
        }
        control.advance_to(3);
        data.advance_to(3);
        worker.step_while(|| output.probe.less_than(&3));

        drop(control);
        drop(data);
        worker.step_until_complete();
        let after_migration = *processed.borrow() - before_migration;
        (index, before_migration, after_migration)
    });

    let by_index: HashMap<usize, (usize, usize)> = processed_by
        .into_iter()
        .map(|(index, before, after)| (index, (before, after)))
        .collect();
    // Before the migration both workers held state (64 records split by hash).
    assert_eq!(by_index[&0].0 + by_index[&1].0, 64);
    assert!(by_index[&0].0 > 0 && by_index[&1].0 > 0);
    // After the migration worker 1 processes everything, worker 0 nothing.
    assert_eq!(by_index[&0].1, 0, "worker 0 processed records after migrating away");
    assert_eq!(by_index[&1].1, 64);
}

/// Post-dated records (scheduled through the notificator) survive a migration:
/// they fire at the new owner at the right time.
#[test]
fn pending_records_migrate_with_their_bin() {
    let fired = timelite::execute(Config::process(2), |worker| {
        let index = worker.index();
        let config = MegaphoneConfig::new(2);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let fired_inner = fired.clone();

        let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<(u64, u64)>();
            let fired_inner2 = fired_inner.clone();
            let output = stateful_unary::<_, (u64, u64), u64, (u64, u64), _, _>(
                config,
                &control,
                &data,
                "Delayer",
                |(key, _)| timelite::hashing::hash_code(key),
                move |time, records, state, notificator| {
                    let mut outputs = Vec::new();
                    for (key, value) in records {
                        if value == 0 {
                            // A reminder fired: emit the accumulated state.
                            outputs.push((key, *state));
                            fired_inner2.borrow_mut().push((*time, key));
                        } else {
                            *state += value;
                            // Schedule a reminder for five epochs later.
                            notificator.notify_at(time + 5, (key, 0));
                        }
                    }
                    outputs
                },
            );
            (control_input, data_input, output)
        });

        // Epoch 0: worker 0 sends records which schedule reminders for epoch 5.
        if index == 0 {
            for key in 0..8u64 {
                data.send((key, 10));
            }
        }
        control.advance_to(1);
        data.advance_to(1);
        worker.step_while(|| output.probe.less_than(&1));

        // Epoch 1: migrate everything to worker 1 — reminders must move too.
        if index == 0 {
            control.send(ControlInst::Map(vec![1; config.bins()]));
        }
        // Run the computation out to epoch 8 so the reminders fire.
        for epoch in 1..8u64 {
            control.advance_to(epoch + 1);
            data.advance_to(epoch + 1);
            worker.step_while(|| output.probe.less_than(&(epoch + 1)));
        }
        drop(control);
        drop(data);
        worker.step_until_complete();
        let collected = fired.borrow().clone();
        (index, collected)
    });

    let by_index: HashMap<usize, Vec<(u64, u64)>> = fired.into_iter().collect();
    assert!(by_index[&0].is_empty(), "reminders fired on the old owner after migration");
    assert_eq!(by_index[&1].len(), 8, "every reminder must fire exactly once on the new owner");
    assert!(by_index[&1].iter().all(|(time, _)| *time == 5), "reminders fired at the wrong time");
}

/// A reminder-heavy bin that migrates back and forth does not pile up wake-ups:
/// the worker it leaves drops them, the worker it reaches registers one per
/// (bin, time) run, and afterwards every run fires as exactly one fold call.
#[test]
fn round_trips_neither_leak_nor_duplicate_wakeups() {
    const ROUND_TRIPS: u64 = 6;
    const KEYS: u64 = 16;
    const REMINDERS_PER_KEY: u64 = 50;
    const DUE: [u64; 3] = [1_000, 1_001, 1_002];
    // Per worker: its wake-up count after every migration (with the worker that
    // hosts everything from then on), and its reminder calls `(time, bin, records)`.
    type Observed = (Vec<(usize, usize)>, Vec<(u64, BinId, usize)>);
    let observed: Vec<Observed> = timelite::execute(Config::process(2), |worker| {
        let index = worker.index();
        let config = MegaphoneConfig::new(2);
        let calls = Rc::new(RefCell::new(Vec::new()));
        let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<(u64, u64)>();
            let calls = calls.clone();
            let output = stateful_unary::<_, (u64, u64), u64, u64, _, _>(
                config,
                &control,
                &data,
                "Reminders",
                |(key, _)| timelite::hashing::hash_code(key),
                move |time, records, _state, notificator| {
                    if *time == 0 {
                        for &(key, reminder) in &records {
                            notificator.notify_at(DUE[(reminder % 3) as usize], (key, reminder));
                        }
                    } else {
                        calls.borrow_mut().push((*time, notificator.bin(), records.len()));
                    }
                    Vec::new()
                },
            );
            (control_input, data_input, output)
        });

        // Time 0: every key schedules its reminders, spread over three times.
        if index == 0 {
            for key in 0..KEYS {
                for reminder in 0..REMINDERS_PER_KEY {
                    data.send((key, reminder));
                }
            }
        }
        let mut epoch = 0;
        let mut advance = |control: &mut InputHandle<u64, ControlInst>,
                           data: &mut InputHandle<u64, (u64, u64)>,
                           to: u64| {
            control.advance_to(to);
            data.advance_to(to);
            worker.step_while(|| output.probe.less_than(&to));
        };
        epoch += 1;
        advance(&mut control, &mut data, epoch);
        let mut wakeups = Vec::new();
        for step in 0..2 * ROUND_TRIPS {
            // Everything to worker 1, then everything back to worker 0, ….
            let host = 1 - (step % 2) as usize;
            if index == 0 {
                control.send(ControlInst::Map(vec![host; config.bins()]));
            }
            // One epoch for the migration, one more so S has run since.
            epoch += 2;
            advance(&mut control, &mut data, epoch);
            wakeups.push((host, output.stats.pending_wakeups()));
        }
        advance(&mut control, &mut data, DUE[2] + 1);
        wakeups.push((0, output.stats.pending_wakeups()));
        drop(control);
        drop(data);
        worker.step_until_complete();
        let calls = calls.borrow().clone();
        (wakeups, calls)
    });

    // The runs in the system: three per bin that has a key.
    let config = MegaphoneConfig::new(2);
    let bin_of_key: Vec<BinId> =
        (0..KEYS).map(|key| config.key_to_bin(timelite::hashing::hash_code(&key))).collect();
    let keys_of = |bin: BinId| bin_of_key.iter().filter(|&&b| b == bin).count();
    let bins: Vec<BinId> = (0..config.bins()).filter(|&bin| keys_of(bin) > 0).collect();
    let runs = DUE.len() * bins.len();

    for (index, (wakeups, _)) in observed.iter().enumerate() {
        let (last, migrations) = wakeups.split_last().expect("observations");
        for (step, &(host, count)) in migrations.iter().enumerate() {
            let expected = if host == index { runs } else { 0 };
            assert_eq!(count, expected, "worker {index} after migration {step} (to worker {host})");
        }
        assert_eq!(last.1, 0, "worker {index}: every wake-up fired");
    }
    // The last migration went to worker 0: it alone fires the reminders, one
    // call per (time, bin), each with the whole run.
    assert!(observed[1].1.is_empty(), "reminders fired where their bin no longer lives");
    let mut calls = observed[0].1.clone();
    calls.sort_unstable();
    let mut expected = Vec::new();
    for (slot, &time) in DUE.iter().enumerate() {
        for &bin in &bins {
            // Reminders 0..50 of every key, split over the three times.
            let per_key = (0..REMINDERS_PER_KEY).filter(|r| (r % 3) as usize == slot).count();
            expected.push((time, bin, per_key * keys_of(bin)));
        }
    }
    assert_eq!(calls, expected);
}

/// The binary stateful operator joins two inputs on shared per-bin state and
/// keeps working across a migration.
#[test]
fn binary_operator_joins_across_migration() {
    let outputs = timelite::execute(Config::process(2), |worker| {
        let index = worker.index();
        let config = MegaphoneConfig::new(3);
        let results = Rc::new(RefCell::new(Vec::new()));
        let results_inner = results.clone();

        let (mut control, mut names, mut values, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (names_input, names) = scope.new_input::<(u64, String)>();
            let (values_input, values) = scope.new_input::<(u64, u64)>();
            let output = stateful_binary::<
                _,
                (u64, String),
                (u64, u64),
                (Option<String>, Vec<u64>),
                (String, u64),
                _,
                _,
                _,
            >(
                config,
                &control,
                &names,
                &values,
                "Join",
                |(key, _)| timelite::hashing::hash_code(key),
                |(key, _)| timelite::hashing::hash_code(key),
                |_time, names, values, state, _notificator| {
                    let mut outputs = Vec::new();
                    for (_key, name) in names {
                        state.0 = Some(name);
                        for value in state.1.drain(..) {
                            outputs.push((state.0.clone().expect("just set"), value));
                        }
                    }
                    for (_key, value) in values {
                        match &state.0 {
                            Some(name) => outputs.push((name.clone(), value)),
                            None => state.1.push(value),
                        }
                    }
                    outputs
                },
            );
            output
                .stream
                .inspect(move |_t, pair| results_inner.borrow_mut().push(pair.clone()));
            (control_input, names_input, values_input, output)
        });

        // Epoch 0: values arrive before names (buffered in state).
        if index == 0 {
            values.send((1, 100));
            values.send((2, 200));
        }
        for handle_time in 1..2u64 {
            control.advance_to(handle_time);
            names.advance_to(handle_time);
            values.advance_to(handle_time);
            worker.step_while(|| output.probe.less_than(&handle_time));
        }

        // Epoch 1: migrate all bins to worker 0 and deliver the names.
        if index == 0 {
            control.send(ControlInst::Map(vec![0; config.bins()]));
            names.send((1, "one".to_string()));
            names.send((2, "two".to_string()));
        }
        control.advance_to(2);
        names.advance_to(2);
        values.advance_to(2);
        worker.step_while(|| output.probe.less_than(&2));

        drop(control);
        drop(names);
        drop(values);
        worker.step_until_complete();
        let collected = results.borrow().clone();
        collected
    });

    let mut all: Vec<(String, u64)> = outputs.into_iter().flatten().collect();
    all.sort();
    assert_eq!(all, vec![("one".to_string(), 100), ("two".to_string(), 200)]);
}

/// A bin that is "migrated" to the worker that already hosts it keeps working
/// (self-migrations are recognized and do not ship state).
#[test]
fn self_migration_is_a_noop() {
    let outputs = run_word_count(1, 3, 6, Some(MigrationStrategy::AllAtOnce), 2);
    let baseline = run_word_count(1, 3, 6, None, 2);
    let mut a = outputs;
    let mut b = baseline;
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

/// Repeated migrations back and forth leave the computation correct.
#[test]
fn repeated_migrations_round_trip() {
    let outputs = timelite::execute(Config::process(2), |worker| {
        let index = worker.index();
        let config = MegaphoneConfig::new(4);
        let results = Rc::new(RefCell::new(Vec::new()));
        let results_inner = results.clone();

        let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<(u64, u64)>();
            let output = state_machine::<_, u64, u64, u64, (u64, u64), _>(
                config,
                &control,
                &data,
                "Counter",
                |key, value, state| {
                    *state += value;
                    (false, vec![(*key, *state)])
                },
            );
            output.stream.inspect(move |_t, r| results_inner.borrow_mut().push(*r));
            (control_input, data_input, output)
        });

        for round in 0..12u64 {
            for key in 0..16u64 {
                data.send((key, 1));
            }
            if index == 0 {
                // Bounce all bins between the two workers every three rounds.
                if round % 3 == 0 {
                    let target = ((round / 3) % 2) as usize;
                    control.send(ControlInst::Map(vec![target; config.bins()]));
                }
            }
            control.advance_to(round + 1);
            data.advance_to(round + 1);
            worker.step_while(|| output.probe.less_than(&(round + 1)));
        }
        drop(control);
        drop(data);
        worker.step_until_complete();
        let collected = results.borrow().clone();
        collected
    });

    let all: Vec<(u64, u64)> = outputs.into_iter().flatten().collect();
    // Every key is incremented once per round by each of 2 workers: final count 24.
    let mut finals: HashMap<u64, u64> = HashMap::new();
    for (key, count) in all {
        let entry = finals.entry(key).or_insert(0);
        *entry = (*entry).max(count);
    }
    assert_eq!(finals.len(), 16);
    assert!(finals.values().all(|&count| count == 24), "some keys lost updates: {:?}", finals);
}

/// A bin moved twice at one time ends up where its last move sends it, as the
/// routing table does: records of that time find it there.
#[test]
fn a_bin_moved_twice_at_one_time_follows_its_last_move() {
    let outputs = timelite::execute(Config::process(2), |worker| {
        let index = worker.index();
        let config = MegaphoneConfig::new(2);
        let results = Rc::new(RefCell::new(Vec::new()));
        let results_inner = results.clone();

        let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<(u64, u64)>();
            let output = state_machine::<_, u64, u64, u64, (u64, u64), _>(
                config,
                &control,
                &data,
                "Counter",
                |key, value, state| {
                    *state += value;
                    (false, vec![(*key, *state)])
                },
            );
            output.stream.inspect(move |_t, r| results_inner.borrow_mut().push(*r));
            (control_input, data_input, output)
        });

        for round in 0..3u64 {
            for key in 0..16u64 {
                data.send((key, 1));
            }
            if index == 0 && round == 1 {
                // Away and straight back, then away for good.
                for bin in 0..config.bins() {
                    let host = bin % 2;
                    control.send(ControlInst::Move(bin, 1 - host));
                    control.send(ControlInst::Move(bin, host));
                }
                control.send(ControlInst::Move(0, 1));
            }
            control.advance_to(round + 1);
            data.advance_to(round + 1);
            worker.step_while(|| output.probe.less_than(&(round + 1)));
        }
        drop(control);
        drop(data);
        worker.step_until_complete();
        let collected = results.borrow().clone();
        collected
    });

    let mut finals: HashMap<u64, u64> = HashMap::new();
    for (key, count) in outputs.into_iter().flatten() {
        let entry = finals.entry(key).or_insert(0);
        *entry = (*entry).max(count);
    }
    assert_eq!(finals.len(), 16);
    assert!(finals.values().all(|&count| count == 6), "some keys lost updates: {finals:?}");
}
