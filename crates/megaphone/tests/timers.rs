//! Model-based test of the timer path — time-run pending records, one wake-up
//! per (bin, time) run — against a naive `Vec<(time, record)>` reference.
//!
//! A seeded script (the build is offline, so no `proptest`) drives two
//! "workers", each a real [`BinStore`] plus the [`WakeupQueue`] of its `S`
//! operator, through what `stateful_unary` does with them: per closed time,
//! wake the bins the queue names, deliver their due runs ahead of the time's
//! fresh records ([`take_due`]), let the fold post-date records through a real
//! [`Notificator`] — to past, present, future and repeated times — and, in
//! between, migrate bins through the real chunked extract → fragments → install
//! path, some of them under a capability later than runs they carry (a
//! *clamped* install). The reference keeps each bin's post-dated records as one
//! flat list it scans on every visit.
//!
//! Checked: every `fold` call — its time, its bin, its records in order — is
//! the reference's (so each record is delivered exactly once, at the same
//! logical time, due records in (due time, scheduling) order ahead of fresh
//! ones); after every operation the runs of every hosted bin ascend strictly
//! and are non-empty, and no worker holds more wake-ups than its bins have runs.
//!
//! The same script also runs on a live two-worker `stateful_unary` in one
//! process, whose migrations hand bins over with their pending runs, and a
//! round trip of every bin leaves each worker holding the wake-ups it held
//! before.

use std::cell::RefCell;
use std::rc::Rc;

use megaphone::bins::take_due;
use megaphone::prelude::*;
use megaphone::{BinStore, WakeupQueue};
use timelite::communication::shared_changes;
use timelite::dataflow::Capability;
use timelite::prelude::*;

const BIN_SHIFT: u32 = 3;
const BINS: usize = 1 << BIN_SHIFT;
const WORKERS: usize = 2;
const STEPS: u64 = 48;

/// A deterministic xorshift64* generator, reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A value in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// What the fold does with `record` at `time`, shared by both sides: up to two
/// post-dated records, as `(requested time, new record)`. Requests reach two
/// times back (delivered at `time` instead) and five ahead, so times repeat
/// within and across bins; a record's top byte counts its generation, which
/// bounds the cascade.
fn fold_logic(record: u64, time: u64) -> Vec<(u64, u64)> {
    let generation = record >> 56;
    if generation >= 3 {
        return Vec::new();
    }
    let mut rng = Rng((record.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ time) | 1);
    (0..rng.below(3))
        .map(|child| {
            let requested = (time + rng.below(8)).saturating_sub(2);
            let id = (record & 0x00ff_ffff_ffff_ffff).wrapping_mul(3) + child + 1;
            (requested, ((generation + 1) << 56) | (id & 0x00ff_ffff_ffff_ffff))
        })
        .collect()
}

/// One `fold` call: `(time, bin, records in delivery order)`.
type Call = (u64, BinId, Vec<u64>);

/// One worker of the system under test.
struct Worker {
    store: BinStore<u64, u64, u64>,
    wakeups: WakeupQueue<u64>,
}

/// The system under test: real stores, real wake-up queues, real capabilities.
struct System {
    workers: Vec<Worker>,
    host: Vec<usize>,
    mint: Box<dyn Fn(u64) -> Capability<u64>>,
    calls: Vec<Call>,
}

impl System {
    fn new(config: &MegaphoneConfig) -> Self {
        let internals = Rc::new(RefCell::new(vec![shared_changes::<u64>()]));
        System {
            workers: (0..WORKERS)
                .map(|index| Worker {
                    store: BinStore::new(config, index, WORKERS),
                    wakeups: WakeupQueue::new(),
                })
                .collect(),
            host: config.initial_assignment(WORKERS),
            mint: Box::new(move |time| Capability::mint(time, internals.clone())),
            calls: Vec::new(),
        }
    }

    /// Processes `time` the way `S` does: rounds of (woken ∪ fresh) bins in
    /// ascending order until no wake-up for `time` is left — a fold that
    /// post-dates to the time being processed is called once more.
    fn step(&mut self, time: u64, mut fresh: Vec<Vec<u64>>) {
        let capability = (self.mint)(time);
        let mut first_round = true;
        loop {
            let mut any = false;
            for (index, worker) in self.workers.iter_mut().enumerate() {
                let mut touched: Vec<BinId> = Vec::new();
                let skipped = worker.wakeups.next_time().is_some_and(|next| *next < time);
                assert!(!skipped, "a wake-up fired late: its time was skipped");
                if let Some((held, bins)) = worker.wakeups.take_time(&time) {
                    assert_eq!(held.time(), &time);
                    touched.extend(bins);
                }
                if first_round {
                    let arrived = |&bin: &BinId| self.host[bin] == index && !fresh[bin].is_empty();
                    touched.extend((0..BINS).filter(arrived));
                }
                touched.sort_unstable();
                touched.dedup();
                for bin in touched {
                    any = true;
                    // A wake-up of a bin that has left is dropped with it;
                    // one that slipped through would find nothing hosted.
                    let contents = worker.store.try_bin_mut(bin).expect("woken bins are hosted");
                    let records =
                        take_due(&mut contents.pending, &time, std::mem::take(&mut fresh[bin]));
                    if records.is_empty() {
                        continue;
                    }
                    let mut notificator = Notificator::new(
                        &time,
                        bin,
                        &mut contents.pending,
                        &mut worker.wakeups,
                        &capability,
                    );
                    for &record in &records {
                        for (requested, child) in fold_logic(record, time) {
                            notificator.notify_at(requested, child);
                        }
                    }
                    self.calls.push((time, bin, records));
                }
            }
            first_round = false;
            if !any {
                return;
            }
        }
    }

    /// Migrates `bin` to the other worker in `chunk`-byte fragments, installing
    /// it under a capability for `control_time`.
    fn migrate(&mut self, bin: BinId, control_time: u64, chunk: usize) {
        let source = self.host[bin];
        let target = 1 - source;
        let mut extraction = self.workers[source].store.extract_chunked(bin).expect("hosted");
        loop {
            let (bytes, last) = extraction.next_fragment(chunk);
            assert_eq!(self.workers[target].store.install_fragment(bin, &bytes, last), last);
            if last {
                break;
            }
        }
        self.workers[source].store.recycle(extraction);
        self.workers[source].wakeups.remove_bins(|departed| departed == bin);
        let capability = (self.mint)(control_time);
        let Worker { store, wakeups } = &mut self.workers[target];
        wakeups.register_runs(bin, &store.try_bin(bin).expect("installed").pending, &capability);
        self.host[bin] = target;
    }

    fn check_invariants(&self, context: &str) {
        for (index, worker) in self.workers.iter().enumerate() {
            let mut runs = 0;
            for (bin, contents) in worker.store.hosted() {
                assert_eq!(self.host[bin], index);
                runs += contents.pending.len();
                assert!(
                    contents.pending.iter().all(|(_, run)| !run.is_empty()),
                    "{context}: bin {bin} holds an empty run"
                );
                assert!(
                    contents.pending.windows(2).all(|pair| pair[0].0 < pair[1].0),
                    "{context}: bin {bin}'s runs do not ascend strictly"
                );
            }
            assert!(
                worker.wakeups.len() <= runs,
                "{context}: worker {index} holds {} wake-ups for {runs} runs",
                worker.wakeups.len()
            );
        }
    }
}

/// The reference: per bin, the post-dated records as one flat, unsorted list.
struct Reference {
    pending: Vec<Vec<(u64, u64)>>,
    /// The earliest time each bin can be visited: the control time of its last
    /// migration (records due before it are delivered at it).
    floor: Vec<u64>,
    calls: Vec<Call>,
}

impl Reference {
    fn step(&mut self, time: u64, mut fresh: Vec<Vec<u64>>) {
        loop {
            let mut any = false;
            for (bin, fresh) in fresh.iter_mut().enumerate() {
                if self.floor[bin] > time {
                    continue;
                }
                // The scan the run list replaces: every pending record, every visit.
                let (mut due, rest): (Vec<_>, Vec<_>) =
                    self.pending[bin].drain(..).partition(|&(at, _)| at <= time);
                self.pending[bin] = rest;
                due.sort_by_key(|&(at, _)| at);
                let mut records: Vec<u64> = due.into_iter().map(|(_, record)| record).collect();
                records.append(fresh);
                if records.is_empty() {
                    continue;
                }
                any = true;
                for &record in &records {
                    for (requested, child) in fold_logic(record, time) {
                        self.pending[bin].push((requested.max(time), child));
                    }
                }
                self.calls.push((time, bin, records));
            }
            if !any {
                return;
            }
        }
    }
}

#[test]
fn timer_path_matches_a_naive_pending_list() {
    for seed in 1..=64u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let config = MegaphoneConfig::new(BIN_SHIFT);
        let mut system = System::new(&config);
        let mut reference =
            Reference { pending: vec![Vec::new(); BINS], floor: vec![0; BINS], calls: Vec::new() };
        let mut next_record = 0u64;

        for time in 0..STEPS {
            // Migrations ahead of the time: some at the time itself, some at
            // a later control time, which clamps every run due before it.
            for _ in 0..rng.below(3) {
                let bin = rng.below(BINS as u64) as usize;
                if time >= STEPS / 2 || reference.floor[bin] > time + 2 {
                    continue;
                }
                let control_time = time.max(reference.floor[bin]) + rng.below(4);
                let chunk = 1 + rng.below(96) as usize;
                system.migrate(bin, control_time, chunk);
                reference.floor[bin] = control_time;
                system.check_invariants(&format!("seed {seed}, migration of bin {bin} at {time}"));
            }
            // Fresh records, per bin, for a few bins that can be visited at
            // this time.
            let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); BINS];
            for (bin, fresh) in fresh.iter_mut().enumerate() {
                if time < STEPS / 2 && reference.floor[bin] <= time && rng.below(3) == 0 {
                    fresh.extend((0..1 + rng.below(3)).map(|_| {
                        next_record += 1;
                        next_record
                    }));
                }
            }
            system.step(time, fresh.clone());
            reference.step(time, fresh);
            system.check_invariants(&format!("seed {seed}, time {time}"));
        }

        assert!(
            reference.pending.iter().all(Vec::is_empty),
            "seed {seed}: the script must run until every record is delivered"
        );
        for worker in &system.workers {
            assert!(worker.wakeups.is_empty(), "seed {seed}: wake-ups outlived their runs");
        }
        // Calls of one (time, bin) keep their order; across bins of one round
        // the system goes worker by worker, the reference bin by bin.
        system.calls.sort_by_key(|call| (call.0, call.1));
        reference.calls.sort_by_key(|call| (call.0, call.1));
        assert!(reference.calls.len() > 100, "seed {seed}: the script delivered too little");
        assert_eq!(system.calls, reference.calls, "seed {seed}");
    }
}

/// The records `(bin, record)` of the live tests carry their bin in the key's
/// top bits, which pick the bin.
fn bin_key(&(bin, _): &(u64, u64)) -> u64 {
    bin << (64 - BIN_SHIFT)
}

/// The timer script on a live two-worker dataflow in one process: worker 0
/// feeds the fresh records of every time and moves up to two bins to the
/// other worker ahead of them, so bins leave with runs pending. Returns the
/// reference's fresh records per time and the dataflow's `fold` calls, in
/// call order per worker.
fn live_run(seed: u64) -> (Vec<Vec<Vec<u64>>>, Vec<Call>) {
    let script = move || {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut host = MegaphoneConfig::new(BIN_SHIFT).initial_assignment(WORKERS);
        let mut next_record = 0u64;
        (0..STEPS)
            .map(|time| {
                let mut moves = Vec::new();
                if time < STEPS / 2 {
                    for _ in 0..rng.below(3) {
                        let bin = rng.below(BINS as u64) as usize;
                        host[bin] = 1 - host[bin];
                        moves.push(ControlInst::Move(bin, host[bin]));
                    }
                }
                let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); BINS];
                for fresh in fresh.iter_mut() {
                    if time < STEPS / 2 && rng.below(3) == 0 {
                        fresh.extend((0..1 + rng.below(3)).map(|_| {
                            next_record += 1;
                            next_record
                        }));
                    }
                }
                (moves, fresh)
            })
            .collect::<Vec<_>>()
    };
    let outputs = timelite::execute(Config::process(WORKERS), move |worker| {
        let index = worker.index();
        let calls = Rc::new(RefCell::new(Vec::new()));
        let calls_inner = calls.clone();
        let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<(u64, u64)>();
            let output = stateful_unary::<_, (u64, u64), u64, (u64, Vec<u64>), _, _>(
                MegaphoneConfig::new(BIN_SHIFT),
                &control,
                &data,
                "Timers",
                bin_key,
                |&time, records, _state, notificator| {
                    let bin = notificator.bin() as u64;
                    let mut delivered = Vec::with_capacity(records.len());
                    for (_, record) in records {
                        for (requested, child) in fold_logic(record, time) {
                            notificator.notify_at(requested, (bin, child));
                        }
                        delivered.push(record);
                    }
                    vec![(bin, delivered)]
                },
            );
            output.stream.inspect(move |&time, (bin, records)| {
                calls_inner.borrow_mut().push((time, *bin as BinId, records.clone()))
            });
            (control_input, data_input, output)
        });
        for (time, (moves, fresh)) in script().into_iter().enumerate() {
            if index == 0 {
                for instruction in moves {
                    control.send(instruction);
                }
                for (bin, records) in fresh.into_iter().enumerate() {
                    for record in records {
                        data.send((bin as u64, record));
                    }
                }
            }
            let next = time as u64 + 1;
            control.advance_to(next);
            data.advance_to(next);
            worker.step_while(|| output.probe.less_than(&next));
        }
        drop(control);
        drop(data);
        worker.step_until_complete();
        let calls = calls.borrow().clone();
        calls
    });
    let fresh = script().into_iter().map(|(_moves, fresh)| fresh).collect();
    (fresh, outputs.into_iter().flatten().collect())
}

#[test]
fn handed_over_timers_match_a_naive_pending_list() {
    for seed in 1..=8u64 {
        let (fresh, mut calls) = live_run(seed);
        // Migrations within the process never delay a bin: no floors.
        let mut reference =
            Reference { pending: vec![Vec::new(); BINS], floor: vec![0; BINS], calls: Vec::new() };
        for (time, fresh) in fresh.into_iter().enumerate() {
            reference.step(time as u64, fresh);
        }
        assert!(
            reference.pending.iter().all(Vec::is_empty),
            "seed {seed}: the script must run until every record is delivered"
        );
        // A (time, bin) is folded on one worker, whose calls keep their order.
        calls.sort_by_key(|call| (call.0, call.1));
        reference.calls.sort_by_key(|call| (call.0, call.1));
        assert!(reference.calls.len() > 50, "seed {seed}: the script delivered too little");
        assert_eq!(calls, reference.calls, "seed {seed}");
    }
}

#[test]
fn a_handover_round_trip_keeps_the_wake_up_count() {
    /// The time every record post-dates one child to, plus `record % 3`.
    const FAR: u64 = 1_000;
    let config = MegaphoneConfig::new(BIN_SHIFT);
    let results = timelite::execute(Config::process(WORKERS), move |worker| {
        let index = worker.index();
        let delivered = Rc::new(RefCell::new(Vec::new()));
        let delivered_inner = delivered.clone();
        let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<(u64, u64)>();
            let output = stateful_unary::<_, (u64, u64), u64, (u64, u64), _, _>(
                config,
                &control,
                &data,
                "RoundTrip",
                bin_key,
                |&time, records, _state, notificator| {
                    for &(bin, record) in &records {
                        if time < FAR {
                            notificator.notify_at(FAR + record % 3, (bin, record + 100));
                        }
                    }
                    records
                },
            );
            output
                .stream
                .inspect(move |&time, &record| delivered_inner.borrow_mut().push((time, record)));
            (control_input, data_input, output)
        });
        // Time 0: three records per bin, each post-dating a child to one of
        // three far times.
        if index == 0 {
            for bin in 0..BINS as u64 {
                for record in 0..3 {
                    data.send((bin, bin * 10 + record));
                }
            }
        }
        // Every bin moves to the other worker at time 1, and back at time 2.
        let assignment = config.initial_assignment(WORKERS);
        let mut wake_ups = Vec::new();
        for time in 1..=4u64 {
            control.advance_to(time);
            data.advance_to(time);
            worker.step_while(|| output.probe.less_than(&time));
            wake_ups.push(output.stats.pending_wakeups());
            if index == 0 && time < 3 {
                let target = |bin: usize| (assignment[bin] + time as usize) % WORKERS;
                control.send(ControlInst::Map((0..BINS).map(target).collect()));
            }
        }

        drop(control);
        drop(data);
        worker.step_until_complete();
        let delivered = delivered.borrow().clone();
        (wake_ups, delivered)
    });

    for (index, (wake_ups, _)) in results.iter().enumerate() {
        // Four bins per worker, three runs each.
        assert_eq!(wake_ups[0], 12, "worker {index}: wake-ups before the moves");
        assert_eq!(wake_ups[1], 12, "worker {index}: wake-ups while holding the other's bins");
        assert_eq!(
            wake_ups.last(),
            Some(&wake_ups[0]),
            "worker {index}: a round trip changed the wake-up count: {wake_ups:?}"
        );
    }
    let mut delivered: Vec<(u64, (u64, u64))> =
        results.into_iter().flat_map(|(_, delivered)| delivered).collect();
    delivered.sort_unstable();
    let mut expected = Vec::new();
    for bin in 0..BINS as u64 {
        for record in bin * 10..bin * 10 + 3 {
            expected.push((0, (bin, record)));
            expected.push((FAR + record % 3, (bin, record + 100)));
        }
    }
    expected.sort_unstable();
    assert_eq!(delivered, expected, "every post-dated record is delivered once, on time");
}
