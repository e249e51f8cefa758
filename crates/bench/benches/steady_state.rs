//! Criterion benches of the steady-state cost of Megaphone's mechanisms:
//! key-to-bin mapping, routed fold application, and state encoding. These are
//! the per-record costs behind the overhead experiment (Figures 13–15).
//!
//! `stateful_overhead` is that experiment end to end: one closed-loop
//! hash-count run on `stateful_unary` against the same count on a plain
//! `exchange` + `unary`, on two worker threads. The ratio of the two means is
//! what `stateful_unary`'s F→S record path adds to a record; it is the
//! in-tree twin of the benchmark ledger's `megaphone.operator.overhead_ratio`.
//! `stateful_unary_timers` is the same count over bins that each hold ~2 k
//! far-future reminders: a fold with nothing due must not pay for what is
//! pending, so it tracks `stateful_unary` (plus the one-off scheduling).
//! `two_worker_fold_overlap` is one epoch's round trip on two workers that each
//! owe it a fixed 100 µs fold and *sleep* when `step()` finds nothing, as the
//! `benchmark/` driver does: about one fold and two wake-ups when the folds
//! overlap, about two folds when a worker's "consumed" acknowledgement waits
//! out its own fold before the peer may start (a yield-spinning loop hides the
//! difference, which is why `multi_tenant_steady` and `saturation` never saw it).
//! The wake-ups are mailbox hand-offs — the idle `step()` after an active one
//! waits on the mailbox for the reply — not the loop's 50 µs sleeps (0.14 ms
//! against 0.30 ms an epoch).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use megaphone::prelude::*;
use megaphone::Bin;
use timelite::communication::{allocate, Pact};
use timelite::dataflow::{Capability, InputHandle, ProbeHandle, Stream};
use timelite::hashing::{hash_code, FxHashMap};
use timelite::{Config, Worker};

fn bench_key_to_bin(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_to_bin");
    for shift in [4u32, 12, 20] {
        let config = MegaphoneConfig::new(shift);
        group.bench_with_input(BenchmarkId::from_parameter(shift), &config, |b, config| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(0x9e37_79b9);
                config.key_to_bin(hash_code(&black_box(key)))
            })
        });
    }
    group.finish();
}

fn bench_state_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_count_update");
    for keys in [1_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(keys), &keys, |b, &keys| {
            let mut state: FxHashMap<u64, u64> = FxHashMap::default();
            let mut key = 0u64;
            b.iter(|| {
                key = (key + 1) % keys;
                let count = state.entry(black_box(key)).or_insert(0);
                *count += 1;
                *count
            })
        });
    }
    group.finish();
}

fn bench_bin_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_encode");
    for keys in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(keys), &keys, |b, &keys| {
            let bin: Bin<u64, FxHashMap<u64, u64>, (u64, u64)> = Bin {
                state: (0..keys as u64).map(|k| (k, k * 7)).collect(),
                pending: Vec::new(),
            };
            b.iter(|| black_box(&bin).encode_to_vec().len())
        });
    }
    group.finish();
}

/// Epochs per closed-loop run, and records each worker sends per epoch.
const OVERHEAD_EPOCHS: u64 = 48;
const OVERHEAD_RECORDS: u64 = 2048;
/// Epochs a worker may run ahead of the output probe.
const OVERHEAD_IN_FLIGHT: u64 = 4;

/// Builds a hash count over the key stream and returns its output probe.
type BuildHashCount = fn(&Stream<u64, ControlInst>, &Stream<u64, u64>) -> ProbeHandle<u64>;

/// One closed-loop run of a hash count built by `build` on two workers:
/// uniform keys over 2^16, every worker sending `OVERHEAD_RECORDS` per epoch.
fn hash_count_run(build: BuildHashCount) -> u64 {
    let sent = timelite::execute(Config::process(2), move |worker| {
        let (mut control, mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<u64>();
            (control_input, data_input, build(&control, &data))
        });
        let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(worker.index() as u64 + 1) | 1;
        let mut keys = Vec::new();
        for epoch in 0..OVERHEAD_EPOCHS {
            keys.extend((0..OVERHEAD_RECORDS).map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng & 0xffff
            }));
            input.send_batch(&mut keys);
            control.advance_to(epoch + 1);
            input.advance_to(epoch + 1);
            worker.step_while(|| probe.less_than(&(epoch + 1).saturating_sub(OVERHEAD_IN_FLIGHT)));
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        OVERHEAD_EPOCHS * OVERHEAD_RECORDS
    });
    sent.into_iter().sum()
}

fn stateful_hash_count(
    control: &Stream<u64, ControlInst>,
    data: &Stream<u64, u64>,
) -> ProbeHandle<u64> {
    stateful_unary::<_, u64, FxHashMap<u64, u64>, u64, _, _>(
        MegaphoneConfig::new(8),
        control,
        data,
        "HashCount",
        hash_code,
        |_time, keys, counts, _notificator| {
            let mut outputs = Vec::with_capacity(keys.len());
            for key in keys {
                let count = counts.entry(key).or_insert(0);
                *count += 1;
                outputs.push(*count);
            }
            outputs
        },
    )
    .probe
}

/// Reminders every bin schedules on its first fold, the far-future times they
/// are spread over, and the bit that tells a reminder from a key.
const TIMER_REMINDERS: u64 = 2048;
const TIMER_FAR: u64 = 1 << 40;
const TIMER_MARK: u64 = 1 << 63;

/// [`stateful_hash_count`] over bins that hold resident far-future reminders:
/// nothing comes due before the inputs close, when the reminders are released
/// and skipped.
fn stateful_hash_count_with_timers(
    control: &Stream<u64, ControlInst>,
    data: &Stream<u64, u64>,
) -> ProbeHandle<u64> {
    stateful_unary::<_, u64, FxHashMap<u64, u64>, u64, _, _>(
        MegaphoneConfig::new(8),
        control,
        data,
        "HashCountTimers",
        hash_code,
        |_time, keys, counts, notificator| {
            if counts.is_empty() {
                for reminder in 0..TIMER_REMINDERS {
                    notificator.notify_at(TIMER_FAR + reminder % 4, TIMER_MARK | reminder);
                }
            }
            let mut outputs = Vec::with_capacity(keys.len());
            for key in keys {
                if key & TIMER_MARK != 0 {
                    continue;
                }
                let count = counts.entry(key).or_insert(0);
                *count += 1;
                outputs.push(*count);
            }
            outputs
        },
    )
    .probe
}

fn plain_hash_count(
    _control: &Stream<u64, ControlInst>,
    data: &Stream<u64, u64>,
) -> ProbeHandle<u64> {
    let mut counts = FxHashMap::<u64, u64>::default();
    data.unary(Pact::exchange(|key: &u64| hash_code(key)), "PlainHashCount", move |capability, keys, output| {
        let mut session = output.session(&capability);
        for key in keys {
            let count = counts.entry(key).or_insert(0);
            *count += 1;
            session.give(*count);
        }
    })
    .probe()
}

/// Busy work one worker owes one epoch, and what an idle driver loop sleeps
/// (`benchmark/`'s `IDLE_SLEEP_NANOS`).
const FOLD: Duration = Duration::from_micros(100);
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// Input → exchange-fed operator that holds each time's capability from the
/// first record it receives and "folds" (spins for `FOLD`) once its input
/// frontier has passed the time → probe.
fn fold_dataflow(worker: &mut Worker) -> (InputHandle<u64, u64>, ProbeHandle<u64>) {
    worker.dataflow::<u64, _, _>(|scope| {
        let (input, stream) = scope.new_input::<u64>();
        let probe = stream
            .unary_frontier(Pact::exchange(|key: &u64| *key), "Fold", |_capability| {
                let mut stash: Vec<Capability<u64>> = Vec::new();
                move |input, output, frontier| {
                    input.for_each(|cap, _records| {
                        if stash.iter().all(|held| held.time() != cap.time()) {
                            stash.push(cap);
                        }
                    });
                    stash.retain(|cap| {
                        let open = frontier.less_equal(cap.time());
                        if !open {
                            let start = Instant::now();
                            while start.elapsed() < FOLD {
                                std::hint::spin_loop();
                            }
                            output.session(cap).give(*cap.time());
                        }
                        open
                    });
                }
            })
            .probe();
        (input, probe)
    })
}

/// One epoch on one worker: a record for each worker, then step — sleeping
/// when there is nothing to do — until the probe passes or `stop` is raised.
fn fold_epoch(
    worker: &mut Worker,
    input: &mut InputHandle<u64, u64>,
    probe: &ProbeHandle<u64>,
    stop: &AtomicBool,
) {
    let epoch = *input.time();
    input.send(0);
    input.send(1);
    input.advance_to(epoch + 1);
    while probe.less_than(&(epoch + 1)) && !stop.load(Ordering::SeqCst) {
        if !worker.step() {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Epoch round trip on two workers, one of them the measuring thread. An
/// epoch cannot close before both inputs have left it, so the free-running
/// peer stays in lockstep with the measured iterations.
fn bench_fold_overlap(b: &mut criterion::Bencher) {
    let mut allocs = allocate(2);
    let stop = Arc::new(AtomicBool::new(false));
    let peer = std::thread::spawn({
        let alloc = allocs.pop().expect("two allocators");
        let stop = Arc::clone(&stop);
        move || {
            let mut worker = Worker::new(alloc);
            let (mut input, probe) = fold_dataflow(&mut worker);
            while !stop.load(Ordering::SeqCst) {
                fold_epoch(&mut worker, &mut input, &probe, &stop);
            }
            drop(input);
            worker.step_until_complete();
        }
    });
    let mut worker = Worker::new(allocs.pop().expect("two allocators"));
    let (mut input, probe) = fold_dataflow(&mut worker);
    b.iter(|| fold_epoch(&mut worker, &mut input, &probe, &stop));
    stop.store(true, Ordering::SeqCst);
    drop(input);
    worker.step_until_complete();
    peer.join().expect("peer worker panicked");
}

fn bench_stateful_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("stateful_overhead");
    group.bench_function("stateful_unary", |b| b.iter(|| hash_count_run(stateful_hash_count)));
    group.bench_function("stateful_unary_timers", |b| {
        b.iter(|| hash_count_run(stateful_hash_count_with_timers))
    });
    group.bench_function("exchange_unary", |b| b.iter(|| hash_count_run(plain_hash_count)));
    group.bench_function("two_worker_fold_overlap", bench_fold_overlap);
    group.finish();
}

criterion_group!(
    benches,
    bench_key_to_bin,
    bench_state_update,
    bench_bin_encode,
    bench_stateful_overhead
);
criterion_main!(benches);
