//! Unit costs of single layers: each public function timed in isolation, the
//! median of five repeats of at least `--seconds / 20` seconds each.
//!
//! These are not gated and not part of a `--workload` run; they size the
//! per-record budget beneath `capacity_eps` (the `ledger.*` rows).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use megaphone::codec::{decode_fragments, encode_fragments};
use megaphone::prelude::*;
use megaphone::storage::{Wal, WalRecord};
use megaphone::{Bin, BinStore, RoutingTable};
use nexmark::{Event, NexmarkConfig, NexmarkGenerator};
use timelite::communication::free_addresses;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;
use timelite::Codec;

use crate::driver::{pump, Limit};
use crate::spec;
use crate::stats::median;
use crate::workloads::{xorshift, Built, KeyCount, KeySource, Nexmark, Workload};
use crate::{Args, Peer};

const REPEATS: usize = 5;
const MB: f64 = 1024.0 * 1024.0;

/// The layer results, in print order.
#[derive(Default)]
struct Ledger {
    rows: Vec<(String, f64, &'static str, usize)>,
    values: BTreeMap<String, f64>,
}

impl Ledger {
    fn add(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let value = median(samples);
        println!("{name:<44} {value:>16.4} {unit:<8} n={}", samples.len());
        self.rows.push((name.to_string(), value, unit, samples.len()));
        self.values.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

/// Nanoseconds per call of `op`, repeated for at least `budget`.
fn per_call(budget: Duration, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..64 {
            op();
        }
        calls += 64;
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

fn repeat(mut sample: impl FnMut() -> f64) -> Vec<f64> {
    (0..REPEATS).map(|_| sample()).collect()
}

/// The hash-count workload (its own bin count) over 2^20 keys, 4 096 keys
/// per epoch and worker.
fn hash_count() -> KeyCount {
    let bin_shift = spec::find("hashcount_durable").expect("a workload of this benchmark").bin_shift;
    KeyCount { dense: false, bin_shift, domain: 1 << 20, per_tick: (4096 * spec::WORKERS) as u64 }
}

/// A dataflow over `hash_count`'s key stream that is not one of the
/// benchmark's workloads.
#[derive(Clone, Copy)]
struct KeyFlow(BuildKeyFlow);

type BuildKeyFlow = fn(&Stream<u64, ControlInst>, &Stream<u64, u64>) -> ProbeHandle<u64>;

impl Workload for KeyFlow {
    type Rec = u64;
    type Source = KeySource;

    fn build(&self, control: &Stream<u64, ControlInst>, data: &Stream<u64, u64>, _native: bool) -> Built {
        Built { probe: (self.0)(control, data), stats: None, storage: Vec::new(), tally: Rc::default() }
    }

    fn source(&self, index: usize, peers: usize, seed: u64) -> KeySource {
        hash_count().source(index, peers, seed)
    }

    fn preload_epochs(&self) -> u64 {
        0
    }
}

/// Records per second of `flow` on two worker threads for `budget`.
fn key_rate(flow: impl Workload, budget: Duration) -> f64 {
    pump(flow, Config::process(spec::WORKERS), false, 1, Limit::Time(budget))
}

fn exchange_probe(_control: &Stream<u64, ControlInst>, data: &Stream<u64, u64>) -> ProbeHandle<u64> {
    data.exchange(|key| *key).probe()
}

/// The hash-count fold on a plain exchange + unary operator.
fn plain_hash_count(_control: &Stream<u64, ControlInst>, data: &Stream<u64, u64>) -> ProbeHandle<u64> {
    let mut state = FxHashMap::<u64, u64>::default();
    data.unary(Pact::exchange(|key: &u64| hash_code(key)), "PlainHashCount", move |capability, keys, output| {
        let mut session = output.session(&capability);
        for key in keys {
            let count = state.entry(key).or_insert(0);
            *count += 1;
            session.give(*count);
        }
    })
    .probe()
}

/// A `stateful_unary` fold that post-dates each fresh record by one tick
/// (`POST_DATE`) or does nothing: the difference is the notificator's cost.
fn notify<const POST_DATE: bool>(control: &Stream<u64, ControlInst>, data: &Stream<u64, u64>) -> ProbeHandle<u64> {
    const SEEN: u64 = 1 << 63;
    stateful_unary::<_, u64, u64, u64, _, _>(
        MegaphoneConfig::new(8),
        control,
        data,
        "Notify",
        |key| hash_code(&(*key & !SEEN)),
        move |time, records, _state, notificator| {
            for record in records {
                if POST_DATE && record & SEEN == 0 {
                    notificator.notify_at(*time + 1, record | SEEN);
                }
            }
            Vec::new()
        },
    )
    .probe
}

/// The dataflows a layers peer process (cluster process 1) can mirror.
pub fn peer_main(args: &Args) -> Result<(), String> {
    let addresses = args.addresses("--addresses").ok_or("--addresses missing")?;
    let budget = Duration::from_secs_f64(args.parsed("--budget", 1.0)?);
    let config = Config::cluster(1, 1, addresses);
    match args.value("--layers-peer") {
        Some("net") => {
            pump(KeyFlow(exchange_probe), config, false, 1, Limit::Time(budget));
        }
        Some("empty") => {
            empty_epochs(config, budget);
        }
        other => return Err(format!("unknown layers peer {other:?}")),
    }
    Ok(())
}

/// Runs `lead` in this process as cluster process 0 while a spawned copy of
/// this binary mirrors it as process 1.
fn with_peer<R>(which: &str, budget: Duration, lead: impl FnOnce(Config) -> R) -> Result<R, String> {
    let addresses = free_addresses(2);
    let peer = Peer::spawn(&[
        "--layers-peer".into(),
        which.into(),
        "--addresses".into(),
        addresses.join(","),
        "--budget".into(),
        budget.as_secs_f64().to_string(),
    ]);
    let result = lead(Config::cluster(0, 1, addresses));
    peer.finish()?;
    Ok(result)
}

/// Microseconds per zero-record epoch: `advance_to`, then step until the probe
/// passes, on every worker in lock step.
fn empty_epochs(config: Config, budget: Duration) -> f64 {
    let costs = timelite::execute(config, move |worker| {
        let (mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            (input, stream.exchange(|key| *key).probe())
        });
        let started = Instant::now();
        let mut epoch = 0u64;
        while started.elapsed() < budget {
            epoch += 1;
            input.advance_to(epoch);
            worker.step_while(|| probe.less_than(&epoch));
        }
        let cost = started.elapsed().as_nanos() as f64 / 1e3 / epoch as f64;
        drop(input);
        worker.step_until_complete();
        (worker.index(), cost)
    });
    costs.into_iter().find(|(index, _)| *index == 0).map_or(0.0, |(_, cost)| cost)
}

fn codec_layers(ledger: &mut Ledger, budget: Duration) {
    let keys: Vec<u64> = (0..1024u64).map(|key| key.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let generator = NexmarkGenerator::new(NexmarkConfig::with_rate(800_000));
    let events: Vec<Event> = generator.events(0..1024).collect();
    let key_bytes = keys.encode_to_vec();
    let event_bytes = events.encode_to_vec();
    let rate = |bytes: usize, nanos: f64| bytes as f64 / MB / (nanos / 1e9);
    ledger.add(
        "timelite.codec.encode_u64_mb_s",
        "MB/s",
        &repeat(|| rate(key_bytes.len(), per_call(budget, || drop(black_box(black_box(&keys).encode_to_vec()))))),
    );
    ledger.add(
        "timelite.codec.decode_u64_mb_s",
        "MB/s",
        &repeat(|| {
            rate(
                key_bytes.len(),
                per_call(budget, || drop(black_box(Vec::<u64>::decode_from_slice(black_box(&key_bytes))))),
            )
        }),
    );
    ledger.add(
        "timelite.codec.encode_event_mb_s",
        "MB/s",
        &repeat(|| rate(event_bytes.len(), per_call(budget, || drop(black_box(black_box(&events).encode_to_vec()))))),
    );
    ledger.add(
        "timelite.codec.decode_event_mb_s",
        "MB/s",
        &repeat(|| {
            rate(
                event_bytes.len(),
                per_call(budget, || drop(black_box(Vec::<Event>::decode_from_slice(black_box(&event_bytes))))),
            )
        }),
    );
    ledger.add("timelite.codec.event_bytes", "B", &[event_bytes.len() as f64 / events.len() as f64]);
}

fn engine_layers(ledger: &mut Ledger, budget: Duration) -> Result<(), String> {
    let workers = spec::WORKERS as f64;
    let rates = repeat(|| key_rate(KeyFlow(exchange_probe), budget));
    ledger.add("timelite.exchange.records_per_s", "1/s", &rates);
    ledger.add(
        "timelite.exchange.ns_per_record",
        "ns",
        &rates.iter().map(|rate| workers * 1e9 / rate).collect::<Vec<_>>(),
    );

    let mut net_rates = Vec::new();
    for _ in 0..REPEATS {
        net_rates.push(with_peer("net", budget, |config| {
            pump(KeyFlow(exchange_probe), config, false, 1, Limit::Time(budget))
        })?);
    }
    ledger.add(
        "timelite.net.ns_per_record",
        "ns",
        &net_rates.iter().map(|rate| workers * 1e9 / rate).collect::<Vec<_>>(),
    );
    // Half of the uniformly routed 8-byte records cross the socket.
    ledger.add("timelite.net.mb_s", "MB/s", &net_rates.iter().map(|rate| rate * 0.5 * 8.0 / MB).collect::<Vec<_>>());

    ledger.add(
        "timelite.progress.empty_epoch_us",
        "us",
        &repeat(|| empty_epochs(Config::process(spec::WORKERS), budget)),
    );
    let mut net_epochs = Vec::new();
    for _ in 0..REPEATS {
        net_epochs.push(with_peer("empty", budget, |config| empty_epochs(config, budget))?);
    }
    ledger.add("timelite.progress.empty_epoch_net_us", "us", &net_epochs);

    ledger.add(
        "timelite.worker.idle_step_ns",
        "ns",
        &repeat(|| {
            timelite::execute_single(move |worker| {
                let (input, _probe) = worker.dataflow::<u64, _, _>(|scope| {
                    let (input, stream) = scope.new_input::<u64>();
                    (input, stream.probe())
                });
                while worker.step() {}
                let cost = per_call(budget, || {
                    black_box(worker.step());
                });
                drop(input);
                cost
            })
        }),
    );
    Ok(())
}

/// One bin's worth of the key-count workloads' state.
fn dense_state() -> Vec<u64> {
    (0..1u64 << 18).collect()
}

fn map_state() -> FxHashMap<u64, u64> {
    (0..1u64 << 14).map(|key| (key.wrapping_mul(0x9e37_79b9_7f4a_7c15), key)).collect()
}

/// Extracts bin 0 fragment by fragment and installs it back, `rounds` times;
/// returns `(extract MB/s, install MB/s, longest next_fragment call in us)`.
fn bin_round_trips<S>(state: S, budget: Duration) -> (f64, f64, f64)
where
    S: Default + ChunkedCodec + 'static,
{
    let config = MegaphoneConfig::new(4);
    let mut store = BinStore::<u64, S, u64>::new(&config, 0, 1);
    store.bin_mut(0).state = state;
    let (mut extract, mut install, mut bytes) = (Duration::ZERO, Duration::ZERO, 0usize);
    let mut longest = Duration::ZERO;
    let started = Instant::now();
    while started.elapsed() < budget {
        let mut fragments = Vec::new();
        let begun = Instant::now();
        let mut extraction = store.extract_chunked(0).expect("bin 0 is hosted");
        loop {
            let call = Instant::now();
            let (fragment, last) = extraction.next_fragment(config.chunk_bytes);
            longest = longest.max(call.elapsed());
            fragments.push(fragment);
            if last {
                break;
            }
        }
        store.recycle(extraction);
        extract += begun.elapsed();
        let begun = Instant::now();
        let count = fragments.len();
        for (at, fragment) in fragments.iter().enumerate() {
            store.install_fragment(0, fragment, at + 1 == count);
        }
        install += begun.elapsed();
        bytes += fragments.iter().map(Vec::len).sum::<usize>();
    }
    let rate = |spent: Duration| bytes as f64 / MB / spent.as_secs_f64();
    (rate(extract), rate(install), longest.as_nanos() as f64 / 1e3)
}

/// `encode_fragments` / `decode_fragments` of `state`, in MB/s each.
fn fragment_codec<S: ChunkedCodec + Clone>(state: S, budget: Duration) -> (f64, f64) {
    let mut value = state;
    let (mut encode, mut decode, mut bytes) = (Duration::ZERO, Duration::ZERO, 0usize);
    let started = Instant::now();
    while started.elapsed() < budget {
        let begun = Instant::now();
        let fragments = encode_fragments(value, 64 << 10);
        encode += begun.elapsed();
        let begun = Instant::now();
        value = decode_fragments(&fragments);
        decode += begun.elapsed();
        bytes += fragments.iter().map(Vec::len).sum::<usize>();
    }
    black_box(&value);
    (bytes as f64 / MB / encode.as_secs_f64(), bytes as f64 / MB / decode.as_secs_f64())
}

fn megaphone_layers(ledger: &mut Ledger, budget: Duration) {
    let config = MegaphoneConfig::new(8);
    let mut table = RoutingTable::<u64>::new(config.initial_assignment(spec::WORKERS));
    table.insert(5, &ControlInst::Move(3, 1));
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    ledger.add(
        "megaphone.routing.lookup_ns",
        "ns",
        &repeat(|| {
            per_call(budget, || {
                let bin = config.key_to_bin(xorshift(&mut rng));
                black_box(table.lookup(black_box(&7), bin));
            })
        }),
    );

    let dense: Vec<(f64, f64, f64)> = (0..REPEATS).map(|_| bin_round_trips(dense_state(), budget)).collect();
    let map: Vec<(f64, f64, f64)> = (0..REPEATS).map(|_| bin_round_trips(map_state(), budget)).collect();
    let column =
        |rows: &[(f64, f64, f64)], pick: fn(&(f64, f64, f64)) -> f64| rows.iter().map(pick).collect::<Vec<_>>();
    ledger.add("megaphone.bins.extract_vec_mb_s", "MB/s", &column(&dense, |row| row.0));
    ledger.add("megaphone.bins.install_vec_mb_s", "MB/s", &column(&dense, |row| row.1));
    ledger.add("megaphone.bins.extract_map_mb_s", "MB/s", &column(&map, |row| row.0));
    ledger.add("megaphone.bins.install_map_mb_s", "MB/s", &column(&map, |row| row.1));
    let longest: Vec<f64> = dense.iter().chain(map.iter()).map(|row| row.2).collect();
    ledger.add("megaphone.bins.fragment_max_us", "us", &longest);

    let codec: Vec<(f64, f64)> = (0..REPEATS).map(|_| fragment_codec(dense_state(), budget)).collect();
    ledger.add("megaphone.codec.fragment_encode_mb_s", "MB/s", &codec.iter().map(|row| row.0).collect::<Vec<_>>());
    ledger.add("megaphone.codec.fragment_decode_mb_s", "MB/s", &codec.iter().map(|row| row.1).collect::<Vec<_>>());

    // Hash-count through stateful_unary against the same count on a plain
    // exchange + unary operator (paper Figs 13-15).
    let megaphone = repeat(|| key_rate(hash_count(), budget));
    let plain = repeat(|| key_rate(KeyFlow(plain_hash_count), budget));
    let workers = spec::WORKERS as f64;
    ledger.add(
        "megaphone.operator.hashcount_ns_per_record",
        "ns",
        &megaphone.iter().map(|rate| workers * 1e9 / rate).collect::<Vec<_>>(),
    );
    ledger.add(
        "megaphone.operator.plain_ns_per_record",
        "ns",
        &plain.iter().map(|rate| workers * 1e9 / rate).collect::<Vec<_>>(),
    );
    ledger.add("megaphone.operator.overhead_ratio", "ratio", &[median(&plain) / median(&megaphone)]);

    let with = repeat(|| key_rate(KeyFlow(notify::<true>), budget));
    let without = repeat(|| key_rate(KeyFlow(notify::<false>), budget));
    ledger.add(
        "megaphone.notificator.notify_ns",
        "ns",
        &[workers * 1e9 / median(&with) - workers * 1e9 / median(&without)],
    );
}

fn storage_layers(ledger: &mut Ledger, budget: Duration, out: &Path) -> Result<(), String> {
    let dir = out.join("data").join(format!("layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|error| error.to_string())?;
    let failed = |error: megaphone::StorageError| error.to_string();

    // WAL append and replay of 64 KiB fragments, 32 MiB per log.
    let fragment = WalRecord::Fragment { bin: 1, last: false, bytes: vec![0xa5; 64 << 10] };
    let (mut appends, mut replays) = (Vec::new(), Vec::new());
    for repeat in 0..REPEATS {
        let path = dir.join(format!("unit-{repeat}.wal"));
        let (mut wal, _) = Wal::open(&path, false).map_err(failed)?;
        let begun = Instant::now();
        for _ in 0..512 {
            wal.append(&fragment).map_err(failed)?;
        }
        wal.sync().map_err(failed)?;
        let bytes = wal.bytes() as f64;
        appends.push(bytes / MB / begun.elapsed().as_secs_f64());
        drop(wal);
        let begun = Instant::now();
        let (_, records) = Wal::open(&path, false).map_err(failed)?;
        replays.push(bytes / MB / begun.elapsed().as_secs_f64());
        black_box(records.len());
        let _ = std::fs::remove_file(&path);
    }
    ledger.add("megaphone.storage.wal_append_mb_s", "MB/s", &appends);
    ledger.add("megaphone.storage.wal_replay_mb_s", "MB/s", &replays);

    // Spill, fault-in and checkpoint of hash-map bins on a durable store.
    let config = MegaphoneConfig::new(4);
    let durable = DurableConfig::new(dir.join("store")).with_fsync(false);
    let (mut store, _) =
        BinStore::<u64, FxHashMap<u64, u64>, u64>::open_durable(&config, &durable, "Layers", 0).map_err(failed)?;
    for bin in 0..config.bins() {
        store.install(bin, Bin { state: map_state(), pending: Vec::new() });
    }
    let image_mb = store.try_bin(0).expect("installed").encode_to_vec().len() as f64 / MB;
    let (mut spills, mut faults, mut checkpoints) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (mut spill, mut fault, mut rounds) = (Duration::ZERO, Duration::ZERO, 0u32);
        let started = Instant::now();
        while started.elapsed() < budget {
            for bin in 0..config.bins() {
                let begun = Instant::now();
                store.spill_bin(bin).map_err(failed)?;
                spill += begun.elapsed();
                let begun = Instant::now();
                store.ensure_resident(bin).map_err(failed)?;
                fault += begun.elapsed();
                rounds += 1;
            }
        }
        spills.push(spill.as_secs_f64() * 1e3 / f64::from(rounds) / image_mb);
        faults.push(fault.as_secs_f64() * 1e3 / f64::from(rounds) / image_mb);
        let begun = Instant::now();
        store.checkpoint().map_err(failed)?;
        checkpoints.push(begun.elapsed().as_secs_f64() * 1e3);
    }
    ledger.add("megaphone.storage.spill_ms_per_mb", "ms/MB", &spills);
    ledger.add("megaphone.storage.fault_in_ms_per_mb", "ms/MB", &faults);
    ledger.add("megaphone.storage.checkpoint_ms", "ms", &checkpoints);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Events per second of one NEXMark query over a fixed prefix on one worker.
fn nexmark_rate(query: &'static str, per_tick: u64, events: u64, native: bool) -> f64 {
    let workload = Nexmark { query, bin_shift: 8, per_tick, closed_ticks: 64, preload_epochs: 0 };
    pump(workload, Config::thread(), native, 64, Limit::Epochs(events / (per_tick * 64)))
}

fn nexmark_layers(ledger: &mut Ledger, budget: Duration) {
    let generator = NexmarkGenerator::new(NexmarkConfig::with_rate(800_000));
    let mut index = 0u64;
    ledger.add(
        "nexmark.generator.event_ns",
        "ns",
        &repeat(|| {
            per_call(budget, || {
                index += 1;
                black_box(generator.event(black_box(index)));
            })
        }),
    );
    // Fixed prefixes as long as the workloads' own preload plus capacity
    // phase: both queries slow down as their state grows, so a shorter prefix
    // would time a different (cheaper) query. The event rates are the
    // workloads' own.
    for (query, per_tick, events) in [("q5", 30u64, 3_400_000u64), ("q8", 800, 8_800_000)] {
        let native = repeat(|| nexmark_rate(query, per_tick, events, true));
        let megaphone = repeat(|| nexmark_rate(query, per_tick, events, false));
        ledger.add(&format!("nexmark.native.{query}_eps"), "1/s", &native);
        ledger.add(&format!("nexmark.megaphone.{query}_eps"), "1/s", &megaphone);
        ledger.add(&format!("nexmark.{query}_overhead_ratio"), "ratio", &[median(&native) / median(&megaphone)]);
    }
}

/// `capacity_eps` of an untraced run of `workload` as the contract runs it (20 s),
/// in a fresh process.
fn measured_capacity(workload: &str, out: &Path) -> Result<f64, String> {
    let output = Peer::spawn(&[
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        "1".into(),
        "--seconds".into(),
        "20".into(),
        "--trace".into(),
        "0".into(),
        "--out".into(),
        out.display().to_string(),
    ])
    .finish()?;
    let line = output.lines().last().ok_or("the workload run printed nothing")?;
    let field = line.split("\"capacity_eps\": {\"value\": ").nth(1).ok_or("no capacity_eps in the result line")?;
    field.split(',').next().and_then(|value| value.parse().ok()).ok_or_else(|| "unreadable capacity_eps".to_string())
}

/// Sums the unit costs on one record's path and sets them against the
/// end-to-end cost per record, `workers / capacity_eps`.
fn ledger_rows(ledger: &mut Ledger, out: &Path) -> Result<(), String> {
    let exchange = ledger.get("timelite.exchange.ns_per_record");
    let generate = ledger.get("nexmark.generator.event_ns");
    let event_bytes = ledger.get("timelite.codec.event_bytes");
    // Encode plus decode of one event, paid by the half that crosses the socket.
    let wire = 0.5
        * event_bytes
        * (1e9 / MB / ledger.get("timelite.codec.encode_event_mb_s")
            + 1e9 / MB / ledger.get("timelite.codec.decode_event_mb_s"));
    // What `stateful_unary` adds to a record's path over a plain exchange +
    // unary operator doing the same update (routing, F-to-S staging, per-bin
    // dispatch), from the hash-count pair above.
    let plain = ledger.get("megaphone.operator.plain_ns_per_record");
    let stateful = (ledger.get("megaphone.operator.hashcount_ns_per_record") - plain).max(0.0);
    ledger.add("megaphone.operator.stateful_extra_ns", "ns", &[stateful]);
    let unit_sums = [
        ("keycount_dense", exchange + stateful),
        ("hashcount_durable", plain + stateful),
        ("q5_process2", generate + 1e9 / ledger.get("nexmark.megaphone.q5_eps")),
        (
            "q8_cluster2",
            generate
                + 1e9 / ledger.get("nexmark.megaphone.q8_eps")
                + wire
                + (ledger.get("timelite.net.ns_per_record") - exchange).max(0.0),
        ),
    ];
    for (workload, unit_sum) in unit_sums {
        let end_to_end = spec::WORKERS as f64 * 1e9 / measured_capacity(workload, out)?;
        ledger.add(&format!("ledger.{workload}.unit_sum_ns_per_record"), "ns", &[unit_sum]);
        ledger.add(&format!("ledger.{workload}.e2e_ns_per_record"), "ns", &[end_to_end]);
        ledger.add(&format!("ledger.{workload}.gap_pct"), "%", &[(end_to_end - unit_sum) / end_to_end * 100.0]);
    }
    Ok(())
}

/// Runs every layer measurement, prints the rows and writes them as JSON.
pub fn run(seconds: f64, out: &Path) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds / 20.0);
    let mut ledger = Ledger::default();
    println!("== layers (median of {REPEATS} repeats of {:.2} s) ==", budget.as_secs_f64());
    codec_layers(&mut ledger, budget);
    engine_layers(&mut ledger, budget)?;
    megaphone_layers(&mut ledger, budget);
    storage_layers(&mut ledger, budget, out)?;
    nexmark_layers(&mut ledger, budget);
    ledger_rows(&mut ledger, out)?;

    let rows: Vec<String> = ledger
        .rows
        .iter()
        .map(|(name, value, unit, n)| format!("  \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"n\": {n}}}"))
        .collect();
    let path = out.join("layers.json");
    let text = format!(
        "{{\n \"what\": \"unit costs of single layers: median of {REPEATS} repeats of {:.2} s each\",\n \"cpus\": {},\n \"metrics\": {{\n{}\n }}\n}}\n",
        budget.as_secs_f64(),
        std::thread::available_parallelism().map_or(0, usize::from),
        rows.join(",\n")
    );
    std::fs::write(&path, text).map_err(|error| format!("cannot write {}: {error}", path.display()))?;
    eprintln!("layers: wrote {}", path.display());
    Ok(())
}
