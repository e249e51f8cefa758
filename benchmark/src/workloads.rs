//! The dataflows under test and the seeded input streams that load them.
//!
//! Everything here goes through public API only: `stateful_unary`,
//! `build_query` / `build_native_query` and `NexmarkGenerator`.

use std::cell::Cell;
use std::rc::Rc;

use megaphone::prelude::*;
use megaphone::{StatsHandle, StorageHandle};
use nexmark::{build_native_query, build_query, Event, NexmarkConfig, NexmarkGenerator};
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

/// What the driver observes of a dataflow's output.
#[derive(Default)]
pub struct Tally {
    /// Records the dataflow emitted on this worker.
    pub outputs: Cell<u64>,
    /// Order-independent digest of those records (wrapping sum of per-record
    /// values: the running count for key-count, a row hash for NEXMark).
    pub digest: Cell<u64>,
}

/// A built dataflow, as the driver sees it.
pub struct Built {
    pub probe: ProbeHandle<u64>,
    pub stats: Option<StatsHandle>,
    pub storage: Vec<StorageHandle>,
    pub tally: Rc<Tally>,
}

/// A dataflow under test plus its input stream. Dataflow time is the tick:
/// one millisecond of the open-loop schedule (and of NEXMark event time).
pub trait Workload: Copy + Send + Sync + 'static {
    type Rec: Data;
    type Source: Source<Self::Rec>;

    /// Builds the dataflow on `data`; `native` asks for the non-migrateable
    /// reference implementation (NEXMark only).
    fn build(&self, control: &Stream<u64, ControlInst>, data: &Stream<u64, Self::Rec>, native: bool) -> Built;

    /// This worker's share of the input, generated from `seed`.
    fn source(&self, index: usize, peers: usize, seed: u64) -> Self::Source;

    /// Closed-loop epochs needed to build the workload's state.
    fn preload_epochs(&self) -> u64;
}

/// One worker's input stream.
pub trait Source<R> {
    /// Appends this worker's records of preload epoch `epoch`.
    fn preload(&mut self, epoch: u64, out: &mut Vec<R>);
    /// Appends this worker's records of tick `tick`.
    fn tick(&mut self, tick: u64, out: &mut Vec<R>);
}

fn tally_u64(stream: &Stream<u64, u64>) -> Rc<Tally> {
    let tally = Rc::new(Tally::default());
    let inner = tally.clone();
    stream.inspect_batch(move |_time, counts| {
        inner.outputs.set(inner.outputs.get() + counts.len() as u64);
        let sum = counts.iter().fold(0u64, |sum, count| sum.wrapping_add(*count));
        inner.digest.set(inner.digest.get().wrapping_add(sum));
    });
    tally
}

// --------------------------------------------------------------- key count ---

/// The counting operator of the paper's Section 5.2/5.3: one `u64` count per
/// key, emitted after every update.
#[derive(Clone, Copy, Debug)]
pub struct KeyCount {
    /// `true`: `Vec<u64>` bins ("key count"); `false`: hash-map bins ("hash count").
    pub dense: bool,
    pub bin_shift: u32,
    pub domain: u64,
    /// Records per tick across all workers.
    pub per_tick: u64,
}

/// Keys sent per preload epoch (across all workers) when every key is loaded.
const HASH_PRELOAD_KEYS_PER_EPOCH: u64 = 1 << 16;

impl Workload for KeyCount {
    type Rec = u64;
    type Source = KeySource;

    fn build(&self, control: &Stream<u64, ControlInst>, data: &Stream<u64, u64>, _native: bool) -> Built {
        let config = MegaphoneConfig::new(self.bin_shift);
        let output = if self.dense {
            let shift = self.bin_shift;
            let keys_per_bin = (self.domain >> shift).max(1) as usize;
            stateful_unary::<_, u64, Vec<u64>, u64, _, _>(
                config,
                control,
                data,
                "KeyCount",
                // Bin by the low bits of the key (reversed into the top bits)
                // so that each bin holds a dense, contiguous slice of keys.
                |key| key.reverse_bits(),
                move |_time, records, state, _notificator| {
                    // The first record sizes the whole bin: the state under
                    // test is the full key range, not the keys seen so far.
                    if state.len() < keys_per_bin {
                        state.resize(keys_per_bin, 0);
                    }
                    let mut outputs = Vec::with_capacity(records.len());
                    for key in records {
                        let count = &mut state[(key >> shift) as usize];
                        *count += 1;
                        outputs.push(*count);
                    }
                    outputs
                },
            )
        } else {
            stateful_unary::<_, u64, FxHashMap<u64, u64>, u64, _, _>(
                config,
                control,
                data,
                "HashCount",
                hash_code,
                |_time, records, state, _notificator| {
                    let mut outputs = Vec::with_capacity(records.len());
                    for key in records {
                        let count = state.entry(key).or_insert(0);
                        *count += 1;
                        outputs.push(*count);
                    }
                    outputs
                },
            )
        };
        Built {
            tally: tally_u64(&output.stream),
            probe: output.probe,
            stats: Some(output.stats),
            storage: vec![output.storage],
        }
    }

    fn source(&self, index: usize, peers: usize, seed: u64) -> KeySource {
        // splitmix64 of (seed, worker) so nearby seeds give unrelated streams.
        let mut state = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        state = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        state ^= state >> 31;
        KeySource { workload: *self, index: index as u64, peers: peers as u64, rng: state | 1 }
    }

    fn preload_epochs(&self) -> u64 {
        if self.dense {
            1
        } else {
            self.domain.div_ceil(HASH_PRELOAD_KEYS_PER_EPOCH)
        }
    }
}

/// One step of the xorshift64 generator behind every key stream.
pub fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Uniform xorshift keys over the workload's domain.
pub struct KeySource {
    workload: KeyCount,
    index: u64,
    peers: u64,
    rng: u64,
}

impl Source<u64> for KeySource {
    fn preload(&mut self, epoch: u64, out: &mut Vec<u64>) {
        let keys = if self.workload.dense {
            // One key per bin is enough: the fold sizes the bin on first touch.
            0..(1u64 << self.workload.bin_shift).min(self.workload.domain)
        } else {
            let start = epoch * HASH_PRELOAD_KEYS_PER_EPOCH;
            start..(start + HASH_PRELOAD_KEYS_PER_EPOCH).min(self.workload.domain)
        };
        out.extend(keys.filter(|key| key % self.peers == self.index));
    }

    fn tick(&mut self, _tick: u64, out: &mut Vec<u64>) {
        let quota = self.workload.per_tick / self.peers;
        let mask = self.workload.domain - 1;
        debug_assert!(self.workload.domain.is_power_of_two());
        out.extend((0..quota).map(|_| xorshift(&mut self.rng) & mask));
    }
}

// ----------------------------------------------------------------- NEXMark ---

/// A NEXMark query fed by `NexmarkGenerator` at a fixed event rate; event
/// `i` belongs to tick `i * 1000 / rate`, which is also its event time.
#[derive(Clone, Copy, Debug)]
pub struct Nexmark {
    pub query: &'static str,
    pub bin_shift: u32,
    /// Events per tick across all workers (event rate / 1000).
    pub per_tick: u64,
    pub closed_ticks: u64,
    pub preload_epochs: u64,
}

impl Workload for Nexmark {
    type Rec = Event;
    type Source = EventSource;

    fn build(&self, control: &Stream<u64, ControlInst>, data: &Stream<u64, Event>, native: bool) -> Built {
        let output = if native {
            build_native_query(self.query, data)
        } else {
            build_query(self.query, MegaphoneConfig::new(self.bin_shift), control, data)
        };
        let tally = Rc::new(Tally::default());
        let inner = tally.clone();
        output.stream.inspect_batch(move |_time, rows| {
            inner.outputs.set(inner.outputs.get() + rows.len() as u64);
            let sum = rows.iter().fold(0u64, |sum, row| sum.wrapping_add(hash_code(row)));
            inner.digest.set(inner.digest.get().wrapping_add(sum));
        });
        Built { probe: output.probe, stats: output.stats, storage: output.storage, tally }
    }

    fn source(&self, index: usize, peers: usize, seed: u64) -> EventSource {
        let config = NexmarkConfig { seed, ..NexmarkConfig::with_rate(self.per_tick * 1_000) };
        EventSource {
            generator: NexmarkGenerator::new(config),
            per_tick: self.per_tick,
            closed_ticks: self.closed_ticks,
            index: index as u64,
            peers: peers as u64,
        }
    }

    fn preload_epochs(&self) -> u64 {
        self.preload_epochs
    }
}

/// The event stream, partitioned round-robin across workers.
pub struct EventSource {
    generator: NexmarkGenerator,
    per_tick: u64,
    closed_ticks: u64,
    index: u64,
    peers: u64,
}

impl Source<Event> for EventSource {
    fn preload(&mut self, epoch: u64, out: &mut Vec<Event>) {
        for tick in epoch * self.closed_ticks..(epoch + 1) * self.closed_ticks {
            self.tick(tick, out);
        }
    }

    fn tick(&mut self, tick: u64, out: &mut Vec<Event>) {
        let start = tick * self.per_tick;
        let first = start + (self.index + self.peers - start % self.peers) % self.peers;
        out.extend((first..start + self.per_tick).step_by(self.peers as usize).map(|i| self.generator.event(i)));
    }
}
