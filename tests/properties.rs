//! Property-based tests over the workspace's core data structures and planners.
//!
//! The build environment is offline, so instead of `proptest` these tests use
//! a small deterministic xorshift generator and check each property over many
//! random cases. Failures print the seed of the offending case so it can be
//! replayed.

use std::collections::BTreeMap;

use megaphone::prelude::*;
use megaphone::RoutingTable;
use timelite::progress::{EdgeDesc, NodeDesc, Port, ProgressUpdates, Tracker};

/// A deterministic xorshift64* generator: enough randomness for property
/// exploration, fully reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A value in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn vec_with<T>(&mut self, max_len: u64, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| item(self)).collect()
    }

    fn string(&mut self, max_len: u64) -> String {
        let len = self.below(max_len + 1);
        (0..len)
            .map(|_| match self.below(4) {
                // Mostly printable ASCII, but a quarter of the characters are
                // multi-byte so byte-length vs char-count codec bugs surface.
                0 => char::from_u32(0x00a1 + self.below(0x4_0000) as u32).unwrap_or('\u{2603}'),
                _ => char::from_u32(0x20 + self.below(0x5e) as u32).unwrap(),
            })
            .collect()
    }
}

const CASES: u64 = 256;

/// Codec round-trips arbitrary nested values.
#[test]
fn codec_roundtrips_nested_values() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2 + 1);
        let values: Vec<(u64, String, Option<i64>)> = rng.vec_with(50, |rng| {
            let number = rng.next();
            let text = rng.string(16);
            let optional = if rng.below(2) == 0 { None } else { Some(rng.next() as i64) };
            (number, text, optional)
        });
        let bytes = values.encode_to_vec();
        let decoded = Vec::<(u64, String, Option<i64>)>::decode_from_slice(&bytes);
        assert_eq!(values, decoded, "seed {seed}");
    }
}

/// The tracker's frontiers are, after every update, the least time with a
/// positive net count. Reports arrive out of order — a consumption can land
/// before its production — so counts go transiently negative, and a negative
/// count must hold back nothing.
#[test]
fn tracker_frontier_is_the_least_time_with_a_positive_count() {
    fn least_positive(counts: &BTreeMap<u64, i64>) -> Option<u64> {
        counts.iter().find(|&(_, &count)| count > 0).map(|(&time, _)| time)
    }
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2 + 1);
        let updates: Vec<(bool, u64, i64)> =
            rng.vec_with(40, |rng| (rng.below(2) == 0, rng.below(50), rng.below(7) as i64 - 3));
        // source -> sink: the sink's input frontier is the meet of the
        // source's capability counts and the channel's message counts.
        let node = |name: &str, inputs, outputs| NodeDesc {
            name: name.to_string(),
            inputs,
            outputs,
            initial_capability: false,
        };
        let edges = vec![EdgeDesc { source: Port::new(0, 0), target: Port::new(1, 0) }];
        let mut tracker = Tracker::<u64>::new(vec![node("source", 0, 1), node("sink", 1, 0)], edges, 1);
        let (mut capabilities, mut messages) = (BTreeMap::new(), BTreeMap::new());
        for &(capability, time, diff) in &updates {
            let mut batch = ProgressUpdates::new();
            if capability {
                batch.internals.push((Port::new(0, 0), time, diff));
                *capabilities.entry(time).or_insert(0) += diff;
            } else {
                batch.messages.push((0, time, diff));
                *messages.entry(time).or_insert(0) += diff;
            }
            tracker.apply(&batch);
            let held = least_positive(&capabilities);
            let least = [held, least_positive(&messages)].into_iter().flatten().min();
            assert_eq!(tracker.output_frontier(0, 0).time(), held.as_ref(), "seed {seed}");
            assert_eq!(tracker.input_frontier(1, 0).time(), least.as_ref(), "seed {seed}");
            assert_eq!(tracker.is_complete(), least.is_none(), "seed {seed}");
        }
    }
}

/// Every migration strategy's plan moves exactly the changed bins, once each.
#[test]
fn plans_cover_exactly_the_changed_bins() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2 + 1);
        let bins = 16 + rng.below(48) as usize;
        let current: Vec<usize> = (0..bins).map(|_| rng.below(4) as usize).collect();
        let target: Vec<usize> = (0..bins).map(|_| rng.below(4) as usize).collect();
        let batch = 1 + rng.below(7) as usize;
        let changed: std::collections::BTreeSet<usize> =
            (0..bins).filter(|&bin| current[bin] != target[bin]).collect();
        for strategy in [
            MigrationStrategy::AllAtOnce,
            MigrationStrategy::Fluid,
            MigrationStrategy::Batched(batch),
            MigrationStrategy::Optimized,
        ] {
            let plan = plan_migration(strategy, &current, &target);
            let mut moved = std::collections::BTreeSet::new();
            for step in &plan.steps {
                for (bin, worker) in step {
                    assert_eq!(*worker, target[*bin], "seed {seed}, {strategy:?}");
                    assert!(moved.insert(*bin), "bin moved twice: seed {seed}, {strategy:?}");
                }
            }
            assert_eq!(moved, changed, "seed {seed}, {strategy:?}");
        }
    }
}

/// Routing lookups always agree with a naive replay of the updates.
#[test]
fn routing_lookup_matches_naive_replay() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2 + 1);
        let updates: Vec<(u64, usize, usize)> =
            rng.vec_with(30, |rng| (rng.below(20), rng.below(8) as usize, rng.below(4) as usize));
        let query_time = rng.below(25);
        let query_bin = rng.below(8) as usize;
        let mut table = RoutingTable::<u64>::new(vec![0; 8]);
        for (time, bin, worker) in &updates {
            table.insert(*time, &ControlInst::Move(*bin, *worker));
        }
        // Naive: the last update with time <= query_time for that bin, in
        // (time, insertion order) order, else the base assignment.
        let mut sorted = updates.clone();
        sorted.sort_by_key(|(time, _, _)| *time);
        let expected = sorted
            .iter()
            .filter(|(time, bin, _)| *time <= query_time && *bin == query_bin)
            .map(|(_, _, worker)| *worker)
            .next_back()
            .unwrap_or(0);
        assert_eq!(table.lookup(&query_time, query_bin), expected, "seed {seed}");
    }
}

/// Key-to-bin mapping always lands within range and is deterministic.
#[test]
fn key_to_bin_is_in_range() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2 + 1);
        let shift = rng.below(16) as u32;
        let key = rng.next();
        let config = MegaphoneConfig::new(shift);
        let bin = config.key_to_bin(key);
        assert!(bin < config.bins(), "seed {seed}");
        assert_eq!(bin, config.key_to_bin(key), "seed {seed}");
    }
}
