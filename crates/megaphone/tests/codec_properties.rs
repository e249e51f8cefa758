//! Property-style tests for the chunked migration codec: over randomized
//! (seeded, reproducible — the build is offline, so no `proptest`) payload
//! shapes, sizes and fragment budgets, a [`Fragmenter`]'s output must
//! concatenate byte-identically to the one-shot [`Codec`] encoding, and an
//! [`Assembler`] must rebuild the original value from the fragments — the
//! invariant migration (and, since cluster mode, every byte crossing a TCP
//! socket) rests on.

use std::collections::{BTreeMap, VecDeque};

use megaphone::codec::{encode_fragments, Assembler, Codec};
use megaphone::prelude::*;
use timelite::hashing::FxHashMap;

/// A deterministic xorshift64* generator, reproducible from the seed.
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

    fn string(&mut self, max_len: u64) -> String {
        let len = self.below(max_len + 1);
        (0..len)
            .map(|_| match self.below(4) {
                0 => char::from_u32(0x00a1 + self.below(0x4_0000) as u32).unwrap_or('\u{2603}'),
                _ => char::from_u32(0x20 + self.below(0x5e) as u32).unwrap(),
            })
            .collect()
    }
}

/// Checks the two chunking invariants for `value` under `budget`:
/// concatenated fragments equal the one-shot encoding byte for byte, and the
/// assembler rebuilds the value. Returns the fragments for extra checks.
fn check<C>(value: C, budget: usize, seed: u64) -> Vec<Vec<u8>>
where
    C: ChunkedCodec + Clone + PartialEq + std::fmt::Debug,
{
    let whole = value.encode_to_vec();
    let fragments = encode_fragments(value.clone(), budget);
    let concatenated: Vec<u8> = fragments.iter().flatten().copied().collect();
    assert_eq!(
        concatenated, whole,
        "seed {seed} budget {budget}: fragments diverge from the one-shot encoding"
    );
    // Feed the fragments exactly as migration does: one absorb per fragment,
    // each of which must be fully consumed.
    let mut assembler = C::assembler();
    for fragment in &fragments {
        let mut bytes = &fragment[..];
        assembler.absorb(&mut bytes);
        assert!(bytes.is_empty(), "seed {seed} budget {budget}: assembler left bytes unconsumed");
    }
    assert!(assembler.is_complete(), "seed {seed} budget {budget}: assembler incomplete");
    assert_eq!(assembler.finish(), value, "seed {seed} budget {budget}: round-trip changed value");
    fragments
}

const CASES: u64 = 128;

/// Randomized `Vec<Vec<u8>>` payloads (the shape of encoded bin content)
/// under randomized budgets.
#[test]
fn random_byte_payloads_fragment_byte_identically() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2 + 1);
        let value: Vec<Vec<u8>> = (0..rng.below(20))
            .map(|_| {
                let len = rng.below(200);
                (0..len).map(|_| rng.next() as u8).collect()
            })
            .collect();
        let budget = rng.below(300) as usize + 1;
        check(value, budget, seed);
    }
}

/// Randomized map payloads (the shape of real per-bin state: keys to vectors,
/// strings with multi-byte characters) under randomized budgets.
#[test]
fn random_state_maps_fragment_byte_identically() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 3 + 1);
        let value: FxHashMap<u64, (String, Vec<u64>)> = (0..rng.below(40))
            .map(|_| {
                let key = rng.next();
                let text = rng.string(24);
                let numbers = (0..rng.below(16)).map(|_| rng.next()).collect();
                (key, (text, numbers))
            })
            .collect();
        let budget = rng.below(256) as usize + 1;
        check(value, budget, seed);
    }
}

/// Randomized ordered collections: `BTreeMap` and `VecDeque` payloads.
#[test]
fn random_ordered_collections_fragment_byte_identically() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 5 + 1);
        let tree: BTreeMap<u64, String> =
            (0..rng.below(30)).map(|_| (rng.next(), rng.string(12))).collect();
        let budget = rng.below(128) as usize + 1;
        check(tree, budget, seed);
        let deque: VecDeque<u64> = (0..rng.below(60)).map(|_| rng.next()).collect();
        let budget = rng.below(64) as usize + 1;
        check(deque, budget, seed);
    }
}

/// The 0-byte edge: empty collections still produce a (header-only) fragment
/// stream that concatenates and round-trips, at any budget — including a
/// budget smaller than the header itself.
#[test]
fn zero_byte_payloads_roundtrip_at_any_budget() {
    for budget in [1usize, 7, 8, 9, 1024] {
        let fragments = check(Vec::<u8>::new(), budget, 0);
        assert_eq!(fragments.len(), 1, "an empty vector is one header fragment");
        check(FxHashMap::<u64, u64>::default(), budget, 0);
        check(BTreeMap::<u64, u64>::new(), budget, 0);
        check(VecDeque::<u64>::new(), budget, 0);
        // A zero-length byte payload inside a record, as migration produces
        // for an empty bin's encoded state.
        check(vec![Vec::<u8>::new()], budget, 0);
    }
}

/// The budget-equals-payload edge: when the budget exactly matches the full
/// encoding's length, everything must land in a single fragment — and one
/// byte less must force a split (for payloads whose last unit is splittable
/// off).
#[test]
fn budget_equal_to_payload_is_a_single_fragment() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 7 + 1);
        let value: Vec<u64> = (1..=rng.below(32) + 2).map(|_| rng.next()).collect();
        let whole = value.encode_to_vec();
        let fragments = check(value.clone(), whole.len(), seed);
        assert_eq!(
            fragments.len(),
            1,
            "seed {seed}: budget == encoded length must yield one fragment"
        );
        let fragments = check(value, whole.len() - 1, seed);
        assert!(
            fragments.len() > 1,
            "seed {seed}: one byte under the encoded length must split"
        );
    }
}

/// Oversized single units (larger than the whole budget) land alone, and the
/// stream still concatenates and round-trips.
#[test]
fn oversized_units_survive_tiny_budgets() {
    for seed in 0..32 {
        let mut rng = Rng::new(seed * 11 + 1);
        let value: Vec<String> =
            (0..rng.below(6) + 2).map(|_| rng.string(64)).collect();
        for budget in [1usize, 2, 9] {
            check(value.clone(), budget, seed);
        }
    }
}

/// A bin's pending section is a flat `[len][(time, record)…]` image whatever
/// the shape of its runs. One 200 KB single-time run leaves record by record,
/// ten thousand single-record runs likewise: every fragment within budget,
/// the stream byte-identical to the one-shot encoding, the runs regrouped
/// exactly.
#[test]
fn pending_runs_fragment_as_a_flat_image_and_regroup() {
    use megaphone::Bin;
    type TestBin = Bin<u64, Vec<u64>, (u64, String)>;
    let chunk_bytes = 4 << 10;
    // 8 (time) + 8 (id) + 8 (length) + 26 bytes of text per record.
    let record = |id: u64| (id, "abcdefghijklmnopqrstuvwxyz".to_string());
    let one_long_run: TestBin =
        Bin { state: vec![1, 2, 3], pending: vec![(77, (0..4_096).map(record).collect())] };
    assert!(one_long_run.encode_to_vec().len() > 200_000);
    let many_short_runs: TestBin = Bin {
        state: vec![1, 2, 3],
        pending: (0..10_000).map(|time| (1_000 + time, vec![record(time)])).collect(),
    };
    let mixed: TestBin = Bin {
        state: Vec::new(),
        pending: vec![
            (1, vec![record(0)]),
            (5, (0..300).map(record).collect()),
            (9, vec![record(1); 2]),
        ],
    };
    for (seed, bin) in [one_long_run, many_short_runs, mixed].into_iter().enumerate() {
        let fragments = check(bin, chunk_bytes, seed as u64);
        assert!(fragments.iter().all(|fragment| fragment.len() <= chunk_bytes));
    }
}

/// An image written before pending records were kept as runs lists them in
/// scheduling order, times out of order and repeated: it decodes — one-shot
/// and fragment by fragment — into the sorted runs, records of one time in
/// their listed order, and re-encodes as the time-sorted image.
#[test]
fn a_legacy_pending_image_with_unsorted_times_decodes_into_valid_runs() {
    use megaphone::codec::decode_fragments;
    use megaphone::Bin;
    type TestBin = Bin<u64, Vec<u64>, u64>;
    let state: Vec<u64> = vec![4, 5];
    let listed: Vec<(u64, u64)> = vec![(9, 0), (3, 1), (9, 2), (1, 3), (3, 4), (3, 5), (7, 6)];
    let mut legacy = Vec::new();
    state.encode(&mut legacy);
    listed.encode(&mut legacy);
    let expected: TestBin = Bin {
        state,
        pending: vec![(1, vec![3]), (3, vec![1, 4, 5]), (7, vec![6]), (9, vec![0, 2])],
    };

    assert_eq!(TestBin::decode_from_slice(&legacy), expected);
    // Fragments break at unit boundaries: 32 bytes of state and pending
    // header, then 16-byte `(time, record)` pairs.
    for pairs_per_fragment in [1, 3] {
        let (head, pairs) = legacy.split_at(32);
        let mut fragments = vec![head.to_vec()];
        fragments.extend(pairs.chunks(16 * pairs_per_fragment).map(<[u8]>::to_vec));
        assert_eq!(decode_fragments::<TestBin>(&fragments), expected);
    }
    let mut sorted = listed.clone();
    sorted.sort_by_key(|&(time, _)| time);
    let mut image = Vec::new();
    expected.state.encode(&mut image);
    sorted.encode(&mut image);
    assert_eq!(expected.encode_to_vec(), image, "the image stays flat and is now time-sorted");
}
