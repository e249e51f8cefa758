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

// ---------------------------------------------------------------------------
// The bulk path: sequences of fixed-width values move as slices.
// ---------------------------------------------------------------------------

/// For one primitive whose `Codec` overrides the sequence hooks: at every
/// length, bulk encode equals the concatenation of per-item encodes and bulk
/// decode inverts it; `Vec<T>` fragments at budgets around the item width
/// concatenate to the one-shot encoding and reassemble.
fn bulk_matches_per_item<T>(generate: impl Fn(&mut Rng) -> T)
where
    T: Codec + Clone + PartialEq + std::fmt::Debug,
{
    let name = std::any::type_name::<T>();
    let width = std::mem::size_of::<T>();
    assert_eq!(T::WIDTH, Some(width), "{name}: fixed width");
    let mut rng = Rng::new(width as u64 * 13 + 1);
    for len in [0usize, 1, 7, 1_024, 65_537] {
        let items: Vec<T> = (0..len).map(|_| generate(&mut rng)).collect();
        let mut per_item = Vec::new();
        for item in &items {
            item.encode(&mut per_item);
        }
        assert_eq!(per_item.len(), len * width, "{name} x {len}: per-item width");

        // Appended behind bytes already in the buffer, as inside a record.
        let mut bulk = vec![0xEE];
        T::encode_slice(&items, &mut bulk);
        assert_eq!(&bulk[1..], &per_item[..], "{name} x {len}: bulk encode diverges");

        // Appended behind items already in the vector, as a later fragment is.
        let mut bytes = &per_item[..];
        let mut decoded: Vec<T> = items.first().cloned().into_iter().collect();
        let kept = decoded.len();
        T::decode_extend(&mut decoded, len, &mut bytes);
        assert!(bytes.is_empty(), "{name} x {len}: bulk decode left bytes");
        assert_eq!(&decoded[kept..], &items[..], "{name} x {len}: bulk decode diverges");
        let mut bytes = &per_item[..];
        let one_by_one: Vec<T> = (0..len).map(|_| T::decode(&mut bytes)).collect();
        assert_eq!(one_by_one, items, "{name} x {len}: per-item decode diverges");

        let mut whole = (len as u64).to_le_bytes().to_vec();
        whole.extend_from_slice(&per_item);
        assert_eq!(items.encode_to_vec(), whole, "{name} x {len}: Vec encoding");
        assert_eq!(Vec::<T>::decode_from_slice(&whole), items, "{name} x {len}: Vec decoding");

        for budget in [1, width - 1, width, 64, 64 << 10] {
            let budget = budget.max(1);
            let fragments = check(items.clone(), budget, len as u64);
            // The boundaries of the item-by-item path: whole items up to the
            // budget, one at least into an empty fragment, the header alone
            // when no item fits behind it.
            let per_fragment = (budget / width).max(1);
            let behind_header = budget.saturating_sub(8) / width;
            let expected = 1 + (len - behind_header.min(len)).div_ceil(per_fragment);
            assert_eq!(fragments.len(), expected, "{name} x {len} budget {budget}: boundaries");
        }
    }
}

#[test]
fn every_overridden_primitive_moves_in_bulk_byte_identically() {
    bulk_matches_per_item(|rng| rng.next() as u8);
    bulk_matches_per_item(|rng| rng.next() as u16);
    bulk_matches_per_item(|rng| rng.next() as u32);
    bulk_matches_per_item(|rng| rng.next());
    bulk_matches_per_item(|rng| (rng.next() as u128) << 64 | rng.next() as u128);
    bulk_matches_per_item(|rng| rng.next() as i8);
    bulk_matches_per_item(|rng| rng.next() as i16);
    bulk_matches_per_item(|rng| rng.next() as i32);
    bulk_matches_per_item(|rng| rng.next() as i64);
    bulk_matches_per_item(|rng| ((rng.next() as u128) << 64 | rng.next() as u128) as i128);
    // Finite floats only: `check` compares values, and NaN is not equal to itself.
    bulk_matches_per_item(|rng| rng.next() as i32 as f32 / 7.0);
    bulk_matches_per_item(|rng| rng.next() as i64 as f64 / 7.0);
}

/// Pins the bytes, so the wire format cannot drift silently: one migration
/// fragment, and the frame that carries it to a worker of another process.
#[test]
fn golden_bytes_of_a_state_fragment_and_its_wire_frame() {
    use megaphone::StateFragment;
    use timelite::codec::Slab;
    use timelite::communication::{encode_frame, Envelope, MultiBatch, Payload};

    let fragment = StateFragment { bin: 0x0102, bytes: vec![0xAA, 0xBB, 0xCC], last: true };
    #[rustfmt::skip]
    let fragment_bytes = [
        0x02, 0x01, 0, 0, 0, 0, 0, 0,   // bin
        3, 0, 0, 0, 0, 0, 0, 0,         // payload length
        0xAA, 0xBB, 0xCC,               // payload
        1,                              // last
    ];
    assert_eq!(fragment.encode_to_vec(), fragment_bytes);
    assert_eq!(StateFragment::decode_from_slice(&fragment_bytes), fragment);

    let batches: MultiBatch<u64, (u64, StateFragment)> = vec![(7, vec![(1, fragment)])];
    let payload = Payload::DataBytes(Slab::new(batches.encode_to_vec()));
    let envelope = Envelope { dataflow: 2, channel: 5, from: 0, payload };
    #[rustfmt::skip]
    let frame_bytes = [
        85, 0, 0, 0, 0, 0, 0, 0,        // frame length: 33 header + 52 payload
        2, 0, 0, 0, 0, 0, 0, 0,         // dataflow
        5, 0, 0, 0, 0, 0, 0, 0,         // channel
        0, 0, 0, 0, 0, 0, 0, 0,         // from
        1, 0, 0, 0, 0, 0, 0, 0,         // to
        0,                              // kind: data
        1, 0, 0, 0, 0, 0, 0, 0,         // (time, batch) pairs
        7, 0, 0, 0, 0, 0, 0, 0,         // time
        1, 0, 0, 0, 0, 0, 0, 0,         // records in the batch
        1, 0, 0, 0, 0, 0, 0, 0,         // destination worker
        0x02, 0x01, 0, 0, 0, 0, 0, 0,   // the fragment, as above
        3, 0, 0, 0, 0, 0, 0, 0,
        0xAA, 0xBB, 0xCC,
        1,
    ];
    assert_eq!(encode_frame(&envelope, 1).to_bytes(), frame_bytes);
    assert_eq!(MultiBatch::<u64, (u64, StateFragment)>::decode_from_slice(&frame_bytes[41..]), batches);
}

// ---------------------------------------------------------------------------
// Complexity, counted: calls into the item type per sequence.
// ---------------------------------------------------------------------------

use std::sync::atomic::{AtomicUsize, Ordering};

/// Calls into one test type's `Codec` impl: `[encode, decode, encode_slice,
/// decode_extend]`.
struct Calls([AtomicUsize; 4]);

impl Calls {
    const fn new() -> Self {
        Calls([AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)])
    }
    fn hit(&self, which: usize) {
        self.0[which].fetch_add(1, Ordering::Relaxed);
    }
    fn take(&self) -> [usize; 4] {
        [0, 1, 2, 3].map(|which| self.0[which].swap(0, Ordering::Relaxed))
    }
}

/// A byte as `u8` implements it — per-item methods plus the sequence hooks,
/// each forwarding to `u8`'s — with every call counted. (`u8` itself cannot
/// be instrumented; what is pinned is that sequences reach the hooks.)
#[derive(Clone, Copy, Debug, PartialEq)]
struct BulkByte(u8);
static BULK_CALLS: Calls = Calls::new();

impl Codec for BulkByte {
    const WIDTH: Option<usize> = Some(1);
    fn encode(&self, bytes: &mut Vec<u8>) {
        BULK_CALLS.hit(0);
        self.0.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        BULK_CALLS.hit(1);
        BulkByte(u8::decode(bytes))
    }
    fn encode_slice(items: &[Self], bytes: &mut Vec<u8>) {
        BULK_CALLS.hit(2);
        bytes.extend(items.iter().map(|item| item.0));
    }
    fn decode_extend(out: &mut Vec<Self>, count: usize, bytes: &mut &[u8]) {
        BULK_CALLS.hit(3);
        let mut raw = Vec::new();
        u8::decode_extend(&mut raw, count, bytes);
        out.extend(raw.into_iter().map(BulkByte));
    }
}

/// A byte that implements only `encode` and `decode`: the defaults of the
/// sequence hooks must call each exactly once per item.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PlainByte(u8);
static PLAIN_CALLS: Calls = Calls::new();

impl Codec for PlainByte {
    fn encode(&self, bytes: &mut Vec<u8>) {
        PLAIN_CALLS.hit(0);
        self.0.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        PLAIN_CALLS.hit(1);
        PlainByte(u8::decode(bytes))
    }
}

/// Sends `(bin, payload, last)` records shaped like a migration fragment
/// through the path a fragment takes to another process — staged batch →
/// `encode_frame` → the receiving channel's decode — and returns the payload
/// bytes that came out.
fn through_a_frame<B: Codec + Clone + PartialEq + std::fmt::Debug + Send + 'static>(
    payload: Vec<B>,
) -> usize {
    use timelite::codec::Slab;
    use timelite::communication::{decode_frame, encode_frame, Envelope, MultiBatch, Payload};
    type Fragment<B> = (u64, Vec<B>, bool);
    let batches: MultiBatch<u64, (u64, Fragment<B>)> = vec![(3, vec![(1, (9, payload, true))])];
    let payload = Payload::DataBytes(Slab::new(batches.encode_to_vec()));
    let envelope = Envelope { dataflow: 0, channel: 1, from: 0, payload };
    let frame = encode_frame(&envelope, 1).to_bytes();
    let (received, to) = decode_frame(&frame[8..]).expect("a whole frame");
    assert_eq!(to, 1);
    let Payload::DataBytes(bytes) = received.payload else {
        panic!("a frame's payload arrives encoded");
    };
    assert_eq!(MultiBatch::<u64, (u64, Fragment<B>)>::decode_from_slice(&bytes), batches);
    bytes.len()
}

#[test]
fn a_fragment_payload_costs_constant_calls_in_bulk_and_one_per_item_by_default() {
    const PAYLOAD: usize = 64 << 10;
    let bulk = through_a_frame((0..PAYLOAD).map(|at| BulkByte(at as u8)).collect());
    assert_eq!(
        BULK_CALLS.take(),
        [0, 0, 1, 1],
        "a 64 KiB payload must be one encode_slice and one decode_extend, no per-byte call"
    );
    let plain = through_a_frame((0..PAYLOAD).map(|at| PlainByte(at as u8)).collect());
    assert_eq!(
        PLAIN_CALLS.take(),
        [PAYLOAD, PAYLOAD, 0, 0],
        "the default hooks must make exactly one encode and one decode per item"
    );
    assert_eq!(bulk, plain, "both are the same bytes on the wire");

    // The same holds fragment by fragment: one hook call per fill and absorb.
    let fragments = check((0..PAYLOAD).map(|at| BulkByte(at as u8)).collect::<Vec<_>>(), 4 << 10, 0);
    let [encodes, decodes, slices, extends] = BULK_CALLS.take();
    // `check` also encodes the value one-shot: one more encode_slice.
    assert_eq!((encodes, decodes), (0, 0), "no per-item call on the fragment path");
    assert_eq!(slices, fragments.len() + 1, "one encode_slice per fragment");
    assert_eq!(extends, fragments.len(), "one decode_extend per fragment");
    check((0..100).map(PlainByte).collect::<Vec<_>>(), 16, 0);
    assert_eq!(PLAIN_CALLS.take(), [200, 100, 0, 0], "per item: one-shot + fragments, then decode");
}

// ---------------------------------------------------------------------------
// The flat table: a map whose memory is its wire image.
// ---------------------------------------------------------------------------

/// A table of `entries` random entries: keys with only their high bits set and
/// plain small ones, payloads of 0 to 40 bytes.
fn random_table(rng: &mut Rng, entries: u64) -> FlatTable {
    let mut table = FlatTable::new();
    for index in 0..entries {
        let key = if rng.below(2) == 0 { index } else { rng.next() << 40 };
        let payload: Vec<u8> = (0..rng.below(41)).map(|_| rng.next() as u8).collect();
        table.insert(key, rng.next(), &payload);
    }
    table
}

/// Model-based: random insert / overwrite / `retain` sequences against a
/// `HashMap<u64, (u64, Vec<u8>)>`, equal contents after every step — across
/// several doublings, shrinking retains, empty payloads and overwrites that
/// outgrow the payload they replace.
#[test]
fn flat_table_matches_a_hash_map_model() {
    use std::collections::HashMap;
    for seed in 0..8u64 {
        let mut rng = Rng::new(seed * 13 + 5);
        let mut table = FlatTable::new();
        let mut model: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();
        let mut largest = 0;
        for step in 0..2_500 {
            if rng.below(400) == 0 {
                // Keep a random share: nothing, a sliver, most, everything.
                let modulus = [1, 2, 16, u64::MAX][rng.below(4) as usize];
                let keep = |key: u64, value: u64| !(key ^ value).is_multiple_of(modulus);
                table.retain(|key, value, _| keep(key, value));
                model.retain(|key, (value, _)| keep(*key, *value));
            } else {
                // A small key domain, so a good share of the inserts overwrite.
                let key = rng.below(2_048) << (seed % 2 * 50);
                let value = rng.next();
                let payload: Vec<u8> = (0..rng.below(24)).map(|_| rng.next() as u8).collect();
                let fresh = table.insert(key, value, &payload);
                assert_eq!(fresh, model.insert(key, (value, payload)).is_none());
            }
            largest = largest.max(table.capacity());
            assert_eq!(table.len(), model.len(), "seed {seed} step {step}");
            assert_eq!(table.is_empty(), model.is_empty());
            assert!(table.len() * 4 <= table.capacity() * 3, "at most three quarters full");
            for (key, (value, payload)) in &model {
                assert_eq!(
                    table.get(*key),
                    Some((*value, &payload[..])),
                    "seed {seed} step {step} key {key}"
                );
            }
            let mut listed = 0;
            for (key, value, payload) in table.iter() {
                assert_eq!(model.get(&key), Some(&(value, payload.to_vec())));
                listed += 1;
            }
            assert_eq!(listed, model.len(), "iter lists every entry once");
            assert_eq!(table.get(1 << 63), None);
        }
        assert!(largest >= 1_024, "seed {seed}: the run must cross several doublings");
    }
}

/// The number of fragments a greedy packer makes of `units` under `budget`: a
/// unit joins the open fragment iff it fits, or the fragment is empty.
fn greedy_fragments(units: impl Iterator<Item = usize>, budget: usize) -> usize {
    let (mut fragments, mut open) = (0, 0);
    for unit in units {
        if open > 0 && open + unit > budget {
            fragments += 1;
            open = 0;
        }
        open += unit;
    }
    fragments + usize::from(open > 0)
}

/// A flat table fragments as its three sections chained under one budget:
/// the entry count, the slot words through the bulk `Vec<u64>` path, the arena
/// through the bulk `Vec<u8>` path. At every budget the fragments concatenate
/// to the one-shot encoding, reassemble to an equal table, stay within budget
/// (headers and words are 8-byte units), and are as many as packing those
/// units greedily predicts.
#[test]
fn flat_table_fragments_are_its_chained_vectors() {
    for (seed, entries) in [(1u64, 0u64), (2, 1), (3, 90), (4, 1_300)] {
        let table = random_table(&mut Rng::new(seed), entries);
        let (words, arena) = (table.capacity() * 3, table.arena_len());
        assert_eq!(table.encode_to_vec().len(), 24 + 8 * words + arena);
        for budget in [1usize, 7, 64, 64 << 10] {
            if budget < 64 && entries > 100 {
                continue;
            }
            let fragments = check(table.clone(), budget, seed);
            let units = [8, 8]
                .into_iter()
                .chain(std::iter::repeat_n(8, words))
                .chain([8])
                .chain(std::iter::repeat_n(1, arena));
            assert_eq!(
                fragments.len(),
                greedy_fragments(units, budget),
                "seed {seed} budget {budget}"
            );
            assert!(fragments.iter().all(|fragment| fragment.len() <= budget.max(8)));
        }
    }
    // Inside a bin, its pending section follows in the same fragments.
    let bin = megaphone::Bin {
        state: random_table(&mut Rng::new(9), 500),
        pending: vec![(7u64, vec![1u64, 2]), (9, vec![3])],
    };
    for budget in [64usize, 4 << 10, 64 << 10] {
        check(bin.clone(), budget, 9);
    }
}

/// The panic message of `run`, which must panic.
fn panic_message(run: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(run).expect_err("the hostile input was accepted");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast::<&str>().map_or_else(|_| String::new(), |s| s.to_string()),
    }
}

/// Builds a flat-table image by hand.
fn table_image(entries: u64, slots: &[u64], arena: &[u8]) -> Vec<u8> {
    let mut image = Vec::new();
    entries.encode(&mut image);
    (slots.len() as u64).encode(&mut image);
    for word in slots {
        word.encode(&mut image);
    }
    arena.to_vec().encode(&mut image);
    image
}

/// Hostile images of a flat table are rejected with a `corrupt …` message
/// when they are decoded — from one buffer or from fragments — not by an
/// out-of-bounds index (or an endless probe) in a later `get`; and nothing is
/// allocated for a count before the bytes it announces are known to be there.
#[test]
fn hostile_flat_table_images_are_rejected_when_decoded() {
    let table = random_table(&mut Rng::new(21), 40);
    let image = table.encode_to_vec();
    assert_eq!(FlatTable::decode_from_slice(&image), table);

    // Truncated at every 8-byte boundary (and inside the arena).
    for cut in (0..image.len()).step_by(8).chain([image.len() - 1]) {
        let message = panic_message(|| drop(FlatTable::decode_from_slice(&image[..cut])));
        assert!(message.starts_with("corrupt "), "cut at {cut}: {message:?}");
    }

    // One occupied slot (key 5, value 6, payload "ab" at offset 1) among eight.
    let mut slots = vec![0u64; 24];
    slots[3..6].copy_from_slice(&[5, 6, 1 << 32 | 3]);
    let good = table_image(1, &slots, b"xab");
    let adopted = FlatTable::decode_from_slice(&good);
    assert_eq!(adopted.iter().collect::<Vec<_>>(), [(5, 6, &b"ab"[..])]);

    let reference = |offset: u64, len: u64| offset << 32 | (len + 1);
    let with_reference = |word: u64| {
        let mut slots = slots.clone();
        slots[5] = word;
        table_image(1, &slots, b"xab")
    };
    let full: Vec<u64> = (0..8u64).flat_map(|key| [key, 0, reference(0, 0)]).collect();
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        ("9 slots", table_image(1, &[0; 27], b""), "27 slot words are not 3 x a power of two"),
        ("slot words not a multiple of 3", table_image(0, &[0; 8], b""), "8 slot words"),
        ("length past the arena", with_reference(reference(1, 3)), "outside a 3-byte arena"),
        ("offset past the arena", with_reference(reference(4, 0)), "outside a 3-byte arena"),
        ("a huge offset", with_reference(reference(u32::MAX as u64, u32::MAX as u64 - 1)), "outside"),
        ("a reference without a length", with_reference(7 << 32), "outside"),
        ("more entries than slots", table_image(9, &slots, b"xab"), "9 entries leave no empty slot among 8"),
        ("no empty slot", table_image(8, &full, b""), "8 entries leave no empty slot among 8"),
        ("entries without a table", table_image(1, &[], b""), "1 entries leave no empty slot among 0"),
        ("a count the slots do not bear out", table_image(2, &slots, b"xab"), "1 occupied slots under a header of 2"),
        ("a full table under a modest count", table_image(3, &full, b""), "8 occupied slots under a header of 3"),
    ];
    for (what, image, expected) in cases {
        let message = panic_message(|| drop(FlatTable::decode_from_slice(&image)));
        assert!(
            message.starts_with("corrupt flat table: ") && message.contains(expected),
            "{what}: {message:?}"
        );
        // The same image arriving as fragments is refused when it is adopted.
        let message = panic_message(|| {
            let mut assembler = FlatTable::assembler();
            for fragment in image.chunks(16) {
                assembler.absorb(&mut &fragment[..]);
            }
            drop(assembler.finish());
        });
        assert!(message.starts_with("corrupt flat table: "), "{what}, in fragments: {message:?}");
    }

    // Counts that announce more than the buffer holds allocate nothing.
    let mut huge = Vec::new();
    (1u64 << 20).encode(&mut huge);
    (3u64 << 40).encode(&mut huge);
    huge.extend_from_slice(&[0; 64]);
    let message = panic_message(|| drop(FlatTable::decode_from_slice(&huge)));
    assert!(message.starts_with("corrupt length: 3298534883328 x 8-byte u64"), "{message:?}");

    // A well-formed image whose keys sit in the wrong slots decodes; lookups
    // miss or hit, but stay in bounds and end.
    let mut slots = vec![0u64; 24];
    for (slot, key) in [(0usize, 11u64), (1, 12), (6, 13), (7, 14)] {
        slots[slot * 3..slot * 3 + 3].copy_from_slice(&[key, key, reference(0, 3)]);
    }
    let misplaced = FlatTable::decode_from_slice(&table_image(4, &slots, b"xab"));
    for key in 0..64u64 {
        if let Some((value, payload)) = misplaced.get(key) {
            assert_eq!((value, payload), (key, &b"xab"[..]));
        }
    }
    assert_eq!(misplaced.iter().count(), 4);
}

/// `decode_frame` is public and its input may come from outside: a frame
/// shorter than its header, or one whose kind byte is neither data (0) nor
/// progress (1), decodes to `None` instead of panicking.
#[test]
fn a_short_frame_or_an_unknown_kind_decodes_to_none() {
    use timelite::codec::Slab;
    use timelite::communication::{decode_frame, WireFrame, FRAME_HEADER_BYTES};
    let frame = WireFrame::new(0, 1, 2, 3, 1, Slab::new(vec![4, 5])).to_bytes();
    let (envelope, to) = decode_frame(&frame[8..]).expect("a whole progress frame");
    assert_eq!((envelope.channel, envelope.from, to), (1, 2, 3));
    for short in [0, 1, FRAME_HEADER_BYTES - 1] {
        assert!(decode_frame(&frame[8..8 + short]).is_none(), "{short} bytes decoded");
    }
    let unknown = WireFrame::new(0, 1, 2, 3, 7, Slab::new(vec![4, 5])).to_bytes();
    assert!(decode_frame(&unknown[8..]).is_none(), "kind byte 7 decoded");
}

/// A tag byte `Either` never writes is refused, not read as `Right`.
#[test]
fn either_rejects_an_unknown_tag() {
    let mut bytes = Either::<u64, String>::Right("r".to_string()).encode_to_vec();
    assert_eq!(bytes[0], 1);
    bytes[0] = 0xff;
    let message = panic_message(|| drop(Either::<u64, String>::decode_from_slice(&bytes)));
    assert_eq!(message, "corrupt Either: tag byte 255 is neither 0 (Left) nor 1 (Right)");
}

/// Tag bytes `Option` and `bool` never write are refused, not read as `Some`
/// and `true` — including a fragment's `last` flag, which decides when S
/// installs a bin.
#[test]
fn option_and_bool_reject_unknown_tags() {
    use megaphone::StateFragment;

    for tag in [2u8, 0x80, 0xff] {
        let mut bytes = Some("s".to_string()).encode_to_vec();
        bytes[0] = tag;
        let message = panic_message(|| drop(Option::<String>::decode_from_slice(&bytes)));
        assert_eq!(message, format!("corrupt Option: tag byte {tag} is neither 0 (None) nor 1 (Some)"));

        let message = panic_message(|| {
            let _ = bool::decode_from_slice(&[tag]);
        });
        assert_eq!(message, format!("corrupt bool: tag byte {tag} is neither 0 (false) nor 1 (true)"));

        let mut bytes = StateFragment { bin: 3, bytes: vec![1, 2], last: true }.encode_to_vec();
        *bytes.last_mut().expect("the last flag") = tag;
        let message = panic_message(|| drop(StateFragment::decode_from_slice(&bytes)));
        assert!(message.starts_with(&format!("corrupt bool: tag byte {tag} ")), "{message:?}");
    }
    // The bytes they do write still read back.
    assert_eq!(Option::<u64>::decode_from_slice(&[0]), None);
    assert_eq!(Option::<u64>::decode_from_slice(&Some(7u64).encode_to_vec()), Some(7));
    assert!(!bool::decode_from_slice(&[0]) && bool::decode_from_slice(&[1]));
}
