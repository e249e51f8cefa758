//! Criterion benches of migration encode/extract at large state sizes (the
//! regime of the paper's Figures 16–18): the old whole-bin path (one monolithic
//! encode + one monolithic decode) against the chunked fragment path, plus the
//! *max-stall* comparison — the largest single call either path performs. The
//! chunked path's worst single call touches at most one fragment budget of
//! bytes, while the whole-bin path's worst call scales with the bin.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use megaphone::codec::{encode_fragments, Assembler, Fragmenter};
use megaphone::storage::DurableConfig;
use megaphone::{Bin, BinStore, ChunkedCodec, Codec, Either, FlatTable, MegaphoneConfig};
use nexmark::queries::q8::Q8State;
use nexmark::{Auction, Person};
use timelite::hashing::FxHashMap;

type LargeBin = Bin<u64, FxHashMap<u64, u64>, (u64, u64)>;
type LargeStore = BinStore<u64, FxHashMap<u64, u64>, (u64, u64)>;

/// The fragment budget used throughout: the `MegaphoneConfig` default.
const CHUNK_BYTES: usize = 64 << 10;

/// Builds a bin whose encoding is roughly `target_bytes` (16 bytes per entry).
fn bin_of(target_bytes: usize) -> LargeBin {
    let entries = (target_bytes / 16).max(1) as u64;
    Bin { state: (0..entries).map(|k| (k, k * 7)).collect(), pending: Vec::new() }
}

/// `(label, approximate encoded bytes)` for the swept bin sizes.
const SIZES: [(&str, usize); 3] = [("1KB", 1 << 10), ("100KB", 100 << 10), ("10MB", 10 << 20)];

/// Full extract+install round trip, old path: one encode, one decode.
fn bench_whole_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large/whole");
    for (label, bytes) in SIZES {
        let bin = bin_of(bytes);
        group.bench_with_input(BenchmarkId::from_parameter(label), &bin, |b, bin| {
            // `extract` hands the bin over by value on either path; the setup
            // clone stands in for that ownership transfer on both sides.
            b.iter_batched(
                || bin.clone(),
                |bin| {
                    let encoded = black_box(&bin).encode_to_vec();
                    let decoded = LargeBin::decode_from_slice(&encoded);
                    decoded.state.len()
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Full extract+install round trip, chunked path: bounded-size fragments
/// streamed through an assembler, encoding into a reused scratch buffer as the
/// sharded store does.
fn bench_chunked_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large/chunked");
    for (label, bytes) in SIZES {
        let bin = bin_of(bytes);
        group.bench_with_input(BenchmarkId::from_parameter(label), &bin, |b, bin| {
            let mut scratch = Vec::with_capacity(CHUNK_BYTES * 2);
            // The store's extract takes the bin by value (no clone); the
            // setup clone here stands in for that ownership transfer and is
            // excluded from the measurement.
            b.iter_batched(
                || bin.clone(),
                |bin| {
                    let mut fragmenter = black_box(bin).into_fragmenter();
                    let mut assembler = LargeBin::assembler();
                    loop {
                        scratch.clear();
                        let more = fragmenter.fill(CHUNK_BYTES, &mut scratch);
                        let fragment = scratch.as_slice().to_vec();
                        let mut slice = &fragment[..];
                        assembler.absorb(&mut slice);
                        if !more {
                            break;
                        }
                    }
                    assembler.finish().state.len()
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Max-stall of the old path: the single monolithic encode call.
fn bench_stall_whole(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large/stall_whole");
    for (label, bytes) in SIZES {
        let bin = bin_of(bytes);
        group.bench_with_input(BenchmarkId::from_parameter(label), &bin, |b, bin| {
            b.iter(|| black_box(bin).encode_to_vec().len())
        });
    }
    group.finish();
}

/// Max-stall of the chunked path: one `fill` call producing one fragment.
/// Independent of bin size, this is the longest the F operator ever blocks on
/// encoding during a migration.
fn bench_stall_chunked(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large/stall_chunked");
    for (label, bytes) in SIZES {
        let bin = bin_of(bytes);
        group.bench_with_input(BenchmarkId::from_parameter(label), &bin, |b, bin| {
            let mut scratch = Vec::with_capacity(CHUNK_BYTES * 2);
            b.iter_batched(
                || bin.clone().into_fragmenter(),
                |mut fragmenter| {
                    scratch.clear();
                    fragmenter.fill(CHUNK_BYTES, &mut scratch);
                    scratch.len()
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The chunked install driven through the durable backend: every fragment is
/// WAL-appended before the assembler absorbs it and the commit record seals
/// the install — nothing else: no memtable insert, no table write. The delta
/// against `bin_migrate_large/chunked` is the price of durability on the
/// migration path, one checksum pass and one kernel copy per byte (fsync off — the process-crash model; the
/// per-iteration store open and directory reset happen in setup, untimed).
fn bench_durable_install(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large_durable/install");
    let root = std::env::temp_dir().join(format!("mp-bench-durable-{}", std::process::id()));
    // 1 MB is the benchmark's `hashcount_durable` bin: 16 fragments, one commit.
    for (label, bytes) in SIZES.into_iter().chain([("1MB", 1 << 20)]) {
        let fragments = encode_fragments(bin_of(bytes), CHUNK_BYTES);
        let dir = root.join(label);
        group.bench_with_input(BenchmarkId::from_parameter(label), &fragments, |b, fragments| {
            b.iter_batched(
                || {
                    let _ = std::fs::remove_dir_all(&dir);
                    let durable = DurableConfig::new(&dir).with_fsync(false);
                    let (store, recovered) =
                        LargeStore::open_durable(&MegaphoneConfig::new(2), &durable, "bench", 0)
                            .expect("open durable store");
                    assert!(!recovered, "the reset directory must open fresh");
                    store
                },
                |mut store| {
                    for (index, fragment) in fragments.iter().enumerate() {
                        store
                            .try_install_fragment(0, fragment, index + 1 == fragments.len())
                            .expect("durable install");
                    }
                    store.try_bin(0).map_or(0, |bin| bin.state.len())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// One bin through the store's migration path, the loop F and S run: the
/// bin is extracted, pumped fragment by fragment and installed again.
/// Returns the bytes moved.
fn migrate_round_trip<S, D>(store: &mut BinStore<u64, S, D>) -> usize
where
    S: ChunkedCodec + 'static,
    D: Codec + 'static,
{
    let mut extraction = store.extract_chunked(0).expect("bin 0 is hosted");
    let mut bytes = 0;
    loop {
        let (fragment, last) = extraction.next_fragment(CHUNK_BYTES);
        bytes += fragment.len();
        let installed = store.install_fragment(0, &fragment, last);
        if last {
            assert!(installed, "the last fragment installs the bin");
            break;
        }
    }
    store.recycle(extraction);
    bytes
}

/// The layer proof of the flat state layout: a Q8 bin as `q8_cluster2` moves
/// it — 1 300 registered sellers in a [`FlatTable`] and the window's one
/// pending sweep — against a `Vec<u64>` bin of the same encoded size, both
/// through `extract_chunked` → `next_fragment` → `install_fragment`. The two
/// times are MB/s in the same ratio; the flat bin must stay within 2x of the
/// vector. (As a `FxHashMap<u64, (Option<(u64, String)>, Vec<u64>)>` with one
/// reminder per seller the same sellers were 122 KB and took 66 µs to extract
/// plus 110 µs to install.)
fn bench_q8_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large/q8_shape");
    let config = MegaphoneConfig::new(0);

    let mut sellers = FlatTable::new();
    for seller in 0..1_300u64 {
        sellers.insert(seller * 0x9e37_79b9, 17, format!("seller {seller:>5}").as_bytes());
    }
    // `Q8State` is the table followed by its (here empty) waiting lists.
    let mut image = sellers.encode_to_vec();
    0u64.encode(&mut image);
    let sweep = Person {
        id: 0,
        name: String::new(),
        city: String::new(),
        state: String::new(),
        date_time: u64::MAX,
    };
    let mut flat = BinStore::<u64, Q8State, Either<Person, Auction>>::new(&config, 0, 1);
    *flat.bin_mut(0) = Bin {
        state: Q8State::decode_from_slice(&image),
        pending: vec![(18 * 60_000 + 10_000, vec![Either::Left(sweep)])],
    };
    let bytes = migrate_round_trip(&mut flat);
    group.bench_function("flat", |b| b.iter(|| migrate_round_trip(&mut flat)));

    let mut vec = BinStore::<u64, Vec<u64>, u64>::new(&config, 0, 1);
    // State and pending headers aside, eight bytes a word.
    vec.bin_mut(0).state = (0..(bytes as u64 - 16) / 8).collect();
    assert_eq!(migrate_round_trip(&mut vec), bytes / 8 * 8, "the same size, to the word");
    group.bench_function("vec", |b| b.iter(|| migrate_round_trip(&mut vec)));
    eprintln!("bin_migrate_large/q8_shape: {bytes} bytes per bin and round trip");
    group.finish();
}

criterion_group!(
    benches,
    bench_q8_shape,
    bench_whole_roundtrip,
    bench_chunked_roundtrip,
    bench_stall_whole,
    bench_stall_chunked,
    bench_durable_install
);
criterion_main!(benches);
