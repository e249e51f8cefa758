//! Regression tests for migrating large (multi-megabyte) bins: the chunked
//! extract/install path must round-trip byte-identically to the monolithic
//! codec, respect the fragment budget, and keep a live dataflow correct when
//! a bin large enough to need many fragments moves between workers.
//!
//! Which path a live migration takes is pinned by a state that counts its
//! codec calls: a bin whose new owner shares the process is handed over
//! without one encode or decode, while a move to another process, or out of a
//! durable store, still streams fragments.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use megaphone::prelude::*;
use megaphone::{Assembler, Bin, BinStore, Codec, Fragmenter};
use timelite::communication::free_addresses;
use timelite::hashing::FxHashMap;
use timelite::prelude::*;

/// Builds a bin whose encoded size is roughly `target_bytes`.
fn big_bin(target_bytes: usize) -> Bin<u64, FxHashMap<u64, Vec<u64>>, (u64, u64)> {
    // Each entry: 8-byte key + 8-byte vec header + 3 * 8-byte values = 40 bytes.
    let entries = target_bytes / 40;
    Bin {
        state: (0..entries as u64).map(|k| (k, vec![k, k * 2, k * 3])).collect(),
        pending: (0..16u64).map(|i| (100 + i, vec![(i, i * i)])).collect(),
    }
}

/// The chunked extract/install path round-trips a multi-megabyte bin
/// byte-identically, and no fragment exceeds the chunk budget.
#[test]
fn multi_megabyte_bin_roundtrips_in_bounded_fragments() {
    let chunk_bytes = 64 << 10;
    let config = MegaphoneConfig::new(1).with_chunk_bytes(chunk_bytes);
    type Store = BinStore<u64, FxHashMap<u64, Vec<u64>>, (u64, u64)>;

    let mut source: Store = BinStore::new(&config, 0, 1);
    let original = big_bin(8 << 20);
    let whole_encoding = original.encode_to_vec();
    assert!(whole_encoding.len() > 4 << 20, "test bin must be multi-megabyte");
    *source.bin_mut(0) = original.clone();

    let mut extraction = source.extract_chunked(0).expect("bin 0 hosted");
    let mut target: Store = BinStore::empty(2);
    let mut concatenated = Vec::new();
    let mut fragments = 0usize;
    loop {
        let (bytes, last) = extraction.next_fragment(chunk_bytes);
        assert!(
            bytes.len() <= chunk_bytes,
            "fragment {fragments} is {} bytes, over the {chunk_bytes}-byte budget",
            bytes.len()
        );
        concatenated.extend_from_slice(&bytes);
        let installed = target.install_fragment(0, &bytes, last);
        fragments += 1;
        assert_eq!(installed, last);
        if last {
            break;
        }
    }
    source.recycle(extraction);

    assert!(
        fragments >= (whole_encoding.len() / chunk_bytes).max(2),
        "a multi-megabyte bin must produce many fragments, got {fragments}"
    );
    assert_eq!(
        concatenated, whole_encoding,
        "concatenated fragments must equal the monolithic encoding byte for byte"
    );
    assert_eq!(target.try_bin(0).expect("installed"), &original);
    assert_eq!(target.load(0).bytes, whole_encoding.len() as u64);
}

/// Encodes (fragment fills and whole-value encodes) of [`Counted`] state.
static ENCODES: AtomicUsize = AtomicUsize::new(0);
/// Decodes (fragment absorbs and whole-value decodes) of [`Counted`] state.
static DECODES: AtomicUsize = AtomicUsize::new(0);
/// Serializes the tests that read the two counters.
static COUNTING: Mutex<()> = Mutex::new(());

/// Takes the counters for one test and zeroes them.
fn counting() -> MutexGuard<'static, ()> {
    let guard = COUNTING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    ENCODES.store(0, Ordering::SeqCst);
    DECODES.store(0, Ordering::SeqCst);
    guard
}

/// `(encodes, decodes)` of [`Counted`] state since [`counting`].
fn codec_calls() -> (usize, usize) {
    (ENCODES.load(Ordering::SeqCst), DECODES.load(Ordering::SeqCst))
}

/// Per-bin state that counts every codec call made on it.
#[derive(Default)]
struct Counted(FxHashMap<u64, Vec<u64>>);

type Inner = FxHashMap<u64, Vec<u64>>;

impl Codec for Counted {
    fn encode(&self, bytes: &mut Vec<u8>) {
        ENCODES.fetch_add(1, Ordering::SeqCst);
        self.0.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        DECODES.fetch_add(1, Ordering::SeqCst);
        Counted(Inner::decode(bytes))
    }
}

struct CountingFragmenter(<Inner as ChunkedCodec>::Fragmenter);

impl Fragmenter for CountingFragmenter {
    fn fill(&mut self, budget: usize, buf: &mut Vec<u8>) -> bool {
        ENCODES.fetch_add(1, Ordering::SeqCst);
        self.0.fill(budget, buf)
    }
}

struct CountingAssembler(<Inner as ChunkedCodec>::Assembler);

impl Assembler for CountingAssembler {
    type Value = Counted;
    fn absorb(&mut self, bytes: &mut &[u8]) {
        DECODES.fetch_add(1, Ordering::SeqCst);
        self.0.absorb(bytes);
    }
    fn is_complete(&self) -> bool {
        self.0.is_complete()
    }
    fn finish(self) -> Counted {
        Counted(self.0.finish())
    }
}

impl ChunkedCodec for Counted {
    type Fragmenter = CountingFragmenter;
    type Assembler = CountingAssembler;
    fn into_fragmenter(self) -> CountingFragmenter {
        CountingFragmenter(self.0.into_fragmenter())
    }
    fn assembler() -> CountingAssembler {
        CountingAssembler(Inner::assembler())
    }
}

/// Every worker's `(time, (key, count))` outputs, flattened and sorted.
type Outputs = Vec<(u64, (u64, u64))>;

/// One worker of a two-worker dataflow in which megabytes of state (far more
/// than one fragment) migrate mid-stream: each worker loads ~1.5 MB, every
/// bin moves to worker 1, then every key is appended to. With `durable`, the
/// worker's store lives under that directory.
fn large_state_migration(worker: &mut Worker, durable: Option<PathBuf>) -> Outputs {
    if let Some(root) = durable {
        set_worker_storage(StorageConfig::Durable(DurableConfig::new(root).with_fsync(false)));
    }
    let index = worker.index();
    // One bin per worker initially; small chunks force many fragments.
    let config = MegaphoneConfig::new(1).with_chunk_bytes(4 << 10);
    let received = Rc::new(RefCell::new(Vec::new()));
    let received_inner = received.clone();

    let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
        let (control_input, control) = scope.new_input::<ControlInst>();
        let (data_input, data) = scope.new_input::<(u64, Vec<u64>)>();
        let output = stateful_unary::<_, (u64, Vec<u64>), Counted, (u64, u64), _, _>(
            config,
            &control,
            &data,
            "LargeState",
            |(key, _)| timelite::hashing::hash_code(key),
            |_time, records, state, _notificator| {
                let mut outputs = Vec::new();
                for (key, values) in records {
                    let entry = state.0.entry(key).or_default();
                    entry.extend(values);
                    outputs.push((key, entry.len() as u64));
                }
                outputs
            },
        );
        output
            .stream
            .inspect(move |time, record| received_inner.borrow_mut().push((*time, *record)));
        (control_input, data_input, output)
    });

    // Epoch 0: every worker loads ~1.5 MB of state into the key space.
    for key in 0..64u64 {
        data.send((key * 2 + index as u64, vec![7; 3_000]));
    }
    control.advance_to(1);
    data.advance_to(1);
    worker.step_while(|| output.probe.less_than(&1));

    // Epoch 1: move every bin to worker 1. Encoded, worker 0's bin leaves
    // as dozens of fragments: each 24 KB entry exceeds the 4 KiB budget and
    // travels alone. Handed over, it leaves as one message.
    if index == 0 {
        control.send(ControlInst::Map(vec![1; config.bins()]));
    }
    control.advance_to(2);
    data.advance_to(2);
    worker.step_while(|| output.probe.less_than(&2));
    if index == 1 {
        if let Some(stats) = output.storage.stats() {
            assert!(stats.wal_records > 0, "the durable receiver logged no fragment");
        }
    }

    // Epoch 2: append to every key; counts must continue from the
    // migrated state.
    for key in 0..64u64 {
        data.send((key * 2 + index as u64, vec![9; 10]));
    }
    drop(control);
    drop(data);
    worker.step_until_complete();
    let collected = received.borrow().clone();
    collected
}

/// Flattens and sorts the workers' outputs, checking that every key's count
/// continued across the migration.
fn checked(outputs: Vec<Outputs>) -> Outputs {
    let mut all: Outputs = outputs.into_iter().flatten().collect();
    all.sort_unstable();
    let mut finals: HashMap<u64, u64> = HashMap::new();
    for &(_time, (key, count)) in &all {
        let entry = finals.entry(key).or_insert(0);
        *entry = (*entry).max(count);
    }
    assert_eq!(finals.len(), 128);
    assert!(
        finals.values().all(|&count| count == 3_010),
        "some keys lost state across the migration"
    );
    all
}

/// The large-state migration on two processes of one worker each (threads
/// standing in for processes, over loopback TCP): the bins cross a process
/// boundary, so they leave as fragments.
fn two_process_run() -> Outputs {
    let addresses = free_addresses(2);
    let handles: Vec<_> = (0..2)
        .map(|process| {
            let addresses = addresses.clone();
            std::thread::spawn(move || {
                timelite::execute(Config::cluster(process, 1, addresses), |worker| {
                    large_state_migration(worker, None)
                })
            })
        })
        .collect();
    checked(
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("process thread panicked"))
            .collect(),
    )
}

/// A live two-worker dataflow stays correct when a bin carrying megabytes of
/// state migrates mid-stream, whether it crosses a process boundary (dozens of
/// fragments) or moves within one: counts accumulated before the
/// migration survive, and post-migration records land on them.
#[test]
fn live_migration_of_large_state_preserves_counts() {
    let _counting = counting();
    let across = two_process_run();
    let (encodes, decodes) = codec_calls();
    assert!(encodes >= 32, "a move to another process must stream fragments, got {encodes}");
    assert!(decodes >= 32, "fragments must be absorbed one by one, got {decodes}");
    let within = checked(timelite::execute(Config::process(2), |worker| {
        large_state_migration(worker, None)
    }));
    assert_eq!(within, across);
}

/// A migration to a worker of the same process hands the bin over: no
/// fragment is encoded or decoded, and the outputs are those of the encoded
/// path.
#[test]
fn in_process_migration_never_touches_the_codec() {
    let _counting = counting();
    let within = checked(timelite::execute(Config::process(2), |worker| {
        large_state_migration(worker, None)
    }));
    assert_eq!(codec_calls(), (0, 0), "an in-process migration encoded or decoded state");
    let across = two_process_run();
    assert_eq!(within, across);
}

/// A durable store takes the encoded path even within one process: its new
/// owner logs every fragment to its WAL before the bin becomes visible.
#[test]
fn durable_in_process_migration_still_logs_fragments() {
    let _counting = counting();
    let root = std::env::temp_dir().join(format!("mp-chunked-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let durable = {
        let root = root.clone();
        checked(timelite::execute(Config::process(2), move |worker| {
            large_state_migration(worker, Some(root.clone()))
        }))
    };
    let _ = std::fs::remove_dir_all(&root);
    let (encodes, decodes) = codec_calls();
    assert!(encodes >= 32, "a durable store must ship fragments, got {encodes} encodes");
    assert!(decodes >= 32, "a durable store must absorb fragments, got {decodes} decodes");
    let within = checked(timelite::execute(Config::process(2), |worker| {
        large_state_migration(worker, None)
    }));
    assert_eq!(durable, within);
}
