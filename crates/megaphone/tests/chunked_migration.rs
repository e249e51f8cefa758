//! Regression tests for migrating large (multi-megabyte) bins: the chunked
//! extract/install path must round-trip byte-identically to the monolithic
//! codec, respect the fragment budget, and keep a live dataflow correct when
//! a bin large enough to need many fragments moves between workers.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use megaphone::prelude::*;
use megaphone::{Bin, BinStore, Codec};
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

/// A live two-worker dataflow stays correct when a bin carrying megabytes of
/// state (far more than one fragment) migrates mid-stream: counts accumulated
/// before the migration survive, and post-migration records land on them.
#[test]
fn live_migration_of_large_state_preserves_counts() {
    let outputs = timelite::execute(Config::process(2), |worker| {
        let index = worker.index();
        // One bin per worker initially; small chunks force many fragments.
        let config = MegaphoneConfig::new(1).with_chunk_bytes(4 << 10);
        let received = Rc::new(RefCell::new(Vec::new()));
        let received_inner = received.clone();

        let (mut control, mut data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<(u64, Vec<u64>)>();
            let output = stateful_unary::<_, (u64, Vec<u64>), FxHashMap<u64, Vec<u64>>, (u64, u64), _, _>(
                config,
                &control,
                &data,
                "LargeState",
                |(key, _)| timelite::hashing::hash_code(key),
                |_time, records, state, _notificator| {
                    let mut outputs = Vec::new();
                    for (key, values) in records {
                        let entry = state.entry(key).or_default();
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

        // Epoch 1: move every bin to worker 1 (hundreds of 4 KiB fragments).
        if index == 0 {
            control.send(ControlInst::Map(vec![1; config.bins()]));
        }
        control.advance_to(2);
        data.advance_to(2);
        worker.step_while(|| output.probe.less_than(&2));

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
    });

    let all: Vec<(u64, (u64, u64))> = outputs.into_iter().flatten().collect();
    let mut finals: HashMap<u64, u64> = HashMap::new();
    for (_time, (key, count)) in all {
        let entry = finals.entry(key).or_insert(0);
        *entry = (*entry).max(count);
    }
    assert_eq!(finals.len(), 128);
    assert!(
        finals.values().all(|&count| count == 3_010),
        "some keys lost state across the chunked migration"
    );
}
