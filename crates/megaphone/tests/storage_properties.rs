//! Property-style tests for the WAL framing (seeded, reproducible — the
//! build is offline, so no `proptest`): arbitrary append sequences must
//! round-trip byte-for-byte through [`replay_bytes`] and a [`Wal`] reopen,
//! and a torn tail — the file truncated at *every* byte offset inside the
//! final record — must be detected by the length/checksum framing, cleanly
//! ignored, and never panic or corrupt the records before it. A frame whose
//! checksum holds but whose payload is not a record (hostile or foreign
//! bytes, not a torn write) must fail the open with a typed error instead.

use std::path::PathBuf;

use megaphone::storage::{crc32, replay_bytes, StorageError, Wal, WalRecord};

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

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// One arbitrary WAL record, covering every variant and payload sizes
    /// from empty to a few hundred bytes.
    fn record(&mut self) -> WalRecord {
        match self.below(4) {
            0 => WalRecord::Fragment {
                bin: self.below(1 << 20),
                last: self.below(2) == 0,
                bytes: self.bytes(300),
            },
            1 => WalRecord::Commit { bin: self.below(1 << 20), total_bytes: self.next() },
            2 => WalRecord::Retire { bin: self.below(1 << 20) },
            _ => WalRecord::Spill { bin: self.below(1 << 20), image: self.bytes(300) },
        }
    }
}

/// A scratch WAL path, unique per test and process.
fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-storage-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("failed to create the scratch directory");
    dir.join(name)
}

/// Appends `records` to a fresh WAL at `path` and returns the raw log bytes.
fn write_log(path: &PathBuf, records: &[WalRecord]) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (mut wal, recovered) = Wal::open(path, false).expect("open fresh wal");
    assert!(recovered.is_empty(), "fresh wal replayed {} records", recovered.len());
    for record in records {
        wal.append(record).expect("append");
    }
    wal.sync().expect("sync");
    drop(wal);
    std::fs::read(path).expect("read log bytes")
}

#[test]
fn arbitrary_append_sequences_round_trip() {
    let path = wal_path("round-trip.log");
    for seed in 0..50 {
        let mut rng = Rng::new(seed);
        let count = rng.below(40) as usize;
        let records: Vec<WalRecord> = (0..count).map(|_| rng.record()).collect();
        let contents = write_log(&path, &records);

        // Pure replay of the raw bytes: every record, nothing torn.
        let (replayed, valid) = replay_bytes(&contents);
        assert_eq!(valid, contents.len(), "seed {seed}: replay stopped early");
        assert_eq!(replayed, records, "seed {seed}: replay diverged");

        // Reopening the file must recover the identical sequence and keep
        // appending from the end.
        let (mut wal, recovered) = Wal::open(&path, false).expect("reopen wal");
        assert_eq!(recovered, records, "seed {seed}: reopen diverged");
        let extra = WalRecord::Retire { bin: u64::MAX };
        wal.append(&extra).expect("append after reopen");
        wal.sync().expect("sync after reopen");
        drop(wal);
        let (replayed, _) = replay_bytes(&std::fs::read(&path).expect("reread"));
        let mut expected = records;
        expected.push(extra);
        assert_eq!(replayed, expected, "seed {seed}: append after reopen diverged");
    }
}

#[test]
fn torn_tails_at_every_byte_offset_are_detected_and_ignored() {
    let path = wal_path("torn-tail.log");
    for seed in 0..20 {
        let mut rng = Rng::new(0xBEEF ^ seed);
        // At least one earlier record that must survive the torn tail.
        let count = 1 + rng.below(10) as usize;
        let mut records: Vec<WalRecord> = (0..count).map(|_| rng.record()).collect();
        let final_record = rng.record();
        records.push(final_record);
        let contents = write_log(&path, &records);
        let survivors = &records[..records.len() - 1];

        let prefix = write_log(&wal_path("torn-prefix.log"), survivors).len();
        assert!(prefix < contents.len(), "seed {seed}: final record added no bytes");

        // Truncate at every byte offset inside the final record, including
        // its very first byte (prefix) and all but its last (len - 1).
        for cut in prefix..contents.len() {
            let torn = &contents[..cut];
            let (replayed, valid) = replay_bytes(torn);
            assert_eq!(
                valid, prefix,
                "seed {seed} cut {cut}: valid prefix must end at the last whole record"
            );
            assert_eq!(replayed, survivors, "seed {seed} cut {cut}: earlier records corrupted");

            // Opening the torn file must truncate it back to the valid
            // prefix and recover the survivors, never panicking.
            std::fs::write(&path, torn).expect("write torn log");
            let (wal, recovered) = Wal::open(&path, false).expect("open torn wal");
            assert_eq!(recovered, survivors, "seed {seed} cut {cut}: reopen diverged");
            drop(wal);
            let len = std::fs::metadata(&path).expect("stat").len() as usize;
            assert_eq!(len, prefix, "seed {seed} cut {cut}: torn tail not truncated");
        }
    }
}

#[test]
fn corrupt_checksums_cut_the_replay_at_the_flipped_record() {
    let path = wal_path("corrupt.log");
    for seed in 0..20 {
        let mut rng = Rng::new(0xC0DE ^ seed);
        let count = 2 + rng.below(10) as usize;
        let records: Vec<WalRecord> = (0..count).map(|_| rng.record()).collect();
        let mut contents = write_log(&path, &records);

        // Flip one random byte; replay must stop at (or before) the record
        // containing it and reproduce an exact prefix of the original.
        let victim = rng.below(contents.len() as u64) as usize;
        contents[victim] ^= 0x01 + rng.below(0xFF) as u8;
        let (replayed, valid) = replay_bytes(&contents);
        assert!(valid <= contents.len(), "seed {seed}: valid range out of bounds");
        assert!(
            replayed.len() < records.len(),
            "seed {seed}: a flipped byte at {victim} went undetected"
        );
        assert_eq!(
            replayed,
            records[..replayed.len()],
            "seed {seed}: corruption changed records before the flip"
        );
    }
}

#[test]
fn checksum_valid_frames_that_are_not_records_fail_the_open_without_panicking() {
    let path = wal_path("undecodable.log");
    for seed in 0..60 {
        let mut rng = Rng::new(0xBAD_7A6 ^ seed);
        let count = 1 + rng.below(12) as usize;
        let records: Vec<WalRecord> = (0..count).map(|_| rng.record()).collect();
        let mut contents = write_log(&path, &records);

        // Walk the frames to the victim's `[len u32][crc u32][payload]`.
        let victim = rng.below(count as u64) as usize;
        let mut offset = 0;
        for _ in 0..victim {
            let len = u32::from_le_bytes(contents[offset..offset + 4].try_into().unwrap());
            offset += 8 + len as usize;
        }
        let len = u32::from_le_bytes(contents[offset..offset + 4].try_into().unwrap()) as usize;
        let payload = offset + 8..offset + 8 + len;

        // Either an unknown tag, or (for the records that carry bytes) an
        // inner length that over- or under-runs the frame.
        let inner_len = match &records[victim] {
            WalRecord::Fragment { .. } => Some(payload.start + 10),
            WalRecord::Spill { .. } => Some(payload.start + 9),
            WalRecord::Commit { .. } | WalRecord::Retire { .. } => None,
        };
        match inner_len.filter(|_| rng.below(2) == 0) {
            Some(at) => {
                let stored = u64::from_le_bytes(contents[at..at + 8].try_into().unwrap());
                let wrong = match rng.below(3) {
                    0 => stored + 1 + rng.below(1 << 40),
                    1 => u64::MAX - rng.below(16),
                    _ => stored.checked_sub(1).unwrap_or(1),
                };
                contents[at..at + 8].copy_from_slice(&wrong.to_le_bytes());
            }
            None => contents[payload.start] = 4 + rng.below(252) as u8,
        }
        let restamped = crc32(&contents[payload.clone()]);
        contents[offset + 4..offset + 8].copy_from_slice(&restamped.to_le_bytes());

        // Pure replay stops at the bad frame and keeps the records before it.
        let (replayed, valid) = replay_bytes(&contents);
        assert_eq!(valid, offset, "seed {seed}: replay must stop at the undecodable frame");
        assert_eq!(replayed, records[..victim], "seed {seed}: earlier records corrupted");

        // Opening names the offset and leaves the file as it found it.
        std::fs::write(&path, &contents).expect("write mutated log");
        match Wal::open(&path, false) {
            Err(StorageError::Corrupt(what)) => assert!(
                what.contains(&format!("byte offset {offset} ")),
                "seed {seed}: error must name byte offset {offset}: {what}"
            ),
            other => panic!("seed {seed}: expected Corrupt, got {:?}", other.map(|(_, records)| records)),
        }
        assert_eq!(std::fs::read(&path).expect("reread"), contents, "seed {seed}: open modified the log");
    }
}
