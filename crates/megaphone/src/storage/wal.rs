//! The per-store append-only write-ahead log.
//!
//! Every record is framed as `[payload_len: u32 LE][crc32(payload): u32 LE]
//! [payload]`, where the payload is a [`WalRecord`]: a one-byte tag, the bin
//! id, and for the two records that carry bytes a `u64` length followed by
//! the bytes. Migration fragments are logged verbatim — the `bytes` of a
//! [`WalRecord::Fragment`] are exactly one `Fragmenter` fragment, so replaying
//! the log re-feeds an in-flight `Assembler` the identical byte stream it saw
//! before the crash (fragments may only split at encoding-unit boundaries, so
//! the original boundaries must be preserved, not re-chunked).
//!
//! **One checksum pass, one copy.** The writer ([`Wal::append_all`]) takes
//! records that *borrow* their bytes ([`WalEntry`]): it stamps
//! `[len][crc][tag][bin][last][bytes len]` into a small stack prefix,
//! checksums prefix and bytes in one incremental pass, and hands
//! `[prefix][bytes]` of every record of the batch to the kernel in one
//! vectored write. The only copy a logged byte makes is the kernel's. The
//! pass runs at memory speed on x86_64 CPUs with CLMUL: the prefix folds on
//! the slicing-by-16 tables and hands its state to a carry-less-multiply
//! kernel for the bytes, which run at several times the tables' rate.
//! Elsewhere slicing-by-16 does all of it; the polynomial, and so every byte
//! on disk, is the same either way.
//!
//! Recovery tolerates a torn tail: [`replay_bytes`] stops at the first frame
//! whose header is short, whose payload is truncated, or whose checksum does
//! not match, and [`Wal::open`] truncates the file back to the last valid
//! frame so subsequent appends continue from a clean prefix. Earlier records
//! are never affected by a torn or corrupt tail. A frame that passes its
//! checksum yet is not a record (unknown tag, inner length disagreeing with
//! the frame) cannot be a torn write; `open` refuses the log with
//! [`StorageError::Corrupt`] rather than aborting or truncating it.

use std::fs::OpenOptions;
use std::io::{IoSlice, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::{fault_tick, StorageError};

/// Input bytes folded into the checksum per step (slicing-by-16).
const CRC_SLICES: usize = 16;

/// CRC-32 (IEEE 802.3, reflected) slicing tables, built at compile time.
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, which lets [`CRC_SLICES`] input
/// bytes fold into the state with as many independent lookups.
const CRC_TABLES: [[u32; 256]; CRC_SLICES] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let shorter = tables[k - 1][i];
            tables[k][i] = tables[0][(shorter & 0xFF) as usize] ^ (shorter >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds `bytes` into the running (inverted) CRC state `crc`, so a checksum
/// can span several slices: start from `u32::MAX`, invert the final state.
/// On x86_64 with CLMUL, the 16-byte blocks of a slice of 64 bytes or more
/// go through the carry-less-multiply kernel ([`clmul`]) and the last bytes
/// under 16 through [`crc32_slice16`]; everything else takes the slicing loop.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::detected() {
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `detected` has just confirmed at run time that this CPU
        // has the `pclmulqdq` and `sse4.1` features the kernel is compiled for.
        let crc = unsafe { clmul::fold(crc, blocks) };
        return crc32_slice16(crc, tail);
    }
    crc32_slice16(crc, bytes)
}

/// The portable path of [`crc32_update`]: slicing-by-16 over the
/// [`CRC_TABLES`], one table lookup per input byte.
fn crc32_slice16(mut crc: u32, bytes: &[u8]) -> u32 {
    let tables = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(CRC_SLICES);
    for chunk in &mut chunks {
        // The state only meets the chunk's first four bytes; byte `i` is
        // followed by `CRC_SLICES - 1 - i` bytes of this chunk.
        let head = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        crc = 0;
        for (i, &byte) in head.to_le_bytes().iter().enumerate() {
            crc ^= tables[CRC_SLICES - 1 - i][byte as usize];
        }
        for (i, &byte) in chunk.iter().enumerate().skip(4) {
            crc ^= tables[CRC_SLICES - 1 - i][byte as usize];
        }
    }
    for &byte in chunks.remainder() {
        crc = tables[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 by carry-less multiplication (PCLMULQDQ): the folding method of
/// Gopal et al., *Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction* (Intel, 2009), for the reflected IEEE polynomial,
/// with the fold and reduction constants libdeflate and Linux use. Four
/// 128-bit lanes fold 64 input bytes per step, one lane folds each remaining
/// 16, and a Barrett reduction takes the 64-bit remainder to the 32-bit state.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input worth the kernel: the four lanes it starts from.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4·128+32)` and `x^(4·128−32)` mod P, bit-reflected and shifted
    /// left by one: fold a lane across 64 bytes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128−32)` mod P, likewise: fold across 16 bytes.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64` mod P, likewise: reduce 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P(x) and the Barrett constant `⌊x^64 / P(x)⌋`, reflected.
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Whether this CPU can run [`fold`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The next 16 input bytes as one lane, little-endian.
    #[target_feature(enable = "sse2")]
    fn lane(bytes: &[u8]) -> __m128i {
        let low = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let high = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(high as i64, low as i64)
    }

    /// Folds `x` across the distance `keys` encodes and adds `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(x: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(x, keys);
        let high = _mm_clmulepi64_si128::<0x11>(x, keys);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// Folds `blocks` — at least [`MIN_LEN`] bytes, a multiple of 16 — into
    /// the inverted CRC state `crc`, as `crc32_slice16` would.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, blocks: &[u8]) -> u32 {
        debug_assert!(blocks.len() >= MIN_LEN && blocks.len().is_multiple_of(16));
        let mut chunks = blocks.chunks_exact(64);
        let first = chunks.next().expect("at least 64 bytes");
        let mut lanes =
            [lane(&first[..16]), lane(&first[16..32]), lane(&first[32..48]), lane(&first[48..])];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for chunk in &mut chunks {
            for (x, lane_bytes) in lanes.iter_mut().zip(chunk.chunks_exact(16)) {
                *x = fold_into(*x, lane(lane_bytes), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(lanes[0], lanes[1], k3k4);
        x = fold_into(x, lanes[2], k3k4);
        x = fold_into(x, lanes[3], k3k4);
        for lane_bytes in chunks.remainder().chunks_exact(16) {
            x = fold_into(x, lane(lane_bytes), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction, bit-reflected: the state is the upper half of
        // the low 64 bits of `R(x) ⊕ ⌊(⌊R(x) mod x^32⌋ · μ) mod x^32⌋ · P(x)`.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }
}

/// The CRC-32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(u32::MAX, bytes)
}

/// One logical record of the write-ahead log. Replay returns records that own
/// their bytes (`B = Vec<u8>`, the default); the writer takes records that
/// borrow them ([`WalEntry`]), so fragment and image bytes go from the
/// caller's buffer to the kernel without an intermediate copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalRecord<B = Vec<u8>> {
    /// One migration fragment of `bin`, byte-for-byte as produced by the
    /// bin's `Fragmenter` (and as shipped on the wire).
    Fragment {
        /// The bin being installed.
        bin: u64,
        /// Whether this is the bin's final fragment.
        last: bool,
        /// The fragment's slice of the bin's canonical encoding.
        bytes: B,
    },
    /// Seals an install: the bin's fragments are complete and the install was
    /// applied. A bin without a commit record is an in-flight install.
    Commit {
        /// The bin whose install completed.
        bin: u64,
        /// Total fragment bytes, as a consistency check during replay.
        total_bytes: u64,
    },
    /// The bin migrated away (or was dropped); its stored image is dead.
    Retire {
        /// The retired bin.
        bin: u64,
    },
    /// A cold bin's full encoded image, written when the bin is spilled out
    /// of memory. The image is the concatenation of the bin's fragments, so
    /// it doubles as the bin's migration wire image.
    Spill {
        /// The spilled bin.
        bin: u64,
        /// The bin's one-shot `Codec` encoding.
        image: B,
    },
}

/// A [`WalRecord`] that borrows its bytes: what [`Wal::append_all`] writes.
pub type WalEntry<'a> = WalRecord<&'a [u8]>;

impl WalRecord {
    /// The record with its bytes borrowed, as the writer takes it.
    pub fn as_entry(&self) -> WalEntry<'_> {
        match self {
            WalRecord::Fragment { bin, last, bytes } => {
                WalEntry::Fragment { bin: *bin, last: *last, bytes }
            }
            WalRecord::Commit { bin, total_bytes } => {
                WalEntry::Commit { bin: *bin, total_bytes: *total_bytes }
            }
            WalRecord::Retire { bin } => WalEntry::Retire { bin: *bin },
            WalRecord::Spill { bin, image } => WalEntry::Spill { bin: *bin, image },
        }
    }

    /// Decodes one checksum-valid frame payload; `None` when it is not a
    /// record (unknown tag, or an inner length that disagrees with the frame).
    fn decode(payload: &[u8]) -> Option<WalRecord> {
        fn take<'a>(rest: &mut &'a [u8], len: u64) -> Option<&'a [u8]> {
            let len = usize::try_from(len).ok().filter(|len| *len <= rest.len())?;
            let (head, tail) = rest.split_at(len);
            *rest = tail;
            Some(head)
        }
        fn take_u64(rest: &mut &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(take(rest, 8)?.try_into().expect("8 bytes")))
        }
        let mut rest = payload;
        let tag = take(&mut rest, 1)?[0];
        let bin = take_u64(&mut rest)?;
        let record = match tag {
            0 => {
                let last = take(&mut rest, 1)?[0] != 0;
                let len = take_u64(&mut rest)?;
                WalRecord::Fragment { bin, last, bytes: take(&mut rest, len)?.to_vec() }
            }
            1 => WalRecord::Commit { bin, total_bytes: take_u64(&mut rest)? },
            2 => WalRecord::Retire { bin },
            3 => {
                let len = take_u64(&mut rest)?;
                WalRecord::Spill { bin, image: take(&mut rest, len)?.to_vec() }
            }
            _ => return None,
        };
        rest.is_empty().then_some(record)
    }
}

/// Bytes of the frame header preceding every payload.
const FRAME_HEADER: usize = 8;
/// The longest stamped prefix: the frame header plus a fragment's
/// `[tag][bin u64][last][len u64]` head.
const PREFIX_MAX: usize = FRAME_HEADER + 18;
/// Most records gathered into one vectored write: two I/O slices each, well
/// under `IOV_MAX`.
const APPEND_BATCH: usize = 32;

/// The frame's `u32` length field for a payload of `head + tail` bytes. A
/// payload of 4 GiB or more cannot be framed and is refused.
fn frame_len(head: usize, tail: usize) -> Result<u32, StorageError> {
    let len = (head as u64).saturating_add(tail as u64);
    u32::try_from(len).map_err(|_| StorageError::RecordTooLarge(len))
}

impl<'a> WalRecord<&'a [u8]> {
    /// Stamps `[len u32][crc u32]` and the record's fixed-size head into
    /// `prefix`, checksumming head and byte tail in one incremental pass.
    /// Returns the stamped length and the tail that follows it on disk.
    fn stamp(self, prefix: &mut [u8; PREFIX_MAX]) -> Result<(usize, &'a [u8]), StorageError> {
        let mut at = FRAME_HEADER;
        let mut put = |bytes: &[u8]| {
            prefix[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        let tail: &[u8] = match self {
            WalEntry::Fragment { bin, last, bytes } => {
                put(&[0]);
                put(&bin.to_le_bytes());
                put(&[u8::from(last)]);
                put(&(bytes.len() as u64).to_le_bytes());
                bytes
            }
            WalEntry::Commit { bin, total_bytes } => {
                put(&[1]);
                put(&bin.to_le_bytes());
                put(&total_bytes.to_le_bytes());
                &[]
            }
            WalEntry::Retire { bin } => {
                put(&[2]);
                put(&bin.to_le_bytes());
                &[]
            }
            WalEntry::Spill { bin, image } => {
                put(&[3]);
                put(&bin.to_le_bytes());
                put(&(image.len() as u64).to_le_bytes());
                image
            }
        };
        let len = frame_len(at - FRAME_HEADER, tail.len())?;
        let crc = !crc32_update(crc32_update(u32::MAX, &prefix[FRAME_HEADER..at]), tail);
        prefix[..4].copy_from_slice(&len.to_le_bytes());
        prefix[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        Ok((at, tail))
    }
}

/// Writes every byte of `slices` with vectored writes, resuming after a
/// partial write mid-slice.
pub(super) fn write_all_vectored(
    out: &mut impl Write,
    mut slices: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut slices, 0); // drop leading empty slices
    while !slices.is_empty() {
        match out.write_vectored(slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(written) => IoSlice::advance_slices(&mut slices, written),
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

/// Replays the front of `bytes`: the decoded records, the offset of the end
/// of the last good frame, and `Err` when replay stopped at a frame whose
/// checksum holds but whose payload is not a record.
fn replay(bytes: &[u8]) -> (Vec<WalRecord>, usize, Result<(), StorageError>) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let remaining = bytes.len() - offset;
        if remaining < FRAME_HEADER {
            return (records, offset, Ok(()));
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
            as usize;
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if remaining - FRAME_HEADER < len {
            return (records, offset, Ok(()));
        }
        let payload = &bytes[offset + FRAME_HEADER..offset + FRAME_HEADER + len];
        if crc32(payload) != crc {
            return (records, offset, Ok(()));
        }
        let Some(record) = WalRecord::decode(payload) else {
            let corrupt = StorageError::Corrupt(format!(
                "WAL frame at byte offset {offset} passes its checksum but is not a record \
                 (unknown tag {:?} or an inner length that disagrees with its {len}-byte frame)",
                payload.first()
            ));
            return (records, offset, Err(corrupt));
        };
        records.push(record);
        offset += FRAME_HEADER + len;
    }
}

/// Decodes every complete, checksum-valid frame from the front of `bytes`.
///
/// Returns the decoded records and the byte offset of the end of the last
/// valid frame. A torn or corrupt tail (short header, truncated payload,
/// checksum mismatch, or a payload that is not a record) stops the replay
/// without touching earlier records and without panicking.
pub fn replay_bytes(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let (records, valid, _) = replay(bytes);
    (records, valid)
}

/// An open write-ahead log file, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    path: PathBuf,
    fsync: bool,
    bytes: u64,
    records: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays its valid prefix
    /// and truncates any torn tail. Returns the log positioned for appending
    /// plus the replayed records. A frame that passes its checksum but is not
    /// a record is not a torn tail: the open fails with
    /// [`StorageError::Corrupt`] naming its byte offset and leaves the file
    /// untouched.
    pub fn open(path: &Path, fsync: bool) -> Result<(Wal, Vec<WalRecord>), StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::io("wal-open", e))?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents).map_err(|e| StorageError::io("wal-read", e))?;
        let (records, valid, decoded) = replay(&contents);
        decoded?;
        if valid < contents.len() {
            file.set_len(valid as u64).map_err(|e| StorageError::io("wal-truncate", e))?;
        }
        file.seek(SeekFrom::Start(valid as u64)).map_err(|e| StorageError::io("wal-seek", e))?;
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            fsync,
            bytes: valid as u64,
            records: records.len() as u64,
        };
        Ok((wal, records))
    }

    /// Appends one record (framed and checksummed). Durability requires a
    /// subsequent [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        self.append_all([record.as_entry()])
    }

    /// Appends `entries` in order, framed and checksummed, gathering up to
    /// 32 records into one vectored write: each record's
    /// `[len][crc][head]` is stamped into a stack prefix and its bytes are
    /// written from where they lie. A record too large to frame is refused
    /// before any byte of its batch is written. Durability requires a
    /// subsequent [`Wal::sync`].
    pub fn append_all<'a>(
        &mut self,
        entries: impl IntoIterator<Item = WalEntry<'a>>,
    ) -> Result<(), StorageError> {
        let mut entries = entries.into_iter().peekable();
        while entries.peek().is_some() {
            let mut prefixes = [[0u8; PREFIX_MAX]; APPEND_BATCH];
            let mut frames: [(usize, &[u8]); APPEND_BATCH] = [(0, &[]); APPEND_BATCH];
            let mut count = 0;
            for (prefix, entry) in prefixes.iter_mut().zip(entries.by_ref()) {
                fault_tick("wal-append")?;
                frames[count] = entry.stamp(prefix)?;
                count += 1;
            }
            let mut slices = [IoSlice::new(&[]); 2 * APPEND_BATCH];
            let mut framed = 0;
            for (index, (prefix, (stamped, tail))) in
                prefixes.iter().zip(frames).take(count).enumerate()
            {
                slices[2 * index] = IoSlice::new(&prefix[..stamped]);
                slices[2 * index + 1] = IoSlice::new(tail);
                framed += stamped + tail.len();
            }
            write_all_vectored(&mut self.file, &mut slices[..2 * count])
                .map_err(|e| StorageError::io("wal-append", e))?;
            self.bytes += framed as u64;
            self.records += count as u64;
        }
        Ok(())
    }

    /// Makes every appended record durable (fsync, or a plain flush when the
    /// store was configured with `fsync: false` for tests and benchmarks).
    pub fn sync(&mut self) -> Result<(), StorageError> {
        fault_tick("wal-sync")?;
        if self.fsync {
            self.file.sync_data().map_err(|e| StorageError::io("wal-sync", e))
        } else {
            self.file.flush().map_err(|e| StorageError::io("wal-flush", e))
        }
    }

    /// Total framed bytes in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mp-wal-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table CRC the log was first written with: the reference
    /// the sliced implementation must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &byte in bytes {
            crc = CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// A deterministic xorshift64 byte stream.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed.max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    /// Pins both paths — the CLMUL kernel where this CPU has it and the
    /// slicing-by-16 fallback, called directly so it stays covered there too.
    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        let buffer = seeded_bytes(0x5EED, 1100 + 16);
        for align in 0..16 {
            for len in 0..=1100 {
                let bytes = &buffer[align..align + len];
                let reference = crc32_bytewise(bytes);
                assert_eq!(crc32(bytes), reference, "align {align} len {len}");
                assert_eq!(!crc32_slice16(u32::MAX, bytes), reference, "align {align} len {len}");
            }
        }
        // A stamped prefix folds on the table path and hands its state to the
        // kernel for the bytes after it: every cut gives the same checksum.
        let bytes = &buffer[..300];
        for cut in 0..=bytes.len() {
            let (head, tail) = bytes.split_at(cut);
            let crc = !crc32_update(crc32_update(u32::MAX, head), tail);
            assert_eq!(crc, crc32_bytewise(bytes), "cut {cut}");
        }
        for seed in 1..=3 {
            let bytes = seeded_bytes(seed, 1 << 20);
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "seed {seed}");
            assert_eq!(!crc32_slice16(u32::MAX, &bytes), crc32_bytewise(&bytes), "seed {seed}");
            let (head, tail) = bytes.split_at(seed as usize * 1000 + 7);
            assert_eq!(!crc32_update(crc32_update(u32::MAX, head), tail), crc32(&bytes));
        }
    }

    #[test]
    fn a_large_fragment_carries_the_bytewise_checksum_and_replays() {
        let path = temp_path("restamped.log");
        let _ = std::fs::remove_file(&path);
        let record = WalRecord::Fragment { bin: 11, last: true, bytes: seeded_bytes(64, 64 << 10) };
        let (mut wal, _) = Wal::open(&path, false).expect("open");
        wal.append(&record).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        let written = std::fs::read(&path).expect("read");
        let mut restamped = written.clone();
        let reference = crc32_bytewise(&restamped[FRAME_HEADER..]);
        restamped[4..FRAME_HEADER].copy_from_slice(&reference.to_le_bytes());
        assert_eq!(restamped, written, "the writer's checksum is the bytewise one");
        assert_eq!(replay_bytes(&restamped), (vec![record], restamped.len()));
        let _ = std::fs::remove_file(&path);
    }

    /// A five-record log, one of each variant plus an empty final fragment,
    /// as written by the copying, bytewise-CRC writer this module replaced.
    const GOLDEN_LOG_HEX: &str = "\
        1d0000002756d84a000300000000000000000b000000000000000102030405060708090a0b\
        120000008a80fa2300030000000000000001000000000000000011000000\
        5a92eb3a0103000000000000000b00000000000000\
        09000000640e1108020807060504030201\
        26000000f7934fc1030700000000000000150000000000000000254a6f94b9de03284d7297bce1062b50759abfe4";

    fn golden_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Fragment { bin: 3, last: false, bytes: (1..=11).collect() },
            WalRecord::Fragment { bin: 3, last: true, bytes: vec![] },
            WalRecord::Commit { bin: 3, total_bytes: 11 },
            WalRecord::Retire { bin: 0x0102_0304_0506_0708 },
            WalRecord::Spill { bin: 7, image: (0u8..21).map(|b| b.wrapping_mul(37)).collect() },
        ]
    }

    #[test]
    fn golden_log_replays_and_is_reproduced_byte_for_byte() {
        let golden: Vec<u8> = GOLDEN_LOG_HEX
            .as_bytes()
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16).expect("hex"))
            .collect();
        let (replayed, valid) = replay_bytes(&golden);
        assert_eq!(valid, golden.len(), "every golden frame must pass its checksum");
        assert_eq!(replayed, golden_records());

        let path = temp_path("golden.log");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, false).expect("open");
        for record in golden_records() {
            wal.append(&record).expect("append");
        }
        wal.sync().expect("sync");
        assert_eq!(wal.bytes(), golden.len() as u64);
        assert_eq!(std::fs::read(&path).expect("read"), golden, "the on-disk format must not move");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn owned_and_borrowed_appends_write_identical_bytes() {
        let fragments = [seeded_bytes(7, 3000), Vec::new(), seeded_bytes(9, 17)];
        let owned = temp_path("owned.log");
        let borrowed = temp_path("borrowed.log");
        for path in [&owned, &borrowed] {
            let _ = std::fs::remove_file(path);
        }
        let (mut wal, _) = Wal::open(&owned, false).expect("open");
        for (index, bytes) in fragments.iter().enumerate() {
            let record = WalRecord::Fragment { bin: 5, last: index == 2, bytes: bytes.clone() };
            wal.append(&record).expect("append");
        }
        wal.sync().expect("sync");
        // One batched, borrowed append of the same fragments.
        let (mut wal, _) = Wal::open(&borrowed, false).expect("open");
        wal.append_all(
            fragments
                .iter()
                .enumerate()
                .map(|(index, bytes)| WalEntry::Fragment { bin: 5, last: index == 2, bytes }),
        )
        .expect("append_all");
        wal.sync().expect("sync");
        assert_eq!(wal.records(), 3);
        assert_eq!(std::fs::read(&owned).expect("read"), std::fs::read(&borrowed).expect("read"));
        for path in [&owned, &borrowed] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn batches_longer_than_one_vectored_write_keep_their_order() {
        let path = temp_path("long-batch.log");
        let _ = std::fs::remove_file(&path);
        let records: Vec<WalRecord> = (0..(2 * APPEND_BATCH as u64 + 5))
            .map(|bin| WalRecord::Fragment { bin, last: false, bytes: vec![bin as u8; bin as usize] })
            .collect();
        let (mut wal, _) = Wal::open(&path, false).expect("open");
        wal.append_all(records.iter().map(WalRecord::as_entry)).expect("append_all");
        wal.sync().expect("sync");
        drop(wal);
        let (wal, recovered) = Wal::open(&path, false).expect("reopen");
        assert_eq!(recovered, records);
        assert_eq!(wal.bytes(), std::fs::metadata(&path).expect("stat").len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_of_4_gib_or_more_are_refused() {
        let limit = u32::MAX as usize;
        assert_eq!(frame_len(17, limit - 17).expect("largest frame"), u32::MAX);
        assert!(matches!(
            frame_len(17, limit - 16),
            Err(StorageError::RecordTooLarge(bytes)) if bytes == 1 << 32
        ));
        assert!(matches!(frame_len(18, usize::MAX), Err(StorageError::RecordTooLarge(_))));
    }

    /// A writer that accepts at most `step` bytes per call, to force
    /// partial vectored writes.
    struct Trickle {
        step: usize,
        written: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            let taken = bytes.len().min(self.step);
            self.written.extend_from_slice(&bytes[..taken]);
            Ok(taken)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_vectored_writes_resume_mid_slice() {
        let parts: [&[u8]; 6] = [b"", b"head", b"", b"a longer payload", b"x", b""];
        for step in 1..8 {
            let mut out = Trickle { step, written: Vec::new() };
            let mut slices = parts.map(IoSlice::new);
            write_all_vectored(&mut out, &mut slices).expect("write");
            assert_eq!(out.written, parts.concat(), "step {step}");
        }
    }

    #[test]
    fn records_roundtrip_through_the_log() {
        let path = temp_path("roundtrip.log");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            WalRecord::Fragment { bin: 3, last: false, bytes: vec![1, 2, 3] },
            WalRecord::Fragment { bin: 3, last: true, bytes: vec![4] },
            WalRecord::Commit { bin: 3, total_bytes: 4 },
            WalRecord::Retire { bin: 9 },
            WalRecord::Spill { bin: 7, image: vec![0; 100] },
        ];
        {
            let (mut wal, recovered) = Wal::open(&path, false).expect("open");
            assert!(recovered.is_empty());
            for record in &records {
                wal.append(record).expect("append");
            }
            wal.sync().expect("sync");
        }
        let (wal, recovered) = Wal::open(&path, false).expect("reopen");
        assert_eq!(recovered, records);
        assert_eq!(wal.records(), records.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = temp_path("torn.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, false).expect("open");
            wal.append(&WalRecord::Retire { bin: 1 }).expect("append");
            wal.append(&WalRecord::Retire { bin: 2 }).expect("append");
            wal.sync().expect("sync");
        }
        // Tear the final record mid-frame.
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear");
        let (mut wal, recovered) = Wal::open(&path, false).expect("reopen");
        assert_eq!(recovered, vec![WalRecord::Retire { bin: 1 }]);
        wal.append(&WalRecord::Retire { bin: 5 }).expect("append after tear");
        wal.sync().expect("sync");
        drop(wal);
        let (_, recovered) = Wal::open(&path, false).expect("reopen again");
        assert_eq!(recovered, vec![WalRecord::Retire { bin: 1 }, WalRecord::Retire { bin: 5 }]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_mismatch_stops_replay() {
        let path = temp_path("corrupt.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, false).expect("open");
            wal.append(&WalRecord::Retire { bin: 1 }).expect("append");
            wal.append(&WalRecord::Spill { bin: 2, image: vec![7; 32] }).expect("append");
            wal.sync().expect("sync");
        }
        let mut full = std::fs::read(&path).expect("read");
        let last = full.len() - 1;
        full[last] ^= 0xFF; // flip a payload byte of the final record
        std::fs::write(&path, &full).expect("corrupt");
        let (_, recovered) = Wal::open(&path, false).expect("reopen");
        assert_eq!(recovered, vec![WalRecord::Retire { bin: 1 }]);
        let _ = std::fs::remove_file(&path);
    }
}
