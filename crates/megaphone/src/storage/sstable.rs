//! Immutable sorted string tables: the spill tier below the memtable.
//!
//! A table holds the full encoded images of a set of bins, sorted by bin id,
//! with an in-file index and a [`BloomFilter`] so point reads cost at most one
//! seek (and usually zero, when the bloom filter rejects the bin). File
//! layout:
//!
//! ```text
//! [magic u32][version u32]
//! [count u64] ([bin u64][len u64][image bytes])*
//! [footer: Codec(index, bloom)]
//! [footer_len u64][magic u32]
//! ```
//!
//! Tables are written once and never modified; the size-tiered compactor
//! merges several tables newest-wins into a fresh one and deletes the olds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::codec::Codec;

use super::bloom::BloomFilter;
use super::wal::write_all_vectored;
use super::{fault_tick, StorageError};

const MAGIC: u32 = 0x4D50_5354; // "MPST"
const VERSION: u32 = 1;
/// Trailer: `[footer_len u64][magic u32]`.
const TRAILER: u64 = 12;
/// Bloom filter budget per stored bin.
const BLOOM_BITS_PER_KEY: usize = 10;

/// The file name of the table with sequence number `seq`.
pub fn table_file_name(seq: u64) -> String {
    format!("sst-{seq:010}.sst")
}

/// One immutable on-disk table, with its index and bloom filter resident.
#[derive(Debug)]
pub struct SsTable {
    path: PathBuf,
    seq: u64,
    /// Read handle; interior-mutable because reads seek.
    file: RefCell<File>,
    /// `(bin, payload offset, payload len)`, ascending by bin.
    index: Vec<(u64, u64, u64)>,
    bloom: BloomFilter,
    /// Bytes of entry data (header through last image, excluding the footer).
    data_bytes: u64,
}

impl SsTable {
    /// Writes `entries` (sorted ascending by bin, one image per bin) as table
    /// `seq` in `dir` and returns the opened table.
    pub fn write(
        dir: &Path,
        seq: u64,
        entries: &[(u64, Vec<u8>)],
        fsync: bool,
    ) -> Result<SsTable, StorageError> {
        fault_tick("sst-write")?;
        debug_assert!(
            entries.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "sstable entries must be sorted by bin with no duplicates"
        );
        let path = dir.join(table_file_name(seq));
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&VERSION.to_le_bytes());
        (entries.len() as u64).encode(&mut header);
        // Images are written from where they lie: only the per-entry
        // `[bin][len]` heads and the footer are staged.
        let mut heads = Vec::with_capacity(entries.len() * 16);
        let mut index = Vec::with_capacity(entries.len());
        let mut bloom = BloomFilter::new(entries.len(), BLOOM_BITS_PER_KEY);
        let mut data_bytes = header.len() as u64;
        for (bin, image) in entries {
            bin.encode(&mut heads);
            (image.len() as u64).encode(&mut heads);
            index.push((*bin, data_bytes + 16, image.len() as u64));
            data_bytes += 16 + image.len() as u64;
            bloom.insert(*bin);
        }
        let mut footer = Vec::new();
        index.encode(&mut footer);
        bloom.encode(&mut footer);
        let footer_len = footer.len() as u64;
        footer.extend_from_slice(&footer_len.to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        let mut slices = Vec::with_capacity(2 * entries.len() + 2);
        slices.push(IoSlice::new(&header));
        for (head, (_, image)) in heads.chunks_exact(16).zip(entries) {
            slices.push(IoSlice::new(head));
            slices.push(IoSlice::new(image));
        }
        slices.push(IoSlice::new(&footer));

        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StorageError::io("sst-create", e))?;
        write_all_vectored(&mut file, &mut slices).map_err(|e| StorageError::io("sst-write", e))?;
        if fsync {
            file.sync_data().map_err(|e| StorageError::io("sst-sync", e))?;
        }
        drop(file);
        let file = File::open(&path).map_err(|e| StorageError::io("sst-reopen", e))?;
        Ok(SsTable { path, seq, file: RefCell::new(file), index, bloom, data_bytes })
    }

    /// Opens an existing table, reading only its footer.
    pub fn open(path: &Path) -> Result<SsTable, StorageError> {
        let seq = path
            .file_name()
            .and_then(|name| name.to_str())
            .and_then(|name| name.strip_prefix("sst-"))
            .and_then(|name| name.strip_suffix(".sst"))
            .and_then(|digits| digits.parse::<u64>().ok())
            .ok_or_else(|| {
                StorageError::Corrupt(format!("unparseable sstable name {}", path.display()))
            })?;
        let mut file = File::open(path).map_err(|e| StorageError::io("sst-open", e))?;
        let total = file
            .metadata()
            .map_err(|e| StorageError::io("sst-stat", e))?
            .len();
        if total < 8 + TRAILER {
            return Err(StorageError::Corrupt(format!(
                "sstable {} too short ({total} bytes)",
                path.display()
            )));
        }
        let mut header = [0u8; 8];
        file.read_exact(&mut header).map_err(|e| StorageError::io("sst-read", e))?;
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if magic != MAGIC || version != VERSION {
            return Err(StorageError::Corrupt(format!(
                "sstable {} bad header magic/version {magic:#x}/{version}",
                path.display()
            )));
        }
        file.seek(SeekFrom::Start(total - TRAILER))
            .map_err(|e| StorageError::io("sst-seek", e))?;
        let mut trailer = [0u8; TRAILER as usize];
        file.read_exact(&mut trailer).map_err(|e| StorageError::io("sst-read", e))?;
        let footer_len = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
        let tail_magic = u32::from_le_bytes(trailer[8..12].try_into().expect("4 bytes"));
        if tail_magic != MAGIC || footer_len > total - TRAILER {
            return Err(StorageError::Corrupt(format!(
                "sstable {} bad trailer (footer {footer_len} of {total} bytes)",
                path.display()
            )));
        }
        let footer_start = total - TRAILER - footer_len;
        file.seek(SeekFrom::Start(footer_start))
            .map_err(|e| StorageError::io("sst-seek", e))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact(&mut footer).map_err(|e| StorageError::io("sst-read", e))?;
        let mut slice = &footer[..];
        let index = Vec::<(u64, u64, u64)>::decode(&mut slice);
        let bloom = BloomFilter::decode(&mut slice);
        Ok(SsTable {
            path: path.to_path_buf(),
            seq,
            file: RefCell::new(file),
            index,
            bloom,
            data_bytes: footer_start,
        })
    }

    /// The stored image of `bin`, or `None` when the table does not hold it.
    /// The bloom filter usually answers the negative case without any I/O.
    pub fn get(&self, bin: u64) -> Result<Option<Vec<u8>>, StorageError> {
        if !self.bloom.contains(bin) {
            return Ok(None);
        }
        let Ok(position) = self.index.binary_search_by_key(&bin, |entry| entry.0) else {
            return Ok(None);
        };
        let (_, offset, len) = self.index[position];
        let mut file = self.file.borrow_mut();
        file.seek(SeekFrom::Start(offset)).map_err(|e| StorageError::io("sst-seek", e))?;
        let mut image = vec![0u8; len as usize];
        file.read_exact(&mut image).map_err(|e| StorageError::io("sst-read", e))?;
        Ok(Some(image))
    }

    /// Every `(bin, image)` pair of the table, ascending by bin.
    pub fn read_all(&self) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let mut entries = Vec::with_capacity(self.index.len());
        for &(bin, offset, len) in &self.index {
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(offset)).map_err(|e| StorageError::io("sst-seek", e))?;
            let mut image = vec![0u8; len as usize];
            file.read_exact(&mut image).map_err(|e| StorageError::io("sst-read", e))?;
            entries.push((bin, image));
        }
        Ok(entries)
    }

    /// The table's sequence number (newer tables have larger numbers).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of bins stored in the table.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` iff the table stores no bins.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes of entry data in the table (excluding index/bloom footer).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// The table's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Deletes the table's file.
    pub fn delete(self) -> Result<(), StorageError> {
        let path = self.path.clone();
        drop(self);
        std::fs::remove_file(&path).map_err(|e| StorageError::io("sst-delete", e))
    }
}

/// Merges `tables` newest-wins into one table numbered `seq` in `dir`,
/// dropping `dead` bins, and deletes the merged inputs. The classic
/// size-tiered compaction step: all tables of the tier collapse into one.
pub fn compact(
    dir: &Path,
    tables: Vec<SsTable>,
    seq: u64,
    dead: &std::collections::HashSet<u64>,
    fsync: bool,
) -> Result<SsTable, StorageError> {
    let mut merged: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    // Oldest table first so newer tables overwrite older images.
    for table in &tables {
        for (bin, image) in table.read_all()? {
            if !dead.contains(&bin) {
                merged.insert(bin, image);
            }
        }
    }
    let entries: Vec<(u64, Vec<u8>)> = merged.into_iter().collect();
    let compacted = SsTable::write(dir, seq, &entries, fsync)?;
    for table in tables {
        table.delete()?;
    }
    Ok(compacted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mp-sst-tests-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn write_open_get_roundtrip() {
        let dir = temp_dir("roundtrip");
        let entries: Vec<(u64, Vec<u8>)> =
            (0..50u64).map(|bin| (bin * 3, vec![bin as u8; (bin as usize % 7) + 1])).collect();
        let written = SsTable::write(&dir, 1, &entries, false).expect("write");
        assert_eq!(written.len(), 50);
        let reopened = SsTable::open(written.path()).expect("open");
        assert_eq!(reopened.seq(), 1);
        for (bin, image) in &entries {
            assert_eq!(written.get(*bin).expect("get").as_ref(), Some(image));
            assert_eq!(reopened.get(*bin).expect("get").as_ref(), Some(image));
        }
        assert_eq!(written.get(1).expect("get"), None, "absent bin");
        assert_eq!(reopened.read_all().expect("read_all"), entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trailer_is_detected() {
        let dir = temp_dir("corrupt");
        let table =
            SsTable::write(&dir, 2, &[(1u64, vec![9, 9, 9])], false).expect("write");
        let path = table.path().to_path_buf();
        drop(table);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(SsTable::open(&path), Err(StorageError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_is_newest_wins_and_drops_dead_bins() {
        let dir = temp_dir("compact");
        let old = SsTable::write(
            &dir,
            1,
            &[(1u64, vec![1]), (2, vec![2]), (3, vec![3])],
            false,
        )
        .expect("write old");
        let new =
            SsTable::write(&dir, 2, &[(2u64, vec![22, 22]), (4, vec![4])], false).expect("write");
        let dead: std::collections::HashSet<u64> = [3u64].into_iter().collect();
        let merged = compact(&dir, vec![old, new], 3, &dead, false).expect("compact");
        assert_eq!(
            merged.read_all().expect("read_all"),
            vec![(1u64, vec![1]), (2, vec![22, 22]), (4, vec![4])]
        );
        // Old files are gone; only the compacted table remains.
        let files: Vec<String> = std::fs::read_dir(&dir)
            .expect("read_dir")
            .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec![table_file_name(3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
