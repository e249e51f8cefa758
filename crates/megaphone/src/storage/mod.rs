//! Durable storage for bin state: a per-store write-ahead log that *is* the
//! committed image of every installed bin, with a memtable / SSTable tier
//! behind it for the bins that left memory.
//!
//! The design reuses the migration wire format as the on-disk format
//! (the PR 3 invariant: a bin's fragments concatenate byte-identically to its
//! one-shot [`Codec`](crate::codec::Codec) encoding), so checkpoint, recovery
//! and migration are one code path:
//!
//! * **Install**: the migration fragments of a scheduling round are appended
//!   to the WAL *verbatim*, in one vectored write, before they are absorbed
//!   in memory, and a commit record seals the install. That is all a commit
//!   does: the bin lives in memory, its fragments and commit record in the
//!   log are its durable image, and no table is written on the migration
//!   path. A crash between fragments recovers the in-flight `Assembler`
//!   state; a crash after the commit recovers the whole bin.
//! * **Spill**: a cold bin's full image is logged and moved to the memtable;
//!   when the memtable exceeds its budget it flushes to an immutable
//!   [`SsTable`], and a simple size-tiered compactor merges tables
//!   newest-wins. Only spilled bins are ever read back: memtable → tables
//!   (newest first), bloom-filtered.
//! * **Checkpoint**: the resident bins' images plus the spilled bins' stored
//!   images are written as one full table and the WAL rotates to a fresh
//!   generation, bounding replay work.
//!
//! Per migrated byte the install path costs one checksum pass and one copy
//! (the kernel's, out of the received fragment); see [`wal`].
//!
//! Recovery ([`DurableBackend::open`]) loads tables oldest→newest, replays
//! the newest WAL generation on top and returns the committed images plus the
//! in-flight fragment sequences. Fragment *boundaries* are preserved through
//! recovery — assemblers consume whole encoding units, so a partial install
//! resumes from the original fragment stream, never from arbitrarily
//! re-sliced bytes.
//!
//! The failure model is fail-fast: any storage error poisons the backend and
//! every subsequent operation returns [`StorageError::Poisoned`], so a
//! half-written install can never be observed as applied (the in-memory
//! install only happens after the commit record is durable). No byte
//! sequence on disk aborts the process: what fails validation surfaces as
//! [`StorageError::Corrupt`].

pub mod bloom;
pub mod sstable;
pub mod wal;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::rc::Rc;

pub use bloom::BloomFilter;
pub use sstable::SsTable;
pub use wal::{crc32, replay_bytes, Wal, WalEntry, WalRecord};

/// Environment variable naming a default durable data root: when set, every
/// worker without an explicit [`set_worker_storage`] call runs durable under
/// this directory.
pub const DATA_ROOT_ENV: &str = "MEGAPHONE_DATA_ROOT";

/// An error surfaced by the storage layer. Storage never panics on I/O or
/// corruption: errors are returned, the backend poisons itself, and callers
/// decide whether to degrade or abort.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error during `op`.
    Io {
        /// The operation that failed (e.g. `"wal-append"`).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// On-disk data failed validation (bad magic, short file, …).
    Corrupt(String),
    /// A WAL record of this many payload bytes does not fit the frame's
    /// `u32` length field; nothing was written.
    RecordTooLarge(u64),
    /// The backend saw an earlier error and refuses further work.
    Poisoned,
    /// The operation cannot run right now (e.g. checkpoint during an
    /// in-flight install, whose fragments a WAL rotation would discard).
    Busy(&'static str),
    /// A failure forced by the `fault-inject` test feature.
    Injected(&'static str),
}

impl StorageError {
    pub(crate) fn io(op: &'static str, source: std::io::Error) -> Self {
        StorageError::Io { op, source }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { op, source } => write!(f, "storage I/O error in {op}: {source}"),
            StorageError::Corrupt(what) => write!(f, "corrupt storage: {what}"),
            StorageError::RecordTooLarge(bytes) => {
                write!(f, "a WAL record of {bytes} bytes exceeds the 4 GiB frame limit")
            }
            StorageError::Poisoned => write!(f, "storage backend poisoned by an earlier error"),
            StorageError::Busy(what) => write!(f, "storage busy: {what}"),
            StorageError::Injected(op) => write!(f, "injected fault in {op}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Configuration of one durable store tree: a root directory with per-operator,
/// per-worker subdirectories.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableConfig {
    /// Root directory; stores live at `root/<operator>/worker-<index>/`.
    pub root: PathBuf,
    /// Whether appends fsync on [`sync`](StorageBackend::sync) (disable for
    /// tests and benchmarks where the OS page cache is durability enough).
    pub fsync: bool,
    /// Memtable byte budget before spilled images flush to an SSTable.
    pub memtable_bytes: usize,
    /// Number of SSTables that triggers a size-tiered compaction.
    pub compact_at: usize,
}

impl DurableConfig {
    /// A durable configuration rooted at `root` with default budgets
    /// (fsync on, 4 MiB memtable, compaction at 4 tables).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DurableConfig { root: root.into(), fsync: true, memtable_bytes: 4 << 20, compact_at: 4 }
    }

    /// Sets whether syncs fsync.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the memtable byte budget.
    pub fn with_memtable_bytes(mut self, bytes: usize) -> Self {
        self.memtable_bytes = bytes.max(1);
        self
    }

    /// Sets the table count that triggers compaction.
    pub fn with_compact_at(mut self, tables: usize) -> Self {
        self.compact_at = tables.max(2);
        self
    }

    /// The data directory of `operator`'s store on `worker`. Operator names
    /// are sanitized to filesystem-safe characters.
    pub fn store_dir(&self, operator: &str, worker: usize) -> PathBuf {
        let safe: String = operator
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        self.root.join(safe).join(format!("worker-{worker}"))
    }
}

/// The storage backend selection for a worker's bin stores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageConfig {
    /// Bins live only in RAM (the default): no WAL, no spill, no recovery.
    InMemory,
    /// Bins are backed by a per-store WAL + SSTable tier under a data root.
    Durable(DurableConfig),
}

thread_local! {
    static WORKER_STORAGE: RefCell<StorageConfig> = RefCell::new(initial_storage());
}

fn initial_storage() -> StorageConfig {
    match std::env::var(DATA_ROOT_ENV) {
        Ok(root) if !root.is_empty() => StorageConfig::Durable(DurableConfig::new(root)),
        _ => StorageConfig::InMemory,
    }
}

/// Sets the storage configuration for stateful operators built on *this
/// thread* (worker closures run one per thread, so call this first thing in
/// the closure). Defaults to [`DATA_ROOT_ENV`] if set, else in-memory.
pub fn set_worker_storage(config: StorageConfig) {
    WORKER_STORAGE.with(|cell| *cell.borrow_mut() = config);
}

/// The calling thread's storage configuration (see [`set_worker_storage`]).
pub fn worker_storage() -> StorageConfig {
    WORKER_STORAGE.with(|cell| cell.borrow().clone())
}

/// Counters describing one durable store, for tests and observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Framed bytes in the live WAL generation.
    pub wal_bytes: u64,
    /// Records in the live WAL generation.
    pub wal_records: u64,
    /// Bins resident in the memtable.
    pub memtable_bins: u64,
    /// Image bytes resident in the memtable.
    pub memtable_bytes: u64,
    /// Live SSTables.
    pub tables: u64,
    /// Entry-data bytes across live SSTables.
    pub table_bytes: u64,
    /// Size-tiered compactions performed since open.
    pub compactions: u64,
    /// Checkpoints (full-image table + WAL rotation) since open.
    pub checkpoints: u64,
}

/// What a durable store recovered at open.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Fully committed bins: `(bin, full image)` — the image is the
    /// concatenation of the bin's fragments, i.e. its one-shot encoding.
    pub committed: Vec<(u64, Vec<u8>)>,
    /// In-flight installs: `(bin, fragments)` with the original fragment
    /// boundaries preserved, ready to re-feed an `Assembler`.
    pub partial: Vec<(u64, Vec<Vec<u8>>)>,
}

impl Recovery {
    /// Returns `true` iff nothing was recovered (a fresh store).
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty() && self.partial.is_empty()
    }
}

/// One migration fragment handed to the log: `(bin, bytes, last)`.
pub type FragmentRef<'a> = (u64, &'a [u8], bool);

/// The operations a `BinStore` needs from its storage tier. Byte-level and
/// object-safe: the store handles typed encode/decode, the backend handles
/// durability.
pub trait StorageBackend {
    /// Logs migration fragments `(bin, bytes, last)` verbatim and in order,
    /// in one append, ahead of their in-memory absorption.
    fn append_fragments(&mut self, fragments: &[FragmentRef<'_>]) -> Result<(), StorageError>;
    /// Durably seals the install of `bin` (WAL commit record + sync). The
    /// caller applies the install in memory only after this returns `Ok`; the
    /// log is the committed image until the next checkpoint.
    fn commit(&mut self, bin: u64, total_bytes: u64) -> Result<(), StorageError>;
    /// Marks `bin`'s stored image dead (the bin migrated away).
    fn retire(&mut self, bin: u64) -> Result<(), StorageError>;
    /// Durably stores `bin`'s full image (the bin is leaving memory).
    fn spill(&mut self, bin: u64, image: Vec<u8>) -> Result<(), StorageError>;
    /// Reads a spilled bin's stored image: memtable first, then tables
    /// newest-first. Only spilled bins have a stored image worth reading — a
    /// committed install lives in memory and in the log.
    fn read(&mut self, bin: u64) -> Result<Option<Vec<u8>>, StorageError>;
    /// Writes `live` (every resident bin's image, ascending by bin) plus the
    /// stored images of the `spilled` bins as one full table and rotates the
    /// WAL, bounding future replay.
    fn checkpoint(
        &mut self,
        live: Vec<(u64, Vec<u8>)>,
        spilled: &[u64],
    ) -> Result<(), StorageError>;
    /// Makes every logged record durable.
    fn sync(&mut self) -> Result<(), StorageError>;
    /// Current counters.
    fn stats(&self) -> StorageStats;
}

/// The WAL + spill-tier (memtable, SSTables) backend behind one bin store.
#[derive(Debug)]
pub struct DurableBackend {
    dir: PathBuf,
    fsync: bool,
    memtable_budget: usize,
    compact_at: usize,
    wal: Wal,
    wal_gen: u64,
    /// Spilled images not yet flushed to a table, bin → full image.
    memtable: BTreeMap<u64, Vec<u8>>,
    memtable_bytes: usize,
    /// Live tables, ascending sequence number (newest last).
    tables: Vec<SsTable>,
    next_seq: u64,
    /// Bins retired since the last checkpoint: masked from reads and dropped
    /// by compaction; the WAL retire record carries them across a crash.
    tombstones: HashSet<u64>,
    /// In-flight installs: fragment bytes logged so far (the bytes themselves
    /// live in the log and in the store's assembler).
    pending: HashMap<u64, u64>,
    poisoned: bool,
    compactions: u64,
    checkpoints: u64,
}

/// The WAL file name of generation `gen`.
fn wal_file_name(gen: u64) -> String {
    format!("wal-{gen:010}.log")
}

impl DurableBackend {
    /// Opens (or creates) the store of `operator` on `worker` under `config`,
    /// returning the backend and everything it recovered.
    pub fn open(
        config: &DurableConfig,
        operator: &str,
        worker: usize,
    ) -> Result<(Self, Recovery), StorageError> {
        let dir = config.store_dir(operator, worker);
        Self::open_dir(&dir, config.fsync, config.memtable_bytes, config.compact_at)
    }

    /// Opens (or creates) the store in `dir` directly.
    pub fn open_dir(
        dir: &Path,
        fsync: bool,
        memtable_budget: usize,
        compact_at: usize,
    ) -> Result<(Self, Recovery), StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io("store-mkdir", e))?;
        let mut tables = Vec::new();
        let mut wal_gens: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| StorageError::io("store-list", e))? {
            let entry = entry.map_err(|e| StorageError::io("store-list", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("sst-") && name.ends_with(".sst") {
                tables.push(SsTable::open(&entry.path())?);
            } else if let Some(gen) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                wal_gens.push(gen);
            }
        }
        tables.sort_by_key(SsTable::seq);
        wal_gens.sort_unstable();
        let wal_gen = wal_gens.last().copied().unwrap_or(0);
        // Older generations are leftovers of a checkpoint that crashed between
        // creating the new generation and deleting the old: the checkpoint
        // table already covers them.
        for &gen in wal_gens.iter().filter(|&&gen| gen < wal_gen) {
            let _ = std::fs::remove_file(dir.join(wal_file_name(gen)));
        }
        let (wal, records) = Wal::open(&dir.join(wal_file_name(wal_gen)), fsync)?;

        // Recovery: table images oldest→newest, then the WAL replayed on top.
        let mut images: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for table in &tables {
            for (bin, image) in table.read_all()? {
                images.insert(bin, image);
            }
        }
        let mut partials: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
        let mut tombstones = HashSet::new();
        for record in records {
            match record {
                WalRecord::Fragment { bin, last: _, bytes } => {
                    partials.entry(bin).or_default().push(bytes);
                }
                WalRecord::Commit { bin, total_bytes } => {
                    let fragments = partials.remove(&bin).unwrap_or_default();
                    let image: Vec<u8> = fragments.concat();
                    if image.len() as u64 != total_bytes {
                        return Err(StorageError::Corrupt(format!(
                            "bin {bin} commit claims {total_bytes} bytes, log holds {}",
                            image.len()
                        )));
                    }
                    images.insert(bin, image);
                }
                WalRecord::Retire { bin } => {
                    images.remove(&bin);
                    partials.remove(&bin);
                    tombstones.insert(bin);
                }
                WalRecord::Spill { bin, image } => {
                    tombstones.remove(&bin);
                    images.insert(bin, image);
                }
            }
        }
        let next_seq = tables.last().map_or(1, |table| table.seq() + 1);
        // A resumed install's commit checks its total against these.
        let pending: HashMap<u64, u64> = partials
            .iter()
            .map(|(bin, fragments)| (*bin, fragments.iter().map(|f| f.len() as u64).sum()))
            .collect();
        let recovery = Recovery {
            committed: images.into_iter().collect(),
            partial: partials.into_iter().collect(),
        };
        let backend = DurableBackend {
            dir: dir.to_path_buf(),
            fsync,
            memtable_budget,
            compact_at,
            wal,
            wal_gen,
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            tables,
            next_seq,
            tombstones,
            pending,
            poisoned: false,
            compactions: 0,
            checkpoints: 0,
        };
        Ok((backend, recovery))
    }

    /// The store's data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn guard(&self) -> Result<(), StorageError> {
        if self.poisoned {
            Err(StorageError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Runs `work`, poisoning the backend if it errs.
    fn fallible<T>(
        &mut self,
        work: impl FnOnce(&mut Self) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        self.guard()?;
        let result = work(self);
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    fn memtable_insert(&mut self, bin: u64, image: Vec<u8>) {
        if let Some(old) = self.memtable.insert(bin, image) {
            self.memtable_bytes -= old.len();
        }
        self.memtable_bytes += self.memtable[&bin].len();
    }

    fn maybe_flush(&mut self) -> Result<(), StorageError> {
        if self.memtable_bytes <= self.memtable_budget || self.memtable.is_empty() {
            return Ok(());
        }
        let entries: Vec<(u64, Vec<u8>)> = std::mem::take(&mut self.memtable).into_iter().collect();
        self.memtable_bytes = 0;
        let table = SsTable::write(&self.dir, self.next_seq, &entries, self.fsync)?;
        self.next_seq += 1;
        self.tables.push(table);
        if self.tables.len() >= self.compact_at {
            let tables = std::mem::take(&mut self.tables);
            let compacted =
                sstable::compact(&self.dir, tables, self.next_seq, &self.tombstones, self.fsync)?;
            self.next_seq += 1;
            self.tables.push(compacted);
            self.compactions += 1;
        }
        Ok(())
    }
}

impl StorageBackend for DurableBackend {
    fn append_fragments(&mut self, fragments: &[FragmentRef<'_>]) -> Result<(), StorageError> {
        self.fallible(|backend| {
            backend.wal.append_all(
                fragments.iter().map(|&(bin, bytes, last)| WalEntry::Fragment { bin, last, bytes }),
            )?;
            for &(bin, bytes, _) in fragments {
                *backend.pending.entry(bin).or_default() += bytes.len() as u64;
            }
            Ok(())
        })
    }

    fn commit(&mut self, bin: u64, total_bytes: u64) -> Result<(), StorageError> {
        self.fallible(|backend| {
            // A commit the log disagrees with would fail every later open:
            // refuse it before it is written.
            let logged = backend.pending.get(&bin).copied().unwrap_or_default();
            if logged != total_bytes {
                return Err(StorageError::Corrupt(format!(
                    "bin {bin} commit claims {total_bytes} bytes, log holds {logged}"
                )));
            }
            backend.wal.append_all([WalEntry::Commit { bin, total_bytes }])?;
            backend.wal.sync()?;
            // The fragments and this record in the log are the committed
            // image until the next checkpoint; a tombstone of an earlier
            // retire keeps masking whatever older image the tables hold.
            backend.pending.remove(&bin);
            Ok(())
        })
    }

    fn retire(&mut self, bin: u64) -> Result<(), StorageError> {
        self.fallible(|backend| {
            backend.wal.append_all([WalEntry::Retire { bin }])?;
            backend.wal.sync()?;
            if let Some(old) = backend.memtable.remove(&bin) {
                backend.memtable_bytes -= old.len();
            }
            backend.pending.remove(&bin);
            backend.tombstones.insert(bin);
            Ok(())
        })
    }

    fn spill(&mut self, bin: u64, image: Vec<u8>) -> Result<(), StorageError> {
        self.fallible(|backend| {
            backend.wal.append_all([WalEntry::Spill { bin, image: &image }])?;
            backend.wal.sync()?;
            backend.tombstones.remove(&bin);
            backend.memtable_insert(bin, image);
            backend.maybe_flush()
        })
    }

    fn read(&mut self, bin: u64) -> Result<Option<Vec<u8>>, StorageError> {
        self.guard()?;
        if self.tombstones.contains(&bin) {
            return Ok(None);
        }
        if let Some(image) = self.memtable.get(&bin) {
            return Ok(Some(image.clone()));
        }
        for table in self.tables.iter().rev() {
            if let Some(image) = table.get(bin)? {
                return Ok(Some(image));
            }
        }
        Ok(None)
    }

    fn checkpoint(
        &mut self,
        live: Vec<(u64, Vec<u8>)>,
        spilled: &[u64],
    ) -> Result<(), StorageError> {
        if !self.pending.is_empty() {
            // A WAL rotation would discard the in-flight fragments.
            return Err(StorageError::Busy("in-flight installs block checkpoint"));
        }
        self.fallible(|backend| {
            // The caller's live images plus the stored image of every spilled
            // bin; whatever else the tables hold is stale and dies with them.
            let mut entries = live;
            for &bin in spilled {
                let image = match backend.memtable.remove(&bin) {
                    Some(image) => image,
                    None => backend.read(bin)?.ok_or_else(|| {
                        StorageError::Corrupt(format!("spilled bin {bin} has no stored image"))
                    })?,
                };
                entries.push((bin, image));
            }
            entries.sort_unstable_by_key(|(bin, _)| *bin);
            // Order matters for crash safety: full table first, then a fresh
            // WAL generation, then delete the old log and old tables. A crash
            // anywhere in between recovers correctly (duplicates are
            // overwritten newest-wins; the highest WAL generation wins).
            let table = SsTable::write(&backend.dir, backend.next_seq, &entries, backend.fsync)?;
            backend.next_seq += 1;
            let new_gen = backend.wal_gen + 1;
            let (wal, leftover) = Wal::open(&backend.dir.join(wal_file_name(new_gen)), backend.fsync)?;
            debug_assert!(leftover.is_empty(), "fresh WAL generation must be empty");
            let old_wal = std::mem::replace(&mut backend.wal, wal);
            let old_path = old_wal.path().to_path_buf();
            backend.wal_gen = new_gen;
            drop(old_wal);
            let _ = std::fs::remove_file(old_path);
            for old_table in backend.tables.drain(..) {
                old_table.delete()?;
            }
            backend.tables.push(table);
            backend.memtable.clear();
            backend.memtable_bytes = 0;
            backend.tombstones.clear();
            backend.checkpoints += 1;
            Ok(())
        })
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.fallible(|backend| backend.wal.sync())
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            wal_bytes: self.wal.bytes(),
            wal_records: self.wal.records(),
            memtable_bins: self.memtable.len() as u64,
            memtable_bytes: self.memtable_bytes as u64,
            tables: self.tables.len() as u64,
            table_bytes: self.tables.iter().map(SsTable::data_bytes).sum(),
            compactions: self.compactions,
            checkpoints: self.checkpoints,
        }
    }
}

impl Drop for DurableBackend {
    fn drop(&mut self) {
        // Best-effort teardown flush; errors are unreportable here.
        if !self.poisoned {
            let _ = self.wal.sync();
        }
    }
}

/// Shared probes into a live operator's durable store, exposed on
/// `StatefulOutput` (mirroring `StatsHandle`) so harnesses can checkpoint,
/// sync, spill and observe without reaching into the dataflow.
#[derive(Clone)]
pub struct StorageHandle {
    checkpoint: Rc<dyn Fn() -> Result<(), StorageError>>,
    sync: Rc<dyn Fn() -> Result<(), StorageError>>,
    stats: Rc<dyn Fn() -> Option<StorageStats>>,
}

impl StorageHandle {
    /// Builds a handle from the three probe closures.
    pub fn new(
        checkpoint: Rc<dyn Fn() -> Result<(), StorageError>>,
        sync: Rc<dyn Fn() -> Result<(), StorageError>>,
        stats: Rc<dyn Fn() -> Option<StorageStats>>,
    ) -> Self {
        StorageHandle { checkpoint, sync, stats }
    }

    /// Checkpoints the store (full-image table + WAL rotation). A no-op for
    /// in-memory stores.
    pub fn checkpoint(&self) -> Result<(), StorageError> {
        (self.checkpoint)()
    }

    /// Syncs the store's WAL. A no-op for in-memory stores.
    pub fn sync(&self) -> Result<(), StorageError> {
        (self.sync)()
    }

    /// The store's storage counters, `None` for in-memory stores.
    pub fn stats(&self) -> Option<StorageStats> {
        (self.stats)()
    }
}

impl std::fmt::Debug for StorageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StorageHandle")
    }
}

/// Forced failures at seeded points, compiled in by the `fault-inject`
/// feature: tests arm a countdown and the n-th storage operation on this
/// thread fails with [`StorageError::Injected`].
#[cfg(feature = "fault-inject")]
pub mod fault {
    use std::cell::Cell;

    use super::StorageError;

    thread_local! {
        static FAIL_AFTER: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Arms the injector: the `ops`-th fault-checked operation from now on
    /// this thread fails (0 = the very next one). One-shot: the injector
    /// disarms as it fires.
    pub fn arm(ops: u64) {
        FAIL_AFTER.with(|cell| cell.set(Some(ops)));
    }

    /// Disarms the injector.
    pub fn disarm() {
        FAIL_AFTER.with(|cell| cell.set(None));
    }

    pub(super) fn tick(op: &'static str) -> Result<(), StorageError> {
        FAIL_AFTER.with(|cell| match cell.get() {
            None => Ok(()),
            Some(0) => {
                cell.set(None);
                Err(StorageError::Injected(op))
            }
            Some(n) => {
                cell.set(Some(n - 1));
                Ok(())
            }
        })
    }
}

#[cfg(feature = "fault-inject")]
pub(crate) fn fault_tick(op: &'static str) -> Result<(), StorageError> {
    fault::tick(op)
}

#[cfg(not(feature = "fault-inject"))]
pub(crate) fn fault_tick(_op: &'static str) -> Result<(), StorageError> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mp-storage-tests-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (DurableBackend, Recovery) {
        DurableBackend::open_dir(dir, false, 1 << 20, 4).expect("open backend")
    }

    #[test]
    fn fresh_store_recovers_nothing() {
        let dir = temp_dir("fresh");
        let (backend, recovery) = open(&dir);
        assert!(recovery.is_empty());
        assert_eq!(backend.stats().wal_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_install_recovers_as_one_image() {
        let dir = temp_dir("committed");
        {
            let (mut backend, _) = open(&dir);
            backend.append_fragments(&[(5, &[1, 2, 3], false), (5, &[4, 5], true)]).expect("append");
            backend.commit(5, 5).expect("commit");
        }
        let (_, recovery) = open(&dir);
        assert_eq!(recovery.committed, vec![(5u64, vec![1, 2, 3, 4, 5])]);
        assert!(recovery.partial.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_install_recovers_fragment_boundaries() {
        let dir = temp_dir("partial");
        {
            let (mut backend, _) = open(&dir);
            backend.append_fragments(&[(9, &[1, 2, 3], false)]).expect("append");
            backend.append_fragments(&[(9, &[4], false)]).expect("append");
            backend.sync().expect("sync");
        }
        let (_, recovery) = open(&dir);
        assert!(recovery.committed.is_empty());
        assert_eq!(recovery.partial, vec![(9u64, vec![vec![1, 2, 3], vec![4]])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_the_log_disagrees_with_is_refused_unwritten() {
        let dir = temp_dir("bad-commit");
        {
            let (mut backend, _) = open(&dir);
            backend.append_fragments(&[(6, &[1, 2, 3], false)]).expect("append");
            let records = backend.stats().wal_records;
            assert!(matches!(backend.commit(6, 5), Err(StorageError::Corrupt(_))));
            assert_eq!(backend.stats().wal_records, records, "nothing was appended");
            assert!(matches!(backend.commit(6, 3), Err(StorageError::Poisoned)));
        }
        let (_, recovery) = open(&dir);
        assert!(recovery.committed.is_empty());
        assert_eq!(recovery.partial, vec![(6u64, vec![vec![1, 2, 3]])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retire_masks_the_image_across_restart() {
        let dir = temp_dir("retire");
        {
            let (mut backend, _) = open(&dir);
            backend.spill(2, vec![7; 16]).expect("spill");
            backend.retire(2).expect("retire");
        }
        let (mut backend, recovery) = open(&dir);
        assert!(recovery.is_empty(), "retired bin must not recover");
        assert_eq!(backend.read(2).expect("read"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_read_and_flush_to_tables() {
        let dir = temp_dir("spill");
        let (mut backend, _) =
            DurableBackend::open_dir(&dir, false, 64, 4).expect("open backend");
        for bin in 0..8u64 {
            backend.spill(bin, vec![bin as u8; 32]).expect("spill");
        }
        let stats = backend.stats();
        assert!(stats.tables > 0, "tiny memtable budget must have flushed");
        for bin in 0..8u64 {
            assert_eq!(backend.read(bin).expect("read"), Some(vec![bin as u8; 32]));
        }
        assert_eq!(backend.read(99).expect("read"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_collapses_tables() {
        let dir = temp_dir("compact");
        let (mut backend, _) =
            DurableBackend::open_dir(&dir, false, 16, 2).expect("open backend");
        for round in 0..4u64 {
            // Overwrite the same bins each round: newest must win.
            for bin in 0..3u64 {
                backend.spill(bin, vec![(round * 10 + bin) as u8; 24]).expect("spill");
            }
        }
        let stats = backend.stats();
        assert!(stats.compactions > 0, "4 rounds over a 16-byte memtable must compact");
        for bin in 0..3u64 {
            assert_eq!(backend.read(bin).expect("read"), Some(vec![(30 + bin) as u8; 24]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotates_and_bounds_replay() {
        let dir = temp_dir("checkpoint");
        {
            let (mut backend, _) = open(&dir);
            backend.spill(1, vec![1; 8]).expect("spill");
            backend.append_fragments(&[(2, &[2; 8], true)]).expect("append");
            backend.commit(2, 8).expect("commit");
            // The committed bin is resident, so the store passes it as live.
            let live = vec![(2u64, vec![2; 8]), (3, vec![3; 8])];
            backend.checkpoint(live, &[1]).expect("checkpoint");
            assert_eq!(backend.stats().wal_records, 0, "rotation empties the log");
            assert_eq!(backend.stats().tables, 1, "one full-image table remains");
        }
        let (_, recovery) = open(&dir);
        let bins: Vec<u64> = recovery.committed.iter().map(|(bin, _)| *bin).collect();
        assert_eq!(bins, vec![1, 2, 3], "spilled, installed and live bins all survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_refuses_in_flight_installs() {
        let dir = temp_dir("busy");
        let (mut backend, _) = open(&dir);
        backend.append_fragments(&[(4, &[1], false)]).expect("append");
        assert!(matches!(backend.checkpoint(Vec::new(), &[]), Err(StorageError::Busy(_))));
        // Not poisoned: completing the install unblocks the checkpoint.
        backend.append_fragments(&[(4, &[2], true)]).expect("append");
        backend.commit(4, 2).expect("commit");
        backend.checkpoint(vec![(4, vec![1, 2])], &[]).expect("checkpoint after commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_poison_the_backend() {
        let dir = temp_dir("poison");
        let (mut backend, _) = open(&dir);
        backend.poisoned = true;
        assert!(matches!(backend.append_fragments(&[(0, &[1], true)]), Err(StorageError::Poisoned)));
        assert!(matches!(backend.read(0), Err(StorageError::Poisoned)));
        assert!(matches!(backend.sync(), Err(StorageError::Poisoned)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_storage_is_thread_local_and_settable() {
        assert_eq!(worker_storage(), StorageConfig::InMemory);
        let config = StorageConfig::Durable(DurableConfig::new("/tmp/mp-x").with_fsync(false));
        set_worker_storage(config.clone());
        assert_eq!(worker_storage(), config);
        set_worker_storage(StorageConfig::InMemory);
        let handle = std::thread::spawn(worker_storage);
        assert_eq!(handle.join().expect("join"), StorageConfig::InMemory);
    }

    #[test]
    fn store_dir_sanitizes_operator_names() {
        let config = DurableConfig::new("/data");
        let dir = config.store_dir("Q5::Counts x", 3);
        assert_eq!(dir, PathBuf::from("/data/Q5__Counts_x/worker-3"));
    }
}
