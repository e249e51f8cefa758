//! Key binning and the per-worker, sharded bin store shared between the F and
//! S operators.
//!
//! Megaphone does not track each key individually: keys are statically assigned
//! to *bins* by the most significant bits of their hash, and the configuration
//! function maps bins (rather than keys) to workers (Section 4.2). The number of
//! bins is a power of two fixed when the operator is constructed.
//!
//! The store itself is *sharded*: bins live in `2^shard_shift` shards indexed
//! by the top bits of the bin id, each shard owning its contiguous slice of bin
//! slots. Sharding keeps the per-shard slot vectors small and cache-friendly
//! and is the layout under which a future NUMA-aware or concurrent store can
//! pin shards to cores without changing the API.
//!
//! Migration is *incremental*: [`BinStore::extract_chunked`] starts an
//! extraction whose encoded bytes are pulled out as bounded-size fragments
//! ([`ChunkedExtraction::next_fragment`]), and [`BinStore::install_fragment`]
//! absorbs fragments one at a time on the receiving worker, so neither side
//! ever stalls on one giant encode or decode (the large-state regime of the
//! paper's Figures 16–18).
//!
//! The store also maintains per-bin load accounting ([`BinLoad`]) — record
//! counts and approximate encoded bytes — surfaced through [`BinStats`] so
//! controllers can plan migrations from observed load instead of assignments
//! alone.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use timelite::order::Timestamp;

use crate::codec::{
    Assembler, ChunkedCodec, Codec, FragmentItems, Fragmenter, SeqAssembler, SeqFragmenter,
};
use crate::storage::{
    DurableBackend, DurableConfig, FragmentRef, Recovery, StorageBackend, StorageConfig,
    StorageError, StorageStats,
};

/// The identifier of one bin (an equivalence class of keys).
pub type BinId = usize;

/// Default base-2 logarithm of the shard count: 16 shards.
const DEFAULT_SHARD_SHIFT: u32 = 4;

/// Default migration fragment budget: 64 KiB per fragment.
const DEFAULT_CHUNK_BYTES: usize = 64 << 10;

/// Static configuration of a Megaphone stateful operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MegaphoneConfig {
    /// Base-2 logarithm of the number of bins.
    pub bin_shift: u32,
    /// Base-2 logarithm of the number of bin-store shards (clamped to
    /// `bin_shift`: there is never more than one shard per bin).
    pub shard_shift: u32,
    /// Budget in bytes for one encoded migration fragment. A fragment exceeds
    /// this only when a single indivisible unit (one state element) is larger.
    pub chunk_bytes: usize,
}

impl MegaphoneConfig {
    /// Creates a configuration with `2^bin_shift` bins, the default shard
    /// count and the default migration fragment budget.
    ///
    /// The paper's evaluation uses `2^12` bins as its default (Section 5.1).
    pub fn new(bin_shift: u32) -> Self {
        assert!(bin_shift < 64, "bin_shift must be smaller than 64");
        MegaphoneConfig {
            bin_shift,
            shard_shift: DEFAULT_SHARD_SHIFT.min(bin_shift),
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }

    /// Sets the shard count to `2^shard_shift` (clamped to the bin count).
    pub fn with_shard_shift(mut self, shard_shift: u32) -> Self {
        self.shard_shift = shard_shift.min(self.bin_shift);
        self
    }

    /// Sets the migration fragment budget in bytes.
    pub fn with_chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        assert!(chunk_bytes > 0, "chunk_bytes must be positive");
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// The number of bins.
    pub fn bins(&self) -> usize {
        1usize << self.bin_shift
    }

    /// The number of bin-store shards.
    pub fn shards(&self) -> usize {
        1usize << self.shard_shift.min(self.bin_shift)
    }

    /// The number of encoded migration bytes the F operator ships per
    /// scheduling round, bounding how long migration traffic can displace
    /// record processing within one step.
    pub fn pump_bytes_per_step(&self) -> usize {
        self.chunk_bytes.saturating_mul(4)
    }

    /// Maps a 64-bit key hash to its bin using the most significant bits.
    ///
    /// Using the top bits (rather than the low bits consumed by hash maps)
    /// avoids correlating bin choice with hash-map bucket choice, per the
    /// paper's footnote on `HashMap` collisions.
    #[inline]
    pub fn key_to_bin(&self, key_hash: u64) -> BinId {
        if self.bin_shift == 0 {
            0
        } else {
            (key_hash >> (64 - self.bin_shift)) as usize
        }
    }

    /// The initial bin-to-worker assignment: bins distributed round-robin.
    pub fn initial_assignment(&self, peers: usize) -> Vec<usize> {
        (0..self.bins()).map(|bin| bin % peers).collect()
    }
}

impl Default for MegaphoneConfig {
    fn default() -> Self {
        // 2^12 bins, the paper's default.
        MegaphoneConfig::new(12)
    }
}

/// The state hosted for one bin: the user's state object plus post-dated records
/// scheduled by the operator for future times.
///
/// Both components migrate together: the paper is explicit that migrated state
/// "includes both the state for `operator`, as well as the list of pending
/// `(val, time)` records produced by `operator` for future times" (Section 3.4).
///
/// # The run invariant
///
/// `pending` holds the post-dated records as *time runs*: one `(time, records)`
/// entry per distinct time, **strictly ascending in time, every run non-empty**,
/// the records of a run in the order they were scheduled. That makes the timer
/// path cost O(due) instead of O(pending): "is anything due?" is one comparison
/// with the first run ([`take_due`]), delivery drains whole runs off the front
/// without touching the rest, and scheduling ([`post_date`]) is a binary search
/// over the handful of distinct times plus a push. The hosting `S` operator
/// keeps one wake-up per run, not per record. Code that fills `pending` by hand
/// (tests, benchmarks) must keep the invariant; the two functions and the
/// decoders do, and `debug_assert` it.
///
/// The wire and disk image is the flat, time-sorted `[len][(time, record)…]`
/// section it has always been: encoding flattens the runs, decoding regroups
/// consecutive equal times (and sorts an image whose times are out of order,
/// as written before runs existed, into valid runs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bin<T, S, D> {
    /// The user-defined state for this bin's keys.
    pub state: S,
    /// Post-dated records as time runs, strictly ascending in time, each run
    /// non-empty: replayed to `fold` once the frontier reaches their time.
    pub pending: Runs<T, D>,
}

/// A bin's post-dated records as time runs — [`Bin::pending`]: one
/// `(time, records)` entry per distinct time, strictly ascending, every run
/// non-empty.
pub type Runs<T, D> = Vec<(T, Vec<D>)>;

/// Adds `record` to the run of `time` in `pending` (a [`Bin::pending`] run
/// list), behind the records already scheduled for that time. Returns `true`
/// iff this created the run — the caller then owes the run its one wake-up.
pub fn post_date<T: Ord, D>(pending: &mut Runs<T, D>, time: T, record: D) -> bool {
    let (index, created) = match pending.binary_search_by(|(run, _)| run.cmp(&time)) {
        Ok(index) => {
            pending[index].1.push(record);
            (index, false)
        }
        Err(index) => {
            pending.insert(index, (time, vec![record]));
            (index, true)
        }
    };
    // Checked around the touched run only, so debug builds stay O(log runs) too.
    debug_assert!(
        is_run_list(&pending[index.saturating_sub(1)..(index + 2).min(pending.len())]),
        "pending runs must ascend strictly and be non-empty"
    );
    created
}

/// Moves the records of every run of `pending` that is due at `time` in front
/// of `fresh`: in (due time, scheduling) order, then the fresh ones. Costs one
/// comparison when nothing is due — `pending` is empty on every call of a fold
/// that never post-dates — and otherwise only touches the due runs.
pub fn take_due<T: Ord, D>(
    pending: &mut Runs<T, D>,
    time: &T,
    mut fresh: Vec<D>,
) -> Vec<D> {
    let due = pending.iter().take_while(|(run, _)| run <= time).count();
    if due == 0 {
        return fresh;
    }
    let mut runs = pending.drain(..due).map(|(_, run)| run);
    let mut records = runs.next().expect("at least one run is due");
    for mut run in runs {
        records.append(&mut run);
    }
    records.append(&mut fresh);
    records
}

/// The number of post-dated records in a run list.
pub fn pending_records<T, D>(pending: &[(T, Vec<D>)]) -> usize {
    pending.iter().map(|(_, run)| run.len()).sum()
}

/// The run invariant of [`Bin::pending`].
fn is_run_list<T: Ord, D>(pending: &[(T, Vec<D>)]) -> bool {
    pending.iter().all(|(_, run)| !run.is_empty())
        && pending.windows(2).all(|pair| pair[0].0 < pair[1].0)
}

/// Regroups a flat `(time, record)` stream into runs as it is decoded:
/// consecutive equal times join the last run, anything else finds (or opens)
/// its run by binary search, so an image whose times are out of order still
/// decodes into a valid run list.
impl<T: Ord, D> FragmentItems<(T, D)> for Runs<T, D> {
    fn with_item_capacity(_items: usize) -> Self {
        Vec::new()
    }
    fn push_item(&mut self, (time, record): (T, D)) {
        match self.last_mut() {
            Some((last, run)) if *last == time => run.push(record),
            _ => {
                post_date(self, time, record);
            }
        }
    }
}

/// Flattens a run list back into the `(time, record)` pairs of its image.
struct FlatRuns<T, D> {
    runs: std::vec::IntoIter<(T, Vec<D>)>,
    current: Option<(T, std::vec::IntoIter<D>)>,
}

impl<T: Clone, D> Iterator for FlatRuns<T, D> {
    type Item = (T, D);
    fn next(&mut self) -> Option<(T, D)> {
        loop {
            if let Some((time, records)) = &mut self.current {
                if let Some(record) = records.next() {
                    return Some((time.clone(), record));
                }
            }
            let (time, records) = self.runs.next()?;
            self.current = Some((time, records.into_iter()));
        }
    }
}

impl<T: Timestamp, S: Codec, D: Codec> Codec for Bin<T, S, D> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.state.encode(bytes);
        pending_records(&self.pending).encode(bytes);
        for (time, run) in &self.pending {
            for record in run {
                time.encode(bytes);
                record.encode(bytes);
            }
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let state = S::decode(bytes);
        let mut pending = Vec::new();
        for _ in 0..usize::decode(bytes) {
            pending.push_item(<(T, D)>::decode(bytes));
        }
        Bin { state, pending }
    }
}

/// Streaming encoder for a [`Bin`]: the state section followed by the pending
/// section (the runs, flattened), sharing one fragment budget. A run of any
/// length leaves record by record, so it never forces an oversized fragment.
pub struct BinFragmenter<T: Timestamp, S: ChunkedCodec, D: Codec> {
    state: S::Fragmenter,
    state_done: bool,
    pending: SeqFragmenter<FlatRuns<T, D>>,
}

impl<T: Timestamp, S: ChunkedCodec, D: Codec> Fragmenter for BinFragmenter<T, S, D> {
    fn fill(&mut self, budget: usize, buf: &mut Vec<u8>) -> bool {
        if !self.state_done {
            if self.state.fill(budget, buf) {
                return true;
            }
            self.state_done = true;
            // The pending section opens with its 8-byte length header, which a
            // sequence fragmenter emits unconditionally: only start the
            // section if the header still fits this fragment's budget, so no
            // fragment silently overshoots by a header.
            if buf.len() + std::mem::size_of::<u64>() > budget && !buf.is_empty() {
                return true;
            }
        }
        self.pending.fill(budget, buf)
    }
}

/// Streaming decoder for a [`Bin`]: feeds bytes to the state assembler until it
/// completes, then regroups the pending section into runs pair by pair.
pub struct BinAssembler<T: Timestamp, S: ChunkedCodec, D: Codec> {
    state: S::Assembler,
    pending: SeqAssembler<Runs<T, D>, (T, D)>,
}

impl<T: Timestamp, S: ChunkedCodec, D: Codec> Assembler for BinAssembler<T, S, D> {
    type Value = Bin<T, S, D>;
    fn absorb(&mut self, bytes: &mut &[u8]) {
        if !self.state.is_complete() {
            self.state.absorb(bytes);
            if !self.state.is_complete() {
                return;
            }
        }
        self.pending.absorb(bytes);
    }
    fn is_complete(&self) -> bool {
        self.state.is_complete() && self.pending.is_complete()
    }
    fn finish(self) -> Bin<T, S, D> {
        Bin { state: self.state.finish(), pending: self.pending.finish() }
    }
}

impl<T: Timestamp, S: ChunkedCodec, D: Codec> ChunkedCodec for Bin<T, S, D> {
    type Fragmenter = BinFragmenter<T, S, D>;
    type Assembler = BinAssembler<T, S, D>;
    fn into_fragmenter(self) -> Self::Fragmenter {
        let records = pending_records(&self.pending);
        let runs = FlatRuns { runs: self.pending.into_iter(), current: None };
        BinFragmenter {
            state: self.state.into_fragmenter(),
            state_done: false,
            pending: SeqFragmenter::new(records, runs),
        }
    }
    fn assembler() -> Self::Assembler {
        BinAssembler { state: S::assembler(), pending: SeqAssembler::new() }
    }
}

/// Observed load of one bin: how many records its fold has applied since the
/// bin was (re-)hosted here, and an approximation of its encoded size.
///
/// `bytes` is exact right after a fragmented migration installs the bin (the
/// sum of its fragment sizes) and drifts afterwards as updates are folded in;
/// a handover within the process carries the estimate along unchanged. It is
/// an *estimate*, good for relative comparisons between bins, not an
/// accounting of heap use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinLoad {
    /// Records folded into the bin since it was last (re-)hosted.
    pub records: u64,
    /// Approximate encoded size of the bin in bytes.
    pub bytes: u64,
}

impl BinLoad {
    /// A scalar load score combining processing load (records) with state size
    /// (bytes, discounted: moving a byte is cheaper than processing a record).
    pub fn score(&self) -> u64 {
        self.records + self.bytes / 64
    }
}

/// A snapshot of the per-bin loads of one worker's hosted bins, consumed by
/// migration planning (`strategies::load_balanced_assignment`) and controllers.
#[derive(Clone, Debug, Default)]
pub struct BinStats {
    loads: Vec<(BinId, BinLoad)>,
}

impl BinStats {
    /// The `(bin, load)` pairs of the snapshot, ascending by bin id.
    pub fn loads(&self) -> &[(BinId, BinLoad)] {
        &self.loads
    }

    /// The number of bins in the snapshot.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// Returns `true` iff the snapshot covers no bins.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Total records folded across the snapshot's bins.
    pub fn total_records(&self) -> u64 {
        self.loads.iter().map(|(_, load)| load.records).sum()
    }

    /// Total approximate encoded bytes across the snapshot's bins.
    pub fn total_bytes(&self) -> u64 {
        self.loads.iter().map(|(_, load)| load.bytes).sum()
    }

    /// Merges another snapshot into this one, summing the loads of bins
    /// appearing in both. Merging the per-worker snapshots (whose bins are
    /// disjoint: each bin is hosted exactly once) yields the global per-bin
    /// load picture; merging snapshots of different operators sharing one bin
    /// space yields the per-bin total across operators.
    pub fn merge(&mut self, other: &BinStats) {
        self.loads.extend_from_slice(&other.loads);
        self.loads.sort_by_key(|(bin, _)| *bin);
        self.loads.dedup_by(|next, kept| {
            if next.0 == kept.0 {
                kept.1.records += next.1.records;
                kept.1.bytes += next.1.bytes;
                true
            } else {
                false
            }
        });
    }

    /// The per-bin load observed since `previous` was taken: for every bin,
    /// the increase of its counters, treating a counter that *shrank* as a
    /// re-hosted bin whose accounting restarted (extraction clears loads), in
    /// which case the new counter value itself is the observed load.
    ///
    /// Controllers plan on deltas rather than cumulative loads so that a
    /// workload *shift* (a hot-key rotation) shows up immediately instead of
    /// being averaged into history.
    pub fn delta_since(&self, previous: &BinStats) -> BinStats {
        let mut loads = Vec::with_capacity(self.loads.len());
        let mut prev = previous.loads.iter().peekable();
        for (bin, now) in &self.loads {
            while prev.peek().is_some_and(|(b, _)| b < bin) {
                prev.next();
            }
            let before = match prev.peek() {
                Some((b, load)) if b == bin => *load,
                _ => BinLoad::default(),
            };
            let delta = BinLoad {
                records: if now.records >= before.records {
                    now.records - before.records
                } else {
                    now.records
                },
                bytes: if now.bytes >= before.bytes { now.bytes - before.bytes } else { now.bytes },
            };
            loads.push((*bin, delta));
        }
        BinStats { loads }
    }

    /// The total load score hosted by each of `peers` workers under
    /// `assignment` (bins outside the assignment are ignored).
    pub fn worker_scores(&self, assignment: &[usize], peers: usize) -> Vec<u64> {
        let mut scores = vec![0u64; peers];
        for (bin, load) in &self.loads {
            if let Some(&worker) = assignment.get(*bin) {
                if worker < peers {
                    scores[worker] += load.score();
                }
            }
        }
        scores
    }

    /// The max/mean ratio of the per-worker load scores under `assignment`:
    /// `1.0` is perfect balance, `peers as f64` is everything on one worker.
    /// Returns `1.0` when no load has been observed.
    pub fn imbalance(&self, assignment: &[usize], peers: usize) -> f64 {
        let scores = self.worker_scores(assignment, peers);
        let total: u64 = scores.iter().sum();
        if total == 0 || peers == 0 {
            return 1.0;
        }
        let max = *scores.iter().max().expect("peers > 0") as f64;
        max / (total as f64 / peers as f64)
    }

    /// Renders the snapshot as a dense per-bin score vector of length `bins`
    /// (unhosted or unobserved bins score zero), the input to load-aware
    /// assignment planning.
    pub fn score_vector(&self, bins: usize) -> Vec<u64> {
        let mut scores = vec![0u64; bins];
        for (bin, load) in &self.loads {
            if *bin < bins {
                scores[*bin] = load.score();
            }
        }
        scores
    }
}

/// Shared probes into a live operator's bin store, exposed on
/// `StatefulOutput` so harness drivers and controllers can observe load.
#[derive(Clone)]
pub struct StatsHandle {
    snapshot: Rc<dyn Fn() -> BinStats>,
    tracked_bytes: Rc<dyn Fn() -> u64>,
    pending_wakeups: Rc<dyn Fn() -> usize>,
}

impl StatsHandle {
    /// Builds a handle from the three probe closures.
    pub fn new(
        snapshot: Rc<dyn Fn() -> BinStats>,
        tracked_bytes: Rc<dyn Fn() -> u64>,
        pending_wakeups: Rc<dyn Fn() -> usize>,
    ) -> Self {
        StatsHandle { snapshot, tracked_bytes, pending_wakeups }
    }

    /// A full per-bin [`BinStats`] snapshot (allocates one entry per hosted
    /// bin — use for planning, not per-epoch sampling).
    pub fn snapshot(&self) -> BinStats {
        (self.snapshot)()
    }

    /// The store's total approximate tracked state bytes, allocation-free
    /// (backed by a running aggregate) — safe to call inside measurement
    /// loops.
    pub fn tracked_bytes(&self) -> u64 {
        (self.tracked_bytes)()
    }

    /// The wake-ups the hosting `S` operator held after its last scheduling
    /// round: one per (bin, time) run of post-dated records of the bins hosted
    /// here, so it is bounded by those runs however many records they hold and
    /// however often their bins have migrated.
    pub fn pending_wakeups(&self) -> usize {
        (self.pending_wakeups)()
    }
}

impl std::fmt::Debug for StatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StatsHandle")
    }
}

/// One shard of the bin store: a contiguous slice of bin slots, its hosted
/// count, the loads of its bins, and how large its fragments have been.
#[derive(Debug)]
struct Shard<T, S, D> {
    /// Bin slots; `slots[i]` holds bin `base + i`.
    slots: Vec<Option<Bin<T, S, D>>>,
    /// Per-slot load accounting, parallel to `slots`.
    loads: Vec<BinLoad>,
    /// Number of hosted bins in this shard (maintained, not scanned).
    hosted: usize,
    /// Length of the final fragment of the last extraction from this shard:
    /// the next extraction's first buffer starts at that capacity instead of
    /// growing up to it.
    fragment_hint: usize,
}

impl<T, S, D> Shard<T, S, D> {
    fn new(slots: usize) -> Self {
        Shard {
            slots: (0..slots).map(|_| None).collect(),
            loads: vec![BinLoad::default(); slots],
            hosted: 0,
            fragment_hint: 0,
        }
    }
}

/// The per-worker store of bins for one stateful operator, shared between the
/// routing operator `F` (which extracts bins for migration) and the hosting
/// operator `S` (which reads and updates them), exactly as in Section 4.2 of
/// the paper ("F can obtain a reference to bins by means of a shared pointer").
///
/// Internally the slots are split over `2^shard_shift` shards indexed by the
/// top bits of the bin id; see the module docs for why.
pub struct BinStore<T, S, D> {
    shards: Vec<Shard<T, S, D>>,
    /// Base-2 logarithm of the slots per shard (`bin_shift - shard_shift`).
    slot_shift: u32,
    /// Total bin slots across all shards.
    bins: usize,
    /// Total hosted bins (maintained counter; `hosted_count` is O(1)).
    hosted: usize,
    /// Running aggregate of every hosted bin's load, so total tracked state
    /// can be sampled without walking the slots or allocating.
    tracked: BinLoad,
    /// In-progress incremental installs: a lazily created
    /// `HashMap<BinId, PartialInstall<T, S, D>>`, type-erased so the store's
    /// struct definition does not force codec bounds onto every use site.
    assemblies: Option<Box<dyn std::any::Any>>,
    /// The optional durable tier: a WAL + spill store. `None` (the default)
    /// keeps the store purely in memory.
    backend: Option<Box<dyn StorageBackend>>,
    /// Bins hosted by this worker whose contents currently live only in the
    /// backend (spilled out of memory). Spilled bins count as hosted for
    /// routing; [`BinStore::ensure_resident`] faults them back in on access.
    spilled: HashSet<BinId>,
}

impl<T, S, D> std::fmt::Debug for BinStore<T, S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinStore")
            .field("bins", &self.bins)
            .field("shards", &self.shards.len())
            .field("hosted", &self.hosted)
            .field("spilled", &self.spilled.len())
            .field("durable", &self.backend.is_some())
            .finish()
    }
}

/// The in-progress assembly of one incrementally installed bin.
struct PartialInstall<T: Timestamp, S: ChunkedCodec, D: Codec> {
    assembler: BinAssembler<T, S, D>,
    bytes_received: u64,
}

impl<T, S: Default, D> BinStore<T, S, D> {
    /// Creates a store with `config.bins()` slots, hosting the bins initially
    /// assigned to `worker` under the round-robin initial configuration.
    pub fn new(config: &MegaphoneConfig, worker: usize, peers: usize) -> Self {
        let mut store = Self::with_layout(config.bins(), config.shards());
        for bin in 0..config.bins() {
            if bin % peers == worker {
                store.install(bin, Bin { state: S::default(), pending: Vec::new() });
            }
        }
        store
    }

    /// Creates a store with `bins` empty slots (a power of two) and no hosted
    /// bins, sharded with the default shard count.
    pub fn empty(bins: usize) -> Self {
        let shards = (1usize << DEFAULT_SHARD_SHIFT).min(bins.max(1));
        Self::with_layout(bins, shards)
    }
}

impl<T, S, D> BinStore<T, S, D> {
    fn with_layout(bins: usize, shards: usize) -> Self {
        assert!(bins.is_power_of_two(), "bin count must be a power of two");
        assert!(shards.is_power_of_two() && shards <= bins, "invalid shard count");
        let slots = bins / shards;
        BinStore {
            shards: (0..shards).map(|_| Shard::new(slots)).collect(),
            slot_shift: slots.trailing_zeros(),
            bins,
            hosted: 0,
            tracked: BinLoad::default(),
            assemblies: None,
            backend: None,
            spilled: HashSet::new(),
        }
    }

    /// The shard hosting `bin` (the top bits of the bin id).
    #[inline]
    fn shard_of(&self, bin: BinId) -> usize {
        bin >> self.slot_shift
    }

    /// The slot of `bin` within its shard (the low bits of the bin id).
    #[inline]
    fn slot_of(&self, bin: BinId) -> usize {
        bin & ((1usize << self.slot_shift) - 1)
    }

    /// The number of bin slots.
    pub fn len(&self) -> usize {
        self.bins
    }

    /// Returns `true` iff the store has no slots.
    pub fn is_empty(&self) -> bool {
        self.bins == 0
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Returns `true` iff `bin` is currently hosted on this worker, resident
    /// in memory or spilled to the durable tier.
    pub fn is_hosted(&self, bin: BinId) -> bool {
        self.shards[self.shard_of(bin)].slots[self.slot_of(bin)].is_some()
            || self.spilled.contains(&bin)
    }

    /// The number of bins currently hosted on this worker, including spilled
    /// bins (O(1): the counters are maintained by install/extract/spill rather
    /// than scanned).
    pub fn hosted_count(&self) -> usize {
        self.hosted + self.spilled.len()
    }

    /// The number of hosted bins currently spilled out of memory.
    pub fn spilled_count(&self) -> usize {
        self.spilled.len()
    }

    /// Returns `true` iff the store has a durable storage backend.
    pub fn has_backend(&self) -> bool {
        self.backend.is_some()
    }

    /// Makes every logged storage record durable; a no-op without a backend.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        match self.backend.as_mut() {
            Some(backend) => backend.sync(),
            None => Ok(()),
        }
    }

    /// The backend's storage counters, `None` without a backend.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.backend.as_ref().map(|backend| backend.stats())
    }

    /// The number of bins hosted in one shard.
    pub fn shard_hosted_count(&self, shard: usize) -> usize {
        self.shards[shard].hosted
    }

    /// Mutable access to a hosted bin.
    ///
    /// # Panics
    ///
    /// Panics if the bin is not hosted on this worker: that indicates a routing
    /// error (a record was delivered to a worker that does not own its bin).
    pub fn bin_mut(&mut self, bin: BinId) -> &mut Bin<T, S, D> {
        let (shard, slot) = (self.shard_of(bin), self.slot_of(bin));
        self.shards[shard].slots[slot]
            .as_mut()
            .unwrap_or_else(|| panic!("bin {} is not hosted on this worker", bin))
    }

    /// Mutable access to a hosted bin, if present.
    pub fn try_bin_mut(&mut self, bin: BinId) -> Option<&mut Bin<T, S, D>> {
        let (shard, slot) = (self.shard_of(bin), self.slot_of(bin));
        self.shards[shard].slots[slot].as_mut()
    }

    /// Read access to a hosted bin, if present.
    pub fn try_bin(&self, bin: BinId) -> Option<&Bin<T, S, D>> {
        let (shard, slot) = (self.shard_of(bin), self.slot_of(bin));
        self.shards[shard].slots[slot].as_ref()
    }

    /// Removes and returns `bin` for migration, clearing its load accounting.
    pub fn extract(&mut self, bin: BinId) -> Option<Bin<T, S, D>> {
        let (shard, slot) = (self.shard_of(bin), self.slot_of(bin));
        let taken = self.shards[shard].slots[slot].take();
        if taken.is_some() {
            self.shards[shard].hosted -= 1;
            let load = std::mem::take(&mut self.shards[shard].loads[slot]);
            self.tracked.records -= load.records;
            self.tracked.bytes -= load.bytes;
            self.hosted -= 1;
        }
        taken
    }

    /// Installs `bin` received through a migration.
    ///
    /// # Panics
    ///
    /// Panics if the bin is already hosted (double installation indicates a
    /// planning error: two workers believed they owned the bin).
    pub fn install(&mut self, bin: BinId, contents: Bin<T, S, D>) {
        let (shard, slot) = (self.shard_of(bin), self.slot_of(bin));
        assert!(self.shards[shard].slots[slot].is_none(), "bin {} installed twice", bin);
        self.shards[shard].slots[slot] = Some(contents);
        self.shards[shard].hosted += 1;
        self.hosted += 1;
    }

    /// Removes `bin` with its load, for a handover to a worker of this
    /// process: [`BinStore::adopt`] there installs both as they are.
    pub fn take_with_load(&mut self, bin: BinId) -> Option<(Bin<T, S, D>, BinLoad)> {
        let load = self.load(bin);
        self.extract(bin).map(|contents| (contents, load))
    }

    /// Installs a bin handed over by [`BinStore::take_with_load`], keeping the
    /// load it had at its previous owner.
    ///
    /// # Panics
    ///
    /// Panics if the bin is already hosted, like [`BinStore::install`].
    pub fn adopt(&mut self, bin: BinId, contents: Bin<T, S, D>, load: BinLoad) {
        self.install(bin, contents);
        self.set_load(bin, load);
    }

    /// Records `records` fold applications against `bin`, growing its
    /// approximate encoded size by `approx_bytes`. Called by the S operator on
    /// every update so [`BinStats`] reflects real observed load.
    pub fn note_records(&mut self, bin: BinId, records: u64, approx_bytes: u64) {
        let (shard, slot) = (self.shard_of(bin), self.slot_of(bin));
        let load = &mut self.shards[shard].loads[slot];
        load.records += records;
        load.bytes += approx_bytes;
        self.tracked.records += records;
        self.tracked.bytes += approx_bytes;
    }

    /// Overwrites `bin`'s load accounting.
    pub fn set_load(&mut self, bin: BinId, load: BinLoad) {
        let (shard, slot) = (self.shard_of(bin), self.slot_of(bin));
        let old = std::mem::replace(&mut self.shards[shard].loads[slot], load);
        self.tracked.records = self.tracked.records - old.records + load.records;
        self.tracked.bytes = self.tracked.bytes - old.bytes + load.bytes;
    }

    /// Total approximate tracked state bytes across every hosted bin, O(1)
    /// from the running aggregate — the allocation-free probe behind
    /// [`StatsHandle::tracked_bytes`].
    pub fn tracked_bytes(&self) -> u64 {
        self.tracked.bytes
    }

    /// The observed load of `bin`.
    pub fn load(&self, bin: BinId) -> BinLoad {
        self.shards[self.shard_of(bin)].loads[self.slot_of(bin)]
    }

    /// A snapshot of the loads of every hosted bin, ascending by bin id.
    pub fn stats(&self) -> BinStats {
        let mut loads = Vec::with_capacity(self.hosted);
        for (shard_index, shard) in self.shards.iter().enumerate() {
            let base = shard_index << self.slot_shift;
            for (slot, contents) in shard.slots.iter().enumerate() {
                if contents.is_some() {
                    loads.push((base + slot, shard.loads[slot]));
                }
            }
        }
        BinStats { loads }
    }

    /// Iterates over the hosted bins.
    pub fn hosted(&self) -> impl Iterator<Item = (BinId, &Bin<T, S, D>)> {
        let slot_shift = self.slot_shift;
        self.shards.iter().enumerate().flat_map(move |(shard_index, shard)| {
            let base = shard_index << slot_shift;
            shard
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(slot, bin)| bin.as_ref().map(|b| (base + slot, b)))
        })
    }
}

impl<T: Timestamp, S: ChunkedCodec + 'static, D: Codec + 'static> BinStore<T, S, D> {
    fn assemblies_mut(&mut self) -> &mut HashMap<BinId, PartialInstall<T, S, D>> {
        self.assemblies
            .get_or_insert_with(|| Box::new(HashMap::<BinId, PartialInstall<T, S, D>>::new()))
            .downcast_mut()
            .expect("assembly map type is fixed by the store's type parameters")
    }

    /// Begins an incremental extraction of `bin`: the bin leaves the store
    /// immediately (records routed to it will be handled by its new owner once
    /// installed there), and its encoded bytes are pulled out fragment by
    /// fragment with [`ChunkedExtraction::next_fragment`].
    ///
    /// Pass the finished extraction to [`BinStore::recycle`], so the shard's
    /// next extraction starts from buffers of the size this one needed.
    ///
    /// # Panics
    ///
    /// Panics if the store's durable backend fails; use
    /// [`BinStore::try_extract_chunked`] to handle storage errors.
    pub fn extract_chunked(&mut self, bin: BinId) -> Option<ChunkedExtraction<T, S, D>> {
        self.try_extract_chunked(bin)
            .unwrap_or_else(|error| panic!("storage error extracting bin {bin}: {error}"))
    }

    /// [`BinStore::extract_chunked`] with storage errors surfaced instead of
    /// panicking. A durable store faults a spilled bin back in and writes its
    /// retire tombstone *before* the bin leaves memory, so a failure leaves
    /// the bin hosted and untouched (no partial migration).
    pub fn try_extract_chunked(
        &mut self,
        bin: BinId,
    ) -> Result<Option<ChunkedExtraction<T, S, D>>, StorageError> {
        if !self.is_hosted(bin) {
            return Ok(None);
        }
        self.ensure_resident(bin)?;
        if let Some(backend) = self.backend.as_mut() {
            backend.retire(bin as u64)?;
        }
        let contents = self.extract(bin).expect("hosted and resident");
        let shard = self.shard_of(bin);
        Ok(Some(ChunkedExtraction {
            bin,
            fragmenter: contents.into_fragmenter(),
            fragment_hint: self.shards[shard].fragment_hint,
            exhausted: false,
        }))
    }

    /// Retires a finished extraction, remembering in its shard how large its
    /// fragments were.
    pub fn recycle(&mut self, extraction: ChunkedExtraction<T, S, D>) {
        let shard = self.shard_of(extraction.bin);
        self.shards[shard].fragment_hint = extraction.fragment_hint;
    }

    /// Absorbs one migration fragment for `bin`. Returns `true` when `last`
    /// completes the bin: the bin is then installed, with its load's `bytes`
    /// set to the exact total of received fragment bytes.
    ///
    /// Fragments must arrive in order (the dataflow channels preserve
    /// per-sender order, and only one worker ever extracts a given bin).
    ///
    /// # Panics
    ///
    /// Panics if `last` is set but the encoding is incomplete, if the bin is
    /// already hosted when its final fragment arrives, or if the store's
    /// durable backend fails (use [`BinStore::try_install_fragment`] to handle
    /// storage errors).
    pub fn install_fragment(&mut self, bin: BinId, bytes: &[u8], last: bool) -> bool {
        self.try_install_fragment(bin, bytes, last)
            .unwrap_or_else(|error| panic!("storage error installing bin {bin}: {error}"))
    }

    /// [`BinStore::install_fragment`] with storage errors surfaced instead of
    /// panicking. On a durable store the install is atomic and
    /// crash-recoverable: every fragment is WAL-appended *before* it is
    /// absorbed, the commit record is made durable *before* the bin becomes
    /// visible in memory, and any error keeps the assembly pending (memory
    /// matches the log: fragments appended, no commit) with the backend
    /// poisoned — no partial install can be observed.
    pub fn try_install_fragment(
        &mut self,
        bin: BinId,
        bytes: &[u8],
        last: bool,
    ) -> Result<bool, StorageError> {
        Ok(!self.try_install_fragments(&[(bin as u64, bytes, last)])?.is_empty())
    }

    /// Absorbs a batch of migration fragments `(bin, bytes, last)` in order —
    /// everything one scheduling round received — and returns the bins whose
    /// install completed. A durable store logs the whole batch in one append
    /// before absorbing any of it; per fragment the guarantees are those of
    /// [`BinStore::try_install_fragment`].
    pub fn try_install_fragments(
        &mut self,
        fragments: &[FragmentRef<'_>],
    ) -> Result<Vec<BinId>, StorageError> {
        if let Some(backend) = self.backend.as_mut() {
            backend.append_fragments(fragments)?;
        }
        let mut installed = Vec::new();
        for &(bin, bytes, last) in fragments {
            if self.absorb_logged_fragment(bin as BinId, bytes, last)? {
                installed.push(bin as BinId);
            }
        }
        Ok(installed)
    }

    /// Feeds one fragment the backend (if any) already logged to `bin`'s
    /// assembler; on `last`, commits and installs the bin.
    fn absorb_logged_fragment(
        &mut self,
        bin: BinId,
        bytes: &[u8],
        last: bool,
    ) -> Result<bool, StorageError> {
        let assemblies = self.assemblies_mut();
        let entry = assemblies.entry(bin).or_insert_with(|| PartialInstall {
            assembler: Bin::<T, S, D>::assembler(),
            bytes_received: 0,
        });
        let mut slice = bytes;
        entry.assembler.absorb(&mut slice);
        debug_assert!(slice.is_empty(), "fragment for bin {bin} left {} undecoded bytes", slice.len());
        entry.bytes_received += bytes.len() as u64;
        if !last {
            return Ok(false);
        }
        assert!(
            entry.assembler.is_complete(),
            "final fragment for bin {bin} arrived before its encoding completed"
        );
        let total_bytes = entry.bytes_received;
        if let Some(backend) = self.backend.as_mut() {
            backend.commit(bin as u64, total_bytes)?;
        }
        let partial = self.assemblies_mut().remove(&bin).expect("entry just ensured");
        let contents = partial.assembler.finish();
        self.spilled.remove(&bin);
        self.install(bin, contents);
        self.set_load(bin, BinLoad { records: 0, bytes: total_bytes });
        Ok(true)
    }

    /// The number of bins with an in-progress incremental install.
    pub fn pending_installs(&self) -> usize {
        self.assemblies
            .as_ref()
            .and_then(|map| map.downcast_ref::<HashMap<BinId, PartialInstall<T, S, D>>>())
            .map_or(0, HashMap::len)
    }

    /// The fragment bytes received so far for `bin`'s in-progress install,
    /// `None` when no install is in flight. After a crash this tells a
    /// resuming migration how far into the bin's fragment stream to skip.
    pub fn pending_install_bytes(&self, bin: BinId) -> Option<u64> {
        self.assemblies
            .as_ref()
            .and_then(|map| map.downcast_ref::<HashMap<BinId, PartialInstall<T, S, D>>>())
            .and_then(|map| map.get(&bin))
            .map(|partial| partial.bytes_received)
    }

    /// Faults a spilled bin back into memory from the durable tier. Returns
    /// `true` iff the bin was spilled and is now resident (`false` when it was
    /// already resident or is not hosted here).
    pub fn ensure_resident(&mut self, bin: BinId) -> Result<bool, StorageError> {
        if !self.spilled.contains(&bin) {
            return Ok(false);
        }
        let backend = self.backend.as_mut().expect("spilled bins require a backend");
        let image = backend
            .read(bin as u64)?
            .unwrap_or_else(|| panic!("spilled bin {bin} is missing from the durable tier"));
        let contents = decode_image::<T, S, D>(bin, &image);
        self.spilled.remove(&bin);
        self.install(bin, contents);
        self.set_load(bin, BinLoad { records: 0, bytes: image.len() as u64 });
        Ok(true)
    }

    /// Spills a resident bin's image to the durable tier and releases its
    /// memory; the bin stays hosted (routing is unaffected) and faults back in
    /// on access. Returns `true` iff the bin was resident and is now spilled.
    /// The image is made durable *before* the bin leaves memory: on error the
    /// bin stays resident untouched. Requires a backend.
    pub fn spill_bin(&mut self, bin: BinId) -> Result<bool, StorageError> {
        if self.backend.is_none() || self.try_bin(bin).is_none() {
            return Ok(false);
        }
        let image = self.try_bin(bin).expect("just checked").encode_to_vec();
        self.backend.as_mut().expect("just checked").spill(bin as u64, image)?;
        let _ = self.extract(bin);
        self.spilled.insert(bin);
        Ok(true)
    }

    /// Writes every hosted bin's image as one full table and rotates the WAL,
    /// bounding recovery replay to work logged after this point. A no-op
    /// without a backend; refuses ([`StorageError::Busy`]) while an
    /// incremental install is in flight, whose WAL fragments the rotation
    /// would discard.
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        if self.backend.is_none() {
            return Ok(());
        }
        if self.pending_installs() > 0 {
            return Err(StorageError::Busy("in-flight installs block checkpoint"));
        }
        let live: Vec<(u64, Vec<u8>)> = self
            .hosted()
            .map(|(bin, contents)| (bin as u64, contents.encode_to_vec()))
            .collect();
        let spilled: Vec<u64> = self.spilled.iter().map(|&bin| bin as u64).collect();
        self.backend.as_mut().expect("just checked").checkpoint(live, &spilled)
    }

    /// Attaches `backend` to the store and overlays what it recovered:
    /// committed images install as hosted bins (load bytes set to the image
    /// size) and in-flight fragment sequences re-seed the partial-install
    /// assemblies exactly as they stood when the previous process stopped.
    ///
    /// # Panics
    ///
    /// Panics if the store already has a backend or a recovered image is not a
    /// complete encoding (the backend validates checksums, so this indicates
    /// a logic error, not disk corruption).
    pub fn attach_backend(&mut self, backend: Box<dyn StorageBackend>, recovery: Recovery) {
        assert!(self.backend.is_none(), "bin store already has a storage backend");
        self.backend = Some(backend);
        for (bin, image) in &recovery.committed {
            let bin = *bin as BinId;
            let contents = decode_image::<T, S, D>(bin, image);
            self.install(bin, contents);
            self.set_load(bin, BinLoad { records: 0, bytes: image.len() as u64 });
        }
        for (bin, fragments) in &recovery.partial {
            let bin = *bin as BinId;
            let assemblies = self.assemblies_mut();
            let entry = assemblies.entry(bin).or_insert_with(|| PartialInstall {
                assembler: Bin::<T, S, D>::assembler(),
                bytes_received: 0,
            });
            for fragment in fragments {
                let mut slice = &fragment[..];
                entry.assembler.absorb(&mut slice);
                debug_assert!(slice.is_empty(), "recovered fragment left undecoded bytes");
                entry.bytes_received += fragment.len() as u64;
            }
        }
    }

    /// Opens (or recovers) a durable store for `operator` on `worker`: an
    /// empty store overlaid with everything the backend recovered. Returns the
    /// store and whether anything was recovered — a fresh store (`false`)
    /// still needs its initial bins installed by the caller.
    pub fn open_durable(
        config: &MegaphoneConfig,
        durable: &DurableConfig,
        operator: &str,
        worker: usize,
    ) -> Result<(Self, bool), StorageError> {
        let (backend, recovery) = DurableBackend::open(durable, operator, worker)?;
        let recovered = !recovery.is_empty();
        let mut store = Self::with_layout(config.bins(), config.shards());
        store.attach_backend(Box::new(backend), recovery);
        Ok((store, recovered))
    }
}

/// Decodes a bin's full stored image (the concatenation of its fragments)
/// through its assembler, panicking if the image is not one complete encoding.
fn decode_image<T: Timestamp, S: ChunkedCodec, D: Codec>(bin: BinId, image: &[u8]) -> Bin<T, S, D> {
    let mut assembler = Bin::<T, S, D>::assembler();
    let mut slice = image;
    assembler.absorb(&mut slice);
    assert!(
        slice.is_empty() && assembler.is_complete(),
        "stored image for bin {bin} is not one complete encoding"
    );
    assembler.finish()
}

/// An in-progress incremental extraction of one bin: owns the removed bin's
/// fragmenter and yields bounded-size encoded fragments.
pub struct ChunkedExtraction<T: Timestamp, S: ChunkedCodec, D: Codec> {
    bin: BinId,
    fragmenter: BinFragmenter<T, S, D>,
    /// The capacity the next fragment's buffer starts with: the shard's hint
    /// for the first fragment, the fragment budget after a fragment that was
    /// not the last.
    fragment_hint: usize,
    exhausted: bool,
}

impl<T: Timestamp, S: ChunkedCodec, D: Codec> ChunkedExtraction<T, S, D> {
    /// The bin being extracted.
    pub fn bin(&self) -> BinId {
        self.bin
    }

    /// Encodes the next fragment of at most `chunk_bytes` (single oversized
    /// units excepted) and returns it with a flag marking the final fragment.
    ///
    /// The returned vector is the buffer the fragment was encoded into: the
    /// bytes are written once and handed out, not copied out of a scratch
    /// buffer. A bin's first buffer starts at the length of the shard's last
    /// final fragment, every later one at `chunk_bytes`, so a run of full
    /// fragments allocates each buffer once; a fragment may therefore keep
    /// capacity beyond its length.
    ///
    /// # Panics
    ///
    /// Panics if called again after the final fragment was returned.
    pub fn next_fragment(&mut self, chunk_bytes: usize) -> (Vec<u8>, bool) {
        assert!(!self.exhausted, "extraction of bin {} already finished", self.bin);
        let mut fragment = Vec::with_capacity(self.fragment_hint.min(chunk_bytes));
        let more = self.fragmenter.fill(chunk_bytes.max(1), &mut fragment);
        // A fragment that is not the last stopped at the budget, and so will
        // the next; the last one is the best guess for the shard's next bin.
        self.fragment_hint = if more { chunk_bytes } else { fragment.len() };
        self.exhausted = !more;
        (fragment, !more)
    }

    /// Returns `true` once the final fragment has been produced.
    pub fn is_finished(&self) -> bool {
        self.exhausted
    }
}

/// One encoded migration fragment of one bin, as shipped from F to S.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateFragment {
    /// The bin the fragment belongs to.
    pub bin: u64,
    /// The fragment's slice of the bin's canonical encoding.
    pub bytes: Vec<u8>,
    /// Whether this is the bin's final fragment (install completes on receipt).
    pub last: bool,
}

impl Codec for StateFragment {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.bin.encode(bytes);
        self.bytes.encode(bytes);
        self.last.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        StateFragment {
            bin: u64::decode(bytes),
            bytes: Vec::decode(bytes),
            last: bool::decode(bytes),
        }
    }
}

/// A bin store shared between the F and S operator instances of one worker.
pub type SharedBinStore<T, S, D> = Rc<RefCell<BinStore<T, S, D>>>;

/// Creates a shared bin store for `worker` of `peers` under `config`.
pub fn shared_bin_store<T, S: Default, D>(
    config: &MegaphoneConfig,
    worker: usize,
    peers: usize,
) -> SharedBinStore<T, S, D> {
    Rc::new(RefCell::new(BinStore::new(config, worker, peers)))
}

/// Creates a shared bin store for `worker` of `peers` under `config` and the
/// selected `storage` backend. In-memory stores host the round-robin initial
/// bins; durable stores recover whatever their data directory holds, falling
/// back to the initial bins only when the directory was fresh.
pub fn shared_bin_store_with_storage<T, S, D>(
    config: &MegaphoneConfig,
    storage: &StorageConfig,
    operator: &str,
    worker: usize,
    peers: usize,
) -> Result<SharedBinStore<T, S, D>, StorageError>
where
    T: Timestamp,
    S: ChunkedCodec + Default + 'static,
    D: Codec + 'static,
{
    match storage {
        StorageConfig::InMemory => Ok(shared_bin_store(config, worker, peers)),
        StorageConfig::Durable(durable) => {
            let (mut store, recovered) = BinStore::open_durable(config, durable, operator, worker)?;
            if !recovered {
                for bin in 0..config.bins() {
                    if bin % peers == worker {
                        store.install(bin, Bin { state: S::default(), pending: Vec::new() });
                    }
                }
            }
            Ok(Rc::new(RefCell::new(store)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timelite::hashing::hash_code;

    #[test]
    fn bin_count_is_power_of_two() {
        assert_eq!(MegaphoneConfig::new(0).bins(), 1);
        assert_eq!(MegaphoneConfig::new(4).bins(), 16);
        assert_eq!(MegaphoneConfig::default().bins(), 4096);
    }

    #[test]
    fn shard_count_never_exceeds_bin_count() {
        assert_eq!(MegaphoneConfig::new(0).shards(), 1);
        assert_eq!(MegaphoneConfig::new(2).shards(), 4);
        assert_eq!(MegaphoneConfig::new(12).shards(), 16);
        assert_eq!(MegaphoneConfig::new(12).with_shard_shift(6).shards(), 64);
        assert_eq!(MegaphoneConfig::new(3).with_shard_shift(6).shards(), 8);
    }

    #[test]
    fn key_to_bin_uses_most_significant_bits() {
        let config = MegaphoneConfig::new(8);
        assert_eq!(config.key_to_bin(0), 0);
        assert_eq!(config.key_to_bin(u64::MAX), 255);
        assert_eq!(config.key_to_bin(1u64 << 56), 1);
    }

    #[test]
    fn zero_shift_maps_everything_to_bin_zero() {
        let config = MegaphoneConfig::new(0);
        assert_eq!(config.key_to_bin(u64::MAX), 0);
        assert_eq!(config.key_to_bin(12345), 0);
    }

    #[test]
    fn hashed_keys_spread_over_bins() {
        let config = MegaphoneConfig::new(6);
        let mut seen = std::collections::HashSet::new();
        for key in 0..10_000u64 {
            let bin = config.key_to_bin(hash_code(&key));
            assert!(bin < config.bins());
            seen.insert(bin);
        }
        assert_eq!(seen.len(), config.bins(), "all bins should receive keys");
    }

    #[test]
    fn initial_assignment_is_round_robin() {
        let config = MegaphoneConfig::new(3);
        assert_eq!(config.initial_assignment(4), vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn store_hosts_initially_assigned_bins() {
        let config = MegaphoneConfig::new(3);
        let store: BinStore<u64, u64, ()> = BinStore::new(&config, 1, 4);
        assert_eq!(store.len(), 8);
        assert_eq!(store.hosted_count(), 2);
        assert!(store.is_hosted(1));
        assert!(store.is_hosted(5));
        assert!(!store.is_hosted(0));
    }

    #[test]
    fn sharding_preserves_bin_addressing() {
        // Every shard layout must agree on which bins are hosted and where.
        for shard_shift in [0u32, 1, 2, 3, 4] {
            let config = MegaphoneConfig::new(4).with_shard_shift(shard_shift);
            let mut store: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 2);
            assert_eq!(store.shard_count(), 1 << shard_shift.min(4));
            assert_eq!(store.hosted_count(), 8);
            for bin in 0..16 {
                assert_eq!(store.is_hosted(bin), bin % 2 == 0, "bin {bin} shift {shard_shift}");
            }
            store.bin_mut(6).state = 99;
            assert_eq!(store.try_bin(6).unwrap().state, 99);
            let shard_total: usize =
                (0..store.shard_count()).map(|s| store.shard_hosted_count(s)).sum();
            assert_eq!(shard_total, store.hosted_count());
        }
    }

    #[test]
    fn hosted_counter_tracks_extract_and_install() {
        let config = MegaphoneConfig::new(4);
        let mut store: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 1);
        assert_eq!(store.hosted_count(), 16);
        assert!(store.extract(3).is_some());
        assert!(store.extract(3).is_none(), "double extract yields nothing");
        assert_eq!(store.hosted_count(), 15);
        store.install(3, Bin::default());
        assert_eq!(store.hosted_count(), 16);
        let scanned = store.hosted().count();
        assert_eq!(scanned, store.hosted_count(), "counter must match a full scan");
    }

    #[test]
    fn extract_and_install_move_bins() {
        let config = MegaphoneConfig::new(2);
        let mut source: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 2);
        let mut target: BinStore<u64, u64, ()> = BinStore::new(&config, 1, 2);
        source.bin_mut(0).state = 42;
        let bin = source.extract(0).expect("bin 0 hosted at worker 0");
        assert!(!source.is_hosted(0));
        target.install(0, bin);
        assert_eq!(target.bin_mut(0).state, 42);
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn double_install_panics() {
        let config = MegaphoneConfig::new(1);
        let mut store: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 1);
        store.install(0, Bin::default());
    }

    #[test]
    #[should_panic(expected = "not hosted")]
    fn accessing_missing_bin_panics() {
        let config = MegaphoneConfig::new(1);
        let mut store: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 2);
        let _ = store.bin_mut(1);
    }

    #[test]
    fn bins_roundtrip_through_codec() {
        let bin: Bin<u64, Vec<(String, u64)>, (String, i64)> = Bin {
            state: vec![("word".to_string(), 3)],
            pending: vec![(10, vec![("later".to_string(), 1)])],
        };
        let bytes = bin.encode_to_vec();
        let decoded = Bin::<u64, Vec<(String, u64)>, (String, i64)>::decode_from_slice(&bytes);
        assert_eq!(bin, decoded);
    }

    #[test]
    fn chunked_extract_install_roundtrips() {
        let config = MegaphoneConfig::new(2).with_chunk_bytes(64);
        let mut source: BinStore<u64, Vec<u64>, (u64, u64)> = BinStore::new(&config, 0, 1);
        source.bin_mut(1).state = (0..100).collect();
        source.bin_mut(1).pending = vec![(7, vec![(1, 2)]), (9, vec![(3, 4), (5, 6)])];
        let expected = source.try_bin(1).cloned().unwrap();

        let mut extraction = source.extract_chunked(1).expect("bin 1 hosted");
        assert!(!source.is_hosted(1));
        let mut target: BinStore<u64, Vec<u64>, (u64, u64)> = BinStore::empty(4);
        let mut fragments = 0usize;
        loop {
            let (bytes, last) = extraction.next_fragment(config.chunk_bytes);
            assert!(bytes.len() <= config.chunk_bytes, "fragment exceeds budget");
            fragments += 1;
            let done = target.install_fragment(1, &bytes, last);
            assert_eq!(done, last);
            if last {
                break;
            }
            assert_eq!(target.pending_installs(), 1);
        }
        source.recycle(extraction);
        assert!(fragments > 1, "a 100-element bin must split under a 64-byte budget");
        assert_eq!(target.pending_installs(), 0);
        assert_eq!(target.try_bin(1).unwrap(), &expected);
        // The installed load carries the exact migrated byte count.
        let encoded = expected.encode_to_vec();
        assert_eq!(target.load(1).bytes, encoded.len() as u64);
        assert_eq!(target.load(1).records, 0);
    }

    #[test]
    fn misaligned_state_never_overshoots_the_fragment_budget() {
        // 1-byte items leave the state section ending at arbitrary offsets;
        // the pending section's 8-byte header must never push a fragment over
        // budget (regression: header chained onto a nearly full fragment).
        for state_len in [0usize, 1, 55, 56, 57, 63, 119, 120, 127, 128, 200] {
            let chunk = 64;
            let bin: Bin<u64, Vec<u8>, (u64, u64)> = Bin {
                state: vec![7u8; state_len],
                pending: vec![(1, vec![(2, 3)]), (4, vec![(5, 6)])],
            };
            let whole = bin.encode_to_vec();
            let fragments = crate::codec::encode_fragments(bin.clone(), chunk);
            let concatenated: Vec<u8> = fragments.iter().flatten().copied().collect();
            assert_eq!(concatenated, whole, "state_len {state_len}");
            for (index, fragment) in fragments.iter().enumerate() {
                assert!(
                    fragment.len() <= chunk,
                    "state_len {state_len}: fragment {index} is {} bytes (> {chunk})",
                    fragment.len()
                );
            }
            let rebuilt: Bin<u64, Vec<u8>, (u64, u64)> =
                crate::codec::decode_fragments(&fragments);
            assert_eq!(rebuilt, bin);
        }
    }

    #[test]
    fn set_load_carries_accounting_across_self_migration() {
        let config = MegaphoneConfig::new(2);
        let mut store: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 1);
        store.note_records(1, 42, 336);
        // An extract+install round trip clears the load; set_load restores
        // the snapshot taken beforehand.
        let load = store.load(1);
        let contents = store.extract(1).expect("hosted");
        store.install(1, contents);
        assert_eq!(store.load(1), BinLoad::default());
        store.set_load(1, load);
        assert_eq!(store.load(1), BinLoad { records: 42, bytes: 336 });
    }

    #[test]
    fn handover_round_trip_preserves_load_exactly() {
        let config = MegaphoneConfig::new(2);
        let mut first: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 1);
        let mut second: BinStore<u64, u64, ()> = BinStore::empty(4);
        first.note_records(1, 42, 336);
        let before = first.load(1);
        let (contents, load) = first.take_with_load(1).expect("hosted");
        assert_eq!(first.tracked_bytes(), 0);
        second.adopt(1, contents, load);
        assert_eq!(second.load(1), before);
        assert_eq!(second.tracked_bytes(), 336);
        let (contents, load) = second.take_with_load(1).expect("adopted");
        first.adopt(1, contents, load);
        assert_eq!(first.load(1), BinLoad { records: 42, bytes: 336 });
        assert_eq!(first.stats().total_records(), 42);
        assert_eq!(first.tracked_bytes(), 336);
        assert_eq!(second.tracked_bytes(), 0);
        assert!(first.take_with_load(1).is_some() && first.take_with_load(1).is_none());
    }

    #[test]
    fn load_accounting_feeds_stats() {
        let config = MegaphoneConfig::new(3);
        let mut store: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 1);
        store.note_records(2, 10, 80);
        store.note_records(2, 5, 40);
        store.note_records(6, 1, 8);
        assert_eq!(store.load(2), BinLoad { records: 15, bytes: 120 });
        let stats = store.stats();
        assert_eq!(stats.len(), 8, "all hosted bins appear in the snapshot");
        assert_eq!(stats.total_records(), 16);
        assert_eq!(stats.total_bytes(), 128);
        let scores = stats.score_vector(8);
        assert!(scores[2] > scores[6]);
        assert_eq!(scores[0], 0);
        // Extraction clears the load.
        store.extract(2);
        assert_eq!(store.stats().total_records(), 1);
    }

    #[test]
    fn tracked_aggregate_matches_snapshot_totals() {
        let config = MegaphoneConfig::new(3).with_chunk_bytes(64);
        let mut store: BinStore<u64, Vec<u64>, (u64, u64)> = BinStore::new(&config, 0, 1);
        assert_eq!(store.tracked_bytes(), 0);
        store.note_records(0, 5, 40);
        store.note_records(3, 2, 16);
        assert_eq!(store.tracked_bytes(), store.stats().total_bytes());
        // Extract drops the bin's share from the aggregate…
        let extraction = store.extract_chunked(0).expect("hosted");
        assert_eq!(store.tracked_bytes(), 16);
        store.recycle(extraction);
        // …handover round trips preserve it…
        let (contents, load) = store.take_with_load(3).expect("hosted");
        store.adopt(3, contents, load);
        assert_eq!(store.tracked_bytes(), 16);
        // …and a fragment install adds the exact migrated byte count.
        let mut other: BinStore<u64, Vec<u64>, (u64, u64)> = BinStore::empty(8);
        let bin: Bin<u64, Vec<u64>, (u64, u64)> =
            Bin { state: vec![1, 2, 3], pending: Vec::new() };
        let encoded_len = bin.encode_to_vec().len() as u64;
        let fragments = crate::codec::encode_fragments(bin, 64);
        for (index, fragment) in fragments.iter().enumerate() {
            other.install_fragment(5, fragment, index + 1 == fragments.len());
        }
        assert_eq!(other.tracked_bytes(), encoded_len);
        assert_eq!(other.tracked_bytes(), other.stats().total_bytes());
    }

    #[test]
    fn stats_merge_is_disjoint_union() {
        let config = MegaphoneConfig::new(2);
        let mut a: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 2);
        let mut b: BinStore<u64, u64, ()> = BinStore::new(&config, 1, 2);
        a.note_records(0, 3, 0);
        b.note_records(1, 7, 0);
        let mut merged = a.stats();
        merged.merge(&b.stats());
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.total_records(), 10);
        let bins: Vec<BinId> = merged.loads().iter().map(|(bin, _)| *bin).collect();
        assert_eq!(bins, vec![0, 1, 2, 3], "merged snapshot is sorted by bin");
    }

    #[test]
    fn stats_merge_sums_overlapping_bins() {
        // Two operators sharing one bin space on the same worker: merging
        // their snapshots sums per-bin loads instead of duplicating entries.
        let config = MegaphoneConfig::new(2);
        let mut a: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 1);
        let mut b: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 1);
        a.note_records(1, 3, 30);
        b.note_records(1, 4, 40);
        b.note_records(2, 5, 50);
        let mut merged = a.stats();
        merged.merge(&b.stats());
        assert_eq!(merged.len(), 4, "one entry per bin, not per source");
        let scores = merged.score_vector(4);
        assert_eq!(merged.loads()[1].1, BinLoad { records: 7, bytes: 70 });
        assert_eq!(merged.total_records(), 12);
        assert!(scores[1] > scores[2]);
    }

    #[test]
    fn delta_since_subtracts_and_detects_resets() {
        let config = MegaphoneConfig::new(2);
        let mut store: BinStore<u64, u64, ()> = BinStore::new(&config, 0, 1);
        store.note_records(0, 10, 100);
        store.note_records(1, 5, 50);
        let before = store.stats();
        store.note_records(0, 7, 70);
        // Bin 1 migrates away and back: its counter restarts below `before`.
        let contents = store.extract(1).expect("hosted");
        store.install(1, contents);
        store.note_records(1, 2, 20);
        let delta = store.stats().delta_since(&before);
        let by_bin: std::collections::HashMap<BinId, BinLoad> =
            delta.loads().iter().copied().collect();
        assert_eq!(by_bin[&0], BinLoad { records: 7, bytes: 70 });
        assert_eq!(by_bin[&1], BinLoad { records: 2, bytes: 20 }, "reset uses the new counter");
        assert_eq!(by_bin[&2], BinLoad::default(), "untouched bins have zero delta");
    }

    #[test]
    fn delta_since_survives_a_full_worker_restart() {
        // A worker restart mid-window: every one of its counters restarts at
        // zero and some bins are no longer hosted at all. The delta must use
        // the fresh counters (never wrap below zero) and simply omit bins the
        // new snapshot no longer covers.
        let before = BinStats {
            loads: vec![
                (0, BinLoad { records: 100, bytes: 1_000 }),
                (1, BinLoad { records: 50, bytes: 500 }),
                (2, BinLoad { records: 7, bytes: 70 }),
            ],
        };
        let after = BinStats {
            loads: vec![
                (0, BinLoad { records: 3, bytes: 30 }),
                (2, BinLoad { records: 9, bytes: 90 }),
            ],
        };
        let delta = after.delta_since(&before);
        let by_bin: std::collections::HashMap<BinId, BinLoad> =
            delta.loads().iter().copied().collect();
        assert_eq!(by_bin[&0], BinLoad { records: 3, bytes: 30 }, "reset uses the new counter");
        assert_eq!(by_bin[&2], BinLoad { records: 2, bytes: 20 }, "survivors subtract normally");
        assert!(!by_bin.contains_key(&1), "bins absent from the new snapshot have no delta");
        let live: std::collections::HashMap<BinId, BinLoad> =
            after.loads().iter().copied().collect();
        for (bin, load) in delta.loads() {
            assert!(
                load.records <= live[bin].records && load.bytes <= live[bin].bytes,
                "bin {bin}: a delta larger than the live counter means a wrapped subtraction"
            );
        }
    }

    #[test]
    fn delta_since_clamps_mixed_direction_resets() {
        // One counter shrank (restart) while the other grew past its old
        // value (heavy traffic since): each field is clamped independently.
        let before = BinStats { loads: vec![(4, BinLoad { records: 40, bytes: 100 })] };
        let after = BinStats { loads: vec![(4, BinLoad { records: 6, bytes: 260 })] };
        let delta = after.delta_since(&before);
        assert_eq!(delta.loads(), &[(4, BinLoad { records: 6, bytes: 160 })]);
    }

    #[test]
    fn merged_snapshots_stay_clamped_across_a_restart() {
        // The closed-loop controller observes *merged* per-worker snapshots.
        // Worker 1 restarting between two observations shrinks the merged
        // counters of its bins; the delta must fall back to the fresh merged
        // counter instead of wrapping.
        let mut before = BinStats { loads: vec![(0, BinLoad { records: 60, bytes: 600 })] };
        before.merge(&BinStats { loads: vec![(0, BinLoad { records: 40, bytes: 400 })] });
        assert_eq!(before.loads(), &[(0, BinLoad { records: 100, bytes: 1_000 })]);

        let mut after = BinStats { loads: vec![(0, BinLoad { records: 70, bytes: 700 })] };
        after.merge(&BinStats { loads: vec![(0, BinLoad { records: 2, bytes: 20 })] });
        let delta = after.delta_since(&before);
        assert_eq!(
            delta.loads(),
            &[(0, BinLoad { records: 72, bytes: 720 })],
            "a merged counter that shrank is treated as a restarted bin"
        );
        assert!(delta.total_records() <= after.total_records());
    }

    #[test]
    fn merge_with_empty_is_identity_and_order_insensitive() {
        let some = BinStats {
            loads: vec![
                (1, BinLoad { records: 5, bytes: 50 }),
                (3, BinLoad { records: 7, bytes: 70 }),
            ],
        };
        let mut merged = some.clone();
        merged.merge(&BinStats::default());
        assert_eq!(merged.loads(), some.loads());
        let mut from_empty = BinStats::default();
        from_empty.merge(&some);
        assert_eq!(from_empty.loads(), some.loads());

        let other = BinStats {
            loads: vec![
                (0, BinLoad { records: 1, bytes: 10 }),
                (3, BinLoad { records: 2, bytes: 20 }),
            ],
        };
        let mut ab = some.clone();
        ab.merge(&other);
        let mut ba = other.clone();
        ba.merge(&some);
        assert_eq!(ab.loads(), ba.loads(), "merge is order-insensitive");
        assert_eq!(ab.loads()[2].1, BinLoad { records: 9, bytes: 90 }, "shared bin sums");
    }

    fn durable_config(name: &str) -> DurableConfig {
        let root = std::env::temp_dir()
            .join(format!("mp-bins-durable-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&root);
        DurableConfig::new(root).with_fsync(false)
    }

    type TestStore = BinStore<u64, Vec<u64>, (u64, u64)>;

    #[test]
    fn durable_install_survives_a_reopen() {
        let config = MegaphoneConfig::new(2).with_chunk_bytes(32);
        let durable = durable_config("install");
        let bin: Bin<u64, Vec<u64>, (u64, u64)> =
            Bin { state: (0..40).collect(), pending: vec![(5, vec![(1, 2)])] };
        let fragments = crate::codec::encode_fragments(bin.clone(), config.chunk_bytes);
        assert!(fragments.len() > 1, "the bin must migrate in several fragments");
        {
            let (mut store, recovered) =
                TestStore::open_durable(&config, &durable, "op", 0).expect("open");
            assert!(!recovered);
            for (index, fragment) in fragments.iter().enumerate() {
                store
                    .try_install_fragment(2, fragment, index + 1 == fragments.len())
                    .expect("install fragment");
            }
            assert_eq!(store.try_bin(2), Some(&bin));
            // No explicit sync: the commit record itself is the durability point.
        }
        let (store, recovered) = TestStore::open_durable(&config, &durable, "op", 0).expect("reopen");
        assert!(recovered);
        assert_eq!(store.try_bin(2), Some(&bin), "committed install recovers byte-identically");
        assert_eq!(store.load(2).bytes, bin.encode_to_vec().len() as u64);
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn committed_installs_live_in_the_log_until_a_checkpoint_writes_the_table() {
        let config = MegaphoneConfig::new(3).with_chunk_bytes(64 << 10);
        // A 1-byte memtable budget: anything inserted would flush at once.
        let durable = durable_config("no-table").with_memtable_bytes(1);
        let dir = durable.store_dir("op", 0);
        let tables_on_disk = || {
            std::fs::read_dir(&dir)
                .expect("list store")
                .filter(|entry| {
                    entry.as_ref().expect("entry").file_name().to_string_lossy().starts_with("sst-")
                })
                .count()
        };
        let image = |bin: usize, salt: u64| -> Bin<u64, Vec<u64>, (u64, u64)> {
            Bin { state: (0..32 << 10).map(|i| i ^ salt ^ bin as u64).collect(), pending: Vec::new() }
        };
        let install = |store: &mut TestStore, bin: usize, contents: &Bin<u64, Vec<u64>, (u64, u64)>| {
            let fragments = crate::codec::encode_fragments(contents.clone(), config.chunk_bytes);
            assert!(fragments.len() >= 4, "256 KiB must span several 64 KiB fragments");
            let last = fragments.len() - 1;
            if bin.is_multiple_of(2) {
                // The whole bin as one scheduling round's batch.
                let batch: Vec<FragmentRef<'_>> = fragments
                    .iter()
                    .enumerate()
                    .map(|(index, fragment)| (bin as u64, &fragment[..], index == last))
                    .collect();
                assert_eq!(store.try_install_fragments(&batch).expect("install"), vec![bin]);
            } else {
                for (index, fragment) in fragments.iter().enumerate() {
                    let done = store.try_install_fragment(bin, fragment, index == last);
                    assert_eq!(done.expect("install"), index == last);
                }
            }
        };
        let reopen_and_expect = |expected: &[Bin<u64, Vec<u64>, (u64, u64)>]| {
            let (store, recovered) =
                TestStore::open_durable(&config, &durable, "op", 0).expect("reopen");
            assert!(recovered);
            for (bin, contents) in expected.iter().enumerate() {
                assert_eq!(store.try_bin(bin), Some(contents), "bin {bin} after reopen");
            }
            store
        };

        let mut bins: Vec<_> = (0..config.bins()).map(|bin| image(bin, 0)).collect();
        {
            let (mut store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("open");
            for (bin, contents) in bins.iter().enumerate() {
                install(&mut store, bin, contents);
            }
            let stats = store.storage_stats().expect("durable store has stats");
            assert_eq!((stats.tables, stats.memtable_bytes, stats.compactions), (0, 0, 0));
            assert_eq!(tables_on_disk(), 0, "a commit must not write a table");
            // Dropped without a checkpoint: the log alone is the image.
        }
        let mut store = reopen_and_expect(&bins);

        store.checkpoint().expect("checkpoint");
        let stats = store.storage_stats().expect("stats");
        assert_eq!((stats.tables, stats.wal_records, stats.checkpoints), (1, 0, 1));
        assert_eq!(tables_on_disk(), 1, "the checkpoint writes exactly one table");
        drop(store);
        let mut store = reopen_and_expect(&bins);

        // Retire → re-install → crash: the log's newer image must win over
        // the checkpoint table's.
        let extraction = store.try_extract_chunked(3).expect("retire").expect("hosted");
        store.recycle(extraction);
        bins[3] = image(3, 0xFFFF);
        install(&mut store, 3, &bins[3]);
        assert_eq!(tables_on_disk(), 1);
        drop(store);
        reopen_and_expect(&bins);
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn uncommitted_install_recovers_as_pending_and_completes() {
        let config = MegaphoneConfig::new(2).with_chunk_bytes(32);
        let durable = durable_config("pending");
        let bin: Bin<u64, Vec<u64>, (u64, u64)> =
            Bin { state: (0..40).collect(), pending: Vec::new() };
        let fragments = crate::codec::encode_fragments(bin.clone(), config.chunk_bytes);
        assert!(fragments.len() >= 3);
        let fed = fragments.len() - 1; // crash before the final fragment
        {
            let (mut store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("open");
            for fragment in &fragments[..fed] {
                store.try_install_fragment(1, fragment, false).expect("install fragment");
            }
            store.sync().expect("sync");
            assert_eq!(store.pending_installs(), 1);
        }
        let (mut store, recovered) =
            TestStore::open_durable(&config, &durable, "op", 0).expect("reopen");
        assert!(recovered);
        assert!(!store.is_hosted(1), "uncommitted installs must not surface as hosted");
        assert_eq!(store.pending_installs(), 1);
        let expected: u64 = fragments[..fed].iter().map(|f| f.len() as u64).sum();
        assert_eq!(store.pending_install_bytes(1), Some(expected));
        // The resumed migration feeds the remaining fragments and completes.
        for (index, fragment) in fragments[fed..].iter().enumerate() {
            store
                .try_install_fragment(1, fragment, fed + index + 1 == fragments.len())
                .expect("resume install");
        }
        assert_eq!(store.try_bin(1), Some(&bin));
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn chunked_extraction_retires_the_stored_bin() {
        let config = MegaphoneConfig::new(2).with_chunk_bytes(64);
        let durable = durable_config("retire");
        {
            let (mut store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("open");
            store.install(3, Bin { state: vec![9; 10], pending: Vec::new() });
            store.checkpoint().expect("checkpoint");
            let mut extraction = store.extract_chunked(3).expect("hosted");
            while !extraction.is_finished() {
                let _ = extraction.next_fragment(config.chunk_bytes);
            }
            store.recycle(extraction);
        }
        let (store, recovered) = TestStore::open_durable(&config, &durable, "op", 0).expect("reopen");
        assert!(!store.is_hosted(3), "a migrated-away bin must not resurrect");
        assert!(!recovered || store.hosted_count() == 0);
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn plain_extract_keeps_the_bin_durable_for_self_migration() {
        // Extract + install on the same worker must NOT retire the stored
        // image, or a crash after it would lose the bin.
        let config = MegaphoneConfig::new(2).with_chunk_bytes(64);
        let durable = durable_config("selfmig");
        let bin: Bin<u64, Vec<u64>, (u64, u64)> = Bin { state: vec![4, 5], pending: Vec::new() };
        {
            let (mut store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("open");
            store.install(0, bin.clone());
            store.checkpoint().expect("checkpoint");
            let load = store.load(0);
            let contents = store.extract(0).expect("hosted");
            store.install(0, contents);
            store.set_load(0, load);
        }
        let (store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("reopen");
        assert_eq!(store.try_bin(0), Some(&bin), "self-migrated bin still recovers");
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn spill_evicts_and_faults_back_in() {
        let config = MegaphoneConfig::new(2).with_chunk_bytes(64);
        let durable = durable_config("spill");
        let (mut store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("open");
        let bin: Bin<u64, Vec<u64>, (u64, u64)> =
            Bin { state: (0..50).collect(), pending: vec![(9, vec![(8, 7)])] };
        store.install(1, bin.clone());
        store.install(2, Bin { state: vec![1], pending: Vec::new() });
        store.note_records(2, 100, 8); // hot: must not spill
        assert!(store.spill_bin(1).expect("spill"));
        assert!(store.is_hosted(1), "spilled bins stay hosted for routing");
        assert!(store.try_bin(1).is_none(), "spilled bins are not resident");
        assert_eq!(store.spilled_count(), 1);
        assert_eq!(store.hosted_count(), 2);
        assert!(store.ensure_resident(1).expect("fault in"));
        assert_eq!(store.try_bin(1), Some(&bin), "faulted-in bin is byte-identical");
        assert_eq!(store.spilled_count(), 0);
        // A faulted-in bin spills again, and only the bin named leaves memory.
        assert!(store.spill_bin(1).expect("spill again"));
        assert!(store.try_bin(1).is_none());
        assert!(store.try_bin(2).is_some(), "hot bin stays resident");
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn spilled_bins_survive_a_reopen() {
        let config = MegaphoneConfig::new(2).with_chunk_bytes(64);
        let durable = durable_config("spill-reopen");
        let bin: Bin<u64, Vec<u64>, (u64, u64)> = Bin { state: vec![3; 30], pending: Vec::new() };
        {
            let (mut store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("open");
            store.install(2, bin.clone());
            assert!(store.spill_bin(2).expect("spill"));
        }
        let (store, recovered) = TestStore::open_durable(&config, &durable, "op", 0).expect("reopen");
        assert!(recovered);
        assert_eq!(store.try_bin(2), Some(&bin), "the spill record is a durability point");
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn checkpoint_refuses_in_flight_installs_and_recovers_after() {
        let config = MegaphoneConfig::new(2).with_chunk_bytes(16);
        let durable = durable_config("ckpt-busy");
        let bin: Bin<u64, Vec<u64>, (u64, u64)> =
            Bin { state: (0..30).collect(), pending: Vec::new() };
        let fragments = crate::codec::encode_fragments(bin.clone(), config.chunk_bytes);
        let (mut store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("open");
        store.try_install_fragment(1, &fragments[0], false).expect("first fragment");
        assert!(matches!(store.checkpoint(), Err(StorageError::Busy(_))));
        for (index, fragment) in fragments[1..].iter().enumerate() {
            store
                .try_install_fragment(1, fragment, index + 2 == fragments.len())
                .expect("install");
        }
        store.checkpoint().expect("checkpoint after install completes");
        let stats = store.storage_stats().expect("durable store has stats");
        assert_eq!(stats.wal_records, 0, "checkpoint rotates the WAL");
        assert_eq!(stats.checkpoints, 1);
        drop(store);
        let (store, _) = TestStore::open_durable(&config, &durable, "op", 0).expect("reopen");
        assert_eq!(store.try_bin(1), Some(&bin));
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn shared_store_with_storage_installs_defaults_only_when_fresh() {
        let config = MegaphoneConfig::new(2);
        let durable = durable_config("shared");
        let storage = StorageConfig::Durable(durable.clone());
        {
            let store = shared_bin_store_with_storage::<u64, Vec<u64>, (u64, u64)>(
                &config, &storage, "op", 0, 2,
            )
            .expect("open");
            let mut store = store.borrow_mut();
            assert_eq!(store.hosted_count(), 2, "fresh store hosts the round-robin bins");
            store.bin_mut(0).state = vec![42];
            store.checkpoint().expect("checkpoint");
        }
        let store = shared_bin_store_with_storage::<u64, Vec<u64>, (u64, u64)>(
            &config, &storage, "op", 0, 2,
        )
        .expect("reopen");
        let store = store.borrow();
        assert_eq!(store.hosted_count(), 2, "recovery replaces the defaults");
        assert_eq!(store.try_bin(0).expect("hosted").state, vec![42]);
        let in_memory = shared_bin_store_with_storage::<u64, Vec<u64>, (u64, u64)>(
            &config,
            &StorageConfig::InMemory,
            "op",
            0,
            2,
        )
        .expect("in-memory");
        assert!(!in_memory.borrow().has_backend());
        let _ = std::fs::remove_dir_all(&durable.root);
    }

    #[test]
    fn worker_scores_and_imbalance_follow_the_assignment() {
        let stats = BinStats {
            loads: vec![
                (0, BinLoad { records: 900, bytes: 0 }),
                (1, BinLoad { records: 100, bytes: 0 }),
                (2, BinLoad { records: 0, bytes: 0 }),
                (3, BinLoad { records: 0, bytes: 0 }),
            ],
        };
        let skewed = vec![0usize, 0, 1, 1];
        assert_eq!(stats.worker_scores(&skewed, 2), vec![1_000, 0]);
        assert!((stats.imbalance(&skewed, 2) - 2.0).abs() < 1e-9);
        let balanced = vec![0usize, 1, 0, 1];
        assert_eq!(stats.worker_scores(&balanced, 2), vec![900, 100]);
        assert!((stats.imbalance(&balanced, 2) - 1.8).abs() < 1e-9);
        assert_eq!(BinStats::default().imbalance(&balanced, 2), 1.0, "no load is balanced");
    }
}
