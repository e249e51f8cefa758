//! A `u64`-keyed table whose memory is its wire image: fixed-width slots in one
//! `Vec<u64>`, variable-width payloads in one `Vec<u8>`.
//!
//! A map-shaped bin (`HashMap<u64, (u64, String)>`) costs a migration one hash,
//! one allocation and one copy *per entry* on the receiving worker, and one
//! pointer chase per entry on the sending one. [`FlatTable`] holds the same
//! content — per key one fixed-width value word and one byte string — without a
//! heap object per entry, so that [`Codec::encode`] is two `extend_from_slice`s
//! and decoding is two bulk copies and one validating pass: the bin moves at
//! the speed of a `Vec<u64>` bin (`bin_migrate_large/q8_shape/flat` against
//! `…/vec` in `crates/bench`).
//!
//! # Layout
//!
//! ```text
//! slots: Vec<u64>   3 words per slot, `capacity` (0 or a power of two) slots
//!
//!   word 0      word 1      word 2
//!  +-----------+-----------+---------------------------+
//!  | key       | value     | offset << 32 | (len + 1)  |   an occupied slot
//!  +-----------+-----------+---------------------------+
//!  | 0         | 0         | 0                         |   an empty slot
//!  +-----------+-----------+---------------------------+
//!
//! arena: Vec<u8>    payload of a slot = arena[offset .. offset + len]
//! ```
//!
//! The length is stored plus one, so the all-zero slot is the empty one (every
//! `u64` is a valid key, and a payload may be empty) and a fresh table is one
//! zeroed allocation. A key lives in the first free slot at or after
//! `hash_code(key) & (capacity - 1)`, wrapping around (linear probing). The bin
//! of a key is chosen by the *top* bits of the same hash
//! ([`MegaphoneConfig::key_to_bin`](crate::MegaphoneConfig::key_to_bin)); the
//! table indexes by the low ones, which the keys of one bin do not share.
//!
//! # Invariants
//!
//! * at most three quarters of the slots are occupied, so every probe ends at
//!   an empty slot;
//! * no slot was ever emptied under a probe chain — there is no `remove`, and
//!   no tombstone: entries leave through [`FlatTable::retain`], which re-places
//!   the survivors in a table sized for them and copies their payloads to the
//!   front of a fresh arena;
//! * arena bytes no slot refers to (the old payload of an overwritten key that
//!   outgrew it) are at most half the arena plus [`COMPACT_SLACK`]; `retain`
//!   and every growth leave none.
//!
//! # The image
//!
//! `[entries: u64][slots as Vec<u64>][arena as Vec<u8>]`, fragmented by chaining
//! the bulk `Vec<u64>` and `Vec<u8>` paths under one budget
//! ([`ChainFragmenter`]) — extraction does no per-entry work. Slot positions
//! depend only on [`hash_code`], which has no per-process seed, so the receiver
//! adopts the slots where they are: nothing is rehashed or re-inserted. It
//! checks, in one pass and before the table is used ([`FlatTable::from_image`]):
//! the slot count is zero or three times a power of two, every occupied slot's
//! payload lies inside the arena, the occupied slots are as many as the header
//! says and leave a slot empty. That is what keeps [`FlatTable::get`] in
//! bounds and every probe finite whatever bytes arrive; it does not check that
//! a key sits on its own probe path (a misplaced key is merely not found).

use timelite::hashing::hash_code;

use crate::codec::{ChainAssembler, ChainFragmenter, ChunkedCodec, Codec};

/// Words per slot: key, value, packed payload reference.
const SLOT_WORDS: usize = 3;
/// Slots of the smallest non-empty table.
const MIN_SLOTS: usize = 8;
/// Dead arena bytes tolerated on top of "as many as live ones" before an
/// overwrite compacts the arena.
pub const COMPACT_SLACK: usize = 4096;

/// A `u64 → (u64, bytes)` open-addressed table over a byte arena; see the
/// [module documentation](self).
#[derive(Clone, Default)]
pub struct FlatTable {
    /// Occupied slots.
    len: usize,
    /// Payload bytes the occupied slots refer to (not part of the image).
    live: usize,
    slots: Vec<u64>,
    arena: Vec<u8>,
}

fn pack(offset: usize, len: usize) -> u64 {
    (offset as u64) << 32 | (len as u64 + 1)
}

/// `(offset, len)` of an occupied slot's third word.
fn unpack(meta: u64) -> (usize, usize) {
    ((meta >> 32) as usize, (meta as u32 - 1) as usize)
}

/// The smallest capacity that holds `len` entries at most three quarters full.
fn capacity_for(len: usize) -> usize {
    match len {
        0 => 0,
        _ => (len * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS),
    }
}

impl FlatTable {
    /// Creates an empty table; it allocates on the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` iff the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots: zero or a power of two.
    pub fn capacity(&self) -> usize {
        self.slots.len() / SLOT_WORDS
    }

    /// Bytes of the arena, dead ones included.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// The first word of `key`'s slot, or of the empty slot that ends its probe
    /// path, and whether it is the former. The table must have slots.
    #[inline]
    fn probe(&self, key: u64) -> (usize, bool) {
        let mask = self.capacity() - 1;
        let mut slot = hash_code(&key) as usize & mask;
        loop {
            let base = slot * SLOT_WORDS;
            let words = &self.slots[base..base + SLOT_WORDS];
            if words[2] == 0 {
                return (base, false);
            }
            if words[0] == key {
                return (base, true);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn payload(&self, meta: u64) -> &[u8] {
        let (offset, len) = unpack(meta);
        &self.arena[offset..offset + len]
    }

    /// The value word and payload stored under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<(u64, &[u8])> {
        if self.slots.is_empty() {
            return None;
        }
        let (base, found) = self.probe(key);
        found.then(|| (self.slots[base + 1], self.payload(self.slots[base + 2])))
    }

    /// Appends `payload` to the arena and returns its packed reference.
    fn append(&mut self, payload: &[u8]) -> u64 {
        let offset = self.arena.len();
        assert!(offset + payload.len() < u32::MAX as usize, "flat table arena exceeds 4 GiB");
        self.arena.extend_from_slice(payload);
        pack(offset, payload.len())
    }

    /// Stores `(value, payload)` under `key`, replacing what was there.
    /// Returns `true` iff the key is new.
    pub fn insert(&mut self, key: u64, value: u64, payload: &[u8]) -> bool {
        if (self.len + 1) * 4 > self.capacity() * 3 {
            self.rebuild((self.capacity() * 2).max(MIN_SLOTS));
        }
        let (base, found) = self.probe(key);
        let meta = if found {
            let (offset, len) = unpack(self.slots[base + 2]);
            self.live -= len;
            if payload.len() <= len {
                self.arena[offset..offset + payload.len()].copy_from_slice(payload);
                pack(offset, payload.len())
            } else {
                self.append(payload)
            }
        } else {
            self.len += 1;
            self.append(payload)
        };
        self.live += payload.len();
        self.slots[base..base + SLOT_WORDS].copy_from_slice(&[key, value, meta]);
        if self.arena.len() > 2 * self.live + COMPACT_SLACK {
            self.rebuild(self.capacity());
        }
        !found
    }

    /// Keeps the entries for which `keep(key, value, payload)` holds, in one
    /// pass over the slots. If any entry goes, the survivors are re-placed in
    /// a table sized for them and the arena is compacted; a pass that keeps
    /// everything writes nothing.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, u64, &[u8]) -> bool) {
        let before = self.len;
        for words in self.slots.chunks_exact_mut(SLOT_WORDS) {
            if words[2] == 0 {
                continue;
            }
            let (offset, len) = unpack(words[2]);
            if !keep(words[0], words[1], &self.arena[offset..offset + len]) {
                words[2] = 0;
                self.len -= 1;
                self.live -= len;
            }
        }
        if self.len < before {
            self.rebuild(capacity_for(self.len));
        }
    }

    /// Every entry, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &[u8])> + '_ {
        self.slots
            .chunks_exact(SLOT_WORDS)
            .filter(|words| words[2] != 0)
            .map(|words| (words[0], words[1], self.payload(words[2])))
    }

    /// Moves the occupied slots into a fresh table of `capacity` slots and
    /// their payloads, back to back, into a fresh arena. Does not rely on the
    /// old slots' probe chains (`retain` has just broken them).
    fn rebuild(&mut self, capacity: usize) {
        let slots = std::mem::replace(&mut self.slots, vec![0; capacity * SLOT_WORDS]);
        let arena = std::mem::replace(&mut self.arena, Vec::with_capacity(self.live));
        for words in slots.chunks_exact(SLOT_WORDS).filter(|words| words[2] != 0) {
            let (offset, len) = unpack(words[2]);
            let meta = self.append(&arena[offset..offset + len]);
            let (base, _) = self.probe(words[0]);
            self.slots[base..base + SLOT_WORDS].copy_from_slice(&[words[0], words[1], meta]);
        }
    }

    /// Adopts a received image — the entry count, the slot words and the arena
    /// — as a table, after the one validating pass the
    /// [module documentation](self) describes.
    ///
    /// # Panics
    ///
    /// Panics with a `corrupt flat table: …` message if the image is not one a
    /// `FlatTable` can have written.
    pub fn from_image(len: usize, slots: Vec<u64>, arena: Vec<u8>) -> Self {
        check_shape(len, slots.len());
        let (mut occupied, mut live) = (0usize, 0usize);
        for words in slots.chunks_exact(SLOT_WORDS).filter(|words| words[2] != 0) {
            // A length is stored plus one: a non-zero word with none is not a slot.
            let (offset, biased) = (words[2] >> 32, words[2] & u64::from(u32::MAX));
            if biased == 0 || offset + biased - 1 > arena.len() as u64 {
                panic!(
                    "corrupt flat table: payload reference {:#x} of key {} points outside a {}-byte arena",
                    words[2],
                    words[0],
                    arena.len()
                );
            }
            occupied += 1;
            live += biased as usize - 1;
        }
        if occupied != len {
            panic!("corrupt flat table: {occupied} occupied slots under a header of {len}");
        }
        FlatTable { len, live, slots, arena }
    }
}

/// The checks on an image's two counts, made before its slots are looked at
/// (or, decoding one buffer, allocated).
fn check_shape(len: usize, words: usize) {
    let capacity = words / SLOT_WORDS;
    if !words.is_multiple_of(SLOT_WORDS) || !(capacity == 0 || capacity.is_power_of_two()) {
        panic!("corrupt flat table: {words} slot words are not 3 x a power of two");
    }
    if len > 0 && len >= capacity {
        panic!("corrupt flat table: {len} entries leave no empty slot among {capacity}");
    }
}

/// Same entries, whatever the slot order, capacity and arena layout.
impl PartialEq for FlatTable {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.iter().all(|(key, value, payload)| other.get(key) == Some((value, payload)))
    }
}

impl std::fmt::Debug for FlatTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(key, value, payload)| (key, (value, payload))))
            .finish()
    }
}

/// Reads one 8-byte count off the front of an image.
fn header(bytes: &mut &[u8], what: &str) -> usize {
    if bytes.len() < std::mem::size_of::<u64>() {
        panic!("corrupt flat table: the image ends before its {what}");
    }
    usize::decode(bytes)
}

impl Codec for FlatTable {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len.encode(bytes);
        self.slots.encode(bytes);
        self.arena.encode(bytes);
    }

    /// # Panics
    ///
    /// Panics with a `corrupt …` message on a truncated or inconsistent image
    /// (see [`FlatTable::from_image`]); both vectors are only allocated once
    /// their bytes are known to be there.
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = header(bytes, "entry count");
        let words = header(bytes, "slot count");
        check_shape(len, words);
        let mut slots = Vec::new();
        u64::decode_extend(&mut slots, words, bytes);
        let arena_len = header(bytes, "arena length");
        let mut arena = Vec::new();
        u8::decode_extend(&mut arena, arena_len, bytes);
        FlatTable::from_image(len, slots, arena)
    }
}

type VecChunks<T> = <Vec<T> as ChunkedCodec>::Fragmenter;
type VecAssembly<T> = <Vec<T> as ChunkedCodec>::Assembler;

impl ChunkedCodec for FlatTable {
    type Fragmenter = ChainFragmenter<
        <usize as ChunkedCodec>::Fragmenter,
        ChainFragmenter<VecChunks<u64>, VecChunks<u8>>,
    >;
    type Assembler = ChainAssembler<
        <usize as ChunkedCodec>::Assembler,
        ChainAssembler<VecAssembly<u64>, VecAssembly<u8>, (Vec<u64>, Vec<u8>)>,
        FlatTable,
    >;

    fn into_fragmenter(self) -> Self::Fragmenter {
        ChainFragmenter::new(
            self.len.into_fragmenter(),
            ChainFragmenter::new(self.slots.into_fragmenter(), self.arena.into_fragmenter()),
        )
    }

    fn assembler() -> Self::Assembler {
        ChainAssembler::new(
            usize::assembler(),
            ChainAssembler::new(Vec::assembler(), Vec::assembler(), |slots, arena| (slots, arena)),
            |len, (slots, arena)| FlatTable::from_image(len, slots, arena),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_shrinks_the_table_and_compacts_the_arena() {
        let mut table = FlatTable::new();
        for key in 0..100u64 {
            table.insert(key, key % 2, &[key as u8; 10]);
        }
        assert_eq!(table.capacity(), 256, "100 entries, at most three quarters full");
        table.retain(|_, _, _| true);
        assert_eq!((table.capacity(), table.arena_len()), (256, 1_000));
        table.retain(|_, value, _| value == 1);
        assert_eq!((table.len(), table.capacity(), table.arena_len()), (50, 128, 500));
        assert!(table.iter().all(|(key, value, payload)| value == 1 && payload == [key as u8; 10]));
        table.retain(|_, _, _| false);
        assert_eq!((table.len(), table.capacity(), table.arena_len()), (0, 0, 0));
        assert_eq!(table.encode_to_vec().len(), 24, "an empty table is its three headers");
    }

    #[test]
    fn overwrites_cannot_grow_the_arena_without_bound() {
        let mut table = FlatTable::new();
        for round in 0..10_000usize {
            table.insert(1, 0, &vec![0u8; 1 + round % 64]);
        }
        assert!(table.arena_len() <= 2 * 64 + COMPACT_SLACK, "arena of {}", table.arena_len());
    }

    #[test]
    fn the_image_is_adopted_not_rebuilt() {
        let mut table = FlatTable::new();
        for key in 0..300u64 {
            table.insert(key << 40, key, &key.to_le_bytes()[..(key % 9) as usize]);
        }
        let decoded = FlatTable::decode_from_slice(&table.encode_to_vec());
        assert_eq!(decoded, table);
        assert_eq!(decoded.slots, table.slots, "slot for slot");
        assert_eq!(decoded.arena, table.arena);
        assert_eq!(decoded.live, table.live);
    }
}
