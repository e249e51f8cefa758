//! Binary serialization for migrated state: the base [`Codec`] trait (shared
//! with `timelite`'s cluster transport, which frames the same byte format over
//! TCP) plus the *incremental* chunked encoding used to stream large bins.
//!
//! When Megaphone migrates a bin to a worker of another process, or out of a
//! durable store, it serializes the bin's state and pending records into a
//! byte buffer, ships the bytes over a regular dataflow channel and
//! reconstructs the objects on the receiving worker (Section 4.1 of the paper:
//! "the state object is converted into a stream of serialized tuples").
//! Serializing is what gives such a migration its cost. A bin moving to a
//! worker of the same process is handed over as the objects themselves and
//! never touches this module. The base trait and its primitive/collection
//! implementations live in [`timelite::codec`] so the cluster transport speaks
//! the identical format; this module re-exports them and adds the
//! chunked-fragment protocol on top.
//!
//! Sequences of fixed-width values are moved in bulk here too. A `Vec<T>` whose
//! items all encode to [`Codec::WIDTH`] bytes is fragmented and reassembled on
//! the slice: one `fill` encodes as many items as its budget has room for with
//! one [`Codec::encode_slice`], one `absorb` decodes as many as the fragment
//! holds with one [`Codec::decode_extend`]. The fragment boundaries and the
//! bytes are those of the item-by-item path, which every other collection and
//! every variable-width item still takes ([`SeqFragmenter`], [`SeqAssembler`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

pub use timelite::codec::Codec;
use timelite::codec::MAX_PRESIZE_ITEMS;

// ---------------------------------------------------------------------------
// Incremental (chunked) encoding for migration fragments.
// ---------------------------------------------------------------------------

/// A streaming encoder that produces a value's canonical [`Codec`] byte stream
/// in bounded-size fragments.
///
/// The fragmenter hands out *whole encoding units* (a length header, one
/// collection element, or one atomic value) and never splits a unit across
/// fragments, so concatenating every fragment yields exactly the bytes
/// [`Codec::encode`] would have produced in one call. A fragment only exceeds
/// the requested budget when a single unit is itself larger than the budget.
pub trait Fragmenter {
    /// Appends encoded units to `buf` until `buf.len()` reaches `budget` or the
    /// value is exhausted. Returns `true` while encoded content remains for a
    /// later call. `budget` is compared against the absolute length of `buf`,
    /// so chained fragmenters writing to one buffer share a single budget.
    fn fill(&mut self, budget: usize, buf: &mut Vec<u8>) -> bool;
}

/// A streaming decoder that rebuilds a value from the fragments produced by a
/// [`Fragmenter`], absorbing each fragment as it arrives instead of buffering
/// the entire encoding and decoding it in one stall.
pub trait Assembler {
    /// The value being reassembled.
    type Value;
    /// Absorbs encoded units from the front of `bytes`, advancing the slice.
    /// Stops consuming once this value's encoding is complete, leaving any
    /// trailing bytes (the next section of an enclosing value) untouched.
    fn absorb(&mut self, bytes: &mut &[u8]);
    /// Returns `true` once the value's encoding has been fully absorbed.
    fn is_complete(&self) -> bool;
    /// Returns the reassembled value.
    ///
    /// # Panics
    ///
    /// Panics if the encoding has not been fully absorbed.
    fn finish(self) -> Self::Value;
}

/// Types whose encoding can be produced and consumed incrementally.
///
/// Collections fragment at element granularity; atomic values (integers,
/// strings, tuples, …) are emitted as a single indivisible unit. The invariant
/// tying this trait to [`Codec`]: the concatenation of every fragment equals
/// the monolithic [`Codec::encode`] output byte for byte.
pub trait ChunkedCodec: Codec {
    /// The streaming encoder over this type's content.
    type Fragmenter: Fragmenter;
    /// The streaming decoder rebuilding a value of this type.
    type Assembler: Assembler<Value = Self>;
    /// Converts the value into its streaming encoder.
    fn into_fragmenter(self) -> Self::Fragmenter;
    /// Creates an empty streaming decoder.
    fn assembler() -> Self::Assembler;
}

/// [`Fragmenter`] for atomic values: the whole encoding is one unit, emitted in
/// the first `fill` call regardless of budget.
pub struct AtomFragmenter<V: Codec> {
    value: Option<V>,
}

impl<V: Codec> Fragmenter for AtomFragmenter<V> {
    fn fill(&mut self, _budget: usize, buf: &mut Vec<u8>) -> bool {
        if let Some(value) = self.value.take() {
            value.encode(buf);
        }
        false
    }
}

/// [`Assembler`] for atomic values: decodes the single unit from the first
/// fragment that carries it.
pub struct AtomAssembler<V: Codec> {
    value: Option<V>,
}

impl<V: Codec> Assembler for AtomAssembler<V> {
    type Value = V;
    fn absorb(&mut self, bytes: &mut &[u8]) {
        if self.value.is_none() {
            self.value = Some(V::decode(bytes));
        }
    }
    fn is_complete(&self) -> bool {
        self.value.is_some()
    }
    fn finish(self) -> V {
        self.value.expect("atom assembler finished before its value arrived")
    }
}

/// [`Fragmenter`] for sequences: a length header followed by one unit per item,
/// drawn from a consuming iterator so resumption costs O(1) per call.
pub struct SeqFragmenter<I: Iterator>
where
    I::Item: Codec,
{
    /// The length header, emitted before the first item.
    header: Option<usize>,
    /// Items not yet emitted into a fragment (including a carried item).
    remaining: usize,
    iter: I,
    /// An item that was encoded but did not fit the previous fragment.
    carry: Vec<u8>,
}

impl<I: Iterator> SeqFragmenter<I>
where
    I::Item: Codec,
{
    /// Creates a fragmenter over `len` items of `iter`.
    pub fn new(len: usize, iter: I) -> Self {
        SeqFragmenter { header: Some(len), remaining: len, iter, carry: Vec::new() }
    }
}

impl<I: Iterator> Fragmenter for SeqFragmenter<I>
where
    I::Item: Codec,
{
    fn fill(&mut self, budget: usize, buf: &mut Vec<u8>) -> bool {
        if let Some(len) = self.header.take() {
            len.encode(buf);
        }
        if !self.carry.is_empty() {
            if buf.is_empty() || buf.len() + self.carry.len() <= budget {
                buf.extend_from_slice(&self.carry);
                self.carry.clear();
                self.remaining -= 1;
            } else {
                return true;
            }
        }
        while self.remaining > 0 {
            if buf.len() >= budget {
                return true;
            }
            let item = self.iter.next().expect("sequence shorter than its length header");
            let start = buf.len();
            item.encode(buf);
            if buf.len() > budget && start > 0 {
                // The item overshoots a non-empty fragment: hold it back for
                // the next one. (An oversized item at the start of a fragment
                // is emitted as-is; it cannot be split.)
                self.carry.extend_from_slice(&buf[start..]);
                buf.truncate(start);
                return true;
            }
            self.remaining -= 1;
        }
        false
    }
}

/// [`Fragmenter`] for vectors. Items of a fixed [`Codec::WIDTH`] leave in bulk:
/// each `fill` encodes, with one [`Codec::encode_slice`], as many of them as
/// the budget still has room for (one at least into an empty fragment — the
/// same boundaries the item-by-item path draws). Items of varying width go
/// through that path, [`SeqFragmenter`], unchanged.
pub struct VecFragmenter<T: Codec>(SeqFragmenter<std::vec::IntoIter<T>>);

impl<T: Codec> Fragmenter for VecFragmenter<T> {
    fn fill(&mut self, budget: usize, buf: &mut Vec<u8>) -> bool {
        let seq = &mut self.0;
        let Some(width) = T::WIDTH.filter(|&width| width > 0) else {
            return seq.fill(budget, buf);
        };
        if let Some(len) = seq.header.take() {
            len.encode(buf);
        }
        let room = budget.saturating_sub(buf.len()) / width;
        let count = room.max(usize::from(buf.is_empty())).min(seq.remaining);
        if count > 0 {
            T::encode_slice(&seq.iter.as_slice()[..count], buf);
            seq.iter.nth(count - 1);
            seq.remaining -= count;
        }
        seq.remaining > 0
    }
}

/// [`Fragmenter`] for a value that is two sections back to back, sharing one
/// fragment budget: `first` until it is exhausted, then `second`, in the same
/// fragment when there is room. Nest it for more sections.
///
/// Every section is expected to open with an 8-byte header (a count or a
/// length) that its fragmenter emits unconditionally, so `second` is only
/// started in a fragment that still has room for one: no fragment overshoots
/// its budget by a header.
pub struct ChainFragmenter<A, B> {
    /// `None` once the first section is exhausted.
    first: Option<A>,
    second: B,
}

impl<A, B> ChainFragmenter<A, B> {
    /// Chains `first` and `second`.
    pub fn new(first: A, second: B) -> Self {
        ChainFragmenter { first: Some(first), second }
    }
}

impl<A: Fragmenter, B: Fragmenter> Fragmenter for ChainFragmenter<A, B> {
    fn fill(&mut self, budget: usize, buf: &mut Vec<u8>) -> bool {
        if let Some(first) = &mut self.first {
            if first.fill(budget, buf) {
                return true;
            }
            self.first = None;
            if buf.len() + std::mem::size_of::<u64>() > budget && !buf.is_empty() {
                return true;
            }
        }
        self.second.fill(budget, buf)
    }
}

/// [`Assembler`] for what a [`ChainFragmenter`] produced: feeds bytes to the
/// first section's assembler until it completes, the rest to the second's, and
/// `build`s the value from the two reassembled sections — where a type checks
/// what it was sent before anyone uses it.
pub struct ChainAssembler<A: Assembler, B: Assembler, V> {
    first: A,
    second: B,
    build: fn(A::Value, B::Value) -> V,
}

impl<A: Assembler, B: Assembler, V> ChainAssembler<A, B, V> {
    /// Chains `first` and `second`; `build` turns the two sections into the value.
    pub fn new(first: A, second: B, build: fn(A::Value, B::Value) -> V) -> Self {
        ChainAssembler { first, second, build }
    }
}

impl<A: Assembler, B: Assembler, V> Assembler for ChainAssembler<A, B, V> {
    type Value = V;
    fn absorb(&mut self, bytes: &mut &[u8]) {
        if !self.first.is_complete() {
            if bytes.is_empty() {
                return;
            }
            self.first.absorb(bytes);
            if !self.first.is_complete() {
                return;
            }
        }
        self.second.absorb(bytes);
    }
    fn is_complete(&self) -> bool {
        self.first.is_complete() && self.second.is_complete()
    }
    fn finish(self) -> V {
        (self.build)(self.first.finish(), self.second.finish())
    }
}

/// Collections a [`SeqAssembler`] can rebuild item by item.
pub trait FragmentItems<T>: Sized {
    /// Creates an empty collection pre-sized for `items` items (capped
    /// internally to bound the pre-allocation).
    fn with_item_capacity(items: usize) -> Self;
    /// Appends one decoded item.
    fn push_item(&mut self, item: T);
    /// Appends `count` items decoded back to back from the front of `bytes`.
    fn extend_decoded(&mut self, count: usize, bytes: &mut &[u8])
    where
        T: Codec,
    {
        for _ in 0..count {
            self.push_item(T::decode(bytes));
        }
    }
}

impl<T> FragmentItems<T> for Vec<T> {
    fn with_item_capacity(items: usize) -> Self {
        Vec::with_capacity(items.min(MAX_PRESIZE_ITEMS))
    }
    fn push_item(&mut self, item: T) {
        self.push(item);
    }
    fn extend_decoded(&mut self, count: usize, bytes: &mut &[u8])
    where
        T: Codec,
    {
        T::decode_extend(self, count, bytes);
    }
}

impl<T> FragmentItems<T> for VecDeque<T> {
    fn with_item_capacity(items: usize) -> Self {
        VecDeque::with_capacity(items.min(MAX_PRESIZE_ITEMS))
    }
    fn push_item(&mut self, item: T) {
        self.push_back(item);
    }
}

impl<K: Eq + Hash, V, S: BuildHasher + Default> FragmentItems<(K, V)> for HashMap<K, V, S> {
    fn with_item_capacity(items: usize) -> Self {
        HashMap::with_capacity_and_hasher(items.min(MAX_PRESIZE_ITEMS), S::default())
    }
    fn push_item(&mut self, (key, value): (K, V)) {
        self.insert(key, value);
    }
}

impl<K: Ord, V> FragmentItems<(K, V)> for BTreeMap<K, V> {
    fn with_item_capacity(_items: usize) -> Self {
        BTreeMap::new()
    }
    fn push_item(&mut self, (key, value): (K, V)) {
        self.insert(key, value);
    }
}

/// [`Assembler`] for sequences: reads the length header, pre-sizes the
/// collection, then absorbs exactly that many items and no more.
pub struct SeqAssembler<C, T> {
    remaining: Option<usize>,
    collection: Option<C>,
    _item: std::marker::PhantomData<fn() -> T>,
}

impl<C: FragmentItems<T>, T: Codec> SeqAssembler<C, T> {
    /// Creates an assembler awaiting the length header.
    pub fn new() -> Self {
        SeqAssembler { remaining: None, collection: None, _item: std::marker::PhantomData }
    }
}

impl<C: FragmentItems<T>, T: Codec> Default for SeqAssembler<C, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: FragmentItems<T>, T: Codec> Assembler for SeqAssembler<C, T> {
    type Value = C;
    fn absorb(&mut self, bytes: &mut &[u8]) {
        if self.remaining.is_none() {
            if bytes.is_empty() {
                return;
            }
            let len = usize::decode(bytes);
            self.remaining = Some(len);
            self.collection = Some(C::with_item_capacity(len));
        }
        let remaining = self.remaining.as_mut().expect("header just ensured");
        let collection = self.collection.as_mut().expect("collection just ensured");
        // Fixed-width items: every whole item the fragment holds, in one go.
        // (A well-formed fragment then has nothing left for the loop below.)
        if let Some(width) = T::WIDTH.filter(|&width| width > 0) {
            let count = (*remaining).min(bytes.len() / width);
            collection.extend_decoded(count, bytes);
            *remaining -= count;
        }
        while *remaining > 0 && !bytes.is_empty() {
            collection.push_item(T::decode(bytes));
            *remaining -= 1;
        }
    }
    fn is_complete(&self) -> bool {
        self.remaining == Some(0)
    }
    fn finish(self) -> C {
        assert!(self.remaining == Some(0), "sequence assembler finished before all items arrived");
        self.collection.expect("complete assembler holds its collection")
    }
}

macro_rules! atom_chunked {
    ($($ty:ty),*) => {
        $(
            impl ChunkedCodec for $ty {
                type Fragmenter = AtomFragmenter<$ty>;
                type Assembler = AtomAssembler<$ty>;
                fn into_fragmenter(self) -> Self::Fragmenter {
                    AtomFragmenter { value: Some(self) }
                }
                fn assembler() -> Self::Assembler {
                    AtomAssembler { value: None }
                }
            }
        )*
    };
}

atom_chunked!(
    u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64, usize, isize, bool, char, (),
    String
);

impl<T: Codec> ChunkedCodec for Option<T> {
    type Fragmenter = AtomFragmenter<Option<T>>;
    type Assembler = AtomAssembler<Option<T>>;
    fn into_fragmenter(self) -> Self::Fragmenter {
        AtomFragmenter { value: Some(self) }
    }
    fn assembler() -> Self::Assembler {
        AtomAssembler { value: None }
    }
}

macro_rules! tuple_chunked {
    ($(($($name:ident)+),)+) => {
        $(
            impl<$($name: Codec),+> ChunkedCodec for ($($name,)+) {
                type Fragmenter = AtomFragmenter<($($name,)+)>;
                type Assembler = AtomAssembler<($($name,)+)>;
                fn into_fragmenter(self) -> Self::Fragmenter {
                    AtomFragmenter { value: Some(self) }
                }
                fn assembler() -> Self::Assembler {
                    AtomAssembler { value: None }
                }
            }
        )+
    };
}

tuple_chunked! {
    (A),
    (A B),
    (A B C),
    (A B C D),
    (A B C D E),
    (A B C D E F),
}

impl<T: Codec> ChunkedCodec for Vec<T> {
    type Fragmenter = VecFragmenter<T>;
    type Assembler = SeqAssembler<Vec<T>, T>;
    fn into_fragmenter(self) -> Self::Fragmenter {
        VecFragmenter(SeqFragmenter::new(self.len(), self.into_iter()))
    }
    fn assembler() -> Self::Assembler {
        SeqAssembler::new()
    }
}

impl<T: Codec> ChunkedCodec for VecDeque<T> {
    type Fragmenter = SeqFragmenter<std::collections::vec_deque::IntoIter<T>>;
    type Assembler = SeqAssembler<VecDeque<T>, T>;
    fn into_fragmenter(self) -> Self::Fragmenter {
        SeqFragmenter::new(self.len(), self.into_iter())
    }
    fn assembler() -> Self::Assembler {
        SeqAssembler::new()
    }
}

// Both the monolithic `Codec` impl (`&map` iteration) and this fragmenter
// (`into_iter`) walk the same unmodified hash table, and the standard library
// traverses its buckets in the same order either way, so the fragment stream
// stays byte-identical to the one-shot encoding.
impl<K: Codec + Eq + Hash, V: Codec, S: BuildHasher + Default> ChunkedCodec for HashMap<K, V, S> {
    type Fragmenter = SeqFragmenter<std::collections::hash_map::IntoIter<K, V>>;
    type Assembler = SeqAssembler<HashMap<K, V, S>, (K, V)>;
    fn into_fragmenter(self) -> Self::Fragmenter {
        SeqFragmenter::new(self.len(), self.into_iter())
    }
    fn assembler() -> Self::Assembler {
        SeqAssembler::new()
    }
}

impl<K: Codec + Ord, V: Codec> ChunkedCodec for BTreeMap<K, V> {
    type Fragmenter = SeqFragmenter<std::collections::btree_map::IntoIter<K, V>>;
    type Assembler = SeqAssembler<BTreeMap<K, V>, (K, V)>;
    fn into_fragmenter(self) -> Self::Fragmenter {
        SeqFragmenter::new(self.len(), self.into_iter())
    }
    fn assembler() -> Self::Assembler {
        SeqAssembler::new()
    }
}

/// Encodes `value` into a sequence of fragments of at most `budget` bytes each
/// (single oversized units excepted). Convenience wrapper for tests and
/// benchmarks; the operators drive [`Fragmenter::fill`] directly.
pub fn encode_fragments<C: ChunkedCodec>(value: C, budget: usize) -> Vec<Vec<u8>> {
    let mut fragmenter = value.into_fragmenter();
    let mut fragments = Vec::new();
    loop {
        let mut fragment = Vec::new();
        let more = fragmenter.fill(budget, &mut fragment);
        fragments.push(fragment);
        if !more {
            return fragments;
        }
    }
}

/// Rebuilds a value from fragments produced by [`encode_fragments`].
pub fn decode_fragments<C: ChunkedCodec>(fragments: &[Vec<u8>]) -> C {
    let mut assembler = C::assembler();
    for fragment in fragments {
        let mut bytes = &fragment[..];
        assembler.absorb(&mut bytes);
        debug_assert!(bytes.is_empty(), "assembler left {} undecoded bytes", bytes.len());
    }
    assembler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode_to_vec();
        let decoded = T::decode_from_slice(&bytes);
        assert_eq!(value, decoded);
    }

    #[test]
    fn integers_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(123456usize);
        roundtrip(3.25f64);
    }

    #[test]
    fn strings_roundtrip() {
        roundtrip(String::new());
        roundtrip("megaphone".to_string());
        roundtrip("ünïcödé ☃".to_string());
    }

    #[test]
    fn options_roundtrip() {
        roundtrip(Option::<u64>::None);
        roundtrip(Some(17u64));
        roundtrip(Some("text".to_string()));
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip((0..100u64).collect::<VecDeque<_>>());
        let mut map = HashMap::new();
        map.insert("a".to_string(), 1u64);
        map.insert("b".to_string(), 2u64);
        roundtrip(map);
        let tree: BTreeMap<u64, Vec<u64>> = (0..10).map(|k| (k, vec![k, k + 1])).collect();
        roundtrip(tree);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u64,));
        roundtrip((1u64, "two".to_string()));
        roundtrip((1u64, 2u32, 3u8, (4u64, true)));
        roundtrip((1u64, 2u64, 3u64, 4u64, 5u64, 6u64));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let value: Vec<(String, Option<Vec<u64>>)> = vec![
            ("empty".to_string(), None),
            ("full".to_string(), Some(vec![1, 2, 3])),
        ];
        roundtrip(value);
    }

    #[test]
    fn sequential_decoding_consumes_exactly() {
        let mut bytes = Vec::new();
        1u64.encode(&mut bytes);
        "two".to_string().encode(&mut bytes);
        3u32.encode(&mut bytes);
        let mut slice = &bytes[..];
        assert_eq!(u64::decode(&mut slice), 1);
        assert_eq!(String::decode(&mut slice), "two");
        assert_eq!(u32::decode(&mut slice), 3);
        assert!(slice.is_empty());
    }

    #[test]
    fn hashmap_with_custom_hasher_roundtrips() {
        let mut map: timelite::hashing::FxHashMap<u64, u64> = Default::default();
        map.insert(1, 2);
        map.insert(3, 4);
        roundtrip(map);
    }

    fn fragment_roundtrip<C>(value: C, budget: usize) -> Vec<Vec<u8>>
    where
        C: ChunkedCodec + Clone + PartialEq + std::fmt::Debug,
    {
        let whole = value.encode_to_vec();
        let fragments = encode_fragments(value.clone(), budget);
        let concatenated: Vec<u8> = fragments.iter().flatten().copied().collect();
        assert_eq!(concatenated, whole, "fragments must concatenate to the one-shot encoding");
        let rebuilt: C = decode_fragments(&fragments);
        assert_eq!(rebuilt, value);
        fragments
    }

    #[test]
    fn vec_fragments_are_bounded_and_byte_identical() {
        let value: Vec<u64> = (0..10_000).collect();
        let budget = 256;
        let fragments = fragment_roundtrip(value, budget);
        assert!(fragments.len() > 1, "a large vector must split into several fragments");
        for fragment in &fragments {
            assert!(fragment.len() <= budget, "fragment of {} bytes exceeds budget", fragment.len());
        }
    }

    #[test]
    fn hashmap_fragments_are_byte_identical() {
        let value: timelite::hashing::FxHashMap<u64, Vec<u64>> =
            (0..500u64).map(|k| (k, vec![k, k + 1, k + 2])).collect();
        let fragments = fragment_roundtrip(value, 512);
        assert!(fragments.len() > 1);
    }

    #[test]
    fn btreemap_and_deque_fragment_roundtrip() {
        let tree: BTreeMap<u64, String> = (0..100).map(|k| (k, format!("v{k}"))).collect();
        fragment_roundtrip(tree, 128);
        let deque: VecDeque<u64> = (0..100).collect();
        fragment_roundtrip(deque, 64);
    }

    #[test]
    fn atoms_fragment_as_single_units() {
        let fragments = fragment_roundtrip(42u64, 4);
        assert_eq!(fragments.len(), 1, "an atom is one indivisible unit");
        fragment_roundtrip("a string atom".to_string(), 4);
        fragment_roundtrip((1u64, "two".to_string(), 3u32), 4);
        fragment_roundtrip(Some(9u64), 2);
    }

    #[test]
    fn empty_collections_fragment_to_a_header() {
        let fragments = fragment_roundtrip(Vec::<u64>::new(), 64);
        assert_eq!(fragments.len(), 1);
        assert_eq!(fragments[0].len(), 8, "an empty vector encodes as its length header");
    }

    #[test]
    fn oversized_single_item_lands_alone_in_a_fragment() {
        // Each item (a 100-byte string) is larger than the 32-byte budget: the
        // fragmenter cannot split items, so each fragment carries exactly one.
        let value: Vec<String> = (0..5).map(|i| format!("{i}").repeat(100)).collect();
        let fragments = fragment_roundtrip(value, 32);
        // Header fragment boundaries: every fragment holds at most one item.
        assert!(fragments.len() >= 5);
    }

    #[test]
    fn assembler_handles_fragments_split_at_any_unit_boundary() {
        // Feed the canonical encoding unit by unit (header, then each item) to
        // mimic the smallest possible fragments.
        let value: Vec<(u64, u64)> = (0..50).map(|i| (i, i * 2)).collect();
        let fragments = encode_fragments(value.clone(), 1);
        assert_eq!(fragments.len(), 51, "budget 1 forces one unit per fragment");
        let rebuilt: Vec<(u64, u64)> = decode_fragments(&fragments);
        assert_eq!(rebuilt, value);
    }
}
