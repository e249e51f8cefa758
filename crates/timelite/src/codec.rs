//! A compact, dependency-free binary codec for data crossing process
//! boundaries.
//!
//! The trait originated in the Megaphone layer, where migrated state is
//! serialized into byte buffers (Section 4.1 of the paper); the cluster mode of
//! `timelite` reuses the exact same byte conventions — little-endian integers,
//! `u64` length prefixes — for everything a [`TcpAllocator`] puts on the wire:
//! coalesced data envelopes and progress updates alike. It lives here, at the
//! bottom of the stack, so both the communication fabric and the state layer
//! (`megaphone::codec`, which re-exports it and builds chunked encoding on
//! top) speak one format.
//!
//! Sequences of fixed-width values are moved in bulk. [`Codec`] carries a
//! sequence-level primitive next to the per-value one — [`Codec::encode_slice`],
//! [`Codec::decode_extend`] and [`Codec::WIDTH`] — whose defaults loop over the
//! items; `u8` overrides it with one `extend_from_slice` each way and the
//! fixed-width integers and floats with one pass over a `chunks_exact` view
//! that the compiler vectorises. `Vec<T>` (from 16 items up; shorter ones are
//! cheaper item by item) and `VecDeque<T>` go through it, and `String` moves
//! its bytes the same way, so a migration fragment (a `Vec<u8>`) or a dense
//! bin (a `Vec<u64>`) crosses this layer as one copy, not one call per element
//! — and a length header is checked against the bytes that follow it before
//! anything is allocated.
//! The bytes are the same either way: a sequence is its `u64` length followed
//! by its items back to back.
//!
//! [`TcpAllocator`]: crate::communication::net

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use crate::progress::{Port, ProgressUpdates};

/// A ref-counted, immutable byte region plus a range into it: the zero-copy
/// currency of the data plane.
///
/// A slab is created once from an owned buffer (no bytes move — the buffer is
/// adopted) and from then on only *sliced*: [`clone`](Clone::clone) and
/// [`slice`](Slab::slice) are O(1) reference-count bumps, never copies. A
/// decoded TCP frame, a broadcast payload shared by several remote targets and
/// a WAL record can therefore all alias one underlying allocation, which lives
/// until the last slice drops.
///
/// Ownership rules: the underlying region is append-only *before* it becomes a
/// slab and frozen afterwards — there is deliberately no `&mut [u8]` access,
/// so aliasing slices can never observe a mutation.
#[derive(Clone)]
pub struct Slab {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Slab {
    /// Adopts `bytes` as a new slab region. The buffer is moved, not copied.
    pub fn new(bytes: Vec<u8>) -> Self {
        let end = bytes.len();
        Slab { buf: Arc::new(bytes), start: 0, end }
    }

    /// An empty slab.
    pub fn empty() -> Self {
        Slab::new(Vec::new())
    }

    /// Number of bytes in this slice of the region.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` iff this slice is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes of this slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// A sub-slice of this slice (`range` is relative to it): O(1), no copy,
    /// shares the underlying region.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past this slice's end.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Slab {
        assert!(range.start <= range.end, "slab slice range inverted");
        assert!(
            self.start + range.end <= self.end,
            "slab slice {}..{} out of bounds of {} bytes",
            range.start,
            range.end,
            self.len()
        );
        Slab { buf: Arc::clone(&self.buf), start: self.start + range.start, end: self.start + range.end }
    }

    /// How many slab handles share this region (for tests asserting that
    /// cloning did not copy).
    pub fn region_refs(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Returns `true` iff `other` aliases the same underlying region.
    pub fn same_region(&self, other: &Slab) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Copies the slice out into an owned vector (the one deliberate copy,
    /// for callers that must own their bytes, e.g. durable storage).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for Slab {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Slab {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Slab {
    fn from(bytes: Vec<u8>) -> Self {
        Slab::new(bytes)
    }
}

impl PartialEq for Slab {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Slab {}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slab({} bytes @ {}..{} of {})", self.len(), self.start, self.end, self.buf.len())
    }
}

/// Maximum number of items a decoder pre-sizes a collection for before it has
/// seen them, guarding the pre-allocation against a corrupt length header.
/// Larger collections still decode correctly; they grow past the initial
/// capacity.
pub const MAX_PRESIZE_ITEMS: usize = 1 << 20;

/// Types that can be serialized into the wire format.
pub trait Codec: Sized {
    /// The encoded size in bytes of every value of this type, when all values
    /// encode to the same number of bytes. `None` (the default) for types
    /// whose encoding varies in length, or that do not say.
    const WIDTH: Option<usize> = None;

    /// Appends the encoding of `self` to `bytes`.
    fn encode(&self, bytes: &mut Vec<u8>);
    /// Decodes a value from the front of `bytes`, advancing the slice.
    fn decode(bytes: &mut &[u8]) -> Self;

    /// Appends the encodings of `items`, back to back, to `bytes`: exactly the
    /// bytes one [`encode`](Codec::encode) per item would append.
    fn encode_slice(items: &[Self], bytes: &mut Vec<u8>) {
        for item in items {
            item.encode(bytes);
        }
    }

    /// Decodes `count` values from the front of `bytes`, advancing the slice,
    /// and appends them to `out`: what `count` calls of
    /// [`decode`](Codec::decode) would have pushed.
    ///
    /// `count` usually comes from a length header nobody has checked, so no
    /// implementation may allocate for more than [`MAX_PRESIZE_ITEMS`] items
    /// it has not yet found the bytes of.
    fn decode_extend(out: &mut Vec<Self>, count: usize, bytes: &mut &[u8]) {
        let mut remaining = count;
        while remaining > 0 {
            // `extend` reserves for the whole range it is given, then fills it
            // without a capacity check per item.
            let step = remaining.min(MAX_PRESIZE_ITEMS);
            out.extend((0..step).map(|_| Self::decode(bytes)));
            remaining -= step;
        }
    }

    /// Encodes `self` into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.encode(&mut bytes);
        bytes
    }

    /// Decodes a value from a complete buffer, asserting it is fully consumed.
    fn decode_from_slice(mut bytes: &[u8]) -> Self {
        let value = Self::decode(&mut bytes);
        debug_assert!(bytes.is_empty(), "codec left {} undecoded bytes", bytes.len());
        value
    }
}

fn take<'a>(bytes: &mut &'a [u8], len: usize) -> &'a [u8] {
    let (head, tail) = bytes.split_at(len);
    *bytes = tail;
    head
}

/// Takes the bytes of `count` back-to-back `T`s of `width` bytes each off the
/// front of `bytes`, checking the (unchecked, possibly corrupt) `count`
/// against the bytes that are really there before anything is sliced or
/// allocated for it.
///
/// # Panics
///
/// Panics, like [`take`], if `bytes` is shorter than the items it is said to
/// hold.
fn take_items<'a, T>(bytes: &mut &'a [u8], count: usize, width: usize) -> &'a [u8] {
    match count.checked_mul(width) {
        Some(len) if len <= bytes.len() => take(bytes, len),
        _ => panic!(
            "corrupt length: {count} x {width}-byte {} in {} remaining bytes",
            std::any::type_name::<T>(),
            bytes.len()
        ),
    }
}

impl Codec for u8 {
    const WIDTH: Option<usize> = Some(1);
    #[inline]
    fn encode(&self, bytes: &mut Vec<u8>) {
        // Not `push`: as a record's tag between `extend_from_slice` fields it
        // measured a third slower (`Vec<Event>`, 4.9 against 3.4 GB/s).
        bytes.extend_from_slice(&[*self]);
    }
    #[inline]
    fn decode(bytes: &mut &[u8]) -> Self {
        take(bytes, 1)[0]
    }
    #[inline]
    fn encode_slice(items: &[Self], bytes: &mut Vec<u8>) {
        bytes.extend_from_slice(items);
    }
    #[inline]
    fn decode_extend(out: &mut Vec<Self>, count: usize, bytes: &mut &[u8]) {
        out.extend_from_slice(take_items::<u8>(bytes, count, 1));
    }
}

macro_rules! fixed_width_codec {
    ($($ty:ty),*) => {
        $(
            impl Codec for $ty {
                const WIDTH: Option<usize> = Some(std::mem::size_of::<$ty>());
                #[inline]
                fn encode(&self, bytes: &mut Vec<u8>) {
                    bytes.extend_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn decode(bytes: &mut &[u8]) -> Self {
                    let mut buf = [0u8; std::mem::size_of::<$ty>()];
                    buf.copy_from_slice(take(bytes, std::mem::size_of::<$ty>()));
                    <$ty>::from_le_bytes(buf)
                }
                fn encode_slice(items: &[Self], bytes: &mut Vec<u8>) {
                    const SIZE: usize = std::mem::size_of::<$ty>();
                    let start = bytes.len();
                    bytes.resize(start + items.len() * SIZE, 0);
                    for (chunk, item) in bytes[start..].chunks_exact_mut(SIZE).zip(items) {
                        chunk.copy_from_slice(&item.to_le_bytes());
                    }
                }
                fn decode_extend(out: &mut Vec<Self>, count: usize, bytes: &mut &[u8]) {
                    const SIZE: usize = std::mem::size_of::<$ty>();
                    let raw = take_items::<$ty>(bytes, count, SIZE);
                    out.extend(raw.chunks_exact(SIZE).map(|chunk| {
                        <$ty>::from_le_bytes(chunk.try_into().expect("chunks_exact yields SIZE bytes"))
                    }));
                }
            }
        )*
    };
}

fixed_width_codec!(u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Codec for usize {
    fn encode(&self, bytes: &mut Vec<u8>) {
        (*self as u64).encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        u64::decode(bytes) as usize
    }
}

impl Codec for isize {
    fn encode(&self, bytes: &mut Vec<u8>) {
        (*self as i64).encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        i64::decode(bytes) as isize
    }
}

impl Codec for bool {
    fn encode(&self, bytes: &mut Vec<u8>) {
        bytes.push(u8::from(*self));
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        match take(bytes, 1)[0] {
            0 => false,
            1 => true,
            tag => panic!("corrupt bool: tag byte {tag} is neither 0 (false) nor 1 (true)"),
        }
    }
}

impl Codec for () {
    fn encode(&self, _bytes: &mut Vec<u8>) {}
    fn decode(_bytes: &mut &[u8]) -> Self {}
}

impl Codec for char {
    fn encode(&self, bytes: &mut Vec<u8>) {
        (*self as u32).encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        char::from_u32(u32::decode(bytes)).expect("invalid char encoding")
    }
}

impl Codec for String {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        bytes.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        String::from_utf8(take_items::<u8>(bytes, len, 1).to_vec())
            .expect("invalid utf-8 in encoded string")
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        match self {
            None => bytes.push(0),
            Some(value) => {
                bytes.push(1);
                value.encode(bytes);
            }
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        match take(bytes, 1)[0] {
            0 => None,
            1 => Some(T::decode(bytes)),
            tag => panic!("corrupt Option: tag byte {tag} is neither 0 (None) nor 1 (Some)"),
        }
    }
}

/// Vectors shorter than this (the handful of ids or counters inside one map
/// entry) are encoded and decoded item by item, inline and into an exactly
/// sized allocation: cheaper than setting up a bulk pass.
///
/// Measured, not guessed: with every `Vec` going through the bulk hooks, a bin
/// of `FxHashMap<u64, (Option<(u64, String)>, Vec<u64>)>` entries — NEXMark
/// Q8's state at the time, a zero- to two-item vector per entry — encoded 23 %
/// and decoded 10 % slower than item by item (1.55 and 1.08 GB/s on the
/// 2-vCPU box); at 64 KiB of `u64`s the bulk pass is 52 against 3 GB/s. The
/// two measurements bracket the threshold, they do not locate it: nothing
/// between a few items and a few thousand was measured, and 16 keeps every
/// per-entry vector on the short side. The bytes are the same either way.
const BULK_MIN_ITEMS: usize = 16;

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        if self.len() < BULK_MIN_ITEMS {
            for item in self {
                item.encode(bytes);
            }
        } else {
            T::encode_slice(self, bytes);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        if len < BULK_MIN_ITEMS {
            return (0..len).map(|_| T::decode(bytes)).collect();
        }
        let mut items = Vec::new();
        T::decode_extend(&mut items, len, bytes);
        items
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        let (front, back) = self.as_slices();
        T::encode_slice(front, bytes);
        T::encode_slice(back, bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Vec::decode(bytes).into()
    }
}

impl<K: Codec + Eq + Hash, V: Codec, S: BuildHasher + Default> Codec for HashMap<K, V, S> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        for (key, value) in self {
            key.encode(bytes);
            value.encode(bytes);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        let mut map = HashMap::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            let key = K::decode(bytes);
            let value = V::decode(bytes);
            map.insert(key, value);
        }
        map
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        for (key, value) in self {
            key.encode(bytes);
            value.encode(bytes);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        (0..len).map(|_| (K::decode(bytes), V::decode(bytes))).collect()
    }
}

macro_rules! tuple_codec {
    ($(($($name:ident)+),)+) => {
        $(
            #[allow(non_snake_case)]
            impl<$($name: Codec),+> Codec for ($($name,)+) {
                fn encode(&self, bytes: &mut Vec<u8>) {
                    let ($(ref $name,)+) = *self;
                    $($name.encode(bytes);)+
                }
                fn decode(bytes: &mut &[u8]) -> Self {
                    ($($name::decode(bytes),)+)
                }
            }
        )+
    };
}

tuple_codec! {
    (A),
    (A B),
    (A B C),
    (A B C D),
    (A B C D E),
    (A B C D E F),
}

impl Codec for Port {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.node.encode(bytes);
        self.port.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Port { node: usize::decode(bytes), port: usize::decode(bytes) }
    }
}

impl<T: Codec> Codec for ProgressUpdates<T> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.internals.encode(bytes);
        self.messages.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        ProgressUpdates { internals: Vec::decode(bytes), messages: Vec::decode(bytes) }
    }
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
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(123456usize);
        roundtrip(3.25f64);
        roundtrip("ünïcödé ☃".to_string());
        roundtrip(Some(vec![1u64, 2, 3]));
    }

    #[test]
    fn timestamps_roundtrip() {
        use crate::order::Timestamp;
        roundtrip(u8::minimum());
        roundtrip(u32::MAX);
        roundtrip(u64::MAX - 1);
        roundtrip(usize::MAX);
        roundtrip(u128::MAX);
    }

    #[test]
    fn sequences_roundtrip_through_the_bulk_path() {
        roundtrip(Vec::<u8>::new());
        roundtrip((0..=255u8).collect::<Vec<_>>());
        // Short vectors go item by item, long ones through the hooks.
        for len in [BULK_MIN_ITEMS - 1, BULK_MIN_ITEMS, 1_000] {
            roundtrip((0..len as i128).map(|at| i128::MIN + at * at).collect::<Vec<_>>());
            roundtrip((0..len).map(|at| at as f32 - 0.5).collect::<Vec<_>>());
        }
        // A deque whose contents wrap around its ring buffer is two slices.
        let mut deque: VecDeque<u32> = (0..8).collect();
        deque.rotate_left(3);
        deque.push_front(99);
        roundtrip(deque);
    }

    /// A corrupt length header: 2^40 items "follow" in a handful of bytes.
    fn hostile(trailing: usize) -> Vec<u8> {
        let mut bytes = (1u64 << 40).encode_to_vec();
        bytes.resize(8 + trailing, 0);
        bytes
    }

    #[test]
    #[should_panic(expected = "corrupt length: 1099511627776 x 8-byte u64 in 24 remaining bytes")]
    fn a_hostile_length_is_checked_before_fixed_width_items_are_allocated() {
        let _ = Vec::<u64>::decode(&mut &hostile(24)[..]);
    }

    #[test]
    #[should_panic(expected = "corrupt length: 1099511627776 x 1-byte u8 in 3 remaining bytes")]
    fn a_hostile_length_is_checked_before_bytes_are_sliced() {
        let _ = String::decode(&mut &hostile(3)[..]);
    }

    #[test]
    #[should_panic(expected = "corrupt length: 18446744073709551615 x 16-byte u128")]
    fn a_hostile_length_whose_byte_count_overflows_is_rejected() {
        let _ = VecDeque::<u128>::decode(&mut &u64::MAX.encode_to_vec()[..]);
    }

    /// The per-item default pre-sizes for at most `MAX_PRESIZE_ITEMS`, so a
    /// hostile header panics at the first missing item (the `take`
    /// convention) instead of asking the allocator for terabytes, which
    /// aborts the process.
    #[test]
    #[should_panic]
    fn a_hostile_length_does_not_presize_the_per_item_path() {
        let _ = Vec::<(u64, String)>::decode(&mut &hostile(4)[..]);
    }

    #[test]
    fn slab_adopts_without_copy_and_slices_share_the_region() {
        let bytes: Vec<u8> = (0..64).collect();
        let ptr = bytes.as_ptr();
        let slab = Slab::new(bytes);
        assert_eq!(slab.as_slice().as_ptr(), ptr, "adoption must not move the bytes");
        let clone = slab.clone();
        let slice = slab.slice(8..24);
        assert!(clone.same_region(&slab));
        assert!(slice.same_region(&slab));
        assert_eq!(slab.region_refs(), 3);
        assert_eq!(slice.as_slice(), &(8u8..24).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn slab_nested_subslices_compose() {
        let slab = Slab::new((0..100u8).collect());
        let outer = slab.slice(10..90);
        let inner = outer.slice(5..15);
        assert_eq!(inner.as_slice(), &(15u8..25).collect::<Vec<_>>()[..]);
        assert_eq!(inner.slice(0..0).len(), 0, "zero-byte nested slice");
        assert_eq!(outer.slice(0..outer.len()), outer, "full-region slice equals itself");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slab_slice_past_end_panics() {
        let slab = Slab::new(vec![1, 2, 3]);
        let _ = slab.slice(1..5);
    }

    #[test]
    fn progress_updates_roundtrip() {
        let updates = ProgressUpdates {
            internals: vec![(Port::new(0, 1), 7u64, -1), (Port::new(2, 0), 9, 1)],
            messages: vec![(3usize, 7u64, 4), (5, 8, -4)],
        };
        let bytes = updates.encode_to_vec();
        let decoded = ProgressUpdates::<u64>::decode_from_slice(&bytes);
        assert_eq!(decoded.internals, updates.internals);
        assert_eq!(decoded.messages, updates.messages);
    }
}
