//! Logical timestamps.
//!
//! Timely dataflow coordinates workers using *logical timestamps*: values
//! attached to every data record. `timelite` times are totally ordered — the
//! epochs of a streaming computation — so the frontier at any point of a
//! dataflow is a single time ([`Frontier`](crate::progress::Frontier)), like a
//! low watermark in systems such as Flink.

use std::fmt::Debug;
use std::hash::Hash;

use crate::codec::Codec;

/// A logical timestamp usable by the progress tracking machinery.
///
/// A timestamp is totally ordered (`Ord`), has a minimum element, and is
/// hashable so it can be stored efficiently. Timestamps are serializable
/// ([`Codec`]) because both data envelopes and progress updates carry them
/// across process boundaries in cluster mode, and `Send + Sync` so a progress
/// batch can be shared with every same-process peer behind one `Arc` instead
/// of cloned per peer.
pub trait Timestamp: Clone + Ord + Eq + Hash + Debug + Send + Sync + Codec + 'static {
    /// The smallest element of the timestamp domain.
    fn minimum() -> Self;
}

macro_rules! implement_integer_timestamp {
    ($($index_type:ty,)*) => (
        $(
            impl Timestamp for $index_type {
                #[inline]
                fn minimum() -> Self { 0 }
            }
        )*
    )
}

implement_integer_timestamp!(u8, u16, u32, u64, u128, usize,);

impl Timestamp for () {
    #[inline]
    fn minimum() -> Self {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_timestamp_is_single_point() {
        assert_eq!(().cmp(&()), std::cmp::Ordering::Equal);
        assert_eq!(<() as Timestamp>::minimum(), ());
    }
}
