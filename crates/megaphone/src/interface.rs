//! The user-facing operator interfaces of Listing 1: `state_machine`, `unary`
//! and `binary`, plus an extension trait for method-call syntax on streams.

use std::hash::Hash;

use timelite::dataflow::Stream;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::order::Timestamp;
use timelite::Data;

use crate::bins::MegaphoneConfig;
use crate::codec::Codec;
use crate::control::ControlInst;
use crate::notificator::Notificator;
use crate::operator::{stateful_unary, MegaphoneData, MegaphoneState, StatefulOutput};

/// A record of one of two input streams, used to implement binary operators on
/// top of the unary mechanism ("Operators with multiple data inputs can be
/// treated like single-input operators where the migration mechanism acts on
/// both data inputs at the same time", Section 3.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// A record of the first input.
    Left(A),
    /// A record of the second input.
    Right(B),
}

impl<A: Codec, B: Codec> Codec for Either<A, B> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        match self {
            Either::Left(a) => {
                0u8.encode(bytes);
                a.encode(bytes);
            }
            Either::Right(b) => {
                1u8.encode(bytes);
                b.encode(bytes);
            }
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        match u8::decode(bytes) {
            0 => Either::Left(A::decode(bytes)),
            1 => Either::Right(B::decode(bytes)),
            tag => panic!("corrupt Either: tag byte {tag} is neither 0 (Left) nor 1 (Right)"),
        }
    }
}

/// Constructs a migrateable binary stateful operator (Listing 1's `binary`).
///
/// Both inputs are routed by their respective key functions into the same bin
/// space and share the per-bin state; `fold` receives the records of both
/// inputs for one bin at one time. Post-dated records are scheduled through a
/// [`Notificator`] over [`Either`] of the two record types.
#[allow(clippy::too_many_arguments)]
pub fn stateful_binary<T, D1, D2, S, O, H1, H2, F>(
    config: MegaphoneConfig,
    control: &Stream<T, ControlInst>,
    data1: &Stream<T, D1>,
    data2: &Stream<T, D2>,
    name: &str,
    key1: H1,
    key2: H2,
    mut fold: F,
) -> StatefulOutput<T, O>
where
    T: Timestamp,
    D1: MegaphoneData,
    D2: MegaphoneData,
    S: MegaphoneState,
    O: Data,
    H1: Fn(&D1) -> u64 + 'static,
    H2: Fn(&D2) -> u64 + 'static,
    F: FnMut(&T, Vec<D1>, Vec<D2>, &mut S, &mut Notificator<T, Either<D1, D2>>) -> Vec<O> + 'static,
{
    let merged = data1
        .map(Either::Left)
        .concat(&data2.map(Either::Right));
    stateful_unary(
        config,
        control,
        &merged,
        name,
        move |record: &Either<D1, D2>| match record {
            Either::Left(left) => key1(left),
            Either::Right(right) => key2(right),
        },
        move |time, records, state, notificator| {
            let mut lefts = Vec::new();
            let mut rights = Vec::new();
            for record in records {
                match record {
                    Either::Left(left) => lefts.push(left),
                    Either::Right(right) => rights.push(right),
                }
            }
            fold(time, lefts, rights, state, notificator)
        },
    )
}

/// Constructs a migrateable keyed state machine (Listing 1's `state_machine`).
///
/// The input is a stream of `(key, value)` pairs; per-key state of type `S` is
/// created on demand with `Default`. `fold` is applied to each pair in
/// timestamp order and returns `(remove, outputs)`: if `remove` is true the
/// key's state is dropped.
pub fn state_machine<T, K, V, S, O, F>(
    config: MegaphoneConfig,
    control: &Stream<T, ControlInst>,
    data: &Stream<T, (K, V)>,
    name: &str,
    mut fold: F,
) -> StatefulOutput<T, O>
where
    T: Timestamp,
    K: MegaphoneData + Hash + Eq,
    V: MegaphoneData,
    S: MegaphoneState,
    O: Data,
    F: FnMut(&K, V, &mut S) -> (bool, Vec<O>) + 'static,
{
    stateful_unary::<T, (K, V), FxHashMap<K, S>, O, _, _>(
        config,
        control,
        data,
        name,
        |(key, _value): &(K, V)| hash_code(key),
        move |_time, records, states, _notificator| {
            let mut outputs = Vec::new();
            for (key, value) in records {
                let state = states.entry(key.clone()).or_default();
                let (remove, mut produced) = fold(&key, value, state);
                outputs.append(&mut produced);
                if remove {
                    states.remove(&key);
                }
            }
            outputs
        },
    )
}

/// Method-call syntax for Megaphone's operators.
pub trait MegaphoneStream<T: Timestamp, D: MegaphoneData> {
    /// See [`stateful_unary`].
    fn megaphone_unary<S, O, H, F>(
        &self,
        config: MegaphoneConfig,
        control: &Stream<T, ControlInst>,
        name: &str,
        key: H,
        fold: F,
    ) -> StatefulOutput<T, O>
    where
        S: MegaphoneState,
        O: Data,
        H: Fn(&D) -> u64 + 'static,
        F: FnMut(&T, Vec<D>, &mut S, &mut Notificator<T, D>) -> Vec<O> + 'static;

    /// See [`stateful_binary`].
    #[allow(clippy::too_many_arguments)]
    fn megaphone_binary<D2, S, O, H1, H2, F>(
        &self,
        other: &Stream<T, D2>,
        config: MegaphoneConfig,
        control: &Stream<T, ControlInst>,
        name: &str,
        key1: H1,
        key2: H2,
        fold: F,
    ) -> StatefulOutput<T, O>
    where
        D2: MegaphoneData,
        S: MegaphoneState,
        O: Data,
        H1: Fn(&D) -> u64 + 'static,
        H2: Fn(&D2) -> u64 + 'static,
        F: FnMut(&T, Vec<D>, Vec<D2>, &mut S, &mut Notificator<T, Either<D, D2>>) -> Vec<O>
            + 'static;
}

impl<T: Timestamp, D: MegaphoneData> MegaphoneStream<T, D> for Stream<T, D> {
    fn megaphone_unary<S, O, H, F>(
        &self,
        config: MegaphoneConfig,
        control: &Stream<T, ControlInst>,
        name: &str,
        key: H,
        fold: F,
    ) -> StatefulOutput<T, O>
    where
        S: MegaphoneState,
        O: Data,
        H: Fn(&D) -> u64 + 'static,
        F: FnMut(&T, Vec<D>, &mut S, &mut Notificator<T, D>) -> Vec<O> + 'static,
    {
        stateful_unary(config, control, self, name, key, fold)
    }

    fn megaphone_binary<D2, S, O, H1, H2, F>(
        &self,
        other: &Stream<T, D2>,
        config: MegaphoneConfig,
        control: &Stream<T, ControlInst>,
        name: &str,
        key1: H1,
        key2: H2,
        fold: F,
    ) -> StatefulOutput<T, O>
    where
        D2: MegaphoneData,
        S: MegaphoneState,
        O: Data,
        H1: Fn(&D) -> u64 + 'static,
        H2: Fn(&D2) -> u64 + 'static,
        F: FnMut(&T, Vec<D>, Vec<D2>, &mut S, &mut Notificator<T, Either<D, D2>>) -> Vec<O>
            + 'static,
    {
        stateful_binary(config, control, self, other, name, key1, key2, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn either_roundtrips_through_codec() {
        let left: Either<u64, String> = Either::Left(7);
        let right: Either<u64, String> = Either::Right("seven".to_string());
        assert_eq!(Either::<u64, String>::decode_from_slice(&left.encode_to_vec()), left);
        assert_eq!(Either::<u64, String>::decode_from_slice(&right.encode_to_vec()), right);
    }
}
