//! Query 3: local item suggestion — an incremental join of auctions (by seller)
//! with people (by id), filtered to sellers in a few states and one category.
//!
//! The join state grows without bound as the computation runs (Section 5.1).

use megaphone::prelude::*;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

use super::{auctions, persons, QueryOutput, Time};
use crate::event::{Auction, Event, Person};

/// Per-bin join state, keyed by seller id: the seller's details (if seen) and
/// auctions awaiting the seller.
type JoinState = FxHashMap<u64, (Option<(String, String, String)>, Vec<(u64, u64)>)>;

/// Builds Q3 with Megaphone's binary stateful operator.
pub fn q3(
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    events: &Stream<Time, Event>,
) -> QueryOutput {
    let (persons, auctions) = (persons(events), auctions(events));
    let auctions = auctions.filter(|auction| auction.category == 10);
    let persons =
        persons.filter(|person| matches!(person.state.as_str(), "OR" | "ID" | "CA"));

    let output = stateful_binary::<_, Auction, Person, JoinState, String, _, _, _>(
        config,
        control,
        &auctions,
        &persons,
        "Q3-Join",
        |auction| hash_code(&auction.seller),
        |person| hash_code(&person.id),
        |_time, auctions, persons, state, _notificator| {
            let mut outputs = Vec::new();
            for person in persons {
                let entry = state.entry(person.id).or_default();
                entry.0 = Some((person.name.clone(), person.city.clone(), person.state.clone()));
                let (name, city, st) = entry.0.clone().expect("just installed");
                for (auction, category) in entry.1.drain(..) {
                    outputs.push(format!("{name} {city} {st} auction={auction} cat={category}"));
                }
            }
            for auction in auctions {
                let entry = state.entry(auction.seller).or_default();
                match &entry.0 {
                    Some((name, city, st)) => outputs
                        .push(format!("{name} {city} {st} auction={} cat={}", auction.id, auction.category)),
                    None => entry.1.push((auction.id, auction.category)),
                }
            }
            outputs
        },
    );
    QueryOutput::from_stateful(output)
}
