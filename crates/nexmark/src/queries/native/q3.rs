//! Native Q3: incremental join of auctions and people, hand-managed state.

use std::collections::HashMap;

use timelite::communication::Pact;
use timelite::hashing::hash_code;
use timelite::prelude::*;

use crate::event::Event;
use crate::queries::{auctions, persons, QueryOutput, Time};

/// Builds Q3 on plain timelite operators.
pub fn q3(events: &Stream<Time, Event>) -> QueryOutput {
    let (persons, auctions) = (persons(events), auctions(events));
    let auctions = auctions.filter(|auction| auction.category == 10);
    let persons = persons.filter(|person| matches!(person.state.as_str(), "OR" | "ID" | "CA"));

    let joined = auctions.binary_frontier(
        &persons,
        Pact::exchange(|auction: &crate::event::Auction| hash_code(&auction.seller)),
        Pact::exchange(|person: &crate::event::Person| hash_code(&person.id)),
        "NativeQ3",
        move |_capability| {
            // Hand-managed join state: seller details and auctions awaiting them.
            let mut people: HashMap<u64, (String, String, String)> = HashMap::new();
            let mut pending_auctions: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
            move |auctions_in, persons_in, output, _frontiers| {
                persons_in.for_each(|cap, persons| {
                    let mut session = output.session(&cap);
                    for person in persons {
                        if let Some(waiting) = pending_auctions.remove(&person.id) {
                            for (auction, category) in waiting {
                                session.give(format!(
                                    "{} {} {} auction={} cat={}",
                                    person.name, person.city, person.state, auction, category
                                ));
                            }
                        }
                        people.insert(person.id, (person.name, person.city, person.state));
                    }
                });
                auctions_in.for_each(|cap, auctions| {
                    let mut session = output.session(&cap);
                    for auction in auctions {
                        match people.get(&auction.seller) {
                            Some((name, city, state)) => session.give(format!(
                                "{name} {city} {state} auction={} cat={}",
                                auction.id, auction.category
                            )),
                            None => pending_auctions
                                .entry(auction.seller)
                                .or_default()
                                .push((auction.id, auction.category)),
                        }
                    }
                });
            }
        },
    );
    QueryOutput::from_stream(joined)
}
