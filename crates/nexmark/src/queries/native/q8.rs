//! Native Q8: new persons who opened an auction in the same tumbling window.

use std::collections::HashMap;

use timelite::communication::Pact;
use timelite::hashing::hash_code;
use timelite::prelude::*;

use crate::event::Event;
use crate::queries::{auctions, persons, QueryOutput, Time, Q8_WINDOW_MS};

/// Builds Q8 on plain timelite operators.
pub fn q8(events: &Stream<Time, Event>) -> QueryOutput {
    let (persons, auctions) = (persons(events), auctions(events));

    let joined = persons.binary_frontier(
        &auctions,
        Pact::exchange(|person: &crate::event::Person| hash_code(&person.id)),
        Pact::exchange(|auction: &crate::event::Auction| hash_code(&auction.seller)),
        "NativeQ8",
        move |_capability| {
            let mut registrations: HashMap<u64, (u64, String)> = HashMap::new();
            let mut early_auctions: HashMap<u64, Vec<u64>> = HashMap::new();
            move |persons_in, auctions_in, output, _frontiers| {
                persons_in.for_each(|cap, persons| {
                    let mut session = output.session(&cap);
                    for person in persons {
                        let window = person.date_time / Q8_WINDOW_MS;
                        if let Some(windows) = early_auctions.remove(&person.id) {
                            for auction_window in windows {
                                if auction_window == window {
                                    session.give(format!(
                                        "new_seller={} window={}",
                                        person.name, window
                                    ));
                                }
                            }
                        }
                        registrations.insert(person.id, (window, person.name));
                    }
                });
                auctions_in.for_each(|cap, auctions| {
                    let mut session = output.session(&cap);
                    for auction in auctions {
                        let window = auction.date_time / Q8_WINDOW_MS;
                        match registrations.get(&auction.seller) {
                            Some((registered, name)) if *registered == window => {
                                session.give(format!("new_seller={} window={}", name, window));
                            }
                            Some(_) => {}
                            None => early_auctions
                                .entry(auction.seller)
                                .or_default()
                                .push(window),
                        }
                    }
                });
            }
        },
    );
    QueryOutput::from_stream(joined)
}
