//! Native Q4: average closing price per category, with hand-managed auction
//! state and an explicit pending queue of auction expirations.

use std::collections::HashMap;

use timelite::communication::Pact;
use timelite::hashing::hash_code;
use timelite::prelude::*;

use crate::event::Event;
use crate::queries::{auctions, bids, QueryOutput, Time};

/// Per-auction accumulation: `(category_or_seller, reserve, best bid)`.
type Open = (u64, u64, u64);

/// Derives the closed-auction stream `(category_or_seller, price)` natively.
pub fn native_closed_auctions(
    events: &Stream<Time, Event>,
    select_seller: bool,
) -> Stream<Time, (u64, u64)> {
    let (auctions, bids) = (auctions(events), bids(events));
    let auction_records = auctions.map(move |auction| {
        let key = if select_seller { auction.seller } else { auction.category };
        (auction.id, 0u64, key, auction.reserve, auction.expires)
    });
    let bid_records = bids.map(|bid| (bid.auction, 1u64, bid.price, 0, 0));
    let merged = auction_records.concat(&bid_records);

    merged.unary_frontier(
        Pact::exchange(|record: &(u64, u64, u64, u64, u64)| hash_code(&record.0)),
        "NativeClosedAuctions",
        move |_capability| {
            let mut open: HashMap<u64, Open> = HashMap::new();
            // Auctions awaiting their expiration, with the capability to report.
            let mut closing: Vec<(Capability<Time>, u64, u64)> = Vec::new();
            move |input, output, frontier| {
                input.for_each(|cap, records| {
                    for (auction, kind, a, b, c) in records {
                        if kind == 0 {
                            let entry = open.entry(auction).or_insert((a, b, 0));
                            entry.0 = a;
                            entry.1 = b;
                            let expires = c.max(*cap.time());
                            closing.push((cap.delayed(&expires), auction, expires));
                        } else {
                            let entry = open.entry(auction).or_insert((0, 0, 0));
                            if a > entry.2 {
                                entry.2 = a;
                            }
                        }
                    }
                });
                // Report auctions whose expiration time has passed.
                let mut index = 0;
                while index < closing.len() {
                    if !frontier.less_equal(closing[index].0.time()) {
                        let (cap, auction, _expires) = closing.swap_remove(index);
                        if let Some((key, reserve, best)) = open.remove(&auction) {
                            if best >= reserve || reserve == 0 {
                                output.session(&cap).give((key, best));
                            }
                        }
                    } else {
                        index += 1;
                    }
                }
            }
        },
    )
}

/// Builds Q4 on plain timelite operators.
pub fn q4(events: &Stream<Time, Event>) -> QueryOutput {
    let closed = native_closed_auctions(events, false);
    let averaged = closed.unary(
        Pact::exchange(|record: &(u64, u64)| hash_code(&record.0)),
        "NativeQ4Average",
        {
            let mut sums: HashMap<u64, (u64, u64)> = HashMap::new();
            move |cap, records, output| {
                let mut session = output.session(&cap);
                for (category, price) in records {
                    let entry = sums.entry(category).or_insert((0, 0));
                    entry.0 += price;
                    entry.1 += 1;
                    session.give(format!("category={} avg_close={}", category, entry.0 / entry.1));
                }
            }
        },
    );
    QueryOutput::from_stream(averaged)
}
