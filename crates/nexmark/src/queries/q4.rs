//! Query 4: average closing price per category.
//!
//! A first operator keyed by auction id accumulates the relevant bids until the
//! auction closes (a post-dated record scheduled for the auction's expiry), at
//! which point the winning price is reported and the auction's state removed.
//! A second operator keyed by category maintains the running average. Both
//! operators are migrateable and share the same control stream.

use megaphone::prelude::*;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

use super::{auctions, bids, QueryOutput, Time};
use crate::event::Event;

/// Per-bin state, keyed by auction id: `(category, reserve, best_bid, seller)`.
type AuctionState = FxHashMap<u64, (u64, u64, u64, u64)>;

/// A record of the first stage: either an auction opening, a bid, or a closing
/// reminder, encoded as `(auction, kind, a, b, c, d)`.
type Stage1Record = (u64, u64, u64, u64, u64, u64);

/// Builds the closed-auction stream `(category_or_seller, price)` shared by Q4
/// and Q6: `select_seller` chooses whether the first tuple field is the
/// auction's category (Q4) or its seller (Q6).
pub fn closed_auctions(
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    events: &Stream<Time, Event>,
    select_seller: bool,
) -> StatefulOutput<Time, (u64, u64)> {
    let (auctions, bids) = (auctions(events), bids(events));
    let auction_records = auctions.map(move |auction| {
        (auction.id, 0u64, auction.category, auction.reserve, auction.expires, auction.seller)
    });
    let bid_records = bids.map(|bid| (bid.auction, 1u64, bid.price, 0, 0, 0));
    let merged = auction_records.concat(&bid_records);

    stateful_unary::<_, Stage1Record, AuctionState, (u64, u64), _, _>(
        config,
        control,
        &merged,
        "Q4-ClosedAuctions",
        |record| hash_code(&record.0),
        move |time, records, state, notificator| {
            let mut outputs = Vec::new();
            for (auction, kind, a, b, c, d) in records {
                match kind {
                    0 => {
                        // Auction opened: remember its metadata and schedule closing.
                        let entry = state.entry(auction).or_default();
                        entry.0 = a;
                        entry.1 = b;
                        entry.3 = d;
                        let expires = c.max(*time);
                        notificator.notify_at(expires, (auction, 2, 0, 0, 0, 0));
                    }
                    1 => {
                        // Bid: keep the highest price.
                        let entry = state.entry(auction).or_default();
                        if a > entry.2 {
                            entry.2 = a;
                        }
                    }
                    _ => {
                        // Closing reminder: report if the reserve was met.
                        if let Some((category, reserve, best, seller)) = state.remove(&auction) {
                            if best >= reserve || reserve == 0 {
                                let key = if select_seller { seller } else { category };
                                outputs.push((key, best));
                            }
                        }
                    }
                }
            }
            outputs
        },
    )
}

/// The final operator Q4 and Q6 share: per-key state of type `S`, folded with
/// one closed auction at a time, one row out per auction.
///
/// The rows are *running* aggregates, so they depend on the order in which a
/// key's auctions are folded. Auctions that close at the same time reach this
/// operator from several workers in no particular order; each time's records
/// are therefore folded in `(key, price)` order, which makes the rows the same
/// on one worker, on several, and across processes
/// (`tests/cluster_equivalence.rs`).
pub fn running_aggregate<S, F>(
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    closed: &Stream<Time, (u64, u64)>,
    name: &str,
    mut fold: F,
) -> QueryOutput
where
    S: Default + Codec + Send + 'static,
    F: FnMut(u64, u64, &mut S) -> String + 'static,
{
    let rows = stateful_unary::<_, (u64, u64), FxHashMap<u64, S>, String, _, _>(
        config,
        control,
        closed,
        name,
        |record| hash_code(&record.0),
        move |_time, mut records, states, _notificator| {
            records.sort_unstable();
            records
                .into_iter()
                .map(|(key, price)| fold(key, price, states.entry(key).or_default()))
                .collect()
        },
    );
    QueryOutput::from_stateful(rows)
}

/// Builds Q4 with Megaphone operators.
pub fn q4(
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    events: &Stream<Time, Event>,
) -> QueryOutput {
    let closed = closed_auctions(config, control, events, false);
    running_aggregate::<(u64, u64), _>(
        config,
        control,
        &closed.stream,
        "Q4-Average",
        |category, price, (sum, count)| {
            *sum += price;
            *count += 1;
            format!("category={} avg_close={}", category, *sum / *count)
        },
    )
}
