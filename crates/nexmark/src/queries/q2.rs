//! Query 2: selection — a stateless filter over the bid stream.

use timelite::prelude::*;

use super::{bids, QueryOutput, Time};
use crate::event::Event;

/// Reports bids on a fixed subset of auctions (auction id divisible by 123).
pub fn q2(events: &Stream<Time, Event>) -> QueryOutput {
    let bids = bids(events);
    let selected = bids
        .filter(|bid| bid.auction % 123 == 0)
        .map(|bid| format!("auction={} price={}", bid.auction, bid.price));
    QueryOutput::from_stream(selected)
}
