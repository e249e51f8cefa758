//! Native Q2: stateless selection.

use timelite::prelude::*;

use crate::event::Event;
use crate::queries::{bids, QueryOutput, Time};

/// Reports bids on a fixed subset of auctions.
pub fn q2(events: &Stream<Time, Event>) -> QueryOutput {
    let bids = bids(events);
    let selected = bids
        .filter(|bid| bid.auction % 123 == 0)
        .map(|bid| format!("auction={} price={}", bid.auction, bid.price));
    QueryOutput::from_stream(selected)
}
