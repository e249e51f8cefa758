//! Native Q1: stateless currency conversion.

use timelite::prelude::*;

use crate::event::Event;
use crate::queries::{bids, QueryOutput, Time};

/// Converts every bid's price to euros.
pub fn q1(events: &Stream<Time, Event>) -> QueryOutput {
    let bids = bids(events);
    let converted = bids.map(|bid| {
        format!("auction={} bidder={} price_eur={}", bid.auction, bid.bidder, bid.price * 89 / 100)
    });
    QueryOutput::from_stream(converted)
}
