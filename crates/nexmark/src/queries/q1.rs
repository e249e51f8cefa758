//! Query 1: currency conversion — a stateless map over the bid stream.

use timelite::prelude::*;

use super::{bids, QueryOutput, Time};
use crate::event::Event;

/// Converts every bid's price from dollars to euros (×0.89), as in NEXMark Q1.
pub fn q1(events: &Stream<Time, Event>) -> QueryOutput {
    let bids = bids(events);
    let converted = bids.map(|bid| {
        format!("auction={} bidder={} price_eur={}", bid.auction, bid.bidder, bid.price * 89 / 100)
    });
    QueryOutput::from_stream(converted)
}
