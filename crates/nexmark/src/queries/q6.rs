//! Query 6: average selling price of the last ten auctions of each seller.
//!
//! Shares its closed-auction derivation with Q4 (the paper notes the two have a
//! large fraction of the query plan in common); the final operator is keyed by
//! seller and maintains a list of up to ten closing prices, so the set of
//! sellers — and the state — grows without bound.

use megaphone::prelude::*;
use timelite::prelude::*;

use super::q4::{closed_auctions, running_aggregate};
use super::{QueryOutput, Time};
use crate::event::Event;

/// Builds Q6 with Megaphone operators.
pub fn q6(
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    events: &Stream<Time, Event>,
) -> QueryOutput {
    let closed = closed_auctions(config, control, events, true);
    running_aggregate::<Vec<u64>, _>(
        config,
        control,
        &closed.stream,
        "Q6-Average",
        |seller, price, last_ten| {
            last_ten.push(price);
            if last_ten.len() > 10 {
                last_ten.remove(0);
            }
            let avg = last_ten.iter().sum::<u64>() / last_ten.len() as u64;
            format!("seller={} avg_last10={}", seller, avg)
        },
    )
}
