//! Query 7: the highest bid of each (dilated) minute.
//!
//! State is minimal — one value per window — but producing the result requires
//! collecting worker-local maxima into a computation-wide aggregate, here by
//! keying the window id.

use megaphone::prelude::*;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

use super::{bids, QueryOutput, Time, Q7_WINDOW_MS};
use crate::event::Event;

/// Builds Q7 with Megaphone operators.
pub fn q7(
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    events: &Stream<Time, Event>,
) -> QueryOutput {
    let bids = bids(events);
    let keyed = bids.map(|bid| (bid.date_time / Q7_WINDOW_MS, (bid.price, bid.auction)));

    let output = stateful_unary::<_, (u64, (u64, u64)), FxHashMap<u64, (u64, u64, bool)>, String, _, _>(
        config,
        control,
        &keyed,
        "Q7-MaxBid",
        |record| hash_code(&record.0),
        move |time, records, state, notificator| {
            let mut outputs = Vec::new();
            for (window, (price, auction)) in records {
                let entry = state.entry(window).or_default();
                if price == u64::MAX {
                    // Window-close reminder: emit the maximum.
                    let (best_price, best_auction, reported) = *entry;
                    if !reported && best_price > 0 {
                        outputs.push(format!(
                            "window={} max_price={} auction={}",
                            window, best_price, best_auction
                        ));
                        entry.2 = true;
                    }
                } else {
                    if price > entry.0 {
                        entry.0 = price;
                        entry.1 = auction;
                    }
                    let close = (window + 1) * Q7_WINDOW_MS;
                    notificator.notify_at(close.max(*time), (window, (u64::MAX, 0)));
                }
            }
            outputs
        },
    );
    QueryOutput::from_stateful(output)
}
