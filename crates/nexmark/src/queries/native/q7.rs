//! Native Q7: highest bid per (dilated) minute, with explicit window-close
//! notifications.

use std::collections::HashMap;

use timelite::communication::Pact;
use timelite::hashing::hash_code;
use timelite::prelude::*;

use crate::event::Event;
use crate::queries::{bids, QueryOutput, Time, Q7_WINDOW_MS};

/// Builds Q7 on plain timelite operators.
pub fn q7(events: &Stream<Time, Event>) -> QueryOutput {
    let bids = bids(events);
    let keyed = bids.map(|bid| (bid.date_time / Q7_WINDOW_MS, bid.price, bid.auction));

    let maxima = keyed.unary_frontier(
        Pact::exchange(|record: &(u64, u64, u64)| hash_code(&record.0)),
        "NativeQ7Max",
        move |_capability| {
            let mut best: HashMap<u64, (u64, u64)> = HashMap::new();
            let mut pending: Vec<(Capability<Time>, u64)> = Vec::new();
            move |input, output, frontier| {
                input.for_each(|cap, records| {
                    for (window, price, auction) in records {
                        let entry = best.entry(window).or_insert((0, 0));
                        if price > entry.0 {
                            *entry = (price, auction);
                        }
                        if !pending.iter().any(|(_, w)| *w == window) {
                            let close = ((window + 1) * Q7_WINDOW_MS).max(*cap.time());
                            pending.push((cap.delayed(&close), window));
                        }
                    }
                });
                let mut index = 0;
                while index < pending.len() {
                    if !frontier.less_equal(pending[index].0.time()) {
                        let (cap, window) = pending.swap_remove(index);
                        if let Some((price, auction)) = best.remove(&window) {
                            output.session(&cap).give(format!(
                                "window={} max_price={} auction={}",
                                window, price, auction
                            ));
                        }
                    } else {
                        index += 1;
                    }
                }
            }
        },
    );
    QueryOutput::from_stream(maxima)
}
