//! Native Q5: hot items over a sliding window, with hand-managed per-auction
//! window counts and explicit slide-close notifications. Mirrors the
//! Megaphone implementation's semantics: slide reminders fire
//! `Q5_LATENESS_MS` after the slide's event-time end (bounded out-of-order
//! bids are still counted) and each window's hot auction is reported exactly
//! once, deterministically, when the window's counts are complete.

use std::collections::HashMap;

use timelite::communication::Pact;
use timelite::hashing::hash_code;
use timelite::prelude::*;

use crate::event::Event;
use crate::queries::{bids, QueryOutput, Time, Q5_LATENESS_MS, Q5_SLIDE_MS, Q5_WINDOW_MS};

/// Builds Q5 on plain timelite operators.
pub fn q5(events: &Stream<Time, Event>) -> QueryOutput {
    let bids = bids(events);
    let keyed = bids.map(|bid| (bid.auction, bid.date_time));

    let counts = keyed.unary_frontier(
        Pact::exchange(|record: &(u64, u64)| hash_code(&record.0)),
        "NativeQ5Counts",
        move |_capability| {
            let mut per_auction: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
            // Scheduled work: `(capability, auction, slide, expire)`. A close
            // entry reports the window ending at `slide`; an expire entry
            // silently drops `slide` (and anything older) once it has left
            // every window, so per-auction state drains after the last bid.
            let mut pending: Vec<(Capability<Time>, u64, u64, bool)> = Vec::new();
            move |input, output, frontier| {
                input.for_each(|cap, records| {
                    for (auction, date_time) in records {
                        let slide = date_time / Q5_SLIDE_MS;
                        let counts = per_auction.entry(auction).or_default();
                        match counts.iter_mut().find(|(s, _)| *s == slide) {
                            Some((_, count)) => *count += 1,
                            None => {
                                // Schedule the close and the expiry once per
                                // (auction, slide), not once per bid.
                                counts.push((slide, 1));
                                let close = ((slide + 1) * Q5_SLIDE_MS + Q5_LATENESS_MS)
                                    .max(*cap.time());
                                pending.push((cap.delayed(&close), auction, slide, false));
                                let expire = (slide + Q5_WINDOW_MS / Q5_SLIDE_MS + 1)
                                    * Q5_SLIDE_MS
                                    + Q5_LATENESS_MS;
                                pending.push((
                                    cap.delayed(&expire.max(*cap.time())),
                                    auction,
                                    slide,
                                    true,
                                ));
                            }
                        }
                    }
                });
                let mut due = Vec::new();
                let mut index = 0;
                while index < pending.len() {
                    if !frontier.less_equal(pending[index].0.time()) {
                        due.push(pending.swap_remove(index));
                    } else {
                        index += 1;
                    }
                }
                // Process in time order (closes before expiries on ties) so a
                // close is never starved of counts an expiry would prune.
                due.sort_by(|a, b| a.0.time().cmp(b.0.time()).then(a.3.cmp(&b.3)));
                for (cap, auction, slide, expire) in due {
                    if let Some(counts) = per_auction.get_mut(&auction) {
                        if expire {
                            counts.retain(|(s, _)| *s > slide);
                        } else {
                            let from = slide.saturating_sub(Q5_WINDOW_MS / Q5_SLIDE_MS);
                            let total: u64 = counts
                                .iter()
                                .filter(|(s, _)| *s > from && *s <= slide)
                                .map(|(_, c)| *c)
                                .sum();
                            if total > 0 {
                                output.session(&cap).give((slide, auction, total));
                            }
                            counts.retain(|(s, _)| *s > from);
                        }
                        if counts.is_empty() {
                            per_auction.remove(&auction);
                        }
                    }
                }
            }
        },
    );

    // Stage 2: one deterministic report per window, emitted once the frontier
    // passes the window's close time (every count for a window shares that
    // time, so nothing can still arrive). Ties break toward the lower auction
    // id, exactly as in the Megaphone implementation.
    let hot = counts.unary_frontier(
        Pact::exchange(|record: &(u64, u64, u64)| hash_code(&record.0)),
        "NativeQ5Hot",
        move |_capability| {
            let mut best: HashMap<u64, (u64, u64)> = HashMap::new();
            let mut pending: Vec<(Capability<Time>, u64)> = Vec::new();
            move |input, output, frontier| {
                input.for_each(|cap, records| {
                    for (window, auction, count) in records {
                        match best.get_mut(&window) {
                            Some(entry) => {
                                if count > entry.0 || (count == entry.0 && auction < entry.1) {
                                    *entry = (count, auction);
                                }
                            }
                            None => {
                                best.insert(window, (count, auction));
                                pending.push((cap.delayed(cap.time()), window));
                            }
                        }
                    }
                });
                let mut due = Vec::new();
                let mut index = 0;
                while index < pending.len() {
                    if !frontier.less_equal(pending[index].0.time()) {
                        due.push(pending.swap_remove(index));
                    } else {
                        index += 1;
                    }
                }
                due.sort_by(|a, b| a.0.time().cmp(b.0.time()).then(a.1.cmp(&b.1)));
                for (cap, window) in due {
                    if let Some((count, auction)) = best.remove(&window) {
                        output.session(&cap).give(format!(
                            "window={} hot_auction={} bids={}",
                            window, auction, count
                        ));
                    }
                }
            }
        },
    );
    QueryOutput::from_stream(hot)
}
