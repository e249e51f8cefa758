//! Query 8: monitor new users — people who registered and opened an auction
//! within the same (12-hour, time-dilated) tumbling window.
//!
//! Window semantics follow the NEXMark reference: a seller is "new" for the
//! tumbling window containing their *registration* timestamp, and an auction
//! joins iff its own event time falls inside that registration window. Both
//! sides are keyed purely on event timestamps — never on arrival/processing
//! time — so a bounded out-of-order replay of the stream yields exactly the
//! in-order results. State expiry grants
//! [`Q8_LATENESS_MS`] of allowed lateness past each
//! window's event-time end before dropping its registrations and pending
//! auction windows, covering events the replay delivers after the processing
//! clock has passed their window.

use megaphone::prelude::*;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

use super::{split, QueryOutput, Time, Q8_LATENESS_MS, Q8_WINDOW_MS};
use crate::event::{Auction, Event, Person};

/// Per-bin state, keyed by person (seller) id: `(registration window, name)` if
/// the person has registered, and the windows of auctions seen before the
/// registration arrived.
pub type Q8State = FxHashMap<u64, (Option<(u64, String)>, Vec<u64>)>;

/// Sentinel `date_time` marking an expiry reminder rather than a real event.
/// When it comes due, all state for the seller whose tumbling window has passed
/// is dropped — a registration or pending auction window can only ever match
/// within its own window, so it is dead weight afterwards.
const Q8_EXPIRY: u64 = u64::MAX;

/// The expiry reminder of a registration: only the id, which is all
/// [`expire_seller`] reads — every pending reminder migrates with its bin, so a
/// copy of the registration (three strings) would be most of the migrated bytes.
fn person_reminder(id: u64) -> Person {
    Person {
        id,
        name: String::new(),
        city: String::new(),
        state: String::new(),
        date_time: Q8_EXPIRY,
    }
}

/// The expiry reminder of a seller's pending auction windows: only the seller.
fn auction_reminder(seller: u64) -> Auction {
    Auction {
        id: 0,
        seller,
        category: 0,
        initial_bid: 0,
        reserve: 0,
        date_time: Q8_EXPIRY,
        expires: 0,
    }
}

/// The processing time at which state of `window` may be dropped: the
/// window's event-time end plus the allowed lateness, so records of the
/// window that a bounded out-of-order replay delivers late still find it.
fn expiry_time(window: u64) -> u64 {
    (window + 1) * Q8_WINDOW_MS + Q8_LATENESS_MS
}

/// Drops the parts of `seller`'s state whose tumbling window (plus allowed
/// lateness) has passed by `time`, and the whole entry once nothing current
/// remains.
fn expire_seller(state: &mut Q8State, seller: u64, time: u64) {
    let Some(entry) = state.get_mut(&seller) else { return };
    if let Some((window, _)) = &entry.0 {
        if expiry_time(*window) <= time {
            entry.0 = None;
        }
    }
    entry.1.retain(|window| expiry_time(*window) > time);
    if entry.0.is_none() && entry.1.is_empty() {
        state.remove(&seller);
    }
}

/// The Q8 fold: joins registrations against auctions within one tumbling
/// window, scheduling expiry reminders so neither registrations nor pending
/// auction windows outlive their window.
///
/// Exposed so regression tests can run the fold through the operator stack
/// while observing the per-bin state.
pub fn join_fold(
    time: &Time,
    persons: Vec<Person>,
    auctions: Vec<Auction>,
    state: &mut Q8State,
    notificator: &mut Notificator<Time, Either<Person, Auction>>,
) -> Vec<String> {
    let mut outputs = Vec::new();
    for person in persons {
        if person.date_time == Q8_EXPIRY {
            expire_seller(state, person.id, *time);
            continue;
        }
        // The join window is anchored on the *person's* timestamp: this
        // registration window is what auctions (early or late) match against.
        let window = person.date_time / Q8_WINDOW_MS;
        let entry = state.entry(person.id).or_default();
        entry.0 = Some((window, person.name.clone()));
        for auction_window in entry.1.drain(..) {
            if auction_window == window {
                outputs.push(format!("new_seller={} window={}", person.name, window));
            }
        }
        // Expire the registration once its window — plus the allowed lateness
        // for out-of-order auctions still referencing it — has passed. A
        // window that is already stale notifies at the current time and is
        // dropped in the next round.
        notificator.notify_at(expiry_time(window), Either::Left(person_reminder(person.id)));
    }
    for auction in auctions {
        if auction.date_time == Q8_EXPIRY {
            expire_seller(state, auction.seller, *time);
            continue;
        }
        let window = auction.date_time / Q8_WINDOW_MS;
        let entry = state.entry(auction.seller).or_default();
        match &entry.0 {
            // The auction joins iff its event time falls inside the seller's
            // registration window; the reported window is the registration's.
            Some((registered, name)) if *registered == window => {
                outputs.push(format!("new_seller={} window={}", name, registered));
            }
            Some(_) => {}
            None => {
                // Schedule one expiry per (seller, window) so sellers who
                // never register do not accumulate state forever.
                if !entry.1.contains(&window) {
                    let reminder = auction_reminder(auction.seller);
                    notificator.notify_at(expiry_time(window), Either::Right(reminder));
                }
                entry.1.push(window);
            }
        }
    }
    outputs
}

/// Builds Q8 with Megaphone operators.
pub fn q8(
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    events: &Stream<Time, Event>,
) -> QueryOutput {
    let (persons, auctions, _bids) = split(events);

    let output = stateful_binary::<_, Person, Auction, Q8State, String, _, _, _>(
        config,
        control,
        &persons,
        &auctions,
        "Q8-NewSellers",
        |person| hash_code(&person.id),
        |auction| hash_code(&auction.seller),
        join_fold,
    );
    QueryOutput::from_stateful(output)
}
