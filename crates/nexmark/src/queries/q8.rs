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

use megaphone::codec::{ChainAssembler, ChainFragmenter};
use megaphone::prelude::*;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

use super::{auctions, persons, QueryOutput, Time, Q8_LATENESS_MS, Q8_WINDOW_MS};
use crate::event::{Auction, Event, Person};

/// The windows of the auctions a seller opened before registering.
type Waiting = FxHashMap<u64, Vec<u64>>;

/// Per-bin state. A seller is in at most one of the two parts: a registration
/// consumes the seller's waiting windows, and an auction of a registered
/// seller joins (or not) without waiting.
///
/// The registrations — nearly all of the state — live in a [`FlatTable`], so a
/// bin extracts and installs as two bulk copies, not one `String` and one map
/// insert per seller; the waiting lists are the rare case and stay a small map.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Q8State {
    /// Seller id → (registration window, name bytes).
    registered: FlatTable,
    waiting: Waiting,
}

impl Q8State {
    /// Number of registered sellers.
    pub fn registrations(&self) -> usize {
        self.registered.len()
    }

    /// Number of auction windows waiting for their seller's registration.
    pub fn waiting_windows(&self) -> usize {
        self.waiting.values().map(Vec::len).sum()
    }
}

impl Codec for Q8State {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.registered.encode(bytes);
        self.waiting.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Q8State { registered: FlatTable::decode(bytes), waiting: Waiting::decode(bytes) }
    }
}

impl ChunkedCodec for Q8State {
    type Fragmenter = ChainFragmenter<
        <FlatTable as ChunkedCodec>::Fragmenter,
        <Waiting as ChunkedCodec>::Fragmenter,
    >;
    type Assembler = ChainAssembler<
        <FlatTable as ChunkedCodec>::Assembler,
        <Waiting as ChunkedCodec>::Assembler,
        Q8State,
    >;
    fn into_fragmenter(self) -> Self::Fragmenter {
        ChainFragmenter::new(self.registered.into_fragmenter(), self.waiting.into_fragmenter())
    }
    fn assembler() -> Self::Assembler {
        ChainAssembler::new(FlatTable::assembler(), Waiting::assembler(), |registered, waiting| {
            Q8State { registered, waiting }
        })
    }
}

/// Sentinel `date_time` marking an expiry sweep rather than a real event.
const Q8_EXPIRY: u64 = u64::MAX;

/// The expiry sweep of a bin: it names no seller and no window — when it
/// comes due, everything in the bin whose tumbling window (plus allowed
/// lateness) has passed by then is dropped. A registration or waiting auction
/// window can only ever match within its own window, so it is dead weight
/// afterwards. Pending sweeps migrate with their bin, one per window.
fn sweep_reminder() -> Person {
    Person {
        id: 0,
        name: String::new(),
        city: String::new(),
        state: String::new(),
        date_time: Q8_EXPIRY,
    }
}

/// The processing time at which state of `window` may be dropped: the
/// window's event-time end plus the allowed lateness, so records of the
/// window that a bounded out-of-order replay delivers late still find it.
fn expiry_time(window: u64) -> u64 {
    (window + 1) * Q8_WINDOW_MS + Q8_LATENESS_MS
}

/// Makes sure the bin is swept once state of `window` may be dropped: the first
/// registration or waiting auction of a window in a bin schedules the sweep,
/// the others find it scheduled. A window that is already stale is swept at
/// the current time, in the next round.
fn schedule_sweep(
    window: u64,
    time: &Time,
    notificator: &mut Notificator<Time, Either<Person, Auction>>,
) {
    let at = expiry_time(window).max(*time);
    if !notificator.is_scheduled(&at) {
        notificator.notify_at(at, Either::Left(sweep_reminder()));
    }
}

/// The Q8 fold: joins registrations against auctions within one tumbling
/// window, and sweeps the bin once per window so neither registrations nor
/// waiting auction windows outlive theirs.
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
    // Due sweeps come ahead of the time's registrations. The registrations
    // are swept there; the waiting windows after the time's registrations
    // (which may still claim them) and ahead of its auctions.
    let mut swept = false;
    for person in persons {
        if person.date_time == Q8_EXPIRY {
            if !swept {
                state.registered.retain(|_, window, _| expiry_time(window) > *time);
            }
            swept = true;
            continue;
        }
        // The join window is anchored on the *person's* timestamp: this
        // registration window is what auctions (early or late) match against.
        let window = person.date_time / Q8_WINDOW_MS;
        state.registered.insert(person.id, window, person.name.as_bytes());
        if let Some(auction_windows) = state.waiting.remove(&person.id) {
            for auction_window in auction_windows {
                if auction_window == window {
                    outputs.push(format!("new_seller={} window={}", person.name, window));
                }
            }
        }
        // The registration goes once its window — plus the allowed lateness
        // for out-of-order auctions still referencing it — has passed.
        schedule_sweep(window, time, notificator);
    }
    if swept {
        state.waiting.retain(|_, windows| {
            windows.retain(|window| expiry_time(*window) > *time);
            !windows.is_empty()
        });
    }
    for auction in auctions {
        let window = auction.date_time / Q8_WINDOW_MS;
        match state.registered.get(auction.seller) {
            // The auction joins iff its event time falls inside the seller's
            // registration window; the reported window is the registration's.
            Some((registered, name)) if registered == window => {
                let name = String::from_utf8_lossy(name);
                outputs.push(format!("new_seller={} window={}", name, registered));
            }
            Some(_) => {}
            None => {
                // Swept with its window, so sellers who never register do not
                // accumulate state forever.
                state.waiting.entry(auction.seller).or_default().push(window);
                schedule_sweep(window, time, notificator);
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
    let (persons, auctions) = (persons(events), auctions(events));

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
