//! NEXMark queries Q1–Q8, implemented with Megaphone's migrateable operators.
//!
//! Each query takes the event stream, the control stream and a
//! [`MegaphoneConfig`] and returns a [`QueryOutput`]: a stream of rendered
//! result rows plus the probe of its final operator. Hand-tuned implementations
//! on plain `timelite` operators (no migration support) live in [`native`] and
//! are used for the overhead comparison and the lines-of-code table (Table 1).

pub mod native;
pub mod q1;
pub mod q2;
pub mod q3;
pub mod q4;
pub mod q5;
pub mod q6;
pub mod q7;
pub mod q8;

use megaphone::prelude::*;
use timelite::prelude::*;

use crate::event::{Auction, Bid, Event, Person};

/// The logical time of the NEXMark dataflows: milliseconds of event time.
pub type Time = u64;

/// A query's output: rendered result rows plus the probe of its final operator.
pub struct QueryOutput {
    /// Rendered result rows.
    pub stream: Stream<Time, String>,
    /// Probe on the final operator's output.
    pub probe: ProbeHandle<Time>,
    /// Per-bin load snapshots of the final stateful operator's bin store
    /// (`None` for stateless and native queries), letting experiment drivers
    /// probe tracked state size and feed load-aware controllers.
    pub stats: Option<StatsHandle>,
    /// Storage probes of every stateful operator in the query, in stream
    /// order (empty for stateless and native queries). When the worker runs
    /// with durable storage, these checkpoint/sync/inspect each operator's
    /// store; with the default in-memory storage every call is a no-op.
    pub storage: Vec<StorageHandle>,
}

impl QueryOutput {
    /// Wraps a plain stream, attaching a fresh probe.
    pub fn from_stream(stream: Stream<Time, String>) -> Self {
        let mut probe = ProbeHandle::new();
        let stream = stream.probe_with(&mut probe);
        QueryOutput { stream, probe, stats: None, storage: Vec::new() }
    }

    /// Wraps a Megaphone stateful output, propagating its bin-store stats and
    /// storage probes.
    pub fn from_stateful(output: StatefulOutput<Time, String>) -> Self {
        let stats = output.stats.clone();
        QueryOutput {
            stream: output.stream,
            probe: output.probe,
            stats: Some(stats),
            storage: vec![output.storage],
        }
    }

    /// Checkpoints every stateful operator's durable store (full-image table
    /// plus WAL rotation); a no-op under in-memory storage.
    ///
    /// # Panics
    ///
    /// Panics on a storage error — including `Busy` when a migration's
    /// incremental install is in flight; checkpoint at a quiescent point (all
    /// issued control times fully absorbed).
    pub fn checkpoint_all(&self) {
        for handle in &self.storage {
            handle.checkpoint().unwrap_or_else(|error| panic!("checkpoint failed: {error}"));
        }
    }

    /// Syncs every stateful operator's WAL; a no-op under in-memory storage.
    pub fn sync_all(&self) {
        for handle in &self.storage {
            handle.sync().unwrap_or_else(|error| panic!("WAL sync failed: {error}"));
        }
    }

    /// A [`BinStats`] snapshot of the final stateful operator's hosted bins,
    /// or an empty snapshot for stateless/native queries.
    pub fn stats(&self) -> BinStats {
        self.stats.as_ref().map(StatsHandle::snapshot).unwrap_or_default()
    }

    /// The final stateful operator's total tracked state bytes,
    /// allocation-free (zero for stateless/native queries).
    pub fn tracked_bytes(&self) -> u64 {
        self.stats.as_ref().map_or(0, StatsHandle::tracked_bytes)
    }
}

// Every consumer of the event stream but the last receives a deep clone of
// each batch, so a query takes only the components it reads.

/// The person component of the event stream.
pub fn persons(events: &Stream<Time, Event>) -> Stream<Time, Person> {
    events.flat_map(|event: Event| event.person())
}

/// The auction component of the event stream.
pub fn auctions(events: &Stream<Time, Event>) -> Stream<Time, Auction> {
    events.flat_map(|event: Event| event.auction())
}

/// The bid component of the event stream.
pub fn bids(events: &Stream<Time, Event>) -> Stream<Time, Bid> {
    events.flat_map(|event: Event| event.bid())
}

/// The set of queries, by name, for experiment drivers.
pub const QUERIES: [&str; 8] = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"];

/// Builds the named query with Megaphone operators.
pub fn build_query(
    name: &str,
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    events: &Stream<Time, Event>,
) -> QueryOutput {
    match name {
        "q1" => q1::q1(events),
        "q2" => q2::q2(events),
        "q3" => q3::q3(config, control, events),
        "q4" => q4::q4(config, control, events),
        "q5" => q5::q5(config, control, events),
        "q6" => q6::q6(config, control, events),
        "q7" => q7::q7(config, control, events),
        "q8" => q8::q8(config, control, events),
        other => panic!("unknown query {other}"),
    }
}

/// Builds the named query with native (non-migrateable) operators.
pub fn build_native_query(name: &str, events: &Stream<Time, Event>) -> QueryOutput {
    match name {
        "q1" => native::q1::q1(events),
        "q2" => native::q2::q2(events),
        "q3" => native::q3::q3(events),
        "q4" => native::q4::q4(events),
        "q5" => native::q5::q5(events),
        "q6" => native::q6::q6(events),
        "q7" => native::q7::q7(events),
        "q8" => native::q8::q8(events),
        other => panic!("unknown query {other}"),
    }
}

/// Window length (event-time milliseconds) used by the sliding-window query Q5,
/// time-dilated as in the paper.
pub const Q5_WINDOW_MS: u64 = 10_000;
/// Slide of Q5's window.
pub const Q5_SLIDE_MS: u64 = 1_000;
/// Allowed lateness of Q5's slide reminders, mirroring [`Q8_LATENESS_MS`]'s
/// treatment: a slide's close report (and the expiry that prunes it) fires
/// this long *after* the slide's event-time end, so bids a bounded
/// out-of-order replay delivers up to this lag past their event time are
/// still counted in every window containing their slide. Out-of-order replay
/// within this bound produces exactly the in-order results.
pub const Q5_LATENESS_MS: u64 = 2_000;
/// Window length used by the tumbling-window queries Q7 (per "minute", dilated).
pub const Q7_WINDOW_MS: u64 = 1_000;
/// Window length used by the 12-hour windowed join Q8, dilated by 79x.
pub const Q8_WINDOW_MS: u64 = 60_000;
/// Allowed lateness of Q8's state expiry: how far the *processing* clock may
/// run ahead of an event's timestamp before the window state the event needs
/// is dropped. Q8's join windows are keyed purely on event timestamps (the
/// person's registration window); under bounded out-of-order replay an event
/// can be processed up to the replay lag after its event time, so expiry waits
/// this long past the window's event-time end. Out-of-order replay within this
/// bound produces exactly the in-order results.
pub const Q8_LATENESS_MS: u64 = 10_000;
