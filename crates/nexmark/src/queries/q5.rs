//! Query 5: hot items — the auctions with the most bids over a sliding window.
//!
//! The first operator, keyed by auction, counts bids per slide and reports
//! `(window, auction, count)` when each slide closes — [`Q5_LATENESS_MS`]
//! after the slide's event-time end, so bids a bounded out-of-order replay
//! delivers late are still counted — retracting counts that fall out of the
//! window. The second operator, keyed by window, reports the auction with the
//! highest count *once per window*, when the window's reports are complete
//! (all stage-1 counts for a window share one logical time, so a notification
//! at that time fires after the last of them): the output is deterministic
//! regardless of worker count or record arrival order, with ties broken
//! toward the lower auction id. Windows are time-dilated (Section 5.1).
//!
//! Stage 1 is the memory-bound half: its state is a few megabytes of small
//! per-auction entries visited in hash order, so its throughput follows the
//! share of the cache the box leaves it. Two choices keep that dependence
//! small: an auction's counts live inside its map entry ([`Slides`]: one
//! cache line per visit, no allocation per auction), and counts that have left
//! every window are dropped by one sequential sweep per `(bin, slide)` instead
//! of one random visit per `(auction, slide)`.

use megaphone::codec::Codec;
use megaphone::prelude::*;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

use super::{bids, QueryOutput, Time, Q5_LATENESS_MS, Q5_SLIDE_MS, Q5_WINDOW_MS};
use crate::event::Event;

/// Per-bin state, keyed by auction id: bid counts per slide index. The entry
/// under `Q5_SWEEPS` (`u64::MAX`) is not an auction: it lists the slides whose
/// expiry sweep this bin has scheduled.
pub type SlideCounts = FxHashMap<u64, Slides>;

/// Pairs a [`Slides`] holds without a heap allocation. At most
/// `Q5_WINDOW_MS / Q5_SLIDE_MS` + lateness + 1 slides of an auction are alive
/// at once; all but the hottest auctions bid in far fewer of them.
const INLINE_SLIDES: usize = 6;

/// One auction's `(slide, bids)` counts, in the order the slides were first
/// bid in. Up to `INLINE_SLIDES` pairs sit inside the value itself, so a map
/// entry is one cache line and most auctions never allocate.
///
/// Slide indices (event-time seconds) and per-slide counts are kept as `u32`;
/// the encoding is that of a `Vec<(u64, u64)>`, so bin images are what they
/// were when the counts were one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Slides {
    /// The first `.0` pairs of `.1` are live.
    Inline(u8, [(u32, u32); INLINE_SLIDES]),
    /// More than `INLINE_SLIDES` pairs.
    Heap(Vec<(u32, u32)>),
}

impl Default for Slides {
    fn default() -> Self {
        Slides::Inline(0, [(0, 0); INLINE_SLIDES])
    }
}

impl Slides {
    /// The live pairs.
    pub fn pairs(&self) -> &[(u32, u32)] {
        match self {
            Slides::Inline(len, pairs) => &pairs[..*len as usize],
            Slides::Heap(pairs) => pairs,
        }
    }

    /// Number of slides with a count.
    pub fn len(&self) -> usize {
        self.pairs().len()
    }

    /// Returns `true` iff no slide has a count.
    pub fn is_empty(&self) -> bool {
        self.pairs().is_empty()
    }

    fn push(&mut self, pair: (u32, u32)) {
        match self {
            Slides::Inline(len, pairs) if (*len as usize) < INLINE_SLIDES => {
                pairs[*len as usize] = pair;
                *len += 1;
            }
            Slides::Inline(_, pairs) => {
                // Sized for every slide that can be alive at once.
                let mut heap = Vec::with_capacity(3 * INLINE_SLIDES);
                heap.extend_from_slice(pairs);
                heap.push(pair);
                *self = Slides::Heap(heap);
            }
            Slides::Heap(pairs) => pairs.push(pair),
        }
    }

    /// Counts one bid in `slide`; returns `true` iff it is the slide's first.
    fn count(&mut self, slide: u64) -> bool {
        let slide = u32::try_from(slide).expect("Q5 slide index exceeds u32");
        let pairs = match self {
            Slides::Inline(len, pairs) => &mut pairs[..*len as usize],
            Slides::Heap(pairs) => &mut pairs[..],
        };
        match pairs.iter_mut().find(|(s, _)| *s == slide) {
            Some((_, count)) => {
                *count += 1;
                false
            }
            None => {
                self.push((slide, 1));
                true
            }
        }
    }

    /// The bids counted in the slides of `(from, to]`.
    fn bids_in(&self, from: u64, to: u64) -> u64 {
        self.pairs()
            .iter()
            .filter(|(s, _)| u64::from(*s) > from && u64::from(*s) <= to)
            .map(|(_, count)| u64::from(*count))
            .sum()
    }

    /// Drops the counts of `slide` and every earlier one.
    fn retain_after(&mut self, slide: u64) {
        match self {
            Slides::Inline(len, pairs) => {
                let live = *len as usize;
                // An expiry sweep finds nothing to drop in most entries:
                // those are read, never written.
                let dead = |pair: &(u32, u32)| u64::from(pair.0) <= slide;
                let Some(first) = pairs[..live].iter().position(dead) else { return };
                let mut kept = first;
                for index in first + 1..live {
                    if !dead(&pairs[index]) {
                        pairs[kept] = pairs[index];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Slides::Heap(pairs) => {
                pairs.retain(|(s, _)| u64::from(*s) > slide);
                // Back inline only once well below the limit, so an auction
                // hovering around it does not allocate on every other slide.
                if pairs.len() <= INLINE_SLIDES / 2 {
                    let mut inline = [(0, 0); INLINE_SLIDES];
                    inline[..pairs.len()].copy_from_slice(pairs);
                    *self = Slides::Inline(pairs.len() as u8, inline);
                }
            }
        }
    }
}

impl Codec for Slides {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        for &(slide, count) in self.pairs() {
            (u64::from(slide), u64::from(count)).encode(bytes);
        }
    }

    fn decode(bytes: &mut &[u8]) -> Self {
        let mut slides = Slides::default();
        for _ in 0..usize::decode(bytes) {
            let (slide, count) = <(u64, u64)>::decode(bytes);
            slides.push((slide as u32, count as u32));
        }
        slides
    }
}

/// Marker bit distinguishing slide-close reminders from bids in the second
/// field of a stage-1 record; the low bits carry the slide that closed. (Real
/// `date_time` values are event-time milliseconds, far below these bits.)
const Q5_REMINDER: u64 = 1 << 63;

/// Marker (alongside [`Q5_REMINDER`]) for expiry reminders: the carried slide
/// has fallen out of every window, so the bin drops every count of it (and of
/// earlier slides) without reporting.
const Q5_EXPIRE: u64 = (1 << 63) | (1 << 62);

/// The key of expiry reminders, and of the [`SlideCounts`] entry listing the
/// slides whose expiry this bin has scheduled: one reminder per `(bin, slide)`
/// however many auctions bid in the slide. (No auction has this id.)
const Q5_SWEEPS: u64 = u64::MAX;

/// Stage-1 fold: counts bids per `(auction, slide)` and reports the windowed
/// count when a slide closes, dropping counts (and whole auction entries) that
/// have fallen out of the window.
///
/// Exposed so regression tests can run the fold through the operator stack
/// while observing the per-bin state.
pub fn count_fold(
    time: &Time,
    records: Vec<(u64, u64)>,
    state: &mut SlideCounts,
    notificator: &mut Notificator<Time, (u64, u64)>,
) -> Vec<(u64, u64, u64)> {
    let mut outputs = Vec::new();
    for (auction, date_time) in records {
        if date_time >= Q5_EXPIRE {
            // Expiry reminder: the carried slide has left every window, so it
            // (and anything older) is dead weight in every entry of the bin.
            // One pass in table order drops it — and every entry, the
            // schedule's included, that nothing remains of — without reporting.
            let slide = date_time - Q5_EXPIRE;
            state.retain(|_, counts| {
                counts.retain_after(slide);
                !counts.is_empty()
            });
        } else if date_time >= Q5_REMINDER {
            // Slide-close reminder: report the window ending at the slide that
            // just closed (carried in the reminder, since `*time` is already
            // inside the *next* slide).
            let slide = date_time - Q5_REMINDER;
            let from = slide.saturating_sub(Q5_WINDOW_MS / Q5_SLIDE_MS);
            let Some(counts) = state.get_mut(&auction) else { continue };
            let count = counts.bids_in(from, slide);
            if count > 0 {
                outputs.push((slide, auction, count));
            }
            // The closing slide itself always survives this retain; entries
            // are dropped by the expiry reminder once it leaves every window.
            counts.retain_after(from);
        } else {
            let slide = date_time / Q5_SLIDE_MS;
            if state.entry(auction).or_default().count(slide) {
                // Ask to be woken when this slide closes — once per
                // (auction, slide), not once per bid — and, once per
                // (bin, slide), when it has left the last window that can
                // count it.
                let close = (slide + 1) * Q5_SLIDE_MS + Q5_LATENESS_MS;
                notificator.notify_at(close.max(*time), (auction, Q5_REMINDER + slide));
                if state.entry(Q5_SWEEPS).or_default().count(slide) {
                    let expire =
                        (slide + Q5_WINDOW_MS / Q5_SLIDE_MS + 1) * Q5_SLIDE_MS + Q5_LATENESS_MS;
                    notificator.notify_at(expire.max(*time), (Q5_SWEEPS, Q5_EXPIRE + slide));
                }
            }
        }
    }
    outputs
}

/// Stage-2 per-bin state, keyed by window: the best `(count, auction)` seen so
/// far (ties toward the lower auction id), or the `Q5_REPORTED` tombstone
/// once the window's single row has been emitted.
pub type HotWindows = FxHashMap<u64, (u64, u64)>;

/// Marker in the auction field of a stage-2 record for the report reminder of
/// the carried window. (Real stage-1 records never use this auction id.)
const Q5_HOT_REPORT: u64 = u64::MAX;

/// Tombstone state of a window whose row has been emitted. It absorbs counts
/// that straggle in past the report (a migrated slide reminder clamped beyond
/// its scheduled time) so a window can never report twice, and expires
/// [`Q5_LATENESS_MS`] later. (Real best-entries always have `count > 0`.)
const Q5_REPORTED: (u64, u64) = (0, u64::MAX);

/// Stage-2 fold: folds `(window, (auction, count))` reports into the
/// per-window best and emits one row per window when the window's reports are
/// complete.
///
/// Every stage-1 count for a window is emitted at the window's close time (the
/// slide reminder's logical time), so a notification at that same time fires
/// after the last of them has been folded — making the single emitted row
/// independent of worker count and arrival order. The reported window leaves a
/// tombstone for [`Q5_LATENESS_MS`]: a count whose slide reminder a migration
/// clamped past the report time is dropped (it cannot retroactively join the
/// emitted row) instead of resurrecting the window and double-reporting. The
/// tombstone's lifetime covers the clamp with room to spare: a pending
/// reminder is only clamped when its bin is extracted in the same scheduling
/// rounds in which the reminder came due (once the frontier passes the
/// reminder's time it fires before the frontier can reach any later control
/// time), so the clamped delivery lands within moments of the report — never
/// a full lateness window behind it.
pub fn hot_fold(
    time: &Time,
    records: Vec<(u64, (u64, u64))>,
    state: &mut HotWindows,
    notificator: &mut Notificator<Time, (u64, (u64, u64))>,
) -> Vec<String> {
    let mut outputs = Vec::new();
    for (window, (auction, count)) in records {
        if auction == Q5_HOT_REPORT {
            match state.get(&window) {
                // Second reminder: the tombstone's lifetime is over.
                Some(&Q5_REPORTED) => {
                    state.remove(&window);
                }
                // First reminder: the window is complete — report its maximum,
                // leave the tombstone, and schedule the tombstone's expiry.
                Some(&(best_count, best_auction)) => {
                    outputs.push(format!(
                        "window={} hot_auction={} bids={}",
                        window, best_auction, best_count
                    ));
                    state.insert(window, Q5_REPORTED);
                    notificator.notify_at(*time + Q5_LATENESS_MS, (window, (Q5_HOT_REPORT, 0)));
                }
                None => {}
            }
            continue;
        }
        match state.get_mut(&window) {
            // A straggler behind the report (see the tombstone note above).
            Some(best) if *best == Q5_REPORTED => {}
            Some(best) => {
                if count > best.0 || (count == best.0 && auction < best.1) {
                    *best = (count, auction);
                }
            }
            None => {
                state.insert(window, (count, auction));
                // First report of this window: schedule the (single) emission
                // strictly after the window's report time, so it cannot be
                // drained into a later same-time activation while reports from
                // other workers are still arriving.
                notificator.notify_at(*time + 1, (window, (Q5_HOT_REPORT, 0)));
            }
        }
    }
    outputs
}

/// Builds Q5 with Megaphone operators.
pub fn q5(
    config: MegaphoneConfig,
    control: &Stream<Time, ControlInst>,
    events: &Stream<Time, Event>,
) -> QueryOutput {
    let bids = bids(events);
    let bid_records = bids.map(|bid| (bid.auction, bid.date_time));

    // Stage 1: per-auction sliding-window counts.
    let counts = stateful_unary::<_, (u64, u64), SlideCounts, (u64, u64, u64), _, _>(
        config,
        control,
        &bid_records,
        "Q5-Counts",
        |record| hash_code(&record.0),
        count_fold,
    );

    // Stage 2: per-window maximum, reported once when the window completes.
    let hot = stateful_unary::<_, (u64, (u64, u64)), HotWindows, String, _, _>(
        config,
        control,
        &counts.stream.map(|(window, auction, count)| (window, (auction, count))),
        "Q5-Hot",
        |record| hash_code(&record.0),
        hot_fold,
    );
    let mut output = QueryOutput::from_stateful(hot);
    // Both stages are stateful: expose stage 1's store alongside stage 2's so
    // checkpoint/recovery covers the whole query.
    output.storage.insert(0, counts.storage.clone());
    output
}
