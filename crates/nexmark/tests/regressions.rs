//! Regression tests for the Q5/Q8 window and state-retention fixes:
//!
//! * Q5's slide-close reminder must report the window that actually *closed*
//!   (it used to recompute the slide from the wake-up time, landing one slide
//!   late and counting the still-open slide).
//! * Q5 and Q8 must not retain state forever: emptied per-auction count
//!   vectors are dropped, and Q8 pending auction windows / registrations
//!   expire once their tumbling window has passed.
//! * Q8's join windows are keyed on event timestamps (the person's
//!   registration window), never on arrival time: a bounded out-of-order
//!   replay must reproduce the in-order results exactly, and auctions
//!   arriving within the allowed lateness of their window still join.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use megaphone::prelude::*;
use nexmark::event::{Auction, Bid, Event, Person};
use nexmark::queries::{q5, q8, Q5_SLIDE_MS, Q5_WINDOW_MS, Q8_LATENESS_MS, Q8_WINDOW_MS};
use nexmark::{
    build_native_query, build_query, NexmarkConfig, OutOfOrder, Workload, WorkloadGenerator,
};

fn bid(auction: u64, date_time: u64) -> Event {
    Event::Bid(Bid { auction, bidder: 1, price: 100, date_time })
}

fn person(id: u64, name: &str, date_time: u64) -> Person {
    Person {
        id,
        name: name.to_string(),
        city: "city".to_string(),
        state: "ST".to_string(),
        date_time,
    }
}

fn auction(seller: u64, date_time: u64) -> Auction {
    Auction {
        id: seller * 1000,
        seller,
        category: 0,
        initial_bid: 100,
        reserve: 200,
        date_time,
        expires: date_time + 10_000,
    }
}

/// Runs Q5 (megaphone or native) over a fixed set of bids, feeding each epoch
/// at its event time, and returns the sorted output rows.
fn run_q5(native: bool, bids: &'static [(u64, u64)]) -> Vec<String> {
    let rows = timelite::execute_single(move |worker| {
        let (mut control, mut input, probe, collected) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (event_input, events) = scope.new_input::<Event>();
            let collected = Rc::new(RefCell::new(Vec::new()));
            let collected_inner = collected.clone();
            let output = if native {
                build_native_query("q5", &events)
            } else {
                build_query("q5", MegaphoneConfig::new(4), &control, &events)
            };
            output.stream.inspect(move |_t, row| collected_inner.borrow_mut().push(row.clone()));
            (control_input, event_input, output.probe, collected)
        });

        let mut at = 0u64;
        for &(auction, date_time) in bids {
            if date_time > at {
                at = date_time;
                input.advance_to(at);
                control.advance_to(at);
                worker.step_while(|| probe.less_than(&at));
            }
            input.send(bid(auction, date_time));
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        let rows = collected.borrow().clone();
        rows
    });
    let mut rows = rows;
    rows.sort();
    rows
}

/// Bids for one auction around the slide-5/slide-6 boundary: the count
/// reported for window 5 must only contain slide-5 bids, labelled window 5.
const BOUNDARY_BIDS: [(u64, u64); 5] = [
    (1, 5 * Q5_SLIDE_MS),
    (1, 5 * Q5_SLIDE_MS + 100),
    (1, 5 * Q5_SLIDE_MS + 900),
    (1, 6 * Q5_SLIDE_MS),
    (1, 6 * Q5_SLIDE_MS + 500),
];

#[test]
fn q5_reports_the_window_that_closed() {
    let rows = run_q5(false, &BOUNDARY_BIDS);
    // Window 5 closes with exactly its own 3 bids (the two slide-6 bids are
    // already in state when the reminder fires, but belong to window 6);
    // window 6 accumulates both slides under the 10-slide window.
    assert_eq!(
        rows,
        vec![
            "window=5 hot_auction=1 bids=3".to_string(),
            "window=6 hot_auction=1 bids=5".to_string(),
        ]
    );
}

#[test]
fn q5_megaphone_matches_native_at_slide_boundaries() {
    assert_eq!(run_q5(false, &BOUNDARY_BIDS), run_q5(true, &BOUNDARY_BIDS));
}

/// Drives the real Q5 stage-1 fold through `stateful_unary` with a probe on
/// the bin state: once every window containing a bid has closed, no per-bin
/// state may remain.
#[test]
fn q5_state_is_dropped_after_windows_close() {
    let window_slides = Q5_WINDOW_MS / Q5_SLIDE_MS;

    let (peak_state, final_state) = timelite::execute_single(move |worker| {
        // Per-bin state sizes, updated from inside the fold; the totals across
        // bins give the operator's full state footprint.
        let sizes_in: Rc<RefCell<HashMap<u64, usize>>> = Rc::new(RefCell::new(HashMap::new()));
        let peak_in = Rc::new(RefCell::new(0usize));
        let sizes_out = sizes_in.clone();
        let peak_out = peak_in.clone();
        let (mut control, mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (bid_input, bids) = scope.new_input::<(u64, u64)>();
            let sizes = sizes_in.clone();
            let peak = peak_in.clone();
            let counts = stateful_unary::<_, (u64, u64), q5::SlideCounts, (u64, u64, u64), _, _>(
                MegaphoneConfig::new(4),
                &control,
                &bids,
                "Q5-Counts-Probe",
                |record| timelite::hashing::hash_code(&record.0),
                move |time, records, state, notificator| {
                    let size: usize =
                        state.len() + state.values().map(|slides| slides.len()).sum::<usize>();
                    let out = q5::count_fold(time, records, state, notificator);
                    let size_after: usize =
                        state.len() + state.values().map(|slides| slides.len()).sum::<usize>();
                    let mut sizes = sizes.borrow_mut();
                    sizes.insert(notificator.bin() as u64, size_after);
                    let total: usize = sizes.values().sum::<usize>().max(size);
                    let mut peak = peak.borrow_mut();
                    *peak = (*peak).max(total);
                    out
                },
            );
            (control_input, bid_input, counts.probe)
        });

        // Three auctions, each bidding only in one early slide; afterwards the
        // stream stays live (other auctions keep bidding) long past the point
        // where the early auctions' windows have closed.
        for slide in 0..3u64 {
            input.send((slide + 1, slide * Q5_SLIDE_MS + 10));
        }
        let quiet_slides = 3 * window_slides;
        for slide in 3..quiet_slides {
            input.send((100 + slide, slide * Q5_SLIDE_MS + 10));
            let at = slide * Q5_SLIDE_MS;
            input.advance_to(at);
            control.advance_to(at);
            worker.step_while(|| probe.less_than(&at));
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        let peak = *peak_out.borrow();
        let final_size: usize = sizes_out.borrow().values().sum();
        (peak, final_size)
    });

    assert!(peak_state > 0, "the probe never observed state");
    assert_eq!(
        final_state, 0,
        "per-auction count state must be fully dropped once all windows closed"
    );
}

/// An auction's counts encode exactly as the `Vec<(u64, u64)>` they used to
/// be — inline or spilled — so bin images did not change format, and they
/// survive growing past the inline limit and shrinking back.
#[test]
fn q5_slides_encode_like_a_pair_vector() {
    use megaphone::codec::Codec;
    for pairs in [0usize, 1, 5, 6, 7, 13, 40] {
        let plain: Vec<(u64, u64)> = (0..pairs as u64).map(|slide| (slide + 3, slide * 2 + 1)).collect();
        let slides = q5::Slides::decode_from_slice(&plain.encode_to_vec());
        assert_eq!(slides.len(), pairs);
        assert_eq!(matches!(slides, q5::Slides::Inline(..)), pairs <= 6, "{pairs} pairs");
        assert_eq!(slides.encode_to_vec(), plain.encode_to_vec(), "{pairs} pairs");
        let widened: Vec<(u64, u64)> =
            slides.pairs().iter().map(|&(slide, count)| (u64::from(slide), u64::from(count))).collect();
        assert_eq!(widened, plain);
    }
}

/// Expiry is one reminder per `(bin, slide)`, not one per `(auction, slide)`:
/// forty auctions bidding in one slide of one bin leave forty close reminders
/// and a single expiry pending, and that one expiry empties the bin.
#[test]
fn q5_expiry_is_one_reminder_per_bin_and_slide() {
    let (pending_after_bids, final_state) = timelite::execute_single(move |worker| {
        let pending_in = Rc::new(RefCell::new(0usize));
        let size_in = Rc::new(RefCell::new(usize::MAX));
        let (pending_out, size_out) = (pending_in.clone(), size_in.clone());
        let (control, mut input) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (bid_input, bids) = scope.new_input::<(u64, u64)>();
            let (pending, size) = (pending_in.clone(), size_in.clone());
            stateful_unary::<_, (u64, u64), q5::SlideCounts, (u64, u64, u64), _, _>(
                // One bin: every auction shares it.
                MegaphoneConfig::new(0),
                &control,
                &bids,
                "Q5-Counts-Expiry",
                |record| timelite::hashing::hash_code(&record.0),
                move |time, records, state, notificator| {
                    let fresh = records.iter().any(|record| record.1 < Q5_SLIDE_MS);
                    let out = q5::count_fold(time, records, state, notificator);
                    if fresh {
                        *pending.borrow_mut() = notificator.pending_len();
                    }
                    *size.borrow_mut() = state.len();
                    out
                },
            );
            (control_input, bid_input)
        });
        for auction in 0..40u64 {
            input.send((auction, 10));
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        let pending = *pending_out.borrow();
        let size = *size_out.borrow();
        (pending, size)
    });
    assert_eq!(pending_after_bids, 41, "40 close reminders and one expiry");
    assert_eq!(final_state, 0, "the one expiry must drop every auction of the bin");
}

/// Drives the real Q5 stage-2 fold through `stateful_unary`, injecting a
/// straggler count *after* the window's report fired — what a migrated slide
/// reminder clamped past its scheduled time produces. The window must report
/// exactly once (the straggler is absorbed by the tombstone, not allowed to
/// resurrect the window), and the tombstone itself must expire.
#[test]
fn q5_hot_window_never_reports_twice() {
    let rows = timelite::execute_single(move |worker| {
        let collected_in = Rc::new(RefCell::new(Vec::new()));
        let collected_out = collected_in.clone();
        let (mut control, mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (count_input, counts) = scope.new_input::<(u64, (u64, u64))>();
            let hot = stateful_unary::<_, (u64, (u64, u64)), q5::HotWindows, String, _, _>(
                MegaphoneConfig::new(4),
                &control,
                &counts,
                "Q5-Hot-Probe",
                |record| timelite::hashing::hash_code(&record.0),
                q5::hot_fold,
            );
            let collected = collected_in.clone();
            hot.stream.inspect(move |_t, row| collected.borrow_mut().push(row.clone()));
            (control_input, count_input, hot.probe)
        });

        // Two counts for window 1 at the window's report time.
        let report_time = 4_000u64;
        input.advance_to(report_time);
        control.advance_to(report_time);
        input.send((1, (10, 7)));
        input.send((1, (11, 9)));
        // Step past the report (scheduled one tick after the counts): the row
        // for window 1 is emitted. A straggler count then arrives within the
        // tombstone's lifetime (a clamped migrated reminder lands within the
        // lateness bound of its scheduled time) — it must vanish into the
        // tombstone rather than trigger a second report.
        let late = report_time + 100;
        input.advance_to(late);
        control.advance_to(late);
        worker.step_while(|| probe.less_than(&late));
        input.send((1, (12, 50)));
        drop(control);
        drop(input);
        worker.step_until_complete();
        let rows = collected_out.borrow().clone();
        rows
    });
    assert_eq!(
        rows,
        vec!["window=1 hot_auction=11 bids=9".to_string()],
        "a straggler count behind the report must not produce a second row"
    );
}

/// Drives the real Q8 fold through `stateful_binary` with a probe on the bin
/// state: pending windows of never-registering sellers and stale
/// registrations must expire with their tumbling window.
#[test]
fn q8_state_expires_with_its_window() {
    let (peak_state, final_state, outputs) = timelite::execute_single(move |worker| {
        let sizes_in: Rc<RefCell<HashMap<u64, usize>>> = Rc::new(RefCell::new(HashMap::new()));
        let peak_in = Rc::new(RefCell::new(0usize));
        let outputs_in = Rc::new(RefCell::new(Vec::new()));
        let sizes_out = sizes_in.clone();
        let peak_out = peak_in.clone();
        let outputs_out = outputs_in.clone();
        let (mut control, mut persons_in, mut auctions_in, probe) =
            worker.dataflow::<u64, _, _>(|scope| {
                let (control_input, control) = scope.new_input::<ControlInst>();
                let (person_input, persons) = scope.new_input::<Person>();
                let (auction_input, auctions) = scope.new_input::<Auction>();
                let sizes = sizes_in.clone();
                let peak = peak_in.clone();
                let collected = outputs_in.clone();
                let joined = stateful_binary::<_, Person, Auction, q8::Q8State, String, _, _, _>(
                    MegaphoneConfig::new(4),
                    &control,
                    &persons,
                    &auctions,
                    "Q8-Probe",
                    |person| timelite::hashing::hash_code(&person.id),
                    |auction| timelite::hashing::hash_code(&auction.seller),
                    move |time, persons, auctions, state, notificator| {
                        let out = q8::join_fold(time, persons, auctions, state, notificator);
                        let size = state.registrations() + state.waiting_windows();
                        let mut sizes = sizes.borrow_mut();
                        sizes.insert(notificator.bin() as u64, size);
                        let total: usize = sizes.values().sum();
                        let mut peak = peak.borrow_mut();
                        *peak = (*peak).max(total);
                        out
                    },
                );
                joined
                    .stream
                    .inspect(move |_t, row| collected.borrow_mut().push(row.clone()));
                (control_input, person_input, auction_input, joined.probe)
            });

        // Window 0: seller 1 auctions but never registers; seller 2 registers
        // but never auctions; seller 3 does both (the only output).
        persons_in.send(person(2, "silent", 10));
        persons_in.send(person(3, "seller", 20));
        auctions_in.send(auction(1, 30));
        auctions_in.send(auction(3, 40));
        // Keep the dataflow live well past the end of window 0 so the expiry
        // reminders come due.
        for window in 1..4u64 {
            let at = window * Q8_WINDOW_MS;
            persons_in.advance_to(at);
            auctions_in.advance_to(at);
            control.advance_to(at);
            worker.step_while(|| probe.less_than(&at));
        }
        drop(control);
        drop(persons_in);
        drop(auctions_in);
        worker.step_until_complete();
        let peak = *peak_out.borrow();
        let final_size: usize = sizes_out.borrow().values().sum();
        let rows = outputs_out.borrow().clone();
        (peak, final_size, rows)
    });

    assert_eq!(outputs, ["new_seller=seller window=0"]);
    assert!(peak_state >= 3, "the probe never observed the three sellers' state");
    assert_eq!(
        final_state, 0,
        "registrations and pending windows must expire with their tumbling window"
    );
}

/// One step of a scripted Q8 run: worker 0 sends, every worker advances.
#[derive(Clone)]
enum Q8Step {
    Register(Person),
    Open(Auction),
    /// Re-assigns the bins at the current time.
    Migrate(Vec<usize>),
    /// Moves every input to this time and runs until the output has caught up.
    AdvanceTo(u64),
}

/// What one worker's probe around [`q8::join_fold`] saw.
#[derive(Clone, Debug, Default)]
struct Q8Probe {
    /// Expiry sweeps delivered to a fold on this worker.
    sweeps: usize,
    /// The pending records of the bin after the last fold that got real events.
    pending_after_events: usize,
    /// Registrations plus waiting windows per bin, as of the bin's last fold here.
    entries: HashMap<usize, usize>,
    rows: Vec<String>,
}

/// Runs `script` through the real Q8 fold on `workers` workers with
/// `2^bin_shift` bins (bin 0 starts on worker 0) and drains.
fn run_q8_script(workers: usize, bin_shift: u32, script: Vec<Q8Step>) -> Vec<Q8Probe> {
    timelite::execute(timelite::Config::process(workers), move |worker| {
        let probe_in = Rc::new(RefCell::new(Q8Probe::default()));
        let probe_out = probe_in.clone();
        let (mut control, mut persons_in, mut auctions_in, frontier) =
            worker.dataflow::<u64, _, _>(|scope| {
                let (control_input, control) = scope.new_input::<ControlInst>();
                let (person_input, persons) = scope.new_input::<Person>();
                let (auction_input, auctions) = scope.new_input::<Auction>();
                let (seen, collected) = (probe_in.clone(), probe_in.clone());
                let joined = stateful_binary::<_, Person, Auction, q8::Q8State, String, _, _, _>(
                    MegaphoneConfig::new(bin_shift),
                    &control,
                    &persons,
                    &auctions,
                    "Q8-Script",
                    |person| timelite::hashing::hash_code(&person.id),
                    |auction| timelite::hashing::hash_code(&auction.seller),
                    move |time, persons, auctions, state, notificator| {
                        let sweeps = persons.iter().filter(|p| p.date_time == u64::MAX).count();
                        let events = persons.len() - sweeps + auctions.len();
                        let out = q8::join_fold(time, persons, auctions, state, notificator);
                        let mut seen = seen.borrow_mut();
                        seen.sweeps += sweeps;
                        if events > 0 {
                            seen.pending_after_events = notificator.pending_len();
                        }
                        let entries = state.registrations() + state.waiting_windows();
                        seen.entries.insert(notificator.bin(), entries);
                        out
                    },
                );
                joined.stream.inspect(move |_t, row| collected.borrow_mut().rows.push(row.clone()));
                (control_input, person_input, auction_input, joined.probe)
            });
        for step in &script {
            match step {
                Q8Step::Register(person) if worker.index() == 0 => persons_in.send(person.clone()),
                Q8Step::Open(auction) if worker.index() == 0 => auctions_in.send(auction.clone()),
                Q8Step::Migrate(map) if worker.index() == 0 => {
                    control.send(ControlInst::Map(map.clone()))
                }
                Q8Step::AdvanceTo(at) => {
                    persons_in.advance_to(*at);
                    auctions_in.advance_to(*at);
                    control.advance_to(*at);
                    worker.step_while(|| frontier.less_than(at));
                }
                _ => {}
            }
        }
        drop(control);
        drop(persons_in);
        drop(auctions_in);
        worker.step_until_complete();
        let probe = probe_out.borrow().clone();
        probe
    })
}

/// Expiry is one sweep per `(bin, window)`, not one reminder per seller: forty
/// sellers registering in one window of one bin leave a single record pending,
/// and its delivery empties the bin.
#[test]
fn q8_expiry_is_one_reminder_per_bin_and_window() {
    let mut script: Vec<Q8Step> =
        (0..40).map(|id| Q8Step::Register(person(id, "seller", 10 + id))).collect();
    // A seller who only ever auctions waits in the same window's sweep.
    script.push(Q8Step::Open(auction(99, 50)));
    let probes = run_q8_script(1, 0, script);
    assert_eq!(probes[0].pending_after_events, 1, "one sweep for the window, not one per seller");
    assert_eq!(probes[0].sweeps, 1);
    assert_eq!(probes[0].entries[&0], 0, "the one sweep must drop every seller of the bin");
    assert!(probes[0].rows.is_empty());
}

/// A seller who registers again in a later window is kept by the earlier
/// window's sweep (which finds the newer registration), still joins there,
/// and goes with the later window's.
#[test]
fn q8_reregistration_survives_the_earlier_windows_sweep() {
    let first_sweep = Q8_WINDOW_MS + Q8_LATENESS_MS;
    let probes = run_q8_script(
        1,
        0,
        vec![
            Q8Step::Register(person(7, "first", 10)),
            Q8Step::Register(person(8, "gone", 20)),
            Q8Step::AdvanceTo(Q8_WINDOW_MS + 5),
            Q8Step::Register(person(7, "again", Q8_WINDOW_MS + 5)),
            // Past window 0's sweep: seller 8 is gone, seller 7 is not.
            Q8Step::AdvanceTo(first_sweep + 1),
            Q8Step::Open(auction(7, Q8_WINDOW_MS + 100)),
            Q8Step::Open(auction(8, Q8_WINDOW_MS + 100)),
            Q8Step::Open(auction(7, 30)),
        ],
    );
    assert_eq!(probes[0].rows, ["new_seller=again window=1"]);
    assert_eq!(probes[0].sweeps, 2, "one sweep per window");
    assert_eq!(probes[0].entries[&0], 0);
}

/// A migration that lands between a registration and its sweep carries both:
/// the registrations join on the new owner, and the sweep fires exactly once,
/// there.
#[test]
fn q8_sweep_fires_once_on_the_new_owner_after_a_migration() {
    let mut script: Vec<Q8Step> =
        (0..5).map(|id| Q8Step::Register(person(id, "mover", 10))).collect();
    script.extend([
        Q8Step::AdvanceTo(1_000),
        Q8Step::Migrate(vec![1]),
        Q8Step::AdvanceTo(2_000),
        Q8Step::Open(auction(3, 1_500)),
        Q8Step::AdvanceTo(3_000),
    ]);
    let probes = run_q8_script(2, 0, script);
    assert_eq!(probes[1].rows, ["new_seller=mover window=0"], "joined on the new owner");
    assert!(probes[0].rows.is_empty());
    assert_eq!((probes[0].sweeps, probes[1].sweeps), (0, 1), "once, on the new owner");
    assert_eq!(probes[0].entries[&0], 5, "the old owner last saw the five registrations");
    assert_eq!(probes[1].entries[&0], 0, "the sweep emptied the migrated bin");
}

/// Runs Q8 over the events of one hand-built scenario, each `(event, at)`
/// delivered at processing time `at`, and returns the output rows.
fn run_q8_events(events: Vec<(Event, u64)>) -> Vec<String> {
    timelite::execute_single(move |worker| {
        let collected_in = Rc::new(RefCell::new(Vec::new()));
        let collected_out = collected_in.clone();
        let (mut control, mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (event_input, stream) = scope.new_input::<Event>();
            let output = build_query("q8", MegaphoneConfig::new(4), &control, &stream);
            let collected = collected_in.clone();
            output.stream.inspect(move |_t, row| collected.borrow_mut().push(row.clone()));
            (control_input, event_input, output.probe)
        });
        let mut at = 0u64;
        for (event, deliver_at) in &events {
            if *deliver_at > at {
                at = *deliver_at;
                input.advance_to(at);
                control.advance_to(at);
                worker.step_while(|| probe.less_than(&at));
            }
            input.send(event.clone());
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        let rows = collected_out.borrow().clone();
        rows
    })
}

/// An auction whose event time lies in the seller's registration window but
/// which *arrives* after the window's end — within the allowed lateness —
/// must still join. (Regression: expiry used to fire at the window's end in
/// arrival time, dropping the registration before the late auction landed.)
#[test]
fn q8_joins_late_auctions_within_the_allowed_lateness() {
    let events = vec![
        // Registration early in window 0.
        (Event::Person(person(3, "late-seller", 20)), 0),
        // The auction's event time is inside window 0, but it is delivered
        // after the window closed, within the lateness allowance.
        (Event::Auction(auction(3, Q8_WINDOW_MS - 1_000)), Q8_WINDOW_MS + Q8_LATENESS_MS / 2),
    ];
    assert_eq!(run_q8_events(events), ["new_seller=late-seller window=0"]);
}

/// The mirrored arrival order: the auction (of window 0) arrives first, the
/// registration is delivered late, within the allowed lateness. The pending
/// auction window must survive until the registration lands.
#[test]
fn q8_joins_late_registrations_within_the_allowed_lateness() {
    let events = vec![
        (Event::Auction(auction(4, Q8_WINDOW_MS - 500)), 0),
        (
            Event::Person(person(4, "late-reg", Q8_WINDOW_MS - 900)),
            Q8_WINDOW_MS + Q8_LATENESS_MS / 2,
        ),
    ];
    assert_eq!(run_q8_events(events), ["new_seller=late-reg window=0"]);
}

/// Runs `query` (megaphone or native) over `events_total` generated events,
/// replayed through the workload engine with out-of-order lag `lag_ms`
/// (0 = in-order), and returns the sorted rows.
fn run_query_replay(query: &'static str, native: bool, lag_ms: u64) -> Vec<String> {
    let events_total: u64 = 20_000;
    let outputs = timelite::execute(timelite::Config::process(2), move |worker| {
        let index = worker.index();
        let peers = worker.peers();
        let (mut control, mut input, probe, collected) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (event_input, events) = scope.new_input::<Event>();
            let collected = Rc::new(RefCell::new(Vec::new()));
            let collected_inner = collected.clone();
            let output = if native {
                build_native_query(query, &events)
            } else {
                build_query(query, MegaphoneConfig::new(4), &control, &events)
            };
            output.stream.inspect(move |_t, row| collected_inner.borrow_mut().push(row.clone()));
            (control_input, event_input, output.probe, collected)
        });

        let workload = Workload {
            out_of_order: (lag_ms > 0).then_some(OutOfOrder { lag_ms }),
            ..Workload::default()
        };
        let mut generator =
            WorkloadGenerator::new(NexmarkConfig::with_rate(10_000).with_workload(workload));
        let epoch_ms = 100u64;
        let events_per_epoch = 10_000 * epoch_ms / 1_000;
        let epochs = events_total / events_per_epoch;
        for epoch in 0..epochs {
            let start = epoch * events_per_epoch;
            for position in start..start + events_per_epoch {
                if position % peers as u64 == index as u64 {
                    input.send(generator.event_at(position));
                }
            }
            let next = (epoch + 1) * epoch_ms;
            control.advance_to(next + epoch_ms);
            input.advance_to(next);
            worker.step_while(|| probe.less_than(&next));
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        let rows = collected.borrow().clone();
        rows
    });
    let mut rows: Vec<String> = outputs.into_iter().flatten().collect();
    rows.sort();
    rows
}

/// The pinned Q8 out-of-order property: a bounded out-of-order replay produces
/// exactly the in-order rows, and the megaphone implementation agrees with the
/// (order-insensitive, never-expiring) native oracle under the same replay.
#[test]
fn q8_out_of_order_replay_matches_in_order_and_native() {
    let in_order = run_query_replay("q8", false, 0);
    let replayed = run_query_replay("q8", false, 1_000);
    let native_replayed = run_query_replay("q8", true, 1_000);
    assert!(!in_order.is_empty(), "the generated stream must produce Q8 joins");
    assert_eq!(replayed, in_order, "out-of-order replay changed Q8's results");
    assert_eq!(replayed, native_replayed, "megaphone and native Q8 diverged under replay");
}

/// The mirrored Q5 out-of-order property: with the slide reminders granted
/// `Q5_LATENESS_MS` of allowed lateness, a bounded out-of-order replay (lag
/// within that bound) counts every bid in every window containing its slide,
/// so the replay reproduces the in-order rows exactly — and the megaphone
/// implementation agrees with the native one under the same replay.
#[test]
fn q5_out_of_order_replay_matches_in_order_and_native() {
    let in_order = run_query_replay("q5", false, 0);
    let replayed = run_query_replay("q5", false, 1_000);
    let native_replayed = run_query_replay("q5", true, 1_000);
    assert!(!in_order.is_empty(), "the generated stream must produce Q5 windows");
    assert_eq!(replayed, in_order, "out-of-order replay changed Q5's results");
    assert_eq!(replayed, native_replayed, "megaphone and native Q5 diverged under replay");
}

/// Runs `query` over a *long* stream — 20k events at 80 events/s span 250 s
/// of event time, more than four of Q8's 60 s windows — on two workers.
/// Optionally replays it out of order (`lag_ms`) and migrates every bin to
/// the other worker halfway through; returns the sorted rows.
fn run_query_multi_window(
    query: &'static str,
    native: bool,
    lag_ms: u64,
    migrate: bool,
) -> Vec<String> {
    let rate: u64 = 80;
    let events_total: u64 = 20_000;
    let outputs = timelite::execute(timelite::Config::process(2), move |worker| {
        let index = worker.index();
        let peers = worker.peers();
        let mega_config = MegaphoneConfig::new(4);
        let (mut control, mut input, probe, collected) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (event_input, events) = scope.new_input::<Event>();
            let collected = Rc::new(RefCell::new(Vec::new()));
            let collected_inner = collected.clone();
            let output = if native {
                build_native_query(query, &events)
            } else {
                build_query(query, mega_config, &control, &events)
            };
            output.stream.inspect(move |_t, row| collected_inner.borrow_mut().push(row.clone()));
            (control_input, event_input, output.probe, collected)
        });

        let workload = Workload {
            out_of_order: (lag_ms > 0).then_some(OutOfOrder { lag_ms }),
            ..Workload::default()
        };
        let mut generator =
            WorkloadGenerator::new(NexmarkConfig::with_rate(rate).with_workload(workload));
        let epoch_ms = 1_000u64;
        let events_per_epoch = rate * epoch_ms / 1_000;
        let epochs = events_total / events_per_epoch;
        for epoch in 0..epochs {
            let start = epoch * events_per_epoch;
            for position in start..start + events_per_epoch {
                if position % peers as u64 == index as u64 {
                    input.send(generator.event_at(position));
                }
            }
            if migrate && index == 0 && epoch == epochs / 2 {
                // Mid-stream migration with windows open on both sides of the
                // move: every bin changes workers while slides, counts and
                // join registrations are in flight.
                let map = (0..mega_config.bins()).map(|bin| (bin + 1) % peers).collect();
                control.send(ControlInst::Map(map));
            }
            let next = (epoch + 1) * epoch_ms;
            control.advance_to(next + epoch_ms);
            input.advance_to(next);
            worker.step_while(|| probe.less_than(&next));
        }
        drop(control);
        drop(input);
        worker.step_until_complete();
        let rows = collected.borrow().clone();
        rows
    });
    let mut rows: Vec<String> = outputs.into_iter().flatten().collect();
    rows.sort();
    rows
}

/// Distinct `window=N` labels among `rows`.
fn distinct_windows(rows: &[String]) -> usize {
    let windows: std::collections::HashSet<&str> = rows
        .iter()
        .filter_map(|row| row.split("window=").nth(1))
        .map(|rest| rest.split_whitespace().next().unwrap_or(rest))
        .collect();
    windows.len()
}

/// The pinned multi-window property (PR 4 debt): over a stream spanning four
/// or more windows, an out-of-order replay with a mid-stream migration of
/// every bin still produces exactly the in-order, unmigrated rows — windows
/// keep closing correctly long after the move — and the megaphone
/// implementation agrees with the native oracle.
#[test]
fn q5_multi_window_migration_under_replay_matches_in_order() {
    let in_order = run_query_multi_window("q5", false, 0, false);
    let migrated = run_query_multi_window("q5", false, 1_000, true);
    let native = run_query_multi_window("q5", true, 0, false);
    assert!(
        distinct_windows(&in_order) >= 4,
        "the stream must span at least four Q5 windows, got {}",
        distinct_windows(&in_order)
    );
    assert_eq!(migrated, in_order, "migration + replay changed Q5's multi-window results");
    assert_eq!(in_order, native, "megaphone and native Q5 diverged over the long stream");
}

/// The Q8 half of the multi-window pin: four or more 60 s windows, a
/// mid-stream migration and a bounded out-of-order replay, byte-identical to
/// the in-order unmigrated run and to the native oracle.
#[test]
fn q8_multi_window_migration_under_replay_matches_in_order() {
    let in_order = run_query_multi_window("q8", false, 0, false);
    let migrated = run_query_multi_window("q8", false, 1_000, true);
    let native = run_query_multi_window("q8", true, 0, false);
    assert!(
        distinct_windows(&in_order) >= 4,
        "the stream must span at least four Q8 windows, got {}",
        distinct_windows(&in_order)
    );
    assert_eq!(migrated, in_order, "migration + replay changed Q8's multi-window results");
    assert_eq!(in_order, native, "megaphone and native Q8 diverged over the long stream");
}
