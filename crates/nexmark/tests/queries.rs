//! End-to-end tests of the NEXMark queries: every query runs on a generated
//! stream, and the Megaphone implementations agree with the native ones even
//! when a migration happens mid-stream.

use std::cell::RefCell;
use std::rc::Rc;

use megaphone::prelude::*;
use nexmark::{build_native_query, build_query, NexmarkConfig, NexmarkGenerator, QUERIES};
use timelite::prelude::*;

/// Runs `query` over `events_total` generated events on `workers` workers,
/// optionally migrating all bins to worker 0 halfway through, and returns every
/// rendered output row.
fn run_query(query: &'static str, native: bool, workers: usize, migrate: bool) -> Vec<String> {
    let events_total: u64 = 20_000;
    let outputs = timelite::execute(Config::process(workers), move |worker| {
        let index = worker.index();
        let peers = worker.peers();
        let mega_config = MegaphoneConfig::new(4);

        let (mut control, mut input, output, collected) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (event_input, events) = scope.new_input::<nexmark::Event>();
            let collected = Rc::new(RefCell::new(Vec::new()));
            let collected_inner = collected.clone();
            let output = if native {
                build_native_query(query, &events)
            } else {
                build_query(query, mega_config, &control, &events)
            };
            output.stream.inspect(move |_t, row| collected_inner.borrow_mut().push(row.clone()));
            (control_input, event_input, output, collected)
        });

        let generator = NexmarkGenerator::new(NexmarkConfig::with_rate(10_000));
        // Each worker supplies a disjoint slice of the event stream, batched
        // into 100ms epochs of event time.
        let epoch_ms = 100u64;
        let events_per_epoch = 10_000 * epoch_ms / 1_000;
        let epochs = events_total / events_per_epoch;
        for epoch in 0..epochs {
            let start = epoch * events_per_epoch;
            let end = start + events_per_epoch;
            for index_in_epoch in start..end {
                if index_in_epoch % peers as u64 == index as u64 {
                    input.send(generator.event(index_in_epoch));
                }
            }
            if migrate && !native && index == 0 && epoch == epochs / 2 {
                control.send(ControlInst::Map(vec![0; mega_config.bins()]));
            }
            let next = (epoch + 1) * epoch_ms;
            control.advance_to(next + epoch_ms);
            input.advance_to(next);
            worker.step_while(|| output.probe.less_than(&next));
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

#[test]
fn all_queries_produce_output() {
    for query in QUERIES {
        let rows = run_query(query, false, 2, false);
        assert!(!rows.is_empty(), "megaphone {query} produced no output");
        let native_rows = run_query(query, true, 2, false);
        assert!(!native_rows.is_empty(), "native {query} produced no output");
    }
}

#[test]
fn stateless_queries_match_native_exactly() {
    for query in ["q1", "q2"] {
        assert_eq!(run_query(query, false, 2, false), run_query(query, true, 2, false));
    }
}

#[test]
fn q3_megaphone_matches_native() {
    assert_eq!(run_query("q3", false, 2, false), run_query("q3", true, 2, false));
}

#[test]
fn q8_megaphone_matches_native() {
    assert_eq!(run_query("q8", false, 2, false), run_query("q8", true, 2, false));
}

#[test]
fn migration_does_not_change_q3_results() {
    assert_eq!(run_query("q3", false, 2, false), run_query("q3", false, 2, true));
}

/// Q4 and Q6 report *running* aggregates (one row per closed auction); their
/// final operator folds each time's closings in `(key, price)` order, so the
/// rows — intermediate values included — do not depend on arrival order or on
/// who hosts a bin.
#[test]
fn migration_does_not_change_q4_results() {
    assert_eq!(run_query("q4", false, 2, false), run_query("q4", false, 2, true));
}

#[test]
fn migration_does_not_change_q6_results() {
    assert_eq!(run_query("q6", false, 2, false), run_query("q6", false, 2, true));
}

#[test]
fn single_worker_and_multi_worker_agree_for_q7() {
    assert_eq!(run_query("q7", false, 1, false), run_query("q7", false, 4, false));
}
