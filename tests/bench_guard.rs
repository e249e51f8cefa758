//! Exercises `scripts/bench-compare.sh`, the CI regression gate over the
//! per-commit bench CSVs: within-threshold drift passes, a >2x regression of a
//! tracked hot path fails, and untracked benchmarks are ignored.

use std::io::Write;
use std::process::Command;

fn write_csv(dir: &std::path::Path, name: &str, rows: &[(&str, f64)]) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut file = std::fs::File::create(&path).expect("create fixture csv");
    writeln!(file, "commit,benchmark,mean_ns_per_iter,iterations").unwrap();
    for (bench, mean) in rows {
        writeln!(file, "deadbeef,{bench},{mean:.3},1000").unwrap();
    }
    path
}

fn run_compare(previous: &std::path::Path, current: &std::path::Path) -> (bool, String) {
    let script = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/bench-compare.sh");
    let output = Command::new("bash")
        .arg(&script)
        .arg(previous)
        .arg(current)
        .output()
        .expect("run bench-compare.sh");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    (output.status.success(), text)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-guard-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn within_threshold_drift_passes() {
    let dir = temp_dir("pass");
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[("routing_lookup/0", 100.0), ("key_to_bin/12", 10.0), ("bin_encode/1000", 5000.0)],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("routing_lookup/0", 180.0), ("key_to_bin/12", 9.0), ("bin_encode/1000", 9000.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(ok, "sub-2x drift must pass, got:\n{text}");
    assert!(text.contains("ok routing_lookup/0"), "unexpected output:\n{text}");
}

#[test]
fn large_regression_of_tracked_path_fails() {
    let dir = temp_dir("fail");
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[("exchange_throughput/4", 1000.0), ("key_to_bin/12", 10.0)],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("exchange_throughput/4", 2500.0), ("key_to_bin/12", 10.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(!ok, "a 2.5x regression must fail the gate, got:\n{text}");
    assert!(text.contains("REGRESSION exchange_throughput/4"), "unexpected output:\n{text}");
}

#[test]
fn untracked_benchmarks_do_not_gate() {
    let dir = temp_dir("untracked");
    // `plan_migration` regresses 10x but is not in the tracked set.
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[("plan_migration/fluid", 100.0), ("bin_encode/1000", 100.0)],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("plan_migration/fluid", 1000.0), ("bin_encode/1000", 110.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(ok, "untracked benchmarks must not fail the gate, got:\n{text}");
    assert!(!text.contains("plan_migration"), "untracked bench leaked into output:\n{text}");
}

#[test]
fn skew_reaction_is_in_the_tracked_set() {
    // The closed-loop reaction benches joined the guarded hot paths: a large
    // regression of the controller's observe→plan step must fail the gate.
    let dir = temp_dir("skew");
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[("skew_reaction/observe_plan/256", 5_000.0), ("skew_reaction/zipf_event", 50.0)],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("skew_reaction/observe_plan/256", 15_000.0), ("skew_reaction/zipf_event", 55.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(!ok, "a 3x observe_plan regression must fail the gate, got:\n{text}");
    assert!(text.contains("REGRESSION skew_reaction/observe_plan/256"), "output:\n{text}");
    assert!(text.contains("ok skew_reaction/zipf_event"), "output:\n{text}");
}

#[test]
fn durable_migration_is_in_the_tracked_set() {
    // The WAL-backed install path joined the guarded hot paths: a large
    // regression of the durable migration bench must fail the gate.
    let dir = temp_dir("durable");
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[("bin_migrate_large_durable/install/100KB", 200_000.0), ("key_to_bin/12", 10.0)],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("bin_migrate_large_durable/install/100KB", 600_000.0), ("key_to_bin/12", 10.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(!ok, "a 3x durable install regression must fail the gate, got:\n{text}");
    assert!(
        text.contains("REGRESSION bin_migrate_large_durable/install/100KB"),
        "output:\n{text}"
    );
}

#[test]
fn flat_bin_migration_is_in_the_tracked_set() {
    // The layer proof of the flat state layout joined the guarded hot paths:
    // a Q8 bin (1 300 sellers in a `FlatTable`) extracts and installs in about
    // the time of a `Vec<u64>` bin of equal bytes. A return of per-entry work
    // on either side (the map layout took 176 µs for these sellers) must fail
    // the gate while the vector twin beside it stays put.
    let dir = temp_dir("flat");
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[("bin_migrate_large/q8_shape/flat", 6_300.0), ("bin_migrate_large/q8_shape/vec", 4_400.0)],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("bin_migrate_large/q8_shape/flat", 176_000.0), ("bin_migrate_large/q8_shape/vec", 4_500.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(!ok, "a 28x flat-bin regression must fail the gate, got:\n{text}");
    assert!(text.contains("REGRESSION bin_migrate_large/q8_shape/flat"), "output:\n{text}");
    assert!(text.contains("ok bin_migrate_large/q8_shape/vec"), "output:\n{text}");
}

#[test]
fn saturation_is_in_the_tracked_set() {
    // The open-loop saturation bench joined the guarded hot paths: its mean
    // iteration time is pinned at the schedule's epoch length while the data
    // plane sustains the offered load, so a mean far above that floor means
    // the fabric can no longer keep up and must fail the gate.
    let dir = temp_dir("saturation");
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[("saturation/openloop_1m", 1_000_000.0), ("key_to_bin/12", 10.0)],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("saturation/openloop_1m", 3_000_000.0), ("key_to_bin/12", 10.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(!ok, "a 3x saturation regression must fail the gate, got:\n{text}");
    assert!(text.contains("REGRESSION saturation/openloop_1m"), "output:\n{text}");
}

#[test]
fn multi_tenant_steady_is_in_the_tracked_set() {
    // The demand-driven scheduler's headline bench joined the guarded hot
    // paths: a large regression of the per-step cost with many idle tenant
    // dataflows (a return toward schedule-everything O(N) stepping) must fail
    // the gate.
    let dir = temp_dir("tenants");
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[("multi_tenant_steady/active_step/32", 1_500.0), ("key_to_bin/12", 10.0)],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("multi_tenant_steady/active_step/32", 4_500.0), ("key_to_bin/12", 10.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(!ok, "a 3x multi-tenant step regression must fail the gate, got:\n{text}");
    assert!(text.contains("REGRESSION multi_tenant_steady/active_step/32"), "output:\n{text}");
}

#[test]
fn stateful_overhead_is_in_the_tracked_set() {
    // The F→S record path's end-to-end cost joined the guarded hot paths: a
    // return of the fold-per-(batch, bin) path more than doubles
    // `stateful_unary`'s run while the plain `exchange` + `unary` twin stays
    // put, and must fail the gate. So must a return of the fold that scans a
    // bin's pending reminders on every call: `stateful_unary_timers` (2 k
    // resident far-future reminders per bin) ran 13 ms without it, 99 ms with.
    // `two_worker_fold_overlap` is one epoch's round trip with a 100 µs fold a
    // worker: 0.14 ms with the folds side by side and each reply waited for
    // on the mailbox (0.30 ms when a reply waited out the loop's 50 µs sleep).
    // Taking turns again costs one more fold (that order is pinned exactly by
    // `timelite/tests/progress.rs`); the gate is for anything worse.
    let dir = temp_dir("overhead");
    let previous = write_csv(
        &dir,
        "prev.csv",
        &[
            ("stateful_overhead/stateful_unary", 9_000_000.0),
            ("stateful_overhead/stateful_unary_timers", 13_000_000.0),
            ("stateful_overhead/exchange_unary", 2_600_000.0),
            ("stateful_overhead/two_worker_fold_overlap", 300_000.0),
        ],
    );
    let current = write_csv(
        &dir,
        "curr.csv",
        &[
            ("stateful_overhead/stateful_unary", 21_000_000.0),
            ("stateful_overhead/stateful_unary_timers", 99_000_000.0),
            ("stateful_overhead/exchange_unary", 2_700_000.0),
            ("stateful_overhead/two_worker_fold_overlap", 700_000.0),
        ],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(!ok, "a 2.3x stateful_unary regression must fail the gate, got:\n{text}");
    assert!(text.contains("REGRESSION stateful_overhead/stateful_unary:"), "output:\n{text}");
    assert!(
        text.contains("REGRESSION stateful_overhead/stateful_unary_timers:"),
        "output:\n{text}"
    );
    assert!(
        text.contains("REGRESSION stateful_overhead/two_worker_fold_overlap:"),
        "output:\n{text}"
    );
    assert!(text.contains("ok stateful_overhead/exchange_unary"), "output:\n{text}");
}

#[test]
fn missing_previous_csv_is_a_logged_skip_not_a_silent_pass() {
    // First run of the gate: no previous CSV exists at all. The script must
    // say "no baseline" and skip cleanly instead of erroring on the absent
    // file (or pretending a comparison happened).
    let dir = temp_dir("missing-prev");
    let previous = dir.join("does-not-exist.csv");
    let current = write_csv(&dir, "curr.csv", &[("key_to_bin/12", 10.0)]);
    let (ok, text) = run_compare(&previous, &current);
    assert!(ok, "a missing baseline must skip, not fail, got:\n{text}");
    assert!(text.contains("no baseline"), "the skip must be logged explicitly:\n{text}");
    assert!(text.contains("missing"), "the log must name the cause:\n{text}");
    assert!(!text.contains("ok key_to_bin"), "nothing must be 'compared' without a baseline:\n{text}");
}

#[test]
fn header_only_previous_csv_is_a_logged_skip_not_a_silent_pass() {
    // A previous CSV that exists but carries no data rows (e.g. a truncated
    // artifact) is equally baseline-less: log and skip, don't silently pass.
    let dir = temp_dir("empty-prev");
    let previous = write_csv(&dir, "prev.csv", &[]);
    let current = write_csv(&dir, "curr.csv", &[("key_to_bin/12", 10.0)]);
    let (ok, text) = run_compare(&previous, &current);
    assert!(ok, "an empty baseline must skip, not fail, got:\n{text}");
    assert!(text.contains("no baseline"), "the skip must be logged explicitly:\n{text}");
    assert!(text.contains("no data rows"), "the log must name the cause:\n{text}");
}

#[test]
fn new_benchmark_without_baseline_passes() {
    let dir = temp_dir("new");
    let previous = write_csv(&dir, "prev.csv", &[("key_to_bin/12", 10.0)]);
    let current = write_csv(
        &dir,
        "curr.csv",
        &[("key_to_bin/12", 11.0), ("bin_encode/1000", 5000.0)],
    );
    let (ok, text) = run_compare(&previous, &current);
    assert!(ok, "a benchmark with no baseline cannot regress, got:\n{text}");
    assert!(text.contains("no baseline"), "unexpected output:\n{text}");
}
