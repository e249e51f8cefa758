//! Turns worker 0's raw measurements into the named metrics.

use megaphone::prelude::MigrationStrategy;
use megaphone::StorageStats;

use crate::driver::{Measured, Migration, Schedule};
use crate::spec::*;
use crate::stats::{median, ms, quantile};
use crate::trace::{Name, Tracer};

/// One reported number. `n` is the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
    Metric { name, unit, value, n }
}

/// Open-loop latencies and the windows they are grouped into.
struct Latencies<'a> {
    measured: &'a Measured,
    schedule: &'a Schedule,
}

impl Latencies<'_> {
    /// When open-loop tick `i` (0-based) was due.
    fn due(&self, i: usize) -> u64 {
        self.measured.anchor + (i as u64 + 1) * TICK_NANOS
    }

    fn latency(&self, i: usize) -> u64 {
        self.measured.done_at[i].saturating_sub(self.due(i))
    }

    /// Sorted latencies of the steady window (warm-up discarded).
    fn steady(&self) -> Vec<u64> {
        let mut all: Vec<u64> =
            (STEADY_DISCARD_TICKS as usize..self.schedule.steady_ticks as usize).map(|i| self.latency(i)).collect();
        all.sort_unstable();
        all
    }

    /// Median latency of one second of the steady window, `from` ticks in.
    fn steady_second_p50(&self, from: usize) -> f64 {
        let mut second: Vec<u64> = (from..from + 1_000).map(|i| self.latency(i)).collect();
        second.sort_unstable();
        quantile(&second, 0.5)
    }

    /// Median latency of the first and of the last second of the steady window.
    fn steady_first_last_p50(&self) -> (f64, f64) {
        let first = STEADY_DISCARD_TICKS as usize;
        let last = (self.schedule.steady_ticks as usize).saturating_sub(1_000).max(first);
        (self.steady_second_p50(first), self.steady_second_p50(last))
    }

    /// How late each steady-window tick was emitted, sorted.
    fn lateness(&self) -> Vec<u64> {
        let mut all: Vec<u64> = (STEADY_DISCARD_TICKS as usize..self.schedule.steady_ticks as usize)
            .map(|i| self.measured.sent_at[i].saturating_sub(self.due(i)))
            .collect();
        all.sort_unstable();
        all
    }

    /// Latencies of the ticks that were in the system during `migration`: due
    /// before it ended and completed after it started.
    fn during(&self, migration: &Migration) -> Vec<u64> {
        let first = (migration.start.saturating_sub(self.measured.anchor) / TICK_NANOS) as usize;
        (first.saturating_sub(2_000)..self.measured.done_at.len())
            .take_while(|&i| self.due(i) <= migration.end)
            .filter(|&i| self.measured.done_at[i] >= migration.start)
            .map(|i| self.latency(i))
            .collect()
    }
}

/// Per-strategy summary of the measured migrations of one phase. Index 0 of
/// each pair holds the outbound migrations (balanced to imbalanced), index 1
/// the way back: the two directions load the workers differently, so they are
/// kept apart and a metric is the mean of the two directions' medians.
pub struct MigrationSummary {
    pub count: usize,
    /// Pooled latencies, sorted.
    pub pooled: Vec<u64>,
    /// Per-migration p90, maximum and duration, in nanoseconds.
    pub p90s: [Vec<f64>; 2],
    pub peaks: [Vec<f64>; 2],
    pub durations: [Vec<f64>; 2],
}

/// The mean of the two directions' medians.
pub fn typical(by_direction: &[Vec<f64>; 2]) -> f64 {
    (median(&by_direction[0]) + median(&by_direction[1])) / 2.0
}

fn summarize(latencies: &Latencies, migrations: &[Migration], strategy: MigrationStrategy) -> MigrationSummary {
    let mut summary = MigrationSummary {
        count: 0,
        pooled: Vec::new(),
        p90s: Default::default(),
        peaks: Default::default(),
        durations: Default::default(),
    };
    for migration in migrations.iter().filter(|migration| migration.strategy == strategy && !migration.warmup) {
        let mut during = latencies.during(migration);
        during.sort_unstable();
        let way = usize::from(!migration.outbound);
        summary.count += 1;
        summary.p90s[way].push(quantile(&during, 0.9));
        summary.peaks[way].push(quantile(&during, 1.0));
        summary.durations[way].push((migration.end - migration.start) as f64);
        summary.pooled.extend(during);
    }
    summary.pooled.sort_unstable();
    summary
}

/// The p90 of the untraced (or traced) capacity slices, records per second.
/// The first quarter of the phase is warm-up: state that grows with the
/// stream (NEXMark) has not reached its steady size before.
pub fn capacity(slices: &[(bool, f64)], traced: bool) -> (f64, usize) {
    let warm = &slices[slices.len() / 4..];
    let mut rates: Vec<f64> = warm.iter().filter(|slice| slice.0 == traced).map(|slice| slice.1).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are never NaN"));
    if rates.is_empty() {
        return (0.0, 0);
    }
    let rank = ((rates.len() as f64 * 0.9).ceil() as usize).clamp(1, rates.len());
    (rates[rank - 1], rates.len())
}

/// Everything derived from one run's raw measurements, computed once.
pub struct Analysis<'a> {
    measured: &'a Measured,
    schedule: &'a Schedule,
    /// Sorted steady-window latencies and generator lateness.
    steady: Vec<u64>,
    late: Vec<u64>,
    /// Median latency of the steady window's first and last second.
    first_last_p50: (f64, f64),
    pub fluid: MigrationSummary,
    pub allatonce: MigrationSummary,
    /// Open-loop ticks slower than the failure limit.
    pub failed: u64,
}

impl<'a> Analysis<'a> {
    pub fn new(measured: &'a Measured, schedule: &'a Schedule) -> Self {
        let latencies = Latencies { measured, schedule };
        Analysis {
            measured,
            schedule,
            steady: latencies.steady(),
            late: latencies.lateness(),
            first_last_p50: latencies.steady_first_last_p50(),
            fluid: summarize(&latencies, &measured.migrations, MigrationStrategy::Fluid),
            allatonce: summarize(&latencies, &measured.migrations, MigrationStrategy::AllAtOnce),
            failed: (0..measured.done_at.len()).filter(|&i| latencies.latency(i) > FAILED_LATENCY_NANOS).count() as u64,
        }
    }

    /// Run health: numbers from a run whose generator could not keep its
    /// schedule, whose backlog grew, or that measured no migration in some
    /// direction describe the driver and not the system, so such a run is
    /// refused.
    pub fn check_health(&self, workload: &str) -> Result<(), String> {
        // The 90th percentile and not the 99th: the load is generated in the
        // worker's own loop, so one long `Worker::step` (Q5 closes a slide once
        // a second, and the box stalls a thread for milliseconds now and then)
        // makes a percent of the ticks late without the generator falling behind.
        let late_p90 = quantile(&self.late, 0.9);
        let steady_p50 = quantile(&self.steady, 0.5);
        if late_p90 > steady_p50 {
            return Err(format!(
                "{workload}: GENERATOR-BOUND (late p90 {:.3} ms above steady p50 {:.3} ms)",
                ms(late_p90),
                ms(steady_p50)
            ));
        }
        let (first, last) = self.first_last_p50;
        if last > 2.0 * first {
            return Err(format!(
                "{workload}: OVERLOADED (steady p50 grew from {:.3} ms in the first second to {:.3} ms in the last)",
                ms(first),
                ms(last)
            ));
        }
        for (name, summary) in [("fluid", &self.fluid), ("all-at-once", &self.allatonce)] {
            if summary.durations.iter().any(Vec::is_empty) {
                return Err(format!("{workload}: NO-MIGRATIONS (no measured {name} migration in one direction)"));
            }
        }
        Ok(())
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self, setup_samples: &[f64], steady_rss_kb: u64) -> Vec<Metric> {
        let Analysis { measured, steady, fluid, allatonce, .. } = self;
        let (capacity_eps, slices) = capacity(&measured.capacity_slices, false);
        vec![
            metric("setup_s", "s", median(setup_samples), setup_samples.len()),
            metric("capacity_eps", "1/s", capacity_eps, slices),
            metric("steady_p50_ms", "ms", ms(quantile(steady, 0.5)), steady.len()),
            metric("steady_p90_ms", "ms", ms(quantile(steady, 0.9)), steady.len()),
            metric("mig_fluid_p90_ms", "ms", ms(typical(&fluid.p90s)), fluid.count),
            metric("mig_fluid_duration_s", "s", typical(&fluid.durations) / 1e9, fluid.count),
            metric("mig_allatonce_peak_ms", "ms", ms(typical(&allatonce.peaks)), allatonce.count),
            metric("peak_rss_mb", "MB", steady_rss_kb as f64 / 1024.0, 1),
        ]
    }

    /// The in-situ per-layer metrics of a traced run.
    pub fn per_layer(
        &self,
        tracer: &Tracer,
        tracked_bytes: u64,
        run_rss_kb: u64,
        storage: Option<StorageStats>,
    ) -> Vec<Metric> {
        let Analysis { measured, schedule, steady, late, fluid, allatonce, .. } = self;

        // Shares of worker 0's wall time over the steady window, by self time.
        let from = measured.anchor + (STEADY_DISCARD_TICKS + 1) * TICK_NANOS;
        let to = measured.anchor + (schedule.steady_ticks + 1) * TICK_NANOS;
        let self_times = tracer.self_times(from, to);
        let wall = (to - from) as f64;
        let share = |name: Name| self_times[name as usize] as f64 / wall;
        let iterations = tracer
            .spans()
            .iter()
            .filter(|span| span.name == Name::Loop && span.start >= from && span.start < to)
            .count();
        let driver_share = share(Name::Loop) + share(Name::Probe) + share(Name::Controller);

        let mut steady_steps: Vec<u64> = Vec::new();
        let mut active_steps = 0usize;
        let mut longest_step = 0u64;
        for span in tracer.spans().iter().filter(|span| span.name == Name::Step) {
            if span.start >= measured.anchor {
                longest_step = longest_step.max(span.end - span.start);
            }
            if span.start >= from && span.start < to {
                steady_steps.push(span.end - span.start);
                active_steps += usize::from(span.arg == 1);
            }
        }
        steady_steps.sort_unstable();
        let steady_ticks = (schedule.steady_ticks - STEADY_DISCARD_TICKS) as f64;

        let (untraced, _) = capacity(&measured.capacity_slices, false);
        let (traced, traced_slices) = capacity(&measured.capacity_slices, true);
        let overhead = if untraced > 0.0 && traced > 0.0 { (1.0 - traced / untraced) * 100.0 } else { 0.0 };

        // Controller: time from one fluid step's issue to the next (the last step
        // of a migration ends at the migration's end).
        let mut step_times: Vec<f64> = Vec::new();
        let mut bins_moved = 0usize;
        let mut landed: Vec<f64> = Vec::new();
        for migration in &measured.migrations {
            bins_moved += migration.bins;
            if migration.bytes_landed > 0 {
                landed.push(migration.bytes_landed as f64);
            }
            if migration.strategy == MigrationStrategy::Fluid {
                let ends = migration.issues.iter().skip(1).chain(std::iter::once(&migration.end));
                step_times.extend(migration.issues.iter().zip(ends).map(|(issue, end)| (end - issue) as f64));
            }
        }
        let steps_issued: usize = measured.migrations.iter().map(|migration| migration.issues.len()).sum();
        let step_max = step_times.iter().copied().fold(0.0, f64::max);
        let storage = storage.unwrap_or_default();
        const MB: f64 = 1024.0 * 1024.0;

        vec![
            metric("trace.generate_frac", "share", share(Name::Generate), iterations),
            metric("trace.send_frac", "share", share(Name::Send), iterations),
            metric("trace.advance_frac", "share", share(Name::Advance), iterations),
            metric("trace.control_frac", "share", share(Name::Control), iterations),
            metric("trace.step_frac", "share", share(Name::Step), iterations),
            metric("trace.idle_frac", "share", share(Name::Idle), iterations),
            metric("trace.driver_frac", "share", driver_share, iterations),
            metric("trace.step_calls_per_epoch", "count", steady_steps.len() as f64 / steady_ticks, steady_steps.len()),
            metric(
                "trace.step_active_frac",
                "share",
                active_steps as f64 / steady_steps.len().max(1) as f64,
                steady_steps.len(),
            ),
            metric("trace.step_p99_us", "us", quantile(&steady_steps, 0.99) / 1e3, steady_steps.len()),
            metric("trace.step_max_us", "us", longest_step as f64 / 1e3, 1),
            metric("trace.overhead_pct", "%", overhead, traced_slices),
            metric("driver.late_p50_ms", "ms", ms(quantile(late, 0.5)), late.len()),
            metric("driver.late_p90_ms", "ms", ms(quantile(late, 0.9)), late.len()),
            metric("driver.late_p99_ms", "ms", ms(quantile(late, 0.99)), late.len()),
            metric("driver.late_max_ms", "ms", ms(quantile(late, 1.0)), late.len()),
            metric("driver.steady_p99_ms", "ms", ms(quantile(steady, 0.99)), steady.len()),
            metric("driver.steady_p999_ms", "ms", ms(quantile(steady, 0.999)), steady.len()),
            metric("driver.steady_max_ms", "ms", ms(quantile(steady, 1.0)), steady.len()),
            metric("driver.mig_fluid_peak_ms", "ms", ms(typical(&fluid.peaks)), fluid.count),
            metric("driver.mig_fluid_pooled_p90_ms", "ms", ms(quantile(&fluid.pooled, 0.9)), fluid.pooled.len()),
            metric("driver.mig_fluid_p99_ms", "ms", ms(quantile(&fluid.pooled, 0.99)), fluid.pooled.len()),
            metric("driver.mig_fluid_max_ms", "ms", ms(quantile(&fluid.pooled, 1.0)), fluid.pooled.len()),
            metric("driver.mig_allatonce_duration_s", "s", typical(&allatonce.durations) / 1e9, allatonce.count),
            metric("driver.run_peak_rss_mb", "MB", run_rss_kb as f64 / 1024.0, 1),
            metric("controller.step_p50_ms", "ms", ms(median(&step_times)), step_times.len()),
            metric("controller.step_max_ms", "ms", ms(step_max), step_times.len()),
            metric("controller.steps_issued", "count", steps_issued as f64, measured.migrations.len()),
            metric("controller.bins_moved", "count", bins_moved as f64, measured.migrations.len()),
            metric("bins.tracked_mb", "MB", tracked_bytes as f64 / MB, 1),
            metric("bins.migrated_mb_per_migration", "MB", median(&landed) / MB, landed.len()),
            metric("storage.wal_mb", "MB", storage.wal_bytes as f64 / MB, 1),
            metric("storage.tables", "count", storage.tables as f64, 1),
            metric("storage.compactions", "count", storage.compactions as f64, 1),
            metric("storage.checkpoints", "count", storage.checkpoints as f64, 1),
            metric(
                "storage.checkpoint_p50_ms",
                "ms",
                ms(median(&measured.checkpoints.iter().map(|nanos| *nanos as f64).collect::<Vec<_>>())),
                measured.checkpoints.len(),
            ),
        ]
    }
}
