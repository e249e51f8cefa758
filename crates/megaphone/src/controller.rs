//! Driving migrations against a live dataflow.
//!
//! Megaphone itself only consumes configuration updates from its control input;
//! *who* produces them is left to an external controller (DS2, Chi, or — as
//! here — the measurement harness). [`MigrationController`] issues the steps of
//! a [`MigrationPlan`] one at a time, waiting for the previous step to complete
//! (observed through the operator's output probe) before issuing the next, and
//! optionally leaving a draining gap between steps so that enqueued records are
//! processed before the next migration begins (Section 4.4).

use std::collections::VecDeque;

use timelite::dataflow::{InputHandle, ProbeHandle};
use timelite::order::Timestamp;

use crate::bins::{BinId, BinStats};
use crate::control::ControlInst;
use crate::strategies::{plan_rebalance, MigrationPlan, MigrationStrategy};

/// The status of a controller after a call to [`MigrationController::advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerStatus {
    /// No migration is in progress and none remains to be issued.
    Idle,
    /// A migration step was issued during this call.
    Issued,
    /// A previously issued step has not completed yet.
    Waiting,
    /// The previous step completed; the controller is draining before the next.
    Draining,
}

/// Issues the steps of a migration plan against a control input, one at a time.
pub struct MigrationController<T: Timestamp> {
    steps: VecDeque<Vec<(BinId, usize)>>,
    /// The time at which the currently outstanding step was issued.
    outstanding: Option<T>,
    /// Whether to leave one round of draining between completed and next step.
    gap: bool,
    draining: bool,
    issued_steps: usize,
}

impl<T: Timestamp> MigrationController<T> {
    /// Creates a controller for `plan`.
    ///
    /// With `gap` set, the controller waits one extra call between the
    /// completion of a step and the issue of the next, allowing the system to
    /// drain enqueued records (reducing the maximum latency from two migration
    /// durations to one, per Section 4.4).
    pub fn new(plan: MigrationPlan, gap: bool) -> Self {
        MigrationController {
            steps: plan.steps.into(),
            outstanding: None,
            gap,
            draining: false,
            issued_steps: 0,
        }
    }

    /// Creates a controller that rebalances observed load: consumes a (merged)
    /// [`BinStats`] snapshot, plans a load-aware target assignment with
    /// [`crate::strategies::load_balanced_assignment`] and reveals it under
    /// `strategy`. Returns the controller together with the target assignment,
    /// which becomes the caller's "current" once the controller completes.
    ///
    /// This closes the loop the paper leaves to external controllers (DS2,
    /// Chi): the store's own load accounting drives the migration decision.
    pub fn rebalance(
        strategy: MigrationStrategy,
        current: &[usize],
        stats: &BinStats,
        peers: usize,
        gap: bool,
    ) -> (Self, Vec<usize>) {
        let (plan, target) = plan_rebalance(strategy, current, stats, peers);
        (MigrationController::new(plan, gap), target)
    }

    /// Returns `true` iff every step has been issued and completed.
    pub fn is_complete(&self) -> bool {
        self.steps.is_empty() && self.outstanding.is_none()
    }

    /// The number of steps issued so far.
    pub fn issued_steps(&self) -> usize {
        self.issued_steps
    }

    /// The number of steps not yet issued.
    pub fn remaining_steps(&self) -> usize {
        self.steps.len()
    }

    /// Advances the controller: issues the next step at the control input's
    /// current epoch if the previous step has completed.
    ///
    /// `probe` must observe the output of the operator being migrated. The
    /// caller is responsible for advancing (and eventually closing) the control
    /// input; the controller only sends records at its current epoch.
    pub fn advance(
        &mut self,
        probe: &ProbeHandle<T>,
        control: &mut InputHandle<T, ControlInst>,
    ) -> ControllerStatus {
        // Check whether the outstanding step has completed: the output frontier
        // has moved strictly beyond the step's time.
        if let Some(time) = &self.outstanding {
            if probe.less_equal(time) {
                return ControllerStatus::Waiting;
            }
            self.outstanding = None;
            if self.gap && !self.steps.is_empty() {
                self.draining = true;
                return ControllerStatus::Draining;
            }
        }
        if self.draining {
            self.draining = false;
            return ControllerStatus::Draining;
        }
        if let Some(step) = self.steps.pop_front() {
            let time = control.time().clone();
            for (bin, worker) in step {
                control.send(ControlInst::Move(bin, worker));
            }
            control.flush();
            self.outstanding = Some(time);
            self.issued_steps += 1;
            ControllerStatus::Issued
        } else {
            ControllerStatus::Idle
        }
    }
}

/// A closed-loop, load-aware rebalancing controller: the feedback system the
/// paper leaves to external controllers (DS2, Chi), closed over the bin
/// store's own load accounting.
///
/// The driver periodically feeds it merged [`BinStats`] snapshots
/// ([`observe`](Self::observe)); the controller plans on the *delta* since the
/// previous snapshot (so a workload shift registers immediately), and when the
/// max/mean per-worker load ratio exceeds its threshold it computes a
/// [`plan_rebalance`] migration and submits it through the control stream,
/// step by step, via an inner [`MigrationController`]
/// ([`advance`](Self::advance)). While a migration is in flight no new plan is
/// adopted; once it completes, the target assignment becomes current and
/// observation resumes.
pub struct ClosedLoopController<T: Timestamp> {
    strategy: MigrationStrategy,
    peers: usize,
    gap: bool,
    /// Trigger threshold on the max/mean per-worker load-score ratio.
    threshold: f64,
    /// Minimum records in a delta before it is considered signal, not noise.
    min_records: u64,
    current: Vec<usize>,
    target: Option<Vec<usize>>,
    previous: BinStats,
    inner: Option<MigrationController<T>>,
    migrations_started: usize,
    migrations_completed: usize,
    last_imbalance: f64,
    paused: bool,
}

impl<T: Timestamp> ClosedLoopController<T> {
    /// Creates a controller over `initial` (the live bin-to-worker
    /// assignment), triggering whenever an observed delta's max/mean worker
    /// load ratio exceeds `threshold` and covers at least `min_records`
    /// records.
    pub fn new(
        strategy: MigrationStrategy,
        initial: Vec<usize>,
        peers: usize,
        gap: bool,
        threshold: f64,
        min_records: u64,
    ) -> Self {
        assert!(threshold >= 1.0, "an imbalance ratio below 1.0 is unreachable");
        assert!(peers > 0, "at least one worker is required");
        ClosedLoopController {
            strategy,
            peers,
            gap,
            threshold,
            min_records,
            current: initial,
            target: None,
            previous: BinStats::default(),
            inner: None,
            migrations_started: 0,
            migrations_completed: 0,
            last_imbalance: 1.0,
            paused: false,
        }
    }

    /// The assignment the controller believes is live (the last completed
    /// migration's target, or the initial assignment).
    pub fn current_assignment(&self) -> &[usize] {
        &self.current
    }

    /// Returns `true` while a submitted migration has unfinished steps.
    pub fn migration_in_progress(&self) -> bool {
        self.inner.is_some()
    }

    /// The number of migrations the controller has initiated.
    pub fn migrations_started(&self) -> usize {
        self.migrations_started
    }

    /// The number of initiated migrations that have completed.
    pub fn migrations_completed(&self) -> usize {
        self.migrations_completed
    }

    /// The max/mean worker load ratio of the most recent observed delta.
    pub fn last_imbalance(&self) -> f64 {
        self.last_imbalance
    }

    /// Advances the delta baseline without considering a migration: the next
    /// [`observe`](Self::observe) measures load from this snapshot onward.
    /// Drivers use this during warmup so a stream's startup transient never
    /// counts as signal.
    pub fn observe_baseline(&mut self, stats: &BinStats) {
        self.previous = stats.clone();
    }

    /// Pauses or resumes the closed loop. While paused,
    /// [`observe`](Self::observe) keeps the delta baseline moving but never
    /// initiates a migration, so resuming reacts to post-resume load only —
    /// in-flight migrations still run to completion, and operator-submitted
    /// migrations ([`submit_moves`](Self::submit_moves),
    /// [`submit_rebalance`](Self::submit_rebalance)) are unaffected.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Whether the closed loop is currently paused.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Submits an operator-requested migration of explicit `(bin, worker)`
    /// moves as a single all-at-once step. Returns `false` (and adopts
    /// nothing) while another migration is in flight, or if any move is out of
    /// range or a no-op against the current assignment.
    pub fn submit_moves(&mut self, moves: &[(BinId, usize)]) -> bool {
        if self.inner.is_some() || moves.is_empty() {
            return false;
        }
        let mut target = self.current.clone();
        for &(bin, worker) in moves {
            if bin >= target.len() || worker >= self.peers || target[bin] == worker {
                return false;
            }
            target[bin] = worker;
        }
        let plan = MigrationPlan { steps: vec![moves.to_vec()] };
        self.inner = Some(MigrationController::new(plan, self.gap));
        self.target = Some(target);
        self.migrations_started += 1;
        true
    }

    /// Submits an operator-requested rebalance planned over `stats` (use the
    /// cumulative merged snapshot: the operator asked to balance total
    /// observed load, not the last delta), regardless of threshold or pause
    /// state. Returns `false` while another migration is in flight or when the
    /// plan is empty (already balanced).
    pub fn submit_rebalance(&mut self, stats: &BinStats) -> bool {
        if self.inner.is_some() {
            return false;
        }
        let (plan, target) = plan_rebalance(self.strategy, &self.current, stats, self.peers);
        if plan.is_empty() {
            return false;
        }
        self.inner = Some(MigrationController::new(plan, self.gap));
        self.target = Some(target);
        self.migrations_started += 1;
        true
    }

    /// Feeds a merged (cumulative) snapshot of every worker's bin loads.
    /// Returns `true` iff this observation initiated a migration.
    pub fn observe(&mut self, stats: &BinStats) -> bool {
        let delta = stats.delta_since(&self.previous);
        self.previous = stats.clone();
        if self.paused || self.inner.is_some() || delta.total_records() < self.min_records.max(1) {
            return false;
        }
        self.last_imbalance = delta.imbalance(&self.current, self.peers);
        if self.last_imbalance <= self.threshold {
            return false;
        }
        let (plan, target) = plan_rebalance(self.strategy, &self.current, &delta, self.peers);
        if plan.is_empty() {
            return false;
        }
        self.inner = Some(MigrationController::new(plan, self.gap));
        self.target = Some(target);
        self.migrations_started += 1;
        true
    }

    /// Pumps the in-flight migration (if any) against the live dataflow:
    /// issues the next step once the previous one completed, and promotes the
    /// target assignment to current when the plan finishes.
    pub fn advance(
        &mut self,
        probe: &ProbeHandle<T>,
        control: &mut InputHandle<T, ControlInst>,
    ) -> ControllerStatus {
        let Some(inner) = self.inner.as_mut() else {
            return ControllerStatus::Idle;
        };
        let status = inner.advance(probe, control);
        if inner.is_complete() {
            self.current = self.target.take().expect("a migration always has a target");
            self.inner = None;
            self.migrations_completed += 1;
        }
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{plan_migration, MigrationStrategy};

    #[test]
    fn controller_tracks_plan_exhaustion() {
        let plan = plan_migration(MigrationStrategy::Fluid, &[0, 0], &[1, 1]);
        let controller: MigrationController<u64> = MigrationController::new(plan, false);
        assert!(!controller.is_complete());
        assert_eq!(controller.remaining_steps(), 2);
        assert_eq!(controller.issued_steps(), 0);
    }

    #[test]
    fn empty_plan_is_immediately_complete() {
        let plan = MigrationPlan::default();
        let controller: MigrationController<u64> = MigrationController::new(plan, true);
        assert!(controller.is_complete());
    }

    #[test]
    fn rebalance_consumes_observed_bin_stats() {
        use crate::bins::{BinStore, MegaphoneConfig};
        use crate::strategies::balanced_assignment;

        let config = MegaphoneConfig::new(4);
        let peers = 2;
        let mut store0: BinStore<u64, u64, ()> = BinStore::new(&config, 0, peers);
        let mut store1: BinStore<u64, u64, ()> = BinStore::new(&config, 1, peers);
        // Worker 0's bins run hot; worker 1's barely see traffic.
        for (bin, _) in store0.stats().loads().to_vec() {
            store0.note_records(bin, 1_000, 8_000);
        }
        for (bin, _) in store1.stats().loads().to_vec() {
            store1.note_records(bin, 1, 8);
        }
        let mut merged = store0.stats();
        merged.merge(&store1.stats());

        let current = balanced_assignment(config.bins(), peers);
        let (controller, target): (MigrationController<u64>, _) = MigrationController::rebalance(
            MigrationStrategy::Fluid,
            &current,
            &merged,
            peers,
            false,
        );
        assert!(!controller.is_complete(), "skewed stats must produce migration steps");
        assert_ne!(target, current);
        // The hot worker sheds hot bins to the cold one…
        let moved_off_zero = current
            .iter()
            .zip(target.iter())
            .filter(|(&from, &to)| from == 0 && to == 1)
            .count();
        assert!(moved_off_zero > 0);
        // …and the planned assignment balances the observed scores.
        let scores = merged.score_vector(config.bins());
        let mut per_worker = vec![0u64; peers];
        for (bin, &worker) in target.iter().enumerate() {
            per_worker[worker] += scores[bin];
        }
        let spread = per_worker.iter().max().unwrap() - per_worker.iter().min().unwrap();
        let hot_score = *scores.iter().max().unwrap();
        assert!(spread <= hot_score, "score split too uneven: {per_worker:?}");

        // A uniform snapshot plans nothing.
        let mut uniform0: BinStore<u64, u64, ()> = BinStore::new(&config, 0, peers);
        let mut uniform1: BinStore<u64, u64, ()> = BinStore::new(&config, 1, peers);
        for (bin, _) in uniform0.stats().loads().to_vec() {
            uniform0.note_records(bin, 10, 80);
        }
        for (bin, _) in uniform1.stats().loads().to_vec() {
            uniform1.note_records(bin, 10, 80);
        }
        let mut uniform = uniform0.stats();
        uniform.merge(&uniform1.stats());
        let (idle, unchanged): (MigrationController<u64>, _) =
            MigrationController::rebalance(MigrationStrategy::Fluid, &current, &uniform, peers, false);
        assert!(idle.is_complete());
        assert_eq!(unchanged, current);
    }

    /// Builds a merged two-worker snapshot where worker 0's bins carry
    /// `hot` records each and worker 1's carry `cold`.
    fn two_worker_snapshot(config: &crate::bins::MegaphoneConfig, hot: u64, cold: u64) -> BinStats {
        use crate::bins::BinStore;
        let mut store0: BinStore<u64, u64, ()> = BinStore::new(config, 0, 2);
        let mut store1: BinStore<u64, u64, ()> = BinStore::new(config, 1, 2);
        for (bin, _) in store0.stats().loads().to_vec() {
            store0.note_records(bin, hot, hot * 8);
        }
        for (bin, _) in store1.stats().loads().to_vec() {
            store1.note_records(bin, cold, cold * 8);
        }
        let mut merged = store0.stats();
        merged.merge(&store1.stats());
        merged
    }

    #[test]
    fn closed_loop_triggers_on_skew_and_stays_quiet_on_balance() {
        use crate::bins::MegaphoneConfig;
        use crate::strategies::balanced_assignment;

        let config = MegaphoneConfig::new(4);
        let peers = 2;
        let current = balanced_assignment(config.bins(), peers);
        let mut controller: ClosedLoopController<u64> = ClosedLoopController::new(
            MigrationStrategy::AllAtOnce,
            current.clone(),
            peers,
            false,
            1.5,
            10,
        );

        // A balanced delta does not trigger.
        assert!(!controller.observe(&two_worker_snapshot(&config, 100, 100)));
        assert_eq!(controller.migrations_started(), 0);
        assert!((controller.last_imbalance() - 1.0).abs() < 0.05);

        // A skewed delta (on top of the balanced cumulative history) does.
        assert!(controller.observe(&two_worker_snapshot(&config, 1_100, 101)));
        assert!(controller.migration_in_progress());
        assert_eq!(controller.migrations_started(), 1);
        assert!(controller.last_imbalance() > 1.5);

        // While the migration is in flight, further skew is not re-planned.
        assert!(!controller.observe(&two_worker_snapshot(&config, 9_000, 102)));
        assert_eq!(controller.migrations_started(), 1);
    }

    #[test]
    fn closed_loop_ignores_noise_below_min_records() {
        use crate::bins::MegaphoneConfig;
        use crate::strategies::balanced_assignment;

        let config = MegaphoneConfig::new(3);
        let current = balanced_assignment(config.bins(), 2);
        let mut controller: ClosedLoopController<u64> =
            ClosedLoopController::new(MigrationStrategy::Fluid, current, 2, false, 1.2, 1_000);
        // Heavily skewed but tiny: below the record floor, so no reaction.
        assert!(!controller.observe(&two_worker_snapshot(&config, 40, 0)));
        assert_eq!(controller.migrations_started(), 0);
        // Re-observing identical cumulative stats is a zero delta: still quiet.
        assert!(!controller.observe(&two_worker_snapshot(&config, 40, 0)));
        assert_eq!(controller.migrations_started(), 0);
    }

    #[test]
    fn operator_moves_and_rebalance_bypass_threshold_but_not_in_flight_guard() {
        use crate::bins::MegaphoneConfig;
        use crate::strategies::balanced_assignment;

        let config = MegaphoneConfig::new(4);
        let current = balanced_assignment(config.bins(), 2);
        let mut controller: ClosedLoopController<u64> = ClosedLoopController::new(
            MigrationStrategy::AllAtOnce,
            current.clone(),
            2,
            false,
            1_000.0, // a threshold autonomy can never reach
            1,
        );

        // Out-of-range and no-op moves are rejected wholesale.
        assert!(!controller.submit_moves(&[(0, 7)]));
        assert!(!controller.submit_moves(&[(999, 1)]));
        assert!(!controller.submit_moves(&[(0, current[0])]));
        assert!(!controller.migration_in_progress());

        // A valid move starts a migration despite the unreachable threshold.
        let target_worker = 1 - current[3];
        assert!(controller.submit_moves(&[(3, target_worker)]));
        assert!(controller.migration_in_progress());
        assert_eq!(controller.migrations_started(), 1);
        // While in flight, further operator commands are refused.
        assert!(!controller.submit_moves(&[(2, 1 - current[2])]));
        assert!(!controller.submit_rebalance(&two_worker_snapshot(&config, 100, 1)));
        assert_eq!(controller.migrations_started(), 1);
    }

    #[test]
    fn operator_rebalance_plans_over_cumulative_stats() {
        use crate::bins::MegaphoneConfig;
        use crate::strategies::balanced_assignment;

        let config = MegaphoneConfig::new(4);
        let current = balanced_assignment(config.bins(), 2);
        let mut controller: ClosedLoopController<u64> = ClosedLoopController::new(
            MigrationStrategy::AllAtOnce,
            current,
            2,
            false,
            1_000.0,
            1,
        );
        // Balanced load: nothing to do, command refused.
        assert!(!controller.submit_rebalance(&two_worker_snapshot(&config, 100, 100)));
        // Skewed load: the rebalance starts even though the threshold never fired.
        assert!(controller.submit_rebalance(&two_worker_snapshot(&config, 1_000, 1)));
        assert!(controller.migration_in_progress());
    }

    #[test]
    fn paused_closed_loop_observes_without_migrating() {
        use crate::bins::MegaphoneConfig;
        use crate::strategies::balanced_assignment;

        let config = MegaphoneConfig::new(4);
        let current = balanced_assignment(config.bins(), 2);
        let mut controller: ClosedLoopController<u64> =
            ClosedLoopController::new(MigrationStrategy::Fluid, current, 2, false, 1.5, 10);
        controller.set_paused(true);
        assert!(controller.is_paused());
        // Heavy skew while paused: no migration…
        assert!(!controller.observe(&two_worker_snapshot(&config, 10_000, 1)));
        assert_eq!(controller.migrations_started(), 0);
        // …and the baseline kept moving, so resuming sees only *new* load: the
        // identical cumulative snapshot is a zero delta.
        controller.set_paused(false);
        assert!(!controller.observe(&two_worker_snapshot(&config, 10_000, 1)));
        assert_eq!(controller.migrations_started(), 0);
        // Fresh post-resume skew triggers as usual.
        assert!(controller.observe(&two_worker_snapshot(&config, 30_000, 2)));
        assert_eq!(controller.migrations_started(), 1);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn closed_loop_rejects_impossible_thresholds() {
        let _: ClosedLoopController<u64> =
            ClosedLoopController::new(MigrationStrategy::Fluid, vec![0], 1, false, 0.5, 1);
    }
}
