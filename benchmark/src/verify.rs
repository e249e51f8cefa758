//! Output verification: a lock-step run (no wall clock) of a fixed prefix with
//! one fluid migration in the middle, checked against a reference.
//!
//! Key-count: the operator emits the running count after every update, so with
//! per-key totals `c` the outputs must number `sum(c)` and add up to
//! `sum(c * (c + 1) / 2)` — state lost or duplicated by the migration changes
//! the sum. NEXMark: the rows must match `build_native_query` on one worker,
//! compared by count and an order-independent digest.

use megaphone::prelude::*;
use timelite::prelude::*;

use crate::spec::*;
use crate::workloads::{KeyCount, Nexmark, Source, Workload};

/// What one lock-step run produced, summed over this process's workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub inputs: u64,
    pub outputs: u64,
    pub digest: u64,
    /// Worker 0 only: the mid-stream migration ran to completion.
    pub migrated: bool,
}

impl Totals {
    pub fn add(&mut self, other: Totals) {
        self.inputs += other.inputs;
        self.outputs += other.outputs;
        self.digest = self.digest.wrapping_add(other.digest);
        self.migrated |= other.migrated;
    }
}

/// Ticks per lock-step epoch, and epochs per verification run.
#[derive(Clone, Copy, Debug)]
pub struct Prefix {
    pub ticks_per_epoch: u64,
    pub epochs: u64,
}

/// Runs `workload` in lock step under `config`, its bins on `storage`, and
/// returns the local totals. The migration starts a quarter of the way in;
/// three quarters in every worker checkpoints its store, so that a durable
/// store is verified through install, log and checkpoint alike.
pub fn lockstep<W: Workload>(
    workload: W,
    config: Config,
    storage: StorageConfig,
    seed: u64,
    bins: usize,
    prefix: Prefix,
    native: bool,
) -> Totals {
    let durable = matches!(storage, StorageConfig::Durable(_));
    let reports = timelite::execute(config, move |worker| {
        set_worker_storage(storage.clone());
        let (index, peers) = (worker.index(), worker.peers());
        let (mut control, mut input, built) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<W::Rec>();
            let built = workload.build(&control, &data, native);
            (control_input, data_input, built)
        });
        let mut source = workload.source(index, peers, seed);
        let mut controller = None;
        let mut batch = Vec::new();
        let mut totals = Totals::default();
        let k = prefix.ticks_per_epoch;
        for epoch in 0..prefix.epochs {
            if index == 0 && !native {
                if epoch == prefix.epochs / 4 {
                    let plan = plan_migration(
                        MigrationStrategy::Fluid,
                        &balanced_assignment(bins, peers),
                        &imbalanced_assignment(bins, peers),
                    );
                    controller = Some(MigrationController::<u64>::new(plan, false));
                }
                if let Some(controller) = controller.as_mut() {
                    controller.advance(&built.probe, &mut control);
                }
            }
            if epoch == prefix.epochs * 3 / 4 {
                for store in &built.storage {
                    assert_eq!(store.stats().is_some(), durable, "the bins are not on the storage asked for");
                    store.checkpoint().expect("checkpoint of a quiet store");
                }
            }
            for tick in epoch * k..(epoch + 1) * k {
                source.tick(tick, &mut batch);
            }
            totals.inputs += batch.len() as u64;
            input.send_batch(&mut batch);
            control.advance_to((epoch + 1) * k + 1);
            input.advance_to((epoch + 1) * k);
            worker.step_while(|| built.probe.less_than(&((epoch + 1) * k)));
        }
        totals.migrated = controller.is_some_and(|controller| controller.is_complete());
        drop(control);
        drop(input);
        worker.step_until_complete();
        totals.outputs = built.tally.outputs.get();
        totals.digest = built.tally.digest.get();
        totals
    });
    let mut totals = Totals::default();
    for report in reports {
        totals.add(report);
    }
    totals
}

/// The verification variant of a key-count workload and its prefix.
pub fn keycount_case(spec: &Spec) -> (KeyCount, Prefix) {
    let workload = KeyCount {
        dense: spec.kind == Kind::KeyCountDense,
        bin_shift: spec.bin_shift,
        domain: VERIFY_DOMAIN,
        per_tick: 1_000,
    };
    (workload, Prefix { ticks_per_epoch: 5, epochs: spec.verify_records / 5_000 })
}

/// The verification variant of a NEXMark workload and its prefix.
pub fn nexmark_case(spec: &Spec, query: &'static str) -> (Nexmark, Prefix) {
    let per_tick = VERIFY_NEXMARK_RATE / 1_000;
    let workload = Nexmark { query, bin_shift: spec.bin_shift, per_tick, closed_ticks: 20, preload_epochs: 0 };
    (workload, Prefix { ticks_per_epoch: 20, epochs: spec.verify_records / (per_tick * 20) })
}

/// What the key-count run over `prefix` must produce.
pub fn keycount_expected(workload: KeyCount, seed: u64, prefix: Prefix) -> Totals {
    let mut counts = vec![0u64; workload.domain as usize];
    let mut expected = Totals { migrated: true, ..Totals::default() };
    let mut batch = Vec::new();
    for index in 0..WORKERS {
        let mut source = workload.source(index, WORKERS, seed);
        for tick in 0..prefix.epochs * prefix.ticks_per_epoch {
            source.tick(tick, &mut batch);
        }
    }
    for key in batch {
        counts[key as usize] += 1;
        expected.inputs += 1;
        expected.outputs += 1;
        expected.digest = expected.digest.wrapping_add(counts[key as usize]);
    }
    expected
}

/// What the NEXMark run over `prefix` must produce: the native query's rows on
/// a single worker (the single-threaded baseline).
pub fn nexmark_expected(workload: Nexmark, seed: u64, prefix: Prefix) -> Totals {
    let mut expected = lockstep(workload, Config::thread(), StorageConfig::InMemory, seed, 1, prefix, true);
    expected.migrated = true;
    expected
}

/// Compares a run with its reference; `Err` names the first difference.
pub fn compare(got: Totals, expected: Totals) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("verification failed: got {got:?}, expected {expected:?}"))
    }
}
