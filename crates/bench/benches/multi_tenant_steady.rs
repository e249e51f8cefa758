//! Multi-tenant steady state: per-step cost when one dataflow is active and
//! many others are built but idle.
//!
//! A shared worker hosting N tenant dataflows must not pay O(N) per scheduling
//! step when only one tenant has work: under demand-driven activation the idle
//! tenants' step is a handful of flag checks, so `active_step/{1,8,32}` stay
//! within a small factor of each other (the acceptance bar is 32 tenants at
//! most 2x the single-tenant per-step cost, versus ~32x under
//! schedule-everything). `idle_step` measures the floor — a step in which *no*
//! dataflow has any reason to run, the cost an idle worker pays per wakeup
//! before parking.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use timelite::communication::allocate;
use timelite::prelude::*;

/// Idle dataflows built alongside the active one.
const TENANTS: &[usize] = &[1, 8, 32];
/// Records pushed into the active tenant per measured step.
const RECORDS_PER_STEP: u64 = 100;

/// A worker hosting `tenants` identical dataflows (input → exchange → probe),
/// with every input handle kept open so the idle tenants stay incomplete.
struct MultiTenant {
    worker: Worker,
    inputs: Vec<InputHandle<u64, u64>>,
    probes: Vec<ProbeHandle<u64>>,
    epoch: u64,
}

impl MultiTenant {
    fn new(tenants: usize) -> Self {
        let mut allocs = allocate(1);
        let mut worker = Worker::new(allocs.pop().expect("one allocator"));
        let mut inputs = Vec::with_capacity(tenants);
        let mut probes = Vec::with_capacity(tenants);
        for _ in 0..tenants {
            let (input, probe) = worker.dataflow::<u64, _, _>(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                let probe = stream.exchange(|x| *x).map(|x| x.wrapping_mul(3)).probe();
                (input, probe)
            });
            inputs.push(input);
            probes.push(probe);
        }
        // Settle construction-time activity so measured steps see only the
        // per-iteration work.
        while worker.step() {}
        MultiTenant { worker, inputs, probes, epoch: 0 }
    }

    /// One steady-state round on tenant 0: push a batch, close the epoch, and
    /// step until the probe reports it complete.
    fn active_round(&mut self) {
        let input = &mut self.inputs[0];
        for value in 0..RECORDS_PER_STEP {
            input.send(self.epoch * RECORDS_PER_STEP + value);
        }
        self.epoch += 1;
        input.advance_to(self.epoch);
        let probe = &self.probes[0];
        let epoch = self.epoch;
        self.worker.step_while(|| probe.less_than(&epoch));
        while self.worker.step() {}
    }
}

fn bench_multi_tenant(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_tenant_steady");

    // Per-step cost of one active tenant among N built dataflows: the numbers
    // across N are the headline — they must stay nearly flat.
    for &tenants in TENANTS {
        group.bench_with_input(
            BenchmarkId::new("active_step", tenants),
            &tenants,
            |b, &tenants| {
                let mut state = MultiTenant::new(tenants);
                b.iter(|| {
                    state.active_round();
                    black_box(state.epoch)
                });
            },
        );
    }

    // The idle floor: a step in which no tenant has work. This is the cost an
    // idle worker pays per spurious wakeup, and what the park
    // avoids burning a core on.
    group.bench_function("idle_step/32", |b| {
        let mut state = MultiTenant::new(32);
        b.iter(|| black_box(state.worker.step()));
    });

    group.finish();
}

criterion_group!(benches, bench_multi_tenant);
criterion_main!(benches);
