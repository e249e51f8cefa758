//! Criterion benches of the time-versioned routing table: steady-state lookups
//! (empty update set), lookups with retained updates, and compaction.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use megaphone::{ControlInst, RoutingTable};
use timelite::progress::Frontier;

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_lookup");
    for pending in [0usize, 8, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(pending), &pending, |b, &pending| {
            let mut table = RoutingTable::<u64>::new((0..4096).map(|bin| bin % 4).collect());
            for step in 0..pending {
                table.insert(step as u64 + 10, &ControlInst::Move(step % 4096, step % 4));
            }
            let mut bin = 0usize;
            b.iter(|| {
                bin = (bin + 1) % 4096;
                table.lookup(&black_box(1000u64), bin)
            })
        });
    }
    group.finish();
}

fn bench_compact(c: &mut Criterion) {
    c.bench_function("routing_compact_64_updates", |b| {
        b.iter_batched(
            || {
                let mut table = RoutingTable::<u64>::new((0..4096).map(|bin| bin % 4).collect());
                for step in 0..64usize {
                    table.insert(step as u64, &ControlInst::Move(step * 7 % 4096, step % 4));
                }
                table
            },
            |mut table| {
                table.compact(&Frontier::at(1_000));
                table.pending_updates()
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_lookup, bench_compact);
criterion_main!(benches);
