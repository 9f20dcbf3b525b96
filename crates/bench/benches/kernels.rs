//! Criterion micro-benchmarks of the APM kernel library (supporting the
//! design claims of Sections 3–5: columnar layout, hash joins, sort/unique
//! based semi-naive maintenance).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lobster_gpu::{kernels, Device, HashIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn random_columns(rows: usize, key_space: u64, rng: &mut StdRng) -> Vec<Vec<u64>> {
    vec![
        (0..rows).map(|_| rng.gen_range(0..key_space)).collect(),
        (0..rows).map(|_| rng.gen_range(0..key_space)).collect(),
    ]
}

fn bench_hash_join(c: &mut Criterion) {
    let device = Device::default();
    let mut group = c.benchmark_group("hash_join");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    for &rows in &[1_000usize, 10_000, 50_000] {
        let mut rng = StdRng::seed_from_u64(rows as u64);
        let build = random_columns(rows, rows as u64 / 4, &mut rng);
        let probe = random_columns(rows, rows as u64 / 4, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| {
                let index = HashIndex::build(&device, &[&build[0]], 2);
                let counts = kernels::count_matches(&device, &index, &[&probe[0]]);
                let (offsets, total) = kernels::scan(&device, &counts);
                kernels::hash_join(&device, &index, &[&probe[0]], &counts, &offsets, total)
            });
        });
    }
    group.finish();
}

fn bench_sort_unique(c: &mut Criterion) {
    let device = Device::default();
    let mut group = c.benchmark_group("sort_unique");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    for &rows in &[1_000usize, 10_000, 100_000] {
        let mut rng = StdRng::seed_from_u64(rows as u64);
        let cols = random_columns(rows, rows as u64 / 2, &mut rng);
        let tags = vec![(); rows];
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| {
                let refs: Vec<&[u64]> = cols.iter().map(|c| c.as_slice()).collect();
                kernels::sort_unique(&device, &refs, &tags, |_, _| (), &[])
            });
        });
    }
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let device = Device::default();
    let mut group = c.benchmark_group("scan");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    let rows = 100_000usize;
    let mut rng = StdRng::seed_from_u64(1);
    let counts: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..4)).collect();
    group.bench_function("scan_100k", |b| b.iter(|| kernels::scan(&device, &counts)));
    group.finish();
}

criterion_group!(
    kernels_benches,
    bench_hash_join,
    bench_sort_unique,
    bench_scan
);
criterion_main!(kernels_benches);
