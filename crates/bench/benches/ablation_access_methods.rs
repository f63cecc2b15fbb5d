//! Ablation — access methods behind the engines.
//!
//! DESIGN.md calls out two design choices worth isolating:
//!
//! 1. point-stab candidate lookup: layer scan vs uniform grid vs BVH;
//! 2. engine setup: what each strategy precomputes before its first
//!    query — nothing, layer BVHs + MOFT index, or the full layer overlay
//!    + MOFT index (the per-query side is covered by E5/E7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gisolap_bench::scenario;
use gisolap_core::engine::{IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine};
use gisolap_geom::{BBox, Point};
use gisolap_index::{Bvh, GridIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_boxes(n: usize, seed: u64) -> Vec<(BBox, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n as u32)
        .map(|i| {
            let x = rng.gen_range(0.0..1000.0);
            let y = rng.gen_range(0.0..1000.0);
            let w = rng.gen_range(1.0..20.0);
            let h = rng.gen_range(1.0..20.0);
            (BBox::new(x, y, x + w, y + h), i)
        })
        .collect()
}

fn bench_point_stab(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_point_stab");
    for n in [256usize, 1024, 4096] {
        let items = random_boxes(n, 5);
        let bvh = Bvh::build(items.clone());
        let mut grid = GridIndex::new(BBox::new(0.0, 0.0, 1020.0, 1020.0), 32, 32);
        for (b, id) in &items {
            grid.insert(b, *id);
        }
        let probes: Vec<Point> = (0..64)
            .map(|k| Point::new((k * 16) as f64 % 1000.0, (k * 37) as f64 % 1000.0))
            .collect();

        group.bench_with_input(BenchmarkId::new("scan", n), &items, |b, items| {
            b.iter(|| {
                probes
                    .iter()
                    .map(|&p| items.iter().filter(|(bb, _)| bb.contains(p)).count())
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("grid", n), &grid, |b, grid| {
            b.iter(|| {
                probes
                    .iter()
                    .map(|&p| grid.candidates_at(black_box(p)).len())
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("bvh", n), &bvh, |b, bvh| {
            b.iter(|| {
                probes
                    .iter()
                    .map(|&p| bvh.search(&BBox::from_point(black_box(p))).len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_engine_construction(c: &mut Criterion) {
    // The fixed costs each strategy pays before its first query.
    let s = scenario(8, 4, 100, 10);
    let mut group = c.benchmark_group("ablation_engine_setup");
    group.bench_function("naive", |b| {
        b.iter(|| NaiveEngine::new(black_box(&s.gis), &s.moft).name())
    });
    group.bench_function("indexed", |b| {
        b.iter(|| IndexedEngine::new(black_box(&s.gis), &s.moft).name())
    });
    group.bench_function("overlay", |b| {
        b.iter(|| OverlayEngine::new(black_box(&s.gis), &s.moft).name())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_point_stab, bench_engine_construction
}
criterion_main!(benches);
