//! Standing-query seal latency: one seal's `sync_pipeline` at a day of
//! history and at four days.
//!
//! The workload is a large [`EventCrowd`] — 64 objects sampled every 15
//! minutes over a 2×2 overlay grid, with the event burst every evening
//! — with a mix of subscriptions (global sum, a windowed + thresholded
//! venue count, a regional min). The evaluator keeps no
//! cells: each seal reads its window off the pipeline's cube. So the
//! windowed burst detector's cost follows its 2-hour window, not the
//! history, and its p50 at four days must stay within **1.5×** of its
//! p50 at one day (hard-asserted; why it holds: DESIGN.md §6.5). The
//! whole-history subscriptions answer over all history by definition;
//! the mix is reported, not asserted.
//!
//! Identical answers are asserted first: each subscription's last
//! notification equals `window_value` over a `BTreeMap` copy of the
//! cube's cells its region admits, bit for bit. Reports p50/p99 per
//! history and writes `BENCH_sub.json` (override with `BENCH_SUB_OUT`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use gisolap_datagen::EventCrowd;
use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_shard::GridSpec;
use gisolap_stream::{CellPartial, GroupKey, Measure, StreamConfig, StreamIngest};
use gisolap_sub::{window_value, StandingEvaluator, Subscription};
use gisolap_traj::Record;

const QUERY_REPS: usize = 200;
const DAY_HOURS: usize = 24;

fn area() -> BBox {
    BBox::new(0.0, 0.0, 64.0, 64.0)
}

/// Sits inside the top-right cell of the 2×2 grid.
fn venue() -> BBox {
    BBox::new(36.0, 36.0, 44.0, 44.0)
}

fn grid() -> GridSpec {
    GridSpec::new(area(), 2, 2).unwrap()
}

/// `days` crowd days: 64 objects sampled every 15 minutes, time-sorted
/// so the zero-lateness pipeline seals every hour eagerly.
fn workload(days: usize) -> Vec<Record> {
    let crowd = EventCrowd {
        samples_per_object: 4 * DAY_HOURS * days,
        ..EventCrowd::new(area(), venue(), 64)
    };
    let mut records = crowd.generate(0).records().to_vec();
    records.sort_by_key(|r| (r.t, r.oid));
    records
}

/// The burst detector: a count over the venue's trailing 2 hours.
fn burst_detector() -> Subscription {
    Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count)
        .in_region(venue())
        .over_hours(2)
        .with_threshold(16.0, 4.0)
}

/// The subscription mix: global sum, burst detector over the venue,
/// regional min over the quiet corner.
fn mix() -> Vec<Subscription> {
    vec![
        Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum),
        burst_detector(),
        Subscription::new(TimeLevel::Hour, Measure::Y, AggFn::Min)
            .in_region(BBox::new(0.0, 0.0, 8.0, 8.0)),
    ]
}

/// A sealed pipeline over `records`.
fn sealed(records: &[Record]) -> StreamIngest {
    let mut pipeline = StreamIngest::new(StreamConfig::new(0, 3600).unwrap())
        .unwrap()
        .with_resolver(grid().resolver());
    pipeline.ingest(records);
    pipeline.finish();
    pipeline
}

/// One history: the fully sealed pipeline, and the same pipeline
/// without its final hour.
struct History {
    records: usize,
    full: StreamIngest,
    prefix: StreamIngest,
}

impl History {
    fn new(days: usize) -> History {
        let records = workload(days);
        let last_hour = records.last().expect("records").t.0.div_euclid(3600);
        let cut = records.partition_point(|r| r.t.0.div_euclid(3600) < last_hour);
        History {
            records: records.len(),
            full: sealed(&records),
            prefix: sealed(&records[..cut]),
        }
    }

    /// An evaluator with `subs` registered and synced through every seal
    /// but the final one: the state the instant before that seal.
    fn evaluator(&self, subs: &[Subscription]) -> StandingEvaluator {
        let mut evaluator = StandingEvaluator::new(Some(grid()));
        for sub in subs {
            evaluator.register(sub.clone()).expect("register");
        }
        evaluator.sync_pipeline(&self.prefix);
        evaluator
    }

    /// Sorted nanoseconds of one seal's `sync_pipeline`, over fresh
    /// evaluators (each built outside the timed region).
    fn seal_latencies(&self, subs: &[Subscription]) -> Vec<u64> {
        let mut lat = Vec::with_capacity(QUERY_REPS);
        for _ in 0..QUERY_REPS {
            let mut evaluator = self.evaluator(subs);
            let t0 = Instant::now();
            let evaluated = evaluator.sync_pipeline(&self.full);
            lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            assert_eq!(black_box(evaluated), 1, "exactly the final seal");
        }
        lat.sort_unstable();
        lat
    }
}

/// The cube's cells `sub`'s region admits, copied into a `BTreeMap`.
fn reference(pipeline: &StreamIngest, sub: &Subscription) -> BTreeMap<GroupKey, CellPartial> {
    let filter: Option<BTreeSet<u32>> = sub
        .region
        .map(|r| grid().cells_intersecting(&r).into_iter().collect());
    pipeline
        .cube()
        .cells()
        .filter(|(k, _)| match (&filter, k.1) {
            (None, _) => true,
            (Some(f), Some(geo)) => f.contains(&geo),
            (Some(_), None) => false,
        })
        .map(|(k, c)| (*k, *c))
        .collect()
}

/// Each subscription's last notification after the final seal equals
/// `window_value` over the `BTreeMap` reference, bit for bit.
fn assert_identical(history: &History) {
    let subs = mix();
    let mut evaluator = history.evaluator(&subs);
    let since = evaluator.notifications_since(0).1;
    evaluator.sync_pipeline(&history.full);
    let (items, _) = evaluator.notifications_since(since);
    let registry = evaluator.registry();
    assert_eq!(
        items.len(),
        subs.len(),
        "the final seal touches every subscription"
    );
    for n in &items {
        let sub = registry.get(n.sub).expect("registered");
        let (rows, value) = window_value(sub, &reference(&history.full, sub));
        let bits = |rows: &[gisolap_stream::RollupRow]| -> Vec<(i64, Option<u32>, u64)> {
            rows.iter()
                .map(|r| (r.granule, r.geo, r.value.to_bits()))
                .collect()
        };
        assert_eq!(bits(&n.rows), bits(&rows), "rows diverged for {sub:?}");
        assert_eq!(
            n.value.map(f64::to_bits),
            value.map(f64::to_bits),
            "value diverged for {sub:?}"
        );
    }
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    let idx = (sorted.len().saturating_sub(1) * pct) / 100;
    sorted[idx]
}

/// Catch-up: a fresh burst-detector evaluator syncs all 96 sealed hours.
fn bench_catch_up(c: &mut Criterion) {
    let history = History::new(4);
    let mut group = c.benchmark_group("sub_latency");
    group.throughput(Throughput::Elements(1));
    group.bench_function("burst_detector_catch_up_96h", |b| {
        b.iter(|| {
            let mut evaluator = StandingEvaluator::new(Some(grid()));
            evaluator.register(burst_detector()).expect("register");
            black_box(evaluator.sync_pipeline(black_box(&history.full)))
        })
    });
    group.finish();
}

fn emit_artifact() {
    let (day, four_days) = (History::new(1), History::new(4));
    assert_identical(&day);
    assert_identical(&four_days);

    let burst = [burst_detector()];
    let (burst_day, burst_four) = (day.seal_latencies(&burst), four_days.seal_latencies(&burst));
    let (mix_day, mix_four) = (day.seal_latencies(&mix()), four_days.seal_latencies(&mix()));
    let p = |v: &[u64], pct| percentile(v, pct);
    let burst_growth = p(&burst_four, 50) as f64 / p(&burst_day, 50).max(1) as f64;
    let mix_growth = p(&mix_four, 50) as f64 / p(&mix_day, 50).max(1) as f64;
    eprintln!(
        "sub_latency: records {} / {} | burst p50={:.2}us / {:.2}us ({burst_growth:.2}x) | \
         mix p50={:.2}us / {:.2}us ({mix_growth:.2}x)",
        day.records,
        four_days.records,
        p(&burst_day, 50) as f64 / 1e3,
        p(&burst_four, 50) as f64 / 1e3,
        p(&mix_day, 50) as f64 / 1e3,
        p(&mix_four, 50) as f64 / 1e3,
    );
    // The bar: a windowed subscription's seal cost follows its window,
    // not the history behind it.
    assert!(
        burst_growth <= 1.5,
        "burst detector p50 grew {burst_growth:.2}x from 24 to 96 hours of history (bar 1.5x)"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sub_latency\",\n",
            "  \"records_24h\": {},\n",
            "  \"records_96h\": {},\n",
            "  \"query_reps\": {},\n",
            "  \"burst_p50_ns_24h\": {},\n",
            "  \"burst_p99_ns_24h\": {},\n",
            "  \"burst_p50_ns_96h\": {},\n",
            "  \"burst_p99_ns_96h\": {},\n",
            "  \"mix_p50_ns_24h\": {},\n",
            "  \"mix_p99_ns_24h\": {},\n",
            "  \"mix_p50_ns_96h\": {},\n",
            "  \"mix_p99_ns_96h\": {},\n",
            "  \"burst_growth_p50\": {:.2},\n",
            "  \"mix_growth_p50\": {:.2}\n",
            "}}\n"
        ),
        day.records,
        four_days.records,
        QUERY_REPS,
        p(&burst_day, 50),
        p(&burst_day, 99),
        p(&burst_four, 50),
        p(&burst_four, 99),
        p(&mix_day, 50),
        p(&mix_day, 99),
        p(&mix_four, 50),
        p(&mix_four, 99),
        burst_growth,
        mix_growth,
    );
    let out = std::env::var("BENCH_SUB_OUT").unwrap_or_else(|_| "BENCH_sub.json".to_string());
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("sub_latency: could not write {out}: {e}");
    } else {
        eprintln!("sub_latency: wrote {out}");
    }
}

fn bench_all(c: &mut Criterion) {
    bench_catch_up(c);
    emit_artifact();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_all
}
criterion_main!(benches);
