//! Property tests for the observability layer.
//!
//! Two invariants from DESIGN.md §2.5, checked on random cities, traffic
//! and filters across all three engines:
//!
//! 1. **Counter conservation** — the span tree returned by
//!    [`explain_analyze`] partitions the query's [`StatsSnapshot`] delta:
//!    for every counter, the subtree total (children plus the root's
//!    residual) equals the snapshot difference taken around the query.
//! 2. **Thread-count independence** — the counter delta of a query
//!    (timings zeroed) is identical whether evaluation runs on one
//!    worker or four.
//!
//! Plus a liveness check — every engine counter has a writer some
//! engine reaches — and a docs-coverage check: every counter of every
//! `counters!` family (and every span name) must appear in
//! `OBSERVABILITY.md`.

use gisolap_core::engine::{
    explain, explain_analyze, IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine,
};
use gisolap_core::region::{CmpOp, GeoFilter, RegionC, SpatialPredicate, TimePredicate};
use gisolap_core::stats::StatsSnapshot;
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_obs::CounterSet;
use gisolap_olap::time::{TimeId, TimeOfDay};
use gisolap_olap::value::Value;
use gisolap_stream::{StreamConfig, StreamIngest};
use gisolap_traj::{ObjectId, Record};
use proptest::prelude::*;

fn geo_filter() -> impl Strategy<Value = GeoFilter> {
    prop_oneof![
        Just(GeoFilter::All),
        Just(GeoFilter::IntersectsLayer { layer: "Lr".into() }),
        Just(GeoFilter::ContainsNodeOf {
            layer: "Lstores".into()
        }),
        (900i64..3500).prop_map(|v| GeoFilter::AttrCompare {
            category: "neighborhood".into(),
            attr: "income".into(),
            op: CmpOp::Lt,
            value: Value::Int(v),
        }),
    ]
}

fn time_preds() -> impl Strategy<Value = Vec<TimePredicate>> {
    prop_oneof![
        Just(vec![]),
        Just(vec![TimePredicate::TimeOfDayIs(TimeOfDay::Morning)]),
        (6u32..12).prop_map(|h| vec![TimePredicate::HourOfDayIn { lo: h, hi: h + 2 }]),
    ]
}

fn scenario(seed: u64) -> (CityScenario, gisolap_traj::moft::Moft) {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 4,
        blocks_y: 2,
        schools: 4,
        stores: 6,
        gas_stations: 2,
        seed,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        seed: seed.wrapping_add(5),
        ..RandomWaypoint::new(city.bbox, 10, 15)
    }
    .generate(0);
    (city, moft)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn span_totals_partition_the_stats_delta(
        seed in 0u64..1000,
        filter in geo_filter(),
        time in time_preds(),
        interpolated in proptest::bool::ANY,
    ) {
        let (city, moft) = scenario(seed);
        let mut region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", filter));
        region.time = time;
        if interpolated {
            region = region.interpolated();
        }

        let naive = NaiveEngine::new(&city.gis, &moft);
        let indexed = IndexedEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);
        for engine in [&naive as &dyn QueryEngine, &indexed, &overlay] {
            let ea = explain_analyze(engine, &region).unwrap();
            prop_assert_eq!(ea.delta.queries, 1, "engine {}", engine.name());
            // The span tree partitions the delta: for every counter, the
            // subtree total equals the snapshot difference.
            for (name, expected) in ea.delta.fields() {
                prop_assert_eq!(
                    ea.root.total(name),
                    expected,
                    "counter {} on engine {}",
                    name,
                    engine.name()
                );
            }
            // And the recorded row counts match a direct evaluation.
            let direct = engine.eval(&region).unwrap();
            prop_assert_eq!(ea.rows, direct.len(), "engine {}", engine.name());
        }
    }

    #[test]
    fn counter_deltas_are_thread_count_independent(
        seed in 0u64..1000,
        filter in geo_filter(),
        interpolated in proptest::bool::ANY,
    ) {
        let (city, moft) = scenario(seed.wrapping_add(17));
        let mut region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", filter));
        if interpolated {
            region = region.interpolated();
        }

        let naive = NaiveEngine::new(&city.gis, &moft);
        let indexed = IndexedEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);
        for engine in [&naive as &dyn QueryEngine, &indexed, &overlay] {
            let delta_at = |threads: &str| -> StatsSnapshot {
                std::env::set_var("GISOLAP_THREADS", threads);
                let before = engine.stats().snapshot();
                engine.eval(&region).unwrap();
                let after = engine.stats().snapshot();
                std::env::remove_var("GISOLAP_THREADS");
                after.delta(&before).zero_timings()
            };
            let parallel = delta_at("4");
            let sequential = delta_at("1");
            prop_assert_eq!(
                parallel.fields(),
                sequential.fields(),
                "engine {}",
                engine.name()
            );
        }
    }
}

/// A city's GIS and a stream snapshot of eight movers sampled every
/// minute for 80 minutes: objects 0–3 walk a diagonal inside the city,
/// objects 4–7 one east of it, so the MOFT index has a zone block no
/// `Ln` polygon reaches. Hour 0 is sealed, hour 1 stays in the tail, one
/// late hour-0 record is dead-lettered, and one partial extraction
/// scans the tail.
fn liveness_fixture() -> (CityScenario, gisolap_stream::StreamSnapshot) {
    let (city, _) = scenario(3);
    let b = city.bbox;
    let record = |oid: u64, k: i64| {
        let f = k as f64 / 80.0;
        let x = if oid < 4 {
            b.min_x + f * b.width()
        } else {
            b.max_x + 50.0 + oid as f64
        };
        Record {
            oid: ObjectId(oid),
            t: TimeId(60 * k),
            x,
            y: b.min_y + f * b.height(),
        }
    };
    let records: Vec<Record> = (0..8u64)
        .flat_map(|oid| (0..80).map(move |k| record(oid, k)))
        .collect();
    let (hour0, hour1): (Vec<Record>, Vec<Record>) =
        records.into_iter().partition(|r| r.t.0 < 3600);
    let mut ingest = StreamIngest::new(StreamConfig::new(0, 3600).unwrap()).unwrap();
    ingest.ingest(&hour0);
    ingest.ingest(&hour1);
    let late = ingest.ingest(&[record(0, 1)]);
    assert_eq!(late.late, 1, "the hour-0 straggler is dead-lettered");
    ingest.extract_partials();
    let snapshot = ingest.snapshot().unwrap();
    (city, snapshot)
}

/// Every `StatsSnapshot` counter has a writer some engine reaches: over
/// a fixed set of calls — an interval-tree window, a time-free region,
/// an interpolated region, an `IntersectsLayer` filter, `explain` and
/// `objects_passing_through` — each field is non-zero on at least one of
/// the three engines. A counter nothing increments fails here.
#[test]
fn every_engine_counter_has_a_live_writer() {
    let (city, snapshot) = liveness_fixture();
    let gis = &city.gis;
    let naive = NaiveEngine::new(gis, snapshot.moft());
    let indexed = IndexedEngine::from_snapshot(gis, &snapshot);
    let overlay = OverlayEngine::new(gis, snapshot.moft());
    let all_ln = SpatialPredicate::in_layer("Ln", GeoFilter::All);
    let crossed = RegionC::all().with_spatial(SpatialPredicate::in_layer(
        "Ln",
        GeoFilter::IntersectsLayer { layer: "Lr".into() },
    ));
    let regions = [
        RegionC::all()
            .with_time(TimePredicate::Between(TimeId(600), TimeId(1200)))
            .with_spatial(all_ln.clone()),
        RegionC::all().with_spatial(all_ln.clone()),
        RegionC::all().with_spatial(all_ln.clone()).interpolated(),
        crossed.clone(),
    ];
    let engines = [&naive as &dyn QueryEngine, &indexed, &overlay];
    for engine in engines {
        for region in &regions {
            engine.eval(region).unwrap();
        }
        explain(engine, &crossed).unwrap();
        engine.objects_passing_through(&all_ln, &[]).unwrap();
    }
    let snaps: Vec<StatsSnapshot> = engines.iter().map(|e| e.stats().snapshot()).collect();
    let dead: Vec<&str> = StatsSnapshot::NAMES
        .iter()
        .enumerate()
        .filter(|&(i, _)| snaps.iter().all(|s| s.fields()[i].1 == 0))
        .map(|(_, name)| *name)
        .collect();
    assert!(dead.is_empty(), "counters no engine wrote: {dead:?}");
}

/// `OBSERVABILITY.md` names family `C`'s metric pattern and every one of
/// its exported counters.
fn undocumented<C: CounterSet>(doc: &str) -> Vec<String> {
    let pattern = format!("{}<field>_total", C::PREFIX);
    std::iter::once(pattern.as_str())
        .chain(C::NAMES.iter().copied())
        .filter(|name| !doc.contains(name))
        .map(|name| format!("{}: {name}", std::any::type_name::<C>()))
        .collect()
}

#[test]
fn observability_doc_covers_every_counter_family() {
    let doc = include_str!("../../OBSERVABILITY.md");
    let missing = [
        undocumented::<StatsSnapshot>(doc),
        undocumented::<gisolap_stream::IngestStats>(doc),
        undocumented::<gisolap_store::StoreStats>(doc),
        undocumented::<gisolap_repl::ReplStats>(doc),
        undocumented::<gisolap_repl::LeaderStats>(doc),
        undocumented::<gisolap_serve::ServeStats>(doc),
        undocumented::<gisolap_shard::ShardStats>(doc),
        undocumented::<gisolap_shard::RouteStats>(doc),
        undocumented::<gisolap_tests::elastic::ElasticStats>(doc),
        undocumented::<gisolap_sub::SubStats>(doc),
    ]
    .concat();
    assert!(
        missing.is_empty(),
        "OBSERVABILITY.md does not document: {missing:#?}"
    );
    // The gauges two owners add beside their counters.
    for gauge in ["gisolap_repl_lag_seqs", "gisolap_sub_value"] {
        assert!(doc.contains(gauge), "OBSERVABILITY.md missing `{gauge}`");
    }
}

#[test]
fn observability_doc_covers_every_span_name() {
    let doc = include_str!("../../OBSERVABILITY.md");
    for span in [
        "eval",
        "time-filter",
        "filter-resolve",
        "index-prune",
        "spatial-match",
        "aggregate",
        "segment-seal",
        "partial-merge",
        "wal-append",
        "segment-flush",
        "recover-replay",
    ] {
        assert!(doc.contains(span), "OBSERVABILITY.md missing span `{span}`");
    }
    for extra in ["records_sealed", "cells_created", "GISOLAP_SLOW_QUERY_MS"] {
        assert!(doc.contains(extra), "OBSERVABILITY.md missing `{extra}`");
    }
}

#[test]
fn observability_doc_covers_every_shard_span_name() {
    let doc = include_str!("../../OBSERVABILITY.md");
    for span in ["shard-eval", "shard-scatter", "shard-gather"] {
        assert!(doc.contains(span), "OBSERVABILITY.md missing span `{span}`");
    }
    // The span-only counters the scatter/gather legs report.
    for extra in ["cells_gathered", "cells_window_pruned", "gather_merges"] {
        assert!(doc.contains(extra), "OBSERVABILITY.md missing `{extra}`");
    }
}

#[test]
fn observability_doc_covers_the_sub_span() {
    let doc = include_str!("../../OBSERVABILITY.md");
    assert!(
        doc.contains("sub-fold"),
        "OBSERVABILITY.md missing span `sub-fold`"
    );
    // The span-only counters one standing-query fold reports.
    for extra in ["subs_evaluated", "cells_folded", "sub_notifications"] {
        assert!(doc.contains(extra), "OBSERVABILITY.md missing `{extra}`");
    }
}

#[test]
fn observability_doc_covers_every_repl_span_name() {
    let doc = include_str!("../../OBSERVABILITY.md");
    for span in [
        "repl-poll",
        "repl-fetch",
        "repl-apply",
        "repl-snapshot-install",
    ] {
        assert!(doc.contains(span), "OBSERVABILITY.md missing span `{span}`");
    }
    // The span-only counters replication rounds report.
    for extra in ["reply_bytes", "entries_applied", "segments"] {
        assert!(doc.contains(extra), "OBSERVABILITY.md missing `{extra}`");
    }
}
