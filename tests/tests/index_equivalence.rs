//! The indexing acceptance suite (`docs/indexing.md`): index-assisted
//! evaluation is **bit-identical** to the pure scan it accelerates.
//!
//! Three layers of the determinism contract, property-tested:
//!
//! * **Engine**: `IndexedEngine` and `OverlayEngine`, which always
//!   consult their `MoftIndex`, return tuple vectors *raw-identical* to
//!   `NaiveEngine`, the index-free scan reference, for arbitrary
//!   region × time-window queries.
//! * **Store lifecycle**: the same holds for engines built over a
//!   durable store snapshot in every lifecycle state — empty, lagging
//!   in the WAL tail, flushed, compacted, reopened from disk.
//! * **Shard**: `Coordinator::eval` with `ShardQuery::in_window` /
//!   `in_region` pruning matches `eval_single` bit for bit under both
//!   partitioners, with shards in mixed lifecycle states.
//!
//! Case count sweeps with `GISOLAP_CASES` (default 16; CI runs
//! 200 per property).

use gisolap_core::engine::{IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine};
use gisolap_core::region::{CmpOp, GeoFilter, RegionC, SpatialPredicate, TimePredicate};
use gisolap_datagen::movers::{RandomWaypoint, SkewedFleet};
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeId, TimeLevel, TimeOfDay};
use gisolap_olap::value::Value;
use gisolap_shard::{
    eval_single, ClusterExecutor, Coordinator, GridSpec, PartitionerSpec, ShardQuery, ShardedIngest,
};
use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig, SyncPolicy, Vfs};
use gisolap_stream::{Measure, RollupQuery, RollupRow, StreamConfig, StreamIngest};
use gisolap_traj::{Moft, Record};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------- engine

fn geo_filter() -> impl Strategy<Value = GeoFilter> {
    prop_oneof![
        Just(GeoFilter::All),
        (900i64..3500).prop_map(|v| GeoFilter::AttrCompare {
            category: "neighborhood".into(),
            attr: "income".into(),
            op: CmpOp::Lt,
            value: Value::Int(v),
        }),
        Just(GeoFilter::IntersectsLayer { layer: "Lr".into() }),
        Just(GeoFilter::ContainsNodeOf {
            layer: "Lstores".into()
        }),
    ]
}

fn scenario(seed: u64) -> (CityScenario, Moft) {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 3,
        blocks_y: 2,
        schools: 4,
        stores: 6,
        gas_stations: 2,
        seed,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        seed: seed.wrapping_add(1),
        ..RandomWaypoint::new(city.bbox, 10, 14)
    }
    .generate(0);
    (city, moft)
}

/// An absolute sub-window of the MOFT's time extent, from two
/// percentage knobs (always non-empty: `lo <= hi`).
fn sub_window(moft: &Moft, a: u8, b: u8) -> Option<(TimeId, TimeId)> {
    let records = moft.records();
    let t_min = records.iter().map(|r| r.t.0).min()?;
    let t_max = records.iter().map(|r| r.t.0).max()?;
    let span = t_max - t_min;
    let (fa, fb) = (a.min(b) as i64, a.max(b) as i64);
    Some((
        TimeId(t_min + span * fa / 100),
        TimeId(t_min + span * fb / 100),
    ))
}

fn index_counter_total(engine: &dyn QueryEngine) -> u64 {
    let s = engine.stats().snapshot();
    s.index_interval_probes
        + s.index_bvh_probes
        + s.index_zones_scanned
        + s.index_zones_pruned
        + s.index_records_pruned
}

// ----------------------------------------------------------------- store

fn stream_config() -> StreamConfig {
    StreamConfig::new(86_400, 3600).unwrap()
}

fn store_config() -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    }
}

// ----------------------------------------------------------------- shard

fn area() -> BBox {
    BBox::new(0.0, 0.0, 64.0, 64.0)
}

fn hot() -> BBox {
    BBox::new(4.0, 4.0, 20.0, 20.0)
}

fn grid() -> GridSpec {
    GridSpec::new(area(), 4, 4).unwrap()
}

fn workload(seed: u64) -> Vec<Record> {
    let fleet = SkewedFleet {
        seed,
        objects: 6 + (seed % 5) as usize,
        samples_per_object: 24 + (seed % 4) as usize * 8,
        ..SkewedFleet::new(area(), hot(), 0)
    };
    fleet.generate(seed * 1000).records().to_vec()
}

/// Same mixed-lifecycle driver as `shard_equivalence.rs`: each shard
/// ends up lagging, sealed, flushed or compacted by seed.
fn cluster_in_mixed_states(
    scratch: &ScratchDir,
    spec: PartitionerSpec,
    records: &[Record],
    seed: u64,
) -> ShardedIngest {
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
    let mut cluster =
        ShardedIngest::create(vfs, scratch.path(), spec, stream_config(), store_config()).unwrap();
    let chunk = 1 + records.len() / 3;
    for batch in records.chunks(chunk) {
        cluster.ingest(batch).unwrap();
    }
    for (s, shard) in cluster.shards_mut().iter_mut().enumerate() {
        match (seed + s as u64) % 4 {
            0 => {}
            1 => {
                shard.finish().unwrap();
            }
            2 => {
                shard.finish().unwrap();
                shard.flush().unwrap();
            }
            _ => {
                shard.finish().unwrap();
                shard.flush().unwrap();
                shard.compact().unwrap();
            }
        }
    }
    cluster
}

fn single_pipeline(records: &[Record]) -> StreamIngest {
    let mut single = StreamIngest::new(stream_config())
        .unwrap()
        .with_resolver(grid().resolver());
    single.ingest(records);
    single
}

fn bits(rows: &[RollupRow]) -> Vec<(i64, Option<u32>, u64)> {
    rows.iter()
        .map(|r| (r.granule, r.geo, r.value.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// Engine-level bit-identity: the index only decides what is
    /// *skipped*, never what is *answered*. Both index-consulting
    /// engines must return the tuple vector of the index-free
    /// `NaiveEngine` — same records, same order, same bits.
    #[test]
    fn indexed_engines_are_raw_identical_to_the_scan(
        seed in 0u64..1000,
        filter in geo_filter(),
        wa in 0u8..=100,
        wb in 0u8..=100,
        time_kind in 0u8..3,
        interpolated in proptest::bool::ANY,
    ) {
        let (city, moft) = scenario(seed);
        let Some((lo, hi)) = sub_window(&moft, wa, wb) else {
            return Ok(());
        };
        let time = match time_kind {
            0 => vec![TimePredicate::Between(lo, hi)],
            // Absolute window AND a relative predicate: the interval
            // tree prunes on the window, the survivor re-check still
            // applies the time-of-day mask.
            1 => vec![
                TimePredicate::Between(lo, hi),
                TimePredicate::TimeOfDayIs(TimeOfDay::Morning),
            ],
            _ => vec![TimePredicate::AtInstant(lo)],
        };
        let mut region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", filter));
        region.time = time;
        if interpolated {
            region = region.interpolated();
        }

        let naive = NaiveEngine::new(&city.gis, &moft);
        let indexed = IndexedEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);

        let scan = naive.eval(&region).unwrap();
        prop_assert_eq!(&scan, &indexed.eval(&region).unwrap(), "naive vs indexed");
        prop_assert_eq!(&scan, &overlay.eval(&region).unwrap(), "naive vs overlay");

        // Only the counters may differ: the scan reference never
        // touches an index; the indexed engine consults the interval
        // tree for the absolute window.
        prop_assert_eq!(index_counter_total(&naive), 0);
        if !interpolated {
            prop_assert!(
                indexed.stats().snapshot().index_interval_probes >= 1,
                "absolute window must probe the interval tree"
            );
        }
    }

    /// Store-lifecycle bit-identity: engines built over a durable
    /// snapshot — empty, lagging in the WAL tail, flushed, compacted,
    /// or reopened from disk — return the scan reference's tuple vector
    /// over the same snapshot.
    #[test]
    fn index_matches_scan_across_store_lifecycles(
        seed in 0u64..1_000_000,
        lifecycle in 0u8..5,
        filter in geo_filter(),
        wa in 0u8..=100,
        wb in 0u8..=100,
    ) {
        let (city, moft) = scenario(seed % 1000);
        let records = moft.records().to_vec();
        let scratch = ScratchDir::new("index-eq-store");
        let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
        let mut durable = DurableIngest::create(
            vfs.clone(),
            scratch.path(),
            stream_config(),
            store_config(),
            None,
        )
        .unwrap();
        if lifecycle != 0 {
            // 0 = empty: never ingest. Otherwise several batches so the
            // WAL tail, sealed windows and segments interleave.
            let chunk = 1 + records.len() / 3;
            for batch in records.chunks(chunk) {
                durable.ingest(batch).unwrap();
            }
        }
        match lifecycle {
            0 | 1 => {} // empty / lagging: everything in the WAL tail
            2 => {
                durable.finish().unwrap();
                durable.flush().unwrap();
            }
            3 => {
                durable.finish().unwrap();
                durable.flush().unwrap();
                durable.compact().unwrap();
            }
            _ => {
                durable.finish().unwrap();
                durable.flush().unwrap();
                drop(durable);
                let (reopened, report) =
                    DurableIngest::recover(vfs, scratch.path(), store_config(), None).unwrap();
                prop_assert!(report.checkpoint_loaded);
                durable = reopened;
            }
        }

        let snapshot = durable.pipeline().snapshot().unwrap();
        let mut region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", filter));
        if let Some((lo, hi)) = sub_window(snapshot.moft(), wa, wb) {
            region.time = vec![TimePredicate::Between(lo, hi)];
        }

        let naive = NaiveEngine::from_snapshot(&city.gis, &snapshot);
        let indexed = IndexedEngine::from_snapshot(&city.gis, &snapshot);
        let overlay = OverlayEngine::from_snapshot(&city.gis, &snapshot);

        let scan = naive.eval(&region).unwrap();
        prop_assert_eq!(&scan, &indexed.eval(&region).unwrap(), "lifecycle {}: naive vs indexed", lifecycle);
        prop_assert_eq!(&scan, &overlay.eval(&region).unwrap(), "lifecycle {}: naive vs overlay", lifecycle);
        if lifecycle == 0 {
            prop_assert!(scan.is_empty(), "empty store must answer empty");
        }
    }

    /// Shard-level bit-identity: windowed (and region-filtered)
    /// scatter-gather equals the unsharded reference under both
    /// partitioners, with shards in mixed lifecycle states. The window
    /// prune at the fetch edge must be result-neutral.
    #[test]
    fn windowed_shard_queries_match_single_store(
        seed in 0u64..1_000_000,
        hash_partitioner in proptest::bool::ANY,
        wa in 0u8..=100,
        wb in 0u8..=100,
        with_region in proptest::bool::ANY,
    ) {
        let scratch = ScratchDir::new("index-eq-shard");
        let records = workload(seed);
        let t_min = records.iter().map(|r| r.t.0).min().unwrap();
        let t_max = records.iter().map(|r| r.t.0).max().unwrap();
        let span = t_max - t_min;
        let (fa, fb) = (wa.min(wb) as i64, wa.max(wb) as i64);
        let (lo, hi) = (
            TimeId(t_min + span * fa / 100),
            TimeId(t_min + span * fb / 100),
        );

        let spec = if hash_partitioner {
            PartitionerSpec::Hash { shards: 3, grid: Some(grid()) }
        } else {
            PartitionerSpec::Spatial { shards: 4, grid: grid() }
        };
        let cluster = cluster_in_mixed_states(&scratch, spec, &records, seed);
        let single = single_pipeline(&records);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();

        for f in [AggFn::Count, AggFn::Sum, AggFn::Avg] {
            let mut q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, f))
                .in_window(lo, hi);
            if with_region {
                q = q.in_region(hot());
            }
            let got = coord.eval(&q).unwrap();
            let want = eval_single(&single, Some(grid()), &q).unwrap();
            prop_assert_eq!(
                bits(&got.rows),
                bits(&want),
                "{:?} window=[{},{}] region={}",
                f,
                lo.0,
                hi.0,
                with_region
            );
        }

        // A window entirely past the data prunes every cell at the
        // fetch edge and still matches the reference (empty).
        let after = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::Y, AggFn::Sum))
            .in_window(TimeId(t_max + 2 * 3600), TimeId(t_max + 3 * 3600));
        let got = coord.eval(&after).unwrap();
        prop_assert!(got.rows.is_empty(), "{}", got.explain);
        prop_assert!(got.explain.cells_window_pruned > 0, "{}", got.explain);
        let want = eval_single(&single, Some(grid()), &after).unwrap();
        prop_assert!(want.is_empty());
    }
}
