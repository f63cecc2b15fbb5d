//! The sharding acceptance suite (`DESIGN.md` §5.5): scatter-gather over
//! a partitioned cluster is **bit-identical** to evaluating the same
//! records through one unsharded pipeline — under both partitioners,
//! with shards in every lifecycle state a cluster can be caught in
//! (empty, lagging in the WAL tail, flushed, mid-compaction), with and
//! without region filters — and the spatial partitioner demonstrably
//! prunes whole shards on selective regions. Every executor's region
//! fetch keeps exactly the cells `filter_region` keeps from its source's
//! full extraction, on edge-case regions too.
//!
//! The workload is [`SkewedFleet`]: every coordinate sits on the 0.25
//! lattice, so position sums are exact in f64 and bit-identity is a
//! theorem, not luck (`crates/shard/src/coordinator.rs` module docs).
//!
//! Case count sweeps with `GISOLAP_CASES` (CI runs a deeper
//! seeded sweep than the default 16).

use gisolap_datagen::movers::SkewedFleet;
use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_repl::FollowerConfig;
use gisolap_shard::{
    eval_single, filter_region, ClusterExecutor, Coordinator, GridSpec, PartitionerSpec,
    ShardExecutor, ShardQuery, ShardedIngest,
};
use gisolap_store::{RealFs, ScratchDir, StoreConfig, SyncPolicy, Vfs};
use gisolap_stream::{
    CellPartial, GroupKey, Measure, RollupQuery, RollupRow, StreamConfig, StreamIngest,
};
use gisolap_tests::elastic::{into_leaders, replica_set, FollowerExecutor, PinnedExecutor};
use gisolap_tests::{cell_bits, dead_counters};
use gisolap_traj::Record;
use proptest::prelude::*;
use std::sync::Arc;

const FNS: [AggFn; 5] = [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max];

fn area() -> BBox {
    BBox::new(0.0, 0.0, 64.0, 64.0)
}

fn hot() -> BBox {
    BBox::new(4.0, 4.0, 20.0, 20.0)
}

fn grid() -> GridSpec {
    GridSpec::new(area(), 4, 4).unwrap()
}

/// A skewed, quantized workload; `seed` also varies fleet size.
fn workload(seed: u64) -> Vec<Record> {
    let fleet = SkewedFleet {
        seed,
        objects: 6 + (seed % 7) as usize,
        samples_per_object: 24 + (seed % 5) as usize * 8,
        ..SkewedFleet::new(area(), hot(), 0)
    };
    fleet.generate(seed * 1000).records().to_vec()
}

fn stream_config() -> StreamConfig {
    StreamConfig::new(86_400, 3600).unwrap()
}

fn store_config() -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    }
}

/// Builds a cluster over `records`, then drives each shard into a
/// seed-chosen lifecycle state: left in the WAL tail (lagging), sealed,
/// flushed to segments, or flushed **and** compacted — so the gather
/// must be indifferent to where each shard's partials physically live.
fn cluster_in_mixed_states(
    scratch: &ScratchDir,
    spec: PartitionerSpec,
    records: &[Record],
    seed: u64,
) -> ShardedIngest {
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
    let mut cluster =
        ShardedIngest::create(vfs, scratch.path(), spec, stream_config(), store_config()).unwrap();
    // Several batches so lifecycle transitions interleave with ingest.
    let chunk = 1 + records.len() / 3;
    for (i, batch) in records.chunks(chunk).enumerate() {
        cluster.ingest(batch).unwrap();
        if i == 0 {
            for (s, shard) in cluster.shards_mut().iter_mut().enumerate() {
                if (seed + s as u64).is_multiple_of(2) {
                    shard.flush().unwrap();
                }
            }
        }
    }
    for (s, shard) in cluster.shards_mut().iter_mut().enumerate() {
        match (seed + s as u64) % 4 {
            0 => {} // lagging: everything still in the WAL tail
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

/// The unsharded reference pipeline over the same records.
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

/// Every aggregate × both measures × two levels × three region shapes,
/// sharded vs single-store, bit for bit.
fn assert_equivalent(cluster: &mut ShardedIngest, single: &StreamIngest, label: &str) {
    let spec = cluster.spec();
    let mut coord = Coordinator::new(ClusterExecutor::new(cluster), spec).unwrap();
    let regions = [
        None,
        Some(hot()),                           // the skew hotspot
        Some(BBox::new(0.5, 0.5, 15.5, 15.5)), // selective corner
    ];
    for f in FNS {
        for measure in [Measure::X, Measure::Y] {
            for level in [TimeLevel::Hour, TimeLevel::Day] {
                for region in regions {
                    let mut q = ShardQuery::new(RollupQuery::new(level, measure, f));
                    q.region = region;
                    let got = coord.eval(&q).unwrap();
                    let want = eval_single(single, Some(grid()), &q).unwrap();
                    assert_eq!(
                        bits(&got.rows),
                        bits(&want),
                        "{label}: {f:?}/{measure:?}/{level:?}/region={region:?}"
                    );
                    if region.is_none() {
                        // No filter: the sharded answer must also equal
                        // the pipeline's own native rollup.
                        let native = single.rollup(&q.rollup).unwrap();
                        assert_eq!(bits(&got.rows), bits(&native), "{label}: native {f:?}");
                    }
                }
            }
        }
    }
}

/// Region shapes a fetch must treat exactly as `filter_region` does:
/// zero-width and zero-area boxes on grid lines, a box exactly on cell
/// borders, boxes partly outside, touching from outside and wholly
/// outside the area, the unbounded box, and no region at all.
fn edge_regions() -> Vec<Option<BBox>> {
    let inf = f64::INFINITY;
    [
        BBox::new(16.0, 0.0, 16.0, 64.0),  // zero width, on a column line
        BBox::new(32.0, 32.0, 32.0, 32.0), // a point on four cells' corner
        BBox::new(16.0, 16.0, 32.0, 32.0), // one cell, borders shared
        BBox::new(-10.0, -10.0, 5.0, 5.0), // partly outside
        BBox::new(64.0, 0.0, 80.0, 64.0),  // touching the east edge
        BBox::new(100.0, 100.0, 120.0, 120.0), // wholly outside
        BBox::new(-inf, -inf, inf, inf),   // unbounded
        hot(),
    ]
    .into_iter()
    .map(Some)
    .chain([None])
    .collect()
}

/// Each shard's fetch through `exec`, for every edge region, equals
/// `filter_region` over the full extraction of that shard's `source`.
fn assert_fetches_exact<E: ShardExecutor>(
    exec: &E,
    grid: Option<GridSpec>,
    source: impl Fn(usize) -> Vec<(GroupKey, CellPartial)>,
    label: &str,
) {
    for shard in 0..exec.shards() {
        for region in edge_regions() {
            let got = exec.fetch(shard, region.as_ref()).unwrap();
            let want = filter_region(source(shard), grid, region.as_ref()).unwrap();
            assert_eq!(
                cell_bits(&got),
                cell_bits(&want),
                "{label}: shard {shard}, region {region:?}"
            );
        }
    }
}

/// The cluster, pinned-leader and replica executors over one cluster in
/// mixed states, each against its own source's extraction.
fn every_executor_fetches_exactly(cluster: ShardedIngest, label: &str) {
    let spec = cluster.spec();
    let grid = spec.grid();
    let exec = ClusterExecutor::new(&cluster);
    assert_fetches_exact(
        &exec,
        grid,
        |s| cluster.shards()[s].extract_partials(),
        label,
    );

    let leaders = into_leaders(cluster, store_config()).unwrap();
    let pinned = PinnedExecutor::new(leaders.clone(), grid);
    let leader_cells = |s: usize| leaders[s].lock().unwrap().durable().extract_partials();
    assert_fetches_exact(&pinned, grid, leader_cells, label);

    let mut replicas = replica_set(&leaders, &spec, FollowerConfig::default());
    for r in replicas.iter_mut() {
        r.sync(64).unwrap();
        assert!(r.caught_up(), "{label}: replica caught up");
    }
    let followers = FollowerExecutor::new(&replicas, grid);
    let replica_cells = |s: usize| replicas[s].pipeline().unwrap().extract_partials();
    assert_fetches_exact(&followers, grid, replica_cells, label);
    for (s, replica) in replicas.iter().enumerate() {
        let want = leader_cells(s);
        let got = replica.pipeline().unwrap().extract_partials();
        assert_eq!(cell_bits(&got), cell_bits(&want), "{label}: replica {s}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// Spatial partitioning: disjoint shard key sets, so bit-identity
    /// is unconditional — including shards that own no data at all
    /// (for low seeds the fleet never leaves the hot quadrants).
    #[test]
    fn spatial_cluster_matches_single_store(seed in 0u64..1_000_000) {
        let scratch = ScratchDir::new("shard-eq-spatial");
        let records = workload(seed);
        let spec = PartitionerSpec::Spatial { shards: 4, grid: grid() };
        let mut cluster = cluster_in_mixed_states(&scratch, spec, &records, seed);
        let single = single_pipeline(&records);
        assert_equivalent(&mut cluster, &single, "spatial");
    }

    /// Hash partitioning: the same key appears in several shards; the
    /// ascending-shard-order gather plus lattice-exact sums still give
    /// bit-identity.
    #[test]
    fn hash_cluster_matches_single_store(seed in 0u64..1_000_000) {
        let scratch = ScratchDir::new("shard-eq-hash");
        let records = workload(seed);
        let spec = PartitionerSpec::Hash { shards: 3, grid: Some(grid()) };
        let mut cluster = cluster_in_mixed_states(&scratch, spec, &records, seed);
        let single = single_pipeline(&records);
        assert_equivalent(&mut cluster, &single, "hash");
    }

    /// Every executor's region fetch — one pass copying only kept cells
    /// — equals copy-then-`filter_region`, bit for bit, under both
    /// partitioners, with shards in mixed lifecycle states.
    #[test]
    fn region_fetches_equal_filter_region(seed in 0u64..1_000_000) {
        let records = workload(seed);
        let specs = [
            PartitionerSpec::Spatial { shards: 4, grid: grid() },
            PartitionerSpec::Hash { shards: 3, grid: Some(grid()) },
        ];
        for spec in specs {
            let scratch = ScratchDir::new("shard-eq-fetch");
            let cluster = cluster_in_mixed_states(&scratch, spec, &records, seed);
            every_executor_fetches_exactly(cluster, &format!("{spec:?} seed {seed}"));
        }
    }

    /// Reopening a cluster from disk changes nothing: the manifest
    /// rebuilds the same partitioner and recovery rebuilds each shard's
    /// partials.
    #[test]
    fn reopened_cluster_matches_single_store(seed in 0u64..1_000_000) {
        let scratch = ScratchDir::new("shard-eq-reopen");
        let records = workload(seed);
        let spec = PartitionerSpec::Spatial { shards: 4, grid: grid() };
        {
            let mut cluster = cluster_in_mixed_states(&scratch, spec, &records, seed);
            cluster.flush().unwrap();
        }
        let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
        let (mut cluster, reports) =
            ShardedIngest::open(vfs, scratch.path(), stream_config(), store_config()).unwrap();
        prop_assert_eq!(reports.len(), 4);
        let single = single_pipeline(&records);
        assert_equivalent(&mut cluster, &single, "reopened");
    }
}

/// An entirely empty cluster answers every query with zero rows, and a
/// cluster where only one shard holds data still matches the reference
/// — the explicit empty/lagging-shard cases the acceptance bar names.
#[test]
fn empty_and_single_populated_shards() {
    let scratch = ScratchDir::new("shard-eq-empty");
    let spec = PartitionerSpec::Spatial {
        shards: 4,
        grid: grid(),
    };
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
    let mut cluster =
        ShardedIngest::create(vfs, scratch.path(), spec, stream_config(), store_config()).unwrap();
    let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum));
    {
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        let got = coord.eval(&q).unwrap();
        assert!(got.rows.is_empty());
        assert_eq!(got.explain.shards_queried, 4);
    }

    // Confine all records to the bottom-left quadrant: with a 4x4 grid
    // split into 4 row-blocks, the upper shards stay empty forever.
    let records: Vec<Record> = workload(1)
        .into_iter()
        .filter(|r| r.x < 16.0 && r.y < 16.0)
        .collect();
    assert!(!records.is_empty());
    cluster.ingest(&records).unwrap();
    let single = single_pipeline(&records);
    assert_equivalent(&mut cluster, &single, "partially-empty");
}

/// The pruning acceptance check: a selective region on a spatial
/// cluster must *skip shards entirely* (visible in the explain), and a
/// whole-space query must not prune anything.
#[test]
fn spatial_pruning_is_observable() {
    let scratch = ScratchDir::new("shard-eq-pruning");
    let records = workload(7);
    let spec = PartitionerSpec::Spatial {
        shards: 4,
        grid: grid(),
    };
    let cluster = cluster_in_mixed_states(&scratch, spec, &records, 7);
    let single = single_pipeline(&records);
    let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();

    // The grid's 4 row-blocks map to the 4 shards; a region inside the
    // bottom row touches exactly one shard.
    let selective = BBox::new(1.0, 1.0, 15.0, 15.0);
    let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::Y, AggFn::Sum))
        .in_region(selective);
    let got = coord.eval(&q).unwrap();
    assert_eq!(got.explain.shards_queried, 1, "{}", got.explain);
    assert_eq!(got.explain.shards_pruned, 3, "{}", got.explain);
    assert_eq!(
        bits(&got.rows),
        bits(&eval_single(&single, Some(grid()), &q).unwrap()),
        "pruned evaluation still exact"
    );

    let whole = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::Y, AggFn::Sum));
    let got = coord.eval(&whole).unwrap();
    assert_eq!(got.explain.shards_pruned, 0);
    assert_eq!(got.explain.shards_queried, 4);

    let stats = coord.stats();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.shards_pruned, 3);

    // Time windows compose with regions: restrict to the fleet's first
    // twelve hours (covering the morning rush, excluding the rest).
    let day0 = TimeId::from_ymd_hms(2006, 1, 9, 0, 0, 0);
    let windowed = ShardQuery::new(
        RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count)
            .between(day0, TimeId(day0.0 + 12 * 3600)),
    )
    .in_region(selective);
    let got = coord.eval(&windowed).unwrap();
    assert!(!got.rows.is_empty());
    assert_eq!(
        bits(&got.rows),
        bits(&eval_single(&single, Some(grid()), &windowed).unwrap())
    );
}

/// Every `RouteStats` counter has a live writer: one ingest through a
/// spatial cluster routes a batch and its records.
#[test]
fn every_route_counter_has_a_live_writer() {
    let scratch = ScratchDir::new("shard-route-liveness");
    let spec = PartitionerSpec::Spatial {
        shards: 2,
        grid: grid(),
    };
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
    let mut cluster =
        ShardedIngest::create(vfs, scratch.path(), spec, stream_config(), store_config()).unwrap();
    cluster.ingest(&workload(3)).unwrap();
    let stats = cluster.stats();
    assert!(
        dead_counters(&stats).is_empty(),
        "RouteStats: {:?}",
        dead_counters(&stats)
    );
}
