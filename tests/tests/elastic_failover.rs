//! The shard-elasticity acceptance suite (`DESIGN.md` §5.6), driving
//! the logical-tick model in `gisolap_tests::elastic`.
//!
//! Two fault-injected properties, swept by `GISOLAP_CASES`
//! (default 16, raised by CI):
//!
//! 1. **Failover never changes an answer** — random kill/failover
//!    schedules over replicated shard groups, under a short lease and
//!    the default one: every failover lands within 2× a lease, after
//!    every round the coordinator's rerouted answer is bit-identical to
//!    a single-store oracle over the same records, lease grants stay
//!    strictly increasing (at most one leader per epoch), and every
//!    deposed leader is permanently fenced.
//! 2. **A crash mid-rebalance recovers to a consistent assignment** —
//!    a `FailpointFs` byte budget tears the staged handoff at a
//!    seed-chosen write; recovery rolls back or forward to exactly the
//!    old or the new shard count, with the full cell union intact and
//!    queries still bit-identical to the oracle.
//!
//! Plus: `ShardedIngest::open` refuses a root an interrupted rebalance
//! left its journal in, and liveness checks that every `ElasticStats`,
//! `IngestStats` and `ShardStats` counter has a writer.

use gisolap_geom::BBox;
use gisolap_obs::CounterSet;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_repl::FollowerConfig;
use gisolap_shard::wire::RebalanceJournal;
use gisolap_shard::{
    eval_single, ClusterExecutor, Coordinator, GridSpec, Partitioner, PartitionerSpec, ShardQuery,
    ShardedIngest, SpatialPartitioner, REBALANCE_JOURNAL,
};
use gisolap_store::{
    DurableIngest, FailpointFs, RealFs, ScratchDir, StoreConfig, StoreError, SyncPolicy, Vfs,
};
use gisolap_stream::{
    CellPartial, GroupKey, Measure, RollupQuery, RollupRow, StreamConfig, StreamIngest,
};
use gisolap_tests::elastic::{
    eval_rerouted, into_leaders, rebalance, recover_rebalance, replica_set, write_journal,
    ElasticConfig, FollowerExecutor, PinnedExecutor, RebalanceRecovery, ReplicaHome, ShardGroup,
    TickOutcome,
};
use gisolap_tests::{counter, dead_counters};
use gisolap_traj::{ObjectId, Record};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

fn grid() -> GridSpec {
    GridSpec::new(BBox::new(0.0, 0.0, 8.0, 8.0), 4, 4).unwrap()
}

fn spatial(shards: u32) -> PartitionerSpec {
    PartitionerSpec::Spatial {
        shards,
        grid: grid(),
    }
}

/// Lateness covers the whole workload span: no record is ever late, so
/// per-shard watermarks cannot diverge from the single pipeline's.
fn stream_config() -> StreamConfig {
    StreamConfig::new(86_400, 3600).unwrap()
}

fn store_config() -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    }
}

/// Lattice-quantized workload: integer coordinates make every sum
/// exact in f64, and `t = (base + i) * 97` keeps `(oid, t)` keys
/// globally collision-free (callers advance `base` per batch) so
/// canonical accumulation is order-independent — a duplicate key with
/// a different position would route to a different shard and break
/// the keep-last dedup a single store performs.
fn workload(seed: u64, base: u64, n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let j = i + seed % 13;
            Record {
                oid: ObjectId(i % 7),
                t: TimeId((base + i) as i64 * 97),
                x: (j % 8) as f64,
                y: ((j * 3) % 8) as f64,
            }
        })
        .collect()
}

fn bits(rows: &[RollupRow]) -> Vec<(i64, Option<u32>, u64)> {
    rows.iter()
        .map(|r| (r.granule, r.geo, r.value.to_bits()))
        .collect()
}

/// The single-store oracle over `records`.
fn oracle(records: &[Record]) -> StreamIngest {
    let mut single = StreamIngest::new(stream_config())
        .unwrap()
        .with_resolver(grid().resolver());
    single.ingest(records);
    single
}

fn queries() -> Vec<ShardQuery> {
    let mut out = Vec::new();
    for f in [AggFn::Count, AggFn::Sum, AggFn::Min] {
        for level in [TimeLevel::Hour, TimeLevel::Day] {
            for region in [None, Some(BBox::new(0.5, 0.5, 5.5, 5.5))] {
                let mut q = ShardQuery::new(RollupQuery::new(level, Measure::X, f));
                q.region = region;
                out.push(q);
            }
        }
    }
    out
}

// --- property 1: failover schedules ----------------------------------

const SHARDS: usize = 2;
const REPLICAS: usize = 2;
const ROUNDS: usize = 3;

/// A short lease, and the default one (`lease_ticks: 10, probe_every: 2`).
const CONFIGS: [ElasticConfig; 2] = [
    ElasticConfig {
        lease_ticks: 4,
        probe_every: 2,
    },
    ElasticConfig {
        lease_ticks: 10,
        probe_every: 2,
    },
];

/// Kills `group`'s lease holder and ticks until a replica is promoted;
/// returns whether that took at most 2× a lease.
fn fail_over(group: &mut ShardGroup, config: ElasticConfig) -> bool {
    group.kill(group.holder());
    (0..2 * config.lease_ticks)
        .any(|_| matches!(group.tick().unwrap(), TickOutcome::FailedOver { .. }))
}

fn shard_groups(scratch: &ScratchDir, config: ElasticConfig) -> Vec<ShardGroup> {
    let fs: Arc<dyn Vfs> = Arc::new(RealFs);
    let g = grid();
    (0..SHARDS)
        .map(|s| {
            let ingest = DurableIngest::create(
                fs.clone(),
                &scratch.path().join(format!("shard-{s}/primary")),
                stream_config(),
                store_config(),
                Some(g.resolver()),
            )
            .unwrap();
            let homes = (0..REPLICAS)
                .map(|r| ReplicaHome {
                    vfs: fs.clone(),
                    dir: scratch.path().join(format!("shard-{s}/replica-{r}")),
                    store_config: store_config(),
                })
                .collect();
            ShardGroup::new(
                ingest,
                0,
                homes,
                Some(g.resolver()),
                FollowerConfig {
                    backoff_base_ms: 0,
                    ..FollowerConfig::default()
                },
                config,
            )
            .unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// Random kill/failover schedules under either lease: failover
    /// within 2× the lease, the rerouted coordinator answer stays
    /// bit-identical to the single-store oracle after every round,
    /// grants only ratchet, deposed leaders stay fenced.
    #[test]
    fn failover_schedules_keep_queries_bit_identical(seed in 0u64..1_000_000, c in 0usize..2) {
        let config = CONFIGS[c];
        let scratch = ScratchDir::new("elastic-sweep-failover");
        let mut groups = shard_groups(&scratch, config);
        let part = SpatialPartitioner::new(SHARDS, grid()).unwrap();
        let mut coordinator = Coordinator::new(
            PinnedExecutor::pin(&groups, Some(grid())),
            spatial(SHARDS as u32),
        )
        .unwrap();

        let mut ingested: Vec<Record> = Vec::new();
        let mut kills_left = [REPLICAS; SHARDS];
        for round in 0..ROUNDS {
            // Ingest this round's batch, routed by the shared assignment.
            let batch = workload(seed + round as u64 * 1000, round as u64 * 60, 60);
            for record in &batch {
                let shard = part.route(record);
                groups[shard].ingest(std::slice::from_ref(record)).unwrap();
            }
            ingested.extend_from_slice(&batch);

            // Replicas catch up; leases renew.
            for group in &mut groups {
                for _ in 0..6 {
                    group.tick().unwrap();
                }
            }

            // Seed-chosen outages: kill the current lease holder and
            // drive the group until it promotes a replica.
            for (g, group) in groups.iter_mut().enumerate() {
                if (seed >> (round * SHARDS + g)) & 1 == 1 && kills_left[g] > 0 {
                    kills_left[g] -= 1;
                    let old_holder = group.holder();
                    let epoch_before = group.epoch();
                    prop_assert!(fail_over(group, config), "failover within 2x {:?}", config);
                    prop_assert_eq!(group.epoch(), epoch_before + 1);
                    // The old host comes back — its leader stays fenced.
                    group.revive(old_holder);
                }
            }

            // Every query, rerouted through re-read leadership, matches
            // the oracle bit for bit.
            let single = oracle(&ingested);
            for q in queries() {
                let (got, _) =
                    eval_rerouted(&mut coordinator, &q, 2, |executor| executor.repin(&groups))
                        .unwrap();
                let want = eval_single(&single, Some(grid()), &q).unwrap();
                prop_assert_eq!(bits(&got.rows), bits(&want), "round {}", round);
            }
        }

        for group in &groups {
            // At most one leader per epoch: the grant log only ratchets.
            let grants = group.grants();
            prop_assert!(grants.windows(2).all(|w| w[0].epoch < w[1].epoch));
            // Every deposed leader is permanently fenced.
            for deposed in group.deposed() {
                let err = deposed.lock().unwrap().ingest(&workload(0, 0, 1)).unwrap_err();
                prop_assert!(matches!(err, StoreError::StaleEpoch { .. }), "got {err}");
            }
        }
    }
}

// --- property 2: crash mid-rebalance ----------------------------------

fn build_cluster(vfs: Arc<dyn Vfs>, root: &Path, shards: u32, seed: u64) {
    let mut cluster =
        ShardedIngest::create(vfs, root, spatial(shards), stream_config(), store_config()).unwrap();
    cluster.ingest(&workload(seed, 0, 200)).unwrap();
    cluster.flush().unwrap();
}

fn sorted_cells(cluster: &ShardedIngest) -> Vec<(GroupKey, CellPartial)> {
    let mut cells: Vec<(GroupKey, CellPartial)> = cluster
        .shards()
        .iter()
        .flat_map(|s| s.extract_partials())
        .collect();
    cells.sort_by_key(|(key, _)| *key);
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// Tear the staged handoff at a seed-chosen written byte, then
    /// recover: the reopened cluster holds exactly the old or the new
    /// assignment (journal gone, staging gone) and answers every query
    /// bit-identically to the oracle.
    #[test]
    fn crash_mid_rebalance_recovers_to_a_consistent_assignment(seed in 0u64..1_000_000) {
        let from: u32 = 2;
        let to: u32 = 3;
        let records = workload(seed, 0, 200);
        let single = oracle(&records);
        let want_cells = {
            let mut cells = single.extract_partials();
            cells.sort_by_key(|(key, _)| *key);
            cells
        };

        // Dry run on an identical twin directory to size the crash
        // point: same seed, same bytes.
        let dry = ScratchDir::new("elastic-sweep-crash-dry");
        build_cluster(Arc::new(RealFs), dry.path(), from, seed);
        let probe_fs = FailpointFs::new(u64::MAX);
        let (dry_cluster, _) = ShardedIngest::open(
            Arc::new(probe_fs.clone()),
            dry.path(),
            stream_config(),
            store_config(),
        )
        .unwrap();
        rebalance(dry_cluster, to, stream_config(), store_config()).unwrap();
        let total_bytes = probe_fs.bytes_consumed().max(1);

        // The crash run: same cluster, budget torn mid-handoff.
        let scratch = ScratchDir::new("elastic-sweep-crash");
        build_cluster(Arc::new(RealFs), scratch.path(), from, seed);
        let crash_fs = FailpointFs::new(1 + seed % total_bytes);
        if let Ok((cluster, _)) = ShardedIngest::open(
            Arc::new(crash_fs),
            scratch.path(),
            stream_config(),
            store_config(),
        ) {
            // Usually dies mid-stage; a budget past the commit point
            // completes — both are valid crash schedules.
            let _ = rebalance(cluster, to, stream_config(), store_config());
        }

        // Recovery, then reopening, lands on exactly one assignment.
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        recover_rebalance(fs.as_ref(), scratch.path()).unwrap();
        let (recovered, _) =
            ShardedIngest::open(fs.clone(), scratch.path(), stream_config(), store_config())
                .unwrap();
        let shards = recovered.shard_count() as u32;
        prop_assert!(shards == from || shards == to, "split assignment: {shards}");
        prop_assert_eq!(recovered.epoch(), u64::from(shards == to));
        prop_assert!(!fs.exists(&scratch.path().join(REBALANCE_JOURNAL)));
        for i in 0..to as usize {
            prop_assert!(!fs.exists(&scratch.path().join(format!("shard-{i:03}.next"))));
            prop_assert!(!fs.exists(&scratch.path().join(format!("shard-{i:03}.old"))));
        }

        // Nothing was lost or duplicated, and queries cannot tell.
        prop_assert_eq!(sorted_cells(&recovered), want_cells);
        let spec = recovered.spec();
        let mut coordinator = Coordinator::new(ClusterExecutor::new(&recovered), spec).unwrap();
        for q in queries() {
            let got = coordinator.eval(&q).unwrap();
            let want = eval_single(&single, Some(grid()), &q).unwrap();
            prop_assert_eq!(bits(&got.rows), bits(&want));
        }
    }
}

/// A journal an interrupted rebalance left behind makes `open` refuse
/// the root, naming the journal; recovery clears it, and the cluster
/// then opens onto its old assignment.
#[test]
fn open_refuses_a_root_holding_a_rebalance_journal() {
    let scratch = ScratchDir::new("elastic-journal-refusal");
    let fs: Arc<dyn Vfs> = Arc::new(RealFs);
    build_cluster(fs.clone(), scratch.path(), 2, 7);
    let journal = RebalanceJournal {
        target_epoch: 1,
        from: spatial(2),
        to: spatial(3),
    };
    write_journal(fs.as_ref(), scratch.path(), &journal).unwrap();

    let open = || ShardedIngest::open(fs.clone(), scratch.path(), stream_config(), store_config());
    let err = open().unwrap_err();
    assert!(matches!(err, StoreError::BadConfig(_)), "{err}");
    assert!(err.to_string().contains(REBALANCE_JOURNAL), "{err}");

    let recovery = recover_rebalance(fs.as_ref(), scratch.path()).unwrap();
    assert_eq!(recovery, RebalanceRecovery::RolledBack);
    let (cluster, _) = open().unwrap();
    assert_eq!((cluster.shard_count(), cluster.epoch()), (2, 0));
    let mut want = oracle(&workload(7, 0, 200)).extract_partials();
    want.sort_by_key(|(key, _)| *key);
    assert_eq!(sorted_cells(&cluster), want);
}

// --- counter liveness -------------------------------------------------

/// One group renews its lease, loses its leader and fails over: every
/// `ElasticStats` counter moves, so none is exported without a writer.
#[test]
fn every_elastic_counter_has_a_live_writer() {
    let scratch = ScratchDir::new("elastic-counter-liveness");
    let mut group = shard_groups(&scratch, CONFIGS[0]).swap_remove(0);
    group.ingest(&workload(7, 0, 20)).unwrap();
    for _ in 0..6 {
        group.tick().unwrap();
    }
    assert!(
        fail_over(&mut group, CONFIGS[0]),
        "failover within 2x the lease"
    );
    for (field, value) in group.stats().fields() {
        assert!(value > 0, "ElasticStats::{field} never moved");
    }
}

/// Every `IngestStats` and `ShardStats` counter has a live writer: one
/// fixed sequence of calls leaves none of them at zero.
///
/// - Spatial shard groups behind pinned leaders take an hour of records,
///   a far-future batch that seals it, and a straggler for the sealed
///   hour. A region query prunes a shard, a windowed query prunes cells,
///   and both read the leaders' live tails.
/// - A hash cluster holds the same records in both shards, so the
///   gather merges keys. It is read through replicas a lag bound of 0
///   marks stale; the replica executor reports those fetches.
#[test]
fn every_ingest_and_shard_counter_has_a_live_writer() {
    let scratch = ScratchDir::new("ingest-shard-counter-liveness");
    let mut groups = shard_groups(&scratch, CONFIGS[0]);
    let part = SpatialPartitioner::new(SHARDS, grid()).unwrap();
    let early = workload(7, 0, 30);
    let batches = [early.clone(), workload(7, 2000, 30), early[..1].to_vec()];
    for batch in &batches {
        for record in batch {
            groups[part.route(record)]
                .ingest(std::slice::from_ref(record))
                .unwrap();
        }
    }
    let mut pinned = Coordinator::new(
        PinnedExecutor::pin(&groups, Some(grid())),
        spatial(SHARDS as u32),
    )
    .unwrap();
    let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum));
    let region = q.clone().in_region(BBox::new(0.5, 0.5, 1.5, 1.5));
    let window = q.clone().in_window(TimeId(0), TimeId(3599));
    for q in [&region, &window] {
        assert!(!pinned.eval(q).unwrap().rows.is_empty());
    }
    let mut ingest = gisolap_stream::IngestStats::default();
    for group in &groups {
        let leader = group.leader();
        let stats = leader.lock().unwrap().durable().ingest_stats();
        ingest = ingest.map(|name, v| v + counter(&stats, name));
    }

    let hash = PartitionerSpec::Hash {
        shards: 2,
        grid: Some(grid()),
    };
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
    let root = scratch.path().join("hash");
    let cluster = ShardedIngest::create(vfs, &root, hash, stream_config(), store_config()).unwrap();
    let leaders = into_leaders(cluster, store_config()).unwrap();
    for leader in &leaders {
        leader.lock().unwrap().ingest(&early).unwrap();
    }
    let lag_bound_zero = FollowerConfig {
        max_lag_seqs: Some(0),
        max_batch: 1,
        backoff_base_ms: 0,
        ..FollowerConfig::default()
    };
    let mut replicas = replica_set(&leaders, &hash, lag_bound_zero);
    for replica in replicas.iter_mut() {
        replica.sync(64).unwrap();
    }
    for leader in &leaders {
        let mut leader = leader.lock().unwrap();
        for batch in [workload(7, 100, 5), workload(7, 200, 5)] {
            leader.ingest(&batch).unwrap();
        }
    }
    for replica in replicas.iter_mut() {
        let _ = replica.poll();
    }
    let mut stale = Coordinator::new(FollowerExecutor::new(&replicas, hash.grid()), hash).unwrap();
    stale.eval(&q).unwrap();
    assert!(
        stale.executor().stale_fetches() > 0,
        "a lag bound of 0 with fresh writes reads stale replicas"
    );

    let shard = pinned
        .stats()
        .map(|name, v| v + counter(&stale.stats(), name));
    assert!(
        dead_counters(&ingest).is_empty(),
        "IngestStats: {:?}",
        dead_counters(&ingest)
    );
    assert!(
        dead_counters(&shard).is_empty(),
        "ShardStats: {:?}",
        dead_counters(&shard)
    );
}
