//! Shard-elasticity payoff: how fast a lease-based failover detects a
//! dead leader and promotes a replica, and what a staged rebalance
//! costs per record.
//!
//! The acceptance bar (DESIGN.md §5k, hard-asserted): from the instant
//! the leader goes dark, detection plus promotion completes within
//! **2× a lease interval** of logical ticks — the probe schedule must
//! notice the outage during the current lease and depose at its first
//! post-expiry probe, never drifting by extra lease windows. Wall-clock
//! promotion latency (fence, promote, retarget) is reported alongside.
//!
//! Reports p50/p99 per phase and writes `BENCH_elastic.json` (override
//! with `BENCH_ELASTIC_OUT`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gisolap_geom::BBox;
use gisolap_olap::time::TimeId;
use gisolap_repl::FollowerConfig;
use gisolap_shard::{
    rebalance, ElasticConfig, GridSpec, PartitionerSpec, ReplicaHome, ShardGroup, ShardedIngest,
    TickOutcome,
};
use gisolap_store::{RealFs, ScratchDir, StoreConfig, SyncPolicy, Vfs};
use gisolap_stream::StreamConfig;
use gisolap_traj::{ObjectId, Record};

const LEASE_TICKS: u64 = 10;
const PROBE_TICKS: u64 = 2;
const FAILOVER_REPS: usize = 12;

fn grid() -> GridSpec {
    GridSpec::new(BBox::new(0.0, 0.0, 64.0, 64.0), 8, 8).unwrap()
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

fn workload(n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record {
            oid: ObjectId(i % 97),
            t: TimeId(i as i64 * 13),
            x: (i % 64) as f64,
            y: ((i * 7) % 64) as f64,
        })
        .collect()
}

/// A replicated group with a caught-up replica set, ready to depose.
fn warm_group(scratch: &ScratchDir, tag: usize, records: u64) -> ShardGroup {
    let fs: Arc<dyn Vfs> = Arc::new(RealFs);
    let g = grid();
    let ingest = gisolap_store::DurableIngest::create(
        fs.clone(),
        &scratch.path().join(format!("group-{tag}/primary")),
        stream_config(),
        store_config(),
        Some(g.resolver()),
    )
    .unwrap();
    let homes = (0..2)
        .map(|r| ReplicaHome {
            vfs: fs.clone(),
            dir: scratch.path().join(format!("group-{tag}/replica-{r}")),
            store_config: store_config(),
        })
        .collect();
    let mut group = ShardGroup::new(
        ingest,
        0,
        homes,
        Some(g.resolver()),
        FollowerConfig {
            backoff_base_ms: 0,
            ..FollowerConfig::default()
        },
        ElasticConfig {
            lease_ticks: LEASE_TICKS,
            probe_every: PROBE_TICKS,
        },
    )
    .unwrap();
    group.ingest(&workload(records)).unwrap();
    // Replicas bootstrap and tail to the frontier; the lease renews.
    for _ in 0..6 {
        group.tick().unwrap();
    }
    group
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    let idx = (sorted.len().saturating_sub(1) * pct) / 100;
    sorted[idx]
}

/// Criterion leg: the steady-state cost of one controller tick (replica
/// polls + probe amortized over the schedule) on a healthy group.
fn bench_tick(c: &mut Criterion) {
    let scratch = ScratchDir::new("bench-elastic-tick");
    let mut group = warm_group(&scratch, 0, 4_000);
    let mut c_group = c.benchmark_group("elastic_failover");
    c_group.throughput(Throughput::Elements(1));
    c_group.bench_function("healthy_tick", |b| {
        b.iter(|| black_box(group.tick().unwrap()))
    });
    c_group.finish();
}

fn emit_artifact() {
    // Failover: kill the holder, count ticks and wall time to the
    // promotion. Each rep rebuilds a fresh warm group so the deposed
    // history never accumulates.
    let mut detect_ticks = Vec::with_capacity(FAILOVER_REPS);
    let mut promote_ns = Vec::with_capacity(FAILOVER_REPS);
    for rep in 0..FAILOVER_REPS {
        let scratch = ScratchDir::new("bench-elastic-failover");
        let mut group = warm_group(&scratch, rep, 4_000);
        let epoch_before = group.epoch();
        group.kill(group.holder());
        let t0 = Instant::now();
        let mut ticks = 0u64;
        loop {
            ticks += 1;
            assert!(
                ticks <= 4 * LEASE_TICKS,
                "no failover after {ticks} ticks (lease {LEASE_TICKS})"
            );
            if matches!(group.tick().unwrap(), TickOutcome::FailedOver { .. }) {
                break;
            }
        }
        promote_ns.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        detect_ticks.push(ticks);
        assert_eq!(group.epoch(), epoch_before + 1);
        // The acceptance bar: detection + promotion within 2x a lease
        // interval of logical ticks.
        assert!(
            ticks <= 2 * LEASE_TICKS,
            "failover took {ticks} ticks, over the 2x lease bar ({})",
            2 * LEASE_TICKS
        );
    }
    detect_ticks.sort_unstable();
    promote_ns.sort_unstable();

    // Rebalance: one staged 2 -> 3 handoff, cost per record.
    let rebalance_records = 20_000u64;
    let scratch = ScratchDir::new("bench-elastic-rebalance");
    let fs: Arc<dyn Vfs> = Arc::new(RealFs);
    let mut cluster = ShardedIngest::create(
        fs,
        scratch.path(),
        PartitionerSpec::Spatial {
            shards: 2,
            grid: grid(),
        },
        stream_config(),
        store_config(),
    )
    .unwrap();
    cluster.ingest(&workload(rebalance_records)).unwrap();
    cluster.flush().unwrap();
    let t0 = Instant::now();
    let (_rebalanced, report) = rebalance(cluster, 3, stream_config(), store_config()).unwrap();
    let rebalance_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let p = |v: &[u64], pct| percentile(v, pct);
    eprintln!(
        "elastic_failover: reps={FAILOVER_REPS} lease={LEASE_TICKS} probe={PROBE_TICKS} | \
         detect p50={} p99={} ticks (bar {}) | promote p50={:.1}us p99={:.1}us | \
         rebalance {} records in {:.1}ms ({} moved, {} cells reassigned)",
        p(&detect_ticks, 50),
        p(&detect_ticks, 99),
        2 * LEASE_TICKS,
        p(&promote_ns, 50) as f64 / 1e3,
        p(&promote_ns, 99) as f64 / 1e3,
        report.records_total,
        rebalance_ns as f64 / 1e6,
        report.records_moved,
        report.cells_reassigned,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"elastic_failover\",\n",
            "  \"reps\": {},\n",
            "  \"lease_ticks\": {},\n",
            "  \"probe_ticks\": {},\n",
            "  \"detect_ticks_p50\": {},\n",
            "  \"detect_ticks_p99\": {},\n",
            "  \"detect_ticks_bar\": {},\n",
            "  \"promote_p50_ns\": {},\n",
            "  \"promote_p99_ns\": {},\n",
            "  \"rebalance_records\": {},\n",
            "  \"rebalance_records_moved\": {},\n",
            "  \"rebalance_cells_reassigned\": {},\n",
            "  \"rebalance_ns\": {}\n",
            "}}\n"
        ),
        FAILOVER_REPS,
        LEASE_TICKS,
        PROBE_TICKS,
        p(&detect_ticks, 50),
        p(&detect_ticks, 99),
        2 * LEASE_TICKS,
        p(&promote_ns, 50),
        p(&promote_ns, 99),
        report.records_total,
        report.records_moved,
        report.cells_reassigned,
        rebalance_ns,
    );
    let out =
        std::env::var("BENCH_ELASTIC_OUT").unwrap_or_else(|_| "BENCH_elastic.json".to_string());
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("elastic_failover: could not write {out}: {e}");
    } else {
        eprintln!("elastic_failover: wrote {out}");
    }
}

fn bench_all(c: &mut Criterion) {
    bench_tick(c);
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
