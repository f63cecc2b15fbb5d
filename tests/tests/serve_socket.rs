//! End-to-end tests of the network front door: real sockets, real
//! per-tenant stores, a real follower tailing a served leader.
//!
//! The acceptance bar (`DESIGN.md` §6): a durable follower replicating
//! over [`TcpTransport`] — including one forced server shutdown and
//! restart mid-catch-up — converges **bit-identically** both to the
//! leader and to an in-process follower tailing the same leader through
//! the [`FaultTransport`] path, and the server's backpressure caps
//! answer explicit `Busy` instead of silently dropping work.

use std::sync::Arc;

use gisolap_datagen::movers::{RandomWaypoint, SkewedFleet};
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_repl::{
    DirectTransport, FaultConfig, FaultTransport, Follower, FollowerConfig, Transport,
};
use gisolap_serve::{
    Client, ClientError, Endpoint, RemoteShard, RemoteShards, ServeConfig, Server, TcpTransport,
};
use gisolap_shard::{
    eval_single, Coordinator, GridSpec, PartitionerSpec, ShardQuery, ShardedIngest,
};
use gisolap_store::{RealFs, ScratchDir, StoreConfig, SyncPolicy, Vfs};
use gisolap_stream::{Measure, RollupQuery, StreamConfig, StreamIngest};
use gisolap_sub::Subscription;
use gisolap_tests::dead_counters;
use gisolap_traj::{Moft, ObjectId, Record};

fn workload(seed: u64) -> Moft {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 2,
        blocks_y: 2,
        seed,
        ..CityConfig::default()
    });
    RandomWaypoint {
        seed: seed.wrapping_add(1),
        ..RandomWaypoint::new(city.bbox, 6, 24)
    }
    .generate(0)
}

fn store_config(retain: usize) -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Never,
        retain_wal_generations: retain,
        ..StoreConfig::default()
    }
}

fn serve_config(retain: usize) -> ServeConfig {
    ServeConfig::with_caps(
        StreamConfig::new(0, 3600).unwrap(),
        store_config(retain),
        16, // max_conns
        8,  // max_inflight
        0,  // tenant quota off
    )
}

fn follower_config() -> FollowerConfig {
    FollowerConfig {
        backoff_base_ms: 0, // deterministic tests never benefit from sleeping
        max_batch: 4,       // small batches force multi-round catch-up
        ..FollowerConfig::default()
    }
}

/// Every-level, every-aggregate rollup bits of a pipeline.
fn rollup_bits(pipeline: &StreamIngest) -> Vec<(i64, Option<u32>, u64)> {
    let mut out = Vec::new();
    for level in [TimeLevel::Hour, TimeLevel::Day] {
        for measure in [Measure::X, Measure::Y] {
            for f in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
                let q = RollupQuery::new(level, measure, f);
                out.extend(
                    pipeline
                        .rollup(&q)
                        .unwrap()
                        .into_iter()
                        .map(|r| (r.granule, r.geo, r.value.to_bits())),
                );
            }
        }
    }
    out
}

#[test]
fn rollup_and_ping_over_socket() {
    let root = ScratchDir::new("serve-rollup");
    let mut server = Server::bind("127.0.0.1:0", root.path(), serve_config(0)).unwrap();

    // Feed the tenant's store through the same leader the server
    // serves from, so the write is immediately visible to clients.
    let leader = server.leader("acme").unwrap();
    let moft = workload(11);
    leader.lock().unwrap().ingest(moft.records()).unwrap();
    leader.lock().unwrap().finish().unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    client.ping("acme").unwrap();

    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    let served = client.rollup("acme", &q).unwrap();
    let direct = leader.lock().unwrap().rollup(&q).unwrap();
    assert!(!served.is_empty());
    assert_eq!(served.len(), direct.len());
    for (s, d) in served.iter().zip(&direct) {
        assert_eq!(s.granule, d.granule);
        assert_eq!(s.geo, d.geo);
        assert_eq!(s.value.to_bits(), d.value.to_bits(), "served bits differ");
    }

    // A second tenant is an independent store: empty rollup, no bleed.
    assert!(client.rollup("other", &q).unwrap().is_empty());

    let stats = server.stop();
    assert!(stats.rollup_requests >= 2);
    assert_eq!(stats.ping_requests, 1);
    assert_eq!(stats.busy_rejections, 0);
}

#[test]
fn inadmissible_tenants_are_refused() {
    let root = ScratchDir::new("serve-tenant");
    let server = Server::bind("127.0.0.1:0", root.path(), serve_config(0)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
    for tenant in ["../escape", "a/b", ""] {
        match client.rollup(tenant, &q) {
            Err(ClientError::Remote(detail)) => {
                assert!(detail.contains("inadmissible"), "{detail}")
            }
            other => panic!("tenant {tenant:?}: expected Remote error, got {other:?}"),
        }
    }
    // No store directory was created for any of them.
    assert_eq!(std::fs::read_dir(root.path()).unwrap().count(), 0);
}

#[test]
fn connection_cap_answers_busy_then_closes() {
    let root = ScratchDir::new("serve-conncap");
    let config = ServeConfig::with_caps(
        StreamConfig::new(0, 3600).unwrap(),
        store_config(0),
        1, // exactly one admitted connection
        8,
        0,
    );
    let mut server = Server::bind("127.0.0.1:0", root.path(), config).unwrap();
    let mut first = Client::connect(server.addr()).unwrap();
    first.ping("acme").unwrap(); // the admitted one works

    let mut second = Client::connect(server.addr()).unwrap();
    match second.ping("acme") {
        Err(ClientError::Busy(detail)) => assert!(detail.contains("connections"), "{detail}"),
        other => panic!("expected Busy, got {other:?}"),
    }

    let stats = server.stop();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.connections_rejected, 1);
}

#[test]
fn tenant_quota_sheds_load_per_tenant() {
    let root = ScratchDir::new("serve-quota");
    let config = ServeConfig::with_caps(
        StreamConfig::new(0, 3600).unwrap(),
        store_config(0),
        16,
        16,
        1, // one in-flight request per tenant
    );
    let mut server = Server::bind("127.0.0.1:0", root.path(), config).unwrap();

    // Hold tenant "hog"'s only slot by parking a slow request: a rollup
    // over a big-enough store is not reliably slow, so instead pin the
    // leader lock from the test while a second thread sends a request.
    let leader = server.leader("hog").unwrap();
    let moft = workload(7);
    leader.lock().unwrap().ingest(moft.records()).unwrap();

    let addr = server.addr();
    let guard = leader.lock().unwrap(); // evaluation will block on this
    let hog = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
        c.rollup("hog", &q).map(|rows| rows.len())
    });
    // Wait until the parked request holds the tenant slot.
    let t0 = std::time::Instant::now();
    while server.stats().rollup_requests == 0 {
        assert!(t0.elapsed().as_secs() < 10, "parked request never arrived");
        std::thread::yield_now();
    }

    // Same tenant: quota bounces it. Other tenant: proceeds.
    let mut c2 = Client::connect(addr).unwrap();
    match c2.ping("hog") {
        Err(ClientError::Busy(detail)) => assert!(detail.contains("quota"), "{detail}"),
        other => panic!("expected Busy, got {other:?}"),
    }
    c2.ping("polite").unwrap();

    drop(guard); // release the leader; the parked rollup completes
    assert!(hog.join().unwrap().unwrap() > 0);

    let stats = server.stop();
    assert_eq!(stats.quota_rejections, 1);
}

/// The tentpole acceptance test: a durable follower tails a TCP-served
/// leader, the server is killed and restarted mid-catch-up, and the
/// follower still converges bit-identically — matched against an
/// in-process follower running the `FaultTransport` path on the same
/// leader.
#[test]
fn follower_converges_over_tcp_with_forced_disconnect() {
    let root = ScratchDir::new("serve-repl-root");
    let follower_home = ScratchDir::new("serve-repl-follower");
    let tenant = "acme";
    let retain = 4;

    let mut server = Server::bind("127.0.0.1:0", root.path(), serve_config(retain)).unwrap();
    let endpoint = Endpoint::new(server.addr().to_string());

    // Phase 1: half the workload, flushed once (rotating the WAL under
    // the follower's feet).
    let moft = workload(23);
    let records: Vec<Record> = moft.records().to_vec();
    let half = records.len() / 2;
    {
        let leader = server.leader(tenant).unwrap();
        let mut l = leader.lock().unwrap();
        for batch in records[..half].chunks(5) {
            l.ingest(batch).unwrap();
        }
        l.flush().unwrap();
    }

    let transport = TcpTransport::with_endpoint(endpoint.clone(), tenant);
    let mut follower = Follower::durable(
        transport,
        Arc::new(RealFs),
        follower_home.path(),
        store_config(0),
        None,
        follower_config(),
    )
    .unwrap();

    // Partial catch-up only: with max_batch=4 the follower is provably
    // mid-stream when the server dies.
    for _ in 0..3 {
        follower.poll().unwrap();
    }
    let cursor_before = follower.cursor();
    assert!(cursor_before > 0, "follower should have started applying");

    // Forced disconnect: the server stops (shutting down the live
    // socket). Polls now fail as transport errors — counted, retried,
    // never fatal.
    server.stop();
    drop(server);
    let errors_before = follower.stats().transport_errors;
    for _ in 0..2 {
        follower.poll().unwrap();
    }
    assert!(
        follower.stats().transport_errors > errors_before,
        "polls against a dead server must count transport errors"
    );
    assert_eq!(follower.cursor(), cursor_before, "no progress while down");

    // Restart: a new server over the same store root (recovery path),
    // on a fresh port; the shared endpoint repoints the follower.
    let mut server = Server::bind("127.0.0.1:0", root.path(), serve_config(retain)).unwrap();
    endpoint.set(server.addr().to_string());

    // Phase 2: the rest of the workload arrives after the restart.
    let leader = server.leader(tenant).unwrap();
    {
        let mut l = leader.lock().unwrap();
        for batch in records[half..].chunks(7) {
            l.ingest(batch).unwrap();
        }
        l.finish().unwrap();
        l.flush().unwrap();
    }

    // The follower reconnects and converges.
    let target = leader.lock().unwrap().next_seq();
    follower.sync(10_000).unwrap();
    assert!(follower.caught_up());
    assert_eq!(follower.cursor(), target);

    // Reference replica: in-process, same leader, through the
    // fault-injection transport (a few drops to keep it honest).
    let fault = FaultTransport::new(
        DirectTransport::new(leader.clone()),
        FaultConfig {
            drop_permille: 150,
            seed: 42,
            ..FaultConfig::default()
        },
    );
    let mut reference = Follower::memory(fault, None, follower_config());
    reference.sync(10_000).unwrap();
    assert!(reference.caught_up());

    // Bit-identity, three ways: TCP follower vs leader, and TCP
    // follower vs the in-process FaultTransport follower.
    let tcp_pipeline = follower.pipeline().expect("tcp follower bootstrapped");
    let ref_pipeline = reference.pipeline().expect("reference bootstrapped");
    let leader_guard = leader.lock().unwrap();
    let leader_bits = rollup_bits(leader_guard.durable().pipeline());
    assert!(!leader_bits.is_empty());
    assert_eq!(rollup_bits(tcp_pipeline), leader_bits);
    assert_eq!(rollup_bits(ref_pipeline), leader_bits);
    drop(leader_guard);

    let stats = server.stop();
    assert!(stats.repl_requests > 0, "replication must go over TCP");
}

fn shard_grid() -> GridSpec {
    GridSpec::new(BBox::new(0.0, 0.0, 64.0, 64.0), 4, 4).unwrap()
}

/// A quantized skewed fleet (exact f64 sums — the bit-identity
/// precondition for hash-partitioned clusters), time-sorted so the
/// server's zero-lateness stores drop nothing.
fn skewed_records(seed: u64) -> Vec<Record> {
    let mut records = SkewedFleet {
        seed,
        objects: 10,
        samples_per_object: 48,
        ..SkewedFleet::new(
            BBox::new(0.0, 0.0, 64.0, 64.0),
            BBox::new(4.0, 4.0, 20.0, 20.0),
            0,
        )
    }
    .generate(0)
    .records()
    .to_vec();
    records.sort_by_key(|r| (r.t, r.oid));
    records
}

fn shard_reference(records: &[Record]) -> StreamIngest {
    let mut single = StreamIngest::new(StreamConfig::new(0, 3600).unwrap())
        .unwrap()
        .with_resolver(shard_grid().resolver());
    single.ingest(records);
    single
}

/// A cluster tenant served over TCP: `ShardedRollup` answers are
/// bit-identical to local single-store evaluation, pruning counts ride
/// the reply, plain-tenant requests against a cluster are refused, and
/// sharded requests against a plain tenant are refused.
#[test]
fn sharded_rollup_over_socket_matches_local() {
    let root = ScratchDir::new("serve-sharded");
    let spec = PartitionerSpec::Spatial {
        shards: 4,
        grid: shard_grid(),
    };
    let records = skewed_records(5);
    // Lay the cluster out under the server root before binding (the
    // server never creates clusters, only serves existing ones).
    {
        let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
        let mut cluster = ShardedIngest::create(
            vfs,
            &root.path().join("fleet"),
            spec,
            StreamConfig::new(0, 3600).unwrap(), // must match the server's
            store_config(0),
        )
        .unwrap();
        cluster.ingest(&records).unwrap();
        cluster.flush().unwrap();
    }

    let mut server = Server::bind("127.0.0.1:0", root.path(), serve_config(0)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let single = shard_reference(&records);

    for f in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
        let q = RollupQuery::new(TimeLevel::Hour, Measure::X, f);
        let served = client.sharded_rollup("fleet", &q, None).unwrap();
        let want = eval_single(&single, Some(shard_grid()), &ShardQuery::new(q)).unwrap();
        assert_eq!(served.rows.len(), want.len());
        for (s, w) in served.rows.iter().zip(&want) {
            assert_eq!((s.granule, s.geo), (w.granule, w.geo));
            assert_eq!(s.value.to_bits(), w.value.to_bits(), "{f:?} bits differ");
        }
        assert_eq!(served.shards_queried, 4);
    }

    // A selective region prunes shards server-side, visibly.
    let q = RollupQuery::new(TimeLevel::Hour, Measure::Y, AggFn::Sum);
    let region = BBox::new(1.0, 1.0, 15.0, 15.0);
    let served = client.sharded_rollup("fleet", &q, Some(&region)).unwrap();
    assert_eq!(served.shards_queried, 1, "one row-block intersects");
    assert_eq!(served.shards_pruned, 3);
    let want = eval_single(
        &single,
        Some(shard_grid()),
        &ShardQuery::new(q).in_region(region),
    )
    .unwrap();
    assert_eq!(served.rows.len(), want.len());
    for (s, w) in served.rows.iter().zip(&want) {
        assert_eq!(s.value.to_bits(), w.value.to_bits());
    }

    // Mixing up tenant kinds is an explicit error, not a silent miss.
    match client.rollup("fleet", &q) {
        Err(ClientError::Remote(detail)) => assert!(detail.contains("cluster"), "{detail}"),
        other => panic!("plain rollup on a cluster: {other:?}"),
    }
    match client.sharded_rollup("plain", &q, None) {
        Err(ClientError::Remote(detail)) => {
            assert!(detail.contains("no shard cluster"), "{detail}")
        }
        other => panic!("sharded rollup on a plain tenant: {other:?}"),
    }

    let stats = server.stop();
    assert!(stats.sharded_requests >= 6);
}

/// A region with a NaN bound or a minimum above its maximum matches no
/// cell, so answering it would return empty rows for a bad request. Both
/// region-carrying requests refuse it — the `Partials` shard fetch and
/// the server-side sharded rollup — and the same connection then
/// answers a valid request.
#[test]
fn malformed_regions_are_refused_over_socket() {
    let root = ScratchDir::new("serve-bad-region");
    let grid = shard_grid();
    let spec = PartitionerSpec::Spatial { shards: 4, grid };
    let records = skewed_records(3);
    {
        let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
        let mut cluster = ShardedIngest::create(
            vfs,
            &root.path().join("fleet"),
            spec,
            StreamConfig::new(0, 3600).unwrap(),
            store_config(0),
        )
        .unwrap();
        cluster.ingest(&records).unwrap();
    }
    let mut server = Server::bind("127.0.0.1:0", root.path(), serve_config(0)).unwrap();
    let leaf = server.leader_with_grid("leaf", Some(grid)).unwrap();
    leaf.lock().unwrap().ingest(&records).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    let valid = BBox::new(1.0, 1.0, 15.0, 15.0);
    let nan = BBox {
        max_x: f64::NAN,
        ..valid
    };
    let inverted = BBox {
        min_y: 20.0,
        ..valid
    };
    for region in [nan, inverted] {
        match client.partials("leaf", Some(&grid), Some(&region)) {
            Err(ClientError::Remote(detail)) => assert!(detail.contains("NaN"), "{detail}"),
            other => panic!("partials over {region:?}: {other:?}"),
        }
        let cells = client.partials("leaf", Some(&grid), Some(&valid)).unwrap();
        assert!(!cells.is_empty(), "the connection still answers");
        match client.sharded_rollup("fleet", &q, Some(&region)) {
            Err(ClientError::Remote(detail)) => assert!(detail.contains("NaN"), "{detail}"),
            other => panic!("sharded rollup over {region:?}: {other:?}"),
        }
        let served = client.sharded_rollup("fleet", &q, Some(&valid)).unwrap();
        assert!(!served.rows.is_empty(), "the connection still answers");
    }
    server.stop();
}

/// Remote scatter: shard leaves live as plain tenants behind a server;
/// a local coordinator fans out over [`RemoteShards`] (the `Partials`
/// request path) and still merges bit-identically to a single store.
#[test]
fn remote_scatter_gather_matches_single_store() {
    let root = ScratchDir::new("serve-remote-scatter");
    let mut server = Server::bind("127.0.0.1:0", root.path(), serve_config(0)).unwrap();
    let addr = server.addr().to_string();
    let grid = shard_grid();
    let spec = PartitionerSpec::Hash {
        shards: 3,
        grid: Some(grid),
    };
    let records = skewed_records(9);

    // Route records leaf-ward with the same partitioner the coordinator
    // will prune with, ingesting through the served leaders.
    let partitioner = spec.build().unwrap();
    let mut routed: Vec<Vec<Record>> = vec![Vec::new(); 3];
    for r in &records {
        routed[partitioner.route(r)].push(*r);
    }
    for (i, batch) in routed.iter().enumerate() {
        let leader = server
            .leader_with_grid(&format!("leaf-{i}"), Some(grid))
            .unwrap();
        let mut l = leader.lock().unwrap();
        l.ingest(batch).unwrap();
        if i % 2 == 0 {
            l.flush().unwrap(); // mixed durability states across leaves
        }
    }

    let leaves = (0..3)
        .map(|i| RemoteShard::new(addr.clone(), format!("leaf-{i}")))
        .collect();
    let mut coord = Coordinator::new(RemoteShards::new(leaves, Some(grid)), spec).unwrap();
    let single = shard_reference(&records);

    for f in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
        for region in [None, Some(BBox::new(2.0, 2.0, 30.0, 30.0))] {
            let mut q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::Y, f));
            q.region = region;
            let got = coord.eval(&q).unwrap();
            let want = eval_single(&single, Some(grid), &q).unwrap();
            assert_eq!(got.rows.len(), want.len(), "{f:?}");
            for (g, w) in got.rows.iter().zip(&want) {
                assert_eq!((g.granule, g.geo), (w.granule, w.geo));
                assert_eq!(g.value.to_bits(), w.value.to_bits(), "{f:?} bits differ");
            }
            assert_eq!(got.explain.shards_queried, 3, "hash clusters never prune");
        }
    }

    let stats = server.stop();
    assert!(stats.partials_requests >= 10, "scatter must go over TCP");
}

/// Standing queries over the socket: a subscription registered through
/// the front door is evaluated incrementally at the tenant's seal
/// points, catch-up pulls return each seal's notification exactly once,
/// and the served values carry the same bits a local evaluator would.
#[test]
fn standing_queries_over_socket() {
    let root = ScratchDir::new("serve-standing");
    let mut server = Server::bind("127.0.0.1:0", root.path(), serve_config(0)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let rec = |oid: u64, t: i64, x: f64| Record {
        oid: ObjectId(oid),
        t: TimeId(t),
        x,
        y: 0.0,
    };

    // Register before any data: the subscription observes every seal
    // from here on.
    let sub = Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    let id = client.subscribe("acme", &sub).unwrap();

    // Two hours of data, sealed by finish() through the served leader.
    let leader = server.leader("acme").unwrap();
    {
        let mut l = leader.lock().unwrap();
        l.ingest(&[rec(1, 100, 3.0), rec(2, 200, 4.0), rec(1, 3700, 5.0)])
            .unwrap();
        l.finish().unwrap();
    }

    // One pull drains both seal notifications in fold order, and the
    // running value matches the store's own rollup bit for bit.
    let (items, next) = client.notifications("acme", 0).unwrap();
    assert_eq!(items.len(), 2, "{items:?}");
    assert!(items.iter().all(|n| n.sub == id));
    assert_eq!(items[0].value, Some(7.0));
    assert_eq!(items[1].value, Some(12.0));
    assert_eq!(items[1].prev, Some(7.0));
    assert_eq!(next, items[1].seq + 1);
    let q = RollupQuery::new(TimeLevel::All, Measure::X, AggFn::Sum);
    let direct = leader.lock().unwrap().rollup(&q).unwrap();
    assert_eq!(
        direct[0].value.to_bits(),
        items[1].value.unwrap().to_bits(),
        "served standing value must match the batch rollup"
    );

    // The cursor is stable: nothing new, nothing re-delivered.
    let (again, next_again) = client.notifications("acme", next).unwrap();
    assert!(again.is_empty(), "{again:?}");
    assert_eq!(next_again, next);

    // Server-side evaluators are grid-less: a regional subscription is
    // an explicit error naming the missing grid, not a silent miss.
    let regional = Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum)
        .in_region(BBox::new(0.0, 0.0, 4.0, 4.0));
    match client.subscribe("acme", &regional) {
        Err(ClientError::Remote(detail)) => assert!(detail.contains("grid"), "{detail}"),
        other => panic!("regional subscribe on a grid-less server: {other:?}"),
    }

    let stats = server.stop();
    assert_eq!(stats.subscribe_requests, 2);
    assert_eq!(stats.notifications_requests, 2);
    assert_eq!(stats.bad_requests, 1);
}

/// A `Subscribe` whose region has a NaN bound or a minimum above its
/// maximum is refused with the shard reads' region error — before the
/// grid-less server's "needs a grid" refusal, and never admitted as a
/// subscription that cannot fire.
#[test]
fn malformed_subscription_regions_are_refused_over_socket() {
    let root = ScratchDir::new("serve-bad-sub-region");
    let mut server = Server::bind("127.0.0.1:0", root.path(), serve_config(0)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let valid = BBox::new(0.0, 0.0, 4.0, 4.0);
    let nan = BBox {
        min_y: f64::NAN,
        ..valid
    };
    let inverted = BBox {
        min_x: 9.0,
        ..valid
    };
    for region in [nan, inverted] {
        let sub = Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum).in_region(region);
        match client.subscribe("acme", &sub) {
            Err(ClientError::Remote(detail)) => assert!(detail.contains("NaN"), "{detail}"),
            other => panic!("subscribe over {region:?}: {other:?}"),
        }
    }
    let whole = Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    client.subscribe("acme", &whole).unwrap();
    let stats = server.stop();
    assert_eq!(stats.subscribe_requests, 3);
    assert_eq!(stats.bad_requests, 2);
}

/// A busy server answers `Busy`, and the transport maps it to a
/// retryable `Unavailable` — load shedding never kills replication.
#[test]
fn busy_reply_is_retryable_for_transports() {
    let root = ScratchDir::new("serve-busy");
    let config = ServeConfig::with_caps(
        StreamConfig::new(0, 3600).unwrap(),
        store_config(0),
        16,
        16,
        1, // quota of one: the parked request saturates the tenant
    );
    let mut server = Server::bind("127.0.0.1:0", root.path(), config).unwrap();
    let leader = server.leader("acme").unwrap();
    leader
        .lock()
        .unwrap()
        .ingest(workload(3).records())
        .unwrap();

    let addr = server.addr();
    let guard = leader.lock().unwrap();
    let parked = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
        c.rollup("acme", &q).map(|r| r.len())
    });
    let t0 = std::time::Instant::now();
    while server.stats().rollup_requests == 0 {
        assert!(t0.elapsed().as_secs() < 10, "parked request never arrived");
        std::thread::yield_now();
    }

    let mut transport = TcpTransport::new(addr.to_string(), "acme");
    let request = gisolap_repl::Request::Frames {
        from_seq: 0,
        max: 4,
        epoch: 0,
    }
    .encode();
    match transport.exchange(&request) {
        Err(gisolap_repl::TransportError::Unavailable(msg)) => {
            assert!(msg.contains("busy"), "{msg}")
        }
        other => panic!("expected retryable Unavailable, got {other:?}"),
    }

    drop(guard);
    assert!(parked.join().unwrap().unwrap() > 0);
    let stats = server.stop();
    assert!(stats.quota_rejections >= 1);
}

/// Every `ServeStats` counter has a live writer. One server, capped at
/// four connections, two requests in flight and one per tenant, serves
/// each request type once and refuses an inadmissible tenant. A rollup
/// parked on tenant `hog`'s leader lock then fills `hog`'s quota, a
/// second parked on `hog2` fills the in-flight cap, and a fifth
/// connection finds the connection cap full.
#[test]
fn every_serve_counter_has_a_live_writer() {
    let root = ScratchDir::new("serve-liveness");
    let config = ServeConfig::with_caps(
        StreamConfig::new(0, 3600).unwrap(),
        store_config(0),
        4,
        2,
        1,
    );
    let mut server = Server::bind("127.0.0.1:0", root.path(), config).unwrap();
    let addr = server.addr();
    let leader = server.leader("acme").unwrap();
    leader
        .lock()
        .unwrap()
        .ingest(workload(3).records())
        .unwrap();

    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
    let mut client = Client::connect(addr).unwrap();
    client.ping("acme").unwrap();
    assert!(!client.rollup("acme", &q).unwrap().is_empty());
    assert!(!client.partials("acme", None, None).unwrap().is_empty());
    let sub = Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    client.subscribe("acme", &sub).unwrap();
    client.notifications("acme", 0).unwrap();
    // A plain tenant holds no shard cluster, and `..` is no tenant.
    assert!(client.sharded_rollup("acme", &q, None).is_err());
    assert!(client.ping("..").is_err());
    let transport = TcpTransport::new(addr.to_string(), "acme");
    let mut follower = Follower::memory(transport, None, follower_config());
    follower.sync(64).unwrap();

    // A parked rollup holds its in-flight and tenant slots while it
    // waits for a leader lock the test holds.
    let hog = server.leader("hog").unwrap();
    let hog2 = server.leader("hog2").unwrap();
    let guards = (hog.lock().unwrap(), hog2.lock().unwrap());
    let park = |tenant: &'static str| {
        let before = server.stats().rollup_requests;
        let parked = std::thread::spawn(move || Client::connect(addr).unwrap().rollup(tenant, &q));
        let t0 = std::time::Instant::now();
        while server.stats().rollup_requests == before {
            assert!(
                t0.elapsed().as_secs() < 10,
                "{tenant}'s rollup never arrived"
            );
            std::thread::yield_now();
        }
        parked
    };
    let busy = |reply: Result<(), ClientError>, cap: &str| match reply {
        Err(ClientError::Busy(detail)) => assert!(detail.contains(cap), "{detail}"),
        other => panic!("expected Busy at the {cap} cap, got {other:?}"),
    };
    let mut parked = vec![park("hog")];
    busy(client.ping("hog"), "quota");
    parked.push(park("hog2"));
    busy(client.ping("acme"), "in-flight");
    // Open now: `client`, the follower's and the two parked: the cap.
    busy(Client::connect(addr).unwrap().ping("acme"), "connections");
    drop(guards);
    for parked in parked {
        assert!(parked.join().unwrap().is_ok());
    }

    let stats = server.stop();
    assert!(
        dead_counters(&stats).is_empty(),
        "ServeStats: {:?}",
        dead_counters(&stats)
    );
}
