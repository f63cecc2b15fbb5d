#[test]
fn readme_streaming_snippet_compiles_and_runs() {
    use gisolap_datagen::{replay_fig1, ReplayConfig};
    use gisolap_olap::{agg::AggFn, time::TimeLevel};
    use gisolap_stream::{Measure, RollupQuery, StreamConfig, StreamIngest};

    let (s, batches) = replay_fig1(&ReplayConfig {
        shuffle_seconds: 120,
        batch_size: 8,
        seed: 1,
    });
    let mut ingest = StreamIngest::new(StreamConfig::new(120, 3600).unwrap()).unwrap();
    for batch in &batches {
        ingest.ingest(batch);
    }
    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
    let per_hour = ingest.rollup(&q).unwrap();
    assert_eq!(
        per_hour.iter().map(|r| r.value as usize).sum::<usize>(),
        s.moft.records().len(),
    );
    let snapshot = ingest.snapshot().unwrap();
    let _engine = gisolap_core::OverlayEngine::from_snapshot(&s.gis, &snapshot);
}

#[test]
fn readme_persistence_snippet_compiles_and_runs() {
    use gisolap_datagen::{replay_fig1, ReplayConfig};
    use gisolap_olap::{agg::AggFn, time::TimeLevel};
    use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig};
    use gisolap_stream::{Measure, RollupQuery, StreamConfig, StreamIngest};
    use std::sync::Arc;

    // Setup from the streaming snippet: batches and the expected rollup.
    let (_s, batches) = replay_fig1(&ReplayConfig {
        shuffle_seconds: 120,
        batch_size: 8,
        seed: 1,
    });
    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
    let mut reference = StreamIngest::new(StreamConfig::new(120, 3600).unwrap()).unwrap();
    for batch in &batches {
        reference.ingest(batch);
    }
    let per_hour = reference.rollup(&q).unwrap();

    // README uses a fixed temp-dir name; the test needs a unique one.
    let scratch = ScratchDir::new("readme-snippet");
    let dir = scratch.path().to_path_buf();
    let stream_cfg = StreamConfig::new(120, 3600).unwrap();

    // Create-or-recover: the second open of the same directory recovers.
    let (mut durable, recovery) = DurableIngest::open(
        Arc::new(RealFs),
        &dir,
        stream_cfg,
        StoreConfig::from_env(),
        None,
    )
    .unwrap();
    assert!(recovery.is_none()); // fresh directory → created

    for batch in &batches {
        durable.ingest(batch).unwrap(); // WAL first, then applied
    }
    durable.flush().unwrap(); // segments + checkpoint + manifest publish
    drop(durable); // "crash"

    let (recovered, report) = DurableIngest::open(
        Arc::new(RealFs),
        &dir,
        stream_cfg,
        StoreConfig::from_env(),
        None,
    )
    .unwrap();
    let report = report.expect("manifest found → recovered");
    assert_eq!(recovered.rollup(&q).unwrap(), per_hour); // bit-identical
    println!("replayed {} WAL entries", report.wal_entries_replayed);
}

#[test]
fn readme_observability_snippet_compiles_and_runs() {
    use gisolap_core::{engine_metrics, explain_analyze, IndexedEngine, QueryObs};
    use gisolap_datagen::Fig1Scenario;

    let s = Fig1Scenario::build();
    let engine = IndexedEngine::new(&s.gis, &s.moft).with_obs(QueryObs::traced()); // span tracing on
    let region = Fig1Scenario::remark1_region();

    // EXPLAIN ANALYZE: the plan annotated with actual rows, per-phase
    // counter deltas and wall times.
    let ea = explain_analyze(&engine, &region).unwrap();
    println!("{ea}");
    // Counter conservation: the span tree partitions the query's delta.
    assert_eq!(ea.root.total("records_scanned"), ea.delta.records_scanned);

    // Prometheus text exposition of every counter + latency histogram.
    let prom = engine_metrics(&engine);
    assert!(prom.contains("gisolap_queries_total{engine=\"indexed\"} 1"));
}

#[test]
fn readme_indexing_snippet_compiles_and_runs() {
    use gisolap_core::{
        explain, IndexedEngine, NaiveEngine, QueryEngine, RegionC, SpatialPredicate, TimePredicate,
    };
    use gisolap_datagen::Fig1Scenario;

    let s = Fig1Scenario::build();

    // A selective region x time query: low-income neighborhoods, early
    // timeline. The absolute window is what the interval tree prunes on.
    let region = RegionC::all()
        .with_time(TimePredicate::Between(s.t[0], s.t[2]))
        .with_spatial(SpatialPredicate::in_layer(
            "Ln",
            Fig1Scenario::low_income_filter(),
        ));

    // Indexed/overlay engines build the MoftIndex at construction; the
    // naive engine never does and stays the scan reference.
    let indexed = IndexedEngine::new(&s.gis, &s.moft);
    println!("{}", explain(&indexed, &region).unwrap());
    // ... 2. consult the MOFT index: interval tree over 6 object extent(s) ...

    // The contract: the index only decides what is *skipped*, never what
    // is answered — results are bit-identical to the index-free scan.
    let scan = NaiveEngine::new(&s.gis, &s.moft);
    assert_eq!(indexed.eval(&region).unwrap(), scan.eval(&region).unwrap());

    // The pruning shows up in the index counters (always 0 on the scan).
    assert!(indexed.stats().snapshot().index_interval_probes >= 1);
    assert_eq!(scan.stats().snapshot().index_interval_probes, 0);
}

#[test]
fn readme_serving_snippet_compiles_and_runs() {
    use gisolap_datagen::{replay_fig1, ReplayConfig};
    use gisolap_olap::{agg::AggFn, time::TimeLevel};
    use gisolap_repl::{Follower, FollowerConfig};
    use gisolap_serve::{Client, ServeConfig, Server, TcpTransport};
    use gisolap_store::{ScratchDir, StoreConfig};
    use gisolap_stream::{Measure, RollupQuery, StreamConfig, StreamIngest};

    // Setup from the streaming snippet: batches and the expected rollup.
    let (_s, batches) = replay_fig1(&ReplayConfig {
        shuffle_seconds: 120,
        batch_size: 8,
        seed: 1,
    });
    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
    let mut reference = StreamIngest::new(StreamConfig::new(120, 3600).unwrap()).unwrap();
    for batch in &batches {
        reference.ingest(batch);
    }
    let per_hour = reference.rollup(&q).unwrap();

    // README uses a fixed temp-dir name; the test needs a unique one.
    let scratch = ScratchDir::new("readme-serve-snippet");
    let root = scratch.path().to_path_buf();

    // --- the README snippet, verbatim from here ---
    let config = ServeConfig::from_env(
        StreamConfig::new(120, 3600).unwrap(),
        StoreConfig::from_env(),
    );
    let mut server = Server::bind("127.0.0.1:0", &root, config).unwrap();

    // Tenant stores open lazily (create-or-recover) on first touch.
    let leader = server.leader("acme").unwrap();
    {
        let mut l = leader.lock().unwrap();
        for batch in &batches {
            l.ingest(batch).unwrap();
        }
        l.flush().unwrap();
    }

    // A client evaluates rollups over the socket — values travel as
    // IEEE-754 bit patterns, so the answer is bit-identical.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.rollup("acme", &q).unwrap(), per_hour);

    // And a follower tails the served leader cross-process: TcpTransport
    // is the same `Transport` the in-process stack uses, so retry,
    // backoff and convergence carry over a real socket unchanged.
    let transport = TcpTransport::new(server.addr().to_string(), "acme");
    // Not in the README (it would only slow the prose down): the test
    // disables backoff sleeps to stay fast.
    let follower_config = FollowerConfig {
        backoff_base_ms: 0,
        ..FollowerConfig::default()
    };
    let mut follower = Follower::memory(transport, None, follower_config);
    follower.sync(1000).unwrap();
    assert_eq!(follower.rollup(&q).unwrap(), per_hour);

    server.stop(); // EOFs every connection at a message boundary, joins workers
}

#[test]
fn readme_sharding_snippet_compiles_and_runs() {
    use gisolap_datagen::movers::SkewedFleet;
    use gisolap_geom::BBox;
    use gisolap_olap::{agg::AggFn, time::TimeLevel};
    use gisolap_shard::{
        eval_single, ClusterExecutor, Coordinator, GridSpec, PartitionerSpec, ShardQuery,
        ShardedIngest,
    };
    use gisolap_store::{RealFs, ScratchDir, StoreConfig};
    use gisolap_stream::{Measure, RollupQuery, StreamConfig, StreamIngest};
    use std::sync::Arc;

    // Setup the README assumes: time-sorted `records` over `area`, a
    // rollup `q` and a selective `region` in the bottom-left row-block
    // of the grid (so three of four shards are prunable).
    let area = BBox::new(0.0, 0.0, 64.0, 64.0);
    let mut records = SkewedFleet::new(area, BBox::new(4.0, 4.0, 20.0, 20.0), 12)
        .generate(0)
        .records()
        .to_vec();
    records.sort_by_key(|r| (r.t, r.oid));
    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    let region = BBox::new(1.0, 1.0, 15.0, 15.0);
    // README uses a fixed temp-dir name; the test needs a unique one.
    let scratch = ScratchDir::new("readme-shard-snippet");
    let root = scratch.path().to_path_buf();

    // --- the README snippet, verbatim from here ---
    let grid = GridSpec::new(area, 4, 4).unwrap();
    let spec = PartitionerSpec::Spatial { shards: 4, grid };
    let mut cluster = ShardedIngest::create(
        Arc::new(RealFs),
        &root,
        spec,
        StreamConfig::new(120, 3600).unwrap(),
        StoreConfig::from_env(),
    )
    .unwrap();
    cluster.ingest(&records).unwrap(); // routed to per-shard durable stores

    let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
    let result = coord.eval(&ShardQuery::new(q).in_region(region)).unwrap();
    println!("{}", result.explain); // shards: 1 queried, 3 pruned of 4; ...
                                    // --- end of the verbatim snippet ---

    assert_eq!(result.explain.shards_queried, 1);
    assert_eq!(result.explain.shards_pruned, 3);
    // Bit-identical to one unsharded store, as the README claims.
    let mut single = StreamIngest::new(StreamConfig::new(120, 3600).unwrap())
        .unwrap()
        .with_resolver(grid.resolver());
    single.ingest(&records);
    let want = eval_single(&single, Some(grid), &ShardQuery::new(q).in_region(region)).unwrap();
    assert_eq!(result.rows, want);
    assert!(!result.rows.is_empty());
}

#[test]
fn readme_replication_snippet_compiles_and_runs() {
    use gisolap_datagen::{replay_fig1, ReplayConfig};
    use gisolap_olap::{agg::AggFn, time::TimeLevel};
    use gisolap_repl::{
        DirectTransport, FaultConfig, FaultTransport, Follower, FollowerConfig, LagBounded, Leader,
    };
    use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig};
    use gisolap_stream::{Measure, RollupQuery, StreamConfig, StreamIngest};
    use std::sync::{Arc, Mutex};

    // Setup from the persistence snippet: a loaded `durable` plus the
    // expected rollup.
    let (_s, batches) = replay_fig1(&ReplayConfig {
        shuffle_seconds: 120,
        batch_size: 8,
        seed: 1,
    });
    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
    let mut reference = StreamIngest::new(StreamConfig::new(120, 3600).unwrap()).unwrap();
    for batch in &batches {
        reference.ingest(batch);
    }
    let per_hour = reference.rollup(&q).unwrap();

    let scratch = ScratchDir::new("readme-repl-snippet");
    let (mut durable, recovery) = DurableIngest::open(
        Arc::new(RealFs),
        &scratch.path().join("store"),
        StreamConfig::new(120, 3600).unwrap(),
        StoreConfig::from_env(),
        None,
    )
    .unwrap();
    assert!(recovery.is_none());
    for batch in &batches {
        durable.ingest(batch).unwrap();
    }
    durable.flush().unwrap();

    // --- the README snippet, verbatim from here ---
    let leader = Arc::new(Mutex::new(Leader::new(durable)));

    let transport = FaultTransport::new(
        DirectTransport::new(leader.clone()),
        FaultConfig {
            drop_permille: 100,
            flip_permille: 50,
            seed: 7,
            ..FaultConfig::default()
        },
    );
    let config = FollowerConfig {
        max_lag_seqs: Some(64),
        // Not in the README (it would only slow the prose down): the
        // test disables backoff sleeps to stay fast.
        backoff_base_ms: 0,
        ..FollowerConfig::default()
    };
    let mut follower = Follower::memory(transport, None, config);

    follower.sync(1000).unwrap();
    assert!(follower.caught_up());
    assert_eq!(follower.rollup(&q).unwrap(), per_hour);

    match follower.rollup_bounded(&q).unwrap() {
        LagBounded::Fresh { value, .. } => assert_eq!(value, per_hour),
        LagBounded::Stale { lag } => println!("replica {lag:?} behind — degrade explicitly"),
    }
}

#[test]
fn readme_standing_query_snippet_compiles_and_runs() {
    use gisolap_datagen::EventCrowd;
    use gisolap_geom::BBox;
    use gisolap_olap::{agg::AggFn, time::TimeLevel};
    use gisolap_shard::GridSpec;
    use gisolap_stream::{Measure, StreamConfig, StreamIngest};
    use gisolap_sub::{StandingEvaluator, Subscription};

    // --- the README snippet, verbatim from here ---
    // A bursty crowd: everyone converges on the venue for the event hours.
    let area = BBox::new(0.0, 0.0, 64.0, 64.0);
    let venue = BBox::new(36.0, 36.0, 44.0, 44.0);
    let mut records = EventCrowd::new(area, venue, 32)
        .generate(0)
        .records()
        .to_vec();
    records.sort_by_key(|r| (r.t, r.oid));

    // COUNT over the venue's grid cell for the trailing 2 hours; alert when
    // the crowd reaches 100, clear when it falls back to 20 (hysteresis —
    // a value hovering near the line cannot flap).
    let grid = GridSpec::new(area, 2, 2).unwrap();
    let mut evaluator = StandingEvaluator::new(Some(grid));
    let sub = Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count)
        .in_region(venue)
        .over_hours(2)
        .with_threshold(100.0, 20.0);
    let id = evaluator.register(sub.clone()).unwrap();

    // Sync after each batch: every new seal's window is read straight off
    // the pipeline's cube — no copy of the cells, no batch recomputation.
    let mut pipeline = StreamIngest::new(StreamConfig::new(0, 3600).unwrap())
        .unwrap()
        .with_resolver(grid.resolver());
    for batch in records.chunks(256) {
        pipeline.ingest(batch);
        evaluator.sync_pipeline(&pipeline);
    }
    pipeline.finish();
    evaluator.sync_pipeline(&pipeline);

    // The standing value is live; notifications carry the window rollup,
    // the previous value (the delta to alert on) and threshold crossings.
    println!("venue count now: {:?}", evaluator.value(id));
    let (notifications, _next) = evaluator.notifications_since(0);
    assert!(notifications.iter().any(|n| n.crossing.is_some())); // the burst fired

    // The contract: values are the batch query's, bit for bit. A second
    // evaluator reading the whole sealed history in one sync agrees.
    let mut replay = StandingEvaluator::new(Some(grid));
    let replay_id = replay.register(sub).unwrap();
    replay.sync_pipeline(&pipeline);
    assert_eq!(
        replay.value(replay_id).map(f64::to_bits),
        evaluator.value(id).map(f64::to_bits),
    );
}
