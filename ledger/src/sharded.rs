//! The five workloads over the sharded fleet cluster: `ingest_flush`,
//! `cold_open`, `serve_selective`, `serve_whole`, `mixed_rw`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeDimension, TimeId, TimeLevel};
use gisolap_serve::wire::{self, ServeReply, ServeRequest};
use gisolap_serve::{Client, ServeConfig, Server};
use gisolap_shard::{
    eval_single, filter_region, filter_window, shard_dir, ClusterExecutor, Coordinator, ShardQuery,
    ShardedIngest,
};
use gisolap_store::codec::{self, FileKind};
use gisolap_store::{wal, DurableIngest, ScratchDir};
use gisolap_stream::{DeltaCube, Measure, ReplayOp, RollupQuery, RollupRow, Segment, StreamIngest};
use gisolap_traj::Record;

use crate::fixtures::{
    bench_fs, cold_region, create_cluster, fixture_hash, grid, store_config, stream_config, Fleet,
    BATCH, SHARDS,
};
use crate::harness::{
    dir_bytes, fingerprint, ns, rows_identical, run_passes, timed_setup, with_default_threads,
    Outcome, RunCfg, TRACED_PASSES,
};
use crate::stats::{bench_ns, mean, median, summarize, Pass, Tracer};

/// The cluster's tenant name under the server root.
const TENANT: &str = "fleet";
/// Batches between flushes on every write path.
const FLUSH_EVERY: usize = 64;
/// The paced writer's fixed rate (batches of [`BATCH`] records per
/// second): about an eighth of what `ingest_flush` sustains here.
const WRITER_BATCHES_PER_S: f64 = 112.0;

/// The reader mix: `Hour`/`Day` × `Count`/`Sum`/`Avg` over `X`.
fn query_mix() -> Vec<RollupQuery> {
    let mut mix = Vec::new();
    for level in [TimeLevel::Hour, TimeLevel::Day] {
        for f in [AggFn::Count, AggFn::Sum, AggFn::Avg] {
            mix.push(RollupQuery::new(level, Measure::X, f));
        }
    }
    mix
}

fn ingest_batches(cluster: &mut ShardedIngest, batches: &[Vec<Record>]) {
    for (i, b) in batches.iter().enumerate() {
        cluster.ingest(b).expect("fixture ingest");
        if (i + 1) % FLUSH_EVERY == 0 {
            cluster.flush().expect("fixture flush");
        }
    }
}

/// The single-store oracle: one unsharded pipeline fed the same batches
/// in the same order.
fn oracle(batches: &[Vec<Record>], finish: bool) -> StreamIngest {
    let mut single = StreamIngest::new(stream_config())
        .expect("oracle pipeline")
        .with_resolver(grid().resolver());
    for b in batches {
        single.ingest(b);
    }
    if finish {
        single.finish();
    }
    single
}

fn shard_query(q: &RollupQuery, region: Option<&BBox>) -> ShardQuery {
    let mut sq = ShardQuery::new(*q);
    sq.region = region.copied();
    sq
}

/// Counts every answer in `got` that is not bit-identical to the
/// oracle's.
fn mismatches_vs_oracle(
    single: &StreamIngest,
    region: Option<&BBox>,
    got: &[(RollupQuery, Vec<RollupRow>)],
) -> u64 {
    got.iter()
        .filter(|(q, rows)| {
            let want = eval_single(single, Some(grid()), &shard_query(q, region));
            !want.is_ok_and(|w| rows_identical(&w, rows))
        })
        .count() as u64
}

fn eval_whole(cluster: &ShardedIngest, q: &RollupQuery) -> Option<Vec<RollupRow>> {
    Coordinator::new(ClusterExecutor::new(cluster), cluster.spec())
        .and_then(|mut c| c.eval(&ShardQuery::new(*q)))
        .map(|r| r.rows)
        .ok()
}

// --- ingest_flush -------------------------------------------------------

/// One full replay into a fresh store: per-batch ingest latencies, the
/// failures, and the wall of the whole replay (store creation excluded,
/// flushes, finish and compaction included).
fn replay(root: &Path, fleet: &Fleet, lat: &mut Vec<u64>) -> (ShardedIngest, u64, Duration) {
    let mut cluster = create_cluster(root);
    let mut failed = 0u64;
    let t0 = Instant::now();
    for (i, b) in fleet.batches.iter().enumerate() {
        let t = Instant::now();
        let ok = cluster.ingest(b).is_ok();
        let took = ns(t);
        let flushed = (i + 1) % FLUSH_EVERY != 0 || cluster.flush().is_ok();
        if ok && flushed {
            lat.push(took);
        } else {
            failed += 1;
        }
    }
    let closed = cluster.finish().is_ok() && cluster.flush().is_ok() && cluster.compact().is_ok();
    failed += u64::from(!closed);
    (cluster, failed, t0.elapsed())
}

/// The same replay with `ShardedIngest::ingest` replaced by its parts:
/// route, then one `DurableIngest::ingest` per shard.
fn replay_traced(root: &Path, fleet: &Fleet, tr: &mut Tracer) -> ShardedIngest {
    let mut cluster = create_cluster(root);
    for (i, b) in fleet.batches.iter().enumerate() {
        let op = tr.begin_op();
        let routed = tr.span("shard.route", || {
            let mut routed: Vec<Vec<Record>> = vec![Vec::new(); cluster.shard_count()];
            for r in b {
                routed[cluster.partitioner().route(r)].push(*r);
            }
            routed
        });
        for (shard, records) in cluster.shards_mut().iter_mut().zip(&routed) {
            if !records.is_empty() {
                tr.span("store.durable_ingest", || {
                    shard.ingest(records).expect("traced ingest")
                });
            }
        }
        if (i + 1) % FLUSH_EVERY == 0 {
            tr.span("store.flush", || cluster.flush().expect("traced flush"));
        }
        tr.close(op);
    }
    let op = tr.begin_op();
    tr.span("stream.finish", || cluster.finish().expect("traced finish"));
    tr.span("store.flush", || cluster.flush().expect("traced flush"));
    tr.span("store.compact", || {
        cluster.compact().expect("traced compact")
    });
    tr.close(op);
    cluster
}

pub fn ingest_flush(cfg: &RunCfg) -> Outcome {
    let (fleet, setup_s) = timed_setup(cfg.setup_reps, || Fleet::generate(cfg.seed, &cfg.sizes));
    let scratch = ScratchDir::new("ledger-ingest");
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut replays = 0usize;
    let mut last: Option<ShardedIngest> = None;
    // Flush, finish and compaction are file-system work whose time on
    // this disk drifts by tens of percent between identical runs, so the
    // bounded throughput counts the ingest calls alone (WAL append,
    // routing, watermark, seal); the whole replay is `records_per_s`.
    out.passes = run_passes(cfg, cfg.untraced_passes(), |boxed| {
        let t_pass = Instant::now();
        let (mut lat, mut failed, mut wall) = (Vec::new(), 0, Duration::ZERO);
        loop {
            if let Some(old) = last.take() {
                let dir = old.root().to_path_buf();
                drop(old);
                let _ = std::fs::remove_dir_all(dir);
            }
            let root = scratch.path().join(format!("r{replays}"));
            replays += 1;
            let (cluster, f, w) = replay(&root, &fleet, &mut lat);
            last = Some(cluster);
            failed += f;
            wall += w;
            if t_pass.elapsed() >= boxed {
                break;
            }
        }
        let ingesting = lat.iter().sum::<u64>() as f64 / 1e9;
        let records = lat.len() as u64 * BATCH as u64;
        Pass {
            busy_s: ingesting,
            ..Pass::from_kinds(&mut [lat], failed, wall.as_secs_f64(), records)
        }
    });

    let cluster = last.expect("at least one replay");
    let t_verify = Instant::now();
    let got: Vec<_> = query_mix()
        .into_iter()
        .map(|q| (q, eval_whole(&cluster, &q).unwrap_or_default()))
        .collect();
    out.mismatches = mismatches_vs_oracle(&oracle(&fleet.batches, true), None, &got);
    out.verify_s = t_verify.elapsed().as_secs_f64();
    out.note("records", fleet.records());
    out.note(
        "fixture_hash",
        format!("{:016x}", fixture_hash(&fleet.batches)),
    );
    out.note("batches", fleet.batches.len());
    out.note("replays", replays);

    if cfg.trace {
        let records = fleet.records() as f64;
        let disk = dir_bytes(cluster.root());
        let by_ext = |ext: &str| -> f64 {
            (0..cluster.shard_count())
                .flat_map(|i| std::fs::read_dir(shard_dir(cluster.root(), i)).ok())
                .flatten()
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        };
        let store: Vec<_> = cluster.shards().iter().map(|s| s.store_stats()).collect();
        let ingest: Vec<_> = cluster.shards().iter().map(|s| s.ingest_stats()).collect();
        let wal_bytes: u64 = store.iter().map(|s| s.wal_bytes).sum();
        let flush_bytes: u64 = store.iter().map(|s| s.flush_bytes).sum();
        out.set("store.wal_bytes", wal_bytes as f64);
        out.set("store.segment_bytes", by_ext("seg"));
        out.set("store.checkpoint_bytes", by_ext("ck") + by_ext("ckd"));
        out.set(
            "store.flushes",
            store
                .iter()
                .map(|s| s.checkpoints + s.delta_checkpoints)
                .sum::<u64>() as f64,
        );
        out.set(
            "store.write_amplification",
            (wal_bytes as f64 + flush_bytes as f64 + by_ext("seg")) / (records * 32.0),
        );
        out.set(
            "store.disk_bytes_per_record",
            disk as f64 / (records * 32.0),
        );
        out.set(
            "stream.segments_sealed",
            ingest.iter().map(|s| s.segments_sealed).sum::<u64>() as f64,
        );
        out.set(
            "stream.late_dropped",
            ingest.iter().map(|s| s.late_dropped).sum::<u64>() as f64,
        );

        // Layer micro-measurements on the inputs the replay used.
        let segments: &[Segment] = cluster.shards()[0].pipeline().segments();
        let encoded: Vec<Vec<u8>> = segments.iter().map(codec::encode_segment).collect();
        let seg_bytes: usize = encoded.iter().map(Vec::len).sum();
        let t = bench_ns(150, || segments.iter().map(codec::encode_segment).count());
        out.set("store.segment_encode_mb_s", seg_bytes as f64 / t * 1e3);
        let blob: Vec<u8> = encoded.concat();
        let t = bench_ns(80, || codec::crc32(&blob));
        out.set("store.crc32_mb_s", blob.len() as f64 / t * 1e3);
        let t = bench_ns(150, || Segment::merged(segments).map(|s| s.records().len()));
        out.set("stream.segment_merged_ms", t / 1e6);
        let batch = &fleet.batches[fleet.batches.len() / 2];
        let t = bench_ns(80, || {
            codec::frame(&codec::encode_wal_entry(7, &ReplayOp::Batch(batch.clone())))
        });
        out.set("store.wal_encode_ns_per_record", t / batch.len() as f64);
        let t = median(
            &(0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(oracle(&fleet.batches, true));
                    ns(t0) as f64
                })
                .collect::<Vec<_>>(),
        );
        out.set("stream.ingest_ns_per_record", t / records);
        drop(cluster);

        // Traced replays: the composed call replaced by its parts.
        let mut tr = Tracer::new();
        for i in 0..TRACED_PASSES {
            let root = scratch.path().join(format!("t{i}"));
            drop(replay_traced(&root, &fleet, &mut tr));
            let _ = std::fs::remove_dir_all(root);
        }
        let sum = summarize(&tr.spans);
        let per_record = BATCH as f64;
        out.set(
            "shard.route_ns_per_record",
            sum.get("shard.route").self_ns / per_record,
        );
        out.set(
            "store.durable_ingest_ns_per_record",
            sum.get("store.durable_ingest").self_ns / per_record,
        );
        out.set("store.flush_ms", sum.get("store.flush").self_ns / 1e6);
        out.set("store.compact_ms", sum.get("store.compact").self_ns / 1e6);
        out.set_coverage(sum.staged_ns, sum.op_ns);
        out.spans = tr.spans;
    }
    out
}

// --- cold_open ----------------------------------------------------------

struct Closed {
    fleet: Fleet,
    scratch: ScratchDir,
    /// Whole-area answers just before the cluster was closed.
    before: Vec<(RollupQuery, Vec<RollupRow>)>,
}

impl Closed {
    /// The first two thirds (days) flushed; the last only in the WAL.
    fn build(cfg: &RunCfg) -> Closed {
        let fleet = Fleet::generate(cfg.seed, &cfg.sizes);
        let scratch = ScratchDir::new("ledger-open");
        let mut cluster = create_cluster(&scratch.path().join(TENANT));
        let cut = fleet.last_third_start();
        ingest_batches(&mut cluster, &fleet.batches[..cut]);
        cluster.flush().expect("fixture flush");
        for b in &fleet.batches[cut..] {
            cluster.ingest(b).expect("fixture ingest");
        }
        let before = query_mix()
            .into_iter()
            .map(|q| (q, eval_whole(&cluster, &q).expect("pre-close eval")))
            .collect();
        Closed {
            fleet,
            scratch,
            before,
        }
    }

    fn root(&self) -> std::path::PathBuf {
        self.scratch.path().join(TENANT)
    }
}

fn open_cluster(root: &Path) -> Option<ShardedIngest> {
    ShardedIngest::open(bench_fs(), root, stream_config(), store_config())
        .map(|(c, _)| c)
        .ok()
}

pub fn cold_open(cfg: &RunCfg) -> Outcome {
    let (fx, setup_s) = timed_setup(cfg.setup_reps, || Closed::build(cfg));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let root = fx.root();
    let (q0, before0) = (&fx.before[0].0, fingerprint(&fx.before[0].1));
    out.passes = run_passes(cfg, cfg.untraced_passes(), |boxed| {
        let t_pass = Instant::now();
        let (mut lat, mut failed) = (Vec::new(), 0u64);
        while t_pass.elapsed() < boxed {
            let t = Instant::now();
            let cluster = open_cluster(&root);
            let rows = cluster.as_ref().and_then(|c| eval_whole(c, q0));
            let took = ns(t);
            match rows {
                Some(rows) if fingerprint(&rows) == before0 => lat.push(took),
                _ => failed += 1,
            }
        }
        Pass::from_kinds(&mut [lat], failed, t_pass.elapsed().as_secs_f64(), 0)
    });

    // The reopened cluster answers what the closed one did, and what a
    // single store fed the same records answers.
    let t_verify = Instant::now();
    let reopened = open_cluster(&root).expect("verification open");
    let after: Vec<_> = query_mix()
        .into_iter()
        .map(|q| (q, eval_whole(&reopened, &q).unwrap_or_default()))
        .collect();
    out.mismatches = after
        .iter()
        .zip(&fx.before)
        .filter(|(a, b)| !rows_identical(&a.1, &b.1))
        .count() as u64
        + mismatches_vs_oracle(&oracle(&fx.fleet.batches, false), None, &after);
    drop(reopened);
    out.verify_s = t_verify.elapsed().as_secs_f64();
    out.note("records", fx.fleet.records());
    out.note(
        "fixture_hash",
        format!("{:016x}", fixture_hash(&fx.fleet.batches)),
    );
    out.note(
        "wal_tail_batches",
        fx.fleet.batches.len() - fx.fleet.last_third_start(),
    );

    if cfg.trace {
        let records = fx.fleet.records() as f64;
        out.set(
            "store.disk_bytes_per_record",
            dir_bytes(&root) as f64 / (records * 32.0),
        );
        let mut tr = Tracer::new();
        for _ in 0..TRACED_PASSES {
            let t_pass = Instant::now();
            while t_pass.elapsed() < cfg.pass_box() && !tr.full() {
                let op = tr.begin_op();
                let cluster = tr.span("shard.open", || open_cluster(&root).expect("traced open"));
                tr.span("shard.coordinator_eval", || eval_whole(&cluster, q0));
                tr.close(op);
            }
        }
        let sum = summarize(&tr.spans);
        out.set("shard.open_ms", sum.get("shard.open").self_ns / 1e6);
        out.set(
            "shard.coordinator_eval_us",
            sum.get("shard.coordinator_eval").self_ns / 1e3,
        );
        out.set_coverage(sum.staged_ns, sum.op_ns);
        out.spans = tr.spans;

        let unpinned = with_default_threads(|| {
            bench_ns(200, || open_cluster(&root).and_then(|c| eval_whole(&c, q0)))
        });
        out.set("harness.default_threads_p50_us", unpinned / 1e3);

        // The store calls `open` is made of, per shard directory.
        let fs = bench_fs();
        let (mut recover, mut scan, mut tail, mut seg_ns, mut seg_bytes) =
            (Vec::new(), Vec::new(), Vec::new(), 0.0, 0usize);
        for i in 0..SHARDS as usize {
            let dir = shard_dir(&root, i);
            recover.push(bench_ns(60, || {
                DurableIngest::recover(fs.clone(), &dir, store_config(), Some(grid().resolver()))
                    .map(|(d, _)| d.next_seq())
                    .expect("shard recover")
            }));
            let file = |name: &str, kind: FileKind| -> Vec<u8> {
                let bytes = std::fs::read(dir.join(name)).expect("store file");
                let body = codec::check_header(&bytes, kind, name).expect("store header");
                codec::read_single_frame(body, name)
                    .expect("store frame")
                    .to_vec()
            };
            let manifest =
                codec::decode_manifest(&file("MANIFEST", FileKind::Manifest), "MANIFEST")
                    .expect("manifest");
            scan.push(bench_ns(40, || {
                wal::scan(
                    fs.as_ref(),
                    &dir.join(&manifest.wal),
                    manifest.wal_start_seq,
                )
                .map(|s| s.entries.len())
                .expect("wal scan")
            }));
            if let Some(ck) = &manifest.checkpoint {
                tail.push(bench_ns(20, || {
                    let mut t = codec::decode_tail(&file(ck, FileKind::Checkpoint), ck)
                        .expect("checkpoint");
                    for d in &manifest.checkpoint_deltas {
                        codec::decode_tail_delta(&file(d, FileKind::CheckpointDelta), d)
                            .expect("checkpoint delta")
                            .apply(&mut t);
                    }
                    t.records_ingested
                }));
            }
            let raw: Vec<(Vec<u8>, &str)> = manifest
                .segments
                .iter()
                .map(|e| (std::fs::read(dir.join(&e.file)).expect("segment"), &*e.file))
                .collect();
            seg_bytes += raw.iter().map(|(b, _)| b.len()).sum::<usize>();
            seg_ns += bench_ns(60, || {
                raw.iter()
                    .map(|(bytes, name)| {
                        let body = codec::check_header(bytes, FileKind::Segment, name)?;
                        let payload = codec::read_single_frame(body, name)?;
                        codec::decode_segment(payload, name).map(|s| s.records().len())
                    })
                    .sum::<gisolap_store::Result<usize>>()
                    .expect("segment decode")
            });
        }
        out.set("store.recover_ms", median(&recover) / 1e6);
        out.set("store.wal_scan_ms", median(&scan) / 1e6);
        out.set("store.tail_decode_ms", median(&tail) / 1e6);
        out.set("store.segment_decode_mb_s", seg_bytes as f64 / seg_ns * 1e3);
    }
    out
}

// --- serve_selective, serve_whole, mixed_rw -----------------------------

fn serve_config() -> ServeConfig {
    // Explicit caps, so no GISOLAP_SERVE_* value can shed benchmark load.
    ServeConfig::with_caps(stream_config(), store_config(), 8, 8, 0)
}

struct Served {
    fleet: Fleet,
    scratch: ScratchDir,
    server: Server,
}

impl Served {
    /// The whole fleet ingested and flushed (not finished: the last
    /// lateness window stays an unsealed tail), served over a socket.
    fn build(cfg: &RunCfg) -> Served {
        let fleet = Fleet::generate(cfg.seed, &cfg.sizes);
        let scratch = ScratchDir::new("ledger-serve");
        let mut cluster = create_cluster(&scratch.path().join(TENANT));
        ingest_batches(&mut cluster, &fleet.batches);
        cluster.flush().expect("fixture flush");
        drop(cluster);
        let server = Server::bind("127.0.0.1:0", scratch.path(), serve_config()).expect("bind");
        // Opens the cluster, so no timed op pays the lazy open.
        server.cluster(TENANT).expect("open served cluster");
        Served {
            fleet,
            scratch,
            server,
        }
    }
}

/// The one client's closed loop until `deadline`: per-kind latencies and
/// the replies that failed, were refused or differ from `reference`.
fn client_loop(
    addr: std::net::SocketAddr,
    tenant: &str,
    mix: &[RollupQuery],
    region: Option<&BBox>,
    reference: Option<&[u64]>,
    deadline: Instant,
) -> (Vec<Vec<u64>>, u64) {
    let mut kinds = vec![Vec::new(); mix.len()];
    let Ok(mut client) = Client::connect(addr) else {
        return (kinds, 1);
    };
    let (mut failed, mut i) = (0u64, 0usize);
    while Instant::now() < deadline {
        let k = i % mix.len();
        i += 1;
        let t = Instant::now();
        let reply = client.sharded_rollup(tenant, &mix[k], region);
        let took = ns(t);
        match reply {
            Ok(r) if reference.is_none_or(|fp| fp[k] == fingerprint(&r.rows)) => {
                kinds[k].push(took)
            }
            _ => failed += 1,
        }
    }
    (kinds, failed)
}

/// The server's `ShardedRollup` evaluation and both codecs, sequenced by
/// hand from public calls, one span per boundary. Returns the rows the
/// client side decoded and the framed reply length.
fn traced_rollup(
    tr: &mut Tracer,
    cluster: &Arc<Mutex<ShardedIngest>>,
    q: &RollupQuery,
    region: Option<&BBox>,
) -> (Vec<RollupRow>, usize) {
    let op = tr.begin_op();
    let request = ServeRequest::ShardedRollup {
        tenant: TENANT.to_string(),
        query: *q,
        region: region.copied(),
    };
    let framed = tr.span("serve.encode_request", || wire::encode_request(&request));
    tr.span("serve.decode_request", || {
        let payload = wire::read_message(&mut &framed[..])
            .expect("request envelope")
            .expect("one request");
        wire::decode_request(&payload).expect("request")
    });

    let guard = tr.span("shard.lock_wait", || cluster.lock().expect("cluster"));
    let eval = tr.open("shard.coordinator_eval");
    let total = guard.shard_count();
    let targets: Vec<usize> = region
        .and_then(|r| guard.partitioner().prune(r))
        .unwrap_or_else(|| (0..total).collect());
    let mut fetched = Vec::with_capacity(targets.len());
    for &s in &targets {
        let fetch = tr.open("shard.fetch");
        let cells = tr.span("stream.extract_partials", || {
            guard.shards()[s].extract_partials()
        });
        fetched.push(tr.span("shard.filter", || {
            let kept = filter_region(cells, guard.partitioner().grid(), region).expect("filter");
            filter_window(kept, None)
        }));
        tr.close(fetch);
    }
    let mut cube = DeltaCube::new();
    tr.span("stream.cube_absorb", || {
        for cells in &fetched {
            cube.absorb(cells);
        }
    });
    let rows = tr.span("stream.cube_rollup", || {
        cube.rollup(q, &BTreeMap::new()).expect("rollup")
    });
    tr.close(eval);
    drop(guard);

    let reply = ServeReply::ShardedRows {
        rows,
        shards_pruned: (total - targets.len()) as u32,
        shards_queried: targets.len() as u32,
    };
    let framed = tr.span("serve.encode_reply", || wire::encode_reply(&reply));
    let decoded = tr.span("serve.decode_reply", || {
        let payload = wire::read_message(&mut &framed[..])
            .expect("reply envelope")
            .expect("one reply");
        wire::decode_reply(&payload).expect("reply")
    });
    tr.close(op);
    match decoded {
        ServeReply::ShardedRows { rows, .. } => (rows, framed.len()),
        other => panic!("traced reply changed shape: {other:?}"),
    }
}

/// Publishes the span-derived serve/shard/stream layer metrics.
fn set_rollup_layers(out: &mut Outcome, tr: Tracer, floor_ns: f64, reply_bytes: &[f64]) {
    let sum = summarize(&tr.spans);
    let us = |name: &str| sum.get(name).self_ns / 1e3;
    out.set(
        "serve.encode_request_ns",
        sum.get("serve.encode_request").self_ns,
    );
    out.set(
        "serve.decode_request_ns",
        sum.get("serve.decode_request").self_ns,
    );
    out.set("serve.encode_reply_us", us("serve.encode_reply"));
    out.set("serve.decode_reply_us", us("serve.decode_reply"));
    out.set("serve.reply_bytes", mean(reply_bytes));
    out.set("shard.lock_wait_us", us("shard.lock_wait"));
    let eval = sum.get("shard.coordinator_eval");
    out.set("shard.coordinator_eval_us", eval.mean_ns / 1e3);
    out.set("shard.fetch_us", sum.get("shard.fetch").mean_ns / 1e3);
    out.set("shard.fetch_max_us", sum.get("shard.fetch").max_ns / 1e3);
    out.set("shard.filter_us", us("shard.filter"));
    out.set("stream.extract_partials_us", us("stream.extract_partials"));
    out.set("stream.cube_absorb_us", us("stream.cube_absorb"));
    out.set("stream.cube_rollup_us", us("stream.cube_rollup"));
    out.set_coverage(sum.staged_ns + floor_ns, sum.op_ns + floor_ns);
    out.spans = tr.spans;
}

/// Socket floor and server counters, measured while nothing else runs.
fn set_serve_floor(out: &mut Outcome, server: &Server) -> f64 {
    let stats = server.stats();
    let busy = stats.connections_rejected + stats.busy_rejections + stats.quota_rejections;
    out.set(
        "serve.busy_share",
        busy as f64 / (stats.requests + stats.connections_rejected).max(1) as f64,
    );
    let mut client = Client::connect(server.addr()).expect("floor client");
    let each = |n: usize, f: &mut dyn FnMut()| -> f64 {
        let took: Vec<f64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                f();
                ns(t) as f64
            })
            .collect();
        median(&took)
    };
    let ping = each(2000, &mut || client.ping(TENANT).expect("ping"));
    out.set("serve.ping_rtt_us", ping / 1e3);
    drop(client);
    let connect = each(50, &mut || {
        drop(Client::connect(server.addr()).expect("connect"))
    });
    out.set("serve.connect_us", connect / 1e3);
    ping
}

fn serve(cfg: &RunCfg, region: Option<BBox>, mix: Vec<RollupQuery>) -> Outcome {
    let (fx, setup_s) = timed_setup(cfg.setup_reps, || Served::build(cfg));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let addr = fx.server.addr();
    let region = region.as_ref();
    // One reply per query kind is the reference every later reply must
    // match; verification compares the references with the oracle.
    let mut first = Client::connect(addr).expect("reference client");
    let reference: Vec<(RollupQuery, Vec<RollupRow>)> = mix
        .iter()
        .map(|q| {
            let rows = first.sharded_rollup(TENANT, q, region).expect("reference");
            (*q, rows.rows)
        })
        .collect();
    drop(first);
    let prints: Vec<u64> = reference.iter().map(|(_, r)| fingerprint(r)).collect();

    out.passes = run_passes(cfg, cfg.untraced_passes(), |boxed| {
        let t_pass = Instant::now();
        let (mut kinds, failed) =
            client_loop(addr, TENANT, &mix, region, Some(&prints), t_pass + boxed);
        Pass::from_kinds(&mut kinds, failed, t_pass.elapsed().as_secs_f64(), 0)
    });

    let t_verify = Instant::now();
    out.mismatches = mismatches_vs_oracle(&oracle(&fx.fleet.batches, false), region, &reference);
    out.verify_s = t_verify.elapsed().as_secs_f64();
    out.note("records", fx.fleet.records());
    out.note(
        "fixture_hash",
        format!("{:016x}", fixture_hash(&fx.fleet.batches)),
    );
    out.note("query_kinds", mix.len());
    out.note("store_root", fx.scratch.path().display());

    if cfg.trace {
        let floor = set_serve_floor(&mut out, &fx.server);
        let cluster = fx.server.cluster(TENANT).expect("served cluster");
        let explain = {
            let guard = cluster.lock().expect("cluster");
            Coordinator::new(ClusterExecutor::new(&guard), guard.spec())
                .and_then(|mut c| c.eval(&shard_query(&mix[0], region)))
                .expect("explain eval")
                .explain
        };
        out.set(
            "shard.shards_pruned_share",
            explain.shards_pruned as f64 / explain.shards_total as f64,
        );
        out.set("shard.cells_gathered", explain.cells_gathered as f64);
        let td = TimeDimension::new();
        let hours: Vec<TimeId> = (0..1024).map(|h| TimeId(h * 3600)).collect();
        let t = bench_ns(30, || {
            hours
                .iter()
                .map(|&h| td.granule(h, TimeLevel::Day))
                .sum::<i64>()
        });
        out.set("olap.time_rollup_ns", t / hours.len() as f64);

        let mut tr = Tracer::new();
        let mut reply_bytes = vec![Vec::new(); mix.len()];
        let mut i = 0usize;
        for _ in 0..TRACED_PASSES {
            let t_pass = Instant::now();
            while t_pass.elapsed() < cfg.pass_box() && !tr.full() {
                let k = i % mix.len();
                i += 1;
                let (rows, bytes) = traced_rollup(&mut tr, &cluster, &mix[k], region);
                reply_bytes[k].push(bytes as f64);
                out.mismatches += u64::from(fingerprint(&rows) != prints[k]);
            }
        }
        let per_kind: Vec<f64> = reply_bytes.iter().map(|b| median(b)).collect();
        set_rollup_layers(&mut out, tr, floor, &per_kind);
    }
    out
}

pub fn serve_selective(cfg: &RunCfg) -> Outcome {
    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    serve(cfg, Some(cold_region()), vec![q])
}

pub fn serve_whole(cfg: &RunCfg) -> Outcome {
    serve(cfg, None, query_mix())
}

struct Mixed {
    fleet: Fleet,
    scratch: ScratchDir,
    server: Server,
    /// First batch the writer sends; earlier ones are preloaded.
    live_from: usize,
}

impl Mixed {
    /// Fixture and server only: every pass lays out its own cluster,
    /// untimed, and that file-system work (it drifts by a third between
    /// runs) would otherwise be most of this workload's `setup_s`.
    fn build(cfg: &RunCfg) -> Mixed {
        let fleet = Fleet::generate(cfg.seed, &cfg.sizes);
        let scratch = ScratchDir::new("ledger-mixed");
        let server = Server::bind("127.0.0.1:0", scratch.path(), serve_config()).expect("bind");
        // Day one is history; the writer sends the rest live.
        let live_from = fleet.batches.len() / 3;
        Mixed {
            fleet,
            scratch,
            server,
            live_from,
        }
    }

    /// Lays out and opens pass `k`'s cluster (day one flushed), unless
    /// it exists already.
    fn tenant(&self, k: usize) -> (String, Arc<Mutex<ShardedIngest>>) {
        let name = format!("mix{k}");
        let root = self.scratch.path().join(&name);
        if !root.exists() {
            let mut cluster = create_cluster(&root);
            ingest_batches(&mut cluster, &self.fleet.batches[..self.live_from]);
            cluster.flush().expect("fixture flush");
        }
        let handle = self.server.cluster(&name).expect("open mixed cluster");
        (name, handle)
    }
}

/// What the paced writer did in one pass.
#[derive(Default)]
struct Written {
    batches: usize,
    records: u64,
    failed: u64,
    /// Batches that started more than one period after they were due.
    late: u64,
    /// Completion minus due time, ns.
    lat: Vec<u64>,
}

/// Open loop: batch `i` is due at `t0 + i / rate`, whatever the system
/// is doing, and is timed from when it was due.
fn paced_writer(
    cluster: &Mutex<ShardedIngest>,
    live: &[Vec<Record>],
    t0: Instant,
    deadline: Instant,
) -> Written {
    let period = Duration::from_secs_f64(1.0 / WRITER_BATCHES_PER_S);
    let mut w = Written::default();
    for (i, b) in live.iter().enumerate() {
        let due = t0 + period * i as u32;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.late += u64::from(Instant::now() > due + period);
        let ok = cluster.lock().expect("cluster").ingest(b).is_ok();
        w.lat
            .push(Instant::now().duration_since(due).as_nanos() as u64);
        w.batches += 1;
        if ok {
            w.records += b.len() as u64;
        } else {
            w.failed += 1;
        }
    }
    w
}

/// Counters carried across the passes of one `mixed_rw` run.
#[derive(Default)]
struct MixState {
    passes: usize,
    late: u64,
    sent: u64,
    /// Batches the writer sent in the latest pass.
    last_written: usize,
}

/// One pass on a fresh cluster: the writer paces `live` in while one
/// reader cycles `mix` — over the socket, or hand-sequenced into
/// `traced`.
fn mixed_pass(
    fx: &Mixed,
    mix: &[RollupQuery],
    state: &mut MixState,
    boxed: Duration,
    traced: Option<&mut (Tracer, Vec<Vec<f64>>)>,
) -> Pass {
    let live = &fx.fleet.batches[fx.live_from..];
    let (tenant, cluster) = fx.tenant(state.passes);
    state.passes += 1;
    // A pass lasts its box, or less if the writer would run dry.
    let drained = Duration::from_secs_f64(live.len() as f64 / WRITER_BATCHES_PER_S);
    let t_pass = Instant::now();
    let deadline = t_pass + boxed.min(drained);
    let (written, (mut kinds, failed)) = std::thread::scope(|s| {
        let writer = s.spawn(|| paced_writer(&cluster, live, t_pass, deadline));
        let reader = match traced {
            None => client_loop(fx.server.addr(), &tenant, mix, None, None, deadline),
            Some((tr, reply_bytes)) => {
                let mut kinds = vec![Vec::new(); mix.len()];
                let mut i = 0usize;
                while Instant::now() < deadline && !tr.full() {
                    let k = i % mix.len();
                    i += 1;
                    let t = Instant::now();
                    let (_, bytes) = traced_rollup(tr, &cluster, &mix[k], None);
                    kinds[k].push(ns(t));
                    reply_bytes[k].push(bytes as f64);
                }
                (kinds, 0)
            }
        };
        (writer.join().expect("writer thread"), reader)
    });
    let wall = t_pass.elapsed().as_secs_f64();
    state.late += written.late;
    state.sent += written.batches as u64;
    state.last_written = written.batches;
    Pass::from_kinds(&mut kinds, failed + written.failed, wall, written.records)
}

pub fn mixed_rw(cfg: &RunCfg) -> Outcome {
    let (fx, setup_s) = timed_setup(cfg.setup_reps, || Mixed::build(cfg));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mix = query_mix();
    let mut state = MixState::default();
    out.passes = run_passes(cfg, cfg.untraced_passes(), |boxed| {
        mixed_pass(&fx, &mix, &mut state, boxed, None)
    });
    let writer_late_share = state.late as f64 / state.sent.max(1) as f64;

    // The last pass's cluster, writer drained, against a single store
    // fed the same prefix.
    let t_verify = Instant::now();
    let (tenant, cluster) = fx.tenant(state.passes - 1);
    let mut client = Client::connect(fx.server.addr()).expect("verification client");
    let got: Vec<_> = mix
        .iter()
        .map(|q| {
            let rows = client.sharded_rollup(&tenant, q, None);
            (*q, rows.map(|r| r.rows).unwrap_or_default())
        })
        .collect();
    let fed = &fx.fleet.batches[..fx.live_from + state.last_written];
    out.mismatches = mismatches_vs_oracle(&oracle(fed, false), None, &got);
    out.verify_s = t_verify.elapsed().as_secs_f64();
    drop(client);
    out.note("records", fx.fleet.records());
    out.note(
        "fixture_hash",
        format!("{:016x}", fixture_hash(&fx.fleet.batches)),
    );
    out.note("writer_batches_per_s", WRITER_BATCHES_PER_S);
    out.note("live_batches", fx.fleet.batches.len() - fx.live_from);
    out.note("written_last_pass", state.last_written);

    if cfg.trace {
        out.set("harness.writer_late_share", writer_late_share);
        let tail: usize = cluster
            .lock()
            .expect("cluster")
            .shards()
            .iter()
            .map(|s| s.pipeline().tail_len())
            .sum();
        out.set("stream.tail_records", tail as f64);
        let floor = set_serve_floor(&mut out, &fx.server);
        let mut traced = (Tracer::new(), vec![Vec::new(); mix.len()]);
        for _ in 0..TRACED_PASSES {
            mixed_pass(&fx, &mix, &mut state, cfg.pass_box(), Some(&mut traced));
        }
        let (tr, reply_bytes) = traced;
        let per_kind: Vec<f64> = reply_bytes.iter().map(|b| median(b)).collect();
        set_rollup_layers(&mut out, tr, floor, &per_kind);
    }
    out
}
