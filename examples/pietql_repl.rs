//! A tiny Piet-QL REPL over the Figure 1 scenario.
//!
//! Type Piet-QL queries (Section 5 of the paper) and see the parse tree
//! and results. The geometric part is answered from the precomputed
//! overlay. Two meta-commands exercise the durable store end-to-end:
//! `\save <dir>` persists the current MOFT through `DurableIngest`
//! (WAL + flush + manifest publish) and `\load <dir>` recovers it and
//! rebuilds the engine from the recovered snapshot. A third,
//! `\follow <dir>`, opens the saved store as a replication [`Leader`]
//! and catches an in-memory [`Follower`] up to it through a
//! deliberately lossy [`FaultTransport`] — a one-command demo that the
//! replica converges bit-identically despite drops, duplicates and bit
//! flips. A fourth, `\connect <addr> <tenant>`, does the same catch-up
//! cross-process: it tails a tenant's store behind a running
//! `gisolap-serve` server over a real TCP socket via [`TcpTransport`].
//! A fifth, `\shards <n>`, partitions the session MOFT across `n`
//! spatial shard stores and answers rollups by scatter-gather — the
//! explain line shows whole shards pruned on a selective region, and
//! every answer is checked bit-for-bit against single-store evaluation.
//! Reads from stdin; with no terminal attached it runs a demo script
//! instead.
//!
//! Run with: `cargo run --bin pietql_repl`

use std::io::{BufRead, IsTerminal, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use gisolap_core::engine::{OverlayEngine, QueryEngine};
use gisolap_core::Gis;
use gisolap_datagen::Fig1Scenario;
use gisolap_pietql::exec::run;
use gisolap_pietql::{parse, QueryOutput};
use gisolap_repl::{
    DirectTransport, FaultConfig, FaultTransport, Follower, FollowerConfig, Leader,
};
use gisolap_serve::{Client, ServeConfig, Server, TcpTransport};
use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig};
use gisolap_stream::StreamConfig;
use gisolap_traj::Moft;

const DEMO: &[&str] = &[
    // The Section 5 query on the Figure 1 data.
    "SELECT layer.Ln; FROM Fig1; \
     WHERE intersection(layer.Ln, layer.Lr, subplevel.Linestring) \
     AND (layer.Ln) CONTAINS (layer.Ln, layer.Lstores, subplevel.Point) \
     | COUNT(PASSES)",
    // The running example, Piet-QL style.
    "SELECT layer.Ln; FROM Fig1; \
     WHERE attr(layer.Ln, neighborhood.income < 1500) \
     | COUNT(TUPLES) PER HOUR WHERE timeOfDay = 'Morning'",
    // Geometric part only.
    "SELECT layer.Ln; FROM Fig1; \
     WHERE (layer.Ln) CONTAINS (layer.Ln, layer.Ls, subplevel.Point)",
    // The full three-part query: geometric | OLAP | moving objects.
    "SELECT layer.Ln; FROM Fig1; \
     WHERE attr(layer.Ln, neighborhood.income < 1500) \
     | OLAP SUM(census.people) BY neighborhood \
     | COUNT(OBJECTS) WHERE timeOfDay = 'Morning'",
];

fn describe(engine: &OverlayEngine<'_>, text: &str) {
    match parse(text) {
        Err(e) => println!("  parse error: {e}"),
        Ok(q) => {
            println!("  parsed:\n{}", indent(&q.to_string(), 4));
            match run(engine, text) {
                Err(e) => println!("  {e}"),
                Ok(QueryOutput::Scalar(v)) => println!("  => {v}"),
                Ok(QueryOutput::Table(rows)) => {
                    for (k, v) in rows {
                        println!("  => {k}: {v}");
                    }
                }
                Ok(QueryOutput::Combined { olap, mo }) => {
                    for (k, v) in olap {
                        println!("  => OLAP {k}: {v}");
                    }
                    println!("  => MO {mo}");
                }
                Ok(QueryOutput::GeoIds(ids)) => {
                    // Pretty-print with α⁻¹ names where available.
                    let layer = &q.select[0].0;
                    let names: Vec<String> = ids
                        .iter()
                        .map(|g| {
                            lookup_name(engine, layer, *g).unwrap_or_else(|| format!("#{}", g.0))
                        })
                        .collect();
                    println!("  => {} geometries: [{}]", ids.len(), names.join(", "));
                }
            }
        }
    }
}

fn lookup_name(engine: &OverlayEngine<'_>, layer: &str, g: gisolap_core::GeoId) -> Option<String> {
    // Try every α binding targeting this layer.
    let gis = engine.gis();
    let layer_id = gis.layer_id(layer).ok()?;
    for category in [
        "neighborhood",
        "region",
        "river",
        "school",
        "street",
        "city",
    ] {
        if let Ok(binding) = gis.alpha(category) {
            if binding.layer == layer_id {
                if let Some(name) = binding.member_of(g) {
                    return Some(name.to_string());
                }
            }
        }
    }
    None
}

fn indent(s: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `\save <dir>`: streams the current MOFT through a fresh
/// [`DurableIngest`] — every batch WAL-logged, then sealed, flushed and
/// published in an atomic manifest. Fails (cleanly) if `dir` already
/// holds a store. Returns the one-line outcome; errors always name the
/// path and the cause so the user can act on them.
fn save(moft: &Moft, dir: &Path) -> Result<String, String> {
    let config = StreamConfig::new(0, 3600).expect("valid stream config");
    let mut durable =
        DurableIngest::create(Arc::new(RealFs), dir, config, StoreConfig::from_env(), None)
            .map_err(|e| format!("save failed for {}: {e}", dir.display()))?;
    moft.records()
        .chunks(64)
        .try_for_each(|batch| durable.ingest(batch).map(|_| ()))
        .and_then(|()| durable.finish())
        .and_then(|_| durable.flush())
        .map(|report| {
            format!(
                "saved {} records to {} ({} segment files, {} bytes)",
                moft.records().len(),
                dir.display(),
                report.segments_written,
                report.bytes_written,
            )
        })
        .map_err(|e| format!("save failed for {}: {e}", dir.display()))
}

/// `\load <dir>`: recovers the durable state (manifest + segments +
/// checkpoint + WAL replay) and returns the recovered MOFT for the
/// engine rebuild, plus the one-line outcome.
fn load(dir: &Path) -> Result<(Moft, String), String> {
    match gisolap_core::recover_snapshot(dir, None) {
        Ok((snapshot, report)) => {
            let line = format!(
                "loaded {} records from {} ({} segments, {} WAL entries replayed)",
                snapshot.moft().records().len(),
                dir.display(),
                report.segments_loaded,
                report.wal_entries_replayed,
            );
            Ok((snapshot.moft().clone(), line))
        }
        Err(e) => Err(format!("load failed for {}: {e}", dir.display())),
    }
}

/// `\follow <dir>`: recovers the store at `dir` as a replication
/// [`Leader`] and catches a fresh in-memory [`Follower`] up to it
/// through a [`FaultTransport`] that drops, duplicates and corrupts
/// replies. The follower's retry/backoff loop rides out the faults and
/// converges on the leader's exact state; its snapshot becomes the
/// session MOFT. Returns the replica MOFT plus the report lines.
fn follow(dir: &Path) -> Result<(Moft, Vec<String>), String> {
    let (durable, _report) =
        DurableIngest::recover(Arc::new(RealFs), dir, StoreConfig::from_env(), None)
            .map_err(|e| format!("follow failed for {}: {e}", dir.display()))?;
    let leader = Arc::new(Mutex::new(Leader::new(durable)));
    let faults = FaultConfig {
        drop_permille: 150,
        duplicate_permille: 100,
        flip_permille: 60,
        truncate_permille: 60,
        seed: 7,
        ..FaultConfig::default()
    };
    let transport = FaultTransport::new(DirectTransport::new(leader.clone()), faults);
    let config = FollowerConfig {
        backoff_base_ms: 1,
        backoff_max_ms: 10,
        ..FollowerConfig::default()
    };
    let mut follower = Follower::memory(transport, None, config);
    follower
        .sync(1000)
        .map_err(|e| format!("follow failed for {}: {e}", dir.display()))?;
    let snapshot = follower
        .snapshot()
        .map_err(|e| format!("follow failed for {}: {e}", dir.display()))?;
    let moft = snapshot.moft().clone();
    let s = follower.stats();
    let f = follower.transport().stats();
    let lines = vec![
        format!(
            "followed {} to seq {} ({} records in replica)",
            dir.display(),
            follower.cursor(),
            moft.records().len(),
        ),
        format!(
            "faults injected: {} drops, {} duplicates, {} flips, {} truncations \
             over {} exchanges",
            f.drops, f.duplicates, f.flips, f.truncates, f.exchanges,
        ),
        format!(
            "follower rode them out: {} polls, {} entries applied, {} retries, \
             {} corrupt replies flagged, {} snapshots installed",
            s.polls, s.entries_applied, s.retries, s.corrupt_replies, s.snapshots_installed,
        ),
    ];
    Ok((moft, lines))
}

/// `\shards <n>`: partitions the session MOFT across `n` spatial shard
/// stores (a 4×4 overlay grid over the data's bounding box, contiguous
/// cell blocks per shard), then evaluates an hourly rollup twice —
/// whole-space, and restricted to the bottom-left quadrant — by
/// scatter-gather. Each answer is verified **bit-identical** to a
/// single unsharded pipeline, and the explain lines show the region
/// query pruning whole shards before any fetch.
fn shards(moft: &Moft, n: u32) -> Result<Vec<String>, String> {
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::TimeLevel;
    use gisolap_shard::{
        eval_single, ClusterExecutor, Coordinator, GridSpec, PartitionerSpec, ShardQuery,
        ShardedIngest,
    };
    use gisolap_stream::{Measure, RollupQuery, StreamIngest};

    let fail = |cause: String| format!("shards failed: {cause}");
    let bbox = moft.bbox();
    let grid = GridSpec::new(bbox, 4, 4).map_err(|e| fail(e.to_string()))?;
    let spec = PartitionerSpec::Spatial { shards: n, grid };
    spec.build().map_err(|e| fail(e.to_string()))?;

    // Lateness beyond any data span: records arrive grouped by object,
    // not by time, and none may be dropped.
    let stream = StreamConfig::new(366 * 86_400, 3600).expect("valid stream config");
    let scratch = ScratchDir::new("pietql-shards");
    let mut cluster = ShardedIngest::create(
        Arc::new(RealFs),
        scratch.path(),
        spec,
        stream,
        StoreConfig::from_env(),
    )
    .map_err(|e| fail(e.to_string()))?;
    moft.records()
        .chunks(64)
        .try_for_each(|batch| cluster.ingest(batch).map(|_| ()))
        .map_err(|e| fail(e.to_string()))?;

    let mut single = StreamIngest::new(stream)
        .map_err(|e| fail(e.to_string()))?
        .with_resolver(grid.resolver());
    single.ingest(moft.records());

    let mut lines = vec![format!(
        "partitioned {} records across {n} spatial shards ({} per-shard stores under a 4x4 grid)",
        moft.records().len(),
        cluster.shard_count(),
    )];
    let quadrant = gisolap_geom::BBox::new(
        bbox.min_x,
        bbox.min_y,
        (bbox.min_x + bbox.max_x) / 2.0,
        (bbox.min_y + bbox.max_y) / 2.0,
    );
    let mut coord =
        Coordinator::new(ClusterExecutor::new(&cluster), spec).map_err(|e| fail(e.to_string()))?;
    for (label, query) in [
        (
            "COUNT per hour, whole space",
            ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count)),
        ),
        (
            "AVG(x) per hour, bottom-left quadrant",
            ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Avg))
                .in_region(quadrant),
        ),
    ] {
        let got = coord.eval(&query).map_err(|e| fail(e.to_string()))?;
        let want = eval_single(&single, Some(grid), &query).map_err(|e| fail(e.to_string()))?;
        let identical = got.rows.len() == want.len()
            && got.rows.iter().zip(&want).all(|(g, w)| {
                g.granule == w.granule && g.geo == w.geo && g.value.to_bits() == w.value.to_bits()
            });
        if !identical {
            return Err(fail(format!("sharded answer diverged on: {label}")));
        }
        lines.push(format!(
            "{label}: {} rows, bit-identical to the single store ({})",
            got.rows.len(),
            got.explain,
        ));
    }
    Ok(lines)
}

/// `\subscribe <region> <agg>`: registers a standing query over the
/// session MOFT and replays the data through a streaming pipeline,
/// syncing the evaluator after every batch: each new seal's window is
/// read off the pipeline's cube, never by re-scanning records. `region`
/// picks a quadrant of the data's bounding box (`bl`, `br`, `tl`, `tr`)
/// or `all`; `agg` is one of `count`, `sum`, `avg`, `min`, `max` over
/// x. The final standing value is checked **bit-identical** against a
/// second evaluator that reads the whole sealed history in one sync.
fn subscribe_demo(moft: &Moft, region: &str, agg: &str) -> Result<Vec<String>, String> {
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::TimeLevel;
    use gisolap_shard::GridSpec;
    use gisolap_stream::{Measure, StreamIngest};
    use gisolap_sub::{StandingEvaluator, Subscription};

    let fail = |cause: String| format!("subscribe failed: {cause}");
    let agg = match agg {
        "count" => AggFn::Count,
        "sum" => AggFn::Sum,
        "avg" => AggFn::Avg,
        "min" => AggFn::Min,
        "max" => AggFn::Max,
        other => return Err(fail(format!("unknown aggregate {other:?}"))),
    };
    let bbox = moft.bbox();
    let (mx, my) = (
        (bbox.min_x + bbox.max_x) / 2.0,
        (bbox.min_y + bbox.max_y) / 2.0,
    );
    let quadrant = match region {
        "all" => None,
        "bl" => Some(gisolap_geom::BBox::new(bbox.min_x, bbox.min_y, mx, my)),
        "br" => Some(gisolap_geom::BBox::new(mx, bbox.min_y, bbox.max_x, my)),
        "tl" => Some(gisolap_geom::BBox::new(bbox.min_x, my, mx, bbox.max_y)),
        "tr" => Some(gisolap_geom::BBox::new(mx, my, bbox.max_x, bbox.max_y)),
        other => return Err(fail(format!("unknown region {other:?} (all/bl/br/tl/tr)"))),
    };
    let grid = GridSpec::new(bbox, 2, 2).map_err(|e| fail(e.to_string()))?;
    let mut sub = Subscription::new(TimeLevel::Hour, Measure::X, agg);
    if let Some(q) = quadrant {
        sub = sub.in_region(q);
    }

    let mut evaluator = StandingEvaluator::new(Some(grid));
    let id = evaluator
        .register(sub.clone())
        .map_err(|e| fail(e.to_string()))?;

    // Time-sorted, so a zero-lateness pipeline seals each hour as the
    // next one starts and drops nothing; `finish` seals the last.
    let mut records = moft.records().to_vec();
    records.sort_by_key(|r| (r.t, r.oid));
    let stream = StreamConfig::new(0, 3600).expect("valid stream config");
    let mut pipeline = StreamIngest::new(stream)
        .map_err(|e| fail(e.to_string()))?
        .with_resolver(grid.resolver());
    let mut syncs = 0;
    for batch in records.chunks(64) {
        pipeline.ingest(batch);
        evaluator.sync_pipeline(&pipeline);
        syncs += 1;
    }
    pipeline.finish();
    evaluator.sync_pipeline(&pipeline);
    syncs += 1;

    let stats = evaluator.stats();
    let (notifications, _next) = evaluator.notifications_since(0);
    let value = evaluator.value(id);

    // The live invariant: a second evaluator reading the same sealed
    // history in one sync lands on the same bits.
    let mut replay = StandingEvaluator::new(Some(grid));
    let replay_id = replay.register(sub).map_err(|e| fail(e.to_string()))?;
    replay.sync_pipeline(&pipeline);
    if replay.value(replay_id).map(f64::to_bits) != value.map(f64::to_bits) {
        return Err(fail("per-batch value diverged from replay".to_string()));
    }

    let shown = value.map_or("-".to_string(), |v| v.to_string());
    Ok(vec![
        format!(
            "subscription #{id}: {agg:?}(x) per hour over {region} ({} records replayed)",
            moft.records().len(),
        ),
        format!(
            "folded {} seals over {syncs} syncs, emitted {} notifications",
            stats.seals_folded,
            notifications.len(),
        ),
        format!("standing value {shown} — bit-identical to a from-scratch replay"),
    ])
}

/// `\connect <addr> <tenant>`: tails `tenant`'s store behind the
/// `gisolap-serve` server at `addr` over a real TCP socket. A fresh
/// in-memory [`Follower`] rides a [`TcpTransport`] until it is caught
/// up; its snapshot becomes the session MOFT — the same convergence
/// contract as `\follow`, but cross-process.
fn connect(addr: &str, tenant: &str) -> Result<(Moft, Vec<String>), String> {
    let fail = |cause: String| format!("connect failed for {addr}: {cause}");
    // Probe first: a refused connection or an inadmissible tenant name
    // should answer in one line, not after a retry/backoff loop.
    let mut probe = Client::connect(addr).map_err(|e| fail(e.to_string()))?;
    probe.ping(tenant).map_err(|e| fail(e.to_string()))?;
    drop(probe);

    let config = FollowerConfig {
        backoff_base_ms: 1,
        backoff_max_ms: 10,
        ..FollowerConfig::default()
    };
    let mut follower = Follower::memory(TcpTransport::new(addr, tenant), None, config);
    follower.sync(1000).map_err(|e| fail(e.to_string()))?;
    let snapshot = follower.snapshot().map_err(|e| fail(e.to_string()))?;
    let moft = snapshot.moft().clone();
    let s = follower.stats();
    let lines = vec![
        format!(
            "connected to {addr}, tenant '{tenant}': replica at seq {} ({} records)",
            follower.cursor(),
            moft.records().len(),
        ),
        format!(
            "caught up over TCP: {} polls, {} entries applied, {} retries, \
             {} snapshots installed",
            s.polls, s.entries_applied, s.retries, s.snapshots_installed,
        ),
    ];
    Ok((moft, lines))
}

/// Dispatches one REPL line: a `\`-meta-command or a Piet-QL query.
/// Returns the new MOFT when a `\load`, `\follow` or `\connect`
/// replaced it.
fn handle_line(gis: &Gis, moft: &Moft, line: &str) -> Option<Moft> {
    if let Some(rest) = line.strip_prefix("\\save") {
        let dir = rest.trim();
        if dir.is_empty() {
            println!("  usage: \\save <dir>");
        } else {
            match save(moft, Path::new(dir)) {
                Ok(line) | Err(line) => println!("  {line}"),
            }
        }
        None
    } else if let Some(rest) = line.strip_prefix("\\load") {
        let dir = rest.trim();
        if dir.is_empty() {
            println!("  usage: \\load <dir>");
            return None;
        }
        match load(Path::new(dir)) {
            Ok((loaded, line)) => {
                println!("  {line}");
                Some(loaded)
            }
            Err(line) => {
                println!("  {line}");
                None
            }
        }
    } else if let Some(rest) = line.strip_prefix("\\follow") {
        let dir = rest.trim();
        if dir.is_empty() {
            println!("  usage: \\follow <dir>");
            return None;
        }
        match follow(Path::new(dir)) {
            Ok((replica, lines)) => {
                for line in lines {
                    println!("  {line}");
                }
                Some(replica)
            }
            Err(line) => {
                println!("  {line}");
                None
            }
        }
    } else if let Some(rest) = line.strip_prefix("\\shards") {
        let arg = rest.trim();
        match arg.parse::<u32>() {
            Ok(n) => match shards(moft, n) {
                Ok(lines) => {
                    for line in lines {
                        println!("  {line}");
                    }
                }
                Err(line) => println!("  {line}"),
            },
            Err(_) => println!("  usage: \\shards <n>"),
        }
        None
    } else if let Some(rest) = line.strip_prefix("\\subscribe") {
        let mut parts = rest.split_whitespace();
        let (Some(region), Some(agg), None) = (parts.next(), parts.next(), parts.next()) else {
            println!("  usage: \\subscribe <all|bl|br|tl|tr> <count|sum|avg|min|max>");
            return None;
        };
        match subscribe_demo(moft, region, agg) {
            Ok(lines) => {
                for line in lines {
                    println!("  {line}");
                }
            }
            Err(line) => println!("  {line}"),
        }
        None
    } else if let Some(rest) = line.strip_prefix("\\connect") {
        let mut parts = rest.split_whitespace();
        let (Some(addr), Some(tenant), None) = (parts.next(), parts.next(), parts.next()) else {
            println!("  usage: \\connect <addr> <tenant>");
            return None;
        };
        match connect(addr, tenant) {
            Ok((replica, lines)) => {
                for line in lines {
                    println!("  {line}");
                }
                Some(replica)
            }
            Err(line) => {
                println!("  {line}");
                None
            }
        }
    } else {
        // The Figure 1 data is tiny; rebuilding the overlay per query
        // keeps the borrow story trivial after a `\load` swaps the MOFT.
        let engine = OverlayEngine::new(gis, moft);
        describe(&engine, line);
        None
    }
}

fn main() {
    let s = Fig1Scenario::build();
    let mut moft = s.moft.clone();
    println!("== Piet-QL over the Figure 1 scenario ==");
    println!(
        "layers: {}",
        s.gis
            .layers()
            .map(|(_, l)| l.name().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let stdin = std::io::stdin();
    if !stdin.is_terminal() {
        println!("\n(no terminal — running the demo script)\n");
        for q in DEMO {
            println!("piet> {q}");
            handle_line(&s.gis, &moft, q);
            println!();
        }
        // Demo the persistence round-trip into a scratch directory.
        let scratch = ScratchDir::new("pietql-repl-demo");
        let dir = scratch.path().join("store");
        for cmd in [
            format!("\\save {}", dir.display()),
            format!("\\load {}", dir.display()),
            format!("\\follow {}", dir.display()),
        ] {
            println!("piet> {cmd}");
            if let Some(loaded) = handle_line(&s.gis, &moft, &cmd) {
                moft = loaded;
            }
            println!();
        }
        // Serve the session MOFT over TCP and re-tail it cross-process
        // style: the network front door end to end in one command.
        let config = ServeConfig::from_env(
            StreamConfig::new(0, 3600).expect("valid stream config"),
            StoreConfig::from_env(),
        );
        let mut server =
            Server::bind("127.0.0.1:0", scratch.path(), config).expect("bind demo server");
        {
            let leader = server.leader("fig1").expect("open demo tenant");
            let mut l = leader.lock().expect("demo leader lock");
            l.ingest(moft.records()).expect("seed demo tenant");
            l.finish().expect("finish demo tenant");
            l.flush().expect("flush demo tenant");
        }
        let cmd = format!("\\connect {} fig1", server.addr());
        println!("piet> {cmd}");
        if let Some(replica) = handle_line(&s.gis, &moft, &cmd) {
            moft = replica;
        }
        server.stop();
        println!();
        // Scatter-gather the session MOFT across four spatial shards:
        // the explain line shows the selective query pruning shards,
        // and every answer is checked against the single store.
        println!("piet> \\shards 4");
        handle_line(&s.gis, &moft, "\\shards 4");
        println!();
        // A standing query over the bottom-left quadrant, synced off
        // the pipeline's cube after each batch and checked against a
        // replay.
        println!("piet> \\subscribe bl count");
        handle_line(&s.gis, &moft, "\\subscribe bl count");
        println!();
        // The recovered MOFT answers queries identically.
        println!("piet> {}", DEMO[0]);
        handle_line(&s.gis, &moft, DEMO[0]);
        return;
    }

    println!(
        "Enter Piet-QL queries, \\save <dir>, \\load <dir>, \\follow <dir>, \
         \\connect <addr> <tenant>, \\shards <n> or \\subscribe <region> <agg> \
         (empty line or Ctrl-D to quit).\n"
    );
    let mut lines = stdin.lock().lines();
    loop {
        print!("piet> ");
        std::io::stdout().flush().expect("stdout flush");
        match lines.next() {
            Some(Ok(line)) if !line.trim().is_empty() => {
                if let Some(loaded) = handle_line(&s.gis, &moft, line.trim()) {
                    moft = loaded;
                }
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `\save` into a directory that already holds a store must fail
    /// with a one-line message naming both the path and the cause.
    #[test]
    fn save_error_names_path_and_cause() {
        let s = Fig1Scenario::build();
        let scratch = ScratchDir::new("pietql-save-smoke");
        let dir = scratch.path().join("store");
        save(&s.moft, &dir).expect("first save succeeds");
        let err = save(&s.moft, &dir).expect_err("second save must fail");
        assert!(!err.contains('\n'), "one line, got: {err:?}");
        assert!(
            err.contains(&dir.display().to_string()),
            "must name the path: {err}"
        );
        assert!(err.starts_with("save failed for "), "actionable: {err}");
        assert!(
            err.rsplit(": ").next().map(str::len).unwrap_or(0) > 0,
            "must carry a cause: {err}"
        );
    }

    /// `\load` from a directory with no store must fail with a one-line
    /// message naming both the path and the cause.
    #[test]
    fn load_error_names_path_and_cause() {
        let scratch = ScratchDir::new("pietql-load-smoke");
        let dir = scratch.path().join("nothing-here");
        let err = load(&dir).expect_err("load of a missing store must fail");
        assert!(!err.contains('\n'), "one line, got: {err:?}");
        assert!(
            err.contains(&dir.display().to_string()),
            "must name the path: {err}"
        );
        assert!(err.starts_with("load failed for "), "actionable: {err}");
    }

    /// The save → load round trip recovers the exact record set.
    #[test]
    fn save_load_round_trip() {
        let s = Fig1Scenario::build();
        let scratch = ScratchDir::new("pietql-roundtrip-smoke");
        let dir = scratch.path().join("store");
        save(&s.moft, &dir).expect("save succeeds");
        let (loaded, line) = load(&dir).expect("load succeeds");
        assert_eq!(loaded.records().len(), s.moft.records().len());
        assert!(line.starts_with("loaded "));
    }

    /// `\connect` against a refused address must fail with a one-line
    /// message naming both the address and the cause.
    #[test]
    fn connect_error_names_addr_and_cause() {
        // Port 1 on localhost: connection refused immediately.
        let err = connect("127.0.0.1:1", "fig1").expect_err("refused connect must fail");
        assert!(!err.contains('\n'), "one line, got: {err:?}");
        assert!(
            err.starts_with("connect failed for 127.0.0.1:1: "),
            "actionable: {err}"
        );
    }

    /// `\connect` refuses inadmissible tenant names in one line, and
    /// against a served tenant it converges a replica with the same
    /// record count over a real socket.
    #[test]
    fn connect_vets_tenants_and_converges() {
        let s = Fig1Scenario::build();
        let scratch = ScratchDir::new("pietql-connect-smoke");
        let config = ServeConfig::from_env(
            StreamConfig::new(0, 3600).expect("valid stream config"),
            StoreConfig::from_env(),
        );
        let mut server =
            Server::bind("127.0.0.1:0", scratch.path(), config).expect("bind smoke server");
        {
            let leader = server.leader("fig1").expect("open smoke tenant");
            let mut l = leader.lock().expect("smoke leader lock");
            l.ingest(s.moft.records()).expect("seed smoke tenant");
            l.finish().expect("finish smoke tenant");
            l.flush().expect("flush smoke tenant");
        }
        let addr = server.addr().to_string();

        let err = connect(&addr, "../escape").expect_err("inadmissible tenant must fail");
        assert!(!err.contains('\n'), "one line, got: {err:?}");
        assert!(
            err.starts_with(&format!("connect failed for {addr}: ")),
            "actionable: {err}"
        );

        let (replica, lines) = connect(&addr, "fig1").expect("connect converges");
        assert_eq!(replica.records().len(), s.moft.records().len());
        assert!(lines[0].starts_with("connected to "), "{lines:?}");
        server.stop();
    }

    /// `\shards` with more shards than grid cells must fail in one
    /// line; with a sane count it partitions the Figure 1 MOFT, prunes
    /// shards on the quadrant query and verifies bit-identity.
    #[test]
    fn shards_reports_errors_and_verifies_identity() {
        let s = Fig1Scenario::build();
        // The demo grid is 4x4 = 16 cells; 17 shards are unroutable.
        let err = shards(&s.moft, 17).expect_err("oversized shard count must fail");
        assert!(!err.contains('\n'), "one line, got: {err:?}");
        assert!(err.starts_with("shards failed: "), "actionable: {err}");

        let lines = shards(&s.moft, 4).expect("sharded demo succeeds");
        assert!(
            lines[0].starts_with("partitioned ") && lines[0].contains("4 spatial shards"),
            "{lines:?}"
        );
        assert_eq!(lines.len(), 3, "one line per query: {lines:?}");
        assert!(
            lines
                .iter()
                .skip(1)
                .all(|l| l.contains("bit-identical to the single store")),
            "{lines:?}"
        );
        // The quadrant query must actually prune shards.
        assert!(
            lines[2].contains("pruned of 4") && !lines[2].contains("0 pruned"),
            "selective query must prune: {lines:?}"
        );
        // The whole-space query cannot prune anything.
        assert!(lines[1].contains("0 pruned of 4"), "{lines:?}");
    }

    /// `\subscribe` rejects unknown regions and aggregates in one line;
    /// with sane arguments it registers a standing query, syncs it
    /// through the Figure 1 data batch by batch and verifies the value
    /// against a from-scratch replay.
    #[test]
    fn subscribe_reports_errors_and_verifies_replay() {
        let s = Fig1Scenario::build();
        let err = subscribe_demo(&s.moft, "bl", "median").expect_err("unknown agg must fail");
        assert!(!err.contains('\n'), "one line, got: {err:?}");
        assert!(err.starts_with("subscribe failed: "), "actionable: {err}");
        let err = subscribe_demo(&s.moft, "center", "count").expect_err("unknown region");
        assert!(err.starts_with("subscribe failed: "), "actionable: {err}");

        for region in ["all", "bl"] {
            let lines = subscribe_demo(&s.moft, region, "count").expect("subscribe succeeds");
            assert_eq!(lines.len(), 3, "{lines:?}");
            assert!(lines[0].starts_with("subscription #"), "{lines:?}");
            assert!(lines[1].starts_with("folded "), "{lines:?}");
            assert!(
                lines[2].contains("bit-identical to a from-scratch replay"),
                "{lines:?}"
            );
            // The Figure 1 data spans hours, so seals actually folded.
            assert!(!lines[1].starts_with("folded 0 seals"), "{lines:?}");
        }
    }

    /// `\follow` on a missing store reports path + cause; on a saved
    /// store it converges a replica with the same record count despite
    /// the fault-injecting transport.
    #[test]
    fn follow_reports_errors_and_converges() {
        let scratch = ScratchDir::new("pietql-follow-smoke");
        let missing = scratch.path().join("missing");
        let err = follow(&missing).expect_err("follow of a missing store must fail");
        assert!(err.contains(&missing.display().to_string()), "{err}");
        assert!(err.starts_with("follow failed for "), "{err}");

        let s = Fig1Scenario::build();
        let dir = scratch.path().join("store");
        save(&s.moft, &dir).expect("save succeeds");
        let (replica, lines) = follow(&dir).expect("follow converges");
        assert_eq!(replica.records().len(), s.moft.records().len());
        assert!(lines[0].starts_with("followed "), "{lines:?}");
    }
}
