//! Durable-store I/O: flush throughput, recovery vs cold re-ingest, and
//! the compaction win.
//!
//! A city-traffic replay is pushed through [`DurableIngest`] (WAL +
//! periodic flush) into a store directory; the benchmark then measures
//!
//! * **flush** — WAL-logged ingest of the whole replay plus a final
//!   flush (segments + checkpoint + manifest publish);
//! * **recover** — reopening the flushed directory: manifest load,
//!   segment open (CRC, a raw-byte `(oid, t)` order check and the
//!   partial cells; records stay encoded until first touched),
//!   checkpoint restore, WAL replay;
//! * **cold re-ingest** — the recovery baseline: rebuilding the same
//!   state by replaying every record through an in-memory
//!   [`StreamIngest`] from scratch.
//!
//! Recovery skips buffering, sorting, deduplication, partial bucketing
//! and record decode for everything below the checkpoint, so it must
//! beat the cold path; the artifact asserts the ≥2× acceptance bar. The
//! cold path shares the radix sort that sealing uses, so the bar rests
//! on open decoding cells, not records. Besides the
//! Criterion groups, the bench emits a machine-readable summary to the
//! path in `BENCH_STORE_OUT` (default `BENCH_store.json` in the package
//! root) so CI can archive the artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{stream_batches, CityConfig, CityScenario, ReplayConfig};
use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig, SyncPolicy};
use gisolap_stream::{StreamConfig, StreamIngest};
use gisolap_traj::Record;

const LATENESS: i64 = 300;
const SEGMENT: i64 = 3600;
/// Flush every this many batches — several WAL generations per run, a
/// live tail left for replay.
const FLUSH_EVERY: usize = 16;

fn replay(objects: usize, samples: usize) -> Vec<Vec<Record>> {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 6,
        blocks_y: 4,
        seed: 99,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        sample_interval: 300,
        ..RandomWaypoint::new(city.bbox, objects, samples)
    }
    .generate(0);
    stream_batches(
        &moft,
        &ReplayConfig {
            shuffle_seconds: LATENESS,
            batch_size: 256,
            seed: 11,
        },
    )
}

fn store_config() -> StoreConfig {
    // fsync would measure the device, not the store; the recovery
    // contract is identical either way.
    StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    }
}

/// WAL-logs and applies every batch, flushing periodically and once at
/// the end. Returns the bytes the final report saw flushed.
fn run_flush(dir: &Path, batches: &[Vec<Record>]) -> u64 {
    let (mut durable, recovered) = DurableIngest::open(
        Arc::new(RealFs),
        dir,
        StreamConfig::new(LATENESS, SEGMENT).unwrap(),
        store_config(),
        None,
    )
    .unwrap();
    assert!(recovered.is_none(), "bench dir must start empty");
    let mut flushed = 0u64;
    for (i, b) in batches.iter().enumerate() {
        durable.ingest(b).unwrap();
        if (i + 1) % FLUSH_EVERY == 0 {
            flushed += durable.flush().unwrap().bytes_written;
        }
    }
    flushed + durable.flush().unwrap().bytes_written
}

fn run_recover(dir: &Path) -> DurableIngest {
    let (durable, _report) =
        DurableIngest::recover(Arc::new(RealFs), dir, store_config(), None).unwrap();
    durable
}

/// The recovery baseline: every record through the in-memory pipeline.
fn run_cold(batches: &[Vec<Record>]) -> StreamIngest {
    let mut ingest = StreamIngest::new(StreamConfig::new(LATENESS, SEGMENT).unwrap()).unwrap();
    for b in batches {
        ingest.ingest(b);
    }
    ingest
}

fn bench_store(c: &mut Criterion) {
    let batches = replay(120, 30);
    let records: usize = batches.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("store_io");
    group.throughput(Throughput::Elements(records as u64));
    group.bench_with_input(
        BenchmarkId::new("flush", records),
        &batches,
        |b, batches| {
            b.iter(|| {
                let scratch = ScratchDir::new("bench-flush");
                black_box(run_flush(&scratch.path().join("store"), batches))
            })
        },
    );

    let scratch = ScratchDir::new("bench-recover");
    let dir = scratch.path().join("store");
    run_flush(&dir, &batches);
    group.bench_with_input(BenchmarkId::new("recover", records), &dir, |b, dir| {
        b.iter(|| black_box(run_recover(dir)))
    });
    group.bench_with_input(
        BenchmarkId::new("cold_reingest", records),
        &batches,
        |b, batches| b.iter(|| black_box(run_cold(batches))),
    );
    group.finish();
}

/// One timed pass per phase on a larger workload, written as the CI
/// artifact. Asserts the acceptance bar: recovery replay ≥2× faster
/// than cold re-ingest of the same records.
fn emit_artifact() {
    let mut entries = Vec::new();
    for (objects, samples) in [(400, 160), (600, 240)] {
        let batches = replay(objects, samples);
        let records: usize = batches.iter().map(Vec::len).sum();
        let scratch = ScratchDir::new("bench-artifact");
        let dir = scratch.path().join("store");

        let t0 = Instant::now();
        let flush_bytes = run_flush(&dir, &batches);
        let flush_ns = t0.elapsed().as_nanos();

        // Best of three passes each: the artifact records capability,
        // not scheduler noise on a shared CI box.
        let (mut recover_ns, mut cold_ns) = (u128::MAX, u128::MAX);
        let mut recovered = run_recover(&dir); // warm the page cache
        for _ in 0..3 {
            let t1 = Instant::now();
            recovered = run_recover(&dir);
            recover_ns = recover_ns.min(t1.elapsed().as_nanos());
        }
        let mut cold = run_cold(&batches);
        for _ in 0..3 {
            let t2 = Instant::now();
            cold = run_cold(&batches);
            cold_ns = cold_ns.min(t2.elapsed().as_nanos());
        }

        // Both paths must land on the same state (spot check), and the
        // recovery speedup must clear the acceptance bar.
        assert_eq!(
            recovered.ingest_stats().records_ingested,
            cold.stats().records_ingested,
        );
        let speedup = cold_ns as f64 / recover_ns.max(1) as f64;
        if std::env::var("STORE_IO_NO_ASSERT").is_err() {
            assert!(
                speedup >= 2.0,
                "recovery replay must be ≥2x faster than cold re-ingest, got {speedup:.2}x"
            );
        }

        // Compaction win: merge all sealed files, recover again.
        let mut durable = run_recover(&dir);
        let compaction = durable.compact().unwrap();
        drop(durable);
        let t3 = Instant::now();
        run_recover(&dir);
        let recover_compacted_ns = t3.elapsed().as_nanos();

        entries.push(format!(
            concat!(
                "    {{\"records\": {}, \"flush_ns\": {}, \"flush_bytes\": {}, ",
                "\"recover_ns\": {}, \"cold_reingest_ns\": {}, \"recovery_speedup\": {:.2}, ",
                "\"segment_files_before_compaction\": {}, \"segment_files_after_compaction\": {}, ",
                "\"recover_after_compaction_ns\": {}}}"
            ),
            records,
            flush_ns,
            flush_bytes,
            recover_ns,
            cold_ns,
            speedup,
            compaction.files_before,
            compaction.files_after,
            recover_compacted_ns,
        ));
        eprintln!(
            "store_io: records={records} flush={:.1}ms recover={:.1}ms \
             cold={:.1}ms speedup={speedup:.2}x compaction {}→{} files \
             recover_after={:.1}ms",
            flush_ns as f64 / 1e6,
            recover_ns as f64 / 1e6,
            cold_ns as f64 / 1e6,
            compaction.files_before,
            compaction.files_after,
            recover_compacted_ns as f64 / 1e6,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"store_io\",\n  \"lateness_seconds\": {LATENESS},\n  \
         \"segment_seconds\": {SEGMENT},\n  \"flush_every_batches\": {FLUSH_EVERY},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let out = std::env::var("BENCH_STORE_OUT").unwrap_or_else(|_| "BENCH_store.json".to_string());
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("store_io: could not write {out}: {e}");
    } else {
        eprintln!("store_io: wrote {out}");
    }
}

fn bench_all(c: &mut Criterion) {
    bench_store(c);
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
