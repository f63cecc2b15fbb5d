//! Crash-recovery property tests for the durable segment store.
//!
//! Strategy: run a deterministic crash-replay workload once against a
//! byte-budgeted failpoint filesystem to measure its total write volume,
//! then re-run it with the crash budget set to an arbitrary fraction of
//! that volume — the "process" dies mid-write, leaving a torn prefix on
//! disk (an atomic write whose budget runs out never publishes at all).
//! Recovery must then, for **every** crash offset:
//!
//! * never panic and never report corruption (torn WAL tails are
//!   detected by checksum and dropped, manifests are atomic);
//! * converge bit-identically to an uninterrupted reference pipeline fed
//!   exactly the durable operation prefix — no lost op, none applied
//!   twice;
//! * keep working: feeding the remaining operations to the recovered
//!   pipeline ends in the same state as a never-crashed full run.
//!
//! Case count is `GISOLAP_CASES` (default 16); CI's fault-injection
//! job raises it.

use std::sync::Arc;

use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{crash_replay, CityConfig, CityScenario, ReplayConfig};
use gisolap_obs::CounterSet;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_store::{
    DurableIngest, FailpointFs, RealFs, ScratchDir, StoreConfig, StoreError, SyncPolicy, Vfs,
};
use gisolap_stream::{Measure, ReplayOp, RollupQuery, StreamConfig, StreamIngest};
use gisolap_tests::{counter, dead_counters};
use gisolap_traj::{Moft, ObjectId, Record};
use proptest::prelude::*;

fn random_moft(seed: u64) -> Moft {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 2,
        blocks_y: 2,
        seed,
        ..CityConfig::default()
    });
    RandomWaypoint {
        seed: seed.wrapping_add(1),
        ..RandomWaypoint::new(city.bbox, 5, 16)
    }
    .generate(0)
}

/// Runs `ops` against a durable pipeline in `dir`, flushing after the
/// indices in `flush_after`; stops at the first error (the injected
/// crash) and returns how many ops were applied.
fn drive(
    vfs: Arc<dyn Vfs>,
    dir: &std::path::Path,
    config: StreamConfig,
    store_config: StoreConfig,
    ops: &[ReplayOp],
    flush_after: &[usize],
) -> (usize, Result<(), StoreError>) {
    let mut durable = match DurableIngest::create(vfs, dir, config, store_config, None) {
        Ok(d) => d,
        Err(e) => return (0, Err(e)),
    };
    for (i, op) in ops.iter().enumerate() {
        let applied = match op {
            ReplayOp::Batch(b) => durable.ingest(b).map(|_| ()),
            ReplayOp::Finish => durable.finish().map(|_| ()),
        };
        if let Err(e) = applied {
            return (i, Err(e));
        }
        if flush_after.contains(&i) {
            if let Err(e) = durable.flush() {
                return (i + 1, Err(e));
            }
        }
    }
    (ops.len(), Ok(()))
}

/// An uninterrupted in-memory pipeline fed `ops[..k]`.
fn reference_prefix(config: StreamConfig, ops: &[ReplayOp], k: usize) -> StreamIngest {
    let mut ingest = StreamIngest::new(config).unwrap();
    for op in &ops[..k] {
        match op {
            ReplayOp::Batch(b) => {
                ingest.ingest(b);
            }
            ReplayOp::Finish => {
                ingest.finish();
            }
        }
    }
    ingest
}

/// Bit-exact state comparison: watermark, counters, dead letters,
/// canonical tail, segment records/partials and every-level rollup bits.
fn assert_bit_identical(a: &StreamIngest, b: &StreamIngest) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.watermark(), b.watermark());
    // `tail_records_scanned` counts read-path work (rollups run by this
    // very comparison, reset to 0 on restore) — it is explicitly outside
    // the durability contract, so zero it on both sides.
    let (mut sa, mut sb) = (a.stats(), b.stats());
    sa.tail_records_scanned = 0;
    sb.tail_records_scanned = 0;
    prop_assert_eq!(sa, sb);
    prop_assert_eq!(a.dead_letters(), b.dead_letters());
    prop_assert_eq!(a.tail_records(), b.tail_records());
    let sa = a.snapshot().unwrap();
    let sb = b.snapshot().unwrap();
    prop_assert_eq!(sa.moft().records(), sb.moft().records());
    for level in [TimeLevel::Hour, TimeLevel::Day, TimeLevel::Month] {
        for measure in [Measure::X, Measure::Y] {
            for f in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
                let q = RollupQuery::new(level, measure, f);
                let ra: Vec<(i64, Option<u32>, u64)> = a
                    .rollup(&q)
                    .unwrap()
                    .into_iter()
                    .map(|r| (r.granule, r.geo, r.value.to_bits()))
                    .collect();
                let rb: Vec<(i64, Option<u32>, u64)> = b
                    .rollup(&q)
                    .unwrap()
                    .into_iter()
                    .map(|r| (r.granule, r.geo, r.value.to_bits()))
                    .collect();
                prop_assert_eq!(ra, rb, "rollup {:?} {:?} {:?}", level, measure, f);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// The main crash property: recovery after a crash at an arbitrary
    /// byte offset converges to the durable op prefix and loses nothing.
    #[test]
    fn recovery_converges_for_every_crash_offset(
        seed in 0u64..500,
        shuffle in 0i64..=600,
        batch_size in 1usize..32,
        flush_every in 0usize..6,
        budget_permille in 0u64..1000,
        sync_never in proptest::bool::ANY,
        compact_min in 0usize..4,
    ) {
        let moft = random_moft(seed);
        let config = StreamConfig::new(shuffle, 3600).unwrap();
        let scenario = crash_replay(
            &moft,
            &ReplayConfig { shuffle_seconds: shuffle, batch_size, seed },
            flush_every,
        );
        // Sweep the fsync policy and auto-compaction threshold too: both
        // change the write stream (and thus where crashes land) but must
        // never change what recovery converges to.
        let store_config = StoreConfig {
            sync: if sync_never { SyncPolicy::Never } else { SyncPolicy::Always },
            compact_min_segments: compact_min,
            ..StoreConfig::default()
        };

        // Dry run: measure the workload's total write volume.
        let dry_dir = ScratchDir::new("fault-dry");
        let dry_fs = FailpointFs::new(u64::MAX);
        let (applied, outcome) = drive(
            Arc::new(dry_fs.clone()),
            dry_dir.path(),
            config,
            store_config,
            &scenario.ops,
            &scenario.flush_after,
        );
        prop_assert!(outcome.is_ok(), "dry run must not fail: {:?}", outcome);
        prop_assert_eq!(applied, scenario.ops.len());
        let total_bytes = dry_fs.bytes_consumed();
        prop_assert!(total_bytes > 0);

        // Crash run: the same workload dies after an arbitrary fraction
        // of those bytes.
        let budget = total_bytes * budget_permille / 1000;
        let crash_dir = ScratchDir::new("fault-crash");
        let crash_fs = FailpointFs::new(budget);
        let (_, outcome) = drive(
            Arc::new(crash_fs.clone()),
            crash_dir.path(),
            config,
            store_config,
            &scenario.ops,
            &scenario.flush_after,
        );
        prop_assert!(outcome.is_err(), "budget {} < {} must crash", budget, total_bytes);
        prop_assert!(crash_fs.crashed());

        // Recovery with a healthy filesystem. If the crash predates the
        // manifest (store creation itself died), there is nothing to
        // recover — that must surface as a clean error, not a panic.
        let recovered = DurableIngest::recover(
            Arc::new(RealFs),
            crash_dir.path(),
            store_config,
            None,
        );
        let (mut durable, report) = match recovered {
            Ok(pair) => pair,
            Err(StoreError::Io(_)) => {
                prop_assert!(
                    !RealFs.exists(&crash_dir.path().join("MANIFEST")),
                    "recovery may only fail for a store that never finished creation"
                );
                return Ok(());
            }
            Err(e) => return Err(TestCaseError::fail(format!(
                "recovery must never report corruption from a torn write: {e}"
            ))),
        };

        // The durable prefix length is exactly the WAL sequence count:
        // every op got one sequence number, across all generations.
        let k = report.next_seq as usize;
        prop_assert!(k <= scenario.ops.len());
        let reference = reference_prefix(config, &scenario.ops, k);
        assert_bit_identical(durable.pipeline(), &reference)?;

        // No double-apply, no amnesia: feeding the remaining ops lands in
        // the same state as a never-crashed full run.
        let mut full = reference;
        for op in &scenario.ops[k..] {
            match op {
                ReplayOp::Batch(b) => {
                    durable.ingest(b).unwrap();
                    full.ingest(b);
                }
                ReplayOp::Finish => {
                    durable.finish().unwrap();
                    full.finish();
                }
            }
        }
        assert_bit_identical(durable.pipeline(), &full)?;

        // And the continued store remains durable: a clean close/reopen
        // reproduces the continued state.
        durable.flush().unwrap();
        drop(durable);
        let (reopened, _) = DurableIngest::recover(
            Arc::new(RealFs),
            crash_dir.path(),
            StoreConfig::default(),
            None,
        )
        .unwrap();
        assert_bit_identical(reopened.pipeline(), &full)?;
    }

    /// Flipping any single byte of any store file is *detected*: loading
    /// either fails with a checksum/structural error or (for a WAL-tail
    /// flip) drops the torn suffix — never a panic, never silently wrong
    /// data.
    #[test]
    fn corruption_is_always_detected(
        seed in 0u64..200,
        flip_at_permille in 0u64..1000,
        xor in 1u8..=255,
    ) {
        let moft = random_moft(seed);
        let config = StreamConfig::new(120, 3600).unwrap();
        let scenario = crash_replay(
            &moft,
            &ReplayConfig { shuffle_seconds: 120, batch_size: 16, seed },
            2,
        );
        let dir = ScratchDir::new("fault-flip");
        let (applied, outcome) = drive(
            Arc::new(RealFs),
            dir.path(),
            config,
            StoreConfig::default(),
            &scenario.ops,
            &scenario.flush_after,
        );
        prop_assert!(outcome.is_ok());
        prop_assert_eq!(applied, scenario.ops.len());

        // Flip one byte somewhere in the store's files (deterministic
        // choice via the flip offset over the concatenated bytes).
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let total: u64 = files
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        prop_assert!(total > 0);
        let mut offset = total * flip_at_permille / 1000;
        for path in &files {
            let len = std::fs::metadata(path).unwrap().len();
            if offset < len {
                let mut bytes = std::fs::read(path).unwrap();
                bytes[offset as usize] ^= xor;
                std::fs::write(path, bytes).unwrap();
                break;
            }
            offset -= len;
        }

        // The flip either surfaces as a detected error or leaves a state
        // identical to some op prefix (a WAL-tail flip truncates there).
        match DurableIngest::recover(Arc::new(RealFs), dir.path(), StoreConfig::default(), None) {
            Err(_) => {} // detected: Corrupt (or Io for a mangled length)
            Ok((recovered, report)) => {
                let k = report.next_seq as usize;
                prop_assert!(k <= scenario.ops.len());
                let reference = reference_prefix(config, &scenario.ops, k);
                assert_bit_identical(recovered.pipeline(), &reference)?;
            }
        }
    }
}

/// Deterministic sweep of small byte budgets: exercises crashes inside
/// store creation and the first WAL frames, where the property test's
/// permille fractions rarely land.
#[test]
fn recovery_never_panics_on_tiny_budgets() {
    let moft = random_moft(42);
    let config = StreamConfig::new(60, 3600).unwrap();
    let scenario = crash_replay(
        &moft,
        &ReplayConfig {
            shuffle_seconds: 60,
            batch_size: 8,
            seed: 42,
        },
        2,
    );
    for budget in 0..200u64 {
        let dir = ScratchDir::new("fault-tiny");
        let fs = FailpointFs::new(budget);
        let _ = drive(
            Arc::new(fs),
            dir.path(),
            config,
            StoreConfig::default(),
            &scenario.ops,
            &scenario.flush_after,
        );
        // Whatever the on-disk state, recovery must not panic; it may
        // cleanly error only when the manifest never appeared.
        match DurableIngest::recover(Arc::new(RealFs), dir.path(), StoreConfig::default(), None) {
            Ok(_) => {}
            Err(StoreError::Io(_)) => {
                assert!(
                    !RealFs.exists(&dir.path().join("MANIFEST")),
                    "budget {budget}"
                );
            }
            Err(e) => panic!("budget {budget}: unexpected recovery error {e}"),
        }
    }
}

// --- counter liveness -------------------------------------------------

/// Four records inside hour `hour`.
fn hour_batch(hour: i64) -> Vec<Record> {
    (0..4)
        .map(|i| Record {
            oid: ObjectId(i),
            t: TimeId(hour * 3600 + 60 * i as i64),
            x: i as f64,
            y: hour as f64,
        })
        .collect()
}

/// Creates a store in `dir` on `vfs`, logs hour 0, flushes, then logs
/// hour 1; returns the store with nothing after that flush applied.
fn flushed_then_appended(vfs: Arc<dyn Vfs>, dir: &std::path::Path) -> DurableIngest {
    let config = StreamConfig::new(0, 3600).unwrap();
    let mut durable =
        DurableIngest::create(vfs, dir, config, StoreConfig::default(), None).unwrap();
    durable.ingest(&hour_batch(0)).unwrap();
    durable.flush().unwrap();
    durable.ingest(&hour_batch(1)).unwrap();
    durable
}

/// Every `StoreStats` counter has a live writer. One store appends
/// under `SyncPolicy::Never`, syncs its WAL, flushes twice (a full
/// checkpoint, then a delta) and compacts. A second is torn by a
/// `FailpointFs` budget in the middle of a WAL append and recovered,
/// which replays the surviving entries and truncates the torn frame.
#[test]
fn every_store_counter_has_a_live_writer() {
    let dir = ScratchDir::new("store-liveness-written");
    let store_config = StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    };
    let config = StreamConfig::new(0, 3600).unwrap();
    let mut written =
        DurableIngest::create(Arc::new(RealFs), dir.path(), config, store_config, None).unwrap();
    for hour in 0..2 {
        written.ingest(&hour_batch(hour)).unwrap();
    }
    written.sync_wal().unwrap();
    written.flush().unwrap();
    written.ingest(&hour_batch(2)).unwrap();
    written.flush().unwrap();
    written.compact().unwrap();

    // A dry run sizes the crash: the budget runs out 16 bytes into the
    // hour-2 append, which is a WAL frame of four records.
    let dry_dir = ScratchDir::new("store-liveness-dry");
    let dry_fs = FailpointFs::new(u64::MAX);
    drop(flushed_then_appended(
        Arc::new(dry_fs.clone()),
        dry_dir.path(),
    ));
    let torn_dir = ScratchDir::new("store-liveness-torn");
    let crash_fs = FailpointFs::new(dry_fs.bytes_consumed() + 16);
    let mut torn = flushed_then_appended(Arc::new(crash_fs.clone()), torn_dir.path());
    assert!(torn.ingest(&hour_batch(2)).is_err());
    assert!(crash_fs.crashed());
    let (recovered, _) =
        DurableIngest::recover(Arc::new(RealFs), torn_dir.path(), store_config, None).unwrap();

    let recovered = recovered.store_stats();
    let stats = written
        .store_stats()
        .map(|name, v| v + counter(&recovered, name));
    assert!(
        dead_counters(&stats).is_empty(),
        "StoreStats: {:?}",
        dead_counters(&stats)
    );
}
