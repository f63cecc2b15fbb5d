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

// --- CRC32 ------------------------------------------------------------

/// The byte-at-a-time CRC32 register step (reflected IEEE polynomial,
/// one 256-entry table): the reference the lane-parallel `crc32` must
/// equal.
fn crc32_bytewise_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    table
}

fn crc32_bytewise(table: &[u32; 256], bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |c, &b| {
        table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// A deterministic pseudo-random buffer (splitmix64 words).
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Every length from 0 to three lane thresholds + 17, at every start
/// offset 0–15: the serial path, the lane split at and around its
/// threshold, and every remainder the lanes leave.
#[test]
fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
    use gisolap_store::codec::{crc32, CRC_LANE_MIN_BYTES};
    let table = crc32_bytewise_table();
    let max = 3 * CRC_LANE_MIN_BYTES + 17;
    let buf = noise(max + 16, 7);
    for offset in 0..16 {
        let bytes = &buf[offset..offset + max];
        // The reference register runs once over the whole buffer; its
        // value after `len` bytes is the CRC of that prefix.
        let mut reg = !0u32;
        for len in 0..=max {
            assert_eq!(
                crc32(&bytes[..len]),
                !reg,
                "length {len} at offset {offset}"
            );
            if let Some(&b) = bytes.get(len) {
                reg = table[((reg ^ b as u32) & 0xFF) as usize] ^ (reg >> 8);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// Random buffers up to 1 MiB, at random start offsets.
    #[test]
    fn crc32_equals_the_bytewise_reference_on_random_buffers(
        len in 0usize..=1 << 20,
        offset in 0usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let buf = noise(len + offset, seed);
        let bytes = &buf[offset..];
        let table = crc32_bytewise_table();
        prop_assert_eq!(gisolap_store::codec::crc32(bytes), crc32_bytewise(&table, bytes));
    }
}

// --- open decodes cells, not records ------------------------------------

/// A store in `dir` holding `random_moft(seed)` replayed and flushed
/// twice (so several segment files), closed with a WAL tail; returns
/// the live pipeline's extracted partials and every rollup it answered.
fn flushed_store(dir: &std::path::Path, seed: u64) -> StreamIngest {
    let moft = random_moft(seed);
    let config = StreamConfig::new(120, 3600).unwrap();
    let scenario = crash_replay(
        &moft,
        &ReplayConfig {
            shuffle_seconds: 120,
            batch_size: 16,
            seed,
        },
        2,
    );
    let (applied, outcome) = drive(
        Arc::new(RealFs),
        dir,
        config,
        StoreConfig::default(),
        &scenario.ops,
        &scenario.flush_after,
    );
    assert!(outcome.is_ok());
    reference_prefix(config, &scenario.ops, applied)
}

/// Every rollup's `(granule, geo, value bits)` rows.
fn every_rollup(p: &StreamIngest) -> Vec<Vec<(i64, Option<u32>, u64)>> {
    let mut out = Vec::new();
    for level in [TimeLevel::Hour, TimeLevel::Day, TimeLevel::Month] {
        for measure in [Measure::X, Measure::Y] {
            for f in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
                let rows = p.rollup(&RollupQuery::new(level, measure, f)).unwrap();
                out.push(
                    rows.into_iter()
                        .map(|r| (r.granule, r.geo, r.value.to_bits()))
                        .collect(),
                );
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// A recovered store answers every rollup and `extract_partials`
    /// from its cells before any record is touched, bit for bit; then,
    /// on first touch (through whichever accessor comes first, or a
    /// clone), each segment's records, summary, objects and tracks equal
    /// the live pipeline's and an eagerly decoded copy of its file.
    #[test]
    fn recovered_segments_answer_from_cells_and_decode_on_first_touch(
        seed in 0u64..200,
        first_touch in 0u8..4,
    ) {
        let dir = ScratchDir::new("lazy-open");
        let live = flushed_store(dir.path(), seed);
        let (recovered, report) =
            DurableIngest::recover(Arc::new(RealFs), dir.path(), StoreConfig::default(), None)
                .unwrap();
        prop_assert!(report.segments_loaded > 0);
        let p = recovered.pipeline();
        use gisolap_store::codec;
        let bits = |cells: Vec<(gisolap_stream::GroupKey, gisolap_stream::CellPartial)>| {
            cells
                .into_iter()
                .map(|(k, c)| (k, [c.x, c.y].map(|m| (m.count(), m.sum().to_bits(), m.min().to_bits(), m.max().to_bits()))))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(p.extract_partials()), bits(live.extract_partials()));
        prop_assert_eq!(every_rollup(p), every_rollup(&live));

        // Nothing compacted: the recovered segments are the live
        // pipeline's, and the first `segments_loaded` were opened from
        // one file each (the rest were sealed again by WAL replay).
        prop_assert_eq!(p.segments().len(), live.segments().len());
        for (i, (seg, want)) in p.segments().iter().zip(live.segments()).enumerate() {
            let seg = match first_touch {
                0 => { seg.meta(); seg.clone() }
                1 => { seg.track(gisolap_traj::ObjectId(0)); seg.clone() }
                2 => { seg.objects().count(); seg.clone() }
                _ => seg.clone(), // a clone of an untouched segment decodes on its own
            };
            prop_assert_eq!(seg.partition(), want.partition());
            prop_assert_eq!(seg.records(), want.records());
            prop_assert_eq!(seg.meta(), want.meta());
            prop_assert_eq!(seg.objects().collect::<Vec<_>>(), want.objects().collect::<Vec<_>>());
            for oid in seg.objects().chain([gisolap_traj::ObjectId(u64::MAX)]) {
                prop_assert_eq!(seg.track(oid), want.track(oid));
            }
            if (i as u64) < report.segments_loaded {
                let file = dir.path().join(format!("seg-{0}-{0}.seg", seg.partition()));
                let (bytes, name) = (std::fs::read(&file).unwrap(), file.to_str().unwrap());
                let body = codec::check_header(&bytes, codec::FileKind::Segment, name).unwrap();
                let payload = codec::read_single_frame(body, name).unwrap();
                let eager = codec::decode_segment(payload, name).unwrap();
                prop_assert_eq!(seg.records(), eager.records());
                prop_assert_eq!(seg.meta(), eager.meta());
                prop_assert_eq!(codec::encode_segment(&seg), payload.to_vec());
            }
        }
    }
}

/// A segment file whose frame checksum is valid but whose records are
/// out of `(oid, t)` order — or repeat a key — is `Corrupt` at open, as
/// it was when open decoded every record.
#[test]
fn a_crc_valid_segment_with_unordered_records_is_corrupt_at_open() {
    use gisolap_store::codec::{self, FileKind};
    for (i, j) in [(0, 1), (3, 1)] {
        let dir = ScratchDir::new("lazy-unordered");
        let config = StreamConfig::new(0, 3600).unwrap();
        let mut durable = DurableIngest::create(
            Arc::new(RealFs),
            dir.path(),
            config,
            StoreConfig::default(),
            None,
        )
        .unwrap();
        durable.ingest(&hour_batch(0)).unwrap();
        durable.ingest(&hour_batch(1)).unwrap();
        durable.flush().unwrap();
        drop(durable);

        let file = dir.path().join("seg-0-0.seg");
        let bytes = std::fs::read(&file).unwrap();
        let name = file.to_str().unwrap();
        let payload = codec::read_single_frame(
            codec::check_header(&bytes, FileKind::Segment, name).unwrap(),
            name,
        )
        .unwrap();
        // Partition, count, then 32-byte records: overwrite record `j`'s
        // key with record `i`'s (a swap for (0, 1), a repeat for (3, 1)).
        let mut bad = payload.to_vec();
        let key = |r: usize| 16 + 32 * r..16 + 32 * r + 16;
        let (ki, kj) = (bad[key(i)].to_vec(), bad[key(j)].to_vec());
        bad[key(j)].copy_from_slice(&ki);
        if (i, j) == (0, 1) {
            bad[key(i)].copy_from_slice(&kj);
        }
        let mut file_bytes = codec::header(FileKind::Segment);
        file_bytes.extend_from_slice(&codec::frame(&bad));
        std::fs::write(&file, &file_bytes).unwrap();

        assert!(matches!(
            codec::open_segment(file_bytes.clone(), name),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            codec::decode_segment(&bad, name),
            Err(StoreError::Corrupt { .. })
        ));
        match DurableIngest::recover(Arc::new(RealFs), dir.path(), StoreConfig::default(), None) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!(
                "recovery over unordered records: {:?}",
                other.map(|(_, r)| r)
            ),
        }
    }
}
