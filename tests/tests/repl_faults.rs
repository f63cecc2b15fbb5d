//! Fault-injection property tests for WAL-shipping replication — the
//! network counterpart of `store_recovery.rs`.
//!
//! Strategy: a leader ingests a deterministic out-of-order workload
//! (occasionally flushing, which rotates — and with low retention,
//! discards — WAL generations) while a follower tails it through a
//! [`FaultTransport`] injecting drops, stale duplicates, frame reorders,
//! bit flips, truncations and multi-request partitions from a seeded
//! schedule. For **every** schedule:
//!
//! * the follower never panics and never applies a corrupted or
//!   out-of-order frame (flagged + refetched instead);
//! * once it reports `caught_up`, its pipeline is **bit-identical** to
//!   the leader's — every rollup bit, every counter, every dead letter —
//!   which is simultaneously the no-double-apply proof: one extra or
//!   repeated batch would shift `Count`/`Sum` bits;
//! * a durable follower crashed mid-apply (byte-budgeted
//!   [`FailpointFs`], composed *with* the faulty transport) recovers
//!   from disk and resumes to the same bit-identical convergence, and
//!   the replica's snapshot drives a query engine exactly like the
//!   leader's.
//!
//! Case count is `GISOLAP_CASES` (default 16); CI's
//! replication job raises it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gisolap_core::engine::{NaiveEngine, QueryEngine};
use gisolap_core::region::{GeoFilter, RegionC, SpatialPredicate};
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{crash_replay, CityConfig, CityScenario, ReplayConfig};
use gisolap_obs::CounterSet;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_repl::{
    DirectTransport, EpochFence, FaultConfig, FaultTransport, Follower, FollowerConfig, LagBounded,
    Leader, Request, Transport, TransportError,
};
use gisolap_store::{
    AppendFile, DurableIngest, FailpointFs, RealFs, ScratchDir, StoreConfig, StoreError,
    SyncPolicy, Vfs,
};
use gisolap_stream::{Measure, ReplayOp, RollupQuery, StreamConfig, StreamIngest};
use gisolap_tests::{counter, dead_counters};
use gisolap_traj::Moft;
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

fn follower_config() -> FollowerConfig {
    FollowerConfig {
        backoff_base_ms: 0, // schedules are seeded; sleeping adds nothing
        max_batch: 8,       // small batches exercise multi-round catch-up
        ..FollowerConfig::default()
    }
}

/// Bit-exact state comparison (same contract as `store_recovery.rs`):
/// watermark, counters, dead letters, canonical tail and every-level
/// rollup bits.
fn assert_bit_identical(a: &StreamIngest, b: &StreamIngest) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.watermark(), b.watermark());
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

/// Cap on total polls per case. The worst schedules here leave at least
/// a 20% chance of a fully clean round, so thousands of rounds bound the
/// flake probability astronomically low while still failing fast if the
/// protocol ever livelocks.
const MAX_POLLS: u64 = 10_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// The main replication property: for any workload, flush cadence,
    /// WAL retention and fault schedule, a follower that keeps polling
    /// converges to the leader bit-identically, without ever applying an
    /// entry twice.
    #[test]
    fn follower_converges_under_any_fault_schedule(
        seed in 0u64..500,
        shuffle in 0i64..=600,
        batch_size in 1usize..24,
        flush_every in 0usize..5,
        retain in 0usize..3,
        drop_p in 0u16..250,
        dup_p in 0u16..250,
        reorder_p in 0u16..300,
        flip_p in 0u16..200,
        trunc_p in 0u16..200,
        part_p in 0u16..80,
        fault_seed in 0u64..10_000,
        polls_between in 0u64..3,
    ) {
        let moft = random_moft(seed);
        let config = StreamConfig::new(shuffle, 3600).unwrap();
        let scenario = crash_replay(
            &moft,
            &ReplayConfig { shuffle_seconds: shuffle, batch_size, seed },
            flush_every,
        );
        let store_config = StoreConfig {
            sync: SyncPolicy::Never,
            retain_wal_generations: retain,
            ..StoreConfig::default()
        };
        let dir = ScratchDir::new("repl-sweep-leader");
        let durable = DurableIngest::create(
            Arc::new(RealFs), dir.path(), config, store_config, None,
        ).unwrap();
        let leader = Arc::new(Mutex::new(Leader::new(durable)));
        let transport = FaultTransport::new(
            DirectTransport::new(leader.clone()),
            FaultConfig {
                drop_permille: drop_p,
                duplicate_permille: dup_p,
                reorder_permille: reorder_p,
                flip_permille: flip_p,
                truncate_permille: trunc_p,
                partition_permille: part_p,
                partition_len: (1, 4),
                seed: fault_seed,
            },
        );
        let mut follower = Follower::memory(transport, None, FollowerConfig {
            jitter_seed: fault_seed,
            ..follower_config()
        });

        // Interleave: leader applies its workload (flushing per the
        // scenario, which rotates WALs under the follower) while the
        // follower polls through the faulty link.
        for (i, op) in scenario.ops.iter().enumerate() {
            {
                let mut l = leader.lock().unwrap();
                match op {
                    ReplayOp::Batch(b) => { l.ingest(b).unwrap(); }
                    ReplayOp::Finish => { l.finish().unwrap(); }
                }
                if scenario.flush_after.contains(&i) {
                    l.flush().unwrap();
                }
            }
            for _ in 0..polls_between {
                follower.poll().unwrap(); // Err = local apply bug, not a fault
            }
        }

        // The leader is quiescent; the follower must now converge.
        // `caught_up()` alone can be transiently optimistic when a stale
        // duplicated reply masks the leader's true high-water mark, so
        // converge on ground truth: the leader's final sequence number.
        let target = leader.lock().unwrap().next_seq();
        let mut polls = 0u64;
        while follower.cursor() < target || !follower.caught_up() {
            polls += 1;
            prop_assert!(polls < MAX_POLLS, "livelock: {:?}", follower.stats());
            follower.poll().unwrap();
        }

        let l = leader.lock().unwrap();
        prop_assert_eq!(follower.cursor(), l.next_seq(), "no entry lost or double-counted");
        assert_bit_identical(l.durable().pipeline(), follower.pipeline().unwrap())?;
    }

    /// Satellite robustness property: a *durable* follower whose local
    /// filesystem dies mid-apply (torn write included) restarts from its
    /// durable prefix and still converges — FailpointFs composed with
    /// FaultTransport — and a query engine over the replica's snapshot
    /// answers exactly like one over the leader's.
    #[test]
    fn durable_follower_crash_mid_catchup_recovers(
        seed in 0u64..200,
        budget_permille in 50u64..950,
        drop_p in 0u16..200,
        dup_p in 0u16..200,
        fault_seed in 0u64..10_000,
    ) {
        let city = CityScenario::generate(CityConfig {
            blocks_x: 2,
            blocks_y: 2,
            seed,
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(1),
            ..RandomWaypoint::new(city.bbox, 5, 16)
        }
        .generate(0);
        let config = StreamConfig::new(120, 3600).unwrap();
        let scenario = crash_replay(
            &moft,
            &ReplayConfig { shuffle_seconds: 120, batch_size: 8, seed },
            3,
        );
        let store_config = StoreConfig {
            sync: SyncPolicy::Never,
            retain_wal_generations: 2,
            ..StoreConfig::default()
        };
        let ldir = ScratchDir::new("repl-crash-leader");
        let mut durable = DurableIngest::create(
            Arc::new(RealFs), ldir.path(), config, store_config, None,
        ).unwrap();
        for (i, op) in scenario.ops.iter().enumerate() {
            match op {
                ReplayOp::Batch(b) => { durable.ingest(b).unwrap(); }
                ReplayOp::Finish => { durable.finish().unwrap(); }
            }
            if scenario.flush_after.contains(&i) {
                durable.flush().unwrap();
            }
        }
        let leader = Arc::new(Mutex::new(Leader::new(durable)));
        let faults = FaultConfig {
            drop_permille: drop_p,
            duplicate_permille: dup_p,
            seed: fault_seed,
            ..FaultConfig::default()
        };
        let fcfg = FollowerConfig { jitter_seed: fault_seed, ..follower_config() };

        // Dry run: how many bytes does a full durable catch-up write?
        let dry_dir = ScratchDir::new("repl-crash-dry");
        let dry_fs = FailpointFs::new(u64::MAX);
        {
            let mut f = Follower::durable(
                FaultTransport::new(DirectTransport::new(leader.clone()), faults),
                Arc::new(dry_fs.clone()),
                dry_dir.path(),
                store_config,
                None,
                fcfg,
            ).unwrap();
            let mut polls = 0u64;
            while !f.caught_up() {
                polls += 1;
                prop_assert!(polls < MAX_POLLS);
                f.poll().unwrap();
            }
        }
        let total_bytes = dry_fs.bytes_consumed();
        prop_assert!(total_bytes > 0);

        // Crash run: identical fault schedule, but the follower's disk
        // dies after a fraction of those bytes — mid-apply, possibly
        // mid-frame.
        let budget = total_bytes * budget_permille / 1000;
        let fdir = ScratchDir::new("repl-crash-follower");
        let crash_fs = FailpointFs::new(budget);
        {
            let mut f = match Follower::durable(
                FaultTransport::new(DirectTransport::new(leader.clone()), faults),
                Arc::new(crash_fs.clone()),
                fdir.path(),
                store_config,
                None,
                fcfg,
            ) {
                Ok(f) => f,
                Err(StoreError::Io(_)) => {
                    // Budget exhausted inside construction already.
                    prop_assert!(crash_fs.crashed());
                    return Ok(());
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
            };
            let mut crashed = false;
            for _ in 0..MAX_POLLS {
                match f.poll() {
                    Ok(_) => {
                        if f.caught_up() {
                            break;
                        }
                    }
                    Err(_) => {
                        crashed = true;
                        break;
                    }
                }
            }
            prop_assert!(
                crashed || f.caught_up(),
                "poll loop neither crashed nor converged"
            );
        }

        // Restart on a healthy filesystem: recover the durable prefix
        // (or bootstrap fresh if the crash predates the first manifest)
        // and resume through the same faulty link.
        let mut f = Follower::durable(
            FaultTransport::new(
                DirectTransport::new(leader.clone()),
                FaultConfig { seed: fault_seed.wrapping_add(1), ..faults },
            ),
            Arc::new(RealFs),
            fdir.path(),
            store_config,
            None,
            fcfg,
        ).unwrap();
        let mut polls = 0u64;
        while !f.caught_up() {
            polls += 1;
            prop_assert!(polls < MAX_POLLS, "livelock after restart: {:?}", f.stats());
            f.poll().unwrap();
        }

        let l = leader.lock().unwrap();
        prop_assert_eq!(f.cursor(), l.next_seq());
        assert_bit_identical(l.durable().pipeline(), f.pipeline().unwrap())?;

        // Engine equivalence: a replica-backed engine answers exactly
        // like a leader-backed one.
        let leader_snap = l.durable().snapshot().unwrap();
        let replica_snap = f.snapshot().unwrap();
        let region = RegionC::all().with_spatial(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::IntersectsLayer { layer: "Lr".into() },
        ));
        let on_leader = NaiveEngine::from_snapshot(&city.gis, &leader_snap);
        let on_replica = NaiveEngine::from_snapshot(&city.gis, &replica_snap);
        let mut a: Vec<(u64, i64, Option<u32>)> = on_leader
            .eval(&region)
            .unwrap()
            .iter()
            .map(|t| (t.oid.0, t.t.0, t.geo.map(|(_, g)| g.0)))
            .collect();
        let mut b: Vec<(u64, i64, Option<u32>)> = on_replica
            .eval(&region)
            .unwrap()
            .iter()
            .map(|t| (t.oid.0, t.t.0, t.geo.map(|(_, g)| g.0)))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "replica-backed engine diverged");
    }
}

/// Deterministic guard: with *certain* corruption (every reply flipped
/// or truncated), the follower flags every round and applies nothing —
/// it never panics and never lets a mangled frame through.
#[test]
fn total_corruption_applies_nothing() {
    let moft = random_moft(7);
    let config = StreamConfig::new(0, 3600).unwrap();
    let dir = ScratchDir::new("repl-allcorrupt");
    let mut durable = DurableIngest::create(
        Arc::new(RealFs),
        dir.path(),
        config,
        StoreConfig {
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        },
        None,
    )
    .unwrap();
    let records: Vec<_> = moft.records().to_vec();
    durable.ingest(&records).unwrap();
    let leader = Arc::new(Mutex::new(Leader::new(durable)));
    let mut follower = Follower::memory(
        FaultTransport::new(
            DirectTransport::new(leader.clone()),
            FaultConfig {
                flip_permille: 1000,
                seed: 99,
                ..FaultConfig::default()
            },
        ),
        None,
        FollowerConfig {
            backoff_base_ms: 0,
            ..FollowerConfig::default()
        },
    );
    for _ in 0..200 {
        follower.poll().unwrap();
    }
    assert!(!follower.caught_up());
    let s = follower.stats();
    assert_eq!(s.entries_applied, 0);
    assert_eq!(s.snapshots_installed, 0);
    assert_eq!(
        s.corrupt_replies + s.corrupt_frames + s.transport_errors,
        s.retries
    );
    assert!(s.corrupt_replies > 0, "flips must be detected: {s:?}");
}

/// A file system that can lose power: it remembers each file's length
/// at its last fsync (an atomic write made with `sync` counts as one,
/// one made without leaves nothing durable), and [`PowerLossFs::cut`]
/// truncates every file back to that length — what a power cut may
/// leave of writes that were never synced.
struct PowerLossFs {
    real: RealFs,
    synced: Arc<Mutex<HashMap<PathBuf, u64>>>,
}

impl PowerLossFs {
    fn new() -> PowerLossFs {
        PowerLossFs {
            real: RealFs,
            synced: Arc::default(),
        }
    }

    /// Cuts the power: every file the store wrote keeps only what was
    /// synced.
    fn cut(&self) {
        for (path, len) in self.synced.lock().unwrap().iter() {
            if self.real.exists(path) {
                self.real.truncate(path, *len).unwrap();
            }
        }
    }
}

struct PowerLossAppend {
    inner: Box<dyn AppendFile>,
    path: PathBuf,
    len: u64,
    synced: Arc<Mutex<HashMap<PathBuf, u64>>>,
}

impl AppendFile for PowerLossAppend {
    fn append(&mut self, bytes: &[u8]) -> gisolap_store::Result<()> {
        self.inner.append(bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> gisolap_store::Result<()> {
        self.inner.sync()?;
        self.synced
            .lock()
            .unwrap()
            .insert(self.path.clone(), self.len);
        Ok(())
    }
}

impl Vfs for PowerLossFs {
    fn read(&self, path: &Path) -> gisolap_store::Result<Vec<u8>> {
        self.real.read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8], sync: bool) -> gisolap_store::Result<()> {
        self.real.write_atomic(path, bytes, sync)?;
        let durable = if sync { bytes.len() as u64 } else { 0 };
        self.synced
            .lock()
            .unwrap()
            .insert(path.to_path_buf(), durable);
        Ok(())
    }

    fn open_append(&self, path: &Path) -> gisolap_store::Result<Box<dyn AppendFile>> {
        let len = self.real.read(path).map_or(0, |b| b.len() as u64);
        self.synced
            .lock()
            .unwrap()
            .entry(path.to_path_buf())
            .or_insert(0);
        Ok(Box::new(PowerLossAppend {
            inner: self.real.open_append(path)?,
            path: path.to_path_buf(),
            len,
            synced: self.synced.clone(),
        }))
    }

    fn remove_file(&self, path: &Path) -> gisolap_store::Result<()> {
        self.real.remove_file(path)?;
        self.synced.lock().unwrap().remove(path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> gisolap_store::Result<()> {
        self.real.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.real.exists(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> gisolap_store::Result<()> {
        self.real.truncate(path, len)?;
        if let Some(synced) = self.synced.lock().unwrap().get_mut(path) {
            *synced = (*synced).min(len);
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> gisolap_store::Result<()> {
        self.real.rename(from, to)?;
        let mut synced = self.synced.lock().unwrap();
        if let Some(len) = synced.remove(from) {
            synced.insert(to.to_path_buf(), len);
        }
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> gisolap_store::Result<()> {
        self.real.remove_dir_all(path)?;
        self.synced
            .lock()
            .unwrap()
            .retain(|p, _| !p.starts_with(path));
        Ok(())
    }
}

/// A leader on `SyncPolicy::Never` must not ship a write a power cut can
/// take back: it ingests A and flushes, ingests B unsynced, and a
/// follower syncs to cursor 2 (A and B). Power is cut; the leader
/// recovers and ingests C and D. Had B shipped unsynced, the leader
/// would hand C and D the sequence numbers 1 and 2, the follower
/// (already past 1) would apply only D, and answer SUM 1011 against the
/// leader's 1101 — labelled `Fresh`. Syncing before shipping keeps B,
/// so both hold A+B+C+D.
#[test]
fn a_follower_never_holds_a_write_its_leader_can_lose() {
    let rec = |t: i64, x: f64| gisolap_traj::Record {
        oid: gisolap_traj::ObjectId(1),
        t: gisolap_olap::time::TimeId(t),
        x,
        y: 0.0,
    };
    let dir = ScratchDir::new("repl-powercut");
    let fs = Arc::new(PowerLossFs::new());
    let store_config = StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    };
    let mut durable = DurableIngest::create(
        fs.clone(),
        dir.path(),
        StreamConfig::new(3600, 3600).unwrap(),
        store_config,
        None,
    )
    .unwrap();
    durable.ingest(&[rec(100, 1.0)]).unwrap(); // A, seq 0
    durable.flush().unwrap();
    durable.ingest(&[rec(200, 10.0)]).unwrap(); // B, seq 1, unsynced
    let leader = Arc::new(Mutex::new(Leader::new(durable)));
    let mut follower = Follower::memory(
        DirectTransport::new(leader.clone()),
        None,
        follower_config(),
    );
    follower.sync(MAX_POLLS).unwrap();
    assert!(follower.caught_up());
    assert_eq!(follower.cursor(), 2);

    drop(leader);
    fs.cut();
    let (mut durable, _) =
        DurableIngest::recover(fs.clone(), dir.path(), store_config, None).unwrap();
    durable.ingest(&[rec(300, 100.0)]).unwrap(); // C
    durable.ingest(&[rec(400, 1000.0)]).unwrap(); // D
    let leader = Arc::new(Mutex::new(Leader::new(durable)));
    follower.retarget(DirectTransport::new(leader.clone()));
    follower.sync(MAX_POLLS).unwrap();

    let sum = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    let bits = |rows: Vec<gisolap_stream::RollupRow>| -> Vec<(i64, Option<u32>, u64)> {
        rows.into_iter()
            .map(|r| (r.granule, r.geo, r.value.to_bits()))
            .collect()
    };
    let leader_rows = bits(leader.lock().unwrap().rollup(&sum).unwrap());
    match follower.rollup_bounded(&sum).unwrap() {
        LagBounded::Fresh { value, lag } => assert_eq!(
            bits(value),
            leader_rows,
            "the follower answered Fresh (lag {lag:?}) with a history its leader lost"
        ),
        LagBounded::Stale { .. } => {}
    }
    assert_eq!(
        leader_rows,
        bits(vec![gisolap_stream::RollupRow {
            granule: 0,
            geo: None,
            value: 1111.0,
        }])
    );
}

// --- counter liveness -------------------------------------------------

/// A follower's link: a live leader behind injected faults, or one
/// canned reply — how a deposed leader's reply reaches a follower that
/// has already adopted a newer epoch.
enum Link {
    Live(FaultTransport<DirectTransport>),
    Canned(Vec<u8>),
}

impl Transport for Link {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        match self {
            Link::Live(transport) => transport.exchange(request),
            Link::Canned(reply) => Ok(reply.clone()),
        }
    }
}

/// Every `LeaderStats` and `ReplStats` counter has a live writer.
///
/// - Leader A, appointed at epoch 2 under a fence, ships a workload
///   through drops, duplicates, reorders, flips, truncations and
///   partitions; a flush with no WAL retention then answers the
///   follower `Compacted`, and it falls back to a snapshot. A junk
///   request is refused, and a write after the fence moves past epoch 2
///   is fenced.
/// - Leader B, deposed at epoch 1, answers one request; the follower,
///   at epoch 2, drops that reply.
#[test]
fn every_leader_and_follower_counter_has_a_live_writer() {
    let config = StreamConfig::new(0, 3600).unwrap();
    let store = StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    };
    let leader_at = |dir: &Path, epoch, fence| {
        let durable = DurableIngest::create(Arc::new(RealFs), dir, config, store, None).unwrap();
        Arc::new(Mutex::new(Leader::with_epoch(durable, epoch, fence)))
    };
    let records = random_moft(7).records().to_vec();

    let dir_a = ScratchDir::new("repl-liveness-a");
    let fence: EpochFence = Arc::new(AtomicU64::new(2));
    let a = leader_at(dir_a.path(), 2, Some(fence.clone()));
    let faults = FaultConfig {
        drop_permille: 100,
        duplicate_permille: 200,
        reorder_permille: 200,
        flip_permille: 100,
        truncate_permille: 100,
        partition_permille: 50,
        seed: 11,
        ..FaultConfig::default()
    };
    let transport = FaultTransport::new(DirectTransport::new(a.clone()), faults);
    let mut follower = Follower::memory(Link::Live(transport), None, follower_config());
    // One record per WAL entry, three entries per poll: replies carry
    // several frames to reorder and stale duplicates repeat applied ones.
    for (i, record) in records.chunks(1).enumerate() {
        a.lock().unwrap().ingest(record).unwrap();
        if i % 3 == 2 {
            follower.poll().unwrap();
        }
    }
    // The follower is behind when the WAL it would tail is discarded.
    {
        let mut a = a.lock().unwrap();
        a.ingest(&records).unwrap();
        a.flush().unwrap();
    }
    for _ in 0..200 {
        follower.poll().unwrap();
    }
    assert!(a.lock().unwrap().handle(b"junk").is_err());
    fence.store(3, Ordering::SeqCst);
    assert!(a.lock().unwrap().ingest(&records).is_err());

    let dir_b = ScratchDir::new("repl-liveness-b");
    let b = leader_at(dir_b.path(), 1, None);
    b.lock().unwrap().ingest(&records).unwrap();
    let request = Request::Frames {
        from_seq: 0,
        max: 16,
        epoch: 1,
    };
    let stale = b.lock().unwrap().handle(&request.encode()).unwrap();
    follower.retarget(Link::Canned(stale));
    follower.poll().unwrap();

    let b_stats = b.lock().unwrap().stats();
    let leader = a
        .lock()
        .unwrap()
        .stats()
        .map(|name, v| v + counter(&b_stats, name));
    let repl = follower.stats();
    assert!(
        dead_counters(&leader).is_empty(),
        "LeaderStats: {:?}",
        dead_counters(&leader)
    );
    assert!(
        dead_counters(&repl).is_empty(),
        "ReplStats: {:?} {repl:?}",
        dead_counters(&repl)
    );
}
