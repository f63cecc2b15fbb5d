//! The standing-query acceptance suite (`DESIGN.md` §5j): at **every
//! seal point**, the incremental evaluator's per-subscription state is
//! bit-identical to filtering a from-scratch batch cube, and the
//! derived window values match the batch finalizer bit for bit — for
//! global, regional, windowed and thresholded subscriptions at once.
//! A second leg drives a lagging replica: bounded reads answer
//! `Stale { lag }` while behind (never a wrong value), and every
//! `Fresh` answer matches the replica's own apply frontier exactly.
//!
//! The workload is [`EventCrowd`]: a quantized audience whose density
//! spikes into one venue cell for an event window — so regional
//! subscriptions see a real burst, thresholds actually cross, and
//! coordinate sums stay exact in f64 (bit-identity is a theorem, not
//! luck).
//!
//! Case count sweeps with `GISOLAP_CASES` (CI runs a deeper seeded
//! sweep than the default 16).

use gisolap_datagen::EventCrowd;
use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_repl::{DirectTransport, Follower, FollowerConfig, LagBounded, Leader};
use gisolap_shard::GridSpec;
use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig, SyncPolicy};
use gisolap_stream::{CellPartial, GroupKey, Measure, StreamConfig, StreamIngest};
use gisolap_sub::{window_value, StandingEvaluator, StandingFollower, SubId, Subscription};
use gisolap_traj::Record;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

fn area() -> BBox {
    BBox::new(0.0, 0.0, 64.0, 64.0)
}

/// Sits inside the top-right cell of the 2×2 grid.
fn venue() -> BBox {
    BBox::new(36.0, 36.0, 44.0, 44.0)
}

fn grid() -> GridSpec {
    GridSpec::new(area(), 2, 2).unwrap()
}

/// A bursty crowd, time-sorted so the zero-lateness pipeline seals
/// eagerly and drops nothing; `seed` varies size, cadence and the event
/// window.
fn workload(seed: u64) -> Vec<Record> {
    let crowd = EventCrowd {
        seed,
        objects: 4 + (seed % 5) as usize,
        samples_per_object: 24 + (seed % 4) as usize * 12,
        event_start_hour: 2 + (seed % 3) as u32,
        event_end_hour: 4 + (seed % 3) as u32,
        ..EventCrowd::new(area(), venue(), 0)
    };
    let mut records = crowd.generate(seed * 1000).records().to_vec();
    records.sort_by_key(|r| (r.t, r.oid));
    records
}

/// The subscription mix every case runs: global sum, a windowed +
/// thresholded count over the venue (the burst detector), a windowed
/// day-level average, and a regional min over the quiet corner.
fn subscriptions(seed: u64) -> Vec<Subscription> {
    vec![
        Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum),
        Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count)
            .in_region(venue())
            .over_hours(1 + (seed % 3) as u32)
            .with_threshold(4.0, 2.0),
        Subscription::new(TimeLevel::Day, Measure::Y, AggFn::Avg).over_hours(4),
        Subscription::new(TimeLevel::Hour, Measure::Y, AggFn::Min)
            .in_region(BBox::new(0.0, 0.0, 8.0, 8.0)),
    ]
}

fn stream_config() -> StreamConfig {
    StreamConfig::new(0, 3600).unwrap()
}

/// The from-scratch reference: the batch cube's sealed cells restricted
/// to the subscription's overlay-cell filter — rebuilt wholesale at
/// every check, never incrementally.
fn batch_reference(pipeline: &StreamIngest, sub: &Subscription) -> BTreeMap<GroupKey, CellPartial> {
    let filter: Option<BTreeSet<u32>> = sub
        .region
        .map(|r| grid().cells_intersecting(&r).into_iter().collect());
    pipeline
        .cube()
        .cells()
        .filter(|(k, _)| match (&filter, k.1) {
            (None, _) => true,
            (Some(f), Some(geo)) => f.contains(&geo),
            (Some(_), None) => false,
        })
        .map(|(k, c)| (*k, *c))
        .collect()
}

/// At one seal frontier: state bits and window-value bits, incremental
/// vs from-scratch, for every subscription.
fn assert_matches_batch(
    evaluator: &StandingEvaluator,
    ids: &[(SubId, Subscription)],
    pipeline: &StreamIngest,
    label: &str,
) {
    for (id, sub) in ids {
        let want = batch_reference(pipeline, sub);
        assert_eq!(
            evaluator.cells(*id).expect("registered"),
            &want,
            "{label}: state diverged for {sub:?}"
        );
        let (_, batch_value) = window_value(sub, &want);
        assert_eq!(
            evaluator.value(*id).map(f64::to_bits),
            batch_value.map(f64::to_bits),
            "{label}: window value diverged for {sub:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// The tentpole invariant: after **every ingest step and the final
    /// finish** — i.e. at every seal frontier the pipeline ever
    /// exposes — the hook-driven evaluator is bit-identical to the
    /// batch cube, and a second evaluator replayed from scratch lands
    /// on the same bits and the same registry.
    #[test]
    fn incremental_state_matches_batch_at_every_seal(seed in 0u64..1_000_000) {
        let records = workload(seed);
        let evaluator = Arc::new(Mutex::new(StandingEvaluator::new(Some(grid()))));
        let mut ids = Vec::new();
        for sub in subscriptions(seed) {
            let id = evaluator
                .lock()
                .unwrap()
                .register(sub.clone())
                .expect("register");
            ids.push((id, sub));
        }
        let mut pipeline = StreamIngest::new(stream_config())
            .unwrap()
            .with_resolver(grid().resolver());
        pipeline.set_seal_hook(Some(StandingEvaluator::hook(evaluator.clone())));

        let chunk = 1 + records.len() / (3 + (seed % 5) as usize);
        for batch in records.chunks(chunk) {
            pipeline.ingest(batch);
            assert_matches_batch(&evaluator.lock().unwrap(), &ids, &pipeline, "mid-ingest");
        }
        pipeline.finish();
        let evaluator = evaluator.lock().unwrap();
        assert_matches_batch(&evaluator, &ids, &pipeline, "finished");

        // The workload really exercised the fold path.
        let stats = evaluator.stats();
        prop_assert!(stats.seals_folded > 0, "no seals folded: {stats:?}");
        prop_assert!(!batch_reference(&pipeline, &ids[0].1).is_empty());

        // Replay from scratch: same subscriptions, whole history in one
        // sync — identical bits, value by value.
        let mut replay = StandingEvaluator::new(Some(grid()));
        for (id, sub) in &ids {
            let replay_id = replay.register(sub.clone()).expect("register replay");
            prop_assert_eq!(replay_id, *id, "replay ids must line up");
        }
        replay.sync_pipeline(&pipeline);
        for (id, sub) in &ids {
            prop_assert_eq!(
                replay.cells(*id).expect("replay registered"),
                evaluator.cells(*id).expect("registered"),
                "replay state diverged for {:?}", sub
            );
            prop_assert_eq!(
                replay.value(*id).map(f64::to_bits),
                evaluator.value(*id).map(f64::to_bits)
            );
        }

        // Hysteresis sanity on the burst detector: crossings alternate,
        // starting upward — a value can never cross up twice without
        // falling back through the band.
        let (notifications, _) = evaluator.notifications_since(0);
        let crossings: Vec<_> = notifications
            .iter()
            .filter(|n| n.sub == ids[1].0)
            .filter_map(|n| n.crossing)
            .collect();
        for (i, c) in crossings.iter().enumerate() {
            let expect_up = i % 2 == 0;
            prop_assert_eq!(
                matches!(c, gisolap_sub::Crossing::Up),
                expect_up,
                "crossing {} out of order: {:?}", i, crossings
            );
        }
    }

    /// The replica leg: a follower applying the leader's log in
    /// one-entry batches serves standing queries off its own apply
    /// path. While knowingly behind, bounded reads answer `Stale` —
    /// and every `Fresh` value is bit-identical to the batch reference
    /// over the replica's **own** pipeline (its current frontier, not
    /// the leader's). After full catch-up the replica matches a
    /// leader-side from-scratch evaluator bit for bit.
    #[test]
    fn lagging_follower_is_stale_never_wrong(seed in 0u64..1_000_000) {
        let scratch = ScratchDir::new("sub-eq-follow");
        let records = workload(seed);
        let durable = DurableIngest::create(
            Arc::new(RealFs),
            scratch.path(),
            stream_config(),
            StoreConfig { sync: SyncPolicy::Never, ..StoreConfig::default() },
            Some(grid().resolver()),
        )
        .unwrap();
        let leader = Arc::new(Mutex::new(Leader::new(durable)));
        let transport = DirectTransport::new(leader.clone());

        let follower = Follower::memory(
            transport,
            Some(grid().resolver()),
            FollowerConfig {
                backoff_base_ms: 0,
                max_lag_seqs: Some(0),
                max_batch: 1,
                ..FollowerConfig::default()
            },
        );
        let mut standing = StandingFollower::new(follower, Some(grid()));
        let mut ids = Vec::new();
        for sub in subscriptions(seed) {
            ids.push((standing.register(sub.clone()).expect("register"), sub));
        }

        // Feed the leader in several batches, partially polling between
        // them so the replica is genuinely behind at the checkpoints.
        let chunk = 1 + records.len() / 4;
        for batch in records.chunks(chunk) {
            leader.lock().unwrap().ingest(batch).unwrap();
            standing.poll().unwrap();
            let synced = standing.follower().lag().seqs == Some(0);
            for (id, sub) in &ids {
                match standing.value_bounded(*id) {
                    LagBounded::Fresh { value, .. } => {
                        prop_assert!(synced, "fresh answer while behind");
                        let pipeline = standing.follower().pipeline().expect("bootstrapped");
                        let (_, want) = window_value(sub, &batch_reference(pipeline, sub));
                        prop_assert_eq!(value.map(f64::to_bits), want.map(f64::to_bits));
                    }
                    LagBounded::Stale { .. } => {
                        prop_assert!(!synced, "stale answer while caught up");
                    }
                }
            }
        }
        standing.sync(10_000).unwrap();
        prop_assert!(standing.follower().caught_up());

        // Converged: the replica's standing state equals a from-scratch
        // evaluator over the leader's own sealed pipeline. (No
        // `finish()` here — a tail seal is a local pipeline event, not
        // a log entry, so the shared frontier is what the records
        // themselves sealed on both sides.)
        let leader_guard = leader.lock().unwrap();
        let leader_pipeline = leader_guard.durable().pipeline();
        for (id, sub) in &ids {
            let want = batch_reference(leader_pipeline, sub);
            prop_assert_eq!(
                standing.evaluator().cells(*id).expect("registered"),
                &want,
                "replica state diverged for {:?}", sub
            );
            let (_, want_value) = window_value(sub, &want);
            match standing.value_bounded(*id) {
                LagBounded::Fresh { value, .. } => {
                    prop_assert_eq!(value.map(f64::to_bits), want_value.map(f64::to_bits));
                }
                LagBounded::Stale { lag } => {
                    return Err(TestCaseError::fail(format!(
                        "caught-up replica answered stale: {lag:?}"
                    )));
                }
            }
        }
    }
}
