//! The standing-query acceptance suite (`DESIGN.md` §6.5): **every
//! notification**'s window rows and value are bit-identical to
//! `window_value` over a from-scratch batch reference at that
//! notification's own seal — a fresh pipeline fed only the records that
//! seal had seen — for global, regional, windowed and thresholded
//! subscriptions at once, and for subscriptions registered after
//! seals. A second leg drives a lagging replica: bounded reads answer
//! `Stale { lag }` while behind (never a wrong value), every `Fresh`
//! answer matches the replica's own apply frontier exactly, and every
//! notification it emits passes the same from-scratch check.
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
use gisolap_obs::CounterSet;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_repl::{DirectTransport, Follower, FollowerConfig, LagBounded, Leader};
use gisolap_shard::GridSpec;
use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig, SyncPolicy};
use gisolap_stream::{CellPartial, GroupKey, Measure, StreamConfig, StreamIngest};
use gisolap_sub::{window_value, Notification, StandingEvaluator, SubId, Subscription};
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

/// A pipeline's sealed cube restricted to the subscription's
/// overlay-cell filter.
fn cube_reference(pipeline: &StreamIngest, sub: &Subscription) -> BTreeMap<GroupKey, CellPartial> {
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

/// The from-scratch batch reference at the seal of `partition`: a fresh
/// pipeline fed only the records of partitions up to it (the workload is
/// time-sorted, so those are exactly what that seal had seen), sealed
/// wholesale and never incrementally.
fn scratch_pipeline(records: &[Record], partition: i64) -> StreamIngest {
    let mut pipeline = StreamIngest::new(stream_config())
        .unwrap()
        .with_resolver(grid().resolver());
    let seen: Vec<Record> = records
        .iter()
        .filter(|r| r.t.0.div_euclid(3600) <= partition)
        .copied()
        .collect();
    pipeline.ingest(&seen);
    pipeline.finish();
    pipeline
}

/// One replication poll, then the replica's evaluator syncs off the
/// follower's own pipeline.
fn poll(follower: &mut Follower<DirectTransport>, evaluator: &mut StandingEvaluator) {
    follower.poll().unwrap();
    if let Some(pipeline) = follower.pipeline() {
        evaluator.sync_pipeline(pipeline);
    }
}

/// Checks each notification's rows and value bits against
/// `window_value` over the from-scratch reference at its own seal;
/// references are built once per partition into `cache`.
fn check_notifications(
    items: &[Notification],
    ids: &[(SubId, Subscription)],
    records: &[Record],
    cache: &mut BTreeMap<i64, StreamIngest>,
    label: &str,
) {
    for n in items {
        let sub = &ids
            .iter()
            .find(|(id, _)| *id == n.sub)
            .expect("registered")
            .1;
        let reference = cache
            .entry(n.partition)
            .or_insert_with(|| scratch_pipeline(records, n.partition));
        let (rows, value) = window_value(sub, &cube_reference(reference, sub));
        assert_eq!(
            bits(&n.rows),
            bits(&rows),
            "{label}: rows diverged for {sub:?}"
        );
        assert_eq!(
            n.value.map(f64::to_bits),
            value.map(f64::to_bits),
            "{label}: value diverged for {sub:?} at partition {}",
            n.partition
        );
    }
}

fn bits(rows: &[gisolap_stream::RollupRow]) -> Vec<(i64, Option<u32>, u64)> {
    rows.iter()
        .map(|r| (r.granule, r.geo, r.value.to_bits()))
        .collect()
}

/// Every subscription's current value is the batch answer over the
/// pipeline's cube as it stands (for subscriptions registered before the
/// first seal: a later one has no value until its first notification).
fn assert_values_match_cube(
    evaluator: &StandingEvaluator,
    ids: &[(SubId, Subscription)],
    pipeline: &StreamIngest,
    label: &str,
) {
    for (id, sub) in ids {
        let (_, batch_value) = window_value(sub, &cube_reference(pipeline, sub));
        assert_eq!(
            evaluator.value(*id).map(f64::to_bits),
            batch_value.map(f64::to_bits),
            "{label}: window value diverged for {sub:?}"
        );
    }
}

/// Feeds `records` in `chunk`-sized batches and then finishes, syncing
/// `evaluator` after each step and checking every new notification and
/// value against the batch references; `on_step` runs after each sync
/// (it may register subscriptions).
fn drive(
    evaluator: &mut StandingEvaluator,
    ids: &mut Vec<(SubId, Subscription)>,
    records: &[Record],
    chunk: usize,
    mut on_step: impl FnMut(&StreamIngest, &mut StandingEvaluator, &mut Vec<(SubId, Subscription)>),
) -> StreamIngest {
    let mut pipeline = StreamIngest::new(stream_config())
        .unwrap()
        .with_resolver(grid().resolver());
    let mut cache = BTreeMap::new();
    let mut since = 0;
    let from_the_start = ids.len();
    for batch in records.chunks(chunk).map(Some).chain([None]) {
        if let Some(batch) = batch {
            pipeline.ingest(batch);
        } else {
            pipeline.finish();
        }
        evaluator.sync_pipeline(&pipeline);
        let (items, next) = evaluator.notifications_since(since);
        since = next;
        check_notifications(&items, ids, records, &mut cache, "incremental");
        assert_values_match_cube(evaluator, &ids[..from_the_start], &pipeline, "after sync");
        on_step(&pipeline, evaluator, ids);
    }
    pipeline
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// The tentpole invariant: after **every ingest step and the final
    /// finish**, every notification the evaluator emitted equals the
    /// from-scratch batch answer at its own seal, bit for bit, and every
    /// current value equals the batch answer over the cube as it
    /// stands. A second evaluator reading the whole history in one sync
    /// emits the same notifications.
    #[test]
    fn incremental_state_matches_batch_at_every_seal(seed in 0u64..1_000_000) {
        let records = workload(seed);
        let mut evaluator = StandingEvaluator::new(Some(grid()));
        let mut ids = Vec::new();
        for sub in subscriptions(seed) {
            ids.push((evaluator.register(sub.clone()).expect("register"), sub));
        }
        let chunk = 1 + records.len() / (3 + (seed % 5) as usize);
        let pipeline = drive(&mut evaluator, &mut ids, &records, chunk, |_, _, _| {});

        // The workload really exercised the seal path.
        let stats = evaluator.stats();
        prop_assert!(stats.seals_folded > 0, "no seals evaluated: {stats:?}");
        prop_assert!(!cube_reference(&pipeline, &ids[0].1).is_empty());

        // Replay from scratch: same subscriptions, whole history in one
        // sync — the same notifications, bit for bit.
        let mut replay = StandingEvaluator::new(Some(grid()));
        for (id, sub) in &ids {
            let replay_id = replay.register(sub.clone()).expect("register replay");
            prop_assert_eq!(replay_id, *id, "replay ids must line up");
        }
        replay.sync_pipeline(&pipeline);
        let (want, _) = evaluator.notifications_since(0);
        let (got, _) = replay.notifications_since(0);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));

        // Hysteresis sanity on the burst detector: crossings alternate,
        // starting upward — a value can never cross up twice without
        // falling back through the band.
        let crossings: Vec<_> = want
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

    /// Registration after seals: a windowed and a whole-history
    /// subscription registered once the evaluator has synced past some
    /// seals get their first notification at the next seal, and it is
    /// the batch query's answer — the window, or all history, including
    /// the seals made before registration.
    #[test]
    fn a_subscription_registered_late_reports_the_batch_answer(seed in 0u64..1_000_000) {
        let records = workload(seed);
        let mut evaluator = StandingEvaluator::new(Some(grid()));
        let mut ids = Vec::new();
        let late = [
            Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum)
                .over_hours(2 + (seed % 3) as u32),
            Subscription::new(TimeLevel::Day, Measure::Y, AggFn::Avg),
        ];
        // Register once two seals are synced (sync, then register, as
        // the server does).
        let mut registered = None;
        drive(&mut evaluator, &mut ids, &records, 16, |pipeline, evaluator, ids| {
            if registered.is_none() && pipeline.segments().len() >= 2 {
                for sub in &late {
                    ids.push((evaluator.register(sub.clone()).expect("register"), sub.clone()));
                }
                let sealed = pipeline.segments().last().expect("sealed").meta().partition;
                registered = Some((evaluator.notifications_since(0).1, sealed));
            }
        });
        let (since, sealed) = registered.expect("registered mid-stream");
        let (items, _) = evaluator.notifications_since(since);
        for (id, sub) in &ids {
            let first = items.iter().find(|n| n.sub == *id);
            let first = first.expect("the next seal notifies a global subscription");
            prop_assert!(first.partition > sealed, "notified a seal from before registration");
            prop_assert!(first.prev.is_none(), "a new subscription has no previous value");
            let reference = scratch_pipeline(&records, first.partition);
            let (rows, value) = window_value(sub, &cube_reference(&reference, sub));
            prop_assert_eq!(bits(&first.rows), bits(&rows), "rows diverged for {:?}", sub);
            prop_assert_eq!(
                first.value.map(f64::to_bits),
                value.map(f64::to_bits),
                "value diverged for {:?}", sub
            );
        }
    }

    /// The replica leg: a follower applying the leader's log in
    /// one-entry batches serves standing queries off its own apply
    /// path. While knowingly behind, bounded reads answer `Stale` —
    /// and every `Fresh` value is bit-identical to the batch reference
    /// over the replica's **own** pipeline (its current frontier, not
    /// the leader's). Every notification the replica emits passes the
    /// from-scratch check at its own seal, and after full catch-up the
    /// replica's values match the leader's cube bit for bit.
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

        let mut follower = Follower::memory(
            transport,
            Some(grid().resolver()),
            FollowerConfig {
                backoff_base_ms: 0,
                max_lag_seqs: Some(0),
                max_batch: 1,
                ..FollowerConfig::default()
            },
        );
        // The replica's evaluator syncs off the follower's own pipeline
        // after every poll; reads go through the follower's lag gate.
        let mut evaluator = StandingEvaluator::new(Some(grid()));
        let mut ids = Vec::new();
        for sub in subscriptions(seed) {
            ids.push((evaluator.register(sub.clone()).expect("register"), sub));
        }
        // Never synced: stale, with unknown lag.
        for (id, _) in &ids {
            let never_synced = follower.bounded(evaluator.value(*id));
            prop_assert!(matches!(never_synced, LagBounded::Stale { .. }));
        }

        // Feed the leader two log entries at a time and poll one entry
        // at a time, so each batch is checked once knowingly behind and
        // once caught up.
        let mut cache = BTreeMap::new();
        let mut since = 0;
        let (mut stale_answers, mut fresh_answers) = (0, 0);
        let chunk = 1 + records.len() / 4;
        for batch in records.chunks(chunk) {
            let (first, second) = batch.split_at(batch.len() / 2);
            for half in [first, second].into_iter().filter(|h| !h.is_empty()) {
                leader.lock().unwrap().ingest(half).unwrap();
            }
            for _ in 0..2 {
                poll(&mut follower, &mut evaluator);
                let (items, next) = evaluator.notifications_since(since);
                since = next;
                check_notifications(&items, &ids, &records, &mut cache, "replica");
                let synced = follower.lag().seqs == Some(0);
                for (id, sub) in &ids {
                    match follower.bounded(evaluator.value(*id)) {
                        LagBounded::Fresh { value, .. } => {
                            prop_assert!(synced, "fresh answer while behind");
                            let pipeline = follower.pipeline().expect("bootstrapped");
                            let (_, want) = window_value(sub, &cube_reference(pipeline, sub));
                            prop_assert_eq!(value.map(f64::to_bits), want.map(f64::to_bits));
                            fresh_answers += 1;
                        }
                        LagBounded::Stale { .. } => {
                            prop_assert!(!synced, "stale answer while caught up");
                            stale_answers += 1;
                        }
                    }
                }
            }
        }
        prop_assert!(stale_answers > 0 && fresh_answers > 0, "both legs ran");
        for _ in 0..10_000 {
            if follower.caught_up() {
                break;
            }
            poll(&mut follower, &mut evaluator);
        }
        prop_assert!(follower.caught_up());
        let (items, _) = evaluator.notifications_since(since);
        check_notifications(&items, &ids, &records, &mut cache, "replica catch-up");

        // Converged: the replica's values equal the batch answers over
        // the leader's own sealed pipeline. (No `finish()` here — a tail
        // seal is a local pipeline event, not a log entry, so the shared
        // frontier is what the records themselves sealed on both sides.)
        let leader_guard = leader.lock().unwrap();
        let leader_pipeline = leader_guard.durable().pipeline();
        for (id, sub) in &ids {
            let (_, want_value) = window_value(sub, &cube_reference(leader_pipeline, sub));
            match follower.bounded(evaluator.value(*id)) {
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

/// Every `SubStats` counter has a live writer: one seeded run with the
/// subscription mix of the sweep above moves all four.
#[test]
fn every_sub_counter_has_a_live_writer() {
    let seed = 5;
    let records = workload(seed);
    let mut evaluator = StandingEvaluator::new(Some(grid()));
    let mut ids = Vec::new();
    for sub in subscriptions(seed) {
        ids.push((evaluator.register(sub.clone()).expect("register"), sub));
    }
    drive(&mut evaluator, &mut ids, &records, 16, |_, _, _| {});
    for (field, value) in evaluator.stats().fields() {
        assert!(value > 0, "SubStats::{field} never moved");
    }
}
