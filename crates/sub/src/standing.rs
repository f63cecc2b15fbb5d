//! The incremental standing-query evaluator.
//!
//! One [`StandingEvaluator`] observes a pipeline's segment seals and
//! folds each sealed partial slice into per-subscription running state
//! — the same `(hour, geo) → CellPartial` shape the [`DeltaCube`] keeps,
//! restricted to the subscription's region. Because the fold applies the
//! cube's own merge algebra in the cube's own order (ascending
//! partitions, ascending keys within a seal), the running state is
//! **bit-identical** to filtering a from-scratch batch cube — the
//! invariant `tests/tests/sub_equivalence.rs` proves at every seal.
//!
//! [`DeltaCube`]: gisolap_stream::DeltaCube

use crate::registry::{Registry, SubId, Subscription};
use crate::sink::Sink;
use gisolap_obs::{counters, MetricsRegistry, Span, Tracer};
use gisolap_olap::agg::Partial;
use gisolap_olap::time::TimeId;
use gisolap_shard::GridSpec;
use gisolap_store::Result;
use gisolap_stream::{
    CellPartial, DeltaCube, GroupKey, RollupQuery, RollupRow, SealEvent, SealHook, StreamIngest,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

counters! {
    /// Point-in-time copy of the standing-query counters.
    pub struct SubStats["gisolap_sub_", "Standing-query counter."] {
        /// Subscriptions admitted by [`StandingEvaluator::register`].
        registered,
        /// Notifications emitted (to sinks and the catch-up buffer).
        notifications,
        /// Segment seals folded into running state (silent catch-up folds
        /// included).
        seals_folded,
        /// Threshold crossings fired (up and down).
        threshold_fires,
    }
}

/// Which hysteresis band a notification's value crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossing {
    /// The value reached the threshold's `rise` band from below.
    Up,
    /// The value fell to the threshold's `fall` band from above.
    Down,
}

/// One push to a subscription: emitted after a seal touched at least one
/// of the subscription's cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The subscription notified.
    pub sub: SubId,
    /// Evaluator-wide ascending sequence number (the catch-up cursor).
    pub seq: u64,
    /// The sealed partition that triggered the fold.
    pub partition: i64,
    /// The window rollup at the subscription's level, the same rows the
    /// equivalent batch query returns.
    pub rows: Vec<RollupRow>,
    /// The scalar window aggregate (`None` when the window holds no
    /// observations, e.g. MIN over an empty window).
    pub value: Option<f64>,
    /// The previous notification's scalar value — `value − prev` is the
    /// delta subscribers alert on.
    pub prev: Option<f64>,
    /// Set when this value crossed the subscription's threshold.
    pub crossing: Option<Crossing>,
}

/// Evaluates `sub` against running `cells` the way the batch engine
/// would: the trailing window is anchored at the newest sealed hour in
/// `cells`, the rows come from the cube's own rollup finalizer, and the
/// scalar value merges the in-window measure partials in ascending key
/// order. Shared by the incremental fold and the from-scratch reference
/// (`tests/tests/sub_equivalence.rs`, the `sub_latency` bench) so both
/// sides finalize identically and only the *state construction* differs.
pub fn window_value(
    sub: &Subscription,
    cells: &BTreeMap<GroupKey, CellPartial>,
) -> (Vec<RollupRow>, Option<f64>) {
    let Some(frontier) = cells.keys().next_back().map(|k| k.0) else {
        return (Vec::new(), None);
    };
    let window = sub.window_hours.map(|w| {
        let lo = frontier - (i64::from(w) - 1);
        (lo, frontier)
    });
    let mut q = RollupQuery::new(sub.level, sub.measure, sub.agg);
    if let Some((lo, hi)) = window {
        q = q.between(TimeId(lo * 3600), TimeId(hi * 3600));
    }
    let rows = DeltaCube::new()
        .rollup(&q, cells)
        .expect("subscription level validated at registration");
    let mut merged = Partial::new();
    for (&(hour, _), cell) in cells {
        if let Some((lo, hi)) = window {
            if hour < lo || hour > hi {
                continue;
            }
        }
        merged.merge(cell.measure(sub.measure));
    }
    (rows, merged.eval(sub.agg))
}

/// Per-subscription running state.
#[derive(Debug, Clone)]
struct SubState {
    /// The subscription's slice of the cube: only cells its region
    /// admits, merged in absorb order — bit-identical to filtering a
    /// batch cube.
    cells: BTreeMap<GroupKey, CellPartial>,
    /// Overlay cells the region intersects (`None` = no region filter).
    geo_filter: Option<BTreeSet<u32>>,
    /// Scalar value at the last fold that touched this subscription.
    last_value: Option<f64>,
    /// Hysteresis state: currently at-or-above the rise band.
    above: bool,
}

impl SubState {
    fn admits(&self, key: &GroupKey) -> bool {
        match (&self.geo_filter, key.1) {
            (None, _) => true,
            (Some(cells), Some(geo)) => cells.contains(&geo),
            // A region subscription never matches observations no layer
            // geometry covers — their location is unknown.
            (Some(_), None) => false,
        }
    }

    fn reset(&mut self) {
        self.cells.clear();
        self.last_value = None;
        self.above = false;
    }
}

/// The incremental evaluator: a [`Registry`] plus per-subscription
/// running state, sinks and a bounded catch-up buffer.
///
/// Attach it to a pipeline either **push**-style — install
/// [`StandingEvaluator::hook`] via
/// [`StreamIngest::set_seal_hook`] — or **pull**-style with
/// [`StandingEvaluator::sync_pipeline`] after polls/ingests (the serve
/// layer and replication followers pull). Use one style per evaluator:
/// mixing them would fold the same seal twice.
pub struct StandingEvaluator {
    grid: Option<GridSpec>,
    registry: Registry,
    states: BTreeMap<SubId, SubState>,
    sinks: Vec<Box<dyn Sink>>,
    buffer: VecDeque<Notification>,
    buffer_cap: usize,
    next_seq: u64,
    stats: SubStats,
    tracer: Tracer,
    spans: Vec<Span>,
    /// `(partition, records)` signatures of the pipeline segments already
    /// folded, in order — the pull cursor. A mismatched prefix (store
    /// compaction merged segments, or a snapshot install replaced the
    /// pipeline) triggers a silent full rebuild.
    synced: Vec<(i64, u64)>,
}

impl StandingEvaluator {
    /// An evaluator with caps from the environment (`GISOLAP_SUB_MAX`,
    /// `GISOLAP_SUB_BUFFER`). `grid` is the overlay grid the pipeline's
    /// resolver uses; region subscriptions require it (the grid is what
    /// maps a region to the geo ids partials are keyed by).
    pub fn new(grid: Option<GridSpec>) -> StandingEvaluator {
        let buffer_cap = gisolap_obs::config::SUB_BUFFER.parse_u64().unwrap_or(1024);
        StandingEvaluator::with_caps(
            grid,
            Registry::from_env(),
            usize::try_from(buffer_cap).unwrap_or(usize::MAX),
        )
    }

    /// An evaluator with explicit caps.
    pub fn with_caps(
        grid: Option<GridSpec>,
        registry: Registry,
        buffer_cap: usize,
    ) -> StandingEvaluator {
        StandingEvaluator {
            grid,
            registry,
            states: BTreeMap::new(),
            sinks: Vec::new(),
            buffer: VecDeque::new(),
            buffer_cap: buffer_cap.max(1),
            next_seq: 0,
            stats: SubStats::default(),
            tracer: Tracer::default(),
            spans: Vec::new(),
            synced: Vec::new(),
        }
    }

    /// Switches `sub-fold` span collection on or off (off by default).
    pub fn set_traced(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// The `sub-fold` spans collected while tracing, in fold order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Validates and admits a subscription, resolving its region to the
    /// overlay cells it intersects. A region with a NaN bound or a
    /// minimum above its maximum is refused first, as shard reads refuse
    /// it ([`gisolap_shard::check_region`]). Registering after seals were already
    /// folded is allowed — the new subscription starts from the next
    /// seal (or catch up first with [`StandingEvaluator::sync_pipeline`]
    /// before registering).
    pub fn register(&mut self, sub: Subscription) -> Result<SubId> {
        if let Some(region) = &sub.region {
            gisolap_shard::check_region(region)?;
        }
        let geo_filter = match (&sub.region, &self.grid) {
            (Some(region), Some(grid)) => {
                Some(grid.cells_intersecting(region).into_iter().collect())
            }
            (Some(_), None) => {
                return Err(gisolap_store::StoreError::BadConfig(
                    "region subscriptions need an overlay grid (evaluator built without one)"
                        .to_string(),
                ))
            }
            (None, _) => None,
        };
        let id = self.registry.register(sub)?;
        self.states.insert(
            id,
            SubState {
                cells: BTreeMap::new(),
                geo_filter,
                last_value: None,
                above: false,
            },
        );
        self.stats.registered += 1;
        Ok(id)
    }

    /// Attaches a notification sink; every emitted notification reaches
    /// every sink, in attach order.
    pub fn add_sink(&mut self, sink: Box<dyn Sink>) {
        self.sinks.push(sink);
    }

    /// The registry (ids, subscriptions).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Point-in-time standing-query counters.
    pub fn stats(&self) -> SubStats {
        self.stats
    }

    /// A subscription's running cells — the bit-identity surface the
    /// equivalence proptest compares against a batch cube.
    pub fn cells(&self, id: SubId) -> Option<&BTreeMap<GroupKey, CellPartial>> {
        self.states.get(&id).map(|s| &s.cells)
    }

    /// The scalar window value at the subscription's last fold.
    pub fn value(&self, id: SubId) -> Option<f64> {
        self.states.get(&id).and_then(|s| s.last_value)
    }

    /// Publishes counters plus one `gisolap_sub_value{sub="<id>"}` gauge
    /// per subscription with a current value.
    pub fn fill_metrics(&self, registry: &mut MetricsRegistry) {
        registry.fill(&self.stats, &[]);
        for (id, state) in &self.states {
            if let Some(v) = state.last_value {
                registry.set_gauge(
                    "gisolap_sub_value",
                    "Current scalar window value per standing subscription.",
                    &[("sub", &id.to_string())],
                    v,
                );
            }
        }
    }

    /// Folds one sealed partial slice into every subscription's running
    /// state and emits notifications for the subscriptions it touched.
    /// Returns how many notifications were emitted.
    ///
    /// `partials` must be the exact slice the cube absorbed for
    /// `partition` ([`SealEvent::partials`] or
    /// [`Segment::partials`](gisolap_stream::Segment::partials)), and
    /// seals must arrive in ascending partition order — that is what
    /// makes the running state bit-identical to a batch cube.
    pub fn fold(&mut self, partition: i64, partials: &[(GroupKey, CellPartial)]) -> u64 {
        self.fold_inner(partition, partials, true)
    }

    fn fold_inner(
        &mut self,
        partition: i64,
        partials: &[(GroupKey, CellPartial)],
        emit: bool,
    ) -> u64 {
        let traced = self.tracer.enabled();
        let t0 = Instant::now();
        let mut cells_folded = 0u64;
        let mut emitted = 0u64;
        for (&id, state) in &mut self.states {
            let mut touched = 0u64;
            for (key, cell) in partials {
                if !state.admits(key) {
                    continue;
                }
                // The cube's own merge step (Vacant → default + merge),
                // applied in the cube's own order: bit-identical state.
                state.cells.entry(*key).or_default().merge(cell);
                touched += 1;
            }
            if touched == 0 {
                continue;
            }
            cells_folded += touched;
            let sub = self.registry.get(id).expect("state implies registration");
            let (rows, value) = window_value(sub, &state.cells);
            let mut crossing = None;
            if let (Some(th), Some(v)) = (sub.threshold, value) {
                if !state.above && v >= th.rise {
                    state.above = true;
                    crossing = Some(Crossing::Up);
                } else if state.above && v <= th.fall {
                    state.above = false;
                    crossing = Some(Crossing::Down);
                }
            }
            let prev = state.last_value;
            state.last_value = value;
            if !emit {
                continue;
            }
            if crossing.is_some() {
                self.stats.threshold_fires += 1;
            }
            let n = Notification {
                sub: id,
                seq: self.next_seq,
                partition,
                rows,
                value,
                prev,
                crossing,
            };
            self.next_seq += 1;
            for sink in &mut self.sinks {
                sink.notify(&n);
            }
            if self.buffer.len() == self.buffer_cap {
                self.buffer.pop_front();
            }
            self.buffer.push_back(n);
            emitted += 1;
            self.stats.notifications += 1;
        }
        self.stats.seals_folded += 1;
        if traced {
            self.spans.push(Span {
                name: "sub-fold",
                duration_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                counters: vec![
                    ("subs_evaluated", self.states.len() as u64),
                    ("cells_folded", cells_folded),
                    ("sub_notifications", emitted),
                ],
                children: Vec::new(),
            });
        }
        emitted
    }

    /// Wraps a shared evaluator as a pipeline seal hook
    /// ([`StreamIngest::set_seal_hook`]): every live seal folds
    /// immediately, at the absorb point.
    pub fn hook(evaluator: Arc<Mutex<StandingEvaluator>>) -> SealHook {
        Box::new(move |e: &SealEvent<'_>| {
            evaluator
                .lock()
                .expect("standing evaluator poisoned")
                .fold(e.partition, e.partials);
        })
    }

    /// Pull-style catch-up: folds every pipeline segment not yet folded,
    /// in order, and returns how many were. If the pipeline's history no
    /// longer extends what was folded — store compaction merged sealed
    /// segments, or a replication snapshot install replaced the pipeline
    /// wholesale — the running state is rebuilt from scratch *silently*
    /// (states stay bit-correct; notifications for already-folded seals
    /// are not re-emitted, and seals first seen during a rebuild are
    /// state-only). The catch-up buffer is a bounded ring anyway:
    /// subscribers needing every notification attach a [`Sink`] to a
    /// hook-driven evaluator instead.
    pub fn sync_pipeline(&mut self, pipeline: &StreamIngest) -> u64 {
        let segs = pipeline.segments();
        let sig = |s: &gisolap_stream::Segment| (s.meta().partition, s.meta().records as u64);
        let extends = self.synced.len() <= segs.len()
            && self
                .synced
                .iter()
                .zip(segs.iter())
                .all(|(have, s)| *have == sig(s));
        let mut folded = 0u64;
        if !extends {
            for state in self.states.values_mut() {
                state.reset();
            }
            self.synced.clear();
            for s in segs {
                self.fold_inner(s.meta().partition, s.partials(), false);
                self.synced.push(sig(s));
                folded += 1;
            }
            return folded;
        }
        for s in &segs[self.synced.len()..] {
            self.fold_inner(s.meta().partition, s.partials(), true);
            self.synced.push(sig(s));
            folded += 1;
        }
        folded
    }

    /// Buffered notifications with `seq >= since`, plus the next cursor
    /// to poll from. Older entries may have been dropped by the ring
    /// (`GISOLAP_SUB_BUFFER`).
    pub fn notifications_since(&self, since: u64) -> (Vec<Notification>, u64) {
        let items: Vec<Notification> = self
            .buffer
            .iter()
            .filter(|n| n.seq >= since)
            .cloned()
            .collect();
        (items, self.next_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::ChannelSink;
    use gisolap_geom::BBox;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::TimeLevel;
    use gisolap_stream::{Measure, StreamConfig};
    use gisolap_traj::{ObjectId, Record};

    fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y,
        }
    }

    fn pipeline() -> StreamIngest {
        StreamIngest::new(StreamConfig {
            lateness_seconds: 0,
            segment_seconds: 3600,
        })
        .unwrap()
    }

    #[test]
    fn fold_matches_batch_cube_and_counts_notifications() {
        let mut ingest = pipeline();
        let mut eval = StandingEvaluator::with_caps(None, Registry::new(8), 16);
        let id = eval
            .register(Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .unwrap();

        ingest.ingest(&[rec(1, 100, 1.0, 0.0), rec(2, 200, 2.0, 0.0)]);
        ingest.ingest(&[rec(1, 3700, 4.0, 0.0)]); // seals hour 0
        ingest.finish(); // seals hour 1
        assert_eq!(eval.sync_pipeline(&ingest), 2);
        assert_eq!(eval.stats().seals_folded, 2);
        assert_eq!(eval.stats().notifications, 2);

        // Running state equals the pipeline's own cube, bit for bit.
        let want: BTreeMap<GroupKey, CellPartial> =
            ingest.cube().cells().map(|(k, c)| (*k, *c)).collect();
        assert_eq!(eval.cells(id).unwrap(), &want);
        assert_eq!(eval.value(id), Some(7.0));

        // Idempotent: nothing new to fold.
        assert_eq!(eval.sync_pipeline(&ingest), 0);
    }

    #[test]
    fn windows_regions_and_thresholds() {
        let area = BBox::new(0.0, 0.0, 8.0, 8.0);
        let grid = GridSpec::new(area, 2, 2).unwrap();
        let mut ingest = pipeline().with_resolver(grid.resolver());
        let mut eval = StandingEvaluator::with_caps(Some(grid), Registry::new(8), 16);

        // COUNT in the bottom-left quadrant over the trailing hour,
        // alert when it reaches 2, clear when it falls to 0.
        let id = eval
            .register(
                Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count)
                    .in_region(BBox::new(0.0, 0.0, 3.9, 3.9))
                    .over_hours(1)
                    .with_threshold(2.0, 0.0),
            )
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        eval.add_sink(Box::new(ChannelSink::new(tx)));

        // Hour 0: two objects inside the region, one outside.
        ingest.ingest(&[
            rec(1, 100, 1.0, 1.0),
            rec(2, 200, 2.0, 2.0),
            rec(3, 300, 6.0, 6.0),
        ]);
        // Hour 1: region quiet; the outside object keeps moving.
        ingest.ingest(&[rec(3, 3700, 7.0, 7.0)]);
        ingest.finish();
        eval.sync_pipeline(&ingest);

        // Hour 0 fold: count 2 in-window -> Up. Hour 1 fold: the region
        // saw nothing, so the subscription is not re-notified (its state
        // did not change) and stays Up.
        let first = rx.try_recv().unwrap();
        assert_eq!(first.sub, id);
        assert_eq!(first.value, Some(2.0));
        assert_eq!(first.crossing, Some(Crossing::Up));
        assert!(rx.try_recv().is_err());
        assert_eq!(eval.stats().threshold_fires, 1);

        // Only region cells entered the state.
        assert!(eval
            .cells(id)
            .unwrap()
            .keys()
            .all(|(_, geo)| *geo == Some(0)));

        // A NaN-bounded or inverted region is refused, not admitted to
        // never fire.
        let valid = BBox::new(0.0, 0.0, 3.9, 3.9);
        for region in [
            BBox {
                min_x: f64::NAN,
                ..valid
            },
            BBox {
                min_y: 5.0,
                ..valid
            },
        ] {
            let sub =
                Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count).in_region(region);
            let err = eval.register(sub).unwrap_err();
            assert!(
                matches!(err, gisolap_store::StoreError::BadConfig(_)),
                "{err}"
            );
        }
        assert_eq!(eval.stats().registered, 1);
    }

    #[test]
    fn rebuild_after_history_rewrite_stays_bit_correct() {
        let mut ingest = pipeline();
        let mut eval = StandingEvaluator::with_caps(None, Registry::new(8), 16);
        let id = eval
            .register(Subscription::new(TimeLevel::Hour, Measure::Y, AggFn::Max))
            .unwrap();

        ingest.ingest(&[rec(1, 100, 0.0, 5.0)]);
        ingest.ingest(&[rec(1, 3700, 0.0, 9.0)]);
        eval.sync_pipeline(&ingest);
        let before = eval.stats().notifications;

        // Simulate a history rewrite: a replacement pipeline whose first
        // sealed segment differs (an extra hour-0 record), as a snapshot
        // install or compaction would present. The prefix signature no
        // longer matches, so the evaluator must rebuild, not append.
        let mut replaced = pipeline();
        replaced.ingest(&[rec(1, 100, 0.0, 5.0), rec(2, 200, 0.0, 1.0)]);
        replaced.ingest(&[rec(1, 3700, 0.0, 9.0)]);
        replaced.ingest(&[rec(1, 7300, 0.0, 2.0)]);
        replaced.finish();
        eval.sync_pipeline(&replaced);

        let want: BTreeMap<GroupKey, CellPartial> =
            replaced.cube().cells().map(|(k, c)| (*k, *c)).collect();
        assert_eq!(eval.cells(id).unwrap(), &want);
        assert_eq!(eval.value(id), Some(9.0));
        // The rebuild was silent: no notification replay.
        assert_eq!(eval.stats().notifications, before);
    }

    #[test]
    fn catch_up_buffer_is_a_ring() {
        let mut eval = StandingEvaluator::with_caps(None, Registry::new(8), 2);
        eval.register(Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count))
            .unwrap();
        let mut cell = CellPartial::default();
        cell.push(&rec(1, 10, 1.0, 1.0));
        for p in 0i64..4 {
            let shifted: [(GroupKey, CellPartial); 1] = [((p, None), cell)];
            eval.fold(p, &shifted);
        }
        let (items, next) = eval.notifications_since(0);
        assert_eq!(next, 4);
        assert_eq!(items.len(), 2); // ring of 2: seqs 2 and 3 survive
        assert_eq!(items[0].seq, 2);
        let (items, _) = eval.notifications_since(3);
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn hook_folds_at_the_seal_point() {
        let eval = Arc::new(Mutex::new(StandingEvaluator::with_caps(
            None,
            Registry::new(8),
            16,
        )));
        let id = eval
            .lock()
            .unwrap()
            .register(Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .unwrap();
        let mut ingest = pipeline();
        ingest.set_seal_hook(Some(StandingEvaluator::hook(eval.clone())));
        ingest.ingest(&[rec(1, 100, 3.0, 0.0)]);
        ingest.ingest(&[rec(1, 3700, 4.0, 0.0)]); // seals hour 0
        assert_eq!(eval.lock().unwrap().value(id), Some(3.0));
        ingest.finish();
        assert_eq!(eval.lock().unwrap().value(id), Some(7.0));
        assert_eq!(eval.lock().unwrap().stats().seals_folded, 2);
    }
}
