//! The standing-query evaluator.
//!
//! A [`StandingEvaluator`] keeps no cells: the pipeline's [`DeltaCube`]
//! is its only state. Each subscription holds its region's geo filter,
//! its last value and its threshold band. [`StandingEvaluator::sync_pipeline`]
//! walks the sealed segments past the evaluator's cursor (the newest
//! sealed hour already notified). For every subscription a segment
//! touches, it evaluates the window over the cube's own sorted run,
//! bounded above by that segment's newest hour. Partitions are
//! hour-aligned and late records are dead-lettered, so the cube up to a
//! sealed hour never changes again (compaction rewrites it bitwise): the
//! value is **bit-identical** to the batch query at that seal, the
//! invariant `tests/tests/sub_equivalence.rs` checks at every
//! notification.
//!
//! [`DeltaCube`]: gisolap_stream::DeltaCube

use crate::registry::{Registry, SubId, Subscription};
use gisolap_obs::{counters, MetricsRegistry, Span, Tracer};
use gisolap_olap::agg::Partial;
use gisolap_shard::GridSpec;
use gisolap_store::Result;
use gisolap_stream::{
    fold_rollup, CellPartial, GroupKey, RollupQuery, RollupRow, Segment, StreamIngest,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

counters! {
    /// Point-in-time copy of the standing-query counters.
    pub struct SubStats["gisolap_sub_", "Standing-query counter."] {
        /// Subscriptions admitted by [`StandingEvaluator::register`].
        registered,
        /// Notifications emitted into the catch-up buffer.
        notifications,
        /// Sealed segments evaluated against the subscriptions.
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

/// One push to a subscription: emitted after a seal added a cell the
/// subscription's region admits.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The subscription notified.
    pub sub: SubId,
    /// Evaluator-wide ascending sequence number (the catch-up cursor).
    pub seq: u64,
    /// The sealed partition that triggered the evaluation.
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

/// Evaluates `sub` over `cells` the way the batch engine would: the
/// trailing window is anchored at the newest hour in `cells`, the rows
/// come from the cube's own rollup fold, and the scalar value merges the
/// in-window measure partials in ascending key order.
///
/// `cells` is any ascending run of borrowed cells the subscription's
/// region admits. The evaluator passes a slice of the pipeline's cube;
/// the from-scratch references (`tests/tests/sub_equivalence.rs`, the
/// `sub_latency` bench) pass a `&BTreeMap`. Both finalize here.
pub fn window_value<'a, I>(sub: &Subscription, cells: I) -> (Vec<RollupRow>, Option<f64>)
where
    I: IntoIterator<Item = (&'a GroupKey, &'a CellPartial)>,
    I::IntoIter: Clone,
{
    let cells = cells.into_iter();
    let Some((&(frontier, _), _)) = cells.clone().last() else {
        return (Vec::new(), None);
    };
    let lo = sub
        .window_hours
        .map_or(i64::MIN, |w| frontier - (i64::from(w) - 1));
    let window = cells.filter(move |(key, _)| key.0 >= lo);
    let q = RollupQuery::new(sub.level, sub.measure, sub.agg);
    let rows = fold_rollup(
        &q,
        window.clone().map(|(k, c)| (*k, *c.measure(sub.measure))),
    )
    .expect("subscription level validated at registration");
    let mut merged = Partial::new();
    for (_, cell) in window {
        merged.merge(cell.measure(sub.measure));
    }
    (rows, merged.eval(sub.agg))
}

/// Whether a subscription with `geo_filter` admits the cell at `key`.
fn admits(geo_filter: &Option<BTreeSet<u32>>, key: &GroupKey) -> bool {
    match (geo_filter, key.1) {
        (None, _) => true,
        (Some(cells), Some(geo)) => cells.contains(&geo),
        // A region subscription never matches observations no layer
        // geometry covers — their location is unknown.
        (Some(_), None) => false,
    }
}

/// Per-subscription state; the cells are the pipeline cube's.
#[derive(Debug, Clone)]
struct SubState {
    /// Overlay cells the region intersects (`None` = no region filter).
    geo_filter: Option<BTreeSet<u32>>,
    /// Scalar value at the last seal that touched this subscription.
    last_value: Option<f64>,
    /// Hysteresis state: currently at-or-above the rise band.
    above: bool,
}

/// The standing-query evaluator: a [`Registry`] plus per-subscription
/// filter and threshold state and a bounded catch-up buffer. It
/// reads a pipeline through [`StandingEvaluator::sync_pipeline`], called
/// after ingests (the serve layer does) or replication polls.
pub struct StandingEvaluator {
    grid: Option<GridSpec>,
    registry: Registry,
    states: BTreeMap<SubId, SubState>,
    buffer: VecDeque<Notification>,
    buffer_cap: usize,
    next_seq: u64,
    stats: SubStats,
    tracer: Tracer,
    spans: Vec<Span>,
    /// The newest sealed hour already notified (`i64::MIN` before the
    /// first seal): a seal is notified once, when this cursor first
    /// passes it.
    notified_through: i64,
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
            buffer: VecDeque::new(),
            buffer_cap: buffer_cap.max(1),
            next_seq: 0,
            stats: SubStats::default(),
            tracer: Tracer::default(),
            spans: Vec::new(),
            notified_through: i64::MIN,
        }
    }

    /// Switches `sub-fold` span collection on or off (off by default).
    pub fn set_traced(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// The `sub-fold` spans collected while tracing, one per evaluated
    /// seal.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Validates and admits a subscription, resolving its region to the
    /// overlay cells it intersects. A region with a NaN bound or a
    /// minimum above its maximum is refused first, as shard reads refuse
    /// it ([`gisolap_shard::check_region`]).
    ///
    /// Registering after seals is allowed. The subscription's first
    /// notification comes at the first seal past the evaluator's cursor
    /// (so sync first to skip the seals already made), and it reports
    /// the batch query's answer: its window, or all history.
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
                geo_filter,
                last_value: None,
                above: false,
            },
        );
        self.stats.registered += 1;
        Ok(id)
    }

    /// The registry (ids, subscriptions).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Point-in-time standing-query counters.
    pub fn stats(&self) -> SubStats {
        self.stats
    }

    /// The scalar window value at the last seal that touched the
    /// subscription.
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

    /// Evaluates every sealed segment of `pipeline` that reaches past
    /// the cursor, in order, and returns how many it evaluated. Each
    /// subscription the segment touches (the segment holds a cell past
    /// the cursor that its region admits) gets one notification, its
    /// window read off the pipeline's cube up to that segment's newest
    /// hour.
    ///
    /// History rewritten under the evaluator (store compaction merged
    /// segments, or a replication snapshot install replaced the
    /// pipeline) is never re-notified: a seal is notified once, when the
    /// cursor first passes it, and later values read the rewritten cube.
    pub fn sync_pipeline(&mut self, pipeline: &StreamIngest) -> u64 {
        let segs = pipeline.segments();
        let newest = |s: &Segment| s.partials().last().map(|(k, _)| k.0);
        let cursor = self.notified_through;
        // Scanned from the end: the store round-trips empty segments,
        // which hold no hour to order by.
        let first = segs
            .iter()
            .rposition(|s| newest(s).is_some_and(|h| h <= cursor))
            .map_or(0, |i| i + 1);
        let mut evaluated = 0;
        for seg in &segs[first..] {
            if let Some(through) = newest(seg) {
                self.evaluate_seal(seg, through, pipeline.cube().as_slice());
                self.notified_through = through;
                evaluated += 1;
            }
        }
        evaluated
    }

    /// Notifies every subscription `seg` touches past the cursor. `cube`
    /// is the pipeline's run holding the segment's cells, `through` the
    /// segment's newest hour.
    fn evaluate_seal(&mut self, seg: &Segment, through: i64, cube: &[(GroupKey, CellPartial)]) {
        let traced = self.tracer.enabled();
        let t0 = Instant::now();
        let cursor = self.notified_through;
        let hi = cube.partition_point(|(k, _)| k.0 <= through);
        let (mut cells_read, mut emitted) = (0u64, 0u64);
        for (&id, state) in &mut self.states {
            // The newest hour past the cursor the seal adds to the region.
            let filter = &state.geo_filter;
            let mut past_cursor = seg
                .partials()
                .iter()
                .rev()
                .take_while(|(k, _)| k.0 > cursor);
            let Some(&((frontier, _), _)) = past_cursor.find(|(k, _)| admits(filter, k)) else {
                continue;
            };
            let sub = self.registry.get(id).expect("state implies registration");
            let lo = sub.window_hours.map_or(0, |w| {
                let start = frontier - (i64::from(w) - 1);
                cube[..hi].partition_point(|(k, _)| k.0 < start)
            });
            cells_read += (hi - lo) as u64;
            let window = cube[lo..hi].iter().map(|(k, c)| (k, c));
            let (rows, value) = window_value(sub, window.filter(|(k, _)| admits(filter, k)));
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
            if crossing.is_some() {
                self.stats.threshold_fires += 1;
            }
            let n = Notification {
                sub: id,
                seq: self.next_seq,
                partition: seg.partition(),
                rows,
                value,
                prev: std::mem::replace(&mut state.last_value, value),
                crossing,
            };
            self.next_seq += 1;
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
                    ("cells_folded", cells_read),
                    ("sub_notifications", emitted),
                ],
                children: Vec::new(),
            });
        }
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
    use gisolap_geom::BBox;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
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
        let sub = Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
        let id = eval.register(sub.clone()).unwrap();

        ingest.ingest(&[rec(1, 100, 1.0, 0.0), rec(2, 200, 2.0, 0.0)]);
        ingest.ingest(&[rec(1, 3700, 4.0, 0.0)]); // seals hour 0
        ingest.finish(); // seals hour 1
        assert_eq!(eval.sync_pipeline(&ingest), 2);
        assert_eq!(eval.stats().seals_folded, 2);
        assert_eq!(eval.stats().notifications, 2);

        // The value is the batch answer over the pipeline's own cube.
        let cube: BTreeMap<GroupKey, CellPartial> =
            ingest.cube().cells().map(|(k, c)| (*k, *c)).collect();
        let (rows, value) = window_value(&sub, &cube);
        assert_eq!(eval.value(id), Some(7.0));
        assert_eq!(value, Some(7.0));
        let (items, _) = eval.notifications_since(1);
        assert_eq!(items[0].rows, rows);
        assert_eq!(items[0].prev, Some(3.0));

        // Idempotent: nothing new to evaluate.
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

        // Hour 0 seal: count 2 in-window -> Up. Hour 1 seal: the region
        // saw nothing, so the subscription is not re-notified and stays
        // Up.
        let (items, _) = eval.notifications_since(0);
        assert_eq!(items.len(), 1);
        let first = &items[0];
        assert_eq!(first.sub, id);
        assert_eq!(first.value, Some(2.0));
        assert_eq!(first.crossing, Some(Crossing::Up));
        assert_eq!(eval.stats().threshold_fires, 1);

        // Only region cells reached the window rows.
        assert!(!first.rows.is_empty());
        assert!(first.rows.iter().all(|row| row.geo == Some(0)));

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
            .register(Subscription::new(TimeLevel::Hour, Measure::Y, AggFn::Sum))
            .unwrap();

        ingest.ingest(&[rec(1, 100, 0.0, 5.0)]);
        ingest.ingest(&[rec(1, 3700, 0.0, 9.0)]);
        eval.sync_pipeline(&ingest); // hour 0 notified
        let before = eval.stats().notifications;
        assert_eq!(eval.value(id), Some(5.0));

        // A history rewrite: a replacement pipeline whose first sealed
        // segment differs (an extra hour-0 record), as a snapshot install
        // would present. Hour 0 was notified already and is not again;
        // hours 1 and 2 are, and read the rewritten cube.
        let mut replaced = pipeline();
        replaced.ingest(&[rec(1, 100, 0.0, 5.0), rec(2, 200, 0.0, 1.0)]);
        replaced.ingest(&[rec(1, 3700, 0.0, 9.0)]);
        replaced.ingest(&[rec(1, 7300, 0.0, 2.0)]);
        replaced.finish();
        assert_eq!(eval.sync_pipeline(&replaced), 2);
        assert_eq!(eval.stats().notifications, before + 2);
        assert_eq!(eval.value(id), Some(17.0));
    }

    #[test]
    fn an_empty_segment_hides_no_later_seal() {
        let mut live = pipeline();
        live.ingest(&[rec(1, 100, 1.0, 0.0)]);
        live.ingest(&[rec(1, 7300, 2.0, 0.0)]); // seals hour 0
        live.finish(); // seals hour 2
        let part = |s: &Segment| {
            let (records, partials) = (s.records().to_vec(), s.partials().to_vec());
            Segment::from_parts(s.meta().partition, records, partials).unwrap()
        };
        let segs = live.segments();
        let empty = Segment::from_parts(1, Vec::new(), Vec::new()).unwrap();
        let mut tail = live.tail_state();
        tail.segments_sealed = 3;
        let restored = StreamIngest::restore(
            *live.config(),
            None,
            vec![part(&segs[0]), empty, part(&segs[1])],
            tail,
        )
        .unwrap();

        let mut eval = StandingEvaluator::with_caps(None, Registry::new(8), 16);
        let id = eval
            .register(Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .unwrap();
        assert_eq!(eval.sync_pipeline(&restored), 2);
        let (items, _) = eval.notifications_since(0);
        let partitions: Vec<i64> = items.iter().map(|n| n.partition).collect();
        assert_eq!(partitions, [0, 2]);
        assert_eq!(eval.value(id), Some(3.0));
    }

    #[test]
    fn catch_up_buffer_is_a_ring() {
        let mut eval = StandingEvaluator::with_caps(None, Registry::new(8), 2);
        eval.register(Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count))
            .unwrap();
        let mut ingest = pipeline();
        for h in 0..4 {
            ingest.ingest(&[rec(1, h * 3600 + 10, 1.0, 1.0)]);
        }
        ingest.finish();
        assert_eq!(eval.sync_pipeline(&ingest), 4);
        let (items, next) = eval.notifications_since(0);
        assert_eq!(next, 4);
        assert_eq!(items.len(), 2); // ring of 2: seqs 2 and 3 survive
        assert_eq!(items[0].seq, 2);
        let (items, _) = eval.notifications_since(3);
        assert_eq!(items.len(), 1);
    }
}
