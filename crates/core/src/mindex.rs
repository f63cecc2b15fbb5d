//! The MOFT-side index bundle: interval tree over per-object time
//! extents, BVH over per-object bounding boxes, and a zone map over the
//! canonical record run.
//!
//! A [`MoftIndex`] is built once per engine (the `IndexedEngine` and
//! `OverlayEngine` constructors always build it, with
//! [`gisolap_index::DEFAULT_ZONE_ROWS`] rows per zone, in parallel with
//! their other precomputation) and consulted by the default
//! [`crate::engine::QueryEngine`] methods to prune work *before*
//! touching records:
//!
//! * time-bounded queries probe the interval tree and scan only the
//!   candidate objects' record slices;
//! * sample-based spatial matching skips zone-map blocks (or single
//!   records) whose bounding box cannot reach a qualifying geometry;
//! * passes-through queries probe the BVH to drop objects whose whole
//!   track stays outside the qualifying area.
//!
//! # Determinism contract (`docs/indexing.md`)
//!
//! Every prune is **conservative** and every surviving candidate is
//! re-checked with the exact predicate, so index-assisted evaluation is
//! **bit-identical** to the pure scan it replaces — the same tuples in
//! the same order. Candidates come back in ascending object-id order
//! (the interval tree and BVH return hits in insertion order, and
//! extents are inserted ascending by oid), which matches the canonical
//! `(oid, t)` record order the scan path walks. The scan path is
//! `NaiveEngine`, which builds no index; the equivalence proptests
//! compare it with both index-consulting engines case by case.

use gisolap_geom::BBox;
use gisolap_index::{Bvh, IntervalTree, ZoneMap};
use gisolap_olap::time::TimeId;
use gisolap_traj::moft::{Moft, ObjectId};

use crate::region::TimePredicate;

/// One object's summary in the canonical record run: its record range,
/// time extent and spatial bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectExtent {
    /// The object.
    pub oid: ObjectId,
    /// First record of the object in `Moft::records()`.
    pub start: usize,
    /// One past the object's last record in `Moft::records()`.
    pub end: usize,
    /// Earliest observation of the object.
    pub t_min: TimeId,
    /// Latest observation of the object.
    pub t_max: TimeId,
    /// Bounding box of the object's observed positions. Every
    /// interpolated leg lies inside it too: a leg connects two samples
    /// and boxes are convex.
    pub bbox: BBox,
}

/// Index bundle over one MOFT (see the module docs for the contract).
///
/// # Example
///
/// ```
/// use gisolap_core::mindex::MoftIndex;
/// use gisolap_olap::time::TimeId;
/// use gisolap_traj::Moft;
///
/// let moft = Moft::from_tuples([
///     (1, 10, 0.0, 0.0),
///     (1, 20, 1.0, 1.0),
///     (2, 500, 9.0, 9.0),
/// ]);
/// let index = MoftIndex::build(&moft, 256);
/// assert_eq!(index.extents().len(), 2);
///
/// // Only object 1 can have a record in [0, 100]; hits come back in
/// // ascending oid order.
/// let hits = index.objects_overlapping(TimeId(0), TimeId(100));
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].oid.0, 1);
/// assert_eq!((hits[0].start, hits[0].end), (0, 2));
/// ```
#[derive(Debug)]
pub struct MoftIndex {
    extents: Vec<ObjectExtent>,
    /// Interval tree over `(t_min, t_max)` per extent; payload = index
    /// into `extents`. `None` for an empty MOFT.
    intervals: Option<IntervalTree<usize>>,
    /// BVH over per-object bboxes; payload = index into `extents`.
    bvh: Bvh<usize>,
    /// Zone map over the canonical record run.
    zones: ZoneMap,
}

impl MoftIndex {
    /// Builds the bundle over `moft`'s canonical records with
    /// `rows_per_zone` rows per zone-map block.
    pub fn build(moft: &Moft, rows_per_zone: u32) -> MoftIndex {
        let records = moft.records();
        let mut extents: Vec<ObjectExtent> = Vec::new();
        let mut start = 0usize;
        for i in 1..=records.len() {
            if i == records.len() || records[i].oid != records[start].oid {
                let run = &records[start..i];
                extents.push(ObjectExtent {
                    oid: run[0].oid,
                    start,
                    end: i,
                    // Runs are t-ascending within an object.
                    t_min: run[0].t,
                    t_max: run[run.len() - 1].t,
                    bbox: BBox::from_points(run.iter().map(|r| r.pos())),
                });
                start = i;
            }
        }
        let intervals = IntervalTree::build(
            extents
                .iter()
                .enumerate()
                .map(|(i, e)| (e.t_min.0, e.t_max.0, i))
                .collect(),
        );
        let bvh = Bvh::build(
            extents
                .iter()
                .enumerate()
                .map(|(i, e)| (e.bbox, i))
                .collect(),
        );
        let zones = ZoneMap::build(
            records.iter().map(|r| (r.oid.0, r.t.0, r.x, r.y)),
            rows_per_zone,
        );
        MoftIndex {
            extents,
            intervals,
            bvh,
            zones,
        }
    }

    /// Per-object extents, ascending by oid, covering every record
    /// exactly once.
    pub fn extents(&self) -> &[ObjectExtent] {
        &self.extents
    }

    /// Extents whose time span intersects the inclusive window
    /// `[lo, hi]`, in ascending oid order.
    ///
    /// ```
    /// use gisolap_core::mindex::MoftIndex;
    /// use gisolap_olap::time::TimeId;
    /// use gisolap_traj::Moft;
    ///
    /// let moft = Moft::from_tuples([(7, 100, 0.0, 0.0), (9, 300, 1.0, 1.0)]);
    /// let index = MoftIndex::build(&moft, 256);
    /// let oids: Vec<u64> = index
    ///     .objects_overlapping(TimeId(0), TimeId(1000))
    ///     .iter()
    ///     .map(|e| e.oid.0)
    ///     .collect();
    /// assert_eq!(oids, vec![7, 9]);
    /// assert!(index.objects_overlapping(TimeId(400), TimeId(500)).is_empty());
    /// ```
    pub fn objects_overlapping(&self, lo: TimeId, hi: TimeId) -> Vec<&ObjectExtent> {
        match &self.intervals {
            None => Vec::new(),
            Some(tree) => tree
                .overlapping(lo.0, hi.0)
                .into_iter()
                .map(|&i| &self.extents[i])
                .collect(),
        }
    }

    /// Extents whose track bbox intersects `query`, in ascending oid
    /// order.
    ///
    /// ```
    /// use gisolap_core::mindex::MoftIndex;
    /// use gisolap_geom::BBox;
    /// use gisolap_traj::Moft;
    ///
    /// let moft = Moft::from_tuples([(1, 0, 0.0, 0.0), (2, 0, 100.0, 100.0)]);
    /// let index = MoftIndex::build(&moft, 256);
    /// let near_origin = BBox::new(-1.0, -1.0, 1.0, 1.0);
    /// let hits = index.objects_intersecting(&near_origin);
    /// assert_eq!(hits.len(), 1);
    /// assert_eq!(hits[0].oid.0, 1);
    /// ```
    pub fn objects_intersecting(&self, query: &BBox) -> Vec<&ObjectExtent> {
        self.bvh
            .search(query)
            .into_iter()
            .map(|&i| &self.extents[i])
            .collect()
    }

    /// The zone map over the canonical record run.
    pub fn zone_map(&self) -> &ZoneMap {
        &self.zones
    }
}

/// The tightest inclusive absolute-time window implied by `preds`:
/// the intersection of every `Between` and `AtInstant` bound. `None`
/// when no predicate bounds absolute time (hour-of-day style predicates
/// repeat daily and bound nothing). The window may be empty
/// (`lo > hi`) when bounds contradict — every record then fails the
/// exact predicates too.
pub(crate) fn conservative_window(preds: &[TimePredicate]) -> Option<(TimeId, TimeId)> {
    let mut window: Option<(TimeId, TimeId)> = None;
    for p in preds {
        let (a, b) = match p {
            TimePredicate::Between(a, b) => (*a, *b),
            TimePredicate::AtInstant(t) => (*t, *t),
            _ => continue,
        };
        window = Some(match window {
            None => (a, b),
            Some((lo, hi)) => (lo.max(a), hi.min(b)),
        });
    }
    window
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_traj::Record;

    fn moft() -> Moft {
        Moft::from_tuples([
            (1, 10, 0.0, 0.0),
            (1, 30, 2.0, 2.0),
            (2, 100, 50.0, 50.0),
            (3, 20, -5.0, 1.0),
            (3, 25, -4.0, 1.5),
        ])
    }

    #[test]
    fn extents_cover_records_in_oid_order() {
        let m = moft();
        let idx = MoftIndex::build(&m, 2);
        let oids: Vec<u64> = idx.extents().iter().map(|e| e.oid.0).collect();
        assert_eq!(oids, vec![1, 2, 3]);
        let mut next = 0usize;
        for e in idx.extents() {
            assert_eq!(e.start, next);
            next = e.end;
        }
        assert_eq!(next, m.records().len());
        let e3 = &idx.extents()[2];
        assert_eq!((e3.t_min, e3.t_max), (TimeId(20), TimeId(25)));
        assert_eq!(e3.bbox, BBox::new(-5.0, 1.0, -4.0, 1.5));
    }

    #[test]
    fn interval_hits_are_conservative_and_ascending() {
        let m = moft();
        let idx = MoftIndex::build(&m, 256);
        // Window [20, 40] overlaps objects 1 and 3 but not 2.
        let hits: Vec<u64> = idx
            .objects_overlapping(TimeId(20), TimeId(40))
            .iter()
            .map(|e| e.oid.0)
            .collect();
        assert_eq!(hits, vec![1, 3]);
        // Conservative: every record in the window lives in some hit.
        for (i, r) in m.records().iter().enumerate() {
            if r.t.0 >= 20 && r.t.0 <= 40 {
                assert!(idx
                    .objects_overlapping(TimeId(20), TimeId(40))
                    .iter()
                    .any(|e| e.start <= i && i < e.end));
            }
        }
        assert!(idx
            .objects_overlapping(TimeId(2000), TimeId(3000))
            .is_empty());
    }

    #[test]
    fn bvh_hits_track_bboxes() {
        let idx = MoftIndex::build(&moft(), 256);
        let hits: Vec<u64> = idx
            .objects_intersecting(&BBox::new(-10.0, 0.0, 3.0, 3.0))
            .iter()
            .map(|e| e.oid.0)
            .collect();
        assert_eq!(hits, vec![1, 3]);
    }

    #[test]
    fn zone_map_summarizes_every_record() {
        let m = moft();
        let idx = MoftIndex::build(&m, 2);
        assert_eq!(idx.zone_map().rows(), m.records().len() as u64);
        assert_eq!(idx.zone_map().zones().len(), 3); // 2 + 2 + 1
    }

    #[test]
    fn empty_moft_builds_an_empty_index() {
        let idx = MoftIndex::build(&Moft::new(), 256);
        assert!(idx.extents().is_empty());
        assert!(idx
            .objects_overlapping(TimeId(i64::MIN), TimeId(i64::MAX))
            .is_empty());
        assert!(idx
            .objects_intersecting(&BBox::new(-1e9, -1e9, 1e9, 1e9))
            .is_empty());
        assert_eq!(idx.zone_map().rows(), 0);
    }

    #[test]
    fn conservative_window_intersects_bounds() {
        assert_eq!(conservative_window(&[]), None);
        assert_eq!(
            conservative_window(&[TimePredicate::TimeOfDayIs(
                gisolap_olap::time::TimeOfDay::Morning
            )]),
            None
        );
        assert_eq!(
            conservative_window(&[TimePredicate::Between(TimeId(10), TimeId(90))]),
            Some((TimeId(10), TimeId(90)))
        );
        assert_eq!(
            conservative_window(&[
                TimePredicate::Between(TimeId(10), TimeId(90)),
                TimePredicate::AtInstant(TimeId(40)),
            ]),
            Some((TimeId(40), TimeId(40)))
        );
        // Contradicting bounds produce an empty window, not a panic.
        let (lo, hi) = conservative_window(&[
            TimePredicate::Between(TimeId(10), TimeId(20)),
            TimePredicate::Between(TimeId(50), TimeId(60)),
        ])
        .unwrap();
        assert!(lo > hi);
    }

    #[test]
    fn duplicate_key_free_runs_are_assumed() {
        // Moft canonicalizes on build; extents must agree with track().
        let m = moft();
        let idx = MoftIndex::build(&m, 256);
        for e in idx.extents() {
            let track: &[Record] = m.track(e.oid).unwrap();
            assert_eq!(track.len(), e.end - e.start);
            assert_eq!(track[0].t, e.t_min);
            assert_eq!(track[track.len() - 1].t, e.t_max);
        }
    }
}
