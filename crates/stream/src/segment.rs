//! Immutable, time-partitioned segments sealed from the ingest buffer.

use std::ops::Range;
use std::sync::{Mutex, OnceLock};

use gisolap_geom::BBox;
use gisolap_olap::time::TimeId;
use gisolap_traj::canonical::canonicalize;
use gisolap_traj::{ObjectId, Record};

use crate::config::GeoResolver;
use crate::delta::{CellKernel, CellPartial, GroupKey};
use crate::{Result, StreamError};

/// Summary of a sealed segment — enough for time/space pruning without
/// touching the records.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Partition index: `floor(t / segment_seconds)` of every record.
    pub partition: i64,
    /// Number of (deduplicated) records.
    pub records: usize,
    /// Number of distinct objects observed.
    pub objects: usize,
    /// Earliest observation in the segment.
    pub first: TimeId,
    /// Latest observation in the segment.
    pub last: TimeId,
    /// Spatial bounding box of all observations.
    pub bbox: BBox,
}

/// An immutable sealed partition: records sorted by `(Oid, t)` (duplicate
/// keys keep the last arrival, matching `Moft::rebuild_index`), plus the
/// summaries and per-hour partial aggregates derived from them.
///
/// A segment opened from its file ([`Segment::from_encoded`]) holds its
/// partition and partial cells decoded, and its record section still
/// encoded: the records, [`SegmentMeta`] and per-object ranges are built
/// on the first call that needs them, once, and the encoded bytes are
/// then released. Rollups, fetches and recovery read only the cells.
#[derive(Debug)]
pub struct Segment {
    partition: i64,
    /// Per-`(hour, geo)` partials, ascending by key.
    partials: Vec<(GroupKey, CellPartial)>,
    /// The records and what derives from them.
    body: OnceLock<Body>,
    /// The encoded record section `body` is built from on first touch,
    /// for a segment opened from its file; taken by that build.
    encoded: Mutex<Option<EncodedRecords>>,
}

/// A segment's records and the summary derived from them.
#[derive(Debug, Clone)]
struct Body {
    meta: SegmentMeta,
    records: Vec<Record>,
    /// `(oid, start, end)` ranges into `records`, ascending by oid.
    object_ranges: Vec<(ObjectId, usize, usize)>,
}

impl Body {
    /// The body of canonical `records`, summarised in one pass that also
    /// hands each record to `visit`.
    fn new(partition: i64, records: Vec<Record>, mut visit: impl FnMut(&Record)) -> Body {
        let mut summary = Summary::new();
        for r in &records {
            summary.visit(r);
            visit(r);
        }
        Body {
            meta: summary.meta(partition),
            records,
            object_ranges: summary.object_ranges,
        }
    }
}

/// A segment's record section in its stored form, and the codec
/// function that decodes it: the store's codec stays the only owner of
/// the record layout while the segment decides when to decode.
#[derive(Clone)]
pub struct EncodedRecords {
    bytes: Vec<u8>,
    range: Range<usize>,
    decode: fn(&[u8]) -> Vec<Record>,
}

impl EncodedRecords {
    /// The records `decode(&bytes[range])` yields. The caller has checked
    /// that they are strictly ascending by `(oid, t)`.
    pub fn new(bytes: Vec<u8>, range: Range<usize>, decode: fn(&[u8]) -> Vec<Record>) -> Self {
        assert!(range.end <= bytes.len(), "record section past the buffer");
        EncodedRecords {
            bytes,
            range,
            decode,
        }
    }

    fn decode(&self) -> Vec<Record> {
        (self.decode)(&self.bytes[self.range.clone()])
    }
}

impl std::fmt::Debug for EncodedRecords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedRecords")
            .field("bytes", &self.range.len())
            .finish()
    }
}

impl Clone for Segment {
    fn clone(&self) -> Segment {
        let encoded = lock(&self.encoded).clone();
        // Still encoded: the copy decodes on its own first touch. Taken:
        // the body is built, or being built (`body()` waits for it).
        let body = match encoded {
            Some(_) => OnceLock::new(),
            None => OnceLock::from(self.body().clone()),
        };
        Segment {
            partition: self.partition,
            partials: self.partials.clone(),
            body,
            encoded: Mutex::new(encoded),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Segment {
    /// Seals a buffered partition. `raw` is in arrival order and must be
    /// non-empty; every record's partition index must equal `partition`.
    ///
    /// After the canonical sort ([`canonicalize`]), one pass over the
    /// kept records feeds each to the summary and the cell kernel at
    /// once.
    pub(crate) fn seal(
        partition: i64,
        raw: Vec<Record>,
        resolver: Option<&GeoResolver>,
    ) -> Segment {
        debug_assert!(!raw.is_empty(), "sealing an empty partition");
        let mut kernel = CellKernel::new(resolver);
        let body = Body::new(partition, canonicalize(raw), |r| kernel.push(r));
        Segment {
            partition,
            partials: kernel.finish(),
            body: OnceLock::from(body),
            encoded: Mutex::new(None),
        }
    }

    /// The records and summary, built from the encoded section on the
    /// first call.
    fn body(&self) -> &Body {
        self.body.get_or_init(|| {
            let encoded = lock(&self.encoded)
                .take()
                .expect("a segment without a body holds its encoded records");
            let records = encoded.decode();
            debug_assert!(
                records
                    .windows(2)
                    .all(|w| (w[0].oid, w[0].t) < (w[1].oid, w[1].t)),
                "encoded records must be strictly (oid, t)-ascending"
            );
            Body::new(self.partition, records, |_| {})
        })
    }

    /// Partition index: `floor(t / segment_seconds)` of every record
    /// (the partition of [`Segment::meta`], without building it).
    pub fn partition(&self) -> i64 {
        self.partition
    }

    /// The segment's summary.
    pub fn meta(&self) -> &SegmentMeta {
        &self.body().meta
    }

    /// All records, sorted by `(oid, t)`, unique keys.
    pub fn records(&self) -> &[Record] {
        &self.body().records
    }

    /// Distinct object ids, ascending.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.body().object_ranges.iter().map(|&(oid, _, _)| oid)
    }

    /// The time-sorted records of one object, or `None` if absent.
    pub fn track(&self, oid: ObjectId) -> Option<&[Record]> {
        let body = self.body();
        body.object_ranges
            .binary_search_by_key(&oid, |&(o, _, _)| o)
            .ok()
            .map(|i| {
                let (_, a, b) = body.object_ranges[i];
                &body.records[a..b]
            })
    }

    /// Per-`(hour, geo)` partial aggregates, ascending by key.
    pub fn partials(&self) -> &[(GroupKey, CellPartial)] {
        &self.partials
    }

    /// Reassembles a segment from its canonical parts — the persistence
    /// path (`gisolap-store`'s codec) and [`Segment::merged`] use this.
    ///
    /// `records` must be strictly ascending by `(oid, t)` (the canonical
    /// form sealing produces) and `partials` strictly ascending
    /// by key. The summary and per-object ranges are *re-derived* from
    /// the records, so a segment serialized as
    /// `(partition, records, partials)` round-trips bit-identically. An
    /// empty record set is allowed (the store round-trips empty
    /// segments); its summary has `first == last == TimeId(0)` and an
    /// empty bbox.
    pub fn from_parts(
        partition: i64,
        records: Vec<Record>,
        partials: Vec<(GroupKey, CellPartial)>,
    ) -> Result<Segment> {
        if let Some(w) = records
            .windows(2)
            .find(|w| (w[0].oid, w[0].t) >= (w[1].oid, w[1].t))
        {
            return Err(StreamError::BadSegment(format!(
                "records not strictly (oid, t)-sorted at ({}, {})",
                w[1].oid, w[1].t.0
            )));
        }
        check_partials(&partials)?;
        Ok(Segment {
            partition,
            partials,
            body: OnceLock::from(Body::new(partition, records, |_| {})),
            encoded: Mutex::new(None),
        })
    }

    /// A segment whose records stay encoded until first touched — the
    /// store's open path. `records` must hold strictly `(oid, t)`-ascending
    /// records (the codec checks that on the raw bytes); `partials` must
    /// be strictly ascending by key. Every accessor answers as
    /// [`Segment::from_parts`] over the decoded records would.
    pub fn from_encoded(
        partition: i64,
        records: EncodedRecords,
        partials: Vec<(GroupKey, CellPartial)>,
    ) -> Result<Segment> {
        check_partials(&partials)?;
        Ok(Segment {
            partition,
            partials,
            body: OnceLock::new(),
            encoded: Mutex::new(Some(records)),
        })
    }

    /// Merges adjacent sealed segments (ascending partition order, as
    /// [`crate::StreamIngest::segments`] yields them) into one segment
    /// covering their union — the store's compaction primitive.
    ///
    /// Records are k-way merged by `(oid, t)` (keys are globally unique
    /// because partitions are disjoint time ranges and each run is
    /// deduplicated), and the partial lists are concatenated: partial
    /// keys are `(hour, geo)` and hour-aligned partitions make the key
    /// ranges disjoint and ascending across inputs. Absorbing the merged
    /// partials into a [`crate::DeltaCube`] is therefore *identical* —
    /// cell-by-cell and merge-count included — to absorbing the inputs
    /// one by one, which is the compaction invariant the store's tests
    /// pin down. The merged summary takes the first input's partition
    /// index.
    pub fn merged(parts: &[Segment]) -> Result<Segment> {
        if parts.is_empty() {
            return Err(StreamError::BadSegment(
                "cannot merge zero segments".to_string(),
            ));
        }
        if parts.windows(2).any(|w| w[0].partition >= w[1].partition) {
            return Err(StreamError::BadSegment(
                "merge inputs must be ascending by partition".to_string(),
            ));
        }
        let runs: Vec<&[Record]> = parts.iter().map(Segment::records).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let mut merged: Vec<Record> = Vec::with_capacity(total);
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, i64, usize)>> =
            std::collections::BinaryHeap::new();
        let mut cursors = vec![0usize; runs.len()];
        for (i, run) in runs.iter().enumerate() {
            if let Some(r) = run.first() {
                heap.push(std::cmp::Reverse((r.oid.0, r.t.0, i)));
            }
        }
        while let Some(std::cmp::Reverse((_, _, i))) = heap.pop() {
            merged.push(runs[i][cursors[i]]);
            cursors[i] += 1;
            if let Some(r) = runs[i].get(cursors[i]) {
                heap.push(std::cmp::Reverse((r.oid.0, r.t.0, i)));
            }
        }
        let mut partials: Vec<(GroupKey, CellPartial)> =
            Vec::with_capacity(parts.iter().map(|s| s.partials.len()).sum());
        for s in parts {
            partials.extend_from_slice(&s.partials);
        }
        Segment::from_parts(parts[0].partition, merged, partials)
    }
}

/// What a segment derives from its canonical records, gathered one
/// record at a time: per-object ranges, time span and bounding box.
struct Summary {
    records: usize,
    /// `(oid, start, end)` ranges into the records, ascending by oid.
    object_ranges: Vec<(ObjectId, usize, usize)>,
    /// `(first, last)` observation time, once a record was seen.
    span: Option<(TimeId, TimeId)>,
    bbox: BBox,
}

impl Summary {
    fn new() -> Summary {
        Summary {
            records: 0,
            object_ranges: Vec::new(),
            span: None,
            bbox: BBox::empty(),
        }
    }

    /// Takes in the next canonical record.
    fn visit(&mut self, r: &Record) {
        match self.object_ranges.last_mut() {
            Some((oid, _, end)) if *oid == r.oid => *end += 1,
            _ => self
                .object_ranges
                .push((r.oid, self.records, self.records + 1)),
        }
        self.records += 1;
        self.span = Some(
            self.span
                .map_or((r.t, r.t), |(a, b)| (a.min(r.t), b.max(r.t))),
        );
        self.bbox = self.bbox.expanded_to(r.pos());
    }

    /// The summary of the records seen; with none, `first == last ==
    /// TimeId(0)` and the bbox is empty.
    fn meta(&self, partition: i64) -> SegmentMeta {
        let (first, last) = self.span.unwrap_or((TimeId(0), TimeId(0)));
        SegmentMeta {
            partition,
            records: self.records,
            objects: self.object_ranges.len(),
            first,
            last,
            bbox: self.bbox,
        }
    }
}

/// Partial cells must be strictly ascending by key.
fn check_partials(partials: &[(GroupKey, CellPartial)]) -> Result<()> {
    if partials.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(StreamError::BadSegment(
            "partials not strictly key-sorted".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y,
        }
    }

    #[test]
    fn seal_sorts_dedups_and_summarizes() {
        // Arrival order scrambled; one duplicate key whose last arrival
        // must win.
        let raw = vec![
            rec(2, 100, 5.0, 5.0),
            rec(1, 50, 0.0, 0.0),
            rec(1, 10, 1.0, 1.0),
            rec(1, 50, 9.0, 9.0),
        ];
        let seg = Segment::seal(0, raw, None);
        let recs = seg.records();
        assert_eq!(recs.len(), 3);
        assert!(recs
            .windows(2)
            .all(|w| (w[0].oid, w[0].t) < (w[1].oid, w[1].t)));
        assert_eq!(seg.track(ObjectId(1)).unwrap()[1].x, 9.0);
        assert!(seg.track(ObjectId(3)).is_none());

        let meta = seg.meta();
        assert_eq!(meta.records, 3);
        assert_eq!(meta.objects, 2);
        assert_eq!((meta.first, meta.last), (TimeId(10), TimeId(100)));
        // The superseded (1, 50) point at (0, 0) is gone from the bbox.
        assert_eq!(meta.bbox, BBox::new(1.0, 1.0, 9.0, 9.0));
        assert_eq!(
            seg.objects().collect::<Vec<_>>(),
            vec![ObjectId(1), ObjectId(2)]
        );

        // All three records fall in hour 0 → one partial cell.
        assert_eq!(seg.partials().len(), 1);
        assert_eq!(seg.partials()[0].1.x.count(), 3);
    }
}
