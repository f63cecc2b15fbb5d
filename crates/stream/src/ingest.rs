//! The `StreamIngest` front door: watermark buffering, sealing, dead
//! letters, incremental rollups and snapshots.

use std::collections::{BTreeMap, BinaryHeap};
use std::sync::OnceLock;
use std::time::Instant;

use gisolap_obs::{counters, Counter, Span, Tracer};
use gisolap_olap::time::TimeId;
use gisolap_traj::{Moft, Record};

use crate::config::{GeoResolver, StreamConfig};
use crate::delta::{bucket_partials, CellPartial, DeltaCube, GroupKey, RollupQuery, RollupRow};
use crate::segment::{Segment, SegmentMeta};
use crate::Result;

counters! {
    /// Point-in-time copy of the ingest counters. Exported names match
    /// the engine-side `StatsSnapshot` fields these counters seed, so span
    /// attribution, metrics and `OBSERVABILITY.md` stay consistent across
    /// the batch and streaming paths.
    pub struct IngestStats["gisolap_ingest_", "Streaming ingest counter."] {
        /// Records accepted into a buffer (before dedup).
        records_ingested,
        /// Records older than the sealed frontier, sent to the dead-letter
        /// sink.
        late_dropped as "records_late_dropped",
        /// Segments sealed so far.
        segments_sealed,
        /// Partial-aggregate entries merged into the [`DeltaCube`].
        partials_merged,
        /// Live tail records scanned by rollup queries (cumulative).
        tail_records_scanned,
    }
}

/// Outcome of one [`StreamIngest::ingest`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Records buffered.
    pub accepted: u64,
    /// Records dead-lettered as too late.
    pub late: u64,
    /// Segments sealed by the watermark advance this call caused.
    pub sealed: u64,
}

/// Append-only ingestion pipeline over the MOFT.
///
/// Records arrive in arbitrary batch order; each is routed to its time
/// **partition** buffer (`floor(t / segment_seconds)`). The watermark is
/// `max event time seen − lateness`; once it passes a partition's end the
/// partition is sealed into an immutable [`Segment`] and its per-hour
/// partials are absorbed into the [`DeltaCube`]. Records older than the
/// sealed frontier go to a counted dead-letter sink.
///
/// # Example
///
/// ```
/// use gisolap_olap::time::TimeId;
/// use gisolap_stream::{StreamConfig, StreamIngest};
/// use gisolap_traj::{ObjectId, Record};
///
/// let mut ingest = StreamIngest::new(StreamConfig {
///     lateness_seconds: 600,
///     segment_seconds: 3600,
/// })?;
/// let rec = |oid, t, x, y| Record { oid: ObjectId(oid), t: TimeId(t), x, y };
///
/// // Hour-0 records arrive slightly out of order.
/// ingest.ingest(&[rec(1, 100, 0.0, 0.0), rec(1, 50, 1.0, 1.0)]);
/// // A record past hour 0 + lateness advances the watermark: hour 0 seals.
/// let report = ingest.ingest(&[rec(2, 4300, 2.0, 2.0)]);
/// assert_eq!(report.sealed, 1);
/// assert_eq!(ingest.stats().segments_sealed, 1);
/// assert_eq!(ingest.tail_len(), 1); // the hour-1 record is still live
/// # Ok::<(), gisolap_stream::StreamError>(())
/// ```
pub struct StreamIngest {
    config: StreamConfig,
    resolver: Option<GeoResolver>,
    /// Arrival-ordered buffers per still-open partition.
    buffers: BTreeMap<i64, Vec<Record>>,
    /// The live tail's canonical cells, bucketed by the first read after
    /// `buffers` last changed. [`StreamIngest::ingest`] and
    /// [`StreamIngest::finish`] (the only calls that change `buffers`)
    /// reset it, and so does [`StreamIngest::with_resolver`].
    tail_cells: OnceLock<Vec<(GroupKey, CellPartial)>>,
    /// Sealed segments, ascending partition order.
    segments: Vec<Segment>,
    cube: DeltaCube,
    max_event_time: Option<TimeId>,
    /// All partitions `< sealed_before` are sealed (or empty forever).
    sealed_before: i64,
    dead_letters: Vec<Record>,
    records_ingested: u64,
    /// Segments that were sealed but merged away by store compaction
    /// before this instance was restored; keeps `segments_sealed`
    /// convergent across compaction (see [`StreamIngest::restore`]).
    compacted_away: u64,
    /// Reads run on `&self`; this counter is the only one they bump, by
    /// the records they bucket (a read of an unchanged tail adds 0).
    tail_records_scanned: Counter,
    /// Span collection switch; off by default.
    tracer: Tracer,
    /// One `segment-seal` span per sealed segment while tracing.
    spans: Vec<Span>,
}

impl StreamIngest {
    /// Creates a pipeline with a validated configuration.
    pub fn new(config: StreamConfig) -> Result<StreamIngest> {
        config.validate()?;
        Ok(StreamIngest {
            config,
            resolver: None,
            buffers: BTreeMap::new(),
            tail_cells: OnceLock::new(),
            segments: Vec::new(),
            cube: DeltaCube::new(),
            max_event_time: None,
            sealed_before: i64::MIN,
            dead_letters: Vec::new(),
            records_ingested: 0,
            compacted_away: 0,
            tail_records_scanned: Counter::default(),
            tracer: Tracer::default(),
            spans: Vec::new(),
        })
    }

    /// Switches `segment-seal` span collection on or off (off by
    /// default; sealing is untimed when off).
    pub fn set_traced(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// The `segment-seal` spans collected while tracing was on, in seal
    /// order. Each has the sealed partition's record/partial counters and
    /// one `partial-merge` child describing the [`DeltaCube`] absorb.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Attaches a geometry resolver so partials are additionally keyed by
    /// layer geometry (`gisolap-core` builds one from a GIS layer). Must
    /// be set before the first batch to keep partials uniform.
    pub fn with_resolver(mut self, resolver: GeoResolver) -> StreamIngest {
        debug_assert!(
            self.records_ingested == 0,
            "resolver must be set before ingesting"
        );
        self.resolver = Some(resolver);
        self.tail_cells.take();
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Current watermark (`max event time − lateness`), or `None` before
    /// the first record.
    pub fn watermark(&self) -> Option<TimeId> {
        self.max_event_time
            .map(|t| TimeId(t.0 - self.config.lateness_seconds))
    }

    /// Ingests one batch of records, in any order; advances the watermark
    /// and seals every partition it has passed.
    ///
    /// The batch is routed one run of same-partition records at a time:
    /// one buffer lookup and one copy per run, not per record.
    pub fn ingest(&mut self, batch: &[Record]) -> IngestReport {
        let mut report = IngestReport::default();
        let seg = self.config.segment_seconds;
        let partition = |r: &Record| r.t.0.div_euclid(seg);
        let mut rest = batch;
        while let Some(first) = rest.first() {
            let p = partition(first);
            let len = rest.iter().position(|r| partition(r) != p);
            let (run, after) = rest.split_at(len.unwrap_or(rest.len()));
            rest = after;
            if p < self.sealed_before {
                self.dead_letters.extend_from_slice(run);
                report.late += run.len() as u64;
                continue;
            }
            self.buffers.entry(p).or_default().extend_from_slice(run);
            report.accepted += run.len() as u64;
            let newest = run.iter().map(|r| r.t).max();
            if newest > self.max_event_time {
                self.max_event_time = newest;
            }
        }
        self.records_ingested += report.accepted;
        if report.accepted > 0 {
            self.tail_cells.take();
        }
        if let Some(wm) = self.watermark() {
            report.sealed = self.seal_below(wm.0.div_euclid(seg));
        }
        report
    }

    /// Seals **every** buffered partition regardless of the watermark —
    /// the stream is closed; any later record is dead-lettered.
    pub fn finish(&mut self) -> u64 {
        self.seal_below(i64::MAX)
    }

    /// Seals buffered partitions with index `< frontier`, ascending, and
    /// absorbs their partials; returns how many were sealed.
    fn seal_below(&mut self, frontier: i64) -> u64 {
        if frontier <= self.sealed_before {
            return 0;
        }
        self.sealed_before = frontier;
        let mut sealed = 0u64;
        while let Some((&partition, _)) = self.buffers.first_key_value() {
            if partition >= frontier {
                break;
            }
            let raw = self.buffers.remove(&partition).expect("checked key");
            let traced = self.tracer.enabled();
            let seal_t0 = Instant::now();
            let segment = Segment::seal(partition, raw, self.resolver.as_ref());
            let merge_t0 = Instant::now();
            let outcome = self.cube.absorb(segment.partials());
            if traced {
                self.spans.push(Span {
                    name: "segment-seal",
                    duration_ns: elapsed_ns(seal_t0),
                    counters: vec![
                        ("records_sealed", segment.meta().records as u64),
                        ("segments_sealed", 1),
                    ],
                    children: vec![Span {
                        name: "partial-merge",
                        duration_ns: elapsed_ns(merge_t0),
                        counters: vec![
                            ("partials_merged", outcome.merged + outcome.created),
                            ("cells_created", outcome.created),
                        ],
                        children: Vec::new(),
                    }],
                });
            }
            self.segments.push(segment);
            sealed += 1;
        }
        if sealed > 0 {
            self.tail_cells.take();
        }
        sealed
    }

    /// Sealed segments, ascending partition order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Records rejected as later than the watermark, in arrival order.
    pub fn dead_letters(&self) -> &[Record] {
        &self.dead_letters
    }

    /// The incremental rollup state over sealed segments.
    pub fn cube(&self) -> &DeltaCube {
        &self.cube
    }

    /// Number of records currently buffered in the live tail.
    pub fn tail_len(&self) -> usize {
        self.buffers.values().map(Vec::len).sum()
    }

    /// Point-in-time ingest counters.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            records_ingested: self.records_ingested,
            late_dropped: self.dead_letters.len() as u64,
            segments_sealed: self.segments.len() as u64 + self.compacted_away,
            partials_merged: self.cube.merges(),
            tail_records_scanned: self.tail_records_scanned.get(),
        }
    }

    /// The live tail in canonical form: every still-buffered record,
    /// sorted by `(oid, t)` with duplicate keys keeping the last arrival.
    pub fn tail_records(&self) -> Vec<Record> {
        let mut raw: Vec<Record> = Vec::with_capacity(self.tail_len());
        for buf in self.buffers.values() {
            raw.extend_from_slice(buf);
        }
        gisolap_traj::canonical::canonicalize(raw)
    }

    /// Buckets the canonical tail records `tail` into cells, counting
    /// them in `tail_records_scanned`.
    fn bucket_tail(&self, tail: &[Record]) -> Vec<(GroupKey, CellPartial)> {
        self.tail_records_scanned.add(tail.len() as u64);
        bucket_partials(tail, self.resolver.as_ref())
    }

    /// The live tail's canonical cells, ascending by key, bucketed at
    /// most once per change of the tail.
    fn tail_cells(&self) -> &[(GroupKey, CellPartial)] {
        self.tail_cells
            .get_or_init(|| self.bucket_tail(&self.tail_records()))
    }

    /// Answers a rollup by merging sealed [`DeltaCube`] partials with the
    /// live tail's cells — never a full-table rescan, and the tail is
    /// bucketed only by the first read after it changed.
    pub fn rollup(&self, q: &RollupQuery) -> Result<Vec<RollupRow>> {
        self.cube
            .rollup(q, self.tail_cells().iter().map(|(k, c)| (k, c)))
    }

    /// Every `(hour, geo)` partial cell the pipeline currently holds —
    /// the sealed [`DeltaCube`]'s run followed by a canonical
    /// accumulation of the live tail — strictly ascending by key:
    /// [`StreamIngest::partials_where`] keeping every cell.
    ///
    /// This is the *scatter unit* of sharded evaluation
    /// (`gisolap-shard`). Because partitions are hour-aligned and
    /// sealing moves whole partitions, every hour cell lives wholly in
    /// the cube or wholly in the tail, and every tail partition sorts
    /// after every sealed one — so the returned list is (a) ascending
    /// by `(hour, geo)` and (b) *independent of seal and compaction
    /// state*: it equals the canonical accumulation of every accepted
    /// record. Absorbing these cells into a fresh cube and rolling it
    /// up reproduces [`StreamIngest::rollup`] bit-identically.
    pub fn extract_partials(&self) -> Vec<(GroupKey, CellPartial)> {
        self.partials_where(|_| true)
    }

    /// The cells of [`StreamIngest::extract_partials`] whose key `keep`
    /// admits, in the same strictly ascending order — one pass over the
    /// borrowed sealed run and the cached tail run that copies only the
    /// cells it keeps (a shard's region fetch costs what it returns).
    /// Each stretch of kept cells is copied as one slice, so keeping
    /// everything copies each run in one piece.
    pub fn partials_where(
        &self,
        mut keep: impl FnMut(GroupKey) -> bool,
    ) -> Vec<(GroupKey, CellPartial)> {
        let mut out = Vec::new();
        for run in [self.cube.as_slice(), self.tail_cells()] {
            for kept in run.split(|(k, _)| !keep(*k)) {
                out.extend_from_slice(kept);
            }
        }
        debug_assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "extracted cells must be strictly ascending by key"
        );
        out
    }

    /// Freezes the current state into an owned [`StreamSnapshot`]: a
    /// MOFT assembled by k-way merging the sorted segment runs and the
    /// canonical tail (`O(n log k)`, no re-sort), the sealed cube, the
    /// tail's partial cells and the segment summaries.
    pub fn snapshot(&self) -> Result<StreamSnapshot> {
        let tail = self.tail_records();
        let tail_cells = self
            .tail_cells
            .get_or_init(|| self.bucket_tail(&tail))
            .clone();
        let mut runs: Vec<&[Record]> = self.segments.iter().map(Segment::records).collect();
        runs.push(&tail);

        // K-way merge of (oid, t)-sorted runs. Keys are globally unique:
        // partitions are disjoint time ranges and each run is deduped.
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let mut merged: Vec<Record> = Vec::with_capacity(total);
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, i64, usize)>> = BinaryHeap::new();
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

        Ok(StreamSnapshot {
            moft: Moft::from_sorted_records(merged)?,
            cube: self.cube.clone(),
            tail_cells,
            segments: self.segments.iter().map(|s| s.meta().clone()).collect(),
            tail_len: tail.len() as u64,
            stats: self.stats(),
        })
    }

    /// Freezes the mutable (unsealed) half of the pipeline state: the
    /// watermark source, the sealed frontier, the arrival-ordered tail
    /// buffers, the dead letters and the monotone counters. Together with
    /// [`StreamIngest::segments`] this is everything
    /// [`StreamIngest::restore`] needs to reproduce `self` exactly — it
    /// is what the durable store's checkpoint serializes.
    pub fn tail_state(&self) -> TailState {
        TailState {
            max_event_time: self.max_event_time,
            sealed_before: self.sealed_before,
            records_ingested: self.records_ingested,
            segments_sealed: self.segments.len() as u64 + self.compacted_away,
            dead_letters: self.dead_letters.clone(),
            buffers: self.buffers.iter().map(|(&p, b)| (p, b.clone())).collect(),
        }
    }

    /// Rebuilds a pipeline from durable parts: sealed `segments`
    /// (ascending partition order) and a checkpointed [`TailState`].
    ///
    /// The [`DeltaCube`] is reconstructed by absorbing the segments'
    /// partials in order — the same ascending-partition absorb sequence
    /// the original instance performed, hence a bit-identical cube (cell
    /// values *and* merge counter, even when store compaction has merged
    /// adjacent segments: compaction concatenates their disjoint-key
    /// partial lists, so the absorbed entry multiset is unchanged).
    /// `resolver` must be the same geometry resolver (if any) the
    /// original pipeline used; resolvers are code, not data, so the
    /// store cannot persist them.
    pub fn restore(
        config: StreamConfig,
        resolver: Option<GeoResolver>,
        segments: Vec<Segment>,
        tail: TailState,
    ) -> Result<StreamIngest> {
        config.validate()?;
        if segments
            .windows(2)
            .any(|w| w[0].partition() >= w[1].partition())
        {
            return Err(crate::StreamError::BadSegment(
                "restored segments must be ascending by partition".to_string(),
            ));
        }
        if (tail.segments_sealed as usize) < segments.len() {
            return Err(crate::StreamError::BadSegment(format!(
                "checkpoint claims {} sealed segments but {} were restored",
                tail.segments_sealed,
                segments.len()
            )));
        }
        if let Some((p, _)) = tail.buffers.iter().find(|(p, _)| *p < tail.sealed_before) {
            return Err(crate::StreamError::BadSegment(format!(
                "tail buffer for partition {p} is below the sealed frontier {}",
                tail.sealed_before
            )));
        }
        let mut cube = DeltaCube::new();
        for s in &segments {
            cube.absorb(s.partials());
        }
        let compacted_away = tail.segments_sealed - segments.len() as u64;
        Ok(StreamIngest {
            config,
            resolver,
            buffers: tail.buffers.into_iter().collect(),
            tail_cells: OnceLock::new(),
            segments,
            cube,
            max_event_time: tail.max_event_time,
            sealed_before: tail.sealed_before,
            dead_letters: tail.dead_letters,
            records_ingested: tail.records_ingested,
            compacted_away,
            tail_records_scanned: Counter::default(),
            tracer: Tracer::default(),
            spans: Vec::new(),
        })
    }

    /// Crash recovery: [`StreamIngest::restore`] the checkpointed state,
    /// then replay the write-ahead-logged operations through the
    /// **normal ingest path** ([`StreamIngest::ingest`] /
    /// [`StreamIngest::finish`], watermark advances and sealing
    /// included). Because ingestion is deterministic in the operation
    /// sequence, the result provably converges to the pre-crash state:
    /// it equals an uninterrupted pipeline fed the same prefix of
    /// operations.
    pub fn recover<I>(
        config: StreamConfig,
        resolver: Option<GeoResolver>,
        segments: Vec<Segment>,
        tail: TailState,
        ops: I,
    ) -> Result<(StreamIngest, ReplayReport)>
    where
        I: IntoIterator<Item = ReplayOp>,
    {
        let mut ingest = StreamIngest::restore(config, resolver, segments, tail)?;
        let mut replay = ReplayReport::default();
        for op in ops {
            match op {
                ReplayOp::Batch(batch) => {
                    let report = ingest.ingest(&batch);
                    replay.batches += 1;
                    replay.accepted += report.accepted;
                    replay.late += report.late;
                    replay.sealed += report.sealed;
                }
                ReplayOp::Finish => {
                    replay.sealed += ingest.finish();
                }
            }
        }
        Ok((ingest, replay))
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The checkpointable mutable half of a [`StreamIngest`]: everything
/// that is *not* derivable from the sealed segments. Produced by
/// [`StreamIngest::tail_state`], consumed by [`StreamIngest::restore`];
/// the durable store serializes it as its checkpoint record.
#[derive(Debug, Clone, PartialEq)]
pub struct TailState {
    /// Maximum event time seen (the watermark source), if any.
    pub max_event_time: Option<TimeId>,
    /// All partitions `< sealed_before` are sealed.
    pub sealed_before: i64,
    /// Cumulative records accepted into buffers.
    pub records_ingested: u64,
    /// Cumulative segments sealed (compaction may later merge the
    /// segments themselves, but never lowers this count).
    pub segments_sealed: u64,
    /// Records rejected as too late, in arrival order.
    pub dead_letters: Vec<Record>,
    /// Arrival-ordered buffers per still-open partition, ascending by
    /// partition index. Arrival order matters: duplicate `(oid, t)` keys
    /// keep the **last** arrival when the partition seals.
    pub buffers: Vec<(i64, Vec<Record>)>,
}

/// One logged ingest-mutating operation, as a write-ahead log records
/// it. Replaying the op sequence through a [`StreamIngest`] reproduces
/// its state exactly — [`StreamIngest::ingest`] and
/// [`StreamIngest::finish`] are the only two entry points that mutate
/// the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayOp {
    /// One [`StreamIngest::ingest`] call with this batch.
    Batch(Vec<Record>),
    /// One [`StreamIngest::finish`] call (seals everything; later
    /// records dead-letter, which is why replay must reproduce it).
    Finish,
}

/// What a [`StreamIngest::recover`] replay did: the per-batch
/// [`IngestReport`]s summed over the replayed write-ahead log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Batches replayed through the normal ingest path.
    pub batches: u64,
    /// Records accepted during replay.
    pub accepted: u64,
    /// Records dead-lettered during replay.
    pub late: u64,
    /// Segments sealed during replay.
    pub sealed: u64,
}

/// An owned, self-consistent freeze of a [`StreamIngest`]: the full MOFT
/// (sealed + tail), the sealed-partial cube, the tail's partial cells and
/// per-segment summaries. This is what the `gisolap-core` engines build
/// from.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    moft: Moft,
    cube: DeltaCube,
    tail_cells: Vec<(GroupKey, CellPartial)>,
    segments: Vec<SegmentMeta>,
    tail_len: u64,
    stats: IngestStats,
}

impl StreamSnapshot {
    /// The assembled fact table (sealed segments + live tail).
    pub fn moft(&self) -> &Moft {
        &self.moft
    }

    /// The sealed-partial cube.
    pub fn cube(&self) -> &DeltaCube {
        &self.cube
    }

    /// Summaries of the sealed segments, ascending partition order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Number of live-tail records at snapshot time.
    pub fn tail_len(&self) -> u64 {
        self.tail_len
    }

    /// Ingest counters at snapshot time.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Answers a rollup from the frozen state (sealed partials + the
    /// tail cells captured at snapshot time).
    pub fn rollup(&self, q: &RollupQuery) -> Result<Vec<RollupRow>> {
        self.cube
            .rollup(q, self.tail_cells.iter().map(|(k, c)| (k, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_obs::{CounterSet, MetricsRegistry};
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::TimeLevel;
    use gisolap_traj::ObjectId;

    use crate::delta::Measure;

    fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y,
        }
    }

    fn cfg(lateness: i64) -> StreamConfig {
        StreamConfig {
            lateness_seconds: lateness,
            segment_seconds: 3600,
        }
    }

    #[test]
    fn watermark_seals_and_dead_letters() {
        let mut s = StreamIngest::new(cfg(600)).unwrap();
        assert_eq!(s.watermark(), None);

        // Hour-0 records, slightly out of order.
        let r = s.ingest(&[rec(1, 100, 0.0, 0.0), rec(1, 50, 1.0, 1.0)]);
        assert_eq!((r.accepted, r.late, r.sealed), (2, 0, 0));
        assert_eq!(s.watermark(), Some(TimeId(100 - 600)));

        // Jump past hour 0 + lateness: hour 0 seals.
        let r = s.ingest(&[rec(2, 4300, 2.0, 2.0)]);
        assert_eq!(r.sealed, 1);
        assert_eq!(s.segments().len(), 1);
        assert_eq!(s.segments()[0].meta().records, 2);
        assert_eq!(s.tail_len(), 1);

        // A record for sealed hour 0 is now late.
        let r = s.ingest(&[rec(3, 10, 9.0, 9.0)]);
        assert_eq!((r.accepted, r.late), (0, 1));
        assert_eq!(s.dead_letters().len(), 1);
        assert_eq!(s.dead_letters()[0].oid, ObjectId(3));

        let stats = s.stats();
        assert_eq!(stats.records_ingested, 3);
        assert_eq!(stats.late_dropped, 1);
        assert_eq!(stats.segments_sealed, 1);
        assert_eq!(stats.partials_merged, 1); // hour 0, one cell

        // finish() seals the tail; later records are dead-lettered.
        assert_eq!(s.finish(), 1);
        assert_eq!(s.tail_len(), 0);
        let r = s.ingest(&[rec(4, 5000, 0.0, 0.0)]);
        assert_eq!((r.accepted, r.late), (0, 1));
    }

    #[test]
    fn sealing_emits_spans_only_while_traced() {
        let mut s = StreamIngest::new(cfg(0)).unwrap();
        s.ingest(&[rec(1, 100, 0.0, 0.0)]);
        s.ingest(&[rec(2, 3700, 1.0, 1.0)]); // seals hour 0, untraced
        assert!(s.spans().is_empty());

        s.set_traced(true);
        s.ingest(&[rec(3, 7300, 2.0, 2.0)]); // seals hour 1, traced
        assert_eq!(s.spans().len(), 1);
        let span = &s.spans()[0];
        assert_eq!(span.name, "segment-seal");
        assert_eq!(span.counter("records_sealed"), 1);
        assert_eq!(span.counter("segments_sealed"), 1);
        assert_eq!(span.children.len(), 1);
        let merge = &span.children[0];
        assert_eq!(merge.name, "partial-merge");
        // Hour 1 is a fresh cell: one partial absorbed, one cell created.
        assert_eq!(merge.counter("partials_merged"), 1);
        assert_eq!(merge.counter("cells_created"), 1);
        // Span totals agree with the cumulative counter.
        let total: u64 = s.spans().iter().map(|sp| sp.total("partials_merged")).sum();
        assert_eq!(total + 1, s.stats().partials_merged); // +1 untraced seal
    }

    #[test]
    fn ingest_stats_fields_and_metrics() {
        let mut s = StreamIngest::new(cfg(0)).unwrap();
        s.ingest(&[rec(1, 100, 0.0, 0.0), rec(2, 3700, 1.0, 1.0)]);
        let stats = s.stats();
        let fields = stats.fields();
        assert_eq!(fields.len(), 5);
        assert!(fields.contains(&("records_ingested", 2)));
        assert!(fields.contains(&("segments_sealed", 1)));

        let mut registry = MetricsRegistry::new();
        registry.fill(&stats, &[]);
        let text = registry.render_prometheus();
        assert!(
            text.contains("gisolap_ingest_records_ingested_total 2\n"),
            "{text}"
        );
        assert!(
            text.contains("gisolap_ingest_segments_sealed_total 1\n"),
            "{text}"
        );
    }

    #[test]
    fn within_lateness_is_never_late() {
        // Watermark trails by 3600: a full hour of reordering survives.
        let mut s = StreamIngest::new(cfg(3600)).unwrap();
        s.ingest(&[rec(1, 7000, 0.0, 0.0)]);
        let r = s.ingest(&[rec(1, 3500, 1.0, 1.0)]);
        assert_eq!((r.accepted, r.late), (1, 0));
    }

    #[test]
    fn rollup_merges_sealed_and_tail() {
        let mut s = StreamIngest::new(cfg(0)).unwrap();
        s.ingest(&[rec(1, 100, 1.0, 10.0), rec(1, 200, 3.0, 30.0)]);
        s.ingest(&[rec(2, 3700, 5.0, 50.0)]); // seals hour 0
        assert_eq!(s.segments().len(), 1);
        assert_eq!(s.tail_len(), 1);

        let rows = s
            .rollup(&RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .unwrap();
        assert_eq!(
            rows,
            vec![
                RollupRow {
                    granule: 0,
                    geo: None,
                    value: 4.0
                },
                RollupRow {
                    granule: 1,
                    geo: None,
                    value: 5.0
                },
            ]
        );
        let rows = s
            .rollup(&RollupQuery::new(TimeLevel::Day, Measure::Y, AggFn::Avg))
            .unwrap();
        assert_eq!(
            rows,
            vec![RollupRow {
                granule: 0,
                geo: None,
                value: 30.0
            }]
        );
        // Two rollups × tail of 1, but the second reads the cached cells.
        assert_eq!(s.stats().tail_records_scanned, 1);
        // A read after the tail changes buckets it again: 2 records now.
        s.ingest(&[rec(3, 3800, 7.0, 70.0)]);
        assert_eq!(s.extract_partials().len(), 2);
        assert_eq!(s.stats().tail_records_scanned, 3);
    }

    #[test]
    fn snapshot_assembles_canonical_moft() {
        let mut s = StreamIngest::new(cfg(0)).unwrap();
        // Interleave objects across two hours, scrambled arrival, one
        // duplicate key in the tail.
        s.ingest(&[rec(2, 3700, 4.0, 4.0), rec(1, 100, 0.0, 0.0)]);
        s.ingest(&[rec(1, 3800, 2.0, 2.0), rec(1, 3800, 7.0, 7.0)]);
        assert_eq!(s.segments().len(), 1); // hour 0 sealed

        let snap = s.snapshot().unwrap();
        let expected = Moft::from_tuples([
            (1, 100, 0.0, 0.0),
            (1, 3800, 7.0, 7.0), // last arrival wins
            (2, 3700, 4.0, 4.0),
        ]);
        assert_eq!(snap.moft().records(), expected.records());
        assert_eq!(snap.segments().len(), 1);
        assert_eq!(snap.tail_len(), 2); // canonical tail: duplicate key collapsed

        // Snapshot rollups equal live rollups.
        let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Max);
        assert_eq!(snap.rollup(&q).unwrap(), s.rollup(&q).unwrap());
    }
}
