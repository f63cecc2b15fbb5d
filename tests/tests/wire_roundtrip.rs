//! Round trips of every `messages!` family over generated values: for
//! each family, `decode(encode(v))` reproduces `v` exactly, on every
//! variant, NaN payloads included. The golden fixtures pin one value per
//! variant; these sweep the value space (empty and long sequences,
//! absent and present options, extreme integers, every float class).
//!
//! Exactness is checked two ways: the `Debug` forms match (every float
//! prints in round-trip precision, `-0.0` included), and re-encoding the
//! decoded value gives the same bytes (which pins the NaN payload bits
//! `Debug` prints only as `NaN`).
//!
//! Case count is `GISOLAP_CASES` (default 16); CI's network-serving job
//! raises it.

use gisolap_geom::BBox;
use gisolap_olap::agg::{AggFn, Partial};
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_repl::{ReplyHead, Request, SnapshotTransfer};
use gisolap_serve::{ServeReply, ServeRequest};
use gisolap_shard::wire::{RebalanceJournal, ShardManifest};
use gisolap_shard::{GridSpec, PartitionerSpec};
use gisolap_store::codec::{read_single_frame, Manifest, SegmentEntry, TailDelta};
use gisolap_stream::{CellPartial, GroupKey, Measure, RollupQuery, RollupRow, Segment, TailState};
use gisolap_sub::{Crossing, Notification, SubId, Subscription, Threshold};
use gisolap_traj::{ObjectId, Record};
use proptest::prelude::*;

/// A seeded splitmix64 stream (the proptest shim has no `any::<T>()`).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }

    fn len(&mut self) -> usize {
        // Mostly short, sometimes empty, now and then long.
        match self.below(8) {
            0 => 0,
            7 => self.below(200) as usize,
            _ => self.below(6) as usize,
        }
    }

    fn u32(&mut self) -> u32 {
        match self.below(4) {
            0 => [0, 1, u32::MAX][self.below(3) as usize],
            _ => self.next() as u32,
        }
    }

    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => [0, 1, u64::MAX][self.below(3) as usize],
            _ => self.next(),
        }
    }

    fn i64(&mut self) -> i64 {
        match self.below(4) {
            0 => [0, -1, i64::MIN, i64::MAX][self.below(4) as usize],
            _ => self.next() as i64,
        }
    }

    /// Every float class: ordinary, signed zeros, infinities, NaNs with
    /// payloads, subnormals and raw bit patterns.
    fn f64(&mut self) -> f64 {
        match self.below(8) {
            0 => f64::from_bits(0x7ff8_0000_0000_0000 | (self.next() & 0xffff)),
            1 => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][self.below(4) as usize],
            2 => f64::from_bits(self.below(1 << 52)),
            3 => f64::from_bits(self.next()),
            _ => (self.next() as i64 >> 20) as f64 / 64.0,
        }
    }

    fn opt<T>(&mut self, item: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.coin().then(|| item(self))
    }

    fn vec<T>(&mut self, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.len()).map(|_| item(self)).collect()
    }

    fn string(&mut self) -> String {
        let alphabet = ['a', 'Z', '0', '-', ' ', 'é', '∑', '🚀'];
        (0..self.len())
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }

    fn bytes(&mut self) -> Vec<u8> {
        self.vec(|g| g.next() as u8)
    }

    fn bbox(&mut self) -> BBox {
        BBox {
            min_x: self.f64(),
            min_y: self.f64(),
            max_x: self.f64(),
            max_y: self.f64(),
        }
    }

    fn level(&mut self) -> TimeLevel {
        [
            TimeLevel::TimeId,
            TimeLevel::Minute,
            TimeLevel::Hour,
            TimeLevel::Day,
            TimeLevel::Month,
            TimeLevel::Year,
            TimeLevel::TimeOfDayLevel,
            TimeLevel::DayOfWeekLevel,
            TimeLevel::TypeOfDayLevel,
            TimeLevel::All,
        ][self.below(10) as usize]
    }

    fn measure(&mut self) -> Measure {
        [Measure::X, Measure::Y][self.below(2) as usize]
    }

    fn agg(&mut self) -> AggFn {
        [AggFn::Min, AggFn::Max, AggFn::Count, AggFn::Sum, AggFn::Avg][self.below(5) as usize]
    }

    fn query(&mut self) -> RollupQuery {
        RollupQuery {
            level: self.level(),
            measure: self.measure(),
            f: self.agg(),
            between: self.opt(|g| (TimeId(g.i64()), TimeId(g.i64()))),
        }
    }

    fn rows(&mut self) -> Vec<RollupRow> {
        self.vec(|g| RollupRow {
            granule: g.i64(),
            geo: g.opt(Gen::u32),
            value: g.f64(),
        })
    }

    fn partial(&mut self) -> Partial {
        Partial::from_raw(self.u64(), self.f64(), self.f64(), self.f64())
    }

    /// Cells with hours whose seconds fit an `i64` (what decode admits).
    fn cells(&mut self) -> Vec<(GroupKey, CellPartial)> {
        let bound = i64::MAX / 3600;
        self.vec(|g| {
            let hour = match g.below(3) {
                0 => [bound, -bound, 0][g.below(3) as usize],
                _ => (g.next() as i64) % bound,
            };
            let cell = CellPartial {
                x: g.partial(),
                y: g.partial(),
            };
            ((hour, g.opt(Gen::u32)), cell)
        })
    }

    fn grid(&mut self) -> GridSpec {
        let x = (self.next() as i64 >> 40) as f64 / 8.0;
        let y = (self.next() as i64 >> 40) as f64 / 8.0;
        let w = (self.below(1 << 20) + 1) as f64 / 16.0;
        let h = (self.below(1 << 20) + 1) as f64 / 16.0;
        let nx = self.below(64) as u32 + 1;
        let ny = self.below(64) as u32 + 1;
        GridSpec::new(BBox::new(x, y, x + w, y + h), nx, ny).unwrap()
    }

    /// A buildable partitioner spec of variant `which`.
    fn spec(&mut self, which: usize) -> PartitionerSpec {
        if which == 0 {
            PartitionerSpec::Hash {
                shards: self.below(64) as u32 + 1,
                grid: self.opt(Gen::grid),
            }
        } else {
            let grid = self.grid();
            let shards = self.below(u64::from(grid.cells()).min(64)) as u32 + 1;
            PartitionerSpec::Spatial { shards, grid }
        }
    }

    fn any_spec(&mut self) -> PartitionerSpec {
        let which = self.below(2) as usize;
        self.spec(which)
    }

    fn subscription(&mut self) -> Subscription {
        Subscription {
            region: self.opt(Gen::bbox),
            level: self.level(),
            measure: self.measure(),
            agg: self.agg(),
            window_hours: self.opt(Gen::u32),
            threshold: self.opt(Gen::threshold),
        }
    }

    fn threshold(&mut self) -> Threshold {
        Threshold {
            rise: self.f64(),
            fall: self.f64(),
        }
    }

    fn notification(&mut self) -> Notification {
        Notification {
            sub: SubId(self.u64()),
            seq: self.u64(),
            partition: self.i64(),
            rows: self.rows(),
            value: self.opt(Gen::f64),
            prev: self.opt(Gen::f64),
            crossing: [None, Some(Crossing::Up), Some(Crossing::Down)][self.below(3) as usize],
        }
    }

    fn record(&mut self) -> Record {
        Record {
            oid: ObjectId(self.below(16)),
            t: TimeId(self.i64()),
            x: self.f64(),
            y: self.f64(),
        }
    }

    fn records(&mut self) -> Vec<Record> {
        self.vec(Gen::record)
    }

    /// A segment in canonical form: records strictly `(oid, t)`-sorted,
    /// cells strictly key-sorted.
    fn segment(&mut self) -> Segment {
        let mut records = self.records();
        records.sort_by_key(|r| (r.oid, r.t));
        records.dedup_by_key(|r| (r.oid, r.t));
        let mut cells = self.cells();
        cells.sort_by_key(|(k, _)| *k);
        cells.dedup_by_key(|(k, _)| *k);
        Segment::from_parts(self.i64(), records, cells).unwrap()
    }

    fn buffers(&mut self) -> Vec<(i64, Vec<Record>)> {
        self.vec(|g| (g.i64(), g.records()))
    }

    fn tail(&mut self) -> TailState {
        TailState {
            max_event_time: self.opt(|g| TimeId(g.i64())),
            sealed_before: self.i64(),
            records_ingested: self.u64(),
            segments_sealed: self.u64(),
            dead_letters: self.records(),
            buffers: self.buffers(),
        }
    }

    fn transfer(&mut self) -> SnapshotTransfer {
        SnapshotTransfer {
            epoch: self.u64(),
            lateness_seconds: self.i64(),
            segment_seconds: self.i64(),
            next_seq: self.u64(),
            segments: self.vec(Gen::segment),
            tail: self.tail(),
        }
    }

    fn serve_request(&mut self, which: usize) -> ServeRequest {
        let tenant = self.string();
        match which {
            0 => ServeRequest::Ping { tenant },
            1 => ServeRequest::Rollup {
                tenant,
                query: self.query(),
            },
            2 => ServeRequest::Repl {
                tenant,
                request: self.bytes(),
            },
            3 => ServeRequest::Partials {
                tenant,
                grid: self.opt(Gen::grid),
                region: self.opt(Gen::bbox),
            },
            4 => ServeRequest::ShardedRollup {
                tenant,
                query: self.query(),
                region: self.opt(Gen::bbox),
            },
            5 => ServeRequest::Subscribe {
                tenant,
                sub: self.subscription(),
            },
            _ => ServeRequest::Notifications {
                tenant,
                since: self.u64(),
            },
        }
    }

    fn serve_reply(&mut self, which: usize) -> ServeReply {
        match which {
            0 => ServeReply::Pong,
            1 => ServeReply::Rows(self.rows()),
            2 => ServeReply::Repl(self.bytes()),
            3 => ServeReply::Busy(self.string()),
            4 => ServeReply::Err(self.string()),
            5 => ServeReply::Cells(self.cells()),
            6 => ServeReply::ShardedRows {
                rows: self.rows(),
                shards_pruned: self.u32(),
                shards_queried: self.u32(),
            },
            7 => ServeReply::Subscribed(SubId(self.u64())),
            _ => ServeReply::Notifications {
                items: self.vec(Gen::notification),
                next: self.u64(),
            },
        }
    }

    fn reply_head(&mut self, which: usize) -> ReplyHead {
        match which {
            0 => ReplyHead::Frames {
                epoch: self.u64(),
                count: self.u32(),
                leader_next_seq: self.u64(),
                retained_from: self.u64(),
            },
            1 => ReplyHead::Compacted {
                epoch: self.u64(),
                retained_from: self.u64(),
                leader_next_seq: self.u64(),
            },
            _ => ReplyHead::Snapshot(self.transfer()),
        }
    }

    fn store_manifest(&mut self) -> Manifest {
        // Ascending, non-overlapping entries; a delta chain only over a
        // base checkpoint.
        let mut lo = self.i64() >> 8;
        let segments = self.vec(|g| {
            let entry = SegmentEntry {
                lo,
                hi: lo + g.below(4) as i64,
                file: g.string(),
            };
            lo = entry.hi + 1 + g.below(4) as i64;
            entry
        });
        let checkpoint = self.opt(Gen::string);
        let checkpoint_deltas = match checkpoint {
            Some(_) => self.vec(Gen::string),
            None => Vec::new(),
        };
        Manifest {
            gen: self.u64(),
            lateness_seconds: self.i64(),
            segment_seconds: self.i64(),
            segments,
            checkpoint,
            checkpoint_deltas,
            wal: self.string(),
            wal_start_seq: self.u64(),
        }
    }

    fn tail_delta(&mut self) -> TailDelta {
        TailDelta {
            max_event_time: self.opt(|g| TimeId(g.i64())),
            sealed_before: self.i64(),
            records_ingested: self.u64(),
            segments_sealed: self.u64(),
            new_dead_letters: self.records(),
            changed_buffers: self.buffers(),
            removed_buffers: self.vec(Gen::i64),
        }
    }
}

/// Encodes `$v` (one CRC frame), decodes it back as `$ty` and checks the
/// round trip is exact (see the module docs).
macro_rules! assert_roundtrip {
    ($ty:ty, $v:expr) => {{
        let v: $ty = $v;
        let framed = v.encode();
        let payload = read_single_frame(&framed, "roundtrip").unwrap();
        let back = <$ty>::decode(payload, "roundtrip").unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{v:?}"));
        prop_assert!(back.encode() == framed, "re-encoding changed the bytes");
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    #[test]
    fn serve_requests_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for which in 0..ServeRequest::VARIANTS.len() {
            assert_roundtrip!(ServeRequest, g.serve_request(which));
        }
    }

    #[test]
    fn serve_replies_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for which in 0..ServeReply::VARIANTS.len() {
            assert_roundtrip!(ServeReply, g.serve_reply(which));
        }
    }

    #[test]
    fn repl_requests_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(Request, Request::Frames {
            from_seq: g.u64(),
            max: g.u32(),
            epoch: g.u64(),
        });
        assert_roundtrip!(Request, Request::Snapshot);
    }

    #[test]
    fn repl_reply_heads_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for which in 0..ReplyHead::VARIANTS.len() {
            assert_roundtrip!(ReplyHead, g.reply_head(which));
        }
    }

    #[test]
    fn snapshot_transfers_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(SnapshotTransfer, g.transfer());
    }

    #[test]
    fn grids_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(GridSpec, g.grid());
    }

    #[test]
    fn partitioner_specs_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for which in 0..PartitionerSpec::VARIANTS.len() {
            assert_roundtrip!(PartitionerSpec, g.spec(which));
        }
    }

    #[test]
    fn shard_manifests_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(ShardManifest, ShardManifest {
            epoch: g.u64(),
            spec: g.any_spec(),
        });
    }

    #[test]
    fn rebalance_journals_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(RebalanceJournal, RebalanceJournal {
            target_epoch: g.u64(),
            from: g.any_spec(),
            to: g.any_spec(),
        });
    }

    #[test]
    fn subscriptions_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(Subscription, g.subscription());
    }

    #[test]
    fn thresholds_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(Threshold, g.threshold());
    }

    #[test]
    fn notifications_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(Notification, g.notification());
    }

    #[test]
    fn store_manifests_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(Manifest, g.store_manifest());
    }

    #[test]
    fn segment_entries_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(SegmentEntry, SegmentEntry {
            lo: g.i64(),
            hi: g.i64(),
            file: g.string(),
        });
    }

    #[test]
    fn tail_deltas_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        assert_roundtrip!(TailDelta, g.tail_delta());
    }
}
