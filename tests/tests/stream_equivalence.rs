//! Property tests: streaming ingest is bit-identical to batch evaluation.
//!
//! A MOFT replayed as out-of-order batches (bounded shuffle ≤ the
//! ingester's lateness) must produce, for every aggregate function and
//! Time-hierarchy level, exactly the same rollup bits as the same records
//! ingested as one sorted batch — before *and* after sealing everything —
//! and the assembled snapshot must equal the batch-built MOFT. A random
//! schedule of ingests, `finish` calls and reads must read, after every
//! step, exactly what a fresh pipeline fed the same prefix reads: the
//! cached tail cells are never stale. The cell kernel, through the tail
//! cache and through sealing, equals a `BTreeMap` reference bucketing.

use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{stream_batches, CityConfig, CityScenario, ReplayConfig};
use gisolap_olap::agg::{AggFn, Partial};
use gisolap_olap::time::{TimeDimension, TimeLevel};
use gisolap_stream::{
    CellPartial, GeoResolver, GroupKey, Measure, RollupQuery, StreamConfig, StreamIngest,
};
use gisolap_tests::cell_bits;
use gisolap_traj::{Moft, ObjectId, Record};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const FNS: [AggFn; 5] = [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max];
const LEVELS: [TimeLevel; 3] = [TimeLevel::Hour, TimeLevel::Day, TimeLevel::Month];
const MEASURES: [Measure; 2] = [Measure::X, Measure::Y];

/// A rollup result with f64s made exactly comparable.
fn rollup_bits(ingest: &StreamIngest, q: &RollupQuery) -> Vec<(i64, Option<u32>, u64)> {
    ingest
        .rollup(q)
        .unwrap()
        .into_iter()
        .map(|row| (row.granule, row.geo, row.value.to_bits()))
        .collect()
}

fn random_moft(seed: u64, objects: usize, samples: usize) -> Moft {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 3,
        blocks_y: 2,
        seed,
        ..CityConfig::default()
    });
    RandomWaypoint {
        seed: seed.wrapping_add(1),
        ..RandomWaypoint::new(city.bbox, objects, samples)
    }
    .generate(0)
}

/// Independent hour-level reference: group by hour with a fresh
/// [`Partial`] pushed in `(oid, t)` order — the canonical accumulation
/// order the streaming pipeline promises — and evaluate.
fn hour_reference(moft: &Moft, measure: Measure, f: AggFn) -> Vec<(i64, Option<u32>, u64)> {
    let td = TimeDimension::hours();
    let mut groups: BTreeMap<i64, Partial> = BTreeMap::new();
    for r in moft.records() {
        groups.entry(td.hour(r.t)).or_default().push(measure.of(r));
    }
    groups
        .into_iter()
        .filter_map(|(h, p)| p.eval(f).map(|v| (h, None, v.to_bits())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stream_rollups_are_bit_identical_to_batch(
        seed in 0u64..1000,
        shuffle in 0i64..=900,
        batch_size in 1usize..64,
        segment_hours in 1i64..4,
    ) {
        let moft = random_moft(seed, 8, 24);
        let config = StreamConfig::new(shuffle, segment_hours * 3600).unwrap();

        // Streamed: bounded shuffle within the configured lateness.
        let batches = stream_batches(&moft, &ReplayConfig {
            shuffle_seconds: shuffle,
            batch_size,
            seed: seed.wrapping_add(17),
        });
        let mut streamed = StreamIngest::new(config).unwrap();
        for b in &batches {
            streamed.ingest(b);
        }
        prop_assert!(
            streamed.dead_letters().is_empty(),
            "shuffle bounded by lateness must never dead-letter"
        );

        // Batch twin: everything in one sorted batch.
        let mut batch = StreamIngest::new(config).unwrap();
        batch.ingest(moft.records());
        prop_assert!(batch.dead_letters().is_empty());

        // Every AGG × level × measure agrees bitwise, with the streamed
        // side answering from sealed partials + live tail, both before
        // and after force-sealing the tail.
        for f in FNS {
            for level in LEVELS {
                for measure in MEASURES {
                    let q = RollupQuery::new(level, measure, f);
                    let live = rollup_bits(&streamed, &q);
                    prop_assert_eq!(
                        &live, &rollup_bits(&batch, &q),
                        "live vs batch: {:?} {:?} {:?}", f, level, measure
                    );
                    if level == TimeLevel::Hour {
                        prop_assert_eq!(
                            &live, &hour_reference(&moft, measure, f),
                            "vs independent reference: {:?} {:?}", f, measure
                        );
                    }
                }
            }
        }

        // Sealing the tail must not change a single bit.
        let q = RollupQuery::new(TimeLevel::Day, Measure::X, AggFn::Sum);
        let before = rollup_bits(&streamed, &q);
        streamed.finish();
        prop_assert_eq!(streamed.tail_len(), 0);
        prop_assert_eq!(rollup_bits(&streamed, &q), before);
        for f in FNS {
            for level in LEVELS {
                for measure in MEASURES {
                    let q = RollupQuery::new(level, measure, f);
                    prop_assert_eq!(
                        rollup_bits(&streamed, &q),
                        rollup_bits(&batch, &q),
                        "sealed vs batch: {:?} {:?} {:?}", f, level, measure
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_moft_equals_batch_moft(
        seed in 0u64..1000,
        shuffle in 0i64..=600,
        batch_size in 1usize..48,
    ) {
        let moft = random_moft(seed.wrapping_add(7), 6, 20);
        let batches = stream_batches(&moft, &ReplayConfig {
            shuffle_seconds: shuffle,
            batch_size,
            seed: seed.wrapping_add(23),
        });
        let mut ingest =
            StreamIngest::new(StreamConfig::new(shuffle, 3600).unwrap()).unwrap();
        for b in &batches {
            ingest.ingest(b);
        }
        let snapshot = ingest.snapshot().unwrap();
        prop_assert_eq!(snapshot.moft().records(), moft.records());

        // The snapshot answers rollups identically to the live ingester.
        for level in LEVELS {
            let q = RollupQuery::new(level, Measure::Y, AggFn::Avg);
            let a = snapshot.rollup(&q).unwrap();
            let b = ingest.rollup(&q).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn windowed_rollups_agree(seed in 0u64..500) {
        let moft = random_moft(seed.wrapping_add(3), 6, 18);
        let records = moft.records();
        let (lo, hi) = (records[0].t, records[records.len() - 1].t);
        let mid = gisolap_olap::time::TimeId((lo.0 + hi.0) / 2);
        let batches = stream_batches(&moft, &ReplayConfig::default());

        let mut streamed =
            StreamIngest::new(StreamConfig::new(300, 3600).unwrap()).unwrap();
        for b in &batches {
            streamed.ingest(b);
        }
        let mut batch =
            StreamIngest::new(StreamConfig::new(300, 3600).unwrap()).unwrap();
        batch.ingest(records);

        for f in FNS {
            let q = RollupQuery::new(TimeLevel::Hour, Measure::X, f).between(lo, mid);
            prop_assert_eq!(
                rollup_bits(&streamed, &q),
                rollup_bits(&batch, &q),
                "windowed: {:?}", f
            );
        }
    }
}

#[test]
fn count_rollup_matches_record_census() {
    // COUNT at every level equals a plain integer census of the table —
    // an anchor entirely outside the Partial/DeltaCube machinery.
    let moft = random_moft(99, 7, 30);
    let mut ingest = StreamIngest::new(StreamConfig::new(0, 3600).unwrap()).unwrap();
    ingest.ingest(moft.records());
    ingest.finish();

    let td = TimeDimension::hours();
    for level in LEVELS {
        let mut census: BTreeMap<i64, u64> = BTreeMap::new();
        for r in moft.records() {
            *census.entry(td.granule(r.t, level)).or_default() += 1;
        }
        let rows = ingest
            .rollup(&RollupQuery::new(level, Measure::X, AggFn::Count))
            .unwrap();
        let got: BTreeMap<i64, u64> = rows
            .into_iter()
            .map(|row| (row.granule, row.value as u64))
            .collect();
        assert_eq!(got, census, "{level:?}");
    }
}

/// One step of a random pipeline schedule.
#[derive(Debug, Clone)]
enum Step {
    Ingest(Vec<Record>),
    Finish,
    /// Reads only, starting with read kind `first` (so every kind is
    /// sometimes the one that fills the tail cache).
    Read {
        first: usize,
    },
}

/// A deterministic schedule from `seed`: batches over a small key space
/// (so `(oid, t)` keys are re-sent with new values), spanning hours
/// around a short lateness (so some records arrive late), with full-
/// mantissa coordinates (so every accumulation order shows in the bits).
fn schedule(seed: u64) -> Vec<Step> {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(11);
    let mut next = move || {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let steps = 4 + next() % 12;
    let mut hour_base = 0i64;
    (0..steps)
        .map(|_| match next() % 8 {
            0 => Step::Finish,
            1 | 2 => Step::Read {
                first: (next() % 4) as usize,
            },
            _ => {
                // Mostly forward in time, sometimes back past the frontier.
                hour_base = (hour_base + (next() % 3) as i64 - 1).max(0);
                let n = 1 + next() % 24;
                let batch = (0..n)
                    .map(|_| Record {
                        oid: ObjectId(next() % 4),
                        t: gisolap_olap::time::TimeId(hour_base * 3600 + (next() % 90) as i64 * 60),
                        x: (next() >> 11) as f64 / (1u64 << 40) as f64 - 4096.0,
                        y: (next() >> 11) as f64 / (1u64 << 44) as f64,
                    })
                    .collect();
                Step::Ingest(batch)
            }
        })
        .collect()
}

/// Zero, one or two geometry ids per position, so tail cells exercise
/// the unresolved bucket and multi-geometry fan-out.
fn resolver() -> GeoResolver {
    Arc::new(|p, out: &mut Vec<u32>| match (p.x.abs() as u64) % 3 {
        0 => {}
        1 => out.push((p.y as u64 % 5) as u32),
        _ => out.extend([2, (p.y as u64 % 3) as u32]),
    })
}

fn pipeline() -> StreamIngest {
    StreamIngest::new(StreamConfig::new(900, 3600).unwrap())
        .unwrap()
        .with_resolver(resolver())
}

/// Applies one step's mutation, if it has one.
fn apply(ingest: &mut StreamIngest, step: &Step) {
    match step {
        Step::Ingest(batch) => {
            ingest.ingest(batch);
        }
        Step::Finish => {
            ingest.finish();
        }
        Step::Read { .. } => {}
    }
}

/// A fresh pipeline fed `steps`, never read.
fn replay(steps: &[Step]) -> StreamIngest {
    let mut fresh = pipeline();
    for step in steps {
        apply(&mut fresh, step);
    }
    fresh
}

/// A key predicate keeping about half the cells, unevenly.
fn odd_cells((hour, geo): GroupKey) -> bool {
    (hour + i64::from(geo.unwrap_or(7))) % 2 == 1
}

/// Everything one read kind returns, in comparable form.
fn read(ingest: &StreamIngest, kind: usize) -> String {
    match kind {
        0 => format!("{:?}", cell_bits(&ingest.extract_partials())),
        1 => {
            let mut out = Vec::new();
            for (level, f) in [(TimeLevel::Hour, AggFn::Sum), (TimeLevel::Day, AggFn::Min)] {
                out.extend(rollup_bits(ingest, &RollupQuery::new(level, Measure::X, f)));
                out.extend(rollup_bits(
                    ingest,
                    &RollupQuery::new(level, Measure::Y, AggFn::Avg),
                ));
            }
            format!("{out:?}")
        }
        2 => {
            let snap = ingest.snapshot().unwrap();
            let q = RollupQuery::new(TimeLevel::Day, Measure::Y, AggFn::Sum);
            let rows: Vec<_> = (snap.rollup(&q).unwrap().iter())
                .map(|r| (r.granule, r.geo, r.value.to_bits()))
                .collect();
            let records: Vec<_> = (snap.moft().records().iter())
                .map(|r| (r.oid, r.t, r.x.to_bits(), r.y.to_bits()))
                .collect();
            format!("{records:?} {} {rows:?}", snap.tail_len())
        }
        _ => format!("{:?}", cell_bits(&ingest.partials_where(odd_cells))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// After every step of a random schedule, each read of the live
    /// pipeline (whose tail cells are cached across reads) is bit-
    /// identical to the same read of a fresh pipeline fed the same
    /// prefix; `partials_where` equals the filtered `extract_partials`;
    /// and a repeated read of an unchanged tail buckets nothing.
    #[test]
    fn cached_tail_reads_match_a_fresh_pipeline(seed in 0u64..1_000_000) {
        let steps = schedule(seed);
        let mut live = pipeline();
        for (i, step) in steps.iter().enumerate() {
            apply(&mut live, step);
            let prefix = &steps[..=i];
            let first = match step {
                Step::Read { first } => *first,
                _ => i % 4,
            };
            for kind in (0..4).map(|k| (first + k) % 4) {
                // The fresh side buckets from scratch on every read.
                let want = read(&replay(prefix), kind);
                prop_assert_eq!(read(&live, kind), want, "seed {} step {} read {}", seed, i, kind);
            }
            let mut filtered = replay(prefix).extract_partials();
            filtered.retain(|(key, _)| odd_cells(*key));
            prop_assert_eq!(
                cell_bits(&live.partials_where(odd_cells)),
                cell_bits(&filtered)
            );
            let scanned = live.stats().tail_records_scanned;
            read(&live, 0);
            read(&live, 1);
            prop_assert_eq!(live.stats().tail_records_scanned, scanned, "unchanged tail");
        }
    }
}

/// Ids with every shape the cell kernel must normalise: none, one,
/// several unsorted, and repeats; 9 and 265 share a slot of the kernel's
/// memo of recent keys.
fn scatter_resolver() -> GeoResolver {
    Arc::new(|p, out: &mut Vec<u32>| {
        let k = (p.x.abs() as u64) ^ ((p.y.abs() as u64) << 3);
        match k % 4 {
            0 => {}
            1 => out.push((k % 7) as u32),
            2 => out.extend([(k % 5) as u32 + 3, 1, (k % 5) as u32 + 3]),
            _ => out.extend([9, 2, 265, 6]),
        }
    })
}

/// Arrival-ordered records over few objects and times, so `(oid, t)`
/// keys repeat with other coordinates; some coordinates are NaN, and
/// some records lie 256 hours later (another hour sharing memo slots).
fn kernel_records(seed: u64, hours: i64) -> Vec<Record> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let n = 1 + next() % 300;
    (0..n)
        .map(|_| {
            let coord = |v: u64| match v % 23 {
                0 => f64::NAN,
                _ => (v >> 8) as f64 / (1u64 << 50) as f64 - 20.0,
            };
            Record {
                oid: ObjectId(next() % 9),
                t: gisolap_olap::time::TimeId(
                    (next() % (hours as u64 * 12)) as i64 * 300
                        + (next() % 8 / 7) as i64 * 256 * 3600,
                ),
                x: coord(next()),
                y: coord(next()),
            }
        })
        .collect()
}

/// The reference cells: a stable sort by `(oid, t)` keeping each key's
/// last arrival, then one `BTreeMap` entry per record and geo id (sorted,
/// deduplicated; `None` when there are none), fed in that order.
fn reference_cells(
    raw: &[Record],
    resolver: Option<&GeoResolver>,
) -> (Vec<Record>, Vec<(GroupKey, CellPartial)>) {
    let mut sorted = raw.to_vec();
    sorted.sort_by_key(|r| (r.oid, r.t));
    let mut canonical: Vec<Record> = Vec::new();
    for r in sorted {
        match canonical.last_mut() {
            Some(last) if (last.oid, last.t) == (r.oid, r.t) => *last = r,
            _ => canonical.push(r),
        }
    }
    let mut cells: BTreeMap<GroupKey, CellPartial> = BTreeMap::new();
    for r in &canonical {
        let hour = r.t.0.div_euclid(3600);
        let mut ids = Vec::new();
        if let Some(resolve) = resolver {
            resolve(r.pos(), &mut ids);
        }
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            cells.entry((hour, None)).or_default().push(r);
        }
        for g in ids {
            cells.entry((hour, Some(g))).or_default().push(r);
        }
    }
    (canonical, cells.into_iter().collect())
}

fn record_bits(records: &[Record]) -> Vec<(ObjectId, i64, u64, u64)> {
    (records.iter())
        .map(|r| (r.oid, r.t.0, r.x.to_bits(), r.y.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// The cell kernel, through the live-tail cache and through sealing,
    /// equals the reference bucketing cell for cell by f64 bits — with
    /// and without a resolver, 1- and 2-hour partitions — and every
    /// sealed segment's records and summary equal the canonical
    /// reference of its partition.
    #[test]
    fn the_cell_kernel_matches_a_btreemap_reference(seed in 0u64..1_000_000) {
        for (segment_seconds, resolver) in [
            (3600, None),
            (3600, Some(scatter_resolver())),
            (7200, Some(scatter_resolver())),
            (7200, None),
        ] {
            let raw = kernel_records(seed ^ segment_seconds as u64, 5);
            let (_, want) = reference_cells(&raw, resolver.as_ref());
            // Lateness past the records' whole span: nothing dead-letters.
            let config = StreamConfig::new(300 * 3600, segment_seconds).unwrap();
            let mut ingest = StreamIngest::new(config).unwrap();
            if let Some(r) = &resolver {
                ingest = ingest.with_resolver(r.clone());
            }
            for batch in raw.chunks(1 + (seed % 40) as usize) {
                ingest.ingest(batch);
            }
            let label = format!("seed {seed} segment {segment_seconds} resolver {}", resolver.is_some());
            prop_assert_eq!(cell_bits(&ingest.extract_partials()), cell_bits(&want), "tail {}", &label);
            ingest.finish();
            prop_assert_eq!(cell_bits(&ingest.extract_partials()), cell_bits(&want), "sealed {}", &label);
            for segment in ingest.segments() {
                let partition = segment.meta().partition;
                let mine: Vec<Record> = (raw.iter())
                    .filter(|r| r.t.0.div_euclid(segment_seconds) == partition)
                    .copied()
                    .collect();
                let (records, cells) = reference_cells(&mine, resolver.as_ref());
                prop_assert_eq!(record_bits(segment.records()), record_bits(&records), "{}", &label);
                prop_assert_eq!(cell_bits(segment.partials()), cell_bits(&cells), "{}", &label);
                let meta = segment.meta();
                let objects = records.windows(2).filter(|w| w[0].oid != w[1].oid).count() + 1;
                prop_assert_eq!((meta.records, meta.objects), (records.len(), objects));
                prop_assert_eq!(meta.first, records.iter().map(|r| r.t).min().unwrap());
                prop_assert_eq!(meta.last, records.iter().map(|r| r.t).max().unwrap());
                let bbox = gisolap_geom::BBox::from_points(records.iter().map(Record::pos));
                prop_assert_eq!(format!("{:?}", meta.bbox), format!("{bbox:?}"));
                for (oid, track) in segment.objects().map(|o| (o, segment.track(o).unwrap())) {
                    prop_assert!(track.iter().all(|r| r.oid == oid));
                }
            }
        }
    }
}

/// The canonical order by definition: a stable `(oid, t)` comparison
/// sort, then each key's last arrival.
fn sort_by_then_last_arrival(raw: &[Record]) -> Vec<Record> {
    let mut sorted = raw.to_vec();
    sorted.sort_by(|a, b| a.oid.cmp(&b.oid).then(a.t.cmp(&b.t)));
    let mut out: Vec<Record> = Vec::with_capacity(sorted.len());
    for r in sorted {
        match out.last_mut() {
            Some(last) if (last.oid, last.t) == (r.oid, r.t) => *last = r,
            _ => out.push(r),
        }
    }
    out
}

/// `n` records whose arrival index is their x, with oids drawn by
/// `oid_mode` and times from `t0 + [0, t_span)` (or, for `t_span == 0`,
/// from the extremes of `i64`). Small spans repeat keys.
fn radix_records(seed: u64, n: usize, oid_mode: u8, t0: i64, t_span: i64) -> Vec<Record> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        s >> 17
    };
    (0..n)
        .map(|i| {
            let oid = match oid_mode {
                0 => 7,                             // a single object
                1 => next() % 5,                    // a few, many repeats
                2 => u64::MAX - next() % 300,       // high ids, small span
                _ => [0, u64::MAX, 1 << 40][i % 3], // a span no key fits
            };
            let t = if t_span == 0 {
                [i64::MIN, i64::MAX, 0, -1, i64::MIN + 1][(next() % 5) as usize]
            } else {
                t0 + (next() % t_span as u64) as i64
            };
            Record {
                oid: ObjectId(oid),
                t: gisolap_olap::time::TimeId(t),
                x: i as f64,
                y: next() as f64,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    /// The one canonical-order kernel (radix over packed keys, or the
    /// comparison sort it falls back to) equals `sort_by((oid, t))` plus
    /// last-arrival dedup, through `Moft::rebuild_index` and through
    /// sealing: duplicate keys, negative and extreme `t`, a single
    /// object, oid spans that force the fallback, sizes on both sides
    /// of either radix cutoff, and input already in order.
    #[test]
    fn the_canonical_order_kernel_matches_sort_by_and_last_arrival(
        seed in 0u64..1_000_000,
        size in 0usize..5,
        oid_mode in 0u8..4,
        t_mode in 0u8..4,
    ) {
        use gisolap_traj::canonical::{RADIX_MAX_RECORDS, RADIX_MIN_RECORDS};
        let n = match size {
            0 => (seed % 8) as usize,
            1 => RADIX_MIN_RECORDS - 2 + (seed % 4) as usize,
            2 => RADIX_MIN_RECORDS + (seed % 300) as usize,
            3 => 2_000 + (seed % 100) as usize,
            _ => RADIX_MAX_RECORDS - 1 + (seed % 3) as usize,
        };
        // One hour partition for sealing: negative, zero, or the last
        // whole hour before `i64::MAX`.
        let hour = [-5 * 3600, 0, i64::MAX.div_euclid(3600) * 3600 - 3600, 7 * 3600][t_mode as usize];
        let span = if t_mode == 3 { 40 } else { 3600 };
        let raw = radix_records(seed, n, oid_mode, hour, span);
        let want = record_bits(&sort_by_then_last_arrival(&raw));

        prop_assert_eq!(record_bits(Moft::from_records(raw.clone()).records()), want.clone());
        // Input already in `(oid, t)` order, repeated keys included,
        // skips the sort and still keeps each key's last arrival.
        let mut in_order = raw.clone();
        in_order.sort_by(|a, b| a.oid.cmp(&b.oid).then(a.t.cmp(&b.t)));
        prop_assert_eq!(record_bits(Moft::from_records(in_order).records()), want.clone());

        let mut ingest = StreamIngest::new(StreamConfig::new(0, 3600).unwrap()).unwrap();
        ingest.ingest(&raw);
        ingest.finish();
        let sealed: Vec<Record> = ingest.segments().iter().flat_map(|s| s.records().to_vec()).collect();
        prop_assert_eq!(ingest.segments().len(), usize::from(n > 0));
        prop_assert_eq!(record_bits(&sealed), want);

        // Times at the extremes of i64 (a span no key fits) and times
        // near them (a key that fits only by wrapping subtraction).
        for (t0, t_span) in [(0, 0), (i64::MIN, 50), (i64::MAX - 50, 50)] {
            let raw = radix_records(seed ^ 1, n, oid_mode, t0, t_span);
            let want = record_bits(&sort_by_then_last_arrival(&raw));
            prop_assert_eq!(record_bits(Moft::from_records(raw).records()), want);
        }
    }
}
