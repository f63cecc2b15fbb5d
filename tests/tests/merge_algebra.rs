//! The merge algebra the sharded gather leans on, pinned as property
//! tests: absorbing partial cells into a [`DeltaCube`] is associative
//! (pre-folding a prefix and absorbing the fold equals absorbing the
//! parts one by one), order-independent across disjoint key sets (the
//! spatial-partitioner case), order-independent even on overlapping
//! keys when measure sums are exactly representable (the
//! hash-partitioner case on lattice data), and [`Segment::merged`] is
//! indifferent to merge nesting (one-shot k-way equals pairwise
//! chaining) — the compaction invariant.
//!
//! The cube itself is model-checked: [`ModelCube`] is the ordered-map
//! implementation `DeltaCube` had before it became a sorted run, kept
//! here as the reference every absorb outcome, cell and rollup row must
//! match bit for bit.

use gisolap_datagen::movers::SkewedFleet;
use gisolap_geom::BBox;
use gisolap_olap::agg::{AggFn, Partial};
use gisolap_olap::time::{TimeDimension, TimeId, TimeLevel};
use gisolap_shard::GridSpec;
use gisolap_stream::{
    AbsorbOutcome, CellPartial, DeltaCube, GroupKey, Measure, RollupQuery, Segment, StreamConfig,
    StreamIngest,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Deterministic pseudo-random cell lists (the proptest shim has no
/// `any::<T>()`; a splitmix-style counter covers the space). Values are
/// quarters — exactly representable, like quantized coordinates.
fn synth_cells(seed: u64, n: usize, keyspace: u64) -> Vec<(GroupKey, CellPartial)> {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 27)
    };
    let mut cells: Vec<(GroupKey, CellPartial)> = (0..n)
        .map(|_| {
            let hour = (next() % keyspace) as i64;
            let geo = if next() % 4 == 0 {
                None
            } else {
                Some((next() % 8) as u32)
            };
            let k = next() % 100 + 1;
            let v = (next() % 4_000) as f64 / 4.0 - 500.0;
            let w = (next() % 4_000) as f64 / 4.0 - 500.0;
            (
                (hour, geo),
                CellPartial {
                    x: Partial::from_raw(k, v * k as f64, v.min(w), v.max(w)),
                    y: Partial::from_raw(k, w * k as f64, v.min(w), v.max(w)),
                },
            )
        })
        .collect();
    cells.sort_by_key(|(k, _)| *k);
    cells.dedup_by_key(|(k, _)| *k);
    cells
}

const AGGS: [AggFn; 5] = [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max];

/// Every level a rollup accepts, the three non-monotone ones included.
const LEVELS: [TimeLevel; 8] = [
    TimeLevel::Hour,
    TimeLevel::Day,
    TimeLevel::Month,
    TimeLevel::Year,
    TimeLevel::TimeOfDayLevel,
    TimeLevel::DayOfWeekLevel,
    TimeLevel::TypeOfDayLevel,
    TimeLevel::All,
];

/// 1999-12-30 00:00 in hours since the epoch: a few dozen hours from
/// here cross a day, a month, a year and a weekend.
const BASE_HOUR: i64 = 10_955 * 24;

/// The reference model: `DeltaCube` as it was when it kept its cells in
/// an ordered map — one map insert per absorbed entry, one per folded
/// cell. Deliberately not sharing a line with the sorted-run code.
#[derive(Default)]
struct ModelCube {
    cells: BTreeMap<GroupKey, CellPartial>,
}

impl ModelCube {
    fn absorb(&mut self, partials: &[(GroupKey, CellPartial)]) -> AbsorbOutcome {
        let mut created = 0u64;
        for (key, cell) in partials {
            if !self.cells.contains_key(key) {
                created += 1;
            }
            self.cells.entry(*key).or_default().merge(cell);
        }
        AbsorbOutcome {
            merged: partials.len() as u64 - created,
            created,
        }
    }

    fn rollup(&self, q: &RollupQuery, tail: &BTreeMap<GroupKey, CellPartial>) -> Vec<RowBits> {
        let td = TimeDimension::new();
        let mut groups: BTreeMap<(i64, Option<u32>), Partial> = BTreeMap::new();
        for (&(hour, geo), cell) in self.cells.iter().chain(tail.iter()) {
            let start = hour * 3600;
            if q.between
                .is_some_and(|(a, b)| start + 3599 < a.0 || start > b.0)
            {
                continue;
            }
            let granule = td.granule(TimeId(start), q.level);
            groups
                .entry((granule, geo))
                .or_default()
                .merge(cell.measure(q.measure));
        }
        groups
            .into_iter()
            .filter_map(|((granule, geo), p)| Some((granule, geo, p.eval(q.f)?.to_bits())))
            .collect()
    }
}

type RowBits = (i64, Option<u32>, u64);
type PartialBits = (u64, u64, u64, u64);

fn partial_bits(p: &Partial) -> PartialBits {
    (
        p.count(),
        p.sum().to_bits(),
        p.min().to_bits(),
        p.max().to_bits(),
    )
}

fn cell_bits<'a>(
    cells: impl Iterator<Item = (&'a GroupKey, &'a CellPartial)>,
) -> Vec<(GroupKey, PartialBits, PartialBits)> {
    cells
        .map(|(k, c)| (*k, partial_bits(&c.x), partial_bits(&c.y)))
        .collect()
}

/// Cell lists whose floats make every merge order visible: full-mantissa
/// values over forty binades (no two association orders sum alike), the
/// odd `-0.0` (which merging into an empty cell turns into `+0.0`), keys
/// drawn from a small space so lists overlap, in arbitrary order with
/// repeats.
fn messy_cells(seed: u64, n: usize, hours: u64) -> Vec<(GroupKey, CellPartial)> {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7);
    let mut next = move || {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 27)
    };
    (0..n)
        .map(|_| {
            let hour = BASE_HOUR + (next() % hours) as i64;
            let geo = (next() % 5 != 0).then(|| (next() % 6) as u32);
            let mut value = || match next() % 16 {
                0 => -0.0,
                _ => {
                    let mantissa = (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                    mantissa * 2f64.powi((next() % 41) as i32 - 20)
                }
            };
            let (v, w) = (value(), value());
            let k = next() % 9 + 1;
            (
                (hour, geo),
                CellPartial {
                    x: Partial::from_raw(k, v, v.min(w), v.max(w)),
                    y: Partial::from_raw(k, w, v.min(w), v.max(w)),
                },
            )
        })
        .collect()
}

fn cube_of(lists: &[Vec<(GroupKey, CellPartial)>]) -> DeltaCube {
    let mut cube = DeltaCube::new();
    for l in lists {
        cube.absorb(l);
    }
    cube
}

fn cube_cells(cube: &DeltaCube) -> Vec<(GroupKey, CellPartial)> {
    cube.cells().map(|(k, c)| (*k, *c)).collect()
}

/// Bitwise comparison of every rollup a cube can answer — stricter than
/// comparing the cells (it exercises the fold path too).
fn all_rollup_bits(cube: &DeltaCube) -> Vec<(i64, Option<u32>, u64)> {
    let mut out = Vec::new();
    for f in AGGS {
        for measure in [Measure::X, Measure::Y] {
            let q = RollupQuery::new(TimeLevel::Hour, measure, f);
            out.extend(
                cube.rollup(&q, &BTreeMap::new())
                    .unwrap()
                    .into_iter()
                    .map(|r| (r.granule, r.geo, r.value.to_bits())),
            );
        }
    }
    out
}

proptest! {
    /// Associativity: absorb(a); absorb(b); absorb(c) equals absorbing
    /// the folded (a+b) and then c — re-grouping never changes bits,
    /// because the per-key sums are accumulated left-to-right either
    /// way.
    #[test]
    fn absorb_is_associative(seed in 0u64..400, n in 0usize..24) {
        let a = synth_cells(seed, n, 16);
        let b = synth_cells(seed ^ 0xABCD, n, 16);
        let c = synth_cells(seed ^ 0x1234, n, 16);

        let sequential = cube_of(&[a.clone(), b.clone(), c.clone()]);
        let prefolded = cube_of(&[cube_cells(&cube_of(&[a, b])), c]);

        prop_assert_eq!(cube_cells(&sequential), cube_cells(&prefolded));
        prop_assert_eq!(all_rollup_bits(&sequential), all_rollup_bits(&prefolded));
    }

    /// Disjoint key sets (spatial partitioner): absorb order is
    /// irrelevant, bit for bit, because no key ever merges twice.
    #[test]
    fn absorb_order_irrelevant_on_disjoint_keys(seed in 0u64..400, n in 0usize..24) {
        // Distinct hour bands make the key sets provably disjoint.
        let shards: Vec<Vec<(GroupKey, CellPartial)>> = (0..4u64)
            .map(|s| {
                synth_cells(seed ^ s, n, 8)
                    .into_iter()
                    .map(|((h, g), c)| ((h + 100 * s as i64, g), c))
                    .collect()
            })
            .collect();
        let forward = cube_of(&shards);
        let mut reversed = shards.clone();
        reversed.reverse();
        let backward = cube_of(&reversed);
        // A rotated order, too.
        let mut rotated = shards;
        rotated.rotate_left(1);
        let rotated = cube_of(&rotated);

        prop_assert_eq!(cube_cells(&forward), cube_cells(&backward));
        prop_assert_eq!(cube_cells(&forward), cube_cells(&rotated));
        prop_assert_eq!(all_rollup_bits(&forward), all_rollup_bits(&backward));
    }

    /// Overlapping keys (hash partitioner): with exactly-representable
    /// values (quarters), per-key addition is exact, so even the merge
    /// order across shards washes out.
    #[test]
    fn absorb_order_irrelevant_on_lattice_values(seed in 0u64..400, n in 1usize..24) {
        let a = synth_cells(seed, n, 6);
        let b = synth_cells(seed ^ 0x5555, n, 6);
        let c = synth_cells(seed ^ 0xAAAA, n, 6);
        let forward = cube_of(&[a.clone(), b.clone(), c.clone()]);
        let backward = cube_of(&[c, b, a]);
        prop_assert_eq!(all_rollup_bits(&forward), all_rollup_bits(&backward));
    }

    /// The sorted-run cube against the ordered-map model: any number of
    /// runs — ascending, ascending with repeated keys, or in arbitrary
    /// order; empty; overlapping earlier runs or appending past them —
    /// leaves the same outcome counts and the same cells, and every
    /// rollup (all levels, with and without a window, over an empty
    /// tail, a later one and one colliding with the cube) yields the
    /// same rows, all compared as bits.
    #[test]
    fn sorted_run_cube_matches_the_map_model(seed in 0u64..100_000, runs in 0usize..7) {
        let mut cube = DeltaCube::new();
        let mut model = ModelCube::default();
        let mut absorbed = 0u64;
        for i in 0..runs as u64 {
            let shape = seed.rotate_left(7 * i as u32 + 3);
            // Later runs drift upward, so some append and some interleave.
            let mut run = messy_cells(seed ^ i, (shape % 40) as usize, 30);
            run.iter_mut().for_each(|(k, _)| k.0 += (shape >> 8) as i64 % 3 * 12 * i as i64);
            match (shape >> 16) % 3 {
                0 => {}
                1 => run.sort_by_key(|(k, _)| *k),
                _ => {
                    run.sort_by_key(|(k, _)| *k);
                    run.dedup_by_key(|(k, _)| *k);
                }
            }
            prop_assert_eq!(cube.absorb(&run), model.absorb(&run));
            absorbed += run.len() as u64;
            prop_assert_eq!(cell_bits(cube.cells()), cell_bits(model.cells.iter()));
        }
        prop_assert_eq!(cube.len(), model.cells.len());
        prop_assert_eq!(cube.is_empty(), model.cells.is_empty());
        prop_assert_eq!(cube.merges(), absorbed);

        let tail: BTreeMap<GroupKey, CellPartial> =
            messy_cells(seed ^ 0x7A11, 1 + (seed % 12) as usize, 80).into_iter().collect();
        let window = (
            TimeId((BASE_HOUR + 9) * 3600 + (seed % 3600) as i64),
            TimeId((BASE_HOUR + 40) * 3600 - 1),
        );
        // A tail that restarts inside the cube's last hour: the fold must
        // not take it for the continuation of that hour's run.
        let colliding: BTreeMap<GroupKey, CellPartial> =
            cube_cells(&cube).into_iter().rev().take(3).collect();
        for level in LEVELS {
            for f in AGGS {
                for measure in [Measure::X, Measure::Y] {
                    let whole = RollupQuery::new(level, measure, f);
                    for q in [whole, whole.between(window.0, window.1)] {
                        for tail in [&BTreeMap::new(), &tail, &colliding] {
                            let got: Vec<RowBits> = cube
                                .rollup(&q, tail)
                                .unwrap()
                                .into_iter()
                                .map(|r| (r.granule, r.geo, r.value.to_bits()))
                                .collect();
                            prop_assert_eq!(got, model.rollup(&q, tail), "{:?}", q);
                        }
                    }
                }
            }
        }
        for level in [TimeLevel::TimeId, TimeLevel::Minute] {
            let q = RollupQuery::new(level, Measure::X, AggFn::Sum);
            prop_assert!(cube.rollup(&q, &tail).is_err());
        }
    }

    /// `Segment::merged` nesting: merging `[s0, s1, s2, s3]` in one
    /// k-way pass equals merging pairwise left-to-right — records,
    /// partials and summaries all bit-identical. Compaction may batch
    /// however it likes.
    #[test]
    fn segment_merge_nesting_is_irrelevant(seed in 0u64..200) {
        let segments = sealed_segments(seed);
        // 48 quarter-hour samples span 12 hours → 12 hour-partitions.
        prop_assert!(segments.len() >= 3);

        let one_shot = Segment::merged(&segments).unwrap();
        let mut acc = Segment::merged(&segments[..1]).unwrap();
        for s in &segments[1..] {
            let pair = [acc, clone_segment(s)];
            acc = Segment::merged(&pair).unwrap();
        }

        prop_assert_eq!(one_shot.meta(), acc.meta());
        prop_assert_eq!(one_shot.records(), acc.records());
        prop_assert_eq!(one_shot.partials(), acc.partials());
    }
}

/// Seals a skewed fleet into hour segments and hands them back,
/// ascending by partition.
fn sealed_segments(seed: u64) -> Vec<Segment> {
    let area = BBox::new(0.0, 0.0, 32.0, 32.0);
    let hot = BBox::new(2.0, 2.0, 10.0, 10.0);
    let fleet = SkewedFleet {
        seed,
        objects: 4 + (seed % 4) as usize,
        samples_per_object: 48,
        ..SkewedFleet::new(area, hot, 0)
    };
    let grid = GridSpec::new(area, 4, 4).unwrap();
    let mut ingest = StreamIngest::new(StreamConfig::new(0, 3600).unwrap())
        .unwrap()
        .with_resolver(grid.resolver());
    ingest.ingest(fleet.generate(0).records());
    ingest.finish();
    ingest
        .segments()
        .iter()
        .map(|s| {
            Segment::from_parts(
                s.meta().partition,
                s.records().to_vec(),
                s.partials().to_vec(),
            )
            .unwrap()
        })
        .collect()
}

fn clone_segment(s: &Segment) -> Segment {
    Segment::from_parts(
        s.meta().partition,
        s.records().to_vec(),
        s.partials().to_vec(),
    )
    .unwrap()
}
