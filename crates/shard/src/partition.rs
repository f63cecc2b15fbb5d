//! Partitioners: how the MOFT splits across shard stores.
//!
//! Two strategies, behind one [`Partitioner`] trait:
//!
//! * [`HashPartitioner`] — route by a stable mix of the object id.
//!   Perfectly balanced under any spatial distribution, but a
//!   geometric region filter cannot exclude any shard (every shard may
//!   hold every cell).
//! * [`SpatialPartitioner`] — route by the overlay grid cell under the
//!   record's position, assigning contiguous cell-id ranges to shards.
//!   Every `(hour, geo)` cell lives wholly in one shard, which makes
//!   the gather merge a pure concatenation (bit-identical for *all*
//!   aggregates), and lets a region filter prune whole shards before
//!   any store is touched.

use std::ops::Range;
use std::sync::Arc;

use gisolap_geom::{BBox, Point};
use gisolap_store::{Result, StoreError};
use gisolap_stream::{CellPartial, GeoResolver, GroupKey};
use gisolap_traj::Record;

/// A uniform `nx × ny` overlay grid over a bounding box — both the
/// geometry resolver shards ingest with (one cell id per point,
/// row-major, positions clamped into the box) and the pruning map a
/// coordinator filters with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Covered area; positions outside are clamped to the border cells.
    pub bbox: BBox,
    /// Columns.
    pub nx: u32,
    /// Rows.
    pub ny: u32,
}

impl GridSpec {
    /// A validated grid: at least one cell, a box of positive, finite
    /// width and height.
    pub fn new(bbox: BBox, nx: u32, ny: u32) -> Result<GridSpec> {
        if nx == 0 || ny == 0 {
            return Err(StoreError::BadConfig(format!(
                "grid must have at least one cell, got {nx}x{ny}"
            )));
        }
        // Cell ids are u32; an overflowing product would wrap `cells()`
        // (decoded manifests can carry arbitrary dimensions).
        if nx as u64 * ny as u64 > u32::MAX as u64 {
            return Err(StoreError::BadConfig(format!(
                "grid {nx}x{ny} exceeds the u32 cell-id space"
            )));
        }
        // `> 0.0` fails for NaN extents too, which must be rejected. A
        // finite extent keeps every cell bound finite and monotone in
        // its index, which the region ranges rely on.
        let extent = |v: f64| v > 0.0 && v.is_finite();
        if bbox.is_empty() || !extent(bbox.width()) || !extent(bbox.height()) {
            return Err(StoreError::BadConfig(
                "grid bbox must have positive, finite area".to_string(),
            ));
        }
        Ok(GridSpec { bbox, nx, ny })
    }

    /// Total cell count.
    pub fn cells(&self) -> u32 {
        self.nx * self.ny
    }

    /// The cell id under `p` (row-major; out-of-box positions clamp to
    /// the nearest border cell, so every point has exactly one cell).
    pub fn cell_of(&self, p: Point) -> u32 {
        let fx = (p.x - self.bbox.min_x) / self.bbox.width() * self.nx as f64;
        let fy = (p.y - self.bbox.min_y) / self.bbox.height() * self.ny as f64;
        // `as u32` truncates toward zero and saturates (NaN → 0), which
        // for a clamped index is `floor().max(0.0)` without the `floor`
        // call.
        let ix = (fx as u32).min(self.nx - 1);
        let iy = (fy as u32).min(self.ny - 1);
        iy * self.nx + ix
    }

    /// The area cell `id` covers (`id` must be `< cells()`).
    pub fn cell_bbox(&self, id: u32) -> BBox {
        debug_assert!(id < self.cells(), "cell id out of range");
        let ix = (id % self.nx) as f64;
        let iy = (id / self.nx) as f64;
        let w = self.bbox.width() / self.nx as f64;
        let h = self.bbox.height() / self.ny as f64;
        BBox::new(
            self.bbox.min_x + ix * w,
            self.bbox.min_y + iy * h,
            self.bbox.min_x + (ix + 1.0) * w,
            self.bbox.min_y + (iy + 1.0) * h,
        )
    }

    /// The columns and rows whose closed cell areas intersect `region`:
    /// a cell intersects it iff its column and its row both do. Each
    /// cell bound in [`GridSpec::cell_bbox`] is monotone in its index,
    /// so on each axis the cells starting at or below the region's
    /// maximum are a prefix and those ending at or above its minimum a
    /// suffix; two binary searches per axis find them, with the same
    /// float expressions `cell_bbox` evaluates.
    fn region_ranges(&self, region: &BBox) -> (Range<u32>, Range<u32>) {
        let axis = |n: u32, min: f64, extent: f64, lo: f64, hi: f64| {
            let step = extent / n as f64;
            let starts_by_hi = |i: u32| min + i as f64 * step <= hi;
            let ends_from_lo = |i: u32| lo <= min + (i as f64 + 1.0) * step;
            let start = first_false(n, |i| !ends_from_lo(i));
            start..first_false(n, starts_by_hi).max(start)
        };
        let b = &self.bbox;
        (
            axis(self.nx, b.min_x, b.width(), region.min_x, region.max_x),
            axis(self.ny, b.min_y, b.height(), region.min_y, region.max_y),
        )
    }

    /// Cell ids whose closed area intersects `region`, ascending.
    pub fn cells_intersecting(&self, region: &BBox) -> Vec<u32> {
        let (cols, rows) = self.region_ranges(region);
        let nx = self.nx;
        rows.flat_map(|iy| cols.clone().map(move |ix| iy * nx + ix))
            .collect()
    }

    /// The region test of a `region`-filtered query: it keeps a cell key
    /// iff the key has a geo id whose closed cell area intersects
    /// `region`. Cells with no geo id are dropped — they carry positions
    /// the grid never resolved, which a grid-filtered query must not
    /// see. Built once per call from [`GridSpec::region_ranges`], so it
    /// costs the same whatever the grid's size. The ids from the first
    /// kept cell to the last are exactly those in the kept rows, so only
    /// they need their column computed.
    pub(crate) fn region_test(&self, region: &BBox) -> impl Fn(GroupKey) -> bool {
        let (cols, rows) = self.region_ranges(region);
        let nx = self.nx;
        let ids = if rows.is_empty() || cols.is_empty() {
            0..0
        } else {
            rows.start * nx + cols.start..(rows.end - 1) * nx + cols.end
        };
        move |(_, geo)| geo.is_some_and(|g| ids.contains(&g) && cols.contains(&(g % nx)))
    }

    /// A [`GeoResolver`] assigning every position its single grid cell.
    pub fn resolver(&self) -> GeoResolver {
        let spec = *self;
        Arc::new(move |p: Point, out: &mut Vec<u32>| out.push(spec.cell_of(p)))
    }

    /// Drops cells that cannot contribute to a `region`-filtered query:
    /// keeps exactly the cells [`GridSpec::region_test`] admits.
    pub(crate) fn filter_cells(
        &self,
        cells: Vec<(GroupKey, CellPartial)>,
        region: &BBox,
    ) -> Vec<(GroupKey, CellPartial)> {
        let keep = self.region_test(region);
        cells.into_iter().filter(|(key, _)| keep(*key)).collect()
    }
}

/// The first index in `0..n` at which `holds` is false; `holds` must be
/// true on a prefix of `0..n` and false on the rest.
fn first_false(n: u32, holds: impl Fn(u32) -> bool) -> u32 {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// How records route to shards, and which shards a region filter can
/// rule out before any store I/O.
pub trait Partitioner: Send + Sync {
    /// Number of shards this partitioner routes across.
    fn shards(&self) -> usize;

    /// The shard `r` belongs to (`< shards()`).
    fn route(&self, r: &Record) -> usize;

    /// Shards that may hold cells intersecting `region`, ascending —
    /// or `None` when this strategy cannot exclude any shard.
    fn prune(&self, region: &BBox) -> Option<Vec<usize>>;

    /// The overlay grid shards ingest with, if any.
    fn grid(&self) -> Option<GridSpec>;

    /// Whether distinct shards are guaranteed disjoint `(hour, geo)`
    /// key sets — when true, the gather merge is a concatenation and
    /// sharded evaluation is bit-identical for every aggregate.
    fn cells_disjoint(&self) -> bool;

    /// The serializable description of this partitioner.
    fn spec(&self) -> PartitionerSpec;
}

/// A stable 64-bit mix (splitmix64 finalizer) — the routing hash must
/// never depend on `std` hasher internals, or a cluster written by one
/// toolchain would route differently under another.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash-by-object-id routing. An optional [`GridSpec`] gives every
/// shard the same geometry resolver, so region-*filtered* queries work
/// (cell-level filtering); region *pruning* is impossible — any object
/// may wander anywhere, so every shard may hold every cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashPartitioner {
    shards: usize,
    grid: Option<GridSpec>,
}

impl HashPartitioner {
    /// A hash partitioner over `shards` stores (`shards ≥ 1`).
    pub fn new(shards: usize, grid: Option<GridSpec>) -> Result<HashPartitioner> {
        if shards == 0 {
            return Err(StoreError::BadConfig(
                "a cluster needs at least one shard".to_string(),
            ));
        }
        Ok(HashPartitioner { shards, grid })
    }
}

impl Partitioner for HashPartitioner {
    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, r: &Record) -> usize {
        (mix64(r.oid.0) % self.shards as u64) as usize
    }

    fn prune(&self, _region: &BBox) -> Option<Vec<usize>> {
        None
    }

    fn grid(&self) -> Option<GridSpec> {
        self.grid
    }

    fn cells_disjoint(&self) -> bool {
        false
    }

    fn spec(&self) -> PartitionerSpec {
        PartitionerSpec::Hash {
            shards: self.shards as u32,
            grid: self.grid,
        }
    }
}

/// Spatial routing by overlay grid cell: cell ids split into contiguous
/// ranges, one per shard, so a compact region maps to few shards and a
/// selective filter prunes the rest outright.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialPartitioner {
    shards: usize,
    grid: GridSpec,
}

impl SpatialPartitioner {
    /// A spatial partitioner over `shards` stores (`1 ≤ shards ≤`
    /// grid cells — an empty shard range would never receive a record).
    pub fn new(shards: usize, grid: GridSpec) -> Result<SpatialPartitioner> {
        if shards == 0 {
            return Err(StoreError::BadConfig(
                "a cluster needs at least one shard".to_string(),
            ));
        }
        if shards as u64 > grid.cells() as u64 {
            return Err(StoreError::BadConfig(format!(
                "{shards} shards over a {} cell grid leaves shards unroutable",
                grid.cells()
            )));
        }
        Ok(SpatialPartitioner { shards, grid })
    }

    /// The shard owning grid cell `id` (contiguous range assignment —
    /// monotone in the cell id, so nearby rows land together).
    pub fn shard_of_cell(&self, id: u32) -> usize {
        ((id as u64 * self.shards as u64) / self.grid.cells() as u64) as usize
    }
}

impl Partitioner for SpatialPartitioner {
    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, r: &Record) -> usize {
        self.shard_of_cell(self.grid.cell_of(r.pos()))
    }

    fn prune(&self, region: &BBox) -> Option<Vec<usize>> {
        let mut shards: Vec<usize> = self
            .grid
            .cells_intersecting(region)
            .into_iter()
            .map(|c| self.shard_of_cell(c))
            .collect();
        shards.dedup(); // already ascending: shard_of_cell is monotone
        Some(shards)
    }

    fn grid(&self) -> Option<GridSpec> {
        Some(self.grid)
    }

    fn cells_disjoint(&self) -> bool {
        true
    }

    fn spec(&self) -> PartitionerSpec {
        PartitionerSpec::Spatial {
            shards: self.shards as u32,
            grid: self.grid,
        }
    }
}

/// The serializable description of a partitioner — what the cluster
/// manifest persists, and what [`PartitionerSpec::build`] turns back
/// into a live [`Partitioner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionerSpec {
    /// Hash-by-oid across `shards` stores; `grid`, when present, is
    /// the resolver every shard ingests with.
    Hash {
        /// Shard count.
        shards: u32,
        /// Optional shared overlay grid (resolver only, no pruning).
        grid: Option<GridSpec>,
    },
    /// Route by overlay cell, contiguous cell ranges per shard.
    Spatial {
        /// Shard count.
        shards: u32,
        /// The overlay grid (resolver *and* pruning map).
        grid: GridSpec,
    },
}

impl PartitionerSpec {
    /// Shard count of the described cluster.
    pub fn shards(&self) -> usize {
        match self {
            PartitionerSpec::Hash { shards, .. } | PartitionerSpec::Spatial { shards, .. } => {
                *shards as usize
            }
        }
    }

    /// The overlay grid, if the spec carries one.
    pub fn grid(&self) -> Option<GridSpec> {
        match self {
            PartitionerSpec::Hash { grid, .. } => *grid,
            PartitionerSpec::Spatial { grid, .. } => Some(*grid),
        }
    }

    /// Builds the live partitioner this spec describes.
    pub fn build(&self) -> Result<Box<dyn Partitioner>> {
        Ok(match *self {
            PartitionerSpec::Hash { shards, grid } => {
                Box::new(HashPartitioner::new(shards as usize, grid)?)
            }
            PartitionerSpec::Spatial { shards, grid } => {
                Box::new(SpatialPartitioner::new(shards as usize, grid)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_olap::time::TimeId;
    use gisolap_traj::ObjectId;
    use proptest::prelude::*;

    fn rec(oid: u64, x: f64, y: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(0),
            x,
            y,
        }
    }

    fn grid() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 8.0, 4.0), 8, 4).unwrap()
    }

    #[test]
    fn grid_cells_partition_the_box() {
        let g = grid();
        assert_eq!(g.cells(), 32);
        assert_eq!(g.cell_of(Point::new(0.5, 0.5)), 0);
        assert_eq!(g.cell_of(Point::new(7.5, 0.5)), 7);
        assert_eq!(g.cell_of(Point::new(0.5, 3.5)), 24);
        // Clamping: outside positions land in border cells.
        assert_eq!(g.cell_of(Point::new(-10.0, -10.0)), 0);
        assert_eq!(g.cell_of(Point::new(100.0, 100.0)), 31);
        // The max corner belongs to the last cell, not cell nx*ny.
        assert_eq!(g.cell_of(Point::new(8.0, 4.0)), 31);
        // Just below the box, infinite and NaN coordinates clamp too.
        assert_eq!(g.cell_of(Point::new(-0.01, 3.5)), 24);
        assert_eq!(g.cell_of(Point::new(f64::INFINITY, f64::NEG_INFINITY)), 7);
        assert_eq!(g.cell_of(Point::new(f64::NAN, f64::NAN)), 0);
        // Every cell's bbox contains its own center.
        for id in 0..g.cells() {
            assert_eq!(g.cell_of(g.cell_bbox(id).center()), id);
        }
    }

    #[test]
    fn resolver_returns_exactly_one_cell() {
        let g = grid();
        let r = g.resolver();
        // It appends to whatever the buffer holds.
        let mut out = vec![7];
        r(Point::new(3.3, 1.1), &mut out);
        assert_eq!(out, vec![7, g.cell_of(Point::new(3.3, 1.1))]);
    }

    #[test]
    fn spatial_routing_and_pruning_agree() {
        let p = SpatialPartitioner::new(4, grid()).unwrap();
        // Routing covers every shard index and nothing more.
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..p.grid.cells() {
            let s = p.shard_of_cell(id);
            assert!(s < 4);
            seen.insert(s);
        }
        assert_eq!(seen.len(), 4);
        // A query region only ever touches the shards pruning returns.
        let region = BBox::new(0.2, 0.2, 1.8, 1.8);
        let keep = p.prune(&region).unwrap();
        for cell in p.grid.cells_intersecting(&region) {
            assert!(keep.contains(&p.shard_of_cell(cell)));
        }
        assert!(keep.len() < 4, "a selective region must prune shards");
    }

    #[test]
    fn hash_routing_is_stable_and_never_prunes() {
        let p = HashPartitioner::new(4, None).unwrap();
        for oid in 0..100 {
            let s = p.route(&rec(oid, 1.0, 1.0));
            assert!(s < 4);
            // Position-independent.
            assert_eq!(s, p.route(&rec(oid, 7.9, 3.9)));
        }
        assert!(p.prune(&BBox::new(0.0, 0.0, 1.0, 1.0)).is_none());
    }

    #[test]
    fn specs_roundtrip_through_build() {
        let specs = [
            PartitionerSpec::Hash {
                shards: 3,
                grid: Some(grid()),
            },
            PartitionerSpec::Hash {
                shards: 1,
                grid: None,
            },
            PartitionerSpec::Spatial {
                shards: 4,
                grid: grid(),
            },
        ];
        for spec in specs {
            assert_eq!(spec.build().unwrap().spec(), spec);
        }
        assert!(PartitionerSpec::Hash {
            shards: 0,
            grid: None
        }
        .build()
        .is_err());
        assert!(PartitionerSpec::Spatial {
            shards: 64,
            grid: GridSpec::new(BBox::new(0.0, 0.0, 1.0, 1.0), 2, 2).unwrap(),
        }
        .build()
        .is_err());
    }

    /// A deterministic stream of `u64`s from a seed (splitmix64).
    fn stream(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix64(seed)
        }
    }

    /// A region shaped by `kind` from `next`'s draws: zero-width, on cell
    /// borders, outside the box, random, NaN-bounded or inverted.
    fn region_of(g: &GridSpec, kind: u64, next: &mut impl FnMut() -> u64) -> BBox {
        let b = g.bbox;
        let mut coord = |lo: f64, hi: f64| lo + (next() % 1_000_001) as f64 / 1e6 * (hi - lo);
        let (pad_w, pad_h) = (b.width() / 4.0, b.height() / 4.0);
        let (x0, x1) = (
            coord(b.min_x - pad_w, b.max_x + pad_w),
            coord(b.min_x - pad_w, b.max_x + pad_w),
        );
        let (y0, y1) = (
            coord(b.min_y - pad_h, b.max_y + pad_h),
            coord(b.min_y - pad_h, b.max_y + pad_h),
        );
        let border =
            |next: &mut dyn FnMut() -> u64| g.cell_bbox((next() % g.cells() as u64) as u32);
        let raw = |min_x, min_y, max_x, max_y| BBox {
            min_x,
            min_y,
            max_x,
            max_y,
        };
        match kind % 7 {
            0 => BBox::new(x0, y0, x0, y1.max(y0)),
            1 => {
                let (c, d) = (border(&mut *next), border(&mut *next));
                raw(
                    c.min_x.min(d.max_x),
                    c.max_y.min(d.min_y),
                    c.min_x.max(d.max_x),
                    c.max_y.max(d.min_y),
                )
            }
            2 => BBox::new(b.max_x + 1.0, b.min_y, b.max_x + 2.0 + x0.abs(), b.max_y),
            3 => raw(f64::NAN, y0.min(y1), x0.max(x1), y0.max(y1)),
            4 => raw(x0.max(x1), y0.min(y1), x0.min(x1), y0.max(y1)),
            _ => BBox::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)),
        }
    }

    /// Checks the region test and `cells_intersecting` against the
    /// per-cell formula on every id of `ids`.
    fn agrees_on(
        g: &GridSpec,
        region: &BBox,
        ids: impl Iterator<Item = u32>,
    ) -> std::result::Result<(), TestCaseError> {
        let keep = g.region_test(region);
        let listed = g.cells_intersecting(region);
        prop_assert!(listed.windows(2).all(|w| w[0] < w[1]));
        for id in ids {
            let want = g.cell_bbox(id).intersects(region);
            prop_assert_eq!(
                keep((0, Some(id))),
                want,
                "cell {} of {:?} in {:?}",
                id,
                g,
                region
            );
            prop_assert_eq!(
                listed.binary_search(&id).is_ok(),
                want,
                "listed cell {}",
                id
            );
        }
        prop_assert!(!keep((0, None)));
        prop_assert!(!keep((0, Some(g.cells()))) || g.cells() == u32::MAX);
        Ok(())
    }

    proptest! {
        /// The range-derived region test and cell list equal the
        /// per-cell formula: every cell of small grids, and the cells
        /// around the ranges' ends plus random ones of huge grids.
        #[test]
        fn region_ranges_match_the_per_cell_formula(seed in 0u64..1_000_000) {
            let mut next = stream(seed);
            let min_x = (next() % 2001) as f64 / 8.0 - 125.0;
            let min_y = -((next() % 997) as f64) / 3.0;
            let (w, h) = (0.001 + (next() % 10_000) as f64 / 7.0, 0.001 + (next() % 10_000) as f64 / 9.0);
            let bbox = BBox::new(min_x, min_y, min_x + w, min_y + h);
            let huge = next() % 4 == 0;
            let (nx, ny) = if huge {
                (1 + (next() % 65_535) as u32, 1 + (next() % 65_535) as u32)
            } else {
                (1 + (next() % 40) as u32, 1 + (next() % 40) as u32)
            };
            let g = GridSpec::new(bbox, nx, ny.min(u32::MAX / nx)).unwrap();
            for kind in 0..7 {
                let region = region_of(&g, kind, &mut next);
                if !huge {
                    agrees_on(&g, &region, 0..g.cells())?;
                    continue;
                }
                // Huge: the ids beside every range end, and random ones.
                let (cols, rows) = g.region_ranges(&region);
                let near = |r: &Range<u32>, n: u32| {
                    [r.start, r.end].into_iter()
                        .flat_map(|e| [e.saturating_sub(1), e, e + 1])
                        .filter(move |&i| i < n)
                        .collect::<Vec<_>>()
                };
                let (cs, rs) = (near(&cols, g.nx), near(&rows, g.ny));
                let edges: Vec<u32> = rs.iter().flat_map(|&iy| cs.iter().map(move |&ix| iy * g.nx + ix)).collect();
                let random: Vec<u32> = (0..64).map(|_| (next() % g.cells() as u64) as u32).collect();
                let keep = g.region_test(&region);
                for id in edges.into_iter().chain(random) {
                    prop_assert_eq!(keep((0, Some(id))), g.cell_bbox(id).intersects(&region), "cell {} of {:?} in {:?}", id, g, region);
                }
            }
        }
    }

    #[test]
    fn filter_cells_keeps_only_intersecting_geo() {
        let g = grid();
        let region = BBox::new(0.1, 0.1, 0.9, 0.9); // inside cell 0
        let cells = vec![
            ((0i64, Some(0u32)), CellPartial::default()),
            ((0i64, Some(17u32)), CellPartial::default()),
            ((0i64, None), CellPartial::default()),
        ];
        let kept = g.filter_cells(cells, &region);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].0, (0, Some(0)));
    }
}
