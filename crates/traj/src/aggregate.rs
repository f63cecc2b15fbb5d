//! Trajectory aggregation over homogeneous spatial units.
//!
//! The paper's Section 2 discusses Meratnia & de By's approach to
//! aggregating trajectories: "dividing the area of study into homogeneous
//! spatial units; each unit is associated to an integer, representing the
//! number of times any object passes through it. Based on this, they
//! obtain the aggregated trajectories … insensitive to differences in
//! sequence length and sampling intervals."
//!
//! [`FlowGrid`] implements that scheme over the linear-interpolation
//! trajectories of a MOFT: per grid cell it accumulates how many distinct
//! objects pass through (insensitive to sampling density, because the
//! *interpolated* path is rasterized, not the samples) and how many
//! traversal events occur. [`FlowGrid::corridor`]
//! extracts the aggregated-trajectory cells above a support threshold.

use std::collections::HashSet;

use gisolap_geom::{BBox, Point};

use crate::moft::Moft;

/// A uniform grid accumulating trajectory traversals.
#[derive(Debug, Clone)]
pub struct FlowGrid {
    bounds: BBox,
    cols: usize,
    rows: usize,
    /// Distinct objects that traversed each cell.
    object_counts: Vec<u32>,
    /// Total traversal events (an object re-entering counts again).
    visit_counts: Vec<u32>,
}

impl FlowGrid {
    /// Creates an empty grid of `cols × rows` cells over `bounds`.
    ///
    /// # Panics
    /// Panics on a zero-dimension grid or empty bounds.
    pub fn new(bounds: BBox, cols: usize, rows: usize) -> FlowGrid {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(!bounds.is_empty(), "grid bounds must be non-empty");
        FlowGrid {
            bounds,
            cols,
            rows,
            object_counts: vec![0; cols * rows],
            visit_counts: vec![0; cols * rows],
        }
    }

    /// Aggregates every trajectory of a MOFT.
    pub fn aggregate(bounds: BBox, cols: usize, rows: usize, moft: &Moft) -> FlowGrid {
        let mut grid = FlowGrid::new(bounds, cols, rows);
        for oid in moft.objects() {
            if let Ok(lit) = moft.trajectory(oid) {
                grid.add_trajectory(&lit);
            }
        }
        grid
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    fn cell_of(&self, p: Point) -> Option<usize> {
        if !self.bounds.contains(p) {
            return None;
        }
        let cw = self.bounds.width() / self.cols as f64;
        let ch = self.bounds.height() / self.rows as f64;
        let col = (((p.x - self.bounds.min_x) / cw) as usize).min(self.cols - 1);
        let row = (((p.y - self.bounds.min_y) / ch) as usize).min(self.rows - 1);
        Some(row * self.cols + col)
    }

    /// Rasterizes one trajectory into the grid.
    ///
    /// The interpolated path is walked at half-cell resolution; each cell
    /// the path touches gets one *object* count (deduplicated per
    /// trajectory) and a *visit* per maximal entry.
    pub(crate) fn add_trajectory(&mut self, lit: &crate::trajectory::Lit) {
        let cw = self.bounds.width() / self.cols as f64;
        let ch = self.bounds.height() / self.rows as f64;
        let step = (cw.min(ch)) * 0.5;
        let mut touched: HashSet<usize> = HashSet::new();
        let mut last_cell: Option<usize> = None;
        for leg in lit.segments() {
            let len = leg.seg.length();
            let steps = (len / step).ceil().max(1.0) as usize;
            for k in 0..=steps {
                let p = leg.seg.point_at(k as f64 / steps as f64);
                let Some(cell) = self.cell_of(p) else {
                    last_cell = None;
                    continue;
                };
                if touched.insert(cell) {
                    self.object_counts[cell] += 1;
                }
                if last_cell != Some(cell) {
                    self.visit_counts[cell] += 1;
                    last_cell = Some(cell);
                }
            }
        }
        // Single-point trajectories still register presence.
        if lit.sample().len() == 1 {
            if let Some(cell) = self.cell_of(lit.sample().points()[0].pos) {
                if touched.insert(cell) {
                    self.object_counts[cell] += 1;
                    self.visit_counts[cell] += 1;
                }
            }
        }
    }

    /// Distinct-object count of a cell.
    pub fn object_count(&self, col: usize, row: usize) -> u32 {
        self.object_counts[row * self.cols + col]
    }

    /// Traversal-event count of a cell.
    pub fn visit_count(&self, col: usize, row: usize) -> u32 {
        self.visit_counts[row * self.cols + col]
    }

    /// The busiest cell: `(col, row, object_count)`.
    pub fn hotspot(&self) -> Option<(usize, usize, u32)> {
        let (idx, &max) = self
            .object_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)?;
        if max == 0 {
            return None;
        }
        Some((idx % self.cols, idx / self.cols, max))
    }

    /// The aggregated-trajectory *corridor*: cells whose object count
    /// reaches `min_support`, as `(col, row)` pairs in row-major order.
    pub fn corridor(&self, min_support: u32) -> Vec<(usize, usize)> {
        self.object_counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= min_support)
            .map(|(i, _)| (i % self.cols, i / self.cols))
            .collect()
    }

    /// Total traversed-cell count (cells with any traffic).
    pub fn occupied_cells(&self) -> usize {
        self.object_counts.iter().filter(|&&c| c > 0).count()
    }

    /// An ASCII heat map (rows top-down). Cells are scaled to the busiest
    /// cell: `·` empty, then digits 1–9 proportional to the maximum.
    pub fn render(&self) -> String {
        let max = self.object_counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for row in (0..self.rows).rev() {
            for col in 0..self.cols {
                let c = self.object_count(col, row);
                if c == 0 {
                    out.push('·');
                } else {
                    let level = 1 + (c as u64 * 8 / max as u64) as u8;
                    out.push(char::from(b'0' + level.min(9)));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moft::ObjectId;
    use gisolap_olap::time::TimeId;

    fn bounds() -> BBox {
        BBox::new(0.0, 0.0, 100.0, 100.0)
    }

    fn straight_moft(oid: u64, y: f64) -> Moft {
        Moft::from_tuples([(oid, 0, 5.0, y), (oid, 100, 95.0, y)])
    }

    #[test]
    fn straight_path_marks_one_row() {
        let grid = FlowGrid::aggregate(bounds(), 10, 10, &straight_moft(1, 15.0));
        // y = 15 is row 1; the path spans columns 0..=9.
        for col in 0..10 {
            assert_eq!(grid.object_count(col, 1), 1, "col {col}");
        }
        assert_eq!(grid.occupied_cells(), 10);
    }

    #[test]
    fn counts_are_per_object_not_per_sample() {
        // The same route sampled densely and sparsely must count equally
        // — the "insensitive to sampling intervals" property.
        let sparse = straight_moft(1, 15.0);
        let mut dense = Moft::new();
        for k in 0..=90 {
            dense.push(ObjectId(2), TimeId(k), 5.0 + k as f64, 15.0);
        }
        dense.rebuild_index();

        let g_sparse = FlowGrid::aggregate(bounds(), 10, 10, &sparse);
        let g_dense = FlowGrid::aggregate(bounds(), 10, 10, &dense);
        for col in 0..10 {
            assert_eq!(
                g_sparse.object_count(col, 1),
                g_dense.object_count(col, 1),
                "col {col}"
            );
        }
    }

    #[test]
    fn two_objects_same_corridor() {
        let mut moft = straight_moft(1, 15.0);
        moft.merge(&straight_moft(2, 15.0));
        let grid = FlowGrid::aggregate(bounds(), 10, 10, &moft);
        assert_eq!(grid.object_count(5, 1), 2);
        assert_eq!(grid.hotspot().unwrap().2, 2);
        // The corridor at support 2 is exactly the shared row.
        let corridor = grid.corridor(2);
        assert_eq!(corridor.len(), 10);
        assert!(corridor.iter().all(|&(_, row)| row == 1));
        // Support 3 finds nothing.
        assert!(grid.corridor(3).is_empty());
    }

    #[test]
    fn revisits_count_as_visits_not_objects() {
        // Out and back: the object passes each cell twice.
        let moft =
            Moft::from_tuples([(1, 0, 5.0, 15.0), (1, 100, 95.0, 15.0), (1, 200, 5.0, 15.0)]);
        let grid = FlowGrid::aggregate(bounds(), 10, 10, &moft);
        assert_eq!(grid.object_count(5, 1), 1);
        assert!(grid.visit_count(5, 1) >= 2);
    }

    #[test]
    fn outside_paths_ignored() {
        let moft = Moft::from_tuples([(1, 0, -50.0, -50.0), (1, 100, -10.0, -10.0)]);
        let grid = FlowGrid::aggregate(bounds(), 10, 10, &moft);
        assert_eq!(grid.occupied_cells(), 0);
        assert!(grid.hotspot().is_none());
    }

    #[test]
    fn single_point_presence() {
        let moft = Moft::from_tuples([(1, 0, 55.0, 55.0)]);
        let grid = FlowGrid::aggregate(bounds(), 10, 10, &moft);
        assert_eq!(grid.object_count(5, 5), 1);
        assert_eq!(grid.occupied_cells(), 1);
    }

    #[test]
    fn render_shape() {
        let grid = FlowGrid::aggregate(bounds(), 10, 10, &straight_moft(1, 15.0));
        let art = grid.render();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines.iter().all(|l| l.chars().count() == 10));
        // The traversed row (second from the bottom) renders at full
        // intensity (it is the maximum), the rest stays empty.
        assert_eq!(lines[8], "9999999999");
        assert_eq!(lines[0], "··········");
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_grid_panics() {
        FlowGrid::new(bounds(), 0, 10);
    }
}
