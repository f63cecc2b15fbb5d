//! A uniform grid index.
//!
//! Divides a bounding box into `cols × rows` equal cells; each item is
//! registered in every cell its rectangle overlaps. The structure behind
//! Meratnia & de By's "homogeneous spatial units" (paper §2), and the
//! per-query candidate filter of sample-semantics region evaluation in
//! `gisolap-core`: the qualifying geometry elements are inserted once per
//! query and every record position is stabbed with
//! [`GridIndex::cell_items`].

use std::sync::OnceLock;

use gisolap_geom::{BBox, Point};

/// A uniform grid over a bounding box, mapping cells to item ids.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: BBox,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    /// One `(cell, id)` pair per registration, in insertion order; cell
    /// `row * cols + col`.
    registrations: Vec<(usize, u32)>,
    /// The registrations grouped by cell, built by the first query after
    /// an insert — so a whole build costs a few allocations, not one per
    /// occupied cell.
    cells: OnceLock<Cells>,
    len: usize,
}

/// Cell `c`'s ids, in insertion order, are `ids[offsets[c]..offsets[c + 1]]`.
#[derive(Debug, Clone)]
struct Cells {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl GridIndex {
    /// Creates an empty grid of `cols × rows` cells over `bounds`.
    ///
    /// ```
    /// use gisolap_geom::BBox;
    /// use gisolap_index::GridIndex;
    ///
    /// let mut grid = GridIndex::new(BBox::new(0.0, 0.0, 8.0, 8.0), 4, 4);
    /// grid.insert(&BBox::new(1.0, 1.0, 1.5, 1.5), 7);
    /// assert_eq!(grid.candidates(&BBox::new(0.5, 0.5, 2.0, 2.0)), vec![7]);
    /// assert!(grid.candidates(&BBox::new(6.0, 6.0, 7.0, 7.0)).is_empty());
    /// ```
    ///
    /// # Panics
    /// Panics if `cols` or `rows` is zero or `bounds` is empty.
    pub fn new(bounds: BBox, cols: usize, rows: usize) -> GridIndex {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(!bounds.is_empty(), "grid bounds must be non-empty");
        GridIndex {
            bounds,
            cols,
            rows,
            cell_w: bounds.width() / cols as f64,
            cell_h: bounds.height() / rows as f64,
            registrations: Vec::new(),
            cells: OnceLock::new(),
            len: 0,
        }
    }

    /// Number of inserted items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    fn col_of(&self, x: f64) -> usize {
        if self.cell_w == 0.0 {
            return 0;
        }
        (((x - self.bounds.min_x) / self.cell_w) as isize).clamp(0, self.cols as isize - 1) as usize
    }

    fn row_of(&self, y: f64) -> usize {
        if self.cell_h == 0.0 {
            return 0;
        }
        (((y - self.bounds.min_y) / self.cell_h) as isize).clamp(0, self.rows as isize - 1) as usize
    }

    /// Cell range `(c0, r0, c1, r1)` overlapped by a rectangle (clamped to
    /// the grid).
    fn cell_range(&self, bbox: &BBox) -> (usize, usize, usize, usize) {
        (
            self.col_of(bbox.min_x),
            self.row_of(bbox.min_y),
            self.col_of(bbox.max_x),
            self.row_of(bbox.max_y),
        )
    }

    /// Registers item `id` under every cell overlapped by `bbox`.
    pub fn insert(&mut self, bbox: &BBox, id: u32) {
        let (c0, r0, c1, r1) = self.cell_range(bbox);
        for r in r0..=r1 {
            for c in c0..=c1 {
                self.registrations.push((r * self.cols + c, id));
            }
        }
        self.cells = OnceLock::new();
        self.len += 1;
    }

    /// The registrations grouped by cell (a counting sort, stable).
    fn cells(&self) -> &Cells {
        self.cells.get_or_init(|| {
            let mut offsets = vec![0; self.cols * self.rows + 1];
            for &(cell, _) in &self.registrations {
                offsets[cell + 1] += 1;
            }
            for c in 1..offsets.len() {
                offsets[c] += offsets[c - 1];
            }
            let mut next = offsets.clone();
            let mut ids = vec![0; self.registrations.len()];
            for &(cell, id) in &self.registrations {
                ids[next[cell]] = id;
                next[cell] += 1;
            }
            Cells { offsets, ids }
        })
    }

    fn cell(&self, index: usize) -> &[u32] {
        let cells = self.cells();
        &cells.ids[cells.offsets[index]..cells.offsets[index + 1]]
    }

    /// Candidate item ids for a rectangle query (superset of the true
    /// result; deduplicated, sorted).
    pub fn candidates(&self, query: &BBox) -> Vec<u32> {
        if !self.bounds.intersects(query) {
            return Vec::new();
        }
        let (c0, r0, c1, r1) = self.cell_range(query);
        let mut out = Vec::new();
        for r in r0..=r1 {
            for c in c0..=c1 {
                out.extend_from_slice(self.cell(r * self.cols + c));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidate item ids for a point query.
    pub fn candidates_at(&self, p: Point) -> Vec<u32> {
        self.candidates(&BBox::from_point(p))
    }

    /// The ids registered in the cell containing `p`, in insertion order —
    /// an allocation-free point stab. Points outside the bounds clamp to
    /// the nearest edge cell, as [`GridIndex::insert`] clamps items, and
    /// cell numbering is monotone in each coordinate, so the slice holds
    /// every inserted id whose bbox contains `p` (a superset; no bounds
    /// test is made).
    ///
    /// ```
    /// use gisolap_geom::{BBox, Point};
    /// use gisolap_index::GridIndex;
    ///
    /// let mut grid = GridIndex::new(BBox::new(0.0, 0.0, 8.0, 8.0), 4, 4);
    /// grid.insert(&BBox::new(0.0, 0.0, 3.0, 3.0), 0);
    /// grid.insert(&BBox::new(1.0, 1.0, 8.0, 8.0), 1);
    /// assert_eq!(grid.cell_items(Point::new(2.5, 2.5)), &[0, 1]);
    /// assert_eq!(grid.cell_items(Point::new(7.0, 7.0)), &[1]);
    /// ```
    pub fn cell_items(&self, p: Point) -> &[u32] {
        self.cell(self.row_of(p.y) * self.cols + self.col_of(p.x))
    }

    /// The bounding box of one cell.
    pub fn cell_bbox(&self, col: usize, row: usize) -> BBox {
        let x = self.bounds.min_x + col as f64 * self.cell_w;
        let y = self.bounds.min_y + row as f64 * self.cell_h;
        BBox::new(x, y, x + self.cell_w, y + self.cell_h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridIndex {
        GridIndex::new(BBox::new(0.0, 0.0, 10.0, 10.0), 5, 5)
    }

    #[test]
    fn insert_and_query_point_item() {
        let mut g = grid();
        g.insert(&BBox::from_point(Point::new(1.0, 1.0)), 7);
        assert_eq!(g.len(), 1);
        assert_eq!(g.candidates_at(Point::new(1.5, 1.5)), vec![7]);
        assert!(g.candidates_at(Point::new(9.0, 9.0)).is_empty());
    }

    #[test]
    fn spanning_item_registered_in_all_cells() {
        let mut g = grid();
        g.insert(&BBox::new(0.0, 0.0, 10.0, 0.1), 1); // bottom strip
                                                      // Appears in all 5 bottom cells…
        for col in 0..5 {
            let x = 1.0 + 2.0 * col as f64;
            assert_eq!(g.cell_items(Point::new(x, 0.05)), &[1]);
        }
        assert!(g.cell_items(Point::new(1.0, 3.0)).is_empty());
        // …and any bottom query finds it.
        assert_eq!(g.candidates(&BBox::new(7.0, 0.0, 8.0, 0.05)), vec![1]);
    }

    #[test]
    fn candidates_are_deduplicated() {
        let mut g = grid();
        g.insert(&BBox::new(0.0, 0.0, 10.0, 10.0), 3); // everywhere
        assert_eq!(g.candidates(&BBox::new(0.0, 0.0, 10.0, 10.0)), vec![3]);
    }

    #[test]
    fn out_of_bounds_handling() {
        let mut g = grid();
        // Items outside the bounds clamp to edge cells.
        g.insert(&BBox::new(20.0, 20.0, 21.0, 21.0), 9);
        assert_eq!(g.candidates(&BBox::new(9.9, 9.9, 30.0, 30.0)), vec![9]);
        // Query fully outside the grid bounds is empty.
        assert!(g.candidates(&BBox::new(-5.0, -5.0, -1.0, -1.0)).is_empty());
    }

    #[test]
    fn cell_bbox_tiles_the_bounds() {
        let g = grid();
        assert_eq!(g.cell_bbox(0, 0), BBox::new(0.0, 0.0, 2.0, 2.0));
        assert_eq!(g.cell_bbox(4, 4), BBox::new(8.0, 8.0, 10.0, 10.0));
        assert_eq!(g.shape(), (5, 5));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_panics() {
        GridIndex::new(BBox::new(0.0, 0.0, 1.0, 1.0), 0, 5);
    }
}
