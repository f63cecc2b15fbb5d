//! Simple polygons with holes.
//!
//! Polygons are the geometry of the paper's neighborhood/city layers
//! (`Ln`, `Lc`). The model's assumption that "polygons intersect in
//! polylines or points" (Section 3) is exactly the *simple polygon*
//! assumption made here: rings do not self-intersect.

use crate::bbox::BBox;
use crate::point::Point;
use crate::predicates::{orient2d, point_on_segment, Orientation};
use crate::segment::{Segment, SegmentIntersection};
use crate::GeomError;

/// Where a point lies relative to a polygon or ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointLocation {
    /// Strictly inside.
    Inside,
    /// Exactly on the boundary.
    Boundary,
    /// Strictly outside.
    Outside,
}

/// A closed, simple ring of vertices (the polygon boundary primitive).
///
/// The ring is stored without a repeated closing vertex; the edge from the
/// last vertex back to the first is implicit. Vertex order is normalized to
/// counter-clockwise at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Ring {
    vertices: Vec<Point>,
}

impl Ring {
    /// Builds a ring from at least three distinct vertices.
    ///
    /// Consecutive duplicates (and a repeated closing vertex) are removed,
    /// collinear degeneracy of the *whole* ring is rejected, simplicity is
    /// verified (no two non-adjacent edges may touch), and orientation is
    /// normalized to counter-clockwise.
    pub fn new(mut vertices: Vec<Point>) -> crate::Result<Ring> {
        for v in &vertices {
            v.validate()?;
        }
        // Drop explicit closing vertex.
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        // Collapse consecutive duplicates (cyclically).
        let mut vs: Vec<Point> = Vec::with_capacity(vertices.len());
        for v in vertices {
            if vs.last() != Some(&v) {
                vs.push(v);
            }
        }
        while vs.len() >= 2 && vs.first() == vs.last() {
            vs.pop();
        }
        if vs.len() < 3 {
            return Err(GeomError::RingTooSmall { got: vs.len() });
        }

        let mut ring = Ring { vertices: vs };
        let area2 = ring.signed_area() * 2.0;
        if area2 == 0.0 {
            // All vertices collinear → not a polygon.
            return Err(GeomError::RingTooSmall {
                got: ring.vertices.len(),
            });
        }
        if area2 < 0.0 {
            ring.vertices.reverse();
        }
        if !ring.is_simple() {
            return Err(GeomError::NotSimple);
        }
        Ok(ring)
    }

    /// Builds a ring *without* the simplicity check. For internal use by
    /// the overlay, whose output rings are simple by construction.
    pub(crate) fn new_unchecked_ccw(vertices: Vec<Point>) -> Ring {
        let mut ring = Ring { vertices };
        if ring.signed_area() < 0.0 {
            ring.vertices.reverse();
        }
        ring
    }

    /// The vertices, in counter-clockwise order, without closing duplicate.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Iterator over the ring's edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area: positive because rings are normalized counter-clockwise.
    pub(crate) fn signed_area(&self) -> f64 {
        shoelace(&self.vertices)
    }

    /// Absolute enclosed area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Centroid of the enclosed region.
    pub fn centroid(&self) -> Point {
        let a = self.signed_area();
        if a == 0.0 {
            // Degenerate; average the vertices.
            let n = self.vertices.len() as f64;
            let (sx, sy) = self
                .vertices
                .iter()
                .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
            return Point::new(sx / n, sy / n);
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        let n = self.vertices.len();
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Bounding box.
    pub fn bbox(&self) -> BBox {
        BBox::from_points(self.vertices.iter().copied())
    }

    /// Locates a point relative to the ring (boundary-exact ray casting).
    pub fn locate(&self, p: Point) -> PointLocation {
        let n = self.vertices.len();
        // Boundary first, with the exact predicate.
        for i in 0..n {
            if point_on_segment(p, self.vertices[i], self.vertices[(i + 1) % n]) {
                return PointLocation::Boundary;
            }
        }
        // Crossing-number ray cast to +x, counting edges whose y-span
        // straddles p.y half-open so vertices are not double-counted.
        let mut inside = false;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if (a.y > p.y) != (b.y > p.y) {
                // Orientation decides which side of edge ab the point is on;
                // exact, so the crossing count is exact.
                let o = orient2d(a, b, p);
                let crosses_right = if b.y > a.y {
                    o == Orientation::CounterClockwise
                } else {
                    o == Orientation::Clockwise
                };
                if crosses_right {
                    inside = !inside;
                }
            }
        }
        if inside {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }

    /// `true` iff `p` is inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.locate(p) != PointLocation::Outside
    }

    /// Simplicity check: no two non-adjacent edges intersect, and adjacent
    /// edges share only their common vertex.
    pub(crate) fn is_simple(&self) -> bool {
        let edges: Vec<Segment> = self.edges().collect();
        let n = edges.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                match edges[i].intersect(&edges[j]) {
                    SegmentIntersection::None => {}
                    SegmentIntersection::Point(p) => {
                        if !adjacent {
                            return false;
                        }
                        // Adjacent edges must meet exactly at the shared vertex.
                        let shared = if j == i + 1 { edges[i].b } else { edges[i].a };
                        if p != shared {
                            return false;
                        }
                    }
                    SegmentIntersection::Overlap(..) => return false,
                }
            }
        }
        true
    }

    /// `true` iff every vertex makes a left turn (ring is convex).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        (0..n).all(|i| {
            orient2d(
                self.vertices[i],
                self.vertices[(i + 1) % n],
                self.vertices[(i + 2) % n],
            ) != Orientation::Clockwise
        })
    }
}

/// Shoelace formula over an open vertex list (implicit closing edge).
pub(crate) fn shoelace(vs: &[Point]) -> f64 {
    let n = vs.len();
    let mut acc = 0.0;
    for i in 0..n {
        let p = vs[i];
        let q = vs[(i + 1) % n];
        acc += p.x * q.y - q.x * p.y;
    }
    acc * 0.5
}

/// A simple polygon: one exterior ring and zero or more hole rings.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    exterior: Ring,
    holes: Vec<Ring>,
}

impl Polygon {
    /// Builds a polygon from an exterior ring and holes.
    ///
    /// Every hole must lie inside the exterior ring (vertex containment is
    /// checked; full containment is the caller's responsibility for exotic
    /// shapes).
    pub fn new(exterior: Ring, holes: Vec<Ring>) -> crate::Result<Polygon> {
        for h in &holes {
            if !h.vertices().iter().all(|&v| exterior.contains(v)) {
                return Err(GeomError::HoleOutsideExterior);
            }
        }
        Ok(Polygon { exterior, holes })
    }

    /// Convenience: a hole-free polygon from a vertex list.
    pub fn from_exterior(vertices: Vec<Point>) -> crate::Result<Polygon> {
        Ok(Polygon {
            exterior: Ring::new(vertices)?,
            holes: vec![],
        })
    }

    /// Axis-aligned rectangle polygon.
    pub fn rectangle(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Polygon {
        Polygon::from_exterior(vec![
            Point::new(min_x, min_y),
            Point::new(max_x, min_y),
            Point::new(max_x, max_y),
            Point::new(min_x, max_y),
        ])
        .expect("rectangle is a valid ring")
    }

    /// The exterior ring.
    #[inline]
    pub fn exterior(&self) -> &Ring {
        &self.exterior
    }

    /// The hole rings.
    #[inline]
    pub(crate) fn holes(&self) -> &[Ring] {
        &self.holes
    }

    /// Area = exterior area − hole areas.
    pub fn area(&self) -> f64 {
        self.exterior.area() - self.holes.iter().map(Ring::area).sum::<f64>()
    }

    /// Bounding box (of the exterior ring).
    pub fn bbox(&self) -> BBox {
        self.exterior.bbox()
    }

    /// Area-weighted centroid, accounting for holes.
    pub fn centroid(&self) -> Point {
        let ea = self.exterior.area();
        let ec = self.exterior.centroid();
        let mut wx = ec.x * ea;
        let mut wy = ec.y * ea;
        let mut w = ea;
        for h in &self.holes {
            let ha = h.area();
            let hc = h.centroid();
            wx -= hc.x * ha;
            wy -= hc.y * ha;
            w -= ha;
        }
        if w == 0.0 {
            ec
        } else {
            Point::new(wx / w, wy / w)
        }
    }

    /// Locates a point relative to the polygon, holes included.
    pub fn locate(&self, p: Point) -> PointLocation {
        match self.exterior.locate(p) {
            PointLocation::Outside => PointLocation::Outside,
            PointLocation::Boundary => PointLocation::Boundary,
            PointLocation::Inside => {
                for h in &self.holes {
                    match h.locate(p) {
                        PointLocation::Inside => return PointLocation::Outside,
                        PointLocation::Boundary => return PointLocation::Boundary,
                        PointLocation::Outside => {}
                    }
                }
                PointLocation::Inside
            }
        }
    }

    /// `true` iff `p` is inside or on the boundary.
    ///
    /// Boundary-inclusive, matching the paper's note that "a point may
    /// belong to more than one geometry … when a point belongs to two
    /// adjacent polygons" (Example 1).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.locate(p) != PointLocation::Outside
    }

    /// All rings (exterior first, then holes).
    pub(crate) fn rings(&self) -> impl Iterator<Item = &Ring> {
        std::iter::once(&self.exterior).chain(self.holes.iter())
    }

    /// Iterator over every boundary edge (exterior and holes).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        self.rings().flat_map(|r| r.edges().collect::<Vec<_>>())
    }

    /// `true` iff the segment shares at least one point with the polygon
    /// (interior or boundary).
    pub fn intersects_segment(&self, seg: &Segment) -> bool {
        if !self.bbox().intersects(&seg.bbox()) {
            return false;
        }
        if self.contains(seg.a) || self.contains(seg.b) {
            return true;
        }
        self.edges()
            .any(|e| e.intersect(seg) != SegmentIntersection::None)
    }

    /// `true` iff this polygon and `other` share at least one point.
    pub fn intersects_polygon(&self, other: &Polygon) -> bool {
        if !self.bbox().intersects(&other.bbox()) {
            return false;
        }
        // Any boundary crossing?
        if other.edges().any(|s| self.intersects_segment(&s)) {
            return true;
        }
        // One fully inside the other (pick any vertex)?
        self.contains(other.exterior.vertices()[0]) || other.contains(self.exterior.vertices()[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn unit_square() -> Polygon {
        Polygon::rectangle(0.0, 0.0, 1.0, 1.0)
    }

    fn square_with_hole() -> Polygon {
        let ext = Ring::new(vec![
            pt(0.0, 0.0),
            pt(10.0, 0.0),
            pt(10.0, 10.0),
            pt(0.0, 10.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![pt(4.0, 4.0), pt(6.0, 4.0), pt(6.0, 6.0), pt(4.0, 6.0)]).unwrap();
        Polygon::new(ext, vec![hole]).unwrap()
    }

    #[test]
    fn ring_construction_rules() {
        assert!(Ring::new(vec![pt(0.0, 0.0), pt(1.0, 0.0)]).is_err());
        // collinear
        assert!(Ring::new(vec![pt(0.0, 0.0), pt(1.0, 0.0), pt(2.0, 0.0)]).is_err());
        // closing duplicate removed
        let r = Ring::new(vec![pt(0.0, 0.0), pt(1.0, 0.0), pt(0.0, 1.0), pt(0.0, 0.0)]).unwrap();
        assert_eq!(r.vertices().len(), 3);
        // bowtie rejected
        assert!(Ring::new(vec![pt(0.0, 0.0), pt(2.0, 2.0), pt(2.0, 0.0), pt(0.0, 2.0)]).is_err());
    }

    #[test]
    fn ring_orientation_normalized() {
        // Clockwise input becomes counter-clockwise.
        let r = Ring::new(vec![pt(0.0, 0.0), pt(0.0, 1.0), pt(1.0, 1.0), pt(1.0, 0.0)]).unwrap();
        assert!(r.signed_area() > 0.0);
        assert_eq!(r.area(), 1.0);
    }

    #[test]
    fn ring_metrics() {
        let r = Ring::new(vec![pt(0.0, 0.0), pt(4.0, 0.0), pt(4.0, 3.0), pt(0.0, 3.0)]).unwrap();
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.centroid(), pt(2.0, 1.5));
        assert!(r.is_convex());
    }

    #[test]
    fn nonconvex_ring() {
        let r = Ring::new(vec![
            pt(0.0, 0.0),
            pt(4.0, 0.0),
            pt(4.0, 4.0),
            pt(2.0, 1.0), // reflex dent
            pt(0.0, 4.0),
        ])
        .unwrap();
        assert!(!r.is_convex());
        assert!(r.is_simple());
    }

    #[test]
    fn point_location_in_ring() {
        let r = Ring::new(vec![pt(0.0, 0.0), pt(4.0, 0.0), pt(4.0, 4.0), pt(0.0, 4.0)]).unwrap();
        assert_eq!(r.locate(pt(2.0, 2.0)), PointLocation::Inside);
        assert_eq!(r.locate(pt(4.0, 2.0)), PointLocation::Boundary);
        assert_eq!(r.locate(pt(0.0, 0.0)), PointLocation::Boundary);
        assert_eq!(r.locate(pt(5.0, 2.0)), PointLocation::Outside);
        // Ray through a vertex must not double count.
        assert_eq!(r.locate(pt(-1.0, 0.0)), PointLocation::Outside);
        assert_eq!(r.locate(pt(-1.0, 4.0)), PointLocation::Outside);
    }

    #[test]
    fn point_location_nonconvex() {
        let r = Ring::new(vec![
            pt(0.0, 0.0),
            pt(6.0, 0.0),
            pt(6.0, 6.0),
            pt(3.0, 2.0),
            pt(0.0, 6.0),
        ])
        .unwrap();
        assert_eq!(r.locate(pt(3.0, 1.0)), PointLocation::Inside);
        assert_eq!(r.locate(pt(3.0, 4.0)), PointLocation::Outside); // in the notch
        assert_eq!(r.locate(pt(3.0, 2.0)), PointLocation::Boundary);
    }

    #[test]
    fn polygon_with_hole_location_and_area() {
        let p = square_with_hole();
        assert_eq!(p.area(), 96.0);
        assert_eq!(p.locate(pt(5.0, 5.0)), PointLocation::Outside); // in hole
        assert_eq!(p.locate(pt(4.0, 5.0)), PointLocation::Boundary); // hole edge
        assert_eq!(p.locate(pt(1.0, 1.0)), PointLocation::Inside);
        assert_eq!(p.locate(pt(11.0, 5.0)), PointLocation::Outside);
    }

    #[test]
    fn hole_outside_exterior_rejected() {
        let ext = Ring::new(vec![pt(0.0, 0.0), pt(2.0, 0.0), pt(2.0, 2.0), pt(0.0, 2.0)]).unwrap();
        let bad = Ring::new(vec![pt(5.0, 5.0), pt(6.0, 5.0), pt(6.0, 6.0), pt(5.0, 6.0)]).unwrap();
        assert_eq!(
            Polygon::new(ext, vec![bad]),
            Err(GeomError::HoleOutsideExterior)
        );
    }

    #[test]
    fn centroid_with_hole_symmetric() {
        let p = square_with_hole();
        // Hole is centered, so the centroid stays at the center.
        assert_eq!(p.centroid(), pt(5.0, 5.0));
    }

    #[test]
    fn segment_intersection_tests() {
        let p = unit_square();
        // Fully inside.
        assert!(p.intersects_segment(&Segment::new(pt(0.2, 0.2), pt(0.8, 0.8))));
        // Crossing through.
        assert!(p.intersects_segment(&Segment::new(pt(-1.0, 0.5), pt(2.0, 0.5))));
        // Touching a corner.
        assert!(p.intersects_segment(&Segment::new(pt(-1.0, 1.0), pt(1.0, -1.0))));
        // Missing entirely.
        assert!(!p.intersects_segment(&Segment::new(pt(2.0, 2.0), pt(3.0, 3.0))));
        // Segment crossing the hole region of a holed polygon still
        // intersects the polygon (it must cross the annulus).
        let h = square_with_hole();
        assert!(h.intersects_segment(&Segment::new(pt(-1.0, 5.0), pt(11.0, 5.0))));
    }

    #[test]
    fn polygon_polygon_intersection() {
        let a = unit_square();
        let b = Polygon::rectangle(0.5, 0.5, 2.0, 2.0);
        assert!(a.intersects_polygon(&b));
        let c = Polygon::rectangle(5.0, 5.0, 6.0, 6.0);
        assert!(!a.intersects_polygon(&c));
        // Containment without boundary crossing.
        let outer = Polygon::rectangle(-1.0, -1.0, 3.0, 3.0);
        assert!(outer.intersects_polygon(&a));
        assert!(a.intersects_polygon(&outer));
        // Touching edges count as intersecting (closed semantics).
        let d = Polygon::rectangle(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects_polygon(&d));
    }

    #[test]
    fn rectangle_helper() {
        let r = Polygon::rectangle(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.bbox(), crate::BBox::new(1.0, 2.0, 4.0, 6.0));
    }
}
