//! Line segments and segment intersection.

use crate::bbox::BBox;
use crate::point::{Point, Vec2};
use crate::predicates::{orient2d, point_on_segment, Orientation};

/// A directed line segment from `a` to `b`.
///
/// Segments are the edges of polylines and polygon rings, and — crucially
/// for the paper — the pieces of a linear-interpolation trajectory between
/// consecutive samples (Section 5: "for each consecutive pair of points in
/// the moving objects fact table, \[check\] if the intersection between the
/// segment defined by these two points and a city … is not empty").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

/// Result of intersecting two segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentIntersection {
    /// The segments share no point.
    None,
    /// The segments share exactly one point (crossing or touching).
    Point(Point),
    /// The segments are collinear and share a sub-segment of positive
    /// length, given by its two endpoints.
    Overlap(Point, Point),
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Segment {
        Segment { a, b }
    }

    /// The displacement vector `b - a`.
    #[inline]
    pub fn delta(&self) -> Vec2 {
        self.b - self.a
    }

    /// Euclidean length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.delta().length()
    }

    /// `true` iff both endpoints coincide.
    #[inline]
    pub(crate) fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// Bounding box of the segment.
    #[inline]
    pub fn bbox(&self) -> BBox {
        BBox::from_point(self.a).expanded_to(self.b)
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn point_at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Midpoint.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// The segment with endpoints swapped.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }

    /// `true` iff `p` lies on the closed segment (exact predicate).
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        point_on_segment(p, self.a, self.b)
    }

    /// Parameter `t` of the point on the (infinite) supporting line closest
    /// to `p`; `0` for a degenerate segment.
    pub(crate) fn project_param(&self, p: Point) -> f64 {
        let d = self.delta();
        let len_sq = d.length_sq();
        if len_sq == 0.0 {
            0.0
        } else {
            (p - self.a).dot(d) / len_sq
        }
    }

    /// Closest point *on the segment* to `p`.
    pub(crate) fn closest_point(&self, p: Point) -> Point {
        let t = self.project_param(p).clamp(0.0, 1.0);
        self.point_at(t)
    }

    /// Distance from `p` to the segment.
    #[inline]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Intersection of two closed segments.
    ///
    /// Handles all degenerate configurations exactly (via the robust
    /// orientation predicate): proper crossings, T-touches, endpoint
    /// touches, collinear overlaps, and degenerate (point) segments.
    pub fn intersect(&self, other: &Segment) -> SegmentIntersection {
        // Degenerate cases: a segment that is a single point.
        if self.is_degenerate() {
            return if other.contains_point(self.a) {
                SegmentIntersection::Point(self.a)
            } else {
                SegmentIntersection::None
            };
        }
        if other.is_degenerate() {
            return if self.contains_point(other.a) {
                SegmentIntersection::Point(other.a)
            } else {
                SegmentIntersection::None
            };
        }

        let o1 = orient2d(self.a, self.b, other.a);
        let o2 = orient2d(self.a, self.b, other.b);
        let o3 = orient2d(other.a, other.b, self.a);
        let o4 = orient2d(other.a, other.b, self.b);

        use Orientation::Collinear;
        if o1 == Collinear && o2 == Collinear {
            // Collinear: project on the dominant axis and intersect ranges.
            return self.collinear_overlap(other);
        }

        let crosses = |oa: Orientation, ob: Orientation| -> bool {
            // `other`'s endpoints on opposite sides (or one exactly on the
            // supporting line).
            matches!(
                (oa, ob),
                (Orientation::Clockwise, Orientation::CounterClockwise)
                    | (Orientation::CounterClockwise, Orientation::Clockwise)
            ) || oa == Collinear
                || ob == Collinear
        };

        if !(crosses(o1, o2) && crosses(o3, o4)) {
            return SegmentIntersection::None;
        }

        // Touching at an endpoint — report exactly that endpoint, avoiding
        // any rounding from the parametric formula.
        if o1 == Collinear && self.contains_point(other.a) {
            return SegmentIntersection::Point(other.a);
        }
        if o2 == Collinear && self.contains_point(other.b) {
            return SegmentIntersection::Point(other.b);
        }
        if o3 == Collinear && other.contains_point(self.a) {
            return SegmentIntersection::Point(self.a);
        }
        if o4 == Collinear && other.contains_point(self.b) {
            return SegmentIntersection::Point(self.b);
        }
        // One of the collinear flags fired but containment failed → the
        // endpoint lies on the supporting line beyond the segment: no hit.
        if o1 == Collinear || o2 == Collinear || o3 == Collinear || o4 == Collinear {
            return SegmentIntersection::None;
        }

        // Proper crossing: solve with the parametric formula.
        let d1 = self.delta();
        let d2 = other.delta();
        let denom = d1.cross(d2);
        debug_assert!(denom != 0.0, "proper crossing must have nonzero denom");
        let t = (other.a - self.a).cross(d2) / denom;
        SegmentIntersection::Point(self.point_at(t.clamp(0.0, 1.0)))
    }

    fn collinear_overlap(&self, other: &Segment) -> SegmentIntersection {
        // Order both segments along the dominant axis of `self`.
        let use_x = (self.a.x - self.b.x).abs() >= (self.a.y - self.b.y).abs();
        let key = |p: Point| if use_x { p.x } else { p.y };

        let (mut s0, mut s1) = (self.a, self.b);
        if key(s0) > key(s1) {
            std::mem::swap(&mut s0, &mut s1);
        }
        let (mut t0, mut t1) = (other.a, other.b);
        if key(t0) > key(t1) {
            std::mem::swap(&mut t0, &mut t1);
        }

        // Verify the segments really share the supporting line (they are
        // collinear pairwise; guard against parallel-but-offset lines).
        if orient2d(s0, s1, t0) != Orientation::Collinear {
            return SegmentIntersection::None;
        }

        let lo = if key(s0) >= key(t0) { s0 } else { t0 };
        let hi = if key(s1) <= key(t1) { s1 } else { t1 };
        match key(lo).partial_cmp(&key(hi)) {
            Some(std::cmp::Ordering::Less) => SegmentIntersection::Overlap(lo, hi),
            Some(std::cmp::Ordering::Equal) => SegmentIntersection::Point(lo),
            _ => SegmentIntersection::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(pt(ax, ay), pt(bx, by))
    }

    #[test]
    fn proper_crossing() {
        let s = seg(0.0, 0.0, 2.0, 2.0);
        let t = seg(0.0, 2.0, 2.0, 0.0);
        assert_eq!(s.intersect(&t), SegmentIntersection::Point(pt(1.0, 1.0)));
        // Symmetric.
        assert_eq!(t.intersect(&s), SegmentIntersection::Point(pt(1.0, 1.0)));
    }

    #[test]
    fn disjoint_segments() {
        let s = seg(0.0, 0.0, 1.0, 0.0);
        let t = seg(0.0, 1.0, 1.0, 1.0);
        assert_eq!(s.intersect(&t), SegmentIntersection::None);
    }

    #[test]
    fn t_touch_reports_exact_endpoint() {
        let s = seg(0.0, 0.0, 4.0, 0.0);
        let t = seg(2.0, 0.0, 2.0, 3.0); // touches s at (2,0)
        assert_eq!(s.intersect(&t), SegmentIntersection::Point(pt(2.0, 0.0)));
    }

    #[test]
    fn endpoint_to_endpoint_touch() {
        let s = seg(0.0, 0.0, 1.0, 1.0);
        let t = seg(1.0, 1.0, 2.0, 0.0);
        assert_eq!(s.intersect(&t), SegmentIntersection::Point(pt(1.0, 1.0)));
    }

    #[test]
    fn near_miss_is_none() {
        let s = seg(0.0, 0.0, 4.0, 0.0);
        let t = seg(2.0, 1e-12, 2.0, 3.0); // hovers just above
        assert_eq!(s.intersect(&t), SegmentIntersection::None);
    }

    #[test]
    fn collinear_overlap_positive_length() {
        let s = seg(0.0, 0.0, 4.0, 0.0);
        let t = seg(2.0, 0.0, 6.0, 0.0);
        assert_eq!(
            s.intersect(&t),
            SegmentIntersection::Overlap(pt(2.0, 0.0), pt(4.0, 0.0))
        );
    }

    #[test]
    fn collinear_touch_single_point() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        let t = seg(2.0, 0.0, 5.0, 0.0);
        assert_eq!(s.intersect(&t), SegmentIntersection::Point(pt(2.0, 0.0)));
    }

    #[test]
    fn collinear_disjoint() {
        let s = seg(0.0, 0.0, 1.0, 0.0);
        let t = seg(2.0, 0.0, 3.0, 0.0);
        assert_eq!(s.intersect(&t), SegmentIntersection::None);
    }

    #[test]
    fn parallel_offset_is_none() {
        let s = seg(0.0, 0.0, 4.0, 4.0);
        let t = seg(0.0, 1.0, 4.0, 5.0);
        assert_eq!(s.intersect(&t), SegmentIntersection::None);
    }

    #[test]
    fn degenerate_segments() {
        let p = seg(1.0, 1.0, 1.0, 1.0);
        let s = seg(0.0, 0.0, 2.0, 2.0);
        assert_eq!(p.intersect(&s), SegmentIntersection::Point(pt(1.0, 1.0)));
        assert_eq!(s.intersect(&p), SegmentIntersection::Point(pt(1.0, 1.0)));
        let q = seg(5.0, 5.0, 5.0, 5.0);
        assert_eq!(q.intersect(&s), SegmentIntersection::None);
        // Two identical point-segments.
        assert_eq!(p.intersect(&p), SegmentIntersection::Point(pt(1.0, 1.0)));
    }

    #[test]
    fn vertical_collinear_overlap() {
        let s = seg(1.0, 0.0, 1.0, 4.0);
        let t = seg(1.0, 4.0, 1.0, 2.0); // reversed direction
        assert_eq!(
            s.intersect(&t),
            SegmentIntersection::Overlap(pt(1.0, 2.0), pt(1.0, 4.0))
        );
    }

    #[test]
    fn closest_point_and_distance() {
        let s = seg(0.0, 0.0, 4.0, 0.0);
        assert_eq!(s.closest_point(pt(2.0, 3.0)), pt(2.0, 0.0));
        assert_eq!(s.distance_to_point(pt(2.0, 3.0)), 3.0);
        // Beyond the end: clamps to endpoint.
        assert_eq!(s.closest_point(pt(7.0, 0.0)), pt(4.0, 0.0));
        assert_eq!(s.distance_to_point(pt(7.0, 4.0)), 5.0);
    }

    #[test]
    fn point_at_endpoints() {
        let s = seg(1.0, 2.0, 5.0, 6.0);
        assert_eq!(s.point_at(0.0), pt(1.0, 2.0));
        assert_eq!(s.point_at(1.0), pt(5.0, 6.0));
        assert_eq!(s.midpoint(), pt(3.0, 4.0));
    }

    #[test]
    fn collinear_containment_one_inside_other() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        let t = seg(3.0, 0.0, 7.0, 0.0);
        assert_eq!(
            s.intersect(&t),
            SegmentIntersection::Overlap(pt(3.0, 0.0), pt(7.0, 0.0))
        );
    }
}
