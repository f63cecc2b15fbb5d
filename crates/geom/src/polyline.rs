//! Polylines (open chains of segments).
//!
//! In the paper's GIS dimension schema, polylines are the geometry of
//! rivers, highways and streets (layers `Lr`, `Ls`, …), composed of `line`
//! elements which are in turn composed of points (Definition 1's hierarchy
//! `point → line → polyline → All`).

use crate::bbox::BBox;
use crate::point::Point;
use crate::segment::{Segment, SegmentIntersection};
use crate::GeomError;

/// An open chain of straight-line segments through a vertex list.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    vertices: Vec<Point>,
}

impl Polyline {
    /// Builds a polyline from at least two vertices.
    ///
    /// Consecutive duplicate vertices are collapsed; if fewer than two
    /// distinct vertices remain, construction fails.
    pub fn new(vertices: Vec<Point>) -> crate::Result<Polyline> {
        for v in &vertices {
            v.validate()?;
        }
        let mut out: Vec<Point> = Vec::with_capacity(vertices.len());
        for v in vertices {
            if out.last() != Some(&v) {
                out.push(v);
            }
        }
        if out.len() < 2 {
            return Err(GeomError::PolylineTooSmall { got: out.len() });
        }
        Ok(Polyline { vertices: out })
    }

    /// The vertex list.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Iterator over the constituent segments, in order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// First vertex.
    #[inline]
    pub fn start(&self) -> Point {
        self.vertices[0]
    }

    /// Last vertex.
    #[inline]
    pub fn end(&self) -> Point {
        *self.vertices.last().expect("polyline has >= 2 vertices")
    }

    /// Total arc length.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Bounding box of all vertices.
    pub fn bbox(&self) -> BBox {
        BBox::from_points(self.vertices.iter().copied())
    }

    /// Point at arc-length `s` from the start, clamped to the ends.
    pub fn point_at_length(&self, s: f64) -> Point {
        if s <= 0.0 {
            return self.start();
        }
        let mut remaining = s;
        for seg in self.segments() {
            let len = seg.length();
            if remaining <= len {
                let t = if len == 0.0 { 0.0 } else { remaining / len };
                return seg.point_at(t);
            }
            remaining -= len;
        }
        self.end()
    }

    /// Distance from `p` to the nearest point of the polyline.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.segments()
            .map(|s| s.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// `true` iff `p` lies exactly on the polyline.
    pub fn contains_point(&self, p: Point) -> bool {
        self.segments().any(|s| s.contains_point(p))
    }

    /// `true` iff the polyline and `other` share at least one point.
    pub fn intersects_polyline(&self, other: &Polyline) -> bool {
        if !self.bbox().intersects(&other.bbox()) {
            return false;
        }
        self.segments().any(|s| {
            other
                .segments()
                .any(|t| s.intersect(&t) != SegmentIntersection::None)
        })
    }

    /// A polyline with the vertex order reversed.
    pub fn reversed(&self) -> Polyline {
        let mut v = self.vertices.clone();
        v.reverse();
        Polyline { vertices: v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn zigzag() -> Polyline {
        Polyline::new(vec![pt(0.0, 0.0), pt(2.0, 0.0), pt(2.0, 2.0), pt(4.0, 2.0)]).unwrap()
    }

    #[test]
    fn construction_rules() {
        assert!(Polyline::new(vec![pt(0.0, 0.0)]).is_err());
        assert!(Polyline::new(vec![pt(0.0, 0.0), pt(0.0, 0.0)]).is_err());
        // duplicates collapse
        let p = Polyline::new(vec![pt(0.0, 0.0), pt(0.0, 0.0), pt(1.0, 0.0)]).unwrap();
        assert_eq!(p.vertices().len(), 2);
        assert!(Polyline::new(vec![pt(f64::NAN, 0.0), pt(1.0, 0.0)]).is_err());
    }

    #[test]
    fn length_and_segments() {
        let p = zigzag();
        assert_eq!(p.length(), 6.0);
        assert_eq!(p.start(), pt(0.0, 0.0));
        assert_eq!(p.end(), pt(4.0, 2.0));
    }

    #[test]
    fn point_at_length_walks_the_chain() {
        let p = zigzag();
        assert_eq!(p.point_at_length(0.0), pt(0.0, 0.0));
        assert_eq!(p.point_at_length(1.0), pt(1.0, 0.0));
        assert_eq!(p.point_at_length(3.0), pt(2.0, 1.0));
        assert_eq!(p.point_at_length(6.0), pt(4.0, 2.0));
        // clamped beyond both ends
        assert_eq!(p.point_at_length(-5.0), pt(0.0, 0.0));
        assert_eq!(p.point_at_length(99.0), pt(4.0, 2.0));
    }

    #[test]
    fn distances() {
        let p = zigzag();
        assert_eq!(p.distance_to_point(pt(1.0, 1.0)), 1.0);
        assert!(p.contains_point(pt(2.0, 1.0)));
        assert!(!p.contains_point(pt(1.0, 1.0)));
    }

    #[test]
    fn polyline_crossing() {
        let p = zigzag();
        let q = Polyline::new(vec![pt(0.0, 2.0), pt(4.0, 0.0)]).unwrap();
        assert!(p.intersects_polyline(&q));
        let far = Polyline::new(vec![pt(10.0, 10.0), pt(11.0, 11.0)]).unwrap();
        assert!(!p.intersects_polyline(&far));
    }

    #[test]
    fn reversed_preserves_length() {
        let p = zigzag();
        let r = p.reversed();
        assert_eq!(r.start(), p.end());
        assert_eq!(r.end(), p.start());
        assert_eq!(r.length(), p.length());
    }
}
