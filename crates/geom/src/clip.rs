//! Clipping segments and polylines against polygons.
//!
//! The central primitive for the paper's *trajectory queries* (types 6–8):
//! given a trajectory segment between two consecutive samples and a region
//! polygon, find the parameter intervals of the segment that lie inside the
//! region. Query 5 of Section 4 ("total amount of time spent continuously
//! by cars in Antwerp") is a direct consumer: parameter intervals translate
//! linearly to time intervals under the linear-interpolation model.

use crate::point::Point;
use crate::polygon::Polygon;
use crate::segment::{Segment, SegmentIntersection};

/// A closed parameter interval `[start, end] ⊆ [0, 1]` along a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamInterval {
    /// Interval start (inclusive).
    pub start: f64,
    /// Interval end (inclusive).
    pub end: f64,
}

impl ParamInterval {
    /// Length of the interval.
    #[inline]
    pub fn length(&self) -> f64 {
        self.end - self.start
    }
}

/// Parameter of `p` along `seg`, assuming `p` lies on the segment.
fn param_of(seg: &Segment, p: Point) -> f64 {
    let d = seg.delta();
    // Use the dominant axis for best conditioning.
    let t = if d.x.abs() >= d.y.abs() {
        if d.x == 0.0 {
            0.0
        } else {
            (p.x - seg.a.x) / d.x
        }
    } else {
        (p.y - seg.a.y) / d.y
    };
    t.clamp(0.0, 1.0)
}

/// Computes the sorted, disjoint parameter intervals of `seg` that lie
/// inside (or on the boundary of) `poly`.
///
/// Inclusion is boundary-inclusive (closed region semantics, as in the
/// paper's Example 1 where a point may belong to two adjacent polygons).
/// Zero-length crossings (the segment touching the boundary at a single
/// point while otherwise outside) are reported as degenerate intervals.
pub fn clip_segment_to_polygon(seg: &Segment, poly: &Polygon) -> Vec<ParamInterval> {
    if seg.is_degenerate() {
        return if poly.contains(seg.a) {
            vec![ParamInterval {
                start: 0.0,
                end: 1.0,
            }]
        } else {
            vec![]
        };
    }
    if !poly.bbox().intersects(&seg.bbox()) {
        return vec![];
    }

    // Collect every boundary-crossing parameter, plus the ends.
    let mut cuts: Vec<f64> = vec![0.0, 1.0];
    for edge in poly.edges() {
        match edge.intersect(seg) {
            SegmentIntersection::None => {}
            SegmentIntersection::Point(p) => cuts.push(param_of(seg, p)),
            SegmentIntersection::Overlap(p, q) => {
                cuts.push(param_of(seg, p));
                cuts.push(param_of(seg, q));
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    // Classify each elementary interval by its midpoint, then merge.
    let mut out: Vec<ParamInterval> = Vec::new();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let mid = seg.point_at((lo + hi) * 0.5);
        if poly.contains(mid) {
            match out.last_mut() {
                Some(last) if last.end == lo => last.end = hi,
                _ => out.push(ParamInterval { start: lo, end: hi }),
            }
        }
    }

    // Isolated boundary touches: cut points not covered by any interval but
    // themselves on/in the polygon.
    for &c in &cuts {
        let covered = out.iter().any(|iv| iv.start <= c && c <= iv.end);
        if !covered && poly.contains(seg.point_at(c)) {
            out.push(ParamInterval { start: c, end: c });
        }
    }
    out.sort_by(|a, b| a.start.total_cmp(&b.start));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn square() -> Polygon {
        Polygon::rectangle(0.0, 0.0, 4.0, 4.0)
    }

    /// Total fraction of `seg` (by parameter) inside `poly`.
    fn fraction_inside(seg: &Segment, poly: &Polygon) -> f64 {
        clip_segment_to_polygon(seg, poly)
            .iter()
            .map(ParamInterval::length)
            .sum()
    }

    #[test]
    fn fully_inside() {
        let seg = Segment::new(pt(1.0, 1.0), pt(3.0, 3.0));
        let iv = clip_segment_to_polygon(&seg, &square());
        assert_eq!(
            iv,
            vec![ParamInterval {
                start: 0.0,
                end: 1.0
            }]
        );
        assert_eq!(fraction_inside(&seg, &square()), 1.0);
    }

    #[test]
    fn fully_outside() {
        let seg = Segment::new(pt(5.0, 5.0), pt(6.0, 6.0));
        assert!(clip_segment_to_polygon(&seg, &square()).is_empty());
    }

    #[test]
    fn crossing_through() {
        let seg = Segment::new(pt(-2.0, 2.0), pt(6.0, 2.0));
        let iv = clip_segment_to_polygon(&seg, &square());
        assert_eq!(iv.len(), 1);
        assert_eq!(iv[0].start, 0.25);
        assert_eq!(iv[0].end, 0.75);
        assert_eq!(fraction_inside(&seg, &square()), 0.5);
    }

    #[test]
    fn entering_only() {
        let seg = Segment::new(pt(-4.0, 2.0), pt(4.0, 2.0));
        let iv = clip_segment_to_polygon(&seg, &square());
        assert_eq!(
            iv,
            vec![ParamInterval {
                start: 0.5,
                end: 1.0
            }]
        );
    }

    #[test]
    fn grazing_touch_is_degenerate_interval() {
        // Segment touching only the corner (0,0).
        let seg = Segment::new(pt(-1.0, 1.0), pt(1.0, -1.0));
        let iv = clip_segment_to_polygon(&seg, &square());
        assert_eq!(iv.len(), 1);
        assert_eq!(iv[0].start, iv[0].end);
        assert_eq!(fraction_inside(&seg, &square()), 0.0);
    }

    #[test]
    fn sliding_along_edge_counts_as_inside() {
        // Boundary-inclusive semantics: riding the edge is "in".
        let seg = Segment::new(pt(0.0, 0.0), pt(4.0, 0.0));
        assert_eq!(fraction_inside(&seg, &square()), 1.0);
    }

    #[test]
    fn segment_through_hole_is_split() {
        let ext = crate::polygon::Ring::new(vec![
            pt(0.0, 0.0),
            pt(10.0, 0.0),
            pt(10.0, 10.0),
            pt(0.0, 10.0),
        ])
        .unwrap();
        let hole =
            crate::polygon::Ring::new(vec![pt(4.0, 4.0), pt(6.0, 4.0), pt(6.0, 6.0), pt(4.0, 6.0)])
                .unwrap();
        let poly = Polygon::new(ext, vec![hole]).unwrap();
        let seg = Segment::new(pt(0.0, 5.0), pt(10.0, 5.0));
        let iv = clip_segment_to_polygon(&seg, &poly);
        assert_eq!(iv.len(), 2);
        assert_eq!((iv[0].start, iv[0].end), (0.0, 0.4));
        assert_eq!((iv[1].start, iv[1].end), (0.6, 1.0));
        assert!((fraction_inside(&seg, &poly) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment() {
        let inside = Segment::new(pt(2.0, 2.0), pt(2.0, 2.0));
        assert_eq!(fraction_inside(&inside, &square()), 1.0);
        let outside = Segment::new(pt(9.0, 9.0), pt(9.0, 9.0));
        assert_eq!(fraction_inside(&outside, &square()), 0.0);
    }

    #[test]
    fn multiple_entries_nonconvex() {
        // U-shaped polygon: the segment crosses both prongs.
        let poly = Polygon::from_exterior(vec![
            pt(0.0, 0.0),
            pt(10.0, 0.0),
            pt(10.0, 8.0),
            pt(7.0, 8.0),
            pt(7.0, 3.0),
            pt(3.0, 3.0),
            pt(3.0, 8.0),
            pt(0.0, 8.0),
        ])
        .unwrap();
        let seg = Segment::new(pt(-1.0, 6.0), pt(11.0, 6.0));
        let iv = clip_segment_to_polygon(&seg, &poly);
        assert_eq!(iv.len(), 2);
        let total: f64 = iv.iter().map(ParamInterval::length).sum();
        // Inside spans x∈[0,3] and x∈[7,10]: 6 of 12 length units.
        assert!((total - 0.5).abs() < 1e-12);
    }
}
