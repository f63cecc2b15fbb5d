//! Property-based tests for the geometry substrate.

use gisolap_geom::clip::clip_segment_to_polygon;
use gisolap_geom::point::Point;
use gisolap_geom::polygon::{PointLocation, Polygon, Ring};
use gisolap_geom::predicates::{orient2d, Orientation};
use gisolap_geom::segment::{Segment, SegmentIntersection};
use gisolap_geom::{BooleanOp, MultiPolygon};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // Grid-ish coordinates: plenty of collinear/degenerate configurations.
    (-100i32..=100i32).prop_map(|v| v as f64 * 0.5)
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn rect_poly() -> impl Strategy<Value = Polygon> {
    (coord(), coord(), 1u8..=40, 1u8..=40)
        .prop_map(|(x, y, w, h)| Polygon::rectangle(x, y, x + w as f64, y + h as f64))
}

/// Convex hull (Andrew's monotone chain) as a counter-clockwise vertex
/// list without a closing vertex; collinear boundary points are dropped.
/// Fewer than three points come back for degenerate inputs. The
/// generators below use it to build random convex polygons.
fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    pts.dedup();
    if pts.len() <= 2 {
        return pts;
    }
    let mut hull: Vec<Point> = Vec::with_capacity(2 * pts.len());
    let turns_left = |hull: &[Point], p| {
        orient2d(hull[hull.len() - 2], hull[hull.len() - 1], p) == Orientation::CounterClockwise
    };
    for &p in &pts {
        while hull.len() >= 2 && !turns_left(&hull, p) {
            hull.pop();
        }
        hull.push(p);
    }
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len && !turns_left(&hull, p) {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // the last point repeats the first
    hull
}

/// A random convex polygon: convex hull of a handful of random points.
fn convex_poly() -> impl Strategy<Value = Polygon> {
    proptest::collection::vec(point(), 3..10).prop_filter_map("degenerate hull", |pts| {
        let hull = convex_hull(&pts);
        if hull.len() < 3 {
            return None;
        }
        Ring::new(hull)
            .ok()
            .map(|r| Polygon::new(r, vec![]).unwrap())
    })
}

proptest! {
    #[test]
    fn orientation_antisymmetry(a in point(), b in point(), c in point()) {
        prop_assert_eq!(orient2d(a, b, c), orient2d(b, a, c).reversed());
        prop_assert_eq!(orient2d(a, b, c), orient2d(b, c, a));
    }

    #[test]
    fn segment_intersection_is_symmetric(a in point(), b in point(), c in point(), d in point()) {
        let s = Segment::new(a, b);
        let t = Segment::new(c, d);
        let st = s.intersect(&t);
        let ts = t.intersect(&s);
        // The *kind* must agree; overlap endpoints may be reported in
        // either order.
        match (st, ts) {
            (SegmentIntersection::None, SegmentIntersection::None) => {}
            (SegmentIntersection::Point(p), SegmentIntersection::Point(q)) => {
                prop_assert!(p.distance(q) < 1e-9);
            }
            (SegmentIntersection::Overlap(p1, q1), SegmentIntersection::Overlap(p2, q2)) => {
                let fwd = p1 == p2 && q1 == q2;
                let rev = p1 == q2 && q1 == p2;
                prop_assert!(fwd || rev);
            }
            other => prop_assert!(false, "asymmetric intersection: {:?}", other),
        }
    }

    #[test]
    fn reported_intersection_point_lies_on_both(a in point(), b in point(), c in point(), d in point()) {
        let s = Segment::new(a, b);
        let t = Segment::new(c, d);
        if let SegmentIntersection::Point(p) = s.intersect(&t) {
            // The computed point can be off by rounding for steep crossings;
            // it must still be within a small distance of both segments.
            prop_assert!(s.distance_to_point(p) < 1e-7);
            prop_assert!(t.distance_to_point(p) < 1e-7);
        }
    }

    #[test]
    fn hull_contains_all_points(pts in proptest::collection::vec(point(), 1..30)) {
        let hull = convex_hull(&pts);
        if hull.len() >= 3 {
            let ring = Ring::new(hull).unwrap();
            prop_assert!(ring.is_convex());
            for p in pts {
                prop_assert!(ring.locate(p) != PointLocation::Outside);
            }
        }
    }

    #[test]
    fn rect_point_location_matches_arithmetic(p in point(), poly in rect_poly()) {
        let bb = poly.bbox();
        let inside = p.x > bb.min_x && p.x < bb.max_x && p.y > bb.min_y && p.y < bb.max_y;
        let outside = p.x < bb.min_x || p.x > bb.max_x || p.y < bb.min_y || p.y > bb.max_y;
        match poly.locate(p) {
            PointLocation::Inside => prop_assert!(inside),
            PointLocation::Outside => prop_assert!(outside),
            PointLocation::Boundary => prop_assert!(!inside && !outside),
        }
    }

    #[test]
    fn clip_intervals_are_sorted_disjoint_subunit(
        a in point(), b in point(), poly in rect_poly()
    ) {
        let seg = Segment::new(a, b);
        let ivs = clip_segment_to_polygon(&seg, &poly);
        let mut prev_end = -0.0001;
        for iv in &ivs {
            prop_assert!(iv.start >= 0.0 && iv.end <= 1.0);
            prop_assert!(iv.start <= iv.end);
            prop_assert!(iv.start >= prev_end);
            prev_end = iv.end;
        }
        // Midpoints of reported intervals are inside; gaps are outside.
        for iv in &ivs {
            if iv.length() > 0.0 {
                prop_assert!(poly.contains(seg.point_at((iv.start + iv.end) / 2.0)));
            }
        }
    }

    #[test]
    fn clip_fraction_matches_containment_of_endpoints(
        a in point(), b in point(), poly in rect_poly()
    ) {
        let seg = Segment::new(a, b);
        let f: f64 = clip_segment_to_polygon(&seg, &poly)
            .iter()
            .map(|iv| iv.length())
            .sum();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        if poly.contains(a) && poly.contains(b) && poly.exterior().is_convex() {
            // Convex region: both endpoints in ⇒ whole segment in.
            prop_assert!((f - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn boolean_ops_area_arithmetic_rects(r1 in rect_poly(), r2 in rect_poly()) {
        let a = MultiPolygon::from_polygon(r1);
        let b = MultiPolygon::from_polygon(r2);
        let i = a.intersection(&b).area();
        let u = a.union(&b).area();
        let d_ab = a.difference(&b).area();
        let d_ba = b.difference(&a).area();
        let x = a.boolean_op(&b, BooleanOp::Xor).area();
        let tol = 1e-6;
        // Inclusion–exclusion identities.
        prop_assert!((u - (a.area() + b.area() - i)).abs() < tol, "union identity");
        prop_assert!((d_ab - (a.area() - i)).abs() < tol, "difference identity");
        prop_assert!((x - (d_ab + d_ba)).abs() < tol, "xor identity");
        prop_assert!(i >= -tol && i <= a.area().min(b.area()) + tol);
    }

    #[test]
    fn boolean_ops_area_arithmetic_convex(p1 in convex_poly(), p2 in convex_poly()) {
        let a = MultiPolygon::from_polygon(p1);
        let b = MultiPolygon::from_polygon(p2);
        let i = a.intersection(&b).area();
        let u = a.union(&b).area();
        let tol = 1e-6 * (1.0 + a.area() + b.area());
        prop_assert!((u - (a.area() + b.area() - i)).abs() < tol);
    }

    #[test]
    fn intersection_commutes(r1 in rect_poly(), r2 in rect_poly()) {
        let a = MultiPolygon::from_polygon(r1);
        let b = MultiPolygon::from_polygon(r2);
        let ab = a.intersection(&b).area();
        let ba = b.intersection(&a).area();
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn intersection_point_membership(r1 in rect_poly(), r2 in rect_poly(), p in point()) {
        let a = MultiPolygon::from_polygon(r1);
        let b = MultiPolygon::from_polygon(r2);
        let i = a.intersection(&b);
        // Strict interior membership of the result implies membership in
        // both inputs (closed-region semantics at boundaries).
        if i.locate(p) == PointLocation::Inside {
            prop_assert!(a.contains(p) && b.contains(p));
        }
        // A point strictly inside both inputs is in the intersection.
        let strictly_in_both = a.locate(p) == PointLocation::Inside
            && b.locate(p) == PointLocation::Inside;
        if strictly_in_both {
            prop_assert!(i.contains(p));
        }
    }

    #[test]
    fn ring_area_invariant_under_rotation(poly in convex_poly(), k in 0usize..8) {
        let vs = poly.exterior().vertices();
        let n = vs.len();
        let rotated: Vec<Point> = (0..n).map(|i| vs[(i + k % n) % n]).collect();
        let r2 = Ring::new(rotated).unwrap();
        prop_assert!((r2.area() - poly.exterior().area()).abs() < 1e-9);
    }
}
