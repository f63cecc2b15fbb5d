//! Polygon triangulation (ear clipping) and uniform point sampling.
//!
//! Triangulating the polygons of a layer enables exact area-weighted
//! operations the model occasionally needs: uniform random points inside
//! a region (population scatter in the data generator) and alternative
//! exact integration of piecewise-constant densities.

use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::predicates::{orient2d, Orientation};

/// A triangle, counter-clockwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub a: Point,
    /// Second vertex.
    pub b: Point,
    /// Third vertex.
    pub c: Point,
}

impl Triangle {
    /// Signed area (positive for counter-clockwise).
    pub(crate) fn signed_area(&self) -> f64 {
        ((self.b - self.a).cross(self.c - self.a)) * 0.5
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// `true` iff `p` lies inside or on the triangle.
    pub fn contains(&self, p: Point) -> bool {
        let d1 = orient2d(self.a, self.b, p);
        let d2 = orient2d(self.b, self.c, p);
        let d3 = orient2d(self.c, self.a, p);
        let has_cw = [d1, d2, d3].contains(&Orientation::Clockwise);
        let has_ccw = [d1, d2, d3].contains(&Orientation::CounterClockwise);
        !(has_cw && has_ccw)
    }

    /// Maps barycentric-ish coordinates `(u, v) ∈ [0,1]²` uniformly into
    /// the triangle (the standard square-to-triangle fold).
    pub fn sample(&self, u: f64, v: f64) -> Point {
        let (mut u, mut v) = (u, v);
        if u + v > 1.0 {
            u = 1.0 - u;
            v = 1.0 - v;
        }
        Point::new(
            self.a.x + u * (self.b.x - self.a.x) + v * (self.c.x - self.a.x),
            self.a.y + u * (self.b.y - self.a.y) + v * (self.c.y - self.a.y),
        )
    }
}

/// Triangulates a simple ring by ear clipping. Returns counter-clockwise
/// triangles whose areas sum to the ring's area.
pub(crate) fn triangulate_ring(ring: &Ring) -> Vec<Triangle> {
    let mut verts: Vec<Point> = ring.vertices().to_vec();
    let mut out = Vec::with_capacity(verts.len().saturating_sub(2));

    // Ear test: vertex i is an ear if the triangle (i-1, i, i+1) turns
    // left and contains no other vertex.
    let is_ear = |verts: &[Point], i: usize| -> bool {
        let n = verts.len();
        let prev = verts[(i + n - 1) % n];
        let cur = verts[i];
        let next = verts[(i + 1) % n];
        if orient2d(prev, cur, next) != Orientation::CounterClockwise {
            return false;
        }
        let tri = Triangle {
            a: prev,
            b: cur,
            c: next,
        };
        verts
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i && j != (i + n - 1) % n && j != (i + 1) % n)
            .all(|(_, &p)| !tri.contains(p))
    };

    let mut guard = 0usize;
    while verts.len() > 3 {
        let n = verts.len();
        let mut clipped = false;
        for i in 0..n {
            if is_ear(&verts, i) {
                let prev = verts[(i + n - 1) % n];
                let next = verts[(i + 1) % n];
                out.push(Triangle {
                    a: prev,
                    b: verts[i],
                    c: next,
                });
                verts.remove(i);
                clipped = true;
                break;
            }
        }
        if !clipped {
            // Degenerate leftovers (collinear chains); drop a collinear
            // vertex and continue. Guard against pathological loops.
            guard += 1;
            if guard > 2 * n {
                break;
            }
            let n = verts.len();
            if let Some(i) = (0..n).find(|&i| {
                orient2d(verts[(i + n - 1) % n], verts[i], verts[(i + 1) % n])
                    == Orientation::Collinear
            }) {
                verts.remove(i);
            } else {
                break;
            }
        }
    }
    if verts.len() == 3 {
        out.push(Triangle {
            a: verts[0],
            b: verts[1],
            c: verts[2],
        });
    }
    out
}

/// Triangulates a polygon. Hole-free polygons use ear clipping directly;
/// polygons with holes fall back to grid-free triangulation via the
/// boolean overlay: each ear triangle of the exterior is intersected with
/// the polygon, and the resulting hole-free pieces are triangulated.
pub fn triangulate(poly: &Polygon) -> Vec<Triangle> {
    if poly.holes().is_empty() {
        return triangulate_ring(poly.exterior());
    }
    let region = crate::overlay::MultiPolygon::from_polygon(poly.clone());
    let mut out = Vec::new();
    for tri in triangulate_ring(poly.exterior()) {
        let tri_poly = Polygon::from_exterior(vec![tri.a, tri.b, tri.c])
            .expect("ear triangles are valid rings");
        let clipped = region.intersection(&crate::overlay::MultiPolygon::from_polygon(tri_poly));
        for piece in clipped.polygons() {
            if piece.holes().is_empty() {
                out.extend(triangulate_ring(piece.exterior()));
            } else {
                // A triangle ∩ polygon piece can only have holes if the
                // hole is strictly inside the triangle; recurse once on
                // its (hole-free) overlay pieces.
                out.extend(triangulate(piece));
            }
        }
    }
    out
}

/// Draws a uniform random point inside `poly`, using two unit random
/// numbers per draw from `rng01` (e.g. a closure over `rand`).
///
/// Returns `None` for degenerate polygons with zero area.
pub fn sample_point(poly: &Polygon, mut rng01: impl FnMut() -> f64) -> Option<Point> {
    let tris = triangulate(poly);
    let total: f64 = tris.iter().map(Triangle::area).sum();
    if total <= 0.0 {
        return None;
    }
    // Pick a triangle by area, then a uniform point within.
    let mut pick = rng01() * total;
    for tri in &tris {
        let a = tri.area();
        if pick <= a || std::ptr::eq(tri, tris.last().expect("non-empty")) {
            return Some(tri.sample(rng01(), rng01()));
        }
        pick -= a;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;
    use crate::polygon::PointLocation;

    #[test]
    fn convex_polygon_triangulates_exactly() {
        let poly = Polygon::rectangle(0.0, 0.0, 4.0, 3.0);
        let tris = triangulate(&poly);
        assert_eq!(tris.len(), 2);
        let total: f64 = tris.iter().map(Triangle::area).sum();
        assert!((total - 12.0).abs() < 1e-12);
        assert!(tris.iter().all(|t| t.signed_area() > 0.0));
    }

    #[test]
    fn concave_polygon_triangulates() {
        let poly = Polygon::from_exterior(vec![
            pt(0.0, 0.0),
            pt(6.0, 0.0),
            pt(6.0, 6.0),
            pt(3.0, 2.0), // reflex
            pt(0.0, 6.0),
        ])
        .unwrap();
        let tris = triangulate(&poly);
        assert_eq!(tris.len(), 3);
        let total: f64 = tris.iter().map(Triangle::area).sum();
        assert!((total - poly.area()).abs() < 1e-9);
    }

    #[test]
    fn polygon_with_hole_triangulates_to_area() {
        let ext = Ring::new(vec![
            pt(0.0, 0.0),
            pt(10.0, 0.0),
            pt(10.0, 10.0),
            pt(0.0, 10.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![pt(4.0, 4.0), pt(6.0, 4.0), pt(6.0, 6.0), pt(4.0, 6.0)]).unwrap();
        let poly = Polygon::new(ext, vec![hole]).unwrap();
        let tris = triangulate(&poly);
        let total: f64 = tris.iter().map(Triangle::area).sum();
        assert!((total - 96.0).abs() < 1e-6, "got {total}");
        // No triangle's centroid falls in the hole.
        for t in &tris {
            let c = Point::new((t.a.x + t.b.x + t.c.x) / 3.0, (t.a.y + t.b.y + t.c.y) / 3.0);
            assert_ne!(
                poly.locate(c),
                PointLocation::Outside,
                "triangle outside polygon"
            );
        }
    }

    #[test]
    fn triangle_contains_and_sample() {
        let t = Triangle {
            a: pt(0.0, 0.0),
            b: pt(4.0, 0.0),
            c: pt(0.0, 4.0),
        };
        assert!(t.contains(pt(1.0, 1.0)));
        assert!(t.contains(pt(0.0, 0.0))); // vertex
        assert!(t.contains(pt(2.0, 2.0))); // hypotenuse
        assert!(!t.contains(pt(3.0, 3.0)));
        // Deterministic sampling stays inside.
        for (u, v) in [(0.0, 0.0), (0.9, 0.9), (0.5, 0.25), (1.0, 0.0)] {
            assert!(t.contains(t.sample(u, v)), "sample({u},{v})");
        }
    }

    #[test]
    fn sample_point_lands_inside() {
        let poly = Polygon::from_exterior(vec![
            pt(0.0, 0.0),
            pt(8.0, 0.0),
            pt(8.0, 2.0),
            pt(2.0, 2.0),
            pt(2.0, 8.0),
            pt(0.0, 8.0),
        ])
        .unwrap(); // an L-shape
                   // A deterministic quasi-random sequence.
        let mut state = 0.123_f64;
        let mut rng = move || {
            state = (state * 997.0 + 0.618).fract();
            state
        };
        for _ in 0..200 {
            let p = sample_point(&poly, &mut rng).unwrap();
            assert!(poly.contains(p), "{p} escaped the polygon");
        }
    }

    #[test]
    fn triangulation_covers_membership() {
        // Point-in-polygon via triangles agrees with the ray cast.
        let poly = Polygon::from_exterior(vec![
            pt(0.0, 0.0),
            pt(6.0, 0.0),
            pt(6.0, 6.0),
            pt(3.0, 2.0),
            pt(0.0, 6.0),
        ])
        .unwrap();
        let tris = triangulate(&poly);
        for probe in [pt(1.0, 1.0), pt(5.0, 5.0), pt(3.0, 4.0), pt(3.0, 1.0)] {
            let in_tris = tris.iter().any(|t| t.contains(probe));
            let in_poly = poly.contains(probe);
            assert_eq!(in_tris, in_poly, "probe {probe}");
        }
    }
}
