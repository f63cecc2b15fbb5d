//! Lifeline beads: uncertainty between consecutive observations.
//!
//! The paper's related work (Section 2) describes Hornsby & Egenhofer's
//! model: "The possible positions of an object between two observations is
//! estimated to be within two inverted half-cones that conform a *lifeline
//! bead*, whose projection over the x-y plane is an ellipse."
//!
//! Given consecutive samples `(t₁, p₁)` and `(t₂, p₂)` and a maximum speed
//! `vmax`, the object's position at `t ∈ [t₁, t₂]` must satisfy both
//! `|p − p₁| ≤ vmax·(t − t₁)` and `|p − p₂| ≤ vmax·(t₂ − t)` — the
//! intersection of two discs. Projected over all `t`, the reachable set is
//! the ellipse with foci `p₁, p₂` and major-axis length `vmax·(t₂ − t₁)`.

use gisolap_geom::polygon::Polygon;
use gisolap_geom::segment::Segment;
use gisolap_geom::{BBox, Point};

use crate::{Result, TrajError};

/// Three-valued answer for uncertainty queries over beads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reachability {
    /// The region certainly could have been visited (a reachable point of
    /// the bead lies in the region).
    Possible,
    /// The region certainly could **not** have been visited (an alibi).
    Impossible,
    /// The sound bounds disagree; a finer test would be needed.
    Unknown,
}

/// A lifeline bead between two observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bead {
    /// First observation time (seconds).
    pub t1: f64,
    /// First observed position.
    pub p1: Point,
    /// Second observation time (seconds).
    pub t2: f64,
    /// Second observed position.
    pub p2: Point,
    /// Maximum speed bound.
    pub vmax: f64,
}

impl Bead {
    /// Creates a bead; fails if the samples are not reachable at `vmax`
    /// (an *alibi* contradiction) or the times are not increasing.
    pub fn new(t1: f64, p1: Point, t2: f64, p2: Point, vmax: f64) -> Result<Bead> {
        if t2 <= t1 {
            return Err(TrajError::NonMonotonicTime { at: 0 });
        }
        let required = p1.distance(p2) / (t2 - t1);
        if required > vmax {
            return Err(TrajError::SpeedViolation {
                at: 0,
                required,
                vmax,
            });
        }
        Ok(Bead {
            t1,
            p1,
            t2,
            p2,
            vmax,
        })
    }

    /// Major-axis length of the projected ellipse: `vmax·(t₂ − t₁)`.
    pub fn major_axis(&self) -> f64 {
        self.vmax * (self.t2 - self.t1)
    }

    /// The earliest time at which `p` could be visited, if any.
    ///
    /// `p` is reachable during `[t₁ + |p−p₁|/vmax, t₂ − |p−p₂|/vmax]`;
    /// returns the interval when non-empty.
    pub fn visit_window(&self, p: Point) -> Option<(f64, f64)> {
        let lo = self.t1 + p.distance(self.p1) / self.vmax;
        let hi = self.t2 - p.distance(self.p2) / self.vmax;
        (lo <= hi + 1e-12).then_some((lo, hi.max(lo)))
    }

    /// Bounding box of the projected ellipse (conservative: the box of the
    /// disc centred at the ellipse centre with radius = semi-major axis).
    pub(crate) fn projection_bbox(&self) -> BBox {
        let c = self.p1.midpoint(self.p2);
        let a = self.major_axis() / 2.0;
        BBox::new(c.x - a, c.y - a, c.x + a, c.y + a)
    }

    /// Could the object have visited `region` between the two
    /// observations? A sound three-valued test:
    ///
    /// * **Possible** when the region comes within `slack/2` of the
    ///   direct segment `p₁→p₂`, where `slack = vmax·Δt − |p₁p₂|` is the
    ///   spare travel budget — for any point `q`,
    ///   `|q−p₁| + |q−p₂| ≤ 2·d(q, seg) + |p₁p₂|`, so such a `q` is
    ///   reachable.
    /// * **Impossible** when `d(region, p₁) + d(region, p₂) > vmax·Δt` —
    ///   since `min_q (|q−p₁| + |q−p₂|) ≥ min_q |q−p₁| + min_q |q−p₂|`,
    ///   no point of the region is reachable.
    /// * **Unknown** otherwise (the bounds disagree).
    pub fn region_reachability(&self, region: &Polygon) -> Reachability {
        // Fast exit via the projection's bounding box.
        if !self.projection_bbox().intersects(&region.bbox()) {
            return Reachability::Impossible;
        }
        let seg = Segment::new(self.p1, self.p2);
        let budget = self.major_axis();
        let slack = budget - seg.length();

        // Distance from the region to a point / the segment: zero if the
        // geometry intersects, else the boundary minimum.
        let dist_to_point = |p: Point| -> f64 {
            if region.contains(p) {
                0.0
            } else {
                region
                    .edges()
                    .map(|e| e.distance_to_point(p))
                    .fold(f64::INFINITY, f64::min)
            }
        };
        let dist_to_seg = if region.intersects_segment(&seg) {
            0.0
        } else {
            // Sample the segment finely; edges of the region vs segment
            // endpoints give the exact minimum for convex pieces and a
            // tight upper bound in general.
            let mut d = f64::INFINITY;
            const STEPS: usize = 32;
            for k in 0..=STEPS {
                d = d.min(dist_to_point(seg.point_at(k as f64 / STEPS as f64)));
            }
            d
        };

        if 2.0 * dist_to_seg <= slack + 1e-12 {
            return Reachability::Possible;
        }
        if dist_to_point(self.p1) + dist_to_point(self.p2) > budget + 1e-12 {
            return Reachability::Impossible;
        }
        Reachability::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_geom::point::pt;

    fn bead() -> Bead {
        // From (0,0) at t=0 to (10,0) at t=10 with vmax=2 (twice the
        // minimum required speed).
        Bead::new(0.0, pt(0.0, 0.0), 10.0, pt(10.0, 0.0), 2.0).unwrap()
    }

    /// The bead's defining test, as a reference: `p` is possible at `t`
    /// iff it lies in both discs `|p − p₁| ≤ vmax·(t − t₁)` and
    /// `|p − p₂| ≤ vmax·(t₂ − t)`.
    fn contains_at(b: &Bead, t: f64, p: Point) -> bool {
        (b.t1..=b.t2).contains(&t)
            && p.distance(b.p1) <= b.vmax * (t - b.t1) + 1e-12
            && p.distance(b.p2) <= b.vmax * (b.t2 - t) + 1e-12
    }

    /// The projection as a reference: the ellipse with foci `p₁`, `p₂`
    /// and major axis `vmax·(t₂ − t₁)`.
    fn projection_contains(b: &Bead, p: Point) -> bool {
        p.distance(b.p1) + p.distance(b.p2) <= b.major_axis() + 1e-12
    }

    #[test]
    fn construction_enforces_alibi() {
        assert!(Bead::new(0.0, pt(0.0, 0.0), 10.0, pt(10.0, 0.0), 1.0).is_ok()); // exactly reachable
        assert!(matches!(
            Bead::new(0.0, pt(0.0, 0.0), 10.0, pt(30.0, 0.0), 1.0),
            Err(TrajError::SpeedViolation { .. })
        ));
        assert!(Bead::new(5.0, pt(0.0, 0.0), 5.0, pt(0.0, 0.0), 1.0).is_err());
    }

    #[test]
    fn visit_window_matches_containment() {
        let b = bead();
        let q = pt(5.0, 0.0);
        let (lo, hi) = b.visit_window(q).unwrap();
        assert!((lo - 2.5).abs() < 1e-12);
        assert!((hi - 7.5).abs() < 1e-12);
        assert!(contains_at(&b, lo, q) && contains_at(&b, hi, q));
        // Unreachable point has no window.
        assert!(b.visit_window(pt(50.0, 50.0)).is_none());
    }

    #[test]
    fn region_reachability_three_values() {
        let b = bead(); // (0,0)→(10,0) over 10 s, vmax 2: budget 20, slack 10.
                        // A region straddling the direct path: certainly possible.
        let on_path = Polygon::rectangle(4.0, -1.0, 6.0, 1.0);
        assert_eq!(b.region_reachability(&on_path), Reachability::Possible);
        // Within the slack corridor (distance 3 ≤ slack/2 = 5): possible.
        let near = Polygon::rectangle(4.0, 3.0, 6.0, 4.0);
        assert_eq!(b.region_reachability(&near), Reachability::Possible);
        // Far beyond the budget: impossible.
        let far = Polygon::rectangle(4.0, 50.0, 6.0, 60.0);
        assert_eq!(b.region_reachability(&far), Reachability::Impossible);
        // Far off to the side but bbox-disjoint too.
        let off = Polygon::rectangle(100.0, 0.0, 110.0, 10.0);
        assert_eq!(b.region_reachability(&off), Reachability::Impossible);
    }

    #[test]
    fn region_reachability_is_consistent_with_projection() {
        // Any region whose sampled points are inside the projection
        // ellipse must not be classified Impossible.
        let b = bead();
        let inside = Polygon::rectangle(4.5, 8.0, 5.5, 8.5); // near the top of the ellipse
        assert!(projection_contains(&b, pt(5.0, 8.2)));
        assert_ne!(b.region_reachability(&inside), Reachability::Impossible);
    }

    #[test]
    fn projection_bbox_covers_ellipse() {
        let b = bead();
        let bb = b.projection_bbox();
        assert!(bb.contains(pt(-5.0, 0.0)));
        assert!(bb.contains(pt(15.0, 0.0)));
        assert!(bb.contains(pt(5.0, 8.6)));
    }
}
