//! Trajectory/region operations.
//!
//! These implement the spatial machinery behind the paper's query types
//! 6–8: treating a trajectory as a static polyline, interpolation-based
//! region visits ("a linear interpolation may indicate that the object has
//! passed through that neighborhood", §3.1 type 7), continuous time spent
//! in a region (query 5 of §4), and within-radius intervals (queries 6–7
//! of §4).

use gisolap_geom::clip::clip_segment_to_polygon;
use gisolap_geom::polygon::Polygon;
use gisolap_geom::Point;
use gisolap_olap::time::TimeId;

use crate::moft::Record;
use crate::trajectory::Lit;

/// A closed time interval `[start, end]` in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeInterval {
    /// Interval start.
    pub start: f64,
    /// Interval end.
    pub end: f64,
}

impl TimeInterval {
    /// Interval duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Merges adjacent/overlapping intervals in a sorted list.
fn merge_intervals(mut ivs: Vec<TimeInterval>) -> Vec<TimeInterval> {
    ivs.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut out: Vec<TimeInterval> = Vec::with_capacity(ivs.len());
    for iv in ivs {
        match out.last_mut() {
            Some(last) if iv.start <= last.end + 1e-12 => last.end = last.end.max(iv.end),
            _ => out.push(iv),
        }
    }
    out
}

/// The maximal time intervals during which the (interpolated) trajectory
/// is inside `region` (boundary-inclusive).
///
/// This is the continuous semantics of query 5 ("total amount of time
/// spent continuously by cars in Antwerp"): interval boundaries are exact
/// crossing times of the linear interpolation.
pub fn intervals_in_region(lit: &Lit, region: &Polygon) -> Vec<TimeInterval> {
    let mut ivs: Vec<TimeInterval> = Vec::new();
    for leg in lit.segments() {
        for p in clip_segment_to_polygon(&leg.seg, region) {
            ivs.push(TimeInterval {
                start: leg.param_to_time(p.start),
                end: leg.param_to_time(p.end),
            });
        }
    }
    // Single-point trajectories have no legs; handle membership directly.
    if lit.sample().len() == 1 {
        let p = lit.sample().points()[0];
        if region.contains(p.pos) {
            let t = p.t.0 as f64;
            ivs.push(TimeInterval { start: t, end: t });
        }
    }
    merge_intervals(ivs)
}

/// Total time (seconds) the interpolated trajectory spends inside
/// `region`.
pub fn time_in_region(lit: &Lit, region: &Polygon) -> f64 {
    intervals_in_region(lit, region)
        .iter()
        .map(TimeInterval::duration)
        .sum()
}

/// `true` iff the interpolated trajectory touches `region` at any instant
/// — the paper's *passes through* predicate (query type 7). Catches
/// objects that cross a region **between** samples, which sample-based
/// evaluation misses (object O6 of Figure 1).
pub fn passes_through(lit: &Lit, region: &Polygon) -> bool {
    if !lit.bbox().intersects(&region.bbox()) {
        return false;
    }
    !intervals_in_region(lit, region).is_empty()
}

/// Number of maximal visits (connected time intervals inside `region`).
pub fn visit_count(lit: &Lit, region: &Polygon) -> usize {
    intervals_in_region(lit, region).len()
}

/// `true` iff **every** instant of the trajectory lies inside `region`
/// (the "passing completely through cities" requirement of query 3 needs
/// its negation: some instant outside).
pub fn always_inside(lit: &Lit, region: &Polygon) -> bool {
    let ivs = intervals_in_region(lit, region);
    let (t0, t1) = lit.time_domain();
    // One merged interval covering the whole domain.
    ivs.len() == 1 && ivs[0].start <= t0 + 1e-9 && ivs[0].end >= t1 - 1e-9
}

/// Sample-based membership: the observation instants whose recorded
/// position lies inside `region` (boundary-inclusive).
///
/// This is the *trajectory sample* semantics the paper uses for type-4
/// queries ("we are assuming that cars are only in the regions where they
/// were sampled").
pub fn samples_in_region<'a>(
    track: impl IntoIterator<Item = &'a Record>,
    region: &Polygon,
) -> Vec<TimeId> {
    track
        .into_iter()
        .filter(|r| region.contains(r.pos()))
        .map(|r| r.t)
        .collect()
}

/// The maximal time intervals during which the interpolated trajectory is
/// within distance `radius` of `center` (queries 6–7 of §4: "within a
/// radius of 100m from schools", "less than four meters away from the
/// tram stop").
///
/// Per leg, `|p(t) − c|² ≤ r²` is a quadratic inequality in `t`, solved
/// exactly.
pub fn intervals_within_distance(lit: &Lit, center: Point, radius: f64) -> Vec<TimeInterval> {
    let mut ivs: Vec<TimeInterval> = Vec::new();
    for leg in lit.segments() {
        let d = leg.seg.delta();
        let w = leg.seg.a - center;
        // |w + u·d|² ≤ r², u ∈ [0,1]
        let a = d.dot(d);
        let b = 2.0 * w.dot(d);
        let c = w.dot(w) - radius * radius;
        let (u0, u1) = if a == 0.0 {
            // Stationary leg: inside for the whole leg or not at all.
            if c <= 0.0 {
                (0.0, 1.0)
            } else {
                continue;
            }
        } else {
            let disc = b * b - 4.0 * a * c;
            if disc < 0.0 {
                continue;
            }
            let sq = disc.sqrt();
            let lo = (-b - sq) / (2.0 * a);
            let hi = (-b + sq) / (2.0 * a);
            let lo = lo.max(0.0);
            let hi = hi.min(1.0);
            if lo > hi {
                continue;
            }
            (lo, hi)
        };
        ivs.push(TimeInterval {
            start: leg.param_to_time(u0),
            end: leg.param_to_time(u1),
        });
    }
    if lit.sample().len() == 1 {
        let p = lit.sample().points()[0];
        if p.pos.distance(center) <= radius {
            let t = p.t.0 as f64;
            ivs.push(TimeInterval { start: t, end: t });
        }
    }
    merge_intervals(ivs)
}

/// Total time (seconds) spent within `radius` of `center`.
pub fn time_within_distance(lit: &Lit, center: Point, radius: f64) -> f64 {
    intervals_within_distance(lit, center, radius)
        .iter()
        .map(TimeInterval::duration)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::TrajectorySample;
    use gisolap_geom::point::pt;

    fn lit(triples: &[(i64, f64, f64)]) -> Lit {
        Lit::new(TrajectorySample::from_triples(triples).unwrap())
    }

    fn square() -> Polygon {
        Polygon::rectangle(0.0, 0.0, 10.0, 10.0)
    }

    #[test]
    fn time_in_region_crossing() {
        // Crosses the square along y=5 from x=-10 to x=20 in 30 s
        // (1 unit/s): inside during t ∈ [10, 20].
        let l = lit(&[(0, -10.0, 5.0), (30, 20.0, 5.0)]);
        let ivs = intervals_in_region(&l, &square());
        assert_eq!(ivs.len(), 1);
        assert!((ivs[0].start - 10.0).abs() < 1e-9);
        assert!((ivs[0].end - 20.0).abs() < 1e-9);
        assert!((time_in_region(&l, &square()) - 10.0).abs() < 1e-9);
        assert_eq!(visit_count(&l, &square()), 1);
    }

    #[test]
    fn passes_through_between_samples() {
        // Object O6 of Figure 1: both samples outside the region, but the
        // interpolated segment cuts through it.
        let l = lit(&[(0, -5.0, 5.0), (10, 15.0, 5.0)]);
        assert!(passes_through(&l, &square()));
        let recs = [
            Record {
                oid: crate::ObjectId(6),
                t: TimeId(0),
                x: -5.0,
                y: 5.0,
            },
            Record {
                oid: crate::ObjectId(6),
                t: TimeId(10),
                x: 15.0,
                y: 5.0,
            },
        ];
        assert!(samples_in_region(recs.iter(), &square()).is_empty());
    }

    #[test]
    fn never_enters() {
        let l = lit(&[(0, -5.0, 20.0), (10, 15.0, 20.0)]);
        assert!(!passes_through(&l, &square()));
        assert_eq!(time_in_region(&l, &square()), 0.0);
        assert!(!always_inside(&l, &square()));
    }

    #[test]
    fn always_inside_detection() {
        let l = lit(&[(0, 2.0, 2.0), (10, 8.0, 8.0)]);
        assert!(always_inside(&l, &square()));
        let leaves = lit(&[(0, 2.0, 2.0), (10, 15.0, 2.0), (20, 2.0, 2.0)]);
        assert!(!always_inside(&leaves, &square()));
        assert_eq!(visit_count(&leaves, &square()), 2);
    }

    #[test]
    fn multiple_visits_merge_correctly() {
        // In at [0,10], out, back in at [30, 40].
        let l = lit(&[
            (0, 5.0, 5.0),
            (10, 5.0, 15.0), // leaves through the top at t=5
            (30, 5.0, 15.0),
        ]);
        // leg1: (5,5)→(5,15): inside for y≤10 → first half: t∈[0,5].
        // leg2: stationary outside.
        let ivs = intervals_in_region(&l, &square());
        assert_eq!(ivs.len(), 1);
        assert!((ivs[0].end - 5.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_inside() {
        let l = lit(&[(0, 5.0, 5.0), (100, 5.0, 5.0)]);
        assert!((time_in_region(&l, &square()) - 100.0).abs() < 1e-12);
        assert!(always_inside(&l, &square()));
    }

    #[test]
    fn single_point_membership() {
        let inside = lit(&[(7, 5.0, 5.0)]);
        assert!(passes_through(&inside, &square()));
        assert_eq!(intervals_in_region(&inside, &square()).len(), 1);
        let outside = lit(&[(7, 50.0, 5.0)]);
        assert!(!passes_through(&outside, &square()));
    }

    #[test]
    fn samples_in_region_sample_semantics() {
        let recs = [
            Record {
                oid: crate::ObjectId(1),
                t: TimeId(0),
                x: 5.0,
                y: 5.0,
            },
            Record {
                oid: crate::ObjectId(1),
                t: TimeId(10),
                x: 50.0,
                y: 5.0,
            },
            Record {
                oid: crate::ObjectId(1),
                t: TimeId(20),
                x: 0.0,
                y: 0.0,
            }, // corner: boundary counts
        ];
        let hits = samples_in_region(recs.iter(), &square());
        assert_eq!(hits, vec![TimeId(0), TimeId(20)]);
    }

    #[test]
    fn within_distance_quadratic() {
        // Moving along y=0 from x=-10 to x=10 in 20 s; center origin,
        // radius 5 → inside for x ∈ [-5, 5] → t ∈ [5, 15].
        let l = lit(&[(0, -10.0, 0.0), (20, 10.0, 0.0)]);
        let ivs = intervals_within_distance(&l, pt(0.0, 0.0), 5.0);
        assert_eq!(ivs.len(), 1);
        assert!((ivs[0].start - 5.0).abs() < 1e-9);
        assert!((ivs[0].end - 15.0).abs() < 1e-9);
        assert!((time_within_distance(&l, pt(0.0, 0.0), 5.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn within_distance_tangent_and_miss() {
        let l = lit(&[(0, -10.0, 5.0), (20, 10.0, 5.0)]);
        // Tangent: radius exactly 5 touches at one instant.
        let ivs = intervals_within_distance(&l, pt(0.0, 0.0), 5.0);
        assert_eq!(ivs.len(), 1);
        assert!(ivs[0].duration() < 1e-6);
        // Miss entirely.
        assert!(intervals_within_distance(&l, pt(0.0, 0.0), 4.0).is_empty());
    }

    #[test]
    fn within_distance_stationary() {
        let l = lit(&[(0, 1.0, 0.0), (50, 1.0, 0.0)]);
        assert!((time_within_distance(&l, pt(0.0, 0.0), 2.0) - 50.0).abs() < 1e-12);
        assert_eq!(time_within_distance(&l, pt(9.0, 0.0), 2.0), 0.0);
    }

    #[test]
    fn multi_leg_within_distance_merges_at_vertices() {
        // Path bends at the origin; both legs are within radius near the
        // bend — must merge into one interval, not two.
        let l = lit(&[(0, -10.0, 0.0), (10, 0.0, 0.0), (20, 0.0, 10.0)]);
        let ivs = intervals_within_distance(&l, pt(0.0, 0.0), 3.0);
        assert_eq!(ivs.len(), 1);
        assert!((ivs[0].start - 7.0).abs() < 1e-9);
        assert!((ivs[0].end - 13.0).abs() < 1e-9);
    }
}
