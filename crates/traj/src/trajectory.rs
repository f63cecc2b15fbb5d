//! Trajectories under the linear-interpolation model.
//!
//! The paper (after Definition 6) reconstructs a trajectory from a sample
//! with the classical linear-interpolation model: "a unique trajectory is
//! constructed such that it contains the sample and is obtained by
//! assuming that the trajectory is run through at constant lowest speed
//! between any two consecutive sample points":
//!
//! ```text
//! LIT(S) := ⋃ { (t, ((tᵢ₊₁−t)xᵢ + (t−tᵢ)xᵢ₊₁)/(tᵢ₊₁−tᵢ),
//!                   ((tᵢ₊₁−t)yᵢ + (t−tᵢ)yᵢ₊₁)/(tᵢ₊₁−tᵢ)) | tᵢ ≤ t ≤ tᵢ₊₁ }
//! ```

use gisolap_geom::polyline::Polyline;
use gisolap_geom::segment::Segment;
use gisolap_geom::{BBox, Point};

use crate::moft::Record;
use crate::sample::{SamplePoint, TrajectorySample};
use crate::Result;

/// One linear leg of a LIT trajectory: the object moves from `seg.a` at
/// `t0` to `seg.b` at `t1` at constant speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedSegment {
    /// Leg start time (seconds).
    pub t0: f64,
    /// Leg end time (seconds).
    pub t1: f64,
    /// The spatial segment covered during `[t0, t1]`.
    pub seg: Segment,
}

impl TimedSegment {
    /// Leg duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Constant speed on this leg (units per second).
    pub fn speed(&self) -> f64 {
        self.seg.length() / self.duration()
    }

    /// Position at `t ∈ [t0, t1]`.
    pub fn position_at(&self, t: f64) -> Point {
        let u = if self.t1 == self.t0 {
            0.0
        } else {
            (t - self.t0) / (self.t1 - self.t0)
        };
        self.seg.point_at(u.clamp(0.0, 1.0))
    }

    /// Converts a parameter `u ∈ [0,1]` along the segment to an absolute
    /// time.
    pub fn param_to_time(&self, u: f64) -> f64 {
        self.t0 + u * (self.t1 - self.t0)
    }
}

/// The linear-interpolation trajectory `LIT(S)` of a sample `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lit {
    sample: TrajectorySample,
}

impl Lit {
    /// Builds the LIT of a sample.
    pub fn new(sample: TrajectorySample) -> Lit {
        Lit { sample }
    }

    /// Builds a LIT from MOFT records of a single object (time-sorted, as
    /// returned by [`crate::moft::Moft::track`]).
    pub fn from_track(records: &[Record]) -> Result<Lit> {
        let points: Vec<SamplePoint> = records
            .iter()
            .map(|r| SamplePoint {
                t: r.t,
                pos: Point::new(r.x, r.y),
            })
            .collect();
        Ok(Lit::new(TrajectorySample::new(points)?))
    }

    /// The underlying sample.
    pub fn sample(&self) -> &TrajectorySample {
        &self.sample
    }

    /// The time domain `I = [t₀, t_N]` in seconds.
    pub fn time_domain(&self) -> (f64, f64) {
        (
            self.sample.start_time().0 as f64,
            self.sample.end_time().0 as f64,
        )
    }

    /// `true` iff `t` lies in the time domain.
    pub(crate) fn defined_at(&self, t: f64) -> bool {
        let (a, b) = self.time_domain();
        t >= a && t <= b
    }

    /// `true` iff the trajectory is closed (equal endpoints, paper §3).
    pub fn is_closed(&self) -> bool {
        self.sample.is_closed()
    }

    /// Iterator over the interpolation legs (empty for single-point
    /// samples).
    pub fn segments(&self) -> impl Iterator<Item = TimedSegment> + '_ {
        self.sample.points().windows(2).map(|w| TimedSegment {
            t0: w[0].t.0 as f64,
            t1: w[1].t.0 as f64,
            seg: Segment::new(w[0].pos, w[1].pos),
        })
    }

    /// Position at time `t`, or `None` outside the time domain.
    ///
    /// This is the paper's formula for `LIT(S)` evaluated at `t`.
    pub fn position_at(&self, t: f64) -> Option<Point> {
        if !self.defined_at(t) {
            return None;
        }
        let pts = self.sample.points();
        if pts.len() == 1 {
            return Some(pts[0].pos);
        }
        // Binary search for the leg containing t.
        let idx = pts.partition_point(|p| (p.t.0 as f64) <= t);
        let i = idx.clamp(1, pts.len() - 1);
        let (a, b) = (&pts[i - 1], &pts[i]);
        let (t0, t1) = (a.t.0 as f64, b.t.0 as f64);
        let u = ((t - t0) / (t1 - t0)).clamp(0.0, 1.0);
        Some(a.pos.lerp(b.pos, u))
    }

    /// Total length of the image (sum of leg lengths).
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.seg.length()).sum()
    }

    /// Average speed over the whole time domain (`None` for single-point
    /// trajectories).
    pub fn average_speed(&self) -> Option<f64> {
        let d = self.sample.duration();
        (d > 0).then(|| self.length() / d as f64)
    }

    /// Maximum instantaneous (leg) speed.
    pub fn max_speed(&self) -> Option<f64> {
        self.segments().map(|s| s.speed()).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// The image of the trajectory as a spatial polyline (the paper's
    /// query type 6: "the trajectory can be treated as a static polyline
    /// in a spatial query"). `None` when the image degenerates to a point.
    pub fn image_polyline(&self) -> Option<Polyline> {
        Polyline::new(self.sample.points().iter().map(|p| p.pos).collect()).ok()
    }

    /// Bounding box of the image.
    pub fn bbox(&self) -> BBox {
        BBox::from_points(self.sample.points().iter().map(|p| p.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(triples: &[(i64, f64, f64)]) -> Lit {
        Lit::new(TrajectorySample::from_triples(triples).unwrap())
    }

    #[test]
    fn position_interpolates_linearly() {
        let l = lit(&[(0, 0.0, 0.0), (10, 10.0, 0.0), (20, 10.0, 10.0)]);
        assert_eq!(l.position_at(0.0), Some(Point::new(0.0, 0.0)));
        assert_eq!(l.position_at(5.0), Some(Point::new(5.0, 0.0)));
        assert_eq!(l.position_at(10.0), Some(Point::new(10.0, 0.0)));
        assert_eq!(l.position_at(15.0), Some(Point::new(10.0, 5.0)));
        assert_eq!(l.position_at(20.0), Some(Point::new(10.0, 10.0)));
        assert_eq!(l.position_at(-1.0), None);
        assert_eq!(l.position_at(21.0), None);
    }

    #[test]
    fn quarter_circle_example_endpoints() {
        // The paper's example trajectory {(t, (1−t²)/(1+t²), 2t/(1+t²))}
        // starts at (1,0) and ends at (0,1); its LIT approximation with
        // those two samples is the chord.
        let l = lit(&[(0, 1.0, 0.0), (1, 0.0, 1.0)]);
        let mid = l.position_at(0.5).unwrap();
        assert_eq!(mid, Point::new(0.5, 0.5));
    }

    #[test]
    fn constant_lowest_speed_per_leg() {
        let l = lit(&[(0, 0.0, 0.0), (10, 10.0, 0.0), (30, 10.0, 10.0)]);
        let legs: Vec<TimedSegment> = l.segments().collect();
        assert_eq!(legs.len(), 2);
        assert_eq!(legs[0].speed(), 1.0);
        assert_eq!(legs[1].speed(), 0.5);
        assert_eq!(l.max_speed(), Some(1.0));
        assert_eq!(l.average_speed(), Some(20.0 / 30.0));
    }

    #[test]
    fn length_and_bbox() {
        let l = lit(&[(0, 0.0, 0.0), (10, 3.0, 4.0)]);
        assert_eq!(l.length(), 5.0);
        assert_eq!(l.bbox(), BBox::new(0.0, 0.0, 3.0, 4.0));
    }

    #[test]
    fn single_point_trajectory() {
        let l = lit(&[(5, 2.0, 3.0)]);
        assert_eq!(l.position_at(5.0), Some(Point::new(2.0, 3.0)));
        assert_eq!(l.position_at(5.5), None);
        assert_eq!(l.length(), 0.0);
        assert_eq!(l.average_speed(), None);
        assert!(l.image_polyline().is_none());
    }

    #[test]
    fn closedness() {
        assert!(lit(&[(0, 1.0, 1.0), (5, 2.0, 2.0), (9, 1.0, 1.0)]).is_closed());
        assert!(!lit(&[(0, 1.0, 1.0), (5, 2.0, 2.0)]).is_closed());
    }

    #[test]
    fn image_polyline_matches_length() {
        let l = lit(&[(0, 0.0, 0.0), (10, 2.0, 0.0), (20, 2.0, 2.0)]);
        let pl = l.image_polyline().unwrap();
        assert_eq!(pl.length(), l.length());
    }
}
