//! Trajectory samples (paper Definition 6).

use gisolap_geom::Point;
use gisolap_olap::time::TimeId;

use crate::{Result, TrajError};

/// One observation: the object was at `pos` at instant `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Observation instant.
    pub t: TimeId,
    /// Observed position.
    pub pos: Point,
}

/// A trajectory sample: "a list of time-space points
/// `⟨(t₀,x₀,y₀), …, (t_N,x_N,y_N)⟩` … `t₀ < t₁ < ⋯ < t_N`"
/// (Definition 6).
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySample {
    points: Vec<SamplePoint>,
}

impl TrajectorySample {
    /// Builds a sample, validating monotone time and finite coordinates.
    pub fn new(points: Vec<SamplePoint>) -> Result<TrajectorySample> {
        if points.is_empty() {
            return Err(TrajError::Empty);
        }
        for (i, p) in points.iter().enumerate() {
            if p.pos.validate().is_err() {
                return Err(TrajError::NonFiniteCoordinate);
            }
            if i > 0 && points[i - 1].t >= p.t {
                return Err(TrajError::NonMonotonicTime { at: i });
            }
        }
        Ok(TrajectorySample { points })
    }

    /// Convenience constructor from `(t_seconds, x, y)` triples.
    pub fn from_triples(triples: &[(i64, f64, f64)]) -> Result<TrajectorySample> {
        TrajectorySample::new(
            triples
                .iter()
                .map(|&(t, x, y)| SamplePoint {
                    t: TimeId(t),
                    pos: Point::new(x, y),
                })
                .collect(),
        )
    }

    /// The observations, in time order.
    pub fn points(&self) -> &[SamplePoint] {
        &self.points
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `false` — construction guarantees at least one point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First observation instant `t₀`.
    pub(crate) fn start_time(&self) -> TimeId {
        self.points[0].t
    }

    /// Last observation instant `t_N`.
    pub(crate) fn end_time(&self) -> TimeId {
        self.points[self.points.len() - 1].t
    }

    /// Time span `t_N − t₀` in seconds.
    pub fn duration(&self) -> i64 {
        self.end_time().0 - self.start_time().0
    }

    /// `true` iff the sample starts and ends at the same position — the
    /// precondition for a *closed trajectory* (paper, after Definition 6).
    pub fn is_closed(&self) -> bool {
        self.points[0].pos == self.points[self.points.len() - 1].pos
    }

    /// The observation exactly at `t`, if any.
    pub fn at(&self, t: TimeId) -> Option<Point> {
        self.points
            .binary_search_by_key(&t, |p| p.t)
            .ok()
            .map(|i| self.points[i].pos)
    }

    /// Restriction of the sample to observations with `t ∈ [from, to]`.
    /// Returns `None` if no observation falls in the window.
    pub fn restrict(&self, from: TimeId, to: TimeId) -> Option<TrajectorySample> {
        let pts: Vec<SamplePoint> = self
            .points
            .iter()
            .copied()
            .filter(|p| p.t >= from && p.t <= to)
            .collect();
        if pts.is_empty() {
            None
        } else {
            Some(TrajectorySample { points: pts })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(TrajectorySample::new(vec![]), Err(TrajError::Empty));
        assert!(TrajectorySample::from_triples(&[(0, 0.0, 0.0)]).is_ok());
        assert_eq!(
            TrajectorySample::from_triples(&[(5, 0.0, 0.0), (5, 1.0, 1.0)]),
            Err(TrajError::NonMonotonicTime { at: 1 })
        );
        assert_eq!(
            TrajectorySample::from_triples(&[(5, 0.0, 0.0), (1, 1.0, 1.0)]),
            Err(TrajError::NonMonotonicTime { at: 1 })
        );
        assert_eq!(
            TrajectorySample::from_triples(&[(0, f64::NAN, 0.0)]),
            Err(TrajError::NonFiniteCoordinate)
        );
    }

    #[test]
    fn accessors() {
        let s = TrajectorySample::from_triples(&[(0, 0.0, 0.0), (10, 3.0, 4.0), (20, 0.0, 0.0)])
            .unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.start_time(), TimeId(0));
        assert_eq!(s.end_time(), TimeId(20));
        assert_eq!(s.duration(), 20);
        assert!(s.is_closed());
        assert_eq!(s.at(TimeId(10)), Some(Point::new(3.0, 4.0)));
        assert_eq!(s.at(TimeId(11)), None);
    }

    #[test]
    fn open_trajectory_not_closed() {
        let s = TrajectorySample::from_triples(&[(0, 0.0, 0.0), (10, 1.0, 1.0)]).unwrap();
        assert!(!s.is_closed());
    }

    #[test]
    fn restriction() {
        let s = TrajectorySample::from_triples(&[
            (0, 0.0, 0.0),
            (10, 1.0, 0.0),
            (20, 2.0, 0.0),
            (30, 3.0, 0.0),
        ])
        .unwrap();
        let r = s.restrict(TimeId(10), TimeId(20)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.start_time(), TimeId(10));
        assert!(s.restrict(TimeId(100), TimeId(200)).is_none());
    }
}
