//! Axis-aligned bounding boxes.

use crate::point::Point;

/// An axis-aligned bounding box (the paper's "bounding box determining the
/// portion of the city under consideration", Section 1.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl BBox {
    /// A box from explicit bounds. `min` components must not exceed `max`.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> BBox {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted bbox");
        BBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The degenerate box containing a single point.
    #[inline]
    pub fn from_point(p: Point) -> BBox {
        BBox::new(p.x, p.y, p.x, p.y)
    }

    /// The "empty" box: an identity for [`BBox::union`]. Contains nothing.
    #[inline]
    pub fn empty() -> BBox {
        BBox {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// `true` iff this is the empty box.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Smallest box containing every point of an iterator; empty box for an
    /// empty iterator.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> BBox {
        points
            .into_iter()
            .fold(BBox::empty(), |b, p| b.expanded_to(p))
    }

    /// Smallest box containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Smallest box containing `self` and the point `p`.
    #[inline]
    pub fn expanded_to(&self, p: Point) -> BBox {
        BBox {
            min_x: self.min_x.min(p.x),
            min_y: self.min_y.min(p.y),
            max_x: self.max_x.max(p.x),
            max_y: self.max_y.max(p.y),
        }
    }

    /// Box grown by `margin` on every side.
    #[inline]
    pub fn inflated(&self, margin: f64) -> BBox {
        BBox {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }

    /// `true` iff `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// `true` iff the closed boxes share at least one point.
    #[inline]
    pub fn intersects(&self, other: &BBox) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// The common region of two boxes, or `None` if disjoint.
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        if !self.intersects(other) {
            return None;
        }
        Some(BBox {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// `true` iff `other` lies fully inside (or on the boundary of) `self`.
    #[inline]
    pub fn contains_box(&self, other: &BBox) -> bool {
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// Width along the x axis (0 for the empty box).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height along the y axis (0 for the empty box).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Area of the box (0 for the empty box).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point of the box.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// Minimum distance from `p` to the box (0 if `p` is inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    #[test]
    fn empty_is_union_identity() {
        let b = BBox::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(BBox::empty().union(&b), b);
        assert!(BBox::empty().is_empty());
        assert!(!b.is_empty());
    }

    #[test]
    fn from_points_covers_all() {
        let b = BBox::from_points([pt(1.0, 5.0), pt(-2.0, 0.0), pt(3.0, 2.0)]);
        assert_eq!(b, BBox::new(-2.0, 0.0, 3.0, 5.0));
        assert!(BBox::from_points(std::iter::empty()).is_empty());
    }

    #[test]
    fn containment_is_boundary_inclusive() {
        let b = BBox::new(0.0, 0.0, 2.0, 2.0);
        assert!(b.contains(pt(0.0, 0.0)));
        assert!(b.contains(pt(2.0, 2.0)));
        assert!(b.contains(pt(1.0, 1.0)));
        assert!(!b.contains(pt(2.0001, 1.0)));
    }

    #[test]
    fn intersection_and_disjointness() {
        let a = BBox::new(0.0, 0.0, 2.0, 2.0);
        let b = BBox::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(BBox::new(1.0, 1.0, 2.0, 2.0)));
        let c = BBox::new(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersection(&c).is_none());
        // Touching boxes intersect (closed semantics).
        let d = BBox::new(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(&d));
        assert_eq!(a.intersection(&d).unwrap().area(), 0.0);
    }

    #[test]
    fn metrics() {
        let b = BBox::new(0.0, 0.0, 3.0, 4.0);
        assert_eq!(b.width(), 3.0);
        assert_eq!(b.height(), 4.0);
        assert_eq!(b.area(), 12.0);
        assert_eq!(b.center(), pt(1.5, 2.0));
    }

    #[test]
    fn distance_to_point_zero_inside() {
        let b = BBox::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(b.distance_to_point(pt(1.0, 1.0)), 0.0);
        assert_eq!(b.distance_to_point(pt(5.0, 2.0)), 3.0);
        assert_eq!(b.distance_to_point(pt(5.0, 6.0)), 5.0);
    }

    #[test]
    fn contains_box_and_inflate() {
        let outer = BBox::new(0.0, 0.0, 10.0, 10.0);
        let inner = BBox::new(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        assert!(inner.inflated(10.0).contains_box(&outer));
    }
}
