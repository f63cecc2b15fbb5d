//! Points and 2-D vectors.

use crate::GeomError;

/// A point in the Euclidean plane.
///
/// The paper's algebraic part describes data as point sets `(x, y, l)`;
/// the layer component `l` lives at a higher level (`gisolap-core`), so at
/// this level a point is just an `(x, y)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement in the plane (difference of two [`Point`]s).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Returns an error if either coordinate is NaN or infinite.
    pub fn validate(self) -> crate::Result<Self> {
        if self.x.is_finite() && self.y.is_finite() {
            Ok(self)
        } else {
            Err(GeomError::NonFiniteCoordinate)
        }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).length()
    }

    /// Linear interpolation: returns `self` at `t = 0` and `other` at `t = 1`.
    ///
    /// This is the primitive underlying the paper's linear-interpolation
    /// trajectory `LIT(S)` (Section 3, after Definition 6).
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }
}

impl Vec2 {
    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (the `z` component of the 3-D cross product).
    #[inline]
    pub(crate) fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length.
    #[inline]
    pub(crate) fn length_sq(self) -> f64 {
        self.dot(self)
    }

    /// Unit-length copy of this vector; `None` for the zero vector.
    pub fn normalized(self) -> Option<Vec2> {
        let len = self.length();
        if len == 0.0 {
            None
        } else {
            Some(Vec2::new(self.x / len, self.y / len))
        }
    }

    /// Angle of the vector in radians, in `(-π, π]`, measured from +x axis.
    #[inline]
    pub(crate) fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl std::ops::Sub for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl std::ops::Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Shorthand constructor, handy in tests and literals.
#[inline]
pub fn pt(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(pt(0.0, 0.0).distance(pt(3.0, 4.0)), 5.0);
    }

    #[test]
    fn lerp_hits_endpoints_and_midpoint() {
        let a = pt(2.0, -1.0);
        let b = pt(6.0, 3.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), pt(4.0, 1.0));
        assert_eq!(a.midpoint(b), pt(4.0, 1.0));
    }

    #[test]
    fn cross_sign_encodes_turn_direction() {
        let e1 = Vec2::new(1.0, 0.0);
        let e2 = Vec2::new(0.0, 1.0);
        assert!(e1.cross(e2) > 0.0); // counter-clockwise
        assert!(e2.cross(e1) < 0.0); // clockwise
        assert_eq!(e1.cross(e1), 0.0); // parallel
    }

    #[test]
    fn normalized_handles_zero() {
        assert!(Vec2::new(0.0, 0.0).normalized().is_none());
        let n = Vec2::new(3.0, 4.0).normalized().unwrap();
        assert!((n.length() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn validate_rejects_non_finite() {
        assert!(pt(f64::NAN, 0.0).validate().is_err());
        assert!(pt(0.0, f64::INFINITY).validate().is_err());
        assert!(pt(0.0, 0.0).validate().is_ok());
    }
}
