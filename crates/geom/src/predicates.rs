//! Robust geometric predicates.
//!
//! Topological decisions (which side of a line a point lies on, whether two
//! segments cross, whether a point sits exactly on a boundary) must never be
//! corrupted by floating-point rounding, or downstream structures — polygon
//! overlay in particular — produce inconsistent topology. This module
//! implements the classic *adaptive* `orient2d` predicate after Shewchuk:
//! a fast floating-point filter with a certified error bound, falling back
//! to exact floating-point *expansion* arithmetic only in the (rare)
//! near-degenerate cases.
//!
//! The expansion arithmetic here is a compact, self-contained subset of
//! Shewchuk's "Adaptive Precision Floating-Point Arithmetic" routines:
//! `two_sum`, `two_diff`, `two_product` (via FMA), and expansion summation.

use crate::point::Point;

/// Result of an orientation test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The three points make a left (counter-clockwise) turn.
    CounterClockwise,
    /// The three points make a right (clockwise) turn.
    Clockwise,
    /// The three points are exactly collinear.
    Collinear,
}

impl Orientation {
    /// Maps the sign of a determinant to an orientation.
    #[inline]
    pub(crate) fn from_sign(d: f64) -> Orientation {
        if d > 0.0 {
            Orientation::CounterClockwise
        } else if d < 0.0 {
            Orientation::Clockwise
        } else {
            Orientation::Collinear
        }
    }

    /// The mirror-image orientation.
    #[inline]
    pub fn reversed(self) -> Orientation {
        match self {
            Orientation::CounterClockwise => Orientation::Clockwise,
            Orientation::Clockwise => Orientation::CounterClockwise,
            Orientation::Collinear => Orientation::Collinear,
        }
    }
}

// --- error-free transformations -------------------------------------------

/// Knuth's TwoSum: returns `(s, e)` with `s = fl(a + b)` and `a + b = s + e`
/// exactly.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bv = s - a;
    let av = s - bv;
    let e = (a - av) + (b - bv);
    (s, e)
}

/// TwoDiff: `(d, e)` with `d = fl(a - b)` and `a - b = d + e` exactly.
#[inline]
fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let d = a - b;
    let bv = a - d;
    let av = d + bv;
    let e = (a - av) + (bv - b);
    (d, e)
}

/// TwoProduct via fused multiply-add: `(p, e)` with `p = fl(a * b)` and
/// `a * b = p + e` exactly.
#[inline]
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

/// Sums a small expansion (nonoverlapping components, increasing magnitude)
/// exactly enough for a sign decision: we accumulate with compensated
/// summation over the 8 components produced by the exact 2×2 determinant.
///
/// For `orient2d` the exact determinant
/// `(ax-cx)(by-cy) - (ay-cy)(bx-cx)` expands into at most 16 components;
/// we build them with error-free transformations and then sum them from
/// smallest to largest magnitude with `two_sum`, which yields the correctly
/// signed result (the final component dominates).
fn expansion_sign(components: &mut [f64]) -> f64 {
    // Grow an expansion by repeated two_sum passes (simple distillation).
    // With at most 16 components this is cheap and exact.
    let n = components.len();
    for i in 1..n {
        let mut carry = components[i];
        for item in components.iter_mut().take(i) {
            let (s, e) = two_sum(*item, carry);
            *item = e;
            carry = s;
        }
        components[i] = carry;
    }
    // After distillation the components are nonoverlapping with the last
    // having the largest magnitude; its sign is the sign of the sum.
    for &c in components.iter().rev() {
        if c != 0.0 {
            return c;
        }
    }
    0.0
}

/// Exact orientation determinant computed with expansion arithmetic.
fn orient2d_exact(a: Point, b: Point, c: Point) -> f64 {
    // det = (ax - cx)(by - cy) - (ay - cy)(bx - cx)
    let (acx, acx_e) = two_diff(a.x, c.x);
    let (bcy, bcy_e) = two_diff(b.y, c.y);
    let (acy, acy_e) = two_diff(a.y, c.y);
    let (bcx, bcx_e) = two_diff(b.x, c.x);

    // (acx + acx_e)(bcy + bcy_e) = acx*bcy + acx*bcy_e + acx_e*bcy + acx_e*bcy_e
    let mut comps = [0.0f64; 16];
    let mut k = 0;
    for &(u, v) in &[(acx, bcy), (acx, bcy_e), (acx_e, bcy), (acx_e, bcy_e)] {
        let (p, e) = two_product(u, v);
        comps[k] = p;
        comps[k + 1] = e;
        k += 2;
    }
    for &(u, v) in &[(acy, bcx), (acy, bcx_e), (acy_e, bcx), (acy_e, bcx_e)] {
        let (p, e) = two_product(u, v);
        comps[k] = -p;
        comps[k + 1] = -e;
        k += 2;
    }
    expansion_sign(&mut comps)
}

/// Error-bound coefficient for the `orient2d` floating-point filter
/// (Shewchuk's `ccwerrboundA` = (3 + 16ε)ε with ε = 2⁻⁵³).
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * f64::EPSILON * 0.5) * (f64::EPSILON * 0.5);

/// Signed area of the parallelogram `(b - a) × (c - a)`, with an exactly
/// correct *sign*.
///
/// Positive ⇒ `c` lies to the left of the directed line `a → b`
/// (counter-clockwise turn); negative ⇒ right; zero ⇒ exactly collinear.
pub(crate) fn orient2d_sign(a: Point, b: Point, c: Point) -> f64 {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return det; // signs differ: det is reliably signed
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return det;
        }
        -(detleft + detright)
    } else {
        return det; // detleft == 0 → det == -detright, exact
    };

    let errbound = CCW_ERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        det
    } else {
        orient2d_exact(a, b, c)
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
#[inline]
pub fn orient2d(a: Point, b: Point, c: Point) -> Orientation {
    Orientation::from_sign(orient2d_sign(a, b, c))
}

/// `true` iff `p` lies on the closed segment `[a, b]`.
///
/// Uses the exact orientation predicate for the collinearity decision and
/// coordinate comparisons for the betweenness decision, so the answer is
/// exact.
pub(crate) fn point_on_segment(p: Point, a: Point, b: Point) -> bool {
    if orient2d(a, b, p) != Orientation::Collinear {
        return false;
    }
    // Collinear: check betweenness along the dominant axis.
    if (a.x - b.x).abs() >= (a.y - b.y).abs() {
        (a.x <= p.x && p.x <= b.x) || (b.x <= p.x && p.x <= a.x)
    } else {
        (a.y <= p.y && p.y <= b.y) || (b.y <= p.y && p.y <= a.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    #[test]
    fn basic_orientations() {
        let a = pt(0.0, 0.0);
        let b = pt(1.0, 0.0);
        assert_eq!(orient2d(a, b, pt(0.5, 1.0)), Orientation::CounterClockwise);
        assert_eq!(orient2d(a, b, pt(0.5, -1.0)), Orientation::Clockwise);
        assert_eq!(orient2d(a, b, pt(2.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn reversal_flips_orientation() {
        let (a, b, c) = (pt(0.0, 0.0), pt(3.0, 1.0), pt(1.0, 2.0));
        assert_eq!(orient2d(a, b, c), orient2d(b, a, c).reversed());
    }

    #[test]
    fn near_degenerate_cases_are_exact() {
        // Classic filter-breaking configuration: points nearly collinear
        // with coordinates that defeat naive double evaluation.
        let a = pt(0.5, 0.5);
        let b = pt(12.0, 12.0);
        let c = pt(24.0, 24.0);
        assert_eq!(orient2d(a, b, c), Orientation::Collinear);

        // Tiny perturbations must be detected despite cancellation.
        let eps = f64::EPSILON;
        let c_up = pt(24.0, 24.0 * (1.0 + eps));
        let c_dn = pt(24.0, 24.0 * (1.0 - eps));
        assert_eq!(orient2d(a, b, c_up), Orientation::CounterClockwise);
        assert_eq!(orient2d(a, b, c_dn), Orientation::Clockwise);
    }

    #[test]
    fn orientation_is_antisymmetric_under_cyclic_swap() {
        let (a, b, c) = (pt(0.1, 0.7), pt(-3.0, 2.0), pt(5.0, -1.0));
        let o = orient2d(a, b, c);
        assert_eq!(orient2d(b, c, a), o);
        assert_eq!(orient2d(c, a, b), o);
        assert_eq!(orient2d(a, c, b), o.reversed());
    }

    #[test]
    fn point_on_segment_inclusive_of_endpoints() {
        let a = pt(0.0, 0.0);
        let b = pt(4.0, 2.0);
        assert!(point_on_segment(a, a, b));
        assert!(point_on_segment(b, a, b));
        assert!(point_on_segment(pt(2.0, 1.0), a, b));
        assert!(!point_on_segment(pt(6.0, 3.0), a, b)); // collinear but beyond
        assert!(!point_on_segment(pt(2.0, 1.1), a, b)); // off the line
    }

    #[test]
    fn point_on_vertical_segment() {
        let a = pt(1.0, 0.0);
        let b = pt(1.0, 5.0);
        assert!(point_on_segment(pt(1.0, 2.5), a, b));
        assert!(!point_on_segment(pt(1.0, 6.0), a, b));
    }

    #[test]
    fn exact_expansion_agrees_with_naive_when_safe() {
        let a = pt(1.0, 2.0);
        let b = pt(4.0, 6.0);
        let c = pt(-3.0, 5.0);
        let naive = (a.x - c.x) * (b.y - c.y) - (a.y - c.y) * (b.x - c.x);
        assert_eq!(orient2d_sign(a, b, c).signum(), naive.signum());
    }
}
