//! # gisolap-geom
//!
//! Computational-geometry substrate for the GISOLAP-MO workspace, built from
//! scratch (no external geometry crates).
//!
//! This crate provides the geometric vocabulary of Kuijpers & Vaisman's
//! moving-object data model (ICDE 2007): points, segments, polylines and
//! polygons (with holes), together with the operations the query engine
//! needs — robust orientation predicates, segment intersection (including
//! collinear overlap), point-in-polygon tests, length/area/centroid,
//! Douglas–Peucker simplification, segment-against-polygon
//! clipping (used for trajectory/region intersection) and a full polygon
//! boolean overlay (used for the Piet-style overlay precomputation of the
//! paper's Section 5).
//!
//! ## Coordinates
//!
//! Coordinates are `f64`. The paper assumes rational coordinates for finite
//! representability; we preserve the spirit of that assumption by doing all
//! *orientation* decisions through [`predicates::orient2d`], an adaptive
//! exact-sign predicate (Shewchuk-style floating-point expansions), so that
//! topological decisions never suffer from rounding.
//!
//! ## Quick tour
//!
//! ```
//! use gisolap_geom::{Point, Polygon, Ring};
//!
//! let square = Polygon::new(
//!     Ring::new(vec![
//!         Point::new(0.0, 0.0),
//!         Point::new(4.0, 0.0),
//!         Point::new(4.0, 4.0),
//!         Point::new(0.0, 4.0),
//!     ])
//!     .unwrap(),
//!     vec![],
//! )
//! .unwrap();
//! assert_eq!(square.area(), 16.0);
//! assert!(square.contains(Point::new(2.0, 2.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbox;
pub mod clip;
pub mod overlay;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod predicates;
pub mod segment;
pub mod simplify;
pub mod triangulate;
pub mod wkt;

pub use bbox::BBox;
pub use overlay::{BooleanOp, MultiPolygon};
pub use point::{Point, Vec2};
pub use polygon::{Polygon, Ring};
pub use polyline::Polyline;
pub use predicates::Orientation;
pub use segment::{Segment, SegmentIntersection};

/// Errors produced while constructing or operating on geometries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// A ring needs at least three distinct vertices.
    RingTooSmall {
        /// Number of vertices that were supplied.
        got: usize,
    },
    /// A polyline needs at least two vertices.
    PolylineTooSmall {
        /// Number of vertices that were supplied.
        got: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate,
    /// A ring self-intersects and therefore is not simple.
    NotSimple,
    /// A hole lies (partly) outside the exterior ring of its polygon.
    HoleOutsideExterior,
    /// WKT input could not be parsed.
    Wkt(String),
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::RingTooSmall { got } => {
                write!(f, "ring needs at least 3 distinct vertices, got {got}")
            }
            GeomError::PolylineTooSmall { got } => {
                write!(f, "polyline needs at least 2 vertices, got {got}")
            }
            GeomError::NonFiniteCoordinate => write!(f, "coordinate is NaN or infinite"),
            GeomError::NotSimple => write!(f, "ring is self-intersecting"),
            GeomError::HoleOutsideExterior => write!(f, "hole lies outside the exterior ring"),
            GeomError::Wkt(msg) => write!(f, "WKT parse error: {msg}"),
        }
    }
}

impl std::error::Error for GeomError {}

/// Convenient result alias for fallible geometry operations.
pub type Result<T> = std::result::Result<T, GeomError>;
