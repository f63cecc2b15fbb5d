//! # gisolap-core
//!
//! The data model of **Kuijpers & Vaisman, "A Data Model for Moving
//! Objects Supporting Aggregation" (ICDE 2007)**: a unified framework for
//! GIS, OLAP and moving-object data.
//!
//! ## Model overview (paper Section 3)
//!
//! * **Layers** ([`layer`]) hold the geometric part: finite sets of
//!   geometry elements (points/nodes, polylines, polygons) per thematic
//!   layer, with the algebraic part (infinite point sets) represented by
//!   *computed* rollup relations `r^{Pt,G}_L(x, y, g)` — point membership
//!   is decided by geometry, not enumeration.
//! * **GIS dimension schemas** ([`schema`]) formalize Definition 1: per
//!   layer, a hierarchy graph `H(L)` over geometry kinds with a unique
//!   `point` bottom and an `All` top; attribute functions `Att : A → G×L`
//!   tie application-part categories to geometries.
//! * **The GIS instance** ([`gis`]) bundles layers, application OLAP
//!   dimensions, the `α^{A,G}_L` functions mapping members to geometry
//!   elements (Definition 2), and the Time dimension.
//! * **GIS fact tables** ([`facts`]) implement Definition 3, including
//!   base fact tables at the point level via density functions.
//! * **Geometric aggregation** ([`geoagg`]) evaluates Definition 4's
//!   `∫∫ δ_C(x,y) h(x,y) dx dy` in its *summable* form `Σ_{g∈C} h'(g)`.
//! * **Spatio-temporal regions** ([`region`]) express the constraint sets
//!   `C` of Section 3.1 as a typed algebra instead of raw first-order
//!   formulas, covering all eight query types.
//! * **The query engine** ([`engine`]) evaluates regions over a MOFT with
//!   three interchangeable strategies — naive scan, BVH filtered, and
//!   the Piet-style **overlay-precomputed** strategy of Section 5
//!   ([`overlay_cache`]).
//! * **Results** ([`result`]) carry the `(Oid, t)` pair sets the paper
//!   derives ("our spatial region C turns … into a set of pairs
//!   (objectId, time)") plus the γ aggregations applied on top.
//!
//! ## Observability
//!
//! Every engine owns cheap atomic counters ([`stats`]); attaching a
//! [`gisolap_obs::QueryObs`] (via the engines' `with_obs` builders) adds
//! a per-query latency histogram, a slow-query log and an optional span
//! tracer. [`engine::explain_analyze`] runs a query for real and
//! annotates its [`engine::Explain`] plan with actual row counts, phase
//! timings and counter deltas; [`metrics`] renders everything in the
//! Prometheus text format. The full counter/span/metric reference lives
//! in `OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cube_bridge;
pub mod engine;
pub mod facts;
pub mod geoagg;
pub mod gis;
pub mod layer;
pub mod metrics;
pub mod mindex;
pub mod overlay_cache;
pub mod qtypes;
pub mod query;
pub mod region;
pub mod result;
pub mod schema;
pub mod stats;
pub mod streaming;

pub use engine::{
    explain, explain_analyze, Explain, ExplainAnalyze, IndexedEngine, NaiveEngine, OverlayEngine,
    QueryEngine,
};
pub use gis::Gis;
pub use gisolap_obs::QueryObs;
pub use layer::{GeoId, GeometryKind, Layer, LayerId};
pub use metrics::{engine_metrics, fill_engine_metrics};
pub use mindex::{MoftIndex, ObjectExtent};
pub use query::{MoAggSpec, MoQuery, MoQueryResult};
pub use region::{GeoFilter, RegionC, SpatialPredicate, SpatialSemantics, TimePredicate};
pub use result::CTuple;
pub use stats::{EngineStats, PhaseTrace, StatsSnapshot};
pub use streaming::{layer_geo_resolver, recover_snapshot};

/// Errors raised by the core model.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A referenced layer does not exist.
    UnknownLayer(String),
    /// A referenced geometry element does not exist.
    UnknownGeometry {
        /// The layer searched.
        layer: String,
        /// The missing element id.
        id: u32,
    },
    /// A referenced application category has no α binding.
    UnknownCategory(String),
    /// A referenced member has no geometry bound via α.
    UnboundMember {
        /// The category.
        category: String,
        /// The member.
        member: String,
    },
    /// A referenced application dimension does not exist.
    UnknownDimension(String),
    /// A referenced fact table does not exist.
    UnknownFactTable(String),
    /// The layer holds a different geometry kind than required.
    KindMismatch {
        /// The layer.
        layer: String,
        /// What the operation needed.
        expected: layer::GeometryKind,
        /// What the layer holds.
        got: layer::GeometryKind,
    },
    /// Schema validation failed (Definition 1 conditions).
    InvalidSchema(String),
    /// Two evaluation strategies disagreed on a query that must be
    /// engine-independent.
    EngineMismatch {
        /// First engine (the reference).
        a: String,
        /// Second engine (the one that diverged).
        b: String,
    },
    /// An underlying OLAP error.
    Olap(gisolap_olap::OlapError),
    /// Loading or recovering a durable store failed (message carries the
    /// [`gisolap_store::StoreError`] rendering; kept as a string so
    /// `CoreError` stays `Clone + PartialEq`).
    Store(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownLayer(l) => write!(f, "unknown layer {l:?}"),
            CoreError::UnknownGeometry { layer, id } => {
                write!(f, "layer {layer:?} has no geometry element #{id}")
            }
            CoreError::UnknownCategory(c) => write!(f, "no α binding for category {c:?}"),
            CoreError::UnboundMember { category, member } => {
                write!(f, "member {member:?} of {category:?} has no bound geometry")
            }
            CoreError::UnknownDimension(d) => write!(f, "unknown dimension {d:?}"),
            CoreError::UnknownFactTable(t) => write!(f, "unknown fact table {t:?}"),
            CoreError::KindMismatch {
                layer,
                expected,
                got,
            } => {
                write!(f, "layer {layer:?} holds {got:?}, expected {expected:?}")
            }
            CoreError::InvalidSchema(msg) => write!(f, "invalid GIS schema: {msg}"),
            CoreError::EngineMismatch { a, b } => {
                write!(f, "engines {a:?} and {b:?} disagree on a query result")
            }
            CoreError::Olap(e) => write!(f, "OLAP error: {e}"),
            CoreError::Store(msg) => write!(f, "store error: {msg}"),
        }
    }
}

impl From<gisolap_store::StoreError> for CoreError {
    fn from(e: gisolap_store::StoreError) -> CoreError {
        CoreError::Store(e.to_string())
    }
}

impl std::error::Error for CoreError {}

impl From<gisolap_olap::OlapError> for CoreError {
    fn from(e: gisolap_olap::OlapError) -> CoreError {
        CoreError::Olap(e)
    }
}

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
