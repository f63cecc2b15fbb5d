//! # gisolap-index
//!
//! Access methods for the GISOLAP-MO workspace:
//!
//! * [`grid::GridIndex`] — a uniform grid, the simplest spatial filter
//!   (and the structure behind Meratnia & de By's "homogeneous spatial
//!   units" trajectory aggregation discussed in the paper's Section 2).
//! * [`arb::ArbTree`] — an aRB-tree-style aggregate spatio-temporal index
//!   after Papadias et al. (the paper's reference \[11\]): an R-tree over
//!   regions whose nodes carry time-bucketed pre-aggregates, answering
//!   COUNT/SUM over region × time-window queries without touching raw
//!   samples.
//! * [`interval::IntervalTree`] — a static interval tree over inclusive
//!   `i64` ranges (trajectory/segment time extents), hits in ascending
//!   insertion order.
//! * [`bvh::Bvh`] — a deterministic median-split bounding-volume
//!   hierarchy over rectangles, hits in ascending insertion order: the
//!   query engine's filter over layer geometry and over trajectory
//!   bounding boxes.
//! * [`zone::ZoneMap`] — per-block pruning metadata over canonically
//!   ordered rows (the MOFT index's record-block prune).
//!
//! The interval tree, BVH and zone map carry the written determinism
//! contracts documented in `docs/indexing.md`: ascending-id hit order,
//! stable tie-breaks, and conservative pruning such that index-assisted
//! evaluation is bit-identical to a full scan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arb;
pub mod bvh;
pub mod grid;
pub mod interval;
pub mod zone;

pub use arb::ArbTree;
pub use bvh::Bvh;
pub use grid::GridIndex;
pub use interval::IntervalTree;
pub use zone::{Zone, ZoneMap, DEFAULT_ZONE_ROWS};
