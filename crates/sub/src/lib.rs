//! Standing queries over the stream: register a spatio-temporal region
//! and an aggregation **once**, get a notification each time the
//! pipeline seals data the region admits.
//!
//! The batch engine answers "aggregate of the objects in region *C*
//! during interval *I*" by rolling up the [`DeltaCube`]'s `(hour, geo)`
//! partial cells. This crate turns that into continuous analytics:
//!
//! * a [`Registry`] of [`Subscription`]s (region × measure × aggregate ×
//!   window × threshold) with stable ids, serializable over the store's
//!   CRC framing ([`wire`]);
//! * a [`StandingEvaluator`] whose one entry point,
//!   [`StandingEvaluator::sync_pipeline`], reads each newly sealed
//!   segment's window straight off the pipeline's [`DeltaCube`]. The
//!   cube is the only state, so every value is **bit-identical** to the
//!   batch query at that seal (property-tested in
//!   `tests/tests/sub_equivalence.rs`);
//! * [`Notification`]s (value delta, window rollup, threshold crossings
//!   with hysteresis) buffered in a bounded ring that readers drain
//!   with [`StandingEvaluator::notifications_since`].
//!
//! A read replica serves subscriptions off its own apply path by
//! calling [`StandingEvaluator::sync_pipeline`] on its follower's
//! pipeline after each poll, and gates reads with the follower's
//! `bounded`, so a lagging replica answers `Stale { lag }`.
//!
//! Quickstart: README § Standing queries. Counters and flags:
//! OBSERVABILITY.md § Standing-query metrics. Design: DESIGN.md §6.5.
//!
//! [`DeltaCube`]: gisolap_stream::DeltaCube

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod standing;
pub mod wire;

pub use registry::{Registry, SubId, Subscription, Threshold};
pub use standing::{window_value, Crossing, Notification, StandingEvaluator, SubStats};
