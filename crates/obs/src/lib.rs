//! # gisolap-obs
//!
//! Observability substrate for the GISOLAP-MO workspace — pure std, no
//! external dependencies, designed so every hook costs nothing more than
//! a relaxed atomic (or a single branch) when it is switched off:
//!
//! * [`Span`] / [`Tracer`] — a lightweight span tracer. A span is one
//!   timed phase of a query (e.g. `time-filter`, `spatial-match`,
//!   `segment-seal`) carrying the **counter deltas** attributed to that
//!   phase plus child spans; a query produces one span *tree*. The
//!   [`Tracer`] is the cheap on/off switch engines consult before
//!   collecting anything.
//! * [`Histogram`] — a fixed-size, log₂-bucketed latency histogram over
//!   nanoseconds, safe to bump from parallel workers (relaxed atomics),
//!   exported in Prometheus `le`-bucket form.
//! * [`MetricsRegistry`] — collects counters, gauges and histograms and
//!   renders them in the Prometheus text exposition format
//!   ([`MetricsRegistry::render_prometheus`]), ready to serve from a
//!   `/metrics` endpoint or archive as a CI artifact.
//! * [`SlowQueryLog`] — a bounded ring of queries slower than a
//!   threshold (programmatic, or via the `GISOLAP_SLOW_QUERY_MS`
//!   environment variable), each entry holding the offending query's
//!   rendered plan.
//! * [`QueryObs`] — the bundle of the above that a query engine owns:
//!   tracer + eval-latency histogram + slow-query log + the most recent
//!   span tree.
//! * [`counters!`] / [`CounterSet`] — the one declaration form for a
//!   counter family: snapshot struct, exported names, delta and (where
//!   needed) shared atomic cells from a single documented field list,
//!   exported by [`MetricsRegistry::fill`].
//! * [`config`] — the registry of every `GISOLAP_*` environment flag the
//!   workspace reads, each documented and coverage-tested against the
//!   repository docs.
//!
//! The crate is deliberately *mechanism only*: what the counters mean,
//! which spans exist and the counter-conservation invariant tying span
//! trees to engine snapshots are defined by the consumers (`gisolap-core`
//! and `gisolap-stream`) and documented in the repository's
//! `OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod metrics;
pub mod query_obs;
pub mod slow;
pub mod span;

pub use counters::{Counter, CounterSet};
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry};
pub use query_obs::QueryObs;
pub use slow::{SlowQueryEntry, SlowQueryLog};
pub use span::{Span, Tracer};
