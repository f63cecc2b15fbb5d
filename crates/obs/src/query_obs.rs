//! The per-engine observability bundle.

use std::sync::Mutex;

use crate::metrics::Histogram;
use crate::slow::SlowQueryLog;
use crate::span::{Span, Tracer};

/// Everything a query engine owns beyond its raw counters: the span
/// [`Tracer`] switch, the eval-latency [`Histogram`], the
/// [`SlowQueryLog`], and the most recent query's span tree.
///
/// Engines attach one with a `with_obs` builder; an engine without a
/// `QueryObs` pays zero observability cost, and one with it attached but
/// the tracer off pays one histogram bump and two branches per query
/// (measured by `benches/obs_overhead.rs`).
#[derive(Debug, Default)]
pub struct QueryObs {
    tracer: Tracer,
    latency: Histogram,
    slow: SlowQueryLog,
    last_span: Mutex<Option<Span>>,
}

impl QueryObs {
    /// Tracing off, slow-query log configured from
    /// [`crate::config::SLOW_QUERY_MS`].
    pub fn from_env() -> QueryObs {
        QueryObs {
            slow: SlowQueryLog::from_env(),
            ..QueryObs::default()
        }
    }

    /// Tracing on from the start (slow-query log disabled).
    pub fn traced() -> QueryObs {
        QueryObs {
            tracer: Tracer::new(true),
            ..QueryObs::default()
        }
    }

    /// The span-collection switch.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Eval wall-time histogram (one observation per query).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The slow-query log.
    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow
    }

    /// Stores a finished query's span tree as the most recent one. The
    /// displaced tree is dropped after the lock is released, so
    /// concurrent queries never wait on another span's deallocation.
    pub fn store_last_span(&self, span: Span) {
        let displaced = self
            .last_span
            .lock()
            .expect("span slot poisoned")
            .replace(span);
        drop(displaced);
    }

    /// The most recent traced query's span tree, if any query ran with
    /// the tracer enabled.
    pub fn last_span(&self) -> Option<Span> {
        self.last_span.lock().expect("span slot poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off() {
        let obs = QueryObs::default();
        assert!(!obs.tracer().enabled());
        assert_eq!(obs.slow_queries().threshold_ns(), 0);
        assert_eq!(obs.latency().count(), 0);
        assert!(obs.last_span().is_none());
    }

    #[test]
    fn traced_and_span_roundtrip() {
        let obs = QueryObs::traced();
        assert!(obs.tracer().enabled());
        obs.store_last_span(Span::new("eval"));
        assert_eq!(obs.last_span().unwrap().name, "eval");
    }
}
