//! Span trees: per-query timed phases with counter deltas.

use std::sync::atomic::{AtomicBool, Ordering};

/// One timed phase of a query, with the counter deltas attributed to it
/// and its child phases. A query produces one span tree whose root
/// covers the whole evaluation; the root's *own* counters are the
/// residual work not attributed to any named phase, so that summing a
/// counter over the entire tree ([`Span::total`]) accounts for every
/// bump the query caused — the **counter-conservation invariant**
/// (`OBSERVABILITY.md`, property-tested in `tests/obs_invariants.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name (e.g. `time-filter`, `segment-seal`).
    pub name: &'static str,
    /// Wall time of the phase, nanoseconds.
    pub duration_ns: u64,
    /// Counter deltas attributed to this span alone (children excluded).
    /// Only counters that changed are listed.
    pub counters: Vec<(&'static str, u64)>,
    /// Sub-phases, in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// A zero-duration span with no counters or children.
    pub fn new(name: &'static str) -> Span {
        Span {
            name,
            duration_ns: 0,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// This span's own delta for `counter` (0 when absent).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == counter)
            .map_or(0, |(_, v)| *v)
    }

    /// The subtree total for `counter`: this span's delta plus all
    /// descendants'.
    pub fn total(&self, counter: &str) -> u64 {
        self.counter(counter) + self.children.iter().map(|c| c.total(counter)).sum::<u64>()
    }

    /// Renders the tree indented, one span per line. With `timings`,
    /// each line carries the span's wall time; without, wall times and
    /// counters named `*_ns` (nanosecond accumulators) are suppressed so
    /// output is stable across runs (used by the golden plan-format
    /// tests).
    pub fn render(&self, timings: bool) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, timings);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, timings: bool) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(self.name);
        if timings {
            out.push_str(&format!(" [{:.3}ms]", self.duration_ns as f64 / 1e6));
        }
        for (n, v) in &self.counters {
            if !timings && n.ends_with("_ns") {
                continue;
            }
            out.push_str(&format!(" {n}={v}"));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1, timings);
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render(true))
    }
}

/// The on/off switch span collection hangs off. Engines check
/// [`Tracer::enabled`] (one relaxed load) before taking any snapshot;
/// when off, tracing costs nothing else.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: AtomicBool,
}

impl Tracer {
    /// A tracer in the given initial state.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
        }
    }

    /// Whether spans should be collected.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches collection on or off (takes effect for the next query).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Span {
        Span {
            name: "eval",
            duration_ns: 5_000_000,
            counters: vec![("queries", 1)],
            children: vec![
                Span {
                    name: "time-filter",
                    duration_ns: 1_000_000,
                    counters: vec![("records_scanned", 100), ("time_filter_ns", 999)],
                    children: vec![],
                },
                Span {
                    name: "spatial-match",
                    duration_ns: 3_000_000,
                    counters: vec![("rtree_probes", 7), ("records_scanned", 2)],
                    children: vec![],
                },
            ],
        }
    }

    #[test]
    fn totals_sum_over_subtree() {
        let t = tree();
        assert_eq!(t.total("records_scanned"), 102);
        assert_eq!(t.total("queries"), 1);
        assert_eq!(t.total("rtree_probes"), 7);
        assert_eq!(t.total("absent"), 0);
        assert_eq!(t.counter("records_scanned"), 0); // root's own only
    }

    #[test]
    fn render_is_indented_and_timing_optional() {
        let t = tree();
        let with = t.render(true);
        assert!(with.contains("eval [5.000ms] queries=1"), "{with}");
        assert!(with.contains("\n  time-filter [1.000ms]"), "{with}");
        let without = t.render(false);
        assert!(without.contains("eval queries=1"), "{without}");
        assert!(!without.contains("ms]"), "{without}");
        assert!(with.contains("time_filter_ns=999"), "{with}");
        assert!(!without.contains("time_filter_ns"), "{without}");
        assert_eq!(t.to_string(), with);
    }

    #[test]
    fn tracer_toggles() {
        let tr = Tracer::default();
        assert!(!tr.enabled());
        tr.set_enabled(true);
        assert!(tr.enabled());
        assert!(Tracer::new(true).enabled());
    }
}
