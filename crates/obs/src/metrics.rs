//! Metrics registry with Prometheus text exposition, and the log₂
//! latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counters::CounterSet;

/// Number of log₂ buckets: upper bounds `2^1 … 2^BUCKETS` nanoseconds
/// (≈ 2 ns … ≈ 17.6 min), observations above the last bound land in the
/// implicit `+Inf` overflow.
pub(crate) const BUCKETS: usize = 40;

/// A log₂-bucketed histogram over nanosecond observations. Bumps are
/// relaxed atomics, so it is safe (and cheap) to observe from parallel
/// query workers; read through [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    /// `buckets[i]` counts observations with `value_ns ≤ 2^(i+1)`
    /// (non-cumulative; cumulation happens at render time).
    buckets: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        // Bucket index: smallest i with ns ≤ 2^(i+1), i.e. ⌈log₂ ns⌉ − 1
        // clamped into range; 0 and 1 ns land in bucket 0.
        let ceil_log2 = (64 - ns.saturating_sub(1).leading_zeros()) as usize;
        let idx = ceil_log2.saturating_sub(1);
        if idx < BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            overflow: self.overflow.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts; bucket `i` has
    /// upper bound `2^(i+1)` ns.
    pub buckets: [u64; BUCKETS],
    /// Observations above the last bucket bound.
    pub overflow: u64,
    /// Sum of all observed values, nanoseconds.
    pub sum_ns: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Upper bound of bucket `i`, in seconds (Prometheus `le` value).
    pub(crate) fn upper_bound_seconds(i: usize) -> f64 {
        (1u64 << (i + 1)) as f64 / 1e9
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Value {
    Num(f64),
    // Kept as an integer end to end: a `u64 as f64` cast rounds above
    // 2^53, so long-running counters routed through `Num` would drift.
    Uint(u64),
    Hist(Box<HistogramSnapshot>),
}

#[derive(Debug, Clone)]
struct Sample {
    labels: Vec<(String, String)>,
    value: Value,
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    help: String,
    kind: Kind,
    samples: Vec<Sample>,
}

/// An ordered collection of metrics rendered in the Prometheus text
/// exposition format. `set_*` calls are idempotent per `(name, labels)`
/// pair — re-setting replaces the sample — so a registry can be filled
/// from fresh snapshot-style state on every scrape.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn upsert(
        &mut self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        value: Value,
    ) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let metric = match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                debug_assert_eq!(m.kind, kind, "metric {name} registered with two kinds");
                m
            }
            None => {
                self.metrics.push(Metric {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    samples: Vec::new(),
                });
                self.metrics.last_mut().expect("just pushed")
            }
        };
        match metric.samples.iter_mut().find(|s| s.labels == labels) {
            Some(s) => s.value = value,
            None => metric.samples.push(Sample { labels, value }),
        }
    }

    /// Sets a monotone counter sample (rendered with its cumulative
    /// value; Prometheus counters may be fractional, e.g. seconds).
    pub fn set_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.upsert(name, help, Kind::Counter, labels, Value::Num(value));
    }

    /// Sets a monotone counter sample from a `u64` tally without ever
    /// passing through `f64` — exact at any magnitude, where a cast
    /// would silently round above 2^53. Every integer-valued counter
    /// export should come through here.
    pub fn set_counter_u64(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.upsert(name, help, Kind::Counter, labels, Value::Uint(value));
    }

    /// Publishes every counter of a [`CounterSet`] family as
    /// `<PREFIX><name>_total` under the family's help text — the one
    /// export path for every `counters!` declaration.
    pub fn fill<C: CounterSet>(&mut self, counters: &C, labels: &[(&str, &str)]) {
        for (name, value) in counters.fields() {
            let metric = format!("{}{name}_total", C::PREFIX);
            self.set_counter_u64(&metric, C::HELP, labels, value);
        }
    }

    /// Sets a gauge sample (a value that can go up or down).
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.upsert(name, help, Kind::Gauge, labels, Value::Num(value));
    }

    /// Sets a histogram sample from a snapshot; rendered as cumulative
    /// `_bucket{le="…"}` series (bounds in seconds) plus `_sum`/`_count`.
    pub fn set_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: HistogramSnapshot,
    ) {
        self.upsert(
            name,
            help,
            Kind::Histogram,
            labels,
            Value::Hist(Box::new(snapshot)),
        );
    }

    /// Number of distinct metric names registered.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` iff nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the Prometheus text exposition format (version 0.0.4):
    /// `# HELP` / `# TYPE` headers followed by one line per sample.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind.as_str()));
            for s in &m.samples {
                match &s.value {
                    Value::Num(v) => {
                        out.push_str(&m.name);
                        render_labels(&mut out, &s.labels, None);
                        out.push_str(&format!(" {}\n", fmt_num(*v)));
                    }
                    Value::Uint(v) => {
                        out.push_str(&m.name);
                        render_labels(&mut out, &s.labels, None);
                        out.push_str(&format!(" {v}\n"));
                    }
                    Value::Hist(h) => {
                        let mut cumulative = 0u64;
                        for (i, b) in h.buckets.iter().enumerate() {
                            cumulative += b;
                            // Skip empty leading buckets to keep the
                            // exposition readable; always emit a bucket
                            // once counts start (cumulative semantics).
                            if cumulative == 0 {
                                continue;
                            }
                            out.push_str(&format!("{}_bucket", m.name));
                            render_labels(
                                &mut out,
                                &s.labels,
                                Some(&format!("{}", HistogramSnapshot::upper_bound_seconds(i))),
                            );
                            out.push_str(&format!(" {cumulative}\n"));
                        }
                        out.push_str(&format!("{}_bucket", m.name));
                        render_labels(&mut out, &s.labels, Some("+Inf"));
                        out.push_str(&format!(" {}\n", h.count));
                        out.push_str(&format!("{}_sum", m.name));
                        render_labels(&mut out, &s.labels, None);
                        out.push_str(&format!(" {}\n", fmt_num(h.sum_ns as f64 / 1e9)));
                        out.push_str(&format!("{}_count", m.name));
                        render_labels(&mut out, &s.labels, None);
                        out.push_str(&format!(" {}\n", h.count));
                    }
                }
            }
        }
        out
    }
}

/// Renders `{k="v",…,le="…"}` (omitted entirely when empty).
fn render_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Integral values render without a fractional part (Prometheus parsers
/// accept either; this keeps counter lines exact and diff-friendly).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        h.observe_ns(1); // bucket 0 (≤ 2 ns)
        h.observe_ns(2); // bucket 0
        h.observe_ns(3); // bucket 1 (≤ 4 ns)
        h.observe_ns(1_000_000); // ≤ 2^20 = 1_048_576
        h.observe_ns(u64::MAX); // overflow
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[19], 1);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count, 5);
        assert_eq!(h.count(), 5);
        assert_eq!(HistogramSnapshot::upper_bound_seconds(0), 2e-9);
    }

    #[test]
    fn render_counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.set_counter(
            "app_requests_total",
            "Requests served.",
            &[("engine", "naive")],
            3.0,
        );
        r.set_counter(
            "app_requests_total",
            "Requests served.",
            &[("engine", "overlay")],
            4.0,
        );
        r.set_gauge("app_tail_len", "Live tail length.", &[], 7.5);
        let text = r.render_prometheus();
        assert!(
            text.contains("# HELP app_requests_total Requests served."),
            "{text}"
        );
        assert!(text.contains("# TYPE app_requests_total counter"), "{text}");
        assert!(
            text.contains("app_requests_total{engine=\"naive\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("app_requests_total{engine=\"overlay\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE app_tail_len gauge"), "{text}");
        assert!(text.contains("app_tail_len 7.5\n"), "{text}");
        // The shared HELP/TYPE header appears once despite two samples.
        assert_eq!(text.matches("# TYPE app_requests_total").count(), 1);
        assert_eq!(r.len(), 2);
    }

    /// `set_counter_u64` must stay exact above 2^53, where the f64
    /// path provably rounds: (2^53 + 1) as f64 == 2^53.
    #[test]
    fn u64_counters_render_exactly_above_2_pow_53() {
        let big = (1u64 << 53) + 1;
        assert_eq!(big as f64 as u64, 1u64 << 53, "cast must round (premise)");
        let mut r = MetricsRegistry::new();
        r.set_counter_u64("c_exact_total", "h", &[], big);
        r.set_counter_u64("c_max_total", "h", &[], u64::MAX);
        let text = r.render_prometheus();
        assert!(text.contains("c_exact_total 9007199254740993\n"), "{text}");
        assert!(
            text.contains(&format!("c_max_total {}\n", u64::MAX)),
            "{text}"
        );
    }

    #[test]
    fn resetting_a_sample_replaces_it() {
        let mut r = MetricsRegistry::new();
        r.set_counter("c_total", "h", &[("a", "b")], 1.0);
        r.set_counter("c_total", "h", &[("a", "b")], 2.0);
        let text = r.render_prometheus();
        assert!(text.contains("c_total{a=\"b\"} 2\n"), "{text}");
        assert!(!text.contains("c_total{a=\"b\"} 1\n"), "{text}");
    }

    #[test]
    fn render_histogram_is_cumulative_with_inf() {
        let h = Histogram::new();
        h.observe_ns(1_500); // ≤ 2^11 = 2048 → bucket 10
        h.observe_ns(1_500);
        h.observe_ns(3_000_000_000); // 3 s ≤ 2^32 ns → bucket 31
        let mut r = MetricsRegistry::new();
        r.set_histogram(
            "eval_seconds",
            "Eval latency.",
            &[("engine", "naive")],
            h.snapshot(),
        );
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE eval_seconds histogram"), "{text}");
        assert!(
            text.contains("eval_seconds_bucket{engine=\"naive\",le=\"0.000002048\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\"} 3\n"), "{text}");
        assert!(
            text.contains("eval_seconds_count{engine=\"naive\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("eval_seconds_sum{engine=\"naive\"} 3.000003"),
            "{text}"
        );
    }

    #[test]
    fn label_escaping() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("g", "h", &[("q", "a\"b\\c\nd")], 1.0);
        let text = r.render_prometheus();
        assert!(text.contains("g{q=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
    }
}
