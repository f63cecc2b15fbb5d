//! Slow-query log: a bounded ring of queries over a latency threshold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many slow queries the ring retains (oldest evicted first). The
/// `total()` counter keeps counting past the cap.
pub(crate) const SLOW_QUERY_CAP: usize = 64;

/// One logged slow query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// How long the query took, nanoseconds.
    pub duration_ns: u64,
    /// The offending query's rendered plan (`Explain`), or whatever
    /// detail the producer supplied.
    pub detail: String,
}

/// Records queries slower than a threshold. The threshold check is one
/// relaxed load and a compare; the detail closure (typically an
/// `Explain` render) only runs for queries that are actually slow, so
/// the fast path stays unobservably cheap.
#[derive(Debug, Default)]
pub struct SlowQueryLog {
    /// Threshold in nanoseconds; 0 = disabled.
    threshold_ns: AtomicU64,
    total: AtomicU64,
    entries: Mutex<Vec<SlowQueryEntry>>,
}

impl SlowQueryLog {
    /// A disabled log (threshold 0).
    pub fn disabled() -> SlowQueryLog {
        SlowQueryLog::default()
    }

    /// A log with an explicit threshold.
    pub(crate) fn with_threshold_ms(ms: u64) -> SlowQueryLog {
        let log = SlowQueryLog::default();
        log.set_threshold_ms(ms);
        log
    }

    /// A log configured from [`crate::config::SLOW_QUERY_MS`] (whole
    /// milliseconds); disabled when the variable is unset or unparsable.
    pub fn from_env() -> SlowQueryLog {
        let ms = crate::config::SLOW_QUERY_MS.parse_u64().unwrap_or(0);
        SlowQueryLog::with_threshold_ms(ms)
    }

    /// The active threshold in nanoseconds (0 = disabled).
    pub(crate) fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Changes the threshold (milliseconds; 0 disables).
    pub(crate) fn set_threshold_ms(&self, ms: u64) {
        self.threshold_ns
            .store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// Logs the query if it exceeds the threshold; `detail` is rendered
    /// lazily, only on the slow path. Returns whether it was logged.
    pub fn observe(&self, duration_ns: u64, detail: impl FnOnce() -> String) -> bool {
        let threshold = self.threshold_ns();
        if threshold == 0 || duration_ns < threshold {
            return false;
        }
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("slow-query log poisoned");
        if entries.len() == SLOW_QUERY_CAP {
            entries.remove(0);
        }
        entries.push(SlowQueryEntry {
            duration_ns,
            detail: detail(),
        });
        true
    }

    /// Cumulative count of queries that crossed the threshold (keeps
    /// counting past the ring cap; this is the exported metric).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.entries
            .lock()
            .expect("slow-query log poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = SlowQueryLog::disabled();
        assert!(!log.observe(u64::MAX, || unreachable!("detail must be lazy")));
        assert_eq!(log.total(), 0);
        assert!(log.entries().is_empty());
    }

    #[test]
    fn threshold_gates_and_detail_is_lazy() {
        let log = SlowQueryLog::with_threshold_ms(10);
        assert_eq!(log.threshold_ns(), 10_000_000);
        assert!(!log.observe(9_999_999, || unreachable!("below threshold")));
        assert!(log.observe(10_000_000, || "plan A".to_string()));
        assert!(log.observe(25_000_000, || "plan B".to_string()));
        assert_eq!(log.total(), 2);
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].detail, "plan A");
        assert_eq!(entries[1].duration_ns, 25_000_000);
    }

    #[test]
    fn ring_caps_but_total_keeps_counting() {
        let log = SlowQueryLog::with_threshold_ms(1);
        for i in 0..(SLOW_QUERY_CAP as u64 + 5) {
            log.observe(2_000_000, || format!("q{i}"));
        }
        assert_eq!(log.total(), SLOW_QUERY_CAP as u64 + 5);
        let entries = log.entries();
        assert_eq!(entries.len(), SLOW_QUERY_CAP);
        assert_eq!(entries[0].detail, "q5"); // oldest five evicted
    }
}
