//! Engine observability: cheap atomic counters threaded through every
//! [`crate::engine::QueryEngine`].
//!
//! Each engine owns an [`EngineStats`] whose counters are bumped with
//! `Relaxed` atomics on the hot paths (record scans, layer-hierarchy
//! probes, overlay cache lookups, trajectory leg cutting) plus
//! per-phase wall times. Relaxed ordering is sufficient: the counters
//! are monotone tallies read only through [`EngineStats::snapshot`],
//! never used for synchronization — and atomics keep them sound under
//! the parallel evaluation paths.

use std::time::Instant;

use gisolap_obs::{counters, CounterSet, Span};

counters! {
    /// A point-in-time copy of an engine's [`EngineStats`]. Each doc line
    /// below doubles as the counter's Prometheus help text
    /// ([`crate::metrics::fill_engine_metrics`]).
    pub struct StatsSnapshot["gisolap_", "Engine counter."] cells EngineStats {
        /// MOFT records examined by time filtering.
        records_scanned,
        /// Layer-geometry BVH searches issued.
        layer_probes,
        /// Layer-pair lookups answered from the precomputed overlay.
        overlay_hits,
        /// Layer-pair requests computed per call (no precomputation).
        overlay_misses,
        /// Trajectory sub-legs produced by time-window cutting.
        legs_cut,
        /// Region evaluations started.
        queries,
        /// Wall time (ns) filtering the MOFT by time predicates.
        time_filter_ns,
        /// Wall time (ns) resolving geometric sub-queries.
        filter_resolve_ns,
        /// Wall time (ns) matching records/trajectories spatially.
        spatial_match_ns,
        /// Stream records accepted into ingest buffers.
        records_ingested,
        /// Stream records dead-lettered as later than the watermark.
        records_late_dropped,
        /// Stream segments sealed.
        segments_sealed,
        /// Partial-aggregate entries merged into the delta cube.
        partials_merged,
        /// Live tail records scanned by incremental rollups.
        tail_records_scanned,
        /// Interval-tree window searches over object time extents.
        index_interval_probes,
        /// BVH searches over object bounding boxes.
        index_bvh_probes,
        /// Zone-map blocks scanned after index pruning.
        index_zones_scanned,
        /// Zone-map blocks skipped wholesale by index pruning.
        index_zones_pruned,
        /// Records excluded by index pruning before exact tests.
        index_records_pruned,
    }
}

impl StatsSnapshot {
    /// Whether a [`CounterSet::fields`] name is a wall-time tally
    /// (nanoseconds) rather than an event count. Timing fields are the
    /// ones excluded from "identical counts" comparisons between
    /// parallel and sequential runs.
    pub(crate) fn is_timing_field(name: &str) -> bool {
        name.ends_with("_ns")
    }

    /// A copy with every timing field zeroed — what the parallel-vs-
    /// sequential determinism tests compare.
    pub fn zero_timings(self) -> StatsSnapshot {
        self.map(|name, v| if Self::is_timing_field(name) { 0 } else { v })
    }
}

/// Nanoseconds elapsed since `since`, for wall-time tallies and spans.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Collects one query's phase spans from [`EngineStats`] snapshots.
///
/// The engine's counters are cumulative; a `PhaseTrace` turns them into
/// per-phase **deltas** by snapshotting at each phase boundary. Phases
/// run sequentially within one query, so as long as no other query runs
/// on the same engine concurrently, the phase deltas plus the root's
/// residual partition the query's total delta exactly — the
/// counter-conservation invariant `explain_analyze` is property-tested
/// on.
///
/// Disabled traces ([`PhaseTrace::disabled`]) skip the snapshots
/// entirely; each hook is then a single `Option` check.
#[derive(Debug)]
pub struct PhaseTrace {
    state: Option<PhaseState>,
}

#[derive(Debug)]
struct PhaseState {
    last: StatsSnapshot,
    spans: Vec<Span>,
}

impl PhaseTrace {
    /// A no-op trace: every hook returns immediately.
    pub fn disabled() -> PhaseTrace {
        PhaseTrace { state: None }
    }

    /// Starts collecting, baselining against the engine's current
    /// counters.
    pub fn enabled(stats: &EngineStats) -> PhaseTrace {
        PhaseTrace {
            state: Some(PhaseState {
                last: stats.snapshot(),
                // Eval runs three named phases; pre-sizing skips the
                // 1→2→4 realloc chain on every traced query.
                spans: Vec::with_capacity(4),
            }),
        }
    }

    /// Closes a phase that began at `started`: attributes every counter
    /// bumped since the previous boundary to a new span named `name`.
    pub fn phase(&mut self, stats: &EngineStats, name: &'static str, started: Instant) {
        let Some(state) = &mut self.state else {
            return;
        };
        let now = stats.snapshot();
        let delta = now.delta(&state.last);
        state.last = now;
        state.spans.push(Span {
            name,
            duration_ns: elapsed_ns(started),
            counters: nonzero_fields(&delta),
            children: Vec::new(),
        });
    }

    /// Finishes the query: returns the root span (duration measured from
    /// `started`, own counters = the residual bumped outside any phase,
    /// children = the recorded phases), or `None` if disabled.
    pub fn finish(self, stats: &EngineStats, name: &'static str, started: Instant) -> Option<Span> {
        let state = self.state?;
        let residual = stats.snapshot().delta(&state.last);
        Some(Span {
            name,
            duration_ns: elapsed_ns(started),
            counters: nonzero_fields(&residual),
            children: state.spans,
        })
    }
}

/// The non-zero counters of a snapshot, for span attribution. Runs once
/// per phase boundary on the traced hot path, so it counts first and
/// allocates exactly — an all-zero delta (common for fast phases) costs
/// no allocation at all.
fn nonzero_fields(snap: &StatsSnapshot) -> Vec<(&'static str, u64)> {
    let fields = snap.fields();
    let n = fields.iter().filter(|(_, v)| *v > 0).count();
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n);
    out.extend(fields.into_iter().filter(|(_, v)| *v > 0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = EngineStats::new();
        stats.records_scanned.add(10);
        stats.records_scanned.add(5);
        stats.layer_probes.add(2);
        stats.overlay_hits.add(1);
        stats.overlay_misses.add(4);
        stats.legs_cut.add(7);
        stats.queries.inc();
        let snap = stats.snapshot();
        assert_eq!(snap.records_scanned, 15);
        assert_eq!(snap.layer_probes, 2);
        assert_eq!(snap.overlay_hits, 1);
        assert_eq!(snap.overlay_misses, 4);
        assert_eq!(snap.legs_cut, 7);
        assert_eq!(snap.queries, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn phase_timers_record_elapsed() {
        let stats = EngineStats::new();
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        stats.time_filter_ns.add(elapsed_ns(t0));
        assert!(stats.snapshot().time_filter_ns >= 1_000_000);
    }

    #[test]
    fn fields_cover_every_counter() {
        let stats = EngineStats::new();
        stats.records_scanned.add(2);
        stats.queries.inc();
        stats.records_ingested.set(5);
        stats.tail_records_scanned.set(6);
        stats.index_interval_probes.add(1);
        stats.index_bvh_probes.add(2);
        stats.index_zones_scanned.add(3);
        stats.index_zones_pruned.add(4);
        stats.index_records_pruned.add(9);
        let snap = stats.snapshot();
        let fields = snap.fields();
        assert_eq!(fields.len(), 19);
        assert!(fields.contains(&("index_interval_probes", 1)));
        assert!(fields.contains(&("index_zones_pruned", 4)));
        assert!(fields.contains(&("index_records_pruned", 9)));
        assert!(fields.contains(&("records_scanned", 2)));
        assert!(fields.contains(&("queries", 1)));
        assert!(fields.contains(&("records_ingested", 5)));
        assert!(fields.contains(&("tail_records_scanned", 6)));
        assert!(StatsSnapshot::is_timing_field("time_filter_ns"));
        assert!(!StatsSnapshot::is_timing_field("records_scanned"));
    }

    #[test]
    fn delta_subtracts_and_saturates() {
        let stats = EngineStats::new();
        stats.records_scanned.add(10);
        let before = stats.snapshot();
        stats.records_scanned.add(7);
        stats.layer_probes.add(2);
        let delta = stats.snapshot().delta(&before);
        assert_eq!(delta.records_scanned, 7);
        assert_eq!(delta.layer_probes, 2);
        assert_eq!(delta.queries, 0);
        // A reset between snapshots saturates to zero, never wraps.
        stats.reset();
        let after_reset = stats.snapshot().delta(&before);
        assert_eq!(after_reset, StatsSnapshot::default());
    }

    #[test]
    fn zero_timings_clears_only_ns_fields() {
        let stats = EngineStats::new();
        stats.records_scanned.add(3);
        stats.time_filter_ns.add(elapsed_ns(Instant::now()));
        stats.filter_resolve_ns.add(elapsed_ns(Instant::now()));
        stats.spatial_match_ns.add(elapsed_ns(Instant::now()));
        let snap = stats.snapshot().zero_timings();
        assert_eq!(snap.time_filter_ns, 0);
        assert_eq!(snap.filter_resolve_ns, 0);
        assert_eq!(snap.spatial_match_ns, 0);
        assert_eq!(snap.records_scanned, 3);
    }

    #[test]
    fn phase_trace_partitions_the_delta() {
        let stats = EngineStats::new();
        stats.records_scanned.add(100); // pre-existing work, not this query's
        let before = stats.snapshot();

        let t0 = Instant::now();
        let mut trace = PhaseTrace::enabled(&stats);

        let p = Instant::now();
        stats.records_scanned.add(40);
        trace.phase(&stats, "time-filter", p);

        let p = Instant::now();
        stats.layer_probes.add(3);
        stats.records_scanned.add(2);
        trace.phase(&stats, "spatial-match", p);

        stats.queries.inc(); // residual: bumped outside any named phase
        let root = trace.finish(&stats, "eval", t0).expect("enabled trace");

        assert_eq!(root.name, "eval");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "time-filter");
        assert_eq!(root.children[0].counter("records_scanned"), 40);
        assert_eq!(root.children[1].counter("layer_probes"), 3);
        assert_eq!(root.counter("queries"), 1);

        // Counter conservation: subtree totals == the snapshot delta.
        let delta = stats.snapshot().delta(&before);
        for (name, value) in delta.fields() {
            assert_eq!(root.total(name), value, "counter {name} not conserved");
        }
    }

    #[test]
    fn disabled_phase_trace_is_inert() {
        let stats = EngineStats::new();
        let mut trace = PhaseTrace::disabled();
        trace.phase(&stats, "time-filter", Instant::now());
        assert!(trace.finish(&stats, "eval", Instant::now()).is_none());
    }
}
