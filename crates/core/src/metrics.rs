//! Text renderings of engine counters: the Prometheus exposition and
//! the one-line `stats:` summary explain plans embed.
//!
//! Bridges the domain side (engines, [`crate::stats::StatsSnapshot`],
//! [`gisolap_obs::QueryObs`]) to the generic
//! [`gisolap_obs::MetricsRegistry`]: [`fill_engine_metrics`] publishes
//! every counter of one engine under a stable metric name, and
//! [`engine_metrics`] is the one-shot convenience that returns the
//! rendered exposition text. Metric names, labels and units are
//! documented exhaustively in `OBSERVABILITY.md`.

use gisolap_obs::{CounterSet, MetricsRegistry};

use crate::engine::QueryEngine;
use crate::stats::StatsSnapshot;

/// Publishes one engine's counters into `registry`, labelled
/// `engine="<name>"`:
///
/// * every event counter of [`StatsSnapshot`] as `gisolap_<field>_total`,
///   its declaration doc line as the help text;
/// * every `*_ns` timing field as
///   `gisolap_phase_seconds_total{engine, phase}` (seconds, fractional);
/// * with a [`gisolap_obs::QueryObs`] attached: the
///   `gisolap_eval_latency_seconds` histogram and
///   `gisolap_slow_queries_total`.
///
/// Re-filling with the same engine replaces the samples in place, so one
/// long-lived registry can serve repeated scrapes over several engines.
pub fn fill_engine_metrics<E: QueryEngine + ?Sized>(registry: &mut MetricsRegistry, engine: &E) {
    let name = engine.name();
    let snap = engine.stats().snapshot();
    for ((field, value), help) in snap.fields().into_iter().zip(StatsSnapshot::DOCS) {
        if StatsSnapshot::is_timing_field(field) {
            let phase = field.trim_end_matches("_ns");
            registry.set_counter(
                "gisolap_phase_seconds_total",
                "Wall time spent per evaluation phase, seconds.",
                &[("engine", name), ("phase", phase)],
                value as f64 / 1e9,
            );
        } else {
            let metric = format!("{}{field}_total", StatsSnapshot::PREFIX);
            registry.set_counter_u64(&metric, help.trim(), &[("engine", name)], value);
        }
    }
    if let Some(obs) = engine.obs() {
        registry.set_histogram(
            "gisolap_eval_latency_seconds",
            "Per-query evaluation wall time, seconds (log2 buckets).",
            &[("engine", name)],
            obs.latency().snapshot(),
        );
        registry.set_counter_u64(
            "gisolap_slow_queries_total",
            "Queries exceeding the GISOLAP_SLOW_QUERY_MS threshold.",
            &[("engine", name)],
            obs.slow_queries().total(),
        );
    }
}

/// One-shot exposition: fills a fresh registry from `engine` and returns
/// the rendered Prometheus text.
pub fn engine_metrics<E: QueryEngine + ?Sized>(engine: &E) -> String {
    let mut registry = MetricsRegistry::new();
    fill_engine_metrics(&mut registry, engine);
    registry.render_prometheus()
}

/// The one-line `stats:` / `delta:` rendering of explain plans.
impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} records_scanned={} layer_probes={} \
             overlay_hits={} overlay_misses={} legs_cut={} \
             time_filter={:.3}ms filter_resolve={:.3}ms spatial_match={:.3}ms",
            self.queries,
            self.records_scanned,
            self.layer_probes,
            self.overlay_hits,
            self.overlay_misses,
            self.legs_cut,
            self.time_filter_ns as f64 / 1e6,
            self.filter_resolve_ns as f64 / 1e6,
            self.spatial_match_ns as f64 / 1e6,
        )?;
        // Index counters only appear once index-assisted evaluation ran,
        // so scan-only engines (and the pinned explain goldens) keep the
        // compact line.
        if self.index_interval_probes > 0
            || self.index_bvh_probes > 0
            || self.index_zones_scanned > 0
            || self.index_zones_pruned > 0
            || self.index_records_pruned > 0
        {
            write!(
                f,
                " index_interval_probes={} index_bvh_probes={} index_zones_scanned={} \
                 index_zones_pruned={} index_records_pruned={}",
                self.index_interval_probes,
                self.index_bvh_probes,
                self.index_zones_scanned,
                self.index_zones_pruned,
                self.index_records_pruned,
            )?;
        }
        // Ingest counters only appear for stream-fed engines.
        if self.records_ingested > 0 || self.segments_sealed > 0 {
            write!(
                f,
                " ingested={} late_dropped={} segments_sealed={} partials_merged={} \
                 tail_scanned={}",
                self.records_ingested,
                self.records_late_dropped,
                self.segments_sealed,
                self.partials_merged,
                self.tail_records_scanned,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NaiveEngine;
    use crate::gis::Gis;
    use gisolap_obs::QueryObs;
    use gisolap_traj::moft::Moft;

    fn empty_world() -> (Gis, Moft) {
        (Gis::new(), Moft::new())
    }

    #[test]
    fn every_snapshot_field_is_exported() {
        let (gis, moft) = empty_world();
        let engine = NaiveEngine::new(&gis, &moft);
        engine.stats().records_scanned.add(3);
        let text = engine_metrics(&engine);
        for (field, _) in engine.stats().snapshot().fields() {
            if StatsSnapshot::is_timing_field(field) {
                let phase = field.trim_end_matches("_ns");
                assert!(
                    text.contains(&format!("phase=\"{phase}\"")),
                    "missing phase {phase} in:\n{text}"
                );
            } else {
                assert!(
                    text.contains(&format!("gisolap_{field}_total")),
                    "missing field {field} in:\n{text}"
                );
            }
        }
        assert!(text.contains("gisolap_records_scanned_total{engine=\"naive\"} 3\n"));
    }

    #[test]
    fn obs_metrics_appear_only_when_attached() {
        let (gis, moft) = empty_world();
        let bare = NaiveEngine::new(&gis, &moft);
        assert!(!engine_metrics(&bare).contains("gisolap_eval_latency_seconds"));

        let engine = NaiveEngine::new(&gis, &moft).with_obs(QueryObs::from_env());
        let text = engine_metrics(&engine);
        assert!(
            text.contains("# TYPE gisolap_eval_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("gisolap_slow_queries_total{engine=\"naive\"} 0\n"),
            "{text}"
        );
    }

    #[test]
    fn refill_replaces_samples() {
        let (gis, moft) = empty_world();
        let engine = NaiveEngine::new(&gis, &moft);
        let mut registry = MetricsRegistry::new();
        fill_engine_metrics(&mut registry, &engine);
        engine.stats().layer_probes.add(9);
        fill_engine_metrics(&mut registry, &engine);
        let text = registry.render_prometheus();
        assert!(
            text.contains("gisolap_layer_probes_total{engine=\"naive\"} 9\n"),
            "{text}"
        );
        assert_eq!(text.matches("# TYPE gisolap_layer_probes_total").count(), 1);
    }

    #[test]
    fn snapshot_is_display() {
        let stats = crate::stats::EngineStats::new();
        stats.queries.inc();
        let text = stats.snapshot().to_string();
        assert!(text.contains("queries=1"), "{text}");
        // Index counters stay hidden until index-assisted work happens.
        assert!(!text.contains("index_"), "{text}");
        stats.index_zones_pruned.add(2);
        let text = stats.snapshot().to_string();
        assert!(text.contains("index_zones_pruned=2"), "{text}");
    }
}
