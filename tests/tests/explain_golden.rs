//! Golden plan-format tests: `Explain` and `ExplainAnalyze` rendered on
//! the paper's Figure 1 scenario.
//!
//! These pin the *textual* plan format so accidental changes to the
//! explain output surface in review. Timings are rendered off
//! (`render(false)`), which suppresses wall-clock values and `*_ns`
//! counters — everything left is deterministic for a fixed scenario.

use gisolap_core::engine::{explain, explain_analyze, IndexedEngine, NaiveEngine, QueryEngine};
use gisolap_datagen::Fig1Scenario;

#[test]
fn explain_output_is_pinned_on_fig1() {
    let s = Fig1Scenario::build();
    let region = Fig1Scenario::remark1_region();
    let naive = NaiveEngine::new(&s.gis, &s.moft);
    let plan = explain(&naive, &region).unwrap();
    assert_eq!(plan.to_string(), EXPLAIN_NAIVE, "naive Explain drifted");

    let indexed = IndexedEngine::new(&s.gis, &s.moft);
    let plan = explain(&indexed, &region).unwrap();
    assert_eq!(plan.to_string(), EXPLAIN_INDEXED, "indexed Explain drifted");
}

#[test]
fn explain_analyze_output_is_pinned_on_fig1() {
    let s = Fig1Scenario::build();
    let region = Fig1Scenario::remark1_region();
    let naive = NaiveEngine::new(&s.gis, &s.moft);
    let ea = explain_analyze(&naive, &region).unwrap();
    assert_eq!(
        ea.render(false),
        EXPLAIN_ANALYZE_NAIVE,
        "naive ExplainAnalyze drifted"
    );

    // The analyzed row counts agree with a direct evaluation.
    assert_eq!(ea.rows, naive.eval(&region).unwrap().len());
}

const EXPLAIN_NAIVE: &str = "\
plan [naive]
  1. filter the MOFT through Time-dimension rollups: TimeOfDayIs(Morning)
  2. geometric sub-query on Ln: neighborhood.income Lt 1500 → 2 element(s) (computed by full scan)
  3. match each record against r^Pt,G via layer scan per record (sample semantics)
  4. apply γ aggregation over the resulting (Oid, t) tuples
  stats: queries=0 records_scanned=0 layer_probes=0 overlay_hits=0 overlay_misses=0 legs_cut=0 time_filter=0.000ms filter_resolve=0.000ms spatial_match=0.000ms
";

const EXPLAIN_INDEXED: &str = "\
plan [indexed]
  1. filter the MOFT through Time-dimension rollups: TimeOfDayIs(Morning)
  2. consult the MOFT index: interval tree over 6 object extent(s), BVH + zone map of 1 block(s)
  3. geometric sub-query on Ln: neighborhood.income Lt 1500 → 2 element(s) (computed with BVH filtering)
  4. match each record against r^Pt,G via per-query grid stab per record (sample semantics)
  5. apply γ aggregation over the resulting (Oid, t) tuples
  stats: queries=0 records_scanned=0 layer_probes=0 overlay_hits=0 overlay_misses=0 legs_cut=0 time_filter=0.000ms filter_resolve=0.000ms spatial_match=0.000ms
";

const EXPLAIN_ANALYZE_NAIVE: &str = "\
plan [naive] (analyzed)
  1. filter the MOFT through Time-dimension rollups: TimeOfDayIs(Morning)
  2. geometric sub-query on Ln: neighborhood.income Lt 1500 → 2 element(s) (computed by full scan)
  3. match each record against r^Pt,G via layer scan per record (sample semantics)
  4. apply γ aggregation over the resulting (Oid, t) tuples
rows: 4 (4 after (Oid, t) dedup)
spans:
  eval
    time-filter records_scanned=12 queries=1
    filter-resolve
    spatial-match
    aggregate
delta: queries=1 records_scanned=12 layer_probes=0 overlay_hits=0 overlay_misses=0 legs_cut=0 time_filter=0.000ms filter_resolve=0.000ms spatial_match=0.000ms
";
