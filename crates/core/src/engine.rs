//! The aggregate query engine.
//!
//! Evaluates spatio-temporal regions `C` ([`crate::region::RegionC`]) over
//! a MOFT, with three interchangeable strategies:
//!
//! * [`NaiveEngine`] — reference semantics: full scans, geometric
//!   relations computed per query, no index of any kind. It is the scan
//!   every index-assisted answer is proven bit-identical to.
//! * [`IndexedEngine`] — one bounding-volume hierarchy ([`Bvh`]) per
//!   layer; layer×layer relations are still computed per query, each
//!   element probing the other layer's hierarchy.
//! * [`OverlayEngine`] — the paper's Section 5 strategy: layer×layer
//!   relations (and polygon overlay cells) are **precomputed once**
//!   ([`crate::overlay_cache::OverlayCache`]); the geometric sub-query of
//!   a Piet-QL style query becomes a lookup, and only the
//!   trajectory-vs-qualifying-geometry step runs at query time.
//!
//! The last two always build a [`MoftIndex`] over the MOFT and consult
//! it through [`QueryEngine::moft_index`]. All three implement
//! [`QueryEngine`] and must return the same tuples in the same order —
//! `tests/engine_equivalence.rs` and `tests/index_equivalence.rs`
//! enforce this; the ledger measures the difference.
//!
//! ## Sample-semantics evaluation
//!
//! One pass, no per-record allocation: the time filter yields borrowed
//! record runs ([`QueryEngine::time_runs`]), the qualifying elements of
//! the spatial atom are registered once per query in a uniform
//! [`GridIndex`] over their (inflated) bounding boxes, and each
//! time-passing record stabs one cell and runs the exact
//! `covers`/distance test against that cell's elements only. The
//! engines differ in the grid they size
//! ([`QueryEngine::membership_grid_cells`]): [`NaiveEngine`] keeps one
//! cell, so it still tests every qualifying element per record; the
//! others use up to 64×64 cells. [`IndexedEngine`]'s layer hierarchies
//! serve its [`QueryEngine::layer_pairs`] and [`IndexedEngine::candidates`].
//!
//! ## Parallelism and observability
//!
//! This module is the only place in the workspace that fans work out
//! across threads, and it decides by records, not items: a scan over
//! record runs (sample semantics) or trajectories (interpolated
//! semantics, passes-through, time-in-region) splits across threads
//! only when it covers at least 8,192 MOFT records and more than one
//! worker is configured. The split is order-preserving, so parallel and
//! sequential evaluation produce **bit-identical** results;
//! `GISOLAP_THREADS=1` forces sequential execution. Engine
//! construction, the overlay precomputation and everything outside the
//! trajectory step run on the caller's thread. Every
//! engine owns an [`EngineStats`] ([`QueryEngine::stats`]) of cheap
//! atomic counters — records scanned, layer-hierarchy probes, overlay
//! cache hits/misses, interpolated legs cut, per-phase wall times — also
//! surfaced on [`Explain`].

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rayon::prelude::*;

use gisolap_geom::{BBox, Point};
use gisolap_index::{Bvh, GridIndex, DEFAULT_ZONE_ROWS};
use gisolap_olap::time::{TimeDimension, TimeId, TimeOfDay};
use gisolap_stream::{SegmentMeta, StreamSnapshot};
use gisolap_traj::bead::{Bead, Reachability};
use gisolap_traj::moft::{Moft, ObjectId, Record};
use gisolap_traj::ops::{self, TimeInterval};
use gisolap_traj::trajectory::{Lit, TimedSegment};

use crate::gis::Gis;
use crate::layer::{GeoId, GeoRef, GeometryKind, LayerId};
use crate::mindex::{conservative_window, MoftIndex, ObjectExtent};
use crate::overlay_cache::{georef_intersects, OverlayCache};
use crate::region::{
    eval_time, GeoFilter, RegionC, SpatialPredicate, SpatialSemantics, TimePredicate,
};
use crate::result::CTuple;
use crate::stats::{elapsed_ns, EngineStats, PhaseTrace, StatsSnapshot};
use crate::{CoreError, Result};

use gisolap_obs::{CounterSet, QueryObs, Span};

/// The common interface of the three evaluation strategies.
///
/// `Sync` is a supertrait so the default methods can partition work
/// across threads while borrowing the engine.
pub trait QueryEngine: Sync {
    /// Strategy name (for reports and benchmarks).
    fn name(&self) -> &'static str;

    /// The GIS this engine answers over.
    fn gis(&self) -> &Gis;

    /// The MOFT this engine answers over.
    fn moft(&self) -> &Moft;

    /// This engine's evaluation counters.
    fn stats(&self) -> &EngineStats;

    /// The observability bundle attached via a `with_obs` builder, if
    /// any. Engines without one pay zero observability cost beyond this
    /// `Option` check per query.
    fn obs(&self) -> Option<&QueryObs> {
        None
    }

    /// All intersecting element pairs between two layers. Strategies
    /// differ: computed per call vs. precomputed lookup.
    fn layer_pairs(&self, a: LayerId, b: LayerId) -> Result<Vec<(GeoId, GeoId)>>;

    /// The stream snapshot this engine was built from (via a
    /// `from_snapshot` constructor), if any — lets [`explain`] report
    /// segment pruning and ties ingest counters to the plan.
    fn stream_snapshot(&self) -> Option<&StreamSnapshot> {
        None
    }

    /// The MOFT-side index bundle ([`MoftIndex`]), if this engine built
    /// one. Engines returning `Some` get index-assisted evaluation from
    /// the default methods: interval-tree time pruning, zone-map spatial
    /// pruning, and BVH object pruning — all conservative, with every
    /// survivor re-checked exactly, so results stay **bit-identical** to
    /// the pure scan (`docs/indexing.md`). The naive engine keeps the
    /// default `None`: it *is* the scan reference.
    fn moft_index(&self) -> Option<&MoftIndex> {
        None
    }

    /// Resolves a [`GeoFilter`] to the sorted element ids of `layer` that
    /// satisfy it — the geometric sub-query of Section 5.
    fn resolve_filter(&self, layer: LayerId, filter: &GeoFilter) -> Result<Vec<GeoId>> {
        let gis = self.gis();
        match filter {
            GeoFilter::All => Ok(gis.layer(layer).ids().collect()),
            GeoFilter::Member { category, member } => {
                let (l, g) = gis.alpha_geo(category, member)?;
                Ok(if l == layer { vec![g] } else { vec![] })
            }
            GeoFilter::AttrCompare {
                category,
                attr,
                op,
                value,
            } => {
                let binding = gis.alpha(category)?;
                if binding.layer != layer {
                    return Ok(vec![]);
                }
                gis.geos_where_attr(category, attr, |v| op.eval(v.compare(value)))
            }
            GeoFilter::Ids(ids) => {
                let mut v = ids.clone();
                v.sort();
                v.dedup();
                Ok(v)
            }
            GeoFilter::IntersectsLayer { layer: other } => {
                let other_id = gis.layer_id(other)?;
                let mut v: Vec<GeoId> = self
                    .layer_pairs(layer, other_id)?
                    .into_iter()
                    .map(|(a, _)| a)
                    .collect();
                v.sort();
                v.dedup();
                Ok(v)
            }
            GeoFilter::ContainsNodeOf { layer: other } => {
                let other_id = gis.layer_id(other)?;
                gis.expect_kind(other_id, GeometryKind::Node)?;
                let mut v: Vec<GeoId> = self
                    .layer_pairs(layer, other_id)?
                    .into_iter()
                    .map(|(a, _)| a)
                    .collect();
                v.sort();
                v.dedup();
                Ok(v)
            }
            GeoFilter::FactAggCompare {
                table,
                column,
                category,
                measure,
                agg,
                op,
                value,
            } => {
                // γ inside C: aggregate the fact table per category member,
                // compare, then map qualifying members to geometries via α.
                let ft = gis.fact_table(table)?;
                let grouped =
                    ft.aggregate(*agg, &[(column.as_str(), category.as_str())], measure)?;
                let binding = gis.alpha(category)?;
                if binding.layer != layer {
                    return Ok(vec![]);
                }
                let mut out = Vec::new();
                for (key, v) in grouped {
                    if op.eval(v.partial_cmp(value)) {
                        if let Some(g) = binding.geo_of(&key[0]) {
                            out.push(g);
                        }
                    }
                }
                out.sort();
                out.dedup();
                Ok(out)
            }
            GeoFilter::And(a, b) => {
                let va = self.resolve_filter(layer, a)?;
                let vb: HashSet<GeoId> = self.resolve_filter(layer, b)?.into_iter().collect();
                Ok(va.into_iter().filter(|g| vb.contains(g)).collect())
            }
            GeoFilter::Not(inner) => {
                let excluded: HashSet<GeoId> =
                    self.resolve_filter(layer, inner)?.into_iter().collect();
                Ok(gis
                    .layer(layer)
                    .ids()
                    .filter(|g| !excluded.contains(g))
                    .collect())
            }
        }
    }

    /// The borrowed record runs every time-filtered scan walks. Each
    /// record passing `time_preds` lies in exactly one run; runs are
    /// disjoint and in canonical `(oid, t)` order, and a record inside a
    /// run still needs the exact [`eval_time`] re-check.
    ///
    /// With a [`MoftIndex`] present and a time-bounded region
    /// (`Between`/`AtInstant`), the runs are the interval tree's
    /// candidate objects' record slices, narrowed to the window. Candidates arrive in ascending oid order, so walking the
    /// runs visits the passing records in exactly the order of the full
    /// scan: records of pruned objects (or outside the window) fail the
    /// bounding predicate anyway. Otherwise the runs are fixed-size
    /// chunks of the whole MOFT. Bumps `records_scanned` (and the
    /// interval-tree counters) by what the runs hold.
    fn time_runs(&self, time_preds: &[TimePredicate]) -> Vec<&[Record]> {
        let records = self.moft().records();
        let stats = self.stats();
        if let (Some(idx), Some((lo, hi))) = (self.moft_index(), conservative_window(time_preds)) {
            stats.index_interval_probes.inc();
            let mut examined = 0;
            let runs: Vec<&[Record]> = idx
                .objects_overlapping(lo, hi)
                .into_iter()
                .map(|ext| {
                    let track = &records[ext.start..ext.end];
                    let (a, b) = window(track, ext, lo, hi);
                    examined += b - a;
                    &track[a..b]
                })
                .collect();
            stats.records_scanned.add(examined as u64);
            stats
                .index_records_pruned
                .add((records.len() - examined) as u64);
            return runs;
        }
        stats.records_scanned.add(records.len() as u64);
        records.chunks(SCAN_RUN_ROWS).collect()
    }

    /// The MOFT records passing the region's time predicates, in
    /// `(oid, t)` order: the passing records of [`QueryEngine::time_runs`],
    /// collected through `collect_runs` (order-preserving).
    fn time_filtered(&self, time_preds: &[TimePredicate]) -> Vec<Record> {
        let t0 = Instant::now();
        let time = self.gis().time();
        let runs = self.time_runs(time_preds);
        let out = collect_runs(&runs, |run, out| {
            out.extend(run.iter().filter(|r| eval_time(time_preds, time, r.t)));
        });
        self.stats().time_filter_ns.add(elapsed_ns(t0));
        out
    }

    /// Cells per axis of the per-query [`GridIndex`] that sample-semantics
    /// membership stabs, for `qualifying` elements: `8·⌈√n⌉`, capped at
    /// 64. Every size gives the same answers — the grid only decides
    /// which elements get the exact test — so this is a speed choice;
    /// [`NaiveEngine`] overrides it with one cell.
    fn membership_grid_cells(&self, qualifying: usize) -> usize {
        (8 * (qualifying as f64).sqrt().ceil() as usize).clamp(1, 64)
    }

    /// Resolves a spatial predicate's layer and element set.
    fn resolve_spatial(&self, pred: &SpatialPredicate) -> Result<(LayerId, Vec<GeoId>)> {
        let layer = self.gis().layer_id(&pred.layer)?;
        let geos = self.resolve_filter(layer, &pred.filter)?;
        Ok((layer, geos))
    }

    /// Materializes the region `C` as tuples.
    ///
    /// Sample-based semantics emit one tuple per `(record, matching
    /// geometry)` pair — the `(Oid, t, street)` triples of query 2; use
    /// [`crate::result`] helpers (or [`dedupe_oid_t`]) for `(Oid, t)` set
    /// semantics. Interpolated semantics emit one tuple per *entry event*
    /// (the instant a trajectory leg first enters a qualifying geometry).
    ///
    /// A scan covering at least 8,192 records splits its record runs /
    /// trajectories across threads in order-preserving chunks, so the
    /// result is identical to a sequential evaluation
    /// (`GISOLAP_THREADS=1`).
    ///
    /// This is also where the observability hooks live: with a
    /// [`QueryObs`] attached ([`QueryEngine::obs`]), every query bumps
    /// the eval-latency histogram and is checked against the slow-query
    /// threshold, and — when the tracer is on — its span tree is stored
    /// as [`QueryObs::last_span`].
    ///
    /// # Example
    ///
    /// ```
    /// use gisolap_core::{GeoFilter, Gis, Layer, NaiveEngine, QueryEngine};
    /// use gisolap_core::{RegionC, SpatialPredicate};
    /// use gisolap_geom::Polygon;
    /// use gisolap_traj::Moft;
    ///
    /// let mut gis = Gis::new();
    /// gis.add_layer(Layer::polygons(
    ///     "districts",
    ///     vec![Polygon::rectangle(0.0, 0.0, 10.0, 10.0)],
    /// ));
    /// let moft = Moft::from_tuples([(1, 0, 2.0, 2.0), (2, 0, 50.0, 50.0)]);
    /// let engine = NaiveEngine::new(&gis, &moft);
    ///
    /// let region = RegionC::all()
    ///     .with_spatial(SpatialPredicate::in_layer("districts", GeoFilter::All));
    /// let tuples = engine.eval(&region)?;
    /// assert_eq!(tuples.len(), 1); // only object 1 samples inside the district
    /// # Ok::<(), gisolap_core::CoreError>(())
    /// ```
    fn eval(&self, region: &RegionC) -> Result<Vec<CTuple>> {
        let Some(obs) = self.obs() else {
            // No observability attached: the untraced fast path.
            return self.eval_traced(region, &mut PhaseTrace::disabled());
        };
        let started = Instant::now();
        let mut trace = if obs.tracer().enabled() {
            PhaseTrace::enabled(self.stats())
        } else {
            PhaseTrace::disabled()
        };
        let result = self.eval_traced(region, &mut trace);
        let duration_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs.latency().observe_ns(duration_ns);
        if let Some(root) = trace.finish(self.stats(), "eval", started) {
            obs.store_last_span(root);
        }
        // Lazy detail: the plan is only rendered for queries that are
        // actually slow. Note `explain` itself resolves the geometric
        // sub-query, so logged slow queries bump the counters once more.
        obs.slow_queries().observe(duration_ns, || {
            explain(self, region)
                .map(|e| e.to_string())
                .unwrap_or_else(|e| format!("explain failed: {e}"))
        });
        result
    }

    /// The evaluation body behind [`QueryEngine::eval`], with an
    /// explicit [`PhaseTrace`] recording phase boundaries (time-filter →
    /// filter-resolve → spatial-match). Called directly by
    /// [`explain_analyze`], which owns the trace and appends its own
    /// aggregate phase.
    fn eval_traced(&self, region: &RegionC, trace: &mut PhaseTrace) -> Result<Vec<CTuple>> {
        let stats = self.stats();
        stats.queries.inc();
        let tf_t0 = Instant::now();
        let runs = self.time_runs(&region.time);
        stats.time_filter_ns.add(elapsed_ns(tf_t0));
        trace.phase(stats, "time-filter", tf_t0);
        let time = self.gis().time();
        let passes = |r: &Record| eval_time(&region.time, time, r.t);

        // Resolve the forbidden set first (query 3): any object with a
        // time-filtered sample matching `forbid` is excluded wholesale.
        let resolve_t0 = Instant::now();
        let excluded: Vec<ObjectId> = match &region.forbid {
            None => Vec::new(),
            Some(forbid) => {
                let (layer, geos) = self.resolve_spatial(forbid)?;
                let forbidden = Membership::new(self, layer, &geos, forbid.within_distance);
                let mut oids = collect_runs(&runs, |run, out| {
                    for r in run {
                        if out.last() != Some(&r.oid)
                            && passes(r)
                            && forbidden.matches(r.pos()).next().is_some()
                        {
                            out.push(r.oid);
                        }
                    }
                });
                // Runs are oid-ascending, but one object can span two.
                oids.dedup();
                oids
            }
        };
        let allowed = |oid: ObjectId| excluded.binary_search(&oid).is_err();

        let Some(spatial) = &region.spatial else {
            // Type 3: no spatial condition; C is the time-filtered MOFT.
            stats.filter_resolve_ns.add(elapsed_ns(resolve_t0));
            trace.phase(stats, "filter-resolve", resolve_t0);
            return Ok(collect_runs(&runs, |run, out| {
                out.extend(
                    run.iter()
                        .filter(|r| passes(r) && allowed(r.oid))
                        .map(|r| CTuple {
                            oid: r.oid,
                            t: r.t,
                            pos: r.pos(),
                            geo: None,
                        }),
                );
            }));
        };

        let (layer, geos) = self.resolve_spatial(spatial)?;
        let membership = match region.semantics {
            SpatialSemantics::SampleBased => {
                Some(Membership::new(self, layer, &geos, spatial.within_distance))
            }
            SpatialSemantics::Interpolated => None,
        };
        stats.filter_resolve_ns.add(elapsed_ns(resolve_t0));
        trace.phase(stats, "filter-resolve", resolve_t0);

        let match_t0 = Instant::now();
        let out = match membership {
            Some(membership) => Ok(sample_tuples(
                self,
                runs,
                &region.time,
                layer,
                &membership,
                allowed,
                trace,
            )),
            None => {
                // Interpolated: one task per trajectory (ObjectId
                // partition); the final sort is on a total key, so
                // ordering is deterministic.
                let oids: Vec<ObjectId> = self
                    .moft()
                    .objects()
                    .into_iter()
                    .filter(|&oid| allowed(oid))
                    .collect();
                let records = oids
                    .iter()
                    .filter_map(|&oid| self.moft().track(oid))
                    .map(<[Record]>::len)
                    .sum();
                let entries = fan_out(&oids, records, |&oid, out| {
                    let Ok(lit) = self.moft().trajectory(oid) else {
                        return;
                    };
                    let legs = time_filtered_legs(&lit, &region.time, time);
                    stats.legs_cut.add(legs.len() as u64);
                    for &g in &geos {
                        match self.legs_intersect_geo(&legs, layer, g, spatial.within_distance) {
                            Ok(ivs) => out.extend(ivs.into_iter().map(|iv| {
                                let pos = lit
                                    .position_at(iv.start)
                                    .unwrap_or_else(|| lit.sample().points()[0].pos);
                                Ok(CTuple {
                                    oid,
                                    t: TimeId(iv.start.round() as i64),
                                    pos,
                                    geo: Some((layer, g)),
                                })
                            })),
                            Err(e) => return out.push(Err(e)),
                        }
                    }
                });
                let mut out: Vec<CTuple> = entries.into_iter().collect::<Result<_>>()?;
                out.sort_by_key(|t| (t.oid, t.t));
                Ok(out)
            }
        };
        stats.spatial_match_ns.add(elapsed_ns(match_t0));
        trace.phase(stats, "spatial-match", match_t0);
        out
    }

    /// Interval intersection of time-filtered legs with one geometry.
    fn legs_intersect_geo(
        &self,
        legs: &[TimedSegment],
        layer: LayerId,
        geo: GeoId,
        within: Option<f64>,
    ) -> Result<Vec<TimeInterval>> {
        let element = Qualifying::new(geo, self.gis().layer(layer).geometry(geo)?);
        let mut ivs: Vec<TimeInterval> = Vec::new();
        for leg in legs {
            leg_intervals(leg, &element, within, |iv| ivs.push(iv));
        }
        ivs.sort_by(|a, b| a.start.total_cmp(&b.start));
        // Merge adjacent.
        let mut merged: Vec<TimeInterval> = Vec::with_capacity(ivs.len());
        for iv in ivs {
            match merged.last_mut() {
                Some(last) if iv.start <= last.end + 1e-9 => last.end = last.end.max(iv.end),
                _ => merged.push(iv),
            }
        }
        Ok(merged)
    }

    /// Objects whose interpolated trajectory touches a qualifying
    /// geometry during the time-filtered windows — the paper's type-7
    /// "passes through" queries (catches Figure 1's O6).
    fn objects_passing_through(
        &self,
        spatial: &SpatialPredicate,
        time_preds: &[TimePredicate],
    ) -> Result<Vec<ObjectId>> {
        let layer = self.gis().layer_id(&spatial.layer)?;
        let geos = self.resolve_filter(layer, &spatial.filter)?;
        let elements = qualifying(self.gis(), layer, &geos);
        let within = spatial.within_distance;
        // BVH prune: a trajectory's legs stay inside its track bbox
        // (legs connect samples; boxes are convex), so an object whose
        // track bbox misses the qualifying bbox union can never pass
        // through. Candidates come back in ascending oid order — the
        // same order `Moft::objects` yields — so the result matches the
        // unpruned evaluation exactly.
        let (oids, records): (Vec<ObjectId>, usize) = match self.moft_index() {
            Some(idx) => {
                self.stats().index_bvh_probes.inc();
                let candidates = idx.objects_intersecting(&qualifying_bbox(&elements, within));
                let records = candidates.iter().map(|e| e.end - e.start).sum();
                (candidates.into_iter().map(|e| e.oid).collect(), records)
            }
            None => (self.moft().objects(), self.moft().len()),
        };
        Ok(fan_out(&oids, records, |&oid, out| {
            let Ok(lit) = self.moft().trajectory(oid) else {
                return;
            };
            let legs = time_filtered_legs(&lit, time_preds, self.gis().time());
            if legs.is_empty() {
                return;
            }
            self.stats().legs_cut.add(legs.len() as u64);
            // Existence only: leg-major, stopping at the first hit.
            let hit = legs.iter().any(|leg| {
                elements.iter().any(|e| {
                    let mut met = false;
                    leg_intervals(leg, e, within, |_| met = true);
                    met
                })
            });
            if hit {
                out.push(oid);
            }
        }))
    }

    /// Uncertainty-aware variant of passes-through, under the lifeline-
    /// bead model (Hornsby & Egenhofer, paper §2): given a maximum speed
    /// `vmax`, classifies each object as [`Reachability::Possible`] (some
    /// reachable point between consecutive samples lies in a qualifying
    /// geometry), [`Reachability::Impossible`] (an alibi), or
    /// [`Reachability::Unknown`]. Only polygon layers are supported.
    ///
    /// Sample pairs that would *require* exceeding `vmax` use the
    /// required speed instead (the observation overrides the assumed
    /// bound), so recorded data is never classified impossible.
    fn objects_possibly_passing_through(
        &self,
        spatial: &SpatialPredicate,
        vmax: f64,
    ) -> Result<Vec<(ObjectId, Reachability)>> {
        let layer = self.gis().layer_id(&spatial.layer)?;
        self.gis().expect_kind(layer, GeometryKind::Polygon)?;
        let geos = self.resolve_filter(layer, &spatial.filter)?;
        let polys = self
            .gis()
            .layer(layer)
            .as_polygons()
            .expect("kind checked above");

        let oids: Vec<ObjectId> = self.moft().objects();
        Ok(fan_out(&oids, self.moft().len(), |&oid, out| {
            let Some(track) = self.moft().track(oid) else {
                return;
            };
            let mut verdict = Reachability::Impossible;
            'pairs: for w in track.windows(2) {
                let (t1, t2) = (w[0].t.0 as f64, w[1].t.0 as f64);
                let (p1, p2) = (w[0].pos(), w[1].pos());
                let required = p1.distance(p2) / (t2 - t1);
                let bead = match Bead::new(t1, p1, t2, p2, vmax.max(required)) {
                    Ok(b) => b,
                    Err(_) => continue, // duplicate timestamps cannot occur post-index
                };
                for &g in &geos {
                    match bead.region_reachability(&polys[g.0 as usize]) {
                        Reachability::Possible => {
                            verdict = Reachability::Possible;
                            break 'pairs;
                        }
                        Reachability::Unknown => verdict = Reachability::Unknown,
                        Reachability::Impossible => {}
                    }
                }
            }
            // Single-sample objects: membership of the lone observation.
            if track.len() == 1 {
                let inside = geos
                    .iter()
                    .any(|&g| polys[g.0 as usize].contains(track[0].pos()));
                verdict = if inside {
                    Reachability::Possible
                } else {
                    Reachability::Impossible
                };
            }
            out.push((oid, verdict));
        }))
    }

    /// Per-object total time (seconds) spent inside qualifying geometries
    /// during the time-filtered windows — query 5 of Section 4. Objects
    /// spending no time are omitted.
    fn time_in_region_per_object(
        &self,
        spatial: &SpatialPredicate,
        time_preds: &[TimePredicate],
    ) -> Result<Vec<(ObjectId, f64)>> {
        let layer = self.gis().layer_id(&spatial.layer)?;
        let geos = self.resolve_filter(layer, &spatial.filter)?;
        let oids: Vec<ObjectId> = self.moft().objects();
        let totals = fan_out(&oids, self.moft().len(), |&oid, out| {
            let Ok(lit) = self.moft().trajectory(oid) else {
                return;
            };
            let legs = time_filtered_legs(&lit, time_preds, self.gis().time());
            if legs.is_empty() {
                return;
            }
            self.stats().legs_cut.add(legs.len() as u64);
            // Merge per-geometry intervals so overlapping geometries
            // don't double-count time.
            let mut all: Vec<TimeInterval> = Vec::new();
            for &g in &geos {
                match self.legs_intersect_geo(&legs, layer, g, spatial.within_distance) {
                    Ok(ivs) => all.extend(ivs),
                    Err(e) => return out.push(Err(e)),
                }
            }
            all.sort_by(|a, b| a.start.total_cmp(&b.start));
            let mut total = 0.0;
            let mut cur: Option<TimeInterval> = None;
            for iv in all {
                match &mut cur {
                    Some(c) if iv.start <= c.end + 1e-9 => c.end = c.end.max(iv.end),
                    _ => {
                        if let Some(c) = cur.take() {
                            total += c.end - c.start;
                        }
                        cur = Some(iv);
                    }
                }
            }
            if let Some(c) = cur {
                total += c.end - c.start;
            }
            if total > 0.0 {
                out.push(Ok((oid, total)));
            }
        });
        totals.into_iter().collect()
    }
}

/// Records per run when the time predicates bound no absolute window —
/// the granularity at which record scans are split across threads.
const SCAN_RUN_ROWS: usize = 1024;

/// The records of one object's t-ascending `track` inside `[lo, hi]`.
/// Each end is found by galloping outward from a guess — the start from
/// where `lo` would sit if the samples were evenly spaced over the
/// extent, the end from the start — so a short window costs a few
/// probes near it rather than two binary searches over the whole track
/// (which, across many objects, are mostly cache misses).
fn window(track: &[Record], extent: &ObjectExtent, lo: TimeId, hi: TimeId) -> (usize, usize) {
    // In f64: extreme instants must not overflow; the cast saturates.
    let t_min = extent.t_min.0 as f64;
    let span = extent.t_max.0 as f64 - t_min + 1.0;
    let guess = ((lo.0 as f64 - t_min) / span * track.len() as f64) as usize;
    let a = partition_near(track, guess, |r| r.t < lo);
    (a, a + partition_near(&track[a..], 0, |r| r.t <= hi))
}

/// `slice.partition_point(pred)` for a predicate true on a prefix,
/// searched by galloping outward from `hint` (clamped to the slice).
fn partition_near(slice: &[Record], hint: usize, pred: impl Fn(&Record) -> bool) -> usize {
    let hint = hint.min(slice.len());
    if hint < slice.len() && pred(&slice[hint]) {
        // Everything before `done` satisfies `pred`.
        let (mut done, mut step) = (hint + 1, 1);
        while done + step <= slice.len() && pred(&slice[done + step - 1]) {
            done += step;
            step *= 2;
        }
        let end = (done + step).min(slice.len());
        done + slice[done..end].partition_point(pred)
    } else {
        // Nothing from `rest` on satisfies `pred`.
        let (mut rest, mut step) = (hint, 1);
        while rest >= step && !pred(&slice[rest - step]) {
            rest -= step;
            step *= 2;
        }
        let start = rest.saturating_sub(step);
        start + slice[start..rest].partition_point(pred)
    }
}

/// Below this many records, work stays on the caller's thread: the
/// worker threads would cost more to start than the scan itself.
const MIN_PARALLEL_RECORDS: usize = 8 * SCAN_RUN_ROWS;

/// Applies `f` to every item, appending to one output vector in item
/// order, where the work covers `records` MOFT records. The one place
/// the workspace decides to go parallel: with more than one worker and
/// at least [`MIN_PARALLEL_RECORDS`] records, each item appends to a
/// vector of its own on one of the threads and the vectors are
/// concatenated in item order, so the output equals the sequential fold
/// (every item pushing into a single vector).
fn fan_out<'a, T, R, F>(items: &'a [T], records: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T, &mut Vec<R>) + Sync,
{
    if records < MIN_PARALLEL_RECORDS || rayon::current_num_threads() <= 1 {
        let mut out = Vec::new();
        for item in items {
            f(item, &mut out);
        }
        return out;
    }
    let parts: Vec<Vec<R>> = items
        .par_iter()
        .map(|item| {
            let mut out = Vec::new();
            f(item, &mut out);
            out
        })
        .collect();
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for mut part in parts {
        out.append(&mut part);
    }
    out
}

/// Applies `f` to every run, appending to one output vector in run
/// order ([`fan_out`] over the runs' records).
fn collect_runs<'m, T, F>(runs: &[&'m [Record]], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&'m [Record], &mut Vec<T>) + Sync,
{
    let records = runs.iter().map(|run| run.len()).sum();
    fan_out(runs, records, |run, out| f(run, out))
}

/// One qualifying element of a spatial predicate, looked up once per
/// query.
#[derive(Clone, Copy)]
struct Qualifying<'g> {
    id: GeoId,
    bbox: BBox,
    geo: GeoRef<'g>,
}

impl<'g> Qualifying<'g> {
    fn new(id: GeoId, geo: GeoRef<'g>) -> Qualifying<'g> {
        Qualifying {
            id,
            bbox: geo.bbox(),
            geo,
        }
    }
}

/// The elements of `geos` that `layer` holds, in the given order. Ids
/// it does not hold are skipped: no index stab could return them.
fn qualifying<'g>(gis: &'g Gis, layer: LayerId, geos: &[GeoId]) -> Vec<Qualifying<'g>> {
    let l = gis.layer(layer);
    geos.iter()
        .filter_map(|&id| l.geometry(id).ok().map(|geo| Qualifying::new(id, geo)))
        .collect()
}

/// `bbox` grown by the within-distance margin, when set.
fn inflated(bbox: BBox, within: Option<f64>) -> BBox {
    within.map_or(bbox, |d| bbox.inflated(d))
}

/// The bounding-box union of the qualifying elements, inflated by the
/// within-distance margin when set — the conservative spatial bound
/// behind every index prune: any record or leg matching some qualifying
/// element (by membership or by distance ≤ `within`) lies inside this
/// box. No elements yield the empty box, which intersects and contains
/// nothing — matching the scan, which also matches nothing.
fn qualifying_bbox(elements: &[Qualifying], within: Option<f64>) -> BBox {
    let union = elements.iter().fold(BBox::empty(), |b, e| b.union(&e.bbox));
    inflated(union, within)
}

/// The exact sample-semantics test: `p` belongs to the element (the
/// rollup `r^{Pt,G}`), or lies within distance `d` of it.
fn point_meets(geo: &GeoRef, p: Point, within: Option<f64>) -> bool {
    match within {
        None => geo.covers(p),
        Some(d) => match geo {
            GeoRef::Node(q) => q.distance(p) <= d,
            GeoRef::Polyline(line) => line.distance_to_point(p) <= d,
            GeoRef::Polygon(poly) => {
                poly.contains(p) || poly.edges().any(|e| e.distance_to_point(p) <= d)
            }
        },
    }
}

/// Emits the time intervals during which one leg meets one element: the
/// exact clip against a polygon, the exact within-distance solution for
/// a node, otherwise the whole leg when its midpoint meets the element.
/// The one per-(leg, element) test behind
/// [`QueryEngine::legs_intersect_geo`] and
/// [`QueryEngine::objects_passing_through`].
fn leg_intervals(
    leg: &TimedSegment,
    element: &Qualifying,
    within: Option<f64>,
    mut emit: impl FnMut(TimeInterval),
) {
    match (&element.geo, within) {
        (GeoRef::Polygon(poly), None) => {
            // The clip rejects on this same test; making it here spares
            // recomputing the polygon's bbox for every leg.
            if !element.bbox.intersects(&leg.seg.bbox()) {
                return;
            }
            for p in gisolap_geom::clip::clip_segment_to_polygon(&leg.seg, poly) {
                emit(TimeInterval {
                    start: leg.param_to_time(p.start),
                    end: leg.param_to_time(p.end),
                });
            }
        }
        (GeoRef::Node(q), Some(d)) => {
            // Solve |p(t) − q| ≤ d on this leg via a one-leg LIT.
            let t0 = leg.t0.round() as i64;
            let t1 = leg.t1.round() as i64;
            if t1 <= t0 {
                return;
            }
            let mini = Lit::new(
                gisolap_traj::sample::TrajectorySample::from_triples(&[
                    (t0, leg.seg.a.x, leg.seg.a.y),
                    (t1, leg.seg.b.x, leg.seg.b.y),
                ])
                .expect("two increasing instants"),
            );
            ops::intervals_within_distance(&mini, *q, d)
                .into_iter()
                .for_each(emit);
        }
        (geo, within) => {
            // Generic fallback: membership of the leg midpoint (for a
            // polygon, the midpoint itself must lie inside).
            let mid = leg.seg.midpoint();
            let hit = match geo {
                GeoRef::Polygon(poly) => poly.contains(mid),
                geo => point_meets(geo, mid, within),
            };
            if hit {
                emit(TimeInterval {
                    start: leg.t0,
                    end: leg.t1,
                });
            }
        }
    }
}

/// Sample-semantics membership for one spatial predicate: its qualifying
/// elements, ascending by id, registered once per query in a uniform
/// grid over their (inflated) bounding boxes. A record position stabs one
/// cell, and only that cell's elements get the bbox test and the exact
/// test — the same two tests, in the same ascending order, as a point
/// search of the layer hierarchy filtered to the qualifying set.
struct Membership<'g> {
    elements: Vec<Qualifying<'g>>,
    within: Option<f64>,
    /// [`qualifying_bbox`] of the elements: the index prune's bound.
    bounds: BBox,
    /// `None` when nothing qualifies (the bounds are empty).
    grid: Option<GridIndex>,
}

impl<'g> Membership<'g> {
    /// Registers the elements of `geos` (any order, duplicates allowed)
    /// in a grid of the engine's size.
    fn new<E: QueryEngine + ?Sized>(
        engine: &'g E,
        layer: LayerId,
        geos: &[GeoId],
        within: Option<f64>,
    ) -> Membership<'g> {
        let mut ids = geos.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let elements = qualifying(engine.gis(), layer, &ids);
        let bounds = qualifying_bbox(&elements, within);
        let grid = (!bounds.is_empty()).then(|| {
            let cells = engine.membership_grid_cells(elements.len());
            let mut grid = GridIndex::new(bounds, cells, cells);
            for (i, e) in elements.iter().enumerate() {
                // A layer holds at most u32::MAX elements (ids are u32).
                grid.insert(&inflated(e.bbox, within), i as u32);
            }
            grid
        });
        Membership {
            elements,
            within,
            bounds,
            grid,
        }
    }

    /// The qualifying elements `p` matches, ascending by id.
    fn matches(&self, p: Point) -> impl Iterator<Item = GeoId> + '_ {
        // The layer-hierarchy point search's bbox test, as the same
        // expression. Built by `expanded_to` so a NaN coordinate yields
        // the empty box (no match) instead of tripping the inverted-box
        // assertion.
        let probe = inflated(BBox::empty().expanded_to(p), self.within);
        let cell = self.grid.as_ref().map_or(&[][..], |g| g.cell_items(p));
        cell.iter()
            .map(|&i| &self.elements[i as usize])
            .filter(move |e| probe.intersects(&e.bbox) && point_meets(&e.geo, p, self.within))
            .map(|e| e.id)
    }
}

/// The zone-map blocks whose bbox reaches `bounds`, as runs, tallying
/// every block scanned or pruned.
fn zone_runs<'m>(
    idx: &MoftIndex,
    records: &'m [Record],
    bounds: &BBox,
    stats: &EngineStats,
) -> Vec<&'m [Record]> {
    let mut runs = Vec::new();
    for z in idx.zone_map().zones() {
        if z.bbox.intersects(bounds) {
            stats.index_zones_scanned.inc();
            runs.push(&records[z.start as usize..(z.start + z.len) as usize]);
        } else {
            stats.index_zones_pruned.inc();
            stats.index_records_pruned.add(z.len as u64);
        }
    }
    runs
}

/// Sample semantics over the borrowed runs: one tuple per (time-passing,
/// allowed record, matching element), in canonical record order with
/// elements ascending — one pass, no per-record allocation.
///
/// With a [`MoftIndex`], no record outside `membership.bounds` can
/// match. With no time predicate the runs become the zone-map blocks
/// that reach the bounds, selected in an `index-prune` phase before the
/// pass. Otherwise each time-passing record is tested against the bounds
/// inside the pass, and its tallies land in an `index-prune` phase after
/// it — counted as zone blocks when the time predicates kept every
/// record, exactly as the no-predicate path counts them. Pruned records
/// emit nothing under the scan either, so the output is bit-identical.
fn sample_tuples<E: QueryEngine + ?Sized>(
    engine: &E,
    runs: Vec<&[Record]>,
    preds: &[TimePredicate],
    layer: LayerId,
    membership: &Membership,
    allowed: impl Fn(ObjectId) -> bool + Sync,
    trace: &mut PhaseTrace,
) -> Vec<CTuple> {
    let stats = engine.stats();
    let time = engine.gis().time();
    let records = engine.moft().records();
    let bounds = membership.bounds;
    let (runs, prune) = match engine.moft_index() {
        Some(idx) if preds.is_empty() => {
            let prune_t0 = Instant::now();
            let zones = zone_runs(idx, records, &bounds, stats);
            trace.phase(stats, "index-prune", prune_t0);
            (zones, None)
        }
        idx => (runs, idx),
    };
    let passed = AtomicU64::new(0);
    let outside = AtomicU64::new(0);
    let tuples = collect_runs(&runs, |run, out| {
        let (mut run_passed, mut run_outside) = (0, 0);
        for r in run {
            if !eval_time(preds, time, r.t) {
                continue;
            }
            run_passed += 1;
            let p = r.pos();
            if prune.is_some() && !bounds.contains(p) {
                run_outside += 1;
                continue;
            }
            if allowed(r.oid) {
                out.extend(membership.matches(p).map(|g| CTuple {
                    oid: r.oid,
                    t: r.t,
                    pos: p,
                    geo: Some((layer, g)),
                }));
            }
        }
        passed.fetch_add(run_passed, Ordering::Relaxed);
        outside.fetch_add(run_outside, Ordering::Relaxed);
    });
    if let Some(idx) = prune {
        if passed.into_inner() == records.len() as u64 {
            // Only the zone tallies are wanted here, not the runs.
            zone_runs(idx, records, &bounds, stats);
        } else {
            stats.index_records_pruned.add(outside.into_inner());
        }
        trace.phase(stats, "index-prune", Instant::now());
    }
    tuples
}

/// A human-readable account of how an engine would evaluate a region —
/// which rollups apply, how the geometric sub-query resolves, and which
/// semantics drive the moving-object phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// The engine strategy.
    pub engine: &'static str,
    /// Ordered step descriptions.
    pub steps: Vec<String>,
    /// The engine's cumulative counters at explain time.
    pub stats: StatsSnapshot,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan [{}]", self.engine)?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {}. {s}", i + 1)?;
        }
        writeln!(f, "  stats: {}", self.stats)?;
        Ok(())
    }
}

fn describe_filter(filter: &GeoFilter) -> String {
    match filter {
        GeoFilter::All => "all elements".into(),
        GeoFilter::Member { category, member } => format!("α({category}, {member:?})"),
        GeoFilter::AttrCompare {
            category,
            attr,
            op,
            value,
        } => {
            format!("{category}.{attr} {op:?} {value}")
        }
        GeoFilter::Ids(ids) => format!("{} explicit ids", ids.len()),
        GeoFilter::IntersectsLayer { layer } => format!("intersects layer {layer}"),
        GeoFilter::ContainsNodeOf { layer } => format!("contains a node of {layer}"),
        GeoFilter::FactAggCompare {
            table,
            measure,
            agg,
            op,
            value,
            ..
        } => {
            format!("γ_{agg}({table}.{measure}) {op:?} {value} (nested aggregation)")
        }
        GeoFilter::And(a, b) => format!("({}) AND ({})", describe_filter(a), describe_filter(b)),
        GeoFilter::Not(inner) => format!("NOT ({})", describe_filter(inner)),
    }
}

/// Default `explain` implementation shared by every engine (free function
/// so the trait stays object-safe and uncluttered).
///
/// # Example
///
/// ```
/// use gisolap_core::{explain, GeoFilter, Gis, Layer, NaiveEngine};
/// use gisolap_core::{RegionC, SpatialPredicate};
/// use gisolap_geom::Polygon;
/// use gisolap_traj::Moft;
///
/// let mut gis = Gis::new();
/// gis.add_layer(Layer::polygons(
///     "districts",
///     vec![Polygon::rectangle(0.0, 0.0, 10.0, 10.0)],
/// ));
/// let moft = Moft::from_tuples([(1, 0, 2.0, 2.0)]);
/// let engine = NaiveEngine::new(&gis, &moft);
///
/// let region = RegionC::all()
///     .with_spatial(SpatialPredicate::in_layer("districts", GeoFilter::All));
/// let plan = explain(&engine, &region)?;
/// assert_eq!(plan.engine, "naive");
/// assert!(plan.to_string().contains("geometric sub-query on districts"));
/// # Ok::<(), gisolap_core::CoreError>(())
/// ```
pub fn explain<E: QueryEngine + ?Sized>(engine: &E, region: &RegionC) -> Result<Explain> {
    let mut steps = Vec::new();
    if let Some(snapshot) = engine.stream_snapshot() {
        let total = snapshot.segments().len();
        let kept = snapshot
            .segments()
            .iter()
            .filter(|meta| segment_may_match(meta, &region.time))
            .count();
        steps.push(format!(
            "segment pruning: {kept} of {total} sealed segment(s) may satisfy the time \
             predicates; live tail = {} record(s)",
            snapshot.tail_len()
        ));
    }
    if region.time.is_empty() {
        steps.push("scan the full MOFT (no time predicates)".to_string());
    } else {
        let preds: Vec<String> = region.time.iter().map(|p| format!("{p:?}")).collect();
        steps.push(format!(
            "filter the MOFT through Time-dimension rollups: {}",
            preds.join(" ∧ ")
        ));
    }
    if let Some(idx) = engine.moft_index() {
        steps.push(format!(
            "consult the MOFT index: interval tree over {} object extent(s), BVH + zone map of \
             {} block(s)",
            idx.extents().len(),
            idx.zone_map().zones().len()
        ));
    }
    if let Some(forbid) = &region.forbid {
        let layer = engine.gis().layer_id(&forbid.layer)?;
        let n = engine.resolve_filter(layer, &forbid.filter)?.len();
        steps.push(format!(
            "exclude objects sampled in {} forbidden element(s) of {} [{}]",
            n,
            forbid.layer,
            describe_filter(&forbid.filter)
        ));
    }
    match &region.spatial {
        None => steps.push("no spatial atom: C = the time-filtered MOFT (type 3)".into()),
        Some(spatial) => {
            let layer = engine.gis().layer_id(&spatial.layer)?;
            let n = engine.resolve_filter(layer, &spatial.filter)?.len();
            let how = match engine.name() {
                "overlay" => "precomputed overlay lookup",
                "indexed" => "computed with BVH filtering",
                _ => "computed by full scan",
            };
            steps.push(format!(
                "geometric sub-query on {}: {} → {} element(s) ({how})",
                spatial.layer,
                describe_filter(&spatial.filter),
                n
            ));
            let probe = match engine.name() {
                "naive" => "layer scan per record",
                _ => "per-query grid stab per record",
            };
            match (region.semantics, spatial.within_distance) {
                (SpatialSemantics::SampleBased, None) => steps.push(format!(
                    "match each record against r^Pt,G via {probe} (sample semantics)"
                )),
                (SpatialSemantics::SampleBased, Some(d)) => steps.push(format!(
                    "match each record within distance {d} via inflated {probe}"
                )),
                (SpatialSemantics::Interpolated, d) => steps.push(format!(
                    "interpolate each trajectory (LIT) and intersect legs{} (type-7 semantics)",
                    d.map_or(String::new(), |d| format!(" within distance {d}"))
                )),
            }
        }
    }
    steps.push("apply γ aggregation over the resulting (Oid, t) tuples".into());
    Ok(Explain {
        engine: engine.name(),
        steps,
        stats: engine.stats().snapshot(),
    })
}

/// An [`Explain`] plan annotated with what a real evaluation actually
/// did: row counts, the per-phase span tree, and the exact counter delta
/// the query cost. Produced by [`explain_analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainAnalyze {
    /// The plan, as [`explain`] would describe it.
    pub plan: Explain,
    /// The query's span tree: root `eval`, children `time-filter`,
    /// `filter-resolve`, `spatial-match`, `aggregate`. Subtree counter
    /// totals equal [`ExplainAnalyze::delta`] field-for-field (the
    /// counter-conservation invariant).
    pub root: Span,
    /// Tuples the evaluation produced.
    pub rows: usize,
    /// Tuples after `(Oid, t)` set-semantics deduplication.
    pub rows_deduped: usize,
    /// The engine counters this query cost (snapshot difference around
    /// the evaluation — the plan rendering's own counter bumps are
    /// excluded).
    pub delta: StatsSnapshot,
}

impl ExplainAnalyze {
    /// Renders the annotated plan. With `timings` off, wall-clock values
    /// (span durations and the delta's `*_ns` fields) are suppressed so
    /// the output is stable across runs — what the golden plan-format
    /// test pins.
    pub fn render(&self, timings: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!("plan [{}] (analyzed)\n", self.plan.engine));
        for (i, s) in self.plan.steps.iter().enumerate() {
            out.push_str(&format!("  {}. {s}\n", i + 1));
        }
        out.push_str(&format!(
            "rows: {} ({} after (Oid, t) dedup)\n",
            self.rows, self.rows_deduped
        ));
        out.push_str("spans:\n");
        for line in self.root.render(timings).lines() {
            out.push_str(&format!("  {line}\n"));
        }
        let delta = if timings {
            self.delta
        } else {
            self.delta.zero_timings()
        };
        out.push_str(&format!("delta: {delta}\n"));
        out
    }
}

impl std::fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render(true))
    }
}

/// EXPLAIN ANALYZE: evaluates `region` for real, tracing every phase,
/// and returns the plan annotated with actual row counts, per-phase
/// nanoseconds and counter deltas.
///
/// The counter delta is measured *around the evaluation only*; the plan
/// description (which re-resolves the geometric sub-query) is rendered
/// afterwards, so its counter bumps never leak into
/// [`ExplainAnalyze::delta`]. The conservation invariant — every counter
/// total in the span tree equals the delta — holds as long as no other
/// query runs on this engine concurrently.
///
/// # Example
///
/// ```
/// use gisolap_core::{explain_analyze, GeoFilter, Gis, Layer, NaiveEngine};
/// use gisolap_core::{RegionC, SpatialPredicate};
/// use gisolap_geom::Polygon;
/// use gisolap_traj::Moft;
///
/// let mut gis = Gis::new();
/// gis.add_layer(Layer::polygons(
///     "districts",
///     vec![Polygon::rectangle(0.0, 0.0, 10.0, 10.0)],
/// ));
/// let moft = Moft::from_tuples([(1, 0, 2.0, 2.0), (2, 0, 50.0, 50.0)]);
/// let engine = NaiveEngine::new(&gis, &moft);
///
/// let region = RegionC::all()
///     .with_spatial(SpatialPredicate::in_layer("districts", GeoFilter::All));
/// let analyzed = explain_analyze(&engine, &region)?;
/// assert_eq!(analyzed.rows, 1);
/// assert_eq!(analyzed.delta.queries, 1);
/// // Counter conservation: the span tree accounts for the whole delta.
/// assert_eq!(
///     analyzed.root.total("records_scanned"),
///     analyzed.delta.records_scanned,
/// );
/// # Ok::<(), gisolap_core::CoreError>(())
/// ```
pub fn explain_analyze<E: QueryEngine + ?Sized>(
    engine: &E,
    region: &RegionC,
) -> Result<ExplainAnalyze> {
    let before = engine.stats().snapshot();
    let started = Instant::now();
    let mut trace = PhaseTrace::enabled(engine.stats());
    let tuples = engine.eval_traced(region, &mut trace)?;
    let agg_t0 = Instant::now();
    let deduped = dedupe_oid_t(tuples.clone());
    trace.phase(engine.stats(), "aggregate", agg_t0);
    let root = trace
        .finish(engine.stats(), "eval", started)
        .expect("trace constructed enabled");
    let delta = engine.stats().snapshot().delta(&before);
    let plan = explain(engine, region)?;
    Ok(ExplainAnalyze {
        plan,
        root,
        rows: tuples.len(),
        rows_deduped: deduped.len(),
        delta,
    })
}

/// Conservative check whether a sealed segment can hold any instant
/// satisfying all `preds`: `Between`/`AtInstant` test the segment's time
/// range exactly; hour-of-day predicates test the hours the segment
/// spans; everything else answers `true` (never prunes wrongly).
fn segment_may_match(meta: &SegmentMeta, preds: &[TimePredicate]) -> bool {
    preds.iter().all(|p| match p {
        TimePredicate::Between(a, b) => meta.last >= *a && meta.first <= *b,
        TimePredicate::AtInstant(t) => meta.first <= *t && *t <= meta.last,
        TimePredicate::HourOfDayIn { lo, hi } => segment_covers_hour_of_day(meta, *lo, *hi),
        TimePredicate::TimeOfDayIs(tod) => {
            let (lo, hi) = match tod {
                TimeOfDay::Night => (0, 5),
                TimeOfDay::Morning => (6, 11),
                TimeOfDay::Afternoon => (12, 17),
                TimeOfDay::Evening => (18, 23),
            };
            segment_covers_hour_of_day(meta, lo, hi)
        }
        _ => true,
    })
}

/// Whether any hour-of-day the segment spans falls in `[lo, hi]`
/// (inclusive, mirroring `TimePredicate::HourOfDayIn`).
fn segment_covers_hour_of_day(meta: &SegmentMeta, lo: u32, hi: u32) -> bool {
    // The segment visits `steps + 1` consecutive hours starting at
    // hour-of-day `a`; 24 of them cover every hour-of-day, however short
    // the span in seconds.
    let first = meta.first.0.div_euclid(3600);
    let steps = meta.last.0.div_euclid(3600) - first;
    if steps >= 23 {
        return true;
    }
    let a = first.rem_euclid(24);
    (lo..=hi.min(23)).any(|h| (i64::from(h) - a).rem_euclid(24) <= steps)
}

/// Cuts a trajectory's legs at hour boundaries and keeps the sub-legs
/// whose instants pass all time predicates (evaluated at the sub-leg
/// midpoint — exact for the hour-aligned predicates of the paper's
/// examples; `Between`/`AtInstant` bounds are honoured by additional
/// cuts).
pub(crate) fn time_filtered_legs(
    lit: &Lit,
    preds: &[TimePredicate],
    time: &TimeDimension,
) -> Vec<TimedSegment> {
    const HOUR: f64 = 3600.0;
    let mut extra_cuts: Vec<f64> = Vec::new();
    for p in preds {
        match p {
            TimePredicate::Between(a, b) => {
                extra_cuts.push(a.0 as f64);
                extra_cuts.push(b.0 as f64);
            }
            TimePredicate::AtInstant(t) => {
                extra_cuts.push(t.0 as f64);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    let mut cuts: Vec<f64> = Vec::new();
    for leg in lit.segments() {
        // Cut points: hour boundaries within the leg plus predicate
        // bounds.
        cuts.clear();
        cuts.extend([leg.t0, leg.t1]);
        let mut h = (leg.t0 / HOUR).floor() * HOUR + HOUR;
        while h < leg.t1 {
            cuts.push(h);
            h += HOUR;
        }
        for &c in &extra_cuts {
            if c > leg.t0 && c < leg.t1 {
                cuts.push(c);
            }
        }
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b - a <= 1e-9 {
                continue; // zero-width window: no sub-leg to classify
            }
            // Floor, not `as i64`: truncation rounds negative midpoints
            // toward zero, shifting pre-epoch instants into the wrong
            // hour (e.g. mid −0.5 → hour 0 instead of hour 23).
            let mid = TimeId(((a + b) / 2.0).floor() as i64);
            if eval_time(preds, time, mid) {
                out.push(TimedSegment {
                    t0: a,
                    t1: b,
                    seg: gisolap_geom::Segment::new(leg.position_at(a), leg.position_at(b)),
                });
            }
        }
    }
    out
}

/// Removes duplicate `(oid, t)` pairs, keeping the first geometry match —
/// the paper's `(Oid, t)` *set* semantics.
pub fn dedupe_oid_t(mut tuples: Vec<CTuple>) -> Vec<CTuple> {
    tuples.sort_by_key(|t| (t.oid, t.t));
    tuples.dedup_by_key(|t| (t.oid, t.t));
    tuples
}

// --- the three strategies ---------------------------------------------------

/// Reference strategy: no indexes, no precomputation.
pub struct NaiveEngine<'a> {
    gis: &'a Gis,
    moft: &'a Moft,
    stream: Option<&'a StreamSnapshot>,
    stats: EngineStats,
    obs: Option<QueryObs>,
}

impl<'a> NaiveEngine<'a> {
    /// Creates the engine.
    pub fn new(gis: &'a Gis, moft: &'a Moft) -> NaiveEngine<'a> {
        NaiveEngine {
            gis,
            moft,
            stream: None,
            stats: EngineStats::new(),
            obs: None,
        }
    }

    /// Creates the engine over a frozen stream snapshot: queries run
    /// against the assembled MOFT, ingest counters seed the stats, and
    /// [`explain`] reports segment pruning.
    ///
    /// The snapshot's origin doesn't matter: a live `StreamIngest`, a
    /// recovered store (`recover_snapshot`), or a replication
    /// follower's `snapshot()` all produce the same `StreamSnapshot` —
    /// replica-backed engines answer region evaluations identically to
    /// leader-backed ones (property-tested in `tests/repl_faults.rs`).
    pub fn from_snapshot(gis: &'a Gis, snapshot: &'a StreamSnapshot) -> NaiveEngine<'a> {
        let engine = NaiveEngine::new(gis, snapshot.moft());
        let engine = NaiveEngine {
            stream: Some(snapshot),
            ..engine
        };
        crate::streaming::seed_ingest_stats(&engine.stats, &snapshot.stats());
        engine
    }

    /// Attaches an observability bundle (latency histogram, slow-query
    /// log, span tracer).
    pub fn with_obs(mut self, obs: QueryObs) -> NaiveEngine<'a> {
        self.obs = Some(obs);
        self
    }
}

impl QueryEngine for NaiveEngine<'_> {
    fn name(&self) -> &'static str {
        "naive"
    }
    fn gis(&self) -> &Gis {
        self.gis
    }
    fn moft(&self) -> &Moft {
        self.moft
    }
    fn stats(&self) -> &EngineStats {
        &self.stats
    }
    fn obs(&self) -> Option<&QueryObs> {
        self.obs.as_ref()
    }
    fn stream_snapshot(&self) -> Option<&StreamSnapshot> {
        self.stream
    }

    /// One cell: every qualifying element is tested against every
    /// record — the reference the sized grids are checked against.
    fn membership_grid_cells(&self, _qualifying: usize) -> usize {
        1
    }

    fn layer_pairs(&self, a: LayerId, b: LayerId) -> Result<Vec<(GeoId, GeoId)>> {
        self.stats.overlay_misses.inc(); // computed per call, no cache
        let la = self.gis.layer(a);
        let lb = self.gis.layer(b);
        let mut out = Vec::new();
        for (ga, ra) in la.iter() {
            for (gb, rb) in lb.iter() {
                if georef_intersects(&ra, &rb) {
                    out.push((ga, gb));
                }
            }
        }
        Ok(out)
    }
}

/// Layer-hierarchy accelerated strategy.
pub struct IndexedEngine<'a> {
    gis: &'a Gis,
    moft: &'a Moft,
    layer_trees: HashMap<LayerId, Bvh<GeoId>>,
    mindex: MoftIndex,
    stream: Option<&'a StreamSnapshot>,
    stats: EngineStats,
    obs: Option<QueryObs>,
}

impl<'a> IndexedEngine<'a> {
    /// Creates the engine, building one [`Bvh`] per layer plus the
    /// MOFT-side [`MoftIndex`].
    pub fn new(gis: &'a Gis, moft: &'a Moft) -> IndexedEngine<'a> {
        let layer_trees = gis
            .layers()
            .map(|(id, layer)| {
                let items = layer.iter().map(|(g, r)| (r.bbox(), g)).collect();
                (id, Bvh::build(items))
            })
            .collect();
        IndexedEngine {
            gis,
            moft,
            layer_trees,
            mindex: MoftIndex::build(moft, DEFAULT_ZONE_ROWS),
            stream: None,
            stats: EngineStats::new(),
            obs: None,
        }
    }

    /// Creates the engine over a frozen stream snapshot (see
    /// [`NaiveEngine::from_snapshot`]).
    pub fn from_snapshot(gis: &'a Gis, snapshot: &'a StreamSnapshot) -> IndexedEngine<'a> {
        let mut engine = IndexedEngine::new(gis, snapshot.moft());
        engine.stream = Some(snapshot);
        crate::streaming::seed_ingest_stats(&engine.stats, &snapshot.stats());
        engine
    }

    /// Attaches an observability bundle (latency histogram, slow-query
    /// log, span tracer).
    pub fn with_obs(mut self, obs: QueryObs) -> IndexedEngine<'a> {
        self.obs = Some(obs);
        self
    }

    /// Elements of `layer` whose bbox intersects `bbox`, ascending by id
    /// (one search of the layer's hierarchy).
    pub fn candidates(&self, layer: LayerId, bbox: &BBox) -> Vec<GeoId> {
        self.stats.layer_probes.inc();
        self.layer_trees[&layer]
            .search(bbox)
            .into_iter()
            .copied()
            .collect()
    }
}

impl QueryEngine for IndexedEngine<'_> {
    fn name(&self) -> &'static str {
        "indexed"
    }
    fn gis(&self) -> &Gis {
        self.gis
    }
    fn moft(&self) -> &Moft {
        self.moft
    }
    fn stats(&self) -> &EngineStats {
        &self.stats
    }
    fn obs(&self) -> Option<&QueryObs> {
        self.obs.as_ref()
    }
    fn stream_snapshot(&self) -> Option<&StreamSnapshot> {
        self.stream
    }

    fn moft_index(&self) -> Option<&MoftIndex> {
        Some(&self.mindex)
    }

    fn layer_pairs(&self, a: LayerId, b: LayerId) -> Result<Vec<(GeoId, GeoId)>> {
        self.stats.overlay_misses.inc(); // computed per call, no cache
        let la = self.gis.layer(a);
        let lb = self.gis.layer(b);
        let tree_b = &self.layer_trees[&b];
        let mut out = Vec::new();
        for (ga, ra) in la.iter() {
            self.stats.layer_probes.inc();
            for &gb in tree_b.search(&ra.bbox()) {
                let rb = lb.geometry(gb)?;
                if georef_intersects(&ra, &rb) {
                    out.push((ga, gb));
                }
            }
        }
        Ok(out)
    }
}

/// The Piet strategy: the precomputed layer overlay.
pub struct OverlayEngine<'a> {
    gis: &'a Gis,
    moft: &'a Moft,
    mindex: MoftIndex,
    cache: OverlayCache,
    stream: Option<&'a StreamSnapshot>,
    stats: EngineStats,
    obs: Option<QueryObs>,
}

impl<'a> OverlayEngine<'a> {
    /// Creates the engine, precomputing the full layer overlay.
    pub fn new(gis: &'a Gis, moft: &'a Moft) -> OverlayEngine<'a> {
        OverlayEngine {
            gis,
            moft,
            mindex: MoftIndex::build(moft, DEFAULT_ZONE_ROWS),
            cache: OverlayCache::precompute(gis),
            stream: None,
            stats: EngineStats::new(),
            obs: None,
        }
    }

    /// Creates the engine over a frozen stream snapshot (see
    /// [`NaiveEngine::from_snapshot`]).
    pub fn from_snapshot(gis: &'a Gis, snapshot: &'a StreamSnapshot) -> OverlayEngine<'a> {
        let mut engine = OverlayEngine::new(gis, snapshot.moft());
        engine.stream = Some(snapshot);
        crate::streaming::seed_ingest_stats(&engine.stats, &snapshot.stats());
        engine
    }

    /// Attaches an observability bundle (latency histogram, slow-query
    /// log, span tracer).
    pub fn with_obs(mut self, obs: QueryObs) -> OverlayEngine<'a> {
        self.obs = Some(obs);
        self
    }

    /// The precomputed overlay.
    pub fn cache(&self) -> &OverlayCache {
        &self.cache
    }
}

impl QueryEngine for OverlayEngine<'_> {
    fn name(&self) -> &'static str {
        "overlay"
    }
    fn gis(&self) -> &Gis {
        self.gis
    }
    fn moft(&self) -> &Moft {
        self.moft
    }
    fn stats(&self) -> &EngineStats {
        &self.stats
    }
    fn obs(&self) -> Option<&QueryObs> {
        self.obs.as_ref()
    }
    fn stream_snapshot(&self) -> Option<&StreamSnapshot> {
        self.stream
    }

    fn moft_index(&self) -> Option<&MoftIndex> {
        Some(&self.mindex)
    }

    fn layer_pairs(&self, a: LayerId, b: LayerId) -> Result<Vec<(GeoId, GeoId)>> {
        match self.cache.pairs_for(a, b) {
            Some(pairs) => {
                self.stats.overlay_hits.inc();
                Ok(pairs)
            }
            None => {
                self.stats.overlay_misses.inc();
                Err(CoreError::InvalidSchema(format!(
                    "overlay cache missing layer pair ({}, {})",
                    self.gis.layer(a).name(),
                    self.gis.layer(b).name()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::region::{CmpOp, GeoFilter};
    use gisolap_geom::point::pt;
    use gisolap_geom::{Polygon, Polyline};
    use gisolap_olap::schema::SchemaBuilder;
    use gisolap_olap::time::TimeOfDay;
    use gisolap_olap::value::Value;
    use gisolap_olap::DimensionInstance;

    const H: i64 = 3600;

    /// Two neighborhoods (poor west, rich east), a river, two schools.
    fn test_gis() -> Gis {
        let mut gis = Gis::new();
        gis.add_layer(Layer::polygons(
            "Ln",
            vec![
                Polygon::rectangle(0.0, 0.0, 10.0, 10.0),
                Polygon::rectangle(10.0, 0.0, 20.0, 10.0),
            ],
        ));
        gis.add_layer(Layer::polylines(
            "Lr",
            vec![Polyline::new(vec![pt(-1.0, 5.0), pt(11.0, 5.0)]).unwrap()],
        ));
        gis.add_layer(Layer::nodes("Ls", vec![pt(2.0, 2.0), pt(15.0, 5.0)]));

        let schema = SchemaBuilder::new("Neighbourhoods")
            .chain(&["neighborhood", "city"])
            .build()
            .unwrap();
        let dim = DimensionInstance::builder(schema)
            .rollup("neighborhood", "West", "city", "Antwerp")
            .unwrap()
            .rollup("neighborhood", "East", "city", "Antwerp")
            .unwrap()
            .attribute("neighborhood", "West", "income", 1200i64)
            .unwrap()
            .attribute("neighborhood", "East", "income", 2200i64)
            .unwrap()
            .build()
            .unwrap();
        gis.add_dimension(dim);
        gis.bind_alpha(
            "neighborhood",
            "Neighbourhoods",
            "Ln",
            &[("West", GeoId(0)), ("East", GeoId(1))],
        )
        .unwrap();
        gis
    }

    fn test_moft() -> Moft {
        // Object 1 stays in the west; object 2 moves west→east at t=1h;
        // object 3 is far away.
        Moft::from_tuples([
            (1, 0, 2.0, 2.0),
            (1, H, 3.0, 3.0),
            (2, 0, 5.0, 5.0),
            (2, H, 15.0, 5.0),
            (3, 0, 100.0, 100.0),
        ])
    }

    fn engines<'a>(
        gis: &'a Gis,
        moft: &'a Moft,
    ) -> (NaiveEngine<'a>, IndexedEngine<'a>, OverlayEngine<'a>) {
        (
            NaiveEngine::new(gis, moft),
            IndexedEngine::new(gis, moft),
            OverlayEngine::new(gis, moft),
        )
    }

    #[test]
    fn engines_agree_on_membership_region() {
        let gis = test_gis();
        let moft = test_moft();
        let region = RegionC::all().with_spatial(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::AttrCompare {
                category: "neighborhood".into(),
                attr: "income".into(),
                op: CmpOp::Lt,
                value: Value::Int(1500),
            },
        ));
        let (naive, indexed, overlay) = engines(&gis, &moft);
        let result = naive.eval(&region).unwrap();
        assert_eq!(result, indexed.eval(&region).unwrap());
        assert_eq!(result, overlay.eval(&region).unwrap());
        // West polygon: samples of object 1 (both) + object 2 at t=0.
        assert_eq!(result.len(), 3);
        assert!(result.iter().all(|t| t.geo == Some((LayerId(0), GeoId(0)))));
    }

    #[test]
    fn filter_resolution_variants() {
        let gis = test_gis();
        let moft = test_moft();
        let (naive, _, overlay) = engines(&gis, &moft);
        let ln = gis.layer_id("Ln").unwrap();

        assert_eq!(naive.resolve_filter(ln, &GeoFilter::All).unwrap().len(), 2);
        assert_eq!(
            naive
                .resolve_filter(
                    ln,
                    &GeoFilter::Member {
                        category: "neighborhood".into(),
                        member: "East".into()
                    }
                )
                .unwrap(),
            vec![GeoId(1)]
        );
        // Crossed by the river: only the west polygon (river ends at x=11
        // which is inside East? The river spans x∈[-1,11] at y=5 — it
        // enters East (x=10..11) too.
        let crossed = naive
            .resolve_filter(ln, &GeoFilter::IntersectsLayer { layer: "Lr".into() })
            .unwrap();
        assert_eq!(crossed, vec![GeoId(0), GeoId(1)]);
        assert_eq!(
            overlay
                .resolve_filter(ln, &GeoFilter::IntersectsLayer { layer: "Lr".into() })
                .unwrap(),
            crossed
        );
        // Contains a school: both polygons have one.
        let with_school = naive
            .resolve_filter(ln, &GeoFilter::ContainsNodeOf { layer: "Ls".into() })
            .unwrap();
        assert_eq!(with_school, vec![GeoId(0), GeoId(1)]);
        // Combinators.
        let both = naive
            .resolve_filter(
                ln,
                &GeoFilter::IntersectsLayer { layer: "Lr".into() }.and(GeoFilter::Member {
                    category: "neighborhood".into(),
                    member: "West".into(),
                }),
            )
            .unwrap();
        assert_eq!(both, vec![GeoId(0)]);
        let not_west = naive
            .resolve_filter(
                ln,
                &GeoFilter::Member {
                    category: "neighborhood".into(),
                    member: "West".into(),
                }
                .negate(),
            )
            .unwrap();
        assert_eq!(not_west, vec![GeoId(1)]);
    }

    #[test]
    fn time_predicates_filter_records() {
        let gis = test_gis();
        let moft = test_moft();
        let naive = NaiveEngine::new(&gis, &moft);
        // t=0 epoch is 1970-01-01 00:00 Thursday Night; t=1h is 01:00.
        let region = RegionC::all().with_time(TimePredicate::Between(TimeId(0), TimeId(0)));
        let r = naive.eval(&region).unwrap();
        assert_eq!(r.len(), 3); // three objects sampled at t=0
        let morning = RegionC::all().with_time(TimePredicate::TimeOfDayIs(TimeOfDay::Morning));
        assert!(naive.eval(&morning).unwrap().is_empty()); // all samples at night
    }

    #[test]
    fn forbid_excludes_whole_object() {
        let gis = test_gis();
        let moft = test_moft();
        let naive = NaiveEngine::new(&gis, &moft);
        // Objects in West that never have a sample in East: object 1
        // qualifies; object 2 is excluded (its t=1h sample is in East).
        let region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer(
                "Ln",
                GeoFilter::Member {
                    category: "neighborhood".into(),
                    member: "West".into(),
                },
            ))
            .with_forbid(SpatialPredicate::in_layer(
                "Ln",
                GeoFilter::Member {
                    category: "neighborhood".into(),
                    member: "East".into(),
                },
            ));
        let r = naive.eval(&region).unwrap();
        let oids: HashSet<ObjectId> = r.iter().map(|t| t.oid).collect();
        assert_eq!(oids, HashSet::from([ObjectId(1)]));
    }

    #[test]
    fn within_distance_sample_based() {
        let gis = test_gis();
        let moft = test_moft();
        let naive = NaiveEngine::new(&gis, &moft);
        // Samples within distance 1.5 of a school: object 1 at (2,2) and
        // (3,3) vs school (2,2): distances 0 and √2 ≈ 1.41 — both hit.
        // Object 2 at (15,5) is exactly on school 2 → hit.
        let region =
            RegionC::all().with_spatial(SpatialPredicate::near_layer("Ls", GeoFilter::All, 1.5));
        let r = naive.eval(&region).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn interpolated_entry_events() {
        let gis = test_gis();
        let moft = test_moft();
        let naive = NaiveEngine::new(&gis, &moft);
        // Object 2 crosses into East between samples; interpolated
        // semantics must produce an entry event for East.
        let region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer(
                "Ln",
                GeoFilter::Member {
                    category: "neighborhood".into(),
                    member: "East".into(),
                },
            ))
            .interpolated();
        let r = naive.eval(&region).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].oid, ObjectId(2));
        // Crossing x=10 happens at fraction (10-5)/10 of the hour leg.
        assert_eq!(r[0].t, TimeId(H / 2));
    }

    #[test]
    fn passes_through_vs_samples() {
        let gis = test_gis();
        // An object whose samples straddle the river's polygon… use a
        // region-crossing object with no sample inside (Figure 1's O6).
        let moft = Moft::from_tuples([(6, 0, -5.0, 5.0), (6, H, 25.0, 5.0)]);
        let naive = NaiveEngine::new(&gis, &moft);
        let spatial = SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::Member {
                category: "neighborhood".into(),
                member: "West".into(),
            },
        );
        // Sample-based: nothing.
        let sample_region = RegionC::all().with_spatial(spatial.clone());
        assert!(naive.eval(&sample_region).unwrap().is_empty());
        // Interpolated: passes through.
        let oids = naive.objects_passing_through(&spatial, &[]).unwrap();
        assert_eq!(oids, vec![ObjectId(6)]);
    }

    #[test]
    fn time_in_region_totals() {
        let gis = test_gis();
        // Crosses West (x∈[0,10] at y=5) in one hour-long leg spanning
        // x∈[-5,25]: fraction 10/30 of 3600 s = 1200 s.
        let moft = Moft::from_tuples([(7, 0, -5.0, 5.0), (7, H, 25.0, 5.0)]);
        let naive = NaiveEngine::new(&gis, &moft);
        let spatial = SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::Member {
                category: "neighborhood".into(),
                member: "West".into(),
            },
        );
        let totals = naive.time_in_region_per_object(&spatial, &[]).unwrap();
        assert_eq!(totals.len(), 1);
        assert!((totals[0].1 - 1200.0).abs() < 1.0);
        // Whole layer (West+East): x∈[0,20] → 2400 s, merged without
        // double counting at the shared boundary.
        let spatial_all = SpatialPredicate::in_layer("Ln", GeoFilter::All);
        let totals = naive.time_in_region_per_object(&spatial_all, &[]).unwrap();
        assert!((totals[0].1 - 2400.0).abs() < 1.0);
    }

    #[test]
    fn possibly_passing_through_three_values() {
        let gis = test_gis();
        const HOUR: i64 = 3600;
        // Object 1: samples 20 apart in one hour (required speed ~0.006);
        // with vmax 0.01 the slack is tiny — it can reach West (it is in
        // it) but not a far-away region.
        // Object 2: far away with no slack to reach anything.
        let moft = Moft::from_tuples([
            (1, 0, 2.0, 5.0),
            (1, HOUR, 8.0, 5.0),
            (2, 0, 100.0, 100.0),
            (2, HOUR, 105.0, 100.0),
        ]);
        let naive = NaiveEngine::new(&gis, &moft);
        let west = SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::Member {
                category: "neighborhood".into(),
                member: "West".into(),
            },
        );
        let verdicts = naive.objects_possibly_passing_through(&west, 0.01).unwrap();
        let m: std::collections::HashMap<u64, Reachability> =
            verdicts.into_iter().map(|(o, v)| (o.0, v)).collect();
        assert_eq!(m[&1], Reachability::Possible);
        assert_eq!(m[&2], Reachability::Impossible);

        // A generous vmax turns the far object's verdict around: with
        // enough speed budget it could have detoured through West.
        let verdicts = naive.objects_possibly_passing_through(&west, 1.0).unwrap();
        let m: std::collections::HashMap<u64, Reachability> =
            verdicts.into_iter().map(|(o, v)| (o.0, v)).collect();
        assert_eq!(m[&2], Reachability::Possible);

        // Non-polygon layers are rejected.
        let schools = SpatialPredicate::in_layer("Ls", GeoFilter::All);
        assert!(naive
            .objects_possibly_passing_through(&schools, 1.0)
            .is_err());
    }

    #[test]
    fn dedupe_oid_t_sets() {
        let mk = |oid, t, geo| CTuple {
            oid: ObjectId(oid),
            t: TimeId(t),
            pos: pt(0.0, 0.0),
            geo: Some((LayerId(0), GeoId(geo))),
        };
        let v = vec![mk(1, 0, 0), mk(1, 0, 1), mk(2, 0, 0)];
        assert_eq!(dedupe_oid_t(v).len(), 2);
    }

    #[test]
    fn explain_describes_the_plan() {
        let gis = test_gis();
        let moft = test_moft();
        let region = RegionC::all()
            .with_time(TimePredicate::TimeOfDayIs(TimeOfDay::Morning))
            .with_spatial(SpatialPredicate::in_layer(
                "Ln",
                GeoFilter::IntersectsLayer { layer: "Lr".into() },
            ))
            .with_forbid(SpatialPredicate::in_layer(
                "Ln",
                GeoFilter::Member {
                    category: "neighborhood".into(),
                    member: "East".into(),
                },
            ));
        let naive = NaiveEngine::new(&gis, &moft);
        let overlay = OverlayEngine::new(&gis, &moft);
        let pn = explain(&naive, &region).unwrap();
        let po = explain(&overlay, &region).unwrap();
        assert_eq!(pn.engine, "naive");
        assert_eq!(po.engine, "overlay");
        let pn_text = pn.to_string();
        let po_text = po.to_string();
        assert!(pn_text.contains("full scan"), "{pn_text}");
        assert!(po_text.contains("precomputed overlay lookup"), "{po_text}");
        assert!(pn_text.contains("forbidden"), "{pn_text}");
        assert!(pn_text.contains("Morning"), "{pn_text}");
        // Type-3 and interpolated variants render their markers.
        let t3 = explain(&naive, &RegionC::all()).unwrap().to_string();
        assert!(t3.contains("type 3"), "{t3}");
        let t7 = explain(
            &naive,
            &RegionC::all()
                .with_spatial(SpatialPredicate::in_layer("Ln", GeoFilter::All))
                .interpolated(),
        )
        .unwrap()
        .to_string();
        assert!(t7.contains("type-7"), "{t7}");
    }

    #[test]
    fn time_filtered_legs_cut_at_hours() {
        let gis = test_gis();
        let time = gis.time();
        // A 3-hour leg; keep only the middle hour via Between.
        let lit = Lit::new(
            gisolap_traj::sample::TrajectorySample::from_triples(&[
                (0, 0.0, 0.0),
                (3 * H, 30.0, 0.0),
            ])
            .unwrap(),
        );
        let legs = time_filtered_legs(
            &lit,
            &[TimePredicate::Between(TimeId(H), TimeId(2 * H))],
            time,
        );
        let total: f64 = legs.iter().map(|l| l.t1 - l.t0).sum();
        assert!((total - 3600.0).abs() < 1e-6);
        assert!(legs
            .iter()
            .all(|l| l.t0 >= H as f64 - 1e-9 && l.t1 <= 2.0 * H as f64 + 1e-9));
    }

    #[test]
    fn time_filtered_legs_floor_negative_midpoint() {
        // Regression: the sub-leg [-1, 0] has midpoint -0.5. Truncation
        // (`as i64`) rounded it toward zero — TimeId(0), hour 0 — while
        // the instant belongs to hour 23 of the previous day. Floor
        // classifies it correctly, so HourOfDayIn{23,23} keeps the leg.
        let gis = test_gis();
        let lit = Lit::new(
            gisolap_traj::sample::TrajectorySample::from_triples(&[(-H, 0.0, 0.0), (H, 20.0, 0.0)])
                .unwrap(),
        );
        let legs = time_filtered_legs(
            &lit,
            &[
                TimePredicate::Between(TimeId(-1), TimeId(2)),
                TimePredicate::HourOfDayIn { lo: 23, hi: 23 },
            ],
            gis.time(),
        );
        assert_eq!(legs.len(), 1, "{legs:?}");
        assert!((legs[0].t0 - (-1.0)).abs() < 1e-9);
        assert!(legs[0].t1.abs() < 1e-9);
    }

    #[test]
    fn time_filtered_legs_at_instant_boundary() {
        // An AtInstant predicate exactly on an hour boundary cut must
        // not select either adjacent sub-leg (both midpoints differ from
        // the instant) and must not produce zero-width legs.
        let gis = test_gis();
        let lit = Lit::new(
            gisolap_traj::sample::TrajectorySample::from_triples(&[
                (0, 0.0, 0.0),
                (2 * H, 20.0, 0.0),
            ])
            .unwrap(),
        );
        let legs = time_filtered_legs(&lit, &[TimePredicate::AtInstant(TimeId(H))], gis.time());
        assert!(legs.is_empty(), "{legs:?}");
        // Sanity: every emitted leg anywhere has positive width.
        let all = time_filtered_legs(&lit, &[], gis.time());
        assert!(all.iter().all(|l| l.t1 > l.t0));
    }

    #[test]
    fn time_filtered_legs_exact_hour_leg() {
        // A leg spanning exactly one hour gets no interior cut and is
        // classified by its own midpoint.
        let gis = test_gis();
        let lit = Lit::new(
            gisolap_traj::sample::TrajectorySample::from_triples(&[
                (H, 0.0, 0.0),
                (2 * H, 10.0, 0.0),
            ])
            .unwrap(),
        );
        let legs = time_filtered_legs(
            &lit,
            &[TimePredicate::HourOfDayIn { lo: 1, hi: 1 }],
            gis.time(),
        );
        assert_eq!(legs.len(), 1);
        assert!((legs[0].t0 - H as f64).abs() < 1e-9);
        assert!((legs[0].t1 - 2.0 * H as f64).abs() < 1e-9);
    }

    #[test]
    fn stats_count_engine_work() {
        let gis = test_gis();
        let moft = test_moft();
        let region = RegionC::all().with_spatial(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::IntersectsLayer { layer: "Lr".into() },
        ));

        let naive = NaiveEngine::new(&gis, &moft);
        naive.eval(&region).unwrap();
        naive.eval(&region).unwrap();
        let snap = naive.stats().snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.records_scanned, 2 * moft.records().len() as u64);
        assert_eq!(snap.overlay_hits, 0); // naive computes pairs per call
        assert!(snap.overlay_misses >= 2);

        let indexed = IndexedEngine::new(&gis, &moft);
        indexed.eval(&region).unwrap();
        assert!(indexed.stats().snapshot().layer_probes > 0);

        let overlay = OverlayEngine::new(&gis, &moft);
        overlay.eval(&region).unwrap();
        overlay.eval(&region).unwrap();
        let snap = overlay.stats().snapshot();
        assert!(snap.overlay_hits >= 2, "{snap:?}");
        assert_eq!(snap.overlay_misses, 0);

        // Interpolated evaluation counts the cut legs.
        let interp = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", GeoFilter::All))
            .interpolated();
        naive.stats().reset();
        naive.eval(&interp).unwrap();
        assert!(naive.stats().snapshot().legs_cut > 0);
    }

    #[test]
    fn explain_surfaces_stats() {
        let gis = test_gis();
        let moft = test_moft();
        let naive = NaiveEngine::new(&gis, &moft);
        naive.eval(&RegionC::all()).unwrap();
        let plan = explain(&naive, &RegionC::all()).unwrap();
        assert_eq!(plan.stats.queries, 1);
        let text = plan.to_string();
        assert!(text.contains("stats: queries=1"), "{text}");
    }

    #[test]
    fn engines_from_snapshot_match_batch_and_explain_pruning() {
        use gisolap_stream::{StreamConfig, StreamIngest};

        let gis = test_gis();
        let batch_moft = test_moft();

        // Stream the same records out of order, seal hour 0, keep hour 1
        // in the tail.
        let mut ingest = StreamIngest::new(StreamConfig {
            lateness_seconds: 0,
            segment_seconds: 3600,
        })
        .unwrap();
        let records: Vec<Record> = batch_moft.records().to_vec();
        ingest.ingest(&[records[4], records[0], records[2]]); // t=0 records
        ingest.ingest(&[records[3], records[1]]); // t=1h records seal hour 0
        let snapshot = ingest.snapshot().unwrap();
        assert_eq!(snapshot.segments().len(), 1);
        assert_eq!(snapshot.moft().records(), batch_moft.records());

        // Every engine built from the snapshot answers like its
        // batch-built twin.
        let region = RegionC::all().with_spatial(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::IntersectsLayer { layer: "Lr".into() },
        ));
        let (naive, indexed, overlay) = engines(&gis, &batch_moft);
        let sn = NaiveEngine::from_snapshot(&gis, &snapshot);
        let si = IndexedEngine::from_snapshot(&gis, &snapshot);
        let so = OverlayEngine::from_snapshot(&gis, &snapshot);
        assert_eq!(sn.eval(&region).unwrap(), naive.eval(&region).unwrap());
        assert_eq!(si.eval(&region).unwrap(), indexed.eval(&region).unwrap());
        assert_eq!(so.eval(&region).unwrap(), overlay.eval(&region).unwrap());

        // Ingest counters are seeded into the engine stats.
        let snap = sn.stats().snapshot();
        assert_eq!(snap.records_ingested, 5);
        assert_eq!(snap.segments_sealed, 1);
        assert!(snap.partials_merged > 0);

        // Explain reports segment pruning: a window before hour 0 keeps
        // no segment, a window covering it keeps one.
        let miss = RegionC::all().with_time(TimePredicate::Between(TimeId(-7200), TimeId(-3600)));
        let plan = explain(&sn, &miss).unwrap();
        assert!(plan.steps[0].contains("0 of 1 sealed segment(s)"), "{plan}");
        let hit = RegionC::all().with_time(TimePredicate::Between(TimeId(0), TimeId(10)));
        let plan = explain(&sn, &hit).unwrap();
        assert!(plan.steps[0].contains("1 of 1 sealed segment(s)"), "{plan}");
        assert!(plan.steps[0].contains("live tail = 2 record(s)"), "{plan}");
        // Batch-built engines have no pruning step.
        let plan = explain(&naive, &hit).unwrap();
        assert!(!plan.steps[0].contains("segment pruning"), "{plan}");
    }

    #[test]
    fn segment_pruning_respects_hour_of_day() {
        let meta = SegmentMeta {
            partition: 2,
            records: 1,
            objects: 1,
            first: TimeId(2 * H + 600),
            last: TimeId(2 * H + 1200),
            bbox: BBox::from_point(pt(0.0, 0.0)),
        };
        // Segment sits in hour-of-day 2 (Night).
        assert!(segment_may_match(
            &meta,
            &[TimePredicate::HourOfDayIn { lo: 2, hi: 4 }]
        ));
        assert!(!segment_may_match(
            &meta,
            &[TimePredicate::HourOfDayIn { lo: 6, hi: 11 }]
        ));
        assert!(segment_may_match(
            &meta,
            &[TimePredicate::TimeOfDayIs(TimeOfDay::Night)]
        ));
        assert!(!segment_may_match(
            &meta,
            &[TimePredicate::TimeOfDayIs(TimeOfDay::Morning)]
        ));
        // A midnight-wrapping segment covers hours 23 and 0.
        let wrap = SegmentMeta {
            first: TimeId(23 * H + 1800),
            last: TimeId(24 * H + 1800),
            ..meta.clone()
        };
        assert!(segment_covers_hour_of_day(&wrap, 0, 0));
        assert!(segment_covers_hour_of_day(&wrap, 23, 23));
        assert!(!segment_covers_hour_of_day(&wrap, 12, 12));
        // A compacted segment from 00:30 to 00:10 the next day spans
        // 23 h 40 min — less than a day in seconds, yet it visits every
        // hour-of-day, noon included.
        let merged = SegmentMeta {
            first: TimeId(1800),
            last: TimeId(24 * H + 600),
            ..meta.clone()
        };
        assert!(segment_covers_hour_of_day(&merged, 12, 12));
        assert!(segment_may_match(
            &merged,
            &[TimePredicate::HourOfDayIn { lo: 12, hi: 12 }]
        ));
        // One hour step short of a day still leaves one hour out.
        let short = SegmentMeta {
            first: TimeId(1800),
            last: TimeId(22 * H + 600),
            ..meta.clone()
        };
        assert!(segment_covers_hour_of_day(&short, 22, 22));
        assert!(!segment_covers_hour_of_day(&short, 23, 23));
        // Day-spanning segments never prune on hour-of-day.
        let wide = SegmentMeta {
            first: TimeId(0),
            last: TimeId(90_000),
            ..meta
        };
        assert!(segment_covers_hour_of_day(&wide, 12, 12));
    }

    proptest::proptest! {
        #[test]
        fn window_search_matches_binary_search(
            gaps in proptest::collection::vec(
                proptest::prop_oneof![1i64..20, 1i64..20_000],
                1..80,
            ),
            lo in -20_000i64..900_000,
            len in 0i64..200_000,
            hint in 0usize..90,
        ) {
            // Bursts and long pauses: the even-spacing guess is often far
            // off, so both galloping directions run long.
            let mut t = 0;
            let track: Vec<Record> = gaps
                .iter()
                .map(|g| {
                    t += g;
                    Record { oid: ObjectId(1), t: TimeId(t), x: 0.0, y: 0.0 }
                })
                .collect();
            let (lo, hi) = (TimeId(lo), TimeId(lo + len));
            let before_lo = |r: &Record| r.t < lo;
            proptest::prop_assert_eq!(
                partition_near(&track, hint, before_lo),
                track.partition_point(before_lo)
            );
            let index = MoftIndex::build(&Moft::from_records(track.clone()), 256);
            let want = (
                track.partition_point(before_lo),
                track.partition_point(|r| r.t <= hi),
            );
            proptest::prop_assert_eq!(window(&track, &index.extents()[0], lo, hi), want);
        }
    }

    #[test]
    fn window_search_survives_extreme_bounds() {
        let moft = Moft::from_tuples([(1, -5, 0.0, 0.0), (1, 7, 0.0, 0.0), (1, 9, 0.0, 0.0)]);
        let extent = MoftIndex::build(&moft, 256).extents()[0].clone();
        let track = moft.records();
        let all = (TimeId(i64::MIN), TimeId(i64::MAX));
        assert_eq!(window(track, &extent, all.0, all.1), (0, 3));
        assert_eq!(window(track, &extent, TimeId(i64::MAX), all.1), (3, 3));
        assert_eq!(window(track, &extent, all.0, TimeId(i64::MIN)), (0, 0));
        assert_eq!(window(track, &extent, TimeId(7), TimeId(8)), (1, 2));
    }

    #[test]
    fn engine_mismatch_error_names_both_engines() {
        let err = CoreError::EngineMismatch {
            a: "naive".into(),
            b: "overlay".into(),
        };
        let text = err.to_string();
        assert!(text.contains("naive") && text.contains("overlay"), "{text}");
    }
}
