//! High-level query objects: region + aggregation in one value.
//!
//! The paper defines a query as "an aggregation over the result given by
//! a first order formula" — [`MoQuery`] is exactly that pair: a
//! [`RegionC`] and an aggregation specification, runnable against any
//! engine in one call. The worked queries of Section 4 are one
//! constructor each away.

use gisolap_olap::time::TimeLevel;
use gisolap_traj::ObjectId;

use crate::engine::{dedupe_oid_t, QueryEngine};
use crate::layer::{GeoId, LayerId};
use crate::region::{eval_time, RegionC};
use crate::result as agg;
use crate::Result;

/// The aggregation applied over the materialized region `C`
/// (Definition 7's γ specialized to the `(Oid, t [, geo])` shape).
#[derive(Debug, Clone, PartialEq)]
pub enum MoAggSpec {
    /// `COUNT(C)` — tuples.
    CountTuples,
    /// `COUNT(DISTINCT Oid)`.
    CountDistinctObjects,
    /// Remark 1's rate: tuples divided by the number of time granules in
    /// the time-filtered MOFT ("buses per hour").
    RatePerGranule(TimeLevel),
    /// Per-granule tuple counts.
    CountPerGranule(TimeLevel),
    /// Per-granule distinct-object counts.
    DistinctPerGranule(TimeLevel),
    /// `MAX` over granules of the distinct-object count ("maximum number
    /// of buses per hour").
    MaxDistinctPerGranule(TimeLevel),
    /// Per-geometry tuple counts (query 2's per-street densities).
    CountPerGeometry,
    /// The raw object list.
    Objects,
}

/// A complete aggregate query.
///
/// # Example
///
/// ```
/// use gisolap_core::{GeoFilter, Gis, Layer, MoAggSpec, MoQuery, MoQueryResult};
/// use gisolap_core::{NaiveEngine, RegionC, SpatialPredicate};
/// use gisolap_geom::Polygon;
/// use gisolap_traj::Moft;
///
/// let mut gis = Gis::new();
/// gis.add_layer(Layer::polygons(
///     "districts",
///     vec![Polygon::rectangle(0.0, 0.0, 10.0, 10.0)],
/// ));
/// let moft = Moft::from_tuples([(1, 0, 2.0, 2.0), (2, 0, 5.0, 5.0)]);
/// let engine = NaiveEngine::new(&gis, &moft);
///
/// let region = RegionC::all()
///     .with_spatial(SpatialPredicate::in_layer("districts", GeoFilter::All));
/// let result = MoQuery::new(region, MoAggSpec::CountDistinctObjects).run(&engine)?;
/// assert_eq!(result, MoQueryResult::Scalar(2.0));
/// # Ok::<(), gisolap_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MoQuery {
    /// The spatio-temporal region `C`.
    pub region: RegionC,
    /// The γ aggregation over it.
    pub agg: MoAggSpec,
    /// Collapse `C` to `(Oid, t)` *set* semantics before aggregating
    /// (drop duplicate geometry matches). Default true — matching the
    /// paper's "set of pairs (objectId, time)" reading; switch off for
    /// per-geometry multiplicity (query 2).
    pub dedupe: bool,
}

/// A typed query result.
#[derive(Debug, Clone, PartialEq)]
pub enum MoQueryResult {
    /// A single number.
    Scalar(f64),
    /// A number that may be undefined on empty input (MAX over nothing).
    OptScalar(Option<f64>),
    /// `(granule id, value)` rows, granule-ascending.
    PerGranule(Vec<(i64, f64)>),
    /// `((layer, geometry), value)` rows.
    PerGeometry(Vec<((LayerId, GeoId), f64)>),
    /// Distinct objects, ascending.
    Objects(Vec<ObjectId>),
}

impl MoQuery {
    /// A query with the default `(Oid, t)` set semantics.
    pub fn new(region: RegionC, agg: MoAggSpec) -> MoQuery {
        MoQuery {
            region,
            agg,
            dedupe: true,
        }
    }

    /// Keeps per-geometry multiplicity (one tuple per matched geometry).
    pub fn keep_geometry_multiplicity(mut self) -> MoQuery {
        self.dedupe = false;
        self
    }

    /// Runs the query against an engine.
    pub fn run<E: QueryEngine + ?Sized>(&self, engine: &E) -> Result<MoQueryResult> {
        let mut tuples = engine.eval(&self.region)?;
        if self.dedupe {
            tuples = dedupe_oid_t(tuples);
        }
        let time = engine.gis().time();
        Ok(match &self.agg {
            MoAggSpec::CountTuples => MoQueryResult::Scalar(agg::count(&tuples)),
            MoAggSpec::CountDistinctObjects => {
                MoQueryResult::Scalar(agg::count_distinct_objects(&tuples))
            }
            MoAggSpec::RatePerGranule(level) => {
                // The granules of the time-filtered MOFT, counted over
                // its borrowed runs rather than a copy.
                let preds = &self.region.time;
                let runs = engine.time_runs(preds);
                let reference = runs
                    .iter()
                    .flat_map(|run| run.iter())
                    .filter(|r| eval_time(preds, time, r.t))
                    .map(|r| r.t);
                MoQueryResult::Scalar(agg::per_granule_rate(&tuples, reference, time, *level))
            }
            MoAggSpec::CountPerGranule(level) => {
                MoQueryResult::PerGranule(agg::count_per_granule(&tuples, time, *level))
            }
            MoAggSpec::DistinctPerGranule(level) => {
                MoQueryResult::PerGranule(agg::distinct_objects_per_granule(&tuples, time, *level))
            }
            MoAggSpec::MaxDistinctPerGranule(level) => {
                MoQueryResult::OptScalar(agg::max_distinct_per_granule(&tuples, time, *level))
            }
            MoAggSpec::CountPerGeometry => {
                MoQueryResult::PerGeometry(agg::count_per_geometry(&tuples))
            }
            MoAggSpec::Objects => MoQueryResult::Objects(agg::objects(&tuples)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NaiveEngine;
    use crate::gis::Gis;
    use crate::layer::Layer;
    use crate::region::{GeoFilter, SpatialPredicate};
    use gisolap_geom::Polygon;
    use gisolap_traj::Moft;

    const H: i64 = 3600;

    fn setup() -> (Gis, Moft) {
        let mut gis = Gis::new();
        gis.add_layer(Layer::polygons(
            "Ln",
            vec![
                Polygon::rectangle(0.0, 0.0, 10.0, 10.0),
                Polygon::rectangle(10.0, 0.0, 20.0, 10.0),
            ],
        ));
        let moft = Moft::from_tuples([
            (1, 0, 2.0, 2.0),
            (1, H, 3.0, 3.0),
            (2, 0, 5.0, 5.0),
            (2, H, 15.0, 5.0),
            (3, 2 * H, 99.0, 99.0),
        ]);
        (gis, moft)
    }

    fn region() -> RegionC {
        RegionC::all().with_spatial(SpatialPredicate::in_layer("Ln", GeoFilter::All))
    }

    #[test]
    fn scalar_aggregations() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        let count = MoQuery::new(region(), MoAggSpec::CountTuples)
            .run(&engine)
            .unwrap();
        assert_eq!(count, MoQueryResult::Scalar(4.0));
        let distinct = MoQuery::new(region(), MoAggSpec::CountDistinctObjects)
            .run(&engine)
            .unwrap();
        assert_eq!(distinct, MoQueryResult::Scalar(2.0));
        let objects = MoQuery::new(region(), MoAggSpec::Objects)
            .run(&engine)
            .unwrap();
        assert_eq!(
            objects,
            MoQueryResult::Objects(vec![ObjectId(1), ObjectId(2)])
        );
    }

    #[test]
    fn granule_aggregations() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        let per_hour = MoQuery::new(region(), MoAggSpec::CountPerGranule(TimeLevel::Hour))
            .run(&engine)
            .unwrap();
        assert_eq!(
            per_hour,
            MoQueryResult::PerGranule(vec![(0, 2.0), (1, 2.0)])
        );
        let max = MoQuery::new(region(), MoAggSpec::MaxDistinctPerGranule(TimeLevel::Hour))
            .run(&engine)
            .unwrap();
        assert_eq!(max, MoQueryResult::OptScalar(Some(2.0)));
        // Rate: 4 tuples; the unrestricted MOFT spans 3 hour granules.
        let rate = MoQuery::new(region(), MoAggSpec::RatePerGranule(TimeLevel::Hour))
            .run(&engine)
            .unwrap();
        let MoQueryResult::Scalar(rate) = rate else {
            panic!("rate is scalar-shaped: {rate:?}");
        };
        assert!((rate - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn geometry_multiplicity_control() {
        let mut gis = Gis::new();
        // Two overlapping polygons: a sample inside both produces two
        // geometry matches.
        gis.add_layer(Layer::polygons(
            "Ln",
            vec![
                Polygon::rectangle(0.0, 0.0, 10.0, 10.0),
                Polygon::rectangle(0.0, 0.0, 10.0, 10.0),
            ],
        ));
        let moft = Moft::from_tuples([(1, 0, 5.0, 5.0)]);
        let engine = NaiveEngine::new(&gis, &moft);
        let set = MoQuery::new(region(), MoAggSpec::CountTuples)
            .run(&engine)
            .unwrap();
        assert_eq!(set, MoQueryResult::Scalar(1.0)); // (Oid, t) set semantics
        let multi = MoQuery::new(region(), MoAggSpec::CountTuples)
            .keep_geometry_multiplicity()
            .run(&engine)
            .unwrap();
        assert_eq!(multi, MoQueryResult::Scalar(2.0));
        let per_geo = MoQuery::new(region(), MoAggSpec::CountPerGeometry)
            .keep_geometry_multiplicity()
            .run(&engine)
            .unwrap();
        match per_geo {
            MoQueryResult::PerGeometry(rows) => assert_eq!(rows.len(), 2),
            other => panic!("expected per-geometry rows, got {other:?}"),
        }
    }
}
