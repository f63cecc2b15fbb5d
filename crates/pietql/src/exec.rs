//! Piet-QL execution.
//!
//! Implements Section 5's evaluation pipeline:
//!
//! 1. The **geometric part** is resolved to the identifiers of the
//!    subject-layer elements that satisfy the conditions — "our Piet
//!    implementation returns the identifiers of the geometric objects (in
//!    this case, the cities), that satisfy the query". With an
//!    [`gisolap_core::OverlayEngine`] this is answered from the
//!    precomputed overlay.
//! 2. The **moving-objects part** receives those identifiers: "the input
//!    to this query will be the object identifiers of the cities that
//!    satisfy the geometric query … it is easy to intersect these objects
//!    with the trajectories. This process will check, for each object,
//!    and for each consecutive pair of points in the moving objects fact
//!    table, if the intersection between the segment defined by these two
//!    points and a city … is not empty."

use gisolap_core::engine::QueryEngine;
use gisolap_core::layer::GeoId;
use gisolap_core::region::{GeoFilter, RegionC, SpatialPredicate, TimePredicate};
use gisolap_core::result as agg;
use gisolap_olap::time::{DayOfWeek, TimeLevel, TimeOfDay, TypeOfDay};
use gisolap_olap::value::Value;

use crate::ast::{
    AttrValue, GeoCondition, Granule, MoAggregate, MoTarget, MoTimeCondition, PietQuery,
};
use crate::{PietError, Result};

/// The result of a Piet-QL query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Geometric-part-only query: the qualifying subject-layer ids.
    GeoIds(Vec<GeoId>),
    /// A scalar aggregate (moving-objects part only).
    Scalar(f64),
    /// An OLAP aggregation: `(group label, value)` rows.
    Table(Vec<(String, f64)>),
    /// Both an OLAP part and a moving-objects part were present.
    Combined {
        /// The OLAP rows.
        olap: Vec<(String, f64)>,
        /// The moving-objects scalar.
        mo: f64,
    },
}

impl QueryOutput {
    /// The moving-objects scalar, if the query produced one.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            QueryOutput::Scalar(v) => Some(*v),
            QueryOutput::Combined { mo, .. } => Some(*mo),
            _ => None,
        }
    }

    /// The geometry ids, if this is a geometric output.
    pub fn as_geo_ids(&self) -> Option<&[GeoId]> {
        match self {
            QueryOutput::GeoIds(v) => Some(v),
            _ => None,
        }
    }
}

/// Translates the geometric conditions into a [`GeoFilter`] over the
/// subject layer.
fn build_filter(query: &PietQuery) -> Result<GeoFilter> {
    let subject = &query.select[0];
    let mut filter: Option<GeoFilter> = None;
    let push = |f: GeoFilter, filter: &mut Option<GeoFilter>| {
        *filter = Some(match filter.take() {
            None => f,
            Some(prev) => prev.and(f),
        });
    };
    for cond in &query.conditions {
        match cond {
            GeoCondition::Intersection { a, b, .. } => {
                // Whichever side names the subject layer is filtered; the
                // other is the probe.
                let other = if a == subject {
                    b
                } else if b == subject {
                    a
                } else {
                    return Err(PietError::Exec(format!(
                        "intersection({}, {}) does not involve the subject layer {}",
                        a.0, b.0, subject.0
                    )));
                };
                push(
                    GeoFilter::IntersectsLayer {
                        layer: other.0.clone(),
                    },
                    &mut filter,
                );
            }
            GeoCondition::Contains {
                subject: s,
                contained,
                ..
            } => {
                if s != subject {
                    return Err(PietError::Exec(format!(
                        "CONTAINS subject {} is not the SELECT subject {}",
                        s.0, subject.0
                    )));
                }
                push(
                    GeoFilter::ContainsNodeOf {
                        layer: contained.0.clone(),
                    },
                    &mut filter,
                );
            }
            GeoCondition::Attr {
                layer,
                category,
                attribute,
                op,
                value,
            } => {
                if layer != subject {
                    return Err(PietError::Exec(format!(
                        "attr() layer {} is not the SELECT subject {}",
                        layer.0, subject.0
                    )));
                }
                let value = match value {
                    AttrValue::Number(n) => {
                        if n.fract() == 0.0 {
                            Value::Int(*n as i64)
                        } else {
                            Value::Float(*n)
                        }
                    }
                    AttrValue::Str(s) => Value::Str(s.clone()),
                };
                push(
                    GeoFilter::AttrCompare {
                        category: category.clone(),
                        attr: attribute.clone(),
                        op: *op,
                        value,
                    },
                    &mut filter,
                );
            }
        }
    }
    Ok(filter.unwrap_or(GeoFilter::All))
}

/// Translates the moving-objects time conditions.
fn build_time_predicates(mo: &MoAggregate) -> Result<Vec<TimePredicate>> {
    let mut out = Vec::with_capacity(mo.time.len());
    for c in &mo.time {
        out.push(match c {
            MoTimeCondition::TimeOfDay(s) => {
                let v = match s.as_str() {
                    "Night" => TimeOfDay::Night,
                    "Morning" => TimeOfDay::Morning,
                    "Afternoon" => TimeOfDay::Afternoon,
                    "Evening" => TimeOfDay::Evening,
                    other => return Err(PietError::Exec(format!("unknown timeOfDay {other:?}"))),
                };
                TimePredicate::TimeOfDayIs(v)
            }
            MoTimeCondition::DayOfWeek(s) => {
                let v = match s.as_str() {
                    "Monday" => DayOfWeek::Monday,
                    "Tuesday" => DayOfWeek::Tuesday,
                    "Wednesday" => DayOfWeek::Wednesday,
                    "Thursday" => DayOfWeek::Thursday,
                    "Friday" => DayOfWeek::Friday,
                    "Saturday" => DayOfWeek::Saturday,
                    "Sunday" => DayOfWeek::Sunday,
                    other => return Err(PietError::Exec(format!("unknown dayOfWeek {other:?}"))),
                };
                TimePredicate::DayOfWeekIs(v)
            }
            MoTimeCondition::TypeOfDay(s) => {
                let v = match s.as_str() {
                    "Weekday" => TypeOfDay::Weekday,
                    "Weekend" => TypeOfDay::Weekend,
                    other => return Err(PietError::Exec(format!("unknown typeOfDay {other:?}"))),
                };
                TimePredicate::TypeOfDayIs(v)
            }
            MoTimeCondition::Day(s) => TimePredicate::DayIs(s.clone()),
            MoTimeCondition::HourRange { lo, hi } => {
                TimePredicate::HourOfDayIn { lo: *lo, hi: *hi }
            }
        });
    }
    Ok(out)
}

/// Executes a parsed query against an engine.
pub fn execute<E: QueryEngine + ?Sized>(engine: &E, query: &PietQuery) -> Result<QueryOutput> {
    if query.select.is_empty() {
        return Err(PietError::Exec("SELECT list is empty".into()));
    }
    let subject_name = &query.select[0].0;
    let layer = engine
        .gis()
        .layer_id(subject_name)
        .map_err(|e| PietError::Exec(e.to_string()))?;

    // Phase 1: the geometric sub-query.
    let filter = build_filter(query)?;
    let geo_ids = engine
        .resolve_filter(layer, &filter)
        .map_err(|e| PietError::Exec(e.to_string()))?;

    // Phase 2a: the OLAP part, restricted to the qualifying geometries.
    let olap_rows = match &query.olap {
        None => None,
        Some(olap) => Some(exec_olap(engine, olap, subject_name, &geo_ids)?),
    };

    let Some(mo) = &query.mo else {
        return Ok(match olap_rows {
            Some(rows) => QueryOutput::Table(rows),
            None => QueryOutput::GeoIds(geo_ids),
        });
    };

    // Phase 2b: the moving-objects part, fed with the qualifying ids.
    let time_preds = build_time_predicates(mo)?;
    let spatial = match mo.within {
        None => SpatialPredicate::in_layer(subject_name.clone(), GeoFilter::Ids(geo_ids)),
        Some(d) => SpatialPredicate::near_layer(subject_name.clone(), GeoFilter::Ids(geo_ids), d),
    };
    // EXCLUDING: build the forbidden predicate from the extra conditions
    // (query 3's negated existential, over the same subject layer).
    let forbid = if mo.excluding.is_empty() {
        None
    } else {
        let probe = PietQuery {
            select: query.select.clone(),
            from: query.from.clone(),
            conditions: mo.excluding.clone(),
            olap: None,
            mo: None,
        };
        Some(SpatialPredicate::in_layer(
            subject_name.clone(),
            build_filter(&probe)?,
        ))
    };

    let value = match mo.target {
        MoTarget::Passes => {
            let oids = engine
                .objects_passing_through(&spatial, &time_preds)
                .map_err(|e| PietError::Exec(e.to_string()))?;
            match &forbid {
                None => oids.len() as f64,
                Some(fp) => {
                    // Exclude objects ever sampled in a forbidden element.
                    let mut region = RegionC::all();
                    region.spatial = Some(fp.clone());
                    let banned: std::collections::HashSet<_> = engine
                        .eval(&region)
                        .map_err(|e| PietError::Exec(e.to_string()))?
                        .iter()
                        .map(|t| t.oid)
                        .collect();
                    oids.iter().filter(|o| !banned.contains(o)).count() as f64
                }
            }
        }
        MoTarget::Tuples | MoTarget::Objects => {
            let mut region = RegionC::all().with_spatial(spatial);
            region.forbid = forbid.clone();
            region.time = time_preds.clone();
            let tuples = engine
                .eval(&region)
                .map_err(|e| PietError::Exec(e.to_string()))?;
            let tuples = gisolap_core::engine::dedupe_oid_t(tuples);
            match mo.target {
                MoTarget::Tuples => agg::count(&tuples),
                _ => agg::count_distinct_objects(&tuples),
            }
        }
    };

    // PER granule: divide by the number of granules in the time-filtered
    // MOFT span (Remark 1 semantics).
    let value = match mo.per {
        None => value,
        Some(g) => {
            let level = match g {
                Granule::Hour => TimeLevel::Hour,
                Granule::Day => TimeLevel::Day,
            };
            let time = engine.gis().time();
            let reference: std::collections::HashSet<i64> = engine
                .time_filtered(&time_preds)
                .iter()
                .map(|r| time.granule(r.t, level))
                .collect();
            if reference.is_empty() {
                0.0
            } else {
                value / reference.len() as f64
            }
        }
    };

    Ok(match olap_rows {
        Some(olap) => QueryOutput::Combined { olap, mo: value },
        None => QueryOutput::Scalar(value),
    })
}

/// Executes the OLAP part: aggregate `table.measure` with `func`, keeping
/// only rows whose `via` category member is α-bound to a qualifying
/// geometry, grouped by the `by` level (grand total when absent).
fn exec_olap<E: QueryEngine + ?Sized>(
    engine: &E,
    olap: &crate::ast::OlapAggregate,
    subject_layer: &str,
    geo_ids: &[GeoId],
) -> Result<Vec<(String, f64)>> {
    use std::collections::HashSet;

    let gis = engine.gis();
    let ft = gis
        .fact_table(&olap.table)
        .map_err(|e| PietError::Exec(e.to_string()))?;
    let func = gisolap_olap::AggFn::parse(&olap.func)
        .ok_or_else(|| PietError::Exec(format!("unknown aggregate {}", olap.func)))?;

    // Which fact rows survive: those whose `via` member maps into the
    // qualifying geometry set.
    let via = olap.via.as_deref().or(olap.by.as_deref());
    let restricted;
    let table_ref = match via {
        None => ft,
        Some(category) => {
            let binding = gis
                .alpha(category)
                .map_err(|e| PietError::Exec(e.to_string()))?;
            let layer_id = gis
                .layer_id(subject_layer)
                .map_err(|e| PietError::Exec(e.to_string()))?;
            if binding.layer != layer_id {
                return Err(PietError::Exec(format!(
                    "category {category:?} is not bound to the subject layer {subject_layer}"
                )));
            }
            let allowed: HashSet<&str> = geo_ids
                .iter()
                .filter_map(|&g| binding.member_of(g))
                .collect();
            restricted = ft
                .dice(category, category, |name, _, _| allowed.contains(name))
                .map_err(|e| PietError::Exec(e.to_string()))?;
            &restricted
        }
    };

    let group_level = olap.by.as_deref().unwrap_or("All");
    let group_col = via.unwrap_or(group_level);
    let rows = table_ref
        .aggregate(func, &[(group_col, group_level)], &olap.measure)
        .map_err(|e| PietError::Exec(e.to_string()))?;
    Ok(rows.into_iter().map(|(k, v)| (k.join("/"), v)).collect())
}

/// Parses and executes in one step.
pub fn run<E: QueryEngine + ?Sized>(engine: &E, text: &str) -> Result<QueryOutput> {
    let query = crate::parser::parse(text)?;
    execute(engine, &query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_core::engine::{NaiveEngine, OverlayEngine};
    use gisolap_core::gis::Gis;
    use gisolap_core::layer::Layer;
    use gisolap_geom::point::pt;
    use gisolap_geom::{Polygon, Polyline};
    use gisolap_olap::schema::SchemaBuilder;
    use gisolap_olap::DimensionInstance;
    use gisolap_traj::Moft;

    /// The OLAP rows of a table or combined output.
    fn table(out: &QueryOutput) -> &[(String, f64)] {
        match out {
            QueryOutput::Table(rows) | QueryOutput::Combined { olap: rows, .. } => rows,
            other => panic!("no OLAP rows in {other:?}"),
        }
    }

    /// Two cities; a river crosses only city 0; a store only in city 0.
    fn setup() -> (Gis, Moft) {
        let mut gis = Gis::new();
        gis.add_layer(Layer::polygons(
            "cities",
            vec![
                Polygon::rectangle(0.0, 0.0, 10.0, 10.0),
                Polygon::rectangle(20.0, 0.0, 30.0, 10.0),
            ],
        ));
        gis.add_layer(Layer::polylines(
            "rivers",
            vec![Polyline::new(vec![pt(-5.0, 5.0), pt(15.0, 5.0)]).unwrap()],
        ));
        gis.add_layer(Layer::nodes("stores", vec![pt(5.0, 5.0)]));
        let schema = SchemaBuilder::new("Cities")
            .chain(&["city"])
            .build()
            .unwrap();
        let dim = DimensionInstance::builder(schema)
            .member("city", "A")
            .unwrap()
            .member("city", "B")
            .unwrap()
            .attribute("city", "A", "pop", 80_000i64)
            .unwrap()
            .attribute("city", "B", "pop", 20_000i64)
            .unwrap()
            .build()
            .unwrap();
        gis.add_dimension(dim);
        gis.bind_alpha(
            "city",
            "Cities",
            "cities",
            &[("A", GeoId(0)), ("B", GeoId(1))],
        )
        .unwrap();
        // One car crossing city 0 between samples; one car sampled inside
        // city 1; one far away.
        let moft = Moft::from_tuples([
            (1, 0, -10.0, 5.0),
            (1, 3600, 15.0, 5.0), // crosses city 0, never sampled inside
            (2, 0, 25.0, 5.0),    // inside city 1
            (3, 0, 100.0, 100.0),
        ]);
        (gis, moft)
    }

    #[test]
    fn geometric_part_returns_ids() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        let out = run(
            &engine,
            "SELECT layer.cities; FROM S; \
             WHERE intersection(layer.cities, layer.rivers, subplevel.Linestring)",
        )
        .unwrap();
        assert_eq!(out.as_geo_ids().unwrap(), &[GeoId(0)]);
    }

    #[test]
    fn section5_query_end_to_end() {
        let (gis, moft) = setup();
        let engine = OverlayEngine::new(&gis, &moft);
        // "Total number of cars passing through cities crossed by a
        // river, containing at least one store."
        let out = run(
            &engine,
            "SELECT layer.cities; FROM PietSchema; \
             WHERE intersection(layer.cities, layer.rivers, subplevel.Linestring) \
             AND (layer.cities) CONTAINS (layer.cities, layer.stores, subplevel.Point) \
             | COUNT(PASSES)",
        )
        .unwrap();
        // Only car 1 passes through city 0 (the qualifying city).
        assert_eq!(out.as_scalar(), Some(1.0));
    }

    #[test]
    fn sample_vs_interpolated_targets_differ() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        let base = "SELECT layer.cities; FROM S; \
                    WHERE intersection(layer.cities, layer.rivers)";
        // Sample-based objects: car 1 has no sample inside city 0 → 0.
        let objects = run(&engine, &format!("{base} | COUNT(OBJECTS)")).unwrap();
        assert_eq!(objects.as_scalar(), Some(0.0));
        // Interpolated: car 1 passes through → 1.
        let passes = run(&engine, &format!("{base} | COUNT(PASSES)")).unwrap();
        assert_eq!(passes.as_scalar(), Some(1.0));
    }

    #[test]
    fn attr_filter_executes() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        let out = run(
            &engine,
            "SELECT layer.cities; FROM S; WHERE attr(layer.cities, city.pop >= 50000)",
        )
        .unwrap();
        assert_eq!(out.as_geo_ids().unwrap(), &[GeoId(0)]);
    }

    #[test]
    fn count_tuples_with_time_filter() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        // All cities, counting tuples inside any city: car 2's sample.
        let out = run(&engine, "SELECT layer.cities; FROM S; | COUNT(TUPLES)").unwrap();
        assert_eq!(out.as_scalar(), Some(1.0));
        // Per hour: two hour-granules appear in the (unfiltered) MOFT.
        let out = run(
            &engine,
            "SELECT layer.cities; FROM S; | COUNT(TUPLES) PER HOUR",
        )
        .unwrap();
        assert_eq!(out.as_scalar(), Some(0.5));
    }

    #[test]
    fn within_clause_counts_nearby_objects() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        // Car 3 sits at (100, 100), ~103 from city 1's nearest corner
        // (30, 10): distance = √(70² + 90²) ≈ 114 — use 120 to include it.
        let out = run(
            &engine,
            "SELECT layer.cities; FROM S; | COUNT(OBJECTS) WITHIN 120",
        )
        .unwrap();
        // Within 120 of any city: car 1's samples (near city 0), car 2
        // (inside city 1), car 3 (within 120 of city 1).
        assert_eq!(out.as_scalar(), Some(3.0));
        let tight = run(
            &engine,
            "SELECT layer.cities; FROM S; | COUNT(OBJECTS) WITHIN 1",
        )
        .unwrap();
        // Car 1's t=0 sample is 10 from city 0 — excluded; its t=3600
        // sample at (15,5) is 5 away — excluded too. Only car 2 inside.
        assert_eq!(tight.as_scalar(), Some(1.0));
    }

    #[test]
    fn excluding_clause_drops_objects() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        // Count objects sampled in any city, excluding objects ever
        // sampled in a small-population city: car 2 sits in city B
        // (pop 20 000) and is dropped.
        let out = run(
            &engine,
            "SELECT layer.cities; FROM S; \
             | COUNT(OBJECTS) EXCLUDING attr(layer.cities, city.pop < 50000)",
        )
        .unwrap();
        assert_eq!(out.as_scalar(), Some(0.0));
        // Without the exclusion the count is 1 (car 2).
        let base = run(&engine, "SELECT layer.cities; FROM S; | COUNT(OBJECTS)").unwrap();
        assert_eq!(base.as_scalar(), Some(1.0));
        // PASSES with exclusion: car 1 passes through city 0 and is never
        // sampled in a small city → survives.
        let passes = run(
            &engine,
            "SELECT layer.cities; FROM S; \
             WHERE intersection(layer.cities, layer.rivers) \
             | COUNT(PASSES) EXCLUDING attr(layer.cities, city.pop < 50000)",
        )
        .unwrap();
        assert_eq!(passes.as_scalar(), Some(1.0));
    }

    #[test]
    fn olap_part_grand_total_and_by_level() {
        use gisolap_datagen::Fig1Scenario;
        let s = Fig1Scenario::build();
        let engine = NaiveEngine::new(&s.gis, &s.moft);
        // Low-income neighborhoods: n0 (population 60 000) and n5
        // (55 000). SUM of census people per neighborhood equals the
        // population.
        let out = run(
            &engine,
            "SELECT layer.Ln; FROM Fig1; \
             WHERE attr(layer.Ln, neighborhood.income < 1500) \
             | OLAP SUM(census.people) BY neighborhood",
        )
        .unwrap();
        let rows = table(&out);
        let m: std::collections::HashMap<&str, f64> =
            rows.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(m.len(), 2);
        assert!((m["n0"] - 60_000.0).abs() < 1e-6);
        assert!((m["n5"] - 55_000.0).abs() < 1e-6);

        // Grand total via the implicit All level, still restricted to
        // the qualifying geometries through VIA.
        let out = run(
            &engine,
            "SELECT layer.Ln; FROM Fig1; \
             WHERE attr(layer.Ln, neighborhood.income < 1500) \
             | OLAP SUM(census.people) VIA neighborhood",
        )
        .unwrap();
        let rows = table(&out);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].1 - 115_000.0).abs() < 1e-6);
    }

    #[test]
    fn combined_three_part_query() {
        use gisolap_datagen::Fig1Scenario;
        let s = Fig1Scenario::build();
        let engine = NaiveEngine::new(&s.gis, &s.moft);
        let out = run(
            &engine,
            "SELECT layer.Ln; FROM Fig1; \
             WHERE attr(layer.Ln, neighborhood.income < 1500) \
             | OLAP AVG(census.people) BY neighborhood \
             | COUNT(TUPLES) PER HOUR WHERE timeOfDay = 'Morning'",
        )
        .unwrap();
        // The MO scalar is Remark 1's 4/3; the OLAP rows cover both
        // low-income neighborhoods.
        assert!((out.as_scalar().unwrap() - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(table(&out).len(), 2);
    }

    #[test]
    fn exec_errors() {
        let (gis, moft) = setup();
        let engine = NaiveEngine::new(&gis, &moft);
        assert!(run(&engine, "SELECT layer.ghost; FROM S;").is_err());
        assert!(run(
            &engine,
            "SELECT layer.cities; FROM S; WHERE intersection(layer.rivers, layer.stores)"
        )
        .is_err());
        assert!(run(
            &engine,
            "SELECT layer.cities; FROM S; | COUNT(TUPLES) WHERE timeOfDay = 'Brunch'"
        )
        .is_err());
    }
}
