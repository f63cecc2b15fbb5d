//! Property tests: the three evaluation strategies are interchangeable,
//! and sample-semantics evaluation is exactly the literal reading of the
//! region.
//!
//! The literal model walks every record in canonical `(oid, t)` order,
//! keeps those passing the time predicates, and tests each against every
//! qualifying element in ascending id order with one exact
//! `covers`/distance test — no index, no grid, no bounding box. All
//! three engines must reproduce its tuple vector bit for bit (emission
//! order, multiplicity and position bits included), agree with each
//! other on interpolated semantics, on every `MoAggSpec` and on
//! passes-through, on random cities and on a lattice of edge inputs.

use gisolap_core::engine::{dedupe_oid_t, IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine};
use gisolap_core::layer::GeoRef;
use gisolap_core::region::{
    eval_time, CmpOp, GeoFilter, RegionC, SpatialPredicate, SpatialSemantics, TimePredicate,
};
use gisolap_core::{CTuple, GeoId, Gis, Layer, MoAggSpec, MoQuery};
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_geom::point::pt;
use gisolap_geom::{Point, Polygon, Polyline};
use gisolap_olap::time::{TimeId, TimeLevel, TimeOfDay};
use gisolap_olap::value::Value;
use gisolap_traj::{Moft, ObjectId};
use proptest::prelude::*;

fn geo_filter() -> impl Strategy<Value = GeoFilter> {
    prop_oneof![
        Just(GeoFilter::All),
        (900i64..3500).prop_map(|v| GeoFilter::AttrCompare {
            category: "neighborhood".into(),
            attr: "income".into(),
            op: CmpOp::Lt,
            value: Value::Int(v),
        }),
        Just(GeoFilter::IntersectsLayer { layer: "Lr".into() }),
        Just(GeoFilter::ContainsNodeOf {
            layer: "Lstores".into()
        }),
        (900i64..3500).prop_map(|v| {
            GeoFilter::IntersectsLayer { layer: "Lr".into() }.and(GeoFilter::AttrCompare {
                category: "neighborhood".into(),
                attr: "income".into(),
                op: CmpOp::Ge,
                value: Value::Int(v),
            })
        }),
        Just(
            GeoFilter::ContainsNodeOf {
                layer: "Lschools".into()
            }
            .negate()
        ),
        // A single element, or none at all.
        (0u32..4).prop_map(|g| GeoFilter::Ids(vec![GeoId(g)])),
        Just(GeoFilter::Ids(vec![])),
    ]
}

/// The spatial atom: membership or within-distance, on polygons,
/// polylines and nodes.
fn spatial() -> impl Strategy<Value = SpatialPredicate> {
    prop_oneof![
        geo_filter().prop_map(|f| SpatialPredicate::in_layer("Ln", f)),
        (geo_filter(), 1.0f64..60.0).prop_map(|(f, d)| SpatialPredicate::near_layer("Ln", f, d)),
        (1.0f64..120.0).prop_map(|d| SpatialPredicate::near_layer("Lschools", GeoFilter::All, d)),
        (1.0f64..40.0).prop_map(|d| SpatialPredicate::near_layer("Lr", GeoFilter::All, d)),
        (0u32..3).prop_map(|g| {
            SpatialPredicate::near_layer("Lstores", GeoFilter::Ids(vec![GeoId(g)]), 80.0)
        }),
    ]
}

/// Relative predicates plus absolute windows (the interval-tree path)
/// over the ~15 minutes `RandomWaypoint` samples from 2006-01-09 06:00.
fn time_preds() -> impl Strategy<Value = Vec<TimePredicate>> {
    let start = TimeId::from_ymd_hms(2006, 1, 9, 6, 0, 0).0;
    prop_oneof![
        Just(vec![]),
        Just(vec![TimePredicate::TimeOfDayIs(TimeOfDay::Morning)]),
        (6u32..12).prop_map(|h| vec![TimePredicate::HourOfDayIn { lo: h, hi: h + 2 }]),
        (0i64..900, 0i64..600).prop_map(move |(a, len)| {
            vec![TimePredicate::Between(
                TimeId(start + a),
                TimeId(start + a + len),
            )]
        }),
        (0i64..15).prop_map(move |k| vec![TimePredicate::AtInstant(TimeId(start + 60 * k))]),
        Just(vec![TimePredicate::Between(
            TimeId(start),
            TimeId(start + 86_400)
        )]),
        (9u32..11).prop_map(|d| vec![TimePredicate::DayIs(format!("2006-01-{d:02}"))]),
        (0i64..900).prop_map(move |a| {
            vec![
                TimePredicate::Between(TimeId(start + a), TimeId(start + 900)),
                TimePredicate::DayIs("2006-01-09".into()),
            ]
        }),
    ]
}

fn city(seed: u64) -> CityScenario {
    CityScenario::generate(CityConfig {
        blocks_x: 4,
        blocks_y: 2,
        schools: 5,
        stores: 8,
        gas_stations: 3,
        jitter: 0.2,
        seed,
        ..CityConfig::default()
    })
}

/// The exact sample-semantics test, written out literally. A position
/// with a non-finite coordinate lies in no element: the geometry tests
/// give arbitrary answers there, and every engine rejects such a point
/// on its bounding box first.
fn meets(geo: GeoRef, p: Point, within: Option<f64>) -> bool {
    if !(p.x.is_finite() && p.y.is_finite()) {
        return false;
    }
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

/// `pred`'s qualifying elements, ascending and deduplicated.
fn qualifying<'g>(gis: &'g Gis, pred: &SpatialPredicate) -> Vec<(GeoId, GeoRef<'g>)> {
    let layer = gis.layer_id(&pred.layer).unwrap();
    let mut ids = NaiveEngine::new(gis, &Moft::new())
        .resolve_filter(layer, &pred.filter)
        .unwrap();
    ids.sort_unstable();
    ids.dedup();
    let l = gis.layer(layer);
    ids.into_iter()
        .filter_map(|g| l.geometry(g).ok().map(|geo| (g, geo)))
        .collect()
}

/// The literal reading of a sample-semantics region.
fn literal_model(gis: &Gis, moft: &Moft, region: &RegionC) -> Vec<CTuple> {
    let passing: Vec<_> = moft
        .records()
        .iter()
        .filter(|r| eval_time(&region.time, gis.time(), r.t))
        .collect();
    let mut excluded: Vec<ObjectId> = Vec::new();
    if let Some(forbid) = &region.forbid {
        let elements = qualifying(gis, forbid);
        for r in &passing {
            if elements
                .iter()
                .any(|&(_, geo)| meets(geo, r.pos(), forbid.within_distance))
            {
                excluded.push(r.oid);
            }
        }
    }
    let spatial = region.spatial.as_ref().map(|spatial| {
        let layer = gis.layer_id(&spatial.layer).unwrap();
        (layer, qualifying(gis, spatial), spatial.within_distance)
    });
    let mut out = Vec::new();
    for r in passing.iter().filter(|r| !excluded.contains(&r.oid)) {
        let tuple = |geo| CTuple {
            oid: r.oid,
            t: r.t,
            pos: r.pos(),
            geo,
        };
        match &spatial {
            None => out.push(tuple(None)),
            Some((layer, elements, within)) => {
                for &(g, geo) in elements {
                    if meets(geo, r.pos(), *within) {
                        out.push(tuple(Some((*layer, g))));
                    }
                }
            }
        }
    }
    out
}

type Bits = (u64, i64, u64, u64, Option<(u32, u32)>);

/// Every bit of every tuple, in emission order.
fn bits(tuples: &[CTuple]) -> Vec<Bits> {
    tuples
        .iter()
        .map(|t| {
            let geo = t.geo.map(|(l, g)| (l.0, g.0));
            (t.oid.0, t.t.0, t.pos.x.to_bits(), t.pos.y.to_bits(), geo)
        })
        .collect()
}

fn all_aggs() -> Vec<MoAggSpec> {
    let hour = TimeLevel::Hour;
    vec![
        MoAggSpec::CountTuples,
        MoAggSpec::CountDistinctObjects,
        MoAggSpec::RatePerGranule(hour),
        MoAggSpec::CountPerGranule(hour),
        MoAggSpec::DistinctPerGranule(TimeLevel::Minute),
        MoAggSpec::MaxDistinctPerGranule(hour),
        MoAggSpec::CountPerGeometry,
        MoAggSpec::Objects,
    ]
}

/// The three engines over one scenario.
struct Engines<'a> {
    naive: NaiveEngine<'a>,
    indexed: IndexedEngine<'a>,
    overlay: OverlayEngine<'a>,
}

impl<'a> Engines<'a> {
    fn new(gis: &'a Gis, moft: &'a Moft) -> Engines<'a> {
        Engines {
            naive: NaiveEngine::new(gis, moft),
            indexed: IndexedEngine::new(gis, moft),
            overlay: OverlayEngine::new(gis, moft),
        }
    }

    /// Checks one region on all three engines: tuples (against the
    /// literal model under sample semantics, against naive otherwise),
    /// every aggregation with and without `(Oid, t)` dedup, and
    /// passes-through.
    fn check(&self, region: &RegionC) -> Result<(), TestCaseError> {
        let Engines {
            naive,
            indexed,
            overlay,
        } = self;
        let (gis, moft) = (naive.gis(), naive.moft());
        let engines: [&dyn QueryEngine; 3] = [naive, indexed, overlay];
        let reference = match region.semantics {
            SpatialSemantics::SampleBased => literal_model(gis, moft, region),
            SpatialSemantics::Interpolated => match naive.eval(region) {
                Ok(tuples) => tuples,
                // Interpolation rejects ids the layer does not hold.
                Err(_) => {
                    for engine in engines {
                        prop_assert!(engine.eval(region).is_err(), "engine {}", engine.name());
                    }
                    return Ok(());
                }
            },
        };
        for engine in engines {
            let got = engine.eval(region).unwrap();
            let (g, w) = (bits(&got), bits(&reference));
            if let Some(i) = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)) {
                let near = |v: &[Bits]| v[i.saturating_sub(1)..(i + 2).min(v.len())].to_vec();
                return Err(TestCaseError::fail(format!(
                    "engine {}: tuple {i} of {}/{} differs: got {:?}, want {:?}",
                    engine.name(),
                    g.len(),
                    w.len(),
                    near(&g),
                    near(&w)
                )));
            }
        }
        for agg in all_aggs() {
            for query in [
                MoQuery::new(region.clone(), agg.clone()),
                MoQuery::new(region.clone(), agg.clone()).keep_geometry_multiplicity(),
            ] {
                let want = format!("{:?}", query.run(naive).unwrap());
                for engine in [indexed as &dyn QueryEngine, overlay] {
                    let got = format!("{:?}", query.run(engine).unwrap());
                    prop_assert_eq!(&got, &want, "{:?} on {}", agg, engine.name());
                }
            }
        }
        if let Some(spatial) = &region.spatial {
            let want = naive
                .objects_passing_through(spatial, &region.time)
                .unwrap();
            for engine in [indexed as &dyn QueryEngine, overlay] {
                let got = engine
                    .objects_passing_through(spatial, &region.time)
                    .unwrap();
                prop_assert_eq!(&got, &want, "passes-through on {}", engine.name());
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gisolap_obs::config::cases()))]

    #[test]
    fn engines_agree_on_random_scenarios(
        seed in 0u64..1000,
        spatial in spatial(),
        time in time_preds(),
        forbid in (0u32..8).prop_map(|g| (g < 3).then(|| {
            SpatialPredicate::in_layer("Ln", GeoFilter::Ids(vec![GeoId(g)]))
        })),
        interpolated in proptest::bool::ANY,
    ) {
        let city = city(seed);
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(1),
            ..RandomWaypoint::new(city.bbox, 12, 15)
        }
        .generate(0);

        let mut region = RegionC::all().with_spatial(spatial);
        region.time = time;
        region.forbid = forbid;
        if interpolated {
            region = region.interpolated();
        }
        let engines = Engines::new(&city.gis, &moft);
        engines.check(&region)?;
        // Type 3: the same time filter without a spatial atom.
        region.spatial = None;
        region.semantics = SpatialSemantics::SampleBased;
        engines.check(&region)?;
    }

    #[test]
    fn passing_through_and_time_in_region_agree(seed in 0u64..500) {
        let city = CityScenario::generate(CityConfig {
            blocks_x: 3,
            blocks_y: 2,
            seed,
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(7),
            ..RandomWaypoint::new(city.bbox, 8, 12)
        }
        .generate(0);

        let spatial = SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::IntersectsLayer { layer: "Lr".into() },
        );
        let naive = NaiveEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);

        let mut pn = naive.objects_passing_through(&spatial, &[]).unwrap();
        let mut po = overlay.objects_passing_through(&spatial, &[]).unwrap();
        pn.sort();
        po.sort();
        prop_assert_eq!(pn, po);

        let tn: Vec<(u64, i64)> = naive
            .time_in_region_per_object(&spatial, &[])
            .unwrap()
            .iter()
            .map(|(o, s)| (o.0, (s * 1000.0).round() as i64))
            .collect();
        let to: Vec<(u64, i64)> = overlay
            .time_in_region_per_object(&spatial, &[])
            .unwrap()
            .iter()
            .map(|(o, s)| (o.0, (s * 1000.0).round() as i64))
            .collect();
        prop_assert_eq!(tn, to);
    }

    #[test]
    fn forbid_is_a_subset_filter(seed in 0u64..500) {
        // Adding a forbid clause can only remove objects.
        let city = CityScenario::generate(CityConfig {
            blocks_x: 3,
            blocks_y: 2,
            seed,
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(3),
            ..RandomWaypoint::new(city.bbox, 10, 10)
        }
        .generate(0);
        let naive = NaiveEngine::new(&city.gis, &moft);

        let base = RegionC::all().with_spatial(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::IntersectsLayer { layer: "Lr".into() },
        ));
        let with_forbid = base.clone().with_forbid(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::ContainsNodeOf { layer: "Lstores".into() },
        ));
        let all = dedupe_oid_t(naive.eval(&base).unwrap());
        let restricted = dedupe_oid_t(naive.eval(&with_forbid).unwrap());
        prop_assert!(restricted.len() <= all.len());
        // Every restricted tuple appears in the unrestricted result.
        for t in &restricted {
            prop_assert!(all.iter().any(|u| u.oid == t.oid && u.t == t.t));
        }
    }

    #[test]
    fn parallel_and_sequential_evaluation_agree(
        seed in 0u64..1000,
        filter in geo_filter(),
        time in time_preds(),
        interpolated in proptest::bool::ANY,
        long_tracks in proptest::bool::ANY,
    ) {
        // The engine promises bit-identical results regardless of the
        // worker count: evaluate each random region with 4 threads and
        // with 1 (sequential), per engine, and compare the raw answers
        // exactly. Work splits by record run or by trajectory once it
        // covers 8,192 records. Two shapes cross that cut-off: 100
        // objects of 100 samples (many short runs and trajectories) and
        // 6 objects of 2,000 samples (few long ones, so the per-object
        // scans of passes-through and time-in-region fan out too).
        let (objects, samples) = if long_tracks { (6, 2000) } else { (100, 100) };
        let city = CityScenario::generate(CityConfig {
            blocks_x: 4,
            blocks_y: 2,
            schools: 4,
            stores: 6,
            gas_stations: 2,
            seed: seed.wrapping_add(11),
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: seed.wrapping_add(13),
            ..RandomWaypoint::new(city.bbox, objects, samples)
        }
        .generate(0);

        let spatial = SpatialPredicate::in_layer("Ln", filter);
        let mut region = RegionC::all().with_spatial(spatial.clone());
        region.time = time;
        if interpolated {
            region = region.interpolated();
        }
        let answers = |engine: &dyn QueryEngine| {
            let seconds: Vec<(ObjectId, u64)> = engine
                .time_in_region_per_object(&spatial, &region.time)
                .unwrap()
                .into_iter()
                .map(|(oid, s)| (oid, s.to_bits()))
                .collect();
            (
                engine.eval(&region).unwrap(),
                engine.objects_passing_through(&spatial, &region.time).unwrap(),
                seconds,
            )
        };

        let naive = NaiveEngine::new(&city.gis, &moft);
        let indexed = IndexedEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);
        for engine in [&naive as &dyn QueryEngine, &indexed, &overlay] {
            std::env::set_var("GISOLAP_THREADS", "4");
            let parallel = answers(engine);
            std::env::set_var("GISOLAP_THREADS", "1");
            let sequential = answers(engine);
            std::env::remove_var("GISOLAP_THREADS");
            prop_assert_eq!(&parallel.0, &sequential.0, "eval, engine {}", engine.name());
            prop_assert_eq!(&parallel.1, &sequential.1, "passes-through, engine {}", engine.name());
            prop_assert_eq!(&parallel.2, &sequential.2, "time-in-region, engine {}", engine.name());
        }
    }
}

/// Four 8×8 squares tiling `[0, 16]²` (shared edges and a shared
/// corner), a polyline and a single node. Every qualifying set of the
/// squares gets grid cells of width 1 or 1/2, so integer points sit on
/// cell boundaries as well as on polygon edges and vertices.
fn lattice_gis() -> Gis {
    let mut gis = Gis::new();
    gis.add_layer(Layer::polygons(
        "Lq",
        vec![
            Polygon::rectangle(0.0, 0.0, 8.0, 8.0),
            Polygon::rectangle(8.0, 0.0, 16.0, 8.0),
            Polygon::rectangle(0.0, 8.0, 8.0, 16.0),
            Polygon::rectangle(8.0, 8.0, 16.0, 16.0),
        ],
    ));
    gis.add_layer(Layer::polylines(
        "Ll",
        vec![Polyline::new(vec![pt(0.0, 4.0), pt(16.0, 4.0), pt(16.0, 12.0)]).unwrap()],
    ));
    gis.add_layer(Layer::nodes("Lp", vec![pt(5.0, 5.0)]));
    gis
}

/// One object per lattice row (half-steps included), ten minutes apart
/// along x, plus objects with non-finite coordinates.
fn lattice_moft() -> Moft {
    let mut tuples = Vec::new();
    for row in 0..=34u32 {
        for col in 0..=34u32 {
            let (x, y) = (f64::from(col) * 0.5 - 0.5, f64::from(row) * 0.5 - 0.5);
            tuples.push((u64::from(row), i64::from(col) * 600, x, y));
        }
    }
    for (k, (x, y)) in [
        (f64::NAN, 5.0),
        (5.0, f64::NAN),
        (f64::INFINITY, 4.0),
        (f64::NEG_INFINITY, 8.0),
        (8.0, 8.0),
    ]
    .into_iter()
    .enumerate()
    {
        tuples.push((100, k as i64 * 600, x, y));
    }
    Moft::from_tuples(tuples)
}

#[test]
fn engines_match_the_literal_model_on_edge_inputs() {
    let gis = lattice_gis();
    let moft = lattice_moft();
    let engines = Engines::new(&gis, &moft);
    let ids = |v: &[u32]| GeoFilter::Ids(v.iter().map(|&g| GeoId(g)).collect());
    let spatial = [
        SpatialPredicate::in_layer("Lq", GeoFilter::All),
        SpatialPredicate::in_layer("Lq", ids(&[0])),
        SpatialPredicate::in_layer("Lq", ids(&[3, 0])),
        SpatialPredicate::in_layer("Lq", ids(&[1, 2, 1])),
        SpatialPredicate::in_layer("Lq", ids(&[])),
        SpatialPredicate::in_layer("Lq", ids(&[7])),
        SpatialPredicate::near_layer("Lq", GeoFilter::All, 1.0),
        SpatialPredicate::near_layer("Lq", ids(&[3]), 0.5),
        SpatialPredicate::in_layer("Lp", GeoFilter::All),
        SpatialPredicate::near_layer("Lp", GeoFilter::All, 0.0),
        SpatialPredicate::near_layer("Lp", GeoFilter::All, 1.0),
        SpatialPredicate::in_layer("Ll", GeoFilter::All),
        SpatialPredicate::near_layer("Ll", GeoFilter::All, 0.5),
    ];
    let times = [
        vec![],
        vec![TimePredicate::Between(TimeId(600), TimeId(6000))],
        vec![TimePredicate::AtInstant(TimeId(1800))],
        vec![TimePredicate::DayIs("1970-01-01".into())],
        vec![TimePredicate::DayIs("1970-01-02".into())],
        vec![TimePredicate::HourOfDayIn { lo: 1, hi: 2 }],
    ];
    let forbid = SpatialPredicate::in_layer("Lq", ids(&[3]));
    for s in &spatial {
        for (i, time) in times.iter().enumerate() {
            let mut region = RegionC::all().with_spatial(s.clone());
            region.time = time.clone();
            let mut regions = vec![region.clone()];
            // Forbid and interpolation on the scan and the window path.
            if i < 2 {
                regions.push(region.clone().with_forbid(forbid.clone()));
                regions.push(region.interpolated());
            }
            for region in regions {
                engines
                    .check(&region)
                    .unwrap_or_else(|e| panic!("{region:?}: {e}"));
            }
        }
    }
}

#[test]
fn engine_stats_invariants() {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 4,
        blocks_y: 2,
        seed: 42,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        seed: 43,
        ..RandomWaypoint::new(city.bbox, 10, 12)
    }
    .generate(0);
    let region = RegionC::all().with_spatial(SpatialPredicate::in_layer(
        "Ln",
        GeoFilter::IntersectsLayer { layer: "Lr".into() },
    ));

    // Repeated IntersectsLayer filters hit the precomputed overlay.
    let overlay = OverlayEngine::new(&city.gis, &moft);
    overlay.eval(&region).unwrap();
    overlay.eval(&region).unwrap();
    let snap = overlay.stats().snapshot();
    assert!(snap.overlay_hits >= 2, "{snap:?}");
    assert_eq!(snap.overlay_misses, 0, "{snap:?}");
    assert_eq!(snap.queries, 2, "{snap:?}");
    assert_eq!(
        snap.records_scanned,
        2 * moft.records().len() as u64,
        "{snap:?}"
    );

    // One evaluation resolves its filter (and hits the cache) once.
    overlay.stats().reset();
    overlay.eval(&region).unwrap();
    let snap = overlay.stats().snapshot();
    assert_eq!(snap.overlay_hits, 1, "{snap:?}");
    assert_eq!(snap.queries, 1, "{snap:?}");

    // The same filters on naive/indexed engines never hit an overlay,
    // and the indexed engine resolves the layer pairs through BVH
    // probes.
    let naive = NaiveEngine::new(&city.gis, &moft);
    naive.eval(&region).unwrap();
    assert_eq!(naive.stats().snapshot().overlay_hits, 0);
    assert!(naive.stats().snapshot().overlay_misses > 0);
    let indexed = IndexedEngine::new(&city.gis, &moft);
    indexed.eval(&region).unwrap();
    assert!(indexed.stats().snapshot().layer_probes > 0);
}
