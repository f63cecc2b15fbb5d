//! The two workloads over the paper's region × time query path:
//! `eval_selective` and `eval_scan`, on an `IndexedEngine` recovered
//! from a durable store (ingest → store → recover → engine).

use std::time::Instant;

use gisolap_core::mindex::MoftIndex;
use gisolap_core::region::CmpOp;
use gisolap_core::{
    layer_geo_resolver, recover_snapshot, GeoFilter, IndexedEngine, MoAggSpec, MoQuery,
    MoQueryResult, NaiveEngine, QueryEngine, RegionC, SpatialPredicate, TimePredicate,
};
use gisolap_geom::{BBox, Segment};
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_olap::value::Value;
use gisolap_store::{DurableIngest, ScratchDir};
use gisolap_stream::StreamSnapshot;
use gisolap_traj::{Moft, ObjectId};

use crate::fixtures::{bench_fs, fixture_hash, store_config, stream_config, City};
use crate::harness::{
    ns, run_passes, timed_setup, with_default_threads, Outcome, RunCfg, TRACED_PASSES,
};
use crate::stats::{bench_ns, mean, summarize, Pass, Span, Tracer};

/// The snapshot the engines are built from, and what building it cost.
struct Recovered {
    city: City,
    snapshot: StreamSnapshot,
    recover_snapshot_ms: f64,
    engine_build_ms: f64,
}

impl Recovered {
    /// City traffic through `DurableIngest` keyed by the `Ln` layer,
    /// flushed, recovered into a snapshot, an engine built over it.
    fn build(cfg: &RunCfg) -> Recovered {
        let city = City::generate(cfg.seed, &cfg.sizes);
        let scratch = ScratchDir::new("ledger-eval");
        let gis = &city.scenario.gis;
        let resolver = || Some(layer_geo_resolver(gis, "Ln").expect("Ln resolver"));
        let mut durable = DurableIngest::create(
            bench_fs(),
            scratch.path(),
            stream_config(),
            store_config(),
            resolver(),
        )
        .expect("create city store");
        for b in &city.batches {
            durable.ingest(b).expect("fixture ingest");
        }
        durable.finish().expect("fixture finish");
        durable.flush().expect("fixture flush");
        drop(durable);
        let t0 = Instant::now();
        let (snapshot, _) = recover_snapshot(scratch.path(), resolver()).expect("recover");
        let recover_snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Built here only to be timed: an engine borrows the snapshot,
        // so the one the passes use is built again by the caller.
        let t0 = Instant::now();
        let records = IndexedEngine::from_snapshot(gis, &snapshot).moft().len();
        let engine_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(records, city.moft.len(), "recovered every record");
        Recovered {
            city,
            snapshot,
            recover_snapshot_ms,
            engine_build_ms,
        }
    }
}

/// One benchmark query: a region with its γ, or the interpolated
/// passes-through call.
enum Query {
    Run(MoQuery),
    PassesThrough(SpatialPredicate, Vec<TimePredicate>),
}

/// A query's answer, comparable across engines.
#[derive(Debug, PartialEq)]
enum Answer {
    Run(MoQueryResult),
    Objects(Vec<ObjectId>),
}

impl Query {
    fn run<E: QueryEngine>(&self, engine: &E) -> Option<Answer> {
        match self {
            Query::Run(q) => q.run(engine).ok().map(Answer::Run),
            Query::PassesThrough(spatial, time) => engine
                .objects_passing_through(spatial, time)
                .ok()
                .map(Answer::Objects),
        }
    }

    fn spatial(&self) -> &SpatialPredicate {
        match self {
            Query::Run(q) => q.region.spatial.as_ref().expect("spatial query"),
            Query::PassesThrough(spatial, _) => spatial,
        }
    }

    fn time(&self) -> &[TimePredicate] {
        match self {
            Query::Run(q) => &q.region.time,
            Query::PassesThrough(_, time) => time,
        }
    }

    /// The traced form: the geometric sub-query, the time filter, the
    /// region evaluation and the whole call, timed one after another on
    /// the same inputs (`core.run` is absent for passes-through, whose
    /// whole call *is* `core.eval`).
    fn run_traced<E: QueryEngine>(&self, engine: &E, tr: &mut Tracer) {
        let op = tr.begin_op();
        let gis = engine.gis();
        let spatial = self.spatial();
        tr.span("core.resolve_filter", || {
            let layer = gis.layer_id(&spatial.layer).expect("layer");
            engine
                .resolve_filter(layer, &spatial.filter)
                .expect("resolve")
        });
        tr.span("core.time_filtered", || engine.time_filtered(self.time()));
        match self {
            Query::Run(q) => {
                tr.span("core.eval", || engine.eval(&q.region).expect("eval"));
                tr.span("core.run", || q.run(engine).expect("run"));
            }
            Query::PassesThrough(spatial, time) => {
                tr.span("core.eval", || {
                    engine.objects_passing_through(spatial, time).expect("lit")
                });
            }
        }
        tr.close(op);
    }
}

fn low_income() -> SpatialPredicate {
    SpatialPredicate::in_layer(
        "Ln",
        GeoFilter::AttrCompare {
            category: "neighborhood".into(),
            attr: "income".into(),
            op: CmpOp::Lt,
            value: Value::Int(2200),
        },
    )
}

/// ~0.05 % of the time extent, starting on a sample instant so every
/// object has exactly one record inside.
fn selective_window(moft: &Moft) -> (TimeId, TimeId) {
    let (t_min, t_max) = moft.time_bounds().expect("non-empty city");
    let span = t_max.0 - t_min.0;
    let track = moft.track(moft.objects()[0]).expect("first object");
    let lo = track[track.len() / 2].t;
    (lo, TimeId(lo.0 + span / 2000 + 1))
}

fn selective_query(moft: &Moft) -> Query {
    let (lo, hi) = selective_window(moft);
    let region = RegionC::all()
        .with_time(TimePredicate::Between(lo, hi))
        .with_spatial(low_income());
    Query::Run(MoQuery::new(region, MoAggSpec::CountDistinctObjects))
}

/// The three broad kinds, in block order.
fn scan_queries(moft: &Moft) -> Vec<Query> {
    let (t_min, _) = moft.time_bounds().expect("non-empty city");
    let day = TimePredicate::Between(t_min, TimeId(t_min.0 + 86_400));
    let all_ln = SpatialPredicate::in_layer("Ln", GeoFilter::All);
    vec![
        // Sample semantics over a day-long window on every Ln polygon.
        Query::Run(MoQuery::new(
            RegionC::all().with_time(day.clone()).with_spatial(all_ln),
            MoAggSpec::CountPerGranule(TimeLevel::Hour),
        )),
        // Interpolated (LIT) semantics.
        Query::PassesThrough(low_income(), vec![day]),
        // No time predicate at all, COUNT/AVG γ (Remark 1's rate).
        Query::Run(MoQuery::new(
            RegionC::all().with_spatial(low_income()),
            MoAggSpec::RatePerGranule(TimeLevel::Hour),
        )),
    ]
}

/// Appends `src` (one tracer's spans) to `dst`, keeping parents and op
/// ids unique.
fn append_spans(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len() as u32;
    let op_base = dst.last().map_or(0, |s| s.op_id);
    dst.extend(src.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        op_id: s.op_id + op_base,
        ..s
    }));
}

fn eval(cfg: &RunCfg, queries: impl Fn(&Moft) -> Vec<Query>) -> Outcome {
    let (fx, setup_s) = timed_setup(cfg.setup_reps, || Recovered::build(cfg));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let gis = &fx.city.scenario.gis;
    let engine = IndexedEngine::from_snapshot(gis, &fx.snapshot);
    let moft = engine.moft();
    let queries = queries(moft);
    // The first answer of each kind is the reference later ones must
    // equal; verification compares the references with `NaiveEngine`.
    let reference: Vec<Answer> = queries
        .iter()
        .map(|q| q.run(&engine).expect("reference answer"))
        .collect();

    out.passes = run_passes(cfg, cfg.untraced_passes(), |boxed| {
        let t_pass = Instant::now();
        let mut kinds = vec![Vec::new(); queries.len()];
        let mut failed = 0u64;
        // Equal time blocks, one per kind.
        for (k, q) in queries.iter().enumerate() {
            let block_end = t_pass + boxed * (k as u32 + 1) / queries.len() as u32;
            while Instant::now() < block_end {
                let t = Instant::now();
                let answer = std::hint::black_box(q.run(&engine));
                let took = ns(t);
                if answer.as_ref() == Some(&reference[k]) {
                    kinds[k].push(took);
                } else {
                    failed += 1;
                }
            }
        }
        Pass::from_kinds(&mut kinds, failed, t_pass.elapsed().as_secs_f64(), 0)
    });

    let t_verify = Instant::now();
    let naive = NaiveEngine::from_snapshot(gis, &fx.snapshot);
    out.mismatches = queries
        .iter()
        .zip(&reference)
        .filter(|(q, want)| q.run(&naive).as_ref() != Some(want))
        .count() as u64;
    out.verify_s = t_verify.elapsed().as_secs_f64();
    out.note("records", moft.len());
    out.note(
        "fixture_hash",
        format!("{:016x}", fixture_hash(&fx.city.batches)),
    );
    out.note("query_kinds", queries.len());

    if cfg.trace {
        out.set("core.recover_snapshot_ms", fx.recover_snapshot_ms);
        out.set("core.engine_build_ms", fx.engine_build_ms);

        // Counts of exactly one cycle of the query list: they repeat.
        engine.stats().reset();
        let mut tuples = 0usize;
        for q in &queries {
            tuples += match q {
                Query::Run(q) => engine.eval(&q.region).expect("eval").len(),
                Query::PassesThrough(s, t) => {
                    engine.objects_passing_through(s, t).expect("lit").len()
                }
            };
        }
        let snap = engine.stats().snapshot();
        out.set("core.records_scanned", snap.records_scanned as f64);
        out.set(
            "core.index_records_pruned",
            snap.index_records_pruned as f64,
        );
        out.set(
            "core.index_interval_probes",
            snap.index_interval_probes as f64,
        );
        out.set("core.tuples_out", tuples as f64);
        out.set(
            "core.rows_examined_per_tuple",
            snap.records_scanned as f64 / tuples.max(1) as f64,
        );
        let zones = snap.index_zones_pruned + snap.index_zones_scanned;
        out.set(
            "index.zone_prune_share",
            snap.index_zones_pruned as f64 / zones.max(1) as f64,
        );

        // Traced passes: one tracer per kind, equal time blocks.
        let box_per_kind = cfg.pass_box() * TRACED_PASSES as u32 / queries.len() as u32;
        let (mut resolve, mut filtered, mut own, mut aggregate, mut whole) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for q in &queries {
            let mut tr = Tracer::new();
            let t0 = Instant::now();
            while t0.elapsed() < box_per_kind && !tr.full() {
                q.run_traced(&engine, &mut tr);
            }
            let sum = summarize(&tr.spans);
            let d = |name: &str| sum.get(name).mean_ns;
            let is_run = matches!(q, Query::Run(_));
            resolve.push(d("core.resolve_filter"));
            filtered.push(d("core.time_filtered"));
            own.push(
                (d("core.eval") - d("core.resolve_filter") - d("core.time_filtered")).max(0.0),
            );
            aggregate.push(if is_run {
                (d("core.run") - d("core.eval")).max(0.0)
            } else {
                0.0
            });
            whole.push(if is_run {
                d("core.run")
            } else {
                d("core.eval")
            });
            append_spans(&mut out.spans, tr.spans);
        }
        out.set("core.resolve_filter_us", mean(&resolve) / 1e3);
        out.set("core.time_filtered_us", mean(&filtered) / 1e3);
        out.set("core.eval_us", mean(&own) / 1e3);
        out.set("core.aggregate_us", mean(&aggregate) / 1e3);
        if let [sample, lit, region] = whole[..] {
            out.set("core.sample_scan_p50_us", sample / 1e3);
            out.set("core.lit_scan_p50_us", lit / 1e3);
            out.set("core.region_scan_p50_us", region / 1e3);
        }
        let staged = mean(&resolve) + mean(&filtered) + mean(&own) + mean(&aggregate);
        out.set_coverage(staged, mean(&whole));

        let unpinned: Vec<f64> = with_default_threads(|| {
            queries
                .iter()
                .map(|q| bench_ns(150, || q.run(&engine)))
                .collect()
        });
        out.set("harness.default_threads_p50_us", mean(&unpinned) / 1e3);

        // The index, geometry and trajectory calls under the engine.
        let index = MoftIndex::build(moft, gisolap_index::DEFAULT_ZONE_ROWS);
        let t = bench_ns(100, || {
            MoftIndex::build(moft, gisolap_index::DEFAULT_ZONE_ROWS)
                .extents()
                .len()
        });
        out.set("index.build_ms", t / 1e6);
        let (lo, hi) = selective_window(moft);
        let t = bench_ns(40, || index.objects_overlapping(lo, hi).len());
        out.set("index.interval_query_ns", t);
        let ln = gis.layer_id("Ln").expect("Ln");
        let polygons = gis.layer(ln).as_polygons().expect("Ln polygons");
        let district = polygons[0].bbox();
        let t = bench_ns(40, || index.objects_intersecting(&district).len());
        out.set("index.bvh_query_ns", t);
        let step = (moft.len() / 1024).max(1);
        let points: Vec<_> = moft
            .records()
            .iter()
            .step_by(step)
            .map(|r| r.pos())
            .collect();
        let probes: Vec<BBox> = points
            .iter()
            .map(|p| BBox::new(p.x, p.y, p.x, p.y))
            .collect();
        let t = bench_ns(40, || {
            probes
                .iter()
                .map(|b| engine.candidates(ln, b).len())
                .sum::<usize>()
        });
        out.set("index.rtree_candidates_ns", t / probes.len() as f64);
        let t = bench_ns(60, || {
            points
                .iter()
                .map(|&p| polygons.iter().filter(|poly| poly.contains(p)).count())
                .sum::<usize>()
        });
        out.set(
            "geom.point_in_polygon_ns",
            t / (points.len() * polygons.len()) as f64,
        );
        let legs: Vec<Segment> = points
            .windows(2)
            .take(256)
            .map(|w| Segment::new(w[0], w[1]))
            .collect();
        let t = bench_ns(60, || {
            legs.iter()
                .map(|leg| {
                    polygons
                        .iter()
                        .map(|poly| gisolap_geom::clip::clip_segment_to_polygon(leg, poly).len())
                        .sum::<usize>()
                })
                .sum::<usize>()
        });
        out.set(
            "geom.leg_polygon_ns",
            t / (legs.len() * polygons.len()) as f64,
        );
        let t = bench_ns(100, || {
            Moft::from_records(moft.records().iter().copied()).len()
        });
        out.set("traj.moft_build_ns_per_record", t / moft.len() as f64);
    }
    out
}

pub fn eval_selective(cfg: &RunCfg) -> Outcome {
    eval(cfg, |moft| vec![selective_query(moft)])
}

pub fn eval_scan(cfg: &RunCfg) -> Outcome {
    eval(cfg, scan_queries)
}
