//! Bridges the streaming pipeline (`gisolap-stream`) to the GIS model:
//! geometry resolvers for geo-keyed partials, the durable-store load
//! path, and the glue the `from_snapshot` engine constructors use.

use std::path::Path;
use std::sync::Arc;

use gisolap_geom::{BBox, Point, Polygon, Polyline};
use gisolap_store::{DurableIngest, RealFs, RecoveryReport, StoreConfig};
use gisolap_stream::{GeoResolver, IngestStats, StreamSnapshot};

use crate::gis::Gis;
use crate::layer::GeoRef;
use crate::stats::EngineStats;
use crate::Result;

/// Owned copy of one layer element, so the resolver closure outlives the
/// GIS borrow (`GeoResolver` is `'static`).
enum OwnedGeo {
    Node(Point),
    Polyline(Polyline),
    Polygon(Polygon),
}

impl OwnedGeo {
    fn covers(&self, p: Point) -> bool {
        // Mirrors `GeoRef::covers` so stream-side geo keys agree with the
        // engines' record/geometry matching.
        match self {
            OwnedGeo::Node(q) => *q == p,
            OwnedGeo::Polyline(l) => l.contains_point(p),
            OwnedGeo::Polygon(poly) => poly.contains(p),
        }
    }
}

/// Builds a [`GeoResolver`] over one GIS layer: maps an observed position
/// to the ids of the layer's elements covering it (the stream-side view
/// of the paper's `r^{Pt,G}` rollup relation). The layer's geometry is
/// copied out so the resolver owns its data.
pub fn layer_geo_resolver(gis: &Gis, layer: &str) -> Result<GeoResolver> {
    let id = gis.layer_id(layer)?;
    let elements: Vec<(u32, BBox, OwnedGeo)> = gis
        .layer(id)
        .iter()
        .map(|(g, r)| {
            let owned = match r {
                GeoRef::Node(p) => OwnedGeo::Node(p),
                GeoRef::Polyline(l) => OwnedGeo::Polyline(l.clone()),
                GeoRef::Polygon(poly) => OwnedGeo::Polygon(poly.clone()),
            };
            (g.0, r.bbox(), owned)
        })
        .collect();
    Ok(Arc::new(move |p: Point, out: &mut Vec<u32>| {
        let covering = elements
            .iter()
            .filter(|(_, bbox, geo)| bbox.contains(p) && geo.covers(p));
        out.extend(covering.map(|&(id, _, _)| id));
    }))
}

/// Loads a durable segment store from `dir` and freezes the recovered
/// pipeline into an owned [`StreamSnapshot`] — the engines'
/// `from_snapshot` constructors consume it directly, so a crashed or
/// shut-down streaming deployment resumes query service with
///
/// ```no_run
/// # use gisolap_core::{Gis, NaiveEngine};
/// # let gis = Gis::new();
/// let (snapshot, report) = gisolap_core::recover_snapshot("data/store".as_ref(), None)?;
/// let engine = NaiveEngine::from_snapshot(&gis, &snapshot);
/// # Ok::<(), gisolap_core::CoreError>(())
/// ```
///
/// `resolver` must be the geometry resolver (if any) the original
/// pipeline used — build it with [`layer_geo_resolver`] over the same
/// layer. The store is opened with [`StoreConfig::from_env`] and
/// released when this returns; recovered
/// state is bit-identical to the pre-crash durable state.
pub fn recover_snapshot(
    dir: &Path,
    resolver: Option<GeoResolver>,
) -> Result<(StreamSnapshot, RecoveryReport)> {
    let (durable, report) =
        DurableIngest::recover(Arc::new(RealFs), dir, StoreConfig::from_env(), resolver)?;
    let snapshot = durable.snapshot()?;
    Ok((snapshot, report))
}

/// Seeds an engine's [`EngineStats`] with a pipeline's ingest tallies.
pub(crate) fn seed_ingest_stats(stats: &EngineStats, s: &IngestStats) {
    stats.records_ingested.set(s.records_ingested);
    stats.records_late_dropped.set(s.late_dropped);
    stats.segments_sealed.set(s.segments_sealed);
    stats.partials_merged.set(s.partials_merged);
    stats.tail_records_scanned.set(s.tail_records_scanned);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use gisolap_geom::point::pt;

    #[test]
    fn resolver_keys_by_covering_polygon() {
        let mut gis = Gis::new();
        gis.add_layer(Layer::polygons(
            "Ln",
            vec![
                Polygon::rectangle(0.0, 0.0, 10.0, 10.0),
                Polygon::rectangle(5.0, 0.0, 15.0, 10.0),
            ],
        ));
        let resolver = layer_geo_resolver(&gis, "Ln").unwrap();
        let ids = |p| {
            let mut out = Vec::new();
            resolver(p, &mut out);
            out
        };
        assert_eq!(ids(pt(2.0, 2.0)), vec![0]);
        assert_eq!(ids(pt(7.0, 2.0)), vec![0, 1]);
        assert_eq!(ids(pt(20.0, 2.0)), Vec::<u32>::new());
        assert!(layer_geo_resolver(&gis, "nope").is_err());
    }

    #[test]
    fn recover_snapshot_feeds_engines_bit_identically() {
        use crate::engine::{NaiveEngine, QueryEngine};
        use crate::region::{RegionC, TimePredicate};
        use gisolap_olap::time::TimeId;
        use gisolap_store::ScratchDir;
        use gisolap_stream::{StreamConfig, StreamIngest};
        use gisolap_traj::{ObjectId, Record};

        let mut gis = Gis::new();
        gis.add_layer(Layer::polygons(
            "Ln",
            vec![Polygon::rectangle(0.0, 0.0, 10.0, 10.0)],
        ));
        let rec = |oid, t, x, y| Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y,
        };
        let records = vec![
            rec(1, 100, 1.0, 1.0),
            rec(2, 200, 20.0, 20.0),
            rec(1, 3700, 2.0, 2.0),
            rec(2, 7300, 3.0, 3.0),
        ];
        let cfg = StreamConfig {
            lateness_seconds: 0,
            segment_seconds: 3600,
        };

        // Reference: a purely in-memory pipeline with the same resolver.
        let mut reference = StreamIngest::new(cfg)
            .unwrap()
            .with_resolver(layer_geo_resolver(&gis, "Ln").unwrap());
        reference.ingest(&records);

        // Durable run: same batches, flushed mid-way, then "crashed".
        let dir = ScratchDir::new("core-recover");
        let mut durable = DurableIngest::create(
            Arc::new(RealFs),
            dir.path(),
            cfg,
            StoreConfig::default(),
            Some(layer_geo_resolver(&gis, "Ln").unwrap()),
        )
        .unwrap();
        durable.ingest(&records[..2]).unwrap();
        durable.flush().unwrap();
        durable.ingest(&records[2..]).unwrap();
        drop(durable);

        let (snapshot, report) =
            recover_snapshot(dir.path(), Some(layer_geo_resolver(&gis, "Ln").unwrap())).unwrap();
        assert!(report.checkpoint_loaded);
        let expected = reference.snapshot().unwrap();
        assert_eq!(snapshot.moft().records(), expected.moft().records());
        assert_eq!(snapshot.stats(), expected.stats());

        // Engines over the recovered snapshot answer like engines over
        // the reference snapshot.
        let region = RegionC::all().with_time(TimePredicate::Between(TimeId(0), TimeId(8000)));
        let a = NaiveEngine::from_snapshot(&gis, &snapshot);
        let b = NaiveEngine::from_snapshot(&gis, &expected);
        assert_eq!(a.eval(&region).unwrap(), b.eval(&region).unwrap());

        // A missing directory is a CoreError::Store, not a panic.
        let err = recover_snapshot("this/dir/does/not/exist".as_ref(), None).unwrap_err();
        assert!(matches!(err, crate::CoreError::Store(_)));
    }
}
