//! Region evaluation allocates per query, never per record.
//!
//! A counting global allocator (installed in this test binary only)
//! tallies the allocations made on the calling thread. Evaluation runs
//! with `GISOLAP_THREADS=1`, so every allocation it makes is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gisolap_core::engine::{IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine};
use gisolap_core::{
    GeoFilter, GeoId, Gis, Layer, MoAggSpec, MoQuery, RegionC, SpatialPredicate, TimePredicate,
};
use gisolap_geom::point::pt;
use gisolap_geom::Polygon;
use gisolap_olap::time::{TimeDimension, TimeId, TimeLevel};
use gisolap_traj::Moft;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// counter is a const-initialised thread-local `Cell` without a
// destructor, so touching it never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn day_predicate_compares_without_allocating() {
    let time = TimeDimension::new();
    let t = TimeId::from_ymd_hms(2006, 1, 7, 9, 15, 0);
    for (label, want) in [("2006-01-07", true), ("2006-01-08", false), ("junk", false)] {
        let pred = TimePredicate::DayIs(label.to_string());
        let (hit, n) = allocations_during(|| pred.eval(&time, t));
        assert_eq!(hit, want, "{label}");
        assert_eq!(n, 0, "DayIs({label:?}) allocated {n} time(s)");
    }
}

/// Four squares sharing edges, plus two nodes for within-distance.
fn gis() -> Gis {
    let mut gis = Gis::new();
    gis.add_layer(Layer::polygons(
        "Ln",
        vec![
            Polygon::rectangle(0.0, 0.0, 10.0, 10.0),
            Polygon::rectangle(10.0, 0.0, 20.0, 10.0),
            Polygon::rectangle(0.0, 10.0, 10.0, 20.0),
            Polygon::rectangle(10.0, 10.0, 20.0, 20.0),
        ],
    ));
    gis.add_layer(Layer::nodes("Ls", vec![pt(5.0, 5.0), pt(15.0, 12.0)]));
    gis
}

/// 20 objects sampled every five minutes, `samples` each, wandering
/// over the squares.
fn moft(samples: i64) -> Moft {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut coord = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 22.0 - 1.0
    };
    let mut tuples = Vec::new();
    for oid in 0..20 {
        for s in 0..samples {
            tuples.push((oid, s * 300, coord(), coord()));
        }
    }
    Moft::from_tuples(tuples)
}

fn regions() -> Vec<RegionC> {
    let all = SpatialPredicate::in_layer("Ln", GeoFilter::All);
    let some = SpatialPredicate::in_layer("Ln", GeoFilter::Ids(vec![GeoId(1), GeoId(2)]));
    vec![
        RegionC::all().with_spatial(all.clone()),
        RegionC::all()
            .with_time(TimePredicate::DayIs("1970-01-01".into()))
            .with_time(TimePredicate::HourOfDayIn { lo: 1, hi: 20 })
            .with_spatial(some.clone()),
        RegionC::all()
            .with_time(TimePredicate::Between(TimeId(600), TimeId(200_000)))
            .with_spatial(all.clone())
            .with_forbid(some),
        RegionC::all().with_spatial(SpatialPredicate::near_layer("Ls", GeoFilter::All, 3.0)),
        RegionC::all().with_time(TimePredicate::Between(TimeId(0), TimeId(50_000))),
    ]
}

#[test]
fn sample_evaluation_allocates_per_query_not_per_record() {
    std::env::set_var("GISOLAP_THREADS", "1");
    let gis = gis();
    let (small, large) = (moft(100), moft(400));
    let extra_records = (large.len() - small.len()) as u64;
    let count_per_hour = |region: &RegionC| {
        MoQuery::new(region.clone(), MoAggSpec::CountPerGranule(TimeLevel::Hour))
    };
    let rate =
        |region: &RegionC| MoQuery::new(region.clone(), MoAggSpec::RatePerGranule(TimeLevel::Hour));
    for (i, region) in regions().iter().enumerate() {
        let cost = |moft: &Moft| -> Vec<(&'static str, u64)> {
            let naive = NaiveEngine::new(&gis, moft);
            let indexed = IndexedEngine::new(&gis, moft);
            let overlay = OverlayEngine::new(&gis, moft);
            let engines: [&dyn QueryEngine; 3] = [&naive, &indexed, &overlay];
            engines
                .iter()
                .map(|e| {
                    let (_, n) = allocations_during(|| {
                        e.eval(region).unwrap();
                        count_per_hour(region).run(*e).unwrap();
                        rate(region).run(*e).unwrap();
                    });
                    (e.name(), n)
                })
                .collect()
        };
        for ((name, s), (_, l)) in cost(&small).into_iter().zip(cost(&large)) {
            // Output vectors and maps grow by doubling; anything per
            // record would add thousands.
            assert!(
                l.saturating_sub(s) * 100 < extra_records,
                "region {i} on {name}: {s} allocations over {} records, {l} over {}",
                small.len(),
                large.len()
            );
        }
    }
    std::env::remove_var("GISOLAP_THREADS");
}
