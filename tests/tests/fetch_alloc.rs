//! Shard reads allocate for what they return, not for the history or
//! the grid behind it; sealing allocates per cell, not per record; a
//! standing-query evaluator holds the same heap whatever the history.
//!
//! A counting global allocator (installed in this test binary only)
//! tallies the allocations and bytes requested, and the bytes freed, on
//! the calling thread. Five shapes are pinned: a region fetch keeping two
//! cells allocates the same bytes whether the shard holds one day of
//! other cells or two; a repeated read of an unchanged live tail
//! allocates the same whether that tail holds `n` records or `2n` — it
//! buckets nothing again; a fetch under a request grid of 16.7 M cells
//! allocates for the cells it returns, not per grid cell; sealing a
//! partition through a grid resolver allocates the same for `2n` records
//! as for `n`; recovering a flushed store and fetching its whole area
//! allocates the same for `2n` records per segment as for `n` (open
//! decodes cells, not records); and an evaluator that synced 96 sealed
//! hours frees the same bytes on drop as one that synced 24.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_shard::{
    fetch_partials, ClusterExecutor, GridSpec, PartitionerSpec, ShardExecutor, ShardedIngest,
};
use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig, SyncPolicy, Vfs};
use gisolap_stream::{Measure, RollupQuery, StreamConfig, StreamIngest};
use gisolap_sub::{Registry, StandingEvaluator, Subscription};
use gisolap_traj::{ObjectId, Record};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// counters are const-initialised thread-local `Cell`s without a
// destructor, so touching them never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| {
            let (count, bytes) = n.get();
            n.set((count + 1, bytes + layout.size() as u64));
        });
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the `(allocations, bytes)` it requested on this
/// thread.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (count, bytes) = ALLOCATIONS.with(Cell::get);
    let out = f();
    let (count_after, bytes_after) = ALLOCATIONS.with(Cell::get);
    (out, (count_after - count, bytes_after - bytes))
}

/// The bytes `f` frees on this thread.
fn bytes_freed_by(f: impl FnOnce()) -> u64 {
    let before = FREED.with(Cell::get);
    f();
    FREED.with(Cell::get) - before
}

fn grid() -> GridSpec {
    GridSpec::new(BBox::new(0.0, 0.0, 64.0, 64.0), 16, 16).unwrap()
}

/// Intersects grid cells 0 and 1 only (the bottom row's first two).
fn two_cells() -> BBox {
    BBox::new(0.5, 0.5, 7.5, 3.5)
}

fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
    Record {
        oid: ObjectId(oid),
        t: TimeId(t),
        x,
        y,
    }
}

/// Hour 0 visits the two region cells; then `hours` more hours of
/// records spread over cells the region misses.
fn history(hours: i64) -> Vec<Record> {
    let mut records = vec![rec(0, 60, 1.0, 1.0), rec(1, 120, 5.0, 2.0)];
    for h in 1..=hours {
        for k in 0..20u64 {
            let (x, y) = ((k * 3 % 64) as f64 + 0.5, (8 + k * 7 % 56) as f64 + 0.5);
            records.push(rec(k, h * 3600 + k as i64 * 60, x, y));
        }
    }
    records
}

/// The bytes one region fetch off a sealed one-shard cluster holding
/// `history(hours)` allocates (measured on the second fetch).
fn region_fetch_bytes(hours: i64) -> (usize, (u64, u64)) {
    let scratch = ScratchDir::new("fetch-alloc-region");
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
    let spec = PartitionerSpec::Spatial {
        shards: 1,
        grid: grid(),
    };
    let store = StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    };
    let stream = StreamConfig::new(0, 3600).unwrap();
    let mut cluster = ShardedIngest::create(vfs, scratch.path(), spec, stream, store).unwrap();
    cluster.ingest(&history(hours)).unwrap();
    cluster.finish().unwrap();
    let exec = ClusterExecutor::new(&cluster);
    let region = two_cells();
    exec.fetch(0, Some(&region)).unwrap();
    let (cells, cost) = allocations_during(|| exec.fetch(0, Some(&region)).unwrap());
    (cells.len(), cost)
}

#[test]
fn a_two_cell_region_fetch_does_not_grow_with_history() {
    let (small_cells, small) = region_fetch_bytes(24);
    let (large_cells, large) = region_fetch_bytes(48);
    assert_eq!((small_cells, large_cells), (2, 2));
    assert_eq!(
        large, small,
        "(allocations, bytes) of a two-cell fetch: {small:?} over 24 hours, {large:?} over 48"
    );
}

/// A pipeline whose whole history is an unsealed tail of `n` records
/// over the same four cells whatever `n` is.
fn tail_of(n: u64) -> StreamIngest {
    let mut ingest = StreamIngest::new(StreamConfig::new(86_400, 3600).unwrap()).unwrap();
    let records: Vec<Record> = (0..n)
        .map(|i| rec(i % 7, (i % 4) as i64 * 3600 + (i / 4) as i64, i as f64, 0.5))
        .collect();
    ingest.ingest(&records);
    assert_eq!(ingest.tail_len() as u64, n);
    ingest
}

#[test]
fn a_repeated_read_of_an_unchanged_tail_buckets_nothing() {
    let q = RollupQuery::new(TimeLevel::Day, Measure::X, AggFn::Avg);
    let second_reads = |n: u64| {
        let ingest = tail_of(n);
        ingest.rollup(&q).unwrap();
        let (cells, extract) = allocations_during(|| ingest.extract_partials());
        let (_, rollup) = allocations_during(|| ingest.rollup(&q).unwrap());
        assert_eq!(cells.len(), 4);
        // The copy of four cells is the one allocation the read makes.
        assert_eq!(extract.0, 1, "extract_partials allocated {extract:?}");
        (extract, rollup)
    };
    let small = second_reads(500);
    let large = second_reads(1000);
    assert_eq!(
        large, small,
        "(extract, rollup) allocations over a 500-record tail {small:?}, 1000 {large:?}"
    );
}

#[test]
fn a_fetch_under_a_huge_request_grid_allocates_for_what_it_returns() {
    // A 4096×4096 grid over the fixture's area: its region test must
    // not cost a byte per grid cell.
    let request = GridSpec::new(grid().bbox, 4096, 4096).unwrap();
    let mut ingest = StreamIngest::new(StreamConfig::new(0, 3600).unwrap())
        .unwrap()
        .with_resolver(request.resolver());
    ingest.ingest(&history(2));
    let region = two_cells();
    fetch_partials(&ingest, Some(request), Some(&region)).unwrap();
    let (cells, (_, bytes)) =
        allocations_during(|| fetch_partials(&ingest, Some(request), Some(&region)).unwrap());
    assert_eq!(cells.len(), 2);
    assert!(
        bytes < 64 * 1024,
        "a fetch under a 4096x4096 request grid allocated {bytes} bytes"
    );
}

/// The allocations `finish` makes sealing one partition of `n` records
/// over the same 16 objects and 16 cells, through the grid resolver.
fn seal_allocations(n: u64) -> u64 {
    let mut ingest = StreamIngest::new(StreamConfig::new(86_400, 3600).unwrap())
        .unwrap()
        .with_resolver(grid().resolver());
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let (x, y) = ((i % 4) as f64 * 4.0 + 1.0, (i / 4 % 4) as f64 * 4.0 + 1.0);
            rec(i % 16, (i / 16) as i64, x, y)
        })
        .collect();
    ingest.ingest(&records);
    let (sealed, (count, _)) = allocations_during(|| ingest.finish());
    assert_eq!(sealed, 1);
    assert_eq!(ingest.segments()[0].partials().len(), 16);
    count
}

#[test]
fn sealing_allocates_per_cell_not_per_record() {
    let (small, large) = (seal_allocations(1000), seal_allocations(2000));
    assert_eq!(
        large, small,
        "sealing 1000 records made {small} allocations, 2000 records {large}"
    );
}

/// The allocations that recovering a flushed store of four hour
/// segments, each `n` records of `n / 10` objects over the same 16
/// cells, and then one whole-area fetch make.
fn recovery_allocations(n: u64) -> u64 {
    let scratch = ScratchDir::new("fetch-alloc-recover");
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
    let store = StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    };
    let stream = StreamConfig::new(0, 3600).unwrap();
    let mut durable = DurableIngest::create(
        vfs.clone(),
        scratch.path(),
        stream,
        store,
        Some(grid().resolver()),
    )
    .unwrap();
    for hour in 0..4 {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                let (x, y) = ((i % 4) as f64 * 4.0 + 1.0, (i / 4 % 4) as f64 * 4.0 + 1.0);
                rec(i % (n / 10), hour * 3600 + (i / (n / 10)) as i64, x, y)
            })
            .collect();
        durable.ingest(&records).unwrap();
    }
    durable.finish().unwrap();
    durable.flush().unwrap();
    drop(durable);

    let resolver = grid().resolver();
    let (cells, (count, _)) = allocations_during(|| {
        let (recovered, report) =
            DurableIngest::recover(vfs, scratch.path(), store, Some(resolver)).unwrap();
        assert_eq!(report.segments_loaded, 4);
        fetch_partials(recovered.pipeline(), None, None).unwrap()
    });
    assert_eq!(cells.len(), 4 * 16);
    count
}

#[test]
fn recovery_allocates_per_cell_not_per_record() {
    let (small, large) = (recovery_allocations(1000), recovery_allocations(2000));
    assert_eq!(
        large, small,
        "recovery plus a whole-area fetch made {small} allocations over 1000-record segments, {large} over 2000"
    );
}

/// The heap held by an evaluator (ring of 1) with two `over_hours(2)`
/// subscriptions, one over `two_cells()`, after syncing every seal of
/// `hours` hours of the same hourly traffic: the bytes its drop frees.
fn evaluator_heap(hours: i64) -> u64 {
    let mut ingest = StreamIngest::new(StreamConfig::new(0, 3600).unwrap())
        .unwrap()
        .with_resolver(grid().resolver());
    let mut evaluator = StandingEvaluator::with_caps(Some(grid()), Registry::new(8), 1);
    let sub = Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum).over_hours(2);
    evaluator.register(sub.clone()).unwrap();
    evaluator.register(sub.in_region(two_cells())).unwrap();
    for h in 0..=hours {
        let hour: Vec<Record> = (0..20u64)
            .map(|k| rec(k, h * 3600 + k as i64 * 60, (k * 3 % 64) as f64 + 0.5, 0.5))
            .collect();
        ingest.ingest(&hour);
        evaluator.sync_pipeline(&ingest);
    }
    assert_eq!(ingest.segments().len() as i64, hours);
    assert_eq!(evaluator.stats().notifications as i64, 2 * hours);
    bytes_freed_by(|| drop(evaluator))
}

#[test]
fn a_standing_evaluator_holds_the_same_heap_whatever_the_history() {
    let (day, four_days) = (evaluator_heap(24), evaluator_heap(96));
    assert_eq!(
        four_days, day,
        "evaluator heap after 24 sealed hours {day} bytes, after 96 {four_days}"
    );
}
