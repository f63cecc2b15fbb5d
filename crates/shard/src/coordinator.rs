//! The scatter-gather coordinator: prune, fan out, merge.
//!
//! Evaluation is three steps with a proof obligation attached:
//!
//! 1. **Prune** — ask the partitioner which shards a region filter can
//!    rule out (spatial clusters skip whole shards before any I/O;
//!    hash clusters cannot). A malformed region — a NaN bound, or a
//!    minimum above its maximum — is refused before this step.
//! 2. **Scatter** — fetch every surviving shard's `(hour, geo)` partial
//!    cells, one shard after the other in ascending index order on the
//!    calling thread, and drop out-of-window cells at the fetch edge
//!    ([`filter_window`] — result-neutral because the rollup's
//!    `between` masks the same hours). Shard-side, every read goes
//!    through [`fetch_partials`]: one pass over the shard's sealed run
//!    and its cached tail cells that copies only the cells the region's
//!    per-cell mask keeps.
//! 3. **Gather** — stream the per-shard runs through one k-way merge
//!    (`O(n log k)`, ties broken by **ascending shard index**) straight
//!    into the linear fold ([`fold_rollup`], `O(n)`); no cube is built.
//!
//! Why this is bit-identical to a single store: f64 sums depend only on
//! the *merge tree*, and the gather keeps the one [`eval_single`] builds
//! with a plain [`DeltaCube`] `absorb` + `rollup`. Per `(hour, geo)` key,
//! the cell is the left-to-right merge, from the empty partial, of the
//! key's entries with shards ascending (a run a remote executor returns
//! out of order is stably sorted first); per `(granule, geo)` group, the
//! row is that of those cells with hours ascending. Under a spatial
//! partitioner shard key sets are disjoint, so every key has one entry —
//! the exact cell multiset a single store would hold. Under a hash
//! partitioner a key can appear in several shards; the shard order fixes
//! one tree, so results are reproducible run-to-run and machine-to-machine
//! (and equal to the single store's whenever the measure sums are exactly
//! representable, e.g. quantized coordinates — see
//! `tests/shard_equivalence.rs`).

use crate::partition::{GridSpec, Partitioner, PartitionerSpec};
use gisolap_geom::BBox;
use gisolap_obs::{counters, Span, Tracer};
use gisolap_olap::agg::Partial;
use gisolap_olap::time::TimeId;
use gisolap_store::{Result, StoreError};
use gisolap_stream::{
    fold_rollup, hour_in_window, CellPartial, DeltaCube, GroupKey, Measure, RollupQuery, RollupRow,
    StreamIngest,
};
use std::cmp::Reverse;
use std::collections::{binary_heap::PeekMut, BTreeMap, BinaryHeap};
use std::time::Instant;

/// A rollup plus optional geometric and temporal filters: only cells
/// whose overlay-grid area intersects the region box and whose hour span
/// intersects the time window contribute. The region is what shard
/// pruning and shard-side filtering key on; the window is what cell
/// pruning before the gather keys on.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQuery {
    /// The aggregate to compute.
    pub rollup: RollupQuery,
    /// Optional spatial filter (requires the cluster to have a grid).
    pub region: Option<BBox>,
    /// Optional time window `[lo, hi]` pruning whole `(hour, geo)` cells
    /// before the gather. Kept in sync with `rollup.between` by
    /// [`ShardQuery::in_window`] so pruning is result-neutral.
    pub window: Option<(TimeId, TimeId)>,
}

impl ShardQuery {
    /// A whole-space sharded rollup.
    pub fn new(rollup: RollupQuery) -> ShardQuery {
        ShardQuery {
            rollup,
            region: None,
            window: None,
        }
    }

    /// Restricts the query to cells intersecting `region`.
    pub fn in_region(mut self, region: BBox) -> ShardQuery {
        self.region = Some(region);
        self
    }

    /// Restricts the query to hours intersecting `[lo, hi]`.
    ///
    /// Sets both the cell-prune window and the rollup's `between` bound
    /// to the same interval, so the early prune ([`filter_window`]) and
    /// the rollup's own hour mask apply *exactly* the same predicate:
    /// the pruned evaluation is bit-identical to running the plain
    /// `between` rollup over every cell (see `docs/indexing.md`).
    pub fn in_window(mut self, lo: TimeId, hi: TimeId) -> ShardQuery {
        self.window = Some((lo, hi));
        self.rollup = self.rollup.between(lo, hi);
        self
    }
}

/// What one sharded evaluation did — the scatter-gather analogue of an
/// `EXPLAIN` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardExplain {
    /// Shards in the cluster.
    pub shards_total: u64,
    /// Shards the region filter excluded before any fetch.
    pub shards_pruned: u64,
    /// Shards actually fetched.
    pub shards_queried: u64,
    /// Partial cells collected across all fetched shards.
    pub cells_gathered: u64,
    /// Fetched cells dropped by the time-window prune before the gather
    /// (their hour span misses the query window).
    pub cells_window_pruned: u64,
    /// Gathered cells that merged into an already-present key (always 0
    /// under a spatial partitioner: shard key sets are disjoint).
    pub cells_merged: u64,
}

impl std::fmt::Display for ShardExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shards: {} queried, {} pruned of {}; cells: {} gathered, {} window-pruned, {} merged",
            self.shards_queried,
            self.shards_pruned,
            self.shards_total,
            self.cells_gathered,
            self.cells_window_pruned,
            self.cells_merged,
        )
    }
}

/// Rows plus the explain record of how they were computed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// The merged rollup rows, identical to a single store's answer.
    pub rows: Vec<RollupRow>,
    /// What the scatter-gather did.
    pub explain: ShardExplain,
}

counters! {
    /// Counters for coordinator work.
    pub struct ShardStats["gisolap_shard_", "Shard coordinator counter."] {
        /// Sharded queries evaluated.
        queries,
        /// Shard fetches issued (after pruning).
        shards_queried,
        /// Shards excluded by region pruning before any fetch.
        shards_pruned,
        /// Partial cells gathered from shards.
        cells_gathered,
        /// Fetched cells dropped by the time-window prune before the gather.
        cells_window_pruned,
        /// Gathered cells merged into an existing key during gather.
        gather_merges,
    }
}

/// Where the coordinator fetches per-shard cells from: a local cluster
/// or remote serve endpoints — anything that can hand back shard `i`'s
/// extracted partials, optionally pre-filtered to a region shard-side.
pub trait ShardExecutor {
    /// Shard count (must match the coordinator's partitioner).
    fn shards(&self) -> usize;

    /// Shard `shard`'s `(hour, geo)` partial cells, ascending by key,
    /// restricted to cells intersecting `region` when one is given.
    fn fetch(&self, shard: usize, region: Option<&BBox>) -> Result<Vec<(GroupKey, CellPartial)>>;
}

/// Merges per-shard partial aggregates into single-store-identical
/// rollup answers.
pub struct Coordinator<E> {
    executor: E,
    partitioner: Box<dyn Partitioner>,
    stats: ShardStats,
    tracer: Tracer,
    spans: Vec<Span>,
}

impl<E: std::fmt::Debug> std::fmt::Debug for Coordinator<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("executor", &self.executor)
            .field("spec", &self.partitioner.spec())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<E: ShardExecutor> Coordinator<E> {
    /// A coordinator over `executor`, pruning with the partitioner
    /// `spec` describes. The spec must be the one the data was placed
    /// by ([`ShardedIngest::spec`](crate::ShardedIngest::spec)) — a
    /// mismatched shard count is rejected here, a mismatched strategy
    /// cannot be detected and would misroute pruning.
    pub fn new(executor: E, spec: PartitionerSpec) -> Result<Coordinator<E>> {
        let partitioner = spec.build()?;
        if executor.shards() != partitioner.shards() {
            return Err(StoreError::BadConfig(format!(
                "executor has {} shards but the partitioner spec describes {}",
                executor.shards(),
                partitioner.shards()
            )));
        }
        Ok(Coordinator {
            executor,
            partitioner,
            stats: ShardStats::default(),
            tracer: Tracer::default(),
            spans: Vec::new(),
        })
    }

    /// Evaluates a sharded rollup: prune, scatter, gather.
    pub fn eval(&mut self, q: &ShardQuery) -> Result<ShardResult> {
        let total = self.partitioner.shards();
        if let Some(region) = &q.region {
            check_region(region)?;
            region_grid(self.partitioner.grid())?;
        }
        self.stats.queries += 1;

        // Prune: a spatial partitioner maps the region to the shards
        // owning intersecting cells; everything else queries all shards
        // (cell-level filtering still applies shard-side).
        let targets: Vec<usize> = match &q.region {
            Some(region) => self
                .partitioner
                .prune(region)
                .unwrap_or_else(|| (0..total).collect()),
            None => (0..total).collect(),
        };
        debug_assert!(targets.windows(2).all(|w| w[0] < w[1]));
        self.stats.shards_pruned += (total - targets.len()) as u64;
        self.stats.shards_queried += targets.len() as u64;

        // Scatter. Each shard's cells pass the time-window prune right at
        // the fetch edge, so out-of-window cells never reach the gather;
        // `in_window` keeps `rollup.between` on the same interval, which
        // makes the prune result-neutral (the rollup would mask those
        // hours anyway).
        let t_scatter = Instant::now();
        // One shard's kept cells plus how many its window prune dropped.
        type ShardFetch = (Vec<(GroupKey, CellPartial)>, u64);
        let window = q.window;
        let fetch_one = |s: usize| -> Result<ShardFetch> {
            let cells = self.executor.fetch(s, q.region.as_ref())?;
            let before = cells.len();
            let mut kept = filter_window(cells, window);
            let pruned = (before - kept.len()) as u64;
            // The merge needs ascending runs; a remote executor's may not be.
            if !kept.windows(2).all(|w| w[0].0 <= w[1].0) {
                kept.sort_by_key(|(key, _)| *key);
            }
            Ok((kept, pruned))
        };
        let fetched: Vec<ShardFetch> = targets
            .iter()
            .map(|&s| fetch_one(s))
            .collect::<Result<_>>()?;
        let scatter_ns = t_scatter.elapsed().as_nanos() as u64;
        let cells_gathered: u64 = fetched.iter().map(|(c, _)| c.len() as u64).sum();
        let cells_window_pruned: u64 = fetched.iter().map(|&(_, pruned)| pruned).sum();
        self.stats.cells_gathered += cells_gathered;
        self.stats.cells_window_pruned += cells_window_pruned;

        // Gather: one pass of the runs (targets are ascending, `fetched`
        // is positionally aligned with them) through merge and fold.
        let t_gather = Instant::now();
        let runs: Vec<_> = fetched.iter().map(|(cells, _)| &cells[..]).collect();
        let mut keys = 0u64;
        let merged = merge_runs(&runs, q.rollup.measure).inspect(|_| keys += 1);
        let rows = fold_rollup(&q.rollup, merged).map_err(StoreError::Stream)?;
        let cells_merged = cells_gathered - keys;
        self.stats.gather_merges += cells_merged;
        let gather_ns = t_gather.elapsed().as_nanos() as u64;

        let explain = ShardExplain {
            shards_total: total as u64,
            shards_pruned: (total - targets.len()) as u64,
            shards_queried: targets.len() as u64,
            cells_gathered,
            cells_window_pruned,
            cells_merged,
        };
        if self.tracer.enabled() {
            self.spans.push(Span {
                name: "shard-eval",
                duration_ns: scatter_ns + gather_ns,
                counters: vec![("queries", 1)],
                children: vec![
                    Span {
                        name: "shard-scatter",
                        duration_ns: scatter_ns,
                        counters: vec![
                            ("shards_queried", explain.shards_queried),
                            ("shards_pruned", explain.shards_pruned),
                            ("cells_gathered", cells_gathered),
                            ("cells_window_pruned", cells_window_pruned),
                        ],
                        children: Vec::new(),
                    },
                    Span {
                        name: "shard-gather",
                        duration_ns: gather_ns,
                        counters: vec![
                            ("gather_merges", cells_merged),
                            ("rows", rows.len() as u64),
                        ],
                        children: Vec::new(),
                    },
                ],
            });
        }
        Ok(ShardResult { rows, explain })
    }

    /// The executor (e.g. to reach the underlying cluster or clients).
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// Coordinator counters.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Switches `shard-eval` span collection.
    pub fn set_traced(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Collected `shard-eval` span trees (when traced).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Refuses a malformed region — a NaN bound, or a minimum above its
/// maximum. No cell intersects one, so answering it would return empty
/// rows for what is a bad request (and a subscription over one would
/// never fire).
pub fn check_region(region: &BBox) -> Result<()> {
    let ordered = region.min_x <= region.max_x && region.min_y <= region.max_y;
    if ordered {
        return Ok(());
    }
    Err(StoreError::BadConfig(format!(
        "region {region:?} has a NaN bound or a minimum above its maximum"
    )))
}

/// The grid a region filter tests cells against; a region without a
/// grid is a config error (the cells carry no geometry to filter on).
fn region_grid(grid: Option<GridSpec>) -> Result<GridSpec> {
    grid.ok_or_else(|| {
        StoreError::BadConfig("a region filter needs a cluster with an overlay grid".to_string())
    })
}

/// Applies the region filter to already-copied cells: with a grid, keep
/// only intersecting cells; a region without a grid is a config error.
/// The independent reference [`eval_single`] filters this way; shard
/// reads use [`fetch_partials`], which keeps exactly the same cells.
pub fn filter_region(
    cells: Vec<(GroupKey, CellPartial)>,
    grid: Option<GridSpec>,
    region: Option<&BBox>,
) -> Result<Vec<(GroupKey, CellPartial)>> {
    match region {
        None => Ok(cells),
        Some(region) => Ok(region_grid(grid)?.filter_cells(cells, region)),
    }
}

/// The one shard-side read every executor and the server's `Partials`
/// request go through: `pipeline`'s cells, ascending by key, restricted
/// to cells intersecting `region` when one is given. It keeps exactly
/// what `filter_region(pipeline.extract_partials(), grid, region)`
/// keeps, but tests the region once per cell against a mask built once
/// per call and copies only the kept cells
/// ([`StreamIngest::partials_where`]). A malformed region is refused
/// before any cell is read.
pub fn fetch_partials(
    pipeline: &StreamIngest,
    grid: Option<GridSpec>,
    region: Option<&BBox>,
) -> Result<Vec<(GroupKey, CellPartial)>> {
    match region {
        None => Ok(pipeline.extract_partials()),
        Some(region) => {
            check_region(region)?;
            let keep = region_grid(grid)?.region_test(region);
            Ok(pipeline.partials_where(keep))
        }
    }
}

/// Streams ascending runs as one strictly ascending sequence of per-key
/// `measure` partials: each the left-to-right merge, from the empty
/// partial, of the key's entries by run index, then position in the run
/// — what absorbing the runs in turn into a [`DeltaCube`] would hold.
fn merge_runs<'a>(
    runs: &'a [&'a [(GroupKey, CellPartial)]],
    measure: Measure,
) -> impl Iterator<Item = (GroupKey, Partial)> + 'a {
    // Each run's unread head as `(key, run, position)`, smallest on top.
    let mut heads: BinaryHeap<_> = (runs.iter().enumerate())
        .filter_map(|(r, run)| Some(Reverse((run.first()?.0, r, 0))))
        .collect();
    std::iter::from_fn(move || {
        let key = heads.peek()?.0 .0;
        let mut partial = Partial::new();
        while let Some(mut head) = heads.peek_mut().filter(|head| head.0 .0 == key) {
            let Reverse((_, r, at)) = *head;
            partial.merge(runs[r][at].1.measure(measure));
            match runs[r].get(at + 1) {
                Some((next, _)) => *head = Reverse((*next, r, at + 1)),
                None => drop(PeekMut::pop(head)),
            }
        }
        Some((key, partial))
    })
}

/// Applies the time-window cell prune: keep cells whose hour span
/// `[h·3600, h·3600+3599]` intersects `[lo, hi]` — [`hour_in_window`],
/// the *same* predicate the rollup applies for `RollupQuery::between`,
/// which is what makes pruning before the gather result-neutral.
pub fn filter_window(
    mut cells: Vec<(GroupKey, CellPartial)>,
    window: Option<(TimeId, TimeId)>,
) -> Vec<(GroupKey, CellPartial)> {
    if window.is_some() {
        cells.retain(|((hour, _), _)| hour_in_window(*hour, window));
    }
    cells
}

/// The reference evaluator sharded execution must match bit-for-bit: a
/// single unsharded pipeline, same extraction, same filter, same fold.
pub fn eval_single(
    pipeline: &StreamIngest,
    grid: Option<GridSpec>,
    q: &ShardQuery,
) -> Result<Vec<RollupRow>> {
    let cells = filter_region(pipeline.extract_partials(), grid, q.region.as_ref())?;
    let cells = filter_window(cells, q.window);
    let mut cube = DeltaCube::new();
    cube.absorb(&cells);
    cube.rollup(&q.rollup, &BTreeMap::new())
        .map_err(StoreError::Stream)
}

/// Scatter reads straight off a local cluster's shard stores.
#[derive(Debug)]
pub struct ClusterExecutor<'a> {
    cluster: &'a crate::ShardedIngest,
}

impl<'a> ClusterExecutor<'a> {
    /// Reads from `cluster`'s shard stores.
    pub fn new(cluster: &'a crate::ShardedIngest) -> ClusterExecutor<'a> {
        ClusterExecutor { cluster }
    }
}

impl ShardExecutor for ClusterExecutor<'_> {
    fn shards(&self) -> usize {
        self.cluster.shard_count()
    }

    fn fetch(&self, shard: usize, region: Option<&BBox>) -> Result<Vec<(GroupKey, CellPartial)>> {
        let pipeline = self.cluster.shards()[shard].pipeline();
        fetch_partials(pipeline, self.cluster.partitioner().grid(), region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ShardedIngest;
    use crate::partition::GridSpec;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_store::{ScratchDir, StoreConfig, Vfs};
    use gisolap_stream::{Measure, StreamConfig};
    use gisolap_traj::{ObjectId, Record};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn grid() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 8.0, 8.0), 4, 4).unwrap()
    }

    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                oid: ObjectId(i % 9),
                t: TimeId((i as i64 * 97) % 7200),
                x: ((i * 5) % 32) as f64 * 0.25,
                y: ((i * 11) % 32) as f64 * 0.25,
            })
            .collect()
    }

    fn cluster_with(
        scratch: &ScratchDir,
        spec: PartitionerSpec,
        batch: &[Record],
    ) -> ShardedIngest {
        let vfs: Arc<dyn Vfs> = Arc::new(gisolap_store::RealFs);
        let stream = StreamConfig::new(86_400, 3600).unwrap();
        let mut cluster =
            ShardedIngest::create(vfs, scratch.path(), spec, stream, StoreConfig::default())
                .unwrap();
        cluster.ingest(batch).unwrap();
        cluster
    }

    fn single_with(batch: &[Record]) -> StreamIngest {
        let mut single = StreamIngest::new(StreamConfig::new(86_400, 3600).unwrap())
            .unwrap()
            .with_resolver(grid().resolver());
        single.ingest(batch);
        single
    }

    #[test]
    fn sharded_matches_single_store() {
        let scratch = ScratchDir::new("shard-coord-identity");
        let batch = records(300);
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        for f in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
            let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, f));
            let got = coord.eval(&q).unwrap();
            let want = eval_single(&single, Some(grid()), &q).unwrap();
            assert_eq!(got.rows, want, "{f:?}");
            assert_eq!(got.explain.cells_merged, 0, "spatial shards are disjoint");
        }
    }

    #[test]
    fn region_filter_prunes_spatial_shards() {
        let scratch = ScratchDir::new("shard-coord-prune");
        let batch = records(300);
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        coord.set_traced(true);
        let region = BBox::new(0.1, 0.1, 1.9, 1.9);
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::Y, AggFn::Sum))
            .in_region(region);
        let got = coord.eval(&q).unwrap();
        assert!(got.explain.shards_pruned > 0, "{}", got.explain);
        assert_eq!(
            got.explain.shards_pruned + got.explain.shards_queried,
            got.explain.shards_total
        );
        assert_eq!(got.rows, eval_single(&single, Some(grid()), &q).unwrap());
        let spans = coord.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].children[0].name, "shard-scatter");
        assert_eq!(spans[0].children[1].name, "shard-gather");
        assert_eq!(
            spans[0].total("shards_pruned"),
            got.explain.shards_pruned,
            "span counters mirror the explain"
        );
    }

    #[test]
    fn window_filter_prunes_cells_before_gather() {
        let scratch = ScratchDir::new("shard-coord-window");
        let batch = records(300); // hours 0 and 1
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        coord.set_traced(true);
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .in_window(TimeId(0), TimeId(3599));
        let got = coord.eval(&q).unwrap();
        assert!(got.explain.cells_window_pruned > 0, "{}", got.explain);
        assert!(got.rows.iter().all(|r| r.granule == 0), "only hour 0 left");
        // Identical to the single-store reference with the same prune...
        assert_eq!(got.rows, eval_single(&single, Some(grid()), &q).unwrap());
        // ...and to the un-pruned rollup that only uses `between`: the
        // early window prune is result-neutral.
        let plain = ShardQuery::new(
            RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum)
                .between(TimeId(0), TimeId(3599)),
        );
        assert_eq!(
            got.rows,
            eval_single(&single, Some(grid()), &plain).unwrap()
        );
        assert_eq!(
            coord.spans()[0].total("cells_window_pruned"),
            got.explain.cells_window_pruned
        );
        assert_eq!(
            coord.stats().cells_window_pruned,
            got.explain.cells_window_pruned
        );
    }

    #[test]
    fn hash_cluster_answers_region_queries_without_pruning() {
        let scratch = ScratchDir::new("shard-coord-hash-region");
        let batch = records(300);
        let spec = PartitionerSpec::Hash {
            shards: 3,
            grid: Some(grid()),
        };
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count))
            .in_region(BBox::new(0.1, 0.1, 3.9, 3.9));
        let got = coord.eval(&q).unwrap();
        assert_eq!(got.explain.shards_pruned, 0, "hash cannot prune");
        assert_eq!(got.rows, eval_single(&single, Some(grid()), &q).unwrap());
    }

    #[test]
    fn region_without_grid_is_rejected() {
        let scratch = ScratchDir::new("shard-coord-no-grid");
        let spec = PartitionerSpec::Hash {
            shards: 2,
            grid: None,
        };
        let cluster = cluster_with(&scratch, spec, &records(10));
        let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count))
            .in_region(BBox::new(0.0, 0.0, 1.0, 1.0));
        assert!(matches!(
            coord.eval(&q).unwrap_err(),
            StoreError::BadConfig(_)
        ));
    }

    /// Regions no cell can intersect: a NaN bound, inverted x, inverted y.
    fn malformed_regions() -> [BBox; 3] {
        let bad = |min_x, min_y, max_x, max_y| BBox {
            min_x,
            min_y,
            max_x,
            max_y,
        };
        [
            bad(0.0, f64::NAN, 4.0, 4.0),
            bad(5.0, 0.0, 1.0, 4.0),
            bad(0.0, 3.0, 4.0, 2.0),
        ]
    }

    #[test]
    fn malformed_regions_are_refused_before_any_prune_or_fetch() {
        let specs = [
            PartitionerSpec::Spatial {
                shards: 4,
                grid: grid(),
            },
            hash_spec(3),
        ];
        for spec in specs {
            let scratch = ScratchDir::new("shard-coord-malformed");
            let cluster = cluster_with(&scratch, spec, &records(120));
            let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), spec).unwrap();
            for region in malformed_regions() {
                let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
                    .in_region(region);
                let err = coord.eval(&q).unwrap_err();
                assert!(matches!(err, StoreError::BadConfig(_)), "{spec:?}: {err}");
                let err = coord.executor().fetch(0, Some(&region)).unwrap_err();
                assert!(matches!(err, StoreError::BadConfig(_)), "{spec:?}: {err}");
            }
            assert_eq!(
                coord.stats(),
                ShardStats::default(),
                "nothing pruned or fetched"
            );
            // A valid region still answers on the same coordinator.
            let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
                .in_region(BBox::new(0.1, 0.1, 3.9, 3.9));
            assert!(!coord.eval(&q).unwrap().rows.is_empty());
        }
    }

    #[test]
    fn shard_count_mismatch_is_rejected() {
        let scratch = ScratchDir::new("shard-coord-mismatch");
        let spec = PartitionerSpec::Hash {
            shards: 2,
            grid: None,
        };
        let cluster = cluster_with(&scratch, spec, &records(10));
        let wrong = PartitionerSpec::Hash {
            shards: 3,
            grid: None,
        };
        assert!(Coordinator::new(ClusterExecutor::new(&cluster), wrong).is_err());
    }

    /// Hands back canned per-shard runs, region-filtered like a real
    /// executor — including runs no local pipeline would produce.
    struct StubExecutor {
        runs: Vec<Vec<(GroupKey, CellPartial)>>,
    }

    impl ShardExecutor for StubExecutor {
        fn shards(&self) -> usize {
            self.runs.len()
        }

        fn fetch(
            &self,
            shard: usize,
            region: Option<&BBox>,
        ) -> Result<Vec<(GroupKey, CellPartial)>> {
            filter_region(self.runs[shard].clone(), Some(grid()), region)
        }
    }

    fn hash_spec(shards: usize) -> PartitionerSpec {
        PartitionerSpec::Hash {
            shards: shards as u32,
            grid: Some(grid()),
        }
    }

    /// The oracle's path over the same runs: filter, absorb into a plain
    /// cube shard by shard, roll up. Returns row bits and the merge count.
    fn absorbed(
        runs: &[Vec<(GroupKey, CellPartial)>],
        q: &ShardQuery,
    ) -> (Vec<(i64, Option<u32>, u64)>, u64) {
        let mut cube = DeltaCube::new();
        let mut merged = 0;
        for run in runs {
            let cells = filter_region(run.clone(), Some(grid()), q.region.as_ref()).unwrap();
            merged += cube.absorb(&filter_window(cells, q.window)).merged;
        }
        let rows = cube.rollup(&q.rollup, &BTreeMap::new()).unwrap();
        (row_bits(&rows), merged)
    }

    fn row_bits(rows: &[RollupRow]) -> Vec<(i64, Option<u32>, u64)> {
        let bits = |r: &RollupRow| (r.granule, r.geo, r.value.to_bits());
        rows.iter().map(bits).collect()
    }

    fn cell(count: u64, sum: f64) -> CellPartial {
        let p = Partial::from_raw(count, sum, sum, sum);
        CellPartial { x: p, y: p }
    }

    #[test]
    fn shared_keys_merge_in_ascending_shard_order() {
        // 1 + 1e16 rounds to 1e16: shards 0, 1, 2 in that order sum the
        // shared key to exactly 0, the reverse order to 1.
        let key = (5, Some(2));
        let runs = vec![
            vec![((4, None), cell(1, 0.5)), (key, cell(1, 1.0))],
            vec![(key, cell(1, 1e16)), ((6, Some(2)), cell(1, 0.25))],
            vec![(key, cell(1, -1e16))],
            vec![],
        ];
        let mut coord =
            Coordinator::new(StubExecutor { runs: runs.clone() }, hash_spec(4)).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum));
        let got = coord.eval(&q).unwrap();
        assert_eq!(got.explain.cells_gathered, 5);
        assert_eq!(got.explain.cells_merged, 2);
        assert_eq!(coord.stats().gather_merges, 2);
        assert_eq!(got.rows[1].value.to_bits(), 0f64.to_bits());
        assert_eq!((row_bits(&got.rows), 2), absorbed(&runs, &q));
        // The day-level group folds hours 4, 5, 6 in that order.
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Day, Measure::X, AggFn::Sum));
        let got = coord.eval(&q).unwrap();
        assert_eq!(got.rows.len(), 2);
        assert_eq!((row_bits(&got.rows), 2), absorbed(&runs, &q));
    }

    #[test]
    fn empty_single_and_fully_pruned_clusters() {
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Day, Measure::Y, AggFn::Avg));
        let stub = |runs: &[Vec<_>]| StubExecutor {
            runs: runs.to_vec(),
        };
        // Every shard empty.
        let runs = vec![Vec::new(); 3];
        let got = Coordinator::new(stub(&runs), hash_spec(3))
            .unwrap()
            .eval(&q)
            .unwrap();
        assert!(got.rows.is_empty());
        assert_eq!(
            (got.explain.cells_gathered, got.explain.cells_merged),
            (0, 0)
        );
        // One shard.
        let runs = vec![vec![
            ((0, Some(1)), cell(2, 3.0)),
            ((30, Some(1)), cell(1, 4.0)),
        ]];
        let got = Coordinator::new(stub(&runs), hash_spec(1))
            .unwrap()
            .eval(&q)
            .unwrap();
        assert_eq!((row_bits(&got.rows), 0), absorbed(&runs, &q));
        assert_eq!(got.rows.len(), 2);
        // A region outside the grid prunes every spatial shard: nothing
        // is fetched, nothing merged.
        let spec = PartitionerSpec::Spatial {
            shards: 2,
            grid: grid(),
        };
        let runs = vec![runs[0].clone(), vec![((0, Some(9)), cell(1, 1.0))]];
        let q = q.in_region(BBox::new(100.0, 100.0, 101.0, 101.0));
        let got = Coordinator::new(stub(&runs), spec)
            .unwrap()
            .eval(&q)
            .unwrap();
        assert!(got.rows.is_empty());
        assert_eq!(
            (got.explain.shards_pruned, got.explain.shards_queried),
            (2, 0)
        );
    }

    /// Runs with full-mantissa sums (so every merge order shows), keys
    /// from a small space (so shards overlap), in the order `shape` picks:
    /// ascending, ascending with repeats, or as generated.
    fn synth_run(seed: u64, n: usize, shape: u64) -> Vec<(GroupKey, CellPartial)> {
        let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3);
        let mut next = move || {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        };
        let mut run: Vec<_> = (0..n)
            .map(|_| {
                let key = (
                    (next() % 60) as i64,
                    (next() % 5 != 0).then(|| (next() % 16) as u32),
                );
                let sum = ((next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
                    * 2f64.powi((next() % 41) as i32 - 20);
                (key, cell(next() % 9 + 1, sum))
            })
            .collect();
        if shape % 3 > 0 {
            run.sort_by_key(|(key, _)| *key);
        }
        if shape % 3 > 1 {
            run.dedup_by_key(|(key, _)| *key);
        }
        run
    }

    proptest! {
        /// The streaming gather against absorb + rollup over the same
        /// runs — some of them not ascending — for every level, with and
        /// without a region and a window: same row bits, same merge count.
        #[test]
        fn gather_matches_absorbing_the_runs(seed in 0u64..100_000, shards in 1usize..6) {
            let runs: Vec<_> = (0..shards as u64)
                .map(|s| synth_run(seed ^ (s << 20), (seed >> s) as usize % 50, seed >> (2 * s)))
                .collect();
            let mut coord = Coordinator::new(StubExecutor { runs: runs.clone() }, hash_spec(shards)).unwrap();
            let levels = [
                TimeLevel::Hour,
                TimeLevel::Day,
                TimeLevel::Month,
                TimeLevel::TimeOfDayLevel,
                TimeLevel::DayOfWeekLevel,
                TimeLevel::TypeOfDayLevel,
                TimeLevel::All,
            ];
            for level in levels {
                let f = [AggFn::Sum, AggFn::Avg, AggFn::Min][(seed % 3) as usize];
                let whole = ShardQuery::new(RollupQuery::new(level, Measure::X, f));
                let windowed = whole.clone().in_window(TimeId(7 * 3600 + 11), TimeId(40 * 3600));
                let regional = windowed.clone().in_region(BBox::new(0.5, 0.5, 5.5, 3.5));
                for q in [whole, windowed, regional] {
                    let got = coord.eval(&q).unwrap();
                    let (rows, merged) = absorbed(&runs, &q);
                    prop_assert_eq!(row_bits(&got.rows), rows, "{:?}", q);
                    prop_assert_eq!(got.explain.cells_merged, merged);
                }
            }
        }
    }
}
