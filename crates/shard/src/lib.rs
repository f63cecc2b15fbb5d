//! Sharded scatter-gather execution for the MOFT pipeline.
//!
//! This crate splits the Moving-Object Fact Table across N shard
//! stores and answers [`RollupQuery`](gisolap_stream::RollupQuery)s
//! over the union by scatter-gather, with the same bit-identical
//! reproducibility contract the single-store pipeline keeps:
//!
//! * [`partition`] — the [`Partitioner`] trait and its two
//!   implementations: hash-by-object-id (balanced, never prunes) and
//!   spatial-by-overlay-cell (disjoint shard key sets, region filters
//!   prune whole shards before any I/O).
//! * [`cluster`] — [`ShardedIngest`]: N per-shard durable stores under
//!   one root with a persisted membership manifest (whose epoch
//!   replication fences) and routed ingest.
//! * [`coordinator`] — [`Coordinator`]: prune → scatter (shards
//!   fetched in ascending order on the calling thread) → gather (a
//!   k-way merge of the per-shard runs, ties in ascending shard order,
//!   streamed into [`fold_rollup`](gisolap_stream::fold_rollup)), the
//!   one shard-side read [`fetch_partials`] every executor and the
//!   server's `Partials` request use (it copies only the cells a region
//!   keeps), plus the [`eval_single`] reference evaluator the
//!   equivalence tests compare against.
//! * [`wire`] — codecs for manifests, regions, grids and shipped cell
//!   sets, riding the store's CRC framing.
//!
//! The correctness core, proved cheap by construction: a shard's
//! extracted cells
//! ([`extract_partials`](gisolap_store::DurableIngest::extract_partials))
//! are exactly the
//! canonical accumulation of every record it accepted, independent of
//! seal/flush/compaction state; merging the per-shard lists per key in
//! ascending shard order therefore replays the same ascending-key fold
//! a single store performs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod coordinator;
pub mod partition;
pub mod wire;

pub use cluster::{shard_dir, RouteStats, ShardedIngest, REBALANCE_JOURNAL, SHARDS_MANIFEST};
pub use coordinator::{
    check_region, eval_single, fetch_partials, filter_region, filter_window, ClusterExecutor,
    Coordinator, ShardExecutor, ShardExplain, ShardQuery, ShardResult, ShardStats,
};
pub use partition::{GridSpec, HashPartitioner, Partitioner, PartitionerSpec, SpatialPartitioner};
