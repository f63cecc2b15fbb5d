//! The sharded store: N per-shard [`DurableIngest`] stores under one
//! cluster root, a persisted membership manifest, and routed ingest.
//!
//! On disk a cluster is a directory holding a `SHARDS` manifest (the
//! serialized [`ShardManifest`]: configuration **epoch** + partitioner
//! spec, CRC-framed like every other store file) plus one `shard-NNN/`
//! subdirectory per shard, each a complete, independently recoverable
//! [`DurableIngest`] store. Reopening the cluster reads the manifest
//! first — the partitioner is part of the data's identity, not a
//! query-time choice: records were *placed* by it, so querying with a
//! different one would silently misroute pruning. The epoch rises with
//! every leadership change and committed rebalance; replication fences
//! it so a superseded configuration can never apply writes.

use crate::partition::{Partitioner, PartitionerSpec};
use crate::wire::{self, ShardManifest};
use gisolap_obs::counters;
use gisolap_store::codec::{check_header, read_single_frame, Enc, FileKind};
use gisolap_store::{
    CompactionReport, DurableIngest, FlushReport, RecoveryReport, Result, StoreConfig, StoreError,
    Vfs,
};
use gisolap_stream::{IngestReport, StreamConfig};
use gisolap_traj::Record;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cluster manifest file name under the cluster root.
pub const SHARDS_MANIFEST: &str = "SHARDS";

/// Rebalance journal file name under the cluster root. Its presence
/// means a rebalance was interrupted; [`ShardedIngest::open`] refuses
/// such a root until the rebalance is recovered.
pub const REBALANCE_JOURNAL: &str = "REBALANCE";

/// Reads and strictly decodes the cluster manifest under `root`.
pub fn read_manifest(vfs: &dyn Vfs, root: &Path) -> Result<ShardManifest> {
    let bytes = vfs.read(&root.join(SHARDS_MANIFEST))?;
    let body = check_header(&bytes, FileKind::ShardManifest, SHARDS_MANIFEST)?;
    let payload = read_single_frame(body, SHARDS_MANIFEST)?;
    wire::refuse_v1_manifest(payload, SHARDS_MANIFEST)?;
    ShardManifest::decode(payload, SHARDS_MANIFEST)
}

/// Atomically publishes `manifest` under `root` — the commit point of
/// every epoch bump (leadership change, rebalance).
pub fn write_manifest(vfs: &dyn Vfs, root: &Path, manifest: &ShardManifest) -> Result<()> {
    let mut e = Enc::file(FileKind::ShardManifest);
    manifest.encode_to(&mut e);
    vfs.write_atomic(&root.join(SHARDS_MANIFEST), &e.into_framed(), true)
}

counters! {
    /// Counters for ingest routing across the cluster.
    pub struct RouteStats["gisolap_shard_", "Shard routing counter."] {
        /// Batches routed through [`ShardedIngest::ingest`].
        routed_batches,
        /// Records routed to a shard store.
        routed_records,
    }
}

/// N durable shard stores behind one ingest front door: every batch is
/// split by the cluster's [`Partitioner`] and appended to the owning
/// shard's WAL, preserving arrival order within each shard.
pub struct ShardedIngest {
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
    epoch: u64,
    spec: PartitionerSpec,
    partitioner: Box<dyn Partitioner>,
    shards: Vec<DurableIngest>,
    stats: RouteStats,
}

impl std::fmt::Debug for ShardedIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIngest")
            .field("root", &self.root)
            .field("epoch", &self.epoch)
            .field("spec", &self.spec)
            .field("stats", &self.stats)
            .finish()
    }
}

/// The directory shard `index` lives in under `root`.
pub fn shard_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:03}"))
}

impl ShardedIngest {
    /// Creates a fresh cluster at `root`: writes the membership
    /// manifest, then creates one empty shard store per partition.
    /// Errors if `root` already holds a cluster.
    pub fn create(
        vfs: Arc<dyn Vfs>,
        root: &Path,
        spec: PartitionerSpec,
        stream_config: StreamConfig,
        store_config: StoreConfig,
    ) -> Result<ShardedIngest> {
        let partitioner = spec.build()?;
        vfs.create_dir_all(root)?;
        let manifest_path = root.join(SHARDS_MANIFEST);
        if vfs.exists(&manifest_path) {
            return Err(StoreError::BadConfig(format!(
                "{} already holds a shard cluster; open it instead of creating",
                root.display()
            )));
        }
        write_manifest(vfs.as_ref(), root, &ShardManifest { epoch: 0, spec })?;

        let mut shards = Vec::with_capacity(partitioner.shards());
        for i in 0..partitioner.shards() {
            let resolver = spec.grid().map(|g| g.resolver());
            shards.push(DurableIngest::create(
                vfs.clone(),
                &shard_dir(root, i),
                stream_config,
                store_config,
                resolver,
            )?);
        }
        Ok(ShardedIngest {
            vfs,
            root: root.to_path_buf(),
            epoch: 0,
            spec,
            partitioner,
            shards,
            stats: RouteStats::default(),
        })
    }

    /// Reopens the cluster at `root`: refuses a root holding a
    /// [`REBALANCE_JOURNAL`] (an interrupted rebalance may have swapped
    /// some shard directories and not others; refusing is stale, never
    /// wrong), reads the membership manifest, rebuilds the partitioner it describes, then
    /// opens (create-or-recover) every shard store. Per-shard recovery
    /// reports come back positionally (`None` for shards that were
    /// created fresh, e.g. after adding capacity by hand); a per-shard
    /// failure names the shard directory and carries the cause.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        root: &Path,
        stream_config: StreamConfig,
        store_config: StoreConfig,
    ) -> Result<(ShardedIngest, Vec<Option<RecoveryReport>>)> {
        let journal = root.join(REBALANCE_JOURNAL);
        if vfs.exists(&journal) {
            return Err(StoreError::BadConfig(format!(
                "{} is the journal of an interrupted rebalance; recover it before \
                 opening the cluster",
                journal.display()
            )));
        }
        let manifest = read_manifest(vfs.as_ref(), root)?;
        let spec = manifest.spec;
        let partitioner = spec.build()?;

        let mut shards = Vec::with_capacity(partitioner.shards());
        let mut reports = Vec::with_capacity(partitioner.shards());
        for i in 0..partitioner.shards() {
            let resolver = spec.grid().map(|g| g.resolver());
            let dir = shard_dir(root, i);
            let (shard, report) =
                DurableIngest::open(vfs.clone(), &dir, stream_config, store_config, resolver)
                    .map_err(|e| StoreError::Shard {
                        dir: dir.strip_prefix(root).unwrap_or(&dir).display().to_string(),
                        source: Box::new(e),
                    })?;
            shards.push(shard);
            reports.push(report);
        }
        Ok((
            ShardedIngest {
                vfs,
                root: root.to_path_buf(),
                epoch: manifest.epoch,
                spec,
                partitioner,
                shards,
                stats: RouteStats::default(),
            },
            reports,
        ))
    }

    /// Routes a batch: each record goes to the shard its partitioner
    /// assigns, preserving the batch's arrival order within every
    /// shard. Returns the summed per-shard reports.
    pub fn ingest(&mut self, batch: &[Record]) -> Result<IngestReport> {
        let mut routed: Vec<Vec<Record>> = vec![Vec::new(); self.shards.len()];
        for r in batch {
            routed[self.partitioner.route(r)].push(*r);
        }
        let mut total = IngestReport::default();
        for (shard, records) in self.shards.iter_mut().zip(&routed) {
            if records.is_empty() {
                continue;
            }
            let report = shard.ingest(records)?;
            total.accepted += report.accepted;
            total.late += report.late;
            total.sealed += report.sealed;
        }
        self.stats.routed_batches += 1;
        self.stats.routed_records += batch.len() as u64;
        Ok(total)
    }

    /// Closes the stream on every shard; returns the total number of
    /// segments sealed by the close.
    pub fn finish(&mut self) -> Result<u64> {
        let mut sealed = 0;
        for shard in &mut self.shards {
            sealed += shard.finish()?;
        }
        Ok(sealed)
    }

    /// Flushes every shard store; reports come back positionally.
    pub fn flush(&mut self) -> Result<Vec<FlushReport>> {
        self.shards.iter_mut().map(|s| s.flush()).collect()
    }

    /// Compacts every shard store; reports come back positionally.
    pub fn compact(&mut self) -> Result<Vec<CompactionReport>> {
        self.shards.iter_mut().map(|s| s.compact()).collect()
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard stores, in shard order.
    pub fn shards(&self) -> &[DurableIngest] {
        &self.shards
    }

    /// The shard stores, mutable (flush/compact orchestration beyond
    /// the whole-cluster passthroughs).
    pub fn shards_mut(&mut self) -> &mut [DurableIngest] {
        &mut self.shards
    }

    /// The persisted membership spec.
    pub fn spec(&self) -> PartitionerSpec {
        self.spec
    }

    /// The configuration epoch this cluster was opened at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The live partitioner (routing + pruning).
    pub fn partitioner(&self) -> &dyn Partitioner {
        self.partitioner.as_ref()
    }

    /// The cluster root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The Vfs the cluster lives on.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        self.vfs.clone()
    }

    /// Routing counters.
    pub fn stats(&self) -> RouteStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::GridSpec;
    use gisolap_geom::BBox;
    use gisolap_olap::time::TimeId;
    use gisolap_store::ScratchDir;
    use gisolap_traj::ObjectId;

    fn grid() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 8.0, 8.0), 4, 4).unwrap()
    }

    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                oid: ObjectId(i % 7),
                t: TimeId(i as i64 * 60),
                x: (i % 8) as f64,
                y: ((i * 3) % 8) as f64,
            })
            .collect()
    }

    fn vfs() -> Arc<dyn Vfs> {
        Arc::new(gisolap_store::RealFs)
    }

    #[test]
    fn create_route_reopen_roundtrip() {
        let scratch = ScratchDir::new("shard-cluster-roundtrip");
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let stream = StreamConfig::new(3600, 3600).unwrap();
        let store = StoreConfig::default();
        let batch = records(64);

        let mut cluster =
            ShardedIngest::create(vfs(), scratch.path(), spec, stream, store).unwrap();
        let report = cluster.ingest(&batch).unwrap();
        assert_eq!(report.accepted, 64);
        assert_eq!(cluster.stats().routed_records, 64);
        cluster.finish().unwrap();
        cluster.flush().unwrap();
        let before: Vec<_> = cluster
            .shards()
            .iter()
            .map(|s| s.extract_partials())
            .collect();
        assert!(before.iter().any(|cells| !cells.is_empty()));
        drop(cluster);

        let (reopened, reports) =
            ShardedIngest::open(vfs(), scratch.path(), stream, store).unwrap();
        assert_eq!(reopened.spec(), spec);
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.is_some()), "all shards recover");
        let after: Vec<_> = reopened
            .shards()
            .iter()
            .map(|s| s.extract_partials())
            .collect();
        assert_eq!(before, after, "per-shard contents survive reopen");
    }

    #[test]
    fn create_refuses_existing_cluster() {
        let scratch = ScratchDir::new("shard-cluster-exists");
        let spec = PartitionerSpec::Hash {
            shards: 2,
            grid: None,
        };
        let stream = StreamConfig::new(3600, 3600).unwrap();
        ShardedIngest::create(vfs(), scratch.path(), spec, stream, StoreConfig::default()).unwrap();
        let err =
            ShardedIngest::create(vfs(), scratch.path(), spec, stream, StoreConfig::default())
                .unwrap_err();
        assert!(matches!(err, StoreError::BadConfig(_)));
    }

    #[test]
    fn spatial_routing_keeps_shards_disjoint() {
        let scratch = ScratchDir::new("shard-cluster-disjoint");
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let stream = StreamConfig::new(3600, 3600).unwrap();
        let mut cluster =
            ShardedIngest::create(vfs(), scratch.path(), spec, stream, StoreConfig::default())
                .unwrap();
        cluster.ingest(&records(200)).unwrap();
        cluster.finish().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for shard in cluster.shards() {
            for (key, _) in shard.extract_partials() {
                assert!(seen.insert(key), "cell {key:?} appears in two shards");
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn per_shard_open_failure_names_the_shard_directory() {
        let scratch = ScratchDir::new("shard-cluster-open-error");
        let spec = PartitionerSpec::Spatial {
            shards: 2,
            grid: grid(),
        };
        let stream = StreamConfig::new(3600, 3600).unwrap();
        let store = StoreConfig::default();
        let mut cluster =
            ShardedIngest::create(vfs(), scratch.path(), spec, stream, store).unwrap();
        cluster.ingest(&records(64)).unwrap();
        cluster.finish().unwrap();
        cluster.flush().unwrap();
        drop(cluster);

        // Scribble over one shard's manifest: that shard must fail to
        // open, and the error must say which shard directory is sick.
        std::fs::write(scratch.path().join("shard-001/MANIFEST"), b"garbage").unwrap();
        let err = ShardedIngest::open(vfs(), scratch.path(), stream, store).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("shard-001"),
            "error should name the shard dir: {msg}"
        );
        assert!(
            std::error::Error::source(&err).is_some(),
            "error should carry the underlying cause"
        );
    }
}
