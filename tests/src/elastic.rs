//! A logical-tick model of shard elasticity (`DESIGN.md` §5.6): lease
//! failover between in-process replicas, the executors that read them,
//! and journaled rebalancing between shard counts.
//!
//! No served process runs any of this — the server holds every shard of
//! a cluster in one process — so it lives beside the tests that drive it.
//! What production keeps is what every served path crosses: the
//! [`EpochFence`], [`StoreError::StaleEpoch`] / [`StoreError::NotLeader`],
//! [`Leader::pipeline_fenced`], the `SHARDS` manifest epoch, and
//! [`ShardedIngest::open`]'s refusal of a root holding a
//! [`REBALANCE_JOURNAL`] (run [`recover_rebalance`] first).
//!
//! * [`ShardGroup`] — one shard's leader plus durable replicas, probed
//!   over the [`Transport`] replication rides. A leader holds a **lease**
//!   measured in controller ticks; only once the lease has *expired* and
//!   the probe still fails does the controller promote the most-caught-up
//!   live replica. Promotion bumps the fence *before* the new leader
//!   exists, so the deposed leader is refused even if it was merely
//!   partitioned: at most one leader per shard per epoch.
//! * [`rebalance`] — moves a spatial cluster between shard counts by
//!   cell-range handoff: **journal** the intent, **build** the new stores
//!   beside the old (`shard-NNN.next`), **verify** them against the
//!   sources, then **commit** by publishing the epoch-bumped manifest and
//!   swapping directories. The manifest flip is the single commit point:
//!   [`recover_rebalance`] rolls an interrupted attempt forward if the
//!   manifest carries the journal's target epoch and back otherwise.
//!
//! Rebalancing keeps bit-identity because segment widths are hour-aligned
//! ([`StreamConfig`] validation): every `(hour, geo)` cell lives wholly
//! inside one partition and is owned by one source shard, so the handoff
//! moves cells whole and the destination union is exactly the source
//! union, which the verify stage asserts before anything is committed.

use gisolap_geom::BBox;
use gisolap_obs::counters;
use gisolap_olap::time::TimeDimension;
use gisolap_repl::{
    DirectTransport, EpochFence, Follower, FollowerConfig, Leader, Request, Transport,
    TransportError,
};
use gisolap_shard::cluster::{read_manifest, write_manifest};
use gisolap_shard::wire::{RebalanceJournal, ShardManifest};
use gisolap_shard::{
    fetch_partials, shard_dir, Coordinator, GridSpec, Partitioner, PartitionerSpec, ShardExecutor,
    ShardQuery, ShardResult, ShardedIngest, SpatialPartitioner, REBALANCE_JOURNAL,
};
use gisolap_store::codec::{check_header, read_single_frame, Enc, FileKind};
use gisolap_store::{DurableIngest, Result, StoreConfig, StoreError, Vfs};
use gisolap_stream::{
    CellPartial, GeoResolver, GroupKey, IngestReport, Segment, StreamConfig, TailState,
};
use gisolap_traj::Record;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lease and probe cadence for a [`ShardGroup`], in logical controller
/// ticks — deterministic by construction, so failover tests need no
/// clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticConfig {
    /// Ticks a lease stays valid after a successful probe. Failover
    /// requires an *expired* lease and a failed probe, so one dropped
    /// probe never deposes a healthy leader.
    pub lease_ticks: u64,
    /// Ticks between leader health probes.
    pub probe_every: u64,
}

impl Default for ElasticConfig {
    fn default() -> ElasticConfig {
        ElasticConfig {
            lease_ticks: 10,
            probe_every: 2,
        }
    }
}

counters! {
    /// Counters for failover probing. Rebalances report what they did in
    /// their [`RebalanceReport`] / [`RebalanceRecovery`] instead.
    pub struct ElasticStats["gisolap_elastic_", "Shard elasticity counter."] {
        /// Leader health probes sent.
        probes,
        /// Probes that failed (leader unreachable or fenced).
        probe_failures,
        /// Leases renewed by a successful probe.
        lease_renewals,
        /// Failovers completed (a replica promoted under a new epoch).
        failovers,
    }
}

/// A [`Transport`] to an in-process leader with an injectable outage:
/// while the target node's `down` flag is set every exchange fails
/// [`TransportError::Unavailable`], exactly as a partition or crash
/// looks from the other side of a real link.
pub struct Link {
    inner: DirectTransport,
    down: Arc<AtomicBool>,
}

impl Link {
    /// A link to `leader` whose availability follows `down` (shared
    /// with the controller's kill switch for the hosting node).
    pub fn new(leader: Arc<Mutex<Leader>>, down: Arc<AtomicBool>) -> Link {
        Link {
            inner: DirectTransport::new(leader),
            down,
        }
    }
}

impl Transport for Link {
    fn exchange(&mut self, request: &[u8]) -> std::result::Result<Vec<u8>, TransportError> {
        if self.down.load(Ordering::SeqCst) {
            return Err(TransportError::Unavailable(
                "node is down (injected)".to_string(),
            ));
        }
        self.inner.exchange(request)
    }
}

/// One leadership appointment: `holder` was granted the shard's lease
/// under `epoch` at controller tick `tick`. A group's grant history has
/// strictly increasing epochs — the checkable form of "at most one
/// leader per shard holds a valid lease per epoch".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGrant {
    /// The epoch the lease was granted under.
    pub epoch: u64,
    /// The node index holding it (0 = the founding leader).
    pub holder: usize,
    /// The controller tick the grant happened at.
    pub tick: u64,
}

/// What one controller tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// Not a probe tick (followers still polled).
    Idle,
    /// Probe succeeded; lease renewed.
    Renewed,
    /// Probe failed but the lease is still valid — no action until
    /// `expires_at`.
    ProbeFailed {
        /// The tick the current lease runs out at.
        expires_at: u64,
    },
    /// The lease expired with the leader still unreachable; `holder`
    /// was promoted under `epoch`.
    FailedOver {
        /// The new epoch.
        epoch: u64,
        /// The node index now holding the lease.
        holder: usize,
    },
}

/// Where one durable replica of a [`ShardGroup`] lives.
pub struct ReplicaHome {
    /// The filesystem the replica persists on.
    pub vfs: Arc<dyn Vfs>,
    /// Its store directory.
    pub dir: PathBuf,
    /// Its store configuration.
    pub store_config: StoreConfig,
}

/// A shard's replication group under lease-based failover: one leader,
/// N durable replicas tailing it, and a tick-driven controller that
/// probes the leader and promotes the most-caught-up live replica once
/// the lease expires.
///
/// The caller drives [`ShardGroup::tick`]; the controller probes every
/// `probe_every` ticks and a lease lasts `lease_ticks`. Nodes are
/// indexed 0 (the founding leader) through N (the replicas, in
/// construction order); [`ShardGroup::kill`] and [`ShardGroup::revive`]
/// toggle injected outages per node.
pub struct ShardGroup {
    leader: Arc<Mutex<Leader>>,
    fence: EpochFence,
    epoch: u64,
    holder: usize,
    followers: Vec<Follower<Link>>,
    /// Node index of each entry in `followers` (parallel vector).
    follower_nodes: Vec<usize>,
    down: Vec<Arc<AtomicBool>>,
    probe: Link,
    config: ElasticConfig,
    tick: u64,
    lease_expires: u64,
    grants: Vec<LeaseGrant>,
    deposed: Vec<Arc<Mutex<Leader>>>,
    stats: ElasticStats,
}

fn lock_leader(leader: &Arc<Mutex<Leader>>) -> MutexGuard<'_, Leader> {
    match leader.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ShardGroup {
    /// Builds a group around `ingest` (appointed leader at `epoch`)
    /// with one durable replica per entry of `homes`, each tailing the
    /// leader through an outage-injectable [`Link`]. `resolver` is the
    /// grid resolver replicas bucket with (pass the cluster grid's so
    /// promoted replicas extract identical cells).
    pub fn new(
        ingest: DurableIngest,
        epoch: u64,
        homes: Vec<ReplicaHome>,
        resolver: Option<GeoResolver>,
        follower_config: FollowerConfig,
        config: ElasticConfig,
    ) -> Result<ShardGroup> {
        let fence: EpochFence = Arc::new(AtomicU64::new(epoch));
        let leader = Arc::new(Mutex::new(Leader::with_epoch(
            ingest,
            epoch,
            Some(fence.clone()),
        )));
        let down: Vec<Arc<AtomicBool>> = (0..homes.len() + 1)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let mut followers = Vec::with_capacity(homes.len());
        for home in homes {
            let link = Link::new(leader.clone(), down[0].clone());
            followers.push(Follower::durable(
                link,
                home.vfs,
                &home.dir,
                home.store_config,
                resolver.clone(),
                follower_config,
            )?);
        }
        let follower_nodes = (1..=followers.len()).collect();
        let probe = Link::new(leader.clone(), down[0].clone());
        Ok(ShardGroup {
            leader,
            fence,
            epoch,
            holder: 0,
            followers,
            follower_nodes,
            down,
            probe,
            config,
            tick: 0,
            lease_expires: config.lease_ticks,
            grants: vec![LeaseGrant {
                epoch,
                holder: 0,
                tick: 0,
            }],
            deposed: Vec::new(),
            stats: ElasticStats::default(),
        })
    }

    /// Injects an outage on `node` (0 = the founding leader's host,
    /// 1..=N the replicas).
    pub fn kill(&mut self, node: usize) {
        self.down[node].store(true, Ordering::SeqCst);
    }

    /// Lifts the injected outage on `node`. A revived deposed leader
    /// stays fenced: the epoch moved past it, permanently.
    pub fn revive(&mut self, node: usize) {
        self.down[node].store(false, Ordering::SeqCst);
    }

    /// Advances logical time one tick: replicas poll, and on probe
    /// ticks the leader's health decides lease renewal or (once the
    /// lease expired) failover.
    pub fn tick(&mut self) -> Result<TickOutcome> {
        self.tick += 1;
        for follower in &mut self.followers {
            // Poll outcomes (including transport retries against a
            // dead leader) are bookkeeping, not errors.
            follower.poll()?;
        }
        if !self.tick.is_multiple_of(self.config.probe_every.max(1)) {
            return Ok(TickOutcome::Idle);
        }
        self.stats.probes += 1;
        let request = Request::Frames {
            from_seq: 0,
            max: 0,
            epoch: self.epoch,
        }
        .encode();
        if self.probe.exchange(&request).is_ok() {
            self.stats.lease_renewals += 1;
            self.lease_expires = self.tick + self.config.lease_ticks;
            return Ok(TickOutcome::Renewed);
        }
        self.stats.probe_failures += 1;
        if self.tick < self.lease_expires {
            return Ok(TickOutcome::ProbeFailed {
                expires_at: self.lease_expires,
            });
        }
        self.failover()
    }

    /// Promotes the most-caught-up live replica under a bumped epoch.
    /// The fence moves *first*, so from that store on the old leader can
    /// neither apply writes nor serve replication even if it is still
    /// running — at most one leader per epoch, by construction.
    fn failover(&mut self) -> Result<TickOutcome> {
        let mut best: Option<(usize, u64)> = None;
        for (i, follower) in self.followers.iter().enumerate() {
            // A down replica, or one that never bootstrapped, has no
            // store to promote.
            if self.down[self.follower_nodes[i]].load(Ordering::SeqCst)
                || follower.pipeline().is_none()
            {
                continue;
            }
            let cursor = follower.cursor();
            if best.is_none_or(|(_, c)| cursor > c) {
                best = Some((i, cursor));
            }
        }
        let Some((index, _)) = best else {
            return Err(StoreError::BadConfig(format!(
                "shard leader unreachable past its lease (epoch {}) and no live \
                 replica is available to promote",
                self.epoch
            )));
        };
        let new_epoch = self.epoch + 1;
        self.fence.store(new_epoch, Ordering::SeqCst);
        let node = self.follower_nodes.remove(index);
        let follower = self.followers.remove(index);
        let promoted = follower.promote(new_epoch, Some(self.fence.clone()))?;
        let old = std::mem::replace(&mut self.leader, Arc::new(Mutex::new(promoted)));
        self.deposed.push(old);
        self.epoch = new_epoch;
        self.holder = node;
        for follower in &mut self.followers {
            follower.retarget(Link::new(self.leader.clone(), self.down[node].clone()));
        }
        self.probe = Link::new(self.leader.clone(), self.down[node].clone());
        self.lease_expires = self.tick + self.config.lease_ticks;
        self.grants.push(LeaseGrant {
            epoch: new_epoch,
            holder: node,
            tick: self.tick,
        });
        self.stats.failovers += 1;
        Ok(TickOutcome::FailedOver {
            epoch: new_epoch,
            holder: node,
        })
    }

    /// Ingests through the current leader.
    pub fn ingest(&mut self, batch: &[Record]) -> Result<IngestReport> {
        lock_leader(&self.leader).ingest(batch)
    }

    /// The current leader handle (shared with links and executors).
    pub fn leader(&self) -> Arc<Mutex<Leader>> {
        self.leader.clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The node index currently holding the lease.
    pub fn holder(&self) -> usize {
        self.holder
    }

    /// Every leadership grant so far, in order.
    pub fn grants(&self) -> &[LeaseGrant] {
        &self.grants
    }

    /// Handles of every deposed leader, oldest first (kept so tests can
    /// prove they stay fenced).
    pub fn deposed(&self) -> &[Arc<Mutex<Leader>>] {
        &self.deposed
    }

    /// Elasticity counters.
    pub fn stats(&self) -> ElasticStats {
        self.stats
    }
}

/// A [`ShardExecutor`] pinned to per-shard leader handles. Reads go
/// through [`Leader::pipeline_fenced`], so a gather that races a
/// failover fails with [`StoreError::StaleEpoch`] instead of serving a
/// deposed leader's cells; [`PinnedExecutor::repin`] re-reads current
/// leadership.
pub struct PinnedExecutor {
    handles: RefCell<Vec<Arc<Mutex<Leader>>>>,
    grid: Option<GridSpec>,
}

impl PinnedExecutor {
    /// Pins the given leader handles (one per shard, shard order).
    pub fn new(handles: Vec<Arc<Mutex<Leader>>>, grid: Option<GridSpec>) -> PinnedExecutor {
        PinnedExecutor {
            handles: RefCell::new(handles),
            grid,
        }
    }

    /// Pins each group's *current* leader.
    pub fn pin(groups: &[ShardGroup], grid: Option<GridSpec>) -> PinnedExecutor {
        PinnedExecutor::new(groups.iter().map(ShardGroup::leader).collect(), grid)
    }

    /// Re-reads current leadership from `groups` (same shard order) —
    /// what a coordinator does after a leadership error.
    pub fn repin(&self, groups: &[ShardGroup]) {
        *self.handles.borrow_mut() = groups.iter().map(ShardGroup::leader).collect();
    }
}

impl ShardExecutor for PinnedExecutor {
    fn shards(&self) -> usize {
        self.handles.borrow().len()
    }

    fn fetch(&self, shard: usize, region: Option<&BBox>) -> Result<Vec<(GroupKey, CellPartial)>> {
        let handles = self.handles.borrow();
        let mut leader = lock_leader(&handles[shard]);
        fetch_partials(leader.pipeline_fenced()?, self.grid, region)
    }
}

/// Scatter reads off a per-shard replica set instead of the primaries:
/// follower `i` must replicate shard `i`. A replica past its staleness
/// bound still answers; the executor counts those fetches, so the
/// degradation is reported, never silent.
pub struct FollowerExecutor<'a, T> {
    followers: &'a [Follower<T>],
    grid: Option<GridSpec>,
    stale_fetches: Cell<u64>,
    max_lag_seqs: Cell<Option<u64>>,
}

impl<'a, T> FollowerExecutor<'a, T> {
    /// Reads from `followers`, filtering regions with `grid` (pass the
    /// cluster spec's grid).
    pub fn new(followers: &'a [Follower<T>], grid: Option<GridSpec>) -> FollowerExecutor<'a, T> {
        FollowerExecutor {
            followers,
            grid,
            stale_fetches: Cell::new(0),
            max_lag_seqs: Cell::new(None),
        }
    }

    /// Fetches answered by a replica past its staleness bound.
    pub fn stale_fetches(&self) -> u64 {
        self.stale_fetches.get()
    }

    /// The largest sequence lag a fetched replica knew of (`None` until
    /// one has synced far enough to know its lag).
    pub fn max_lag_seqs(&self) -> Option<u64> {
        self.max_lag_seqs.get()
    }

    /// One line for an explain: `stale: N fetches (max lag L seqs)`.
    pub fn staleness(&self) -> String {
        let lag = self
            .max_lag_seqs()
            .map_or(String::new(), |l| format!(" (max lag {l} seqs)"));
        format!("stale: {} fetches{lag}", self.stale_fetches())
    }
}

impl<T: Transport> ShardExecutor for FollowerExecutor<'_, T> {
    fn shards(&self) -> usize {
        self.followers.len()
    }

    fn fetch(&self, shard: usize, region: Option<&BBox>) -> Result<Vec<(GroupKey, CellPartial)>> {
        let follower = &self.followers[shard];
        let pipeline = follower.pipeline().ok_or_else(|| {
            StoreError::BadConfig(format!(
                "replica for shard {shard} has not seeded yet; sync it before serving reads"
            ))
        })?;
        if follower.stale() {
            self.stale_fetches.set(self.stale_fetches.get() + 1);
        }
        if let Some(seqs) = follower.lag().seqs {
            let max = self.max_lag_seqs.get().map_or(seqs, |m| m.max(seqs));
            self.max_lag_seqs.set(Some(max));
        }
        fetch_partials(pipeline, self.grid, region)
    }
}

/// Reopens every shard store of `cluster` as a replication [`Leader`],
/// in shard order. The cluster is consumed (its stores recover from
/// disk), so keep ingesting through the returned leaders.
pub fn into_leaders(
    cluster: ShardedIngest,
    store_config: StoreConfig,
) -> Result<Vec<Arc<Mutex<Leader>>>> {
    let (vfs, root, spec) = (cluster.vfs(), cluster.root().to_path_buf(), cluster.spec());
    let shards = cluster.shard_count();
    drop(cluster);
    (0..shards)
        .map(|i| {
            let resolver = spec.grid().map(|g| g.resolver());
            let (ingest, _) =
                DurableIngest::recover(vfs.clone(), &shard_dir(&root, i), store_config, resolver)?;
            Ok(Arc::new(Mutex::new(Leader::new(ingest))))
        })
        .collect()
}

/// One in-process replica per shard leader: each follower tails its
/// leader over a [`DirectTransport`] and resolves geometry with the
/// cluster grid.
pub fn replica_set(
    leaders: &[Arc<Mutex<Leader>>],
    spec: &PartitionerSpec,
    config: FollowerConfig,
) -> Vec<Follower<DirectTransport>> {
    leaders
        .iter()
        .map(|leader| {
            let resolver = spec.grid().map(|g| g.resolver());
            Follower::memory(DirectTransport::new(leader.clone()), resolver, config)
        })
        .collect()
}

/// Whether `e` means "the leadership you were pinned to is gone, re-read
/// and retry" — [`StoreError::NotLeader`] or [`StoreError::StaleEpoch`],
/// possibly wrapped in a per-shard [`StoreError::Shard`] attribution.
fn is_leadership_error(e: &StoreError) -> bool {
    match e {
        StoreError::NotLeader { .. } | StoreError::StaleEpoch { .. } => true,
        StoreError::Shard { source, .. } => is_leadership_error(source),
        _ => false,
    }
}

/// Evaluates with a leadership retry loop: when the scatter fails on a
/// leadership error, `refresh` re-reads leadership into the executor
/// (e.g. [`PinnedExecutor::repin`]) and the query is re-evaluated, up to
/// `max_retries` times. Returns the result and the retries it took; any
/// other error, and a leadership error past the budget, surfaces
/// unchanged.
pub fn eval_rerouted<E: ShardExecutor>(
    coordinator: &mut Coordinator<E>,
    q: &ShardQuery,
    max_retries: u32,
    mut refresh: impl FnMut(&E),
) -> Result<(ShardResult, u32)> {
    let mut retries = 0;
    loop {
        match coordinator.eval(q) {
            Err(e) if retries < max_retries && is_leadership_error(&e) => {
                retries += 1;
                refresh(coordinator.executor());
            }
            other => return other.map(|result| (result, retries)),
        }
    }
}

fn journal_path(root: &Path) -> PathBuf {
    root.join(REBALANCE_JOURNAL)
}

fn next_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:03}.next"))
}

fn old_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:03}.old"))
}

/// Atomically writes `journal` under `root` — a rebalance's first stage.
pub fn write_journal(vfs: &dyn Vfs, root: &Path, journal: &RebalanceJournal) -> Result<()> {
    let mut e = Enc::file(FileKind::RebalanceJournal);
    journal.encode_to(&mut e);
    vfs.write_atomic(&journal_path(root), &e.into_framed(), true)
}

fn read_journal(vfs: &dyn Vfs, root: &Path) -> Result<RebalanceJournal> {
    let bytes = vfs.read(&journal_path(root))?;
    let body = check_header(&bytes, FileKind::RebalanceJournal, REBALANCE_JOURNAL)?;
    let payload = read_single_frame(body, REBALANCE_JOURNAL)?;
    RebalanceJournal::decode(payload, REBALANCE_JOURNAL)
}

/// What [`recover_rebalance`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceRecovery {
    /// No rebalance was in flight.
    Clean,
    /// A journaled rebalance had already flipped the manifest; the
    /// directory swap was completed (roll forward).
    RolledForward,
    /// A journaled rebalance died before the manifest flip; its staged
    /// stores were discarded (roll back).
    RolledBack,
}

/// Recovers from a crash mid-rebalance. The `SHARDS` manifest is the
/// commit point: a journal whose target epoch the manifest has reached
/// is rolled **forward** (finish the directory swap and GC), anything
/// earlier is rolled **back** (discard staged `.next` stores). Either
/// way the journal is gone afterwards, so the cluster opens onto exactly
/// one consistent assignment. Idempotent — crashing *inside* recovery
/// and recovering again lands in the same state.
pub fn recover_rebalance(vfs: &dyn Vfs, root: &Path) -> Result<RebalanceRecovery> {
    let path = journal_path(root);
    if !vfs.exists(&path) {
        return Ok(RebalanceRecovery::Clean);
    }
    let journal = read_journal(vfs, root)?;
    let recovery = if read_manifest(vfs, root)?.epoch >= journal.target_epoch {
        complete_swap(vfs, root, &journal)?;
        RebalanceRecovery::RolledForward
    } else {
        for i in 0..journal.to.shards() {
            vfs.remove_dir_all(&next_dir(root, i))?;
        }
        RebalanceRecovery::RolledBack
    };
    vfs.remove_file(&path)?;
    Ok(recovery)
}

/// Finishes a committed rebalance's directory swap: every staged
/// `shard-NNN.next` replaces its live directory (the displaced store
/// parks at `.old` first, so a crash between the two renames leaves a
/// resumable state), then `.old` stores and shards beyond the new
/// count are GC'd. Idempotent: rerunning after any prefix completes
/// the rest.
fn complete_swap(vfs: &dyn Vfs, root: &Path, journal: &RebalanceJournal) -> Result<()> {
    let to = journal.to.shards();
    for i in 0..to {
        let next = next_dir(root, i);
        if vfs.exists(&next) {
            let live = shard_dir(root, i);
            if vfs.exists(&live) {
                vfs.rename(&live, &old_dir(root, i))?;
            }
            vfs.rename(&next, &live)?;
        }
    }
    for i in 0..to {
        vfs.remove_dir_all(&old_dir(root, i))?;
    }
    for i in to..journal.from.shards() {
        vfs.remove_dir_all(&shard_dir(root, i))?;
    }
    Ok(())
}

/// What a committed rebalance did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Shard count before.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// The epoch the new assignment committed at.
    pub target_epoch: u64,
    /// Grid cells whose owning shard changed.
    pub cells_reassigned: u64,
    /// Records that physically moved to a different shard index.
    pub records_moved: u64,
    /// Total records handed off (moved or not).
    pub records_total: u64,
    /// Segments built across the staged destination stores.
    pub segments_built: u64,
}

/// One destination shard's share of the source cluster, ready for
/// [`DurableIngest::install_snapshot`].
struct DestState {
    segments: Vec<Segment>,
    tail: TailState,
}

/// Splits every source shard's contents by the new assignment.
///
/// Hour-aligned partitions make this pure bookkeeping: each record
/// re-derives its partition from its timestamp, each `(hour, geo)`
/// partial cell from its hour granule, and because every cell was
/// owned by exactly one source shard the per-destination pieces are
/// concatenated and key-sorted — never merged. Tail buffers below the
/// cluster-wide seal frontier `F = max(sealed_before)` are *promoted*
/// (canonicalized and accumulated exactly as sealing would have done),
/// because a destination cannot keep an open buffer for a partition it
/// must consider sealed; buffers at or above `F` stay open tail
/// buffers, concatenated across sources in shard order.
fn split_cluster(
    cluster: &ShardedIngest,
    new_part: &SpatialPartitioner,
    grid: GridSpec,
    stream_config: StreamConfig,
) -> Result<(Vec<DestState>, u64, u64)> {
    let n = new_part.shards();
    let seg_seconds = stream_config.segment_seconds;
    let td = TimeDimension::new();
    type Pieces = BTreeMap<i64, (Vec<Record>, Vec<(GroupKey, CellPartial)>)>;
    let mut sealed: Vec<Pieces> = (0..n).map(|_| BTreeMap::new()).collect();
    let mut buffers: Vec<BTreeMap<i64, Vec<Record>>> = (0..n).map(|_| BTreeMap::new()).collect();
    let mut dead: Vec<Vec<Record>> = (0..n).map(|_| Vec::new()).collect();
    let mut records_total = 0u64;
    let mut records_moved = 0u64;

    let tails: Vec<TailState> = cluster
        .shards()
        .iter()
        .map(|s| s.pipeline().tail_state())
        .collect();
    let frontier = tails
        .iter()
        .map(|t| t.sealed_before)
        .max()
        .unwrap_or(i64::MIN);
    let watermark = tails.iter().filter_map(|t| t.max_event_time).max();

    for (source, shard) in cluster.shards().iter().enumerate() {
        for segment in shard.pipeline().segments() {
            for record in segment.records() {
                let dest = new_part.route(record);
                let partition = record.t.0.div_euclid(seg_seconds);
                sealed[dest].entry(partition).or_default().0.push(*record);
                records_total += 1;
                if dest != source {
                    records_moved += 1;
                }
            }
            for (key, cell) in segment.partials() {
                let geo = key.1.ok_or_else(|| StoreError::Corrupt {
                    file: REBALANCE_JOURNAL.to_string(),
                    detail: format!(
                        "shard {source} holds a sealed cell for hour {} without a geo id; \
                         a spatial cluster cannot reassign it",
                        key.0
                    ),
                })?;
                let dest = new_part.shard_of_cell(geo);
                // Hour alignment: the granule's start second re-derives
                // the partition even for compacted (multi-hour) segments.
                let partition = (key.0 * 3600).div_euclid(seg_seconds);
                sealed[dest]
                    .entry(partition)
                    .or_default()
                    .1
                    .push((*key, *cell));
            }
        }
        let tail = &tails[source];
        for (partition, buffer) in &tail.buffers {
            if *partition < frontier {
                // Promote: some source already sealed this partition, so
                // every destination must treat it as sealed. Canonicalize
                // exactly as sealing would have (stable (oid, t) sort,
                // duplicates keep the last arrival), then accumulate the
                // cells in canonical order.
                for (dest, dest_sealed) in sealed.iter_mut().enumerate() {
                    let mut mine: Vec<Record> = buffer
                        .iter()
                        .filter(|r| new_part.route(r) == dest)
                        .copied()
                        .collect();
                    if mine.is_empty() {
                        continue;
                    }
                    mine.sort_by_key(|r| (r.oid, r.t));
                    mine.dedup_by(|b, a| {
                        // `a` precedes `b` in the vec; keep the later
                        // arrival (`b`) on key collision.
                        if a.oid == b.oid && a.t == b.t {
                            *a = *b;
                            true
                        } else {
                            false
                        }
                    });
                    records_total += mine.len() as u64;
                    if dest != source {
                        records_moved += mine.len() as u64;
                    }
                    let mut cells: BTreeMap<GroupKey, CellPartial> = BTreeMap::new();
                    for record in &mine {
                        let key = (td.hour(record.t), Some(grid.cell_of(record.pos())));
                        cells.entry(key).or_default().push(record);
                    }
                    let entry = dest_sealed.entry(*partition).or_default();
                    entry.0.extend(mine);
                    entry.1.extend(cells);
                }
            } else {
                for record in buffer {
                    let dest = new_part.route(record);
                    records_total += 1;
                    if dest != source {
                        records_moved += 1;
                    }
                    buffers[dest].entry(*partition).or_default().push(*record);
                }
            }
        }
        for record in &tail.dead_letters {
            dead[new_part.route(record)].push(*record);
        }
    }

    let mut dests = Vec::with_capacity(n);
    for dest in 0..n {
        let mut segments = Vec::new();
        for (partition, (mut records, mut partials)) in std::mem::take(&mut sealed[dest]) {
            records.sort_by_key(|r| (r.oid, r.t));
            partials.sort_by_key(|(key, _)| *key);
            // `from_parts` re-validates strict ordering; a duplicate
            // (oid, t) or cell key across sources — impossible unless a
            // source store is corrupt — fails here, before anything is
            // committed.
            segments.push(
                Segment::from_parts(partition, records, partials).map_err(StoreError::Stream)?,
            );
        }
        let sealed_records: u64 = segments.iter().map(|s| s.records().len() as u64).sum();
        let buffered: u64 = buffers[dest].values().map(|b| b.len() as u64).sum();
        let tail = TailState {
            max_event_time: watermark,
            sealed_before: frontier,
            records_ingested: sealed_records + buffered,
            segments_sealed: segments.len() as u64,
            dead_letters: std::mem::take(&mut dead[dest]),
            buffers: std::mem::take(&mut buffers[dest]).into_iter().collect(),
        };
        dests.push(DestState { segments, tail });
    }
    Ok((dests, records_total, records_moved))
}

/// The union of every shard's extracted cells plus its record count —
/// the oracle the verify stage compares staged stores against.
fn cluster_fingerprint(shards: &[DurableIngest]) -> (Vec<(GroupKey, CellPartial)>, u64) {
    let mut cells: Vec<(GroupKey, CellPartial)> = Vec::new();
    let mut rows = 0u64;
    for shard in shards {
        cells.extend(shard.extract_partials());
        let pipeline = shard.pipeline();
        rows += pipeline
            .segments()
            .iter()
            .map(|s| s.records().len() as u64)
            .sum::<u64>();
        rows += pipeline.tail_len() as u64;
    }
    cells.sort_by_key(|(key, _)| *key);
    (cells, rows)
}

/// Rebalances a spatial cluster to `new_shards` shards by staged
/// cell-range handoff, consuming the cluster and returning the
/// reopened one under the new assignment.
///
/// Stages (`DESIGN.md` §5.6): journal → build `shard-NNN.next` stores →
/// verify (reopen every staged store through the CRC framing and
/// require its union to equal the sources' exactly) → commit by
/// atomically publishing the epoch-bumped `SHARDS` manifest → swap
/// directories and GC → reopen. After a crash anywhere,
/// [`recover_rebalance`] rolls back (before the manifest flip) or
/// forward (after it); until it runs, [`ShardedIngest::open`] refuses
/// the root.
pub fn rebalance(
    cluster: ShardedIngest,
    new_shards: u32,
    stream_config: StreamConfig,
    store_config: StoreConfig,
) -> Result<(ShardedIngest, RebalanceReport)> {
    let PartitionerSpec::Spatial {
        shards: from_shards,
        grid,
    } = cluster.spec()
    else {
        return Err(StoreError::BadConfig(
            "rebalancing requires a spatial partitioner: a hash cluster has no \
             cell ranges to hand off"
                .to_string(),
        ));
    };
    if new_shards == from_shards {
        return Err(StoreError::BadConfig(format!(
            "cluster already has {new_shards} shards; nothing to rebalance"
        )));
    }
    let new_spec = PartitionerSpec::Spatial {
        shards: new_shards,
        grid,
    };
    // Validates the target (>= 1 shard, <= grid cells) before anything
    // is staged.
    let new_part = SpatialPartitioner::new(new_shards as usize, grid)?;
    let old_part = SpatialPartitioner::new(from_shards as usize, grid)?;
    let target_epoch = cluster.epoch() + 1;
    let vfs = cluster.vfs();
    let root = cluster.root().to_path_buf();

    // Stage 1: journal the intent. From here a crash is recoverable;
    // before it, nothing exists to recover.
    let journal = RebalanceJournal {
        target_epoch,
        from: cluster.spec(),
        to: new_spec,
    };
    write_journal(vfs.as_ref(), &root, &journal)?;

    // Stage 2: build the staged stores beside the live ones.
    let (dests, records_total, records_moved) =
        split_cluster(&cluster, &new_part, grid, stream_config)?;
    let mut segments_built = 0u64;
    for (i, dest) in dests.into_iter().enumerate() {
        segments_built += dest.segments.len() as u64;
        DurableIngest::install_snapshot(
            vfs.clone(),
            &next_dir(&root, i),
            stream_config,
            store_config,
            Some(grid.resolver()),
            dest.segments,
            dest.tail,
            0,
        )?;
    }

    // Stage 3: verify. Reopen every staged store (re-reading every byte
    // through the CRC framing) and require the staged union — cells and
    // row counts — to equal the sources' exactly.
    let mut staged_shards = Vec::with_capacity(new_part.shards());
    for i in 0..new_part.shards() {
        let (staged, _) = DurableIngest::open(
            vfs.clone(),
            &next_dir(&root, i),
            stream_config,
            store_config,
            Some(grid.resolver()),
        )?;
        staged_shards.push(staged);
    }
    let (staged_cells, staged_rows) = cluster_fingerprint(&staged_shards);
    drop(staged_shards);
    let (source_cells, source_rows) = cluster_fingerprint(cluster.shards());
    if staged_cells != source_cells || staged_rows != source_rows {
        // Abort: the manifest is untouched, so recovery rolls the staged
        // stores back.
        recover_rebalance(vfs.as_ref(), &root)?;
        return Err(StoreError::Corrupt {
            file: REBALANCE_JOURNAL.to_string(),
            detail: format!(
                "staged handoff failed verification: {} cells / {} rows staged vs \
                 {} cells / {} rows at the sources; rolled back",
                staged_cells.len(),
                staged_rows,
                source_cells.len(),
                source_rows
            ),
        });
    }

    let cells_reassigned = (0..grid.cells())
        .filter(|&id| old_part.shard_of_cell(id) != new_part.shard_of_cell(id))
        .count() as u64;

    // Stage 4: commit. Release the source stores, then atomically flip
    // the manifest to the epoch-bumped new assignment — the single
    // commit point recovery keys on.
    drop(cluster);
    let manifest = ShardManifest {
        epoch: target_epoch,
        spec: new_spec,
    };
    write_manifest(vfs.as_ref(), &root, &manifest)?;

    // Stage 5: swap and GC, then retire the journal.
    complete_swap(vfs.as_ref(), &root, &journal)?;
    vfs.remove_file(&journal_path(&root))?;

    // Stage 6: reopen under the new assignment.
    let (reopened, _) = ShardedIngest::open(vfs, &root, stream_config, store_config)?;
    Ok((
        reopened,
        RebalanceReport {
            from_shards: from_shards as usize,
            to_shards: new_shards as usize,
            target_epoch,
            cells_reassigned,
            records_moved,
            records_total,
            segments_built,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_obs::{CounterSet, MetricsRegistry};
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_shard::eval_single;
    use gisolap_store::{RealFs, ScratchDir};
    use gisolap_stream::{Measure, RollupQuery, StreamIngest};
    use gisolap_traj::ObjectId;

    fn grid() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 8.0, 8.0), 4, 4).unwrap()
    }

    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                oid: ObjectId(i % 7),
                t: TimeId((i as i64 * 97) % 7200),
                x: (i % 8) as f64,
                y: ((i * 3) % 8) as f64,
            })
            .collect()
    }

    fn vfs() -> Arc<dyn Vfs> {
        Arc::new(RealFs)
    }

    fn spatial(shards: u32) -> PartitionerSpec {
        PartitionerSpec::Spatial {
            shards,
            grid: grid(),
        }
    }

    fn stream() -> StreamConfig {
        StreamConfig::new(3600, 3600).unwrap()
    }

    fn cluster_cells(cluster: &ShardedIngest) -> Vec<(GroupKey, CellPartial)> {
        let (cells, _) = cluster_fingerprint(cluster.shards());
        cells
    }

    #[test]
    fn rebalance_grow_preserves_contents_and_bumps_epoch() {
        let scratch = ScratchDir::new("elastic-grow");
        let mut cluster = ShardedIngest::create(
            vfs(),
            scratch.path(),
            spatial(2),
            stream(),
            StoreConfig::default(),
        )
        .unwrap();
        cluster.ingest(&records(300)).unwrap();
        cluster.flush().unwrap();
        let before = cluster_cells(&cluster);
        assert!(!before.is_empty());

        let (rebalanced, report) = rebalance(cluster, 4, stream(), StoreConfig::default()).unwrap();
        assert_eq!(report.from_shards, 2);
        assert_eq!(report.to_shards, 4);
        assert_eq!(report.target_epoch, 1);
        assert_eq!(report.records_total, 300);
        assert!(report.cells_reassigned > 0);
        assert_eq!(rebalanced.shard_count(), 4);
        assert_eq!(rebalanced.epoch(), 1);
        assert_eq!(cluster_cells(&rebalanced), before, "handoff is lossless");

        // No staging leftovers: every shard dir is live, journal gone.
        let fs = vfs();
        assert!(!fs.exists(&journal_path(scratch.path())));
        for i in 0..4 {
            assert!(fs.exists(&shard_dir(scratch.path(), i)));
            assert!(!fs.exists(&next_dir(scratch.path(), i)));
            assert!(!fs.exists(&old_dir(scratch.path(), i)));
        }

        // Rollups keep working and shards stay disjoint under the new
        // assignment.
        let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
        let mut seen = std::collections::BTreeSet::new();
        for shard in rebalanced.shards() {
            shard.rollup(&q).unwrap();
            for (key, _) in shard.extract_partials() {
                assert!(seen.insert(key), "cell {key:?} in two shards");
            }
        }
    }

    #[test]
    fn rebalance_shrink_removes_surplus_shards() {
        let scratch = ScratchDir::new("elastic-shrink");
        let mut cluster = ShardedIngest::create(
            vfs(),
            scratch.path(),
            spatial(4),
            stream(),
            StoreConfig::default(),
        )
        .unwrap();
        cluster.ingest(&records(200)).unwrap();
        cluster.finish().unwrap();
        cluster.flush().unwrap();
        let before = cluster_cells(&cluster);

        let (rebalanced, report) = rebalance(cluster, 2, stream(), StoreConfig::default()).unwrap();
        assert_eq!(report.to_shards, 2);
        assert_eq!(rebalanced.shard_count(), 2);
        assert_eq!(cluster_cells(&rebalanced), before);
        let fs = vfs();
        assert!(!fs.exists(&shard_dir(scratch.path(), 2)));
        assert!(!fs.exists(&shard_dir(scratch.path(), 3)));

        // Reopen: the committed assignment persists.
        drop(rebalanced);
        let (reopened, _) =
            ShardedIngest::open(vfs(), scratch.path(), stream(), StoreConfig::default()).unwrap();
        assert_eq!(reopened.shard_count(), 2);
        assert_eq!(reopened.epoch(), 1);
        assert_eq!(cluster_cells(&reopened), before);
    }

    #[test]
    fn rebalance_with_open_tail_buffers_roundtrips() {
        let scratch = ScratchDir::new("elastic-tail");
        let mut cluster = ShardedIngest::create(
            vfs(),
            scratch.path(),
            spatial(2),
            stream(),
            StoreConfig::default(),
        )
        .unwrap();
        // No finish(): tail buffers stay open, some partitions sealed
        // by watermark advance only on shards that saw late hours.
        cluster.ingest(&records(257)).unwrap();
        let before = cluster_cells(&cluster);

        let (rebalanced, _) = rebalance(cluster, 3, stream(), StoreConfig::default()).unwrap();
        assert_eq!(cluster_cells(&rebalanced), before);

        // The rebalanced cluster keeps ingesting correctly.
        let mut rebalanced = rebalanced;
        rebalanced.ingest(&records(43)).unwrap();
        rebalanced.finish().unwrap();
    }

    #[test]
    fn rebalance_rejects_hash_and_noop_targets() {
        let scratch = ScratchDir::new("elastic-reject");
        let cluster = ShardedIngest::create(
            vfs(),
            scratch.path(),
            PartitionerSpec::Hash {
                shards: 2,
                grid: None,
            },
            stream(),
            StoreConfig::default(),
        )
        .unwrap();
        let err = rebalance(cluster, 4, stream(), StoreConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::BadConfig(_)));

        let scratch2 = ScratchDir::new("elastic-reject-noop");
        let cluster = ShardedIngest::create(
            vfs(),
            scratch2.path(),
            spatial(2),
            stream(),
            StoreConfig::default(),
        )
        .unwrap();
        let err = rebalance(cluster, 2, stream(), StoreConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::BadConfig(_)));
    }

    #[test]
    fn recovery_rolls_back_before_the_manifest_flip() {
        let scratch = ScratchDir::new("elastic-rollback");
        let mut cluster = ShardedIngest::create(
            vfs(),
            scratch.path(),
            spatial(2),
            stream(),
            StoreConfig::default(),
        )
        .unwrap();
        cluster.ingest(&records(100)).unwrap();
        cluster.flush().unwrap();
        let before = cluster_cells(&cluster);
        drop(cluster);

        // Simulate a crash after journal + partial staging, before the
        // manifest flip.
        let fs = vfs();
        let journal = RebalanceJournal {
            target_epoch: 1,
            from: spatial(2),
            to: spatial(3),
        };
        write_journal(fs.as_ref(), scratch.path(), &journal).unwrap();
        fs.create_dir_all(&next_dir(scratch.path(), 0)).unwrap();

        let recovery = recover_rebalance(fs.as_ref(), scratch.path()).unwrap();
        assert_eq!(recovery, RebalanceRecovery::RolledBack);
        let (reopened, _) =
            ShardedIngest::open(vfs(), scratch.path(), stream(), StoreConfig::default()).unwrap();
        assert_eq!(reopened.shard_count(), 2, "old assignment survives");
        assert_eq!(reopened.epoch(), 0);
        assert_eq!(cluster_cells(&reopened), before);
        assert!(!fs.exists(&journal_path(scratch.path())));
        assert!(!fs.exists(&next_dir(scratch.path(), 0)));
    }

    #[test]
    fn recovery_rolls_forward_after_the_manifest_flip() {
        let scratch = ScratchDir::new("elastic-rollforward");
        let mut cluster = ShardedIngest::create(
            vfs(),
            scratch.path(),
            spatial(2),
            stream(),
            StoreConfig::default(),
        )
        .unwrap();
        cluster.ingest(&records(150)).unwrap();
        cluster.flush().unwrap();
        let before = cluster_cells(&cluster);

        // Run a real rebalance up to its commit point by hand: stage,
        // flip the manifest, then "crash" before the swap.
        let fs = cluster.vfs();
        let root = scratch.path().to_path_buf();
        let new_part = SpatialPartitioner::new(3, grid()).unwrap();
        let journal = RebalanceJournal {
            target_epoch: 1,
            from: spatial(2),
            to: spatial(3),
        };
        write_journal(fs.as_ref(), &root, &journal).unwrap();
        let (dests, _, _) = split_cluster(&cluster, &new_part, grid(), stream()).unwrap();
        for (i, dest) in dests.into_iter().enumerate() {
            DurableIngest::install_snapshot(
                fs.clone(),
                &next_dir(&root, i),
                stream(),
                StoreConfig::default(),
                Some(grid().resolver()),
                dest.segments,
                dest.tail,
                0,
            )
            .unwrap();
        }
        drop(cluster);
        let manifest = ShardManifest {
            epoch: 1,
            spec: spatial(3),
        };
        write_manifest(fs.as_ref(), &root, &manifest).unwrap();
        // Crash here: journal present, manifest flipped, swap not done.

        let recovery = recover_rebalance(fs.as_ref(), &root).unwrap();
        assert_eq!(recovery, RebalanceRecovery::RolledForward);
        let (reopened, _) =
            ShardedIngest::open(vfs(), &root, stream(), StoreConfig::default()).unwrap();
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.epoch(), 1);
        assert_eq!(cluster_cells(&reopened), before);
        assert!(!fs.exists(&journal_path(&root)));
    }

    fn group(scratch: &ScratchDir, replicas: usize) -> ShardGroup {
        let fs = vfs();
        let ingest = DurableIngest::create(
            fs.clone(),
            &scratch.path().join("primary"),
            stream(),
            StoreConfig::default(),
            Some(grid().resolver()),
        )
        .unwrap();
        let homes = (0..replicas)
            .map(|i| ReplicaHome {
                vfs: fs.clone(),
                dir: scratch.path().join(format!("replica-{i}")),
                store_config: StoreConfig::default(),
            })
            .collect();
        ShardGroup::new(
            ingest,
            0,
            homes,
            Some(grid().resolver()),
            FollowerConfig {
                backoff_base_ms: 0,
                ..FollowerConfig::default()
            },
            ElasticConfig {
                lease_ticks: 4,
                probe_every: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn healthy_leader_keeps_renewing_its_lease() {
        let scratch = ScratchDir::new("elastic-renew");
        let mut group = group(&scratch, 1);
        group.ingest(&records(64)).unwrap();
        let mut renewed = 0;
        for _ in 0..10 {
            if group.tick().unwrap() == TickOutcome::Renewed {
                renewed += 1;
            }
        }
        assert_eq!(renewed, 5, "every probe tick renews");
        assert_eq!(group.epoch(), 0);
        assert_eq!(group.grants().len(), 1);
        assert_eq!(group.stats().failovers, 0);
        assert!(group.stats().lease_renewals >= 5);
    }

    #[test]
    fn failover_promotes_replica_and_fences_old_leader() {
        let scratch = ScratchDir::new("elastic-failover");
        let mut group = group(&scratch, 2);
        group.ingest(&records(128)).unwrap();
        // Let replicas catch up and the lease renew.
        for _ in 0..6 {
            group.tick().unwrap();
        }
        let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
        let expect = lock_leader(&group.leader()).rollup(&q).unwrap();

        group.kill(0);
        let mut outcome = None;
        for _ in 0..20 {
            if let TickOutcome::FailedOver { epoch, holder } = group.tick().unwrap() {
                outcome = Some((epoch, holder));
                break;
            }
        }
        let (epoch, holder) = outcome.expect("failover within 2x the lease window");
        assert_eq!(epoch, 1);
        assert!(holder >= 1);
        assert_eq!(group.epoch(), 1);
        assert_eq!(group.holder(), holder);

        // The promoted replica answers bit-identically.
        assert_eq!(lock_leader(&group.leader()).rollup(&q).unwrap(), expect);

        // The deposed leader is permanently fenced, even revived.
        group.revive(0);
        let deposed = group.deposed()[0].clone();
        let err = lock_leader(&deposed).ingest(&records(1)).unwrap_err();
        assert!(matches!(
            err,
            StoreError::StaleEpoch {
                held: 0,
                current: 1
            }
        ));

        // Writes keep flowing through the new leader; the survivor
        // replica retargets and converges.
        group.ingest(&records(32)).unwrap();
        for _ in 0..8 {
            group.tick().unwrap();
        }
        let expect = lock_leader(&group.leader()).rollup(&q).unwrap();
        let replica = &mut group.followers[0];
        replica.sync(32).unwrap();
        assert_eq!(replica.rollup(&q).unwrap(), expect);

        // Grant history: strictly increasing epochs.
        let grants = group.grants();
        assert_eq!(grants.len(), 2);
        assert!(grants.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn one_failed_probe_inside_the_lease_does_not_depose() {
        let scratch = ScratchDir::new("elastic-blip");
        let mut group = group(&scratch, 1);
        group.ingest(&records(32)).unwrap();
        group.tick().unwrap();
        group.tick().unwrap(); // probe tick: renews, lease now tick+4
        group.kill(0);
        group.tick().unwrap();
        let outcome = group.tick().unwrap(); // probe tick inside the lease
        assert!(matches!(outcome, TickOutcome::ProbeFailed { .. }));
        assert_eq!(group.epoch(), 0, "lease still valid: no failover");
        group.revive(0);
        for _ in 0..2 {
            group.tick().unwrap();
        }
        assert_eq!(group.epoch(), 0);
        assert_eq!(group.grants().len(), 1);
    }

    #[test]
    fn pinned_executor_goes_stale_on_failover_and_repins() {
        let scratch = ScratchDir::new("elastic-pinned");
        let mut group = group(&scratch, 1);
        group.ingest(&records(96)).unwrap();
        for _ in 0..6 {
            group.tick().unwrap();
        }

        let mut groups = vec![group];
        let executor = PinnedExecutor::pin(&groups, Some(grid()));
        let mut coordinator = Coordinator::new(executor, spatial(1)).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count));
        let healthy = coordinator.eval(&q).unwrap();

        // Depose the pinned leader.
        groups[0].kill(0);
        for _ in 0..20 {
            if matches!(groups[0].tick().unwrap(), TickOutcome::FailedOver { .. }) {
                break;
            }
        }
        let err = coordinator.eval(&q).unwrap_err();
        assert!(
            matches!(err, StoreError::StaleEpoch { .. }),
            "stale pin surfaces, never serves deposed cells: {err}"
        );

        // The retry path: re-read leadership and re-evaluate.
        let (rerouted, retries) =
            eval_rerouted(&mut coordinator, &q, 2, |executor| executor.repin(&groups)).unwrap();
        assert_eq!(rerouted.rows, healthy.rows);
        assert_eq!(retries, 1);
    }

    #[test]
    fn elastic_stats_cover_all_counters() {
        let stats = ElasticStats::default();
        let mut registry = MetricsRegistry::new();
        registry.fill(&stats, &[]);
        let text = registry.render_prometheus();
        for (field, _) in stats.fields() {
            assert!(
                text.contains(&format!("gisolap_elastic_{field}_total")),
                "metric for {field} missing"
            );
        }
    }

    fn cluster_with(
        scratch: &ScratchDir,
        spec: PartitionerSpec,
        batch: &[Record],
    ) -> ShardedIngest {
        let stream = StreamConfig::new(86_400, 3600).unwrap();
        let mut cluster =
            ShardedIngest::create(vfs(), scratch.path(), spec, stream, StoreConfig::default())
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
    fn replica_set_serves_each_shard() {
        let scratch = ScratchDir::new("shard-cluster-replicas");
        let spec = spatial(2);
        let mut cluster = cluster_with(&scratch, spec, &records(64));
        cluster.finish().unwrap();
        let leaders = into_leaders(cluster, StoreConfig::default()).unwrap();
        let mut replicas = replica_set(&leaders, &spec, FollowerConfig::default());
        for (leader, replica) in leaders.iter().zip(replicas.iter_mut()) {
            replica.sync(16).unwrap();
            assert!(replica.caught_up());
            let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count);
            let from_leader = leader.lock().unwrap().rollup(&q).unwrap();
            let from_replica = replica.rollup(&q).unwrap();
            assert_eq!(from_leader, from_replica);
        }
    }

    #[test]
    fn follower_executor_serves_replica_reads() {
        let scratch = ScratchDir::new("shard-coord-followers");
        let batch = records(200);
        let spec = spatial(2);
        let cluster = cluster_with(&scratch, spec, &batch);
        let single = single_with(&batch);
        let leaders = into_leaders(cluster, StoreConfig::default()).unwrap();
        let mut replicas = replica_set(&leaders, &spec, FollowerConfig::default());
        for r in replicas.iter_mut() {
            r.sync(16).unwrap();
            assert!(r.caught_up());
        }
        let exec = FollowerExecutor::new(&replicas, spec.grid());
        let mut coord = Coordinator::new(exec, spec).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .in_region(BBox::new(0.1, 0.1, 5.9, 5.9));
        let got = coord.eval(&q).unwrap();
        assert_eq!(got.rows, eval_single(&single, Some(grid()), &q).unwrap());
        assert_eq!(coord.stats().queries, 1);
        assert_eq!(coord.executor().stale_fetches(), 0, "caught-up replicas");
    }

    #[test]
    fn stale_followers_flag_the_explain_instead_of_panicking() {
        let scratch = ScratchDir::new("shard-coord-stale");
        let spec = spatial(2);
        let cluster = cluster_with(&scratch, spec, &records(120));
        let leaders = into_leaders(cluster, StoreConfig::default()).unwrap();
        // A zero-sequence staleness bound: any lag at all degrades. A
        // one-entry poll batch keeps the replicas behind after a single
        // contact, so the lag is *known* without being caught up.
        let config = FollowerConfig {
            max_lag_seqs: Some(0),
            max_batch: 1,
            ..FollowerConfig::default()
        };
        let mut replicas = replica_set(&leaders, &spec, config);
        for r in replicas.iter_mut() {
            r.sync(64).unwrap();
        }
        // The leaders move on; three new WAL entries per shard.
        for leader in &leaders {
            let mut leader = leader.lock().unwrap();
            for chunk in records(120).chunks(40) {
                leader.ingest(chunk).unwrap();
            }
        }
        for r in replicas.iter_mut() {
            // One contact applies one entry and learns the leader
            // frontier — two entries of visible lag remain.
            let _ = r.poll();
        }
        let stale = replicas.iter().filter(|r| r.stale()).count() as u64;
        assert!(stale > 0, "bound of 0 with fresh writes must show lag");

        let exec = FollowerExecutor::new(&replicas, spec.grid());
        let mut coord = Coordinator::new(exec, spec).unwrap();
        let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Count));
        coord.eval(&q).unwrap();
        let exec = coord.executor();
        assert_eq!(exec.stale_fetches(), stale);
        assert!(exec.max_lag_seqs().is_some());
        let line = exec.staleness();
        assert!(
            line.contains("stale:"),
            "the executor surfaces staleness: {line}"
        );
    }
}
