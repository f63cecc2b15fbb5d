//! The TCP front door: thread-per-connection serving of rollup queries
//! and replication fetches against per-tenant durable stores.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use gisolap_obs::{config as obs_config, counters};
use gisolap_repl::Leader;
use gisolap_shard::{
    fetch_partials, ClusterExecutor, Coordinator, GridSpec, ShardQuery, ShardedIngest,
    SHARDS_MANIFEST,
};
use gisolap_store::{DurableIngest, RealFs, StoreConfig};
use gisolap_stream::StreamConfig;
use gisolap_sub::StandingEvaluator;

use crate::wire::{self, ServeReply, ServeRequest};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Concurrent connections admitted (`GISOLAP_SERVE_MAX_CONNS`); a
    /// connection over the cap is answered one `Busy` and closed.
    pub max_conns: usize,
    /// Requests evaluated concurrently across all connections
    /// (`GISOLAP_SERVE_MAX_INFLIGHT`); one over the cap is answered
    /// `Busy` without being evaluated — bounded in-flight work is the
    /// backpressure contract.
    pub max_inflight: usize,
    /// Requests one tenant may have in flight concurrently
    /// (`GISOLAP_SERVE_TENANT_QUOTA`); `0` = unlimited. A tenant at its
    /// quota is answered `Busy` while other tenants proceed.
    pub tenant_quota: usize,
    /// Stream configuration for tenant stores *created* by this server
    /// (recovered stores keep their manifest's configuration).
    pub stream: StreamConfig,
    /// Store configuration for every tenant store it opens.
    pub store: StoreConfig,
}

impl ServeConfig {
    /// Defaults for `stream`/`store`, caps from the documented
    /// `GISOLAP_SERVE_*` environment flags.
    pub fn from_env(stream: StreamConfig, store: StoreConfig) -> ServeConfig {
        ServeConfig {
            max_conns: obs_config::SERVE_MAX_CONNS.parse_u64().unwrap_or(64) as usize,
            max_inflight: obs_config::SERVE_MAX_INFLIGHT.parse_u64().unwrap_or(8) as usize,
            tenant_quota: obs_config::SERVE_TENANT_QUOTA.parse_u64().unwrap_or(0) as usize,
            stream,
            store,
        }
    }

    /// Explicit caps (tests, benches).
    pub fn with_caps(
        stream: StreamConfig,
        store: StoreConfig,
        max_conns: usize,
        max_inflight: usize,
        tenant_quota: usize,
    ) -> ServeConfig {
        ServeConfig {
            max_conns,
            max_inflight,
            tenant_quota,
            stream,
            store,
        }
    }
}

counters! {
    /// A point-in-time copy of a server's counters.
    pub struct ServeStats["gisolap_serve_", "Query/replication server counter."]
        cells ServeCounters
    {
        /// Connections accepted and admitted.
        connections_accepted,
        /// Connections turned away at the connection cap.
        connections_rejected,
        /// Requests decoded (any reply).
        requests,
        /// Rollup evaluations served.
        rollup_requests,
        /// Replication exchanges served.
        repl_requests,
        /// Pings answered.
        ping_requests,
        /// Shard-leaf partial-cell extractions served.
        partials_requests,
        /// Server-side scatter-gather rollups served.
        sharded_requests,
        /// Standing-query registrations served.
        subscribe_requests,
        /// Standing-query catch-up reads served.
        notifications_requests,
        /// Requests answered `Busy` at the global in-flight cap.
        busy_rejections,
        /// Requests answered `Busy` at the per-tenant quota.
        quota_rejections,
        /// Requests rejected as structurally corrupt or inadmissible.
        bad_requests,
        /// Request bytes read off sockets.
        bytes_in,
        /// Reply bytes written to sockets.
        bytes_out,
    }
}

/// Admissible tenant names: non-empty, at most 64 bytes, drawn from
/// `[A-Za-z0-9_-]` — a name can never traverse outside the store root.
pub fn tenant_admissible(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// State shared between the accept loop and every handler thread.
struct Shared {
    root: PathBuf,
    config: ServeConfig,
    counters: ServeCounters,
    shutdown: AtomicBool,
    conns: AtomicUsize,
    inflight: AtomicUsize,
    tenants: Mutex<HashMap<String, Arc<Mutex<Leader>>>>,
    /// Sharded tenants: a tenant directory holding a `SHARDS` manifest
    /// opens as a whole cluster instead of a single store.
    clusters: Mutex<HashMap<String, Arc<Mutex<ShardedIngest>>>>,
    /// Per-tenant standing-query evaluators, created on first subscribe.
    /// Server-side evaluators are grid-less (tenant stores own their
    /// resolvers privately), so region subscriptions are rejected here
    /// with a clear error; regional standing queries run on an evaluator
    /// built with the grid, e.g. one synced off a follower's pipeline.
    subs: Mutex<HashMap<String, Arc<Mutex<StandingEvaluator>>>>,
    tenant_inflight: Mutex<HashMap<String, usize>>,
    /// One socket clone per live connection, keyed by connection id —
    /// [`Server::stop`] shuts these down so blocked reads return
    /// end-of-stream immediately instead of waiting out the peer.
    open_conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    fn new(root: &Path, config: ServeConfig) -> Shared {
        Shared {
            root: root.to_path_buf(),
            config,
            counters: ServeCounters::default(),
            shutdown: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
            clusters: Mutex::new(HashMap::new()),
            subs: Mutex::new(HashMap::new()),
            tenant_inflight: Mutex::new(HashMap::new()),
            open_conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        }
    }

    /// The cached leader for `tenant`, opening (create-or-recover) its
    /// store under `root/<tenant>` on first use.
    fn leader(&self, tenant: &str) -> Result<Arc<Mutex<Leader>>, String> {
        self.leader_with_grid(tenant, None)
    }

    /// Like [`Shared::leader`], but a store opened for the *first* time
    /// here gets `grid`'s resolver — how a shard leaf acquires the
    /// cluster geometry a coordinator ships with its `Partials`
    /// request. An already-open store keeps whatever resolver it has.
    fn leader_with_grid(
        &self,
        tenant: &str,
        grid: Option<GridSpec>,
    ) -> Result<Arc<Mutex<Leader>>, String> {
        if !tenant_admissible(tenant) {
            return Err(format!("inadmissible tenant name {tenant:?}"));
        }
        if self.is_cluster(tenant) {
            return Err(format!(
                "tenant {tenant} is a shard cluster; use sharded requests"
            ));
        }
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        if let Some(leader) = tenants.get(tenant) {
            return Ok(leader.clone());
        }
        let dir = self.root.join(tenant);
        let (durable, _report) = DurableIngest::open(
            Arc::new(RealFs),
            &dir,
            self.config.stream,
            self.config.store,
            grid.map(|g| g.resolver()),
        )
        .map_err(|e| format!("open store for tenant {tenant}: {e}"))?;
        let leader = Arc::new(Mutex::new(Leader::new(durable)));
        tenants.insert(tenant.to_string(), leader.clone());
        Ok(leader)
    }

    /// Whether `tenant`'s directory holds a shard-cluster manifest.
    fn is_cluster(&self, tenant: &str) -> bool {
        if self
            .clusters
            .lock()
            .expect("cluster map poisoned")
            .contains_key(tenant)
        {
            return true;
        }
        self.root.join(tenant).join(SHARDS_MANIFEST).exists()
    }

    /// The cached cluster for `tenant`, opening every shard store under
    /// `root/<tenant>` on first use. Unlike single-store tenants,
    /// clusters are never created lazily — the membership manifest must
    /// already exist (written by whoever laid the cluster out).
    fn cluster(&self, tenant: &str) -> Result<Arc<Mutex<ShardedIngest>>, String> {
        if !tenant_admissible(tenant) {
            return Err(format!("inadmissible tenant name {tenant:?}"));
        }
        let mut clusters = self.clusters.lock().expect("cluster map poisoned");
        if let Some(cluster) = clusters.get(tenant) {
            return Ok(cluster.clone());
        }
        let dir = self.root.join(tenant);
        if !dir.join(SHARDS_MANIFEST).exists() {
            return Err(format!("tenant {tenant} holds no shard cluster"));
        }
        let (cluster, _reports) = ShardedIngest::open(
            Arc::new(RealFs),
            &dir,
            self.config.stream,
            self.config.store,
        )
        .map_err(|e| format!("open shard cluster for tenant {tenant}: {e}"))?;
        let cluster = Arc::new(Mutex::new(cluster));
        clusters.insert(tenant.to_string(), cluster.clone());
        Ok(cluster)
    }

    /// The cached standing-query evaluator for `tenant`, created
    /// grid-less on first use. Callers must re-sync it from the
    /// tenant's pipeline *under the leader lock* before reading, so
    /// folds observe a quiescent seal frontier.
    fn sub_evaluator(&self, tenant: &str) -> Arc<Mutex<StandingEvaluator>> {
        self.subs
            .lock()
            .expect("sub map poisoned")
            .entry(tenant.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(StandingEvaluator::new(None))))
            .clone()
    }

    /// Claims one per-tenant in-flight slot, or says why not. Callers
    /// vet the name first ([`tenant_admissible`]), so the quota map only
    /// ever keys admissible tenants with work in flight.
    fn claim_tenant_slot(&self, tenant: &str) -> Result<(), String> {
        if self.config.tenant_quota == 0 {
            return Ok(());
        }
        let mut map = self.tenant_inflight.lock().expect("quota map poisoned");
        let slot = map.entry(tenant.to_string()).or_insert(0);
        if *slot >= self.config.tenant_quota {
            return Err(format!(
                "tenant {tenant} at its quota of {} in-flight requests",
                self.config.tenant_quota
            ));
        }
        *slot += 1;
        Ok(())
    }

    fn release_tenant_slot(&self, tenant: &str) {
        if self.config.tenant_quota == 0 {
            return;
        }
        let mut map = self.tenant_inflight.lock().expect("quota map poisoned");
        if let Some(slot) = map.get_mut(tenant) {
            *slot = slot.saturating_sub(1);
            // Idle tenants leave the map: it holds in-flight work only.
            if *slot == 0 {
                map.remove(tenant);
            }
        }
    }

    /// Evaluates one admitted request (quota and in-flight slots
    /// already claimed).
    fn evaluate(&self, req: &ServeRequest) -> ServeReply {
        match req {
            ServeRequest::Ping { .. } => {
                self.counters.ping_requests.inc();
                ServeReply::Pong
            }
            ServeRequest::Rollup { tenant, query } => {
                self.counters.rollup_requests.inc();
                match self.leader(tenant) {
                    Ok(leader) => {
                        let leader = leader.lock().expect("leader poisoned");
                        match leader.rollup(query) {
                            Ok(rows) => ServeReply::Rows(rows),
                            Err(e) => ServeReply::Err(format!("rollup failed: {e}")),
                        }
                    }
                    Err(detail) => {
                        self.counters.bad_requests.inc();
                        ServeReply::Err(detail)
                    }
                }
            }
            ServeRequest::Repl { tenant, request } => {
                self.counters.repl_requests.inc();
                match self.leader(tenant) {
                    Ok(leader) => {
                        let mut leader = leader.lock().expect("leader poisoned");
                        match leader.handle(request) {
                            Ok(reply) => ServeReply::Repl(reply),
                            Err(e) => ServeReply::Err(format!("repl exchange failed: {e}")),
                        }
                    }
                    Err(detail) => {
                        self.counters.bad_requests.inc();
                        ServeReply::Err(detail)
                    }
                }
            }
            ServeRequest::Partials {
                tenant,
                grid,
                region,
            } => {
                self.counters.partials_requests.inc();
                match self.leader_with_grid(tenant, *grid) {
                    Ok(leader) => {
                        let mut leader = leader.lock().expect("leader poisoned");
                        let cells = (leader.pipeline_fenced())
                            .and_then(|pipeline| fetch_partials(pipeline, *grid, region.as_ref()));
                        match cells {
                            Ok(cells) => ServeReply::Cells(cells),
                            Err(e) => ServeReply::Err(format!("partials extraction failed: {e}")),
                        }
                    }
                    Err(detail) => {
                        self.counters.bad_requests.inc();
                        ServeReply::Err(detail)
                    }
                }
            }
            ServeRequest::ShardedRollup {
                tenant,
                query,
                region,
            } => {
                self.counters.sharded_requests.inc();
                match self.cluster(tenant) {
                    Ok(cluster) => {
                        let cluster = cluster.lock().expect("cluster poisoned");
                        let mut shard_query = ShardQuery::new(*query);
                        shard_query.region = *region;
                        let result =
                            Coordinator::new(ClusterExecutor::new(&cluster), cluster.spec())
                                .and_then(|mut coord| coord.eval(&shard_query));
                        match result {
                            Ok(res) => ServeReply::ShardedRows {
                                rows: res.rows,
                                shards_pruned: res.explain.shards_pruned as u32,
                                shards_queried: res.explain.shards_queried as u32,
                            },
                            Err(e) => ServeReply::Err(format!("sharded rollup failed: {e}")),
                        }
                    }
                    Err(detail) => {
                        self.counters.bad_requests.inc();
                        ServeReply::Err(detail)
                    }
                }
            }
            ServeRequest::Subscribe { tenant, sub } => {
                self.counters.subscribe_requests.inc();
                match self.leader(tenant) {
                    Ok(leader) => {
                        let evaluator = self.sub_evaluator(tenant);
                        let leader = leader.lock().expect("leader poisoned");
                        let mut evaluator = evaluator.lock().expect("sub evaluator poisoned");
                        // Catch up *before* registering: notifications
                        // start at the first seal after this request,
                        // and each reports the batch answer (the
                        // window, or all history).
                        evaluator.sync_pipeline(leader.durable().pipeline());
                        match evaluator.register(sub.clone()) {
                            Ok(id) => ServeReply::Subscribed(id),
                            Err(e) => {
                                self.counters.bad_requests.inc();
                                ServeReply::Err(format!("subscribe failed: {e}"))
                            }
                        }
                    }
                    Err(detail) => {
                        self.counters.bad_requests.inc();
                        ServeReply::Err(detail)
                    }
                }
            }
            ServeRequest::Notifications { tenant, since } => {
                self.counters.notifications_requests.inc();
                match self.leader(tenant) {
                    Ok(leader) => {
                        let evaluator = self.sub_evaluator(tenant);
                        let leader = leader.lock().expect("leader poisoned");
                        let mut evaluator = evaluator.lock().expect("sub evaluator poisoned");
                        evaluator.sync_pipeline(leader.durable().pipeline());
                        let (items, next) = evaluator.notifications_since(*since);
                        ServeReply::Notifications { items, next }
                    }
                    Err(detail) => {
                        self.counters.bad_requests.inc();
                        ServeReply::Err(detail)
                    }
                }
            }
        }
    }
}

/// One connection's request loop. Returns on peer close, shutdown
/// (the server shuts the socket down, so the blocking read ends), or
/// an unrecoverable socket error.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = io::BufReader::new(read_half);
    let mut writer = io::BufWriter::new(stream);
    while !shared.shutdown.load(Ordering::Relaxed) {
        let payload = match wire::read_message(&mut reader) {
            Ok(Some(payload)) => payload,
            // Clean peer close, a shut-down socket, or garbage on the
            // wire: either way this connection is done.
            Ok(None) | Err(_) => break,
        };
        shared.counters.bytes_in.add(payload.len() as u64 + 8);
        let reply = handle_payload(shared, &payload);
        let framed = wire::encode_reply(&reply);
        shared.counters.bytes_out.add(framed.len() as u64);
        if wire::write_message(&mut writer, &framed).is_err() {
            break;
        }
    }
}

/// Decodes, vets, admits (in-flight + quota) and evaluates one request.
fn handle_payload(shared: &Shared, payload: &[u8]) -> ServeReply {
    shared.counters.requests.inc();
    let req = match wire::decode_request(payload) {
        Ok(req) => req,
        Err(e) => {
            shared.counters.bad_requests.inc();
            return ServeReply::Err(format!("bad request: {e}"));
        }
    };

    // Vet the tenant before it can key any server state: an arbitrary
    // client-chosen string must not reach the quota map or the disk.
    if !tenant_admissible(req.tenant()) {
        shared.counters.bad_requests.inc();
        return ServeReply::Err(format!("inadmissible tenant name {:?}", req.tenant()));
    }

    // Global in-flight cap: claim optimistically, back out over the cap.
    let inflight = shared.inflight.fetch_add(1, Ordering::AcqRel) + 1;
    if inflight > shared.config.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.counters.busy_rejections.inc();
        return ServeReply::Busy(format!(
            "server at its cap of {} in-flight requests",
            shared.config.max_inflight
        ));
    }
    let reply = match shared.claim_tenant_slot(req.tenant()) {
        Err(detail) => {
            shared.counters.quota_rejections.inc();
            ServeReply::Busy(detail)
        }
        Ok(()) => {
            let reply = shared.evaluate(&req);
            shared.release_tenant_slot(req.tenant());
            reply
        }
    };
    shared.inflight.fetch_sub(1, Ordering::AcqRel);
    reply
}

/// The network front door: accepts connections on a TCP listener and
/// serves the [`crate::wire`] protocol against per-tenant durable
/// stores homed under one root directory.
///
/// Dropping the server (or calling [`Server::stop`]) shuts it down:
/// the accept loop and every connection thread are joined, so no
/// handler outlives the value that owns the stores.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port; the real address
    /// is [`Server::addr`]) and starts accepting. Tenant stores live
    /// under `root/<tenant>`, opened lazily on first request.
    pub fn bind(addr: impl ToSocketAddrs, root: &Path, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(root, config));
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("gisolap-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the listener actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the server counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot()
    }

    /// The cached leader for `tenant`, opening its store on first use —
    /// the same handle requests are served from, so ingesting through
    /// it is immediately visible to clients and followers.
    pub fn leader(&self, tenant: &str) -> Result<Arc<Mutex<Leader>>, String> {
        self.shared.leader(tenant)
    }

    /// Like [`Server::leader`], but a store opened for the first time
    /// here resolves geometry with `grid` — how a shard-leaf tenant is
    /// seeded before remote coordinators scatter to it.
    pub fn leader_with_grid(
        &self,
        tenant: &str,
        grid: Option<GridSpec>,
    ) -> Result<Arc<Mutex<Leader>>, String> {
        self.shared.leader_with_grid(tenant, grid)
    }

    /// The cached shard cluster for `tenant` (a tenant directory laid
    /// out by [`ShardedIngest::create`]), opened on first use — the
    /// same handle sharded requests are served from, so ingesting
    /// through it is immediately visible to clients.
    pub fn cluster(&self, tenant: &str) -> Result<Arc<Mutex<ShardedIngest>>, String> {
        self.shared.cluster(tenant)
    }

    /// Stops accepting, shuts down every live connection socket (so
    /// blocked reads end immediately), waits for the accept loop and
    /// every connection thread to finish, and returns the final
    /// counters. Idempotent.
    pub fn stop(&mut self) -> ServeStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for (_, conn) in self
            .shared
            .open_conns
            .lock()
            .expect("conn map poisoned")
            .drain()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            // A throwaway connection unblocks accept() so the loop
            // observes the flag without waiting for a real client.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
        self.shared.counters.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        workers.retain(|w| !w.is_finished());
        let conns = shared.conns.fetch_add(1, Ordering::AcqRel) + 1;
        if conns > shared.config.max_conns {
            shared.conns.fetch_sub(1, Ordering::AcqRel);
            shared.counters.connections_rejected.inc();
            // One explicit Busy so the client can tell backpressure
            // from a network failure, then close.
            let framed = wire::encode_reply(&ServeReply::Busy(format!(
                "server at its cap of {} connections",
                shared.config.max_conns
            )));
            let mut stream = stream;
            let _ = wire::write_message(&mut stream, &framed);
            continue;
        }
        shared.counters.connections_accepted.inc();
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .open_conns
                .lock()
                .expect("conn map poisoned")
                .insert(conn_id, clone);
        }
        let conn_shared = shared.clone();
        let worker = std::thread::Builder::new()
            .name("gisolap-serve-conn".into())
            .spawn(move || {
                serve_connection(&conn_shared, stream);
                conn_shared
                    .open_conns
                    .lock()
                    .expect("conn map poisoned")
                    .remove(&conn_id);
                conn_shared.conns.fetch_sub(1, Ordering::AcqRel);
            })
            .expect("spawn connection thread");
        workers.push(worker);
    }
    for worker in workers {
        let _ = worker.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_obs::{CounterSet, MetricsRegistry};
    use gisolap_store::ScratchDir;

    #[test]
    fn tenant_names_are_vetted() {
        assert!(tenant_admissible("acme"));
        assert!(tenant_admissible("t-1_B"));
        assert!(!tenant_admissible(""));
        assert!(!tenant_admissible("../escape"));
        assert!(!tenant_admissible("a/b"));
        assert!(!tenant_admissible("dot.dot"));
        assert!(!tenant_admissible(&"x".repeat(65)));
    }

    fn shared(root: &ScratchDir, tenant_quota: usize) -> Shared {
        let config = ServeConfig::with_caps(
            StreamConfig::new(0, 3600).unwrap(),
            StoreConfig::default(),
            8,
            8,
            tenant_quota,
        );
        Shared::new(root.path(), config)
    }

    fn ping(tenant: String) -> Vec<u8> {
        let framed = wire::encode_request(&ServeRequest::Ping { tenant });
        wire::read_message(&mut framed.as_slice()).unwrap().unwrap()
    }

    #[test]
    fn junk_tenants_never_reach_the_quota_map() {
        let root = ScratchDir::new("serve-quota-junk");
        let shared = shared(&root, 1);
        let n = 50;
        for i in 0..n {
            let junk = format!("../no such tenant #{i}/{}", "x".repeat(i));
            match handle_payload(&shared, &ping(junk)) {
                ServeReply::Err(detail) => assert!(detail.contains("inadmissible"), "{detail}"),
                other => panic!("junk tenant answered {other:?}"),
            }
        }
        // Admissible tenants come and go without leaving an entry either.
        for i in 0..n {
            assert_eq!(
                handle_payload(&shared, &ping(format!("tenant-{i}"))),
                ServeReply::Pong
            );
        }
        assert!(shared.tenant_inflight.lock().unwrap().is_empty());
        let stats = shared.counters.snapshot();
        assert_eq!(stats.bad_requests, n as u64);
        assert_eq!(stats.ping_requests, n as u64);
        assert_eq!(stats.quota_rejections, 0);

        // The quota itself still bites: a tenant with its one slot held
        // is answered Busy, and the slot's release empties the map.
        shared.claim_tenant_slot("acme").unwrap();
        match handle_payload(&shared, &ping("acme".into())) {
            ServeReply::Busy(detail) => assert!(detail.contains("quota"), "{detail}"),
            other => panic!("tenant at quota answered {other:?}"),
        }
        assert_eq!(shared.counters.snapshot().quota_rejections, 1);
        shared.release_tenant_slot("acme");
        assert!(shared.tenant_inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn stats_fields_match_declaration_order() {
        let stats = ServeStats {
            connections_accepted: 1,
            bytes_out: 11,
            ..ServeStats::default()
        };
        let fields = stats.fields();
        assert_eq!(fields.len(), 15);
        assert_eq!(fields[0], ("connections_accepted", 1));
        assert_eq!(fields[14], ("bytes_out", 11));
    }

    #[test]
    fn stats_render_as_serve_metrics() {
        let mut registry = MetricsRegistry::new();
        registry.fill(
            &ServeStats {
                requests: 5,
                ..ServeStats::default()
            },
            &[],
        );
        let text = registry.render_prometheus();
        assert!(text.contains("gisolap_serve_requests_total 5\n"), "{text}");
        assert!(
            text.contains("gisolap_serve_busy_rejections_total 0\n"),
            "{text}"
        );
    }
}
