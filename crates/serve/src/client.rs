//! A blocking client for the serving protocol: one TCP connection,
//! synchronous request/reply.

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use gisolap_geom::BBox;
use gisolap_shard::GridSpec;
use gisolap_stream::{CellPartial, GroupKey, RollupQuery, RollupRow};
use gisolap_sub::{Notification, SubId, Subscription};

use crate::wire::{self, ServeReply, ServeRequest};

/// What a sharded rollup returned: the merged rows plus the
/// coordinator's pruning counts, so callers can see scatter width
/// without a second request.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRows {
    /// Merged rollup rows, bit-identical to a single-store evaluation.
    pub rows: Vec<RollupRow>,
    /// Shards the coordinator skipped entirely (spatial pruning).
    pub shards_pruned: u32,
    /// Shards actually scattered to.
    pub shards_queried: u32,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or broke mid-exchange. Reconnect and retry.
    Io(io::Error),
    /// The server is shedding load (connection cap, in-flight cap or
    /// tenant quota). Nothing was evaluated; back off and retry.
    Busy(String),
    /// The server answered with an application error.
    Remote(String),
    /// The reply failed its checksum or was structurally damaged.
    Corrupt(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Busy(detail) => write!(f, "server busy: {detail}"),
            ClientError::Remote(detail) => write!(f, "server error: {detail}"),
            ClientError::Corrupt(detail) => write!(f, "corrupt reply: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One blocking connection to a [`crate::Server`]. Cheap to reconnect;
/// every method is one request/reply round trip.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// One framed round trip.
    fn exchange(&mut self, req: &ServeRequest) -> Result<ServeReply, ClientError> {
        let framed = wire::encode_request(req);
        wire::write_message(&mut self.writer, &framed)?;
        let payload = wire::read_message(&mut self.reader)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        wire::decode_reply(&payload).map_err(|e| ClientError::Corrupt(e.to_string()))
    }

    /// Liveness + tenant admissibility check.
    pub fn ping(&mut self, tenant: &str) -> Result<(), ClientError> {
        match self.exchange(&ServeRequest::Ping {
            tenant: tenant.to_string(),
        })? {
            ServeReply::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Evaluates a rollup against the tenant's store.
    pub fn rollup(
        &mut self,
        tenant: &str,
        query: &RollupQuery,
    ) -> Result<Vec<RollupRow>, ClientError> {
        match self.exchange(&ServeRequest::Rollup {
            tenant: tenant.to_string(),
            query: *query,
        })? {
            ServeReply::Rows(rows) => Ok(rows),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the tenant store's aggregate cells — the scatter leg of
    /// a remote shard coordinator. `grid` seeds the store's geometry
    /// resolver if this request is what first opens it; `region`
    /// filters the returned cells server-side.
    pub fn partials(
        &mut self,
        tenant: &str,
        grid: Option<&GridSpec>,
        region: Option<&BBox>,
    ) -> Result<Vec<(GroupKey, CellPartial)>, ClientError> {
        match self.exchange(&ServeRequest::Partials {
            tenant: tenant.to_string(),
            grid: grid.copied(),
            region: region.copied(),
        })? {
            ServeReply::Cells(cells) => Ok(cells),
            other => Err(unexpected(other)),
        }
    }

    /// Evaluates a rollup against the tenant's shard cluster,
    /// scatter-gathered server-side.
    pub fn sharded_rollup(
        &mut self,
        tenant: &str,
        query: &RollupQuery,
        region: Option<&BBox>,
    ) -> Result<ShardedRows, ClientError> {
        match self.exchange(&ServeRequest::ShardedRollup {
            tenant: tenant.to_string(),
            query: *query,
            region: region.copied(),
        })? {
            ServeReply::ShardedRows {
                rows,
                shards_pruned,
                shards_queried,
            } => Ok(ShardedRows {
                rows,
                shards_pruned,
                shards_queried,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Registers a standing query on the tenant's store. The server
    /// evaluates it incrementally at every seal from registration on;
    /// read results back with [`Client::notifications`]. Server-side
    /// evaluators are grid-less, so a subscription carrying a region
    /// is rejected with a `Remote` error naming the missing grid.
    pub fn subscribe(&mut self, tenant: &str, sub: &Subscription) -> Result<SubId, ClientError> {
        match self.exchange(&ServeRequest::Subscribe {
            tenant: tenant.to_string(),
            sub: sub.clone(),
        })? {
            ServeReply::Subscribed(id) => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Pulls buffered standing-query notifications with `seq >= since`,
    /// returning them plus the cursor to pass next time. The server
    /// folds newly sealed segments before answering, so a pull always
    /// reflects the store's current seal frontier.
    pub fn notifications(
        &mut self,
        tenant: &str,
        since: u64,
    ) -> Result<(Vec<Notification>, u64), ClientError> {
        match self.exchange(&ServeRequest::Notifications {
            tenant: tenant.to_string(),
            since,
        })? {
            ServeReply::Notifications { items, next } => Ok((items, next)),
            other => Err(unexpected(other)),
        }
    }

    /// One replication exchange: ships the opaque
    /// [`gisolap_repl::wire`] request and returns the leader's raw
    /// reply bytes.
    pub(crate) fn repl_exchange(
        &mut self,
        tenant: &str,
        request: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        match self.exchange(&ServeRequest::Repl {
            tenant: tenant.to_string(),
            request: request.to_vec(),
        })? {
            ServeReply::Repl(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }
}

/// Maps a non-matching reply to the client error it means.
fn unexpected(reply: ServeReply) -> ClientError {
    match reply {
        ServeReply::Busy(detail) => ClientError::Busy(detail),
        ServeReply::Err(detail) => ClientError::Remote(detail),
        other => ClientError::Corrupt(format!("reply type mismatch: {other:?}")),
    }
}
