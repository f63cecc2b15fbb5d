//! A [`ShardExecutor`] whose shards live behind served TCP endpoints:
//! the coordinator's scatter leg becomes one [`Client::partials`]
//! round trip per shard, so a rollup can span stores on different
//! machines while the gather stays the same deterministic merge.
//!
//! Connections are pooled per shard and rebuilt lazily after an I/O
//! failure — a server restart between queries costs one reconnect,
//! never a wrong answer.

use std::io;
use std::sync::Mutex;

use gisolap_geom::BBox;
use gisolap_shard::{GridSpec, ShardExecutor};
use gisolap_store::StoreError;
use gisolap_stream::{CellPartial, GroupKey};

use crate::client::{Client, ClientError};

/// One remote shard: where to connect and which tenant holds its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteShard {
    /// `host:port` of the server fronting this shard's store.
    pub addr: String,
    /// Tenant name of the shard's store on that server.
    pub tenant: String,
}

impl RemoteShard {
    /// Builds an endpoint descriptor.
    pub fn new(addr: impl Into<String>, tenant: impl Into<String>) -> RemoteShard {
        RemoteShard {
            addr: addr.into(),
            tenant: tenant.into(),
        }
    }
}

/// Scatter executor over served shard stores. Each `fetch` is one
/// `Partials` request; the optional grid is shipped with every request
/// so a leaf store opened lazily by the remote server resolves
/// geometry identically to the coordinator's partitioner.
pub struct RemoteShards {
    shards: Vec<RemoteShard>,
    grid: Option<GridSpec>,
    // One slot per shard so parallel scatter never serializes distinct
    // shards on a shared connection.
    pool: Vec<Mutex<Option<Client>>>,
}

impl std::fmt::Debug for RemoteShards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShards")
            .field("shards", &self.shards)
            .field("grid", &self.grid)
            .finish_non_exhaustive()
    }
}

impl RemoteShards {
    /// Builds an executor over `shards`, resolving geometry with
    /// `grid` on remote leaves opened by these requests.
    pub fn new(shards: Vec<RemoteShard>, grid: Option<GridSpec>) -> RemoteShards {
        let pool = shards.iter().map(|_| Mutex::new(None)).collect();
        RemoteShards { shards, grid, pool }
    }
}

/// Maps a client failure to the store error the coordinator reports.
fn client_err(shard: &RemoteShard, e: ClientError) -> StoreError {
    match e {
        ClientError::Io(e) => StoreError::Io(e),
        other => StoreError::Io(io::Error::other(format!(
            "shard {}/{}: {other}",
            shard.addr, shard.tenant
        ))),
    }
}

impl ShardExecutor for RemoteShards {
    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn fetch(
        &self,
        shard: usize,
        region: Option<&BBox>,
    ) -> gisolap_store::Result<Vec<(GroupKey, CellPartial)>> {
        let endpoint = &self.shards[shard];
        let mut slot = self.pool[shard].lock().expect("pool poisoned");
        if slot.is_none() {
            *slot = Some(Client::connect(&endpoint.addr).map_err(StoreError::Io)?);
        }
        let client = slot.as_mut().expect("just connected");
        match client.partials(&endpoint.tenant, self.grid.as_ref(), region) {
            Ok(cells) => Ok(cells),
            Err(e) => {
                // Drop a possibly broken connection; the next fetch
                // reconnects.
                *slot = None;
                Err(client_err(endpoint, e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_and_endpoints() {
        let exec = RemoteShards::new(
            vec![
                RemoteShard::new("127.0.0.1:7001", "fleet-s0"),
                RemoteShard::new("127.0.0.1:7002", "fleet-s1"),
            ],
            None,
        );
        assert_eq!(exec.shards(), 2);
        let debug = format!("{exec:?}");
        assert!(debug.contains("fleet-s0") && debug.contains("fleet-s1"));
    }

    #[test]
    fn fetch_against_dead_endpoint_is_io_error() {
        // Port 1 is essentially never listening.
        let exec = RemoteShards::new(vec![RemoteShard::new("127.0.0.1:1", "fleet")], None);
        match exec.fetch(0, None) {
            Err(StoreError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
