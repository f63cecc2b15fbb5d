//! # gisolap-serve
//!
//! The network front door for the durable MOFT pipeline: a TCP server
//! answering **rollup queries** and **replication fetches** against
//! per-tenant [`DurableIngest`](gisolap_store::DurableIngest) stores,
//! over the same CRC32-framed codec the store and replication layers
//! already speak (`DESIGN.md` §6.1).
//!
//! * [`wire`] — the request/reply codec: one CRC frame per message, so
//!   every byte crossing the socket is checksummed; rollup values ship
//!   as IEEE-754 bit patterns, keeping the replication layer's
//!   bit-identity contract intact end to end; replication payloads nest
//!   opaquely with their own per-entry CRCs.
//! * [`server`] — [`Server`]: thread-per-connection accept loop,
//!   per-tenant store directories opened lazily under one root,
//!   connection cap, bounded in-flight requests and per-tenant quotas
//!   (all three shed load with an explicit [`wire::ServeReply::Busy`],
//!   never silent drops), counters exported as
//!   `gisolap_serve_<field>_total`.
//! * [`client`] — [`Client`]: a blocking connection for REPLs, tools
//!   and benches.
//! * [`remote`] — [`RemoteShards`]: a
//!   [`ShardExecutor`](gisolap_shard::ShardExecutor) whose shards sit
//!   behind served endpoints, so one
//!   [`Coordinator`](gisolap_shard::Coordinator) scatter-gathers across
//!   machines with the same deterministic merge it uses in process.
//! * [`transport`] — [`TcpTransport`]: the cross-process
//!   [`gisolap_repl::Transport`], so a
//!   [`Follower`](gisolap_repl::Follower) tails a served leader over a
//!   real socket with the exact retry/backoff/convergence behavior it
//!   has in process — a server restart mid-catch-up costs retries,
//!   never correctness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod remote;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{Client, ClientError, ShardedRows};
pub use remote::{RemoteShard, RemoteShards};
pub use server::{tenant_admissible, ServeConfig, ServeStats, Server};
pub use transport::{Endpoint, TcpTransport};
pub use wire::{ServeReply, ServeRequest};
