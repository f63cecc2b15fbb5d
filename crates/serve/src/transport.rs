//! [`TcpTransport`]: the cross-process [`Transport`] — a follower tails
//! a leader served by a remote [`crate::Server`] over a real socket.

use std::sync::{Arc, Mutex};

use gisolap_repl::{Transport, TransportError};

use crate::client::{Client, ClientError};

/// A shared, updatable server address. Clone it before building the
/// transport and [`Endpoint::set`] repoints every future exchange —
/// the failover seam when a leader restarts elsewhere.
#[derive(Debug, Clone)]
pub struct Endpoint {
    addr: Arc<Mutex<String>>,
}

impl Endpoint {
    /// An endpoint at `addr` (e.g. `"127.0.0.1:7474"`).
    pub fn new(addr: impl Into<String>) -> Endpoint {
        Endpoint {
            addr: Arc::new(Mutex::new(addr.into())),
        }
    }

    /// The current address.
    pub fn get(&self) -> String {
        self.addr.lock().expect("endpoint poisoned").clone()
    }

    /// Repoints the endpoint: transports holding this endpoint connect
    /// to `addr` on their next (re)connect.
    pub fn set(&self, addr: impl Into<String>) {
        *self.addr.lock().expect("endpoint poisoned") = addr.into();
    }
}

/// A [`Transport`] that reaches its leader through a [`crate::Server`].
///
/// Connects lazily and reconnects on demand: any socket failure drops
/// the connection and surfaces as [`TransportError::Unavailable`],
/// which the follower already treats as retryable (backoff, counter,
/// try again) — so a server restart mid-catch-up costs retries, never
/// correctness. `Busy` replies are likewise `Unavailable`: load
/// shedding is a transient, not an error.
#[derive(Debug)]
pub struct TcpTransport {
    endpoint: Endpoint,
    tenant: String,
    conn: Option<Client>,
}

impl TcpTransport {
    /// A transport for `tenant`'s leader behind the server at `addr`.
    /// No connection is made until the first exchange.
    pub fn new(addr: impl Into<String>, tenant: impl Into<String>) -> TcpTransport {
        TcpTransport::with_endpoint(Endpoint::new(addr), tenant)
    }

    /// A transport sharing an [`Endpoint`] the caller keeps a clone of,
    /// so the server address can be repointed mid-replication.
    pub fn with_endpoint(endpoint: Endpoint, tenant: impl Into<String>) -> TcpTransport {
        TcpTransport {
            endpoint,
            tenant: tenant.into(),
            conn: None,
        }
    }

    /// The server address the next exchange goes to.
    pub fn addr(&self) -> String {
        self.endpoint.get()
    }

    /// A clone of the shared endpoint (for failover repointing).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// The tenant exchanges are routed to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    fn connect(&mut self) -> Result<&mut Client, TransportError> {
        if self.conn.is_none() {
            let addr = self.endpoint.get();
            let client = Client::connect(&addr)
                .map_err(|e| TransportError::Unavailable(format!("connect {addr}: {e}")))?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }
}

impl Transport for TcpTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let tenant = self.tenant.clone();
        let conn = self.connect()?;
        match conn.repl_exchange(&tenant, request) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                // Any failure may have left the stream mid-message;
                // drop it so the next exchange starts clean.
                self.conn = None;
                Err(match e {
                    ClientError::Io(e) => TransportError::Unavailable(e.to_string()),
                    ClientError::Busy(detail) => {
                        TransportError::Unavailable(format!("server busy: {detail}"))
                    }
                    ClientError::Remote(detail) => TransportError::Remote(detail),
                    ClientError::Corrupt(detail) => TransportError::Remote(detail),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_repoints_future_connects() {
        let ep = Endpoint::new("127.0.0.1:1");
        let t = TcpTransport::with_endpoint(ep.clone(), "acme");
        assert_eq!(t.addr(), "127.0.0.1:1");
        ep.set("127.0.0.1:2");
        assert_eq!(t.addr(), "127.0.0.1:2");
        assert_eq!(t.tenant(), "acme");
        assert!(t.conn.is_none());
    }

    #[test]
    fn unreachable_server_is_unavailable() {
        // Port 1 on localhost: connect refused immediately.
        let mut t = TcpTransport::new("127.0.0.1:1", "acme");
        match t.exchange(&[0]) {
            Err(TransportError::Unavailable(msg)) => {
                assert!(msg.contains("127.0.0.1:1"), "{msg}")
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }
}
