//! Central registry of the workspace's `GISOLAP_*` environment flags.
//!
//! Every runtime-tuning environment variable the workspace reads is
//! declared here as an [`EnvFlag`] and listed in [`ALL`], so there is one
//! place to discover knobs. A flag sizes a resource or sets a policy; a
//! choice between two code paths with the same answers is a constant,
//! not a flag. `tests/tests/env_flags.rs` enforces that each flag
//! is documented in `README.md` or `OBSERVABILITY.md` and still has a
//! reader outside this file. Crates read their own flags through these
//! constants (the vendored `rayon` shim keeps its own literal copy of
//! [`THREADS`]'s name, mirroring the real crate's independence; the
//! coverage test pins the two strings together).

/// One documented environment flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvFlag {
    /// The environment variable name (`GISOLAP_*`).
    pub name: &'static str,
    /// Behavior when the variable is unset (or unparsable).
    pub default: &'static str,
    /// What the flag tunes.
    pub doc: &'static str,
}

impl EnvFlag {
    /// The variable's raw value, if set and non-empty.
    pub fn raw(&self) -> Option<String> {
        std::env::var(self.name)
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
    }

    /// The variable parsed as a `u64`, if set and parsable.
    pub fn parse_u64(&self) -> Option<u64> {
        self.raw().and_then(|v| v.parse().ok())
    }
}

/// Worker-thread cap for parallel query evaluation; `1` forces the
/// sequential path. Read by the vendored `rayon` shim's pool setup.
pub const THREADS: EnvFlag = EnvFlag {
    name: "GISOLAP_THREADS",
    default: "all available cores",
    doc: "worker threads for parallel query evaluation (1 = sequential)",
};

/// Slow-query threshold in whole milliseconds; unset, empty or
/// unparsable disables the slow-query log.
pub const SLOW_QUERY_MS: EnvFlag = EnvFlag {
    name: "GISOLAP_SLOW_QUERY_MS",
    default: "disabled",
    doc: "latency threshold (ms) above which queries land in the slow-query log",
};

/// Case count for the seeded fault-injection and equivalence property
/// suites under `tests/tests/` (`store_recovery`, `repl_faults`,
/// `shard_equivalence`, `index_equivalence`, `sub_equivalence`,
/// `elastic_failover`); CI raises it well above the local default for
/// each.
pub const CASES: EnvFlag = EnvFlag {
    name: "GISOLAP_CASES",
    default: "16",
    doc: "property-test cases per fault-injection / equivalence suite",
};

/// The case count the property suites run: [`CASES`] when set (clamped
/// to `1..=100_000`), else 16.
pub fn cases() -> u32 {
    CASES.parse_u64().map_or(16, |v| v.clamp(1, 100_000) as u32)
}

/// Durable-store WAL fsync policy: `always`, `never`, or an integer `n`
/// meaning fsync every `n` appends.
pub const STORE_SYNC: EnvFlag = EnvFlag {
    name: "GISOLAP_STORE_SYNC",
    default: "always",
    doc: "segment-store WAL fsync policy: always | never | <n> (sync every n appends)",
};

/// Retired WAL generations a replication leader's store keeps on disk
/// after a flush so followers can tail across rotations; `0` deletes
/// retired WALs immediately, forcing lagging followers onto snapshot
/// transfer.
pub const REPL_RETAIN_WALS: EnvFlag = EnvFlag {
    name: "GISOLAP_REPL_RETAIN_WALS",
    default: "0 (delete retired WALs at flush)",
    doc: "retired WAL generations the store keeps for replication catch-up (0 = none)",
};

/// Follower staleness bound in sequence numbers: reads lag-bounded
/// beyond it return an explicit `Stale{lag}` instead of old data. Unset
/// means unbounded (reads never degrade on sequence lag).
pub const REPL_MAX_LAG_SEQS: EnvFlag = EnvFlag {
    name: "GISOLAP_REPL_MAX_LAG_SEQS",
    default: "unbounded",
    doc: "max follower sequence lag before lag-bounded reads return Stale",
};

/// Base delay in milliseconds for the follower's bounded exponential
/// backoff (with deterministic jitter) after a transport failure.
pub const REPL_BACKOFF_MS: EnvFlag = EnvFlag {
    name: "GISOLAP_REPL_BACKOFF_MS",
    default: "10",
    doc: "base follower retry backoff in ms (exponential, jittered, capped)",
};

/// Concurrent connections the query/replication server admits; one
/// over the cap is answered a single `Busy` reply and closed.
pub const SERVE_MAX_CONNS: EnvFlag = EnvFlag {
    name: "GISOLAP_SERVE_MAX_CONNS",
    default: "64",
    doc: "concurrent connections the serve front door admits (over-cap gets Busy + close)",
};

/// Requests the server evaluates concurrently across all connections;
/// one over the cap is answered `Busy` without being evaluated.
pub const SERVE_MAX_INFLIGHT: EnvFlag = EnvFlag {
    name: "GISOLAP_SERVE_MAX_INFLIGHT",
    default: "8",
    doc: "concurrent requests the serve front door evaluates (over-cap gets Busy)",
};

/// Requests one tenant may have in flight concurrently; `0` means
/// unlimited. A tenant at its quota is answered `Busy` while other
/// tenants proceed.
pub const SERVE_TENANT_QUOTA: EnvFlag = EnvFlag {
    name: "GISOLAP_SERVE_TENANT_QUOTA",
    default: "0 (unlimited)",
    doc: "concurrent in-flight requests allowed per tenant (0 = unlimited)",
};

/// Standing subscriptions one evaluator admits; registration past the
/// cap is refused with an explicit error instead of degrading fold
/// latency for every subscriber already registered.
pub const SUB_MAX: EnvFlag = EnvFlag {
    name: "GISOLAP_SUB_MAX",
    default: "1024",
    doc: "standing subscriptions one evaluator admits (over-cap registration is refused)",
};

/// Notifications the standing-query evaluator buffers for catch-up
/// reads; the oldest are dropped first once the ring is full.
pub const SUB_BUFFER: EnvFlag = EnvFlag {
    name: "GISOLAP_SUB_BUFFER",
    default: "1024",
    doc: "buffered notifications kept for standing-query catch-up reads (oldest dropped first)",
};

/// Every flag the workspace reads, for discovery and doc-coverage tests.
pub const ALL: [&EnvFlag; 12] = [
    &THREADS,
    &SLOW_QUERY_MS,
    &CASES,
    &STORE_SYNC,
    &REPL_RETAIN_WALS,
    &REPL_MAX_LAG_SEQS,
    &REPL_BACKOFF_MS,
    &SERVE_MAX_CONNS,
    &SERVE_MAX_INFLIGHT,
    &SERVE_TENANT_QUOTA,
    &SUB_MAX,
    &SUB_BUFFER,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = ALL.iter().map(|f| f.name).collect();
        assert!(names.iter().all(|n| n.starts_with("GISOLAP_")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn parse_u64_roundtrip() {
        // Use a name not in ALL so other tests never race on it.
        let flag = EnvFlag {
            name: "GISOLAP_TEST_ONLY_FLAG",
            default: "-",
            doc: "-",
        };
        std::env::remove_var(flag.name);
        assert_eq!(flag.parse_u64(), None);
        std::env::set_var(flag.name, " 42 ");
        assert_eq!(flag.parse_u64(), Some(42));
        std::env::set_var(flag.name, "nope");
        assert_eq!(flag.parse_u64(), None);
        std::env::remove_var(flag.name);
    }
}
