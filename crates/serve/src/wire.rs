//! The serving wire format: one CRC32 frame per message, both ways.
//!
//! ```text
//! message := len(u32 LE) | payload | crc32(payload)   // the store codec's frame()
//! request := tag(u8) | tenant(str) | body
//! reply   := tag(u8) | body
//! ```
//!
//! The envelope reuses [`gisolap_store::codec::frame`], so every
//! message the socket delivers is checksummed end to end: a flipped bit
//! anywhere in a request or reply is *detected* before any field is
//! trusted. Replication payloads ride through opaquely — the inner
//! bytes are themselves the replication wire format with its own
//! per-entry CRCs, nested intact inside the envelope.
//!
//! Field formats (floats as IEEE-754 bit patterns, optional fields,
//! counted sequences, the level/aggregate/measure code tables, rollup
//! queries, rows and cells) are `gisolap_store::codec`'s, shared with
//! every other protocol; this module owns the message tags and layouts.
//! A follower or client therefore sees *bit-identical* aggregates — the
//! convergence contract survives serialization.

use gisolap_geom::BBox;
use gisolap_shard::wire::{dec_grid, enc_grid};
use gisolap_shard::GridSpec;
use gisolap_store::codec::{
    dec_bbox, dec_rollup_query, decode_cells, decode_rows, enc_bbox, enc_rollup_query,
    encode_cells, encode_rows, frame, Dec, Enc, CELL_MAX_BYTES, ROW_MAX_BYTES,
};
use gisolap_store::framing;
use gisolap_store::{Result, StoreError};
use gisolap_stream::{CellPartial, GroupKey, RollupQuery, RollupRow};
use gisolap_sub::wire::{dec_notification, dec_subscription, enc_notification, enc_subscription};
use gisolap_sub::{Notification, SubId, Subscription};

// The socket envelope is the shared framing module's: one CRC frame
// per message, length prefix capped at `MAX_MESSAGE`.
pub use gisolap_store::framing::{read_message, write_message, MAX_MESSAGE};

/// Attribution label for serve-level decode errors.
const WIRE: &str = "serve-wire";

fn wire_corrupt(detail: impl Into<String>) -> StoreError {
    framing::wire_corrupt(WIRE, detail)
}

/// What a client asks the server. Every request names its tenant — the
/// server routes it to that tenant's store.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Liveness + routing check: answered [`ServeReply::Pong`].
    Ping {
        /// Tenant the connection wants to talk to.
        tenant: String,
    },
    /// Evaluate a rollup against the tenant's recovered store.
    Rollup {
        /// Tenant whose store answers.
        tenant: String,
        /// The rollup to evaluate.
        query: RollupQuery,
    },
    /// One replication exchange: the opaque bytes are a
    /// [`gisolap_repl::wire`] request, handed to the tenant's
    /// [`gisolap_repl::Leader`] verbatim.
    Repl {
        /// Tenant whose leader answers.
        tenant: String,
        /// The nested replication request frame.
        request: Vec<u8>,
    },
    /// Extract the tenant store's `(hour, geo)` partial cells — the
    /// remote leaf of a shard coordinator's scatter. The grid rides
    /// along so the leaf resolves geometry (and filters the region)
    /// shard-side, shipping only contributing cells back.
    Partials {
        /// Tenant acting as one shard.
        tenant: String,
        /// The cluster's overlay grid (opens the store with its
        /// resolver on first use; required when `region` is set).
        grid: Option<GridSpec>,
        /// Optional region filter applied before shipping.
        region: Option<BBox>,
    },
    /// Evaluate a rollup over a *sharded* tenant (a directory holding a
    /// `SHARDS` cluster): the server prunes, scatters across its local
    /// shard stores and gathers — one round trip for the client.
    ShardedRollup {
        /// Cluster tenant whose shards answer.
        tenant: String,
        /// The rollup to evaluate.
        query: RollupQuery,
        /// Optional region filter (prunes shards on spatial clusters).
        region: Option<BBox>,
    },
    /// Register a standing query on the tenant's evaluator: answered
    /// [`ServeReply::Subscribed`] with the stable subscription id.
    Subscribe {
        /// Tenant whose stream is subscribed to.
        tenant: String,
        /// The standing query (validated server-side on registration).
        sub: Subscription,
    },
    /// Catch-up read of the tenant's buffered standing-query
    /// notifications from a cursor: answered
    /// [`ServeReply::Notifications`]. The server folds any newly sealed
    /// segments before answering, so the reply reflects everything the
    /// store had sealed at evaluation time.
    Notifications {
        /// Tenant whose evaluator answers.
        tenant: String,
        /// Return notifications with `seq >= since` (0 = from the
        /// oldest still buffered).
        since: u64,
    },
}

impl ServeRequest {
    /// The tenant this request addresses.
    pub fn tenant(&self) -> &str {
        match self {
            ServeRequest::Ping { tenant }
            | ServeRequest::Rollup { tenant, .. }
            | ServeRequest::Repl { tenant, .. }
            | ServeRequest::Partials { tenant, .. }
            | ServeRequest::ShardedRollup { tenant, .. }
            | ServeRequest::Subscribe { tenant, .. }
            | ServeRequest::Notifications { tenant, .. } => tenant,
        }
    }
}

/// What the server answers.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReply {
    /// The server is up and the tenant name is admissible.
    Pong,
    /// Rollup result rows, in the store's deterministic order.
    Rows(Vec<RollupRow>),
    /// The nested replication reply frame, verbatim from the leader.
    Repl(Vec<u8>),
    /// Backpressure: over the connection, in-flight or tenant quota.
    /// Retry later; nothing was evaluated.
    Busy(String),
    /// The request was understood but failed server-side.
    Err(String),
    /// A shard's extracted partial cells, ascending by key — partial
    /// sums cross as IEEE-754 bit patterns, so the coordinator's gather
    /// merge starts from exactly the bits the shard held.
    Cells(Vec<(GroupKey, CellPartial)>),
    /// A server-side scatter-gather result: merged rows plus the
    /// pruning evidence.
    ShardedRows {
        /// Merged rollup rows, identical to a single store's answer.
        rows: Vec<RollupRow>,
        /// Shards the region filter excluded before any fetch.
        shards_pruned: u32,
        /// Shards actually fetched.
        shards_queried: u32,
    },
    /// A standing query was registered; its stable id.
    Subscribed(SubId),
    /// Buffered standing-query notifications plus the next catch-up
    /// cursor. The buffer is a bounded ring (`GISOLAP_SUB_BUFFER`), so
    /// very old notifications may be gone — values never lie, delivery
    /// of every historical push is not promised over this pull path.
    Notifications {
        /// Notifications with `seq >= since`, in emission order.
        items: Vec<Notification>,
        /// The cursor to poll from next.
        next: u64,
    },
}

const REQ_PING: u8 = 1;
const REQ_ROLLUP: u8 = 2;
const REQ_REPL: u8 = 3;
const REQ_PARTIALS: u8 = 4;
const REQ_SHARDED: u8 = 5;
const REQ_SUBSCRIBE: u8 = 6;
const REQ_NOTIFICATIONS: u8 = 7;

const REPLY_PONG: u8 = 1;
const REPLY_ROWS: u8 = 2;
const REPLY_REPL: u8 = 3;
const REPLY_BUSY: u8 = 4;
const REPLY_ERR: u8 = 5;
const REPLY_CELLS: u8 = 6;
const REPLY_SHARDED_ROWS: u8 = 7;
const REPLY_SUBSCRIBED: u8 = 8;
const REPLY_NOTIFICATIONS: u8 = 9;

/// Encodes a request as one CRC frame ready for the socket.
pub fn encode_request(req: &ServeRequest) -> Vec<u8> {
    let mut e = Enc::new();
    match req {
        ServeRequest::Ping { tenant } => {
            e.u8(REQ_PING);
            e.str(tenant);
        }
        ServeRequest::Rollup { tenant, query } => {
            e.u8(REQ_ROLLUP);
            e.str(tenant);
            enc_rollup_query(&mut e, query);
        }
        ServeRequest::Repl { tenant, request } => {
            e.u8(REQ_REPL);
            e.str(tenant);
            e.bytes(request);
        }
        ServeRequest::Partials {
            tenant,
            grid,
            region,
        } => {
            e.u8(REQ_PARTIALS);
            e.str(tenant);
            e.opt(grid.as_ref(), enc_grid);
            e.opt(region.as_ref(), enc_bbox);
        }
        ServeRequest::ShardedRollup {
            tenant,
            query,
            region,
        } => {
            e.u8(REQ_SHARDED);
            e.str(tenant);
            enc_rollup_query(&mut e, query);
            e.opt(region.as_ref(), enc_bbox);
        }
        ServeRequest::Subscribe { tenant, sub } => {
            e.u8(REQ_SUBSCRIBE);
            e.str(tenant);
            enc_subscription(&mut e, sub);
        }
        ServeRequest::Notifications { tenant, since } => {
            e.u8(REQ_NOTIFICATIONS);
            e.str(tenant);
            e.u64(*since);
        }
    }
    frame(&e.into_bytes())
}

/// Decodes a request payload (server side, envelope already stripped
/// and CRC-checked by [`read_message`]).
pub fn decode_request(payload: &[u8]) -> Result<ServeRequest> {
    let mut d = Dec::new(payload, WIRE);
    let tag = d.u8()?;
    let tenant = d.str()?;
    let req = match tag {
        REQ_PING => ServeRequest::Ping { tenant },
        REQ_ROLLUP => ServeRequest::Rollup {
            tenant,
            query: dec_rollup_query(&mut d)?,
        },
        REQ_REPL => ServeRequest::Repl {
            tenant,
            request: d.bytes()?.to_vec(),
        },
        REQ_PARTIALS => ServeRequest::Partials {
            tenant,
            grid: d.opt("grid", dec_grid)?,
            region: d.opt("region", dec_bbox)?,
        },
        REQ_SHARDED => ServeRequest::ShardedRollup {
            tenant,
            query: dec_rollup_query(&mut d)?,
            region: d.opt("region", dec_bbox)?,
        },
        REQ_SUBSCRIBE => ServeRequest::Subscribe {
            tenant,
            sub: dec_subscription(&mut d)?,
        },
        REQ_NOTIFICATIONS => ServeRequest::Notifications {
            tenant,
            since: d.u64()?,
        },
        t => return Err(wire_corrupt(format!("unknown request tag {t}"))),
    };
    d.finish()?;
    Ok(req)
}

/// Encodes a reply as one CRC frame ready for the socket.
pub fn encode_reply(reply: &ServeReply) -> Vec<u8> {
    // Rows and cells replies run to hundreds of KB: size the buffer once
    // from the count (each item's largest form, plus the reply header).
    let body = match reply {
        ServeReply::Rows(rows) | ServeReply::ShardedRows { rows, .. } => rows.len() * ROW_MAX_BYTES,
        ServeReply::Cells(cells) => cells.len() * CELL_MAX_BYTES,
        _ => 0,
    };
    let mut e = Enc::with_capacity(body + 32);
    match reply {
        ServeReply::Pong => e.u8(REPLY_PONG),
        ServeReply::Rows(rows) => {
            e.u8(REPLY_ROWS);
            encode_rows(&mut e, rows);
        }
        ServeReply::Repl(bytes) => {
            e.u8(REPLY_REPL);
            e.bytes(bytes);
        }
        ServeReply::Busy(detail) => {
            e.u8(REPLY_BUSY);
            e.str(detail);
        }
        ServeReply::Err(detail) => {
            e.u8(REPLY_ERR);
            e.str(detail);
        }
        ServeReply::Cells(cells) => {
            e.u8(REPLY_CELLS);
            encode_cells(&mut e, cells);
        }
        ServeReply::ShardedRows {
            rows,
            shards_pruned,
            shards_queried,
        } => {
            e.u8(REPLY_SHARDED_ROWS);
            e.u32(*shards_pruned);
            e.u32(*shards_queried);
            encode_rows(&mut e, rows);
        }
        ServeReply::Subscribed(id) => {
            e.u8(REPLY_SUBSCRIBED);
            e.u64(id.0);
        }
        ServeReply::Notifications { items, next } => {
            e.u8(REPLY_NOTIFICATIONS);
            e.u64(*next);
            e.seq(items, enc_notification);
        }
    }
    frame(&e.into_bytes())
}

/// Minimum wire cost of one notification (ids, partition, empty rows,
/// optional-value flags and the crossing byte) — the plausibility bound
/// for declared notification counts.
const MIN_NOTIFICATION: usize = 8 + 8 + 8 + 8 + 1 + 1 + 1;

/// Decodes a reply payload (client side, envelope already stripped).
pub fn decode_reply(payload: &[u8]) -> Result<ServeReply> {
    let mut d = Dec::new(payload, WIRE);
    let reply = match d.u8()? {
        REPLY_PONG => ServeReply::Pong,
        REPLY_ROWS => ServeReply::Rows(decode_rows(&mut d)?),
        REPLY_REPL => ServeReply::Repl(d.bytes()?.to_vec()),
        REPLY_BUSY => ServeReply::Busy(d.str()?),
        REPLY_ERR => ServeReply::Err(d.str()?),
        REPLY_CELLS => ServeReply::Cells(decode_cells(&mut d)?),
        REPLY_SHARDED_ROWS => {
            let shards_pruned = d.u32()?;
            let shards_queried = d.u32()?;
            ServeReply::ShardedRows {
                rows: decode_rows(&mut d)?,
                shards_pruned,
                shards_queried,
            }
        }
        REPLY_SUBSCRIBED => ServeReply::Subscribed(SubId(d.u64()?)),
        REPLY_NOTIFICATIONS => {
            let next = d.u64()?;
            let items = d.seq("notifications", MIN_NOTIFICATION, dec_notification)?;
            ServeReply::Notifications { items, next }
        }
        t => return Err(wire_corrupt(format!("unknown reply tag {t}"))),
    };
    d.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_stream::Measure;
    use proptest::prelude::*;
    use std::io;

    fn sample_grid() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 4.0, 4.0), 2, 2).unwrap()
    }

    fn sample_rows() -> Vec<RollupRow> {
        vec![
            RollupRow {
                granule: -3,
                geo: None,
                value: 1.5,
            },
            RollupRow {
                granule: 490_000,
                geo: Some(7),
                value: f64::from_bits(0x7ff8_0000_0000_0001), // a NaN payload
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            ServeRequest::Ping {
                tenant: "acme".into(),
            },
            ServeRequest::Rollup {
                tenant: "t-1".into(),
                query: RollupQuery::new(TimeLevel::Day, Measure::Y, AggFn::Avg)
                    .between(TimeId(3600), TimeId(7200)),
            },
            ServeRequest::Repl {
                tenant: "x".into(),
                request: vec![1, 2, 3, 255],
            },
            ServeRequest::Partials {
                tenant: "shard-0".into(),
                grid: Some(sample_grid()),
                region: Some(BBox::new(0.5, 0.5, 2.5, 2.5)),
            },
            ServeRequest::Partials {
                tenant: "shard-1".into(),
                grid: None,
                region: None,
            },
            ServeRequest::ShardedRollup {
                tenant: "fleet".into(),
                query: RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum),
                region: Some(BBox::new(-1.0, -1.0, 1.0, 1.0)),
            },
            ServeRequest::Subscribe {
                tenant: "acme".into(),
                sub: Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count)
                    .over_hours(6)
                    .with_threshold(100.0, 50.0),
            },
            ServeRequest::Notifications {
                tenant: "acme".into(),
                since: 17,
            },
        ];
        for req in reqs {
            let framed = encode_request(&req);
            let payload = read_message(&mut framed.as_slice())
                .unwrap()
                .expect("one message");
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
    }

    #[test]
    fn replies_roundtrip_bit_identically() {
        let cell = {
            let p = gisolap_olap::agg::Partial::from_raw(4, 10.25, 1.25, 4.5);
            CellPartial { x: p, y: p }
        };
        let replies = [
            ServeReply::Pong,
            ServeReply::Rows(sample_rows()),
            ServeReply::Repl(vec![9; 40]),
            ServeReply::Busy("over quota".into()),
            ServeReply::Err("no such tenant".into()),
            ServeReply::Cells(vec![((3, None), cell), ((7, Some(12)), cell)]),
            ServeReply::ShardedRows {
                // NaN-free rows: this arm is compared with PartialEq.
                rows: vec![RollupRow {
                    granule: 42,
                    geo: Some(3),
                    value: -0.75,
                }],
                shards_pruned: 3,
                shards_queried: 1,
            },
            ServeReply::Subscribed(SubId(11)),
            ServeReply::Notifications {
                // NaN-free: this arm is compared with PartialEq.
                items: vec![Notification {
                    sub: SubId(2),
                    seq: 5,
                    partition: 1,
                    rows: vec![RollupRow {
                        granule: 3600,
                        geo: None,
                        value: 8.5,
                    }],
                    value: Some(8.5),
                    prev: Some(3.0),
                    crossing: Some(gisolap_sub::Crossing::Up),
                }],
                next: 6,
            },
        ];
        for reply in replies {
            let framed = encode_reply(&reply);
            let payload = read_message(&mut framed.as_slice())
                .unwrap()
                .expect("one message");
            let decoded = decode_reply(&payload).unwrap();
            match (&decoded, &reply) {
                (ServeReply::Rows(got), ServeReply::Rows(want)) => {
                    // NaN-safe bit comparison: the wire must preserve the
                    // exact IEEE-754 pattern, not just PartialEq.
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.granule, w.granule);
                        assert_eq!(g.geo, w.geo);
                        assert_eq!(g.value.to_bits(), w.value.to_bits());
                    }
                }
                _ => assert_eq!(decoded, reply),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut bytes = (MAX_MESSAGE + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let err = read_message(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn implausible_row_count_fails_fast() {
        let mut e = Enc::new();
        e.u8(REPLY_ROWS);
        e.u64(u64::MAX / 32);
        let err = decode_reply(&e.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("declares"), "{err}");
    }

    #[test]
    fn cell_hours_past_the_multipliable_range_are_rejected() {
        let cell = CellPartial::default();
        let decode = |hour: i64| {
            let framed = encode_reply(&ServeReply::Cells(vec![((hour, Some(1)), cell)]));
            let payload = read_message(&mut framed.as_slice()).unwrap().unwrap();
            decode_reply(&payload)
        };
        let max = i64::MAX / 3600;
        for hostile in [i64::MAX, i64::MIN, max + 1, -max - 1] {
            let err = decode(hostile).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{err}");
        }
        // The bound itself is a legal key, and masking it cannot overflow.
        for hour in [max, -max] {
            assert!(decode(hour).is_ok());
            let everything = Some((TimeId(i64::MIN), TimeId(i64::MAX)));
            assert!(gisolap_stream::hour_in_window(hour, everything));
        }
    }

    #[test]
    fn presized_item_costs_are_the_encoded_ones() {
        let grow =
            |one: ServeReply, two: ServeReply| encode_reply(&two).len() - encode_reply(&one).len();
        let row = sample_rows()[1];
        assert!(row.geo.is_some());
        let rows = |n| ServeReply::Rows(vec![row; n]);
        assert_eq!(grow(rows(1), rows(2)), ROW_MAX_BYTES);
        let cells = |n| ServeReply::Cells(vec![((7, Some(12)), CellPartial::default()); n]);
        assert_eq!(grow(cells(1), cells(2)), CELL_MAX_BYTES);
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_message(&mut [].as_slice()).unwrap().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flipped_message_bytes_never_pass(idx in 0usize..200, bit in 0u8..8) {
            let reply = ServeReply::Rows(sample_rows());
            let mut framed = encode_reply(&reply);
            let idx = idx % framed.len();
            framed[idx] ^= 1 << bit;
            // Either the envelope rejects it, or (if the flip landed in
            // the length prefix making it longer) the read runs short.
            if let Ok(Some(payload)) = read_message(&mut framed.as_slice()) {
                prop_assert!(decode_reply(&payload).is_err());
            }
        }

        #[test]
        fn truncated_messages_never_panic(cut in 0usize..100) {
            let framed = encode_request(&ServeRequest::Rollup {
                tenant: "acme".into(),
                query: RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum),
            });
            let cut = cut % framed.len();
            if let Ok(Some(payload)) = read_message(&mut &framed[..cut]) {
                prop_assert!(decode_request(&payload).is_err());
            }
        }
    }
}
