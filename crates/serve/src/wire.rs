//! The serving wire format: one CRC32 frame per message, both ways.
//!
//! ```text
//! message := len(u32 LE) | payload | crc32(payload)   // the store codec's frame
//! request := tag(u8) | tenant(str) | body
//! reply   := tag(u8) | body
//! ```
//!
//! Both message families are declared once below with
//! `gisolap_store::messages!`, which writes each message straight into
//! its CRC frame, so every message the socket delivers is checksummed
//! end to end: a flipped bit anywhere in a request or reply is
//! *detected* before any field is trusted. Replication payloads ride
//! through opaquely — the inner bytes are themselves the replication
//! wire format with its own per-entry CRCs, nested intact inside the
//! envelope.
//!
//! Field formats (floats as IEEE-754 bit patterns, optional fields,
//! counted sequences, the level/aggregate/measure code tables, rollup
//! queries, rows and cells) are `gisolap_store::codec`'s, shared with
//! every other protocol; grids, subscriptions and notifications are the
//! shard and sub crates' declared messages, nested. A follower or client
//! therefore sees *bit-identical* aggregates — the convergence contract
//! survives serialization.

use gisolap_geom::BBox;
use gisolap_shard::GridSpec;
use gisolap_store::codec::{
    dec_bbox, dec_rollup_query, decode_cells, decode_rows, enc_bbox, enc_rollup_query,
    encode_cells, encode_rows,
};
use gisolap_store::{messages, Result};
use gisolap_stream::{CellPartial, GroupKey, RollupQuery, RollupRow};
use gisolap_sub::{Notification, SubId, Subscription};

// The socket envelope is the shared framing module's: one CRC frame
// per message, length prefix capped at `MAX_MESSAGE`.
pub use gisolap_store::framing::{read_message, write_message, MAX_MESSAGE};

/// Attribution label for serve-level decode errors.
const WIRE: &str = "serve-wire";

messages! {
    /// What a client asks the server. Every request names its tenant — the
    /// server routes it to that tenant's store.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServeRequest ["request tag"] {
        /// Liveness + routing check: answered [`ServeReply::Pong`].
        1 => Ping {
            /// Tenant the connection wants to talk to.
            tenant: String = str,
        },
        /// Evaluate a rollup against the tenant's recovered store.
        2 => Rollup {
            /// Tenant whose store answers.
            tenant: String = str,
            /// The rollup to evaluate.
            query: RollupQuery = [enc_rollup_query, dec_rollup_query],
        },
        /// One replication exchange: the opaque bytes are a
        /// [`gisolap_repl::wire`] request, handed to the tenant's
        /// [`gisolap_repl::Leader`] verbatim.
        3 => Repl {
            /// Tenant whose leader answers.
            tenant: String = str,
            /// The nested replication request frame.
            request: Vec<u8> = bytes,
        },
        /// Extract the tenant store's `(hour, geo)` partial cells — the
        /// remote leaf of a shard coordinator's scatter. The grid rides
        /// along so the leaf resolves geometry (and filters the region)
        /// shard-side, shipping only contributing cells back.
        4 => Partials {
            /// Tenant acting as one shard.
            tenant: String = str,
            /// The cluster's overlay grid (opens the store with its
            /// resolver on first use; required when `region` is set).
            grid: Option<GridSpec> = (opt "grid" (msg GridSpec)),
            /// Optional region filter applied before shipping.
            region: Option<BBox> = (opt "region" [enc_bbox, dec_bbox]),
        },
        /// Evaluate a rollup over a *sharded* tenant (a directory holding a
        /// `SHARDS` cluster): the server prunes, scatters across its local
        /// shard stores and gathers — one round trip for the client.
        5 => ShardedRollup {
            /// Cluster tenant whose shards answer.
            tenant: String = str,
            /// The rollup to evaluate.
            query: RollupQuery = [enc_rollup_query, dec_rollup_query],
            /// Optional region filter (prunes shards on spatial clusters).
            region: Option<BBox> = (opt "region" [enc_bbox, dec_bbox]),
        },
        /// Register a standing query on the tenant's evaluator: answered
        /// [`ServeReply::Subscribed`] with the stable subscription id.
        6 => Subscribe {
            /// Tenant whose stream is subscribed to.
            tenant: String = str,
            /// The standing query (validated server-side on registration).
            sub: Subscription = (msg Subscription),
        },
        /// Catch-up read of the tenant's buffered standing-query
        /// notifications from a cursor: answered
        /// [`ServeReply::Notifications`]. The server folds any newly sealed
        /// segments before answering, so the reply reflects everything the
        /// store had sealed at evaluation time.
        7 => Notifications {
            /// Tenant whose evaluator answers.
            tenant: String = str,
            /// Return notifications with `seq >= since` (0 = from the
            /// oldest still buffered).
            since: u64 = u64,
        },
    }
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

/// Minimum wire cost of one notification (ids, partition, empty rows,
/// optional-value flags and the crossing byte) — the plausibility bound
/// for declared notification counts.
const MIN_NOTIFICATION: usize = 8 + 8 + 8 + 8 + 1 + 1 + 1;

messages! {
    /// What the server answers.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServeReply ["reply tag"] {
        /// The server is up and the tenant name is admissible.
        1 => Pong,
        /// Rollup result rows, in the store's deterministic order.
        2 => Rows(rows: Vec<RollupRow> = [encode_rows, decode_rows]),
        /// The nested replication reply frame, verbatim from the leader.
        3 => Repl(reply: Vec<u8> = bytes),
        /// Backpressure: over the connection, in-flight or tenant quota.
        /// Retry later; nothing was evaluated.
        4 => Busy(detail: String = str),
        /// The request was understood but failed server-side.
        5 => Err(detail: String = str),
        /// A shard's extracted partial cells, ascending by key — partial
        /// sums cross as IEEE-754 bit patterns, so the coordinator's gather
        /// merge starts from exactly the bits the shard held.
        6 => Cells(cells: Vec<(GroupKey, CellPartial)> = [encode_cells, decode_cells]),
        /// A server-side scatter-gather result: merged rows plus the
        /// pruning evidence.
        7 => ShardedRows {
            /// Shards the region filter excluded before any fetch.
            shards_pruned: u32 = u32,
            /// Shards actually fetched.
            shards_queried: u32 = u32,
            /// Merged rollup rows, identical to a single store's answer.
            rows: Vec<RollupRow> = [encode_rows, decode_rows],
        },
        /// A standing query was registered; its stable id.
        8 => Subscribed(id: SubId = (wrap SubId, u64)),
        /// Buffered standing-query notifications plus the next catch-up
        /// cursor. The buffer is a bounded ring (`GISOLAP_SUB_BUFFER`), so
        /// very old notifications may be gone — values never lie, delivery
        /// of every historical push is not promised over this pull path.
        9 => Notifications {
            /// The cursor to poll from next.
            next: u64 = u64,
            /// Notifications with `seq >= since`, in emission order.
            items: Vec<Notification> =
                (seq "notifications" MIN_NOTIFICATION, (msg Notification)),
        },
    }
}

/// Encodes a request as one CRC frame ready for the socket.
pub fn encode_request(req: &ServeRequest) -> Vec<u8> {
    req.encode()
}

/// Decodes a request payload (server side, envelope already stripped
/// and CRC-checked by [`read_message`]).
pub fn decode_request(payload: &[u8]) -> Result<ServeRequest> {
    ServeRequest::decode(payload, WIRE)
}

/// Encodes a reply as one CRC frame ready for the socket.
pub fn encode_reply(reply: &ServeReply) -> Vec<u8> {
    reply.encode()
}

/// Decodes a reply payload (client side, envelope already stripped).
pub fn decode_reply(payload: &[u8]) -> Result<ServeReply> {
    ServeReply::decode(payload, WIRE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_store::codec::{Enc, CELL_MAX_BYTES, ROW_MAX_BYTES};
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
        e.u8(ServeReply::TAGS[1]); // rows
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
