//! Golden byte fixtures: every wire message and on-disk payload the
//! workspace writes, pinned as hex, plus one Prometheus exposition filled
//! from every counter family.
//!
//! The formats are owned by `store::codec` (field formats, code tables)
//! and the per-protocol `wire` modules (message layouts); the exported
//! metric names by the `counters!` declarations. Any refactor of either
//! must leave these bytes untouched — a deliberate format change bumps a
//! version byte and re-captures the fixture in the same commit. On a
//! mismatch the failure prints the full actual table, ready to paste.

use gisolap_core::engine::{NaiveEngine, QueryEngine};
use gisolap_core::Gis;
use gisolap_geom::BBox;
use gisolap_obs::{CounterSet, MetricsRegistry};
use gisolap_olap::agg::{AggFn, Partial};
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_repl::{LeaderStats, ReplStats, ReplyHead, SnapshotTransfer};
use gisolap_serve::wire::{decode_reply, decode_request, encode_reply, encode_request};
use gisolap_serve::{ServeReply, ServeRequest, ServeStats};
use gisolap_shard::wire::{RebalanceJournal, ShardManifest};
use gisolap_shard::{GridSpec, PartitionerSpec, RouteStats, ShardStats};
use gisolap_store::codec::{self, Enc, FileKind, Manifest, SegmentEntry, TailDelta};
use gisolap_store::wal::WalEntry;
use gisolap_store::StoreStats;
use gisolap_stream::{
    CellPartial, GroupKey, IngestStats, Measure, ReplayOp, RollupQuery, RollupRow, StreamConfig,
    StreamIngest, TailState,
};
use gisolap_sub::{Crossing, Notification, SubId, SubStats, Subscription};
use gisolap_tests::elastic::ElasticStats;
use gisolap_traj::{Moft, ObjectId, Record};
use std::path::{Path, PathBuf};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
    Record {
        oid: ObjectId(oid),
        t: TimeId(t),
        x,
        y,
    }
}

fn grid() -> GridSpec {
    GridSpec::new(BBox::new(-4.0, -2.0, 4.0, 2.0), 8, 4).unwrap()
}

fn rows() -> Vec<RollupRow> {
    vec![
        RollupRow {
            granule: -3,
            geo: None,
            value: 1.5,
        },
        RollupRow {
            granule: 490_000,
            geo: Some(7),
            value: f64::from_bits(0x7ff8_0000_0000_0001),
        },
    ]
}

fn cells() -> Vec<(GroupKey, CellPartial)> {
    let x = Partial::from_raw(4, 10.25, 1.25, 4.5);
    let y = Partial::from_raw(4, -2.0, -1.5, 0.25);
    vec![
        ((3, None), CellPartial { x, y }),
        ((7, Some(12)), CellPartial { x: y, y: x }),
    ]
}

fn notification() -> Notification {
    Notification {
        sub: SubId(42),
        seq: 7,
        partition: 3600,
        rows: rows(),
        value: Some(f64::NEG_INFINITY),
        prev: None,
        crossing: Some(Crossing::Down),
    }
}

fn subscription() -> Subscription {
    Subscription::new(TimeLevel::Day, Measure::Y, AggFn::Avg)
        .in_region(BBox::new(-1.5, 0.0, 2.5, 8.0))
        .over_hours(24)
        .with_threshold(10.0, 2.0)
}

/// A two-segment pipeline with an unsealed tail and one dead letter.
fn pipeline() -> StreamIngest {
    let mut ingest = StreamIngest::new(StreamConfig::new(0, 3600).unwrap()).unwrap();
    ingest.ingest(&[
        rec(2, 100, 5.25, -5.5),
        rec(1, 50, 0.125, 0.25),
        rec(1, 4000, 1.0, 1.0),
        rec(3, 8000, 2.5, 3.5),
        rec(9, 10, 7.0, 7.0), // older than the sealed frontier
    ]);
    ingest
}

fn tail() -> TailState {
    TailState {
        max_event_time: Some(TimeId(7300)),
        sealed_before: 1,
        records_ingested: 6,
        segments_sealed: 1,
        dead_letters: vec![rec(9, -50, 0.0, 0.0)],
        buffers: vec![
            (1, vec![rec(1, 3700, 4.0, 5.0), rec(2, 3800, 6.0, 7.0)]),
            (2, vec![rec(3, 7300, 8.0, 9.0)]),
        ],
    }
}

fn on_disk(kind: FileKind, payload: &[u8]) -> Vec<u8> {
    let mut bytes = codec::header(kind);
    bytes.extend_from_slice(&codec::frame(payload));
    bytes
}

/// A store file of `kind` whose one frame holds what `encode` writes.
fn file(kind: FileKind, encode: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::file(kind);
    encode(&mut e);
    e.into_framed()
}

/// The unframed payload `encode` writes.
fn payload(encode: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    encode(&mut e);
    e.into_bytes()
}

/// Every pinned byte string, by name.
fn actual_bytes() -> Vec<(&'static str, Vec<u8>)> {
    let query = RollupQuery::new(TimeLevel::Day, Measure::Y, AggFn::Avg)
        .between(TimeId(3600), TimeId(7200));
    let whole = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
    let spatial = PartitionerSpec::Spatial {
        shards: 4,
        grid: grid(),
    };
    let ingest = pipeline();
    let wal = [
        WalEntry {
            seq: 4,
            op: ReplayOp::Batch(vec![rec(1, 10, 1.0, 2.0), rec(2, 20, -1.0, 0.5)]),
        },
        WalEntry {
            seq: 5,
            op: ReplayOp::Finish,
        },
    ];
    let tail_delta = TailDelta {
        max_event_time: Some(TimeId(7300)),
        sealed_before: 1,
        records_ingested: 6,
        segments_sealed: 1,
        new_dead_letters: vec![rec(8, -1, 1.0, 1.0)],
        changed_buffers: vec![(2, vec![rec(3, 7300, 8.0, 9.0)])],
        removed_buffers: vec![0],
    };
    let manifest = Manifest {
        gen: 3,
        lateness_seconds: 300,
        segment_seconds: 3600,
        segments: vec![
            SegmentEntry {
                lo: -1,
                hi: 0,
                file: "seg--1-0.seg".into(),
            },
            SegmentEntry {
                lo: 2,
                hi: 2,
                file: "seg-2-2.seg".into(),
            },
        ],
        checkpoint: Some("ck-3.ck".into()),
        checkpoint_deltas: vec!["ckd-4.ckd".into()],
        wal: "wal-3.log".into(),
        wal_start_seq: 12,
    };
    let t = |s: &str| s.to_string();
    vec![
        // --- serve requests ---
        (
            "serve.req.ping",
            encode_request(&ServeRequest::Ping { tenant: t("acme") }),
        ),
        (
            "serve.req.rollup",
            encode_request(&ServeRequest::Rollup {
                tenant: t("t-1"),
                query,
            }),
        ),
        (
            "serve.req.repl",
            encode_request(&ServeRequest::Repl {
                tenant: t("x"),
                request: vec![1, 2, 3, 255],
            }),
        ),
        (
            "serve.req.partials",
            encode_request(&ServeRequest::Partials {
                tenant: t("shard-0"),
                grid: Some(grid()),
                region: Some(BBox::new(0.5, 0.5, 2.5, 2.5)),
            }),
        ),
        (
            "serve.req.partials_bare",
            encode_request(&ServeRequest::Partials {
                tenant: t("shard-1"),
                grid: None,
                region: None,
            }),
        ),
        (
            "serve.req.sharded_rollup",
            encode_request(&ServeRequest::ShardedRollup {
                tenant: t("fleet"),
                query: whole,
                region: Some(BBox::new(-1.0, -1.0, 1.0, 1.0)),
            }),
        ),
        (
            "serve.req.subscribe",
            encode_request(&ServeRequest::Subscribe {
                tenant: t("acme"),
                sub: subscription(),
            }),
        ),
        (
            "serve.req.subscribe_bare",
            encode_request(&ServeRequest::Subscribe {
                tenant: t("acme"),
                sub: Subscription::new(TimeLevel::All, Measure::X, AggFn::Min),
            }),
        ),
        (
            "serve.req.notifications",
            encode_request(&ServeRequest::Notifications {
                tenant: t("acme"),
                since: 17,
            }),
        ),
        // --- serve replies ---
        ("serve.reply.pong", encode_reply(&ServeReply::Pong)),
        ("serve.reply.rows", encode_reply(&ServeReply::Rows(rows()))),
        (
            "serve.reply.repl",
            encode_reply(&ServeReply::Repl(vec![9; 5])),
        ),
        (
            "serve.reply.busy",
            encode_reply(&ServeReply::Busy(t("over quota"))),
        ),
        (
            "serve.reply.err",
            encode_reply(&ServeReply::Err(t("no such tenant"))),
        ),
        (
            "serve.reply.cells",
            encode_reply(&ServeReply::Cells(cells())),
        ),
        (
            "serve.reply.sharded_rows",
            encode_reply(&ServeReply::ShardedRows {
                rows: rows(),
                shards_pruned: 3,
                shards_queried: 1,
            }),
        ),
        (
            "serve.reply.subscribed",
            encode_reply(&ServeReply::Subscribed(SubId(11))),
        ),
        (
            "serve.reply.notifications",
            encode_reply(&ServeReply::Notifications {
                items: vec![notification()],
                next: 8,
            }),
        ),
        // --- replication ---
        (
            "repl.req.frames",
            gisolap_repl::Request::Frames {
                from_seq: 42,
                max: 7,
                epoch: 3,
            }
            .encode(),
        ),
        (
            "repl.req.snapshot",
            gisolap_repl::Request::Snapshot.encode(),
        ),
        (
            "repl.reply.frames",
            gisolap_repl::wire::encode_frames_reply(11, &wal, 6, 2).unwrap(),
        ),
        (
            "repl.reply.compacted",
            ReplyHead::Compacted {
                epoch: 2,
                retained_from: 17,
                leader_next_seq: 99,
            }
            .encode(),
        ),
        (
            "repl.reply.snapshot",
            ReplyHead::Snapshot(SnapshotTransfer {
                epoch: 4,
                lateness_seconds: 0,
                segment_seconds: 3600,
                next_seq: 9,
                segments: ingest.segments().to_vec(),
                tail: ingest.tail_state(),
            })
            .encode(),
        ),
        // --- sharding ---
        (
            "shard.manifest_file",
            file(FileKind::ShardManifest, |e| {
                ShardManifest {
                    epoch: 7,
                    spec: spatial,
                }
                .encode_to(e)
            }),
        ),
        (
            "shard.manifest_hash_bare",
            file(FileKind::ShardManifest, |e| {
                ShardManifest {
                    epoch: 1,
                    spec: PartitionerSpec::Hash {
                        shards: 7,
                        grid: None,
                    },
                }
                .encode_to(e)
            }),
        ),
        (
            "shard.journal_file",
            file(FileKind::RebalanceJournal, |e| {
                RebalanceJournal {
                    target_epoch: 9,
                    from: spatial,
                    to: PartitionerSpec::Hash {
                        shards: 3,
                        grid: Some(grid()),
                    },
                }
                .encode_to(e)
            }),
        ),
        // --- on-disk store files ---
        (
            "store.segment_file",
            on_disk(
                FileKind::Segment,
                &codec::encode_segment(&ingest.segments()[0]),
            ),
        ),
        (
            "store.checkpoint_file",
            on_disk(FileKind::Checkpoint, &codec::encode_tail(&tail())),
        ),
        (
            "store.checkpoint_empty",
            codec::encode_tail(&TailState {
                max_event_time: None,
                sealed_before: i64::MIN,
                records_ingested: 0,
                segments_sealed: 0,
                dead_letters: Vec::new(),
                buffers: Vec::new(),
            }),
        ),
        (
            "store.checkpoint_delta",
            payload(|e| tail_delta.encode_to(e)),
        ),
        (
            "store.wal_entry",
            codec::encode_wal_entry(wal[0].seq, &wal[0].op),
        ),
        ("store.manifest", payload(|e| manifest.encode_to(e))),
    ]
}

fn render(table: &[(&'static str, Vec<u8>)]) -> String {
    table
        .iter()
        .map(|(name, bytes)| format!("    (\"{name}\", \"{}\"),\n", hex(bytes)))
        .collect()
}

#[test]
fn wire_and_disk_bytes_are_pinned() {
    let actual = actual_bytes();
    let golden: Vec<(&'static str, Vec<u8>)> = GOLDEN_BYTES
        .iter()
        .map(|(name, hex)| (*name, unhex(hex)))
        .collect();
    assert!(
        actual == golden,
        "wire/on-disk bytes drifted; actual table:\n{}",
        render(&actual)
    );
}

/// The decoders read the pinned bytes back to values that re-encode to
/// the same bytes — so a decoder cannot drift while its encoder holds.
#[test]
fn pinned_bytes_decode_and_reencode_identically() {
    let message = |framed: &[u8]| {
        gisolap_serve::wire::read_message(&mut &framed[..])
            .unwrap()
            .unwrap()
    };
    let body = |file: &[u8], kind: FileKind| {
        let rest = codec::check_header(file, kind, "golden").unwrap();
        codec::read_single_frame(rest, "golden").unwrap().to_vec()
    };
    for (name, golden) in GOLDEN_BYTES {
        let bytes = unhex(golden);
        let again = match *name {
            n if n.starts_with("serve.req.") => {
                encode_request(&decode_request(&message(&bytes)).unwrap())
            }
            n if n.starts_with("serve.reply.") => {
                encode_reply(&decode_reply(&message(&bytes)).unwrap())
            }
            n if n.starts_with("repl.req.") => gisolap_repl::Request::decode(
                codec::read_single_frame(&bytes, "golden").unwrap(),
                "golden",
            )
            .unwrap()
            .encode(),
            "repl.reply.frames" => match gisolap_repl::wire::decode_reply(&bytes).unwrap() {
                gisolap_repl::Reply::Frames(b) => {
                    assert_eq!(b.corrupt_frames, 0);
                    let entries: Vec<WalEntry> = b
                        .entries
                        .into_iter()
                        .map(|(seq, op)| WalEntry { seq, op })
                        .collect();
                    gisolap_repl::wire::encode_frames_reply(
                        b.epoch,
                        &entries,
                        b.leader_next_seq,
                        b.retained_from,
                    )
                    .unwrap()
                }
                other => panic!("{other:?}"),
            },
            "repl.reply.compacted" | "repl.reply.snapshot" => {
                match gisolap_repl::wire::decode_reply(&bytes).unwrap() {
                    gisolap_repl::Reply::Compacted {
                        epoch,
                        retained_from,
                        leader_next_seq,
                    } => ReplyHead::Compacted {
                        epoch,
                        retained_from,
                        leader_next_seq,
                    }
                    .encode(),
                    gisolap_repl::Reply::Snapshot(s) => ReplyHead::Snapshot(s).encode(),
                    other => panic!("{other:?}"),
                }
            }
            n if n.starts_with("shard.manifest") => {
                let body = body(&bytes, FileKind::ShardManifest);
                let m = ShardManifest::decode(&body, "golden").unwrap();
                file(FileKind::ShardManifest, |e| m.encode_to(e))
            }
            "shard.journal_file" => {
                let body = body(&bytes, FileKind::RebalanceJournal);
                let j = RebalanceJournal::decode(&body, "golden").unwrap();
                file(FileKind::RebalanceJournal, |e| j.encode_to(e))
            }
            "store.segment_file" => on_disk(
                FileKind::Segment,
                &codec::encode_segment(
                    &codec::decode_segment(&body(&bytes, FileKind::Segment), "golden").unwrap(),
                ),
            ),
            "store.checkpoint_file" => on_disk(
                FileKind::Checkpoint,
                &codec::encode_tail(
                    &codec::decode_tail(&body(&bytes, FileKind::Checkpoint), "golden").unwrap(),
                ),
            ),
            "store.checkpoint_empty" => {
                codec::encode_tail(&codec::decode_tail(&bytes, "golden").unwrap())
            }
            "store.checkpoint_delta" => {
                let delta = codec::decode_tail_delta(&bytes, "golden").unwrap();
                payload(|e| delta.encode_to(e))
            }
            "store.wal_entry" => {
                let (seq, op) = codec::decode_wal_entry(&bytes, "golden").unwrap();
                codec::encode_wal_entry(seq, &op)
            }
            "store.manifest" => {
                let manifest = codec::decode_manifest(&bytes, "golden").unwrap();
                payload(|e| manifest.encode_to(e))
            }
            other => panic!("fixture {other} has no decoder arm"),
        };
        assert_eq!(
            hex(&again),
            *golden,
            "{name}: decode → encode changed bytes"
        );
    }
}

/// Every `messages!` family, with the fixture that pins each of its
/// variants, in `VARIANTS` order. Nested families (grids, specs,
/// subscriptions, notifications, snapshot transfers, manifest entries)
/// are pinned inside the message that carries them.
fn coverage() -> Vec<(&'static str, &'static [&'static str], Vec<&'static str>)> {
    vec![
        (
            "ServeRequest",
            ServeRequest::VARIANTS,
            vec![
                "serve.req.ping",
                "serve.req.rollup",
                "serve.req.repl",
                "serve.req.partials",
                "serve.req.sharded_rollup",
                "serve.req.subscribe",
                "serve.req.notifications",
            ],
        ),
        (
            "ServeReply",
            ServeReply::VARIANTS,
            vec![
                "serve.reply.pong",
                "serve.reply.rows",
                "serve.reply.repl",
                "serve.reply.busy",
                "serve.reply.err",
                "serve.reply.cells",
                "serve.reply.sharded_rows",
                "serve.reply.subscribed",
                "serve.reply.notifications",
            ],
        ),
        (
            "Request",
            gisolap_repl::Request::VARIANTS,
            vec!["repl.req.frames", "repl.req.snapshot"],
        ),
        (
            "ReplyHead",
            ReplyHead::VARIANTS,
            vec![
                "repl.reply.frames",
                "repl.reply.compacted",
                "repl.reply.snapshot",
            ],
        ),
        (
            "SnapshotTransfer",
            SnapshotTransfer::VARIANTS,
            vec!["repl.reply.snapshot"],
        ),
        ("GridSpec", GridSpec::VARIANTS, vec!["serve.req.partials"]),
        (
            "PartitionerSpec",
            PartitionerSpec::VARIANTS,
            vec!["shard.manifest_hash_bare", "shard.manifest_file"],
        ),
        (
            "ShardManifest",
            ShardManifest::VARIANTS,
            vec!["shard.manifest_file"],
        ),
        (
            "RebalanceJournal",
            RebalanceJournal::VARIANTS,
            vec!["shard.journal_file"],
        ),
        (
            "Subscription",
            Subscription::VARIANTS,
            vec!["serve.req.subscribe"],
        ),
        (
            "Threshold",
            gisolap_sub::Threshold::VARIANTS,
            vec!["serve.req.subscribe"],
        ),
        (
            "Notification",
            Notification::VARIANTS,
            vec!["serve.reply.notifications"],
        ),
        ("Manifest", Manifest::VARIANTS, vec!["store.manifest"]),
        (
            "SegmentEntry",
            SegmentEntry::VARIANTS,
            vec!["store.manifest"],
        ),
        (
            "TailDelta",
            TailDelta::VARIANTS,
            vec!["store.checkpoint_delta"],
        ),
    ]
}

/// Non-test, non-comment source lines of every `crates/*/src` file.
fn crate_sources() -> Vec<(PathBuf, Vec<String>)> {
    fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap().map(Result::unwrap) {
            let path = entry.path();
            if path.is_dir() {
                rs_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut files = Vec::new();
    for member in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = member.unwrap().path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|f| {
            let text = std::fs::read_to_string(&f).unwrap();
            let code = text
                .lines()
                .take_while(|l| !l.starts_with("#[cfg(test)]"))
                .filter(|l| !l.trim_start().starts_with("//"))
                .map(str::to_string)
                .collect();
            (f.strip_prefix(root).unwrap().to_path_buf(), code)
        })
        .collect()
}

/// The type each `messages!` invocation in the crates declares.
fn declared_families() -> Vec<String> {
    let mut names = Vec::new();
    for (_, code) in crate_sources() {
        let mut open = false;
        for line in &code {
            let words: Vec<&str> = line.split_whitespace().collect();
            if !open {
                open = matches!(words[..], [.., call, "{"] if call.ends_with("messages!"));
                continue;
            }
            if let Some(i) = words.iter().position(|w| *w == "enum" || *w == "struct") {
                // The macro's own recursion declares `$name`.
                if !words[i + 1].starts_with('$') {
                    names.push(words[i + 1].to_string());
                }
                open = false;
            }
        }
    }
    names
}

#[test]
fn every_declared_variant_has_a_fixture() {
    let pinned: Vec<&str> = GOLDEN_BYTES.iter().map(|(name, _)| *name).collect();
    let coverage = coverage();
    for (family, variants, fixtures) in &coverage {
        assert_eq!(
            variants.len(),
            fixtures.len(),
            "{family} declares {variants:?}; coverage() must name one golden fixture per variant"
        );
        for (variant, fixture) in variants.iter().zip(fixtures) {
            assert!(
                pinned.contains(fixture),
                "{family}::{variant}: fixture {fixture} is not in GOLDEN_BYTES"
            );
        }
    }
    let mut declared = declared_families();
    declared.sort();
    let mut covered: Vec<String> = coverage.iter().map(|(f, ..)| f.to_string()).collect();
    covered.sort();
    assert_eq!(
        declared, covered,
        "every messages! family needs a row in coverage()"
    );
}

/// Public `encode_*`/`decode_*` functions written by hand, each with the
/// reason it is not a `messages!` declaration.
const HAND_WRITTEN: &[(&str, &str, &str)] = &[
    (
        "crates/store/src/messages.rs",
        "encode_to",
        "the declaration's own",
    ),
    (
        "crates/store/src/messages.rs",
        "decode_from",
        "the declaration's own",
    ),
    (
        "crates/store/src/codec.rs",
        "encode_rows",
        "hot field codec",
    ),
    (
        "crates/store/src/codec.rs",
        "decode_rows",
        "hot field codec",
    ),
    (
        "crates/store/src/codec.rs",
        "encode_cells",
        "hot field codec",
    ),
    (
        "crates/store/src/codec.rs",
        "decode_cells",
        "hot field codec",
    ),
    (
        "crates/store/src/codec.rs",
        "encode_segment",
        "bulk record decode",
    ),
    (
        "crates/store/src/codec.rs",
        "decode_segment",
        "bulk record decode",
    ),
    (
        "crates/store/src/codec.rs",
        "encode_wal_entry",
        "borrowed-batch encode",
    ),
    (
        "crates/store/src/codec.rs",
        "decode_wal_entry",
        "borrowed-batch encode",
    ),
    (
        "crates/store/src/codec.rs",
        "encode_tail",
        "TailState is the stream crate's",
    ),
    (
        "crates/store/src/codec.rs",
        "decode_tail",
        "TailState is the stream crate's",
    ),
    (
        "crates/store/src/codec.rs",
        "decode_manifest",
        "benchmark-called wrapper",
    ),
    (
        "crates/store/src/codec.rs",
        "decode_tail_delta",
        "benchmark-called wrapper",
    ),
    (
        "crates/serve/src/wire.rs",
        "encode_request",
        "benchmark-called wrapper",
    ),
    (
        "crates/serve/src/wire.rs",
        "decode_request",
        "benchmark-called wrapper",
    ),
    (
        "crates/serve/src/wire.rs",
        "encode_reply",
        "benchmark-called wrapper",
    ),
    (
        "crates/serve/src/wire.rs",
        "decode_reply",
        "benchmark-called wrapper",
    ),
    (
        "crates/repl/src/wire.rs",
        "encode_frames_reply",
        "one CRC per entry",
    ),
    (
        "crates/repl/src/wire.rs",
        "decode_reply",
        "one CRC per entry",
    ),
];

#[test]
fn every_codec_is_declared_or_allowlisted() {
    let mut offenders = Vec::new();
    for (path, code) in crate_sources() {
        for line in &code {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let codec = name.starts_with("encode_") || name.starts_with("decode_");
            let listed = HAND_WRITTEN
                .iter()
                .any(|(file, f, _)| Path::new(file) == path && *f == name);
            if codec && !listed {
                offenders.push(format!("{}: pub fn {name}", path.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "declare these layouts with messages! (or allowlist them with a reason): {offenders:?}"
    );
}

/// Payloads of the fixtures that pinned the framed test-only forms
/// (`shard::wire::{encode_spec, encode_cells_payload}`,
/// `sub::wire::{encode_subscription, encode_notification}`), with the
/// fixture that still carries each one's bytes.
const ENCLOSED: &[(&str, &str, &str)] = &[
    ("shard.spec.hash_bare", "010700000000", "shard.manifest_hash_bare"),
    (
        "shard.spec.spatial",
        "020400000000000000000010c000000000000000c0000000000000104000000000000000400800000004000000",
        "shard.manifest_file",
    ),
    (
        "shard.cells_payload",
        "020000000000000003000000000000000004000000000000000000000000802440000000000000f43f0000000000001240040000000000000000000000000000c0000000000000f8bf000000000000d03f0700000000000000010c000000040000000000000000000000000000c0000000000000f8bf000000000000d03f04000000000000000000000000802440000000000000f43f0000000000001240",
        "serve.reply.cells",
    ),
    (
        "sub.subscription",
        "01000000000000f8bf00000000000000000000000000000440000000000000204003010401180000000100000000000024400000000000000040",
        "serve.req.subscribe",
    ),
    ("sub.subscription_bare", "000900000000", "serve.req.subscribe_bare"),
    (
        "sub.notification",
        "2a000000000000000700000000000000100e0000000000000200000000000000fdffffffffffffff00000000000000f83f107a0700000000000107000000010000000000f87f01000000000000f0ff0002",
        "serve.reply.notifications",
    ),
];

#[test]
fn removed_fixtures_stay_pinned_inside_enclosing_ones() {
    for (old, payload, fixture) in ENCLOSED {
        let (_, hex) = GOLDEN_BYTES
            .iter()
            .find(|(name, _)| name == fixture)
            .unwrap_or_else(|| panic!("{fixture} is not pinned"));
        assert!(
            hex.contains(payload),
            "{old}'s bytes are not inside {fixture}"
        );
    }
}

/// A family snapshot with counter *i* (in exported order) holding *i* + 1.
fn numbered<C: CounterSet>() -> C {
    let mut i = 0;
    C::default().map(|_, _| {
        i += 1;
        i
    })
}

/// One registry filled from every counter family, each [`numbered`].
/// Engine phase timers stay zero: they only advance by wall time.
fn actual_exposition() -> String {
    let mut registry = MetricsRegistry::new();

    let gis = Gis::new();
    let moft = Moft::new();
    let engine = NaiveEngine::new(&gis, &moft);
    let stats = engine.stats();
    stats.records_scanned.add(1);
    stats.layer_probes.add(3);
    stats.overlay_hits.add(4);
    stats.overlay_misses.add(5);
    stats.legs_cut.add(6);
    stats.queries.add(7);
    stats.records_ingested.add(11);
    stats.records_late_dropped.add(12);
    stats.segments_sealed.add(13);
    stats.partials_merged.add(14);
    stats.tail_records_scanned.add(15);
    stats.index_interval_probes.add(16);
    stats.index_bvh_probes.add(17);
    stats.index_zones_scanned.add(18);
    stats.index_zones_pruned.add(19);
    stats.index_records_pruned.add(20);
    gisolap_core::fill_engine_metrics(&mut registry, &engine);

    registry.fill(&numbered::<IngestStats>(), &[]);
    registry.fill(&numbered::<StoreStats>(), &[]);
    registry.fill(&numbered::<ReplStats>(), &[]);
    registry.fill(&numbered::<LeaderStats>(), &[]);
    registry.fill(&numbered::<ServeStats>(), &[]);
    registry.fill(&numbered::<ShardStats>(), &[]);
    registry.fill(&numbered::<RouteStats>(), &[]);
    registry.fill(&numbered::<ElasticStats>(), &[]);
    registry.fill(&numbered::<SubStats>(), &[]);
    registry.render_prometheus()
}

#[test]
fn prometheus_exposition_is_pinned() {
    let actual = actual_exposition();
    assert!(
        actual == GOLDEN_EXPOSITION,
        "Prometheus exposition drifted; actual text:\n{actual}"
    );
}

const GOLDEN_BYTES: &[(&str, &str)] = &[
    ("serve.req.ping", "09000000010400000061636d65356bb851"),
    ("serve.req.rollup", "1c0000000203000000742d3103010401100e000000000000201c0000000000001e0634a9"),
    ("serve.req.repl", "0e00000003010000007804000000010203ffebe56a02"),
    ("serve.req.partials", "56000000040700000073686172642d300100000000000010c000000000000000c000000000000010400000000000000040080000000400000001000000000000e03f000000000000e03f0000000000000440000000000000044019c907f6"),
    ("serve.req.partials_bare", "0e000000040700000073686172642d310000c8762c0f"),
    ("serve.req.sharded_rollup", "2f0000000505000000666c6565740200030001000000000000f0bf000000000000f0bf000000000000f03f000000000000f03f60fd5a54"),
    ("serve.req.subscribe", "43000000060400000061636d6501000000000000f8bf0000000000000000000000000000044000000000000020400301040118000000010000000000002440000000000000004062e5ddfa"),
    ("serve.req.subscribe_bare", "0f000000060400000061636d65000900000000783e3e28"),
    ("serve.req.notifications", "11000000070400000061636d651100000000000000b16b71c5"),
    ("serve.reply.pong", "01000000011bdf05a5"),
    ("serve.reply.rows", "2f000000020200000000000000fdffffffffffffff00000000000000f83f107a0700000000000107000000010000000000f87fc8f7a4c1"),
    ("serve.reply.repl", "0a00000003050000000909090909a383fd95"),
    ("serve.reply.busy", "0f000000040a0000006f7665722071756f7461a6cba362"),
    ("serve.reply.err", "13000000050e0000006e6f20737563682074656e616e747a783daa"),
    ("serve.reply.cells", "9f00000006020000000000000003000000000000000004000000000000000000000000802440000000000000f43f0000000000001240040000000000000000000000000000c0000000000000f8bf000000000000d03f0700000000000000010c000000040000000000000000000000000000c0000000000000f8bf000000000000d03f04000000000000000000000000802440000000000000f43f0000000000001240ed631bde"),
    ("serve.reply.sharded_rows", "370000000703000000010000000200000000000000fdffffffffffffff00000000000000f83f107a0700000000000107000000010000000000f87f6d72618f"),
    ("serve.reply.subscribed", "09000000080b00000000000000e0aabb00"),
    ("serve.reply.notifications", "6200000009080000000000000001000000000000002a000000000000000700000000000000100e0000000000000200000000000000fdffffffffffffff00000000000000f83f107a0700000000000107000000010000000000f87f01000000000000f0ff0002b88c6a59"),
    ("repl.req.frames", "15000000012a000000000000000700000003000000000000004c582069"),
    ("repl.req.snapshot", "0100000002a18e0c3c"),
    ("repl.reply.frames", "1d000000010b000000000000000200000006000000000000000200000000000000d8eb58bc51000000040000000000000000020000000000000001000000000000000a00000000000000000000000000f03f000000000000004002000000000000001400000000000000000000000000f0bf000000000000e03f7c7e026f09000000050000000000000001776199db"),
    ("repl.reply.compacted", "19000000020200000000000000110000000000000063000000000000008aecb9b6"),
    ("repl.reply.snapshot", "d40100000304000000000000000000000000000000100e000000000000090000000000000002000000c10000000000000000000000030000000000000001000000000000003200000000000000000000000000c03f000000000000d03f02000000000000006400000000000000000000000000154000000000000016c009000000000000000a000000000000000000000000001c400000000000001c40010000000000000000000000000000000003000000000000000000000000c02840000000000000c03f0000000000001c400300000000000000000000000000fc3f00000000000016c00000000000001c4081000000010000000000000001000000000000000100000000000000a00f000000000000000000000000f03f000000000000f03f01000000000000000100000000000000000100000000000000000000000000f03f000000000000f03f000000000000f03f0100000000000000000000000000f03f000000000000f03f000000000000f03f6100000001401f00000000000002000000000000000500000000000000020000000000000000000000000000000100000000000000020000000000000001000000000000000300000000000000401f00000000000000000000000004400000000000000c400df4875a"),
    ("shard.manifest_file", "47534c5053544f5205030036000000320700000000000000020400000000000000000010c000000000000000c00000000000001040000000000000004008000000040000009936e2e4"),
    ("shard.manifest_hash_bare", "47534c5053544f520503000f00000032010000000000000001070000000064fd8157"),
    ("shard.journal_file", "47534c5053544f52070300640000004a0900000000000000020400000000000000000010c000000000000000c000000000000010400000000000000040080000000400000001030000000100000000000010c000000000000000c0000000000000104000000000000000400800000004000000b1cb2888"),
    ("store.segment_file", "47534c5053544f52010300c10000000000000000000000030000000000000001000000000000003200000000000000000000000000c03f000000000000d03f02000000000000006400000000000000000000000000154000000000000016c009000000000000000a000000000000000000000000001c400000000000001c40010000000000000000000000000000000003000000000000000000000000c02840000000000000c03f0000000000001c400300000000000000000000000000fc3f00000000000016c00000000000001c40a027a542"),
    ("store.checkpoint_file", "47534c5053544f52040300d100000001841c00000000000001000000000000000600000000000000010000000000000001000000000000000900000000000000ceffffffffffffff000000000000000000000000000000000200000000000000010000000000000002000000000000000100000000000000740e000000000000000000000000104000000000000014400200000000000000d80e00000000000000000000000018400000000000001c40020000000000000001000000000000000300000000000000841c00000000000000000000000020400000000000002240b9ab61be"),
    ("store.checkpoint_empty", "0000000000000000800000000000000000000000000000000000000000000000000000000000000000"),
    ("store.checkpoint_delta", "01841c00000000000001000000000000000600000000000000010000000000000001000000000000000800000000000000ffffffffffffffff000000000000f03f000000000000f03f0100000000000000020000000000000001000000000000000300000000000000841c0000000000000000000000002040000000000000224001000000000000000000000000000000"),
    ("store.wal_entry", "040000000000000000020000000000000001000000000000000a00000000000000000000000000f03f000000000000004002000000000000001400000000000000000000000000f0bf000000000000e03f"),
    ("store.manifest", "03000000000000002c01000000000000100e0000000000000200000000000000ffffffffffffffff00000000000000000c0000007365672d2d312d302e736567020000000000000002000000000000000b0000007365672d322d322e7365670107000000636b2d332e636b010000000000000009000000636b642d342e636b640900000077616c2d332e6c6f670c00000000000000"),
];

const GOLDEN_EXPOSITION: &str = "\
# HELP gisolap_records_scanned_total MOFT records examined by time filtering.
# TYPE gisolap_records_scanned_total counter
gisolap_records_scanned_total{engine=\"naive\"} 1
# HELP gisolap_layer_probes_total Layer-geometry BVH searches issued.
# TYPE gisolap_layer_probes_total counter
gisolap_layer_probes_total{engine=\"naive\"} 3
# HELP gisolap_overlay_hits_total Layer-pair lookups answered from the precomputed overlay.
# TYPE gisolap_overlay_hits_total counter
gisolap_overlay_hits_total{engine=\"naive\"} 4
# HELP gisolap_overlay_misses_total Layer-pair requests computed per call (no precomputation).
# TYPE gisolap_overlay_misses_total counter
gisolap_overlay_misses_total{engine=\"naive\"} 5
# HELP gisolap_legs_cut_total Trajectory sub-legs produced by time-window cutting.
# TYPE gisolap_legs_cut_total counter
gisolap_legs_cut_total{engine=\"naive\"} 6
# HELP gisolap_queries_total Region evaluations started.
# TYPE gisolap_queries_total counter
gisolap_queries_total{engine=\"naive\"} 7
# HELP gisolap_phase_seconds_total Wall time spent per evaluation phase, seconds.
# TYPE gisolap_phase_seconds_total counter
gisolap_phase_seconds_total{engine=\"naive\",phase=\"time_filter\"} 0
gisolap_phase_seconds_total{engine=\"naive\",phase=\"filter_resolve\"} 0
gisolap_phase_seconds_total{engine=\"naive\",phase=\"spatial_match\"} 0
# HELP gisolap_records_ingested_total Stream records accepted into ingest buffers.
# TYPE gisolap_records_ingested_total counter
gisolap_records_ingested_total{engine=\"naive\"} 11
# HELP gisolap_records_late_dropped_total Stream records dead-lettered as later than the watermark.
# TYPE gisolap_records_late_dropped_total counter
gisolap_records_late_dropped_total{engine=\"naive\"} 12
# HELP gisolap_segments_sealed_total Stream segments sealed.
# TYPE gisolap_segments_sealed_total counter
gisolap_segments_sealed_total{engine=\"naive\"} 13
# HELP gisolap_partials_merged_total Partial-aggregate entries merged into the delta cube.
# TYPE gisolap_partials_merged_total counter
gisolap_partials_merged_total{engine=\"naive\"} 14
# HELP gisolap_tail_records_scanned_total Live tail records scanned by incremental rollups.
# TYPE gisolap_tail_records_scanned_total counter
gisolap_tail_records_scanned_total{engine=\"naive\"} 15
# HELP gisolap_index_interval_probes_total Interval-tree window searches over object time extents.
# TYPE gisolap_index_interval_probes_total counter
gisolap_index_interval_probes_total{engine=\"naive\"} 16
# HELP gisolap_index_bvh_probes_total BVH searches over object bounding boxes.
# TYPE gisolap_index_bvh_probes_total counter
gisolap_index_bvh_probes_total{engine=\"naive\"} 17
# HELP gisolap_index_zones_scanned_total Zone-map blocks scanned after index pruning.
# TYPE gisolap_index_zones_scanned_total counter
gisolap_index_zones_scanned_total{engine=\"naive\"} 18
# HELP gisolap_index_zones_pruned_total Zone-map blocks skipped wholesale by index pruning.
# TYPE gisolap_index_zones_pruned_total counter
gisolap_index_zones_pruned_total{engine=\"naive\"} 19
# HELP gisolap_index_records_pruned_total Records excluded by index pruning before exact tests.
# TYPE gisolap_index_records_pruned_total counter
gisolap_index_records_pruned_total{engine=\"naive\"} 20
# HELP gisolap_ingest_records_ingested_total Streaming ingest counter.
# TYPE gisolap_ingest_records_ingested_total counter
gisolap_ingest_records_ingested_total 1
# HELP gisolap_ingest_records_late_dropped_total Streaming ingest counter.
# TYPE gisolap_ingest_records_late_dropped_total counter
gisolap_ingest_records_late_dropped_total 2
# HELP gisolap_ingest_segments_sealed_total Streaming ingest counter.
# TYPE gisolap_ingest_segments_sealed_total counter
gisolap_ingest_segments_sealed_total 3
# HELP gisolap_ingest_partials_merged_total Streaming ingest counter.
# TYPE gisolap_ingest_partials_merged_total counter
gisolap_ingest_partials_merged_total 4
# HELP gisolap_ingest_tail_records_scanned_total Streaming ingest counter.
# TYPE gisolap_ingest_tail_records_scanned_total counter
gisolap_ingest_tail_records_scanned_total 5
# HELP gisolap_store_wal_appends_total Durable segment store counter.
# TYPE gisolap_store_wal_appends_total counter
gisolap_store_wal_appends_total 1
# HELP gisolap_store_wal_records_total Durable segment store counter.
# TYPE gisolap_store_wal_records_total counter
gisolap_store_wal_records_total 2
# HELP gisolap_store_wal_bytes_total Durable segment store counter.
# TYPE gisolap_store_wal_bytes_total counter
gisolap_store_wal_bytes_total 3
# HELP gisolap_store_wal_syncs_total Durable segment store counter.
# TYPE gisolap_store_wal_syncs_total counter
gisolap_store_wal_syncs_total 4
# HELP gisolap_store_segments_flushed_total Durable segment store counter.
# TYPE gisolap_store_segments_flushed_total counter
gisolap_store_segments_flushed_total 5
# HELP gisolap_store_flush_bytes_total Durable segment store counter.
# TYPE gisolap_store_flush_bytes_total counter
gisolap_store_flush_bytes_total 6
# HELP gisolap_store_checkpoints_total Durable segment store counter.
# TYPE gisolap_store_checkpoints_total counter
gisolap_store_checkpoints_total 7
# HELP gisolap_store_delta_checkpoints_total Durable segment store counter.
# TYPE gisolap_store_delta_checkpoints_total counter
gisolap_store_delta_checkpoints_total 8
# HELP gisolap_store_recoveries_total Durable segment store counter.
# TYPE gisolap_store_recoveries_total counter
gisolap_store_recoveries_total 9
# HELP gisolap_store_wal_entries_replayed_total Durable segment store counter.
# TYPE gisolap_store_wal_entries_replayed_total counter
gisolap_store_wal_entries_replayed_total 10
# HELP gisolap_store_wal_records_replayed_total Durable segment store counter.
# TYPE gisolap_store_wal_records_replayed_total counter
gisolap_store_wal_records_replayed_total 11
# HELP gisolap_store_wal_truncated_bytes_total Durable segment store counter.
# TYPE gisolap_store_wal_truncated_bytes_total counter
gisolap_store_wal_truncated_bytes_total 12
# HELP gisolap_store_compactions_total Durable segment store counter.
# TYPE gisolap_store_compactions_total counter
gisolap_store_compactions_total 13
# HELP gisolap_store_segments_compacted_total Durable segment store counter.
# TYPE gisolap_store_segments_compacted_total counter
gisolap_store_segments_compacted_total 14
# HELP gisolap_store_corruption_detected_total Durable segment store counter.
# TYPE gisolap_store_corruption_detected_total counter
gisolap_store_corruption_detected_total 15
# HELP gisolap_repl_polls_total Replication follower counter.
# TYPE gisolap_repl_polls_total counter
gisolap_repl_polls_total 1
# HELP gisolap_repl_entries_applied_total Replication follower counter.
# TYPE gisolap_repl_entries_applied_total counter
gisolap_repl_entries_applied_total 2
# HELP gisolap_repl_records_applied_total Replication follower counter.
# TYPE gisolap_repl_records_applied_total counter
gisolap_repl_records_applied_total 3
# HELP gisolap_repl_duplicates_skipped_total Replication follower counter.
# TYPE gisolap_repl_duplicates_skipped_total counter
gisolap_repl_duplicates_skipped_total 4
# HELP gisolap_repl_seq_gaps_total Replication follower counter.
# TYPE gisolap_repl_seq_gaps_total counter
gisolap_repl_seq_gaps_total 5
# HELP gisolap_repl_corrupt_frames_total Replication follower counter.
# TYPE gisolap_repl_corrupt_frames_total counter
gisolap_repl_corrupt_frames_total 6
# HELP gisolap_repl_corrupt_replies_total Replication follower counter.
# TYPE gisolap_repl_corrupt_replies_total counter
gisolap_repl_corrupt_replies_total 7
# HELP gisolap_repl_transport_errors_total Replication follower counter.
# TYPE gisolap_repl_transport_errors_total counter
gisolap_repl_transport_errors_total 8
# HELP gisolap_repl_retries_total Replication follower counter.
# TYPE gisolap_repl_retries_total counter
gisolap_repl_retries_total 9
# HELP gisolap_repl_reconnects_total Replication follower counter.
# TYPE gisolap_repl_reconnects_total counter
gisolap_repl_reconnects_total 10
# HELP gisolap_repl_snapshot_fallbacks_total Replication follower counter.
# TYPE gisolap_repl_snapshot_fallbacks_total counter
gisolap_repl_snapshot_fallbacks_total 11
# HELP gisolap_repl_snapshots_installed_total Replication follower counter.
# TYPE gisolap_repl_snapshots_installed_total counter
gisolap_repl_snapshots_installed_total 12
# HELP gisolap_repl_stale_epoch_rejections_total Replication follower counter.
# TYPE gisolap_repl_stale_epoch_rejections_total counter
gisolap_repl_stale_epoch_rejections_total 13
# HELP gisolap_repl_leader_requests_total Replication leader counter.
# TYPE gisolap_repl_leader_requests_total counter
gisolap_repl_leader_requests_total 1
# HELP gisolap_repl_leader_frames_shipped_total Replication leader counter.
# TYPE gisolap_repl_leader_frames_shipped_total counter
gisolap_repl_leader_frames_shipped_total 2
# HELP gisolap_repl_leader_compacted_replies_total Replication leader counter.
# TYPE gisolap_repl_leader_compacted_replies_total counter
gisolap_repl_leader_compacted_replies_total 3
# HELP gisolap_repl_leader_snapshots_shipped_total Replication leader counter.
# TYPE gisolap_repl_leader_snapshots_shipped_total counter
gisolap_repl_leader_snapshots_shipped_total 4
# HELP gisolap_repl_leader_bad_requests_total Replication leader counter.
# TYPE gisolap_repl_leader_bad_requests_total counter
gisolap_repl_leader_bad_requests_total 5
# HELP gisolap_repl_leader_fenced_rejections_total Replication leader counter.
# TYPE gisolap_repl_leader_fenced_rejections_total counter
gisolap_repl_leader_fenced_rejections_total 6
# HELP gisolap_serve_connections_accepted_total Query/replication server counter.
# TYPE gisolap_serve_connections_accepted_total counter
gisolap_serve_connections_accepted_total 1
# HELP gisolap_serve_connections_rejected_total Query/replication server counter.
# TYPE gisolap_serve_connections_rejected_total counter
gisolap_serve_connections_rejected_total 2
# HELP gisolap_serve_requests_total Query/replication server counter.
# TYPE gisolap_serve_requests_total counter
gisolap_serve_requests_total 3
# HELP gisolap_serve_rollup_requests_total Query/replication server counter.
# TYPE gisolap_serve_rollup_requests_total counter
gisolap_serve_rollup_requests_total 4
# HELP gisolap_serve_repl_requests_total Query/replication server counter.
# TYPE gisolap_serve_repl_requests_total counter
gisolap_serve_repl_requests_total 5
# HELP gisolap_serve_ping_requests_total Query/replication server counter.
# TYPE gisolap_serve_ping_requests_total counter
gisolap_serve_ping_requests_total 6
# HELP gisolap_serve_partials_requests_total Query/replication server counter.
# TYPE gisolap_serve_partials_requests_total counter
gisolap_serve_partials_requests_total 7
# HELP gisolap_serve_sharded_requests_total Query/replication server counter.
# TYPE gisolap_serve_sharded_requests_total counter
gisolap_serve_sharded_requests_total 8
# HELP gisolap_serve_subscribe_requests_total Query/replication server counter.
# TYPE gisolap_serve_subscribe_requests_total counter
gisolap_serve_subscribe_requests_total 9
# HELP gisolap_serve_notifications_requests_total Query/replication server counter.
# TYPE gisolap_serve_notifications_requests_total counter
gisolap_serve_notifications_requests_total 10
# HELP gisolap_serve_busy_rejections_total Query/replication server counter.
# TYPE gisolap_serve_busy_rejections_total counter
gisolap_serve_busy_rejections_total 11
# HELP gisolap_serve_quota_rejections_total Query/replication server counter.
# TYPE gisolap_serve_quota_rejections_total counter
gisolap_serve_quota_rejections_total 12
# HELP gisolap_serve_bad_requests_total Query/replication server counter.
# TYPE gisolap_serve_bad_requests_total counter
gisolap_serve_bad_requests_total 13
# HELP gisolap_serve_bytes_in_total Query/replication server counter.
# TYPE gisolap_serve_bytes_in_total counter
gisolap_serve_bytes_in_total 14
# HELP gisolap_serve_bytes_out_total Query/replication server counter.
# TYPE gisolap_serve_bytes_out_total counter
gisolap_serve_bytes_out_total 15
# HELP gisolap_shard_queries_total Shard coordinator counter.
# TYPE gisolap_shard_queries_total counter
gisolap_shard_queries_total 1
# HELP gisolap_shard_shards_queried_total Shard coordinator counter.
# TYPE gisolap_shard_shards_queried_total counter
gisolap_shard_shards_queried_total 2
# HELP gisolap_shard_shards_pruned_total Shard coordinator counter.
# TYPE gisolap_shard_shards_pruned_total counter
gisolap_shard_shards_pruned_total 3
# HELP gisolap_shard_cells_gathered_total Shard coordinator counter.
# TYPE gisolap_shard_cells_gathered_total counter
gisolap_shard_cells_gathered_total 4
# HELP gisolap_shard_cells_window_pruned_total Shard coordinator counter.
# TYPE gisolap_shard_cells_window_pruned_total counter
gisolap_shard_cells_window_pruned_total 5
# HELP gisolap_shard_gather_merges_total Shard coordinator counter.
# TYPE gisolap_shard_gather_merges_total counter
gisolap_shard_gather_merges_total 6
# HELP gisolap_shard_routed_batches_total Shard routing counter.
# TYPE gisolap_shard_routed_batches_total counter
gisolap_shard_routed_batches_total 1
# HELP gisolap_shard_routed_records_total Shard routing counter.
# TYPE gisolap_shard_routed_records_total counter
gisolap_shard_routed_records_total 2
# HELP gisolap_elastic_probes_total Shard elasticity counter.
# TYPE gisolap_elastic_probes_total counter
gisolap_elastic_probes_total 1
# HELP gisolap_elastic_probe_failures_total Shard elasticity counter.
# TYPE gisolap_elastic_probe_failures_total counter
gisolap_elastic_probe_failures_total 2
# HELP gisolap_elastic_lease_renewals_total Shard elasticity counter.
# TYPE gisolap_elastic_lease_renewals_total counter
gisolap_elastic_lease_renewals_total 3
# HELP gisolap_elastic_failovers_total Shard elasticity counter.
# TYPE gisolap_elastic_failovers_total counter
gisolap_elastic_failovers_total 4
# HELP gisolap_sub_registered_total Standing-query counter.
# TYPE gisolap_sub_registered_total counter
gisolap_sub_registered_total 1
# HELP gisolap_sub_notifications_total Standing-query counter.
# TYPE gisolap_sub_notifications_total counter
gisolap_sub_notifications_total 2
# HELP gisolap_sub_seals_folded_total Standing-query counter.
# TYPE gisolap_sub_seals_folded_total counter
gisolap_sub_seals_folded_total 3
# HELP gisolap_sub_threshold_fires_total Standing-query counter.
# TYPE gisolap_sub_threshold_fires_total counter
gisolap_sub_threshold_fires_total 4
";
