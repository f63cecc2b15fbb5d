//! Byte layouts for everything sharding persists or ships: partitioner
//! specs (the `SHARDS` manifest payload), the rebalance journal, grids,
//! and per-shard cell sets. All of it rides the store's CRC framing, and
//! every field (boxes, optional grids, cells) uses
//! `gisolap_store::codec`'s formats — this module owns only the message
//! layouts and their version bytes.

use crate::partition::{GridSpec, PartitionerSpec};
use gisolap_store::codec::{dec_bbox, decode_cells, enc_bbox, encode_cells, frame, Dec, Enc};
use gisolap_store::framing::decode_single_frame;
use gisolap_store::{Result, StoreError};
use gisolap_stream::{CellPartial, GroupKey};

/// Corruption label for shard wire payloads.
pub const WIRE: &str = "shard-wire";

const KIND_HASH: u8 = 1;
const KIND_SPATIAL: u8 = 2;

/// Version byte opening a v2 `SHARDS` manifest payload. A v1 payload
/// began directly with the partitioner kind (1 or 2), so this byte is
/// deliberately outside the kind space and the two formats can never be
/// confused.
const MANIFEST_V2: u8 = 0x32;

/// Appends a grid spec (bbox, then nx, ny).
pub fn enc_grid(e: &mut Enc, g: &GridSpec) {
    enc_bbox(e, &g.bbox);
    e.u32(g.nx);
    e.u32(g.ny);
}

/// Reads a grid spec, re-validating it (a manifest edited by hand must
/// not smuggle a zero-cell grid past the constructor).
pub fn dec_grid(d: &mut Dec<'_>) -> Result<GridSpec> {
    let bbox = dec_bbox(d)?;
    let nx = d.u32()?;
    let ny = d.u32()?;
    GridSpec::new(bbox, nx, ny)
}

fn enc_spec(e: &mut Enc, spec: &PartitionerSpec) {
    match *spec {
        PartitionerSpec::Hash { shards, grid } => {
            e.u8(KIND_HASH);
            e.u32(shards);
            e.opt(grid.as_ref(), enc_grid);
        }
        PartitionerSpec::Spatial { shards, grid } => {
            e.u8(KIND_SPATIAL);
            e.u32(shards);
            enc_grid(e, &grid);
        }
    }
}

fn dec_spec(d: &mut Dec<'_>, file: &str) -> Result<PartitionerSpec> {
    let spec = match d.u8()? {
        KIND_HASH => PartitionerSpec::Hash {
            shards: d.u32()?,
            grid: d.opt("grid", dec_grid)?,
        },
        KIND_SPATIAL => PartitionerSpec::Spatial {
            shards: d.u32()?,
            grid: dec_grid(d)?,
        },
        b => {
            return Err(StoreError::Corrupt {
                file: file.to_string(),
                detail: format!("unknown partitioner kind {b}"),
            })
        }
    };
    Ok(spec)
}

/// A partitioner-spec payload: kind, shard count, grid. Still used by
/// wire messages that ship a bare spec (not the manifest, which since
/// v2 also carries an epoch — see [`encode_manifest`]).
pub fn encode_spec(spec: &PartitionerSpec) -> Vec<u8> {
    let mut e = Enc::new();
    enc_spec(&mut e, spec);
    e.into_bytes()
}

/// Decodes a bare partitioner-spec payload, strictly (trailing bytes
/// are corruption, not extensibility).
pub fn decode_spec(payload: &[u8], file: &str) -> Result<PartitionerSpec> {
    let mut d = Dec::new(payload, file);
    let spec = dec_spec(&mut d, file)?;
    d.finish()?;
    spec.build()?; // reject structurally valid but unbuildable specs
    Ok(spec)
}

/// The decoded `SHARDS` manifest: the cluster's partitioner plus the
/// configuration **epoch** — bumped by every leadership change and
/// every committed rebalance, and fenced into the replication protocol
/// so writes from a superseded configuration are rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardManifest {
    /// Monotonically increasing configuration epoch.
    pub epoch: u64,
    /// The partitioner the cluster routes with.
    pub spec: PartitionerSpec,
}

/// The v2 `SHARDS` manifest payload: version byte, epoch, spec.
pub fn encode_manifest(m: &ShardManifest) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(MANIFEST_V2);
    e.u64(m.epoch);
    enc_spec(&mut e, &m.spec);
    e.into_bytes()
}

/// Decodes a v2 `SHARDS` manifest payload, strictly.
///
/// An epoch-less v1 payload (one that opens with a partitioner kind
/// byte instead of the v2 version byte) is rejected with an explicit
/// upgrade error rather than silently defaulting its epoch: a cluster
/// written before epoch fencing must be re-created (or its manifest
/// rewritten) by an operator who chose the starting epoch, because a
/// guessed epoch could un-fence a deposed leader.
pub fn decode_manifest(payload: &[u8], file: &str) -> Result<ShardManifest> {
    let mut d = Dec::new(payload, file);
    match d.u8()? {
        MANIFEST_V2 => {}
        b @ (KIND_HASH | KIND_SPATIAL) => {
            return Err(StoreError::Corrupt {
                file: file.to_string(),
                detail: format!(
                    "epoch-less v1 SHARDS manifest (leading kind byte {b}): this cluster \
                     predates epoch fencing; upgrade it by re-creating the manifest with \
                     an explicit epoch before opening"
                ),
            })
        }
        b => {
            return Err(StoreError::Corrupt {
                file: file.to_string(),
                detail: format!("unknown SHARDS manifest version byte {b}"),
            })
        }
    }
    let epoch = d.u64()?;
    let spec = dec_spec(&mut d, file)?;
    d.finish()?;
    spec.build()?; // reject structurally valid but unbuildable specs
    Ok(ShardManifest { epoch, spec })
}

/// Version byte opening a rebalance-journal payload.
const JOURNAL_V1: u8 = 0x4A;

/// The staged-rebalance journal: written atomically under the cluster
/// root before any handoff byte moves, deleted only after the swap and
/// GC complete. Recovery reads it to decide whether a crashed rebalance
/// rolls forward (the manifest already flipped to `target_epoch`) or
/// rolls back (it did not) — see [`crate::elastic::recover_rebalance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceJournal {
    /// The epoch the rebalance commits at (current epoch + 1); the
    /// manifest reaching this epoch *is* the commit point.
    pub target_epoch: u64,
    /// The assignment being left.
    pub from: PartitionerSpec,
    /// The assignment being built.
    pub to: PartitionerSpec,
}

/// A rebalance-journal payload: version byte, target epoch, both specs.
pub fn encode_journal(j: &RebalanceJournal) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(JOURNAL_V1);
    e.u64(j.target_epoch);
    enc_spec(&mut e, &j.from);
    enc_spec(&mut e, &j.to);
    e.into_bytes()
}

/// Decodes a rebalance-journal payload, strictly. Both specs are
/// re-validated through [`PartitionerSpec::build`]: recovery renames
/// and deletes shard directories based on these shard counts, so a
/// journal describing an unbuildable assignment must never drive it.
pub fn decode_journal(payload: &[u8], file: &str) -> Result<RebalanceJournal> {
    let mut d = Dec::new(payload, file);
    match d.u8()? {
        JOURNAL_V1 => {}
        b => {
            return Err(StoreError::Corrupt {
                file: file.to_string(),
                detail: format!("unknown rebalance-journal version byte {b}"),
            })
        }
    }
    let target_epoch = d.u64()?;
    let from = dec_spec(&mut d, file)?;
    let to = dec_spec(&mut d, file)?;
    d.finish()?;
    from.build()?;
    to.build()?;
    Ok(RebalanceJournal {
        target_epoch,
        from,
        to,
    })
}

/// One CRC frame holding a shard's extracted cells — what a remote
/// shard ships back to the coordinator.
pub fn encode_cells_payload(cells: &[(GroupKey, CellPartial)]) -> Vec<u8> {
    let mut e = Enc::new();
    encode_cells(&mut e, cells);
    frame(&e.into_bytes())
}

/// Decodes a framed cell set, strictly.
pub fn decode_cells_payload(bytes: &[u8]) -> Result<Vec<(GroupKey, CellPartial)>> {
    let payload = decode_single_frame(bytes, WIRE, "cells")?;
    let mut d = Dec::new(payload, WIRE);
    let cells = decode_cells(&mut d)?;
    d.finish()?;
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_geom::BBox;
    use gisolap_olap::time::TimeId;
    use proptest::prelude::*;

    fn grid() -> GridSpec {
        GridSpec::new(BBox::new(-4.0, -2.0, 4.0, 2.0), 8, 4).unwrap()
    }

    #[test]
    fn spec_roundtrips() {
        let specs = [
            PartitionerSpec::Hash {
                shards: 7,
                grid: None,
            },
            PartitionerSpec::Hash {
                shards: 3,
                grid: Some(grid()),
            },
            PartitionerSpec::Spatial {
                shards: 4,
                grid: grid(),
            },
        ];
        for spec in specs {
            let bytes = encode_spec(&spec);
            assert_eq!(decode_spec(&bytes, "SHARDS").unwrap(), spec);
        }
    }

    #[test]
    fn spec_decode_rejects_damage() {
        let good = encode_spec(&PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        });
        // Unknown kind byte.
        let mut bad = good.clone();
        bad[0] = 9;
        assert!(decode_spec(&bad, "SHARDS").is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_spec(&long, "SHARDS").is_err());
        // Unbuildable spec: zero shards decodes structurally but must
        // not build.
        let mut zero = good;
        zero[1..5].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_spec(&zero, "SHARDS").is_err());
    }

    #[test]
    fn manifest_rejects_v1_with_upgrade_error() {
        // A v1 manifest payload was the bare spec; both kinds must be
        // refused with a message that names the upgrade path.
        for spec in [
            PartitionerSpec::Hash {
                shards: 3,
                grid: None,
            },
            PartitionerSpec::Spatial {
                shards: 4,
                grid: grid(),
            },
        ] {
            let v1 = encode_spec(&spec);
            let err = decode_manifest(&v1, "SHARDS").unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("epoch-less v1"), "{msg}");
            assert!(msg.contains("upgrade"), "{msg}");
        }
    }

    #[test]
    fn manifest_rejects_damage() {
        let good = encode_manifest(&ShardManifest {
            epoch: 7,
            spec: PartitionerSpec::Spatial {
                shards: 4,
                grid: grid(),
            },
        });
        // Unknown version byte.
        let mut bad = good.clone();
        bad[0] = 0xEE;
        let msg = decode_manifest(&bad, "SHARDS").unwrap_err().to_string();
        assert!(msg.contains("version byte"), "{msg}");
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_manifest(&long, "SHARDS").is_err());
        // Truncation anywhere.
        for cut in 0..good.len() {
            assert!(decode_manifest(&good[..cut], "SHARDS").is_err());
        }
    }

    proptest! {
        #[test]
        fn manifest_roundtrips(seed in 0u64..500) {
            // A mixed counter sweeps epochs (incl. extremes) and both
            // partitioner kinds.
            let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move || {
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 27)
            };
            let epoch = match next() % 4 {
                0 => 0,
                1 => u64::MAX,
                _ => next(),
            };
            let shards = (next() % 6 + 1) as u32;
            let spec = if next() % 2 == 0 {
                PartitionerSpec::Spatial { shards, grid: grid() }
            } else {
                PartitionerSpec::Hash {
                    shards,
                    grid: (next() % 2 == 0).then(grid),
                }
            };
            let m = ShardManifest { epoch, spec };
            let bytes = encode_manifest(&m);
            prop_assert_eq!(decode_manifest(&bytes, "SHARDS").unwrap(), m);
        }

        #[test]
        fn manifest_rejects_bit_flips(flip in 0usize..64) {
            let m = ShardManifest {
                epoch: 0x0102_0304_0506_0708,
                spec: PartitionerSpec::Spatial { shards: 4, grid: grid() },
            };
            let mut bytes = encode_manifest(&m);
            let i = flip % bytes.len();
            bytes[i] ^= 0x40;
            // The manifest payload rides a CRC frame on disk; at this
            // layer a flip must either fail decode or change the value —
            // never decode back to the original silently.
            if let Ok(back) = decode_manifest(&bytes, "SHARDS") {
                prop_assert_ne!(back, m);
            }
        }
    }

    #[test]
    fn journal_roundtrips_and_rejects_damage() {
        let j = RebalanceJournal {
            target_epoch: 9,
            from: PartitionerSpec::Spatial {
                shards: 2,
                grid: grid(),
            },
            to: PartitionerSpec::Spatial {
                shards: 5,
                grid: grid(),
            },
        };
        let bytes = encode_journal(&j);
        assert_eq!(decode_journal(&bytes, "REBALANCE").unwrap(), j);
        // Unknown version byte.
        let mut bad = bytes.clone();
        bad[0] = 0x01;
        let msg = decode_journal(&bad, "REBALANCE").unwrap_err().to_string();
        assert!(msg.contains("version byte"), "{msg}");
        // Truncation anywhere.
        for cut in 0..bytes.len() {
            assert!(decode_journal(&bytes[..cut], "REBALANCE").is_err());
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_journal(&long, "REBALANCE").is_err());
        // Whatever a bit flip produces, a decoded journal's specs are
        // always buildable — recovery renames and deletes shard
        // directories off these counts, so an unbuildable assignment
        // must never decode.
        let mut z = bytes.clone();
        for i in 0..z.len() {
            z[i] ^= 0x08;
            if let Ok(back) = decode_journal(&z, "REBALANCE") {
                assert!(back.to.build().is_ok() && back.from.build().is_ok());
            }
            z[i] ^= 0x08;
        }
    }

    /// Deterministic pseudo-random cells from a seed (the proptest shim
    /// has no `any::<T>()`; a mixed counter covers the same space).
    fn synth_cells(seed: u64, n: usize) -> Vec<(GroupKey, CellPartial)> {
        let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        };
        let mut cells: Vec<(GroupKey, CellPartial)> = (0..n)
            .map(|_| {
                let hour = (next() % 10_000) as i64 - 5_000;
                let geo = if next() % 3 == 0 {
                    None
                } else {
                    Some((next() % 64) as u32)
                };
                let v = (next() % 2_000_000) as f64 / 4.0 - 250_000.0;
                let p = gisolap_olap::agg::Partial::from_raw(next() % 1000 + 1, v, v, v);
                ((hour, geo), CellPartial { x: p, y: p })
            })
            .collect();
        cells.sort_by_key(|(k, _)| *k);
        cells.dedup_by_key(|(k, _)| *k);
        cells
    }

    #[test]
    fn cells_payload_rejects_hours_whose_seconds_overflow() {
        let max = i64::MAX / 3600;
        for (hour, ok) in [
            (i64::MAX, false),
            (i64::MIN, false),
            (max + 1, false),
            (max, true),
            (-max, true),
        ] {
            let cells = vec![((hour, None), CellPartial::default())];
            let got = decode_cells_payload(&encode_cells_payload(&cells));
            assert_eq!(got.is_ok(), ok, "hour {hour}: {got:?}");
            // What does decode survives the window prune without overflow.
            if let Ok(cells) = got {
                let window = Some((TimeId(i64::MIN), TimeId(i64::MAX)));
                assert_eq!(crate::filter_window(cells, window).len(), 1);
            }
        }
    }

    proptest! {
        #[test]
        fn cells_payload_roundtrips(seed in 0u64..500, n in 0usize..32) {
            let cells = synth_cells(seed, n);
            let bytes = encode_cells_payload(&cells);
            let back = decode_cells_payload(&bytes).unwrap();
            prop_assert_eq!(back, cells);
        }

        #[test]
        fn cells_payload_rejects_bit_flips(flip in 0usize..64) {
            let p = gisolap_olap::agg::Partial::from_raw(3, 1.5, 0.5, 2.5);
            let cells = vec![((7i64, Some(2u32)), CellPartial { x: p, y: p })];
            let mut bytes = encode_cells_payload(&cells);
            let i = flip % bytes.len();
            bytes[i] ^= 0x40;
            // Either the CRC catches it or the decoded value differs;
            // silent equality would be a framing hole.
            if let Ok(back) = decode_cells_payload(&bytes) {
                prop_assert_ne!(back, cells);
            }
        }
    }
}
