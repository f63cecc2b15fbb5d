//! Byte layouts for everything sharding persists: grids, partitioner
//! specs, the `SHARDS` manifest and the rebalance journal. Each is
//! declared once with `gisolap_store::messages!` over
//! `gisolap_store::codec`'s field formats (the box, optional fields);
//! this module owns the version bytes and the checks a decoded value
//! must pass. Both files ride the store's CRC framing.

use crate::partition::{GridSpec, PartitionerSpec};
use gisolap_store::codec::{dec_bbox, enc_bbox};
use gisolap_store::{messages, Result, StoreError};

messages! {
    impl struct GridSpec {
        bbox: BBox = [enc_bbox, dec_bbox],
        nx: u32 = u32,
        ny: u32 = u32,
    }
    // A manifest edited by hand must not smuggle a zero-cell grid past
    // the constructor.
    check |g| GridSpec::new(g.bbox, g.nx, g.ny);
}

messages! {
    impl enum PartitionerSpec ["partitioner kind"] {
        1 => Hash {
            shards: u32 = u32,
            grid: Option<GridSpec> = (opt "grid" (msg GridSpec)),
        },
        2 => Spatial {
            shards: u32 = u32,
            grid: GridSpec = (msg GridSpec),
        },
    }
}

messages! {
    /// The decoded `SHARDS` manifest: the cluster's partitioner plus the
    /// configuration **epoch** — bumped by every leadership change and
    /// every committed rebalance, and fenced into the replication protocol
    /// so writes from a superseded configuration are rejected.
    ///
    /// The payload opens with version byte `0x32`. A v1 payload began
    /// directly with the partitioner kind (1 or 2), so this byte is
    /// deliberately outside the kind space and the two formats can never
    /// be confused: reading the file refuses a v1 payload with an explicit
    /// upgrade error.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ShardManifest ["SHARDS manifest version byte" = 0x32] {
        /// Monotonically increasing configuration epoch.
        epoch: u64 = u64,
        /// The partitioner the cluster routes with.
        spec: PartitionerSpec = (msg PartitionerSpec),
    }
    // Reject structurally valid but unbuildable specs.
    check |m| m.spec.build();
}

/// Refuses an epoch-less v1 `SHARDS` payload (one that opens with a
/// partitioner kind byte instead of the v2 version byte) with an
/// explicit upgrade error rather than silently defaulting its epoch: a
/// cluster written before epoch fencing must be re-created (or its
/// manifest rewritten) by an operator who chose the starting epoch,
/// because a guessed epoch could un-fence a deposed leader.
pub(crate) fn refuse_v1_manifest(payload: &[u8], file: &str) -> Result<()> {
    match payload.first() {
        Some(b) if PartitionerSpec::TAGS.contains(b) => Err(StoreError::Corrupt {
            file: file.to_string(),
            detail: format!(
                "epoch-less v1 SHARDS manifest (leading kind byte {b}): this cluster \
                 predates epoch fencing; upgrade it by re-creating the manifest with \
                 an explicit epoch before opening"
            ),
        }),
        _ => Ok(()),
    }
}

messages! {
    /// The staged-rebalance journal: written atomically under the cluster
    /// root before any handoff byte moves, deleted only after the swap and
    /// GC complete. Recovery reads it to decide whether a crashed rebalance
    /// rolls forward (the manifest already flipped to `target_epoch`) or
    /// rolls back (it did not); until then
    /// [`ShardedIngest::open`](crate::ShardedIngest::open) refuses the root.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RebalanceJournal ["rebalance-journal version byte" = 0x4A] {
        /// The epoch the rebalance commits at (current epoch + 1); the
        /// manifest reaching this epoch *is* the commit point.
        target_epoch: u64 = u64,
        /// The assignment being left.
        from: PartitionerSpec = (msg PartitionerSpec),
        /// The assignment being built.
        to: PartitionerSpec = (msg PartitionerSpec),
    }
    // Recovery renames and deletes shard directories based on these
    // shard counts, so a journal describing an unbuildable assignment
    // must never drive it.
    check |j| j.from.build().and(j.to.build());
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_geom::BBox;
    use gisolap_olap::time::TimeId;
    use gisolap_store::codec::{decode_cells, encode_cells, read_single_frame, Dec, Enc};
    use gisolap_stream::{CellPartial, GroupKey};
    use proptest::prelude::*;

    fn grid() -> GridSpec {
        GridSpec::new(BBox::new(-4.0, -2.0, 4.0, 2.0), 8, 4).unwrap()
    }

    /// The unframed payload `encode` writes.
    fn payload(encode: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        encode(&mut e);
        e.into_bytes()
    }

    fn decode_manifest(payload: &[u8], file: &str) -> Result<ShardManifest> {
        refuse_v1_manifest(payload, file)?;
        ShardManifest::decode(payload, file)
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
            let bytes = payload(|e| spec.encode_to(e));
            assert_eq!(PartitionerSpec::decode(&bytes, "SHARDS").unwrap(), spec);
        }
    }

    #[test]
    fn spec_decode_rejects_damage() {
        let spec = PartitionerSpec::Spatial {
            shards: 4,
            grid: grid(),
        };
        let good = payload(|e| spec.encode_to(e));
        // Unknown kind byte.
        let mut bad = good.clone();
        bad[0] = 9;
        let err = PartitionerSpec::decode(&bad, "SHARDS").unwrap_err();
        assert!(
            err.to_string().contains("unknown partitioner kind 9"),
            "{err}"
        );
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(PartitionerSpec::decode(&long, "SHARDS").is_err());
        // A zero-cell grid fails its constructor inside the spec.
        let mut flat = good.clone();
        flat[5 + 32..5 + 36].copy_from_slice(&0u32.to_le_bytes());
        let err = PartitionerSpec::decode(&flat, "SHARDS").unwrap_err();
        assert!(err.to_string().contains("at least one cell"), "{err}");
        // Unbuildable spec: zero shards decodes structurally but no
        // manifest carrying it does.
        let mut zero = good;
        zero[1..5].copy_from_slice(&0u32.to_le_bytes());
        assert!(PartitionerSpec::decode(&zero, "SHARDS").is_ok());
        let mut manifest = vec![0x32];
        manifest.extend_from_slice(&7u64.to_le_bytes());
        manifest.extend_from_slice(&zero);
        assert!(decode_manifest(&manifest, "SHARDS").is_err());
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
            let v1 = payload(|e| spec.encode_to(e));
            let err = decode_manifest(&v1, "SHARDS").unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("epoch-less v1"), "{msg}");
            assert!(msg.contains("upgrade"), "{msg}");
        }
    }

    #[test]
    fn manifest_rejects_damage() {
        let good = payload(|e| {
            ShardManifest {
                epoch: 7,
                spec: PartitionerSpec::Spatial {
                    shards: 4,
                    grid: grid(),
                },
            }
            .encode_to(e)
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
            let framed = m.encode();
            let bytes = read_single_frame(&framed, "SHARDS").unwrap();
            prop_assert_eq!(decode_manifest(bytes, "SHARDS").unwrap(), m);
        }

        #[test]
        fn manifest_rejects_bit_flips(flip in 0usize..64) {
            let m = ShardManifest {
                epoch: 0x0102_0304_0506_0708,
                spec: PartitionerSpec::Spatial { shards: 4, grid: grid() },
            };
            let mut bytes = payload(|e| m.encode_to(e));
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
        let bytes = payload(|e| j.encode_to(e));
        assert_eq!(RebalanceJournal::decode(&bytes, "REBALANCE").unwrap(), j);
        // Unknown version byte.
        let mut bad = bytes.clone();
        bad[0] = 0x01;
        let msg = RebalanceJournal::decode(&bad, "REBALANCE")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("version byte"), "{msg}");
        // Truncation anywhere.
        for cut in 0..bytes.len() {
            assert!(RebalanceJournal::decode(&bytes[..cut], "REBALANCE").is_err());
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(RebalanceJournal::decode(&long, "REBALANCE").is_err());
        // Whatever a bit flip produces, a decoded journal's specs are
        // always buildable — recovery renames and deletes shard
        // directories off these counts, so an unbuildable assignment
        // must never decode.
        let mut z = bytes.clone();
        for i in 0..z.len() {
            z[i] ^= 0x08;
            if let Ok(back) = RebalanceJournal::decode(&z, "REBALANCE") {
                assert!(back.to.build().is_ok() && back.from.build().is_ok());
            }
            z[i] ^= 0x08;
        }
    }

    /// One CRC frame holding a cell set — the body of a `Cells` serve
    /// reply, which ships a remote shard's cells to the coordinator.
    fn framed_cells(cells: &[(GroupKey, CellPartial)]) -> Vec<u8> {
        let mut e = Enc::framed();
        encode_cells(&mut e, cells);
        e.into_framed()
    }

    fn unframe_cells(bytes: &[u8]) -> Result<Vec<(GroupKey, CellPartial)>> {
        let mut d = Dec::new(read_single_frame(bytes, "cells")?, "cells");
        let cells = decode_cells(&mut d)?;
        d.finish()?;
        Ok(cells)
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
            let got = unframe_cells(&framed_cells(&cells));
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
            let back = unframe_cells(&framed_cells(&cells)).unwrap();
            prop_assert_eq!(back, cells);
        }

        #[test]
        fn cells_payload_rejects_bit_flips(flip in 0usize..64) {
            let p = gisolap_olap::agg::Partial::from_raw(3, 1.5, 0.5, 2.5);
            let cells = vec![((7i64, Some(2u32)), CellPartial { x: p, y: p })];
            let mut bytes = framed_cells(&cells);
            let i = flip % bytes.len();
            bytes[i] ^= 0x40;
            // Either the CRC catches it or the decoded value differs;
            // silent equality would be a framing hole.
            if let Ok(back) = unframe_cells(&bytes) {
                prop_assert_ne!(back, cells);
            }
        }
    }
}
