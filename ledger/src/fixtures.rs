//! Seeded inputs. The program under test only ever sees what these
//! functions generate from `--seed`; sizes are frozen in [`Sizes`].

use std::path::Path;
use std::sync::Arc;

use gisolap_datagen::movers::{RandomWaypoint, SkewedFleet};
use gisolap_datagen::{stream_batches, CityConfig, CityScenario, ReplayConfig};
use gisolap_geom::BBox;
use gisolap_shard::{GridSpec, PartitionerSpec, ShardedIngest};
use gisolap_store::{AppendFile, RealFs, Result, StoreConfig, SyncPolicy, Vfs};
use gisolap_stream::StreamConfig;
use gisolap_traj::{Moft, Record};

/// Records per ingest batch — the op of `ingest_flush`.
pub const BATCH: usize = 1024;
/// Spatial shards of the fleet cluster.
pub const SHARDS: u32 = 4;
/// Bounded-shuffle delay of the replay; the stream's lateness equals it,
/// so no replayed record is ever dead-lettered.
pub const LATENESS_S: i64 = 900;

/// Frozen workload sizes. `full` is what `BENCHMARK.json` measures;
/// `smoke` is ~1/50 of it for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Fleet objects (half-hour samples).
    pub fleet_objects: usize,
    /// Samples per fleet object.
    pub fleet_samples: usize,
    /// City movers (five-minute samples).
    pub city_objects: usize,
    /// Samples per city mover.
    pub city_samples: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const fn full() -> Sizes {
        Sizes {
            fleet_objects: 2000,
            fleet_samples: 144,
            city_objects: 600,
            city_samples: 320,
        }
    }

    /// ~1/50 of [`Sizes::full`].
    pub const fn smoke() -> Sizes {
        Sizes {
            fleet_objects: 240,
            fleet_samples: 24,
            city_objects: 60,
            city_samples: 64,
        }
    }
}

pub fn area() -> BBox {
    BBox::new(0.0, 0.0, 64.0, 64.0)
}

/// The hot district sits in the bottom row-block of the grid (shard 0).
pub fn hot() -> BBox {
    BBox::new(4.0, 4.0, 24.0, 12.0)
}

/// Two grid cells of the top row: only shard 3 owns them, so a spatial
/// coordinator prunes 3 of 4 shards and the merge handles ~144 cells.
pub fn cold_region() -> BBox {
    BBox::new(9.0, 61.0, 15.0, 63.0)
}

pub fn grid() -> GridSpec {
    GridSpec::new(area(), 16, 16).expect("16x16 grid over a non-empty area")
}

pub fn partitioner() -> PartitionerSpec {
    PartitionerSpec::Spatial {
        shards: SHARDS,
        grid: grid(),
    }
}

pub fn stream_config() -> StreamConfig {
    StreamConfig::new(LATENESS_S, 3600).expect("valid stream config")
}

/// `SyncPolicy::Never`: the flush policy of every measured store.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    }
}

/// [`RealFs`] with every fsync request dropped. The store syncs each
/// file a flush or compaction writes whatever the WAL policy says; on
/// the sandbox's disk those syncs drift by tens of percent from run to
/// run and would bury the encode, checksum and write work a change can
/// move. With them gone the write path is the page cache's: latencies
/// are the sandbox's, not a device's.
#[derive(Debug, Clone, Copy)]
pub struct PageCacheFs;

impl Vfs for PageCacheFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        RealFs.read(path)
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8], _sync: bool) -> Result<()> {
        RealFs.write_atomic(path, bytes, false)
    }
    fn open_append(&self, path: &Path) -> Result<Box<dyn AppendFile>> {
        RealFs.open_append(path)
    }
    fn remove_file(&self, path: &Path) -> Result<()> {
        RealFs.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        RealFs.create_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        RealFs.truncate(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        RealFs.rename(from, to)
    }
    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        RealFs.remove_dir_all(path)
    }
}

pub fn bench_fs() -> Arc<dyn Vfs> {
    Arc::new(PageCacheFs)
}

/// The sharded-path fixture: a lattice-quantized skewed fleet replayed
/// out of order in [`BATCH`]-record batches.
pub struct Fleet {
    pub moft: Moft,
    pub batches: Vec<Vec<Record>>,
}

impl Fleet {
    /// 40 % of homes in the hot district; the other 60 % cover the
    /// 16×16 grid densely enough that nearly every cell is occupied
    /// every hour, so cell counts — the unit of fetch, merge and reply
    /// cost — barely depend on the seed.
    pub fn generate(seed: u64, sizes: &Sizes) -> Fleet {
        let moft = SkewedFleet {
            seed,
            hot_share: 0.4,
            samples_per_object: sizes.fleet_samples,
            sample_interval: 1800,
            ..SkewedFleet::new(area(), hot(), sizes.fleet_objects)
        }
        .generate(0);
        let batches = stream_batches(
            &moft,
            &ReplayConfig {
                shuffle_seconds: LATENESS_S,
                batch_size: BATCH,
                seed: seed ^ 0x9e37_79b9_7f4a_7c15,
            },
        );
        Fleet { moft, batches }
    }

    pub fn records(&self) -> usize {
        self.moft.len()
    }

    /// Index of the first batch lying wholly in the last third of the
    /// fleet's time extent (its last day at full size) — the part
    /// `cold_open` leaves in the WAL.
    pub fn last_third_start(&self) -> usize {
        let (t_min, t_max) = self.moft.time_bounds().expect("non-empty fleet");
        let cut = t_max.0 - (t_max.0 - t_min.0) / 3;
        self.batches
            .iter()
            .position(|b| b.iter().all(|r| r.t.0 > cut))
            .unwrap_or(self.batches.len())
    }
}

/// Creates an empty fleet cluster at `root`.
pub fn create_cluster(root: &Path) -> ShardedIngest {
    ShardedIngest::create(
        bench_fs(),
        root,
        partitioner(),
        stream_config(),
        store_config(),
    )
    .expect("create cluster")
}

/// The engine-path fixture: a frozen city map with seeded traffic.
pub struct City {
    pub scenario: CityScenario,
    pub moft: Moft,
    pub batches: Vec<Vec<Record>>,
}

impl City {
    /// The map is frozen (which districts the income filter selects is
    /// part of the query's definition); the traffic and its replay
    /// order come from the seed.
    pub fn generate(seed: u64, sizes: &Sizes) -> City {
        let scenario = CityScenario::generate(CityConfig {
            blocks_x: 6,
            blocks_y: 4,
            schools: 6,
            stores: 10,
            gas_stations: 4,
            seed: 23,
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed,
            sample_interval: 300,
            ..RandomWaypoint::new(scenario.bbox, sizes.city_objects, sizes.city_samples)
        }
        .generate(0);
        let batches = stream_batches(
            &moft,
            &ReplayConfig {
                shuffle_seconds: LATENESS_S,
                batch_size: BATCH,
                seed: seed ^ 0x9e37_79b9_7f4a_7c15,
            },
        );
        City {
            scenario,
            moft,
            batches,
        }
    }
}

/// FNV-1a over every record's bits, in order: equal for equal seeds.
pub fn fixture_hash(batches: &[Vec<Record>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in batches.iter().flatten() {
        eat(r.oid.0);
        eat(r.t.0 as u64);
        eat(r.x.to_bits());
        eat(r.y.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fixture_other_seed_other_fixture() {
        let sizes = Sizes::smoke();
        let fleet = |seed| fixture_hash(&Fleet::generate(seed, &sizes).batches);
        let city = |seed| fixture_hash(&City::generate(seed, &sizes).batches);
        assert_eq!(fleet(7), fleet(7));
        assert_ne!(fleet(7), fleet(8));
        assert_eq!(city(7), city(7));
        assert_ne!(city(7), city(8));
    }

    #[test]
    fn replay_keeps_every_record_and_leaves_a_last_third() {
        let sizes = Sizes::smoke();
        let fleet = Fleet::generate(3, &sizes);
        assert_eq!(
            fleet.batches.iter().map(Vec::len).sum::<usize>(),
            sizes.fleet_objects * sizes.fleet_samples
        );
        assert!(fleet.batches.iter().all(|b| b.len() <= BATCH));
        let cut = fleet.last_third_start();
        assert!(cut > 0 && cut < fleet.batches.len());
    }

    #[test]
    fn the_cold_region_belongs_to_one_shard() {
        let pruned = partitioner()
            .build()
            .expect("partitioner")
            .prune(&cold_region())
            .expect("spatial prune");
        assert_eq!(pruned, vec![SHARDS as usize - 1]);
    }
}
