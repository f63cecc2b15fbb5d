//! Replays MOFTs as timestamped, out-of-order record batches for
//! exercising the streaming ingest pipeline.
//!
//! The reordering is a **bounded shuffle**: each record's emission key is
//! its timestamp plus a uniform delay in `[0, shuffle_seconds]`, and
//! records are emitted in key order. That bounds the out-of-orderness —
//! when every emitted record has event time ≤ `M`, any *unemitted* record
//! has event time ≥ `M − shuffle_seconds` — so a `StreamIngest` whose
//! lateness is at least `shuffle_seconds` never dead-letters a replayed
//! record, which is what the stream-vs-batch equivalence property needs.

use gisolap_stream::ReplayOp;
use gisolap_traj::{Moft, Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fig1::Fig1Scenario;

/// Controls for [`stream_batches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Maximum delay (seconds) added to a record's emission key; the
    /// replay's guaranteed lateness bound.
    pub shuffle_seconds: i64,
    /// Records per emitted batch (the last batch may be smaller).
    pub batch_size: usize,
    /// RNG seed for the delays.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            shuffle_seconds: 300,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// Replays a MOFT as out-of-order batches under a bounded shuffle (see
/// the module docs for the lateness guarantee). Deterministic in
/// `(moft, config)`.
pub fn stream_batches(moft: &Moft, config: &ReplayConfig) -> Vec<Vec<Record>> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut keyed: Vec<(i64, usize, Record)> = moft
        .records()
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let delay = if config.shuffle_seconds > 0 {
                rng.gen_range(0..=config.shuffle_seconds)
            } else {
                0
            };
            (r.t.0 + delay, i, r)
        })
        .collect();
    // The index tiebreak keeps equal keys deterministic.
    keyed.sort_by_key(|&(key, i, _)| (key, i));
    let batch_size = config.batch_size.max(1);
    keyed
        .chunks(batch_size)
        .map(|chunk| chunk.iter().map(|&(_, _, r)| r).collect())
        .collect()
}

/// Convenience: replays the paper's Figure 1 MOFT as batches.
pub fn replay_fig1(config: &ReplayConfig) -> (Fig1Scenario, Vec<Vec<Record>>) {
    let scenario = Fig1Scenario::build();
    let batches = stream_batches(&scenario.moft, config);
    (scenario, batches)
}

/// A deterministic workload for crash-recovery testing: the full
/// write-ahead-loggable operation sequence of a bounded-shuffle replay,
/// plus the flush schedule a durable driver should follow. Crash points
/// are injected *outside* the scenario (e.g. by a byte-budgeted
/// failpoint filesystem), so one scenario serves every crash offset.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashScenario {
    /// The op sequence, ending in [`ReplayOp::Finish`].
    pub ops: Vec<ReplayOp>,
    /// Op indices after which the driver should flush (checkpoint +
    /// WAL rotation), ascending.
    pub flush_after: Vec<usize>,
}

/// Builds a [`CrashScenario`] from a MOFT: the bounded-shuffle batches
/// as [`ReplayOp::Batch`]es, a closing [`ReplayOp::Finish`], and a
/// flush after every `flush_every` ops (`0` = never flush, so the WAL
/// carries everything). Deterministic in `(moft, config, flush_every)`.
pub fn crash_replay(moft: &Moft, config: &ReplayConfig, flush_every: usize) -> CrashScenario {
    let mut ops: Vec<ReplayOp> = stream_batches(moft, config)
        .into_iter()
        .map(ReplayOp::Batch)
        .collect();
    ops.push(ReplayOp::Finish);
    let flush_after = if flush_every == 0 {
        Vec::new()
    } else {
        (0..ops.len())
            .filter(|i| (i + 1) % flush_every == 0)
            .collect()
    };
    CrashScenario { ops, flush_after }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::{CityConfig, CityScenario};
    use crate::movers::RandomWaypoint;
    use gisolap_traj::ObjectId;

    #[test]
    fn replay_preserves_the_multiset_and_bounds_lateness() {
        let city = CityScenario::generate(CityConfig {
            blocks_x: 2,
            blocks_y: 2,
            seed: 7,
            ..CityConfig::default()
        });
        let moft = RandomWaypoint {
            seed: 4,
            ..RandomWaypoint::new(city.bbox, 6, 20)
        }
        .generate(0);
        let batches = stream_batches(
            &moft,
            &ReplayConfig {
                shuffle_seconds: 900,
                batch_size: 17,
                seed: 3,
            },
        );

        // Multiset preserved: re-sorting the flattened batches recovers
        // the source table exactly.
        let flat: Vec<Record> = batches.iter().flatten().copied().collect();
        assert_eq!(flat.len(), moft.records().len());
        let rebuilt = Moft::from_records(flat.iter().copied());
        assert_eq!(rebuilt.records(), moft.records());

        // Bounded out-of-orderness: every record arrives before the max
        // event time seen so far outruns it by more than the shuffle.
        let mut max_seen = i64::MIN;
        for r in &flat {
            assert!(
                r.t.0 >= max_seen.saturating_sub(900),
                "record at t={} arrived after watermark {}",
                r.t.0,
                max_seen.saturating_sub(900)
            );
            max_seen = max_seen.max(r.t.0);
        }

        // Batch sizes honour the config.
        assert!(batches.iter().rev().skip(1).all(|b| b.len() == 17));
    }

    #[test]
    fn zero_shuffle_replays_in_time_order() {
        let (scenario, batches) = replay_fig1(&ReplayConfig {
            shuffle_seconds: 0,
            batch_size: 4,
            seed: 0,
        });
        let flat: Vec<Record> = batches.iter().flatten().copied().collect();
        assert_eq!(flat.len(), scenario.moft.records().len());
        assert!(flat.windows(2).all(|w| w[0].t <= w[1].t));
        // Spot check a known Table 1 object survives the replay.
        assert!(flat.iter().any(|r| r.oid == ObjectId(1)));
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = ReplayConfig::default();
        let (s, _) = replay_fig1(&cfg);
        let a = stream_batches(&s.moft, &cfg);
        let b = stream_batches(&s.moft, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn crash_replay_shapes_ops_and_flushes() {
        let (s, _) = replay_fig1(&ReplayConfig {
            batch_size: 4,
            ..ReplayConfig::default()
        });
        let scenario = crash_replay(&s.moft, &ReplayConfig::default(), 3);
        assert_eq!(scenario.ops.last(), Some(&ReplayOp::Finish));
        let batches = scenario
            .ops
            .iter()
            .filter(|op| matches!(op, ReplayOp::Batch(_)))
            .count();
        assert_eq!(batches, scenario.ops.len() - 1);
        // Flush after every 3rd op, indices ascending and in range.
        assert!(scenario.flush_after.windows(2).all(|w| w[0] < w[1]));
        assert!(scenario.flush_after.iter().all(|&i| (i + 1) % 3 == 0));
        // No flushing when disabled; deterministic across calls.
        assert!(crash_replay(&s.moft, &ReplayConfig::default(), 0)
            .flush_after
            .is_empty());
        assert_eq!(crash_replay(&s.moft, &ReplayConfig::default(), 3), scenario);
    }
}
