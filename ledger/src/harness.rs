//! What every workload shares: the run configuration, the pass
//! schedule, repeated set-up and the outcome a run reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gisolap_stream::RollupRow;

use crate::fixtures::Sizes;
use crate::stats::{median, median_of_passes, Pass, Span};

/// Timed passes per run; every reported statistic is the median over
/// them of the per-pass statistic.
pub const PASSES: usize = 5;
/// Passes of the traced run (each one box long).
pub const TRACED_PASSES: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Seconds the timed passes fill.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
}

impl RunCfg {
    /// Length of one time-boxed pass.
    pub fn pass_box(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / PASSES as f64)
    }

    /// Timed passes of the untraced run: all of them normally, two in a
    /// traced run (enough to anchor coverage and overhead), which keeps
    /// a traced run as long as an untraced one.
    pub fn untraced_passes(&self) -> usize {
        if self.trace {
            2
        } else {
            PASSES
        }
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub passes: Vec<Pass>,
    /// Verification mismatches (each also counts as a failed op).
    pub mismatches: u64,
    pub verify_s: f64,
    /// Per-layer metrics by name (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// Free-form facts for the artifact (sizes, counts).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::stats::PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a declared per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Coverage and overhead of the traced run against the untraced
    /// p50: `staged_ns` is the sum of stage self times, `op_ns` the
    /// traced op's wall.
    pub fn set_coverage(&mut self, staged_ns: f64, op_ns: f64) {
        let p50_ns = median_of_passes(&self.passes, |p| p.p50_us) * 1e3;
        self.set("harness.trace_coverage", staged_ns / p50_ns);
        self.set("harness.trace_overhead_share", op_ns / p50_ns - 1.0);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.ops + p.failed).sum()
    }

    pub fn failed(&self) -> u64 {
        self.passes.iter().map(|p| p.failed).sum::<u64>() + self.mismatches
    }
}

/// Builds the fixture `reps` times, keeps the last, and returns the
/// median build time — so work moved into set-up shows, steadily.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// One untimed warm-up pass (half a box), then `passes` timed ones.
pub fn run_passes(
    cfg: &RunCfg,
    passes: usize,
    mut pass: impl FnMut(Duration) -> Pass,
) -> Vec<Pass> {
    pass(cfg.pass_box() / 2);
    (0..passes).map(|_| pass(cfg.pass_box())).collect()
}

/// Order-sensitive 64-bit fingerprint of rollup rows (value bits
/// included): cheap enough to check on every reply.
pub fn fingerprint(rows: &[RollupRow]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ rows.len() as u64;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(29);
    for r in rows {
        mix(r.granule as u64);
        mix(r.geo.map_or(u64::MAX, u64::from));
        mix(r.value.to_bits());
    }
    h
}

/// Bit-for-bit row equality (`f64::to_bits`, so `-0.0 != 0.0` and NaNs
/// compare by payload).
pub fn rows_identical(a: &[RollupRow], b: &[RollupRow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.granule == y.granule && x.geo == y.geo && x.value.to_bits() == y.value.to_bits()
        })
}

pub fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs `f` with `GISOLAP_THREADS` unset — the library's default worker
/// count — then pins it again. Only for the single-threaded stretches
/// of a traced run: no other thread may be reading the environment.
pub fn with_default_threads<T>(f: impl FnOnce() -> T) -> T {
    let pinned = std::env::var("GISOLAP_THREADS").ok();
    std::env::remove_var("GISOLAP_THREADS");
    let out = f();
    if let Some(v) = pinned {
        std::env::set_var("GISOLAP_THREADS", v);
    }
    out
}
