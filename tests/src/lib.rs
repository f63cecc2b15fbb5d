//! Shared helpers for the gisolap integration-test suite.
//!
//! The test files under `tests/` implement the experiment index of
//! DESIGN.md §1 (E1–E9), each reproducing one artifact of Kuijpers &
//! Vaisman (ICDE 2007). EXPERIMENTS.md records paper-vs-measured.
//! [`elastic`] is the failover and rebalancing model the shard tests
//! drive (`DESIGN.md` §5.6).

use gisolap_core::engine::{IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine};
use gisolap_core::gis::Gis;
use gisolap_obs::CounterSet;
use gisolap_olap::agg::Partial;
use gisolap_stream::{CellPartial, GroupKey};
use gisolap_traj::Moft;

pub mod elastic;

/// Runs a closure against all three engine strategies, asserting they
/// produce the same value.
pub fn for_all_engines<T, F>(gis: &Gis, moft: &Moft, f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&dyn QueryEngine) -> T,
{
    let naive = NaiveEngine::new(gis, moft);
    let indexed = IndexedEngine::new(gis, moft);
    let overlay = OverlayEngine::new(gis, moft);
    let a = f(&naive);
    let b = f(&indexed);
    let c = f(&overlay);
    assert_eq!(a, b, "naive vs indexed disagree");
    assert_eq!(a, c, "naive vs overlay disagree");
    a
}

/// Asserts two floats agree to a tolerance.
pub fn assert_close(got: f64, want: f64, tol: f64) {
    assert!(
        (got - want).abs() <= tol,
        "expected {want} ± {tol}, got {got}"
    );
}

/// Partial cells with every float as its bits — count, sum, min, max of
/// x, then of y — so two cell lists compare bit for bit.
pub fn cell_bits(cells: &[(GroupKey, CellPartial)]) -> Vec<(GroupKey, [u64; 8])> {
    let bits = |p: &Partial| {
        [
            p.count(),
            p.sum().to_bits(),
            p.min().to_bits(),
            p.max().to_bits(),
        ]
    };
    cells
        .iter()
        .map(|(k, c)| {
            let (x, y) = (bits(&c.x), bits(&c.y));
            (*k, [x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3]])
        })
        .collect()
}

/// The exported counter `name`'s value in `stats`.
pub fn counter<S: CounterSet>(stats: &S, name: &str) -> u64 {
    let fields = stats.fields();
    let found = fields.as_ref().iter().find(|(n, _)| *n == name);
    found.expect("a counter of this family").1
}

/// The counters of `stats` still at zero, by exported name: a liveness
/// test drives a family's writers through public calls and asserts
/// this is empty.
pub fn dead_counters<S: CounterSet>(stats: &S) -> Vec<&'static str> {
    let fields = stats.fields();
    let dead = fields.as_ref().iter().filter(|(_, v)| *v == 0);
    dead.map(|(name, _)| *name).collect()
}
