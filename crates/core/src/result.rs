//! Query results and the aggregations applied over a region `C`.
//!
//! "Our spatial region C turns, in the spatio-temporal setting, into a set
//! of pairs (objectId, time), which are a key for an object's position in
//! time and space" (paper, end of Section 3.1). The engine materializes
//! `C` as [`CTuple`]s; this module supplies the γ aggregations of
//! Definition 7 specialized to that shape — including the "per hour"
//! averaging of Remark 1, which pins the running example's answer to 4/3.

use std::collections::{HashMap, HashSet};

use gisolap_geom::Point;
use gisolap_olap::time::{TimeDimension, TimeId, TimeLevel};
use gisolap_traj::ObjectId;

use crate::layer::{GeoId, LayerId};

/// One element of the materialized region `C`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CTuple {
    /// The moving object.
    pub oid: ObjectId,
    /// The observation instant.
    pub t: TimeId,
    /// The observed position.
    pub pos: Point,
    /// The geometry element that satisfied the spatial atom, when the
    /// query exposes it (query 2 returns `(Oid, instant, street)`
    /// triples).
    pub geo: Option<(LayerId, GeoId)>,
}

/// `COUNT(C)` — the number of tuples.
pub fn count(c: &[CTuple]) -> f64 {
    c.len() as f64
}

/// `COUNT(DISTINCT Oid)` over `C`.
pub fn count_distinct_objects(c: &[CTuple]) -> f64 {
    distinct_oids(c).len() as f64
}

/// Distinct objects in `C`, ascending.
pub fn objects(c: &[CTuple]) -> Vec<ObjectId> {
    let mut v: Vec<ObjectId> = distinct_oids(c).into_iter().collect();
    v.sort();
    v
}

fn distinct_oids(c: &[CTuple]) -> HashSet<ObjectId> {
    let mut oids = HashSet::new();
    for_each_run(c.iter().map(|t| t.oid), |oid, _| {
        oids.insert(oid);
    });
    oids
}

/// Calls `f(key, n)` once per maximal run of `n` consecutive equal keys.
/// `C` comes out of evaluation `(oid, t)`-ordered, so equal objects and
/// equal granules arrive together and the γ helpers touch their maps
/// once per run instead of once per tuple; any order stays correct.
fn for_each_run<K: PartialEq>(keys: impl IntoIterator<Item = K>, mut f: impl FnMut(K, usize)) {
    let mut run: Option<(K, usize)> = None;
    for k in keys {
        match &mut run {
            Some((cur, n)) if *cur == k => *n += 1,
            _ => {
                if let Some((cur, n)) = run.replace((k, 1)) {
                    f(cur, n);
                }
            }
        }
    }
    if let Some((cur, n)) = run {
        f(cur, n);
    }
}

/// Tuple count per time granule, keyed by granule id, ascending.
pub fn count_per_granule(c: &[CTuple], time: &TimeDimension, level: TimeLevel) -> Vec<(i64, f64)> {
    let mut m: HashMap<i64, f64> = HashMap::new();
    // Counts stay integers far below 2^53, so adding a run's length at
    // once is bit-identical to adding 1.0 per tuple.
    for_each_run(c.iter().map(|t| time.granule(t.t, level)), |g, n| {
        *m.entry(g).or_insert(0.0) += n as f64;
    });
    let mut v: Vec<(i64, f64)> = m.into_iter().collect();
    v.sort_by_key(|&(g, _)| g);
    v
}

/// Distinct-object count per time granule.
pub fn distinct_objects_per_granule(
    c: &[CTuple],
    time: &TimeDimension,
    level: TimeLevel,
) -> Vec<(i64, f64)> {
    let mut m: HashMap<i64, HashSet<ObjectId>> = HashMap::new();
    let keys = c.iter().map(|t| (time.granule(t.t, level), t.oid));
    for_each_run(keys, |(g, oid), _| {
        m.entry(g).or_default().insert(oid);
    });
    let mut v: Vec<(i64, f64)> = m.into_iter().map(|(g, s)| (g, s.len() as f64)).collect();
    v.sort_by_key(|&(g, _)| g);
    v
}

/// Remark 1's aggregation: `|C| / #granules`, where the granule count is
/// the number of distinct `level` granules among `reference` (normally the
/// *time-filtered* MOFT instants — "the time span is three hours").
///
/// For the running example: `C` has 4 tuples (O1 three times, O2 once),
/// the morning span covers 3 hour granules ⇒ `4/3 ≈ 1.333`.
pub fn per_granule_rate(
    c: &[CTuple],
    reference: impl IntoIterator<Item = TimeId>,
    time: &TimeDimension,
    level: TimeLevel,
) -> f64 {
    let mut granules: HashSet<i64> = HashSet::new();
    for_each_run(
        reference.into_iter().map(|t| time.granule(t, level)),
        |g, _| {
            granules.insert(g);
        },
    );
    if granules.is_empty() {
        return 0.0;
    }
    count(c) / granules.len() as f64
}

/// `MAX` over granules of the distinct-object count — query type 3's
/// "maximum number of buses per hour".
pub fn max_distinct_per_granule(
    c: &[CTuple],
    time: &TimeDimension,
    level: TimeLevel,
) -> Option<f64> {
    distinct_objects_per_granule(c, time, level)
        .into_iter()
        .map(|(_, n)| n)
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Tuple count per geometry element (for queries exposing the geometry,
/// like query 2's per-street densities).
pub fn count_per_geometry(c: &[CTuple]) -> Vec<((LayerId, GeoId), f64)> {
    let mut m: HashMap<(LayerId, GeoId), f64> = HashMap::new();
    for t in c {
        if let Some(g) = t.geo {
            *m.entry(g).or_insert(0.0) += 1.0;
        }
    }
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort_by_key(|&((l, g), _)| (l, g));
    v
}

/// Tuple count per (granule, geometry) — query 2's interpretation (b):
/// "take the density for each road … at each moment".
pub fn count_per_granule_geometry(
    c: &[CTuple],
    time: &TimeDimension,
    level: TimeLevel,
) -> Vec<((i64, LayerId, GeoId), f64)> {
    let mut m: HashMap<(i64, LayerId, GeoId), f64> = HashMap::new();
    for t in c {
        if let Some((l, g)) = t.geo {
            *m.entry((time.granule(t.t, level), l, g)).or_insert(0.0) += 1.0;
        }
    }
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort_by_key(|&(k, _)| k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_olap::time::TimeId;

    fn tup(oid: u64, t: i64) -> CTuple {
        CTuple {
            oid: ObjectId(oid),
            t: TimeId(t),
            pos: Point::new(0.0, 0.0),
            geo: None,
        }
    }

    fn tup_geo(oid: u64, t: i64, geo: u32) -> CTuple {
        CTuple {
            oid: ObjectId(oid),
            t: TimeId(t),
            pos: Point::new(0.0, 0.0),
            geo: Some((LayerId(0), GeoId(geo))),
        }
    }

    const H: i64 = 3600;

    #[test]
    fn counts() {
        let c = vec![tup(1, 0), tup(1, H), tup(2, 0)];
        assert_eq!(count(&c), 3.0);
        assert_eq!(count_distinct_objects(&c), 2.0);
        assert_eq!(objects(&c), vec![ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn per_granule_counts() {
        let time = TimeDimension::new();
        let c = vec![tup(1, 0), tup(2, 10), tup(1, H), tup(1, H + 1)];
        let per_hour = count_per_granule(&c, &time, TimeLevel::Hour);
        assert_eq!(per_hour, vec![(0, 2.0), (1, 2.0)]);
        let distinct = distinct_objects_per_granule(&c, &time, TimeLevel::Hour);
        assert_eq!(distinct, vec![(0, 2.0), (1, 1.0)]);
        assert_eq!(
            max_distinct_per_granule(&c, &time, TimeLevel::Hour),
            Some(2.0)
        );
        assert_eq!(max_distinct_per_granule(&[], &time, TimeLevel::Hour), None);
    }

    #[test]
    fn remark1_rate_semantics() {
        let time = TimeDimension::new();
        // 4 qualifying tuples across a 3-hour reference span → 4/3.
        let c = vec![tup(1, 0), tup(1, H), tup(1, 2 * H), tup(2, H)];
        let reference = vec![
            TimeId(0),
            TimeId(10),
            TimeId(H),
            TimeId(2 * H),
            TimeId(2 * H + 30),
        ];
        let rate = per_granule_rate(&c, reference, &time, TimeLevel::Hour);
        assert!((rate - 4.0 / 3.0).abs() < 1e-12);
        // Empty reference → 0.
        assert_eq!(per_granule_rate(&c, vec![], &time, TimeLevel::Hour), 0.0);
    }

    #[test]
    fn geometry_grouping() {
        let time = TimeDimension::new();
        let c = vec![
            tup_geo(1, 0, 7),
            tup_geo(2, 0, 7),
            tup_geo(1, H, 9),
            tup(3, 0),
        ];
        let per_geo = count_per_geometry(&c);
        assert_eq!(
            per_geo,
            vec![((LayerId(0), GeoId(7)), 2.0), ((LayerId(0), GeoId(9)), 1.0),]
        );
        let per_both = count_per_granule_geometry(&c, &time, TimeLevel::Hour);
        assert_eq!(per_both.len(), 2);
        assert_eq!(per_both[0], ((0, LayerId(0), GeoId(7)), 2.0));
    }
}
