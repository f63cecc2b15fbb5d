//! Zone maps: per-block pruning metadata over a canonically ordered row
//! run.
//!
//! A zone map cuts a `(oid, t, x, y)` row run — already in the canonical
//! `(oid, t)`-ascending order every MOFT and sealed segment uses — into
//! fixed-size blocks ("zones") and records, per zone, the row range it
//! covers plus the min/max object id, the min/max timestamp, and the
//! spatial bounding box. A query that carries a time window or a spatial
//! bound can then skip whole zones whose summary provably excludes every
//! row inside, and scan the survivors contiguously.
//!
//! Zone maps live in memory only: `gisolap-core`'s MOFT index builds
//! one over the canonical record run, and nothing persists them.
//!
//! # Determinism contract
//!
//! * **Derivation:** zones cover rows `[k·rows_per_zone, (k+1)·rows_per_zone)`
//!   in input order; the last zone is short. The same rows and the same
//!   `rows_per_zone` always produce an identical ([`PartialEq`]) zone map.
//! * **Pruning is conservative:** a zone is skipped only when its summary
//!   proves no row inside can satisfy the bound, so filtering survivors
//!   with the exact predicate reproduces the unpruned scan **bit for
//!   bit, in the same order** (zones and the rows inside them stay in
//!   canonical ascending order).
//! * An empty row run yields a zone map with zero zones that prunes
//!   nothing and matches nothing.

use gisolap_geom::{BBox, Point};

/// The number of rows summarized per zone by the in-memory MOFT index.
pub const DEFAULT_ZONE_ROWS: u32 = 256;

/// Summary of one contiguous block of canonically ordered rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zone {
    /// First row of the zone (index into the summarized run).
    pub start: u32,
    /// Number of rows in the zone (> 0).
    pub len: u32,
    /// Smallest object id in the zone.
    pub oid_min: u64,
    /// Largest object id in the zone.
    pub oid_max: u64,
    /// Smallest timestamp in the zone.
    pub t_min: i64,
    /// Largest timestamp in the zone.
    pub t_max: i64,
    /// Spatial bounds of the zone's positions.
    pub bbox: BBox,
}

impl Zone {
    /// `true` iff some row in the zone *may* satisfy both bounds: the
    /// inclusive time window `[t_lo, t_hi]` and (when given) the spatial
    /// box. `false` is a proof of absence; `true` is only a candidacy.
    pub fn may_match(&self, t_lo: i64, t_hi: i64, bbox: Option<&BBox>) -> bool {
        if self.t_max < t_lo || self.t_min > t_hi {
            return false;
        }
        match bbox {
            Some(b) => self.bbox.intersects(b),
            None => true,
        }
    }
}

/// A zone map over one canonically ordered `(oid, t, x, y)` row run.
///
/// ```
/// use gisolap_index::ZoneMap;
///
/// // (oid, t, x, y) rows in canonical (oid, t)-ascending order.
/// let rows = [(1, 10, 0.0, 0.0), (1, 20, 1.0, 1.0), (2, 35, 9.0, 9.0)];
/// let zm = ZoneMap::build(rows.iter().copied(), 2);
/// assert_eq!(zm.zones().len(), 2); // rows 0..2 and row 2
///
/// // A window past the first zone's t-range [10, 20] prunes it.
/// let keep: Vec<u32> = zm.candidate_zones(30, 40, None).map(|z| z.start).collect();
/// assert_eq!(keep, vec![2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Rows per zone used at build time (the last zone may be shorter).
    pub rows_per_zone: u32,
    /// The zones, ascending by `start`, covering every row exactly once.
    pub zones: Vec<Zone>,
}

impl ZoneMap {
    /// Builds a zone map from `(oid, t, x, y)` rows in canonical order,
    /// `rows_per_zone` rows per block (values below 1 are clamped to 1).
    pub fn build<I: IntoIterator<Item = (u64, i64, f64, f64)>>(
        rows: I,
        rows_per_zone: u32,
    ) -> ZoneMap {
        let rows_per_zone = rows_per_zone.max(1);
        let mut zones = Vec::new();
        let mut cur: Option<Zone> = None;
        for (i, (oid, t, x, y)) in rows.into_iter().enumerate() {
            let z = cur.get_or_insert(Zone {
                start: i as u32,
                len: 0,
                oid_min: oid,
                oid_max: oid,
                t_min: t,
                t_max: t,
                bbox: BBox::empty(),
            });
            z.len += 1;
            z.oid_min = z.oid_min.min(oid);
            z.oid_max = z.oid_max.max(oid);
            z.t_min = z.t_min.min(t);
            z.t_max = z.t_max.max(t);
            // `expanded_to`, not a point box: a NaN coordinate is then
            // skipped rather than tripping the inverted-box assertion.
            z.bbox = z.bbox.expanded_to(Point::new(x, y));
            if z.len == rows_per_zone {
                zones.push(cur.take().expect("zone in progress"));
            }
        }
        if let Some(z) = cur {
            zones.push(z);
        }
        ZoneMap {
            rows_per_zone,
            zones,
        }
    }

    /// The zones, ascending by row range.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Total rows summarized.
    pub fn rows(&self) -> u64 {
        self.zones.iter().map(|z| z.len as u64).sum()
    }

    /// Zones that *may* hold a row matching the inclusive time window
    /// and optional spatial bound, in ascending row order ([`Zone::may_match`]).
    pub fn candidate_zones<'a>(
        &'a self,
        t_lo: i64,
        t_hi: i64,
        bbox: Option<&'a BBox>,
    ) -> impl Iterator<Item = &'a Zone> {
        self.zones
            .iter()
            .filter(move |z| z.may_match(t_lo, t_hi, bbox))
    }

    /// `true` iff any zone may hold a row matching the bounds — the
    /// whole-run prune.
    pub fn may_match(&self, t_lo: i64, t_hi: i64, bbox: Option<&BBox>) -> bool {
        self.candidate_zones(t_lo, t_hi, bbox).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<(u64, i64, f64, f64)> {
        // Two objects, ascending (oid, t), drifting north-east.
        (0..n)
            .map(|i| {
                let oid = if i < n / 2 { 1 } else { 2 };
                (oid, i as i64 * 10, i as f64, i as f64 * 2.0)
            })
            .collect()
    }

    #[test]
    fn empty_rows() {
        let zm = ZoneMap::build(std::iter::empty(), 4);
        assert!(zm.zones().is_empty());
        assert_eq!(zm.rows(), 0);
        assert!(!zm.may_match(i64::MIN, i64::MAX, None));
    }

    #[test]
    fn zones_cover_rows_exactly_once() {
        let zm = ZoneMap::build(rows(10), 4);
        assert_eq!(zm.zones().len(), 3); // 4 + 4 + 2
        assert_eq!(zm.rows(), 10);
        let mut next = 0u32;
        for z in zm.zones() {
            assert_eq!(z.start, next);
            assert!(z.len > 0);
            next += z.len;
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn pruning_is_conservative() {
        let data = rows(64);
        let zm = ZoneMap::build(data.iter().copied(), 8);
        for (t_lo, t_hi) in [(0, 630), (100, 150), (-50, -1), (315, 315)] {
            let survivors: Vec<usize> = zm
                .candidate_zones(t_lo, t_hi, None)
                .flat_map(|z| (z.start as usize)..(z.start + z.len) as usize)
                .collect();
            // Every actually matching row survives the prune.
            for (i, &(_, t, _, _)) in data.iter().enumerate() {
                if t >= t_lo && t <= t_hi {
                    assert!(survivors.contains(&i), "row {i} wrongly pruned");
                }
            }
            // Survivors stay in ascending row order.
            assert!(survivors.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn spatial_prune() {
        let data = rows(32);
        let zm = ZoneMap::build(data.iter().copied(), 4);
        let far = BBox::new(1e6, 1e6, 2e6, 2e6);
        assert!(!zm.may_match(i64::MIN, i64::MAX, Some(&far)));
        let near = BBox::new(0.0, 0.0, 3.0, 6.0);
        let survivors: Vec<u32> = zm
            .candidate_zones(i64::MIN, i64::MAX, Some(&near))
            .map(|z| z.start)
            .collect();
        assert_eq!(survivors, vec![0]);
    }

    #[test]
    fn identical_input_identical_map() {
        let a = ZoneMap::build(rows(20), 6);
        let b = ZoneMap::build(rows(20), 6);
        assert_eq!(a, b);
        let c = ZoneMap::build(rows(20), 5);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_rows_per_zone_clamps_to_one() {
        let zm = ZoneMap::build(rows(3), 0);
        assert_eq!(zm.rows_per_zone, 1);
        assert_eq!(zm.zones().len(), 3);
    }
}
