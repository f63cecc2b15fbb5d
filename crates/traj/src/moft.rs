//! The Moving-Object Fact Table (MOFT).
//!
//! "We will consider a distinguished Moving Object Fact Table (MOFT), that
//! contains tuples of the form `(Oid, t, x, y)`" (paper, Section 3). Table
//! 1 of the paper is an instance of this structure.
//!
//! Storage is a single record vector kept sorted by `(Oid, t)` with a
//! per-object range index, so per-object tracks are contiguous slices and
//! whole-table scans are cache-friendly. A secondary time-sorted
//! permutation supports time-window scans.

use std::collections::HashMap;

use gisolap_geom::{BBox, Point};
use gisolap_olap::time::TimeId;

use crate::trajectory::Lit;
use crate::{Result, TrajError};

/// Identifier of a moving object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// One MOFT tuple `(Oid, t, x, y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// The moving object.
    pub oid: ObjectId,
    /// Observation instant.
    pub t: TimeId,
    /// Observed x coordinate.
    pub x: f64,
    /// Observed y coordinate.
    pub y: f64,
}

impl Record {
    /// The observed position as a [`Point`].
    pub fn pos(&self) -> Point {
        Point::new(self.x, self.y)
    }
}

/// The Moving-Object Fact Table.
#[derive(Debug, Clone, Default)]
pub struct Moft {
    /// Records sorted by `(oid, t)`.
    records: Vec<Record>,
    /// Object → index range into `records`.
    object_ranges: HashMap<ObjectId, (usize, usize)>,
    /// Permutation of record indices sorted by `t` (for time scans).
    by_time: Vec<u32>,
    /// Whether the indexes reflect `records`.
    clean: bool,
}

impl Moft {
    /// Creates an empty table.
    pub fn new() -> Moft {
        Moft::default()
    }

    /// Builds a table from an iterator of tuples.
    pub fn from_tuples<I: IntoIterator<Item = (u64, i64, f64, f64)>>(tuples: I) -> Moft {
        let mut m = Moft::new();
        for (oid, t, x, y) in tuples {
            m.push(ObjectId(oid), TimeId(t), x, y);
        }
        m.rebuild_index();
        m
    }

    /// Appends one observation (indexes are rebuilt lazily).
    pub fn push(&mut self, oid: ObjectId, t: TimeId, x: f64, y: f64) {
        self.records.push(Record { oid, t, x, y });
        self.clean = false;
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` iff the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn ensure_clean(&self) {
        debug_assert!(
            self.clean || self.records.is_empty(),
            "call rebuild_index() after pushes"
        );
    }

    /// Sorts records and rebuilds the object and time indexes. Duplicate
    /// `(oid, t)` pairs keep the last pushed position
    /// ([`crate::canonical::canonicalize`]).
    pub fn rebuild_index(&mut self) {
        self.records = crate::canonical::canonicalize(std::mem::take(&mut self.records));
        self.index_sorted_records();
    }

    /// Builds a table from records **already sorted** by `(oid, t)` with
    /// no duplicate keys — the contract sealed stream segments guarantee —
    /// so the table is indexed in `O(n)` without re-sorting or copying.
    ///
    /// Returns [`TrajError::UnsortedRecords`] if the precondition fails.
    pub fn from_sorted_records(records: Vec<Record>) -> Result<Moft> {
        for (i, w) in records.windows(2).enumerate() {
            let ord = w[0].oid.cmp(&w[1].oid).then(w[0].t.cmp(&w[1].t));
            if ord != std::cmp::Ordering::Less {
                return Err(TrajError::UnsortedRecords { at: i + 1 });
            }
        }
        let mut m = Moft {
            records,
            ..Moft::new()
        };
        m.index_sorted_records();
        Ok(m)
    }

    /// Builds a table from an iterator of [`Record`]s in any order
    /// (sorted, deduplicated and indexed like [`Moft::rebuild_index`]).
    pub fn from_records<I: IntoIterator<Item = Record>>(records: I) -> Moft {
        let mut m = Moft {
            records: records.into_iter().collect(),
            ..Moft::new()
        };
        m.rebuild_index();
        m
    }

    /// Rebuilds `object_ranges` and `by_time` assuming `self.records` is
    /// already sorted by `(oid, t)` and free of duplicate keys.
    fn index_sorted_records(&mut self) {
        self.object_ranges.clear();
        let mut start = 0usize;
        for i in 1..=self.records.len() {
            if i == self.records.len() || self.records[i].oid != self.records[start].oid {
                self.object_ranges
                    .insert(self.records[start].oid, (start, i));
                start = i;
            }
        }
        let mut by_time: Vec<u32> = (0..self.records.len() as u32).collect();
        by_time.sort_by_key(|&i| self.records[i as usize].t);
        self.by_time = by_time;
        self.clean = true;
    }

    /// All records, sorted by `(oid, t)`.
    pub fn records(&self) -> &[Record] {
        self.ensure_clean();
        &self.records
    }

    /// Distinct object ids, ascending.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.ensure_clean();
        let mut ids: Vec<ObjectId> = self.object_ranges.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Number of distinct objects.
    pub fn object_count(&self) -> usize {
        self.ensure_clean();
        self.object_ranges.len()
    }

    /// The time-sorted track of one object, or `None` if unknown.
    pub fn track(&self, oid: ObjectId) -> Option<&[Record]> {
        self.ensure_clean();
        self.object_ranges
            .get(&oid)
            .map(|&(a, b)| &self.records[a..b])
    }

    /// The linear-interpolation trajectory of one object.
    pub fn trajectory(&self, oid: ObjectId) -> Result<Lit> {
        let track = self.track(oid).ok_or(TrajError::UnknownObject(oid.0))?;
        Lit::from_track(track)
    }

    /// Iterator over records with `t ∈ [from, to]`, time-ascending.
    pub fn time_range(&self, from: TimeId, to: TimeId) -> impl Iterator<Item = &Record> {
        self.ensure_clean();
        let lo = self
            .by_time
            .partition_point(|&i| self.records[i as usize].t < from);
        let hi = self
            .by_time
            .partition_point(|&i| self.records[i as usize].t <= to);
        self.by_time[lo..hi]
            .iter()
            .map(move |&i| &self.records[i as usize])
    }

    /// Earliest and latest observation instants, or `None` when empty.
    pub fn time_bounds(&self) -> Option<(TimeId, TimeId)> {
        self.ensure_clean();
        if self.records.is_empty() {
            return None;
        }
        let first = self.records[self.by_time[0] as usize].t;
        let last = self.records[*self.by_time.last().expect("non-empty") as usize].t;
        Some((first, last))
    }

    /// Spatial bounding box of all observations.
    pub fn bbox(&self) -> BBox {
        self.ensure_clean();
        BBox::from_points(self.records.iter().map(Record::pos))
    }

    /// Filters into a new table keeping records satisfying `pred`.
    pub fn filter<F: Fn(&Record) -> bool>(&self, pred: F) -> Moft {
        self.ensure_clean();
        let mut m = Moft {
            records: self.records.iter().copied().filter(|r| pred(r)).collect(),
            ..Moft::new()
        };
        m.rebuild_index();
        m
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: &Moft) {
        self.records.extend_from_slice(&other.records);
        self.clean = false;
        self.rebuild_index();
    }

    /// Serializes the table as CSV (`oid,t,x,y` with a header line) — the
    /// natural interchange format for the `(Oid, t, x, y)` tuples GPS
    /// devices produce (paper §1.2).
    pub fn to_csv(&self) -> String {
        self.ensure_clean();
        let mut out = String::with_capacity(16 + self.records.len() * 24);
        out.push_str("oid,t,x,y\n");
        for r in &self.records {
            out.push_str(&format!("{},{},{},{}\n", r.oid.0, r.t.0, r.x, r.y));
        }
        out
    }

    /// Parses a table from CSV as produced by [`Moft::to_csv`]. A header
    /// line is optional; blank lines and `#` comments are skipped.
    pub fn from_csv(input: &str) -> Result<Moft> {
        let mut m = Moft::new();
        for (lineno, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if lineno == 0 && line.eq_ignore_ascii_case("oid,t,x,y") {
                continue;
            }
            let mut parts = line.split(',');
            let parse_err = || TrajError::CsvParse { line: lineno + 1 };
            let oid: u64 = parts
                .next()
                .ok_or_else(parse_err)?
                .trim()
                .parse()
                .map_err(|_| parse_err())?;
            let t: i64 = parts
                .next()
                .ok_or_else(parse_err)?
                .trim()
                .parse()
                .map_err(|_| parse_err())?;
            let x: f64 = parts
                .next()
                .ok_or_else(parse_err)?
                .trim()
                .parse()
                .map_err(|_| parse_err())?;
            let y: f64 = parts
                .next()
                .ok_or_else(parse_err)?
                .trim()
                .parse()
                .map_err(|_| parse_err())?;
            if parts.next().is_some() {
                return Err(parse_err());
            }
            if !x.is_finite() || !y.is_finite() {
                return Err(TrajError::NonFiniteCoordinate);
            }
            m.push(ObjectId(oid), TimeId(t), x, y);
        }
        m.rebuild_index();
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Moft {
        // Shuffled insert order on purpose.
        Moft::from_tuples([
            (2, 30, 5.0, 5.0),
            (1, 10, 0.0, 0.0),
            (1, 30, 2.0, 0.0),
            (2, 20, 4.0, 4.0),
            (1, 20, 1.0, 0.0),
            (3, 15, 9.0, 9.0),
        ])
    }

    #[test]
    fn sorted_and_indexed() {
        let m = sample_table();
        assert_eq!(m.len(), 6);
        assert_eq!(m.object_count(), 3);
        assert_eq!(m.objects(), vec![ObjectId(1), ObjectId(2), ObjectId(3)]);
        let t1 = m.track(ObjectId(1)).unwrap();
        assert_eq!(t1.len(), 3);
        assert!(t1.windows(2).all(|w| w[0].t < w[1].t));
        assert!(m.track(ObjectId(9)).is_none());
    }

    #[test]
    fn duplicate_observation_keeps_last() {
        let mut m = Moft::new();
        m.push(ObjectId(1), TimeId(5), 0.0, 0.0);
        m.push(ObjectId(1), TimeId(5), 9.0, 9.0);
        m.rebuild_index();
        assert_eq!(m.len(), 1);
        assert_eq!(m.track(ObjectId(1)).unwrap()[0].pos(), Point::new(9.0, 9.0));
    }

    #[test]
    fn time_range_scan() {
        let m = sample_table();
        let hits: Vec<_> = m.time_range(TimeId(15), TimeId(25)).collect();
        assert_eq!(hits.len(), 3); // t=15, 20, 20
        assert!(hits.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(m.time_range(TimeId(100), TimeId(200)).count(), 0);
        // Inclusive bounds.
        assert_eq!(m.time_range(TimeId(10), TimeId(10)).count(), 1);
    }

    #[test]
    fn bounds() {
        let m = sample_table();
        assert_eq!(m.time_bounds(), Some((TimeId(10), TimeId(30))));
        assert_eq!(m.bbox(), BBox::new(0.0, 0.0, 9.0, 9.0));
        assert_eq!(Moft::new().time_bounds(), None);
    }

    #[test]
    fn trajectory_from_table() {
        let m = sample_table();
        let lit = m.trajectory(ObjectId(1)).unwrap();
        assert_eq!(lit.position_at(15.0), Some(Point::new(0.5, 0.0)));
        assert!(matches!(
            m.trajectory(ObjectId(42)),
            Err(TrajError::UnknownObject(42))
        ));
    }

    #[test]
    fn filter_and_merge() {
        let m = sample_table();
        let only1 = m.filter(|r| r.oid == ObjectId(1));
        assert_eq!(only1.object_count(), 1);
        assert_eq!(only1.len(), 3);

        let mut merged = only1.clone();
        merged.merge(&m.filter(|r| r.oid == ObjectId(3)));
        assert_eq!(merged.object_count(), 2);
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn csv_roundtrip() {
        let m = sample_table();
        let csv = m.to_csv();
        assert!(csv.starts_with("oid,t,x,y\n"));
        let back = Moft::from_csv(&csv).unwrap();
        assert_eq!(back.records(), m.records());
    }

    #[test]
    fn csv_parsing_tolerances() {
        // Headerless, comments, blank lines, spaces.
        let input = "# GPS log\n1, 10, 0.5, 1.5\n\n2,20,3,4\n";
        let m = Moft::from_csv(input).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.track(ObjectId(1)).unwrap()[0].pos(), Point::new(0.5, 1.5));
    }

    #[test]
    fn csv_errors() {
        assert!(matches!(
            Moft::from_csv("1,2,3\n"),
            Err(crate::TrajError::CsvParse { line: 1 })
        ));
        assert!(matches!(
            Moft::from_csv("1,2,3,4,5\n"),
            Err(crate::TrajError::CsvParse { .. })
        ));
        assert!(matches!(
            Moft::from_csv("x,2,3,4\n"),
            Err(crate::TrajError::CsvParse { .. })
        ));
        assert!(matches!(
            Moft::from_csv("1,2,NaN,4\n"),
            Err(crate::TrajError::CsvParse { .. }) | Err(crate::TrajError::NonFiniteCoordinate)
        ));
        // Empty input is an empty table, not an error.
        assert!(Moft::from_csv("").unwrap().is_empty());
    }

    #[test]
    fn from_sorted_records_skips_resort() {
        let sorted = sample_table().records().to_vec();
        let m = Moft::from_sorted_records(sorted.clone()).unwrap();
        assert_eq!(m.records(), sorted.as_slice());
        assert_eq!(m.object_count(), 3);
        assert_eq!(m.time_bounds(), Some((TimeId(10), TimeId(30))));
        // Empty input is fine.
        assert!(Moft::from_sorted_records(Vec::new()).unwrap().is_empty());

        // Out-of-order and duplicate-key inputs are rejected.
        let mut swapped = sorted.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            Moft::from_sorted_records(swapped),
            Err(TrajError::UnsortedRecords { at: 1 })
        ));
        let mut dup = sorted;
        dup[1] = dup[0];
        assert!(matches!(
            Moft::from_sorted_records(dup),
            Err(TrajError::UnsortedRecords { at: 1 })
        ));
    }

    #[test]
    fn from_records_matches_from_tuples() {
        let m = sample_table();
        let again = Moft::from_records(m.records().iter().rev().copied());
        assert_eq!(again.records(), m.records());
    }

    #[test]
    fn empty_table() {
        let mut m = Moft::new();
        m.rebuild_index();
        assert!(m.is_empty());
        assert!(m.objects().is_empty());
        assert!(m.bbox().is_empty());
    }
}
