//! The incremental rollup state: per-hour partials merged into a
//! queryable [`DeltaCube`] — a sorted run of `(hour, geo)` cells — and
//! the linear roll-up fold over such runs, [`fold_rollup`].

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use gisolap_olap::agg::{AggFn, Partial};
use gisolap_olap::time::{TimeDimension, TimeId, TimeLevel};
use gisolap_traj::Record;

use crate::{GeoResolver, Result, StreamError};

/// Which MOFT measure a rollup aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// The observed x coordinate.
    X,
    /// The observed y coordinate.
    Y,
}

impl Measure {
    /// Extracts the measure value from a record.
    pub fn of(self, r: &Record) -> f64 {
        match self {
            Measure::X => r.x,
            Measure::Y => r.y,
        }
    }
}

/// Grouping key of the incremental state: `(hour granule, geometry id)`.
/// The geometry id is `None` when no resolver is configured or when no
/// layer geometry covers the observation.
pub type GroupKey = (i64, Option<u32>);

/// Both coordinate measures' [`Partial`]s for one group — kept together
/// so a single pass over a segment feeds every later `AGG(x)`/`AGG(y)`
/// query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellPartial {
    /// Partial over the x measure.
    pub x: Partial,
    /// Partial over the y measure.
    pub y: Partial,
}

impl CellPartial {
    /// Feeds one record's coordinates.
    pub fn push(&mut self, r: &Record) {
        self.x.push(r.x);
        self.y.push(r.y);
    }

    /// Merges another cell (over disjoint records) into this one.
    pub fn merge(&mut self, other: &CellPartial) {
        self.x.merge(&other.x);
        self.y.merge(&other.y);
    }

    /// The partial for one measure.
    pub fn measure(&self, m: Measure) -> &Partial {
        match m {
            Measure::X => &self.x,
            Measure::Y => &self.y,
        }
    }
}

/// The one cell kernel: buckets canonical records — `(oid, t)`-sorted,
/// unique keys — fed one at a time into per-`(hour, geo)` cells.
///
/// Sealing, the live-tail cache and snapshots all accumulate through it:
/// each cell receives its values in the order records are pushed, so fed
/// canonical records the result — floats included — is a function of the
/// record multiset alone, independent of arrival order. It allocates per
/// cell, not per record: a slot map finds a key's cell (behind a small
/// direct-mapped memo of recent keys, which answers most lookups without
/// hashing), the resolver appends into one reused id buffer, and
/// [`CellKernel::finish`] sorts the few cells once.
pub(crate) struct CellKernel<'a> {
    resolver: Option<&'a GeoResolver>,
    /// Key → index into `cells`.
    slots: HashMap<GroupKey, usize, SlotState>,
    /// The cells in first-seen order.
    cells: Vec<(GroupKey, CellPartial)>,
    /// The resolver's output for the current record.
    ids: Vec<u32>,
    /// Recent keys and their slots, direct-mapped by [`recent_index`].
    recent: Vec<Option<(GroupKey, usize)>>,
}

/// Entries in [`CellKernel`]'s memo of recent keys.
const RECENT: usize = 256;

/// A key's entry in the memo: its geo id's low bits, offset by the
/// hour, so one hour of a grid of up to [`RECENT`] cells never evicts.
fn recent_index((hour, geo): GroupKey) -> usize {
    (geo.map_or(0, |g| g as usize + 1) ^ hour as usize) % RECENT
}

impl<'a> CellKernel<'a> {
    /// An empty kernel resolving geometry with `resolver`, if any.
    pub(crate) fn new(resolver: Option<&'a GeoResolver>) -> CellKernel<'a> {
        CellKernel {
            resolver,
            slots: HashMap::with_hasher(SlotState::new()),
            cells: Vec::new(),
            ids: Vec::new(),
            recent: vec![None; RECENT],
        }
    }

    /// Feeds the next canonical record: into `(hour, g)` for each
    /// distinct id `g` the resolver returns, or into `(hour, None)` when
    /// it returns none or there is no resolver.
    pub(crate) fn push(&mut self, r: &Record) {
        let hour = TimeDimension::new().hour(r.t);
        let Some(resolve) = self.resolver else {
            return self.add((hour, None), r);
        };
        self.ids.clear();
        resolve(r.pos(), &mut self.ids);
        if self.ids.len() > 1 {
            self.ids.sort_unstable();
            self.ids.dedup();
        }
        match self.ids.len() {
            0 => self.add((hour, None), r),
            n => {
                for i in 0..n {
                    self.add((hour, Some(self.ids[i])), r);
                }
            }
        }
    }

    fn add(&mut self, key: GroupKey, r: &Record) {
        let memo = &mut self.recent[recent_index(key)];
        let slot = match *memo {
            Some((recent, slot)) if recent == key => slot,
            _ => *self.slots.entry(key).or_insert_with(|| {
                self.cells.push((key, CellPartial::default()));
                self.cells.len() - 1
            }),
        };
        *memo = Some((key, slot));
        self.cells[slot].1.push(r);
    }

    /// The cells, strictly ascending by key.
    pub(crate) fn finish(mut self) -> Vec<(GroupKey, CellPartial)> {
        self.cells.sort_unstable_by_key(|(key, _)| *key);
        self.cells
    }
}

/// Buckets canonical records through one [`CellKernel`].
pub(crate) fn bucket_partials(
    records: &[Record],
    resolver: Option<&GeoResolver>,
) -> Vec<(GroupKey, CellPartial)> {
    let mut kernel = CellKernel::new(resolver);
    for r in records {
        kernel.push(r);
    }
    kernel.finish()
}

/// The slot map's hash: FxHash's multiply-rotate over the key's words,
/// started from a random per-map seed and finished with splitmix64's
/// finalizer, so a key's slot depends on all of its bits and on the
/// seed: which keys share a slot cannot be read off the keys (record
/// times and positions come from clients). Cheaper than the default
/// SipHash for these two-word keys; no answer depends on it, since the
/// kernel sorts its cells.
#[derive(Clone, Copy)]
struct SlotState(u64);

impl SlotState {
    fn new() -> SlotState {
        SlotState(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for SlotState {
    type Hasher = SlotHasher;

    fn build_hasher(&self) -> SlotHasher {
        SlotHasher(self.0)
    }
}

struct SlotHasher(u64);

impl SlotHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for SlotHasher {
    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(n.into());
    }

    fn write_i64(&mut self, n: i64) {
        self.mix(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.mix(n as u64);
    }
}

/// One rollup request against the incremental state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollupQuery {
    /// Target Time-hierarchy level; must be hour or coarser.
    pub level: TimeLevel,
    /// Which coordinate measure to aggregate.
    pub measure: Measure,
    /// The aggregate function.
    pub f: AggFn,
    /// Optional time window: only hours whose `[h·3600, h·3600+3599]`
    /// span intersects `[a, b]` contribute (exact record-level `Between`
    /// semantics when `a`/`b` are hour-aligned).
    pub between: Option<(TimeId, TimeId)>,
}

impl RollupQuery {
    /// A whole-history rollup of `f(measure)` at `level`.
    pub fn new(level: TimeLevel, measure: Measure, f: AggFn) -> RollupQuery {
        RollupQuery {
            level,
            measure,
            f,
            between: None,
        }
    }

    /// Restricts the rollup to hours intersecting `[a, b]`.
    pub fn between(mut self, a: TimeId, b: TimeId) -> RollupQuery {
        self.between = Some((a, b));
        self
    }
}

/// One output row of a rollup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollupRow {
    /// Granule id at the query's level (e.g. hours since epoch).
    pub granule: i64,
    /// Geometry id, `None` for the unresolved bucket.
    pub geo: Option<u32>,
    /// The aggregate value.
    pub value: f64,
}

/// What one [`DeltaCube::absorb`] call did: how many partial entries
/// merged into existing cells and how many created new ones. The two add
/// up to the entry count absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsorbOutcome {
    /// Entries merged into a pre-existing `(hour, geo)` cell.
    pub merged: u64,
    /// Entries that created a new cell.
    pub created: u64,
}

/// Whether `hour`'s span `[h·3600, h·3600+3599]` intersects `window` —
/// the one predicate both the rollup's `between` mask and the shard-side
/// window prune apply, which is what makes that prune result-neutral.
/// `hour * 3600` fits an `i64` for every hour bucketed from a record;
/// decoders reject the rest (`gisolap_store::codec`).
pub fn hour_in_window(hour: i64, window: Option<(TimeId, TimeId)>) -> bool {
    window.map_or(true, |(a, b)| {
        let start = hour * 3600;
        start >= a.0.saturating_sub(3599) && start <= b.0
    })
}

/// The queryable incremental state: one [`CellPartial`] per
/// `(hour, geometry)` group, absorbed from sealed segments, held as one
/// **sorted run** — a `Vec` strictly ascending by key.
#[derive(Debug, Clone, Default)]
pub struct DeltaCube {
    cells: Vec<(GroupKey, CellPartial)>,
    merges: u64,
}

impl DeltaCube {
    /// An empty cube.
    pub fn new() -> DeltaCube {
        DeltaCube::default()
    }

    /// Number of `(hour, geometry)` groups held.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` iff no partials have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cumulative count of partial entries merged in via
    /// [`DeltaCube::absorb`].
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Iterates the groups in strictly ascending `(hour, geo)` order.
    pub fn cells(&self) -> impl Iterator<Item = (&GroupKey, &CellPartial)> {
        self.cells.iter().map(|(k, c)| (k, c))
    }

    /// The groups as one run, strictly ascending by `(hour, geo)`.
    pub fn as_slice(&self) -> &[(GroupKey, CellPartial)] {
        &self.cells
    }

    /// Merges a sealed segment's partials into the cube, reporting how
    /// many landed in existing cells versus created new ones (the
    /// distinction the `partial-merge` ingest span surfaces). Segments
    /// must be absorbed in ascending partition order to keep coarse-level
    /// folds canonical.
    ///
    /// A run starting past the cube's last key (every live seal and
    /// restore) is an append; any other ascending run merges in place in
    /// one backward pass. Total: a run that is not ascending is stably
    /// sorted first and entries sharing a key merge in arrival order —
    /// the result of inserting them one by one into an ordered map.
    pub fn absorb(&mut self, partials: &[(GroupKey, CellPartial)]) -> AbsorbOutcome {
        let mut run = Cow::Borrowed(partials);
        if !run.windows(2).all(|w| w[0].0 <= w[1].0) {
            run.to_mut().sort_by_key(|(key, _)| *key);
        }
        // Cells below the run's first key stay put. Count the run's distinct
        // keys the rest lacks, open that many slots at the end...
        let first = run.first().map(|(key, _)| *key);
        let lo = self.cells.partition_point(|(key, _)| Some(*key) < first);
        let mut old = self.cells[lo..].iter().map(|(key, _)| key).peekable();
        let mut created = 0;
        for (i, (key, _)) in run.iter().enumerate() {
            if i == 0 || run[i - 1].0 != *key {
                while old.next_if(|k| *k < key).is_some() {}
                created += usize::from(old.next_if_eq(&key).is_none());
            }
        }
        let mut read = self.cells.len();
        let mut write = read + created;
        self.cells.resize(write, Default::default());
        // ...and merge backwards into them: each key's entries fold onto
        // its old cell (or a fresh one), first to last, landing at `write`.
        let mut end = run.len();
        while end > 0 {
            let key = run[end - 1].0;
            let same = run[..end].iter().rev().take_while(|(k, _)| *k == key);
            let start = end - same.count();
            while read > lo && self.cells[read - 1].0 > key {
                (read, write) = (read - 1, write - 1);
                self.cells[write] = self.cells[read];
            }
            let mut cell = CellPartial::default();
            if read > lo && self.cells[read - 1].0 == key {
                read -= 1;
                cell = self.cells[read].1;
            }
            for (_, entry) in &run[start..end] {
                cell.merge(entry);
            }
            write -= 1;
            self.cells[write] = (key, cell);
            end = start;
        }
        debug_assert_eq!(write, read, "every opened slot is filled");
        self.merges += partials.len() as u64;
        AbsorbOutcome {
            merged: (partials.len() - created) as u64,
            created: created as u64,
        }
    }

    /// Answers a rollup by folding sealed partials plus `tail` cells
    /// (from the live, unsealed records — computed by the caller with the
    /// same canonical bucketing). Rows are sorted by `(granule, geo)`.
    ///
    /// [`fold_rollup`] visits sealed hours in ascending order, then tail
    /// hours in ascending order; since every tail hour is later than every
    /// sealed hour, this is a single ascending-hour fold — the same one a
    /// from-scratch batch build performs, hence bit-identical sums.
    ///
    /// `tail` is any ascending run of borrowed cells: the pipeline passes
    /// its cached tail run, and `&BTreeMap::new()` means no tail.
    pub fn rollup<'a>(
        &'a self,
        q: &RollupQuery,
        tail: impl IntoIterator<Item = (&'a GroupKey, &'a CellPartial)>,
    ) -> Result<Vec<RollupRow>> {
        let cells = self.cells().chain(tail);
        fold_rollup(q, cells.map(|(k, c)| (*k, *c.measure(q.measure))))
    }
}

/// One granule's accumulating groups, ascending by geo.
type Groups = Vec<(Option<u32>, Partial)>;

/// The roll-up `γ` along the Time hierarchy: folds `(hour, geo)` measure
/// partials into one row per `(granule, geo)` group, sorted by group.
///
/// Each group is the left-to-right merge, from the empty partial, of its
/// cells **in the order given** — for any input order. Ascending input is
/// what makes it linear: cells then arrive in hour runs sorted by geo, so
/// the target granule and the window mask are computed once per run, and
/// the run is merge-accumulated into that granule's geo-sorted table
/// (at the `Hour` level, a move). The only index is per granule.
pub fn fold_rollup(
    q: &RollupQuery,
    cells: impl IntoIterator<Item = (GroupKey, Partial)>,
) -> Result<Vec<RollupRow>> {
    if matches!(q.level, TimeLevel::TimeId | TimeLevel::Minute) {
        return Err(StreamError::UnsupportedLevel(q.level));
    }
    let td = TimeDimension::new();
    // One table per granule, ascending; each ascending by geo.
    let mut tables: Vec<(i64, Groups)> = Vec::new();
    // The current run's table (`None`: hour masked), the scan position
    // in it, and the run's new groups that belong before that position.
    let (mut table, mut pos) = (None::<usize>, 0);
    let mut inserts: Vec<(usize, (Option<u32>, Partial))> = Vec::new();
    let mut prev: Option<GroupKey> = None;
    for (key @ (hour, geo), partial) in cells {
        if !prev.is_some_and(|p| p.0 == hour && p < key) {
            if let Some(t) = table {
                insert_all(&mut tables[t].1, &mut inserts);
            }
            table = hour_in_window(hour, q.between).then(|| {
                let granule = td.granule(TimeId(hour * 3600), q.level);
                let t = tables.partition_point(|(g, _)| *g < granule);
                if tables.get(t).map_or(true, |(g, _)| *g != granule) {
                    tables.insert(t, (granule, Vec::new()));
                }
                t
            });
            pos = 0;
        }
        prev = Some(key);
        let Some(t) = table else { continue };
        let groups = &mut tables[t].1;
        if groups.get(pos).is_some_and(|g| g.0 < geo) {
            pos += groups[pos..].partition_point(|g| g.0 < geo);
        }
        let mut fresh = Partial::new();
        match groups.get_mut(pos) {
            Some(group) if group.0 == geo => group.1.merge(&partial),
            Some(_) => {
                fresh.merge(&partial);
                inserts.push((pos, (geo, fresh)));
                continue;
            }
            None => {
                fresh.merge(&partial);
                groups.push((geo, fresh));
            }
        }
        pos += 1;
    }
    if let Some(t) = table {
        insert_all(&mut tables[t].1, &mut inserts);
    }
    let mut rows = Vec::with_capacity(tables.iter().map(|(_, groups)| groups.len()).sum());
    for (granule, groups) in tables {
        rows.extend(groups.into_iter().filter_map(|(geo, partial)| {
            partial.eval(q.f).map(|value| RollupRow {
                granule,
                geo,
                value,
            })
        }));
    }
    Ok(rows)
}

/// Applies a run's pending `(position, group)` inserts — ascending by
/// position, then geo — to its table in one backward pass.
fn insert_all(groups: &mut Groups, inserts: &mut Vec<(usize, (Option<u32>, Partial))>) {
    let mut end = groups.len();
    groups.resize(end + inserts.len(), (None, Partial::new()));
    let mut shift = inserts.len();
    for (at, group) in inserts.drain(..).rev() {
        groups.copy_within(at..end, at + shift);
        shift -= 1;
        groups[at + shift] = group;
        end = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_traj::ObjectId;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y,
        }
    }

    /// The cell under `key` in a bucketed run.
    fn cell(cells: &[(GroupKey, CellPartial)], key: GroupKey) -> &CellPartial {
        let at = cells.binary_search_by_key(&key, |(k, _)| *k).unwrap();
        &cells[at].1
    }

    #[test]
    fn bucketing_follows_hour_granules() {
        let records = [
            rec(1, 10, 1.0, 2.0),
            rec(1, 3599, 3.0, 4.0),
            rec(2, 3600, 5.0, 6.0),
        ];
        let cells = bucket_partials(&records, None);
        assert_eq!(cells.len(), 2);
        assert_eq!(cell(&cells, (0, None)).x.count(), 2);
        assert_eq!(cell(&cells, (1, None)).y.count(), 1);
    }

    #[test]
    fn resolver_fans_out_and_falls_back() {
        let resolver: GeoResolver = Arc::new(|p, out: &mut Vec<u32>| {
            if p.x >= 0.0 {
                out.extend([7, 3, 7]);
            }
        });
        let records = [rec(1, 0, 1.0, 0.0), rec(2, 1, -1.0, 0.0)];
        let cells = bucket_partials(&records, Some(&resolver));
        // Covered record lands in (sorted, deduped) geo cells; uncovered
        // in the None bucket. The run is ascending by key.
        let keys: Vec<GroupKey> = cells.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [(0, None), (0, Some(3)), (0, Some(7))]);
        assert_eq!(cell(&cells, (0, Some(3))).x.count(), 1);
        assert_eq!(cell(&cells, (0, Some(7))).x.count(), 1);
        assert_eq!(cell(&cells, (0, None)).x.count(), 1);
    }

    #[test]
    fn rollup_levels_and_window() {
        let mut cube = DeltaCube::new();
        let sealed = bucket_partials(
            &[
                rec(1, 0, 1.0, 0.0),
                rec(1, 3600, 2.0, 0.0),
                rec(1, 90_000, 4.0, 0.0),
            ],
            None,
        );
        let outcome = cube.absorb(&sealed);
        assert_eq!(cube.merges(), 3);
        assert_eq!(
            outcome,
            AbsorbOutcome {
                merged: 0,
                created: 3
            }
        );
        // Re-absorbing the same keys now merges instead of creating.
        assert_eq!(
            cube.absorb(&sealed),
            AbsorbOutcome {
                merged: 3,
                created: 0
            }
        );
        // Undo the double-absorb for the assertions below.
        let mut cube = DeltaCube::new();
        cube.absorb(&sealed);

        let by_hour = cube
            .rollup(
                &RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum),
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(by_hour.len(), 3);
        let by_day = cube
            .rollup(
                &RollupQuery::new(TimeLevel::Day, Measure::X, AggFn::Sum),
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(
            by_day,
            vec![
                RollupRow {
                    granule: 0,
                    geo: None,
                    value: 3.0
                },
                RollupRow {
                    granule: 1,
                    geo: None,
                    value: 4.0
                },
            ]
        );
        let windowed = cube
            .rollup(
                &RollupQuery::new(TimeLevel::Day, Measure::X, AggFn::Count)
                    .between(TimeId(0), TimeId(3599)),
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(
            windowed,
            vec![RollupRow {
                granule: 0,
                geo: None,
                value: 1.0
            }]
        );

        assert!(matches!(
            cube.rollup(
                &RollupQuery::new(TimeLevel::Minute, Measure::X, AggFn::Sum),
                &BTreeMap::new()
            ),
            Err(StreamError::UnsupportedLevel(TimeLevel::Minute))
        ));
    }
}
