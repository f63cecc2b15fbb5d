//! The spatio-temporal region `C` (paper Section 3.1).
//!
//! The paper expresses the condition set `C` of each aggregate query as a
//! first-order formula over the MOFT, the rollup relations `r`, the
//! attribute functions `α`, attribute comparisons and Time-dimension
//! rollups, e.g. for the running example:
//!
//! ```text
//! C = {(Oid, t) | ∃x ∃y ∃pg ∃n.  n ∈ neighb
//!        ∧ R^{timeOfDay}_{timeId}(t) = "Morning"
//!        ∧ FM_bus(Oid, t, x, y)
//!        ∧ r^{Pt,Pg}_{Ln}(x, y, pg)
//!        ∧ α^{neighb,Pg}_{Ln}(n) = pg
//!        ∧ n.income < 1500 }
//! ```
//!
//! This module gives those formulas a *typed, composable* representation:
//! a conjunction of time predicates (Time-dimension rollups applied to
//! `t`), a spatial predicate (existentially quantified geometry reached
//! through `r` and filtered through `α` and attribute comparisons), an
//! optional *forbidden* spatial predicate (the negated existential of
//! query 3), and an evaluation semantics switch (sample-based vs.
//! interpolated — query types 4 vs. 7).

use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{DayOfWeek, TimeDimension, TimeId, TimeOfDay, TypeOfDay};
use gisolap_olap::value::Value;

use crate::layer::GeoId;

/// Comparison operators for attribute predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// Applies the operator to an ordering result.
    pub fn eval(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering::*;
        #[allow(clippy::match_like_matches_macro)] // table form is clearer
        match (self, ord) {
            (CmpOp::Lt, Some(Less)) => true,
            (CmpOp::Le, Some(Less | Equal)) => true,
            (CmpOp::Eq, Some(Equal)) => true,
            (CmpOp::Ne, Some(Less | Greater)) => true,
            (CmpOp::Ge, Some(Greater | Equal)) => true,
            (CmpOp::Gt, Some(Greater)) => true,
            _ => false,
        }
    }
}

/// A predicate over the observation instant `t`, each corresponding to a
/// Time-dimension rollup equality of the paper
/// (`R^{level}_{timeId}(t) = value`).
#[derive(Debug, Clone, PartialEq)]
pub enum TimePredicate {
    /// `R^{timeOfDay}_{timeId}(t) = v` — e.g. "Morning".
    TimeOfDayIs(TimeOfDay),
    /// `R^{dayOfWeek}_{timeId}(t) = v` — e.g. "Wednesday".
    DayOfWeekIs(DayOfWeek),
    /// `R^{typeOfDay}_{timeId}(t) = v` — e.g. "Weekday".
    TypeOfDayIs(TypeOfDay),
    /// `R^{day}_{timeId}(t) = "YYYY-MM-DD"` — query 5's day literal.
    DayIs(String),
    /// Hour-of-day bounds (inclusive): query 7's `h ≥ 8 ∧ h ≤ 10`.
    HourOfDayIn {
        /// Lowest hour of day (0–23).
        lo: u32,
        /// Highest hour of day (0–23), inclusive.
        hi: u32,
    },
    /// `t` in an absolute closed interval.
    Between(TimeId, TimeId),
    /// `t` exactly at an instant — query 4's "9:15 on Jan 7th, 2006".
    AtInstant(TimeId),
}

impl TimePredicate {
    /// Evaluates the predicate at instant `t` using the Time dimension's
    /// rollup functions.
    pub fn eval(&self, time: &TimeDimension, t: TimeId) -> bool {
        match self {
            TimePredicate::TimeOfDayIs(v) => time.time_of_day(t) == *v,
            TimePredicate::DayOfWeekIs(v) => time.day_of_week(t) == *v,
            TimePredicate::TypeOfDayIs(v) => time.type_of_day(t) == *v,
            TimePredicate::DayIs(label) => day_label_is(t, label),
            TimePredicate::HourOfDayIn { lo, hi } => {
                let h = time.hour_of_day(t);
                h >= *lo && h <= *hi
            }
            TimePredicate::Between(a, b) => t >= *a && t <= *b,
            TimePredicate::AtInstant(v) => t == *v,
        }
    }
}

/// `t.day_label() == label` without touching the heap: the same
/// `{y:04}-{m:02}-{d:02}` rendering, written into a stack buffer. Region
/// evaluation runs this once per record.
fn day_label_is(t: TimeId, label: &str) -> bool {
    use std::io::Write;
    let (y, m, d) = t.ymd();
    let mut buf = [0u8; 32];
    let len = {
        let mut rest = &mut buf[..];
        write!(rest, "{y:04}-{m:02}-{d:02}").expect("32 bytes hold any i64 year and -MM-DD");
        32 - rest.len()
    };
    buf[..len] == *label.as_bytes()
}

/// Evaluates a conjunction of time predicates.
pub fn eval_time(preds: &[TimePredicate], time: &TimeDimension, t: TimeId) -> bool {
    preds.iter().all(|p| p.eval(time, t))
}

/// Filters over the geometry elements of a layer — the `α`/attribute side
/// of the formula, selecting which elements the existential `∃pg` ranges
/// over.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoFilter {
    /// All elements of the layer.
    All,
    /// A single named member: `α(category, member) = g`
    /// (query 1's `α^{region,Pg}("South") = pg`).
    Member {
        /// The application category.
        category: String,
        /// The member name.
        member: String,
    },
    /// Attribute comparison through α: `n.income < 1500`.
    AttrCompare {
        /// The application category supplying members.
        category: String,
        /// The attribute name.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand value.
        value: Value,
    },
    /// An explicit element set (e.g. the output of a Piet-QL geometric
    /// sub-query, Section 5).
    Ids(Vec<GeoId>),
    /// Elements whose geometry intersects some element of another layer
    /// ("cities crossed by a river").
    IntersectsLayer {
        /// The other layer's name.
        layer: String,
    },
    /// Polygon elements containing at least one node of another layer
    /// ("cities … containing at least one store").
    ContainsNodeOf {
        /// The node layer's name.
        layer: String,
    },
    /// Type-5 nested aggregation: keep elements whose aggregated fact-
    /// table measure satisfies a comparison ("neighborhoods where the
    /// number of people with income < €1500 is larger than 50,000"). The
    /// aggregation `γ_{agg measure(category)}` runs *inside* region
    /// evaluation, over a classical fact table of the application part —
    /// the "second order" aggregate query of §3.1.
    FactAggCompare {
        /// The classical fact table's name (registered in the GIS).
        table: String,
        /// The fact table's dimension column to group by.
        column: String,
        /// The level to roll `column` up to — must be an α-bound category
        /// so results map back to geometry elements.
        category: String,
        /// The measure to aggregate.
        measure: String,
        /// The aggregate function (per category member).
        agg: AggFn,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand value.
        value: f64,
    },
    /// Conjunction.
    And(Box<GeoFilter>, Box<GeoFilter>),
    /// Complement (within the layer's element set).
    Not(Box<GeoFilter>),
}

impl GeoFilter {
    /// `a AND b` convenience.
    pub fn and(self, other: GeoFilter) -> GeoFilter {
        GeoFilter::And(Box::new(self), Box::new(other))
    }

    /// `NOT a` convenience.
    pub fn negate(self) -> GeoFilter {
        GeoFilter::Not(Box::new(self))
    }
}

/// The spatial atom of the formula: the point `(x, y)` of the MOFT tuple
/// must be related (through `r^{Pt,G}_L`) to some element of `layer`
/// passing `filter` — optionally within a distance (queries 6–7).
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPredicate {
    /// The layer whose elements the existential ranges over.
    pub layer: String,
    /// Which elements qualify.
    pub filter: GeoFilter,
    /// `None`: membership (`r^{Pt,G}_L(x, y, g)`). `Some(d)`: within
    /// Euclidean distance `d` of the element
    /// (`(x−x₁)² + (y−y₁)² ≤ d²`).
    pub within_distance: Option<f64>,
}

impl SpatialPredicate {
    /// Membership in an element of `layer` passing `filter`.
    pub fn in_layer(layer: impl Into<String>, filter: GeoFilter) -> SpatialPredicate {
        SpatialPredicate {
            layer: layer.into(),
            filter,
            within_distance: None,
        }
    }

    /// Within `distance` of an element of `layer` passing `filter`.
    pub fn near_layer(
        layer: impl Into<String>,
        filter: GeoFilter,
        distance: f64,
    ) -> SpatialPredicate {
        SpatialPredicate {
            layer: layer.into(),
            filter,
            within_distance: Some(distance),
        }
    }
}

/// How the spatial predicate is applied to the moving-object data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpatialSemantics {
    /// Only recorded sample positions count ("we are assuming that cars
    /// are only in the regions where they were sampled", query 1) — the
    /// paper's types 3–6.
    #[default]
    SampleBased,
    /// The linear-interpolation trajectory counts ("a linear interpolation
    /// may indicate that the object has passed through that
    /// neighborhood") — the paper's types 7–8. Tuples are emitted at
    /// sample instants of legs that touch the region, and interval
    /// queries ([`crate::engine::QueryEngine::legs_intersect_geo`])
    /// expose the exact crossing times.
    Interpolated,
}

/// The region `C`: the typed counterpart of the paper's FO formulas.
#[derive(Debug, Clone, Default)]
pub struct RegionC {
    /// Conjunctive time predicates (Time-dimension rollups on `t`).
    pub time: Vec<TimePredicate>,
    /// The spatial atom, if the query has one (types 4–8; absent for
    /// type 3).
    pub spatial: Option<SpatialPredicate>,
    /// Query 3's negated existential: objects having **any**
    /// (time-filtered) tuple satisfying this predicate are excluded
    /// entirely.
    pub forbid: Option<SpatialPredicate>,
    /// Sample-based vs. interpolated evaluation.
    pub semantics: SpatialSemantics,
}

impl RegionC {
    /// A region with no constraints (the whole time-filtered MOFT).
    pub fn all() -> RegionC {
        RegionC::default()
    }

    /// Builder: adds a time predicate.
    pub fn with_time(mut self, p: TimePredicate) -> RegionC {
        self.time.push(p);
        self
    }

    /// Builder: sets the spatial predicate.
    pub fn with_spatial(mut self, p: SpatialPredicate) -> RegionC {
        self.spatial = Some(p);
        self
    }

    /// Builder: sets the forbidden predicate (query 3's negation).
    pub fn with_forbid(mut self, p: SpatialPredicate) -> RegionC {
        self.forbid = Some(p);
        self
    }

    /// Builder: switches to interpolated semantics.
    pub fn interpolated(mut self) -> RegionC {
        self.semantics = SpatialSemantics::Interpolated;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_table() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.eval(Some(Less)));
        assert!(!CmpOp::Lt.eval(Some(Equal)));
        assert!(CmpOp::Le.eval(Some(Equal)));
        assert!(CmpOp::Eq.eval(Some(Equal)));
        assert!(CmpOp::Ne.eval(Some(Greater)));
        assert!(!CmpOp::Ne.eval(Some(Equal)));
        assert!(CmpOp::Ge.eval(Some(Greater)));
        assert!(CmpOp::Gt.eval(Some(Greater)));
        assert!(!CmpOp::Gt.eval(Some(Less)));
        // Incomparable (e.g. NULL) fails every operator.
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ] {
            assert!(!op.eval(None));
        }
    }

    #[test]
    fn time_predicates_evaluate_rollups() {
        let time = TimeDimension::new();
        let sat_morning = TimeId::from_ymd_hms(2006, 1, 7, 9, 15, 0);
        assert!(TimePredicate::TimeOfDayIs(TimeOfDay::Morning).eval(&time, sat_morning));
        assert!(TimePredicate::DayOfWeekIs(DayOfWeek::Saturday).eval(&time, sat_morning));
        assert!(TimePredicate::TypeOfDayIs(TypeOfDay::Weekend).eval(&time, sat_morning));
        assert!(TimePredicate::DayIs("2006-01-07".into()).eval(&time, sat_morning));
        assert!(!TimePredicate::DayIs("2006-01-08".into()).eval(&time, sat_morning));
        assert!(TimePredicate::HourOfDayIn { lo: 8, hi: 10 }.eval(&time, sat_morning));
        assert!(!TimePredicate::HourOfDayIn { lo: 10, hi: 12 }.eval(&time, sat_morning));
        assert!(TimePredicate::AtInstant(sat_morning).eval(&time, sat_morning));
        assert!(
            TimePredicate::Between(TimeId(sat_morning.0 - 10), TimeId(sat_morning.0 + 10))
                .eval(&time, sat_morning)
        );
        // Conjunction.
        assert!(eval_time(
            &[
                TimePredicate::TimeOfDayIs(TimeOfDay::Morning),
                TimePredicate::DayOfWeekIs(DayOfWeek::Saturday),
            ],
            &time,
            sat_morning
        ));
        assert!(!eval_time(
            &[
                TimePredicate::TimeOfDayIs(TimeOfDay::Morning),
                TimePredicate::DayOfWeekIs(DayOfWeek::Monday),
            ],
            &time,
            sat_morning
        ));
    }

    /// A label for `t`: its own, a neighbour's, a mangled one, or junk.
    fn label_near(t: TimeId, kind: u8, k: i64) -> String {
        let own = t.day_label();
        match kind {
            0 => own,
            1 => TimeId(t.0.saturating_add(k * 86_400)).day_label(),
            2 => own[..own.len().saturating_sub((k.unsigned_abs() % 4) as usize)].to_string(),
            3 => format!("{own}{}", k.rem_euclid(10)),
            4 => own.replacen('-', "/", 1),
            5 => format!("+{own}"),
            _ => format!("{k}"),
        }
    }

    proptest::proptest! {
        #[test]
        fn day_is_agrees_with_the_day_label(
            // ±~12,700 years: negative years and years past 9999.
            t in -400_000_000_000i64..400_000_000_000,
            kind in 0u8..7,
            k in -3i64..4,
        ) {
            let t = TimeId(t);
            let label = label_near(t, kind, k);
            let time = TimeDimension::new();
            proptest::prop_assert_eq!(
                TimePredicate::DayIs(label.clone()).eval(&time, t),
                t.day_label() == label,
                "t = {:?}, label = {:?}", t, label
            );
        }
    }

    #[test]
    fn builders_compose() {
        let c = RegionC::all()
            .with_time(TimePredicate::TimeOfDayIs(TimeOfDay::Morning))
            .with_spatial(SpatialPredicate::in_layer(
                "Ln",
                GeoFilter::AttrCompare {
                    category: "neighborhood".into(),
                    attr: "income".into(),
                    op: CmpOp::Lt,
                    value: Value::Int(1500),
                },
            ))
            .interpolated();
        assert_eq!(c.time.len(), 1);
        assert!(c.spatial.is_some());
        assert!(c.forbid.is_none());
        assert_eq!(c.semantics, SpatialSemantics::Interpolated);
    }

    #[test]
    fn geo_filter_combinators() {
        let f = GeoFilter::All.and(GeoFilter::Member {
            category: "city".into(),
            member: "Antwerp".into(),
        });
        assert!(matches!(f, GeoFilter::And(..)));
        let n = GeoFilter::All.negate();
        assert!(matches!(n, GeoFilter::Not(_)));
    }

    #[test]
    fn spatial_predicate_constructors() {
        let p = SpatialPredicate::in_layer("Ln", GeoFilter::All);
        assert_eq!(p.within_distance, None);
        let q = SpatialPredicate::near_layer("Ls", GeoFilter::All, 100.0);
        assert_eq!(q.within_distance, Some(100.0));
    }
}
