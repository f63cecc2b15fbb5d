//! The Time dimension.
//!
//! The paper singles Time out: "since it is essential for addressing
//! moving objects, we believe that we must consider it as a special kind
//! of dimension" (Section 3). Its rollup structure, used throughout the
//! Section 4 example queries, is:
//!
//! ```text
//! timeId → minute → hour → timeOfDay
//! timeId → day → dayOfWeek
//!          day → typeOfDay
//!          day → month → year → All
//! ```
//!
//! Rollups here are *computed* (calendar arithmetic from scratch, after
//! Howard Hinnant's civil-date algorithms) rather than materialized, so a
//! `TimeDimension` covers any instant without pre-enumeration. A
//! materialized [`crate::DimensionInstance`] over a finite instant set can
//! be produced with [`TimeDimension::materialize`] when the generic OLAP
//! machinery needs one.

use crate::instance::{DimensionInstance, InstanceBuilder};
use crate::schema::SchemaBuilder;
use crate::Result;

/// An instant: seconds since the Unix epoch (1970-01-01 00:00:00), in the
/// synthetic world's local time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeId(pub i64);

/// Day-of-week labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayOfWeek {
    /// Monday.
    Monday,
    /// Tuesday.
    Tuesday,
    /// Wednesday.
    Wednesday,
    /// Thursday.
    Thursday,
    /// Friday.
    Friday,
    /// Saturday.
    Saturday,
    /// Sunday.
    Sunday,
}

/// Period-of-day labels (the paper's `timeOfDay` category).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeOfDay {
    /// 00:00–05:59.
    Night,
    /// 06:00–11:59 (the "Morning" of the running example).
    Morning,
    /// 12:00–17:59.
    Afternoon,
    /// 18:00–23:59.
    Evening,
}

/// Weekday/weekend split (the paper's `typeOfDay` category).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeOfDay {
    /// Monday–Friday.
    Weekday,
    /// Saturday–Sunday.
    Weekend,
}

/// The levels of the Time dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeLevel {
    /// The instant itself.
    TimeId,
    /// Minute granule.
    Minute,
    /// Hour granule.
    Hour,
    /// Civil day.
    Day,
    /// Civil month.
    Month,
    /// Civil year.
    Year,
    /// Period of day.
    TimeOfDayLevel,
    /// Day of week.
    DayOfWeekLevel,
    /// Weekday/weekend.
    TypeOfDayLevel,
    /// The top.
    All,
}

impl DayOfWeek {
    /// Canonical label.
    pub fn as_str(self) -> &'static str {
        match self {
            DayOfWeek::Monday => "Monday",
            DayOfWeek::Tuesday => "Tuesday",
            DayOfWeek::Wednesday => "Wednesday",
            DayOfWeek::Thursday => "Thursday",
            DayOfWeek::Friday => "Friday",
            DayOfWeek::Saturday => "Saturday",
            DayOfWeek::Sunday => "Sunday",
        }
    }

    fn from_index(i: i64) -> DayOfWeek {
        match i {
            0 => DayOfWeek::Monday,
            1 => DayOfWeek::Tuesday,
            2 => DayOfWeek::Wednesday,
            3 => DayOfWeek::Thursday,
            4 => DayOfWeek::Friday,
            5 => DayOfWeek::Saturday,
            _ => DayOfWeek::Sunday,
        }
    }
}

impl TimeOfDay {
    /// Canonical label (matching the paper's query literals).
    pub fn as_str(self) -> &'static str {
        match self {
            TimeOfDay::Night => "Night",
            TimeOfDay::Morning => "Morning",
            TimeOfDay::Afternoon => "Afternoon",
            TimeOfDay::Evening => "Evening",
        }
    }
}

impl TypeOfDay {
    /// Canonical label.
    pub fn as_str(self) -> &'static str {
        match self {
            TypeOfDay::Weekday => "Weekday",
            TypeOfDay::Weekend => "Weekend",
        }
    }
}

// --- civil-date arithmetic (Hinnant's algorithms) ---------------------------

/// Days since 1970-01-01 for a civil date.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    debug_assert!((1..=12).contains(&m) && (1..=31).contains(&d));
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 … Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl TimeId {
    /// Builds an instant from a civil date and time of day.
    pub fn from_ymd_hms(y: i64, m: u32, d: u32, hh: u32, mm: u32, ss: u32) -> TimeId {
        debug_assert!(hh < 24 && mm < 60 && ss < 60);
        TimeId(days_from_civil(y, m, d) * 86_400 + (hh * 3600 + mm * 60 + ss) as i64)
    }

    /// Days since the Unix epoch (floor).
    pub(crate) fn day_number(self) -> i64 {
        self.0.div_euclid(86_400)
    }

    /// Seconds within the day, `[0, 86 400)`.
    pub(crate) fn seconds_of_day(self) -> i64 {
        self.0.rem_euclid(86_400)
    }

    /// Civil `(year, month, day)`.
    pub fn ymd(self) -> (i64, u32, u32) {
        civil_from_days(self.day_number())
    }

    /// `(hour, minute, second)` of the day.
    pub(crate) fn hms(self) -> (u32, u32, u32) {
        let s = self.seconds_of_day();
        ((s / 3600) as u32, ((s % 3600) / 60) as u32, (s % 60) as u32)
    }

    /// ISO-ish label `YYYY-MM-DD HH:MM`.
    pub fn label(self) -> String {
        let (y, m, d) = self.ymd();
        let (hh, mm, _) = self.hms();
        format!("{y:04}-{m:02}-{d:02} {hh:02}:{mm:02}")
    }

    /// Date-only label `YYYY-MM-DD` (the paper's day literals, e.g.
    /// `"2006-01-07"`).
    pub fn day_label(self) -> String {
        let (y, m, d) = self.ymd();
        format!("{y:04}-{m:02}-{d:02}")
    }
}

/// The computed Time dimension.
///
/// Construction is configuration-free; the period-of-day boundaries follow
/// the conventional 6/12/18 split (the paper never pins them down — only
/// "Morning" matters for its examples).
#[derive(Debug, Clone, Default)]
pub struct TimeDimension {
    _private: (),
}

impl TimeDimension {
    /// Creates the dimension.
    pub fn new() -> TimeDimension {
        TimeDimension { _private: () }
    }

    /// Backwards-compatible alias for [`TimeDimension::new`].
    pub fn hours() -> TimeDimension {
        TimeDimension::new()
    }

    /// Minute granule id (minutes since epoch): `R^{minute}_{timeId}`.
    pub fn minute(&self, t: TimeId) -> i64 {
        t.0.div_euclid(60)
    }

    /// Hour granule id (hours since epoch): `R^{hour}_{timeId}`.
    pub fn hour(&self, t: TimeId) -> i64 {
        t.0.div_euclid(3600)
    }

    /// Hour of day `[0, 24)`.
    pub fn hour_of_day(&self, t: TimeId) -> u32 {
        (t.seconds_of_day() / 3600) as u32
    }

    /// Day granule id (days since epoch): `R^{day}_{timeId}`.
    pub fn day(&self, t: TimeId) -> i64 {
        t.day_number()
    }

    /// Month granule id (`year * 12 + month - 1`): `R^{month}_{day}` ∘ …
    pub fn month(&self, t: TimeId) -> i64 {
        let (y, m, _) = t.ymd();
        y * 12 + (m as i64 - 1)
    }

    /// Civil year: `R^{year}_{month}` ∘ …
    pub fn year(&self, t: TimeId) -> i64 {
        t.ymd().0
    }

    /// `R^{timeOfDay}_{timeId}` — the rollup used by the running example
    /// (`= "Morning"`).
    pub fn time_of_day(&self, t: TimeId) -> TimeOfDay {
        match self.hour_of_day(t) {
            0..=5 => TimeOfDay::Night,
            6..=11 => TimeOfDay::Morning,
            12..=17 => TimeOfDay::Afternoon,
            _ => TimeOfDay::Evening,
        }
    }

    /// `R^{dayOfWeek}_{timeId}` (e.g. `= "Wednesday"` in query 1 of §4).
    pub fn day_of_week(&self, t: TimeId) -> DayOfWeek {
        // 1970-01-01 was a Thursday (index 3 when Monday = 0).
        DayOfWeek::from_index((t.day_number() + 3).rem_euclid(7))
    }

    /// `R^{typeOfDay}_{timeId}` (e.g. `= "Weekday"` in query 6 of §4).
    pub fn type_of_day(&self, t: TimeId) -> TypeOfDay {
        match self.day_of_week(t) {
            DayOfWeek::Saturday | DayOfWeek::Sunday => TypeOfDay::Weekend,
            _ => TypeOfDay::Weekday,
        }
    }

    /// Generic rollup to a level, returned as a granule id (labels are
    /// stable small integers for the categorical levels).
    pub fn granule(&self, t: TimeId, level: TimeLevel) -> i64 {
        match level {
            TimeLevel::TimeId => t.0,
            TimeLevel::Minute => self.minute(t),
            TimeLevel::Hour => self.hour(t),
            TimeLevel::Day => self.day(t),
            TimeLevel::Month => self.month(t),
            TimeLevel::Year => self.year(t),
            TimeLevel::TimeOfDayLevel => self.time_of_day(t) as i64,
            TimeLevel::DayOfWeekLevel => self.day_of_week(t) as i64,
            TimeLevel::TypeOfDayLevel => self.type_of_day(t) as i64,
            TimeLevel::All => 0,
        }
    }

    /// Human-readable label of the granule containing `t` at `level`.
    pub fn granule_label(&self, t: TimeId, level: TimeLevel) -> String {
        match level {
            TimeLevel::TimeId => t.label(),
            TimeLevel::Minute => {
                let (hh, mm, _) = t.hms();
                format!("{} {hh:02}:{mm:02}", t.day_label())
            }
            TimeLevel::Hour => {
                let (hh, _, _) = t.hms();
                format!("{} {hh:02}:00", t.day_label())
            }
            TimeLevel::Day => t.day_label(),
            TimeLevel::Month => {
                let (y, m, _) = t.ymd();
                format!("{y:04}-{m:02}")
            }
            TimeLevel::Year => format!("{:04}", self.year(t)),
            TimeLevel::TimeOfDayLevel => self.time_of_day(t).as_str().to_string(),
            TimeLevel::DayOfWeekLevel => self.day_of_week(t).as_str().to_string(),
            TimeLevel::TypeOfDayLevel => self.type_of_day(t).as_str().to_string(),
            TimeLevel::All => "all".to_string(),
        }
    }

    /// Materializes the Time dimension over a finite set of instants as a
    /// classical [`DimensionInstance`] (Figure 2's Time hierarchy), with
    /// levels `timeId → hour → timeOfDay` and `timeId → day → month → year`
    /// plus `day → dayOfWeek / typeOfDay`.
    pub fn materialize(&self, instants: &[TimeId]) -> Result<DimensionInstance> {
        let schema = SchemaBuilder::new("Time")
            .level("timeId")
            .level("hour")
            .level("timeOfDay")
            .level("day")
            .level("dayOfWeek")
            .level("typeOfDay")
            .level("month")
            .level("year")
            .rollup("timeId", "hour")
            .rollup("hour", "timeOfDay")
            .rollup("timeOfDay", "All")
            .rollup("timeId", "day")
            .rollup("day", "dayOfWeek")
            .rollup("day", "typeOfDay")
            .rollup("dayOfWeek", "All")
            .rollup("typeOfDay", "All")
            .rollup("day", "month")
            .rollup("month", "year")
            .rollup("year", "All")
            .build()?;
        let mut b: InstanceBuilder = DimensionInstance::builder(schema);
        for &t in instants {
            let tid = t.0.to_string();
            let hour = self.granule_label(t, TimeLevel::Hour);
            let day = t.day_label();
            let month = self.granule_label(t, TimeLevel::Month);
            let year = self.granule_label(t, TimeLevel::Year);
            b = b
                .rollup("timeId", tid.clone(), "hour", hour.clone())?
                .rollup(
                    "hour",
                    hour.clone(),
                    "timeOfDay",
                    self.time_of_day(t).as_str(),
                )?
                .rollup("timeId", tid, "day", day.clone())?
                .rollup(
                    "day",
                    day.clone(),
                    "dayOfWeek",
                    self.day_of_week(t).as_str(),
                )?
                .rollup(
                    "day",
                    day.clone(),
                    "typeOfDay",
                    self.type_of_day(t).as_str(),
                )?
                .rollup("day", day, "month", month.clone())?
                .rollup("month", month, "year", year)?;
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_roundtrip() {
        for (y, m, d) in [
            (1970, 1, 1),
            (2000, 2, 29),
            (2006, 1, 7),
            (1999, 12, 31),
            (2100, 3, 1),
            (1900, 2, 28),
            (1969, 7, 20),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(
                civil_from_days(days),
                (y, m, d),
                "roundtrip for {y}-{m}-{d}"
            );
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }

    #[test]
    fn leap_year_handling() {
        // 2000 is a leap year (divisible by 400), 1900 is not.
        assert_eq!(
            days_from_civil(2000, 3, 1) - days_from_civil(2000, 2, 28),
            2
        );
        assert_eq!(
            days_from_civil(1900, 3, 1) - days_from_civil(1900, 2, 28),
            1
        );
    }

    #[test]
    fn hms_extraction() {
        let t = TimeId::from_ymd_hms(2006, 1, 7, 9, 15, 30);
        assert_eq!(t.ymd(), (2006, 1, 7));
        assert_eq!(t.hms(), (9, 15, 30));
        assert_eq!(t.label(), "2006-01-07 09:15");
        assert_eq!(t.day_label(), "2006-01-07");
    }

    #[test]
    fn paper_instant_is_saturday_morning() {
        // Query 4 of §4 uses 9:15 on Jan 7th, 2006 — a Saturday.
        let dim = TimeDimension::new();
        let t = TimeId::from_ymd_hms(2006, 1, 7, 9, 15, 0);
        assert_eq!(dim.day_of_week(t), DayOfWeek::Saturday);
        assert_eq!(dim.time_of_day(t), TimeOfDay::Morning);
        assert_eq!(dim.type_of_day(t), TypeOfDay::Weekend);
    }

    #[test]
    fn day_of_week_progression() {
        let dim = TimeDimension::new();
        // 1970-01-01 was a Thursday.
        assert_eq!(dim.day_of_week(TimeId(0)), DayOfWeek::Thursday);
        assert_eq!(dim.day_of_week(TimeId(86_400)), DayOfWeek::Friday);
        assert_eq!(dim.day_of_week(TimeId(-86_400)), DayOfWeek::Wednesday);
        // A known Monday: 2006-01-09.
        assert_eq!(
            dim.day_of_week(TimeId::from_ymd_hms(2006, 1, 9, 0, 0, 0)),
            DayOfWeek::Monday
        );
    }

    #[test]
    fn time_of_day_boundaries() {
        let dim = TimeDimension::new();
        let mk = |h| TimeId::from_ymd_hms(2006, 1, 9, h, 0, 0);
        assert_eq!(dim.time_of_day(mk(0)), TimeOfDay::Night);
        assert_eq!(dim.time_of_day(mk(5)), TimeOfDay::Night);
        assert_eq!(dim.time_of_day(mk(6)), TimeOfDay::Morning);
        assert_eq!(dim.time_of_day(mk(11)), TimeOfDay::Morning);
        assert_eq!(dim.time_of_day(mk(12)), TimeOfDay::Afternoon);
        assert_eq!(dim.time_of_day(mk(17)), TimeOfDay::Afternoon);
        assert_eq!(dim.time_of_day(mk(18)), TimeOfDay::Evening);
        assert_eq!(dim.time_of_day(mk(23)), TimeOfDay::Evening);
    }

    #[test]
    fn granules_are_consistent() {
        let dim = TimeDimension::new();
        let t1 = TimeId::from_ymd_hms(2006, 1, 9, 8, 10, 0);
        let t2 = TimeId::from_ymd_hms(2006, 1, 9, 8, 50, 0);
        let t3 = TimeId::from_ymd_hms(2006, 1, 9, 9, 10, 0);
        assert_eq!(dim.hour(t1), dim.hour(t2));
        assert_ne!(dim.hour(t2), dim.hour(t3));
        assert_eq!(dim.day(t1), dim.day(t3));
        assert_eq!(dim.month(t1), dim.month(t3));
        assert_eq!(dim.year(t1), 2006);
        assert_ne!(dim.minute(t1), dim.minute(t2));
    }

    #[test]
    fn granule_labels() {
        let dim = TimeDimension::new();
        let t = TimeId::from_ymd_hms(2006, 1, 7, 9, 15, 0);
        assert_eq!(dim.granule_label(t, TimeLevel::Hour), "2006-01-07 09:00");
        assert_eq!(dim.granule_label(t, TimeLevel::Day), "2006-01-07");
        assert_eq!(dim.granule_label(t, TimeLevel::Month), "2006-01");
        assert_eq!(dim.granule_label(t, TimeLevel::Year), "2006");
        assert_eq!(dim.granule_label(t, TimeLevel::TimeOfDayLevel), "Morning");
        assert_eq!(dim.granule_label(t, TimeLevel::DayOfWeekLevel), "Saturday");
        assert_eq!(dim.granule_label(t, TimeLevel::All), "all");
    }

    #[test]
    fn materialized_instance_rolls_up() {
        let dim = TimeDimension::new();
        let instants: Vec<TimeId> = (6..12)
            .map(|h| TimeId::from_ymd_hms(2006, 1, 9, h, 0, 0))
            .collect();
        let inst = dim.materialize(&instants).unwrap();
        let s = inst.schema();
        let timeid = s.level_id("timeId").unwrap();
        let tod = s.level_id("timeOfDay").unwrap();
        let year = s.level_id("year").unwrap();
        let m = inst.member_id(timeid, &instants[0].0.to_string()).unwrap();
        assert_eq!(
            inst.member_name(tod, inst.rollup(timeid, tod, m).unwrap()),
            "Morning"
        );
        assert_eq!(
            inst.member_name(year, inst.rollup(timeid, year, m).unwrap()),
            "2006"
        );
        assert_eq!(inst.members(s.level_id("hour").unwrap()).len(), 6);
        assert_eq!(inst.members(s.level_id("day").unwrap()).len(), 1);
    }

    #[test]
    fn midnight_and_negative_times() {
        let t = TimeId::from_ymd_hms(1969, 12, 31, 23, 30, 0);
        assert!(t.0 < 0);
        assert_eq!(t.hms(), (23, 30, 0));
        assert_eq!(t.ymd(), (1969, 12, 31));
        let dim = TimeDimension::new();
        assert_eq!(dim.time_of_day(t), TimeOfDay::Evening);
    }
}
