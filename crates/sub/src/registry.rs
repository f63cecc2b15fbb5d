//! Subscriptions and the capped registry that assigns their ids.

use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_store::{Result, StoreError};
use gisolap_stream::Measure;
use std::collections::BTreeMap;
use std::fmt;

/// Stable identity of a registered subscription: ascending, never
/// reused, assigned by [`Registry::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubId(pub u64);

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An alerting threshold with hysteresis: the subscription *fires up*
/// when its value reaches `rise` while below, and *fires down* when it
/// falls to `fall` while above. `fall ≤ rise` keeps a value jittering
/// between the two bands from firing on every seal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Threshold {
    /// Value at or above which an [`Crossing::Up`] fires.
    ///
    /// [`Crossing::Up`]: crate::standing::Crossing::Up
    pub rise: f64,
    /// Value at or below which an [`Crossing::Down`] fires.
    ///
    /// [`Crossing::Down`]: crate::standing::Crossing::Down
    pub fall: f64,
}

/// One standing query: "the `agg` of `measure` over region `region`,
/// rolled up at `level`, over the trailing `window_hours` window" — plus
/// an optional alerting [`Threshold`] on the scalar window value.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Spatial restriction; cells whose overlay-grid geometry misses the
    /// box are never read. `None` subscribes to everything (and to
    /// observations no layer geometry covers).
    pub region: Option<BBox>,
    /// Time-hierarchy level of the window rollup rows (hour or coarser —
    /// the same constraint batch rollups enforce).
    pub level: TimeLevel,
    /// The coordinate measure aggregated.
    pub measure: Measure,
    /// The aggregate function γ.
    pub agg: AggFn,
    /// Trailing window in whole hours, anchored at the newest sealed
    /// hour holding a cell the region admits. `None` aggregates all
    /// history, including seals made before registration.
    pub window_hours: Option<u32>,
    /// Optional alerting threshold on the scalar window value.
    pub threshold: Option<Threshold>,
}

impl Subscription {
    /// A whole-history, unfiltered subscription on `agg(measure)` at
    /// `level` — restrict with the builder methods.
    pub fn new(level: TimeLevel, measure: Measure, agg: AggFn) -> Subscription {
        Subscription {
            region: None,
            level,
            measure,
            agg,
            window_hours: None,
            threshold: None,
        }
    }

    /// Restricts the subscription to overlay cells intersecting `region`.
    pub fn in_region(mut self, region: BBox) -> Subscription {
        self.region = Some(region);
        self
    }

    /// Restricts the aggregate to the trailing `hours`-hour window.
    pub fn over_hours(mut self, hours: u32) -> Subscription {
        self.window_hours = Some(hours);
        self
    }

    /// Adds an alerting threshold with hysteresis.
    pub fn with_threshold(mut self, rise: f64, fall: f64) -> Subscription {
        self.threshold = Some(Threshold { rise, fall });
        self
    }

    /// Validates the subscription: the rollup level must be hour or
    /// coarser (finer levels cannot be answered from `(hour, geo)`
    /// partials), a window must be at least one hour, and a threshold's
    /// bands must be finite with `fall ≤ rise`.
    pub fn validate(&self) -> Result<()> {
        if matches!(self.level, TimeLevel::TimeId | TimeLevel::Minute) {
            return Err(StoreError::BadConfig(format!(
                "subscription level {:?} is finer than the hour partials can answer",
                self.level
            )));
        }
        if self.window_hours == Some(0) {
            return Err(StoreError::BadConfig(
                "subscription window must cover at least one hour".to_string(),
            ));
        }
        if let Some(t) = self.threshold {
            if !t.rise.is_finite() || !t.fall.is_finite() || t.fall > t.rise {
                return Err(StoreError::BadConfig(format!(
                    "threshold must be finite with fall <= rise (rise {}, fall {})",
                    t.rise, t.fall
                )));
            }
        }
        Ok(())
    }
}

/// The subscription table: validated entries under stable ascending ids,
/// capped at a maximum (`GISOLAP_SUB_MAX`) so one tenant cannot degrade
/// seal latency for everyone unboundedly.
#[derive(Debug, Clone)]
pub struct Registry {
    max: usize,
    next: u64,
    subs: BTreeMap<SubId, Subscription>,
}

impl Registry {
    /// An empty registry admitting at most `max` subscriptions.
    pub fn new(max: usize) -> Registry {
        Registry {
            max,
            next: 0,
            subs: BTreeMap::new(),
        }
    }

    /// An empty registry capped by `GISOLAP_SUB_MAX` (default 1024).
    pub fn from_env() -> Registry {
        let max = gisolap_obs::config::SUB_MAX.parse_u64().unwrap_or(1024);
        Registry::new(usize::try_from(max).unwrap_or(usize::MAX))
    }

    /// Validates and admits `sub`, assigning the next stable id.
    pub fn register(&mut self, sub: Subscription) -> Result<SubId> {
        sub.validate()?;
        if self.subs.len() >= self.max {
            return Err(StoreError::BadConfig(format!(
                "subscription registry is full ({} of {})",
                self.subs.len(),
                self.max
            )));
        }
        let id = SubId(self.next);
        self.next += 1;
        self.subs.insert(id, sub);
        Ok(id)
    }

    /// Removes a subscription; returns it if it was registered.
    pub fn unregister(&mut self, id: SubId) -> Option<Subscription> {
        self.subs.remove(&id)
    }

    /// The subscription under `id`, if registered.
    pub fn get(&self, id: SubId) -> Option<&Subscription> {
        self.subs.get(&id)
    }

    /// All registered subscriptions, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (SubId, &Subscription)> {
        self.subs.iter().map(|(id, s)| (*id, s))
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub() -> Subscription {
        Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count)
    }

    #[test]
    fn ids_are_stable_and_never_reused() {
        let mut r = Registry::new(8);
        let a = r.register(sub()).unwrap();
        let b = r.register(sub()).unwrap();
        assert_eq!((a, b), (SubId(0), SubId(1)));
        assert!(r.unregister(a).is_some());
        let c = r.register(sub()).unwrap();
        assert_eq!(c, SubId(2)); // freed id is not recycled
        assert!(r.get(a).is_none());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn cap_and_validation_are_enforced() {
        let mut r = Registry::new(1);
        r.register(sub()).unwrap();
        let err = r.register(sub()).unwrap_err();
        assert!(err.to_string().contains("full"), "{err}");

        let fine = Subscription::new(TimeLevel::Minute, Measure::X, AggFn::Count);
        assert!(fine.validate().is_err());
        assert!(sub().over_hours(0).validate().is_err());
        assert!(sub().with_threshold(1.0, 2.0).validate().is_err());
        assert!(sub().with_threshold(f64::NAN, 0.0).validate().is_err());
        assert!(sub().with_threshold(5.0, 2.0).validate().is_ok());
    }
}
