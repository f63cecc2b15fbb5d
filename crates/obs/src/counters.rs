//! One declaration per counter family.
//!
//! [`counters!`](crate::counters!) takes a single documented field list
//! and yields the family's `Copy` snapshot struct (`pub u64` fields), its
//! [`CounterSet`] impl — exported names, help text, `(name, value)`
//! pairs, saturating delta — and, for families bumped through `&self`,
//! the matching struct of [`Counter`] cells with `snapshot()`/`reset()`.
//! [`MetricsRegistry::fill`](crate::MetricsRegistry::fill) exports any
//! family; the `OBSERVABILITY.md` coverage test walks the same consts.
//! A counter's name is therefore written exactly once.

use std::sync::atomic::{AtomicU64, Ordering};

/// A family of monotone `u64` counters declared with
/// [`counters!`](crate::counters!).
pub trait CounterSet: Copy + Default {
    /// Metric-name prefix: counter `c` exports as `<PREFIX><c>_total`.
    const PREFIX: &'static str;
    /// Help text shared by the family's metrics.
    const HELP: &'static str;
    /// Exported counter names, in declaration order.
    const NAMES: &'static [&'static str];
    /// Each counter's doc text, parallel to [`CounterSet::NAMES`].
    const DOCS: &'static [&'static str];
    /// `[(name, value); N]`.
    type Fields: IntoIterator<Item = (&'static str, u64)> + AsRef<[(&'static str, u64)]>;

    /// Every counter as an `(exported name, value)` pair, in
    /// declaration order.
    fn fields(&self) -> Self::Fields;

    /// A copy with each counter replaced by `f(exported name, value)`.
    fn map(self, f: impl FnMut(&'static str, u64) -> u64) -> Self;

    /// The field-wise difference `self − earlier`, saturating (a reset
    /// between the two snapshots yields zeros instead of wrapping).
    fn delta(&self, earlier: &Self) -> Self;
}

/// One shared counter cell: a `Relaxed` atomic tally. Relaxed suffices
/// because a counter publishes no other data — it is only ever read back
/// as a statistic.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the tally.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current tally.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares a counter family once.
///
/// ```
/// gisolap_obs::counters! {
///     /// Point-in-time copy of the door counters.
///     pub struct DoorStats["app_door_", "Door counter."] cells DoorCounters {
///         /// Times the door opened.
///         opened,
///         /// Times it was slammed.
///         slammed as "slams",
///     }
/// }
/// use gisolap_obs::CounterSet;
///
/// let live = DoorCounters::default();
/// live.opened.inc();
/// live.slammed.add(2);
/// assert_eq!(live.snapshot().fields(), [("opened", 1), ("slams", 2)]);
/// assert_eq!(DoorStats::PREFIX, "app_door_");
/// ```
///
/// `as "name"` overrides a counter's exported name; the `cells Name`
/// clause (optional) also generates the shared-cell struct.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident [$prefix:literal, $help:literal] cells $cells:ident {
            $($body:tt)*
        }
    ) => {
        $crate::counters! { $(#[$meta])* $vis struct $name [$prefix, $help] { $($body)* } }
        $crate::counters! { @cells $vis $cells $name { $($body)* } }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident [$prefix:literal, $help:literal] {
            $( $(#[doc = $doc:literal])+ $field:ident $(as $export:literal)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[doc = $doc])+ pub $field: u64, )+
        }

        impl $crate::CounterSet for $name {
            const PREFIX: &'static str = $prefix;
            const HELP: &'static str = $help;
            const NAMES: &'static [&'static str] =
                &[$( $crate::counters!(@name $field $($export)?) ),+];
            const DOCS: &'static [&'static str] = &[$( concat!($($doc),+) ),+];
            type Fields = [(&'static str, u64); <$name as $crate::CounterSet>::NAMES.len()];

            fn fields(&self) -> Self::Fields {
                [$( ($crate::counters!(@name $field $($export)?), self.$field) ),+]
            }

            fn map(self, mut f: impl FnMut(&'static str, u64) -> u64) -> Self {
                $name {
                    $( $field: f($crate::counters!(@name $field $($export)?), self.$field), )+
                }
            }

            fn delta(&self, earlier: &Self) -> Self {
                $name {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                }
            }
        }
    };
    (@cells $vis:vis $cells:ident $name:ident {
        $( $(#[doc = $doc:literal])+ $field:ident $(as $export:literal)? ),+ $(,)?
    }) => {
        #[doc = concat!(
            "Shared counter cells behind [`", stringify!($name),
            "`]: bumped through `&self`, read via `snapshot()`."
        )]
        #[derive(Debug, Default)]
        $vis struct $cells {
            $( $(#[doc = $doc])+ pub $field: $crate::Counter, )+
        }

        impl $cells {
            /// A fresh, all-zero counter set.
            pub fn new() -> $cells {
                $cells::default()
            }

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.get(), )+ }
            }

            /// Zeroes every counter (e.g. between benchmark phases).
            pub fn reset(&self) {
                $( self.$field.set(0); )+
            }
        }
    };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $export:literal) => { $export };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    counters! {
        /// Test family.
        pub struct DoorStats["app_door_", "Door counter."] cells DoorCounters {
            /// Times the door opened.
            opened,
            /// Times it was slammed
            /// (loudly).
            slammed as "slams",
        }
    }

    #[test]
    fn one_declaration_yields_names_fields_and_cells() {
        assert_eq!(DoorStats::NAMES, ["opened", "slams"]);
        assert_eq!(DoorStats::DOCS[1], " Times it was slammed (loudly).");
        let live = DoorCounters::new();
        live.opened.inc();
        live.slammed.add(4);
        let snap = live.snapshot();
        assert_eq!((snap.opened, snap.slammed), (1, 4));
        assert_eq!(snap.fields(), [("opened", 1), ("slams", 4)]);
        live.reset();
        assert_eq!(live.snapshot(), DoorStats::default());
    }

    #[test]
    fn delta_saturates_and_map_sees_exported_names() {
        let a = DoorStats {
            opened: 5,
            slammed: 1,
        };
        let b = DoorStats {
            opened: 2,
            slammed: 3,
        };
        assert_eq!(
            a.delta(&b),
            DoorStats {
                opened: 3,
                slammed: 0
            }
        );
        let zeroed = a.map(|name, v| if name == "slams" { 0 } else { v });
        assert_eq!(
            zeroed,
            DoorStats {
                opened: 5,
                slammed: 0
            }
        );
    }

    #[test]
    fn fill_exports_prefix_name_total_with_family_help() {
        let mut registry = MetricsRegistry::new();
        registry.fill(
            &DoorStats {
                opened: 7,
                slammed: 0,
            },
            &[("door", "front")],
        );
        let text = registry.render_prometheus();
        assert!(
            text.contains("# HELP app_door_opened_total Door counter."),
            "{text}"
        );
        assert!(
            text.contains("app_door_opened_total{door=\"front\"} 7\n"),
            "{text}"
        );
        assert!(
            text.contains("app_door_slams_total{door=\"front\"} 0\n"),
            "{text}"
        );
    }
}
