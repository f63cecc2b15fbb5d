//! # gisolap-traj
//!
//! Moving-object substrate for the GISOLAP-MO workspace, implementing
//! Section 3 of Kuijpers & Vaisman (ICDE 2007):
//!
//! * **Trajectory samples** (Definition 6): time-ordered lists of
//!   `(t, x, y)` observations — see [`sample::TrajectorySample`].
//! * **Trajectories** (Definition 5) under the **linear-interpolation
//!   model** `LIT(S)` — see [`trajectory::Lit`] — including closed
//!   trajectories, time-domain queries, position-at-instant and speed.
//! * **Lifeline beads** (Hornsby & Egenhofer, discussed in the paper's
//!   Section 2): uncertainty regions between consecutive samples given a
//!   maximum speed — see [`bead::Bead`].
//! * The **Moving-Object Fact Table** (MOFT): "tuples of the form
//!   `(Oid, t, x, y)`, where `Oid` is the identifier of the moving object,
//!   `t` is a time instant, and `(x, y)` are the coordinates of the object
//!   at instant `t`" — see [`moft::Moft`].
//! * The MOFT's **canonical order** — `(Oid, t)`, last arrival wins —
//!   as one radix kernel: [`canonical::canonicalize`].
//! * **Trajectory/region operations** used by query types 6–8:
//!   time-in-region, passes-through, within-distance intervals — see
//!   [`ops`].
//!
//! ```
//! use gisolap_olap::time::TimeId;
//! use gisolap_traj::moft::{Moft, ObjectId};
//! use gisolap_traj::trajectory::Lit;
//!
//! let mut moft = Moft::new();
//! moft.push(ObjectId(1), TimeId(0), 0.0, 0.0);
//! moft.push(ObjectId(1), TimeId(100), 10.0, 0.0);
//! moft.rebuild_index();
//! let lit = Lit::from_track(moft.track(ObjectId(1)).unwrap()).unwrap();
//! let mid = lit.position_at(50.0).unwrap();
//! assert_eq!((mid.x, mid.y), (5.0, 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod bead;
pub mod canonical;
pub mod moft;
pub mod ops;
pub mod sample;
pub mod trajectory;

pub use moft::{Moft, ObjectId, Record};
pub use sample::TrajectorySample;
pub use trajectory::Lit;

/// Errors for trajectory construction and operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TrajError {
    /// A trajectory needs at least one sample point.
    Empty,
    /// Sample timestamps must be strictly increasing; the offending index.
    NonMonotonicTime {
        /// Index of the first out-of-order sample.
        at: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate,
    /// The object id was not found in the fact table.
    UnknownObject(u64),
    /// A CSV line could not be parsed.
    CsvParse {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// Records handed to [`moft::Moft::from_sorted_records`] were not
    /// strictly sorted by `(oid, t)`.
    UnsortedRecords {
        /// Index of the first record out of order.
        at: usize,
    },
    /// A maximum speed constraint is violated between two samples (the
    /// object would have had to move faster than allowed).
    SpeedViolation {
        /// Index of the first sample of the offending pair.
        at: usize,
        /// Required speed between the samples.
        required: f64,
        /// The allowed maximum.
        vmax: f64,
    },
}

impl std::fmt::Display for TrajError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrajError::Empty => write!(f, "trajectory needs at least one sample"),
            TrajError::NonMonotonicTime { at } => {
                write!(f, "sample timestamps must strictly increase (index {at})")
            }
            TrajError::NonFiniteCoordinate => write!(f, "coordinate is NaN or infinite"),
            TrajError::UnknownObject(id) => write!(f, "unknown object id {id}"),
            TrajError::CsvParse { line } => write!(f, "malformed CSV at line {line}"),
            TrajError::UnsortedRecords { at } => {
                write!(
                    f,
                    "records must be strictly sorted by (oid, t) (index {at})"
                )
            }
            TrajError::SpeedViolation { at, required, vmax } => write!(
                f,
                "samples {at}..{} require speed {required} > vmax {vmax}",
                at + 1
            ),
        }
    }
}

impl std::error::Error for TrajError {}

/// Result alias for trajectory operations.
pub type Result<T> = std::result::Result<T, TrajError>;
