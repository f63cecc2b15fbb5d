//! # gisolap-datagen
//!
//! Synthetic workloads for the GISOLAP-MO workspace.
//!
//! The paper's evaluation data (Antwerp layers, bus GPS samples) was never
//! published; this crate substitutes deterministic generators that
//! exercise the same code paths (see DESIGN.md §1.5 for the substitution
//! argument):
//!
//! * [`fig1`] — the **exact running example** of the paper: Figure 1's
//!   six buses over low/high-income neighborhoods, Table 1's MOFT, and
//!   the Remark 1 query whose answer must be 4/3.
//! * [`city`] — a parameterized synthetic city: a neighborhood partition
//!   with income/population attributes, a river, streets, schools,
//!   stores, and tram stops, assembled into a [`gisolap_core::Gis`].
//! * [`movers`] — moving-object generators (random waypoint, bus-route
//!   followers, commuters) producing MOFTs of any size, seeded and
//!   reproducible.
//! * [`crowd`] — a bursty event crowd converging on one venue cell, the
//!   canonical density-spike workload for standing queries.
//! * [`stream`] — replays any of the above as timestamped, out-of-order
//!   record batches (bounded shuffle) for the streaming ingest pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod city;
pub mod crowd;
pub mod fig1;
pub mod io;
pub mod movers;
pub mod stream;

pub use city::{CityConfig, CityScenario};
pub use crowd::EventCrowd;
pub use fig1::Fig1Scenario;
pub use stream::{crash_replay, replay_fig1, stream_batches, CrashScenario, ReplayConfig};
