//! # gisolap-pietql
//!
//! **Piet-QL**: the query language of the Piet implementation the paper
//! sketches in Section 5. A Piet-QL query has a *geometric part* answered
//! against the (precomputed) layer overlay, optionally followed — after a
//! `|` separator — by a *moving-objects part* that aggregates over the
//! objects whose trajectories relate to the qualifying geometries.
//!
//! The paper's example:
//!
//! ```text
//! SELECT layer.usa_cities;
//! FROM PietSchema;
//! WHERE intersection(layer.usa_rivers, layer.usa_cities, subplevel.Linestring)
//! AND (layer.usa_cities) CONTAINS (layer.usa_cities, layer.usa_stores, subplevel.Point);
//! ```
//!
//! This crate implements a cleaned-up grammar of that language
//! (see [`parser`] for the EBNF), plus attribute conditions
//! (`attr(layer.Ln, neighborhood.income < 1500)`) so the running example
//! is expressible, and a moving-objects part:
//!
//! ```text
//! SELECT layer.cities;
//! FROM CitySchema;
//! WHERE intersection(layer.cities, layer.rivers, subplevel.Linestring)
//!   AND (layer.cities) CONTAINS (layer.cities, layer.stores, subplevel.Point)
//! | COUNT(PASSES)
//! ```
//!
//! Execution ([`exec`]) targets any [`gisolap_core::QueryEngine`] — with
//! the [`gisolap_core::OverlayEngine`] the geometric part is answered
//! from the precomputed overlay, exactly as Section 5 describes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod exec;
pub(crate) mod lexer;
pub mod parser;

pub use ast::{GeoCondition, MoAggregate, MoTarget, PietQuery};
pub use exec::{execute, QueryOutput};
pub use parser::parse;

/// Errors raised while parsing or executing Piet-QL.
#[derive(Debug, Clone, PartialEq)]
pub enum PietError {
    /// Lexical error with byte offset.
    Lex {
        /// Byte offset in the input.
        at: usize,
        /// Explanation.
        msg: String,
    },
    /// Parse error with token position.
    Parse {
        /// Index of the offending token.
        at: usize,
        /// Explanation.
        msg: String,
    },
    /// Name-resolution / execution error.
    Exec(String),
}

impl std::fmt::Display for PietError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PietError::Lex { at, msg } => write!(f, "lex error at byte {at}: {msg}"),
            PietError::Parse { at, msg } => write!(f, "parse error at token {at}: {msg}"),
            PietError::Exec(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for PietError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, PietError>;
