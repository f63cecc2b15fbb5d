//! Fact tables for the application part.
//!
//! A classical fact table (paper Section 3, after Example 3: "instead of
//! storing the population … the same information may reside in a data
//! warehouse, with schema (neighborhood, Year, Population)") maps
//! coordinates in dimension levels to measures.

use crate::agg::{gamma, AggFn};
use crate::instance::{DimensionInstance, MemberId};
use crate::schema::LevelId;
use crate::value::Value;
use crate::{OlapError, Result};

/// A dimension column of a fact table: which dimension and at which level
/// the column's members live.
#[derive(Debug, Clone)]
pub(crate) struct DimColumn {
    /// Column name (unique within the table).
    pub name: String,
    /// Index into the fact table's dimension list.
    pub dimension: usize,
    /// Level of the members stored in this column.
    pub level: LevelId,
}

/// A classical fact table: dimension columns + measure columns.
#[derive(Debug, Clone)]
pub struct FactTable {
    name: String,
    dimensions: Vec<DimensionInstance>,
    dim_cols: Vec<DimColumn>,
    measure_names: Vec<String>,
    /// Row-major dimension coordinates.
    dim_data: Vec<Vec<MemberId>>,
    /// Row-major measures.
    measures: Vec<Vec<f64>>,
}

impl FactTable {
    /// Creates an empty fact table.
    ///
    /// `dim_cols` are `(column_name, dimension_index, level_name)` triples
    /// referring to `dimensions`.
    pub fn new(
        name: impl Into<String>,
        dimensions: Vec<DimensionInstance>,
        dim_cols: &[(&str, usize, &str)],
        measure_names: &[&str],
    ) -> Result<FactTable> {
        let mut cols = Vec::with_capacity(dim_cols.len());
        for (cname, di, lname) in dim_cols {
            let dim = dimensions
                .get(*di)
                .ok_or_else(|| OlapError::UnknownColumn(format!("dimension #{di}")))?;
            let level = dim.schema().level_id(lname)?;
            cols.push(DimColumn {
                name: cname.to_string(),
                dimension: *di,
                level,
            });
        }
        Ok(FactTable {
            name: name.into(),
            dimensions,
            dim_cols: cols,
            measure_names: measure_names.iter().map(|s| s.to_string()).collect(),
            dim_data: Vec::new(),
            measures: Vec::new(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.dim_data.len()
    }

    /// `true` iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.dim_data.is_empty()
    }

    /// The dimension instances backing the table.
    pub fn dimensions(&self) -> &[DimensionInstance] {
        &self.dimensions
    }

    /// The dimension columns.
    pub(crate) fn dim_cols(&self) -> &[DimColumn] {
        &self.dim_cols
    }

    /// The measure names.
    pub fn measure_names(&self) -> &[String] {
        &self.measure_names
    }

    /// Appends a row given member *names* per dimension column and measure
    /// values.
    pub fn insert(&mut self, members: &[&str], measures: &[f64]) -> Result<()> {
        if members.len() != self.dim_cols.len() {
            return Err(OlapError::ArityMismatch {
                expected: self.dim_cols.len(),
                got: members.len(),
            });
        }
        if measures.len() != self.measure_names.len() {
            return Err(OlapError::ArityMismatch {
                expected: self.measure_names.len(),
                got: measures.len(),
            });
        }
        let mut ids = Vec::with_capacity(members.len());
        for (col, m) in self.dim_cols.iter().zip(members) {
            let dim = &self.dimensions[col.dimension];
            ids.push(dim.member_id(col.level, m)?);
        }
        self.dim_data.push(ids);
        self.measures.push(measures.to_vec());
        Ok(())
    }

    /// Index of a dimension column by name.
    pub(crate) fn dim_col_index(&self, name: &str) -> Result<usize> {
        self.dim_cols
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| OlapError::UnknownColumn(name.to_string()))
    }

    /// Index of a measure column by name.
    pub(crate) fn measure_index(&self, name: &str) -> Result<usize> {
        self.measure_names
            .iter()
            .position(|m| m == name)
            .ok_or_else(|| OlapError::UnknownColumn(name.to_string()))
    }

    /// Raw access: measures of row `i`.
    pub fn measure_row(&self, i: usize) -> &[f64] {
        &self.measures[i]
    }

    /// Aggregates `measure` with `f`, grouping by the (possibly rolled-up)
    /// members of `group_cols`.
    ///
    /// Each group column is a `(column_name, target_level_name)` pair: the
    /// stored members are rolled up to `target_level` of the column's
    /// dimension before grouping (the essence of OLAP roll-up). Results
    /// carry the group member names.
    pub fn aggregate(
        &self,
        f: AggFn,
        group_cols: &[(&str, &str)],
        measure: &str,
    ) -> Result<Vec<(Vec<String>, f64)>> {
        let midx = self.measure_index(measure)?;
        let mut specs: Vec<(usize, LevelId, LevelId)> = Vec::with_capacity(group_cols.len());
        for (cname, lname) in group_cols {
            let ci = self.dim_col_index(cname)?;
            let col = &self.dim_cols[ci];
            let dim = &self.dimensions[col.dimension];
            let target = dim.schema().level_id(lname)?;
            if !dim.schema().precedes(col.level, target) {
                return Err(OlapError::UnknownLevel(format!(
                    "cannot roll up column {cname:?} from {} to {lname}",
                    dim.schema().level_name(col.level)
                )));
            }
            specs.push((ci, col.level, target));
        }

        let rows = (0..self.len()).map(|ri| {
            let key: Vec<MemberId> = specs
                .iter()
                .map(|&(ci, from, to)| {
                    let dim = &self.dimensions[self.dim_cols[ci].dimension];
                    dim.rollup(from, to, self.dim_data[ri][ci])
                        .expect("consistent instance rolls up totally")
                })
                .collect();
            (key, self.measures[ri][midx])
        });

        let grouped = gamma(f, rows);
        Ok(grouped
            .into_iter()
            .map(|(key, v)| {
                let names = key
                    .iter()
                    .zip(&specs)
                    .map(|(m, &(ci, _, to))| {
                        let dim = &self.dimensions[self.dim_cols[ci].dimension];
                        dim.member_name(to, *m).to_string()
                    })
                    .collect();
                (names, v)
            })
            .collect())
    }

    /// Returns a filtered copy keeping rows where `col`'s member (rolled up
    /// to `level`) satisfies `pred` — the *dice* operation.
    pub fn dice<F>(&self, col: &str, level: &str, pred: F) -> Result<FactTable>
    where
        F: Fn(&str, &DimensionInstance, MemberId) -> bool,
    {
        let ci = self.dim_col_index(col)?;
        let dcol = &self.dim_cols[ci];
        let dim = &self.dimensions[dcol.dimension];
        let target = dim.schema().level_id(level)?;
        let mut out = self.clone();
        out.dim_data.clear();
        out.measures.clear();
        for ri in 0..self.len() {
            let rolled = dim
                .rollup(dcol.level, target, self.dim_data[ri][ci])
                .expect("total rollup");
            let name = dim.member_name(target, rolled);
            if pred(name, dim, rolled) {
                out.dim_data.push(self.dim_data[ri].clone());
                out.measures.push(self.measures[ri].clone());
            }
        }
        Ok(out)
    }

    /// *Slice*: keep rows whose `col` rolls up to `member` at `level`.
    pub fn slice(&self, col: &str, level: &str, member: &str) -> Result<FactTable> {
        self.dice(col, level, |name, _, _| name == member)
    }

    /// Looks up an attribute of the member stored in `col` at row `ri`.
    pub fn member_attribute(&self, ri: usize, col: &str, attr: &str) -> Result<Value> {
        let ci = self.dim_col_index(col)?;
        let dcol = &self.dim_cols[ci];
        let dim = &self.dimensions[dcol.dimension];
        Ok(dim.attribute(dcol.level, self.dim_data[ri][ci], attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use std::collections::HashMap;

    fn sales_table() -> FactTable {
        let geo = {
            let schema = SchemaBuilder::new("Geography")
                .chain(&["store", "city", "country"])
                .build()
                .unwrap();
            DimensionInstance::builder(schema)
                .rollup("store", "S1", "city", "Antwerp")
                .unwrap()
                .rollup("store", "S2", "city", "Antwerp")
                .unwrap()
                .rollup("store", "S3", "city", "Brussels")
                .unwrap()
                .rollup("city", "Antwerp", "country", "Belgium")
                .unwrap()
                .rollup("city", "Brussels", "country", "Belgium")
                .unwrap()
                .build()
                .unwrap()
        };
        let time = {
            let schema = SchemaBuilder::new("Time")
                .chain(&["month", "year"])
                .build()
                .unwrap();
            DimensionInstance::builder(schema)
                .rollup("month", "2006-01", "year", "2006")
                .unwrap()
                .rollup("month", "2006-02", "year", "2006")
                .unwrap()
                .rollup("month", "2007-01", "year", "2007")
                .unwrap()
                .build()
                .unwrap()
        };
        let mut ft = FactTable::new(
            "sales",
            vec![geo, time],
            &[("store", 0, "store"), ("month", 1, "month")],
            &["amount", "units"],
        )
        .unwrap();
        for (s, m, amount, units) in [
            ("S1", "2006-01", 100.0, 1.0),
            ("S1", "2006-02", 150.0, 2.0),
            ("S2", "2006-01", 200.0, 3.0),
            ("S3", "2006-01", 50.0, 1.0),
            ("S3", "2007-01", 75.0, 2.0),
        ] {
            ft.insert(&[s, m], &[amount, units]).unwrap();
        }
        ft
    }

    #[test]
    fn insert_and_len() {
        let ft = sales_table();
        assert_eq!(ft.len(), 5);
        assert!(!ft.is_empty());
        assert_eq!(
            ft.measure_names(),
            &["amount".to_string(), "units".to_string()]
        );
    }

    #[test]
    fn aggregate_at_stored_level() {
        let ft = sales_table();
        let out = ft
            .aggregate(AggFn::Sum, &[("store", "store")], "amount")
            .unwrap();
        let m: HashMap<_, _> = out.into_iter().map(|(k, v)| (k[0].clone(), v)).collect();
        assert_eq!(m["S1"], 250.0);
        assert_eq!(m["S2"], 200.0);
        assert_eq!(m["S3"], 125.0);
    }

    #[test]
    fn aggregate_with_rollup() {
        let ft = sales_table();
        let out = ft
            .aggregate(AggFn::Sum, &[("store", "city")], "amount")
            .unwrap();
        let m: HashMap<_, _> = out.into_iter().map(|(k, v)| (k[0].clone(), v)).collect();
        assert_eq!(m["Antwerp"], 450.0);
        assert_eq!(m["Brussels"], 125.0);
        // Grand total via All.
        let out = ft
            .aggregate(AggFn::Sum, &[("store", "All")], "amount")
            .unwrap();
        assert_eq!(out[0].1, 575.0);
    }

    #[test]
    fn aggregate_two_group_columns() {
        let ft = sales_table();
        let out = ft
            .aggregate(
                AggFn::Sum,
                &[("store", "city"), ("month", "year")],
                "amount",
            )
            .unwrap();
        let m: HashMap<_, _> = out
            .into_iter()
            .map(|(k, v)| ((k[0].clone(), k[1].clone()), v))
            .collect();
        assert_eq!(m[&("Antwerp".to_string(), "2006".to_string())], 450.0);
        assert_eq!(m[&("Brussels".to_string(), "2006".to_string())], 50.0);
        assert_eq!(m[&("Brussels".to_string(), "2007".to_string())], 75.0);
    }

    #[test]
    fn other_agg_functions() {
        let ft = sales_table();
        let avg = ft
            .aggregate(AggFn::Avg, &[("store", "All")], "amount")
            .unwrap();
        assert_eq!(avg[0].1, 115.0);
        let count = ft
            .aggregate(AggFn::Count, &[("store", "city")], "units")
            .unwrap();
        let m: HashMap<_, _> = count.into_iter().map(|(k, v)| (k[0].clone(), v)).collect();
        assert_eq!(m["Antwerp"], 3.0);
        let max = ft
            .aggregate(AggFn::Max, &[("month", "year")], "amount")
            .unwrap();
        let m: HashMap<_, _> = max.into_iter().map(|(k, v)| (k[0].clone(), v)).collect();
        assert_eq!(m["2006"], 200.0);
        assert_eq!(m["2007"], 75.0);
    }

    #[test]
    fn slice_and_dice() {
        let ft = sales_table();
        let antwerp = ft.slice("store", "city", "Antwerp").unwrap();
        assert_eq!(antwerp.len(), 3);
        let y2006 = ft.slice("month", "year", "2006").unwrap();
        assert_eq!(y2006.len(), 4);
        // Chained: Antwerp in 2006.
        let both = antwerp.slice("month", "year", "2006").unwrap();
        assert_eq!(both.len(), 3);
        let diced = ft
            .dice("store", "store", |name, _, _| name != "S3")
            .unwrap();
        assert_eq!(diced.len(), 3);
    }

    #[test]
    fn error_paths() {
        let mut ft = sales_table();
        assert!(ft.insert(&["S1"], &[1.0, 1.0]).is_err()); // arity
        assert!(ft.insert(&["S1", "2006-01"], &[1.0]).is_err()); // measures
        assert!(ft.insert(&["ghost", "2006-01"], &[1.0, 1.0]).is_err());
        assert!(ft
            .aggregate(AggFn::Sum, &[("nope", "city")], "amount")
            .is_err());
        assert!(ft
            .aggregate(AggFn::Sum, &[("store", "city")], "nope")
            .is_err());
        // Cannot roll a month column up a geography path.
        assert!(ft
            .aggregate(AggFn::Sum, &[("month", "city")], "amount")
            .is_err());
    }
}
