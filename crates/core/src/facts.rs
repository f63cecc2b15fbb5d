//! GIS fact tables (paper Definition 3).
//!
//! A GIS fact table schema is `(G, L, M)`: measures attached to geometry
//! elements of kind `G` in layer `L` (Example 3: neighborhood populations
//! at the polygon level). A **base** GIS fact table attaches measures to
//! the *point* level — a function `R² × L → dom(M₁) × ⋯ × dom(M_k)` —
//! represented here by a density function (Example 3's temperature data;
//! the "total population … where population is given as a density
//! function" of query class 1).

use std::collections::HashMap;
use std::sync::Arc;

use gisolap_geom::Point;

use crate::layer::{GeoId, LayerId};

/// A GIS fact table at a geometry level: `ft : dom(G) × L → dom(M)ᵏ`.
#[derive(Debug, Clone)]
pub struct GisFactTable {
    name: String,
    layer: LayerId,
    measure_names: Vec<String>,
    rows: HashMap<GeoId, Vec<f64>>,
}

impl GisFactTable {
    /// Creates an empty fact table over `layer` with the given measures.
    pub fn new(name: impl Into<String>, layer: LayerId, measure_names: &[&str]) -> GisFactTable {
        GisFactTable {
            name: name.into(),
            layer,
            measure_names: measure_names.iter().map(|s| s.to_string()).collect(),
            rows: HashMap::new(),
        }
    }

    /// The layer whose geometry elements key this table.
    pub fn layer(&self) -> LayerId {
        self.layer
    }

    /// Measure names.
    pub fn measure_names(&self) -> &[String] {
        &self.measure_names
    }

    /// Sets the measures of one geometry element.
    ///
    /// # Panics
    /// Panics if the arity differs from the schema.
    pub fn insert(&mut self, geo: GeoId, measures: &[f64]) {
        assert_eq!(
            measures.len(),
            self.measure_names.len(),
            "measure arity mismatch in {}",
            self.name
        );
        self.rows.insert(geo, measures.to_vec());
    }

    /// The measures of a geometry element.
    pub fn get(&self, geo: GeoId) -> Option<&[f64]> {
        self.rows.get(&geo).map(Vec::as_slice)
    }

    /// One measure of a geometry element, by name.
    pub fn measure(&self, geo: GeoId, name: &str) -> Option<f64> {
        let i = self.measure_names.iter().position(|m| m == name)?;
        self.rows.get(&geo).map(|r| r[i])
    }

    /// Number of keyed geometry elements.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff no element has measures.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterator over `(geo, measures)`.
    pub fn iter(&self) -> impl Iterator<Item = (GeoId, &[f64])> {
        self.rows.iter().map(|(&g, m)| (g, m.as_slice()))
    }
}

/// A base GIS fact table: measures at the *point* level, as a density
/// function over the plane (per layer).
///
/// Cloneable and thread-safe so engines can share it.
#[derive(Clone)]
pub struct BaseFactTable {
    name: String,
    layer: LayerId,
    density: Arc<dyn Fn(Point) -> f64 + Send + Sync>,
}

impl std::fmt::Debug for BaseFactTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseFactTable")
            .field("name", &self.name)
            .field("layer", &self.layer)
            .finish_non_exhaustive()
    }
}

impl BaseFactTable {
    /// Creates a base fact table from a density function.
    pub fn new(
        name: impl Into<String>,
        layer: LayerId,
        density: impl Fn(Point) -> f64 + Send + Sync + 'static,
    ) -> BaseFactTable {
        BaseFactTable {
            name: name.into(),
            layer,
            density: Arc::new(density),
        }
    }

    /// A constant density.
    pub fn constant(name: impl Into<String>, layer: LayerId, value: f64) -> BaseFactTable {
        BaseFactTable::new(name, layer, move |_| value)
    }

    /// A piecewise-constant density: `value[i]` inside `cells[i]`
    /// (first match wins), `default` elsewhere.
    pub fn piecewise(
        name: impl Into<String>,
        layer: LayerId,
        cells: Vec<(gisolap_geom::Polygon, f64)>,
        default: f64,
    ) -> BaseFactTable {
        BaseFactTable::new(name, layer, move |p| {
            cells
                .iter()
                .find(|(poly, _)| poly.contains(p))
                .map_or(default, |&(_, v)| v)
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer this density describes.
    pub fn layer(&self) -> LayerId {
        self.layer
    }

    /// The measure at a point: `ft(x, y, L)`.
    pub fn at(&self, p: Point) -> f64 {
        (self.density)(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_geom::point::pt;
    use gisolap_geom::Polygon;

    #[test]
    fn gis_fact_table_roundtrip() {
        let mut ft = GisFactTable::new("population", LayerId(0), &["pop", "year"]);
        ft.insert(GeoId(0), &[52_000.0, 2006.0]);
        ft.insert(GeoId(1), &[9_000.0, 2006.0]);
        assert_eq!(ft.len(), 2);
        assert_eq!(ft.measure(GeoId(0), "pop"), Some(52_000.0));
        assert_eq!(ft.measure(GeoId(0), "year"), Some(2006.0));
        assert_eq!(ft.measure(GeoId(0), "ghost"), None);
        assert_eq!(ft.get(GeoId(9)), None);
        assert_eq!(ft.measure_names().len(), 2);
        assert_eq!(ft.layer(), LayerId(0));
        let total: f64 = ft.iter().map(|(_, m)| m[0]).sum();
        assert_eq!(total, 61_000.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_enforced() {
        let mut ft = GisFactTable::new("t", LayerId(0), &["a", "b"]);
        ft.insert(GeoId(0), &[1.0]);
    }

    #[test]
    fn base_fact_table_density() {
        let bft = BaseFactTable::new("temperature", LayerId(0), |p| 20.0 + p.y);
        assert_eq!(bft.at(pt(0.0, 5.0)), 25.0);
        assert_eq!(bft.name(), "temperature");
        let c = BaseFactTable::constant("ones", LayerId(0), 1.0);
        assert_eq!(c.at(pt(123.0, -9.0)), 1.0);
    }

    #[test]
    fn piecewise_density() {
        let bft = BaseFactTable::piecewise(
            "pop_density",
            LayerId(0),
            vec![
                (Polygon::rectangle(0.0, 0.0, 1.0, 1.0), 100.0),
                (Polygon::rectangle(1.0, 0.0, 2.0, 1.0), 50.0),
            ],
            0.0,
        );
        assert_eq!(bft.at(pt(0.5, 0.5)), 100.0);
        assert_eq!(bft.at(pt(1.5, 0.5)), 50.0);
        assert_eq!(bft.at(pt(5.0, 5.0)), 0.0);
        // Shared edge: first match wins.
        assert_eq!(bft.at(pt(1.0, 0.5)), 100.0);
    }
}
