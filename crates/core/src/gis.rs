//! The GIS dimension instance: layers + application part + α functions.
//!
//! Implements Definition 2: a GIS dimension instance bundles the rollup
//! relations `r` (computed by the layers), the attribute-function
//! instances `α^{A,G}_L : dom(A) → dom(G) × dom(L)` binding application
//! members to geometry elements, and the application-part dimension
//! instances. The distinguished Time dimension (Section 3) is always
//! present.

use std::collections::HashMap;

use gisolap_geom::Point;
use gisolap_olap::instance::DimensionInstance;
use gisolap_olap::time::TimeDimension;
use gisolap_olap::value::Value;
use gisolap_olap::FactTable;

use crate::layer::{GeoId, GeometryKind, Layer, LayerId};
use crate::schema::GisSchema;
use crate::{CoreError, Result};

/// One α function instance: members of an application category bound to
/// geometry elements of one layer.
#[derive(Debug, Clone)]
pub struct AlphaBinding {
    /// The application category (e.g. `neighborhood`).
    pub category: String,
    /// The dimension holding the category (e.g. `Neighbourhoods`).
    pub dimension: String,
    /// The target layer.
    pub layer: LayerId,
    member_to_geo: HashMap<String, GeoId>,
    geo_to_member: HashMap<GeoId, String>,
}

impl AlphaBinding {
    /// `α(member)`, if bound.
    pub(crate) fn geo_of(&self, member: &str) -> Option<GeoId> {
        self.member_to_geo.get(member).copied()
    }

    /// `α⁻¹(geo)`, if bound.
    pub fn member_of(&self, geo: GeoId) -> Option<&str> {
        self.geo_to_member.get(&geo).map(String::as_str)
    }

    /// All bound `(member, geo)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, GeoId)> {
        self.member_to_geo.iter().map(|(m, &g)| (m.as_str(), g))
    }
}

/// The assembled GIS: schema, layers, application dimensions, α bindings,
/// classical fact tables, and the Time dimension.
#[derive(Debug, Clone, Default)]
pub struct Gis {
    schema: Option<GisSchema>,
    layers: Vec<Layer>,
    layer_index: HashMap<String, LayerId>,
    dimensions: HashMap<String, DimensionInstance>,
    alphas: HashMap<String, AlphaBinding>,
    fact_tables: HashMap<String, FactTable>,
    time: TimeDimension,
}

impl Gis {
    /// An empty GIS.
    pub fn new() -> Gis {
        Gis::default()
    }

    /// Attaches the formal schema (optional but recommended; validated at
    /// construction by [`GisSchema::new`]).
    pub fn set_schema(&mut self, schema: GisSchema) {
        self.schema = Some(schema);
    }

    /// The formal schema, if attached.
    pub fn schema(&self) -> Option<&GisSchema> {
        self.schema.as_ref()
    }

    /// Adds a layer, returning its id.
    pub fn add_layer(&mut self, layer: Layer) -> LayerId {
        let id = LayerId(self.layers.len() as u32);
        self.layer_index.insert(layer.name().to_string(), id);
        self.layers.push(layer);
        id
    }

    /// Resolves a layer by name.
    pub fn layer_id(&self, name: &str) -> Result<LayerId> {
        self.layer_index
            .get(name)
            .copied()
            .ok_or_else(|| CoreError::UnknownLayer(name.to_string()))
    }

    /// A layer by id.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.0 as usize]
    }

    /// A layer by name.
    pub fn layer_by_name(&self, name: &str) -> Result<&Layer> {
        Ok(self.layer(self.layer_id(name)?))
    }

    /// All layers with their ids.
    pub fn layers(&self) -> impl Iterator<Item = (LayerId, &Layer)> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| (LayerId(i as u32), l))
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Adds an application dimension instance.
    pub fn add_dimension(&mut self, dim: DimensionInstance) {
        self.dimensions.insert(dim.schema().name().to_string(), dim);
    }

    /// An application dimension by name.
    pub fn dimension(&self, name: &str) -> Result<&DimensionInstance> {
        self.dimensions
            .get(name)
            .ok_or_else(|| CoreError::UnknownDimension(name.to_string()))
    }

    /// Adds a classical fact table (application part).
    pub fn add_fact_table(&mut self, ft: FactTable) {
        self.fact_tables.insert(ft.name().to_string(), ft);
    }

    /// A fact table by name.
    pub fn fact_table(&self, name: &str) -> Result<&FactTable> {
        self.fact_tables
            .get(name)
            .ok_or_else(|| CoreError::UnknownFactTable(name.to_string()))
    }

    /// Registers an α binding: members of `category` (a level of
    /// `dimension`) map to geometry elements of `layer`.
    pub fn bind_alpha(
        &mut self,
        category: impl Into<String>,
        dimension: impl Into<String>,
        layer: &str,
        pairs: &[(&str, GeoId)],
    ) -> Result<()> {
        let layer_id = self.layer_id(layer)?;
        let category = category.into();
        let mut member_to_geo = HashMap::with_capacity(pairs.len());
        let mut geo_to_member = HashMap::with_capacity(pairs.len());
        for (m, g) in pairs {
            // Validate the geometry exists.
            self.layer(layer_id).geometry(*g)?;
            member_to_geo.insert(m.to_string(), *g);
            geo_to_member.insert(*g, m.to_string());
        }
        self.alphas.insert(
            category.clone(),
            AlphaBinding {
                category,
                dimension: dimension.into(),
                layer: layer_id,
                member_to_geo,
                geo_to_member,
            },
        );
        Ok(())
    }

    /// Names of every α-bound category, sorted.
    pub fn alpha_categories(&self) -> Vec<String> {
        let mut v: Vec<String> = self.alphas.keys().cloned().collect();
        v.sort();
        v
    }

    /// The α binding of a category.
    pub fn alpha(&self, category: &str) -> Result<&AlphaBinding> {
        self.alphas
            .get(category)
            .ok_or_else(|| CoreError::UnknownCategory(category.to_string()))
    }

    /// `α^{A,G}_L(member)` — the geometry element representing `member`
    /// (paper notation `α_{neighb,Pg,Ln}(n) = pg`).
    pub(crate) fn alpha_geo(&self, category: &str, member: &str) -> Result<(LayerId, GeoId)> {
        let b = self.alpha(category)?;
        let g = b.geo_of(member).ok_or_else(|| CoreError::UnboundMember {
            category: category.to_string(),
            member: member.to_string(),
        })?;
        Ok((b.layer, g))
    }

    /// An attribute value of an application member (e.g. `n.income`),
    /// looked up at the category's level in its dimension.
    pub fn member_attribute(&self, category: &str, member: &str, attr: &str) -> Result<Value> {
        let binding = self.alpha(category)?;
        let dim = self.dimension(&binding.dimension)?;
        let level = dim.schema().level_id(category)?;
        let mid = dim.member_id(level, member)?;
        Ok(dim.attribute(level, mid, attr))
    }

    /// The Time dimension.
    pub fn time(&self) -> &TimeDimension {
        &self.time
    }

    /// The rollup relation `r^{Pt,G}_L(x, y, ·)`: geometry elements of
    /// `layer` covering point `p`.
    pub fn covering(&self, layer: LayerId, p: Point) -> Vec<GeoId> {
        self.layer(layer).elements_covering(p)
    }

    /// Helper: all geometry ids of a category's layer whose bound member
    /// satisfies a predicate on an attribute value.
    pub(crate) fn geos_where_attr<F: Fn(&Value) -> bool>(
        &self,
        category: &str,
        attr: &str,
        pred: F,
    ) -> Result<Vec<GeoId>> {
        let binding = self.alpha(category)?;
        let dim = self.dimension(&binding.dimension)?;
        let level = dim.schema().level_id(category)?;
        let mut out = Vec::new();
        let mut pairs: Vec<(&str, GeoId)> = binding.pairs().collect();
        pairs.sort_by_key(|&(_, g)| g);
        for (member, geo) in pairs {
            let mid = dim.member_id(level, member)?;
            if pred(&dim.attribute(level, mid, attr)) {
                out.push(geo);
            }
        }
        Ok(out)
    }

    /// Expected geometry kind check for operations that need one.
    pub(crate) fn expect_kind(&self, layer: LayerId, expected: GeometryKind) -> Result<()> {
        let l = self.layer(layer);
        if l.kind() == expected {
            Ok(())
        } else {
            Err(CoreError::KindMismatch {
                layer: l.name().to_string(),
                expected,
                got: l.kind(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_geom::point::pt;
    use gisolap_geom::Polygon;
    use gisolap_olap::schema::SchemaBuilder;

    /// Two neighborhoods with incomes, Example-1 style.
    fn tiny_gis() -> Gis {
        let mut gis = Gis::new();
        let _ln = gis.add_layer(Layer::polygons(
            "Ln",
            vec![
                Polygon::rectangle(0.0, 0.0, 2.0, 2.0), // poor
                Polygon::rectangle(2.0, 0.0, 4.0, 2.0), // rich
            ],
        ));
        let schema = SchemaBuilder::new("Neighbourhoods")
            .chain(&["neighborhood", "city"])
            .build()
            .unwrap();
        let dim = DimensionInstance::builder(schema)
            .rollup("neighborhood", "South", "city", "Antwerp")
            .unwrap()
            .rollup("neighborhood", "Berchem", "city", "Antwerp")
            .unwrap()
            .attribute("neighborhood", "South", "income", 1200i64)
            .unwrap()
            .attribute("neighborhood", "Berchem", "income", 2500i64)
            .unwrap()
            .build()
            .unwrap();
        gis.add_dimension(dim);
        gis.bind_alpha(
            "neighborhood",
            "Neighbourhoods",
            "Ln",
            &[("South", GeoId(0)), ("Berchem", GeoId(1))],
        )
        .unwrap();
        gis
    }

    #[test]
    fn layer_registry() {
        let gis = tiny_gis();
        assert_eq!(gis.layer_count(), 1);
        let ln = gis.layer_id("Ln").unwrap();
        assert_eq!(gis.layer(ln).name(), "Ln");
        assert!(matches!(
            gis.layer_id("??"),
            Err(CoreError::UnknownLayer(_))
        ));
        assert!(gis.layer_by_name("Ln").is_ok());
    }

    #[test]
    fn alpha_roundtrip() {
        let gis = tiny_gis();
        let (layer, geo) = gis.alpha_geo("neighborhood", "South").unwrap();
        assert_eq!(geo, GeoId(0));
        let binding = gis.alpha("neighborhood").unwrap();
        assert_eq!(binding.member_of(geo), Some("South"));
        assert_eq!(binding.member_of(GeoId(1)), Some("Berchem"));
        assert_eq!(layer, gis.layer_id("Ln").unwrap());
        assert!(matches!(
            gis.alpha_geo("neighborhood", "Ghost"),
            Err(CoreError::UnboundMember { .. })
        ));
        assert!(matches!(
            gis.alpha("??"),
            Err(CoreError::UnknownCategory(_))
        ));
    }

    #[test]
    fn attributes_via_alpha() {
        let gis = tiny_gis();
        assert_eq!(
            gis.member_attribute("neighborhood", "South", "income")
                .unwrap(),
            Value::Int(1200)
        );
        assert_eq!(
            gis.member_attribute("neighborhood", "South", "ghost")
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn covering_relation() {
        let gis = tiny_gis();
        let ln = gis.layer_id("Ln").unwrap();
        assert_eq!(gis.covering(ln, pt(1.0, 1.0)), vec![GeoId(0)]);
        assert_eq!(gis.covering(ln, pt(3.0, 1.0)), vec![GeoId(1)]);
        assert!(gis.covering(ln, pt(9.0, 9.0)).is_empty());
    }

    #[test]
    fn attr_filtered_geometries() {
        let gis = tiny_gis();
        // The running example's low-income region: income < 1500.
        let poor = gis
            .geos_where_attr("neighborhood", "income", |v| {
                v.compare(&Value::Int(1500)) == Some(std::cmp::Ordering::Less)
            })
            .unwrap();
        assert_eq!(poor, vec![GeoId(0)]);
    }

    #[test]
    fn kind_check() {
        let gis = tiny_gis();
        let ln = gis.layer_id("Ln").unwrap();
        assert!(gis.expect_kind(ln, GeometryKind::Polygon).is_ok());
        assert!(matches!(
            gis.expect_kind(ln, GeometryKind::Node),
            Err(CoreError::KindMismatch { .. })
        ));
    }
}
