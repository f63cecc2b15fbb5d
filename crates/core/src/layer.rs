//! Thematic layers: the geometric part of the GIS dimension.
//!
//! "Spatial information in a GIS is typically stored in different
//! so-called thematic layers" (paper §1). Each layer holds a finite set of
//! elements of one geometry kind (paper §3: "typically, each layer will
//! contain a set of binary relations between geometries of a single
//! kind"). The *algebraic part* — the infinite point sets — is represented
//! computationally: the rollup relation `r^{Pt,Pg}_L(x, y, pg)` is decided
//! by a point-in-polygon test, `r^{Pt,Pl}_L` by point-on-polyline, and
//! `r^{Pt,Nd}_L` by coincidence.

use gisolap_geom::polygon::Polygon;
use gisolap_geom::polyline::Polyline;
use gisolap_geom::{BBox, Point};

use crate::{CoreError, Result};

/// Identifier of a layer within a [`crate::Gis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(pub u32);

/// Identifier of a geometry element within its layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GeoId(pub u32);

/// The geometry kinds of the paper's set `G` (minus the distinguished
/// `All`, which lives in the schema graph, and `line`, which this
/// implementation folds into `Polyline` — a polyline's constituent `line`
/// elements are its segments, reachable via the geometry API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeometryKind {
    /// Named point elements (the paper's `node`): schools, stores, stops…
    Node,
    /// Open chains: rivers, streets, highways.
    Polyline,
    /// Simple polygons with holes: neighborhoods, cities, provinces.
    Polygon,
}

/// The elements stored in a layer.
#[derive(Debug, Clone)]
pub(crate) enum LayerData {
    /// Point elements.
    Nodes(Vec<Point>),
    /// Polyline elements.
    Polylines(Vec<Polyline>),
    /// Polygon elements.
    Polygons(Vec<Polygon>),
}

/// A thematic layer: a name plus a finite element set of one kind.
#[derive(Debug, Clone)]
pub struct Layer {
    name: String,
    data: LayerData,
}

/// A borrowed reference to one geometry element.
#[derive(Debug, Clone, Copy)]
pub enum GeoRef<'a> {
    /// A point element.
    Node(Point),
    /// A polyline element.
    Polyline(&'a Polyline),
    /// A polygon element.
    Polygon(&'a Polygon),
}

impl<'a> GeoRef<'a> {
    /// Bounding box of the element.
    pub fn bbox(&self) -> BBox {
        match self {
            GeoRef::Node(p) => BBox::from_point(*p),
            GeoRef::Polyline(l) => l.bbox(),
            GeoRef::Polygon(p) => p.bbox(),
        }
    }

    /// `true` iff the point belongs to the element (the algebraic rollup
    /// `r^{Pt,G}_L`): containment for polygons, incidence for polylines,
    /// coincidence for nodes.
    pub fn covers(&self, p: Point) -> bool {
        match self {
            GeoRef::Node(q) => *q == p,
            GeoRef::Polyline(l) => l.contains_point(p),
            GeoRef::Polygon(poly) => poly.contains(p),
        }
    }
}

impl Layer {
    /// A layer of point elements.
    pub fn nodes(name: impl Into<String>, points: Vec<Point>) -> Layer {
        Layer {
            name: name.into(),
            data: LayerData::Nodes(points),
        }
    }

    /// A layer of polyline elements.
    pub fn polylines(name: impl Into<String>, lines: Vec<Polyline>) -> Layer {
        Layer {
            name: name.into(),
            data: LayerData::Polylines(lines),
        }
    }

    /// A layer of polygon elements.
    pub fn polygons(name: impl Into<String>, polys: Vec<Polygon>) -> Layer {
        Layer {
            name: name.into(),
            data: LayerData::Polygons(polys),
        }
    }

    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The geometry kind stored.
    pub fn kind(&self) -> GeometryKind {
        match &self.data {
            LayerData::Nodes(_) => GeometryKind::Node,
            LayerData::Polylines(_) => GeometryKind::Polyline,
            LayerData::Polygons(_) => GeometryKind::Polygon,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.data {
            LayerData::Nodes(v) => v.len(),
            LayerData::Polylines(v) => v.len(),
            LayerData::Polygons(v) => v.len(),
        }
    }

    /// `true` iff the layer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed reference to element `id`.
    pub fn geometry(&self, id: GeoId) -> Result<GeoRef<'_>> {
        let i = id.0 as usize;
        match &self.data {
            LayerData::Nodes(v) => v.get(i).map(|&p| GeoRef::Node(p)),
            LayerData::Polylines(v) => v.get(i).map(GeoRef::Polyline),
            LayerData::Polygons(v) => v.get(i).map(GeoRef::Polygon),
        }
        .ok_or_else(|| CoreError::UnknownGeometry {
            layer: self.name.clone(),
            id: id.0,
        })
    }

    /// Iterator over `(id, element)` pairs.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (GeoId, GeoRef<'_>)> + '_> {
        match &self.data {
            LayerData::Nodes(v) => Box::new(
                v.iter()
                    .enumerate()
                    .map(|(i, &p)| (GeoId(i as u32), GeoRef::Node(p))),
            ),
            LayerData::Polylines(v) => Box::new(
                v.iter()
                    .enumerate()
                    .map(|(i, l)| (GeoId(i as u32), GeoRef::Polyline(l))),
            ),
            LayerData::Polygons(v) => Box::new(
                v.iter()
                    .enumerate()
                    .map(|(i, p)| (GeoId(i as u32), GeoRef::Polygon(p))),
            ),
        }
    }

    /// All element ids.
    pub fn ids(&self) -> impl Iterator<Item = GeoId> {
        (0..self.len() as u32).map(GeoId)
    }

    /// The polygons, if this is a polygon layer.
    pub fn as_polygons(&self) -> Option<&[Polygon]> {
        match &self.data {
            LayerData::Polygons(v) => Some(v),
            _ => None,
        }
    }

    /// The polylines, if this is a polyline layer.
    pub fn as_polylines(&self) -> Option<&[Polyline]> {
        match &self.data {
            LayerData::Polylines(v) => Some(v),
            _ => None,
        }
    }

    /// The node points, if this is a node layer.
    pub fn as_nodes(&self) -> Option<&[Point]> {
        match &self.data {
            LayerData::Nodes(v) => Some(v),
            _ => None,
        }
    }

    /// Ids of all elements covering point `p` — the materialization of the
    /// algebraic rollup relation `r^{Pt,G}_L(x, y, ·)`. Several ids may be
    /// returned ("a point may belong to more than one geometry", paper
    /// Example 1).
    pub(crate) fn elements_covering(&self, p: Point) -> Vec<GeoId> {
        self.iter()
            .filter(|(_, g)| g.covers(p))
            .map(|(id, _)| id)
            .collect()
    }

    /// Bounding box of the whole layer.
    pub fn bbox(&self) -> BBox {
        self.iter()
            .fold(BBox::empty(), |b, (_, g)| b.union(&g.bbox()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_geom::point::pt;

    fn polygon_layer() -> Layer {
        Layer::polygons(
            "neighborhoods",
            vec![
                Polygon::rectangle(0.0, 0.0, 2.0, 2.0),
                Polygon::rectangle(2.0, 0.0, 4.0, 2.0),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let l = polygon_layer();
        assert_eq!(l.name(), "neighborhoods");
        assert_eq!(l.kind(), GeometryKind::Polygon);
        assert_eq!(l.len(), 2);
        assert!(!l.is_empty());
        assert!(l.as_polygons().is_some());
        assert!(l.as_polylines().is_none());
        assert_eq!(l.bbox(), BBox::new(0.0, 0.0, 4.0, 2.0));
    }

    #[test]
    fn geometry_lookup_and_errors() {
        let l = polygon_layer();
        assert!(l.geometry(GeoId(1)).is_ok());
        assert!(matches!(
            l.geometry(GeoId(9)),
            Err(CoreError::UnknownGeometry { .. })
        ));
    }

    #[test]
    fn point_rollup_relation() {
        let l = polygon_layer();
        assert_eq!(l.elements_covering(pt(1.0, 1.0)), vec![GeoId(0)]);
        // The shared edge belongs to both polygons (paper Example 1).
        assert_eq!(l.elements_covering(pt(2.0, 1.0)), vec![GeoId(0), GeoId(1)]);
        assert!(l.elements_covering(pt(9.0, 9.0)).is_empty());
    }

    #[test]
    fn node_layer_rollup_is_coincidence() {
        let l = Layer::nodes("schools", vec![pt(1.0, 1.0), pt(3.0, 3.0)]);
        assert_eq!(l.kind(), GeometryKind::Node);
        assert_eq!(l.elements_covering(pt(3.0, 3.0)), vec![GeoId(1)]);
        assert!(l.elements_covering(pt(2.0, 2.0)).is_empty());
    }

    #[test]
    fn polyline_layer_rollup_is_incidence() {
        let river = Polyline::new(vec![pt(0.0, 0.0), pt(4.0, 4.0)]).unwrap();
        let l = Layer::polylines("rivers", vec![river]);
        assert_eq!(l.elements_covering(pt(2.0, 2.0)), vec![GeoId(0)]);
        assert!(l.elements_covering(pt(2.0, 3.0)).is_empty());
    }

    #[test]
    fn iteration() {
        let l = polygon_layer();
        let ids: Vec<GeoId> = l.ids().collect();
        assert_eq!(ids, vec![GeoId(0), GeoId(1)]);
        assert_eq!(l.iter().count(), 2);
    }
}
