//! The Piet overlay precomputation (paper Section 5).
//!
//! "We also showed that many interesting queries in GIS require computing
//! operations, like intersections or unions, between geometric objects
//! represented in different layers, and proposed to precompute the overlay
//! of such layers." This module materializes, once, the binary
//! intersection relations between every pair of layers — which city is
//! crossed by which river, which store falls in which city — plus, for
//! polygon×polygon pairs, the actual overlay *cells* `a ∩ b` with their
//! areas and provenance. Query evaluation then answers geometric
//! sub-queries by lookup.

use std::collections::{HashMap, HashSet};

use gisolap_geom::MultiPolygon;

use crate::gis::Gis;
use crate::layer::{GeoId, GeoRef, LayerId};

/// `true` iff two geometry elements share at least one point.
pub(crate) fn georef_intersects(a: &GeoRef<'_>, b: &GeoRef<'_>) -> bool {
    if !a.bbox().intersects(&b.bbox()) {
        return false;
    }
    match (*a, *b) {
        (GeoRef::Node(p), GeoRef::Node(q)) => p == q,
        (GeoRef::Node(p), g) | (g, GeoRef::Node(p)) => g.covers(p),
        (GeoRef::Polyline(l1), GeoRef::Polyline(l2)) => l1.intersects_polyline(l2),
        (GeoRef::Polyline(l), GeoRef::Polygon(poly))
        | (GeoRef::Polygon(poly), GeoRef::Polyline(l)) => {
            l.segments().any(|s| poly.intersects_segment(&s))
        }
        (GeoRef::Polygon(p1), GeoRef::Polygon(p2)) => p1.intersects_polygon(p2),
    }
}

/// One cell of a polygon×polygon overlay: the region `a ∩ b`.
#[derive(Debug, Clone)]
pub struct OverlayCell {
    /// Element of the first layer.
    pub a: GeoId,
    /// Element of the second layer.
    pub b: GeoId,
    /// The intersection region.
    pub region: MultiPolygon,
    /// Its area.
    pub area: f64,
}

/// One 1-D cell of a polygon×polyline overlay: the part of polyline `line`
/// inside polygon `poly`, as arc-length intervals with their total length
/// (e.g. "how much of the river runs through each city").
#[derive(Debug, Clone)]
pub struct LineFragment {
    /// The polygon element.
    pub poly: GeoId,
    /// The polyline element.
    pub line: GeoId,
    /// Arc-length intervals of `line` (from its start) inside `poly`.
    pub intervals: Vec<(f64, f64)>,
    /// Total length inside.
    pub length: f64,
}

/// The precomputed overlay of a GIS's layers.
#[derive(Debug, Clone, Default)]
pub struct OverlayCache {
    /// `(La, Lb)` with `La < Lb` → set of intersecting `(a, b)` id pairs.
    intersects: HashMap<(LayerId, LayerId), HashSet<(u32, u32)>>,
    /// Polygon×polygon overlay cells, keyed like `intersects`.
    cells: HashMap<(LayerId, LayerId), Vec<OverlayCell>>,
    /// Polygon×polyline fragments: key is `(polygon layer, polyline
    /// layer)` in canonical order.
    fragments: HashMap<(LayerId, LayerId), Vec<LineFragment>>,
}

fn canon(a: LayerId, b: LayerId) -> ((LayerId, LayerId), bool) {
    if a <= b {
        ((a, b), false)
    } else {
        ((b, a), true)
    }
}

impl OverlayCache {
    /// Precomputes every pair of layers in the GIS (including the
    /// polygon×polygon overlay cells).
    pub fn precompute(gis: &Gis) -> OverlayCache {
        let ids: Vec<LayerId> = gis.layers().map(|(id, _)| id).collect();
        let mut pairs = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                pairs.push((a, b));
            }
        }
        OverlayCache::precompute_pairs(gis, &pairs)
    }

    /// Precomputes selected layer pairs only, one after the other in
    /// first-seen order.
    pub(crate) fn precompute_pairs(gis: &Gis, pairs: &[(LayerId, LayerId)]) -> OverlayCache {
        let mut canonical: Vec<(LayerId, LayerId)> = Vec::new();
        for &(a, b) in pairs {
            let (key, _) = canon(a, b);
            if !canonical.contains(&key) {
                canonical.push(key);
            }
        }
        let mut cache = OverlayCache::default();
        for (a, b) in canonical {
            cache.add_pair(gis, a, b);
        }
        cache
    }

    /// Computes one canonical (`la <= lb`) layer pair's relation,
    /// fragments and cells into the cache.
    fn add_pair(&mut self, gis: &Gis, la: LayerId, lb: LayerId) {
        let layer_a = gis.layer(la);
        let layer_b = gis.layer(lb);

        let mut rel: HashSet<(u32, u32)> = HashSet::new();
        for (ga, ra) in layer_a.iter() {
            let bba = ra.bbox();
            for (gb, rb) in layer_b.iter() {
                if !bba.intersects(&rb.bbox()) {
                    continue;
                }
                if georef_intersects(&ra, &rb) {
                    rel.insert((ga.0, gb.0));
                }
            }
        }

        // Polygon×polyline: materialize the 1-D fragments (arc-length
        // intervals of each line inside each intersecting polygon).
        let line_pair = match (layer_a.as_polygons(), layer_b.as_polylines()) {
            (Some(polys), Some(lines)) => Some((polys, lines, false)),
            _ => match (layer_b.as_polygons(), layer_a.as_polylines()) {
                (Some(polys), Some(lines)) => Some((polys, lines, true)),
                _ => None,
            },
        };
        if let Some((polys, lines, swapped_roles)) = line_pair {
            let mut frags = Vec::new();
            for &(ia, ib) in &rel {
                let (pi, li) = if swapped_roles { (ib, ia) } else { (ia, ib) };
                let poly = &polys[pi as usize];
                let line = &lines[li as usize];
                let mut intervals: Vec<(f64, f64)> = Vec::new();
                let mut offset = 0.0;
                for seg in line.segments() {
                    let len = seg.length();
                    for iv in gisolap_geom::clip::clip_segment_to_polygon(&seg, poly) {
                        if iv.length() > 0.0 {
                            intervals.push((offset + iv.start * len, offset + iv.end * len));
                        }
                    }
                    offset += len;
                }
                // Merge touching intervals across segment boundaries.
                intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
                let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
                for iv in intervals {
                    match merged.last_mut() {
                        Some(last) if iv.0 <= last.1 + 1e-9 => last.1 = last.1.max(iv.1),
                        _ => merged.push(iv),
                    }
                }
                let length = merged.iter().map(|&(s, e)| e - s).sum();
                frags.push(LineFragment {
                    poly: GeoId(pi),
                    line: GeoId(li),
                    intervals: merged,
                    length,
                });
            }
            frags.sort_by_key(|f| (f.poly, f.line));
            self.fragments.insert((la, lb), frags);
        }

        // Polygon×polygon: materialize the overlay cells.
        if let (Some(pa), Some(pb)) = (layer_a.as_polygons(), layer_b.as_polygons()) {
            let mut cells = Vec::new();
            for &(ia, ib) in &rel {
                let region = MultiPolygon::from_polygon(pa[ia as usize].clone())
                    .intersection(&MultiPolygon::from_polygon(pb[ib as usize].clone()));
                let area = region.area();
                cells.push(OverlayCell {
                    a: GeoId(ia),
                    b: GeoId(ib),
                    region,
                    area,
                });
            }
            cells.sort_by_key(|c| (c.a, c.b));
            self.cells.insert((la, lb), cells);
        }

        self.intersects.insert((la, lb), rel);
    }
}

impl OverlayCache {
    /// `true` iff elements `ga` of layer `a` and `gb` of layer `b`
    /// intersect, per the precomputation. `None` if the pair was not
    /// precomputed.
    pub fn intersects(&self, a: LayerId, ga: GeoId, b: LayerId, gb: GeoId) -> Option<bool> {
        let ((la, lb), swapped) = canon(a, b);
        let rel = self.intersects.get(&(la, lb))?;
        let key = if swapped { (gb.0, ga.0) } else { (ga.0, gb.0) };
        Some(rel.contains(&key))
    }

    /// All intersecting pairs `(a-element, b-element)` for a layer pair,
    /// oriented as requested. `None` if not precomputed.
    pub(crate) fn pairs_for(&self, a: LayerId, b: LayerId) -> Option<Vec<(GeoId, GeoId)>> {
        let ((la, lb), swapped) = canon(a, b);
        let rel = self.intersects.get(&(la, lb))?;
        let mut out: Vec<(GeoId, GeoId)> = rel
            .iter()
            .map(|&(x, y)| {
                if swapped {
                    (GeoId(y), GeoId(x))
                } else {
                    (GeoId(x), GeoId(y))
                }
            })
            .collect();
        out.sort();
        Some(out)
    }

    /// The polygon×polygon overlay cells of a layer pair, if materialized.
    pub fn overlay_cells(&self, a: LayerId, b: LayerId) -> Option<&[OverlayCell]> {
        self.cells.get(&canon(a, b).0).map(Vec::as_slice)
    }

    /// The polygon×polyline fragments of a layer pair (either argument
    /// order), if materialized.
    pub fn line_fragments(&self, a: LayerId, b: LayerId) -> Option<&[LineFragment]> {
        self.fragments.get(&canon(a, b).0).map(Vec::as_slice)
    }

    /// Total number of precomputed intersecting pairs (for reporting).
    pub fn relation_size(&self) -> usize {
        self.intersects.values().map(HashSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use gisolap_geom::point::pt;
    use gisolap_geom::{Polygon, Polyline};

    /// Two cities, one river crossing only the first, one store in each.
    fn build_gis() -> (Gis, LayerId, LayerId, LayerId) {
        let mut gis = Gis::new();
        let cities = gis.add_layer(Layer::polygons(
            "cities",
            vec![
                Polygon::rectangle(0.0, 0.0, 10.0, 10.0),
                Polygon::rectangle(20.0, 0.0, 30.0, 10.0),
            ],
        ));
        let rivers = gis.add_layer(Layer::polylines(
            "rivers",
            vec![Polyline::new(vec![pt(-5.0, 5.0), pt(15.0, 5.0)]).unwrap()],
        ));
        let stores = gis.add_layer(Layer::nodes(
            "stores",
            vec![pt(5.0, 5.0), pt(25.0, 5.0), pt(100.0, 100.0)],
        ));
        (gis, cities, rivers, stores)
    }

    #[test]
    fn georef_intersection_matrix() {
        let poly = Polygon::rectangle(0.0, 0.0, 4.0, 4.0);
        let line = Polyline::new(vec![pt(-1.0, 2.0), pt(5.0, 2.0)]).unwrap();
        let far_line = Polyline::new(vec![pt(10.0, 10.0), pt(12.0, 12.0)]).unwrap();
        assert!(georef_intersects(
            &GeoRef::Polygon(&poly),
            &GeoRef::Polyline(&line)
        ));
        assert!(!georef_intersects(
            &GeoRef::Polygon(&poly),
            &GeoRef::Polyline(&far_line)
        ));
        assert!(georef_intersects(
            &GeoRef::Node(pt(2.0, 2.0)),
            &GeoRef::Polygon(&poly)
        ));
        assert!(georef_intersects(
            &GeoRef::Node(pt(2.0, 2.0)),
            &GeoRef::Polyline(&line)
        ));
        assert!(!georef_intersects(
            &GeoRef::Node(pt(9.0, 9.0)),
            &GeoRef::Polygon(&poly)
        ));
        assert!(georef_intersects(
            &GeoRef::Node(pt(1.0, 1.0)),
            &GeoRef::Node(pt(1.0, 1.0))
        ));
        assert!(!georef_intersects(
            &GeoRef::Node(pt(1.0, 1.0)),
            &GeoRef::Node(pt(2.0, 1.0))
        ));
        assert!(georef_intersects(
            &GeoRef::Polyline(&line),
            &GeoRef::Polyline(&line)
        ));
    }

    #[test]
    fn precompute_relations() {
        let (gis, cities, rivers, stores) = build_gis();
        let cache = OverlayCache::precompute(&gis);

        // City 0 is crossed by the river; city 1 is not.
        assert_eq!(
            cache.pairs_for(cities, rivers).unwrap(),
            vec![(GeoId(0), GeoId(0))]
        );
        assert_eq!(
            cache.intersects(rivers, GeoId(0), cities, GeoId(0)),
            Some(true)
        ); // order-insensitive
        assert_eq!(
            cache.intersects(cities, GeoId(0), rivers, GeoId(0)),
            Some(true)
        );
        assert_eq!(
            cache.intersects(cities, GeoId(1), rivers, GeoId(0)),
            Some(false)
        );

        // Stores: one in each city, one outside.
        let pairs = cache.pairs_for(cities, stores).unwrap();
        assert_eq!(pairs, vec![(GeoId(0), GeoId(0)), (GeoId(1), GeoId(1))]);
        // Reverse orientation.
        let rpairs = cache.pairs_for(stores, cities).unwrap();
        assert_eq!(rpairs, vec![(GeoId(0), GeoId(0)), (GeoId(1), GeoId(1))]);
    }

    #[test]
    fn polygon_overlay_cells() {
        let mut gis = Gis::new();
        let a = gis.add_layer(Layer::polygons(
            "A",
            vec![Polygon::rectangle(0.0, 0.0, 4.0, 4.0)],
        ));
        let b = gis.add_layer(Layer::polygons(
            "B",
            vec![
                Polygon::rectangle(2.0, 2.0, 6.0, 6.0),
                Polygon::rectangle(10.0, 10.0, 12.0, 12.0),
            ],
        ));
        let cache = OverlayCache::precompute(&gis);
        let cells = cache.overlay_cells(a, b).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!((cells[0].a, cells[0].b), (GeoId(0), GeoId(0)));
        assert!((cells[0].area - 4.0).abs() < 1e-9);
        assert!(cells[0].region.contains(pt(3.0, 3.0)));
        assert!(!cells[0].region.contains(pt(1.0, 1.0)));
        // Either argument order finds the same cells.
        assert_eq!(cache.overlay_cells(b, a).unwrap().len(), 1);
    }

    #[test]
    fn polyline_fragments_measure_length_inside() {
        let (gis, cities, rivers, _) = build_gis();
        let cache = OverlayCache::precompute(&gis);
        // The river runs y=5 from x=-5 to x=15; city 0 spans x∈[0,10]:
        // 10 units inside.
        let frags = cache.line_fragments(cities, rivers).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!((frags[0].poly, frags[0].line), (GeoId(0), GeoId(0)));
        assert!((frags[0].length - 10.0).abs() < 1e-9);
        // Arc-length interval starts where the river enters the city:
        // 5 units from the river's start.
        assert_eq!(frags[0].intervals.len(), 1);
        assert!((frags[0].intervals[0].0 - 5.0).abs() < 1e-9);
        assert!((frags[0].intervals[0].1 - 15.0).abs() < 1e-9);
        // Works with arguments in either order.
        assert!(cache.line_fragments(rivers, cities).is_some());
    }

    #[test]
    fn fragments_merge_across_vertices() {
        // A polyline with a vertex inside the polygon must yield ONE
        // merged interval, not two.
        let mut gis = Gis::new();
        let zone = gis.add_layer(Layer::polygons(
            "zone",
            vec![Polygon::rectangle(0.0, 0.0, 10.0, 10.0)],
        ));
        let road = gis.add_layer(Layer::polylines(
            "road",
            vec![Polyline::new(vec![pt(-5.0, 5.0), pt(5.0, 5.0), pt(5.0, 20.0)]).unwrap()],
        ));
        let cache = OverlayCache::precompute(&gis);
        let frags = cache.line_fragments(zone, road).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].intervals.len(), 1);
        // Inside: x from 0→5 on the first leg (5 units) + y from 5→10 on
        // the second (5 units) = 10.
        assert!((frags[0].length - 10.0).abs() < 1e-9);
    }

    #[test]
    fn selective_precompute() {
        let (gis, cities, rivers, stores) = build_gis();
        let cache = OverlayCache::precompute_pairs(&gis, &[(cities, rivers)]);
        assert!(cache.pairs_for(cities, rivers).is_some());
        assert!(cache.pairs_for(cities, stores).is_none());
        assert!(cache
            .intersects(cities, GeoId(0), stores, GeoId(0))
            .is_none());
        assert!(cache.relation_size() >= 1);
    }
}
