//! GIS dimension schemas (paper Definition 1).
//!
//! A GIS dimension schema is `(H, A, D)`:
//!
//! * `H` — one hierarchy graph `H(L)` per layer, whose nodes are geometry
//!   kinds and whose edges go from finer to coarser kinds, satisfying:
//!   (a) one node per kind present in the layer, (b) edges follow
//!   composition/granularity, (c) a distinguished `All` with no outgoing
//!   edges, (d) exactly one node `point` with no incoming edges.
//! * `A` — attribute functions `Att : A → G × L` binding application
//!   categories to a geometry kind in a layer (e.g.
//!   `Att(neighborhood) = (polygon, Ln)` as in the paper's Example 2).
//! * `D` — the application-part dimension schemas (handled by
//!   `gisolap-olap`).
//!
//! This module validates hierarchy graphs explicitly so that Figure 2 of
//! the paper can be constructed and checked (experiment E3).

use std::collections::HashMap;

use crate::{CoreError, Result};

/// A node of a hierarchy graph: a geometry kind name. The distinguished
/// names `"point"` and `"All"` play the roles of Definition 1 (d) and (c).
pub(crate) type KindName = String;

/// A hierarchy graph `H(L)` for one layer.
#[derive(Debug, Clone)]
pub struct HierarchyGraph {
    layer: String,
    nodes: Vec<KindName>,
    /// Directed edges finer → coarser.
    edges: Vec<(usize, usize)>,
}

impl HierarchyGraph {
    /// Builds and validates a hierarchy graph from kind names and edges
    /// (by name). The node list must include `point` and `All`.
    pub fn new(
        layer: impl Into<String>,
        nodes: &[&str],
        edges: &[(&str, &str)],
    ) -> Result<HierarchyGraph> {
        let layer = layer.into();
        let nodes: Vec<KindName> = nodes.iter().map(|s| s.to_string()).collect();
        let index: HashMap<&str, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        if index.len() != nodes.len() {
            return Err(CoreError::InvalidSchema(format!(
                "duplicate geometry kind in H({layer})"
            )));
        }
        let mut e = Vec::with_capacity(edges.len());
        for (a, b) in edges {
            let ai = *index.get(a).ok_or_else(|| {
                CoreError::InvalidSchema(format!("H({layer}): unknown kind {a:?}"))
            })?;
            let bi = *index.get(b).ok_or_else(|| {
                CoreError::InvalidSchema(format!("H({layer}): unknown kind {b:?}"))
            })?;
            e.push((ai, bi));
        }
        let g = HierarchyGraph {
            layer,
            nodes,
            edges: e,
        };
        g.validate()?;
        Ok(g)
    }

    /// The standard hierarchy for a polygon layer:
    /// `point → polygon → All`.
    pub fn polygon_layer(layer: impl Into<String>) -> HierarchyGraph {
        HierarchyGraph::new(
            layer,
            &["point", "polygon", "All"],
            &[("point", "polygon"), ("polygon", "All")],
        )
        .expect("static schema is valid")
    }

    /// The standard hierarchy for a polyline layer (the paper's
    /// `H1(Lr)` in Example 2): `point → line → polyline → All`.
    pub fn polyline_layer(layer: impl Into<String>) -> HierarchyGraph {
        HierarchyGraph::new(
            layer,
            &["point", "line", "polyline", "All"],
            &[("point", "line"), ("line", "polyline"), ("polyline", "All")],
        )
        .expect("static schema is valid")
    }

    /// The standard hierarchy for a node layer: `point → node → All`.
    pub fn node_layer(layer: impl Into<String>) -> HierarchyGraph {
        HierarchyGraph::new(
            layer,
            &["point", "node", "All"],
            &[("point", "node"), ("node", "All")],
        )
        .expect("static schema is valid")
    }

    /// The owning layer's name.
    pub fn layer(&self) -> &str {
        &self.layer
    }

    /// Node (kind) names.
    pub fn nodes(&self) -> &[KindName] {
        &self.nodes
    }

    /// Edges as name pairs (finer → coarser).
    pub fn edge_names(&self) -> Vec<(&str, &str)> {
        self.edges
            .iter()
            .map(|&(a, b)| (self.nodes[a].as_str(), self.nodes[b].as_str()))
            .collect()
    }

    /// Checks Definition 1's conditions (a)–(d).
    pub fn validate(&self) -> Result<()> {
        let n = self.nodes.len();
        let fail = |msg: String| Err(CoreError::InvalidSchema(msg));

        let all = match self.nodes.iter().position(|k| k == "All") {
            Some(i) => i,
            None => return fail(format!("H({}): missing All", self.layer)),
        };
        let point = match self.nodes.iter().position(|k| k == "point") {
            Some(i) => i,
            None => return fail(format!("H({}): missing point", self.layer)),
        };

        let mut outdeg = vec![0usize; n];
        let mut indeg = vec![0usize; n];
        for &(a, b) in &self.edges {
            if a == b {
                return fail(format!("H({}): self-loop on {}", self.layer, self.nodes[a]));
            }
            outdeg[a] += 1;
            indeg[b] += 1;
        }
        // (c) All has no outgoing edges.
        if outdeg[all] != 0 {
            return fail(format!(
                "H({}): All must have no outgoing edges",
                self.layer
            ));
        }
        // (d) exactly one node with no incoming edges, and it is `point`.
        let sources: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        if sources != vec![point] {
            return fail(format!(
                "H({}): exactly `point` must lack incoming edges, found {:?}",
                self.layer,
                sources.iter().map(|&i| &self.nodes[i]).collect::<Vec<_>>()
            ));
        }
        // Acyclicity (implied by granularity ordering).
        let mut indeg2 = indeg.clone();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg2[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &(a, b) in &self.edges {
                if a == i {
                    indeg2[b] -= 1;
                    if indeg2[b] == 0 {
                        queue.push(b);
                    }
                }
            }
        }
        if seen != n {
            return fail(format!("H({}): hierarchy has a cycle", self.layer));
        }
        // Connectivity to All: every node reaches All.
        for start in 0..n {
            if start == all {
                continue;
            }
            let mut stack = vec![start];
            let mut visited = vec![false; n];
            let mut ok = false;
            while let Some(i) = stack.pop() {
                if i == all {
                    ok = true;
                    break;
                }
                if std::mem::replace(&mut visited[i], true) {
                    continue;
                }
                stack.extend(self.edges.iter().filter(|&&(a, _)| a == i).map(|&(_, b)| b));
            }
            if !ok {
                return fail(format!(
                    "H({}): kind {} cannot reach All",
                    self.layer, self.nodes[start]
                ));
            }
        }
        Ok(())
    }
}

/// An attribute function entry: `Att(A) = (G, L)` — category `A` of the
/// application part is represented by geometry kind `G` in layer `L`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttBinding {
    /// The application category (e.g. `neighborhood`).
    pub category: String,
    /// The geometry kind name (e.g. `polygon`).
    pub kind: KindName,
    /// The layer name (e.g. `Ln`).
    pub layer: String,
}

/// The full GIS dimension schema `Gsch = (H, A, D)` of Definition 1.
/// `D`'s dimension schemas live in the application part
/// ([`gisolap_olap::DimensionSchema`]); here they are referenced by name.
#[derive(Debug, Clone)]
pub struct GisSchema {
    hierarchies: Vec<HierarchyGraph>,
    atts: Vec<AttBinding>,
    dimensions: Vec<String>,
}

impl GisSchema {
    /// Builds and validates a schema.
    pub fn new(
        hierarchies: Vec<HierarchyGraph>,
        atts: Vec<AttBinding>,
        dimensions: Vec<String>,
    ) -> Result<GisSchema> {
        for h in &hierarchies {
            h.validate()?;
        }
        // Each Att must reference a declared hierarchy and one of its
        // kinds.
        for att in &atts {
            let h = hierarchies
                .iter()
                .find(|h| h.layer() == att.layer)
                .ok_or_else(|| {
                    CoreError::InvalidSchema(format!(
                        "Att({}) references unknown layer {}",
                        att.category, att.layer
                    ))
                })?;
            if !h.nodes().contains(&att.kind) {
                return Err(CoreError::InvalidSchema(format!(
                    "Att({}) references kind {} absent from H({})",
                    att.category, att.kind, att.layer
                )));
            }
        }
        Ok(GisSchema {
            hierarchies,
            atts,
            dimensions,
        })
    }

    /// The hierarchy graphs.
    pub fn hierarchies(&self) -> &[HierarchyGraph] {
        &self.hierarchies
    }

    /// The hierarchy of a layer.
    pub fn hierarchy(&self, layer: &str) -> Option<&HierarchyGraph> {
        self.hierarchies.iter().find(|h| h.layer() == layer)
    }

    /// The attribute functions.
    pub fn atts(&self) -> &[AttBinding] {
        &self.atts
    }

    /// `Att(category)`, if bound.
    pub fn att(&self, category: &str) -> Option<&AttBinding> {
        self.atts.iter().find(|a| a.category == category)
    }

    /// The application dimension names.
    pub fn dimensions(&self) -> &[String] {
        &self.dimensions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_hierarchies_validate() {
        assert!(HierarchyGraph::polygon_layer("Ln").validate().is_ok());
        assert!(HierarchyGraph::polyline_layer("Lr").validate().is_ok());
        assert!(HierarchyGraph::node_layer("Ls").validate().is_ok());
    }

    #[test]
    fn example2_h1_lr() {
        // The paper's Example 2: H1(Lr) = ({point, line, polyline, All},
        // {(point,line),(line,polyline),(polyline,All)}).
        let h = HierarchyGraph::polyline_layer("Lr");
        assert_eq!(h.nodes(), &["point", "line", "polyline", "All"]);
        assert_eq!(
            h.edge_names(),
            vec![("point", "line"), ("line", "polyline"), ("polyline", "All")]
        );
    }

    #[test]
    fn missing_point_rejected() {
        let err = HierarchyGraph::new("L", &["polygon", "All"], &[("polygon", "All")]);
        assert!(matches!(err, Err(CoreError::InvalidSchema(_))));
    }

    #[test]
    fn all_with_outgoing_rejected() {
        let err = HierarchyGraph::new(
            "L",
            &["point", "All"],
            &[("point", "All"), ("All", "point")],
        );
        assert!(matches!(err, Err(CoreError::InvalidSchema(_))));
    }

    #[test]
    fn two_sources_rejected() {
        // `node` also lacks incoming edges → violates (d).
        let err = HierarchyGraph::new(
            "L",
            &["point", "node", "All"],
            &[("point", "All"), ("node", "All")],
        );
        assert!(matches!(err, Err(CoreError::InvalidSchema(_))));
    }

    #[test]
    fn unreachable_all_rejected() {
        let err = HierarchyGraph::new(
            "L",
            &["point", "node", "All"],
            &[("point", "node"), ("point", "All")],
        );
        // `node` cannot reach All.
        assert!(matches!(err, Err(CoreError::InvalidSchema(_))));
    }

    #[test]
    fn figure2_schema_builds() {
        // Figure 2: three hierarchies (rivers Lr, schools Ls,
        // neighborhoods Ln) plus Att bindings and application dimensions.
        let schema = GisSchema::new(
            vec![
                HierarchyGraph::polyline_layer("Lr"),
                HierarchyGraph::node_layer("Ls"),
                HierarchyGraph::polygon_layer("Ln"),
            ],
            vec![
                AttBinding {
                    category: "neighborhood".into(),
                    kind: "polygon".into(),
                    layer: "Ln".into(),
                },
                AttBinding {
                    category: "river".into(),
                    kind: "polyline".into(),
                    layer: "Lr".into(),
                },
                AttBinding {
                    category: "school".into(),
                    kind: "node".into(),
                    layer: "Ls".into(),
                },
            ],
            vec!["Rivers".into(), "Neighbourhoods".into()],
        )
        .unwrap();
        assert_eq!(schema.hierarchies().len(), 3);
        assert_eq!(schema.att("neighborhood").unwrap().layer, "Ln");
        assert!(schema.att("ghost").is_none());
        assert!(schema.hierarchy("Lr").is_some());
        assert_eq!(schema.dimensions().len(), 2);
    }

    #[test]
    fn att_must_reference_known_layer_and_kind() {
        let err = GisSchema::new(
            vec![HierarchyGraph::polygon_layer("Ln")],
            vec![AttBinding {
                category: "x".into(),
                kind: "polygon".into(),
                layer: "??".into(),
            }],
            vec![],
        );
        assert!(matches!(err, Err(CoreError::InvalidSchema(_))));
        let err = GisSchema::new(
            vec![HierarchyGraph::polygon_layer("Ln")],
            vec![AttBinding {
                category: "x".into(),
                kind: "polyline".into(),
                layer: "Ln".into(),
            }],
            vec![],
        );
        assert!(matches!(err, Err(CoreError::InvalidSchema(_))));
    }
}
