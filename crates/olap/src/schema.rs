//! Dimension schemas.
//!
//! A dimension schema, per the paper's Definition 1 (application part) and
//! its reference \[7\], is a tuple `(dname, C, ⪯)`: a name, a set of levels
//! (categories), and a partial order over them given by direct rollup
//! edges. Well-formedness requires a unique bottom level, an acyclic graph
//! and that every level reaches the distinguished top level `All`.

use crate::{OlapError, Result};

/// Name of the distinguished top level present in every schema.
pub const ALL: &str = "All";

/// Identifier of a level within its schema (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LevelId(pub u32);

/// A dimension schema: levels plus direct rollup edges.
#[derive(Debug, Clone)]
pub struct DimensionSchema {
    name: String,
    levels: Vec<String>,
    /// `edges[child] = parents` (direct rollups).
    parents: Vec<Vec<LevelId>>,
    children: Vec<Vec<LevelId>>,
    bottom: LevelId,
    top: LevelId,
}

/// Builder for [`DimensionSchema`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    name: String,
    levels: Vec<String>,
    edges: Vec<(String, String)>,
}

impl SchemaBuilder {
    /// Starts a schema with the given dimension name. The `All` level is
    /// added automatically.
    pub fn new(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            levels: vec![ALL.to_string()],
            edges: vec![],
        }
    }

    /// Adds a level.
    pub fn level(mut self, name: impl Into<String>) -> SchemaBuilder {
        self.levels.push(name.into());
        self
    }

    /// Adds a direct rollup edge `child → parent`.
    pub fn rollup(mut self, child: impl Into<String>, parent: impl Into<String>) -> SchemaBuilder {
        self.edges.push((child.into(), parent.into()));
        self
    }

    /// Convenience: adds the levels of a linear hierarchy
    /// `names[0] → names[1] → … → All` (levels are created as needed).
    pub fn chain(mut self, names: &[&str]) -> SchemaBuilder {
        for name in names {
            if !self.levels.iter().any(|l| l == name) {
                self.levels.push(name.to_string());
            }
        }
        for w in names.windows(2) {
            self.edges.push((w[0].to_string(), w[1].to_string()));
        }
        if let Some(last) = names.last() {
            self.edges.push((last.to_string(), ALL.to_string()));
        }
        self
    }

    /// Validates and builds the schema.
    pub fn build(self) -> Result<DimensionSchema> {
        let mut levels: Vec<String> = Vec::new();
        for l in &self.levels {
            if levels.contains(l) {
                return Err(OlapError::DuplicateLevel(l.clone()));
            }
            levels.push(l.clone());
        }
        let idx = |name: &str| -> Result<LevelId> {
            levels
                .iter()
                .position(|l| l == name)
                .map(|i| LevelId(i as u32))
                .ok_or_else(|| OlapError::UnknownLevel(name.to_string()))
        };
        let top = idx(ALL).expect("All is always present");

        let n = levels.len();
        let mut parents: Vec<Vec<LevelId>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<LevelId>> = vec![Vec::new(); n];
        for (c, p) in &self.edges {
            let (ci, pi) = (idx(c)?, idx(p)?);
            if !parents[ci.0 as usize].contains(&pi) {
                parents[ci.0 as usize].push(pi);
                children[pi.0 as usize].push(ci);
            }
        }

        // Acyclicity via Kahn's algorithm.
        let mut indeg: Vec<usize> = (0..n).map(|i| children[i].len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for p in &parents[i] {
                let pi = p.0 as usize;
                indeg[pi] -= 1;
                if indeg[pi] == 0 {
                    queue.push(pi);
                }
            }
        }
        if seen != n {
            return Err(OlapError::CyclicSchema);
        }

        // Unique bottom: exactly one level (other than isolated All in a
        // trivial schema) with no children.
        let bottoms: Vec<usize> = (0..n)
            .filter(|&i| children[i].is_empty() && (n == 1 || LevelId(i as u32) != top))
            .collect();
        if bottoms.len() != 1 {
            return Err(OlapError::BadBottom(
                bottoms.iter().map(|&i| levels[i].clone()).collect(),
            ));
        }
        let bottom = LevelId(bottoms[0] as u32);

        // Every level must reach All.
        #[allow(clippy::needless_range_loop)] // index doubles as LevelId
        for i in 0..n {
            if LevelId(i as u32) == top {
                continue;
            }
            // BFS upward.
            let mut stack = vec![i];
            let mut visited = vec![false; n];
            let mut reached = false;
            while let Some(j) = stack.pop() {
                if LevelId(j as u32) == top {
                    reached = true;
                    break;
                }
                if visited[j] {
                    continue;
                }
                visited[j] = true;
                stack.extend(parents[j].iter().map(|p| p.0 as usize));
            }
            if !reached {
                return Err(OlapError::UnreachableTop(levels[i].clone()));
            }
        }

        Ok(DimensionSchema {
            name: self.name,
            levels,
            parents,
            children,
            bottom,
            top,
        })
    }
}

impl DimensionSchema {
    /// The dimension's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of levels (including `All`).
    pub(crate) fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Level names.
    pub fn levels(&self) -> &[String] {
        &self.levels
    }

    /// Resolves a level name.
    pub fn level_id(&self, name: &str) -> Result<LevelId> {
        self.levels
            .iter()
            .position(|l| l == name)
            .map(|i| LevelId(i as u32))
            .ok_or_else(|| OlapError::UnknownLevel(name.to_string()))
    }

    /// Name of a level.
    pub(crate) fn level_name(&self, id: LevelId) -> &str {
        &self.levels[id.0 as usize]
    }

    /// The unique bottom level.
    pub fn bottom(&self) -> LevelId {
        self.bottom
    }

    /// The distinguished `All` level.
    pub fn top(&self) -> LevelId {
        self.top
    }

    /// Direct parents of a level.
    pub(crate) fn parents(&self, id: LevelId) -> &[LevelId] {
        &self.parents[id.0 as usize]
    }

    /// Direct children of a level.
    pub fn children(&self, id: LevelId) -> &[LevelId] {
        &self.children[id.0 as usize]
    }

    /// `true` iff `lower ⪯ upper` (a rollup path exists).
    pub fn precedes(&self, lower: LevelId, upper: LevelId) -> bool {
        if lower == upper {
            return true;
        }
        let mut stack = vec![lower];
        let mut visited = vec![false; self.levels.len()];
        while let Some(l) = stack.pop() {
            if l == upper {
                return true;
            }
            if std::mem::replace(&mut visited[l.0 as usize], true) {
                continue;
            }
            stack.extend(self.parents(l).iter().copied());
        }
        false
    }

    /// One rollup path from `lower` to `upper` (inclusive of both ends),
    /// or `None` if `lower ⪯ upper` does not hold.
    pub fn path(&self, lower: LevelId, upper: LevelId) -> Option<Vec<LevelId>> {
        // DFS remembering predecessors.
        let n = self.levels.len();
        let mut prev: Vec<Option<LevelId>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut stack = vec![lower];
        visited[lower.0 as usize] = true;
        while let Some(l) = stack.pop() {
            if l == upper {
                let mut path = vec![l];
                let mut cur = l;
                while let Some(p) = prev[cur.0 as usize] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &p in self.parents(l) {
                if !visited[p.0 as usize] {
                    visited[p.0 as usize] = true;
                    prev[p.0 as usize] = Some(l);
                    stack.push(p);
                }
            }
        }
        None
    }

    /// All pairs `(child, parent)` of direct rollup edges.
    pub fn edges(&self) -> Vec<(LevelId, LevelId)> {
        let mut out = Vec::new();
        for (c, ps) in self.parents.iter().enumerate() {
            for &p in ps {
                out.push((LevelId(c as u32), p));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo_schema() -> DimensionSchema {
        // The classic: city → province → country → All, plus a parallel
        // city → region → country path (diamond).
        SchemaBuilder::new("Geography")
            .level("city")
            .level("province")
            .level("region")
            .level("country")
            .rollup("city", "province")
            .rollup("city", "region")
            .rollup("province", "country")
            .rollup("region", "country")
            .rollup("country", ALL)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_reports_structure() {
        let s = geo_schema();
        assert_eq!(s.name(), "Geography");
        assert_eq!(s.level_count(), 5);
        let city = s.level_id("city").unwrap();
        let country = s.level_id("country").unwrap();
        assert_eq!(s.bottom(), city);
        assert_eq!(s.level_name(s.top()), ALL);
        assert_eq!(s.parents(city).len(), 2);
        assert_eq!(s.children(country).len(), 2);
    }

    #[test]
    fn precedes_and_paths() {
        let s = geo_schema();
        let city = s.level_id("city").unwrap();
        let province = s.level_id("province").unwrap();
        let region = s.level_id("region").unwrap();
        assert!(s.precedes(city, s.top()));
        assert!(s.precedes(province, s.level_id("country").unwrap()));
        assert!(!s.precedes(province, region));
        assert!(!s.precedes(province, city));
        let p = s.path(city, s.top()).unwrap();
        assert_eq!(p.first(), Some(&city));
        assert_eq!(p.last(), Some(&s.top()));
        assert!(s.path(region, province).is_none());
    }

    #[test]
    fn chain_builder() {
        let s = SchemaBuilder::new("Time")
            .chain(&["timeId", "hour", "day", "month", "year"])
            .build()
            .unwrap();
        let t = s.level_id("timeId").unwrap();
        assert_eq!(s.bottom(), t);
        assert!(s.precedes(t, s.level_id("year").unwrap()));
        assert!(s.precedes(s.level_id("year").unwrap(), s.top()));
    }

    #[test]
    fn rejects_duplicates() {
        let err = SchemaBuilder::new("D").level("a").level("a").build();
        assert_eq!(err.unwrap_err(), OlapError::DuplicateLevel("a".into()));
    }

    #[test]
    fn rejects_cycles() {
        let err = SchemaBuilder::new("D")
            .level("a")
            .level("b")
            .rollup("a", "b")
            .rollup("b", "a")
            .rollup("a", ALL)
            .build();
        assert_eq!(err.unwrap_err(), OlapError::CyclicSchema);
    }

    #[test]
    fn rejects_multiple_bottoms() {
        let err = SchemaBuilder::new("D")
            .level("a")
            .level("b")
            .rollup("a", ALL)
            .rollup("b", ALL)
            .build();
        assert!(matches!(err.unwrap_err(), OlapError::BadBottom(v) if v.len() == 2));
    }

    #[test]
    fn rejects_unreachable_top() {
        let err = SchemaBuilder::new("D")
            .level("a")
            .level("b")
            .rollup("a", "b")
            .build();
        // Neither a nor b reaches All.
        assert!(matches!(err.unwrap_err(), OlapError::UnreachableTop(_)));
    }

    #[test]
    fn rejects_unknown_edge_level() {
        let err = SchemaBuilder::new("D")
            .level("a")
            .rollup("a", "ghost")
            .build();
        assert_eq!(err.unwrap_err(), OlapError::UnknownLevel("ghost".into()));
    }
}
