//! Dimension instances: members, rollup functions, attributes.
//!
//! An instance (paper Definition 2, application part; after \[7\]) attaches
//! to each level a set of members and to each direct schema edge a total
//! *rollup function* mapping child members to parent members. Consistency
//! requires that compositions along different paths agree — the classic
//! summarizability precondition for pre-aggregation.

use std::collections::HashMap;

use crate::schema::{DimensionSchema, LevelId, ALL};
use crate::value::Value;
use crate::{OlapError, Result};

/// Identifier of a member within its level (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemberId(pub u32);

/// Distinguished sole member of the `All` level.
pub(crate) const ALL_MEMBER: &str = "all";

/// A dimension instance over a [`DimensionSchema`].
#[derive(Debug, Clone)]
pub struct DimensionInstance {
    schema: DimensionSchema,
    /// Member names per level.
    members: Vec<Vec<String>>,
    /// Name → id per level.
    member_index: Vec<HashMap<String, MemberId>>,
    /// Rollup functions per direct edge `(child_level, parent_level)`:
    /// vector indexed by child member id holding parent member id.
    rollups: HashMap<(LevelId, LevelId), Vec<MemberId>>,
    /// Attribute values per level: name → column (indexed by member id).
    attributes: Vec<HashMap<String, Vec<Value>>>,
}

/// Builder for [`DimensionInstance`].
#[derive(Debug)]
pub struct InstanceBuilder {
    schema: DimensionSchema,
    members: Vec<Vec<String>>,
    member_index: Vec<HashMap<String, MemberId>>,
    /// Edge → (child member name → parent member name).
    rollups: HashMap<(LevelId, LevelId), HashMap<String, String>>,
    attributes: Vec<HashMap<String, HashMap<String, Value>>>,
}

impl InstanceBuilder {
    /// Starts an instance for `schema`.
    pub fn new(schema: DimensionSchema) -> InstanceBuilder {
        let n = schema.level_count();
        let mut b = InstanceBuilder {
            schema,
            members: vec![Vec::new(); n],
            member_index: vec![HashMap::new(); n],
            rollups: HashMap::new(),
            attributes: vec![HashMap::new(); n],
        };
        // The All level always holds exactly the member "all".
        let top = b.schema.top();
        b.push_member(top, ALL_MEMBER.to_string());
        b
    }

    fn push_member(&mut self, level: LevelId, name: String) -> MemberId {
        let li = level.0 as usize;
        if let Some(&id) = self.member_index[li].get(&name) {
            return id;
        }
        let id = MemberId(self.members[li].len() as u32);
        self.member_index[li].insert(name.clone(), id);
        self.members[li].push(name);
        id
    }

    /// Adds a member to a level (idempotent).
    pub fn member(mut self, level: &str, name: impl Into<String>) -> Result<InstanceBuilder> {
        let lvl = self.schema.level_id(level)?;
        self.push_member(lvl, name.into());
        Ok(self)
    }

    /// Records `child_member` rolling up to `parent_member` along the edge
    /// `child_level → parent_level`. Members are created as needed.
    pub fn rollup(
        mut self,
        child_level: &str,
        child_member: impl Into<String>,
        parent_level: &str,
        parent_member: impl Into<String>,
    ) -> Result<InstanceBuilder> {
        let cl = self.schema.level_id(child_level)?;
        let pl = self.schema.level_id(parent_level)?;
        if !self.schema.parents(cl).contains(&pl) {
            return Err(OlapError::UnknownLevel(format!(
                "{child_level} → {parent_level} is not a schema edge"
            )));
        }
        let (cm, pm) = (child_member.into(), parent_member.into());
        self.push_member(cl, cm.clone());
        self.push_member(pl, pm.clone());
        self.rollups.entry((cl, pl)).or_default().insert(cm, pm);
        Ok(self)
    }

    /// Sets an attribute value for a member.
    pub fn attribute(
        mut self,
        level: &str,
        member: &str,
        attr: impl Into<String>,
        value: impl Into<Value>,
    ) -> Result<InstanceBuilder> {
        let lvl = self.schema.level_id(level)?;
        self.push_member(lvl, member.to_string());
        self.attributes[lvl.0 as usize]
            .entry(attr.into())
            .or_default()
            .insert(member.to_string(), value.into());
        Ok(self)
    }

    /// Validates totality and path consistency and builds the instance.
    pub fn build(self) -> Result<DimensionInstance> {
        let schema = self.schema;
        let n = schema.level_count();
        let members = self.members;
        let member_index = self.member_index;

        // Materialize each edge's rollup function as a dense vector; every
        // member of a non-All child level must map somewhere. Edges into
        // All are implicit (everything maps to "all").
        let mut rollups: HashMap<(LevelId, LevelId), Vec<MemberId>> = HashMap::new();
        for (child, parent) in schema.edges() {
            let ci = child.0 as usize;
            let edge_map = self.rollups.get(&(child, parent));
            let mut dense: Vec<MemberId> = Vec::with_capacity(members[ci].len());
            for m in &members[ci] {
                let target: MemberId = if schema.level_name(parent) == ALL {
                    MemberId(0)
                } else {
                    let name = edge_map.and_then(|em| em.get(m)).ok_or_else(|| {
                        OlapError::PartialRollup {
                            member: m.clone(),
                            from: schema.level_name(child).to_string(),
                            to: schema.level_name(parent).to_string(),
                        }
                    })?;
                    member_index[parent.0 as usize][name]
                };
                dense.push(target);
            }
            rollups.insert((child, parent), dense);
        }

        // Attribute maps → dense columns (Null where unset).
        let mut attributes: Vec<HashMap<String, Vec<Value>>> = vec![HashMap::new(); n];
        for (li, attrs) in self.attributes.into_iter().enumerate() {
            for (aname, vals) in attrs {
                let mut col = vec![Value::Null; members[li].len()];
                for (mname, v) in vals {
                    let id = member_index[li][&mname];
                    col[id.0 as usize] = v;
                }
                attributes[li].insert(aname, col);
            }
        }

        let inst = DimensionInstance {
            schema,
            members,
            member_index,
            rollups,
            attributes,
        };
        inst.check_consistency()?;
        Ok(inst)
    }
}

impl DimensionInstance {
    /// Starts building an instance.
    pub fn builder(schema: DimensionSchema) -> InstanceBuilder {
        InstanceBuilder::new(schema)
    }

    /// The underlying schema.
    pub fn schema(&self) -> &DimensionSchema {
        &self.schema
    }

    /// Members of a level.
    pub fn members(&self, level: LevelId) -> &[String] {
        &self.members[level.0 as usize]
    }

    /// Resolves a member name within a level.
    pub fn member_id(&self, level: LevelId, name: &str) -> Result<MemberId> {
        self.member_index[level.0 as usize]
            .get(name)
            .copied()
            .ok_or_else(|| OlapError::UnknownMember(name.to_string()))
    }

    /// Name of a member.
    pub fn member_name(&self, level: LevelId, id: MemberId) -> &str {
        &self.members[level.0 as usize][id.0 as usize]
    }

    /// Direct rollup along a schema edge.
    pub(crate) fn rollup_edge(
        &self,
        from: LevelId,
        to: LevelId,
        member: MemberId,
    ) -> Option<MemberId> {
        self.rollups.get(&(from, to)).map(|v| v[member.0 as usize])
    }

    /// Rollup along *any* path from `from` to `to` (the paper's
    /// `R^{to}_{from}` function). Path choice is irrelevant because
    /// consistency is verified at build time.
    pub fn rollup(&self, from: LevelId, to: LevelId, member: MemberId) -> Result<MemberId> {
        if from == to {
            return Ok(member);
        }
        let path = self.schema.path(from, to).ok_or_else(|| {
            OlapError::UnknownLevel(format!(
                "no rollup path {} → {}",
                self.schema.level_name(from),
                self.schema.level_name(to)
            ))
        })?;
        let mut cur = member;
        for w in path.windows(2) {
            cur = self
                .rollup_edge(w[0], w[1], cur)
                .expect("edge on a schema path must have a rollup function");
        }
        Ok(cur)
    }

    /// Attribute value of a member ([`Value::Null`] when unset).
    pub fn attribute(&self, level: LevelId, member: MemberId, attr: &str) -> Value {
        self.attributes[level.0 as usize]
            .get(attr)
            .map(|col| col[member.0 as usize].clone())
            .unwrap_or(Value::Null)
    }

    /// Names of the attributes defined at a level.
    pub fn attribute_names(&self, level: LevelId) -> Vec<&str> {
        self.attributes[level.0 as usize]
            .keys()
            .map(String::as_str)
            .collect()
    }

    /// All members of `from` that roll up to `target` at level `to`
    /// (the inverse rollup, used by slice operations).
    pub fn members_rolling_up_to(
        &self,
        from: LevelId,
        to: LevelId,
        target: MemberId,
    ) -> Vec<MemberId> {
        (0..self.members[from.0 as usize].len() as u32)
            .map(MemberId)
            .filter(|&m| self.rollup(from, to, m) == Ok(target))
            .collect()
    }

    /// Verifies that rollup compositions along different schema paths
    /// agree for every member (HMV consistency).
    fn check_consistency(&self) -> Result<()> {
        let n = self.schema.level_count();
        for li in 0..n {
            let from = LevelId(li as u32);
            for ti in 0..n {
                let to = LevelId(ti as u32);
                if from == to || !self.schema.precedes(from, to) {
                    continue;
                }
                // Enumerate all simple paths and compare results.
                let paths = self.all_paths(from, to);
                if paths.len() < 2 {
                    continue;
                }
                for m in 0..self.members[li].len() as u32 {
                    let mut results = paths.iter().map(|p| {
                        let mut cur = MemberId(m);
                        for w in p.windows(2) {
                            cur = self
                                .rollup_edge(w[0], w[1], cur)
                                .expect("edge rollup exists");
                        }
                        cur
                    });
                    let first = results.next().expect("at least one path");
                    if results.any(|r| r != first) {
                        return Err(OlapError::InconsistentRollup {
                            member: self.members[li][m as usize].clone(),
                            at: self.schema.level_name(to).to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn all_paths(&self, from: LevelId, to: LevelId) -> Vec<Vec<LevelId>> {
        let mut out = Vec::new();
        let mut stack = vec![vec![from]];
        while let Some(path) = stack.pop() {
            let last = *path.last().expect("non-empty path");
            if last == to {
                out.push(path);
                continue;
            }
            for &p in self.schema.parents(last) {
                if self.schema.precedes(p, to) || p == to {
                    let mut next = path.clone();
                    next.push(p);
                    stack.push(next);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn geo_instance() -> DimensionInstance {
        let schema = SchemaBuilder::new("Geography")
            .chain(&["city", "province", "country"])
            .build()
            .unwrap();
        DimensionInstance::builder(schema)
            .rollup("city", "Antwerp", "province", "Flanders")
            .unwrap()
            .rollup("city", "Ghent", "province", "Flanders")
            .unwrap()
            .rollup("city", "Liège", "province", "Wallonia")
            .unwrap()
            .rollup("province", "Flanders", "country", "Belgium")
            .unwrap()
            .rollup("province", "Wallonia", "country", "Belgium")
            .unwrap()
            .attribute("city", "Antwerp", "population", 520_000i64)
            .unwrap()
            .attribute("city", "Ghent", "population", 260_000i64)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn members_and_rollups() {
        let inst = geo_instance();
        let s = inst.schema();
        let city = s.level_id("city").unwrap();
        let province = s.level_id("province").unwrap();
        let country = s.level_id("country").unwrap();
        assert_eq!(inst.members(city).len(), 3);
        let antwerp = inst.member_id(city, "Antwerp").unwrap();
        let flanders = inst.rollup(city, province, antwerp).unwrap();
        assert_eq!(inst.member_name(province, flanders), "Flanders");
        let belgium = inst.rollup(city, country, antwerp).unwrap();
        assert_eq!(inst.member_name(country, belgium), "Belgium");
        // Rollup to All always lands on "all".
        let all = inst.rollup(city, s.top(), antwerp).unwrap();
        assert_eq!(inst.member_name(s.top(), all), ALL_MEMBER);
    }

    #[test]
    fn attributes() {
        let inst = geo_instance();
        let city = inst.schema().level_id("city").unwrap();
        let antwerp = inst.member_id(city, "Antwerp").unwrap();
        assert_eq!(
            inst.attribute(city, antwerp, "population"),
            Value::Int(520_000)
        );
        let liege = inst.member_id(city, "Liège").unwrap();
        assert_eq!(inst.attribute(city, liege, "population"), Value::Null);
        assert_eq!(inst.attribute(city, antwerp, "ghost"), Value::Null);
    }

    #[test]
    fn inverse_rollup() {
        let inst = geo_instance();
        let s = inst.schema();
        let city = s.level_id("city").unwrap();
        let province = s.level_id("province").unwrap();
        let flanders = inst.member_id(province, "Flanders").unwrap();
        let cities = inst.members_rolling_up_to(city, province, flanders);
        assert_eq!(cities.len(), 2);
    }

    #[test]
    fn partial_rollup_rejected() {
        let schema = SchemaBuilder::new("G")
            .chain(&["city", "province"])
            .build()
            .unwrap();
        let err = DimensionInstance::builder(schema)
            .member("city", "Orphan")
            .unwrap()
            .build();
        assert!(matches!(err.unwrap_err(), OlapError::PartialRollup { .. }));
    }

    #[test]
    fn inconsistent_diamond_rejected() {
        // city rolls to country via province AND via region; make them
        // disagree.
        let schema = SchemaBuilder::new("G")
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
            .unwrap();
        let err = DimensionInstance::builder(schema)
            .rollup("city", "X", "province", "P")
            .unwrap()
            .rollup("city", "X", "region", "R")
            .unwrap()
            .rollup("province", "P", "country", "C1")
            .unwrap()
            .rollup("region", "R", "country", "C2")
            .unwrap()
            .build();
        assert!(matches!(
            err.unwrap_err(),
            OlapError::InconsistentRollup { .. }
        ));
    }

    #[test]
    fn consistent_diamond_accepted() {
        let schema = SchemaBuilder::new("G")
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
            .unwrap();
        let inst = DimensionInstance::builder(schema)
            .rollup("city", "X", "province", "P")
            .unwrap()
            .rollup("city", "X", "region", "R")
            .unwrap()
            .rollup("province", "P", "country", "C")
            .unwrap()
            .rollup("region", "R", "country", "C")
            .unwrap()
            .build()
            .unwrap();
        let s = inst.schema();
        let city = s.level_id("city").unwrap();
        let country = s.level_id("country").unwrap();
        let x = inst.member_id(city, "X").unwrap();
        assert_eq!(
            inst.member_name(country, inst.rollup(city, country, x).unwrap()),
            "C"
        );
    }

    #[test]
    fn unknown_member_error() {
        let inst = geo_instance();
        let city = inst.schema().level_id("city").unwrap();
        assert!(matches!(
            inst.member_id(city, "Atlantis"),
            Err(OlapError::UnknownMember(_))
        ));
    }

    #[test]
    fn rollup_requires_schema_edge() {
        let schema = SchemaBuilder::new("G")
            .chain(&["city", "province", "country"])
            .build()
            .unwrap();
        let err = DimensionInstance::builder(schema).rollup("city", "A", "country", "B");
        assert!(err.is_err());
    }
}
