//! Coverage test for `docs/indexing.md` (same pattern as the
//! OBSERVABILITY.md checks in `obs_invariants.rs`): the indexing
//! reference must mention every public index type, so new access
//! methods cannot ship without a written determinism contract, and every
//! structure must name where it is measured, so none stays without a
//! number that justifies it.

const DOC: &str = include_str!("../../docs/indexing.md");
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const EXPERIMENTS: &str = include_str!("../../EXPERIMENTS.md");

/// Every public index type across `gisolap-index` and the engine-side
/// bundle in `gisolap-core`. Extending either public API without
/// documenting the new type's contract fails here.
const PUBLIC_INDEX_TYPES: &[&str] = &[
    // gisolap-index
    "GridIndex",
    "ArbTree",
    "IntervalTree",
    "Bvh",
    "Zone",
    "ZoneMap",
    "DEFAULT_ZONE_ROWS",
    // gisolap-core engine bundle
    "MoftIndex",
    "ObjectExtent",
];

#[test]
fn indexing_doc_covers_every_public_index_type() {
    let missing: Vec<&str> = PUBLIC_INDEX_TYPES
        .iter()
        .copied()
        .filter(|name| !DOC.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/indexing.md does not document index types: {missing:?}"
    );
}

#[test]
fn indexing_doc_type_list_is_in_sync_with_the_crates() {
    // The list above is a literal; pin it against the actual public
    // API so a rename in the crates fails this test rather than
    // silently documenting a ghost. (Using the types is the cheapest
    // existence proof available to an integration test.)
    let _: Option<gisolap_index::IntervalTree<u32>> = gisolap_index::IntervalTree::build(vec![]);
    let _: gisolap_index::Bvh<u32> = gisolap_index::Bvh::build(vec![]);
    let zm: gisolap_index::ZoneMap = gisolap_index::ZoneMap::build(
        std::iter::empty::<(u64, i64, f64, f64)>(),
        gisolap_index::DEFAULT_ZONE_ROWS,
    );
    let _: &[gisolap_index::Zone] = zm.zones();
    let _: gisolap_index::GridIndex =
        gisolap_index::GridIndex::new(gisolap_geom::BBox::new(0.0, 0.0, 1.0, 1.0), 1, 1);
    let _: gisolap_index::ArbTree = gisolap_index::ArbTree::build(&[], []);
    let moft = gisolap_traj::moft::Moft::new();
    let idx: gisolap_core::MoftIndex =
        gisolap_core::MoftIndex::build(&moft, gisolap_index::DEFAULT_ZONE_ROWS);
    let _: &[gisolap_core::ObjectExtent] = idx.extents();
}

/// The `"name"` values of one top-level array of `BENCHMARK.json` (the
/// file is read, never written).
fn benchmark_names(array: &str) -> Vec<&'static str> {
    let start = BENCHMARK
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{array}`"));
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("name closes")])
        .collect()
}

/// Every `###` section under `## Structures`, as `(heading, body)`.
fn structure_sections() -> Vec<(&'static str, &'static str)> {
    let start = DOC.find("\n## Structures\n").expect("a Structures section");
    let body = &DOC[start + 1..];
    let body = &body[..body[3..].find("\n## ").map_or(body.len(), |i| i + 3)];
    body.split("\n### ")
        .skip(1)
        .map(|sec| sec.split_once('\n').expect("section has a body"))
        .collect()
}

#[test]
fn every_structure_names_where_it_is_measured() {
    let rows = benchmark_names("per_layer");
    let workloads = benchmark_names("workloads");
    assert!(rows.contains(&"index.zone_prune_share"), "{rows:?}");
    assert!(workloads.contains(&"eval_selective"), "{workloads:?}");
    let sections = structure_sections();
    assert!(sections.len() >= 6, "found {} sections", sections.len());
    let mut problems = Vec::new();
    for (heading, body) in sections {
        let Some(at) = body.find("Measured by:") else {
            problems.push(format!("{heading}: no `Measured by:` line"));
            continue;
        };
        // The bullet runs to the next bullet or blank line. Its
        // backticked names: ledger rows, ledger workloads or
        // EXPERIMENTS.md experiment ids.
        let bullet = &body[at..];
        let end = ["\n\n", "\n* "]
            .iter()
            .filter_map(|stop| bullet.find(stop))
            .min()
            .unwrap_or(bullet.len());
        let names: Vec<&str> = bullet[..end].split('`').skip(1).step_by(2).collect();
        if names.is_empty() {
            problems.push(format!("{heading}: `Measured by:` names nothing"));
        }
        for name in names {
            let experiment = name.starts_with('E')
                && name[1..].chars().all(|c| c.is_ascii_digit())
                && EXPERIMENTS.contains(&format!("\n## {name} "));
            if !(rows.contains(&name) || workloads.contains(&name) || experiment) {
                problems.push(format!("{heading}: unknown name `{name}`"));
            }
        }
    }
    assert!(problems.is_empty(), "docs/indexing.md: {problems:#?}");
}
