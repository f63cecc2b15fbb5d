//! Coverage test for `docs/indexing.md` (same pattern as the
//! OBSERVABILITY.md checks in `obs_invariants.rs`): the indexing
//! reference must mention every public index type, so new access
//! methods cannot ship without a written determinism contract.

const DOC: &str = include_str!("../../docs/indexing.md");

/// Every public index type across `gisolap-index` and the engine-side
/// bundle in `gisolap-core`. Extending either public API without
/// documenting the new type's contract fails here.
const PUBLIC_INDEX_TYPES: &[&str] = &[
    // gisolap-index
    "RTree",
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
    let _: gisolap_index::RTree<u32> = gisolap_index::RTree::new();
    let _: gisolap_index::GridIndex =
        gisolap_index::GridIndex::new(gisolap_geom::BBox::new(0.0, 0.0, 1.0, 1.0), 1, 1);
    let _: gisolap_index::ArbTree = gisolap_index::ArbTree::build(&[], []);
    let moft = gisolap_traj::moft::Moft::new();
    let idx: gisolap_core::MoftIndex =
        gisolap_core::MoftIndex::build(&moft, gisolap_index::DEFAULT_ZONE_ROWS);
    let _: &[gisolap_core::ObjectExtent] = idx.extents();
}
