//! Property-based tests for the access methods.

use gisolap_geom::{BBox, Point};
use gisolap_index::arb::{ArbTree, RegionId};
use gisolap_index::{Bvh, GridIndex};
use proptest::prelude::*;

fn boxes() -> impl Strategy<Value = Vec<(BBox, u32)>> {
    proptest::collection::vec(
        ((-100i32..100), (-100i32..100), (1u8..30), (1u8..30)),
        0..120,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| {
                let (x, y) = (x as f64, y as f64);
                (BBox::new(x, y, x + w as f64, y + h as f64), i as u32)
            })
            .collect()
    })
}

/// Boxes whose width and height may be zero (points and segments), with
/// some inputs repeated verbatim, under distinct payloads that are *not*
/// sorted (an odd multiplier permutes `u32`), so insertion order and
/// payload order differ.
fn degenerate_boxes() -> impl Strategy<Value = Vec<(BBox, u32)>> {
    proptest::collection::vec(
        (
            (-100i32..100),
            (-100i32..100),
            (0u8..30),
            (0u8..30),
            (0u8..4),
        ),
        0..160,
    )
    .prop_map(|raw| {
        let mut out: Vec<(BBox, u32)> = Vec::new();
        for (i, (x, y, w, h, dup)) in raw.into_iter().enumerate() {
            let (x, y) = (x as f64, y as f64);
            // One in four inputs repeats an earlier box exactly.
            let b = match out.get(i / 2) {
                Some(&(prev, _)) if dup == 0 => prev,
                _ => BBox::new(x, y, x + w as f64, y + h as f64),
            };
            out.push((b, (i as u32).wrapping_mul(2_654_435_761)));
        }
        out
    })
}

fn query_box() -> impl Strategy<Value = BBox> {
    ((-120i32..120), (-120i32..120), (1u8..80), (1u8..80)).prop_map(|(x, y, w, h)| {
        BBox::new(x as f64, y as f64, x as f64 + w as f64, y as f64 + h as f64)
    })
}

proptest! {
    #[test]
    fn bvh_matches_bruteforce_in_insertion_order(items in degenerate_boxes(), q in query_box()) {
        let bvh = Bvh::build(items.clone());
        let expected: Vec<u32> = items
            .iter()
            .filter(|(b, _)| b.intersects(&q))
            .map(|&(_, id)| id)
            .collect();
        let got: Vec<u32> = bvh.search(&q).into_iter().copied().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn grid_candidates_are_a_superset(items in boxes(), q in query_box(), flatten in 0u8..3) {
        if items.is_empty() {
            return Ok(());
        }
        // Optionally squash every item onto one vertical or horizontal
        // line, so the grid's bounds have zero width or height.
        let items: Vec<(BBox, u32)> = items
            .into_iter()
            .map(|(b, id)| match flatten {
                1 => (BBox::new(3.0, b.min_y, 3.0, b.max_y), id),
                2 => (BBox::new(b.min_x, -7.0, b.max_x, -7.0), id),
                _ => (b, id),
            })
            .collect();
        let bounds = items
            .iter()
            .fold(BBox::empty(), |b, (bb, _)| b.union(bb));
        let mut grid = GridIndex::new(bounds, 8, 8);
        for (b, id) in &items {
            grid.insert(b, *id);
        }
        let candidates = grid.candidates(&q);
        for (b, id) in &items {
            if b.intersects(&q) {
                prop_assert!(
                    candidates.contains(id),
                    "grid lost a true hit: {id}"
                );
            }
        }
        // The point stab: every item corner and every cell corner (cell
        // edges and the max edge included) finds each item whose bbox
        // contains it, in ascending (= insertion) order.
        let corners = |b: &BBox| {
            [
                Point::new(b.min_x, b.min_y),
                Point::new(b.max_x, b.min_y),
                Point::new(b.min_x, b.max_y),
                Point::new(b.max_x, b.max_y),
            ]
        };
        let cells = (0..8).flat_map(|c| (0..8).map(move |r| (c, r)));
        let probes: Vec<Point> = items
            .iter()
            .flat_map(|(b, _)| corners(b))
            .chain(cells.flat_map(|(c, r)| corners(&grid.cell_bbox(c, r))))
            .collect();
        for p in probes {
            let stab = grid.cell_items(p);
            prop_assert!(stab.windows(2).all(|w| w[0] < w[1]), "not ascending: {:?}", stab);
            for (b, id) in &items {
                if b.contains(p) {
                    prop_assert!(stab.contains(id), "stab at {:?} lost {}", p, id);
                }
            }
        }
    }

    #[test]
    fn arb_bounds_bracket_exact(obs in proptest::collection::vec((0u32..16, 0i64..8, 1u32..5), 0..100), q in query_box()) {
        // 4×4 unit regions at integer positions scaled by 50.
        let regions: Vec<BBox> = (0..16)
            .map(|i| {
                let x = (i % 4) as f64 * 50.0 - 100.0;
                let y = (i / 4) as f64 * 50.0 - 100.0;
                BBox::new(x, y, x + 50.0, y + 50.0)
            })
            .collect();
        let tree = ArbTree::build(
            &regions,
            obs.iter().map(|&(r, b, v)| (RegionId(r), b, v as f64)),
        );
        let (lo, hi) = tree.count_bounds(&q, 0, 7);
        prop_assert!(lo <= hi + 1e-9);
        // The exact answer for *fully contained* regions is the lower
        // bound; for *intersecting* regions the upper bound.
        let exact_contained: f64 = obs
            .iter()
            .filter(|&&(r, _, _)| q.contains_box(&regions[r as usize]))
            .map(|&(_, _, v)| v as f64)
            .sum();
        let exact_intersecting: f64 = obs
            .iter()
            .filter(|&&(r, _, _)| q.intersects(&regions[r as usize]))
            .map(|&(_, _, v)| v as f64)
            .sum();
        prop_assert!((lo - exact_contained).abs() < 1e-9, "lower bound");
        prop_assert!((hi - exact_intersecting).abs() < 1e-9, "upper bound");
    }
}
