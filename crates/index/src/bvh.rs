//! A bounding-volume hierarchy over rectangles.
//!
//! Built once by recursive median split and queried with rectangle
//! intersection searches. It is the workspace's one bounding-box
//! hierarchy: the query engine keeps one per GIS layer (geometry
//! filtering and layer-pair probes) and one over per-trajectory bounding
//! boxes (the MOFT index). The build makes no floating-point tile-count
//! decisions and never reorders equal keys, so the same input always
//! produces the same tree, byte for byte.
//!
//! # Determinism contract
//!
//! * **Hit order:** every query returns payloads in **ascending insertion
//!   order** (the order items were passed to [`Bvh::build`]), regardless
//!   of tree shape.
//! * **Build shape:** nodes split at the median of the child centroids on
//!   the widest centroid axis; ties between equal centroids break by
//!   insertion order. The same input vector always yields the same tree.
//! * **Degenerate boxes** (points, lines, empty input) are stored and
//!   matched like any other rectangle; intersection tests are inclusive
//!   of shared edges.

use gisolap_geom::BBox;

const LEAF_SIZE: usize = 8;

#[derive(Debug, Clone)]
struct BvhNode {
    bbox: BBox,
    /// Leaf: `(start, len)` into the item order; internal: child indices.
    kind: BvhKind,
}

#[derive(Debug, Clone)]
enum BvhKind {
    Leaf { start: usize, len: usize },
    Internal { left: usize, right: usize },
}

/// A static bounding-volume hierarchy mapping rectangles to payloads.
///
/// ```
/// use gisolap_geom::BBox;
/// use gisolap_index::Bvh;
///
/// let bvh = Bvh::build(vec![
///     (BBox::new(0.0, 0.0, 1.0, 1.0), "a"),
///     (BBox::new(5.0, 5.0, 6.0, 6.0), "b"),
///     (BBox::new(0.5, 0.5, 5.5, 5.5), "c"),
/// ]);
///
/// // Hits come back in insertion order.
/// assert_eq!(bvh.search(&BBox::new(0.0, 0.0, 2.0, 2.0)), vec![&"a", &"c"]);
/// assert!(bvh.search(&BBox::new(10.0, 10.0, 11.0, 11.0)).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bvh<T> {
    nodes: Vec<BvhNode>,
    /// Item indices grouped by leaf; indexes into `items`.
    order: Vec<u32>,
    items: Vec<(BBox, T)>,
    root: usize,
}

impl<T> Bvh<T> {
    /// Builds a hierarchy over `(bbox, payload)` items by deterministic
    /// median split (widest centroid axis, insertion-order tie-break).
    pub fn build(items: Vec<(BBox, T)>) -> Bvh<T> {
        let mut bvh = Bvh {
            nodes: Vec::new(),
            order: (0..items.len() as u32).collect(),
            items,
            root: 0,
        };
        if bvh.items.is_empty() {
            return bvh;
        }
        let n = bvh.items.len();
        let mut order = std::mem::take(&mut bvh.order);
        bvh.root = bvh.split(&mut order, 0, n);
        bvh.order = order;
        bvh
    }

    /// Builds the subtree over `order[lo..hi]`; returns its node index.
    fn split(&mut self, order: &mut [u32], lo: usize, hi: usize) -> usize {
        let bbox = order[lo..hi]
            .iter()
            .fold(BBox::empty(), |b, &i| b.union(&self.items[i as usize].0));
        if hi - lo <= LEAF_SIZE {
            // Leaves keep insertion order so in-leaf scans emit hits
            // pre-sorted.
            order[lo..hi].sort_unstable();
            self.nodes.push(BvhNode {
                bbox,
                kind: BvhKind::Leaf {
                    start: lo,
                    len: hi - lo,
                },
            });
            return self.nodes.len() - 1;
        }

        // Median split on the widest axis of the centroid extent, with
        // the insertion rank as the total-order tie-break.
        let (mut cx_min, mut cx_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut cy_min, mut cy_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in &order[lo..hi] {
            let c = self.items[i as usize].0.center();
            cx_min = cx_min.min(c.x);
            cx_max = cx_max.max(c.x);
            cy_min = cy_min.min(c.y);
            cy_max = cy_max.max(c.y);
        }
        let use_x = (cx_max - cx_min) >= (cy_max - cy_min);
        let key = |items: &[(BBox, T)], i: u32| {
            let c = items[i as usize].0.center();
            if use_x {
                c.x
            } else {
                c.y
            }
        };
        let mid = lo + (hi - lo) / 2;
        {
            let items = &self.items;
            order[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
                key(items, a)
                    .total_cmp(&key(items, b))
                    .then_with(|| a.cmp(&b))
            });
        }
        let left = self.split(order, lo, mid);
        let right = self.split(order, mid, hi);
        let node = BvhNode {
            bbox,
            kind: BvhKind::Internal { left, right },
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the hierarchy stores nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bounding box of everything stored (empty box when empty).
    pub fn bbox(&self) -> BBox {
        if self.items.is_empty() {
            BBox::empty()
        } else {
            self.nodes[self.root].bbox
        }
    }

    /// All payloads whose rectangle intersects `query`, in ascending
    /// insertion order.
    pub fn search<'a>(&'a self, query: &BBox) -> Vec<&'a T> {
        let mut idxs = self.search_idxs(query);
        idxs.sort_unstable();
        idxs.into_iter()
            .map(|i| &self.items[i as usize].1)
            .collect()
    }

    /// Insertion ranks (positions in the `build` input) of every item
    /// whose rectangle intersects `query`, unsorted.
    fn search_idxs(&self, query: &BBox) -> Vec<u32> {
        let mut out = Vec::new();
        if self.items.is_empty() {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if !node.bbox.intersects(query) {
                continue;
            }
            match node.kind {
                BvhKind::Leaf { start, len } => {
                    for &i in &self.order[start..start + len] {
                        if self.items[i as usize].0.intersects(query) {
                            out.push(i);
                        }
                    }
                }
                BvhKind::Internal { left, right } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        out
    }

    /// Iterates `(bbox, payload)` in ascending insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&BBox, &T)> {
        self.items.iter().map(|(b, t)| (b, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_boxes(n: usize) -> Vec<(BBox, usize)> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (i as f64 * 2.0, j as f64 * 2.0);
                v.push((BBox::new(x, y, x + 1.0, y + 1.0), i * n + j));
            }
        }
        v
    }

    #[test]
    fn empty() {
        let b: Bvh<u32> = Bvh::build(Vec::new());
        assert!(b.is_empty());
        assert!(b.search(&BBox::new(0.0, 0.0, 1.0, 1.0)).is_empty());
    }

    #[test]
    fn matches_bruteforce_in_insertion_order() {
        let items = grid_boxes(12);
        let b = Bvh::build(items.clone());
        assert_eq!(b.len(), 144);
        for q in [
            BBox::new(0.0, 0.0, 30.0, 30.0),
            BBox::new(3.0, 3.0, 5.0, 9.0),
            BBox::new(-5.0, -5.0, -1.0, -1.0),
            BBox::new(7.5, 7.5, 8.5, 8.5),
            BBox::new(1.0, 1.0, 2.0, 2.0), // shared-edge touch
        ] {
            let expected: Vec<usize> = items
                .iter()
                .filter(|(bb, _)| bb.intersects(&q))
                .map(|&(_, id)| id)
                .collect();
            let got: Vec<usize> = b.search(&q).into_iter().copied().collect();
            // Insertion order == ascending payload here by construction,
            // so the unsorted brute-force scan order is the contract
            // order too.
            assert_eq!(got, expected, "query {q:?}");
        }
    }

    #[test]
    fn identical_boxes_keep_all_payloads() {
        let same = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = Bvh::build((0..40u32).map(|i| (same, i)).collect());
        let got: Vec<u32> = b.search(&same).into_iter().copied().collect();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn rebuild_is_reproducible() {
        let items = grid_boxes(9);
        let a = Bvh::build(items.clone());
        let b = Bvh::build(items);
        let q = BBox::new(2.0, 2.0, 9.0, 9.0);
        let ga: Vec<usize> = a.search(&q).into_iter().copied().collect();
        let gb: Vec<usize> = b.search(&q).into_iter().copied().collect();
        assert_eq!(ga, gb);
        assert_eq!(a.bbox(), b.bbox());
    }

    #[test]
    fn point_boxes() {
        let b = Bvh::build(vec![
            (BBox::from_point(gisolap_geom::Point::new(1.0, 1.0)), 'p'),
            (BBox::from_point(gisolap_geom::Point::new(3.0, 3.0)), 'q'),
        ]);
        assert_eq!(b.search(&BBox::new(0.0, 0.0, 2.0, 2.0)), vec![&'p']);
        assert_eq!(b.search(&BBox::new(0.0, 0.0, 4.0, 4.0)), vec![&'p', &'q']);
    }
}
