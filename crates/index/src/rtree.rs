//! An R-tree over rectangles.
//!
//! Supports Sort-Tile-Recursive (STR) bulk loading for static layer data
//! and classic insertion with quadratic split for incremental updates.
//! Queries: rectangle intersection search, point stabbing, and best-first
//! nearest neighbour.

use gisolap_geom::{BBox, Point};
use rayon::prelude::*;

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = 6; // ≈ 40 % of MAX

/// An entry stored in the tree: a rectangle plus the caller's payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    bbox: BBox,
    item: T,
}

#[derive(Debug, Clone)]
enum NodeKind {
    /// Child node indices.
    Internal(Vec<usize>),
    /// Entry indices.
    Leaf(Vec<usize>),
}

#[derive(Debug, Clone)]
struct Node {
    bbox: BBox,
    kind: NodeKind,
}

/// An R-tree mapping bounding boxes to payloads of type `T`.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    nodes: Vec<Node>,
    entries: Vec<Entry<T>>,
    root: usize,
    height: usize, // leaf = 1
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        RTree::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> RTree<T> {
        RTree {
            nodes: vec![Node {
                bbox: BBox::empty(),
                kind: NodeKind::Leaf(Vec::new()),
            }],
            entries: Vec::new(),
            root: 0,
            height: 1,
        }
    }

    /// Bulk loads with the STR (Sort-Tile-Recursive) packing algorithm —
    /// near-optimal space utilization for static data.
    ///
    /// ```
    /// use gisolap_geom::BBox;
    /// use gisolap_index::RTree;
    ///
    /// let tree = RTree::bulk_load(vec![
    ///     (BBox::new(0.0, 0.0, 1.0, 1.0), "a"),
    ///     (BBox::new(2.0, 2.0, 3.0, 3.0), "b"),
    /// ]);
    /// assert_eq!(tree.search(&BBox::new(0.5, 0.5, 1.5, 1.5)), vec![&"a"]);
    /// ```
    pub fn bulk_load(items: Vec<(BBox, T)>) -> RTree<T> {
        let mut tree = RTree::new();
        if items.is_empty() {
            return tree;
        }
        tree.entries = items
            .into_iter()
            .map(|(bbox, item)| Entry { bbox, item })
            .collect();

        // Leaf level: sort by center x, tile into vertical slices, sort
        // each slice by center y, pack runs of MAX_ENTRIES. The slices
        // are disjoint index ranges, so the per-slice y-sorts run in
        // parallel; center keys are extracted first so the parallel
        // comparators never touch `T` (keeps `bulk_load` bound-free).
        let centers: Vec<Point> = tree.entries.iter().map(|e| e.bbox.center()).collect();
        let mut idxs: Vec<usize> = (0..tree.entries.len()).collect();
        idxs.sort_by(|&a, &b| centers[a].x.total_cmp(&centers[b].x));
        let n = idxs.len();
        let leaf_count = n.div_ceil(MAX_ENTRIES);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let slice_size = n.div_ceil(slice_count);

        idxs.par_chunks_mut(slice_size).for_each(|slice| {
            slice.sort_by(|&a, &b| centers[a].y.total_cmp(&centers[b].y));
        });

        tree.nodes.clear();
        let mut level: Vec<usize> = Vec::new(); // node indices of current level
        for slice in idxs.chunks(slice_size) {
            for run in slice.chunks(MAX_ENTRIES) {
                let bbox = run
                    .iter()
                    .fold(BBox::empty(), |b, &i| b.union(&tree.entries[i].bbox));
                tree.nodes.push(Node {
                    bbox,
                    kind: NodeKind::Leaf(run.to_vec()),
                });
                level.push(tree.nodes.len() - 1);
            }
        }
        tree.height = 1;

        // Pack upward until a single root remains.
        while level.len() > 1 {
            let mut parent_level = Vec::new();
            // Sort nodes of the level by center x then tile (STR again).
            let mut lv = level.clone();
            lv.sort_by(|&a, &b| {
                tree.nodes[a]
                    .bbox
                    .center()
                    .x
                    .total_cmp(&tree.nodes[b].bbox.center().x)
            });
            let m = lv.len();
            let node_count = m.div_ceil(MAX_ENTRIES);
            let s_count = (node_count as f64).sqrt().ceil() as usize;
            let s_size = m.div_ceil(s_count);
            for slice in lv.chunks(s_size) {
                let mut slice: Vec<usize> = slice.to_vec();
                slice.sort_by(|&a, &b| {
                    tree.nodes[a]
                        .bbox
                        .center()
                        .y
                        .total_cmp(&tree.nodes[b].bbox.center().y)
                });
                for run in slice.chunks(MAX_ENTRIES) {
                    let bbox = run
                        .iter()
                        .fold(BBox::empty(), |b, &i| b.union(&tree.nodes[i].bbox));
                    tree.nodes.push(Node {
                        bbox,
                        kind: NodeKind::Internal(run.to_vec()),
                    });
                    parent_level.push(tree.nodes.len() - 1);
                }
            }
            level = parent_level;
            tree.height += 1;
        }
        tree.root = level[0];
        tree
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tree height (1 = a single leaf level).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Bounding box of everything stored (empty box when empty).
    pub fn bbox(&self) -> BBox {
        self.nodes[self.root].bbox
    }

    /// Inserts an entry (classic R-tree insertion, quadratic split).
    pub fn insert(&mut self, bbox: BBox, item: T) {
        let entry_idx = self.entries.len();
        self.entries.push(Entry { bbox, item });

        // Choose leaf by least area enlargement along a root-to-leaf path.
        let mut path = Vec::with_capacity(self.height);
        let mut cur = self.root;
        loop {
            path.push(cur);
            match &self.nodes[cur].kind {
                NodeKind::Leaf(_) => break,
                NodeKind::Internal(children) => {
                    let mut best = children[0];
                    let mut best_cost = f64::INFINITY;
                    let mut best_area = f64::INFINITY;
                    for &c in children {
                        let nb = &self.nodes[c].bbox;
                        let enlarged = nb.union(&bbox);
                        let cost = enlarged.area() - nb.area();
                        let area = nb.area();
                        if cost < best_cost || (cost == best_cost && area < best_area) {
                            best = c;
                            best_cost = cost;
                            best_area = area;
                        }
                    }
                    cur = best;
                }
            }
        }

        // Add to the leaf.
        let leaf = *path.last().expect("path non-empty");
        if let NodeKind::Leaf(items) = &mut self.nodes[leaf].kind {
            items.push(entry_idx);
        }
        self.nodes[leaf].bbox = self.nodes[leaf].bbox.union(&bbox);

        // Split and propagate upward as needed.
        let mut split_child: Option<(usize, usize)> = self.maybe_split(leaf);
        for depth in (0..path.len() - 1).rev() {
            let parent = path[depth];
            self.nodes[parent].bbox = self.nodes[parent].bbox.union(&bbox);
            if let Some((old, new)) = split_child.take() {
                debug_assert_eq!(old, path[depth + 1]);
                if let NodeKind::Internal(children) = &mut self.nodes[parent].kind {
                    children.push(new);
                }
                self.recompute_bbox(parent);
                split_child = self.maybe_split(parent);
            }
        }
        if let Some((old_root, new_node)) = split_child {
            // Grow a new root.
            let bbox = self.nodes[old_root].bbox.union(&self.nodes[new_node].bbox);
            self.nodes.push(Node {
                bbox,
                kind: NodeKind::Internal(vec![old_root, new_node]),
            });
            self.root = self.nodes.len() - 1;
            self.height += 1;
        }
    }

    fn recompute_bbox(&mut self, node: usize) {
        let bbox = match &self.nodes[node].kind {
            NodeKind::Leaf(items) => items
                .iter()
                .fold(BBox::empty(), |b, &i| b.union(&self.entries[i].bbox)),
            NodeKind::Internal(children) => children
                .iter()
                .fold(BBox::empty(), |b, &c| b.union(&self.nodes[c].bbox)),
        };
        self.nodes[node].bbox = bbox;
    }

    /// Splits `node` if overfull; returns `(node, new_sibling)`.
    fn maybe_split(&mut self, node: usize) -> Option<(usize, usize)> {
        let overfull = match &self.nodes[node].kind {
            NodeKind::Leaf(v) => v.len() > MAX_ENTRIES,
            NodeKind::Internal(v) => v.len() > MAX_ENTRIES,
        };
        if !overfull {
            return None;
        }

        // Quadratic split (Guttman): pick the pair wasting the most area
        // as seeds, then assign greedily by enlargement preference.
        let (is_leaf, members): (bool, Vec<usize>) = match &self.nodes[node].kind {
            NodeKind::Leaf(v) => (true, v.clone()),
            NodeKind::Internal(v) => (false, v.clone()),
        };
        let bbox_of = |s: &Self, i: usize| -> BBox {
            if is_leaf {
                s.entries[i].bbox
            } else {
                s.nodes[i].bbox
            }
        };

        let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let ba = bbox_of(self, members[i]);
                let bb = bbox_of(self, members[j]);
                let waste = ba.union(&bb).area() - ba.area() - bb.area();
                if waste > worst {
                    worst = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }

        let mut group_a = vec![members[seed_a]];
        let mut group_b = vec![members[seed_b]];
        let mut bbox_a = bbox_of(self, members[seed_a]);
        let mut bbox_b = bbox_of(self, members[seed_b]);
        let mut rest: Vec<usize> = members
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != seed_a && k != seed_b)
            .map(|(_, &m)| m)
            .collect();

        while let Some(m) = rest.pop() {
            // Honor minimum fill.
            let remaining = rest.len() + 1;
            if group_a.len() + remaining <= MIN_ENTRIES {
                bbox_a = bbox_a.union(&bbox_of(self, m));
                group_a.push(m);
                continue;
            }
            if group_b.len() + remaining <= MIN_ENTRIES {
                bbox_b = bbox_b.union(&bbox_of(self, m));
                group_b.push(m);
                continue;
            }
            let mb = bbox_of(self, m);
            let grow_a = bbox_a.union(&mb).area() - bbox_a.area();
            let grow_b = bbox_b.union(&mb).area() - bbox_b.area();
            if grow_a <= grow_b {
                bbox_a = bbox_a.union(&mb);
                group_a.push(m);
            } else {
                bbox_b = bbox_b.union(&mb);
                group_b.push(m);
            }
        }

        let new_kind = |v: Vec<usize>| {
            if is_leaf {
                NodeKind::Leaf(v)
            } else {
                NodeKind::Internal(v)
            }
        };
        self.nodes[node] = Node {
            bbox: bbox_a,
            kind: new_kind(group_a),
        };
        self.nodes.push(Node {
            bbox: bbox_b,
            kind: new_kind(group_b),
        });
        Some((node, self.nodes.len() - 1))
    }

    /// All payloads whose rectangle intersects `query`.
    pub fn search<'a>(&'a self, query: &BBox) -> Vec<&'a T> {
        let mut out = Vec::new();
        self.search_with(query, &mut |item| out.push(item));
        out
    }

    /// Visits every payload whose rectangle intersects `query`.
    pub(crate) fn search_with<'a, F: FnMut(&'a T)>(&'a self, query: &BBox, visit: &mut F) {
        if self.entries.is_empty() {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if !node.bbox.intersects(query) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(items) => {
                    for &i in items {
                        if self.entries[i].bbox.intersects(query) {
                            visit(&self.entries[i].item);
                        }
                    }
                }
                NodeKind::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
    }

    /// All payloads whose rectangle contains `p`.
    pub fn stab(&self, p: Point) -> Vec<&T> {
        self.search(&BBox::from_point(p))
    }

    /// The payload whose rectangle is nearest to `p` (best-first search),
    /// with its distance. `None` for an empty tree.
    pub fn nearest(&self, p: Point) -> Option<(&T, f64)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        if self.entries.is_empty() {
            return None;
        }

        #[derive(PartialEq)]
        struct Cand {
            dist: f64,
            node: Option<usize>,
            entry: Option<usize>,
        }
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.dist.total_cmp(&other.dist)
            }
        }

        let mut heap: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
        heap.push(Reverse(Cand {
            dist: self.nodes[self.root].bbox.distance_to_point(p),
            node: Some(self.root),
            entry: None,
        }));
        while let Some(Reverse(c)) = heap.pop() {
            if let Some(e) = c.entry {
                return Some((&self.entries[e].item, c.dist));
            }
            let n = c.node.expect("candidate is node or entry");
            match &self.nodes[n].kind {
                NodeKind::Leaf(items) => {
                    for &i in items {
                        heap.push(Reverse(Cand {
                            dist: self.entries[i].bbox.distance_to_point(p),
                            node: None,
                            entry: Some(i),
                        }));
                    }
                }
                NodeKind::Internal(children) => {
                    for &ch in children {
                        heap.push(Reverse(Cand {
                            dist: self.nodes[ch].bbox.distance_to_point(p),
                            node: Some(ch),
                            entry: None,
                        }));
                    }
                }
            }
        }
        None
    }

    /// Iterates over all `(bbox, payload)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&BBox, &T)> {
        self.entries.iter().map(|e| (&e.bbox, &e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_boxes(n: usize) -> Vec<(BBox, usize)> {
        // n×n unit cells at integer offsets.
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
    fn empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert!(t.search(&BBox::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(t.nearest(Point::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn bulk_load_and_search() {
        let t = RTree::bulk_load(grid_boxes(10));
        assert_eq!(t.len(), 100);
        // Query covering a 2x2 block of cells.
        let hits = t.search(&BBox::new(0.0, 0.0, 3.0, 3.0));
        assert_eq!(hits.len(), 4);
        // Point query.
        assert_eq!(t.stab(Point::new(0.5, 0.5)), vec![&0]);
        // Query in a gap between cells.
        assert!(t.search(&BBox::new(1.2, 1.2, 1.8, 1.8)).is_empty());
    }

    #[test]
    fn bulk_load_matches_bruteforce() {
        let items = grid_boxes(8);
        let t = RTree::bulk_load(items.clone());
        for q in [
            BBox::new(0.0, 0.0, 16.0, 16.0),
            BBox::new(3.0, 3.0, 5.0, 9.0),
            BBox::new(-5.0, -5.0, -1.0, -1.0),
            BBox::new(7.5, 7.5, 8.5, 8.5),
        ] {
            let mut expected: Vec<usize> = items
                .iter()
                .filter(|(b, _)| b.intersects(&q))
                .map(|&(_, id)| id)
                .collect();
            let mut got: Vec<usize> = t.search(&q).into_iter().copied().collect();
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "query {q:?}");
        }
    }

    #[test]
    fn incremental_insert_matches_bruteforce() {
        let items = grid_boxes(9);
        let mut t: RTree<usize> = RTree::new();
        for (b, id) in items.clone() {
            t.insert(b, id);
        }
        assert_eq!(t.len(), 81);
        assert!(t.height() > 1, "tree must have split");
        let q = BBox::new(2.0, 2.0, 9.0, 9.0);
        let mut expected: Vec<usize> = items
            .iter()
            .filter(|(b, _)| b.intersects(&q))
            .map(|&(_, id)| id)
            .collect();
        let mut got: Vec<usize> = t.search(&q).into_iter().copied().collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn nearest_neighbour() {
        let t = RTree::bulk_load(grid_boxes(5));
        let (item, dist) = t.nearest(Point::new(0.5, 0.5)).unwrap();
        assert_eq!(*item, 0);
        assert_eq!(dist, 0.0);
        // Between cells (1.5, 1.5): nearest corner at distance √2/2... the
        // nearest boxes are cells at (0,0)..(2,2); distance 0.5·√2.
        let (_, dist) = t.nearest(Point::new(1.5, 1.5)).unwrap();
        assert!((dist - (2.0_f64).sqrt() / 2.0).abs() < 1e-12);
        // Far away point: nearest is the closest corner cell.
        let (item, _) = t.nearest(Point::new(100.0, 100.0)).unwrap();
        assert_eq!(*item, 24);
    }

    #[test]
    fn height_grows_logarithmically() {
        let t = RTree::bulk_load(grid_boxes(40)); // 1600 entries
        assert!(t.height() >= 3);
        assert_eq!(t.len(), 1600);
        // Root bbox covers everything.
        assert!(t.bbox().contains_box(&BBox::new(0.0, 0.0, 79.0, 79.0)));
    }

    #[test]
    fn single_item() {
        let t = RTree::bulk_load(vec![(BBox::new(0.0, 0.0, 1.0, 1.0), "x")]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.search(&BBox::new(0.5, 0.5, 2.0, 2.0)), vec![&"x"]);
        assert_eq!(t.nearest(Point::new(5.0, 0.5)).unwrap().1, 4.0);
    }

    #[test]
    fn overlapping_entries() {
        let mut t: RTree<u32> = RTree::new();
        for i in 0..50 {
            t.insert(BBox::new(0.0, 0.0, 10.0, 10.0), i);
        }
        assert_eq!(t.search(&BBox::new(5.0, 5.0, 6.0, 6.0)).len(), 50);
    }
}
