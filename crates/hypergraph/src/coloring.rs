//! Greedy largest-first list coloring — Algorithm 3 of the paper.
//!
//! Uncolored vertices are processed in non-increasing degree order. For each
//! vertex `v`, a color `c` is *forbidden* if some edge containing `v` has all
//! its other vertices already colored `c` (coloring `v` with `c` would make
//! the edge monochromatic). The vertex takes the smallest permitted candidate
//! color; if none remains it is *skipped* and returned to the caller, which
//! resolves skips by minting fresh colors (= fresh `R2` tuples, lines 11–14
//! of Algorithm 4).
//!
//! Clique groups apply the same rule by counting: a group of arity `k`
//! forbids color `c` for a member exactly when `k − 1` other members
//! already hold `c` — the case in which one of its implicit edges would
//! have all its other vertices colored `c`. Window groups apply it by
//! walking each of the vertex's windows: every colored vertex in one
//! forbids its color, as the pair edge to it would.

use crate::graph::{Color, Coloring, Hypergraph, VertexId};
use std::collections::HashMap;

/// A generation-stamped forbidden-color set: `mark`/`is_marked` are O(1)
/// array reads and "clearing" between vertices is a stamp increment — no
/// per-vertex hashing or `HashSet` churn on the coloring hot path. Colors
/// index candidate FK values, so they are dense small integers; the array
/// grows to the largest color actually forbidden.
struct ForbiddenSet {
    stamp_of: Vec<u32>,
    stamp: u32,
}

impl ForbiddenSet {
    fn new() -> ForbiddenSet {
        ForbiddenSet {
            stamp_of: Vec::new(),
            stamp: 0,
        }
    }

    /// Starts a fresh (empty) forbidden set for the next vertex.
    fn next_vertex(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // One wrap per 2^32 vertices: reset the stamps instead of
            // letting stale marks alias the new generation.
            self.stamp_of.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
    }

    fn mark(&mut self, c: Color) {
        let i = c as usize;
        if i >= self.stamp_of.len() {
            self.stamp_of.resize(i + 1, 0);
        }
        self.stamp_of[i] = self.stamp;
    }

    fn is_marked(&self, c: Color) -> bool {
        self.stamp_of.get(c as usize) == Some(&self.stamp)
    }
}

/// splitmix64-finalizing hasher for the `(group, color)` count keys.
#[derive(Clone, Copy, Debug, Default)]
struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("count keys hash via write_u64");
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Per-(group, color) member counts plus, per group, its *saturated*
/// colors: those at least `k − 1` members hold, which no further member
/// may take.
struct GroupCounts {
    counts: HashMap<u64, u32, std::hash::BuildHasherDefault<MixHasher>>,
    saturated: Vec<Vec<Color>>,
}

impl GroupCounts {
    /// Counts every member the partial `coloring` already colors.
    fn new(g: &Hypergraph, coloring: &Coloring) -> GroupCounts {
        let mut gc = GroupCounts {
            counts: HashMap::default(),
            saturated: vec![Vec::new(); g.n_groups()],
        };
        for i in 0..g.n_groups() as u32 {
            for &v in g.group(i).1 {
                if let Some(c) = coloring.get(v) {
                    gc.add(g, i, c);
                }
            }
        }
        gc
    }

    fn add(&mut self, g: &Hypergraph, group: u32, c: Color) {
        let n = self
            .counts
            .entry(u64::from(group) << 32 | u64::from(c))
            .or_insert(0);
        *n += 1;
        if *n as usize == g.group(group).0 - 1 {
            self.saturated[group as usize].push(c);
        }
    }

    /// Marks the colors the groups of the uncolored vertex `v` forbid.
    fn forbid(&self, g: &Hypergraph, v: VertexId, forbidden: &mut ForbiddenSet) {
        for &group in g.groups_of(v) {
            for &c in &self.saturated[group as usize] {
                forbidden.mark(c);
            }
        }
    }

    /// Counts the newly colored `v` in each of its groups.
    fn colored(&mut self, g: &Hypergraph, v: VertexId, c: Color) {
        for &group in g.groups_of(v) {
            self.add(g, group, c);
        }
    }
}

/// Candidate color lists: either one shared list for every vertex (the
/// common case inside a `V_join` partition, where candidates are the keys of
/// `R2` matching the partition's `B` values) or a list per vertex (used for
/// invalid tuples, which may take any key).
#[derive(Clone, Debug)]
pub enum CandidateLists<'a> {
    /// Every vertex draws from the same list.
    Shared(&'a [Color]),
    /// Vertex `v` draws from `lists[v]`.
    PerVertex(&'a [Vec<Color>]),
}

impl CandidateLists<'_> {
    /// The candidate list for `v`.
    pub fn get(&self, v: VertexId) -> &[Color] {
        match self {
            CandidateLists::Shared(l) => l,
            CandidateLists::PerVertex(ls) => &ls[v as usize],
        }
    }
}

/// Runs largest-first list coloring, extending the partial `coloring`
/// in place. Returns the vertices that could not be colored (skipped),
/// in processing order.
///
/// Matches Algorithm 3: already-colored vertices are left untouched; each
/// uncolored vertex gets `min(L(v) \ forbidden)` or is skipped. Forbidden
/// colors come from the explicit edges, the clique groups' counts and the
/// window groups' ranges alike. An unsorted candidate list is sorted once
/// per call, so each vertex takes the first permitted candidate.
pub fn coloring_lf(
    g: &Hypergraph,
    coloring: &mut Coloring,
    candidates: &CandidateLists<'_>,
) -> Vec<VertexId> {
    assert_eq!(
        coloring.len(),
        g.n_vertices(),
        "coloring must cover exactly the graph's vertices"
    );
    let sorted = |list: &[Color]| {
        let mut list = list.to_vec();
        list.sort_unstable();
        list
    };
    let (shared, per_vertex);
    let candidates = match *candidates {
        CandidateLists::Shared(list) if !list.is_sorted() => {
            shared = sorted(list);
            CandidateLists::Shared(&shared)
        }
        CandidateLists::PerVertex(lists) if !lists.iter().all(|l| l.is_sorted()) => {
            per_vertex = lists.iter().map(|l| sorted(l)).collect::<Vec<_>>();
            CandidateLists::PerVertex(&per_vertex)
        }
        ref ascending => ascending.clone(),
    };
    let mut skipped = Vec::new();
    let order: Vec<VertexId> = g
        .vertices_by_degree_desc()
        .into_iter()
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    let mut forbidden = ForbiddenSet::new();
    let mut groups = GroupCounts::new(g, coloring);
    for v in order {
        forbidden.next_vertex();
        for &e in g.incident_edges(v) {
            if let Some(c) = lone_uncolored_color(g, coloring, e, v) {
                forbidden.mark(c);
            }
        }
        groups.forbid(g, v, &mut forbidden);
        forbid_window_colors(g, coloring, v, &mut forbidden);
        let choice = candidates
            .get(v)
            .iter()
            .copied()
            .find(|&c| !forbidden.is_marked(c));
        match choice {
            Some(c) => {
                coloring.set(v, c);
                groups.colored(g, v, c);
            }
            None => skipped.push(v),
        }
    }
    skipped
}

/// If every vertex of `e` other than `v` is colored and they all share one
/// color, returns that color (it is forbidden for `v`).
fn lone_uncolored_color(
    g: &Hypergraph,
    coloring: &Coloring,
    e: crate::graph::EdgeId,
    v: VertexId,
) -> Option<Color> {
    let mut color: Option<Color> = None;
    for &u in g.edge(e) {
        if u == v {
            continue;
        }
        match coloring.get(u) {
            None => return None,
            Some(c) => match color {
                None => color = Some(c),
                Some(prev) if prev != c => return None,
                Some(_) => {}
            },
        }
    }
    color
}

/// Marks the color of every colored vertex in `v`'s windows.
fn forbid_window_colors(
    g: &Hypergraph,
    coloring: &Coloring,
    v: VertexId,
    forbidden: &mut ForbiddenSet,
) {
    for window in g.windows_of(v) {
        for &u in window {
            if let Some(c) = coloring.get(u) {
                forbidden.mark(c);
            }
        }
    }
}

/// Colors the `skipped` (still uncolored) vertices with fresh colors
/// starting at `next_color`, reusing a fresh color across skips when doing
/// so keeps all edges non-monochromatic (the paper adds "the least number
/// of new colors").
/// Returns the fresh colors actually used, in allocation order.
///
/// Per vertex this is `O(degree + |fresh|)`: the forbidden colors are
/// collected in one pass over the incident edges, then the first
/// non-forbidden fresh color is taken (cliques of skipped vertices would
/// otherwise cost `O(|skipped|² · degree)`). Groups forbid through their
/// counts, which the fresh colors join as they are handed out.
pub fn color_skipped_with_fresh(
    g: &Hypergraph,
    coloring: &mut Coloring,
    skipped: &[VertexId],
    next_color: Color,
) -> Vec<Color> {
    if skipped.is_empty() {
        return Vec::new();
    }
    let mut fresh: Vec<Color> = Vec::new();
    let mut forbidden = ForbiddenSet::new();
    let mut groups = GroupCounts::new(g, coloring);
    for &v in skipped {
        debug_assert!(!coloring.is_colored(v), "skipped vertex {v} is colored");
        forbidden.next_vertex();
        for &e in g.incident_edges(v) {
            if let Some(c) = lone_uncolored_color(g, coloring, e, v) {
                forbidden.mark(c);
            }
        }
        groups.forbid(g, v, &mut forbidden);
        forbid_window_colors(g, coloring, v, &mut forbidden);
        let reuse = fresh.iter().copied().find(|&c| !forbidden.is_marked(c));
        let c = reuse.unwrap_or_else(|| {
            let c = next_color + fresh.len() as Color;
            fresh.push(c);
            c
        });
        coloring.set(v, c);
        groups.colored(g, v, c);
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::is_proper_complete;

    /// The running example's Chicago partition (Figure 7, solid edges among
    /// tuples 1..7): owners {1,2,3,4} pairwise conflicting, plus
    /// age-constrained spouse/child edges.
    fn chicago_graph() -> Hypergraph {
        let mut g = Hypergraph::new(7);
        // Vertices 0..3 are owners (pids 1..4): pairwise edges.
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                g.add_edge(&[i, j]);
            }
        }
        // Spouse (pid 5 = vertex 4) conflicts with old owners (75 vs 24).
        g.add_edge(&[0, 4]);
        g.add_edge(&[1, 4]);
        // Children (pids 6,7 = vertices 5,6) conflict with multi-lingual
        // owner age 25 (pid 4 = vertex 3): 10 < 25 − 12 is false, so only
        // with owner 75 multi-lingual (pid 2 = vertex 1): 10 < 75 − 50.
        g.add_edge(&[1, 5]);
        g.add_edge(&[1, 6]);
        g
    }

    #[test]
    fn greedy_colors_running_example_partition() {
        let g = chicago_graph();
        let mut c = Coloring::new(7);
        let colors: Vec<Color> = vec![0, 1, 2, 3]; // four Chicago households
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
        assert!(skipped.is_empty());
        assert!(is_proper_complete(&g, &c));
    }

    #[test]
    fn insufficient_colors_cause_skips_then_fresh_colors_fix_them() {
        // Triangle with a single candidate color: two vertices get skipped.
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1]);
        g.add_edge(&[1, 2]);
        g.add_edge(&[0, 2]);
        let mut c = Coloring::new(3);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&[7]));
        assert_eq!(skipped.len(), 2);
        let fresh = color_skipped_with_fresh(&g, &mut c, &skipped, 100);
        assert!(is_proper_complete(&g, &c));
        // A triangle needs two fresh colors beyond the single shared one?
        // No: colors {7, 100, 100} would be improper only on the edge
        // between the two fresh vertices — so a second fresh color is
        // needed exactly when the skipped vertices are adjacent.
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn fresh_colors_are_reused_when_skipped_vertices_are_independent() {
        // Path 0-1-2 with no candidate colors at all: all three skipped;
        // vertices 0 and 2 are not adjacent, so they can share one fresh
        // color.
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1]);
        g.add_edge(&[1, 2]);
        let mut c = Coloring::new(3);
        let empty: Vec<Color> = vec![];
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&empty));
        assert_eq!(skipped.len(), 3);
        let fresh = color_skipped_with_fresh(&g, &mut c, &skipped, 50);
        assert!(is_proper_complete(&g, &c));
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn respects_preexisting_partial_coloring() {
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 1]);
        let mut c = Coloring::new(2);
        c.set(0, 3);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&[3, 4]));
        assert!(skipped.is_empty());
        assert_eq!(c.get(0), Some(3)); // untouched
        assert_eq!(c.get(1), Some(4)); // 3 forbidden by the edge
    }

    #[test]
    fn takes_smallest_permitted_color() {
        let g = Hypergraph::new(1);
        let mut c = Coloring::new(1);
        coloring_lf(&g, &mut c, &CandidateLists::Shared(&[9, 2, 5]));
        assert_eq!(c.get(0), Some(2));
    }

    #[test]
    fn unsorted_per_vertex_lists_take_their_smallest_permitted_color() {
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 1]);
        let lists = vec![vec![5, 1], vec![9, 1, 4]];
        let mut c = Coloring::new(2);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::PerVertex(&lists));
        assert!(skipped.is_empty());
        assert_eq!((c.get(0), c.get(1)), (Some(1), Some(4)));
    }

    #[test]
    fn per_vertex_lists() {
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 1]);
        let lists = vec![vec![1], vec![1, 2]];
        let mut c = Coloring::new(2);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::PerVertex(&lists));
        assert!(skipped.is_empty());
        // Vertex 0 has degree == vertex 1; order ties broken by id, so 0
        // takes color 1 and 1 must take 2.
        assert_eq!(c.get(0), Some(1));
        assert_eq!(c.get(1), Some(2));
    }

    #[test]
    fn hyperedge_forbids_only_when_all_others_share_color() {
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1, 2]);
        let mut c = Coloring::new(3);
        c.set(0, 1);
        c.set(1, 2);
        // Vertex 2 may take 1 or 2: the 3-edge already has two colors.
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&[1]));
        assert!(skipped.is_empty());
        assert!(is_proper_complete(&g, &c));
    }

    #[test]
    fn window_ranges_forbid_their_colors() {
        // Owners 0 and 1 beside children 2 and 3: owner 0's window holds
        // child 2 only, owner 1's both children.
        let mut g = Hypergraph::new(4);
        let (owners, children) = (g.add_window_run(&[0, 1]), g.add_window_run(&[2, 3]));
        g.add_window_group(owners, &[(0, 1), (0, 2)], children, &[(0, 2), (1, 2)]);
        let mut c = Coloring::new(4);
        c.set(2, 0);
        c.set(3, 1);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&[0, 1, 2]));
        assert!(skipped.is_empty());
        // Owner 1 goes first (degree 2) and may take neither child's
        // color; owner 0 only loses child 2's.
        assert_eq!((c.get(0), c.get(1)), (Some(1), Some(2)));
        assert!(is_proper_complete(&g, &c));
        // With no candidate left, the owners share one fresh color: no
        // window joins them.
        let mut c = Coloring::new(4);
        c.set(2, 0);
        c.set(3, 1);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&[0, 1]));
        assert_eq!(skipped, [1]);
        assert_eq!(color_skipped_with_fresh(&g, &mut c, &skipped, 5), [5]);
        assert_eq!((c.get(0), c.get(1)), (Some(1), Some(5)));
    }

    #[test]
    fn paper_example_5_3_coloring() {
        // Example 5.3: the full conflict graph over all 9 tuples (dashed
        // edges included) with candidate colors 1..6. The paper reports the
        // assignment c = [2,1,3,4,3,2,2,5,6] under its ordering; we verify
        // that our deterministic order produces *a* proper coloring using
        // only the six candidates.
        let mut g = Hypergraph::new(9);
        // Owners: pids 1,2,3,4,8,9 → vertices 0,1,2,3,7,8 pairwise.
        let owners = [0u32, 1, 2, 3, 7, 8];
        for (i, &a) in owners.iter().enumerate() {
            for &b in &owners[i + 1..] {
                g.add_edge(&[a, b]);
            }
        }
        // Spouse pid5 (v4) with owners aged 75 (v0, v1).
        g.add_edge(&[0, 4]);
        g.add_edge(&[1, 4]);
        // Children pid6,7 (v5, v6) with multi-lingual owner 75 (v1).
        g.add_edge(&[1, 5]);
        g.add_edge(&[1, 6]);
        let mut c = Coloring::new(9);
        let colors: Vec<Color> = (1..=6).collect();
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
        assert!(skipped.is_empty());
        assert!(is_proper_complete(&g, &c));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::{edge_is_monochromatic, Hypergraph};
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = Hypergraph> {
        (
            2usize..12,
            proptest::collection::vec((0u32..12, 0u32..12), 0..30),
        )
            .prop_map(|(n, pairs)| {
                let mut g = Hypergraph::new(n);
                for (a, b) in pairs {
                    let (a, b) = (a % n as u32, b % n as u32);
                    g.add_edge(&[a, b]);
                }
                g
            })
    }

    /// Two disjoint runs of valued vertices: members of `a` and `b` in
    /// ascending value, each side's windows into the other (`b`'s value
    /// minus `a`'s in `lo ..= hi`), and the pairs they stand for.
    #[allow(clippy::type_complexity)]
    fn window_group(
        n: usize,
        a: &[(u32, i64)],
        b: &[(u32, i64)],
        lo: i64,
        hi: i64,
    ) -> (
        Vec<u32>,
        Vec<(u32, u32)>,
        Vec<u32>,
        Vec<(u32, u32)>,
        Vec<(u32, u32)>,
    ) {
        let mut seen: Vec<u32> = Vec::new();
        let mut side = |raw: &[(u32, i64)]| {
            let mut run: Vec<(i64, u32)> = Vec::new();
            for &(v, x) in raw {
                let v = v % n as u32;
                if !seen.contains(&v) {
                    seen.push(v);
                    run.push((x, v));
                }
            }
            run.sort_unstable();
            run
        };
        let (ra, rb) = (side(a), side(b));
        let range = |run: &[(i64, u32)], from: i64, to: i64| {
            let lo = run.partition_point(|&(x, _)| x < from) as u32;
            let hi = run.partition_point(|&(x, _)| x <= to) as u32;
            (lo, hi.max(lo))
        };
        let aw: Vec<(u32, u32)> = ra
            .iter()
            .map(|&(x, _)| range(&rb, x + lo, x + hi))
            .collect();
        let bw: Vec<(u32, u32)> = rb
            .iter()
            .map(|&(y, _)| range(&ra, y - hi, y - lo))
            .collect();
        let mut pairs = Vec::new();
        for (&(_, u), &(l, h)) in ra.iter().zip(&aw) {
            for &(_, v) in &rb[l as usize..h as usize] {
                pairs.push((u.min(v), u.max(v)));
            }
        }
        let members = |run: &[(i64, u32)]| run.iter().map(|&(_, v)| v).collect::<Vec<_>>();
        (members(&ra), aw, members(&rb), bw, pairs)
    }

    /// Random window groups, clique groups with `k` in 2..=4 and explicit
    /// edges, drawn so that no implicit edge duplicates an explicit edge or
    /// another group's edge (a window group meeting an earlier one's pairs
    /// is dropped, so is a same-`k` group sharing `k` members with an
    /// earlier one or a pair group holding a window pair, and so is an
    /// explicit edge inside a group of its size or on a window pair).
    fn arb_grouped_graph() -> impl Strategy<Value = Hypergraph> {
        let valued = || proptest::collection::vec((0u32..13, 0i64..6), 1..6);
        (
            4usize..13,
            proptest::collection::vec((2usize..5, proptest::collection::vec(0u32..13, 2..9)), 0..5),
            proptest::collection::vec(proptest::collection::vec(0u32..13, 2..5), 0..16),
            proptest::collection::vec((valued(), valued(), -3i64..3, 0i64..4), 0..3),
        )
            .prop_map(|(n, groups, edges, windows)| {
                let mut g = Hypergraph::new(n);
                let mut window_pairs: Vec<(u32, u32)> = Vec::new();
                for (a, b, lo, width) in windows {
                    let (a, aw, b, bw, pairs) = window_group(n, &a, &b, lo, lo + width);
                    if pairs.iter().any(|p| window_pairs.contains(p)) {
                        continue;
                    }
                    let (a, b) = (g.add_window_run(&a), g.add_window_run(&b));
                    g.add_window_group(a, &aw, b, &bw);
                    window_pairs.extend(pairs);
                }
                let on_window = |e: &[u32]| e.len() == 2 && window_pairs.contains(&(e[0], e[1]));
                let mut kept: Vec<(usize, Vec<u32>)> = Vec::new();
                for (k, members) in groups {
                    let mut members: Vec<u32> = members.into_iter().map(|v| v % n as u32).collect();
                    members.sort_unstable();
                    members.dedup();
                    let overlaps = kept.iter().any(|(k2, m2)| {
                        *k2 == k && members.iter().filter(|v| m2.contains(v)).count() >= k
                    }) || (k == 2
                        && members
                            .iter()
                            .any(|&u| members.iter().any(|&v| on_window(&[u, v]))));
                    if members.len() < k || overlaps {
                        continue;
                    }
                    g.add_clique_group(k, &members);
                    kept.push((k, members));
                }
                for e in edges {
                    let mut e: Vec<u32> = e.into_iter().map(|v| v % n as u32).collect();
                    e.sort_unstable();
                    e.dedup();
                    let inside = kept
                        .iter()
                        .any(|(k, m)| *k == e.len() && e.iter().all(|v| m.contains(v)));
                    if !inside && !on_window(&e) {
                        g.add_edge(&e);
                    }
                }
                g
            })
    }

    proptest! {
        /// Clique and window groups are their expansion: the greedy pass,
        /// fresh-color completion, degrees, the largest-first order,
        /// properness and the exact search all agree between a grouped
        /// graph and the same graph with every group edge stored
        /// explicitly.
        #[test]
        fn group_coloring_matches_expanded_coloring(
            g in arb_grouped_graph(),
            n_colors in 0u32..4,
            pre in proptest::collection::vec(proptest::option::of(0u32..4), 13),
            complete in proptest::collection::vec(0u32..3, 13),
        ) {
            let e = g.expanded();
            let n = g.n_vertices();
            prop_assert_eq!((e.n_groups(), e.n_window_groups()), (0, 0));
            prop_assert_eq!(e.n_edges() as u64, g.n_edges() as u64 + g.n_implicit_edges());
            for v in 0..n as VertexId {
                prop_assert_eq!(g.degree(v), e.degree(v));
            }
            prop_assert_eq!(g.vertices_by_degree_desc(), e.vertices_by_degree_desc());

            let colors: Vec<Color> = (0..n_colors).collect();
            let mut partial = Coloring::new(n);
            for (v, c) in pre.iter().take(n).enumerate() {
                if let Some(c) = c {
                    partial.set(v as VertexId, *c);
                }
            }
            let (mut cg, mut ce) = (partial.clone(), partial.clone());
            let sg = coloring_lf(&g, &mut cg, &CandidateLists::Shared(&colors));
            let se = coloring_lf(&e, &mut ce, &CandidateLists::Shared(&colors));
            prop_assert_eq!(&sg, &se);
            prop_assert_eq!(&cg, &ce);
            let fg = color_skipped_with_fresh(&g, &mut cg, &sg, 100);
            let fe = color_skipped_with_fresh(&e, &mut ce, &se, 100);
            prop_assert_eq!(fg, fe);
            prop_assert_eq!(&cg, &ce);

            let mut random = Coloring::new(n);
            for (v, &c) in complete.iter().take(n).enumerate() {
                random.set(v as VertexId, c);
            }
            prop_assert_eq!(
                crate::graph::is_proper_complete(&g, &random),
                crate::graph::is_proper_complete(&e, &random)
            );
            prop_assert_eq!(
                crate::graph::is_proper_complete(&g, &cg),
                crate::graph::is_proper_complete(&e, &ce)
            );

            let shared = CandidateLists::Shared(&colors);
            prop_assert_eq!(
                crate::exact::exact_list_coloring(&g, &partial, &shared, 20_000),
                crate::exact::exact_list_coloring(&e, &partial, &shared, 20_000)
            );
        }

        /// Whatever the greedy does, it never *creates* a monochromatic
        /// edge: every fully-colored edge in the output is non-mono, and
        /// after fresh-color completion the coloring is proper.
        #[test]
        fn greedy_plus_fresh_is_always_proper(g in arb_graph(), n_colors in 0u32..4) {
            let colors: Vec<Color> = (0..n_colors).collect();
            let mut c = Coloring::new(g.n_vertices());
            let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
            for e in 0..g.n_edges() as u32 {
                prop_assert!(!edge_is_monochromatic(&g, &c, e));
            }
            color_skipped_with_fresh(&g, &mut c, &skipped, 1000);
            prop_assert!(crate::graph::is_proper_complete(&g, &c));
        }

        /// Greedy never skips when the shared candidate list is larger than
        /// the maximum degree (classic greedy-coloring guarantee; edges here
        /// are size-2).
        #[test]
        fn no_skips_with_enough_colors(g in arb_graph()) {
            let max_deg = (0..g.n_vertices() as u32).map(|v| g.degree(v)).max().unwrap_or(0);
            let colors: Vec<Color> = (0..=max_deg as u32).collect();
            let mut c = Coloring::new(g.n_vertices());
            let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
            prop_assert!(skipped.is_empty());
        }
    }
}
