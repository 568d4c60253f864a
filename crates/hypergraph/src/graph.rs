//! Conflict hypergraphs (Definition 5.1 of the paper).
//!
//! Vertices are the tuples of `R1`; a hyperedge `{t1..tk}` records that a
//! foreign-key denial constraint forbids those tuples from all receiving the
//! same FK value. A *proper* coloring — at least two distinct colors inside
//! every edge — therefore corresponds exactly to a DC-satisfying FK
//! assignment (Proposition 5.2).
//!
//! Besides explicit edges, a graph holds two kinds of implicit edges:
//!
//! - *Clique groups*: a group of `n` members with arity `k` stands for
//!   all `C(n, k)` of its `k`-subsets as edges without storing them.
//!   Capacity DCs ("no `k` rows of one class and one key value share an
//!   FK") emit groups instead of enumerating their `k`-subsets.
//! - *Window groups*: two disjoint runs of vertices, each member of one
//!   run joined by an edge to a contiguous range of the other run. Pair
//!   DCs whose violations are one window of a sorted column ("a child at
//!   most 12 years younger than the owner") emit the ranges instead of
//!   the pairs.
//!
//! Degrees, the coloring and properness read both directly, and
//! [`Hypergraph::expanded`] materializes them.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Vertex index.
pub type VertexId = u32;
/// Edge index.
pub type EdgeId = u32;
/// A color (stands for one candidate FK value).
pub type Color = u32;

/// Identity hasher for the dedup map: edge fingerprints are already
/// splitmix64-finalized, so feeding them through SipHash again only burns
/// cycles — tens of millions of times on DC-dense conflict graphs.
#[derive(Clone, Copy, Debug, Default)]
struct FingerprintHasher(u64);

impl std::hash::Hasher for FingerprintHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint keys hash via write_u64");
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type FingerprintState = std::hash::BuildHasherDefault<FingerprintHasher>;

/// Incidence in CSR form: vertex `v`'s incident edges (or groups) live at
/// `edges[offsets[v] .. offsets[v + 1]]`, ascending.
#[derive(Clone, Debug)]
struct IncidenceCsr {
    offsets: Vec<u32>,
    edges: Vec<EdgeId>,
}

/// A hypergraph with incidence lists and edge deduplication.
///
/// Edges live in one flat CSR-style buffer (`edge_offsets` delimits edge
/// `e`'s vertices inside `edge_vertices`) instead of one `Box<[VertexId]>`
/// per edge, so DC-dense conflict graphs cost two amortized `Vec` pushes
/// per edge rather than two heap allocations (the key + the stored edge).
/// Duplicate detection hashes the sorted vertex list to a 64-bit
/// fingerprint; fingerprint collisions between *distinct* edges are
/// resolved exactly by comparing the stored vertex slices, so dedup
/// semantics are identical to the old exact-key set.
///
/// Incidence lists are **deferred**: nothing is spent per edge at insertion
/// time; the first degree/incidence query materializes the whole CSR in two
/// linear passes with one exact-size allocation (the conflict pipeline adds
/// every edge before the coloring pass reads any incidence, so per-edge
/// incidence pushes — two amortized, reallocating `Vec` appends per edge —
/// were pure overhead). Adding an edge afterwards just drops the cache; the
/// next query rebuilds it.
///
/// Clique groups and window groups (see the module docs) live in flat
/// buffers of their own, each with deferred per-vertex membership lists.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    n: usize,
    /// Edge `e` spans `edge_vertices[edge_offsets[e] .. edge_offsets[e+1]]`.
    edge_offsets: Vec<u32>,
    edge_vertices: Vec<VertexId>,
    incidence: OnceLock<IncidenceCsr>,
    /// Group `i` has arity `group_k[i]` and spans
    /// `group_vertices[group_offsets[i] .. group_offsets[i+1]]`.
    group_k: Vec<u32>,
    group_offsets: Vec<u32>,
    group_vertices: Vec<VertexId>,
    group_incidence: OnceLock<IncidenceCsr>,
    /// Window groups: `window_runs` holds the runs back to back, and
    /// window slot `s` is vertex `window_slot_vertex[s]` joined to every
    /// vertex of `window_runs[lo..hi]`, `(lo, hi)` =
    /// `window_slot_range[s]`. Only members with a non-empty window get a
    /// slot.
    window_runs: Vec<VertexId>,
    window_slot_vertex: Vec<VertexId>,
    window_slot_range: Vec<(u32, u32)>,
    window_incidence: OnceLock<IncidenceCsr>,
    n_window_groups: usize,
    /// Edges the window groups stand for.
    window_edges: u64,
    /// Fingerprint → first edge with that fingerprint. Collisions between
    /// distinct edges overflow into `seen_overflow` (checked linearly —
    /// effectively never populated).
    seen: HashMap<u64, EdgeId, FingerprintState>,
    seen_overflow: Vec<(u64, EdgeId)>,
    /// Scratch buffer for sorting incoming edges without allocating.
    scratch: Vec<VertexId>,
}

/// 64-bit fingerprint of a sorted vertex list (FNV-1a over the ids plus a
/// final splitmix64 finalizer for avalanche).
fn fingerprint(vs: &[VertexId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in vs {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^= vs.len() as u64;
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// `C(n, k)`, saturating at `u64::MAX`.
fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut c: u128 = 1;
    for i in 1..=u128::from(k) {
        // `c · (n − k + i)` is divisible by `i`: it is `i · C(n − k + i, i)`.
        c = c * (u128::from(n - k) + i) / i;
        if c > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    c as u64
}

/// Builds a CSR over `n` vertices from a flat member buffer: entry `p`
/// names vertex `members[p]` and belongs to item `item_of(p)` (an edge, a
/// group or a window slot). `item_of` is called once per entry with `p`
/// ascending and must not decrease, so a counting pass, a prefix sum and
/// one fill pass give each vertex its items in ascending order.
fn build_csr(
    n: usize,
    members: &[VertexId],
    mut item_of: impl FnMut(usize) -> u32,
) -> IncidenceCsr {
    let mut vertex_offsets = vec![0u32; n + 1];
    for &v in members {
        vertex_offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        vertex_offsets[i + 1] += vertex_offsets[i];
    }
    let mut next = vertex_offsets.clone();
    let mut items = vec![0u32; members.len()];
    for (p, &v) in members.iter().enumerate() {
        items[next[v as usize] as usize] = item_of(p);
        next[v as usize] += 1;
    }
    IncidenceCsr {
        offsets: vertex_offsets,
        edges: items,
    }
}

/// `item_of` for [`build_csr`] over items delimited by `offsets` (item `i`
/// spans entries `offsets[i] .. offsets[i + 1]`): a cursor that walks the
/// offsets as the entries ascend.
fn item_at(offsets: &[u32]) -> impl FnMut(usize) -> u32 + '_ {
    let mut i = 0;
    move |p| {
        while offsets[i + 1] as usize <= p {
            i += 1;
        }
        i as u32
    }
}

impl Default for Hypergraph {
    /// The empty hypergraph. A derived `Default` would leave
    /// `edge_offsets` without its leading `0` sentinel and break
    /// `n_edges()`; go through [`Hypergraph::new`] instead.
    fn default() -> Hypergraph {
        Hypergraph::new(0)
    }
}

impl Hypergraph {
    /// A hypergraph on `n` isolated vertices.
    pub fn new(n: usize) -> Hypergraph {
        Hypergraph {
            n,
            edge_offsets: vec![0],
            edge_vertices: Vec::new(),
            incidence: OnceLock::new(),
            group_k: Vec::new(),
            group_offsets: vec![0],
            group_vertices: Vec::new(),
            group_incidence: OnceLock::new(),
            window_runs: Vec::new(),
            window_slot_vertex: Vec::new(),
            window_slot_range: Vec::new(),
            window_incidence: OnceLock::new(),
            n_window_groups: 0,
            window_edges: 0,
            seen: HashMap::default(),
            seen_overflow: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of (distinct) explicit edges; clique and window groups are
    /// counted by [`Hypergraph::n_implicit_edges`].
    pub fn n_edges(&self) -> usize {
        self.edge_offsets.len() - 1
    }

    #[inline]
    fn edge_slice(&self, e: EdgeId) -> &[VertexId] {
        let lo = self.edge_offsets[e as usize] as usize;
        let hi = self.edge_offsets[e as usize + 1] as usize;
        &self.edge_vertices[lo..hi]
    }

    /// Adds an edge over `vertices`. Vertices are sorted and deduplicated;
    /// degenerate edges (fewer than 2 distinct vertices) and duplicates of
    /// existing edges are ignored and return `None`.
    ///
    /// # Panics
    /// Panics if a vertex id is out of range.
    pub fn add_edge(&mut self, vertices: &[VertexId]) -> Option<EdgeId> {
        let mut vs = std::mem::take(&mut self.scratch);
        vs.clear();
        vs.extend_from_slice(vertices);
        vs.sort_unstable();
        vs.dedup();
        let id = self.add_sorted_edge_inner(&vs);
        self.scratch = vs;
        id
    }

    /// [`Hypergraph::add_edge`] for vertices already sorted ascending with
    /// no duplicates (the conflict builder emits edges in canonical order).
    ///
    /// # Panics
    /// Panics in debug builds if `vertices` is not strictly ascending, and
    /// in all builds if a vertex id is out of range.
    pub fn add_sorted_edge(&mut self, vertices: &[VertexId]) -> Option<EdgeId> {
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "add_sorted_edge requires strictly ascending vertices"
        );
        self.add_sorted_edge_inner(vertices)
    }

    fn add_sorted_edge_inner(&mut self, vs: &[VertexId]) -> Option<EdgeId> {
        if vs.len() < 2 {
            return None;
        }
        for &v in vs {
            assert!(
                (v as usize) < self.n,
                "vertex {v} out of range (n = {})",
                self.n
            );
        }
        let fp = fingerprint(vs);
        if let Some(&first) = self.seen.get(&fp) {
            if self.edge_slice(first) == vs {
                return None;
            }
            // Genuine 64-bit collision between distinct edges: check (and
            // store into) the exact overflow list.
            if self
                .seen_overflow
                .iter()
                .any(|&(f, e)| f == fp && self.edge_slice(e) == vs)
            {
                return None;
            }
        }
        let id = self.n_edges() as EdgeId;
        match self.seen.entry(fp) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(_) => self.seen_overflow.push((fp, id)),
        }
        self.edge_vertices.extend_from_slice(vs);
        self.edge_offsets.push(self.edge_vertices.len() as u32);
        self.incidence.take();
        Some(id)
    }

    /// Adds an edge the **caller guarantees** is sorted ascending, has at
    /// least two distinct vertices, and duplicates no edge in the graph —
    /// skipping the fingerprint/dedup bookkeeping entirely, so the cost per
    /// edge drops to the two CSR pushes. The conflict builder writes every
    /// explicit pair this way: each pair belongs to one DC, which writes it
    /// once.
    ///
    /// Because the edge is *not* entered into the dedup table, a later
    /// [`add_edge`](Hypergraph::add_edge)/[`add_sorted_edge`](Hypergraph::add_sorted_edge)
    /// of the same vertex set would store a duplicate — callers mixing
    /// checked and unchecked insertion must keep the two apart themselves
    /// (the conflict builder checks only hyperedges of three or more
    /// vertices).
    ///
    /// # Panics
    /// Panics in debug builds if `vertices` is not strictly ascending or
    /// has fewer than two vertices, and in all builds if a vertex id is
    /// out of range.
    #[inline]
    pub fn add_sorted_edge_unchecked(&mut self, vertices: &[VertexId]) -> EdgeId {
        debug_assert!(
            vertices.len() >= 2 && vertices.windows(2).all(|w| w[0] < w[1]),
            "add_sorted_edge_unchecked requires ≥2 strictly ascending vertices"
        );
        for &v in vertices {
            assert!(
                (v as usize) < self.n,
                "vertex {v} out of range (n = {})",
                self.n
            );
        }
        let id = self.n_edges() as EdgeId;
        self.edge_vertices.extend_from_slice(vertices);
        self.edge_offsets.push(self.edge_vertices.len() as u32);
        self.incidence.take();
        id
    }

    /// The vertices of edge `e`, sorted ascending.
    pub fn edge(&self, e: EdgeId) -> &[VertexId] {
        self.edge_slice(e)
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = &[VertexId]> {
        (0..self.n_edges() as EdgeId).map(|e| self.edge_slice(e))
    }

    /// The incidence CSR, built on first use (see [`build_csr`]).
    fn incidence(&self) -> &IncidenceCsr {
        self.incidence
            .get_or_init(|| build_csr(self.n, &self.edge_vertices, item_at(&self.edge_offsets)))
    }

    /// Per-vertex group membership, built on first use.
    fn group_incidence(&self) -> &IncidenceCsr {
        self.group_incidence
            .get_or_init(|| build_csr(self.n, &self.group_vertices, item_at(&self.group_offsets)))
    }

    /// Per-vertex window slots, built on first use.
    fn window_incidence(&self) -> &IncidenceCsr {
        self.window_incidence
            .get_or_init(|| build_csr(self.n, &self.window_slot_vertex, |s| s as u32))
    }

    /// Adds a clique group: every `k`-subset of `members` is an edge of the
    /// graph, though none is stored. The **caller guarantees** that
    /// `members` is sorted ascending and that no `k`-subset duplicates an
    /// explicit edge or a subset of another group — the contract of
    /// [`add_sorted_edge_unchecked`](Hypergraph::add_sorted_edge_unchecked),
    /// since a duplicate would count twice in every degree.
    ///
    /// # Panics
    /// Panics if `k < 2`, if there are fewer than `k` members or a member
    /// is out of range, and in debug builds if `members` is not strictly
    /// ascending.
    pub fn add_clique_group(&mut self, k: usize, members: &[VertexId]) {
        assert!(
            k >= 2 && members.len() >= k,
            "a clique group needs k ≥ 2 and at least k members (k = {k}, {} members)",
            members.len()
        );
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "add_clique_group requires strictly ascending members"
        );
        for &v in members {
            assert!(
                (v as usize) < self.n,
                "vertex {v} out of range (n = {})",
                self.n
            );
        }
        self.group_k.push(k as u32);
        self.group_vertices.extend_from_slice(members);
        self.group_offsets.push(self.group_vertices.len() as u32);
        self.group_incidence.take();
    }

    /// Number of clique groups.
    pub fn n_groups(&self) -> usize {
        self.group_k.len()
    }

    /// Group `i`: its arity `k` and its members, ascending.
    pub fn group(&self, i: u32) -> (usize, &[VertexId]) {
        let lo = self.group_offsets[i as usize] as usize;
        let hi = self.group_offsets[i as usize + 1] as usize;
        (
            self.group_k[i as usize] as usize,
            &self.group_vertices[lo..hi],
        )
    }

    /// All groups as `(k, members)`.
    pub fn groups(&self) -> impl Iterator<Item = (usize, &[VertexId])> {
        (0..self.n_groups() as u32).map(|i| self.group(i))
    }

    /// Ids of the groups containing `v`, ascending.
    pub(crate) fn groups_of(&self, v: VertexId) -> &[u32] {
        let inc = self.group_incidence();
        let lo = inc.offsets[v as usize] as usize;
        let hi = inc.offsets[v as usize + 1] as usize;
        &inc.edges[lo..hi]
    }

    /// Adds a run of vertices for window groups to range over
    /// ([`add_window_group`](Hypergraph::add_window_group)). One run may
    /// serve any number of groups.
    ///
    /// # Panics
    /// Panics if a vertex is out of range.
    pub fn add_window_run(&mut self, members: &[VertexId]) -> WindowRun {
        for &v in members {
            assert!(
                (v as usize) < self.n,
                "vertex {v} out of range (n = {})",
                self.n
            );
        }
        let start = self.window_runs.len() as u32;
        self.window_runs.extend_from_slice(members);
        WindowRun {
            start,
            len: members.len() as u32,
        }
    }

    /// Adds a window group over two runs: member `i` of `a` is joined by
    /// an edge to every member of `b` at positions `lo..hi`, `(lo, hi)` =
    /// `a_windows[i]`, and member `j` of `b` to the members of `a` at
    /// `b_windows[j]`, though none of these edges is stored. The **caller
    /// guarantees** that the two runs share no vertex, that the windows
    /// agree (`b`'s member `j` is in `a`'s window `i` exactly when `a`'s
    /// member `i` is in `b`'s window `j`) and that no edge duplicates an
    /// explicit edge or another group's edge — the contract of
    /// [`add_clique_group`](Hypergraph::add_clique_group).
    ///
    /// # Panics
    /// Panics if a run and its windows differ in length, or if a window is
    /// reversed or runs past the other run; in debug builds also if the
    /// windows disagree.
    pub fn add_window_group(
        &mut self,
        a: WindowRun,
        a_windows: &[(u32, u32)],
        b: WindowRun,
        b_windows: &[(u32, u32)],
    ) {
        assert!(
            a.len as usize == a_windows.len() && b.len as usize == b_windows.len(),
            "a window group needs one window per run member"
        );
        // Each edge is counted once, from its `a` end.
        for (run, windows, other, counted) in [(a, a_windows, b, true), (b, b_windows, a, false)] {
            let members = &self.window_runs[run.start as usize..(run.start + run.len) as usize];
            for (&v, &(lo, hi)) in members.iter().zip(windows) {
                assert!(
                    lo <= hi && hi <= other.len,
                    "window {lo}..{hi} outside a run of {}",
                    other.len
                );
                if lo < hi {
                    self.window_slot_vertex.push(v);
                    self.window_slot_range
                        .push((other.start + lo, other.start + hi));
                    if counted {
                        self.window_edges += u64::from(hi - lo);
                    }
                }
            }
        }
        debug_assert!(
            a_windows.iter().enumerate().all(|(i, &(lo, hi))| {
                (lo..hi).all(|j| {
                    (b_windows[j as usize].0..b_windows[j as usize].1).contains(&(i as u32))
                })
            }) && a_windows.iter().map(|&(lo, hi)| hi - lo).sum::<u32>()
                == b_windows.iter().map(|&(lo, hi)| hi - lo).sum::<u32>(),
            "window ranges disagree between the runs"
        );
        self.n_window_groups += 1;
        self.window_incidence.take();
    }

    /// Number of window groups.
    pub fn n_window_groups(&self) -> usize {
        self.n_window_groups
    }

    /// `v`'s windows: per window slot of `v`, the run slice it is joined
    /// to.
    pub(crate) fn windows_of(&self, v: VertexId) -> impl Iterator<Item = &[VertexId]> + '_ {
        let inc = self.window_incidence();
        let slots =
            &inc.edges[inc.offsets[v as usize] as usize..inc.offsets[v as usize + 1] as usize];
        slots.iter().map(move |&s| {
            let (lo, hi) = self.window_slot_range[s as usize];
            &self.window_runs[lo as usize..hi as usize]
        })
    }

    /// Number of edges the clique and window groups stand for:
    /// `Σ C(|G|, k)` plus every window's length on one side, saturating.
    pub fn n_implicit_edges(&self) -> u64 {
        self.groups()
            .fold(self.window_edges, |total, (k, members)| {
                total.saturating_add(binomial(members.len() as u64, k as u64))
            })
    }

    /// The same hypergraph with every clique group's `k`-subsets and every
    /// window group's pairs stored as explicit edges (through the
    /// deduplicating insert, so on a graph that keeps the groups' contract
    /// `n_edges()` of the result is `n_edges() + n_implicit_edges()`).
    /// Exact coloring and the tests read this form.
    pub fn expanded(&self) -> Hypergraph {
        let mut out = Hypergraph::new(self.n);
        for e in self.edges() {
            out.add_sorted_edge(e);
        }
        let mut subset: Vec<VertexId> = Vec::new();
        let mut pick: Vec<usize> = Vec::new();
        for (k, members) in self.groups() {
            // Lexicographic walk over the `k`-combinations of positions.
            pick.clear();
            pick.extend(0..k);
            loop {
                subset.clear();
                subset.extend(pick.iter().map(|&i| members[i]));
                out.add_sorted_edge(&subset);
                let Some(i) = (0..k).rev().find(|&i| pick[i] < members.len() - k + i) else {
                    break;
                };
                pick[i] += 1;
                for j in i + 1..k {
                    pick[j] = pick[j - 1] + 1;
                }
            }
        }
        for (&v, &(lo, hi)) in self.window_slot_vertex.iter().zip(&self.window_slot_range) {
            for &u in &self.window_runs[lo as usize..hi as usize] {
                out.add_sorted_edge(&[v.min(u), v.max(u)]);
            }
        }
        out
    }

    /// Ids of edges incident to `v`, ascending.
    pub fn incident_edges(&self, v: VertexId) -> &[EdgeId] {
        let inc = self.incidence();
        let lo = inc.offsets[v as usize] as usize;
        let hi = inc.offsets[v as usize + 1] as usize;
        &inc.edges[lo..hi]
    }

    /// Degree of `v`: its explicit edges, plus, for each group of `n`
    /// members and arity `k` it belongs to, the `C(n − 1, k − 1)` subsets
    /// holding it (saturating), plus the lengths of its windows.
    pub fn degree(&self, v: VertexId) -> u64 {
        let inc = self.incidence();
        let explicit = u64::from(inc.offsets[v as usize + 1] - inc.offsets[v as usize]);
        let grouped = self.groups_of(v).iter().fold(explicit, |d, &i| {
            let (k, members) = self.group(i);
            d.saturating_add(binomial(members.len() as u64 - 1, k as u64 - 1))
        });
        let win = self.window_incidence();
        win.edges[win.offsets[v as usize] as usize..win.offsets[v as usize + 1] as usize]
            .iter()
            .fold(grouped, |d, &s| {
                let (lo, hi) = self.window_slot_range[s as usize];
                d.saturating_add(u64::from(hi - lo))
            })
    }

    /// Vertices sorted by non-increasing [`degree`](Hypergraph::degree)
    /// (ties by vertex id, for determinism) — the processing order of
    /// Algorithm 3. Degrees are read once into a flat key vector before the
    /// sort, so the comparator does not chase the incidence lists
    /// `O(n log n)` times.
    pub fn vertices_by_degree_desc(&self) -> Vec<VertexId> {
        let inc = self.incidence();
        let mut degrees: Vec<u64> = inc
            .offsets
            .windows(2)
            .map(|w| u64::from(w[1] - w[0]))
            .collect();
        for (k, members) in self.groups() {
            let d = binomial(members.len() as u64 - 1, k as u64 - 1);
            for &v in members {
                degrees[v as usize] = degrees[v as usize].saturating_add(d);
            }
        }
        for (&v, &(lo, hi)) in self.window_slot_vertex.iter().zip(&self.window_slot_range) {
            degrees[v as usize] = degrees[v as usize].saturating_add(u64::from(hi - lo));
        }
        let mut vs: Vec<VertexId> = (0..self.n as VertexId).collect();
        vs.sort_by(|&a, &b| {
            degrees[b as usize]
                .cmp(&degrees[a as usize])
                .then(a.cmp(&b))
        });
        vs
    }
}

/// A run of vertices window groups range over
/// ([`Hypergraph::add_window_run`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowRun {
    start: u32,
    len: u32,
}

/// A (partial) assignment of colors to vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<Option<Color>>,
}

impl Coloring {
    /// An empty coloring on `n` vertices.
    pub fn new(n: usize) -> Coloring {
        Coloring {
            colors: vec![None; n],
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// `true` if there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Color of `v`, if assigned.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<Color> {
        self.colors[v as usize]
    }

    /// Assigns a color.
    pub fn set(&mut self, v: VertexId, c: Color) {
        self.colors[v as usize] = Some(c);
    }

    /// Removes the color of `v` (used by the exact solver on backtrack).
    pub fn unset(&mut self, v: VertexId) {
        self.colors[v as usize] = None;
    }

    /// `true` if `v` has a color.
    pub fn is_colored(&self, v: VertexId) -> bool {
        self.colors[v as usize].is_some()
    }

    /// Number of colored vertices.
    pub fn n_colored(&self) -> usize {
        self.colors.iter().filter(|c| c.is_some()).count()
    }

    /// `true` if every vertex has a color.
    pub fn is_complete(&self) -> bool {
        self.colors.iter().all(Option::is_some)
    }

    /// Iterates over `(vertex, color)` pairs for colored vertices.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Color)> + '_ {
        self.colors
            .iter()
            .enumerate()
            .filter_map(|(v, c)| c.map(|c| (v as VertexId, c)))
    }
}

/// `true` if edge `e` is *monochromatic under the partial coloring*: every
/// vertex is colored and they all share one color. Such an edge is a DC
/// violation.
pub fn edge_is_monochromatic(g: &Hypergraph, coloring: &Coloring, e: EdgeId) -> bool {
    let vs = g.edge(e);
    let Some(first) = coloring.get(vs[0]) else {
        return false;
    };
    vs[1..].iter().all(|&v| coloring.get(v) == Some(first))
}

/// `true` if the coloring is complete and no edge is monochromatic — i.e. a
/// proper coloring in the sense of Proposition 5.2. A clique group of
/// arity `k` is improper exactly when `k` of its members share a color, and
/// a window group when a member shares one with a vertex of its range.
pub fn is_proper_complete(g: &Hypergraph, coloring: &Coloring) -> bool {
    if !coloring.is_complete()
        || (0..g.n_edges() as EdgeId).any(|e| edge_is_monochromatic(g, coloring, e))
    {
        return false;
    }
    let mut colors: Vec<Color> = Vec::new();
    let groups_proper = g.groups().all(|(k, members)| {
        colors.clear();
        colors.extend(members.iter().filter_map(|&v| coloring.get(v)));
        colors.sort_unstable();
        colors.chunk_by(|a, b| a == b).all(|run| run.len() < k)
    });
    groups_proper
        && g.window_slot_vertex
            .iter()
            .zip(&g.window_slot_range)
            .all(|(&v, &(lo, hi))| {
                g.window_runs[lo as usize..hi as usize]
                    .iter()
                    .all(|&u| coloring.get(u) != coloring.get(v))
            })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_dedups_and_sorts() {
        let mut g = Hypergraph::new(4);
        assert_eq!(g.add_edge(&[2, 0]), Some(0));
        assert_eq!(g.edge(0), &[0, 2]);
        // Same edge in different order: duplicate.
        assert_eq!(g.add_edge(&[0, 2]), None);
        // Degenerate edges rejected.
        assert_eq!(g.add_edge(&[1]), None);
        assert_eq!(g.add_edge(&[1, 1]), None);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 5]);
    }

    #[test]
    fn degrees_and_order() {
        let mut g = Hypergraph::new(4);
        g.add_edge(&[0, 1]);
        g.add_edge(&[0, 2]);
        g.add_edge(&[0, 3]);
        g.add_edge(&[1, 2]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.vertices_by_degree_desc(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn monochromatic_detection() {
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1, 2]);
        let mut c = Coloring::new(3);
        c.set(0, 5);
        c.set(1, 5);
        // Not monochromatic while a vertex is uncolored.
        assert!(!edge_is_monochromatic(&g, &c, 0));
        c.set(2, 5);
        assert!(edge_is_monochromatic(&g, &c, 0));
        assert!(!is_proper_complete(&g, &c));
        c.set(2, 6);
        assert!(is_proper_complete(&g, &c));
    }

    #[test]
    fn hyperedge_needs_only_two_distinct_colors() {
        // A 3-edge with colors (1, 1, 2) is proper: the DC quantifies over
        // *all* k tuples sharing the FK, so two owners + one with a
        // different household do not violate it.
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1, 2]);
        let mut c = Coloring::new(3);
        c.set(0, 1);
        c.set(1, 1);
        c.set(2, 2);
        assert!(is_proper_complete(&g, &c));
    }

    #[test]
    fn default_is_the_empty_hypergraph() {
        let g = Hypergraph::default();
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn sorted_edge_fast_path_matches_add_edge() {
        let mut g = Hypergraph::new(5);
        assert_eq!(g.add_sorted_edge(&[0, 2, 4]), Some(0));
        assert_eq!(g.add_edge(&[4, 0, 2]), None); // same set, any order
        assert_eq!(g.add_sorted_edge(&[0, 2, 4]), None);
        assert_eq!(g.add_sorted_edge(&[2]), None);
        assert_eq!(g.edge(0), &[0, 2, 4]);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn unchecked_edges_interleave_with_checked() {
        let mut g = Hypergraph::new(6);
        assert_eq!(g.add_sorted_edge_unchecked(&[0, 1]), 0);
        assert_eq!(g.add_sorted_edge(&[1, 2]), Some(1));
        assert_eq!(g.add_sorted_edge_unchecked(&[3, 5]), 2);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.edge(0), &[0, 1]);
        assert_eq!(g.edge(2), &[3, 5]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.incident_edges(5), &[2]);
        // Checked insertion still dedups against *checked* edges…
        assert_eq!(g.add_sorted_edge(&[1, 2]), None);
        // …but by contract does not see unchecked ones (the caller dedups).
        assert_eq!(g.add_sorted_edge(&[0, 1]), Some(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unchecked_edge_still_bounds_checks() {
        let mut g = Hypergraph::new(2);
        g.add_sorted_edge_unchecked(&[0, 7]);
    }

    #[test]
    fn csr_storage_keeps_edges_addressable() {
        let mut g = Hypergraph::new(6);
        let edges: [&[VertexId]; 3] = [&[0, 1], &[1, 2, 3], &[4, 5]];
        for e in edges {
            g.add_edge(e);
        }
        assert_eq!(g.n_edges(), 3);
        for (i, e) in g.edges().enumerate() {
            assert_eq!(e, edges[i]);
            assert_eq!(g.edge(i as EdgeId), edges[i]);
        }
    }

    #[test]
    fn binomials_saturate() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(169, 2), 14_196);
        assert_eq!(binomial(3, 3), 1);
        assert_eq!(binomial(2, 3), 0);
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(1 << 40, 4), u64::MAX);
    }

    #[test]
    fn clique_groups_count_as_their_subsets() {
        let mut g = Hypergraph::new(6);
        g.add_edge(&[0, 5]);
        g.add_clique_group(3, &[0, 1, 2, 3]);
        g.add_clique_group(2, &[3, 4]);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.n_groups(), 2);
        assert_eq!(g.n_implicit_edges(), 4 + 1);
        // Vertex 0: one explicit edge plus C(3, 2) triples; vertex 3: three
        // triples plus the pair.
        assert_eq!(g.degree(0), 1 + 3);
        assert_eq!(g.degree(3), 3 + 1);
        assert_eq!(g.degree(5), 1);
        assert_eq!(g.groups_of(3), &[0, 1]);
        assert_eq!(g.vertices_by_degree_desc(), vec![0, 3, 1, 2, 4, 5]);
        let e = g.expanded();
        assert_eq!(e.n_groups(), 0);
        assert_eq!(e.n_edges(), 6);
        let mut edges: Vec<Vec<VertexId>> = e.edges().map(<[VertexId]>::to_vec).collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 3],
                vec![0, 2, 3],
                vec![0, 5],
                vec![1, 2, 3],
                vec![3, 4]
            ]
        );
        for v in 0..6 {
            assert_eq!(g.degree(v), e.degree(v), "vertex {v}");
        }
    }

    #[test]
    fn a_group_is_improper_only_with_k_members_of_one_color() {
        let mut g = Hypergraph::new(4);
        g.add_clique_group(3, &[0, 1, 2, 3]);
        let mut c = Coloring::new(4);
        for (v, color) in [(0, 1), (1, 1), (2, 2), (3, 2)] {
            c.set(v, color);
        }
        assert!(is_proper_complete(&g, &c));
        c.set(3, 1);
        assert!(!is_proper_complete(&g, &c));
    }

    /// Adds a window group over two fresh runs.
    fn window_group(
        g: &mut Hypergraph,
        a: &[VertexId],
        a_windows: &[(u32, u32)],
        b: &[VertexId],
        b_windows: &[(u32, u32)],
    ) {
        let (a, b) = (g.add_window_run(a), g.add_window_run(b));
        g.add_window_group(a, a_windows, b, b_windows);
    }

    /// Owners 0, 1, 2 (run order) beside children 3, 4: owner 0 sees child
    /// 3, owner 1 both children, owner 2 none; a second window over the
    /// same runs in which owner 2 sees child 4; and a pure-unary pair
    /// 5 × {6, 7}.
    fn windowed() -> Hypergraph {
        let mut g = Hypergraph::new(8);
        g.add_edge(&[0, 1]);
        let owners = g.add_window_run(&[0, 1, 2]);
        let children = g.add_window_run(&[3, 4]);
        g.add_window_group(
            owners,
            &[(0, 1), (0, 2), (2, 2)],
            children,
            &[(0, 2), (1, 2)],
        );
        g.add_window_group(
            owners,
            &[(0, 0), (0, 0), (1, 2)],
            children,
            &[(0, 0), (2, 3)],
        );
        window_group(&mut g, &[5], &[(0, 2)], &[6, 7], &[(0, 1), (0, 1)]);
        g
    }

    #[test]
    fn window_groups_count_their_ranges() {
        let g = windowed();
        assert_eq!((g.n_edges(), g.n_window_groups()), (1, 3));
        assert_eq!(g.n_implicit_edges(), 3 + 1 + 2);
        let degrees: Vec<u64> = (0..8).map(|v| g.degree(v)).collect();
        assert_eq!(degrees, [2, 3, 1, 2, 2, 2, 1, 1]);
        let neighbours = |v| {
            let mut vs: Vec<VertexId> = g.windows_of(v).flatten().copied().collect();
            vs.sort_unstable();
            vs
        };
        assert_eq!(neighbours(4), [1, 2]);
        assert_eq!(neighbours(0), [3]);
        assert_eq!(g.vertices_by_degree_desc(), vec![1, 0, 3, 4, 5, 2, 6, 7]);
        let e = g.expanded();
        assert_eq!((e.n_window_groups(), e.n_edges()), (0, 7));
        let mut edges: Vec<Vec<VertexId>> = e.edges().map(<[VertexId]>::to_vec).collect();
        edges.sort();
        assert_eq!(
            edges,
            [[0, 1], [0, 3], [1, 3], [1, 4], [2, 4], [5, 6], [5, 7]]
        );
        for v in 0..8 {
            assert_eq!(g.degree(v), e.degree(v), "vertex {v}");
        }
    }

    #[test]
    fn a_window_group_is_improper_only_on_a_pair_inside_a_range() {
        let g = windowed();
        let mut c = Coloring::new(8);
        // Owner 2 and child 3 share a color, but 3 is outside 2's ranges;
        // 6 and 7 share one, but no window joins them.
        for (v, color) in [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 0),
            (5, 0),
            (6, 1),
            (7, 1),
        ] {
            c.set(v, color);
        }
        assert!(is_proper_complete(&g, &c));
        assert!(is_proper_complete(&g.expanded(), &c));
        c.set(4, 2);
        assert!(!is_proper_complete(&g, &c));
        assert!(!is_proper_complete(&g.expanded(), &c));
    }

    #[test]
    #[should_panic(expected = "outside a run")]
    fn a_window_past_the_other_run_panics() {
        let mut g = Hypergraph::new(3);
        window_group(&mut g, &[0], &[(0, 3)], &[1, 2], &[(0, 1), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "at least k members")]
    fn a_group_smaller_than_its_arity_panics() {
        let mut g = Hypergraph::new(3);
        g.add_clique_group(3, &[0, 1]);
    }

    #[test]
    fn coloring_bookkeeping() {
        let mut c = Coloring::new(3);
        assert!(!c.is_complete());
        assert_eq!(c.n_colored(), 0);
        c.set(1, 9);
        assert!(c.is_colored(1));
        assert_eq!(c.get(1), Some(9));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(1, 9)]);
    }
}
