//! Conflict hypergraph construction (Definition 5.1).
//!
//! Within one `V_join` partition, every set of distinct tuples on which some
//! DC's condition φ holds becomes a hyperedge: those tuples must not all
//! receive the same FK. This module builds that graph two ways:
//!
//! - [`ConflictBuilder`] — the builder Phase II runs, one per view. Each DC
//!   is compiled to an equality-saturated [`DcPlan`] (per-variable unary
//!   filters, binary atoms, interchangeable-variable classes). The DC
//!   set's distinct unary filters are compiled once, and every row of the
//!   view is classified into them once (`UnaryFilterSet`,
//!   `RowFilterMasks`); a build then collects each filter's candidates in
//!   one pass over the partition's rows. Each kind of structure has one
//!   rule:
//!   - *Clique groups.* A capacity DC ([`DcPlan::capacity_shape`]) that
//!     every other live DC of its arity is
//!     [provably disjoint](DcPlan::provably_disjoint) from emits no edge
//!     at all: one clique group per key value stands for its `k`-subsets
//!     ([`Hypergraph::add_clique_group`]), and the coloring counts instead
//!     of enumerating.
//!   - *Window groups.* Every other pair DC reads the windows of one atom
//!     over two sorted runs: its first `=` atom linking the two variables,
//!     else its first ordering atom, or the whole other run when it has
//!     neither. A window pair ([`DcPlan::is_window_pair`]) that
//!     [shares no edge](DcPlan::shares_no_edge_with) with any other live
//!     pair DC stores them as one window group per partition
//!     ([`Hypergraph::add_window_group`]), which gives each candidate the
//!     range of the other side's run it conflicts with.
//!   - *Explicit pairs.* Any other pair DC writes the pairs of its windows
//!     on which its other atoms hold, unhashed. A pair belongs to the
//!     first such DC, in declaration order, that holds on it either way
//!     round, so each DC tests it against the earlier ones that
//!     `shares_no_edge_with` cannot rule out; a DC whose sides may both
//!     hold on one row keeps a pair it holds on both ways round from its
//!     lower vertex only.
//!   - *Hyperedges.* A DC of arity ≥ 3 without groups enumerates: the
//!     variables are ordered by their exact candidate counts, and each
//!     depth with a binary atom is driven by its first equality atom, else
//!     its first ordering atom, probing that atom's window of a sorted
//!     run, so the inner loop visits only rows that can still satisfy φ.
//!     Binary atoms are verified incrementally on partial assignments
//!     (pruning whole subtrees) rather than re-evaluating φ at `O(|P|^k)`
//!     leaves, interchangeable variables are restricted to ascending
//!     vertex ids, and the graph's fingerprint set drops any other
//!     duplicate.
//!
//!   Every route reads one run cache: a run is one filter's candidates
//!   sorted by one column, interned once per builder and sorted at most
//!   once per build by `(value, position)`, whichever of the window
//!   groups, explicit pairs, capacity key groups and enumeration drivers
//!   reads it first.
//! - [`build_conflict_graph_naive`] — the original per-leaf `φ` evaluation,
//!   kept as the reference the tests, the spec fuzzer and the
//!   `conflict_build` criterion bench compare the builder against.
//!
//! Both builders produce the **identical edge set** on any input, the
//! builder's groups counted in their [expanded](Hypergraph::expanded) form
//! (property-tested across all workloads in `cextend-workloads`).

use cextend_constraints::{
    filters_disjoint, BinaryAtomPlan, BoundDc, CapacityShape, DcPlan, UnaryFilter,
};
use cextend_hypergraph::{Hypergraph, WindowRun};
use cextend_table::{CmpOp, ColId, IntColumnView, Relation, RowId, Value};
use std::ops::Range;
use std::sync::Arc;

/// What the indexed builder did, for `CEXTEND_TRACE` diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConflictStats {
    /// Runs sorted by a column: each (filter, column) run a build reads is
    /// sorted once, however many routes read it.
    pub indexes_built: usize,
    /// Sorted-run probes an enumeration depth made for the equal window
    /// of an equality atom.
    pub eq_probes: usize,
    /// Sorted-run probes an enumeration depth made for the window of an
    /// ordering atom.
    pub range_probes: usize,
    /// Candidate rows visited without a driver: full scans of a
    /// variable's unary-filtered candidate list by an enumeration depth,
    /// and by an explicit pair DC with no `=` or ordering atom linking its
    /// variables, which scans its second variable's list once per
    /// candidate of its first.
    pub scanned_candidates: usize,
    /// DCs skipped outright: some variable had no candidates, a binary
    /// atom referenced a non-integer column, or equality saturation proved
    /// φ self-contradictory (φ can never hold).
    pub dead_dcs: usize,
    /// Duplicate edges skipped: an enumerated hyperedge the graph already
    /// holds (a symmetric-variable permutation of a stored one), and an
    /// explicit pair that an earlier pair DC owns, or that its DC holds on
    /// both ways round and met from the higher vertex. A DC with
    /// interchangeable variables, like an enumeration, skips that end
    /// before checking it, uncounted.
    pub dedup_hits: usize,
    /// Explicit pair DCs (once per DC per build) and enumeration depths
    /// driven by an equality atom.
    pub index_hash: usize,
    /// Explicit pair DCs (once per DC per build) and enumeration depths
    /// driven by an ordering atom.
    pub index_sorted: usize,
    /// Clique groups emitted for capacity DCs.
    pub capacity_groups: usize,
    /// Window groups emitted for window pairs.
    pub window_groups: usize,
}

impl ConflictStats {
    /// Adds another stats set field by field.
    pub fn absorb(&mut self, other: &ConflictStats) {
        self.indexes_built += other.indexes_built;
        self.eq_probes += other.eq_probes;
        self.range_probes += other.range_probes;
        self.scanned_candidates += other.scanned_candidates;
        self.dead_dcs += other.dead_dcs;
        self.dedup_hits += other.dedup_hits;
        self.index_hash += other.index_hash;
        self.index_sorted += other.index_sorted;
        self.capacity_groups += other.capacity_groups;
        self.window_groups += other.window_groups;
    }
}

/// How [`ConflictBuilder`] turns one DC into conflict structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DcRoute {
    /// Explicit edges: a pair DC's pairs, each written by the first pair
    /// DC that holds on it, or a DC of arity ≥ 3 enumerated. A
    /// capacity-shaped DC takes this route when another live DC of its
    /// arity is not provably disjoint from it.
    Edges,
    /// Capacity-shaped and disjoint from every other live DC of its arity:
    /// one clique group per key value.
    Groups,
    /// A window pair that shares no edge with any other live pair DC: one
    /// window group per partition.
    Windows,
}

/// The DC set's distinct unary filters, compiled once per builder. Atoms
/// are distinct `(column, operator, constant)` triples, and a filter is a
/// distinct set of atoms: the conjunction one tuple variable of some DC
/// requires. A variable with no atom has the empty filter, which every
/// row passes.
#[derive(Default)]
struct UnaryFilterSet {
    /// The distinct atoms, as `(column, operator, constant)`.
    atoms: Vec<(ColId, CmpOp, Value)>,
    /// Per filter, its atoms' ids, ascending.
    filters: Vec<Vec<usize>>,
}

impl UnaryFilterSet {
    /// The id of the filter `atoms` requires, adding the filter and its
    /// atoms when they are new.
    fn intern(&mut self, atoms: &[UnaryFilter]) -> usize {
        let mut ids: Vec<usize> = atoms
            .iter()
            .map(|a| intern(&mut self.atoms, (a.col, a.op, a.value)))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        intern(&mut self.filters, ids)
    }

    /// Classifies every row of `view`: each distinct atom is evaluated once
    /// per row, into a bitmap over the view, and each filter's rows are
    /// the AND of its atoms' bitmaps. Integer atoms compare the cell
    /// directly; symbol atoms read a pass/fail table indexed by the
    /// column's dictionary code, so each symbol is compared once per
    /// dictionary entry, not once per row. A missing cell fails the atom,
    /// and so does a constant whose type differs from the column's.
    fn classify(&self, view: &Relation) -> RowFilterMasks {
        let n = view.n_rows();
        let row_words = n.div_ceil(64);
        let atom_rows: Vec<Vec<u64>> = self.atoms.iter().map(|a| atom_rows(view, a)).collect();
        let words = self.filters.len().div_ceil(64);
        let mut masks = vec![0u64; n * words];
        let mut passing = vec![0u64; row_words];
        for (f, atoms) in self.filters.iter().enumerate() {
            passing.fill(!0);
            if !n.is_multiple_of(64) {
                passing[row_words - 1] = (1u64 << (n % 64)) - 1;
            }
            for &a in atoms {
                for (p, &w) in passing.iter_mut().zip(&atom_rows[a]) {
                    *p &= w;
                }
            }
            let bit = 1u64 << (f % 64);
            for (i, &w) in passing.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    let row = i * 64 + w.trailing_zeros() as usize;
                    masks[row * words + f / 64] |= bit;
                    w &= w - 1;
                }
            }
        }
        RowFilterMasks { words, masks }
    }
}

/// The rows of `view` passing `atom`, as a bitmap (bit `row & 63` of word
/// `row >> 6`).
fn atom_rows(view: &Relation, &(col, op, value): &(ColId, CmpOp, Value)) -> Vec<u64> {
    let n = view.n_rows();
    match value {
        Value::Int(c) => match view.int_view(col) {
            Some(cells) => bitmap(n, |row| cells.get(row).is_some_and(|x| op.test(x.cmp(&c)))),
            None => vec![0; n.div_ceil(64)],
        },
        Value::Str(s) => match view.sym_view(col) {
            Some(cells) => {
                let pass: Vec<bool> = cells.dict().iter().map(|d| op.test(d.cmp(&s))).collect();
                bitmap(n, |row| {
                    cells.code(row).is_some_and(|code| pass[code as usize])
                })
            }
            None => vec![0; n.div_ceil(64)],
        },
    }
}

/// The rows `0..n` that `passes` as a bitmap, each word assembled without
/// a branch on the rows' outcomes.
fn bitmap(n: usize, passes: impl Fn(usize) -> bool) -> Vec<u64> {
    (0..n.div_ceil(64))
        .map(|w| {
            (w * 64..n.min(w * 64 + 64)).fold(0u64, |word, row| {
                word | u64::from(passes(row)) << (row % 64)
            })
        })
        .collect()
}

/// Per-row filter masks over one view ([`UnaryFilterSet::classify`]): bit
/// `f & 63` of word `f >> 6` of row `r`'s mask is set iff row `r` passes
/// filter `f`. One word per row holds 64 filters; more take more words.
struct RowFilterMasks {
    words: usize,
    masks: Vec<u64>,
}

impl RowFilterMasks {
    /// Row `row`'s mask words.
    fn of(&self, row: RowId) -> &[u64] {
        &self.masks[row * self.words..(row + 1) * self.words]
    }
}

/// A reusable conflict-graph builder over one view.
///
/// Compiling the [`DcPlan`]s and classifying the view's rows once, and
/// reusing the scratch buffers, matters when the caller builds graphs for
/// thousands of small partitions (Phase II colors every `V_join`
/// partition). Phase II builds one builder on the coordinator and clones
/// it into each worker; the clones share everything it compiled, the row
/// masks included, and keep scratch buffers of their own.
#[derive(Clone)]
pub struct ConflictBuilder<'v> {
    compiled: Arc<Compiled<'v>>,
    /// Per filter, the build's candidate positions (indices into `rows`),
    /// ascending.
    filter_cands: Vec<Vec<u32>>,
    /// The build's rows' masks, in row order.
    row_masks: Vec<u64>,
    /// The build's runs.
    runs: RunCache,
    /// Pair scratch: each side's windows, and a window-run member buffer.
    win_ranges: [Vec<(u32, u32)>; 2],
    win_members: Vec<u32>,
    /// Vertex chosen per tuple variable (by original variable index).
    chosen: Vec<u32>,
    /// Generation stamp per vertex: `member[v] == generation` means `v` is
    /// currently part of the partial assignment. Never cleared between
    /// DCs or builds — the generation bump invalidates old marks.
    member: Vec<u32>,
    generation: u32,
    /// Sorted scratch for edge insertion.
    edge_buf: Vec<u32>,
    /// Variable-order / atom-schedule scratch, reused across DCs and
    /// builds (Phase II builds thousands of tiny partition graphs, where
    /// per-call allocation would dominate).
    order: Vec<usize>,
    sched: Vec<Vec<usize>>,
    drivers: Vec<Option<usize>>,
    stats: ConflictStats,
}

/// What [`ConflictBuilder::new`] compiles for one view.
struct Compiled<'v> {
    view: &'v Relation,
    plans: Vec<DcPlan>,
    /// Per plan, its capacity shape when it takes the group route.
    groups: Vec<Option<CapacityShape>>,
    /// Per plan, how it is built when it is a pair DC without groups that
    /// can hold.
    pairs: Vec<Option<PairPlan>>,
    /// Per plan and tuple variable, the id of the variable's filter (empty
    /// for a plan that never holds).
    var_filter: Vec<Vec<usize>>,
    /// Per plan, typed views of each binary atom's two columns, aligned
    /// with `plan.binary_atoms()`; `None` when the plan never holds or an
    /// atom reads a non-integer column, where it can never hold either.
    atom_views: Vec<Option<Vec<(IntColumnView<'v>, IntColumnView<'v>)>>>,
    /// Per plan and binary atom, the runs its left and right sides read
    /// (see [`side`]); empty for a plan that never holds. A keyed
    /// capacity DC's atoms all read its key run.
    atom_runs: Vec<Vec<[usize; 2]>>,
    /// The view's rows classified into the DC set's distinct unary
    /// filters (the ids `var_filter` holds).
    masks: RowFilterMasks,
    /// The runs: per run, the filter whose candidates it holds and the
    /// index in `run_cols` of the column it sorts them by (`None` for the
    /// run of a pair DC without a driver, which is in position order).
    run_keys: Vec<(usize, Option<usize>)>,
    /// The columns runs sort by.
    run_cols: Vec<ColId>,
}

/// How a pair DC without clique groups is built: the windows its driver
/// gives each candidate of variable 0 in variable 1's run, stored as one
/// window group or written as explicit pairs.
struct PairPlan {
    /// Index in `binary_atoms()` of the first `=` atom linking the two
    /// variables, else of the first ordering atom; `None` when φ has
    /// neither, and every window is the whole other run.
    driver: Option<usize>,
    /// The runs of variable 0's and variable 1's candidates, sorted by the
    /// column the driver reads on that side.
    runs: [usize; 2],
    /// The DC takes the window route.
    window: bool,
    /// Both variables' filters may pass one row, so the DC may hold on a
    /// pair both ways round.
    both_ways: bool,
    /// The earlier explicit pair DCs that may hold on one of its pairs.
    owners: Vec<usize>,
}

/// The side of `atom` that reads `var`'s cells: 0 for its left side, 1
/// for its right.
fn side(atom: &BinaryAtomPlan, var: usize) -> usize {
    usize::from(atom.lvar != var)
}

/// How far one build has got with a run.
#[derive(Clone, Copy)]
enum RunState {
    /// Not built for this build's rows yet.
    Stale,
    /// Sorted, but in no window group yet.
    Sorted,
    /// Sorted and added to the graph as a window run.
    InGraph(WindowRun),
}

/// One build's runs ([`Compiled::run_keys`]): each run is sorted on first
/// use by `(cell value, candidate position)` and then read by every route
/// that needs it, and each run column's cells for the build's rows are
/// gathered once, for every run sorted by it.
#[derive(Clone)]
struct RunCache {
    runs: Vec<Vec<(i64, u32)>>,
    state: Vec<RunState>,
    cells: Vec<Vec<Option<i64>>>,
    cells_built: Vec<bool>,
}

impl RunCache {
    fn new(c: &Compiled<'_>) -> RunCache {
        RunCache {
            runs: vec![Vec::new(); c.run_keys.len()],
            state: vec![RunState::Stale; c.run_keys.len()],
            cells: vec![Vec::new(); c.run_cols.len()],
            cells_built: vec![false; c.run_cols.len()],
        }
    }

    /// Marks every run stale for a new build.
    fn reset(&mut self) {
        self.state.fill(RunState::Stale);
        self.cells_built.fill(false);
    }

    /// Sorts run `run` over its filter's candidates for this build, unless
    /// an earlier route of the build already did. A row missing the run's
    /// column joins no run sorted by it.
    fn sort(
        &mut self,
        c: &Compiled<'_>,
        run: usize,
        rows: &[RowId],
        filter_cands: &[Vec<u32>],
        stats: &mut ConflictStats,
    ) {
        if !matches!(self.state[run], RunState::Stale) {
            return;
        }
        let (filter, col) = c.run_keys[run];
        let cand = &filter_cands[filter];
        let sorted = &mut self.runs[run];
        sorted.clear();
        match col {
            None => sorted.extend(cand.iter().map(|&p| (0, p))),
            Some(col) => {
                // The rows lie scattered over the view: the column's cells
                // for all of them are gathered once, in a loop of
                // independent loads, for every run sorted by it.
                let cells = &mut self.cells[col];
                if !self.cells_built[col] {
                    let view = c
                        .view
                        .int_view(c.run_cols[col])
                        .expect("build_one_dc kills a DC whose atom column is not integer");
                    cells.clear();
                    cells.extend(rows.iter().map(|&r| view.get(r)));
                    self.cells_built[col] = true;
                }
                sorted.extend(
                    cand.iter()
                        .filter_map(|&p| cells[p as usize].map(|v| (v, p))),
                );
                sorted.sort_unstable();
                stats.indexes_built += 1;
            }
        }
        self.state[run] = RunState::Sorted;
    }
}

/// Everything immutable the per-DC enumeration needs.
struct DcCtx<'a> {
    rows: &'a [RowId],
    plan: &'a DcPlan,
    /// Variable assignment order (see [`plan_order`]).
    order: &'a [usize],
    /// Per depth: indices into `plan.binary_atoms()` that become fully
    /// assigned (and must hold) at that depth.
    sched: &'a [Vec<usize>],
    /// Per depth: the scheduled atom that drives the candidate loop by
    /// probing its window of a sorted run (the first equality atom, else
    /// the first ordering atom), if any.
    drivers: &'a [Option<usize>],
    /// Typed views of each binary atom's two columns, aligned with
    /// `plan.binary_atoms()`.
    atom_views: &'a [(IntColumnView<'a>, IntColumnView<'a>)],
    /// The runs each binary atom's two sides read, aligned with
    /// `plan.binary_atoms()`, and the build's runs (every driver's
    /// sorted).
    atom_runs: &'a [[usize; 2]],
    runs: &'a [Vec<(i64, u32)>],
    /// The build's candidates per filter, and the plan's filter per
    /// variable.
    filter_cands: &'a [Vec<u32>],
    var_filter: &'a [usize],
}

impl DcCtx<'_> {
    /// Variable `var`'s candidate positions.
    fn cands(&self, var: usize) -> &[u32] {
        &self.filter_cands[self.var_filter[var]]
    }
}

/// A pair DC's test of one pair of positions, bound for one build: its
/// variables' filter ids and its binary atoms with their typed column
/// views. Bound once per DC and build, it keeps the pair loop's reads off
/// the compiled tables.
#[derive(Clone, Copy)]
struct PairTest<'a> {
    filters: [usize; 2],
    atoms: &'a [BinaryAtomPlan],
    views: &'a [(IntColumnView<'a>, IntColumnView<'a>)],
}

impl<'a> PairTest<'a> {
    /// Pair DC `e`'s test; `None` when an atom reads a non-integer column,
    /// so the DC never holds.
    fn of(c: &'a Compiled<'_>, e: usize) -> Option<PairTest<'a>> {
        Some(PairTest {
            filters: [c.var_filter[e][0], c.var_filter[e][1]],
            atoms: c.plans[e].binary_atoms(),
            views: c.atom_views[e].as_deref()?,
        })
    }

    /// `true` if every atom but `skip` holds with position `x` bound to
    /// variable 0 and `y` to variable 1.
    #[inline]
    fn atoms_hold(&self, rows: &[RowId], skip: Option<usize>, x: u32, y: u32) -> bool {
        let row = |var: usize| rows[if var == 0 { x } else { y } as usize];
        let atoms = self.atoms.iter().zip(self.views).enumerate();
        atoms
            .filter(|&(a, _)| Some(a) != skip)
            .all(|(_, (atom, (lv, rv)))| {
                atom.eval_cells(lv.get(row(atom.lvar)), rv.get(row(atom.rvar)))
            })
    }

    /// `true` if the DC holds with `x` bound to variable 0 and `y` to 1:
    /// each passes its variable's filter in `masks` (the build's row masks,
    /// `words` per position) and every atom holds.
    #[inline]
    fn holds(&self, masks: &[u64], words: usize, rows: &[RowId], x: u32, y: u32) -> bool {
        let passes = |pos: u32, f: usize| masks[pos as usize * words + f / 64] >> (f % 64) & 1 != 0;
        passes(x, self.filters[0])
            && passes(y, self.filters[1])
            && self.atoms_hold(rows, None, x, y)
    }
}

impl<'v> ConflictBuilder<'v> {
    /// Compiles the DC set for builds over `view`: plans are
    /// equality-saturated (merging interchangeable variables, detecting
    /// contradictions) and routed (see [`DcRoute`]), each explicit pair DC
    /// learns which earlier ones may own its pairs, their distinct unary
    /// filters are compiled and every row of `view` is classified into
    /// them, and every (filter, column) run a route reads is interned
    /// once. Everything else is decided per build from the partition's
    /// exact candidate lists, so the builder is reusable across any number
    /// of builds over rows of `view`.
    pub fn new(dcs: &[BoundDc], view: &'v Relation) -> ConflictBuilder<'v> {
        let plans: Vec<DcPlan> = dcs.iter().map(|d| d.plan().saturate_equalities()).collect();
        let max_arity = plans.iter().map(DcPlan::arity).max().unwrap_or(0);
        // A group stands for all its `k`-subsets, so a capacity DC takes
        // the group route only when no other DC of its arity can emit one
        // of them too (a duplicate would count twice in the degrees).
        let groups: Vec<Option<CapacityShape>> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let shape = p.capacity_shape()?;
                let filter = p.unary_filters(0);
                let disjoint = plans.iter().enumerate().all(|(j, q)| {
                    j == i
                        || q.never_holds()
                        || q.arity() != p.arity()
                        || q.provably_disjoint(filter)
                });
                disjoint.then_some(shape)
            })
            .collect();
        let mut filters = UnaryFilterSet::default();
        let var_filter: Vec<Vec<usize>> = plans
            .iter()
            .map(|p| {
                let live = !p.never_holds();
                (0..p.arity())
                    .filter(|_| live)
                    .map(|var| filters.intern(p.unary_filters(var)))
                    .collect()
            })
            .collect();
        // Routes reading one filter's candidates by one column share that
        // run: both sides of every binary atom, and of every window pair.
        let (mut run_keys, mut run_cols) = (Vec::new(), Vec::new());
        let mut run = |filter: usize, col: Option<ColId>| {
            let col = col.map(|c| intern(&mut run_cols, c));
            intern(&mut run_keys, (filter, col))
        };
        let atom_runs: Vec<Vec<[usize; 2]>> = plans
            .iter()
            .zip(&var_filter)
            .map(|(p, vf)| {
                let live = !p.never_holds();
                p.binary_atoms()
                    .iter()
                    .filter(|_| live)
                    .map(|a| [run(vf[a.lvar], Some(a.lcol)), run(vf[a.rvar], Some(a.rcol))])
                    .collect()
            })
            .collect();
        let atom_views: Vec<Option<Vec<_>>> = plans
            .iter()
            .map(|p| {
                let typed =
                    |a: &BinaryAtomPlan| Some((view.int_view(a.lcol)?, view.int_view(a.rcol)?));
                let views = p
                    .binary_atoms()
                    .iter()
                    .map(typed)
                    .collect::<Option<Vec<_>>>();
                views.filter(|_| !p.never_holds())
            })
            .collect();
        // Every pair DC without groups that can hold reads its driver's
        // windows. A window group stands for its pairs as a clique group
        // stands for its subsets, so the DC stores them as one only when
        // no other live pair DC can emit one of them. Otherwise it writes
        // explicit pairs, and a pair belongs to the first explicit pair DC
        // that holds on it, so each one tests the earlier ones that may
        // share an edge with it.
        let mut pairs: Vec<Option<PairPlan>> = Vec::with_capacity(plans.len());
        for (i, p) in plans.iter().enumerate() {
            if p.arity() != 2 || groups[i].is_some() || atom_views[i].is_none() {
                pairs.push(None);
                continue;
            }
            let atoms = p.binary_atoms();
            let linking = |kind: fn(&BinaryAtomPlan) -> bool| {
                atoms.iter().position(|a| a.lvar != a.rvar && kind(a))
            };
            let driver =
                linking(BinaryAtomPlan::is_equality).or_else(|| linking(BinaryAtomPlan::is_range));
            let window = p.is_window_pair()
                && p.capacity_shape().is_none()
                && plans.iter().enumerate().all(|(j, q)| {
                    j == i || q.never_holds() || q.arity() != 2 || p.shares_no_edge_with(q)
                });
            let explicit = |j: usize| pairs[j].as_ref().is_some_and(|q| !q.window);
            let owners = (0..i)
                .filter(|&j| !window && explicit(j) && !p.shares_no_edge_with(&plans[j]))
                .collect();
            pairs.push(Some(PairPlan {
                driver,
                runs: [0, 1].map(|var| match driver {
                    Some(d) => atom_runs[i][d][side(&atoms[d], var)],
                    None => run(var_filter[i][var], None),
                }),
                window,
                both_ways: !filters_disjoint(p.unary_filters(0), p.unary_filters(1)),
                owners,
            }));
        }
        let masks = filters.classify(view);
        let compiled = Compiled {
            view,
            plans,
            groups,
            pairs,
            var_filter,
            atom_views,
            atom_runs,
            masks,
            run_keys,
            run_cols,
        };
        ConflictBuilder {
            filter_cands: vec![Vec::new(); filters.filters.len()],
            row_masks: Vec::new(),
            runs: RunCache::new(&compiled),
            win_ranges: Default::default(),
            win_members: Vec::new(),
            chosen: vec![0; max_arity],
            member: Vec::new(),
            generation: 0,
            edge_buf: Vec::new(),
            order: Vec::new(),
            sched: Vec::new(),
            drivers: Vec::new(),
            stats: ConflictStats::default(),
            compiled: Arc::new(compiled),
        }
    }

    /// The route DC `dc` (an index into the builder's DC list) takes.
    pub fn route(&self, dc: usize) -> DcRoute {
        let c = &self.compiled;
        if c.groups[dc].is_some() {
            DcRoute::Groups
        } else if c.pairs[dc].as_ref().is_some_and(|p| p.window) {
            DcRoute::Windows
        } else {
            DcRoute::Edges
        }
    }

    /// Cumulative statistics over every `build` so far.
    pub fn stats(&self) -> ConflictStats {
        self.stats
    }

    /// Returns and resets the cumulative statistics.
    pub fn take_stats(&mut self) -> ConflictStats {
        std::mem::take(&mut self.stats)
    }

    /// Builds the conflict hypergraph over `rows` of the builder's view
    /// (vertex `i` corresponds to `rows[i]`): explicit edges plus the
    /// capacity DCs' clique groups and the window pairs' window groups.
    pub fn build(&mut self, rows: &[RowId]) -> Hypergraph {
        let c = Arc::clone(&self.compiled);
        let mut g = Hypergraph::new(rows.len());
        if self.member.len() < rows.len() {
            self.member.resize(rows.len(), 0);
        }
        self.runs.reset();
        // Every filter's candidates in one pass over the rows' masks. The
        // masks are gathered first, in a loop of independent loads: the
        // rows lie scattered over the view.
        let mut filter_cands = std::mem::take(&mut self.filter_cands);
        filter_cands.iter_mut().for_each(Vec::clear);
        self.row_masks.clear();
        self.row_masks
            .extend(rows.iter().flat_map(|&row| c.masks.of(row)));
        for (pos, mask) in self
            .row_masks
            .chunks_exact(c.masks.words.max(1))
            .enumerate()
        {
            for (w, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    filter_cands[w * 64 + bits.trailing_zeros() as usize].push(pos as u32);
                    bits &= bits - 1;
                }
            }
        }
        for ix in 0..c.plans.len() {
            self.build_one_dc(&c, rows, ix, &filter_cands, &mut g);
        }
        self.filter_cands = filter_cands;
        g
    }

    fn build_one_dc(
        &mut self,
        c: &Compiled<'_>,
        rows: &[RowId],
        ix: usize,
        filter_cands: &[Vec<u32>],
        g: &mut Hypergraph,
    ) {
        let (plan, var_filter) = (&c.plans[ix], c.var_filter[ix].as_slice());
        // Equality saturation found contradictory atoms at compile time
        // (e.g. `t1.A = t2.A + 1 ∧ t2.A = t1.A`), a binary atom reads a
        // non-integer column (so it never holds), or some variable has no
        // candidate: the DC is dead before any per-DC setup.
        let Some(atom_views) = c.atom_views[ix].as_deref() else {
            self.stats.dead_dcs += 1;
            return;
        };
        if var_filter.iter().any(|&f| filter_cands[f].is_empty()) {
            self.stats.dead_dcs += 1;
            return;
        }
        let arity = plan.arity();
        let cands = |var: usize| filter_cands[var_filter[var]].as_slice();

        if let Some(shape) = c.groups[ix] {
            self.emit_groups(c, ix, shape, rows, filter_cands, g);
            return;
        }
        if let Some(pair) = &c.pairs[ix] {
            self.emit_pairs(c, ix, pair, rows, filter_cands, g);
            return;
        }

        // Variable order from the exact candidate counts: start from the
        // smallest candidate list; then prefer variables linked by a
        // binary atom to the already-ordered set (so a run can drive
        // their loop), breaking ties by candidate count, then variable
        // index. The var-index tie-break keeps interchangeable variables
        // in original relative order, which the symmetry dedup relies on.
        plan_order(plan, |var| cands(var).len(), &mut self.order);
        let order = &self.order;

        // Atom schedule: each binary atom runs at the depth where its last
        // variable gets assigned; one scheduled atom per depth is promoted
        // to loop driver — the first equality atom, else the first
        // ordering atom.
        while self.sched.len() < arity {
            self.sched.push(Vec::new());
        }
        let sched = &mut self.sched[..arity];
        sched.iter_mut().for_each(Vec::clear);
        self.drivers.clear();
        self.drivers.resize(arity, None);
        let drivers = &mut self.drivers;
        let depth_of = |var: usize| order.iter().position(|&v| v == var).expect("var in order");
        for (a, atom) in plan.binary_atoms().iter().enumerate() {
            let depth = depth_of(atom.lvar).max(depth_of(atom.rvar));
            sched[depth].push(a);
            // Self-atoms (both sides one variable) cannot drive a probe,
            // and `≠` has no window.
            if atom.lvar == atom.rvar || !(atom.is_equality() || atom.is_range()) {
                continue;
            }
            let better = match drivers[depth] {
                None => true,
                Some(d) => atom.is_equality() && !plan.binary_atoms()[d].is_equality(),
            };
            if better {
                drivers[depth] = Some(a);
            }
        }

        // Every driver depth probes the run of its variable's candidates
        // by the driver's column on that side.
        for (depth, &driver) in drivers.iter().enumerate() {
            let Some(a) = driver else { continue };
            let atom = &plan.binary_atoms()[a];
            if atom.is_equality() {
                self.stats.index_hash += 1;
            } else {
                self.stats.index_sorted += 1;
            }
            let run = c.atom_runs[ix][a][side(atom, order[depth])];
            self.runs.sort(c, run, rows, filter_cands, &mut self.stats);
        }

        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.member.iter_mut().for_each(|m| *m = 0);
            self.generation = 1;
        }
        let ctx = DcCtx {
            rows,
            plan,
            order,
            sched,
            drivers,
            atom_views,
            atom_runs: &c.atom_runs[ix],
            runs: &self.runs.runs,
            filter_cands,
            var_filter,
        };
        let mut state = EnumState {
            chosen: &mut self.chosen,
            member: &mut self.member,
            generation: self.generation,
            edge_buf: &mut self.edge_buf,
            stats: &mut self.stats,
        };
        enumerate(&ctx, &mut state, 0, g);
    }

    /// Adds capacity DC `ix`'s clique groups: its candidates grouped by
    /// key value (runs of one value in its key run), or all of them when
    /// the DC has no key. Rows missing the key join no group, as they fail
    /// every `=` atom, and a group under `k` members stands for no edge.
    fn emit_groups(
        &mut self,
        c: &Compiled<'_>,
        ix: usize,
        shape: CapacityShape,
        rows: &[RowId],
        filter_cands: &[Vec<u32>],
        g: &mut Hypergraph,
    ) {
        if shape.key.is_none() {
            let cand = &filter_cands[c.var_filter[ix][0]];
            if cand.len() >= shape.k {
                g.add_clique_group(shape.k, cand);
                self.stats.capacity_groups += 1;
            }
            return;
        }
        // Every `=` atom reads the key on the one filter all variables
        // share, so each side of each atom reads the key run.
        let run = c.atom_runs[ix][0][0];
        self.runs.sort(c, run, rows, filter_cands, &mut self.stats);
        let members = &mut self.edge_buf;
        for same_key in self.runs.runs[run].chunk_by(|a, b| a.0 == b.0) {
            if same_key.len() >= shape.k {
                members.clear();
                members.extend(same_key.iter().map(|&(_, p)| p));
                g.add_clique_group(shape.k, members);
                self.stats.capacity_groups += 1;
            }
        }
    }

    /// Adds pair DC `ix`'s edges. With a driver, each side's run is
    /// sorted by the cell the driver reads there (a row missing it has no
    /// neighbour and joins neither run), and a sweep ([`sweep_windows`])
    /// gives every candidate of variable 0 the range of variable 1's run
    /// the driver holds on; without one, every range is the whole run.
    /// A window pair stores the ranges, and those of the mirror sweep, as
    /// a window group, unless it stands for no edge. Any other pair DC
    /// checks its other atoms on each pair of its ranges and writes the
    /// pairs that hold without hashing them: a pair an earlier DC of
    /// `pair.owners` holds on either way round is that DC's, and a pair
    /// the DC holds on both ways round is written from its lower vertex.
    fn emit_pairs(
        &mut self,
        c: &Compiled<'_>,
        ix: usize,
        pair: &PairPlan,
        rows: &[RowId],
        filter_cands: &[Vec<u32>],
        g: &mut Hypergraph,
    ) {
        // `build_one_dc` kills a DC without views, and no owner lacks them.
        let Some(own) = PairTest::of(c, ix) else {
            return;
        };
        for run in pair.runs {
            self.runs.sort(c, run, rows, filter_cands, &mut self.stats);
        }
        let [ia, ib] = pair.runs;
        let (run_a, run_b) = (&self.runs.runs[ia], &self.runs.runs[ib]);
        let driver = pair.driver.map(|d| &own.atoms[d]);
        let [ranges_a, ranges_b] = &mut self.win_ranges;
        sweep_windows(driver, 1, run_a, run_b, ranges_a);
        if pair.window {
            sweep_windows(driver, 0, run_b, run_a, ranges_b);
            if ranges_a.iter().all(|&(lo, hi)| lo == hi) {
                return;
            }
            let [a, b] = pair.runs.map(|run| self.graph_run(run, g));
            g.add_window_group(a, &self.win_ranges[0], b, &self.win_ranges[1]);
            self.stats.window_groups += 1;
            return;
        }
        match driver {
            Some(d) if d.is_equality() => self.stats.index_hash += 1,
            Some(_) => self.stats.index_sorted += 1,
            None => self.stats.scanned_candidates += run_a.len() * run_b.len(),
        }
        let owners: Vec<PairTest<'_>> = pair
            .owners
            .iter()
            .filter_map(|&e| PairTest::of(c, e))
            .collect();
        let (masks, words) = (&self.row_masks, c.masks.words);
        // Whether the pair is an earlier DC's, or this DC's from `v`.
        let owned = |u: u32, v: u32| {
            let either_way = |t: &PairTest<'_>| {
                t.holds(masks, words, rows, u, v) || t.holds(masks, words, rows, v, u)
            };
            let mirrored = pair.both_ways && u > v && own.holds(masks, words, rows, v, u);
            mirrored || owners.iter().any(either_way)
        };
        // Interchangeable variables hold on every pair both ways round, so
        // such a DC skips the higher end before checking anything, as
        // enumeration does.
        let ascending = c.plans[ix].sym_class(1) == 0;
        // The windows decide the driver; any other atom is checked here.
        let rest = own.atoms.len() > usize::from(driver.is_some());
        for (&(_, u), &(lo, hi)) in run_a.iter().zip(ranges_a.iter()) {
            for &(_, v) in &run_b[lo as usize..hi as usize] {
                if u == v
                    || (ascending && u > v)
                    || (rest && !own.atoms_hold(rows, pair.driver, u, v))
                {
                    continue;
                }
                if owned(u, v) {
                    self.stats.dedup_hits += 1;
                    continue;
                }
                g.add_sorted_edge_unchecked(&[u.min(v), u.max(v)]);
            }
        }
    }

    /// Run `run`'s members in the graph, added on first use.
    fn graph_run(&mut self, run: usize, g: &mut Hypergraph) -> WindowRun {
        if let RunState::InGraph(handle) = self.runs.state[run] {
            return handle;
        }
        self.win_members.clear();
        self.win_members
            .extend(self.runs.runs[run].iter().map(|&(_, p)| p));
        let handle = g.add_window_run(&self.win_members);
        self.runs.state[run] = RunState::InGraph(handle);
        handle
    }
}

/// The index of `key` in `keys`, appending it when new.
fn intern<T: PartialEq>(keys: &mut Vec<T>, key: T) -> usize {
    keys.iter().position(|k| *k == key).unwrap_or_else(|| {
        keys.push(key);
        keys.len() - 1
    })
}

/// The range of the sorted run `run` of `var`'s cells that satisfies
/// `atom`, an ordering or `=` atom, against the other side's cell `o`: a
/// prefix or suffix for an ordering atom, the equal run for `=`. The bound
/// (see [`probe_bound`]) is exact for every offset; one clamp per search
/// keeps the run's comparisons in `i64`, and a bound beyond either end of
/// `i64` selects the whole run or none of it.
fn probe_window(atom: &BinaryAtomPlan, var: usize, o: i64, run: &[(i64, u32)]) -> Range<usize> {
    // Length of the run's prefix with cells at most `b`.
    let upto = |b: i128| match i64::try_from(b) {
        Ok(b) => run.partition_point(|&(v, _)| v <= b),
        Err(_) if b < 0 => 0,
        Err(_) => run.len(),
    };
    let (b, flip) = probe_bound(atom, var, o);
    window_of(atom.op, flip, run.len(), || upto(b - 1), || upto(b))
}

/// Every cell of `others` (ascending) probed against the run `run` of
/// `var`'s cells, as [`probe_window`] would, for an ordering or `=` atom:
/// one window per cell, written to `out`. The bound grows with the cell,
/// so both prefix counts only move forward, and one pass over each run
/// gives every window. Without an atom every window is the whole run.
fn sweep_windows(
    atom: Option<&BinaryAtomPlan>,
    var: usize,
    others: &[(i64, u32)],
    run: &[(i64, u32)],
    out: &mut Vec<(u32, u32)>,
) {
    out.clear();
    let Some(atom) = atom else {
        out.resize(others.len(), (0, run.len() as u32));
        return;
    };
    debug_assert!(atom.is_equality() || atom.is_range());
    let (mut below, mut upto) = (0usize, 0usize);
    for &(o, _) in others {
        let (b, flip) = probe_bound(atom, var, o);
        while below < run.len() && i128::from(run[below].0) < b {
            below += 1;
        }
        while upto < run.len() && i128::from(run[upto].0) <= b {
            upto += 1;
        }
        let w = window_of(atom.op, flip, run.len(), || below, || upto);
        out.push((w.start as u32, w.end as u32));
    }
}

/// The bound `var`'s cells are compared with when the other side's cell is
/// `o`, in `i128`: the atom reads `l ◦ (o + off)` when `var` is its left
/// side, and otherwise `o ◦ (r + off)` ⇔ `r ◦' (o − off)`, with the
/// comparison flipped (the `bool`).
fn probe_bound(atom: &BinaryAtomPlan, var: usize, o: i64) -> (i128, bool) {
    let (o, off) = (i128::from(o), i128::from(atom.offset));
    if atom.lvar == var {
        (o + off, false)
    } else {
        (o - off, true)
    }
}

/// The window of a sorted run of `len` cells that satisfies `op`, an
/// ordering operator or `=` (flipped when `flip`), against a bound `b`,
/// from the number of cells below `b` and at most `b`; each count is asked
/// for only when the window needs it.
fn window_of(
    op: CmpOp,
    flip: bool,
    len: usize,
    below: impl Fn() -> usize,
    upto: impl Fn() -> usize,
) -> Range<usize> {
    match (op, flip) {
        (CmpOp::Eq, _) => below()..upto(),
        (CmpOp::Lt, false) | (CmpOp::Gt, true) => 0..below(),
        (CmpOp::Le, false) | (CmpOp::Ge, true) => 0..upto(),
        (CmpOp::Gt, false) | (CmpOp::Lt, true) => upto()..len,
        (CmpOp::Ge, false) | (CmpOp::Le, true) => below()..len,
        (CmpOp::Ne, _) => unreachable!("a `≠` atom drives no window"),
    }
}

/// The mutable half of the enumeration.
struct EnumState<'a> {
    chosen: &'a mut [u32],
    member: &'a mut [u32],
    generation: u32,
    edge_buf: &'a mut Vec<u32>,
    stats: &'a mut ConflictStats,
}

/// Variable ordering from the exact per-partition candidate counts
/// `n_cands(var)` (see `build_one_dc`), written into the reused `order`
/// scratch. `used` is a bitmask — arity is tiny.
fn plan_order(plan: &DcPlan, n_cands: impl Fn(usize) -> usize, order: &mut Vec<usize>) {
    let arity = plan.arity();
    order.clear();
    let mut used = 0u64;
    for _ in 0..arity {
        let mut best: Option<(bool, usize, usize)> = None; // (!linked, count, var)
        for var in 0..arity {
            if used & (1 << var) != 0 {
                continue;
            }
            let linked = plan.binary_atoms().iter().any(|a| {
                a.involves(var) && a.lvar != a.rvar && used & (1 << a.other_var(var)) != 0
            });
            let key = (!linked, n_cands(var), var);
            if best.is_none() || key < best.expect("checked") {
                best = Some(key);
            }
        }
        let (_, _, var) = best.expect("arity variables to order");
        used |= 1 << var;
        order.push(var);
    }
}

/// Assigns variables depth by depth, probing sorted runs and verifying every
/// newly-complete binary atom on the partial assignment; a complete
/// assignment is a conflict edge (φ already verified — no leaf `holds`).
fn enumerate(ctx: &DcCtx<'_>, state: &mut EnumState<'_>, depth: usize, g: &mut Hypergraph) {
    let arity = ctx.plan.arity();
    if depth == arity {
        state.edge_buf.clear();
        state.edge_buf.extend_from_slice(&state.chosen[..arity]);
        state.edge_buf.sort_unstable();
        // Explicit pairs bypass the fingerprint set, but a hyperedge of
        // three or more vertices cannot collide with one.
        if g.add_sorted_edge(state.edge_buf).is_none() {
            state.stats.dedup_hits += 1;
        }
        return;
    }
    let var = ctx.order[depth];

    // Narrow the candidate loop to the driver atom's window of the
    // variable's run; a depth without a driver scans the variable's
    // unary-filtered candidates.
    if let Some(a) = ctx.drivers[depth] {
        let atom = &ctx.plan.binary_atoms()[a];
        let other = atom.other_var(var);
        let other_row = ctx.rows[state.chosen[other] as usize];
        let (lv, rv) = &ctx.atom_views[a];
        let other_cell = if atom.lvar == var {
            rv.get(other_row)
        } else {
            lv.get(other_row)
        };
        let Some(o) = other_cell else {
            return; // missing cell: the driver atom can never hold
        };
        if atom.is_equality() {
            state.stats.eq_probes += 1;
        } else {
            state.stats.range_probes += 1;
        }
        // One window: the equal run of an `=` (empty when its target
        // leaves `i64`), a prefix or suffix for an ordering atom.
        let run = &ctx.runs[ctx.atom_runs[a][side(atom, var)]];
        let window = probe_window(atom, var, o, run);
        for &(_, pos) in &run[window] {
            try_candidate(ctx, state, depth, var, pos, Some(a), g);
        }
        return;
    }
    state.stats.scanned_candidates += ctx.cands(var).len();
    for &pos in ctx.cands(var) {
        try_candidate(ctx, state, depth, var, pos, None, g);
    }
}

/// Checks one candidate vertex at `depth`: distinctness, symmetric-order
/// dedup, then every scheduled atom except the already-satisfied driver;
/// recurses on success.
fn try_candidate(
    ctx: &DcCtx<'_>,
    state: &mut EnumState<'_>,
    depth: usize,
    var: usize,
    pos: u32,
    driver: Option<usize>,
    g: &mut Hypergraph,
) {
    // Distinct tuples only (generation-stamped membership).
    if state.member[pos as usize] == state.generation {
        return;
    }
    // Interchangeable variables take ascending vertex ids: their swap is an
    // automorphism of φ, so each unordered combination is enumerated in
    // exactly one canonical variable order.
    let class = ctx.plan.sym_class(var);
    for &u in &ctx.order[..depth] {
        if ctx.plan.sym_class(u) == class {
            let bound_ok = if u < var {
                state.chosen[u] < pos
            } else {
                pos < state.chosen[u]
            };
            if !bound_ok {
                return;
            }
        }
    }
    let row = ctx.rows[pos as usize];
    // Verify every atom completed by this assignment (driver already holds
    // by construction of the probe).
    for &a in &ctx.sched[depth] {
        if Some(a) == driver {
            continue;
        }
        let atom = &ctx.plan.binary_atoms()[a];
        let (lv, rv) = &ctx.atom_views[a];
        let lrow = if atom.lvar == var {
            row
        } else {
            ctx.rows[state.chosen[atom.lvar] as usize]
        };
        let rrow = if atom.rvar == var {
            row
        } else {
            ctx.rows[state.chosen[atom.rvar] as usize]
        };
        if !atom.eval_cells(lv.get(lrow), rv.get(rrow)) {
            return;
        }
    }
    state.chosen[var] = pos;
    state.member[pos as usize] = state.generation;
    enumerate(ctx, state, depth + 1, g);
    state.member[pos as usize] = state.generation.wrapping_sub(1);
}

/// The original naive builder: enumerate candidate combinations per DC and
/// evaluate φ at the leaves. `O(|P|^k)` per DC — kept as the reference
/// [`ConflictBuilder`] is property-tested and benchmarked against.
pub fn build_conflict_graph_naive(view: &Relation, rows: &[RowId], dcs: &[BoundDc]) -> Hypergraph {
    let mut g = Hypergraph::new(rows.len());
    let mut chosen: Vec<u32> = Vec::new();
    for dc in dcs {
        // Vertex positions passing each variable's unary atoms.
        let cands: Vec<Vec<u32>> = (0..dc.arity)
            .map(|var| {
                (0..rows.len() as u32)
                    .filter(|&v| dc.var_candidate(view, var, rows[v as usize]))
                    .collect()
            })
            .collect();
        if cands.iter().any(Vec::is_empty) {
            continue;
        }
        chosen.clear();
        enumerate_naive(view, rows, dc, &cands, &mut chosen, &mut g);
    }
    g
}

/// Recursively assigns distinct vertices to the DC's tuple variables and
/// adds an edge whenever φ holds.
fn enumerate_naive(
    view: &Relation,
    rows: &[RowId],
    dc: &BoundDc,
    cands: &[Vec<u32>],
    chosen: &mut Vec<u32>,
    g: &mut Hypergraph,
) {
    let var = chosen.len();
    if var == dc.arity {
        let assignment: Vec<RowId> = chosen.iter().map(|&v| rows[v as usize]).collect();
        if dc.holds(view, &assignment) {
            g.add_edge(chosen);
        }
        return;
    }
    for &v in &cands[var] {
        if chosen.contains(&v) {
            continue; // tuple variables range over distinct tuples
        }
        chosen.push(v);
        enumerate_naive(view, rows, dc, cands, chosen, g);
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures;

    /// The builder and the naive reference on the same input, asserting
    /// identical edge sets (the builder's groups expanded) and degrees, and
    /// returning the builder's graph.
    fn build_both(view: &Relation, rows: &[RowId], dcs: &[BoundDc]) -> Hypergraph {
        build_both_with_stats(view, rows, dcs).0
    }

    /// Explicit plus implicit edges.
    fn total_edges(g: &Hypergraph) -> u64 {
        g.n_edges() as u64 + g.n_implicit_edges()
    }

    /// [`build_both`], also returning the builder's statistics.
    fn build_both_with_stats(
        view: &Relation,
        rows: &[RowId],
        dcs: &[BoundDc],
    ) -> (Hypergraph, ConflictStats) {
        let mut builder = ConflictBuilder::new(dcs, view);
        let built = builder.build(rows);
        let naive = build_conflict_graph_naive(view, rows, dcs);
        let edge_set = |g: &Hypergraph| {
            let mut edges: Vec<Vec<u32>> = g.edges().map(<[u32]>::to_vec).collect();
            edges.sort();
            edges.dedup();
            edges
        };
        let reference = edge_set(&naive);
        assert_eq!(
            edge_set(&built.expanded()),
            reference,
            "builder diverged from naive"
        );
        // No duplicate edges, explicit or implicit (degrees would diverge).
        assert_eq!(
            total_edges(&built),
            reference.len() as u64,
            "duplicate edges"
        );
        for v in 0..rows.len() as u32 {
            assert_eq!(built.degree(v), naive.degree(v), "degree of vertex {v}");
        }
        (built, builder.take_stats())
    }

    /// The running example's `R1` and the Figure 2a DCs bound against it,
    /// as Phase II binds them.
    fn running_r1() -> (Relation, Vec<BoundDc>) {
        let r1 = fixtures::running_example().r1;
        let dcs = fixtures::figure2_dcs()
            .iter()
            .map(|d| d.bind(r1.schema(), r1.name()).unwrap())
            .collect();
        (r1, dcs)
    }

    /// Figure 7's Chicago component: applying the Figure 2a DCs to the
    /// Figure 5 view's rows partitioned by Area (the DCs read `R1`'s cells
    /// only).
    #[test]
    fn figure7_chicago_partition() {
        let (r1, dcs) = running_r1();
        // Chicago partition: rows 0..7 (pids 1..7).
        let rows: Vec<RowId> = (0..7).collect();
        let g = build_both(&r1, &rows, &dcs);
        // Owners (pids 1,2,3,4 → vertices 0..4) form one clique group
        // standing for C(4,2)=6 pairwise edges; spouse 24 conflicts with
        // both 75-year-old owners (a window group of 2 edges); children
        // (age 10) conflict with the multi-lingual 75-year-old owner via
        // DC_OC_low (10 < 75−50) — and with no one else: for the
        // multi-lingual 25-year-old, 10 > 25−12 is false (another window
        // group of 2). The `-up` DCs violate nothing here and add no group.
        assert_eq!((g.n_groups(), g.n_window_groups(), g.n_edges()), (1, 2, 0));
        assert_eq!(total_edges(&g), 6 + 2 + 2);
        // NYC partition: two owners, one group of one edge.
        let rows: Vec<RowId> = vec![7, 8];
        let g = build_both(&r1, &rows, &dcs);
        assert_eq!((g.n_groups(), g.n_window_groups(), g.n_edges()), (1, 0, 0));
        assert_eq!(total_edges(&g), 1);
    }

    #[test]
    fn symmetric_dcs_do_not_duplicate_edges() {
        // The owner-owner DC alone is one clique group standing for the
        // one undirected edge. Declared twice, neither copy is disjoint
        // from the other, so both keep explicit edges: each meets the pair
        // from its lower vertex only (its variables are interchangeable),
        // and the second finds it the first's. Still one edge.
        let (r1, dcs) = running_r1();
        let dc = dcs[0].clone();
        let rows: Vec<RowId> = vec![0, 1]; // two owners
        let g = build_both(&r1, &rows, std::slice::from_ref(&dc));
        assert_eq!((g.n_groups(), g.n_edges()), (1, 0));
        assert_eq!(total_edges(&g), 1);
        let (g, stats) = build_both_with_stats(&r1, &rows, &[dc.clone(), dc]);
        assert_eq!((g.n_groups(), g.n_edges()), (0, 1));
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn no_candidates_no_edges() {
        let (r1, dcs) = running_r1();
        // A spouse and a child: no DC matches this pair.
        let rows: Vec<RowId> = vec![4, 5];
        let g = build_both(&r1, &rows, &dcs);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn three_variable_dc_produces_hyperedges() {
        use cextend_constraints::parse_dc;
        use cextend_table::{ColumnDef, Dtype, Relation, Schema, Value};
        let schema = Schema::new(vec![
            ColumnDef::key("id", Dtype::Int),
            ColumnDef::attr("Cls", Dtype::Int),
            ColumnDef::foreign_key("fk", Dtype::Int),
        ])
        .unwrap();
        let mut rel = Relation::new("t", schema);
        for (id, cls) in [(1, 7), (2, 7), (3, 7), (4, 8)] {
            rel.push_row(&[Some(Value::Int(id)), Some(Value::Int(cls)), None])
                .unwrap();
        }
        let dc = parse_dc(
            "nae",
            "!(t1.Cls = t2.Cls & t2.Cls = t3.Cls & t1.fk = t2.fk & t2.fk = t3.fk)",
            "fk",
        )
        .unwrap();
        let bound = dc.bind(rel.schema(), "t").unwrap();
        let rows: Vec<RowId> = (0..4).collect();
        let g = build_both(&rel, &rows, &[bound]);
        // Only {0,1,2} share Cls=7: a capacity DC, so one group of three
        // whose single 3-subset is the hyperedge.
        assert_eq!((g.n_groups(), g.n_edges()), (1, 0));
        assert_eq!(g.group(0), (3, &[0, 1, 2][..]));
        let expanded = g.expanded();
        assert_eq!(expanded.n_edges(), 1);
        assert_eq!(expanded.edge(0), &[0, 1, 2]);
    }

    /// `rows` of a relation with a nullable integer `Key`, a `Kind` string
    /// and an empty `fk`.
    fn keyed_fixture(rows: &[(Option<i64>, &str)]) -> Relation {
        use cextend_table::{ColumnDef, Dtype, Schema};
        let schema = Schema::new(vec![
            ColumnDef::attr("Key", Dtype::Int),
            ColumnDef::attr("Kind", Dtype::Str),
            ColumnDef::foreign_key("fk", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("t", schema);
        for &(key, kind) in rows {
            r.push_row(&[key.map(Value::Int), Some(Value::str(kind)), None])
                .unwrap();
        }
        r
    }

    #[test]
    fn capacity_groups_split_by_key_and_skip_missing_keys() {
        let r = keyed_fixture(&[
            (Some(1), "a"),
            (None, "a"),
            (Some(2), "a"),
            (Some(1), "a"),
            (Some(1), "b"),
            (Some(2), "a"),
            (Some(1), "a"),
            (Some(3), "a"),
        ]);
        let rows: Vec<RowId> = (0..8).collect();
        // Per Key among the `a` rows: {0,3,6} (Key 1), {2,5} (Key 2), {7}
        // (Key 3); row 1's missing Key joins nothing.
        let dcs = bind_all(
            &r,
            &[
                r#"!(t1.Kind = "a" & t2.Kind = "a" & t3.Kind = "a" & t1.Key = t2.Key & t2.Key = t3.Key & t1.fk = t2.fk & t2.fk = t3.fk)"#,
                r#"!(t1.Kind = "a" & t2.Kind = "a" & t1.Key = t2.Key & t1.fk = t2.fk)"#,
            ],
        );
        let builder = ConflictBuilder::new(&dcs, &r);
        assert_eq!(builder.route(0), DcRoute::Groups);
        assert_eq!(builder.route(1), DcRoute::Groups);
        let (g, stats) = build_both_with_stats(&r, &rows, &dcs);
        assert_eq!(g.n_edges(), 0);
        let groups: Vec<(usize, Vec<u32>)> = g.groups().map(|(k, m)| (k, m.to_vec())).collect();
        assert_eq!(
            groups,
            vec![(3, vec![0, 3, 6]), (2, vec![0, 3, 6]), (2, vec![2, 5])]
        );
        assert_eq!(stats.capacity_groups, 3);
        assert_eq!(total_edges(&g), 1 + 3 + 1);
        assert_eq!(
            stats.index_hash + stats.scanned_candidates,
            0,
            "nothing enumerates"
        );
    }

    #[test]
    fn capacity_dcs_keep_edges_unless_provably_disjoint() {
        let r = keyed_fixture(&[
            (Some(1), "a"),
            (Some(1), "b"),
            (Some(1), "a"),
            (Some(2), "b"),
        ]);
        let rows: Vec<RowId> = (0..4).collect();
        let excl_a = r#"!(t1.Kind = "a" & t2.Kind = "a" & t1.fk = t2.fk)"#;
        let excl_b = r#"!(t1.Kind = "b" & t2.Kind = "b" & t1.fk = t2.fk)"#;
        let same_key = "!(t1.Key = t2.Key & t1.fk = t2.fk)";
        let triple = "!(t1.Key = t2.Key & t2.Key = t3.Key & t1.fk = t2.fk & t2.fk = t3.fk)";
        let contra = "!(t1.Key = t2.Key + 1 & t2.Key = t1.Key & t1.fk = t2.fk)";
        let routes = |dcs: &[&str]| {
            let bound = bind_all(&r, dcs);
            build_both(&r, &rows, &bound);
            let builder = ConflictBuilder::new(&bound, &r);
            (0..dcs.len()).map(|i| builder.route(i)).collect::<Vec<_>>()
        };
        use DcRoute::*;
        // `Kind = "a"` and `Kind = "b"` pin rejecting constants both ways;
        // a contradictory DC is not live; another arity does not overlap.
        assert_eq!(
            routes(&[excl_a, excl_b, contra, triple]),
            [Groups, Groups, Edges, Groups]
        );
        // The keyed pair pins nothing, so it overlaps both exclusives.
        assert_eq!(routes(&[excl_a, excl_b, same_key]), [Edges, Edges, Edges]);
        // A gap pair whose second variable is pinned off `a`: disjoint from
        // the exclusive, and a window pair of its own.
        assert_eq!(
            routes(&[
                excl_a,
                r#"!(t1.Kind = "a" & t2.Kind = "b" & t2.Key > t1.Key & t1.fk = t2.fk)"#
            ]),
            [Groups, Windows]
        );
    }

    #[test]
    fn window_pairs_emit_window_groups_that_match_the_naive_builder() {
        let r = keyed_fixture(&[
            (Some(40), "o"),
            (Some(30), "c"),
            (Some(20), "c"),
            (None, "c"),
            (Some(35), "o"),
            (Some(42), "s"),
            (Some(37), "s"),
            (None, "o"),
            (Some(10), "p"),
            (Some(70), "g"),
            (Some(25), "o"),
            (Some(27), "s"),
            (Some(50), "c"),
            (Some(12), "q"),
            (Some(45), "q"),
            (Some(60), "g"),
        ]);
        let dcs = bind_all(
            &r,
            &[
                // A `-low`/`-up` pair: one column pair, windows apart.
                r#"!(t1.Kind = "o" & t2.Kind = "c" & t2.Key < t1.Key - 5 & t1.fk = t2.fk)"#,
                r#"!(t1.Kind = "o" & t2.Kind = "c" & t2.Key > t1.Key + 3 & t1.fk = t2.fk)"#,
                // An `=` window.
                r#"!(t1.Kind = "o" & t2.Kind = "s" & t2.Key = t1.Key + 2 & t1.fk = t2.fk)"#,
                // A pure-unary bi-clique.
                r#"!(t1.Kind = "s" & t2.Kind = "p" & t1.fk = t2.fk)"#,
                // Two pairs that may share an edge keep explicit edges.
                r#"!(t1.Kind = "o" & t1.Key < 30 & t2.Kind = "g" & t1.fk = t2.fk)"#,
                r#"!(t1.Kind = "o" & t2.Kind = "g" & t2.Key > t1.Key + 25 & t1.fk = t2.fk)"#,
                // The window written from the second variable.
                r#"!(t1.Kind = "q" & t2.Kind = "o" & t1.Key >= t2.Key & t1.fk = t2.fk)"#,
            ],
        );
        let builder = ConflictBuilder::new(&dcs, &r);
        let routes: Vec<DcRoute> = (0..dcs.len()).map(|i| builder.route(i)).collect();
        use DcRoute::*;
        assert_eq!(
            routes,
            [Windows, Windows, Windows, Windows, Edges, Edges, Windows]
        );
        let all: Vec<RowId> = (0..16).collect();
        for rows in [all, vec![3, 0, 8, 5, 13, 10, 1, 11], vec![7, 3, 9]] {
            let (g, stats) = build_both_with_stats(&r, &rows, &dcs);
            // Only the two overlapping pairs store edges.
            let explicit = build_conflict_graph_naive(&r, &rows, &dcs[4..6]);
            assert_eq!(g.n_edges(), explicit.n_edges(), "{rows:?}");
            assert_eq!(stats.window_groups, g.n_window_groups(), "{rows:?}");
        }
        let (g, stats) = build_both_with_stats(&r, &(0..16).collect::<Vec<_>>(), &dcs);
        // Every window DC has a violation here: owner 40 beside children
        // 30 and 20, 50; spouses 42/37/27 two above owners; the bi-clique
        // spouses × partner; the `q` rows at or above some owner.
        assert_eq!(stats.window_groups, 5);
        assert!(g.n_edges() > 0);
    }

    /// DCs with 68 distinct unary filters, so every row's filter mask
    /// spans two words: 33 overlapping gap pairs on explicit edges whose
    /// two filters are all distinct, a window pair and a capacity DC.
    #[test]
    fn more_than_64_filters_classify_into_two_mask_words() {
        let r = ages_fixture(24);
        let mut texts: Vec<String> = (0..33)
            .map(|i| {
                format!(
                    "!(t1.Grp = 0 & t1.Age > {} & t2.Grp = 1 & t2.Age < {} & t2.Age < t1.Age + {} & t1.fk = t2.fk)",
                    i,
                    60 - i,
                    i % 7
                )
            })
            .collect();
        texts.push("!(t1.Grp = 2 & t2.Grp = 0 & t2.Age = t1.Age + 1 & t1.fk = t2.fk)".into());
        texts.push("!(t1.Grp = 2 & t2.Grp = 2 & t1.fk = t2.fk)".into());
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let dcs = bind_all(&r, &texts);
        let builder = ConflictBuilder::new(&dcs, &r);
        assert_eq!(builder.filter_cands.len(), 68);
        assert_eq!(builder.compiled.masks.words, 2);
        assert_eq!(builder.route(0), DcRoute::Edges);
        assert_eq!(builder.route(33), DcRoute::Windows);
        assert_eq!(builder.route(34), DcRoute::Groups);
        let all: Vec<RowId> = (0..24).collect();
        for rows in [all, (5..24).rev().collect(), vec![2, 23, 11, 7, 14]] {
            let (g, _) = build_both_with_stats(&r, &rows, &dcs);
            assert!(total_edges(&g) > 0, "{rows:?}");
        }
    }

    /// Persons with a mix of categorical and integer attributes, used by
    /// the explicit-pair tests below.
    fn persons_fixture() -> Relation {
        use cextend_table::{ColumnDef, Dtype, Schema};
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::foreign_key("fk", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("Persons", schema);
        for (pid, rel, age) in [
            (1, "Owner", 30),
            (2, "Owner", 35),
            (3, "Spouse", 30),
            (4, "Partner", 35),
            (5, "Owner", 90),
        ] {
            r.push_row(&[
                Some(Value::Int(pid)),
                Some(Value::str(rel)),
                Some(Value::Int(age)),
                None,
            ])
            .unwrap();
        }
        r
    }

    #[test]
    fn overlapping_cliques_and_windows_keep_each_pair_once() {
        use cextend_constraints::parse_dc;
        let r = persons_fixture();
        let dcs: Vec<BoundDc> = [
            // Clique over the three owners.
            r#"!(t1.Rel = "Owner" & t2.Rel = "Owner" & t1.fk = t2.fk)"#,
            // Bi-clique: spouse × partner.
            r#"!(t1.Rel = "Spouse" & t2.Rel = "Partner" & t1.fk = t2.fk)"#,
            // Clique over all five rows — covers both DCs above.
            "!(t1.Age >= 30 & t2.Age >= 30 & t1.fk = t2.fk)",
            // Equal-age windows; its pairs are covered by the big clique
            // too.
            "!(t1.Age = t2.Age & t1.fk = t2.fk)",
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            parse_dc(&format!("d{i}"), s, "fk")
                .unwrap()
                .bind(r.schema(), "Persons")
                .unwrap()
        })
        .collect();
        // Every DC may share an edge with another, so nothing takes a
        // group or a window.
        let builder = ConflictBuilder::new(&dcs, &r);
        let routes: Vec<DcRoute> = (0..4).map(|i| builder.route(i)).collect();
        assert_eq!(routes, [DcRoute::Edges; 4]);
        let rows: Vec<RowId> = (0..5).collect();
        let (g, stats) = build_both_with_stats(&r, &rows, &dcs);
        // The Age ≥ 30 clique subsumes everything: C(5,2) edges.
        assert_eq!(g.n_edges(), 10);
        // Every DC here but spouse × partner has interchangeable
        // variables, so it meets each pair from its lower vertex only. The
        // big clique and the same-age DC skip the pairs an earlier DC
        // owns: the owner clique's 3 and spouse × partner, then {0,2} and
        // {1,3}.
        assert_eq!(stats.dedup_hits, 4 + 2);
        // Owners 3 · 3, spouse × partner 1 · 1, all rows 5 · 5: only the
        // same-age DC has a driver, and its Age run is the one run sorted.
        assert_eq!(stats.scanned_candidates, 9 + 1 + 25);
        assert_eq!((stats.index_hash, stats.index_sorted), (1, 0));
        assert_eq!(stats.indexes_built, 1);
        // Beside the big clique alone, the same-age DC's pairs are the
        // clique's.
        let (g, stats) = build_both_with_stats(&r, &rows, &dcs[2..]);
        assert_eq!((g.n_edges(), stats.dedup_hits), (10, 2));
    }

    #[test]
    fn pure_unary_cross_with_overlapping_sides_emits_each_pair_once() {
        use cextend_constraints::parse_dc;
        let r = persons_fixture();
        // Sides overlap: Age ≥ 30 is {0,1,2,3,4}, Age ≥ 35 is {1,3,4}; a
        // pair of rows holding both memberships is visited in both orders.
        let dc = parse_dc("x", "!(t1.Age >= 30 & t2.Age >= 35 & t1.fk = t2.fk)", "fk")
            .unwrap()
            .bind(r.schema(), "Persons")
            .unwrap();
        let dcs = [dc];
        assert_eq!(ConflictBuilder::new(&dcs, &r).route(0), DcRoute::Edges);
        let rows: Vec<RowId> = (0..5).collect();
        let (g, stats) = build_both_with_stats(&r, &rows, &dcs);
        // {u,v} with at least one side ≥ 35: all pairs except those wholly
        // inside {0,2} (ages 30,30): C(5,2) − 1.
        assert_eq!(g.n_edges(), 9);
        // Each of the 5 first-side candidates scans the 3 second-side
        // ones, and the 3 pairs inside {1,3,4} are met from both ends and
        // written from their lower vertex.
        assert_eq!(stats.scanned_candidates, 5 * 3);
        assert_eq!(stats.dedup_hits, 3);
    }

    #[test]
    fn single_atom_pairs_match_the_naive_builder() {
        use cextend_constraints::parse_dc;
        let r = persons_fixture();
        let rows: Vec<RowId> = (0..5).collect();
        // Each DC alone and the whole overlapping set: ordering atoms with
        // offsets on both orientations, inequality, and an offset equality
        // — every single-atom kind against the naive builder.
        let dcs: Vec<&str> = vec![
            r#"!(t1.Rel = "Owner" & t2.Age > t1.Age + 4 & t1.fk = t2.fk)"#,
            r#"!(t1.Rel = "Owner" & t2.Age < t1.Age - 1 & t1.fk = t2.fk)"#,
            "!(t1.Age != t2.Age & t1.fk = t2.fk)",
            "!(t1.Age = t2.Age + 5 & t1.fk = t2.fk)",
            r#"!(t1.Age <= t2.Age & t2.Rel = "Spouse" & t1.fk = t2.fk)"#,
        ];
        for dc in &dcs {
            let bound = parse_dc("w", dc, "fk")
                .unwrap()
                .bind(r.schema(), "Persons")
                .unwrap();
            build_both(&r, &rows, &[bound]);
        }
        let bound: Vec<BoundDc> = dcs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                parse_dc(&format!("w{i}"), s, "fk")
                    .unwrap()
                    .bind(r.schema(), "Persons")
                    .unwrap()
            })
            .collect();
        let (g, stats) = build_both_with_stats(&r, &rows, &bound);
        assert!(g.n_edges() > 0);
        // Ownership is predicate-aware: w2's candidate lists are all five
        // rows, yet it owns only the pairs whose ages differ.
        assert!(stats.dedup_hits > 0);
    }

    #[test]
    fn builder_skips_contradictory_dcs() {
        use cextend_constraints::parse_dc;
        let r = persons_fixture();
        // t1.Age = t2.Age + 1 ∧ t2.Age = t1.Age is unsatisfiable; equality
        // saturation proves it at compile time.
        let dc = parse_dc(
            "contra",
            "!(t1.Age = t2.Age + 1 & t2.Age = t1.Age & t1.fk = t2.fk)",
            "fk",
        )
        .unwrap()
        .bind(r.schema(), "Persons")
        .unwrap();
        let rows: Vec<RowId> = (0..5).collect();
        let (g, stats) = build_both_with_stats(&r, &rows, &[dc]);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(stats.dead_dcs, 1);
        assert_eq!(stats.scanned_candidates, 0, "no enumeration ran");
    }

    /// `t1.Age > t2.Age + 9223372036854775800` between an owner and a
    /// child, and the same atom flipped (`t2.Age < t1.Age − …`). For some
    /// of these four people `r + offset` leaves `i64` in either
    /// orientation; compared exactly, only the owner aged `i64::MAX` and
    /// the child aged 1 conflict.
    #[test]
    fn binary_offsets_near_the_i64_ends_compare_exactly() {
        use cextend_constraints::parse_dc;
        use cextend_table::{ColumnDef, Dtype, Schema, Value};
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::foreign_key("hid", Dtype::Int),
        ])
        .unwrap();
        let mut persons = Relation::new("Persons", schema);
        for (pid, age, rel) in [
            (1, i64::MAX, "Owner"),
            (2, -20, "Owner"),
            (3, 1, "Child"),
            (4, 10, "Child"),
        ] {
            persons
                .push_row(&[
                    Some(Value::Int(pid)),
                    Some(Value::Int(age)),
                    Some(Value::str(rel)),
                    None,
                ])
                .unwrap();
        }
        let gap = [
            "t1.Age > t2.Age + 9223372036854775800",
            "t2.Age < t1.Age - 9223372036854775800",
        ];
        for atom in gap {
            let text =
                format!(r#"!(t1.Rel = "Owner" & t2.Rel = "Child" & {atom} & t1.hid = t2.hid)"#);
            let dc = parse_dc("gap", &text, "hid").unwrap();
            let bound = dc.bind(persons.schema(), persons.name()).unwrap();
            let g = build_both(&persons, &[0, 1, 2, 3], &[bound]);
            let edges: Vec<Vec<u32>> = g.expanded().edges().map(<[u32]>::to_vec).collect();
            assert_eq!(edges, [[0, 2]], "{atom}");

            // Two households: the solve separates the conflicting pair and
            // certifies clean.
            let instance = crate::CExtensionInstance::new(
                persons.clone(),
                fixtures::housing(),
                vec![],
                vec![dc],
            )
            .unwrap();
            let solution = crate::solve(&instance, &crate::SolverConfig::hybrid()).unwrap();
            assert_eq!(solution.stats.counters.conflict_edges, 1, "{atom}");
            let report = crate::metrics::evaluate(&instance, &solution).unwrap();
            assert_eq!(report.dc_error, 0.0, "{atom}");
        }
    }

    #[test]
    fn builder_reuse_and_stats() {
        let (r1, dcs) = running_r1();
        let rows: Vec<RowId> = (0..7).collect(); // owners + spouse + children
        let mut builder = ConflictBuilder::new(&dcs, &r1);
        let a = builder.build(&rows);
        let once = builder.stats();
        let b = builder.build(&rows);
        assert_eq!(a.n_edges(), b.n_edges(), "builder reuse changed output");
        let mut twice = once;
        twice.absorb(&once);
        assert_eq!(builder.take_stats(), twice, "stats accumulate");
        assert_eq!(builder.stats(), ConflictStats::default());
    }

    #[test]
    fn missing_cells_prune_probes() {
        use cextend_constraints::DenialConstraint;
        use cextend_table::{ColumnDef, Dtype, Relation, Schema, Value};
        let schema = Schema::new(vec![
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::foreign_key("fk", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("t", schema);
        r.push_row(&[None, None]).unwrap();
        r.push_row(&[Some(Value::Int(5)), None]).unwrap();
        r.push_row(&[Some(Value::Int(9)), None]).unwrap();
        let dc = DenialConstraint::new(
            "d",
            2,
            vec![cextend_constraints::DcAtom::Binary {
                lvar: 0,
                lcol: "Age".into(),
                op: cextend_table::CmpOp::Le,
                rvar: 1,
                rcol: "Age".into(),
                offset: 0,
            }],
        )
        .unwrap();
        let bound = dc.bind(r.schema(), "t").unwrap();
        let g = build_both(&r, &[0, 1, 2], &[bound]);
        // Row 0's missing Age joins nothing; 5 ≤ 9 (and 5 ≤ 5 is excluded
        // by distinctness on one side only): edges {1,2} once.
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.edge(0), &[1, 2]);
    }

    /// `n` rows with an integer `Age` (distinct neighbours, some repeats),
    /// an integer `Grp` and an empty `fk`, for the enumerate-driver tests.
    fn ages_fixture(n: usize) -> Relation {
        use cextend_table::{ColumnDef, Dtype, Schema};
        let schema = Schema::new(vec![
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Grp", Dtype::Int),
            ColumnDef::foreign_key("fk", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("t", schema);
        for i in 0..n as i64 {
            let age = 20 + (i * 7) % 13;
            r.push_row(&[Some(Value::Int(age)), Some(Value::Int(i % 3)), None])
                .unwrap();
        }
        r
    }

    fn bind_all(r: &Relation, dcs: &[&str]) -> Vec<BoundDc> {
        dcs.iter()
            .enumerate()
            .map(|(i, s)| {
                cextend_constraints::parse_dc(&format!("d{i}"), s, "fk")
                    .unwrap()
                    .bind(r.schema(), r.name())
                    .unwrap()
            })
            .collect()
    }

    /// Two ordering atoms on one column: the first gives the pair's windows
    /// of its sorted run, and the second is checked pair by pair.
    const BAND: &str = "!(t2.Age > t1.Age + 1 & t2.Age < t1.Age + 6 & t1.fk = t2.fk)";

    #[test]
    fn band_pair_drives_a_sorted_run() {
        let r = ages_fixture(24);
        let rows: Vec<RowId> = (0..24).collect();
        let (g, stats) = build_both_with_stats(&r, &rows, &bind_all(&r, &[BAND]));
        assert!(g.n_edges() > 0);
        assert_eq!((stats.index_sorted, stats.index_hash), (1, 0));
        assert_eq!(stats.indexes_built, 1);
        // One sweep gives every row its window: nothing probes or scans.
        assert_eq!((stats.range_probes, stats.scanned_candidates), (0, 0));
    }

    /// The band with its driving atom's offset one below `i64::MAX`: the
    /// bound `t1.Age + offset` leaves `i64` for every row, and compared
    /// exactly it admits the whole run, in a pair's sweep and in an
    /// enumeration depth's probe alike, so the depth still probes instead
    /// of scanning. An `=` driver whose target `t1.Age + offset` leaves
    /// `i64` meets an empty equal window: no edge.
    #[test]
    fn a_bound_beyond_i64_still_probes_the_sorted_run() {
        let r = ages_fixture(24);
        let rows: Vec<RowId> = (0..24).collect();
        let band = "t2.Age < t1.Age + 9223372036854775806 & t2.Age > t1.Age + 1";
        let eq = "t2.Age = t1.Age + 9223372036854775800 & t1.Grp = t2.Grp";
        let pair = |atoms: &str| format!("!({atoms} & t1.fk = t2.fk)");
        let (g, _) = build_both_with_stats(&r, &rows, &bind_all(&r, &[&pair(band)]));
        assert!(g.n_edges() > 0);
        let (g, stats) = build_both_with_stats(&r, &rows, &bind_all(&r, &[&pair(eq)]));
        assert_eq!(total_edges(&g), 0);
        assert_eq!(stats.index_hash, 1, "the `Age` equality comes first");
        // As triples: `t1`'s 8 `Grp = 0` rows come first, then `t2`, which
        // the band or the equality links to `t1` and which probes once per
        // `t1` row.
        let triple = |atoms: &str| {
            format!("!(t1.Grp = 0 & {atoms} & t3.Grp = 2 & t1.fk = t2.fk & t2.fk = t3.fk)")
        };
        let (g, stats) = build_both_with_stats(&r, &rows, &bind_all(&r, &[&triple(band)]));
        assert!(g.n_edges() > 0);
        assert_eq!((stats.index_sorted, stats.range_probes), (1, 8));
        let (g, stats) = build_both_with_stats(&r, &rows, &bind_all(&r, &[&triple(eq)]));
        assert_eq!(total_edges(&g), 0);
        assert_eq!((stats.index_hash, stats.eq_probes), (1, 8));
    }

    /// A window pair and two explicit pairs, one driven by an `=` atom and
    /// one by an ordering atom, all read the `Grp = 1` rows' run by `Age`:
    /// each build sorts it once.
    #[test]
    fn routes_reading_one_run_sort_it_once_per_build() {
        let r = ages_fixture(48);
        let dcs = bind_all(
            &r,
            &[
                "!(t1.Grp = 0 & t2.Grp = 1 & t2.Age > t1.Age + 2 & t1.fk = t2.fk)",
                // Capacity-shaped, but the band below may share its pairs.
                "!(t1.Grp = 1 & t2.Grp = 1 & t1.Age = t2.Age & t1.fk = t2.fk)",
                "!(t1.Grp = 1 & t2.Grp = 1 & t2.Age > t1.Age + 1 & t2.Age < t1.Age + 6 & t1.fk = t2.fk)",
            ],
        );
        let builder = ConflictBuilder::new(&dcs, &r);
        use DcRoute::*;
        let routes: Vec<DcRoute> = (0..3).map(|i| builder.route(i)).collect();
        assert_eq!(routes, [Windows, Edges, Edges]);
        // The `Grp = 0` and `Grp = 1` runs by `Age`.
        assert_eq!(builder.compiled.run_keys.len(), 2);
        let all: Vec<RowId> = (0..48).collect();
        for rows in [all, (0..48).rev().step_by(2).collect()] {
            let (g, stats) = build_both_with_stats(&r, &rows, &dcs);
            assert!(g.n_edges() > 0, "{rows:?}");
            assert_eq!(
                (stats.window_groups, stats.index_hash, stats.index_sorted),
                (1, 1, 1),
                "{rows:?}"
            );
            assert_eq!(stats.indexes_built, 2, "{rows:?}");
        }
    }

    #[test]
    fn equality_drives_over_an_earlier_ordering_atom() {
        let r = ages_fixture(24);
        let rows: Vec<RowId> = (0..24).collect();
        // The ordering atom comes first, the equality atom drives: the
        // pair's windows, and the chain's depth 1 (`t2`), which completes
        // both.
        let pair = "!(t1.Age < t2.Age & t1.Grp = t2.Grp & t1.fk = t2.fk)";
        let (g, stats) = build_both_with_stats(&r, &rows, &bind_all(&r, &[pair]));
        assert!(g.n_edges() > 0);
        assert_eq!((stats.index_hash, stats.index_sorted), (1, 0));
        let chain =
            "!(t1.Age < t2.Age & t1.Grp = t2.Grp & t2.Age < t3.Age & t1.fk = t2.fk & t2.fk = t3.fk)";
        let (g, stats) = build_both_with_stats(&r, &rows, &bind_all(&r, &[chain]));
        assert!(g.n_edges() > 0);
        assert_eq!((stats.index_hash, stats.eq_probes), (1, 24));
        assert_eq!(stats.index_sorted, 1, "`t3`'s ordering atom drives depth 2");
    }

    #[test]
    fn ternary_ordering_chain_indexes_every_later_depth() {
        let r = ages_fixture(18);
        let rows: Vec<RowId> = (0..18).collect();
        let dcs = bind_all(
            &r,
            &["!(t1.Age < t2.Age & t2.Age < t3.Age + 2 & t1.fk = t2.fk & t2.fk = t3.fk)"],
        );
        let (g, stats) = build_both_with_stats(&r, &rows, &dcs);
        assert!(g.n_edges() > 0);
        assert!(g.edges().all(|e| e.len() == 3));
        assert_eq!((stats.index_sorted, stats.index_hash), (2, 0));
        assert!(stats.range_probes > 18, "depth 2 probes per surviving pair");
    }

    #[test]
    fn tiny_candidate_lists_are_indexed_too() {
        // Partitions of one to six rows: the pairs sweep their runs and
        // the chain's driver depths probe theirs, so only the chain's
        // depth 0 scans.
        for n in 1..=6 {
            let r = ages_fixture(n);
            let rows: Vec<RowId> = (0..n).collect();
            let dcs = bind_all(
                &r,
                &[
                    BAND,
                    "!(t1.Grp = t2.Grp & t1.Age <= t2.Age & t1.fk = t2.fk)",
                    // `t1.Age >= 0` holds on every row but breaks the
                    // capacity shape (one shared filter), so the chain
                    // enumerates through its `=` drivers.
                    "!(t1.Grp = t2.Grp & t2.Grp = t3.Grp & t1.Age >= 0 & t1.fk = t2.fk & t2.fk = t3.fk)",
                ],
            );
            let (_, stats) = build_both_with_stats(&r, &rows, &dcs);
            assert_eq!(stats.dead_dcs, 0, "{n} rows");
            assert_eq!(stats.index_sorted, 1, "{n} rows");
            assert_eq!(stats.index_hash, 1 + 2, "{n} rows");
            assert_eq!(stats.scanned_candidates, n, "{n} rows");
        }
    }

    /// Explicit pair DCs overlapping in every way the ownership rule must
    /// handle. Each build matches the naive builder's edges and degrees
    /// and stores no pair twice.
    #[test]
    fn explicit_pairs_belong_to_the_first_dc_that_holds_on_them() {
        let r = ages_fixture(24);
        let dcs = bind_all(
            &r,
            &[
                // Purely unary, with sides one row can pass both of.
                "!(t1.Age >= 24 & t2.Age <= 28 & t1.fk = t2.fk)",
                // One ordering atom.
                "!(t1.Grp = 0 & t2.Age > t1.Age + 2 & t1.fk = t2.fk)",
                // An `=` key: capacity-shaped, but overlapped.
                "!(t1.Age = t2.Age & t1.fk = t2.fk)",
                // `≠` only: no driver.
                "!(t1.Grp != t2.Grp & t1.Age < 26 & t1.fk = t2.fk)",
                // Two atoms: the `=` drives, the ordering atom is checked.
                "!(t1.Grp = t2.Grp & t2.Age < t1.Age - 1 & t1.fk = t2.fk)",
                // A self-atom beside a pinned side.
                "!(t1.Age > t1.Grp + 25 & t2.Grp = 1 & t1.fk = t2.fk)",
            ],
        );
        let builder = ConflictBuilder::new(&dcs, &r);
        assert!((0..dcs.len()).all(|i| builder.route(i) == DcRoute::Edges));
        let check = |rows: &[RowId], dcs: &[BoundDc]| {
            let (g, stats) = build_both_with_stats(&r, rows, dcs);
            assert_eq!(
                g.n_edges() as u64 + g.n_implicit_edges(),
                g.expanded().n_edges() as u64,
                "{rows:?}"
            );
            (g, stats)
        };
        let all: Vec<RowId> = (0..24).collect();
        // Some pair is held by three DCs, and some DC holds a pair both
        // ways round, so both rules skip pairs.
        let mut held: std::collections::HashMap<Vec<u32>, usize> = Default::default();
        for dc in &dcs {
            let naive = build_conflict_graph_naive(&r, &all, std::slice::from_ref(dc));
            for e in naive.edges() {
                *held.entry(e.to_vec()).or_default() += 1;
            }
        }
        assert!(held.values().any(|&n| n >= 3));
        let (g, stats) = check(&all, &dcs);
        assert!(g.n_edges() > 0 && stats.dedup_hits > 0);
        for rows in [(0..24).rev().collect(), vec![2, 23, 11, 7, 14, 5, 0, 19]] {
            check(&rows, &dcs);
        }
        // 65 overlapping gap pairs, identical ones among them (`i` and
        // `i + 45`): each may be owned by any earlier one.
        let texts: Vec<String> = (0..65)
            .map(|i| {
                format!(
                    "!(t1.Age > {} & t2.Age < t1.Age + {} & t1.fk = t2.fk)",
                    18 + i % 9,
                    1 + i % 5
                )
            })
            .collect();
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let many = bind_all(&r, &texts);
        let builder = ConflictBuilder::new(&many, &r);
        assert!((0..many.len()).all(|i| builder.route(i) == DcRoute::Edges));
        let (g, stats) = check(&all, &many);
        assert!(g.n_edges() > 0 && stats.dedup_hits > 0);
        assert_eq!(stats.index_sorted, 65);
    }
}
