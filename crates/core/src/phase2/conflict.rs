//! Conflict hypergraph construction (Definition 5.1).
//!
//! Within one `V_join` partition, every set of distinct tuples on which some
//! DC's condition φ holds becomes a hyperedge: those tuples must not all
//! receive the same FK. This module builds that graph two ways:
//!
//! - [`ConflictBuilder`] — the builder Phase II runs. Each DC is compiled
//!   to an equality-saturated [`DcPlan`] (per-variable unary filters,
//!   binary atoms, interchangeable-variable classes). A *capacity DC*
//!   ([`DcPlan::capacity_shape`]) that every other live DC of its arity is
//!   [provably disjoint](DcPlan::provably_disjoint) from emits no edge at
//!   all: one clique group per key value stands for its `k`-subsets
//!   ([`Hypergraph::add_clique_group`]), and the coloring counts instead
//!   of enumerating. Pair DCs with at most one binary atom are
//!   bulk-emitted as bi-cliques or sorted-run windows. The rest
//!   enumerate: candidates per variable are
//!   pre-filtered once per partition, the variables are ordered by those
//!   exact candidate counts, and each enumeration depth with a binary atom
//!   is driven by a per-partition value index over its first equality atom
//!   (hash buckets) or else its first ordering atom (a sorted run), so the
//!   inner loop visits only rows that can still satisfy φ. Binary atoms
//!   are verified incrementally on partial assignments (pruning whole
//!   subtrees) rather than re-evaluating φ at `O(|P|^k)` leaves, and
//!   interchangeable variables are restricted to ascending vertex ids so
//!   each undirected edge is emitted once instead of once per symmetric
//!   variable order.
//! - [`build_conflict_graph_naive`] — the original per-leaf `φ` evaluation,
//!   kept as the reference the tests, the spec fuzzer and the
//!   `conflict_build` criterion bench compare the builder against.
//!
//! Both builders produce the **identical edge set** on any input, the
//! builder's groups counted in their [expanded](Hypergraph::expanded) form
//! (property-tested across all workloads in `cextend-workloads`).

use cextend_constraints::{BinaryAtomPlan, BoundDc, CapacityShape, DcPlan};
use cextend_hypergraph::Hypergraph;
use cextend_table::{CmpOp, ColId, IntColumnView, Relation, RowId, Sym, SymColumnView, Value};
use std::collections::HashMap;

/// What the indexed builder did, for `CEXTEND_TRACE` diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConflictStats {
    /// Value indexes (hash buckets + sorted runs) built.
    pub indexes_built: usize,
    /// Hash-bucket probes for equality atoms.
    pub eq_probes: usize,
    /// Sorted-run probes for ordering atoms.
    pub range_probes: usize,
    /// Candidate rows visited without an index driver (full scans of a
    /// variable's unary-filtered candidate list).
    pub scanned_candidates: usize,
    /// DCs skipped outright: some variable had no candidates, a binary
    /// atom referenced a non-integer column, or equality saturation proved
    /// φ self-contradictory (φ can never hold).
    pub dead_dcs: usize,
    /// Complete assignments rejected by the hypergraph's edge dedup
    /// (duplicate or degenerate edges — symmetric-variable permutations of
    /// an edge already stored, or pairs a bulk-emitted DC already owns).
    pub dedup_hits: usize,
    /// Enumeration depths driven by an equality atom's hash buckets.
    pub index_hash: usize,
    /// Enumeration depths driven by an ordering atom's sorted run.
    pub index_sorted: usize,
    /// Clique groups emitted for capacity DCs.
    pub capacity_groups: usize,
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
    }
}

/// How [`ConflictBuilder`] turns one DC into conflict structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DcRoute {
    /// Explicit edges, bulk-emitted or enumerated.
    Edges,
    /// Capacity-shaped, but some other live DC of its arity is not
    /// provably disjoint from it, so the two could emit one vertex set
    /// twice: explicit edges, deduplicated.
    CapacityEdges,
    /// Capacity-shaped and disjoint from every other live DC of its arity:
    /// one clique group per key value.
    Groups,
}

/// A reusable conflict-graph builder.
///
/// Compiling the [`DcPlan`]s once and reusing the scratch buffers matters
/// when the caller builds graphs for thousands of small partitions (Phase
/// II colors every `V_join` partition). Phase II compiles one builder and
/// clones it into each worker.
#[derive(Clone)]
pub struct ConflictBuilder {
    plans: Vec<DcPlan>,
    /// Per plan, its capacity shape when it takes the group route.
    groups: Vec<Option<CapacityShape>>,
    /// Execution order over `plans`: bulk-emitted DCs first (so unchecked
    /// bulk edges exist before any checked leaf has to dedup against
    /// them), then declaration order.
    dc_order: Vec<usize>,
    /// Bulk-emission slot per plan (bit position in the registry masks);
    /// `Some` for at most 64 pair DCs with at most one binary atom.
    bulk_slot: Vec<Option<u8>>,
    n_bulk: usize,
    /// Per-vertex registry masks: bit `k` of `bulk_a[v]` / `bulk_b[v]`
    /// records that `v` is in bulk DC `k`'s first / second candidate set.
    /// A pair `{s,t}` was bulk-emitted iff some DC has an `a`-member and a
    /// `b`-member on opposite ends — the dedup test both later bulk DCs and
    /// indexed arity-2 leaves apply before adding the pair again.
    bulk_a: Vec<u64>,
    bulk_b: Vec<u64>,
    /// `(cell value, candidate position)` scratch: the sorted run of a
    /// single-atom bulk DC over its second variable's candidates, or a
    /// capacity DC's candidates by key.
    bulk_run: Vec<(i64, u32)>,
    /// Candidate positions per tuple variable (indices into `rows`).
    cands: Vec<Vec<u32>>,
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
    driver_ix: Vec<Option<usize>>,
    stats: ConflictStats,
}

/// A unary atom resolved against a typed borrowed column view, so the
/// candidate pre-filter loop reads raw cells instead of constructing an
/// `Option<Value>` (and re-matching the column dtype) per row. `Never`
/// marks a dtype mismatch between the atom's constant and the column —
/// such an atom can hold on no row, exactly as the boxed evaluation
/// returns `false` on a type-mismatched comparison.
enum TypedUnary<'a> {
    Int(IntColumnView<'a>, CmpOp, i64),
    Sym(SymColumnView<'a>, CmpOp, Sym),
    Never,
}

impl TypedUnary<'_> {
    #[inline]
    fn eval(&self, row: RowId) -> bool {
        match self {
            TypedUnary::Int(cells, op, c) => cells.get(row).is_some_and(|x| op.test(x.cmp(c))),
            TypedUnary::Sym(cells, op, c) => cells.get(row).is_some_and(|x| op.test(x.cmp(c))),
            TypedUnary::Never => false,
        }
    }
}

/// One per-partition value index over a variable's candidate list. Only
/// the structure some driver atom actually probes is populated: hash
/// buckets for equality drivers, the sorted run for ordering drivers
/// (`has_*` records what was built, since a `(var, col)` pair can serve
/// both kinds across depths).
struct ValueIndex {
    var: usize,
    col: ColId,
    /// Hash buckets: cell value → candidate positions, ascending.
    buckets: HashMap<i64, Vec<u32>>,
    has_buckets: bool,
    /// Sorted run: `(cell value, candidate position)` ascending.
    run: Vec<(i64, u32)>,
    has_run: bool,
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
    /// Per depth: the scheduled atom that drives the candidate loop via an
    /// index probe (the first equality atom, else the first ordering
    /// atom), if any.
    drivers: &'a [Option<usize>],
    /// Per depth: the slot in `indexes` the driver probes (set iff
    /// `drivers[depth]` is).
    driver_ix: &'a [Option<usize>],
    /// Typed views of each binary atom's two columns, aligned with
    /// `plan.binary_atoms()`.
    atom_views: &'a [(IntColumnView<'a>, IntColumnView<'a>)],
    cands: &'a [Vec<u32>],
    indexes: &'a [ValueIndex],
    /// Bulk-emission registry masks (empty when no DC was bulk-emitted).
    /// Arity-2 leaves consult them: a pair some bulk DC already owns must
    /// not be added again (unchecked edges bypass the graph's own dedup).
    bulk_a: &'a [u64],
    bulk_b: &'a [u64],
    /// Per bulk slot: the DC's binary atom bound to typed views (`None`
    /// for pure-unary slots), plus the mask of pure-unary slots.
    bulk_preds: &'a [Option<BulkPred<'a>>],
    bulk_uncond: u64,
}

/// A bulk DC's single binary atom bound to typed column views — the
/// predicate the registry dedup tests re-evaluate: for these DCs the
/// membership masks only *nominate* a pair, the atom decides whether it
/// was actually emitted.
struct BulkPred<'v> {
    atom: BinaryAtomPlan,
    lview: IntColumnView<'v>,
    rview: IntColumnView<'v>,
}

impl BulkPred<'_> {
    /// The atom on the pair `(x bound to variable 0, y bound to
    /// variable 1)` — cell semantics identical to the enumerate
    /// verification (`eval_cells`).
    #[inline]
    fn eval(&self, rows: &[RowId], x: u32, y: u32) -> bool {
        let lpos = if self.atom.lvar == 0 { x } else { y };
        let rpos = if self.atom.rvar == 0 { x } else { y };
        self.atom.eval_cells(
            self.lview.get(rows[lpos as usize]),
            self.rview.get(rows[rpos as usize]),
        )
    }
}

/// `true` if a bulk DC whose slot bit is inside `limit` already emitted
/// `{s, t}`. The membership masks nominate candidate DCs per orientation;
/// pure-unary slots (the `uncond` mask) emit every nominated pair, the
/// rest only where their atom holds.
#[inline]
fn bulk_emitted(
    rows: &[RowId],
    bulk_a: &[u64],
    bulk_b: &[u64],
    preds: &[Option<BulkPred<'_>>],
    uncond: u64,
    limit: u64,
    (s, t): (u32, u32),
) -> bool {
    let m1 = bulk_a[s as usize] & bulk_b[t as usize] & limit;
    let m2 = bulk_a[t as usize] & bulk_b[s as usize] & limit;
    if (m1 | m2) & uncond != 0 {
        return true;
    }
    let mut m = (m1 | m2) & !uncond;
    while m != 0 {
        let k = m.trailing_zeros() as usize;
        let bit = 1u64 << k;
        m &= m - 1;
        let p = preds[k]
            .as_ref()
            .expect("conditional bulk slot has a predicate");
        if (m1 & bit != 0 && p.eval(rows, s, t)) || (m2 & bit != 0 && p.eval(rows, t, s)) {
            return true;
        }
    }
    false
}

impl ConflictBuilder {
    /// Compiles the DC set: plans are equality-saturated (merging
    /// interchangeable variables, detecting contradictions), routed (see
    /// [`DcRoute`]) and ordered with bulk-emittable pair DCs first.
    /// Everything else is decided per build from the partition's exact
    /// candidate lists, so the builder is reusable across any number of
    /// `(view, rows)` builds.
    pub fn new(dcs: &[BoundDc]) -> ConflictBuilder {
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
        let mut bulk_slot = vec![None; plans.len()];
        let mut n_bulk = 0usize;
        for (i, p) in plans.iter().enumerate() {
            // The registry masks are u64s, so at most 64 DCs can be
            // bulk-emitted; any excess enumerates (identical edges, just
            // slower).
            if groups[i].is_none() && p.is_bulk_pair() && !p.never_holds() && n_bulk < 64 {
                bulk_slot[i] = Some(n_bulk as u8);
                n_bulk += 1;
            }
        }
        let mut dc_order: Vec<usize> = (0..plans.len()).collect();
        dc_order.sort_by_key(|&i| (bulk_slot[i].is_none(), i));
        ConflictBuilder {
            plans,
            groups,
            dc_order,
            bulk_slot,
            n_bulk,
            bulk_a: Vec::new(),
            bulk_b: Vec::new(),
            bulk_run: Vec::new(),
            cands: Vec::new(),
            chosen: vec![0; max_arity],
            member: Vec::new(),
            generation: 0,
            edge_buf: Vec::new(),
            order: Vec::new(),
            sched: Vec::new(),
            drivers: Vec::new(),
            driver_ix: Vec::new(),
            stats: ConflictStats::default(),
        }
    }

    /// The route DC `dc` (an index into the builder's DC list) takes.
    pub fn route(&self, dc: usize) -> DcRoute {
        if self.groups[dc].is_some() {
            DcRoute::Groups
        } else if self.plans[dc].capacity_shape().is_some() {
            DcRoute::CapacityEdges
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

    /// Builds the conflict hypergraph over `rows` of `view` (vertex `i`
    /// corresponds to `rows[i]`): explicit edges plus the capacity DCs'
    /// clique groups.
    pub fn build(&mut self, view: &Relation, rows: &[RowId]) -> Hypergraph {
        let mut g = Hypergraph::new(rows.len());
        if self.member.len() < rows.len() {
            self.member.resize(rows.len(), 0);
        }
        if self.n_bulk > 0 {
            if self.bulk_a.len() < rows.len() {
                self.bulk_a.resize(rows.len(), 0);
                self.bulk_b.resize(rows.len(), 0);
            }
            self.bulk_a[..rows.len()].fill(0);
            self.bulk_b[..rows.len()].fill(0);
        }
        let plans = std::mem::take(&mut self.plans);
        let dc_order = std::mem::take(&mut self.dc_order);
        // Per-slot predicate table for the registry dedup tests. A
        // single-atom bulk DC whose columns fail to type as integers stays
        // `None`: `build_one_dc` kills such a DC before it registers any
        // membership bit, so its entry is never consulted.
        let mut bulk_preds: Vec<Option<BulkPred<'_>>> = Vec::new();
        let mut bulk_uncond = 0u64;
        if self.n_bulk > 0 {
            bulk_preds.resize_with(self.n_bulk, || None);
            for (i, plan) in plans.iter().enumerate() {
                let Some(k) = self.bulk_slot[i] else { continue };
                match plan.binary_atoms() {
                    [] => bulk_uncond |= 1u64 << k,
                    [atom] => {
                        if let (Some(l), Some(r)) =
                            (view.int_view(atom.lcol), view.int_view(atom.rcol))
                        {
                            bulk_preds[k as usize] = Some(BulkPred {
                                atom: *atom,
                                lview: l,
                                rview: r,
                            });
                        }
                    }
                    _ => unreachable!("bulk slots hold at most one binary atom"),
                }
            }
        }
        for &ix in &dc_order {
            let bulk = self.bulk_slot[ix];
            self.build_one_dc(
                view,
                rows,
                &plans[ix],
                self.groups[ix],
                bulk,
                &bulk_preds,
                bulk_uncond,
                &mut g,
            );
        }
        self.plans = plans;
        self.dc_order = dc_order;
        g
    }

    #[allow(clippy::too_many_arguments)] // private per-DC driver of `build`
    fn build_one_dc(
        &mut self,
        view: &Relation,
        rows: &[RowId],
        plan: &DcPlan,
        capacity: Option<CapacityShape>,
        bulk: Option<u8>,
        bulk_preds: &[Option<BulkPred<'_>>],
        bulk_uncond: u64,
        g: &mut Hypergraph,
    ) {
        if plan.never_holds() {
            // Equality saturation found contradictory atoms at compile
            // time (e.g. `t1.A = t2.A + 1 ∧ t2.A = t1.A`).
            self.stats.dead_dcs += 1;
            return;
        }
        let arity = plan.arity();
        // Typed views for every binary atom column. A binary atom over a
        // non-integer column can never hold (missing/typed-out cells make
        // the atom false), so the whole DC is dead.
        let mut atom_views: Vec<(IntColumnView<'_>, IntColumnView<'_>)> =
            Vec::with_capacity(plan.binary_atoms().len());
        for atom in plan.binary_atoms() {
            match (view.int_view(atom.lcol), view.int_view(atom.rcol)) {
                (Some(l), Some(r)) => atom_views.push((l, r)),
                _ => {
                    self.stats.dead_dcs += 1;
                    return;
                }
            }
        }

        // Candidate positions per variable: the unary pre-filter, run
        // through typed column views (the loop visits |P| · arity rows per
        // DC and is itself hot on index-free DCs). A capacity DC's
        // variables share one filter, so it filters once.
        let filtered = if capacity.is_some() { 1 } else { arity };
        while self.cands.len() < filtered {
            self.cands.push(Vec::new());
        }
        for var in 0..filtered {
            let filters: Vec<TypedUnary<'_>> = plan
                .unary_filters(var)
                .iter()
                .map(|f| match f.value {
                    Value::Int(c) => view
                        .int_view(f.col)
                        .map_or(TypedUnary::Never, |cells| TypedUnary::Int(cells, f.op, c)),
                    Value::Str(s) => view
                        .sym_view(f.col)
                        .map_or(TypedUnary::Never, |cells| TypedUnary::Sym(cells, f.op, s)),
                })
                .collect();
            let cand = &mut self.cands[var];
            cand.clear();
            for (pos, &row) in rows.iter().enumerate() {
                if filters.iter().all(|f| f.eval(row)) {
                    cand.push(pos as u32);
                }
            }
            if cand.is_empty() {
                self.stats.dead_dcs += 1;
                return;
            }
        }

        if let Some(shape) = capacity {
            self.emit_groups(shape, view, rows, g);
            return;
        }

        // Bulk emission: a pair DC with at most one binary atom writes its
        // edges directly — no enumeration, no per-edge hashing — after
        // recording membership in the registry masks that later emitters
        // dedup against.
        if let Some(k) = bulk {
            self.emit_bulk_pairs(plan, k, rows, &atom_views, bulk_preds, bulk_uncond, g);
            return;
        }

        // Variable order from the exact candidate counts: start from the
        // smallest candidate list; then prefer variables linked by a
        // binary atom to the already-ordered set (so an index can drive
        // their loop), breaking ties by candidate count, then variable
        // index. The var-index tie-break keeps interchangeable variables
        // in original relative order, which the symmetry dedup relies on.
        plan_order(plan, &self.cands[..arity], &mut self.order);
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
            // and `≠` has no index.
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

        // Per-partition value indexes for the driver atoms' probe columns:
        // every driver depth is indexed, building only the structure its
        // driver probes (buckets for equality, the sorted run for
        // ordering); the slot per depth lets enumeration probe by direct
        // array read.
        let mut indexes: Vec<ValueIndex> = Vec::new();
        self.driver_ix.clear();
        self.driver_ix.resize(arity, None);
        for depth in 0..arity {
            let Some(a) = drivers[depth] else { continue };
            let atom = &plan.binary_atoms()[a];
            if atom.is_equality() {
                self.stats.index_hash += 1;
            } else {
                self.stats.index_sorted += 1;
            }
            let var = order[depth];
            let col = if atom.lvar == var {
                atom.lcol
            } else {
                atom.rcol
            };
            let slot = match indexes.iter().position(|ix| ix.var == var && ix.col == col) {
                Some(slot) => slot,
                None => {
                    indexes.push(ValueIndex {
                        var,
                        col,
                        buckets: HashMap::new(),
                        has_buckets: false,
                        run: Vec::new(),
                        has_run: false,
                    });
                    indexes.len() - 1
                }
            };
            let cells = view.int_view(col).expect("validated above");
            let ix = &mut indexes[slot];
            if atom.is_equality() && !ix.has_buckets {
                for &pos in &self.cands[var] {
                    if let Some(v) = cells.get(rows[pos as usize]) {
                        ix.buckets.entry(v).or_default().push(pos);
                    }
                }
                ix.has_buckets = true;
                self.stats.indexes_built += 1;
            } else if !atom.is_equality() && !ix.has_run {
                ix.run.reserve(self.cands[var].len());
                for &pos in &self.cands[var] {
                    if let Some(v) = cells.get(rows[pos as usize]) {
                        ix.run.push((v, pos));
                    }
                }
                ix.run.sort_unstable();
                ix.has_run = true;
                self.stats.indexes_built += 1;
            }
            self.driver_ix[depth] = Some(slot);
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
            driver_ix: &self.driver_ix,
            atom_views: &atom_views,
            cands: &self.cands[..arity],
            indexes: &indexes,
            bulk_a: &self.bulk_a,
            bulk_b: &self.bulk_b,
            bulk_preds,
            bulk_uncond,
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

    /// Adds a capacity DC's clique groups: its candidates (already in
    /// `self.cands[0]`) grouped by key value, or all of them when the DC
    /// has no key. Rows missing the key join no group, as they fail every
    /// `=` atom, and a group under `k` members stands for no edge.
    fn emit_groups(
        &mut self,
        shape: CapacityShape,
        view: &Relation,
        rows: &[RowId],
        g: &mut Hypergraph,
    ) {
        let cand = &self.cands[0];
        let Some(key) = shape.key else {
            if cand.len() >= shape.k {
                g.add_clique_group(shape.k, cand);
                self.stats.capacity_groups += 1;
            }
            return;
        };
        let cells = view
            .int_view(key)
            .expect("build_one_dc kills a DC whose key column is not integer");
        let run = &mut self.bulk_run;
        run.clear();
        run.extend(
            cand.iter()
                .filter_map(|&p| cells.get(rows[p as usize]).map(|v| (v, p))),
        );
        run.sort_unstable();
        let members = &mut self.edge_buf;
        for same_key in run.chunk_by(|a, b| a.0 == b.0) {
            if same_key.len() >= shape.k {
                members.clear();
                members.extend(same_key.iter().map(|&(_, p)| p));
                g.add_clique_group(shape.k, members);
                self.stats.capacity_groups += 1;
            }
        }
    }

    /// Writes a bulk DC's pairs straight into the graph. The candidate
    /// sets are already in `self.cands[0..2]`; `k` is the DC's registry
    /// bit. A pure-unary DC emits a bi-clique (identical candidate sets
    /// make it a clique, each pair visited once in ascending order); a
    /// single-atom DC sorts the second variable's candidates by the atom
    /// column and emits one violation window per first-variable candidate.
    /// Mirrored visits emit canonically on the one whose first-set element
    /// is smaller; pairs some earlier bulk DC already owns are skipped via
    /// the registry, so unchecked adds stay unique.
    #[allow(clippy::too_many_arguments)] // private helper of `build_one_dc`
    fn emit_bulk_pairs(
        &mut self,
        plan: &DcPlan,
        k: u8,
        rows: &[RowId],
        atom_views: &[(IntColumnView<'_>, IntColumnView<'_>)],
        bulk_preds: &[Option<BulkPred<'_>>],
        bulk_uncond: u64,
        g: &mut Hypergraph,
    ) {
        debug_assert_eq!(plan.arity(), 2);
        let bit = 1u64 << k;
        let earlier = bit - 1;
        let emitted_before = |a: &[u64], b: &[u64], s: u32, t: u32| {
            bulk_emitted(rows, a, b, bulk_preds, bulk_uncond, earlier, (s, t))
        };
        if let [atom] = plan.binary_atoms() {
            // Single-atom DC: one sorted run over variable 1's candidates,
            // keyed by the column the atom reads there; each variable-0
            // candidate probes its violation window (the bulk analogue of
            // the enumerate driver probe — same pairs, no per-pair
            // verification or hashing).
            let (ca, cb) = (&self.cands[0], &self.cands[1]);
            for &p in ca {
                self.bulk_a[p as usize] |= bit;
            }
            for &p in cb {
                self.bulk_b[p as usize] |= bit;
            }
            let (lv, rv) = &atom_views[0];
            let (v0_view, v1_view) = if atom.lvar == 0 { (lv, rv) } else { (rv, lv) };
            let own = BulkPred {
                atom: *atom,
                lview: *lv,
                rview: *rv,
            };
            let mut run = std::mem::take(&mut self.bulk_run);
            run.clear();
            for &p in cb {
                if let Some(v) = v1_view.get(rows[p as usize]) {
                    run.push((v, p));
                }
            }
            run.sort_unstable();
            for &u in &self.cands[0] {
                // A missing cell fails the atom against every partner.
                let Some(o) = v0_view.get(rows[u as usize]) else {
                    continue;
                };
                // Up to two run windows, exact for every offset.
                let (w1, w2) = probe_windows(atom, 1, o, &run);
                for &(_, v) in run[w1].iter().chain(run[w2].iter()) {
                    if v == u {
                        continue;
                    }
                    // Mirrored visit `(v, u)`: emit only here if it does
                    // not qualify, or `u` is the smaller element.
                    if u > v
                        && self.bulk_a[v as usize] & bit != 0
                        && self.bulk_b[u as usize] & bit != 0
                        && own.eval(rows, v, u)
                    {
                        continue;
                    }
                    let (s, t) = if u < v { (u, v) } else { (v, u) };
                    if emitted_before(&self.bulk_a, &self.bulk_b, s, t) {
                        self.stats.dedup_hits += 1;
                        continue;
                    }
                    g.add_sorted_edge_unchecked(&[s, t]);
                }
            }
            self.bulk_run = run;
        } else {
            let (ca, cb) = (&self.cands[0], &self.cands[1]);
            for &p in ca {
                self.bulk_a[p as usize] |= bit;
            }
            for &p in cb {
                self.bulk_b[p as usize] |= bit;
            }
            g.reserve_edges(ca.len() * cb.len(), 2);
            for &u in ca {
                for &v in cb {
                    if u == v {
                        continue;
                    }
                    // The mirrored visit `(v, u)` exists iff both rows hold
                    // both memberships; only the visit whose first-set
                    // element is smaller emits then.
                    if u > v
                        && self.bulk_a[v as usize] & bit != 0
                        && self.bulk_b[u as usize] & bit != 0
                    {
                        continue;
                    }
                    let (s, t) = if u < v { (u, v) } else { (v, u) };
                    if emitted_before(&self.bulk_a, &self.bulk_b, s, t) {
                        self.stats.dedup_hits += 1;
                        continue;
                    }
                    g.add_sorted_edge_unchecked(&[s, t]);
                }
            }
        }
    }
}

/// The (up to two) ranges of the sorted run `run` of `var`'s cells that
/// satisfy `atom` against the other side's cell `o`: one window for an
/// ordering atom or an equality (its equal run), two for `≠` (the
/// complement). The bound `o ± offset` is taken in `i128`, so it is exact
/// for every offset; one clamp per search keeps the run's comparisons in
/// `i64`, and a bound beyond either end of `i64` selects the whole run or
/// none of it.
fn probe_windows(
    atom: &BinaryAtomPlan,
    var: usize,
    o: i64,
    run: &[(i64, u32)],
) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    // Length of the run's prefix with cells at most `b`.
    let upto = |b: i128| match i64::try_from(b) {
        Ok(b) => run.partition_point(|&(v, _)| v <= b),
        Err(_) if b < 0 => 0,
        Err(_) => run.len(),
    };
    // The window is `l ◦ (o + off)` when `var` is the atom's left side;
    // otherwise `o ◦ (r + off)` ⇔ `r ◦' (o − off)` with the comparison
    // flipped.
    let (o, off) = (i128::from(o), i128::from(atom.offset));
    let (b, flip) = if atom.lvar == var {
        (o + off, false)
    } else {
        (o - off, true)
    };
    let (all, none) = (run.len(), 0..0);
    match (atom.op, flip) {
        (CmpOp::Eq, _) => (upto(b - 1)..upto(b), none),
        (CmpOp::Ne, _) => (0..upto(b - 1), upto(b)..all),
        (CmpOp::Lt, false) | (CmpOp::Gt, true) => (0..upto(b - 1), none),
        (CmpOp::Le, false) | (CmpOp::Ge, true) => (0..upto(b), none),
        (CmpOp::Gt, false) | (CmpOp::Lt, true) => (upto(b)..all, none),
        (CmpOp::Ge, false) | (CmpOp::Le, true) => (upto(b - 1)..all, none),
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

/// Variable ordering from the exact per-partition candidate counts (see
/// `build_one_dc`), written into the reused `order` scratch. `used` is a
/// bitmask — arity is tiny.
fn plan_order(plan: &DcPlan, cands: &[Vec<u32>], order: &mut Vec<usize>) {
    let arity = plan.arity();
    order.clear();
    let mut used = 0u64;
    for _ in 0..arity {
        let mut best: Option<(bool, usize, usize)> = None; // (!linked, count, var)
        for (var, cand) in cands.iter().enumerate().take(arity) {
            if used & (1 << var) != 0 {
                continue;
            }
            let linked = plan.binary_atoms().iter().any(|a| {
                a.involves(var) && a.lvar != a.rvar && used & (1 << a.other_var(var)) != 0
            });
            let key = (!linked, cand.len(), var);
            if best.is_none() || key < best.expect("checked") {
                best = Some(key);
            }
        }
        let (_, _, var) = best.expect("arity variables to order");
        used |= 1 << var;
        order.push(var);
    }
}

/// Assigns variables depth by depth, probing indexes and verifying every
/// newly-complete binary atom on the partial assignment; a complete
/// assignment is a conflict edge (φ already verified — no leaf `holds`).
fn enumerate(ctx: &DcCtx<'_>, state: &mut EnumState<'_>, depth: usize, g: &mut Hypergraph) {
    let arity = ctx.plan.arity();
    if depth == arity {
        state.edge_buf.clear();
        state.edge_buf.extend_from_slice(&state.chosen[..arity]);
        state.edge_buf.sort_unstable();
        // Pairs a bulk DC already emitted bypass the graph's fingerprint
        // dedup (unchecked adds), so arity-2 leaves check the registry.
        // Higher arities cannot collide with a 2-vertex edge.
        if arity == 2 && !ctx.bulk_a.is_empty() {
            let (s, t) = (state.edge_buf[0], state.edge_buf[1]);
            if bulk_emitted(
                ctx.rows,
                ctx.bulk_a,
                ctx.bulk_b,
                ctx.bulk_preds,
                ctx.bulk_uncond,
                u64::MAX,
                (s, t),
            ) {
                state.stats.dedup_hits += 1;
                return;
            }
        }
        if g.add_sorted_edge(state.edge_buf).is_none() {
            state.stats.dedup_hits += 1;
        }
        return;
    }
    let var = ctx.order[depth];

    // Narrow the candidate loop through the driver atom's index; a depth
    // without a driver scans the variable's unary-filtered candidates.
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
        let ix = &ctx.indexes[ctx.driver_ix[depth].expect("driver has an index slot")];
        if atom.is_equality() {
            // `l = r + off`: probing the l side needs `o + off`, the r side
            // `o − off`; a target beyond `i64` has no bucket.
            let off = i128::from(atom.offset);
            let target = if atom.lvar == var {
                i128::from(o) + off
            } else {
                i128::from(o) - off
            };
            state.stats.eq_probes += 1;
            let bucket = i64::try_from(target)
                .ok()
                .and_then(|t| ix.buckets.get(&t))
                .map_or(&[][..], Vec::as_slice);
            for &pos in bucket {
                try_candidate(ctx, state, depth, var, pos, Some(a), g);
            }
        } else {
            state.stats.range_probes += 1;
            let (window, _) = probe_windows(atom, var, o, &ix.run);
            for &(_, pos) in &ix.run[window] {
                try_candidate(ctx, state, depth, var, pos, Some(a), g);
            }
        }
        return;
    }
    state.stats.scanned_candidates += ctx.cands[var].len();
    for i in 0..ctx.cands[var].len() {
        let pos = ctx.cands[var][i];
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
        let mut builder = ConflictBuilder::new(dcs);
        let built = builder.build(view, rows);
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
        // both 75-year-old owners (2 explicit edges); children (age 10)
        // conflict with the multi-lingual 75-year-old owner via DC_OC_low
        // (10 < 75−50) — and with no one else: for the multi-lingual
        // 25-year-old, 10 > 25−12 is false.
        assert_eq!((g.n_groups(), g.n_edges()), (1, 2 + 2));
        assert_eq!(total_edges(&g), 6 + 2 + 2);
        // NYC partition: two owners, one group of one edge.
        let rows: Vec<RowId> = vec![7, 8];
        let g = build_both(&r1, &rows, &dcs);
        assert_eq!((g.n_groups(), g.n_edges()), (1, 0));
        assert_eq!(total_edges(&g), 1);
    }

    #[test]
    fn symmetric_dcs_do_not_duplicate_edges() {
        // The owner-owner DC alone is one clique group standing for the
        // one undirected edge. Declared twice, neither copy is disjoint
        // from the other, so both emit explicit edges and the second copy
        // dedups against the first: still one edge.
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
        let builder = ConflictBuilder::new(&dcs);
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
            let builder = ConflictBuilder::new(&bound);
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
        assert_eq!(
            routes(&[excl_a, excl_b, same_key]),
            [CapacityEdges, CapacityEdges, CapacityEdges]
        );
        // A gap pair whose second variable is pinned off `a`.
        assert_eq!(
            routes(&[
                excl_a,
                r#"!(t1.Kind = "a" & t2.Kind = "b" & t2.Key > t1.Key & t1.fk = t2.fk)"#
            ]),
            [Groups, Edges]
        );
    }

    /// Persons with a mix of categorical and integer attributes, used by
    /// the bulk-emission tests below.
    fn bulk_fixture() -> Relation {
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
    fn bulk_emission_dedups_overlapping_cliques_and_indexed_leaves() {
        use cextend_constraints::parse_dc;
        let r = bulk_fixture();
        let dcs: Vec<BoundDc> = [
            // Bulk clique over the three owners.
            r#"!(t1.Rel = "Owner" & t2.Rel = "Owner" & t1.fk = t2.fk)"#,
            // Bulk bi-clique: spouse × partner.
            r#"!(t1.Rel = "Spouse" & t2.Rel = "Partner" & t1.fk = t2.fk)"#,
            // Bulk clique over all five rows — covers both DCs above.
            "!(t1.Age >= 30 & t2.Age >= 30 & t1.fk = t2.fk)",
            // Single-atom bulk (equal-age windows); its pairs are covered
            // by the big clique too.
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
        let rows: Vec<RowId> = (0..5).collect();
        let (g, stats) = build_both_with_stats(&r, &rows, &dcs);
        // The Age ≥ 30 clique subsumes everything: C(5,2) edges.
        assert_eq!(g.n_edges(), 10);
        // Owner clique (3 pairs) + spouse×partner (1) rediscovered by the
        // big clique, plus the same-age DC's two pairs — every DC here is
        // bulk-emitted, so nothing enumerates and no index is built.
        assert_eq!(stats.dedup_hits, 6);
        assert_eq!(stats.index_hash + stats.index_sorted, 0);
        assert_eq!(stats.indexes_built, 0);
    }

    #[test]
    fn bulk_cross_with_overlapping_sides_emits_each_pair_once() {
        use cextend_constraints::parse_dc;
        let r = bulk_fixture();
        // Sides overlap: Age ≥ 30 is {0,1,2,3,4}, Age ≥ 35 is {1,3,4};
        // rows holding both memberships exercise the canonical-visit rule.
        let dc = parse_dc("x", "!(t1.Age >= 30 & t2.Age >= 35 & t1.fk = t2.fk)", "fk")
            .unwrap()
            .bind(r.schema(), "Persons")
            .unwrap();
        let rows: Vec<RowId> = (0..5).collect();
        let g = build_both(&r, &rows, &[dc]);
        // {u,v} with at least one side ≥ 35: all pairs except those wholly
        // inside {0,2} (ages 30,30): C(5,2) − 1.
        assert_eq!(g.n_edges(), 9);
    }

    #[test]
    fn single_atom_bulk_windows_match_enumeration() {
        use cextend_constraints::parse_dc;
        let r = bulk_fixture();
        let rows: Vec<RowId> = (0..5).collect();
        // Each DC alone and the whole overlapping set: ordering atoms with
        // offsets on both orientations, inequality, and an offset equality
        // — every single-atom window kind against the enumerate oracle.
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
        // The registry dedup is predicate-aware: a mask hit alone (shared
        // membership under DC w2, whose candidate lists are all five rows)
        // must not suppress pairs w2 itself never emitted.
        assert!(stats.dedup_hits > 0);
    }

    #[test]
    fn builder_skips_contradictory_dcs() {
        use cextend_constraints::parse_dc;
        let r = bulk_fixture();
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
        let mut builder = ConflictBuilder::new(&dcs);
        let a = builder.build(&r1, &rows);
        let once = builder.stats();
        let b = builder.build(&r1, &rows);
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

    /// Two ordering atoms on one column: not bulk-emittable, so the pair
    /// enumerates, and its second depth runs through a sorted run.
    const BAND: &str = "!(t2.Age > t1.Age + 1 & t2.Age < t1.Age + 6 & t1.fk = t2.fk)";

    #[test]
    fn band_pair_drives_a_sorted_run() {
        let r = ages_fixture(24);
        let rows: Vec<RowId> = (0..24).collect();
        let (g, stats) = build_both_with_stats(&r, &rows, &bind_all(&r, &[BAND]));
        assert!(g.n_edges() > 0);
        assert_eq!((stats.index_sorted, stats.index_hash), (1, 0));
        assert_eq!(stats.indexes_built, 1);
        // Depth 0 scans its 24 candidates; depth 1 probes once per row.
        assert_eq!(stats.range_probes, 24);
        assert_eq!(stats.scanned_candidates, 24);
    }

    /// The band with its driving atom's offset one below `i64::MAX`: the
    /// bound `t1.Age + offset` leaves `i64` for every row, and compared
    /// exactly it admits the whole run, so depth 1 still probes instead of
    /// scanning.
    #[test]
    fn a_bound_beyond_i64_still_probes_the_sorted_run() {
        let r = ages_fixture(24);
        let rows: Vec<RowId> = (0..24).collect();
        let band = "!(t2.Age < t1.Age + 9223372036854775806 & t2.Age > t1.Age + 1 & t1.fk = t2.fk)";
        let (g, stats) = build_both_with_stats(&r, &rows, &bind_all(&r, &[band]));
        assert!(g.n_edges() > 0);
        assert_eq!(stats.range_probes, 24);
        assert_eq!(stats.scanned_candidates, 24, "only depth 0 scans");
    }

    #[test]
    fn equality_drives_over_an_earlier_ordering_atom() {
        let r = ages_fixture(24);
        let rows: Vec<RowId> = (0..24).collect();
        // Both binary atoms complete at depth 1; the ordering atom comes
        // first, the equality atom drives.
        let dcs = bind_all(
            &r,
            &["!(t1.Age < t2.Age & t1.Grp = t2.Grp & t1.fk = t2.fk)"],
        );
        let (g, stats) = build_both_with_stats(&r, &rows, &dcs);
        assert!(g.n_edges() > 0);
        assert_eq!((stats.index_hash, stats.index_sorted), (1, 0));
        assert_eq!((stats.eq_probes, stats.range_probes), (24, 0));
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
        // Partitions of one to six rows: every driver depth still builds
        // its index, so only depth 0 scans.
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
                    // enumerates through hash buckets.
                    "!(t1.Grp = t2.Grp & t2.Grp = t3.Grp & t1.Age >= 0 & t1.fk = t2.fk & t2.fk = t3.fk)",
                ],
            );
            let (_, stats) = build_both_with_stats(&r, &rows, &dcs);
            assert_eq!(stats.dead_dcs, 0, "{n} rows");
            assert_eq!(stats.index_sorted, 1, "{n} rows");
            assert_eq!(stats.index_hash, 1 + 2, "{n} rows");
            assert_eq!(stats.scanned_candidates, 3 * n, "{n} rows");
        }
    }
}
