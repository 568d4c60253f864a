//! Phase II: reverse-engineering `R1.FK` from the completed view
//! (Section 5, Algorithm 4).
//!
//! The view is partitioned by its assigned `B` values; each partition's
//! conflict hypergraph is list-colored with the matching `R2` keys as
//! colors; skipped vertices get fresh keys (new `R̂2` tuples); invalid
//! tuples are placed last with CC-error-minimizing combos. The result
//! satisfies every DC (Proposition 5.5) and joins back to exactly the view.

pub(crate) mod assign;
pub(crate) mod conflict;
pub(crate) mod invalid;

use crate::config::{Phase2Strategy, SolverConfig};
use crate::error::{CoreError, Result};
use crate::instance::CExtensionInstance;
use crate::phase1::{Combo, P1};
use crate::phase2::conflict::ConflictBuilder;
use crate::report::{SolveStats, StageTimings};
use cextend_constraints::BoundDc;
use cextend_obs::tracef;
use cextend_table::{ColId, Dtype, Relation, RowId, Sym, Value};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// Mints fresh `R2` key values that collide with nothing.
enum KeyMinter {
    /// Integer keys count up from just above `R2`'s largest key. Should
    /// that run past `i64::MAX` (`next` is `None`), minting restarts at
    /// `i64::MIN` and skips every key `R̂2` held at the switch: `held`,
    /// ascending, with `at` its first entry not yet passed.
    Int {
        next: Option<i64>,
        held: Vec<i64>,
        at: usize,
    },
    Str {
        counter: usize,
        used: std::collections::HashSet<Sym>,
    },
}

impl KeyMinter {
    fn new(r2: &Relation, k2: ColId) -> KeyMinter {
        match r2.schema().column(k2).dtype {
            Dtype::Int => KeyMinter::Int {
                next: r2
                    .int_range(k2)
                    .map_or(Some(1), |(_, max)| max.checked_add(1)),
                held: Vec::new(),
                at: 0,
            },
            Dtype::Str => {
                let used = r2.rows().filter_map(|r| r2.get_sym(r, k2)).collect();
                KeyMinter::Str { counter: 0, used }
            }
        }
    }

    /// A key that neither `r2_hat` (`R2` plus every tuple minted so far)
    /// nor any earlier mint holds.
    fn mint(&mut self, r2_hat: &Relation, k2: ColId) -> Value {
        match self {
            KeyMinter::Int { next, held, at } => {
                if next.is_none() {
                    let keys = r2_hat.int_view(k2).expect("int key column");
                    *held = r2_hat.rows().filter_map(|r| keys.get(r)).collect();
                    held.sort_unstable();
                    held.dedup();
                    *next = Some(i64::MIN);
                    *at = 0;
                }
                loop {
                    let v = next.expect("R̂2 holds fewer than 2^64 keys");
                    *next = v.checked_add(1);
                    while held.get(*at).is_some_and(|&h| h < v) {
                        *at += 1;
                    }
                    if held.get(*at) != Some(&v) {
                        return Value::Int(v);
                    }
                }
            }
            KeyMinter::Str { counter, used } => loop {
                let candidate = Sym::intern(&format!("fresh-key-{counter}"));
                *counter += 1;
                if !used.contains(&candidate) {
                    used.insert(candidate);
                    return Value::Str(candidate);
                }
            },
        }
    }
}

/// The `R̂2` side of Phase II: `R2` plus minted tuples, the households of
/// each combo, their members and the key minter. It is everything the
/// streaming coloring sink mutates, kept apart from the view so that
/// workers read [`Phase2Ctx::view`] while the sink mints.
pub(crate) struct Households {
    /// `R2` plus minted tuples.
    r2_hat: Relation,
    k2: ColId,
    /// `R2`'s attribute columns and, aligned, the combo position a minted
    /// tuple takes each from (`None`: copied from a donor household).
    attr_ids: Vec<ColId>,
    attr_combo_pos: Vec<Option<usize>>,
    /// `R̂2` rows per combo, in insertion order.
    combo_rows: HashMap<Combo, Vec<usize>>,
    /// Per `R̂2` row, the view rows assigned to it.
    members: Vec<Vec<RowId>>,
    minter: KeyMinter,
}

impl Households {
    /// `R2`'s households, grouped by their combo over `r2_cc_cols`.
    fn build(r2: &Relation, r2_cc_cols: &[String]) -> Result<Households> {
        let k2 = r2.schema().key_col().expect("validated");
        let r2_cc_col_ids: Vec<ColId> = r2_cc_cols
            .iter()
            .map(|c| r2.schema().require(c, r2.name()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let attr_ids = r2.schema().attr_cols();
        let attr_combo_pos = attr_ids
            .iter()
            .map(|&c| {
                let name = &r2.schema().column(c).name;
                r2_cc_cols.iter().position(|cc| cc == name)
            })
            .collect();
        // Group R2 rows by combo — one dictionary-code group-by instead of
        // a boxed-Value key per row; rows with missing combo cells (keys
        // containing `None`) are dropped.
        let grouped = cextend_table::marginals::group_rows(r2, &r2_cc_col_ids);
        let mut combo_rows: HashMap<Combo, Vec<usize>> = HashMap::new();
        for (key, rows) in grouped.iter() {
            if key.iter().any(Option::is_none) {
                continue;
            }
            let combo: Combo = key.iter().map(|v| v.expect("checked")).collect();
            combo_rows.insert(combo, rows.to_vec());
        }
        Ok(Households {
            r2_hat: r2.clone(),
            k2,
            attr_ids,
            attr_combo_pos,
            combo_rows,
            members: vec![Vec::new(); r2.n_rows()],
            minter: KeyMinter::new(r2, k2),
        })
    }

    /// `R̂2` rows (households) carrying `combo`.
    pub fn of_combo(&self, combo: &[Value]) -> &[usize] {
        self.combo_rows.get(combo).map_or(&[], Vec::as_slice)
    }

    /// The view rows currently assigned to household `r2_row`.
    pub fn members(&self, r2_row: usize) -> &[RowId] {
        &self.members[r2_row]
    }

    /// Appends a fresh household with `combo` values; other attribute
    /// columns are inherited from the first existing household of the same
    /// combo (the paper's new tuples copy the partition's `B` values).
    pub fn mint(&mut self, combo: &[Value]) -> Result<usize> {
        let donor = self.of_combo(combo).first().copied();
        let key = self.minter.mint(&self.r2_hat, self.k2);
        let mut row: Vec<Option<Value>> = vec![None; self.r2_hat.schema().len()];
        row[self.k2] = Some(key);
        for (&c, pos) in self.attr_ids.iter().zip(&self.attr_combo_pos) {
            row[c] = match pos {
                Some(p) => Some(combo[*p]),
                None => donor.and_then(|d| self.r2_hat.get(d, c)),
            };
        }
        let new_row = self.r2_hat.push_row(&row)?;
        self.combo_rows
            .entry(combo.to_vec())
            .or_default()
            .push(new_row);
        self.members.push(Vec::new());
        Ok(new_row)
    }
}

/// Phase II working state shared by the coloring and invalid-handling steps:
/// Phase I's context, moved in, plus the assignment state.
pub(crate) struct Phase2Ctx {
    /// The completed view (B columns filled progressively).
    pub view: Relation,
    /// Distinct existing combos over the CC-referenced `R2` columns.
    pub combos: Vec<Combo>,
    /// The CC-referenced `R2` columns the combos range over.
    r2_cc_cols: Vec<String>,
    view_cc_ids: Vec<ColId>,
    /// The view ids of `R2`'s attribute columns, aligned with
    /// `Households::attr_ids`.
    view_r2_attr_ids: Vec<ColId>,
    /// Per view row, the assigned `R̂2` row.
    row_key: Vec<Option<usize>>,
    /// `R̂2` and its households; all the coloring sink writes.
    pub households: Households,
    /// Seeded RNG for the random-assignment baseline.
    rng: StdRng,
}

impl Phase2Ctx {
    fn build(instance: &CExtensionInstance, p1: P1) -> Result<Phase2Ctx> {
        let P1 {
            view,
            r2_cc_cols,
            view_cc_ids,
            combos,
            rng,
            ..
        } = p1;
        let r2 = &instance.r2;
        let households = Households::build(r2, &r2_cc_cols)?;
        let view_r2_attr_ids = households
            .attr_ids
            .iter()
            .map(|&c| {
                view.schema()
                    .require(&r2.schema().column(c).name, view.name())
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(Phase2Ctx {
            row_key: vec![None; view.n_rows()],
            view,
            combos,
            r2_cc_cols,
            view_cc_ids,
            view_r2_attr_ids,
            households,
            rng,
        })
    }

    /// Assigns view row `row` to household `r2_row`: records membership and
    /// copies every `R2` attribute of the household into the view (so the
    /// final view equals `R̂1 ⋈ R̂2` cell for cell).
    pub fn assign_row(&mut self, row: RowId, r2_row: usize) -> Result<()> {
        debug_assert!(self.row_key[row].is_none(), "row {row} assigned twice");
        self.row_key[row] = Some(r2_row);
        let hh = &mut self.households;
        hh.members[r2_row].push(row);
        for (&vc, &rc) in self.view_r2_attr_ids.iter().zip(&hh.attr_ids) {
            self.view.set(row, vc, hh.r2_hat.get(r2_row, rc))?;
        }
        Ok(())
    }

    /// [`Phase2Ctx::assign_row`] over a whole batch, column at a time: the
    /// membership bookkeeping runs in batch order (so `members` matches the
    /// row-at-a-time path exactly), then each `R2` attribute column is
    /// copied into the view with one typed bulk write instead of a boxed
    /// [`Relation::set`] per cell. Household cells that are missing fall
    /// back to a per-cell blank — the batch API only writes present values.
    pub fn assign_rows_bulk(&mut self, assignments: &[(RowId, usize)]) -> Result<()> {
        let hh = &mut self.households;
        for &(row, r2_row) in assignments {
            debug_assert!(self.row_key[row].is_none(), "row {row} assigned twice");
            self.row_key[row] = Some(r2_row);
            hh.members[r2_row].push(row);
        }
        let mut ints: Vec<(RowId, i64)> = Vec::new();
        let mut syms: Vec<(RowId, Sym)> = Vec::new();
        let mut blanks: Vec<RowId> = Vec::new();
        for (&vc, &rc) in self.view_r2_attr_ids.iter().zip(&hh.attr_ids) {
            blanks.clear();
            if let Some(src) = hh.r2_hat.int_view(rc) {
                ints.clear();
                for &(row, r2_row) in assignments {
                    match src.get(r2_row) {
                        Some(v) => ints.push((row, v)),
                        None => blanks.push(row),
                    }
                }
                self.view.batch_set_ints(vc, &ints)?;
            } else {
                let src = hh.r2_hat.sym_view(rc).expect("attr column is int or str");
                syms.clear();
                for &(row, r2_row) in assignments {
                    match src.get(r2_row) {
                        Some(s) => syms.push((row, s)),
                        None => blanks.push(row),
                    }
                }
                self.view.batch_set_syms(vc, &syms)?;
            }
            for &row in &blanks {
                self.view.set(row, vc, None)?;
            }
        }
        Ok(())
    }

    /// The combo of a fully-assigned view row (boxed, row-at-a-time; only
    /// the `RandomAssignment` baseline uses it — the coloring path
    /// partitions all rows at once via the dictionary-code group-by).
    fn row_combo(&self, row: RowId) -> Option<Combo> {
        let mut combo = Vec::with_capacity(self.view_cc_ids.len());
        for &c in &self.view_cc_ids {
            combo.push(self.view.get(row, c)?);
        }
        Some(combo)
    }
}

/// Runs Phase II, producing `R̂1`, `R̂2` and the final view.
pub(crate) fn run_phase2(
    instance: &CExtensionInstance,
    config: &SolverConfig,
    p1: P1,
    invalid: Vec<RowId>,
    stats: &mut SolveStats,
) -> Result<(Relation, Relation, Relation)> {
    let frame = cextend_obs::frame();
    let mut ctx = Phase2Ctx::build(instance, p1)?;
    let invalid_set: std::collections::HashSet<RowId> = invalid.iter().copied().collect();

    match config.phase2 {
        Phase2Strategy::Coloring => {
            let dcs: Vec<BoundDc> = instance
                .dcs
                .iter()
                .map(|d| {
                    d.bind(ctx.view.schema(), ctx.view.name())
                        .map_err(CoreError::from)
                })
                .collect::<Result<Vec<_>>>()?;

            // ---- Partition the valid rows by combo. ----------------------
            // One dictionary-code group-by over the CC-referenced view
            // columns (u128 keys, CSR row-id slices) replaces the old
            // boxed-`Value` key per row; `GroupedRows` comes back key-sorted,
            // which for fully-assigned rows is exactly the old
            // `partitions.sort_by(combo)` order, so results stay
            // bit-identical.
            let partition_stage = cextend_obs::stage("conflict_build");
            let grouped = cextend_table::marginals::group_rows(&ctx.view, &ctx.view_cc_ids);
            let mut partitions: Vec<(Combo, Vec<RowId>, usize)> = Vec::with_capacity(grouped.len());
            for (key, rows) in grouped.iter() {
                let rows: Vec<RowId> = rows
                    .iter()
                    .copied()
                    .filter(|r| !invalid_set.contains(r))
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                if key.iter().any(Option::is_none) {
                    return Err(CoreError::Validation(format!(
                        "row {} is neither fully assigned nor marked invalid",
                        rows[0]
                    )));
                }
                let combo: Combo = key.iter().map(|v| v.expect("checked")).collect();
                let n_cand = ctx.households.of_combo(&combo).len();
                partitions.push((combo, rows, n_cand));
            }
            stats.counters.partitions = partitions.len();
            tracef!(
                "phase2: {} partitions, largest {:?}",
                partitions.len(),
                partitions.iter().map(|p| p.1.len()).max()
            );
            // Compile the DC plans once, with cost estimates nominal for
            // the largest partition; workers color with clones. The plan
            // decisions are counted from this one compile, so they are the
            // same at any worker width.
            let rows_hint = partitions.iter().map(|p| p.1.len()).max().unwrap_or(0);
            let builder = ConflictBuilder::new(&dcs, &ctx.view, rows_hint);
            let mut index_stats = builder.plan_stats();
            drop(partition_stage);

            // ---- Color partitions, applying results as they stream in. ---
            // Workers read `ctx.view`, which nothing writes before
            // `assign_rows_bulk`; the sink mutates only `ctx.households`.
            // Colors resolve to `R̂2` rows partition by partition (minting
            // is order-sensitive: fresh keys run in partition order); the
            // attribute copy-back runs once over the whole batch, column at
            // a time.
            let mut assignments: Vec<(RowId, usize)> = Vec::with_capacity(ctx.view.n_rows());
            // Without augmentation the solve fails once any partition
            // needs a fresh key; results are still folded so the error
            // reports every skipped vertex.
            let mut refused = false;
            assign::color_partitions_streamed(
                &ctx.view,
                &partitions,
                config.coloring,
                builder,
                config.workers,
                |r| {
                    stats.counters.conflict_edges += r.edges;
                    stats.counters.skipped_vertices += r.skipped;
                    // Workers measured (and, when recording, emitted spans
                    // for) these intervals; fold the same durations into
                    // the frame.
                    cextend_obs::stage_add("conflict_build", r.build_time);
                    cextend_obs::stage_add("coloring", r.color_time);
                    index_stats.absorb(&r.index_stats);
                    refused |= r.fresh_colors > 0 && !config.allow_augmenting_r2;
                    if refused {
                        return Ok(());
                    }
                    let _apply = cextend_obs::stage("coloring");
                    let (combo, _, n_cand) = &partitions[r.partition];
                    let fresh_rows = (0..r.fresh_colors)
                        .map(|_| ctx.households.mint(combo))
                        .collect::<Result<Vec<usize>>>()?;
                    let households = ctx.households.of_combo(combo);
                    for (row, color) in r.assignments {
                        let r2_row = if (color as usize) < *n_cand {
                            households[color as usize]
                        } else {
                            fresh_rows[color as usize - n_cand]
                        };
                        assignments.push((row, r2_row));
                    }
                    Ok(())
                },
            )?;
            // The per-partition index stats become named counters. Totals
            // are coordinator-side sums of deterministic per-partition
            // values, so they are bit-identical across worker widths.
            cextend_obs::counter_add("phase2.partitions", partitions.len() as u64);
            cextend_obs::counter_add(
                "phase2.conflict_edges",
                stats.counters.conflict_edges as u64,
            );
            cextend_obs::counter_add(
                "phase2.skipped_vertices",
                stats.counters.skipped_vertices as u64,
            );
            cextend_obs::counter_add("phase2.indexes_built", index_stats.indexes_built as u64);
            cextend_obs::counter_add("phase2.eq_probes", index_stats.eq_probes as u64);
            cextend_obs::counter_add("phase2.range_probes", index_stats.range_probes as u64);
            cextend_obs::counter_add(
                "phase2.scanned_candidates",
                index_stats.scanned_candidates as u64,
            );
            cextend_obs::counter_add("phase2.dead_dcs", index_stats.dead_dcs as u64);
            cextend_obs::counter_add("phase2.dedup_hits", index_stats.dedup_hits as u64);
            cextend_obs::counter_add("phase2.plans_cost", index_stats.plans_cost as u64);
            cextend_obs::counter_add(
                "phase2.plans_static_fallback",
                index_stats.plans_static_fallback as u64,
            );
            cextend_obs::counter_add("phase2.index_hash", index_stats.index_hash as u64);
            cextend_obs::counter_add("phase2.index_sorted", index_stats.index_sorted as u64);
            cextend_obs::counter_add("phase2.index_scan", index_stats.index_scan as u64);
            tracef!(
                "phase2: planner: {} cost plans, {} static fallbacks, \
                 {} hash / {} sorted / {} scan depths",
                index_stats.plans_cost,
                index_stats.plans_static_fallback,
                index_stats.index_hash,
                index_stats.index_sorted,
                index_stats.index_scan,
            );
            tracef!(
                "phase2: conflict ({} edges): {} indexes, {} eq probes, \
                 {} range probes, {} scanned candidates, {} dead DCs, {} dedup hits",
                stats.counters.conflict_edges,
                index_stats.indexes_built,
                index_stats.eq_probes,
                index_stats.range_probes,
                index_stats.scanned_candidates,
                index_stats.dead_dcs,
                index_stats.dedup_hits,
            );
            if refused {
                return Err(CoreError::NoSolutionWithoutAugmentation {
                    unassignable: stats.counters.skipped_vertices,
                });
            }
            let apply_stage = cextend_obs::stage("coloring");
            ctx.assign_rows_bulk(&assignments)?;
            drop(apply_stage);

            // ---- Invalid tuples last. -------------------------------------
            let invalid_stage = cextend_obs::stage("invalid");
            invalid::solve_invalid(
                &mut ctx,
                &invalid,
                &dcs,
                &instance.ccs,
                config.allow_augmenting_r2,
            )?;
            drop(invalid_stage);
        }
        Phase2Strategy::RandomAssignment => {
            // Baseline: uniformly random candidate household per row, DCs
            // ignored; rows without candidates take any household.
            let random_stage = cextend_obs::stage("coloring");
            let n_r2 = ctx.households.r2_hat.n_rows();
            if n_r2 == 0 {
                return Err(CoreError::Validation("R2 has no tuples".into()));
            }
            for row in 0..ctx.view.n_rows() {
                let combo = ctx.row_combo(row);
                let candidates = combo
                    .as_deref()
                    .map_or(&[][..], |c| ctx.households.of_combo(c));
                let r2_row = if candidates.is_empty() {
                    ctx.rng.gen_range(0..n_r2)
                } else {
                    candidates[ctx.rng.gen_range(0..candidates.len())]
                };
                ctx.assign_row(row, r2_row)?;
            }
            drop(random_stage);
        }
    }
    stats
        .timings
        .absorb(&StageTimings::from_named(&frame.totals()));

    // ---- Finalize R̂1. -----------------------------------------------------
    // One typed batch write per dtype: the FK column receives a million
    // cells at paper scale, where per-cell boxed `set` calls dominate.
    let mut r1_hat = instance.r1.clone();
    let fk = r1_hat.schema().fk_col().expect("validated");
    let Households { r2_hat, k2, .. } = ctx.households;
    if let Some(keys) = r2_hat.int_view(k2) {
        let mut cells: Vec<(RowId, i64)> = Vec::with_capacity(ctx.view.n_rows());
        for row in 0..ctx.view.n_rows() {
            let r2_row = ctx.row_key[row].ok_or_else(|| {
                CoreError::Validation(format!("row {row} left without an FK assignment"))
            })?;
            cells.push((row, keys.get(r2_row).expect("R̂2 keys are present")));
        }
        r1_hat.batch_set_ints(fk, &cells)?;
    } else {
        let keys = r2_hat.sym_view(k2).expect("key column is int or str");
        let mut cells: Vec<(RowId, Sym)> = Vec::with_capacity(ctx.view.n_rows());
        for row in 0..ctx.view.n_rows() {
            let r2_row = ctx.row_key[row].ok_or_else(|| {
                CoreError::Validation(format!("row {row} left without an FK assignment"))
            })?;
            cells.push((row, keys.get(r2_row).expect("R̂2 keys are present")));
        }
        r1_hat.batch_set_syms(fk, &cells)?;
    }
    stats.counters.new_r2_tuples = r2_hat.n_rows() - instance.r2.n_rows();
    Ok((r1_hat, r2_hat, ctx.view))
}
