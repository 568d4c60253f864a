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

/// Phase II working state shared by the coloring and invalid-handling steps.
pub(crate) struct Phase2Ctx {
    /// The completed view (B columns filled progressively).
    pub view: Relation,
    /// `R2` plus minted tuples.
    pub r2_hat: Relation,
    /// Distinct existing combos over the CC-referenced `R2` columns.
    pub combos: Vec<Combo>,
    r2_cc_cols: Vec<String>,
    view_cc_ids: Vec<ColId>,
    /// All `R2` attribute columns and their ids in the view (aligned).
    r2_attr_ids: Vec<ColId>,
    view_r2_attr_ids: Vec<ColId>,
    k2: ColId,
    /// `R̂2` rows per combo, in insertion order.
    combo_rows: HashMap<Combo, Vec<usize>>,
    /// Per view row, the assigned `R̂2` row.
    row_key: Vec<Option<usize>>,
    /// Per `R̂2` row, the view rows assigned to it.
    key_members: Vec<Vec<RowId>>,
    minter: KeyMinter,
}

impl Phase2Ctx {
    fn build(instance: &CExtensionInstance, p1: &P1) -> Result<Phase2Ctx> {
        let r2 = &instance.r2;
        let k2 = r2.schema().key_col().expect("validated");
        let r2_cc_col_ids: Vec<ColId> = p1
            .r2_cc_cols
            .iter()
            .map(|c| r2.schema().require(c, r2.name()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let r2_attr_ids = r2.schema().attr_cols();
        let view_r2_attr_ids = r2_attr_ids
            .iter()
            .map(|&c| {
                p1.view
                    .schema()
                    .require(&r2.schema().column(c).name, p1.view.name())
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // Group R2 rows by combo — one dictionary-code group-by instead of
        // a boxed-Value key per row; rows with missing combo cells (keys
        // containing `None`) are dropped, as before.
        let grouped = cextend_table::marginals::group_rows(r2, &r2_cc_col_ids);
        let mut combo_rows: HashMap<Combo, Vec<usize>> = HashMap::new();
        for (key, rows) in grouped.iter() {
            if key.iter().any(Option::is_none) {
                continue;
            }
            let combo: Combo = key.iter().map(|v| v.expect("checked")).collect();
            combo_rows.insert(combo, rows.to_vec());
        }
        Ok(Phase2Ctx {
            view: p1.view.clone(),
            r2_hat: r2.clone(),
            combos: p1.combos.clone(),
            r2_cc_cols: p1.r2_cc_cols.clone(),
            view_cc_ids: p1.view_cc_ids.clone(),
            r2_attr_ids,
            view_r2_attr_ids,
            k2,
            combo_rows,
            row_key: vec![None; p1.view.n_rows()],
            key_members: vec![Vec::new(); r2.n_rows()],
            minter: KeyMinter::new(r2, k2),
        })
    }

    /// `R̂2` rows (households) carrying `combo`.
    pub fn households_of_combo(&self, combo: &[Value]) -> Vec<usize> {
        self.combo_rows.get(combo).cloned().unwrap_or_default()
    }

    /// The view rows currently assigned to household `r2_row`.
    pub fn household_members(&self, r2_row: usize) -> Vec<RowId> {
        self.key_members[r2_row].clone()
    }

    /// Appends a fresh household with `combo` values; other attribute
    /// columns are inherited from the first existing household of the same
    /// combo (the paper's new tuples copy the partition's `B` values).
    pub fn mint_household(&mut self, combo: &[Value]) -> Result<usize> {
        let donor = self
            .combo_rows
            .get(combo)
            .and_then(|rows| rows.first().copied());
        let key = self.minter.mint(&self.r2_hat, self.k2);
        let mut row: Vec<Option<Value>> = vec![None; self.r2_hat.schema().len()];
        row[self.k2] = Some(key);
        for (i, &c) in self.r2_attr_ids.iter().enumerate() {
            let name = &self.r2_hat.schema().column(c).name;
            let from_combo = self
                .r2_cc_cols
                .iter()
                .position(|cc| cc == name)
                .map(|p| combo[p]);
            row[c] = match from_combo {
                Some(v) => Some(v),
                None => donor.and_then(|d| self.r2_hat.get(d, self.r2_attr_ids[i])),
            };
        }
        let new_row = self.r2_hat.push_row(&row)?;
        self.combo_rows
            .entry(combo.to_vec())
            .or_default()
            .push(new_row);
        self.key_members.push(Vec::new());
        Ok(new_row)
    }

    /// Assigns view row `row` to household `r2_row`: records membership and
    /// copies every `R2` attribute of the household into the view (so the
    /// final view equals `R̂1 ⋈ R̂2` cell for cell).
    pub fn assign_row(&mut self, row: RowId, r2_row: usize) -> Result<()> {
        debug_assert!(self.row_key[row].is_none(), "row {row} assigned twice");
        self.row_key[row] = Some(r2_row);
        self.key_members[r2_row].push(row);
        for (i, &vc) in self.view_r2_attr_ids.iter().enumerate() {
            let v = self.r2_hat.get(r2_row, self.r2_attr_ids[i]);
            self.view.set(row, vc, v)?;
        }
        Ok(())
    }

    /// [`Phase2Ctx::assign_row`] over a whole batch, column at a time: the
    /// membership bookkeeping runs in batch order (so `key_members` matches
    /// the row-at-a-time path exactly), then each `R2` attribute column is
    /// copied into the view with one typed bulk write instead of a boxed
    /// [`Relation::set`] per cell. Household cells that are missing fall
    /// back to a per-cell blank — the batch API only writes present values.
    pub fn assign_rows_bulk(&mut self, assignments: &[(RowId, usize)]) -> Result<()> {
        for &(row, r2_row) in assignments {
            debug_assert!(self.row_key[row].is_none(), "row {row} assigned twice");
            self.row_key[row] = Some(r2_row);
            self.key_members[r2_row].push(row);
        }
        let mut ints: Vec<(RowId, i64)> = Vec::new();
        let mut syms: Vec<(RowId, Sym)> = Vec::new();
        let mut blanks: Vec<RowId> = Vec::new();
        for (i, &vc) in self.view_r2_attr_ids.iter().enumerate() {
            let rc = self.r2_attr_ids[i];
            blanks.clear();
            if let Some(src) = self.r2_hat.int_view(rc) {
                ints.clear();
                for &(row, r2_row) in assignments {
                    match src.get(r2_row) {
                        Some(v) => ints.push((row, v)),
                        None => blanks.push(row),
                    }
                }
                self.view.batch_set_ints(vc, &ints)?;
            } else {
                let src = self.r2_hat.sym_view(rc).expect("attr column is int or str");
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
    mut p1: P1,
    invalid: Vec<RowId>,
    stats: &mut SolveStats,
) -> Result<(Relation, Relation, Relation)> {
    let frame = cextend_obs::frame();
    let mut ctx = Phase2Ctx::build(instance, &p1)?;
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
                let n_cand = ctx.households_of_combo(&combo).len();
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
            // Workers read `p1.view`, of which `ctx.view` is a clone that
            // nothing writes before `assign_rows_bulk`, so the sink can
            // mutate `ctx`. Colors resolve to `R̂2` rows partition by
            // partition (minting is order-sensitive: fresh keys run in
            // partition order); the attribute copy-back runs once over the
            // whole batch, column at a time.
            let mut assignments: Vec<(RowId, usize)> = Vec::with_capacity(ctx.view.n_rows());
            // Without augmentation the solve fails once any partition
            // needs a fresh key; results are still folded so the error
            // reports every skipped vertex.
            let mut refused = false;
            assign::color_partitions_streamed(
                &p1.view,
                &partitions,
                config.coloring,
                builder,
                config.parallel_coloring,
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
                        .map(|_| ctx.mint_household(combo))
                        .collect::<Result<Vec<usize>>>()?;
                    let households = ctx.households_of_combo(combo);
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
            let rng: &mut StdRng = &mut p1.rng;
            let n_r2 = ctx.r2_hat.n_rows();
            if n_r2 == 0 {
                return Err(CoreError::Validation("R2 has no tuples".into()));
            }
            for row in 0..ctx.view.n_rows() {
                let candidates = ctx
                    .row_combo(row)
                    .map(|combo| ctx.households_of_combo(&combo))
                    .unwrap_or_default();
                let r2_row = if candidates.is_empty() {
                    rng.gen_range(0..n_r2)
                } else {
                    candidates[rng.gen_range(0..candidates.len())]
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
    if let Some(keys) = ctx.r2_hat.int_view(ctx.k2) {
        let mut cells: Vec<(RowId, i64)> = Vec::with_capacity(ctx.view.n_rows());
        for row in 0..ctx.view.n_rows() {
            let r2_row = ctx.row_key[row].ok_or_else(|| {
                CoreError::Validation(format!("row {row} left without an FK assignment"))
            })?;
            cells.push((row, keys.get(r2_row).expect("R̂2 keys are present")));
        }
        r1_hat.batch_set_ints(fk, &cells)?;
    } else {
        let keys = ctx
            .r2_hat
            .sym_view(ctx.k2)
            .expect("key column is int or str");
        let mut cells: Vec<(RowId, Sym)> = Vec::with_capacity(ctx.view.n_rows());
        for row in 0..ctx.view.n_rows() {
            let r2_row = ctx.row_key[row].ok_or_else(|| {
                CoreError::Validation(format!("row {row} left without an FK assignment"))
            })?;
            cells.push((row, keys.get(r2_row).expect("R̂2 keys are present")));
        }
        r1_hat.batch_set_syms(fk, &cells)?;
    }
    stats.counters.new_r2_tuples = ctx.r2_hat.n_rows() - instance.r2.n_rows();
    Ok((r1_hat, ctx.r2_hat, ctx.view))
}
