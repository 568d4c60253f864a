//! Phase II: reverse-engineering `R1.FK` from Phase I's combos
//! (Section 5, Algorithm 4).
//!
//! `R1`'s rows are partitioned by the `B` values Phase I assigned, as combo
//! ids; each partition's conflict hypergraph, built over the DCs bound
//! against `R1`'s own schema, is list-colored with the matching `R2` keys
//! as colors; skipped vertices get fresh keys (new `R̂2` tuples); invalid
//! tuples are placed last with CC-error-minimizing combos. Every decision
//! lands in one household record, a `u32` `R̂2` row per `R1` row, and
//! nothing here builds or writes a view. One typed gather through the
//! record then builds `R̂1` (each row's FK is its household's key) and
//! another builds `V_join = R̂1 ⋈ R̂2`, so the result satisfies every DC
//! (Proposition 5.5) and joins back to exactly the view.

pub(crate) mod assign;
pub(crate) mod conflict;
pub(crate) mod invalid;

use crate::config::{Phase2Strategy, SolverConfig};
use crate::error::{CoreError, Result};
use crate::instance::CExtensionInstance;
use crate::phase1::{Combo, InvalidRows, NO_COMBO, P1};
use crate::phase2::conflict::{ConflictBuilder, ConflictStats};
use crate::report::{SolveStats, StageTimings};
use cextend_constraints::BoundDc;
use cextend_obs::tracef;
use cextend_table::{
    gather, join_matched, join_view_name, ColId, Dtype, Relation, RowId, Source, Sym, Value,
    NO_MATCH,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Phase II working state shared by the coloring and invalid-handling
/// steps: `R̂2` (`R2` plus minted tuples), the households of each of Phase
/// I's combos, the key minter and the household record. The coloring
/// workers and the DC checks read `R1` itself, which nothing here writes;
/// the coloring sink mutates the rest.
pub(crate) struct Phase2Ctx {
    /// `R2` plus minted tuples. It shares `R2`'s buffers until the first
    /// mint copies them.
    r2_hat: Relation,
    k2: ColId,
    /// `R2`'s attribute columns and, aligned, the combo position a minted
    /// tuple takes each from (`None`: copied from a donor household).
    attr_ids: Vec<ColId>,
    attr_combo_pos: Vec<Option<usize>>,
    /// Phase I's combos, by id.
    combos: Vec<Combo>,
    /// Each combo's CC mask ([`P1::combo_ccs`]), one word per 64 CCs.
    combo_ccs: Vec<u64>,
    /// `R̂2` rows per combo id, in insertion order.
    combo_rows: Vec<Vec<usize>>,
    minter: KeyMinter,
    /// The household record: per `R1` row, its `R̂2` row, [`NO_MATCH`]
    /// until assigned. The only thing Phase II decides.
    record: Vec<u32>,
}

impl Phase2Ctx {
    /// Moves Phase I's combos and households (`R2`'s rows grouped by combo
    /// id) in. Returns the context and, per `R1` row, the combo it
    /// completed with ([`NO_COMBO`] for an incomplete row).
    fn build(instance: &CExtensionInstance, mut p1: P1) -> (Phase2Ctx, Vec<u32>) {
        let row_combos = p1.take_row_combos();
        let r2 = &instance.r2;
        let k2 = r2.schema().key_col().expect("validated");
        let attr_ids = r2.schema().attr_cols();
        let attr_combo_pos = attr_ids
            .iter()
            .map(|&c| {
                let name = &r2.schema().column(c).name;
                p1.r2_cc_cols.iter().position(|cc| cc == name)
            })
            .collect();
        let ctx = Phase2Ctx {
            r2_hat: r2.clone(),
            k2,
            attr_ids,
            attr_combo_pos,
            combos: p1.combos,
            combo_ccs: p1.combo_ccs,
            combo_rows: p1.households,
            minter: KeyMinter::new(r2, k2),
            record: vec![NO_MATCH; row_combos.len()],
        };
        (ctx, row_combos)
    }

    /// Number of combos.
    pub fn n_combos(&self) -> usize {
        self.combos.len()
    }

    /// `R̂2` rows (households) carrying combo `k`.
    pub fn of_combo(&self, k: usize) -> &[usize] {
        &self.combo_rows[k]
    }

    /// Appends a fresh household with combo `k`'s values; other attribute
    /// columns are inherited from the first existing household of the same
    /// combo (the paper's new tuples copy the partition's `B` values).
    pub fn mint(&mut self, k: usize) -> Result<usize> {
        let donor = self.of_combo(k).first().copied();
        let key = self.minter.mint(&self.r2_hat, self.k2);
        let mut row: Vec<Option<Value>> = vec![None; self.r2_hat.schema().len()];
        row[self.k2] = Some(key);
        for (&c, pos) in self.attr_ids.iter().zip(&self.attr_combo_pos) {
            row[c] = match pos {
                Some(p) => Some(self.combos[k][*p]),
                None => donor.and_then(|d| self.r2_hat.get(d, c)),
            };
        }
        let new_row = self.r2_hat.push_row(&row)?;
        self.combo_rows[k].push(new_row);
        Ok(new_row)
    }
}

/// The household record's entry for `R̂2` row `r2_row`. An `R̂2` that
/// outgrows the `u32` record is an error.
fn record_id(r2_row: usize) -> Result<u32> {
    match u32::try_from(r2_row) {
        Ok(id) if id != NO_MATCH => Ok(id),
        _ => Err(CoreError::Validation(format!(
            "R̂2 row {r2_row} does not fit the u32 household record"
        ))),
    }
}

/// Runs Phase II, producing `R̂1`, `R̂2` and the final view.
pub(crate) fn run_phase2(
    instance: &CExtensionInstance,
    config: &SolverConfig,
    p1: P1,
    invalid: InvalidRows,
    stats: &mut SolveStats,
) -> Result<(Relation, Relation, Relation)> {
    let frame = cextend_obs::frame();
    let (mut ctx, row_combos) = Phase2Ctx::build(instance, p1);
    let r1 = &instance.r1;

    match config.phase2 {
        Phase2Strategy::Coloring => {
            let dcs: Vec<BoundDc> = instance
                .dcs
                .iter()
                .map(|d| d.bind(r1.schema(), r1.name()).map_err(CoreError::from))
                .collect::<Result<Vec<_>>>()?;

            // ---- Partition the complete rows by combo id. ----------------
            // One counting pass: combos in id (= sorted value) order, rows
            // ascending within each. Incomplete rows are the invalid ones.
            let partition_stage = cextend_obs::stage("conflict_build");
            let n_combos = ctx.n_combos();
            let mut sizes = vec![0usize; n_combos];
            for &k in row_combos.iter().filter(|&&k| k != NO_COMBO) {
                sizes[k as usize] += 1;
            }
            let stray = row_combos.len() - sizes.iter().sum::<usize>();
            if stray != invalid.rows.len() {
                return Err(CoreError::Validation(format!(
                    "{stray} incomplete rows, {} marked invalid",
                    invalid.rows.len()
                )));
            }
            let mut by_combo: Vec<Vec<RowId>> =
                sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
            for (row, &k) in row_combos.iter().enumerate() {
                if k != NO_COMBO {
                    by_combo[k as usize].push(row);
                }
            }
            drop(row_combos);
            let partitions: Vec<(usize, Vec<RowId>, usize)> = by_combo
                .into_iter()
                .enumerate()
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(k, rows)| (k, rows, ctx.of_combo(k).len()))
                .collect();
            stats.counters.partitions = partitions.len();
            tracef!(
                "phase2: {} partitions, largest {:?}",
                partitions.len(),
                partitions.iter().map(|p| p.1.len()).max()
            );
            // Compile the DC plans and classify `R1`'s rows into their
            // unary filters once, inside this stage; workers color with
            // clones that share the row masks.
            let builder = ConflictBuilder::new(&dcs, r1);
            let mut index_stats = ConflictStats::default();
            drop(partition_stage);

            // ---- Color partitions, recording results as they stream in. --
            // Workers read `R1`, which nothing writes; the sink mutates
            // only `ctx`. Colors resolve to `R̂2` rows partition by
            // partition (minting is order-sensitive: fresh keys run in
            // partition order).
            // Without augmentation the solve fails once any partition
            // needs a fresh key; results are still folded so the error
            // reports every skipped vertex.
            let mut refused = false;
            assign::color_partitions_streamed(
                &partitions,
                config.coloring,
                builder,
                config.workers,
                |r| {
                    stats.counters.conflict_edges += r.edges;
                    stats.counters.skipped_vertices += r.skipped;
                    stats.counters.exact_budget_fallbacks += usize::from(r.exact_budget_fallback);
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
                    let (k, _, n_cand) = partitions[r.partition];
                    let fresh_rows = (0..r.fresh_colors)
                        .map(|_| ctx.mint(k))
                        .collect::<Result<Vec<usize>>>()?;
                    let households = &ctx.combo_rows[k];
                    for (row, color) in r.assignments {
                        let r2_row = if (color as usize) < n_cand {
                            households[color as usize]
                        } else {
                            fresh_rows[color as usize - n_cand]
                        };
                        debug_assert_eq!(ctx.record[row], NO_MATCH, "row {row} assigned twice");
                        ctx.record[row] = record_id(r2_row)?;
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
            cextend_obs::counter_add(
                "phase2.exact_budget_fallbacks",
                stats.counters.exact_budget_fallbacks as u64,
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
            cextend_obs::counter_add("phase2.index_hash", index_stats.index_hash as u64);
            cextend_obs::counter_add("phase2.index_sorted", index_stats.index_sorted as u64);
            cextend_obs::counter_add("phase2.capacity_groups", index_stats.capacity_groups as u64);
            cextend_obs::counter_add("phase2.window_groups", index_stats.window_groups as u64);
            tracef!(
                "phase2: conflict ({} edges, {} capacity groups, {} window groups): \
                 {} hash / {} sorted depths, {} indexes, {} eq probes, {} range probes, \
                 {} scanned candidates, {} dead DCs, {} dedup hits",
                stats.counters.conflict_edges,
                index_stats.capacity_groups,
                index_stats.window_groups,
                index_stats.index_hash,
                index_stats.index_sorted,
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

            // ---- Invalid tuples last. -------------------------------------
            let invalid_stage = cextend_obs::stage("invalid");
            invalid::solve_invalid(
                &mut ctx,
                r1,
                &invalid,
                &dcs,
                &instance.ccs,
                config.allow_augmenting_r2,
            )?;
            drop(invalid_stage);
        }
        Phase2Strategy::RandomAssignment => {
            // Baseline: uniformly random candidate household per row, DCs
            // ignored; rows without candidates take any household. The
            // draws come from one stream seeded with the solver seed.
            let random_stage = cextend_obs::stage("coloring");
            let mut rng = StdRng::seed_from_u64(config.seed);
            let n_r2 = ctx.r2_hat.n_rows();
            if n_r2 == 0 {
                return Err(CoreError::Validation("R2 has no tuples".into()));
            }
            for (row, &k) in row_combos.iter().enumerate() {
                let candidates = if k == NO_COMBO {
                    &[][..]
                } else {
                    ctx.of_combo(k as usize)
                };
                let r2_row = if candidates.is_empty() {
                    rng.gen_range(0..n_r2)
                } else {
                    candidates[rng.gen_range(0..candidates.len())]
                };
                ctx.record[row] = record_id(r2_row)?;
            }
            drop(random_stage);
        }
    }

    // ---- R̂1 and V_join: one gather each through the record. -------------
    // Timed with the coloring, whose decisions it writes out. `V_join` is
    // `R1`'s cells beside the assigned households' `R̂2` cells, and `R̂1` is
    // `R1` with each row's household key as its FK. Both share `R1`'s
    // buffers for the columns they take from it.
    let output_stage = cextend_obs::stage("coloring");
    let (record, r2_hat, k2) = (ctx.record, ctx.r2_hat, ctx.k2);
    if let Some(row) = record.iter().position(|&h| h == NO_MATCH) {
        return Err(CoreError::Validation(format!(
            "row {row} left without an FK assignment"
        )));
    }
    let fk = r1.schema().fk_col().expect("validated");
    let sources: Vec<Source> = (0..r1.schema().len())
        .map(|c| {
            if c == fk {
                Source::Matched(&r2_hat, k2, &record)
            } else {
                Source::Rows(r1, c)
            }
        })
        .collect();
    let r1_hat = gather(r1.name(), r1.schema().clone(), r1.n_rows(), &sources)?;
    let vjoin = join_matched(&join_view_name(r1, &instance.r2), r1, &r2_hat, &record)?;
    drop(output_stage);
    stats
        .timings
        .absorb(&StageTimings::from_named(&frame.totals()));

    stats.counters.new_r2_tuples = r2_hat.n_rows() - instance.r2.n_rows();
    Ok((r1_hat, r2_hat, vjoin))
}
