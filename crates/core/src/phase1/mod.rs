//! Phase I: completing the join view `V_join` from the CCs (Section 4).
//!
//! The view starts as a copy of `R1` with empty `R2`-side columns
//! (Section 3.1). Phase I fills the `R2`-side columns *referenced by CCs*
//! ("in practice, we only consider columns used in S_CC"); the remaining
//! `R2` columns are filled in Phase II from the chosen key. Three strategies
//! share this module's context: the exact Hasse recursion (Algorithm 2,
//! [`hasse_rec`]), the ILP formulation (Algorithm 1, [`ilp_based`]) and the
//! hybrid split of Section 4.3 ([`hybrid`]).

pub(crate) mod compressed;
pub(crate) mod hasse_rec;
pub(crate) mod hybrid;
pub(crate) mod ilp_based;
pub(crate) mod repair;

use crate::config::SolverConfig;
use crate::error::Result;
use crate::instance::CExtensionInstance;
use crate::report::SolveStats;
use cextend_constraints::{
    domain_ranges, Binning, CardinalityConstraint, CcMembership, ColumnIntervals, NormalizedCond,
};
use cextend_table::{
    init_join_view, marginals::distinct_combos, BoundPredicate, ColId, Dtype, Relation, RowId,
    Value,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A full assignment of the CC-referenced `R2` columns, aligned with
/// [`P1::r2_cc_cols`].
pub type Combo = Vec<Value>;

/// Fixed shard size for leftover/random completion. Rows are sharded into
/// fixed-size chunks *independently of the worker count*, and every shard
/// draws from its own RNG stream ([`shard_rng`]) — so a serial run, a
/// 2-worker run and a 64-worker run all make bit-identical choices.
pub const SHARD_SIZE: usize = 4096;

/// Stream salt for leftover completion (`complete_leftovers`).
pub(crate) const LEFTOVERS_SALT: u64 = 0x4c45_4654; // "LEFT"

/// Stream salt for baseline random completion (`complete_randomly`).
pub(crate) const RANDOM_SALT: u64 = 0x0052_4e44; // "RND"

/// SplitMix64 finalizer: a bijective avalanche over `x`.
fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The RNG stream for shard `shard` of the completion stage `salt`, derived
/// from the solver seed. Streams are a pure function of
/// `(seed, salt, shard)` — never of worker count or iteration order — which
/// is the whole determinism argument for parallel Phase 1.
pub fn shard_rng(seed: u64, salt: u64, shard: u64) -> StdRng {
    let x = splitmix(
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard.wrapping_add(1)))
            ^ splitmix(salt),
    );
    StdRng::seed_from_u64(x)
}

/// Assignment state of a view row over the CC-referenced `R2` columns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RowState {
    /// No CC column assigned.
    Empty,
    /// Some but not all CC columns assigned.
    Partial,
    /// Every CC column assigned.
    Full,
}

/// Phase I working context.
pub struct P1 {
    /// The join view being completed (row `i` ↔ `R1` row `i`).
    pub view: Relation,
    /// CC-referenced `R2` attribute columns, sorted.
    pub r2_cc_cols: Vec<String>,
    /// Their column ids in the view.
    pub view_cc_ids: Vec<ColId>,
    /// Distinct existing combos over `r2_cc_cols` in `R2`, sorted.
    pub combos: Vec<Combo>,
    /// Binning of `R1`'s attribute columns (intervalized numerics).
    pub binning: Binning,
    /// `R1`-side membership of the instance's CCs: bit `row % 64` of word
    /// `row / 64` of `cc_r1_bits[i]` is set iff view row `row` satisfies
    /// `instance.ccs[i].r1`. Built once, in one pass, by [`P1::build`];
    /// Phase I writes only `R2`-side columns, so it stays exact until the
    /// solve drops it after Phase I.
    pub cc_r1_bits: Vec<Vec<u64>>,
    /// The solver seed; completion stages derive per-shard streams from it
    /// via [`shard_rng`].
    pub seed: u64,
    /// Seeded RNG for Phase II's random-assignment baseline.
    pub rng: StdRng,
}

impl P1 {
    /// Builds the context: initializes `V_join`, enumerates existing `R2`
    /// combos, intervalizes `R1`'s numeric attributes and classifies every
    /// row against the CCs' `R1` sides ([`P1::cc_r1_bits`]).
    pub fn build(instance: &CExtensionInstance, config: &SolverConfig) -> Result<P1> {
        let (view, _layout) = init_join_view(&instance.r1, &instance.r2)?;
        let r2_cc_cols = if config.complete_all_r2_columns {
            // Figure 12 mode: treat every R2 attribute as CC-relevant so
            // Phase I assigns full B-tuples and Phase II partitions on all
            // B columns.
            let mut cols: Vec<String> = instance
                .r2
                .schema()
                .attr_cols()
                .into_iter()
                .map(|c| instance.r2.schema().column(c).name.clone())
                .collect();
            cols.sort();
            cols
        } else {
            instance.r2_cc_columns()
        };
        let view_cc_ids = r2_cc_cols
            .iter()
            .map(|c| view.schema().require(c, view.name()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let r2_col_ids = r2_cc_cols
            .iter()
            .map(|c| instance.r2.schema().require(c, instance.r2.name()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let combo_counts = distinct_combos(&instance.r2, &r2_col_ids);
        let (combos, _key_counts): (Vec<Combo>, Vec<u64>) = combo_counts.into_iter().unzip();

        // Intervalize R1's numeric attribute columns over their active domains.
        let r1_attr_names: Vec<String> = instance
            .r1
            .schema()
            .attr_cols()
            .into_iter()
            .map(|c| instance.r1.schema().column(c).name.clone())
            .collect();
        let numeric: Vec<&str> = instance
            .r1
            .schema()
            .attr_cols()
            .into_iter()
            .filter(|&c| instance.r1.schema().column(c).dtype == Dtype::Int)
            .map(|c| instance.r1.schema().column(c).name.as_str())
            .filter(|c| {
                // Only intervalize columns actually present (non-empty).
                instance
                    .r1
                    .schema()
                    .col_id(c)
                    .is_some_and(|id| instance.r1.int_range(id).is_some())
            })
            .collect();
        let domains = domain_ranges(&instance.r1, &numeric)?;
        let intervals = ColumnIntervals::build(&instance.ccs, &domains);
        let binning = Binning::new(r1_attr_names, intervals);

        let membership_span = cextend_obs::span("cc_membership");
        let cc_r1_bits =
            CcMembership::build(&view, instance.ccs.iter().map(|cc| &cc.r1))?.bitmaps();
        drop(membership_span);

        Ok(P1 {
            view,
            r2_cc_cols,
            view_cc_ids,
            combos,
            binning,
            cc_r1_bits,
            seed: config.seed,
            rng: StdRng::seed_from_u64(config.seed),
        })
    }

    /// Assignment state of `row`.
    pub fn row_state(&self, row: RowId) -> RowState {
        if self.view_cc_ids.is_empty() {
            return RowState::Full;
        }
        let present = self
            .view_cc_ids
            .iter()
            .filter(|&&c| self.view.get(row, c).is_some())
            .count();
        if present == 0 {
            RowState::Empty
        } else if present == self.view_cc_ids.len() {
            RowState::Full
        } else {
            RowState::Partial
        }
    }

    /// `true` if every CC column of `row` is assigned.
    pub fn row_full(&self, row: RowId) -> bool {
        self.view_cc_ids
            .iter()
            .all(|&c| self.view.get(row, c).is_some())
    }

    /// Writes a full combo into `row`.
    pub fn assign_combo(&mut self, row: RowId, combo: &[Value]) -> Result<()> {
        for (i, &v) in combo.iter().enumerate() {
            self.view.set(row, self.view_cc_ids[i], Some(v))?;
        }
        Ok(())
    }

    /// Writes only the columns constrained by `cond`, taking values from
    /// `combo` (Algorithm 2's partial assignment).
    pub fn assign_partial(
        &mut self,
        row: RowId,
        combo: &[Value],
        cond: &NormalizedCond,
    ) -> Result<()> {
        for (i, col_name) in self.r2_cc_cols.iter().enumerate() {
            if cond.get(col_name).is_some() {
                self.view.set(row, self.view_cc_ids[i], Some(combo[i]))?;
            }
        }
        Ok(())
    }

    /// `true` if `combo` satisfies the `R2`-side condition `cond`.
    pub fn combo_satisfies(&self, combo: &[Value], cond: &NormalizedCond) -> bool {
        combo_satisfies(&self.r2_cc_cols, combo, cond)
    }

    /// Binds a CC's `R1`-side condition against the view schema (the
    /// scalar oracles' per-CC predicates).
    pub fn bind_r1(&self, cond: &NormalizedCond) -> Result<BoundPredicate> {
        Ok(cond
            .to_predicate()
            .bind(self.view.schema(), self.view.name())?)
    }

    /// Row ids currently in `RowState::Empty`.
    pub fn empty_rows(&self) -> Vec<RowId> {
        self.view
            .rows()
            .filter(|&r| self.row_state(r) == RowState::Empty)
            .collect()
    }
}

/// `true` if `combo` (aligned with `cols`) satisfies `cond`. Conditions
/// referencing columns outside `cols` cannot be satisfied by any combo.
pub(crate) fn combo_satisfies(cols: &[String], combo: &[Value], cond: &NormalizedCond) -> bool {
    cond.iter().all(|(col, set)| {
        cols.iter()
            .position(|c| c == col)
            .is_some_and(|i| set.contains(combo[i]))
    })
}

/// One condition bitset per combo, `words` words each, row-major: bit `c`
/// of combo `k` is set iff `combos[k]` (aligned with `cols`) satisfies
/// `conds[c]`.
pub(crate) fn combo_masks(
    cols: &[String],
    combos: &[Combo],
    conds: &[&NormalizedCond],
    words: usize,
) -> Vec<u64> {
    let mut masks = vec![0u64; combos.len() * words];
    for (k, combo) in combos.iter().enumerate() {
        for (c, cond) in conds.iter().enumerate() {
            if combo_satisfies(cols, combo, cond) {
                masks[k * words + c / 64] |= 1 << (c % 64);
            }
        }
    }
    masks
}

/// The scalar oracle for [`compressed::complete_leftovers`]: boxed per-row
/// reads, per-row candidate scans. Kept for equivalence tests and the
/// criterion benches; it draws from the same per-shard RNG streams as the
/// compressed path, so both produce bit-identical views.
pub fn complete_leftovers_scalar(p1: &mut P1, ccs: &[CardinalityConstraint]) -> Result<Vec<RowId>> {
    use rand::Rng;
    let bound_r1: Vec<BoundPredicate> = ccs
        .iter()
        .map(|cc| p1.bind_r1(&cc.r1))
        .collect::<Result<Vec<_>>>()?;
    // Bitmask of CCs per combo: which R2-side conditions each combo meets.
    let words = ccs.len().div_ceil(64).max(1);
    let combo_masks: Vec<Vec<u64>> = p1
        .combos
        .iter()
        .map(|combo| {
            let mut mask = vec![0u64; words];
            for (ci, cc) in ccs.iter().enumerate() {
                if p1.combo_satisfies(combo, &cc.r2) {
                    mask[ci / 64] |= 1 << (ci % 64);
                }
            }
            mask
        })
        .collect();
    // R1-side match mask per leftover row, computed in one typed pass
    // *before* the mutation loop below. Sound because the loop writes only
    // `R2`-side CC columns while these predicates read `R1` attributes.
    let leftover: Vec<RowId> = p1.view.rows().filter(|&r| !p1.row_full(r)).collect();
    let r1_masks: Vec<Vec<u64>> = {
        let compiled: Vec<_> = bound_r1.iter().map(|b| b.compile(&p1.view)).collect();
        leftover
            .iter()
            .map(|&row| {
                let mut mask = vec![0u64; words];
                for (ci, pred) in compiled.iter().enumerate() {
                    if pred.eval(row) {
                        mask[ci / 64] |= 1 << (ci % 64);
                    }
                }
                mask
            })
            .collect()
    };
    let mut invalid = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();
    let mut row_mask = vec![0u64; words];
    let view_cc_ids = p1.view_cc_ids.clone();
    for (shard, rows) in leftover.chunks(SHARD_SIZE).enumerate() {
        let mut rng = shard_rng(p1.seed, LEFTOVERS_SALT, shard as u64);
        for (k, &row) in rows.iter().enumerate() {
            let li = shard * SHARD_SIZE + k;
            let partial: Vec<Option<Value>> =
                view_cc_ids.iter().map(|&c| p1.view.get(row, c)).collect();
            // CCs that would gain a *new* contribution from this row: the
            // R1 side holds and the partial assignment has not already
            // pinned the R2 side (Algorithm 2 counted pinned rows when it
            // assigned them).
            row_mask.copy_from_slice(&r1_masks[li]);
            for (ci, cc) in ccs.iter().enumerate() {
                if r1_masks[li][ci / 64] & (1 << (ci % 64)) == 0 {
                    continue;
                }
                let already = cc.r2.iter().all(|(col, set)| {
                    p1.r2_cc_cols
                        .iter()
                        .position(|c| c == col)
                        .and_then(|i| partial[i])
                        .is_some_and(|v| set.contains(v))
                });
                if already {
                    row_mask[ci / 64] &= !(1 << (ci % 64));
                }
            }
            candidates.clear();
            candidates.extend((0..p1.combos.len()).filter(|&i| {
                combo_matches_partial(&p1.combos[i], &partial)
                    && combo_masks[i]
                        .iter()
                        .zip(row_mask.iter())
                        .all(|(c, r)| c & r == 0)
            }));
            if candidates.is_empty() {
                invalid.push(row);
                continue;
            }
            // The paper assigns a *random* combination from the unused
            // pool. Spreading leftovers across combos also keeps Phase II
            // partitions balanced — picking one fixed combo would funnel
            // every leftover row into a single giant conflict graph.
            let idx = candidates[rng.gen_range(0..candidates.len())];
            for (ci, &col) in view_cc_ids.iter().enumerate() {
                let v = p1.combos[idx][ci];
                p1.view.set(row, col, Some(v))?;
            }
        }
    }
    Ok(invalid)
}

fn combo_matches_partial(combo: &[Value], partial: &[Option<Value>]) -> bool {
    combo
        .iter()
        .zip(partial.iter())
        .all(|(cv, pv)| pv.is_none_or(|pv| *cv == pv))
}

/// The scalar oracle for [`compressed::complete_randomly`]: boxed per-row
/// reads, per-row candidate scans, same per-shard RNG streams as the
/// compressed path.
pub fn complete_randomly_scalar(p1: &mut P1) -> Result<usize> {
    use rand::Rng;
    let mut completed = 0usize;
    let rows: Vec<RowId> = p1.view.rows().filter(|&r| !p1.row_full(r)).collect();
    let view_cc_ids = p1.view_cc_ids.clone();
    for (shard, chunk) in rows.chunks(SHARD_SIZE).enumerate() {
        let mut rng = shard_rng(p1.seed, RANDOM_SALT, shard as u64);
        for &row in chunk {
            let partial: Vec<Option<Value>> =
                view_cc_ids.iter().map(|&c| p1.view.get(row, c)).collect();
            let candidates: Vec<usize> = (0..p1.combos.len())
                .filter(|&i| combo_matches_partial(&p1.combos[i], &partial))
                .collect();
            let idx = if candidates.is_empty() {
                // Nothing matches the partial values; fall back to any combo.
                if p1.combos.is_empty() {
                    continue;
                }
                rng.gen_range(0..p1.combos.len())
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
            for (ci, &col) in view_cc_ids.iter().enumerate() {
                let v = p1.combos[idx][ci];
                p1.view.set(row, col, Some(v))?;
            }
            completed += 1;
        }
    }
    Ok(completed)
}

/// Runs the configured Phase I strategy, mutating `stats` with timings and
/// counters. Returns the context (with the view filled) and the invalid
/// rows.
pub(crate) fn run_phase1(
    instance: &CExtensionInstance,
    config: &SolverConfig,
    stats: &mut SolveStats,
) -> Result<(P1, Vec<RowId>)> {
    hybrid::run(instance, config, stats)
}
