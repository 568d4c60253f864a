//! Code-compressed, shardable implementations of Phase 1's bulk loops.
//!
//! The scalar paths in [`super`] (`*_scalar`) read every cell through the
//! boxed [`Relation::get`] and scan every combo per row — fine at workshop
//! scale, a wall at a million rows. The implementations here work in *code
//! space* instead:
//!
//! - Cells are read through the typed column views ([`IntColumnView`],
//!   [`SymColumnView`]); symbols compare as dictionary codes, never as
//!   interned strings.
//! - Row sets (empty rows, leftover rows) are packed `u64` bitmaps built
//!   word-wise from the columns' validity bitmaps.
//! - Per-CC `R1` matches are the bitmaps [`P1::build`] computes once per
//!   solve with the one-pass membership kernel
//!   ([`cextend_constraints::CcMembership`]: per-column lookup tables, a
//!   row's CC mask the AND of its columns' entries). Algorithm 2
//!   ([`super::hasse_rec::run`]) and leftover completion both read them; no
//!   path here evaluates a predicate per CC.
//! - Leftover rows are *grouped* by their (partial assignment, R1-match
//!   mask) key, the mask gathered from those bitmaps one 64-row block at a
//!   time; the candidate-combo list is computed once per **group** instead
//!   of once per **row**, turning the `O(rows × combos)` scan into
//!   `O(groups × combos)` — the difference between 200 s and seconds on
//!   the dc-dense workload.
//! - Writes go through [`Relation::batch_set_ints`] /
//!   [`Relation::batch_set_syms`] instead of per-cell `set` calls.
//!
//! Parallelism: per-combo CC masks, per-group candidate lists and
//! per-shard RNG choices are pure reads and run on a `cextend-sched` pool
//! of `SolverConfig::workers` threads; all view mutation stays serial. RNG
//! draws come from fixed per-shard streams ([`super::shard_rng`]) that
//! depend only on `(seed, stage, shard)`, so runs at any worker count
//! produce bit-identical views — and so does the scalar oracle, which
//! shares the same streams.

use crate::error::Result;
use crate::phase1::{shard_rng, LEFTOVERS_SALT, P1, RANDOM_SALT, SHARD_SIZE};
use cextend_constraints::CardinalityConstraint;
use cextend_table::{ColId, IntColumnView, Relation, RowId, Sym, SymColumnView, Value};
use rand::Rng;
use std::collections::HashMap;

/// Runs `n` independent, infallible subtasks on up to `workers` threads
/// (inline below 2).
fn run_pool<T, F>(n: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let ids: Vec<usize> = (0..n).collect();
    let wrapped = |i: usize| Ok::<T, std::convert::Infallible>(task(i));
    match cextend_sched::run_tasks(&ids, workers, wrapped) {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// A typed, borrowed view of one CC column — the compressed read path.
enum ColView<'a> {
    /// Integer column: codes are the raw values reinterpreted as `u64`.
    Int(IntColumnView<'a>),
    /// Symbol column: codes are dictionary codes (always `< 2^32`).
    Sym(SymColumnView<'a>),
}

impl ColView<'_> {
    /// The cell's code, or `None` when missing.
    #[inline]
    fn code(&self, row: RowId) -> Option<u64> {
        match self {
            ColView::Int(v) => v.get(row).map(|x| x as u64),
            ColView::Sym(v) => v.code(row).map(u64::from),
        }
    }
}

/// Typed views for every CC column of the join view.
fn cc_views<'a>(view: &'a Relation, cc_ids: &[ColId]) -> Vec<ColView<'a>> {
    cc_ids
        .iter()
        .map(|&c| match view.int_view(c) {
            Some(v) => ColView::Int(v),
            None => ColView::Sym(view.sym_view(c).expect("CC column is Int or Sym")),
        })
        .collect()
}

/// Validity words of one CC column.
fn col_validity(view: &Relation, col: ColId) -> &[u64] {
    match view.int_view(col) {
        Some(v) => v.validity_words(),
        None => view
            .sym_view(col)
            .expect("CC column is Int or Sym")
            .validity_words(),
    }
}

/// Code a combo sym maps to when it does not occur in the view dictionary.
/// Real sym codes are `u32`, so this never collides; an unseen sym differs
/// from every interned sym and therefore matches only missing cells (which
/// match everything). Int columns never special-case this value: `-1`
/// encodes to `u64::MAX` on *both* sides, so plain equality stays correct.
const NO_CODE: u64 = u64::MAX;

/// Per-combo packed code tuples, row-major: combo `i` occupies
/// `[i * cols, (i + 1) * cols)`.
fn encode_combos(p1: &P1) -> Vec<u64> {
    let cols = p1.view_cc_ids.len();
    let mut codes = Vec::with_capacity(p1.combos.len() * cols);
    let views = cc_views(&p1.view, &p1.view_cc_ids);
    for combo in &p1.combos {
        for (j, &v) in combo.iter().enumerate() {
            codes.push(match (v, &views[j]) {
                (Value::Int(x), _) => x as u64,
                (Value::Str(s), ColView::Sym(sv)) => {
                    sv.code_of(s).map(u64::from).unwrap_or(NO_CODE)
                }
                (Value::Str(_), ColView::Int(_)) => NO_CODE,
            });
        }
    }
    codes
}

/// Bitmap of rows with **no** CC column assigned ([`super::RowState::Empty`]),
/// built word-wise from the columns' validity bitmaps. All-zero when there
/// are no CC columns (every row counts as full).
pub(crate) fn empty_rows_bitmap(p1: &P1) -> Vec<u64> {
    let n = p1.view.n_rows();
    let words = n.div_ceil(64);
    if p1.view_cc_ids.is_empty() {
        return vec![0u64; words];
    }
    let mut present = vec![0u64; words];
    for &col in &p1.view_cc_ids {
        for (o, &v) in present.iter_mut().zip(col_validity(&p1.view, col)) {
            *o |= v;
        }
    }
    let mut out: Vec<u64> = present.iter().map(|&w| !w).collect();
    if !n.is_multiple_of(64) {
        if let Some(last) = out.last_mut() {
            *last &= (1u64 << (n % 64)) - 1;
        }
    }
    out
}

/// Row ids with at least one CC column missing (`!row_full`), in ascending
/// order — the leftover set, extracted word-wise.
pub(crate) fn leftover_rows(p1: &P1) -> Vec<RowId> {
    let n = p1.view.n_rows();
    if p1.view_cc_ids.is_empty() || n == 0 {
        return Vec::new();
    }
    let words = n.div_ceil(64);
    let mut full = vec![!0u64; words];
    for &col in &p1.view_cc_ids {
        for (o, &v) in full.iter_mut().zip(col_validity(&p1.view, col)) {
            *o &= v;
        }
    }
    let mut rows = Vec::new();
    for (wi, &w) in full.iter().enumerate() {
        let mut m = !w;
        if wi == words - 1 && !n.is_multiple_of(64) {
            m &= (1u64 << (n % 64)) - 1;
        }
        while m != 0 {
            rows.push((wi << 6) | m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
    rows
}

/// One equivalence class of leftover rows: same partial assignment (as
/// presence bits + codes) and, for leftover completion, the same `R1`-match
/// mask — so the same candidate-combo list.
struct Group {
    /// Presence bit per CC column.
    presence: Vec<u64>,
    /// Per-column cell code; `0` where missing.
    codes: Vec<u64>,
    /// CC mask before "already contributes" clearing (empty for
    /// `complete_randomly`).
    r1_mask: Vec<u64>,
    /// The partial assignment as values, for the `ValueSet` probes.
    partial: Vec<Option<Value>>,
}

/// Groups `rows` by their compressed key. Returns the groups (in
/// first-encounter order, which is deterministic because `rows` is) and
/// each row's group id.
///
/// `cc_bits` holds one `R1` bitmap per CC (empty for `complete_randomly`);
/// a row's mask words are gathered from them one 64-row block at a time,
/// so each bitmap word is read once per block however many of its rows
/// are leftovers.
fn group_rows(p1: &P1, rows: &[RowId], cc_bits: &[Vec<u64>]) -> (Vec<Group>, Vec<u32>) {
    let cols = p1.view_cc_ids.len();
    let pres_words = cols.div_ceil(64).max(1);
    let mask_words = cc_bits.len().div_ceil(64);
    let views = cc_views(&p1.view, &p1.view_cc_ids);
    let mut group_of: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut row_group: Vec<u32> = Vec::with_capacity(rows.len());
    let mut key: Vec<u64> = Vec::with_capacity(pres_words + cols + mask_words);
    // The masks of the 64 rows of block `block`, `mask_words` words each.
    let mut block = usize::MAX;
    let mut block_masks = vec![0u64; 64 * mask_words];
    for &row in rows {
        if row >> 6 != block {
            block = row >> 6;
            block_masks.fill(0);
            for (ci, bits) in cc_bits.iter().enumerate() {
                let mut w = bits[block];
                while w != 0 {
                    let r = w.trailing_zeros() as usize;
                    block_masks[r * mask_words + ci / 64] |= 1 << (ci % 64);
                    w &= w - 1;
                }
            }
        }
        key.clear();
        key.resize(pres_words, 0);
        for (j, v) in views.iter().enumerate() {
            match v.code(row) {
                Some(c) => {
                    key[j >> 6] |= 1 << (j & 63);
                    key.push(c);
                }
                None => key.push(0),
            }
        }
        let mask_start = key.len();
        let at = (row & 63) * mask_words;
        key.extend_from_slice(&block_masks[at..at + mask_words]);
        let gid = match group_of.get(&key) {
            Some(&g) => g,
            None => {
                let g = groups.len() as u32;
                groups.push(Group {
                    presence: key[..pres_words].to_vec(),
                    codes: key[pres_words..pres_words + cols].to_vec(),
                    r1_mask: key[mask_start..].to_vec(),
                    partial: p1
                        .view_cc_ids
                        .iter()
                        .map(|&c| p1.view.get(row, c))
                        .collect(),
                });
                group_of.insert(key.clone(), g);
                g
            }
        };
        row_group.push(gid);
    }
    (groups, row_group)
}

/// `true` if combo `i` (in `combo_codes`) agrees with the group's partial
/// assignment on every present column.
#[inline]
fn combo_matches_group(combo_codes: &[u64], cols: usize, i: usize, grp: &Group) -> bool {
    (0..cols).all(|j| {
        grp.presence[j >> 6] >> (j & 63) & 1 == 0 || combo_codes[i * cols + j] == grp.codes[j]
    })
}

/// Sentinel choice for "no candidate combo" (the row is invalid).
const INVALID_CHOICE: u32 = u32::MAX;

/// Applies per-row combo choices with one batch write per CC column.
/// `choices` holds `(index into rows, combo id)` pairs.
fn apply_choices(p1: &mut P1, rows: &[RowId], choices: &[(usize, u32)]) -> Result<()> {
    let cc_ids = p1.view_cc_ids.clone();
    for (j, &col) in cc_ids.iter().enumerate() {
        let is_int = p1.view.int_view(col).is_some();
        if is_int {
            let cells: Vec<(RowId, i64)> = choices
                .iter()
                .map(|&(ri, idx)| match p1.combos[idx as usize][j] {
                    Value::Int(x) => (rows[ri], x),
                    Value::Str(_) => unreachable!("combo dtype matches column dtype"),
                })
                .collect();
            p1.view.batch_set_ints(col, &cells)?;
        } else {
            let cells: Vec<(RowId, Sym)> = choices
                .iter()
                .map(|&(ri, idx)| match p1.combos[idx as usize][j] {
                    Value::Str(s) => (rows[ri], s),
                    Value::Int(_) => unreachable!("combo dtype matches column dtype"),
                })
                .collect();
            p1.view.batch_set_syms(col, &cells)?;
        }
    }
    Ok(())
}

/// Final completion of rows that are not fully assigned (Algorithm 2 lines
/// 14–17, generalized): pick for each such row a combo consistent with its
/// partial assignment that adds **no new contribution** to any CC. Rows for
/// which no such combo exists stay incomplete — the paper's *invalid
/// tuples* — and are resolved by Phase II's `solveInvalidTuples`. Returns
/// the invalid row ids.
///
/// Leftover rows are grouped by (partial, R1 mask), each group's
/// candidate-combo list is computed once, then one combo per row is drawn
/// from the per-shard RNG streams and all writes apply as column batches,
/// with the pure reads on up to `workers` threads. Bit-identical to the
/// scalar oracle [`super::complete_leftovers_scalar`] at every width.
///
/// `ccs` must be the CCs `p1` was built from: their `R1` matches are
/// `p1.cc_r1_bits`.
pub fn complete_leftovers(
    p1: &mut P1,
    ccs: &[CardinalityConstraint],
    workers: usize,
) -> Result<Vec<RowId>> {
    assert_eq!(ccs.len(), p1.cc_r1_bits.len(), "the CCs p1 was built from");
    let leftover = leftover_rows(p1);
    if leftover.is_empty() {
        return Ok(Vec::new());
    }
    let words = ccs.len().div_ceil(64).max(1);
    // Which R2-side conditions each combo meets, as a CC bitmask.
    let combo_masks: Vec<Vec<u64>> = run_pool(p1.combos.len(), workers, |i| {
        let mut mask = vec![0u64; words];
        for (ci, cc) in ccs.iter().enumerate() {
            if p1.combo_satisfies(&p1.combos[i], &cc.r2) {
                mask[ci / 64] |= 1 << (ci % 64);
            }
        }
        mask
    });
    let (groups, row_group) = group_rows(p1, &leftover, &p1.cc_r1_bits);
    let cols = p1.view_cc_ids.len();
    let combo_codes = encode_combos(p1);

    // Candidate combos per group: consistent with the partial assignment
    // and contributing to no CC the row newly matches. A CC is *not* newly
    // matched when the partial assignment already pins its R2 side
    // (Algorithm 2 counted pinned rows when it assigned them).
    let candidates: Vec<Vec<u32>> = run_pool(groups.len(), workers, |g| {
        let grp = &groups[g];
        let mut row_mask = grp.r1_mask.clone();
        for (ci, cc) in ccs.iter().enumerate() {
            if row_mask[ci / 64] & (1 << (ci % 64)) == 0 {
                continue;
            }
            let already = cc.r2.iter().all(|(col, set)| {
                p1.r2_cc_cols
                    .iter()
                    .position(|c| c == col)
                    .and_then(|i| grp.partial[i])
                    .is_some_and(|v| set.contains(v))
            });
            if already {
                row_mask[ci / 64] &= !(1 << (ci % 64));
            }
        }
        (0..p1.combos.len())
            .filter(|&i| {
                combo_matches_group(&combo_codes, cols, i, grp)
                    && combo_masks[i]
                        .iter()
                        .zip(row_mask.iter())
                        .all(|(c, r)| c & r == 0)
            })
            .map(|i| i as u32)
            .collect()
    });

    // One RNG draw per row with candidates, from the shard's own stream.
    let n_shards = leftover.len().div_ceil(SHARD_SIZE);
    let shard_choices: Vec<Vec<(usize, u32)>> = run_pool(n_shards, workers, |shard| {
        let mut rng = shard_rng(p1.seed, LEFTOVERS_SALT, shard as u64);
        let lo = shard * SHARD_SIZE;
        let hi = (lo + SHARD_SIZE).min(leftover.len());
        // Draw counts are per-shard properties of the deterministic shard
        // streams, so the counter total is identical at any worker width.
        let mut draws = 0u64;
        let out: Vec<(usize, u32)> = (lo..hi)
            .map(|li| {
                let cand = &candidates[row_group[li] as usize];
                if cand.is_empty() {
                    (li, INVALID_CHOICE)
                } else {
                    draws += 1;
                    (li, cand[rng.gen_range(0..cand.len())])
                }
            })
            .collect();
        cextend_obs::counter_add("phase1.rng_draws", draws);
        out
    });
    cextend_obs::counter_add("phase1.shards", n_shards as u64);

    let mut invalid = Vec::new();
    let mut chosen: Vec<(usize, u32)> = Vec::with_capacity(leftover.len());
    for (li, c) in shard_choices.into_iter().flatten() {
        if c == INVALID_CHOICE {
            invalid.push(leftover[li]);
        } else {
            chosen.push((li, c));
        }
    }
    apply_choices(p1, &leftover, &chosen)?;
    Ok(invalid)
}

/// Baseline completion: every not-fully-assigned row gets a uniformly
/// random existing combo consistent with its partial assignment (Section
/// 6.1: "Any V_join tuple without an assignment is completed by randomly
/// assigning values in B1..Bq"); a group with no match falls back to the
/// full combo pool. Same grouping, shard streams and `workers` pool as
/// [`complete_leftovers`]; bit-identical to the scalar oracle
/// [`super::complete_randomly_scalar`]. Returns the completed row count.
pub fn complete_randomly(p1: &mut P1, workers: usize) -> Result<usize> {
    let rows = leftover_rows(p1);
    if rows.is_empty() {
        return Ok(0);
    }
    let (groups, row_group) = group_rows(p1, &rows, &[]);
    let cols = p1.view_cc_ids.len();
    let combo_codes = encode_combos(p1);
    let candidates: Vec<Vec<u32>> = run_pool(groups.len(), workers, |g| {
        (0..p1.combos.len())
            .filter(|&i| combo_matches_group(&combo_codes, cols, i, &groups[g]))
            .map(|i| i as u32)
            .collect()
    });

    let n_combos = p1.combos.len();
    let n_shards = rows.len().div_ceil(SHARD_SIZE);
    let shard_choices: Vec<Vec<(usize, u32)>> = run_pool(n_shards, workers, |shard| {
        let mut rng = shard_rng(p1.seed, RANDOM_SALT, shard as u64);
        let lo = shard * SHARD_SIZE;
        let hi = (lo + SHARD_SIZE).min(rows.len());
        let mut draws = 0u64;
        let mut out = Vec::with_capacity(hi - lo);
        for li in lo..hi {
            let cand = &candidates[row_group[li] as usize];
            if cand.is_empty() {
                // Nothing matches the partial values; fall back to any
                // combo — unless there are none, in which case the row
                // stays incomplete (and draws nothing, like the oracle).
                if n_combos == 0 {
                    continue;
                }
                draws += 1;
                out.push((li, rng.gen_range(0..n_combos) as u32));
            } else {
                draws += 1;
                out.push((li, cand[rng.gen_range(0..cand.len())]));
            }
        }
        cextend_obs::counter_add("phase1.rng_draws", draws);
        out
    });
    cextend_obs::counter_add("phase1.shards", n_shards as u64);

    let chosen: Vec<(usize, u32)> = shard_choices.into_iter().flatten().collect();
    let completed = chosen.len();
    apply_choices(p1, &rows, &chosen)?;
    Ok(completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::instance::fixtures;
    use cextend_table::relations_equal_ordered;

    fn built_p1() -> (crate::instance::CExtensionInstance, SolverConfig) {
        (fixtures::running_example(), SolverConfig::hybrid())
    }

    #[test]
    fn bitmaps_agree_with_row_state() {
        let (instance, config) = built_p1();
        let p1 = P1::build(&instance, &config).unwrap();
        let empty = empty_rows_bitmap(&p1);
        let leftover = leftover_rows(&p1);
        for row in p1.view.rows() {
            let bit = empty[row >> 6] >> (row & 63) & 1 == 1;
            assert_eq!(
                bit,
                p1.row_state(row) == crate::phase1::RowState::Empty,
                "row {row}"
            );
            assert_eq!(leftover.contains(&row), !p1.row_full(row), "row {row}");
        }
    }

    #[test]
    fn leftovers_match_scalar_oracle_bit_for_bit() {
        let (instance, config) = built_p1();
        let mut scalar = P1::build(&instance, &config).unwrap();
        let inv_scalar =
            crate::phase1::complete_leftovers_scalar(&mut scalar, &instance.ccs).unwrap();
        for workers in [1, 2, 4] {
            let mut fast = P1::build(&instance, &config).unwrap();
            let inv_fast = complete_leftovers(&mut fast, &instance.ccs, workers).unwrap();
            assert_eq!(inv_scalar, inv_fast);
            assert!(relations_equal_ordered(&scalar.view, &fast.view));
        }
    }

    #[test]
    fn random_completion_matches_scalar_oracle_bit_for_bit() {
        let (instance, config) = built_p1();
        let mut scalar = P1::build(&instance, &config).unwrap();
        let n_scalar = crate::phase1::complete_randomly_scalar(&mut scalar).unwrap();
        for workers in [1, 2, 4] {
            let mut fast = P1::build(&instance, &config).unwrap();
            let n_fast = complete_randomly(&mut fast, workers).unwrap();
            assert_eq!(n_scalar, n_fast);
            assert!(relations_equal_ordered(&scalar.view, &fast.view));
        }
    }

    #[test]
    fn shard_streams_do_not_depend_on_worker_count() {
        let (instance, config) = built_p1();
        let mut base: Option<cextend_table::Relation> = None;
        for workers in [1, 2, 4] {
            let mut p1 = P1::build(&instance, &config).unwrap();
            complete_leftovers(&mut p1, &instance.ccs, workers).unwrap();
            match &base {
                None => base = Some(p1.view),
                Some(b) => assert!(relations_equal_ordered(b, &p1.view), "workers {workers}"),
            }
        }
    }
}
