//! Shardable implementations of Phase 1's bulk completion loops.
//!
//! The scalar oracles in [`super::oracle`] read every cell of the view
//! through the boxed [`cextend_table::Relation::get`] and scan every combo
//! per row — fine at workshop scale, a wall at a million rows. The
//! implementations here read Phase I's per-row record instead (see [`P1`]):
//!
//! - Row sets (empty rows, leftover rows) come from the rows' pin sets,
//!   packed into `u64` bitmaps.
//! - Per-CC `R1` matches are the bitmaps [`P1::build`] computes once per
//!   solve with the one-pass membership kernel
//!   ([`cextend_constraints::CcMembership`]: per-column lookup tables, a
//!   row's CC mask the AND of its columns' entries). Algorithm 2
//!   ([`super::hasse_rec::run`]) and leftover completion both read them; no
//!   path here evaluates a predicate per CC.
//! - Leftover rows are *grouped* by their (pin set, combo, `R1`-match
//!   mask) key, the mask gathered from those bitmaps one 64-row block at a
//!   time; the candidate-combo list is computed once per **group** instead
//!   of once per **row**, turning the `O(rows × combos)` scan into
//!   `O(groups × combos)` — the difference between 200 s and seconds on
//!   the dc-dense workload. The CCs a group already feeds come from its
//!   pin set's cover mask and its combo's CC mask, and each candidate's CC
//!   mask is [`P1::combo_ccs`].
//! - A choice sets the row's combo id; no view cell is written.
//!
//! Parallelism: per-group candidate lists and per-shard RNG choices are
//! pure reads and run on a `cextend-sched` pool of `SolverConfig::workers`
//! threads; all state updates stay serial. RNG draws come from fixed
//! per-shard streams ([`super::shard_rng`]) that depend only on
//! `(seed, stage, shard)`, so runs at any worker count make bit-identical
//! choices — and so does the scalar oracle, which shares the same streams.

use crate::phase1::{shard_rng, LEFTOVERS_SALT, P1, PIN_ALL, PIN_NONE, RANDOM_SALT, SHARD_SIZE};
use cextend_table::RowId;
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

/// Bitmap of the rows whose pin set is `pins` (`want`) or is not
/// (`!want`), over `p1`'s rows.
fn pins_bitmap(p1: &P1, pins: u32, want: bool) -> Vec<u64> {
    let mut out = vec![0u64; p1.row_pins.len().div_ceil(64)];
    for (row, &p) in p1.row_pins.iter().enumerate() {
        if (p == pins) == want {
            out[row >> 6] |= 1 << (row & 63);
        }
    }
    out
}

/// Bitmap of rows that pin no CC column ([`super::RowState::Empty`]).
/// All-zero when there are no CC columns (every row is complete).
pub(crate) fn empty_rows_bitmap(p1: &P1) -> Vec<u64> {
    pins_bitmap(p1, PIN_NONE, true)
}

/// Row ids that are not complete, in ascending order — the leftover set.
pub(crate) fn leftover_rows(p1: &P1) -> Vec<RowId> {
    bitmap_rows(&pins_bitmap(p1, PIN_ALL, false))
}

/// The set bits of `bits` as ascending row ids.
pub(crate) fn bitmap_rows(bits: &[u64]) -> Vec<RowId> {
    let mut rows = Vec::new();
    for (wi, &w) in bits.iter().enumerate() {
        let mut m = w;
        while m != 0 {
            rows.push((wi << 6) | m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
    rows
}

/// One equivalence class of leftover rows: same pin set, same combo and,
/// for leftover completion, the same `R1`-match mask — so the same
/// candidate-combo list.
struct Group {
    pins: u32,
    combo: u32,
    /// CC mask before "already feeds" clearing (empty for
    /// `complete_randomly`).
    r1_mask: Vec<u64>,
}

/// Groups `rows` by their key. Returns the groups (in first-encounter
/// order, which is deterministic because `rows` is) and each row's group
/// id.
///
/// `cc_bits` holds one `R1` bitmap per CC (empty for `complete_randomly`);
/// a row's mask words are gathered from them one 64-row block at a time,
/// so each bitmap word is read once per block however many of its rows
/// are leftovers.
fn group_rows(p1: &P1, rows: &[RowId], cc_bits: &[Vec<u64>]) -> (Vec<Group>, Vec<u32>) {
    let mask_words = cc_bits.len().div_ceil(64);
    let mut group_of: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut row_group: Vec<u32> = Vec::with_capacity(rows.len());
    let mut key: Vec<u64> = Vec::with_capacity(1 + mask_words);
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
        let (pins, combo) = p1.pins_and_combo(row);
        key.clear();
        key.push(u64::from(pins) << 32 | u64::from(combo));
        let at = (row & 63) * mask_words;
        key.extend_from_slice(&block_masks[at..at + mask_words]);
        let gid = match group_of.get(&key) {
            Some(&g) => g,
            None => {
                let g = groups.len() as u32;
                groups.push(Group {
                    pins,
                    combo,
                    r1_mask: key[1..].to_vec(),
                });
                group_of.insert(key.clone(), g);
                g
            }
        };
        row_group.push(gid);
    }
    (groups, row_group)
}

/// Sentinel choice for "no candidate combo" (the row is invalid).
const INVALID_CHOICE: u32 = u32::MAX;

/// Final completion of rows that are not complete (Algorithm 2 lines
/// 14–17, generalized): pick for each such row a combo consistent with its
/// pinned columns that adds **no new contribution** to any CC. Rows for
/// which no such combo exists stay incomplete — the paper's *invalid
/// tuples* — and are resolved by Phase II's `solveInvalidTuples`. Returns
/// the invalid row ids.
///
/// Leftover rows are grouped by (pin set, combo, `R1` mask), each group's
/// candidate-combo list is computed once, then one combo per row is drawn
/// from the per-shard RNG streams, with the pure reads on up to `workers`
/// threads. At every width the view the record stands for is bit-identical
/// to the one the scalar oracle [`super::oracle::complete_leftovers_scalar`]
/// writes. The CCs are the ones `p1` was built from: their `R1` matches are
/// `p1.cc_r1_bits` and their `R2` matches `p1.combo_ccs`.
pub fn complete_leftovers(p1: &mut P1, workers: usize) -> Vec<RowId> {
    let leftover = leftover_rows(p1);
    if leftover.is_empty() {
        return Vec::new();
    }
    let (groups, row_group) = group_rows(p1, &leftover, &p1.cc_r1_bits);
    let words = p1.cc_words;

    // Candidate combos per group: consistent with the pinned columns and
    // contributing to no CC the row newly matches. A CC the row already
    // feeds is not newly matched (Algorithm 2 counted pinned rows when it
    // assigned them).
    let candidates: Vec<Vec<u32>> = run_pool(groups.len(), workers, |g| {
        let grp = &groups[g];
        let new: Vec<u64> = (0..words)
            .map(|w| grp.r1_mask[w] & !p1.fed_word(grp.pins, grp.combo, w))
            .collect();
        (0..p1.combos.len())
            .filter(|&k| {
                p1.agrees(grp.pins, grp.combo, k)
                    && p1.combo_ccs[k * words..(k + 1) * words]
                        .iter()
                        .zip(&new)
                        .all(|(c, r)| c & r == 0)
            })
            .map(|k| k as u32)
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
    for (li, c) in shard_choices.into_iter().flatten() {
        if c == INVALID_CHOICE {
            invalid.push(leftover[li]);
        } else {
            p1.set_combo(leftover[li], c as usize);
        }
    }
    invalid
}

/// Baseline completion: every row that is not complete gets a uniformly
/// random existing combo consistent with its pinned columns (Section 6.1:
/// "Any V_join tuple without an assignment is completed by randomly
/// assigning values in B1..Bq"); a group with no match falls back to the
/// full combo pool. Same grouping, shard streams and `workers` pool as
/// [`complete_leftovers`]; bit-identical to the scalar oracle
/// [`super::oracle::complete_randomly_scalar`]. Returns the completed row
/// count.
pub fn complete_randomly(p1: &mut P1, workers: usize) -> usize {
    let rows = leftover_rows(p1);
    if rows.is_empty() {
        return 0;
    }
    let (groups, row_group) = group_rows(p1, &rows, &[]);
    let candidates: Vec<Vec<u32>> = run_pool(groups.len(), workers, |g| {
        (0..p1.combos.len())
            .filter(|&k| p1.agrees(groups[g].pins, groups[g].combo, k))
            .map(|k| k as u32)
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
                // Nothing matches the pinned values; fall back to any
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

    let mut completed = 0;
    for (li, c) in shard_choices.into_iter().flatten() {
        p1.set_combo(rows[li], c as usize);
        completed += 1;
    }
    completed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::instance::fixtures;

    #[test]
    fn shard_streams_do_not_depend_on_worker_count() {
        let instance = fixtures::running_example();
        let mut base: Option<(Vec<u32>, Vec<u32>)> = None;
        for workers in [1, 2, 4] {
            let mut p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
            complete_leftovers(&mut p1, workers);
            let record = (p1.row_pins, p1.row_combo);
            match &base {
                None => base = Some(record),
                Some(b) => assert_eq!(*b, record, "workers {workers}"),
            }
        }
    }
}
