//! Phase I's scalar oracles, and the view they read and write.
//!
//! The paper states Phase I on the cells of `V_join`, a copy of `R1` with
//! empty `R2`-side columns (Section 3.1); production decides into `P1`'s
//! per-row record instead and builds no view. The oracles keep the cell
//! formulation (boxed per-row reads, per-row candidate scans, compiled
//! predicate walks) for the equivalence tests, the fuzzer and the benches.
//! Each takes `&P1` for its combos, CC columns and seed, and the view as an
//! argument; every comparison checks the record's [`pinned_view`] against
//! the view an oracle wrote. Other Phase I and Phase II files build no
//! view: their tests read cells through [`cell_counts`] and
//! [`assert_hasse_agrees`].

use crate::error::Result;
use crate::instance::CExtensionInstance;
use crate::phase1::hasse_rec::{choose_combo, HasseOutcome};
use crate::phase1::{shard_rng, RowState, LEFTOVERS_SALT, P1, PIN_NONE, RANDOM_SALT, SHARD_SIZE};
use cextend_constraints::{CardinalityConstraint, HasseDiagram};
use cextend_table::{init_join_view, BoundPredicate, ColId, Relation, RowId, Value};
use rand::Rng;

/// The view `p1`'s record stands for: `V_join` initialized from
/// `instance`'s `R1` and `R2` (Section 3.1), with each row's pinned CC
/// columns taken from its combo and every other `R2` column missing.
pub fn pinned_view(p1: &P1, instance: &CExtensionInstance) -> Result<Relation> {
    let (mut view, _) = init_join_view(&instance.r1, &instance.r2)?;
    let cc_ids = cc_col_ids(p1, &view)?;
    for row in 0..view.n_rows() {
        let (pins, combo) = p1.pins_and_combo(row);
        if pins == PIN_NONE {
            continue;
        }
        let values = &p1.combos[combo as usize];
        for (j, &pinned) in p1.pin_cols[pins as usize].iter().enumerate() {
            if pinned {
                view.set(row, cc_ids[j], Some(values[j]))?;
            }
        }
    }
    Ok(view)
}

/// The ids in `view` of `p1`'s CC columns, aligned with [`P1::r2_cc_cols`].
pub fn cc_col_ids(p1: &P1, view: &Relation) -> Result<Vec<ColId>> {
    Ok(p1
        .r2_cc_cols
        .iter()
        .map(|c| view.schema().require(c, view.name()))
        .collect::<std::result::Result<Vec<_>, _>>()?)
}

/// Assignment state of `row`'s CC cells `cc_ids` in `view`: what
/// [`P1::state`] says of the record.
pub fn row_state(view: &Relation, cc_ids: &[ColId], row: RowId) -> RowState {
    let present = cc_ids.iter().filter(|&&c| view.get(row, c).is_some());
    match present.count() {
        n if n == cc_ids.len() => RowState::Full,
        0 => RowState::Empty,
        _ => RowState::Partial,
    }
}

/// The rows of `view` whose CC cells are not all assigned, ascending.
fn incomplete_rows(view: &Relation, cc_ids: &[ColId]) -> Vec<RowId> {
    view.rows()
        .filter(|&r| row_state(view, cc_ids, r) != RowState::Full)
        .collect()
}

/// Each CC's `R1`-side condition bound against `view`.
fn bind_r1(view: &Relation, ccs: &[CardinalityConstraint]) -> Result<Vec<BoundPredicate>> {
    ccs.iter()
        .map(|cc| Ok(cc.r1.to_predicate().bind(view.schema(), view.name())?))
        .collect()
}

/// The scalar oracle for [`super::hasse_rec::run`]: boxed per-row state
/// probes and compiled predicate walks over all of `view`'s rows, per node,
/// writing each claim's constrained CC columns into `view`.
pub fn run_hasse_scalar(
    p1: &P1,
    view: &mut Relation,
    ccs: &[CardinalityConstraint],
    hasse: &HasseDiagram,
    components: &[&[usize]],
) -> Result<HasseOutcome> {
    let bound_r1 = bind_r1(view, ccs)?;
    let cc_ids = cc_col_ids(p1, view)?;
    let mut out = HasseOutcome::default();
    for comp in components {
        for m in hasse.maximal_elements(comp) {
            solve_node(p1, view, &cc_ids, ccs, hasse, &bound_r1, m, &mut out)?;
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn solve_node(
    p1: &P1,
    view: &mut Relation,
    cc_ids: &[ColId],
    ccs: &[CardinalityConstraint],
    hasse: &HasseDiagram,
    bound_r1: &[BoundPredicate],
    node: usize,
    out: &mut HasseOutcome,
) -> Result<()> {
    // Children first (lines 9–11).
    let children: Vec<usize> = hasse.children(node).to_vec();
    for &c in &children {
        solve_node(p1, view, cc_ids, ccs, hasse, bound_r1, c, out)?;
    }
    // Demand left for this node after its children (line 12).
    let child_total: u64 = children.iter().map(|&c| ccs[c].target).sum();
    let need = ccs[node].target.saturating_sub(child_total);
    if ccs[node].target < child_total {
        out.deficits += 1;
    }
    if need == 0 {
        return Ok(());
    }
    let Some(combo_idx) = choose_combo(p1, ccs, node, &children) else {
        // No real R2 tuple can satisfy this CC's R2 side.
        out.deficits += 1;
        return Ok(());
    };
    let combo = &p1.combos[combo_idx];
    // Children whose count the chosen combo could still contribute to: rows
    // matching their R1 condition must be excluded (line 12's ¬σ_c).
    let excluded: Vec<usize> = children
        .iter()
        .copied()
        .filter(|&c| p1.combo_satisfies(combo, &ccs[c].r2))
        .collect();
    // Candidate scan over typed column buffers. The compiled predicates
    // borrow the view, so candidates are collected before any assignment;
    // this is sound because the assignment writes only the row's `R2`-side
    // columns while the predicates read `R1` attributes, and an `Empty` row
    // stays `Empty` until this very loop assigns it.
    let candidates: Vec<usize> = {
        let node_pred = bound_r1[node].compile(view);
        let excluded_preds: Vec<_> = excluded
            .iter()
            .map(|&c| bound_r1[c].compile(view))
            .collect();
        (0..view.n_rows())
            .filter(|&row| {
                row_state(view, cc_ids, row) == RowState::Empty
                    && node_pred.eval(row)
                    && !excluded_preds.iter().any(|p| p.eval(row))
            })
            .take(need as usize)
            .collect()
    };
    let taken = candidates.len() as u64;
    for row in candidates {
        // Algorithm 2's partial assignment: only the columns the node's
        // `R2` condition constrains.
        for (i, col) in p1.r2_cc_cols.iter().enumerate() {
            if ccs[node].r2.get(col).is_some() {
                view.set(row, cc_ids[i], Some(combo[i]))?;
            }
        }
        out.assigned_rows += 1;
    }
    if taken < need {
        out.deficits += 1;
    }
    Ok(())
}

/// The scalar oracle for [`super::compressed::complete_leftovers`]: boxed
/// per-row reads of `view`, per-row candidate scans. It draws from the same
/// per-shard RNG streams as the compressed path, so the view it writes is
/// the compressed path's pinned view.
pub fn complete_leftovers_scalar(
    p1: &P1,
    view: &mut Relation,
    ccs: &[CardinalityConstraint],
) -> Result<Vec<RowId>> {
    let bound_r1 = bind_r1(view, ccs)?;
    let cc_ids = cc_col_ids(p1, view)?;
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
    let leftover = incomplete_rows(view, &cc_ids);
    let r1_masks: Vec<Vec<u64>> = {
        let compiled: Vec<_> = bound_r1.iter().map(|b| b.compile(view)).collect();
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
    for (shard, rows) in leftover.chunks(SHARD_SIZE).enumerate() {
        let mut rng = shard_rng(p1.seed, LEFTOVERS_SALT, shard as u64);
        for (k, &row) in rows.iter().enumerate() {
            let li = shard * SHARD_SIZE + k;
            let partial: Vec<Option<Value>> = cc_ids.iter().map(|&c| view.get(row, c)).collect();
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
            for (ci, &col) in cc_ids.iter().enumerate() {
                view.set(row, col, Some(p1.combos[idx][ci]))?;
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

/// The scalar oracle for [`super::compressed::complete_randomly`]: boxed
/// per-row reads of `view`, per-row candidate scans, same per-shard RNG
/// streams as the compressed path.
pub fn complete_randomly_scalar(p1: &P1, view: &mut Relation) -> Result<usize> {
    let cc_ids = cc_col_ids(p1, view)?;
    let mut completed = 0usize;
    let rows = incomplete_rows(view, &cc_ids);
    for (shard, chunk) in rows.chunks(SHARD_SIZE).enumerate() {
        let mut rng = shard_rng(p1.seed, RANDOM_SALT, shard as u64);
        for &row in chunk {
            let partial: Vec<Option<Value>> = cc_ids.iter().map(|&c| view.get(row, c)).collect();
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
            for (ci, &col) in cc_ids.iter().enumerate() {
                view.set(row, col, Some(p1.combos[idx][ci]))?;
            }
            completed += 1;
        }
    }
    Ok(completed)
}

/// Each of `instance`'s CCs counted on the cells of `p1`'s pinned view.
#[cfg(test)]
pub(crate) fn cell_counts(p1: &P1, instance: &CExtensionInstance) -> Vec<u64> {
    let view = pinned_view(p1, instance).unwrap();
    instance
        .ccs
        .iter()
        .map(|cc| cc.count_in(&view).unwrap())
        .collect()
}

/// Asserts that Algorithm 2's record `p1` and outcome `out` over
/// `instance`'s CCs are the view and counters the scalar oracle writes from
/// a fresh context.
#[cfg(test)]
pub(crate) fn assert_hasse_agrees(
    instance: &CExtensionInstance,
    p1: &P1,
    out: &HasseOutcome,
    hasse: &HasseDiagram,
    components: &[&[usize]],
) {
    let scalar = P1::build(instance, &crate::SolverConfig::hybrid()).unwrap();
    let mut view = pinned_view(&scalar, instance).unwrap();
    let want = run_hasse_scalar(&scalar, &mut view, &instance.ccs, hasse, components).unwrap();
    assert_eq!(
        (out.assigned_rows, out.deficits),
        (want.assigned_rows, want.deficits)
    );
    assert!(cextend_table::relations_equal_ordered(
        &pinned_view(p1, instance).unwrap(),
        &view
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::instance::fixtures;
    use crate::phase1::compressed::{
        complete_leftovers, complete_randomly, empty_rows_bitmap, leftover_rows,
    };
    use crate::phase1::hasse_rec;
    use cextend_constraints::RelationshipMatrix;
    use cextend_table::relations_equal_ordered;

    #[test]
    fn bitmaps_agree_with_row_state() {
        let instance = fixtures::running_example();
        let mut p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        // Algorithm 2 on the disjoint CC1 and CC2 places the six owners.
        let ccs = &instance.ccs[..2];
        let hasse = HasseDiagram::build(&RelationshipMatrix::build(ccs));
        let comps: Vec<&[usize]> = hasse.components().iter().map(|c| c.as_slice()).collect();
        hasse_rec::run(&mut p1, ccs, &[0, 1], &hasse, &comps);
        let view = pinned_view(&p1, &instance).unwrap();
        let cc_ids = cc_col_ids(&p1, &view).unwrap();
        let empty = empty_rows_bitmap(&p1);
        let leftover = leftover_rows(&p1);
        let mut states = Vec::new();
        for row in view.rows() {
            let bit = empty[row >> 6] >> (row & 63) & 1 == 1;
            let cells = row_state(&view, &cc_ids, row);
            assert_eq!(p1.state(row), cells, "row {row}");
            assert_eq!(bit, cells == RowState::Empty, "row {row}");
            assert_eq!(
                leftover.contains(&row),
                cells != RowState::Full,
                "row {row}"
            );
            states.push(p1.state(row));
        }
        assert!(states.contains(&RowState::Empty) && states.contains(&RowState::Full));
    }

    #[test]
    fn leftovers_match_scalar_oracle_bit_for_bit() {
        let instance = fixtures::running_example();
        let config = SolverConfig::hybrid();
        let scalar = P1::build(&instance, &config).unwrap();
        let mut view = pinned_view(&scalar, &instance).unwrap();
        let inv_scalar = complete_leftovers_scalar(&scalar, &mut view, &instance.ccs).unwrap();
        for workers in [1, 2, 4] {
            let mut fast = P1::build(&instance, &config).unwrap();
            let inv_fast = complete_leftovers(&mut fast, workers);
            assert_eq!(inv_scalar, inv_fast);
            assert!(relations_equal_ordered(
                &view,
                &pinned_view(&fast, &instance).unwrap()
            ));
        }
    }

    #[test]
    fn random_completion_matches_scalar_oracle_bit_for_bit() {
        let instance = fixtures::running_example();
        let config = SolverConfig::hybrid();
        let scalar = P1::build(&instance, &config).unwrap();
        let mut view = pinned_view(&scalar, &instance).unwrap();
        let n_scalar = complete_randomly_scalar(&scalar, &mut view).unwrap();
        for workers in [1, 2, 4] {
            let mut fast = P1::build(&instance, &config).unwrap();
            let n_fast = complete_randomly(&mut fast, workers);
            assert_eq!(n_scalar, n_fast);
            assert!(relations_equal_ordered(
                &view,
                &pinned_view(&fast, &instance).unwrap()
            ));
        }
    }
}
