//! `solveInvalidTuples` (Algorithm 4 line 16).
//!
//! Invalid tuples left Phase I with no complete `B` assignment, so they have
//! no candidate-key list. Each one is assigned, in turn, the combination
//! that adds the least CC error; among that combination's keys (including
//! keys minted earlier) the first household whose current members do not
//! conflict with the tuple under any DC wins. If every household of every
//! combination conflicts, a fresh key is minted — a one-member household
//! violates no FK DC, since DCs quantify over at least two tuples.

use crate::error::{CoreError, Result};
use crate::phase1::combo_masks;
use crate::phase2::Phase2Ctx;
use cextend_constraints::{
    cc_counts, BoundDc, CardinalityConstraint, CcMembership, NormalizedCond,
};
use cextend_table::{Relation, RowId};

/// `true` if adding `r` to a household currently holding `others` would
/// violate some DC (i.e. some DC's φ holds on a set of distinct tuples from
/// `{r} ∪ others` that includes `r`).
pub(crate) fn conflicts_with_household(
    view: &Relation,
    dcs: &[BoundDc],
    r: RowId,
    others: &[RowId],
) -> bool {
    let mut pool = Vec::with_capacity(others.len() + 1);
    pool.push(r);
    pool.extend_from_slice(others);
    let mut chosen: Vec<usize> = Vec::new();
    dcs.iter().any(|dc| {
        if dc.arity > pool.len() {
            return false;
        }
        assignment_holds(view, dc, &pool, &mut chosen)
    })
}

/// Tries every assignment of distinct pool members to the DC's variables
/// that uses pool[0] (the new tuple) at least once.
fn assignment_holds(
    view: &Relation,
    dc: &BoundDc,
    pool: &[RowId],
    chosen: &mut Vec<usize>,
) -> bool {
    if chosen.len() == dc.arity {
        if !chosen.contains(&0) {
            return false; // must involve the new tuple
        }
        let rows: Vec<RowId> = chosen.iter().map(|&i| pool[i]).collect();
        return dc.holds(view, &rows);
    }
    let var = chosen.len();
    for i in 0..pool.len() {
        if chosen.contains(&i) {
            continue;
        }
        // Cheap pre-filter on this variable's unary atoms.
        if !dc.var_candidate(view, var, pool[i]) {
            continue;
        }
        chosen.push(i);
        if assignment_holds(view, dc, pool, chosen) {
            chosen.pop();
            return true;
        }
        chosen.pop();
    }
    false
}

/// Assigns every invalid row a household, minimizing added CC error.
pub(crate) fn solve_invalid(
    ctx: &mut Phase2Ctx,
    invalid: &[RowId],
    dcs: &[BoundDc],
    ccs: &[CardinalityConstraint],
    allow_augmenting_r2: bool,
) -> Result<usize> {
    if invalid.is_empty() {
        return Ok(0);
    }
    // Current counts in one kernel pass, maintained incrementally as
    // invalid rows land. A (row, combo) pair feeds exactly the CCs set in
    // both the row's `R1` mask (its `R1` attributes never change here) and
    // the combo's `R2` mask.
    let mut counts: Vec<i64> = cc_counts(&ctx.view, ccs)?
        .into_iter()
        .map(|c| c as i64)
        .collect();
    let kernel = CcMembership::build(&ctx.view, ccs.iter().map(|cc| &cc.r1))?;
    let words = kernel.words();
    let mut r1_masks = vec![0u64; invalid.len() * words];
    for (i, &row) in invalid.iter().enumerate() {
        kernel.row_mask(row, &mut r1_masks[i * words..(i + 1) * words]);
    }
    let r2_sides: Vec<&NormalizedCond> = ccs.iter().map(|cc| &cc.r2).collect();
    let combo_masks = combo_masks(&ctx.r2_cc_cols, &ctx.combos, &r2_sides, words);
    // Calls `f(ci)` for every CC that row `i` of `invalid` feeds under
    // combo `k`, ascending.
    let for_each_fed = |i: usize, k: usize, f: &mut dyn FnMut(usize)| {
        for wi in 0..words {
            let mut w = r1_masks[i * words + wi] & combo_masks[k * words + wi];
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    };

    let mut minted = 0usize;
    for (i, &row) in invalid.iter().enumerate() {
        if ctx.combos.is_empty() {
            return Err(CoreError::Validation(
                "R2 has no tuples; invalid rows cannot be assigned".into(),
            ));
        }
        // Score each combo by the CC error its assignment would add.
        let mut scored: Vec<(i64, usize)> = (0..ctx.combos.len())
            .map(|k| {
                let mut delta = 0i64;
                for_each_fed(i, k, &mut |ci| {
                    delta += if counts[ci] >= ccs[ci].target as i64 {
                        1
                    } else {
                        -1
                    };
                });
                (delta, k)
            })
            .collect();
        scored.sort();

        // First DC-safe household among the best combos wins.
        let safe = scored.iter().find_map(|&(_, k)| {
            let hh = &ctx.households;
            hh.of_combo(&ctx.combos[k])
                .iter()
                .find(|&&r2_row| !conflicts_with_household(&ctx.view, dcs, row, hh.members(r2_row)))
                .map(|&r2_row| (k, r2_row))
        });
        let (k, r2_row) = match safe {
            Some(found) => found,
            None if !allow_augmenting_r2 => {
                return Err(CoreError::NoSolutionWithoutAugmentation {
                    unassignable: invalid.len(),
                });
            }
            None => {
                let best = scored[0].1;
                minted += 1;
                (best, ctx.households.mint(&ctx.combos[best])?)
            }
        };
        ctx.assign_row(row, r2_row)?;
        for_each_fed(i, k, &mut |ci| counts[ci] += 1);
    }
    Ok(minted)
}
