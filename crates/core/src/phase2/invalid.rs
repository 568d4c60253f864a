//! `solveInvalidTuples` (Algorithm 4 line 16).
//!
//! Invalid tuples left Phase I with no complete `B` assignment, so they have
//! no candidate-key list. Each one is assigned, in turn, the combination
//! that adds the least CC error; among that combination's keys (including
//! keys minted earlier) the first household whose current members do not
//! conflict with the tuple under any DC wins. If every household of every
//! combination conflicts, a fresh key is minted — a one-member household
//! violates no FK DC, since DCs quantify over at least two tuples.
//!
//! The CC counts start from Phase I's record ([`InvalidRows`]), taken
//! before Phase I freed its `R1` bitmaps, and are kept up to date as rows
//! land; no pass over a view counts them. The household members the DC
//! checks read come from the household record, their cells from `R1`.

use crate::error::{CoreError, Result};
use crate::phase1::compressed::bitmap_rows;
use crate::phase1::InvalidRows;
use crate::phase2::{record_id, Phase2Ctx};
use cextend_constraints::{BoundDc, CardinalityConstraint};
use cextend_table::{Relation, RowId, NO_MATCH};

/// `true` if adding `r` to a household currently holding `others` would
/// violate some DC (i.e. some DC's φ holds on a set of distinct tuples from
/// `{r} ∪ others` that includes `r`). The DCs are bound against `r1`.
pub(crate) fn conflicts_with_household(
    r1: &Relation,
    dcs: &[BoundDc],
    r: RowId,
    others: &[RowId],
) -> bool {
    let mut pool = Vec::with_capacity(others.len() + 1);
    pool.push(r);
    pool.extend_from_slice(others);
    let mut pick = Pick {
        chosen: Vec::new(),
        rows: Vec::new(),
    };
    dcs.iter()
        .any(|dc| dc.arity <= pool.len() && assignment_holds(r1, dc, &pool, &mut pick))
}

/// Scratch for [`assignment_holds`]: the pool index per variable, and the
/// rows they name at a complete assignment.
struct Pick {
    chosen: Vec<usize>,
    rows: Vec<RowId>,
}

/// `true` if some assignment of distinct pool members to the DC's
/// variables that gives `pool[0]` (the new tuple) to one of them satisfies
/// φ. `pool[0]` is pinned to each variable whose unary atoms it passes in
/// turn, and the other variables range over the household, `pool[1..]`.
fn assignment_holds(r1: &Relation, dc: &BoundDc, pool: &[RowId], pick: &mut Pick) -> bool {
    (0..dc.arity).any(|pin| {
        pick.chosen.clear();
        pick.chosen.resize(dc.arity, 0);
        dc.var_candidate(r1, pin, pool[0]) && fill(r1, dc, pool, pin, 0, pick)
    })
}

/// Assigns household members to the variables from `var` on, skipping the
/// pinned one, and evaluates φ on each complete assignment.
fn fill(
    r1: &Relation,
    dc: &BoundDc,
    pool: &[RowId],
    pin: usize,
    var: usize,
    pick: &mut Pick,
) -> bool {
    if var == dc.arity {
        pick.rows.clear();
        pick.rows.extend(pick.chosen.iter().map(|&i| pool[i]));
        return dc.holds(r1, &pick.rows);
    }
    if var == pin {
        return fill(r1, dc, pool, pin, var + 1, pick);
    }
    for i in 1..pool.len() {
        // Distinct tuples (the pinned variable holds index 0, which no
        // other variable takes), then a cheap pre-filter on this
        // variable's unary atoms.
        if pick.chosen[..var].contains(&i) || !dc.var_candidate(r1, var, pool[i]) {
            continue;
        }
        pick.chosen[var] = i;
        if fill(r1, dc, pool, pin, var + 1, pick) {
            return true;
        }
    }
    false
}

/// Assigns every invalid row of `r1` a household, minimizing added CC
/// error. The DCs are bound against `r1`. Returns the number of households
/// minted.
pub(crate) fn solve_invalid(
    ctx: &mut Phase2Ctx,
    r1: &Relation,
    invalid: &InvalidRows,
    dcs: &[BoundDc],
    ccs: &[CardinalityConstraint],
    allow_augmenting_r2: bool,
) -> Result<usize> {
    if invalid.rows.is_empty() {
        return Ok(0);
    }
    // Phase I's counts, maintained incrementally as invalid rows land. A
    // (row, combo) pair feeds exactly the CCs set in both the row's `R1`
    // mask (its `R1` attributes never change here) and the combo's `R2`
    // mask, which Phase I built.
    let mut counts: Vec<i64> = invalid.fed.iter().map(|&c| c as i64).collect();
    let words = invalid.words;
    // Invalid placement is the masks' last reader.
    let combo_masks = std::mem::take(&mut ctx.combo_ccs);
    // The CCs that row `i` of `invalid` feeds under combo `k`, ascending.
    let fed = |i: usize, k: usize| {
        let (r1, combo) = (
            mask(&invalid.r1_masks, words, i),
            mask(&combo_masks, words, k),
        );
        bitmap_rows(&r1.iter().zip(combo).map(|(r, c)| r & c).collect::<Vec<_>>())
    };
    // Each household's members, from the record: only the DC checks below
    // read them.
    let mut members: Vec<Vec<RowId>> = vec![Vec::new(); ctx.r2_hat.n_rows()];
    for (row, &h) in ctx.record.iter().enumerate() {
        if h != NO_MATCH {
            members[h as usize].push(row);
        }
    }

    let n_combos = ctx.n_combos();
    let mut minted = 0usize;
    for (i, &row) in invalid.rows.iter().enumerate() {
        if n_combos == 0 {
            return Err(CoreError::Validation(
                "R2 has no tuples; invalid rows cannot be assigned".into(),
            ));
        }
        // The row's pins feed some CCs already; the combo it takes
        // replaces them.
        for ci in bitmap_rows(mask(&invalid.pinned, words, i)) {
            counts[ci] -= 1;
        }
        // Score each combo by the CC error its assignment would add: one
        // per fed CC already at its target, minus one per CC below it.
        let added = |ci: usize| {
            if counts[ci] >= ccs[ci].target as i64 {
                1
            } else {
                -1
            }
        };
        let mut scored: Vec<(i64, usize)> = (0..n_combos)
            .map(|k| (fed(i, k).into_iter().map(added).sum(), k))
            .collect();
        scored.sort();

        // First DC-safe household among the best combos wins.
        let safe = scored.iter().find_map(|&(_, k)| {
            ctx.of_combo(k)
                .iter()
                .find(|&&h| !conflicts_with_household(r1, dcs, row, &members[h]))
                .map(|&h| (k, h))
        });
        let (k, r2_row) = match safe {
            Some(found) => found,
            None if !allow_augmenting_r2 => {
                return Err(CoreError::NoSolutionWithoutAugmentation {
                    unassignable: invalid.rows.len(),
                });
            }
            None => {
                let best = scored[0].1;
                minted += 1;
                members.push(Vec::new());
                (best, ctx.mint(best)?)
            }
        };
        ctx.record[row] = record_id(r2_row)?;
        members[r2_row].push(row);
        for ci in fed(i, k) {
            counts[ci] += 1;
        }
    }
    Ok(minted)
}

/// Mask `i` of `masks`, which hold `words` words each.
fn mask(masks: &[u64], words: usize, i: usize) -> &[u64] {
    &masks[i * words..(i + 1) * words]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::instance::{fixtures, CExtensionInstance};
    use crate::phase1::compressed::leftover_rows;
    use crate::phase1::{NO_COMBO, P1};
    use cextend_constraints::{parse_cc, parse_dc, DenialConstraint};
    use cextend_table::Value;

    /// The running example's people and households under `ccs` and `dcs`.
    /// Combo 0 is Chicago (households 0–3), combo 1 NYC (households 4–5).
    fn instance(ccs: &[&str], dcs: Vec<DenialConstraint>) -> CExtensionInstance {
        let r2: std::collections::HashSet<String> = ["Area".to_owned()].into_iter().collect();
        let ccs = ccs
            .iter()
            .enumerate()
            .map(|(i, cc)| parse_cc(&format!("cc{i}"), cc, &r2).unwrap())
            .collect();
        CExtensionInstance::new(fixtures::persons(), fixtures::housing(), ccs, dcs).unwrap()
    }

    /// At most one person per household.
    fn one_per_household() -> Vec<DenialConstraint> {
        vec![parse_dc(
            "one",
            "!(t1.Age >= 0 & t2.Age >= 0 & t1.hid = t2.hid)",
            "hid",
        )
        .unwrap()]
    }

    /// Phase II's context once Phase I's record is `p1`'s and coloring put
    /// each complete row in its combo's first household, with the hand-off
    /// of the rows `p1` left incomplete.
    fn phase2(instance: &CExtensionInstance, p1: P1) -> (Phase2Ctx, InvalidRows) {
        let invalid = p1.invalid_rows(leftover_rows(&p1));
        let (mut ctx, row_combos) = Phase2Ctx::build(instance, p1);
        for (row, &k) in row_combos.iter().enumerate() {
            if k != NO_COMBO {
                ctx.record[row] = ctx.of_combo(k as usize)[0] as u32;
            }
        }
        (ctx, invalid)
    }

    /// [`phase2`] with each `(row, combo, h)` of `placed` completed with
    /// `combo` and colored into household `h`; the other rows are invalid.
    fn placed(
        instance: &CExtensionInstance,
        placed: &[(RowId, usize, usize)],
    ) -> (Phase2Ctx, InvalidRows) {
        let mut p1 = P1::build(instance, &SolverConfig::hybrid()).unwrap();
        for &(row, k, _) in placed {
            p1.set_combo(row, k);
        }
        let (mut ctx, invalid) = phase2(instance, p1);
        for &(row, _, h) in placed {
            ctx.record[row] = h as u32;
        }
        (ctx, invalid)
    }

    fn place(
        ctx: &mut Phase2Ctx,
        invalid: &InvalidRows,
        instance: &CExtensionInstance,
        allow_augmenting_r2: bool,
    ) -> Result<usize> {
        let r1 = &instance.r1;
        let dcs: Vec<BoundDc> = instance
            .dcs
            .iter()
            .map(|d| d.bind(r1.schema(), r1.name()).unwrap())
            .collect();
        solve_invalid(ctx, r1, invalid, &dcs, &instance.ccs, allow_augmenting_r2)
    }

    #[test]
    fn least_added_error_wins_and_ties_take_the_lower_combo() {
        let instance = instance(
            &[
                r#"| Rel = "Owner" & Area = "Chicago" | = 4"#,
                r#"| Rel = "Owner" & Area = "NYC" | = 1"#,
            ],
            vec![],
        );
        // Four Chicago owners and the spouse are placed; the two children
        // and two owners are invalid.
        let (mut ctx, invalid) = placed(
            &instance,
            &[(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 0)],
        );
        assert_eq!(invalid.rows, [5, 6, 7, 8]);
        assert_eq!(invalid.fed, [4, 0]);
        assert_eq!(place(&mut ctx, &invalid, &instance, true).unwrap(), 0);
        // The children feed no CC: every combo ties and Chicago, combo 0,
        // wins. The first owner fills NYC's one place; the second then
        // adds one error anywhere, and the tie goes to Chicago again.
        assert_eq!(ctx.record, [0, 1, 2, 3, 0, 0, 0, 4, 0]);
    }

    #[test]
    fn first_dc_safe_household_wins_minted_ones_included() {
        let instance = instance(
            &[r#"| Rel = "Spouse" & Area = "NYC" | = 0"#],
            one_per_household(),
        );
        let (mut ctx, invalid) = placed(
            &instance,
            &[(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 1, 4)],
        );
        // Coloring minted one more Chicago household, still empty.
        assert_eq!(ctx.mint(0).unwrap(), 6);
        assert_eq!(invalid.rows, [5, 6, 7, 8]);
        // No invalid row feeds the CC, so Chicago is tried first: row 5
        // takes the minted household, row 6 NYC's empty one, and rows 7
        // and 8 find every household taken.
        assert_eq!(place(&mut ctx, &invalid, &instance, true).unwrap(), 2);
        assert_eq!(ctx.record, [0, 1, 2, 3, 4, 6, 5, 7, 8]);
    }

    #[test]
    fn a_fresh_key_is_minted_when_every_household_conflicts() {
        let instance = instance(
            &[r#"| Rel = "Spouse" & Area = "NYC" | = 0"#],
            one_per_household(),
        );
        let (mut ctx, invalid) = placed(
            &instance,
            &[
                (0, 0, 0),
                (1, 0, 1),
                (2, 0, 2),
                (3, 0, 3),
                (4, 1, 4),
                (5, 1, 5),
            ],
        );
        assert_eq!(place(&mut ctx, &invalid, &instance, true).unwrap(), 3);
        assert_eq!(ctx.record[6..], [6, 7, 8]);
        // The minted households are Chicago ones with fresh keys.
        let r2_hat = &ctx.r2_hat;
        for (row, hid) in [(6, 7), (7, 8), (8, 9)] {
            assert_eq!(
                r2_hat.row(row),
                [Some(Value::Int(hid)), Some(Value::str("Chicago"))]
            );
        }
    }

    #[test]
    fn without_augmentation_a_conflicted_row_is_refused() {
        let instance = instance(
            &[r#"| Rel = "Spouse" & Area = "NYC" | = 0"#],
            one_per_household(),
        );
        let (mut ctx, invalid) = placed(
            &instance,
            &[
                (0, 0, 0),
                (1, 0, 1),
                (2, 0, 2),
                (3, 0, 3),
                (4, 1, 4),
                (5, 1, 5),
            ],
        );
        assert!(matches!(
            place(&mut ctx, &invalid, &instance, false),
            Err(CoreError::NoSolutionWithoutAugmentation { unassignable: 3 })
        ));
    }

    #[test]
    fn a_pinned_row_is_scored_without_its_own_pinned_contribution() {
        // Owner 2's pin feeds `A` (3 of 3). Without that contribution `A`
        // is one short, and so is `D` (1 of 2): a Chicago house adds no
        // error and fixes both. Counting the pin again would make `A` look
        // full, tie the Chicago house with the Boston combos and send the
        // owner to the first of those, leaving `A` and `D` one short.
        let (instance, p1) = fixtures::pinned_invalid();
        let (mut ctx, invalid) = phase2(&instance, p1);
        assert_eq!(
            (invalid.rows.as_slice(), invalid.fed.as_slice()),
            (&[2][..], &[3, 1, 1][..])
        );
        place(&mut ctx, &invalid, &instance, true).unwrap();
        assert_eq!(ctx.record[2], 3, "the Chicago house");
    }

    /// The reference: every assignment of distinct pool members to the
    /// DC's variables, kept when it uses `pool[0]`, evaluated whole.
    fn brute_force_conflicts(r1: &Relation, dcs: &[BoundDc], pool: &[RowId]) -> bool {
        fn any_assignment(
            r1: &Relation,
            dc: &BoundDc,
            pool: &[RowId],
            chosen: &mut Vec<usize>,
        ) -> bool {
            if chosen.len() == dc.arity {
                let rows: Vec<RowId> = chosen.iter().map(|&i| pool[i]).collect();
                return chosen.contains(&0) && dc.holds(r1, &rows);
            }
            (0..pool.len()).any(|i| {
                if chosen.contains(&i) {
                    return false;
                }
                chosen.push(i);
                let holds = any_assignment(r1, dc, pool, chosen);
                chosen.pop();
                holds
            })
        }
        dcs.iter()
            .any(|dc| any_assignment(r1, dc, pool, &mut Vec::new()))
    }

    #[test]
    fn the_pinned_household_check_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let r1 = fixtures::persons();
        let texts = [
            r#"!(t1.Rel = "Owner" & t2.Rel = "Owner" & t1.hid = t2.hid)"#,
            r#"!(t1.Rel = "Owner" & t2.Rel = "Spouse" & t2.Age < t1.Age - 50 & t1.hid = t2.hid)"#,
            r#"!(t1.Multi-ling = 1 & t2.Age < t1.Age - 14 & t1.hid = t2.hid)"#,
            "!(t1.Age < t2.Age & t2.Age < t3.Age & t1.hid = t2.hid & t2.hid = t3.hid)",
            r#"!(t1.Rel = "Child" & t2.Rel = "Child" & t3.Rel = "Owner" & t1.hid = t2.hid & t2.hid = t3.hid)"#,
            r#"!(t1.Rel = "Owner" & t2.Age = t1.Age & t3.Multi-ling = 0 & t1.hid = t2.hid & t2.hid = t3.hid)"#,
        ];
        let dcs: Vec<BoundDc> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                parse_dc(&format!("d{i}"), t, "hid")
                    .unwrap()
                    .bind(r1.schema(), r1.name())
                    .unwrap()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut conflicts, mut clean) = (0, 0);
        for _ in 0..400 {
            let mut pool: Vec<RowId> = (0..r1.n_rows()).collect();
            for i in 0..pool.len() {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            pool.truncate(rng.gen_range(1..=5));
            for dc in &dcs {
                let one = std::slice::from_ref(dc);
                let want = brute_force_conflicts(&r1, one, &pool);
                assert_eq!(
                    conflicts_with_household(&r1, one, pool[0], &pool[1..]),
                    want,
                    "pool {pool:?}"
                );
                if want {
                    conflicts += 1;
                } else {
                    clean += 1;
                }
            }
        }
        assert!(conflicts > 100 && clean > 100, "{conflicts} / {clean}");
    }

    #[test]
    fn an_r2_past_the_u32_record_is_an_error() {
        assert_eq!(record_id(7).unwrap(), 7);
        assert!(matches!(
            record_id(NO_MATCH as usize),
            Err(CoreError::Validation(_))
        ));
        assert!(matches!(record_id(1 << 40), Err(CoreError::Validation(_))));
    }
}
