//! Local-search repair of residual CC error (an extension beyond the paper).
//!
//! When branch-and-bound is skipped (large programs) the LP + rounding
//! fallback can leave small CC deviations. Since combos carry no capacity
//! constraint, any row may switch to any other existing combo without
//! violating the hard structure; each switch changes the counts of exactly
//! the CCs whose `R1` side the row matches. A few greedy passes of
//! error-reducing switches close most of the rounding gap.
//!
//! Rows that currently contribute to a *protected* CC (one satisfied
//! exactly by Algorithm 2) are never touched, so the hybrid's exactness
//! guarantee for the clean set survives.

use crate::phase1::{cond_masks, P1};
use cextend_constraints::{CardinalityConstraint, NormalizedCond};
use cextend_table::RowId;

/// Outcome of a repair run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Row-combo switches applied.
    pub moves: usize,
    /// Total absolute CC deviation before repair.
    pub error_before: u64,
    /// Total absolute CC deviation after repair.
    pub error_after: u64,
}

/// Greedily switches row combos to reduce `Σ_cc |count − target|` over the
/// CCs `ccs[i]`, `i ∈ repaired`. The counts of the CCs `ccs[i]`,
/// `i ∈ protected`, must not change. `ccs` must be the CCs `p1` was built
/// from: their `R1` matches are `p1.cc_r1_bits`.
pub fn repair(
    p1: &mut P1,
    ccs: &[CardinalityConstraint],
    repaired: &[usize],
    protected: &[usize],
    passes: usize,
) -> RepairOutcome {
    let mut out = RepairOutcome::default();
    if passes == 0 || repaired.is_empty() || p1.combos.len() < 2 {
        return out;
    }
    assert_eq!(ccs.len(), p1.cc_r1_bits.len(), "the CCs p1 was built from");
    // Current deviation per repaired CC: the rows that already feed it.
    let mut dev: Vec<i64> = repaired
        .iter()
        .map(|&i| p1.fed_count(i) as i64 - ccs[i].target as i64)
        .collect();
    out.error_before = dev.iter().map(|d| d.unsigned_abs()).sum();
    out.error_after = out.error_before;
    if out.error_before == 0 {
        return out;
    }

    // CC bitsets, one per row and one per combo: a row's R1-side matches
    // (transposed from P1's per-CC bitmaps; combo switches change only
    // `R2`-side values, so they are stable across every pass) and the CCs
    // whose R2 side each combo satisfies. Row `row` under combo `k` feeds
    // exactly the CCs set in both.
    let n_rows = p1.n_rows();
    let (rep_words, rep_rows) = row_masks(&p1.cc_r1_bits, repaired, n_rows);
    let (prot_words, prot_rows) = row_masks(&p1.cc_r1_bits, protected, n_rows);
    let r2_sides =
        |idx: &[usize]| -> Vec<&NormalizedCond> { idx.iter().map(|&i| &ccs[i].r2).collect() };
    let rep_combos = cond_masks(&p1.r2_cc_cols, &p1.combos, &r2_sides(repaired), rep_words);
    let prot_combos = cond_masks(&p1.r2_cc_cols, &p1.combos, &r2_sides(protected), prot_words);
    let feeds_protected = |k: usize, row: RowId| {
        let combo = &prot_combos[k * prot_words..(k + 1) * prot_words];
        let hits = &prot_rows[row * prot_words..(row + 1) * prot_words];
        combo.iter().zip(hits).any(|(c, r)| c & r != 0)
    };
    // Calls `f(c, change)` for every repaired CC `c` whose count moves by
    // `change` when `row` switches from combo `from` to `to`, ascending.
    let for_each_moved = |row: RowId, from: usize, to: usize, f: &mut dyn FnMut(usize, i64)| {
        for wi in 0..rep_words {
            let after = rep_combos[to * rep_words + wi];
            let mut w =
                rep_rows[row * rep_words + wi] & (rep_combos[from * rep_words + wi] ^ after);
            while w != 0 {
                let b = w.trailing_zeros();
                let change = if after >> b & 1 == 1 { 1 } else { -1 };
                f(wi * 64 + b as usize, change);
                w &= w - 1;
            }
        }
    };

    for _ in 0..passes {
        let mut improved = false;
        for row in 0..n_rows {
            // Only complete rows switch combos.
            let Some(from) = p1.complete_combo(row) else {
                continue;
            };
            let hits = &rep_rows[row * rep_words..(row + 1) * rep_words];
            if hits.iter().all(|&w| w == 0) {
                continue;
            }
            // Never disturb a row feeding a protected CC.
            if feeds_protected(from, row) {
                continue;
            }
            // Evaluate every alternative combo; keep the best error delta.
            let mut best: Option<(i64, usize)> = None;
            for to in 0..p1.combos.len() {
                // Switching must not start feeding a protected CC either.
                if to == from || feeds_protected(to, row) {
                    continue;
                }
                let mut delta = 0i64;
                for_each_moved(row, from, to, &mut |c, change| {
                    delta += (dev[c] + change).abs() - dev[c].abs();
                });
                if delta < best.map_or(0, |(d, _)| d) {
                    best = Some((delta, to));
                }
            }
            if let Some((delta, to)) = best {
                p1.set_combo(row, to);
                for_each_moved(row, from, to, &mut |c, change| dev[c] += change);
                out.moves += 1;
                out.error_after = (out.error_after as i64 + delta).max(0) as u64;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert_eq!(
        out.error_after,
        dev.iter().map(|d| d.unsigned_abs()).sum::<u64>()
    );
    out
}

/// Row-major `R1` masks over the CCs `idx`: bit `c` of row `row`'s
/// `words` words is bit `row` of `bits[idx[c]]`. Returns `(words, masks)`.
fn row_masks(bits: &[Vec<u64>], idx: &[usize], n_rows: usize) -> (usize, Vec<u64>) {
    let words = idx.len().div_ceil(64).max(1);
    let mut masks = vec![0u64; n_rows * words];
    for (c, &i) in idx.iter().enumerate() {
        for (wi, &w) in bits[i].iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let row = (wi << 6) | w.trailing_zeros() as usize;
                masks[row * words + c / 64] |= 1 << (c % 64);
                w &= w - 1;
            }
        }
    }
    (words, masks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IlpSettings, SolverConfig};
    use crate::instance::fixtures;
    use crate::instance::CExtensionInstance;
    use crate::phase1::ilp_based::{self, MarginalMode};
    use crate::phase1::oracle::cell_counts;
    use crate::phase1::P1;
    use cextend_table::Value;

    /// Running-example instance with every Area deliberately mis-assigned
    /// to NYC; repair must pull counts back to the targets.
    fn sabotaged() -> (CExtensionInstance, P1) {
        let instance = fixtures::running_example();
        let mut p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        let nyc = p1
            .combos
            .iter()
            .position(|c| *c == [Value::str("NYC")])
            .unwrap();
        for row in 0..p1.n_rows() {
            p1.set_combo(row, nyc);
        }
        (instance, p1)
    }

    #[test]
    fn repair_recovers_running_example_targets() {
        let (instance, mut p1) = sabotaged();
        let out = repair(&mut p1, &instance.ccs, &[0, 1, 2, 3], &[], 4);
        assert!(out.error_before > 0);
        assert!(out.moves > 0);
        assert!(
            out.error_after < out.error_before,
            "{out:?} should strictly improve"
        );
        // The running example is fully repairable from any start: all four
        // CC targets are reachable by combo switches alone.
        let targets: Vec<u64> = instance.ccs.iter().map(|cc| cc.target).collect();
        assert_eq!(cell_counts(&p1, &instance), targets);
        assert_eq!(out.error_after, 0);
    }

    #[test]
    fn protected_ccs_are_untouched() {
        let (instance, mut p1) = sabotaged();
        // Protect CC2 (owners in NYC): currently over target (6 owners in
        // NYC vs target 2), but its contributing rows may not move.
        let before = cell_counts(&p1, &instance)[1];
        repair(&mut p1, &instance.ccs, &[2, 3], &[1], 4);
        assert_eq!(cell_counts(&p1, &instance)[1], before);
    }

    #[test]
    fn zero_passes_is_a_no_op() {
        let (instance, mut p1) = sabotaged();
        let out = repair(&mut p1, &instance.ccs, &[0, 1, 2, 3], &[], 0);
        assert_eq!(out, RepairOutcome::default());
    }

    #[test]
    fn already_exact_solution_is_untouched() {
        // Algorithm 1 with all-way marginals solves the running example
        // exactly.
        let instance = fixtures::running_example();
        let mut p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        let settings = IlpSettings::default();
        ilp_based::run(
            &mut p1,
            &instance.r1,
            &instance.ccs,
            MarginalMode::AllWay,
            &settings,
        )
        .unwrap();
        let out = repair(&mut p1, &instance.ccs, &[0, 1, 2, 3], &[], 2);
        assert_eq!(out.error_before, 0);
        assert_eq!(out.moves, 0);
    }
}
