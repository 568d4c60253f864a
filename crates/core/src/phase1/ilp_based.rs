//! Algorithm 1: `V_join` completion via integer linear programming.
//!
//! Variables count the view tuples that should take each
//! `(R1-bin, R2-combo)` pair. Per-bin rows are **hard** (they are the
//! all-way marginals of Section 4.1 — true by construction since
//! `|V_join| = |R1|`), CC rows are **elastic** (deviation is minimized, not
//! forbidden), so the program always has a solution and CC error surfaces
//! as deviation rather than failure.
//!
//! Two deliberate economies over the naive formulation, both recorded in
//! DESIGN.md: only `R2`-combos that actually occur in `R2` are enumerated,
//! and a `(bin, combo)` variable is materialized only when the pair counts
//! toward at least one CC — all pairs that count toward none are folded
//! into one *neutral* variable per bin, whose rows are later completed with
//! non-contributing combos.

use crate::config::IlpSettings;
use crate::error::Result;
use crate::phase1::compressed::{bitmap_rows, empty_rows_bitmap};
use crate::phase1::{cond_masks, holds, P1};
use cextend_constraints::{BinDim, BinKey, CardinalityConstraint, ConstraintError, NormalizedCond};
use cextend_ilp::{
    largest_remainder, solve_ilp, solve_lp, BbConfig, IlpStatus, LpStatus, Problem, Rel,
};
use cextend_table::{Relation, RowId, Value, ValueSet};

/// Which marginal rows to add (Sections 4.1 and 4.3).
#[derive(Clone, Debug)]
pub enum MarginalMode<'a> {
    /// No marginal rows (the plain baseline).
    None,
    /// All-way marginals over every bin.
    AllWay,
    /// Marginals restricted to bins overlapping the given `R1` conditions
    /// (the hybrid's "modified marginals").
    Restricted(&'a [NormalizedCond]),
}

/// Counters and timings of one Algorithm 1 run.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IlpOutcome {
    pub vars: usize,
    pub rows: usize,
    pub nodes: usize,
    pub rounded: bool,
    /// Branch-and-bound stopped on its node budget: the incumbent was
    /// kept, or the LP was rounded.
    pub budget_fallback: bool,
    pub assigned_rows: usize,
    pub bins: usize,
}

/// Algorithm 1's program over the currently unassigned rows.
#[derive(Clone, Debug)]
pub struct IlpBuild {
    /// The bins of the unassigned rows, in order of their first row.
    pub bins: Vec<BinKey>,
    /// Each bin's rows, ascending.
    pub bin_rows: Vec<Vec<RowId>>,
    /// Bins that get variables (all of them unless marginals are
    /// restricted).
    pub in_scope: Vec<bool>,
    /// Variables `x_b{bin}_c{combo}` and `x_b{bin}_neutral`, the hard bin
    /// rows, then one elastic row per CC.
    pub problem: Problem,
    /// Per variable: its bin, and its combo (`None` for the neutral one).
    pub vars: Vec<(usize, Option<usize>)>,
    /// Each bin's variables, ascending.
    pub(crate) bin_vars: Vec<Vec<usize>>,
}

/// Builds Algorithm 1's program for `ccs` over the rows of `r1` (the `R1`
/// `p1` was built from) that `p1` left empty; `None` when no row is
/// unassigned or `R2` has no combo.
///
/// Each CC's `R1` columns are resolved to binning positions and its `R2`
/// columns to combo positions once (`cond_masks`). Every bin then gets one
/// mask over the CCs whose `R1` side it satisfies (an interval bin tested
/// at its start, as [`cextend_constraints::Binning::bin_satisfies`] does),
/// and every combo one over the CCs whose `R2` side it satisfies. A
/// `(bin, combo)` variable counts toward exactly the CCs in the AND of the
/// two masks, so one pass over the variables in ascending order both
/// decides which exist and collects every elastic row's terms.
pub fn build(
    p1: &P1,
    r1: &Relation,
    ccs: &[CardinalityConstraint],
    mode: &MarginalMode<'_>,
    naive_variables: bool,
) -> Result<Option<IlpBuild>> {
    // ---- Bin the unassigned rows. -------------------------------------
    let empty_rows = bitmap_rows(&empty_rows_bitmap(p1));
    if empty_rows.is_empty() || p1.combos.is_empty() {
        return Ok(None);
    }
    let _build_stage = cextend_obs::stage("ilp_build");
    let bound = p1.binning.bind(r1.schema(), r1.name())?;
    let mut bins: Vec<BinKey> = Vec::new();
    let mut bin_rows: Vec<Vec<RowId>> = Vec::new();
    {
        let mut index: std::collections::HashMap<BinKey, usize> = std::collections::HashMap::new();
        for &r in &empty_rows {
            let Some(key) = bound.bin_of_row(r1, r) else {
                continue; // missing R1 attribute cell: cannot be binned
            };
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                bins.push(key);
                bin_rows.push(Vec::new());
                bins.len() - 1
            });
            bin_rows[slot].push(r);
        }
    }

    // ---- Per-bin and per-combo CC masks. --------------------------------
    let bin_cols = p1.binning.columns();
    let binned = |col: &str| bin_cols.iter().position(|c| c == col);
    if let Some(col) = ccs
        .iter()
        .flat_map(|cc| cc.r1.columns())
        .find(|&col| binned(col).is_none())
    {
        return Err(ConstraintError::UnknownColumn(col.to_owned()).into());
    }
    // Each bin as the values its conditions are tested at.
    let starts: Vec<Option<&[(i64, i64)]>> = bin_cols
        .iter()
        .map(|c| p1.binning.intervals().intervals(c))
        .collect();
    let bin_values: Vec<Vec<Value>> = bins
        .iter()
        .map(|bin| {
            bin.iter()
                .zip(bin_cols.iter().zip(&starts))
                .map(|(dim, (col, ivs))| match dim {
                    BinDim::Interval(i) => ivs
                        .map(|ivs| Value::Int(ivs[*i as usize].0))
                        .ok_or_else(|| ConstraintError::UnknownColumn(col.clone()).into()),
                    BinDim::Val(v) => Ok(*v),
                })
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<Vec<_>>>()?;
    let in_scope: Vec<bool> = match mode {
        MarginalMode::Restricted(conds) => {
            // Each condition projected onto the binning columns.
            let projected: Vec<Vec<(usize, &ValueSet)>> = conds
                .iter()
                .map(|cond| {
                    cond.iter()
                        .filter_map(|(col, set)| Some((binned(col)?, set)))
                        .collect()
                })
                .collect();
            bin_values
                .iter()
                .map(|values| projected.iter().any(|cond| holds(cond, values)))
                .collect()
        }
        _ => vec![true; bins.len()],
    };
    let words = ccs.len().div_ceil(64);
    let r1s: Vec<&NormalizedCond> = ccs.iter().map(|cc| &cc.r1).collect();
    let r2s: Vec<&NormalizedCond> = ccs.iter().map(|cc| &cc.r2).collect();
    let bin_masks = cond_masks(bin_cols, &bin_values, &r1s, words);
    let combo_masks = cond_masks(&p1.r2_cc_cols, &p1.combos, &r2s, words);

    // ---- Variables and every elastic row's terms, in one pass. ----------
    let with_marginals = !matches!(mode, MarginalMode::None);
    let mut problem = Problem::new();
    let mut vars: Vec<(usize, Option<usize>)> = Vec::new();
    let mut bin_vars: Vec<Vec<usize>> = vec![Vec::new(); bins.len()];
    let mut cc_terms: Vec<Vec<(usize, i64)>> = vec![Vec::new(); ccs.len()];
    for bi in (0..bins.len()).filter(|&bi| in_scope[bi]) {
        let bin_mask = &bin_masks[bi * words..(bi + 1) * words];
        for ki in 0..p1.combos.len() {
            let combo_mask = &combo_masks[ki * words..(ki + 1) * words];
            let relevant =
                naive_variables || bin_mask.iter().zip(combo_mask).any(|(b, c)| b & c != 0);
            if !relevant {
                continue;
            }
            let v = problem.add_var(format!("x_b{bi}_c{ki}"));
            vars.push((bi, Some(ki)));
            bin_vars[bi].push(v);
            for (wi, (b, c)) in bin_mask.iter().zip(combo_mask).enumerate() {
                let mut w = b & c;
                while w != 0 {
                    cc_terms[(wi << 6) | w.trailing_zeros() as usize].push((v, 1));
                    w &= w - 1;
                }
            }
        }
        if with_marginals && !naive_variables {
            // The reduced space needs a catch-all per bin; the naive space
            // already enumerates every combo.
            let v = problem.add_var(format!("x_b{bi}_neutral"));
            vars.push((bi, None));
            bin_vars[bi].push(v);
        }
    }

    // ---- Rows. -----------------------------------------------------------
    if with_marginals {
        for bi in 0..bins.len() {
            if in_scope[bi] && !bin_vars[bi].is_empty() {
                let terms: Vec<(usize, i64)> = bin_vars[bi].iter().map(|&v| (v, 1)).collect();
                problem.add_constraint(terms, Rel::Eq, bin_rows[bi].len() as i64);
            }
        }
    }
    for (cc, terms) in ccs.iter().zip(cc_terms) {
        problem.add_soft_eq(terms, cc.target.min(i64::MAX as u64) as i64, 1);
    }
    Ok(Some(IlpBuild {
        bins,
        bin_rows,
        in_scope,
        problem,
        vars,
        bin_vars,
    }))
}

/// Runs Algorithm 1 for `ccs` over the rows of `r1` that `p1` left empty.
pub(crate) fn run(
    p1: &mut P1,
    r1: &Relation,
    ccs: &[CardinalityConstraint],
    mode: MarginalMode<'_>,
    settings: &IlpSettings,
) -> Result<IlpOutcome> {
    let mut out = IlpOutcome::default();
    let Some(IlpBuild {
        bins,
        bin_rows,
        in_scope,
        problem,
        vars,
        bin_vars,
    }) = build(p1, r1, ccs, &mode, settings.naive_variables)?
    else {
        return Ok(out);
    };
    let with_marginals = !matches!(mode, MarginalMode::None);
    out.bins = bins.len();
    out.vars = vars.len();
    out.rows = problem.n_constraints();

    // ---- Solve. ----------------------------------------------------------
    let solve_stage = cextend_obs::stage("ilp_solve");
    let ilp_result = solve_ilp(
        &problem,
        &BbConfig {
            max_nodes: settings.bb_nodes,
        },
    );
    out.budget_fallback = matches!(
        &ilp_result,
        Ok(sol) if matches!(sol.status, IlpStatus::Feasible | IlpStatus::Unknown)
    );
    let values: Vec<i64> = match ilp_result {
        Ok(sol) if matches!(sol.status, IlpStatus::Optimal | IlpStatus::Feasible) => {
            out.nodes = sol.nodes;
            sol.values
        }
        other => {
            // Fall back to LP + per-bin largest-remainder rounding. The
            // hard bin rows stay exact because rounding happens per group.
            if let Ok(sol) = &other {
                out.nodes = sol.nodes;
            }
            out.rounded = true;
            let lp = solve_lp(&problem);
            match lp {
                Ok(lp) if lp.status == LpStatus::Optimal => {
                    let mut x = vec![0i64; problem.n_vars()];
                    if with_marginals {
                        for bi in 0..bins.len() {
                            if !in_scope[bi] || bin_vars[bi].is_empty() {
                                continue;
                            }
                            let fr: Vec<f64> = bin_vars[bi].iter().map(|&v| lp.values[v]).collect();
                            let rounded = largest_remainder(&fr, bin_rows[bi].len() as i64);
                            for (&v, r) in bin_vars[bi].iter().zip(rounded) {
                                x[v] = r;
                            }
                        }
                    } else {
                        for (v, x_v) in x.iter_mut().enumerate() {
                            *x_v = lp.values[v].max(0.0).floor() as i64;
                        }
                    }
                    x
                }
                _ => vec![0i64; problem.n_vars()],
            }
        }
    };
    drop(solve_stage);

    // ---- Greedy fill (Algorithm 1 lines 15–17). --------------------------
    let fill_stage = cextend_obs::stage("fill");
    let mut cursors = vec![0usize; bins.len()];
    for (v, &(bi, combo)) in vars.iter().enumerate() {
        let Some(ki) = combo else { continue };
        let mut want = values[v].max(0) as usize;
        while want > 0 && cursors[bi] < bin_rows[bi].len() {
            let row = bin_rows[bi][cursors[bi]];
            cursors[bi] += 1;
            p1.set_combo(row, ki);
            out.assigned_rows += 1;
            want -= 1;
        }
    }
    drop(fill_stage);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::instance::fixtures;
    use crate::instance::CExtensionInstance;
    use crate::phase1::oracle::cell_counts;

    fn setup() -> (CExtensionInstance, P1) {
        let instance = fixtures::running_example();
        let p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        (instance, p1)
    }

    /// Algorithm 1's program built pair by pair over `r1`'s rows: bins
    /// from each empty row's [`P1::state`], bin scope from `bin_satisfies`
    /// on the projected conditions, match tables from per-(CC, bin)
    /// `bin_satisfies` and per-(CC, combo) `combo_satisfies`, and each
    /// elastic row filtering every variable.
    fn reference_problem(
        p1: &P1,
        r1: &Relation,
        ccs: &[CardinalityConstraint],
        mode: &MarginalMode<'_>,
        naive: bool,
    ) -> Problem {
        use crate::phase1::RowState;
        let bound = p1.binning.bind(r1.schema(), r1.name()).unwrap();
        let (mut bins, mut bin_sizes): (Vec<BinKey>, Vec<i64>) = (Vec::new(), Vec::new());
        for r in r1.rows() {
            if p1.state(r) != RowState::Empty {
                continue;
            }
            let Some(key) = bound.bin_of_row(r1, r) else {
                continue;
            };
            match bins.iter().position(|b| *b == key) {
                Some(bi) => bin_sizes[bi] += 1,
                None => {
                    bins.push(key);
                    bin_sizes.push(1);
                }
            }
        }
        let binned = |col: &str| p1.binning.columns().iter().any(|c| c == col);
        let in_scope: Vec<bool> = bins
            .iter()
            .map(|bin| match mode {
                MarginalMode::Restricted(conds) => conds.iter().any(|cond| {
                    let projected = NormalizedCond::from_sets(
                        cond.iter()
                            .filter(|(col, _)| binned(col))
                            .map(|(col, set)| (col.to_owned(), set.clone())),
                    );
                    p1.binning.bin_satisfies(bin, &projected).unwrap()
                }),
                _ => true,
            })
            .collect();
        let bin_match: Vec<Vec<bool>> = ccs
            .iter()
            .map(|cc| {
                bins.iter()
                    .map(|bin| p1.binning.bin_satisfies(bin, &cc.r1).unwrap())
                    .collect()
            })
            .collect();
        let combo_match: Vec<Vec<bool>> = ccs
            .iter()
            .map(|cc| {
                p1.combos
                    .iter()
                    .map(|combo| p1.combo_satisfies(combo, &cc.r2))
                    .collect()
            })
            .collect();
        let counts = |ci: usize, bi: usize, ki: usize| bin_match[ci][bi] && combo_match[ci][ki];
        let with_marginals = !matches!(mode, MarginalMode::None);
        let mut problem = Problem::new();
        let mut vars: Vec<(usize, Option<usize>)> = Vec::new();
        let mut bin_vars: Vec<Vec<usize>> = vec![Vec::new(); bins.len()];
        for bi in (0..bins.len()).filter(|&bi| in_scope[bi]) {
            for ki in 0..p1.combos.len() {
                if naive || (0..ccs.len()).any(|ci| counts(ci, bi, ki)) {
                    bin_vars[bi].push(problem.add_var(format!("x_b{bi}_c{ki}")));
                    vars.push((bi, Some(ki)));
                }
            }
            if with_marginals && !naive {
                bin_vars[bi].push(problem.add_var(format!("x_b{bi}_neutral")));
                vars.push((bi, None));
            }
        }
        if with_marginals {
            for (bi, bin_vars) in bin_vars.iter().enumerate() {
                if in_scope[bi] && !bin_vars.is_empty() {
                    let terms = bin_vars.iter().map(|&v| (v, 1)).collect();
                    problem.add_constraint(terms, Rel::Eq, bin_sizes[bi]);
                }
            }
        }
        for (ci, cc) in ccs.iter().enumerate() {
            let terms = (0..vars.len())
                .filter(|&v| vars[v].1.is_some_and(|ki| counts(ci, vars[v].0, ki)))
                .map(|v| (v, 1))
                .collect();
            problem.add_soft_eq(terms, cc.target as i64, 1);
        }
        problem
    }

    #[test]
    fn built_program_matches_the_pairwise_reference() {
        let (instance, mut p1) = setup();
        // One assigned row: binning skips it.
        p1.set_combo(0, 0);
        let conds = vec![instance.ccs[0].r1.clone(), instance.ccs[2].r1.clone()];
        let modes = [
            MarginalMode::None,
            MarginalMode::AllWay,
            MarginalMode::Restricted(&conds),
        ];
        for mode in &modes {
            for naive in [false, true] {
                let built = build(&p1, &instance.r1, &instance.ccs, mode, naive)
                    .unwrap()
                    .unwrap();
                assert!(built.bin_rows.iter().flatten().all(|&r| r != 0));
                let want = reference_problem(&p1, &instance.r1, &instance.ccs, mode, naive);
                assert_eq!(built.problem, want, "{mode:?}, naive {naive}");
            }
        }
    }

    #[test]
    fn running_example_with_marginals_is_exact() {
        // Example 4.1: with all-way marginals the ILP reproduces the view of
        // Figure 5 (up to symmetry), satisfying all four CCs exactly.
        let (instance, mut p1) = setup();
        let out = run(
            &mut p1,
            &instance.r1,
            &instance.ccs,
            MarginalMode::AllWay,
            &IlpSettings::default(),
        )
        .unwrap();
        assert_eq!(out.assigned_rows, 9, "all nine view rows get an Area");
        let targets: Vec<u64> = instance.ccs.iter().map(|cc| cc.target).collect();
        assert_eq!(cell_counts(&p1, &instance), targets);
        // Example 4.1's binning: 4 bins of distinct (Age-interval, Rel,
        // Multi-ling) combinations.
        assert_eq!(out.bins, 4);
    }

    #[test]
    fn without_marginals_some_rows_may_stay_empty() {
        // The paper's 2nd solution in "Augmenting with All-Way Marginals":
        // without marginal rows the ILP can park all mass on few variables
        // and leave view rows unassigned.
        let (instance, mut p1) = setup();
        let out = run(
            &mut p1,
            &instance.r1,
            &instance.ccs,
            MarginalMode::None,
            &IlpSettings::default(),
        )
        .unwrap();
        assert!(out.assigned_rows <= 9);
        // The CC rows are the only pull, so at most Σ targets rows get set.
        let max: u64 = instance.ccs.iter().map(|c| c.target).sum();
        assert!(out.assigned_rows as u64 <= max);
    }

    #[test]
    fn restricted_marginals_only_touch_matching_bins() {
        let (instance, mut p1) = setup();
        // Restrict to the owners' condition: only owner bins participate.
        let conds = vec![instance.ccs[0].r1.clone()];
        let subset = vec![instance.ccs[0].clone(), instance.ccs[1].clone()];
        let out = run(
            &mut p1,
            &instance.r1,
            &subset,
            MarginalMode::Restricted(&conds),
            &IlpSettings::default(),
        )
        .unwrap();
        // Owner rows: 6 of 9.
        assert_eq!(out.assigned_rows, 6);
        assert_eq!(cell_counts(&p1, &instance)[..2], [4, 2]);
    }

    #[test]
    fn rounding_fallback_keeps_bin_rows_exact() {
        // Force rounding by allowing zero B&B nodes.
        let (instance, mut p1) = setup();
        let settings = IlpSettings {
            bb_nodes: 0,
            ..IlpSettings::default()
        };
        let out = run(
            &mut p1,
            &instance.r1,
            &instance.ccs,
            MarginalMode::AllWay,
            &settings,
        )
        .unwrap();
        assert!(out.rounded);
        assert!(out.budget_fallback, "a zero node budget is a budget stop");
        // Hard rows exact ⇒ every row assigned.
        assert_eq!(out.assigned_rows, 9);
    }

    #[test]
    fn conflicting_targets_absorbed_by_elastic_rows() {
        // Two equal-condition CCs with different targets: no integral view
        // satisfies both; the elastic rows split the difference instead of
        // failing.
        use cextend_constraints::parse_cc;
        let r2: std::collections::HashSet<String> = ["Area".to_owned()].into_iter().collect();
        let ccs = vec![
            parse_cc("a", r#"| Rel = "Owner" & Area = "Chicago" | = 2"#, &r2).unwrap(),
            parse_cc("b", r#"| Rel = "Owner" & Area = "Chicago" | = 5"#, &r2).unwrap(),
        ];
        let instance = CExtensionInstance::new(
            fixtures::persons(),
            fixtures::housing(),
            ccs.clone(),
            vec![],
        )
        .unwrap();
        let mut p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        let settings = IlpSettings::default();
        run(&mut p1, &instance.r1, &ccs, MarginalMode::AllWay, &settings).unwrap();
        let got = cell_counts(&p1, &instance)[0];
        assert!((2..=5).contains(&got), "count {got} outside [2,5]");
    }

    #[test]
    fn empty_cc_set_is_a_no_op() {
        let (instance, mut p1) = setup();
        let settings = IlpSettings::default();
        let out = run(&mut p1, &instance.r1, &[], MarginalMode::AllWay, &settings).unwrap();
        // Bins exist, each gets only a neutral var; nothing is filled.
        assert_eq!(out.assigned_rows, 0);
    }
}
