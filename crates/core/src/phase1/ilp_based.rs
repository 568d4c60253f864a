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
use crate::phase1::P1;
use cextend_constraints::{BinKey, CardinalityConstraint, NormalizedCond};
use cextend_ilp::{
    largest_remainder, solve_ilp, solve_lp, BbConfig, IlpStatus, LpStatus, Problem, Rel,
};
use cextend_table::RowId;

/// Which marginal rows to add (Sections 4.1 and 4.3).
#[derive(Clone, Debug)]
pub(crate) enum MarginalMode<'a> {
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

/// Runs Algorithm 1 for `ccs` over the currently unassigned view rows.
pub(crate) fn run(
    p1: &mut P1,
    ccs: &[CardinalityConstraint],
    mode: MarginalMode<'_>,
    settings: &IlpSettings,
) -> Result<IlpOutcome> {
    let mut out = IlpOutcome::default();

    // ---- Bin the unassigned rows. -------------------------------------
    let empty_rows = p1.empty_rows();
    if empty_rows.is_empty() || p1.combos.is_empty() {
        return Ok(out);
    }
    let build_stage = cextend_obs::stage("ilp_build");
    let bound = p1.binning.bind(p1.view.schema(), p1.view.name())?;
    let mut bins: Vec<BinKey> = Vec::new();
    let mut bin_rows: Vec<Vec<RowId>> = Vec::new();
    {
        let mut index: std::collections::HashMap<BinKey, usize> = std::collections::HashMap::new();
        for &r in &empty_rows {
            let Some(key) = bound.bin_of_row(&p1.view, r) else {
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
    out.bins = bins.len();

    // ---- Bin scope (modified marginals). ------------------------------
    let in_scope: Vec<bool> = match &mode {
        MarginalMode::Restricted(conds) => {
            // Each condition projected onto the binning columns, once.
            let projected: Vec<NormalizedCond> = conds
                .iter()
                .map(|cond| {
                    NormalizedCond::from_sets(
                        cond.iter()
                            .filter(|(col, _)| p1.binning.columns().iter().any(|c| c == col))
                            .map(|(col, set)| (col.to_owned(), set.clone())),
                    )
                })
                .collect();
            bins.iter()
                .map(|bin| {
                    projected
                        .iter()
                        .any(|cond| p1.binning.bin_satisfies(bin, cond).unwrap_or(false))
                })
                .collect()
        }
        _ => vec![true; bins.len()],
    };

    // ---- Match tables. -------------------------------------------------
    let n_ccs = ccs.len();
    let mut bin_match = vec![false; n_ccs * bins.len()];
    for (ci, cc) in ccs.iter().enumerate() {
        for (bi, bin) in bins.iter().enumerate() {
            bin_match[ci * bins.len() + bi] = p1.binning.bin_satisfies(bin, &cc.r1)?;
        }
    }
    let mut combo_match = vec![false; n_ccs * p1.combos.len()];
    for (ci, cc) in ccs.iter().enumerate() {
        for (ki, combo) in p1.combos.iter().enumerate() {
            combo_match[ci * p1.combos.len() + ki] = p1.combo_satisfies(combo, &cc.r2);
        }
    }

    // ---- Variables. -----------------------------------------------------
    let with_marginals = !matches!(mode, MarginalMode::None);
    let mut problem = Problem::new();
    // (bin, Some(combo)) or (bin, None) for the neutral variable.
    let mut vars: Vec<(usize, Option<usize>)> = Vec::new();
    let mut bin_vars: Vec<Vec<usize>> = vec![Vec::new(); bins.len()];
    for bi in 0..bins.len() {
        if !in_scope[bi] {
            continue;
        }
        for ki in 0..p1.combos.len() {
            let relevant = settings.naive_variables
                || (0..n_ccs).any(|ci| {
                    bin_match[ci * bins.len() + bi] && combo_match[ci * p1.combos.len() + ki]
                });
            if relevant {
                let v = problem.add_var(format!("x_b{bi}_c{ki}"));
                vars.push((bi, Some(ki)));
                bin_vars[bi].push(v);
            }
        }
        if with_marginals && !settings.naive_variables {
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
    for (ci, cc) in ccs.iter().enumerate() {
        let terms: Vec<(usize, i64)> = vars
            .iter()
            .enumerate()
            .filter(|(_, &(bi, k))| {
                k.is_some_and(|ki| {
                    bin_match[ci * bins.len() + bi] && combo_match[ci * p1.combos.len() + ki]
                })
            })
            .map(|(v, _)| (v, 1))
            .collect();
        problem.add_soft_eq(terms, cc.target.min(i64::MAX as u64) as i64, 1);
    }
    out.vars = vars.len();
    out.rows = problem.n_constraints();
    drop(build_stage);

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
        let combo_vals = p1.combos[ki].clone();
        while want > 0 && cursors[bi] < bin_rows[bi].len() {
            let row = bin_rows[bi][cursors[bi]];
            cursors[bi] += 1;
            p1.assign_combo(row, &combo_vals)?;
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

    fn setup() -> (CExtensionInstance, P1) {
        let instance = fixtures::running_example();
        let p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        (instance, p1)
    }

    #[test]
    fn running_example_with_marginals_is_exact() {
        // Example 4.1: with all-way marginals the ILP reproduces the view of
        // Figure 5 (up to symmetry), satisfying all four CCs exactly.
        let (instance, mut p1) = setup();
        let out = run(
            &mut p1,
            &instance.ccs,
            MarginalMode::AllWay,
            &IlpSettings::default(),
        )
        .unwrap();
        assert_eq!(out.assigned_rows, 9, "all nine view rows get an Area");
        for cc in &instance.ccs {
            assert_eq!(cc.count_in(&p1.view).unwrap(), cc.target, "{cc}");
        }
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
            &subset,
            MarginalMode::Restricted(&conds),
            &IlpSettings::default(),
        )
        .unwrap();
        // Owner rows: 6 of 9.
        assert_eq!(out.assigned_rows, 6);
        assert_eq!(instance.ccs[0].count_in(&p1.view).unwrap(), 4);
        assert_eq!(instance.ccs[1].count_in(&p1.view).unwrap(), 2);
    }

    #[test]
    fn rounding_fallback_keeps_bin_rows_exact() {
        // Force rounding by allowing zero B&B nodes.
        let (instance, mut p1) = setup();
        let settings = IlpSettings {
            bb_nodes: 0,
            ..IlpSettings::default()
        };
        let out = run(&mut p1, &instance.ccs, MarginalMode::AllWay, &settings).unwrap();
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
        run(&mut p1, &ccs, MarginalMode::AllWay, &IlpSettings::default()).unwrap();
        let got = ccs[0].count_in(&p1.view).unwrap();
        assert!((2..=5).contains(&got), "count {got} outside [2,5]");
    }

    #[test]
    fn empty_cc_set_is_a_no_op() {
        let (_, mut p1) = setup();
        let out = run(&mut p1, &[], MarginalMode::AllWay, &IlpSettings::default()).unwrap();
        // Bins exist, each gets only a neutral var; nothing is filled.
        assert_eq!(out.assigned_rows, 0);
    }
}
