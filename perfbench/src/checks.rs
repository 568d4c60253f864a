//! Output checks, written against the public API from the definitions of a
//! C-Extension solution (Proposition 5.5), and the separate evaluation call
//! the traced pass times.

use cextend_core::metrics::{evaluate, EvaluationReport};
use cextend_core::snowflake::{AugmentedView, SnowflakeSolution, SnowflakeStep};
use cextend_core::{CExtensionInstance, Solution, SolveStats};
use cextend_table::{fk_join, Relation, Value};
use std::collections::HashSet;
use std::time::Instant;

/// Checks one solved chain against its input tables:
///
/// - every step's FK column is complete and every FK value is a key of the
///   completed target (`R̂2`);
/// - every input table survives row for row: each input row keeps its
///   position and every cell it had (`R̂2 ⊇ R2`, and `R̂1` only gains FKs);
/// - every step reports `dc_error == 0` and a recovered join.
pub fn check_solution(
    input: &[Relation],
    steps: &[SnowflakeStep],
    solved: &SnowflakeSolution,
) -> Result<(), String> {
    if solved.tables.len() != input.len() {
        return Err(format!(
            "{} tables in, {} out",
            input.len(),
            solved.tables.len()
        ));
    }
    if solved.steps.len() != steps.len() {
        return Err(format!(
            "{} steps asked, {} solved",
            steps.len(),
            solved.steps.len()
        ));
    }
    for (before, after) in input.iter().zip(&solved.tables) {
        check_kept(before, after)?;
    }
    for (step, outcome) in steps.iter().zip(&solved.steps) {
        let label = step.edge.label();
        let owner = table(&solved.tables, &step.edge.owner)?;
        let target = table(&solved.tables, &step.edge.target)?;
        check_fk(owner, target, &step.edge.fk_col).map_err(|e| format!("{label}: {e}"))?;
        if outcome.report.dc_error != 0.0 {
            return Err(format!(
                "{label}: dc_error {} (must be 0)",
                outcome.report.dc_error
            ));
        }
        if !outcome.report.join_recovered {
            return Err(format!("{label}: R̂1 ⋈ R̂2 differs from the completed view"));
        }
    }
    Ok(())
}

/// The FK column `fk_col` of `owner` is complete and every value in it is
/// a key of `target`.
pub fn check_fk(owner: &Relation, target: &Relation, fk_col: &str) -> Result<(), String> {
    let fk = owner
        .schema()
        .col_id(fk_col)
        .ok_or_else(|| format!("`{}` has no column `{fk_col}`", owner.name()))?;
    if !owner.column_is_complete(fk) {
        return Err(format!("FK column `{fk_col}` is incomplete"));
    }
    let key = target
        .schema()
        .key_col()
        .ok_or_else(|| format!("`{}` has no key column", target.name()))?;
    let keys: HashSet<Value> = target.rows().filter_map(|r| target.get(r, key)).collect();
    if keys.len() != target.n_rows() {
        return Err(format!("`{}` has missing or duplicate keys", target.name()));
    }
    for row in owner.rows() {
        match owner.get(row, fk) {
            Some(v) if keys.contains(&v) => {}
            other => {
                return Err(format!(
                    "row {row}: FK {other:?} is not a key of `{}`",
                    target.name()
                ))
            }
        }
    }
    Ok(())
}

/// Every row of `before` is still in `after` at the same position, with
/// every cell `before` had unchanged (cells `before` left missing may be
/// filled; rows may be appended).
pub fn check_kept(before: &Relation, after: &Relation) -> Result<(), String> {
    let name = before.name();
    if after.name() != name || after.schema().columns() != before.schema().columns() {
        return Err(format!("table `{name}` changed name or schema"));
    }
    if after.n_rows() < before.n_rows() {
        return Err(format!(
            "`{name}` lost rows: {} in, {} out",
            before.n_rows(),
            after.n_rows()
        ));
    }
    for col in 0..before.schema().len() {
        for row in before.rows() {
            if let Some(v) = before.get(row, col) {
                if after.get(row, col) != Some(v) {
                    return Err(format!("`{name}` row {row} column {col} changed"));
                }
            }
        }
    }
    Ok(())
}

fn table<'a>(tables: &'a [Relation], name: &str) -> Result<&'a Relation, String> {
    tables
        .iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| format!("no table `{name}` in the output"))
}

/// Re-evaluates every step of a solved chain with a separate
/// `metrics::evaluate` call on an instance the benchmark rebuilds itself:
/// `R1` is the step's augmented view over the completed tables with the FK
/// erased, `R2` the step's input target; the solution's `R̂1` is the same
/// view with the FK kept, `R̂2` the completed target, and the view their
/// join. In a schema tree every relation is a step target exactly once and
/// before it owns any step, so the input target is the step's `R2`.
///
/// Returns the reports and the seconds spent inside `evaluate` alone.
pub fn reevaluate(
    input: &[Relation],
    steps: &[SnowflakeStep],
    solved: &SnowflakeSolution,
) -> Result<(Vec<EvaluationReport>, f64), String> {
    let edges: Vec<_> = steps.iter().map(|s| s.edge.clone()).collect();
    let mut reports = Vec::with_capacity(steps.len());
    let mut evaluate_s = 0.0;
    for (i, step) in steps.iter().enumerate() {
        let plan = AugmentedView::plan(&solved.tables, &edges[..i], &step.edge)
            .map_err(|e| e.to_string())?;
        let r1 = plan
            .build(&solved.tables, true)
            .map_err(|e| e.to_string())?;
        let r1_hat = plan
            .build(&solved.tables, false)
            .map_err(|e| e.to_string())?;
        let r2 = table(input, &step.edge.target)?.clone();
        let r2_hat = solved.tables[plan.target_index()].clone();
        let vjoin = fk_join(&r1_hat, &r2_hat).map_err(|e| e.to_string())?;
        let instance = CExtensionInstance::new(r1, r2, step.ccs.clone(), step.dcs.clone())
            .map_err(|e| e.to_string())?;
        let solution = Solution {
            r1_hat,
            r2_hat,
            vjoin,
            stats: SolveStats::default(),
        };
        let start = Instant::now();
        let report = evaluate(&instance, &solution).map_err(|e| e.to_string())?;
        evaluate_s += start.elapsed().as_secs_f64();
        reports.push(report);
    }
    Ok((reports, evaluate_s))
}

/// Checks a re-evaluation against the in-step reports: zero DC error and
/// the same per-CC errors.
pub fn check_reevaluation(
    solved: &SnowflakeSolution,
    reports: &[EvaluationReport],
) -> Result<(), String> {
    for (outcome, report) in solved.steps.iter().zip(reports) {
        if report.dc_error != 0.0 {
            return Err(format!(
                "{}: re-evaluated dc_error {}",
                outcome.label, report.dc_error
            ));
        }
        if report.cc_errors != outcome.report.cc_errors {
            return Err(format!(
                "{}: re-evaluated CC errors differ from the solver's",
                outcome.label
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cextend_core::SolverConfig;
    use cextend_workloads::{workload_by_name, CcFamily, DcSet, WorkloadParams};

    /// A tiny census instance, solved.
    fn solved() -> (Vec<Relation>, Vec<SnowflakeStep>, SnowflakeSolution) {
        let workload = workload_by_name("census").unwrap();
        let data = workload.generate(&WorkloadParams::new(0.02, 5));
        let steps: Vec<SnowflakeStep> = data
            .steps
            .iter()
            .enumerate()
            .map(|(i, edge)| SnowflakeStep {
                edge: edge.clone(),
                ccs: workload.step_ccs(i, CcFamily::Good, 30, &data, 5),
                dcs: workload.step_dcs(i, DcSet::All),
            })
            .collect();
        let solution = cextend_core::snowflake::solve_snowflake(
            data.relations.clone(),
            &steps,
            &SolverConfig::hybrid(),
        )
        .unwrap();
        (data.relations, steps, solution)
    }

    fn fk_of(rel: &Relation) -> usize {
        rel.schema().fk_col().unwrap()
    }

    #[test]
    fn a_correct_solution_passes_both_checks() {
        let (input, steps, sol) = solved();
        check_solution(&input, &steps, &sol).unwrap();
        let (reports, evaluate_s) = reevaluate(&input, &steps, &sol).unwrap();
        assert!(evaluate_s > 0.0);
        check_reevaluation(&sol, &reports).unwrap();
    }

    #[test]
    fn a_missing_or_dangling_fk_is_caught() {
        let (input, steps, sol) = solved();
        let owner = steps[0].edge.owner.clone();
        let owner_idx = sol.tables.iter().position(|t| t.name() == owner).unwrap();

        let mut missing = sol.clone();
        let fk = fk_of(&missing.tables[owner_idx]);
        missing.tables[owner_idx].set(0, fk, None).unwrap();
        let err = check_solution(&input, &steps, &missing).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");

        let mut dangling = sol.clone();
        dangling.tables[owner_idx]
            .set(0, fk, Some(Value::Int(i64::MAX)))
            .unwrap();
        let err = check_solution(&input, &steps, &dangling).unwrap_err();
        assert!(err.contains("not a key"), "{err}");
    }

    #[test]
    fn a_changed_or_lost_r2_row_is_caught() {
        let (input, steps, sol) = solved();
        let target = steps[0].edge.target.clone();
        let t = sol.tables.iter().position(|r| r.name() == target).unwrap();
        let before = &input[t];
        let attr = before.schema().attr_cols()[0];
        let other = (0..before.n_rows())
            .filter_map(|r| before.get(r, attr))
            .find(|v| Some(*v) != before.get(0, attr))
            .expect("the attribute takes two values");
        let mut changed = sol.clone();
        changed.tables[t].set(0, attr, Some(other)).unwrap();
        let err = check_solution(&input, &steps, &changed).unwrap_err();
        assert!(err.contains("changed"), "{err}");

        let mut grown = before.clone();
        grown.push_row(&before.row(0)).unwrap();
        let err = check_kept(&grown, before).unwrap_err();
        assert!(err.contains("lost rows"), "{err}");
    }

    #[test]
    fn a_reported_dc_violation_or_lost_join_is_caught() {
        let (input, steps, sol) = solved();
        let mut violating = sol.clone();
        violating.steps[0].report.dc_error = 0.01;
        let err = check_solution(&input, &steps, &violating).unwrap_err();
        assert!(err.contains("dc_error"), "{err}");

        let mut unjoined = sol.clone();
        unjoined.steps[0].report.join_recovered = false;
        assert!(check_solution(&input, &steps, &unjoined).is_err());

        // The re-evaluation notices reports that disagree with the data.
        let (mut reports, _) = reevaluate(&input, &steps, &sol).unwrap();
        reports[0].cc_errors[0] += 1.0;
        assert!(check_reevaluation(&sol, &reports).is_err());
    }
}
