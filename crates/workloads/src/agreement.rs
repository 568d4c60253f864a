//! The certifier's agreement oracle.
//!
//! `cextend_core::metrics::evaluate` certifies a solution from the
//! definitions alone. [`certifier_agrees_on_step`] checks it against
//! independent reference computations on two solutions of one step:
//!
//! - the step's ground-truth completion, built the way the repository
//!   benchmark rebuilds a solved step: `R1` is the step's augmented view
//!   with the FK erased, `R̂1` the same view with the true FK, `R2` the
//!   input target, `R̂2` the ground-truth target and the view their join.
//!   CC targets are measured on it, so its CCs are exact; a registered
//!   workload's truth also satisfies every DC;
//! - the same completion with every odd row's FK moved to another row's
//!   key and the view rebuilt with `fk_join`: still structurally valid,
//!   but with DC violations and CC misses for the certifier to find.
//!
//! On both, `evaluate` must report exactly the DC error computed per FK
//! group with `build_conflict_graph_naive`, the CC errors of `cc_counts`
//! on the same view, and a recovered join. [`reports_agree_across_widths`]
//! certifies the same two solutions at several widths and requires the
//! reports to be identical bit for bit.

use crate::workload::WorkloadData;
use cextend_constraints::{cc_counts, BoundDc, CardinalityConstraint, DenialConstraint};
use cextend_core::conflict::build_conflict_graph_naive;
use cextend_core::metrics::{evaluate, evaluate_with_workers, EvaluationReport};
use cextend_core::snowflake::AugmentedView;
use cextend_core::{CExtensionInstance, Solution, SolveStats};
use cextend_table::{fk_join, Relation, RowId, Value};
use std::collections::BTreeMap;

/// What the references computed on one solution.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    /// Fraction of `R̂1` rows in some conflict edge of their FK group.
    pub dc_error: f64,
    /// Per-CC relative errors of the view.
    pub cc_errors: Vec<f64>,
}

/// Step `step`'s ground-truth completion as an instance and its solution.
pub fn truth_completion(
    data: &WorkloadData,
    step: usize,
    ccs: Vec<CardinalityConstraint>,
    dcs: Vec<DenialConstraint>,
) -> cextend_core::Result<(CExtensionInstance, Solution)> {
    let edge = &data.steps[step];
    let plan = AugmentedView::plan(&data.truth, &data.steps[..step], edge)?;
    let r1 = plan.build(&data.truth, true)?;
    let r1_hat = plan.build(&data.truth, false)?;
    let r2 = data
        .relation(&edge.target)
        .expect("every step target is a relation")
        .clone();
    let r2_hat = data.truth[plan.target_index()].clone();
    let vjoin = fk_join(&r1_hat, &r2_hat)?;
    let instance = CExtensionInstance::new(r1, r2, ccs, dcs)?;
    let solution = Solution {
        r1_hat,
        r2_hat,
        vjoin,
        stats: SolveStats::default(),
    };
    Ok((instance, solution))
}

/// `solution` with every odd row's FK replaced by the FK of row
/// `(7·row + 3) mod n` and the view rebuilt.
fn perturb_fks(solution: &Solution) -> cextend_core::Result<Solution> {
    let mut r1_hat = solution.r1_hat.clone();
    let fk = r1_hat.schema().fk_col().expect("R̂1 has one FK column");
    let n = r1_hat.n_rows();
    for row in (1..n).step_by(2) {
        let donor = solution.r1_hat.get((7 * row + 3) % n, fk);
        r1_hat.set(row, fk, donor)?;
    }
    let vjoin = fk_join(&r1_hat, &solution.r2_hat)?;
    Ok(Solution {
        r1_hat,
        r2_hat: solution.r2_hat.clone(),
        vjoin,
        stats: SolveStats::default(),
    })
}

/// The DC error of `r1_hat` computed per FK group with the naive reference
/// builder: the fraction of rows in at least one conflict edge.
fn reference_dc_error(r1_hat: &Relation, dcs: &[DenialConstraint]) -> f64 {
    let fk = r1_hat.schema().fk_col().expect("R̂1 has one FK column");
    let bound: Vec<BoundDc> = dcs
        .iter()
        .map(|d| d.bind(r1_hat.schema(), r1_hat.name()).expect("DCs bind"))
        .collect();
    let mut groups: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
    for row in r1_hat.rows() {
        if let Some(v) = r1_hat.get(row, fk) {
            groups.entry(v).or_default().push(row);
        }
    }
    let mut violating = vec![false; r1_hat.n_rows()];
    for rows in groups.values() {
        let g = build_conflict_graph_naive(r1_hat, rows, &bound);
        for edge in g.edges() {
            for &v in edge {
                violating[rows[v as usize]] = true;
            }
        }
    }
    violating.iter().filter(|&&v| v).count() as f64 / r1_hat.n_rows().max(1) as f64
}

/// Per-CC relative errors of `view` counted with the membership kernel.
fn reference_cc_errors(view: &Relation, ccs: &[CardinalityConstraint]) -> Vec<f64> {
    cc_counts(view, ccs)
        .expect("CCs count on the view")
        .into_iter()
        .zip(ccs)
        .map(|(got, cc)| {
            let target = cc.target as f64;
            (got as f64 - target).abs() / target.max(10.0)
        })
        .collect()
}

/// Certifies `solution` and compares every figure with the references;
/// returns the references.
fn check_certifier(
    instance: &CExtensionInstance,
    solution: &Solution,
) -> Result<Reference, String> {
    let report = evaluate(instance, solution).map_err(|e| format!("evaluate failed: {e}"))?;
    let reference = Reference {
        dc_error: reference_dc_error(&solution.r1_hat, &instance.dcs),
        cc_errors: reference_cc_errors(&solution.vjoin, &instance.ccs),
    };
    if report.dc_error != reference.dc_error {
        return Err(format!(
            "evaluate reports dc_error {}, the naive builder {}",
            report.dc_error, reference.dc_error
        ));
    }
    if report.cc_errors != reference.cc_errors {
        return Err("evaluate's CC errors differ from cc_counts'".to_owned());
    }
    if !report.join_recovered {
        return Err("evaluate says R̂1 ⋈ R̂2 is not the view fk_join built".to_owned());
    }
    Ok(reference)
}

/// Runs the oracle on step `step`'s ground-truth completion and on its
/// perturbed copy, returning the references of both (truth first). Callers
/// assert that the perturbed ones are nonzero, so the agreement is never
/// vacuous.
pub fn certifier_agrees_on_step(
    data: &WorkloadData,
    step: usize,
    ccs: Vec<CardinalityConstraint>,
    dcs: Vec<DenialConstraint>,
) -> Result<(Reference, Reference), String> {
    let (instance, truth) =
        truth_completion(data, step, ccs, dcs).map_err(|e| format!("step {step}: {e}"))?;
    let clean =
        check_certifier(&instance, &truth).map_err(|e| format!("step {step} truth: {e}"))?;
    let moved = perturb_fks(&truth).map_err(|e| format!("step {step}: {e}"))?;
    let off =
        check_certifier(&instance, &moved).map_err(|e| format!("step {step} perturbed: {e}"))?;
    Ok((clean, off))
}

/// `true` iff two reports hold the same figures, bit for bit.
pub fn reports_identical(a: &EvaluationReport, b: &EvaluationReport) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    bits(&a.cc_errors) == bits(&b.cc_errors)
        && bits(&[a.cc_median, a.cc_mean, a.dc_error])
            == bits(&[b.cc_median, b.cc_mean, b.dc_error])
        && a.join_recovered == b.join_recovered
}

/// Certifies step `step`'s ground-truth completion and its perturbed copy
/// with `evaluate`, and again with `evaluate_with_workers` at each width in
/// `widths`, and requires every report to equal `evaluate`'s bit for bit.
/// Returns `evaluate`'s reports (truth first).
pub fn reports_agree_across_widths(
    data: &WorkloadData,
    step: usize,
    ccs: Vec<CardinalityConstraint>,
    dcs: Vec<DenialConstraint>,
    widths: &[usize],
) -> Result<(EvaluationReport, EvaluationReport), String> {
    let (instance, truth) =
        truth_completion(data, step, ccs, dcs).map_err(|e| format!("step {step}: {e}"))?;
    let moved = perturb_fks(&truth).map_err(|e| format!("step {step}: {e}"))?;
    let certify = |solution: &Solution, what: &str| {
        let fail = |e: cextend_core::CoreError| format!("step {step} {what}: {e}");
        let serial = evaluate(&instance, solution).map_err(fail)?;
        for &workers in widths {
            let wide = evaluate_with_workers(&instance, solution, workers).map_err(fail)?;
            if !reports_identical(&serial, &wide) {
                return Err(format!(
                    "step {step} {what}: the report at width {workers} differs from evaluate's"
                ));
            }
        }
        Ok(serial)
    };
    Ok((certify(&truth, "truth")?, certify(&moved, "perturbed")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{workload_by_name, CcFamily, DcSet, WorkloadParams};

    /// On truth completions of at least three of the certifier's 2^14-row
    /// chunks, the report at widths 1, 2 and 4 is `evaluate`'s, on the clean
    /// copy and on the perturbed one, which has violations to find.
    #[test]
    fn reports_are_identical_at_every_width_across_chunks() {
        for (name, scale) in [("census", 2.0), ("dcdense", 3.5)] {
            let w = workload_by_name(name).expect("registered");
            let data = w.generate(&WorkloadParams::new(scale, 7));
            let n = data.step_owner_truth(0).n_rows();
            assert!(
                n >= 3 << 14,
                "{name}: {n} rows make fewer than three chunks"
            );
            let ccs = w.step_ccs(0, CcFamily::Good, 60, &data, 7);
            let dcs = w.step_dcs(0, DcSet::All);
            let (clean, off) = reports_agree_across_widths(&data, 0, ccs, dcs, &[1, 2, 4])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(clean.dc_error, 0.0, "{name}");
            assert!(
                off.dc_error > 0.0,
                "{name}: the perturbed copy shows no violation"
            );
            assert!(clean.join_recovered && off.join_recovered, "{name}");
        }
    }
}
