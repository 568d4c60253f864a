//! Error measures (Section 6.1) and solution verification.
//!
//! - **Relative CC error**: `|ĉ − c| / max(10, c)` per CC, reported as
//!   median/mean across the CC set (the threshold 10 guards against tiny
//!   targets).
//! - **DC error**: the fraction of `R̂1` tuples participating in at least
//!   one DC violation (the paper's example: two owners sharing a household
//!   in a 9-tuple relation → error 2/9).
//! - **Join recovery**: `R̂1 ⋈ R̂2` must equal the completed view cell for
//!   cell (Proposition 5.5).

use crate::error::Result;
use crate::instance::CExtensionInstance;
use crate::phase2::conflict::ConflictBuilder;
use crate::report::Solution;
use cextend_constraints::{cc_counts, BoundDc, CardinalityConstraint, DenialConstraint};
use cextend_table::{fk_join, relations_equal_ordered, Relation};

/// Relative error of each CC against the (completed) join view. Every CC
/// is counted in one membership-kernel pass ([`cc_counts`]).
pub fn cc_relative_errors(view: &Relation, ccs: &[CardinalityConstraint]) -> Result<Vec<f64>> {
    let counts = cc_counts(view, ccs)?;
    Ok(ccs
        .iter()
        .zip(counts)
        .map(|(cc, got)| {
            let target = cc.target as f64;
            (got as f64 - target).abs() / target.max(10.0)
        })
        .collect())
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Fraction of `R̂1` tuples involved in at least one DC violation,
/// grouping by the relation's unique FK column. For fact tables carrying
/// several FK columns (branching schema graphs), name the grouping column
/// explicitly via [`dc_error_on`].
pub fn dc_error(r1_hat: &Relation, dcs: &[DenialConstraint]) -> Result<f64> {
    if r1_hat.is_empty() || dcs.is_empty() {
        return Ok(0.0);
    }
    let fk = r1_hat.schema().fk_col().ok_or_else(|| {
        crate::error::CoreError::Validation(
            "R1 must have exactly one foreign-key column; use dc_error_on for multi-FK facts"
                .into(),
        )
    })?;
    dc_error_grouped(r1_hat, fk, dcs)
}

/// [`dc_error`] with the grouping FK column named explicitly — the
/// violation groups are the tuples sharing a value of `fk_col`.
pub fn dc_error_on(r1_hat: &Relation, fk_col: &str, dcs: &[DenialConstraint]) -> Result<f64> {
    if r1_hat.is_empty() || dcs.is_empty() {
        return Ok(0.0);
    }
    let fk = r1_hat.schema().col_id(fk_col).ok_or_else(|| {
        crate::error::CoreError::Validation(format!(
            "`{}` has no column `{fk_col}` to group DC violations by",
            r1_hat.name()
        ))
    })?;
    dc_error_grouped(r1_hat, fk, dcs)
}

fn dc_error_grouped(
    r1_hat: &Relation,
    fk: cextend_table::ColId,
    dcs: &[DenialConstraint],
) -> Result<f64> {
    let bound: Vec<BoundDc> = dcs
        .iter()
        .map(|d| d.bind(r1_hat.schema(), r1_hat.name()))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    // Group tuples by household over dictionary codes; violations only
    // occur within a household. Rows with a missing FK belong to no group.
    let grouped = cextend_table::marginals::group_rows(r1_hat, &[fk]);
    let mut violating = vec![false; r1_hat.n_rows()];
    // One builder (compiled DC plans + scratch) across the thousands of
    // per-FK groups; bulk pair emission skips per-edge hashing on these
    // small groups.
    let rows_hint = grouped
        .iter()
        .map(|(_, rows)| rows.len())
        .max()
        .unwrap_or(0);
    let mut builder = ConflictBuilder::new(&bound, r1_hat, rows_hint);
    for (key, rows) in grouped.iter() {
        if key[0].is_none() || rows.len() < 2 {
            continue;
        }
        let g = builder.build(r1_hat, rows);
        for e in g.edges() {
            for &v in e {
                violating[rows[v as usize]] = true;
            }
        }
    }
    Ok(violating.iter().filter(|&&b| b).count() as f64 / r1_hat.n_rows() as f64)
}

/// Full evaluation of a solution against its instance.
#[derive(Clone, Debug)]
pub struct EvaluationReport {
    /// Per-CC relative errors, in instance CC order.
    pub cc_errors: Vec<f64>,
    /// Median relative CC error.
    pub cc_median: f64,
    /// Mean relative CC error.
    pub cc_mean: f64,
    /// Fraction of tuples violating some DC.
    pub dc_error: f64,
    /// `true` iff `R̂1 ⋈ R̂2` equals the reported view.
    pub join_recovered: bool,
}

/// Evaluates `solution` against `instance`.
pub fn evaluate(instance: &CExtensionInstance, solution: &Solution) -> Result<EvaluationReport> {
    let cc_errors = cc_relative_errors(&solution.vjoin, &instance.ccs)?;
    let joined = fk_join(&solution.r1_hat, &solution.r2_hat)?;
    Ok(EvaluationReport {
        cc_median: median(&cc_errors),
        cc_mean: mean(&cc_errors),
        cc_errors,
        dc_error: dc_error(&solution.r1_hat, &instance.dcs)?,
        join_recovered: relations_equal_ordered(&joined, &solution.vjoin),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures;
    use cextend_table::Value;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn paper_dc_error_example() {
        // "if the hid value in the first two tuples … was 2, the DC error
        // would be 2/9" — two owners in one household.
        //
        // Note: Figure 3 as printed pairs the 24-year-old spouse with the
        // 75-year-old owner, which violates DC_O,S,low by one year
        // (24 < 75 − 50); we use a corrected assignment that places the
        // spouse and children with the monolingual 25-year-old owner.
        let mut r1 = fixtures::persons();
        let fk = r1.schema().fk_col().unwrap();
        for (row, hid) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 3),
            (5, 3),
            (6, 3),
            (7, 5),
            (8, 6),
        ] {
            r1.set(row, fk, Some(Value::Int(hid))).unwrap();
        }
        let dcs = fixtures::figure2_dcs();
        assert_eq!(dc_error(&r1, &dcs).unwrap(), 0.0);
        // Now violate DC_OO by placing owner pid=1 with owner pid=2.
        r1.set(0, fk, Some(Value::Int(2))).unwrap();
        let err = dc_error(&r1, &dcs).unwrap();
        assert!((err - 2.0 / 9.0).abs() < 1e-12, "got {err}");
    }

    #[test]
    fn cc_error_uses_max_10_denominator() {
        use cextend_constraints::parse_cc;
        use cextend_table::{ColumnDef, Dtype, Relation, Schema};
        let schema = Schema::new(vec![
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut view = Relation::new("v", schema);
        for _ in 0..5 {
            view.push_full_row(&[Value::str("Owner"), Value::str("Chicago")])
                .unwrap();
        }
        let r2cols: std::collections::HashSet<String> = ["Area".to_owned()].into_iter().collect();
        // Target 0, got 5 → error 5/max(10,0) = 0.5.
        let cc0 = parse_cc("z", r#"| Rel = "Owner" & Area = "Chicago" | = 0"#, &r2cols).unwrap();
        // Target 20, got 5 → error 15/20 = 0.75.
        let cc20 = parse_cc("t", r#"| Rel = "Owner" & Area = "Chicago" | = 20"#, &r2cols).unwrap();
        let errs = cc_relative_errors(&view, &[cc0, cc20]).unwrap();
        assert!((errs[0] - 0.5).abs() < 1e-12);
        assert!((errs[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dc_error_empty_inputs() {
        let r1 = fixtures::persons();
        assert_eq!(dc_error(&r1, &[]).unwrap(), 0.0);
        // All-FK-missing relation groups nothing.
        assert_eq!(dc_error(&r1, &fixtures::figure2_dcs()).unwrap(), 0.0);
    }
}
