//! `PlanCost` — sampled-statistics selectivity estimates for DC plans.
//!
//! The conflict builder orders enumeration variables and picks index kinds
//! from estimates derived from [`cextend_table::ColumnStats`] — the
//! query-optimizer move: per-atom
//! selectivities under the usual independence/uniformity assumptions,
//! composed into per-variable candidate fractions and an expected edge
//! count. The conflict builder combines these *global* estimates with the
//! exact per-partition candidate counts it already computes to choose, per
//! partition, whether an enumeration depth is worth a hash-bucket index, a
//! sorted run, or a plain scan.
//!
//! Estimates are heuristics and only steer *performance* decisions — edge
//! sets are produced by exhaustive verified enumeration either way, so a
//! bad estimate can cost time, never correctness (property-tested: the
//! builder's edge sets equal the naive reference's on every workload).

use crate::dc::{BinaryAtomPlan, DcPlan, UnaryFilter};
use cextend_table::{CmpOp, ColumnStats, Relation, Value};

/// Fallback selectivities when no statistics are available for a column
/// (equality is assumed more selective than range).
const FALLBACK_EQ: f64 = 0.1;
const FALLBACK_RANGE: f64 = 0.5;

/// Sampled-statistics cost estimate for one [`DcPlan`] against one
/// relation (see the module docs).
#[derive(Clone, Debug)]
pub struct PlanCost {
    /// Estimated fraction of rows passing each variable's unary filters
    /// (missing cells fail filters, so the null fraction is folded in).
    pub var_selectivity: Vec<f64>,
    /// Estimated selectivity of each binary atom, aligned with
    /// [`DcPlan::binary_atoms`].
    pub atom_selectivity: Vec<f64>,
    /// Expected conflict edges in a partition of `rows_hint` rows under
    /// independence: `Π (rows·var_sel) · Π atom_sel`.
    pub est_edges: f64,
    /// `false` when any estimate fell back to the static defaults because
    /// a column had no usable statistics — the builder counts these as
    /// `plans_static_fallback`.
    pub from_stats: bool,
}

impl PlanCost {
    /// Estimates the plan's selectivities against `rel` (the view the
    /// partitions are drawn from), for a nominal partition of `rows_hint`
    /// rows. Statistics are read through `rel`'s lazy sampled cache.
    pub fn estimate(plan: &DcPlan, rel: &Relation, rows_hint: usize) -> PlanCost {
        let mut from_stats = true;
        let var_selectivity: Vec<f64> = (0..plan.arity())
            .map(|var| {
                plan.unary_filters(var)
                    .iter()
                    .map(|f| unary_selectivity(f, rel, &mut from_stats))
                    .product()
            })
            .collect();
        let atom_selectivity: Vec<f64> = plan
            .binary_atoms()
            .iter()
            .map(|a| binary_selectivity(a, rel, &mut from_stats))
            .collect();
        let mut est_edges: f64 = var_selectivity
            .iter()
            .map(|s| (rows_hint as f64 * s).max(0.0))
            .product();
        est_edges *= atom_selectivity.iter().product::<f64>();
        PlanCost {
            var_selectivity,
            atom_selectivity,
            est_edges,
            from_stats,
        }
    }
}

/// Estimated fraction of rows satisfying one unary atom.
fn unary_selectivity(f: &UnaryFilter, rel: &Relation, from_stats: &mut bool) -> f64 {
    let Some(stats) = rel.column_stats(f.col) else {
        *from_stats = false;
        return fallback(f.op);
    };
    let present = 1.0 - stats.null_fraction();
    let value_sel = match (f.value, f.op) {
        (Value::Str(s), CmpOp::Eq | CmpOp::Ne) => {
            // Dictionary probe: a symbol the column never saw matches no
            // row; a top-k code uses its sampled frequency; the rest share
            // the residual mass uniformly.
            let eq = match rel.sym_view(f.col).and_then(|v| v.code_of(s)) {
                None => 0.0,
                Some(code) => stats.top_code_frequency(code).unwrap_or_else(|| {
                    let top_mass: f64 = stats
                        .top_codes
                        .iter()
                        .map(|&(_, n)| n as f64 / stats.sampled.max(1) as f64)
                        .sum();
                    let rest = stats.n_distinct.saturating_sub(stats.top_codes.len());
                    ((1.0 - top_mass) / rest.max(1) as f64).clamp(0.0, 1.0)
                }),
            };
            if f.op == CmpOp::Eq {
                eq
            } else {
                1.0 - eq
            }
        }
        (Value::Int(_), CmpOp::Eq) => stats.eq_selectivity(),
        (Value::Int(_), CmpOp::Ne) => 1.0 - stats.eq_selectivity(),
        (Value::Int(v), CmpOp::Lt) => stats.lt_fraction(v),
        (Value::Int(v), CmpOp::Le) => stats.lt_fraction(v.saturating_add(1)),
        (Value::Int(v), CmpOp::Gt) => 1.0 - stats.lt_fraction(v.saturating_add(1)),
        (Value::Int(v), CmpOp::Ge) => 1.0 - stats.lt_fraction(v),
        // Type-mismatched atoms (string constant on an ordering op, int on
        // a sym column handled above) never hold.
        (Value::Str(_), _) => 0.0,
    };
    (present * value_sel).clamp(0.0, 1.0)
}

/// Estimated selectivity of one binary atom: equality joins hit
/// `1/max(d_l, d_r)` of pairs under uniformity; orderings split pairs in
/// half; `≠` is the equality complement.
fn binary_selectivity(a: &BinaryAtomPlan, rel: &Relation, from_stats: &mut bool) -> f64 {
    let stats_of = |col| rel.column_stats(col);
    let (Some(l), Some(r)) = (stats_of(a.lcol), stats_of(a.rcol)) else {
        *from_stats = false;
        return fallback(a.op);
    };
    let eq = eq_join_selectivity(&l, &r);
    match a.op {
        CmpOp::Eq => eq,
        CmpOp::Ne => 1.0 - eq,
        _ => FALLBACK_RANGE,
    }
}

fn eq_join_selectivity(l: &ColumnStats, r: &ColumnStats) -> f64 {
    let d = l.n_distinct.max(r.n_distinct).max(1);
    (1.0 / d as f64).min(1.0)
}

fn fallback(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => FALLBACK_EQ,
        CmpOp::Ne => 1.0 - FALLBACK_EQ,
        _ => FALLBACK_RANGE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_dc;
    use cextend_table::{ColumnDef, Dtype, Relation, Schema};

    fn persons() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::foreign_key("hid", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("Persons", schema);
        let rels = ["Owner", "Owner", "Owner", "Spouse", "Child", "Child"];
        for (i, rel) in rels.iter().enumerate() {
            r.push_row(&[
                Some(Value::Int(i as i64 + 1)),
                Some(Value::Int(10 + 10 * i as i64)),
                Some(Value::str(rel)),
                None,
            ])
            .unwrap();
        }
        r
    }

    #[test]
    fn pure_unary_pair_uses_dictionary_frequencies() {
        let r = persons();
        let dc = parse_dc(
            "oo",
            r#"!(t1.Rel = "Owner" & t2.Rel = "Owner" & t1.hid = t2.hid)"#,
            "hid",
        )
        .unwrap();
        let plan = dc.bind(r.schema(), "Persons").unwrap().plan();
        let cost = PlanCost::estimate(&plan, &r, r.n_rows());
        assert!(cost.from_stats);
        // Owners are 3 of 6 rows → each variable keeps half the partition.
        assert!((cost.var_selectivity[0] - 0.5).abs() < 1e-9);
        assert!((cost.var_selectivity[1] - 0.5).abs() < 1e-9);
        // 6 rows → 3 candidates per side → 9 ordered pairs expected.
        assert!((cost.est_edges - 9.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_symbol_has_zero_selectivity() {
        let r = persons();
        let dc = parse_dc(
            "ghost",
            r#"!(t1.Rel = "Ghost" & t2.Rel = "Ghost" & t1.hid = t2.hid)"#,
            "hid",
        )
        .unwrap();
        let plan = dc.bind(r.schema(), "Persons").unwrap().plan();
        let cost = PlanCost::estimate(&plan, &r, r.n_rows());
        assert_eq!(cost.est_edges, 0.0);
    }

    #[test]
    fn equality_atoms_scale_with_distinct_counts() {
        let r = persons();
        let dc = parse_dc("gap", "!(t1.Age = t2.Age & t1.hid = t2.hid)", "hid").unwrap();
        let plan = dc.bind(r.schema(), "Persons").unwrap().plan();
        let cost = PlanCost::estimate(&plan, &r, r.n_rows());
        assert!(cost.from_stats);
        // Six distinct ages → 1/6 of pairs match the equality.
        assert!((cost.atom_selectivity[0] - 1.0 / 6.0).abs() < 1e-9);
    }
}
