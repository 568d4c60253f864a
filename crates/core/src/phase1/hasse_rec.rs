//! Algorithm 2: exact `V_join` completion for non-intersecting CCs.
//!
//! Within one Hasse diagram, the recursion satisfies children before their
//! parent; the parent then claims `k_m − Σ_c k_c` additional rows that match
//! its own `R1` condition but *no child's* (line 12 of Algorithm 2), so no
//! child's count is disturbed. Proposition 4.7: if the CC set has no
//! intersecting pair and a satisfying view exists, the result is exact.

use crate::phase1::{compressed, P1};
use cextend_constraints::{CardinalityConstraint, HasseDiagram};
use cextend_table::RowId;

/// Outcome counters of one Algorithm 2 run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HasseOutcome {
    /// Rows assigned (fully or partially).
    pub assigned_rows: usize,
    /// Nodes whose demand could not be met (shortfall in matching rows or
    /// no existing combo satisfies the CC's `R2` condition).
    pub deficits: usize,
}

/// Picks the node's `R2` combo. The node's values are drawn from an
/// existing combo; containment can run through the R2 side (e.g. an
/// Area-only parent over Tenure-Area children with the *same* R1
/// condition), so prefer a combo that satisfies as few children's R2
/// conditions as possible — rows assigned such a combo cannot leak counts
/// into those children, which keeps the paper's line 12 row filter (¬σ_c)
/// restricted to the children the combo could actually feed. `None` when no
/// real R2 tuple satisfies the node's R2 side.
pub(crate) fn choose_combo(
    p1: &P1,
    ccs: &[CardinalityConstraint],
    node: usize,
    children: &[usize],
) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (overlapping children, combo idx)
    for (i, combo) in p1.combos.iter().enumerate() {
        if !p1.combo_satisfies(combo, &ccs[node].r2) {
            continue;
        }
        let overlap = children
            .iter()
            .filter(|&&c| p1.combo_satisfies(combo, &ccs[c].r2))
            .count();
        if best.is_none_or(|(b, _)| overlap < b) {
            best = Some((overlap, i));
        }
        if overlap == 0 {
            break;
        }
    }
    best.map(|(_, i)| i)
}

/// Runs Algorithm 2 over the given components of the Hasse diagram.
/// `nodes` indexes into `ccs`; only components listed in `components` are
/// processed. `ccs[i]`'s `R1` bitmap is `p1.cc_r1_bits[bits_of[i]]` (the
/// hybrid deduplicates the instance's CCs before building the diagram).
///
/// This is the production path: each node's candidate scan is a bitmap
/// intersection (`node & empty & !excluded`) over the `R1` bitmaps
/// [`P1::build`] computed, instead of a row-at-a-time predicate walk. The
/// recursion is serial — components are *not* row-disjoint (CCs disjoint
/// through `R2` compete for the same empty rows), so node order is part of
/// the algorithm's semantics. Each claim records its combo and the CC
/// columns the node's `R2` condition pins on the claimed rows
/// (`P1::pin`). The view the record stands for is bit-identical to the one
/// the scalar oracle [`oracle::run_hasse_scalar`] writes.
///
/// [`oracle::run_hasse_scalar`]: crate::phase1::oracle::run_hasse_scalar
pub fn run(
    p1: &mut P1,
    ccs: &[CardinalityConstraint],
    bits_of: &[usize],
    hasse: &HasseDiagram,
    components: &[&[usize]],
) -> HasseOutcome {
    assert_eq!(ccs.len(), bits_of.len(), "one bitmap index per CC");
    // The bitmaps are read while the claims are recorded into `p1`.
    let r1_bits = std::mem::take(&mut p1.cc_r1_bits);
    let bits: Vec<&[u64]> = bits_of.iter().map(|&i| r1_bits[i].as_slice()).collect();
    let mut empty = compressed::empty_rows_bitmap(p1);
    let mut out = HasseOutcome::default();
    for comp in components {
        for m in hasse.maximal_elements(comp) {
            solve_node_bits(p1, ccs, hasse, &bits, &mut empty, m, &mut out);
        }
    }
    drop(bits);
    p1.cc_r1_bits = r1_bits;
    out
}

fn solve_node_bits(
    p1: &mut P1,
    ccs: &[CardinalityConstraint],
    hasse: &HasseDiagram,
    bits: &[&[u64]],
    empty: &mut Vec<u64>,
    node: usize,
    out: &mut HasseOutcome,
) {
    // Children first (lines 9–11).
    let children: Vec<usize> = hasse.children(node).to_vec();
    for &c in &children {
        solve_node_bits(p1, ccs, hasse, bits, empty, c, out);
    }
    // Demand left for this node after its children (line 12).
    let child_total: u64 = children.iter().map(|&c| ccs[c].target).sum();
    let need = ccs[node].target.saturating_sub(child_total);
    if ccs[node].target < child_total {
        out.deficits += 1;
    }
    if need == 0 {
        return;
    }
    let Some(combo_idx) = choose_combo(p1, ccs, node, &children) else {
        out.deficits += 1;
        return;
    };
    // Children whose count the chosen combo could still contribute to: rows
    // matching their R1 condition must be excluded (line 12's ¬σ_c).
    let excluded: Vec<usize> = children
        .iter()
        .copied()
        .filter(|&c| p1.combo_satisfies(&p1.combos[combo_idx], &ccs[c].r2))
        .collect();
    // Candidate rows: empty AND matching the node's R1 condition AND no
    // excluded child's — the first `need` of them in ascending row order,
    // exactly the rows the scalar scan takes.
    let mut rows: Vec<RowId> = Vec::with_capacity(need.min(4096) as usize);
    'scan: for wi in 0..empty.len() {
        let mut w = bits[node][wi] & empty[wi];
        for &e in &excluded {
            w &= !bits[e][wi];
        }
        while w != 0 {
            rows.push((wi << 6) | w.trailing_zeros() as usize);
            if rows.len() == need as usize {
                break 'scan;
            }
            w &= w - 1;
        }
    }
    if (rows.len() as u64) < need {
        out.deficits += 1;
    }
    out.assigned_rows += rows.len();
    // Claimed rows leave the empty set — unless the node's condition
    // constrains no CC column, in which case the claim pins nothing and
    // the rows really are still Empty (matching the oracle's `row_state`
    // check).
    if p1.pin(&rows, combo_idx, &ccs[node].r2) {
        for &r in &rows {
            empty[r >> 6] &= !(1 << (r & 63));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::instance::CExtensionInstance;
    use crate::phase1::oracle::{assert_hasse_agrees, cell_counts};
    use cextend_constraints::{parse_cc, RelationshipMatrix};
    use cextend_table::{ColumnDef, Dtype, Relation, Schema, Value};
    use std::collections::HashSet;

    /// Builds an instance shaped after Example 4.6: ages spread over ranges,
    /// two areas, CC family with containment and disjointness only.
    fn example_instance(
        ccs: Vec<cextend_constraints::CardinalityConstraint>,
    ) -> CExtensionInstance {
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Multi-ling", Dtype::Int),
            ColumnDef::foreign_key("hid", Dtype::Int),
        ])
        .unwrap();
        let mut r1 = Relation::new("Persons", schema);
        let mut pid = 0;
        // 40 people aged 10..50, alternating multi-ling.
        for age in 10..50 {
            pid += 1;
            r1.push_row(&[
                Some(Value::Int(pid)),
                Some(Value::Int(age)),
                Some(Value::Int(age % 2)),
                None,
            ])
            .unwrap();
        }
        // 60 people aged 50..80 (wrapping ages).
        for i in 0..60 {
            pid += 1;
            r1.push_row(&[
                Some(Value::Int(pid)),
                Some(Value::Int(50 + (i % 30))),
                Some(Value::Int(i % 2)),
                None,
            ])
            .unwrap();
        }
        let schema2 = Schema::new(vec![
            ColumnDef::key("hid", Dtype::Int),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut r2 = Relation::new("Housing", schema2);
        for h in 0..40 {
            let area = if h % 3 == 0 { "NYC" } else { "Chicago" };
            r2.push_full_row(&[Value::Int(h), Value::str(area)])
                .unwrap();
        }
        CExtensionInstance::new(r1, r2, ccs, vec![]).unwrap()
    }

    fn r2cols() -> HashSet<String> {
        ["Area".to_owned()].into_iter().collect()
    }

    /// Runs Algorithm 2 over every component and returns every CC's count
    /// on the cells of the record's pinned view.
    fn run_all(instance: &CExtensionInstance) -> (Vec<u64>, HasseOutcome) {
        let mut p1 = P1::build(instance, &SolverConfig::hybrid()).unwrap();
        let m = RelationshipMatrix::build(&instance.ccs);
        let hasse = HasseDiagram::build(&m);
        let comps: Vec<&[usize]> = hasse.components().iter().map(|c| c.as_slice()).collect();
        let all: Vec<usize> = (0..instance.ccs.len()).collect();
        let out = run(&mut p1, &instance.ccs, &all, &hasse, &comps);
        // Every fixture doubles as an oracle-equivalence case: the scalar
        // path and the production path must produce the same view and
        // counters.
        assert_hasse_agrees(instance, &p1, &out, &hasse, &comps);
        (cell_counts(&p1, instance), out)
    }

    /// Asserts that every CC of `instance` meets its target.
    fn exact(instance: &CExtensionInstance, counts: &[u64]) {
        for (cc, &count) in instance.ccs.iter().zip(counts) {
            assert_eq!(count, cc.target, "{cc}");
        }
    }

    #[test]
    fn disjoint_ccs_base_case_is_exact() {
        let ccs = vec![
            parse_cc(
                "a",
                r#"| Age in [10, 19] & Area = "Chicago" | = 5"#,
                &r2cols(),
            )
            .unwrap(),
            parse_cc("b", r#"| Age in [30, 39] & Area = "NYC" | = 7"#, &r2cols()).unwrap(),
        ];
        let instance = example_instance(ccs);
        let (counts, out) = run_all(&instance);
        assert_eq!(out.deficits, 0);
        assert_eq!(out.assigned_rows, 12);
        exact(&instance, &counts);
    }

    #[test]
    fn containment_chain_subtracts_child_demand() {
        // Mirrors Example 4.6's H3: CC4 ⊆ CC3; the parent claims
        // target_parent − target_child extra rows outside the child.
        let ccs = vec![
            parse_cc(
                "CC3",
                r#"| Age in [13, 64] & Area = "Chicago" | = 30"#,
                &r2cols(),
            )
            .unwrap(),
            parse_cc(
                "CC4",
                r#"| Age in [18, 24] & Multi-ling = 0 & Area = "Chicago" | = 4"#,
                &r2cols(),
            )
            .unwrap(),
        ];
        let instance = example_instance(ccs);
        let (counts, out) = run_all(&instance);
        assert_eq!(out.deficits, 0);
        exact(&instance, &counts);
        // Exactly 30 rows assigned in total: the child's 4 count toward the
        // parent's 30.
        assert_eq!(out.assigned_rows, 30);
    }

    #[test]
    fn same_r1_disjoint_r2_pair_is_satisfied() {
        // Example 1.1 flavour: owners in Chicago vs owners in NYC — CCs
        // disjoint through the R2 side, competing for the same R1 rows.
        let ccs = vec![
            parse_cc(
                "chi",
                r#"| Age in [10, 49] & Area = "Chicago" | = 25"#,
                &r2cols(),
            )
            .unwrap(),
            parse_cc(
                "nyc",
                r#"| Age in [10, 49] & Area = "NYC" | = 15"#,
                &r2cols(),
            )
            .unwrap(),
        ];
        let instance = example_instance(ccs);
        let (counts, out) = run_all(&instance);
        assert_eq!(out.deficits, 0);
        exact(&instance, &counts);
        assert_eq!(out.deficits, 0);
    }

    #[test]
    fn infeasible_demand_reports_deficit() {
        // Only 40 people aged 10..50 exist but 60 are demanded.
        let ccs = vec![parse_cc(
            "too-many",
            r#"| Age in [10, 49] & Area = "Chicago" | = 60"#,
            &r2cols(),
        )
        .unwrap()];
        let instance = example_instance(ccs);
        let (_, out) = run_all(&instance);
        assert!(out.deficits > 0);
    }

    #[test]
    fn cc_with_unrealizable_r2_condition_reports_deficit() {
        let ccs = vec![parse_cc(
            "ghost-town",
            r#"| Age in [10, 49] & Area = "Atlantis" | = 5"#,
            &r2cols(),
        )
        .unwrap()];
        let instance = example_instance(ccs);
        let (counts, out) = run_all(&instance);
        assert!(out.deficits > 0);
        assert_eq!(out.assigned_rows, 0);
        assert_eq!(counts, [0]);
    }

    #[test]
    fn deep_nesting_three_levels() {
        let ccs = vec![
            parse_cc(
                "outer",
                r#"| Age in [10, 60] & Area = "Chicago" | = 40"#,
                &r2cols(),
            )
            .unwrap(),
            parse_cc(
                "mid",
                r#"| Age in [20, 40] & Area = "Chicago" | = 15"#,
                &r2cols(),
            )
            .unwrap(),
            parse_cc(
                "inner",
                r#"| Age in [25, 30] & Area = "Chicago" | = 6"#,
                &r2cols(),
            )
            .unwrap(),
        ];
        let instance = example_instance(ccs);
        let (counts, out) = run_all(&instance);
        assert_eq!(out.deficits, 0);
        exact(&instance, &counts);
    }
}
