//! Shared inputs for the criterion micro-benchmarks.
//!
//! The `conflict_build` and `coloring` benches both measure the largest
//! real `V_join` partition of a generated `dcdense` view; extracting it
//! lives here so the two benches are guaranteed to time the same input
//! (same partition-selection rule, same DC binding). The `simplex` bench's
//! Algorithm 1-shaped programs live here too, so tests can solve the same
//! programs the bench times.

use cextend_constraints::BoundDc;
use cextend_ilp::{Problem, Rel};
use cextend_table::{Relation, RowId};
use cextend_workloads::DcSet;
use std::collections::BTreeMap;

use crate::harness::ExperimentOpts;

/// Generates `dcdense` at scale `label` (default harness scale factor) and
/// returns its ground-truth join view, the rows of the largest
/// `(Room, Shift)` partition, and the chosen DC set bound against the view.
pub fn dcdense_largest_partition(label: u32, set: DcSet) -> (Relation, Vec<RowId>, Vec<BoundDc>) {
    let opts = ExperimentOpts {
        workload: "dcdense".to_owned(),
        ..ExperimentOpts::default()
    };
    let data = opts.dataset(label, None, 0);
    let view = data.truth_join();
    let room = view.schema().col_id("Room").expect("Room in view");
    let shift = view.schema().col_id("Shift").expect("Shift in view");
    let mut by_combo: BTreeMap<(String, String), Vec<RowId>> = BTreeMap::new();
    for r in view.rows() {
        let key = (
            view.get(r, room).expect("complete").to_string(),
            view.get(r, shift).expect("complete").to_string(),
        );
        by_combo.entry(key).or_default().push(r);
    }
    let rows = by_combo
        .into_values()
        .max_by_key(Vec::len)
        .expect("non-empty view");
    let dcs = opts
        .workload()
        .dcs(set)
        .iter()
        .map(|d| d.bind(view.schema(), view.name()).expect("DCs bind"))
        .collect();
    (view, rows, dcs)
}

/// The shape of an Algorithm 1 program (see [`algorithm1_shaped`]).
#[derive(Clone, Copy, Debug)]
pub struct Algorithm1Shape {
    /// Hard bin rows.
    pub bins: usize,
    /// Combo variables per bin.
    pub combos: usize,
    /// Elastic CC rows.
    pub ccs: usize,
    /// A CC row covers the bins `b` with `(b + c) % stride == 0`.
    pub stride: usize,
    /// Give every bin a neutral variable, as Algorithm 1's reduced
    /// variable space does (the naive space has none).
    pub neutral: bool,
}

impl Algorithm1Shape {
    /// The three small programs of the `simplex` bench's `lp` group: naive
    /// variable space, every bin row starting on an artificial.
    pub const SMALL: [Algorithm1Shape; 3] = [
        Algorithm1Shape::naive(20, 4, 10),
        Algorithm1Shape::naive(60, 6, 30),
        Algorithm1Shape::naive(150, 8, 80),
    ];

    /// A census-ilp-sized program: 86 bins of 40 combos plus a neutral
    /// variable (3,526 structural variables), 800 CC rows of about 10
    /// terms (1,600 deviation variables), 886 rows.
    pub const CENSUS: Algorithm1Shape = Algorithm1Shape {
        bins: 86,
        combos: 40,
        ccs: 800,
        stride: 9,
        neutral: true,
    };

    const fn naive(bins: usize, combos: usize, ccs: usize) -> Algorithm1Shape {
        Algorithm1Shape {
            bins,
            combos,
            ccs,
            stride: 3,
            neutral: false,
        }
    }

    /// A short label for bench ids.
    pub fn label(&self) -> String {
        format!("{}bins_{}combos_{}ccs", self.bins, self.combos, self.ccs)
    }
}

/// Builds an Algorithm 1-shaped program: `shape.bins` hard equality rows
/// over `shape.combos` variables each (plus a neutral variable when
/// `shape.neutral`), and `shape.ccs` elastic rows over deterministic
/// pseudo-random `(bin, combo)` subsets.
pub fn algorithm1_shaped(shape: Algorithm1Shape) -> Problem {
    let mut p = Problem::new();
    let mut bin_vars = Vec::new();
    for b in 0..shape.bins {
        let first = p.add_vars(shape.combos);
        let vars: Vec<usize> = (first..first + shape.combos).collect();
        let mut row: Vec<(usize, i64)> = vars.iter().map(|&v| (v, 1)).collect();
        if shape.neutral {
            row.push((p.add_var(format!("neutral{b}")), 1));
        }
        p.add_constraint(row, Rel::Eq, (b % 7 + 3) as i64);
        bin_vars.push(vars);
    }
    for c in 0..shape.ccs {
        let terms: Vec<(usize, i64)> = bin_vars
            .iter()
            .enumerate()
            .filter(|(b, _)| (b + c) % shape.stride == 0)
            .map(|(_, vars)| (vars[c % shape.combos], 1))
            .collect();
        if !terms.is_empty() {
            p.add_soft_eq(terms, (c % 11) as i64, 1);
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use cextend_ilp::reference::solve_lp_exact;
    use cextend_ilp::{solve_ilp, solve_lp, BbConfig, IlpStatus};

    #[test]
    fn engine_matches_the_reference_on_the_small_bench_programs() {
        for shape in Algorithm1Shape::SMALL {
            let p = algorithm1_shaped(shape);
            let exact = solve_lp_exact(&p).unwrap();
            let engine = solve_lp(&p).unwrap();
            assert_eq!(exact.status, engine.status, "{}", shape.label());
            let gap = (exact.objective.to_f64() - engine.objective).abs();
            assert!(gap < 1e-6, "{}: objective gap {gap}", shape.label());
        }
    }

    #[test]
    fn the_census_sized_program_solves_to_optimality_within_the_default_budget() {
        let p = algorithm1_shaped(Algorithm1Shape::CENSUS);
        assert_eq!(p.n_constraints(), 886);
        let s = solve_ilp(&p, &BbConfig { max_nodes: 200 }).unwrap();
        assert_eq!(s.status, IlpStatus::Optimal, "{} nodes", s.nodes);
        assert!(s.nodes <= 200);
        assert!(p.is_feasible_point(&s.values));
    }

    #[test]
    fn partition_is_the_largest_and_dcs_bind() {
        let (view, rows, dcs) = dcdense_largest_partition(1, DcSet::All);
        assert!(!rows.is_empty());
        assert!(rows.len() >= view.n_rows() / 12, "largest of ≤6 combos");
        assert_eq!(dcs.len(), 7, "the full dcdense DC set");
        assert!(rows.iter().all(|&r| r < view.n_rows()));
    }
}
