//! # cextend-core — the C-Extension solver
//!
//! Reproduction of *"Synthesizing Linked Data Under Cardinality and
//! Integrity Constraints"* (Gilad, Patwa, Machanavajjhala — SIGMOD 2021).
//!
//! Given `R1(K1, A1..Ap, FK)` with an entirely missing FK column,
//! `R2(K2, B1..Bq)`, linear cardinality constraints over `R1 ⋈ R2` and
//! foreign-key denial constraints over `R1`, [`solve`] imputes every FK
//! value so that **all DCs hold** (guaranteed — Proposition 5.5) and CC
//! error is minimized, via the paper's two-phase pipeline:
//!
//! 1. **Phase I** completes the join view's `R2`-side columns: Algorithm 2
//!    (exact Hasse-diagram recursion) on non-intersecting CCs, Algorithm 1
//!    (ILP with elastic CC rows and marginal augmentation) on the rest.
//! 2. **Phase II** partitions the view by its `B` values, list-colors each
//!    partition's conflict hypergraph (colors = candidate keys), mints
//!    fresh `R2` tuples for stuck vertices, and places invalid tuples with
//!    CC-error-minimizing combos.
//!
//! ```
//! use cextend_core::{solve, CExtensionInstance, SolverConfig};
//! use cextend_constraints::{parse_cc, parse_dc};
//! use cextend_table::{ColumnDef, Dtype, Relation, Schema, Value};
//!
//! // R1: four people, household unknown. R2: two households.
//! let mut persons = Relation::new("Persons", Schema::new(vec![
//!     ColumnDef::key("pid", Dtype::Int),
//!     ColumnDef::attr("Rel", Dtype::Str),
//!     ColumnDef::foreign_key("hid", Dtype::Int),
//! ]).unwrap());
//! for (pid, rel) in [(1, "Owner"), (2, "Owner"), (3, "Spouse"), (4, "Child")] {
//!     persons.push_row(&[Some(Value::Int(pid)), Some(Value::str(rel)), None]).unwrap();
//! }
//! let mut housing = Relation::new("Housing", Schema::new(vec![
//!     ColumnDef::key("hid", Dtype::Int),
//!     ColumnDef::attr("Area", Dtype::Str),
//! ]).unwrap());
//! housing.push_full_row(&[Value::Int(1), Value::str("Chicago")]).unwrap();
//! housing.push_full_row(&[Value::Int(2), Value::str("NYC")]).unwrap();
//!
//! let r2cols = ["Area".to_owned()].into_iter().collect();
//! let ccs = vec![parse_cc("chi", r#"| Area = "Chicago" | = 3"#, &r2cols).unwrap()];
//! let dcs = vec![parse_dc("oo",
//!     r#"!(t1.Rel = "Owner" & t2.Rel = "Owner" & t1.hid = t2.hid)"#, "hid").unwrap()];
//!
//! let instance = CExtensionInstance::new(persons, housing, ccs, dcs).unwrap();
//! let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
//! let report = cextend_core::metrics::evaluate(&instance, &solution).unwrap();
//! assert_eq!(report.dc_error, 0.0);   // guaranteed
//! assert!(report.join_recovered);     // R̂1 ⋈ R̂2 = V_join
//! ```

#![warn(missing_docs)]

mod baseline;
mod config;
mod error;
mod instance;
pub mod metrics;
mod phase1;
mod phase2;
#[cfg(test)]
mod proptests;
pub mod reduction;
mod report;
pub mod snowflake;
pub mod stepgraph;

pub use baseline::{solve_baseline, solve_baseline_with_marginals, solve_hybrid};
pub use config::{
    ColoringMode, IlpBackend, IlpSettings, Phase1Strategy, Phase2Strategy, SchedulerMode,
    SolverConfig,
};

/// Conflict-hypergraph construction (Definition 5.1): the cost-planned
/// indexed builder Phase II runs, the naive reference builder, and the
/// build statistics. Public so the bench harness can time the production
/// builder against the reference and the workload and spec crates can
/// property-test their edge-set equivalence.
pub mod conflict {
    pub use crate::phase2::conflict::{build_conflict_graph_naive, ConflictBuilder, ConflictStats};
}
pub use error::{CoreError, Result};
pub use instance::CExtensionInstance;
pub use report::{Solution, SolveCounters, SolveStats, StageTimings};

/// Phase I internals (Algorithm 2 and the completion passes), exposed for
/// the criterion benches and the oracle-equivalence tests: the
/// code-compressed production paths next to the retained scalar oracles,
/// plus the per-shard RNG stream machinery the determinism tests pin down.
pub mod phase1_internals {
    pub use crate::phase1::compressed::{complete_leftovers, complete_randomly};
    pub use crate::phase1::hasse_rec::{
        run as run_hasse, run_scalar as run_hasse_scalar, HasseOutcome,
    };
    pub use crate::phase1::repair::{repair, RepairOutcome};
    pub use crate::phase1::{
        complete_leftovers_scalar, complete_randomly_scalar, shard_rng, Combo, P1, SHARD_SIZE,
    };
}

/// Solves a C-Extension instance with the given configuration.
///
/// On success the returned [`Solution`] satisfies Proposition 5.5: `R̂1`'s
/// FK column is complete, every DC holds on `R̂1`, `R̂2` extends `R2`, and
/// `R̂1 ⋈ R̂2` equals the reported view. With
/// [`SolverConfig::allow_augmenting_r2`] disabled, the solver instead
/// reports [`CoreError::NoSolutionWithoutAugmentation`] when it cannot
/// complete the FK within the existing `R2` keys.
pub fn solve(instance: &CExtensionInstance, config: &SolverConfig) -> Result<Solution> {
    use cextend_obs::tracef;
    instance.validate()?;
    let mut stats = SolveStats::default();
    let _solve_span = cextend_obs::span("solve");
    tracef!("phase1 start: {} rows", instance.r1.n_rows());
    let (p1, invalid) = phase1::run_phase1(instance, config, &mut stats)?;
    tracef!("phase1 done: {} invalid rows", invalid.len());
    {
        let t = &stats.timings;
        tracef!(
            "phase1 stages: hasse={:?} repair={:?} leftovers={:?} random={:?}",
            t.recursion,
            t.repair,
            t.leftovers,
            t.random
        );
    }
    let (r1_hat, r2_hat, vjoin) = phase2::run_phase2(instance, config, p1, invalid, &mut stats)?;
    tracef!("phase2 done");
    if cextend_obs::trace_level() >= 2 {
        let t = &stats.timings;
        eprint!(
            "{}",
            cextend_obs::render_tree(&[
                (0, "phase1", t.phase1()),
                (1, "pairwise", t.pairwise_comparison),
                (1, "hasse", t.recursion),
                (1, "ilp_build", t.ilp_build),
                (1, "ilp_solve", t.ilp_solve),
                (1, "fill", t.fill),
                (1, "repair", t.repair),
                (1, "leftovers", t.leftovers),
                (1, "random", t.random),
                (0, "phase2", t.phase2()),
                (1, "conflict_build", t.conflict_build),
                (1, "coloring", t.coloring),
                (1, "invalid", t.invalid_handling),
                (0, "total", t.total()),
            ])
        );
    }
    Ok(Solution {
        r1_hat,
        r2_hat,
        vjoin,
        stats,
    })
}

#[cfg(test)]
mod solve_tests {
    use super::*;
    use crate::instance::fixtures;
    use crate::metrics::evaluate;

    #[test]
    fn running_example_end_to_end() {
        // The paper's Figures 1–3: hybrid solves with zero CC and DC error.
        let instance = fixtures::running_example();
        let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
        let report = evaluate(&instance, &solution).unwrap();
        assert_eq!(report.dc_error, 0.0);
        assert_eq!(report.cc_median, 0.0);
        assert_eq!(report.cc_mean, 0.0);
        assert!(report.join_recovered);
        // FK column complete.
        let fk = solution.r1_hat.schema().fk_col().unwrap();
        assert!(solution.r1_hat.column_is_complete(fk));
        // No artificial households were needed (Figure 3 exists).
        assert_eq!(solution.stats.counters.new_r2_tuples, 0);
    }

    #[test]
    fn hasse_assigned_rows_reach_the_solve_counters() {
        // CC1 and CC2 (Chicago and NYC owners) are disjoint, so the hybrid
        // routes both to Algorithm 2, which places every owner.
        let mut instance = fixtures::running_example();
        instance.ccs.truncate(2);
        let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
        assert_eq!(solution.stats.counters.s1_ccs, 2);
        assert_eq!(solution.stats.counters.hasse_assigned_rows, 6);
    }

    #[test]
    fn all_configurations_produce_complete_fk_columns() {
        let instance = fixtures::running_example();
        for config in [
            SolverConfig::hybrid(),
            SolverConfig::baseline(),
            SolverConfig::baseline_with_marginals(),
            SolverConfig::hybrid().with_workers(2),
            SolverConfig {
                coloring: ColoringMode::Exact { max_steps: 100_000 },
                ..SolverConfig::hybrid()
            },
            SolverConfig {
                phase1: Phase1Strategy::HasseOnly,
                ..SolverConfig::hybrid()
            },
        ] {
            let solution = solve(&instance, &config).unwrap();
            let fk = solution.r1_hat.schema().fk_col().unwrap();
            assert!(solution.r1_hat.column_is_complete(fk), "{config:?}");
            let report = evaluate(&instance, &solution).unwrap();
            assert!(report.join_recovered, "{config:?}");
        }
    }

    #[test]
    fn solves_are_bit_identical_at_every_width() {
        let instance = fixtures::running_example();
        let serial = solve(&instance, &SolverConfig::hybrid().with_seed(5)).unwrap();
        for workers in [2, 4] {
            let wide = solve(
                &instance,
                &SolverConfig::hybrid().with_seed(5).with_workers(workers),
            )
            .unwrap();
            for (a, b) in [
                (&serial.r1_hat, &wide.r1_hat),
                (&serial.r2_hat, &wide.r2_hat),
                (&serial.vjoin, &wide.vjoin),
            ] {
                assert!(
                    cextend_table::relations_equal_ordered(a, b),
                    "workers {workers}"
                );
            }
            assert_eq!(serial.stats.counters, wide.stats.counters);
        }
    }

    #[test]
    fn coloring_strategies_always_satisfy_dcs() {
        let instance = fixtures::running_example();
        for config in [
            SolverConfig::hybrid(),
            SolverConfig::hybrid().with_workers(2),
            SolverConfig {
                phase1: Phase1Strategy::IlpOnly { marginals: true },
                phase2: Phase2Strategy::Coloring,
                ..SolverConfig::hybrid()
            },
        ] {
            let solution = solve(&instance, &config).unwrap();
            let report = evaluate(&instance, &solution).unwrap();
            assert_eq!(report.dc_error, 0.0, "{config:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let instance = fixtures::running_example();
        let a = solve(&instance, &SolverConfig::hybrid().with_seed(5)).unwrap();
        let b = solve(&instance, &SolverConfig::hybrid().with_seed(5)).unwrap();
        assert!(cextend_table::relations_equal_ordered(&a.r1_hat, &b.r1_hat));
        assert!(cextend_table::relations_equal_ordered(&a.r2_hat, &b.r2_hat));
    }

    #[test]
    fn too_few_households_mint_fresh_r2_tuples() {
        // Shrink Housing to two Chicago households; the four pairwise-
        // conflicting Chicago owners then need fresh households.
        let mut instance = fixtures::running_example();
        let mut housing = cextend_table::Relation::new("Housing", instance.r2.schema().clone());
        for (hid, area) in [(1, "Chicago"), (2, "Chicago"), (5, "NYC"), (6, "NYC")] {
            housing
                .push_full_row(&[
                    cextend_table::Value::Int(hid),
                    cextend_table::Value::str(area),
                ])
                .unwrap();
        }
        instance.r2 = housing;
        let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
        assert!(solution.stats.counters.new_r2_tuples > 0);
        let report = evaluate(&instance, &solution).unwrap();
        assert_eq!(report.dc_error, 0.0);
        assert!(report.join_recovered);

        // The decision variant refuses instead of augmenting.
        let strict = SolverConfig {
            allow_augmenting_r2: false,
            ..SolverConfig::hybrid()
        };
        assert!(matches!(
            solve(&instance, &strict),
            Err(CoreError::NoSolutionWithoutAugmentation { .. })
        ));
    }

    #[test]
    fn fresh_keys_stay_unique_when_r2_holds_i64_max() {
        // As above, but one Chicago household is keyed `i64::MAX`: fresh
        // keys cannot count up past it and must still avoid every key.
        let mut instance = fixtures::running_example();
        let mut housing = cextend_table::Relation::new("Housing", instance.r2.schema().clone());
        for (hid, area) in [
            (i64::MAX, "Chicago"),
            (2, "Chicago"),
            (5, "NYC"),
            (6, "NYC"),
        ] {
            housing
                .push_full_row(&[
                    cextend_table::Value::Int(hid),
                    cextend_table::Value::str(area),
                ])
                .unwrap();
        }
        instance.r2 = housing;
        let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
        assert!(solution.stats.counters.new_r2_tuples > 0);
        let r2_hat = &solution.r2_hat;
        let k2 = r2_hat.schema().key_col().unwrap();
        let keys = r2_hat.int_view(k2).unwrap();
        let distinct: std::collections::HashSet<i64> =
            r2_hat.rows().map(|r| keys.get(r).unwrap()).collect();
        assert_eq!(distinct.len(), r2_hat.n_rows(), "R̂2 keys must be unique");
        let report = evaluate(&instance, &solution).unwrap();
        assert_eq!(report.dc_error, 0.0);
        assert!(report.join_recovered);
    }

    #[test]
    fn no_ccs_still_satisfies_dcs() {
        let mut instance = fixtures::running_example();
        instance.ccs.clear();
        let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
        let report = evaluate(&instance, &solution).unwrap();
        assert_eq!(report.dc_error, 0.0);
        assert!(report.join_recovered);
    }

    #[test]
    fn no_dcs_still_satisfies_ccs() {
        let mut instance = fixtures::running_example();
        instance.dcs.clear();
        let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
        let report = evaluate(&instance, &solution).unwrap();
        assert_eq!(report.cc_median, 0.0);
        assert!(report.join_recovered);
    }
}
