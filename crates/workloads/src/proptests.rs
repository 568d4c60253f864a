//! Property tests over the workload contracts: for arbitrary small scales
//! and seeds, *every* workload must produce (a) ground truths satisfying
//! every DC of every set at every completion step and (b) per-step CC
//! targets that are exactly satisfiable on the un-erased instance — i.e.
//! each target equals the constraint's count on the step's ground-truth
//! augmented view, so the generated CC set is simultaneously satisfiable
//! and the solver's guarantees are testable against it.

use crate::workload::{all_workloads, CcFamily, DcSet, Workload, WorkloadParams};
use cextend_constraints::cc_counts;
use cextend_core::conflict::{build_conflict_graph_naive, ConflictBuilder};
use cextend_core::metrics::dc_error_on;
use cextend_core::snowflake::{solve_snowflake, SnowflakeSolution, SnowflakeStep};
use cextend_core::SolverConfig;
use proptest::prelude::*;

/// The one-pass membership kernel counts every CC of both families, at
/// every step of every registered workload, exactly as the per-CC
/// compiled-predicate reference does on the step's ground-truth view.
#[test]
fn membership_kernel_counts_match_count_in_on_every_workload() {
    for w in all_workloads() {
        let data = w.generate(&WorkloadParams::new(0.01, 5));
        for step in 0..data.n_steps() {
            let view = data.step_truth_view(step);
            for family in [CcFamily::Good, CcFamily::Bad] {
                let ccs = w.step_ccs(step, family, 40, &data, 5);
                let expected: Vec<u64> = ccs.iter().map(|cc| cc.count_in(&view).unwrap()).collect();
                assert_eq!(
                    cc_counts(&view, &ccs).unwrap(),
                    expected,
                    "{} step {step} {family:?}",
                    w.meta().name
                );
            }
        }
    }
}

/// Solves `w`'s good-family chain at 1, 2 and 4 workers, asserting every
/// completed relation and the solve counters are bit-identical to the
/// one-worker run; returns the 4-worker solution.
fn solves_at_every_width(
    w: &dyn Workload,
    scale: f64,
    seed: u64,
) -> Result<SnowflakeSolution, TestCaseError> {
    let data = w.generate(&WorkloadParams::new(scale, seed));
    let steps: Vec<SnowflakeStep> = data
        .steps
        .iter()
        .enumerate()
        .map(|(i, edge)| SnowflakeStep {
            edge: edge.clone(),
            ccs: w.step_ccs(i, CcFamily::Good, 12, &data, seed),
            dcs: w.step_dcs(i, DcSet::All),
        })
        .collect();
    let solve = |workers: usize| {
        let config = SolverConfig::hybrid().with_seed(seed).with_workers(workers);
        solve_snowflake(data.relations.clone(), &steps, &config).expect("solve")
    };
    let serial = solve(1);
    let mut wide = None;
    for workers in [2, 4] {
        let solved = wide.insert(solve(workers));
        for (s, p) in serial.tables.iter().zip(&solved.tables) {
            prop_assert!(
                cextend_table::relations_equal_ordered(s, p),
                "{}: relation {} diverged at {} workers",
                w.meta().name,
                s.name(),
                workers
            );
        }
        prop_assert_eq!(
            serial.total_stats().counters,
            solved.total_stats().counters,
            "{} counters diverged at {} workers",
            w.meta().name,
            workers
        );
    }
    Ok(wide.expect("solved at width 4"))
}

proptest! {
    #[test]
    fn cc_targets_are_exactly_satisfiable_on_the_unerased_instance(
        seed in 0u64..1_000,
        scale_mil in 2u32..12,
        n in 5usize..30,
    ) {
        let scale = f64::from(scale_mil) / 1_000.0;
        for w in all_workloads() {
            let data = w.generate(&WorkloadParams::new(scale, seed));
            for step in 0..data.n_steps() {
                let truth_view = data.step_truth_view(step);
                for family in w.cc_families().iter().copied() {
                    let ccs = w.step_ccs(step, family, n, &data, seed);
                    prop_assert!(
                        !ccs.is_empty(),
                        "{} produced no CCs at step {step}",
                        w.meta().name
                    );
                    for cc in &ccs {
                        prop_assert_eq!(
                            cc.count_in(&truth_view).unwrap(),
                            cc.target,
                            "{} step {}: target of {} not met on the un-erased instance",
                            w.meta().name,
                            step,
                            cc
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ground_truth_satisfies_every_dc_set_at_every_step(
        seed in 0u64..1_000,
        scale_mil in 2u32..12,
    ) {
        let scale = f64::from(scale_mil) / 1_000.0;
        for w in all_workloads() {
            let data = w.generate(&WorkloadParams::new(scale, seed));
            for step in 0..data.n_steps() {
                for set in [DcSet::Good, DcSet::All] {
                    // Violation groups are the tuples sharing the step's FK
                    // (a branching fact carries several FK columns).
                    let err = dc_error_on(
                        data.step_owner_truth(step),
                        &data.steps[step].fk_col,
                        &w.step_dcs(step, set),
                    )
                    .unwrap();
                    prop_assert_eq!(
                        err,
                        0.0,
                        "{} violates its step-{} {:?} DC set",
                        w.meta().name,
                        step,
                        set
                    );
                }
            }
        }
    }

    #[test]
    fn chain_and_star_solves_are_bit_identical_at_every_width(
        seed in 0u64..1_000,
        scale_mil in 3u32..8,
    ) {
        // The scheduler's determinism contract, on both multi-step shapes:
        // the chain (supply — one step per level) and the branching star
        // (logistics — two steps sharing a level, actually concurrent).
        let scale = f64::from(scale_mil) / 1_000.0;
        for name in ["supply", "logistics"] {
            let w = crate::workload::workload_by_name(name).expect("registered");
            let wide = solves_at_every_width(w.as_ref(), scale, seed)?;
            // The star's two steps share the single level and run
            // concurrently at width > 1; the chain's don't.
            let widest = wide.levels.iter().map(|l| l.steps.len()).max();
            prop_assert_eq!(widest, Some(if name == "logistics" { 2 } else { 1 }));
            prop_assert_eq!(wide.levels[0].parallel, name == "logistics");
        }
    }

    #[test]
    fn full_solves_are_bit_identical_at_every_width_on_every_workload(
        seed in 0u64..500,
        scale_mil in 3u32..8,
    ) {
        // Sharding Phase 1's completion, the Phase II pipeline and the step
        // levels across the pool must not change a single bit of any
        // completed relation, on every registered workload shape (chain,
        // star, dc-dense, census).
        let scale = f64::from(scale_mil) / 1_000.0;
        for w in all_workloads() {
            solves_at_every_width(w.as_ref(), scale, seed)?;
        }
    }

    #[test]
    fn indexed_and_naive_conflict_builders_build_identical_edge_sets(
        seed in 0u64..1_000,
        scale_mil in 2u32..10,
        n_rows in 8usize..40,
    ) {
        // The conflict builder's correctness oracle: on every workload's
        // ground-truth view (real DC shapes: unary-anchored gaps, mixed
        // equality+range atoms, the ternary nae-track chain), the builder
        // Phase II runs — cost planning, bulk pair emission, index-kind
        // choice — must produce the naive builder's edge set over the same
        // row window. The window is one artificial "partition" — larger and
        // denser than any per-FK group, so enumeration is genuinely
        // exercised.
        let scale = f64::from(scale_mil) / 1_000.0;
        for w in all_workloads() {
            let data = w.generate(&WorkloadParams::new(scale, seed));
            for step in 0..data.n_steps() {
                let truth = data.step_owner_truth(step);
                let dcs: Vec<_> = w
                    .step_dcs(step, DcSet::All)
                    .iter()
                    .map(|d| d.bind(truth.schema(), truth.name()).expect("DCs bind"))
                    .collect();
                let rows: Vec<usize> = (0..truth.n_rows().min(n_rows)).collect();
                let built = ConflictBuilder::new(&dcs, truth, rows.len()).build(truth, &rows);
                let naive = build_conflict_graph_naive(truth, &rows, &dcs);
                let edge_set = |g: &cextend_hypergraph::Hypergraph| {
                    let mut edges: Vec<Vec<u32>> = g.edges().map(<[u32]>::to_vec).collect();
                    edges.sort();
                    edges
                };
                prop_assert_eq!(
                    edge_set(&built),
                    edge_set(&naive),
                    "{} step {}: builders diverged on {} rows",
                    w.meta().name,
                    step,
                    rows.len()
                );
            }
        }
    }

    #[test]
    fn dcdense_solves_are_bit_identical_at_every_width_end_to_end(
        seed in 0u64..200,
        scale_mil in 3u32..7,
    ) {
        // Phase-2 output must not depend on the worker width on dcdense,
        // the DC-dense stress shape. The width is an explicit config value,
        // so the work-stealing pipeline's reassembly is exercised even on a
        // single-CPU machine.
        let w = crate::workload::workload_by_name("dcdense").expect("registered");
        solves_at_every_width(w.as_ref(), f64::from(scale_mil) / 1_000.0, seed)?;
    }

    #[test]
    fn builder_and_push_row_loading_are_bit_identical(
        seed in 0u64..500,
        scale_mil in 3u32..9,
    ) {
        // The columnar engine has two load paths: `RelationBuilder` bulk
        // columnar appends (what the generators use) and incremental
        // `push_row`. On every registered workload, rebuilding the
        // generated relations row by row must reproduce them exactly —
        // same values, same validity bitmaps — and feeding the rebuilt
        // relations to the solver must produce bit-identical output,
        // since codes/row order are part of the solve-determinism
        // contract.
        let scale = f64::from(scale_mil) / 1_000.0;
        for w in all_workloads() {
            let data = w.generate(&WorkloadParams::new(scale, seed));
            let rebuilt: Vec<cextend_table::Relation> = data
                .relations
                .iter()
                .map(|r| {
                    let mut copy = cextend_table::Relation::new(r.name(), r.schema().clone());
                    let cols = r.schema().len();
                    for row in r.rows() {
                        let vals: Vec<Option<cextend_table::Value>> =
                            (0..cols).map(|c| r.get(row, c)).collect();
                        copy.push_row(&vals).expect("row round-trips");
                    }
                    copy
                })
                .collect();
            for (orig, copy) in data.relations.iter().zip(&rebuilt) {
                prop_assert!(
                    cextend_table::relations_equal_ordered(orig, copy),
                    "{}: push_row rebuild of {} diverged",
                    w.meta().name,
                    orig.name()
                );
            }
            let steps: Vec<SnowflakeStep> = data
                .steps
                .iter()
                .enumerate()
                .map(|(i, edge)| SnowflakeStep {
                    edge: edge.clone(),
                    ccs: w.step_ccs(i, CcFamily::Good, 8, &data, seed),
                    dcs: w.step_dcs(i, DcSet::All),
                })
                .collect();
            let config = SolverConfig::hybrid().with_seed(seed);
            let from_builder =
                solve_snowflake(data.relations.clone(), &steps, &config).expect("solve");
            let from_push = solve_snowflake(rebuilt, &steps, &config).expect("solve");
            for (a, b) in from_builder.tables.iter().zip(&from_push.tables) {
                prop_assert!(
                    cextend_table::relations_equal_ordered(a, b),
                    "{}: relation {} diverged between load paths",
                    w.meta().name,
                    a.name()
                );
            }
            prop_assert_eq!(
                from_builder.total_stats().counters,
                from_push.total_stats().counters,
                "{} solve counters diverged between load paths",
                w.meta().name
            );
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed(seed in 0u64..1_000) {
        for w in all_workloads() {
            let params = WorkloadParams::new(0.004, seed);
            let a = w.generate(&params);
            let b = w.generate(&params);
            for (x, y) in a.truth.iter().zip(&b.truth) {
                prop_assert!(cextend_table::relations_equal_ordered(x, y));
            }
            for (x, y) in a.relations.iter().zip(&b.relations) {
                prop_assert!(cextend_table::relations_equal_ordered(x, y));
            }
        }
    }

    #[test]
    fn erased_fk_shape_is_the_solver_contract(
        seed in 0u64..1_000,
        scale_mil in 2u32..12,
    ) {
        let scale = f64::from(scale_mil) / 1_000.0;
        for w in all_workloads() {
            let data = w.generate(&WorkloadParams::new(scale, seed));
            for (step, edge) in data.steps.iter().enumerate() {
                let owner = data.relation(&edge.owner).expect("step owner exists");
                let truth = data.step_owner_truth(step);
                let fk = owner
                    .schema()
                    .col_id(&edge.fk_col)
                    .expect("owner carries the step FK column");
                prop_assert!(owner.column_is_missing(fk));
                prop_assert!(truth.column_is_complete(fk));
            }
            // The first step must validate as a solver instance as-is.
            let ccs = w.ccs(CcFamily::Good, 5, &data, seed);
            prop_assert!(data.to_instance(ccs, w.dcs(DcSet::All)).is_ok());
        }
    }
}
