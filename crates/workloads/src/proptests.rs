//! Property tests over the workload contracts: for arbitrary small scales
//! and seeds, *every* workload must produce (a) ground truths satisfying
//! every DC of every set at every completion step and (b) per-step CC
//! targets that are exactly satisfiable on the un-erased instance — i.e.
//! each target equals the constraint's count on the step's ground-truth
//! augmented view, so the generated CC set is simultaneously satisfiable
//! and the solver's guarantees are testable against it.

use crate::agreement::{certifier_agrees_on_step, reports_identical};
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
/// completed relation, the solve counters and every step's certifier report
/// are bit-identical to the one-worker run; returns the 4-worker solution.
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
        for (s, p) in serial.steps.iter().zip(&solved.steps) {
            prop_assert!(
                reports_identical(&s.report, &p.report),
                "{}: step {} report diverged at {} workers",
                w.meta().name,
                s.label,
                workers
            );
        }
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
        // Phase II runs — window and clique groups, explicit pairs,
        // indexed enumeration — must
        // produce the naive builder's edge set over the same row window.
        // The window is one artificial "partition" — larger and
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
                let built = ConflictBuilder::new(&dcs, truth).build(&rows);
                let naive = build_conflict_graph_naive(truth, &rows, &dcs);
                let edge_set = |g: &cextend_hypergraph::Hypergraph| {
                    let mut edges: Vec<Vec<u32>> = g.edges().map(<[u32]>::to_vec).collect();
                    edges.sort();
                    edges
                };
                // The builder's clique and window groups count in their expanded
                // form, and none may duplicate an edge: the greedy coloring
                // reads degrees, which a duplicate would inflate.
                let expanded = built.expanded();
                prop_assert_eq!(
                    edge_set(&expanded),
                    edge_set(&naive),
                    "{} step {}: builders diverged on {} rows",
                    w.meta().name,
                    step,
                    rows.len()
                );
                prop_assert_eq!(
                    built.n_edges() as u64 + built.n_implicit_edges(),
                    expanded.n_edges() as u64,
                    "{} step {}: an implicit edge duplicates another",
                    w.meta().name,
                    step
                );
                for v in 0..rows.len() as u32 {
                    prop_assert_eq!(built.degree(v), naive.degree(v), "vertex {}", v);
                }
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

proptest! {
    // Each case certifies four completions per step of every workload (two
    // CC families, truth and perturbed) against the naive references; 48
    // cases keep that quick in debug builds.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certifier_agrees_with_the_references_on_every_workload(
        seed in 0u64..1_000,
        scale_mil in 4u32..12,
    ) {
        // The certifier against the naive conflict builder and the
        // membership kernel, on each step's ground-truth completion (zero
        // error) and on a perturbed copy, for both CC families. Some
        // perturbed copy of every workload must violate a DC and miss a CC.
        let scale = f64::from(scale_mil) / 1_000.0;
        for w in all_workloads() {
            let data = w.generate(&WorkloadParams::new(scale, seed));
            let (mut dc_error, mut cc_error) = (0.0f64, 0.0f64);
            for step in 0..data.n_steps() {
                for family in [CcFamily::Good, CcFamily::Bad] {
                    let ccs = w.step_ccs(step, family, 200, &data, seed);
                    let (truth, perturbed) =
                        certifier_agrees_on_step(&data, step, ccs, w.step_dcs(step, DcSet::All))
                            .map_err(|e| {
                                TestCaseError::fail(format!("{} {family:?}: {e}", w.meta().name))
                            })?;
                    prop_assert!(
                        truth.dc_error == 0.0 && truth.cc_errors.iter().all(|&e| e == 0.0),
                        "{} step {step}: the ground truth certifies with errors {truth:?}",
                        w.meta().name
                    );
                    dc_error = dc_error.max(perturbed.dc_error);
                    cc_error = perturbed.cc_errors.iter().fold(cc_error, |m, &e| m.max(e));
                }
            }
            prop_assert!(dc_error > 0.0, "{}: no perturbed copy violates a DC", w.meta().name);
            prop_assert!(cc_error > 0.0, "{}: no perturbed copy misses a CC", w.meta().name);
        }
    }
}

/// Which route Phase II's conflict builder gives every DC of every
/// registered workload: capacity DCs take clique groups unless another DC
/// of their arity may emit the same vertex sets, window pairs take window
/// groups unless another pair DC may share an edge with them, and every
/// other DC keeps explicit edges: the pair DCs that may share an edge
/// (census rows 5–7, 10 and 11, `ddc3`, `rdc3`, `rdc5`, `rdc8`, `rdc9`,
/// `sdc2`, `sdc6`–`sdc9`, `ldc6` and `ldc8`) as explicit pairs.
#[test]
fn pair_and_capacity_dcs_route_to_groups_and_windows_on_every_workload() {
    use cextend_core::conflict::DcRoute;
    let mut routed: Vec<(String, usize, String, DcRoute)> = Vec::new();
    for w in all_workloads() {
        let data = w.generate(&WorkloadParams::new(0.004, 3));
        for step in 0..data.n_steps() {
            let truth = data.step_owner_truth(step);
            let dcs = w.step_dcs(step, DcSet::All);
            let bound: Vec<_> = dcs
                .iter()
                .map(|d| d.bind(truth.schema(), truth.name()).expect("DCs bind"))
                .collect();
            let builder = ConflictBuilder::new(&bound, truth);
            for (i, dc) in dcs.iter().enumerate() {
                routed.push((
                    w.meta().name.to_owned(),
                    step,
                    dc.name.clone(),
                    builder.route(i),
                ));
            }
        }
    }
    use DcRoute::{Edges, Groups, Windows};
    // Census rows 1–4 and 8 are `-low`/`-up` window pairs over distinct
    // classes; rows 5–7 overlap rows 10–11 (an old owner's parent, a
    // young owner's grandchild or child-in-law), so all five keep
    // explicit pairs. `dc12-su` is the pure-unary window pair.
    let census_windows = [
        "dc1-Biological child-low",
        "dc1-Biological child-up",
        "dc1-Adopted child-low",
        "dc1-Adopted child-up",
        "dc1-Step child-low",
        "dc1-Step child-up",
        "dc2-Biological child-low",
        "dc2-Biological child-up",
        "dc2-Adopted child-low",
        "dc2-Adopted child-up",
        "dc2-Step child-low",
        "dc2-Step child-up",
        "dc3-Spouse-low",
        "dc3-Spouse-up",
        "dc3-Unmarried partner-low",
        "dc3-Unmarried partner-up",
        "dc4-Sibling-low",
        "dc4-Sibling-up",
    ];
    let census_edges = [
        "dc5-Father/Mother-low",
        "dc5-Father/Mother-up",
        "dc5-Parent-in-law-low",
        "dc5-Parent-in-law-up",
        "dc6-Grandchild-low",
        "dc6-Grandchild-up",
        "dc7-Child-in-law-low",
        "dc7-Child-in-law-up",
    ];
    let mut want: Vec<(&str, usize, &str, DcRoute)> = Vec::new();
    want.extend(census_windows.iter().map(|&dc| ("census", 0, dc, Windows)));
    want.extend(census_edges.iter().map(|&dc| ("census", 0, dc, Edges)));
    want.extend([
        ("census", 0, "dc8-Foster child-low", Windows),
        ("census", 0, "dc8-Foster child-up", Windows),
        ("census", 0, "dc9", Groups),
        ("census", 0, "dc10-grandchild", Edges),
        ("census", 0, "dc10-child-in-law", Edges),
        ("census", 0, "dc11-parent", Edges),
        ("census", 0, "dc11-parent-in-law", Edges),
        ("census", 0, "dc12-ss", Groups),
        ("census", 0, "dc12-su", Windows),
        ("census", 0, "dc12-uu", Groups),
        ("retail", 0, "rdc1-Standard-low", Windows),
        ("retail", 0, "rdc1-Standard-up", Windows),
        ("retail", 0, "rdc2-Standard-low", Windows),
        ("retail", 0, "rdc2-Standard-up", Windows),
        ("retail", 0, "rdc3-Bulk-low", Edges),
        ("retail", 0, "rdc3-Bulk-up", Edges),
        ("retail", 0, "rdc4-Gift-low", Windows),
        ("retail", 0, "rdc4-Gift-up", Windows),
        ("retail", 0, "rdc5-Subscription-low", Edges),
        ("retail", 0, "rdc5-Subscription-up", Edges),
        ("retail", 0, "rdc6", Groups),
        ("retail", 0, "rdc7", Groups),
        ("retail", 0, "rdc8", Edges),
        ("retail", 0, "rdc9", Edges),
        ("supply", 0, "sdc1-low", Windows),
        ("supply", 0, "sdc1-up", Windows),
        ("supply", 0, "sdc2-low", Edges),
        ("supply", 0, "sdc2-up", Edges),
        ("supply", 0, "sdc3-low", Windows),
        ("supply", 0, "sdc3-up", Windows),
        ("supply", 0, "sdc4", Groups),
        ("supply", 0, "sdc5", Groups),
        ("supply", 0, "sdc6", Edges),
        // Any store beside a Hub: `sdc7` and `sdc8` filter only `t0`, and
        // `sdc7` can emit Hub–Hub pairs too, so the capacity-shaped `sdc9`
        // keeps explicit pairs.
        ("supply", 1, "sdc7", Edges),
        ("supply", 1, "sdc8", Edges),
        ("supply", 1, "sdc9", Edges),
        ("logistics", 0, "ldc1-low", Windows),
        ("logistics", 0, "ldc1-up", Windows),
        ("logistics", 0, "ldc2-low", Windows),
        ("logistics", 0, "ldc2-up", Windows),
        ("logistics", 0, "ldc3", Groups),
        ("logistics", 0, "ldc4", Windows),
        ("logistics", 1, "ldc5-low", Windows),
        ("logistics", 1, "ldc5-up", Windows),
        ("logistics", 1, "ldc6-low", Edges),
        ("logistics", 1, "ldc6-up", Edges),
        ("logistics", 1, "ldc7", Groups),
        ("logistics", 1, "ldc8", Edges),
        ("dcdense", 0, "ddc1-Filler-low", Windows),
        ("dcdense", 0, "ddc1-Filler-up", Windows),
        ("dcdense", 0, "ddc2-Spare-low", Windows),
        ("dcdense", 0, "ddc2-Spare-up", Windows),
        // A `Track` key and an ordering atom.
        ("dcdense", 0, "ddc3", Edges),
        ("dcdense", 0, "ddc4", Groups),
        ("dcdense", 0, "ddc5", Groups),
    ]);
    let want: Vec<(String, usize, String, DcRoute)> = want
        .iter()
        .map(|&(w, step, dc, route)| (w.to_owned(), step, dc.to_owned(), route))
        .collect();
    assert_eq!(routed, want);
}
