//! End-to-end integration on the Logistics branching star: both FK edges
//! of the fact table complete with identical results at every worker
//! width, the Proposition 5.5 guarantees hold per step, and two workers
//! actually co-schedule the two independent steps.

use cextend::core::metrics::dc_error_on;
use cextend::core::snowflake::{solve_snowflake, SnowflakeSolution, SnowflakeStep};
use cextend::table::fk_join_on;
use cextend::workloads::{workload_by_name, CcFamily, DcSet, Workload, WorkloadData};
use cextend::SolverConfig;
use cextend_workloads::WorkloadParams;

fn logistics() -> Box<dyn Workload> {
    workload_by_name("logistics").expect("logistics is registered")
}

fn chain_steps(w: &dyn Workload, data: &WorkloadData, family: CcFamily) -> Vec<SnowflakeStep> {
    data.steps
        .iter()
        .enumerate()
        .map(|(i, edge)| SnowflakeStep {
            edge: edge.clone(),
            ccs: w.step_ccs(i, family, 40, data, 99),
            dcs: w.step_dcs(i, DcSet::All),
        })
        .collect()
}

fn solve_star(family: CcFamily, workers: usize) -> (WorkloadData, SnowflakeSolution) {
    let w = logistics();
    let data = w.generate(&WorkloadParams::new(0.03, 99));
    let steps = chain_steps(w.as_ref(), &data, family);
    let config = SolverConfig::hybrid().with_workers(workers);
    let solved = solve_snowflake(data.relations.clone(), &steps, &config).unwrap();
    (data, solved)
}

#[test]
fn both_schedulers_produce_bit_identical_relations() {
    let (_, serial) = solve_star(CcFamily::Good, 1);
    for workers in [2, 4] {
        let (_, wide) = solve_star(CcFamily::Good, workers);
        for (s, w) in serial.tables.iter().zip(&wide.tables) {
            assert!(
                cextend::table::relations_equal_ordered(s, w),
                "{} diverged at {workers} workers",
                s.name()
            );
        }
        assert_eq!(serial.total_stats().counters, wide.total_stats().counters);
    }
}

#[test]
fn parallel_scheduler_coschedules_the_independent_steps() {
    // The star's two steps share one level, which two workers run
    // concurrently.
    let (_, solved) = solve_star(CcFamily::Good, 2);
    assert_eq!(solved.levels.len(), 1);
    assert_eq!(solved.levels[0].steps, vec![0, 1]);
    assert!(solved.levels[0].parallel);
    // At one worker the same steps form one level too, but nothing runs
    // concurrently.
    let (_, serial) = solve_star(CcFamily::Good, 1);
    assert_eq!(serial.levels.len(), 1);
    assert!(!serial.levels[0].parallel);
}

#[test]
fn zero_dc_error_on_both_groupings() {
    let (data, solved) = solve_star(CcFamily::Good, 2);
    let w = logistics();
    assert_eq!(solved.steps.len(), 2);
    for (i, outcome) in solved.steps.iter().enumerate() {
        assert_eq!(outcome.report.dc_error, 0.0, "step {}", outcome.label);
        assert!(outcome.report.join_recovered, "step {}", outcome.label);
        // And directly on the final fact table, grouped by the step's FK.
        let fact = solved.table("Shipments").unwrap();
        let err = dc_error_on(fact, &data.steps[i].fk_col, &w.step_dcs(i, DcSet::All)).unwrap();
        assert_eq!(err, 0.0, "final Shipments violates step-{i} DCs");
    }
}

#[test]
fn both_fk_columns_complete_and_star_joins_recover() {
    let (data, solved) = solve_star(CcFamily::Bad, 2);
    let shipments = solved.table("Shipments").unwrap();
    for edge in &data.steps {
        let fk = shipments.schema().col_id(&edge.fk_col).unwrap();
        assert!(
            shipments.column_is_complete(fk),
            "Shipments.{} left incomplete",
            edge.fk_col
        );
    }
    // Both arms of the star materialize without dangling keys.
    let warehouses = solved.table("Warehouses").unwrap();
    let carriers = solved.table("Carriers").unwrap();
    let with_warehouses = fk_join_on(shipments, warehouses, "warehouse_id").unwrap();
    let district = with_warehouses.schema().col_id("District").unwrap();
    assert!(
        with_warehouses.column_is_complete(district),
        "dangling warehouse_id"
    );
    let with_carriers = fk_join_on(shipments, carriers, "carrier_id").unwrap();
    let mode = with_carriers.schema().col_id("Mode").unwrap();
    assert!(
        with_carriers.column_is_complete(mode),
        "dangling carrier_id"
    );
    assert_eq!(with_warehouses.n_rows(), data.n_r1());
    assert_eq!(with_carriers.n_rows(), data.n_r1());
}

#[test]
fn good_family_star_keeps_cc_error_zero() {
    let (_, solved) = solve_star(CcFamily::Good, 2);
    for outcome in &solved.steps {
        assert_eq!(
            outcome.report.cc_median, 0.0,
            "step {} good-family median",
            outcome.label
        );
    }
}
