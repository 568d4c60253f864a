//! The Logistics branching star, end to end: generate shipments with both
//! FK columns hidden, complete the two independent dimension edges
//! *concurrently* on two workers, and verify the paper's
//! guarantees on both groupings of the same fact table.
//!
//! ```sh
//! cargo run --release --example logistics_shipments
//! ```

use cextend::core::snowflake::{solve_snowflake, SnowflakeStep};
use cextend::table::fk_join_on;
use cextend::workloads::{workload_by_name, CcFamily, DcSet, WorkloadParams};
use cextend::SolverConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Generate the star (both FKs erased; ground truth stays hidden). ----
    let workload = workload_by_name("logistics").expect("logistics is registered");
    let data = workload.generate(&WorkloadParams::new(0.05, 7));
    println!(
        "generated {} shipments, {} warehouses, {} carriers ({} completion steps, one schema level)",
        data.n_r1(),
        data.relation("Warehouses").unwrap().n_rows(),
        data.relation("Carriers").unwrap().n_rows(),
        data.n_steps(),
    );

    // --- Per-step constraints from the workload. ----------------------------
    // Step 0 (Shipments→Warehouses): weight-gap DCs anchored on each
    // warehouse's Prime shipment; CCs over Weight/Priority × District/Tier.
    // Step 1 (Shipments→Carriers): cost-gap DCs anchored on each carrier's
    // Hazmat shipment; CCs over Cost/Handling × Mode/Reach. The two steps
    // constrain disjoint fact columns, so they are independent.
    let steps: Vec<SnowflakeStep> = data
        .steps
        .iter()
        .enumerate()
        .map(|(i, edge)| SnowflakeStep {
            edge: edge.clone(),
            ccs: workload.step_ccs(i, CcFamily::Good, 30, &data, 7),
            dcs: workload.step_dcs(i, DcSet::All),
        })
        .collect();

    // --- Complete both FK edges concurrently. -------------------------------
    let config = SolverConfig::hybrid().with_workers(2);
    let solved = solve_snowflake(data.relations.clone(), &steps, &config)?;
    for step in &solved.steps {
        println!(
            "step {}: CC median {:.3}, DC error {:.3}, join recovered: {}, {:?}",
            step.label,
            step.report.cc_median,
            step.report.dc_error,
            step.report.join_recovered,
            step.stats.timings.total(),
        );
        assert_eq!(step.report.dc_error, 0.0);
    }
    for level in &solved.levels {
        println!(
            "scheduler level {:?}: wall {:?}{}",
            level.steps,
            level.wall,
            if level.parallel {
                " (steps ran concurrently)"
            } else {
                ""
            },
        );
    }
    assert_eq!(solved.levels.len(), 1, "a star schedules as one level");

    // --- Both arms of the star materialize without dangling keys. -----------
    let shipments = solved.table("Shipments").unwrap();
    let warehouses = solved.table("Warehouses").unwrap();
    let carriers = solved.table("Carriers").unwrap();
    let with_warehouses = fk_join_on(shipments, warehouses, "warehouse_id")?;
    let with_carriers = fk_join_on(shipments, carriers, "carrier_id")?;
    let district = with_warehouses.schema().col_id("District").unwrap();
    let mode = with_carriers.schema().col_id("Mode").unwrap();
    assert!(with_warehouses.column_is_complete(district));
    assert!(with_carriers.column_is_complete(mode));
    println!("shipments ⋈ warehouses and shipments ⋈ carriers both recovered");
    Ok(())
}
