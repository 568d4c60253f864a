//! Mutation tests for the certifier (`metrics::evaluate`) on one small
//! solved census instance: every way of breaking the solution must be
//! flagged — DC violations and a corrupted view in the report, structural
//! damage as a validation error. On a census truth completion of several
//! chunks, a solution with two faults in different chunks is reported by
//! the fault a serial scan meets first, at every width.

use cextend::census::{generate, generate_ccs, s_all_dc, CcFamily, CensusConfig};
use cextend::core::metrics::{evaluate, evaluate_with_workers};
use cextend::table::{fk_join, ColId, Relation, RowId, Value};
use cextend::workloads::agreement::truth_completion;
use cextend::workloads::{workload_by_name, DcSet, WorkloadParams};
use cextend::{solve, CExtensionInstance, CoreError, Solution, SolverConfig};
use std::collections::BTreeMap;

fn solved() -> (CExtensionInstance, Solution) {
    let data = generate(&CensusConfig {
        scale: 0.02,
        n_areas: 4,
        seed: 31,
        ..CensusConfig::default()
    });
    let ccs = generate_ccs(CcFamily::Good, 40, &data, 31);
    let instance = CExtensionInstance::new(data.persons, data.housing, ccs, s_all_dc()).unwrap();
    let solution = solve(&instance, &SolverConfig::hybrid().with_seed(31)).unwrap();
    (instance, solution)
}

fn validation_error(instance: &CExtensionInstance, solution: &Solution) -> String {
    match evaluate(instance, solution) {
        Err(CoreError::Validation(msg)) => msg,
        other => panic!("expected a validation error, got {other:?}"),
    }
}

/// `rel` without row `drop`.
fn without_row(rel: &Relation, drop: RowId) -> Relation {
    let mut out = Relation::new(rel.name(), rel.schema().clone());
    for r in rel.rows().filter(|&r| r != drop) {
        out.push_row(&rel.row(r)).unwrap();
    }
    out
}

#[test]
fn the_solved_instance_certifies_clean() {
    let (instance, solution) = solved();
    let report = evaluate(&instance, &solution).unwrap();
    assert_eq!(report.dc_error, 0.0);
    assert!(report.join_recovered);
}

#[test]
fn moving_an_owner_into_a_one_person_household_flags_exactly_both_owners() {
    let (instance, mut solution) = solved();
    let r1 = &solution.r1_hat;
    let fk = r1.schema().fk_col().unwrap();
    let rel = r1.schema().col_id("Rel").unwrap();
    let mut households: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
    for row in r1.rows() {
        households
            .entry(r1.get(row, fk).unwrap())
            .or_default()
            .push(row);
    }
    let is_owner = |row: RowId| r1.get(row, rel) == Some(Value::str("Owner"));
    // A household whose one member is its owner, and an owner from
    // elsewhere: together they violate only the owner-exclusivity DC.
    let (&target, alone) = households
        .iter()
        .find(|(_, rows)| rows.len() == 1 && is_owner(rows[0]))
        .map(|(k, rows)| (k, rows[0]))
        .expect("a one-person household");
    let mover = r1
        .rows()
        .find(|&row| row != alone && is_owner(row))
        .expect("a second owner");
    solution.r1_hat.set(mover, fk, Some(target)).unwrap();
    solution.vjoin = fk_join(&solution.r1_hat, &solution.r2_hat).unwrap();
    let report = evaluate(&instance, &solution).unwrap();
    let n = solution.r1_hat.n_rows() as f64;
    assert_eq!(report.dc_error, 2.0 / n, "{report:?}");
    assert!(report.join_recovered);
}

#[test]
fn dropping_an_r2_row_is_a_validation_error() {
    let (instance, mut solution) = solved();
    solution.r2_hat = without_row(&solution.r2_hat, 0);
    let msg = validation_error(&instance, &solution);
    assert!(msg.contains("`Housing`"), "{msg}");
}

#[test]
fn corrupting_a_view_cell_loses_the_join() {
    let (instance, mut solution) = solved();
    let area = solution.vjoin.schema().col_id("Area").unwrap();
    let other = (0..solution.vjoin.n_rows())
        .filter_map(|r| solution.vjoin.get(r, area))
        .find(|v| Some(*v) != solution.vjoin.get(0, area))
        .expect("two areas");
    solution.vjoin.set(0, area, Some(other)).unwrap();
    let report = evaluate(&instance, &solution).unwrap();
    assert!(!report.join_recovered);
    assert_eq!(report.dc_error, 0.0);
}

#[test]
fn erasing_an_fk_is_a_validation_error() {
    let (instance, mut solution) = solved();
    let fk = solution.r1_hat.schema().fk_col().unwrap();
    solution.r1_hat.set(3, fk, None).unwrap();
    let msg = validation_error(&instance, &solution);
    assert!(
        msg.contains("`Persons` row 3") && msg.contains("is missing"),
        "{msg}"
    );
}

#[test]
fn duplicating_an_r2_key_is_a_validation_error() {
    let (instance, mut solution) = solved();
    let first = solution.r2_hat.row(0);
    solution.r2_hat.push_row(&first).unwrap();
    let msg = validation_error(&instance, &solution);
    assert!(
        msg.contains("`Housing` rows 0 and") && msg.contains("repeat key"),
        "{msg}"
    );
}

#[test]
fn editing_an_r1_attribute_is_a_validation_error() {
    let (instance, mut solution) = solved();
    let age = solution.r1_hat.schema().col_id("Age").unwrap();
    let was = solution.r1_hat.get(5, age).unwrap().as_int().unwrap();
    solution
        .r1_hat
        .set(5, age, Some(Value::Int(was + 1)))
        .unwrap();
    let msg = validation_error(&instance, &solution);
    assert!(msg.contains("`Persons` row 5 column `Age`"), "{msg}");
}

/// The certifier's chunk size.
const CHUNK_ROWS: usize = 1 << 14;

/// The census ground-truth completion at scale 2: about 51k persons, at
/// least three of the certifier's chunks.
fn multi_chunk() -> (CExtensionInstance, Solution) {
    let w = workload_by_name("census").expect("registered");
    let data = w.generate(&WorkloadParams::new(2.0, 31));
    let ccs = w.step_ccs(0, cextend::workloads::CcFamily::Good, 40, &data, 31);
    let (instance, solution) = truth_completion(&data, 0, ccs, w.step_dcs(0, DcSet::All)).unwrap();
    assert!(solution.r1_hat.n_rows() >= 3 * CHUNK_ROWS);
    assert_eq!(evaluate(&instance, &solution).unwrap().dc_error, 0.0);
    (instance, solution)
}

/// `evaluate`'s validation message, which `evaluate_with_workers` must
/// give at widths 1, 2 and 4 too.
fn message_at_every_width(instance: &CExtensionInstance, solution: &Solution) -> String {
    let msg = validation_error(instance, solution);
    for workers in [1, 2, 4] {
        match evaluate_with_workers(instance, solution, workers) {
            Err(CoreError::Validation(got)) => assert_eq!(got, msg, "width {workers}"),
            other => panic!("width {workers}: expected a validation error, got {other:?}"),
        }
    }
    msg
}

#[test]
fn of_two_edited_attributes_the_earlier_column_is_named_at_every_width() {
    let (instance, mut solution) = multi_chunk();
    let r1 = &mut solution.r1_hat;
    let n = r1.n_rows();
    let col = |name: &str| -> ColId { r1.schema().col_id(name).unwrap() };
    let (age, multi) = (col("Age"), col("Multi-ling"));
    assert!(age < multi);
    // `Age` late in the last chunk, `Multi-ling` early in the first.
    for (row, c) in [(n - 3, age), (5, multi)] {
        let was = r1.get(row, c).unwrap().as_int().unwrap();
        r1.set(row, c, Some(Value::Int(was + 1))).unwrap();
    }
    let msg = message_at_every_width(&instance, &solution);
    let name = instance.r1.name();
    assert_eq!(
        msg,
        format!(
            "`{name}` row {} column `Age` changed from the input `{name}`",
            n - 3
        )
    );
}

#[test]
fn of_two_erased_fks_the_lower_row_is_named_at_every_width() {
    let (instance, mut solution) = multi_chunk();
    let fk = solution.r1_hat.schema().fk_col().unwrap();
    // In the third chunk and in the second.
    let (later, lower) = (2 * CHUNK_ROWS + 7, CHUNK_ROWS + 9);
    for row in [later, lower] {
        solution.r1_hat.set(row, fk, None).unwrap();
    }
    let msg = message_at_every_width(&instance, &solution);
    let name = instance.r1.name();
    assert_eq!(msg, format!("`{name}` row {lower}: FK `hid` is missing"));
}
