//! Phase I's production completion passes against their scalar oracles on
//! rows Algorithm 2 left partially pinned.
//!
//! A CC list whose `R2` sides constrain different subsets of the `R2`
//! columns makes Algorithm 2 pin some rows on only some of those columns.
//! Leftover completion must then extend each such row with a combo that
//! agrees on the pinned columns and adds no new contribution to any CC;
//! random completion must extend it with any combo that agrees, and the
//! CC counts repair starts from must count it on its pinned columns only.
//! Census and dcdense both have several `R2` CC columns, so both CC
//! families leave such rows behind.

use cextend_constraints::{HasseDiagram, RelationshipMatrix};
use cextend_core::phase1_internals::{
    cc_col_ids, complete_leftovers, complete_leftovers_scalar, complete_randomly,
    complete_randomly_scalar, pinned_view, repair, row_state, run_hasse, RowState, P1,
};
use cextend_core::{CExtensionInstance, SolverConfig};
use cextend_table::{relations_equal_ordered, Relation};
use cextend_workloads::{workload_by_name, CcFamily, DcSet, WorkloadParams};

/// The instance of `scenario` at scale 0.05, seed 1000, with 100 CCs of
/// `family`.
fn instance(scenario: &str, family: CcFamily) -> CExtensionInstance {
    let w = workload_by_name(scenario).expect("registered scenario");
    let data = w.generate(&WorkloadParams::new(0.05, 1000));
    let ccs = w.ccs(family, 100, &data, 1000);
    data.to_instance(ccs, w.dcs(DcSet::Good)).unwrap()
}

/// A fresh Phase I context after Algorithm 2 ran over every component of
/// the CC list's Hasse diagram.
fn after_hasse(instance: &CExtensionInstance) -> P1 {
    let mut p1 = P1::build(instance, &SolverConfig::hybrid()).unwrap();
    let matrix = RelationshipMatrix::build(&instance.ccs);
    let hasse = HasseDiagram::build(&matrix);
    let comps: Vec<&[usize]> = hasse.components().iter().map(|c| c.as_slice()).collect();
    let all: Vec<usize> = (0..instance.ccs.len()).collect();
    run_hasse(&mut p1, &instance.ccs, &all, &hasse, &comps);
    p1
}

/// `p1`'s pinned view: the scalar oracles' input, and the view the
/// production path's choices stand for.
fn written(instance: &CExtensionInstance, p1: &P1) -> Relation {
    pinned_view(p1, instance).unwrap()
}

#[test]
fn completion_matches_the_scalar_oracles_on_partially_pinned_rows() {
    for scenario in ["census", "dcdense"] {
        for family in [CcFamily::Good, CcFamily::Bad] {
            let what = format!("{scenario} {family:?}");
            let instance = instance(scenario, family);
            let start = after_hasse(&instance);
            let view = written(&instance, &start);
            let partial = (0..start.n_rows())
                .filter(|&r| start.state(r) == RowState::Partial)
                .count();
            assert!(partial > 0, "{what}: no partially pinned row");
            let cc_ids = cc_col_ids(&start, &view).unwrap();
            for r in view.rows() {
                let cells = row_state(&view, &cc_ids, r);
                assert_eq!(start.state(r), cells, "{what}: row {r}");
            }
            // Repair's starting error counts the rows that already feed
            // each CC from Phase I's record; it must be the view's.
            let error: u64 = instance
                .ccs
                .iter()
                .map(|cc| cc.count_in(&view).unwrap().abs_diff(cc.target))
                .sum();
            let all: Vec<usize> = (0..instance.ccs.len()).collect();
            let out = repair(&mut after_hasse(&instance), &instance.ccs, &all, &[], 1);
            assert_eq!(out.error_before, error, "{what}: repair's starting error");

            let mut scalar = view.clone();
            let invalid = complete_leftovers_scalar(&start, &mut scalar, &instance.ccs).unwrap();
            for workers in [1, 2, 4] {
                let mut fast = after_hasse(&instance);
                let got = complete_leftovers(&mut fast, workers);
                assert_eq!(
                    got, invalid,
                    "{what}: leftover invalid rows, {workers} workers"
                );
                assert!(
                    relations_equal_ordered(&written(&instance, &fast), &scalar),
                    "{what}: leftover views differ at {workers} workers"
                );
            }

            let mut scalar = view;
            let completed = complete_randomly_scalar(&start, &mut scalar).unwrap();
            let mut fast = after_hasse(&instance);
            assert_eq!(complete_randomly(&mut fast, 1), completed, "{what}");
            assert!(
                relations_equal_ordered(&written(&instance, &fast), &scalar),
                "{what}: random-completion views differ"
            );
        }
    }
}
