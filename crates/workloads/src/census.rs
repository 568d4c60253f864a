//! The paper's Census households/persons workload behind the [`Workload`]
//! trait, delegating to `cextend-census` for the generator, Table 5 CC
//! families and Table 4 DC sets.

use crate::workload::{CcFamily, DcSet, Workload, WorkloadData, WorkloadMeta, WorkloadParams};
use cextend_census::{generate, generate_ccs_from, s_all_dc, s_good_dc, CensusConfig};
use cextend_constraints::{CardinalityConstraint, DenialConstraint};

/// The Census reference workload (the paper's evaluation scenario).
///
/// Knobs: `areas` — number of distinct `Area` codes (default 12, the
/// harness default; `CensusConfig::default()` uses 24 when driven
/// directly).
#[derive(Clone, Copy, Debug, Default)]
pub struct CensusWorkload;

/// The harness-facing default `Area`-code count.
const DEFAULT_AREAS: i64 = 12;

impl Workload for CensusWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "census",
            relation_names: &["Persons", "Housing"],
            fk_column: "hid",
            expected_ratio: 2.556,
            r2_col_counts: &[2, 4, 6, 8, 10],
            default_r2_cols: 2,
            knobs: &[("areas", DEFAULT_AREAS)],
            scale_labels: &[1, 2, 5, 10, 40, 80, 120, 160],
        }
    }

    fn generate(&self, params: &WorkloadParams) -> WorkloadData {
        let data = generate(&CensusConfig {
            scale: params.scale,
            n_areas: params.knob("areas", DEFAULT_AREAS).max(1) as usize,
            n_housing_cols: params.r2_cols.unwrap_or(self.meta().default_r2_cols),
            seed: params.seed,
        });
        WorkloadData::two_relation(data.persons, data.housing, data.ground_truth)
    }

    fn step_ccs(
        &self,
        step: usize,
        family: CcFamily,
        n: usize,
        data: &WorkloadData,
        seed: u64,
    ) -> Vec<CardinalityConstraint> {
        assert_eq!(step, 0, "census is a one-step workload");
        let family = match family {
            CcFamily::Good => cextend_census::CcFamily::Good,
            CcFamily::Bad => cextend_census::CcFamily::Bad,
        };
        generate_ccs_from(family, n, data.ground_truth(), data.r2(), seed)
    }

    fn step_dcs(&self, step: usize, set: DcSet) -> Vec<DenialConstraint> {
        assert_eq!(step, 0, "census is a one-step workload");
        match set {
            DcSet::Good => s_good_dc(),
            DcSet::All => s_all_dc(),
        }
    }

    fn paper_counts(&self, label: u32) -> Option<(usize, usize)> {
        cextend_census::scales::paper_scale(label).map(|s| (s.persons, s.housing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_the_same_data_as_the_raw_generator() {
        let w = CensusWorkload;
        let params = WorkloadParams::new(0.02, 7).with_knob("areas", 6);
        let data = w.generate(&params);
        let raw = generate(&CensusConfig {
            scale: 0.02,
            n_areas: 6,
            n_housing_cols: 2,
            seed: 7,
        });
        assert!(cextend_table::relations_equal_ordered(
            data.ground_truth(),
            &raw.ground_truth
        ));
        assert!(cextend_table::relations_equal_ordered(
            data.r2(),
            &raw.housing
        ));
    }

    #[test]
    fn ccs_and_dcs_delegate_to_the_census_crate() {
        let w = CensusWorkload;
        let data = w.generate(&WorkloadParams::new(0.02, 7).with_knob("areas", 6));
        let ccs = w.ccs(CcFamily::Good, 25, &data, 3);
        assert_eq!(ccs.len(), 25);
        let truth_join = data.truth_join();
        for cc in &ccs {
            assert_eq!(cc.count_in(&truth_join).unwrap(), cc.target, "{cc}");
        }
        assert_eq!(w.dcs(DcSet::All).len(), s_all_dc().len());
        assert_eq!(w.dcs(DcSet::Good).len(), s_good_dc().len());
    }

    /// Repair's reported errors are the real ones: `Σ |count_in − target|`
    /// over the repaired CCs, recomputed before and after, on a census
    /// bad-family instance; the protected CCs keep their counts.
    #[test]
    fn repair_reports_the_bad_family_error_before_and_after() {
        use cextend_core::phase1_internals::{complete_randomly, repair, P1};
        use cextend_core::SolverConfig;
        let w = CensusWorkload;
        let data = w.generate(&WorkloadParams::new(0.05, 11));
        let ccs = w.ccs(CcFamily::Bad, 120, &data, 11);
        let instance = data.to_instance(ccs, w.dcs(DcSet::Good)).unwrap();
        let mut p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        complete_randomly(&mut p1, false, None).unwrap();
        let (repaired, protected): (Vec<usize>, Vec<usize>) =
            (0..instance.ccs.len()).partition(|i| i % 4 != 0);
        let error = |view: &cextend_table::Relation| -> u64 {
            repaired
                .iter()
                .map(|&i| {
                    let cc = &instance.ccs[i];
                    cc.count_in(view).unwrap().abs_diff(cc.target)
                })
                .sum()
        };
        let protected_counts = |view: &cextend_table::Relation| -> Vec<u64> {
            protected
                .iter()
                .map(|&i| instance.ccs[i].count_in(view).unwrap())
                .collect()
        };
        let before = error(&p1.view);
        let kept = protected_counts(&p1.view);
        let out = repair(&mut p1, &instance.ccs, &repaired, &protected, 4).unwrap();
        assert_eq!(out.error_before, before);
        assert_eq!(out.error_after, error(&p1.view));
        assert!(
            out.moves > 0 && out.error_after < out.error_before,
            "{out:?}"
        );
        assert_eq!(protected_counts(&p1.view), kept);
    }

    #[test]
    fn r2_cols_progression_matches_meta() {
        let w = CensusWorkload;
        for &n in w.meta().r2_col_counts {
            let data = w.generate(&WorkloadParams::new(0.01, 7).with_r2_cols(n));
            assert_eq!(data.r2().schema().len(), n + 1, "key + {n} attrs");
        }
    }
}
