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
        use cextend_core::phase1_internals::{complete_randomly, pinned_view, repair, P1};
        use cextend_core::SolverConfig;
        let w = CensusWorkload;
        let data = w.generate(&WorkloadParams::new(0.05, 11));
        let ccs = w.ccs(CcFamily::Bad, 120, &data, 11);
        let instance = data.to_instance(ccs, w.dcs(DcSet::Good)).unwrap();
        let mut p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        complete_randomly(&mut p1, 1);
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
        let view = pinned_view(&p1, &instance).unwrap();
        let before = error(&view);
        let kept = protected_counts(&view);
        let out = repair(&mut p1, &instance.ccs, &repaired, &protected, 4);
        let view = pinned_view(&p1, &instance).unwrap();
        assert_eq!(out.error_before, before);
        assert_eq!(out.error_after, error(&view));
        assert!(
            out.moves > 0 && out.error_after < out.error_before,
            "{out:?}"
        );
        assert_eq!(protected_counts(&view), kept);
    }

    /// Algorithm 1's program, built from per-bin and per-combo CC masks,
    /// equals the one built pair by pair from `bin_satisfies` and
    /// `combo_satisfies` on a census bad-family instance (five mask
    /// words), in the baselines' and the hybrid's configurations.
    #[test]
    fn ilp_build_matches_the_pairwise_reference_on_the_bad_family() {
        use cextend_constraints::NormalizedCond;
        use cextend_core::phase1_internals::{build_ilp, MarginalMode, P1};
        use cextend_core::SolverConfig;
        use cextend_ilp::{Problem, Rel};
        let w = CensusWorkload;
        let data = w.generate(&WorkloadParams::new(0.1, 1000));
        let ccs = w.ccs(CcFamily::Bad, 300, &data, 1000);
        let instance = data.to_instance(ccs, w.dcs(DcSet::Good)).unwrap();
        let ccs = &instance.ccs;
        assert!(ccs.len() > 256, "{} CCs", ccs.len());
        let p1 = P1::build(&instance, &SolverConfig::hybrid()).unwrap();
        let r1_conds: Vec<NormalizedCond> = ccs.iter().map(|cc| cc.r1.clone()).collect();
        let configs = [
            (MarginalMode::None, true),
            (MarginalMode::AllWay, true),
            (MarginalMode::AllWay, false),
            (MarginalMode::Restricted(&r1_conds), false),
        ];
        for (mode, naive) in configs {
            let built = build_ilp(&p1, &instance.r1, ccs, &mode, naive)
                .unwrap()
                .unwrap();
            // Every row starts empty and binned; scope and match tables
            // come from the per-pair tests.
            assert_eq!(built.bin_rows.iter().flatten().count(), p1.n_rows());
            let bins = &built.bins;
            let in_scope: Vec<bool> = bins
                .iter()
                .map(|bin| match mode {
                    MarginalMode::Restricted(conds) => conds
                        .iter()
                        .any(|cond| p1.binning.bin_satisfies(bin, cond).unwrap()),
                    _ => true,
                })
                .collect();
            assert_eq!(built.in_scope, in_scope);
            let bin_match: Vec<Vec<bool>> = ccs
                .iter()
                .map(|cc| {
                    bins.iter()
                        .map(|bin| p1.binning.bin_satisfies(bin, &cc.r1).unwrap())
                        .collect()
                })
                .collect();
            let combo_match: Vec<Vec<bool>> = ccs
                .iter()
                .map(|cc| {
                    p1.combos
                        .iter()
                        .map(|k| p1.combo_satisfies(k, &cc.r2))
                        .collect()
                })
                .collect();
            let counts = |ci: usize, bi: usize, ki: usize| bin_match[ci][bi] && combo_match[ci][ki];
            let with_marginals = !matches!(mode, MarginalMode::None);
            let mut want = Problem::new();
            let mut vars: Vec<(usize, Option<usize>)> = Vec::new();
            let mut bin_vars: Vec<Vec<usize>> = vec![Vec::new(); bins.len()];
            for bi in (0..bins.len()).filter(|&bi| in_scope[bi]) {
                for ki in 0..p1.combos.len() {
                    if naive || (0..ccs.len()).any(|ci| counts(ci, bi, ki)) {
                        bin_vars[bi].push(want.add_var(format!("x_b{bi}_c{ki}")));
                        vars.push((bi, Some(ki)));
                    }
                }
                if with_marginals && !naive {
                    bin_vars[bi].push(want.add_var(format!("x_b{bi}_neutral")));
                    vars.push((bi, None));
                }
            }
            for (bi, bin_vars) in bin_vars.iter().enumerate() {
                if with_marginals && !bin_vars.is_empty() {
                    let terms = bin_vars.iter().map(|&v| (v, 1)).collect();
                    want.add_constraint(terms, Rel::Eq, built.bin_rows[bi].len() as i64);
                }
            }
            for (ci, cc) in ccs.iter().enumerate() {
                let terms = (0..vars.len())
                    .filter(|&v| vars[v].1.is_some_and(|ki| counts(ci, vars[v].0, ki)))
                    .map(|v| (v, 1))
                    .collect();
                want.add_soft_eq(terms, cc.target as i64, 1);
            }
            assert_eq!(built.vars, vars, "{mode:?}, naive {naive}");
            assert!(
                built.problem == want,
                "{mode:?}, naive {naive}: the programs differ"
            );
        }
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
