//! Property-style integration tests of the paper's guarantees across
//! randomized Census instances:
//!
//! - Proposition 5.5: the hybrid's output always satisfies every DC and
//!   joins back to exactly the reported view.
//! - Proposition 4.7: with a non-intersecting CC family and ground-truth
//!   targets (a satisfying view exists), CC error is zero.
//! - Determinism: equal seeds give equal outputs.

use cextend::census::{generate, generate_ccs, s_all_dc, s_good_dc, CcFamily, CensusConfig};
use cextend::core::metrics::evaluate;
use cextend::{solve, CExtensionInstance, SolverConfig};

fn run(
    scale: f64,
    n_areas: usize,
    family: CcFamily,
    n_ccs: usize,
    all_dcs: bool,
    seed: u64,
    config: &SolverConfig,
) -> (CExtensionInstance, cextend::Solution) {
    let data = generate(&CensusConfig {
        scale,
        n_areas,
        seed,
        ..CensusConfig::default()
    });
    let ccs = generate_ccs(family, n_ccs, &data, seed);
    let dcs = if all_dcs { s_all_dc() } else { s_good_dc() };
    let instance = CExtensionInstance::new(data.persons, data.housing, ccs, dcs).unwrap();
    let solution = solve(&instance, config).unwrap();
    (instance, solution)
}

#[test]
fn proposition_5_5_dcs_always_hold() {
    for seed in 0..5 {
        for (family, all) in [
            (CcFamily::Good, true),
            (CcFamily::Bad, true),
            (CcFamily::Good, false),
            (CcFamily::Bad, false),
        ] {
            let (instance, solution) = run(0.02, 6, family, 40, all, seed, &SolverConfig::hybrid());
            let report = evaluate(&instance, &solution).unwrap();
            assert_eq!(
                report.dc_error, 0.0,
                "seed {seed} family {family:?} all_dcs {all}"
            );
            assert!(report.join_recovered);
        }
    }
}

#[test]
fn proposition_4_7_good_ccs_exact() {
    for seed in 0..4 {
        let (instance, solution) = run(
            0.03,
            6,
            CcFamily::Good,
            60,
            true,
            seed,
            &SolverConfig::hybrid(),
        );
        let report = evaluate(&instance, &solution).unwrap();
        assert_eq!(report.cc_median, 0.0, "seed {seed}");
        assert_eq!(
            report.cc_mean, 0.0,
            "a satisfying view exists (ground truth), so Algorithm 2 must be exact; seed {seed}"
        );
    }
}

#[test]
fn bad_ccs_keep_error_low_but_dcs_stay_exact() {
    let (instance, solution) = run(
        0.03,
        6,
        CcFamily::Bad,
        60,
        true,
        11,
        &SolverConfig::hybrid(),
    );
    let report = evaluate(&instance, &solution).unwrap();
    assert_eq!(report.dc_error, 0.0);
    // The paper reports median 0 and mean ≤ ~0.09 for bad CC sets.
    assert_eq!(report.cc_median, 0.0, "median CC error should stay zero");
    assert!(
        report.cc_mean < 0.25,
        "mean CC error unexpectedly large: {}",
        report.cc_mean
    );
}

#[test]
fn parallel_coloring_is_equivalent_to_serial() {
    let solve = |workers: usize| {
        run(
            0.02,
            6,
            CcFamily::Good,
            40,
            true,
            3,
            &SolverConfig::hybrid().with_workers(workers),
        )
    };
    let serial = solve(1);
    for workers in [2, 4] {
        let wide = solve(workers);
        assert!(cextend::table::relations_equal_ordered(
            &serial.1.r1_hat,
            &wide.1.r1_hat
        ));
        assert!(cextend::table::relations_equal_ordered(
            &serial.1.r2_hat,
            &wide.1.r2_hat
        ));
    }
}

#[test]
fn solver_is_deterministic() {
    let a = run(0.02, 6, CcFamily::Bad, 30, true, 5, &SolverConfig::hybrid());
    let b = run(0.02, 6, CcFamily::Bad, 30, true, 5, &SolverConfig::hybrid());
    assert!(cextend::table::relations_equal_ordered(
        &a.1.r1_hat,
        &b.1.r1_hat
    ));
}

#[test]
fn baselines_violate_dcs_hybrid_never_does() {
    let (instance, hybrid) = run(
        0.03,
        6,
        CcFamily::Good,
        40,
        true,
        2,
        &SolverConfig::hybrid(),
    );
    let baseline = solve(&instance, &SolverConfig::baseline()).unwrap();
    let rh = evaluate(&instance, &hybrid).unwrap();
    let rb = evaluate(&instance, &baseline).unwrap();
    assert_eq!(rh.dc_error, 0.0);
    assert!(
        rb.dc_error > 0.1,
        "random FK assignment should violate many DCs, got {}",
        rb.dc_error
    );
}

#[test]
fn stats_reflect_the_hybrid_split() {
    // Good CCs: the ILP never runs. Bad CCs: it does.
    let (_, good) = run(
        0.02,
        6,
        CcFamily::Good,
        40,
        true,
        1,
        &SolverConfig::hybrid(),
    );
    assert_eq!(good.stats.counters.s2_ccs, 0);
    assert_eq!(good.stats.counters.ilp_vars, 0);
    let (_, bad) = run(0.02, 6, CcFamily::Bad, 40, true, 1, &SolverConfig::hybrid());
    assert!(bad.stats.counters.s2_ccs > 0);
    assert!(bad.stats.counters.ilp_vars > 0);
}
