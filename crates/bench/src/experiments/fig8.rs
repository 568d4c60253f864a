//! Figures 8a/8b: CC and DC error for baseline, baseline-with-marginals and
//! hybrid as data grows from scale 1× to 40×, with `S_all_DC` and either
//! `S_good_CC` (8a) or `S_bad_CC` (8b).
//!
//! Paper shape to reproduce: hybrid has **zero DC error everywhere** and
//! zero median CC error; the plain baseline has large CC *and* DC errors
//! growing with scale; baseline-with-marginals repairs the CC error but
//! keeps (even worsens) the DC error.
//!
//! On a multi-relation workload the sweep runs the *full FK-completion
//! chain* per pipeline and reports one row per (scale, step): the hybrid's
//! zero-DC guarantee must hold at every level of the snowflake.

use crate::harness::{
    chain_steps, fmt_err, run_averaged, run_chain_with_steps_averaged, ExperimentOpts, Table,
};
use cextend_core::SolverConfig;
use cextend_workloads::{CcFamily, DcSet};

const SCALE_LABELS: [u32; 5] = [1, 2, 5, 10, 40];

const PIPELINES: [&str; 3] = ["base", "base+marg", "hybrid"];

fn pipeline_config(name: &str) -> SolverConfig {
    match name {
        "base" => SolverConfig::baseline(),
        "base+marg" => SolverConfig::baseline_with_marginals(),
        "hybrid" => SolverConfig::hybrid(),
        other => unreachable!("unknown pipeline {other}"),
    }
}

/// Runs Figure 8a (`Good`) or 8b (`Bad`).
pub fn run(opts: &ExperimentOpts, family: CcFamily, id: &str) {
    if opts.workload().meta().n_steps() > 1 {
        run_chain(opts, family, id);
        return;
    }
    let dcs = opts.dcs(DcSet::All);
    let mut table = Table::new(
        id,
        &format!(
            "CC/DC error vs scale — all DCs, {:?} CCs (n={}, {})",
            family, opts.n_ccs, opts.workload
        ),
        &[
            "Scale",
            "CC base",
            "CC base+marg",
            "CC hybrid",
            "DC base",
            "DC base+marg",
            "DC hybrid",
        ],
    );
    for label in SCALE_LABELS {
        let data = opts.dataset(label, None, label as u64);
        let ccs = opts.ccs(family, opts.n_ccs, &data, label as u64);
        let base = run_averaged(&data, &ccs, &dcs, &SolverConfig::baseline(), opts.runs);
        let marg = run_averaged(
            &data,
            &ccs,
            &dcs,
            &SolverConfig::baseline_with_marginals(),
            opts.runs,
        );
        let hybrid = run_averaged(&data, &ccs, &dcs, &SolverConfig::hybrid(), opts.runs);
        assert_eq!(hybrid.dc_error, 0.0, "the hybrid guarantees zero DC error");
        table.push(vec![
            format!("{label}x"),
            fmt_err(base.cc_median),
            fmt_err(marg.cc_median),
            fmt_err(hybrid.cc_median),
            fmt_err(base.dc_error),
            fmt_err(marg.dc_error),
            fmt_err(hybrid.dc_error),
        ]);
    }
    table.emit(opts);
}

/// The multi-step variant: one row per (scale, step), every pipeline run
/// over the whole chain.
fn run_chain(opts: &ExperimentOpts, family: CcFamily, id: &str) {
    let workload = opts.workload();
    let mut table = Table::new(
        id,
        &format!(
            "CC/DC error vs scale per chain step — all DCs, {:?} CCs (n={}, {})",
            family, opts.n_ccs, opts.workload
        ),
        &[
            "Scale",
            "Step",
            "CC base",
            "CC base+marg",
            "CC hybrid",
            "DC base",
            "DC base+marg",
            "DC hybrid",
        ],
    );
    for label in SCALE_LABELS {
        let data = opts.dataset(label, None, label as u64);
        // One constraint-generation pass per scale label; every pipeline
        // then solves the identical step set.
        let steps = chain_steps(
            workload.as_ref(),
            &data,
            family,
            DcSet::All,
            opts.n_ccs,
            opts.seed + label as u64,
        );
        let chains: Vec<_> = PIPELINES
            .iter()
            .map(|name| {
                // Every pipeline runs at the CLI-selected width, so
                // `--workers` exercises the pools here, not just in
                // `table1`.
                let config = pipeline_config(name).with_workers(opts.workers);
                run_chain_with_steps_averaged(&data, &steps, &config, opts.runs)
            })
            .collect();
        let hybrid = &chains[PIPELINES.len() - 1];
        for (s, step) in hybrid.steps.iter().enumerate() {
            assert_eq!(
                step.result.dc_error, 0.0,
                "the hybrid guarantees zero DC error at step {}",
                step.step
            );
            table.push(vec![
                format!("{label}x"),
                step.step.clone(),
                fmt_err(chains[0].steps[s].result.cc_median),
                fmt_err(chains[1].steps[s].result.cc_median),
                fmt_err(chains[2].steps[s].result.cc_median),
                fmt_err(chains[0].steps[s].result.dc_error),
                fmt_err(chains[1].steps[s].result.dc_error),
                fmt_err(chains[2].steps[s].result.dc_error),
            ]);
        }
    }
    table.emit(opts);
}
