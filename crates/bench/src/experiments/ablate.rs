//! Ablations of the design decisions called out in DESIGN.md:
//!
//! 1. **Worker pools** (§A.3) — one worker vs `--workers` (output is
//!    bit-identical; only the timings move).
//! 2. **Exact vs greedy coloring** — solution quality (fresh `R2` tuples)
//!    and cost of the backtracking solver.
//! 3. **Branch-and-bound budget** — full B&B vs immediate LP rounding
//!    (`bb_nodes = 0`): CC error and Phase I time.
//! 4. **Marginal augmentation** — already visible in Figures 8/10 via the
//!    two baselines; here HasseOnly shows what dropping the ILP entirely
//!    costs on a bad CC set.

use crate::harness::{fmt_err, fmt_s, run_averaged, ExperimentOpts, Table};
use cextend_core::{ColoringMode, IlpSettings, Phase1Strategy, SolverConfig};
use cextend_workloads::{CcFamily, DcSet};

/// Runs all ablations.
pub fn run(opts: &ExperimentOpts) {
    let dcs = opts.dcs(DcSet::All);
    let data = opts.dataset(10, None, 10);
    let good = opts.ccs(CcFamily::Good, opts.n_ccs, &data, 10);
    let bad = opts.ccs(CcFamily::Bad, opts.n_ccs, &data, 10);

    let mut table = Table::new(
        "ablate",
        &format!(
            "Design-decision ablations — scale 10x, all DCs ({})",
            opts.workload
        ),
        &[
            "Variant", "CCs", "CC med", "CC mean", "phase I", "phase II", "total", "new R2",
        ],
    )
    .with_scale_label(10);
    let wide = format!("{} workers", opts.workers);
    let cases: Vec<(&str, &str, SolverConfig)> = vec![
        ("hybrid (reference)", "good", SolverConfig::hybrid()),
        (&wide, "good", opts.solver_config()),
        (
            "exact coloring",
            "good",
            SolverConfig {
                coloring: ColoringMode::Exact { max_steps: 200_000 },
                ..SolverConfig::hybrid()
            },
        ),
        ("hybrid (reference)", "bad", SolverConfig::hybrid()),
        (
            "bb_nodes = 0 (round only)",
            "bad",
            SolverConfig {
                ilp: IlpSettings {
                    bb_nodes: 0,
                    ..IlpSettings::default()
                },
                ..SolverConfig::hybrid()
            },
        ),
        (
            "no repair pass",
            "bad",
            SolverConfig {
                ilp: IlpSettings {
                    repair_passes: 0,
                    ..IlpSettings::default()
                },
                ..SolverConfig::hybrid()
            },
        ),
        (
            "HasseOnly (drop ILP)",
            "bad",
            SolverConfig {
                phase1: Phase1Strategy::HasseOnly,
                ..SolverConfig::hybrid()
            },
        ),
    ];
    for (name, which, config) in cases {
        let ccs = if which == "good" { &good } else { &bad };
        let r = run_averaged(&data, ccs, &dcs, &config, opts.runs);
        assert_eq!(r.dc_error, 0.0, "every variant still guarantees DCs");
        table.push(vec![
            name.to_owned(),
            which.to_owned(),
            fmt_err(r.cc_median),
            fmt_err(r.cc_mean),
            fmt_s(r.phase1_s),
            fmt_s(r.phase2_s),
            fmt_s(r.wall_s),
            r.new_r2_tuples.to_string(),
        ]);
    }
    table.emit(opts);
}
