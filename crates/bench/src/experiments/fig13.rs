//! Figure 13 (and the surrounding CC-count sweep): runtime breakdown of the
//! hybrid — pairwise comparison, Algorithm 2 recursion, ILP solving,
//! coloring — at scale 10× with `S_all_DC`, for growing CC-set sizes drawn
//! from the good or bad family.
//!
//! Paper shape (at 900 CCs): with good CCs the ILP never runs and coloring
//! dominates (~73%); with bad CCs the ILP dominates (~86%) and everything
//! else is noise.

use crate::harness::{fmt_s, run_averaged, ExperimentOpts, Table};
use cextend_core::SolverConfig;
use cextend_workloads::{CcFamily, DcSet};

/// Runs Figure 13.
pub fn run(opts: &ExperimentOpts) {
    let dcs = opts.dcs(DcSet::All);
    let data = opts.dataset(10, None, 10);
    // The paper sweeps 500–900 CCs out of 1001; sweep the same fractions.
    let sweep: Vec<usize> = [0.5, 0.6, 0.7, 0.8, 0.9]
        .iter()
        .map(|f| ((opts.n_ccs as f64) * f).round() as usize)
        .collect();
    let mut table = Table::new(
        "fig13",
        &format!(
            "Hybrid runtime breakdown — scale 10x, all DCs, growing CC counts ({})",
            opts.workload
        ),
        &[
            "CCs",
            "Family",
            "pairwise",
            "recursion",
            "ILP",
            "coloring",
            "total",
            "ILP %",
        ],
    )
    .with_scale_label(10);
    for family in [CcFamily::Good, CcFamily::Bad] {
        for &n in &sweep {
            let ccs = opts.ccs(family, n, &data, 10);
            let r = run_averaged(&data, &ccs, &dcs, &SolverConfig::hybrid(), opts.runs);
            let ilp_pct = if r.wall_s > 0.0 {
                100.0 * r.ilp_s / r.wall_s
            } else {
                0.0
            };
            table.push(vec![
                n.to_string(),
                format!("{family:?}"),
                fmt_s(r.pairwise_s),
                fmt_s(r.hasse_s),
                fmt_s(r.ilp_s),
                fmt_s(r.phase2_s),
                fmt_s(r.wall_s),
                format!("{ilp_pct:.1}%"),
            ]);
        }
    }
    table.emit(opts);
}
