//! Figure 12: hybrid runtime at scale 10× with the good DC and CC sets as
//! the number of non-key `R2` columns grows across the workload's
//! supported progression (Census: 2 → 10; Retail: 2 → 6).
//!
//! Paper shape (Census): total runtime grows several-fold (5.17 → 38.66
//! minutes) and the growth is dominated by coloring — more `B` columns
//! mean finer `V_join` partitions. Reproducing this requires completing
//! *all* `R2` columns in Phase I (`complete_all_r2_columns`), since the
//! paper partitions by every `B` column.

use crate::harness::{fmt_s, run_averaged, ExperimentOpts, Table};
use cextend_core::SolverConfig;
use cextend_workloads::{CcFamily, DcSet};

/// Runs Figure 12.
pub fn run(opts: &ExperimentOpts) {
    let dcs = opts.dcs(DcSet::Good);
    let meta = opts.workload().meta();
    let mut table = Table::new(
        "fig12",
        &format!(
            "Hybrid runtime vs number of R2 columns — scale 10x, good DCs, good CCs ({})",
            meta.name
        ),
        &["R2 cols", "recursion", "phase I", "phase II", "total"],
    )
    .with_scale_label(10);
    for &n_cols in meta.r2_col_counts {
        let data = opts.dataset(10, Some(n_cols), 10);
        let ccs = opts.ccs(CcFamily::Good, opts.n_ccs, &data, 10);
        let config = SolverConfig {
            complete_all_r2_columns: true,
            ..SolverConfig::hybrid()
        };
        let r = run_averaged(&data, &ccs, &dcs, &config, opts.runs);
        table.push(vec![
            n_cols.to_string(),
            fmt_s(r.hasse_s),
            fmt_s(r.phase1_s),
            fmt_s(r.phase2_s),
            fmt_s(r.wall_s),
        ]);
    }
    table.emit(opts);
}
