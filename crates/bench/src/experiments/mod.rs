//! One driver per table/figure of the paper's evaluation (Section 6),
//! plus the cross-workload perf baseline. Every driver is
//! workload-generic: `--workload retail` reruns the paper's experiment
//! designs on the Retail orders/customers scenario.
//!
//! | id | artifact |
//! |---|---|
//! | `table1` | Table 1 — data scales + Proposition 5.5 solver check |
//! | `fig8a` | Figure 8a — errors vs scale, all DCs + good CCs |
//! | `fig8b` | Figure 8b — errors vs scale, all DCs + bad CCs |
//! | `fig9` | Figure 9 — per-CC relative error distribution (40×, bad CCs) |
//! | `fig10` | Figure 10 — good/bad DC × good/bad CC error grid (10×) |
//! | `fig11a` | Figure 11a — runtime baseline vs hybrid, phase split |
//! | `fig11b` | Figure 11b — hybrid runtime 10×–160×, good vs bad CCs |
//! | `fig12` | Figure 12 — runtime vs number of `R2` columns |
//! | `fig13` | Figure 13 — runtime breakdown at growing CC counts |
//! | `ablate` | DESIGN.md ablations (worker width, exact coloring, B&B budget) |
//! | `sched` | star-vs-chain step-scheduler sweep: 1 worker vs `--workers`, wall per level, with a bit-identity assertion |
//! | `perf` | perf baseline over *all* workloads at `--workers` (one record per chain step + per scheduler level at 1 worker and at `--workers`) → `BENCH_perf.json` + `BENCH_history.jsonl` |
//! | `perf-check` | regression guard: fresh `BENCH_perf.json` vs the committed baseline |
//! | `perf-trend` | per-record wall-time trend table over the accumulated `BENCH_history.jsonl` lines (+ markdown when `--out` is set) |
//! | `scale` | paper-scale runs (census + dcdense at ≥10⁶ `R1` tuples under `--paper-scale`) at `--workers`; merges a wall + peak-RSS `scale` section into `BENCH_perf.json` |
//! | `profile` | one traced chain run → `<out>/trace.json` (Chrome Trace Event Format, opens in Perfetto) + per-stage self-time table cross-checked against `StageTimings` |
//! | `fuzz-spec` | seeded well-typed spec fuzzer: `--iters` random specs through the 1 ≡ 2 ≡ 4 worker differential oracles, the builder ≡ naive edge-set check, the kernel ≡ `count_in` CC check and the certifier ≡ references check |
//! | `spec-check` | corpus gate: every `specs/*.spec` passes the static checker, every `specs/bad/*.spec` is rejected |

pub mod ablate;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig8;
pub mod fig9;
pub mod fuzzspec;
pub mod perf;
pub mod profile;
pub mod scale;
pub mod sched;
pub mod table1;
pub mod trend;

use crate::harness::ExperimentOpts;
use cextend_workloads::CcFamily;

/// Reads a named field from a parsed JSON object (shared by the
/// `perf-check` and `perf-trend` document readers).
pub(crate) fn json_field(obj: &[(String, serde::Value)], name: &str) -> Option<serde::Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
}

/// All figure/table experiment ids, in run order (`perf` is driven
/// separately: it sweeps every workload and writes `BENCH_perf.json`).
pub const ALL: [&str; 10] = [
    "table1", "fig8a", "fig8b", "fig9", "fig10", "fig11a", "fig11b", "fig12", "fig13", "ablate",
];

/// Runs one experiment by id.
pub fn run(id: &str, opts: &ExperimentOpts) -> Result<(), String> {
    match id {
        "table1" => table1::run(opts),
        "fig8a" => fig8::run(opts, CcFamily::Good, "fig8a"),
        "fig8b" => fig8::run(opts, CcFamily::Bad, "fig8b"),
        "fig9" => fig9::run(opts),
        "fig10" => fig10::run(opts),
        "fig11a" => fig11::run_11a(opts),
        "fig11b" => fig11::run_11b(opts),
        "fig12" => fig12::run(opts),
        "fig13" => fig13::run(opts),
        "ablate" => ablate::run(opts),
        "sched" => sched::run(opts),
        "scale" => scale::run(opts)?,
        "profile" => profile::run(opts)?,
        "perf" => perf::run(opts),
        "perf-check" => perf::check_cli(opts)?,
        "perf-trend" => trend::run(opts)?,
        "fuzz-spec" => fuzzspec::run(opts)?,
        "spec-check" => fuzzspec::check_corpus(opts)?,
        other => {
            return Err(format!(
                "unknown experiment `{other}`; known: {ALL:?}, `sched`, `scale`, `profile`, \
                 `perf`, `perf-check`, `perf-trend`, `fuzz-spec` and `spec-check`"
            ))
        }
    }
    Ok(())
}
