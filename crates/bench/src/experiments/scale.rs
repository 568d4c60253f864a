//! `scale`: paper-scale throughput runs with wall *and* peak-memory
//! records.
//!
//! The figure experiments default to laptop-sized fractions of the paper's
//! data scales; this driver runs the two single-step workloads that reach
//! 10⁶ `R1` tuples at 100% scale — Census (Table 1's 40× row: 1,015,686
//! persons) and the DC-dense adversarial Events/Slots scenario — through
//! the full hybrid pipeline at `--workers` (Phase I completion sharded,
//! Phase II conflict building + coloring on the partition pipeline).
//!
//! Each scenario is stamped with the knobs it runs at: both raise their
//! partition-count knob (`areas` / `rooms`) far above the figure-experiment
//! defaults, because pair DCs materialize a conflict edge per violating
//! tuple pair *within* a partition — at 10⁶ rows the edge count (and so
//! wall and memory) is governed by partition size, exactly the regime the
//! paper's Section A.3 sharding targets.
//!
//! Results go three places:
//!
//! - a `scale.json` table snapshot (via the usual [`Table::emit`]);
//! - the `scale` section of `<out>/BENCH_perf.json`, saved through
//!   [`super::record::save`] beside any `perf` section; `perf-check`
//!   compares the section's walls, stages and peak RSS against the committed
//!   baseline when both ran at the same parameters (and skips the section
//!   otherwise, so a 10% CI smoke never gates against the committed 100%
//!   records);
//! - one `"kind":"scale"` line appended to `BENCH_history.jsonl`
//!   (`perf-trend` shows perf lines only and notes how many scale lines it
//!   skipped).
//!
//! CI budget asserts: when `CEXTEND_SCALE_MAX_WALL_S` /
//! `CEXTEND_SCALE_MAX_RSS_MB` are set, every record must come in under
//! them or the driver fails — the `scale-smoke` CI step pins both.

use super::record::{save, Kind, Record};
use crate::harness::{fmt_s, run_averaged, ExperimentOpts, Table};
use cextend_obs::narrate;
use cextend_table::{peak_rss_bytes, reset_peak_rss};
use cextend_workloads::{workload_by_name, CcFamily, DcSet, WorkloadParams};
use std::collections::BTreeMap;

/// One paper-scale scenario: a registered workload, the generator scale
/// that reaches the paper's full size (≥10⁶ `R1` tuples at factor 1.0),
/// and the knob overrides that keep its `V_join` partitions small enough
/// for the pair-DC conflict cliques to stay tractable at that size.
pub struct ScaleScenario {
    /// Registered workload name.
    pub workload: &'static str,
    /// Generator scale at `--paper-scale` (factor 1.0).
    pub full_scale: f64,
    /// Scenario knob overrides (CLI `--knob` values win over these).
    pub knobs: &'static [(&'static str, i64)],
}

/// The paper-scale scenarios, in run order.
///
/// - `census` at scale 40 is Table 1's 40× row: 1,015,686 persons across
///   392,800 households. `areas=1024` bounds the owner-pair (`DC_OO`)
///   cliques to ~150 owners per `(Tenure, Area)` partition.
/// - `dcdense` at scale 62.5 generates 250,000 slots × ~4 events ≈ 10⁶
///   events. `rooms=10000` yields ~20,000 `(Room, Shift)` partitions of
///   ~50 events, bounding the Anchor-pair cliques and the ternary
///   `nae-track` hyperedge enumeration.
pub const SCENARIOS: [ScaleScenario; 2] = [
    ScaleScenario {
        workload: "census",
        full_scale: 40.0,
        knobs: &[("areas", 1024)],
    },
    ScaleScenario {
        workload: "dcdense",
        full_scale: 62.5,
        knobs: &[("rooms", 10_000)],
    },
];

/// Reads an `f64` budget from the environment (`None` when unset; an
/// unparsable value is a hard error, not a silently-dropped budget).
fn env_budget(name: &str) -> Result<Option<f64>, String> {
    match std::env::var(name) {
        Err(_) => Ok(None),
        Ok(s) => s
            .trim()
            .parse::<f64>()
            .map(Some)
            .map_err(|e| format!("bad {name}=`{s}`: {e}")),
    }
}

/// Runs every scenario at `full_scale × --scale-factor` and commits the
/// records (see the module docs for where they land).
pub fn run(opts: &ExperimentOpts) -> Result<(), String> {
    let max_wall_s = env_budget("CEXTEND_SCALE_MAX_WALL_S")?;
    let max_rss_mb = env_budget("CEXTEND_SCALE_MAX_RSS_MB")?;
    let mut table = Table::new(
        "scale",
        &format!(
            "Paper-scale runs — {} of full scale, {} workers",
            opts.scale_factor, opts.workers
        ),
        &[
            "Workload", "Scale", "R1", "R2", "CCs", "phase I", "phase II", "total", "CC med",
            "DC err", "rel heap", "peak RSS",
        ],
    );
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for scenario in &SCENARIOS {
        let workload = workload_by_name(scenario.workload).expect("scenario is registered");
        let meta = workload.meta();
        // Scenario knob defaults, overridden by any CLI `--knob` the
        // workload owns.
        let mut knobs: BTreeMap<String, i64> = scenario
            .knobs
            .iter()
            .map(|&(name, v)| (name.to_owned(), v))
            .collect();
        for (name, &v) in &opts.knobs {
            if meta.knobs.iter().any(|&(k, _)| k == name.as_str()) {
                knobs.insert(name.clone(), v);
            }
        }
        let scale = scenario.full_scale * opts.scale_factor;
        let params = WorkloadParams {
            scale,
            seed: opts.seed,
            r2_cols: None,
            knobs: knobs.clone(),
        };
        narrate!(
            "[scale: generating {} at scale {scale} (knobs: {knobs:?})]",
            meta.name
        );
        // Per-workload peak memory: drop the process high-water mark to the
        // current RSS so this scenario's record doesn't inherit the peak of
        // a heavier predecessor.
        reset_peak_rss();
        let data = workload.generate(&params);
        let heap = cextend_table::MemStats::capture(data.relations.iter().chain(&data.truth))
            .relation_heap_bytes;
        let ccs = workload.ccs(CcFamily::Good, opts.n_ccs, &data, opts.seed);
        let dcs = workload.dcs(DcSet::All);
        let result = run_averaged(&data, &ccs, &dcs, &opts.solver_config(), opts.runs);
        assert_eq!(
            result.dc_error, 0.0,
            "Proposition 5.5 violated on {} at scale {scale}",
            meta.name
        );
        let peak = peak_rss_bytes();
        table.push(vec![
            meta.name.to_owned(),
            format!("{scale}"),
            data.n_r1().to_string(),
            data.n_r2().to_string(),
            ccs.len().to_string(),
            fmt_s(result.phase1_s),
            fmt_s(result.phase2_s),
            fmt_s(result.wall_s),
            format!("{:.3}", result.cc_median),
            format!("{:.3}", result.dc_error),
            fmt_mb(heap as u64),
            peak.map_or("-".to_owned(), fmt_mb),
        ]);
        if let Some(budget) = max_wall_s {
            if result.wall_s > budget {
                failures.push(format!(
                    "{}: wall {} exceeds CEXTEND_SCALE_MAX_WALL_S={budget}",
                    meta.name,
                    fmt_s(result.wall_s)
                ));
            }
        }
        if let (Some(budget), Some(rss)) = (max_rss_mb, peak) {
            if rss as f64 / (1024.0 * 1024.0) > budget {
                failures.push(format!(
                    "{}: peak RSS {} exceeds CEXTEND_SCALE_MAX_RSS_MB={budget}",
                    meta.name,
                    fmt_mb(rss)
                ));
            }
        }
        records.push(Record {
            scale: Some(scale),
            knobs: Some(knobs),
            relation_heap_bytes: Some(heap),
            peak_rss_bytes: peak,
            ..Record::solved(meta.name, (data.n_r1(), data.n_r2(), ccs.len()), &result)
        });
    }
    table.emit(opts);

    save(opts, Kind::Scale, None, records)?;

    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "scale budget exceeded:\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// Formats bytes as mebibytes.
fn fmt_mb(bytes: u64) -> String {
    format!("{:.0}MB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_reach_a_million_r1_tuples_at_full_scale() {
        // `census`: Table 1's 40× row. `dcdense`: 250k slots × ~4 events.
        for s in &SCENARIOS {
            let expected_r1 = match s.workload {
                "census" => 1_015_686.0,
                "dcdense" => 4_000.0 * s.full_scale * 4.0,
                other => panic!("unknown scenario {other}"),
            };
            assert!(
                expected_r1 >= 1_000_000.0,
                "{} reaches only {expected_r1} R1 tuples at full scale",
                s.workload
            );
        }
    }

    #[test]
    fn env_budget_parses_or_errors() {
        assert_eq!(env_budget("CEXTEND_NO_SUCH_BUDGET").unwrap(), None);
    }
}
