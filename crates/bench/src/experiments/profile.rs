//! `profile`: one traced end-to-end run → Chrome-trace export + per-stage
//! self-time table.
//!
//! Arms the `cextend-obs` recorder, drives the selected workload's full
//! FK-completion chain exactly once (a profile wants one clean trace, not
//! an average — `--runs` is ignored), then:
//!
//! - validates the collected trace (balanced spans, monotone per-thread
//!   timestamps) and fails the run on any violation;
//! - prints a per-stage self-time table to stdout (and snapshots it as
//!   `profile.json` under `--out`), cross-checked against the
//!   `StageTimings`-derived phase totals: both are accumulated from the
//!   same clock reads, so they must agree within [`TOLERANCE`];
//! - writes `<out>/trace.json` in the Chrome Trace Event Format, stamped
//!   with the run parameters and [`RunMeta`] provenance — load it in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.

use crate::harness::{chain_steps, fmt_s, run_meta, ExperimentOpts, RunMeta, Table};
use cextend_obs::narrate;
use cextend_workloads::{CcFamily, DcSet};
use std::time::Duration;

/// Maximum relative disagreement between the trace's per-stage sums and the
/// `StageTimings`-derived phase totals. Both sides accumulate the very same
/// measured durations, so in practice they agree exactly; the tolerance
/// only absorbs float formatting in the aggregated seconds.
pub const TOLERANCE: f64 = 0.01;

/// Phase I stage-span names, in pipeline order (the same names
/// `StageTimings::from_named` maps).
pub const PHASE1_STAGES: [&str; 8] = [
    "pairwise",
    "hasse",
    "ilp_build",
    "ilp_solve",
    "fill",
    "repair",
    "leftovers",
    "random",
];

/// Phase II stage-span names, in pipeline order.
pub const PHASE2_STAGES: [&str; 3] = ["conflict_build", "coloring", "invalid"];

/// Runs one traced chain and commits the artifacts (see the module docs).
pub fn run(opts: &ExperimentOpts) -> Result<(), String> {
    let workload = opts.workload();
    let data = opts.dataset(1, None, 0);
    let steps = chain_steps(
        workload.as_ref(),
        &data,
        CcFamily::Good,
        DcSet::All,
        opts.n_ccs,
        opts.seed,
    );
    narrate!(
        "[profile: tracing one {} chain run ({} steps)]",
        opts.workload,
        steps.len()
    );
    // Clear any residue a preceding experiment id left in the collector,
    // then arm the recorder around exactly one chain run.
    let _ = cextend_obs::take_trace();
    cextend_obs::set_recording(true);
    cextend_obs::label_thread("main");
    // At `--workers` > 1 the trace shows every worker pool (output is
    // bit-identical at every width; only the scheduling changes).
    let chain = crate::harness::run_chain_with_steps(&data, &steps, &opts.solver_config());
    cextend_obs::set_recording(false);
    let trace = cextend_obs::take_trace();
    trace
        .validate()
        .map_err(|e| format!("profile trace failed validation: {e}"))?;

    // ---- Per-stage self-time table, cross-checked per phase. ------------
    let self_times = trace.self_times();
    let stage_total = |names: &[&str]| -> Duration {
        names
            .iter()
            .filter_map(|n| self_times.get(*n))
            .copied()
            .sum()
    };
    let phase1_trace = stage_total(&PHASE1_STAGES);
    let phase2_trace = stage_total(&PHASE2_STAGES);
    check_agreement("phase1", phase1_trace, chain.total.phase1_s)?;
    check_agreement("phase2", phase2_trace, chain.total.phase2_s)?;

    let mut table = Table::new(
        "profile",
        &format!(
            "Stage self-times of one traced chain run — {} spans on {} threads",
            trace.spans.len(),
            trace.threads.len().max(1)
        ),
        &["Phase", "Stage", "self", "share"],
    );
    for (phase, names, total) in [
        ("phase1", &PHASE1_STAGES[..], phase1_trace),
        ("phase2", &PHASE2_STAGES[..], phase2_trace),
    ] {
        for name in names {
            let t = self_times.get(*name).copied().unwrap_or_default();
            let share = if total > Duration::ZERO {
                t.as_secs_f64() / total.as_secs_f64()
            } else {
                0.0
            };
            table.push(vec![
                phase.to_owned(),
                (*name).to_owned(),
                fmt_s(t.as_secs_f64()),
                format!("{:.1}%", share * 100.0),
            ]);
        }
    }
    table.emit(opts);

    if !trace.counters.is_empty() {
        let mut counters = Table::new("profile-counters", "Trace counters", &["Counter", "Value"]);
        for (name, value) in &trace.counters {
            counters.push(vec![name.clone(), value.to_string()]);
        }
        // Stdout only: the counter map is already inside trace.json, so a
        // second snapshot file would just duplicate it.
        println!("{}", counters.render());
    }

    // ---- Chrome-trace export. -------------------------------------------
    let dir = opts
        .out_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create output dir: {e}"))?;
    let meta = trace_meta(opts, &run_meta(opts.workers));
    let path = dir.join("trace.json");
    std::fs::write(&path, trace.to_chrome_json(&meta))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    narrate!(
        "[trace written to {} ({} spans, {} counters) — open in https://ui.perfetto.dev]",
        path.display(),
        trace.spans.len(),
        trace.counters.len()
    );
    Ok(())
}

/// The `otherData` key/value pairs stamped into `trace.json`: run
/// parameters first, provenance after.
fn trace_meta(opts: &ExperimentOpts, meta: &RunMeta) -> Vec<(String, String)> {
    let mut pairs = vec![
        ("workload".to_owned(), opts.workload.clone()),
        ("scale_factor".to_owned(), opts.scale_factor.to_string()),
        ("n_ccs".to_owned(), opts.n_ccs.to_string()),
        ("seed".to_owned(), opts.seed.to_string()),
    ];
    pairs.extend(meta.as_pairs());
    pairs
}

/// Fails when the trace's per-stage sum and the `StageTimings`-derived
/// phase total disagree by more than [`TOLERANCE`] (relative, with a 1ms
/// absolute floor so near-zero smoke runs cannot false-flag on jitter).
fn check_agreement(phase: &str, trace_sum: Duration, timings_s: f64) -> Result<(), String> {
    let trace_s = trace_sum.as_secs_f64();
    let diff = (trace_s - timings_s).abs();
    if diff > (timings_s * TOLERANCE).max(0.001) {
        return Err(format!(
            "trace/StageTimings disagreement on {phase}: stage spans sum to {} but \
             StageTimings reports {} (diff {})",
            fmt_s(trace_s),
            fmt_s(timings_s),
            fmt_s(diff)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_check_bounds() {
        check_agreement("phase1", Duration::from_secs_f64(1.004), 1.0).unwrap();
        let err = check_agreement("phase1", Duration::from_secs_f64(1.5), 1.0).unwrap_err();
        assert!(err.contains("phase1"), "{err}");
        // The absolute floor tolerates sub-millisecond noise on tiny runs.
        check_agreement("phase2", Duration::from_micros(900), 0.0).unwrap();
    }

    #[test]
    fn stage_names_match_the_timings_mapping() {
        use cextend_core::StageTimings;
        use std::time::Duration;
        // Every profile stage name must be one `StageTimings::from_named`
        // maps — a renamed stage would silently drop out of the table.
        for name in PHASE1_STAGES.iter().chain(&PHASE2_STAGES) {
            let t = StageTimings::from_named(&[(*name, Duration::from_secs(1))]);
            assert!(
                t.phase1() + t.phase2() == Duration::from_secs(1),
                "stage `{name}` is not mapped by StageTimings::from_named"
            );
        }
    }
}
