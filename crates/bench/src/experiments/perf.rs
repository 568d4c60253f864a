//! The perf-baseline smoke and its regression guard.
//!
//! `perf` times the full FK-completion chain on **every registered
//! workload** (both CC families, one record per completion step) at small
//! scale and writes the timings to `BENCH_perf.json`, seeding the bench
//! trajectory that CI uploads as an artifact on every run. Unlike the
//! figure experiments this sweep ignores `--workload`: its whole point is a
//! cross-workload baseline.
//!
//! `perf-check` reads a freshly written `BENCH_perf.json` back and compares
//! it against the committed baseline: any record present in both whose wall
//! time regressed by more than [`REGRESSION_FACTOR`]× fails the check (new
//! records are allowed; see [`check`] for the sub-millisecond noise floor).
//! Every failure — parameter mismatches and regressed records alike — is
//! collected and reported before the check exits non-zero, so one red
//! record cannot hide the rest in CI logs.
//!
//! The per-step records solve at `--workers`. Besides them, `perf` times
//! every multi-step workload's chain at **1 worker and at `--workers`**
//! (one `sched-L<k>-serial|parallel` record per scheduler level and arm,
//! wall = min over runs — see `super::sched`), and appends a one-line
//! summary of the whole sweep to `BENCH_history.jsonl` next to
//! `BENCH_perf.json`: the `--label` (git-describe-ish) and `--stamp`
//! (timestamp) the caller passed, the run parameters, and every record's
//! wall time. The baseline file is overwritten per run; the history file
//! only ever grows, and `perf-check` never reads it.

use crate::harness::{fmt_s, run_chain_averaged, run_meta, ExperimentOpts, RunMeta, Table};
use cextend_obs::narrate;
use cextend_workloads::{all_workloads, DcSet};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Wall-time growth beyond which `perf-check` fails a record.
pub const REGRESSION_FACTOR: f64 = 3.0;

/// Wall times are clamped up to this many seconds before comparing, so
/// scheduling noise on sub-millisecond records cannot trip the guard.
pub const NOISE_FLOOR_S: f64 = 0.005;

/// Peak-RSS growth beyond which `perf-check` fails a `scale` record. Memory
/// is far less noisy than wall time (the columnar buffers dominate and are
/// deterministic), so the bar is tighter than [`REGRESSION_FACTOR`].
pub const RSS_REGRESSION_FACTOR: f64 = 1.5;

/// Peak-RSS values are clamped up to this many bytes before comparing:
/// below it, allocator and runtime baseline noise dominates the signal.
pub const RSS_NOISE_FLOOR_BYTES: f64 = 64.0 * 1024.0 * 1024.0;

/// One timed (workload, CC family, completion step) cell.
#[derive(Debug, Serialize)]
pub struct PerfRecord {
    /// Workload name.
    pub workload: String,
    /// CC family label (`good` / `bad`).
    pub family: String,
    /// Completion-step label (`Owner→Target`).
    pub step: String,
    /// `R1` rows (the step owner's row count).
    pub n_r1: usize,
    /// `R2` rows (the step target's row count).
    pub n_r2: usize,
    /// CC-set size.
    pub n_ccs: usize,
    /// Phase I seconds (averaged over `runs`).
    pub phase1_s: f64,
    /// Phase II seconds.
    pub phase2_s: f64,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Median relative CC error (sanity: good families must be exact).
    pub cc_median: f64,
    /// DC error (must be 0.0 — Proposition 5.5).
    pub dc_error: f64,
}

/// The `BENCH_perf.json` document.
#[derive(Debug, Serialize)]
pub struct PerfBaseline {
    /// Snapshot format version.
    pub schema_version: u32,
    /// Scale factor the sweep ran at.
    pub scale_factor: f64,
    /// CC-set size requested.
    pub n_ccs: usize,
    /// Runs averaged per cell.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// CLI-provided knob overrides the sweep ran with (each workload
    /// resolves them against its own defaults).
    pub knobs: BTreeMap<String, i64>,
    /// Set when the sweep was extended with `--workload spec:<path>` —
    /// identifies where the extra `spec:*` records came from. Deliberately
    /// **not** a comparability parameter: a spec's records appear and
    /// disappear like any workload's, so a label difference must not
    /// false-flag the whole document as a parameter mismatch.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub workload: Option<String>,
    /// Build and worker-width provenance. Not a comparability parameter —
    /// see [`RunMeta`].
    pub meta: RunMeta,
    /// One record per (workload, family, step).
    pub records: Vec<PerfRecord>,
}

/// Runs the perf baseline and writes `BENCH_perf.json` (into `--out` when
/// set, else the working directory).
pub fn run(opts: &ExperimentOpts) {
    let mut table = Table::new(
        "perf",
        &format!(
            "Perf baseline — full chain on every workload at scale 1x (factor {})",
            opts.scale_factor
        ),
        &[
            "Workload", "CCs", "Step", "R1", "R2", "phase I", "phase II", "total", "CC med",
            "DC err",
        ],
    );
    let mut records = Vec::new();
    // The sweep covers every registered workload; a `--workload spec:<path>`
    // selection rides along as one extra entry, its records keyed under the
    // spec's `spec:<name>` meta name. The selector string (second element)
    // is what dataset generation resolves, which for specs is the path form.
    let mut sweep: Vec<(Box<dyn cextend_workloads::Workload>, String)> = all_workloads()
        .into_iter()
        .map(|w| {
            let name = w.meta().name.to_owned();
            (w, name)
        })
        .collect();
    if opts.workload.starts_with("spec:") {
        sweep.push((opts.workload(), opts.workload.clone()));
    }
    for (workload, selector) in sweep {
        let meta = workload.meta();
        let sub = ExperimentOpts {
            workload: selector,
            ..opts.clone()
        };
        let data = sub.dataset(1, None, 0);
        for family in workload.cc_families().iter().copied() {
            let chain = run_chain_averaged(
                workload.as_ref(),
                &data,
                family,
                DcSet::All,
                sub.n_ccs,
                sub.seed,
                &sub.solver_config(),
                sub.runs,
            );
            for step in &chain.steps {
                let r = &step.result;
                assert_eq!(
                    r.dc_error, 0.0,
                    "Proposition 5.5 violated on {} step {}",
                    meta.name, step.step
                );
                // Solved sizes, not generator sizes: later steps include the
                // dimension tuples minted upstream.
                let (n_r1, n_r2) = (step.n_r1, step.n_r2);
                table.push(vec![
                    meta.name.to_owned(),
                    family.label().to_owned(),
                    step.step.clone(),
                    n_r1.to_string(),
                    n_r2.to_string(),
                    fmt_s(r.phase1_s),
                    fmt_s(r.phase2_s),
                    fmt_s(r.wall_s),
                    format!("{:.3}", r.cc_median),
                    format!("{:.3}", r.dc_error),
                ]);
                records.push(PerfRecord {
                    workload: meta.name.to_owned(),
                    family: family.label().to_owned(),
                    step: step.step.clone(),
                    n_r1,
                    n_r2,
                    n_ccs: step.n_ccs,
                    phase1_s: r.phase1_s,
                    phase2_s: r.phase2_s,
                    wall_s: r.wall_s,
                    cc_median: r.cc_median,
                    dc_error: r.dc_error,
                });
            }
        }
    }
    // Scheduler comparison: one record per (multi-step workload, arm,
    // level), wall = min over runs so the serial-vs-parallel signal
    // survives scheduling jitter. The sweep asserts both arms produce
    // bit-identical relations before any timing is recorded.
    for t in super::sched::sweep_all(opts) {
        let step = format!("sched-L{}-{}", t.level, t.mode);
        table.push(vec![
            t.workload.clone(),
            "good".to_owned(),
            format!("{} [{}]", step, t.step_labels.join(" + ")),
            t.n_r1.to_string(),
            t.n_r2.to_string(),
            fmt_s(t.phase1_s),
            fmt_s(t.phase2_s),
            fmt_s(t.wall_s),
            format!("{:.3}", t.cc_median),
            format!("{:.3}", t.dc_error),
        ]);
        records.push(PerfRecord {
            workload: t.workload,
            family: "good".to_owned(),
            step,
            n_r1: t.n_r1,
            n_r2: t.n_r2,
            n_ccs: t.n_ccs,
            phase1_s: t.phase1_s,
            phase2_s: t.phase2_s,
            wall_s: t.wall_s,
            cc_median: t.cc_median,
            dc_error: t.dc_error,
        });
    }
    println!("{}", table.render());

    let baseline = PerfBaseline {
        schema_version: 2,
        scale_factor: opts.scale_factor,
        n_ccs: opts.n_ccs,
        runs: opts.runs,
        seed: opts.seed,
        knobs: opts.knobs.clone(),
        workload: opts
            .workload
            .starts_with("spec:")
            .then(|| opts.workload.clone()),
        meta: run_meta(opts.workers),
        records,
    };
    let dir = opts
        .out_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&dir).expect("create output dir");
    let path = dir.join("BENCH_perf.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&baseline).expect("serialize"),
    )
    .expect("write BENCH_perf.json");
    narrate!("[perf baseline written to {}]", path.display());

    let history = dir.join("BENCH_history.jsonl");
    append_history(&history, opts, &baseline);
    narrate!("[perf history appended to {}]\n", history.display());
}

/// One `BENCH_history.jsonl` line: the whole sweep compressed to its
/// identity (label + stamp + run parameters) and per-record wall times.
#[derive(Debug, Serialize)]
struct HistoryRecord {
    /// Build label (`--label`, git-describe-ish).
    label: String,
    /// Timestamp stamp (`--stamp`).
    stamp: String,
    /// Snapshot format version (matches the baseline's).
    schema_version: u32,
    /// Scale factor the sweep ran at.
    scale_factor: f64,
    /// CC-set size requested.
    n_ccs: usize,
    /// Runs averaged per cell.
    runs: usize,
    /// Base RNG seed.
    seed: u64,
    /// The `spec:<path>` selection that extended the sweep, when one did
    /// (same pass-through rule as the baseline's field).
    #[serde(skip_serializing_if = "Option::is_none")]
    workload: Option<String>,
    /// `workload/family/step` → wall seconds, every record of the sweep.
    walls: BTreeMap<String, f64>,
}

/// Appends the sweep to the perf history, one JSON line per `perf` run —
/// the trajectory `BENCH_perf.json` (a single overwritten snapshot) cannot
/// show. `perf-check` never reads this file.
fn append_history(path: &Path, opts: &ExperimentOpts, baseline: &PerfBaseline) {
    let record = HistoryRecord {
        label: opts.label.clone(),
        stamp: opts.stamp.clone(),
        schema_version: baseline.schema_version,
        scale_factor: baseline.scale_factor,
        n_ccs: baseline.n_ccs,
        runs: baseline.runs,
        seed: baseline.seed,
        workload: baseline.workload.clone(),
        walls: baseline
            .records
            .iter()
            .map(|r| (format!("{}/{}/{}", r.workload, r.family, r.step), r.wall_s))
            .collect(),
    };
    let line = serde_json::to_string(&record).expect("serialize history record");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open BENCH_history.jsonl");
    writeln!(file, "{line}").expect("append history line");
}

/// A record's identity and wall time, parsed from a `BENCH_perf.json`.
type WallTimes = BTreeMap<(String, String, String), f64>;

/// Per-workload timings parsed from one `scale` record.
struct ScaleTimes {
    /// Total wall seconds.
    wall: f64,
    /// Peak RSS bytes — absent on platforms without `VmHWM`.
    rss: Option<f64>,
    /// Phase I seconds — absent on pre-v3 sections without phase fields.
    phase1: Option<f64>,
    /// Phase II seconds — same optionality as `phase1`.
    phase2: Option<f64>,
    /// Conflict-graph build seconds — absent on sections written before
    /// the Phase II sub-stage fields existed.
    conflict: Option<f64>,
    /// Pure weighted-coloring seconds — same optionality as `conflict`.
    coloring: Option<f64>,
    /// Invalid-tuple handling seconds — same optionality as `conflict`.
    invalid: Option<f64>,
}

/// The parsed `scale` section of a `BENCH_perf.json` (written by
/// `experiments -- scale`): its own run parameters plus, per workload, the
/// wall time, per-phase times and the peak RSS.
struct ParsedScale {
    /// Same rendered-string parameter gate as the perf records'.
    params: Vec<(&'static str, String)>,
    /// Workload → parsed timings.
    records: BTreeMap<String, ScaleTimes>,
}

/// A parsed `BENCH_perf.json`: the run parameters wall times depend on,
/// per-record wall times, and the optional paper-scale section.
struct ParsedBaseline {
    /// `(scale_factor, n_ccs, runs, seed, knobs)` — rendered as strings
    /// for exact, float-formatting-stable comparison.
    params: Vec<(&'static str, String)>,
    walls: WallTimes,
    /// The `scale` section, when the document carries one.
    scale: Option<ParsedScale>,
}

fn parse_baseline(path: &Path) -> Result<ParsedBaseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let doc = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse `{}`: {e}", path.display()))?;
    let field = super::json_field;
    let serde::Value::Object(top) = doc else {
        return Err(format!("`{}` is not a JSON object", path.display()));
    };
    let Some(serde::Value::Array(records)) = field(&top, "records") else {
        return Err(format!("`{}` has no `records` array", path.display()));
    };
    let params = render_params(&top);
    let mut walls = WallTimes::new();
    for rec in &records {
        let serde::Value::Object(rec) = rec else {
            return Err("non-object perf record".into());
        };
        let text_field = |name: &str| -> Result<String, String> {
            match field(rec, name) {
                Some(serde::Value::Str(s)) => Ok(s),
                // Pre-chain baselines (schema_version 1) have no `step`.
                None if name == "step" => Ok(String::new()),
                other => Err(format!("perf record field `{name}` is {other:?}")),
            }
        };
        let wall = match field(rec, "wall_s") {
            Some(serde::Value::Float(x)) => x,
            Some(serde::Value::Int(n)) => n as f64,
            other => return Err(format!("perf record field `wall_s` is {other:?}")),
        };
        walls.insert(
            (
                text_field("workload")?,
                text_field("family")?,
                text_field("step")?,
            ),
            wall,
        );
    }
    let scale = match field(&top, "scale") {
        Some(serde::Value::Object(sec)) => Some(parse_scale(&sec)?),
        _ => None,
    };
    Ok(ParsedBaseline {
        params,
        walls,
        scale,
    })
}

/// Renders the comparability-gate parameters of a perf document or its
/// `scale` section (both carry the same fields).
///
/// Wall times are only comparable when both sweeps generated the same
/// datasets and CC load; capture every parameter they depend on. The
/// optional `workload` label (the `spec:<path>` that extended a sweep) is
/// deliberately absent from this list: spec-driven records come and go per
/// run like any workload's, and a label difference alone must not fail the
/// whole document as a parameter mismatch. Older documents also carry
/// `conflict` and `dcplan` builder labels; every solve now runs the one
/// builder, so those fields are ignored.
fn render_params(obj: &[(String, serde::Value)]) -> Vec<(&'static str, String)> {
    let field = super::json_field;
    let mut params: Vec<(&'static str, String)> = ["scale_factor", "n_ccs", "runs", "seed"]
        .into_iter()
        .map(|name| {
            let rendered = match field(obj, name) {
                Some(serde::Value::Float(x)) => x.to_string(),
                Some(serde::Value::Int(n)) => n.to_string(),
                other => format!("{other:?}"),
            };
            (name, rendered)
        })
        .collect();
    // Knob overrides reshape the generated data too. Absent (pre-v2
    // baselines) means no overrides, i.e. an empty map.
    let knobs = match field(obj, "knobs") {
        Some(v @ serde::Value::Object(_)) => {
            serde_json::to_string(&v).expect("re-render parsed JSON")
        }
        _ => "{}".to_owned(),
    };
    params.push(("knobs", knobs));
    params
}

/// Parses a `scale` section object (see `super::scale::ScaleSection`).
fn parse_scale(sec: &[(String, serde::Value)]) -> Result<ParsedScale, String> {
    let field = super::json_field;
    let mut records = BTreeMap::new();
    if let Some(serde::Value::Array(recs)) = field(sec, "records") {
        for rec in &recs {
            let serde::Value::Object(rec) = rec else {
                return Err("non-object scale record".into());
            };
            let Some(serde::Value::Str(workload)) = field(rec, "workload") else {
                return Err("scale record has no `workload` string".into());
            };
            let num = |name: &str| match field(rec, name) {
                Some(serde::Value::Float(x)) => Some(x),
                Some(serde::Value::Int(n)) => Some(n as f64),
                _ => None,
            };
            let wall = num("wall_s")
                .ok_or_else(|| format!("scale record `{workload}` has no `wall_s` number"))?;
            records.insert(
                workload,
                ScaleTimes {
                    wall,
                    // Absent on platforms without /proc (the record is
                    // still wall-comparable).
                    rss: num("peak_rss_bytes"),
                    // Absent on older sections; a wall regression hidden
                    // inside one phase still trips the per-stage bound when
                    // both sides carry it.
                    phase1: num("phase1_s"),
                    phase2: num("phase2_s"),
                    conflict: num("conflict_s"),
                    coloring: num("coloring_s"),
                    invalid: num("invalid_s"),
                },
            );
        }
    }
    Ok(ParsedScale {
        params: render_params(sec),
        records,
    })
}

/// Compares a fresh `BENCH_perf.json` against the committed baseline.
///
/// The two documents must have been produced with the same run parameters
/// (`scale_factor`, `n_ccs`, `runs`, `seed`, `knobs`) — a mismatch means
/// the guard would
/// compare apples to oranges (silently dead when the baseline is heavier,
/// spuriously red when it is lighter), so it fails with a parameter
/// mismatch instead. Given matching parameters, every record present in
/// both documents must have a fresh wall time of at most
/// [`REGRESSION_FACTOR`] × the baseline's, after clamping both sides up to
/// [`NOISE_FLOOR_S`] (sub-millisecond solves jitter far more than 3×
/// between CI machines). New records — new workloads, families or steps —
/// are allowed; a record that *disappeared* fails the check, since that
/// means lost coverage.
///
/// The documents' `scale` sections are compared too — but only when both
/// carry one **and** the sections' own parameters match: the committed
/// section is a 100%-scale run while CI's `scale-smoke` writes a 10% one,
/// and gating on that difference would make the smoke permanently red, so
/// an incomparable (or absent) section is skipped with a printed note
/// instead. Within comparable sections, walls and the per-phase times
/// (`phase1_s`/`phase2_s`, when both sides recorded them) use the same
/// [`REGRESSION_FACTOR`] bound over [`NOISE_FLOOR_S`], peak RSS (when both
/// sides recorded one) uses [`RSS_REGRESSION_FACTOR`] over
/// [`RSS_NOISE_FLOOR_BYTES`], and a disappeared scale workload fails like a
/// disappeared perf record.
pub fn check(baseline_path: &Path, fresh_path: &Path) -> Result<(), String> {
    let baseline = parse_baseline(baseline_path)?;
    let fresh = parse_baseline(fresh_path)?;
    // Collect *every* failure — all parameter mismatches, then (when the
    // parameters agree, so walls are comparable at all) every regressed or
    // disappeared record — before exiting non-zero. A first-failure exit
    // would hide the rest from CI logs.
    let mut failures = Vec::new();
    for ((name, base_value), (_, fresh_value)) in baseline.params.iter().zip(&fresh.params) {
        if base_value != fresh_value {
            failures.push(format!(
                "parameter mismatch: `{name}` is {base_value} in {} but {fresh_value} in {} \
                 — regenerate the committed baseline with the flags CI runs `perf` with",
                baseline_path.display(),
                fresh_path.display(),
            ));
        }
    }
    let comparable = failures.is_empty();
    check_scale_sections(&baseline.scale, &fresh.scale, &mut failures);
    let (baseline, fresh) = (baseline.walls, fresh.walls);
    if comparable {
        for (key, &base_wall) in &baseline {
            let (workload, family, step) = key;
            let label = format!("{workload}/{family}/{step}");
            match fresh.get(key) {
                None => failures.push(format!("record `{label}` disappeared from the fresh run")),
                Some(&fresh_wall) => {
                    let base = base_wall.max(NOISE_FLOOR_S);
                    let now = fresh_wall.max(NOISE_FLOOR_S);
                    if now > REGRESSION_FACTOR * base {
                        failures.push(format!(
                            "record `{label}` regressed {:.1}×: {} → {}",
                            now / base,
                            fmt_s(base_wall),
                            fmt_s(fresh_wall),
                        ));
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        narrate!(
            "[perf-check ok: {} baseline records within {REGRESSION_FACTOR}x of {}]",
            baseline.len(),
            baseline_path.display()
        );
        Ok(())
    } else {
        Err(format!(
            "perf-check failed against {}:\n  {}",
            baseline_path.display(),
            failures.join("\n  ")
        ))
    }
}

/// Compares two optional `scale` sections (see [`check`] for the skip
/// rules), appending any wall/RSS regression or disappeared workload to
/// `failures`.
fn check_scale_sections(
    baseline: &Option<ParsedScale>,
    fresh: &Option<ParsedScale>,
    failures: &mut Vec<String>,
) {
    let (base, fresh) = match (baseline, fresh) {
        (Some(b), Some(f)) => (b, f),
        (None, _) | (_, None) => {
            narrate!("[perf-check: no scale section in both documents — scale records skipped]");
            return;
        }
    };
    if base.params != fresh.params {
        // Expected whenever the committed 100%-scale section meets a CI
        // smoke run at a lighter factor; the perf records above still gate.
        narrate!(
            "[perf-check: scale sections ran at different parameters — scale records skipped]"
        );
        return;
    }
    for (workload, base_t) in &base.records {
        let Some(fresh_t) = fresh.records.get(workload) else {
            failures.push(format!(
                "scale record `{workload}` disappeared from the fresh run"
            ));
            continue;
        };
        // Per-stage bounds alongside the total: a phase that regresses
        // inside an otherwise-flat wall (e.g. Phase 1 slowing while Phase 2
        // speeds up) still fails. Stages absent on either side (pre-phase
        // baselines) are skipped, the wall always compares.
        let stages = [
            ("wall", Some(base_t.wall), Some(fresh_t.wall)),
            ("phase1_s", base_t.phase1, fresh_t.phase1),
            ("phase2_s", base_t.phase2, fresh_t.phase2),
            ("conflict_s", base_t.conflict, fresh_t.conflict),
            ("coloring_s", base_t.coloring, fresh_t.coloring),
            ("invalid_s", base_t.invalid, fresh_t.invalid),
        ];
        for (stage, base_s, fresh_s) in stages {
            let (Some(base_s), Some(fresh_s)) = (base_s, fresh_s) else {
                continue;
            };
            let base_w = base_s.max(NOISE_FLOOR_S);
            let now_w = fresh_s.max(NOISE_FLOOR_S);
            if now_w > REGRESSION_FACTOR * base_w {
                failures.push(format!(
                    "scale record `{workload}` {stage} regressed {:.1}×: {} → {}",
                    now_w / base_w,
                    fmt_s(base_s),
                    fmt_s(fresh_s),
                ));
            }
        }
        if let (Some(base_rss), Some(fresh_rss)) = (base_t.rss, fresh_t.rss) {
            let base_m = base_rss.max(RSS_NOISE_FLOOR_BYTES);
            let now_m = fresh_rss.max(RSS_NOISE_FLOOR_BYTES);
            if now_m > RSS_REGRESSION_FACTOR * base_m {
                failures.push(format!(
                    "scale record `{workload}` peak RSS regressed {:.2}×: {:.0}MB → {:.0}MB",
                    now_m / base_m,
                    base_rss / (1024.0 * 1024.0),
                    fresh_rss / (1024.0 * 1024.0),
                ));
            }
        }
    }
    narrate!(
        "[perf-check: {} scale records compared (walls and phase sub-stages within \
         {REGRESSION_FACTOR}x, peak RSS within {RSS_REGRESSION_FACTOR}x)]",
        base.records.len()
    );
}

/// CLI entry point for `perf-check`: compares `<out>/BENCH_perf.json` (the
/// fresh run) against `--baseline` (default: `BENCH_perf.json` in the
/// working directory, i.e. the committed file).
pub fn check_cli(opts: &ExperimentOpts) -> Result<(), String> {
    let baseline = opts
        .baseline
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_perf.json"));
    let fresh = opts
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("."))
        .join("BENCH_perf.json");
    check(&baseline, &fresh)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_at(scale: f64, records: &[(&str, &str, &str, f64)]) -> String {
        let rows: Vec<String> = records
            .iter()
            .map(|(w, f, s, wall)| {
                format!(r#"{{"workload":"{w}","family":"{f}","step":"{s}","wall_s":{wall}}}"#)
            })
            .collect();
        format!(
            r#"{{"schema_version":2,"scale_factor":{scale},"n_ccs":15,"runs":1,"records":[{}]}}"#,
            rows.join(",")
        )
    }

    fn doc(records: &[(&str, &str, &str, f64)]) -> String {
        doc_at(0.005, records)
    }

    fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn check_passes_within_factor_and_allows_new_records() {
        let dir = std::env::temp_dir().join("cextend-perf-check-ok");
        std::fs::create_dir_all(&dir).unwrap();
        let base = write(
            &dir,
            "base.json",
            &doc(&[("census", "good", "Persons→Housing", 0.1)]),
        );
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(&[
                ("census", "good", "Persons→Housing", 0.25),
                ("supply", "bad", "Stores→Regions", 9.0),
            ]),
        );
        check(&base, &fresh).unwrap();
    }

    #[test]
    fn check_fails_on_regression_and_missing_records() {
        let dir = std::env::temp_dir().join("cextend-perf-check-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let base = write(
            &dir,
            "base.json",
            &doc(&[
                ("census", "good", "Persons→Housing", 0.1),
                ("retail", "bad", "Orders→Customers", 0.1),
            ]),
        );
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(&[("census", "good", "Persons→Housing", 0.5)]),
        );
        let err = check(&base, &fresh).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        assert!(err.contains("disappeared"), "{err}");
    }

    #[test]
    fn check_rejects_mismatched_run_parameters() {
        let dir = std::env::temp_dir().join("cextend-perf-check-params");
        std::fs::create_dir_all(&dir).unwrap();
        let records = [("census", "good", "Persons→Housing", 0.1)];
        let base = write(&dir, "base.json", &doc_at(0.02, &records));
        let fresh = write(&dir, "fresh.json", &doc_at(0.005, &records));
        let err = check(&base, &fresh).unwrap_err();
        assert!(err.contains("parameter mismatch"), "{err}");
        assert!(err.contains("scale_factor"), "{err}");

        // Knob overrides reshape the data, so they gate comparability too.
        let with_knobs =
            doc(&records).replace(r#""runs":1,"#, r#""runs":1,"knobs":{"regions":100},"#);
        let base = write(&dir, "base-knobs.json", &with_knobs);
        let fresh = write(&dir, "fresh-knobs.json", &doc(&records));
        let err = check(&base, &fresh).unwrap_err();
        assert!(err.contains("knobs"), "{err}");
    }

    #[test]
    fn check_reports_every_failure_not_just_the_first() {
        let dir = std::env::temp_dir().join("cextend-perf-check-all");
        std::fs::create_dir_all(&dir).unwrap();
        let base = write(
            &dir,
            "base.json",
            &doc(&[
                ("census", "good", "Persons→Housing", 0.1),
                ("retail", "bad", "Orders→Customers", 0.1),
                ("supply", "good", "Orders→Stores", 0.1),
            ]),
        );
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(&[
                ("census", "good", "Persons→Housing", 0.9),
                ("retail", "bad", "Orders→Customers", 0.9),
            ]),
        );
        let err = check(&base, &fresh).unwrap_err();
        // Both regressions *and* the disappearance appear in one report.
        assert!(err.contains("census/good"), "{err}");
        assert!(err.contains("retail/bad"), "{err}");
        assert!(err.contains("disappeared"), "{err}");
        assert_eq!(err.matches("regressed").count(), 2, "{err}");

        // Parameter mismatches are also all reported at once.
        let other = write(
            &dir,
            "other.json",
            &doc_at(0.02, &[("census", "good", "Persons→Housing", 0.1)])
                .replace(r#""n_ccs":15"#, r#""n_ccs":99"#),
        );
        let err = check(&other, &fresh).unwrap_err();
        assert!(err.contains("scale_factor"), "{err}");
        assert!(err.contains("n_ccs"), "{err}");
    }

    #[test]
    fn spec_workload_label_does_not_gate_comparability() {
        let dir = std::env::temp_dir().join("cextend-perf-check-speclabel");
        std::fs::create_dir_all(&dir).unwrap();
        let records = [("spec:supply", "good", "Orders→Stores", 0.1)];
        // A baseline stamped with the `workload` pass-through label must
        // stay comparable to a fresh run without one (and vice versa) —
        // the label identifies spec-driven records, it is not a parameter.
        let with_label = doc(&records).replace(
            r#""runs":1,"#,
            r#""runs":1,"workload":"spec:specs/supply.spec","#,
        );
        let base = write(&dir, "base.json", &with_label);
        let fresh = write(&dir, "fresh.json", &doc(&records));
        check(&base, &fresh).unwrap();
        check(&fresh, &base).unwrap();
    }

    #[test]
    fn history_file_is_ignored_by_the_guard() {
        let dir = std::env::temp_dir().join("cextend-perf-check-history");
        std::fs::create_dir_all(&dir).unwrap();
        let records = [("census", "good", "Persons→Housing", 0.1)];
        let base = write(&dir, "base.json", &doc(&records));
        let fresh = write(&dir, "BENCH_perf.json", &doc(&records));
        // A (even malformed) history file next to the fresh baseline must
        // not affect the guard — it only ever reads BENCH_perf.json.
        write(&dir, "BENCH_history.jsonl", "not json at all\n{broken");
        check(&base, &fresh).unwrap();
    }

    #[test]
    fn check_tolerates_sub_noise_floor_jitter() {
        let dir = std::env::temp_dir().join("cextend-perf-check-noise");
        std::fs::create_dir_all(&dir).unwrap();
        let base = write(
            &dir,
            "base.json",
            &doc(&[("census", "good", "Persons→Housing", 0.0004)]),
        );
        // 10× worse in absolute terms, but still under the noise floor.
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(&[("census", "good", "Persons→Housing", 0.004)]),
        );
        check(&base, &fresh).unwrap();
    }

    /// A perf doc with a `scale` section whose parameters are fixed and
    /// whose records are `(workload, wall_s, peak_rss_bytes)` triples.
    fn doc_with_scale(section_factor: f64, scale_records: &[(&str, f64, Option<u64>)]) -> String {
        let rows: Vec<String> = scale_records
            .iter()
            .map(|(w, wall, rss)| {
                let rss = rss.map_or(String::new(), |b| format!(r#","peak_rss_bytes":{b}"#));
                format!(r#"{{"workload":"{w}","wall_s":{wall}{rss}}}"#)
            })
            .collect();
        let scale = format!(
            r#","scale":{{"scale_factor":{section_factor},"n_ccs":150,"runs":1,"seed":7,"knobs":{{}},"conflict":"indexed","records":[{}]}}"#,
            rows.join(",")
        );
        // Splice the section in before the document's closing brace.
        let base = doc(&[("census", "good", "Persons→Housing", 0.1)]);
        format!("{}{scale}}}", &base[..base.len() - 1])
    }

    #[test]
    fn scale_sections_compare_walls_and_rss_when_parameters_match() {
        let dir = std::env::temp_dir().join("cextend-perf-check-scale");
        std::fs::create_dir_all(&dir).unwrap();
        let gib = 1u64 << 30;
        let base = write(
            &dir,
            "base.json",
            &doc_with_scale(1.0, &[("census", 100.0, Some(4 * gib))]),
        );
        // Within both bounds: passes.
        let ok = write(
            &dir,
            "ok.json",
            &doc_with_scale(1.0, &[("census", 150.0, Some(5 * gib))]),
        );
        check(&base, &ok).unwrap();
        // Wall blown (>3x).
        let slow = write(
            &dir,
            "slow.json",
            &doc_with_scale(1.0, &[("census", 400.0, Some(4 * gib))]),
        );
        let err = check(&base, &slow).unwrap_err();
        assert!(err.contains("wall regressed"), "{err}");
        // RSS blown (>1.5x) at unchanged wall.
        let fat = write(
            &dir,
            "fat.json",
            &doc_with_scale(1.0, &[("census", 100.0, Some(7 * gib))]),
        );
        let err = check(&base, &fat).unwrap_err();
        assert!(err.contains("peak RSS regressed"), "{err}");
        // Disappeared scale workload fails.
        let empty = write(&dir, "empty.json", &doc_with_scale(1.0, &[]));
        let err = check(&base, &empty).unwrap_err();
        assert!(err.contains("scale record `census` disappeared"), "{err}");
    }

    /// Like [`doc_with_scale`] but with phase sub-stage fields:
    /// `(workload, wall_s, phase1_s, phase2_s)`.
    fn doc_with_phases(scale_records: &[(&str, f64, f64, f64)]) -> String {
        let rows: Vec<String> = scale_records
            .iter()
            .map(|(w, wall, p1, p2)| {
                format!(r#"{{"workload":"{w}","wall_s":{wall},"phase1_s":{p1},"phase2_s":{p2}}}"#)
            })
            .collect();
        let scale = format!(
            r#","scale":{{"scale_factor":1.0,"n_ccs":150,"runs":1,"seed":7,"knobs":{{}},"conflict":"indexed","records":[{}]}}"#,
            rows.join(",")
        );
        let base = doc(&[("census", "good", "Persons→Housing", 0.1)]);
        format!("{}{scale}}}", &base[..base.len() - 1])
    }

    #[test]
    fn scale_sections_compare_phase_sub_stages() {
        let dir = std::env::temp_dir().join("cextend-perf-check-phases");
        std::fs::create_dir_all(&dir).unwrap();
        let base = write(
            &dir,
            "base.json",
            &doc_with_phases(&[("dcdense", 100.0, 60.0, 40.0)]),
        );
        // Phase 1 blown >3x while the wall stays flat (Phase 2 absorbed the
        // difference): the per-stage bound catches it.
        let p1_slow = write(
            &dir,
            "p1slow.json",
            &doc_with_phases(&[("dcdense", 100.0, 190.0, 2.0)]),
        );
        let err = check(&base, &p1_slow).unwrap_err();
        assert!(err.contains("phase1_s regressed"), "{err}");
        assert!(!err.contains("wall regressed"), "{err}");
        // Phase 2 regression is caught symmetrically.
        let p2_slow = write(
            &dir,
            "p2slow.json",
            &doc_with_phases(&[("dcdense", 100.0, 2.0, 130.0)]),
        );
        let err = check(&base, &p2_slow).unwrap_err();
        assert!(err.contains("phase2_s regressed"), "{err}");
        // Within bounds on every stage: passes.
        let ok = write(
            &dir,
            "ok.json",
            &doc_with_phases(&[("dcdense", 120.0, 80.0, 40.0)]),
        );
        check(&base, &ok).unwrap();
        // Phases absent on one side (pre-phase baseline): only the wall
        // compares, so the mixed pair passes at flat wall.
        let gib = 1u64 << 30;
        let no_phases = write(
            &dir,
            "nophases.json",
            &doc_with_scale(1.0, &[("dcdense", 100.0, Some(gib))]),
        );
        check(&no_phases, &p1_slow).unwrap();
        check(&base, &no_phases).unwrap();
    }

    /// Like [`doc_with_phases`] but with the Phase II sub-stage fields:
    /// `(workload, wall_s, conflict_s, coloring_s, invalid_s)`.
    fn doc_with_substages(scale_records: &[(&str, f64, f64, f64, f64)]) -> String {
        let rows: Vec<String> = scale_records
            .iter()
            .map(|(w, wall, cf, co, inv)| {
                format!(
                    r#"{{"workload":"{w}","wall_s":{wall},"conflict_s":{cf},"coloring_s":{co},"invalid_s":{inv}}}"#
                )
            })
            .collect();
        let scale = format!(
            r#","scale":{{"scale_factor":1.0,"n_ccs":150,"runs":1,"seed":7,"knobs":{{}},"conflict":"indexed","records":[{}]}}"#,
            rows.join(",")
        );
        let base = doc(&[("census", "good", "Persons→Housing", 0.1)]);
        format!("{}{scale}}}", &base[..base.len() - 1])
    }

    #[test]
    fn scale_sections_compare_phase2_sub_stages() {
        let dir = std::env::temp_dir().join("cextend-perf-check-substages");
        std::fs::create_dir_all(&dir).unwrap();
        let base = write(
            &dir,
            "base.json",
            &doc_with_substages(&[("census", 100.0, 30.0, 20.0, 1.0)]),
        );
        // Each sub-stage trips its own bound even at a flat wall.
        for (name, rec) in [
            ("conflict_s", ("census", 100.0, 95.0, 2.0, 1.0)),
            ("coloring_s", ("census", 100.0, 30.0, 65.0, 1.0)),
            ("invalid_s", ("census", 100.0, 30.0, 20.0, 48.0)),
        ] {
            let slow = write(&dir, &format!("{name}.json"), &doc_with_substages(&[rec]));
            let err = check(&base, &slow).unwrap_err();
            assert!(err.contains(&format!("{name} regressed")), "{name}: {err}");
            assert!(!err.contains("wall regressed"), "{err}");
        }
        // Sub-second invalid handling sits under the noise floor on both
        // sides at small scale; the clamp keeps jitter from tripping it.
        let ok = write(
            &dir,
            "ok.json",
            &doc_with_substages(&[("census", 110.0, 50.0, 35.0, 0.004)]),
        );
        check(&base, &ok).unwrap();
        // Sub-stages absent on one side (older section): only the fields
        // both sides carry compare.
        let plain = write(
            &dir,
            "plain.json",
            &doc_with_phases(&[("census", 100.0, 60.0, 40.0)]),
        );
        check(&base, &plain).unwrap();
        check(&plain, &base).unwrap();
    }

    #[test]
    fn retired_builder_labels_are_ignored() {
        let dir = std::env::temp_dir().join("cextend-perf-check-labels");
        std::fs::create_dir_all(&dir).unwrap();
        let records = [("census", "good", "Persons→Housing", 0.1)];
        // Committed documents still carry the `conflict`/`dcplan` labels
        // of the retired builder knobs, and scale sections the `phase1`
        // label of the retired parallelism switch; they must compare
        // cleanly against fresh documents without them, whatever they say.
        let labelled = doc(&records).replace(
            r#""runs":1,"#,
            r#""runs":1,"conflict":"naive","dcplan":"static","#,
        );
        let scale = doc_with_scale(1.0, &[("census", 100.0, Some(1 << 30))]);
        let scale_labelled = scale.replace(
            r#""conflict":"indexed","#,
            r#""conflict":"indexed","dcplan":"cost","phase1":"parallel","meta":{"pool_width":1},"#,
        );
        assert_ne!(scale, scale_labelled);
        for (old, new) in [(labelled, doc(&records)), (scale_labelled, scale)] {
            let base = write(&dir, "base.json", &old);
            let fresh = write(&dir, "fresh.json", &new);
            check(&base, &fresh).unwrap();
            check(&fresh, &base).unwrap();
        }
    }

    #[test]
    fn scale_sections_skip_when_absent_or_incomparable() {
        let dir = std::env::temp_dir().join("cextend-perf-check-scale-skip");
        std::fs::create_dir_all(&dir).unwrap();
        let gib = 1u64 << 30;
        let committed = write(
            &dir,
            "committed.json",
            &doc_with_scale(1.0, &[("census", 100.0, Some(4 * gib))]),
        );
        // The CI shape: the committed section is a 100% run, the smoke ran
        // at 10% — incomparable parameters skip the section, not fail it,
        // even with a 10x "regression" in the records.
        let smoke = write(
            &dir,
            "smoke.json",
            &doc_with_scale(0.1, &[("census", 1000.0, Some(8 * gib))]),
        );
        check(&committed, &smoke).unwrap();
        // No section at all on either side: also a skip.
        let plain = write(
            &dir,
            "plain.json",
            &doc(&[("census", "good", "Persons→Housing", 0.1)]),
        );
        check(&committed, &plain).unwrap();
        check(&plain, &smoke).unwrap();
        // RSS absent on one side (non-Linux runner): wall still compared.
        let no_rss = write(
            &dir,
            "norss.json",
            &doc_with_scale(1.0, &[("census", 400.0, None)]),
        );
        let err = check(&committed, &no_rss).unwrap_err();
        assert!(err.contains("wall regressed"), "{err}");
        assert!(!err.contains("peak RSS"), "{err}");
    }

    #[test]
    fn check_reads_pre_chain_baselines_without_step_fields() {
        let dir = std::env::temp_dir().join("cextend-perf-check-v1");
        std::fs::create_dir_all(&dir).unwrap();
        let base = write(
            &dir,
            "base.json",
            r#"{"schema_version":1,"scale_factor":0.005,"n_ccs":15,"runs":1,"records":[{"workload":"census","family":"good","wall_s":0.1}]}"#,
        );
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(&[("census", "good", "Persons→Housing", 0.1)]),
        );
        // The v1 record keys under an empty step, so it reads cleanly but
        // counts as disappeared — exactly the signal to regenerate.
        let err = check(&base, &fresh).unwrap_err();
        assert!(err.contains("disappeared"), "{err}");
    }
}
