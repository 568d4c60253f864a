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
//! - a `scale` section **merged into** `<out>/BENCH_perf.json` — run `perf`
//!   first; `perf-check` compares the section's wall and peak-RSS numbers
//!   against the committed baseline when both ran at the same parameters
//!   (and skips the section otherwise, so a 10% CI smoke never gates
//!   against the committed 100% records);
//! - one `"kind":"scale"` line appended to `BENCH_history.jsonl`
//!   (`perf-trend` shows perf lines only and notes how many scale lines it
//!   skipped).
//!
//! CI budget asserts: when `CEXTEND_SCALE_MAX_WALL_S` /
//! `CEXTEND_SCALE_MAX_RSS_MB` are set, every record must come in under
//! them or the driver fails — the `scale-smoke` CI step pins both.

use crate::harness::{fmt_s, run_averaged, run_meta, ExperimentOpts, RunMeta, Table};
use cextend_obs::narrate;
use cextend_table::{peak_rss_bytes, reset_peak_rss};
use cextend_workloads::{workload_by_name, CcFamily, DcSet, WorkloadParams};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

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

/// One scenario's committed record: sizes, wall split and peak memory.
#[derive(Debug, Serialize)]
pub struct ScaleRecord {
    /// Workload name.
    pub workload: String,
    /// Effective generator scale (`full_scale × scale_factor`).
    pub scale: f64,
    /// Knobs the scenario resolved to (scenario defaults + CLI overrides).
    pub knobs: BTreeMap<String, i64>,
    /// `R1` rows generated.
    pub n_r1: usize,
    /// `R2` rows generated.
    pub n_r2: usize,
    /// CC-set size.
    pub n_ccs: usize,
    /// Phase I seconds (averaged over `runs`).
    pub phase1_s: f64,
    /// Algorithm 2 (Hasse recursion) seconds — Phase I sub-stage.
    pub hasse_s: f64,
    /// Local-search repair seconds — Phase I sub-stage.
    pub repair_s: f64,
    /// Leftover-completion seconds — Phase I sub-stage.
    pub leftovers_s: f64,
    /// Baseline random-completion seconds — Phase I sub-stage.
    pub random_s: f64,
    /// Phase II seconds.
    pub phase2_s: f64,
    /// Conflict-graph construction seconds — Phase II sub-stage.
    pub conflict_s: f64,
    /// Weighted-coloring seconds (pure coloring, no graph build) — Phase II
    /// sub-stage.
    pub coloring_s: f64,
    /// Invalid-tuple handling seconds — Phase II sub-stage.
    pub invalid_s: f64,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Median relative CC error.
    pub cc_median: f64,
    /// DC error (must be 0.0).
    pub dc_error: f64,
    /// Generated-relation column-buffer bytes (engine accounting).
    pub relation_heap_bytes: usize,
    /// Process peak RSS over *this scenario only*, when the platform
    /// exposes it: the high-water mark is reset (`clear_refs`, see
    /// [`reset_peak_rss`]) before each scenario's generate+solve, so the
    /// value is per-workload rather than "peak up to and including this
    /// scenario". Records written by drivers before schema note v2.1 carry
    /// the old monotone semantics; on platforms where the reset is
    /// unavailable the value degrades back to monotone.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub peak_rss_bytes: Option<u64>,
}

/// The `scale` section of `BENCH_perf.json`: run parameters (the
/// comparability gate, mirroring the perf sweep's) plus one record per
/// scenario.
#[derive(Debug, Serialize)]
pub struct ScaleSection {
    /// Scale factor applied to each scenario's `full_scale` (1.0 = paper
    /// scale).
    pub scale_factor: f64,
    /// CC-set size requested.
    pub n_ccs: usize,
    /// Runs averaged per record.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// CLI-provided knob overrides.
    pub knobs: BTreeMap<String, i64>,
    /// Build and worker-width provenance. Not a comparability gate: every
    /// width is bit-identical, only scheduling differs — see [`RunMeta`].
    pub meta: RunMeta,
    /// One record per scenario.
    pub records: Vec<ScaleRecord>,
}

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
        records.push(ScaleRecord {
            workload: meta.name.to_owned(),
            scale,
            knobs,
            n_r1: data.n_r1(),
            n_r2: data.n_r2(),
            n_ccs: ccs.len(),
            phase1_s: result.phase1_s,
            hasse_s: result.recursion_s,
            repair_s: result.repair_s,
            leftovers_s: result.leftovers_s,
            random_s: result.random_s,
            phase2_s: result.phase2_s,
            conflict_s: result.conflict_s,
            coloring_s: result.color_s,
            invalid_s: result.invalid_s,
            wall_s: result.wall_s,
            cc_median: result.cc_median,
            dc_error: result.dc_error,
            relation_heap_bytes: heap,
            peak_rss_bytes: peak,
        });
    }
    table.emit(opts);

    let section = ScaleSection {
        scale_factor: opts.scale_factor,
        n_ccs: opts.n_ccs,
        runs: opts.runs,
        seed: opts.seed,
        knobs: opts.knobs.clone(),
        meta: run_meta(opts.workers),
        records,
    };
    let dir = opts
        .out_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create output dir: {e}"))?;
    let perf_path = dir.join("BENCH_perf.json");
    merge_section(&perf_path, &section)?;
    narrate!("[scale section merged into {}]", perf_path.display());
    let history = dir.join("BENCH_history.jsonl");
    append_history(&history, opts, &section)?;
    narrate!("[scale history appended to {}]\n", history.display());

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

/// Writes (or replaces) the `scale` key of `<path>` in place, preserving
/// every other field of the perf document. When the file doesn't exist yet
/// (running `scale` before `perf`), a scale-only stub is written — the
/// perf sweep overwrites it wholesale, so run `perf` first to keep both.
fn merge_section(path: &Path, section: &ScaleSection) -> Result<(), String> {
    let section_value: serde::Value =
        serde_json::from_str(&serde_json::to_string(section).expect("serialize scale section"))
            .expect("round-trip scale section");
    let mut top: Vec<(String, serde::Value)> = match std::fs::read_to_string(path) {
        Err(_) => {
            narrate!(
                "[note: `{}` does not exist yet — writing a scale-only stub; \
                 run `experiments -- perf` first to keep perf records too]",
                path.display()
            );
            vec![("schema_version".to_owned(), serde::Value::Int(2))]
        }
        Ok(text) => match serde_json::from_str(&text) {
            Ok(serde::Value::Object(obj)) => obj,
            _ => {
                return Err(format!(
                    "`{}` is not a JSON object — regenerate it with `experiments -- perf`",
                    path.display()
                ))
            }
        },
    };
    match top.iter_mut().find(|(k, _)| k == "scale") {
        Some((_, v)) => *v = section_value,
        None => top.push(("scale".to_owned(), section_value)),
    }
    let doc = serde_json::to_string_pretty(&serde::Value::Object(top)).expect("serialize");
    std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One `"kind":"scale"` history line: run identity plus per-scenario wall
/// and peak RSS. `perf-trend` filters these out (different parameter space
/// than the perf sweep); the line exists so the committed history carries
/// the paper-scale trajectory too.
#[derive(Debug, Serialize)]
struct ScaleHistoryRecord {
    label: String,
    stamp: String,
    schema_version: u32,
    /// Discriminator `perf-trend` skips on.
    kind: &'static str,
    scale_factor: f64,
    n_ccs: usize,
    runs: usize,
    seed: u64,
    /// Workload → wall seconds.
    walls: BTreeMap<String, f64>,
    /// Workload → peak RSS in MiB (absent entries: platform hides RSS).
    peak_rss_mb: BTreeMap<String, f64>,
}

fn append_history(
    path: &Path,
    opts: &ExperimentOpts,
    section: &ScaleSection,
) -> Result<(), String> {
    let record = ScaleHistoryRecord {
        label: opts.label.clone(),
        stamp: opts.stamp.clone(),
        schema_version: 2,
        kind: "scale",
        scale_factor: section.scale_factor,
        n_ccs: section.n_ccs,
        runs: section.runs,
        seed: section.seed,
        walls: section
            .records
            .iter()
            .map(|r| (r.workload.clone(), r.wall_s))
            .collect(),
        peak_rss_mb: section
            .records
            .iter()
            .filter_map(|r| {
                r.peak_rss_bytes
                    .map(|b| (r.workload.clone(), b as f64 / (1024.0 * 1024.0)))
            })
            .collect(),
    };
    let line = serde_json::to_string(&record).expect("serialize scale history record");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("append {}: {e}", path.display()))
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
    fn merge_preserves_existing_perf_fields() {
        let dir = std::env::temp_dir().join("cextend-scale-merge");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_perf.json");
        std::fs::write(
            &path,
            r#"{"schema_version":2,"scale_factor":0.005,"n_ccs":15,"runs":1,"seed":7,"records":[{"workload":"census","family":"good","step":"s","wall_s":0.1}]}"#,
        )
        .unwrap();
        let section = ScaleSection {
            scale_factor: 1.0,
            n_ccs: 150,
            runs: 1,
            seed: 7,
            knobs: BTreeMap::new(),
            meta: run_meta(2),
            records: vec![ScaleRecord {
                workload: "census".to_owned(),
                scale: 40.0,
                knobs: [("areas".to_owned(), 1024i64)].into_iter().collect(),
                n_r1: 1_015_686,
                n_r2: 392_800,
                n_ccs: 150,
                phase1_s: 10.0,
                hasse_s: 4.0,
                repair_s: 1.0,
                leftovers_s: 5.0,
                random_s: 0.0,
                phase2_s: 20.0,
                conflict_s: 12.0,
                coloring_s: 6.0,
                invalid_s: 0.5,
                wall_s: 31.0,
                cc_median: 0.0,
                dc_error: 0.0,
                relation_heap_bytes: 1 << 28,
                peak_rss_bytes: Some(2 << 30),
            }],
        };
        merge_section(&path, &section).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Old perf fields survive, the scale section is in.
        assert!(text.contains(r#""family""#), "{text}");
        assert!(text.contains(r#""peak_rss_bytes""#), "{text}");
        assert!(text.contains(r#""scale_factor": 0.005"#), "{text}");
        // Merging again replaces rather than duplicates the section.
        merge_section(&path, &section).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches(r#""peak_rss_bytes""#).count(), 1, "{text}");
    }

    #[test]
    fn merge_without_perf_doc_writes_a_stub() {
        let dir = std::env::temp_dir().join("cextend-scale-stub");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_perf.json");
        let _ = std::fs::remove_file(&path);
        let section = ScaleSection {
            scale_factor: 0.1,
            n_ccs: 50,
            runs: 1,
            seed: 7,
            knobs: BTreeMap::new(),
            meta: run_meta(1),
            records: Vec::new(),
        };
        merge_section(&path, &section).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""schema_version""#), "{text}");
        assert!(text.contains(r#""scale""#), "{text}");
    }

    #[test]
    fn env_budget_parses_or_errors() {
        assert_eq!(env_budget("CEXTEND_NO_SUCH_BUDGET").unwrap(), None);
    }
}
