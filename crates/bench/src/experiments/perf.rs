//! The perf-baseline smoke and its regression guard.
//!
//! `perf` times the full FK-completion chain on **every registered
//! workload** (both CC families, one record per completion step) at small
//! scale and writes the timings as the `perf` section of `BENCH_perf.json`,
//! seeding the bench trajectory that CI uploads as an artifact on every
//! run. Unlike the figure experiments this sweep ignores `--workload`: its
//! whole point is a cross-workload baseline.
//!
//! The per-step records solve at `--workers` and carry every stage of the
//! run. Besides them, `perf` times every multi-step workload's chain at
//! **1 worker and at `--workers`** (one `sched-L<k>-serial|parallel`
//! record per scheduler level and arm, wall = min over runs — see
//! `super::sched`). The section and its `BENCH_history.jsonl` line go
//! through [`super::record::save`], which keeps any `scale` section already
//! in the document.
//!
//! `perf-check` reads a freshly written `BENCH_perf.json` back and compares
//! it, section by section, against the committed baseline (see [`check`]).
//! Every failure is collected and reported before the check exits
//! non-zero, so one red record cannot hide the rest in CI logs.

use super::record::{save, Document, Kind, Record};
use crate::harness::{fmt_s, run_chain_averaged, ExperimentOpts, Table};
use cextend_obs::narrate;
use cextend_workloads::{all_workloads, DcSet};
use std::collections::BTreeMap;
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

/// Runs the perf baseline and saves its section (into `--out` when set,
/// else the working directory).
pub fn run(opts: &ExperimentOpts) -> Result<(), String> {
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
                let record = Record {
                    family: Some(family.label().to_owned()),
                    step: Some(step.step.clone()),
                    ..Record::solved(meta.name, (step.n_r1, step.n_r2, step.n_ccs), r)
                };
                table.push(row(&record, step.step.clone()));
                records.push(record);
            }
        }
    }
    // Scheduler comparison: one record per (multi-step workload, arm,
    // level), wall = min over runs so the serial-vs-parallel signal
    // survives scheduling jitter. The sweep asserts both arms produce
    // bit-identical relations before any timing is recorded.
    for t in super::sched::sweep_all(opts) {
        let step = format!("sched-L{}-{}", t.level, t.mode);
        let record = Record {
            workload: t.workload,
            family: Some("good".to_owned()),
            step: Some(step.clone()),
            n_r1: t.n_r1,
            n_r2: t.n_r2,
            n_ccs: t.n_ccs,
            phase1_s: t.phase1_s,
            phase2_s: t.phase2_s,
            wall_s: t.wall_s,
            cc_median: t.cc_median,
            dc_error: t.dc_error,
            ..Record::default()
        };
        table.push(row(
            &record,
            format!("{step} [{}]", t.step_labels.join(" + ")),
        ));
        records.push(record);
    }
    println!("{}", table.render());

    let spec = opts.workload.clone();
    save(
        opts,
        Kind::Perf,
        spec.starts_with("spec:").then_some(spec),
        records,
    )
}

/// The table row of a perf record, its step shown as `step`.
fn row(r: &Record, step: String) -> Vec<String> {
    vec![
        r.workload.clone(),
        r.family.clone().unwrap_or_default(),
        step,
        r.n_r1.to_string(),
        r.n_r2.to_string(),
        fmt_s(r.phase1_s),
        fmt_s(r.phase2_s),
        fmt_s(r.wall_s),
        format!("{:.3}", r.cc_median),
        format!("{:.3}", r.dc_error),
    ]
}

/// A unit of gated values: its growth bound, its noise floor and how its
/// failure line prints.
#[derive(Clone, Copy)]
enum Unit {
    Seconds,
    Bytes,
}

impl Unit {
    /// The failure text when `now` grew past the bound over `base`.
    fn regression(self, base: f64, now: f64) -> Option<String> {
        let (factor, floor) = match self {
            Unit::Seconds => (REGRESSION_FACTOR, NOISE_FLOOR_S),
            Unit::Bytes => (RSS_REGRESSION_FACTOR, RSS_NOISE_FLOOR_BYTES),
        };
        let (b, n) = (base.max(floor), now.max(floor));
        (n > factor * b).then(|| match self {
            Unit::Seconds => format!("regressed {:.1}×: {} → {}", n / b, fmt_s(base), fmt_s(now)),
            Unit::Bytes => {
                let mib = 1024.0 * 1024.0;
                format!(
                    "regressed {:.2}×: {:.0}MB → {:.0}MB",
                    n / b,
                    base / mib,
                    now / mib
                )
            }
        })
    }
}

/// One gated field: its name as failure lines print it after the record
/// (with a leading space; empty for a perf record's one field), its reader
/// and its unit.
type Gate = (&'static str, fn(&Record) -> Option<f64>, Unit);

/// How `perf-check` compares one kind of section.
struct Policy {
    /// Names a record in failure lines.
    noun: &'static str,
    /// A parameter mismatch or a missing section fails the check; a
    /// lenient kind skips the section with a note instead.
    strict: bool,
    /// The gated fields.
    gates: &'static [Gate],
}

const PERF: Policy = Policy {
    noun: "record",
    strict: true,
    gates: &[("", |r| Some(r.wall_s), Unit::Seconds)],
};

/// The committed scale section is a 100%-scale run while CI's smoke
/// writes a 10% one; gating on that difference would make the smoke
/// permanently red, so scale sections compare only at equal parameters.
/// Per-stage bounds sit beside the wall: a stage that regresses inside an
/// otherwise flat wall still fails.
const SCALE: Policy = Policy {
    noun: "scale record",
    strict: false,
    gates: &[
        (" wall", |r| Some(r.wall_s), Unit::Seconds),
        (" phase1_s", |r| Some(r.phase1_s), Unit::Seconds),
        (" phase2_s", |r| Some(r.phase2_s), Unit::Seconds),
        (" conflict_s", |r| r.conflict_s, Unit::Seconds),
        (" coloring_s", |r| r.coloring_s, Unit::Seconds),
        (" invalid_s", |r| r.invalid_s, Unit::Seconds),
        (
            " peak RSS",
            |r| r.peak_rss_bytes.map(|b| b as f64),
            Unit::Bytes,
        ),
    ],
};

fn policy(kind: Kind) -> &'static Policy {
    match kind {
        Kind::Perf => &PERF,
        Kind::Scale => &SCALE,
    }
}

/// Compares a fresh `BENCH_perf.json` against the committed baseline, one
/// section kind at a time.
///
/// Two sections compare only when their run parameters (`scale_factor`,
/// `n_ccs`, `runs`, `seed`, `knobs`) are equal: otherwise the guard would
/// compare apples to oranges (silently dead when the baseline is heavier,
/// spuriously red when it is lighter). For the perf section a mismatch, or
/// a document without the section, fails; a scale section is skipped with
/// a note instead. Given matching parameters, every baseline record must
/// still be in the fresh section — a record that disappeared is lost
/// coverage and fails, a new record passes — and each of its gated fields
/// may grow at most [`REGRESSION_FACTOR`]× for times, after clamping both
/// sides up to [`NOISE_FLOOR_S`] (sub-millisecond solves jitter far more
/// than 3× between CI machines), and [`RSS_REGRESSION_FACTOR`]× for peak
/// RSS over [`RSS_NOISE_FLOOR_BYTES`]. Perf records gate `wall_s`; scale
/// records gate `wall_s`, `phase1_s`, `phase2_s`, `conflict_s`,
/// `coloring_s`, `invalid_s` and, when both sides measured it, peak RSS.
pub fn check(baseline_path: &Path, fresh_path: &Path) -> Result<(), String> {
    let docs = [
        (Document::read(baseline_path)?, baseline_path),
        (Document::read(fresh_path)?, fresh_path),
    ];
    let mut failures = Vec::new();
    for kind in Kind::ALL {
        let (name, policy) = (kind.name(), policy(kind));
        let (Some(base), Some(fresh)) = (docs[0].0.section(kind), docs[1].0.section(kind)) else {
            if policy.strict {
                for (doc, path) in &docs {
                    if doc.section(kind).is_none() {
                        failures.push(format!("`{}` has no {name} section", path.display()));
                    }
                }
            } else {
                narrate!(
                    "[perf-check: no {name} section in both documents — {name} records skipped]"
                );
            }
            continue;
        };
        let mismatches: Vec<String> = base
            .params
            .rendered()
            .into_iter()
            .zip(fresh.params.rendered())
            .filter(|((_, b), (_, f))| b != f)
            .map(|((param, b), (_, f))| {
                format!(
                    "parameter mismatch: `{param}` is {b} in {} but {f} in {} \
                     — regenerate the committed baseline with the flags CI runs `perf` with",
                    baseline_path.display(),
                    fresh_path.display(),
                )
            })
            .collect();
        if !mismatches.is_empty() {
            if policy.strict {
                failures.extend(mismatches);
            } else {
                // Expected whenever the committed 100%-scale section meets a
                // CI smoke run at a lighter factor.
                narrate!(
                    "[perf-check: {name} sections ran at different parameters — \
                     {name} records skipped]"
                );
            }
            continue;
        }
        let fresh_records: BTreeMap<String, &Record> =
            fresh.records.iter().map(|r| (r.key(), r)).collect();
        for old in &base.records {
            let key = old.key();
            let Some(new) = fresh_records.get(&key) else {
                failures.push(format!(
                    "{} `{key}` disappeared from the fresh run",
                    policy.noun
                ));
                continue;
            };
            for &(field, get, unit) in policy.gates {
                let (Some(b), Some(n)) = (get(old), get(new)) else {
                    continue;
                };
                if let Some(why) = unit.regression(b, n) {
                    failures.push(format!("{} `{key}`{field} {why}", policy.noun));
                }
            }
        }
        narrate!(
            "[perf-check: {} {name} records compared against {}]",
            base.records.len(),
            baseline_path.display()
        );
    }
    if failures.is_empty() {
        narrate!("[perf-check ok against {}]", baseline_path.display());
        Ok(())
    } else {
        Err(format!(
            "perf-check failed against {}:\n  {}",
            baseline_path.display(),
            failures.join("\n  ")
        ))
    }
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
    use crate::experiments::record::{Params, Section, SCHEMA_VERSION};
    use crate::harness::RunMeta;

    /// A section of `kind` at `scale_factor` (perf sweeps take 15 CCs,
    /// scale runs 150).
    fn section(kind: Kind, scale_factor: f64, records: Vec<Record>) -> Section {
        Section {
            kind,
            params: Params {
                scale_factor,
                n_ccs: if kind == Kind::Perf { 15 } else { 150 },
                runs: 1,
                seed: 7,
                knobs: BTreeMap::new(),
            },
            workload: None,
            meta: RunMeta {
                git_commit: None,
                workers: 1,
            },
            records,
        }
    }

    fn perf_at(scale_factor: f64, records: &[(&str, &str, &str, f64)]) -> Section {
        let records = records
            .iter()
            .map(|&(w, f, s, wall)| Record {
                workload: w.to_owned(),
                family: Some(f.to_owned()),
                step: Some(s.to_owned()),
                wall_s: wall,
                ..Record::default()
            })
            .collect();
        section(Kind::Perf, scale_factor, records)
    }

    fn perf(records: &[(&str, &str, &str, f64)]) -> Section {
        perf_at(0.005, records)
    }

    /// A scale record with the given wall and peak RSS, every stage 0.
    fn scale_record(workload: &str, wall: f64, rss: Option<u64>) -> Record {
        Record {
            workload: workload.to_owned(),
            scale: Some(1.0),
            knobs: Some(BTreeMap::new()),
            hasse_s: Some(0.0),
            repair_s: Some(0.0),
            leftovers_s: Some(0.0),
            random_s: Some(0.0),
            conflict_s: Some(0.0),
            coloring_s: Some(0.0),
            invalid_s: Some(0.0),
            wall_s: wall,
            relation_heap_bytes: Some(0),
            peak_rss_bytes: rss,
            ..Record::default()
        }
    }

    /// The perf section of [`perf`] plus a scale section at
    /// `section_factor` holding `records`.
    fn with_scale(section_factor: f64, records: Vec<Record>) -> Vec<Section> {
        vec![
            perf(&[("census", "good", "Persons→Housing", 0.1)]),
            section(Kind::Scale, section_factor, records),
        ]
    }

    fn doc(sections: Vec<Section>) -> String {
        serde_json::to_string(&Document {
            schema_version: SCHEMA_VERSION,
            sections,
        })
        .unwrap()
    }

    fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn check_passes_within_factor_and_allows_new_records() {
        let dir = test_dir("cextend-perf-check-ok");
        let base = write(
            &dir,
            "base.json",
            &doc(vec![perf(&[("census", "good", "Persons→Housing", 0.1)])]),
        );
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(vec![perf(&[
                ("census", "good", "Persons→Housing", 0.25),
                ("supply", "bad", "Stores→Regions", 9.0),
            ])]),
        );
        check(&base, &fresh).unwrap();
    }

    #[test]
    fn check_fails_on_regression_and_missing_records() {
        let dir = test_dir("cextend-perf-check-bad");
        let base = write(
            &dir,
            "base.json",
            &doc(vec![perf(&[
                ("census", "good", "Persons→Housing", 0.1),
                ("retail", "bad", "Orders→Customers", 0.1),
            ])]),
        );
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(vec![perf(&[("census", "good", "Persons→Housing", 0.5)])]),
        );
        let err = check(&base, &fresh).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        assert!(err.contains("disappeared"), "{err}");
    }

    #[test]
    fn check_rejects_mismatched_run_parameters() {
        let dir = test_dir("cextend-perf-check-params");
        let records = [("census", "good", "Persons→Housing", 0.1)];
        let base = write(&dir, "base.json", &doc(vec![perf_at(0.02, &records)]));
        let fresh = write(&dir, "fresh.json", &doc(vec![perf_at(0.005, &records)]));
        let err = check(&base, &fresh).unwrap_err();
        assert!(err.contains("parameter mismatch"), "{err}");
        assert!(err.contains("scale_factor"), "{err}");

        // Knob overrides reshape the data, so they gate comparability too.
        let mut with_knobs = perf(&records);
        with_knobs.params.knobs.insert("regions".to_owned(), 100);
        let base = write(&dir, "base-knobs.json", &doc(vec![with_knobs]));
        let fresh = write(&dir, "fresh-knobs.json", &doc(vec![perf(&records)]));
        let err = check(&base, &fresh).unwrap_err();
        assert!(err.contains("knobs"), "{err}");
    }

    #[test]
    fn check_reports_every_failure_not_just_the_first() {
        let dir = test_dir("cextend-perf-check-all");
        let base = write(
            &dir,
            "base.json",
            &doc(vec![perf(&[
                ("census", "good", "Persons→Housing", 0.1),
                ("retail", "bad", "Orders→Customers", 0.1),
                ("supply", "good", "Orders→Stores", 0.1),
            ])]),
        );
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(vec![perf(&[
                ("census", "good", "Persons→Housing", 0.9),
                ("retail", "bad", "Orders→Customers", 0.9),
            ])]),
        );
        let err = check(&base, &fresh).unwrap_err();
        // Both regressions *and* the disappearance appear in one report.
        assert!(err.contains("census/good"), "{err}");
        assert!(err.contains("retail/bad"), "{err}");
        assert!(err.contains("disappeared"), "{err}");
        assert_eq!(err.matches("regressed").count(), 2, "{err}");

        // Parameter mismatches are also all reported at once.
        let mut other = perf_at(0.02, &[("census", "good", "Persons→Housing", 0.1)]);
        other.params.n_ccs = 99;
        let other = write(&dir, "other.json", &doc(vec![other]));
        let err = check(&other, &fresh).unwrap_err();
        assert!(err.contains("scale_factor"), "{err}");
        assert!(err.contains("n_ccs"), "{err}");
    }

    #[test]
    fn spec_workload_label_does_not_gate_comparability() {
        let dir = test_dir("cextend-perf-check-speclabel");
        let records = [("spec:supply", "good", "Orders→Stores", 0.1)];
        // A baseline stamped with the `workload` pass-through label must
        // stay comparable to a fresh run without one (and vice versa) —
        // the label identifies spec-driven records, it is not a parameter.
        let mut with_label = perf(&records);
        with_label.workload = Some("spec:specs/supply.spec".to_owned());
        let base = write(&dir, "base.json", &doc(vec![with_label]));
        let fresh = write(&dir, "fresh.json", &doc(vec![perf(&records)]));
        check(&base, &fresh).unwrap();
        check(&fresh, &base).unwrap();
    }

    #[test]
    fn history_file_is_ignored_by_the_guard() {
        let dir = test_dir("cextend-perf-check-history");
        let records = [("census", "good", "Persons→Housing", 0.1)];
        let base = write(&dir, "base.json", &doc(vec![perf(&records)]));
        let fresh = write(&dir, "BENCH_perf.json", &doc(vec![perf(&records)]));
        // A (even malformed) history file next to the fresh baseline must
        // not affect the guard — it only ever reads BENCH_perf.json.
        write(&dir, "BENCH_history.jsonl", "not json at all\n{broken");
        check(&base, &fresh).unwrap();
    }

    #[test]
    fn check_tolerates_sub_noise_floor_jitter() {
        let dir = test_dir("cextend-perf-check-noise");
        let base = write(
            &dir,
            "base.json",
            &doc(vec![perf(&[("census", "good", "Persons→Housing", 0.0004)])]),
        );
        // 10× worse in absolute terms, but still under the noise floor.
        let fresh = write(
            &dir,
            "fresh.json",
            &doc(vec![perf(&[("census", "good", "Persons→Housing", 0.004)])]),
        );
        check(&base, &fresh).unwrap();
    }

    #[test]
    fn scale_sections_compare_walls_and_rss_when_parameters_match() {
        let dir = test_dir("cextend-perf-check-scale");
        let gib = 1u64 << 30;
        let at = |wall, rss| doc(with_scale(1.0, vec![scale_record("census", wall, rss)]));
        let base = write(&dir, "base.json", &at(100.0, Some(4 * gib)));
        // Within both bounds: passes.
        let ok = write(&dir, "ok.json", &at(150.0, Some(5 * gib)));
        check(&base, &ok).unwrap();
        // Wall blown (>3x).
        let slow = write(&dir, "slow.json", &at(400.0, Some(4 * gib)));
        let err = check(&base, &slow).unwrap_err();
        assert!(err.contains("wall regressed"), "{err}");
        // RSS blown (>1.5x) at unchanged wall.
        let fat = write(&dir, "fat.json", &at(100.0, Some(7 * gib)));
        let err = check(&base, &fat).unwrap_err();
        assert!(err.contains("peak RSS regressed"), "{err}");
        // Disappeared scale workload fails.
        let empty = write(&dir, "empty.json", &doc(with_scale(1.0, Vec::new())));
        let err = check(&base, &empty).unwrap_err();
        assert!(err.contains("scale record `census` disappeared"), "{err}");
    }

    /// A document whose scale section holds one record per
    /// `(workload, wall_s, phase1_s, phase2_s)`.
    fn doc_with_phases(records: &[(&str, f64, f64, f64)]) -> String {
        let records = records
            .iter()
            .map(|&(w, wall, p1, p2)| Record {
                phase1_s: p1,
                phase2_s: p2,
                ..scale_record(w, wall, None)
            })
            .collect();
        doc(with_scale(1.0, records))
    }

    #[test]
    fn scale_sections_compare_phase_sub_stages() {
        let dir = test_dir("cextend-perf-check-phases");
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
    }

    /// A document whose scale section holds one record per
    /// `(workload, wall_s, conflict_s, coloring_s, invalid_s)`.
    fn doc_with_substages(records: &[(&str, f64, f64, f64, f64)]) -> String {
        let records = records
            .iter()
            .map(|&(w, wall, cf, co, inv)| Record {
                conflict_s: Some(cf),
                coloring_s: Some(co),
                invalid_s: Some(inv),
                ..scale_record(w, wall, None)
            })
            .collect();
        doc(with_scale(1.0, records))
    }

    #[test]
    fn scale_sections_compare_phase2_sub_stages() {
        let dir = test_dir("cextend-perf-check-substages");
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
    }

    #[test]
    fn retired_builder_labels_are_ignored() {
        let dir = test_dir("cextend-perf-check-labels");
        // Documents written before the builder knobs and the parallelism
        // switch retired carried `conflict`/`dcplan`/`phase1` labels; the
        // reader ignores keys it does not know, so a document with them
        // compares cleanly against one without them, whatever they say.
        let clean = doc(with_scale(
            1.0,
            vec![scale_record("census", 100.0, Some(1 << 30))],
        ));
        let labelled = clean
            .replacen(
                r#""kind":"perf","#,
                r#""kind":"perf","conflict":"naive","dcplan":"static","#,
                1,
            )
            .replacen(
                r#""kind":"scale","#,
                r#""kind":"scale","conflict":"indexed","dcplan":"cost","phase1":"parallel","#,
                1,
            );
        assert_eq!(labelled.matches("dcplan").count(), 2);
        let base = write(&dir, "base.json", &labelled);
        let fresh = write(&dir, "fresh.json", &clean);
        check(&base, &fresh).unwrap();
        check(&fresh, &base).unwrap();
    }

    #[test]
    fn scale_sections_skip_when_absent_or_incomparable() {
        let dir = test_dir("cextend-perf-check-scale-skip");
        let gib = 1u64 << 30;
        let committed = write(
            &dir,
            "committed.json",
            &doc(with_scale(
                1.0,
                vec![scale_record("census", 100.0, Some(4 * gib))],
            )),
        );
        // The CI shape: the committed section is a 100% run, the smoke ran
        // at 10% — incomparable parameters skip the section, not fail it,
        // even with a 10x "regression" in the records.
        let smoke = write(
            &dir,
            "smoke.json",
            &doc(with_scale(
                0.1,
                vec![scale_record("census", 1000.0, Some(8 * gib))],
            )),
        );
        check(&committed, &smoke).unwrap();
        // No section at all on either side: also a skip.
        let plain = write(
            &dir,
            "plain.json",
            &doc(vec![perf(&[("census", "good", "Persons→Housing", 0.1)])]),
        );
        check(&committed, &plain).unwrap();
        check(&plain, &smoke).unwrap();
        // RSS absent on one side (non-Linux runner): wall still compared.
        let no_rss = write(
            &dir,
            "norss.json",
            &doc(with_scale(1.0, vec![scale_record("census", 400.0, None)])),
        );
        let err = check(&committed, &no_rss).unwrap_err();
        assert!(err.contains("wall regressed"), "{err}");
        assert!(!err.contains("peak RSS"), "{err}");
    }

    #[test]
    fn a_document_without_a_perf_section_fails() {
        let dir = test_dir("cextend-perf-check-no-perf");
        let base = write(
            &dir,
            "base.json",
            &doc(vec![perf(&[("census", "good", "Persons→Housing", 0.1)])]),
        );
        let scale_only = write(&dir, "scale-only.json", &doc(Vec::new()));
        let err = check(&base, &scale_only).unwrap_err();
        assert!(
            err.contains("scale-only.json` has no perf section"),
            "{err}"
        );
    }
}
