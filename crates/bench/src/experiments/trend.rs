//! `perf-trend`: the per-record wall-time trend over the accumulated
//! `BENCH_history.jsonl` lines.
//!
//! `perf` appends one line per sweep (see [`super::record::save`]); this
//! experiment reads those lines back through [`super::record::read_history`]
//! and renders the trajectory the single overwritten `BENCH_perf.json`
//! snapshot cannot show: one row per `workload/family/step` record, one
//! column per history line (oldest first, capped at the most recent
//! [`MAX_COLUMNS`]), each cell the record's wall time plus its ratio to the
//! previous line. A markdown rendering is written to `<out>/perf_trend.md`
//! when `--out` is set — the ROADMAP's "benchmark dashboard" artifact.
//!
//! Lines whose run parameters differ from the newest line's are still shown
//! but flagged with `*` in the column header: their walls are not
//! apples-to-apples, exactly the comparability rule `perf-check` enforces.
//!
//! `"kind":"scale"` lines (appended by `experiments -- scale`) live in a
//! different parameter space than the perf sweep — showing them here would
//! make the newest scale line the comparability anchor and star every perf
//! column — so they are skipped with a printed count.

use super::record::{read_history, HistoryLine, Kind};
use crate::harness::{fmt_s, ExperimentOpts, Table};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Most recent history lines shown (older lines are summarized away).
pub const MAX_COLUMNS: usize = 6;

/// Reads the perf history lines, returning `(lines, scale_lines_skipped)`.
fn perf_lines(path: &Path) -> Result<(Vec<HistoryLine>, usize), String> {
    let (lines, scale): (Vec<HistoryLine>, Vec<HistoryLine>) = read_history(path)?
        .into_iter()
        .partition(|l| l.kind == Kind::Perf);
    let scale_skipped = scale.len();
    if lines.is_empty() {
        return Err(format!(
            "history `{}` has no perf lines — run `experiments -- perf` first",
            path.display()
        ));
    }
    Ok((lines, scale_skipped))
}

/// The trend matrix: record keys × (shown) history lines, cells rendered
/// as `wall (×ratio-to-previous-shown-line)`.
fn render_rows(lines: &[HistoryLine]) -> (Vec<String>, Vec<Vec<String>>) {
    let newest_params = &lines[lines.len() - 1].params;
    let shown = &lines[lines.len().saturating_sub(MAX_COLUMNS)..];
    let headers: Vec<String> = std::iter::once("Record".to_owned())
        .chain(shown.iter().map(|l| {
            format!(
                "{}@{}{}{}",
                l.label,
                l.stamp,
                l.workload
                    .as_ref()
                    .map(|w| format!(" ({w})"))
                    .unwrap_or_default(),
                if l.params == *newest_params { "" } else { "*" }
            )
        }))
        .collect();
    let keys: BTreeSet<&String> = shown.iter().flat_map(|l| l.walls.keys()).collect();
    let rows = keys
        .iter()
        .map(|&key| {
            let mut row = vec![key.clone()];
            let mut prev: Option<f64> = None;
            for l in shown {
                row.push(match l.walls.get(key) {
                    None => "-".to_owned(),
                    Some(&w) => {
                        let cell = match prev {
                            Some(p) if p > 0.0 => format!("{} (x{:.2})", fmt_s(w), w / p),
                            _ => fmt_s(w),
                        };
                        prev = Some(w);
                        cell
                    }
                });
            }
            row
        })
        .collect();
    (headers, rows)
}

/// Records whose wall time rose over the **last ≥2 consecutive deltas**
/// between comparable shown lines — the "creeping regression" signal a
/// single 3× `perf-check` bound misses. Only lines with the newest line's
/// parameters participate (a starred column's wall says nothing about a
/// trend); lines missing the record are skipped, not streak-breaking.
/// Each entry renders as `key (+P% over N lines)`.
fn rising_records(lines: &[HistoryLine]) -> Vec<String> {
    let newest_params = &lines[lines.len() - 1].params;
    let shown = &lines[lines.len().saturating_sub(MAX_COLUMNS)..];
    let comparable: Vec<&HistoryLine> = shown
        .iter()
        .filter(|l| &l.params == newest_params)
        .collect();
    let keys: BTreeSet<&String> = comparable.iter().flat_map(|l| l.walls.keys()).collect();
    let mut rising = Vec::new();
    for key in keys {
        let values: Vec<f64> = comparable
            .iter()
            .filter_map(|l| l.walls.get(key))
            .copied()
            .collect();
        // Trailing streak of strictly upward deltas.
        let streak = values.windows(2).rev().take_while(|w| w[1] > w[0]).count();
        if streak >= 2 {
            let first = values[values.len() - 1 - streak];
            let last = values[values.len() - 1];
            rising.push(format!(
                "{key} (+{:.0}% over {streak} deltas)",
                (last / first - 1.0) * 100.0
            ));
        }
    }
    rising
}

fn markdown(
    title: &str,
    headers: &[String],
    rows: &[Vec<String>],
    skipped: usize,
    rising: &[String],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n\n"));
    if skipped > 0 {
        out.push_str(&format!(
            "_{skipped} older history line(s) not shown (cap: {MAX_COLUMNS} columns)._\n\n"
        ));
    }
    if !rising.is_empty() {
        // One line per warning so a CI job summary can surface it verbatim.
        out.push_str(&format!(
            "**⚠ rising walls ({} record(s) up for ≥2 consecutive comparable lines):** {}\n\n",
            rising.len(),
            rising.join(", ")
        ));
    }
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out.push_str(
        "\nCells are per-record wall seconds; `(xR)` is the ratio to the previous shown \
         line. A `*` column ran with different parameters than the newest line, so its \
         walls are not directly comparable.\n",
    );
    out
}

/// Runs `perf-trend`: reads the history at `--history` (default
/// `BENCH_history.jsonl` in the working directory — the committed
/// trajectory), prints the trend table and writes `perf_trend.md` into
/// `--out` when set.
pub fn run(opts: &ExperimentOpts) -> Result<(), String> {
    let path = opts
        .history
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_history.jsonl"));
    let (lines, scale_skipped) = perf_lines(&path)?;
    if scale_skipped > 0 {
        println!(
            "[{scale_skipped} \"kind\":\"scale\" line(s) skipped — paper-scale records are \
             compared by perf-check, not trended here]"
        );
    }
    let (headers, rows) = render_rows(&lines);
    let rising = rising_records(&lines);
    let skipped = lines.len().saturating_sub(MAX_COLUMNS);
    let title = format!(
        "Perf trend — {} history line(s) from {}",
        lines.len(),
        path.display()
    );
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("perf-trend", &title, &header_refs);
    for row in &rows {
        table.push(row.clone());
    }
    println!("{}", table.render());
    if skipped > 0 {
        println!("[{skipped} older history line(s) not shown; cap {MAX_COLUMNS}]");
    }
    if rising.is_empty() {
        println!("[perf-trend: no record rising for >=2 consecutive comparable lines]");
    } else {
        // Grep-stable marker line; CI copies it into the job summary.
        println!(
            "[perf-trend warning: {} record(s) rising for >=2 consecutive lines: {}]",
            rising.len(),
            rising.join(", ")
        );
    }
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create output dir: {e}"))?;
        let md_path = dir.join("perf_trend.md");
        std::fs::write(
            &md_path,
            markdown(&title, &headers, &rows, skipped, &rising),
        )
        .map_err(|e| format!("write {}: {e}", md_path.display()))?;
        println!("[markdown trend written to {}]\n", md_path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::record::{Params, SCHEMA_VERSION};
    use std::collections::BTreeMap;

    /// A history line of `kind` at `scale_factor` with the given walls.
    fn kind_line(kind: Kind, label: &str, scale_factor: f64, walls: &[(&str, f64)]) -> HistoryLine {
        HistoryLine {
            label: label.to_owned(),
            stamp: "s".to_owned(),
            kind,
            schema_version: SCHEMA_VERSION,
            params: Params {
                scale_factor,
                n_ccs: 15,
                runs: 1,
                seed: 7,
                knobs: BTreeMap::new(),
            },
            workload: None,
            walls: walls.iter().map(|&(k, w)| (k.to_owned(), w)).collect(),
            peak_rss_mb: None,
        }
    }

    fn line(label: &str, scale_factor: f64, walls: &[(&str, f64)]) -> String {
        serde_json::to_string(&kind_line(Kind::Perf, label, scale_factor, walls)).unwrap()
    }

    fn write_history(name: &str, lines: &[String]) -> PathBuf {
        let dir = std::env::temp_dir().join("cextend-perf-trend");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    #[test]
    fn trend_renders_ratios_and_new_records() {
        let path = write_history(
            "ok.jsonl",
            &[
                line("a", 0.005, &[("census/good/s", 0.1)]),
                line(
                    "b",
                    0.005,
                    &[("census/good/s", 0.2), ("dcdense/good/s", 0.05)],
                ),
            ],
        );
        let (lines, _) = perf_lines(&path).unwrap();
        let (headers, rows) = render_rows(&lines);
        assert_eq!(headers.len(), 3);
        assert!(!headers[1].ends_with('*'), "same params: no flag");
        assert_eq!(rows.len(), 2);
        let census = rows.iter().find(|r| r[0] == "census/good/s").unwrap();
        assert!(census[2].contains("x2.00"), "{census:?}");
        let fresh = rows.iter().find(|r| r[0] == "dcdense/good/s").unwrap();
        assert_eq!(fresh[1], "-");
        assert!(!fresh[2].contains('x'), "first value has no ratio");
    }

    #[test]
    fn incomparable_lines_are_flagged() {
        let path = write_history(
            "flag.jsonl",
            &[
                line("old", 0.02, &[("census/good/s", 0.4)]),
                line("new", 0.005, &[("census/good/s", 0.1)]),
            ],
        );
        let (lines, _) = perf_lines(&path).unwrap();
        let (headers, _) = render_rows(&lines);
        assert!(headers[1].ends_with('*'), "{headers:?}");
        assert!(!headers[2].ends_with('*'));
    }

    #[test]
    fn retired_builder_labels_do_not_flag_lines() {
        // Lines written before the builder knobs retired carried their
        // `conflict`/`dcplan` labels; the reader ignores keys it does not
        // know, so a line with them is as comparable as one without.
        let labelled = line("old", 0.005, &[("dcdense/good/s", 0.1)]).replace(
            r#""kind":"perf","#,
            r#""kind":"perf","conflict":"indexed","dcplan":"cost","#,
        );
        assert!(labelled.contains("dcplan"));
        let path = write_history(
            "retired-labels.jsonl",
            &[labelled, line("new", 0.005, &[("dcdense/good/s", 0.1)])],
        );
        let (lines, _) = perf_lines(&path).unwrap();
        let (headers, _) = render_rows(&lines);
        assert!(!headers[1].ends_with('*'), "{headers:?}");
        assert!(!headers[2].ends_with('*'));
    }

    #[test]
    fn spec_workload_label_passes_through_unflagged() {
        // A sweep extended with `--workload spec:<path>` stamps the label
        // into its history line; the trend shows it in the header without
        // treating it as a run-parameter difference.
        let with_label = serde_json::to_string(&HistoryLine {
            workload: Some("spec:specs/supply.spec".to_owned()),
            ..kind_line(Kind::Perf, "a", 0.005, &[("spec:supply/good/s", 0.1)])
        })
        .unwrap();
        let path = write_history(
            "speclabel.jsonl",
            &[with_label, line("b", 0.005, &[("spec:supply/good/s", 0.1)])],
        );
        let (lines, _) = perf_lines(&path).unwrap();
        let (headers, _) = render_rows(&lines);
        assert!(
            headers[1].contains("(spec:specs/supply.spec)"),
            "{headers:?}"
        );
        assert!(
            !headers[1].ends_with('*'),
            "spec label must not flag comparability: {headers:?}"
        );
        assert!(!headers[2].ends_with('*'), "{headers:?}");
    }

    #[test]
    fn column_cap_keeps_newest_lines() {
        let many: Vec<String> = (0..10)
            .map(|i| line(&format!("l{i}"), 0.005, &[("census/good/s", 0.1)]))
            .collect();
        let path = write_history("cap.jsonl", &many);
        let (lines, _) = perf_lines(&path).unwrap();
        let (headers, _) = render_rows(&lines);
        assert_eq!(headers.len(), MAX_COLUMNS + 1);
        assert!(headers[MAX_COLUMNS].starts_with("l9@"));
    }

    #[test]
    fn scale_lines_are_skipped_not_anchored() {
        // A scale line is the *newest* entry; if it weren't skipped it
        // would become the comparability anchor and star every perf
        // column. Its walls keys (bare workload names) must not appear as
        // records either.
        let scale_line = serde_json::to_string(&HistoryLine {
            peak_rss_mb: Some([("census".to_owned(), 4096.0)].into_iter().collect()),
            ..kind_line(Kind::Scale, "x", 1.0, &[("census", 120.0)])
        })
        .unwrap();
        let path = write_history(
            "scale-skip.jsonl",
            &[
                line("a", 0.005, &[("census/good/s", 0.1)]),
                line("b", 0.005, &[("census/good/s", 0.1)]),
                scale_line,
            ],
        );
        let (lines, scale_skipped) = perf_lines(&path).unwrap();
        assert_eq!(scale_skipped, 1);
        assert_eq!(lines.len(), 2);
        let (headers, rows) = render_rows(&lines);
        assert!(
            headers.iter().all(|h| !h.ends_with('*')),
            "scale line must not anchor comparability: {headers:?}"
        );
        assert!(rows.iter().all(|r| r[0] != "census"), "{rows:?}");
    }

    #[test]
    fn missing_or_empty_history_errors() {
        let err = perf_lines(Path::new("/nonexistent/h.jsonl")).unwrap_err();
        assert!(err.contains("run `experiments -- perf` first"), "{err}");
        let path = write_history("empty.jsonl", &[String::new()]);
        assert!(perf_lines(&path).is_err());
    }

    #[test]
    fn markdown_contains_table_and_caveat() {
        let path = write_history("md.jsonl", &[line("a", 0.005, &[("census/good/s", 0.1)])]);
        let (lines, _) = perf_lines(&path).unwrap();
        let (headers, rows) = render_rows(&lines);
        let md = markdown("t", &headers, &rows, 2, &[]);
        assert!(md.contains("| Record |"));
        assert!(md.contains("census/good/s"));
        assert!(md.contains("2 older history line(s)"));
        assert!(!md.contains("rising walls"));
        let md = markdown(
            "t",
            &headers,
            &rows,
            0,
            &["census/good/s (+40%)".to_owned()],
        );
        assert!(md.contains("rising walls"), "{md}");
        assert!(md.contains("census/good/s (+40%)"), "{md}");
    }

    #[test]
    fn rising_records_flags_two_consecutive_upward_deltas() {
        let path = write_history(
            "rising.jsonl",
            &[
                line("a", 0.005, &[("census/good/s", 0.10), ("flat/good/s", 0.2)]),
                line("b", 0.005, &[("census/good/s", 0.12), ("flat/good/s", 0.2)]),
                line("c", 0.005, &[("census/good/s", 0.15), ("flat/good/s", 0.2)]),
            ],
        );
        let (lines, _) = perf_lines(&path).unwrap();
        let rising = rising_records(&lines);
        assert_eq!(rising.len(), 1, "{rising:?}");
        assert!(rising[0].starts_with("census/good/s (+50%"), "{rising:?}");
    }

    #[test]
    fn rising_ignores_broken_streaks_and_incomparable_lines() {
        // A dip before the last rise: only one trailing upward delta.
        let path = write_history(
            "rising-dip.jsonl",
            &[
                line("a", 0.005, &[("census/good/s", 0.10)]),
                line("b", 0.005, &[("census/good/s", 0.20)]),
                line("c", 0.005, &[("census/good/s", 0.15)]),
                line("d", 0.005, &[("census/good/s", 0.18)]),
            ],
        );
        let (lines, _) = perf_lines(&path).unwrap();
        assert!(rising_records(&lines).is_empty());
        // Rising, but across lines with different parameters: the starred
        // lines drop out of the streak entirely.
        let path = write_history(
            "rising-params.jsonl",
            &[
                line("a", 0.02, &[("census/good/s", 0.10)]),
                line("b", 0.02, &[("census/good/s", 0.12)]),
                line("c", 0.005, &[("census/good/s", 0.15)]),
            ],
        );
        let (lines, _) = perf_lines(&path).unwrap();
        assert!(rising_records(&lines).is_empty());
    }

    /// The whole format end to end: `perf` and `scale` sections saved into
    /// one document, both history lines appended, and everything read back
    /// through the one parser into `perf-check` and the trend renderer.
    #[test]
    fn saved_sections_read_back_into_check_and_trend() {
        use crate::experiments::perf::check;
        use crate::experiments::record::{save, Document, Record};
        use crate::harness::ExperimentOpts;

        let dir = std::env::temp_dir().join("cextend-record-round-trip");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExperimentOpts {
            out_dir: Some(dir.clone()),
            label: "fresh".to_owned(),
            stamp: "now".to_owned(),
            ..ExperimentOpts::default()
        };
        let perf_record = Record {
            workload: "census".to_owned(),
            family: Some("good".to_owned()),
            step: Some("Persons→Housing".to_owned()),
            wall_s: 0.1,
            ..Record::default()
        };
        let scale_record = Record {
            workload: "census".to_owned(),
            scale: Some(4.0),
            knobs: Some(BTreeMap::new()),
            hasse_s: Some(0.2),
            repair_s: Some(0.0),
            leftovers_s: Some(0.3),
            random_s: Some(0.0),
            conflict_s: Some(0.4),
            coloring_s: Some(0.5),
            invalid_s: Some(0.0),
            wall_s: 1.5,
            relation_heap_bytes: Some(1 << 20),
            peak_rss_bytes: Some(200 << 20),
            ..Record::default()
        };
        save(&opts, Kind::Perf, None, vec![perf_record]).unwrap();
        save(&opts, Kind::Scale, None, vec![scale_record]).unwrap();

        // A document checks clean against itself, and each gate still
        // bites on a copy: a perf wall at 1 s, a scale peak RSS at 4×.
        let fresh = dir.join("BENCH_perf.json");
        check(&fresh, &fresh).unwrap();
        let mut doc = Document::read(&fresh).unwrap();
        doc.sections[0].records[0].wall_s = 1.0;
        doc.sections[1].records[0].peak_rss_bytes = Some(800 << 20);
        let copy = dir.join("copy.json");
        std::fs::write(&copy, serde_json::to_string(&doc).unwrap()).unwrap();
        let err = check(&fresh, &copy).unwrap_err();
        assert!(
            err.contains("record `census/good/Persons→Housing` regressed 10.0×: 100.0ms → 1.00s"),
            "{err}"
        );
        assert!(
            err.contains("scale record `census` peak RSS regressed 4.00×: 200MB → 800MB"),
            "{err}"
        );

        let (lines, scale_skipped) = perf_lines(&dir.join("BENCH_history.jsonl")).unwrap();
        assert_eq!(scale_skipped, 1);
        let (headers, rows) = render_rows(&lines);
        assert_eq!(headers, ["Record", "fresh@now"]);
        assert_eq!(rows, [["census/good/Persons→Housing", "100.0ms"]]);
    }
}
