//! `perf-trend`: the per-record wall-time trend over the accumulated
//! `BENCH_history.jsonl` lines.
//!
//! `perf` appends one line per sweep (see `super::perf::append_history`);
//! this experiment reads those lines back and renders the trajectory the
//! single overwritten `BENCH_perf.json` snapshot cannot show: one row per
//! `workload/family/step` record, one column per history line (oldest
//! first, capped at the most recent [`MAX_COLUMNS`]), each cell the
//! record's wall time plus its ratio to the previous line. A markdown
//! rendering is written to `<out>/perf_trend.md` when `--out` is set —
//! the ROADMAP's "benchmark dashboard" artifact.
//!
//! Lines whose run parameters (`scale_factor`, `n_ccs`, `runs`, `seed`)
//! differ from the newest line's are still shown but flagged with `*` in
//! the column header: their walls are not apples-to-apples, exactly the
//! comparability rule `perf-check` enforces. The `conflict`/`dcplan`
//! builder labels older lines carry are ignored, as `perf-check` ignores
//! them.
//!
//! `"kind":"scale"` lines (appended by `experiments -- scale`) live in a
//! different parameter space than the perf sweep — showing them here would
//! make the newest scale line the comparability anchor and star every perf
//! column — so they are skipped with a printed count.

use super::json_field as field;
use crate::harness::{fmt_s, ExperimentOpts, Table};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Most recent history lines shown (older lines are summarized away).
pub const MAX_COLUMNS: usize = 6;

/// One parsed `BENCH_history.jsonl` line.
#[derive(Debug)]
struct HistoryLine {
    label: String,
    stamp: String,
    /// Rendered run parameters, for comparability flagging.
    params: String,
    /// The `spec:<path>` selection that extended the sweep, when one did.
    /// Shown in the column header but **excluded** from `params`: a label
    /// difference must not star the column as a parameter mismatch (the
    /// spec's records simply appear/disappear like any workload's).
    workload: Option<String>,
    /// `workload/family/step` → wall seconds.
    walls: BTreeMap<String, f64>,
}

fn parse_line(line: &str, lineno: usize) -> Result<HistoryLine, String> {
    let doc = serde_json::from_str(line)
        .map_err(|e| format!("history line {lineno} is not valid JSON: {e}"))?;
    let serde::Value::Object(top) = doc else {
        return Err(format!("history line {lineno} is not a JSON object"));
    };
    let text = |name: &str| -> String {
        match field(&top, name) {
            Some(serde::Value::Str(s)) => s,
            other => format!("{other:?}"),
        }
    };
    let num = |name: &str| -> String {
        match field(&top, name) {
            Some(serde::Value::Float(x)) => x.to_string(),
            Some(serde::Value::Int(n)) => n.to_string(),
            other => format!("{other:?}"),
        }
    };
    let params = format!(
        "scale_factor={} n_ccs={} runs={} seed={}",
        num("scale_factor"),
        num("n_ccs"),
        num("runs"),
        num("seed"),
    );
    let Some(serde::Value::Object(walls_obj)) = field(&top, "walls") else {
        return Err(format!("history line {lineno} has no `walls` object"));
    };
    let mut walls = BTreeMap::new();
    for (key, v) in walls_obj {
        let wall = match v {
            serde::Value::Float(x) => x,
            serde::Value::Int(n) => n as f64,
            other => return Err(format!("history line {lineno}: wall `{key}` is {other:?}")),
        };
        walls.insert(key, wall);
    }
    let workload = match field(&top, "workload") {
        Some(serde::Value::Str(s)) => Some(s),
        _ => None,
    };
    Ok(HistoryLine {
        label: text("label"),
        stamp: text("stamp"),
        params,
        workload,
        walls,
    })
}

/// `true` for `"kind":"scale"` lines — `experiments -- scale` appends
/// those, and their walls/parameters live in a different space than the
/// perf sweep's (unparsable lines are *not* scale lines; `parse_line`
/// reports them properly).
fn is_scale_line(line: &str) -> bool {
    match serde_json::from_str(line) {
        Ok(serde::Value::Object(top)) => {
            matches!(field(&top, "kind"), Some(serde::Value::Str(k)) if k == "scale")
        }
        _ => false,
    }
}

/// Reads the perf history lines, returning `(lines, scale_lines_skipped)`.
fn read_history(path: &Path) -> Result<(Vec<HistoryLine>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read history `{}`: {e} — run `experiments -- perf` first",
            path.display()
        )
    })?;
    let mut scale_skipped = 0;
    let lines: Vec<HistoryLine> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .filter(|(_, l)| {
            let scale = is_scale_line(l);
            scale_skipped += usize::from(scale);
            !scale
        })
        .map(|(i, l)| parse_line(l, i + 1))
        .collect::<Result<_, _>>()?;
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
    let mut keys: Vec<&String> = Vec::new();
    for l in shown {
        for k in l.walls.keys() {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys.sort();
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
    let mut keys: Vec<&String> = Vec::new();
    for l in &comparable {
        for k in l.walls.keys() {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys.sort();
    let mut rising = Vec::new();
    for key in keys {
        let values: Vec<f64> = comparable
            .iter()
            .filter_map(|l| l.walls.get(key))
            .copied()
            .collect();
        // Trailing streak of strictly upward deltas.
        let mut streak = 0;
        for w in values.windows(2).rev() {
            if w[1] > w[0] {
                streak += 1;
            } else {
                break;
            }
        }
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
    let (lines, scale_skipped) = read_history(&path)?;
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

    fn line(label: &str, scale: f64, walls: &[(&str, f64)]) -> String {
        let walls: Vec<String> = walls.iter().map(|(k, w)| format!(r#""{k}":{w}"#)).collect();
        format!(
            r#"{{"label":"{label}","stamp":"s","schema_version":2,"scale_factor":{scale},"n_ccs":15,"runs":1,"seed":7,"walls":{{{}}}}}"#,
            walls.join(",")
        )
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
        let (lines, _) = read_history(&path).unwrap();
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
        let (lines, _) = read_history(&path).unwrap();
        let (headers, _) = render_rows(&lines);
        assert!(headers[1].ends_with('*'), "{headers:?}");
        assert!(!headers[2].ends_with('*'));
    }

    #[test]
    fn retired_builder_labels_do_not_flag_lines() {
        // Older lines carry the `conflict`/`dcplan` labels of the retired
        // builder knobs; every solve now runs one builder, so a line with
        // them is as comparable as one without.
        let labelled = line("old", 0.005, &[("dcdense/good/s", 0.1)]).replace(
            r#""runs":1,"#,
            r#""runs":1,"conflict":"indexed","dcplan":"cost","#,
        );
        let path = write_history(
            "retired-labels.jsonl",
            &[labelled, line("new", 0.005, &[("dcdense/good/s", 0.1)])],
        );
        let (lines, _) = read_history(&path).unwrap();
        let (headers, _) = render_rows(&lines);
        assert!(!headers[1].ends_with('*'), "{headers:?}");
        assert!(!headers[2].ends_with('*'));
    }

    #[test]
    fn spec_workload_label_passes_through_unflagged() {
        // A sweep extended with `--workload spec:<path>` stamps the label
        // into its history line; the trend shows it in the header without
        // treating it as a run-parameter difference.
        let with_label = line("a", 0.005, &[("spec:supply/good/s", 0.1)]).replace(
            r#""runs":1,"#,
            r#""runs":1,"workload":"spec:specs/supply.spec","#,
        );
        let path = write_history(
            "speclabel.jsonl",
            &[with_label, line("b", 0.005, &[("spec:supply/good/s", 0.1)])],
        );
        let (lines, _) = read_history(&path).unwrap();
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
        let (lines, _) = read_history(&path).unwrap();
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
        let scale_line = r#"{"label":"x","stamp":"s","schema_version":2,"kind":"scale","scale_factor":1.0,"n_ccs":150,"runs":1,"seed":7,"conflict":"indexed","walls":{"census":120.0},"peak_rss_mb":{"census":4096.0}}"#;
        let path = write_history(
            "scale-skip.jsonl",
            &[
                line("a", 0.005, &[("census/good/s", 0.1)]),
                line("b", 0.005, &[("census/good/s", 0.1)]),
                scale_line.to_owned(),
            ],
        );
        let (lines, scale_skipped) = read_history(&path).unwrap();
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
        let err = read_history(Path::new("/nonexistent/h.jsonl")).unwrap_err();
        assert!(err.contains("run `experiments -- perf` first"), "{err}");
        let path = write_history("empty.jsonl", &[String::new()]);
        assert!(read_history(&path).is_err());
    }

    #[test]
    fn markdown_contains_table_and_caveat() {
        let path = write_history("md.jsonl", &[line("a", 0.005, &[("census/good/s", 0.1)])]);
        let (lines, _) = read_history(&path).unwrap();
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
        let (lines, _) = read_history(&path).unwrap();
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
        let (lines, _) = read_history(&path).unwrap();
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
        let (lines, _) = read_history(&path).unwrap();
        assert!(rising_records(&lines).is_empty());
    }
}
