//! The benchmark record format: `BENCH_perf.json` and
//! `BENCH_history.jsonl`.
//!
//! Every persisted timing cell is one [`Record`]: a `perf` step or
//! scheduler level, or a `scale` scenario. A run of `perf` or `scale`
//! writes one [`Section`] — its kind, the run [`Params`] every timing
//! depends on, build provenance and its records — and appends one
//! [`HistoryLine`] that keeps the section's identity and per-record walls.
//!
//! `BENCH_perf.json` is a [`Document`]: `schema_version` and one section
//! per kind, each writer replacing its own section and keeping the others
//! ([`save`]). `BENCH_history.jsonl` only ever grows, one line per run.
//! `perf-check` and `perf-trend` read both files through [`Document::read`]
//! and [`read_history`]: every struct is read field by field by name, keys
//! the reader does not know are ignored, and a field may be absent only
//! where its type is an `Option`.
//!
//! A record is keyed by [`Record::key`]: `workload/family/step` for a perf
//! cell, the workload alone for a scale scenario.

use crate::harness::{run_meta, ExperimentOpts, RunMeta, RunResult};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Format version of both files; the reader accepts exactly this one.
pub const SCHEMA_VERSION: u32 = 3;

/// Defines a struct of the format together with its `Serialize` impl,
/// which leaves absent (`None`) fields out, and its [`Read`] impl, which
/// reads every field by name — so each field list is written once.
macro_rules! format_struct {
    (
        $(#[$attr:meta])*
        pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: $ty:ty,)* }
    ) => {
        $(#[$attr])*
        pub struct $name { $($(#[$doc])* pub $field: $ty,)* }

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                let fields = [$((stringify!($field), self.$field.to_value())),*];
                Value::Object(
                    fields
                        .into_iter()
                        .filter(|(_, v)| *v != Value::Null)
                        .map(|(k, v)| (k.to_owned(), v))
                        .collect(),
                )
            }
        }

        impl Read for $name {
            fn read(value: Option<&Value>) -> Result<Self, String> {
                let fields = object(value)?;
                Ok($name { $($field: field(fields, stringify!($field))?,)* })
            }
        }
    };
}

/// The driver that wrote a section or a history line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `perf`: every workload's chain steps and scheduler levels.
    Perf,
    /// `scale`: the paper-scale scenarios.
    Scale,
}

impl Kind {
    /// Every kind, in document order.
    pub const ALL: [Kind; 2] = [Kind::Perf, Kind::Scale];

    /// The kind's name in both files.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Perf => "perf",
            Kind::Scale => "scale",
        }
    }

    /// The first field `r` lacks that every record of this kind carries: a
    /// perf cell's identity; a scale scenario's generator settings, every
    /// stage of its split and its relation heap. Peak RSS stays optional:
    /// some platforms have no `VmHWM`.
    fn missing(self, r: &Record) -> Option<&'static str> {
        let fields = match self {
            Kind::Perf => vec![("family", r.family.is_some()), ("step", r.step.is_some())],
            Kind::Scale => vec![
                ("scale", r.scale.is_some()),
                ("knobs", r.knobs.is_some()),
                ("hasse_s", r.hasse_s.is_some()),
                ("repair_s", r.repair_s.is_some()),
                ("leftovers_s", r.leftovers_s.is_some()),
                ("random_s", r.random_s.is_some()),
                ("conflict_s", r.conflict_s.is_some()),
                ("coloring_s", r.coloring_s.is_some()),
                ("invalid_s", r.invalid_s.is_some()),
                ("relation_heap_bytes", r.relation_heap_bytes.is_some()),
            ],
        };
        fields
            .into_iter()
            .find(|&(_, present)| !present)
            .map(|(name, _)| name)
    }
}

impl Serialize for Kind {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_owned())
    }
}

format_struct! {
    /// The run parameters a section's timings depend on: two sections
    /// compare only when these are equal.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Params {
        /// Scale factor the run applied.
        pub scale_factor: f64,
        /// CC-set size requested.
        pub n_ccs: usize,
        /// Runs averaged per record.
        pub runs: usize,
        /// Base RNG seed.
        pub seed: u64,
        /// CLI knob overrides (each workload resolves them against its own
        /// defaults).
        pub knobs: BTreeMap<String, i64>,
    }
}

impl Params {
    /// The parameters of a run with `opts`.
    pub fn of(opts: &ExperimentOpts) -> Params {
        Params {
            scale_factor: opts.scale_factor,
            n_ccs: opts.n_ccs,
            runs: opts.runs,
            seed: opts.seed,
            knobs: opts.knobs.clone(),
        }
    }

    /// Each parameter by name, rendered for a mismatch report.
    pub fn rendered(&self) -> [(&'static str, String); 5] {
        [
            ("scale_factor", self.scale_factor.to_string()),
            ("n_ccs", self.n_ccs.to_string()),
            ("runs", self.runs.to_string()),
            ("seed", self.seed.to_string()),
            ("knobs", serde_json::to_string(&self.knobs).expect("knobs")),
        ]
    }
}

format_struct! {
    /// One timed cell. Times are seconds averaged over the section's runs
    /// (a scheduler level's wall is the minimum); the stage fields split
    /// `phase1_s` and `phase2_s` where the writer measured them.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Record {
        /// Workload name.
        pub workload: String,
        /// A perf cell's CC family label (`good` / `bad`).
        pub family: Option<String>,
        /// A perf cell's completion step (`Owner→Target`) or scheduler
        /// level (`sched-L<k>-serial|parallel`).
        pub step: Option<String>,
        /// A scale scenario's effective generator scale.
        pub scale: Option<f64>,
        /// The knobs a scale scenario resolved to (its defaults plus CLI
        /// overrides).
        pub knobs: Option<BTreeMap<String, i64>>,
        /// `R1` rows solved.
        pub n_r1: usize,
        /// `R2` rows of the input.
        pub n_r2: usize,
        /// CC-set size.
        pub n_ccs: usize,
        /// Phase I seconds.
        pub phase1_s: f64,
        /// Algorithm 2 (Hasse recursion) seconds — Phase I.
        pub hasse_s: Option<f64>,
        /// Local-search repair seconds — Phase I.
        pub repair_s: Option<f64>,
        /// Leftover-completion seconds — Phase I.
        pub leftovers_s: Option<f64>,
        /// Baseline random-completion seconds — Phase I.
        pub random_s: Option<f64>,
        /// Phase II seconds.
        pub phase2_s: f64,
        /// Conflict-graph build seconds — Phase II.
        pub conflict_s: Option<f64>,
        /// Weighted-coloring seconds (no graph build) — Phase II.
        pub coloring_s: Option<f64>,
        /// Invalid-tuple placement seconds — Phase II.
        pub invalid_s: Option<f64>,
        /// Total wall-clock seconds.
        pub wall_s: f64,
        /// Median relative CC error.
        pub cc_median: f64,
        /// DC error (0.0 — Proposition 5.5).
        pub dc_error: f64,
        /// A scale scenario's generated-relation column-buffer bytes.
        pub relation_heap_bytes: Option<usize>,
        /// A scale scenario's peak RSS over its own generate + solve (the
        /// high-water mark is reset before each scenario where the
        /// platform allows it); absent where the platform has no `VmHWM`.
        pub peak_rss_bytes: Option<u64>,
    }
}

impl Record {
    /// The record of one solved cell of `workload` with `(n_r1, n_r2,
    /// n_ccs)` rows and CCs: every time and stage of `r`, by name.
    pub fn solved(
        workload: &str,
        (n_r1, n_r2, n_ccs): (usize, usize, usize),
        r: &RunResult,
    ) -> Record {
        Record {
            workload: workload.to_owned(),
            n_r1,
            n_r2,
            n_ccs,
            phase1_s: r.phase1_s,
            hasse_s: Some(r.hasse_s),
            repair_s: Some(r.repair_s),
            leftovers_s: Some(r.leftovers_s),
            random_s: Some(r.random_s),
            phase2_s: r.phase2_s,
            conflict_s: Some(r.conflict_s),
            coloring_s: Some(r.coloring_s),
            invalid_s: Some(r.invalid_s),
            wall_s: r.wall_s,
            cc_median: r.cc_median,
            dc_error: r.dc_error,
            ..Record::default()
        }
    }

    /// The record's identity within its kind: `workload/family/step` for a
    /// perf cell, the workload for a scale scenario.
    pub fn key(&self) -> String {
        match (&self.family, &self.step) {
            (Some(family), Some(step)) => format!("{}/{family}/{step}", self.workload),
            _ => self.workload.clone(),
        }
    }
}

format_struct! {
    /// One run of `perf` or `scale`: its kind, parameters, provenance and
    /// records.
    #[derive(Clone, Debug)]
    pub struct Section {
        /// The driver that wrote the section.
        pub kind: Kind,
        /// The run parameters — the comparability gate.
        pub params: Params,
        /// The `spec:<path>` selection that extended a perf sweep, when
        /// one did. Not a parameter: a spec's records come and go like any
        /// workload's, so the label does not gate comparability.
        pub workload: Option<String>,
        /// Build and worker-width provenance — not a parameter either.
        pub meta: RunMeta,
        /// The timed cells.
        pub records: Vec<Record>,
    }
}

format_struct! {
    /// A `BENCH_perf.json`: at most one section per kind.
    #[derive(Debug)]
    pub struct Document {
        /// [`SCHEMA_VERSION`].
        pub schema_version: u32,
        /// The sections, in the order they were first written.
        pub sections: Vec<Section>,
    }
}

impl Document {
    /// Reads and parses the document at `path`.
    pub fn read(path: &Path) -> Result<Document, String> {
        let what = format!("`{}`", path.display());
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {what}: {e}"))?;
        let doc: Document = read_versioned(&text, &what)?;
        for (i, section) in doc.sections.iter().enumerate() {
            for (j, record) in section.records.iter().enumerate() {
                if let Some(name) = section.kind.missing(record) {
                    let kind = section.kind.name();
                    return Err(format!(
                        "{what}: sections[{i}].records[{j}]: a {kind} record needs `{name}`"
                    ));
                }
            }
        }
        Ok(doc)
    }

    /// The section of `kind`, when the document has one.
    pub fn section(&self, kind: Kind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }
}

format_struct! {
    /// One `BENCH_history.jsonl` line: a section's identity and per-record
    /// walls (plus peak RSS where measured).
    #[derive(Clone, Debug, PartialEq)]
    pub struct HistoryLine {
        /// Build label (`--label`).
        pub label: String,
        /// Time stamp (`--stamp`).
        pub stamp: String,
        /// The driver that wrote the line.
        pub kind: Kind,
        /// [`SCHEMA_VERSION`].
        pub schema_version: u32,
        /// The section's run parameters.
        pub params: Params,
        /// The section's `spec:<path>` label, when it has one.
        pub workload: Option<String>,
        /// [`Record::key`] → wall seconds, every record of the section.
        pub walls: BTreeMap<String, f64>,
        /// [`Record::key`] → peak RSS in MiB, when some record measured it.
        pub peak_rss_mb: Option<BTreeMap<String, f64>>,
    }
}

impl HistoryLine {
    /// The line summarizing `section`, stamped with `label` and `stamp`.
    pub fn of(section: &Section, label: &str, stamp: &str) -> HistoryLine {
        let rss: BTreeMap<String, f64> = section
            .records
            .iter()
            .filter_map(|r| Some((r.key(), r.peak_rss_bytes? as f64 / (1024.0 * 1024.0))))
            .collect();
        HistoryLine {
            label: label.to_owned(),
            stamp: stamp.to_owned(),
            kind: section.kind,
            schema_version: SCHEMA_VERSION,
            params: section.params.clone(),
            workload: section.workload.clone(),
            walls: section
                .records
                .iter()
                .map(|r| (r.key(), r.wall_s))
                .collect(),
            peak_rss_mb: Some(rss).filter(|m| !m.is_empty()),
        }
    }
}

/// Reads every line of the history at `path`, oldest first.
pub fn read_history(path: &Path) -> Result<Vec<HistoryLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read history `{}`: {e} — run `experiments -- perf` first",
            path.display()
        )
    })?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| read_versioned(l, &format!("history line {}", i + 1)))
        .collect()
}

/// Writes the `kind` section of a run with `opts` — its parameters, its
/// provenance, the `spec:<path>` label `workload` and `records` — into
/// `<out>/BENCH_perf.json` (the working directory without `--out`),
/// replacing the document's section of that kind and keeping the others,
/// and appends its line, stamped with `--label` and `--stamp`, to
/// `BENCH_history.jsonl` beside it.
pub fn save(
    opts: &ExperimentOpts,
    kind: Kind,
    workload: Option<String>,
    records: Vec<Record>,
) -> Result<(), String> {
    let section = Section {
        kind,
        params: Params::of(opts),
        workload,
        meta: run_meta(opts.workers),
        records,
    };
    let dir = opts.out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create output dir: {e}"))?;
    let kind = kind.name();
    let history = HistoryLine::of(&section, &opts.label, &opts.stamp);

    let path = dir.join("BENCH_perf.json");
    let mut doc = if path.exists() {
        Document::read(&path)?
    } else {
        Document {
            schema_version: SCHEMA_VERSION,
            sections: Vec::new(),
        }
    };
    match doc.sections.iter_mut().find(|s| s.kind == section.kind) {
        Some(old) => *old = section,
        None => doc.sections.push(section),
    }
    let text = serde_json::to_string_pretty(&doc).expect("serialize document");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    cextend_obs::narrate!("[{kind} section written to {}]", path.display());

    let path = dir.join("BENCH_history.jsonl");
    let line = serde_json::to_string(&history).expect("serialize history line");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| writeln!(file, "{line}"))
        .map_err(|e| format!("append {}: {e}", path.display()))?;
    cextend_obs::narrate!("[{kind} history appended to {}]\n", path.display());
    Ok(())
}

/// Parses one document or history line named `what`, after checking that
/// it declares [`SCHEMA_VERSION`].
fn read_versioned<T: Read>(text: &str, what: &str) -> Result<T, String> {
    let value = serde_json::from_str(text).map_err(|e| format!("{what} is not valid JSON: {e}"))?;
    let fail = |e: String| format!("{what}: {}", e.trim_start_matches(['.', ':', ' ']));
    let version: u32 =
        field(object(Some(&value)).map_err(fail)?, "schema_version").map_err(fail)?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "{what} has schema_version {version}; this reader reads {SCHEMA_VERSION} — \
             regenerate it with `experiments -- perf`"
        ));
    }
    T::read(Some(&value)).map_err(fail)
}

/// A value of the format, read from a JSON field that may be absent
/// (`None`). Errors read as a path to the field, then the problem.
trait Read: Sized {
    fn read(value: Option<&Value>) -> Result<Self, String>;
}

/// Reads field `name` of an object.
fn field<T: Read>(fields: &[(String, Value)], name: &str) -> Result<T, String> {
    let value = fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    T::read(value).map_err(|e| format!(".{name}{e}"))
}

/// The value of a field that must be present.
fn present(value: Option<&Value>) -> Result<&Value, String> {
    value.ok_or_else(|| ": missing".to_owned())
}

fn mismatch<T>(v: &Value) -> Result<T, String> {
    Err(format!(": is {v:?}"))
}

fn object(value: Option<&Value>) -> Result<&[(String, Value)], String> {
    match present(value)? {
        Value::Object(fields) => Ok(fields),
        v => mismatch(v),
    }
}

impl<T: Read> Read for Option<T> {
    fn read(value: Option<&Value>) -> Result<Self, String> {
        value.map(|v| T::read(Some(v))).transpose()
    }
}

impl Read for String {
    fn read(value: Option<&Value>) -> Result<Self, String> {
        match present(value)? {
            Value::Str(s) => Ok(s.clone()),
            v => mismatch(v),
        }
    }
}

impl Read for f64 {
    fn read(value: Option<&Value>) -> Result<Self, String> {
        match *present(value)? {
            Value::Float(x) => Ok(x),
            Value::Int(n) => Ok(n as f64),
            ref v => mismatch(v),
        }
    }
}

macro_rules! read_int {
    ($($t:ty),*) => {$(
        impl Read for $t {
            fn read(value: Option<&Value>) -> Result<Self, String> {
                let v = present(value)?;
                let n = match *v {
                    Value::Int(n) => i128::from(n),
                    Value::UInt(n) => i128::from(n),
                    _ => return mismatch(v),
                };
                <$t>::try_from(n).or_else(|_| mismatch(v))
            }
        }
    )*};
}

read_int!(i64, u64, u32, usize);

impl<T: Read> Read for Vec<T> {
    fn read(value: Option<&Value>) -> Result<Self, String> {
        match present(value)? {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| T::read(Some(v)).map_err(|e| format!("[{i}]{e}")))
                .collect(),
            v => mismatch(v),
        }
    }
}

impl<T: Read> Read for BTreeMap<String, T> {
    fn read(value: Option<&Value>) -> Result<Self, String> {
        object(value)?
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::read(Some(v)).map_err(|e| format!(".{k}{e}"))?)))
            .collect()
    }
}

impl Read for Kind {
    fn read(value: Option<&Value>) -> Result<Self, String> {
        let name = String::read(value)?;
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!(": unknown kind `{name}`"))
    }
}

impl Read for RunMeta {
    fn read(value: Option<&Value>) -> Result<Self, String> {
        let fields = object(value)?;
        Ok(RunMeta {
            git_commit: field(fields, "git_commit")?,
            workers: field(fields, "workers")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Options saving into a fresh `name` directory under the temp dir.
    fn opts_in(name: &str) -> ExperimentOpts {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        ExperimentOpts {
            out_dir: Some(dir),
            label: "a".to_owned(),
            stamp: "s".to_owned(),
            ..ExperimentOpts::default()
        }
    }

    fn census_scale(wall_s: f64) -> Record {
        Record {
            workload: "census".to_owned(),
            scale: Some(40.0),
            knobs: Some([("areas".to_owned(), 1024)].into_iter().collect()),
            n_r1: 1_015_686,
            n_r2: 392_800,
            n_ccs: 150,
            phase1_s: 10.0,
            hasse_s: Some(4.0),
            repair_s: Some(1.0),
            leftovers_s: Some(5.0),
            random_s: Some(0.0),
            phase2_s: 20.0,
            conflict_s: Some(12.0),
            coloring_s: Some(6.0),
            invalid_s: Some(0.5),
            wall_s,
            relation_heap_bytes: Some(1 << 28),
            peak_rss_bytes: Some(2 << 30),
            ..Record::default()
        }
    }

    fn census_perf() -> Record {
        Record {
            workload: "census".to_owned(),
            family: Some("good".to_owned()),
            step: Some("Persons→Housing".to_owned()),
            wall_s: 0.1,
            ..Record::default()
        }
    }

    fn paths(opts: &ExperimentOpts) -> (PathBuf, PathBuf) {
        let dir = opts.out_dir.clone().unwrap();
        (dir.join("BENCH_perf.json"), dir.join("BENCH_history.jsonl"))
    }

    #[test]
    fn save_replaces_its_own_section_and_keeps_the_other() {
        let opts = opts_in("cextend-record-save");
        let (doc_path, history_path) = paths(&opts);
        save(&opts, Kind::Perf, None, vec![census_perf()]).unwrap();
        save(&opts, Kind::Scale, None, vec![census_scale(31.0)]).unwrap();
        // Saving a kind again replaces its section rather than adding one.
        save(&opts, Kind::Scale, None, vec![census_scale(33.0)]).unwrap();
        let doc = Document::read(&doc_path).unwrap();
        let kinds: Vec<Kind> = doc.sections.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [Kind::Perf, Kind::Scale]);
        assert_eq!(doc.section(Kind::Perf).unwrap().records, [census_perf()]);
        assert_eq!(
            doc.section(Kind::Scale).unwrap().records,
            [census_scale(33.0)]
        );
        // Every save appends its line.
        let history = read_history(&history_path).unwrap();
        let walls: Vec<(Kind, Vec<(&str, f64)>)> = history
            .iter()
            .map(|l| {
                (
                    l.kind,
                    l.walls.iter().map(|(k, &w)| (k.as_str(), w)).collect(),
                )
            })
            .collect();
        assert_eq!(
            walls,
            [
                (Kind::Perf, vec![("census/good/Persons→Housing", 0.1)]),
                (Kind::Scale, vec![("census", 31.0)]),
                (Kind::Scale, vec![("census", 33.0)]),
            ]
        );
        assert_eq!(history[2].peak_rss_mb.as_ref().unwrap()["census"], 2048.0);
        assert_eq!(history[0].peak_rss_mb, None);
    }

    #[test]
    fn save_without_a_document_starts_one() {
        let opts = opts_in("cextend-record-stub");
        let (doc_path, _) = paths(&opts);
        save(&opts, Kind::Scale, None, Vec::new()).unwrap();
        let doc = Document::read(&doc_path).unwrap();
        assert_eq!(doc.sections.len(), 1);
        assert!(doc.section(Kind::Perf).is_none());
        assert!(doc.section(Kind::Scale).unwrap().records.is_empty());
    }

    #[test]
    fn records_missing_a_field_their_kind_requires_are_rejected() {
        let opts = opts_in("cextend-record-required");
        let (doc_path, _) = paths(&opts);
        save(&opts, Kind::Perf, None, vec![census_perf()]).unwrap();
        save(&opts, Kind::Scale, None, vec![census_scale(31.0)]).unwrap();
        let text = std::fs::read_to_string(&doc_path).unwrap();
        // A scale record without a stage of its split, and a perf record
        // without its step.
        for (field, kind) in [("\"conflict_s\"", "scale"), ("\"step\"", "perf")] {
            let broken = text.replacen(field, "\"renamed\"", 1);
            std::fs::write(&doc_path, broken).unwrap();
            let err = Document::read(&doc_path).unwrap_err();
            assert!(err.contains(&format!("a {kind} record needs `")), "{err}");
        }
        // Peak RSS stays optional.
        std::fs::write(
            &doc_path,
            text.replacen("\"peak_rss_bytes\"", "\"renamed\"", 1),
        )
        .unwrap();
        let doc = Document::read(&doc_path).unwrap();
        assert_eq!(
            doc.section(Kind::Scale).unwrap().records[0].peak_rss_bytes,
            None
        );
    }

    #[test]
    fn another_schema_version_is_rejected() {
        let opts = opts_in("cextend-record-version");
        let (doc_path, history_path) = paths(&opts);
        save(&opts, Kind::Perf, None, vec![census_perf()]).unwrap();
        for path in [&doc_path, &history_path] {
            let text = std::fs::read_to_string(path).unwrap();
            let old = text.replace(
                &format!("\"schema_version\":{SCHEMA_VERSION}"),
                "\"schema_version\":2",
            );
            let old = old.replace(
                &format!("\"schema_version\": {SCHEMA_VERSION}"),
                "\"schema_version\": 2",
            );
            assert_ne!(old, text);
            std::fs::write(path, old).unwrap();
        }
        let err = Document::read(&doc_path).unwrap_err();
        assert!(err.contains("schema_version 2"), "{err}");
        let err = read_history(&history_path).unwrap_err();
        assert!(err.contains("history line 1 has schema_version 2"), "{err}");
    }
}
