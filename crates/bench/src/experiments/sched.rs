//! The star-vs-chain scheduler sweep (`sched`).
//!
//! Runs every *multi-step* workload's full FK-completion chain in two
//! arms — `serial` at one worker and `parallel` at `--workers` — where
//! `supply` is a chain (one step per level, nothing to parallelize) and
//! `logistics` a branching star (two independent steps sharing a level),
//! and reports wall time per scheduler level. Each arm's level walls are
//! the minimum over the sweep's runs, so scheduling jitter cannot mask the
//! comparison. The sweep also *asserts* that both arms produce
//! bit-identical relations on every run: it doubles as the
//! serial-vs-parallel equivalence gate CI runs.

use crate::harness::{chain_steps, fmt_err, fmt_s, ExperimentOpts, Table};
use cextend_core::metrics::median;
use cextend_core::snowflake::{solve_snowflake, SnowflakeSolution, SnowflakeStep};
use cextend_core::SolverConfig;
use cextend_workloads::{all_workloads, CcFamily, DcSet, Workload, WorkloadData};
use serde::Serialize;
use std::collections::BTreeMap;

/// Timing of one scheduler level in one arm.
pub struct LevelTiming {
    /// Workload name.
    pub workload: String,
    /// Arm label: `serial` (one worker) or `parallel` (`--workers`).
    pub mode: &'static str,
    /// Worker width the arm solved at.
    pub workers: usize,
    /// Level index in execution order.
    pub level: usize,
    /// `Owner→Target` labels of the level's steps, in declared order.
    pub step_labels: Vec<String>,
    /// Whether the level's steps actually ran concurrently.
    pub parallel: bool,
    /// Summed `R1` rows solved across the level's steps.
    pub n_r1: usize,
    /// Summed `R2` rows across the level's steps.
    pub n_r2: usize,
    /// Summed CC-set size across the level's steps.
    pub n_ccs: usize,
    /// Summed Phase I seconds across the level's steps (first run).
    pub phase1_s: f64,
    /// Summed Phase II seconds across the level's steps (first run).
    pub phase2_s: f64,
    /// Level wall-clock seconds — minimum over the sweep's runs.
    pub wall_s: f64,
    /// Median relative CC error pooled over the level's steps (first run).
    pub cc_median: f64,
    /// Worst DC error across the level's steps (must be 0.0).
    pub dc_error: f64,
}

fn level_timings(
    workload: &str,
    (mode, workers): (&'static str, usize),
    solutions: &[SnowflakeSolution],
    steps: &[SnowflakeStep],
) -> Vec<LevelTiming> {
    let first = &solutions[0];
    first
        .levels
        .iter()
        .enumerate()
        .map(|(k, level)| {
            let members = &level.steps;
            let outcomes: Vec<_> = members.iter().map(|&i| &first.steps[i]).collect();
            let pooled: Vec<f64> = outcomes
                .iter()
                .flat_map(|o| o.report.cc_errors.iter().copied())
                .collect();
            LevelTiming {
                workload: workload.to_owned(),
                mode,
                workers,
                level: k,
                step_labels: outcomes.iter().map(|o| o.label.clone()).collect(),
                parallel: level.parallel,
                n_r1: outcomes.iter().map(|o| o.n_r1).sum(),
                n_r2: outcomes.iter().map(|o| o.n_r2).sum(),
                n_ccs: members.iter().map(|&i| steps[i].ccs.len()).sum(),
                phase1_s: outcomes
                    .iter()
                    .map(|o| o.stats.timings.phase1().as_secs_f64())
                    .sum(),
                phase2_s: outcomes
                    .iter()
                    .map(|o| o.stats.timings.phase2().as_secs_f64())
                    .sum(),
                wall_s: solutions
                    .iter()
                    .map(|s| s.levels[k].wall.as_secs_f64())
                    .fold(f64::INFINITY, f64::min),
                cc_median: median(&pooled),
                dc_error: outcomes
                    .iter()
                    .map(|o| o.report.dc_error)
                    .fold(0.0, f64::max),
            }
        })
        .collect()
}

/// Runs one workload's chain in both arms (`runs` solves per arm, distinct
/// solver seeds), asserts the completed relations are bit-identical
/// between arms on every run, and returns the per-level timings of both
/// arms (serial first).
pub fn sweep_workload(
    workload: &dyn Workload,
    data: &WorkloadData,
    n_ccs: usize,
    seed: u64,
    runs: usize,
    workers: usize,
) -> Vec<LevelTiming> {
    let name = workload.meta().name;
    let steps = chain_steps(workload, data, CcFamily::Good, DcSet::All, n_ccs, seed);
    let solve_one = |workers: usize, i: usize| -> SnowflakeSolution {
        let config = SolverConfig::hybrid()
            .with_seed(seed + i as u64)
            .with_workers(workers);
        solve_snowflake(data.relations.clone(), &steps, &config)
            .expect("solver never fails with augmentation on")
    };
    // Interleave the arms (and alternate which goes first per run) so
    // allocator/cache drift over the sweep biases neither column — running
    // all serial solves first consistently flattered whichever arm ran
    // earlier.
    let mut serial: Vec<SnowflakeSolution> = Vec::with_capacity(runs.max(1));
    let mut parallel: Vec<SnowflakeSolution> = Vec::with_capacity(runs.max(1));
    for i in 0..runs.max(1) {
        if i % 2 == 0 {
            serial.push(solve_one(1, i));
            parallel.push(solve_one(workers, i));
        } else {
            parallel.push(solve_one(workers, i));
            serial.push(solve_one(1, i));
        }
    }
    for (run, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        for (st, pt) in s.tables.iter().zip(&p.tables) {
            assert!(
                cextend_table::relations_equal_ordered(st, pt),
                "{name} run {run}: relation {} diverged between 1 and {workers} workers",
                st.name()
            );
        }
        assert_eq!(
            s.total_stats().counters,
            p.total_stats().counters,
            "{name} run {run}: solve counters diverged between 1 and {workers} workers"
        );
    }
    let mut timings = level_timings(name, ("serial", 1), &serial, &steps);
    timings.extend(level_timings(
        name,
        ("parallel", workers),
        &parallel,
        &steps,
    ));
    timings
}

/// The scale label the sweep runs a workload at: its *largest* (the other
/// perf records use label 1). A scheduler comparison needs steps that cost
/// more than the worker pool's spawn overhead, or the parallel column only
/// measures thread startup jitter.
pub fn sweep_label(meta: &cextend_workloads::WorkloadMeta) -> u32 {
    meta.scale_labels.iter().copied().max().unwrap_or(1)
}

/// Solves per arm: at least three even when `--runs 1`. The level walls
/// are minima, and a single sample per arm would turn the
/// serial-vs-parallel comparison into a scheduling-jitter coin flip.
pub fn sweep_runs(opts: &ExperimentOpts) -> usize {
    opts.runs.max(3)
}

/// All multi-step workloads' sweep timings. A `--workload spec:<path>`
/// selection joins the sweep when its schema graph has ≥ 2 steps, keyed
/// under its `spec:<name>` meta name.
pub fn sweep_all(opts: &ExperimentOpts) -> Vec<LevelTiming> {
    let mut out = Vec::new();
    let mut sweep: Vec<(Box<dyn Workload>, String)> = all_workloads()
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
        if meta.n_steps() < 2 {
            continue;
        }
        let sub = ExperimentOpts {
            workload: selector,
            ..opts.clone()
        };
        let data = sub.dataset(sweep_label(&meta), None, 0);
        out.extend(sweep_workload(
            workload.as_ref(),
            &data,
            sub.n_ccs,
            sub.seed,
            sweep_runs(opts),
            opts.workers,
        ));
    }
    out
}

/// Runs the `sched` experiment: the star-vs-chain table plus the
/// equivalence assertion.
pub fn run(opts: &ExperimentOpts) {
    let mut table = Table::new(
        "sched",
        &format!(
            "Step scheduler — 1 vs {} workers, wall per level (min of {} runs, factor {})",
            opts.workers,
            opts.runs.max(3),
            opts.scale_factor
        ),
        &[
            "Workload", "Mode", "Level", "Steps", "R1", "CCs", "phase I", "phase II", "wall",
            "speedup", "DC err",
        ],
    );
    let timings = sweep_all(opts);
    for t in &timings {
        assert_eq!(
            t.dc_error, 0.0,
            "Proposition 5.5 violated on {} level {}",
            t.workload, t.level
        );
        let speedup = if t.mode == "parallel" {
            let serial = timings
                .iter()
                .find(|s| s.workload == t.workload && s.level == t.level && s.mode == "serial")
                .expect("serial twin exists");
            format!("{:.2}x", serial.wall_s / t.wall_s.max(1e-9))
        } else {
            "-".to_owned()
        };
        table.push(vec![
            t.workload.clone(),
            format!(
                "{}{}",
                t.mode,
                if t.parallel { "*" } else { "" } // * = actually concurrent
            ),
            t.level.to_string(),
            t.step_labels.join(" + "),
            t.n_r1.to_string(),
            t.n_ccs.to_string(),
            fmt_s(t.phase1_s),
            fmt_s(t.phase2_s),
            fmt_s(t.wall_s),
            speedup,
            fmt_err(t.dc_error),
        ]);
    }
    // `Table::emit` would stamp the snapshot with the CLI-selected
    // workload (default census) and its knobs — none of which describe
    // this cross-workload sweep. Render the table but write a snapshot
    // carrying the sweep's *actual* parameters: the per-workload scale
    // labels and resolved knob maps, and the effective (min-of) run count.
    println!("{}", table.render());
    if let Some(dir) = &opts.out_dir {
        let mut scale_labels: BTreeMap<String, u32> = BTreeMap::new();
        let mut knobs: BTreeMap<String, BTreeMap<String, i64>> = BTreeMap::new();
        for workload in all_workloads() {
            let meta = workload.meta();
            if meta.n_steps() < 2 {
                continue;
            }
            let sub = ExperimentOpts {
                workload: meta.name.to_owned(),
                ..opts.clone()
            };
            scale_labels.insert(meta.name.to_owned(), sweep_label(&meta));
            knobs.insert(meta.name.to_owned(), sub.resolved_knobs());
        }
        let snapshot = SchedSnapshot {
            id: "sched".to_owned(),
            title: table.title.clone(),
            scale_factor: opts.scale_factor,
            n_ccs: opts.n_ccs,
            runs: sweep_runs(opts),
            seed: opts.seed,
            scale_labels,
            knobs,
            records: timings.iter().map(SchedRecord::from).collect(),
        };
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join("sched.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&snapshot).expect("serialize"),
        )
        .expect("write snapshot");
        println!("[snapshot written to {}]\n", path.display());
    }
    println!(
        "[sched equivalence: relations at 1 and {} workers bit-identical on every run]\n",
        opts.workers
    );
}

/// The `sched.json` snapshot: the sweep's actual parameters (per-workload
/// scale labels and resolved knobs — `Table::emit`'s single-workload stamp
/// cannot describe a cross-workload sweep) plus one record per level × arm.
#[derive(Debug, Serialize)]
struct SchedSnapshot {
    /// Experiment id.
    id: String,
    /// Human title.
    title: String,
    /// Scale factor applied to the per-workload labels.
    scale_factor: f64,
    /// CC-set size requested per step.
    n_ccs: usize,
    /// Effective solves per arm (walls are minima over these).
    runs: usize,
    /// Base RNG seed.
    seed: u64,
    /// Scale label each workload's sweep ran at.
    scale_labels: BTreeMap<String, u32>,
    /// Resolved knob map per swept workload.
    knobs: BTreeMap<String, BTreeMap<String, i64>>,
    /// One record per workload × arm × level.
    records: Vec<SchedRecord>,
}

/// One serialized sweep record.
#[derive(Debug, Serialize)]
struct SchedRecord {
    /// Workload name.
    workload: String,
    /// Arm label (`serial` / `parallel`).
    mode: String,
    /// Worker width the arm solved at.
    workers: usize,
    /// Level index in execution order.
    level: usize,
    /// `Owner→Target` labels of the level's steps.
    steps: Vec<String>,
    /// Whether the level's steps actually ran concurrently.
    parallel: bool,
    /// Summed `R1` rows across the level's steps.
    n_r1: usize,
    /// Summed `R2` rows across the level's steps.
    n_r2: usize,
    /// Summed CC-set size across the level's steps.
    n_ccs: usize,
    /// Summed Phase I seconds.
    phase1_s: f64,
    /// Summed Phase II seconds.
    phase2_s: f64,
    /// Level wall seconds (minimum over the sweep's runs).
    wall_s: f64,
    /// Pooled median relative CC error.
    cc_median: f64,
    /// Worst DC error across the level's steps.
    dc_error: f64,
}

impl From<&LevelTiming> for SchedRecord {
    fn from(t: &LevelTiming) -> SchedRecord {
        SchedRecord {
            workload: t.workload.clone(),
            mode: t.mode.to_owned(),
            workers: t.workers,
            level: t.level,
            steps: t.step_labels.clone(),
            parallel: t.parallel,
            n_r1: t.n_r1,
            n_r2: t.n_r2,
            n_ccs: t.n_ccs,
            phase1_s: t.phase1_s,
            phase2_s: t.phase2_s,
            wall_s: t.wall_s,
            cc_median: t.cc_median,
            dc_error: t.dc_error,
        }
    }
}
