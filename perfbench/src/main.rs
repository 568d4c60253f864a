//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload at a worker width of 2. It generates the
//! workload's instances from `--seed` one after another, solves each with
//! `cextend_core::snowflake::solve_snowflake` again and again for its share
//! of `--seconds`, and checks every output. The process's first solve warms
//! caches and is discarded. The last line of stdout is one JSON object:
//!
//! - `--trace 0`: the end-to-end metrics, recording off;
//! - `--trace 1`: the per-layer metrics, from solves that alternate between
//!   recording off and on (their ratio is the tracing overhead).
//!
//! Lines before it print the same figures for people, with units. The
//! workloads live in `specs.rs`; `README.md` maps each per-layer metric to
//! the end-to-end metric and workload it should move.

mod checks;
mod ledger;
mod specs;
mod stats;

use cextend_core::metrics::mean;
use cextend_core::snowflake::{solve_snowflake, AugmentedView, SnowflakeSolution, SnowflakeStep};
use cextend_core::{SchedulerMode, SolveStats, SolverConfig};
use cextend_obs::Trace;
use cextend_workloads::{workload_by_name, DcSet, WorkloadData};
use ledger::Ledger;
use specs::Spec;
use stats::{fit, median, quantile, supported_percentile};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Worker width every workload runs at (the reference machine has two
/// cores).
const WIDTH: &str = "2";

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

const MB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = specs::SPECS.iter().map(|s| s.name).collect();
                workload = Some(
                    specs::spec(&value)
                        .ok_or_else(|| bad(&format!("one of {}", names.join(", "))))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Set before any thread exists; the solver's pools read it per batch.
    std::env::set_var("CEXTEND_SCHED_WORKERS", WIDTH);
    let result = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// A generated instance, ready to solve.
struct Prepared {
    data: WorkloadData,
    steps: Vec<SnowflakeStep>,
    /// Seconds spent generating the data.
    generate_s: f64,
    /// Seconds spent generating CCs and DCs and building the steps.
    constraints_s: f64,
}

impl Prepared {
    /// Generates instance `seed` of the workload and builds its steps.
    fn new(spec: &Spec, seed: u64) -> Prepared {
        let workload = workload_by_name(spec.scenario).expect("benchmark scenarios are registered");
        let start = Instant::now();
        let data = workload.generate(&spec.params(seed));
        let generate_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let steps = data
            .steps
            .iter()
            .enumerate()
            .map(|(i, edge)| SnowflakeStep {
                edge: edge.clone(),
                ccs: workload.step_ccs(i, spec.family, spec.n_ccs, &data, seed),
                dcs: workload.step_dcs(i, DcSet::All),
            })
            .collect();
        Prepared {
            data,
            steps,
            generate_s,
            constraints_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Solves a fresh copy of the input once (the copy is made outside the
    /// timed region) and checks the output. Returns the solution and the
    /// wall seconds of the `solve_snowflake` call; errors, panics and
    /// failed checks all come back as `Err`.
    fn solve(&self, config: &SolverConfig) -> Result<(SnowflakeSolution, f64), String> {
        let tables = self.data.relations.clone();
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            solve_snowflake(tables, &self.steps, config)
        }));
        let wall = start.elapsed().as_secs_f64();
        let solved = match out {
            Ok(Ok(solved)) => solved,
            Ok(Err(e)) => return Err(format!("solver error: {e}")),
            Err(_) => return Err("solver panicked".to_owned()),
        };
        checks::check_solution(&self.data.relations, &self.steps, &solved)?;
        Ok((solved, wall))
    }

    /// Checks a solution a second way: a separate evaluation on an
    /// instance rebuilt from the completed tables. Returns the seconds
    /// spent inside `evaluate`.
    fn recheck(&self, solved: &SnowflakeSolution) -> Result<f64, String> {
        let (reports, evaluate_s) = checks::reevaluate(&self.data.relations, &self.steps, solved)?;
        checks::check_reevaluation(solved, &reports)?;
        Ok(evaluate_s)
    }

    /// Seconds to plan and build every step's erased augmented view over
    /// the completed tables (the solver's own view-build work, timed
    /// alone).
    fn time_view_builds(&self, solved: &SnowflakeSolution) -> f64 {
        let edges: Vec<_> = self.steps.iter().map(|s| s.edge.clone()).collect();
        let start = Instant::now();
        for (i, edge) in edges.iter().enumerate() {
            let plan = AugmentedView::plan(&solved.tables, &edges[..i], edge)
                .expect("a solved chain plans cleanly");
            std::hint::black_box(plan.build(&solved.tables, true).expect("view builds"));
        }
        start.elapsed().as_secs_f64()
    }

    fn heap_mb(&self) -> f64 {
        self.data
            .relations
            .iter()
            .map(|r| r.heap_bytes())
            .sum::<usize>() as f64
            / MB
    }
}

fn solver_config(seed: u64) -> SolverConfig {
    SolverConfig::hybrid()
        .with_seed(seed)
        .with_scheduler(SchedulerMode::Parallel)
        .with_parallel_phase1(true)
        .with_parallel_coloring(true)
}

/// What the solved chains of a run produced, pooled over steps and
/// instances.
#[derive(Clone, Debug, Default, PartialEq)]
struct Quality {
    cc_errors: Vec<f64>,
    /// Fresh `R2` tuples minted.
    fresh: usize,
    /// Input `R2` rows.
    r2_rows: usize,
    /// `R1` rows completed.
    rows: usize,
}

impl Quality {
    fn of(solved: &SnowflakeSolution) -> Quality {
        let mut q = Quality::default();
        for step in &solved.steps {
            q.cc_errors.extend_from_slice(&step.report.cc_errors);
            q.fresh += step.stats.counters.new_r2_tuples;
            q.r2_rows += step.n_r2;
            q.rows += step.n_r1;
        }
        q
    }

    fn absorb(&mut self, other: &Quality) {
        self.cc_errors.extend_from_slice(&other.cc_errors);
        self.fresh += other.fresh;
        self.r2_rows += other.r2_rows;
        self.rows += other.rows;
    }

    fn cc_mean_err(&self) -> f64 {
        mean(&self.cc_errors)
    }

    fn cc_median_err(&self) -> f64 {
        cextend_core::metrics::median(&self.cc_errors)
    }

    fn new_r2_frac(&self) -> f64 {
        self.fresh as f64 / self.r2_rows.max(1) as f64
    }
}

/// Counts every solve attempted and the ones that failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => self.fail(&e),
        }
    }

    fn fail<T>(&mut self, why: &str) -> Option<T> {
        self.failed += 1;
        eprintln!("perfbench: solve {} failed: {why}", self.attempted);
        None
    }
}

/// What a run prints last.
struct RunResult {
    tally: Tally,
    /// `(name, value, unit)`, in declaration order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let correct = self.tally.failed == 0
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.1.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_owned()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `f` at least once, and again while one more average-length call
/// still ends within `seconds`.
fn for_seconds(seconds: f64, mut f: impl FnMut()) {
    let start = Instant::now();
    for calls in 1.. {
        f();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(calls) > seconds {
            break;
        }
    }
}

/// Generates the workload's instances one at a time (only one is alive
/// at a time) and hands each to `measure` with its share of `--seconds`.
/// The peak RSS is reset after each generation, so it covers solving only.
/// Returns the `(generate_s, constraints_s)` of at least [`MIN_SETUPS`]
/// set-ups: a workload with fewer instances first sets its first instance
/// up a few extra times and throws those copies away.
fn for_each_instance(args: &Args, mut measure: impl FnMut(&Prepared, f64)) -> Vec<(f64, f64)> {
    let spec = &args.workload;
    let share = args.seconds / spec.instances as f64;
    let mut setups: Vec<(f64, f64)> = (spec.instances..MIN_SETUPS)
        .map(|_| {
            let p = Prepared::new(spec, specs::instance_seed(args.seed, 0));
            (p.generate_s, p.constraints_s)
        })
        .collect();
    for j in 0..spec.instances {
        let prepared = Prepared::new(spec, specs::instance_seed(args.seed, j));
        cextend_table::reset_peak_rss();
        measure(&prepared, share);
        setups.push((prepared.generate_s, prepared.constraints_s));
    }
    setups
}

fn peak_rss_mb() -> f64 {
    cextend_table::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / MB)
}

/// The end-to-end run: recording off throughout.
fn timed_run(args: &Args) -> RunResult {
    let spec = &args.workload;
    let config = solver_config(args.seed);
    let mut tally = Tally::default();
    let mut warmed = false;
    let mut quality = Quality::default();
    let mut medians = Vec::new();
    let mut walls = Vec::new();
    let mut peak_mb = 0.0f64;

    let setups = for_each_instance(args, |p, share| {
        if !warmed {
            // The process's first solve: checked a second way, then dropped.
            warmed = true;
            tally.record(p.solve(&config).and_then(|(solved, _)| p.recheck(&solved)));
        }
        let mut own_walls = Vec::new();
        let mut own_quality: Option<Quality> = None;
        for_seconds(share, || {
            let Some((solved, wall)) = tally.record(p.solve(&config)) else {
                return;
            };
            own_walls.push(wall);
            let q = Quality::of(&solved);
            if own_quality.as_ref().is_some_and(|known| *known != q) {
                tally.fail::<()>("output quality changed between identical solves");
            }
            own_quality = Some(q);
        });
        if let Some(q) = own_quality {
            quality.absorb(&q);
        }
        eprintln!("perfbench: instance solve walls {own_walls:.4?}");
        medians.push(median(&own_walls));
        walls.extend(own_walls);
        peak_mb = peak_mb.max(peak_rss_mb());
    });

    let setup_s = median(&setups.iter().map(|(g, c)| g + c).collect::<Vec<_>>());
    let solve_s = mean(&medians);
    let rows_per_s = quality.rows as f64 / medians.iter().sum::<f64>();
    let failed_frac = tally.failed as f64 / tally.attempted as f64;

    println!(
        "perfbench {} seed {} width {WIDTH}: {} instances, {} timed solves after 1 discarded \
         warm-up",
        spec.name,
        args.seed,
        spec.instances,
        walls.len()
    );
    let tail = match supported_percentile(walls.len()) {
        Some(p) => format!("p{p} {:.4} s", quantile(&walls, f64::from(p) / 100.0)),
        None => "no percentile has ten solves beyond it".to_owned(),
    };
    let solve_note = format!(
        "mean over {} instances of each one's median; pooled n={}, median {:.4} s, {tail}",
        spec.instances,
        walls.len(),
        median(&walls)
    );
    let rows_note = format!("{} R1 rows over the instances", quality.rows);
    let setup_note = format!("median of {} set-ups", setups.len());
    let failed_note = format!("{} of {} solves", tally.failed, tally.attempted);
    for (name, value, unit, note) in [
        ("solve_s", solve_s, "s", solve_note.as_str()),
        ("rows_per_s", rows_per_s, "rows/s", rows_note.as_str()),
        ("setup_s", setup_s, "s", setup_note.as_str()),
        ("peak_rss_mb", peak_mb, "MB", "VmHWM while solving"),
        (
            "cc_mean_err",
            quality.cc_mean_err(),
            "frac",
            "pooled over steps",
        ),
        (
            "cc_median_err",
            quality.cc_median_err(),
            "frac",
            "pooled over steps",
        ),
        (
            "new_r2_frac",
            quality.new_r2_frac(),
            "frac",
            "fresh R2 / input R2",
        ),
        ("failed_frac", failed_frac, "frac", failed_note.as_str()),
    ] {
        println!("  {name:<14} {value:>16.6} {unit:<6} {note}");
    }

    RunResult {
        metrics: vec![
            ("solve_s", solve_s, "s"),
            ("rows_per_s", rows_per_s, "rows/s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_mb, "MB"),
            ("cc_mean_fit", fit(quality.cc_mean_err()), "score"),
            ("cc_median_fit", fit(quality.cc_median_err()), "score"),
            ("r2_growth", 1.0 + quality.new_r2_frac(), "ratio"),
            ("ok_frac", 1.0 - failed_frac, "frac"),
        ],
        tally,
    }
}

/// One traced solve.
struct TracedSolve {
    wall_s: f64,
    ledger: Ledger,
    stats: SolveStats,
    counters: BTreeMap<String, u64>,
    /// `R1` rows completed.
    rows: usize,
}

/// What the traced run measured on one instance.
#[derive(Default)]
struct InstanceLedger {
    plain: Vec<f64>,
    traced: Vec<TracedSolve>,
    view_build_s: f64,
    evaluate_s: f64,
    heap_mb: f64,
}

/// Runs `solve` with span and counter recording on, returning its result
/// and the validated trace.
fn traced<T>(solve: impl FnOnce() -> Result<T, String>) -> Result<(T, Trace), String> {
    let _ = cextend_obs::take_trace();
    cextend_obs::set_recording(true);
    cextend_obs::label_thread("main");
    let out = solve();
    cextend_obs::set_recording(false);
    let trace = cextend_obs::take_trace();
    let out = out?;
    trace.validate().map_err(|e| format!("trace: {e}"))?;
    Ok((out, trace))
}

/// The per-layer run: untraced and traced solves alternate, so both see
/// the same machine state; the traced ones give the ledger.
fn traced_run(args: &Args) -> RunResult {
    let spec = &args.workload;
    let config = solver_config(args.seed);
    let mut tally = Tally::default();
    let mut cold_solve_s = f64::NAN;
    let mut peak_mb = 0.0f64;
    let mut instances: Vec<InstanceLedger> = Vec::new();

    let setups = for_each_instance(args, |p, share| {
        if cold_solve_s.is_nan() {
            if let Some((_, wall)) = tally.record(p.solve(&config)) {
                cold_solve_s = wall;
            }
        }
        let mut own = InstanceLedger {
            heap_mb: p.heap_mb(),
            ..InstanceLedger::default()
        };
        let mut last = None;
        let mut traced_first = false;
        for_seconds(share, || {
            // Which of the pair goes first alternates, so neither mode
            // always follows the other.
            traced_first = !traced_first;
            for trace_now in [traced_first, !traced_first] {
                if !trace_now {
                    if let Some((_, wall)) = tally.record(p.solve(&config)) {
                        own.plain.push(wall);
                    }
                } else if let Some(((solved, wall), trace)) =
                    tally.record(traced(|| p.solve(&config)))
                {
                    own.traced.push(TracedSolve {
                        wall_s: wall,
                        ledger: Ledger::from_trace(&trace),
                        stats: solved.total_stats(),
                        counters: trace.counters,
                        rows: Quality::of(&solved).rows,
                    });
                    last = Some(solved);
                }
            }
        });
        if let Some(solved) = &last {
            own.view_build_s = p.time_view_builds(solved);
            own.evaluate_s = tally.record(p.recheck(solved)).unwrap_or(f64::NAN);
        }
        peak_mb = peak_mb.max(peak_rss_mb());
        instances.push(own);
    });

    // Every figure is a per-instance median over its traced solves (or a
    // per-instance value), averaged over the instances.
    let per_instance = |f: &dyn Fn(&TracedSolve) -> f64| {
        mean(
            &instances
                .iter()
                .map(|i| median(&i.traced.iter().map(f).collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
        )
    };
    let of_instances =
        |f: &dyn Fn(&InstanceLedger) -> f64| mean(&instances.iter().map(f).collect::<Vec<_>>());
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let counter = |t: &TracedSolve, name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
    let rows = |t: &TracedSolve| t.rows.max(1) as f64;
    let width = cextend_sched::pool_width(usize::MAX) as f64;
    let phase2_cpu = |t: &TracedSolve| {
        let s = &t.stats.timings;
        secs(s.conflict_build + s.coloring + s.invalid_handling)
    };
    let heap_mb = of_instances(&|i| i.heap_mb);
    let traced_s = per_instance(&|t| t.wall_s);
    let plain_s = of_instances(&|i| median(&i.plain));
    let setup_median =
        |f: fn(&(f64, f64)) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("cold_solve_s", cold_solve_s, "s"),
        ("workloads.generate_s", setup_median(|s| s.0), "s"),
        ("workloads.constraints_s", setup_median(|s| s.1), "s"),
        (
            "snowflake.view_build_s",
            of_instances(&|i| i.view_build_s),
            "s",
        ),
        (
            "snowflake.step_overhead_s",
            per_instance(&|t| t.ledger.step_overhead_s()),
            "s",
        ),
        (
            "snowflake.unattributed_frac",
            per_instance(&|t| t.ledger.unattributed_frac()),
            "frac",
        ),
        (
            "phase1.pairwise_s",
            per_instance(&|t| secs(t.stats.timings.pairwise_comparison)),
            "s",
        ),
        (
            "phase1.hasse_s",
            per_instance(&|t| secs(t.stats.timings.recursion)),
            "s",
        ),
        (
            "phase1.leftovers_s",
            per_instance(&|t| secs(t.stats.timings.leftovers)),
            "s",
        ),
        (
            "phase1.repair_s",
            per_instance(&|t| secs(t.stats.timings.repair)),
            "s",
        ),
        (
            "phase1.fill_s",
            per_instance(&|t| secs(t.stats.timings.fill)),
            "s",
        ),
        (
            "phase1.s1_ccs",
            per_instance(&|t| t.stats.counters.s1_ccs as f64),
            "count",
        ),
        (
            "phase1.s2_ccs",
            per_instance(&|t| t.stats.counters.s2_ccs as f64),
            "count",
        ),
        (
            "phase1.hasse_rows_frac",
            per_instance(&|t| t.stats.counters.hasse_assigned_rows as f64 / rows(t)),
            "frac",
        ),
        (
            "phase1.repair_moves",
            per_instance(&|t| t.stats.counters.repair_moves as f64),
            "count",
        ),
        (
            "phase1.invalid_rows",
            per_instance(&|t| t.stats.counters.invalid_tuples as f64),
            "count",
        ),
        (
            "ilp.build_s",
            per_instance(&|t| secs(t.stats.timings.ilp_build)),
            "s",
        ),
        (
            "ilp.solve_s",
            per_instance(&|t| secs(t.stats.timings.ilp_solve)),
            "s",
        ),
        (
            "ilp.vars",
            per_instance(&|t| t.stats.counters.ilp_vars as f64),
            "count",
        ),
        (
            "ilp.rows",
            per_instance(&|t| t.stats.counters.ilp_rows as f64),
            "count",
        ),
        (
            "ilp.nodes",
            per_instance(&|t| t.stats.counters.ilp_nodes as f64),
            "count",
        ),
        (
            "ilp.rounded",
            per_instance(&|t| f64::from(u8::from(t.stats.counters.ilp_rounded))),
            "frac",
        ),
        (
            "phase2.conflict_cpu_s",
            per_instance(&|t| secs(t.stats.timings.conflict_build)),
            "cpu_s",
        ),
        (
            "phase2.coloring_cpu_s",
            per_instance(&|t| secs(t.stats.timings.coloring)),
            "cpu_s",
        ),
        (
            "phase2.invalid_s",
            per_instance(&|t| secs(t.stats.timings.invalid_handling)),
            "s",
        ),
        (
            "phase2.wall_s",
            per_instance(&|t| t.ledger.phase2_wall_s),
            "s",
        ),
        (
            "phase2.partitions",
            per_instance(&|t| t.stats.counters.partitions as f64),
            "count",
        ),
        (
            "phase2.conflict_edges",
            per_instance(&|t| t.stats.counters.conflict_edges as f64),
            "count",
        ),
        (
            "phase2.dedup_hit_ratio",
            per_instance(&|t| {
                let hits = counter(t, "phase2.dedup_hits");
                hits / (hits + t.stats.counters.conflict_edges as f64).max(1.0)
            }),
            "frac",
        ),
        (
            "phase2.index_hash",
            per_instance(&|t| counter(t, "phase2.index_hash")),
            "count",
        ),
        (
            "phase2.index_sorted",
            per_instance(&|t| counter(t, "phase2.index_sorted")),
            "count",
        ),
        (
            "phase2.index_scan",
            per_instance(&|t| counter(t, "phase2.index_scan")),
            "count",
        ),
        (
            "phase2.scanned_candidates",
            per_instance(&|t| counter(t, "phase2.scanned_candidates")),
            "count",
        ),
        (
            "phase2.skipped_frac",
            per_instance(&|t| t.stats.counters.skipped_vertices as f64 / rows(t)),
            "frac",
        ),
        ("sched.width", width, "count"),
        (
            "sched.phase2_efficiency",
            per_instance(&|t| phase2_cpu(t) / (width * t.ledger.phase2_wall_s)),
            "frac",
        ),
        ("metrics.evaluate_s", of_instances(&|i| i.evaluate_s), "s"),
        ("table.relation_heap_mb", heap_mb, "MB"),
        ("table.rss_over_heap", peak_mb / heap_mb, "ratio"),
        ("obs.trace_overhead_frac", traced_s / plain_s - 1.0, "frac"),
    ];
    let n_traced: usize = instances.iter().map(|i| i.traced.len()).sum();
    let n_plain: usize = instances.iter().map(|i| i.plain.len()).sum();
    println!(
        "perfbench {} seed {} width {WIDTH}: ledger from {n_traced} traced and {n_plain} untraced \
         solves over {} instances (Phase II `cpu_s` figures sum worker time)",
        spec.name, args.seed, spec.instances,
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    RunResult { tally, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let ok = args(&[
            "--workload",
            "census-ilp",
            "--seed",
            "3",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("census-ilp", 3, 2.5, true)
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "census-ilp",
                "--seed",
                "-1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "census-ilp",
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "census-ilp",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "census-ilp", "--seed", "3", "--seconds", "1"],
            &["--bogus", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_follows_the_contract() {
        let result = RunResult {
            tally: Tally {
                attempted: 4,
                failed: 0,
            },
            metrics: vec![("solve_s", 1.25, "s"), ("ok_frac", 1.0, "frac")],
        };
        assert_eq!(
            result.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"ok_frac\": {\"value\": 1, \"unit\": \"frac\"}}}"
        );
        let failed = RunResult {
            tally: Tally {
                attempted: 4,
                failed: 1,
            },
            metrics: vec![("solve_s", f64::NAN, "s")],
        };
        let json = failed.to_json();
        assert!(json.starts_with("{\"correct\": false"), "{json}");
        assert!(json.contains("\"value\": null"), "{json}");
    }

    #[test]
    fn quality_pools_steps_and_instances() {
        let mut q = Quality {
            cc_errors: vec![0.0, 0.3],
            fresh: 5,
            r2_rows: 100,
            rows: 300,
        };
        q.absorb(&Quality {
            cc_errors: vec![0.0],
            fresh: 15,
            r2_rows: 100,
            rows: 200,
        });
        assert!((q.cc_mean_err() - 0.1).abs() < 1e-12);
        assert_eq!(q.cc_median_err(), 0.0);
        assert_eq!(q.new_r2_frac(), 0.1);
        assert_eq!(q.rows, 500);
        assert_eq!(Quality::default().cc_median_err(), 0.0);
    }

    #[test]
    fn for_seconds_stops_before_overrunning_and_runs_at_least_once() {
        let mut calls = 0;
        for_seconds(0.0, || calls += 1);
        assert_eq!(calls, 1);
        // 20 ms calls in a 50 ms budget: a third call would overrun it.
        let mut calls = 0;
        for_seconds(0.05, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        assert!((1..=2).contains(&calls), "{calls} calls");
    }
}
