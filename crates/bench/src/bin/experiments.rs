//! CLI for the paper-reproduction experiments, generic over workloads.

use cextend_bench::experiments;
use cextend_bench::ExperimentOpts;
use cextend_obs::narrate;
use cextend_workloads::WORKLOAD_NAMES;
use std::process::ExitCode;

const USAGE: &str = "\
usage: experiments <id>|all|sched|scale|profile|perf|perf-check|perf-trend|fuzz-spec|spec-check [options]

experiments: table1 fig8a fig8b fig9 fig10 fig11a fig11b fig12 fig13 ablate
             sched (star-vs-chain step-scheduler sweep: 1 worker vs
                   --workers, wall per level on every multi-step workload,
                   asserting both widths produce bit-identical relations)
             fuzz-spec (generates --iters random well-typed workload specs
                   and runs each through the differential oracles:
                   1 ≡ 2 ≡ 4 worker bit-identity, plus conflict builder ≡
                   naive reference edge sets on every step; fails on any
                   divergence)
             spec-check (parses + statically checks every spec under
                   specs/, and asserts every specs/bad/*.spec is rejected)
             scale (paper-scale runs: census at 40x and dcdense at 62.5x —
                   both >=10^6 R1 tuples under --paper-scale — at
                   --workers; writes a wall + per-stage + peak-RSS
                   `scale` section into <out>/BENCH_perf.json, keeping its
                   `perf` section, and appends a \"kind\":\"scale\" line
                   to BENCH_history.jsonl;
                   CEXTEND_SCALE_MAX_WALL_S / CEXTEND_SCALE_MAX_RSS_MB set
                   hard budgets for CI smoke runs)
             profile (traces one chain run of --workload with the obs
                   recorder armed: writes <out>/trace.json in the Chrome
                   Trace Event Format — open in https://ui.perfetto.dev —
                   and prints a per-stage self-time table cross-checked
                   against the StageTimings phase totals; fails on any
                   unbalanced span or non-monotone timestamp)
             perf (times the full chain on every workload — one record per
                   completion step plus per scheduler level at 1 worker
                   and at --workers — writes the `perf` section of
                   <out>/BENCH_perf.json, keeping its `scale` section, and
                   appends a \"kind\":\"perf\" line to BENCH_history.jsonl)
             perf-check (compares <out>/BENCH_perf.json against --baseline
                   section by section: fails on a >3x wall-time regression
                   of any shared perf record, and compares scale sections
                   run at equal parameters; ignores BENCH_history.jsonl)
             perf-trend (renders the per-record wall-time trend over the
                   accumulated --history lines; writes <out>/perf_trend.md)

options:
  --workload W       scenario to drive: census (default), retail, supply
                     (3-relation chain: orders→stores→regions), logistics
                     (branching star: shipments→{warehouses,carriers}),
                     dcdense (adversarial DC-dense events→slots), or
                     spec:<path> — a checked workload-spec file
                     (e.g. spec:specs/supply.spec)
  --workers N        worker-pool width of every solve (a positive integer):
                     independent chain steps, sharded Phase I completion
                     and the Phase II partition pipeline; 1 runs inline,
                     and results are bit-identical at every width
                     (default: CEXTEND_SCHED_WORKERS when set, else the
                     machine's available parallelism)
  --scale-factor F   multiply the workload's scale labels by F (default 0.02)
  --paper-scale      shorthand for --scale-factor 1.0 (hours of runtime!)
  --n-ccs N          CC-set size (default 150; the paper uses 1001)
  --knob NAME=V      workload-owned generator knob (census: areas; retail &
                     supply: regions, max-group; logistics: districts,
                     max-group; dcdense: tracks, rooms, max-group);
                     repeatable
  --n-areas N        alias for --knob areas=N (census)
  --runs R           independent runs to average (default 3)
  --seed S           base RNG seed (default 7)
  --iters N          fuzz-spec iterations (default 25)
  --out DIR          write JSON snapshots to DIR
  --baseline FILE    committed perf baseline for perf-check
                     (default: ./BENCH_perf.json; its `scale` section is
                     compared too when parameters match)
  --history FILE     BENCH_history.jsonl for perf-trend
                     (default: ./BENCH_history.jsonl, the committed file)
  --label L          build label stamped into BENCH_history.jsonl records
                     (git-describe-ish; default: dev)
  --stamp S          timestamp stamped into BENCH_history.jsonl records
                     (default: unstamped — the harness never reads clocks)
";

fn parse(args: &[String]) -> Result<(Vec<String>, ExperimentOpts), String> {
    let mut opts = ExperimentOpts::default();
    let mut ids = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut take = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = take("--workload")?;
                if let Some(path) = name.strip_prefix("spec:") {
                    // Parse + statically check the spec up front, so a bad
                    // file is a clean CLI error rather than a panic later.
                    cextend_spec::load_workload(std::path::Path::new(path))
                        .map_err(|e| e.to_string())?;
                } else if !WORKLOAD_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}`; known: {WORKLOAD_NAMES:?} or spec:<path>"
                    ));
                }
                opts.workload = name;
            }
            "--scale-factor" => {
                opts.scale_factor = take("--scale-factor")?
                    .parse()
                    .map_err(|e| format!("bad --scale-factor: {e}"))?
            }
            "--paper-scale" => opts.scale_factor = 1.0,
            "--n-ccs" => {
                opts.n_ccs = take("--n-ccs")?
                    .parse()
                    .map_err(|e| format!("bad --n-ccs: {e}"))?
            }
            "--knob" => {
                let kv = take("--knob")?;
                let (name, value) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("bad --knob `{kv}`: expected NAME=VALUE"))?;
                let value: i64 = value
                    .parse()
                    .map_err(|e| format!("bad --knob value in `{kv}`: {e}"))?;
                opts.knobs.insert(name.to_owned(), value);
            }
            "--n-areas" => {
                let n: i64 = take("--n-areas")?
                    .parse()
                    .map_err(|e| format!("bad --n-areas: {e}"))?;
                opts.knobs.insert("areas".to_owned(), n);
            }
            "--runs" => {
                opts.runs = take("--runs")?
                    .parse()
                    .map_err(|e| format!("bad --runs: {e}"))?
            }
            "--seed" => {
                opts.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--iters" => {
                opts.iters = take("--iters")?
                    .parse()
                    .map_err(|e| format!("bad --iters: {e}"))?
            }
            "--workers" => {
                let n = take("--workers")?;
                opts.workers =
                    n.parse().ok().filter(|&w: &usize| w >= 1).ok_or_else(|| {
                        format!("bad --workers `{n}`: expected a positive integer")
                    })?
            }
            "--out" => opts.out_dir = Some(take("--out")?.into()),
            "--baseline" => opts.baseline = Some(take("--baseline")?.into()),
            "--history" => opts.history = Some(take("--history")?.into()),
            "--label" => opts.label = take("--label")?,
            "--stamp" => opts.stamp = take("--stamp")?,
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n\n{USAGE}"))
            }
            id => ids.push(id.to_owned()),
        }
        i += 1;
    }
    if ids.is_empty() {
        return Err(USAGE.to_owned());
    }
    // Validate knob names against the selected workload's published set —
    // or every workload's, when `perf`, `sched` or `scale` is requested
    // (they sweep across workloads).
    // `opts.workload()` handles both registry names and (already-validated)
    // `spec:` paths; spec knob slices are interned, so they're 'static too.
    let mut known: Vec<&str> = opts
        .workload()
        .meta()
        .knobs
        .iter()
        .map(|(name, _)| *name)
        .collect();
    if ids
        .iter()
        .any(|id| id == "perf" || id == "sched" || id == "scale")
    {
        for w in cextend_workloads::all_workloads() {
            known.extend(w.meta().knobs.iter().map(|(name, _)| *name));
        }
        known.sort_unstable();
        known.dedup();
    }
    for name in opts.knobs.keys() {
        if !known.contains(&name.as_str()) {
            return Err(format!(
                "workload `{}` has no knob `{name}`; known: {known:?}",
                opts.workload
            ));
        }
    }
    Ok((ids, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ids, opts) = match parse(&args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let ids: Vec<String> = if ids.len() == 1 && ids[0] == "all" {
        experiments::ALL.iter().map(|s| (*s).to_owned()).collect()
    } else {
        ids
    };
    let knobs = opts
        .knobs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",");
    // Progress narration goes to stderr (the obs human sink) so stdout
    // carries only the machine-readable tables.
    narrate!(
        "# cextend experiments — workload={}, scale_factor={}, n_ccs={}, runs={}, seed={}, workers={}{}\n",
        opts.workload,
        opts.scale_factor,
        opts.n_ccs,
        opts.runs,
        opts.seed,
        opts.workers,
        if knobs.is_empty() {
            String::new()
        } else {
            format!(", knobs=[{knobs}]")
        }
    );
    for id in &ids {
        let start = std::time::Instant::now();
        if let Err(msg) = experiments::run(id, &opts) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
        narrate!("[{id} finished in {:?}]\n", start.elapsed());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn workers_takes_a_positive_integer() {
        let (_, opts) = parse(&args(&["table1", "--workers", "3"])).unwrap();
        assert_eq!(opts.workers, 3);
        for bad in ["0", "-2", "1.5", "two", ""] {
            let err = parse(&args(&["table1", "--workers", bad])).unwrap_err();
            assert_eq!(
                err,
                format!("bad --workers `{bad}`: expected a positive integer")
            );
        }
        let err = parse(&args(&["table1", "--workers"])).unwrap_err();
        assert_eq!(err, "--workers needs a value");
    }

    #[test]
    fn workers_defaults_to_the_pool_width() {
        let (_, opts) = parse(&args(&["table1"])).unwrap();
        assert_eq!(opts.workers, cextend_sched::pool_width(usize::MAX));
    }

    #[test]
    fn retired_parallelism_flags_are_unknown_options() {
        for flag in ["--scheduler", "--phase1"] {
            let err = parse(&args(&["table1", flag, "parallel"])).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown option `{flag}`")),
                "{err}"
            );
        }
    }
}
