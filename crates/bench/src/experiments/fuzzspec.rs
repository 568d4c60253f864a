//! `fuzz-spec` — the well-typed spec fuzzer behind the differential
//! oracles — and `spec-check`, the corpus gate.
//!
//! `fuzz-spec` generates `--iters` random workload specs (each a ≥3-wide
//! star whose first dimension heads a multi-hop chain), lowers each
//! through the full parse → check → lower pipeline, and solves it at 1, 2
//! and 4 workers, demanding bit-identical tables and solve counters. It also checks that
//! the conflict builder produces the naive reference's edge set, and that
//! the membership kernel counts every CC as `count_in` does, on every
//! step's ground-truth view. Any divergence, solver error or self-rejected
//! spec fails the run. The run also asserts coverage:
//! at least one generated schedule must have ≥ 3 levels and a ≥ 3-wide
//! level, so the oracles demonstrably exercised both chain scheduling and
//! star parallelism.
//!
//! `spec-check` parses + statically checks every `specs/*.spec` and
//! asserts every `specs/bad/*.spec` is rejected by the checker.

use crate::harness::ExperimentOpts;
use cextend_spec::{fuzz_workload, iteration_seed, run_differential_oracles};
use std::path::{Path, PathBuf};

/// Runs the spec fuzzer + differential oracles for `opts.iters`
/// iterations at base seed `opts.seed`.
pub fn run(opts: &ExperimentOpts) -> Result<(), String> {
    // Generated specs are tiny (≤ 60 fact rows), so a handful of CCs per
    // step fully exercises both solver phases; a large `--n-ccs` would
    // only repeat pool samples 25 times over.
    let n_ccs = opts.n_ccs.min(24);
    println!(
        "## fuzz-spec — {} iterations, base seed {}, {} CCs/step",
        opts.iters, opts.seed, n_ccs
    );
    let (mut best_levels, mut best_width) = (0usize, 0usize);
    for iter in 0..opts.iters {
        let workload = fuzz_workload(opts.seed, iter).map_err(|e| {
            format!("iteration {iter}: generated spec failed its own static checks: {e}")
        })?;
        let out = run_differential_oracles(&workload, iteration_seed(opts.seed, iter), n_ccs)
            .map_err(|e| format!("iteration {iter}: {e}"))?;
        println!(
            "  [{iter:>2}] {}: {} steps, {} levels, widest level {} — all oracles ok",
            out.name, out.n_steps, out.levels, out.max_width
        );
        best_levels = best_levels.max(out.levels);
        best_width = best_width.max(out.max_width);
    }
    if best_levels < 3 || best_width < 3 {
        return Err(format!(
            "fuzz-spec coverage miss: deepest schedule {best_levels} levels, widest level \
             {best_width} (need ≥ 3 of each across the run)"
        ));
    }
    println!(
        "\nfuzz-spec: {} iterations green — builder ≡ naive edge sets, kernel ≡ count_in CC \
         counts and 1 ≡ 2 ≡ 4 workers on every spec (deepest schedule {best_levels} levels, \
         widest level {best_width})",
        opts.iters
    );
    Ok(())
}

/// Parses + checks the committed corpus: every `specs/*.spec` must pass
/// the static checker, every `specs/bad/*.spec` must be rejected.
pub fn check_corpus(_opts: &ExperimentOpts) -> Result<(), String> {
    let good = spec_files(Path::new("specs"))?;
    if good.is_empty() {
        return Err("specs/: no .spec files found (run from the repo root)".to_owned());
    }
    for path in &good {
        cextend_spec::load_workload(path).map_err(|e| e.to_string())?;
        println!("  ok      {}", path.display());
    }
    let bad = spec_files(Path::new("specs/bad"))?;
    for path in &bad {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        match cextend_spec::parse_spec(&src, &path.display().to_string()) {
            Ok(_) => {
                return Err(format!(
                    "{}: expected the checker to reject this spec, but it passed",
                    path.display()
                ))
            }
            Err(e) => println!("  reject  {e}"),
        }
    }
    println!(
        "\nspec-check: {} corpus specs ok, {} negative specs rejected",
        good.len(),
        bad.len()
    );
    Ok(())
}

/// The `.spec` files directly under `dir`, sorted for stable output.
fn spec_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "spec"))
        .collect();
    out.sort();
    Ok(out)
}
