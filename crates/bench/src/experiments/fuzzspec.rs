//! `fuzz-spec` — the well-typed spec fuzzer behind the differential
//! oracles — and `spec-check`, the corpus gate.
//!
//! `fuzz-spec` generates `--iters` random workload specs (each a ≥3-wide
//! star whose first dimension heads a multi-hop chain), lowers each
//! through the full parse → check → lower pipeline, and solves it at 1, 2
//! and 4 workers, demanding bit-identical tables and solve counters. It also checks that
//! the conflict builder produces the naive reference's edge set, and that
//! the membership kernel counts every CC as `count_in` does, on every
//! step's ground-truth view, and that the certifier (`metrics::evaluate`)
//! agrees with both references on every step's ground-truth completion
//! and on a copy with a perturbed FK column. Any divergence, solver error
//! or self-rejected spec fails the run. The run also asserts coverage:
//! at least one generated schedule must have ≥ 3 levels and a ≥ 3-wide
//! level, so the oracles demonstrably exercised both chain scheduling and
//! star parallelism, some perturbed completion must violate a DC and
//! miss a CC, so the certifier arm was never vacuous, and the edge-set
//! arm must have driven some explicit pair DC or enumeration depth by an
//! `=` atom and some by an ordering atom, emitted at least one capacity
//! group and routed at least one capacity-shaped DC to explicit edges,
//! and routed at least one pair DC to window groups and kept at least one
//! pair DC with one binary atom on explicit edges, so both driver kinds,
//! both capacity routes and both routes of a window-shaped pair met the
//! naive reference. Its classification arm checks
//! the compiled CC relationship matrix against per-pair `classify` on
//! every step's CCs, and must have met disjoint, contained-in and
//! intersecting pairs. Its Phase I arm checks Algorithm 2, leftover
//! completion and random completion against their scalar oracles on every
//! step's ground-truth instance with the FK erased, and must have met at
//! least one row Algorithm 2 left partially pinned, so the completion
//! passes were compared on rows that agree with their combo on some CC
//! columns only.
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
    let (mut dc_error, mut cc_error) = (0.0f64, 0.0f64);
    let (mut index_hash, mut index_sorted) = (0usize, 0usize);
    let (mut capacity_groups, mut capacity_edge_dcs) = (0usize, 0usize);
    let (mut window_dcs, mut atom_pair_edge_dcs) = (0usize, 0usize);
    let (mut disjoint, mut equal, mut contained, mut intersecting) =
        (0usize, 0usize, 0usize, 0usize);
    let mut partially_pinned = 0usize;
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
        dc_error = dc_error.max(out.perturbed_dc_error);
        cc_error = cc_error.max(out.perturbed_cc_error);
        index_hash += out.index_hash;
        index_sorted += out.index_sorted;
        capacity_groups += out.capacity_groups;
        capacity_edge_dcs += out.capacity_edge_dcs;
        window_dcs += out.window_dcs;
        atom_pair_edge_dcs += out.atom_pair_edge_dcs;
        disjoint += out.disjoint_pairs;
        equal += out.equal_pairs;
        contained += out.contained_pairs;
        intersecting += out.intersecting_pairs;
        partially_pinned += out.partially_pinned_rows;
    }
    if best_levels < 3 || best_width < 3 {
        return Err(format!(
            "fuzz-spec coverage miss: deepest schedule {best_levels} levels, widest level \
             {best_width} (need ≥ 3 of each across the run)"
        ));
    }
    if dc_error == 0.0 || cc_error == 0.0 {
        return Err(format!(
            "fuzz-spec certifier arm was vacuous: the perturbed completions reached DC error \
             {dc_error} and CC error {cc_error} (need both > 0 across the run)"
        ));
    }
    if index_hash == 0 || index_sorted == 0 {
        return Err(format!(
            "fuzz-spec edge-set arm never met both driver kinds: {index_hash} explicit pair \
             DCs and depths driven by `=` / {index_sorted} by an ordering atom (need both > 0 \
             across the run)"
        ));
    }
    if capacity_groups == 0 || capacity_edge_dcs == 0 {
        return Err(format!(
            "fuzz-spec edge-set arm never met both capacity routes: {capacity_groups} \
             capacity groups emitted, {capacity_edge_dcs} capacity-shaped DCs routed to \
             explicit edges (need both > 0 across the run)"
        ));
    }
    if window_dcs == 0 || atom_pair_edge_dcs == 0 {
        return Err(format!(
            "fuzz-spec edge-set arm never met both window routes: {window_dcs} pair DCs routed \
             to window groups, {atom_pair_edge_dcs} pair DCs with one binary atom kept on \
             explicit edges (need both > 0 across the run)"
        ));
    }
    if disjoint == 0 || contained == 0 || intersecting == 0 {
        return Err(format!(
            "fuzz-spec classification arm missed a relationship kind: {disjoint} disjoint, \
             {contained} contained-in and {intersecting} intersecting ordered pairs (need all \
             three > 0 across the run)"
        ));
    }
    if partially_pinned == 0 {
        return Err(
            "fuzz-spec Phase I arm never met a partially pinned row (need > 0 across the run)"
                .to_owned(),
        );
    }
    println!(
        "\nfuzz-spec: {} iterations green — builder ≡ naive edge sets ({index_hash} `=` / \
         {index_sorted} ordering drivers, {capacity_groups} capacity groups, \
         {capacity_edge_dcs} capacity-shaped DCs on edges, {window_dcs} window pairs, \
         {atom_pair_edge_dcs} one-atom pairs on edges), kernel ≡ count_in CC counts, compiled \
         matrix ≡ classify ({disjoint} disjoint, {equal} equal, {contained} contained-in, \
         {intersecting} intersecting ordered pairs), Phase I ≡ scalar oracles \
         ({partially_pinned} partially pinned rows), certifier ≡ \
         naive/kernel references on truth and perturbed completions (largest perturbed DC \
         error {dc_error:.3}, CC error {cc_error:.3}) and 1 ≡ 2 ≡ 4 workers on every spec \
         (deepest schedule {best_levels} levels, widest level {best_width})",
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
