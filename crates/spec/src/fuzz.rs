//! Well-typed spec fuzzer + differential oracles.
//!
//! [`fuzz_source`] generates a random — but statically well-formed — spec:
//! a fact with a 3–4-wide star of dimensions whose first dimension heads a
//! 2–5-hop chain, so every generated schedule has ≥ 3 levels with a
//! ≥ 3-wide first level. Good CC rows are laminar by construction (nested
//! ranges per kind, distinct kinds disjoint), DC blocks mix gap pairs,
//! exclusive pairs, a two-atom band pair, sometimes a ternary equality
//! chain and sometimes a capacity-shaped ternary over the fact-wide
//! `[0, 900]` load domain, so real conflict edges exist and the conflict
//! builder bulk-emits, enumerates and emits capacity groups.
//!
//! [`run_differential_oracles`] then solves each generated spec at 1, 2
//! and 4 workers (concurrent step levels, sharded Phase 1 completion and
//! the Phase II pipeline) and demands bit-identical tables and solve
//! counters. A fourth, edge-set arm checks that the conflict builder Phase
//! II runs produces the naive reference builder's edge set on a row window
//! of every step's ground-truth view (capacity groups expanded, and none
//! duplicating an edge), and counts the enumeration depths it drove
//! through hash buckets and sorted runs, the capacity groups it emitted
//! and the capacity-shaped DCs it kept on explicit edges; a fifth,
//! CC-count arm that the one-pass membership kernel counts every step CC
//! on that view exactly as the per-CC `count_in` reference does, and a
//! sixth, certifier arm
//! that `metrics::evaluate` reports the naive builder's DC error and the
//! kernel's CC errors on every step's ground-truth completion and on a
//! copy with a perturbed FK column
//! ([`cextend_workloads::agreement`]).

use crate::error::Result;
use crate::lower::SpecWorkload;
use cextend_constraints::cc_counts;
use cextend_core::conflict::{build_conflict_graph_naive, ConflictBuilder, DcRoute};
use cextend_core::snowflake::{solve_snowflake, SnowflakeSolution, SnowflakeStep};
use cextend_core::SolverConfig;
use cextend_table::{relations_equal_ordered, RowId};
use cextend_workloads::agreement::certifier_agrees_on_step;
use cextend_workloads::{CcFamily, DcSet, Workload, WorkloadParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Fact kind symbols the fuzzer draws from.
const KINDS: [&str; 6] = ["Anchor", "Filler", "Spare", "Free", "Prime", "Bulk"];
/// Dimension grade symbols.
const GRADES: [&str; 4] = ["A", "B", "C", "D"];
/// Rows of each step's ground-truth view the edge-set arm builds conflict
/// graphs over (generated facts have at most 60 rows, so this is all of
/// them).
const EDGE_WINDOW: usize = 64;

/// What one fuzz iteration produced and proved.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Declared workload name of the generated spec.
    pub name: String,
    /// Number of FK-completion steps.
    pub n_steps: usize,
    /// Scheduler levels of the solved chain.
    pub levels: usize,
    /// Widest level (number of steps sharing one level).
    pub max_width: usize,
    /// Largest DC error the certifier arm found on a perturbed completion.
    pub perturbed_dc_error: f64,
    /// Largest CC error the certifier arm found on a perturbed completion.
    pub perturbed_cc_error: f64,
    /// Enumeration depths the edge-set arm's builds drove through hash
    /// buckets, summed over steps.
    pub index_hash: usize,
    /// Enumeration depths the edge-set arm's builds drove through sorted
    /// runs, summed over steps.
    pub index_sorted: usize,
    /// Capacity groups the edge-set arm's builds emitted, summed over
    /// steps.
    pub capacity_groups: usize,
    /// Capacity-shaped DCs the edge-set arm's builders kept on explicit
    /// edges because another DC of their arity may emit the same vertex
    /// sets, summed over steps.
    pub capacity_edge_dcs: usize,
}

/// Deterministically derives the RNG seed of one fuzz iteration.
pub fn iteration_seed(seed: u64, iter: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(iter as u64)
}

/// Generates a random well-typed spec source for `(seed, iter)`.
pub fn fuzz_source(seed: u64, iter: usize) -> String {
    let mut rng = StdRng::seed_from_u64(iteration_seed(seed, iter));
    let width = rng.gen_range(3..=4); // star dims off the fact
    let depth = rng.gen_range(2..=5); // chain hops under dim 0
    let n_kinds = rng.gen_range(3..=4);
    let n_grades = rng.gen_range(3..=4);
    let kinds = &KINDS[..n_kinds];
    let grades: Vec<String> = GRADES[..n_grades]
        .iter()
        .map(|g| format!("\"{g}\""))
        .collect();
    let mut s = String::new();
    let _ = writeln!(s, "# generated by fuzz-spec, seed {seed}, iteration {iter}");
    let _ = writeln!(s, "workload \"fuzz-{seed}-{iter}\";");

    // Relations: fact, star dims, chain subs — declared in completion order.
    let _ = write!(
        s,
        "relation F {{ key fid int; attr Load int; attr Kind str;"
    );
    for d in 0..width {
        let _ = write!(s, " fk d{d} int;");
    }
    let _ = writeln!(s, " }}");
    // Attribute names are suffixed per relation: augmented step views
    // splice owner and dimension attributes into one schema, so names must
    // be globally unique (the checker enforces this).
    for d in 0..width {
        let chain_fk = if d == 0 { " fk c0 int;" } else { "" };
        let _ = writeln!(
            s,
            "relation D{d} {{ key id int; attr CapD{d} int; attr GradeD{d} str;{chain_fk} }}"
        );
    }
    for h in 1..=depth {
        let chain_fk = if h < depth {
            format!(" fk c{h} int;")
        } else {
            String::new()
        };
        let _ = writeln!(
            s,
            "relation S{h} {{ key id int; attr CapS{h} int; attr GradeS{h} str;{chain_fk} }}"
        );
    }
    for d in 0..width {
        let _ = writeln!(s, "step F.d{d} -> D{d};");
    }
    let _ = writeln!(s, "step D0.c0 -> S1;");
    for h in 1..depth {
        let _ = writeln!(s, "step S{h}.c{h} -> S{};", h + 1);
    }

    // Synthetic generator: small sizes keep 25 iterations cheap.
    let _ = writeln!(s, "generate synthetic {{");
    let _ = writeln!(s, "  rows F {};", rng.gen_range(30..=60));
    for d in 0..width {
        let _ = writeln!(s, "  rows D{d} {};", rng.gen_range(8..=15));
    }
    for h in 1..=depth {
        let _ = writeln!(s, "  rows S{h} {};", rng.gen_range(5..=10));
    }
    let _ = writeln!(s, "  domain F.Load [0, 900];");
    let kind_list: Vec<String> = kinds.iter().map(|k| format!("\"{k}\"")).collect();
    let _ = writeln!(s, "  domain F.Kind [{}];", kind_list.join(", "));
    for name in (0..width)
        .map(|d| format!("D{d}"))
        .chain((1..=depth).map(|h| format!("S{h}")))
    {
        let _ = writeln!(s, "  domain {name}.Cap{name} [0, 2200];");
        let _ = writeln!(s, "  domain {name}.Grade{name} [{}];", grades.join(", "));
    }
    let _ = writeln!(s, "}}");

    // CC and DC blocks per step. Star steps (0..width) are owned by the
    // fact (rows over Load/Kind); chain steps by D0/S{h} (rows over
    // Cap/Grade).
    let n_steps = width + depth;
    for step in 0..n_steps {
        // Owner attrs drive the CC rows and DC atoms; target attrs drive
        // the condition pool.
        let (owner, target) = if step < width {
            ("F".to_owned(), format!("D{step}"))
        } else if step == width {
            ("D0".to_owned(), "S1".to_owned())
        } else {
            (
                format!("S{}", step - width),
                format!("S{}", step - width + 1),
            )
        };
        let (int_col, sym_col, syms, int_hi): (String, String, &[&str], i64) = if step < width {
            ("Load".to_owned(), "Kind".to_owned(), kinds, 900)
        } else {
            (
                format!("Cap{owner}"),
                format!("Grade{owner}"),
                &GRADES[..n_grades],
                2200,
            )
        };
        let _ = writeln!(s, "ccs step {step} {{");
        if rng.gen_bool(0.5) {
            let _ = writeln!(s, "  pool combos(Grade{target}, Cap{target});");
        }
        let _ = writeln!(s, "  pool values(Grade{target});");
        // Good rows: per-kind nested chains — laminar by construction.
        let _ = writeln!(s, "  good {{");
        let n_chain_kinds = rng.gen_range(2..=syms.len().min(3));
        for sym in &syms[..n_chain_kinds] {
            let mut lo = rng.gen_range(0..=int_hi / 4);
            let mut hi = rng.gen_range(int_hi * 2 / 3..=int_hi);
            for _ in 0..rng.gen_range(1..=3) {
                let _ = writeln!(
                    s,
                    "    row {int_col} in [{lo}, {hi}], {sym_col} == \"{sym}\";"
                );
                lo += rng.gen_range(1..=50i64);
                hi -= rng.gen_range(1..=50i64);
            }
        }
        let _ = writeln!(s, "  }}");
        // Bad rows: free-form, overlaps welcome.
        let _ = writeln!(s, "  bad {{");
        for _ in 0..rng.gen_range(3..=6) {
            let lo = rng.gen_range(0..=int_hi / 2);
            let hi = lo + rng.gen_range(1..=int_hi / 2);
            let sym = syms[rng.gen_range(0..syms.len())];
            let _ = writeln!(
                s,
                "    row {int_col} in [{lo}, {hi}], {sym_col} == \"{sym}\";"
            );
        }
        let _ = writeln!(s, "  }}");
        let _ = writeln!(s, "}}");

        let a = syms[0];
        let b = syms[1 % syms.len()];
        let gap = rng.gen_range(50..=250);
        let _ = writeln!(s, "dcs step {step} {{");
        let _ = writeln!(
            s,
            "  good dc \"s{step}-gap-low\" arity 2 {{ t0.{sym_col} == \"{a}\"; t1.{sym_col} == \"{b}\"; t1.{int_col} < t0.{int_col} - {gap}; }}"
        );
        let _ = writeln!(
            s,
            "  good dc \"s{step}-gap-up\" arity 2 {{ t0.{sym_col} == \"{a}\"; t1.{sym_col} == \"{b}\"; t1.{int_col} > t0.{int_col} + {gap}; }}"
        );
        if rng.gen_bool(0.7) {
            let _ = writeln!(
                s,
                "  all dc \"s{step}-excl\" arity 2 {{ t0.{sym_col} == \"{a}\"; t1.{sym_col} == \"{a}\"; }}"
            );
        }
        // Two binary atoms keep these off the bulk path: the band pair
        // enumerates through a sorted run, the ternary chain through hash
        // buckets.
        let band_lo = rng.gen_range(0..=int_hi / 20);
        let band_hi = band_lo + rng.gen_range(10..=int_hi / 10);
        let _ = writeln!(
            s,
            "  all dc \"s{step}-band\" arity 2 {{ t1.{int_col} > t0.{int_col} + {band_lo}; t1.{int_col} < t0.{int_col} + {band_hi}; }}"
        );
        if rng.gen_bool(0.5) {
            let _ = writeln!(
                s,
                "  all dc \"s{step}-tri\" arity 3 {{ t0.{sym_col} == \"{b}\"; t1.{int_col} == t0.{int_col}; t2.{int_col} == t1.{int_col}; }}"
            );
        }
        // Capacity-shaped: one shared filter, plus on a coin flip an `=`
        // chain keying it on one column. `s{step}-tri` pins `t0` to `b`,
        // so the two are provably disjoint and this DC emits groups; the
        // exclusive pair above stays on edges, since the band pair pins
        // nothing. Keys drawn from a wide uniform domain rarely repeat
        // three times, so the unkeyed form is what reliably fills groups.
        if rng.gen_bool(0.5) {
            let key = if rng.gen_bool(0.5) {
                format!(" t1.{int_col} == t0.{int_col}; t2.{int_col} == t1.{int_col};")
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "  all dc \"s{step}-cap\" arity 3 {{ t0.{sym_col} == \"{a}\"; t1.{sym_col} == \"{a}\"; t2.{sym_col} == \"{a}\";{key} }}"
            );
        }
        let _ = writeln!(s, "}}");
    }
    s
}

/// Parses, checks and lowers one generated spec (also exercised directly
/// by the proptest suite).
pub fn fuzz_workload(seed: u64, iter: usize) -> Result<SpecWorkload> {
    let src = fuzz_source(seed, iter);
    crate::load_source(&src, &format!("<fuzz-{seed}-{iter}>"))
}

/// Solves a spec workload at 1, 2 and 4 workers and demands bit-identity
/// between the runs, then checks the conflict builder against the
/// naive reference and the membership kernel's CC counts against
/// `count_in` on every step's ground-truth view. Returns the serial
/// schedule's shape on success, a divergence description on failure.
pub fn run_differential_oracles(
    workload: &SpecWorkload,
    seed: u64,
    n_ccs: usize,
) -> std::result::Result<FuzzOutcome, String> {
    let meta = workload.meta();
    let data = workload.generate(&WorkloadParams::new(1.0, seed));
    let family = if seed.is_multiple_of(2) {
        CcFamily::Good
    } else {
        CcFamily::Bad
    };
    let steps: Vec<SnowflakeStep> = (0..data.n_steps())
        .map(|i| SnowflakeStep {
            edge: data.steps[i].clone(),
            ccs: workload.step_ccs(i, family, n_ccs, &data, seed.wrapping_add(i as u64)),
            dcs: workload.step_dcs(i, DcSet::All),
        })
        .collect();
    let solve = |workers: usize| {
        let config = SolverConfig::hybrid().with_seed(seed).with_workers(workers);
        solve_snowflake(data.relations.clone(), &steps, &config)
            .map_err(|e| format!("{}: solve failed at {workers} workers: {e}", meta.name))
    };
    let base = solve(1)?;
    for workers in [2, 4] {
        let wide = solve(workers)?;
        compare(meta.name, &base, &wide, &format!("1 vs {workers} workers"))?;
    }
    // Edge-set arm: fuzzed DC blocks mix gap pairs (a single binary atom,
    // bulk-emitted as sorted-run windows) with exclusive pairs (pure-unary
    // cliques), so both bulk-emission branches meet the naive reference;
    // band pairs and ternary chains enumerate through both index kinds, and
    // capacity-shaped ternaries emit groups.
    let (mut perturbed_dc_error, mut perturbed_cc_error) = (0.0f64, 0.0f64);
    let (mut index_hash, mut index_sorted) = (0usize, 0usize);
    let (mut capacity_groups, mut capacity_edge_dcs) = (0usize, 0usize);
    for (step, instance) in steps.iter().enumerate() {
        let view = data.step_truth_view(step);
        let dcs = instance
            .dcs
            .iter()
            .map(|d| d.bind(view.schema(), view.name()))
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(|e| format!("{}: step {step} DCs do not bind: {e}", meta.name))?;
        let rows: Vec<RowId> = (0..view.n_rows().min(EDGE_WINDOW)).collect();
        let mut builder = ConflictBuilder::new(&dcs);
        let built = builder.build(&view, &rows);
        index_hash += builder.stats().index_hash;
        index_sorted += builder.stats().index_sorted;
        capacity_groups += builder.stats().capacity_groups;
        capacity_edge_dcs += (0..dcs.len())
            .filter(|&i| builder.route(i) == DcRoute::CapacityEdges)
            .count();
        let naive = build_conflict_graph_naive(&view, &rows, &dcs);
        let expanded = built.expanded();
        if sorted_edges(expanded.edges()) != sorted_edges(naive.edges()) {
            return Err(format!(
                "{}: conflict builder vs naive diverged on step {step} ({} rows)",
                meta.name,
                rows.len()
            ));
        }
        if built.n_edges() as u64 + built.n_implicit_edges() != expanded.n_edges() as u64 {
            return Err(format!(
                "{}: a capacity group on step {step} duplicates another edge",
                meta.name
            ));
        }
        // CC-count arm: one kernel pass over the whole view against one
        // compiled-predicate scan per CC.
        let ccs = &instance.ccs;
        let counted = cc_counts(&view, ccs)
            .map_err(|e| format!("{}: step {step} CCs do not count: {e}", meta.name))?;
        for (cc, &got) in ccs.iter().zip(&counted) {
            let want = cc
                .count_in(&view)
                .map_err(|e| format!("{}: step {step} CC {} fails: {e}", meta.name, cc.name))?;
            if got != want {
                return Err(format!(
                    "{}: CC-membership kernel counted {got} for {} on step {step}, count_in {want}",
                    meta.name, cc.name
                ));
            }
        }
        // Certifier arm: `evaluate` against both references on the step's
        // ground-truth completion and a perturbed copy.
        let (_, perturbed) =
            certifier_agrees_on_step(&data, step, instance.ccs.clone(), instance.dcs.clone())
                .map_err(|e| format!("{}: certifier: {e}", meta.name))?;
        perturbed_dc_error = perturbed_dc_error.max(perturbed.dc_error);
        perturbed_cc_error = perturbed
            .cc_errors
            .iter()
            .fold(perturbed_cc_error, |m, &e| m.max(e));
    }
    Ok(FuzzOutcome {
        name: meta.name.to_owned(),
        n_steps: steps.len(),
        levels: base.levels.len(),
        max_width: base.levels.iter().map(|l| l.steps.len()).max().unwrap_or(0),
        perturbed_dc_error,
        perturbed_cc_error,
        index_hash,
        index_sorted,
        capacity_groups,
        capacity_edge_dcs,
    })
}

/// A conflict graph's edges as a sorted list, for set comparison.
fn sorted_edges<'a>(edges: impl Iterator<Item = &'a [u32]>) -> Vec<Vec<u32>> {
    let mut edges: Vec<Vec<u32>> = edges.map(<[u32]>::to_vec).collect();
    edges.sort();
    edges
}

/// Bit-identity between two solves: same tables, same solve counters.
fn compare(
    name: &str,
    a: &SnowflakeSolution,
    b: &SnowflakeSolution,
    what: &str,
) -> std::result::Result<(), String> {
    if a.tables.len() != b.tables.len() {
        return Err(format!(
            "{name}: {what} diverged: {} vs {} tables",
            a.tables.len(),
            b.tables.len()
        ));
    }
    for (x, y) in a.tables.iter().zip(&b.tables) {
        if !relations_equal_ordered(x, y) {
            return Err(format!("{name}: {what} diverged on table `{}`", x.name()));
        }
    }
    if a.total_stats().counters != b.total_stats().counters {
        return Err(format!("{name}: {what} diverged on solve counters"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_sources_are_deterministic_and_well_formed() {
        let a = fuzz_source(7, 0);
        let b = fuzz_source(7, 0);
        assert_eq!(a, b);
        assert_ne!(a, fuzz_source(7, 1));
        fuzz_workload(7, 0).unwrap();
    }

    #[test]
    fn generated_topology_hits_the_coverage_targets() {
        // Every iteration's topology is a ≥3-wide star plus a ≥2-hop
        // chain, so the planned schedule always has ≥3 levels.
        let w = fuzz_workload(7, 0).unwrap();
        let out = run_differential_oracles(&w, iteration_seed(7, 0), 12).unwrap();
        assert!(out.levels >= 3, "levels = {}", out.levels);
        assert!(out.max_width >= 3, "max width = {}", out.max_width);
    }
}
