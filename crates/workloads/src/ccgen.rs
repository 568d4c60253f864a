//! Workload-generic CC-family construction.
//!
//! Both shipped workloads build their CC sets the same way the paper builds
//! Table 5: a fixed pool of `R1` predicate rows crossed with an `R2`
//! condition pool mined from the generated `R2` relation, with each CC's
//! target *measured on the hidden ground-truth join* — so the set is
//! simultaneously satisfiable by construction.
//!
//! For a **good** family the `R1` rows must be pairwise comparable or
//! disjoint, and rows that are related (nested) are instantiated as whole
//! bundles sharing a single `R2` condition: a strictly nested `R1` pair
//! with diverging `R2` conditions would be *intersecting* under
//! Definition 4.4 (see the paper's Example 4.5). A **bad** family samples
//! its (row, condition) pairs freely.

use cextend_constraints::{set_targets, CardinalityConstraint, NormalizedCond};
use cextend_table::Relation;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Cumulative weights of a truncated Zipf distribution over `1..=max_group`
/// (shared by the workload generators' group-size samplers).
pub fn zipf_cumulative(exponent: f64, max_group: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=max_group)
        .map(|k| {
            acc += (k as f64).powf(-exponent);
            acc
        })
        .collect()
}

/// Samples a group size from precomputed cumulative Zipf weights via the
/// inverse CDF.
pub fn sample_zipf(rng: &mut StdRng, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("non-empty weights");
    let u = rng.gen_range(0.0..total);
    cumulative.iter().position(|&c| u < c).unwrap_or(0) + 1
}

/// Union-find grouping of `R1` condition rows into relatedness components
/// (related = not disjoint). For a good family every related pair must be
/// comparable; callers assert that property over their static row tables.
pub fn containment_components(conds: &[NormalizedCond]) -> Vec<Vec<usize>> {
    let n = conds.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if !conds[i].disjoint_with(&conds[j]) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut comps: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let root = find(&mut parent, i);
        comps.entry(root).or_default().push(i);
    }
    comps.into_values().collect()
}

/// `true` iff every non-disjoint pair of rows is comparable (one implies
/// the other) — the structural precondition for a good family.
pub fn rows_are_laminar(conds: &[NormalizedCond]) -> bool {
    for i in 0..conds.len() {
        for j in (i + 1)..conds.len() {
            let related = !conds[i].disjoint_with(&conds[j]);
            let comparable = conds[i].implies(&conds[j]) || conds[j].implies(&conds[i]);
            if related && !comparable {
                return false;
            }
        }
    }
    true
}

/// A CC whose target [`measured`] fills in.
fn make_cc(name: String, r1: &NormalizedCond, r2: &NormalizedCond) -> CardinalityConstraint {
    CardinalityConstraint::new(name, r1.clone(), r2.clone(), 0)
}

/// `ccs` with every target set to its count on the ground-truth join.
fn measured(
    mut ccs: Vec<CardinalityConstraint>,
    truth_join: &Relation,
) -> Vec<CardinalityConstraint> {
    set_targets(&mut ccs, truth_join).expect("ground-truth join carries all CC columns");
    ccs
}

/// Builds a **good** family: related row bundles share one `R2` condition;
/// singleton rows cross freely with the whole condition pool.
pub fn good_family(
    prefix: &str,
    rows: &[NormalizedCond],
    pool: &[NormalizedCond],
    n: usize,
    truth_join: &Relation,
    seed: u64,
) -> Vec<CardinalityConstraint> {
    assert!(!pool.is_empty(), "R2 condition pool must be non-empty");
    debug_assert!(rows_are_laminar(rows), "good rows must be laminar");
    let mut rng = StdRng::seed_from_u64(seed);
    let comps = containment_components(rows);
    let mut ccs: Vec<CardinalityConstraint> = Vec::with_capacity(n);
    // Multi-row bundles first, one shared R2 condition each.
    for comp in comps.iter().filter(|c| c.len() > 1) {
        let cond = pool[rng.gen_range(0..pool.len())].clone();
        for &i in comp {
            if ccs.len() >= n {
                break;
            }
            ccs.push(make_cc(format!("{prefix}-{}", ccs.len()), &rows[i], &cond));
        }
    }
    // Then singleton rows crossed with the full condition pool.
    let singles: Vec<usize> = comps
        .iter()
        .filter(|c| c.len() == 1)
        .map(|c| c[0])
        .collect();
    let mut pairs: Vec<(usize, usize)> = singles
        .iter()
        .flat_map(|&r| (0..pool.len()).map(move |c| (r, c)))
        .collect();
    pairs.shuffle(&mut rng);
    for (r, c) in pairs {
        if ccs.len() >= n {
            break;
        }
        ccs.push(make_cc(
            format!("{prefix}-{}", ccs.len()),
            &rows[r],
            &pool[c],
        ));
    }
    measured(ccs, truth_join)
}

/// Builds a **bad** family: all (row, condition) pairs, shuffled.
pub fn bad_family(
    prefix: &str,
    rows: &[NormalizedCond],
    pool: &[NormalizedCond],
    n: usize,
    truth_join: &Relation,
    seed: u64,
) -> Vec<CardinalityConstraint> {
    assert!(!pool.is_empty(), "R2 condition pool must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|r| (0..pool.len()).map(move |c| (r, c)))
        .collect();
    pairs.shuffle(&mut rng);
    let mut ccs: Vec<CardinalityConstraint> = Vec::with_capacity(n);
    for (r, c) in pairs {
        if ccs.len() >= n {
            break;
        }
        ccs.push(make_cc(
            format!("{prefix}-{}", ccs.len()),
            &rows[r],
            &pool[c],
        ));
    }
    measured(ccs, truth_join)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cextend_table::ValueSet;

    fn range_cond(lo: i64, hi: i64) -> NormalizedCond {
        NormalizedCond::from_sets(vec![("Age".to_owned(), ValueSet::range(lo, hi))])
    }

    #[test]
    fn components_group_nested_rows() {
        let rows = vec![
            range_cond(0, 10),
            range_cond(2, 8),
            range_cond(20, 30),
            range_cond(40, 50),
        ];
        let comps = containment_components(&rows);
        let mut sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 2]);
    }

    #[test]
    fn laminar_detects_overlap() {
        assert!(rows_are_laminar(&[range_cond(0, 10), range_cond(2, 8)]));
        assert!(!rows_are_laminar(&[range_cond(0, 10), range_cond(5, 15)]));
    }
}
