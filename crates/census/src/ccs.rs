//! The cardinality-constraint families of Table 5.
//!
//! Each CC combines an `R1` predicate row (an `Age` interval, a `Rel` code
//! and optionally `Multi-ling`) with an `R2` condition (a Tenure-Area pair
//! or an Area alone), and its target is *measured on the hidden ground
//! truth* — so the CC set is simultaneously satisfiable by construction,
//! exactly as targets measured from real data would be.
//!
//! `S_good` contains no intersecting pair (Definition 4.4): its `R1` rows
//! group into containment chains, and chains of size > 1 are instantiated
//! as whole bundles sharing one `R2` condition, because a strictly nested
//! `R1` pair with diverging `R2` conditions is *intersecting* under the
//! paper's definitions (see Example 4.5). Singleton rows — pairwise
//! disjoint or identical — combine freely with every `R2` condition.
//! `S_bad` samples its (intersecting) rows freely.

use crate::generator::CensusData;
use cextend_constraints::{
    mine_pool, set_targets, CardinalityConstraint, NormalizedCond, PoolClause,
};
use cextend_table::{fk_join, Relation, ValueSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which Table 5 family to draw from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CcFamily {
    /// No intersecting pairs; Algorithm 2 alone can solve it exactly.
    Good,
    /// Intersecting `Age` intervals force the ILP path.
    Bad,
}

/// One `R1` predicate row of Table 5.
#[derive(Clone, Copy, Debug)]
struct PredRow {
    lo: i64,
    hi: i64,
    rel: &'static str,
    multi: Option<i64>,
}

const fn row(lo: i64, hi: i64, rel: &'static str, multi: Option<i64>) -> PredRow {
    PredRow { lo, hi, rel, multi }
}

/// Table 5, left column (`S_good`): 27 rows.
const GOOD_ROWS: [PredRow; 27] = [
    row(18, 114, "Owner", Some(0)),
    row(18, 114, "Spouse", Some(1)),
    row(0, 10, "Biological child", None),
    row(6, 10, "Biological child", None),
    row(2, 5, "Biological child", None),
    row(3, 5, "Biological child", None),
    row(3, 5, "Biological child", Some(0)),
    row(11, 18, "Biological child", None),
    row(11, 13, "Biological child", None),
    row(14, 18, "Biological child", None),
    row(19, 30, "Biological child", None),
    row(22, 30, "Biological child", None),
    row(25, 30, "Biological child", Some(1)),
    row(18, 39, "Father/Mother", None),
    row(40, 85, "Father/Mother", Some(0)),
    row(40, 85, "Father/Mother", Some(1)),
    row(15, 85, "House/Room mate", Some(0)),
    row(15, 85, "House/Room mate", Some(1)),
    row(18, 30, "Grandchild", Some(0)),
    row(18, 30, "Grandchild", Some(1)),
    row(18, 114, "Unmarried partner", Some(1)),
    row(0, 30, "Step child", None),
    row(0, 20, "Step child", None),
    row(21, 30, "Step child", Some(1)),
    row(19, 40, "Adopted child", None),
    row(25, 40, "Adopted child", Some(1)),
    row(31, 40, "Adopted child", Some(1)),
];

/// Table 5, right column (`S_bad`): 31 rows with overlapping intervals.
const BAD_ROWS: [PredRow; 31] = [
    row(18, 114, "Owner", Some(0)),
    row(18, 114, "Spouse", Some(1)),
    row(0, 10, "Biological child", None),
    row(6, 10, "Biological child", None),
    row(2, 5, "Biological child", None),
    row(3, 5, "Biological child", Some(0)),
    row(11, 18, "Biological child", None),
    row(11, 13, "Biological child", None),
    row(14, 18, "Biological child", None),
    row(19, 30, "Biological child", None),
    row(22, 30, "Biological child", None),
    row(40, 85, "Father/Mother", Some(0)),
    row(40, 85, "Father/Mother", Some(1)),
    row(15, 85, "House/Room mate", Some(0)),
    row(15, 85, "House/Room mate", Some(1)),
    row(18, 30, "Grandchild", Some(0)),
    row(18, 30, "Grandchild", Some(1)),
    row(18, 114, "Unmarried partner", Some(1)),
    row(0, 30, "Step child", None),
    row(21, 114, "Spouse", Some(1)),
    row(21, 64, "Spouse", Some(1)),
    row(18, 39, "Spouse", Some(1)),
    row(18, 85, "Spouse", Some(1)),
    row(40, 85, "Spouse", Some(1)),
    row(65, 114, "Father/Mother", Some(1)),
    row(0, 39, "Grandchild", Some(1)),
    row(22, 39, "Grandchild", Some(1)),
    row(0, 21, "Step child", None),
    row(19, 39, "Adopted child", None),
    row(25, 39, "Adopted child", Some(1)),
    row(31, 39, "Adopted child", Some(1)),
];

impl PredRow {
    fn cond(&self) -> NormalizedCond {
        let mut sets = vec![
            ("Age".to_owned(), ValueSet::range(self.lo, self.hi)),
            (
                "Rel".to_owned(),
                ValueSet::sym(cextend_table::Sym::intern(self.rel)),
            ),
        ];
        if let Some(m) = self.multi {
            sets.push(("Multi-ling".to_owned(), ValueSet::int(m)));
        }
        NormalizedCond::from_sets(sets)
    }
}

/// The `R2` condition pool: every existing Tenure-Area pair plus every Area
/// alone (the paper: 469 Tenure-Area values and 121 Area-only values).
const R2_POOL: [PoolClause<'static>; 2] = [
    PoolClause::Combos("Tenure", "Area"),
    PoolClause::Values("Area"),
];

/// Union-find grouping of predicate rows into containment components.
fn containment_components(rows: &[PredRow]) -> Vec<Vec<usize>> {
    let conds: Vec<NormalizedCond> = rows.iter().map(PredRow::cond).collect();
    let n = rows.len();
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
            let related = conds[i].implies(&conds[j])
                || conds[j].implies(&conds[i])
                || !(conds[i].disjoint_with(&conds[j]));
            // Overlapping-but-incomparable rows would be intersecting; the
            // good table has none by construction (asserted in tests).
            if related {
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

/// A CC whose target [`generate_ccs_from`] measures afterwards.
fn make_cc(name: String, row: &PredRow, r2: &NormalizedCond) -> CardinalityConstraint {
    CardinalityConstraint::new(name, row.cond(), r2.clone(), 0)
}

/// Generates `n` CCs of the given family over `data`, with ground-truth
/// targets. `n` is capped by the pool size (good family) or by the distinct
/// (row, condition) pairs (bad family).
pub fn generate_ccs(
    family: CcFamily,
    n: usize,
    data: &CensusData,
    seed: u64,
) -> Vec<CardinalityConstraint> {
    generate_ccs_from(family, n, &data.ground_truth, &data.housing, seed)
}

/// Like [`generate_ccs`], but borrowing the un-erased `Persons` ground
/// truth and `Housing` directly — callers holding the relations under
/// another shape (e.g. the workload layer) need not assemble a
/// [`CensusData`].
pub fn generate_ccs_from(
    family: CcFamily,
    n: usize,
    ground_truth: &Relation,
    housing: &Relation,
    seed: u64,
) -> Vec<CardinalityConstraint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth_join = fk_join(ground_truth, housing).expect("ground truth joins cleanly");
    let conds = mine_pool(housing, &R2_POOL);
    assert!(!conds.is_empty(), "Housing must be non-empty");
    let mut ccs: Vec<CardinalityConstraint> = Vec::with_capacity(n);
    match family {
        CcFamily::Good => {
            let comps = containment_components(&GOOD_ROWS);
            // Multi-row chains first, one bundle each with a random R2 cond.
            for comp in comps.iter().filter(|c| c.len() > 1) {
                let cond = conds[rng.gen_range(0..conds.len())].clone();
                for &i in comp {
                    if ccs.len() >= n {
                        break;
                    }
                    ccs.push(make_cc(format!("good-{}", ccs.len()), &GOOD_ROWS[i], &cond));
                }
            }
            // Then singleton rows crossed with the full condition pool.
            let singles: Vec<usize> = comps
                .iter()
                .filter(|c| c.len() == 1)
                .map(|c| c[0])
                .collect();
            let mut pool: Vec<(usize, usize)> = singles
                .iter()
                .flat_map(|&r| (0..conds.len()).map(move |c| (r, c)))
                .collect();
            pool.shuffle(&mut rng);
            for (r, c) in pool {
                if ccs.len() >= n {
                    break;
                }
                ccs.push(make_cc(
                    format!("good-{}", ccs.len()),
                    &GOOD_ROWS[r],
                    &conds[c],
                ));
            }
        }
        CcFamily::Bad => {
            let mut pool: Vec<(usize, usize)> = (0..BAD_ROWS.len())
                .flat_map(|r| (0..conds.len()).map(move |c| (r, c)))
                .collect();
            pool.shuffle(&mut rng);
            for (r, c) in pool {
                if ccs.len() >= n {
                    break;
                }
                ccs.push(make_cc(
                    format!("bad-{}", ccs.len()),
                    &BAD_ROWS[r],
                    &conds[c],
                ));
            }
        }
    }
    set_targets(&mut ccs, &truth_join).expect("ground-truth join carries all CC columns");
    ccs
}

use rand::Rng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, CensusConfig};
    use cextend_constraints::{CcRelationship, RelationshipMatrix};

    fn data() -> CensusData {
        generate(&CensusConfig {
            scale: 0.02,
            n_areas: 6,
            ..CensusConfig::default()
        })
    }

    #[test]
    fn table5_row_counts() {
        assert_eq!(GOOD_ROWS.len(), 27);
        assert_eq!(BAD_ROWS.len(), 31);
    }

    #[test]
    fn r2_pool_covers_pairs_and_areas() {
        let d = data();
        let pool = mine_pool(&d.housing, &R2_POOL);
        // Up to 6 areas × 4 tenures + 6 area-only conditions.
        assert!(pool.len() > 6);
        assert!(pool.iter().any(|c| c.get("Tenure").is_some()));
        assert!(pool.iter().any(|c| c.get("Tenure").is_none()));
    }

    #[test]
    fn good_family_has_no_intersecting_pairs() {
        let d = data();
        let ccs = generate_ccs(CcFamily::Good, 80, &d, 1);
        assert_eq!(ccs.len(), 80);
        let m = RelationshipMatrix::build(&ccs);
        for i in 0..ccs.len() {
            for j in (i + 1)..ccs.len() {
                assert_ne!(
                    m.get(i, j),
                    CcRelationship::Intersecting,
                    "{} vs {}",
                    ccs[i],
                    ccs[j]
                );
            }
        }
    }

    #[test]
    fn bad_family_has_intersecting_pairs() {
        let d = data();
        let ccs = generate_ccs(CcFamily::Bad, 80, &d, 1);
        let m = RelationshipMatrix::build(&ccs);
        assert!(
            !m.intersecting_ccs().is_empty(),
            "bad family should force the ILP path"
        );
    }

    #[test]
    fn targets_are_ground_truth_counts() {
        let d = data();
        let truth_join = fk_join(&d.ground_truth, &d.housing).unwrap();
        for cc in generate_ccs(CcFamily::Good, 40, &d, 2) {
            assert_eq!(cc.count_in(&truth_join).unwrap(), cc.target, "{cc}");
        }
        for cc in generate_ccs(CcFamily::Bad, 40, &d, 2) {
            assert_eq!(cc.count_in(&truth_join).unwrap(), cc.target, "{cc}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d = data();
        let a = generate_ccs(CcFamily::Bad, 30, &d, 9);
        let b = generate_ccs(CcFamily::Bad, 30, &d, 9);
        assert_eq!(a, b);
        let c = generate_ccs(CcFamily::Bad, 30, &d, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn good_rows_contain_the_expected_chains() {
        let comps = containment_components(&GOOD_ROWS);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = comps.iter().map(Vec::len).collect();
            s.sort_unstable();
            s
        };
        // 10 singleton rows + chains {Bio×3 of sizes 5,3,3} + Step(3) +
        // Adopted(3).
        assert_eq!(sizes, vec![1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 5]);
    }
}
