//! Whole-solver property tests on randomized small instances.
//!
//! These complement the deterministic fixtures: for *arbitrary* small
//! `R1`/`R2` instances with age-gap and exclusivity DCs and random CCs, the
//! solver must uphold Proposition 5.5 (all DCs satisfied, join recovered)
//! in every configuration, and the decision variant must never fabricate
//! `R2` tuples.

use crate::config::{Phase1Strategy, SolverConfig};
use crate::instance::CExtensionInstance;
use crate::metrics::{dc_error, evaluate};
use cextend_constraints::{CardinalityConstraint, DcAtom, DenialConstraint, NormalizedCond};
use cextend_table::{relations_equal_ordered, ColumnDef, Dtype, Relation, Schema, Value, ValueSet};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct SmallInstance {
    persons: Vec<(i64, usize, i64)>,         // (age, group index, flag)
    houses: Vec<usize>,                      // kind index per house
    ccs: Vec<(i64, i64, usize, usize, u64)>, // (age lo, age hi, group, kind, target)
    gap: i64,
}

const GROUPS: [&str; 3] = ["Owner", "Spouse", "Child"];
const KINDS: [&str; 2] = ["Urban", "Rural"];

fn arb_instance() -> impl Strategy<Value = SmallInstance> {
    let person = (0i64..80, 0usize..3, 0i64..2);
    let cc = (0i64..40, 1i64..41, 0usize..3, 0usize..2, 0u64..6);
    (
        proptest::collection::vec(person, 3..14),
        proptest::collection::vec(0usize..2, 2..7),
        proptest::collection::vec(cc, 0..5),
        10i64..60,
    )
        .prop_map(|(persons, houses, mut ccs, gap)| {
            for cc in &mut ccs {
                cc.1 += cc.0; // hi = lo + span
            }
            SmallInstance {
                persons,
                houses,
                ccs,
                gap,
            }
        })
}

fn build(si: &SmallInstance) -> CExtensionInstance {
    let schema = Schema::new(vec![
        ColumnDef::key("id", Dtype::Int),
        ColumnDef::attr("Age", Dtype::Int),
        ColumnDef::attr("Group", Dtype::Str),
        ColumnDef::attr("Flag", Dtype::Int),
        ColumnDef::foreign_key("hid", Dtype::Int),
    ])
    .expect("static schema");
    let mut r1 = Relation::new("People", schema);
    for (i, &(age, g, flag)) in si.persons.iter().enumerate() {
        r1.push_row(&[
            Some(Value::Int(i as i64)),
            Some(Value::Int(age)),
            Some(Value::str(GROUPS[g])),
            Some(Value::Int(flag)),
            None,
        ])
        .expect("row");
    }
    let schema2 = Schema::new(vec![
        ColumnDef::key("hid", Dtype::Int),
        ColumnDef::attr("Kind", Dtype::Str),
    ])
    .expect("static schema");
    let mut r2 = Relation::new("Houses", schema2);
    for (i, &k) in si.houses.iter().enumerate() {
        r2.push_full_row(&[Value::Int(i as i64), Value::str(KINDS[k])])
            .expect("row");
    }
    let ccs: Vec<CardinalityConstraint> = si
        .ccs
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi, g, k, target))| {
            CardinalityConstraint::new(
                format!("cc{i}"),
                NormalizedCond::from_sets(vec![
                    ("Age".to_owned(), ValueSet::range(lo, hi)),
                    (
                        "Group".to_owned(),
                        ValueSet::sym(cextend_table::Sym::intern(GROUPS[g])),
                    ),
                ]),
                NormalizedCond::from_sets(vec![(
                    "Kind".to_owned(),
                    ValueSet::sym(cextend_table::Sym::intern(KINDS[k])),
                )]),
                target,
            )
        })
        .collect();
    let dcs = vec![
        // Two owners cannot share a house.
        DenialConstraint::new(
            "owners",
            2,
            vec![
                DcAtom::Unary {
                    var: 0,
                    column: "Group".into(),
                    op: cextend_table::CmpOp::Eq,
                    value: Value::str("Owner"),
                },
                DcAtom::Unary {
                    var: 1,
                    column: "Group".into(),
                    op: cextend_table::CmpOp::Eq,
                    value: Value::str("Owner"),
                },
            ],
        )
        .expect("dc"),
        // Cohabiting spouse must be within `gap` years of the owner.
        DenialConstraint::new(
            "age-gap",
            2,
            vec![
                DcAtom::Unary {
                    var: 0,
                    column: "Group".into(),
                    op: cextend_table::CmpOp::Eq,
                    value: Value::str("Owner"),
                },
                DcAtom::Unary {
                    var: 1,
                    column: "Group".into(),
                    op: cextend_table::CmpOp::Eq,
                    value: Value::str("Spouse"),
                },
                DcAtom::Binary {
                    lvar: 1,
                    lcol: "Age".into(),
                    op: cextend_table::CmpOp::Lt,
                    rvar: 0,
                    rcol: "Age".into(),
                    offset: -si.gap,
                },
            ],
        )
        .expect("dc"),
        // Flagged children never share with flagged owners (3-ary: an owner
        // and two such children are fine, but owner+child pairs are not —
        // this exercises hyperedges of arity 3 too).
        DenialConstraint::new(
            "flag3",
            3,
            vec![
                DcAtom::Unary {
                    var: 0,
                    column: "Flag".into(),
                    op: cextend_table::CmpOp::Eq,
                    value: Value::Int(1),
                },
                DcAtom::Unary {
                    var: 1,
                    column: "Flag".into(),
                    op: cextend_table::CmpOp::Eq,
                    value: Value::Int(1),
                },
                DcAtom::Unary {
                    var: 2,
                    column: "Flag".into(),
                    op: cextend_table::CmpOp::Eq,
                    value: Value::Int(1),
                },
            ],
        )
        .expect("dc"),
    ];
    CExtensionInstance::new(r1, r2, ccs, dcs).expect("valid instance")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Proposition 5.5 on arbitrary instances, every pipeline.
    #[test]
    fn solver_guarantees_hold_on_random_instances(si in arb_instance(), seed in 0u64..4) {
        let instance = build(&si);
        for config in [
            SolverConfig::hybrid().with_seed(seed),
            SolverConfig {
                phase1: Phase1Strategy::HasseOnly,
                ..SolverConfig::hybrid()
            }
            .with_seed(seed),
            SolverConfig::hybrid().with_seed(seed).with_workers(2),
        ] {
            let solution = crate::solve(&instance, &config).unwrap();
            let report = evaluate(&instance, &solution).unwrap();
            prop_assert_eq!(report.dc_error, 0.0, "{:?}", config);
            prop_assert!(report.join_recovered, "{:?}", config);
            let fk = solution.r1_hat.schema().fk_col().unwrap();
            prop_assert!(solution.r1_hat.column_is_complete(fk));
            // R̂2 extends R2: the original keys all survive in order.
            for r in instance.r2.rows() {
                for c in 0..instance.r2.schema().len() {
                    prop_assert_eq!(instance.r2.get(r, c), solution.r2_hat.get(r, c));
                }
            }
        }
    }

    /// The worker-pool width is a pure scheduling change: full solves at
    /// widths 2 and 4 are bit-identical to the inline run on arbitrary
    /// instances.
    #[test]
    fn solves_are_bit_identical_at_every_width(si in arb_instance(), seed in 0u64..4) {
        let instance = build(&si);
        let config = SolverConfig::hybrid().with_seed(seed);
        let serial = crate::solve(&instance, &config).unwrap();
        for workers in [2, 4] {
            let wide = crate::solve(&instance, &config.with_workers(workers)).unwrap();
            prop_assert!(relations_equal_ordered(&serial.r1_hat, &wide.r1_hat));
            prop_assert!(relations_equal_ordered(&serial.r2_hat, &wide.r2_hat));
            prop_assert!(relations_equal_ordered(&serial.vjoin, &wide.vjoin));
            prop_assert_eq!(&serial.stats.counters, &wide.stats.counters);
        }
    }

    /// Baselines always produce *complete* (if DC-violating) assignments
    /// that join back to their own view.
    #[test]
    fn baselines_complete_and_recover(si in arb_instance(), seed in 0u64..4) {
        let instance = build(&si);
        for config in [
            SolverConfig::baseline().with_seed(seed),
            SolverConfig::baseline_with_marginals().with_seed(seed),
        ] {
            let solution = crate::solve(&instance, &config).unwrap();
            let report = evaluate(&instance, &solution).unwrap();
            prop_assert!(report.join_recovered, "{:?}", config);
        }
    }

    /// The strict decision variant never adds R2 tuples — and when it
    /// succeeds, the result is a genuine witness.
    #[test]
    fn strict_mode_never_augments(si in arb_instance()) {
        let instance = build(&si);
        let strict = SolverConfig {
            allow_augmenting_r2: false,
            ..SolverConfig::hybrid()
        };
        match crate::solve(&instance, &strict) {
            Ok(solution) => {
                prop_assert_eq!(solution.r2_hat.n_rows(), instance.r2.n_rows());
                prop_assert_eq!(dc_error(&solution.r1_hat, &instance.dcs).unwrap(), 0.0);
            }
            Err(crate::error::CoreError::NoSolutionWithoutAugmentation { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }
}
