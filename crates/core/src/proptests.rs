//! Whole-solver property tests on randomized small instances.
//!
//! These complement the deterministic fixtures: for *arbitrary* small
//! `R1`/`R2` instances with age-gap and exclusivity DCs and random CCs, the
//! solver must uphold Proposition 5.5 (all DCs satisfied, join recovered)
//! in every configuration, and the decision variant must never fabricate
//! `R2` tuples. Random DC sets (duplicates, contradictions, type-mismatched
//! and missing cells included) must never make the solver panic.

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

/// One random DC: arity 2 or 3, a few atoms. Unary atoms compare a
/// column with a constant of the column's type; binary atoms are `=`
/// (offset 0 or not) or `<`, on any column — `Group` is a string column,
/// so a binary atom there can never hold. Half the non-zero offsets lie
/// within 2 of `i64::MAX` or `i64::MIN`, where `r + offset` leaves `i64`. Half the DCs are drawn
/// capacity-shaped (one unary filter repeated on every variable, then an
/// offset-0 `=` chain on one column or none), and half of those keep their
/// random binary atoms too, which may break the shape again.
#[derive(Clone, Debug)]
struct RandomDc {
    arity: usize,
    /// `(var, column, op, constant)`.
    unary: Vec<(usize, usize, usize, i64)>,
    /// `(lvar, rvar, column, is_eq, offset)`.
    binary: Vec<(usize, usize, usize, bool, i64)>,
}

const DC_COLUMNS: [&str; 3] = ["Group", "Age", "Flag"];
const UNARY_OPS: [cextend_table::CmpOp; 4] = [
    cextend_table::CmpOp::Eq,
    cextend_table::CmpOp::Ne,
    cextend_table::CmpOp::Lt,
    cextend_table::CmpOp::Ge,
];

fn arb_dc() -> impl Strategy<Value = RandomDc> {
    (
        2usize..4,
        proptest::collection::vec((0usize..3, 0usize..3, 0usize..4, 0i64..60), 0..3),
        proptest::collection::vec(
            (
                0usize..3,
                0usize..3,
                0usize..3,
                0usize..3,
                -2i64..3,
                0usize..4,
            ),
            0..3,
        ),
        0usize..4,
        0usize..4,
    )
        .prop_map(|(arity, unary, binary, shape, key)| {
            let mut dc = RandomDc {
                arity,
                unary: unary
                    .into_iter()
                    .map(|(v, c, op, k)| (v % arity, c, op, k))
                    .collect(),
                binary: binary
                    .into_iter()
                    // Mostly `=` atoms, a third of them offset 0.
                    .map(|(l, r, c, kind, off, end)| {
                        let offset = match (kind, end) {
                            (0, _) => 0,
                            (_, 2) => i64::MAX - off.abs(),
                            (_, 3) => i64::MIN + off.abs(),
                            _ => off,
                        };
                        (l % arity, r % arity, c, kind < 2, offset)
                    })
                    .collect(),
            };
            if shape >= 2 {
                let filter: Vec<_> = dc.unary.iter().map(|&(_, c, op, k)| (c, op, k)).collect();
                dc.unary = (0..arity)
                    .flat_map(|v| filter.iter().map(move |&(c, op, k)| (v, c, op, k)))
                    .collect();
                if shape == 2 {
                    dc.binary.clear();
                }
                if key < 3 {
                    dc.binary
                        .extend((1..arity).map(|v| (v - 1, v, key, true, 0)));
                }
            }
            dc
        })
}

impl RandomDc {
    fn to_dc(&self, name: String) -> DenialConstraint {
        let value = |col: usize, k: i64| match col {
            0 => Value::str(GROUPS[k.rem_euclid(3) as usize]),
            1 => Value::Int(k),
            _ => Value::Int(k % 2),
        };
        let mut atoms: Vec<DcAtom> = self
            .unary
            .iter()
            .map(|&(var, col, op, k)| DcAtom::Unary {
                var,
                column: DC_COLUMNS[col].into(),
                op: UNARY_OPS[op],
                value: value(col, k),
            })
            .collect();
        atoms.extend(
            self.binary
                .iter()
                .map(|&(lvar, rvar, col, is_eq, offset)| DcAtom::Binary {
                    lvar,
                    lcol: DC_COLUMNS[col].into(),
                    op: if is_eq {
                        cextend_table::CmpOp::Eq
                    } else {
                        cextend_table::CmpOp::Lt
                    },
                    rvar,
                    rcol: DC_COLUMNS[col].into(),
                    offset,
                }),
        );
        DenialConstraint::new(name, self.arity, atoms).expect("variables in range")
    }
}

/// [`build`]'s relations and CCs with person cells blanked where `missing`
/// says (`(age, group, flag)`) and a random DC set in place of the fixed
/// one: each DC declared once, or twice when its `dup` flag is set.
fn build_with_dcs(
    si: &SmallInstance,
    missing: &[(bool, bool, bool)],
    dcs: &[(RandomDc, bool)],
) -> CExtensionInstance {
    let base = build(si);
    let mut r1 = base.r1.clone();
    let cols = ["Age", "Group", "Flag"].map(|c| r1.schema().col_id(c).expect("column"));
    for (row, &(age, group, flag)) in missing.iter().enumerate().take(r1.n_rows()) {
        for (col, blank) in cols.iter().zip([age, group, flag]) {
            if blank {
                r1.set(row, *col, None).expect("cell");
            }
        }
    }
    let mut declared = Vec::new();
    for (i, (dc, dup)) in dcs.iter().enumerate() {
        declared.push(dc.to_dc(format!("dc{i}")));
        if *dup {
            declared.push(dc.to_dc(format!("dc{i}-again")));
        }
    }
    CExtensionInstance {
        r1,
        dcs: declared,
        ..base
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No instance that passes `validate()` makes the solver panic, however
    /// its DCs look: random arities and atoms, duplicated DCs (which keep
    /// capacity DCs off the group route), contradictions and missing cells
    /// (rows missing a key join no capacity group). With augmentation on,
    /// every such instance solves DC-clean, recovers the join, and solves
    /// identically at widths 1 and 2.
    #[test]
    fn random_dc_sets_never_panic_the_solver(
        si in arb_instance(),
        missing in proptest::collection::vec(
            (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
            14,
        ),
        blank in 0u32..4,
        dcs in proptest::collection::vec((arb_dc(), proptest::bool::ANY), 1..5),
        seed in 0u64..4,
    ) {
        // Blank cells only in every fourth row (offset by `blank`).
        let missing: Vec<(bool, bool, bool)> = missing
            .iter()
            .enumerate()
            .map(|(i, &cells)| {
                if (i as u32 + blank).is_multiple_of(4) {
                    cells
                } else {
                    (false, false, false)
                }
            })
            .collect();
        let instance = build_with_dcs(&si, &missing, &dcs);
        prop_assume!(instance.validate().is_ok());
        let config = SolverConfig::hybrid().with_seed(seed);
        prop_assert!(config.allow_augmenting_r2);
        let serial = crate::solve(&instance, &config).unwrap();
        let report = evaluate(&instance, &serial).unwrap();
        prop_assert_eq!(report.dc_error, 0.0);
        prop_assert!(report.join_recovered);
        let wide = crate::solve(&instance, &config.with_workers(2)).unwrap();
        prop_assert!(relations_equal_ordered(&serial.r1_hat, &wide.r1_hat));
        prop_assert!(relations_equal_ordered(&serial.r2_hat, &wide.r2_hat));
        prop_assert!(relations_equal_ordered(&serial.vjoin, &wide.vjoin));
        prop_assert_eq!(&serial.stats.counters, &wide.stats.counters);
    }

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
