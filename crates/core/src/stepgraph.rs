//! Deriving a [`cextend_sched::Schedule`] from a snowflake step list.
//!
//! A completion step reads its owner's rows/attributes and its target
//! dimension, and writes exactly two things: the owner's step-FK column and
//! the (possibly extended) target relation. Step `B` therefore depends on
//! an earlier step `A` iff `B`'s owner — or a dimension `B`'s augmented
//! view joins — is the relation `A` completes, or the two steps' writes
//! overlap. Expressed as [`Resource`] access sets:
//!
//! - reads(`B`)  = `Table(owner)` ∪ `Table(target)` ∪ for every joined
//!   earlier edge `e`: `Column(owner, e.fk_col)` ∪ `Table(e.target)`
//! - writes(`B`) = `Column(owner, fk_col)` ∪ `Table(target)`
//!
//! where `Table(X)` stands for `X`'s row set, key and attribute columns and
//! `Column(X, c)` for one FK column of `X` — so two steps that share an
//! owner but complete *different* FK columns (a branching fact table) do
//! not conflict, while a chain step whose owner is an earlier step's target
//! does.
//!
//! **Which earlier dimensions does a step join?** `AugmentedView` can pull
//! the attributes of every dimension reachable through a completed
//! same-owner edge into the step's `R1`, but joining a dimension means
//! *depending* on the step that completed it — which would serialize every
//! branching schema. The scheduler therefore joins an earlier same-owner
//! dimension only when the step's constraints actually reference one of
//! that dimension's attribute columns (a column that belongs to neither the
//! owner nor the step target). Every worker width uses the same pruned
//! join sets, so serial and concurrent execution see identical step inputs
//! — the determinism argument in DESIGN.md §9.

use crate::error::{CoreError, Result};
use crate::snowflake::{FkEdge, SnowflakeStep};
use cextend_constraints::DcAtom;
use cextend_sched::{derive_deps, Access, Resource, Schedule};
use cextend_table::Relation;
use std::collections::BTreeSet;

/// The scheduler's view of a step list: the validated dependency schedule
/// plus, per step, the earlier same-owner edges whose dimensions the step's
/// augmented view joins (the `completed` list handed to the step executor).
#[derive(Clone, Debug)]
pub struct StepPlan {
    /// Topological levels over the declared steps.
    pub schedule: Schedule,
    /// Per step, the earlier edges it joins through (all share the step's
    /// owner), in declared order.
    pub joined: Vec<Vec<FkEdge>>,
}

/// Column names a step's CC and DC sets reference.
fn referenced_columns(step: &SnowflakeStep) -> BTreeSet<String> {
    let mut cols: BTreeSet<String> = BTreeSet::new();
    for cc in &step.ccs {
        cols.extend(cc.r1.columns().map(str::to_owned));
        cols.extend(cc.r2.columns().map(str::to_owned));
    }
    for dc in &step.dcs {
        for atom in &dc.atoms {
            match atom {
                DcAtom::Unary { column, .. } => {
                    cols.insert(column.clone());
                }
                DcAtom::Binary { lcol, rcol, .. } => {
                    cols.insert(lcol.clone());
                    cols.insert(rcol.clone());
                }
            }
        }
    }
    cols
}

/// All column names of a relation's schema.
fn schema_columns(rel: &Relation) -> BTreeSet<String> {
    (0..rel.schema().len())
        .map(|c| rel.schema().column(c).name.clone())
        .collect()
}

fn find_table<'a>(tables: &'a [Relation], name: &str) -> Result<&'a Relation> {
    tables
        .iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| CoreError::Validation(format!("unknown table `{name}`")))
}

/// Plans the execution of `steps` over `tables`: prunes each step's joined
/// dimensions to the ones its constraints reference, derives the
/// resource-conflict dependency graph, and levels it. Fails on unknown
/// tables or (for hand-built dependency lists reaching the scheduler
/// through other paths) cyclic schedules — never by deadlocking.
pub fn plan_steps(tables: &[Relation], steps: &[SnowflakeStep]) -> Result<StepPlan> {
    let mut joined: Vec<Vec<FkEdge>> = Vec::with_capacity(steps.len());
    let mut accesses: Vec<Access> = Vec::with_capacity(steps.len());
    for (j, step) in steps.iter().enumerate() {
        let owner = find_table(tables, &step.edge.owner)?;
        let target = find_table(tables, &step.edge.target)?;
        let referenced = referenced_columns(step);
        let own_cols = schema_columns(owner);
        let target_cols = schema_columns(target);
        let mut joins: Vec<FkEdge> = Vec::new();
        for earlier in &steps[..j] {
            if earlier.edge.owner != step.edge.owner || earlier.edge == step.edge {
                continue;
            }
            let dim = find_table(tables, &earlier.edge.target)?;
            let needs_dim = dim.schema().attr_cols().into_iter().any(|c| {
                let name = &dim.schema().column(c).name;
                referenced.contains(name) && !own_cols.contains(name) && !target_cols.contains(name)
            });
            if needs_dim {
                joins.push(earlier.edge.clone());
            }
        }
        let mut access = Access::new()
            .reads([
                Resource::table(&step.edge.owner),
                Resource::table(&step.edge.target),
            ])
            .writes([
                Resource::column(&step.edge.owner, &step.edge.fk_col),
                Resource::table(&step.edge.target),
            ]);
        for e in &joins {
            access = access.reads([
                Resource::column(&e.owner, &e.fk_col),
                Resource::table(&e.target),
            ]);
        }
        joined.push(joins);
        accesses.push(access);
    }
    let schedule = Schedule::build(derive_deps(&accesses))
        .map_err(|e| CoreError::Validation(e.to_string()))?;
    Ok(StepPlan { schedule, joined })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snowflake::SnowflakeStep;
    use cextend_constraints::{CardinalityConstraint, NormalizedCond};
    use cextend_table::{ColumnDef, Dtype, Schema, ValueSet};

    fn rel(name: &str, cols: Vec<ColumnDef>) -> Relation {
        Relation::new(name, Schema::new(cols).unwrap())
    }

    /// Fact(F) → {D1, D2} star plus a chain hop D1 → L.
    fn star_tables() -> Vec<Relation> {
        vec![
            rel(
                "F",
                vec![
                    ColumnDef::key("fid", Dtype::Int),
                    ColumnDef::attr("X", Dtype::Int),
                    ColumnDef::foreign_key("d1_id", Dtype::Int),
                    ColumnDef::foreign_key("d2_id", Dtype::Int),
                ],
            ),
            rel(
                "D1",
                vec![
                    ColumnDef::key("d1", Dtype::Int),
                    ColumnDef::attr("A", Dtype::Str),
                    ColumnDef::foreign_key("l_id", Dtype::Int),
                ],
            ),
            rel(
                "D2",
                vec![
                    ColumnDef::key("d2", Dtype::Int),
                    ColumnDef::attr("B", Dtype::Str),
                ],
            ),
            rel(
                "L",
                vec![
                    ColumnDef::key("l", Dtype::Int),
                    ColumnDef::attr("C", Dtype::Str),
                ],
            ),
        ]
    }

    fn step(owner: &str, target: &str, fk: &str) -> SnowflakeStep {
        SnowflakeStep::unconstrained(FkEdge::new(owner, target, fk))
    }

    #[test]
    fn star_steps_share_a_level_and_chain_hops_wait() {
        let steps = vec![
            step("F", "D1", "d1_id"),
            step("F", "D2", "d2_id"),
            step("D1", "L", "l_id"),
        ];
        let plan = plan_steps(&star_tables(), &steps).unwrap();
        assert_eq!(plan.schedule.levels(), &[vec![0, 1], vec![2]]);
        assert!(plan.joined.iter().all(Vec::is_empty));
    }

    #[test]
    fn constraint_reference_to_an_earlier_dimension_serializes() {
        // Step 1's CC references D1's attribute `A`, so its view must join
        // D1 — which step 0 completes.
        let cc = CardinalityConstraint::new(
            "spans-d1",
            NormalizedCond::from_sets(vec![("A".to_owned(), ValueSet::range(0, 1))]),
            NormalizedCond::always(),
            0,
        );
        let mut second = step("F", "D2", "d2_id");
        second.ccs = vec![cc];
        let steps = vec![step("F", "D1", "d1_id"), second];
        let plan = plan_steps(&star_tables(), &steps).unwrap();
        assert_eq!(plan.schedule.levels(), &[vec![0], vec![1]]);
        assert_eq!(plan.joined[1], vec![FkEdge::new("F", "D1", "d1_id")]);
    }

    #[test]
    fn owner_or_target_columns_do_not_force_a_join() {
        // `X` lives on the owner and `B` on the step target: neither pulls
        // D1 in, so the star still parallelizes.
        let cc = CardinalityConstraint::new(
            "own-cols",
            NormalizedCond::from_sets(vec![("X".to_owned(), ValueSet::range(0, 5))]),
            NormalizedCond::from_sets(vec![(
                "B".to_owned(),
                ValueSet::sym(cextend_table::Sym::intern("b")),
            )]),
            0,
        );
        let mut second = step("F", "D2", "d2_id");
        second.ccs = vec![cc];
        let steps = vec![step("F", "D1", "d1_id"), second];
        let plan = plan_steps(&star_tables(), &steps).unwrap();
        assert_eq!(plan.schedule.levels(), &[vec![0, 1]]);
        assert!(plan.joined[1].is_empty());
    }

    #[test]
    fn unknown_table_is_a_validation_error() {
        let steps = vec![step("Nope", "D1", "d1_id")];
        assert!(matches!(
            plan_steps(&star_tables(), &steps),
            Err(CoreError::Validation(_))
        ));
    }

    #[test]
    fn mutually_referencing_schema_is_still_acyclic_as_a_step_list() {
        // X → Y then Y → X is a legal declared order: the second step just
        // depends on the first (its owner is the first step's target).
        let tables = vec![
            rel(
                "X",
                vec![
                    ColumnDef::key("x", Dtype::Int),
                    ColumnDef::foreign_key("y_id", Dtype::Int),
                ],
            ),
            rel(
                "Y",
                vec![
                    ColumnDef::key("y", Dtype::Int),
                    ColumnDef::foreign_key("x_id", Dtype::Int),
                ],
            ),
        ];
        let steps = vec![step("X", "Y", "y_id"), step("Y", "X", "x_id")];
        let plan = plan_steps(&tables, &steps).unwrap();
        assert_eq!(plan.schedule.levels(), &[vec![0], vec![1]]);
    }
}
