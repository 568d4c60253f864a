//! Snowflake-schema extension (end of Section 5.2, Example 5.6).
//!
//! A snowflake database is completed one foreign key at a time, breadth
//! first from the fact table. At each step the relation owning the FK plays
//! `R1` — *augmented with the attribute columns of every dimension it
//! already joined* (so CCs may span `(Students ⋈ Majors) ⋈ Courses`, as in
//! the paper's step 2) — and the referenced dimension plays `R2`. Tuples are
//! only ever added to a relation while it plays `R2`; once it plays `R1` its
//! keys are frozen, which preserves the FK dependencies established earlier.
//!
//! The module is organized as three reusable layers driven end to end by
//! the experiment harness:
//!
//! - [`FkEdge`] — one FK edge of the schema graph (owner, target, FK
//!   column), shared with `cextend-workloads` for multi-relation workloads.
//! - [`AugmentedView`] — plans and materializes the augmented `R1` of a
//!   step over any table set (the solver input with the FK erased, or a
//!   ground-truth measurement view with the FK kept).
//! - [`solve_step`] / [`StepDelta`] / [`solve_snowflake`] — the pure step
//!   solver (reads a table snapshot, returns an outcome plus the writes to
//!   apply) and the scheduled chain driver: `solve_snowflake` plans a
//!   dependency schedule over the steps (`crate::stepgraph`) and runs it
//!   level by level, the independent steps of a level solving concurrently
//!   on a scoped pool of [`crate::SolverConfig::workers`] threads.
//!   Outcomes merge back in declared step order, so every width is
//!   bit-identical to the one-worker run under a fixed seed.
//!
//! One deliberate difference from the paper's sketch, recorded in DESIGN.md
//! §8: second-level dimensions (Majors → Departments) are solved with the
//! *owning* table as `R1` rather than the fully joined fact view. The joined
//! view duplicates each Majors row once per student, so completing the
//! department key per view row could assign one major several departments;
//! solving at the owner keeps the FK functional.

use crate::config::SolverConfig;
use crate::error::{CoreError, Result};
use crate::instance::CExtensionInstance;
use crate::metrics::{evaluate, EvaluationReport};
use crate::report::SolveStats;
use cextend_constraints::{CardinalityConstraint, DenialConstraint};
use cextend_table::{ColId, ColumnDef, Relation, Role, Schema, Value};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One FK edge of a schema graph: `owner.fk_col → target`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FkEdge {
    /// Table owning the FK column (plays `R1`).
    pub owner: String,
    /// Referenced dimension table (plays `R2`).
    pub target: String,
    /// The FK column of `owner` to complete.
    pub fk_col: String,
}

impl FkEdge {
    /// Builds an edge.
    pub fn new(owner: &str, target: &str, fk_col: &str) -> FkEdge {
        FkEdge {
            owner: owner.to_owned(),
            target: target.to_owned(),
            fk_col: fk_col.to_owned(),
        }
    }

    /// `Owner→Target` display label.
    pub fn label(&self) -> String {
        format!("{}→{}", self.owner, self.target)
    }
}

/// One FK-completion step: the edge plus its constraint sets.
#[derive(Clone, Debug)]
pub struct SnowflakeStep {
    /// The FK edge to complete.
    pub edge: FkEdge,
    /// CCs over the augmented `owner ⋈ target` view.
    pub ccs: Vec<CardinalityConstraint>,
    /// DCs over the augmented owner view.
    pub dcs: Vec<DenialConstraint>,
}

impl SnowflakeStep {
    /// A step without constraints (useful for pure completion).
    pub fn unconstrained(edge: FkEdge) -> SnowflakeStep {
        SnowflakeStep {
            edge,
            ccs: Vec::new(),
            dcs: Vec::new(),
        }
    }
}

/// A dimension whose attributes are pulled into the augmented view through
/// an already-completed FK of the owner.
#[derive(Clone, Debug)]
struct JoinedDim {
    /// Index of the dimension in the table set.
    table: usize,
    /// Its attribute columns, in schema order.
    attrs: Vec<ColId>,
    /// The owner's (completed) FK column that reaches it.
    via_fk: ColId,
}

/// The planned augmented `R1` of one step: the owner's key and attributes,
/// the attributes of every dimension the owner already joined, and the
/// step's FK column last.
///
/// Planning is separated from materialization so the same plan can build
/// both the solver input (`erase_fk = true`) and a ground-truth measurement
/// view (`erase_fk = false`, on tables whose FKs are filled).
#[derive(Clone, Debug)]
pub struct AugmentedView {
    edge: FkEdge,
    owner_idx: usize,
    target_idx: usize,
    key_id: ColId,
    attr_ids: Vec<ColId>,
    fk_id: ColId,
    joined: Vec<JoinedDim>,
    schema: Schema,
}

impl AugmentedView {
    /// Plans the augmented view of `edge.owner` over `tables`, pulling in
    /// the attribute columns of every dimension reachable through a
    /// `completed` edge of the same owner.
    pub fn plan(tables: &[Relation], completed: &[FkEdge], edge: &FkEdge) -> Result<AugmentedView> {
        let owner_idx = find_table(tables, &edge.owner)?;
        let target_idx = find_table(tables, &edge.target)?;
        if owner_idx == target_idx {
            return Err(CoreError::Validation(format!(
                "step `{}` has owner == target",
                edge.owner
            )));
        }
        let owner = &tables[owner_idx];
        let fk_id = owner.schema().col_id(&edge.fk_col).ok_or_else(|| {
            CoreError::Validation(format!(
                "table `{}` has no column `{}`",
                edge.owner, edge.fk_col
            ))
        })?;
        if owner.schema().column(fk_id).role != Role::ForeignKey {
            return Err(CoreError::Validation(format!(
                "column `{}` of `{}` is not a foreign key",
                edge.fk_col, edge.owner
            )));
        }
        let key_id = owner.schema().key_col().ok_or_else(|| {
            CoreError::Validation(format!("table `{}` needs a key column", edge.owner))
        })?;
        let mut cols: Vec<ColumnDef> = Vec::new();
        cols.push(owner.schema().column(key_id).clone());
        let attr_ids = owner.schema().attr_cols();
        for &a in &attr_ids {
            cols.push(owner.schema().column(a).clone());
        }
        let mut joined: Vec<JoinedDim> = Vec::new();
        for e in completed {
            if e.owner != edge.owner {
                continue;
            }
            let dim_idx = find_table(tables, &e.target)?;
            let dim = &tables[dim_idx];
            let dim_attrs = dim.schema().attr_cols();
            for &a in &dim_attrs {
                let mut def = dim.schema().column(a).clone();
                def.role = Role::Attr;
                cols.push(def);
            }
            let via_fk = owner.schema().col_id(&e.fk_col).ok_or_else(|| {
                CoreError::Validation(format!(
                    "completed edge references missing column `{}` of `{}`",
                    e.fk_col, e.owner
                ))
            })?;
            joined.push(JoinedDim {
                table: dim_idx,
                attrs: dim_attrs,
                via_fk,
            });
        }
        cols.push(owner.schema().column(fk_id).clone());
        let schema = Schema::new(cols)?;
        Ok(AugmentedView {
            edge: edge.clone(),
            owner_idx,
            target_idx,
            key_id,
            attr_ids,
            fk_id,
            joined,
            schema,
        })
    }

    /// Index of the owner in the planned table set.
    pub fn owner_index(&self) -> usize {
        self.owner_idx
    }

    /// Index of the target dimension in the planned table set.
    pub fn target_index(&self) -> usize {
        self.target_idx
    }

    /// The augmented view's schema (key, owner attrs, joined dim attrs,
    /// step FK).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Materializes the augmented relation over `tables` (which must be the
    /// table set the plan was built against, or one with identical
    /// schemas). With `erase_fk` the step's FK column is left missing (the
    /// solver input); without it the owner's FK values are copied through
    /// (ground-truth measurement views).
    pub fn build(&self, tables: &[Relation], erase_fk: bool) -> Result<Relation> {
        let owner = &tables[self.owner_idx];
        let width = self.schema.len();
        let mut out = Relation::with_capacity(
            &format!("{}*", self.edge.owner),
            self.schema.clone(),
            owner.n_rows(),
        );
        // Key lookups for joined dims.
        let dim_indexes: Vec<HashMap<Value, usize>> = self
            .joined
            .iter()
            .map(|d| {
                let dim = &tables[d.table];
                let k = dim.schema().key_col().expect("dimension has a key");
                dim.rows()
                    .filter_map(|r| dim.get(r, k).map(|v| (v, r)))
                    .collect()
            })
            .collect();
        for row in owner.rows() {
            let mut cells: Vec<Option<Value>> = Vec::with_capacity(width);
            cells.push(owner.get(row, self.key_id));
            for &a in &self.attr_ids {
                cells.push(owner.get(row, a));
            }
            for (ji, d) in self.joined.iter().enumerate() {
                let dim_row = owner
                    .get(row, d.via_fk)
                    .and_then(|k| dim_indexes[ji].get(&k).copied());
                for &a in &d.attrs {
                    cells.push(dim_row.and_then(|r| tables[d.table].get(r, a)));
                }
            }
            cells.push(if erase_fk {
                None
            } else {
                owner.get(row, self.fk_id)
            });
            out.push_row(&cells)?;
        }
        Ok(out)
    }
}

/// What one completed step reports: per-step statistics and the evaluation
/// of the step's solution against its augmented instance.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// `Owner→Target` label.
    pub label: String,
    /// `R1` rows the step actually solved (the owner *after* any extension
    /// by earlier steps — fresh dimension tuples minted upstream enter
    /// later steps as ordinary rows).
    pub n_r1: usize,
    /// `R2` rows of the step's input (the target before this step's own
    /// possible extension).
    pub n_r2: usize,
    /// The step's solver statistics.
    pub stats: SolveStats,
    /// CC/DC errors and join recovery on the step's augmented view.
    pub report: EvaluationReport,
    /// Wall-clock time of the step (instance build + solve + evaluation).
    pub wall: Duration,
}

/// One scheduler level of a solved chain: which steps ran together and how
/// long the level took end to end.
#[derive(Clone, Debug)]
pub struct LevelOutcome {
    /// Declared indices of the steps in this level, ascending.
    pub steps: Vec<usize>,
    /// Wall-clock time of the level: the measured spawn-to-join time of its
    /// worker pool when [`LevelOutcome::parallel`], else the sum of the
    /// member steps' walls.
    pub wall: Duration,
    /// Whether the level's steps ran concurrently: exactly when
    /// [`crate::SolverConfig::workers`] and the level's step count both
    /// exceed 1.
    pub parallel: bool,
}

/// Result of completing a snowflake database.
#[derive(Clone, Debug)]
pub struct SnowflakeSolution {
    /// All tables, FKs completed, dimensions possibly extended.
    pub tables: Vec<Relation>,
    /// Per-step outcomes, in declared step order.
    pub steps: Vec<StepOutcome>,
    /// Scheduler levels, in execution order (every declared step appears in
    /// exactly one level).
    pub levels: Vec<LevelOutcome>,
}

impl SnowflakeSolution {
    /// Counters and timings summed across every step of the chain.
    pub fn total_stats(&self) -> SolveStats {
        let mut total = SolveStats::default();
        for step in &self.steps {
            total.absorb(&step.stats);
        }
        total
    }

    /// Looks up a completed table by name.
    pub fn table(&self, name: &str) -> Option<&Relation> {
        self.tables.iter().find(|t| t.name() == name)
    }
}

/// The writes one solved step wants to apply: the completed FK column of
/// the owner plus the (possibly extended) target dimension. Keeping the
/// writes separate from the solve is what lets independent steps solve
/// concurrently against one immutable table snapshot and merge back in
/// declared order.
#[derive(Clone, Debug)]
pub struct StepDelta {
    owner_idx: usize,
    fk_id: ColId,
    fk_values: Vec<Option<Value>>,
    target_idx: usize,
    new_target: Relation,
}

impl StepDelta {
    /// Applies the writes to the table set the step was solved against.
    pub fn apply(self, tables: &mut [Relation]) -> Result<()> {
        for (row, v) in self.fk_values.into_iter().enumerate() {
            tables[self.owner_idx].set(row, self.fk_id, v)?;
        }
        tables[self.target_idx] = self.new_target;
        Ok(())
    }
}

/// Solves one FK-completion step against an immutable table snapshot:
/// builds the augmented `R1` (joining the dimensions of the `completed`
/// same-owner edges), solves the step's C-Extension instance and evaluates
/// it. Pure — the writes come back as a [`StepDelta`] for the caller to
/// [`StepDelta::apply`].
pub fn solve_step(
    tables: &[Relation],
    completed: &[FkEdge],
    step: &SnowflakeStep,
    config: &SolverConfig,
) -> Result<(StepOutcome, StepDelta)> {
    let start = Instant::now();
    let _step_span = cextend_obs::span_dyn(|| format!("step:{}", step.edge.label()));
    let plan = AugmentedView::plan(tables, completed, &step.edge)?;
    let r1 = plan.build(tables, true)?;
    let instance = CExtensionInstance::new(
        r1,
        tables[plan.target_index()].clone(),
        step.ccs.clone(),
        step.dcs.clone(),
    )?;
    let (n_r1, n_r2) = (instance.r1.n_rows(), instance.r2.n_rows());
    let solution = crate::solve(&instance, config)?;
    let evaluate_span = cextend_obs::span("evaluate");
    let report = evaluate(&instance, &solution)?;
    drop(evaluate_span);

    let owner_idx = plan.owner_index();
    let sol_fk = solution
        .r1_hat
        .schema()
        .fk_col()
        .expect("solved R1 has the fk");
    let fk_id = tables[owner_idx]
        .schema()
        .col_id(&step.edge.fk_col)
        .expect("planned fk column exists");
    let fk_values: Vec<Option<Value>> = (0..tables[owner_idx].n_rows())
        .map(|row| solution.r1_hat.get(row, sol_fk))
        .collect();
    let outcome = StepOutcome {
        label: step.edge.label(),
        n_r1,
        n_r2,
        stats: solution.stats,
        report,
        wall: start.elapsed(),
    };
    let delta = StepDelta {
        owner_idx,
        fk_id,
        fk_values,
        target_idx: plan.target_index(),
        new_target: solution.r2_hat,
    };
    Ok((outcome, delta))
}

/// Executes one FK-completion step in place: [`solve_step`] followed by
/// [`StepDelta::apply`].
pub fn execute_step(
    tables: &mut [Relation],
    completed: &[FkEdge],
    step: &SnowflakeStep,
    config: &SolverConfig,
) -> Result<StepOutcome> {
    let (outcome, delta) = solve_step(tables, completed, step, config)?;
    delta.apply(tables)?;
    Ok(outcome)
}

/// Completes every FK listed in `steps`.
///
/// The steps are first planned into a dependency schedule
/// ([`crate::stepgraph::plan_steps`]), then run level by level: the steps
/// of a level solve against the level-start snapshot, concurrently on up to
/// [`crate::SolverConfig::workers`] threads, and their [`StepDelta`]s apply
/// in declared order.
///
/// Because two steps share a level only when neither reads anything the
/// other writes, every step sees the same input tables at every width, and
/// the completed relations are bit-identical under a fixed seed.
pub fn solve_snowflake(
    mut tables: Vec<Relation>,
    steps: &[SnowflakeStep],
    config: &SolverConfig,
) -> Result<SnowflakeSolution> {
    let plan = crate::stepgraph::plan_steps(&tables, steps)?;
    let mut outcomes: Vec<Option<StepOutcome>> = Vec::with_capacity(steps.len());
    outcomes.resize_with(steps.len(), || None);
    let mut levels: Vec<LevelOutcome> = Vec::with_capacity(plan.schedule.levels().len());
    for level in plan.schedule.levels() {
        let parallel = config.workers.min(level.len()) > 1;
        let level_start = Instant::now();
        let solved = cextend_sched::run_tasks(level, config.workers, |i| {
            solve_step(&tables, &plan.joined[i], &steps[i], config)
        })?;
        // Both walls cover exactly the solves (deltas apply outside): the
        // parallel wall is the measured spawn-to-join time, the serial one
        // the sum of the member steps' own walls.
        let pool_wall = level_start.elapsed();
        let mut wall = Duration::ZERO;
        for (&i, (outcome, delta)) in level.iter().zip(solved) {
            wall += outcome.wall;
            outcomes[i] = Some(outcome);
            delta.apply(&mut tables)?;
        }
        levels.push(LevelOutcome {
            steps: level.clone(),
            wall: if parallel { pool_wall } else { wall },
            parallel,
        });
    }
    Ok(SnowflakeSolution {
        tables,
        steps: outcomes
            .into_iter()
            .map(|o| o.expect("every step scheduled exactly once"))
            .collect(),
        levels,
    })
}

fn find_table(tables: &[Relation], name: &str) -> Result<usize> {
    tables
        .iter()
        .position(|t| t.name() == name)
        .ok_or_else(|| CoreError::Validation(format!("unknown table `{name}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::dc_error;
    use cextend_constraints::{parse_cc, parse_dc};
    use cextend_table::Dtype;

    /// Example 5.6's university schema, miniaturized.
    fn university() -> Vec<Relation> {
        let students = {
            let schema = Schema::new(vec![
                ColumnDef::key("sid", Dtype::Int),
                ColumnDef::attr("Year", Dtype::Int),
                ColumnDef::foreign_key("major_id", Dtype::Int),
            ])
            .unwrap();
            let mut r = Relation::new("Students", schema);
            for sid in 0..30 {
                r.push_row(&[Some(Value::Int(sid)), Some(Value::Int(1 + sid % 4)), None])
                    .unwrap();
            }
            r
        };
        let majors = {
            let schema = Schema::new(vec![
                ColumnDef::key("mid", Dtype::Int),
                ColumnDef::attr("Field", Dtype::Str),
                ColumnDef::foreign_key("dept_id", Dtype::Int),
            ])
            .unwrap();
            let mut r = Relation::new("Majors", schema);
            for (mid, field) in [(1, "CS"), (2, "CS"), (3, "Math"), (4, "Art")] {
                r.push_row(&[Some(Value::Int(mid)), Some(Value::str(field)), None])
                    .unwrap();
            }
            r
        };
        let departments = {
            let schema = Schema::new(vec![
                ColumnDef::key("did", Dtype::Int),
                ColumnDef::attr("Division", Dtype::Str),
            ])
            .unwrap();
            let mut r = Relation::new("Departments", schema);
            for (did, div) in [(1, "Science"), (2, "Humanities")] {
                r.push_full_row(&[Value::Int(did), Value::str(div)])
                    .unwrap();
            }
            r
        };
        vec![students, majors, departments]
    }

    #[test]
    fn example_5_6_pipeline_completes_all_fks() {
        let r2_majors: std::collections::HashSet<String> =
            ["Field".to_owned()].into_iter().collect();
        let r2_depts: std::collections::HashSet<String> =
            ["Division".to_owned()].into_iter().collect();
        let steps = vec![
            SnowflakeStep {
                edge: FkEdge::new("Students", "Majors", "major_id"),
                ccs: vec![
                    parse_cc("cs", r#"| Field = "CS" | = 18"#, &r2_majors).unwrap(),
                    parse_cc(
                        "art-seniors",
                        r#"| Year = 4 & Field = "Art" | = 3"#,
                        &r2_majors,
                    )
                    .unwrap(),
                ],
                dcs: vec![],
            },
            SnowflakeStep {
                edge: FkEdge::new("Majors", "Departments", "dept_id"),
                ccs: vec![parse_cc("sci", r#"| Division = "Science" | = 3"#, &r2_depts).unwrap()],
                // Two CS majors must not share a department.
                dcs: vec![parse_dc(
                    "unique-cs",
                    r#"!(t1.Field = "CS" & t2.Field = "CS" & t1.dept_id = t2.dept_id)"#,
                    "dept_id",
                )
                .unwrap()],
            },
        ];
        let solved = solve_snowflake(university(), &steps, &SolverConfig::hybrid()).unwrap();
        // Every FK column is complete.
        let students = solved.table("Students").unwrap();
        let majors = solved.table("Majors").unwrap();
        assert!(students.column_is_complete(students.schema().col_id("major_id").unwrap()));
        assert!(majors.column_is_complete(majors.schema().col_id("dept_id").unwrap()));
        // CC on the first step: 18 CS students.
        let joined = cextend_table::fk_join(students, majors).unwrap();
        let cs = cextend_table::Predicate::new(vec![cextend_table::Atom::eq("Field", "CS")]);
        assert_eq!(cs.count(&joined).unwrap(), 18);
        // The DC of step 2 holds, and the per-step reports agree.
        assert_eq!(dc_error(majors, &steps[1].dcs).unwrap(), 0.0);
        assert_eq!(solved.steps.len(), 2);
        for step in &solved.steps {
            assert_eq!(step.report.dc_error, 0.0, "{}", step.label);
            assert!(step.report.join_recovered, "{}", step.label);
        }
        assert_eq!(solved.steps[0].label, "Students→Majors");
    }

    #[test]
    fn total_stats_sums_the_steps() {
        let steps = vec![
            SnowflakeStep::unconstrained(FkEdge::new("Students", "Majors", "major_id")),
            SnowflakeStep::unconstrained(FkEdge::new("Majors", "Departments", "dept_id")),
        ];
        let solved = solve_snowflake(university(), &steps, &SolverConfig::hybrid()).unwrap();
        let total = solved.total_stats();
        let by_hand: usize = solved
            .steps
            .iter()
            .map(|s| s.stats.counters.partitions)
            .sum();
        assert_eq!(total.counters.partitions, by_hand);
        let wall_sum: Duration = solved.steps.iter().map(|s| s.stats.timings.total()).sum();
        assert_eq!(total.timings.total(), wall_sum);
    }

    #[test]
    fn second_step_ccs_can_reference_first_dimension() {
        // After Students→Majors completes, a Students→Courses-style step
        // could constrain on Field; here we verify the augmented view is
        // built by referencing Field in the Majors→Departments DC (above)
        // and by checking that an owner with zero completed FKs also works.
        let r2_depts: std::collections::HashSet<String> =
            ["Division".to_owned()].into_iter().collect();
        let steps = vec![SnowflakeStep {
            edge: FkEdge::new("Majors", "Departments", "dept_id"),
            ccs: vec![parse_cc("hum", r#"| Division = "Humanities" | = 1"#, &r2_depts).unwrap()],
            dcs: vec![],
        }];
        let solved = solve_snowflake(university(), &steps, &SolverConfig::hybrid()).unwrap();
        let majors = solved.table("Majors").unwrap();
        assert!(majors.column_is_complete(majors.schema().col_id("dept_id").unwrap()));
    }

    #[test]
    fn augmented_view_keeps_truth_fks_when_not_erasing() {
        let mut tables = university();
        // Fill the Students FK by hand to simulate a ground truth.
        let fk = tables[0].schema().col_id("major_id").unwrap();
        for r in 0..tables[0].n_rows() {
            tables[0]
                .set(r, fk, Some(Value::Int(1 + (r as i64) % 4)))
                .unwrap();
        }
        let edge = FkEdge::new("Students", "Majors", "major_id");
        let plan = AugmentedView::plan(&tables, &[], &edge).unwrap();
        let erased = plan.build(&tables, true).unwrap();
        let kept = plan.build(&tables, false).unwrap();
        let out_fk = kept.schema().col_id("major_id").unwrap();
        assert!(erased.column_is_missing(out_fk));
        assert!(kept.column_is_complete(out_fk));
        assert_eq!(kept.schema().fk_col(), Some(out_fk));
    }

    #[test]
    fn chain_solves_are_bit_identical_at_every_width() {
        let steps = vec![
            SnowflakeStep {
                edge: FkEdge::new("Students", "Majors", "major_id"),
                ccs: vec![parse_cc(
                    "cs",
                    r#"| Field = "CS" | = 18"#,
                    &["Field".to_owned()].into_iter().collect(),
                )
                .unwrap()],
                dcs: vec![],
            },
            SnowflakeStep::unconstrained(FkEdge::new("Majors", "Departments", "dept_id")),
        ];
        let config = SolverConfig::hybrid().with_seed(3);
        let serial = solve_snowflake(university(), &steps, &config).unwrap();
        assert_eq!(serial.levels.len(), 2);
        for workers in [2, 4] {
            let wide =
                solve_snowflake(university(), &steps, &config.with_workers(workers)).unwrap();
            for (s, w) in serial.tables.iter().zip(&wide.tables) {
                assert!(
                    cextend_table::relations_equal_ordered(s, w),
                    "{} diverged at {workers} workers",
                    s.name()
                );
            }
            assert_eq!(serial.total_stats().counters, wide.total_stats().counters);
            // A chain has one step per level, so no level runs its steps
            // concurrently at any width.
            assert!(wide.levels.iter().all(|l| !l.parallel));
        }
    }

    #[test]
    fn levels_cover_every_step_exactly_once() {
        let steps = vec![
            SnowflakeStep::unconstrained(FkEdge::new("Students", "Majors", "major_id")),
            SnowflakeStep::unconstrained(FkEdge::new("Majors", "Departments", "dept_id")),
        ];
        let solved = solve_snowflake(university(), &steps, &SolverConfig::hybrid()).unwrap();
        let mut seen: Vec<usize> = solved.levels.iter().flat_map(|l| l.steps.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
        // Serial level wall is the sum of its member steps' walls.
        for level in &solved.levels {
            let sum: Duration = level.steps.iter().map(|&i| solved.steps[i].wall).sum();
            assert_eq!(level.wall, sum);
        }
    }

    #[test]
    fn unknown_table_and_non_fk_column_rejected() {
        let steps = vec![SnowflakeStep::unconstrained(FkEdge::new(
            "Nope", "Majors", "major_id",
        ))];
        assert!(matches!(
            solve_snowflake(university(), &steps, &SolverConfig::hybrid()),
            Err(CoreError::Validation(_))
        ));
        let steps = vec![SnowflakeStep::unconstrained(FkEdge::new(
            "Students", "Majors", "Year",
        ))];
        assert!(matches!(
            solve_snowflake(university(), &steps, &SolverConfig::hybrid()),
            Err(CoreError::Validation(_))
        ));
    }
}
