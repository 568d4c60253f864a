//! Solver configuration: strategy selection for both phases.
//!
//! The paper's evaluation compares three pipelines over the same machinery
//! (Section 6.1); each is a preset here:
//!
//! | preset | Phase I | Phase II |
//! |---|---|---|
//! | [`SolverConfig::hybrid`] | hybrid (Alg. 2 + Alg. 1 with modified marginals) | conflict-graph coloring (Alg. 4) |
//! | [`SolverConfig::baseline`] | Alg. 1 without marginal rows, random completion | random FK among candidates |
//! | [`SolverConfig::baseline_with_marginals`] | Alg. 1 with all-way marginals | random FK among candidates |

/// Which Phase I algorithm completes `V_join`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase1Strategy {
    /// Section 4.3: Algorithm 2 on clean (non-intersecting) diagrams,
    /// Algorithm 1 with modified marginals on the rest.
    Hybrid,
    /// Algorithm 1 on every CC (the Arasu-et-al.-style baseline). With
    /// `marginals = false` the hard per-bin rows are omitted and leftover
    /// rows are completed with random combos, as in the paper's baseline.
    IlpOnly {
        /// Add all-way marginal rows (the "baseline with marginals").
        marginals: bool,
    },
    /// Algorithm 2 only; CCs in diagrams with intersections are dropped
    /// (recorded in the stats). Useful for ablations.
    HasseOnly,
}

/// How Phase II assigns FK values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase2Strategy {
    /// Algorithm 4: partitioned conflict hypergraphs + list coloring.
    Coloring,
    /// Baseline: uniform-random candidate key per tuple, DCs ignored.
    RandomAssignment,
}

/// Coloring engine for [`Phase2Strategy::Coloring`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColoringMode {
    /// Greedy largest-first list coloring (Algorithm 3).
    Greedy,
    /// Exact backtracking search with a step budget, falling back to greedy
    /// when the budget is exhausted. Exponential worst case; used for the
    /// NAE-3SAT reduction and ablations.
    Exact {
        /// Backtracking step budget per partition.
        max_steps: usize,
    },
}

/// ILP arithmetic selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IlpBackend {
    /// Exact rationals below `exact_var_limit` variables, floats above.
    Auto,
    /// Always exact rationals.
    Exact,
    /// Always `f64`.
    Float,
}

/// ILP solve settings.
#[derive(Clone, Copy, Debug)]
pub struct IlpSettings {
    /// Arithmetic backend.
    pub backend: IlpBackend,
    /// Problem size (variables + rows) up to which `Auto` stays exact.
    pub exact_var_limit: usize,
    /// Branch-and-bound node budget before falling back to
    /// largest-remainder rounding of the LP relaxation.
    pub bb_nodes: usize,
    /// Problem size (variables + rows) above which branch-and-bound is
    /// skipped entirely in favour of one LP solve plus rounding: every B&B
    /// node re-solves the LP from scratch, which is prohibitive on the
    /// thousands-of-variables programs the bad CC families produce.
    pub bb_max_size: usize,
    /// Materialize one variable per `(bin, combo)` pair like the original
    /// Arasu-style formulation, instead of only pairs that count toward
    /// some CC. The naive space is what makes the paper's baseline ILP its
    /// bottleneck; the reduction is this reproduction's documented
    /// optimization (DESIGN.md). Baseline presets default to `true`, the
    /// hybrid to `false`.
    pub naive_variables: bool,
    /// Greedy local-search passes over row-combo switches after the ILP
    /// fill, reducing residual CC deviation left by LP rounding (0
    /// disables). Clean-set CCs are protected, so Algorithm 2's exactness
    /// is unaffected. An extension beyond the paper (see DESIGN.md).
    pub repair_passes: usize,
}

impl Default for IlpSettings {
    fn default() -> Self {
        IlpSettings {
            backend: IlpBackend::Auto,
            exact_var_limit: 160,
            bb_nodes: 200,
            bb_max_size: 1200,
            naive_variables: false,
            repair_passes: 2,
        }
    }
}

/// Full solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Phase I strategy.
    pub phase1: Phase1Strategy,
    /// Phase II strategy.
    pub phase2: Phase2Strategy,
    /// Coloring engine (only used by [`Phase2Strategy::Coloring`]).
    pub coloring: ColoringMode,
    /// ILP settings (only used when Phase I reaches Algorithm 1).
    pub ilp: IlpSettings,
    /// Permit inventing fresh `R2` tuples for skipped/invalid tuples
    /// (Algorithm 4 lines 11–14). Disable to make the solver *decide*
    /// C-Extension instead of always succeeding.
    pub allow_augmenting_r2: bool,
    /// Complete **every** `R2` attribute column in Phase I instead of only
    /// the CC-referenced ones. Partitions then split on all `B` columns, as
    /// in the paper's Figure 12 experiment (runtime vs. number of `R2`
    /// columns); the default keeps the paper's "only columns used in S_CC"
    /// optimization.
    pub complete_all_r2_columns: bool,
    /// Width of every worker pool the solver runs: independent chain steps
    /// (`solve_snowflake` runs a schedule level concurrently when
    /// `workers.min(level size) > 1`), Phase I's sharded completion and the
    /// Phase II partition pipeline (Section A.3). 1 runs everything inline.
    /// Output is bit-identical at every width: results merge in step,
    /// shard and partition order, and RNG draws come from per-shard streams
    /// derived from the seed.
    pub workers: usize,
    /// RNG seed (baseline random choices, tie-breaking).
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig::hybrid()
    }
}

impl SolverConfig {
    /// The paper's full approach.
    pub fn hybrid() -> SolverConfig {
        SolverConfig {
            phase1: Phase1Strategy::Hybrid,
            phase2: Phase2Strategy::Coloring,
            coloring: ColoringMode::Greedy,
            ilp: IlpSettings::default(),
            allow_augmenting_r2: true,
            complete_all_r2_columns: false,
            workers: 1,
            seed: 0,
        }
    }

    /// The paper's baseline (Section 6.1, "Baseline"): one big ILP in the
    /// naive variable space, then random FK assignment.
    pub fn baseline() -> SolverConfig {
        SolverConfig {
            phase1: Phase1Strategy::IlpOnly { marginals: false },
            phase2: Phase2Strategy::RandomAssignment,
            ilp: IlpSettings {
                naive_variables: true,
                ..IlpSettings::default()
            },
            ..SolverConfig::hybrid()
        }
    }

    /// The paper's "baseline with marginals".
    pub fn baseline_with_marginals() -> SolverConfig {
        SolverConfig {
            phase1: Phase1Strategy::IlpOnly { marginals: true },
            phase2: Phase2Strategy::RandomAssignment,
            ilp: IlpSettings {
                naive_variables: true,
                ..IlpSettings::default()
            },
            ..SolverConfig::hybrid()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> SolverConfig {
        self.seed = seed;
        self
    }

    /// Builder-style worker-pool width (see [`SolverConfig::workers`]).
    pub fn with_workers(mut self, workers: usize) -> SolverConfig {
        self.workers = workers;
        self
    }

    /// Sets [`SolverConfig::workers`]: [`SchedulerMode::Parallel`] to
    /// [`cextend_sched::pool_width`]`(usize::MAX)`, [`SchedulerMode::Serial`]
    /// to 1.
    #[deprecated(note = "set the width with `with_workers`")]
    pub fn with_scheduler(self, mode: SchedulerMode) -> SolverConfig {
        self.with_pool(mode == SchedulerMode::Parallel)
    }

    /// Sets [`SolverConfig::workers`]: `true` to
    /// [`cextend_sched::pool_width`]`(usize::MAX)`, `false` to 1.
    #[deprecated(note = "set the width with `with_workers`")]
    pub fn with_parallel_phase1(self, parallel: bool) -> SolverConfig {
        self.with_pool(parallel)
    }

    /// Sets [`SolverConfig::workers`]: `true` to
    /// [`cextend_sched::pool_width`]`(usize::MAX)`, `false` to 1.
    #[deprecated(note = "set the width with `with_workers`")]
    pub fn with_parallel_coloring(self, parallel: bool) -> SolverConfig {
        self.with_pool(parallel)
    }

    /// The deprecated shims' one rule: on means the environment's width.
    fn with_pool(self, on: bool) -> SolverConfig {
        self.with_workers(if on {
            cextend_sched::pool_width(usize::MAX)
        } else {
            1
        })
    }
}

/// Argument of the deprecated [`SolverConfig::with_scheduler`] shim.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerMode {
    /// Sets `workers` to 1.
    Serial,
    /// Sets `workers` to [`cextend_sched::pool_width`]`(usize::MAX)`.
    Parallel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_pipelines() {
        let h = SolverConfig::hybrid();
        assert_eq!(h.phase1, Phase1Strategy::Hybrid);
        assert_eq!(h.phase2, Phase2Strategy::Coloring);
        assert!(h.allow_augmenting_r2);

        let b = SolverConfig::baseline();
        assert_eq!(b.phase1, Phase1Strategy::IlpOnly { marginals: false });
        assert_eq!(b.phase2, Phase2Strategy::RandomAssignment);

        let bm = SolverConfig::baseline_with_marginals();
        assert_eq!(bm.phase1, Phase1Strategy::IlpOnly { marginals: true });
    }

    #[test]
    fn seed_builder() {
        assert_eq!(SolverConfig::hybrid().with_seed(42).seed, 42);
    }

    #[test]
    fn workers_default_to_one() {
        assert_eq!(SolverConfig::hybrid().workers, 1);
        assert_eq!(SolverConfig::baseline().workers, 1);
        assert_eq!(SolverConfig::hybrid().with_workers(4).workers, 4);
    }

    /// The shims keep the benchmark harness solving at the environment's
    /// width in every layer.
    #[test]
    #[allow(deprecated)]
    fn deprecated_shims_set_workers() {
        let on = SolverConfig::hybrid()
            .with_scheduler(SchedulerMode::Parallel)
            .with_parallel_phase1(true)
            .with_parallel_coloring(true);
        assert_eq!(on.workers, cextend_sched::pool_width(usize::MAX));
        let wide = SolverConfig::hybrid().with_workers(8);
        assert_eq!(wide.with_scheduler(SchedulerMode::Serial).workers, 1);
        assert_eq!(wide.with_parallel_phase1(false).workers, 1);
        assert_eq!(wide.with_parallel_coloring(false).workers, 1);
    }
}
