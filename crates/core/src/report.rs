//! Solve statistics: per-stage timings and structural counters.
//!
//! The paper's runtime figures (11a, 11b, 13) break the pipeline into
//! pairwise CC comparison, Hasse recursion, ILP solving and coloring;
//! [`SolveStats`] captures exactly those stages so the benchmark harness can
//! print the same rows.

use std::fmt;
use std::time::Duration;

/// Wall-clock time per pipeline stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Labeling CC pairs as disjoint/contained/intersecting (hybrid only).
    pub pairwise_comparison: Duration,
    /// Algorithm 2's recursion over Hasse diagrams.
    pub recursion: Duration,
    /// Building the ILP model (variables, rows).
    pub ilp_build: Duration,
    /// Solving the ILP (LP + branch-and-bound + rounding).
    pub ilp_solve: Duration,
    /// Greedy fill of `V_join` rows from ILP variable values.
    pub fill: Duration,
    /// Local-search repair of ILP rounding residue.
    pub repair: Duration,
    /// Final completion of leftover rows with CC-neutral combos
    /// (Algorithm 2 lines 14–17, generalized).
    pub leftovers: Duration,
    /// Baseline random completion of leftover rows (`IlpOnly` strategies).
    pub random: Duration,
    /// Partitioning `V_join` and building conflict hypergraphs.
    pub conflict_build: Duration,
    /// List coloring (greedy or exact), including fresh-color repair.
    pub coloring: Duration,
    /// Handling invalid tuples (`solveInvalidTuples`).
    pub invalid_handling: Duration,
}

impl StageTimings {
    /// Builds timings from the `(stage name, total)` pairs an
    /// `obs::Frame` accumulated. This is how a solve's `StageTimings` are
    /// derived — stages are recorded once, by the observability layer,
    /// instead of being hand-threaded through every call site. Unknown
    /// names (auxiliary spans) are ignored; repeated names accumulate.
    pub fn from_named(stages: &[(&'static str, Duration)]) -> StageTimings {
        let mut t = StageTimings::default();
        for &(name, dur) in stages {
            match name {
                "pairwise" => t.pairwise_comparison += dur,
                "hasse" => t.recursion += dur,
                "ilp_build" => t.ilp_build += dur,
                "ilp_solve" => t.ilp_solve += dur,
                "fill" => t.fill += dur,
                "repair" => t.repair += dur,
                "leftovers" => t.leftovers += dur,
                "random" => t.random += dur,
                "conflict_build" => t.conflict_build += dur,
                "coloring" => t.coloring += dur,
                "invalid" => t.invalid_handling += dur,
                _ => {}
            }
        }
        t
    }

    /// Total Phase I time.
    pub fn phase1(&self) -> Duration {
        self.pairwise_comparison
            + self.recursion
            + self.ilp_build
            + self.ilp_solve
            + self.fill
            + self.repair
            + self.leftovers
            + self.random
    }

    /// Total Phase II time.
    pub fn phase2(&self) -> Duration {
        self.conflict_build + self.coloring + self.invalid_handling
    }

    /// Total solve time.
    pub fn total(&self) -> Duration {
        self.phase1() + self.phase2()
    }

    /// Adds another timing set stage by stage (used to aggregate the steps
    /// of a snowflake pipeline into chain totals).
    pub fn absorb(&mut self, other: &StageTimings) {
        self.pairwise_comparison += other.pairwise_comparison;
        self.recursion += other.recursion;
        self.ilp_build += other.ilp_build;
        self.ilp_solve += other.ilp_solve;
        self.fill += other.fill;
        self.repair += other.repair;
        self.leftovers += other.leftovers;
        self.random += other.random;
        self.conflict_build += other.conflict_build;
        self.coloring += other.coloring;
        self.invalid_handling += other.invalid_handling;
    }
}

/// Structural counters describing what the solve did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveCounters {
    /// CCs routed to Algorithm 2 (the clean set `S1`).
    pub s1_ccs: usize,
    /// CCs routed to Algorithm 1 (the intersecting set `S2`).
    pub s2_ccs: usize,
    /// Duplicate CCs removed before solving.
    pub deduped_ccs: usize,
    /// Bins after intervalization.
    pub bins: usize,
    /// ILP variables created.
    pub ilp_vars: usize,
    /// ILP rows created (hard + soft).
    pub ilp_rows: usize,
    /// Branch-and-bound nodes explored.
    pub ilp_nodes: usize,
    /// `true` if the ILP fell back to LP rounding.
    pub ilp_rounded: bool,
    /// ILP solves whose branch-and-bound stopped on its node budget
    /// (`IlpSettings::bb_nodes`): the best incumbent is kept, or, with
    /// none, the LP relaxation is rounded.
    pub ilp_budget_fallbacks: usize,
    /// `V_join` partitions processed in Phase II.
    pub partitions: usize,
    /// Conflict hyperedges across all partitions, counting the edges each
    /// capacity group stands for.
    pub conflict_edges: usize,
    /// Vertices skipped by the greedy coloring.
    pub skipped_vertices: usize,
    /// Fresh tuples added to `R̂2`.
    pub new_r2_tuples: usize,
    /// Invalid tuples (no `B` assignment after Phase I).
    pub invalid_tuples: usize,
    /// Rows Algorithm 2 assigned.
    pub hasse_assigned_rows: usize,
    /// Rows Algorithm 1's greedy fill assigned.
    pub ilp_assigned_rows: usize,
    /// Row-combo switches applied by the local-search repair pass.
    pub repair_moves: usize,
    /// Partitions whose exact coloring ran out of its step budget, so the
    /// greedy coloring took over ([`crate::ColoringMode::Exact`]).
    pub exact_budget_fallbacks: usize,
}

impl SolveCounters {
    /// Adds another counter set field by field (`ilp_rounded` ORs).
    pub fn absorb(&mut self, other: &SolveCounters) {
        self.s1_ccs += other.s1_ccs;
        self.s2_ccs += other.s2_ccs;
        self.deduped_ccs += other.deduped_ccs;
        self.bins += other.bins;
        self.ilp_vars += other.ilp_vars;
        self.ilp_rows += other.ilp_rows;
        self.ilp_nodes += other.ilp_nodes;
        self.ilp_rounded |= other.ilp_rounded;
        self.ilp_budget_fallbacks += other.ilp_budget_fallbacks;
        self.partitions += other.partitions;
        self.conflict_edges += other.conflict_edges;
        self.skipped_vertices += other.skipped_vertices;
        self.new_r2_tuples += other.new_r2_tuples;
        self.invalid_tuples += other.invalid_tuples;
        self.hasse_assigned_rows += other.hasse_assigned_rows;
        self.ilp_assigned_rows += other.ilp_assigned_rows;
        self.repair_moves += other.repair_moves;
        self.exact_budget_fallbacks += other.exact_budget_fallbacks;
    }
}

/// Everything a solve reports besides the relations themselves.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Structural counters.
    pub counters: SolveCounters,
}

impl SolveStats {
    /// Adds another solve's timings and counters into this one.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.timings.absorb(&other.timings);
        self.counters.absorb(&other.counters);
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = &self.timings;
        let c = &self.counters;
        writeln!(f, "phase I : {:?}", t.phase1())?;
        writeln!(f, "  pairwise comparison : {:?}", t.pairwise_comparison)?;
        writeln!(f, "  recursion           : {:?}", t.recursion)?;
        writeln!(
            f,
            "  ILP build/solve     : {:?} / {:?}",
            t.ilp_build, t.ilp_solve
        )?;
        writeln!(f, "  fill / repair       : {:?} / {:?}", t.fill, t.repair)?;
        writeln!(
            f,
            "  leftovers / random  : {:?} / {:?}",
            t.leftovers, t.random
        )?;
        writeln!(f, "phase II: {:?}", t.phase2())?;
        writeln!(f, "  conflict build      : {:?}", t.conflict_build)?;
        writeln!(f, "  coloring            : {:?}", t.coloring)?;
        writeln!(f, "  invalid handling    : {:?}", t.invalid_handling)?;
        writeln!(f, "total   : {:?}", t.total())?;
        writeln!(
            f,
            "CCs: {} clean (Alg.2) + {} intersecting (Alg.1), {} deduped",
            c.s1_ccs, c.s2_ccs, c.deduped_ccs
        )?;
        writeln!(
            f,
            "ILP: {} vars, {} rows, {} nodes{}",
            c.ilp_vars,
            c.ilp_rows,
            c.ilp_nodes,
            if c.ilp_rounded { " (rounded)" } else { "" }
        )?;
        writeln!(
            f,
            "phase II: {} partitions, {} edges, {} skipped, {} new R2 tuples, {} invalid",
            c.partitions, c.conflict_edges, c.skipped_vertices, c.new_r2_tuples, c.invalid_tuples
        )
    }
}

/// The solver's output (Proposition 5.5): `R̂1` with FK complete, `R̂2`
/// possibly extended, the completed join view, and statistics.
#[derive(Clone, Debug)]
pub struct Solution {
    /// `R1` with every FK value filled in.
    pub r1_hat: cextend_table::Relation,
    /// `R2`, possibly with artificial tuples appended.
    pub r2_hat: cextend_table::Relation,
    /// The completed join view (`R̂1 ⋈ R̂2`).
    pub vjoin: cextend_table::Relation,
    /// Timings and counters.
    pub stats: SolveStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_totals_add_up() {
        let t = StageTimings {
            recursion: Duration::from_millis(5),
            ilp_solve: Duration::from_millis(7),
            repair: Duration::from_millis(2),
            leftovers: Duration::from_millis(3),
            random: Duration::from_millis(1),
            coloring: Duration::from_millis(11),
            ..StageTimings::default()
        };
        assert_eq!(t.phase1(), Duration::from_millis(18));
        assert_eq!(t.phase2(), Duration::from_millis(11));
        assert_eq!(t.total(), Duration::from_millis(29));
    }

    #[test]
    fn from_named_maps_stage_names_and_ignores_strangers() {
        let t = StageTimings::from_named(&[
            ("pairwise", Duration::from_millis(1)),
            ("hasse", Duration::from_millis(2)),
            ("hasse", Duration::from_millis(3)),
            ("conflict_build", Duration::from_millis(4)),
            ("invalid", Duration::from_millis(5)),
            ("task:7", Duration::from_millis(99)),
        ]);
        assert_eq!(t.pairwise_comparison, Duration::from_millis(1));
        assert_eq!(t.recursion, Duration::from_millis(5));
        assert_eq!(t.conflict_build, Duration::from_millis(4));
        assert_eq!(t.invalid_handling, Duration::from_millis(5));
        assert_eq!(t.phase1(), Duration::from_millis(6));
        assert_eq!(t.phase2(), Duration::from_millis(9));
    }

    #[test]
    fn absorb_sums_timings_and_counters() {
        let mut a = SolveStats {
            timings: StageTimings {
                recursion: Duration::from_millis(5),
                ..StageTimings::default()
            },
            counters: SolveCounters {
                new_r2_tuples: 2,
                ilp_rounded: false,
                ..SolveCounters::default()
            },
        };
        let b = SolveStats {
            timings: StageTimings {
                recursion: Duration::from_millis(7),
                leftovers: Duration::from_millis(2),
                coloring: Duration::from_millis(1),
                ..StageTimings::default()
            },
            counters: SolveCounters {
                new_r2_tuples: 3,
                ilp_rounded: true,
                exact_budget_fallbacks: 2,
                ..SolveCounters::default()
            },
        };
        a.absorb(&b);
        assert_eq!(a.timings.recursion, Duration::from_millis(12));
        assert_eq!(a.timings.leftovers, Duration::from_millis(2));
        assert_eq!(a.timings.phase2(), Duration::from_millis(1));
        assert_eq!(a.counters.new_r2_tuples, 5);
        assert!(a.counters.ilp_rounded);
        assert_eq!(a.counters.exact_budget_fallbacks, 2);
    }

    #[test]
    fn display_mentions_stages() {
        let s = SolveStats::default();
        let txt = s.to_string();
        assert!(txt.contains("pairwise comparison"));
        assert!(txt.contains("repair"));
        assert!(txt.contains("leftovers"));
        assert!(txt.contains("coloring"));
        assert!(txt.contains("invalid"));
    }
}
