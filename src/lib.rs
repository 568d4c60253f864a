//! # cextend — synthesizing linked data under cardinality and integrity constraints
//!
//! Umbrella crate for the reproduction of *"Synthesizing Linked Data Under
//! Cardinality and Integrity Constraints"* (Gilad, Patwa, Machanavajjhala —
//! SIGMOD 2021). It re-exports the workspace crates under stable paths:
//!
//! - [`table`] — relational substrate (relations with missing columns,
//!   predicates, join views).
//! - [`constraints`] — cardinality and denial constraints, classification,
//!   Hasse diagrams, intervalization, the text DSL.
//! - [`ilp`] — exact-rational / float simplex and branch-and-bound.
//! - [`hypergraph`] — conflict hypergraphs and list coloring.
//! - [`obs`] — zero-dependency structured observability: hierarchical
//!   spans, stage-time frames, named counters, Chrome-trace export and the
//!   `CEXTEND_TRACE` human sink.
//! - [`sched`] — deterministic DAG scheduler over completion steps:
//!   resource-based dependency derivation, topological levels, scoped
//!   worker pool.
//! - [`core`] — the two-phase C-Extension solver, baselines, metrics, the
//!   snowflake extension and the NAE-3SAT reduction.
//! - [`census`] — the synthetic Census evaluation workload.
//! - [`workloads`] — the pluggable [`Workload`](workloads::Workload)
//!   trait over schema graphs: the Census workload behind it, the Retail
//!   orders/customers scenario, and the Supply three-relation chain
//!   (orders → stores → regions) driving the snowflake pipeline.
//!
//! The most common entry points are also re-exported at the crate root:
//!
//! ```
//! use cextend::{solve, CExtensionInstance, SolverConfig};
//! use cextend::census::{generate, generate_ccs, s_good_dc, CcFamily, CensusConfig};
//!
//! let data = generate(&CensusConfig { scale: 0.01, ..CensusConfig::default() });
//! let ccs = generate_ccs(CcFamily::Good, 20, &data, 0);
//! let instance = CExtensionInstance::new(data.persons, data.housing, ccs, s_good_dc()).unwrap();
//! let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
//! let report = cextend::core::metrics::evaluate(&instance, &solution).unwrap();
//! assert_eq!(report.dc_error, 0.0); // guaranteed by Proposition 5.5
//! ```

#![warn(missing_docs)]

pub use cextend_census as census;
pub use cextend_constraints as constraints;
pub use cextend_core as core;
pub use cextend_hypergraph as hypergraph;
pub use cextend_ilp as ilp;
pub use cextend_obs as obs;
pub use cextend_sched as sched;
pub use cextend_table as table;
pub use cextend_workloads as workloads;

pub use cextend_core::{
    solve, solve_baseline, solve_baseline_with_marginals, solve_hybrid, CExtensionInstance,
    ColoringMode, CoreError, IlpBackend, IlpSettings, Phase1Strategy, Phase2Strategy, Solution,
    SolveStats, SolverConfig,
};
