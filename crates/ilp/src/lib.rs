//! # cextend-ilp — integer linear programming substrate
//!
//! The paper's Phase I (Algorithm 1) models cardinality constraints as a
//! system `Ax = b` over non-negative integer variables and hands it to an
//! ILP solver (PuLP/CBC in the authors' implementation). No comparable
//! solver exists in this project's allowed dependency set, so this crate
//! implements one (DESIGN.md §17):
//!
//! - [`solve_lp`] — the LP engine: a bounded-variable revised simplex in
//!   `f64` over sparse columns, started from a crash basis of column
//!   singletons, with a product-form eta file for the basis inverse.
//! - [`solve_ilp`] — branch-and-bound that branches by tightening variable
//!   bounds and re-optimizes each node from its parent's basis with the
//!   dual simplex, under a node budget. Incumbents are checked in exact
//!   integers.
//! - [`reference::solve_lp_exact`] — a dense two-phase simplex over exact
//!   [`Rational`]s, the reference tests and benches compare the engine
//!   with. No production path runs it.
//! - [`Problem::add_soft_eq`] — *elastic* equalities: CC rows may be
//!   violated at a linear cost, marginal rows stay hard, so Phase I can
//!   always return *a* completion (the paper "tolerates possible errors in
//!   the CC counts" but never fails).
//! - [`largest_remainder`] — group-preserving rounding used when the node
//!   budget runs out.
//!
//! ```
//! use cextend_ilp::{solve_ilp, BbConfig, IlpStatus, Problem, Rel};
//!
//! // max 5x + 4y  s.t. 6x + 4y <= 24, x + 2y <= 6, x,y >= 0 integer
//! let mut p = Problem::new();
//! let x = p.add_var("x");
//! let y = p.add_var("y");
//! p.set_objective(x, -5);
//! p.set_objective(y, -4);
//! p.add_constraint(vec![(x, 6), (y, 4)], Rel::Le, 24);
//! p.add_constraint(vec![(x, 1), (y, 2)], Rel::Le, 6);
//! let s = solve_ilp(&p, &BbConfig::default()).unwrap();
//! assert_eq!(s.status, IlpStatus::Optimal);
//! assert_eq!((s.values[x], s.values[y]), (4, 0)); // obj 20 beats rounded LP's 19
//! ```

#![warn(missing_docs)]

mod branch_bound;
mod error;
mod eta;
mod matrix;
mod problem;
mod rational;
pub mod reference;
mod rounding;
mod simplex;

pub use branch_bound::{solve_ilp, BbConfig, IlpSolution, IlpStatus};
pub use error::{IlpError, Result};
pub use matrix::Matrix;
pub use problem::{Constraint, Problem, Rel, VarId};
pub use rational::Rational;
pub use rounding::largest_remainder;
pub use simplex::{solve_lp, LpSolution, LpStatus, F64_INT_EPS};
