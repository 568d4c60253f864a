//! # cextend-sched — deterministic DAG scheduling for completion steps
//!
//! The snowflake pipeline completes a schema graph one FK edge at a time,
//! but steps whose owners are independent have no data dependency — the
//! paper already parallelizes partition coloring *within* a step
//! (Section A.3); this crate lifts concurrency one level up, *across*
//! steps. It is deliberately free of any relational types so it sits below
//! `cextend-core` in the crate stack:
//!
//! - [`Resource`] / [`Access`] + [`derive_deps`] — tasks declare what they
//!   read and write; an earlier task conflicts with a later one when any
//!   overlapping resource is written by either side.
//! - [`Schedule`] — validates an explicit dependency list (rejecting cycles
//!   with a clear [`SchedError::Cycle`] instead of deadlocking at run time)
//!   and computes topological levels: every task sits one level past its
//!   deepest dependency, so all tasks of a level are mutually independent.
//! - [`run_tasks`] — executes one level's tasks on up to `width` threads of
//!   a `std::thread::scope` worker pool (inline below 2), returning results
//!   (and the first error, chosen by task order) deterministically at any
//!   width.
//! - [`pool_width`] — the default width, for front ends to resolve once.
//!
//! ```
//! use cextend_sched::{derive_deps, Access, Resource, Schedule};
//!
//! let star = [
//!     Access::new() // Shipments→Warehouses
//!         .reads([Resource::table("Shipments"), Resource::table("Warehouses")])
//!         .writes([Resource::column("Shipments", "warehouse_id"), Resource::table("Warehouses")]),
//!     Access::new() // Shipments→Carriers: same owner, disjoint writes
//!         .reads([Resource::table("Shipments"), Resource::table("Carriers")])
//!         .writes([Resource::column("Shipments", "carrier_id"), Resource::table("Carriers")]),
//! ];
//! let schedule = Schedule::build(derive_deps(&star)).unwrap();
//! assert_eq!(schedule.levels(), &[vec![0, 1]]); // both steps run concurrently
//! ```

#![warn(missing_docs)]

mod graph;
mod pool;

pub use graph::{derive_deps, Access, Resource, SchedError, Schedule};
pub use pool::{pool_width, run_tasks};
