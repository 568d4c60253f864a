//! # cextend-table — relational substrate for the C-Extension solver
//!
//! This crate provides the relational machinery that the paper
//! *"Synthesizing Linked Data Under Cardinality and Integrity Constraints"*
//! (SIGMOD 2021) assumes: typed relations in which **entire columns may be
//! missing** (the foreign key of `R1`, the `R2`-side columns of the join view
//! `V_join`) and are completed cell by cell by the solver.
//!
//! ## Overview
//!
//! - [`Value`], [`Sym`], [`Dtype`] — `Copy` cell values with interned strings.
//! - [`Schema`], [`ColumnDef`], [`Role`] — named, typed columns with
//!   key / attribute / foreign-key roles.
//! - [`Relation`] — columnar storage: dense int arrays and
//!   dictionary-encoded categorical columns with validity bitmaps.
//! - [`IntColumnView`], [`SymColumnView`] — **the primary read API**: typed
//!   per-column views for every hot loop (boxed [`Value`] access via
//!   [`Relation::get`] is for tests, CSV and debug output only).
//! - [`RelationBuilder`] — bulk-load path: reserve → append columnar
//!   chunks → freeze.
//! - [`MemStats`] — peak-memory accounting (column buffers + process RSS
//!   high-water mark).
//! - [`Predicate`], [`Atom`], [`CmpOp`] — conjunctive selection conditions.
//! - [`ValueSet`] — per-column value-set algebra backing the CC relationship
//!   classification (Definitions 4.2–4.4 of the paper).
//! - [`join`] — `V_join` initialization and real FK joins.
//! - [`marginals`] — dictionary-code group-bys used for marginal
//!   augmentation and Phase 2 partitioning.
//! - [`csv`] — snapshot I/O.
//!
//! ```
//! use cextend_table::{Atom, ColumnDef, Dtype, Predicate, Relation, Schema, Value};
//!
//! let schema = Schema::new(vec![
//!     ColumnDef::key("pid", Dtype::Int),
//!     ColumnDef::attr("Age", Dtype::Int),
//!     ColumnDef::foreign_key("hid", Dtype::Int),
//! ]).unwrap();
//! let mut persons = Relation::new("Persons", schema);
//! persons.push_row(&[Some(Value::Int(1)), Some(Value::Int(75)), None]).unwrap();
//!
//! let seniors = Predicate::new(vec![Atom::cmp("Age", cextend_table::CmpOp::Ge, 65)]);
//! assert_eq!(seniors.count(&persons).unwrap(), 1);
//! ```

#![warn(missing_docs)]

pub mod csv;
mod error;
pub mod join;
pub mod marginals;
mod mem;
mod predicate;
mod relation;
mod schema;
mod value;
mod valueset;

pub use error::{Result, TableError};
pub use join::{
    fk_join, fk_join_on, fk_matches, gather, init_join_view, join_matched, join_schema,
    join_view_name, relations_equal_ordered, JoinLayout, Source, NO_MATCH,
};
pub use marginals::{GroupKey, GroupedRows};
pub use mem::{peak_rss_bytes, reset_peak_rss, MemStats};
pub use predicate::{Atom, BoundAtom, BoundPredicate, CmpOp, CompiledPredicate, Predicate};
pub use relation::{
    ColumnData, IntColumn, IntColumnView, Relation, RelationBuilder, RowId, SymColumn,
    SymColumnView,
};
pub use schema::{ColId, ColumnDef, Role, Schema};
pub use value::{Dtype, Sym, Value};
pub use valueset::ValueSet;
