//! # cextend-constraints — the paper's constraint vocabulary
//!
//! Models the two constraint classes of *"Synthesizing Linked Data Under
//! Cardinality and Integrity Constraints"* (SIGMOD 2021) and the machinery
//! its Phase I is built on:
//!
//! - [`CardinalityConstraint`] — linear CCs `|σ_φ(R1 ⋈ R2)| = k`
//!   (Definition 2.4), stored with per-column [`cextend_table::ValueSet`]s.
//! - [`DenialConstraint`] — foreign-key DCs `¬(φ ∧ t1.FK = … = tk.FK)`
//!   (Definition 2.2) with unary and offset-binary atoms.
//! - [`classify`] / [`RelationshipMatrix`] — disjoint / contained /
//!   intersecting classification (Definitions 4.2–4.4).
//! - [`HasseDiagram`] — cover edges of the containment order (Section 4.2).
//! - [`ColumnIntervals`] / [`Binning`] — intervalization (Section 4.1).
//!   Phase I's ILP bins rows with a [`Binning`] and adds the all-way or
//!   modified marginals (Sections 4.1, 4.3) per bin itself.
//! - [`CcMembership`] / [`cc_counts`] / [`set_targets`] — one-pass CC
//!   membership of every row through per-column lookup tables cut by the
//!   same rule; [`mine_pool`] mines the equality-condition pools the
//!   workloads draw their CCs' `R2` sides from.
//! - [`parse_cc`] / [`parse_dc`] — a text DSL in the paper's notation.
//!
//! ```
//! use cextend_constraints::{classify, parse_cc, CcRelationship};
//! use std::collections::HashSet;
//!
//! let r2: HashSet<String> = ["Area".to_owned()].into_iter().collect();
//! let chicago = parse_cc("CC1", r#"| Rel = "Owner" & Area = "Chicago" | = 4"#, &r2).unwrap();
//! let nyc = parse_cc("CC2", r#"| Rel = "Owner" & Area = "NYC" | = 2"#, &r2).unwrap();
//! // Same R1 condition, disjoint R2 conditions → disjoint (Definition 4.2).
//! assert_eq!(classify(&chicago, &nyc), CcRelationship::Disjoint);
//! ```

#![warn(missing_docs)]

mod cc;
mod dc;
mod error;
mod hasse;
mod intervalize;
mod membership;
mod parser;
mod relationship;

pub use cc::{CardinalityConstraint, NormalizedCond};
pub use dc::{
    filters_disjoint, BinaryAtomPlan, BoundDc, CapacityShape, DcAtom, DcPlan, DenialConstraint,
    UnaryFilter,
};
pub use error::{ConstraintError, Result};
pub use hasse::HasseDiagram;
pub use intervalize::{domain_ranges, BinDim, BinKey, Binning, BoundBinning, ColumnIntervals};
pub use membership::{cc_counts, mine_pool, set_targets, CcMembership, PoolClause};
pub use parser::{parse_cc, parse_dc, parse_predicate};
pub use relationship::{classify, CcRelationship, RelationshipMatrix};
