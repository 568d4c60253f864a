//! # cextend-census — the paper's evaluation workload, synthesized
//!
//! The paper evaluates on a dataset derived from the 2010 U.S. Decennial
//! Census \[44\], which is access-restricted. This crate is the documented
//! substitution (DESIGN.md): a seeded generator reproducing the published
//! schema — `Persons(pid, Rel, Age, Multi-ling, hid)` /
//! `Housing(hid, Tenure, Area, …)` — Table 1's scale ratios, the 12 denial
//! constraints of Table 4 and the good/bad CC families of Table 5, with CC
//! targets measured on a hidden ground-truth assignment before the FK
//! column is erased.
//!
//! ```
//! use cextend_census::{generate, generate_ccs, s_good_dc, CcFamily, CensusConfig};
//!
//! let data = generate(&CensusConfig { scale: 0.01, ..CensusConfig::default() });
//! let ccs = generate_ccs(CcFamily::Good, 25, &data, 7);
//! let dcs = s_good_dc();
//! assert_eq!(data.persons.n_rows(), data.ground_truth.n_rows());
//! assert_eq!(ccs.len(), 25);
//! assert!(!dcs.is_empty());
//! ```

#![warn(missing_docs)]

mod ccs;
mod dcs;
pub mod domains;
mod generator;
pub mod scales;

pub use ccs::{generate_ccs, generate_ccs_from, CcFamily};
pub use dcs::{s_all_dc, s_good_dc, table4_row};
pub use generator::{generate, CensusConfig, CensusData};
