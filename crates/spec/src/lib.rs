//! A checked textual workload-spec language for the C-Extension harness.
//!
//! Specs describe a multi-relation workload — relations with typed
//! columns, ordered FK-completion steps, CC families and DC lists, knobs
//! with defaults — in a small declarative language:
//!
//! ```text
//! workload "supply";
//! knob regions = 12;
//! relation Orders { key oid int; attr Amount int; attr Category str; fk store_id int; }
//! relation Stores { key sid int; attr Format str; ... }
//! step Orders.store_id -> Stores;
//! generate plugin "supply";
//! ccs step 0 { pool combos(Format, SizeClass); pool values(Format);
//!   good { row Amount in [5, 900], Category == "Launch"; ... }
//!   bad  { ... } }
//! dcs step 0 { good dc "sdc1-low" arity 2 {
//!   t0.Category == "Launch"; t1.Category == "Restock";
//!   t1.Amount < t0.Amount - 150; } }
//! ```
//!
//! The pipeline is `parse` → [`check`] (static rejection of ill-formed
//! specs with `path:line:col` errors) → lowering into the existing
//! [`cextend_workloads::Workload`] interface, so the `experiments`
//! harness drives `--workload spec:<path>` exactly like a built-in
//! workload. The [`fuzz`] module generates random well-typed specs and
//! pushes them through differential oracles (solves at 1 ≡ 2 ≡ 4 workers,
//! conflict builder ≡ naive reference edge sets, membership kernel ≡
//! per-CC `count_in` counts).

#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod error;
pub mod fuzz;
pub mod lexer;
pub mod lower;
pub mod parser;
mod synth;

pub use error::{Result, Span, SpecError};
pub use fuzz::{fuzz_source, fuzz_workload, iteration_seed, run_differential_oracles, FuzzOutcome};
pub use lower::SpecWorkload;

use std::path::Path;

/// Parses and checks a spec source. `path` only labels errors.
pub fn parse_spec(source: &str, path: &str) -> Result<ast::Spec> {
    let spec = parser::parse(source, path)?;
    check::check(&spec, path)?;
    Ok(spec)
}

/// Parses, checks and lowers an in-memory spec source into a workload.
pub fn load_source(source: &str, path: &str) -> Result<SpecWorkload> {
    Ok(SpecWorkload::lower(parse_spec(source, path)?))
}

/// Loads a spec file from disk into a workload.
pub fn load_workload(path: &Path) -> Result<SpecWorkload> {
    let label = path.display().to_string();
    let source = std::fs::read_to_string(path)
        .map_err(|e| SpecError::new(&label, Span::default(), format!("cannot read spec: {e}")))?;
    load_source(&source, &label)
}
