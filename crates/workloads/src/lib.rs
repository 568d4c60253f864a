//! # cextend-workloads — pluggable evaluation scenarios
//!
//! The paper evaluates C-Extension on exactly one scenario (Census
//! households/persons), but the algorithm is schema-generic. This crate
//! defines the [`Workload`] trait — a seeded generator with hidden
//! ground-truth FKs, per-step CC families measured against that ground
//! truth, and per-step DC sets the ground truth satisfies by construction —
//! and ships three structurally different implementations:
//!
//! - [`CensusWorkload`] — the paper's scenario, delegating to
//!   `cextend-census` (Table 1 scales, Table 4 DCs, Table 5 CC families).
//! - [`RetailWorkload`] — orders/customers with truncated-Zipf group
//!   sizes, amount-gap DCs anchored on each customer's `First` order, and
//!   Region/Segment `R2` conditions.
//! - [`SupplyWorkload`] — a three-relation snowflake *chain*
//!   (orders → stores → regions) with constraints on both FK levels,
//!   driving `cextend_core::snowflake` end to end.
//! - [`LogisticsWorkload`] — a three-relation **branching star**
//!   (shipments → {warehouses, carriers}) whose two completion steps are
//!   resource-independent, exercising concurrent step scheduling with
//!   anchored gap DCs on both dimension edges.
//! - [`DcDenseWorkload`] — the **adversarial DC-dense** Events/Slots
//!   scenario: few large `V_join` partitions and a DC set mixing anchored
//!   gap rows, a clique-inducing exclusivity row and a ternary
//!   equality-chained `nae-track` hyperedge row, approaching the NAE-3SAT
//!   reduction's conflict density to stress the indexed conflict builder.
//!
//! A scenario is a **schema graph**: [`WorkloadData`] carries named
//! relations, an ordered list of FK-completion steps and per-relation
//! ground truths; the classic two-relation workloads are the one-step
//! special case ([`WorkloadData::two_relation`]). Every future scenario is
//! a few-hundred-line plugin: implement [`Workload`], register it in
//! [`workload_by_name`], and the whole experiment harness (`cextend-bench`)
//! drives it.
//!
//! ```
//! use cextend_workloads::{workload_by_name, CcFamily, DcSet, WorkloadParams};
//! use cextend_core::{solve, SolverConfig};
//!
//! let w = workload_by_name("retail").unwrap();
//! let data = w.generate(&WorkloadParams::new(0.005, 7));
//! let ccs = w.ccs(CcFamily::Good, 15, &data, 7);
//! let instance = data.to_instance(ccs, w.dcs(DcSet::All)).unwrap();
//! let solution = solve(&instance, &SolverConfig::hybrid()).unwrap();
//! let report = cextend_core::metrics::evaluate(&instance, &solution).unwrap();
//! assert_eq!(report.dc_error, 0.0); // Proposition 5.5, on a non-Census shape
//! ```

#![warn(missing_docs)]

pub mod agreement;
pub mod ccgen;
mod census;
mod dcdense;
mod logistics;
#[cfg(test)]
mod proptests;
mod retail;
mod supply;
mod workload;

pub use census::CensusWorkload;
pub use dcdense::{
    dcdense_dc_row, room_name as dcdense_room_name, s_all_dcdense_dc, s_good_dcdense_dc,
    DcDenseWorkload, KINDS, MAX_LOAD, SHIFTS,
};
pub use logistics::{
    district_name, logistics_dc_row, mode_reach, tier_of, LogisticsWorkload, HANDLINGS, MAX_COST,
    MAX_WEIGHT, MODES, SHIP_PRIORITIES,
};
pub use retail::{
    region_market, region_name, retail_dc_row, s_all_retail_dc, s_good_retail_dc, RetailWorkload,
    CHANNELS, MARKETS, MAX_AMOUNT, PRIORITIES, SEGMENTS, TIERS,
};
pub use supply::{
    n_zones, region_zone, size_class, supply_dc_row, zone_climate, zone_name, SupplyWorkload,
    CATEGORIES, CLIMATES, FORMATS, MAX_CAPACITY,
};
pub use workload::{
    all_workloads, workload_by_name, CcFamily, DcSet, FkEdge, Workload, WorkloadData, WorkloadMeta,
    WorkloadParams, WORKLOAD_NAMES,
};
