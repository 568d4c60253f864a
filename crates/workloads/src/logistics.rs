//! The Logistics shipments/warehouses/carriers workload — a **branching**
//! schema graph (a star, not a chain) built to exercise the parallel step
//! scheduler: the fact table owns two FK columns, and the two completion
//! steps touch disjoint resources, so they share a scheduler level.
//!
//! ```text
//!            ┌─step 0 (warehouse_id)─▶ Warehouses(wid, District, Tier, Docks)
//! Shipments ─┤
//!            └─step 1 (carrier_id)───▶ Carriers(cid, Mode, Reach)
//! ```
//!
//! Both dimension edges carry anchored gap DCs in the recipe of the Census
//! `Owner`, the retail `First` order and the supply `Launch`/`Hub` anchors —
//! but on **independent columns**, so the generator can satisfy both
//! groupings of the same fact rows simultaneously:
//!
//! - step 0 (groups = warehouses): every warehouse has exactly one `Prime`
//!   shipment whose *weight* `A` gates the group — `Express` within
//!   `[A−200, A+200]`, `Standard` within `[A−350, A+150]`; the full set
//!   adds "no two Primes share a warehouse" and "a Prime above 600 forbids
//!   `Deferred` shipments".
//! - step 1 (groups = carriers): every carrier has exactly one `Hazmat`
//!   shipment whose *cost* `H` gates the group — `Fragile` within
//!   `[H−250, H+250]`, `Padded` within `[H−400, H+100]`; the full set adds
//!   "no two Hazmat share a carrier" and "a Hazmat under 350 forbids
//!   `Padded`".
//!
//! Per-step CC families combine `Weight`/`Priority` rows with
//! District/Tier warehouse conditions (step 0) and `Cost`/`Handling` rows
//! with Mode/Reach carrier conditions (step 1). Crucially, step 1's
//! constraints reference **no warehouse attribute**, so the step scheduler
//! (`cextend_core::stepgraph`) derives no dependency between the steps and
//! a solver with more than one worker solves them concurrently — the star-vs-chain
//! comparison against `supply` in the `sched`/`perf` experiments.

use crate::ccgen::{bad_family, good_family, sample_zipf, zipf_cumulative};
use crate::workload::{
    CcFamily, DcSet, FkEdge, Workload, WorkloadData, WorkloadMeta, WorkloadParams,
};
use cextend_constraints::{
    mine_pool, CardinalityConstraint, DcAtom, DenialConstraint, NormalizedCond, PoolClause,
};
use cextend_table::{CmpOp, ColumnDef, Dtype, Relation, Schema, Value, ValueSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shipment priorities. Every warehouse has exactly one `Prime` shipment —
/// the anchor whose weight gates the step-0 gap DCs.
pub const SHIP_PRIORITIES: [&str; 5] = ["Prime", "Express", "Standard", "Routine", "Deferred"];

/// Handling classes. Every carrier has exactly one `Hazmat` shipment — the
/// anchor whose cost gates the step-1 gap DCs.
pub const HANDLINGS: [&str; 4] = ["Hazmat", "Fragile", "Padded", "Loose"];

/// Carrier transport modes.
pub const MODES: [&str; 4] = ["Air", "Road", "Rail", "Sea"];

/// Largest shipment weight the generator can emit.
pub const MAX_WEIGHT: i64 = 1_000;

/// Largest shipment cost the generator can emit.
pub const MAX_COST: i64 = 1_200;

/// Name of district code `i`.
pub fn district_name(i: usize) -> String {
    format!("District{i:02}")
}

/// The warehouse tier a dock count falls into (determined by the count).
pub fn tier_of(docks: i64) -> &'static str {
    if docks < 10 {
        "C"
    } else if docks < 25 {
        "B"
    } else {
        "A"
    }
}

/// The reach of a transport mode (determined by the mode).
pub fn mode_reach(mode: &str) -> &'static str {
    match mode {
        "Air" | "Sea" => "Global",
        "Rail" => "Continental",
        _ => "Regional",
    }
}

/// Reference number of warehouses at scale `1.0`.
const BASE_WAREHOUSES: f64 = 1_600.0;

/// Skew exponent for the shipments-per-warehouse distribution.
const SKEW_EXPONENT: f64 = 1.1;

/// Knob defaults.
const DEFAULT_DISTRICTS: i64 = 10;
const DEFAULT_MAX_GROUP: i64 = 8;

/// The Logistics workload.
///
/// Knobs: `districts` — distinct warehouse district codes (default 10);
/// `max-group` — truncation point for shipments per warehouse (default 8).
#[derive(Clone, Copy, Debug, Default)]
pub struct LogisticsWorkload;

fn shipments_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::key("hid", Dtype::Int),
        ColumnDef::attr("Weight", Dtype::Int),
        ColumnDef::attr("Cost", Dtype::Int),
        ColumnDef::attr("Priority", Dtype::Str),
        ColumnDef::attr("Handling", Dtype::Str),
        ColumnDef::foreign_key("warehouse_id", Dtype::Int),
        ColumnDef::foreign_key("carrier_id", Dtype::Int),
    ])
    .expect("static schema")
}

fn warehouses_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::key("wid", Dtype::Int),
        ColumnDef::attr("District", Dtype::Str),
        ColumnDef::attr("Tier", Dtype::Str),
        ColumnDef::attr("Docks", Dtype::Int),
    ])
    .expect("static schema")
}

fn carriers_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::key("cid", Dtype::Int),
        ColumnDef::attr("Mode", Dtype::Str),
        ColumnDef::attr("Reach", Dtype::Str),
    ])
    .expect("static schema")
}

impl Workload for LogisticsWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "logistics",
            relation_names: &["Shipments", "Warehouses", "Carriers"],
            fk_column: "warehouse_id",
            expected_ratio: 2.8,
            r2_col_counts: &[3],
            default_r2_cols: 3,
            knobs: &[
                ("districts", DEFAULT_DISTRICTS),
                ("max-group", DEFAULT_MAX_GROUP),
            ],
            scale_labels: &[1, 2, 5, 10, 40],
        }
    }

    fn generate(&self, params: &WorkloadParams) -> WorkloadData {
        let n_cols = params.r2_cols.unwrap_or(self.meta().default_r2_cols);
        assert_eq!(n_cols, 3, "Warehouses has exactly 3 non-key columns");
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n_districts = params.knob("districts", DEFAULT_DISTRICTS).max(2) as usize;
        let max_group = params.knob("max-group", DEFAULT_MAX_GROUP).max(1) as usize;
        let n_warehouses = ((BASE_WAREHOUSES * params.scale).round() as usize).max(n_districts);
        // Carriers scale with the fact table too (a branching star, not a
        // tiny leaf): every shipment index below `n_carriers` seeds one
        // carrier's Hazmat anchor, so carriers never outnumber shipments.
        let n_carriers = (n_warehouses * 3 / 4).max(2);
        let cumulative = zipf_cumulative(SKEW_EXPONENT, max_group);

        // --- Warehouses (dimension of step 0; fully given). -----------------
        let mut warehouses =
            Relation::with_capacity("Warehouses", warehouses_schema(), n_warehouses);
        for w in 0..n_warehouses {
            let docks = rng.gen_range(2..=40);
            warehouses
                .push_full_row(&[
                    Value::Int(w as i64 + 1),
                    Value::str(&district_name(w % n_districts)),
                    Value::str(tier_of(docks)),
                    Value::Int(docks),
                ])
                .expect("schema-conforming row");
        }

        // --- Carriers (dimension of step 1; fully given). -------------------
        let mut carriers = Relation::with_capacity("Carriers", carriers_schema(), n_carriers);
        for c in 0..n_carriers {
            let mode = MODES[rng.gen_range(0..MODES.len())];
            carriers
                .push_full_row(&[
                    Value::Int(c as i64 + 1),
                    Value::str(mode),
                    Value::str(mode_reach(mode)),
                ])
                .expect("schema-conforming row");
        }
        // The cost of each carrier's (single) Hazmat anchor, drawn up front
        // so member costs can honor the gap windows as they stream out.
        let hazmat_cost: Vec<i64> = (0..n_carriers).map(|_| rng.gen_range(300..=800)).collect();

        // --- Shipments, honoring both groupings at once. --------------------
        // Warehouse side: one Prime anchor per warehouse, members inside
        // the weight windows. Carrier side: shipment i < n_carriers is
        // carrier i's Hazmat anchor; later shipments pick a carrier at
        // random and a handling inside the cost windows. The two DC
        // families constrain disjoint columns (Weight/Priority vs
        // Cost/Handling), so the groupings compose freely.
        let mut shipments_truth = Relation::with_capacity(
            "Shipments",
            shipments_schema(),
            (n_warehouses as f64 * 3.0) as usize,
        );
        let mut hid = 0i64;
        for w in 0..n_warehouses {
            let wid = w as i64 + 1;
            let a = rng.gen_range(200..=700);
            let group = sample_zipf(&mut rng, &cumulative);
            for member in 0..group.max(1) {
                let (priority, weight) = if member == 0 {
                    // Exactly one Prime per warehouse (ldc3), the anchor.
                    ("Prime", a)
                } else {
                    let mut priority = match rng.gen_range(0..100) {
                        0..=34 => "Express",
                        35..=64 => "Standard",
                        65..=84 => "Routine",
                        _ => "Deferred",
                    };
                    // A Prime above 600 forbids Deferred members (ldc4).
                    if priority == "Deferred" && a > 600 {
                        priority = "Routine";
                    }
                    let (lo, hi) = match priority {
                        "Express" => (a - 200, a + 200),
                        "Standard" => (a - 350, a + 150),
                        _ => (5, MAX_WEIGHT), // Routine/Deferred are free.
                    };
                    let weight = rng.gen_range(lo.max(5)..=hi.min(MAX_WEIGHT));
                    (priority, weight)
                };
                let ship_idx = hid as usize;
                let (carrier, handling, cost) = if ship_idx < n_carriers {
                    // Exactly one Hazmat per carrier (ldc7), the anchor.
                    (ship_idx, "Hazmat", hazmat_cost[ship_idx])
                } else {
                    let carrier = rng.gen_range(0..n_carriers);
                    let h = hazmat_cost[carrier];
                    let mut handling = match rng.gen_range(0..100) {
                        0..=34 => "Fragile",
                        35..=64 => "Padded",
                        _ => "Loose",
                    };
                    // A Hazmat under 350 forbids Padded members (ldc8).
                    if handling == "Padded" && h < 350 {
                        handling = "Loose";
                    }
                    let (lo, hi) = match handling {
                        "Fragile" => (h - 250, h + 250),
                        "Padded" => (h - 400, h + 100),
                        _ => (5, MAX_COST), // Loose is free.
                    };
                    let cost = rng.gen_range(lo.max(5)..=hi.min(MAX_COST));
                    (carrier, handling, cost)
                };
                hid += 1;
                shipments_truth
                    .push_row(&[
                        Some(Value::Int(hid)),
                        Some(Value::Int(weight.clamp(5, MAX_WEIGHT))),
                        Some(Value::Int(cost.clamp(5, MAX_COST))),
                        Some(Value::str(priority)),
                        Some(Value::str(handling)),
                        Some(Value::Int(wid)),
                        Some(Value::Int(carrier as i64 + 1)),
                    ])
                    .expect("schema-conforming row");
            }
        }

        let mut shipments = shipments_truth.clone();
        for fk in ["warehouse_id", "carrier_id"] {
            let col = shipments.schema().col_id(fk).expect("static schema");
            shipments.clear_column(col);
        }
        WorkloadData {
            relations: vec![shipments, warehouses.clone(), carriers.clone()],
            truth: vec![shipments_truth, warehouses, carriers],
            steps: vec![
                FkEdge::new("Shipments", "Warehouses", "warehouse_id"),
                FkEdge::new("Shipments", "Carriers", "carrier_id"),
            ],
        }
    }

    fn step_ccs(
        &self,
        step: usize,
        family: CcFamily,
        n: usize,
        data: &WorkloadData,
        seed: u64,
    ) -> Vec<CardinalityConstraint> {
        let truth_view = data.step_truth_view(step);
        let (good_rows, bad_rows, pool): (&[CondRow], &[CondRow], Vec<NormalizedCond>) = match step
        {
            0 => (
                &SHIP_GOOD_ROWS,
                &SHIP_BAD_ROWS,
                mine_pool(
                    data.relation("Warehouses").expect("Warehouses exists"),
                    &[
                        PoolClause::Combos("District", "Tier"),
                        PoolClause::Values("District"),
                    ],
                ),
            ),
            1 => (
                &COST_GOOD_ROWS,
                &COST_BAD_ROWS,
                mine_pool(
                    data.relation("Carriers").expect("Carriers exists"),
                    &[
                        PoolClause::Combos("Mode", "Reach"),
                        PoolClause::Values("Mode"),
                    ],
                ),
            ),
            other => panic!("logistics has steps 0 and 1, not {other}"),
        };
        match family {
            CcFamily::Good => {
                let rows: Vec<NormalizedCond> = good_rows.iter().map(CondRow::cond).collect();
                good_family("good", &rows, &pool, n, &truth_view, seed)
            }
            CcFamily::Bad => {
                let rows: Vec<NormalizedCond> = bad_rows.iter().map(CondRow::cond).collect();
                bad_family("bad", &rows, &pool, n, &truth_view, seed)
            }
        }
    }

    fn step_dcs(&self, step: usize, set: DcSet) -> Vec<DenialConstraint> {
        match (step, set) {
            (0, DcSet::Good) => (1..=2).flat_map(logistics_dc_row).collect(),
            (0, DcSet::All) => (1..=4).flat_map(logistics_dc_row).collect(),
            (1, DcSet::Good) => (5..=6).flat_map(logistics_dc_row).collect(),
            (1, DcSet::All) => (5..=8).flat_map(logistics_dc_row).collect(),
            (other, _) => panic!("logistics has steps 0 and 1, not {other}"),
        }
    }
}

/// One `R1` predicate row: an integer interval over `int_col` plus an
/// equality on `sym_col`.
#[derive(Clone, Copy, Debug)]
struct CondRow {
    int_col: &'static str,
    lo: i64,
    hi: i64,
    sym_col: &'static str,
    sym: &'static str,
}

const fn wrow(lo: i64, hi: i64, priority: &'static str) -> CondRow {
    CondRow {
        int_col: "Weight",
        lo,
        hi,
        sym_col: "Priority",
        sym: priority,
    }
}

const fn crow(lo: i64, hi: i64, handling: &'static str) -> CondRow {
    CondRow {
        int_col: "Cost",
        lo,
        hi,
        sym_col: "Handling",
        sym: handling,
    }
}

impl CondRow {
    fn cond(&self) -> NormalizedCond {
        NormalizedCond::from_sets(vec![
            (self.int_col.to_owned(), ValueSet::range(self.lo, self.hi)),
            (
                self.sym_col.to_owned(),
                ValueSet::sym(cextend_table::Sym::intern(self.sym)),
            ),
        ])
    }
}

/// Step-0 good rows: weight containment chains per priority plus
/// pairwise-disjoint singletons — laminar by construction.
const SHIP_GOOD_ROWS: [CondRow; 12] = [
    // Prime chain (3).
    wrow(5, 1000, "Prime"),
    wrow(200, 700, "Prime"),
    wrow(300, 600, "Prime"),
    // Express chain (3).
    wrow(5, 1000, "Express"),
    wrow(100, 800, "Express"),
    wrow(250, 550, "Express"),
    // Standard singletons (3).
    wrow(5, 299, "Standard"),
    wrow(300, 649, "Standard"),
    wrow(650, 1000, "Standard"),
    // Routine chain (2) and Deferred (1).
    wrow(5, 1000, "Routine"),
    wrow(200, 900, "Routine"),
    wrow(5, 1000, "Deferred"),
];

/// Step-0 bad rows: the good chains plus overlapping-but-incomparable
/// intervals that classify as intersecting and force the ILP path.
const SHIP_BAD_ROWS: [CondRow; 16] = [
    wrow(5, 1000, "Prime"),
    wrow(200, 700, "Prime"),
    wrow(300, 600, "Prime"),
    wrow(100, 450, "Prime"),
    wrow(5, 1000, "Express"),
    wrow(100, 800, "Express"),
    wrow(250, 550, "Express"),
    wrow(50, 500, "Express"),
    wrow(5, 299, "Standard"),
    wrow(300, 649, "Standard"),
    wrow(650, 1000, "Standard"),
    wrow(200, 700, "Standard"),
    wrow(5, 1000, "Routine"),
    wrow(200, 900, "Routine"),
    wrow(500, 950, "Routine"),
    wrow(5, 1000, "Deferred"),
];

/// Step-1 good rows: cost chains per handling class.
const COST_GOOD_ROWS: [CondRow; 10] = [
    // Hazmat chain (3).
    crow(5, 1200, "Hazmat"),
    crow(300, 800, "Hazmat"),
    crow(400, 700, "Hazmat"),
    // Fragile chain (3).
    crow(5, 1200, "Fragile"),
    crow(100, 900, "Fragile"),
    crow(300, 700, "Fragile"),
    // Padded singletons (3).
    crow(5, 399, "Padded"),
    crow(400, 799, "Padded"),
    crow(800, 1200, "Padded"),
    // Loose (1).
    crow(5, 1200, "Loose"),
];

/// Step-1 bad rows: the good chains plus overlapping intervals.
const COST_BAD_ROWS: [CondRow; 13] = [
    crow(5, 1200, "Hazmat"),
    crow(300, 800, "Hazmat"),
    crow(400, 700, "Hazmat"),
    crow(200, 600, "Hazmat"),
    crow(5, 1200, "Fragile"),
    crow(100, 900, "Fragile"),
    crow(300, 700, "Fragile"),
    crow(50, 500, "Fragile"),
    crow(5, 399, "Padded"),
    crow(400, 799, "Padded"),
    crow(800, 1200, "Padded"),
    crow(300, 600, "Padded"),
    crow(5, 1200, "Loose"),
];

fn unary(var: usize, column: &str, op: CmpOp, value: Value) -> DcAtom {
    DcAtom::Unary {
        var,
        column: column.to_owned(),
        op,
        value,
    }
}

/// `t2.col ◦ t1.col + offset` — a gap atom anchored on the group's anchor
/// tuple (variable 0).
fn gap_atom(col: &str, op: CmpOp, offset: i64) -> DcAtom {
    DcAtom::Binary {
        lvar: 1,
        lcol: col.to_owned(),
        op,
        rvar: 0,
        rcol: col.to_owned(),
        offset,
    }
}

/// Lowers "no `member` tuple may have `gap_col` outside `[anchor+lo,
/// anchor+hi]` of the group's `anchor` tuple" into its low/high primitive
/// DCs (same recipe as the supply workload, on this schema's columns).
fn gap_rows(
    name: &str,
    anchor_col: &str,
    anchor: &str,
    member: &str,
    gap_col: &str,
    lo: i64,
    hi: i64,
) -> Vec<DenialConstraint> {
    let base = |suffix: &str, bound: DcAtom| {
        let atoms = vec![
            unary(0, anchor_col, CmpOp::Eq, Value::str(anchor)),
            unary(1, anchor_col, CmpOp::Eq, Value::str(member)),
            bound,
        ];
        DenialConstraint::new(format!("{name}-{suffix}"), 2, atoms).expect("static DC construction")
    };
    vec![
        base("low", gap_atom(gap_col, CmpOp::Lt, lo)),
        base("up", gap_atom(gap_col, CmpOp::Gt, hi)),
    ]
}

/// "No two `a`/`b` tuples may share a group."
fn exclusive_pair(name: &str, col: &str, a: &str, b: &str) -> DenialConstraint {
    DenialConstraint::new(
        name,
        2,
        vec![
            unary(0, col, CmpOp::Eq, Value::str(a)),
            unary(1, col, CmpOp::Eq, Value::str(b)),
        ],
    )
    .expect("static DC construction")
}

/// Primitive DCs of one logistics DC row (1-based). Rows 1–4 constrain the
/// warehouse grouping (step 0, over `Weight`/`Priority`); rows 5–8
/// constrain the carrier grouping (step 1, over `Cost`/`Handling`).
pub fn logistics_dc_row(row: usize) -> Vec<DenialConstraint> {
    match row {
        // 1. Express outside [A-200, A+200] of the warehouse's Prime.
        1 => gap_rows("ldc1", "Priority", "Prime", "Express", "Weight", -200, 200),
        // 2. Standard outside [A-350, A+150].
        2 => gap_rows("ldc2", "Priority", "Prime", "Standard", "Weight", -350, 150),
        // 3. No two Prime shipments share a warehouse.
        3 => vec![exclusive_pair("ldc3", "Priority", "Prime", "Prime")],
        // 4. A Prime above 600 forbids Deferred shipments.
        4 => vec![DenialConstraint::new(
            "ldc4",
            2,
            vec![
                unary(0, "Priority", CmpOp::Eq, Value::str("Prime")),
                unary(0, "Weight", CmpOp::Gt, Value::Int(600)),
                unary(1, "Priority", CmpOp::Eq, Value::str("Deferred")),
            ],
        )
        .expect("static DC construction")],
        // 5. Fragile outside [H-250, H+250] of the carrier's Hazmat.
        5 => gap_rows("ldc5", "Handling", "Hazmat", "Fragile", "Cost", -250, 250),
        // 6. Padded outside [H-400, H+100].
        6 => gap_rows("ldc6", "Handling", "Hazmat", "Padded", "Cost", -400, 100),
        // 7. No two Hazmat shipments share a carrier.
        7 => vec![exclusive_pair("ldc7", "Handling", "Hazmat", "Hazmat")],
        // 8. A Hazmat under 350 forbids Padded shipments.
        8 => vec![DenialConstraint::new(
            "ldc8",
            2,
            vec![
                unary(0, "Handling", CmpOp::Eq, Value::str("Hazmat")),
                unary(0, "Cost", CmpOp::Lt, Value::Int(350)),
                unary(1, "Handling", CmpOp::Eq, Value::str("Padded")),
            ],
        )
        .expect("static DC construction")],
        _ => panic!("logistics DCs have rows 1..=8, not {row}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccgen::rows_are_laminar;
    use cextend_constraints::{CcRelationship, RelationshipMatrix};
    use cextend_core::metrics::dc_error_on;

    fn data() -> WorkloadData {
        LogisticsWorkload.generate(&WorkloadParams::new(0.02, 11))
    }

    #[test]
    fn branching_star_shape() {
        let d = data();
        assert_eq!(d.relations.len(), 3);
        assert_eq!(d.n_steps(), 2);
        assert_eq!(d.relation("Warehouses").unwrap().n_rows(), 32); // 1600 × 0.02
        assert_eq!(d.relation("Carriers").unwrap().n_rows(), 24);
        // Both steps own the same fact table — a star, not a chain.
        assert_eq!(d.steps[0].owner, "Shipments");
        assert_eq!(d.steps[1].owner, "Shipments");
        let ratio = d.n_r1() as f64 / d.n_r2() as f64;
        assert!(
            (2.0..3.6).contains(&ratio),
            "shipments per warehouse {ratio} drifted from the skewed mean ≈2.8"
        );
    }

    #[test]
    fn both_fks_erased_but_truth_is_complete() {
        let d = data();
        let shipments = d.relation("Shipments").unwrap();
        let truth = d.truth_of("Shipments").unwrap();
        for fk in ["warehouse_id", "carrier_id"] {
            let col = shipments.schema().col_id(fk).unwrap();
            assert!(shipments.column_is_missing(col), "{fk}");
            assert!(truth.column_is_complete(col), "{fk}");
        }
    }

    #[test]
    fn ground_truth_satisfies_every_dc_of_both_groupings() {
        let d = data();
        for (step, fk) in [(0, "warehouse_id"), (1, "carrier_id")] {
            for set in [DcSet::Good, DcSet::All] {
                let dcs = LogisticsWorkload.step_dcs(step, set);
                assert!(!dcs.is_empty());
                let err = dc_error_on(d.truth_of("Shipments").unwrap(), fk, &dcs).unwrap();
                assert_eq!(err, 0.0, "generator violated step {step} {set:?} DCs");
            }
        }
    }

    #[test]
    fn exactly_one_prime_per_warehouse_and_one_hazmat_per_carrier() {
        let d = data();
        let shipments = d.truth_of("Shipments").unwrap();
        for (anchor_col, anchor, group_col, n_groups) in [
            (
                "Priority",
                "Prime",
                "warehouse_id",
                d.relation("Warehouses").unwrap().n_rows(),
            ),
            (
                "Handling",
                "Hazmat",
                "carrier_id",
                d.relation("Carriers").unwrap().n_rows(),
            ),
        ] {
            let ac = shipments.schema().col_id(anchor_col).unwrap();
            let gc = shipments.schema().col_id(group_col).unwrap();
            let mut anchors: std::collections::HashMap<Value, usize> = Default::default();
            for r in shipments.rows() {
                if shipments.get(r, ac) == Some(Value::str(anchor)) {
                    *anchors.entry(shipments.get(r, gc).unwrap()).or_insert(0) += 1;
                }
            }
            assert_eq!(anchors.len(), n_groups, "{anchor} anchors");
            assert!(anchors.values().all(|&c| c == 1), "{anchor} anchors");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = data();
        let b = data();
        for (x, y) in a.truth.iter().zip(&b.truth) {
            assert!(cextend_table::relations_equal_ordered(x, y));
        }
        let c = LogisticsWorkload.generate(&WorkloadParams::new(0.02, 12));
        assert!(!cextend_table::relations_equal_ordered(
            a.ground_truth(),
            c.ground_truth()
        ));
    }

    #[test]
    fn good_rows_are_laminar_and_families_have_no_intersecting_pairs() {
        for rows in [&SHIP_GOOD_ROWS[..], &COST_GOOD_ROWS[..]] {
            let conds: Vec<NormalizedCond> = rows.iter().map(CondRow::cond).collect();
            assert!(rows_are_laminar(&conds));
        }
        let d = data();
        for step in 0..d.n_steps() {
            let ccs = LogisticsWorkload.step_ccs(step, CcFamily::Good, 60, &d, 1);
            assert!(ccs.len() >= 30, "step {step} produced {}", ccs.len());
            let m = RelationshipMatrix::build(&ccs);
            for i in 0..ccs.len() {
                for j in (i + 1)..ccs.len() {
                    assert_ne!(
                        m.get(i, j),
                        CcRelationship::Intersecting,
                        "step {step}: {} vs {}",
                        ccs[i],
                        ccs[j]
                    );
                }
            }
        }
    }

    #[test]
    fn bad_families_have_intersecting_pairs_at_both_steps() {
        let d = data();
        for step in 0..d.n_steps() {
            let ccs = LogisticsWorkload.step_ccs(step, CcFamily::Bad, 60, &d, 1);
            let m = RelationshipMatrix::build(&ccs);
            assert!(
                !m.intersecting_ccs().is_empty(),
                "step {step} bad family should force the ILP path"
            );
        }
    }

    #[test]
    fn targets_are_ground_truth_counts_per_step() {
        let d = data();
        for step in 0..d.n_steps() {
            let view = d.step_truth_view(step);
            for family in [CcFamily::Good, CcFamily::Bad] {
                for cc in LogisticsWorkload.step_ccs(step, family, 30, &d, 2) {
                    assert_eq!(cc.count_in(&view).unwrap(), cc.target, "step {step}: {cc}");
                }
            }
        }
    }

    #[test]
    fn step_constraints_live_on_disjoint_fact_columns() {
        // The property the parallel scheduler rests on: step 1's CC/DC
        // columns never mention a warehouse attribute or the step-0 gap
        // columns, so the two steps share no written resource.
        let d = data();
        let step1_ccs = LogisticsWorkload.step_ccs(1, CcFamily::Bad, 60, &d, 3);
        for cc in &step1_ccs {
            for col in cc.r1.columns() {
                assert!(
                    ["Cost", "Handling"].contains(&col),
                    "step-1 CC references fact column {col}"
                );
            }
            for col in cc.r2.columns() {
                assert!(
                    ["Mode", "Reach"].contains(&col),
                    "step-1 CC references dimension column {col}"
                );
            }
        }
        for dc in LogisticsWorkload.step_dcs(1, DcSet::All) {
            for atom in &dc.atoms {
                let cols: Vec<&str> = match atom {
                    DcAtom::Unary { column, .. } => vec![column.as_str()],
                    DcAtom::Binary { lcol, rcol, .. } => vec![lcol.as_str(), rcol.as_str()],
                };
                for col in cols {
                    assert!(["Cost", "Handling"].contains(&col), "step-1 DC uses {col}");
                }
            }
        }
    }

    #[test]
    fn step_truth_views_span_their_joins() {
        let d = data();
        let v0 = d.step_truth_view(0);
        for col in ["Weight", "Priority", "District", "Tier", "Docks"] {
            assert!(v0.schema().col_id(col).is_some(), "step 0 view lacks {col}");
        }
        let v1 = d.step_truth_view(1);
        for col in ["Cost", "Handling", "Mode", "Reach"] {
            assert!(v1.schema().col_id(col).is_some(), "step 1 view lacks {col}");
        }
        assert_eq!(v0.n_rows(), d.n_r1());
        assert_eq!(v1.n_rows(), d.n_r1());
    }

    #[test]
    fn tier_and_reach_are_determined() {
        let d = data();
        let warehouses = d.relation("Warehouses").unwrap();
        let tier = warehouses.schema().col_id("Tier").unwrap();
        let docks = warehouses.schema().col_id("Docks").unwrap();
        for r in warehouses.rows() {
            let n = warehouses.get_int(r, docks).unwrap();
            assert_eq!(warehouses.get(r, tier), Some(Value::str(tier_of(n))));
        }
        let carriers = d.relation("Carriers").unwrap();
        let mode = carriers.schema().col_id("Mode").unwrap();
        let reach = carriers.schema().col_id("Reach").unwrap();
        for r in carriers.rows() {
            let m = carriers.get(r, mode).unwrap();
            let m = match m {
                Value::Str(s) => s.as_str(),
                other => panic!("mode is {other:?}"),
            };
            assert_eq!(carriers.get(r, reach), Some(Value::str(mode_reach(m))));
        }
    }

    #[test]
    fn dc_row_counts() {
        assert_eq!(logistics_dc_row(1).len(), 2);
        assert_eq!(logistics_dc_row(3).len(), 1);
        assert_eq!(logistics_dc_row(5).len(), 2);
        assert_eq!(LogisticsWorkload.step_dcs(0, DcSet::Good).len(), 4);
        assert_eq!(LogisticsWorkload.step_dcs(0, DcSet::All).len(), 6);
        assert_eq!(LogisticsWorkload.step_dcs(1, DcSet::Good).len(), 4);
        assert_eq!(LogisticsWorkload.step_dcs(1, DcSet::All).len(), 6);
    }

    #[test]
    #[should_panic(expected = "Warehouses has exactly 3 non-key columns")]
    fn other_column_counts_rejected() {
        LogisticsWorkload.generate(&WorkloadParams::new(0.01, 11).with_r2_cols(2));
    }
}
