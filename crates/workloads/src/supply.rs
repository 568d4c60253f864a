//! The Supply orders/stores/regions workload — a three-relation snowflake
//! chain driving `cextend_core::snowflake` end to end from the harness.
//!
//! Schema graph (completed breadth first from the fact table):
//!
//! ```text
//! Orders(oid, Amount, Category, store_id) ──step 0──▶ Stores
//! Stores(sid, Format, SizeClass, Capacity, region_id) ──step 1──▶ Regions
//! Regions(rid, Zone, Climate)
//! ```
//!
//! Both FK levels carry constraints. Step 0 mirrors the paper's anchored-DC
//! design at the order level: every store has exactly one `Launch` order
//! whose amount `A` gates *amount-gap* DCs on the other categories, plus
//! exclusivity and forbidden-member rows in the full set. Step 1 repeats the
//! pattern one level up: every region has exactly one `Hub` store whose
//! capacity bounds the region's other stores (capacity-gap DCs), plus the
//! clique-inducing "no two Hubs share a region" row. Per-step CC families
//! (good/bad) combine `Amount`/`Category` rows with Format/SizeClass store
//! conditions (step 0) and `Capacity`/`Format` rows with Zone/Climate
//! region conditions (step 1); together they span both joins of the
//! doubly-joined chain view `Orders ⋈ Stores ⋈ Regions`.
//!
//! Second-level constraints live on the *owning* table (`Stores` plays `R1`
//! against `Regions`) rather than the fully joined fact view — the
//! owner-as-R1 decision recorded in DESIGN.md §8, which keeps `region_id`
//! functional. CC targets are measured per step on the hidden ground truth
//! before the FK columns are erased, and the ground truth satisfies every
//! DC of both levels by construction, so a zero-error solution provably
//! exists at every step.

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

/// Store formats. Every region has exactly one `Hub` store — the anchor the
/// capacity-gap DCs of step 1 reference, like the Census `Owner` or the
/// retail `First` order.
pub const FORMATS: [&str; 4] = ["Hub", "Outlet", "Kiosk", "Popup"];

/// Order categories. Every store has exactly one `Launch` order — the
/// anchor of the step-0 amount-gap DCs.
pub const CATEGORIES: [&str; 6] = ["Launch", "Restock", "Bulk", "Sample", "Clearance", "Rush"];

/// Region climates; determined by the zone, the way `Market` is determined
/// by `Region` in the retail workload.
pub const CLIMATES: [&str; 4] = ["Temperate", "Tropical", "Arid", "Continental"];

/// Largest order amount the generator can emit.
pub const MAX_AMOUNT: i64 = 900;

/// Largest store capacity the generator can emit (`Hub` ≤ 2000).
pub const MAX_CAPACITY: i64 = 2000;

/// Name of zone code `i`.
pub fn zone_name(i: usize) -> String {
    format!("Zone{i:02}")
}

/// The zone a region code belongs to.
pub fn region_zone(region: usize, n_regions: usize) -> usize {
    region % n_zones(n_regions)
}

/// Number of distinct zones for a region count (several regions share a
/// zone so zone conditions have real multiplicities).
pub fn n_zones(n_regions: usize) -> usize {
    (n_regions / 3).max(2)
}

/// The climate of a zone (determined by the zone).
pub fn zone_climate(zone: usize) -> &'static str {
    CLIMATES[zone % CLIMATES.len()]
}

/// Reference number of stores at scale `1.0`.
const BASE_STORES: f64 = 2_400.0;

/// Skew exponent for the orders-per-store distribution.
const SKEW_EXPONENT: f64 = 1.1;

/// Knob defaults.
const DEFAULT_REGIONS: i64 = 12;
const DEFAULT_MAX_GROUP: i64 = 8;

/// The Supply workload.
///
/// Knobs: `regions` — distinct region rows (default 12); `max-group` —
/// truncation point for orders per store (default 8).
#[derive(Clone, Copy, Debug, Default)]
pub struct SupplyWorkload;

fn orders_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::key("oid", Dtype::Int),
        ColumnDef::attr("Amount", Dtype::Int),
        ColumnDef::attr("Category", Dtype::Str),
        ColumnDef::foreign_key("store_id", Dtype::Int),
    ])
    .expect("static schema")
}

fn stores_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::key("sid", Dtype::Int),
        ColumnDef::attr("Format", Dtype::Str),
        ColumnDef::attr("SizeClass", Dtype::Str),
        ColumnDef::attr("Capacity", Dtype::Int),
        ColumnDef::foreign_key("region_id", Dtype::Int),
    ])
    .expect("static schema")
}

fn regions_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::key("rid", Dtype::Int),
        ColumnDef::attr("Zone", Dtype::Str),
        ColumnDef::attr("Climate", Dtype::Str),
    ])
    .expect("static schema")
}

/// The size class a capacity falls into (determined by the capacity).
pub fn size_class(capacity: i64) -> &'static str {
    if capacity < 500 {
        "S"
    } else if capacity < 1200 {
        "M"
    } else {
        "L"
    }
}

impl Workload for SupplyWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "supply",
            relation_names: &["Orders", "Stores", "Regions"],
            fk_column: "store_id",
            expected_ratio: 2.8,
            r2_col_counts: &[3],
            default_r2_cols: 3,
            knobs: &[
                ("regions", DEFAULT_REGIONS),
                ("max-group", DEFAULT_MAX_GROUP),
            ],
            scale_labels: &[1, 2, 5, 10, 40],
        }
    }

    fn generate(&self, params: &WorkloadParams) -> WorkloadData {
        let n_cols = params.r2_cols.unwrap_or(self.meta().default_r2_cols);
        assert_eq!(n_cols, 3, "Stores has exactly 3 non-key columns");
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n_regions = params.knob("regions", DEFAULT_REGIONS).max(2) as usize;
        let max_group = params.knob("max-group", DEFAULT_MAX_GROUP).max(1) as usize;
        let n_stores = ((BASE_STORES * params.scale).round() as usize).max(n_regions);
        let cumulative = zipf_cumulative(SKEW_EXPONENT, max_group);

        // --- Regions (the leaf dimension is fully given). -------------------
        let mut regions = Relation::with_capacity("Regions", regions_schema(), n_regions);
        for r in 0..n_regions {
            let zone = region_zone(r, n_regions);
            regions
                .push_full_row(&[
                    Value::Int(r as i64 + 1),
                    Value::str(&zone_name(zone)),
                    Value::str(zone_climate(zone)),
                ])
                .expect("schema-conforming row");
        }

        // --- Stores, honoring the step-1 DCs. -------------------------------
        // Exactly one Hub per region (sdc9) whose capacity bounds the
        // region's other stores: no store above the Hub (sdc7) nor more than
        // 1200 below it (sdc8).
        let hub_capacity: Vec<i64> = (0..n_regions).map(|_| rng.gen_range(1000..=2000)).collect();
        let mut stores_truth = Relation::with_capacity("Stores", stores_schema(), n_stores);
        for s in 0..n_stores {
            let region = s % n_regions;
            let hub = hub_capacity[region];
            let (format, capacity) = if s < n_regions {
                ("Hub", hub)
            } else {
                let format = match rng.gen_range(0..100) {
                    0..=49 => "Outlet",
                    50..=79 => "Kiosk",
                    _ => "Popup",
                };
                (format, rng.gen_range((hub - 900).max(100)..=hub - 50))
            };
            stores_truth
                .push_full_row(&[
                    Value::Int(s as i64 + 1),
                    Value::str(format),
                    Value::str(size_class(capacity)),
                    Value::Int(capacity),
                    Value::Int(region as i64 + 1),
                ])
                .expect("schema-conforming row");
        }

        // --- Orders, honoring the step-0 DCs. -------------------------------
        let mut orders_truth =
            Relation::with_capacity("Orders", orders_schema(), (n_stores as f64 * 3.0) as usize);
        let mut oid = 0i64;
        let mut push_order = |truth: &mut Relation, amount: i64, category: &str, sid: i64| {
            oid += 1;
            truth
                .push_row(&[
                    Some(Value::Int(oid)),
                    Some(Value::Int(amount.clamp(5, MAX_AMOUNT))),
                    Some(Value::str(category)),
                    Some(Value::Int(sid)),
                ])
                .expect("schema-conforming row");
        };
        for s in 0..n_stores {
            let sid = s as i64 + 1;
            // Exactly one Launch order per store (sdc4) — the anchor whose
            // amount A gates the amount-gap rows.
            let a = rng.gen_range(60..=600);
            push_order(&mut orders_truth, a, "Launch", sid);
            let group = sample_zipf(&mut rng, &cumulative);
            let mut sample_used = false;
            for _ in 1..group {
                // Pick a category compatible with the exclusivity and
                // forbidden-member rows: at most one Sample (sdc5), Bulk
                // only when A ≥ 100 (sdc6).
                let mut category = match rng.gen_range(0..100) {
                    0..=39 => "Restock",
                    40..=59 => "Bulk",
                    60..=74 => "Sample",
                    75..=89 => "Clearance",
                    _ => "Rush",
                };
                if (category == "Bulk" && a < 100) || (category == "Sample" && sample_used) {
                    category = "Restock";
                }
                sample_used |= category == "Sample";
                // Amounts inside the gap windows relative to A.
                let (lo, hi) = match category {
                    "Restock" => (a - 150, a + 150),
                    "Bulk" => (a - 50, a + 300),
                    "Clearance" => (a - 400, a - 10),
                    "Sample" => (5, 120),
                    _ => (5, MAX_AMOUNT), // Rush is unconstrained.
                };
                let amount = rng.gen_range(lo.max(5)..=hi.min(MAX_AMOUNT));
                push_order(&mut orders_truth, amount, category, sid);
            }
        }

        let mut orders = orders_truth.clone();
        let fk = orders.schema().fk_col().expect("static schema");
        orders.clear_column(fk);
        let mut stores = stores_truth.clone();
        let fk = stores.schema().fk_col().expect("static schema");
        stores.clear_column(fk);
        WorkloadData {
            relations: vec![orders, stores, regions.clone()],
            truth: vec![orders_truth, stores_truth, regions],
            steps: vec![
                FkEdge::new("Orders", "Stores", "store_id"),
                FkEdge::new("Stores", "Regions", "region_id"),
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
                &ORDER_GOOD_ROWS,
                &ORDER_BAD_ROWS,
                mine_pool(
                    data.relation("Stores").expect("Stores exists"),
                    &[
                        PoolClause::Combos("Format", "SizeClass"),
                        PoolClause::Values("Format"),
                    ],
                ),
            ),
            1 => (
                &STORE_GOOD_ROWS,
                &STORE_BAD_ROWS,
                mine_pool(
                    data.relation("Regions").expect("Regions exists"),
                    &[
                        PoolClause::Combos("Zone", "Climate"),
                        PoolClause::Values("Zone"),
                    ],
                ),
            ),
            other => panic!("supply has steps 0 and 1, not {other}"),
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
            (0, DcSet::Good) => (1..=3).flat_map(supply_dc_row).collect(),
            (0, DcSet::All) => (1..=6).flat_map(supply_dc_row).collect(),
            (1, DcSet::Good) => (7..=8).flat_map(supply_dc_row).collect(),
            (1, DcSet::All) => (7..=9).flat_map(supply_dc_row).collect(),
            (other, _) => panic!("supply has steps 0 and 1, not {other}"),
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

const fn orow(lo: i64, hi: i64, category: &'static str) -> CondRow {
    CondRow {
        int_col: "Amount",
        lo,
        hi,
        sym_col: "Category",
        sym: category,
    }
}

const fn srow(lo: i64, hi: i64, format: &'static str) -> CondRow {
    CondRow {
        int_col: "Capacity",
        lo,
        hi,
        sym_col: "Format",
        sym: format,
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

/// Step-0 good rows: containment chains per category plus pairwise-disjoint
/// singletons — laminar by construction (asserted in tests).
const ORDER_GOOD_ROWS: [CondRow; 14] = [
    // Launch chain (3).
    orow(5, 900, "Launch"),
    orow(60, 600, "Launch"),
    orow(100, 400, "Launch"),
    // Restock chain (3).
    orow(5, 900, "Restock"),
    orow(50, 500, "Restock"),
    orow(120, 300, "Restock"),
    // Bulk chain (2).
    orow(5, 900, "Bulk"),
    orow(150, 700, "Bulk"),
    // Clearance singletons (3).
    orow(5, 99, "Clearance"),
    orow(100, 249, "Clearance"),
    orow(250, 500, "Clearance"),
    // Rush singletons (2) and Sample (1).
    orow(5, 200, "Rush"),
    orow(201, 500, "Rush"),
    orow(5, 120, "Sample"),
];

/// Step-0 bad rows: the good chains plus overlapping-but-incomparable
/// intervals that classify as intersecting and force the ILP path.
const ORDER_BAD_ROWS: [CondRow; 19] = [
    orow(5, 900, "Launch"),
    orow(60, 600, "Launch"),
    orow(100, 400, "Launch"),
    orow(80, 450, "Launch"),
    orow(5, 900, "Restock"),
    orow(50, 500, "Restock"),
    orow(120, 300, "Restock"),
    orow(30, 350, "Restock"),
    orow(5, 900, "Bulk"),
    orow(150, 700, "Bulk"),
    orow(200, 800, "Bulk"),
    orow(5, 99, "Clearance"),
    orow(100, 249, "Clearance"),
    orow(250, 500, "Clearance"),
    orow(50, 300, "Clearance"),
    orow(5, 200, "Rush"),
    orow(201, 500, "Rush"),
    orow(150, 600, "Rush"),
    orow(5, 120, "Sample"),
];

/// Step-1 good rows: capacity chains per store format.
const STORE_GOOD_ROWS: [CondRow; 10] = [
    // Hub chain (3).
    srow(500, 2200, "Hub"),
    srow(1000, 2000, "Hub"),
    srow(1200, 1800, "Hub"),
    // Outlet chain (3).
    srow(5, 2200, "Outlet"),
    srow(100, 1500, "Outlet"),
    srow(300, 1000, "Outlet"),
    // Kiosk singletons (3).
    srow(5, 600, "Kiosk"),
    srow(601, 1300, "Kiosk"),
    srow(1301, 2200, "Kiosk"),
    // Popup (1).
    srow(5, 2200, "Popup"),
];

/// Step-1 bad rows: the good chains plus overlapping intervals.
const STORE_BAD_ROWS: [CondRow; 13] = [
    srow(500, 2200, "Hub"),
    srow(1000, 2000, "Hub"),
    srow(1200, 1800, "Hub"),
    srow(800, 1600, "Hub"),
    srow(5, 2200, "Outlet"),
    srow(100, 1500, "Outlet"),
    srow(300, 1000, "Outlet"),
    srow(200, 1200, "Outlet"),
    srow(5, 600, "Kiosk"),
    srow(601, 1300, "Kiosk"),
    srow(1301, 2200, "Kiosk"),
    srow(400, 900, "Kiosk"),
    srow(5, 2200, "Popup"),
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
/// DCs. `anchor_col` names the category-like column the anchor and member
/// conditions live on.
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

/// Primitive DCs of one supply DC row (1-based). Rows 1–6 constrain the
/// order level (step 0, groups = stores); rows 7–9 constrain the store
/// level (step 1, groups = regions).
pub fn supply_dc_row(row: usize) -> Vec<DenialConstraint> {
    match row {
        // 1. Restock outside [A-150, A+150] of the store's Launch order.
        1 => gap_rows("sdc1", "Category", "Launch", "Restock", "Amount", -150, 150),
        // 2. Bulk outside [A-50, A+300].
        2 => gap_rows("sdc2", "Category", "Launch", "Bulk", "Amount", -50, 300),
        // 3. Clearance outside [A-400, A-10] (clearances undercut the
        //    launch price).
        3 => gap_rows(
            "sdc3",
            "Category",
            "Launch",
            "Clearance",
            "Amount",
            -400,
            -10,
        ),
        // 4. No two Launch orders share a store.
        4 => vec![exclusive_pair("sdc4", "Category", "Launch", "Launch")],
        // 5. No two Sample orders share a store.
        5 => vec![exclusive_pair("sdc5", "Category", "Sample", "Sample")],
        // 6. A Launch order under 100 forbids Bulk orders.
        6 => vec![DenialConstraint::new(
            "sdc6",
            2,
            vec![
                unary(0, "Category", CmpOp::Eq, Value::str("Launch")),
                unary(0, "Amount", CmpOp::Lt, Value::Int(100)),
                unary(1, "Category", CmpOp::Eq, Value::str("Bulk")),
            ],
        )
        .expect("static DC construction")],
        // 7. No store may exceed its region Hub's capacity.
        7 => vec![DenialConstraint::new(
            "sdc7",
            2,
            vec![
                unary(0, "Format", CmpOp::Eq, Value::str("Hub")),
                gap_atom("Capacity", CmpOp::Gt, 0),
            ],
        )
        .expect("static DC construction")],
        // 8. No store may fall more than 1200 below its region Hub.
        8 => vec![DenialConstraint::new(
            "sdc8",
            2,
            vec![
                unary(0, "Format", CmpOp::Eq, Value::str("Hub")),
                gap_atom("Capacity", CmpOp::Lt, -1200),
            ],
        )
        .expect("static DC construction")],
        // 9. No two Hub stores share a region.
        9 => vec![exclusive_pair("sdc9", "Format", "Hub", "Hub")],
        _ => panic!("supply DCs have rows 1..=9, not {row}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccgen::rows_are_laminar;
    use cextend_constraints::{CcRelationship, RelationshipMatrix};
    use cextend_core::metrics::dc_error;

    fn data() -> WorkloadData {
        SupplyWorkload.generate(&WorkloadParams::new(0.02, 11))
    }

    #[test]
    fn three_relation_chain_shape() {
        let d = data();
        assert_eq!(d.relations.len(), 3);
        assert_eq!(d.n_steps(), 2);
        assert_eq!(d.relation("Stores").unwrap().n_rows(), 48); // 2400 × 0.02
        assert_eq!(d.relation("Regions").unwrap().n_rows(), 12);
        let ratio = d.n_r1() as f64 / d.n_r2() as f64;
        assert!(
            (2.0..3.6).contains(&ratio),
            "orders per store {ratio} drifted from the skewed mean ≈2.8"
        );
    }

    #[test]
    fn every_step_fk_is_erased_but_truth_is_complete() {
        let d = data();
        for (i, step) in d.steps.iter().enumerate() {
            let owner = d.relation(&step.owner).unwrap();
            let truth = d.step_owner_truth(i);
            let fk = owner.schema().col_id(&step.fk_col).unwrap();
            assert!(owner.column_is_missing(fk), "step {i}");
            assert!(truth.column_is_complete(fk), "step {i}");
        }
    }

    #[test]
    fn ground_truth_satisfies_every_dc_of_both_levels() {
        let d = data();
        for step in 0..d.n_steps() {
            for set in [DcSet::Good, DcSet::All] {
                let dcs = SupplyWorkload.step_dcs(step, set);
                assert!(!dcs.is_empty());
                let err = dc_error(d.step_owner_truth(step), &dcs).unwrap();
                assert_eq!(err, 0.0, "generator violated step {step} {set:?} DCs");
            }
        }
    }

    #[test]
    fn exactly_one_hub_per_region_and_one_launch_per_store() {
        let d = data();
        let stores = d.truth_of("Stores").unwrap();
        let fmt = stores.schema().col_id("Format").unwrap();
        let region = stores.schema().col_id("region_id").unwrap();
        let mut hubs: std::collections::HashMap<Value, usize> = Default::default();
        for r in stores.rows() {
            if stores.get(r, fmt) == Some(Value::str("Hub")) {
                *hubs.entry(stores.get(r, region).unwrap()).or_insert(0) += 1;
            }
        }
        assert_eq!(hubs.len(), d.relation("Regions").unwrap().n_rows());
        assert!(hubs.values().all(|&c| c == 1));

        let orders = d.truth_of("Orders").unwrap();
        let cat = orders.schema().col_id("Category").unwrap();
        let store = orders.schema().col_id("store_id").unwrap();
        let mut launches: std::collections::HashMap<Value, usize> = Default::default();
        for r in orders.rows() {
            if orders.get(r, cat) == Some(Value::str("Launch")) {
                *launches.entry(orders.get(r, store).unwrap()).or_insert(0) += 1;
            }
        }
        assert_eq!(launches.len(), stores.n_rows());
        assert!(launches.values().all(|&c| c == 1));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = data();
        let b = data();
        for (x, y) in a.truth.iter().zip(&b.truth) {
            assert!(cextend_table::relations_equal_ordered(x, y));
        }
        let c = SupplyWorkload.generate(&WorkloadParams::new(0.02, 12));
        assert!(!cextend_table::relations_equal_ordered(
            a.ground_truth(),
            c.ground_truth()
        ));
    }

    #[test]
    fn good_rows_are_laminar_and_families_have_no_intersecting_pairs() {
        for rows in [&ORDER_GOOD_ROWS[..], &STORE_GOOD_ROWS[..]] {
            let conds: Vec<NormalizedCond> = rows.iter().map(CondRow::cond).collect();
            assert!(rows_are_laminar(&conds));
        }
        let d = data();
        for step in 0..d.n_steps() {
            let ccs = SupplyWorkload.step_ccs(step, CcFamily::Good, 60, &d, 1);
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
            let ccs = SupplyWorkload.step_ccs(step, CcFamily::Bad, 60, &d, 1);
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
                for cc in SupplyWorkload.step_ccs(step, family, 30, &d, 2) {
                    assert_eq!(cc.count_in(&view).unwrap(), cc.target, "step {step}: {cc}");
                }
            }
        }
    }

    #[test]
    fn step_truth_views_span_both_joins() {
        let d = data();
        let v0 = d.step_truth_view(0);
        for col in ["Amount", "Category", "Format", "SizeClass", "Capacity"] {
            assert!(v0.schema().col_id(col).is_some(), "step 0 view lacks {col}");
        }
        let v1 = d.step_truth_view(1);
        for col in ["Format", "SizeClass", "Capacity", "Zone", "Climate"] {
            assert!(v1.schema().col_id(col).is_some(), "step 1 view lacks {col}");
        }
        assert_eq!(v0.n_rows(), d.n_r1());
        assert_eq!(v1.n_rows(), d.relation("Stores").unwrap().n_rows());
    }

    #[test]
    fn size_class_and_climate_are_determined() {
        let d = data();
        let stores = d.relation("Stores").unwrap();
        let size = stores.schema().col_id("SizeClass").unwrap();
        let cap = stores.schema().col_id("Capacity").unwrap();
        for r in stores.rows() {
            let c = stores.get_int(r, cap).unwrap();
            assert_eq!(stores.get(r, size), Some(Value::str(size_class(c))));
        }
        let regions = d.relation("Regions").unwrap();
        let zone = regions.schema().col_id("Zone").unwrap();
        let climate = regions.schema().col_id("Climate").unwrap();
        let mut seen: std::collections::HashMap<Value, Value> = Default::default();
        for r in regions.rows() {
            let z = regions.get(r, zone).unwrap();
            let c = regions.get(r, climate).unwrap();
            assert_eq!(*seen.entry(z).or_insert(c), c);
        }
    }

    #[test]
    fn dc_row_counts() {
        assert_eq!(supply_dc_row(1).len(), 2);
        assert_eq!(supply_dc_row(4).len(), 1);
        assert_eq!(supply_dc_row(7).len(), 1);
        assert_eq!(SupplyWorkload.step_dcs(0, DcSet::Good).len(), 6);
        assert_eq!(SupplyWorkload.step_dcs(0, DcSet::All).len(), 9);
        assert_eq!(SupplyWorkload.step_dcs(1, DcSet::Good).len(), 2);
        assert_eq!(SupplyWorkload.step_dcs(1, DcSet::All).len(), 3);
    }

    #[test]
    #[should_panic(expected = "Stores has exactly 3 non-key columns")]
    fn other_column_counts_rejected() {
        SupplyWorkload.generate(&WorkloadParams::new(0.01, 11).with_r2_cols(2));
    }
}
