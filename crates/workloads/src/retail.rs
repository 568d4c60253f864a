//! The Retail orders/customers workload.
//!
//! A deliberately non-Census conflict structure for the schema-generic
//! solver: `Orders(oid, Amount, Priority, Rush, cid)` linked to
//! `Customers(cid, Region, Segment, …)`. Group sizes (orders per customer)
//! follow a truncated Zipf distribution instead of the Census household
//! composition, so `V_join` partitions are dominated by a few heavy
//! customers; DCs are *amount-gap* constraints anchored on each customer's
//! single `First` order (plus clique-inducing exclusivity rows in the full
//! set); CC families combine `Amount` intervals per `Priority` with
//! Region/Segment conditions on the `Customers` side.
//!
//! As everywhere else, CC targets are measured on the hidden ground-truth
//! FK assignment before the `cid` column is erased, and the ground truth
//! satisfies every DC by construction — a zero-error solution provably
//! exists (the precondition for testing Proposition 5.5 end to end).

use crate::ccgen::{bad_family, good_family, sample_zipf, zipf_cumulative};
use crate::workload::{CcFamily, DcSet, Workload, WorkloadData, WorkloadMeta, WorkloadParams};
use cextend_constraints::{
    mine_pool, CardinalityConstraint, DcAtom, DenialConstraint, NormalizedCond, PoolClause,
};
use cextend_table::{CmpOp, ColumnDef, Dtype, Relation, Schema, Value, ValueSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Customer segments (weighted toward `Consumer` in the generator).
pub const SEGMENTS: [&str; 4] = ["Consumer", "Corporate", "HomeOffice", "SmallBiz"];

/// Customer tiers (4-column schema and up).
pub const TIERS: [&str; 4] = ["Bronze", "Silver", "Gold", "Platinum"];

/// Acquisition channels (4-column schema and up).
pub const CHANNELS: [&str; 3] = ["Web", "Store", "Phone"];

/// Markets; determined by the region code (6-column schema and up), the
/// way `St`/`Div`/`Reg` are determined by `Area` in the Census workload.
pub const MARKETS: [&str; 3] = ["Americas", "EMEA", "APAC"];

/// Order priorities. Every customer has exactly one `First` order — the
/// anchor the amount-gap DCs reference, like the Census `Owner`.
pub const PRIORITIES: [&str; 6] = [
    "First",
    "Standard",
    "Bulk",
    "Gift",
    "Subscription",
    "Return",
];

/// Largest order amount the generator can emit (`First` ≤ 400, `Bulk` up
/// to `First + 400`).
pub const MAX_AMOUNT: i64 = 800;

/// Name of region code `i`.
pub fn region_name(i: usize) -> String {
    format!("Region{i:02}")
}

/// The market a region code belongs to (determined by the region).
pub fn region_market(i: usize) -> &'static str {
    MARKETS[i % MARKETS.len()]
}

/// Reference number of customers at scale `1.0`.
const BASE_CUSTOMERS: f64 = 6_000.0;

/// Zipf exponent for the orders-per-customer distribution.
const ZIPF_EXPONENT: f64 = 1.15;

/// Knob defaults.
const DEFAULT_REGIONS: i64 = 8;
const DEFAULT_MAX_GROUP: i64 = 12;

/// The Retail workload.
///
/// Knobs: `regions` — distinct region codes (default 8); `max-group` —
/// Zipf truncation point for orders per customer (default 12).
#[derive(Clone, Copy, Debug, Default)]
pub struct RetailWorkload;

fn orders_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::key("oid", Dtype::Int),
        ColumnDef::attr("Amount", Dtype::Int),
        ColumnDef::attr("Priority", Dtype::Str),
        ColumnDef::attr("Rush", Dtype::Int),
        ColumnDef::foreign_key("cid", Dtype::Int),
    ])
    .expect("static schema")
}

fn customers_schema(n_cols: usize) -> Schema {
    assert!(
        matches!(n_cols, 2 | 4 | 6),
        "Customers supports 2, 4 or 6 non-key columns, not {n_cols}"
    );
    let mut cols = vec![
        ColumnDef::key("cid", Dtype::Int),
        ColumnDef::attr("Region", Dtype::Str),
        ColumnDef::attr("Segment", Dtype::Str),
    ];
    let extras = [
        ("Tier", Dtype::Str),
        ("Channel", Dtype::Str),
        ("Market", Dtype::Str),
        ("Loyalty", Dtype::Int),
    ];
    for (name, dtype) in extras.iter().take(n_cols - 2) {
        cols.push(ColumnDef::attr(name, *dtype));
    }
    Schema::new(cols).expect("static schema")
}

impl Workload for RetailWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "retail",
            relation_names: &["Orders", "Customers"],
            fk_column: "cid",
            expected_ratio: 3.5,
            r2_col_counts: &[2, 4, 6],
            default_r2_cols: 2,
            knobs: &[
                ("regions", DEFAULT_REGIONS),
                ("max-group", DEFAULT_MAX_GROUP),
            ],
            scale_labels: &[1, 2, 5, 10, 40],
        }
    }

    fn generate(&self, params: &WorkloadParams) -> WorkloadData {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n_customers = ((BASE_CUSTOMERS * params.scale).round() as usize).max(1);
        let n_regions = params.knob("regions", DEFAULT_REGIONS).max(1) as usize;
        let max_group = params.knob("max-group", DEFAULT_MAX_GROUP).max(1) as usize;
        let n_cols = params.r2_cols.unwrap_or(self.meta().default_r2_cols);
        let cumulative = zipf_cumulative(ZIPF_EXPONENT, max_group);

        let mut customers =
            Relation::with_capacity("Customers", customers_schema(n_cols), n_customers);
        let mut truth = Relation::with_capacity(
            "Orders",
            orders_schema(),
            (n_customers as f64 * 3.6) as usize,
        );

        let mut oid = 0i64;
        let mut push_order =
            |truth: &mut Relation, amount: i64, priority: &str, rush: i64, cid: i64| {
                oid += 1;
                truth
                    .push_row(&[
                        Some(Value::Int(oid)),
                        Some(Value::Int(amount.clamp(5, MAX_AMOUNT))),
                        Some(Value::str(priority)),
                        Some(Value::Int(rush)),
                        Some(Value::Int(cid)),
                    ])
                    .expect("schema-conforming row");
            };

        for c in 0..n_customers {
            let cid = c as i64 + 1;
            // Region: skewed toward low codes, like real market sizes.
            let region = loop {
                let r = rng.gen_range(0..n_regions);
                if rng.gen_bool(1.0 / (1.0 + r as f64 / 5.0)) {
                    break r;
                }
            };
            let segment = SEGMENTS[match rng.gen_range(0..100) {
                0..=54 => 0,
                55..=79 => 1,
                80..=91 => 2,
                _ => 3,
            }];
            let mut row: Vec<Option<Value>> = vec![
                Some(Value::Int(cid)),
                Some(Value::str(&region_name(region))),
                Some(Value::str(segment)),
            ];
            if n_cols >= 4 {
                let tier = TIERS[match rng.gen_range(0..100) {
                    0..=49 => 0,
                    50..=79 => 1,
                    80..=94 => 2,
                    _ => 3,
                }];
                row.push(Some(Value::str(tier)));
                row.push(Some(Value::str(CHANNELS[rng.gen_range(0..CHANNELS.len())])));
            }
            if n_cols >= 6 {
                row.push(Some(Value::str(region_market(region))));
                row.push(Some(Value::Int(i64::from(rng.gen_bool(0.35)))));
            }
            customers.push_row(&row).expect("schema-conforming row");

            // --- Orders, honoring every retail DC. -------------------------
            // Exactly one First order per customer (rdc6) — the anchor whose
            // amount A and rush flag gate the amount-gap DCs.
            let a = rng.gen_range(40..=400);
            let rush = i64::from(rng.gen_bool(0.3));
            push_order(&mut truth, a, "First", rush, cid);

            let group = sample_zipf(&mut rng, &cumulative);
            let mut gift_used = false;
            for _ in 1..group {
                // Pick a priority compatible with the exclusivity and
                // forbidden-member rows: at most one Gift (rdc7), Bulk only
                // when A ≥ 80 (rdc8), Subscription only when the First order
                // is not rushed (rdc9).
                let mut priority = match rng.gen_range(0..100) {
                    0..=44 => "Standard",
                    45..=64 => "Bulk",
                    65..=79 => "Gift",
                    80..=91 => "Subscription",
                    _ => "Return",
                };
                if (priority == "Bulk" && a < 80)
                    || (priority == "Gift" && gift_used)
                    || (priority == "Subscription" && rush == 1)
                {
                    priority = "Standard";
                }
                gift_used |= priority == "Gift";
                // Amounts inside the gap windows relative to A. Standard
                // uses [A-100, A+100], the intersection of rdc1 and rdc2, so
                // the First order's rush flag never matters.
                let (lo, hi) = match priority {
                    "Standard" => (a - 100, a + 100),
                    "Bulk" => (a - 25, a + 400),
                    "Gift" => (a - 300, a - 10),
                    "Subscription" => (a - 200, a + 50),
                    _ => (5, 500), // Return is unconstrained.
                };
                let amount = rng.gen_range(lo.max(5)..=hi.min(MAX_AMOUNT));
                push_order(
                    &mut truth,
                    amount,
                    priority,
                    i64::from(rng.gen_bool(0.2)),
                    cid,
                );
            }
        }

        let mut orders = truth.clone();
        let fk = orders.schema().fk_col().expect("static schema");
        orders.clear_column(fk);
        WorkloadData::two_relation(orders, customers, truth)
    }

    fn step_ccs(
        &self,
        step: usize,
        family: CcFamily,
        n: usize,
        data: &WorkloadData,
        seed: u64,
    ) -> Vec<CardinalityConstraint> {
        assert_eq!(step, 0, "retail is a one-step workload");
        let truth_join = data.truth_join();
        let pool = mine_pool(
            data.r2(),
            &[
                PoolClause::Combos("Region", "Segment"),
                PoolClause::Values("Region"),
            ],
        );
        match family {
            CcFamily::Good => {
                let rows: Vec<NormalizedCond> = GOOD_ROWS.iter().map(OrderRow::cond).collect();
                good_family("good", &rows, &pool, n, &truth_join, seed)
            }
            CcFamily::Bad => {
                let rows: Vec<NormalizedCond> = BAD_ROWS.iter().map(OrderRow::cond).collect();
                bad_family("bad", &rows, &pool, n, &truth_join, seed)
            }
        }
    }

    fn step_dcs(&self, step: usize, set: DcSet) -> Vec<DenialConstraint> {
        assert_eq!(step, 0, "retail is a one-step workload");
        match set {
            DcSet::Good => s_good_retail_dc(),
            DcSet::All => s_all_retail_dc(),
        }
    }
}

/// One `R1` predicate row: an `Amount` interval, a `Priority` code and
/// optionally the `Rush` flag.
#[derive(Clone, Copy, Debug)]
struct OrderRow {
    lo: i64,
    hi: i64,
    priority: &'static str,
    rush: Option<i64>,
}

const fn row(lo: i64, hi: i64, priority: &'static str, rush: Option<i64>) -> OrderRow {
    OrderRow {
        lo,
        hi,
        priority,
        rush,
    }
}

impl OrderRow {
    fn cond(&self) -> NormalizedCond {
        let mut sets = vec![
            ("Amount".to_owned(), ValueSet::range(self.lo, self.hi)),
            (
                "Priority".to_owned(),
                ValueSet::sym(cextend_table::Sym::intern(self.priority)),
            ),
        ];
        if let Some(r) = self.rush {
            sets.push(("Rush".to_owned(), ValueSet::int(r)));
        }
        NormalizedCond::from_sets(sets)
    }
}

/// Good-family rows: containment chains per priority plus pairwise-disjoint
/// singletons — laminar by construction (asserted in tests), so bundling
/// chains under one `R2` condition yields no intersecting pair.
const GOOD_ROWS: [OrderRow; 23] = [
    // First chain (4).
    row(5, 800, "First", None),
    row(40, 400, "First", None),
    row(40, 200, "First", None),
    row(40, 120, "First", Some(0)),
    // Standard chain (4).
    row(5, 800, "Standard", None),
    row(60, 500, "Standard", None),
    row(120, 360, "Standard", None),
    row(120, 360, "Standard", Some(1)),
    // Bulk chain (3).
    row(5, 800, "Bulk", None),
    row(200, 800, "Bulk", None),
    row(260, 700, "Bulk", Some(0)),
    // Gift chain (3).
    row(5, 390, "Gift", None),
    row(5, 150, "Gift", None),
    row(30, 150, "Gift", None),
    // Subscription singletons: pairwise-disjoint amount bands (6).
    row(5, 49, "Subscription", None),
    row(50, 99, "Subscription", None),
    row(100, 149, "Subscription", None),
    row(150, 249, "Subscription", None),
    row(250, 349, "Subscription", None),
    row(350, 450, "Subscription", None),
    // Return singletons (3).
    row(5, 150, "Return", None),
    row(151, 300, "Return", None),
    row(301, 500, "Return", None),
];

/// Bad-family rows: the good chains plus overlapping-but-incomparable
/// intervals that classify as intersecting and force the ILP path.
const BAD_ROWS: [OrderRow; 26] = [
    row(5, 800, "First", None),
    row(40, 400, "First", None),
    row(40, 200, "First", None),
    row(30, 300, "First", None),
    row(100, 500, "First", None),
    row(5, 220, "First", Some(1)),
    row(5, 800, "Standard", None),
    row(60, 500, "Standard", None),
    row(120, 360, "Standard", None),
    row(80, 250, "Standard", None),
    row(150, 420, "Standard", Some(1)),
    row(5, 800, "Bulk", None),
    row(200, 800, "Bulk", None),
    row(250, 800, "Bulk", None),
    row(150, 600, "Bulk", Some(0)),
    row(5, 390, "Gift", None),
    row(5, 150, "Gift", None),
    row(100, 300, "Gift", None),
    row(5, 49, "Subscription", None),
    row(50, 99, "Subscription", None),
    row(50, 250, "Subscription", None),
    row(40, 460, "Subscription", Some(0)),
    row(5, 150, "Return", None),
    row(151, 300, "Return", None),
    row(100, 400, "Return", None),
    row(301, 500, "Return", None),
];

fn unary(var: usize, column: &str, op: CmpOp, value: Value) -> DcAtom {
    DcAtom::Unary {
        var,
        column: column.to_owned(),
        op,
        value,
    }
}

/// `t2.Amount ◦ t1.Amount + offset` — the gap atom anchored on the First
/// order (variable 0).
fn amount_vs_first(op: CmpOp, offset: i64) -> DcAtom {
    DcAtom::Binary {
        lvar: 1,
        lcol: "Amount".to_owned(),
        op,
        rvar: 0,
        rcol: "Amount".to_owned(),
        offset,
    }
}

/// Lowers "no `priority` order may have an amount outside
/// `[A+lo, A+hi]` of a First order satisfying `first_extra`" into its
/// low/high primitive DCs (the retail analogue of the Census age-gap rows).
fn amount_gap(
    name: &str,
    first_extra: &[DcAtom],
    priority: &str,
    lo: Option<i64>,
    hi: Option<i64>,
) -> Vec<DenialConstraint> {
    let base = |suffix: &str, bound: DcAtom| {
        let mut atoms = vec![unary(0, "Priority", CmpOp::Eq, Value::str("First"))];
        atoms.extend_from_slice(first_extra);
        atoms.push(unary(1, "Priority", CmpOp::Eq, Value::str(priority)));
        atoms.push(bound);
        DenialConstraint::new(format!("{name}-{priority}-{suffix}"), 2, atoms)
            .expect("static DC construction")
    };
    let mut out = Vec::new();
    if let Some(lo) = lo {
        out.push(base("low", amount_vs_first(CmpOp::Lt, lo)));
    }
    if let Some(hi) = hi {
        out.push(base("up", amount_vs_first(CmpOp::Gt, hi)));
    }
    out
}

/// "No two `priority_a`/`priority_b` orders may share a customer."
fn exclusive_pair(name: &str, priority_a: &str, priority_b: &str) -> DenialConstraint {
    DenialConstraint::new(
        name,
        2,
        vec![
            unary(0, "Priority", CmpOp::Eq, Value::str(priority_a)),
            unary(1, "Priority", CmpOp::Eq, Value::str(priority_b)),
        ],
    )
    .expect("static DC construction")
}

/// "A First order with `first_atoms` forbids any `priority` order."
fn forbidden_order(name: &str, first_atoms: &[DcAtom], priority: &str) -> DenialConstraint {
    let mut atoms = vec![unary(0, "Priority", CmpOp::Eq, Value::str("First"))];
    atoms.extend_from_slice(first_atoms);
    atoms.push(unary(1, "Priority", CmpOp::Eq, Value::str(priority)));
    DenialConstraint::new(name, 2, atoms).expect("static DC construction")
}

/// Primitive DCs of one retail DC row (1-based, mirroring `table4_row`).
pub fn retail_dc_row(row: usize) -> Vec<DenialConstraint> {
    let no_rush = [unary(0, "Rush", CmpOp::Eq, Value::Int(0))];
    let rushed = [unary(0, "Rush", CmpOp::Eq, Value::Int(1))];
    match row {
        // 1. Standard outside [A-150, A+150], non-rushed First order.
        1 => amount_gap("rdc1", &no_rush, "Standard", Some(-150), Some(150)),
        // 2. Standard outside [A-100, A+100], rushed First order.
        2 => amount_gap("rdc2", &rushed, "Standard", Some(-100), Some(100)),
        // 3. Bulk outside [A-25, A+400].
        3 => amount_gap("rdc3", &[], "Bulk", Some(-25), Some(400)),
        // 4. Gift outside [A-300, A-10] (gifts are cheaper than the First).
        4 => amount_gap("rdc4", &[], "Gift", Some(-300), Some(-10)),
        // 5. Subscription outside [A-200, A+50].
        5 => amount_gap("rdc5", &[], "Subscription", Some(-200), Some(50)),
        // 6. No two First orders share a customer.
        6 => vec![exclusive_pair("rdc6", "First", "First")],
        // 7. No two Gift orders share a customer.
        7 => vec![exclusive_pair("rdc7", "Gift", "Gift")],
        // 8. A First order under 80 forbids Bulk orders.
        8 => {
            let small = [unary(0, "Amount", CmpOp::Lt, Value::Int(80))];
            vec![forbidden_order("rdc8", &small, "Bulk")]
        }
        // 9. A rushed First order forbids Subscription orders.
        9 => vec![forbidden_order("rdc9", &rushed, "Subscription")],
        _ => panic!("retail DCs have rows 1..=9, not {row}"),
    }
}

/// The clique-free retail DC set (amount-gap rows only).
pub fn s_good_retail_dc() -> Vec<DenialConstraint> {
    (1..=5).flat_map(retail_dc_row).collect()
}

/// Every retail DC, including the clique-inducing exclusivity rows.
pub fn s_all_retail_dc() -> Vec<DenialConstraint> {
    (1..=9).flat_map(retail_dc_row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccgen::rows_are_laminar;
    use cextend_constraints::{CcRelationship, RelationshipMatrix};

    fn data() -> WorkloadData {
        RetailWorkload.generate(&WorkloadParams::new(0.02, 11))
    }

    #[test]
    fn shapes_follow_the_zipf_ratio() {
        let d = data();
        assert_eq!(d.n_r2(), 120); // 6000 × 0.02
        let ratio = d.n_r1() as f64 / d.n_r2() as f64;
        assert!(
            (3.0..4.2).contains(&ratio),
            "orders per customer {ratio} drifted from the truncated-Zipf mean ≈3.5"
        );
        assert_eq!(d.r1().n_rows(), d.ground_truth().n_rows());
    }

    #[test]
    fn group_sizes_are_skewed() {
        let d = data();
        let fk = d.ground_truth().schema().fk_col().unwrap();
        let mut sizes: std::collections::HashMap<Value, usize> = Default::default();
        for r in d.ground_truth().rows() {
            *sizes
                .entry(d.ground_truth().get(r, fk).unwrap())
                .or_insert(0) += 1;
        }
        let singletons = sizes.values().filter(|&&s| s == 1).count();
        let heavy = sizes.values().filter(|&&s| s >= 6).count();
        // Zipf: many single-order customers *and* a heavy tail, unlike the
        // Census household distribution (bounded small groups).
        assert!(
            singletons * 3 > sizes.len(),
            "expected ≥1/3 singleton customers, got {singletons}/{}",
            sizes.len()
        );
        assert!(heavy > 0, "expected a heavy tail of large customers");
        assert!(sizes.values().all(|&s| s <= DEFAULT_MAX_GROUP as usize));
    }

    #[test]
    fn input_fk_is_erased_but_truth_is_complete() {
        let d = data();
        let fk = d.r1().schema().fk_col().unwrap();
        assert!(d.r1().column_is_missing(fk));
        assert!(d.ground_truth().column_is_complete(fk));
    }

    #[test]
    fn ground_truth_satisfies_every_dc() {
        let d = data();
        for (name, dcs) in [("good", s_good_retail_dc()), ("all", s_all_retail_dc())] {
            let err = cextend_core::metrics::dc_error(d.ground_truth(), &dcs).unwrap();
            assert_eq!(err, 0.0, "generator violated the {name} retail DC set");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = data();
        let b = data();
        assert!(cextend_table::relations_equal_ordered(a.r1(), b.r1()));
        assert!(cextend_table::relations_equal_ordered(a.r2(), b.r2()));
        let c = RetailWorkload.generate(&WorkloadParams::new(0.02, 12));
        assert!(!cextend_table::relations_equal_ordered(
            a.ground_truth(),
            c.ground_truth()
        ));
    }

    #[test]
    fn customer_column_progression() {
        for n in [2usize, 4, 6] {
            let d = RetailWorkload.generate(&WorkloadParams::new(0.01, 11).with_r2_cols(n));
            assert_eq!(d.r2().schema().len(), n + 1, "key + {n} attrs");
        }
    }

    #[test]
    #[should_panic(expected = "Customers supports")]
    fn odd_column_count_rejected() {
        RetailWorkload.generate(&WorkloadParams::new(0.01, 11).with_r2_cols(3));
    }

    #[test]
    fn every_customer_has_exactly_one_first_order() {
        let d = data();
        let truth = d.ground_truth();
        let fk = truth.schema().fk_col().unwrap();
        let pri = truth.schema().col_id("Priority").unwrap();
        let mut firsts: std::collections::HashMap<Value, usize> = Default::default();
        for r in truth.rows() {
            if truth.get(r, pri) == Some(Value::str("First")) {
                *firsts.entry(truth.get(r, fk).unwrap()).or_insert(0) += 1;
            }
        }
        assert_eq!(firsts.len(), d.n_r2());
        assert!(firsts.values().all(|&c| c == 1));
    }

    #[test]
    fn good_rows_are_laminar_and_family_has_no_intersecting_pairs() {
        let rows: Vec<NormalizedCond> = GOOD_ROWS.iter().map(OrderRow::cond).collect();
        assert!(rows_are_laminar(&rows));
        let d = data();
        let ccs = RetailWorkload.ccs(CcFamily::Good, 80, &d, 1);
        assert_eq!(ccs.len(), 80);
        let m = RelationshipMatrix::build(&ccs);
        for i in 0..ccs.len() {
            for j in (i + 1)..ccs.len() {
                assert_ne!(
                    m.get(i, j),
                    CcRelationship::Intersecting,
                    "{} vs {}",
                    ccs[i],
                    ccs[j]
                );
            }
        }
    }

    #[test]
    fn bad_family_has_intersecting_pairs() {
        let d = data();
        let ccs = RetailWorkload.ccs(CcFamily::Bad, 80, &d, 1);
        let m = RelationshipMatrix::build(&ccs);
        assert!(
            !m.intersecting_ccs().is_empty(),
            "bad family should force the ILP path"
        );
    }

    #[test]
    fn targets_are_ground_truth_counts() {
        let d = data();
        let truth_join = d.truth_join();
        for family in [CcFamily::Good, CcFamily::Bad] {
            for cc in RetailWorkload.ccs(family, 40, &d, 2) {
                assert_eq!(cc.count_in(&truth_join).unwrap(), cc.target, "{cc}");
            }
        }
    }

    #[test]
    fn dc_row_counts() {
        assert_eq!(retail_dc_row(1).len(), 2);
        assert_eq!(retail_dc_row(4).len(), 2);
        assert_eq!(retail_dc_row(6).len(), 1);
        assert_eq!(s_good_retail_dc().len(), 10);
        assert_eq!(s_all_retail_dc().len(), 14);
    }

    #[test]
    fn market_is_determined_by_region() {
        let d = RetailWorkload.generate(&WorkloadParams::new(0.02, 11).with_r2_cols(6));
        let region = d.r2().schema().col_id("Region").unwrap();
        let market = d.r2().schema().col_id("Market").unwrap();
        let mut seen: std::collections::HashMap<Value, Value> = Default::default();
        for r in d.r2().rows() {
            let reg = d.r2().get(r, region).unwrap();
            let mkt = d.r2().get(r, market).unwrap();
            assert_eq!(*seen.entry(reg).or_insert(mkt), mkt);
        }
    }
}
