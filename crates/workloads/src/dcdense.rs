//! The DC-dense adversarial Events/Slots workload.
//!
//! The ROADMAP calls for a scenario whose conflict hypergraph approaches
//! the density of the paper's NAE-3SAT hardness reduction (§5.2): few
//! `V_join` partitions, each carrying *many* conflict edges, including
//! 3-uniform hyperedges from a ternary DC with **no unary atoms** — the
//! exact regime where the naive `O(|P|^k)` edge enumeration collapses and
//! the indexed conflict builder (`cextend_core::conflict`) has to carry
//! Phase II. `Events(eid, Track, Kind, Load, slot_id)` link to
//! `Slots(sid, Room, Shift)`; only `rooms × 2` distinct `(Room, Shift)`
//! combos exist, so partitions are large by construction, and the DC set
//! mixes every atom shape the builder optimizes:
//!
//! - equality-chained ternary `nae-track` (no three events of one track in
//!   a slot) — hash-bucket probes on `Track`, symmetric-variable dedup;
//! - anchored `Load` gap DCs (Filler/Spare within a window of the slot's
//!   unique Anchor) — sorted-run range probes;
//! - a mixed equality+range DC (`Free` events on the Anchor's track are
//!   load-capped) — both index kinds in one enumeration;
//! - Anchor exclusivity — the clique-inducing row (`DcSet::All` only).
//!
//! As everywhere else, CC targets are measured on the hidden ground truth
//! and the generator satisfies every DC by construction, so a zero-error
//! solution provably exists (the Proposition 5.5 test precondition).

use crate::ccgen::{bad_family, good_family};
use crate::workload::{CcFamily, DcSet, Workload, WorkloadData, WorkloadMeta, WorkloadParams};
use cextend_constraints::{
    mine_pool, CardinalityConstraint, DcAtom, DenialConstraint, NormalizedCond, PoolClause,
};
use cextend_table::{CmpOp, ColumnDef, Dtype, RelationBuilder, Schema, Sym, Value, ValueSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Event kinds. Every slot has exactly one `Anchor` — the tuple the gap
/// DCs reference, like the Census `Owner` or the Retail `First` order.
pub const KINDS: [&str; 4] = ["Anchor", "Filler", "Spare", "Free"];

/// Slot shifts. Deliberately few: partitions split on `(Room, Shift)`, and
/// DC density comes from keeping that product small.
pub const SHIFTS: [&str; 2] = ["Day", "Night"];

/// Largest event load the generator emits.
pub const MAX_LOAD: i64 = 900;

/// Name of room code `i`.
pub fn room_name(i: usize) -> String {
    format!("Room{i:02}")
}

/// Reference number of slots at scale `1.0`.
const BASE_SLOTS: f64 = 4_000.0;

/// Knob defaults.
const DEFAULT_TRACKS: i64 = 6;
const DEFAULT_ROOMS: i64 = 3;
const DEFAULT_MAX_GROUP: i64 = 6;

/// The DC-dense workload.
///
/// Knobs: `tracks` — distinct track codes (default 6; fewer tracks ⇒
/// denser `nae-track` hyperedges); `rooms` — distinct rooms (default 3;
/// fewer rooms ⇒ larger partitions); `max-group` — events per slot upper
/// bound (default 6).
#[derive(Clone, Copy, Debug, Default)]
pub struct DcDenseWorkload;

fn events_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::key("eid", Dtype::Int),
        ColumnDef::attr("Track", Dtype::Int),
        ColumnDef::attr("Kind", Dtype::Str),
        ColumnDef::attr("Load", Dtype::Int),
        ColumnDef::foreign_key("slot_id", Dtype::Int),
    ])
    .expect("static schema")
}

fn slots_schema(n_cols: usize) -> Schema {
    assert!(
        matches!(n_cols, 2 | 4),
        "Slots supports 2 or 4 non-key columns, not {n_cols}"
    );
    let mut cols = vec![
        ColumnDef::key("sid", Dtype::Int),
        ColumnDef::attr("Room", Dtype::Str),
        ColumnDef::attr("Shift", Dtype::Str),
    ];
    if n_cols >= 4 {
        cols.push(ColumnDef::attr("District", Dtype::Str));
        cols.push(ColumnDef::attr("Cap", Dtype::Int));
    }
    Schema::new(cols).expect("static schema")
}

impl Workload for DcDenseWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "dcdense",
            relation_names: &["Events", "Slots"],
            fk_column: "slot_id",
            expected_ratio: 4.0,
            r2_col_counts: &[2, 4],
            default_r2_cols: 2,
            knobs: &[
                ("tracks", DEFAULT_TRACKS),
                ("rooms", DEFAULT_ROOMS),
                ("max-group", DEFAULT_MAX_GROUP),
            ],
            scale_labels: &[1, 2, 5, 10],
        }
    }

    fn generate(&self, params: &WorkloadParams) -> WorkloadData {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n_slots = ((BASE_SLOTS * params.scale).round() as usize).max(1);
        let n_tracks = params.knob("tracks", DEFAULT_TRACKS).max(2) as usize;
        let n_rooms = params.knob("rooms", DEFAULT_ROOMS).max(1) as usize;
        let max_group = params.knob("max-group", DEFAULT_MAX_GROUP).max(2) as usize;
        let n_cols = params.r2_cols.unwrap_or(self.meta().default_r2_cols);

        // Columnar accumulators, bulk-loaded through `RelationBuilder` —
        // the scale driver generates millions of events through this path.
        let est_events = n_slots * (2 + max_group) / 2 + n_slots;
        let mut s_sid: Vec<i64> = Vec::with_capacity(n_slots);
        let mut s_room: Vec<Sym> = Vec::with_capacity(n_slots);
        let mut s_shift: Vec<Sym> = Vec::with_capacity(n_slots);
        let mut s_district: Vec<Sym> = Vec::new();
        let mut s_cap: Vec<i64> = Vec::new();
        let mut e_eid: Vec<i64> = Vec::with_capacity(est_events);
        let mut e_track: Vec<i64> = Vec::with_capacity(est_events);
        let mut e_kind: Vec<Sym> = Vec::with_capacity(est_events);
        let mut e_load: Vec<i64> = Vec::with_capacity(est_events);
        let mut e_sid: Vec<i64> = Vec::with_capacity(est_events);

        let mut eid = 0i64;
        let mut push_event = |track: usize, kind: &str, load: i64, sid| {
            eid += 1;
            e_eid.push(eid);
            e_track.push(track as i64);
            e_kind.push(Sym::intern(kind));
            e_load.push(load.clamp(10, MAX_LOAD));
            e_sid.push(sid);
        };

        for s in 0..n_slots {
            let sid = s as i64 + 1;
            let room = rng.gen_range(0..n_rooms);
            let shift = SHIFTS[rng.gen_range(0..SHIFTS.len())];
            s_sid.push(sid);
            s_room.push(Sym::intern(&room_name(room)));
            s_shift.push(Sym::intern(shift));
            if n_cols >= 4 {
                // District is determined by the room, like Market by Region.
                s_district.push(Sym::intern(&format!("District{}", room % 2)));
                s_cap.push(rng.gen_range(10..=500));
            }

            // --- Events, honoring every dcdense DC. ------------------------
            // At most two events per track per slot (nae-track, ddc5), so
            // the group size is capped by 2·tracks.
            let group = rng.gen_range(2..=max_group).min(2 * n_tracks);
            let mut track_count = vec![0usize; n_tracks];
            // Pick a track with spare capacity: one random draw, then a
            // deterministic forward scan (bounded, seed-reproducible).
            let pick_track = |rng: &mut StdRng, count: &mut [usize]| -> usize {
                let start = rng.gen_range(0..n_tracks);
                let t = (0..n_tracks)
                    .map(|i| (start + i) % n_tracks)
                    .find(|&t| count[t] < 2)
                    .expect("group size capped at 2·tracks");
                count[t] += 1;
                t
            };

            // Exactly one Anchor per slot (ddc4) — the gap DCs' reference.
            let a = rng.gen_range(200..=600);
            let anchor_track = pick_track(&mut rng, &mut track_count);
            push_event(anchor_track, "Anchor", a, sid);

            for _ in 1..group {
                let kind = match rng.gen_range(0..100) {
                    0..=44 => "Filler",
                    45..=74 => "Spare",
                    _ => "Free",
                };
                let track = pick_track(&mut rng, &mut track_count);
                // Loads inside the gap windows relative to the Anchor's A
                // (ddc1–ddc3); `Free` off the Anchor's track is unbounded.
                let (lo, hi) = match kind {
                    "Filler" => (a - 150, a + 150),
                    "Spare" => (a - 250, a + 50),
                    _ if track == anchor_track => (10, a + 100),
                    _ => (10, MAX_LOAD),
                };
                let load = rng.gen_range(lo.max(10)..=hi.min(MAX_LOAD));
                push_event(track, kind, load, sid);
            }
        }

        let slots_schema = slots_schema(n_cols);
        let mut sb = RelationBuilder::new("Slots", slots_schema.clone(), n_slots);
        let col = |name: &str| slots_schema.col_id(name).expect("static schema");
        sb.append_ints(col("sid"), &s_sid).expect("int column");
        sb.append_syms(col("Room"), &s_room).expect("str column");
        sb.append_syms(col("Shift"), &s_shift).expect("str column");
        if n_cols >= 4 {
            sb.append_syms(col("District"), &s_district)
                .expect("str column");
            sb.append_ints(col("Cap"), &s_cap).expect("int column");
        }
        let slots = sb.freeze().expect("aligned columns");

        let events_schema = events_schema();
        let mut eb = RelationBuilder::new("Events", events_schema.clone(), e_eid.len());
        let ecol = |name: &str| events_schema.col_id(name).expect("static schema");
        eb.append_ints(ecol("eid"), &e_eid).expect("int column");
        eb.append_ints(ecol("Track"), &e_track).expect("int column");
        eb.append_syms(ecol("Kind"), &e_kind).expect("str column");
        eb.append_ints(ecol("Load"), &e_load).expect("int column");
        eb.append_ints(ecol("slot_id"), &e_sid).expect("int column");
        let truth = eb.freeze().expect("aligned columns");

        let mut events = truth.clone();
        let fk = events.schema().fk_col().expect("static schema");
        events.clear_column(fk);
        WorkloadData::two_relation(events, slots, truth)
    }

    fn step_ccs(
        &self,
        step: usize,
        family: CcFamily,
        n: usize,
        data: &WorkloadData,
        seed: u64,
    ) -> Vec<CardinalityConstraint> {
        assert_eq!(step, 0, "dcdense is a one-step workload");
        let truth_join = data.truth_join();
        let pool = mine_pool(
            data.r2(),
            &[
                PoolClause::Combos("Room", "Shift"),
                PoolClause::Values("Room"),
            ],
        );
        match family {
            CcFamily::Good => {
                let rows: Vec<NormalizedCond> = GOOD_ROWS.iter().map(EventRow::cond).collect();
                good_family("good", &rows, &pool, n, &truth_join, seed)
            }
            CcFamily::Bad => {
                let rows: Vec<NormalizedCond> = BAD_ROWS.iter().map(EventRow::cond).collect();
                bad_family("bad", &rows, &pool, n, &truth_join, seed)
            }
        }
    }

    fn step_dcs(&self, step: usize, set: DcSet) -> Vec<DenialConstraint> {
        assert_eq!(step, 0, "dcdense is a one-step workload");
        match set {
            DcSet::Good => s_good_dcdense_dc(),
            DcSet::All => s_all_dcdense_dc(),
        }
    }
}

/// One `R1` predicate row: a `Load` interval and a `Kind` code.
#[derive(Clone, Copy, Debug)]
struct EventRow {
    lo: i64,
    hi: i64,
    kind: &'static str,
}

const fn row(lo: i64, hi: i64, kind: &'static str) -> EventRow {
    EventRow { lo, hi, kind }
}

impl EventRow {
    fn cond(&self) -> NormalizedCond {
        NormalizedCond::from_sets(vec![
            ("Load".to_owned(), ValueSet::range(self.lo, self.hi)),
            (
                "Kind".to_owned(),
                ValueSet::sym(cextend_table::Sym::intern(self.kind)),
            ),
        ])
    }
}

/// Good-family rows: containment chains per kind plus pairwise-disjoint
/// Spare singletons — laminar by construction (asserted in tests).
const GOOD_ROWS: [EventRow; 12] = [
    // Anchor chain (3).
    row(10, 900, "Anchor"),
    row(200, 600, "Anchor"),
    row(250, 450, "Anchor"),
    // Filler chain (3).
    row(10, 900, "Filler"),
    row(60, 700, "Filler"),
    row(150, 550, "Filler"),
    // Spare singletons: pairwise-disjoint load bands (4).
    row(10, 199, "Spare"),
    row(200, 399, "Spare"),
    row(400, 600, "Spare"),
    row(601, 900, "Spare"),
    // Free chain (2).
    row(10, 900, "Free"),
    row(10, 500, "Free"),
];

/// Bad-family rows: the good chains plus overlapping-but-incomparable
/// intervals that classify as intersecting and force the ILP path.
const BAD_ROWS: [EventRow; 16] = [
    row(10, 900, "Anchor"),
    row(200, 600, "Anchor"),
    row(100, 400, "Anchor"),
    row(300, 700, "Anchor"),
    row(10, 900, "Filler"),
    row(60, 700, "Filler"),
    row(100, 400, "Filler"),
    row(200, 650, "Filler"),
    row(10, 199, "Spare"),
    row(200, 399, "Spare"),
    row(100, 500, "Spare"),
    row(400, 600, "Spare"),
    row(10, 900, "Free"),
    row(10, 500, "Free"),
    row(250, 800, "Free"),
    row(601, 900, "Spare"),
];

fn kind_eq(var: usize, kind: &str) -> DcAtom {
    DcAtom::Unary {
        var,
        column: "Kind".to_owned(),
        op: CmpOp::Eq,
        value: Value::str(kind),
    }
}

/// `t2.Load ◦ t1.Load + offset` — the gap atom anchored on the slot's
/// Anchor (variable 0).
fn load_vs_anchor(op: CmpOp, offset: i64) -> DcAtom {
    DcAtom::Binary {
        lvar: 1,
        lcol: "Load".to_owned(),
        op,
        rvar: 0,
        rcol: "Load".to_owned(),
        offset,
    }
}

/// Lowers "no `kind` event may load outside `[A+lo, A+hi]` of the slot's
/// Anchor" into its low/high primitive DCs.
fn load_gap(name: &str, kind: &str, lo: i64, hi: i64) -> Vec<DenialConstraint> {
    let base = |suffix: &str, bound: DcAtom| {
        DenialConstraint::new(
            format!("{name}-{kind}-{suffix}"),
            2,
            vec![kind_eq(0, "Anchor"), kind_eq(1, kind), bound],
        )
        .expect("static DC construction")
    };
    vec![
        base("low", load_vs_anchor(CmpOp::Lt, lo)),
        base("up", load_vs_anchor(CmpOp::Gt, hi)),
    ]
}

/// Primitive DCs of one dcdense DC row (1-based, mirroring `table4_row`).
pub fn dcdense_dc_row(row: usize) -> Vec<DenialConstraint> {
    match row {
        // 1. Filler outside [A−150, A+150].
        1 => load_gap("ddc1", "Filler", -150, 150),
        // 2. Spare outside [A−250, A+50].
        2 => load_gap("ddc2", "Spare", -250, 50),
        // 3. A Free event on the Anchor's track loading above A+100 —
        //    equality and range atom in one DC.
        3 => vec![DenialConstraint::new(
            "ddc3",
            2,
            vec![
                kind_eq(0, "Anchor"),
                kind_eq(1, "Free"),
                DcAtom::Binary {
                    lvar: 1,
                    lcol: "Track".to_owned(),
                    op: CmpOp::Eq,
                    rvar: 0,
                    rcol: "Track".to_owned(),
                    offset: 0,
                },
                load_vs_anchor(CmpOp::Gt, 100),
            ],
        )
        .expect("static DC construction")],
        // 4. No two Anchors share a slot (clique-inducing).
        4 => {
            vec![
                DenialConstraint::new("ddc4", 2, vec![kind_eq(0, "Anchor"), kind_eq(1, "Anchor")])
                    .expect("static DC construction"),
            ]
        }
        // 5. nae-track: no three events of one track share a slot — the
        //    3-uniform, zero-unary-atom hyperedge source approaching the
        //    NAE-3SAT reduction's shape.
        5 => {
            let chain = |l: usize, r: usize| DcAtom::Binary {
                lvar: l,
                lcol: "Track".to_owned(),
                op: CmpOp::Eq,
                rvar: r,
                rcol: "Track".to_owned(),
                offset: 0,
            };
            vec![
                DenialConstraint::new("ddc5", 3, vec![chain(0, 1), chain(1, 2)])
                    .expect("static DC construction"),
            ]
        }
        _ => panic!("dcdense DCs have rows 1..=5, not {row}"),
    }
}

/// The clique-free dcdense DC set (Anchor-anchored star rows only).
pub fn s_good_dcdense_dc() -> Vec<DenialConstraint> {
    (1..=3).flat_map(dcdense_dc_row).collect()
}

/// Every dcdense DC, including Anchor exclusivity and the ternary
/// `nae-track` hyperedge row.
pub fn s_all_dcdense_dc() -> Vec<DenialConstraint> {
    (1..=5).flat_map(dcdense_dc_row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccgen::rows_are_laminar;
    use cextend_constraints::{CcRelationship, RelationshipMatrix};
    use std::collections::HashMap;

    fn data() -> WorkloadData {
        DcDenseWorkload.generate(&WorkloadParams::new(0.02, 11))
    }

    #[test]
    fn shapes_match_meta() {
        let d = data();
        assert_eq!(d.n_r2(), 80); // 4000 × 0.02
        let ratio = d.n_r1() as f64 / d.n_r2() as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "events per slot {ratio} drifted from the uniform-[2,6] mean ≈4"
        );
        let fk = d.r1().schema().fk_col().unwrap();
        assert!(d.r1().column_is_missing(fk));
        assert!(d.ground_truth().column_is_complete(fk));
    }

    #[test]
    fn partitions_are_few_and_dense() {
        // The whole point of the workload: at default knobs only
        // rooms × shifts = 6 (Room, Shift) combos exist, so V_join
        // partitions average |R1|/6 tuples.
        let d = data();
        let room = d.r2().schema().col_id("Room").unwrap();
        let shift = d.r2().schema().col_id("Shift").unwrap();
        let combos = cextend_table::marginals::distinct_combos(d.r2(), &[room, shift]);
        assert!(
            combos.len() <= 6,
            "expected ≤6 combos, got {}",
            combos.len()
        );
    }

    #[test]
    fn ground_truth_satisfies_every_dc() {
        let d = data();
        for (name, dcs) in [("good", s_good_dcdense_dc()), ("all", s_all_dcdense_dc())] {
            let err = cextend_core::metrics::dc_error(d.ground_truth(), &dcs).unwrap();
            assert_eq!(err, 0.0, "generator violated the {name} dcdense DC set");
        }
    }

    #[test]
    fn every_slot_has_one_anchor_and_no_track_triples() {
        let d = data();
        let truth = d.ground_truth();
        let fk = truth.schema().fk_col().unwrap();
        let kind = truth.schema().col_id("Kind").unwrap();
        let track = truth.schema().col_id("Track").unwrap();
        let mut anchors: HashMap<Value, usize> = HashMap::new();
        let mut tracks: HashMap<(Value, i64), usize> = HashMap::new();
        for r in truth.rows() {
            let slot = truth.get(r, fk).unwrap();
            if truth.get(r, kind) == Some(Value::str("Anchor")) {
                *anchors.entry(slot).or_insert(0) += 1;
            }
            *tracks
                .entry((slot, truth.get_int(r, track).unwrap()))
                .or_insert(0) += 1;
        }
        assert_eq!(anchors.len(), d.n_r2());
        assert!(anchors.values().all(|&c| c == 1));
        assert!(
            tracks.values().all(|&c| c <= 2),
            "three events of one track in one slot would violate nae-track"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = data();
        let b = data();
        assert!(cextend_table::relations_equal_ordered(a.r1(), b.r1()));
        assert!(cextend_table::relations_equal_ordered(a.r2(), b.r2()));
        let c = DcDenseWorkload.generate(&WorkloadParams::new(0.02, 12));
        assert!(!cextend_table::relations_equal_ordered(
            a.ground_truth(),
            c.ground_truth()
        ));
    }

    #[test]
    fn slot_column_progression() {
        for n in [2usize, 4] {
            let d = DcDenseWorkload.generate(&WorkloadParams::new(0.01, 11).with_r2_cols(n));
            assert_eq!(d.r2().schema().len(), n + 1, "key + {n} attrs");
        }
    }

    #[test]
    #[should_panic(expected = "Slots supports")]
    fn odd_column_count_rejected() {
        DcDenseWorkload.generate(&WorkloadParams::new(0.01, 11).with_r2_cols(3));
    }

    #[test]
    fn knobs_shape_density() {
        let dense = DcDenseWorkload.generate(
            &WorkloadParams::new(0.02, 11)
                .with_knob("tracks", 2)
                .with_knob("rooms", 1),
        );
        let track = dense.r1().schema().col_id("Track").unwrap();
        assert!(dense.ground_truth().distinct_values(track).len() <= 2);
        let room = dense.r2().schema().col_id("Room").unwrap();
        assert_eq!(dense.r2().distinct_values(room).len(), 1);
    }

    #[test]
    fn good_rows_are_laminar_and_family_has_no_intersecting_pairs() {
        let rows: Vec<NormalizedCond> = GOOD_ROWS.iter().map(EventRow::cond).collect();
        assert!(rows_are_laminar(&rows));
        let d = data();
        let ccs = DcDenseWorkload.ccs(CcFamily::Good, 60, &d, 1);
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
        let ccs = DcDenseWorkload.ccs(CcFamily::Bad, 60, &d, 1);
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
            for cc in DcDenseWorkload.ccs(family, 30, &d, 2) {
                assert_eq!(cc.count_in(&truth_join).unwrap(), cc.target, "{cc}");
            }
        }
    }

    #[test]
    fn dc_row_counts() {
        assert_eq!(dcdense_dc_row(1).len(), 2);
        assert_eq!(dcdense_dc_row(3).len(), 1);
        assert_eq!(dcdense_dc_row(5)[0].arity, 3);
        assert_eq!(s_good_dcdense_dc().len(), 5);
        assert_eq!(s_all_dcdense_dc().len(), 7);
    }

    #[test]
    fn end_to_end_zero_dc_error() {
        let d = DcDenseWorkload.generate(&WorkloadParams::new(0.005, 7));
        let ccs = DcDenseWorkload.ccs(CcFamily::Good, 15, &d, 7);
        let instance = d.to_instance(ccs, s_all_dcdense_dc()).unwrap();
        let solution =
            cextend_core::solve(&instance, &cextend_core::SolverConfig::hybrid()).unwrap();
        let report = cextend_core::metrics::evaluate(&instance, &solution).unwrap();
        assert_eq!(report.dc_error, 0.0);
        assert!(report.join_recovered);
    }
}
