//! One-pass CC membership over a relation.
//!
//! A CC condition is a conjunction of per-column value sets
//! ([`NormalizedCond`]), so whether a row satisfies it follows from each
//! constrained column's cell alone. [`CcMembership`] compiles a list of
//! conditions into one lookup table per referenced column, each entry a
//! bitset over the conditions:
//!
//! - a `Sym` column has one entry per symbol some set holds: the conditions
//!   whose set holds it (or that leave the column unconstrained); its
//!   dictionary codes index those entries;
//! - an `Int` column is cut at every range endpoint — `lo`, and `hi + 1`
//!   unless `hi` is `i64::MAX` — the §4.1 rule [`crate::ColumnIntervals`]
//!   applies, so each slot lies wholly inside or outside every range and
//!   has one entry, tested at the slot's start;
//! - every column has one more entry for a missing cell: the conditions
//!   that do not constrain the column (also the entry of every symbol no
//!   set holds).
//!
//! A row's mask is the word-wise AND of its columns' entries, starting from
//! all-ones; the whole relation is classified in one pass, whatever the
//! number of conditions. The semantics are those of the compiled predicates
//! behind [`CardinalityConstraint::count_in`]: a missing cell fails every
//! condition on its column; [`ValueSet::Empty`], a symbol set on an `Int`
//! column and a range on a `Sym` column match no row; a symbol absent from
//! the column's dictionary matches no row; the empty condition matches
//! every row. Multi-symbol sets follow [`ValueSet::contains`].

use crate::cc::{CardinalityConstraint, NormalizedCond};
use crate::error::Result;
use cextend_table::marginals::distinct_combos;
use cextend_table::{
    Atom, ColId, Dtype, IntColumnView, Predicate, Relation, RowId, SymColumnView, ValueSet,
};
use std::collections::BTreeMap;

/// How one referenced column maps a row to its table entry.
enum Cells<'a> {
    /// Entry `by_code[code]`.
    Sym(SymColumnView<'a>, Vec<u32>),
    /// Entry `1 + slot`, where slot `i` starts at `starts[i]` and
    /// `starts[0] == i64::MIN`.
    Int(IntColumnView<'a>, Vec<i64>),
}

/// One referenced column: its cells and its entries, `words` words each;
/// entry 0 is the missing cell.
struct ColumnTable<'a> {
    cells: Cells<'a>,
    entries: Vec<u64>,
}

impl ColumnTable<'_> {
    /// Index of `row`'s entry.
    #[inline]
    fn entry(&self, row: RowId) -> usize {
        match &self.cells {
            Cells::Sym(view, by_code) => view.code(row).map_or(0, |c| by_code[c as usize] as usize),
            Cells::Int(view, starts) => view
                .get(row)
                .map_or(0, |x| starts.partition_point(|&s| s <= x)),
        }
    }
}

/// Per-column lookup tables classifying every row of one relation against
/// a list of conditions (see the module docs). Borrows the relation's
/// columns, so the relation cannot change while the tables are live.
pub struct CcMembership<'a> {
    n_rows: usize,
    n_conds: usize,
    words: usize,
    /// All-ones over the `n_conds` live bits.
    full: Vec<u64>,
    cols: Vec<ColumnTable<'a>>,
}

impl<'a> CcMembership<'a> {
    /// Builds the tables of `conds` against `rel`. Condition `i` is bit
    /// `i % 64` of mask word `i / 64`.
    ///
    /// Fails on a column `rel` lacks, with the error
    /// [`CardinalityConstraint::count_in`] gives for the first such
    /// condition.
    pub fn build<'c>(
        rel: &'a Relation,
        conds: impl IntoIterator<Item = &'c NormalizedCond>,
    ) -> Result<CcMembership<'a>> {
        let mut on_col: BTreeMap<ColId, Vec<(usize, &ValueSet)>> = BTreeMap::new();
        let mut n_conds = 0;
        for (i, cond) in conds.into_iter().enumerate() {
            for (col, set) in cond.iter() {
                let id = rel.schema().require(col, rel.name())?;
                on_col.entry(id).or_default().push((i, set));
            }
            n_conds = i + 1;
        }
        let words = n_conds.div_ceil(64);
        let mut full = vec![!0u64; words];
        if !n_conds.is_multiple_of(64) {
            full[words - 1] = (1u64 << (n_conds % 64)) - 1;
        }
        let cols = on_col
            .into_iter()
            .map(|(id, constraints)| {
                let mut missing = full.clone();
                for &(i, _) in &constraints {
                    missing[i / 64] &= !(1u64 << (i % 64));
                }
                match rel.schema().column(id).dtype {
                    Dtype::Str => sym_table(rel, id, &constraints, &missing, words),
                    Dtype::Int => int_table(rel, id, &constraints, &missing, words),
                }
            })
            .collect();
        Ok(CcMembership {
            n_rows: rel.n_rows(),
            n_conds,
            words,
            full,
            cols,
        })
    }

    /// Words per row mask: one per 64 conditions, rounded up.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Writes `row`'s mask into `out` (`words()` long): bit `i` is set iff
    /// the row satisfies condition `i`.
    #[inline]
    pub fn row_mask(&self, row: RowId, out: &mut [u64]) {
        out.copy_from_slice(&self.full);
        for col in &self.cols {
            let at = col.entry(row) * self.words;
            for (o, &e) in out.iter_mut().zip(&col.entries[at..at + self.words]) {
                *o &= e;
            }
        }
    }

    /// Calls `visit(row, mask)` for every row, in ascending order.
    fn for_each_mask(&self, mut visit: impl FnMut(RowId, &[u64])) {
        let mut mask = vec![0u64; self.words];
        for row in 0..self.n_rows {
            self.row_mask(row, &mut mask);
            visit(row, &mask);
        }
    }

    /// Number of rows satisfying each condition.
    pub fn counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.n_conds];
        self.for_each_mask(|_, mask| {
            for_each_bit(mask, |i| counts[i] += 1);
        });
        counts
    }

    /// Per-condition row bitmaps: bit `row % 64` of word `row / 64` of
    /// `bitmaps()[i]` is set iff `row` satisfies condition `i`.
    pub fn bitmaps(&self) -> Vec<Vec<u64>> {
        let row_words = self.n_rows.div_ceil(64);
        let mut bits = vec![vec![0u64; row_words]; self.n_conds];
        self.for_each_mask(|row, mask| {
            for_each_bit(mask, |i| bits[i][row >> 6] |= 1u64 << (row & 63));
        });
        bits
    }
}

/// Calls `f(i)` for every set bit `i` of `mask`, ascending.
#[inline]
fn for_each_bit(mask: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in mask.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            f((wi << 6) | w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Sets bit `i` of entry `e`.
fn set_bit(entries: &mut [u64], words: usize, e: usize, i: usize) {
    entries[e * words + i / 64] |= 1u64 << (i % 64);
}

/// A `Sym` column's table: entry 0 holds the unconstrained conditions,
/// and every symbol some set holds gets its own entry, starting there and
/// gaining the conditions whose set holds it. Every other code (and ranges
/// or `Empty` sets, which hold no symbol) stays on entry 0.
fn sym_table<'a>(
    rel: &'a Relation,
    id: ColId,
    constraints: &[(usize, &ValueSet)],
    missing: &[u64],
    words: usize,
) -> ColumnTable<'a> {
    let view = rel.sym_view(id).expect("Str column has a sym view");
    let mut by_code = vec![0u32; view.dict().len()];
    let mut entries = missing.to_vec();
    for &(i, set) in constraints {
        let ValueSet::Strs(syms) = set else { continue };
        for code in syms.iter().filter_map(|&s| view.code_of(s)) {
            let e = &mut by_code[code as usize];
            if *e == 0 {
                *e = (entries.len() / words) as u32;
                entries.extend_from_slice(missing);
            }
            set_bit(&mut entries, words, *e as usize, i);
        }
    }
    ColumnTable {
        cells: Cells::Sym(view, by_code),
        entries,
    }
}

/// An `Int` column's table: slots cut at every range endpoint, each slot
/// gaining the ranges that hold its start. Symbol sets and `Empty` sets
/// gain no slot.
fn int_table<'a>(
    rel: &'a Relation,
    id: ColId,
    constraints: &[(usize, &ValueSet)],
    missing: &[u64],
    words: usize,
) -> ColumnTable<'a> {
    let view = rel.int_view(id).expect("Int column has an int view");
    let ranges = || {
        constraints.iter().filter_map(|&(i, set)| match *set {
            ValueSet::IntRange { lo, hi } => Some((i, lo, hi)),
            _ => None,
        })
    };
    let mut starts = vec![i64::MIN];
    for (_, lo, hi) in ranges() {
        starts.push(lo);
        if let Some(next) = hi.checked_add(1) {
            starts.push(next);
        }
    }
    starts.sort_unstable();
    starts.dedup();
    let mut entries = missing.repeat(1 + starts.len());
    for (i, lo, hi) in ranges() {
        let first = starts.partition_point(|&s| s < lo);
        let end = starts.partition_point(|&s| s <= hi);
        for slot in first..end {
            set_bit(&mut entries, words, 1 + slot, i);
        }
    }
    ColumnTable {
        cells: Cells::Int(view, starts),
        entries,
    }
}

/// Counts every CC on `view` (combined `R1` ∧ `R2` condition) in one
/// kernel pass: the same numbers as calling
/// [`CardinalityConstraint::count_in`] per CC.
pub fn cc_counts(view: &Relation, ccs: &[CardinalityConstraint]) -> Result<Vec<u64>> {
    let combined: Vec<NormalizedCond> = ccs.iter().map(CardinalityConstraint::combined).collect();
    Ok(CcMembership::build(view, &combined)?.counts())
}

/// Sets every CC's target to its count on `view` (workloads measure their
/// targets on the ground-truth join this way), all CCs in one kernel pass.
pub fn set_targets(ccs: &mut [CardinalityConstraint], view: &Relation) -> Result<()> {
    let counts = cc_counts(view, ccs)?;
    for (cc, count) in ccs.iter_mut().zip(counts) {
        cc.target = count;
    }
    Ok(())
}

/// One clause of an `R2` condition pool mined from a step's target.
#[derive(Clone, Copy, Debug)]
pub enum PoolClause<'a> {
    /// Every distinct fully-present `(A, B)` pair, as `A = a ∧ B = b`.
    Combos(&'a str, &'a str),
    /// Every distinct `A` value, as `A = a`.
    Values(&'a str),
}

/// Mines the equality conditions of `clauses` from `target`, clause by
/// clause in the order given; within a clause, in the relation's
/// distinct-value order. Panics when a clause names a column `target`
/// lacks.
pub fn mine_pool(target: &Relation, clauses: &[PoolClause<'_>]) -> Vec<NormalizedCond> {
    let col = |name: &str| {
        target
            .schema()
            .col_id(name)
            .unwrap_or_else(|| panic!("{}.{name} exists", target.name()))
    };
    let cond = |atoms| {
        NormalizedCond::from_predicate(&Predicate::new(atoms)).expect("equality atoms normalize")
    };
    let mut out = Vec::new();
    for clause in clauses {
        match *clause {
            PoolClause::Combos(a, b) => {
                for (combo, _) in distinct_combos(target, &[col(a), col(b)]) {
                    out.push(cond(vec![Atom::eq(a, combo[0]), Atom::eq(b, combo[1])]));
                }
            }
            PoolClause::Values(a) => {
                for v in target.distinct_values(col(a)) {
                    out.push(cond(vec![Atom::eq(a, v)]));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConstraintError;
    use cextend_table::{Atom, CmpOp, ColumnDef, Predicate, Schema, Sym, TableError, Value};

    fn cond(atoms: Vec<Atom>) -> NormalizedCond {
        NormalizedCond::from_predicate(&Predicate::new(atoms)).unwrap()
    }

    fn cc_of(c: NormalizedCond) -> CardinalityConstraint {
        CardinalityConstraint::new("cc", c, NormalizedCond::always(), 0)
    }

    /// Age (Int), Rel and Area (Str), with missing cells in every column.
    fn people() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut r = Relation::new("People", schema);
        let rows: [(Option<i64>, Option<&str>, Option<&str>); 10] = [
            (Some(i64::MIN), Some("Owner"), Some("Chicago")),
            (Some(-1), Some("Owner"), None),
            (Some(0), Some("Child"), Some("NYC")),
            (Some(9), None, Some("Chicago")),
            (Some(10), Some("Spouse"), Some("NYC")),
            (Some(24), Some("Owner"), Some("Chicago")),
            (Some(25), Some("Child"), None),
            (None, Some("Owner"), Some("NYC")),
            (Some(64), Some("Spouse"), Some("Chicago")),
            (Some(i64::MAX), None, None),
        ];
        for (age, rel, area) in rows {
            r.push_row(&[
                age.map(Value::Int),
                rel.map(Value::str),
                area.map(Value::str),
            ])
            .unwrap();
        }
        r
    }

    /// The kernel's counts, bitmaps and row masks all agree with the
    /// compiled-predicate reference, CC by CC and row by row.
    fn assert_matches_count_in(rel: &Relation, ccs: &[CardinalityConstraint]) {
        let expected: Vec<u64> = ccs.iter().map(|cc| cc.count_in(rel).unwrap()).collect();
        assert_eq!(cc_counts(rel, ccs).unwrap(), expected, "counts");
        let combined: Vec<NormalizedCond> = ccs.iter().map(|cc| cc.combined()).collect();
        let kernel = CcMembership::build(rel, &combined).unwrap();
        assert_eq!(kernel.words(), ccs.len().div_ceil(64));
        let bits = kernel.bitmaps();
        let mut mask = vec![0u64; kernel.words()];
        for (i, cc) in ccs.iter().enumerate() {
            let selected = cc.predicate().select(rel).unwrap();
            let from_bits: Vec<RowId> = rel
                .rows()
                .filter(|&r| bits[i][r >> 6] >> (r & 63) & 1 == 1)
                .collect();
            assert_eq!(selected, from_bits, "bitmap of {cc}");
        }
        for row in rel.rows() {
            kernel.row_mask(row, &mut mask);
            for (i, b) in bits.iter().enumerate() {
                assert_eq!(
                    mask[i / 64] >> (i % 64) & 1,
                    b[row >> 6] >> (row & 63) & 1,
                    "row {row}, condition {i}"
                );
            }
            // No bit past the last condition is ever set.
            if !ccs.len().is_multiple_of(64) {
                assert_eq!(mask[ccs.len() / 64] >> (ccs.len() % 64), 0);
            }
        }
    }

    #[test]
    fn missing_cells_fail_only_the_conditions_on_their_column() {
        let r = people();
        assert_matches_count_in(
            &r,
            &[
                cc_of(cond(vec![Atom::eq("Rel", "Owner")])),
                cc_of(cond(vec![Atom::cmp("Age", CmpOp::Ge, 0)])),
                cc_of(cond(vec![
                    Atom::eq("Rel", "Owner"),
                    Atom::eq("Area", Value::str("NYC")),
                ])),
                cc_of(cond(vec![Atom::eq("Area", Value::str("Chicago"))])),
            ],
        );
    }

    #[test]
    fn int_cells_below_between_and_above_every_cut() {
        let r = people();
        let ranges = [(0, 9), (10, 24), (9, 10), (25, 25), (-1, 64), (65, 100)];
        let ccs: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| cc_of(cond(vec![Atom::in_range("Age", lo, hi)])))
            .collect();
        assert_matches_count_in(&r, &ccs);
        // One condition per cut neighbourhood, on a relation with a cell on
        // each side of every endpoint.
        let schema = Schema::new(vec![ColumnDef::attr("Age", Dtype::Int)]).unwrap();
        let mut dense = Relation::new("Dense", schema);
        for x in -3..=103 {
            dense.push_full_row(&[Value::Int(x)]).unwrap();
        }
        assert_matches_count_in(&dense, &ccs);
    }

    #[test]
    fn ranges_open_at_either_end_of_the_i64_domain() {
        let r = people();
        assert_matches_count_in(
            &r,
            &[
                cc_of(cond(vec![Atom::cmp("Age", CmpOp::Ge, 24)])), // [24, MAX]
                cc_of(cond(vec![Atom::cmp("Age", CmpOp::Le, 9)])),  // [MIN, 9]
                cc_of(cond(vec![Atom::cmp("Age", CmpOp::Le, i64::MAX)])),
                cc_of(cond(vec![Atom::cmp("Age", CmpOp::Ge, i64::MIN)])),
                cc_of(cond(vec![Atom::eq("Age", i64::MAX)])),
                cc_of(cond(vec![Atom::eq("Age", i64::MIN)])),
            ],
        );
    }

    #[test]
    fn set_targets_writes_each_count_as_the_target() {
        let r = people();
        let mut ccs = vec![
            cc_of(cond(vec![Atom::eq("Rel", "Owner")])),
            cc_of(cond(vec![Atom::cmp("Age", CmpOp::Ge, 0)])),
        ];
        set_targets(&mut ccs, &r).unwrap();
        let targets: Vec<u64> = ccs.iter().map(|cc| cc.target).collect();
        assert_eq!(targets, cc_counts(&r, &ccs).unwrap());
    }

    #[test]
    fn symbols_absent_from_the_dictionary_match_nothing() {
        let r = people();
        let ghost = cc_of(cond(vec![Atom::eq("Rel", "Ghost")]));
        assert_eq!(cc_counts(&r, std::slice::from_ref(&ghost)).unwrap(), [0]);
        assert_matches_count_in(&r, &[ghost, cc_of(cond(vec![Atom::eq("Rel", "Child")]))]);
    }

    #[test]
    fn empty_sets_match_nothing_and_the_empty_condition_everything() {
        let r = people();
        let contradiction = cond(vec![
            Atom::cmp("Age", CmpOp::Ge, 30),
            Atom::cmp("Age", CmpOp::Le, 20),
        ]);
        assert!(contradiction.is_unsatisfiable());
        let sym_empty = NormalizedCond::from_sets([("Rel".to_owned(), ValueSet::Empty)]);
        let ccs = [
            cc_of(contradiction),
            cc_of(sym_empty),
            cc_of(NormalizedCond::always()),
        ];
        assert_eq!(cc_counts(&r, &ccs).unwrap(), [0, 0, r.n_rows() as u64]);
        assert_matches_count_in(&r, &ccs);
    }

    #[test]
    fn type_mismatched_sets_match_no_row() {
        let r = people();
        let sym_on_int =
            NormalizedCond::from_sets([("Age".to_owned(), ValueSet::sym(Sym::intern("Owner")))]);
        let range_on_sym = cond(vec![Atom::in_range("Rel", 0, 100)]);
        let int_eq_on_sym = cond(vec![Atom::eq("Area", 3i64)]);
        let ccs = [cc_of(sym_on_int), cc_of(range_on_sym), cc_of(int_eq_on_sym)];
        assert_eq!(cc_counts(&r, &ccs).unwrap(), [0, 0, 0]);
        assert_matches_count_in(&r, &ccs);
    }

    /// `n` distinct conditions mixing columns, so every mask word carries
    /// a different pattern.
    fn many(n: usize) -> Vec<CardinalityConstraint> {
        let rels = ["Owner", "Child", "Spouse"];
        (0..n)
            .map(|i| {
                let lo = (i % 13) as i64 - 2;
                let mut atoms = vec![Atom::in_range("Age", lo, lo + (i % 29) as i64)];
                if i % 3 != 0 {
                    atoms.push(Atom::eq("Rel", rels[i % 3]));
                }
                if i % 5 == 0 {
                    atoms.push(Atom::eq("Area", Value::str("Chicago")));
                }
                cc_of(cond(atoms))
            })
            .collect()
    }

    #[test]
    fn word_boundaries() {
        let r = people();
        for n in [63, 64, 65, 128] {
            assert_matches_count_in(&r, &many(n));
        }
    }

    #[test]
    fn zero_rows_and_zero_conditions() {
        let empty = Relation::new("Empty", people().schema().clone());
        assert_matches_count_in(&empty, &many(70));
        let kernel = CcMembership::build(&empty, &[cond(vec![Atom::eq("Rel", "Owner")])]).unwrap();
        assert_eq!(kernel.counts(), [0]);
        assert_eq!(kernel.bitmaps(), [Vec::<u64>::new()]);
        let r = people();
        let none = CcMembership::build(&r, std::iter::empty()).unwrap();
        assert_eq!(none.words(), 0);
        assert!(none.counts().is_empty());
    }

    #[test]
    fn unknown_column_fails_like_count_in() {
        let r = people();
        let ccs = [
            cc_of(cond(vec![Atom::eq("Rel", "Owner")])),
            cc_of(cond(vec![Atom::eq("Nope", 1i64), Atom::eq("Rel", "Owner")])),
            cc_of(cond(vec![Atom::eq("Other", 1i64)])),
        ];
        let reference = ccs
            .iter()
            .map(|cc| cc.count_in(&r))
            .collect::<Result<Vec<_>>>()
            .unwrap_err();
        let kernel = cc_counts(&r, &ccs).unwrap_err();
        assert_eq!(kernel.to_string(), reference.to_string());
        assert!(matches!(
            kernel,
            ConstraintError::Table(TableError::UnknownColumn { ref column, .. }) if column == "Nope"
        ));
    }

    #[test]
    fn multi_symbol_sets_follow_contains() {
        // Only the kernel sees multi-symbol sets (predicates cannot express
        // them), so the reference here is `ValueSet::contains` per row.
        let r = people();
        let set = ValueSet::syms([Sym::intern("Owner"), Sym::intern("Child")]);
        let c = NormalizedCond::from_sets([("Rel".to_owned(), set.clone())]);
        let rel = r.schema().col_id("Rel").unwrap();
        let expected = r
            .rows()
            .filter(|&row| r.get(row, rel).is_some_and(|v| set.contains(v)))
            .count() as u64;
        assert_eq!(CcMembership::build(&r, [&c]).unwrap().counts(), [expected]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cextend_table::{Atom, CmpOp, ColumnDef, Predicate, Schema, Value};
    use proptest::prelude::*;

    /// SplitMix64 draws for building one random case from a seed.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn int(&mut self) -> i64 {
            match self.below(10) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => self.below(21) as i64 - 10,
            }
        }
    }

    const SYMS: [&str; 4] = ["a", "b", "c", "d"];

    fn relation(d: &mut Draws) -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::attr("X", Dtype::Int),
            ColumnDef::attr("Y", Dtype::Int),
            ColumnDef::attr("S", Dtype::Str),
        ])
        .unwrap();
        let mut r = Relation::new("R", schema);
        for _ in 0..d.below(150) {
            let x = (d.below(6) != 0).then(|| Value::Int(d.int()));
            let y = (d.below(6) != 0).then(|| Value::Int(d.int()));
            // "d" never lands in the column: the absent-symbol case.
            let s = (d.below(6) != 0).then(|| Value::str(SYMS[d.below(3) as usize]));
            r.push_row(&[x, y, s]).unwrap();
        }
        r
    }

    fn atom(d: &mut Draws) -> Atom {
        let int_col = if d.below(2) == 0 { "X" } else { "Y" };
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        match d.below(8) {
            0..=2 => Atom::cmp(int_col, ops[d.below(5) as usize], d.int()),
            3 | 4 => {
                let (a, b) = (d.int(), d.int());
                Atom::in_range(int_col, a.min(b), a.max(b))
            }
            5 => Atom::eq("S", SYMS[d.below(4) as usize]),
            // Type mismatches: a symbol on an Int column, an int on Str.
            6 => Atom::eq(int_col, SYMS[d.below(4) as usize]),
            _ => Atom::eq("S", d.int()),
        }
    }

    fn ccs(d: &mut Draws) -> Vec<CardinalityConstraint> {
        (0..d.below(140))
            .map(|_| {
                let atoms = (0..d.below(4)).map(|_| atom(d)).collect();
                let r1 = NormalizedCond::from_predicate(&Predicate::new(atoms)).unwrap();
                CardinalityConstraint::new("cc", r1, NormalizedCond::always(), 0)
            })
            .collect()
    }

    proptest! {
        #[test]
        fn kernel_counts_and_bitmaps_match_count_in(seed in 0u64..u64::MAX) {
            let mut d = Draws(seed);
            let rel = relation(&mut d);
            let ccs = ccs(&mut d);
            let expected: Vec<u64> = ccs.iter().map(|cc| cc.count_in(&rel).unwrap()).collect();
            prop_assert_eq!(cc_counts(&rel, &ccs).unwrap(), expected);
            let combined: Vec<NormalizedCond> = ccs.iter().map(|cc| cc.combined()).collect();
            let bits = CcMembership::build(&rel, &combined).unwrap().bitmaps();
            for (cc, b) in ccs.iter().zip(&bits) {
                let selected = cc.predicate().select(&rel).unwrap();
                let from_bits: Vec<RowId> = rel
                    .rows()
                    .filter(|&r| b[r >> 6] >> (r & 63) & 1 == 1)
                    .collect();
                prop_assert_eq!(selected, from_bits);
            }
        }
    }
}
