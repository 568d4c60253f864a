//! Intervalization and binning (Section 4.1 of the paper, after [5]).
//!
//! Creating one ILP variable per raw value combination would blow up the
//! program, so numeric domains are split at the endpoints of the intervals
//! appearing in the CCs. By construction every CC range is then a union of
//! whole intervals, so "does this bin count toward this CC" is decidable per
//! bin. A *bin* is a combination of (interval index | categorical value)
//! over the binned columns; only combinations actually present in `R1` are
//! materialized (the paper's "binning the distinct (A1..Ap) values in R1").

use crate::cc::{CardinalityConstraint, NormalizedCond};
use crate::error::{ConstraintError, Result};
use cextend_table::{ColId, Relation, RowId, Schema, Value, ValueSet};
use std::collections::BTreeMap;

/// Disjoint covering intervals per numeric column.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnIntervals {
    map: BTreeMap<String, Vec<(i64, i64)>>,
}

impl ColumnIntervals {
    /// Builds intervals for each numeric column listed in `domains`
    /// (column → inclusive active range), cutting at the endpoints of every
    /// interval the CCs impose on that column (both `R1` and `R2` sides).
    pub fn build(
        ccs: &[CardinalityConstraint],
        domains: &BTreeMap<String, (i64, i64)>,
    ) -> ColumnIntervals {
        let mut map = BTreeMap::new();
        for (col, &(dmin, dmax)) in domains {
            let mut cuts: Vec<i64> = vec![dmin];
            let mut note = |set: &ValueSet| {
                if let ValueSet::IntRange { lo, hi } = set {
                    if *lo > dmin && *lo <= dmax {
                        cuts.push(*lo);
                    }
                    if let Some(next) = hi.checked_add(1) {
                        if next > dmin && next <= dmax {
                            cuts.push(next);
                        }
                    }
                }
            };
            for cc in ccs {
                if let Some(set) = cc.r1.get(col) {
                    note(set);
                }
                if let Some(set) = cc.r2.get(col) {
                    note(set);
                }
            }
            cuts.sort_unstable();
            cuts.dedup();
            let mut intervals = Vec::with_capacity(cuts.len());
            for (i, &start) in cuts.iter().enumerate() {
                let end = if i + 1 < cuts.len() {
                    cuts[i + 1] - 1
                } else {
                    dmax
                };
                intervals.push((start, end));
            }
            map.insert(col.clone(), intervals);
        }
        ColumnIntervals { map }
    }

    /// The intervals of `col`, sorted ascending, if it was intervalized.
    pub fn intervals(&self, col: &str) -> Option<&[(i64, i64)]> {
        self.map.get(col).map(|v| v.as_slice())
    }

    /// Index of the interval containing `v`, if any.
    pub fn interval_index(&self, col: &str, v: i64) -> Option<usize> {
        let ivs = self.map.get(col)?;
        match ivs.binary_search_by(|&(lo, _)| lo.cmp(&v)) {
            Ok(i) => Some(i),
            Err(0) => None, // below the first interval
            Err(i) => {
                let (_, hi) = ivs[i - 1];
                (v <= hi).then_some(i - 1)
            }
        }
    }

    /// The columns that were intervalized.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(|s| s.as_str())
    }
}

/// One dimension of a bin key.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum BinDim {
    /// Index into the column's interval list.
    Interval(u32),
    /// A categorical (or un-intervalized) value.
    Val(Value),
}

/// A bin: one [`BinDim`] per binned column, in binning column order.
pub type BinKey = Vec<BinDim>;

/// A binning of rows over a fixed list of columns.
#[derive(Clone, Debug)]
pub struct Binning {
    cols: Vec<String>,
    intervals: ColumnIntervals,
}

impl Binning {
    /// Creates a binning over `cols`; numeric columns present in
    /// `intervals` are interval-binned, all others are binned by value.
    pub fn new(cols: Vec<String>, intervals: ColumnIntervals) -> Binning {
        Binning { cols, intervals }
    }

    /// The binned columns in order.
    pub fn columns(&self) -> &[String] {
        &self.cols
    }

    /// The underlying interval table.
    pub fn intervals(&self) -> &ColumnIntervals {
        &self.intervals
    }

    /// Resolves the binned columns against a schema.
    pub fn bind(&self, schema: &Schema, relation: &str) -> Result<BoundBinning<'_>> {
        let cols = self
            .cols
            .iter()
            .map(|c| Ok((schema.require(c, relation)?, self.intervals.intervals(c))))
            .collect::<Result<Vec<_>>>()?;
        Ok(BoundBinning {
            binning: self,
            cols,
        })
    }

    /// `true` iff every row of `bin` satisfies `cond`. Because interval cuts
    /// include every CC endpoint, each interval lies entirely inside or
    /// outside any CC range built from the *same* interval table; membership
    /// is tested at the interval's start.
    ///
    /// Returns an error if `cond` constrains a column outside this binning.
    pub fn bin_satisfies(&self, bin: &BinKey, cond: &NormalizedCond) -> Result<bool> {
        for (col, set) in cond.iter() {
            let pos = self
                .cols
                .iter()
                .position(|c| c == col)
                .ok_or_else(|| ConstraintError::UnknownColumn(col.to_owned()))?;
            let ok = match &bin[pos] {
                BinDim::Interval(idx) => {
                    let ivs = self
                        .intervals
                        .intervals(col)
                        .ok_or_else(|| ConstraintError::UnknownColumn(col.to_owned()))?;
                    let (lo, _) = ivs[*idx as usize];
                    set.contains(Value::Int(lo))
                }
                BinDim::Val(v) => set.contains(*v),
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// One bound column: its id plus its interval table, if intervalized.
type BoundCol<'a> = (ColId, Option<&'a [(i64, i64)]>);

/// A binning bound to a schema for fast row classification.
pub struct BoundBinning<'a> {
    binning: &'a Binning,
    cols: Vec<BoundCol<'a>>,
}

impl BoundBinning<'_> {
    /// The bin of a row; `None` if any binned cell is missing or a numeric
    /// value falls outside the interval table (cannot happen for rows the
    /// table was built from).
    pub fn bin_of_row(&self, rel: &Relation, row: RowId) -> Option<BinKey> {
        let mut key = Vec::with_capacity(self.cols.len());
        for &(col, ivs) in &self.cols {
            let v = rel.get(row, col)?;
            let dim = match (ivs, v) {
                (Some(_), Value::Int(x)) => {
                    let col_name = &self.binning.cols[key.len()];
                    BinDim::Interval(self.binning.intervals.interval_index(col_name, x)? as u32)
                }
                _ => BinDim::Val(v),
            };
            key.push(dim);
        }
        Some(key)
    }
}

/// Reads the active `[min, max]` ranges of the given integer columns.
/// Columns with no present values are skipped.
pub fn domain_ranges(rel: &Relation, cols: &[&str]) -> Result<BTreeMap<String, (i64, i64)>> {
    let mut out = BTreeMap::new();
    for &c in cols {
        let id = rel.schema().require(c, rel.name())?;
        if let Some(r) = rel.int_range(id) {
            out.insert(c.to_owned(), r);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cextend_table::{Atom, ColumnDef, Dtype, Predicate, Schema};

    fn cc(lo: i64, hi: i64) -> CardinalityConstraint {
        CardinalityConstraint::new(
            "cc",
            NormalizedCond::from_predicate(&Predicate::new(vec![Atom::in_range("Age", lo, hi)]))
                .unwrap(),
            NormalizedCond::always(),
            1,
        )
    }

    #[test]
    fn example_4_1_intervalization() {
        // CC3 uses Age ≤ 24 over domain [0,114]: split into [0,24], [25,114].
        let le24 = CardinalityConstraint::new(
            "CC3",
            NormalizedCond::from_predicate(&Predicate::new(vec![Atom::cmp(
                "Age",
                cextend_table::CmpOp::Le,
                24,
            )]))
            .unwrap(),
            NormalizedCond::always(),
            3,
        );
        let mut domains = BTreeMap::new();
        domains.insert("Age".to_owned(), (0, 114));
        let ivs = ColumnIntervals::build(&[le24], &domains);
        assert_eq!(ivs.intervals("Age").unwrap(), &[(0, 24), (25, 114)]);
        assert_eq!(ivs.interval_index("Age", 24), Some(0));
        assert_eq!(ivs.interval_index("Age", 25), Some(1));
        assert_eq!(ivs.interval_index("Age", 114), Some(1));
        assert_eq!(ivs.interval_index("Age", 115), None);
        assert_eq!(ivs.interval_index("Age", -1), None);
    }

    #[test]
    fn overlapping_ranges_cut_finely() {
        let mut domains = BTreeMap::new();
        domains.insert("Age".to_owned(), (0, 100));
        let ivs = ColumnIntervals::build(&[cc(10, 49), cc(30, 70)], &domains);
        assert_eq!(
            ivs.intervals("Age").unwrap(),
            &[(0, 9), (10, 29), (30, 49), (50, 70), (71, 100)]
        );
    }

    #[test]
    fn every_cc_range_is_a_union_of_intervals() {
        let ccs = vec![cc(10, 49), cc(30, 70), cc(5, 5)];
        let mut domains = BTreeMap::new();
        domains.insert("Age".to_owned(), (0, 100));
        let ivs = ColumnIntervals::build(&ccs, &domains);
        for c in &ccs {
            let set = c.r1.get("Age").unwrap();
            for &(lo, hi) in ivs.intervals("Age").unwrap() {
                // Interval entirely inside or entirely outside the range.
                let inside = set.contains(Value::Int(lo));
                assert_eq!(
                    inside,
                    set.contains(Value::Int(hi)),
                    "interval split a CC range"
                );
            }
        }
    }

    fn persons() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
        ])
        .unwrap();
        let mut r = Relation::new("Persons", schema);
        for (age, rl) in [(75, "Owner"), (25, "Owner"), (24, "Spouse"), (10, "Child")] {
            r.push_full_row(&[Value::Int(age), Value::str(rl)]).unwrap();
        }
        r
    }

    #[test]
    fn binning_rows() {
        let r = persons();
        let mut domains = BTreeMap::new();
        domains.insert("Age".to_owned(), (10, 75));
        let ivs = ColumnIntervals::build(&[cc(10, 24)], &domains);
        let binning = Binning::new(vec!["Age".into(), "Rel".into()], ivs);
        let bound = binning.bind(r.schema(), "Persons").unwrap();
        // Ages [10,24] and [25,75].
        assert_eq!(
            bound.bin_of_row(&r, 0).unwrap(),
            vec![BinDim::Interval(1), BinDim::Val(Value::str("Owner"))]
        );
        assert_eq!(
            bound.bin_of_row(&r, 2).unwrap(),
            vec![BinDim::Interval(0), BinDim::Val(Value::str("Spouse"))]
        );
    }

    #[test]
    fn bin_satisfies_tests_the_interval_start() {
        let mut domains = BTreeMap::new();
        domains.insert("Age".to_owned(), (0, 100));
        let the_cc = cc(10, 49);
        let ivs = ColumnIntervals::build(std::slice::from_ref(&the_cc), &domains);
        let binning = Binning::new(vec!["Age".into(), "Rel".into()], ivs);
        let bin = vec![BinDim::Interval(1), BinDim::Val(Value::str("Owner"))]; // Age [10,49]
        assert!(binning.bin_satisfies(&bin, &the_cc.r1).unwrap());
        let outside = vec![BinDim::Interval(0), BinDim::Val(Value::str("Owner"))]; // [0,9]
        assert!(!binning.bin_satisfies(&outside, &the_cc.r1).unwrap());
    }

    #[test]
    fn bin_satisfies_unknown_column_errors() {
        let binning = Binning::new(vec!["Age".into()], ColumnIntervals::default());
        let cond = NormalizedCond::from_predicate(&Predicate::new(vec![Atom::eq(
            "Area",
            Value::str("x"),
        )]))
        .unwrap();
        assert!(binning
            .bin_satisfies(&vec![BinDim::Val(Value::Int(5))], &cond)
            .is_err());
    }

    #[test]
    fn missing_cells_produce_no_bin() {
        let schema = Schema::new(vec![ColumnDef::attr("Age", Dtype::Int)]).unwrap();
        let mut r = Relation::new("t", schema);
        r.push_row(&[None]).unwrap();
        let binning = Binning::new(vec!["Age".into()], ColumnIntervals::default());
        let bound = binning.bind(r.schema(), "t").unwrap();
        assert_eq!(bound.bin_of_row(&r, 0), None);
    }

    #[test]
    fn domain_ranges_skip_empty_columns() {
        let r = persons();
        let d = domain_ranges(&r, &["Age"]).unwrap();
        assert_eq!(d["Age"], (10, 75));
        assert!(domain_ranges(&r, &["nope"]).is_err());
    }
}
