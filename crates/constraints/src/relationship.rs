//! CC relationship classification (Definitions 4.2–4.4 of the paper).
//!
//! Two CCs are **disjoint** if their `R1` conditions cannot both hold, or if
//! their `R1` conditions are identical and their `R2` conditions cannot both
//! hold. One **contains** the other if its combined condition implies the
//! other's (superset of columns, subset of values per shared column). CCs
//! that are neither disjoint nor comparable are **intersecting** — the case
//! that forces the ILP path in the hybrid solver.
//!
//! [`classify`] decides one pair from the [`NormalizedCond`]s themselves.
//! [`RelationshipMatrix::build`] decides every pair of a CC list from a
//! *compiled* copy of the list instead, built once per call:
//!
//! - each column any condition names gets a dense id, and each symbol a
//!   code per column (no limit on symbols per column);
//! - each CC's `R1`, `R2` and combined conditions become one code per
//!   column id: a range, a symbol code, an interned sorted code list,
//!   `Empty`, or unconstrained, plus a flag per side that holds an empty
//!   set. Interning makes equal sets equal codes;
//! - per CC, a bitset of the CCs whose `R1` condition overlaps its own is
//!   the word-wise AND, over its constrained columns, of one bitset per
//!   distinct `(column, code)`. Every other pair is `Disjoint`
//!   (Definition 4.2) without being visited.
//!
//! Only the overlapping pairs run the full test sequence, on integers: no
//! allocation, no string comparison. The result equals [`classify`] on
//! every ordered pair; `classify` stays the reference the tests, the spec
//! fuzzer and the `classification` bench compare the matrix with.

use crate::cc::{CardinalityConstraint, NormalizedCond};
use cextend_table::{Sym, ValueSet};
use std::collections::HashMap;
use std::fmt;

/// Relationship between an ordered pair of CCs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CcRelationship {
    /// No tuple can count toward both (Definition 4.2).
    Disjoint,
    /// The conditions are identical (both contain each other). Targets may
    /// still differ; callers decide whether that is a duplicate or a
    /// contradiction.
    Equal,
    /// The first CC's condition is strictly contained in the second's
    /// (Definition 4.3): every tuple counting toward the first also counts
    /// toward the second.
    ContainedIn,
    /// The first CC's condition strictly contains the second's.
    Contains,
    /// Overlapping but incomparable conditions (Definition 4.4).
    Intersecting,
}

impl CcRelationship {
    /// The relationship seen from the other side of the pair.
    pub fn flipped(self) -> CcRelationship {
        match self {
            CcRelationship::ContainedIn => CcRelationship::Contains,
            CcRelationship::Contains => CcRelationship::ContainedIn,
            other => other,
        }
    }
}

impl fmt::Display for CcRelationship {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CcRelationship::Disjoint => "disjoint",
            CcRelationship::Equal => "equal",
            CcRelationship::ContainedIn => "contained-in",
            CcRelationship::Contains => "contains",
            CcRelationship::Intersecting => "intersecting",
        })
    }
}

/// Classifies the ordered pair `(a, b)`.
pub fn classify(a: &CardinalityConstraint, b: &CardinalityConstraint) -> CcRelationship {
    // Definition 4.2: disjoint R1 conditions, or identical R1 conditions
    // with disjoint R2 conditions.
    if a.r1.disjoint_with(&b.r1) {
        return CcRelationship::Disjoint;
    }
    if a.r1.same_condition(&b.r1) && a.r2.disjoint_with(&b.r2) {
        return CcRelationship::Disjoint;
    }
    let (ca, cb) = (a.combined(), b.combined());
    let a_in_b = ca.implies(&cb);
    let b_in_a = cb.implies(&ca);
    match (a_in_b, b_in_a) {
        (true, true) => CcRelationship::Equal,
        (true, false) => CcRelationship::ContainedIn,
        (false, true) => CcRelationship::Contains,
        (false, false) => CcRelationship::Intersecting,
    }
}

/// Pairwise relationship matrix; entry `[i][j]` describes `(ccs[i], ccs[j])`.
/// The diagonal is `Equal`.
#[derive(Clone, Debug)]
pub struct RelationshipMatrix {
    n: usize,
    entries: Vec<CcRelationship>,
}

impl RelationshipMatrix {
    /// Classifies every pair: compiles `ccs` once (see the module docs),
    /// finds each CC's `R1`-overlapping CCs with word-wise bitset ANDs, and
    /// classifies only those pairs; every other pair is `Disjoint`. Entry
    /// `[i][j]` equals `classify(&ccs[i], &ccs[j])` for `i ≠ j`.
    pub fn build(ccs: &[CardinalityConstraint]) -> RelationshipMatrix {
        let compiled = CompiledCcs::new(ccs);
        let n = ccs.len();
        let words = n.div_ceil(64);
        let overlaps = compiled.r1_overlaps();
        let mut entries = vec![CcRelationship::Disjoint; n * n];
        for i in 0..n {
            entries[i * n + i] = CcRelationship::Equal;
            for j in ones(&overlaps[i * words..(i + 1) * words]).filter(|&j| j > i) {
                let rel = compiled.classify(i, j);
                entries[i * n + j] = rel;
                entries[j * n + i] = rel.flipped();
            }
        }
        RelationshipMatrix { n, entries }
    }

    /// Number of CCs.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Relationship of the ordered pair `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> CcRelationship {
        self.entries[i * self.n + j]
    }

    /// `true` if CC `i` intersects any other CC.
    pub fn intersects_any(&self, i: usize) -> bool {
        (0..self.n).any(|j| j != i && self.get(i, j) == CcRelationship::Intersecting)
    }

    /// Indices of CCs that intersect at least one other CC.
    pub fn intersecting_ccs(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| self.intersects_any(i)).collect()
    }
}

/// One column of one condition in code space. Equal [`ValueSet`]s on a
/// column encode to equal codes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Code {
    /// The column is unconstrained.
    Any,
    /// [`ValueSet::Empty`].
    Empty,
    /// [`ValueSet::IntRange`], bounds as stored.
    Range(i64, i64),
    /// A one-symbol [`ValueSet::Strs`]: the symbol's code.
    Sym(u32),
    /// Any other [`ValueSet::Strs`]: the id of its sorted code list.
    Syms(u32),
}

/// A CC list compiled for pairwise classification (see the module docs).
struct CompiledCcs {
    n_cols: usize,
    /// `lists[col][id]`: the sorted code list `Code::Syms(id)` names.
    lists: Vec<Vec<Vec<u32>>>,
    /// `n_cols` codes per CC, CC-major: its `R1`, `R2` and combined
    /// conditions.
    r1: Vec<Code>,
    r2: Vec<Code>,
    combined: Vec<Code>,
    /// CC `i`'s `R1` (`R2`) condition holds an empty set.
    r1_unsat: Vec<bool>,
    r2_unsat: Vec<bool>,
}

/// Column, symbol and code-list dictionaries filled while compiling.
#[derive(Default)]
struct Dictionaries<'a> {
    cols: HashMap<&'a str, usize>,
    syms: Vec<HashMap<Sym, u32>>,
    list_ids: Vec<HashMap<Vec<u32>, u32>>,
    lists: Vec<Vec<Vec<u32>>>,
}

impl Dictionaries<'_> {
    fn encode_set(&mut self, col: usize, set: &ValueSet) -> Code {
        match set {
            ValueSet::Empty => Code::Empty,
            ValueSet::IntRange { lo, hi } => Code::Range(*lo, *hi),
            ValueSet::Strs(set) => {
                let dict = &mut self.syms[col];
                let mut codes: Vec<u32> = set
                    .iter()
                    .map(|&s| {
                        let next = dict.len() as u32;
                        *dict.entry(s).or_insert(next)
                    })
                    .collect();
                if let [code] = codes[..] {
                    return Code::Sym(code);
                }
                codes.sort_unstable();
                let lists = &mut self.lists[col];
                let id = *self.list_ids[col].entry(codes).or_insert_with_key(|codes| {
                    lists.push(codes.clone());
                    (lists.len() - 1) as u32
                });
                Code::Syms(id)
            }
        }
    }

    /// Appends `cond`'s codes, one per column id, to `out`.
    fn encode(&mut self, cond: &NormalizedCond, out: &mut Vec<Code>) {
        let start = out.len();
        out.resize(start + self.cols.len(), Code::Any);
        for (col, set) in cond.iter() {
            let id = self.cols[col];
            out[start + id] = self.encode_set(id, set);
        }
    }
}

impl CompiledCcs {
    fn new(ccs: &[CardinalityConstraint]) -> CompiledCcs {
        let mut dicts = Dictionaries::default();
        let mut names: Vec<&str> = Vec::new();
        for cc in ccs {
            for col in cc.r1.columns().chain(cc.r2.columns()) {
                dicts.cols.entry(col).or_insert_with(|| {
                    names.push(col);
                    names.len() - 1
                });
            }
        }
        let n_cols = names.len();
        dicts.syms = vec![HashMap::new(); n_cols];
        dicts.list_ids = vec![HashMap::new(); n_cols];
        dicts.lists = vec![Vec::new(); n_cols];
        let mut compiled = CompiledCcs {
            n_cols,
            lists: Vec::new(),
            r1: Vec::with_capacity(ccs.len() * n_cols),
            r2: Vec::with_capacity(ccs.len() * n_cols),
            combined: Vec::with_capacity(ccs.len() * n_cols),
            r1_unsat: ccs.iter().map(|cc| cc.r1.is_unsatisfiable()).collect(),
            r2_unsat: ccs.iter().map(|cc| cc.r2.is_unsatisfiable()).collect(),
        };
        for (i, cc) in ccs.iter().enumerate() {
            dicts.encode(&cc.r1, &mut compiled.r1);
            dicts.encode(&cc.r2, &mut compiled.r2);
            // The combined condition: a column either side leaves free
            // takes the other side's code; one both constrain takes the
            // intersection, as `CardinalityConstraint::combined` does.
            for (col, name) in names.iter().enumerate() {
                let at = i * n_cols + col;
                let code = match (compiled.r1[at], compiled.r2[at]) {
                    (Code::Any, code) | (code, Code::Any) => code,
                    _ => {
                        let (a, b) = (cc.r1.get(name), cc.r2.get(name));
                        let both = a.zip(b).expect("both sides constrain the column");
                        dicts.encode_set(col, &both.0.intersect(both.1))
                    }
                };
                compiled.combined.push(code);
            }
        }
        compiled.lists = dicts.lists;
        compiled
    }

    /// CC `i`'s codes in `side`.
    #[inline]
    fn row<'s>(&self, side: &'s [Code], i: usize) -> &'s [Code] {
        &side[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// The sorted codes of a symbol-set code; `None` for other codes.
    #[inline]
    fn codes<'s>(&'s self, col: usize, code: &'s Code) -> Option<&'s [u32]> {
        match code {
            Code::Sym(c) => Some(std::slice::from_ref(c)),
            Code::Syms(id) => Some(&self.lists[col][*id as usize]),
            _ => None,
        }
    }

    /// [`ValueSet::is_disjoint`] on two constrained codes of `col`.
    #[inline]
    fn set_disjoint(&self, col: usize, a: &Code, b: &Code) -> bool {
        match (a, b) {
            (Code::Range(a_lo, a_hi), Code::Range(b_lo, b_hi)) => {
                (*a_lo).max(*b_lo) > (*a_hi).min(*b_hi)
            }
            (Code::Sym(x), Code::Sym(y)) => x != y,
            _ => match (self.codes(col, a), self.codes(col, b)) {
                (Some(x), Some(y)) => sorted_disjoint(x, y),
                _ => true,
            },
        }
    }

    /// [`ValueSet::is_subset`] (`a ⊆ b`) on two constrained codes of `col`.
    #[inline]
    fn set_subset(&self, col: usize, a: &Code, b: &Code) -> bool {
        match (a, b) {
            (Code::Empty, _) => true,
            (_, Code::Empty) => false,
            (Code::Range(a_lo, a_hi), Code::Range(b_lo, b_hi)) => b_lo <= a_lo && a_hi <= b_hi,
            (Code::Sym(x), Code::Sym(y)) => x == y,
            _ => match (self.codes(col, a), self.codes(col, b)) {
                (Some(x), Some(y)) => sorted_subset(x, y),
                _ => false,
            },
        }
    }

    /// [`NormalizedCond::disjoint_with`] on CC `a`'s and CC `b`'s `side`.
    #[inline]
    fn side_disjoint(&self, side: &[Code], unsat: &[bool], a: usize, b: usize) -> bool {
        if unsat[a] || unsat[b] {
            return true;
        }
        let (ra, rb) = (self.row(side, a), self.row(side, b));
        (0..self.n_cols).any(|col| {
            ra[col] != Code::Any
                && rb[col] != Code::Any
                && self.set_disjoint(col, &ra[col], &rb[col])
        })
    }

    /// [`NormalizedCond::implies`] on CC `a`'s and CC `b`'s combined
    /// conditions.
    #[inline]
    fn implies(&self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.row(&self.combined, a), self.row(&self.combined, b));
        (0..self.n_cols).all(|col| {
            rb[col] == Code::Any
                || (ra[col] != Code::Any && self.set_subset(col, &ra[col], &rb[col]))
        })
    }

    /// Per CC, the CCs whose `R1` condition is not disjoint from its own,
    /// as `n.div_ceil(64)` bitset words: the satisfiable CCs, ANDed for
    /// each column the condition constrains with the CCs that leave the
    /// column free or hold a set not disjoint from its set. That bitset is
    /// built once per distinct `(column, code)`. An unsatisfiable
    /// condition overlaps nothing.
    fn r1_overlaps(&self) -> Vec<u64> {
        let n = self.r1_unsat.len();
        let words = n.div_ceil(64);
        let bitset = |member: &dyn Fn(usize) -> bool| {
            let mut set = vec![0u64; words];
            for j in (0..n).filter(|&j| member(j)) {
                set[j / 64] |= 1u64 << (j % 64);
            }
            set
        };
        let satisfiable = bitset(&|j| !self.r1_unsat[j]);
        let mut compatible: HashMap<(usize, Code), Vec<u64>> = HashMap::new();
        let mut out = vec![0u64; n * words];
        for i in (0..n).filter(|&i| !self.r1_unsat[i]) {
            let acc = &mut out[i * words..(i + 1) * words];
            acc.copy_from_slice(&satisfiable);
            for (col, code) in self.row(&self.r1, i).iter().enumerate() {
                if *code == Code::Any {
                    continue;
                }
                let set = compatible.entry((col, *code)).or_insert_with(|| {
                    bitset(&|j| {
                        let other = &self.r1[j * self.n_cols + col];
                        *other == Code::Any || !self.set_disjoint(col, code, other)
                    })
                });
                for (a, s) in acc.iter_mut().zip(set.iter()) {
                    *a &= s;
                }
            }
        }
        out
    }

    /// [`classify`] of the pair `(a, b)`, test for test in its order.
    fn classify(&self, a: usize, b: usize) -> CcRelationship {
        if self.side_disjoint(&self.r1, &self.r1_unsat, a, b) {
            return CcRelationship::Disjoint;
        }
        if self.row(&self.r1, a) == self.row(&self.r1, b)
            && self.side_disjoint(&self.r2, &self.r2_unsat, a, b)
        {
            return CcRelationship::Disjoint;
        }
        match (self.implies(a, b), self.implies(b, a)) {
            (true, true) => CcRelationship::Equal,
            (true, false) => CcRelationship::ContainedIn,
            (false, true) => CcRelationship::Contains,
            (false, false) => CcRelationship::Intersecting,
        }
    }
}

/// The set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        std::iter::successors((w != 0).then_some(w), |&w| {
            let rest = w & (w - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |w| (wi << 6) | w.trailing_zeros() as usize)
    })
}

/// `true` if the ascending lists share no element.
fn sorted_disjoint(x: &[u32], y: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// `true` if every element of ascending `x` is in ascending `y`.
fn sorted_subset(x: &[u32], y: &[u32]) -> bool {
    let mut j = 0;
    x.iter().all(|v| {
        while j < y.len() && y[j] < *v {
            j += 1;
        }
        j < y.len() && y[j] == *v
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cextend_table::{Atom, Predicate, Value};

    fn cc(name: &str, r1_atoms: Vec<Atom>, r2_atoms: Vec<Atom>, k: u64) -> CardinalityConstraint {
        CardinalityConstraint::new(
            name,
            NormalizedCond::from_predicate(&Predicate::new(r1_atoms)).unwrap(),
            NormalizedCond::from_predicate(&Predicate::new(r2_atoms)).unwrap(),
            k,
        )
    }

    fn chicago() -> Vec<Atom> {
        vec![Atom::eq("Area", Value::str("Chicago"))]
    }

    fn nyc() -> Vec<Atom> {
        vec![Atom::eq("Area", Value::str("NYC"))]
    }

    #[test]
    fn figure6_relationships() {
        // CC1: Age∈[10,14], Chicago; CC2: Age∈[50,60] & Multi=0, NYC;
        // CC3: Age∈[13,64], Chicago; CC4: Age∈[18,24] & Multi=0, Chicago.
        let cc1 = cc("CC1", vec![Atom::in_range("Age", 10, 14)], chicago(), 20);
        let cc2 = cc(
            "CC2",
            vec![Atom::in_range("Age", 50, 60), Atom::eq("Multi-ling", 0i64)],
            nyc(),
            25,
        );
        let cc3 = cc("CC3", vec![Atom::in_range("Age", 13, 64)], chicago(), 100);
        let cc4 = cc(
            "CC4",
            vec![Atom::in_range("Age", 18, 24), Atom::eq("Multi-ling", 0i64)],
            chicago(),
            16,
        );
        // Paper: CC1 ∩ CC2 = ∅ and CC4 ⊆ CC3.
        assert_eq!(classify(&cc1, &cc2), CcRelationship::Disjoint);
        assert_eq!(classify(&cc4, &cc3), CcRelationship::ContainedIn);
        assert_eq!(classify(&cc3, &cc4), CcRelationship::Contains);
        // CC1's ages [10,14] overlap CC3's [13,64] without containment.
        assert_eq!(classify(&cc1, &cc3), CcRelationship::Intersecting);
        // CC2 is R1-disjoint from CC3 and CC4 (ages don't overlap CC4; for
        // CC3 they do overlap on Age — but Multi-ling is unconstrained in
        // CC3, so not disjoint; different Areas don't matter since R1 parts
        // differ).
        assert_eq!(classify(&cc2, &cc4), CcRelationship::Disjoint);
        assert_eq!(classify(&cc2, &cc3), CcRelationship::Intersecting);
    }

    #[test]
    fn same_r1_disjoint_r2_is_disjoint() {
        // Example 1.1: homeowners in Chicago vs homeowners in NYC.
        let a = cc("a", vec![Atom::eq("Rel", "Owner")], chicago(), 4);
        let b = cc("b", vec![Atom::eq("Rel", "Owner")], nyc(), 2);
        assert_eq!(classify(&a, &b), CcRelationship::Disjoint);
    }

    #[test]
    fn same_r1_same_r2_is_equal() {
        let a = cc("a", vec![Atom::eq("Rel", "Owner")], chicago(), 4);
        let b = cc("b", vec![Atom::eq("Rel", "Owner")], chicago(), 7);
        assert_eq!(classify(&a, &b), CcRelationship::Equal);
    }

    #[test]
    fn example_4_5_overlapping_ranges_intersect() {
        // CC1: Age∈[10,49] Chicago; CC2: Age∈[30,70] NYC. R1 parts overlap
        // on [30,49] and are not identical → intersecting (the R2
        // disjointness cannot rescue them).
        let a = cc("a", vec![Atom::in_range("Age", 10, 49)], chicago(), 30);
        let b = cc("b", vec![Atom::in_range("Age", 30, 70)], nyc(), 30);
        assert_eq!(classify(&a, &b), CcRelationship::Intersecting);
    }

    #[test]
    fn containment_requires_superset_of_columns() {
        // a constrains Age only; b constrains Age (wider) and Multi-ling.
        // b's combined condition does NOT contain a's (a is unconstrained
        // on Multi-ling, so a has tuples outside b).
        let a = cc("a", vec![Atom::in_range("Age", 20, 30)], chicago(), 5);
        let b = cc(
            "b",
            vec![Atom::in_range("Age", 10, 40), Atom::eq("Multi-ling", 1i64)],
            chicago(),
            9,
        );
        assert_eq!(classify(&a, &b), CcRelationship::Intersecting);
        // Swap restrictiveness: now the Multi-ling-constrained one is inside.
        let c = cc(
            "c",
            vec![Atom::in_range("Age", 20, 30), Atom::eq("Multi-ling", 1i64)],
            chicago(),
            5,
        );
        let d = cc("d", vec![Atom::in_range("Age", 10, 40)], chicago(), 9);
        assert_eq!(classify(&c, &d), CcRelationship::ContainedIn);
    }

    #[test]
    fn matrix_is_consistent() {
        let ccs = vec![
            cc("a", vec![Atom::in_range("Age", 10, 14)], chicago(), 1),
            cc("b", vec![Atom::in_range("Age", 13, 64)], chicago(), 2),
            cc("c", vec![Atom::in_range("Age", 20, 40)], chicago(), 3),
        ];
        let m = RelationshipMatrix::build(&ccs);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(0, 1), CcRelationship::Intersecting);
        assert_eq!(m.get(1, 0), CcRelationship::Intersecting);
        assert_eq!(m.get(0, 2), CcRelationship::Disjoint);
        assert_eq!(m.get(1, 2), CcRelationship::Contains);
        assert_eq!(m.get(2, 1), CcRelationship::ContainedIn);
        assert_eq!(m.intersecting_ccs(), vec![0, 1]);
        assert!(!m.intersects_any(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cextend_table::Value;
    use proptest::prelude::*;

    /// `(column, is_int)`: two integer and two symbol columns per side.
    const R1_COLS: [(&str, bool); 4] = [
        ("Age", true),
        ("Multi-ling", true),
        ("Rel", false),
        ("Lang", false),
    ];
    const R2_COLS: [(&str, bool); 4] = [
        ("Rooms", true),
        ("Rent", true),
        ("Area", false),
        ("Tenure", false),
    ];

    /// Symbols a column draws from: `Area` has more than 64.
    fn n_symbols(col: &str) -> usize {
        if col == "Area" {
            80
        } else {
            3
        }
    }

    /// One column's set, or `None` for an unconstrained column: mostly
    /// ranges on integer columns and one- to three-symbol sets on symbol
    /// columns, sometimes the other kind, sometimes `Empty`.
    fn draw_set(
        (col, is_int): (&str, bool),
        (kind, lo, width, picks): (u8, i64, i64, Vec<usize>),
    ) -> Option<ValueSet> {
        let (lo, width) = match col {
            "Multi-ling" | "Rent" => (lo % 2, width % 2),
            _ => (lo, width),
        };
        let range = ValueSet::range(lo, lo + width);
        let syms = ValueSet::syms(
            picks
                .iter()
                .map(|&i| Sym::intern(&format!("{col}{}", i % n_symbols(col)))),
        );
        match (kind, is_int) {
            (0..=15, _) => None,
            (16..=33, true) | (34..=38, false) => Some(range),
            (16..=33, false) | (34..=38, true) => Some(syms),
            _ => Some(ValueSet::Empty),
        }
    }

    /// A CC whose `R1` and `R2` columns are each drawn by [`draw_set`].
    fn arb_cc() -> impl Strategy<Value = CardinalityConstraint> {
        let column = (
            0u8..40,
            0i64..8,
            0i64..6,
            prop::collection::vec(0usize..80, 1..4),
        );
        (prop::collection::vec(column, 9), 0u64..5).prop_map(|(draws, target)| {
            let mut draws = draws.into_iter();
            let mut side = |cols: [(&'static str, bool); 4]| -> Vec<(String, ValueSet)> {
                cols.into_iter()
                    .filter_map(|col| {
                        draw_set(col, draws.next().unwrap()).map(|set| (col.0.to_owned(), set))
                    })
                    .collect()
            };
            let r1 = side(R1_COLS);
            let mut r2 = side(R2_COLS);
            // Now and then the `R2` side also constrains `Age`, so the
            // combined condition intersects the two sides' ranges.
            let (kind, lo, width, picks) = draws.next().unwrap();
            if kind % 8 == 0 {
                r2.extend(
                    draw_set(("Age", true), (16, lo, width, picks))
                        .map(|set| ("Age".to_owned(), set)),
                );
            }
            CardinalityConstraint::new(
                "cc",
                NormalizedCond::from_sets(r1),
                NormalizedCond::from_sets(r2),
                target,
            )
        })
    }

    /// Up to about 40 CCs, some repeating an earlier CC's conditions and
    /// some pairing one CC's `R1` condition with another's `R2`.
    fn arb_ccs() -> impl Strategy<Value = Vec<CardinalityConstraint>> {
        (
            prop::collection::vec(arb_cc(), 1..36),
            prop::collection::vec((0usize..64, 0usize..64, prop::bool::ANY), 0..6),
        )
            .prop_map(|(mut ccs, copies)| {
                for (a, b, whole) in copies {
                    let (a, b) = (&ccs[a % ccs.len()], &ccs[b % ccs.len()]);
                    let r2 = if whole { a.r2.clone() } else { b.r2.clone() };
                    ccs.push(CardinalityConstraint::new(
                        "copy",
                        a.r1.clone(),
                        r2,
                        b.target,
                    ));
                }
                ccs
            })
    }

    /// Values of `col` worth probing against `conds`: each range's ends and
    /// their neighbours, each symbol, one integer and one unseen symbol.
    /// Conditions are per-column conjunctions, so two conditions share a
    /// point iff they share a probe on every column, and one implies the
    /// other iff no probe of any column separates them.
    fn probes(col: &str, conds: [&NormalizedCond; 2]) -> Vec<Value> {
        let mut out = vec![Value::Int(0), Value::str("unseen")];
        for set in conds.iter().filter_map(|c| c.get(col)) {
            match set {
                ValueSet::IntRange { lo, hi } => out.extend(
                    [lo.checked_sub(1), Some(*lo), Some(*hi), hi.checked_add(1)]
                        .into_iter()
                        .flatten()
                        .map(Value::Int),
                ),
                ValueSet::Strs(syms) => out.extend(syms.iter().map(|&s| Value::Str(s))),
                ValueSet::Empty => {}
            }
        }
        out
    }

    /// `true` if `cond` holds `v` on `col`. A point is typed, so integer
    /// columns take integers and symbol columns symbols.
    fn holds(cond: &NormalizedCond, (col, is_int): (&str, bool), v: Value) -> bool {
        matches!(v, Value::Int(_)) == is_int && cond.get(col).is_none_or(|set| set.contains(v))
    }

    fn all_cols() -> impl Iterator<Item = (&'static str, bool)> {
        R1_COLS.into_iter().chain(R2_COLS)
    }

    proptest! {
        /// classify(a,b) and classify(b,a) must mirror each other.
        #[test]
        fn classification_is_symmetric(a in arb_cc(), b in arb_cc()) {
            prop_assert_eq!(classify(&a, &b), classify(&b, &a).flipped());
        }

        /// Disjoint CCs admit no common point.
        #[test]
        fn disjoint_means_no_common_point(a in arb_cc(), b in arb_cc()) {
            if classify(&a, &b) != CcRelationship::Disjoint {
                return Ok(());
            }
            let (ca, cb) = (a.combined(), b.combined());
            let common = all_cols().all(|col| {
                probes(col.0, [&ca, &cb])
                    .into_iter()
                    .any(|v| holds(&ca, col, v) && holds(&cb, col, v))
            });
            prop_assert!(!common, "common point of {} and {}", ca, cb);
        }

        /// Containment means implication: no probe holds on the inner
        /// condition's column and fails the outer's, unless the inner
        /// condition holds nowhere.
        #[test]
        fn containment_means_implication(a in arb_cc(), b in arb_cc()) {
            if classify(&a, &b) != CcRelationship::ContainedIn {
                return Ok(());
            }
            let (ca, cb) = (a.combined(), b.combined());
            let ca_empty = all_cols().any(|col| {
                !probes(col.0, [&ca, &cb]).into_iter().any(|v| holds(&ca, col, v))
            });
            let implied = all_cols().all(|col| {
                probes(col.0, [&ca, &cb])
                    .into_iter()
                    .all(|v| !holds(&ca, col, v) || holds(&cb, col, v))
            });
            prop_assert!(ca_empty || implied, "{} does not imply {}", ca, cb);
        }

        /// The compiled matrix is the per-pair reference on every ordered
        /// pair.
        #[test]
        fn matrix_matches_classify(ccs in arb_ccs()) {
            let m = RelationshipMatrix::build(&ccs);
            for i in 0..ccs.len() {
                for j in (0..ccs.len()).filter(|&j| j != i) {
                    prop_assert_eq!(
                        m.get(i, j),
                        classify(&ccs[i], &ccs[j]),
                        "pair ({}, {}): {} vs {}", i, j, ccs[i], ccs[j]
                    );
                }
            }
        }
    }
}
