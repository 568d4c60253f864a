//! Value-set algebra for normalized selection conditions.
//!
//! The CC relationship classification of the paper (Definitions 4.2–4.4)
//! reduces to set algebra over the per-column value sets that a conjunctive
//! selection condition allows: an integer column's conjuncts intersect to an
//! interval, a categorical column's conjuncts intersect to a (usually
//! singleton) set of symbols. [`ValueSet`] implements exactly that algebra —
//! intersection, subset and disjointness tests.

use crate::predicate::{Atom, CmpOp};
use crate::value::{Sym, Value};
use std::collections::BTreeSet;
use std::fmt;

/// The set of values a conjunctive condition allows in one column.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ValueSet {
    /// Integer interval `[lo, hi]` (inclusive). Always non-empty (`lo ≤ hi`).
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Finite set of categorical values. Always non-empty.
    Strs(BTreeSet<Sym>),
    /// The empty set (unsatisfiable condition).
    Empty,
}

impl ValueSet {
    /// The full integer range.
    pub fn all_ints() -> ValueSet {
        ValueSet::IntRange {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// An integer interval; collapses to `Empty` if `lo > hi`.
    pub fn range(lo: i64, hi: i64) -> ValueSet {
        if lo > hi {
            ValueSet::Empty
        } else {
            ValueSet::IntRange { lo, hi }
        }
    }

    /// A single integer.
    pub fn int(v: i64) -> ValueSet {
        ValueSet::IntRange { lo: v, hi: v }
    }

    /// A single categorical value.
    pub fn sym(s: Sym) -> ValueSet {
        let mut set = BTreeSet::new();
        set.insert(s);
        ValueSet::Strs(set)
    }

    /// A set of categorical values; collapses to `Empty` if none given.
    pub fn syms<I: IntoIterator<Item = Sym>>(iter: I) -> ValueSet {
        let set: BTreeSet<Sym> = iter.into_iter().collect();
        if set.is_empty() {
            ValueSet::Empty
        } else {
            ValueSet::Strs(set)
        }
    }

    /// Converts a comparison atom into the value set it allows.
    ///
    /// Returns `None` for forms that a single set cannot represent under
    /// conjunctive normalization (`≠`, or an ordering comparison on a
    /// categorical column). Cardinality constraints in the paper never use
    /// those forms; callers treat `None` as "cannot normalize".
    pub fn from_cmp(op: CmpOp, value: Value) -> Option<ValueSet> {
        match value {
            Value::Int(c) => Some(match op {
                CmpOp::Eq => ValueSet::int(c),
                CmpOp::Lt => ValueSet::range(i64::MIN, c.saturating_sub(1)),
                CmpOp::Le => ValueSet::range(i64::MIN, c),
                CmpOp::Gt => ValueSet::range(c.saturating_add(1), i64::MAX),
                CmpOp::Ge => ValueSet::range(c, i64::MAX),
                CmpOp::Ne => return None,
            }),
            Value::Str(s) => match op {
                CmpOp::Eq => Some(ValueSet::sym(s)),
                _ => None,
            },
        }
    }

    /// Converts any predicate atom into its value set (see [`Self::from_cmp`]).
    pub fn from_atom(atom: &Atom) -> Option<ValueSet> {
        match atom {
            Atom::Cmp { op, value, .. } => ValueSet::from_cmp(*op, *value),
            Atom::InRange { lo, hi, .. } => Some(ValueSet::range(*lo, *hi)),
        }
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, ValueSet::Empty)
    }

    /// Set intersection. Mismatched types intersect to `Empty`.
    pub fn intersect(&self, other: &ValueSet) -> ValueSet {
        match (self, other) {
            (ValueSet::Empty, _) | (_, ValueSet::Empty) => ValueSet::Empty,
            (ValueSet::IntRange { lo: a, hi: b }, ValueSet::IntRange { lo: c, hi: d }) => {
                ValueSet::range((*a).max(*c), (*b).min(*d))
            }
            (ValueSet::Strs(x), ValueSet::Strs(y)) => ValueSet::syms(x.intersection(y).copied()),
            _ => ValueSet::Empty,
        }
    }

    /// `true` if `self ⊆ other`. The empty set is a subset of everything;
    /// sets of different types are never subsets of each other (other than
    /// via emptiness).
    pub fn is_subset(&self, other: &ValueSet) -> bool {
        match (self, other) {
            (ValueSet::Empty, _) => true,
            (_, ValueSet::Empty) => false,
            (ValueSet::IntRange { lo: a, hi: b }, ValueSet::IntRange { lo: c, hi: d }) => {
                c <= a && b <= d
            }
            (ValueSet::Strs(x), ValueSet::Strs(y)) => x.is_subset(y),
            _ => false,
        }
    }

    /// `true` if the sets share no value: exactly when [`Self::intersect`]
    /// is empty, decided without building the intersection.
    pub fn is_disjoint(&self, other: &ValueSet) -> bool {
        match (self, other) {
            (ValueSet::IntRange { lo: a, hi: b }, ValueSet::IntRange { lo: c, hi: d }) => {
                (*a).max(*c) > (*b).min(*d)
            }
            (ValueSet::Strs(x), ValueSet::Strs(y)) => x.is_disjoint(y),
            _ => true,
        }
    }

    /// `true` if `v` belongs to the set.
    pub fn contains(&self, v: Value) -> bool {
        match v {
            Value::Int(x) => self.contains_int(x),
            Value::Str(s) => self.contains_sym(s),
        }
    }

    /// [`ValueSet::contains`] for a raw integer cell — hot loops reading
    /// typed column views test membership without boxing a [`Value`].
    #[inline]
    pub fn contains_int(&self, x: i64) -> bool {
        match self {
            ValueSet::IntRange { lo, hi } => *lo <= x && x <= *hi,
            ValueSet::Strs(_) | ValueSet::Empty => false,
        }
    }

    /// [`ValueSet::contains`] for a raw categorical cell.
    #[inline]
    pub fn contains_sym(&self, s: Sym) -> bool {
        match self {
            ValueSet::Strs(set) => set.contains(&s),
            ValueSet::IntRange { .. } | ValueSet::Empty => false,
        }
    }

    /// Picks an arbitrary representative value, preferring small magnitudes
    /// for integer ranges (used when materializing a CC's `R2`-side values).
    pub fn representative(&self) -> Option<Value> {
        match self {
            ValueSet::Empty => None,
            ValueSet::IntRange { lo, hi } => {
                let v = if *lo <= 0 && 0 <= *hi { 0 } else { *lo };
                Some(Value::Int(v.min(*hi)))
            }
            ValueSet::Strs(set) => set.iter().next().map(|s| Value::Str(*s)),
        }
    }

    /// `true` if the set holds exactly one value.
    pub fn is_singleton(&self) -> bool {
        match self {
            ValueSet::Empty => false,
            ValueSet::IntRange { lo, hi } => lo == hi,
            ValueSet::Strs(set) => set.len() == 1,
        }
    }

    /// Converts the set back to predicate atoms on `column`.
    pub fn to_atoms(&self, column: &str) -> Vec<Atom> {
        match self {
            // An unsatisfiable condition: x < MIN is always false.
            ValueSet::Empty => vec![Atom::cmp(column, CmpOp::Lt, i64::MIN)],
            ValueSet::IntRange { lo, hi } => {
                if lo == hi {
                    vec![Atom::eq(column, *lo)]
                } else {
                    vec![Atom::in_range(column, *lo, *hi)]
                }
            }
            ValueSet::Strs(set) => {
                // Conjunctive predicates can only express a singleton; larger
                // sets arise only internally and are not converted here.
                debug_assert_eq!(set.len(), 1, "only singleton Str sets convert to atoms");
                set.iter()
                    .map(|s| Atom::eq(column, Value::Str(*s)))
                    .collect()
            }
        }
    }
}

impl fmt::Display for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueSet::Empty => f.write_str("∅"),
            ValueSet::IntRange { lo, hi } => {
                if lo == hi {
                    write!(f, "{{{lo}}}")
                } else {
                    let l = if *lo == i64::MIN {
                        "-inf".to_owned()
                    } else {
                        lo.to_string()
                    };
                    let h = if *hi == i64::MAX {
                        "+inf".to_owned()
                    } else {
                        hi.to_string()
                    };
                    write!(f, "[{l}, {h}]")
                }
            }
            ValueSet::Strs(set) => {
                write!(f, "{{")?;
                for (i, s) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_collapses_when_empty() {
        assert_eq!(ValueSet::range(5, 4), ValueSet::Empty);
        assert!(!ValueSet::range(5, 5).is_empty());
    }

    #[test]
    fn from_cmp_int() {
        assert_eq!(
            ValueSet::from_cmp(CmpOp::Le, Value::Int(24)),
            Some(ValueSet::range(i64::MIN, 24))
        );
        assert_eq!(
            ValueSet::from_cmp(CmpOp::Gt, Value::Int(24)),
            Some(ValueSet::range(25, i64::MAX))
        );
        assert_eq!(
            ValueSet::from_cmp(CmpOp::Eq, Value::Int(7)),
            Some(ValueSet::int(7))
        );
        assert_eq!(ValueSet::from_cmp(CmpOp::Ne, Value::Int(7)), None);
    }

    #[test]
    fn from_cmp_str() {
        assert_eq!(
            ValueSet::from_cmp(CmpOp::Eq, Value::str("NYC")),
            Some(ValueSet::sym(Sym::intern("NYC")))
        );
        assert_eq!(ValueSet::from_cmp(CmpOp::Lt, Value::str("NYC")), None);
    }

    #[test]
    fn intersection() {
        let a = ValueSet::range(10, 50);
        let b = ValueSet::range(30, 70);
        assert_eq!(a.intersect(&b), ValueSet::range(30, 50));
        assert_eq!(a.intersect(&ValueSet::range(60, 70)), ValueSet::Empty);
        let s1 = ValueSet::sym(Sym::intern("a"));
        let s2 = ValueSet::sym(Sym::intern("b"));
        assert_eq!(s1.intersect(&s2), ValueSet::Empty);
        assert_eq!(s1.intersect(&s1), s1);
        // Type mismatch intersects to empty.
        assert_eq!(a.intersect(&s1), ValueSet::Empty);
    }

    #[test]
    fn subset_and_disjoint() {
        let small = ValueSet::range(18, 24);
        let big = ValueSet::range(13, 64);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(!small.is_disjoint(&big));
        assert!(ValueSet::range(10, 14).is_disjoint(&ValueSet::range(50, 60)));
        assert!(ValueSet::Empty.is_subset(&small));
        assert!(!small.is_subset(&ValueSet::Empty));
    }

    #[test]
    fn contains_and_representative() {
        let r = ValueSet::range(10, 20);
        assert!(r.contains(Value::Int(10)));
        assert!(!r.contains(Value::Int(9)));
        assert!(!r.contains(Value::str("x")));
        // Typed fast paths agree with the boxed entry point.
        assert!(r.contains_int(10) && !r.contains_int(9));
        assert!(!r.contains_sym(Sym::intern("x")));
        let s = ValueSet::sym(Sym::intern("NYC"));
        assert!(s.contains_sym(Sym::intern("NYC")));
        assert!(!s.contains_int(0));
        assert!(!ValueSet::Empty.contains_int(0));
        assert_eq!(r.representative(), Some(Value::Int(10)));
        assert_eq!(ValueSet::range(-5, 5).representative(), Some(Value::Int(0)));
        assert_eq!(ValueSet::Empty.representative(), None);
        let s = ValueSet::sym(Sym::intern("NYC"));
        assert_eq!(s.representative(), Some(Value::str("NYC")));
    }

    #[test]
    fn to_atoms_roundtrip() {
        assert_eq!(
            ValueSet::int(7).to_atoms("Age"),
            vec![Atom::eq("Age", 7i64)]
        );
        assert_eq!(
            ValueSet::range(1, 9).to_atoms("Age"),
            vec![Atom::in_range("Age", 1, 9)]
        );
        assert_eq!(
            ValueSet::sym(Sym::intern("NYC")).to_atoms("Area"),
            vec![Atom::eq("Area", Value::str("NYC"))]
        );
    }

    #[test]
    fn singleton_detection() {
        assert!(ValueSet::int(3).is_singleton());
        assert!(!ValueSet::range(3, 4).is_singleton());
        assert!(ValueSet::sym(Sym::intern("q")).is_singleton());
        assert!(!ValueSet::Empty.is_singleton());
    }

    #[test]
    fn display() {
        assert_eq!(ValueSet::range(1, 2).to_string(), "[1, 2]");
        assert_eq!(ValueSet::int(5).to_string(), "{5}");
        assert_eq!(ValueSet::Empty.to_string(), "∅");
        assert_eq!(ValueSet::range(i64::MIN, 24).to_string(), "[-inf, 24]");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_range() -> impl Strategy<Value = ValueSet> {
        (-100i64..100, -100i64..100).prop_map(|(a, b)| ValueSet::range(a.min(b), a.max(b)))
    }

    /// Ranges (some collapsing to `Empty`), sets of one to four of six
    /// symbols, and `Empty`.
    fn arb_set() -> impl Strategy<Value = ValueSet> {
        (
            0u8..3,
            (-10i64..10, -10i64..10),
            prop::collection::vec(0usize..6, 1..5),
        )
            .prop_map(|(kind, (lo, hi), picks)| match kind {
                0 => ValueSet::range(lo, hi),
                1 => ValueSet::syms(
                    picks
                        .into_iter()
                        .map(|i| Sym::intern(["a", "b", "c", "d", "e", "f"][i])),
                ),
                _ => ValueSet::Empty,
            })
    }

    proptest! {
        #[test]
        fn intersect_commutes(a in arb_range(), b in arb_range()) {
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        }

        #[test]
        fn intersect_is_subset_of_both(a in arb_range(), b in arb_range()) {
            let i = a.intersect(&b);
            prop_assert!(i.is_subset(&a));
            prop_assert!(i.is_subset(&b));
        }

        #[test]
        fn subset_iff_intersection_is_self(a in arb_range(), b in arb_range()) {
            prop_assert_eq!(a.is_subset(&b), a.intersect(&b) == a);
        }

        /// The allocation-free test agrees with the intersection it skips,
        /// over ranges, symbol sets, `Empty` and mixed types.
        #[test]
        fn disjoint_iff_intersection_is_empty(a in arb_set(), b in arb_set()) {
            prop_assert_eq!(a.is_disjoint(&b), a.intersect(&b).is_empty());
        }

        #[test]
        fn disjoint_iff_no_common_point(a in arb_range(), b in arb_range()) {
            let witnesses = (-100i64..100).any(|v| {
                a.contains(Value::Int(v)) && b.contains(Value::Int(v))
            });
            prop_assert_eq!(!a.is_disjoint(&b), witnesses);
        }

        #[test]
        fn representative_is_member(a in arb_range()) {
            if let Some(v) = a.representative() {
                prop_assert!(a.contains(v));
            } else {
                prop_assert!(a.is_empty());
            }
        }
    }
}
