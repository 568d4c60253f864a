//! Linear cardinality constraints (Definition 2.4 of the paper).
//!
//! A CC `|σ_φ(R1 ⋈ R2)| = k` carries a conjunctive selection condition φ
//! split into its `R1`-side and `R2`-side parts, plus the target count `k`.
//! Conditions are stored *normalized*: one [`ValueSet`] per referenced
//! column. Normalization is what makes the relationship classification of
//! Definitions 4.2–4.4 a set-algebra computation.

use crate::error::{ConstraintError, Result};
use cextend_table::{Atom, Predicate, Relation, ValueSet};
use std::collections::BTreeMap;
use std::fmt;

/// A conjunctive condition normalized to per-column value sets.
///
/// The empty condition is `true` everywhere. A condition whose atoms
/// contradict each other on some column normalizes to an *unsatisfiable*
/// condition (some column maps to [`ValueSet::Empty`]).
///
/// Equal conditions hash equally, so a CC list can be deduplicated by
/// condition in one hash lookup per CC.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct NormalizedCond {
    sets: BTreeMap<String, ValueSet>,
}

impl NormalizedCond {
    /// The always-true condition.
    pub fn always() -> NormalizedCond {
        NormalizedCond::default()
    }

    /// Normalizes a conjunctive predicate. Fails on atoms that per-column
    /// sets cannot express (`≠`, ordering on categorical values).
    pub fn from_predicate(pred: &Predicate) -> Result<NormalizedCond> {
        let mut sets: BTreeMap<String, ValueSet> = BTreeMap::new();
        for atom in &pred.atoms {
            let set = ValueSet::from_atom(atom).ok_or_else(|| {
                ConstraintError::CannotNormalize(format!("unsupported atom `{atom}`"))
            })?;
            let col = atom.column().to_owned();
            let merged = match sets.get(&col) {
                Some(existing) => existing.intersect(&set),
                None => set,
            };
            sets.insert(col, merged);
        }
        Ok(NormalizedCond { sets })
    }

    /// Builds directly from `(column, set)` pairs.
    pub fn from_sets<I: IntoIterator<Item = (String, ValueSet)>>(iter: I) -> NormalizedCond {
        NormalizedCond {
            sets: iter.into_iter().collect(),
        }
    }

    /// The constrained columns, sorted.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.sets.keys().map(|s| s.as_str())
    }

    /// Number of constrained columns.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` if no column is constrained.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The value set of `column`, if constrained.
    pub fn get(&self, column: &str) -> Option<&ValueSet> {
        self.sets.get(column)
    }

    /// Iterates over `(column, set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ValueSet)> {
        self.sets.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `true` if some column's set is empty (condition can never hold).
    pub fn is_unsatisfiable(&self) -> bool {
        self.sets.values().any(ValueSet::is_empty)
    }

    /// Converts back to a predicate.
    pub fn to_predicate(&self) -> Predicate {
        let mut atoms: Vec<Atom> = Vec::new();
        for (col, set) in &self.sets {
            atoms.extend(set.to_atoms(col));
        }
        Predicate::new(atoms)
    }

    /// Conjunction of two normalized conditions (per-column intersection).
    pub fn intersect(&self, other: &NormalizedCond) -> NormalizedCond {
        let mut sets = self.sets.clone();
        for (col, set) in &other.sets {
            let merged = match sets.get(col) {
                Some(existing) => existing.intersect(set),
                None => set.clone(),
            };
            sets.insert(col.clone(), merged);
        }
        NormalizedCond { sets }
    }

    /// `true` iff the two conditions constrain the same columns to the same
    /// sets.
    pub fn same_condition(&self, other: &NormalizedCond) -> bool {
        self.sets == other.sets
    }

    /// `true` iff every tuple satisfying `self` satisfies `other`:
    /// `self` constrains a superset of `other`'s columns and is at least as
    /// restrictive on each shared column (Definition 4.3).
    pub fn implies(&self, other: &NormalizedCond) -> bool {
        other
            .sets
            .iter()
            .all(|(col, oset)| self.sets.get(col).is_some_and(|sset| sset.is_subset(oset)))
    }

    /// `true` iff no tuple can satisfy both: some common column has disjoint
    /// sets (or either side is unsatisfiable outright).
    pub fn disjoint_with(&self, other: &NormalizedCond) -> bool {
        if self.is_unsatisfiable() || other.is_unsatisfiable() {
            return true;
        }
        self.sets.iter().any(|(col, sset)| {
            other
                .sets
                .get(col)
                .is_some_and(|oset| sset.is_disjoint(oset))
        })
    }
}

impl fmt::Display for NormalizedCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sets.is_empty() {
            return f.write_str("true");
        }
        for (i, (col, set)) in self.sets.iter().enumerate() {
            if i > 0 {
                f.write_str(" & ")?;
            }
            write!(f, "{col} ∈ {set}")?;
        }
        Ok(())
    }
}

/// A linear cardinality constraint over the join view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CardinalityConstraint {
    /// Identifier used in reports.
    pub name: String,
    /// Condition on `R1`'s attribute columns.
    pub r1: NormalizedCond,
    /// Condition on `R2`'s attribute columns.
    pub r2: NormalizedCond,
    /// Target count `k`.
    pub target: u64,
}

impl CardinalityConstraint {
    /// Builds a CC from already-normalized parts.
    pub fn new(
        name: impl Into<String>,
        r1: NormalizedCond,
        r2: NormalizedCond,
        target: u64,
    ) -> CardinalityConstraint {
        CardinalityConstraint {
            name: name.into(),
            r1,
            r2,
            target,
        }
    }

    /// Builds a CC from predicates, splitting atoms by column ownership:
    /// columns in `r2_columns` go to the `R2` side, everything else to `R1`.
    pub fn from_predicate(
        name: impl Into<String>,
        pred: &Predicate,
        r2_columns: &std::collections::HashSet<String>,
        target: u64,
    ) -> Result<CardinalityConstraint> {
        let mut r1_atoms = Vec::new();
        let mut r2_atoms = Vec::new();
        for atom in &pred.atoms {
            if r2_columns.contains(atom.column()) {
                r2_atoms.push(atom.clone());
            } else {
                r1_atoms.push(atom.clone());
            }
        }
        Ok(CardinalityConstraint {
            name: name.into(),
            r1: NormalizedCond::from_predicate(&Predicate::new(r1_atoms))?,
            r2: NormalizedCond::from_predicate(&Predicate::new(r2_atoms))?,
            target,
        })
    }

    /// The combined condition over the join view's columns.
    pub fn combined(&self) -> NormalizedCond {
        self.r1.intersect(&self.r2)
    }

    /// The combined condition as a predicate (for evaluation on `V_join`).
    pub fn predicate(&self) -> Predicate {
        self.combined().to_predicate()
    }

    /// Counts the join-view rows currently satisfying this CC.
    pub fn count_in(&self, view: &Relation) -> Result<u64> {
        Ok(self.predicate().count(view)?)
    }
}

impl fmt::Display for CardinalityConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: |σ[{}]| = {}",
            self.name,
            self.combined(),
            self.target
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cextend_table::{Atom, CmpOp, Value};

    fn cond(atoms: Vec<Atom>) -> NormalizedCond {
        NormalizedCond::from_predicate(&Predicate::new(atoms)).unwrap()
    }

    #[test]
    fn normalization_intersects_same_column_atoms() {
        let c = cond(vec![
            Atom::cmp("Age", CmpOp::Ge, 10),
            Atom::cmp("Age", CmpOp::Le, 20),
        ]);
        assert_eq!(c.get("Age"), Some(&ValueSet::range(10, 20)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn contradictory_atoms_are_unsatisfiable() {
        let c = cond(vec![
            Atom::cmp("Age", CmpOp::Ge, 30),
            Atom::cmp("Age", CmpOp::Le, 20),
        ]);
        assert!(c.is_unsatisfiable());
    }

    #[test]
    fn ne_cannot_normalize() {
        let err =
            NormalizedCond::from_predicate(&Predicate::new(vec![Atom::cmp("Age", CmpOp::Ne, 5)]));
        assert!(matches!(err, Err(ConstraintError::CannotNormalize(_))));
    }

    #[test]
    fn implies_checks_columns_and_sets() {
        // Age ∈ [18,24] ∧ Multi=0  implies  Age ∈ [13,64].
        let tight = cond(vec![Atom::in_range("Age", 18, 24), Atom::eq("Multi", 0i64)]);
        let loose = cond(vec![Atom::in_range("Age", 13, 64)]);
        assert!(tight.implies(&loose));
        assert!(!loose.implies(&tight));
        // Everything implies `true`.
        assert!(loose.implies(&NormalizedCond::always()));
        assert!(!NormalizedCond::always().implies(&loose));
    }

    #[test]
    fn disjointness() {
        let a = cond(vec![Atom::in_range("Age", 10, 14)]);
        let b = cond(vec![Atom::in_range("Age", 50, 60)]);
        let c = cond(vec![Atom::in_range("Age", 12, 55)]);
        assert!(a.disjoint_with(&b));
        assert!(!a.disjoint_with(&c));
        // Unconstrained columns don't create disjointness.
        let d = cond(vec![Atom::eq("Rel", "Owner")]);
        assert!(!a.disjoint_with(&d));
    }

    #[test]
    fn roundtrip_to_predicate() {
        let c = cond(vec![
            Atom::in_range("Age", 10, 14),
            Atom::eq("Area", Value::str("Chicago")),
        ]);
        let p = c.to_predicate();
        let back = NormalizedCond::from_predicate(&p).unwrap();
        assert!(c.same_condition(&back));
    }

    #[test]
    fn cc_from_predicate_splits_sides() {
        let mut r2_cols = std::collections::HashSet::new();
        r2_cols.insert("Area".to_owned());
        let pred = Predicate::new(vec![
            Atom::eq("Rel", "Owner"),
            Atom::eq("Area", Value::str("Chicago")),
        ]);
        let cc = CardinalityConstraint::from_predicate("CC1", &pred, &r2_cols, 4).unwrap();
        assert!(cc.r1.get("Rel").is_some());
        assert!(cc.r1.get("Area").is_none());
        assert!(cc.r2.get("Area").is_some());
        assert_eq!(cc.target, 4);
    }

    #[test]
    fn count_in_view() {
        use cextend_table::{ColumnDef, Dtype, Relation, Schema};
        let schema = Schema::new(vec![
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut view = Relation::new("v", schema);
        for (rl, area) in [
            ("Owner", Some("Chicago")),
            ("Owner", Some("Chicago")),
            ("Owner", Some("NYC")),
            ("Spouse", Some("Chicago")),
            ("Owner", None),
        ] {
            view.push_row(&[Some(Value::str(rl)), area.map(Value::str)])
                .unwrap();
        }
        let cc = CardinalityConstraint::new(
            "CC1",
            cond(vec![Atom::eq("Rel", "Owner")]),
            cond(vec![Atom::eq("Area", Value::str("Chicago"))]),
            4,
        );
        assert_eq!(cc.count_in(&view).unwrap(), 2);
    }

    #[test]
    fn display() {
        let cc = CardinalityConstraint::new(
            "CC1",
            cond(vec![Atom::eq("Rel", "Owner")]),
            NormalizedCond::always(),
            4,
        );
        let s = cc.to_string();
        assert!(s.contains("CC1"));
        assert!(s.contains("= 4"));
    }
}
