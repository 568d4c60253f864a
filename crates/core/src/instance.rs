//! The C-Extension problem instance (Definition 2.6 of the paper).

use crate::error::{CoreError, Result};
use cextend_constraints::{CardinalityConstraint, DenialConstraint};
use cextend_table::Relation;
use std::collections::HashSet;

/// An instance of C-Extension: relations `R1` (FK column empty) and `R2`,
/// cardinality constraints over `R1 ⋈ R2`, denial constraints over `R1`.
#[derive(Clone, Debug)]
pub struct CExtensionInstance {
    /// `R1(K1, A1..Ap, FK)` with every FK cell missing.
    pub r1: Relation,
    /// `R2(K2, B1..Bq)`.
    pub r2: Relation,
    /// Linear CCs over the join view.
    pub ccs: Vec<CardinalityConstraint>,
    /// Foreign-key DCs over `R1`.
    pub dcs: Vec<DenialConstraint>,
}

impl CExtensionInstance {
    /// Builds and validates an instance.
    pub fn new(
        r1: Relation,
        r2: Relation,
        ccs: Vec<CardinalityConstraint>,
        dcs: Vec<DenialConstraint>,
    ) -> Result<CExtensionInstance> {
        let inst = CExtensionInstance { r1, r2, ccs, dcs };
        inst.validate()?;
        Ok(inst)
    }

    /// Checks the structural preconditions of Definition 2.6.
    pub fn validate(&self) -> Result<()> {
        let fk = self.r1.schema().fk_col().ok_or_else(|| {
            CoreError::Validation("R1 must have exactly one foreign-key column".into())
        })?;
        if self.r1.schema().key_col().is_none() {
            return Err(CoreError::Validation(
                "R1 must have exactly one key column".into(),
            ));
        }
        let k2 =
            self.r2.schema().key_col().ok_or_else(|| {
                CoreError::Validation("R2 must have exactly one key column".into())
            })?;
        if self.r1.schema().column(fk).dtype != self.r2.schema().column(k2).dtype {
            return Err(CoreError::Validation(
                "R1.FK and R2.K2 must have the same type".into(),
            ));
        }
        if !self.r1.column_is_missing(fk) {
            return Err(CoreError::Validation(
                "R1's foreign-key column must be entirely missing".into(),
            ));
        }
        if !self.r2.column_is_complete(k2) {
            return Err(CoreError::Validation(
                "R2's key column must be complete".into(),
            ));
        }
        // Distinct R2 keys.
        let keys = self.r2.distinct_values(k2);
        if keys.len() != self.r2.n_rows() {
            return Err(CoreError::Validation("R2 keys must be unique".into()));
        }
        // CC column references.
        let r1_attrs: HashSet<&str> = self
            .r1
            .schema()
            .attr_cols()
            .into_iter()
            .map(|c| self.r1.schema().column(c).name.as_str())
            .collect();
        let r2_attrs: HashSet<&str> = self
            .r2
            .schema()
            .attr_cols()
            .into_iter()
            .map(|c| self.r2.schema().column(c).name.as_str())
            .collect();
        for cc in &self.ccs {
            for col in cc.r1.columns() {
                if !r1_attrs.contains(col) {
                    return Err(CoreError::Validation(format!(
                        "CC `{}` references `{col}`, not an attribute of R1",
                        cc.name
                    )));
                }
            }
            for col in cc.r2.columns() {
                if !r2_attrs.contains(col) {
                    return Err(CoreError::Validation(format!(
                        "CC `{}` references `{col}`, not an attribute of R2",
                        cc.name
                    )));
                }
            }
        }
        // DC column references (DCs live on R1's attributes).
        for dc in &self.dcs {
            for atom in &dc.atoms {
                let cols: Vec<&str> = match atom {
                    cextend_constraints::DcAtom::Unary { column, .. } => vec![column.as_str()],
                    cextend_constraints::DcAtom::Binary { lcol, rcol, .. } => {
                        vec![lcol.as_str(), rcol.as_str()]
                    }
                };
                for col in cols {
                    if !r1_attrs.contains(col) {
                        return Err(CoreError::Validation(format!(
                            "DC `{}` references `{col}`, not an attribute of R1",
                            dc.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Names of `R2` attribute columns referenced by at least one CC,
    /// sorted. Phase I only ever assigns these (the paper: "in practice, we
    /// only consider columns used in S_CC").
    pub fn r2_cc_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = self
            .ccs
            .iter()
            .flat_map(|cc| cc.r2.columns().map(str::to_owned))
            .collect();
        cols.sort();
        cols.dedup();
        cols
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! The paper's running example (Figures 1 and 2), reused across tests.
    use super::*;
    use cextend_constraints::{parse_cc, parse_dc};
    use cextend_table::{ColumnDef, Dtype, Schema, Value};

    /// `Persons` from Figure 1 (hid missing).
    pub fn persons() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::attr("Multi-ling", Dtype::Int),
            ColumnDef::foreign_key("hid", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("Persons", schema);
        for (pid, age, rl, m) in [
            (1, 75, "Owner", 0),
            (2, 75, "Owner", 1),
            (3, 25, "Owner", 0),
            (4, 25, "Owner", 1),
            (5, 24, "Spouse", 0),
            (6, 10, "Child", 1),
            (7, 10, "Child", 1),
            (8, 30, "Owner", 0),
            (9, 30, "Owner", 1),
        ] {
            r.push_row(&[
                Some(Value::Int(pid)),
                Some(Value::Int(age)),
                Some(Value::str(rl)),
                Some(Value::Int(m)),
                None,
            ])
            .unwrap();
        }
        r
    }

    /// `Housing` from Figure 1.
    pub fn housing() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::key("hid", Dtype::Int),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut r = Relation::new("Housing", schema);
        for (hid, area) in [
            (1, "Chicago"),
            (2, "Chicago"),
            (3, "Chicago"),
            (4, "Chicago"),
            (5, "NYC"),
            (6, "NYC"),
        ] {
            r.push_full_row(&[Value::Int(hid), Value::str(area)])
                .unwrap();
        }
        r
    }

    /// The four CCs of Figure 2b.
    pub fn figure2_ccs() -> Vec<CardinalityConstraint> {
        let r2: std::collections::HashSet<String> = ["Area".to_owned()].into_iter().collect();
        vec![
            parse_cc("CC1", r#"| Rel = "Owner" & Area = "Chicago" | = 4"#, &r2).unwrap(),
            parse_cc("CC2", r#"| Rel = "Owner" & Area = "NYC" | = 2"#, &r2).unwrap(),
            parse_cc("CC3", r#"| Age <= 24 & Area = "Chicago" | = 3"#, &r2).unwrap(),
            parse_cc("CC4", r#"| Multi-ling = 1 & Area = "Chicago" | = 4"#, &r2).unwrap(),
        ]
    }

    /// The five DCs of Figure 2a.
    pub fn figure2_dcs() -> Vec<DenialConstraint> {
        vec![
            parse_dc(
                "DC_OO",
                r#"!(t1.Rel = "Owner" & t2.Rel = "Owner" & t1.hid = t2.hid)"#,
                "hid",
            )
            .unwrap(),
            parse_dc(
                "DC_OS_low",
                r#"!(t1.Rel = "Owner" & t2.Rel = "Spouse" & t2.Age < t1.Age - 50 & t1.hid = t2.hid)"#,
                "hid",
            )
            .unwrap(),
            parse_dc(
                "DC_OS_up",
                r#"!(t1.Rel = "Owner" & t2.Rel = "Spouse" & t2.Age > t1.Age + 50 & t1.hid = t2.hid)"#,
                "hid",
            )
            .unwrap(),
            parse_dc(
                "DC_OC_low",
                r#"!(t1.Rel = "Owner" & t1.Multi-ling = 1 & t2.Rel = "Child" & t2.Age < t1.Age - 50 & t1.hid = t2.hid)"#,
                "hid",
            )
            .unwrap(),
            parse_dc(
                "DC_OC_up",
                r#"!(t1.Rel = "Owner" & t1.Multi-ling = 1 & t2.Rel = "Child" & t2.Age > t1.Age - 12 & t1.hid = t2.hid)"#,
                "hid",
            )
            .unwrap(),
        ]
    }

    /// A Phase I record with a partially pinned invalid row. CC `A`
    /// (Chicago owners, 3) has the children `D` (Chicago houses, 2) and `E`
    /// (Chicago flats, 1). Owner 0 completes with a Chicago house and owner
    /// 1 with a Chicago flat; owner 2 is pinned on `Area` = Chicago alone,
    /// as Algorithm 2 claims for `A`; leftover completion then finishes
    /// owner 3 and the child with Boston combos, but every combo that
    /// agrees with owner 2's pin feeds `D` or `E`, which owner 2 newly
    /// matches, so it stays invalid. (Algorithm 2 itself never leaves such
    /// a row: it claims for `A` only rows that match no child its combo
    /// feeds.) Combos: Boston flat, Boston house, Chicago flat, Chicago
    /// house; one household each, in that order.
    pub fn pinned_invalid() -> (CExtensionInstance, crate::phase1::P1) {
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::foreign_key("hid", Dtype::Int),
        ])
        .unwrap();
        let mut persons = Relation::new("Persons", schema);
        for (pid, rel) in [
            (1, "Owner"),
            (2, "Owner"),
            (3, "Owner"),
            (4, "Owner"),
            (5, "Child"),
        ] {
            persons
                .push_row(&[Some(Value::Int(pid)), Some(Value::str(rel)), None])
                .unwrap();
        }
        let schema = Schema::new(vec![
            ColumnDef::key("hid", Dtype::Int),
            ColumnDef::attr("Area", Dtype::Str),
            ColumnDef::attr("Type", Dtype::Str),
        ])
        .unwrap();
        let mut housing = Relation::new("Housing", schema);
        for (hid, area, ty) in [
            (1, "Boston", "Flat"),
            (2, "Boston", "House"),
            (3, "Chicago", "Flat"),
            (4, "Chicago", "House"),
        ] {
            housing
                .push_full_row(&[Value::Int(hid), Value::str(area), Value::str(ty)])
                .unwrap();
        }
        let r2: std::collections::HashSet<String> =
            ["Area".to_owned(), "Type".to_owned()].into_iter().collect();
        let ccs = [
            ("A", r#"| Rel = "Owner" & Area = "Chicago" | = 3"#),
            (
                "D",
                r#"| Rel = "Owner" & Area = "Chicago" & Type = "House" | = 2"#,
            ),
            (
                "E",
                r#"| Rel = "Owner" & Area = "Chicago" & Type = "Flat" | = 1"#,
            ),
        ]
        .map(|(name, cc)| parse_cc(name, cc, &r2).unwrap());
        let instance = CExtensionInstance::new(persons, housing, ccs.to_vec(), vec![]).unwrap();
        let mut p1 = crate::phase1::P1::build(&instance, &crate::SolverConfig::hybrid()).unwrap();
        p1.set_combo(0, 3);
        p1.set_combo(1, 2);
        assert!(p1.pin(&[2], 2, &instance.ccs[0].r2));
        let invalid = crate::phase1::compressed::complete_leftovers(&mut p1, 1);
        assert_eq!(invalid, [2]);
        (instance, p1)
    }

    /// The full running-example instance.
    pub fn running_example() -> CExtensionInstance {
        CExtensionInstance::new(persons(), housing(), figure2_ccs(), figure2_dcs()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use cextend_table::{ColumnDef, Dtype, Schema, Value};

    #[test]
    fn running_example_validates() {
        let inst = running_example();
        assert_eq!(inst.r1.n_rows(), 9);
        assert_eq!(inst.r2.n_rows(), 6);
        assert_eq!(inst.r2_cc_columns(), vec!["Area".to_owned()]);
    }

    #[test]
    fn fk_must_be_missing() {
        let mut r1 = persons();
        let fk = r1.schema().fk_col().unwrap();
        r1.set(0, fk, Some(Value::Int(1))).unwrap();
        let err = CExtensionInstance::new(r1, housing(), vec![], vec![]);
        assert!(matches!(err, Err(CoreError::Validation(_))));
    }

    #[test]
    fn duplicate_r2_keys_rejected() {
        let mut r2 = housing();
        r2.push_full_row(&[Value::Int(1), Value::str("Chicago")])
            .unwrap();
        let err = CExtensionInstance::new(persons(), r2, vec![], vec![]);
        assert!(matches!(err, Err(CoreError::Validation(_))));
    }

    #[test]
    fn cc_referencing_unknown_column_rejected() {
        let r2cols: std::collections::HashSet<String> = ["Area".to_owned()].into_iter().collect();
        let bad = cextend_constraints::parse_cc("bad", r#"| Nope = 1 | = 0"#, &r2cols).unwrap();
        let err = CExtensionInstance::new(persons(), housing(), vec![bad], vec![]);
        assert!(matches!(err, Err(CoreError::Validation(_))));
    }

    #[test]
    fn dc_referencing_unknown_column_rejected() {
        let bad =
            cextend_constraints::parse_dc("bad", r#"!(t1.Nope = 1 & t1.hid = t2.hid)"#, "hid")
                .unwrap();
        let err = CExtensionInstance::new(persons(), housing(), vec![], vec![bad]);
        assert!(matches!(err, Err(CoreError::Validation(_))));
    }

    #[test]
    fn fk_key_type_mismatch_rejected() {
        let schema = Schema::new(vec![
            ColumnDef::key("hid", Dtype::Str),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut r2 = Relation::new("Housing", schema);
        r2.push_full_row(&[Value::str("h1"), Value::str("Chicago")])
            .unwrap();
        let err = CExtensionInstance::new(persons(), r2, vec![], vec![]);
        assert!(matches!(err, Err(CoreError::Validation(_))));
    }
}
