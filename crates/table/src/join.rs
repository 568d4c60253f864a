//! Foreign-key join views.
//!
//! The paper's `V_join` "represents" `R1 ⋈_{FK=K2} R2`: it is initialized
//! with a copy of `R1`'s key and attribute columns plus one empty column
//! per non-key column of `R2` (Section 3.1). Because of the foreign-key
//! dependence, `|V_join| = |R1|` and row `i` of `V_join` corresponds to row
//! `i` of `R1` — an invariant the whole solver relies on. The solver itself
//! never builds that initial view ([`init_join_view`]): it decides the
//! `R2`-side values per row of `R1` and gathers the final view once, with
//! [`join_matched`]; the scalar oracles that test it read and write the
//! initial view's cells.
//!
//! Every view here is one typed [`gather`] of columns taken whole (their
//! buffers shared, not copied), read through row matches, or left missing:
//! [`fk_join_on`] is the [`fk_matches`] key probe followed by that gather.

use crate::error::{Result, TableError};
use crate::relation::{Relation, RelationBuilder, RowId};
use crate::schema::{ColId, Role, Schema};
use std::collections::HashMap;

/// Column bookkeeping for a join view `V_join(K1, A1..Ap, B1..Bq)`.
#[derive(Clone, Debug)]
pub struct JoinLayout {
    /// Index of `K1` in the view.
    pub key_col: ColId,
    /// Indices of `R1`'s attribute columns in the view, in `R1` order.
    pub r1_attr_cols: Vec<ColId>,
    /// Indices of `R2`'s attribute columns in the view, in `R2` order.
    pub r2_attr_cols: Vec<ColId>,
    /// For each entry of `r2_attr_cols`, the matching column index in `R2`.
    pub r2_source_cols: Vec<ColId>,
}

/// Builds the schema of `V_join` from the schemas of `R1` and `R2`.
///
/// The view keeps `R1`'s key and attributes (dropping the FK column) and
/// appends `R2`'s attribute columns (dropping `K2`). Name clashes between the
/// two relations are rejected.
pub fn join_schema(r1: &Schema, r2: &Schema) -> Result<(Schema, JoinLayout)> {
    let key = r1
        .key_col()
        .ok_or_else(|| TableError::SchemaViolation("R1 must have exactly one key column".into()))?;
    let mut cols = Vec::new();
    let mut r1_attr_cols = Vec::new();
    cols.push(r1.column(key).clone());
    for &a in &r1.attr_cols() {
        r1_attr_cols.push(cols.len());
        cols.push(r1.column(a).clone());
    }
    let mut r2_attr_cols = Vec::new();
    let mut r2_source_cols = Vec::new();
    for &b in &r2.attr_cols() {
        r2_attr_cols.push(cols.len());
        r2_source_cols.push(b);
        let mut def = r2.column(b).clone();
        def.role = Role::Attr;
        cols.push(def);
    }
    let schema = Schema::new(cols)?;
    Ok((
        schema,
        JoinLayout {
            key_col: 0,
            r1_attr_cols,
            r2_attr_cols,
            r2_source_cols,
        },
    ))
}

/// Match of a row that joins no row: its FK cell is missing or names no
/// key. [`gather`] leaves the row's matched cells missing.
pub const NO_MATCH: u32 = u32::MAX;

/// Where [`gather`] reads one output column.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    /// A column of a relation, row for row: its buffer, shared.
    Rows(&'a Relation, ColId),
    /// A column of a relation at the row each output row matches: entry
    /// `i` of the matches names the row output row `i` reads, or is
    /// [`NO_MATCH`].
    Matched(&'a Relation, ColId, &'a [u32]),
    /// A missing cell in every row.
    Missing,
}

/// The typed gather behind every join view: a relation named `name` over
/// `schema` with `n_rows` rows, whose column `j` reads `sources[j]`. Cells
/// move as typed values, never boxed, and a [`Source::Rows`] column is not
/// copied at all: the output shares its buffer (copy-on-write, see
/// [`Relation`]).
pub fn gather(
    name: &str,
    schema: Schema,
    n_rows: usize,
    sources: &[Source<'_>],
) -> Result<Relation> {
    if sources.len() != schema.len() {
        return Err(TableError::ArityMismatch {
            expected: schema.len(),
            got: sources.len(),
        });
    }
    let mut b = RelationBuilder::new(name, schema, 0);
    for (col, source) in sources.iter().enumerate() {
        match *source {
            Source::Rows(from, src) => b.append_column(col, from, src)?,
            Source::Matched(from, src, matches) => {
                let rows = matches
                    .iter()
                    .map(|&m| (m != NO_MATCH).then_some(m as RowId));
                b.append_gather(col, from, src, rows)?;
            }
            Source::Missing => b.append_missing(col, n_rows),
        }
    }
    b.freeze()
}

/// The name of `V_join` over `r1` and `r2`: `VJoin(R1, R2)`.
pub fn join_view_name(r1: &Relation, r2: &Relation) -> String {
    format!("VJoin({}, {})", r1.name(), r2.name())
}

/// Initializes `V_join` as a copy of `R1` (key + attributes, same row order)
/// with every `R2`-originated column empty (Section 3.1, Example 3.1).
pub fn init_join_view(r1: &Relation, r2: &Relation) -> Result<(Relation, JoinLayout)> {
    let (schema, layout) = join_schema(r1.schema(), r2.schema())?;
    let mut sources = r1_sources(r1);
    sources.extend(layout.r2_attr_cols.iter().map(|_| Source::Missing));
    let view = gather(&join_view_name(r1, r2), schema, r1.n_rows(), &sources)?;
    Ok((view, layout))
}

/// `R1`'s key and attribute columns, row for row: the first columns of
/// every join view.
fn r1_sources(r1: &Relation) -> Vec<Source<'_>> {
    let key = r1.schema().key_col().expect("validated by join_schema");
    std::iter::once(key)
        .chain(r1.schema().attr_cols())
        .map(|c| Source::Rows(r1, c))
        .collect()
}

/// `R1 ⋈ R2` with row `i` of `r1` joined to row `matches[i]` of `r2` (its
/// `R2`-side cells missing where that is [`NO_MATCH`]), in `R1` order.
pub fn join_matched(name: &str, r1: &Relation, r2: &Relation, matches: &[u32]) -> Result<Relation> {
    let (schema, layout) = join_schema(r1.schema(), r2.schema())?;
    let mut sources = r1_sources(r1);
    sources.extend(
        layout
            .r2_source_cols
            .iter()
            .map(|&b| Source::Matched(r2, b, matches)),
    );
    gather(name, schema, r1.n_rows(), &sources)
}

/// The typed key probe: per row of `r1`, the row of `r2` whose key equals
/// its `fk` cell, or [`NO_MATCH`] when that cell is missing or dangling. A
/// dtype mismatch between the FK and the key matches nothing; of rows
/// repeating a key, the last wins.
pub fn fk_matches(r1: &Relation, fk: ColId, r2: &Relation) -> Result<Vec<u32>> {
    let k2 = r2
        .schema()
        .key_col()
        .ok_or_else(|| TableError::SchemaViolation("R2 must have exactly one key column".into()))?;
    if r2.n_rows() >= NO_MATCH as usize {
        return Err(TableError::SchemaViolation(format!(
            "`{}` has more rows than a match can name",
            r2.name()
        )));
    }
    fn probe<K: Eq + std::hash::Hash>(
        keys: impl Iterator<Item = Option<K>>,
        fks: impl Iterator<Item = Option<K>>,
    ) -> Vec<u32> {
        let by_key: HashMap<K, u32> = keys
            .enumerate()
            .filter_map(|(r, k)| Some((k?, r as u32)))
            .collect();
        fks.map(|k| k.and_then(|k| by_key.get(&k).copied()).unwrap_or(NO_MATCH))
            .collect()
    }
    let (rows1, rows2) = (0..r1.n_rows(), 0..r2.n_rows());
    Ok(
        match (
            r1.int_view(fk),
            r2.int_view(k2),
            r1.sym_view(fk),
            r2.sym_view(k2),
        ) {
            (Some(f), Some(k), ..) => probe(rows2.map(|r| k.get(r)), rows1.map(|r| f.get(r))),
            (.., Some(f), Some(k)) => probe(rows2.map(|r| k.get(r)), rows1.map(|r| f.get(r))),
            _ => vec![NO_MATCH; r1.n_rows()],
        },
    )
}

/// Computes the real foreign-key join `R1 ⋈_{FK=K2} R2`, producing rows in
/// `R1` order. Rows whose FK is missing or dangling produce missing
/// `R2`-side cells. `R1` must have exactly one FK column; tables with
/// several (snowflake fact tables) use [`fk_join_on`].
pub fn fk_join(r1: &Relation, r2: &Relation) -> Result<Relation> {
    let fk = r1.schema().fk_col().ok_or_else(|| {
        TableError::SchemaViolation("R1 must have exactly one foreign-key column".into())
    })?;
    fk_join_on(r1, r2, &r1.schema().column(fk).name)
}

/// [`fk_join`] through a named FK column (for relations with several
/// foreign keys): the [`fk_matches`] probe, then the [`join_matched`]
/// gather.
pub fn fk_join_on(r1: &Relation, r2: &Relation, fk_col: &str) -> Result<Relation> {
    let fk = r1.schema().require(fk_col, r1.name())?;
    if r1.schema().column(fk).role != Role::ForeignKey {
        return Err(TableError::SchemaViolation(format!(
            "column `{fk_col}` of `{}` is not a foreign key",
            r1.name()
        )));
    }
    let matches = fk_matches(r1, fk, r2)?;
    let name = format!("Join({}, {})", r1.name(), r2.name());
    join_matched(&name, r1, r2, &matches)
}

/// `true` if two relations have identical schemas (names, types, roles) and
/// identical cell contents in the same row order.
pub fn relations_equal_ordered(a: &Relation, b: &Relation) -> bool {
    if a.n_rows() != b.n_rows() || a.schema().len() != b.schema().len() {
        return false;
    }
    for (ca, cb) in a.schema().columns().iter().zip(b.schema().columns()) {
        if ca != cb {
            return false;
        }
    }
    // Column-at-a-time typed compare (schemas matched, so dtypes agree).
    for c in 0..a.schema().len() {
        match (a.int_view(c), b.int_view(c)) {
            (Some(va), Some(vb)) => {
                if (0..a.n_rows()).any(|r| va.get(r) != vb.get(r)) {
                    return false;
                }
            }
            _ => {
                let va = a.sym_view(c).expect("columns are int or sym");
                let vb = b.sym_view(c).expect("columns are int or sym");
                if (0..a.n_rows()).any(|r| va.get(r) != vb.get(r)) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{Dtype, Value};

    fn r1() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::foreign_key("hid", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("Persons", schema);
        for (pid, age, rl, hid) in [
            (1, 75, "Owner", Some(2)),
            (2, 24, "Spouse", Some(2)),
            (3, 30, "Owner", None),
        ] {
            r.push_row(&[
                Some(Value::Int(pid)),
                Some(Value::Int(age)),
                Some(Value::str(rl)),
                hid.map(Value::Int),
            ])
            .unwrap();
        }
        r
    }

    fn r2() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::key("hid", Dtype::Int),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut r = Relation::new("Housing", schema);
        for (hid, area) in [(1, "Chicago"), (2, "Chicago"), (5, "NYC")] {
            r.push_full_row(&[Value::Int(hid), Value::str(area)])
                .unwrap();
        }
        r
    }

    #[test]
    fn join_schema_shape() {
        let (schema, layout) = join_schema(r1().schema(), r2().schema()).unwrap();
        assert_eq!(schema.len(), 4); // pid, Age, Rel, Area
        assert_eq!(schema.column(0).name, "pid");
        assert_eq!(schema.column(3).name, "Area");
        assert_eq!(schema.column(3).role, Role::Attr);
        assert_eq!(layout.r1_attr_cols, vec![1, 2]);
        assert_eq!(layout.r2_attr_cols, vec![3]);
    }

    #[test]
    fn init_view_copies_r1_and_blanks_r2_columns() {
        let (view, layout) = init_join_view(&r1(), &r2()).unwrap();
        assert_eq!(view.n_rows(), 3);
        assert_eq!(view.get(0, 1), Some(Value::Int(75)));
        assert_eq!(view.get(0, layout.r2_attr_cols[0]), None);
        assert_eq!(view.get(2, 2), Some(Value::str("Owner")));
    }

    #[test]
    fn fk_join_follows_keys_and_handles_missing() {
        let j = fk_join(&r1(), &r2()).unwrap();
        assert_eq!(j.get(0, 3), Some(Value::str("Chicago")));
        assert_eq!(j.get(1, 3), Some(Value::str("Chicago")));
        // Row 2 has no FK, so R2-side cells are missing.
        assert_eq!(j.get(2, 3), None);
    }

    #[test]
    fn gather_shares_the_columns_it_takes_whole() {
        let (persons, housing) = (r1(), r2());
        let mut j = fk_join(&persons, &housing).unwrap();
        let shares = |a: &Relation, ca, b: &Relation, cb| {
            std::sync::Arc::ptr_eq(a.column_buffer(ca), b.column_buffer(cb))
        };
        assert!((0..3).all(|c| shares(&j, c, &persons, c)));
        assert!(!shares(&j, 3, &housing, 1));
        // A write to the join copies its own column and leaves R1's.
        j.set(0, 1, Some(Value::Int(1))).unwrap();
        assert!(!shares(&j, 1, &persons, 1));
        assert_eq!(persons.get(0, 1), Some(Value::Int(75)));
    }

    #[test]
    fn fk_join_on_selects_among_multiple_fks() {
        let schema = Schema::new(vec![
            ColumnDef::key("id", Dtype::Int),
            ColumnDef::attr("x", Dtype::Int),
            ColumnDef::foreign_key("a_id", Dtype::Int),
            ColumnDef::foreign_key("b_id", Dtype::Int),
        ])
        .unwrap();
        let mut fact = Relation::new("Fact", schema);
        fact.push_row(&[
            Some(Value::Int(1)),
            Some(Value::Int(9)),
            Some(Value::Int(2)),
            Some(Value::Int(5)),
        ])
        .unwrap();
        let dim = r2(); // keyed by hid: 1, 2, 5
                        // Plain fk_join refuses ambiguous FKs…
        assert!(fk_join(&fact, &dim).is_err());
        // …but fk_join_on works per column.
        let ja = fk_join_on(&fact, &dim, "a_id").unwrap();
        assert_eq!(
            ja.get(0, ja.schema().col_id("Area").unwrap()),
            Some(Value::str("Chicago"))
        );
        let jb = fk_join_on(&fact, &dim, "b_id").unwrap();
        assert_eq!(
            jb.get(0, jb.schema().col_id("Area").unwrap()),
            Some(Value::str("NYC"))
        );
        // Joining on a non-FK column is rejected.
        assert!(fk_join_on(&fact, &dim, "x").is_err());
    }

    #[test]
    fn fk_join_dangling_key_yields_missing() {
        let mut p = r1();
        let fk = p.schema().fk_col().unwrap();
        p.set(2, fk, Some(Value::Int(999))).unwrap();
        let j = fk_join(&p, &r2()).unwrap();
        assert_eq!(j.get(2, 3), None);
    }

    #[test]
    fn equality_check() {
        let a = fk_join(&r1(), &r2()).unwrap();
        let mut b = fk_join(&r1(), &r2()).unwrap();
        assert!(relations_equal_ordered(&a, &b));
        b.set(0, 1, Some(Value::Int(99))).unwrap();
        assert!(!relations_equal_ordered(&a, &b));
    }

    #[test]
    fn name_clash_rejected() {
        let schema1 = Schema::new(vec![
            ColumnDef::key("id", Dtype::Int),
            ColumnDef::attr("x", Dtype::Int),
            ColumnDef::foreign_key("fk", Dtype::Int),
        ])
        .unwrap();
        let schema2 = Schema::new(vec![
            ColumnDef::key("k", Dtype::Int),
            ColumnDef::attr("x", Dtype::Int),
        ])
        .unwrap();
        assert!(join_schema(&schema1, &schema2).is_err());
    }
}
