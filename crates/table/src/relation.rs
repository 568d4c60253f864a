//! Columnar relations with missing cells.
//!
//! The C-Extension problem works on relations where an entire column can be
//! missing (the foreign key of `R1`, or the `B` columns of the join view
//! before Phase I completes them), and cells are filled in incrementally.
//!
//! Storage is genuinely columnar (the v2 engine): integer columns are dense
//! `Vec<i64>` arrays paired with a validity bitmap (one bit per row, 64 rows
//! per block), and categorical columns are dictionary-encoded — a dense
//! `Vec<u32>` of per-column codes plus a per-column dictionary mapping codes
//! to interned [`Sym`]s. Missing cells cost one cleared validity bit instead
//! of an `Option` discriminant per cell, and hot loops read through
//! [`IntColumnView`]/[`SymColumnView`] without constructing a boxed
//! [`Value`] per access. Bulk loads go through [`RelationBuilder`]
//! (reserve → append columnar chunks → freeze).
//!
//! Column buffers are shared copy-on-write. Cloning a relation shares
//! every buffer, and so does a gather that takes a column whole
//! ([`crate::join::gather`]). A write copies only the column it writes, and
//! only while another relation still holds that buffer.

use crate::error::{Result, TableError};
use crate::schema::{ColId, Schema};
use crate::value::{Dtype, Sym, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a row within a relation.
pub type RowId = usize;

/// Reads one presence bit out of a validity bitmap.
#[inline]
fn bit_get(blocks: &[u64], row: usize) -> bool {
    (blocks[row >> 6] >> (row & 63)) & 1 == 1
}

/// Writes one presence bit.
#[inline]
fn bit_set(blocks: &mut [u64], row: usize, present: bool) {
    let mask = 1u64 << (row & 63);
    if present {
        blocks[row >> 6] |= mask;
    } else {
        blocks[row >> 6] &= !mask;
    }
}

/// Appends one presence bit for row `len` (the length before the push),
/// growing the block vector when the row crosses into a new block.
#[inline]
fn bit_push(blocks: &mut Vec<u64>, len: usize, present: bool) {
    if len & 63 == 0 {
        blocks.push(0);
    }
    if present {
        *blocks.last_mut().expect("block pushed above") |= 1u64 << (len & 63);
    }
}

/// Number of present rows among the first `len` (counts set bits with a
/// masked tail block).
fn bit_count(blocks: &[u64], len: usize) -> usize {
    let full = len >> 6;
    let mut n: usize = blocks[..full].iter().map(|b| b.count_ones() as usize).sum();
    if len & 63 != 0 {
        n += (blocks[full] & ((1u64 << (len & 63)) - 1)).count_ones() as usize;
    }
    n
}

/// A dense integer column: values plus a validity bitmap. The value slot of
/// a missing row holds an unspecified placeholder and must not be read.
#[derive(Clone, Debug, Default)]
pub struct IntColumn {
    data: Vec<i64>,
    validity: Vec<u64>,
}

impl IntColumn {
    fn with_capacity(cap: usize) -> IntColumn {
        IntColumn {
            data: Vec::with_capacity(cap),
            validity: Vec::with_capacity(cap.div_ceil(64)),
        }
    }

    #[inline]
    fn get(&self, row: RowId) -> Option<i64> {
        let v = self.data[row];
        if bit_get(&self.validity, row) {
            Some(v)
        } else {
            None
        }
    }

    #[inline]
    fn push(&mut self, value: Option<i64>) {
        bit_push(&mut self.validity, self.data.len(), value.is_some());
        self.data.push(value.unwrap_or(0));
    }

    #[inline]
    fn set(&mut self, row: RowId, value: Option<i64>) {
        if let Some(x) = value {
            self.data[row] = x;
        }
        bit_set(&mut self.validity, row, value.is_some());
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<i64>()
            + self.validity.capacity() * std::mem::size_of::<u64>()
    }
}

/// A dictionary-encoded categorical column: dense `u32` codes plus the
/// per-column dictionary (code → [`Sym`], insertion-ordered) and its reverse
/// index. The code slot of a missing row holds an unspecified placeholder.
#[derive(Clone, Debug, Default)]
pub struct SymColumn {
    codes: Vec<u32>,
    validity: Vec<u64>,
    dict: Vec<Sym>,
    index: HashMap<Sym, u32>,
}

impl SymColumn {
    fn with_capacity(cap: usize) -> SymColumn {
        SymColumn {
            codes: Vec::with_capacity(cap),
            validity: Vec::with_capacity(cap.div_ceil(64)),
            dict: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The code for `sym`, inserting it into the dictionary if new.
    #[inline]
    fn code_for(&mut self, sym: Sym) -> u32 {
        if let Some(&c) = self.index.get(&sym) {
            return c;
        }
        let c = u32::try_from(self.dict.len()).expect("dictionary exceeds u32 codes");
        self.dict.push(sym);
        self.index.insert(sym, c);
        c
    }

    #[inline]
    fn get(&self, row: RowId) -> Option<Sym> {
        let c = self.codes[row];
        if bit_get(&self.validity, row) {
            Some(self.dict[c as usize])
        } else {
            None
        }
    }

    #[inline]
    fn push(&mut self, value: Option<Sym>) {
        bit_push(&mut self.validity, self.codes.len(), value.is_some());
        match value {
            Some(s) => {
                let c = self.code_for(s);
                self.codes.push(c);
            }
            None => self.codes.push(0),
        }
    }

    #[inline]
    fn set(&mut self, row: RowId, value: Option<Sym>) {
        if let Some(s) = value {
            self.codes[row] = self.code_for(s);
        }
        bit_set(&mut self.validity, row, value.is_some());
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<u32>()
            + self.validity.capacity() * std::mem::size_of::<u64>()
            + self.dict.capacity() * std::mem::size_of::<Sym>()
            + self.index.capacity() * (std::mem::size_of::<(Sym, u32)>() + 8)
    }
}

/// One column of data. The variant always matches the schema's declared type.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// Integer column.
    Int(IntColumn),
    /// Categorical column (dictionary-encoded).
    Str(SymColumn),
}

impl ColumnData {
    fn new(dtype: Dtype) -> ColumnData {
        ColumnData::with_capacity(dtype, 0)
    }

    fn with_capacity(dtype: Dtype, cap: usize) -> ColumnData {
        match dtype {
            Dtype::Int => ColumnData::Int(IntColumn::with_capacity(cap)),
            Dtype::Str => ColumnData::Str(SymColumn::with_capacity(cap)),
        }
    }

    /// A column of `n` missing cells.
    fn missing(dtype: Dtype, n: usize) -> ColumnData {
        let validity = vec![0; n.div_ceil(64)];
        match dtype {
            Dtype::Int => ColumnData::Int(IntColumn {
                data: vec![0; n],
                validity,
            }),
            Dtype::Str => ColumnData::Str(SymColumn {
                codes: vec![0; n],
                validity,
                ..SymColumn::default()
            }),
        }
    }

    /// Reserves room for `n` more cells.
    fn reserve(&mut self, n: usize) {
        let words = (self.len() + n).div_ceil(64);
        let validity = match self {
            ColumnData::Int(c) => {
                c.data.reserve(n);
                &mut c.validity
            }
            ColumnData::Str(c) => {
                c.codes.reserve(n);
                &mut c.validity
            }
        };
        validity.reserve(words - validity.len());
    }

    fn dtype(&self) -> Dtype {
        match self {
            ColumnData::Int(_) => Dtype::Int,
            ColumnData::Str(_) => Dtype::Str,
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Int(c) => c.data.len(),
            ColumnData::Str(c) => c.codes.len(),
        }
    }

    fn get(&self, row: RowId) -> Option<Value> {
        match self {
            ColumnData::Int(c) => c.get(row).map(Value::Int),
            ColumnData::Str(c) => c.get(row).map(Value::Str),
        }
    }

    fn push(&mut self, value: Option<Value>) -> std::result::Result<(), Dtype> {
        match (self, value) {
            (ColumnData::Int(c), Some(Value::Int(x))) => c.push(Some(x)),
            (ColumnData::Int(c), None) => c.push(None),
            (ColumnData::Str(c), Some(Value::Str(s))) => c.push(Some(s)),
            (ColumnData::Str(c), None) => c.push(None),
            (ColumnData::Int(_), Some(other)) | (ColumnData::Str(_), Some(other)) => {
                return Err(other.dtype())
            }
        }
        Ok(())
    }

    fn set(&mut self, row: RowId, value: Option<Value>) -> std::result::Result<(), Dtype> {
        match (self, value) {
            (ColumnData::Int(c), Some(Value::Int(x))) => c.set(row, Some(x)),
            (ColumnData::Int(c), None) => c.set(row, None),
            (ColumnData::Str(c), Some(Value::Str(s))) => c.set(row, Some(s)),
            (ColumnData::Str(c), None) => c.set(row, None),
            (ColumnData::Int(_), Some(other)) | (ColumnData::Str(_), Some(other)) => {
                return Err(other.dtype())
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(c) => c.heap_bytes(),
            ColumnData::Str(c) => c.heap_bytes(),
        }
    }
}

/// A borrowed view of one integer column — **the primary read API** for hot
/// loops (conflict-hypergraph enumeration, index building, partitioning):
/// dense values + validity bits through one slice pair, no `Option<Value>`
/// construction per access.
#[derive(Clone, Copy, Debug)]
pub struct IntColumnView<'a> {
    data: &'a [i64],
    validity: &'a [u64],
}

impl<'a> IntColumnView<'a> {
    /// Reads a cell; `None` means the cell is missing.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn get(&self, row: RowId) -> Option<i64> {
        let v = self.data[row];
        if bit_get(self.validity, row) {
            Some(v)
        } else {
            None
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The packed validity bitmap: bit `row & 63` of word `row >> 6` is set
    /// iff the cell is present. Bits at positions `>= len()` are zero. This
    /// is the word-wise scan API — Phase 1 builds whole-relation
    /// empty/match bitmaps by AND/OR-ing these words instead of probing
    /// rows one bit at a time.
    pub fn validity_words(&self) -> &'a [u64] {
        self.validity
    }
}

/// A borrowed view of one dictionary-encoded categorical column (see
/// [`IntColumnView`]). Besides decoded [`Sym`] reads it exposes the raw
/// `u32` codes and the per-column dictionary, which grouping and
/// partitioning use to avoid re-hashing symbols per row.
#[derive(Clone, Copy, Debug)]
pub struct SymColumnView<'a> {
    codes: &'a [u32],
    validity: &'a [u64],
    dict: &'a [Sym],
    index: &'a HashMap<Sym, u32>,
}

impl<'a> SymColumnView<'a> {
    /// Reads a cell; `None` means the cell is missing.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn get(&self, row: RowId) -> Option<Sym> {
        let c = self.codes[row];
        if bit_get(self.validity, row) {
            Some(self.dict[c as usize])
        } else {
            None
        }
    }

    /// Reads the raw dictionary code of a cell; `None` when missing.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn code(&self, row: RowId) -> Option<u32> {
        let c = self.codes[row];
        if bit_get(self.validity, row) {
            Some(c)
        } else {
            None
        }
    }

    /// The column's dictionary: `dict()[code]` is the symbol for `code`.
    /// Codes are insertion-ordered, not sorted.
    pub fn dict(&self) -> &'a [Sym] {
        self.dict
    }

    /// The code `sym` is encoded as in this column, if it occurs at all —
    /// the typed probe for equality filters (a miss means no row of this
    /// column can ever equal `sym`).
    #[inline]
    pub fn code_of(&self, sym: Sym) -> Option<u32> {
        self.index.get(&sym).copied()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The packed validity bitmap (see
    /// [`IntColumnView::validity_words`]): bit `row & 63` of word
    /// `row >> 6` is set iff the cell is present; bits `>= len()` are zero.
    pub fn validity_words(&self) -> &'a [u64] {
        self.validity
    }
}

/// A named relation instance: a schema plus columnar data. `Clone` shares
/// the column buffers (see the module docs).
#[derive(Clone, Debug)]
pub struct Relation {
    name: String,
    schema: Schema,
    cols: Vec<Arc<ColumnData>>,
    n_rows: usize,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: &str, schema: Schema) -> Relation {
        let cols = schema
            .columns()
            .iter()
            .map(|c| Arc::new(ColumnData::new(c.dtype)))
            .collect();
        Relation {
            name: name.to_owned(),
            schema,
            cols,
            n_rows: 0,
        }
    }

    /// Creates an empty relation with row capacity pre-reserved.
    pub fn with_capacity(name: &str, schema: Schema, cap: usize) -> Relation {
        let cols = schema
            .columns()
            .iter()
            .map(|c| Arc::new(ColumnData::with_capacity(c.dtype, cap)))
            .collect();
        Relation {
            name: name.to_owned(),
            schema,
            cols,
            n_rows: 0,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the relation (used when deriving `R̂1` from `R1`).
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_owned();
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Appends a row given one optional value per column (in schema order).
    pub fn push_row(&mut self, row: &[Option<Value>]) -> Result<RowId> {
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        // Validate every cell before mutating so a failed push cannot leave
        // columns with unequal lengths.
        for (i, v) in row.iter().enumerate() {
            if let Some(v) = v {
                let expected = self.schema.column(i).dtype;
                if v.dtype() != expected {
                    return Err(TableError::TypeMismatch {
                        column: self.schema.column(i).name.clone(),
                        expected,
                        got: v.dtype(),
                    });
                }
            }
        }
        for (col, v) in self.cols.iter_mut().zip(row.iter()) {
            Arc::make_mut(col).push(*v).expect("types validated above");
        }
        self.n_rows += 1;
        debug_assert!(self.cols.iter().all(|c| c.len() == self.n_rows));
        Ok(self.n_rows - 1)
    }

    /// Appends a row where every cell is present.
    pub fn push_full_row(&mut self, row: &[Value]) -> Result<RowId> {
        let opts: Vec<Option<Value>> = row.iter().map(|v| Some(*v)).collect();
        self.push_row(&opts)
    }

    /// Reads a cell as a boxed [`Value`]; `None` means the cell is missing.
    ///
    /// **Cold path.** This is the convenience accessor for tests, CSV
    /// snapshots and debug printing; solver hot loops must go through the
    /// typed views ([`Relation::int_view`] / [`Relation::sym_view`]) or the
    /// typed scalar reads ([`Relation::get_int`] / [`Relation::get_sym`]).
    ///
    /// # Panics
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn get(&self, row: RowId, col: ColId) -> Option<Value> {
        self.cols[col].get(row)
    }

    /// Reads an integer cell directly (typed hot path).
    #[inline]
    pub fn get_int(&self, row: RowId, col: ColId) -> Option<i64> {
        match &*self.cols[col] {
            ColumnData::Int(c) => c.get(row),
            ColumnData::Str(_) => None,
        }
    }

    /// Reads a categorical cell directly (typed hot path).
    #[inline]
    pub fn get_sym(&self, row: RowId, col: ColId) -> Option<Sym> {
        match &*self.cols[col] {
            ColumnData::Str(c) => c.get(row),
            ColumnData::Int(_) => None,
        }
    }

    /// Borrows an integer column as a typed view, or `None` when `col` is
    /// categorical.
    #[inline]
    pub fn int_view(&self, col: ColId) -> Option<IntColumnView<'_>> {
        match &*self.cols[col] {
            ColumnData::Int(c) => Some(IntColumnView {
                data: &c.data,
                validity: &c.validity,
            }),
            ColumnData::Str(_) => None,
        }
    }

    /// Borrows a categorical column as a typed view, or `None` when `col`
    /// is an integer column.
    #[inline]
    pub fn sym_view(&self, col: ColId) -> Option<SymColumnView<'_>> {
        match &*self.cols[col] {
            ColumnData::Str(c) => Some(SymColumnView {
                codes: &c.codes,
                validity: &c.validity,
                dict: &c.dict,
                index: &c.index,
            }),
            ColumnData::Int(_) => None,
        }
    }

    /// Writes a cell (use `None` to blank it).
    pub fn set(&mut self, row: RowId, col: ColId, value: Option<Value>) -> Result<()> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfBounds {
                row,
                len: self.n_rows,
            });
        }
        Arc::make_mut(&mut self.cols[col])
            .set(row, value)
            .map_err(|got| TableError::TypeMismatch {
                column: self.schema.column(col).name.clone(),
                expected: self.schema.column(col).dtype,
                got,
            })
    }

    /// Blanks every cell of a column (e.g. erasing the FK column of `R1`)
    /// by installing a fresh all-missing buffer: the old one is never
    /// copied, and a relation sharing it keeps its cells.
    pub fn clear_column(&mut self, col: ColId) {
        let dtype = self.schema.column(col).dtype;
        self.cols[col] = Arc::new(ColumnData::missing(dtype, self.n_rows));
    }

    /// The buffer behind column `col`, shared with every relation that
    /// holds it: clone the [`Arc`] to carry the column elsewhere, compare
    /// with [`Arc::ptr_eq`] to see whether two relations share it.
    pub fn column_buffer(&self, col: ColId) -> &Arc<ColumnData> {
        &self.cols[col]
    }

    /// Installs `buffer` as column `col`, sharing it rather than copying
    /// its cells. Rejects a buffer of another type or length.
    pub fn replace_column(&mut self, col: ColId, buffer: Arc<ColumnData>) -> Result<()> {
        let def = self.schema.column(col);
        if buffer.dtype() != def.dtype {
            return Err(TableError::TypeMismatch {
                column: def.name.clone(),
                expected: def.dtype,
                got: buffer.dtype(),
            });
        }
        if buffer.len() != self.n_rows {
            return Err(TableError::ColumnLengthMismatch {
                relation: self.name.clone(),
                column: def.name.clone(),
                expected: self.n_rows,
                got: buffer.len(),
            });
        }
        self.cols[col] = buffer;
        Ok(())
    }

    /// `true` if every cell of `col` is missing.
    pub fn column_is_missing(&self, col: ColId) -> bool {
        let validity = match &*self.cols[col] {
            ColumnData::Int(c) => &c.validity,
            ColumnData::Str(c) => &c.validity,
        };
        bit_count(validity, self.n_rows) == 0
    }

    /// `true` if every cell of `col` is present.
    pub fn column_is_complete(&self, col: ColId) -> bool {
        let validity = match &*self.cols[col] {
            ColumnData::Int(c) => &c.validity,
            ColumnData::Str(c) => &c.validity,
        };
        bit_count(validity, self.n_rows) == self.n_rows
    }

    /// Materializes one row as a vector of optional values (cold path; see
    /// [`Relation::get`]).
    pub fn row(&self, row: RowId) -> Vec<Option<Value>> {
        (0..self.schema.len()).map(|c| self.get(row, c)).collect()
    }

    /// Iterates over all row ids.
    pub fn rows(&self) -> impl Iterator<Item = RowId> + '_ {
        0..self.n_rows
    }

    /// Distinct present values in a column, sorted.
    pub fn distinct_values(&self, col: ColId) -> Vec<Value> {
        match &*self.cols[col] {
            ColumnData::Int(c) => {
                let mut vals: Vec<Value> = (0..self.n_rows)
                    .filter_map(|r| c.get(r).map(Value::Int))
                    .collect();
                vals.sort();
                vals.dedup();
                vals
            }
            ColumnData::Str(c) => {
                // Scan codes once; the dictionary may hold symbols no longer
                // present (overwritten via `set`), so presence is per-row.
                let mut used = vec![false; c.dict.len()];
                for r in 0..self.n_rows {
                    if bit_get(&c.validity, r) {
                        used[c.codes[r] as usize] = true;
                    }
                }
                let mut vals: Vec<Value> = c
                    .dict
                    .iter()
                    .zip(&used)
                    .filter(|(_, &u)| u)
                    .map(|(&s, _)| Value::Str(s))
                    .collect();
                vals.sort();
                vals
            }
        }
    }

    /// Minimum and maximum present values of an integer column.
    pub fn int_range(&self, col: ColId) -> Option<(i64, i64)> {
        match &*self.cols[col] {
            ColumnData::Int(c) => {
                let mut it = (0..self.n_rows).filter_map(|r| c.get(r));
                let first = it.next()?;
                let (mut lo, mut hi) = (first, first);
                for x in it {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                Some((lo, hi))
            }
            ColumnData::Str(_) => None,
        }
    }

    /// Approximate heap footprint of the relation's column buffers, in
    /// bytes. A buffer shared with other relations counts in every relation
    /// that holds it; [`MemStats::capture`](crate::MemStats::capture)
    /// counts it once.
    pub fn heap_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.heap_bytes()).sum()
    }
}

impl fmt::Display for Relation {
    /// Pretty-prints up to 20 rows — intended for examples and debugging.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {} [{} rows]", self.name, self.schema, self.n_rows)?;
        let shown = self.n_rows.min(20);
        for r in 0..shown {
            write!(f, "  ")?;
            for c in 0..self.schema.len() {
                if c > 0 {
                    write!(f, " | ")?;
                }
                match self.get(r, c) {
                    Some(v) => write!(f, "{v}")?,
                    None => write!(f, "?")?,
                }
            }
            writeln!(f)?;
        }
        if shown < self.n_rows {
            writeln!(f, "  … {} more rows", self.n_rows - shown)?;
        }
        Ok(())
    }
}

/// Bulk-load path for the columnar engine: reserve once, append columnar
/// chunks per column in any order, then [`freeze`](RelationBuilder::freeze)
/// into a [`Relation`] — the load-then-index split (generators fill whole
/// columns without materializing `&[Option<Value>]` rows, and per-column
/// dictionaries build as data streams in).
///
/// Columns may grow independently between calls; `freeze` verifies they all
/// reached the same length and rejects ragged loads.
///
/// ```
/// use cextend_table::{ColumnDef, Dtype, RelationBuilder, Schema, Sym};
///
/// let schema = Schema::new(vec![
///     ColumnDef::key("id", Dtype::Int),
///     ColumnDef::attr("Area", Dtype::Str),
/// ]).unwrap();
/// let mut b = RelationBuilder::new("Housing", schema, 3);
/// b.append_ints(0, &[1, 2, 3]).unwrap();
/// b.append_syms(1, &[Sym::intern("NYC"), Sym::intern("NYC")]).unwrap();
/// b.append_missing(1, 1);
/// let rel = b.freeze().unwrap();
/// assert_eq!(rel.n_rows(), 3);
/// assert_eq!(rel.get_sym(2, 1), None);
/// ```
#[derive(Debug)]
pub struct RelationBuilder {
    name: String,
    schema: Schema,
    cols: Vec<Arc<ColumnData>>,
}

impl RelationBuilder {
    /// Starts a bulk load with `cap` rows reserved per column.
    pub fn new(name: &str, schema: Schema, cap: usize) -> RelationBuilder {
        let cols = schema
            .columns()
            .iter()
            .map(|c| Arc::new(ColumnData::with_capacity(c.dtype, cap)))
            .collect();
        RelationBuilder {
            name: name.to_owned(),
            schema,
            cols,
        }
    }

    /// The schema being loaded against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows appended to column `col` so far.
    pub fn col_len(&self, col: ColId) -> usize {
        self.cols[col].len()
    }

    fn type_err(&self, col: ColId, got: Dtype) -> TableError {
        TableError::TypeMismatch {
            column: self.schema.column(col).name.clone(),
            expected: self.schema.column(col).dtype,
            got,
        }
    }

    /// Appends a chunk of present integers to column `col`.
    pub fn append_ints(&mut self, col: ColId, chunk: &[i64]) -> Result<()> {
        match Arc::make_mut(&mut self.cols[col]) {
            ColumnData::Int(c) => {
                for &x in chunk {
                    c.push(Some(x));
                }
                Ok(())
            }
            ColumnData::Str(_) => Err(self.type_err(col, Dtype::Int)),
        }
    }

    /// Appends a chunk of optional integers to column `col`.
    pub fn append_opt_ints(&mut self, col: ColId, chunk: &[Option<i64>]) -> Result<()> {
        match Arc::make_mut(&mut self.cols[col]) {
            ColumnData::Int(c) => {
                for &x in chunk {
                    c.push(x);
                }
                Ok(())
            }
            ColumnData::Str(_) => Err(self.type_err(col, Dtype::Int)),
        }
    }

    /// Appends a chunk of present symbols to column `col`.
    pub fn append_syms(&mut self, col: ColId, chunk: &[Sym]) -> Result<()> {
        match Arc::make_mut(&mut self.cols[col]) {
            ColumnData::Str(c) => {
                for &s in chunk {
                    c.push(Some(s));
                }
                Ok(())
            }
            ColumnData::Int(_) => Err(self.type_err(col, Dtype::Str)),
        }
    }

    /// Appends a chunk of optional symbols to column `col`.
    pub fn append_opt_syms(&mut self, col: ColId, chunk: &[Option<Sym>]) -> Result<()> {
        match Arc::make_mut(&mut self.cols[col]) {
            ColumnData::Str(c) => {
                for &s in chunk {
                    c.push(s);
                }
                Ok(())
            }
            ColumnData::Int(_) => Err(self.type_err(col, Dtype::Str)),
        }
    }

    /// Appends `n` missing cells to column `col` (e.g. the erased FK column
    /// or the `R2`-side columns of a fresh join view).
    pub fn append_missing(&mut self, col: ColId, n: usize) {
        let column = Arc::make_mut(&mut self.cols[col]);
        column.reserve(n);
        match column {
            ColumnData::Int(c) => {
                for _ in 0..n {
                    c.push(None);
                }
            }
            ColumnData::Str(c) => {
                for _ in 0..n {
                    c.push(None);
                }
            }
        }
    }

    /// Appends column `src` of `from` whole. Into a column with no cells
    /// yet this shares `from`'s buffer instead of copying it.
    pub(crate) fn append_column(&mut self, col: ColId, from: &Relation, src: ColId) -> Result<()> {
        if self.cols[col].len() > 0 || from.cols[src].dtype() != self.schema.column(col).dtype {
            return self.append_gather(col, from, src, (0..from.n_rows()).map(Some));
        }
        self.cols[col] = Arc::clone(&from.cols[src]);
        Ok(())
    }

    /// Appends column `src` of `from` gathered through `rows`: one cell per
    /// entry, `from`'s cell at that row or a missing cell for `None` — the
    /// typed gather behind every join (see [`crate::join::gather`]). Values
    /// move unboxed; a categorical column translates `from`'s codes through
    /// a table filled on first use, so no cell is hashed.
    pub(crate) fn append_gather(
        &mut self,
        col: ColId,
        from: &Relation,
        src: ColId,
        rows: impl ExactSizeIterator<Item = Option<RowId>>,
    ) -> Result<()> {
        let column = Arc::make_mut(&mut self.cols[col]);
        column.reserve(rows.len());
        match (column, &*from.cols[src]) {
            (ColumnData::Int(out), ColumnData::Int(cells)) => {
                for row in rows {
                    out.push(row.and_then(|r| cells.get(r)));
                }
            }
            (ColumnData::Str(out), ColumnData::Str(cells)) => {
                let mut code_of = vec![u32::MAX; cells.dict.len()];
                for row in rows {
                    match row.filter(|&r| bit_get(&cells.validity, r)) {
                        Some(r) => {
                            let c = cells.codes[r] as usize;
                            if code_of[c] == u32::MAX {
                                code_of[c] = out.code_for(cells.dict[c]);
                            }
                            bit_push(&mut out.validity, out.codes.len(), true);
                            out.codes.push(code_of[c]);
                        }
                        None => out.push(None),
                    }
                }
            }
            _ => return Err(self.type_err(col, from.schema.column(src).dtype)),
        }
        Ok(())
    }

    /// Appends a chunk of optional boxed values (type-checked per cell) —
    /// the generic adapter for callers that already hold `Value`s.
    pub fn append_values(&mut self, col: ColId, chunk: &[Option<Value>]) -> Result<()> {
        let column = Arc::make_mut(&mut self.cols[col]);
        for &v in chunk {
            if let Err(got) = column.push(v) {
                return Err(self.type_err(col, got));
            }
        }
        Ok(())
    }

    /// Verifies all columns reached the same length and produces the
    /// relation. Ragged loads are rejected with
    /// [`TableError::ColumnLengthMismatch`].
    pub fn freeze(self) -> Result<Relation> {
        let n_rows = self.cols.first().map_or(0, |c| c.len());
        for (i, col) in self.cols.iter().enumerate() {
            if col.len() != n_rows {
                return Err(TableError::ColumnLengthMismatch {
                    relation: self.name,
                    column: self.schema.column(i).name.clone(),
                    expected: n_rows,
                    got: col.len(),
                });
            }
        }
        Ok(Relation {
            name: self.name,
            schema: self.schema,
            cols: self.cols,
            n_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn small() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::foreign_key("hid", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("Persons", schema);
        r.push_row(&[
            Some(Value::Int(1)),
            Some(Value::Int(75)),
            Some(Value::str("Owner")),
            None,
        ])
        .unwrap();
        r.push_row(&[
            Some(Value::Int(2)),
            Some(Value::Int(24)),
            Some(Value::str("Spouse")),
            None,
        ])
        .unwrap();
        r
    }

    #[test]
    fn push_and_get() {
        let r = small();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.get(0, 1), Some(Value::Int(75)));
        assert_eq!(r.get(1, 2), Some(Value::str("Spouse")));
        assert_eq!(r.get(0, 3), None);
        assert_eq!(r.get_int(0, 1), Some(75));
        assert_eq!(r.get_sym(1, 2), Some(Sym::intern("Spouse")));
        // Typed accessor on the wrong column type yields None.
        assert_eq!(r.get_int(0, 2), None);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut r = small();
        let err = r.push_row(&[
            Some(Value::Int(3)),
            Some(Value::str("oops")),
            Some(Value::str("Owner")),
            None,
        ]);
        assert!(matches!(err, Err(TableError::TypeMismatch { .. })));
        // Failed push must not corrupt the relation: row count unchanged and
        // every column still has exactly `n_rows` cells.
        assert_eq!(r.n_rows(), 2);
        let ok = r.push_row(&[
            Some(Value::Int(3)),
            Some(Value::Int(40)),
            Some(Value::str("Owner")),
            None,
        ]);
        assert!(ok.is_ok());
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.get(2, 1), Some(Value::Int(40)));
        let err = r.set(0, 1, Some(Value::str("oops")));
        assert!(matches!(err, Err(TableError::TypeMismatch { .. })));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = small();
        let err = r.push_row(&[Some(Value::Int(3))]);
        assert!(matches!(err, Err(TableError::ArityMismatch { .. })));
    }

    #[test]
    fn set_and_clear_column() {
        let mut r = small();
        assert!(r.column_is_missing(3));
        r.set(0, 3, Some(Value::Int(7))).unwrap();
        assert!(!r.column_is_missing(3));
        assert!(!r.column_is_complete(3));
        r.set(1, 3, Some(Value::Int(8))).unwrap();
        assert!(r.column_is_complete(3));
        r.clear_column(3);
        assert!(r.column_is_missing(3));
    }

    #[test]
    fn set_out_of_bounds() {
        let mut r = small();
        assert!(matches!(
            r.set(99, 0, None),
            Err(TableError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn distinct_and_range() {
        let r = small();
        assert_eq!(
            r.distinct_values(2),
            vec![Value::str("Owner"), Value::str("Spouse")]
        );
        assert_eq!(r.int_range(1), Some((24, 75)));
        assert_eq!(r.int_range(2), None);
        // Missing column has no distinct values and no range.
        assert_eq!(r.distinct_values(3), vec![]);
        assert_eq!(r.int_range(3), None);
    }

    #[test]
    fn distinct_values_ignores_stale_dictionary_entries() {
        // Overwriting the only occurrence of a symbol leaves it in the
        // column dictionary but out of the data; distinct_values must not
        // report it.
        let schema = Schema::new(vec![ColumnDef::attr("Rel", Dtype::Str)]).unwrap();
        let mut r = Relation::new("t", schema);
        r.push_full_row(&[Value::str("Gone")]).unwrap();
        r.set(0, 0, Some(Value::str("Here"))).unwrap();
        assert_eq!(r.distinct_values(0), vec![Value::str("Here")]);
    }

    #[test]
    fn display_renders_missing_as_question_mark() {
        let r = small();
        let s = r.to_string();
        assert!(s.contains('?'));
        assert!(s.contains("Owner"));
    }

    #[test]
    fn typed_views_read_raw_cells() {
        let mut r = small();
        r.set(0, 3, Some(Value::Int(9))).unwrap();
        let ages = r.int_view(1).unwrap();
        assert_eq!(ages.len(), 2);
        assert!(!ages.is_empty());
        assert_eq!(ages.get(0), Some(75));
        assert_eq!(ages.get(1), Some(24));
        let rels = r.sym_view(2).unwrap();
        assert_eq!(rels.get(0), Some(Sym::intern("Owner")));
        let hid = r.int_view(3).unwrap();
        assert_eq!(hid.get(0), Some(9));
        assert_eq!(hid.get(1), None);
        // Wrong-type requests return None instead of panicking.
        assert!(r.int_view(2).is_none());
        assert!(r.sym_view(1).is_none());
    }

    #[test]
    fn sym_view_exposes_dictionary_codes() {
        let r = small();
        let rels = r.sym_view(2).unwrap();
        // Codes are insertion-ordered: Owner was seen first.
        assert_eq!(rels.code(0), Some(0));
        assert_eq!(rels.code(1), Some(1));
        assert_eq!(rels.dict(), &[Sym::intern("Owner"), Sym::intern("Spouse")]);
        assert_eq!(rels.code_of(Sym::intern("Spouse")), Some(1));
        assert_eq!(rels.code_of(Sym::intern("NotThere")), None);
        // Same symbol always maps to the same code.
        assert_eq!(rels.get(0).map(|s| rels.code_of(s).unwrap()), rels.code(0));
    }

    /// `true` if `a` and `b` hold one buffer for column `col`.
    fn shares(a: &Relation, b: &Relation, col: ColId) -> bool {
        Arc::ptr_eq(a.column_buffer(col), b.column_buffer(col))
    }

    #[test]
    fn a_clone_shares_every_buffer() {
        let r = small();
        let copy = r.clone();
        assert!((0..4).all(|c| shares(&r, &copy, c)));
        assert!(crate::join::relations_equal_ordered(&r, &copy));
    }

    #[test]
    fn set_copies_only_the_written_column() {
        let r = small();
        let mut copy = r.clone();
        copy.set(0, 1, Some(Value::Int(76))).unwrap();
        copy.set(1, 2, Some(Value::str("Child"))).unwrap();
        assert_eq!((r.get_int(0, 1), copy.get_int(0, 1)), (Some(75), Some(76)));
        assert_eq!(r.get_sym(1, 2), Some(Sym::intern("Spouse")));
        assert_eq!(copy.get_sym(1, 2), Some(Sym::intern("Child")));
        assert!(!shares(&r, &copy, 1) && !shares(&r, &copy, 2));
        assert!(shares(&r, &copy, 0) && shares(&r, &copy, 3));
        // A buffer no other relation holds is written in place.
        let own = Arc::as_ptr(copy.column_buffer(1));
        copy.set(1, 1, Some(Value::Int(25))).unwrap();
        assert_eq!(Arc::as_ptr(copy.column_buffer(1)), own);
    }

    #[test]
    fn push_row_leaves_the_clone_it_was_copied_from() {
        let r = small();
        let mut grown = r.clone();
        grown
            .push_row(&[Some(Value::Int(3)), Some(Value::Int(9)), None, None])
            .unwrap();
        assert_eq!((r.n_rows(), grown.n_rows()), (2, 3));
        assert!((0..4).all(|c| !shares(&r, &grown, c)));
        assert_eq!(r.int_view(0).unwrap().len(), 2);
        assert_eq!(
            grown.row(2),
            [Some(Value::Int(3)), Some(Value::Int(9)), None, None]
        );
        assert_eq!(grown.row(0), r.row(0));
    }

    #[test]
    fn clear_column_installs_a_fresh_buffer() {
        let mut r = small();
        r.set(0, 3, Some(Value::Int(7))).unwrap();
        let mut erased = r.clone();
        erased.clear_column(3);
        erased.clear_column(2);
        assert!(erased.column_is_missing(3) && erased.column_is_missing(2));
        assert!(erased.sym_view(2).unwrap().dict().is_empty());
        assert_eq!(erased.int_view(3).unwrap().len(), 2);
        assert_eq!(r.get_int(0, 3), Some(7));
        assert_eq!(r.get_sym(1, 2), Some(Sym::intern("Spouse")));
        assert!(!shares(&r, &erased, 2) && !shares(&r, &erased, 3));
        assert!(shares(&r, &erased, 0) && shares(&r, &erased, 1));
        // The fresh buffer takes writes like any other.
        erased.set(1, 2, Some(Value::str("Owner"))).unwrap();
        assert_eq!(erased.get_sym(1, 2), Some(Sym::intern("Owner")));
    }

    #[test]
    fn replace_column_shares_and_rejects_a_mismatched_buffer() {
        let mut r = small();
        let mut filled = r.clone();
        filled.set(0, 3, Some(Value::Int(7))).unwrap();
        filled.set(1, 3, Some(Value::Int(8))).unwrap();
        r.replace_column(3, Arc::clone(filled.column_buffer(3)))
            .unwrap();
        assert!(shares(&r, &filled, 3));
        assert_eq!((r.get_int(0, 3), r.get_int(1, 3)), (Some(7), Some(8)));
        let rel = Arc::clone(r.column_buffer(2));
        assert!(matches!(
            r.replace_column(3, rel),
            Err(TableError::TypeMismatch { .. })
        ));
        let mut longer = small();
        longer.push_row(&[None, None, None, None]).unwrap();
        assert!(matches!(
            r.replace_column(3, Arc::clone(longer.column_buffer(3))),
            Err(TableError::ColumnLengthMismatch { .. })
        ));
        assert!(shares(&r, &filled, 3));
    }

    #[test]
    fn a_builder_append_copies_a_shared_column() {
        let r = small();
        let mut b = RelationBuilder::new("t", r.schema().clone(), 0);
        b.append_column(0, &r, 0).unwrap();
        b.append_column(1, &r, 1).unwrap();
        b.append_ints(0, &[3]).unwrap();
        assert_eq!((b.col_len(0), r.int_view(0).unwrap().len()), (3, 2));
        assert!(Arc::ptr_eq(&b.cols[1], r.column_buffer(1)));
        assert!(!Arc::ptr_eq(&b.cols[0], r.column_buffer(0)));
    }

    #[test]
    fn view_validity_words_expose_the_bitmap() {
        let schema = Schema::new(vec![
            ColumnDef::attr("x", Dtype::Int),
            ColumnDef::attr("s", Dtype::Str),
        ])
        .unwrap();
        let mut r = Relation::new("t", schema);
        for i in 0..70 {
            let present = i % 2 == 0;
            r.push_row(&[
                present.then_some(Value::Int(i)),
                present.then(|| Value::str("v")),
            ])
            .unwrap();
        }
        let iw = r.int_view(0).unwrap().validity_words().to_vec();
        let sw = r.sym_view(1).unwrap().validity_words().to_vec();
        assert_eq!(iw, sw);
        assert_eq!(iw.len(), 2);
        for row in 0..70usize {
            let bit = (iw[row >> 6] >> (row & 63)) & 1 == 1;
            assert_eq!(bit, row % 2 == 0, "row {row}");
        }
        // Bits beyond n_rows stay zero.
        assert_eq!(iw[1] >> (70 - 64), 0);
    }

    #[test]
    fn push_full_row_roundtrip() {
        let schema = Schema::new(vec![ColumnDef::attr("x", Dtype::Int)]).unwrap();
        let mut r = Relation::new("t", schema);
        r.push_full_row(&[Value::Int(9)]).unwrap();
        assert_eq!(r.row(0), vec![Some(Value::Int(9))]);
    }

    #[test]
    fn validity_bitmap_crosses_block_boundaries() {
        // 130 rows > two 64-bit blocks; alternate present/missing.
        let schema = Schema::new(vec![ColumnDef::attr("x", Dtype::Int)]).unwrap();
        let mut r = Relation::new("t", schema);
        for i in 0..130 {
            let v = if i % 2 == 0 {
                Some(Value::Int(i))
            } else {
                None
            };
            r.push_row(&[v]).unwrap();
        }
        let view = r.int_view(0).unwrap();
        for i in 0..130usize {
            let expect = if i % 2 == 0 { Some(i as i64) } else { None };
            assert_eq!(view.get(i), expect, "row {i}");
        }
        assert!(!r.column_is_missing(0));
        assert!(!r.column_is_complete(0));
    }

    #[test]
    fn builder_bulk_load_matches_push_rows() {
        let schema = Schema::new(vec![
            ColumnDef::key("id", Dtype::Int),
            ColumnDef::attr("Area", Dtype::Str),
            ColumnDef::foreign_key("fk", Dtype::Int),
        ])
        .unwrap();
        let mut b = RelationBuilder::new("t", schema.clone(), 4);
        b.append_ints(0, &[1, 2]).unwrap();
        b.append_ints(0, &[3, 4]).unwrap();
        b.append_syms(1, &[Sym::intern("a"), Sym::intern("b")])
            .unwrap();
        b.append_opt_syms(1, &[None, Some(Sym::intern("a"))])
            .unwrap();
        b.append_missing(2, 3);
        b.append_opt_ints(2, &[Some(7)]).unwrap();
        assert_eq!(b.col_len(0), 4);
        let built = b.freeze().unwrap();

        let mut pushed = Relation::new("t", schema);
        for (id, area, fk) in [
            (1, Some("a"), None),
            (2, Some("b"), None),
            (3, None, None),
            (4, Some("a"), Some(7)),
        ] {
            pushed
                .push_row(&[
                    Some(Value::Int(id)),
                    area.map(Value::str),
                    fk.map(Value::Int),
                ])
                .unwrap();
        }
        assert!(crate::join::relations_equal_ordered(&built, &pushed));
    }

    #[test]
    fn builder_rejects_ragged_and_mistyped_loads() {
        let schema = Schema::new(vec![
            ColumnDef::attr("x", Dtype::Int),
            ColumnDef::attr("s", Dtype::Str),
        ])
        .unwrap();
        let mut b = RelationBuilder::new("t", schema.clone(), 0);
        assert!(matches!(
            b.append_ints(1, &[1]),
            Err(TableError::TypeMismatch { .. })
        ));
        assert!(matches!(
            b.append_syms(0, &[Sym::intern("x")]),
            Err(TableError::TypeMismatch { .. })
        ));
        assert!(matches!(
            b.append_values(0, &[Some(Value::str("x"))]),
            Err(TableError::TypeMismatch { .. })
        ));
        b.append_ints(0, &[1, 2]).unwrap();
        b.append_syms(1, &[Sym::intern("a")]).unwrap();
        let err = b.freeze();
        assert!(matches!(err, Err(TableError::ColumnLengthMismatch { .. })));
    }

    #[test]
    fn builder_all_missing_column_freezes_clean() {
        let schema = Schema::new(vec![
            ColumnDef::attr("x", Dtype::Int),
            ColumnDef::attr("s", Dtype::Str),
        ])
        .unwrap();
        let mut b = RelationBuilder::new("t", schema, 100);
        b.append_ints(0, &(0..100).collect::<Vec<i64>>()).unwrap();
        b.append_missing(1, 100);
        let r = b.freeze().unwrap();
        assert!(r.column_is_missing(1));
        assert!(r.column_is_complete(0));
        // Freeze-then-set: the all-missing column accepts writes.
        let mut r = r;
        r.set(64, 1, Some(Value::str("late"))).unwrap();
        assert_eq!(r.get_sym(64, 1), Some(Sym::intern("late")));
        assert!(!r.column_is_missing(1));
    }

    #[test]
    fn heap_bytes_grows_with_rows() {
        let schema = Schema::new(vec![
            ColumnDef::attr("x", Dtype::Int),
            ColumnDef::attr("s", Dtype::Str),
        ])
        .unwrap();
        let empty = Relation::new("t", schema.clone()).heap_bytes();
        let mut r = Relation::new("t", schema);
        for i in 0..1000 {
            r.push_row(&[Some(Value::Int(i)), Some(Value::str("v"))])
                .unwrap();
        }
        // 1000 ints (8 B) + codes (4 B) + bitmaps: at least 12 KB.
        assert!(r.heap_bytes() >= empty + 12_000, "{}", r.heap_bytes());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::join::relations_equal_ordered;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{Dtype, Value};
    use proptest::prelude::*;

    fn schema2() -> Schema {
        Schema::new(vec![
            ColumnDef::attr("i", Dtype::Int),
            ColumnDef::attr("s", Dtype::Str),
        ])
        .unwrap()
    }

    proptest! {
        // Validity bitmaps are the engine's correctness-critical state:
        // one bit per row packed into u64 words, so rows 63/64/65 (and the
        // final partial word) are the edge cases. Row counts up to 130
        // cross two word boundaries; an arbitrary chunk split exercises
        // the builder's append path landing mid-word.
        #[test]
        fn validity_bitmaps_survive_both_load_paths(
            ints in proptest::collection::vec(proptest::option::of(-4i64..4), 0..130usize),
            labels in proptest::collection::vec(proptest::option::of(0usize..3), 0..130usize),
            split in 0usize..130,
        ) {
            let n = ints.len().min(labels.len());
            let (ints, labels) = (&ints[..n], &labels[..n]);
            let sym_of = |l: usize| Value::str(["a", "b", "c"][l]);
            let int_vals: Vec<Option<Value>> =
                ints.iter().map(|i| i.map(Value::Int)).collect();
            let sym_vals: Vec<Option<Value>> =
                labels.iter().map(|&l| l.map(sym_of)).collect();

            // Path 1: incremental push_row.
            let mut pushed = Relation::new("t", schema2());
            for (i, s) in int_vals.iter().zip(&sym_vals) {
                pushed.push_row(&[*i, *s]).unwrap();
            }
            // Path 2: builder chunks split at an arbitrary row.
            let split = split.min(n);
            let mut b = RelationBuilder::new("t", schema2(), n);
            b.append_values(0, &int_vals[..split]).unwrap();
            b.append_values(0, &int_vals[split..]).unwrap();
            b.append_values(1, &sym_vals[..split]).unwrap();
            b.append_values(1, &sym_vals[split..]).unwrap();
            let built = b.freeze().unwrap();

            prop_assert!(relations_equal_ordered(&pushed, &built));
            // Boxed and typed reads both agree with the source data.
            let iv = built.int_view(0).unwrap();
            let sv = built.sym_view(1).unwrap();
            for row in 0..n {
                prop_assert_eq!(built.get(row, 0), int_vals[row].clone());
                prop_assert_eq!(iv.get(row), ints[row]);
                prop_assert_eq!(built.get(row, 1), sym_vals[row].clone());
                prop_assert_eq!(sv.get(row).is_some(), labels[row].is_some());
                prop_assert_eq!(built.get_int(row, 0), ints[row]);
            }
            // Column-level validity summaries match the source exactly.
            let present = ints.iter().filter(|i| i.is_some()).count();
            prop_assert_eq!(built.column_is_missing(0), present == 0);
            prop_assert_eq!(built.column_is_complete(0), present == n);
        }

        // clear_column → column_is_missing, then per-row set() restores
        // exactly the chosen rows — the erase/complete cycle every solve
        // performs on the FK column.
        #[test]
        fn clear_and_set_round_trip_validity(
            vals in proptest::collection::vec(-4i64..4, 1..130usize),
            restore_mask in proptest::collection::vec(proptest::bool::ANY, 1..130usize),
        ) {
            let n = vals.len().min(restore_mask.len());
            let (vals, restore_mask) = (&vals[..n], &restore_mask[..n]);
            let mut r = Relation::new("t", schema2());
            for &v in vals {
                r.push_row(&[Some(Value::Int(v)), None]).unwrap();
            }
            prop_assert!(r.column_is_complete(0));
            prop_assert!(r.column_is_missing(1));
            r.clear_column(0);
            prop_assert!(r.column_is_missing(0));
            for (row, &restore) in restore_mask.iter().enumerate() {
                if restore {
                    r.set(row, 0, Some(Value::Int(vals[row]))).unwrap();
                }
            }
            for (row, &restore) in restore_mask.iter().enumerate() {
                let expect = restore.then_some(vals[row]);
                prop_assert_eq!(r.get_int(row, 0), expect);
            }
            let restored = restore_mask.iter().filter(|&&m| m).count();
            prop_assert_eq!(r.column_is_complete(0), restored == n);
            prop_assert_eq!(r.column_is_missing(0), restored == 0);
        }
    }
}
