//! Error measures (Section 6.1) and the solution certifier
//! (Proposition 5.5).
//!
//! - **Relative CC error**: `|ĉ − c| / max(10, c)` per CC, reported as
//!   median/mean across the CC set (the threshold 10 guards against tiny
//!   targets).
//! - **DC error**: the fraction of `R̂1` tuples participating in at least
//!   one DC violation (the paper's example: two owners sharing a household
//!   in a 9-tuple relation → error 2/9).
//! - **Join recovery**: `R̂1 ⋈ R̂2` must equal the completed view cell for
//!   cell (Proposition 5.5).
//!
//! Everything here is written from those definitions alone and shares no
//! code with the solver it judges: no Phase I or Phase II module, no
//! conflict builder or compiled DC plan, no CC membership kernel and no
//! group-by helper. A solver bug therefore cannot both cause a violation
//! and hide it. [`evaluate`] certifies a solution in four parts:
//!
//! 1. **Structure.** `R̂1` equals `R1` outside its FK column; `R̂2` keeps
//!    every input `R2` row in place with every cell it had; `R̂2`'s keys
//!    are present and unique; every FK is present and is an `R̂2` key. A
//!    failure is a [`CoreError::Validation`] naming the relation, row and
//!    column, not a report.
//! 2. **Join.** Every `R̂1` row is matched to its `R̂2` row through a typed
//!    key hash, and the view is compared with `R̂1` and `R̂2` cell by cell
//!    through that match. No second join is materialized.
//! 3. **CCs.** Every distinct `(column, value set)` of the CC conditions
//!    becomes one row bitset, filled from a per-column value index (sorted
//!    integers, row lists per dictionary code). A CC's count is the
//!    popcount of the AND of its bitsets.
//! 4. **DCs.** `R̂1` rows are grouped by FK value with a sort. Each
//!    distinct unary atom is evaluated once per row, and each distinct
//!    per-variable filter gathers its candidates once per group. Each DC
//!    then enumerates distinct-row tuples, testing every binary atom at the
//!    first depth where both its variables are bound, and a complete tuple
//!    counts only once [`BoundDc::holds`] confirms it. The enumeration is
//!    polynomial in the group size (`O(g^k)` for a `k`-variable DC in a
//!    group of `g` rows), cut by the unary filters and the per-depth
//!    binary tests.

use crate::error::{CoreError, Result};
use crate::instance::CExtensionInstance;
use crate::report::Solution;
use cextend_constraints::{BoundDc, CardinalityConstraint, DcAtom, DenialConstraint};
use cextend_table::{
    join_schema, CmpOp, ColId, Dtype, IntColumnView, Relation, RowId, SymColumnView, Value,
    ValueSet,
};
use std::collections::HashMap;
use std::fmt::Display;
use std::hash::Hash;

/// Relative error of each CC against the (completed) join view.
pub fn cc_relative_errors(view: &Relation, ccs: &[CardinalityConstraint]) -> Result<Vec<f64>> {
    let counts = count_ccs(view, ccs)?;
    Ok(ccs
        .iter()
        .zip(counts)
        .map(|(cc, got)| {
            let target = cc.target as f64;
            (got as f64 - target).abs() / target.max(10.0)
        })
        .collect())
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Fraction of `R̂1` tuples involved in at least one DC violation,
/// grouping by the relation's unique FK column. For fact tables carrying
/// several FK columns (branching schema graphs), name the grouping column
/// explicitly via [`dc_error_on`].
pub fn dc_error(r1_hat: &Relation, dcs: &[DenialConstraint]) -> Result<f64> {
    if r1_hat.is_empty() || dcs.is_empty() {
        return Ok(0.0);
    }
    let fk = single_fk(r1_hat)?;
    violation_fraction(r1_hat, fk, dcs)
}

/// [`dc_error`] with the grouping FK column named explicitly — the
/// violation groups are the tuples sharing a value of `fk_col`.
pub fn dc_error_on(r1_hat: &Relation, fk_col: &str, dcs: &[DenialConstraint]) -> Result<f64> {
    if r1_hat.is_empty() || dcs.is_empty() {
        return Ok(0.0);
    }
    let fk = r1_hat.schema().col_id(fk_col).ok_or_else(|| {
        CoreError::Validation(format!(
            "`{}` has no column `{fk_col}` to group DC violations by",
            r1_hat.name()
        ))
    })?;
    violation_fraction(r1_hat, fk, dcs)
}

/// Full evaluation of a solution against its instance.
#[derive(Clone, Debug)]
pub struct EvaluationReport {
    /// Per-CC relative errors, in instance CC order.
    pub cc_errors: Vec<f64>,
    /// Median relative CC error.
    pub cc_median: f64,
    /// Mean relative CC error.
    pub cc_mean: f64,
    /// Fraction of tuples violating some DC.
    pub dc_error: f64,
    /// `true` iff `R̂1 ⋈ R̂2` equals the reported view.
    pub join_recovered: bool,
}

/// Certifies `solution` against `instance` (see the module docs).
///
/// Returns [`CoreError::Validation`] when the solution is not a completion
/// of the instance at all: an FK cell is missing or names no `R̂2` key, an
/// `R̂2` key is missing or repeated, an input `R2` row was lost or changed,
/// or `R̂1` differs from `R1` outside the FK column. Otherwise the report
/// gives the CC errors of the reported view, the DC error of `R̂1`, and
/// whether that view is `R̂1 ⋈ R̂2`.
pub fn evaluate(instance: &CExtensionInstance, solution: &Solution) -> Result<EvaluationReport> {
    let (r1_hat, r2_hat) = (&solution.r1_hat, &solution.r2_hat);
    let fk = single_fk(r1_hat)?;
    check_kept(&instance.r1, r1_hat, Some(fk))?;
    check_kept(&instance.r2, r2_hat, None)?;
    let matched = match_fks(r1_hat, fk, r2_hat)?;
    let join_recovered = view_is_join(&solution.vjoin, r1_hat, r2_hat, &matched)?;
    let cc_errors = cc_relative_errors(&solution.vjoin, &instance.ccs)?;
    let dc_error = if r1_hat.is_empty() || instance.dcs.is_empty() {
        0.0
    } else {
        violation_fraction(r1_hat, fk, &instance.dcs)?
    };
    Ok(EvaluationReport {
        cc_median: median(&cc_errors),
        cc_mean: mean(&cc_errors),
        cc_errors,
        dc_error,
        join_recovered,
    })
}

fn invalid(msg: String) -> CoreError {
    CoreError::Validation(msg)
}

/// The one FK column of `rel`.
fn single_fk(rel: &Relation) -> Result<ColId> {
    rel.schema().fk_col().ok_or_else(|| {
        invalid(
            "R1 must have exactly one foreign-key column; use dc_error_on for multi-FK facts"
                .into(),
        )
    })
}

// ---- Structure ---------------------------------------------------------

/// `true` if `after` keeps the cell `before` had. With `fill`, a cell
/// `before` left missing may hold anything.
fn kept<T: PartialEq>(before: Option<T>, after: Option<T>, fill: bool) -> bool {
    before == after || (fill && before.is_none())
}

/// Checks that `after` is `before` completed: the same schema, every row of
/// `before` at its position in `after`, and every cell unchanged.
///
/// For `R̂1` (`skip` is its FK column) the rows must match one for one and
/// every other cell exactly. For `R̂2` (`skip` is `None`) rows may be
/// appended and cells `before` left missing may be filled.
fn check_kept(before: &Relation, after: &Relation, skip: Option<ColId>) -> Result<()> {
    let name = after.name();
    if after.schema().columns() != before.schema().columns() {
        return Err(invalid(format!(
            "`{name}` does not have the input `{}`'s schema",
            before.name()
        )));
    }
    let fill = skip.is_none();
    if after.n_rows() < before.n_rows() {
        return Err(invalid(format!(
            "`{name}` row {}: the input row was lost ({} rows, the input `{}` has {})",
            after.n_rows(),
            after.n_rows(),
            before.name(),
            before.n_rows()
        )));
    }
    if !fill && after.n_rows() != before.n_rows() {
        return Err(invalid(format!(
            "`{name}` has {} rows, the input `{}` has {}",
            after.n_rows(),
            before.name(),
            before.n_rows()
        )));
    }
    let n = before.n_rows();
    for col in (0..before.schema().len()).filter(|&c| Some(c) != skip) {
        let changed = match (before.int_view(col), after.int_view(col)) {
            (Some(b), Some(a)) => (0..n).find(|&r| !kept(b.get(r), a.get(r), fill)),
            _ => {
                let b = sym_cells(before, col);
                let a = sym_cells(after, col);
                (0..n).find(|&r| !kept(b.get(r), a.get(r), fill))
            }
        };
        if let Some(row) = changed {
            return Err(invalid(format!(
                "`{name}` row {row} column `{}` changed from the input `{}`",
                before.schema().column(col).name,
                before.name()
            )));
        }
    }
    Ok(())
}

fn sym_cells(rel: &Relation, col: ColId) -> SymColumnView<'_> {
    rel.sym_view(col).expect("columns are int or sym")
}

/// Matches every `R̂1` row to the `R̂2` row its FK names, through a typed
/// key hash. Fails on a missing or repeated `R̂2` key and on a missing or
/// dangling FK.
fn match_fks(r1_hat: &Relation, fk: ColId, r2_hat: &Relation) -> Result<Vec<u32>> {
    let k2 = r2_hat.schema().key_col().ok_or_else(|| {
        invalid(format!(
            "`{}` must have exactly one key column",
            r2_hat.name()
        ))
    })?;
    match (r1_hat.int_view(fk), r2_hat.int_view(k2)) {
        (Some(fks), Some(keys)) => resolve(r1_hat, fk, r2_hat, k2, |r| fks.get(r), |r| keys.get(r)),
        (None, None) => {
            let (fks, keys) = (sym_cells(r1_hat, fk), sym_cells(r2_hat, k2));
            resolve(r1_hat, fk, r2_hat, k2, |r| fks.get(r), |r| keys.get(r))
        }
        _ => Err(invalid(format!(
            "FK `{}` of `{}` and key `{}` of `{}` have different types",
            r1_hat.schema().column(fk).name,
            r1_hat.name(),
            r2_hat.schema().column(k2).name,
            r2_hat.name()
        ))),
    }
}

/// [`match_fks`] over one key type.
fn resolve<T: Copy + Eq + Hash + Display>(
    r1_hat: &Relation,
    fk: ColId,
    r2_hat: &Relation,
    k2: ColId,
    fk_of: impl Fn(RowId) -> Option<T>,
    key_of: impl Fn(RowId) -> Option<T>,
) -> Result<Vec<u32>> {
    let (r1_name, r2_name) = (r1_hat.name(), r2_hat.name());
    let fk_name = &r1_hat.schema().column(fk).name;
    let key_name = &r2_hat.schema().column(k2).name;
    let mut row_of: HashMap<T, u32> = HashMap::with_capacity(r2_hat.n_rows());
    for r in 0..r2_hat.n_rows() {
        let key = key_of(r)
            .ok_or_else(|| invalid(format!("`{r2_name}` row {r}: key `{key_name}` is missing")))?;
        if let Some(first) = row_of.insert(key, r as u32) {
            return Err(invalid(format!(
                "`{r2_name}` rows {first} and {r} repeat key `{key_name}` = {key}"
            )));
        }
    }
    (0..r1_hat.n_rows())
        .map(|r| {
            let v = fk_of(r).ok_or_else(|| {
                invalid(format!("`{r1_name}` row {r}: FK `{fk_name}` is missing"))
            })?;
            row_of.get(&v).copied().ok_or_else(|| {
                invalid(format!(
                    "`{r1_name}` row {r}: FK `{fk_name}` = {v} is not a key of `{r2_name}`"
                ))
            })
        })
        .collect()
}

// ---- Join ----------------------------------------------------------------

/// `true` iff `view` is `R̂1 ⋈ R̂2`: the join's schema, one row per `R̂1`
/// row, and every cell equal to the `R̂1` cell or (through `matched`) the
/// `R̂2` cell it comes from.
fn view_is_join(
    view: &Relation,
    r1_hat: &Relation,
    r2_hat: &Relation,
    matched: &[u32],
) -> Result<bool> {
    let (schema, layout) = join_schema(r1_hat.schema(), r2_hat.schema())?;
    if view.schema().columns() != schema.columns() || view.n_rows() != r1_hat.n_rows() {
        return Ok(false);
    }
    let key = r1_hat
        .schema()
        .key_col()
        .expect("join_schema checked the key");
    let from_r1 = std::iter::once((layout.key_col, key)).chain(
        layout
            .r1_attr_cols
            .iter()
            .copied()
            .zip(r1_hat.schema().attr_cols()),
    );
    for (vc, sc) in from_r1 {
        if !column_matches(view, vc, r1_hat, sc, |r| r) {
            return Ok(false);
        }
    }
    for (&vc, &sc) in layout.r2_attr_cols.iter().zip(&layout.r2_source_cols) {
        if !column_matches(view, vc, r2_hat, sc, |r| matched[r] as RowId) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `true` iff every cell of column `vc` of `view` equals column `sc` of
/// `source` at row `at(r)`.
fn column_matches(
    view: &Relation,
    vc: ColId,
    source: &Relation,
    sc: ColId,
    at: impl Fn(RowId) -> RowId,
) -> bool {
    let n = view.n_rows();
    match (view.int_view(vc), source.int_view(sc)) {
        (Some(v), Some(s)) => (0..n).all(|r| v.get(r) == s.get(at(r))),
        (None, None) => {
            let (v, s) = (sym_cells(view, vc), sym_cells(source, sc));
            (0..n).all(|r| v.get(r) == s.get(at(r)))
        }
        _ => false,
    }
}

// ---- Row bitsets -------------------------------------------------------

/// One bit per row: bit `row % 64` of word `row / 64`.
type Bits = Vec<u64>;

#[inline]
fn set_bit(bits: &mut [u64], row: usize) {
    bits[row >> 6] |= 1 << (row & 63);
}

#[inline]
fn bit(bits: &[u64], row: usize) -> bool {
    (bits[row >> 6] >> (row & 63)) & 1 == 1
}

/// Every one of `n` rows.
fn all_rows(n: usize) -> Bits {
    let mut bits = vec![!0u64; n.div_ceil(64)];
    if !n.is_multiple_of(64) {
        *bits.last_mut().expect("n > 0") = (1u64 << (n % 64)) - 1;
    }
    bits
}

// ---- CCs -----------------------------------------------------------------

/// The present cells of one view column, indexed by value (a missing cell
/// is in no index, so it matches no value set).
enum ValueIndex<'a> {
    /// `(value, row)` pairs, sorted.
    Int(Vec<(i64, u32)>),
    /// The rows holding dictionary code `c` are
    /// `rows[starts[c]..starts[c + 1]]`.
    Sym {
        cells: SymColumnView<'a>,
        starts: Vec<u32>,
        rows: Vec<u32>,
    },
}

impl<'a> ValueIndex<'a> {
    fn build(view: &'a Relation, col: ColId) -> ValueIndex<'a> {
        match view.schema().column(col).dtype {
            Dtype::Int => {
                let cells = view.int_view(col).expect("dtype checked");
                let mut pairs: Vec<(i64, u32)> = (0..cells.len())
                    .filter_map(|r| cells.get(r).map(|v| (v, r as u32)))
                    .collect();
                pairs.sort_unstable();
                ValueIndex::Int(pairs)
            }
            Dtype::Str => {
                let cells = sym_cells(view, col);
                let mut starts = vec![0u32; cells.dict().len() + 1];
                for r in 0..cells.len() {
                    if let Some(c) = cells.code(r) {
                        starts[c as usize + 1] += 1;
                    }
                }
                for c in 1..starts.len() {
                    starts[c] += starts[c - 1];
                }
                let mut next = starts.clone();
                let mut rows = vec![0u32; starts[starts.len() - 1] as usize];
                for r in 0..cells.len() {
                    if let Some(c) = cells.code(r) {
                        rows[next[c as usize] as usize] = r as u32;
                        next[c as usize] += 1;
                    }
                }
                ValueIndex::Sym {
                    cells,
                    starts,
                    rows,
                }
            }
        }
    }

    /// The rows whose cell lies in `set`. A value set of the other type (or
    /// the empty set) selects nothing.
    fn select(&self, set: &ValueSet, n_rows: usize) -> Bits {
        let mut bits = vec![0u64; n_rows.div_ceil(64)];
        match (self, set) {
            (ValueIndex::Int(pairs), ValueSet::IntRange { lo, hi }) => {
                let from = pairs.partition_point(|&(v, _)| v < *lo);
                let to = pairs.partition_point(|&(v, _)| v <= *hi);
                for &(_, r) in &pairs[from..to] {
                    set_bit(&mut bits, r as usize);
                }
            }
            (
                ValueIndex::Sym {
                    cells,
                    starts,
                    rows,
                },
                ValueSet::Strs(syms),
            ) => {
                for &s in syms {
                    if let Some(c) = cells.code_of(s) {
                        let c = c as usize;
                        for &r in &rows[starts[c] as usize..starts[c + 1] as usize] {
                            set_bit(&mut bits, r as usize);
                        }
                    }
                }
            }
            _ => {}
        }
        bits
    }
}

/// Counts the rows of `view` satisfying each CC's combined condition: one
/// bitset per distinct `(column, value set)`, ANDed and popcounted per CC.
fn count_ccs(view: &Relation, ccs: &[CardinalityConstraint]) -> Result<Vec<u64>> {
    let n = view.n_rows();
    let mut indexes: HashMap<ColId, ValueIndex<'_>> = HashMap::new();
    let mut selections: Vec<(ColId, ValueSet)> = Vec::new();
    let mut selected: Vec<Bits> = Vec::new();
    let mut per_cc: Vec<Vec<usize>> = Vec::with_capacity(ccs.len());
    for cc in ccs {
        let cond = cc.combined();
        let mut ids = Vec::with_capacity(cond.len());
        for (name, set) in cond.iter() {
            let col = view.schema().require(name, view.name())?;
            let id = match selections.iter().position(|(c, s)| *c == col && s == set) {
                Some(id) => id,
                None => {
                    let index = indexes
                        .entry(col)
                        .or_insert_with(|| ValueIndex::build(view, col));
                    selected.push(index.select(set, n));
                    selections.push((col, set.clone()));
                    selections.len() - 1
                }
            };
            ids.push(id);
        }
        per_cc.push(ids);
    }
    Ok(per_cc
        .iter()
        .map(|ids| match ids.split_first() {
            None => n as u64,
            Some((&first, rest)) => selected[first]
                .iter()
                .enumerate()
                .map(|(w, &word)| {
                    let word = rest.iter().fold(word, |acc, &i| acc & selected[i][w]);
                    u64::from(word.count_ones())
                })
                .sum(),
        })
        .collect())
}

// ---- DCs -----------------------------------------------------------------

/// A unary atom `t.col ◦ value`.
#[derive(Clone, Copy, PartialEq)]
struct UnaryAtom {
    col: ColId,
    op: CmpOp,
    value: Value,
}

impl UnaryAtom {
    /// The atom on one present cell; a type mismatch is false, as in
    /// [`BoundDc::holds`].
    fn passes(&self, cell: Value) -> bool {
        self.op.eval(cell, self.value)
    }
}

/// A binary atom `t_lvar.lcol ◦ t_rvar.rcol + offset` over integer columns.
struct BinaryAtom<'a> {
    lvar: usize,
    lcells: IntColumnView<'a>,
    op: CmpOp,
    rvar: usize,
    rcells: IntColumnView<'a>,
    offset: i64,
}

impl BinaryAtom<'_> {
    /// The atom on the rows bound so far (`rows[var]` is variable `var`'s
    /// row); a missing cell is false, as in [`BoundDc::holds`].
    #[inline]
    fn holds(&self, rows: &[RowId]) -> bool {
        match (
            self.lcells.get(rows[self.lvar]),
            self.rcells.get(rows[self.rvar]),
        ) {
            // Exact: the sum cannot leave `i128`.
            (Some(l), Some(r)) => self
                .op
                .test(i128::from(l).cmp(&(i128::from(r) + i128::from(self.offset)))),
            _ => false,
        }
    }
}

/// One DC, ready to enumerate.
struct DcCheck<'a> {
    bound: BoundDc,
    /// The candidate filter of each tuple variable.
    filters: Vec<usize>,
    /// The same filters as a mask (bit `f` of word `f / 64`).
    needs: Vec<u64>,
    /// `tests[d]`: the binary atoms whose later variable is `d`.
    tests: Vec<Vec<BinaryAtom<'a>>>,
}

impl DcCheck<'_> {
    /// Extends the partial tuple `chosen` by one distinct row per remaining
    /// variable, and marks the rows of every complete tuple φ holds on.
    fn extend(
        &self,
        rel: &Relation,
        cands: &[Vec<u32>],
        chosen: &mut Vec<RowId>,
        violating: &mut [u64],
    ) {
        let depth = chosen.len();
        if depth == self.filters.len() {
            if self.bound.holds(rel, chosen) {
                for &r in chosen.iter() {
                    set_bit(violating, r);
                }
            }
            return;
        }
        for &r in &cands[self.filters[depth]] {
            let r = r as RowId;
            if chosen.contains(&r) {
                continue;
            }
            chosen.push(r);
            if self.tests[depth].iter().all(|a| a.holds(chosen)) {
                self.extend(rel, cands, chosen, violating);
            }
            chosen.pop();
        }
    }
}

/// Index of `item` in `items`, pushing it first if absent.
fn intern<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|x| *x == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

/// The DCs of one relation, compiled: the distinct unary atoms, the
/// distinct per-variable filters (sorted atom lists) and one check per DC
/// that can hold.
struct CompiledDcs<'a> {
    atoms: Vec<UnaryAtom>,
    filters: Vec<Vec<usize>>,
    checks: Vec<DcCheck<'a>>,
}

impl<'a> CompiledDcs<'a> {
    fn compile(rel: &'a Relation, dcs: &[DenialConstraint]) -> Result<CompiledDcs<'a>> {
        let (schema, name) = (rel.schema(), rel.name());
        let mut out = CompiledDcs {
            atoms: Vec::new(),
            filters: Vec::new(),
            checks: Vec::new(),
        };
        'dcs: for dc in dcs {
            let bound = dc.bind(schema, name)?;
            let mut var_atoms: Vec<Vec<usize>> = vec![Vec::new(); dc.arity];
            let mut tests: Vec<Vec<BinaryAtom<'_>>> = (0..dc.arity).map(|_| Vec::new()).collect();
            for atom in &dc.atoms {
                match atom {
                    DcAtom::Unary {
                        var,
                        column,
                        op,
                        value,
                    } => {
                        let atom = UnaryAtom {
                            col: schema.require(column, name)?,
                            op: *op,
                            value: *value,
                        };
                        var_atoms[*var].push(intern(&mut out.atoms, atom));
                    }
                    DcAtom::Binary {
                        lvar,
                        lcol,
                        op,
                        rvar,
                        rcol,
                        offset,
                    } => {
                        let lcells = rel.int_view(schema.require(lcol, name)?);
                        let rcells = rel.int_view(schema.require(rcol, name)?);
                        // `holds` reads binary atoms from integer cells
                        // only: on any other column the atom, and so φ,
                        // never holds.
                        let (Some(lcells), Some(rcells)) = (lcells, rcells) else {
                            continue 'dcs;
                        };
                        tests[(*lvar).max(*rvar)].push(BinaryAtom {
                            lvar: *lvar,
                            lcells,
                            op: *op,
                            rvar: *rvar,
                            rcells,
                            offset: *offset,
                        });
                    }
                }
            }
            let filters = var_atoms
                .into_iter()
                .map(|mut ids| {
                    ids.sort_unstable();
                    ids.dedup();
                    intern(&mut out.filters, ids)
                })
                .collect();
            out.checks.push(DcCheck {
                bound,
                filters,
                needs: Vec::new(),
                tests,
            });
        }
        let fw = out.filters.len().div_ceil(64);
        for check in &mut out.checks {
            check.needs = vec![0u64; fw];
            for &f in &check.filters {
                set_bit(&mut check.needs, f);
            }
        }
        Ok(out)
    }

    /// Each distinct unary atom on every row of `rel`, column by column: an
    /// integer cell meets each atom on its column, a symbol the atoms its
    /// dictionary code passes.
    fn atom_rows(&self, rel: &Relation) -> Vec<Bits> {
        let n = rel.n_rows();
        let mut rows: Vec<Bits> = vec![vec![0u64; n.div_ceil(64)]; self.atoms.len()];
        let mut cols: Vec<ColId> = self.atoms.iter().map(|a| a.col).collect();
        cols.sort_unstable();
        cols.dedup();
        for col in cols {
            let on_col: Vec<usize> = (0..self.atoms.len())
                .filter(|&a| self.atoms[a].col == col)
                .collect();
            if let Some(cells) = rel.int_view(col) {
                for r in 0..n {
                    if let Some(x) = cells.get(r) {
                        for &a in &on_col {
                            if self.atoms[a].passes(Value::Int(x)) {
                                set_bit(&mut rows[a], r);
                            }
                        }
                    }
                }
            } else {
                let cells = sym_cells(rel, col);
                let pass: Vec<Vec<usize>> = cells
                    .dict()
                    .iter()
                    .map(|&s| {
                        on_col
                            .iter()
                            .copied()
                            .filter(|&a| self.atoms[a].passes(Value::Str(s)))
                            .collect()
                    })
                    .collect();
                for r in 0..n {
                    if let Some(c) = cells.code(r) {
                        for &a in &pass[c as usize] {
                            set_bit(&mut rows[a], r);
                        }
                    }
                }
            }
        }
        rows
    }

    /// Each row's filters as `fw` mask words (`fw` = filters / 64, rounded
    /// up): bit `f` is set iff the row passes every atom of filter `f`.
    /// Also returns the mask of filters some row passes.
    fn row_masks(&self, rel: &Relation) -> (Vec<u64>, Vec<u64>) {
        let n = rel.n_rows();
        let fw = self.filters.len().div_ceil(64);
        let atom_rows = self.atom_rows(rel);
        let mut masks = vec![0u64; n * fw];
        let mut live = vec![0u64; fw];
        for (f, ids) in self.filters.iter().enumerate() {
            let mut rows = all_rows(n);
            for &a in ids {
                for (w, &word) in rows.iter_mut().zip(&atom_rows[a]) {
                    *w &= word;
                }
            }
            for (w, &word) in rows.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let r = w * 64 + word.trailing_zeros() as usize;
                    set_bit(&mut masks[r * fw..], f);
                    word &= word - 1;
                }
            }
            if rows.iter().any(|&w| w != 0) {
                set_bit(&mut live, f);
            }
        }
        (masks, live)
    }
}

/// `(key, row)` for every row of `rel` with an FK, sorted so that each FK
/// value's rows are contiguous (a dictionary code stands for its symbol
/// within one column).
fn fk_groups(rel: &Relation, fk: ColId) -> Vec<(i64, u32)> {
    let n = rel.n_rows();
    let mut keyed: Vec<(i64, u32)> = match rel.int_view(fk) {
        Some(cells) => (0..n)
            .filter_map(|r| cells.get(r).map(|v| (v, r as u32)))
            .collect(),
        None => {
            let cells = sym_cells(rel, fk);
            (0..n)
                .filter_map(|r| cells.code(r).map(|c| (i64::from(c), r as u32)))
                .collect()
        }
    };
    keyed.sort_unstable();
    keyed
}

/// The DC error of `rel` with violation groups the rows sharing a value of
/// column `fk` (rows missing it join no group).
fn violation_fraction(rel: &Relation, fk: ColId, dcs: &[DenialConstraint]) -> Result<f64> {
    let n = rel.n_rows();
    let mut compiled = CompiledDcs::compile(rel, dcs)?;
    let fw = compiled.filters.len().div_ceil(64);
    let (row_masks, live) = compiled.row_masks(rel);
    // A DC one of whose variables no row can take never holds.
    compiled.checks.retain(|c| covers(&live, &c.needs));
    if compiled.checks.is_empty() {
        return Ok(0.0);
    }

    let keyed = fk_groups(rel, fk);
    // The masks in group order, so the group walk reads them in sequence.
    let masks: Vec<u64> = keyed
        .iter()
        .flat_map(|&(_, r)| &row_masks[r as usize * fw..][..fw])
        .copied()
        .collect();
    drop(row_masks);

    let mut violating = vec![0u64; n.div_ceil(64)];
    let mut cands: Vec<Vec<u32>> = vec![Vec::new(); compiled.filters.len()];
    let mut present = vec![0u64; fw];
    let mut chosen: Vec<RowId> = Vec::new();
    let mut at = 0;
    for group in keyed.chunk_by(|a, b| a.0 == b.0) {
        let group_masks = masks[at * fw..][..group.len() * fw].chunks(fw);
        at += group.len();
        if group.len() < 2 {
            continue;
        }
        // Each filter's candidates in the group, gathered once.
        present.fill(0);
        for (&(_, r), row_mask) in group.iter().zip(group_masks) {
            for (w, &mask) in row_mask.iter().enumerate() {
                let mut mask = mask;
                while mask != 0 {
                    let f = w * 64 + mask.trailing_zeros() as usize;
                    if !bit(&present, f) {
                        set_bit(&mut present, f);
                        cands[f].clear();
                    }
                    cands[f].push(r);
                    mask &= mask - 1;
                }
            }
        }
        for check in &compiled.checks {
            if covers(&present, &check.needs) {
                chosen.clear();
                check.extend(rel, &cands, &mut chosen, &mut violating);
            }
        }
    }
    let count: u32 = violating.iter().map(|w| w.count_ones()).sum();
    Ok(f64::from(count) / n as f64)
}

/// `true` iff every bit of `needs` is set in `have`.
fn covers(have: &[u64], needs: &[u64]) -> bool {
    needs.iter().zip(have).all(|(&need, &has)| need & !has == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures;
    use cextend_table::{fk_join, Value};

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    /// `Persons` with the corrected Figure 3 assignment.
    ///
    /// Figure 3 as printed pairs the 24-year-old spouse with the 75-year-old
    /// owner, which violates DC_O,S,low by one year (24 < 75 − 50); this
    /// assignment places the spouse and children with the monolingual
    /// 25-year-old owner.
    fn figure3_persons() -> Relation {
        let mut r1 = fixtures::persons();
        let fk = r1.schema().fk_col().unwrap();
        for (row, hid) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 3),
            (5, 3),
            (6, 3),
            (7, 5),
            (8, 6),
        ] {
            r1.set(row, fk, Some(Value::Int(hid))).unwrap();
        }
        r1
    }

    #[test]
    fn paper_dc_error_example() {
        // "if the hid value in the first two tuples … was 2, the DC error
        // would be 2/9" — two owners in one household.
        let mut r1 = figure3_persons();
        let fk = r1.schema().fk_col().unwrap();
        let dcs = fixtures::figure2_dcs();
        assert_eq!(dc_error(&r1, &dcs).unwrap(), 0.0);
        // Now violate DC_OO by placing owner pid=1 with owner pid=2.
        r1.set(0, fk, Some(Value::Int(2))).unwrap();
        let err = dc_error(&r1, &dcs).unwrap();
        assert!((err - 2.0 / 9.0).abs() < 1e-12, "got {err}");
    }

    #[test]
    fn cc_error_uses_max_10_denominator() {
        use cextend_constraints::parse_cc;
        use cextend_table::{ColumnDef, Dtype, Relation, Schema};
        let schema = Schema::new(vec![
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut view = Relation::new("v", schema);
        for _ in 0..5 {
            view.push_full_row(&[Value::str("Owner"), Value::str("Chicago")])
                .unwrap();
        }
        let r2cols: std::collections::HashSet<String> = ["Area".to_owned()].into_iter().collect();
        // Target 0, got 5 → error 5/max(10,0) = 0.5.
        let cc0 = parse_cc("z", r#"| Rel = "Owner" & Area = "Chicago" | = 0"#, &r2cols).unwrap();
        // Target 20, got 5 → error 15/20 = 0.75.
        let cc20 = parse_cc("t", r#"| Rel = "Owner" & Area = "Chicago" | = 20"#, &r2cols).unwrap();
        let errs = cc_relative_errors(&view, &[cc0, cc20]).unwrap();
        assert!((errs[0] - 0.5).abs() < 1e-12);
        assert!((errs[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ccs_count_like_count_in_on_missing_cells_and_mismatched_sets() {
        use cextend_constraints::NormalizedCond;
        use cextend_table::{ColumnDef, Dtype, Relation, Schema, Sym};
        let schema = Schema::new(vec![
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
        ])
        .unwrap();
        let mut view = Relation::new("v", schema);
        for (age, rel) in [
            (Some(10), Some("Owner")),
            (None, Some("Owner")),
            (Some(30), None),
            (Some(30), Some("Child")),
            (Some(-5), Some("Spouse")),
        ] {
            view.push_row(&[age.map(Value::Int), rel.map(Value::str)])
                .unwrap();
        }
        let cc = |sets: Vec<(&str, ValueSet)>| {
            let cond = NormalizedCond::from_sets(sets.into_iter().map(|(c, s)| (c.to_owned(), s)));
            CardinalityConstraint::new("cc", cond, NormalizedCond::always(), 0)
        };
        let sym = |s: &str| Sym::intern(s);
        let ccs = vec![
            cc(vec![]),
            cc(vec![("Age", ValueSet::range(0, 30))]),
            cc(vec![("Age", ValueSet::all_ints())]),
            cc(vec![("Rel", ValueSet::syms([sym("Owner"), sym("Child")]))]),
            cc(vec![
                ("Age", ValueSet::range(0, 30)),
                ("Rel", ValueSet::sym(sym("Owner"))),
            ]),
            cc(vec![("Rel", ValueSet::sym(sym("Nobody")))]),
            cc(vec![("Age", ValueSet::sym(sym("Owner")))]),
            cc(vec![("Rel", ValueSet::range(0, 9))]),
            cc(vec![("Age", ValueSet::Empty)]),
        ];
        assert_eq!(
            count_ccs(&view, &ccs).unwrap(),
            vec![5, 3, 4, 3, 1, 0, 0, 0, 0]
        );
        // Predicates express only singleton symbol sets, so `count_in` is
        // the reference everywhere else; a multi-symbol set counts the rows
        // `ValueSet::contains` accepts.
        for (i, cc) in ccs.iter().enumerate().filter(|&(i, _)| i != 3) {
            assert_eq!(
                count_ccs(&view, &ccs).unwrap()[i],
                cc.count_in(&view).unwrap()
            );
        }
        // An unknown column is an error, as it is for `count_in`.
        let bad = cc(vec![("Nope", ValueSet::int(1))]);
        assert!(count_ccs(&view, &[bad]).is_err());
    }

    #[test]
    fn dc_error_empty_inputs() {
        let r1 = fixtures::persons();
        assert_eq!(dc_error(&r1, &[]).unwrap(), 0.0);
        // All-FK-missing relation groups nothing.
        assert_eq!(dc_error(&r1, &fixtures::figure2_dcs()).unwrap(), 0.0);
    }

    #[test]
    fn string_keys_group_and_match_like_int_keys() {
        use cextend_table::{ColumnDef, Dtype, Schema};
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("Rel", Dtype::Str),
            ColumnDef::foreign_key("hid", Dtype::Str),
        ])
        .unwrap();
        let mut r1 = Relation::new("Persons", schema);
        for (pid, rel, hid) in [
            (1, "Owner", "a"),
            (2, "Owner", "b"),
            (3, "Owner", "a"),
            (4, "Child", "b"),
        ] {
            r1.push_full_row(&[Value::Int(pid), Value::str(rel), Value::str(hid)])
                .unwrap();
        }
        let schema = Schema::new(vec![
            ColumnDef::key("hid", Dtype::Str),
            ColumnDef::attr("Area", Dtype::Str),
        ])
        .unwrap();
        let mut r2 = Relation::new("Housing", schema);
        for (hid, area) in [("a", "Chicago"), ("b", "NYC")] {
            r2.push_full_row(&[Value::str(hid), Value::str(area)])
                .unwrap();
        }
        let dcs = vec![cextend_constraints::parse_dc(
            "oo",
            r#"!(t1.Rel = "Owner" & t2.Rel = "Owner" & t1.hid = t2.hid)"#,
            "hid",
        )
        .unwrap()];
        assert_eq!(dc_error(&r1, &dcs).unwrap(), 0.5);
        let fk = r1.schema().fk_col().unwrap();
        let matched = match_fks(&r1, fk, &r2).unwrap();
        assert_eq!(matched, vec![0, 1, 0, 1]);
        let view = fk_join(&r1, &r2).unwrap();
        assert!(view_is_join(&view, &r1, &r2, &matched).unwrap());
    }

    /// The running example solved by hand (Figure 3, corrected), with its
    /// instance.
    fn figure3_solution() -> (CExtensionInstance, Solution) {
        let instance = fixtures::running_example();
        let r1_hat = figure3_persons();
        let r2_hat = fixtures::housing();
        let vjoin = fk_join(&r1_hat, &r2_hat).unwrap();
        let solution = Solution {
            r1_hat,
            r2_hat,
            vjoin,
            stats: Default::default(),
        };
        (instance, solution)
    }

    /// `rel` without row `drop`.
    fn without_row(rel: &Relation, drop: RowId) -> Relation {
        let mut out = Relation::new(rel.name(), rel.schema().clone());
        for r in rel.rows().filter(|&r| r != drop) {
            out.push_row(&rel.row(r)).unwrap();
        }
        out
    }

    fn validation_error(instance: &CExtensionInstance, solution: &Solution) -> String {
        match evaluate(instance, solution) {
            Err(CoreError::Validation(msg)) => msg,
            other => panic!("expected a validation error, got {other:?}"),
        }
    }

    #[test]
    fn the_figure3_solution_certifies_clean() {
        let (instance, solution) = figure3_solution();
        let report = evaluate(&instance, &solution).unwrap();
        assert_eq!(report.dc_error, 0.0);
        assert!(report.join_recovered);
        assert_eq!(report.cc_errors.len(), 4);
    }

    #[test]
    fn mutation_moving_a_row_into_a_conflicting_group_costs_exactly_2_of_9() {
        let (instance, mut solution) = figure3_solution();
        let fk = solution.r1_hat.schema().fk_col().unwrap();
        solution.r1_hat.set(0, fk, Some(Value::Int(2))).unwrap();
        solution.vjoin = fk_join(&solution.r1_hat, &solution.r2_hat).unwrap();
        let report = evaluate(&instance, &solution).unwrap();
        assert!((report.dc_error - 2.0 / 9.0).abs() < 1e-12, "{report:?}");
        assert!(report.join_recovered);
    }

    #[test]
    fn mutation_dropping_an_r2_row_is_a_validation_error() {
        let (instance, mut solution) = figure3_solution();
        solution.r2_hat = without_row(&solution.r2_hat, 5);
        let msg = validation_error(&instance, &solution);
        assert!(
            msg.contains("`Housing` row 5: the input row was lost"),
            "{msg}"
        );
    }

    #[test]
    fn mutation_corrupting_a_view_cell_loses_the_join() {
        let (instance, mut solution) = figure3_solution();
        let area = solution.vjoin.schema().col_id("Area").unwrap();
        solution
            .vjoin
            .set(7, area, Some(Value::str("Chicago")))
            .unwrap();
        let report = evaluate(&instance, &solution).unwrap();
        assert!(!report.join_recovered);
        assert_eq!(report.dc_error, 0.0);
    }

    #[test]
    fn mutation_erasing_an_fk_is_a_validation_error() {
        let (instance, mut solution) = figure3_solution();
        let fk = solution.r1_hat.schema().fk_col().unwrap();
        solution.r1_hat.set(4, fk, None).unwrap();
        let msg = validation_error(&instance, &solution);
        assert!(
            msg.contains("`Persons` row 4") && msg.contains("`hid` is missing"),
            "{msg}"
        );
        // A dangling FK is one too.
        let (instance, mut solution) = figure3_solution();
        solution.r1_hat.set(4, fk, Some(Value::Int(99))).unwrap();
        let msg = validation_error(&instance, &solution);
        assert!(msg.contains("row 4") && msg.contains("not a key"), "{msg}");
    }

    #[test]
    fn mutation_duplicating_an_r2_key_is_a_validation_error() {
        let (instance, mut solution) = figure3_solution();
        let first = solution.r2_hat.row(0);
        solution.r2_hat.push_row(&first).unwrap();
        let msg = validation_error(&instance, &solution);
        assert!(msg.contains("rows 0 and 6 repeat key `hid` = 1"), "{msg}");
    }

    #[test]
    fn mutation_editing_an_r1_attribute_is_a_validation_error() {
        let (instance, mut solution) = figure3_solution();
        let age = solution.r1_hat.schema().col_id("Age").unwrap();
        solution.r1_hat.set(2, age, Some(Value::Int(26))).unwrap();
        let msg = validation_error(&instance, &solution);
        assert!(msg.contains("`Persons` row 2 column `Age`"), "{msg}");
    }

    #[test]
    fn r2_rows_may_be_appended_and_missing_cells_filled() {
        let (mut instance, mut solution) = figure3_solution();
        let area = instance.r2.schema().col_id("Area").unwrap();
        instance.r2.set(5, area, None).unwrap();
        solution
            .r2_hat
            .push_full_row(&[Value::Int(7), Value::str("NYC")])
            .unwrap();
        let report = evaluate(&instance, &solution).unwrap();
        assert!(report.join_recovered);
    }
}
