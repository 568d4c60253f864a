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
//! and hide it. [`evaluate`] certifies a solution in four parts, each cut
//! into chunks of 2^14 rows:
//!
//! 1. **Structure.** `R̂1` equals `R1` outside its FK column; `R̂2` keeps
//!    every input `R2` row in place with every cell it had; `R̂2`'s keys
//!    are present and unique; every FK is present and is an `R̂2` key. A
//!    failure is a [`CoreError::Validation`] naming the relation, row and
//!    column, not a report.
//! 2. **Join.** Every `R̂1` row is matched to its `R̂2` row through a typed
//!    key index, and the view is compared with `R̂1` and `R̂2` cell by cell
//!    through that match. No second join is materialized.
//! 3. **CCs.** The CC conditions are resolved once into their distinct
//!    `(column, value set)` selections, and each column's values into
//!    buckets that lie wholly inside or wholly outside every selection. A
//!    chunk of view rows fills one bitset per selection for its own rows,
//!    and a CC's count is the popcount of the AND of its bitsets, summed
//!    over the chunks.
//! 4. **DCs.** `R̂1` rows are grouped by their matched `R̂2` row with one
//!    counting pass, and the groups are cut into runs of about one chunk of
//!    rows. Within a group, each row's filters are read from its cells'
//!    buckets once, each distinct per-variable filter gathers its
//!    candidates once, and the cells the binary atoms read are gathered
//!    once. Each DC then enumerates distinct-row tuples, testing every
//!    binary atom at the first depth where both its variables are bound,
//!    and a complete tuple counts only once [`BoundDc::holds`] confirms
//!    it. The enumeration is polynomial in the group size (`O(g^k)` for a
//!    `k`-variable DC in a group of `g` rows), cut by the unary filters
//!    and the per-depth binary tests.
//!
//! [`evaluate_with_workers`] runs each part's chunks through
//! [`cextend_sched::run_tasks`] and merges them in chunk order, so the
//! report, and the fault named on a broken solution, are the same at every
//! width; [`evaluate`] is its width-1 call. Apart from the FK match, its key
//! index and the grouping, every buffer is local to one chunk.

use crate::error::{CoreError, Result};
use crate::instance::CExtensionInstance;
use crate::report::Solution;
use cextend_constraints::{BoundDc, CardinalityConstraint, DcAtom, DenialConstraint};
use cextend_sched::run_tasks;
use cextend_table::{
    join_schema, CmpOp, ColId, Dtype, IntColumnView, Relation, RowId, Sym, SymColumnView, Value,
    ValueSet,
};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Display;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Mutex;

/// Rows per chunk of every certifier part; the DC check closes a run of
/// whole FK groups once it holds this many rows. A part of one chunk runs
/// inline.
const CHUNK_ROWS: usize = 1 << 14;

/// Chunk `c` of the rows `0..n`.
fn chunk(c: usize, n: usize) -> Range<RowId> {
    c * CHUNK_ROWS..((c + 1) * CHUNK_ROWS).min(n)
}

/// `task(i)` for every `i` in `0..n_tasks` on up to `workers` threads, with
/// the results in order of `i` and, if any fails, the error of the least
/// failing `i`.
fn run_all<T: Send, E: Send>(
    n_tasks: usize,
    workers: usize,
    task: impl Fn(usize) -> std::result::Result<T, E> + Sync,
) -> std::result::Result<Vec<T>, E> {
    let ids: Vec<usize> = (0..n_tasks).collect();
    run_tasks(&ids, workers, task)
}

/// Relative error of each CC against the (completed) join view.
pub fn cc_relative_errors(view: &Relation, ccs: &[CardinalityConstraint]) -> Result<Vec<f64>> {
    Ok(relative_errors(ccs, count_ccs(view, ccs)?))
}

/// `|got − target| / max(10, target)` for each CC and its count.
fn relative_errors(ccs: &[CardinalityConstraint], counts: Vec<u64>) -> Vec<f64> {
    ccs.iter()
        .zip(counts)
        .map(|(cc, got)| {
            let target = cc.target as f64;
            (got as f64 - target).abs() / target.max(10.0)
        })
        .collect()
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
    grouped_by_value(r1_hat, fk, dcs)
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
    grouped_by_value(r1_hat, fk, dcs)
}

/// The DC error of `rel` with violation groups the rows sharing a value of
/// column `fk` (rows missing it join no group).
fn grouped_by_value(rel: &Relation, fk: ColId, dcs: &[DenialConstraint]) -> Result<f64> {
    let compiled = CompiledDcs::compile(rel, dcs)?;
    Ok(compiled.violation_fraction(&Groups::by_value(rel, fk), 1))
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
///
/// This is [`evaluate_with_workers`] at width 1: every part runs inline.
pub fn evaluate(instance: &CExtensionInstance, solution: &Solution) -> Result<EvaluationReport> {
    evaluate_with_workers(instance, solution, 1)
}

/// [`evaluate`] with each part's chunks run on up to `workers` threads.
///
/// The report and the error are the same at every width: the chunks merge
/// in chunk order, and a broken solution names the fault a serial scan
/// meets first (`R̂1`'s columns, then `R̂2`'s, each row by row, then the FK
/// match row by row). A part of one chunk runs inline at any width.
pub fn evaluate_with_workers(
    instance: &CExtensionInstance,
    solution: &Solution,
    workers: usize,
) -> Result<EvaluationReport> {
    let (r1_hat, r2_hat, view) = (&solution.r1_hat, &solution.r2_hat, &solution.vjoin);
    let fk = single_fk(r1_hat)?;
    check_kept(&instance.r1, r1_hat, Some(fk), workers)?;
    check_kept(&instance.r2, r2_hat, None, workers)?;
    let matched = match_fks(r1_hat, fk, r2_hat, workers)?;
    // Each part below resolves its columns before it fans out, so its
    // chunks cannot fail.
    let join_recovered = view_is_join(view, r1_hat, r2_hat, &matched, workers)?;
    let counts = CcSelections::resolve(view, &instance.ccs)?.count(workers);
    let cc_errors = relative_errors(&instance.ccs, counts);
    let dc_error = if r1_hat.is_empty() || instance.dcs.is_empty() {
        0.0
    } else {
        let dcs = CompiledDcs::compile(r1_hat, &instance.dcs)?;
        dcs.violation_fraction(&Groups::by_match(&matched, r2_hat.n_rows()), workers)
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
/// appended and cells `before` left missing may be filled. A changed cell
/// is reported in column order, then row order.
fn check_kept(
    before: &Relation,
    after: &Relation,
    skip: Option<ColId>,
    workers: usize,
) -> Result<()> {
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
    let cols: Vec<ColId> = (0..before.schema().len())
        .filter(|&c| Some(c) != skip)
        .collect();
    // Each chunk's first changed cell by column, then row; the least over
    // the chunks is the first a column-by-column scan meets.
    let Ok(firsts) = run_all(n.div_ceil(CHUNK_ROWS), workers, |c| {
        let rows = chunk(c, n);
        Ok::<_, Infallible>(cols.iter().find_map(|&col| {
            let changed = match (before.int_view(col), after.int_view(col)) {
                (Some(b), Some(a)) => rows.clone().find(|&r| !kept(b.get(r), a.get(r), fill)),
                _ => {
                    let b = sym_cells(before, col);
                    let a = sym_cells(after, col);
                    rows.clone().find(|&r| !kept(b.get(r), a.get(r), fill))
                }
            };
            changed.map(|row| (col, row))
        }))
    });
    match firsts.into_iter().flatten().min() {
        Some((col, row)) => Err(invalid(format!(
            "`{name}` row {row} column `{}` changed from the input `{}`",
            before.schema().column(col).name,
            before.name()
        ))),
        None => Ok(()),
    }
}

fn sym_cells(rel: &Relation, col: ColId) -> SymColumnView<'_> {
    rel.sym_view(col).expect("columns are int or sym")
}

/// Matches every `R̂1` row to the `R̂2` row its FK names, through a typed
/// key index. Fails on a missing or repeated `R̂2` key and on a missing or
/// dangling FK.
fn match_fks(r1_hat: &Relation, fk: ColId, r2_hat: &Relation, workers: usize) -> Result<Vec<u32>> {
    let k2 = r2_hat.schema().key_col().ok_or_else(|| {
        invalid(format!(
            "`{}` must have exactly one key column",
            r2_hat.name()
        ))
    })?;
    match (r1_hat.int_view(fk), r2_hat.int_view(k2)) {
        (Some(fks), Some(keys)) => resolve(
            r1_hat,
            fk,
            r2_hat,
            k2,
            workers,
            |r| fks.get(r),
            |r| keys.get(r),
        ),
        (None, None) => {
            let (fks, keys) = (sym_cells(r1_hat, fk), sym_cells(r2_hat, k2));
            resolve(
                r1_hat,
                fk,
                r2_hat,
                k2,
                workers,
                |r| fks.get(r),
                |r| keys.get(r),
            )
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

/// [`match_fks`] over one key type: the key index is built serially, in
/// `R̂2` row order, and `R̂1`'s rows look their FKs up in chunks.
fn resolve<T: Key>(
    r1_hat: &Relation,
    fk: ColId,
    r2_hat: &Relation,
    k2: ColId,
    workers: usize,
    fk_of: impl Fn(RowId) -> Option<T> + Sync,
    key_of: impl Fn(RowId) -> Option<T>,
) -> Result<Vec<u32>> {
    let (r1_name, r2_name) = (r1_hat.name(), r2_hat.name());
    let fk_name = &r1_hat.schema().column(fk).name;
    let key_name = &r2_hat.schema().column(k2).name;
    let n2 = r2_hat.n_rows();
    let mut row_of = KeyRows::for_keys((0..n2).filter_map(&key_of), n2);
    for r in 0..n2 {
        let key = key_of(r)
            .ok_or_else(|| invalid(format!("`{r2_name}` row {r}: key `{key_name}` is missing")))?;
        if let Some(first) = row_of.insert(key, r as u32) {
            return Err(invalid(format!(
                "`{r2_name}` rows {first} and {r} repeat key `{key_name}` = {key}"
            )));
        }
    }
    let n = r1_hat.n_rows();
    let mut matched = vec![0u32; n];
    let slots: Vec<Mutex<&mut [u32]>> = matched.chunks_mut(CHUNK_ROWS).map(Mutex::new).collect();
    // Chunks merge in row order, so the error is the first failing row's.
    run_all(slots.len(), workers, |c| {
        let mut out = slots[c]
            .lock()
            .expect("only chunk `c`'s task locks slot `c`");
        for (r, m) in chunk(c, n).zip(out.iter_mut()) {
            let v = fk_of(r).ok_or_else(|| {
                invalid(format!("`{r1_name}` row {r}: FK `{fk_name}` is missing"))
            })?;
            *m = row_of.get(v).ok_or_else(|| {
                invalid(format!(
                    "`{r1_name}` row {r}: FK `{fk_name}` = {v} is not a key of `{r2_name}`"
                ))
            })?;
        }
        Ok::<_, CoreError>(())
    })?;
    drop(slots);
    Ok(matched)
}

/// A key cell's type; an integer key can index a table.
trait Key: Copy + Eq + Hash + Display + Send + Sync {
    fn int(self) -> Option<i64>;
}

impl Key for i64 {
    fn int(self) -> Option<i64> {
        Some(self)
    }
}

impl Key for Sym {
    fn int(self) -> Option<i64> {
        None
    }
}

/// The `R̂2` row of each key.
enum KeyRows<T> {
    /// Integer keys spanning at most two values per row: the row of key
    /// `k` is `rows[k − min]`, [`NO_ROW`] where no row holds it.
    Table {
        min: i64,
        rows: Vec<u32>,
    },
    Hash(HashMap<T, u32>),
}

const NO_ROW: u32 = u32::MAX;

impl<T: Key> KeyRows<T> {
    /// An empty index for the keys of `n` rows.
    fn for_keys(keys: impl Iterator<Item = T>, n: usize) -> KeyRows<T> {
        let (min, max) = keys
            .filter_map(T::int)
            .fold((i64::MAX, i64::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
        let span = i128::from(max) - i128::from(min) + 1;
        if 0 < span && span <= 2 * n as i128 {
            KeyRows::Table {
                min,
                rows: vec![NO_ROW; span as usize],
            }
        } else {
            KeyRows::Hash(HashMap::with_capacity(n))
        }
    }

    /// The table slot of `key`, if it has one.
    fn slot(min: i64, key: T) -> Option<usize> {
        usize::try_from(i128::from(key.int()?) - i128::from(min)).ok()
    }

    /// Records `key` at `row`; returns the row that holds it already.
    fn insert(&mut self, key: T, row: u32) -> Option<u32> {
        match self {
            KeyRows::Table { min, rows } => {
                let at = Self::slot(*min, key).expect("the table spans every key");
                match rows[at] {
                    NO_ROW => {
                        rows[at] = row;
                        None
                    }
                    first => Some(first),
                }
            }
            KeyRows::Hash(map) => map.insert(key, row),
        }
    }

    fn get(&self, key: T) -> Option<u32> {
        match self {
            KeyRows::Table { min, rows } => Self::slot(*min, key)
                .and_then(|at| rows.get(at).copied())
                .filter(|&row| row != NO_ROW),
            KeyRows::Hash(map) => map.get(&key).copied(),
        }
    }
}

// ---- Join ----------------------------------------------------------------

/// `true` iff `view` is `R̂1 ⋈ R̂2`: the join's schema, one row per `R̂1`
/// row, and every cell equal to the `R̂1` cell or (through `matched`) the
/// `R̂2` cell it comes from, checked chunk by chunk.
fn view_is_join(
    view: &Relation,
    r1_hat: &Relation,
    r2_hat: &Relation,
    matched: &[u32],
    workers: usize,
) -> Result<bool> {
    let (schema, layout) = join_schema(r1_hat.schema(), r2_hat.schema())?;
    if view.schema().columns() != schema.columns() || view.n_rows() != r1_hat.n_rows() {
        return Ok(false);
    }
    let key = r1_hat
        .schema()
        .key_col()
        .expect("join_schema checked the key");
    // `(view column, source column)` pairs.
    let from_r1: Vec<(ColId, ColId)> = std::iter::once((layout.key_col, key))
        .chain(
            layout
                .r1_attr_cols
                .iter()
                .copied()
                .zip(r1_hat.schema().attr_cols()),
        )
        .collect();
    let from_r2: Vec<(ColId, ColId)> = layout
        .r2_attr_cols
        .iter()
        .copied()
        .zip(layout.r2_source_cols.iter().copied())
        .collect();
    let n = view.n_rows();
    let Ok(chunks) = run_all(n.div_ceil(CHUNK_ROWS), workers, |c| {
        let rows = chunk(c, n);
        let same =
            |&(vc, sc): &(ColId, ColId)| column_matches(view, vc, r1_hat, sc, rows.clone(), |r| r);
        let matching = |&(vc, sc): &(ColId, ColId)| {
            column_matches(view, vc, r2_hat, sc, rows.clone(), |r| matched[r] as RowId)
        };
        Ok::<_, Infallible>(from_r1.iter().all(same) && from_r2.iter().all(matching))
    });
    Ok(chunks.into_iter().all(|ok| ok))
}

/// `true` iff every cell of column `vc` of `view` in `rows` equals column
/// `sc` of `source` at row `at(r)`.
fn column_matches(
    view: &Relation,
    vc: ColId,
    source: &Relation,
    sc: ColId,
    mut rows: Range<RowId>,
    at: impl Fn(RowId) -> RowId,
) -> bool {
    match (view.int_view(vc), source.int_view(sc)) {
        (Some(v), Some(s)) => rows.all(|r| v.get(r) == s.get(at(r))),
        (None, None) => {
            let (v, s) = (sym_cells(view, vc), sym_cells(source, sc));
            rows.all(|r| v.get(r) == s.get(at(r)))
        }
        _ => false,
    }
}

// ---- Row bitsets -------------------------------------------------------

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1 << (i & 63);
}

#[inline]
fn bit(bits: &[u64], i: usize) -> bool {
    (bits[i >> 6] >> (i & 63)) & 1 == 1
}

/// Index of `item` in `items`, pushing it first if absent.
fn intern<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|x| *x == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

/// `true` iff every bit of `needs` is set in `have`.
fn covers(have: &[u64], needs: &[u64]) -> bool {
    needs.iter().zip(have).all(|(&need, &has)| need & !has == 0)
}

// ---- Buckets -------------------------------------------------------------

/// A column's cells in buckets, every cell of a bucket answering each of a
/// fixed set of tests (the value sets of CC conditions, the unary atoms of
/// DCs) alike.
enum Buckets<'a> {
    /// The bucket of `v` is the number of change points `≤ v`. A change
    /// point is a value whose answers may differ from its predecessor's
    /// (bucket 0 is empty when `i64::MIN` is one).
    Int {
        cells: IntColumnView<'a>,
        changes: Vec<i64>,
    },
    /// The bucket of a symbol is its dictionary code.
    Sym(SymColumnView<'a>),
}

impl<'a> Buckets<'a> {
    fn int(cells: IntColumnView<'a>, changes: impl IntoIterator<Item = i64>) -> Buckets<'a> {
        let mut changes: Vec<i64> = changes.into_iter().collect();
        changes.sort_unstable();
        changes.dedup();
        Buckets::Int { cells, changes }
    }

    fn len(&self) -> usize {
        match self {
            Buckets::Int { changes, .. } => changes.len() + 1,
            Buckets::Sym(cells) => cells.dict().len(),
        }
    }

    /// A value of bucket `b`, answering every test as all its values do:
    /// an integer bucket's least value, a code's symbol.
    fn value(&self, b: usize) -> Value {
        match self {
            Buckets::Int { changes, .. } => {
                Value::Int(b.checked_sub(1).map_or(i64::MIN, |c| changes[c]))
            }
            Buckets::Sym(cells) => Value::Str(cells.dict()[b]),
        }
    }

    /// Calls `f(i, bucket)` for the `i`-th of `rows`, with bucket `None` for
    /// a missing cell.
    #[inline]
    fn each(&self, rows: impl Iterator<Item = RowId>, mut f: impl FnMut(usize, Option<usize>)) {
        match self {
            Buckets::Int { cells, changes } => {
                for (i, r) in rows.enumerate() {
                    f(
                        i,
                        cells.get(r).map(|v| changes.partition_point(|&c| c <= v)),
                    );
                }
            }
            Buckets::Sym(cells) => {
                for (i, r) in rows.enumerate() {
                    f(i, cells.code(r).map(|c| c as usize));
                }
            }
        }
    }
}

// ---- CCs -----------------------------------------------------------------

/// Counts the rows of `view` satisfying each CC's combined condition.
fn count_ccs(view: &Relation, ccs: &[CardinalityConstraint]) -> Result<Vec<u64>> {
    Ok(CcSelections::resolve(view, ccs)?.count(1))
}

/// The CC conditions resolved against a view: the distinct `(column, value
/// set)` selections, each CC's selections, and the buckets of every column
/// a selection reads.
struct CcSelections<'a> {
    n_rows: usize,
    n_selections: usize,
    /// Each CC's selections; none selects every row.
    per_cc: Vec<Vec<usize>>,
    columns: Vec<SelectionColumn<'a>>,
}

/// The selections on one view column. Each present cell falls in one
/// bucket, and the cells of bucket `b` lie in exactly the selections
/// `sels[starts[b]..starts[b + 1]]`; a missing cell lies in none.
struct SelectionColumn<'a> {
    buckets: Buckets<'a>,
    starts: Vec<u32>,
    sels: Vec<u32>,
}

impl<'a> CcSelections<'a> {
    fn resolve(view: &'a Relation, ccs: &[CardinalityConstraint]) -> Result<CcSelections<'a>> {
        let mut selections: Vec<(ColId, ValueSet)> = Vec::new();
        let mut per_cc: Vec<Vec<usize>> = Vec::with_capacity(ccs.len());
        for cc in ccs {
            let cond = cc.combined();
            let mut ids = Vec::with_capacity(cond.len());
            for (name, set) in cond.iter() {
                let col = view.schema().require(name, view.name())?;
                ids.push(intern(&mut selections, (col, set.clone())));
            }
            per_cc.push(ids);
        }
        let mut cols: Vec<ColId> = selections.iter().map(|&(col, _)| col).collect();
        cols.sort_unstable();
        cols.dedup();
        let columns = cols
            .into_iter()
            .map(|col| SelectionColumn::build(view, col, &selections))
            .collect();
        Ok(CcSelections {
            n_rows: view.n_rows(),
            n_selections: selections.len(),
            per_cc,
            columns,
        })
    }

    /// Each CC's count, summed over the chunks of view rows.
    fn count(&self, workers: usize) -> Vec<u64> {
        let n = self.n_rows;
        let Ok(chunks) = run_all(n.div_ceil(CHUNK_ROWS), workers, |c| {
            Ok::<_, Infallible>(self.count_rows(chunk(c, n)))
        });
        let mut counts = vec![0u64; self.per_cc.len()];
        for chunk in chunks {
            for (total, got) in counts.iter_mut().zip(chunk) {
                *total += got;
            }
        }
        counts
    }

    /// Each CC's count over `rows`: one bitset per selection over those
    /// rows only, ANDed and popcounted per CC.
    fn count_rows(&self, rows: Range<RowId>) -> Vec<u64> {
        let words = rows.len().div_ceil(64);
        let mut selected = vec![0u64; self.n_selections * words];
        for column in &self.columns {
            column.buckets.each(rows.clone(), |i, b| {
                let Some(b) = b else {
                    return;
                };
                let (from, to) = (column.starts[b] as usize, column.starts[b + 1] as usize);
                for &s in &column.sels[from..to] {
                    selected[s as usize * words + (i >> 6)] |= 1 << (i & 63);
                }
            });
        }
        let word = |s: usize, w: usize| selected[s * words + w];
        self.per_cc
            .iter()
            .map(|ids| match ids.split_first() {
                None => rows.len() as u64,
                Some((&first, rest)) => (0..words)
                    .map(|w| {
                        let all = rest.iter().fold(word(first, w), |acc, &s| acc & word(s, w));
                        u64::from(all.count_ones())
                    })
                    .sum(),
            })
            .collect()
    }
}

impl<'a> SelectionColumn<'a> {
    /// Buckets column `col` of `view` for the selections on it. A value set
    /// of the other type, or the empty set, holds no bucket.
    fn build(view: &'a Relation, col: ColId, selections: &[(ColId, ValueSet)]) -> Self {
        let on_col = || {
            selections
                .iter()
                .enumerate()
                .filter(move |(_, (c, _))| *c == col)
                .map(|(s, (_, set))| (s as u32, set))
        };
        // `(bucket, selection)` for every bucket inside a selection.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let buckets = match view.schema().column(col).dtype {
            Dtype::Int => {
                // A range's answer changes at `lo` and past `hi`.
                let ends = on_col().flat_map(|(_, set)| match *set {
                    ValueSet::IntRange { lo, hi } => [Some(lo), hi.checked_add(1)],
                    _ => [None, None],
                });
                let buckets =
                    Buckets::int(view.int_view(col).expect("dtype checked"), ends.flatten());
                for b in 0..buckets.len() {
                    let value = buckets.value(b);
                    pairs.extend(
                        on_col()
                            .filter(|(_, set)| set.contains(value))
                            .map(|(s, _)| (b as u32, s)),
                    );
                }
                buckets
            }
            Dtype::Str => {
                let cells = sym_cells(view, col);
                for (s, set) in on_col() {
                    if let ValueSet::Strs(syms) = set {
                        pairs.extend(
                            syms.iter()
                                .filter_map(|&sym| Some((cells.code_of(sym)?, s))),
                        );
                    }
                }
                Buckets::Sym(cells)
            }
        };
        pairs.sort_unstable();
        let mut starts = vec![0u32; buckets.len() + 1];
        for &(b, _) in &pairs {
            starts[b as usize + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        SelectionColumn {
            buckets,
            starts,
            sels: pairs.into_iter().map(|(_, s)| s).collect(),
        }
    }
}

// ---- DCs -----------------------------------------------------------------

/// `R̂1`'s rows in groups: group `g` is `rows[starts[g]..starts[g + 1]]`,
/// in ascending row order.
struct Groups {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Groups {
    /// One group per `R̂2` row, holding the `R̂1` rows matched to it, from
    /// one counting pass over the match.
    fn by_match(matched: &[u32], n_r2: usize) -> Groups {
        // Counting each group at its own slot and summing leaves `starts[g]`
        // at the end of group `g`; placing the rows from the last down then
        // moves it back to the group's start.
        let mut starts = vec![0u32; n_r2 + 1];
        for &m in matched {
            starts[m as usize] += 1;
        }
        let mut total = 0;
        for s in &mut starts {
            total += *s;
            *s = total;
        }
        let mut rows = vec![0u32; matched.len()];
        for (r, &m) in matched.iter().enumerate().rev() {
            let at = &mut starts[m as usize];
            *at -= 1;
            rows[*at as usize] = r as u32;
        }
        Groups { starts, rows }
    }

    /// The rows sharing a value of column `fk`, from a sort of `(value,
    /// row)` pairs (a dictionary code stands for its symbol within one
    /// column); rows missing it join no group.
    fn by_value(rel: &Relation, fk: ColId) -> Groups {
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
        let mut starts = vec![0u32];
        starts.extend(
            (1..keyed.len())
                .filter(|&i| keyed[i - 1].0 != keyed[i].0)
                .map(|i| i as u32),
        );
        starts.push(keyed.len() as u32);
        Groups {
            starts,
            rows: keyed.into_iter().map(|(_, r)| r).collect(),
        }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    #[cfg(test)]
    fn group(&self, g: usize) -> &[u32] {
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }

    /// Runs of whole groups, each closed once it holds [`CHUNK_ROWS`] rows.
    fn chunks(&self) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let mut from = 0;
        for g in 0..self.len() {
            if (self.starts[g + 1] - self.starts[from]) as usize >= CHUNK_ROWS {
                out.push(from..g + 1);
                from = g + 1;
            }
        }
        if from < self.len() {
            out.push(from..self.len());
        }
        out
    }
}

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

/// A binary atom `t_lvar.lcol ◦ t_rvar.rcol + offset` over integer columns,
/// which it reads as slots of a group's gathered cells.
struct BinaryAtom {
    lvar: usize,
    lslot: usize,
    op: CmpOp,
    rvar: usize,
    rslot: usize,
    offset: i64,
}

impl BinaryAtom {
    /// The atom on the members bound so far (`at[var]` is variable `var`'s
    /// member); a missing cell is false, as in [`BoundDc::holds`].
    #[inline]
    fn holds(&self, group: &Group<'_>, at: &[u32]) -> bool {
        match (
            group.cell(self.lslot, at[self.lvar]),
            group.cell(self.rslot, at[self.rvar]),
        ) {
            // Exact: the sum cannot leave `i128`.
            (Some(l), Some(r)) => self
                .op
                .test(i128::from(l).cmp(&(i128::from(r) + i128::from(self.offset)))),
            _ => false,
        }
    }
}

/// One FK group as the enumeration sees it: members by position.
struct Group<'g> {
    rows: &'g [u32],
    /// Member `i`'s cell in slot `s` of the binary atoms' columns is
    /// `cells[s * rows.len() + i]`.
    cells: &'g [Option<i64>],
    /// Each filter's candidates, as member positions.
    cands: &'g [Vec<u32>],
}

impl Group<'_> {
    #[inline]
    fn cell(&self, slot: usize, member: u32) -> Option<i64> {
        self.cells[slot * self.rows.len() + member as usize]
    }
}

/// One DC, ready to enumerate.
struct DcCheck {
    bound: BoundDc,
    /// The candidate filter of each tuple variable.
    filters: Vec<usize>,
    /// The same filters as a mask (bit `f` of word `f / 64`).
    needs: Vec<u64>,
    /// `tests[d]`: the binary atoms whose later variable is `d`.
    tests: Vec<Vec<BinaryAtom>>,
}

impl DcCheck {
    /// Extends the partial tuple `at` by one distinct member per remaining
    /// variable, and marks in `violating` the members of every complete
    /// tuple φ holds on (`tuple` is scratch for its rows).
    fn extend(
        &self,
        rel: &Relation,
        group: &Group<'_>,
        at: &mut Vec<u32>,
        tuple: &mut Vec<RowId>,
        violating: &mut [u64],
    ) {
        let depth = at.len();
        if depth == self.filters.len() {
            tuple.clear();
            tuple.extend(at.iter().map(|&i| group.rows[i as usize] as RowId));
            if self.bound.holds(rel, tuple) {
                for &i in at.iter() {
                    set_bit(violating, i as usize);
                }
            }
            return;
        }
        for &i in &group.cands[self.filters[depth]] {
            if at.contains(&i) {
                continue;
            }
            at.push(i);
            if self.tests[depth].iter().all(|a| a.holds(group, at)) {
                self.extend(rel, group, at, tuple, violating);
            }
            at.pop();
        }
    }
}

/// A column the unary atoms read, in buckets whose cells pass the same
/// atoms. As far as this column decides, a row whose cell is in bucket `b`
/// passes the filters of the mask `passes[b * fw..][..fw]`, and a row
/// missing the cell those of the last mask (the filters with no atom on the
/// column).
struct FilterColumn<'a> {
    buckets: Buckets<'a>,
    passes: Vec<u64>,
}

/// The DCs of one relation, compiled: the distinct per-variable filters
/// (sets of distinct unary atoms), the columns their atoms read, and one
/// check per DC that can hold.
struct CompiledDcs<'a> {
    rel: &'a Relation,
    /// The columns of the binary atoms, by slot.
    slots: Vec<IntColumnView<'a>>,
    /// Words of a filter mask: bit `f` for filter `f`.
    fw: usize,
    n_filters: usize,
    /// The mask of every filter.
    all_filters: Vec<u64>,
    columns: Vec<FilterColumn<'a>>,
    checks: Vec<DcCheck>,
}

impl<'a> CompiledDcs<'a> {
    fn compile(rel: &'a Relation, dcs: &[DenialConstraint]) -> Result<CompiledDcs<'a>> {
        let (schema, name) = (rel.schema(), rel.name());
        let mut atoms: Vec<UnaryAtom> = Vec::new();
        let mut filters: Vec<Vec<usize>> = Vec::new();
        let mut slots: Vec<ColId> = Vec::new();
        let mut checks: Vec<DcCheck> = Vec::new();
        'dcs: for dc in dcs {
            let bound = dc.bind(schema, name)?;
            let mut var_atoms: Vec<Vec<usize>> = vec![Vec::new(); dc.arity];
            let mut tests: Vec<Vec<BinaryAtom>> = (0..dc.arity).map(|_| Vec::new()).collect();
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
                        var_atoms[*var].push(intern(&mut atoms, atom));
                    }
                    DcAtom::Binary {
                        lvar,
                        lcol,
                        op,
                        rvar,
                        rcol,
                        offset,
                    } => {
                        let (l, r) = (schema.require(lcol, name)?, schema.require(rcol, name)?);
                        // `holds` reads binary atoms from integer cells
                        // only: on any other column the atom, and so φ,
                        // never holds.
                        if rel.int_view(l).is_none() || rel.int_view(r).is_none() {
                            continue 'dcs;
                        }
                        tests[(*lvar).max(*rvar)].push(BinaryAtom {
                            lvar: *lvar,
                            lslot: intern(&mut slots, l),
                            op: *op,
                            rvar: *rvar,
                            rslot: intern(&mut slots, r),
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
                    intern(&mut filters, ids)
                })
                .collect();
            checks.push(DcCheck {
                bound,
                filters,
                needs: Vec::new(),
                tests,
            });
        }
        let fw = filters.len().div_ceil(64);
        for check in &mut checks {
            check.needs = vec![0u64; fw];
            for &f in &check.filters {
                set_bit(&mut check.needs, f);
            }
        }
        let mut all_filters = vec![0u64; fw];
        for f in 0..filters.len() {
            set_bit(&mut all_filters, f);
        }
        let mut cols: Vec<ColId> = atoms.iter().map(|a| a.col).collect();
        cols.sort_unstable();
        cols.dedup();
        let columns = cols
            .into_iter()
            .map(|col| {
                let on_col = || atoms.iter().filter(move |a| a.col == col);
                let buckets = match rel.int_view(col) {
                    // An atom `t.col ◦ c` changes its answer at `c` and
                    // past it.
                    Some(cells) => {
                        let ends = on_col().flat_map(|a| match a.value {
                            Value::Int(c) => [Some(c), c.checked_add(1)],
                            Value::Str(_) => [None, None],
                        });
                        Buckets::int(cells, ends.flatten())
                    }
                    None => Buckets::Sym(sym_cells(rel, col)),
                };
                let missing = buckets.len();
                let mut passes = vec![0u64; (missing + 1) * fw];
                for (f, ids) in filters.iter().enumerate() {
                    let mut own = ids.iter().map(|&a| &atoms[a]).filter(|a| a.col == col);
                    for b in 0..missing {
                        let value = buckets.value(b);
                        if own.clone().all(|a| a.passes(value)) {
                            set_bit(&mut passes[b * fw..], f);
                        }
                    }
                    if own.next().is_none() {
                        set_bit(&mut passes[missing * fw..], f);
                    }
                }
                FilterColumn { buckets, passes }
            })
            .collect();
        Ok(CompiledDcs {
            rel,
            slots: slots
                .into_iter()
                .map(|col| {
                    rel.int_view(col)
                        .expect("binary atoms read integer columns")
                })
                .collect(),
            fw,
            n_filters: filters.len(),
            all_filters,
            columns,
            checks,
        })
    }

    /// The fraction of the relation's rows in some violation within their
    /// group, the runs of groups checked on up to `workers` threads.
    fn violation_fraction(&self, groups: &Groups, workers: usize) -> f64 {
        if self.checks.is_empty() {
            return 0.0;
        }
        let runs = groups.chunks();
        let Ok(counts) = run_all(runs.len(), workers, |c| {
            Ok::<_, Infallible>(self.violations_in(groups, runs[c].clone()))
        });
        // A row lies in one group, so the runs' counts add.
        counts.into_iter().sum::<u64>() as f64 / self.rel.n_rows() as f64
    }

    /// The rows of the groups `run` in some violation.
    fn violations_in(&self, groups: &Groups, run: Range<usize>) -> u64 {
        let fw = self.fw;
        // The run's rows, group after group, and the filters each passes:
        // every column ANDs in the mask of its cell's bucket.
        let base = groups.starts[run.start] as usize;
        let rows = &groups.rows[base..groups.starts[run.end] as usize];
        let mut masks: Vec<u64> = (0..rows.len())
            .flat_map(|_| self.all_filters.iter().copied())
            .collect();
        for column in &self.columns {
            let missing = column.buckets.len();
            column
                .buckets
                .each(rows.iter().map(|&r| r as RowId), |i, b| {
                    let passed = &column.passes[b.unwrap_or(missing) * fw..][..fw];
                    for (m, &p) in masks[i * fw..][..fw].iter_mut().zip(passed) {
                        *m &= p;
                    }
                });
        }
        let mut cands: Vec<Vec<u32>> = vec![Vec::new(); self.n_filters];
        let mut present = vec![0u64; fw];
        let mut cells: Vec<Option<i64>> = Vec::new();
        let (mut at, mut tuple) = (Vec::new(), Vec::new());
        let mut violating: Vec<u64> = Vec::new();
        let mut count = 0;
        for g in run {
            let (from, to) = (
                groups.starts[g] as usize - base,
                groups.starts[g + 1] as usize - base,
            );
            if to - from < 2 {
                continue;
            }
            // Each filter's candidates in the group, gathered once.
            present.fill(0);
            for (i, mask) in masks[from * fw..to * fw].chunks_exact(fw).enumerate() {
                for (w, &word) in mask.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let f = w * 64 + word.trailing_zeros() as usize;
                        if !bit(&present, f) {
                            set_bit(&mut present, f);
                            cands[f].clear();
                        }
                        cands[f].push(i as u32);
                        word &= word - 1;
                    }
                }
            }
            let members = &rows[from..to];
            cells.clear();
            for slot in &self.slots {
                cells.extend(members.iter().map(|&r| slot.get(r as RowId)));
            }
            let group = Group {
                rows: members,
                cells: &cells,
                cands: &cands,
            };
            violating.clear();
            violating.resize(members.len().div_ceil(64), 0);
            for check in &self.checks {
                if covers(&present, &check.needs) {
                    at.clear();
                    check.extend(self.rel, &group, &mut at, &mut tuple, &mut violating);
                }
            }
            count += violating
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>();
        }
        count
    }
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
        let matched = match_fks(&r1, fk, &r2, 1).unwrap();
        assert_eq!(matched, vec![0, 1, 0, 1]);
        let view = fk_join(&r1, &r2).unwrap();
        assert!(view_is_join(&view, &r1, &r2, &matched, 1).unwrap());
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

    #[test]
    fn integer_buckets_count_like_count_in_at_the_extremes() {
        use cextend_constraints::NormalizedCond;
        use cextend_table::{ColumnDef, Dtype, Schema};
        let schema = Schema::new(vec![ColumnDef::attr("X", Dtype::Int)]).unwrap();
        let mut view = Relation::new("v", schema);
        for x in [i64::MIN, i64::MIN + 1, -1, 0, 1, 7, i64::MAX - 1, i64::MAX] {
            view.push_row(&[Some(Value::Int(x))]).unwrap();
        }
        view.push_row(&[None]).unwrap();
        let ccs: Vec<CardinalityConstraint> = [
            ValueSet::range(i64::MIN, i64::MIN),
            ValueSet::range(i64::MIN, 0),
            ValueSet::range(0, i64::MAX),
            ValueSet::range(i64::MAX, i64::MAX),
            ValueSet::range(-1, 1),
            ValueSet::range(7, 7),
            ValueSet::all_ints(),
        ]
        .into_iter()
        .map(|set| {
            let cond = NormalizedCond::from_sets([("X".to_owned(), set)]);
            CardinalityConstraint::new("cc", cond, NormalizedCond::always(), 0)
        })
        .collect();
        let expected: Vec<u64> = ccs.iter().map(|cc| cc.count_in(&view).unwrap()).collect();
        assert_eq!(expected, vec![1, 4, 5, 1, 3, 1, 8]);
        assert_eq!(count_ccs(&view, &ccs).unwrap(), expected);
    }

    /// Over three chunks of rows in groups of one to five, with integer
    /// cells at the extremes and missing cells, the DC error is the
    /// brute-force fraction of rows in a violating pair of their group,
    /// grouped by value or by match, at every width.
    #[test]
    fn dc_error_is_the_brute_force_fraction_across_chunks_and_widths() {
        use cextend_table::{ColumnDef, Dtype, Schema};
        let schema = Schema::new(vec![
            ColumnDef::key("pid", Dtype::Int),
            ColumnDef::attr("X", Dtype::Int),
            ColumnDef::attr("K", Dtype::Str),
            ColumnDef::foreign_key("hid", Dtype::Int),
        ])
        .unwrap();
        let mut rel = Relation::new("R", schema);
        let n = 3 * CHUNK_ROWS + 100;
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let (mut hid, mut left) = (0i64, 1u64);
        let mut matched = Vec::with_capacity(n);
        for pid in 0..n {
            let x = match next() % 8 {
                0 => None,
                1 => Some(i64::MIN),
                2 => Some(i64::MAX),
                v => Some(v as i64 * 3 - 12),
            };
            let k = ["a", "b", "c"][next() as usize % 3];
            rel.push_row(&[
                Some(Value::Int(pid as i64)),
                x.map(Value::Int),
                Some(Value::str(k)),
                Some(Value::Int(hid)),
            ])
            .unwrap();
            matched.push(hid as u32);
            left -= 1;
            if left == 0 {
                hid += 1;
                left = 1 + next() % 5;
            }
        }
        let unary = |var: usize, column: &str, op: CmpOp, value: Value| DcAtom::Unary {
            var,
            column: column.to_owned(),
            op,
            value,
        };
        let dc = |atoms: Vec<DcAtom>| DenialConstraint::new("d", 2, atoms).unwrap();
        let dcs = vec![
            dc(vec![
                unary(0, "X", CmpOp::Ge, Value::Int(i64::MAX)),
                unary(1, "X", CmpOp::Le, Value::Int(i64::MIN)),
            ]),
            dc(vec![
                unary(0, "K", CmpOp::Eq, Value::str("a")),
                unary(1, "K", CmpOp::Eq, Value::str("a")),
                unary(1, "X", CmpOp::Ne, Value::Int(0)),
            ]),
            dc(vec![
                unary(0, "X", CmpOp::Lt, Value::Int(0)),
                DcAtom::Binary {
                    lvar: 1,
                    lcol: "X".to_owned(),
                    op: CmpOp::Gt,
                    rvar: 0,
                    rcol: "X".to_owned(),
                    offset: 5,
                },
            ]),
            // A type mismatch never holds.
            dc(vec![unary(0, "X", CmpOp::Eq, Value::str("a"))]),
        ];
        let bound: Vec<BoundDc> = dcs
            .iter()
            .map(|d| d.bind(rel.schema(), rel.name()).unwrap())
            .collect();
        let groups = Groups::by_value(&rel, rel.schema().fk_col().unwrap());
        let mut violating = vec![false; n];
        for g in 0..groups.len() {
            let rows = groups.group(g);
            for &a in rows {
                for &b in rows.iter().filter(|&&b| b != a) {
                    let pair = [a as RowId, b as RowId];
                    if bound.iter().any(|d| d.holds(&rel, &pair)) {
                        violating[a as usize] = true;
                        violating[b as usize] = true;
                    }
                }
            }
        }
        let brute = violating.iter().filter(|&&v| v).count() as f64 / n as f64;
        assert!(brute > 0.0);
        assert_eq!(dc_error(&rel, &dcs).unwrap(), brute);
        let by_match = Groups::by_match(&matched, hid as usize + 1);
        assert!(by_match.chunks().len() >= 3);
        let compiled = CompiledDcs::compile(&rel, &dcs).unwrap();
        for workers in [1, 2, 4] {
            assert_eq!(
                compiled.violation_fraction(&by_match, workers),
                brute,
                "{workers}"
            );
        }
    }

    #[test]
    fn matched_groups_are_the_value_groups_in_row_order() {
        let matched = [2u32, 0, 2, 3, 0, 2];
        let groups = Groups::by_match(&matched, 5);
        let listed: Vec<&[u32]> = (0..groups.len()).map(|g| groups.group(g)).collect();
        assert_eq!(listed, vec![&[1, 4][..], &[], &[0, 2, 5], &[3], &[]]);
    }
}
