//! Foreign-key denial constraints (Definition 2.2 of the paper).
//!
//! A Foreign Key DC is `∀t1..tk ¬(p1 ∧ … ∧ p_{n−1} ∧ t1.FK = … = tk.FK)`:
//! a conjunction φ of comparisons over the tuples' non-FK attributes, plus
//! the implicit FK-equality chain. We store φ explicitly (unary atoms
//! `t_i.A ◦ c` and binary atoms `t_i.A ◦ t_j.B + offset`, which cover the
//! paper's age-gap constraints such as `t2.Age < t1.Age − 50`) and leave the
//! FK chain implicit: a set of distinct tuples where φ holds is exactly a
//! conflict-hypergraph edge.

use crate::error::{ConstraintError, Result};
use cextend_table::{CmpOp, ColId, Relation, RowId, Schema, Value};
use std::fmt;

/// One conjunct of a DC's condition φ.
#[derive(Clone, PartialEq, Debug)]
pub enum DcAtom {
    /// `t_var.column ◦ value`.
    Unary {
        /// Tuple-variable index (0-based).
        var: usize,
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Constant.
        value: Value,
    },
    /// `t_lvar.lcol ◦ t_rvar.rcol + offset` (integer columns).
    Binary {
        /// Left tuple-variable index.
        lvar: usize,
        /// Left column name.
        lcol: String,
        /// Operator.
        op: CmpOp,
        /// Right tuple-variable index.
        rvar: usize,
        /// Right column name.
        rcol: String,
        /// Constant offset added to the right side.
        offset: i64,
    },
}

impl fmt::Display for DcAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcAtom::Unary {
                var,
                column,
                op,
                value,
            } => match value {
                Value::Str(s) => write!(f, "t{}.{column} {op} \"{s}\"", var + 1),
                Value::Int(v) => write!(f, "t{}.{column} {op} {v}", var + 1),
            },
            DcAtom::Binary {
                lvar,
                lcol,
                op,
                rvar,
                rcol,
                offset,
            } => {
                write!(f, "t{}.{lcol} {op} t{}.{rcol}", lvar + 1, rvar + 1)?;
                match offset.cmp(&0) {
                    std::cmp::Ordering::Greater => write!(f, " + {offset}"),
                    std::cmp::Ordering::Less => write!(f, " - {}", -offset),
                    std::cmp::Ordering::Equal => Ok(()),
                }
            }
        }
    }
}

/// A Foreign Key denial constraint: `¬(φ ∧ t1.FK = … = tk.FK)`.
#[derive(Clone, PartialEq, Debug)]
pub struct DenialConstraint {
    /// Identifier used in reports.
    pub name: String,
    /// Number of tuple variables `k` (≥ 2); quantification ranges over
    /// *distinct* tuples.
    pub arity: usize,
    /// The conjunction φ over non-FK attributes.
    pub atoms: Vec<DcAtom>,
}

impl DenialConstraint {
    /// Builds a DC, validating variable indices.
    pub fn new(
        name: impl Into<String>,
        arity: usize,
        atoms: Vec<DcAtom>,
    ) -> Result<DenialConstraint> {
        if arity < 2 {
            return Err(ConstraintError::BadDenialConstraint(format!(
                "arity must be at least 2, got {arity}"
            )));
        }
        for a in &atoms {
            let max_var = match a {
                DcAtom::Unary { var, .. } => *var,
                DcAtom::Binary { lvar, rvar, .. } => (*lvar).max(*rvar),
            };
            if max_var >= arity {
                return Err(ConstraintError::BadDenialConstraint(format!(
                    "atom `{a}` references tuple variable t{} but arity is {arity}",
                    max_var + 1
                )));
            }
        }
        Ok(DenialConstraint {
            name: name.into(),
            arity,
            atoms,
        })
    }

    /// Binds column names against `schema` for fast evaluation.
    pub fn bind(&self, schema: &Schema, relation: &str) -> Result<BoundDc> {
        let atoms = self
            .atoms
            .iter()
            .map(|a| {
                Ok(match a {
                    DcAtom::Unary {
                        var,
                        column,
                        op,
                        value,
                    } => BoundDcAtom::Unary {
                        var: *var,
                        col: schema.require(column, relation)?,
                        op: *op,
                        value: *value,
                    },
                    DcAtom::Binary {
                        lvar,
                        lcol,
                        op,
                        rvar,
                        rcol,
                        offset,
                    } => BoundDcAtom::Binary {
                        lvar: *lvar,
                        lcol: schema.require(lcol, relation)?,
                        op: *op,
                        rvar: *rvar,
                        rcol: schema.require(rcol, relation)?,
                        offset: *offset,
                    },
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(BoundDc {
            arity: self.arity,
            atoms,
        })
    }

    /// Evaluates φ on concrete rows (`rows.len()` must equal the arity).
    /// `true` means the rows *conflict*: giving them one FK value would
    /// violate this DC. Convenience wrapper around [`DenialConstraint::bind`].
    pub fn holds(&self, rel: &Relation, rows: &[RowId]) -> Result<bool> {
        Ok(self.bind(rel.schema(), rel.name())?.holds(rel, rows))
    }
}

impl fmt::Display for DenialConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ¬(", self.name)?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(" & ")?;
            }
            write!(f, "{a}")?;
        }
        if !self.atoms.is_empty() {
            f.write_str(" & ")?;
        }
        for v in 0..self.arity {
            if v > 0 {
                f.write_str(" = ")?;
            }
            write!(f, "t{}.FK", v + 1)?;
        }
        f.write_str(")")
    }
}

/// A DC bound to a schema.
#[derive(Clone, Debug)]
pub struct BoundDc {
    /// Number of tuple variables.
    pub arity: usize,
    atoms: Vec<BoundDcAtom>,
}

#[derive(Clone, Copy, Debug)]
enum BoundDcAtom {
    Unary {
        var: usize,
        col: ColId,
        op: CmpOp,
        value: Value,
    },
    Binary {
        lvar: usize,
        lcol: ColId,
        op: CmpOp,
        rvar: usize,
        rcol: ColId,
        offset: i64,
    },
}

impl BoundDc {
    /// Evaluates φ on `rows` (one per tuple variable). Missing cells make
    /// the containing atom false (φ cannot be established on absent data).
    #[inline]
    pub fn holds(&self, rel: &Relation, rows: &[RowId]) -> bool {
        debug_assert_eq!(rows.len(), self.arity);
        self.atoms.iter().all(|a| match *a {
            BoundDcAtom::Unary {
                var,
                col,
                op,
                value,
            } => match rel.get(rows[var], col) {
                Some(v) => op.eval(v, value),
                None => false,
            },
            BoundDcAtom::Binary {
                lvar,
                lcol,
                op,
                rvar,
                rcol,
                offset,
            } => match (rel.get_int(rows[lvar], lcol), rel.get_int(rows[rvar], rcol)) {
                (Some(l), Some(r)) => cmp_offset(op, l, r, offset),
                _ => false,
            },
        })
    }

    /// `true` if row `r` can satisfy every unary atom of tuple variable
    /// `var` — a cheap pre-filter before enumerating tuple combinations.
    #[inline]
    pub fn var_candidate(&self, rel: &Relation, var: usize, r: RowId) -> bool {
        self.atoms.iter().all(|a| match *a {
            BoundDcAtom::Unary {
                var: v,
                col,
                op,
                value,
            } if v == var => match rel.get(r, col) {
                Some(x) => op.eval(x, value),
                None => false,
            },
            _ => true,
        })
    }

    /// Compiles this DC into a [`DcPlan`] for indexed enumeration.
    pub fn plan(&self) -> DcPlan {
        DcPlan::compile(self)
    }
}

/// One unary conjunct of φ, split out per tuple variable by [`DcPlan`].
#[derive(Clone, Copy, Debug)]
pub struct UnaryFilter {
    /// Column the atom reads.
    pub col: ColId,
    /// Operator.
    pub op: CmpOp,
    /// Constant compared against.
    pub value: Value,
}

/// One binary conjunct `t_lvar.lcol ◦ t_rvar.rcol + offset` (integer
/// columns) as scheduled by a [`DcPlan`].
#[derive(Clone, Copy, Debug)]
pub struct BinaryAtomPlan {
    /// Left tuple-variable index.
    pub lvar: usize,
    /// Left column id.
    pub lcol: ColId,
    /// Operator.
    pub op: CmpOp,
    /// Right tuple-variable index.
    pub rvar: usize,
    /// Right column id.
    pub rcol: ColId,
    /// Constant offset added to the right side.
    pub offset: i64,
}

impl BinaryAtomPlan {
    /// `true` for `=` atoms — probeable through a hash bucket index (the
    /// preferred driver; see `cextend_core::conflict`).
    pub fn is_equality(&self) -> bool {
        self.op == CmpOp::Eq
    }

    /// `true` for ordering atoms — probeable through a sorted run.
    pub fn is_range(&self) -> bool {
        matches!(self.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
    }

    /// `true` if the atom reads tuple variable `var`.
    pub fn involves(&self, var: usize) -> bool {
        self.lvar == var || self.rvar == var
    }

    /// The atom's other tuple variable (callers guarantee `involves(var)`;
    /// for a same-variable atom this returns `var` itself).
    pub fn other_var(&self, var: usize) -> usize {
        if self.lvar == var {
            self.rvar
        } else {
            self.lvar
        }
    }

    /// Evaluates the atom on raw integer cells (`l` from `lvar.lcol`, `r`
    /// from `rvar.rcol`); a missing cell is `false`. Identical semantics to
    /// [`BoundDc::holds`]'s binary branch, minus the `Value` boxing.
    #[inline]
    pub fn eval_cells(&self, l: Option<i64>, r: Option<i64>) -> bool {
        match (l, r) {
            (Some(l), Some(r)) => cmp_offset(self.op, l, r, self.offset),
            _ => false,
        }
    }
}

/// `l ◦ r + offset` in exact arithmetic: the sum is taken in `i128`, so an
/// offset near either end of `i64` compares as written instead of wrapping
/// (or, in a debug build, panicking).
#[inline]
fn cmp_offset(op: CmpOp, l: i64, r: i64, offset: i64) -> bool {
    op.test(i128::from(l).cmp(&(i128::from(r) + i128::from(offset))))
}

/// Canonical form of a binary atom used for the symmetry check only:
/// `l ◦ r + off` and its flip `r ◦' l − off` denote the same constraint, so
/// both orientations map to one key (smaller variable on the left).
fn canonical_binary_key(a: &BinaryAtomPlan) -> (usize, ColId, u8, usize, ColId, i64) {
    let rank = canonical_binary_key_rank;
    let keep = (a.lvar, a.lcol) <= (a.rvar, a.rcol) || a.offset.checked_neg().is_none();
    if keep {
        (a.lvar, a.lcol, rank(a.op), a.rvar, a.rcol, a.offset)
    } else {
        (
            a.rvar,
            a.rcol,
            rank(flip_op(a.op)),
            a.lvar,
            a.lcol,
            -a.offset,
        )
    }
}

/// A compiled evaluation plan for one [`BoundDc`].
///
/// The plan splits φ into per-variable unary filters (candidate
/// pre-filtering) and binary atoms (equality atoms probe hash buckets,
/// ordering atoms probe sorted runs), and
/// detects **interchangeable tuple variables**: variables whose swap is an
/// automorphism of φ, so enumeration can restrict their assignments to
/// ascending vertex ids and emit each undirected conflict edge exactly once
/// instead of once per symmetric variable order.
#[derive(Clone, Debug)]
pub struct DcPlan {
    arity: usize,
    unary: Vec<Vec<UnaryFilter>>,
    binary: Vec<BinaryAtomPlan>,
    sym_class: Vec<usize>,
    never_holds: bool,
}

impl DcPlan {
    /// Compiles a bound DC.
    pub fn compile(dc: &BoundDc) -> DcPlan {
        let mut unary: Vec<Vec<UnaryFilter>> = vec![Vec::new(); dc.arity];
        let mut binary: Vec<BinaryAtomPlan> = Vec::new();
        for a in &dc.atoms {
            match *a {
                BoundDcAtom::Unary {
                    var,
                    col,
                    op,
                    value,
                } => unary[var].push(UnaryFilter { col, op, value }),
                BoundDcAtom::Binary {
                    lvar,
                    lcol,
                    op,
                    rvar,
                    rcol,
                    offset,
                } => binary.push(BinaryAtomPlan {
                    lvar,
                    lcol,
                    op,
                    rvar,
                    rcol,
                    offset,
                }),
            }
        }
        let sym_class = symmetry_classes(dc.arity, &unary, &binary);
        DcPlan {
            arity: dc.arity,
            unary,
            binary,
            sym_class,
            never_holds: false,
        }
    }

    /// Adds every equality atom implied by transitivity — `tᵢ.A = tⱼ.B + o₁`
    /// and `tⱼ.B = tₖ.C + o₂` imply `tᵢ.A = tₖ.C + (o₁ + o₂)` — and
    /// recomputes the interchangeability classes over the saturated atom
    /// multiset. The implied atoms are consequences of φ, so the saturated
    /// plan has **exactly the same satisfying assignments** (a complete
    /// assignment either satisfies all original equalities — then every
    /// implied one holds by transitivity — or fails an original atom and is
    /// rejected either way); what changes is that the enumeration can prune
    /// earlier and the symmetry detector can see through equality chains
    /// (`t1 = t2 ∧ t2 = t3` makes all three variables interchangeable, which
    /// the unsaturated multiset hides). When the closure derives two
    /// different offsets between the same column pair, φ is unsatisfiable
    /// and the plan is marked [`never_holds`](DcPlan::never_holds).
    ///
    /// The conflict builder calls this at compile time. The naive reference
    /// builder evaluates φ directly and never sees a plan.
    pub fn saturate_equalities(&self) -> DcPlan {
        // Union-find with potentials over (var, col) nodes: pot(x) is
        // val(x) − val(root) in i128 so composed offsets cannot overflow.
        let mut nodes: Vec<(usize, ColId)> = Vec::new();
        let node_of = |nodes: &mut Vec<(usize, ColId)>, key: (usize, ColId)| -> usize {
            match nodes.iter().position(|&k| k == key) {
                Some(i) => i,
                None => {
                    nodes.push(key);
                    nodes.len() - 1
                }
            }
        };
        let eqs: Vec<&BinaryAtomPlan> = self.binary.iter().filter(|a| a.is_equality()).collect();
        if eqs.len() < 2 {
            return self.clone(); // nothing to chain
        }
        let mut parent: Vec<usize> = Vec::new();
        let mut pot: Vec<i128> = Vec::new();
        // find with full-path compression, returning (root, val(x) − val(root)).
        fn find(parent: &mut [usize], pot: &mut [i128], x: usize) -> (usize, i128) {
            if parent[x] == x {
                return (x, 0);
            }
            let (root, p) = find(parent, pot, parent[x]);
            parent[x] = root;
            pot[x] += p;
            (root, pot[x])
        }
        let mut contradiction = false;
        for a in &eqs {
            let l = node_of(&mut nodes, (a.lvar, a.lcol));
            let r = node_of(&mut nodes, (a.rvar, a.rcol));
            while parent.len() < nodes.len() {
                parent.push(parent.len());
                pot.push(0);
            }
            // val(l) = val(r) + offset.
            let (lr, lp) = find(&mut parent, &mut pot, l);
            let (rr, rp) = find(&mut parent, &mut pot, r);
            if lr == rr {
                if lp != rp + i128::from(a.offset) {
                    contradiction = true;
                    break;
                }
            } else {
                // Attach lr under rr: val(lr) − val(rr) = rp + offset − lp.
                parent[lr] = rr;
                pot[lr] = rp + i128::from(a.offset) - lp;
            }
        }
        if contradiction {
            let mut plan = self.clone();
            plan.never_holds = true;
            return plan;
        }
        // Emit every implied cross-variable equality not already present.
        let mut known: Vec<(usize, ColId, u8, usize, ColId, i64)> =
            self.binary.iter().map(canonical_binary_key).collect();
        known.sort_unstable();
        let mut binary = self.binary.clone();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let (vi, ci) = nodes[i];
                let (vj, cj) = nodes[j];
                if vi == vj {
                    continue;
                }
                let (ri, pi) = find(&mut parent, &mut pot, i);
                let (rj, pj) = find(&mut parent, &mut pot, j);
                if ri != rj {
                    continue;
                }
                // val(i) = val(j) + (pot(i) − pot(j)).
                let Ok(offset) = i64::try_from(pi - pj) else {
                    continue; // unrepresentable; skip the (pure-bonus) atom
                };
                let atom = BinaryAtomPlan {
                    lvar: vi,
                    lcol: ci,
                    op: CmpOp::Eq,
                    rvar: vj,
                    rcol: cj,
                    offset,
                };
                if known.binary_search(&canonical_binary_key(&atom)).is_err() {
                    binary.push(atom);
                }
            }
        }
        let sym_class = symmetry_classes(self.arity, &self.unary, &binary);
        DcPlan {
            arity: self.arity,
            unary: self.unary.clone(),
            binary,
            sym_class,
            never_holds: false,
        }
    }

    /// `true` when compilation proved φ unsatisfiable (contradictory
    /// equality chain) — the DC contributes no conflict edge on any input.
    pub fn never_holds(&self) -> bool {
        self.never_holds
    }

    /// The plan's capacity shape, if φ says only "no `k` distinct rows
    /// passing one unary filter and sharing one key value may share an
    /// FK". That holds when the plan is live with arity `k ≥ 2`, every
    /// variable carries the same unary atoms (so after
    /// [saturation](DcPlan::saturate_equalities) all variables form one
    /// interchangeability class), and every binary atom is an offset-0 `=`
    /// between two variables on one column `X`, the atoms together linking
    /// all `k` variables. Then the conflict edges are exactly the
    /// `k`-subsets of each group of filter-passing rows with one `X` value
    /// (rows missing `X` join no group), or of all filter-passing rows when
    /// φ has no binary atom.
    pub fn capacity_shape(&self) -> Option<CapacityShape> {
        if self.never_holds || self.arity < 2 {
            return None;
        }
        let shared = unary_multiset(&self.unary[0]);
        if (1..self.arity).any(|v| unary_multiset(&self.unary[v]) != shared) {
            return None;
        }
        let Some(first) = self.binary.first() else {
            return Some(CapacityShape {
                k: self.arity,
                key: None,
            });
        };
        let key = first.lcol;
        // Union-find over the variables the `=` atoms link.
        let mut root: Vec<usize> = (0..self.arity).collect();
        fn find(root: &mut [usize], v: usize) -> usize {
            let mut v = v;
            while root[v] != v {
                root[v] = root[root[v]];
                v = root[v];
            }
            v
        }
        for a in &self.binary {
            if !a.is_equality()
                || a.offset != 0
                || a.lcol != key
                || a.rcol != key
                || a.lvar == a.rvar
            {
                return None;
            }
            let (l, r) = (find(&mut root, a.lvar), find(&mut root, a.rvar));
            root[l] = r;
        }
        let linked = (1..self.arity).all(|v| find(&mut root, v) == find(&mut root, 0));
        linked.then_some(CapacityShape {
            k: self.arity,
            key: Some(key),
        })
    }

    /// `true` if some variable of this plan carries a unary atom that no
    /// row passing every atom of `filter` can pass: an atom on a column
    /// `filter` pins with `=` to a constant the atom rejects, or an `=`
    /// atom whose constant `filter` rejects. Then none of this plan's
    /// conflict edges lies wholly inside the rows `filter` admits.
    pub fn provably_disjoint(&self, filter: &[UnaryFilter]) -> bool {
        self.unary.iter().any(|f| filters_disjoint(f, filter))
    }

    /// `true` for a live pair DC whose edges are *windows*: no row passes
    /// both variables' filters ([`filters_disjoint`]), and φ has no binary
    /// atom or one `<`, `≤`, `>`, `≥` or `=` atom linking the two
    /// variables. Sorted by the atom's column on each side, every
    /// candidate of one variable then conflicts with one contiguous range
    /// of the other variable's candidates (all of them when φ is purely
    /// unary), and each edge has exactly one orientation.
    pub fn is_window_pair(&self) -> bool {
        self.arity == 2
            && !self.never_holds
            && filters_disjoint(&self.unary[0], &self.unary[1])
            && match self.binary.as_slice() {
                [] => true,
                [a] => a.lvar != a.rvar && (a.is_equality() || a.is_range()),
                _ => false,
            }
    }

    /// `true` if no pair of rows can be a conflict edge of both this plan
    /// and `other`, two plans of arity 2. For each way of matching
    /// `other`'s variables to this plan's, either some matched pair of
    /// filters is [provably disjoint](filters_disjoint), or the matched
    /// filters are the same and both plans have one binary atom over the
    /// same column pair whose windows on `X − Y`, read in `i128`, do not
    /// meet (a `-low`/`-up` pair: `t1.Age < t0.Age − 69` is `X − Y ≤ −70`
    /// and `t1.Age > t0.Age − 12` is `X − Y ≥ −11`).
    pub fn shares_no_edge_with(&self, other: &DcPlan) -> bool {
        debug_assert_eq!((self.arity, other.arity), (2, 2));
        [(0, 1), (1, 0)].into_iter().all(|(q0, q1)| {
            filters_disjoint(&self.unary[0], &other.unary[q0])
                || filters_disjoint(&self.unary[1], &other.unary[q1])
                || (unary_multiset(&self.unary[0]) == unary_multiset(&other.unary[q0])
                    && unary_multiset(&self.unary[1]) == unary_multiset(&other.unary[q1])
                    && match (
                        self.difference_window(0, 1),
                        other.difference_window(q0, q1),
                    ) {
                        (Some(a), Some(b)) => {
                            (a.x, a.y) == (b.x, b.y) && (a.hi < b.lo || b.hi < a.lo)
                        }
                        _ => false,
                    })
        })
    }

    /// φ's single binary atom as the interval of `t_{v1}.X − t_{v0}.Y` it
    /// admits, when it is an ordering or `=` atom between `v0` and `v1`.
    fn difference_window(&self, v0: usize, v1: usize) -> Option<DifferenceWindow> {
        let [a] = self.binary.as_slice() else {
            return None;
        };
        // `l ◦ r + c` is `l − r ◦ c`; with `l` on `v0` it is `r − l ◦' −c`.
        let (x, y, op, c) = if (a.lvar, a.rvar) == (v1, v0) {
            (a.lcol, a.rcol, a.op, i128::from(a.offset))
        } else if (a.lvar, a.rvar) == (v0, v1) {
            (a.rcol, a.lcol, flip_op(a.op), -i128::from(a.offset))
        } else {
            return None;
        };
        let (lo, hi) = match op {
            CmpOp::Lt => (i128::MIN, c - 1),
            CmpOp::Le => (i128::MIN, c),
            CmpOp::Gt => (c + 1, i128::MAX),
            CmpOp::Ge => (c, i128::MAX),
            CmpOp::Eq => (c, c),
            CmpOp::Ne => return None,
        };
        Some(DifferenceWindow { x, y, lo, hi })
    }

    /// Number of tuple variables.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The unary atoms of tuple variable `var`.
    pub fn unary_filters(&self, var: usize) -> &[UnaryFilter] {
        &self.unary[var]
    }

    /// All binary atoms of φ.
    pub fn binary_atoms(&self) -> &[BinaryAtomPlan] {
        &self.binary
    }

    /// The symmetry class of `var`: the smallest variable index it is
    /// interchangeable with. Variables sharing a class may be constrained
    /// to ascending vertex ids without losing any conflict edge.
    pub fn sym_class(&self, var: usize) -> usize {
        self.sym_class[var]
    }
}

/// `true` if no row passes every atom of both `f` and `g`: on some column,
/// one side pins an `=` constant that an atom of the other side rejects.
pub fn filters_disjoint(f: &[UnaryFilter], g: &[UnaryFilter]) -> bool {
    f.iter().any(|a| {
        g.iter().any(|b| {
            a.col == b.col
                && ((b.op == CmpOp::Eq && !a.op.eval(b.value, a.value))
                    || (a.op == CmpOp::Eq && !b.op.eval(a.value, b.value)))
        })
    })
}

/// The values `X − Y` a difference atom admits, `lo ..= hi` (see
/// [`DcPlan::shares_no_edge_with`]).
struct DifferenceWindow {
    x: ColId,
    y: ColId,
    lo: i128,
    hi: i128,
}

/// The operator of the flipped comparison: `l ◦ r` ⇔ `r ◦' l`.
fn flip_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// A capacity DC's shape (see [`DcPlan::capacity_shape`]): at most
/// `k − 1` filter-passing rows with one `key` value share an FK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityShape {
    /// The arity `k`.
    pub k: usize,
    /// The key column `X`; `None` when φ has no binary atom, so every
    /// filter-passing row is in one group.
    pub key: Option<ColId>,
}

/// A variable's unary atoms as a sorted multiset, for comparing filters.
fn unary_multiset(filters: &[UnaryFilter]) -> Vec<(ColId, u8, Value)> {
    let mut k: Vec<(ColId, u8, Value)> = filters
        .iter()
        .map(|f| (f.col, canonical_binary_key_rank(f.op), f.value))
        .collect();
    k.sort();
    k
}

/// Groups tuple variables into interchangeability classes: `var` joins the
/// class of the smallest `prev` such that swapping `var` with *every*
/// member of `prev`'s class is an automorphism of φ (unary multisets equal,
/// binary multiset mapped onto itself). Requiring the check against every
/// member keeps the class sound even when pairwise interchangeability is
/// not transitive.
fn symmetry_classes(
    arity: usize,
    unary: &[Vec<UnaryFilter>],
    binary: &[BinaryAtomPlan],
) -> Vec<usize> {
    let canon_multiset = |atoms: &[BinaryAtomPlan]| -> Vec<(usize, ColId, u8, usize, ColId, i64)> {
        let mut k: Vec<_> = atoms.iter().map(canonical_binary_key).collect();
        k.sort_unstable();
        k
    };
    let base = canon_multiset(binary);
    let interchangeable = |a: usize, b: usize| -> bool {
        if unary_multiset(&unary[a]) != unary_multiset(&unary[b]) {
            return false;
        }
        let swapped: Vec<BinaryAtomPlan> = binary
            .iter()
            .map(|atom| {
                let tau = |v: usize| {
                    if v == a {
                        b
                    } else if v == b {
                        a
                    } else {
                        v
                    }
                };
                BinaryAtomPlan {
                    lvar: tau(atom.lvar),
                    rvar: tau(atom.rvar),
                    ..*atom
                }
            })
            .collect();
        canon_multiset(&swapped) == base
    };
    let mut class: Vec<usize> = (0..arity).collect();
    for var in 1..arity {
        for rep in 0..var {
            if class[rep] != rep {
                continue; // only class representatives
            }
            let members: Vec<usize> = (0..var).filter(|&m| class[m] == rep).collect();
            if members.iter().all(|&m| interchangeable(m, var)) {
                class[var] = rep;
                break;
            }
        }
    }
    class
}

/// Operator rank shared by the unary and binary canonical keys.
fn canonical_binary_key_rank(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cextend_table::{ColumnDef, Dtype, Schema};

    fn persons() -> Relation {
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
            (5, 24, "Spouse", 0),
            (6, 10, "Child", 1),
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

    /// `DC_{O,O}`: no two homeowners share a home.
    fn dc_oo() -> DenialConstraint {
        DenialConstraint::new(
            "DC_OO",
            2,
            vec![
                DcAtom::Unary {
                    var: 0,
                    column: "Rel".into(),
                    op: CmpOp::Eq,
                    value: Value::str("Owner"),
                },
                DcAtom::Unary {
                    var: 1,
                    column: "Rel".into(),
                    op: CmpOp::Eq,
                    value: Value::str("Owner"),
                },
            ],
        )
        .unwrap()
    }

    /// `DC_{O,S,low}`: spouse at most 50 years younger than the owner:
    /// ¬(t1.Rel=Owner ∧ t2.Rel=Spouse ∧ t2.Age < t1.Age − 50 ∧ same hid).
    fn dc_os_low() -> DenialConstraint {
        DenialConstraint::new(
            "DC_OS_low",
            2,
            vec![
                DcAtom::Unary {
                    var: 0,
                    column: "Rel".into(),
                    op: CmpOp::Eq,
                    value: Value::str("Owner"),
                },
                DcAtom::Unary {
                    var: 1,
                    column: "Rel".into(),
                    op: CmpOp::Eq,
                    value: Value::str("Spouse"),
                },
                DcAtom::Binary {
                    lvar: 1,
                    lcol: "Age".into(),
                    op: CmpOp::Lt,
                    rvar: 0,
                    rcol: "Age".into(),
                    offset: -50,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn owner_owner_conflicts() {
        let r = persons();
        let dc = dc_oo();
        assert!(dc.holds(&r, &[0, 1]).unwrap()); // two owners
        assert!(!dc.holds(&r, &[0, 2]).unwrap()); // owner + spouse
    }

    #[test]
    fn age_gap_with_offset() {
        let r = persons();
        let dc = dc_os_low();
        // Spouse aged 24, owner aged 75: 24 < 75 − 50 = 25 → conflict.
        assert!(dc.holds(&r, &[0, 2]).unwrap());
        // Reversed variable order does not match the Rel atoms.
        assert!(!dc.holds(&r, &[2, 0]).unwrap());
    }

    #[test]
    fn var_candidate_prefilters() {
        let r = persons();
        let bound = dc_os_low().bind(r.schema(), "Persons").unwrap();
        assert!(bound.var_candidate(&r, 0, 0)); // owner fits t1
        assert!(!bound.var_candidate(&r, 0, 2)); // spouse does not fit t1
        assert!(bound.var_candidate(&r, 1, 2)); // spouse fits t2
        assert!(!bound.var_candidate(&r, 1, 3)); // child does not fit t2
    }

    #[test]
    fn missing_cells_never_conflict() {
        let schema = Schema::new(vec![
            ColumnDef::attr("Age", Dtype::Int),
            ColumnDef::foreign_key("fk", Dtype::Int),
        ])
        .unwrap();
        let mut r = Relation::new("t", schema);
        r.push_row(&[None, None]).unwrap();
        r.push_row(&[Some(Value::Int(5)), None]).unwrap();
        let dc = DenialConstraint::new(
            "d",
            2,
            vec![DcAtom::Binary {
                lvar: 0,
                lcol: "Age".into(),
                op: CmpOp::Le,
                rvar: 1,
                rcol: "Age".into(),
                offset: 0,
            }],
        )
        .unwrap();
        assert!(!dc.holds(&r, &[0, 1]).unwrap());
    }

    #[test]
    fn validation_rejects_bad_arity_and_vars() {
        assert!(DenialConstraint::new("d", 1, vec![]).is_err());
        let bad = DenialConstraint::new(
            "d",
            2,
            vec![DcAtom::Unary {
                var: 5,
                column: "Age".into(),
                op: CmpOp::Eq,
                value: Value::Int(1),
            }],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn unknown_column_fails_at_bind() {
        let r = persons();
        let dc = DenialConstraint::new(
            "d",
            2,
            vec![DcAtom::Unary {
                var: 0,
                column: "nope".into(),
                op: CmpOp::Eq,
                value: Value::Int(1),
            }],
        )
        .unwrap();
        assert!(dc.holds(&r, &[0, 1]).is_err());
    }

    #[test]
    fn plan_detects_symmetric_variables() {
        let r = persons();
        // DC_OO: both variables carry the identical Owner atom → one class.
        let plan = dc_oo().bind(r.schema(), "Persons").unwrap().plan();
        assert_eq!(plan.arity(), 2);
        assert_eq!(plan.sym_class(0), 0);
        assert_eq!(plan.sym_class(1), 0);
        // DC_OS_low: Owner vs Spouse atoms differ → separate classes.
        let plan = dc_os_low().bind(r.schema(), "Persons").unwrap().plan();
        assert_eq!(plan.sym_class(0), 0);
        assert_eq!(plan.sym_class(1), 1);
        assert_eq!(plan.unary_filters(0).len(), 1);
        assert_eq!(plan.binary_atoms().len(), 1);
        assert!(plan.binary_atoms()[0].is_range());
        assert!(!plan.binary_atoms()[0].is_equality());
    }

    #[test]
    fn plan_symmetry_on_equality_chain() {
        // NAE-style: ¬(t1.Age = t2.Age ∧ t2.Age = t3.Age). Swapping t1,t3
        // maps the chain onto itself; t2 is pinned by both atoms.
        let chain = |l: usize, r_: usize| DcAtom::Binary {
            lvar: l,
            lcol: "Age".into(),
            op: CmpOp::Eq,
            rvar: r_,
            rcol: "Age".into(),
            offset: 0,
        };
        let dc = DenialConstraint::new("nae", 3, vec![chain(0, 1), chain(1, 2)]).unwrap();
        let r = persons();
        let plan = dc.bind(r.schema(), "Persons").unwrap().plan();
        assert_eq!(plan.sym_class(0), 0);
        assert_eq!(plan.sym_class(1), 1);
        assert_eq!(plan.sym_class(2), 0);
        assert!(plan.binary_atoms().iter().all(BinaryAtomPlan::is_equality));
    }

    #[test]
    fn saturation_merges_equality_chain_classes() {
        // The chain of the previous test: saturation adds the implied
        // t1.Age = t3.Age atom, after which all three variables are
        // interchangeable — each unordered triple enumerates exactly once.
        let chain = |l: usize, r_: usize| DcAtom::Binary {
            lvar: l,
            lcol: "Age".into(),
            op: CmpOp::Eq,
            rvar: r_,
            rcol: "Age".into(),
            offset: 0,
        };
        let dc = DenialConstraint::new("nae", 3, vec![chain(0, 1), chain(1, 2)]).unwrap();
        let r = persons();
        let plan = dc.bind(r.schema(), "Persons").unwrap().plan();
        let sat = plan.saturate_equalities();
        assert!(!sat.never_holds());
        assert_eq!(sat.binary_atoms().len(), 3);
        assert_eq!(sat.sym_class(0), 0);
        assert_eq!(sat.sym_class(1), 0);
        assert_eq!(sat.sym_class(2), 0);
        // Idempotent: re-saturating adds nothing.
        assert_eq!(
            sat.saturate_equalities().binary_atoms().len(),
            sat.binary_atoms().len()
        );
    }

    #[test]
    fn saturation_composes_offsets_and_keeps_asymmetry() {
        // t1.Age = t2.Age + 5 ∧ t2.Age = t3.Age + 5 ⟹ t1.Age = t3.Age + 10.
        let chain = |l: usize, r_: usize, off: i64| DcAtom::Binary {
            lvar: l,
            lcol: "Age".into(),
            op: CmpOp::Eq,
            rvar: r_,
            rcol: "Age".into(),
            offset: off,
        };
        let dc = DenialConstraint::new("steps", 3, vec![chain(0, 1, 5), chain(1, 2, 5)]).unwrap();
        let r = persons();
        let sat = dc
            .bind(r.schema(), "Persons")
            .unwrap()
            .plan()
            .saturate_equalities();
        let implied = sat
            .binary_atoms()
            .iter()
            .find(|a| a.lvar == 0 && a.rvar == 2)
            .expect("implied atom");
        assert_eq!(implied.offset, 10);
        // Nonzero offsets break interchangeability: classes stay distinct.
        assert_eq!(sat.sym_class(2), 2);
    }

    #[test]
    fn saturation_detects_contradictions() {
        // t1.Age = t2.Age + 1 ∧ t2.Age = t1.Age + 1 sums to 0 = 2: φ can
        // never hold.
        let a = DcAtom::Binary {
            lvar: 0,
            lcol: "Age".into(),
            op: CmpOp::Eq,
            rvar: 1,
            rcol: "Age".into(),
            offset: 1,
        };
        let b = DcAtom::Binary {
            lvar: 1,
            lcol: "Age".into(),
            op: CmpOp::Eq,
            rvar: 0,
            rcol: "Age".into(),
            offset: 1,
        };
        let dc = DenialConstraint::new("contra", 2, vec![a, b]).unwrap();
        let r = persons();
        let plan = dc.bind(r.schema(), "Persons").unwrap().plan();
        assert!(!plan.never_holds());
        assert!(plan.saturate_equalities().never_holds());
    }

    #[test]
    fn pure_unary_pair_classification() {
        let r = persons();
        let pure_unary_pair = |dc: DenialConstraint| {
            let plan = dc.bind(r.schema(), "Persons").unwrap().plan();
            plan.arity() == 2 && plan.binary_atoms().is_empty()
        };
        assert!(pure_unary_pair(dc_oo()));
        assert!(!pure_unary_pair(dc_os_low()));
    }

    /// Binds `dc` against [`persons`] and saturates it, as the conflict
    /// builder does.
    fn saturated(dc: &DenialConstraint) -> DcPlan {
        dc.bind(persons().schema(), "Persons")
            .unwrap()
            .plan()
            .saturate_equalities()
    }

    fn eq_atom(lvar: usize, lcol: &str, rvar: usize, rcol: &str, offset: i64) -> DcAtom {
        DcAtom::Binary {
            lvar,
            lcol: lcol.into(),
            op: CmpOp::Eq,
            rvar,
            rcol: rcol.into(),
            offset,
        }
    }

    #[test]
    fn capacity_shape_classification() {
        let age = persons().schema().require("Age", "Persons").unwrap();
        // No binary atom: one group over every Owner.
        assert_eq!(
            saturated(&dc_oo()).capacity_shape(),
            Some(CapacityShape { k: 2, key: None })
        );
        // A chain linking all three variables on Age: keyed triples. The
        // unsaturated plan qualifies too; saturation only adds atoms of the
        // same form.
        let chain = DenialConstraint::new(
            "c",
            3,
            vec![
                eq_atom(0, "Age", 1, "Age", 0),
                eq_atom(1, "Age", 2, "Age", 0),
            ],
        )
        .unwrap();
        let want = Some(CapacityShape {
            k: 3,
            key: Some(age),
        });
        assert_eq!(saturated(&chain).capacity_shape(), want);
        assert_eq!(
            chain
                .bind(persons().schema(), "Persons")
                .unwrap()
                .plan()
                .capacity_shape(),
            want
        );
        // Not capacity-shaped: different filters, an ordering atom, an
        // offset, two key columns, an unlinked variable, a contradiction.
        assert_eq!(saturated(&dc_os_low()).capacity_shape(), None);
        let not = |atoms: Vec<DcAtom>, arity: usize| {
            let dc = DenialConstraint::new("n", arity, atoms).unwrap();
            assert_eq!(saturated(&dc).capacity_shape(), None, "{dc}");
        };
        not(vec![eq_atom(0, "Age", 1, "Age", 1)], 2);
        not(vec![eq_atom(0, "Age", 1, "Multi-ling", 0)], 2);
        not(
            vec![
                eq_atom(0, "Age", 1, "Age", 0),
                eq_atom(0, "Multi-ling", 1, "Multi-ling", 0),
            ],
            2,
        );
        not(vec![eq_atom(0, "Age", 1, "Age", 0)], 3);
        not(
            vec![
                eq_atom(0, "Age", 1, "Age", 1),
                eq_atom(1, "Age", 0, "Age", 1),
            ],
            2,
        );
        let mut ordered = dc_oo();
        ordered.atoms.push(DcAtom::Binary {
            lvar: 0,
            lcol: "Age".into(),
            op: CmpOp::Lt,
            rvar: 1,
            rcol: "Age".into(),
            offset: 0,
        });
        not(ordered.atoms, 2);
    }

    #[test]
    fn disjointness_needs_a_pinned_rejected_constant() {
        let owner = saturated(&dc_oo());
        let filter = owner.unary_filters(0);
        // DC_OS_low's t2 must be a Spouse: no Owner passes it.
        assert!(saturated(&dc_os_low()).provably_disjoint(filter));
        // The owner DC itself is not disjoint from its own filter.
        assert!(!owner.provably_disjoint(filter));
        let unary = |column: &str, op: CmpOp, value: Value| DcAtom::Unary {
            var: 1,
            column: column.into(),
            op,
            value,
        };
        let other = |atom: DcAtom| saturated(&DenialConstraint::new("o", 2, vec![atom]).unwrap());
        // `Rel != "Owner"` rejects the pinned constant; `Rel >= "Owner"`
        // and an atom on another column do not.
        assert!(other(unary("Rel", CmpOp::Ne, Value::str("Owner"))).provably_disjoint(filter));
        assert!(!other(unary("Rel", CmpOp::Ge, Value::str("Owner"))).provably_disjoint(filter));
        assert!(!other(unary("Age", CmpOp::Eq, Value::Int(3))).provably_disjoint(filter));
        // The other direction: an `=` constant the filter rejects.
        let young = DenialConstraint::new(
            "young",
            2,
            vec![
                DcAtom::Unary {
                    var: 0,
                    column: "Age".into(),
                    op: CmpOp::Lt,
                    value: Value::Int(30),
                },
                DcAtom::Unary {
                    var: 1,
                    column: "Age".into(),
                    op: CmpOp::Lt,
                    value: Value::Int(30),
                },
            ],
        )
        .unwrap();
        let young = saturated(&young);
        assert!(other(unary("Age", CmpOp::Eq, Value::Int(40)))
            .provably_disjoint(young.unary_filters(0)));
        assert!(!other(unary("Age", CmpOp::Eq, Value::Int(20)))
            .provably_disjoint(young.unary_filters(0)));
        // `Age > 40` is disjoint from `Age < 30` in fact, but neither side
        // pins a constant, so the rule does not prove it.
        assert!(!other(unary("Age", CmpOp::Gt, Value::Int(40)))
            .provably_disjoint(young.unary_filters(0)));
    }

    #[test]
    fn plan_unary_filter_matches_var_candidate() {
        let r = persons();
        let bound = dc_os_low().bind(r.schema(), "Persons").unwrap();
        let plan = bound.plan();
        for var in 0..2 {
            for row in 0..r.n_rows() {
                // A missing cell fails an atom.
                let passes =
                    |f: &UnaryFilter| r.get(row, f.col).is_some_and(|x| f.op.eval(x, f.value));
                assert_eq!(
                    plan.unary_filters(var).iter().all(passes),
                    bound.var_candidate(&r, var, row),
                    "var {var} row {row}"
                );
            }
        }
    }

    /// A pair DC over `Rel` filters `(left, right)` and `atoms`, saturated.
    fn pair(left: &str, right: &str, atoms: Vec<DcAtom>) -> DcPlan {
        let rel = |var: usize, v: &str| DcAtom::Unary {
            var,
            column: "Rel".into(),
            op: CmpOp::Eq,
            value: Value::str(v),
        };
        let mut all = vec![rel(0, left), rel(1, right)];
        all.extend(atoms);
        saturated(&DenialConstraint::new("p", 2, all).unwrap())
    }

    fn age(lvar: usize, op: CmpOp, rvar: usize, offset: i64) -> DcAtom {
        DcAtom::Binary {
            lvar,
            lcol: "Age".into(),
            op,
            rvar,
            rcol: "Age".into(),
            offset,
        }
    }

    #[test]
    fn window_pairs_need_disjoint_sides_and_one_linking_window() {
        assert!(pair("Owner", "Child", vec![]).is_window_pair());
        assert!(pair("Owner", "Child", vec![age(1, CmpOp::Lt, 0, -69)]).is_window_pair());
        assert!(pair("Owner", "Child", vec![age(0, CmpOp::Eq, 1, 20)]).is_window_pair());
        // Overlapping sides, a `≠` atom, a self-atom, two atoms.
        assert!(!pair("Owner", "Owner", vec![]).is_window_pair());
        assert!(!pair("Owner", "Child", vec![age(1, CmpOp::Ne, 0, 0)]).is_window_pair());
        assert!(!pair("Owner", "Child", vec![age(1, CmpOp::Lt, 1, 0)]).is_window_pair());
        assert!(!pair(
            "Owner",
            "Child",
            vec![age(1, CmpOp::Lt, 0, 0), age(1, CmpOp::Gt, 0, -9)]
        )
        .is_window_pair());
    }

    #[test]
    fn windows_on_one_column_pair_share_no_edge_only_when_they_cannot_meet() {
        let low = pair("Owner", "Child", vec![age(1, CmpOp::Lt, 0, -69)]);
        let up = pair("Owner", "Child", vec![age(1, CmpOp::Gt, 0, -12)]);
        assert!(low.shares_no_edge_with(&up) && up.shares_no_edge_with(&low));
        // The same window written from the other variable: `t0.Age ≥ t1.Age
        // + 70` is `X − Y ≤ −70`, which meets `≤ −69` but not `≥ −11`.
        let flipped = pair("Owner", "Child", vec![age(0, CmpOp::Ge, 1, 70)]);
        assert!(!low.shares_no_edge_with(&flipped));
        assert!(up.shares_no_edge_with(&flipped));
        // An `=` window inside `low`'s, and one next to it.
        let inside = pair("Owner", "Child", vec![age(1, CmpOp::Eq, 0, -80)]);
        let beside = pair("Owner", "Child", vec![age(1, CmpOp::Eq, 0, -69)]);
        assert!(!low.shares_no_edge_with(&inside));
        assert!(low.shares_no_edge_with(&beside));
        // A pure-unary pair over the same classes meets every window.
        assert!(!low.shares_no_edge_with(&pair("Owner", "Child", vec![])));
        // Other classes: a disjoint side in each orientation settles it.
        assert!(low.shares_no_edge_with(&pair("Owner", "Spouse", vec![])));
        assert!(low.shares_no_edge_with(&pair("Owner", "Owner", vec![])));
        assert!(low.shares_no_edge_with(&pair("Child", "Spouse", vec![])));
        // The classes swapped: the rows of `low`'s edges, read the other
        // way round, with an ordering of the same column pair that meets.
        let swapped = pair("Child", "Owner", vec![age(0, CmpOp::Lt, 1, -69)]);
        assert!(!low.shares_no_edge_with(&swapped));
        let apart = pair("Child", "Owner", vec![age(0, CmpOp::Gt, 1, 0)]);
        assert!(low.shares_no_edge_with(&apart));
    }

    #[test]
    fn binary_atom_eval_cells_matches_holds_semantics() {
        let atom = BinaryAtomPlan {
            lvar: 1,
            lcol: 0,
            op: CmpOp::Lt,
            rvar: 0,
            rcol: 0,
            offset: -50,
        };
        assert!(atom.eval_cells(Some(24), Some(75))); // 24 < 75 − 50
        assert!(!atom.eval_cells(Some(25), Some(75)));
        assert!(!atom.eval_cells(None, Some(75))); // missing cells never conflict
        assert!(!atom.eval_cells(Some(24), None));
        assert_eq!(atom.other_var(1), 0);
        assert!(atom.involves(0) && atom.involves(1) && !atom.involves(2));
    }

    #[test]
    fn display_shows_fk_chain() {
        let s = dc_oo().to_string();
        assert!(s.contains("t1.Rel = \"Owner\""));
        assert!(s.contains("t1.FK = t2.FK"));
        let s = dc_os_low().to_string();
        assert!(s.contains("t2.Age < t1.Age - 50"));
    }
}
