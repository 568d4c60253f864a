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
                (Some(l), Some(r)) => op.eval(Value::Int(l), Value::Int(r + offset)),
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

impl UnaryFilter {
    /// Evaluates the atom on one row; a missing cell is `false`.
    #[inline]
    pub fn eval(&self, rel: &Relation, row: RowId) -> bool {
        match rel.get(row, self.col) {
            Some(x) => self.op.eval(x, self.value),
            None => false,
        }
    }
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
    /// most selective driver; see `cextend_core::conflict`).
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
            (Some(l), Some(r)) => self.op.test(l.cmp(&(r + self.offset))),
            _ => false,
        }
    }
}

/// Canonical form of a binary atom used for the symmetry check only:
/// `l ◦ r + off` and its flip `r ◦' l − off` denote the same constraint, so
/// both orientations map to one key (smaller variable on the left).
fn canonical_binary_key(a: &BinaryAtomPlan) -> (usize, ColId, u8, usize, ColId, i64) {
    let rank = canonical_binary_key_rank;
    let flip = |op: CmpOp| -> CmpOp {
        match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => op,
        }
    };
    let keep = (a.lvar, a.lcol) <= (a.rvar, a.rcol) || a.offset.checked_neg().is_none();
    if keep {
        (a.lvar, a.lcol, rank(a.op), a.rvar, a.rcol, a.offset)
    } else {
        (a.rvar, a.rcol, rank(flip(a.op)), a.lvar, a.lcol, -a.offset)
    }
}

/// A compiled evaluation plan for one [`BoundDc`].
///
/// The plan splits φ into per-variable unary filters (candidate
/// pre-filtering) and binary atoms carrying selectivity hints (equality
/// atoms probe hash buckets, ordering atoms probe sorted runs), and
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

    /// `true` for an arity-2 DC whose φ is purely unary: every pair of one
    /// candidate from each variable is a conflict edge, so the edge set is
    /// a (bi-)clique over the candidate lists and can be emitted in bulk.
    pub fn is_pure_unary_pair(&self) -> bool {
        self.arity == 2 && self.binary.is_empty()
    }

    /// `true` for an arity-2 DC bulk-emittable without enumeration: φ has
    /// at most one binary atom, and that atom links the two variables. With
    /// no atom the edge set is a (bi-)clique over the candidate lists; with
    /// one atom it is a union of sorted-run windows — one probe per
    /// candidate of the first variable, every match an edge.
    pub fn is_bulk_pair(&self) -> bool {
        self.arity == 2
            && match self.binary.as_slice() {
                [] => true,
                [a] => a.lvar != a.rvar,
                _ => false,
            }
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

    /// `true` if row `r` passes every unary atom of `var` (identical to
    /// [`BoundDc::var_candidate`]).
    #[inline]
    pub fn row_passes_unary(&self, rel: &Relation, var: usize, r: RowId) -> bool {
        self.unary[var].iter().all(|f| f.eval(rel, r))
    }
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
    let unary_key = |var: usize| -> Vec<(ColId, u8, Value)> {
        let mut k: Vec<(ColId, u8, Value)> = unary[var]
            .iter()
            .map(|f| (f.col, canonical_binary_key_rank(f.op), f.value))
            .collect();
        k.sort();
        k
    };
    let canon_multiset = |atoms: &[BinaryAtomPlan]| -> Vec<(usize, ColId, u8, usize, ColId, i64)> {
        let mut k: Vec<_> = atoms.iter().map(canonical_binary_key).collect();
        k.sort_unstable();
        k
    };
    let base = canon_multiset(binary);
    let interchangeable = |a: usize, b: usize| -> bool {
        if unary_key(a) != unary_key(b) {
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
        assert!(dc_oo()
            .bind(r.schema(), "Persons")
            .unwrap()
            .plan()
            .is_pure_unary_pair());
        assert!(!dc_os_low()
            .bind(r.schema(), "Persons")
            .unwrap()
            .plan()
            .is_pure_unary_pair());
    }

    #[test]
    fn plan_unary_filter_matches_var_candidate() {
        let r = persons();
        let bound = dc_os_low().bind(r.schema(), "Persons").unwrap();
        let plan = bound.plan();
        for var in 0..2 {
            for row in 0..r.n_rows() {
                assert_eq!(
                    plan.row_passes_unary(&r, var, row),
                    bound.var_candidate(&r, var, row),
                    "var {var} row {row}"
                );
            }
        }
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
