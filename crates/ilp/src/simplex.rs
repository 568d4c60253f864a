//! The LP engine: a bounded-variable revised simplex in `f64` over sparse
//! columns (DESIGN.md §17).
//!
//! - **Standard form.** Rows with a negative right-hand side are flipped,
//!   `Le` rows get a +1 slack and `Ge` rows a −1 surplus, and duplicate
//!   terms are summed. Every column has bounds `[lo, up]`; problem
//!   variables start at `[0, +∞)`. Columns are stored compressed by column.
//! - **Crash basis.** Each row starts on its `Le` slack, else on a +1
//!   structural column that occurs in no other row, else on an artificial.
//!   These are unit columns, so the starting basis is the identity and its
//!   point `x_B = b` is primal feasible except on artificial rows. Algorithm
//!   1's neutral and `under` deviation variables are such singletons, so
//!   its programs need no phase 1.
//! - **Basis inverse.** A product-form eta file ([`crate::eta`]) over the
//!   unit basis, rebuilt every [`REBUILD_EVERY`] pivots by pivoting the
//!   basic columns back in, sparsest first, each on its largest entry.
//!   Basic values are recomputed from scratch at every rebuild.
//! - **Primal simplex** (cold solves and clean-up): nonbasic columns sit at
//!   a bound and may flip to the other one; Dantzig pricing, switching to
//!   Bland's rule after [`STALL_PIVOTS`] degenerate pivots in a row.
//! - **Dual simplex** (warm starts after bound changes, see
//!   [`crate::solve_ilp`]): the row with the largest bound violation
//!   leaves, and the ratio test keeps reduced costs feasible.
//!
//! Every choice is deterministic: ties go to the larger |pivot|, then the
//! lower index.

use crate::error::{IlpError, Result};
use crate::eta::EtaFile;
use crate::problem::{Problem, Rel, VarId};

/// Reduced-cost (optimality) tolerance.
const DUAL_TOL: f64 = 1e-9;
/// Smallest pivot magnitude the ratio tests and rebuilds accept.
const PIVOT_TOL: f64 = 1e-7;
/// Primal feasibility tolerance.
const FEAS_TOL: f64 = 1e-7;
/// Integrality tolerance of branch-and-bound.
pub const F64_INT_EPS: f64 = 1e-6;
/// Pivots between eta-file rebuilds.
const REBUILD_EVERY: usize = 100;
/// Consecutive degenerate pivots after which the primal simplex prices by
/// Bland's rule, which cannot cycle, until it makes progress again.
const STALL_PIVOTS: usize = 50;
/// Marks a nonbasic column in [`SparseLp::pos`] and a non-unit column in
/// [`SparseLp::unit_row`].
const NONE: usize = usize::MAX;

/// Outcome of an LP solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// An LP solution: status, one value per problem variable (deviation
/// variables included; slacks and artificials excluded; all zero unless
/// `Optimal`), and the objective value at them.
#[derive(Clone, Debug)]
pub struct LpSolution<T = f64> {
    /// Solve status.
    pub status: LpStatus,
    /// One value per problem variable.
    pub values: Vec<T>,
    /// Objective value at `values`.
    pub objective: T,
    /// Simplex iterations used.
    pub iterations: usize,
}

/// Solves the LP relaxation of `problem` (integrality ignored) with the
/// sparse engine.
pub fn solve_lp(problem: &Problem) -> Result<LpSolution> {
    problem.validate()?;
    let mut lp = SparseLp::new(problem);
    let status = lp.solve()?;
    Ok(lp.solution(status))
}

/// Which objective the primal simplex minimizes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The sum of the artificials.
    One,
    /// The problem's objective.
    Two,
}

/// A basis to warm-start from: the basic column of every row position and
/// which nonbasic columns sit at their upper bound.
#[derive(Clone, Debug)]
pub(crate) struct Basis {
    basic: Vec<usize>,
    at_upper: Vec<bool>,
}

/// The engine's state: the standard form, the bounds, the basis and its
/// eta file, and the current point.
pub(crate) struct SparseLp {
    /// Rows.
    m: usize,
    /// Problem variables; columns `0..n_struct`.
    n_struct: usize,
    /// First artificial column; artificials are `art_start..n_cols`.
    art_start: usize,
    /// Compressed columns: `col_start[j]..col_start[j + 1]` indexes column
    /// `j`'s entries in `row_of` / `coef`.
    col_start: Vec<usize>,
    row_of: Vec<usize>,
    coef: Vec<f64>,
    /// The same matrix compressed by row, for pivot rows:
    /// `row_start[i]..row_start[i + 1]` indexes row `i`'s entries in
    /// `col_of` / `row_coef`.
    row_start: Vec<usize>,
    col_of: Vec<usize>,
    row_coef: Vec<f64>,
    /// The row in which column `j` is the unit vector `+e_row`, else [`NONE`].
    unit_row: Vec<usize>,
    cost: Vec<f64>,
    rhs: Vec<f64>,
    lo: Vec<f64>,
    up: Vec<f64>,
    /// Value of every column.
    x: Vec<f64>,
    /// Basic column per row position.
    basic: Vec<usize>,
    /// Row position of each basic column, [`NONE`] for nonbasic ones.
    pos: Vec<usize>,
    /// Nonbasic columns at their upper bound.
    at_upper: Vec<bool>,
    /// The objective being minimized, and its reduced costs `d = c − Aᵀy`,
    /// kept up to date through every pivot.
    phase: Phase,
    d: Vec<f64>,
    etas: EtaFile,
    /// The last pivot row `e_rᵀB⁻¹A`: nonzero only at the nonbasic columns
    /// listed (once each) in `touched`, which `in_row` marks.
    pivot_row: Vec<f64>,
    touched: Vec<usize>,
    in_row: Vec<bool>,
    /// Pivots since the last rebuild.
    fresh: usize,
    iterations: usize,
    /// Iterations one primal or dual run may take.
    limit: usize,
}

impl SparseLp {
    /// The standard form of `p` on its crash basis. `p` must be valid.
    pub(crate) fn new(p: &Problem) -> SparseLp {
        let m = p.n_constraints();
        let n = p.n_vars();
        // Canonical rows: summed duplicate terms, zero terms dropped, and
        // a negative right-hand side flipped together with the sense.
        let mut triples: Vec<(usize, usize, f64)> = Vec::new();
        let mut rels = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        for (i, c) in p.constraints().iter().enumerate() {
            let flip = c.rhs < 0;
            let mut terms: Vec<(VarId, i128)> =
                c.terms.iter().map(|&(v, a)| (v, i128::from(a))).collect();
            terms.sort_by_key(|&(v, _)| v);
            let mut k = 0;
            while k < terms.len() {
                let v = terms[k].0;
                let mut sum = 0i128;
                while k < terms.len() && terms[k].0 == v {
                    sum += terms[k].1;
                    k += 1;
                }
                if sum != 0 {
                    let a = sum as f64;
                    triples.push((v, i, if flip { -a } else { a }));
                }
            }
            rhs.push(if flip { -(c.rhs as f64) } else { c.rhs as f64 });
            rels.push(match (c.rel, flip) {
                (Rel::Le, true) => Rel::Ge,
                (Rel::Ge, true) => Rel::Le,
                (rel, _) => rel,
            });
        }
        let mut nnz = vec![0usize; n];
        for &(v, _, _) in &triples {
            nnz[v] += 1;
        }
        // A +1 structural singleton can carry its row in the crash basis;
        // among several, the cheapest (then the lowest index) does.
        let mut singleton: Vec<Option<VarId>> = vec![None; m];
        for &(v, i, a) in &triples {
            let cheaper = |w: VarId| p.objective()[v] < p.objective()[w];
            if nnz[v] == 1 && a == 1.0 && singleton[i].is_none_or(cheaper) {
                singleton[i] = Some(v);
            }
        }

        // Columns: structurals, then one slack or surplus per inequality,
        // then one artificial per row left without a crash column.
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(v, i, a) in &triples {
            cols[v].push((i, a));
        }
        let mut basic = vec![NONE; m];
        for (i, &rel) in rels.iter().enumerate() {
            match rel {
                Rel::Le => {
                    basic[i] = cols.len();
                    cols.push(vec![(i, 1.0)]);
                }
                Rel::Ge => cols.push(vec![(i, -1.0)]),
                Rel::Eq => {}
            }
        }
        let art_start = cols.len();
        for i in 0..m {
            if basic[i] == NONE {
                basic[i] = match singleton[i] {
                    Some(v) => v,
                    None => {
                        cols.push(vec![(i, 1.0)]);
                        cols.len() - 1
                    }
                };
            }
        }

        let n_cols = cols.len();
        let mut col_start = Vec::with_capacity(n_cols + 1);
        let mut row_of = Vec::new();
        let mut coef = Vec::new();
        let mut unit_row = vec![NONE; n_cols];
        for (j, col) in cols.iter().enumerate() {
            col_start.push(row_of.len());
            if let [(i, a)] = col[..] {
                if a == 1.0 {
                    unit_row[j] = i;
                }
            }
            for &(i, a) in col {
                row_of.push(i);
                coef.push(a);
            }
        }
        col_start.push(row_of.len());
        let mut row_start = vec![0usize; m + 1];
        for &i in &row_of {
            row_start[i + 1] += 1;
        }
        for i in 0..m {
            row_start[i + 1] += row_start[i];
        }
        let mut fill = row_start.clone();
        let mut col_of = vec![0; row_of.len()];
        let mut row_coef = vec![0.0; row_of.len()];
        for j in 0..n_cols {
            for k in col_start[j]..col_start[j + 1] {
                let slot = &mut fill[row_of[k]];
                col_of[*slot] = j;
                row_coef[*slot] = coef[k];
                *slot += 1;
            }
        }
        let mut cost = vec![0.0; n_cols];
        for (c, &o) in cost.iter_mut().zip(p.objective()) {
            *c = o as f64;
        }
        let mut pos = vec![NONE; n_cols];
        let mut x = vec![0.0; n_cols];
        for (i, &j) in basic.iter().enumerate() {
            pos[j] = i;
            x[j] = rhs[i];
        }
        SparseLp {
            m,
            n_struct: n,
            art_start,
            col_start,
            row_of,
            coef,
            row_start,
            col_of,
            row_coef,
            unit_row,
            cost,
            rhs,
            lo: vec![0.0; n_cols],
            up: vec![f64::INFINITY; n_cols],
            x,
            basic,
            pos,
            at_upper: vec![false; n_cols],
            phase: Phase::Two,
            d: vec![0.0; n_cols],
            etas: EtaFile::default(),
            pivot_row: vec![0.0; n_cols],
            touched: Vec::new(),
            in_row: vec![false; n_cols],
            fresh: 0,
            iterations: 0,
            limit: 50 * (m + n_cols) + 10_000,
        }
    }

    fn n_cols(&self) -> usize {
        self.cost.len()
    }

    fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_start[j]..self.col_start[j + 1];
        self.row_of[range.clone()]
            .iter()
            .copied()
            .zip(self.coef[range].iter().copied())
    }

    fn phase_cost(&self, j: usize) -> f64 {
        match self.phase {
            Phase::One => f64::from(u8::from(j >= self.art_start)),
            Phase::Two => self.cost[j],
        }
    }

    /// Solves from the current basis: phase 1 over the artificials, if any
    /// are basic above zero, then phase 2. The artificials are fixed at 0
    /// afterwards, whatever the outcome, so later warm starts cannot use
    /// them.
    pub(crate) fn solve(&mut self) -> Result<LpStatus> {
        let arts = self.art_start..self.n_cols();
        let mut status = LpStatus::Optimal;
        if arts.clone().any(|j| self.x[j] > 0.0) {
            self.primal(Phase::One)?;
            if arts.clone().map(|j| self.x[j]).sum::<f64>() > FEAS_TOL {
                status = LpStatus::Infeasible;
            }
        }
        for j in arts {
            self.up[j] = 0.0;
        }
        if status == LpStatus::Infeasible {
            return Ok(status);
        }
        self.primal(Phase::Two)
    }

    /// Resets the problem variables' bounds to `[0, +∞)` and applies
    /// `bounds` on top. Returns `false` if some variable is left with an
    /// empty range.
    pub(crate) fn set_bounds(&mut self, bounds: &[(VarId, Rel, i64)]) -> bool {
        self.lo[..self.n_struct].fill(0.0);
        self.up[..self.n_struct].fill(f64::INFINITY);
        for &(v, rel, b) in bounds {
            let b = b as f64;
            if rel != Rel::Ge {
                self.up[v] = self.up[v].min(b);
            }
            if rel != Rel::Le {
                self.lo[v] = self.lo[v].max(b);
            }
        }
        (0..self.n_struct).all(|j| self.lo[j] <= self.up[j])
    }

    /// A copy of the current basis.
    pub(crate) fn basis(&self) -> Basis {
        Basis {
            basic: self.basic.clone(),
            at_upper: self.at_upper.clone(),
        }
    }

    /// Installs `basis` and rebuilds the eta file for it.
    pub(crate) fn restore(&mut self, basis: &Basis) -> Result<()> {
        self.basic.clone_from(&basis.basic);
        self.at_upper.clone_from(&basis.at_upper);
        self.pos.fill(NONE);
        for (i, &j) in self.basic.iter().enumerate() {
            self.pos[j] = i;
        }
        self.rebuild()
    }

    /// Re-optimizes after bound changes: nonbasic columns move to their
    /// (new) bounds, the dual simplex restores primal feasibility, and a
    /// primal pass cleans up any dual infeasibility round-off left.
    pub(crate) fn reoptimize(&mut self) -> Result<LpStatus> {
        for j in 0..self.n_cols() {
            if self.pos[j] == NONE {
                self.at_upper[j] &= self.up[j].is_finite();
                self.x[j] = if self.at_upper[j] {
                    self.up[j]
                } else {
                    self.lo[j]
                };
            }
        }
        self.recompute_basics();
        if self.dual()? == LpStatus::Infeasible {
            return Ok(LpStatus::Infeasible);
        }
        self.primal(Phase::Two)
    }

    /// The problem variables' current values.
    pub(crate) fn values(&self) -> &[f64] {
        &self.x[..self.n_struct]
    }

    /// The objective at the current point.
    pub(crate) fn objective(&self) -> f64 {
        (0..self.n_struct).map(|j| self.cost[j] * self.x[j]).sum()
    }

    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    fn solution(&self, status: LpStatus) -> LpSolution {
        let optimal = status == LpStatus::Optimal;
        LpSolution {
            status,
            values: if optimal {
                self.values().to_vec()
            } else {
                vec![0.0; self.n_struct]
            },
            objective: if optimal { self.objective() } else { 0.0 },
            iterations: self.iterations,
        }
    }

    /// `out ← B⁻¹ a_j`.
    fn ftran_column(&self, j: usize, out: &mut [f64]) {
        out.fill(0.0);
        for (i, a) in self.column(j) {
            out[i] = a;
        }
        self.etas.ftran(out);
    }

    /// Switches to `phase` and recomputes its reduced costs from scratch:
    /// `y = B⁻ᵀc_B`, `d_j = c_j − yᵀa_j`.
    fn recompute_duals(&mut self, phase: Phase) {
        self.phase = phase;
        let mut y: Vec<f64> = self.basic.iter().map(|&j| self.phase_cost(j)).collect();
        self.etas.btran(&mut y);
        for j in 0..self.n_cols() {
            self.d[j] = if self.pos[j] == NONE {
                self.phase_cost(j) - self.column(j).map(|(i, a)| a * y[i]).sum::<f64>()
            } else {
                0.0
            };
        }
    }

    /// Computes the pivot row of row position `r` over the nonbasic
    /// columns into `pivot_row` / `touched`, row-wise from `ρ = B⁻ᵀe_r`.
    fn compute_pivot_row(&mut self, r: usize) {
        for &j in &self.touched {
            self.pivot_row[j] = 0.0;
            self.in_row[j] = false;
        }
        self.touched.clear();
        let mut rho = vec![0.0; self.m];
        rho[r] = 1.0;
        self.etas.btran(&mut rho);
        for (i, &p) in rho.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for k in self.row_start[i]..self.row_start[i + 1] {
                let j = self.col_of[k];
                if self.pos[j] != NONE {
                    continue;
                }
                if !self.in_row[j] {
                    self.in_row[j] = true;
                    self.touched.push(j);
                }
                self.pivot_row[j] += p * self.row_coef[k];
            }
        }
    }

    /// `x_B ← B⁻¹(b − N x_N)`.
    fn recompute_basics(&mut self) {
        let mut v = self.rhs.clone();
        for j in 0..self.n_cols() {
            if self.pos[j] == NONE && self.x[j] != 0.0 {
                let xj = self.x[j];
                for (i, a) in self.column(j) {
                    v[i] -= a * xj;
                }
            }
        }
        self.etas.ftran(&mut v);
        for (i, &j) in self.basic.iter().enumerate() {
            self.x[j] = v[i];
        }
    }

    /// Rebuilds the eta file for the current basic columns: unit columns
    /// keep their own rows, the rest are pivoted in sparsest first, each on
    /// its largest entry among the rows not yet taken. Row positions are
    /// reassigned accordingly, and basic values and reduced costs are
    /// recomputed.
    fn rebuild(&mut self) -> Result<()> {
        self.etas.clear();
        self.fresh = 0;
        let mut basic = vec![NONE; self.m];
        let mut rest = Vec::new();
        for &j in &self.basic {
            match self.unit_row[j] {
                r if r != NONE && basic[r] == NONE => basic[r] = j,
                _ => rest.push(j),
            }
        }
        rest.sort_by_key(|&j| (self.col_start[j + 1] - self.col_start[j], j));
        let mut alpha = vec![0.0; self.m];
        for j in rest {
            self.ftran_column(j, &mut alpha);
            let mut best: Option<(usize, f64)> = None;
            for (i, &a) in alpha.iter().enumerate() {
                if basic[i] == NONE && a.abs() > best.map_or(PIVOT_TOL, |(_, b)| b) {
                    best = Some((i, a.abs()));
                }
            }
            let Some((r, _)) = best else {
                return Err(IlpError::SingularBasis);
            };
            self.etas.push(r, &alpha);
            basic[r] = j;
        }
        for (i, &j) in basic.iter().enumerate() {
            self.pos[j] = i;
        }
        self.basic = basic;
        self.recompute_basics();
        self.recompute_duals(self.phase);
        Ok(())
    }

    /// Makes column `q` basic in row position `r`. `alpha = B⁻¹a_q`, the
    /// pivot row of `r` is in `pivot_row`, and the caller has already moved
    /// the leaving column to its bound.
    fn pivot(&mut self, r: usize, q: usize, alpha: &[f64]) -> Result<()> {
        let leaving = self.basic[r];
        // Reduced costs: d ← d − θ·α_r with θ = d_q / α_rq.
        let theta = self.d[q] / self.pivot_row[q];
        for &j in &self.touched {
            self.d[j] -= theta * self.pivot_row[j];
        }
        self.d[q] = 0.0;
        self.d[leaving] = -theta;
        // The row- and column-wise pivots must agree; if round-off has
        // pulled them apart, rebuild now.
        let drift = (alpha[r] - self.pivot_row[q]).abs() > PIVOT_TOL * (1.0 + alpha[r].abs());
        self.pos[leaving] = NONE;
        self.basic[r] = q;
        self.pos[q] = r;
        self.at_upper[q] = false;
        self.etas.push(r, alpha);
        self.fresh += 1;
        self.iterations += 1;
        if drift || self.fresh >= REBUILD_EVERY {
            self.rebuild()?;
        }
        Ok(())
    }

    /// Fails once one primal or dual run, begun at iteration `start`,
    /// exceeds the iteration limit.
    fn check_limit(&self, start: usize) -> Result<()> {
        if self.iterations - start > self.limit {
            return Err(IlpError::IterationLimit {
                iterations: self.iterations,
            });
        }
        Ok(())
    }

    /// Primal simplex from a primal feasible basis.
    fn primal(&mut self, phase: Phase) -> Result<LpStatus> {
        self.recompute_duals(phase);
        let mut alpha = vec![0.0; self.m];
        let mut degenerate = 0usize;
        let start = self.iterations;
        loop {
            self.check_limit(start)?;
            // Pricing: the largest improving |d_j| (Dantzig), or the first
            // improving column once stalled (Bland). Basic columns have
            // d_j = 0, so only a column that would win is checked for being
            // nonbasic and not fixed.
            let bland = degenerate >= STALL_PIVOTS;
            let mut entering: Option<usize> = None;
            let mut best = DUAL_TOL;
            for j in 0..self.n_cols() {
                let gain = if self.at_upper[j] {
                    self.d[j]
                } else {
                    -self.d[j]
                };
                if gain > best && self.pos[j] == NONE && self.lo[j] < self.up[j] {
                    entering = Some(j);
                    if bland {
                        break;
                    }
                    best = gain;
                }
            }
            let Some(q) = entering else {
                return Ok(LpStatus::Optimal);
            };
            self.ftran_column(q, &mut alpha);
            // x_q moves by dir·t; every basic x_B[i] by −dir·t·alpha[i].
            let dir = if self.at_upper[q] { -1.0 } else { 1.0 };
            let mut step = self.up[q] - self.lo[q];
            let mut leave: Option<(usize, f64)> = None;
            for (i, &a) in alpha.iter().enumerate() {
                let a = dir * a;
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let j = self.basic[i];
                let room = if a > 0.0 {
                    self.x[j] - self.lo[j]
                } else {
                    self.up[j] - self.x[j]
                };
                let t = (room / a.abs()).max(0.0);
                let better = match leave {
                    _ if t < step => true,
                    Some((l, la)) if t == step => {
                        if bland {
                            j < self.basic[l]
                        } else {
                            a.abs() > la || (a.abs() == la && j < self.basic[l])
                        }
                    }
                    _ => false,
                };
                if better {
                    step = t;
                    leave = Some((i, a.abs()));
                }
            }
            if step == f64::INFINITY {
                return Ok(LpStatus::Unbounded);
            }
            if step > 0.0 {
                for (i, &a) in alpha.iter().enumerate() {
                    if a != 0.0 {
                        self.x[self.basic[i]] -= dir * step * a;
                    }
                }
                self.x[q] += dir * step;
                degenerate = 0;
            } else {
                degenerate += 1;
            }
            match leave {
                None => {
                    // Bound flip: x_q crosses to its other bound.
                    self.at_upper[q] = !self.at_upper[q];
                    self.x[q] = if self.at_upper[q] {
                        self.up[q]
                    } else {
                        self.lo[q]
                    };
                    self.iterations += 1;
                }
                Some((r, _)) => {
                    let leaving = self.basic[r];
                    let to_upper = dir * alpha[r] < 0.0;
                    self.at_upper[leaving] = to_upper;
                    self.x[leaving] = if to_upper {
                        self.up[leaving]
                    } else {
                        self.lo[leaving]
                    };
                    self.compute_pivot_row(r);
                    self.pivot(r, q, &alpha)?;
                }
            }
        }
    }

    /// Dual simplex from a dual feasible basis. Returns `Optimal` once the
    /// point is primal feasible, `Infeasible` when a violated row cannot be
    /// repaired by any nonbasic column.
    fn dual(&mut self) -> Result<LpStatus> {
        self.recompute_duals(Phase::Two);
        let mut alpha = vec![0.0; self.m];
        let mut candidates: Vec<(usize, f64, f64)> = Vec::new();
        let start = self.iterations;
        loop {
            self.check_limit(start)?;
            // Leaving row: the largest bound violation.
            let mut leave: Option<(usize, f64)> = None;
            for (i, &j) in self.basic.iter().enumerate() {
                let v = (self.lo[j] - self.x[j]).max(self.x[j] - self.up[j]);
                if v > leave.map_or(FEAS_TOL, |(_, w)| w) {
                    leave = Some((i, v));
                }
            }
            let Some((r, _)) = leave else {
                return Ok(LpStatus::Optimal);
            };
            let leaving = self.basic[r];
            let to_upper = self.x[leaving] > self.up[leaving];
            let target = if to_upper {
                self.up[leaving]
            } else {
                self.lo[leaving]
            };
            self.compute_pivot_row(r);
            // x_B[r] = β_r − Σ α_rj x_j must move toward `target`: keep the
            // columns whose move in their feasible direction does that,
            // with their (sign-corrected, clamped) reduced costs.
            let want = if to_upper { 1.0 } else { -1.0 };
            candidates.clear();
            for &j in &self.touched {
                if self.lo[j] == self.up[j] {
                    continue;
                }
                let a = self.pivot_row[j];
                let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };
                if want * a * sigma > PIVOT_TOL {
                    candidates.push((j, a.abs(), (sigma * self.d[j]).max(0.0)));
                }
            }
            // Two-pass ratio test: the smallest ratio, relaxed by the dual
            // tolerance, bounds a window in which the largest |pivot| wins
            // (then the lowest index).
            let Some(bound) = candidates
                .iter()
                .map(|&(_, a, d)| (d + DUAL_TOL) / a)
                .min_by(f64::total_cmp)
            else {
                return Ok(LpStatus::Infeasible);
            };
            let mut entering: Option<(usize, f64)> = None;
            for &(j, a, d) in &candidates {
                let wins = entering.is_none_or(|(e, b)| a > b || (a == b && j < e));
                if d / a <= bound && wins {
                    entering = Some((j, a));
                }
            }
            let Some((q, _)) = entering else {
                return Ok(LpStatus::Infeasible);
            };
            self.ftran_column(q, &mut alpha);
            if alpha[r].abs() <= PIVOT_TOL {
                return Err(IlpError::SingularBasis);
            }
            let delta = (self.x[leaving] - target) / alpha[r];
            for (i, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    self.x[self.basic[i]] -= delta * a;
                }
            }
            self.x[q] += delta;
            self.x[leaving] = target;
            self.at_upper[leaving] = to_upper;
            self.pivot(r, q, &alpha)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// max x+y s.t. x+2y<=4, 3x+y<=6  (as min −x−y). Optimum at (1.6, 1.2).
    fn sample() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, -1);
        p.set_objective(y, -1);
        p.add_constraint(vec![(x, 1), (y, 2)], Rel::Le, 4);
        p.add_constraint(vec![(x, 3), (y, 1)], Rel::Le, 6);
        p
    }

    #[test]
    fn optimal() {
        let s = solve_lp(&sample()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[0], 1.6);
        assert_close(s.values[1], 1.2);
        assert_close(s.objective, -2.8);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x+y s.t. x+y=3, x>=1  → (x, y) on the segment, obj 3.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1);
        p.set_objective(y, 1);
        p.add_constraint(vec![(x, 1), (y, 1)], Rel::Eq, 3);
        p.add_constraint(vec![(x, 1)], Rel::Ge, 1);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 3.0);
        assert!(s.values[0] >= 1.0 - 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1)], Rel::Ge, 5);
        p.add_constraint(vec![(x, 1)], Rel::Le, 2);
        assert_eq!(solve_lp(&p).unwrap().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, -1);
        p.add_constraint(vec![(x, 1)], Rel::Ge, 0);
        assert_eq!(solve_lp(&p).unwrap().status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_canonicalized() {
        // x <= -2 is infeasible for x >= 0; x >= -2 is trivially satisfied.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1)], Rel::Le, -2);
        assert_eq!(solve_lp(&p).unwrap().status, LpStatus::Infeasible);

        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, 1);
        p.add_constraint(vec![(x, 1)], Rel::Ge, -2);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[0], 0.0);

        // -x >= -4  ⇔  x <= 4; maximize x.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, -1);
        p.add_constraint(vec![(x, -1)], Rel::Ge, -4);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[0], 4.0);
    }

    #[test]
    fn zero_constraint_problem() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, 1);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values, vec![0.0]);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // (x + x) = 4  →  x = 2.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1), (x, 1)], Rel::Eq, 4);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[0], 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut p = Problem::new();
        let v: Vec<_> = (0..4).map(|i| p.add_var(format!("x{i}"))).collect();
        for &x in &v {
            p.set_objective(x, -1);
        }
        for &var in &v {
            p.add_constraint(vec![(var, 1)], Rel::Le, 0);
        }
        p.add_constraint(v.iter().map(|&x| (x, 1)).collect(), Rel::Le, 0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn soft_equality_yields_min_deviation() {
        // x <= 3 hard, soft x = 5  → x = 3, deviation 2.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1)], Rel::Le, 3);
        p.add_soft_eq(vec![(x, 1)], 5, 1);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[0], 3.0);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn crash_basis_covers_algorithm1_rows_without_artificials() {
        // A bin row with a neutral variable and a soft CC row: both rows
        // start on singletons (neutral, `under`), so no artificial exists
        // and the crash point is already feasible.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let neutral = p.add_var("neutral");
        p.add_constraint(vec![(x, 1), (neutral, 1)], Rel::Eq, 4);
        p.add_soft_eq(vec![(x, 1)], 3, 1);
        let lp = SparseLp::new(&p);
        assert_eq!(lp.art_start, lp.n_cols());
        assert_eq!(lp.basic, vec![neutral, 2]);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[x], 3.0);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn rows_without_singletons_take_artificials() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1);
        p.set_objective(y, 2);
        p.add_constraint(vec![(x, 1), (y, 1)], Rel::Eq, 3);
        p.add_constraint(vec![(x, 1), (y, -1)], Rel::Ge, 1);
        let lp = SparseLp::new(&p);
        assert_eq!(lp.n_cols() - lp.art_start, 2);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn hostile_rows_return_statuses_not_panics() {
        // Empty rows, zero and cancelling coefficients, contradictory soft
        // rows and a variable fixed by its own rows.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.add_constraint(vec![], Rel::Eq, 0);
        p.add_constraint(vec![], Rel::Le, 5);
        p.add_constraint(vec![(x, 0), (y, 2), (y, -2)], Rel::Ge, -1);
        p.add_soft_eq(vec![(x, 1)], 2, 1);
        p.add_soft_eq(vec![(x, 1)], 7, 1);
        p.add_constraint(vec![(y, 1)], Rel::Le, 1);
        p.add_constraint(vec![(y, 1)], Rel::Ge, 1);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 5.0);
        assert_close(s.values[y], 1.0);

        p.add_constraint(vec![], Rel::Eq, 3);
        assert_eq!(solve_lp(&p).unwrap().status, LpStatus::Infeasible);
        let mut q = Problem::new();
        q.add_constraint(vec![], Rel::Ge, 1);
        assert_eq!(solve_lp(&q).unwrap().status, LpStatus::Infeasible);
    }

    #[test]
    fn dual_warm_start_follows_a_tightened_bound() {
        let p = sample();
        let mut lp = SparseLp::new(&p);
        assert_eq!(lp.solve().unwrap(), LpStatus::Optimal);
        // x ≤ 1: the optimum moves to (1, 1.5), objective −2.5.
        assert!(lp.set_bounds(&[(0, Rel::Le, 1)]));
        assert_eq!(lp.reoptimize().unwrap(), LpStatus::Optimal);
        assert_close(lp.values()[0], 1.0);
        assert_close(lp.values()[1], 1.5);
        assert_close(lp.objective(), -2.5);
        // A saved basis restores after a detour.
        let saved = lp.basis();
        assert!(lp.set_bounds(&[(0, Rel::Le, 1), (1, Rel::Ge, 2)]));
        assert_eq!(lp.reoptimize().unwrap(), LpStatus::Optimal);
        assert_close(lp.objective(), -2.0);
        assert!(lp.set_bounds(&[(0, Rel::Le, 1), (1, Rel::Le, 1)]));
        lp.restore(&saved).unwrap();
        assert_eq!(lp.reoptimize().unwrap(), LpStatus::Optimal);
        assert_close(lp.objective(), -2.0);
        // Crossed bounds are reported, not solved.
        assert!(!lp.set_bounds(&[(0, Rel::Ge, 2), (0, Rel::Le, 1)]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference::solve_lp_exact;
    use proptest::prelude::*;

    fn rel(code: u8) -> Rel {
        match code {
            0 => Rel::Le,
            1 => Rel::Ge,
            _ => Rel::Eq,
        }
    }

    /// A right-hand side that is zero half the time (degenerate vertices).
    fn arb_rhs() -> impl Strategy<Value = i64> {
        (0u8..2, -10i64..20).prop_map(|(zero, rhs)| if zero == 0 { 0 } else { rhs })
    }

    /// Random small LPs over three variables: `Ge` rows, negative
    /// right-hand sides, duplicate and zero terms, degenerate vertices.
    fn arb_problem() -> impl Strategy<Value = Problem> {
        let term = (0usize..3, -3i64..4);
        let cons = (proptest::collection::vec(term, 1..4), arb_rhs(), 0u8..3);
        (
            proptest::collection::vec(-3i64..4, 3),
            proptest::collection::vec(cons, 1..5),
        )
            .prop_map(|(obj, cons)| {
                let mut p = Problem::new();
                for (i, &c) in obj.iter().enumerate() {
                    let v = p.add_var(format!("x{i}"));
                    p.set_objective(v, c);
                }
                for (terms, rhs, code) in cons {
                    p.add_constraint(terms, rel(code), rhs);
                }
                p
            })
    }

    /// LPs whose every row holds every variable with a nonzero coefficient:
    /// no column is a singleton, so every `Ge`/`Eq` row takes an artificial.
    fn arb_dense_problem() -> impl Strategy<Value = Problem> {
        let coeff = (1i64..4, 0u8..2).prop_map(|(a, neg)| if neg == 0 { a } else { -a });
        let row = (proptest::collection::vec(coeff, 3), arb_rhs(), 0u8..3);
        (
            proptest::collection::vec(-3i64..4, 3),
            proptest::collection::vec(row, 2..5),
        )
            .prop_map(|(obj, rows)| {
                let mut p = Problem::new();
                for (i, &c) in obj.iter().enumerate() {
                    let v = p.add_var(format!("x{i}"));
                    p.set_objective(v, c);
                }
                for (coeffs, rhs, code) in rows {
                    p.add_constraint(coeffs.into_iter().enumerate().collect(), rel(code), rhs);
                }
                p
            })
    }

    fn point_is_feasible(p: &Problem, x: &[f64]) -> bool {
        p.constraints().iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a as f64 * x[v]).sum();
            let rhs = c.rhs as f64;
            match c.rel {
                Rel::Le => lhs <= rhs + 1e-6,
                Rel::Ge => lhs >= rhs - 1e-6,
                Rel::Eq => (lhs - rhs).abs() <= 1e-6,
            }
        }) && x.iter().all(|&v| v >= -1e-6)
    }

    fn agrees_with_reference(p: &Problem) -> std::result::Result<(), TestCaseError> {
        let exact = solve_lp_exact(p).unwrap();
        let engine = solve_lp(p).unwrap();
        prop_assert_eq!(exact.status, engine.status);
        if exact.status == LpStatus::Optimal {
            prop_assert!(
                (exact.objective.to_f64() - engine.objective).abs() < 1e-6,
                "reference {} vs engine {}",
                exact.objective,
                engine.objective
            );
            prop_assert!(point_is_feasible(p, &engine.values));
        }
        Ok(())
    }

    /// A random program kept bounded by `x_i ≤ 8` rows, and a sequence of
    /// bound tightenings to replay on it.
    fn arb_bounded_with_tightenings() -> impl Strategy<Value = (Problem, Vec<(VarId, Rel, i64)>)> {
        let bound = (0usize..3, 0u8..2, 0i64..7)
            .prop_map(|(v, up, b)| (v, if up == 0 { Rel::Le } else { Rel::Ge }, b));
        (arb_problem(), proptest::collection::vec(bound, 1..6)).prop_map(|(mut p, bounds)| {
            for v in 0..3 {
                p.add_constraint(vec![(v, 1)], Rel::Le, 8);
            }
            (p, bounds)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn engine_matches_the_exact_reference(p in arb_problem()) {
            agrees_with_reference(&p)?;
        }

        #[test]
        fn engine_matches_the_reference_without_singletons(p in arb_dense_problem()) {
            agrees_with_reference(&p)?;
        }

        #[test]
        fn dual_warm_starts_match_cold_exact_solves(case in arb_bounded_with_tightenings()) {
            let (p, bounds) = case;
            let mut lp = SparseLp::new(&p);
            let mut status = lp.solve().unwrap();
            let mut cold = p.clone();
            for k in 0..bounds.len() {
                let (v, rel, b) = bounds[k];
                cold.add_constraint(vec![(v, 1)], rel, b);
                if status != LpStatus::Infeasible {
                    status = if lp.set_bounds(&bounds[..=k]) {
                        lp.reoptimize().unwrap()
                    } else {
                        LpStatus::Infeasible
                    };
                }
                let exact = solve_lp_exact(&cold).unwrap();
                prop_assert_eq!(exact.status, status, "after {} tightenings", k + 1);
                if status == LpStatus::Optimal {
                    prop_assert!(
                        (exact.objective.to_f64() - lp.objective()).abs() < 1e-6,
                        "reference {} vs warm {}", exact.objective, lp.objective()
                    );
                    prop_assert!(point_is_feasible(&cold, lp.values()));
                }
            }
        }
    }
}
