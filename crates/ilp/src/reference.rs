//! The exact LP reference: a two-phase primal simplex over a dense
//! [`Rational`] tableau.
//!
//! It shares no code with the engine ([`crate::solve_lp`]) beyond the
//! [`Problem`] model, and its answers are exact, so tests and the `simplex`
//! bench compare the engine against it. It stores `(rows + 1) × (columns +
//! 1)` fractions, so it is for small programs only; no production path
//! runs it.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution; phase 2 minimizes the real objective. Pivot selection
//! uses Dantzig's rule (most negative reduced cost) and switches to Bland's
//! rule — which provably cannot cycle — after a stall threshold.

use crate::error::{IlpError, Result};
use crate::matrix::Matrix;
use crate::problem::{Problem, Rel};
use crate::rational::Rational;
use crate::simplex::{LpSolution, LpStatus};

/// Solves the LP relaxation of `problem` exactly. Fails with
/// [`IlpError::Overflow`] if a fraction outgrows `i128`.
pub fn solve_lp_exact(problem: &Problem) -> Result<LpSolution<Rational>> {
    problem.validate()?;
    Tableau::build(problem)?.solve(problem)
}

struct Tableau {
    /// `(m+1) × (total+1)`; row `m` is the objective row (reduced costs,
    /// last cell holds `-objective`).
    t: Matrix<Rational>,
    /// Basis variable per constraint row.
    basis: Vec<usize>,
    m: usize,
    /// Structural variable count (slack/artificial columns follow).
    n_struct: usize,
    /// First artificial column (artificials occupy `art_start..total`).
    art_start: usize,
    total: usize,
    iterations: usize,
}

impl Tableau {
    fn build(p: &Problem) -> Result<Tableau> {
        let m = p.n_constraints();
        let n = p.n_vars();
        // Count auxiliary columns: slack (Le), surplus (Ge), artificial (Ge, Eq).
        let mut n_slack = 0;
        let mut n_art = 0;
        for c in p.constraints() {
            // Canonical sense after making rhs non-negative.
            let rel = effective_rel(c.rel, c.rhs);
            match rel {
                Rel::Le => n_slack += 1,
                Rel::Ge => {
                    n_slack += 1; // surplus
                    n_art += 1;
                }
                Rel::Eq => n_art += 1,
            }
        }
        let art_start = n + n_slack;
        let total = art_start + n_art;
        let mut t = Matrix::filled(m + 1, total + 1, Rational::ZERO);
        let mut basis = vec![0usize; m];
        let mut next_slack = n;
        let mut next_art = art_start;
        for (i, c) in p.constraints().iter().enumerate() {
            let flip = c.rhs < 0;
            for &(v, coeff) in &c.terms {
                let coeff = if flip { -coeff } else { coeff };
                // Accumulate: duplicate terms on the same variable sum up.
                let cur = *t.get(i, v);
                t.set(i, v, cur.try_add(&Rational::from_int(coeff))?);
            }
            let rhs = if flip { -c.rhs } else { c.rhs };
            t.set(i, total, Rational::from_int(rhs));
            match effective_rel(c.rel, c.rhs) {
                Rel::Le => {
                    t.set(i, next_slack, Rational::ONE);
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Rel::Ge => {
                    t.set(i, next_slack, Rational::ONE.neg());
                    next_slack += 1;
                    t.set(i, next_art, Rational::ONE);
                    basis[i] = next_art;
                    next_art += 1;
                }
                Rel::Eq => {
                    t.set(i, next_art, Rational::ONE);
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }
        Ok(Tableau {
            t,
            basis,
            m,
            n_struct: n,
            art_start,
            total,
            iterations: 0,
        })
    }

    /// Installs an objective (dense over all `total` columns) into the
    /// objective row, pricing out the current basis.
    fn install_objective(&mut self, costs: &[Rational]) -> Result<()> {
        for (j, c) in costs.iter().enumerate().take(self.total) {
            self.t.set(self.m, j, *c);
        }
        self.t.set(self.m, self.total, Rational::ZERO);
        for i in 0..self.m {
            let cb = costs[self.basis[i]];
            if cb.is_zero() {
                continue;
            }
            let (row_i, obj) = self.t.two_rows_mut(i, self.m);
            for j in 0..=self.total {
                let delta = cb.try_mul(&row_i[j])?;
                obj[j] = obj[j].try_sub(&delta)?;
            }
        }
        Ok(())
    }

    fn pivot(&mut self, row: usize, col: usize) -> Result<()> {
        let piv = *self.t.get(row, col);
        if piv.is_zero() {
            return Err(IlpError::DivideByZero);
        }
        // Normalize the pivot row.
        {
            let r = self.t.row_mut(row);
            for cell in r.iter_mut() {
                *cell = cell.try_div(&piv)?;
            }
        }
        // Eliminate the pivot column from every other row (objective included).
        for i in 0..=self.m {
            if i == row {
                continue;
            }
            let factor = *self.t.get(i, col);
            if factor.is_zero() {
                continue;
            }
            let (pivot_row, other) = self.t.two_rows_mut(row, i);
            for j in 0..=self.total {
                let delta = factor.try_mul(&pivot_row[j])?;
                other[j] = other[j].try_sub(&delta)?;
            }
        }
        if row < self.m {
            self.basis[row] = col;
        }
        Ok(())
    }

    /// Runs simplex iterations until optimality/unboundedness.
    /// `allowed(j)` gates which columns may enter the basis.
    fn iterate(&mut self, allowed: impl Fn(usize) -> bool) -> Result<LpStatus> {
        let max_iters = 200 * (self.m + self.total) + 2000;
        let bland_after = 20 * (self.m + self.total) + 200;
        let mut local_iters = 0usize;
        loop {
            if local_iters > max_iters {
                return Err(IlpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            let use_bland = local_iters > bland_after;
            // Entering column: negative reduced cost.
            let mut entering: Option<usize> = None;
            let mut best = Rational::ZERO;
            for j in 0..self.total {
                if !allowed(j) {
                    continue;
                }
                let r = self.t.get(self.m, j);
                if r.is_negative() {
                    if use_bland {
                        entering = Some(j);
                        break;
                    }
                    if *r < best {
                        best = *r;
                        entering = Some(j);
                    }
                }
            }
            let Some(col) = entering else {
                return Ok(LpStatus::Optimal);
            };
            // Leaving row: minimum ratio b_i / a_ij over a_ij > 0,
            // ties broken by the smallest basis index (anti-cycling).
            let mut leave: Option<(usize, Rational)> = None;
            for i in 0..self.m {
                let a = self.t.get(i, col);
                if !a.is_positive() {
                    continue;
                }
                let ratio = self.t.get(i, self.total).try_div(a)?;
                match &leave {
                    None => leave = Some((i, ratio)),
                    Some((bi, br)) => match ratio.cmp(br) {
                        std::cmp::Ordering::Less => leave = Some((i, ratio)),
                        std::cmp::Ordering::Equal => {
                            if self.basis[i] < self.basis[*bi] {
                                leave = Some((i, ratio));
                            }
                        }
                        std::cmp::Ordering::Greater => {}
                    },
                }
            }
            let Some((row, _)) = leave else {
                return Ok(LpStatus::Unbounded);
            };
            self.pivot(row, col)?;
            self.iterations += 1;
            local_iters += 1;
        }
    }

    /// After phase 1, pivots basic artificials out of the basis where
    /// possible; rows where no non-artificial pivot exists are redundant and
    /// left with a zero-valued artificial that phase 2 never lets re-enter.
    fn expel_artificials(&mut self) -> Result<()> {
        for i in 0..self.m {
            if self.basis[i] < self.art_start {
                continue;
            }
            // The artificial is basic; its value must be zero here
            // (phase 1 ended at objective 0).
            let col = (0..self.art_start).find(|&j| !self.t.get(i, j).is_zero());
            if let Some(j) = col {
                self.pivot(i, j)?;
            }
        }
        Ok(())
    }

    fn extract(&self, p: &Problem, status: LpStatus) -> LpSolution<Rational> {
        let mut values = vec![Rational::ZERO; self.n_struct];
        if status == LpStatus::Optimal {
            for i in 0..self.m {
                if self.basis[i] < self.n_struct {
                    values[self.basis[i]] = *self.t.get(i, self.total);
                }
            }
        }
        let mut objective = Rational::ZERO;
        for (v, &c) in p.objective().iter().enumerate() {
            if c != 0 {
                let term = Rational::from_int(c)
                    .try_mul(&values[v])
                    .unwrap_or(Rational::ZERO);
                objective = objective.try_add(&term).unwrap_or(Rational::ZERO);
            }
        }
        LpSolution {
            status,
            values,
            objective,
            iterations: self.iterations,
        }
    }

    fn solve(mut self, p: &Problem) -> Result<LpSolution<Rational>> {
        // Phase 1: minimize the sum of artificials.
        if self.art_start < self.total {
            let mut costs = vec![Rational::ZERO; self.total];
            for c in costs.iter_mut().take(self.total).skip(self.art_start) {
                *c = Rational::ONE;
            }
            self.install_objective(&costs)?;
            match self.iterate(|_| true)? {
                LpStatus::Optimal => {}
                // Phase 1 is bounded below by 0, so Unbounded cannot happen.
                LpStatus::Unbounded | LpStatus::Infeasible => unreachable!(),
            }
            let phase1_obj = self.t.get(self.m, self.total).neg();
            if phase1_obj.is_positive() {
                return Ok(self.extract(p, LpStatus::Infeasible));
            }
            self.expel_artificials()?;
        }
        // Phase 2: minimize the real objective, artificials barred.
        let mut costs = vec![Rational::ZERO; self.total];
        for (v, &c) in p.objective().iter().enumerate() {
            costs[v] = Rational::from_int(c);
        }
        self.install_objective(&costs)?;
        let art_start = self.art_start;
        let status = self.iterate(|j| j < art_start)?;
        Ok(self.extract(p, status))
    }
}

fn effective_rel(rel: Rel, rhs: i64) -> Rel {
    if rhs >= 0 {
        rel
    } else {
        match rel {
            Rel::Le => Rel::Ge,
            Rel::Ge => Rel::Le,
            Rel::Eq => Rel::Eq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn optimal_exact() {
        let s = solve_lp_exact(&sample()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[0], Rational::new(8, 5).unwrap());
        assert_eq!(s.values[1], Rational::new(6, 5).unwrap());
        assert_eq!(s.objective, Rational::new(-14, 5).unwrap());
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
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, Rational::from_int(3));
        assert!(s.values[0] >= Rational::from_int(1));
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1)], Rel::Ge, 5);
        p.add_constraint(vec![(x, 1)], Rel::Le, 2);
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, -1);
        p.add_constraint(vec![(x, 1)], Rel::Ge, 0);
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_canonicalized() {
        // x <= -2 is infeasible for x >= 0; x >= -2 is trivially satisfied.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1)], Rel::Le, -2);
        assert_eq!(solve_lp_exact(&p).unwrap().status, LpStatus::Infeasible);

        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, 1);
        p.add_constraint(vec![(x, 1)], Rel::Ge, -2);
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[0], Rational::ZERO);

        // -x >= -4  ⇔  x <= 4; maximize x.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, -1);
        p.add_constraint(vec![(x, -1)], Rel::Ge, -4);
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[0], Rational::from_int(4));
    }

    #[test]
    fn zero_constraint_problem() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, 1);
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[0], Rational::ZERO);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // (x + x) = 4  →  x = 2.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1), (x, 1)], Rel::Eq, 4);
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[0], Rational::from_int(2));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-flavoured degenerate system; checks anti-cycling.
        let mut p = Problem::new();
        let v: Vec<_> = (0..4).map(|i| p.add_var(format!("x{i}"))).collect();
        for &x in &v {
            p.set_objective(x, -1);
        }
        for &var in &v {
            p.add_constraint(vec![(var, 1)], Rel::Le, 0);
        }
        p.add_constraint(v.iter().map(|&x| (x, 1)).collect(), Rel::Le, 0);
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, Rational::ZERO);
    }

    #[test]
    fn soft_equality_yields_min_deviation() {
        // x <= 3 hard, soft x = 5  → x = 3, deviation 2.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1)], Rel::Le, 3);
        p.add_soft_eq(vec![(x, 1)], 5, 1);
        let s = solve_lp_exact(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.values[0], Rational::from_int(3));
        assert_eq!(s.objective, Rational::from_int(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random small LPs.
    fn arb_problem() -> impl Strategy<Value = Problem> {
        let term = (0usize..3, -3i64..4);
        let cons = (proptest::collection::vec(term, 1..4), -10i64..20)
            .prop_map(|(terms, rhs)| (terms, rhs));
        (
            proptest::collection::vec(-3i64..4, 3),
            proptest::collection::vec(cons, 1..5),
            proptest::collection::vec(0u8..3, 1..5),
        )
            .prop_map(|(obj, cons, rels)| {
                let mut p = Problem::new();
                for (i, &c) in obj.iter().enumerate() {
                    let v = p.add_var(format!("x{i}"));
                    p.set_objective(v, c);
                }
                for (i, (terms, rhs)) in cons.into_iter().enumerate() {
                    let rel = match rels[i % rels.len()] {
                        0 => Rel::Le,
                        1 => Rel::Ge,
                        _ => Rel::Eq,
                    };
                    p.add_constraint(terms, rel, rhs);
                }
                p
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn optimal_solutions_are_feasible(p in arb_problem()) {
            let e = solve_lp_exact(&p).unwrap();
            if e.status == LpStatus::Optimal {
                // Check Ax ◦ b at the returned point, exactly.
                for c in p.constraints() {
                    let mut lhs = Rational::ZERO;
                    for &(v, coeff) in &c.terms {
                        let term = Rational::from_int(coeff).try_mul(&e.values[v]).unwrap();
                        lhs = lhs.try_add(&term).unwrap();
                    }
                    let rhs = Rational::from_int(c.rhs);
                    let ok = match c.rel {
                        Rel::Le => lhs <= rhs,
                        Rel::Ge => lhs >= rhs,
                        Rel::Eq => lhs == rhs,
                    };
                    prop_assert!(ok, "constraint violated: {} vs {}", lhs, rhs);
                }
                for v in &e.values {
                    prop_assert!(!v.is_negative());
                }
            }
        }
    }
}
