//! Linear/integer program model.
//!
//! Coefficients and right-hand sides are integers (`i64`): the paper's
//! systems have 0/1 constraint matrices and integer targets (Algorithm 1),
//! and integer data lets the same problem instantiate both exact-rational
//! and float solvers losslessly. Soft (elastic) equalities expand into a pair
//! of deviation variables whose sum is minimized — this is how CC rows
//! "tolerate possible errors in the CC counts" (Section 1) while marginal
//! rows stay hard.

use std::fmt;

/// Index of a decision variable.
pub type VarId = usize;

/// Constraint sense.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `=`
    Eq,
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rel::Le => "<=",
            Rel::Ge => ">=",
            Rel::Eq => "=",
        })
    }
}

/// One linear constraint `Σ coeff·x ◦ rhs`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Constraint {
    /// Sparse left-hand side.
    pub terms: Vec<(VarId, i64)>,
    /// Sense.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: i64,
}

/// A minimization LP/ILP with non-negative variables.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Problem {
    names: Vec<String>,
    objective: Vec<i64>,
    constraints: Vec<Constraint>,
    /// Ids of deviation variables introduced by [`Problem::add_soft_eq`],
    /// reported so callers can ignore them when reading solutions.
    deviation_vars: Vec<VarId>,
}

impl Problem {
    /// An empty problem.
    pub fn new() -> Problem {
        Problem::default()
    }

    /// Adds a non-negative variable with objective coefficient 0.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.names.push(name.into());
        self.objective.push(0);
        self.names.len() - 1
    }

    /// Adds `count` anonymous variables, returning the id of the first.
    pub fn add_vars(&mut self, count: usize) -> VarId {
        let first = self.names.len();
        for i in 0..count {
            self.add_var(format!("x{}", first + i));
        }
        first
    }

    /// Number of variables (including deviation variables).
    pub fn n_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The minimization objective (dense, one coefficient per variable).
    pub fn objective(&self) -> &[i64] {
        &self.objective
    }

    /// Ids of deviation variables created by soft constraints.
    pub fn deviation_vars(&self) -> &[VarId] {
        &self.deviation_vars
    }

    /// Sets the objective coefficient of `v` (minimization).
    pub fn set_objective(&mut self, v: VarId, coeff: i64) {
        self.objective[v] = coeff;
    }

    /// Adds a hard constraint. Terms referencing unknown variables are
    /// rejected at solve time by [`Problem::validate`].
    pub fn add_constraint(&mut self, terms: Vec<(VarId, i64)>, rel: Rel, rhs: i64) {
        self.constraints.push(Constraint { terms, rel, rhs });
    }

    /// Adds an *elastic* equality `Σ terms = rhs` that may be violated at a
    /// per-unit objective cost of `weight`: internally
    /// `Σ terms + under − over = rhs` with `under, over ≥ 0` and objective
    /// `weight·(under + over)`. Returns `(under, over)`.
    pub fn add_soft_eq(
        &mut self,
        mut terms: Vec<(VarId, i64)>,
        rhs: i64,
        weight: i64,
    ) -> (VarId, VarId) {
        let under = self.add_var(format!("under{}", self.n_constraints()));
        let over = self.add_var(format!("over{}", self.n_constraints()));
        self.set_objective(under, weight);
        self.set_objective(over, weight);
        self.deviation_vars.push(under);
        self.deviation_vars.push(over);
        terms.push((under, 1));
        terms.push((over, -1));
        self.add_constraint(terms, Rel::Eq, rhs);
        (under, over)
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> crate::error::Result<()> {
        for (i, c) in self.constraints.iter().enumerate() {
            for &(v, _) in &c.terms {
                if v >= self.n_vars() {
                    return Err(crate::error::IlpError::BadProblem(format!(
                        "constraint {i} references variable {v}, but only {} exist",
                        self.n_vars()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Evaluates `Σ terms` of constraint `ci` at an integer point.
    pub fn eval_constraint(&self, ci: usize, x: &[i64]) -> i64 {
        self.constraints[ci]
            .terms
            .iter()
            .map(|&(v, c)| c * x[v])
            .sum()
    }

    /// `true` if the integer point `x` satisfies every constraint.
    pub fn is_feasible_point(&self, x: &[i64]) -> bool {
        self.constraints.iter().enumerate().all(|(i, c)| {
            let lhs = self.eval_constraint(i, x);
            match c.rel {
                Rel::Le => lhs <= c.rhs,
                Rel::Ge => lhs >= c.rhs,
                Rel::Eq => lhs == c.rhs,
            }
        }) && x.iter().all(|&v| v >= 0)
    }

    /// Objective value at an integer point.
    pub fn objective_at(&self, x: &[i64]) -> i64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "min ")?;
        let mut first = true;
        for (v, &c) in self.objective.iter().enumerate() {
            if c != 0 {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "{c}·{}", self.names[v])?;
                first = false;
            }
        }
        if first {
            write!(f, "0")?;
        }
        writeln!(f)?;
        for c in &self.constraints {
            write!(f, "  ")?;
            for (i, &(v, coeff)) in c.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, " + ")?;
                }
                write!(f, "{coeff}·{}", self.names[v])?;
            }
            writeln!(f, " {} {}", c.rel, c.rhs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1);
        p.add_constraint(vec![(x, 1), (y, 2)], Rel::Le, 10);
        assert!(p.validate().is_ok());
        p.add_constraint(vec![(99, 1)], Rel::Eq, 0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn soft_eq_expands_to_deviation_vars() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let (under, over) = p.add_soft_eq(vec![(x, 1)], 5, 3);
        assert_eq!(p.n_vars(), 3);
        assert_eq!(p.objective()[under], 3);
        assert_eq!(p.objective()[over], 3);
        assert_eq!(p.deviation_vars(), &[under, over]);
        // x=2 with under=3 satisfies the expanded equality.
        assert!(p.is_feasible_point(&[2, 3, 0]));
        assert_eq!(p.objective_at(&[2, 3, 0]), 9);
        // x=7 with over=2.
        assert!(p.is_feasible_point(&[7, 0, 2]));
        // Unbalanced deviations do not.
        assert!(!p.is_feasible_point(&[2, 0, 0]));
    }

    #[test]
    fn feasibility_checks_all_senses_and_nonnegativity() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 1)], Rel::Ge, 2);
        p.add_constraint(vec![(x, 1)], Rel::Le, 5);
        assert!(p.is_feasible_point(&[3]));
        assert!(!p.is_feasible_point(&[1]));
        assert!(!p.is_feasible_point(&[6]));
        assert!(!p.is_feasible_point(&[-1]));
    }

    #[test]
    fn display_is_readable() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, 2);
        p.add_constraint(vec![(x, 1)], Rel::Eq, 4);
        let s = p.to_string();
        assert!(s.contains("min 2·x"));
        assert!(s.contains("1·x = 4"));
    }
}
