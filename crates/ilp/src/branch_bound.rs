//! Branch-and-bound on top of the LP relaxation.
//!
//! Depth-first search branching on the most fractional variable, pruning by
//! the LP bound (valid because objective coefficients are integral, the bound
//! can be rounded up). Branches tighten variable bounds, and each child
//! re-optimizes from its parent's basis with the dual simplex. The search
//! stops as soon as an incumbent meets the root bound: no integer point is
//! below it, so that incumbent is [`IlpStatus::Optimal`]. A node budget
//! keeps worst cases in check; when it is exhausted the best incumbent so far
//! is returned with [`IlpStatus::Feasible`], and Phase I of the solver falls
//! back to largest-remainder rounding (see [`crate::rounding`]).

use crate::error::Result;
use crate::problem::{Problem, Rel, VarId};
use crate::simplex::{Basis, LpStatus, SparseLp, F64_INT_EPS};
use std::rc::Rc;

/// Outcome of an ILP solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IlpStatus {
    /// Search completed; the returned point is optimal.
    Optimal,
    /// Node budget exhausted; the returned point is feasible but possibly
    /// suboptimal.
    Feasible,
    /// Search completed; no integer point exists.
    Infeasible,
    /// Node budget exhausted before any integer point was found.
    Unknown,
}

/// An ILP solution.
#[derive(Clone, Debug)]
pub struct IlpSolution {
    /// Solve status.
    pub status: IlpStatus,
    /// One value per problem variable (all zeros unless a point was found).
    pub values: Vec<i64>,
    /// Objective at `values` (meaningful for `Optimal` / `Feasible`).
    pub objective: i64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations across all LP solves.
    pub lp_iterations: usize,
}

/// Branch-and-bound configuration.
#[derive(Clone, Copy, Debug)]
pub struct BbConfig {
    /// Maximum number of nodes to explore.
    pub max_nodes: usize,
}

impl Default for BbConfig {
    fn default() -> Self {
        BbConfig { max_nodes: 2000 }
    }
}

struct Node {
    /// Variable bounds accumulated along the branch:
    /// `(var, sense, bound)` with sense ∈ {Le, Ge}.
    bounds: Vec<(VarId, Rel, i64)>,
    /// The solved parent, whose basis this node warm-starts from (`None`
    /// for the root).
    parent: Option<Rc<Parent>>,
}

struct Parent {
    /// The parent's number in solve order.
    id: usize,
    basis: Basis,
}

/// Solves `problem` to integrality with the sparse LP engine.
///
/// The root is solved cold from the crash basis. A child branches by
/// tightening one variable bound and re-optimizes with the dual simplex
/// from its parent's optimal basis: on the live eta file when it is popped
/// right after its parent, else after restoring the parent's basis and
/// rebuilding the eta file.
pub fn solve_ilp(problem: &Problem, cfg: &BbConfig) -> Result<IlpSolution> {
    problem.validate()?;
    let n = problem.n_vars();
    let mut lp = SparseLp::new(problem);
    let mut stack = vec![Node {
        bounds: Vec::new(),
        parent: None,
    }];
    let mut incumbent: Option<(Vec<i64>, i64)> = None;
    // The root's bound holds for every integer point.
    let mut root_bound = i64::MIN;
    let mut nodes = 0usize;
    let mut exhausted = false;
    // The node whose solve left the engine's current basis.
    let mut live = 0usize;

    while let Some(node) = stack.pop() {
        if nodes >= cfg.max_nodes {
            exhausted = true;
            break;
        }
        nodes += 1;
        let status = match &node.parent {
            None => lp.solve()?,
            Some(_) if !lp.set_bounds(&node.bounds) => LpStatus::Infeasible,
            Some(parent) => {
                if parent.id != live {
                    lp.restore(&parent.basis)?;
                }
                lp.reoptimize()?
            }
        };
        live = nodes;
        // An unbounded relaxation is a dead end, like an infeasible one:
        // Algorithm 1's objectives are bounded below by zero.
        if status != LpStatus::Optimal {
            continue;
        }
        // Prune by bound: integer objective ≥ ceil(LP objective − eps).
        let lower = (lp.objective() - 1e-6).ceil() as i64;
        if node.parent.is_none() {
            root_bound = lower;
        }
        if incumbent.as_ref().is_some_and(|(_, best)| lower >= *best) {
            continue;
        }
        // The most fractional variable, the lowest index on ties.
        let values = lp.values();
        let mut branch_var: Option<(VarId, f64)> = None;
        for (v, &x) in values.iter().enumerate() {
            let frac_dist = (x - x.round()).abs();
            if frac_dist >= F64_INT_EPS && branch_var.is_none_or(|(_, best)| frac_dist > best) {
                branch_var = Some((v, frac_dist));
            }
        }
        let Some((v, _)) = branch_var else {
            // Integral LP solution → candidate incumbent, checked exactly.
            let cand: Vec<i64> = values.iter().map(|x| (x.round() as i64).max(0)).collect();
            let within_bounds = node.bounds.iter().all(|&(v, rel, b)| match rel {
                Rel::Le => cand[v] <= b,
                Rel::Ge => cand[v] >= b,
                Rel::Eq => cand[v] == b,
            });
            if within_bounds && problem.is_feasible_point(&cand) {
                let obj = problem.objective_at(&cand);
                if incumbent.as_ref().is_none_or(|(_, best)| obj < *best) {
                    incumbent = Some((cand, obj));
                    if obj <= root_bound {
                        break; // nothing left on the stack can beat it
                    }
                }
            }
            continue;
        };
        let x = values[v];
        let fl = x.floor() as i64;
        let parent = Rc::new(Parent {
            id: nodes,
            basis: lp.basis(),
        });
        let child = |rel, b| Node {
            bounds: with_bound(&node.bounds, v, rel, b),
            parent: Some(Rc::clone(&parent)),
        };
        // Explore the side closer to the LP value first (pushed last).
        let (down, up) = (child(Rel::Le, fl), child(Rel::Ge, fl + 1));
        if x - x.floor() > 0.5 {
            stack.push(down);
            stack.push(up);
        } else {
            stack.push(up);
            stack.push(down);
        }
    }

    let status = match (&incumbent, exhausted) {
        (Some(_), false) => IlpStatus::Optimal,
        (Some(_), true) => IlpStatus::Feasible,
        (None, false) => IlpStatus::Infeasible,
        (None, true) => IlpStatus::Unknown,
    };
    let (values, objective) = incumbent.unwrap_or_else(|| (vec![0; n], 0));
    Ok(IlpSolution {
        status,
        values,
        objective,
        nodes,
        lp_iterations: lp.iterations(),
    })
}

fn with_bound(bounds: &[(VarId, Rel, i64)], v: VarId, rel: Rel, b: i64) -> Vec<(VarId, Rel, i64)> {
    let mut out = bounds.to_vec();
    out.push((v, rel, b));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Knapsack-ish: max 5x+4y s.t. 6x+4y<=24, x+2y<=6. The LP optimum is
    /// fractional (x=3, y=1.5, obj 21); the integer optimum is x=4, y=0
    /// (obj 20). Naive rounding of the LP point gives only 19.
    #[test]
    fn branching_beats_rounding() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, -5);
        p.set_objective(y, -4);
        p.add_constraint(vec![(x, 6), (y, 4)], Rel::Le, 24);
        p.add_constraint(vec![(x, 1), (y, 2)], Rel::Le, 6);
        let s = solve_ilp(&p, &BbConfig::default()).unwrap();
        assert_eq!(s.status, IlpStatus::Optimal);
        assert_eq!(s.objective, -20);
        assert_eq!(s.values, vec![4, 0]);
    }

    #[test]
    fn infeasible_integrality() {
        // 2x = 3 has an LP solution but no integer one.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(vec![(x, 2)], Rel::Eq, 3);
        let s = solve_ilp(&p, &BbConfig::default()).unwrap();
        assert_eq!(s.status, IlpStatus::Infeasible);
    }

    #[test]
    fn already_integral_lp() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, 1);
        p.add_constraint(vec![(x, 1)], Rel::Ge, 4);
        let s = solve_ilp(&p, &BbConfig::default()).unwrap();
        assert_eq!(s.status, IlpStatus::Optimal);
        assert_eq!(s.values, vec![4]);
    }

    #[test]
    fn node_budget_reports_unknown_or_feasible() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, -5);
        p.set_objective(y, -4);
        p.add_constraint(vec![(x, 6), (y, 4)], Rel::Le, 24);
        p.add_constraint(vec![(x, 1), (y, 2)], Rel::Le, 6);
        let s = solve_ilp(&p, &BbConfig { max_nodes: 1 }).unwrap();
        assert!(matches!(s.status, IlpStatus::Unknown | IlpStatus::Feasible));
    }

    #[test]
    fn an_incumbent_at_the_root_bound_is_optimal() {
        // min x s.t. 5x ≥ 3: the root LP point x = 0.6 bounds the integer
        // optimum below by ceil(0.6) = 1. The up branch, explored first,
        // finds x = 1 at node 2 while the down branch is still on the
        // stack; that incumbent meets the root bound, so it is optimal.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_objective(x, 1);
        p.add_constraint(vec![(x, 5)], Rel::Ge, 3);
        for max_nodes in [2, 2000] {
            let s = solve_ilp(&p, &BbConfig { max_nodes }).unwrap();
            assert_eq!(s.status, IlpStatus::Optimal, "max_nodes {max_nodes}");
            assert_eq!((s.values, s.objective, s.nodes), (vec![1], 1, 2));
        }
    }

    #[test]
    fn soft_constraints_always_give_a_solution() {
        // Conflicting soft targets: x=2 and x=5, weight 1 each. Best x
        // minimizes |x−2|+|x−5| → any x in [2,5] with objective 3.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_soft_eq(vec![(x, 1)], 2, 1);
        p.add_soft_eq(vec![(x, 1)], 5, 1);
        let s = solve_ilp(&p, &BbConfig::default()).unwrap();
        assert_eq!(s.status, IlpStatus::Optimal);
        assert_eq!(s.objective, 3);
        assert!((2..=5).contains(&s.values[0]));
    }

    #[test]
    fn hostile_programs_solve_or_fail_cleanly() {
        // Empty rows, zero and cancelling coefficients, contradictory soft
        // rows and bounds that fix a variable.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.add_constraint(vec![], Rel::Eq, 0);
        p.add_constraint(vec![(x, 0), (y, 3), (y, -3)], Rel::Le, 4);
        p.add_soft_eq(vec![(x, 2)], 3, 1);
        p.add_soft_eq(vec![(x, 2)], 8, 1);
        p.add_constraint(vec![(y, 1)], Rel::Le, 2);
        p.add_constraint(vec![(y, 1)], Rel::Ge, 2);
        let s = solve_ilp(&p, &BbConfig::default()).unwrap();
        assert_eq!(s.status, IlpStatus::Optimal);
        assert_eq!(s.objective, 5);
        assert_eq!(s.values[y], 2);
        assert!(p.is_feasible_point(&s.values));

        p.add_constraint(vec![], Rel::Ge, 1);
        let s = solve_ilp(&p, &BbConfig::default()).unwrap();
        assert_eq!(s.status, IlpStatus::Infeasible);
    }

    #[test]
    fn backtracking_restores_the_parent_basis() {
        // 2x + 2y + 2z = 5 has no integer point, but only a search over
        // several branches (some reached by backtracking) proves it.
        let mut p = Problem::new();
        let v: Vec<_> = (0..3).map(|i| p.add_var(format!("x{i}"))).collect();
        p.set_objective(v[0], 1);
        p.add_constraint(v.iter().map(|&x| (x, 2)).collect(), Rel::Eq, 5);
        for &x in &v {
            p.add_constraint(vec![(x, 1)], Rel::Le, 2);
        }
        let s = solve_ilp(&p, &BbConfig::default()).unwrap();
        assert_eq!(s.status, IlpStatus::Infeasible);
        assert!(s.nodes > 3, "{} nodes", s.nodes);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Brute force over a small box, for cross-checking.
    fn brute_force(p: &Problem, max: i64) -> Option<i64> {
        let n = p.n_vars();
        let mut best: Option<i64> = None;
        let mut x = vec![0i64; n];
        loop {
            if p.is_feasible_point(&x) {
                let obj = p.objective_at(&x);
                best = Some(best.map_or(obj, |b| b.min(obj)));
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                x[i] += 1;
                if x[i] <= max {
                    break;
                }
                x[i] = 0;
                i += 1;
            }
        }
    }

    fn arb_bounded_problem() -> impl Strategy<Value = Problem> {
        (
            proptest::collection::vec(-3i64..4, 2),
            proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..2, 1i64..4), 1..3),
                    0i64..12,
                    0u8..3,
                ),
                1..4,
            ),
        )
            .prop_map(|(obj, cons)| {
                let mut p = Problem::new();
                for (i, &c) in obj.iter().enumerate() {
                    let v = p.add_var(format!("x{i}"));
                    p.set_objective(v, c);
                }
                // Keep the feasible region bounded so brute force terminates.
                p.add_constraint(vec![(0, 1)], Rel::Le, 6);
                p.add_constraint(vec![(1, 1)], Rel::Le, 6);
                for (terms, rhs, rel) in cons {
                    let rel = match rel {
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
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bb_matches_brute_force(p in arb_bounded_problem()) {
            let s = solve_ilp(&p, &BbConfig { max_nodes: 50_000 }).unwrap();
            let brute = brute_force(&p, 6);
            match brute {
                Some(best) => {
                    prop_assert_eq!(s.status, IlpStatus::Optimal);
                    prop_assert_eq!(s.objective, best);
                    prop_assert!(p.is_feasible_point(&s.values));
                }
                None => prop_assert_eq!(s.status, IlpStatus::Infeasible),
            }
        }
    }
}
