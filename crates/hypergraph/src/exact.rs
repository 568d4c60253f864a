//! Exact list coloring by backtracking search.
//!
//! List coloring is NP-hard (the paper cites [2, 25]); this exact solver is
//! exponential in the worst case and exists for three purposes: validating
//! the greedy heuristic on small partitions, powering the NAE-3SAT
//! completeness tests of Proposition 2.8, and serving as an ablation
//! baseline. A step budget bounds runtime; exceeding it returns
//! `ExactResult::Unknown` rather than an answer.

use crate::coloring::CandidateLists;
use crate::graph::{Color, Coloring, Hypergraph, VertexId};

/// Outcome of the exact search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactResult {
    /// A proper list coloring exists; here is one.
    Colorable(Coloring),
    /// No proper list coloring exists.
    Uncolorable,
    /// The step budget ran out before the search completed.
    Unknown,
}

/// Exhaustively searches for a proper list coloring extending `partial`.
///
/// Vertices are assigned in non-increasing degree order (most constrained
/// first). A branch is pruned as soon as an edge becomes monochromatic.
/// Clique and window groups are searched in their
/// [expanded](Hypergraph::expanded) form, so the search sees exactly the
/// edges the groups stand for.
pub fn exact_list_coloring(
    g: &Hypergraph,
    partial: &Coloring,
    candidates: &CandidateLists<'_>,
    max_steps: usize,
) -> ExactResult {
    if g.n_groups() > 0 || g.n_window_groups() > 0 {
        return exact_list_coloring(&g.expanded(), partial, candidates, max_steps);
    }
    assert_eq!(partial.len(), g.n_vertices());
    let order: Vec<VertexId> = g
        .vertices_by_degree_desc()
        .into_iter()
        .filter(|&v| !partial.is_colored(v))
        .collect();
    let mut coloring = partial.clone();
    let mut steps = 0usize;
    match dfs(
        g,
        &mut coloring,
        candidates,
        &order,
        0,
        &mut steps,
        max_steps,
    ) {
        Dfs::Found => ExactResult::Colorable(coloring),
        Dfs::Exhausted => ExactResult::Uncolorable,
        Dfs::Budget => ExactResult::Unknown,
    }
}

enum Dfs {
    Found,
    Exhausted,
    Budget,
}

fn dfs(
    g: &Hypergraph,
    coloring: &mut Coloring,
    candidates: &CandidateLists<'_>,
    order: &[VertexId],
    idx: usize,
    steps: &mut usize,
    max_steps: usize,
) -> Dfs {
    if idx == order.len() {
        return Dfs::Found;
    }
    let v = order[idx];
    for &c in candidates.get(v) {
        *steps += 1;
        if *steps > max_steps {
            return Dfs::Budget;
        }
        if creates_monochromatic(g, coloring, v, c) {
            continue;
        }
        coloring.set(v, c);
        match dfs(g, coloring, candidates, order, idx + 1, steps, max_steps) {
            Dfs::Found => return Dfs::Found,
            Dfs::Budget => return Dfs::Budget,
            Dfs::Exhausted => {}
        }
        // Un-assign on backtrack.
        coloring.unset(v);
    }
    Dfs::Exhausted
}

fn creates_monochromatic(g: &Hypergraph, coloring: &Coloring, v: VertexId, c: Color) -> bool {
    'edges: for &e in g.incident_edges(v) {
        for &u in g.edge(e) {
            if u == v {
                continue;
            }
            if coloring.get(u) != Some(c) {
                continue 'edges;
            }
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::is_proper_complete;

    fn triangle() -> Hypergraph {
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1]);
        g.add_edge(&[1, 2]);
        g.add_edge(&[0, 2]);
        g
    }

    #[test]
    fn triangle_needs_three_colors_of_shared_list() {
        let g = triangle();
        let two: Vec<Color> = vec![0, 1];
        let r = exact_list_coloring(&g, &Coloring::new(3), &CandidateLists::Shared(&two), 10_000);
        assert_eq!(r, ExactResult::Uncolorable);

        let three: Vec<Color> = vec![0, 1, 2];
        match exact_list_coloring(
            &g,
            &Coloring::new(3),
            &CandidateLists::Shared(&three),
            10_000,
        ) {
            ExactResult::Colorable(c) => assert!(is_proper_complete(&g, &c)),
            other => panic!("expected colorable, got {other:?}"),
        }
    }

    #[test]
    fn respects_per_vertex_lists() {
        // Path 0-1 with L(0)={1}, L(1)={1}: impossible.
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 1]);
        let lists = vec![vec![1], vec![1]];
        let r = exact_list_coloring(
            &g,
            &Coloring::new(2),
            &CandidateLists::PerVertex(&lists),
            1000,
        );
        assert_eq!(r, ExactResult::Uncolorable);

        let lists = vec![vec![1], vec![1, 2]];
        let r = exact_list_coloring(
            &g,
            &Coloring::new(2),
            &CandidateLists::PerVertex(&lists),
            1000,
        );
        assert!(matches!(r, ExactResult::Colorable(_)));
    }

    #[test]
    fn respects_partial_assignment() {
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 1]);
        let mut partial = Coloring::new(2);
        partial.set(0, 1);
        let lists = vec![vec![2], vec![1]]; // vertex 1 can only take 1 → clash
        let r = exact_list_coloring(&g, &partial, &CandidateLists::PerVertex(&lists), 1000);
        assert_eq!(r, ExactResult::Uncolorable);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A graph large enough that 1 step cannot decide it.
        let mut g = Hypergraph::new(6);
        for i in 0..5u32 {
            g.add_edge(&[i, i + 1]);
        }
        let colors: Vec<Color> = vec![0, 1];
        let r = exact_list_coloring(&g, &Coloring::new(6), &CandidateLists::Shared(&colors), 1);
        assert_eq!(r, ExactResult::Unknown);
    }

    #[test]
    fn hyperedges_allow_two_same_one_different() {
        // One 3-edge, two colors: (0,0,1) is proper, so colorable.
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1, 2]);
        let colors: Vec<Color> = vec![0, 1];
        match exact_list_coloring(
            &g,
            &Coloring::new(3),
            &CandidateLists::Shared(&colors),
            1000,
        ) {
            ExactResult::Colorable(c) => assert!(is_proper_complete(&g, &c)),
            other => panic!("expected colorable, got {other:?}"),
        }
        // With one color it is not.
        let one: Vec<Color> = vec![0];
        let r = exact_list_coloring(&g, &Coloring::new(3), &CandidateLists::Shared(&one), 1000);
        assert_eq!(r, ExactResult::Uncolorable);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::coloring::coloring_lf;
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = Hypergraph> {
        (
            2usize..8,
            proptest::collection::vec((0u32..8, 0u32..8), 0..14),
        )
            .prop_map(|(n, pairs)| {
                let mut g = Hypergraph::new(n);
                for (a, b) in pairs {
                    g.add_edge(&[a % n as u32, b % n as u32]);
                }
                g
            })
    }

    proptest! {
        /// Soundness of the greedy against the exact solver: if the greedy
        /// colors everything, the instance is colorable — and whenever the
        /// exact solver says "uncolorable", the greedy must have skipped.
        #[test]
        fn greedy_success_implies_exact_colorable(g in arb_graph(), k in 1u32..4) {
            let colors: Vec<Color> = (0..k).collect();
            let mut c = Coloring::new(g.n_vertices());
            let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
            let exact = exact_list_coloring(
                &g, &Coloring::new(g.n_vertices()), &CandidateLists::Shared(&colors), 200_000);
            if skipped.is_empty() {
                prop_assert!(matches!(exact, ExactResult::Colorable(_)));
            }
            if exact == ExactResult::Uncolorable {
                prop_assert!(!skipped.is_empty());
            }
        }
    }
}
