//! Per-partition coloring (the core loop of Algorithm 4).
//!
//! Each partition of `R1`'s rows (same assigned `B` values) is colored
//! independently: candidate colors are the `R2` keys carrying the
//! partition's combo, skipped vertices get the fewest fresh colors that
//! keep the coloring proper (lines 10–14). Partitions are independent
//! because candidate key sets are disjoint across combos (Section 5.2), so
//! they can be colored on separate threads (Section A.3).

use crate::config::ColoringMode;
use crate::error::Result;
use crate::phase2::conflict::{ConflictBuilder, ConflictStats};
use cextend_hypergraph::{
    color_skipped_with_fresh, coloring_lf, exact_list_coloring, CandidateLists, Color, Coloring,
    ExactResult,
};
use cextend_table::RowId;
use std::collections::HashMap;
use std::time::Duration;

/// What one partition's coloring decided.
#[derive(Clone, Debug)]
pub(crate) struct PartitionResult {
    /// Index of the partition in the driver's ordering.
    pub partition: usize,
    /// `(R1 row, color)`: colors `< n_candidates` index the partition's
    /// candidate keys; colors `≥ n_candidates` are fresh
    /// (`color - n_candidates` is the fresh ordinal).
    pub assignments: Vec<(RowId, Color)>,
    /// Number of fresh colors minted.
    pub fresh_colors: usize,
    /// Conflict edges in this partition: explicit ones plus those the
    /// clique groups and window groups stand for.
    pub edges: usize,
    /// Vertices the greedy pass skipped.
    pub skipped: usize,
    /// `true` if exact coloring ran out of its step budget and greedy
    /// took over.
    pub exact_budget_fallback: bool,
    /// Time spent building the conflict hypergraph.
    pub build_time: Duration,
    /// Time spent coloring.
    pub color_time: Duration,
    /// Conflict-builder statistics for this partition.
    pub index_stats: ConflictStats,
}

/// Colors one partition of the builder's view's rows. Pure apart from the
/// reused `builder` scratch: mutates nothing outside its return value.
pub(crate) fn color_partition(
    partition: usize,
    rows: &[RowId],
    n_candidates: usize,
    mode: ColoringMode,
    builder: &mut ConflictBuilder<'_>,
) -> PartitionResult {
    // `obs::timed` measures the interval *and* emits the span from the same
    // clock reads, so the coordinator's `stage_add` of the returned
    // durations matches the trace aggregate exactly.
    let ((g, index_stats), build_time) = cextend_obs::timed("conflict_build", || {
        (builder.build(rows), builder.take_stats())
    });

    let ((g, coloring, skipped_vertices, fresh, exact_budget_fallback), color_time) =
        cextend_obs::timed("coloring", move || {
            let candidates: Vec<Color> = (0..n_candidates as Color).collect();
            let shared = CandidateLists::Shared(&candidates);
            let mut coloring = Coloring::new(rows.len());
            let mut skipped_vertices = Vec::new();
            let mut solved_exactly = false;
            let mut exact_budget_fallback = false;
            if let ColoringMode::Exact { max_steps } = mode {
                match exact_list_coloring(&g, &coloring, &shared, max_steps) {
                    ExactResult::Colorable(c) => {
                        coloring = c;
                        solved_exactly = true;
                    }
                    ExactResult::Unknown => exact_budget_fallback = true,
                    ExactResult::Uncolorable => {}
                }
            }
            if !solved_exactly {
                skipped_vertices = coloring_lf(&g, &mut coloring, &shared);
            }
            let fresh = color_skipped_with_fresh(
                &g,
                &mut coloring,
                &skipped_vertices,
                n_candidates as Color,
            );
            (g, coloring, skipped_vertices, fresh, exact_budget_fallback)
        });

    debug_assert!(cextend_hypergraph::is_proper_complete(&g, &coloring));
    let assignments = coloring
        .iter()
        .map(|(v, c)| (rows[v as usize], c))
        .collect();
    PartitionResult {
        partition,
        assignments,
        fresh_colors: fresh.len(),
        edges: g
            .n_edges()
            .saturating_add(usize::try_from(g.n_implicit_edges()).unwrap_or(usize::MAX)),
        skipped: skipped_vertices.len(),
        exact_budget_fallback,
        build_time,
        color_time,
        index_stats,
    }
}

/// Colors all partitions of the builder's view's rows and hands each
/// [`PartitionResult`]
/// to `sink` in partition order — the streaming core of the Phase II
/// pipeline.
///
/// With one worker (or one partition), `sink` runs right after each
/// partition colors. Otherwise up to `workers` threads pull partition
/// indexes from a shared atomic counter (work-stealing: a worker stuck on a
/// huge partition never strands queued small ones behind it) and stream
/// results over a channel; the coordinator reorders arrivals so `sink`
/// still observes strict partition order while later partitions are still
/// coloring. Either way the sink sees the same sequence, so downstream
/// minting stays bit-identical across worker widths. The caller compiles
/// `builder` once; each worker colors with its own clone (the compiled
/// plans plus reusable scratch, sharing the row masks). The first error
/// `sink` returns stops the stream and is returned; workers finish the
/// partition in hand and exit.
pub(crate) fn color_partitions_streamed(
    partitions: &[(usize, Vec<RowId>, usize)],
    mode: ColoringMode,
    mut builder: ConflictBuilder<'_>,
    workers: usize,
    mut sink: impl FnMut(PartitionResult) -> Result<()>,
) -> Result<()> {
    let n_threads = workers.min(partitions.len());
    if n_threads < 2 {
        for (i, (_, rows, n_cand)) in partitions.iter().enumerate() {
            sink(color_partition(i, rows, *n_cand, mode, &mut builder))?;
        }
        return Ok(());
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let builder = &builder;
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<PartitionResult>();
        for t in 0..n_threads {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || {
                cextend_obs::label_thread(&format!("phase2-worker-{t}"));
                let mut builder = builder.clone();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some((_, rows, n_cand)) = partitions.get(i) else {
                        break;
                    };
                    let r = color_partition(i, rows, *n_cand, mode, &mut builder);
                    if tx.send(r).is_err() {
                        break; // coordinator gone (sink error or panic)
                    }
                }
                // Hand buffered spans/counters to the collector before the
                // scope joins (TLS destructors can outlive the join).
                cextend_obs::flush_thread();
            });
        }
        drop(tx);
        // Reorder out-of-order arrivals: deliver the contiguous prefix as
        // it completes, buffering only the gap between the fastest and
        // slowest in-flight partition.
        let mut pending: HashMap<usize, PartitionResult> = HashMap::new();
        let mut next_out = 0usize;
        for r in rx {
            pending.insert(r.partition, r);
            while let Some(r) = pending.remove(&next_out) {
                sink(r)?;
                next_out += 1;
            }
        }
        assert_eq!(next_out, partitions.len(), "every partition colored");
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::instance::fixtures;
    use cextend_constraints::BoundDc;
    use cextend_table::Relation;

    /// The running example's people and the Figure 2a DCs bound against
    /// them. Rows 0..7 are the Chicago partition of Figure 5, rows 7..9 the
    /// NYC one.
    fn chicago_setup() -> (Relation, Vec<BoundDc>) {
        let r1 = fixtures::running_example().r1;
        let dcs = fixtures::figure2_dcs()
            .iter()
            .map(|d| d.bind(r1.schema(), r1.name()).unwrap())
            .collect();
        (r1, dcs)
    }

    /// Colors the Chicago partition (rows 0..7) with `n_cand` candidates.
    fn color_chicago(n_cand: usize, mode: ColoringMode) -> PartitionResult {
        let (r1, dcs) = chicago_setup();
        let rows: Vec<RowId> = (0..7).collect();
        let mut builder = ConflictBuilder::new(&dcs, &r1);
        color_partition(0, &rows, n_cand, mode, &mut builder)
    }

    #[test]
    fn chicago_partition_colors_with_four_households() {
        let r = color_chicago(4, ColoringMode::Greedy);
        assert_eq!(r.assignments.len(), 7);
        assert_eq!(r.skipped, 0);
        assert_eq!(r.fresh_colors, 0);
        assert_eq!(r.edges, 10);
    }

    #[test]
    fn too_few_candidates_mint_fresh_colors() {
        // Only 2 candidate households for 4 pairwise-conflicting owners.
        let r = color_chicago(2, ColoringMode::Greedy);
        assert!(r.skipped >= 2);
        assert!(r.fresh_colors <= r.skipped);
        assert!(r.fresh_colors >= 2);
        // Every row still gets a color.
        assert_eq!(r.assignments.len(), 7);
    }

    #[test]
    fn exact_mode_succeeds_where_stated() {
        let r = color_chicago(4, ColoringMode::Exact { max_steps: 100_000 });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.fresh_colors, 0);
        assert!(!r.exact_budget_fallback);
    }

    #[test]
    fn an_exhausted_exact_budget_falls_back_to_greedy_and_says_so() {
        let r = color_chicago(4, ColoringMode::Exact { max_steps: 1 });
        assert!(r.exact_budget_fallback);
        assert_eq!(r.assignments.len(), 7);
        // Greedy alone is not a budget fallback.
        assert!(!color_chicago(4, ColoringMode::Greedy).exact_budget_fallback);
    }

    /// Streams the Chicago and NYC partitions through `sink`.
    fn stream(workers: usize, sink: impl FnMut(PartitionResult) -> Result<()>) -> Result<()> {
        let (r1, dcs) = chicago_setup();
        let partitions = vec![(0, (0..7).collect::<Vec<_>>(), 4), (1, vec![7, 8], 2)];
        let builder = ConflictBuilder::new(&dcs, &r1);
        color_partitions_streamed(&partitions, ColoringMode::Greedy, builder, workers, sink)
    }

    #[test]
    fn every_width_streams_the_same_results() {
        let collect = |workers: usize| {
            let mut out = Vec::new();
            stream(workers, |r| {
                out.push(r);
                Ok(())
            })
            .unwrap();
            out
        };
        let serial = collect(1);
        assert_eq!(serial.len(), 2);
        for workers in [2, 4] {
            let wide = collect(workers);
            assert_eq!(serial.len(), wide.len());
            for (i, (s, w)) in serial.iter().zip(&wide).enumerate() {
                assert_eq!(s.partition, i, "sink sees partition order");
                assert_eq!(w.partition, i, "sink sees partition order");
                assert_eq!(s.assignments, w.assignments);
                assert_eq!(s.fresh_colors, w.fresh_colors);
                assert_eq!(s.index_stats, w.index_stats);
            }
        }
    }

    #[test]
    fn sink_errors_stop_the_stream() {
        for workers in [1, 2] {
            let mut seen = 0;
            let err = stream(workers, |_| {
                seen += 1;
                Err(CoreError::Validation("stop".into()))
            });
            assert!(matches!(err, Err(CoreError::Validation(_))), "{err:?}");
            assert_eq!(seen, 1, "no result reaches the sink after an error");
        }
    }
}
