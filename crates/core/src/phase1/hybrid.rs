//! Phase I driver: the hybrid split of Section 4.3 (plus the ILP-only and
//! Hasse-only strategies used as baselines/ablations).
//!
//! The hybrid labels every CC pair (Definitions 4.2–4.4), builds the Hasse
//! diagram of containment, discards every diagram touched by an
//! intersection, runs Algorithm 2 on the clean diagrams (`S1`) and
//! Algorithm 1 with *modified marginals* on the rest (`S2`). CCs with equal
//! conditions are deduplicated (equal targets) or routed to the ILP
//! (conflicting targets); diagrams that are not forests — only possible
//! with unsatisfiable conditions — are routed to the ILP as well.

use crate::config::{Phase1Strategy, SolverConfig};
use crate::error::Result;
use crate::instance::CExtensionInstance;
use crate::phase1::compressed::{complete_leftovers, complete_randomly, leftover_rows};
use crate::phase1::{hasse_rec, ilp_based, InvalidRows, P1};
use crate::report::{SolveStats, StageTimings};
use cextend_constraints::{
    CardinalityConstraint, HasseDiagram, NormalizedCond, RelationshipMatrix,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Runs the configured Phase I strategy. Returns the filled context and the
/// invalid rows (rows with no complete, CC-neutral assignment) with what
/// invalid placement needs of the record about them.
///
/// Stage timings are no longer hand-threaded: an `obs` frame collects the
/// per-stage durations the `obs::stage` guards record, and `stats.timings`
/// is derived from the frame totals at the end (propagating to any
/// enclosing frame, e.g. a full solve's).
pub(crate) fn run(
    instance: &CExtensionInstance,
    config: &SolverConfig,
    stats: &mut SolveStats,
) -> Result<(P1, InvalidRows)> {
    let frame = cextend_obs::frame();
    let mut p1 = P1::build(instance, config)?;
    match config.phase1 {
        Phase1Strategy::Hybrid => {
            run_hybrid(instance, config, &mut p1, stats, true)?;
        }
        Phase1Strategy::HasseOnly => {
            run_hybrid(instance, config, &mut p1, stats, false)?;
        }
        Phase1Strategy::IlpOnly { marginals } => {
            let mode = if marginals {
                ilp_based::MarginalMode::AllWay
            } else {
                ilp_based::MarginalMode::None
            };
            let out = ilp_based::run(&mut p1, &instance.r1, &instance.ccs, mode, &config.ilp)?;
            record_ilp(stats, &out);
            stats.counters.s2_ccs = instance.ccs.len();
            // Baseline completion: random combos for every leftover row.
            let random_stage = cextend_obs::stage("random");
            complete_randomly(&mut p1, config.workers);
            drop(random_stage);
        }
    }
    // Whatever strategy ran, rows still incomplete are the invalid tuples.
    // Phase II reads no `R1` bitmap: take what invalid placement needs from
    // them, then free them before Phase II allocates.
    let invalid = p1.invalid_rows(leftover_rows(&p1));
    p1.cc_r1_bits = Vec::new();
    stats.counters.invalid_tuples = invalid.rows.len();
    stats
        .timings
        .absorb(&StageTimings::from_named(&frame.totals()));
    Ok((p1, invalid))
}

fn run_hybrid(
    instance: &CExtensionInstance,
    config: &SolverConfig,
    p1: &mut P1,
    stats: &mut SolveStats,
    with_ilp: bool,
) -> Result<()> {
    // ---- Deduplicate equal-condition CCs. ------------------------------
    // `kept[j]` is `instance.ccs[kept_src[j]]`, whose `R1` bitmap is
    // `p1.cc_r1_bits[kept_src[j]]`.
    let mut kept: Vec<CardinalityConstraint> = Vec::new();
    let mut kept_src: Vec<usize> = Vec::new();
    // The first kept CC of each `(R1, R2)` condition pair.
    let mut first: HashMap<(&NormalizedCond, &NormalizedCond), usize> = HashMap::new();
    let mut conflicted: HashSet<usize> = HashSet::new(); // indices into `kept`
    for (i, cc) in instance.ccs.iter().enumerate() {
        match first.entry((&cc.r1, &cc.r2)) {
            Entry::Occupied(j) if kept[*j.get()].target == cc.target => {
                stats.counters.deduped_ccs += 1;
                continue;
            }
            Entry::Occupied(j) => {
                // Equal conditions, different targets: contradictory. Both
                // go to the ILP, whose elastic rows split the difference.
                conflicted.insert(*j.get());
                conflicted.insert(kept.len());
            }
            Entry::Vacant(slot) => {
                slot.insert(kept.len());
            }
        }
        kept.push(cc.clone());
        kept_src.push(i);
    }

    // ---- Pairwise classification + Hasse construction. ------------------
    let pairwise_stage = cextend_obs::stage("pairwise");
    let matrix = RelationshipMatrix::build(&kept);
    let hasse = HasseDiagram::build(&matrix);
    drop(pairwise_stage);

    // ---- Split diagrams into clean (S1) and dirty (S2). -----------------
    let mut clean: Vec<&[usize]> = Vec::new();
    let mut s2: Vec<usize> = Vec::new();
    for comp in hasse.components() {
        let dirty = comp.iter().any(|&i| {
            matrix.intersects_any(i) || conflicted.contains(&i) || hasse.parents(i).len() > 1
        });
        if dirty {
            s2.extend(comp.iter().copied());
        } else {
            clean.push(comp.as_slice());
        }
    }
    stats.counters.s1_ccs = kept.len() - s2.len();
    stats.counters.s2_ccs = s2.len();

    // ---- Algorithm 2 on the clean diagrams. -----------------------------
    let hasse_stage = cextend_obs::stage("hasse");
    let out = hasse_rec::run(p1, &kept, &kept_src, &hasse, &clean);
    stats.counters.hasse_assigned_rows += out.assigned_rows;
    drop(hasse_stage);

    // ---- Algorithm 1 with modified marginals on the dirty set. ----------
    if with_ilp && !s2.is_empty() {
        let subset: Vec<CardinalityConstraint> = s2.iter().map(|&i| kept[i].clone()).collect();
        let conds: Vec<cextend_constraints::NormalizedCond> =
            subset.iter().map(|cc| cc.r1.clone()).collect();
        let out = ilp_based::run(
            p1,
            &instance.r1,
            &subset,
            ilp_based::MarginalMode::Restricted(&conds),
            &config.ilp,
        )?;
        record_ilp(stats, &out);
        // Local-search repair of rounding residue; clean-set CCs protected.
        let repair_stage = cextend_obs::stage("repair");
        let s2_set: HashSet<usize> = s2.iter().copied().collect();
        let repaired_ccs: Vec<usize> = s2.iter().map(|&j| kept_src[j]).collect();
        let protected: Vec<usize> = (0..kept.len())
            .filter(|j| !s2_set.contains(j))
            .map(|j| kept_src[j])
            .collect();
        let repaired = crate::phase1::repair::repair(
            p1,
            &instance.ccs,
            &repaired_ccs,
            &protected,
            config.ilp.repair_passes,
        );
        stats.counters.repair_moves += repaired.moves;
        drop(repair_stage);
    }

    // ---- Completion (Algorithm 2 lines 14–17, generalized). -------------
    let leftovers_stage = cextend_obs::stage("leftovers");
    complete_leftovers(p1, config.workers);
    drop(leftovers_stage);
    Ok(())
}

fn record_ilp(stats: &mut SolveStats, out: &ilp_based::IlpOutcome) {
    stats.counters.ilp_vars += out.vars;
    stats.counters.ilp_rows += out.rows;
    stats.counters.ilp_nodes += out.nodes;
    stats.counters.ilp_rounded |= out.rounded;
    stats.counters.ilp_budget_fallbacks += usize::from(out.budget_fallback);
    cextend_obs::counter_add(
        "phase1.ilp_budget_fallbacks",
        u64::from(out.budget_fallback),
    );
    stats.counters.ilp_assigned_rows += out.assigned_rows;
    stats.counters.bins = stats.counters.bins.max(out.bins);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures;
    use crate::phase1::oracle::cell_counts;
    use crate::phase1::RowState;
    use cextend_constraints::parse_cc;
    use cextend_table::RowId;

    /// Runs Phase I and returns the context, every CC's count on the cells
    /// of its record's pinned view and the invalid rows.
    fn run_counted(
        instance: &CExtensionInstance,
        config: &SolverConfig,
        stats: &mut SolveStats,
    ) -> (P1, Vec<u64>, Vec<RowId>) {
        let (p1, invalid) = run(instance, config, stats).unwrap();
        let counts = cell_counts(&p1, instance);
        (p1, counts, invalid.rows)
    }

    fn targets(instance: &CExtensionInstance) -> Vec<u64> {
        instance.ccs.iter().map(|cc| cc.target).collect()
    }

    #[test]
    fn running_example_hybrid_satisfies_all_ccs() {
        let instance = fixtures::running_example();
        let config = SolverConfig::hybrid();
        let mut stats = SolveStats::default();
        let (_, counts, invalid) = run_counted(&instance, &config, &mut stats);
        assert!(invalid.is_empty());
        assert_eq!(counts, targets(&instance));
    }

    #[test]
    fn handed_off_counts_are_the_view_counts_with_every_pin_written() {
        let (instance, p1) = fixtures::pinned_invalid();
        let handed = p1.invalid_rows(leftover_rows(&p1));
        assert_eq!(handed.rows, [2]);
        assert_eq!(handed.fed, cell_counts(&p1, &instance));
        // Row 2's pin feeds `A` only; the Boston rows feed nothing.
        assert_eq!(handed.fed, [3, 1, 1]);
        // Row 2 matches every CC's `R1` side, and its pin feeds `A`.
        assert_eq!((handed.words, handed.r1_masks), (1, vec![0b111]));
        assert_eq!(handed.pinned, [0b001]);
    }

    #[test]
    fn figure2_ccs_split_clean_and_dirty() {
        // CC1 (Owner, Chicago) and CC2 (Owner, NYC) are disjoint; CC3
        // (Age≤24, Chicago) and CC4 (Multi-ling=1, Chicago) intersect CC1
        // and each other: S1 and S2 are both non-empty.
        let instance = fixtures::running_example();
        let config = SolverConfig::hybrid();
        let mut stats = SolveStats::default();
        run(&instance, &config, &mut stats).unwrap();
        assert!(stats.counters.s2_ccs > 0, "intersecting CCs must go to ILP");
        assert!(stats.counters.s1_ccs + stats.counters.s2_ccs == 4);
    }

    #[test]
    fn duplicate_ccs_are_deduped() {
        let mut instance = fixtures::running_example();
        instance.ccs.push(instance.ccs[0].clone());
        let config = SolverConfig::hybrid();
        let mut stats = SolveStats::default();
        let (_, counts, _) = run_counted(&instance, &config, &mut stats);
        assert_eq!(stats.counters.deduped_ccs, 1);
        assert_eq!(counts[0], 4);
    }

    #[test]
    fn conflicting_duplicate_targets_go_to_ilp() {
        let r2: std::collections::HashSet<String> = ["Area".to_owned()].into_iter().collect();
        let mut instance = fixtures::running_example();
        instance.ccs = vec![
            parse_cc("a", r#"| Rel = "Owner" & Area = "Chicago" | = 2"#, &r2).unwrap(),
            parse_cc("b", r#"| Rel = "Owner" & Area = "Chicago" | = 5"#, &r2).unwrap(),
            // `a` again, atoms swapped: a duplicate of the first match.
            parse_cc("a2", r#"| Area = "Chicago" & Rel = "Owner" | = 2"#, &r2).unwrap(),
        ];
        let config = SolverConfig::hybrid();
        let mut stats = SolveStats::default();
        let (_, counts, _) = run_counted(&instance, &config, &mut stats);
        assert_eq!(stats.counters.deduped_ccs, 1);
        assert_eq!(stats.counters.s2_ccs, 2);
        let got = counts[0];
        assert!((2..=5).contains(&got));
    }

    #[test]
    fn baseline_strategies_complete_every_row() {
        for config in [
            SolverConfig::baseline(),
            SolverConfig::baseline_with_marginals(),
        ] {
            let instance = fixtures::running_example();
            let mut stats = SolveStats::default();
            let (p1, _, invalid) = run_counted(&instance, &config, &mut stats);
            assert!(invalid.is_empty());
            for r in 0..p1.n_rows() {
                assert_eq!(p1.state(r), RowState::Full);
            }
        }
    }

    #[test]
    fn baseline_with_marginals_satisfies_ccs_exactly_here() {
        // On the running example the marginal-augmented ILP reproduces all
        // CC counts (paper: "baseline with marginals satisfies all CCs").
        let instance = fixtures::running_example();
        let mut stats = SolveStats::default();
        let (_, counts, _) = run_counted(
            &instance,
            &SolverConfig::baseline_with_marginals(),
            &mut stats,
        );
        assert_eq!(counts, targets(&instance));
    }

    #[test]
    fn hasse_only_drops_dirty_diagrams() {
        let instance = fixtures::running_example();
        let config = SolverConfig {
            phase1: Phase1Strategy::HasseOnly,
            ..SolverConfig::hybrid()
        };
        let mut stats = SolveStats::default();
        let (p1, _) = run(&instance, &config, &mut stats).unwrap();
        // The ILP never ran.
        assert_eq!(stats.counters.ilp_vars, 0);
        drop(p1);
    }

    #[test]
    fn ilp_budget_stops_are_counted() {
        let instance = fixtures::running_example();
        let solve = |instance: &CExtensionInstance, bb_nodes: usize| {
            let mut config = SolverConfig::hybrid();
            config.ilp.bb_nodes = bb_nodes;
            let mut stats = SolveStats::default();
            run(instance, &config, &mut stats).unwrap();
            stats.counters
        };
        // A zero node budget stops the one ILP solve before its first node.
        let stopped = solve(&instance, 0);
        assert!(stopped.s2_ccs > 0);
        assert_eq!(stopped.ilp_budget_fallbacks, 1);
        // The default budget finishes this tiny program.
        assert_eq!(solve(&instance, 2000).ilp_budget_fallbacks, 0);
        // CC1 and CC2 are disjoint: no S2 CC, no ILP, nothing to count.
        let clean = CExtensionInstance::new(
            instance.r1.clone(),
            instance.r2.clone(),
            instance.ccs[..2].to_vec(),
            instance.dcs.clone(),
        )
        .unwrap();
        let counters = solve(&clean, 0);
        assert_eq!((counters.s2_ccs, counters.ilp_budget_fallbacks), (0, 0));
    }

    #[test]
    fn hybrid_timings_are_recorded() {
        let instance = fixtures::running_example();
        let mut stats = SolveStats::default();
        run(&instance, &SolverConfig::hybrid(), &mut stats).unwrap();
        // Pairwise comparison and completion always run in hybrid mode.
        assert!(stats.timings.phase1() > std::time::Duration::ZERO);
    }
}
