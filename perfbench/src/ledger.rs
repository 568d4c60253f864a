//! Wall-time reconciliation of one traced chain.
//!
//! Stage times the solver reports for Phase II add up worker durations, so
//! they are CPU time, not wall time. This module reads the coordinator's
//! own spans instead: each `step:*` span, the `solve` span inside it and
//! the stage spans on the same thread, to say how much of the step wall the
//! stages cover and how long the coordinator spent in Phase II.

use cextend_obs::{SpanEvent, Trace};

/// Phase I stage-span names (the names `StageTimings::from_named` maps).
pub const PHASE1_STAGES: [&str; 8] = [
    "pairwise",
    "hasse",
    "ilp_build",
    "ilp_solve",
    "fill",
    "repair",
    "leftovers",
    "random",
];

/// Phase II stage-span names.
pub const PHASE2_STAGES: [&str; 3] = ["conflict_build", "coloring", "invalid"];

/// Coordinator wall accounting of one traced chain, in seconds, summed over
/// its steps.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Sum of the `step:*` spans.
    pub step_wall_s: f64,
    /// Sum of the `solve` spans inside the steps.
    pub solve_s: f64,
    /// Step wall covered by at least one stage span on the step's thread.
    pub attributed_s: f64,
    /// Coordinator Phase II wall: from the end of a solve's last Phase I
    /// stage span to the end of the solve.
    pub phase2_wall_s: f64,
}

impl Ledger {
    /// Reconciles a trace (see the module docs).
    pub fn from_trace(trace: &Trace) -> Ledger {
        let mut ledger = Ledger::default();
        for step in trace.spans.iter().filter(|s| s.name.starts_with("step:")) {
            let inside: Vec<&SpanEvent> = trace
                .spans
                .iter()
                .filter(|s| s.tid == step.tid && s.ts_ns >= step.ts_ns && end(s) <= end(step))
                .collect();
            ledger.step_wall_s += secs(step.dur_ns);
            for solve in inside.iter().filter(|s| s.name == "solve") {
                let phase1_end = inside
                    .iter()
                    .filter(|s| PHASE1_STAGES.contains(&&*s.name) && s.ts_ns >= solve.ts_ns)
                    .filter(|s| end(s) <= end(solve))
                    .map(|s| end(s))
                    .max()
                    .unwrap_or(solve.ts_ns);
                ledger.solve_s += secs(solve.dur_ns);
                ledger.phase2_wall_s += secs(end(solve) - phase1_end);
            }
            let stages: Vec<(u64, u64)> = inside
                .iter()
                .filter(|s| PHASE1_STAGES.contains(&&*s.name) || PHASE2_STAGES.contains(&&*s.name))
                .map(|s| (s.ts_ns, end(s)))
                .collect();
            ledger.attributed_s += secs(union_ns(stages));
        }
        ledger
    }

    /// Share of the step wall that no stage span covers.
    pub fn unattributed_frac(&self) -> f64 {
        if self.step_wall_s > 0.0 {
            1.0 - self.attributed_s / self.step_wall_s
        } else {
            0.0
        }
    }

    /// Step wall outside the `solve` span: view build, instance
    /// validation, in-step evaluation and FK delta extraction.
    pub fn step_overhead_s(&self) -> f64 {
        self.step_wall_s - self.solve_s
    }
}

fn end(s: &SpanEvent) -> u64 {
    s.ts_ns.saturating_add(s.dur_ns)
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(name: &'static str, tid: u64, ts_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name: Cow::Borrowed(name),
            tid,
            ts_ns,
            dur_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(20, 30), (0, 40)]), 40);
    }

    #[test]
    fn ledger_reconciles_a_two_step_trace() {
        // Step 1 (tid 1, 0..1000): solve 100..900 with Phase I stages
        // 100..300 and 300..500, then coordinator Phase II stages 550..600
        // and 800..900. A worker (tid 2) spends 600..800 in conflict_build,
        // which is CPU, not coordinator wall. Step 2 (tid 1, 1000..1500):
        // solve 1100..1400 with one Phase I stage 1100..1400.
        let trace = Trace {
            spans: vec![
                span("hasse", 1, 100, 200),
                span("leftovers", 1, 300, 200),
                span("conflict_build", 1, 550, 50),
                span("conflict_build", 2, 600, 200),
                span("coloring", 1, 800, 100),
                span("solve", 1, 100, 800),
                span("step:A→B", 1, 0, 1000),
                span("hasse", 1, 1100, 300),
                span("solve", 1, 1100, 300),
                span("step:B→C", 1, 1000, 500),
            ],
            ..Trace::default()
        };
        let l = Ledger::from_trace(&trace);
        let close = |a: f64, b_ns: u64| (a - b_ns as f64 * 1e-9).abs() < 1e-15;
        assert!(close(l.step_wall_s, 1500));
        assert!(close(l.solve_s, 1100));
        assert!(close(l.attributed_s, 200 + 200 + 50 + 100 + 300));
        assert!(close(l.phase2_wall_s, 400));
        assert!(close(l.step_overhead_s(), 400));
        assert!((l.unattributed_frac() - (1.0 - 850.0 / 1500.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let l = Ledger::from_trace(&Trace::default());
        assert_eq!(l, Ledger::default());
        assert_eq!(l.unattributed_frac(), 0.0);
    }
}
