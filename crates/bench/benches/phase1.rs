//! Micro-benchmarks for Phase 1: Algorithm 2's Hasse recursion and
//! leftover completion on census- and dcdense-shaped inputs, the retained
//! scalar oracle against the code-compressed path (serial, and leftover
//! completion at 4 workers), plus the CC-membership kernel against per-CC
//! `count_in` scans. The paths compared in each group produce the same
//! output (the equivalence tests assert it, and `cc_membership` asserts
//! equal counts before timing); only the time differs.

use cextend_bench::ExperimentOpts;
use cextend_constraints::{
    cc_counts, CardinalityConstraint, HasseDiagram, NormalizedCond, RelationshipMatrix,
};
use cextend_core::phase1_internals::{
    complete_leftovers, complete_leftovers_scalar, run_hasse, run_hasse_scalar, P1,
};
use cextend_core::{CExtensionInstance, SolverConfig};
use cextend_workloads::{CcFamily, DcSet, WorkloadData};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

/// A small-scale dataset shaped like the named paper workload, with its
/// good CC family.
fn data_for(workload: &str) -> (ExperimentOpts, WorkloadData, Vec<CardinalityConstraint>) {
    let opts = ExperimentOpts {
        workload: workload.to_owned(),
        scale_factor: 0.02,
        ..ExperimentOpts::default()
    };
    let data = opts.dataset(5, None, 0);
    let ccs = opts.ccs(CcFamily::Good, 100, &data, 0);
    (opts, data, ccs)
}

/// A small-scale instance shaped like the named paper workload.
fn instance_for(workload: &str) -> CExtensionInstance {
    let (opts, data, ccs) = data_for(workload);
    data.to_instance(ccs, opts.dcs(DcSet::Good)).unwrap()
}

fn bench_hasse(c: &mut Criterion) {
    for workload in ["census", "dcdense"] {
        let instance = instance_for(workload);
        let config = SolverConfig::hybrid();
        let matrix = RelationshipMatrix::build(&instance.ccs);
        let hasse = HasseDiagram::build(&matrix);
        let comps: Vec<&[usize]> = hasse.components().iter().map(|c| c.as_slice()).collect();
        let all: Vec<usize> = (0..instance.ccs.len()).collect();
        let mut group = c.benchmark_group(format!("phase1_hasse/{workload}"));
        group.sample_size(10);
        group.bench_function("scalar", |b| {
            b.iter_batched(
                || P1::build(&instance, &config).unwrap(),
                |mut p1| run_hasse_scalar(&mut p1, &instance.ccs, &hasse, &comps).unwrap(),
                BatchSize::PerIteration,
            )
        });
        group.bench_function("compressed", |b| {
            b.iter_batched(
                || P1::build(&instance, &config).unwrap(),
                |mut p1| run_hasse(&mut p1, &instance.ccs, &all, &hasse, &comps).unwrap(),
                BatchSize::PerIteration,
            )
        });
        group.finish();
    }
}

fn bench_leftovers(c: &mut Criterion) {
    for workload in ["census", "dcdense"] {
        let instance = instance_for(workload);
        let config = SolverConfig::hybrid();
        let matrix = RelationshipMatrix::build(&instance.ccs);
        let hasse = HasseDiagram::build(&matrix);
        let comps: Vec<&[usize]> = hasse.components().iter().map(|c| c.as_slice()).collect();
        let all: Vec<usize> = (0..instance.ccs.len()).collect();
        // Setup replays the recursion so the routine sees the real
        // leftover population (partially assigned rows included).
        let after_hasse = || {
            let mut p1 = P1::build(&instance, &config).unwrap();
            run_hasse(&mut p1, &instance.ccs, &all, &hasse, &comps).unwrap();
            p1
        };
        let mut group = c.benchmark_group(format!("phase1_leftovers/{workload}"));
        group.sample_size(10);
        group.bench_function("scalar", |b| {
            b.iter_batched(
                after_hasse,
                |mut p1| complete_leftovers_scalar(&mut p1, &instance.ccs).unwrap(),
                BatchSize::PerIteration,
            )
        });
        group.bench_function("compressed-serial", |b| {
            b.iter_batched(
                after_hasse,
                |mut p1| complete_leftovers(&mut p1, &instance.ccs, 1).unwrap(),
                BatchSize::PerIteration,
            )
        });
        group.bench_function("compressed-parallel4", |b| {
            b.iter_batched(
                after_hasse,
                |mut p1| complete_leftovers(&mut p1, &instance.ccs, 4).unwrap(),
                BatchSize::PerIteration,
            )
        });
        group.finish();
    }
}

/// Per-CC `count_in` scans against one membership-kernel pass, on the
/// ground-truth join view, for the combined conditions and for the `R1`
/// sides alone (what Phase I classifies).
fn bench_cc_membership(c: &mut Criterion) {
    for workload in ["census", "dcdense"] {
        let (_, data, ccs) = data_for(workload);
        let view = data.step_truth_view(0);
        let r1_ccs: Vec<CardinalityConstraint> = ccs
            .iter()
            .map(|cc| {
                CardinalityConstraint::new(
                    cc.name.clone(),
                    cc.r1.clone(),
                    NormalizedCond::always(),
                    cc.target,
                )
            })
            .collect();
        let mut group = c.benchmark_group(format!("cc_membership/{workload}"));
        group.sample_size(10);
        for (side, ccs) in [("combined", &ccs), ("r1", &r1_ccs)] {
            let per_cc =
                || -> Vec<u64> { ccs.iter().map(|cc| cc.count_in(&view).unwrap()).collect() };
            let kernel = || cc_counts(&view, ccs).unwrap();
            assert_eq!(per_cc(), kernel(), "{workload} {side}: kernel ≠ count_in");
            group.bench_function(format!("{side}/count_in"), |b| b.iter(per_cc));
            group.bench_function(format!("{side}/kernel"), |b| b.iter(kernel));
        }
        group.finish();
    }
}

criterion_group!(benches, bench_hasse, bench_leftovers, bench_cc_membership);
criterion_main!(benches);
