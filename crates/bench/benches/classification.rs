//! Micro-benchmark: pairwise CC classification + Hasse construction
//! (the "Pairwise Comparison" row of Figure 13) for growing CC counts, and
//! the classification alone at the repository benchmark's census-ilp
//! shape, compiled ([`RelationshipMatrix::build`]) against the per-pair
//! [`classify`] reference.

use cextend_bench::ExperimentOpts;
use cextend_constraints::{classify, CardinalityConstraint, HasseDiagram, RelationshipMatrix};
use cextend_workloads::{workload_by_name, CcFamily, WorkloadParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_classification(c: &mut Criterion) {
    let opts = ExperimentOpts {
        scale_factor: 0.01,
        knobs: [("areas".to_owned(), 8)].into_iter().collect(),
        ..ExperimentOpts::default()
    };
    let data = opts.dataset(1, None, 0);
    let mut group = c.benchmark_group("pairwise_classification");
    for &n in &[50usize, 150, 400] {
        for family in [CcFamily::Good, CcFamily::Bad] {
            let ccs = opts.ccs(family, n, &data, 0);
            let id = format!("{n}_{family:?}");
            group.bench_with_input(BenchmarkId::from_parameter(id), &ccs, |b, ccs| {
                b.iter(|| {
                    let m = RelationshipMatrix::build(ccs);
                    HasseDiagram::build(&m)
                })
            });
        }
    }
    group.finish();
}

/// The census bad family's 1,000 CCs at scale 0.5, drawn as the repository
/// benchmark's census-ilp workload draws the first instance of its seed 1.
fn census_ilp_ccs() -> Vec<CardinalityConstraint> {
    let census = workload_by_name("census").expect("census is registered");
    let data = census.generate(&WorkloadParams::new(0.5, 1000));
    census.step_ccs(0, CcFamily::Bad, 1000, &data, 1000)
}

/// Every ordered pair classified with [`classify`], row-major.
fn reference(ccs: &[CardinalityConstraint]) -> Vec<cextend_constraints::CcRelationship> {
    ccs.iter()
        .flat_map(|a| ccs.iter().map(move |b| classify(a, b)))
        .collect()
}

fn bench_census_ilp(c: &mut Criterion) {
    let ccs = census_ilp_ccs();
    let n = ccs.len();
    let compiled = RelationshipMatrix::build(&ccs);
    let want = reference(&ccs);
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            assert_eq!(compiled.get(i, j), want[i * n + j], "pair ({i}, {j})");
        }
    }
    let mut group = c.benchmark_group("census_ilp_classification");
    group.bench_with_input(BenchmarkId::new("compiled", n), &ccs, |b, ccs| {
        b.iter(|| RelationshipMatrix::build(ccs))
    });
    group.bench_with_input(BenchmarkId::new("reference", n), &ccs, |b, ccs| {
        b.iter(|| reference(ccs))
    });
    group.finish();
}

criterion_group!(benches, bench_classification, bench_census_ilp);
criterion_main!(benches);
