//! Micro-benchmarks for Phase II's conflict-hypergraph construction.
//!
//! `conflict_build` measures the conflict builder Phase II runs
//! (`cextend_core::conflict::ConflictBuilder`, with window and clique
//! groups, explicit pairs and indexed enumeration) head to head
//! against the naive `O(|P|^k)` reference enumeration on real `dcdense`
//! partitions, parameterized by partition size (scale label) and DC
//! density (`good` = anchored gap rows only, `all` = these plus Anchor
//! cliques and the ternary `nae-track` row). The builder is compiled, and
//! the view's rows classified into its unary filters, once outside the
//! timed loop, as Phase II does once per solve. Edge counts are explicit
//! plus implicit: the builder turns the anchored gap rows into window
//! groups and the Anchor cliques and `nae-track` into capacity groups
//! that stand for their edges. `dc_error_scan` times the certifier's
//! DC-error scan over a whole ground-truth relation, and `certify` the
//! whole certifier (`evaluate_with_workers`) at widths 1 and 2 on a census
//! ground-truth completion of several chunks.

use cextend_bench::{dcdense_largest_partition, ExperimentOpts};
use cextend_core::conflict::{build_conflict_graph_naive, ConflictBuilder};
use cextend_core::metrics::{dc_error, evaluate, evaluate_with_workers};
use cextend_hypergraph::Hypergraph;
use cextend_workloads::agreement::{reports_identical, truth_completion};
use cextend_workloads::{workload_by_name, CcFamily, DcSet, WorkloadParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Explicit edges plus those the clique groups stand for.
fn total_edges(g: &Hypergraph) -> u64 {
    g.n_edges() as u64 + g.n_implicit_edges()
}

fn bench_conflict_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_build");
    group.sample_size(10);
    for &label in &[1u32, 5] {
        for (density, set) in [("good", DcSet::Good), ("all", DcSet::All)] {
            let (view, rows, dcs) = dcdense_largest_partition(label, set);
            let p = rows.len();
            let edges = total_edges(&build_conflict_graph_naive(&view, &rows, &dcs));
            let mut indexed = ConflictBuilder::new(&dcs, &view);
            assert_eq!(
                edges,
                total_edges(&indexed.build(&rows)),
                "builders must agree before being timed"
            );
            for builder in ["indexed", "naive"] {
                let id = format!("p{p}_{density}_{builder}");
                group.bench_with_input(BenchmarkId::from_parameter(id), &view, |b, view| {
                    b.iter(|| {
                        let g = match builder {
                            "indexed" => indexed.build(&rows),
                            _ => build_conflict_graph_naive(view, &rows, &dcs),
                        };
                        assert_eq!(total_edges(&g), edges);
                        g
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_dc_error(c: &mut Criterion) {
    let opts = ExperimentOpts {
        scale_factor: 0.02,
        knobs: [("areas".to_owned(), 8)].into_iter().collect(),
        ..ExperimentOpts::default()
    };
    let mut group = c.benchmark_group("dc_error_scan");
    group.sample_size(10);
    for &label in &[1u32, 5] {
        let data = opts.dataset(label, None, 0);
        for (name, dcs) in [
            ("good", opts.dcs(DcSet::Good)),
            ("all", opts.dcs(DcSet::All)),
        ] {
            let id = format!("{label}x_{name}");
            let truth = data.ground_truth().clone();
            group.bench_with_input(BenchmarkId::from_parameter(id), &truth, |b, truth| {
                b.iter(|| {
                    let e = dc_error(truth, &dcs).unwrap();
                    assert_eq!(e, 0.0);
                })
            });
        }
    }
    group.finish();
}

fn bench_certify(c: &mut Criterion) {
    // Census at scale 4: about 100k persons, six of the certifier's chunks,
    // with perfbench census-hasse's CC count and DC set.
    let w = workload_by_name("census").expect("registered");
    let data = w.generate(&WorkloadParams::new(4.0, 1));
    let ccs = w.step_ccs(0, CcFamily::Good, 150, &data, 1);
    let (instance, truth) = truth_completion(&data, 0, ccs, w.step_dcs(0, DcSet::All)).unwrap();
    let serial = evaluate(&instance, &truth).unwrap();
    let n = truth.r1_hat.n_rows();
    let mut group = c.benchmark_group("certify");
    group.sample_size(10);
    for workers in [1usize, 2] {
        let id = format!("census_{n}_rows_w{workers}");
        group.bench_with_input(BenchmarkId::from_parameter(id), &workers, |b, &workers| {
            b.iter(|| {
                let report = evaluate_with_workers(&instance, &truth, workers).unwrap();
                assert!(reports_identical(&report, &serial));
                report
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conflict_build, bench_dc_error, bench_certify);
criterion_main!(benches);
