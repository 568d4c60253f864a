//! Micro-benchmarks for Phase II's conflict-hypergraph construction.
//!
//! `conflict_build` measures the conflict builder Phase II runs
//! (`cextend_core::conflict::ConflictBuilder`, with window and clique
//! groups, bulk pair emission and indexed enumeration) head to head
//! against the naive `O(|P|^k)` reference enumeration on real `dcdense`
//! partitions, parameterized by partition size (scale label) and DC
//! density (`good` = anchored gap rows only, `all` = these plus Anchor
//! cliques and the ternary `nae-track` row). The builder is compiled, and
//! the view's rows classified into its unary filters, once outside the
//! timed loop, as Phase II does once per solve. Edge counts are explicit
//! plus implicit: the builder turns the anchored gap rows into window
//! groups and the Anchor cliques and `nae-track` into capacity groups
//! that stand for their edges. `dc_error_scan` times the certifier's
//! DC-error scan over a whole ground-truth relation.

use cextend_bench::{dcdense_largest_partition, ExperimentOpts};
use cextend_core::conflict::{build_conflict_graph_naive, ConflictBuilder};
use cextend_core::metrics::dc_error;
use cextend_hypergraph::Hypergraph;
use cextend_workloads::DcSet;
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

criterion_group!(benches, bench_conflict_build, bench_dc_error);
criterion_main!(benches);
