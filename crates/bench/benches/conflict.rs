//! Micro-benchmarks for Phase II's conflict-hypergraph construction.
//!
//! `conflict_build` measures the conflict builder Phase II runs
//! (`cextend_core::conflict::ConflictBuilder`, with sampled-statistics
//! planning and bulk pair emission; compile included) head to head against
//! the naive `O(|P|^k)` reference enumeration on real `dcdense` partitions,
//! parameterized by partition size (scale label) and DC density (`good` =
//! anchored gap rows only, `all` = these plus Anchor cliques and the
//! ternary `nae-track` row). `dc_error_scan` keeps the original
//! edge-enumeration macro cost (the metric runs the same builder).

use cextend_bench::{dcdense_largest_partition, ExperimentOpts};
use cextend_core::conflict::{build_conflict_graph_naive, ConflictBuilder};
use cextend_core::metrics::dc_error;
use cextend_workloads::DcSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_conflict_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_build");
    group.sample_size(10);
    for &label in &[1u32, 5] {
        for (density, set) in [("good", DcSet::Good), ("all", DcSet::All)] {
            let (view, rows, dcs) = dcdense_largest_partition(label, set);
            let p = rows.len();
            let edges = build_conflict_graph_naive(&view, &rows, &dcs).n_edges();
            assert_eq!(
                edges,
                ConflictBuilder::new(&dcs, &view, rows.len())
                    .build(&view, &rows)
                    .n_edges(),
                "builders must agree before being timed"
            );
            for builder in ["indexed", "naive"] {
                let id = format!("p{p}_{density}_{builder}");
                group.bench_with_input(BenchmarkId::from_parameter(id), &view, |b, view| {
                    b.iter(|| {
                        let g = match builder {
                            "indexed" => {
                                ConflictBuilder::new(&dcs, view, rows.len()).build(view, &rows)
                            }
                            _ => build_conflict_graph_naive(view, &rows, &dcs),
                        };
                        assert_eq!(g.n_edges(), edges);
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
