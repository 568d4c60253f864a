//! Micro-benchmark: greedy largest-first list coloring (Algorithm 3) on
//! conflict graphs of growing size, plus the exact solver on small ones,
//! plus the `coloring` group on real DC-dense conflict graphs (greedy +
//! fresh-color repair, parameterized by partition size and DC density).

use cextend_bench::dcdense_largest_partition;
use cextend_core::conflict::ConflictBuilder;
use cextend_hypergraph::{
    color_skipped_with_fresh, coloring_lf, exact_list_coloring, CandidateLists, Color, Coloring,
    Hypergraph,
};
use cextend_workloads::DcSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A clique of `k` "owners" plus a sparse fringe — the shape census
/// partitions take under `S_all_DC`.
fn conflict_like_graph(n: usize, clique: usize) -> Hypergraph {
    let mut g = Hypergraph::new(n);
    for i in 0..clique.min(n) as u32 {
        for j in (i + 1)..clique.min(n) as u32 {
            g.add_edge(&[i, j]);
        }
    }
    for i in clique..n {
        g.add_edge(&[(i % clique) as u32, i as u32]);
    }
    g
}

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring_lf");
    for &n in &[100usize, 400, 1600] {
        let clique = n / 10;
        let g = conflict_like_graph(n, clique);
        let colors: Vec<Color> = (0..clique as Color + 1).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let mut coloring = Coloring::new(g.n_vertices());
                let skipped = coloring_lf(g, &mut coloring, &CandidateLists::Shared(&colors));
                assert!(skipped.is_empty());
                coloring
            })
        });
    }
    group.finish();
}

/// Greedy + fresh-color completion on the conflict graph of the largest
/// `(Room, Shift)` partition of a generated dcdense view. Candidate colors
/// are the partition's slots, as in Algorithm 4.
fn bench_dcdense_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring");
    group.sample_size(10);
    for &label in &[1u32, 5] {
        for (density, set) in [("good", DcSet::Good), ("all", DcSet::All)] {
            let (view, rows, dcs) = dcdense_largest_partition(label, set);
            // One candidate color per slot in the partition (= its anchors).
            let kind = view.schema().col_id("Kind").expect("Kind in view");
            let n_cand = rows
                .iter()
                .filter(|&&r| view.get(r, kind) == Some(cextend_table::Value::str("Anchor")))
                .count();
            let colors: Vec<Color> = (0..n_cand as Color).collect();
            let g = ConflictBuilder::new(&dcs, &view).build(&rows);
            let edges = g.n_edges() as u64 + g.n_implicit_edges();
            let id = format!("p{}_{density}_e{edges}", rows.len());
            group.bench_with_input(BenchmarkId::from_parameter(id), &g, |b, g| {
                b.iter(|| {
                    let mut coloring = Coloring::new(g.n_vertices());
                    let skipped = coloring_lf(g, &mut coloring, &CandidateLists::Shared(&colors));
                    color_skipped_with_fresh(g, &mut coloring, &skipped, n_cand as Color);
                    coloring
                })
            });
        }
    }
    group.finish();
}

fn bench_exact(c: &mut Criterion) {
    let g = conflict_like_graph(40, 6);
    let colors: Vec<Color> = (0..7).collect();
    c.bench_function("exact_list_coloring_40", |b| {
        b.iter(|| {
            exact_list_coloring(
                &g,
                &Coloring::new(g.n_vertices()),
                &CandidateLists::Shared(&colors),
                1_000_000,
            )
        })
    });
}

criterion_group!(benches, bench_greedy, bench_dcdense_coloring, bench_exact);
criterion_main!(benches);
