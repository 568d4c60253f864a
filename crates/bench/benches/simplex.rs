//! Micro-benchmark: the LP engine against the exact `Rational` reference on
//! Algorithm 1-shaped programs (hard bin rows + elastic CC rows), and the
//! engine's branch-and-bound on a census-ilp-sized program.

use cextend_bench::benchdata::{algorithm1_shaped, Algorithm1Shape};
use cextend_ilp::reference::solve_lp_exact;
use cextend_ilp::{solve_ilp, solve_lp, BbConfig, IlpStatus};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp");
    group.sample_size(10);
    for shape in Algorithm1Shape::SMALL {
        let p = algorithm1_shaped(shape);
        // Same answers before timing: the engine's objective is the
        // reference's.
        let exact = solve_lp_exact(&p).unwrap();
        let engine = solve_lp(&p).unwrap();
        assert_eq!(exact.status, engine.status);
        assert!((exact.objective.to_f64() - engine.objective).abs() < 1e-6);
        let id = shape.label();
        group.bench_with_input(BenchmarkId::new("engine", &id), &p, |b, p| {
            b.iter(|| solve_lp(p).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("reference", &id), &p, |b, p| {
            b.iter(|| solve_lp_exact(p).unwrap())
        });
    }
    // The census-sized program is beyond the dense reference (a tableau of
    // about 4.5M fractions), so only the engine runs on it.
    let p = algorithm1_shaped(Algorithm1Shape::CENSUS);
    let id = Algorithm1Shape::CENSUS.label();
    group.bench_with_input(BenchmarkId::new("engine", &id), &p, |b, p| {
        b.iter(|| solve_lp(p).unwrap())
    });
    group.finish();
}

fn bench_bb(c: &mut Criterion) {
    let p = algorithm1_shaped(Algorithm1Shape::CENSUS);
    let cfg = BbConfig { max_nodes: 200 };
    assert_eq!(solve_ilp(&p, &cfg).unwrap().status, IlpStatus::Optimal);
    let mut group = c.benchmark_group("ilp");
    group.sample_size(10);
    let id = format!("bb/{}", Algorithm1Shape::CENSUS.label());
    group.bench_function(id, |b| b.iter(|| solve_ilp(&p, &cfg).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_lp, bench_bb);
criterion_main!(benches);
