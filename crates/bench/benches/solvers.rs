//! Kernel and ablation benches for the design choices DESIGN.md calls out:
//!
//! * **Solver choice**: preconditioned CG vs unpreconditioned CG vs
//!   BiCGSTAB on a real 8-layer V-S solve-sized grid Laplacian.
//! * **Converter rail reference**: boundary-ladder vs adjacent-rails
//!   (correctness consequences live in `vstack-pdn`; here we show cost
//!   parity — the ladder reference is not an optimization compromise).
//! * **Grid refinement**: the fidelity/runtime trade of the electrical
//!   grid.
//! * **EM exponent**: Black n = 1 vs n = 2 lifetime evaluation cost (and a
//!   printed reminder of how strongly it changes the headline ratios).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vstack::em::black::BlackModel;
use vstack::em_study::tsv_array_lifetime;
use vstack::pdn::ConverterReference;
use vstack::scenario::DesignScenario;
use vstack::sparse::solver::{bicgstab, cg, BiCgStabOptions, CgOptions, Preconditioner};
use vstack::sparse::{CsrMatrix, TripletMatrix};

/// 2-D grid Laplacian with Dirichlet corners, sized like one PDN net.
fn grid_laplacian(n: usize) -> (CsrMatrix, Vec<f64>) {
    let mut t = TripletMatrix::new(n * n, n * n);
    for j in 0..n {
        for i in 0..n {
            let a = j * n + i;
            if i + 1 < n {
                t.stamp_conductance(Some(a), Some(a + 1), 20.0);
            }
            if j + 1 < n {
                t.stamp_conductance(Some(a), Some(a + n), 20.0);
            }
        }
    }
    for corner in [0, n - 1, n * (n - 1), n * n - 1] {
        t.push(corner, corner, 100.0);
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64 - 3.0) * 1e-3).collect();
    (a, b)
}

fn bench_solvers(c: &mut Criterion) {
    let (a, b) = grid_laplacian(48);
    let mut g = c.benchmark_group("solver_kernels");
    g.sample_size(20);
    g.bench_function("cg_jacobi", |bch| {
        bch.iter(|| black_box(cg(&a, &b, &CgOptions::default()).expect("cg")))
    });
    g.bench_function("cg_unpreconditioned", |bch| {
        let opts = CgOptions {
            preconditioner: Preconditioner::None,
            ..CgOptions::default()
        };
        bch.iter(|| black_box(cg(&a, &b, &opts).expect("cg")))
    });
    g.bench_function("bicgstab_jacobi", |bch| {
        bch.iter(|| black_box(bicgstab(&a, &b, &BiCgStabOptions::default()).expect("bicgstab")))
    });
    g.finish();
}

fn bench_converter_reference(c: &mut Criterion) {
    let scenario = DesignScenario::paper_baseline()
        .coarse_grid()
        .layers(8)
        .converters_per_core(8);
    let loads = scenario.interleaved_loads(0.5);
    let mut g = c.benchmark_group("ablation_converter_reference");
    g.sample_size(10);
    for (name, reference) in [
        ("boundary_ladder", ConverterReference::BoundaryLadder),
        ("adjacent_rails", ConverterReference::AdjacentRails),
    ] {
        let pdn = scenario.voltage_stacked_pdn().with_reference(reference);
        g.bench_function(name, |b| {
            b.iter(|| black_box(pdn.solve(&loads).expect("solve")))
        });
    }
    g.finish();
}

fn bench_grid_refinement(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_grid_refinement");
    g.sample_size(10);
    for refinement in [1usize, 2, 3] {
        let mut params = DesignScenario::paper_baseline().pdn_params().clone();
        params.grid_refinement = refinement;
        let scenario = DesignScenario::paper_baseline()
            .params(params)
            .layers(8)
            .converters_per_core(8);
        let loads = scenario.interleaved_loads(0.5);
        let pdn = scenario.voltage_stacked_pdn();
        g.bench_with_input(
            BenchmarkId::from_parameter(refinement),
            &refinement,
            |b, _| b.iter(|| black_box(pdn.solve(&loads).expect("solve"))),
        );
    }
    g.finish();
}

fn bench_em_exponent(c: &mut Criterion) {
    let scenario = DesignScenario::paper_baseline().coarse_grid().layers(8);
    let sol = scenario.solve_regular_peak().expect("regular solve");
    let mut g = c.benchmark_group("ablation_em_exponent");
    for n in [1.0f64, 2.0] {
        let model = BlackModel::paper_tsv().with_exponent(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(tsv_array_lifetime(&sol, &model)))
        });
    }
    g.finish();
}

criterion_group!(
    solvers,
    bench_solvers,
    bench_converter_reference,
    bench_grid_refinement,
    bench_em_exponent
);
criterion_main!(solvers);
