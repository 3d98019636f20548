//! Solver baseline: kernel medians, preconditioner scaling, and the
//! end-to-end Fig 6 sweep, written to `BENCH_solver.json` at the repo
//! root so regressions are diffable across commits.
//!
//! Groups:
//!
//! * `spmv` — row-partitioned CSR matrix–vector product on a PDN-sized
//!   grid Laplacian (above the `PAR_SPMV_MIN_NNZ` threshold, so the
//!   threaded pool genuinely engages).
//! * `cg_solve` — a full workspace-reusing CG solve through the production
//!   hot path for its size: when `LadderPlan::for_size` picks the AMG plan
//!   that is the matrix-free stencil operator with the mixed-precision f32
//!   AMG V-cycle, otherwise plain Jacobi CG.
//! * `cg_amg` — the same system solved through a pattern-cached f64
//!   [`AmgHierarchy`] over the CSR — the pre-stencil baseline the 2×
//!   speedup target is measured against.
//! * `cg_stencil` — stencil operator outer CG, f64 AMG V-cycle: isolates
//!   the matrix-free apply's contribution.
//! * `cg_mixed` — stencil operator outer CG, f32 AMG V-cycle: the full
//!   mixed-precision hot path (same code `cg_solve` takes at this size).
//! * `cg_scaling/{jacobi,amg,mixed}/g{N}` — single-thread CG medians
//!   and iteration counts across grid sizes, one entry per
//!   preconditioner (`mixed` is the stencil-operator + f32-V-cycle hot
//!   path). Jacobi pays its setup inside the timed solve (as the
//!   escalation ladder does); AMG and mixed are timed against a
//!   pattern-cached hierarchy (as `SolveScratch` reuse does), with the
//!   one-time f64 build cost reported as its own
//!   `cg_scaling/amg_setup/g{N}` entry.
//! * `fault_sketch/{build,query,exact}/g96` — the rank-k SMW fault
//!   sketch at the g96 acceptance point: one-time sketch construction
//!   (baseline + candidate-column solves), the warm rank-2 what-if query,
//!   and the exact CG+AMG re-solve of the same downdated system. CI
//!   gates `query` at ≥ 20× faster than `exact`.
//! * `small_direct/{jacobi,chol_cold,chol_reused}` — the quick 2-layer
//!   voltage-stacked system (the served quick request's solve) under CG +
//!   Jacobi, under CG + Cholesky with the analysis and factorization
//!   inside the timed solve, and under CG + Cholesky against a reused
//!   factor, as the ladder's memo serves a bit-identical matrix.
//! * `fig6_sweep` — the end-to-end Fig 6 IR-drop study, whose series fan
//!   out over the pool.
//! * `obs_overhead/{disabled,enabled,span_disabled}` — the tracing
//!   overhead gate: the `cg_solve` system solved with span recording off
//!   (the shipping default; CI holds its median within 1% of
//!   `cg_solve/threads1`) and on, plus the per-probe cost of a disabled
//!   `span!` itself.
//!
//! Threaded variants are only benched at widths the host actually has:
//! on a 1-CPU container a `threads4` pool just time-slices one core and
//! its median measures oversubscription, not speedup. Skipped widths are
//! noted on stdout and `host_parallelism` is always recorded in the JSON
//! so the entry set is interpretable. The Fig 6 determinism gate still
//! compares 1-wide and 4-wide pools regardless — bit-identity must hold
//! even oversubscribed.
//!
//! Set `VSTACK_BENCH_QUICK=1` for a fast smoke run (CI) with smaller
//! systems and fewer samples.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use criterion::{BenchReport, Criterion};
use vstack::experiments::fig6::ir_drop_study;
use vstack::experiments::Fidelity;
use vstack::pdn::SolveScratch;
use vstack::sparse::cholesky::CholeskyFactor;
use vstack::sparse::pool::{with_pool, ThreadPool};
use vstack::sparse::solver::{
    cg_with_amg_f32_ws, cg_with_amg_op_ws, cg_with_cholesky_ws, cg_with_guess_ws, CgOptions,
    Preconditioner, SolveWorkspace,
};
use vstack::sparse::{
    AmgHierarchy, AmgHierarchyF32, AmgOptions, CsrMatrix, LadderPlan, SmwSketch, SmwUpdate,
    StencilDescriptor, StencilOperator, TripletMatrix,
};

/// 2-D grid Laplacian with Dirichlet stamps on `rails`, sized like one
/// PDN net. The fault-sketch groups pass corner subsets to stamp the
/// downdated (rail-opened) system exactly.
fn grid_laplacian_with_rails(n: usize, rails: &[usize]) -> (CsrMatrix, Vec<f64>) {
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
    for &rail in rails {
        t.push(rail, rail, 100.0);
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64 - 3.0) * 1e-3).collect();
    (a, b)
}

/// The four-corner Dirichlet grid every kernel group uses.
fn grid_laplacian(n: usize) -> (CsrMatrix, Vec<f64>) {
    grid_laplacian_with_rails(n, &[0, n - 1, n * (n - 1), n * n - 1])
}

struct Sizes {
    spmv_n: usize,
    cg_n: usize,
    scaling_grids: &'static [usize],
    fig6_layers: usize,
    kernel_samples: usize,
    scaling_samples: usize,
    sweep_samples: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            spmv_n: 192, // 36 864 nodes: keeps nnz above PAR_SPMV_MIN_NNZ
            cg_n: 96,    // 9 216 unknowns: engages the stencil + mixed hot path
            scaling_grids: &[12, 48, 96],
            fig6_layers: 2,
            kernel_samples: 10,
            scaling_samples: 3,
            sweep_samples: 1,
        }
    } else {
        Sizes {
            spmv_n: 256,
            cg_n: 192, // 36 864 unknowns: the g192 2x-speedup acceptance point
            scaling_grids: &[24, 48, 96, 192],
            fig6_layers: 4,
            kernel_samples: 30,
            scaling_samples: 10,
            sweep_samples: 3,
        }
    }
}

/// Extra per-entry facts the timing report alone cannot carry.
struct Extra {
    preconditioner: &'static str,
    /// Outer-iteration operator: `"csr"` or `"stencil"`.
    operator: &'static str,
    /// Preconditioner precision: `"f64"` or `"mixed"` (f32 V-cycle).
    precision: &'static str,
    iterations: usize,
}

type Meta = HashMap<String, Extra>;

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool widths worth timing on this host: always 1, plus 4 when the
/// host genuinely has that many CPUs.
fn pool_widths() -> Vec<(usize, Arc<ThreadPool>)> {
    let host = host_parallelism();
    let mut widths = vec![(1, Arc::new(ThreadPool::new(1)))];
    if host >= 4 {
        widths.push((4, Arc::new(ThreadPool::new(4))));
    } else {
        println!(
            "note: skipping threads4 benches — host_parallelism = {host}, \
             a 4-wide pool would only measure oversubscription"
        );
    }
    widths
}

/// One untimed solve to harvest the iteration count an entry will report.
fn probe_iterations(
    a: &CsrMatrix,
    b: &[f64],
    opts: &CgOptions,
    amg: Option<&AmgHierarchy>,
) -> usize {
    let mut ws = SolveWorkspace::new();
    let solved = match amg {
        Some(h) => cg_with_amg_op_ws(a, b, None, opts, h, &mut ws).expect("amg probe solve"),
        None => cg_with_guess_ws(a, b, None, opts, &mut ws).expect("probe solve"),
    };
    solved.iterations
}

/// Iteration count of the stencil-operator + f64 AMG path.
fn probe_iterations_stencil(
    op: &StencilOperator,
    b: &[f64],
    opts: &CgOptions,
    amg: &AmgHierarchy,
) -> usize {
    let mut ws = SolveWorkspace::new();
    cg_with_amg_op_ws(op, b, None, opts, amg, &mut ws)
        .expect("stencil probe solve")
        .iterations
}

/// Iteration count of the mixed-precision (f32 V-cycle) path.
fn probe_iterations_mixed(
    op: &StencilOperator,
    b: &[f64],
    opts: &CgOptions,
    amg: &AmgHierarchyF32,
) -> usize {
    let mut ws = SolveWorkspace::new();
    cg_with_amg_f32_ws(op, b, None, opts, amg, &mut ws)
        .expect("mixed probe solve")
        .iterations
}

fn bench_kernels(c: &mut Criterion, s: &Sizes, meta: &mut Meta) {
    let (a_spmv, b_spmv) = grid_laplacian(s.spmv_n);
    let (a_cg, b_cg) = grid_laplacian(s.cg_n);
    let amg = AmgHierarchy::build(&a_cg, &AmgOptions::default()).expect("grid laplacian coarsens");
    let stencil = StencilOperator::from_csr(&a_cg, StencilDescriptor::single_plane(s.cg_n))
        .expect("grid laplacian extracts");
    let amg_f32 = AmgHierarchyF32::from_hierarchy(&amg);

    // cg_solve mirrors the production default for its size: under the
    // AMG ladder plan the pdn layer's first rung is the stencil operator
    // with the mixed-precision f32 V-cycle.
    let cg_uses_amg = LadderPlan::for_size(a_cg.rows()) == LadderPlan::Amg;
    let cg_opts = CgOptions::default();

    for (threads, pool) in pool_widths() {
        with_pool(&pool, || {
            let mut g = c.benchmark_group("spmv");
            g.sample_size(s.kernel_samples);
            g.bench_function(format!("threads{threads}"), |bch| {
                let mut y = vec![0.0; b_spmv.len()];
                bch.iter(|| {
                    a_spmv.mul_vec_into(&b_spmv, &mut y);
                    black_box(y[0])
                })
            });
            g.finish();
        });
        with_pool(&pool, || {
            let iterations = if cg_uses_amg {
                probe_iterations_mixed(&stencil, &b_cg, &cg_opts, &amg_f32)
            } else {
                probe_iterations(&a_cg, &b_cg, &cg_opts, None)
            };
            meta.insert(
                format!("cg_solve/threads{threads}"),
                Extra {
                    preconditioner: if cg_uses_amg { "amgf32" } else { "jacobi" },
                    operator: if cg_uses_amg { "stencil" } else { "csr" },
                    precision: if cg_uses_amg { "mixed" } else { "f64" },
                    iterations,
                },
            );
            let mut g = c.benchmark_group("cg_solve");
            g.sample_size(s.kernel_samples);
            g.bench_function(format!("threads{threads}"), |bch| {
                let mut ws = SolveWorkspace::new();
                bch.iter(|| {
                    let solved = if cg_uses_amg {
                        cg_with_amg_f32_ws(&stencil, &b_cg, None, &cg_opts, &amg_f32, &mut ws)
                    } else {
                        cg_with_guess_ws(&a_cg, &b_cg, None, &cg_opts, &mut ws)
                    };
                    black_box(solved.expect("cg"))
                })
            });
            g.finish();
        });
        with_pool(&pool, || {
            let iterations = probe_iterations(&a_cg, &b_cg, &cg_opts, Some(&amg));
            meta.insert(
                format!("cg_amg/threads{threads}"),
                Extra {
                    preconditioner: "amg",
                    operator: "csr",
                    precision: "f64",
                    iterations,
                },
            );
            let mut g = c.benchmark_group("cg_amg");
            g.sample_size(s.kernel_samples);
            g.bench_function(format!("threads{threads}"), |bch| {
                let mut ws = SolveWorkspace::new();
                bch.iter(|| {
                    black_box(
                        cg_with_amg_op_ws(&a_cg, &b_cg, None, &cg_opts, &amg, &mut ws)
                            .expect("cg+amg"),
                    )
                })
            });
            g.finish();
        });
        with_pool(&pool, || {
            let iterations = probe_iterations_stencil(&stencil, &b_cg, &cg_opts, &amg);
            meta.insert(
                format!("cg_stencil/threads{threads}"),
                Extra {
                    preconditioner: "amg",
                    operator: "stencil",
                    precision: "f64",
                    iterations,
                },
            );
            let mut g = c.benchmark_group("cg_stencil");
            g.sample_size(s.kernel_samples);
            g.bench_function(format!("threads{threads}"), |bch| {
                let mut ws = SolveWorkspace::new();
                bch.iter(|| {
                    black_box(
                        cg_with_amg_op_ws(&stencil, &b_cg, None, &cg_opts, &amg, &mut ws)
                            .expect("cg+stencil"),
                    )
                })
            });
            g.finish();
        });
        with_pool(&pool, || {
            let iterations = probe_iterations_mixed(&stencil, &b_cg, &cg_opts, &amg_f32);
            meta.insert(
                format!("cg_mixed/threads{threads}"),
                Extra {
                    preconditioner: "amgf32",
                    operator: "stencil",
                    precision: "mixed",
                    iterations,
                },
            );
            let mut g = c.benchmark_group("cg_mixed");
            g.sample_size(s.kernel_samples);
            g.bench_function(format!("threads{threads}"), |bch| {
                let mut ws = SolveWorkspace::new();
                bch.iter(|| {
                    black_box(
                        cg_with_amg_f32_ws(&stencil, &b_cg, None, &cg_opts, &amg_f32, &mut ws)
                            .expect("cg+mixed"),
                    )
                })
            });
            g.finish();
        });
    }
}

/// Tracing-overhead gate: the `cg_solve` system with spans compiled in,
/// timed with recording disabled (the shipping default) and enabled, plus
/// a microbench pricing the disabled `span!` probe itself. CI compares
/// the `disabled` median against `cg_solve/threads1`.
fn bench_obs_overhead(c: &mut Criterion, s: &Sizes) {
    let (a, b) = grid_laplacian(s.cg_n);
    let cg_uses_amg = LadderPlan::for_size(a.rows()) == LadderPlan::Amg;
    let amg = AmgHierarchy::build(&a, &AmgOptions::default()).expect("grid laplacian coarsens");
    let stencil = StencilOperator::from_csr(&a, StencilDescriptor::single_plane(s.cg_n))
        .expect("grid laplacian extracts");
    let amg_f32 = AmgHierarchyF32::from_hierarchy(&amg);
    let opts = CgOptions::default();
    let pool = Arc::new(ThreadPool::new(1));
    with_pool(&pool, || {
        let mut g = c.benchmark_group("obs_overhead");
        g.sample_size(s.kernel_samples);
        for (mode, on) in [("disabled", false), ("enabled", true)] {
            vstack_obs::trace::set_enabled(on);
            g.bench_function(mode, |bch| {
                let mut ws = SolveWorkspace::new();
                bch.iter(|| {
                    let solved = if cg_uses_amg {
                        cg_with_amg_f32_ws(&stencil, &b, None, &opts, &amg_f32, &mut ws)
                    } else {
                        cg_with_guess_ws(&a, &b, None, &opts, &mut ws)
                    };
                    black_box(solved.expect("cg"))
                })
            });
            vstack_obs::trace::set_enabled(false);
            let _ = vstack_obs::trace::drain();
        }
        g.bench_function("span_disabled", |bch| {
            bch.iter(|| black_box(vstack_obs::span!("overhead_probe")))
        });
        g.finish();
    });
}

/// Single-thread iteration-count and median scaling across grid sizes,
/// one entry per preconditioner per grid.
fn bench_scaling(c: &mut Criterion, s: &Sizes, meta: &mut Meta) {
    let pool = Arc::new(ThreadPool::new(1));
    for &grid in s.scaling_grids {
        let (a, b) = grid_laplacian(grid);
        with_pool(&pool, || {
            let amg =
                AmgHierarchy::build(&a, &AmgOptions::default()).expect("grid laplacian coarsens");
            let mut g = c.benchmark_group("cg_scaling");
            g.sample_size(s.scaling_samples);
            g.bench_function(format!("amg_setup/g{grid}"), |bch| {
                bch.iter(|| {
                    black_box(AmgHierarchy::build(&a, &AmgOptions::default()).expect("amg setup"))
                })
            });
            g.finish();
            for pre in ["jacobi", "amg"] {
                let opts = CgOptions {
                    preconditioner: match pre {
                        "jacobi" => Preconditioner::Jacobi,
                        _ => Preconditioner::Amg,
                    },
                    ..CgOptions::default()
                };
                let cached_amg = (pre == "amg").then_some(&amg);
                let iterations = probe_iterations(&a, &b, &opts, cached_amg);
                meta.insert(
                    format!("cg_scaling/{pre}/g{grid}"),
                    Extra {
                        preconditioner: pre,
                        operator: "csr",
                        precision: "f64",
                        iterations,
                    },
                );
                let mut g = c.benchmark_group("cg_scaling");
                g.sample_size(s.scaling_samples);
                g.bench_function(format!("{pre}/g{grid}"), |bch| {
                    let mut ws = SolveWorkspace::new();
                    bch.iter(|| {
                        let solved = match cached_amg {
                            Some(h) => cg_with_amg_op_ws(&a, &b, None, &opts, h, &mut ws),
                            None => cg_with_guess_ws(&a, &b, None, &opts, &mut ws),
                        };
                        black_box(solved.expect("scaling solve"))
                    })
                });
                g.finish();
            }
            // The stencil + f32-V-cycle hot path at every size, so the
            // crossover against the pure-f64 rungs is in the record.
            let stencil = StencilOperator::from_csr(&a, StencilDescriptor::single_plane(grid))
                .expect("grid laplacian extracts");
            let amg_f32 = AmgHierarchyF32::from_hierarchy(&amg);
            let opts = CgOptions::default();
            let iterations = probe_iterations_mixed(&stencil, &b, &opts, &amg_f32);
            meta.insert(
                format!("cg_scaling/mixed/g{grid}"),
                Extra {
                    preconditioner: "amgf32",
                    operator: "stencil",
                    precision: "mixed",
                    iterations,
                },
            );
            let mut g = c.benchmark_group("cg_scaling");
            g.sample_size(s.scaling_samples);
            g.bench_function(format!("mixed/g{grid}"), |bch| {
                let mut ws = SolveWorkspace::new();
                bch.iter(|| {
                    black_box(
                        cg_with_amg_f32_ws(&stencil, &b, None, &opts, &amg_f32, &mut ws)
                            .expect("mixed scaling solve"),
                    )
                })
            });
            g.finish();
        });
    }
}

/// Fault-sketch groups at the g96 acceptance point (9 216 unknowns),
/// benched at this fixed size in quick and full runs alike:
///
/// * `fault_sketch/build/g96` — one-time sketch construction: the
///   tight-tolerance baseline solve plus one solve-vector per candidate
///   fault column (the four Dirichlet "rails" of the grid Laplacian).
/// * `fault_sketch/query/g96` — the warm rank-2 SMW what-if answer
///   (opening two rails): `2k` axpys plus `O(k³)` dense work, no solve.
/// * `fault_sketch/exact/g96` — the exact CG+AMG re-solve of the same
///   downdated system the query replaces, timed against a pre-built
///   hierarchy (generous to the exact path — production would also pay
///   the re-stamp). CI gates `query` ≥ 20× faster than `exact`.
fn bench_fault_sketch(c: &mut Criterion, s: &Sizes, meta: &mut Meta) {
    let grid = 96usize;
    let (a, b) = grid_laplacian(grid);
    // The four Dirichlet corners are the grid's "pad rails": each is a
    // rank-1 stamp g·e eᵀ whose removal the sketch answers via SMW.
    let rails = [0, grid - 1, grid * (grid - 1), grid * grid - 1];
    let rail_g = 100.0;
    let opts = CgOptions {
        tolerance: 1e-11,
        preconditioner: Preconditioner::Amg,
        ..CgOptions::default()
    };
    let pool = Arc::new(ThreadPool::new(1));
    with_pool(&pool, || {
        let amg = AmgHierarchy::build(&a, &AmgOptions::default()).expect("grid laplacian coarsens");
        let solve = |rhs: &[f64], ws: &mut SolveWorkspace| {
            cg_with_amg_op_ws(&a, rhs, None, &opts, &amg, ws)
        };
        let build_sketch = |ws: &mut SolveWorkspace| -> SmwSketch {
            let x0 = solve(&b, ws).expect("baseline solve").x;
            let mut sk = SmwSketch::new(x0, b.clone(), 1e-9);
            for &rail in &rails {
                let col = sk.add_column(vec![(rail, 1.0)]);
                sk.ensure_column(col, |u| solve(u, ws).map(|s| s.x))
                    .expect("column solve");
            }
            sk
        };

        let iterations = probe_iterations(&a, &b, &opts, Some(&amg));
        meta.insert(
            "fault_sketch/build/g96".to_string(),
            Extra {
                preconditioner: "amg",
                operator: "csr",
                precision: "f64",
                iterations,
            },
        );
        let mut g = c.benchmark_group("fault_sketch");
        g.sample_size(s.scaling_samples);
        g.bench_function("build/g96", |bch| {
            let mut ws = SolveWorkspace::new();
            bch.iter(|| black_box(build_sketch(&mut ws).ready_count()))
        });
        g.finish();

        let mut ws = SolveWorkspace::new();
        let sk = build_sketch(&mut ws);
        let updates: Vec<SmwUpdate> = (0..2)
            .map(|c| SmwUpdate {
                column: c,
                scale: rail_g,
                rhs_delta: 0.0,
            })
            .collect();
        let answer = sk.query(&updates).expect("warm what-if query");
        meta.insert(
            "fault_sketch/query/g96".to_string(),
            Extra {
                preconditioner: "none",
                operator: "smw",
                precision: "f64",
                iterations: 0,
            },
        );
        let mut g = c.benchmark_group("fault_sketch");
        g.sample_size(s.kernel_samples);
        g.bench_function("query/g96", |bch| {
            bch.iter(|| black_box(sk.query(&updates).expect("warm what-if query").x[0]))
        });
        g.finish();

        // The exact re-solve of the identical downdated system: the same
        // grid stamped with only the two surviving rails.
        let (a_f, _) = grid_laplacian_with_rails(grid, &rails[2..]);
        let amg_f =
            AmgHierarchy::build(&a_f, &AmgOptions::default()).expect("faulted grid coarsens");
        let exact =
            cg_with_amg_op_ws(&a_f, &b, None, &opts, &amg_f, &mut ws).expect("exact faulted");
        let rel: f64 = answer
            .x
            .iter()
            .zip(&exact.x)
            .map(|(s, e)| (s - e) * (s - e))
            .sum::<f64>()
            .sqrt()
            / exact.x.iter().map(|e| e * e).sum::<f64>().sqrt();
        assert!(
            rel <= 1e-8,
            "SMW answer drifted from the exact faulted solve: rel = {rel:.3e}"
        );
        meta.insert(
            "fault_sketch/exact/g96".to_string(),
            Extra {
                preconditioner: "amg",
                operator: "csr",
                precision: "f64",
                iterations: exact.iterations,
            },
        );
        let mut g = c.benchmark_group("fault_sketch");
        g.sample_size(s.kernel_samples);
        g.bench_function("exact/g96", |bch| {
            let mut ws = SolveWorkspace::new();
            bch.iter(|| {
                black_box(
                    cg_with_amg_op_ws(&a_f, &b, None, &opts, &amg_f, &mut ws)
                        .expect("exact faulted"),
                )
            })
        });
        g.finish();
    });
}

/// The direct rung against Jacobi on the quick 2-layer voltage-stacked
/// system, at the served tolerance, single-threaded. The right-hand side
/// is reproduced from the solved voltages.
fn bench_small_direct(c: &mut Criterion, s: &Sizes, meta: &mut Meta) {
    let scenario = vstack_engine::request::ScenarioRequest::voltage_stacked(2, 0.5)
        .quick()
        .to_scenario();
    let mut scratch = SolveScratch::new();
    let solved = scenario
        .solve_voltage_stacked_warm(0.5, None, &mut scratch)
        .expect("quick 2-layer solve");
    let a = scratch
        .last_matrix()
        .expect("solve left its matrix")
        .clone();
    let b = a.mul_vec(&solved.voltages);
    let opts = CgOptions {
        tolerance: 1e-9,
        max_iterations: 50_000,
        ..CgOptions::default()
    };
    let factor = || {
        let mut f = CholeskyFactor::analyze(&a);
        f.factorize(&a).expect("spd factor");
        f
    };
    let reused = factor();
    let pool = Arc::new(ThreadPool::new(1));
    with_pool(&pool, || {
        let mut ws = SolveWorkspace::new();
        let entries = [
            ("jacobi", "jacobi", probe_iterations(&a, &b, &opts, None)),
            (
                "chol_cold",
                "chol",
                cg_with_cholesky_ws(&a, &b, None, &opts, &factor(), &mut ws)
                    .expect("direct probe solve")
                    .iterations,
            ),
            (
                "chol_reused",
                "chol",
                cg_with_cholesky_ws(&a, &b, None, &opts, &reused, &mut ws)
                    .expect("direct probe solve")
                    .iterations,
            ),
        ];
        for (name, preconditioner, iterations) in entries {
            meta.insert(
                format!("small_direct/{name}"),
                Extra {
                    preconditioner,
                    operator: "csr",
                    precision: "f64",
                    iterations,
                },
            );
        }
        let mut g = c.benchmark_group("small_direct");
        g.sample_size(s.kernel_samples);
        g.bench_function("jacobi", |bch| {
            bch.iter(|| black_box(cg_with_guess_ws(&a, &b, None, &opts, &mut ws).expect("cg")))
        });
        g.bench_function("chol_cold", |bch| {
            bch.iter(|| {
                let f = factor();
                black_box(cg_with_cholesky_ws(&a, &b, None, &opts, &f, &mut ws).expect("cg+chol"))
            })
        });
        g.bench_function("chol_reused", |bch| {
            bch.iter(|| {
                black_box(
                    cg_with_cholesky_ws(&a, &b, None, &opts, &reused, &mut ws).expect("cg+chol"),
                )
            })
        });
        g.finish();
    });
}

fn bench_fig6(c: &mut Criterion, s: &Sizes) {
    // Determinism gate first: the pooled study must be bit-identical to
    // the serial one before its timing means anything. This deliberately
    // runs a 4-wide pool even on narrower hosts — identity must hold
    // oversubscribed too.
    let serial_pool = Arc::new(ThreadPool::new(1));
    let wide_pool = Arc::new(ThreadPool::new(4));
    let serial = with_pool(&serial_pool, || {
        ir_drop_study(Fidelity::Quick, s.fig6_layers).expect("fig6")
    });
    let threaded = with_pool(&wide_pool, || {
        ir_drop_study(Fidelity::Quick, s.fig6_layers).expect("fig6")
    });
    assert_eq!(
        serial, threaded,
        "threaded fig6 study must be bit-identical to serial"
    );

    for (threads, pool) in pool_widths() {
        with_pool(&pool, || {
            let mut g = c.benchmark_group("fig6_sweep");
            g.sample_size(s.sweep_samples);
            g.bench_function(format!("threads{threads}"), |bch| {
                bch.iter(|| black_box(ir_drop_study(Fidelity::Quick, s.fig6_layers).expect("fig6")))
            });
            g.finish();
        });
    }
}

/// Renders the collected reports as `BENCH_solver.json` at the repo root.
fn render_json(reports: &[BenchReport], meta: &Meta, quick: bool) -> String {
    let host = host_parallelism();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"vstack-bench-solver/4\",\n");
    out.push_str(&format!("  \"host_parallelism\": {host},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let threads: usize = r
            .name
            .rsplit("threads")
            .next()
            .and_then(|t| t.parse().ok())
            .unwrap_or(1);
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let mut entry = format!(
            "{{\"name\": \"{}\", \"threads\": {}, \"median_ns\": {}",
            r.name, threads, r.median_ns
        );
        if let Some(x) = meta.get(&r.name) {
            entry.push_str(&format!(
                ", \"preconditioner\": \"{}\", \"operator\": \"{}\", \
                 \"precision\": \"{}\", \"iterations\": {}",
                x.preconditioner, x.operator, x.precision, x.iterations
            ));
        }
        entry.push('}');
        out.push_str(&format!("    {entry}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let quick = std::env::var("VSTACK_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let s = sizes(quick);
    let mut c = Criterion::default();
    let mut meta = Meta::new();
    bench_kernels(&mut c, &s, &mut meta);
    bench_obs_overhead(&mut c, &s);
    bench_scaling(&mut c, &s, &mut meta);
    bench_fault_sketch(&mut c, &s, &mut meta);
    bench_small_direct(&mut c, &s, &mut meta);
    bench_fig6(&mut c, &s);

    let json = render_json(c.reports(), &meta, quick);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    std::fs::write(path, &json).expect("write BENCH_solver.json");
    println!("wrote {path}");
}
