//! Exact-count checks of the Cholesky memo counters in the global
//! `vstack-obs` registry.
//!
//! The registry is process-wide, so this file holds a **single** test (see
//! `obs_metrics.rs` for why). Do not add more `#[test]`s here.

use vstack_obs::metrics::global;
use vstack_sparse::cholesky::clear_memo;
use vstack_sparse::{
    solve_robust, CsrMatrix, RobustOptions, RobustSolved, SolveMethod, SolveWorkspace,
    TripletMatrix,
};

/// A `w × h` grid Laplacian tied to ground, conductance `g` per edge.
fn grid(w: usize, h: usize, g: f64) -> CsrMatrix {
    let n = w * h;
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 0.01);
        if i % w != w - 1 {
            t.stamp_conductance(Some(i), Some(i + 1), g);
        }
        if i + w < n {
            t.stamp_conductance(Some(i), Some(i + w), g);
        }
    }
    t.to_csr()
}

fn solve(a: &CsrMatrix) -> RobustSolved {
    let b = vec![1e-3; a.rows()];
    solve_robust(
        a,
        None,
        &b,
        None,
        &RobustOptions::default(),
        &mut SolveWorkspace::new(),
        &mut None,
        None,
    )
    .expect("ladder solves")
}

/// `(analyses, factorizations, reuses)` now.
fn counts() -> (u64, u64, u64) {
    let m = global();
    (
        m.chol_analyses.get(),
        m.chol_factorizations.get(),
        m.chol_factor_reuses.get(),
    )
}

#[test]
fn memo_counters_track_analyses_factorizations_and_reuses() {
    clear_memo();
    let (a1, a2) = (grid(12, 9, 1.0), grid(12, 9, 2.0));

    // First sight of a pattern: one analysis, one factorization.
    let before = counts();
    let cold = solve(&a1);
    assert_eq!(cold.report.method, SolveMethod::CgCholesky);
    assert_eq!(cold.report.iterations, 1);
    assert_eq!(counts(), (before.0 + 1, before.1 + 1, before.2));

    // Bit-identical values: the memoized factor answers, no setup.
    let hit = solve(&a1);
    assert_eq!(counts(), (before.0 + 1, before.1 + 1, before.2 + 1));
    assert_eq!(hit.report.setup_us, 0);
    assert_eq!(hit, cold);

    // New values on the known pattern: refactor, no new analysis.
    solve(&a2);
    assert_eq!(counts(), (before.0 + 1, before.1 + 2, before.2 + 1));

    // A pattern the fill gate rejects is analyzed once and remembered.
    let wide = grid(64, 40, 1.0);
    let before = counts();
    for _ in 0..2 {
        let report = solve(&wide).report;
        assert_eq!(report.method, SolveMethod::CgJacobi);
        assert!(!report.was_rescued(), "no fallback: {}", report.trail());
    }
    assert_eq!(counts(), (before.0 + 1, before.1, before.2));

    // Clearing the memo forces a fresh analysis with the same answer.
    clear_memo();
    let before = counts();
    assert_eq!(solve(&a1), cold);
    assert_eq!(counts(), (before.0 + 1, before.1 + 1, before.2));
}
