//! Exact-count checks of the global `vstack-obs` metrics registry against
//! the escalation ladder.
//!
//! The registry is process-wide, so this file holds a **single** test:
//! `cargo test` runs each integration-test binary as its own process, and
//! with one test in the binary no sibling thread can bump the counters
//! between our before/after reads. Do not add more `#[test]`s here —
//! start another single-test file instead.

use vstack_obs::metrics::global;
use vstack_sparse::{
    solve_robust, CsrMatrix, LadderPlan, RobustOptions, RobustSolved, SolveMethod, SolveWorkspace,
    TripletMatrix,
};

/// One ladder solve with fresh scratch and no f32 slot.
fn solve(a: &CsrMatrix, b: &[f64], opts: &RobustOptions) -> RobustSolved {
    solve_robust(
        a,
        None,
        b,
        None,
        opts,
        &mut SolveWorkspace::new(),
        &mut None,
        None,
    )
    .expect("ladder solves")
}

/// 1-D grounded Laplacian: solves on the first rung, no escalation.
fn laplacian_1d(n: usize) -> CsrMatrix {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, if i == 0 { 3.0 } else { 2.0 });
        if i + 1 < n {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
    }
    t.to_csr()
}

#[test]
fn ladder_counters_move_in_lock_step_with_solve_reports() {
    let m = global();
    let opts = RobustOptions::default();

    // A healthy solve: one ladder entry, zero escalations, zero rescues.
    let before = (
        m.ladder_solves.get(),
        m.ladder_escalations.get(),
        m.ladder_rescued.get(),
    );
    let a = laplacian_1d(50);
    let sol = solve(&a, &vec![1.0; 50], &opts);
    assert!(sol.report.fallbacks.is_empty());
    assert_eq!(m.ladder_solves.get(), before.0 + 1);
    assert_eq!(m.ladder_escalations.get(), before.1);
    assert_eq!(m.ladder_rescued.get(), before.2);

    // A diagonal matrix defeats AMG coarsening: the escalation counter
    // must advance by exactly the number of recorded fallback steps, and
    // the rescue counter by exactly one.
    let amg_first = RobustOptions {
        plan: LadderPlan::Amg,
        ..RobustOptions::default()
    };
    let before = (
        m.ladder_solves.get(),
        m.ladder_escalations.get(),
        m.ladder_rescued.get(),
    );
    let triplets: Vec<_> = (0..300).map(|i| (i, i, 2.0)).collect();
    let a = CsrMatrix::from_triplets(300, 300, &triplets);
    let sol = solve(&a, &vec![1.0; 300], &amg_first);
    assert!(!sol.report.fallbacks.is_empty(), "{}", sol.report.trail());
    assert_eq!(sol.report.fallbacks[0].from, SolveMethod::CgAmg);
    assert_eq!(sol.report.method, SolveMethod::CgJacobi);
    assert_eq!(m.ladder_solves.get(), before.0 + 1);
    assert_eq!(
        m.ladder_escalations.get(),
        before.1 + sol.report.fallbacks.len() as u64,
        "one escalation per recorded fallback step: {}",
        sol.report.trail()
    );
    assert_eq!(m.ladder_rescued.get(), before.2 + 1);

    // A zero diagonal defeats AMG *and* Jacobi: still exactly one
    // counter tick per fallback step, across a deeper trail.
    let before = m.ladder_escalations.get();
    let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
    let sol = solve(&a, &[2.0, 5.0], &amg_first);
    assert!(sol.report.fallbacks.len() >= 2, "{}", sol.report.trail());
    assert_eq!(
        m.ladder_escalations.get(),
        before + sol.report.fallbacks.len() as u64
    );

    // The snapshot serialization sees the same values the accessors do.
    let snapshot = vstack_obs::metrics::snapshot_json();
    assert!(snapshot.contains(&format!(
        "\"ladder_escalations\":{}",
        m.ladder_escalations.get()
    )));
}
