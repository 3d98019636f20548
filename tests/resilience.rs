//! Robustness integration tests: the escalation ladder's fallback trail,
//! fault injection through the scenario layer, and the wearout loop's
//! terminal states, exercised end to end across the workspace crates.

use vstack::experiments::ext_wearout::{
    regular_wearout, vs_wearout, WearoutConfig, WearoutOutcome,
};
use vstack::experiments::Fidelity;
use vstack::pdn::{FaultSet, PdnError};
use vstack::scenario::DesignScenario;
use vstack::sparse::{
    solve_robust, CsrMatrix, LadderPlan, RobustOptions, SolveMethod, SolveWorkspace,
};

/// A well-posed symmetric indefinite 4×4 system with a zero diagonal
/// entry: the AMG plan's coarse Cholesky and the Jacobi rung both fail on
/// it, so only BiCGSTAB can answer.
fn zero_diagonal_blocks() -> CsrMatrix {
    CsrMatrix::from_triplets(
        4,
        4,
        &[
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (2, 2, 2.0),
            (2, 3, -1.0),
            (3, 2, -1.0),
            (3, 3, 2.0),
        ],
    )
}

/// The escalation ladder rescues a system that defeats its first two
/// rungs, and its `SolveReport` records the full fallback trail in order,
/// starting from the abandoned multigrid rung.
#[test]
fn escalation_ladder_reports_its_fallback_trail() {
    let a = zero_diagonal_blocks();
    let x_true = [1.0, -2.0, 0.5, 3.0];
    let b = a.mul_vec(&x_true);
    let options = RobustOptions {
        plan: LadderPlan::Amg,
        ..RobustOptions::default()
    };
    let mut ws = SolveWorkspace::new();
    let sol =
        solve_robust(&a, None, &b, None, &options, &mut ws, &mut None, None).expect("rescued");

    assert!(sol.report.was_rescued());
    let abandoned: Vec<_> = sol.report.fallbacks.iter().map(|f| f.from).collect();
    assert_eq!(abandoned, [SolveMethod::CgAmg, SolveMethod::CgJacobi]);
    assert_eq!(sol.report.method, SolveMethod::BiCgStab);
    let trail = sol.report.trail();
    assert!(
        trail.starts_with("cg+amg->cg+jacobi->bicgstab ("),
        "trail: {trail}"
    );
    for (u, v) in sol.x.iter().zip(&x_true) {
        assert!((u - v).abs() < 1e-6, "x = {:?}", sol.x);
    }
}

/// A healthy PDN solved through the reported path needs no rescue, and
/// its report carries a meaningful converged residual.
#[test]
fn healthy_scenario_solve_is_unrescued() {
    let s = DesignScenario::paper_baseline().layers(2).coarse_grid();
    let sol = s
        .solve_regular_peak_reported(&FaultSet::new())
        .expect("healthy");
    assert!(!sol.report.was_rescued(), "trail: {}", sol.report.trail());
    assert!(sol.report.relative_residual <= 1e-8);
    assert!(sol.report.iterations > 0);
}

/// Killing every power pad of the regular topology yields the structured
/// [`PdnError::Disconnected`] — no panic, no raw solver breakdown.
#[test]
fn killing_every_pad_reports_disconnected() {
    let s = DesignScenario::paper_baseline().layers(2).coarse_grid();
    let pdn = s.regular_pdn();
    let mut faults = FaultSet::new();
    for ord in 0..pdn.c4().vdd_count() {
        faults.fail_vdd_pad(ord);
    }
    for ord in 0..pdn.c4().gnd_count() {
        faults.fail_gnd_pad(ord);
    }
    match s.solve_regular_peak_reported(&faults) {
        Err(PdnError::Disconnected { floating_nodes, .. }) => {
            assert!(floating_nodes > 0);
        }
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

/// The wearout loop runs to a clean terminal state on both topologies and
/// produces monotonically worsening degradation curves, with the V-S
/// stack degrading more gracefully than the regular PDN.
#[test]
fn wearout_loop_terminates_cleanly_on_both_topologies() {
    let cfg = WearoutConfig {
        fidelity: Fidelity::Quick,
        kill_fraction_per_round: 0.10,
        max_rounds: 6,
        ..WearoutConfig::default()
    };
    let reg = regular_wearout(&cfg, 4).expect("regular curve");
    let vs = vs_wearout(&cfg, 4).expect("v-s curve");
    for curve in [&reg, &vs] {
        assert!(
            curve.points.len() >= 2,
            "{}: {:?}",
            curve.label,
            curve.outcome
        );
        for p in &curve.points {
            assert!(p.max_ir_drop_frac.is_finite() && p.max_ir_drop_frac >= 0.0);
        }
        // Terminal states are data, not errors.
        assert!(matches!(
            curve.outcome,
            WearoutOutcome::Disconnected { .. }
                | WearoutOutcome::DropLimitExceeded { .. }
                | WearoutOutcome::SolverExhausted { .. }
                | WearoutOutcome::Survived
        ));
    }
    assert!(
        vs.degradation_slope() < reg.degradation_slope(),
        "V-S slope {} vs regular {}",
        vs.degradation_slope(),
        reg.degradation_slope()
    );
}
