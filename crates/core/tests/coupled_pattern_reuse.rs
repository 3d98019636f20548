//! Exact-count check of symbolic-pattern reuse across the thermal–EM–IR
//! coupling iteration, read from the global `vstack-obs` metrics registry.
//!
//! The registry is process-wide, so this file holds a **single** test:
//! `cargo test` runs each integration-test binary as its own process, and
//! with one test in the binary no sibling thread can bump the counters
//! between our before/after reads. Do not add more `#[test]`s here —
//! start another single-test file instead.

use vstack::coupled::{solve_coupled, CoupledConfig, CoupledLoad};
use vstack::pdn::{SolveScratch, TsvTopology};
use vstack::scenario::DesignScenario;

fn quick_scenario(n_layers: usize) -> DesignScenario {
    let mut p = DesignScenario::paper_baseline().pdn_params().clone();
    p.grid_refinement = 1;
    DesignScenario::paper_baseline()
        .params(p)
        .layers(n_layers)
        .tsv_topology(TsvTopology::Few)
        .power_c4_fraction(0.25)
}

#[test]
fn coupling_iterations_reuse_one_symbolic_factorization() {
    let s = quick_scenario(4);
    let config = CoupledConfig::paper_air_cooled();
    let mut scratch = SolveScratch::new();
    let m = vstack_obs::metrics::global();
    let builds_before = m.pdn_pattern_builds.get();
    let out = solve_coupled(&s, CoupledLoad::RegularPeak, &config, None, &mut scratch)
        .expect("coupled solve");
    assert!(out.report.converged);
    assert!(out.report.iterations >= 2);
    let built = m.pdn_pattern_builds.get() - builds_before;
    // One symbolic pattern build for the first assembly; every later
    // iteration re-stamps values into the same sparsity pattern.
    assert_eq!(
        built, 1,
        "coupled run rebuilt the pattern {built} times over {} iterations",
        out.report.iterations
    );
}
