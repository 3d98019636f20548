//! The EM lifetimes of real solved PDNs match the plain lifetime
//! bisection to the bit.
//!
//! `expected_em_free_lifetime` reaches the bisection's answer through a
//! Newton hint, an ulp snap and a replay of the bisection. The arrays
//! here are the C4 and TSV arrays of quick 2-, 4- and 8-layer
//! voltage-stacked and regular solves, the shapes every served request
//! evaluates.

use vstack::em::black::BlackModel;
use vstack::em::lognormal::Lognormal;
use vstack::em_study::paper_em_lifetimes;
use vstack::pdn::solution::{ConductorCurrents, PdnSolution};
use vstack::scenario::DesignScenario;

/// The plain search: bisection on `ln t` over `[ln(10⁻⁶·m_min),
/// ln(10·m_min)]`, every one of 200 steps evaluating the array survival.
fn plain_lifetime(groups: &[(f64, f64)], model: &BlackModel) -> f64 {
    let dists: Vec<(Lognormal, f64)> = groups
        .iter()
        .map(|&(current, count)| (model.median_ttf_hours(current), count))
        .filter(|(median, _)| !median.is_infinite())
        .map(|(median, count)| (Lognormal::new(median, model.sigma), count))
        .collect();
    let min_median = dists
        .iter()
        .map(|(d, _)| d.median)
        .fold(f64::INFINITY, f64::min);
    if min_median.is_infinite() {
        return f64::INFINITY;
    }
    let p_at = |ln_t: f64| {
        let t = ln_t.exp();
        let mut log_s = 0.0;
        for (d, count) in &dists {
            log_s += count * d.log_survival(t);
            if log_s == f64::NEG_INFINITY {
                break;
            }
        }
        1.0 - log_s.exp()
    };
    let mut lo = (min_median * 1e-6).ln();
    let mut hi = (min_median * 10.0).ln();
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if p_at(mid) < 0.5 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0.5 * (lo + hi)).exp()
}

fn groups_of(currents: &[&ConductorCurrents]) -> Vec<(f64, f64)> {
    currents
        .iter()
        .flat_map(|c| c.groups().iter().map(|g| (g.current_a, g.count)))
        .collect()
}

fn check(label: &str, solution: &PdnSolution) {
    let life = paper_em_lifetimes(solution);
    let c4 = plain_lifetime(
        &groups_of(&[&solution.vdd_c4, &solution.gnd_c4]),
        &BlackModel::paper_c4(),
    );
    let tsv = plain_lifetime(&groups_of(&[&solution.tsv]), &BlackModel::paper_tsv());
    assert_eq!(life.c4_hours.to_bits(), c4.to_bits(), "{label}: C4 array");
    assert_eq!(
        life.tsv_hours.to_bits(),
        tsv.to_bits(),
        "{label}: TSV array"
    );
}

#[test]
fn quick_solves_match_the_plain_bisection_bit_for_bit() {
    for layers in [2usize, 4, 8] {
        let scenario = DesignScenario::paper_baseline()
            .coarse_grid()
            .layers(layers);
        for imbalance in [0.0, 0.4] {
            let vs = scenario.solve_voltage_stacked(imbalance).unwrap();
            check(&format!("{layers}-layer V-S, imbalance {imbalance}"), &vs);
        }
        let regular = scenario.solve_regular_peak().unwrap();
        check(&format!("{layers}-layer regular"), &regular);
    }
}
