//! Bit-identity of the array-lifetime search against the original
//! fixed 200-step bisection.
//!
//! `expected_em_free_lifetime` builds each group's distribution once and
//! leaves the bisection when the midpoint stops moving. Both are pure
//! speedups: the returned `f64` must match the reference below to the
//! bit, on arrays shaped like the served ones (hundreds of groups, some
//! carrying no current, fractional lumped counts) under every Black
//! model the crate ships.

use proptest::prelude::*;
use vstack_em::array::expected_em_free_lifetime;
use vstack_em::black::{BlackModel, BOLTZMANN_EV_PER_K};
use vstack_em::lognormal::Lognormal;

/// The original search: every one of 200 bisection steps re-evaluates
/// Black's equation and rebuilds each group's lognormal.
fn reference_lifetime(groups: &[(f64, f64)], model: &BlackModel) -> f64 {
    let log_survival = |t: f64| {
        let mut log_s = 0.0;
        for &(current, count) in groups {
            let median = model.median_ttf_hours(current);
            if median.is_infinite() {
                continue;
            }
            log_s += count * Lognormal::new(median, model.sigma).log_survival(t);
            if log_s == f64::NEG_INFINITY {
                break;
            }
        }
        log_s
    };
    let mut min_median = f64::INFINITY;
    for &(current, _) in groups {
        let m = model.median_ttf_hours(current);
        if m < min_median {
            min_median = m;
        }
    }
    if min_median.is_infinite() {
        return f64::INFINITY;
    }
    let mut lo = (min_median * 1e-6).ln();
    let mut hi = (min_median * 10.0).ln();
    let p_at = |ln_t: f64| 1.0 - log_survival(ln_t.exp()).exp();
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

fn model(which: usize) -> BlackModel {
    match which {
        0 => BlackModel::c4_bump(),
        1 => BlackModel::tsv(),
        2 => BlackModel::paper_c4(),
        _ => BlackModel::paper_tsv(),
    }
}

/// One conductor group: `(zero draw, signed log10 current, count)`.
fn group() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.0..1.0f64, -5.0..0.0f64, 0.05..400.0f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn lifetime_matches_the_fixed_200_step_bisection(
        which in 0usize..4,
        zero_frac in 0.0..0.4f64,
        negative_frac in 0.0..0.5f64,
        raw in prop::collection::vec(group(), 1..601),
    ) {
        let m = model(which);
        let groups: Vec<(f64, f64)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(draw, log_i, count))| {
                let current = if draw < zero_frac {
                    0.0
                } else if (i as f64 / raw.len() as f64) < negative_frac {
                    -(10f64.powf(log_i))
                } else {
                    10f64.powf(log_i)
                };
                (current, count)
            })
            .collect();
        let fast = expected_em_free_lifetime(&groups, &m);
        let slow = reference_lifetime(&groups, &m);
        prop_assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "model {} with {} groups: {} vs reference {}",
            which,
            groups.len(),
            fast,
            slow
        );
    }
}

#[test]
fn all_zero_current_array_is_infinite_in_both() {
    let groups = [(0.0, 3.5), (0.0, 12.0)];
    for which in 0..4 {
        let m = model(which);
        assert_eq!(expected_em_free_lifetime(&groups, &m), f64::INFINITY);
        assert_eq!(reference_lifetime(&groups, &m), f64::INFINITY);
    }
}

/// The current whose per-conductor median life under `m` is
/// `exp(ln_median)` hours (Black's equation solved for the current).
fn current_for(m: &BlackModel, ln_median: f64) -> f64 {
    let thermal = (m.activation_energy_ev / (BOLTZMANN_EV_PER_K * m.temperature_k)).exp();
    let density = (m.prefactor * thermal / ln_median.exp()).powf(1.0 / m.current_exponent);
    density * m.area_cm2
}

/// The 1- and 2-group arrays of the scan, centred on one median.
fn small_arrays(m: &BlackModel, ln_median: f64, count: f64) -> [Vec<(f64, f64)>; 2] {
    let current = current_for(m, ln_median);
    [
        vec![(current, count)],
        vec![(current, count), (-0.6 * current, 2.5 * count)],
    ]
}

const SCAN_COUNTS: [f64; 7] = [0.05, 0.4, 1.0, 3.7, 42.0, 600.0, 1e4];

/// Compares both searches on `groups`, returning the lifetime's `ln`.
fn assert_identical(groups: &[(f64, f64)], which: usize) -> f64 {
    let m = model(which);
    let fast = expected_em_free_lifetime(groups, &m);
    let slow = reference_lifetime(groups, &m);
    assert_eq!(
        fast.to_bits(),
        slow.to_bits(),
        "model {which}, groups {groups:?}: {fast} vs reference {slow}"
    );
    fast.ln()
}

/// Every model, count and array shape over medians `e^24 … e^72` hours:
/// the lifetimes cover the `ln t` binades `[16, 32)`, `[32, 64)` and
/// `[64, 128)`, where the midpoint arithmetic changes its ulp.
#[test]
fn small_arrays_match_across_the_ln_t_binades() {
    let (mut below_32, mut between, mut above_64) = (0, 0, 0);
    for which in 0..4 {
        let m = model(which);
        for step in 0..=192 {
            let ln_median = 24.0 + 0.25 * f64::from(step);
            for count in SCAN_COUNTS {
                for groups in small_arrays(&m, ln_median, count) {
                    let ln_t = assert_identical(&groups, which);
                    match ln_t {
                        x if x < 32.0 => below_32 += 1,
                        x if x < 64.0 => between += 1,
                        _ => above_64 += 1,
                    }
                }
            }
        }
    }
    assert!(below_32 > 100 && between > 100 && above_64 > 100);
}

/// Lifetimes placed within a few hundred ulps of `ln t` = 32 and 64, so
/// the final one-ulp bracket straddles or touches the binade edge.
#[test]
fn small_arrays_match_at_the_binade_edges() {
    for which in 0..4 {
        let m = model(which);
        for count in SCAN_COUNTS {
            for shape in 0..2 {
                // The lifetime sits a fixed distance below the median for
                // a given shape and count; measure it once, then aim at
                // the edge.
                let offset =
                    reference_lifetime(&small_arrays(&m, 48.0, count)[shape], &m).ln() - 48.0;
                for edge in [32.0, 64.0] {
                    let (mut under, mut over) = (0, 0);
                    for k in -20..=20 {
                        let ln_median = edge - offset + f64::from(k) * 5e-14;
                        let groups = &small_arrays(&m, ln_median, count)[shape];
                        if assert_identical(groups, which) < edge {
                            under += 1;
                        } else {
                            over += 1;
                        }
                    }
                    assert!(
                        under > 0 && over > 0,
                        "model {which}, count {count}, shape {shape}: edge {edge} not straddled"
                    );
                }
            }
        }
    }
}
