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
use vstack_em::black::BlackModel;
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
